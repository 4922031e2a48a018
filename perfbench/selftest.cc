/**
 * @file
 * Self-test of the open-loop generator, in virtual time against a fake
 * sink with a fixed service time: known percentiles, a stall visible
 * in the requests queued behind it, and backlog detection. Exits 0
 * when every check holds. Run via `python3 perfbench/run.py --selftest`.
 */

#include <cmath>
#include <cstdio>
#include <functional>

#include "open_loop.hh"

namespace {

using namespace perfbench;

/** Time only advances when the dispatcher sleeps or the sink works. */
struct VirtualClock
{
    double t = 0.0;
    double now() const { return t; }
    void sleepUntil(double until) { t = std::max(t, until); }
};

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
}

bool
near(double a, double b, double tol = 1e-6)
{
    return std::fabs(a - b) <= tol;
}

/** Evenly spaced arrivals every `period` seconds. */
std::vector<double>
periodic(double period, std::size_t n)
{
    std::vector<double> due;
    for (std::size_t i = 1; i <= n; ++i)
        due.push_back(double(i) * period);
    return due;
}

StepTrace
drive(const std::vector<double> &due,
      const std::function<double(std::size_t first, std::size_t n)>
          &serviceSeconds)
{
    VirtualClock clock;
    return runOpenLoop(due, clock, [&](std::size_t first, std::size_t n) {
        clock.t += serviceSeconds(first, n);
    });
}

} // namespace

int
main()
{
    // Below capacity: every request is served alone, so each latency is
    // exactly the service time.
    {
        const StepTrace tr = drive(periodic(0.010, 1000),
                                   [](std::size_t, std::size_t) {
                                       return 0.004;
                                   });
        const StepSummary s = summarize(tr);
        expect(s.requests == 1000, "every scheduled request is sent");
        expect(near(s.p50Ms, 4.0) && near(s.p99Ms, 4.0) &&
                   near(s.p999Ms, 4.0),
               "fixed 4 ms service gives p50 = p99 = p999 = 4 ms");
        expect(near(s.lateP99Us, 0.0, 1e-3) && !s.backlogGrowing,
               "no lateness and no backlog below capacity");
        expect(near(s.meanBatch, 1.0), "one request per batch");
    }

    // A fixed per-batch cost above the arrival gap: requests pile up
    // behind each batch and latency is measured from the due time.
    {
        const StepTrace tr = drive(periodic(0.001, 2000),
                                   [](std::size_t, std::size_t) {
                                       return 0.010;
                                   });
        const StepSummary s = summarize(tr);
        expect(s.p50Ms > 10.0 && s.p99Ms <= 20.0 + 1e-6,
               "batched requests wait up to one batch then are served");
        expect(s.meanBatch > 5.0, "requests due during a batch join "
                                  "the next one");
        expect(!s.backlogGrowing,
               "a fixed per-batch cost keeps the backlog bounded");
    }

    // One 200 ms stall at request 500: the requests that came due
    // during it carry the stall in their latency.
    {
        const std::vector<double> due = periodic(0.010, 1000);
        const StepTrace tr = drive(due, [](std::size_t first, std::size_t) {
            return first == 500 ? 0.200 : 0.002;
        });
        const StepSummary s = summarize(tr);
        const double stalled = (tr.done[500] - tr.due[500]) * 1e3;
        const double behind = (tr.done[501] - tr.due[501]) * 1e3;
        expect(near(stalled, 200.0), "the stalled request waits 200 ms");
        expect(behind > 190.0 && behind < 200.0,
               "the next request queued behind the stall carries it");
        expect(s.p99Ms > 50.0 && s.p50Ms < 3.0,
               "the stall reaches p99 but not p50");
        expect(s.lateP99Us > 50000.0, "generator lateness reports "
                                       "the stall");
    }

    // A per-request cost above the arrival gap: capacity 80 req/s
    // against 100 req/s offered, so the backlog grows.
    {
        const StepTrace tr = drive(periodic(0.010, 1000),
                                   [](std::size_t, std::size_t n) {
                                       return 0.0125 * double(n);
                                   });
        const StepSummary s = summarize(tr);
        expect(s.backlogGrowing, "overload is flagged as a growing "
                                 "backlog");
        expect(s.backlogEnd > 100.0, "requests remain unsent at the end "
                                     "of an overloaded schedule");
    }

    // The schedule is a pure function of the seed, at the asked rate.
    {
        const auto a = poissonSchedule(2000.0, 10000, 7);
        const auto b = poissonSchedule(2000.0, 10000, 7);
        const auto c = poissonSchedule(2000.0, 10000, 8);
        expect(a == b && a != c, "same seed, same schedule");
        expect(a.size() == 10000 && std::fabs(a.back() - 5.0) < 0.2,
               "Poisson schedule matches its rate");
    }

    // Nearest-rank percentiles.
    {
        std::vector<double> v;
        for (int i = 1; i <= 1000; ++i)
            v.push_back(double(i));
        expect(percentile(v, 0.5) == 500.0 &&
                   percentile(v, 0.99) == 990.0 &&
                   percentile(v, 0.999) == 999.0,
               "nearest-rank percentiles");
    }

    std::printf("%s\n", failures == 0 ? "selftest passed"
                                      : "selftest FAILED");
    return failures == 0 ? 0 : 1;
}
