/**
 * @file
 * Open-loop load generation: a seeded Poisson arrival schedule and a
 * single-dispatcher loop that times every request from its due time.
 *
 * The dispatcher sends whatever is due as one batch through a blocking
 * transact call. Requests that come due while a batch is in flight
 * wait and join the next batch, so a stall shows up in the latency of
 * every request queued behind it (no coordinated omission). The clock
 * is a template parameter so tests can drive the loop in virtual time
 * against a fake sink.
 */

#ifndef GANACC_PERFBENCH_OPEN_LOOP_HH
#define GANACC_PERFBENCH_OPEN_LOOP_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "common.hh"

namespace perfbench {

/** Due times (seconds from step start) of the first `count` arrivals
 *  of a Poisson process. */
inline std::vector<double>
poissonSchedule(double rate, std::size_t count, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rate);
    std::vector<double> due;
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i)
        due.push_back(t += gap(rng));
    return due;
}

/** The steady clock in seconds, for live runs. */
struct WallClock
{
    std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();

    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    }

    void
    sleepUntil(double t) const
    {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<
                     std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(t)));
    }
};

/** Per-request timestamps of one open-loop step (seconds). */
struct StepTrace
{
    std::vector<double> due;
    std::vector<double> send; ///< when its batch left the dispatcher
    std::vector<double> done; ///< when its batch returned
    std::vector<std::size_t> batchSizes;
    double start = 0.0; ///< clock reading the schedule is relative to
};

/** What a step reports. */
struct StepSummary
{
    std::size_t requests = 0;
    double p50Ms = 0.0, p99Ms = 0.0, p999Ms = 0.0;
    double lateP99Us = 0.0;   ///< dispatch minus due time, p99
    double backlogEnd = 0.0;  ///< requests still unsent at schedule end
    bool backlogGrowing = false;
    double meanBatch = 0.0;
};

/**
 * Run one step: `transact(first, count)` must send requests
 * [first, first + count) as one batch and return once all answered.
 */
template <class ClockT, class Transact>
StepTrace
runOpenLoop(const std::vector<double> &due, ClockT &clock,
            Transact &&transact)
{
    StepTrace tr;
    tr.due = due;
    tr.send.resize(due.size());
    tr.done.resize(due.size());
    tr.start = clock.now();
    std::size_t i = 0;
    while (i < due.size()) {
        double t = clock.now() - tr.start;
        if (due[i] > t) {
            clock.sleepUntil(tr.start + due[i]);
            t = clock.now() - tr.start;
        }
        std::size_t k = i;
        while (k < due.size() && due[k] <= t)
            ++k;
        k = std::max(k, i + 1);
        transact(i, k - i);
        const double d = clock.now() - tr.start;
        for (std::size_t j = i; j < k; ++j) {
            tr.send[j] = t;
            tr.done[j] = d;
        }
        tr.batchSizes.push_back(k - i);
        i = k;
    }
    return tr;
}

/** Mean number of requests due but not yet sent over [a, b). */
inline double
meanBacklog(const StepTrace &tr, double a, double b)
{
    double area = 0.0;
    for (std::size_t j = 0; j < tr.due.size(); ++j) {
        const double lo = std::max(a, tr.due[j]);
        const double hi = std::min(b, tr.send[j]);
        if (hi > lo)
            area += hi - lo;
    }
    return b > a ? area / (b - a) : 0.0;
}

/** Latency of each request from its due time, in ms. */
inline std::vector<double>
latenciesMs(const StepTrace &tr)
{
    std::vector<double> lat;
    lat.reserve(tr.due.size());
    for (std::size_t j = 0; j < tr.due.size(); ++j)
        lat.push_back((tr.done[j] - tr.due[j]) * 1e3);
    return lat;
}

inline StepSummary
summarize(const StepTrace &tr)
{
    StepSummary s;
    s.requests = tr.due.size();
    if (tr.due.empty())
        return s;
    const std::vector<double> lat = latenciesMs(tr);
    std::vector<double> late;
    late.reserve(tr.due.size());
    for (std::size_t j = 0; j < tr.due.size(); ++j)
        late.push_back((tr.send[j] - tr.due[j]) * 1e6);
    s.p50Ms = percentile(lat, 0.50);
    s.p99Ms = percentile(lat, 0.99);
    s.p999Ms = percentile(lat, 0.999);
    s.lateP99Us = percentile(late, 0.99);
    const double end = tr.due.back();
    for (double snd : tr.send)
        s.backlogEnd += snd > end ? 1.0 : 0.0;
    // A stable step queues about the same amount in both halves of its
    // schedule; an overloaded one keeps piling up.
    const double first = meanBacklog(tr, 0.0, end / 2);
    const double second = meanBacklog(tr, end / 2, end);
    s.backlogGrowing = second > 2.0 * first + 1.0;
    s.meanBatch =
        double(tr.due.size()) / double(std::max<std::size_t>(
                                    1, tr.batchSizes.size()));
    return s;
}

} // namespace perfbench

#endif // GANACC_PERFBENCH_OPEN_LOOP_HH
