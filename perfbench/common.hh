/**
 * @file
 * Shared pieces of the benchmark binary: the run's report (metrics,
 * output checks, the final JSON line), wall-clock helpers and
 * order statistics.
 */

#ifndef GANACC_PERFBENCH_COMMON_HH
#define GANACC_PERFBENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nearest-rank percentile (q in [0, 1]); 0 for an empty sample. */
inline double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * double(v.size()));
    const std::size_t idx =
        rank < 1.0 ? 0 : std::min(v.size() - 1, std::size_t(rank) - 1);
    return v[idx];
}

inline double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

inline double
mean(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / double(v.size());
}

/** Peak resident set of this process, in MB. */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Which run of a workload this is. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string scratch; ///< private directory for stores
};

/**
 * Everything a run reports. Output checks count into attempted/failed
 * (the error rate); a failed check also prints its reason on
 * stderr and makes the run incorrect.
 */
class Report
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics_[name] = {value, unit};
    }

    /** Count one checked operation; returns `ok`. */
    bool
    check(bool ok, const std::string &what)
    {
        ++attempted_;
        if (!ok) {
            ++failed_;
            if (failed_ <= 20)
                std::cerr << "perfbench: check failed: " << what << "\n";
        }
        return ok;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    double
    errorRate() const
    {
        return attempted_ == 0 ? 0.0
                               : double(failed_) / double(attempted_);
    }

    /** The result line: {"correct":..,"attempted":..,"failed":..,
     *  "metrics":{name:{"value":..,"unit":..}}}. */
    void
    printJson(std::ostream &os) const
    {
        os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true"
                                                                  : "false")
           << ", \"attempted\": " << attempted_
           << ", \"failed\": " << failed_ << ", \"metrics\": {";
        bool first = true;
        for (const auto &[name, m] : metrics_) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.17g",
                          std::isfinite(m.value) ? m.value : 0.0);
            os << (first ? "" : ", ") << "\"" << name
               << "\": {\"value\": " << buf << ", \"unit\": \"" << m.unit
               << "\"}";
            first = false;
        }
        os << "}}\n";
    }

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Workload entry points (one translation unit each). */
void runFaultCampaign(const RunConfig &cfg, Report &report);
void runServe(const RunConfig &cfg, bool mixed, Report &report);

} // namespace perfbench

#endif // GANACC_PERFBENCH_COMMON_HH
