/**
 * @file
 * Thread-pool implementation.
 */

#include "util/thread_pool.hh"

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <string>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace ganacc {
namespace util {

namespace {

/**
 * Process-wide pool telemetry. Pools are transient (parallelFor
 * spawns one per call), so the counters live here and aggregate over
 * every pool's life; a registry collector publishes them on demand —
 * the submit/steal paths only ever touch relaxed atomics.
 */
struct PoolMetrics
{
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> idleWaits{0};
    std::atomic<std::int64_t> queueDepth{0};
    std::atomic<std::int64_t> workers{0};

    PoolMetrics()
    {
        obs::Registry::instance().addCollector(
            [this](obs::Snapshot &snap) {
                snap.counter("ganacc_pool_submitted_total",
                             submitted.load());
                snap.counter("ganacc_pool_executed_total",
                             executed.load());
                snap.counter("ganacc_pool_stolen_total",
                             stolen.load());
                snap.counter("ganacc_pool_idle_waits_total",
                             idleWaits.load());
                snap.gauge("ganacc_pool_queue_depth",
                           queueDepth.load());
                snap.gauge("ganacc_pool_workers", workers.load());
            });
    }
};

PoolMetrics &
poolMetrics()
{
    // Leaked: counted from worker threads up to process exit.
    static PoolMetrics *m = new PoolMetrics;
    return *m;
}

} // namespace

int
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? int(n) : 1;
}

int
resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    const char *env = std::getenv("GANACC_JOBS");
    if (env == nullptr || *env == '\0')
        return hardwareJobs();
    // Digits only, so that strtoll cannot take a sign, blanks or a
    // trailing suffix; range-checked before the narrowing to int.
    const std::string text = env;
    if (text.find_first_not_of("0123456789") == std::string::npos) {
        errno = 0;
        const long long v = std::strtoll(env, nullptr, 10);
        if (errno != ERANGE && v >= 1 && v <= INT_MAX)
            return int(v);
    }
    const int n = hardwareJobs();
    warn("GANACC_JOBS must be an integer in [1, ", INT_MAX, "], got '",
         text, "'; using ", n);
    return n;
}

ThreadPool::ThreadPool(int jobs)
{
    const int n = resolveJobs(jobs);
    queues_.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i)
        queues_.push_back(std::make_unique<Queue>());
    workers_.reserve(std::size_t(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back(
            [this, i] { workerLoop(std::size_t(i)); });
    poolMetrics().workers.fetch_add(n, std::memory_order_relaxed);
}

ThreadPool::~ThreadPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    poolMetrics().workers.fetch_sub(
        std::int64_t(workers_.size()), std::memory_order_relaxed);
}

void
ThreadPool::submit(std::function<void()> task)
{
    GANACC_ASSERT(task != nullptr, "null task submitted");
    std::size_t target;
    {
        std::lock_guard<std::mutex> lk(m_);
        GANACC_ASSERT(!stop_, "submit on a stopping pool");
        target = nextQueue_;
        nextQueue_ = (nextQueue_ + 1) % queues_.size();
        ++queued_;
        ++pending_;
    }
    {
        std::lock_guard<std::mutex> lk(queues_[target]->m);
        queues_[target]->tasks.push_back(std::move(task));
    }
    PoolMetrics &pm = poolMetrics();
    pm.submitted.fetch_add(1, std::memory_order_relaxed);
    pm.queueDepth.fetch_add(1, std::memory_order_relaxed);
    workCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lk(m_);
    idleCv_.wait(lk, [this] { return pending_ == 0; });
}

bool
ThreadPool::tryPop(std::size_t self, std::function<void()> &task)
{
    // Own queue first (front: LIFO locality does not matter here, the
    // deque front is the submission order), then steal from the back
    // of the others.
    {
        Queue &q = *queues_[self];
        std::lock_guard<std::mutex> lk(q.m);
        if (!q.tasks.empty()) {
            task = std::move(q.tasks.front());
            q.tasks.pop_front();
            return true;
        }
    }
    for (std::size_t k = 1; k < queues_.size(); ++k) {
        Queue &q = *queues_[(self + k) % queues_.size()];
        std::lock_guard<std::mutex> lk(q.m);
        if (!q.tasks.empty()) {
            task = std::move(q.tasks.back());
            q.tasks.pop_back();
            poolMetrics().stolen.fetch_add(1,
                                           std::memory_order_relaxed);
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    for (;;) {
        std::function<void()> task;
        if (tryPop(self, task)) {
            {
                std::lock_guard<std::mutex> lk(m_);
                --queued_;
            }
            PoolMetrics &pm = poolMetrics();
            pm.queueDepth.fetch_sub(1, std::memory_order_relaxed);
            task();
            pm.executed.fetch_add(1, std::memory_order_relaxed);
            bool drained;
            {
                std::lock_guard<std::mutex> lk(m_);
                drained = --pending_ == 0;
            }
            if (drained)
                idleCv_.notify_all();
            continue;
        }
        poolMetrics().idleWaits.fetch_add(1,
                                          std::memory_order_relaxed);
        std::unique_lock<std::mutex> lk(m_);
        workCv_.wait(lk, [this] { return stop_ || queued_ > 0; });
        if (stop_ && queued_ == 0)
            return;
    }
}

} // namespace util
} // namespace ganacc
