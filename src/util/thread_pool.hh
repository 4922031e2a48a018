/**
 * @file
 * Work-stealing thread pool and the parallelMap helper behind the
 * parallel sweep engine.
 *
 * Every design-point evaluation of the DSE sweeps is an independent
 * pure function, so the engine is deliberately simple: a pool of
 * workers with per-worker deques (submissions round-robin, idle
 * workers steal from the back of their neighbours), plus a
 * parallelMap that evaluates fn over a vector and writes results by
 * index — output ordering is therefore identical to the serial loop
 * no matter how the work interleaves.
 *
 * Worker count resolution (resolveJobs): an explicit request wins,
 * then the GANACC_JOBS environment variable, then
 * std::thread::hardware_concurrency().
 */

#ifndef GANACC_UTIL_THREAD_POOL_HH
#define GANACC_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ganacc {
namespace util {

/** Worker count from the hardware, never less than 1. */
int hardwareJobs();

/**
 * Resolve a worker count: `requested` if positive, else the
 * GANACC_JOBS environment variable if set and a whole integer in
 * [1, INT_MAX], else hardwareJobs(). A value set but out of range or
 * malformed draws a warning.
 */
int resolveJobs(int requested = 0);

/** A small work-stealing pool of persistent worker threads. */
class ThreadPool
{
  public:
    /** Spawn resolveJobs(jobs) workers. */
    explicit ThreadPool(int jobs = 0);

    /** Joins after draining the queues. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int jobs() const { return int(workers_.size()); }

    /** Enqueue a task; runs on some worker, in no guaranteed order. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

  private:
    struct Queue
    {
        std::mutex m;
        std::deque<std::function<void()>> tasks;
    };

    bool tryPop(std::size_t self, std::function<void()> &task);
    void workerLoop(std::size_t self);

    std::vector<std::unique_ptr<Queue>> queues_;
    std::vector<std::thread> workers_;
    std::mutex m_;
    std::condition_variable workCv_; ///< wakes workers on submit/stop
    std::condition_variable idleCv_; ///< wakes wait() when drained
    std::size_t nextQueue_ = 0;      ///< round-robin submit cursor
    std::size_t queued_ = 0;         ///< enqueued, not yet dequeued
    std::size_t pending_ = 0;        ///< submitted, not yet finished
    bool stop_ = false;
};

/**
 * Run fn(i) for every i in [0, n) on a private pool of `jobs` workers
 * (resolved via resolveJobs). Indices are claimed one at a time from
 * a shared counter, so uneven point costs balance automatically. The
 * first exception thrown by fn stops further claims and is rethrown
 * in the caller. jobs == 1 (or n <= 1) runs serially in the caller.
 */
template <typename Fn>
void
parallelFor(std::size_t n, int jobs, Fn &&fn)
{
    const int workers = resolveJobs(jobs);
    if (workers <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_m;
    auto drain = [&] {
        std::size_t i;
        while ((i = next.fetch_add(1)) < n &&
               !failed.load(std::memory_order_relaxed)) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lk(error_m);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };
    {
        ThreadPool pool(workers);
        const std::size_t spawn =
            std::min<std::size_t>(std::size_t(pool.jobs()), n);
        for (std::size_t t = 0; t < spawn; ++t)
            pool.submit(drain);
        pool.wait();
    }
    if (error)
        std::rethrow_exception(error);
}

/**
 * Map fn over items on `jobs` workers; result[i] == fn(items[i]) with
 * the output vector in input order regardless of scheduling, so the
 * parallel result is bit-identical to the serial loop.
 */
template <typename T, typename Fn>
auto
parallelMap(const std::vector<T> &items, Fn &&fn, int jobs = 0)
    -> std::vector<std::decay_t<decltype(fn(items[0]))>>
{
    using R = std::decay_t<decltype(fn(items[0]))>;
    std::vector<R> out(items.size());
    parallelFor(items.size(), jobs,
                [&](std::size_t i) { out[i] = fn(items[i]); });
    return out;
}

} // namespace util
} // namespace ganacc

#endif // GANACC_UTIL_THREAD_POOL_HH
