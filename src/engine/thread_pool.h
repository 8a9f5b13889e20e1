/**
 * @file
 * Persistent work-stealing thread pool behind the Monte Carlo engine.
 *
 * The pre-engine parallel paths spawned fresh std::threads on every
 * call, so small runs paid thread-creation latency that dwarfed the
 * work. The pool is created lazily on first use, grows on demand up to
 * a hard cap, and is then reused by every subsequent parallel region —
 * the `sim.mc.pool.threads_created` counter stays flat after warmup.
 *
 * Scheduling is work-stealing in the claim sense: a parallel region is
 * a shared index space and every executor (the calling thread plus any
 * idle workers) claims the next unprocessed index with one atomic
 * fetch-add, so a slow chunk never stalls the others. Results must be
 * position-addressed by the body; the pool guarantees nothing about
 * which executor runs which index, which is exactly why the engine's
 * per-trial (seed, index) RNG contract matters.
 */

#ifndef LEMONS_ENGINE_THREAD_POOL_H_
#define LEMONS_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lemons::engine {

/**
 * Process-wide pool of reusable worker threads.
 *
 * parallelFor may be called concurrently from multiple threads; each
 * call is an independent job and every caller participates in its own
 * job, so the pool can never deadlock on an empty worker set (with
 * zero workers parallelFor degenerates to an inline loop).
 *
 * This class intentionally uses std::mutex / std::condition_variable
 * rather than the annotated util::Mutex: the wait loops need a
 * condition variable, which the annotated wrapper does not expose.
 * All shared state is confined to this translation unit and the
 * ThreadSanitizer CI job covers the claim/complete protocol.
 */
class ThreadPool
{
  public:
    /** The lazily-created global pool shared by all simulations. */
    static ThreadPool &global();

    /**
     * Run @p body(i) for every i in [0, count) using up to
     * @p parallelism concurrent executors (the caller plus pool
     * workers). Blocks until every index has completed. With
     * parallelism <= 1 the loop runs inline on the caller — same code
     * path, no handoff, no thread creation.
     *
     * @p body must not throw (the engine catches per-trial exceptions
     * well below this layer); a throwing body terminates.
     */
    void parallelFor(uint64_t count, unsigned parallelism,
                     const std::function<void(uint64_t)> &body);

    /** Workers currently alive (grows on demand, never shrinks). */
    unsigned workerCount() const;

    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

  private:
    ThreadPool();

    /** One parallelFor invocation: a claimable index space over the
     *  caller's body. */
    struct Job
    {
        uint64_t count = 0;
        const std::function<void(uint64_t)> *body = nullptr;
        std::atomic<uint64_t> next{0};
        std::mutex mu;
        std::condition_variable allDone;
        uint64_t completed = 0;
    };

    /** Grow the worker set to at least @p target threads (capped). */
    void ensureWorkers(unsigned target);
    void workerLoop();
    /** Claim and run indices of @p job until the space is exhausted. */
    static void runChunks(Job &job);

    mutable std::mutex mu;
    std::condition_variable wake;
    std::deque<std::shared_ptr<Job>> queue;
    std::vector<std::thread> workers;
    bool stopping = false;
};

} // namespace lemons::engine

#endif // LEMONS_ENGINE_THREAD_POOL_H_
