#include "engine/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"

namespace lemons::engine {

namespace {

/**
 * Upper bound on pool size. Oversubscription tests ask for more
 * workers than cores on purpose, so the cap is generous; it only
 * guards against pathological thread counts leaking in from configs.
 */
constexpr unsigned kMaxWorkers = 64;

} // namespace

ThreadPool::ThreadPool()
{
    // Touch the metrics registry before any worker exists so it is
    // constructed first and therefore destroyed last: workers bump
    // counters until the pool destructor joins them at exit.
    static_cast<void>(obs::Registry::global());
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool;
    return pool;
}

unsigned
ThreadPool::workerCount() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return static_cast<unsigned>(workers.size());
}

void
ThreadPool::ensureWorkers(unsigned target)
{
    target = std::min(target, kMaxWorkers);
    const std::lock_guard<std::mutex> lock(mu);
    while (workers.size() < target) {
        workers.emplace_back([this] { workerLoop(); });
        LEMONS_OBS_INCREMENT("sim.mc.pool.threads_created");
    }
}

void
ThreadPool::runChunks(Job &job)
{
    // Copy the bound before the final completion signal: once the last
    // index completes, the owning parallelFor may return and destroy
    // the job, so nothing may touch it afterwards.
    const uint64_t total = job.count;
    uint64_t index = job.next.fetch_add(1, std::memory_order_relaxed);
    while (index < total) {
        (*job.body)(index);
        LEMONS_OBS_INCREMENT("sim.mc.pool.tasks");
        // Claim the next index before publishing this completion —
        // after the last completion the job must not be accessed.
        const uint64_t following =
            job.next.fetch_add(1, std::memory_order_relaxed);
        {
            const std::lock_guard<std::mutex> lock(job.mu);
            if (++job.completed == total)
                job.allDone.notify_all();
        }
        index = following;
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::unique_lock<std::mutex> lock(mu);
            wake.wait(lock,
                      [this] { return stopping || !queue.empty(); });
            if (stopping)
                return;
            // Take a reference, not ownership: several workers gang up
            // on the front job.
            job = queue.front();
        }
        runChunks(*job);
        // runChunks returns only once the index space is fully
        // claimed, so the job can be retired here as well as by its
        // caller: a worker done early must not spin on an exhausted
        // job at the queue front while the caller runs its last index.
        // erase is idempotent under the lock.
        {
            const std::lock_guard<std::mutex> lock(mu);
            const auto it = std::find(queue.begin(), queue.end(), job);
            if (it != queue.end())
                queue.erase(it);
        }
    }
}

void
ThreadPool::parallelFor(uint64_t count, unsigned parallelism,
                        const std::function<void(uint64_t)> &body)
{
    if (count == 0)
        return;
    if (parallelism <= 1 || count == 1) {
        // Single-executor regions stay on the caller: same claim-free
        // loop the legacy serial paths ran, zero synchronization.
        LEMONS_OBS_INCREMENT("sim.mc.pool.inline_runs");
        for (uint64_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    LEMONS_OBS_INCREMENT("sim.mc.pool.jobs");
    const unsigned helpers = static_cast<unsigned>(
        std::min<uint64_t>(parallelism - 1, count - 1));
    ensureWorkers(helpers);

    const auto job = std::make_shared<Job>();
    job->count = count;
    job->body = &body;
    {
        const std::lock_guard<std::mutex> lock(mu);
        queue.push_back(job);
    }
    wake.notify_all();

    // The caller is always an executor, so progress never depends on
    // worker availability.
    runChunks(*job);

    // runChunks only returns once the index space is fully claimed, so
    // the job can be retired before waiting: late-waking workers then
    // never see it, and its shared_ptr keeps it alive for any worker
    // already holding a reference.
    {
        const std::lock_guard<std::mutex> lock(mu);
        const auto it = std::find(queue.begin(), queue.end(), job);
        if (it != queue.end())
            queue.erase(it);
    }

    std::unique_lock<std::mutex> lock(job->mu);
    job->allDone.wait(lock,
                      [&job] { return job->completed == job->count; });
}

ThreadPool::~ThreadPool()
{
    {
        const std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    wake.notify_all();
    for (std::thread &worker : workers)
        worker.join();
}

} // namespace lemons::engine
