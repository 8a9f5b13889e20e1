#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#ifdef __linux__
#include <sched.h>
#endif

#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "util/math.h"
#include "util/mutex.h"
#include "util/require.h"
#include "util/thread_annotations.h"

namespace lemons::engine {

namespace {

/**
 * Lock-protected "lowest-indexed failure wins" cell shared by the
 * chunk executors in rethrow mode. Keeping only the minimum under the
 * lock makes the rethrown exception deterministic at any thread count.
 */
class FirstErrorCell
{
  public:
    explicit FirstErrorCell(uint64_t sentinel) : trial(sentinel) {}

    /** Record trial @p i's exception if it is the earliest so far. */
    void record(uint64_t i, std::exception_ptr e) LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        if (i < trial) {
            trial = i;
            error = std::move(e);
        }
    }

    /** The winning exception, or null when no trial failed. */
    std::exception_ptr take() const LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        return error;
    }

  private:
    mutable Mutex mu;
    uint64_t trial LEMONS_GUARDED_BY(mu);
    std::exception_ptr error LEMONS_GUARDED_BY(mu);
};

/**
 * Shared failure/quarantine log for capture mode. Executors append
 * under the lock; the driver sorts by trial index after the run so the
 * report is deterministic regardless of interleaving.
 */
class ReportCollector
{
  public:
    /** Record that trial @p i threw with message @p what. */
    void recordFailure(uint64_t i, std::string what) LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        failures.emplace_back(i, std::move(what));
    }

    /** Record that trial @p i returned a non-finite sample. */
    void recordNonFinite(uint64_t i) LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        nonFinite.push_back(i);
    }

    /** Move the sorted logs into @p report (call after the run). */
    void drainInto(TrialReport &report) LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        std::sort(failures.begin(), failures.end());
        std::sort(nonFinite.begin(), nonFinite.end());
        report.failedTrials.reserve(failures.size());
        for (const auto &[trial, message] : failures)
            report.failedTrials.push_back(trial);
        if (!failures.empty())
            report.firstError = failures.front().second;
        report.nonFiniteTrials = std::move(nonFinite);
    }

    /** Sorted copies of both logs into @p checkpoint (wave boundary:
     *  no executors are running, but take the lock anyway). */
    void snapshotInto(EngineCheckpoint &checkpoint) LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        checkpoint.failures = failures;
        checkpoint.nonFiniteTrials = nonFinite;
        std::sort(checkpoint.failures.begin(), checkpoint.failures.end());
        std::sort(checkpoint.nonFiniteTrials.begin(),
                  checkpoint.nonFiniteTrials.end());
    }

    /** Seed both logs from a checkpoint before a resumed run. */
    void restoreFrom(const EngineCheckpoint &checkpoint)
        LEMONS_EXCLUDES(mu)
    {
        const MutexLock lock(mu);
        failures = checkpoint.failures;
        nonFinite = checkpoint.nonFiniteTrials;
    }

  private:
    Mutex mu;
    std::vector<std::pair<uint64_t, std::string>>
        failures LEMONS_GUARDED_BY(mu);
    std::vector<uint64_t> nonFinite LEMONS_GUARDED_BY(mu);
};

/** Lower @p cell to @p chunk if it is smaller (atomic fetch-min). */
void
lowerToChunk(std::atomic<uint64_t> &cell, uint64_t chunk)
{
    uint64_t seen = cell.load(std::memory_order_relaxed);
    while (chunk < seen &&
           !cell.compare_exchange_weak(seen, chunk,
                                       std::memory_order_acq_rel)) {
    }
}

/** CPUs this process may run on: its affinity mask, so a pinned or
 *  CPU-limited process does not oversubscribe. */
unsigned
availableCpus()
{
#ifdef __linux__
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0 &&
        CPU_COUNT(&mask) > 0)
        return static_cast<unsigned>(CPU_COUNT(&mask));
#endif
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
resolveThreads(unsigned requested, uint64_t trials)
{
    if (requested == 0)
        requested = availableCpus();
    // Waves with fewer chunks than executors are sliced below a chunk,
    // so only a run with fewer trials than executors would idle some.
    return static_cast<unsigned>(std::min<uint64_t>(requested, trials));
}

} // namespace

TrialReport
runTrials(uint64_t seed, const McRunOptions &options,
          const TrialMetric &metric)
{
    requireArg(options.trials > 0,
               "engine::runTrials: need at least one trial");
    LEMONS_OBS_SCOPED_TIMER("sim.mc.run");

    const uint64_t trials = options.trials;
    const uint64_t chunkSize =
        options.chunkSize != 0 ? options.chunkSize : kDefaultChunkSize;
    const uint64_t chunkCount = ceilDiv(trials, chunkSize);
    const unsigned threads = resolveThreads(options.threads, trials);
    const bool rethrow = options.faults == FaultPolicy::Rethrow;
    const double nan = std::numeric_limits<double>::quiet_NaN();

    if (options.resumeFrom != nullptr) {
        const EngineCheckpoint &resume = *options.resumeFrom;
        requireArg(!options.keepSamples,
                   "engine::runTrials: resuming requires keepSamples == "
                   "false (streaming statistics are the resumable "
                   "representation)");
        requireArg(resume.seed == seed &&
                       resume.requestedTrials == trials &&
                       resume.chunkSize == chunkSize,
                   "engine::runTrials: checkpoint does not belong to "
                   "this run (seed/trials/chunkSize mismatch)");
        requireArg(resume.executedChunks <= chunkCount,
                   "engine::runTrials: checkpoint cursor beyond the "
                   "chunk count");
    }

    TrialReport report;
    report.requestedTrials = trials;
    if (options.keepSamples)
        report.samples.assign(trials, nan);

    // Per-chunk partial statistics, merged in chunk order after each
    // wave: the merge sequence (hence the floating-point rounding) is
    // a function of the chunk layout alone, never the thread count.
    std::vector<RunningStats> chunkStats(chunkCount);
    ReportCollector collector;
    FirstErrorCell firstError(trials);
    std::atomic<uint64_t> firstFailingChunk{chunkCount};

    // Scheduling: a chunk is the statistics grain, a slice (a run of
    // consecutive trials inside one chunk) the scheduling unit. A wave
    // with at least as many chunks as executors runs one slice per
    // chunk, which folds each trial into its chunk's accumulator as it
    // goes. A wave with fewer chunks than executors cuts every chunk
    // into slicesPerChunk slices; these park each outcome in a wave
    // buffer (report.samples, or waveSamples when streaming) plus a
    // failed flag, and the driver folds the buffer in trial order after
    // the wave: the same adds in the same order either way.
    uint64_t slicesPerChunk = 1;
    uint64_t waveFirstTrial = 0;
    std::vector<double> waveSamples;
    std::vector<uint8_t> waveFailed;

    // Log trial i's exception from inside its handler; false when the
    // slice must be abandoned (rethrow mode).
    const auto recordFailure = [&](uint64_t c, uint64_t i,
                                   const char *what) {
        if (!rethrow) {
            collector.recordFailure(i, what);
            return true;
        }
        firstError.record(i, std::current_exception());
        lowerToChunk(firstFailingChunk, c);
        return false;
    };

    const auto runSlice = [&](uint64_t c, uint64_t begin, uint64_t end) {
        // In rethrow mode chunks strictly after the earliest failing
        // chunk are dead work — their results get discarded when the
        // failure is rethrown — so skip them. Chunks at or before it
        // still run, which keeps the winning (lowest-indexed) failure
        // deterministic at any thread count.
        if (rethrow &&
            c > firstFailingChunk.load(std::memory_order_acquire))
            return;
        const bool wholeChunk = slicesPerChunk == 1;
        for (uint64_t i = begin; i < end; ++i) {
            // The definitional trial stream: Philox keyed on
            // (seed, i, draw), so trial i's randomness is a pure
            // function of (seed, i) — independent of threads, chunks,
            // slices, SIMD dispatch and resume cursors.
            Rng rng = Rng::trialStream(seed, i);
            double sample = nan;
            bool failed = false;
            try {
                sample = metric(rng, i);
                // Any non-finite RETURN is quarantined; a throwing
                // trial instead keeps its NaN placeholder and is
                // recorded as failed, never as quarantined.
                if (!std::isfinite(sample))
                    collector.recordNonFinite(i);
            } catch (const std::exception &e) {
                if (!recordFailure(c, i, e.what()))
                    return;
                failed = true;
            } catch (...) {
                if (!recordFailure(c, i, "unknown exception"))
                    return;
                failed = true;
            }
            if (options.keepSamples)
                report.samples[i] = sample;
            if (wholeChunk) {
                if (!failed)
                    chunkStats[c].add(sample); // skips non-finite
            } else {
                waveFailed[i - waveFirstTrial] = failed;
                if (!options.keepSamples)
                    waveSamples[i - waveFirstTrial] = sample;
            }
        }
    };

    ThreadPool &pool = ThreadPool::global();
    RunningStats streaming;
    uint64_t executedChunks = 0;
    bool stoppedEarly = false;
    InterruptReason interrupt = InterruptReason::None;

    // Wave-boundary periods. Early-stop checks fire at multiples of
    // the EarlyStop period, checkpoints at multiples of the checkpoint
    // period; when both are present the wave length is their gcd so
    // every boundary either feature needs is an actual boundary and
    // neither shifts the other's deterministic trigger points.
    const uint64_t earlyStopEvery =
        options.earlyStop
            ? std::max<uint64_t>(1, options.earlyStop->checkEveryChunks)
            : 0;
    const uint64_t checkpointEvery =
        options.checkpoint ? (options.checkpointEveryChunks != 0
                                  ? options.checkpointEveryChunks
                                  : kDefaultCheckpointChunks)
                           : 0;
    uint64_t wave = earlyStopEvery;
    if (checkpointEvery != 0)
        wave = wave != 0 ? std::gcd(wave, checkpointEvery)
                         : checkpointEvery;
    if (wave == 0 &&
        (options.cancel != nullptr || options.deadline.has_value()))
        wave = kDefaultCheckpointChunks; // interrupt-poll granularity
    if (wave == 0)
        wave = chunkCount; // one uninterrupted wave

    if (options.resumeFrom != nullptr) {
        executedChunks = options.resumeFrom->executedChunks;
        streaming = options.resumeFrom->streaming;
        collector.restoreFrom(*options.resumeFrom);
        LEMONS_OBS_INCREMENT("sim.mc.resumes");
    }

    const auto takeCheckpoint = [&] {
        EngineCheckpoint snapshot;
        snapshot.seed = seed;
        snapshot.requestedTrials = trials;
        snapshot.chunkSize = chunkSize;
        snapshot.executedChunks = executedChunks;
        snapshot.streaming = streaming;
        collector.snapshotInto(snapshot);
        LEMONS_OBS_INCREMENT("sim.mc.checkpoints");
        options.checkpoint(snapshot);
    };

    while (executedChunks < chunkCount) {
        // Interrupt checks happen before dispatching a wave: a run
        // whose token is already cancelled (or whose deadline already
        // passed) does no further trial work.
        if (options.cancel != nullptr && options.cancel->cancelled()) {
            interrupt = InterruptReason::Cancelled;
            LEMONS_OBS_INCREMENT("sim.mc.cancelled");
        } else if (options.deadline.has_value() &&
                   // LEMONS-TIDY-ALLOW(T002): wall-clock deadline gate;
                   // never feeds trial state
                   std::chrono::steady_clock::now() >=
                       *options.deadline) {
            interrupt = InterruptReason::DeadlineExceeded;
            LEMONS_OBS_INCREMENT("sim.mc.deadline_exceeded");
        }
        if (interrupt != InterruptReason::None) {
            // Persist the freshest resumable state so the owner loses
            // at most the not-yet-run wave, then stop cleanly.
            if (options.checkpoint)
                takeCheckpoint();
            break;
        }

        const uint64_t waveBase = executedChunks;
        const uint64_t waveEnd =
            std::min(chunkCount, waveBase + wave);
        const uint64_t waveChunks = waveEnd - waveBase;
        // About four slices per executor, so a slow slice does not
        // leave the others idle at the end of the wave.
        slicesPerChunk =
            waveChunks < threads ? ceilDiv(4 * uint64_t{threads}, waveChunks)
                                 : 1;
        waveFirstTrial = waveBase * chunkSize;
        const uint64_t waveLastTrial = std::min(trials, waveEnd * chunkSize);
        if (slicesPerChunk > 1) {
            // Fewer chunks than executors: the buffer holds at most
            // threads * chunkSize trials.
            waveFailed.resize(waveLastTrial - waveFirstTrial);
            if (!options.keepSamples)
                waveSamples.resize(waveLastTrial - waveFirstTrial);
        }
        pool.parallelFor(
            waveChunks * slicesPerChunk, threads,
            [&runSlice, &slicesPerChunk, waveBase, chunkSize,
             trials](uint64_t task) {
                const uint64_t c = waveBase + task / slicesPerChunk;
                const uint64_t part = task % slicesPerChunk;
                const uint64_t begin = c * chunkSize;
                const uint64_t length =
                    std::min(trials, begin + chunkSize) - begin;
                runSlice(c, begin + length * part / slicesPerChunk,
                         begin + length * (part + 1) / slicesPerChunk);
            });
        executedChunks = waveEnd;
        LEMONS_OBS_COUNT("sim.mc.chunks", waveChunks);

        if (rethrow && firstError.take())
            break; // rethrown below, after bookkeeping
        if (slicesPerChunk > 1) {
            for (uint64_t i = waveFirstTrial; i < waveLastTrial; ++i) {
                const uint64_t slot = i - waveFirstTrial;
                if (waveFailed[slot] == 0)
                    chunkStats[i / chunkSize].add(
                        options.keepSamples ? report.samples[i]
                                            : waveSamples[slot]);
            }
        }
        for (uint64_t c = waveBase; c < waveEnd; ++c)
            streaming.merge(chunkStats[c]);
        if (checkpointEvery != 0 &&
            executedChunks % checkpointEvery == 0)
            takeCheckpoint();
        if (options.earlyStop && executedChunks < chunkCount &&
            executedChunks % earlyStopEvery == 0 &&
            streaming.count() >= options.earlyStop->minTrials &&
            streaming.count() >= 2) {
            const double halfWidth = 1.96 * streaming.meanStdError();
            if (halfWidth <= options.earlyStop->relHalfWidth *
                                 std::abs(streaming.mean())) {
                stoppedEarly = true;
                LEMONS_OBS_INCREMENT("sim.mc.early_stops");
                break;
            }
        }
    }

    const uint64_t trialsRun =
        std::min(trials, executedChunks * chunkSize);
    report.trials = trialsRun;
    report.stoppedEarly = stoppedEarly;
    report.interrupt = interrupt;
    LEMONS_OBS_COUNT("sim.mc.trials", trialsRun);

    if (std::exception_ptr error = firstError.take())
        std::rethrow_exception(error);

    if (options.keepSamples) {
        if (trialsRun < trials)
            report.samples.resize(trialsRun);
        // Trial-order accumulation over the kept samples: bit-identical
        // to the legacy serial fold (RunningStats quarantines the NaN
        // placeholders of failed trials itself).
        for (double sample : report.samples)
            report.stats.add(sample);
    } else {
        report.stats = streaming;
    }

    collector.drainInto(report);
    LEMONS_OBS_COUNT("sim.mc.failed_trials", report.failedTrials.size());
    LEMONS_OBS_COUNT("sim.mc.quarantined_trials",
                     report.nonFiniteTrials.size());
    return report;
}

ProportionInterval
estimateProbability(uint64_t seed, uint64_t trials,
                    const std::function<bool(Rng &)> &event)
{
    LEMONS_OBS_SCOPED_TIMER("sim.mc.estimate_probability");
    const TrialReport report = runTrials(
        seed, {.trials = trials, .threads = 0, .faults = FaultPolicy::Rethrow},
        [&event](Rng &rng, uint64_t) { return event(rng) ? 1.0 : 0.0; });
    const auto successes = static_cast<uint64_t>(std::count(
        report.samples.begin(), report.samples.end(), 1.0));
    return wilsonInterval(successes, report.trials);
}

} // namespace lemons::engine
