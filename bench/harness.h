/**
 * @file
 * Registration-based benchmark harness behind the lemons-bench CLI.
 *
 * A benchmark is a named function of a BenchContext. Translation units
 * register benchmarks at static-initialization time (LEMONS_BENCH for
 * a single case, LEMONS_BENCH_REGISTRAR for parameterized families);
 * the single lemons-bench binary links them all and runs the selected
 * subset with warmup, repeated timing, and robust aggregation
 * (median / MAD / min of wall time). Each run also reports the
 * lemons::obs counter and timer deltas it produced, and the JSON
 * output (schema "lemons-bench/1") is stable enough to diff in CI.
 */

#ifndef LEMONS_BENCH_HARNESS_H_
#define LEMONS_BENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <string_view>

namespace lemons::bench {

/**
 * Per-run context handed to every benchmark body. Scales workload
 * sizes (--quick / --scale), sinks results so the optimizer cannot
 * delete the work, and collects named metrics for the JSON report.
 */
class BenchContext
{
  public:
    BenchContext(double scaleFactor, bool report, std::ostream &reportSink,
                 uint64_t streamSeed = 7);

    /** Workload scale factor in (0, 1]; 1 is the full paper scale. */
    double scale() const { return factor; }

    /**
     * Per-rep RNG seed, derived by the harness from (--seed, rep) via
     * SplitMix64. Benchmark bodies that sample (runTrials calls, Rng
     * streams) should seed from this instead of a hardcoded constant:
     * a fixed seed replays the identical stream every rep, so the
     * reported median is the median of one sample repeated, not of
     * i.i.d. reps. Warmup runs get their own seeds past the timed
     * range, so warmup never pre-walks a timed rep's stream.
     */
    uint64_t seed() const { return repSeed; }

    /**
     * @p full scaled down by the current factor, but never below
     * @p floor — trial counts stay meaningful under --quick.
     */
    uint64_t scaled(uint64_t full, uint64_t floor = 1) const;

    /** Whether --report asked for the full human-readable tables. */
    bool reporting() const { return report; }

    /**
     * Stream for the paper tables: the real output stream under
     * --report, a null stream otherwise (so table code runs either
     * way and stays exercised).
     */
    std::ostream &out() const { return sink; }

    /** Attach a named numeric result to this benchmark's JSON entry. */
    void metric(std::string_view name, double value);

    /** Sink a computed value so the benchmark body cannot be DCE'd. */
    void keep(double value) { checksum += value; }

    /** Accumulated keep() total (also defeats whole-run elision). */
    double kept() const { return checksum; }

    /** All metrics recorded so far, name-sorted. */
    const std::map<std::string, double, std::less<>> &metrics() const
    {
        return values;
    }

  private:
    double factor;
    bool report;
    uint64_t repSeed;
    std::ostream &sink;
    double checksum = 0.0;
    std::map<std::string, double, std::less<>> values;
};

using BenchFn = std::function<void(BenchContext &)>;

/**
 * Register @p fn under @p name (dotted lowercase by convention, e.g.
 * "fig4.connection"). Duplicate names abort at startup — they would
 * make --filter selections ambiguous. Returns true so it can seed a
 * static initializer.
 */
bool registerBench(std::string name, BenchFn fn);

/** Number of registered benchmarks (for the self-checks in tests). */
size_t registeredCount();

/** CLI driver: parses flags, runs the selection, writes the JSON. */
int runMain(int argc, char **argv);

} // namespace lemons::bench

/** Define and register a single benchmark under the literal @p name. */
#define LEMONS_BENCH(ident, name)                                          \
    static void ident(::lemons::bench::BenchContext &ctx);                 \
    [[maybe_unused]] static const bool lemonsBenchRegistered_##ident =     \
        ::lemons::bench::registerBench(name, &ident);                      \
    static void ident(::lemons::bench::BenchContext &ctx)

/**
 * Run a block at static-initialization time, for registering a
 * parameterized family of benchmarks in a loop:
 *   LEMONS_BENCH_REGISTRAR(rsCases) {
 *       for (size_t k : {16, 32})
 *           registerBench("rs.encode.k" + std::to_string(k),
 *                         [k](BenchContext &ctx) { ... });
 *   }
 */
#define LEMONS_BENCH_REGISTRAR(ident)                                      \
    static void ident();                                                   \
    [[maybe_unused]] static const bool lemonsBenchRegistrarRan_##ident =   \
        (ident(), true);                                                   \
    static void ident()

#endif // LEMONS_BENCH_HARNESS_H_
