/**
 * @file
 * Design-space solver for limited-use architectures (paper Sections
 * 4.1, 4.3, 5).
 *
 * Given a device technology (alpha, beta), a legitimate access bound
 * (LAB), an optional redundant-encoding fraction k/n, and degradation
 * criteria, the solver finds the cheapest N-copies-of-parallel-
 * structures architecture:
 *
 *  - each copy is a k-out-of-n parallel structure serving t accesses,
 *  - fast degradation criteria per copy (Section 4.3.3):
 *      R(t)      >= minReliability        (legitimate users succeed)
 *      R(tDead)  <= maxResidualReliability (attackers locked out)
 *    where tDead = t + 1 by default, or floor(U / N) when an explicit
 *    system-level upper-bound target U is given (Section 4.3.3,
 *    "stronger passcodes"),
 *  - N = ceil(LAB / t) copies used serially,
 *  - cost = total devices n * N, minimized over t and n.
 */

#ifndef LEMONS_CORE_DESIGN_SOLVER_H_
#define LEMONS_CORE_DESIGN_SOLVER_H_

#include <cstdint>
#include <optional>

#include "wearout/device.h"
#include "wearout/weibull.h"

namespace lemons::core {

/** Per-copy fast-degradation criteria (Section 4.3.3). */
struct DegradationCriteria
{
    /** Required reliability at the per-copy access bound t. */
    double minReliability = 0.99;
    /** Allowed residual reliability at the death-check access. */
    double maxResidualReliability = 0.01;
};

/** Input to the solver. */
struct DesignRequest
{
    /** Device technology (Weibull alpha in cycles, shape beta). */
    wearout::DeviceSpec device{10.0, 12.0};

    /** System-level legitimate access bound (LAB), e.g. 91,250. */
    uint64_t legitimateAccessBound = 91250;

    /**
     * Redundant-encoding fraction k/n; 0 disables encoding (plain
     * 1-out-of-n parallel structures, Fig 2c). Typical paper values:
     * 0.1, 0.2, 0.3 (Fig 4b).
     */
    double kFraction = 0.0;

    /** Fast-degradation criteria. */
    DegradationCriteria criteria{};

    /**
     * Optional system-level access upper-bound target U > LAB
     * (Fig 4d: 100,000 / 200,000 when software rejects the most
     * popular 1 % / 2 % of passwords). When set, the per-copy residual
     * criterion is replaced by a bound on the *expected empirical*
     * system total (the Fig 4c quantity): N * sum_j R(j) <= U. This
     * lets copies die lazily when the passcode tolerates extra
     * attempts, which dramatically shrinks the architecture.
     */
    std::optional<uint64_t> upperBoundTarget{};

    /** Cap on the per-copy structure width during the search. */
    uint64_t maxWidth = 50'000'000;

    /** Cap on the per-copy access bound t; 0 = auto (~3 alpha + 16). */
    uint64_t maxPerCopyBound = 0;
};

/** Solver output: the chosen architecture. */
struct Design
{
    bool feasible = false;
    uint64_t perCopyBound = 0;   ///< t: accesses each copy serves.
    uint64_t width = 0;          ///< n: devices per parallel structure.
    uint64_t threshold = 0;      ///< k: shares needed to reconstruct.
    uint64_t copies = 0;         ///< N: serially consumed copies.
    uint64_t totalDevices = 0;   ///< n * N.
    uint64_t deathCheckAccess = 0; ///< access where R <= residual holds.
    double reliabilityAtBound = 0.0;   ///< R(t).
    double reliabilityPastBound = 0.0; ///< R(deathCheckAccess).
    /**
     * Analytic expectation of the system-level total accesses
     * N * sum_j R(j) — the paper's "empirical access upper bound"
     * (Fig 4c reports 91,326 at p = 1 %, 92,028 at p = 10 %).
     */
    double expectedSystemTotal = 0.0;
};

/**
 * Exhaustive-in-t, binary-search-in-n design solver.
 *
 * Thread-compatible: solve() is const and deterministic.
 */
class DesignSolver
{
  public:
    /** @param request Fully specified design request. */
    explicit DesignSolver(const DesignRequest &request);

    /** The request being solved. */
    const DesignRequest &request() const { return spec; }

    /**
     * Find the minimum-device architecture meeting the request.
     * Design::feasible is false when no (t, n) within the caps
     * satisfies the criteria.
     */
    Design solve() const;

    /**
     * Reliability of one k-out-of-n copy at access @p x under the
     * request's device model (Eq. 6 / Eq. 8). Exposed for tests and
     * the explorer.
     */
    double copyReliability(uint64_t n, uint64_t k, double x) const;

    /**
     * Expected accesses a width-n copy survives *past* access t:
     * sum_{j > t} R(j), truncated once R underflows. The analytic
     * overshoot behind the empirical upper bound.
     */
    double expectedOvershoot(uint64_t n, uint64_t k, uint64_t t) const;

  private:
    DesignRequest spec;

    /** The request's device model, built once after the lint check. */
    wearout::Weibull device;

    /** k for a given width under the request's encoding fraction. */
    uint64_t thresholdFor(uint64_t n) const;

    /** Does the minimum-reliability criterion hold at access t? */
    bool meetsMinReliability(uint64_t n, uint64_t t) const;

    /** Both criteria hold for a width-n copy at (t, tDead)? */
    bool feasibleWidth(uint64_t n, uint64_t t, uint64_t tDead) const;

    /**
     * Minimal feasible width for (t, tDead); nullopt when none exists
     * within maxWidth. When an upper-bound target is set,
     * @p overshootSlack is the allowed expected per-copy overshoot.
     */
    std::optional<uint64_t>
    minimalWidth(uint64_t t, uint64_t tDead,
                 std::optional<double> overshootSlack) const;

    /** Closed-form minimal width for the unencoded (k = 1) case. */
    std::optional<uint64_t> minimalWidthUnencoded(uint64_t t,
                                                  uint64_t tDead) const;
};

} // namespace lemons::core

#endif // LEMONS_CORE_DESIGN_SOLVER_H_
