/**
 * @file
 * Spec-file drivers for the static verifier.
 *
 * These glue the pieces together for the `lemons-lint --verify` CLI
 * mode and the cross-validation tests: parse a `.lemons` file with
 * the lint front end, lower every architecture-bearing section into
 * the IR, and run the three analysis passes over each graph. Only
 * V-range diagnostics are returned — the plain lint pass reports the
 * L-range separately, so a CLI run that does both never duplicates a
 * finding.
 */

#ifndef LEMONS_VERIFY_VERIFIER_H_
#define LEMONS_VERIFY_VERIFIER_H_

#include <string>
#include <string_view>
#include <vector>

#include "ir/graph.h"
#include "lint/diagnostics.h"
#include "lint/spec_file.h"

namespace lemons::verify {

/** A spec lowered once: its V-range findings and its graphs. */
struct VerifiedSpec
{
    /** V901 for sections that cannot lower, then every pass's findings. */
    lint::Report findings;
    /** The lowered graphs, for callers that analyze them too. */
    std::vector<ir::Graph> graphs;
};

/**
 * Verify an already-parsed spec: lower it once and run all passes on
 * every graph. @p filename stamps the diagnostics. Lets a caller that
 * also lints and analyzes parse and lower the text only once.
 */
VerifiedSpec verifySpec(const lint::ParsedSpec &parsed,
                        const std::string &filename);

/**
 * Verify spec text: parse, lower (V901 on sections that cannot lower),
 * and run all passes on every resulting graph. @p filename stamps the
 * diagnostics. Parse-level L-range findings are *not* included.
 */
lint::Report verifySpecText(std::string_view text,
                            const std::string &filename);

/**
 * Verify one spec file. An unreadable file yields an empty report —
 * the lint pass (which always runs first in the CLI) reports L901.
 */
lint::Report verifySpecFile(const std::string &path);

} // namespace lemons::verify

#endif // LEMONS_VERIFY_VERIFIER_H_
