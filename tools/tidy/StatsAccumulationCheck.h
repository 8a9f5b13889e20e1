/**
 * @file
 * T006 lemons-stats-accumulation: inside a lambda handed to one of
 * the engine's parallel entry points (ThreadPool::parallelFor /
 * submit, engine::runTrials), a compound assignment
 * that accumulates into state captured by reference (or into a member
 * through the captured this) is flagged. Even when such an
 * accumulation is mutex-serialized it commits results in thread
 * arrival order, so float sums drift between runs — the sanctioned
 * pattern is a worker-local RunningStats folded in afterwards with
 * the chunk-ordered Chan merge. std::atomic members never match (their
 * operator+= is an overloaded call, and counters are order-safe for
 * integers), and locals declared inside the lambda stay legal.
 *
 * Options:
 *   ParallelEntryPoints  semicolon-separated callee names treated as
 *                        parallel dispatch (default
 *                        "parallelFor;submit;runTrials").
 */

#ifndef LEMONS_TOOLS_TIDY_STATS_ACCUMULATION_CHECK_H_
#define LEMONS_TOOLS_TIDY_STATS_ACCUMULATION_CHECK_H_

#include <string>
#include <vector>

#include "clang-tidy/ClangTidyCheck.h"

namespace lemons::tidy {

class StatsAccumulationCheck : public clang::tidy::ClangTidyCheck
{
  public:
    StatsAccumulationCheck(llvm::StringRef name,
                           clang::tidy::ClangTidyContext *context);

    void registerMatchers(clang::ast_matchers::MatchFinder *finder) override;
    void check(const clang::ast_matchers::MatchFinder::MatchResult &result)
        override;
    void storeOptions(clang::tidy::ClangTidyOptions::OptionMap &options)
        override;

  private:
    const std::string entryPointOption;
    std::vector<std::string> entryPoints;
};

} // namespace lemons::tidy

#endif // LEMONS_TOOLS_TIDY_STATS_ACCUMULATION_CHECK_H_
