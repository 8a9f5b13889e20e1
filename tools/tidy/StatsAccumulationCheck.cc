#include "StatsAccumulationCheck.h"

#include <algorithm>

#include "LemonsTidyUtils.h"

using namespace clang::ast_matchers;

namespace lemons::tidy {

namespace {

constexpr llvm::StringLiteral kCode("T006");

/** Whether @p var is declared outside the lambda's call operator —
 *  i.e. it reaches the worker body only through a capture. */
bool
declaredOutsideLambda(const clang::VarDecl *var,
                      const clang::LambdaExpr *lambda)
{
    const clang::DeclContext *callOperator = lambda->getCallOperator();
    for (const clang::DeclContext *context = var->getDeclContext();
         context != nullptr; context = context->getParent())
        if (context == callOperator)
            return false;
    return true;
}

/** Whether the lambda captures @p var by reference. */
bool
capturedByReference(const clang::VarDecl *var,
                    const clang::LambdaExpr *lambda)
{
    for (const clang::LambdaCapture &capture : lambda->captures())
        if (capture.capturesVariable() &&
            capture.getCaptureKind() == clang::LCK_ByRef &&
            capture.getCapturedVar() == var)
            return true;
    return false;
}

} // namespace

StatsAccumulationCheck::StatsAccumulationCheck(
    llvm::StringRef name, clang::tidy::ClangTidyContext *context)
    : ClangTidyCheck(name, context),
      entryPointOption(Options.get("ParallelEntryPoints",
                                   "parallelFor;submit;runTrials"))
{
    llvm::SmallVector<llvm::StringRef, 8> parts;
    llvm::StringRef(entryPointOption).split(parts, ';', -1, false);
    for (llvm::StringRef part : parts)
        entryPoints.emplace_back(part.trim());
}

void
StatsAccumulationCheck::storeOptions(
    clang::tidy::ClangTidyOptions::OptionMap &options)
{
    Options.store(options, "ParallelEntryPoints", entryPointOption);
}

void
StatsAccumulationCheck::registerMatchers(MatchFinder *finder)
{
    finder->addMatcher(
        binaryOperator(
            hasAnyOperatorName("+=", "-=", "*=", "/="),
            hasType(realFloatingPointType()),
            hasAncestor(
                lambdaExpr(hasAncestor(callExpr().bind("dispatch")))
                    .bind("lambda")))
            .bind("accumulate"),
        this);
}

void
StatsAccumulationCheck::check(const MatchFinder::MatchResult &result)
{
    const auto *accumulate =
        result.Nodes.getNodeAs<clang::BinaryOperator>("accumulate");
    const auto *lambda =
        result.Nodes.getNodeAs<clang::LambdaExpr>("lambda");
    const auto *dispatch =
        result.Nodes.getNodeAs<clang::CallExpr>("dispatch");
    if (accumulate == nullptr || lambda == nullptr || dispatch == nullptr)
        return;

    // Only lambdas handed to a parallel dispatch entry point are
    // worker bodies; a lambda fed to std::accumulate may aggregate
    // freely.
    const clang::FunctionDecl *callee = dispatch->getDirectCallee();
    if (callee == nullptr)
        return;
    const std::string calleeName = callee->getNameAsString();
    if (std::find(entryPoints.begin(), entryPoints.end(), calleeName) ==
        entryPoints.end())
        return;

    const clang::Expr *lhs = accumulate->getLHS()->IgnoreParenImpCasts();
    bool crossThread = false;
    if (const auto *ref = llvm::dyn_cast<clang::DeclRefExpr>(lhs)) {
        if (const auto *var =
                llvm::dyn_cast<clang::VarDecl>(ref->getDecl()))
            crossThread = capturedByReference(var, lambda) ||
                          declaredOutsideLambda(var, lambda);
    } else if (const auto *member =
                   llvm::dyn_cast<clang::MemberExpr>(lhs)) {
        crossThread = llvm::isa<clang::CXXThisExpr>(
            member->getBase()->IgnoreParenImpCasts());
    }
    if (!crossThread)
        return;

    const clang::SourceManager &sm = *result.SourceManager;
    const clang::SourceLocation loc =
        sm.getExpansionLoc(accumulate->getBeginLoc());
    if (sm.isInSystemHeader(loc) || allowSuppressed(sm, loc, kCode))
        return;

    const CodeRow row = codeRow(kCode);
    diag(loc, "%0: floating-point accumulation into captured state from a "
              "parallel worker commits in thread arrival order; accumulate "
              "into a worker-local RunningStats and fold it in with the "
              "chunk-ordered merge [%1]")
        << row.id << row.title;
}

} // namespace lemons::tidy
