#include "verify/verifier.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "ir/lower.h"
#include "verify/passes.h"

namespace lemons::verify {

VerifiedSpec
verifySpec(const lint::ParsedSpec &parsed, const std::string &filename)
{
    VerifiedSpec out;
    out.graphs = ir::lowerSpec(parsed, out.findings);
    for (const ir::Graph &graph : out.graphs)
        out.findings.merge(verifyGraph(graph));
    out.findings.setFile(filename);
    return out;
}

lint::Report
verifySpecText(std::string_view text, const std::string &filename)
{
    // The lint pass owns the L-range; parse findings go to a scratch
    // report so a --verify run never duplicates them.
    lint::Report parseFindings;
    const lint::ParsedSpec parsed =
        lint::parseSpec(text, filename, parseFindings);
    return verifySpec(parsed, filename).findings;
}

lint::Report
verifySpecFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return verifySpecText(buffer.str(), path);
}

} // namespace lemons::verify
