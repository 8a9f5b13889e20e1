/**
 * @file
 * perfbench-trace: the benchmark's in-process side.
 *
 *   perfbench-trace brackets SPEC...       certified E[accesses] brackets
 *   perfbench-trace replay IN OUT [REPS]   traced replay of a request sample
 *
 * `brackets` prints one JSON line per spec file with the verifier's
 * certified bracket on the expected accesses of each [structure]
 * section; run.py checks every /v1/mc/run mean against it.
 *
 * `replay` reads request records ("<endpoint> <bytes>\n<body>\n") and
 * replays them through the public entry points of each layer. Spans
 * (name, start, end, parent, request id) are recorded by this file
 * only, kept in memory, and written to OUT as JSON at exit together
 * with obs::Registry counter and timer deltas of the traced pass. Two
 * passes alternate REPS times: an untraced pass (handlers only, one
 * clock read per pass) and a traced pass (handlers inside spans); the
 * ratio of their medians is the tracing overhead. A decomposed pass
 * then calls the layer entry points one by one, so the handler's own
 * (self) time is the handler span minus the layer calls it makes.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/passes.h"
#include "analysis/report.h"
#include "api/codec.h"
#include "api/json.h"
#include "api/service.h"
#include "core/design_solver.h"
#include "ir/lower.h"
#include "lint/rules.h"
#include "lint/spec_file.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/philox.h"
#include "util/simd.h"
#include "verify/interval.h"
#include "verify/verifier.h"

namespace {

using namespace lemons;
using Clock = std::chrono::steady_clock;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    int64_t start = 0;
    int64_t end = 0;
    int64_t parent = -1;
    uint64_t request = 0;
};

/** In-memory span store; written once, at exit. */
class Tracer
{
  public:
    /** Open a span; returns its index for close() and as a parent. */
    int64_t open(std::string name, int64_t parent, uint64_t request)
    {
        spans.push_back({std::move(name), nowNs(), 0, parent, request});
        return static_cast<int64_t>(spans.size() - 1);
    }

    void close(int64_t index)
    {
        spans[static_cast<size_t>(index)].end = nowNs();
    }

    /** A span whose interval was measured by the program itself. */
    void add(std::string name, int64_t start, int64_t end, int64_t parent,
             uint64_t request)
    {
        spans.push_back({std::move(name), start, end, parent, request});
    }

    /** Call @p fn inside a span; returns what it returns. */
    template <typename Fn>
    auto run(const char *name, int64_t parent, uint64_t request, Fn &&fn)
    {
        const int64_t index = open(name, parent, request);
        auto result = fn();
        close(index);
        return result;
    }

    const std::vector<Span> &all() const { return spans; }

  private:
    std::vector<Span> spans;
};

struct Record
{
    std::string endpoint;
    std::string body;
};

bool
readRecords(const std::string &path, std::vector<Record> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::string endpoint;
    size_t length = 0;
    while (in >> endpoint >> length) {
        in.get(); // the newline after the header
        Record record;
        record.endpoint = endpoint;
        record.body.resize(length);
        in.read(record.body.data(), static_cast<std::streamsize>(length));
        in.get(); // the newline after the body
        if (!in)
            return false;
        out.push_back(std::move(record));
    }
    return true;
}

/** Run the endpoint's handler; healthz has none (it is serve-only). */
api::ServiceResult
handle(const api::Service &service, const Record &record)
{
    if (record.endpoint == "solve")
        return service.solve(record.body);
    if (record.endpoint == "lint")
        return service.lint(record.body);
    if (record.endpoint == "verify")
        return service.verify(record.body);
    if (record.endpoint == "analyze")
        return service.analyze(record.body);
    if (record.endpoint == "mc")
        return service.mcRun(record.body);
    return {};
}

const obs::TimerSample *
findTimer(const obs::Snapshot &snapshot, const std::string &name)
{
    for (const obs::TimerSample &timer : snapshot.timers)
        if (timer.name == name)
            return &timer;
    return nullptr;
}

/** Total ns the program's own `sim.mc.run` timer has accumulated. */
uint64_t
engineTimerNs()
{
    const obs::Snapshot snapshot = obs::Registry::global().snapshot();
    const obs::TimerSample *timer = findTimer(snapshot, "sim.mc.run");
    return timer != nullptr ? timer->totalNs : 0;
}

/**
 * Call the layer entry points a handler of @p record's endpoint makes,
 * each under its own span below @p parent.
 */
void
decompose(Tracer &tracer, const Record &record, int64_t parent,
          uint64_t id, std::vector<uint64_t> &findings,
          std::vector<uint64_t> &graphNodes)
{
    const api::JsonParseResult parsed = tracer.run(
        "api.parse", parent, id, [&] { return api::parseJson(record.body); });
    if (!parsed.ok)
        return;
    lint::Report decodeReport;
    lint::Report report;

    if (record.endpoint == "solve") {
        api::SolveRequest request;
        if (!api::parseSolveRequest(parsed.value, request, decodeReport))
            return;
        report.merge(tracer.run("lint.check", parent, id, [&] {
            return lint::checkDesign(request.request);
        }));
        if (report.hasErrors()) {
            tracer.run("api.render", parent, id,
                       [&] { return api::renderEnvelope(report); });
            return;
        }
        const core::Design design = tracer.run("core.solve", parent, id, [&] {
            return core::DesignSolver(request.request).solve();
        });
        tracer.run("api.render", parent, id, [&] {
            return api::renderEnvelope(report, [&](obs::JsonWriter &json) {
                api::writeDesignJson(json, design);
            });
        });
        return;
    }

    std::string spec;
    if (record.endpoint == "mc") {
        api::McRunRequest request;
        if (!api::parseMcRunRequest(parsed.value, request, decodeReport))
            return;
        spec = request.spec;
    } else {
        api::SpecRequest request;
        if (!api::parseSpecRequest(parsed.value, request, decodeReport))
            return;
        spec = request.spec;
    }
    const std::string filename = "request.lemons";
    const lint::ParsedSpec parsedSpec = tracer.run("lint.parse", parent, id,
        [&] { return lint::parseSpec(spec, filename, report); });
    findings.push_back(report.diagnostics().size());

    if (record.endpoint == "verify" || record.endpoint == "analyze") {
        lint::Report lowerReport;
        const std::vector<ir::Graph> graphs = tracer.run(
            "ir.lower", parent, id,
            [&] { return ir::lowerSpec(parsedSpec, lowerReport); });
        for (const ir::Graph &graph : graphs)
            graphNodes.push_back(graph.size());
        report.merge(tracer.run("verify", parent, id, [&] {
            return verify::verifySpecText(spec, filename);
        }));
    }
    if (record.endpoint == "analyze") {
        analysis::FileAnalysis analyzed = tracer.run(
            "analysis", parent, id,
            [&] { return analysis::analyzeSpecText(spec, filename); });
        lint::Report aFindings = analyzed.findings;
        report.merge(std::move(aFindings));
        std::vector<analysis::AnalyzedFile> files;
        files.push_back({report, std::move(analyzed)});
        tracer.run("api.render", parent, id,
                   [&] { return api::renderAnalysisEnvelope(files); });
        return;
    }
    if (record.endpoint == "mc") {
        tracer.run("api.render", parent, id,
                   [&] { return api::renderEnvelope(report); });
        return;
    }
    // lint and verify answer {errors, warnings}, as Service does.
    const uint64_t errors = report.errorCount();
    const uint64_t warnings = report.warningCount();
    tracer.run("api.render", parent, id, [&] {
        return api::renderEnvelope(report, [&](obs::JsonWriter &json) {
            json.beginObject();
            json.key("errors");
            json.value(errors);
            json.key("warnings");
            json.value(warnings);
            json.endObject();
        });
    });
}

/** ns per uniform of a Philox fill over a fixed count (median of 9). */
double
philoxNsPerUniform()
{
    constexpr size_t kBlocks = 1u << 16; // 2^17 uniforms per fill
    std::vector<double> out(2 * kBlocks);
    const philox::Key key = philox::keyWords(philox::deriveKey(12345));
    std::vector<double> perFill;
    double sink = 0.0;
    for (uint64_t rep = 0; rep < 9; ++rep) {
        const int64_t start = nowNs();
        for (uint64_t trial = 0; trial < 8; ++trial)
            philox::fillUniformOpenLow(key, rep * 8 + trial, 0, out.data(),
                                       kBlocks);
        perFill.push_back(static_cast<double>(nowNs() - start) /
                          static_cast<double>(8 * out.size()));
        sink += out[rep];
    }
    std::sort(perFill.begin(), perFill.end());
    if (sink < 0.0)
        std::cerr << sink;
    return perFill[perFill.size() / 2];
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values.empty() ? 0.0 : values[values.size() / 2];
}

int
replay(const std::string &inPath, const std::string &outPath, int reps)
{
    std::vector<Record> records;
    if (!readRecords(inPath, records)) {
        std::cerr << "perfbench-trace: cannot read " << inPath << '\n';
        return 1;
    }
    const api::Service service;
    Tracer tracer;

    // Warm caches and lazy set-up once, outside every measurement.
    for (const Record &record : records)
        handle(service, record);

    std::vector<double> untracedNs;
    std::vector<double> tracedNs;
    obs::Snapshot before;
    obs::Snapshot after;
    for (int rep = 0; rep < reps; ++rep) {
        int64_t start = nowNs();
        for (const Record &record : records)
            handle(service, record);
        untracedNs.push_back(static_cast<double>(nowNs() - start));

        // Only the last traced pass keeps its spans and counter deltas.
        const bool keep = rep + 1 == reps;
        Tracer discard;
        Tracer &sink = keep ? tracer : discard;
        if (keep)
            before = obs::Registry::global().snapshot();
        start = nowNs();
        for (size_t i = 0; i < records.size(); ++i) {
            const Record &record = records[i];
            const int64_t root = sink.open("request", -1, i);
            const uint64_t engineBefore =
                record.endpoint == "mc" ? engineTimerNs() : 0;
            const int64_t handler =
                sink.open("api." + record.endpoint, root, i);
            handle(service, record);
            sink.close(handler);
            if (record.endpoint == "mc") {
                // The engine's time inside the handler, as the
                // program's own sim.mc.run timer measured it.
                const int64_t engineNs =
                    static_cast<int64_t>(engineTimerNs() - engineBefore);
                const int64_t handlerStart =
                    sink.all()[static_cast<size_t>(handler)].start;
                sink.add("engine.run_trials", handlerStart,
                         handlerStart + engineNs, handler, i);
            }
            sink.close(root);
        }
        tracedNs.push_back(static_cast<double>(nowNs() - start));
        if (keep)
            after = obs::Registry::global().snapshot();
    }

    std::vector<uint64_t> findings;
    std::vector<uint64_t> graphNodes;
    for (size_t i = 0; i < records.size(); ++i) {
        const int64_t root = tracer.open("layers", -1, i);
        decompose(tracer, records[i], root, i, findings, graphNodes);
        tracer.close(root);
    }

    std::ofstream out(outPath, std::ios::trunc);
    obs::JsonWriter json(out);
    json.beginObject();
    json.key("requests");
    json.value(static_cast<uint64_t>(records.size()));
    json.key("untraced_ns");
    json.value(median(untracedNs));
    json.key("traced_ns");
    json.value(median(tracedNs));
    json.key("philox_ns_per_uniform");
    json.value(philoxNsPerUniform());
    json.key("simd_level");
    json.value(simd::levelName(simd::activeLevel()));
    json.key("findings_per_spec");
    json.beginArray();
    for (uint64_t count : findings)
        json.value(count);
    json.endArray();
    json.key("nodes_per_graph");
    json.beginArray();
    for (uint64_t count : graphNodes)
        json.value(count);
    json.endArray();
    json.key("counters");
    json.beginObject();
    for (const obs::CounterSample &counter : after.countersSince(before)) {
        json.key(counter.name);
        json.value(counter.value);
    }
    json.endObject();
    json.key("timers");
    json.beginObject();
    for (const obs::TimerSample &timer : after.timersSince(before)) {
        json.key(timer.name);
        json.beginObject();
        json.key("count");
        json.value(timer.count);
        json.key("total_ns");
        json.value(timer.totalNs);
        json.endObject();
    }
    json.endObject();
    json.key("spans");
    json.beginArray();
    for (const Span &span : tracer.all()) {
        json.beginArray();
        json.value(span.name);
        json.value(static_cast<double>(span.start));
        json.value(static_cast<double>(span.end));
        json.value(static_cast<double>(span.parent));
        json.value(span.request);
        json.endArray();
    }
    json.endArray();
    json.endObject();
    out << '\n';
    return out ? 0 : 1;
}

int
brackets(int argc, char **argv)
{
    for (int i = 2; i < argc; ++i) {
        std::ifstream in(argv[i]);
        std::stringstream text;
        text << in.rdbuf();
        lint::Report report;
        const lint::ParsedSpec parsed =
            lint::parseSpec(text.str(), argv[i], report);
        obs::JsonWriter json(std::cout);
        json.beginObject();
        json.key("file");
        json.value(argv[i]);
        json.key("structures");
        json.beginArray();
        for (const lint::StructureSpec &spec : parsed.structures) {
            const bool parallel =
                spec.kind == lint::StructureSpec::Kind::Parallel;
            const verify::Interval bracket = parallel
                ? verify::expectedStructureAccesses(spec.device, spec.n,
                                                    spec.k, 0)
                : verify::expectedStructureAccesses(spec.device, 1, 1,
                                                    spec.n);
            json.beginObject();
            json.key("lo");
            json.value(bracket.lo);
            json.key("hi");
            json.value(bracket.hi);
            json.endObject();
        }
        json.endArray();
        json.endObject();
        std::cout << '\n';
    }
    return std::cout ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "brackets")
        return brackets(argc, argv);
    if (mode == "replay" && argc >= 4)
        return replay(argv[2], argv[3], argc > 4 ? std::atoi(argv[4]) : 3);
    std::cerr << "usage: perfbench-trace brackets SPEC...\n"
                 "       perfbench-trace replay IN OUT [REPS]\n";
    return 2;
}
