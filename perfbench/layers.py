"""Per-layer metrics of a traced run.

Work counts are deltas of named obs::Registry counters, read by name
at runtime from lemonsd's /metrics, from perfbench-trace's snapshot or
from the lemons-bench JSON. A counter the program no longer has is
reported as 0 and marked "absent" in the printed table; it never fails
the run. Times come from the spans perfbench-trace records around the
public entry point of each layer.
"""

import json
import os
import re
import subprocess
from collections import defaultdict

PER_LAYER = (
    ("latency_p99_ms", "ms"),
    ("latency_p50_ms.solve", "ms"), ("latency_p50_ms.lint", "ms"),
    ("latency_p50_ms.verify", "ms"), ("latency_p50_ms.analyze", "ms"),
    ("latency_p50_ms.healthz", "ms"),
    ("run_s", "s"), ("cpu_s", "s"),
    ("loadgen.lag_p50_ms", "ms"), ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.sent", "count"), ("loadgen.conns_max", "count"),
    ("error_frac", "1"),
    ("serve.wait_ms", "ms"), ("serve.request_ms", "ms"),
    ("serve.accepted", "count"), ("serve.responses.2xx", "count"),
    ("serve.responses.4xx", "count"), ("serve.responses.5xx", "count"),
    ("serve.rejected.queue", "count"), ("serve.rejected.malformed", "count"),
    ("serve.bytes_out_per_req", "B"),
    ("api.parse_us", "us"), ("api.render_us", "us"),
    ("api.solve_self_us", "us"), ("api.lint_self_us", "us"),
    ("api.verify_self_us", "us"), ("api.analyze_self_us", "us"),
    ("api.mc_self_us", "us"),
    ("lint.parse_us", "us"), ("lint.check_us", "us"),
    ("lint.findings_per_spec", "count"),
    ("ir.lower_us", "us"), ("ir.nodes_per_graph", "count"),
    ("verify.us", "us"), ("analysis.us", "us"),
    ("core.solve_us", "us"), ("core.solver.solves", "count"),
    ("core.solver.infeasible", "count"),
    ("engine.ns_per_trial", "ns"), ("sim.mc.trials", "count"),
    ("sim.mc.chunks", "count"), ("sim.mc.pool.submitted", "count"),
    ("sim.mc.pool.threads_created", "count"),
    ("sim.mc.cache.weibull_log_survival.hit_ratio", "1"),
    ("sim.mc.cache.weibull_quantile.hit_ratio", "1"),
    ("sim.mc.cache.binomial_tail.hit_ratio", "1"),
    ("arch.sim.device_samples", "count"),
    ("arch.sim.structure_samples", "count"),
    ("arch.sim.faulty_structure_samples", "count"),
    ("arch.device_samples_per_structure", "count"),
    ("arch.device_samples_per_width", "1"),
    ("wearout.weibull.samples", "count"), ("wearout.mixture.samples", "count"),
    ("util.philox_ns_per_uniform", "ns"),
    ("sim.poisson.samples", "count"), ("sim.poisson.exact", "count"),
    ("sim.poisson.approx", "count"),
    ("sim.passes_per_budget_search", "count"),
    ("fleet.devices_per_s", "1/s"),
    ("bench.model_sensitivity_s", "s"), ("bench.fault_injection_s", "s"),
    ("bench.survival_probability_s", "s"), ("bench.mway_factors_s", "s"),
    ("bench.rest_s", "s"),
    ("obs.trace_overhead_frac", "1"),
)

# Counters copied through unchanged, wherever the workload reads them.
COUNTERS = (
    "serve.accepted", "serve.responses.2xx", "serve.responses.4xx",
    "serve.responses.5xx", "serve.rejected.queue", "serve.rejected.malformed",
    "core.solver.solves", "core.solver.infeasible", "sim.mc.trials",
    "sim.mc.chunks", "sim.mc.pool.submitted", "sim.mc.pool.threads_created",
    "arch.sim.device_samples", "arch.sim.structure_samples",
    "arch.sim.faulty_structure_samples", "wearout.weibull.samples",
    "wearout.mixture.samples", "sim.poisson.samples", "sim.poisson.exact",
    "sim.poisson.approx")

CACHES = ("weibull_log_survival", "weibull_quantile", "binomial_tail")

# The four benches that take nearly all of the quick suite.
HEAVY = {"ablation.model_sensitivity": "bench.model_sensitivity_s",
         "ablation.fault_injection": "bench.fault_injection_s",
         "usage.survival_probability": "bench.survival_probability_s",
         "usage.mway_factors": "bench.mway_factors_s"}
# usage.mway_factors asks one budget question per usage profile (5).
MWAY_BENCH, MWAY_BUDGET_SEARCHES = "usage.mway_factors", 5

# Layer calls each handler makes, as perfbench-trace replays them; the
# handler's self time is its span minus these (and the engine's time).
HANDLER_CALLS = {
    "api.solve": ("api.parse", "lint.check", "core.solve", "api.render"),
    "api.lint": ("api.parse", "lint.parse", "api.render"),
    "api.verify": ("api.parse", "lint.parse", "verify", "api.render"),
    "api.analyze": ("api.parse", "lint.parse", "verify", "analysis",
                    "api.render"),
    "api.mc": ("api.parse", "lint.parse", "api.render"),
}

SPAN_METRICS = {"api.parse": "api.parse_us", "api.render": "api.render_us",
                "lint.parse": "lint.parse_us", "lint.check": "lint.check_us",
                "ir.lower": "ir.lower_us",
                "verify": "verify.us", "analysis": "analysis.us",
                "core.solve": "core.solve_us"}


class Metrics(dict):
    """name -> value, remembering which counters were absent."""

    def __init__(self):
        super().__init__()
        self.absent = set()

    def counter(self, name, source):
        if name in source:
            self[name] = source[name]
        else:
            self[name] = 0
            self.absent.add(name)

    def ratio(self, name, num, den):
        self[name] = num / den if den else 0


def parse_prometheus(text):
    """{"counters": {dotted: value}, "timers": {dotted: (count, s)}}."""
    kinds, names = {}, {}
    counters, timers = {}, defaultdict(lambda: [0, 0.0])
    for line in text.splitlines():
        help_line = re.match(r"# HELP (\S+) lemons (\w+) (\S+)", line)
        if help_line:
            prom, kind, dotted = help_line.groups()
            kinds[prom], names[prom] = kind, dotted
            continue
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if kinds.get(key) == "counter":
            counters[names[key]] = float(value)
        elif key.endswith("_sum") and kinds.get(key[:-4]) == "summary":
            timers[names[key[:-4]]][1] = float(value)
        elif key.endswith("_count") and kinds.get(key[:-6]) == "summary":
            timers[names[key[:-6]]][0] = float(value)
    return {"counters": counters, "timers": dict(timers)}


def _delta(before, after):
    counters = {k: v - before.get("counters", {}).get(k, 0)
                for k, v in after.get("counters", {}).items()}
    timers = {}
    for k, (count, total) in after.get("timers", {}).items():
        c0, t0 = before.get("timers", {}).get(k, (0, 0.0))
        timers[k] = (count - c0, total - t0)
    return counters, timers


def replay(trace_bin, requests, work):
    """Run perfbench-trace over ``requests``; returns its JSON report."""
    inp = os.path.join(work, "replay.in")
    out = os.path.join(work, "replay.json")
    with open(inp, "wb") as f:
        for r in requests:
            f.write(b"%s %d\n%s\n" % (r.endpoint.encode(), len(r.body),
                                      r.body))
    subprocess.run([trace_bin, "replay", inp, out, "3"], check=True)
    with open(out) as f:
        report = json.load(f)
    report["self"] = self_times(report["spans"])
    return report


def self_times(spans):
    """name -> [calls, total self ns]; self = duration minus children."""
    children = defaultdict(list)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[int(parent)].append(i)
    out = defaultdict(lambda: [0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2])
                             for c in children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[name][0] += 1
        out[name][1] += (end - start) - covered
    return dict(out)


def _replay_layers(m, rep):
    """Time splits and per-spec work from an in-process replay."""
    per_request = defaultdict(dict)
    durations = defaultdict(list)
    for name, start, end, _, request in rep["spans"]:
        per_request[request][name] = end - start
        durations[name].append(end - start)
    for span, metric in SPAN_METRICS.items():
        values = durations.get(span, [])
        m[metric] = sum(values) / len(values) / 1e3 if values else 0
    for handler, calls in HANDLER_CALLS.items():
        selfs = []
        for spans in per_request.values():
            if handler in spans:
                inner = sum(spans.get(c, 0) for c in calls)
                selfs.append(spans[handler] - inner
                             - spans.get("engine.run_trials", 0))
        # A difference of two measurements: floored at 0 when the
        # handler adds less than the timing noise.
        m[handler + "_self_us"] = (max(0, sum(selfs) / len(selfs) / 1e3)
                                   if selfs else 0)
    for key, metric in (("findings_per_spec", "lint.findings_per_spec"),
                        ("nodes_per_graph", "ir.nodes_per_graph")):
        values = rep[key]
        m[metric] = sum(values) / len(values) if values else 0
    m["util.philox_ns_per_uniform"] = rep["philox_ns_per_uniform"]
    m["obs.trace_overhead_frac"] = (rep["traced_ns"] / rep["untraced_ns"] - 1
                                    if rep["untraced_ns"] else 0)


def _work_layers(m, counters, timers):
    for name in COUNTERS:
        m.counter(name, counters)
    for cache in CACHES:
        prefix = "sim.mc.cache.%s." % cache
        hits = counters.get(prefix + "hits", 0)
        m.ratio(prefix + "hit_ratio", hits,
                hits + counters.get(prefix + "misses", 0))
    structures = (counters.get("arch.sim.structure_samples", 0)
                  + counters.get("arch.sim.faulty_structure_samples", 0))
    m.ratio("arch.device_samples_per_structure",
            counters.get("arch.sim.device_samples", 0), structures)
    m.ratio("engine.ns_per_trial", timers.get("sim.mc.run", (0, 0))[1],
            counters.get("sim.mc.trials", 0))


def _finish(m):
    out = {}
    for name, unit in PER_LAYER:
        out[name] = (float(m.get(name, 0)), unit)
    return out, m.absent


def serve_layers(before, after, mean_latency_ms, rep, loadgen_layer):
    """Per-layer metrics of a lemonsd workload."""
    m = Metrics()
    m.update(loadgen_layer)
    counters, timers = _delta(before, after)
    # Device lifetimes drawn per device of the k-of-n banks simulated:
    # 1 while every trial samples each of a bank's n devices.
    m.ratio("arch.device_samples_per_width",
            counters.get("arch.sim.device_samples", 0),
            loadgen_layer["mc_device_draws"])
    # /metrics reports timers in seconds; the engine ratio wants ns.
    timers_ns = {k: (c, s * 1e9) for k, (c, s) in timers.items()}
    _work_layers(m, counters, timers_ns)
    count, total_s = timers.get("serve.request", (0, 0.0))
    m["serve.request_ms"] = total_s * 1e3 / count if count else 0
    m["serve.wait_ms"] = mean_latency_ms - m["serve.request_ms"]
    m.ratio("serve.bytes_out_per_req", counters.get("serve.bytes_out", 0),
            counters.get("serve.responses", 0))
    _replay_layers(m, rep)
    return _finish(m)


def paper_layers(benchmarks, p99_ms, run_s, cpu_s, rep):
    """Per-layer metrics of paper_repro, from the lemons-bench JSON."""
    m = Metrics()
    m.update({"latency_p99_ms": p99_ms, "run_s": run_s, "cpu_s": cpu_s})
    counters, timers = defaultdict(float), defaultdict(lambda: [0, 0.0])
    walls = {}
    for b in benchmarks:
        walls[b["name"]] = b["wall_ns"]["median"] / 1e9
        for k, v in b.get("counters", {}).items():
            counters[k] += v
        for k, v in b.get("timers", {}).items():
            timers[k][0] += v.get("count", 0)
            timers[k][1] += v.get("total_ns", 0)
    _work_layers(m, counters, {k: tuple(v) for k, v in timers.items()})
    for bench, metric in HEAVY.items():
        m[metric] = walls.get(bench, 0)
    m["bench.rest_s"] = sum(w for n, w in walls.items() if n not in HEAVY)
    mway = next((b for b in benchmarks if b["name"] == MWAY_BENCH), {})
    passes = mway.get("timers", {}).get("sim.mc.run", {}).get("count")
    if passes is None:
        m.absent.add("sim.passes_per_budget_search")
    m["sim.passes_per_budget_search"] = (passes or 0) / MWAY_BUDGET_SEARCHES
    fleet = next((b for b in benchmarks if b["name"] == "fleet.campaign_run"),
                 {})
    devices = fleet.get("counters", {}).get("fleet.campaign.devices", 0)
    run_ns = fleet.get("timers", {}).get("fleet.campaign.run",
                                         {}).get("total_ns", 0)
    m.ratio("fleet.devices_per_s", devices * 1e9, run_ns)
    _replay_layers(m, rep)
    # lemons-bench runs untraced: its spans are read from its JSON after
    # the run, so tracing adds nothing to the measured process.
    m["obs.trace_overhead_frac"] = 0
    return _finish(m)


def table(layer_metrics, rep):
    """Human-readable per-layer table: metrics, then span self times."""
    values, absent = layer_metrics
    lines = ["per-layer metrics (traced run; SIMD level %s)"
             % rep.get("simd_level", "?")]
    for name, (value, unit) in values.items():
        mark = "  absent" if name in absent else ""
        lines.append("  %-44s %14.6g %s%s" % (name, value, unit, mark))
    if rep.get("self"):
        lines.append("span self time (in-process replay of %d requests)"
                     % rep.get("requests", 0))
        lines.append("  %-22s %8s %12s %12s" % ("span", "calls", "self ms",
                                                "mean us"))
        for name, (calls, ns) in sorted(rep["self"].items(),
                                        key=lambda kv: -kv[1][1]):
            lines.append("  %-22s %8d %12.3f %12.2f"
                         % (name, calls, ns / 1e6, ns / 1e3 / calls))
    return "\n".join(lines)
