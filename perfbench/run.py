#!/usr/bin/env python3
"""Repository benchmark: lemonsd traffic and the paper suite.

    python3 perfbench/run.py --workload serve_design --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds lemonsd,
lemons-bench, perfbench-loadgen and perfbench-trace into .bench_build/.
The workloads and
metrics are described in perfbench/README.md. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
separate traced run reports the per-layer ones. The exit code is 1
when an output check fails or the program cannot be built.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing into the source tree

import gen  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "run")

WORKERS = 2                # lemonsd --workers
SOCKET_TIMEOUT_MS = 2000   # lemonsd --socket-timeout-ms
# Open-loop requests/s of serve_design and serve_slow_clients. At the
# 0.15-0.3 ms of lemonsd CPU a request costs, the daemon is 15-30 %
# busy: no backlog forms, so p50 shows one request's path and not
# queueing, and a 10 s window holds ~10,000 requests, 100 beyond p99.
DESIGN_RATE = 1000.0
SLO_MS = {"serve_design": 100.0, "serve_slow_clients": 100.0,
          "serve_mc": 250.0}
# Set-ups per run, half before the window and half after, so that one
# slow spell of the host cannot set their median, setup_s.
SETUP_REPS = 40
# Open-loop latency is timed from the due time less the generator's own
# lateness (lag), so lag cannot count against the program. A run whose
# lag p50 exceeds a tenth of the mean arrival gap did not send on
# schedule and is invalid.
LAG_BOUND_MS = 0.1 * 1e3 / DESIGN_RATE
BUILD_COOLDOWN_S = 30      # pause before measuring after a real build
FAILED_MS = 1e12           # how a +inf latency is printed
# serve_slow_clients: --workers slowloris connections, each trickling
# one byte a second for 2 bytes, reopened 3 s after the server drops
# it: (connections, trickle ms, trickle bytes, reopen pause ms).
SLOWLORIS = (WORKERS, SOCKET_TIMEOUT_MS // 2, 2, 3000)
REPLAY = {"serve_design": 300, "serve_slow_clients": 300, "serve_mc": 24}

END_TO_END = (("setup_s", "s"), ("latency_p50_ms", "ms"), ("slo_frac", "1"),
              ("throughput_rps", "1/s"), ("cpu_ms_per_req", "ms"),
              ("peak_rss_mb", "MiB"))
# Printed with the end-to-end metrics and reported per layer: on
# paper_repro they are latency_p50_ms and cpu_ms_per_req again, and on
# the open loops the schedule fixes them.
TOTALS = (("run_s", "s"), ("cpu_s", "s"))


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench:", message)
    sys.exit(1)


# ---------------------------------------------------------------- build

def build(targets):
    """Configure once, then build ``targets``; returns name -> path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("run from the root of a lemons checkout")
    os.makedirs(WORK, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    with open(logfile, "a") as out:
        if not os.path.isfile(cache):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=out) != 0:
                # Configure again next time instead of building a
                # half-configured tree.
                if os.path.exists(cache):
                    os.remove(cache)
                fail("cmake configure failed; see %s" % logfile)
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
        start = time.perf_counter()
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            fail("build failed; see %s" % logfile)
        if time.perf_counter() - start > BUILD_COOLDOWN_S:
            # Right after a full-machine compile the shared reference
            # host served requests up to 3x slower for tens of seconds:
            # the benchmark's own doing, not the program's.
            time.sleep(BUILD_COOLDOWN_S)
    paths = {}
    for dirpath, _, files in os.walk(BUILD):
        for name in targets:
            if name in files and name not in paths:
                paths[name] = os.path.join(dirpath, name)
    missing = [t for t in targets if t not in paths]
    if missing:
        fail("built binaries not found: %s" % missing)
    return paths


# -------------------------------------------------------------- helpers

def quantile(values, q):
    """Nearest-rank quantile; +inf (a failed request) sorts last."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime + stime
    return ticks / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Daemon:
    """One lemonsd process on an ephemeral port."""

    def __init__(self, binary, index, cpus=None):
        self.port_file = os.path.join(WORK, "lemonsd-%d.port" % index)
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.log = open(os.path.join(WORK, "lemonsd-%d.log" % index), "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--port", "0", "--port-file", self.port_file,
             "--workers", str(WORKERS), "--quota-rate", "0",
             "--socket-timeout-ms", str(SOCKET_TIMEOUT_MS)],
            stdout=self.log, stderr=self.log, preexec_fn=loadgen.pin(cpus))
        try:
            self.port = self._wait_port()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self):
        client = loadgen.Client(self.port)
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline:
            try:
                if client.request("/v1/healthz", b"")[0] == 200:
                    client.close()
                    return
            except OSError:
                pass
            self._check_alive()
            time.sleep(0.001)
        fail("lemonsd never answered /v1/healthz")

    def _check_alive(self):
        if self.proc.poll() is not None:
            fail("lemonsd exited with %s" % self.proc.returncode)

    def _wait_port(self):
        deadline = time.perf_counter() + 30
        while time.perf_counter() < deadline:
            try:
                with open(self.port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    return int(text)
            except (OSError, ValueError):
                pass
            self._check_alive()
            time.sleep(0.0005)
        fail("lemonsd did not report its port")

    def metrics(self):
        client = loadgen.Client(self.port)
        status, body = client.request("/metrics", b"")
        client.close()
        return layers.parse_prometheus(body.decode()) if status == 200 else {}

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


# ------------------------------------------------------------ workloads

def mc_brackets(trace_bin, requests):
    """Attach the verifier's certified bracket to every mc request."""
    specs = sorted({r.spec for r in requests})
    files = []
    for i, spec in enumerate(specs):
        path = os.path.join(WORK, "mc-%d.lemons" % i)
        with open(path, "w") as f:
            f.write(spec)
        files.append(path)
    out = subprocess.run([trace_bin, "brackets"] + files, check=True,
                         capture_output=True, text=True).stdout
    lines = [json.loads(line) for line in out.splitlines()]
    bracket = {spec: (line["structures"][0]["lo"],
                      line["structures"][0]["hi"])
               for spec, line in zip(specs, lines)}
    for r in requests:
        r.bracket = bracket[r.spec]


def generate(workload, seed, seconds, trace_bin):
    """(requests, due times or None) of one run."""
    rng = random.Random(seed)
    if workload == "serve_mc":
        # Ten times what the closed loop sends in ``seconds`` today.
        count = int(seconds * 2500) + 64
        requests = gen.twinned(lambda: gen.mc_request(rng), count, rng)
        mc_brackets(trace_bin, requests)
        return requests, None
    texts, expect = gen.load_templates()
    due = gen.poisson_schedule(rng, DESIGN_RATE, seconds)
    requests = gen.twinned(lambda: gen.design_request(rng, texts, expect),
                           len(due), rng)
    return requests, due


def check_samples(requests, samples):
    """Per-sample failure reasons (None = correct), twins included."""
    errors = []
    first_body = {}
    for s in samples:
        req = requests[s.index]
        if s.status == 0:
            error = "connection error: %s" % s.body.decode()
        else:
            error = gen.check(req, s.status, s.body)
        if error is None:
            twin = first_body.setdefault((req.endpoint, req.body), s.body)
            if twin != s.body:
                error = "differs from its twin request's response"
        errors.append(error)
    return errors


def serve_run(workload, seed, seconds, trace, bins):
    requests, due = generate(workload, seed, seconds,
                             bins["perfbench-trace"])
    # The open loops run lemonsd and the generator on one shared CPU, so
    # no request crosses CPUs: on a shared VM host, cross-CPU wake-ups
    # are delayed by up to ms and they, not the program, set the spread.
    # serve_mc keeps both workers busy and runs unbound.
    cpus = {max(os.sched_getaffinity(0))} if due is not None else None
    setups = daemon_setups(bins["lemonsd"], SETUP_REPS // 2)
    daemon = Daemon(bins["lemonsd"], SETUP_REPS, cpus)
    try:
        # Warm the daemon's caches and pool with inputs of another seed.
        warm, _ = generate(workload, seed + 7919, 1.0,
                           bins["perfbench-trace"])
        client = loadgen.Client(daemon.port)
        for req in warm[:8 if workload == "serve_mc" else 100]:
            client.request(req.path, req.body)
        client.close()

        before = daemon.metrics() if trace else {}
        cpu0 = proc_cpu_s(daemon.proc.pid)
        slow = SLOWLORIS if workload == "serve_slow_clients" else None
        samples = loadgen.run(bins["perfbench-loadgen"], WORK, daemon.port,
                              requests, due, WORKERS, seconds, slow, cpus)
        cpu_s = proc_cpu_s(daemon.proc.pid) - cpu0
        hwm = proc_hwm_mb(daemon.proc.pid)
        after = daemon.metrics() if trace else {}
    finally:
        daemon.stop()
    setups += daemon_setups(bins["lemonsd"], SETUP_REPS - SETUP_REPS // 2)

    errors = check_samples(requests, samples)
    failed = sum(e is not None for e in errors)
    for e in sorted({e for e in errors if e})[:10]:
        log("check failed:", e)
    lat_ms = [(s.latency - s.lag) * 1e3 if e is None else float("inf")
              for s, e in zip(samples, errors)]
    run_s = max(s.done for s in samples)
    in_slo = sum(x <= SLO_MS[workload] for x in lat_ms)
    lags = [s.lag * 1e3 for s in samples]
    lag_p50, lag_p99 = quantile(lags, 0.50), quantile(lags, 0.99)
    valid = lag_p50 <= LAG_BOUND_MS
    if not valid:
        log("invalid run: generator lag p50 %.3f ms > %.3f ms"
            % (lag_p50, LAG_BOUND_MS))
    e2e = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": quantile(lat_ms, 0.50),
        "slo_frac": in_slo / len(lat_ms),
        # Goodput: correct answers within the SLO per second.
        "throughput_rps": in_slo / run_s,
        "cpu_ms_per_req": cpu_s * 1e3 / len(samples),
        "peak_rss_mb": hwm,
        "run_s": run_s,
        "cpu_s": cpu_s,
    }
    by_endpoint = {}
    for s, x in zip(samples, lat_ms):
        by_endpoint.setdefault(requests[s.index].endpoint, []).append(x)
    result = {"attempted": len(samples), "failed": failed,
              "correct": failed == 0 and valid, "e2e": e2e,
              "p99_ms": min(quantile(lat_ms, 0.99), FAILED_MS),
              "lag": (lag_p50, lag_p99),
              "p50_by_endpoint": {
                  endpoint: min(quantile(values, 0.50), FAILED_MS)
                  for endpoint, values in sorted(by_endpoint.items())}}
    if trace:
        sample = distinct_sample(requests, REPLAY[workload])
        replay = layers.replay(bins["perfbench-trace"], sample, WORK)
        loadgen_layer = {
            "latency_p99_ms": result["p99_ms"],
            "run_s": run_s, "cpu_s": cpu_s,
            "loadgen.lag_p50_ms": lag_p50, "loadgen.lag_p99_ms": lag_p99,
            "loadgen.sent": len(samples),
            "loadgen.conns_max": WORKERS + (slow[0] if slow else 0),
            "error_frac": failed / len(samples),
            "mc_device_draws": mc_device_draws(samples, errors)}
        if due is not None:
            for endpoint, p50 in result["p50_by_endpoint"].items():
                loadgen_layer["latency_p50_ms." + endpoint] = p50
        mean_ms = statistics.fmean((s.latency - s.lag) * 1e3
                                   for s in samples)
        result["layers"] = layers.serve_layers(before, after, mean_ms,
                                               replay, loadgen_layer)
        result["replay"] = replay
    return result


def daemon_setups(binary, count):
    """Set-up times of ``count`` lemonsd spawns, unbound as a user's."""
    setups = []
    for i in range(count):
        daemon = Daemon(binary, i)
        setups.append(daemon.setup_s)
        daemon.stop()
    return setups


def mc_device_draws(samples, errors):
    """Sum of width x trials over the k-of-n banks simulated correctly."""
    total = 0
    for s, e in zip(samples, errors):
        if e is None and s.body:
            result = json.loads(s.body)["result"]
            if result and "structures" in result:
                total += sum(x["n"] * x["trials"]
                             for x in result["structures"]
                             if x["kind"] == "parallel")
    return total


def distinct_sample(requests, count):
    seen, out = set(), []
    for req in requests:
        key = (req.endpoint, req.body)
        if req.endpoint != "healthz" and key not in seen:
            seen.add(key)
            out.append(req)
        if len(out) == count:
            break
    return out


def list_setups(bench, count):
    """Wall times of ``count`` ``lemons-bench --list`` runs."""
    setups = []
    for _ in range(count):
        start = time.perf_counter()
        listed = subprocess.run([bench, "--list"], capture_output=True,
                                text=True)
        setups.append(time.perf_counter() - start)
        if listed.returncode != 0:
            fail("lemons-bench --list exited %d" % listed.returncode)
    return setups


def paper_run(seed, seconds, trace, bins):
    bench = bins["lemons-bench"]
    with open(os.path.join(HERE, "benches.json")) as f:
        expected = json.load(f)
    setups = list_setups(bench, SETUP_REPS // 2)
    passes = []
    window_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < window_end:
        out = os.path.join(WORK, "bench-%d.json" % len(passes))
        if os.path.exists(out):
            os.remove(out)
        cmd = [bench, "--quick", "--reps", "1", "--warmup", "0",
               "--seed", str(seed), "--json=" + out]
        start = time.perf_counter()
        with open(os.path.join(WORK, "bench.log"), "w") as logf:
            proc = subprocess.Popen(cmd, stdout=logf, stderr=logf)
            # wait4 reaps the child and returns its own rusage.
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = rc = os.waitstatus_to_exitcode(status)
        report = {}
        if rc == 0 and os.path.exists(out):
            with open(out) as f:
                report = json.load(f)
        passes.append({"wall": wall, "rc": rc,
                       "cpu": usage.ru_utime + usage.ru_stime,
                       "rss_mb": usage.ru_maxrss / 1024.0,
                       "report": report})

    setups += list_setups(bench, SETUP_REPS - SETUP_REPS // 2)

    failed = 0
    for p in passes:
        if p["rc"] != 0:
            log("check failed: lemons-bench exited %d" % p["rc"])
        ran = {b["name"]: b for b in p["report"].get("benchmarks", [])}
        for name, items in sorted(expected.items()):
            got = ran.get(name)
            bad = (p["rc"] != 0 or got is None
                   or got.get("metrics", {}).get("items") != items)
            if bad and p["rc"] == 0:
                log("check failed: bench %s %s" % (
                    name, "missing" if got is None else
                    "items %s, expected %s" % (
                        got.get("metrics", {}).get("items"), items)))
            failed += bad
    attempted = len(expected) * len(passes)
    last = passes[-1]["report"].get("benchmarks", [])
    walls_ms = [b["wall_ns"]["median"] / 1e6 for b in last] or [0.0]
    run_s = statistics.median(p["wall"] for p in passes)
    # A reproducer waits for a whole pass: that is paper_repro's latency.
    # Work rate and CPU are per bench, so these three derive from run_s
    # and cpu_s, and slo_frac is 1 on every correct run.
    cpu_s = statistics.median(p["cpu"] for p in passes)
    e2e = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": quantile([p["wall"] * 1e3 for p in passes], 0.50),
        "slo_frac": (attempted - failed) / attempted,
        "throughput_rps": len(expected) / run_s,
        "cpu_ms_per_req": cpu_s * 1e3 / len(expected),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "run_s": run_s,
        "cpu_s": cpu_s,
    }
    result = {"attempted": attempted, "failed": failed,
              "correct": failed == 0, "e2e": e2e,
              "p99_ms": quantile(walls_ms, 0.99)}
    if trace:
        replay = layers.replay(bins["perfbench-trace"], [], WORK)
        result["layers"] = layers.paper_layers(last, result["p99_ms"],
                                               run_s, cpu_s, replay)
        result["replay"] = replay
    return result


# ----------------------------------------------------------------- main

WORKLOADS = ("serve_design", "serve_slow_clients", "serve_mc", "paper_repro")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    targets = ["lemonsd", "lemons-bench", "perfbench-loadgen",
               "perfbench-trace"]
    bins = build(targets)
    if args.workload == "paper_repro":
        result = paper_run(args.seed, args.seconds, args.trace, bins)
    else:
        result = serve_run(args.workload, args.seed, args.seconds,
                           args.trace, bins)

    print("workload %s  seed %d  attempted %d  failed %d" % (
        args.workload, args.seed, result["attempted"], result["failed"]))
    for name, unit in END_TO_END + TOTALS:
        print("  %-22s %14.6g %s" % (name, result["e2e"][name], unit))
    print("  %-22s %14.6g ms (per-layer: host stalls dominate it)"
          % ("latency_p99_ms", result["p99_ms"]))
    if "lag" in result:
        print("  %-22s %14.6g ms p50, %.6g ms p99 (valid while p50 <= %g)"
              % (("generator lag",) + result["lag"] + (LAG_BOUND_MS,)))
    for endpoint, p50 in result.get("p50_by_endpoint", {}).items():
        print("  %-22s %14.6g ms" % ("latency_p50 " + endpoint, p50))
    if args.trace:
        print(layers.table(result["layers"], result["replay"]))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"][0].items()}
    else:
        metrics = {name: {"value": result["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END}
    for metric in metrics.values():
        # A failed request's +inf latency; such a run is not correct.
        metric["value"] = min(metric["value"], FAILED_MS)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
