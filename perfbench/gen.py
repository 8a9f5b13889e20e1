"""Seeded request generation and output checks for the lemonsd workloads.

Every request body is drawn from the templates in perfbench/templates/
(copies of the repository's example configs, kept here so later edits
to examples/ cannot change the benchmark's inputs). Each template
states what the pipeline must say about it in expect.json: the
envelope's ``ok`` flag and the set of error- and warning-severity
codes per endpoint. Notes are informational and not checked.
"""

import json
import math
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
TEMPLATE_DIR = os.path.join(HERE, "templates")
API_SCHEMA = "lemons-api/1"

# serve_design's endpoint mix: equal weights over the five designer
# endpoints, since no traffic record says otherwise. Each endpoint's own
# p50 is reported too, so the weights cannot hide a change in one.
DESIGN_MIX = (("solve", 0.2), ("lint", 0.2), ("verify", 0.2),
              ("analyze", 0.2), ("healthz", 0.2))

# Monte Carlo specs: the solver's k-of-n connection bank, the paper's
# default 100-of-1000 bank and series chains. Trial counts put every
# request at roughly 10 ms on one thread.
MC_TRIALS = {"solver_bank": 4096, "paper_defaults": 512, "series": 32768}

# An mc mean must lie in the certified bracket widened by z standard
# errors. The count of accesses is an integer, so a sample in which
# every trial agrees has stddev 0 while the true one is not; one access
# of pseudo-variance per trial keeps the width honest in that case.
MC_Z = 6.0

PATHS = {"solve": "/v1/solve", "lint": "/v1/lint", "verify": "/v1/verify",
         "analyze": "/v1/analyze", "mc": "/v1/mc/run",
         "healthz": "/v1/healthz"}


def load_templates():
    """(name -> spec text, name -> expectation) from the template dir."""
    with open(os.path.join(TEMPLATE_DIR, "expect.json")) as f:
        expect = json.load(f)
    texts = {}
    for name in expect:
        with open(os.path.join(TEMPLATE_DIR, name + ".lemons")) as f:
            texts[name] = f.read()
    return texts, expect


def _set_design_fields(text, values):
    """Rewrite the keys of ``values`` that the [design] section has."""
    out, section = [], None
    for line in text.splitlines(keepends=True):
        header = re.match(r"\s*\[(\w+)\]", line)
        if header:
            section = header.group(1)
        field = re.match(r"(\s*)(\w+)(\s*=\s*)", line)
        if section == "design" and field and field.group(2) in values:
            line = "%s%s%s%s\n" % (field.group(1), field.group(2),
                                   field.group(3), values[field.group(2)])
        out.append(line)
    return "".join(out)


# The [design] parameter grid. Every point was checked to keep each
# template's findings (and the solver's feasibility) unchanged, so a
# drawn point never changes what a response must say.
DESIGN_GRID = {"alpha": (9.0, 9.75, 10.5, 11.25, 12.0),
               "beta": (11.0, 11.75, 12.5, 13.25, 14.0),
               "lab_scale": (0.6, 0.75, 0.9, 1.05, 1.2),
               "k_fraction": (0.08, 0.1, 0.12, 0.14, 0.15)}


def _design_values(rng, lab):
    return {"alpha": "%g" % rng.choice(DESIGN_GRID["alpha"]),
            "beta": "%g" % rng.choice(DESIGN_GRID["beta"]),
            "lab": str(int(lab * rng.choice(DESIGN_GRID["lab_scale"]))),
            "k_fraction": "%g" % rng.choice(DESIGN_GRID["k_fraction"])}


class Request:
    """One generated request and what its response must say."""

    __slots__ = ("endpoint", "body", "expect_ok", "expect_codes", "spec",
                 "bracket", "trials")

    def __init__(self, endpoint, body, expect_ok=True, expect_codes=(),
                 spec=None, bracket=None, trials=0):
        self.endpoint = endpoint
        self.body = body
        self.expect_ok = expect_ok
        self.expect_codes = frozenset(expect_codes)
        self.spec = spec  # mc only: the spec text, to look up its bracket
        self.bracket = bracket
        self.trials = trials

    @property
    def path(self):
        return PATHS[self.endpoint]


def design_request(rng, texts, expect):
    """One serve_design request drawn from the endpoint mix."""
    r, acc = rng.random(), 0.0
    for endpoint, weight in DESIGN_MIX:
        acc += weight
        if r < acc:
            break
    if endpoint == "healthz":
        return Request("healthz", b"")
    if endpoint == "solve":
        v = _design_values(rng, 91250)
        body = {"alpha": float(v["alpha"]), "beta": float(v["beta"]),
                "lab": int(v["lab"]), "k_fraction": float(v["k_fraction"]),
                "min_reliability": 0.99}
        return Request("solve", json.dumps(body).encode())
    name = rng.choice(sorted(texts))
    text = texts[name]
    if expect[name].get("vary_design"):
        lab = int(re.search(r"lab\s*=\s*(\d+)", text).group(1))
        text = _set_design_fields(text, _design_values(rng, lab))
    want = expect[name][endpoint]
    return Request(endpoint, json.dumps({"spec": text}).encode(),
                   want["ok"], want["codes"])


def mc_spec(rng):
    """(kind, spec text) of one Monte Carlo structure, from a grid."""
    kind = rng.choice(sorted(MC_TRIALS))
    alpha = rng.choice((9, 9.5, 10, 10.5, 11))
    beta = rng.choice((10, 11, 12, 13, 14))
    if kind == "solver_bank":
        shape = "kind = parallel\nn = 105\nk = 11\n"
    elif kind == "paper_defaults":
        shape = "kind = parallel\nn = 1000\nk = 100\n"
    else:
        shape = "kind = series\nn = %d\n" % rng.choice((4, 8, 16, 24, 32))
    return kind, "[structure]\n%salpha = %g\nbeta = %g\n" % (shape, alpha,
                                                             beta)


def mc_request(rng):
    """One /v1/mc/run request; its bracket is filled in by the caller."""
    kind, spec = mc_spec(rng)
    trials = MC_TRIALS[kind]
    seed = rng.getrandbits(32)
    body = json.dumps({"spec": spec, "trials": trials, "seed": seed,
                       "threads": 1}).encode()
    return Request("mc", body, spec=spec, trials=trials)


def twinned(make, count, rng, block=16):
    """``count`` requests where every distinct one appears twice.

    Requests come in blocks: ``block`` fresh ones, then the same block
    shuffled, so the two copies of a request are at most 2*block apart.
    """
    out = []
    while len(out) < count:
        fresh = [make() for _ in range(block)]
        again = list(fresh)
        rng.shuffle(again)
        out.extend(fresh)
        out.extend(again)
    return out[:count]


def poisson_schedule(rng, rate, seconds):
    """Due times (s from window start) of an open loop at ``rate``/s."""
    due, t = [], rng.expovariate(rate)
    while t < seconds:
        due.append(t)
        t += rng.expovariate(rate)
    return due


def check(req, status, body):
    """None if the response is what the request promises, else why not."""
    if status != 200:
        return "status %d" % status
    try:
        env = json.loads(body)
    except ValueError:
        return "body is not JSON"
    if not isinstance(env, dict) or env.get("schema") != API_SCHEMA:
        return "not a %s envelope" % API_SCHEMA
    if not all(k in env for k in ("ok", "diagnostics", "result")):
        return "envelope lacks ok/diagnostics/result"
    if env["ok"] is not req.expect_ok:
        return "ok=%s, expected %s" % (env["ok"], req.expect_ok)
    codes = {d.get("code") for d in env["diagnostics"]
             if d.get("severity") in ("error", "warning")}
    if codes != req.expect_codes:
        return "codes %s, expected %s" % (sorted(codes),
                                          sorted(req.expect_codes))
    result = env["result"]
    if req.endpoint == "healthz":
        return None if result.get("status") == "serving" else "not serving"
    if req.endpoint == "solve" and not result.get("feasible"):
        return "solve infeasible"
    if req.endpoint == "mc":
        return _check_mc(req, result)
    return None


def _check_mc(req, result):
    structures = result.get("structures") or []
    if len(structures) != 1 or result.get("interrupted"):
        return "mc result incomplete"
    s = structures[0]
    if s.get("trials") != req.trials or s.get("interrupted"):
        return "mc ran %s of %d trials" % (s.get("trials"), req.trials)
    lo, hi = req.bracket
    variance = s["stddev_accesses"] ** 2 + 1.0 / req.trials
    widen = MC_Z * math.sqrt(variance / req.trials)
    if not lo - widen <= s["mean_accesses"] <= hi + widen:
        return "mc mean %.6g outside certified [%.6g, %.6g] +- %.3g" % (
            s["mean_accesses"], lo, hi, widen)
    return None

