"""One fresh interpreter of the benchmark; started by run.py, never by hand.

Modes:
  setup    build the workload's inputs and warm the enumeration, print READY
  measure  setup, READY, then the timed passes; prints one JSON line
  trace    setup, install the tracer, one pass; prints one JSON line
  probe    per-layer microbenches on operands drawn from the inputs
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "funcfields", "__init__.py")):
    sys.exit("perfbench: no funcfields sources under %s" % SRC)
sys.path.insert(0, SRC)

import funcfields as ff  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

CHILD_TIMEOUT = 170
MIN_PASSES = 3
# On a host shared with other load, a core's speed moves by up to a half
# over seconds to minutes, and every op moves with it.  A fixed loop of
# benchmark code, timed after every op, samples the same moments, so every
# time is reported as measured * REF_NOMINAL_S / (the loop's mean time in
# the same worker): seconds on a machine where the loop takes REF_NOMINAL_S.
# The loop touches nothing of the program, so a change to the program
# cannot move it.
REF_ITERATIONS = 15000
REF_NOMINAL_S = 1e-3
CALIBRATION_CHUNKS = 250  # timed right after set-up, for setup_s
CLI_TRACE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "clitrace.py")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def child_env():
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def reference_chunk():
    """Seconds one run of the reference loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += (i * 31337) % 97
    return time.perf_counter() - t0


def speed_factor(chunk_times):
    """What a time measured beside these reference runs is multiplied by."""
    return REF_NOMINAL_S / statistics.fmean(chunk_times)


def calibrate():
    return speed_factor([reference_chunk() for _ in range(CALIBRATION_CHUNKS)])


def setup(workload, seed):
    """(models, items, info): models feed the probes, items are the ops of one pass."""
    info = {}
    if workload in wl.ZETA or workload in wl.ZETA_GROUPS:
        models = [m for name in wl.ZETA_GROUPS.get(workload, (workload,))
                  for m in wl.zeta_models(name, wl.ZETA[name], seed, info)]
        wl.warm(models)
        items = models
    elif workload == "ledger":
        models = items = wl.ledger_models(seed, info)
    else:
        models = []
        items = wl.cli_invocations(seed, info, models)
    qg = {}
    for m in models:
        if m.genus:
            qg[m.q ** m.genus] = qg.get(m.q ** m.genus, 0) + 1
    info["q^g"] = {str(k): v for k, v in sorted(qg.items())}
    return models, items, info


class Runner:
    """Runs ops, times them, and checks each one outside its timed region."""

    def __init__(self, workload, seed, tracer=None, stats_dir=None):
        self.workload = workload
        self.tracer = tracer
        self.stats_dir = stats_dir
        self.expected = {}
        if seed == wl.DEFAULT_SEED and os.path.exists(DIGESTS):
            with open(DIGESTS) as fh:
                self.expected = json.load(fh).get(workload, {})
        self.counts = {"decided": 0, "undecided": 0, "failed": 0, "wrong": 0}
        self.failures = []
        self.digests = {}
        self.latencies = []
        self.factor = 1.0
        self.passes = 0
        self.child_stats = []

    def run(self, items, seconds):
        """Time every op; return the summed time of the first runs, scaled.

        The first pass runs and checks every op.  Then the ops whose first
        run took at most seconds / ops (all of them, but for the heaviest
        cli-cold invocations) run again, pass after pass, until seconds have
        gone by since the first pass began (the last pass stops there),
        MIN_PASSES passes at least.  An op's latency is the mean of its runs
        after the first (the first, if it has no other), times the speed
        factor of the reference loop run after every op.  Passes spread each
        op's runs over the whole run.
        """
        start = time.perf_counter()
        first, runs, ref = 0.0, [], []
        for i, item in enumerate(items):
            if self.tracer is not None:
                self.tracer.op_id = i
            wl.clear_model_caches()
            dt, key, status, result, fails = self._op(i, item)
            ref.append(reference_chunk())
            first += dt
            runs.append([dt])
            if status != "failed" and not fails:
                d = checks.digest(result)
                want = self.expected.get(key)
                if want is not None and want != d:
                    fails.append("digest mismatch")
                self.digests[key] = d
            if fails:
                status = "wrong" if status != "failed" else status
                self.failures.append("%s: %s" % (key, "; ".join(fails)))
            self.counts[status] += 1
        rerun = [i for i, r in enumerate(runs) if r[0] * len(items) <= seconds]
        self.passes = 1
        while rerun and (self.passes < MIN_PASSES or time.perf_counter() - start < seconds):
            for i in rerun:
                if self.passes >= MIN_PASSES and time.perf_counter() - start >= seconds:
                    break  # the last pass may end early; latencies are means
                wl.clear_model_caches()
                runs[i].append(self._op(i, items[i], checked=False)[0])
                ref.append(reference_chunk())
            self.passes += 1
        self.factor = speed_factor(ref)
        self.latencies = [statistics.fmean(r[1:] or r) * self.factor for r in runs]
        return first * self.factor

    def _op(self, index, item, checked=True):
        if self.workload == "cli-cold":
            return self._cli_op(index, item)
        return self._model_op(item, checked)

    def _model_op(self, model, checked=True):
        op = wl.ledger_op if self.workload == "ledger" else wl.zeta_op
        key = model.key()
        t0 = time.perf_counter()
        try:
            out = op(self.tracer, model)
        except wl.DOCUMENTED as exc:
            dt = time.perf_counter() - t0
            return dt, key, "undecided", checks.undecided_result(exc), []
        except Exception as exc:  # every other exception is a failed op, recorded
            dt = time.perf_counter() - t0
            return dt, key, "failed", None, ["%s: %s" % (type(exc).__name__, exc)]
        dt = time.perf_counter() - t0
        if not checked:
            return dt, key, "decided", None, []
        if self.tracer is not None:
            self.tracer.paused += 1
        try:
            if self.workload == "ledger":
                result, fails = checks.ledger_check(key, *out[1:])
            else:
                result, fails = checks.zeta_check(key, model.q, *out[1:])
        finally:
            if self.tracer is not None:
                self.tracer.paused -= 1
        return dt, key, "decided", result, fails

    def _cli_op(self, index, item):
        argv, expect = item
        if self.stats_dir is None:
            cmd = [sys.executable, "-m", "funcfields.cli"] + argv
        else:
            path = os.path.join(self.stats_dir, "cli-%d.json" % index)
            cmd = [sys.executable, CLI_TRACE, path] + argv
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        dt = time.perf_counter() - t0
        if self.stats_dir is not None and os.path.exists(path):
            with open(path) as fh:
                self.child_stats.append(json.load(fh))
            os.remove(path)
        key = " ".join(argv)
        fails = checks.cli_check(argv, expect, proc.returncode, proc.stdout, proc.stderr)
        result = {"exit": proc.returncode, "stdout": proc.stdout}
        if proc.returncode not in checks.DOCUMENTED_EXITS or "Traceback" in proc.stderr:
            return dt, key, "failed", None, fails
        status = "decided" if proc.returncode == 0 else "undecided"
        return dt, key, status, result, fails


def measure(args):
    models, items, info = setup(args.workload, args.seed)
    print("READY", flush=True)
    setup_factor = calibrate()
    runner = Runner(args.workload, args.seed)
    first = runner.run(items, args.seconds)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    emit({
        "info": info,
        "first_seconds": first,
        "latencies": runner.latencies,
        "factor": runner.factor,
        "setup_factor": setup_factor,
        "passes": runner.passes,
        "counts": runner.counts,
        "failures": runner.failures,
        "digests": runner.digests,
        "maxrss_kb": child_rss if args.workload == "cli-cold" else self_rss,
    })


def trace(args):
    models, items, info = setup(args.workload, args.seed)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    stats_dir = os.path.dirname(os.path.abspath(args.spans_out))
    runner = Runner(args.workload, args.seed, tracer, stats_dir if args.workload == "cli-cold" else None)
    seconds = runner.run(items, 0)
    stats = {k: [s.calls, s.total_s, s.self_s, s.hits] for k, s in tracer.stats.items()}
    spans = tracer.spans
    for i, child in enumerate(runner.child_stats):
        for k, v in child["stats"].items():
            acc = stats.setdefault(k, [0, 0.0, 0.0, 0])
            for j in range(4):
                acc[j] += v[j]
        spans.extend([s[0], s[1], i] + s[3:] for s in child["spans"])
    with open(args.spans_out, "w") as fh:
        json.dump({"fields": ["id", "parent", "op", "name", "start", "end", "classes"], "spans": spans}, fh)
    emit({"info": info, "first_seconds": seconds, "counts": runner.counts, "failures": runner.failures,
          "stats": stats})


# ---------------------------------------------------------------------------
# per-layer microbenches
# ---------------------------------------------------------------------------

PROBE_REPEATS = 5
CLI_REPEATS = 3


def _median_rate(fn, pairs, scale):
    """Median over repeats of seconds per call times scale."""
    rates = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        rates.append((time.perf_counter() - t0) / len(pairs) * scale)
    return sorted(rates)[len(rates) // 2]


def _operands(models, q, n):
    """n nonzero elements of GF(q) taken from the inputs' coefficients (by encoding)."""
    pool = [c % q for m in models for cs in m.coeffs for c in cs if c % q]
    pool = pool or [1]
    return [pool[i % len(pool)] for i in range(n)]


def probe(args):
    out = {}
    F11 = ff.GF(11)
    t0 = time.perf_counter()
    places = ff.monic_irreducibles(F11, 4)  # first call in a fresh interpreter: cold
    out["poly.monic_irreducibles_cold_s.q11d4"] = time.perf_counter() - t0
    models, _, _ = setup(args.workload, args.seed)
    for label, (p, k) in (("q8", (2, 3)), ("q9", (3, 2)), ("q11", (11, 1))):
        F = ff.GF(p, k)
        ops = _operands(models, F.q, 2000)
        pairs = list(zip(ops, ops[1:] + ops[:1])) * 10
        out["fq.mul_ns.%s" % label] = _median_rate(F.mul, pairs, 1e9)
    P = places[len(places) // 2]
    K = ff.FinitePlace(P).residue_field
    elems = []
    for m in models:
        for cs in m.coeffs:
            e = K.embed(ff.FqPoly(F11, [c % 11 for c in cs]))
            if not K.is_zero(e) and e not in elems:
                elems.append(e)
    while len(elems) < 200:  # products of input residues until the pool is large enough
        e = K.mul(elems[len(elems) - 1], elems[len(elems) // 2])
        elems.append(e if not K.is_zero(e) else K.one)
    pairs = list(zip(elems, elems[1:] + elems[:1])) * 20
    out["poly.residue_mul_ns.d4"] = _median_rate(K.mul, pairs, 1e9)
    distinct = list(dict.fromkeys(elems))
    t0 = time.perf_counter()
    for e in distinct:
        K.inv(e)
    out["poly.residue_inv_ns.d4"] = (time.perf_counter() - t0) / len(distinct) * 1e9
    from funcfields.poly import gp_pow_mod

    x = [K.zero, K.one]
    reds = [[elems[i], K.neg(elems[i + 1]), K.zero, K.one] for i in range(0, 40, 2)]
    out["poly.gp_pow_mod_us.d4"] = _median_rate(lambda r, _: gp_pow_mod(K, x, K.order, r), [(r, None) for r in reds], 1e6)
    env = child_env()
    imports = []
    for _ in range(PROBE_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", "import time; t = time.perf_counter(); import funcfields.cli; "
             "print(time.perf_counter() - t)"],
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
        imports.append(float(proc.stdout))
    out["cli.import_s"] = sorted(imports)[len(imports) // 2]
    # one cheap pinned invocation per subcommand, in fresh interpreters;
    # the units one once more under the tracer, for the unit construction
    for argv in wl.cli_probe_rows():
        runs = []
        for _ in range(CLI_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-m", "funcfields.cli"] + argv, env=env, capture_output=True,
                           timeout=CHILD_TIMEOUT)
            runs.append(time.perf_counter() - t0)
        out["cli.%s.wall_s" % argv[0]] = sorted(runs)[len(runs) // 2]
        if argv[0] == "units":
            path = os.path.join(args.out_dir, "probe-units.json")
            subprocess.run([sys.executable, CLI_TRACE, path] + argv, env=env, capture_output=True,
                           timeout=CHILD_TIMEOUT)
            with open(path) as fh:
                out["units.construct.self_s"] = json.load(fh)["stats"].get("units.construct", [0, 0, 0.0])[2]
            os.remove(path)
    emit({"probe": out})


def emit(payload):
    print(json.dumps(payload), flush=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure", "trace", "probe"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--spans-out")
    ap.add_argument("--out-dir")
    args = ap.parse_args()
    if args.mode == "setup":
        setup(args.workload, args.seed)
        print("READY", flush=True)
        emit({"setup_factor": calibrate()})
    elif args.mode == "measure":
        measure(args)
    elif args.mode == "trace":
        trace(args)
    else:
        probe(args)


if __name__ == "__main__":
    main()
