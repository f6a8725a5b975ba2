"""funcfields benchmark.

    python3 perfbench/run.py --workload zeta --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all          # zeta, ledger and cli-cold, one table each

Every workload runs in fresh interpreters (worker.py), so no cache of the
program carries over from one run to the next.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it reports the per-layer
metrics from two traced passes (whose call counts must agree exactly) and
the microbench probes.  The last line of stdout is one JSON object.
"""

import argparse
import compileall
import json
import math
import os
import selectors
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
ALL = ("zeta", "ledger", "cli-cold")  # --workload all
WORKLOADS = ALL + ("zeta-prime", "zeta-extension")  # the two halves of zeta, by hand
DEFAULT_SEED = 1  # same as workloads.DEFAULT_SEED; run.py does not import the program
SETUP_SAMPLES = 3  # setup_s is the median of this many fresh set-ups
DEADLINE_S = 175  # every child still running past this is killed and the run fails
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("decided_ratio", "ratio"),
)
METHODS = ("Kummer", "DegreeCase", "TransformChain", "Biquadratic", "Char2Iteration", "Char3Iteration", "Unknown")
SUBCOMMANDS = ("analyze", "places", "basis", "units", "hbound", "hexact", "certify", "search-divisor")
PROBES = (
    ("fq.mul_ns.q8", "ns"), ("fq.mul_ns.q9", "ns"), ("fq.mul_ns.q11", "ns"),
    ("poly.residue_mul_ns.d4", "ns"), ("poly.residue_inv_ns.d4", "ns"), ("poly.gp_pow_mod_us.d4", "us"),
    ("poly.monic_irreducibles_cold_s.q11d4", "s"), ("cli.import_s", "s"), ("units.construct.self_s", "s"),
) + tuple(("cli.%s.wall_s" % c, "s") for c in SUBCOMMANDS)
SELF_TIMED = (
    "poly.gp_pow_mod", "poly.monic_irreducibles", "poly.residue_field", "poly.factorize", "models.construct",
    "models.minimal_polynomial_fq", "signature.signature_at", "signature.kummer_signature",
    "invariants.field_discriminant", "invariants.genus", "integral_basis.build", "integral_basis.verify_basis",
    "class_number.exact_h", "class_number.estimate_h",
) + tuple("signature.degree.d%d" % d for d in range(1, 5)) + tuple("signature.method.%s" % m for m in METHODS)
COUNTED = (
    "poly.gp_pow_mod", "poly.factorize", "models.minimal_polynomial_fq", "signature.signature_at",
) + tuple("signature.degree.d%d" % d for d in range(1, 5)) + tuple("signature.method.%s" % m for m in METHODS)


class RunFailed(Exception):
    pass


def child_env():
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


def run_child(mode, args, deadline, extra=()):
    """Run one worker; return (seconds until it printed READY or None, its JSON payload)."""
    cmd = [sys.executable, WORKER, mode, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + list(extra)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    ready, buf, lines = None, b"", []
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RunFailed("%s worker passed the deadline" % mode)
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                *done, buf = buf.split(b"\n")
                for line in done:
                    if line == b"READY" and ready is None:
                        ready = time.perf_counter() - t0
                    elif line:
                        lines.append(line)
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not lines:
        raise RunFailed("%s worker exited with %s" % (mode, proc.returncode))
    return ready, json.loads(lines[-1])


def tail(latencies):
    """(percentile, value): the highest listed percentile with at least ten ops beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= 10 or p == TAIL_PERCENTILES[-1]:
            return p, xs[max(0, math.ceil(p / 100 * n) - 1)]


def end_to_end(args, deadline):
    if args.record_digests:
        store_digests(args.workload, {})  # recorded afresh, not checked against the old ones
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        ready, res = run_child("setup", args, deadline)
        setups.append(ready * res["setup_factor"])
    ready, res = run_child("measure", args, deadline)
    setups.append(ready * res["setup_factor"])
    lat = res["latencies"]
    counts = res["counts"]
    attempted = sum(counts.values())
    pct, tail_value = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "peak_rss_mb": res["maxrss_kb"] / 1024,
        "decided_ratio": counts["decided"] / attempted,
    }
    notes = [
        "ops: %d attempted, %d decided, %d refused or Unknown, %d failed (%d with wrong output)"
        % (attempted, counts["decided"], counts["undecided"], counts["failed"] + counts["wrong"], counts["wrong"]),
        "error_rate: %.4f ratio" % ((counts["failed"] + counts["wrong"]) / attempted),
        "op_tail_s is p%s of %d ops; %d passes; speed factor %.3f (set-up %.3f)"
        % (pct, len(lat), res["passes"], res["factor"], res["setup_factor"]),
        "q^g of the models: %s" % res["info"]["q^g"],
    ] + ["failed op: %s" % f for f in res["failures"]]
    if args.record_digests:
        store_digests(args.workload, res["digests"])
    units = dict(END_TO_END)
    return counts, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, notes


def store_digests(workload, digests):
    """Replace the workload's digests; failed ops never have one."""
    table = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS) as fh:
            table = json.load(fh)
    table[workload] = dict(sorted(digests.items()))
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def per_layer(args, deadline):
    os.makedirs(OUT, exist_ok=True)
    base_args = argparse.Namespace(**dict(vars(args), seconds=0))  # every op once, as traced
    _, base = run_child("measure", base_args, deadline)
    traced = []
    for i in (1, 2):
        spans = os.path.join(OUT, "spans-%s-seed%d-%d.json" % (args.workload, args.seed, i))
        traced.append(run_child("trace", args, deadline, ["--spans-out", spans])[1])
    _, probe = run_child("probe", args, deadline, ["--out-dir", OUT])
    stats = traced[0]["stats"]
    notes = []
    call_counts = [{k: (v[0], v[3]) for k, v in t["stats"].items()} for t in traced]
    repeat_ok = call_counts[0] == call_counts[1]
    if not repeat_ok:
        diff = sorted(k for k in set(call_counts[0]) | set(call_counts[1])
                      if call_counts[0].get(k) != call_counts[1].get(k))
        notes.append("call counts differ between the two traced passes: %s" % ", ".join(diff))

    def st(name, i):
        return stats.get(name, (0, 0.0, 0.0, 0))[i]

    metrics = {}
    for name, unit in PROBES:
        metrics[name] = (probe["probe"][name], unit)
    for name in SELF_TIMED:
        metrics[name + ".self_s"] = (st(name, 2), "s")
    for name in COUNTED:
        metrics[name + ".calls"] = (st(name, 0), "count")
    for name in ("poly.monic_irreducibles", "poly.residue_field"):
        metrics[name + ".hit_ratio"] = (st(name, 3) / st(name, 0) if st(name, 0) else 0.0, "ratio")
    places = st("signature.signature_at", 0)
    metrics["signature.places_per_s"] = (places / st("signature.signature_at", 1) if places else 0.0, "1/s")
    metrics["signature.unramified_share"] = (st("signature.unramified", 0) / places if places else 0.0, "ratio")
    metrics["signature.unknown_ratio"] = (st("signature.method.Unknown", 0) / places if places else 0.0, "ratio")
    counts = traced[0]["counts"]
    attempted = sum(counts.values())
    metrics["ops.error_rate"] = ((counts["failed"] + counts["wrong"]) / attempted, "ratio")
    metrics["trace.overhead_ratio"] = (traced[0]["first_seconds"] / base["first_seconds"], "ratio")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "counts": counts,
        "inputs": traced[0]["info"],
        "places_by_degree": {"d%d" % d: st("signature.degree.d%d" % d, 0) for d in range(1, 5)},
        "places_by_method": {m: st("signature.method.%s" % m, 0) for m in METHODS},
        "call_counts_repeat": repeat_ok,
        "per_layer": {k: v for k, (v, _) in sorted(metrics.items())},
        "stats": stats,
    }
    with open(os.path.join(OUT, "%s-seed%d-trace.json" % (args.workload, args.seed)), "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    notes.append("places by degree: %s" % report["places_by_degree"])
    notes.append("places by method: %s" % report["places_by_method"])
    counts = dict(counts)
    if not repeat_ok:
        counts["wrong"] += 1
    return counts, {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}, notes


def run_workload(args):
    deadline = time.monotonic() + DEADLINE_S
    counts, metrics, notes = (per_layer if args.trace else end_to_end)(args, deadline)
    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    for line in notes:
        print(line)
    return {
        "correct": counts["wrong"] == 0,
        "attempted": sum(counts.values()),
        "failed": counts["failed"] + counts["wrong"],
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="store the digests of this run's passing ops (default seed only)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "funcfields", "__init__.py")):
        sys.exit("perfbench: no funcfields sources under %s" % SRC)
    if args.record_digests and args.seed != DEFAULT_SEED:
        sys.exit("perfbench: digests are recorded for the default seed %d only" % DEFAULT_SEED)
    compileall.compile_dir(SRC, quiet=1)  # so the first run's interpreters do not compile
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    names = ALL if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            args.workload = name
            print("== %s (seed %d)" % (name, args.seed))
            result = run_workload(args)
            print(json.dumps(result), flush=True)
    except RunFailed as exc:
        sys.exit("perfbench: %s" % exc)


if __name__ == "__main__":
    main()
