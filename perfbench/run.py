"""gwa benchmark: one seeded workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src).  Workloads:
verify_annv, verify_modules, products, ideals (see perfbench/README.md).

The process sets up (imports gwa, builds its inputs), runs a cold first pass,
then warm passes while the next one still fits in S seconds of measured pass
time; at least two warm passes always run, so that how many passes fit does
not flip with small changes in machine speed.  Every output is checked after its
pass, outside the timed region.  Five fresh child processes, each with its own
PYTHONHASHSEED, repeat the set-up: their median is `setup_s`, and each must
produce the same input digest as this process.

With --trace 0 the last stdout line reports the end-to-end metrics.  With
--trace 1 each pass runs twice, untraced and traced, the last line reports the
per-layer metrics, and the spans are written to .perfbench_out/.  The line
before the last is a JSON object with sample counts, failures and the Python
version.
"""

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PROBES = 5


def _import_gwa() -> float:
    """Import gwa from this checkout's src/; returns the import time."""
    if not os.path.isfile(os.path.join(SRC, "gwa", "__init__.py")):
        sys.exit(f"perfbench: no gwa package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import gwa.cli
    elapsed = time.perf_counter() - t
    if not os.path.abspath(gwa.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported gwa from {gwa.cli.__file__}, not from {SRC}")
    return elapsed


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args):
    import_s = _import_gwa()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    return workload, workload.items(0), import_s


def run_pass(workload, items, tracer=None):
    """Run every item; returns (pass seconds, per-item seconds, outputs)."""
    clock = time.perf_counter
    latencies, outputs = [], []
    t_pass = clock()
    for i, item in enumerate(items):
        t = clock()
        try:
            out = tracer.run_item(i, workload.run, item) if tracer else workload.run(item)
        except Exception as exc:    # an item's failure is reported, not fatal
            out = exc
        latencies.append(clock() - t)
        outputs.append(out)
    return clock() - t_pass, latencies, outputs


def check_pass(workload, items, outputs) -> list:
    failures = []
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            reason = "".join(traceback.format_exception_only(type(out), out)).strip()
        else:
            try:
                reason = workload.check(item, out)
            except Exception as exc:
                reason = "check raised " + "".join(
                    traceback.format_exception_only(type(exc), exc)).strip()
        if reason:
            failures.append(f"{workload.describe(item)[:160]}: {reason[:300]}")
    return failures


def _pass_record(workload, items, result, traced=False, spans=None):
    pass_s, latencies, outputs = result
    return {"pass_s": pass_s, "latencies": latencies, "traced": traced, "spans": spans,
            "attempted": len(items), "failures": check_pass(workload, items, outputs),
            "claims": workload.claim_counts(outputs) if traced else None}


def measure(workload, items, seconds):
    """Cold pass, then warm passes while the next one fits in `seconds`.

    Returns the passes and the peak RSS in MB after the first warm pass: a
    fixed amount of work, so a faster program that fits more passes in the
    run is not charged for the caches those extra passes fill."""
    passes = []
    measured = 0.0
    k = 0
    while True:
        passes.append(_pass_record(workload, items, run_pass(workload, items)))
        measured += passes[-1]["pass_s"]
        if k == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if k >= 2 and measured + passes[-1]["pass_s"] > seconds:
            return passes, peak_rss_mb
        k += 1
        items = workload.items(k)


def measure_traced(workload, items, seconds):
    """Each pass's items run twice, untraced and traced, in alternating order
    (the first pair untraced first), while the next pair fits in `seconds`."""
    from spans import Tracer

    tracer = Tracer()
    passes = []
    measured = 0.0
    k = 0
    while True:
        pair_s = 0.0
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                lo = len(tracer.start)
                tracer.install()
                try:
                    result = run_pass(workload, items, tracer)
                finally:
                    tracer.uninstall()
                passes.append(_pass_record(workload, items, result, True, (lo, len(tracer.start))))
            else:
                passes.append(_pass_record(workload, items, run_pass(workload, items)))
            pair_s += passes[-1]["pass_s"]
        measured += pair_s
        if measured + pair_s > seconds:
            return passes, tracer
        k += 1
        items = workload.items(k)


def probe_setups(args) -> dict:
    """Repeat the set-up in fresh processes with distinct PYTHONHASHSEEDs."""
    setups, imports, digests = [], [], []
    cmd = [sys.executable, os.path.abspath(__file__), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for i in range(PROBES):
        env = dict(os.environ, PYTHONHASHSEED=str(i + 1))
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        t = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(report["ready"] - t)
        imports.append(report["import_s"])
        digests.append(report["digest"])
    return {"setup_s": setups, "import_s": imports, "digests": digests}


def block_rates(passes, blocks):
    """Items per second of every block of the given passes."""
    rates = []
    for p in passes:
        size = len(p["latencies"]) // blocks
        for b in range(blocks):
            rates.append(size / sum(p["latencies"][b * size:(b + 1) * size]))
    return rates


def main(argv=None):
    args = parse_args(argv)
    workload, items, import_s = setup(args)
    if args.probe:
        ready = time.perf_counter()
        print(json.dumps({"ready": ready, "import_s": import_s, "digest": workload.digest()}))
        return 0

    if args.trace:
        passes, tracer = measure_traced(workload, items, args.seconds)
    else:
        passes, peak_rss_mb = measure(workload, items, args.seconds)
    digest = workload.digest()
    probes = probe_setups(args)

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    digests_agree = all(d == digest for d in probes["digests"])
    correct = not failures and digests_agree
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "passes": len(passes),
        "items_per_pass": [p["attempted"] for p in passes],
        "pass_s": [p["pass_s"] for p in passes],
        "error_rate": len(failures) / attempted,
        "blocks_per_pass": workload.BLOCKS,
        "failures": failures[:20],
        "setup_samples_s": probes["setup_s"],
        "input_digest": digest, "digests_agree": digests_agree,
    }

    if args.trace:
        metrics = traced_metrics(passes, tracer, probes, args)
    else:
        warm = passes[1:]
        latencies = [x for p in passes for x in p["latencies"]]
        # p90 is meaningful only with at least 10 samples beyond it, which the
        # verify workloads do not yield, so it is reported here, not gated
        detail["latency_samples"] = len(latencies)
        detail["item_p90_ms"] = statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3
        detail["samples_beyond_p90"] = len(latencies) // 10
        metrics = {
            "setup_s": (statistics.median(probes["setup_s"]), "s"),
            "first_pass_s": (passes[0]["pass_s"], "s"),
            "items_per_s": (statistics.median(block_rates(warm, workload.BLOCKS)), "1/s"),
            "item_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_metrics(passes, tracer, probes, args) -> dict:
    import spans

    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    # both runs of a pass see the same items; alternating which goes first
    # cancels, in the geometric mean, what the second run gains from warm caches
    ratios = [t["pass_s"] / u["pass_s"] for t, u in zip(traced, untraced)]
    overhead = math.exp(sum(map(math.log, ratios)) / len(ratios))
    claims = tuple(sum(p["claims"][i] for p in traced) for i in (0, 1))
    report = spans.layer_report(tracer, [p["spans"] for p in traced],
                                sum(p["pass_s"] for p in traced), overhead, claims)
    rng = random.Random(args.seed * 2 ** 32 + zlib.crc32(b"field-kernels"))
    report.update(spans.field_kernels(rng))
    report["cli.import_s"] = statistics.median(probes["import_s"])
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    return {k: (v, _unit(k)) for k, v in report.items()}


def _unit(metric: str) -> str:
    if "_us." in metric:
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("ratio", "share", "per_membership")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
