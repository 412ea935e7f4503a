#!/usr/bin/env python3
"""smilab benchmark: one workload, measured for a fixed time, from a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds smilab and the perfbench runner from the checkout's sources (first
run only; later runs find the build up to date), then runs passes of the
workload until --seconds are used (serve_mixed: three segments, each with a
fresh daemon). Every pass is a fresh runner process:
calibrate_nas_knob and the Convolve cache measurements memoize in
process-wide statics, so a second pass inside one process would time a warm
memo that no CLI user sees. The driver refuses a run whose passes did not
each report their own process id.

The seed picks one of VARIANTS pinned input variants (simulation seeds and
the serve request mix). Every output the workload produces is hashed by the
runner and checked against perfbench/references.json, recorded from the
seed commit; a mismatch fails the cells it covers.

Prints a human-readable report, then as its last line one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer
metrics. A traced run alternates traced and untraced passes; the
difference is reported as trace.overhead_pct and the spans are written to
.bench_build/perfbench/traces/.

Maintenance: --write-references re-records the reference hashes (only on
the commit that defines them).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNNER = BUILD_DIR / "perfbench_runner"
SMILAB = BUILD_DIR / "smilab"
REFERENCES = BENCH_DIR / "references.json"

WORKLOADS = ("paper_tables", "ring_scale", "htt_figures", "serve_mixed")
VARIANTS = 8
SERVE_SEGMENTS = 3      # serve_mixed: daemon start + window, three times
PASS_TIMEOUT_S = 150
BUILD_JOBS = "3"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure and build into .bench_build/perfbench; quiet unless it fails."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"smilab sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (log: .bench_build/perfbench/build.log)")


def run_pass(workload, variant, trace, window_s):
    """One pass in a fresh process. Returns its report, or None if it died."""
    cmd = [str(RUNNER), f"--workload={workload}", f"--variant={variant}"]
    if trace:
        cmd.append("--trace")
    if workload == "serve_mixed":
        cmd += [f"--smilab={SMILAB}", f"--window={window_s}"]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {workload} pass timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        return None
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["first_call"] - spawned
    report["traced"] = trace
    return report


def percentile(values, p):
    """Linear interpolation between closest ranks (p in [0, 100])."""
    v = sorted(values)
    if not v:
        return 0.0
    rank = p / 100 * (len(v) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (rank - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def check_hashes(report, expected):
    """Failed cells of one pass: reported hashes that differ from the pins."""
    failed = 0
    mismatches = []
    for key, hexval, cells in report["hashes"]:
        if expected.get(key) != hexval:
            failed += cells
            mismatches.append(key)
    return failed, mismatches


def layer_metrics(report, names):
    """The per_layer metrics `names` of one traced pass: a "<span>_s" metric
    is the self time of the spans of that name, the sweep and trace metrics
    come from the span tree, the rest are the runner's counters (0 when the
    workload does not call the layer)."""
    busy, idle = report["sweep"]["busy_s"], report["sweep"]["idle_s"]
    derived = {
        "core.sweep.busy_s": busy,
        "core.sweep.idle_s": idle,
        "core.sweep.parallel_eff": busy / (busy + idle) if busy + idle > 0 else 0.0,
        "trace.spans": float(len(report["spans"])),
    }
    metrics = {}
    for name in names:
        if name in derived:
            metrics[name] = derived[name]
        elif name.endswith("_s"):
            metrics[name] = report["self_s"].get(name[:-2], 0.0)
        else:
            metrics[name] = report["counters"].get(name, 0.0)
    return metrics


def pass_rate(report):
    return report["cells"] / report["wall_s"] if report["wall_s"] > 0 else 0.0


def measure(workload, variant, seconds, trace):
    """Run passes until `seconds` are used; returns the pass reports and the
    number of passes whose process failed."""
    serve = workload == "serve_mixed"
    segments = SERVE_SEGMENTS if seconds >= 3 else 1
    window_s = 0.9 * seconds / segments if serve else 0.0
    passes, dead, durations = [], 0, []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if serve:
            if len(durations) == segments:
                break
        elif durations and elapsed + median(durations) > seconds:
            break
        # A traced run alternates traced and untraced passes, traced first.
        traced = trace and (len(passes) + dead) % 2 == 0
        began = time.monotonic()
        report = run_pass(workload, variant, traced, window_s)
        durations.append(time.monotonic() - began)
        if report is None:
            dead += 1
        else:
            passes.append(report)
    return passes, dead


def write_trace(workload, seed, passes):
    """Spans of the traced passes, written once the run has ended."""
    out_dir = BUILD_DIR / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{workload}-seed{seed}.json"
    doc = {"workload": workload, "seed": seed, "passes": [
        {"pid": p["pid"], "spans": [
            {"name": n, "id": i, "parent": par, "request": rid,
             "start_s": s, "end_s": e}
            for n, i, par, rid, s, e in p["spans"]]}
        for p in passes if p["traced"]]}
    path.write_text(json.dumps(doc))
    return path.relative_to(ROOT)


def write_references():
    refs = {"variants": VARIANTS}
    for workload in WORKLOADS:
        refs[workload] = {}
        for variant in range(VARIANTS):
            report = run_pass(workload, variant, False, 2.0)
            if report is None or report["failed"]:
                fail(f"{workload} variant {variant} failed; references not written")
            refs[workload][str(variant)] = {k: h for k, h, _ in report["hashes"]}
            print(f"{workload} variant {variant}: {len(report['hashes'])} hashes")
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", type=Path, default=REFERENCES,
                        help="pinned output hashes to check against")
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    if args.write_references:
        write_references()
        return
    if args.workload is None:
        parser.error("--workload is required")

    variant = args.seed % VARIANTS
    expected = json.loads(args.references.read_text())[args.workload].get(str(variant), {})
    passes, dead = measure(args.workload, variant, args.seconds, bool(args.trace))

    if not passes:
        fail(f"every {args.workload} pass failed; nothing was measured")
    pids = [p["pid"] for p in passes]
    if len(set(pids)) != len(pids):
        fail("passes shared a process; every pass must start a fresh one")

    attempted = dead + sum(p["attempted"] for p in passes)
    failed = dead + sum(p["failed"] for p in passes)
    mismatched = set()
    for p in passes:
        bad, keys = check_hashes(p, expected)
        failed += bad
        mismatched.update(keys)
    attempted = max(attempted, 1)

    untraced = [p for p in passes if not p["traced"]] or passes
    if args.workload == "serve_mixed":
        # Each segment's quantiles (>= 10 samples beyond p99 at 25 s),
        # median over the segments: one segment on a disturbed host cannot
        # set the run's figure.
        samples = min(len(p["cell_ms"]) for p in untraced)
        p50 = median([percentile(p["cell_ms"], 50) for p in untraced])
        p99 = median([percentile(p["cell_ms"], 99) for p in untraced])
    else:
        # Every pass runs the same grid: a cell's latency is its median over
        # the passes (one disturbed pass cannot set it), and the quantiles
        # are taken across the grid's cells.
        latencies = [median(list(c)) for c in zip(*(p["cell_ms"] for p in untraced))]
        samples = len(latencies)
        p50, p99 = percentile(latencies, 50), percentile(latencies, 99)
    e2e = {
        "setup_s": median([p["setup_s"] for p in untraced]),
        "cells_per_s": median([pass_rate(p) for p in untraced]),
        "p50_ms": p50,
        "p99_ms": p99,
        # A peak: the highest pass (which cells overlap on the two workers
        # decides a pass's high-water mark).
        "peak_rss_mb": max((p["rss_mb"] for p in untraced), default=0.0),
    }

    print(f"perfbench {args.workload}: seed {args.seed} (variant {variant}), "
          f"{len(passes)} pass(es), {dead} failed process(es), "
          f"{args.seconds:g} s budget")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in e2e.items():
        print(f"  {name:<22} {value:14.6g} {units[name]}")
    print(f"  {'latency samples':<22} {samples:14d} "
          f"(p99 resolved: {'yes' if samples >= 1000 else 'no, < 1000'})")
    print(f"  {'error_rate':<22} {failed / attempted:14.6g} "
          f"({failed} failed / {attempted} attempted)")
    extras = {
        "paper_tables": [("paper_err_pp", "pp")],
        "ring_scale": [("actions_per_s", "1/s")],
        "serve_mixed": [("goodput_rps", "1/s"), ("offered_rps", "1/s"),
                        ("latency_limit_ms", "ms"), ("gen_late_max_ms", "ms")],
    }.get(args.workload, [])
    for name, unit in extras:
        print(f"  {name:<22} {median([p['values'][name] for p in untraced]):14.6g} {unit}")
    if args.workload == "paper_tables":
        print("  (paper_err_pp: simulated time, deterministic; the other "
              "workloads have no paper reference and are unvalidated)")
    if mismatched:
        print(f"  output check FAILED for: {', '.join(sorted(mismatched))}")

    metrics = e2e
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_pct"]
        per_pass = [layer_metrics(p, names) for p in traced]
        metrics = {name: median([pp[name] for pp in per_pass]) for name in names}
        plain = [p for p in passes if not p["traced"]]
        overhead = 0.0
        if traced and plain:
            if args.workload == "serve_mixed":
                t = percentile([ms for p in traced for ms in p["cell_ms"]], 50)
                u = percentile([ms for p in plain for ms in p["cell_ms"]], 50)
                overhead = (t / u - 1) * 100 if u > 0 else 0.0
            else:
                t = median([pass_rate(p) for p in traced])
                u = median([pass_rate(p) for p in plain])
                overhead = (u / t - 1) * 100 if t > 0 else 0.0
        metrics["trace.overhead_pct"] = overhead
        for name, value in metrics.items():
            print(f"  {name:<26} {value:14.6g} {units[name]}")
        print(f"  spans written to {write_trace(args.workload, args.seed, passes)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
