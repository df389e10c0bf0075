"""Pipeline benchmark for formc: compile, assemble, solve and per-entry
kernel time, with a separate traced run for per-layer self times.

    python3 perfbench/run.py --workload poisson2d-p1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in its own process

Run it from the root of a checkout; formc is imported from that checkout's
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The exit code is 1 when a correctness check fails and 2 when the formc
sources are missing.  perfbench/README.md says what each number means.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One thread per workload process, set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_ROUNDS = 3
MIN_PASSES = 3
TRACE_PASSES = 2
# Short jobs repeat within a pass until they have run about this long.
MIN_JOB_S = 0.05


def _require_formc():
    if not os.path.isfile(os.path.join(SRC, "formc", "__init__.py")):
        print("perfbench: no formc sources under %s; run from the root of a "
              "formc checkout" % SRC, file=sys.stderr)
        sys.exit(2)


def _import_formc():
    _require_formc()
    sys.path.insert(0, SRC)
    import formc
    where = os.path.dirname(os.path.dirname(os.path.abspath(formc.__file__)))
    if where != SRC:
        print("perfbench: imported formc from %s, not %s" % (where, SRC),
              file=sys.stderr)
        sys.exit(2)


# --- passes ---------------------------------------------------------------------


def _jobs(prep, bench_jobs):
    """[(key, run)] in pass order; run() returns {sample key: seconds}."""
    clock = time.perf_counter

    def timed(key, fn, arg):
        def run():
            t0 = clock()
            fn(arg)
            return {key: clock() - t0}
        return run

    def compile_():
        t0 = clock()
        prep.compiled_c = bench_jobs.compile_job(prep)
        return {"compile": clock() - t0}

    def pipeline():
        assemble, solution = bench_jobs.run_pipeline(prep.pipeline)
        return {"assemble": assemble, "solution": solution}

    jobs = [("compile", compile_), ("pipeline", pipeline)]
    for case in prep.cases:
        for path, fn in (("tensor", bench_jobs.tensor_job),
                         ("c", bench_jobs.c_job), ("quad", bench_jobs.quad_job)):
            if path == "c" and case.kernel is None:
                continue
            key = "%s:%s" % (path, case.label)
            jobs.append((key, timed(key, fn, case)))
    return jobs


def _timed_passes(jobs, seconds, calibration, reference_s):
    """Round-robin passes over the jobs while the next pass fits in the time.

    The first pass runs each job once; later passes repeat short jobs so
    each runs about MIN_JOB_S.  Every execution is one sample.  A
    calibration is timed between every two jobs; each sample is also kept
    scaled by reference_s over the mean of the calibrations around it.
    Returns (scaled samples, raw samples, calibration seconds).
    """
    scaled, raw, cal = defaultdict(list), defaultdict(list), []
    reps = {}
    pass_times = []
    start = time.perf_counter()
    before = calibration.measure()
    while len(pass_times) < MIN_PASSES or (
            time.perf_counter() - start + sorted(pass_times)[len(pass_times) // 2]
            <= seconds):
        t0 = time.perf_counter()
        for key, run in jobs:
            got = [run() for _ in range(reps.get(key, 1))]
            after = calibration.measure()
            factor = reference_s / ((before + after) / 2)
            cal.append(after)
            before = after
            for sample in got:
                for k, v in sample.items():
                    raw[k].append(v)
                    scaled[k].append(v * factor)
        pass_times.append(time.perf_counter() - t0)
        if not reps:
            for key, _ in jobs:
                first = raw["solution" if key == "pipeline" else key][0]
                reps[key] = max(1, min(1000, int(MIN_JOB_S / max(first, 1e-9)) + 1))
    return scaled, raw, cal


# --- untraced run: end-to-end metrics ----------------------------------------------


def _case_rows(prep, samples, median):
    rows = []
    for case in prep.cases:
        entries = case.cf.block_size
        ns = lambda key, cells: median(samples[key]) / (cells * entries) * 1e9
        rows.append({
            "case": case.label, "entries": entries, "cells": case.cells,
            "quad_cells": case.quad_cells,
            "tensor_ns": ns("tensor:" + case.label, case.cells),
            "c_ns": (ns("c:" + case.label, case.cells)
                     if case.kernel is not None else None),
            "quad_ns": ns("quad:" + case.label, case.quad_cells),
        })
    return rows


def _end_to_end(rows, samples, setup_s, c_build_s, rep):
    c_ns = [r["c_ns"] for r in rows if r["c_ns"] is not None]
    metrics = {
        "setup_s": setup_s,
        "compile_s": rep.median(samples["compile"]),
        "assemble_s": rep.median(samples["assemble"]),
        "solution_s": rep.median(samples["solution"]),
        "tensor_ns_per_entry": rep.geomean([r["tensor_ns"] for r in rows]),
        "c_ns_per_entry": rep.geomean(c_ns) if c_ns else None,
        "quad_ns_per_entry": rep.geomean([r["quad_ns"] for r in rows]),
        "c_build_s": c_build_s if c_ns else None,
        "peak_rss_mb": rep.peak_rss_mb(),
    }
    # Without cc the C metrics are not attempted, and so not reported.
    return {k: v for k, v in metrics.items() if v is not None}


def untraced_run(workload, seed, seconds, workroot, cc):
    import bench_calibrate
    import bench_jobs
    import bench_report as rep

    import_s = time.perf_counter() - T_START
    calibration = bench_calibrate.Calibration()
    reference = bench_calibrate.REFERENCE_S
    before = calibration.measure()
    import_scaled = import_s * reference / before
    setup = {"raw": [], "scaled": [], "c_raw": [], "c_scaled": []}
    prep = None
    for k in range(SETUP_ROUNDS):
        prep = None
        t0 = time.perf_counter()
        prep = bench_jobs.prepare(workload, seed,
                                  os.path.join(workroot, "round%d" % k), cc)
        elapsed = time.perf_counter() - t0
        after = calibration.measure()
        factor = reference / ((before + after) / 2)
        before = after
        setup["raw"].append(elapsed)
        setup["scaled"].append(elapsed * factor)
        setup["c_raw"].append(prep.c_build_s)
        setup["c_scaled"].append(prep.c_build_s * factor)

    scaled, raw, cal = _timed_passes(_jobs(prep, bench_jobs), seconds,
                                     calibration, reference)
    results = bench_jobs.checks(prep)

    rows = _case_rows(prep, scaled, rep.median)
    metrics = _end_to_end(
        rows, scaled, import_scaled + rep.median(setup["scaled"]),
        rep.median(setup["c_scaled"]), rep)
    measured = _end_to_end(
        _case_rows(prep, raw, rep.median), raw,
        import_s + rep.median(setup["raw"]), rep.median(setup["c_raw"]), rep)
    series = {"compile_s": scaled["compile"], "assemble_s": scaled["assemble"],
              "solution_s": scaled["solution"], "setup_s": setup["scaled"]}
    if "c_build_s" in metrics:
        series["c_build_s"] = setup["c_scaled"]

    rep.print_cases(rows)
    print()
    rep.print_metrics(metrics, measured, series, rep.END_TO_END)
    print("calibration: median %.6f s over %d, reference %.6f s; values are "
          "scaled to the reference speed, 'raw' as timed"
          % (rep.median(cal), len(cal), bench_calibrate.REFERENCE_S))
    return results, metrics, rep.END_TO_END, None


# --- traced run: per-layer metrics ------------------------------------------------


def traced_run(workload, seed, workroot, cc):
    """Set-up traced once, then alternating untraced and traced passes.

    Per-layer times are medians over the traced passes of each span name's
    summed self time.  Tabulation is memoised per element and rule, so it
    only happens during set-up, and its metrics come from the set-up spans.
    """
    import bench_jobs
    import bench_report as rep
    import bench_trace

    tracer = bench_trace.Tracer()
    missing = tracer.install()
    if missing:
        print("not traced, no longer in formc: " + ", ".join(missing))
    tracer.job = "setup"
    prep = bench_jobs.prepare(workload, seed, os.path.join(workroot, "setup"), cc)
    tracer.uninstall()

    jobs = _jobs(prep, bench_jobs)
    pass_times = {"untraced": [], "traced": []}
    for i in range(TRACE_PASSES):
        for mode in ("untraced", "traced"):
            if mode == "traced":
                tracer.install()
            t0 = time.perf_counter()
            for key, run in jobs:
                tracer.job = "%s%d/%s" % (mode, i, key)
                if mode == "traced":
                    tracer.span("perfbench." + key.split(":")[0], run)
                else:
                    run()
            pass_times[mode].append(time.perf_counter() - t0)
            if mode == "traced":
                tracer.uninstall()

    per_pass = defaultdict(lambda: defaultdict(float))
    tabulate = [0.0, 0]
    for span, own in zip(tracer.spans, bench_trace.self_times(tracer.spans)):
        name, job = span[0], span[4]
        if job == "setup":
            if name == "reference_elements.tabulate":
                tabulate[0] += own
                tabulate[1] += 1
        elif name in rep.SPAN_METRICS:
            per_pass[job.split("/")[0]][rep.SPAN_METRICS[name]] += own
    traced = [p for p in per_pass if p.startswith("traced")]
    found = dict(bench_jobs.counts(prep))
    found.update({m: rep.median([per_pass[p][m] for p in traced])
                  for m in rep.SPAN_METRICS.values()})
    found["reference_elements.tabulate_s"] = tabulate[0]
    found["reference_elements.tabulate_calls"] = tabulate[1]
    found["trace.overhead_s"] = (rep.median(pass_times["traced"])
                                 - rep.median(pass_times["untraced"]))
    metrics = {name: found[name] for name in rep.PER_LAYER}

    print("%-42s %14s %-6s  %s" % ("per-layer metric", "value", "unit",
                                   "should move (on workload)"))
    for name, value in metrics.items():
        unit, _, target, where = rep.PER_LAYER[name]
        print("%-42s %14.6g %-6s  %s (%s)" % (name, value, unit, target, where))
    print("pass seconds: untraced %s, traced %s" % (
        ", ".join("%.4f" % t for t in pass_times["untraced"]),
        ", ".join("%.4f" % t for t in pass_times["traced"])))
    trace = {"spans": tracer.spans, "pass_seconds": pass_times,
             "per_layer": metrics}
    units = {k: v[0] for k, v in rep.PER_LAYER.items()}
    return bench_jobs.checks(prep), metrics, units, trace


# --- entry points -------------------------------------------------------------------


def run_one(args):
    _import_formc()
    import bench_ckernel
    import bench_inputs
    import bench_report as rep

    workload = bench_inputs.WORKLOADS[args.workload]
    env = rep.environment(ROOT, args.seed, args.workload, args.seconds, args.trace)
    cc = bench_ckernel.cc_path() is not None
    print("perfbench %s seed=%d seconds=%d trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(env))
    workroot = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.trace:
            results, metrics, units, trace = traced_run(
                workload, args.seed, workroot, cc)
        else:
            results, metrics, units, trace = untraced_run(
                workload, args.seed, args.seconds, workroot, cc)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    failed = [r for r in results if not r[1]]
    for name, _, detail in failed:
        print("FAILED %s: %s" % (name, detail))
    print("checks: %d attempted, %d failed, fail_ratio %.6g" % (
        len(results), len(failed), len(failed) / len(results)))
    if not cc:
        print("c_ns_per_entry, c_build_s: not attempted (no cc on PATH)")
    if trace is not None:
        trace["env"] = env
        trace["checks"] = results
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (
            args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump(trace, fh)
        print("spans written to %s" % os.path.relpath(path, ROOT))
    print(rep.result_line(not failed, len(results), len(failed), metrics, units))
    return 1 if failed else 0


def run_all(args):
    """Every workload in a process of its own, one after the other."""
    _require_formc()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in args.names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        out = proc.stdout.rstrip("\n")
        print(out)
        print()
        if proc.returncode not in (0, 1):
            return proc.returncode
        status = max(status, proc.returncode)
        result = json.loads(out.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"]["%s/%s" % (name, key)] = value
    print(json.dumps(merged))
    return status


def main(argv=None):
    import bench_inputs

    names = tuple(bench_inputs.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        args.names = names
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
