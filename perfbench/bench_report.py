"""Metric definitions, statistics, environment record and printing."""

import json
import math
import os
import platform
import resource
import statistics
import subprocess

import numpy as np
import scipy

import bench_ckernel

# name: unit; README.md says what each one times.
END_TO_END = {
    "setup_s": "s",
    "compile_s": "s",
    "assemble_s": "s",
    "solution_s": "s",
    "tensor_ns_per_entry": "ns",
    "c_ns_per_entry": "ns",
    "quad_ns_per_entry": "ns",
    "c_build_s": "s",
    "peak_rss_mb": "MB",
}

# name: (unit, better, end-to-end metric it should move, on which workload)
PER_LAYER = {
    "form_language.parse_s": ("s", "lower", "compile_s", "forms3d-kernel"),
    "form_language.expand_s": ("s", "lower", "compile_s, quad_ns_per_entry", "forms3d-kernel"),
    "form_language.monomials": ("count", "lower", "compile_s", "forms3d-kernel"),
    "reference_elements.make_quadrature_s": (
        "s", "lower", "compile_s, quad_ns_per_entry", "forms3d-kernel"),
    "reference_elements.tabulate_s": ("s", "lower", "setup_s", "forms3d-kernel"),
    "reference_elements.tabulate_calls": ("count", "lower", "setup_s", "forms3d-kernel"),
    "tensor_representation.classify_s": ("s", "lower", "compile_s", "forms3d-kernel"),
    "tensor_representation.reference_tensor_s": ("s", "lower", "compile_s", "forms3d-kernel"),
    "tensor_representation.drop_zeros_s": ("s", "lower", "compile_s", "forms3d-kernel"),
    "tensor_representation.compile_self_s": ("s", "lower", "compile_s", "forms3d-kernel"),
    "tensor_representation.geometry_s": (
        "s", "lower", "tensor_ns_per_entry; assemble_s", "forms3d-kernel; poisson3d-p3"),
    "tensor_representation.contract_self_s": (
        "s", "lower", "tensor_ns_per_entry; assemble_s", "forms3d-kernel; poisson3d-p3"),
    "tensor_representation.a0_nonzeros": ("count", "lower", "tensor_ns_per_entry", "forms3d-kernel"),
    "tensor_representation.a0_density": ("ratio", "lower", "tensor_ns_per_entry", "forms3d-kernel"),
    "tensor_representation.gk_components": ("count", "lower", "tensor_ns_per_entry", "forms3d-kernel"),
    "codegen.emit_c_s": ("s", "lower", "compile_s", "forms3d-kernel"),
    "codegen.c_bytes": ("count", "lower", "c_ns_per_entry, c_build_s", "forms3d-kernel"),
    "codegen.c_statements": ("count", "lower", "c_ns_per_entry, c_build_s", "forms3d-kernel"),
    "codegen.c_flops": ("count", "lower", "c_ns_per_entry, c_build_s", "forms3d-kernel"),
    "cli_bench.model_flops": ("count", "lower", "c_ns_per_entry (explains)", "forms3d-kernel"),
    "cli_bench.flop_ratio": ("ratio", "lower", "c_ns_per_entry (explains)", "forms3d-kernel"),
    "runtime.load_mesh_s": ("s", "lower", "assemble_s", "poisson2d-p1"),
    "runtime.mesh_init_s": ("s", "lower", "assemble_s", "poisson2d-p1"),
    "runtime.build_dofmap_s": ("s", "lower", "assemble_s", "poisson3d-p3"),
    "runtime.affine_maps_s": ("s", "lower", "assemble_s", "poisson2d-p1"),
    "runtime.assemble_self_s": ("s", "lower", "assemble_s", "poisson2d-p1"),
    "runtime.apply_dirichlet_s": ("s", "lower", "solution_s", "poisson2d-p1"),
    "runtime.cg_solve_s": ("s", "lower", "solution_s", "poisson2d-p1"),
    "runtime.cg_iterations": ("count", "lower", "solution_s", "poisson2d-p1"),
    "runtime.quadrature_element_tensor_s": ("s", "lower", "quad_ns_per_entry", "forms3d-kernel"),
    "runtime.cells": ("count", "higher", "assemble_s (input size)", "poisson2d-p1"),
    "runtime.dofs": ("count", "higher", "solution_s (input size)", "poisson2d-p1"),
    "runtime.triplets": ("count", "higher", "assemble_s (input size)", "poisson2d-p1"),
    "runtime.nnz": ("count", "lower", "solution_s", "poisson3d-p3"),
    "runtime.nnz_per_triplet": ("ratio", "lower", "assemble_s", "poisson3d-p3"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced pass time", "all"),
}

# Span name -> per-layer metric of its self time.
SPAN_METRICS = {
    "form_language.parse": "form_language.parse_s",
    "form_language.expand": "form_language.expand_s",
    "reference_elements.make_quadrature": "reference_elements.make_quadrature_s",
    "tensor_representation.classify": "tensor_representation.classify_s",
    "tensor_representation.reference_tensor": "tensor_representation.reference_tensor_s",
    "tensor_representation.drop_zeros": "tensor_representation.drop_zeros_s",
    "tensor_representation.compile": "tensor_representation.compile_self_s",
    "tensor_representation.geometry": "tensor_representation.geometry_s",
    "tensor_representation.contract": "tensor_representation.contract_self_s",
    "codegen.emit_c": "codegen.emit_c_s",
    "runtime.load_mesh": "runtime.load_mesh_s",
    "runtime.mesh_init": "runtime.mesh_init_s",
    "runtime.build_dofmap": "runtime.build_dofmap_s",
    "runtime.affine_maps": "runtime.affine_maps_s",
    "runtime.assemble": "runtime.assemble_self_s",
    "runtime.apply_dirichlet": "runtime.apply_dirichlet_s",
    "runtime.cg_solve": "runtime.cg_solve_s",
    "runtime.quadrature_element_tensor": "runtime.quadrature_element_tensor_s",
}


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail_percentile(samples):
    """(p, value) for the highest of a few standard percentiles that has at
    least ten samples beyond it, or None when there are too few samples."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(samples, p))
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(root, seed, workload, seconds, trace):
    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "cc": bench_ckernel.cc_version() or "not found", "git_rev": rev,
    }


def print_cases(rows):
    print("%-28s %7s %7s %6s %12s %12s %12s %9s" % (
        "case", "entries", "cells", "quad", "tensor_ns", "c_ns", "quad_ns",
        "quad/tens"))
    for r in rows:
        c_ns = "%12.4g" % r["c_ns"] if r["c_ns"] is not None else "%12s" % "-"
        print("%-28s %7d %7d %6d %12.4g %s %12.4g %9.3g" % (
            r["case"], r["entries"], r["cells"], r["quad_cells"], r["tensor_ns"],
            c_ns, r["quad_ns"], r["quad_ns"] / r["tensor_ns"]))


def print_metrics(metrics, raw, samples, units):
    print("%-22s %14s %14s %-5s %6s  %s" % ("metric", "value", "raw", "unit",
                                          "n", "tail"))
    for name, value in metrics.items():
        series = samples.get(name, ())
        tail = tail_percentile(series) if series else None
        print("%-22s %14.6g %14.6g %-5s %6s  %s" % (
            name, value, raw[name], units[name], len(series) or "-",
            "p%g=%.6g" % tail if tail else ""))


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    })


def median(values):
    return statistics.median(values)
