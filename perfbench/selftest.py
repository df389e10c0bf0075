"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import bench_ckernel  # noqa: E402
import bench_inputs  # noqa: E402
import bench_jobs  # noqa: E402
import bench_report  # noqa: E402
import bench_trace  # noqa: E402


def _counts(name, seed, workdir):
    prep = bench_jobs.prepare(bench_inputs.WORKLOADS[name], seed, str(workdir),
                              cc_available=False)
    bench_jobs.run_pipeline(prep.pipeline)
    return bench_jobs.counts(prep)


@pytest.mark.parametrize("name", sorted(bench_inputs.WORKLOADS))
def test_counts_repeat_exactly(name, tmp_path):
    first = _counts(name, 7, tmp_path / "a")
    second = _counts(name, 7, tmp_path / "b")
    assert first == second
    assert all(v > 0 for v in first.values())


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench_inputs.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(bench_report.END_TO_END)
    for m in spec["end_to_end"]:
        assert m["unit"] == bench_report.END_TO_END[m["name"]]
        assert 0 < m["bound"] <= spec["end_to_end"][0]["bound"] <= 0.25
    assert [m["name"] for m in spec["per_layer"]] == list(bench_report.PER_LAYER)
    for m in spec["per_layer"]:
        unit, better = bench_report.PER_LAYER[m["name"]][:2]
        assert (m["unit"], m["better"]) == (unit, better)
    assert set(bench_report.SPAN_METRICS.values()) <= set(bench_report.PER_LAYER)


def test_lattice_mesh_is_positively_oriented_and_seeded():
    for dim, n in ((2, 8), (3, 4)):
        v1, c1, b1 = bench_inputs.lattice_mesh(dim, n, np.random.default_rng(3))
        v2, c2, _ = bench_inputs.lattice_mesh(dim, n, np.random.default_rng(3))
        assert np.array_equal(v1, v2) and np.array_equal(c1, c2)
        assert len(c1) == n ** dim * (2 if dim == 2 else 6)
        coords = v1[c1]
        assert (np.linalg.det(coords[:, 1:] - coords[:, :1]) > 0).all()
        assert b1.sum() == (n + 1) ** dim - (n - 1) ** dim


def test_self_times_subtract_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, "j"],
        ["child", 1.0, 4.0, 0, "j"],
        ["grandchild", 2.0, 3.0, 1, "j"],
        ["child", 5.0, 6.0, 0, "j"],
    ]
    assert bench_trace.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_wraps_every_lookup_and_restores():
    from formc import cli_bench, reference_elements, runtime, tensor_representation
    original = reference_elements.make_quadrature
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        for module in (reference_elements, tensor_representation, runtime, cli_bench):
            assert module.make_quadrature is not original
        tracer.job = "t"
        cli_bench.flop_estimates(cli_bench.ComplexityParams(q=2, d=2))
    finally:
        tracer.uninstall()
    for module in (reference_elements, tensor_representation, runtime, cli_bench):
        assert module.make_quadrature is original
    assert [s[0] for s in tracer.spans] == ["reference_elements.make_quadrature"]


def test_c_flops_counts_binary_operations():
    text = ("    const double G0_0 = map->det*(map->g00*map->g00 + map->g01);\n"
            "    block[0] = -1.0e-01*G0_0 - 2.0e-01*G0_0;\n")
    assert bench_jobs.c_flops(text) == (2 + 1) + (2 + 1)


def test_tail_percentile_needs_ten_samples_beyond():
    assert bench_report.tail_percentile(list(range(39))) is None
    assert bench_report.tail_percentile(list(range(40)))[0] == 75.0
    assert bench_report.tail_percentile(list(range(1000)))[0] == 99.0


@pytest.mark.skipif(bench_ckernel.cc_path() is None, reason="no C compiler")
def test_c_batch_matches_numpy_path(tmp_path):
    from formc import codegen, form_language, tensor_representation
    spec = bench_inputs.FormSpec("navierstokes", 1, "tetrahedron")
    form = form_language.parse_form_file(bench_inputs.form_text(spec))[0]
    cf = tensor_representation.compile_form(form)
    rng = np.random.default_rng(0)
    dets, gs, _ = bench_inputs.random_cells(rng, 5, 3)
    coeffs = [rng.uniform(-1, 1, size=(5, el.space_dim)) for el in form.coefficients]
    src = bench_ckernel.batch_source(codegen.emit_c(cf), 3, True)
    bench_ckernel.build(src, str(tmp_path / "k.c"), str(tmp_path / "k.so"))
    kernel = bench_ckernel.BatchKernel(str(tmp_path / "k.so"), dets, gs, coeffs,
                                       cf.block_size)
    want = cf.element_tensors(dets, gs, coeffs).reshape(5, -1)
    assert np.abs(kernel() - want).max() <= 1e-12 * np.abs(want).max()


def test_fails_without_formc_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poisson2d-p1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
