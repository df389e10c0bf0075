"""Complexity model, benchmark harness, and the formc command line."""

import os
import subprocess
import sys

import numpy as np
import pytest

from formc.cli_bench import (
    BenchResult,
    ComplexityParams,
    cli,
    flop_estimates,
    form_text_with,
    results_tsv,
    run_benchmark,
)
from formc.codegen import RAW_HEADER

MASS = (
    'element = FiniteElement("Lagrange", "triangle", 1)\n'
    "v = BasisFunction(element)\n"
    "u = BasisFunction(element)\n"
    "a = v*u*dx\n"
)

POISSON = (
    'element = FiniteElement("Lagrange", "triangle", 2)\n'
    "v = BasisFunction(element)\n"
    "u = BasisFunction(element)\n"
    "i = Index()\n"
    "a = v.dx(i)*u.dx(i)*dx\n"
)

TEST_CASES = {
    # (n_f, n_D, vector) per benchmark form
    "mass": (0, 0, False),
    "poisson": (0, 2, False),
    "navierstokes": (1, 1, True),
    "elasticity": (0, 2, True),
}


# --- operation-count model -----------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        ComplexityParams(q=-1, d=2)
    with pytest.raises(ValueError):
        ComplexityParams(q=1, d=4)
    with pytest.raises(ValueError):
        ComplexityParams(q=1, d=2, n_f=-2)
    p = ComplexityParams(q=2, d=2)
    assert p.n == 6
    assert ComplexityParams(q=2, d=2, vector=True).n == 12


def test_mass_model_values():
    # q=2, d=2: n=6, one-point rule would not integrate degree 4, so N=9
    T_T, T_Q, ratio = flop_estimates(ComplexityParams(q=2, d=2))
    assert (T_T, T_Q) == (36, 324)
    assert ratio == pytest.approx(9.0)
    T_T, T_Q, ratio = flop_estimates(ComplexityParams(q=4, d=2))
    assert ratio == pytest.approx(25.0)
    # quadrature cost grows with the rule while the tensor side is fixed,
    # so the advantage widens with q
    q2 = flop_estimates(ComplexityParams(q=2, d=2))[2]
    q4 = flop_estimates(ComplexityParams(q=4, d=2))[2]
    assert q4 / q2 == pytest.approx(25.0 / 9.0)


def test_model_zero_degree_is_finite():
    T_T, T_Q, ratio = flop_estimates(ComplexityParams(q=0, d=3, n_D=2))
    assert T_T == 9 and T_Q > 0 and ratio > 0


def test_model_ratio_exceeds_one_for_test_cases():
    for name, (n_f, n_D, vector) in TEST_CASES.items():
        for d in (2, 3):
            for q in (1, 2, 3, 4):
                params = ComplexityParams(q=q, d=d, n_f=n_f, n_D=n_D,
                                          vector=vector)
                ratio = flop_estimates(params)[2]
                if n_D == 2 and d == 3 and q == 1:
                    # single-point rule: the model dips to 7/9 here because
                    # d^2 = 9 tensor ops meet N = 1, 7-op quadrature work
                    assert ratio == pytest.approx(7.0 / 9.0)
                else:
                    assert ratio > 1.0, (name, d, q)


def test_model_trend_for_high_degree():
    # between q=7 and q=8 the point count ratio dominates: N grows like q^d
    for d in (2, 3):
        r7 = flop_estimates(ComplexityParams(q=7, d=d, n_D=2))[2]
        r8 = flop_estimates(ComplexityParams(q=8, d=d, n_D=2))[2]
        trend = (16.0 / 14.0) ** d
        assert abs(r8 / r7 - trend) / trend < 0.15


# --- form text rewriting ---------------------------------------------------------


def test_form_text_with():
    out = form_text_with(MASS, degree=3)
    assert '"triangle", 3' in out and '"triangle", 1' not in out
    out = form_text_with(MASS, shape="tetrahedron")
    assert '"tetrahedron", 1' in out
    out = form_text_with(MASS, degree=2, shape="tetrahedron")
    assert '"tetrahedron", 2' in out
    # every declaration is rewritten
    two = MASS + 'other = VectorElement("Lagrange", "triangle", 4)\n'
    out = form_text_with(two, degree=2)
    assert out.count(", 2)") == 2


# --- benchmark harness -------------------------------------------------------------


def test_run_benchmark_smoke():
    results = run_benchmark(MASS, [1, 2], n_elements=10000, repetitions=5,
                            seed=11)
    assert [r.q for r in results] == [1, 2]
    for r in results:
        assert isinstance(r, BenchResult)
        assert r.form == "a" and r.d == 2
        assert r.t_tensor_ns > 0 and r.t_quad_ns > 0
        assert r.speedup == pytest.approx(r.t_quad_ns / r.t_tensor_ns)
        assert r.n_elements == 10000
    # generated code size grows with the degree
    assert results[1].lines > results[0].lines


def test_run_benchmark_validates_inputs():
    with pytest.raises(ValueError):
        run_benchmark(MASS, [1], repetitions=0)
    with pytest.raises(ValueError):
        run_benchmark(MASS, [1], n_elements=0)


def test_empty_degree_range_is_an_error(tmp_path, capsys):
    with pytest.raises(ValueError):
        run_benchmark(MASS, [])
    with pytest.raises(ValueError):
        run_benchmark(MASS, range(3, 1))
    src = tmp_path / "mass.form"
    src.write_text(MASS)
    out = tmp_path / "bench.tsv"
    assert cli(["bench", str(src), "--qmin", "3", "--qmax", "1",
                "-o", str(out)]) == 1
    assert "formc: error:" in capsys.readouterr().err
    assert not out.exists()


def test_results_tsv_format():
    results = [
        BenchResult("a", 1, 2, 10.0, 50.0, 5.0, 10000, 10),
        BenchResult("a", 2, 2, 20.0, 200.0, 10.0, 10000, 37),
    ]
    text = results_tsv(results)
    lines = text.splitlines()
    assert lines[0] == "form\tq\td\tt_tensor_ns\tt_quad_ns\tspeedup\tlines"
    assert len(lines) == 3
    first = lines[1].split("\t")
    assert first[0] == "a" and first[1] == "1" and first[2] == "2"


# --- command line -------------------------------------------------------------------


@pytest.fixture
def formfile(tmp_path):
    path = tmp_path / "mass.form"
    path.write_text(MASS)
    return path


def test_cli_compile_c(tmp_path, formfile, capsys):
    out = tmp_path / "mass.c"
    assert cli(["compile", str(formfile), "-o", str(out)]) == 0
    text = out.read_text()
    assert "void eval(double block[]" in text


def test_cli_compile_raw_and_latex(tmp_path, formfile):
    raw = tmp_path / "mass.raw"
    assert cli(["compile", "--format", "raw", str(formfile), "-o", str(raw)]) == 0
    assert raw.read_text().startswith(RAW_HEADER)
    tex = tmp_path / "mass.tex"
    assert cli(["compile", "--format", "latex", str(formfile), "-o", str(tex)]) == 0
    assert tex.read_text().startswith("\\documentclass")


def test_cli_compile_multiple_forms(tmp_path):
    src = tmp_path / "poisson.form"
    src.write_text(
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "f = Function(element)\n"
        "i = Index()\n"
        "a = v.dx(i)*u.dx(i)*dx\n"
        "L = v*f*dx\n"
    )
    assert cli(["compile", str(src), "-o", str(tmp_path / "out.c")]) == 0
    assert (tmp_path / "out_a.c").exists()
    assert (tmp_path / "out_L.c").exists()


SECOND_DERIVATIVES = (
    'element = FiniteElement("Lagrange", "triangle", 2)\n'
    "v = BasisFunction(element)\n"
    "u = BasisFunction(element)\n"
    "i = Index()\n"
    "j = Index()\n"
    "a = v*u*dx\n"
    "b = v.dx(i).dx(j)*u.dx(i).dx(j)*dx\n"
)


def test_cli_compile_second_derivatives_fails_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    src = tmp_path / "d2.form"
    src.write_text(SECOND_DERIVATIVES)
    monkeypatch.chdir(tmp_path)
    for extra in ([], ["-o", str(tmp_path / "out.c")]):
        assert cli(["compile", str(src)] + extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("formc: error:") and "derivative" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d2.form"]


def test_cli_assemble_second_derivatives_fails_on_both_paths(
        tmp_path, capsys):
    from formc.runtime import save_mesh, unit_square_mesh

    src = tmp_path / "d2.form"
    src.write_text(SECOND_DERIVATIVES)
    meshfile = tmp_path / "mesh.txt"
    save_mesh(unit_square_mesh(2), meshfile)
    out = tmp_path / "b.mtx"
    for path in ("tensor", "quadrature"):
        assert cli(["assemble", str(src), str(meshfile), "--form", "b",
                    "--path", path, "-o", str(out)]) == 1
        assert "derivative" in capsys.readouterr().err
        assert not out.exists()


def test_cli_tabulate(capsys):
    assert cli(["tabulate", "triangle", "1", "--at", "0.25,0.25"]) == 0
    out = capsys.readouterr().out
    assert "0.5" in out and "0.25" in out


def test_cli_assemble_paths_agree(tmp_path, formfile):
    from formc.runtime import perturb_mesh, save_mesh, unit_square_mesh

    meshfile = tmp_path / "mesh.txt"
    save_mesh(perturb_mesh(unit_square_mesh(4), seed=1), meshfile)
    a = tmp_path / "tensor.mtx"
    b = tmp_path / "quad.mtx"
    assert cli(["assemble", str(formfile), str(meshfile), "-o", str(a)]) == 0
    assert cli(["assemble", str(formfile), str(meshfile), "--path",
                "quadrature", "-o", str(b)]) == 0
    import scipy.io

    ma = scipy.io.mmread(a).toarray()
    mb = scipy.io.mmread(b).toarray()
    assert np.abs(ma - mb).max() < 1e-10 * max(1.0, np.abs(mb).max())


def test_cli_assemble_rejects_nan_mesh(tmp_path, formfile, capsys):
    meshfile = tmp_path / "nan.mesh"
    meshfile.write_text("mesh 2 3 1\n0 0\n1 0\n0 nan\n0 1 2\n")
    out = tmp_path / "out.mtx"
    assert cli(["assemble", str(formfile), str(meshfile), "-o", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_cli_assemble_rejects_malformed_mesh(tmp_path, formfile, capsys):
    meshfile = tmp_path / "bad.mesh"
    meshfile.write_text("mesh 2 3 1\n0 0\n1 0\n0 1\n0 1.5 2\n")
    assert cli(["assemble", str(formfile), str(meshfile)]) == 1
    assert "cell vertex id" in capsys.readouterr().err


def test_cli_assemble_rejects_duplicate_cells(tmp_path, formfile, capsys):
    meshfile = tmp_path / "twice.mesh"
    meshfile.write_text("mesh 2 4 3\n0 0\n1 0\n0 1\n1 1\n"
                        "0 1 2\n1 3 2\n2 0 1\n")
    out = tmp_path / "out.mtx"
    assert cli(["assemble", str(formfile), str(meshfile), "-o", str(out)]) == 1
    assert "cells 0 and 2 have the same vertices" in capsys.readouterr().err
    assert not out.exists()


def test_cli_assemble_quadrature_path_p2_with_coefficient(tmp_path):
    from formc.runtime import perturb_mesh, save_mesh, unit_square_mesh
    import scipy.io

    src = tmp_path / "weighted.form"
    src.write_text(
        'element = FiniteElement("Lagrange", "triangle", 2)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "f = Function(element)\n"
        "i = Index()\n"
        "a = f*v.dx(i)*u.dx(i)*dx + v*u.dx(0)*dx\n"
    )
    meshfile = tmp_path / "mesh.txt"
    save_mesh(perturb_mesh(unit_square_mesh(4), seed=3), meshfile)
    outs = []
    for path in ("tensor", "quadrature"):
        out = tmp_path / (path + ".mtx")
        assert cli(["assemble", str(src), str(meshfile), "--path", path,
                    "--seed", "5", "-o", str(out)]) == 0
        outs.append(scipy.io.mmread(out).toarray())
    tensor, quad = outs
    assert tensor.shape == (81, 81)
    assert np.abs(tensor - quad).max() <= 1e-10 * np.abs(quad).max()


def test_cli_assemble_seed_reproducible(tmp_path):
    src = tmp_path / "load.form"
    src.write_text(
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "f = Function(element)\n"
        "L = v*f*dx\n"
    )
    from formc.runtime import save_mesh, unit_square_mesh

    meshfile = tmp_path / "mesh.txt"
    save_mesh(unit_square_mesh(3), meshfile)
    a = tmp_path / "a.mtx"
    b = tmp_path / "b.mtx"
    assert cli(["assemble", str(src), str(meshfile), "--seed", "9",
                "-o", str(a)]) == 0
    assert cli(["assemble", str(src), str(meshfile), "--seed", "9",
                "-o", str(b)]) == 0
    assert a.read_text() == b.read_text()
    c = tmp_path / "c.mtx"
    assert cli(["assemble", str(src), str(meshfile), "--seed", "10",
                "-o", str(c)]) == 0
    assert a.read_text() != c.read_text()


def test_cli_bench_writes_tsv(tmp_path, formfile):
    out = tmp_path / "bench.tsv"
    code = cli([
        "bench", str(formfile), "--qmin", "1", "--qmax", "1",
        "--elements", "10000", "--reps", "5", "--seed", "3",
        "-o", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("form\tq\td")
    assert len(lines) == 2


def test_cli_estimate(capsys):
    assert cli(["estimate", "--q", "2", "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "n=6" in out and "T_T=36" in out and "T_Q=324" in out
    assert "ratio=9.0000" in out


def test_cli_error_exit_codes(tmp_path, capsys):
    # usage error
    assert cli(["compile"]) == 2
    # missing input file
    assert cli(["compile", str(tmp_path / "missing.form")]) == 1
    err = capsys.readouterr().err
    assert "formc: error:" in err
    # malformed form file
    bad = tmp_path / "bad.form"
    bad.write_text("a = ???\n")
    assert cli(["compile", str(bad)]) == 1


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "formc.cli_bench", "estimate", "--q", "1",
         "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ratio" in proc.stdout


def test_benchmark_seed_env_var(tmp_path, formfile, monkeypatch):
    # FORMC_SEED seeds the random cell geometry when --seed is absent
    monkeypatch.setenv("FORMC_SEED", "21")
    results = run_benchmark(MASS, [1], n_elements=10000, repetitions=5)
    assert results[0].speedup > 0
