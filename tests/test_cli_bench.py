"""Complexity model, benchmark harness, and the formc command line."""

import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env, run_limited
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
from formc.errors import ValueMismatch
from formc.reference_elements import make_quadrature

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
    with pytest.raises(ValueError):
        ComplexityParams(q=1, d=2, r=0)
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
    # arity 1: n^1 on both paths and a degree 2 rule with N=4
    T_T, T_Q, ratio = flop_estimates(ComplexityParams(q=2, d=2, r=1))
    assert (T_T, T_Q) == (6, 24)
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
    # a degree in non-ASCII digits is no degree: it is left for the
    # parser to reject
    odd = MASS.replace(", 1)", ", \u0661)")
    assert form_text_with(odd, degree=2) == odd


# --- benchmark harness -------------------------------------------------------------


def test_run_benchmark_raises_when_the_paths_disagree(monkeypatch):
    import formc.runtime

    exact = formc.runtime.quadrature_element_tensors
    monkeypatch.setattr(formc.runtime, "quadrature_element_tensors",
                        lambda *args: 1.001 * exact(*args))
    with pytest.raises(ValueMismatch, match="disagree for form 'a' at q=1"):
        run_benchmark(MASS, [1], n_elements=4, repetitions=1)


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


def test_cli_compile_multiple_forms_without_output(tmp_path, capsys,
                                                  monkeypatch):
    # each form goes to <stem>_<form>.<ext> in the working directory
    src = tmp_path / "forms" / "pair.form"
    src.parent.mkdir()
    src.write_text(MASS + "b = 2*v*u*dx\n")
    monkeypatch.chdir(tmp_path)
    assert cli(["compile", "--format", "raw", str(src)]) == 0
    assert capsys.readouterr().out == "wrote pair_a.raw\nwrote pair_b.raw\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "forms", "pair_a.raw", "pair_b.raw"]
    for name in ("a", "b"):
        text = (tmp_path / ("pair_%s.raw" % name)).read_text()
        assert text.startswith(RAW_HEADER) and ("form %s\n" % name) in text


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


def test_cli_compile_deep_nesting_fails_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    src = tmp_path / "deep.form"
    src.write_text(MASS.replace("v*u", "(" * 1000 + "v*u" + ")" * 1000))
    monkeypatch.chdir(tmp_path)
    assert cli(["compile", str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("formc: error:") and "nested too deeply" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["deep.form"]


def test_cli_compile_out_of_memory_fails_and_writes_nothing(
        tmp_path, formfile, capsys, monkeypatch):
    def exhausted(form):
        raise MemoryError()

    monkeypatch.setattr("formc.cli_bench.compile_form", exhausted)
    out = tmp_path / "out.c"
    assert cli(["compile", str(formfile), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "formc: error: out of memory\n"
    assert not out.exists()


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


def test_cli_bench_reports_a_missing_file_like_compile(tmp_path, capsys):
    missing = str(tmp_path / "no_such_file.form")
    assert cli(["compile", missing]) == 1
    want = capsys.readouterr().err
    assert "No such file" in want and missing in want
    assert cli(["bench", missing]) == 1
    assert capsys.readouterr().err == want


def test_form_file_without_forms_is_an_error(tmp_path, capsys, monkeypatch):
    from formc.runtime import save_mesh, unit_square_mesh

    src = tmp_path / "none.form"
    src.write_text(MASS.split("a = ")[0])  # declarations only
    meshfile = tmp_path / "mesh.txt"
    save_mesh(unit_square_mesh(2), meshfile)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="the form text defines no form"):
        run_benchmark(src.read_text(), [1])
    for argv in (["compile", str(src)],
                 ["compile", str(src), "-o", "out.c"],
                 ["assemble", str(src), str(meshfile), "-o", "out.mtx"],
                 ["bench", str(src), "-o", "out.tsv"]):
        assert cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("formc: error:") and str(src) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "mesh.txt", "none.form"]


def test_cli_tabulate(capsys):
    assert cli(["tabulate", "triangle", "1", "--at", "0.25,0.25"]) == 0
    out = capsys.readouterr().out
    assert "0.5" in out and "0.25" in out
    # the nodes by default, where P1 is one row of the identity per basis
    # function
    assert cli(["tabulate", "triangle", "1"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("points:\n   0  0\n   1  0\n   0  1\n"
                        "values (one row per basis function):\n"
                        "   1  0  0\n   0  1  0\n   0  0  1\n")


def test_cli_tabulate_rejects_misshapen_points(capsys):
    # four coordinates are not two triangle points
    assert cli(["tabulate", "triangle", "1", "--at", "0.1,0.1,0.2,0.2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("formc: error:") and not captured.out


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


@pytest.mark.parametrize("text,field", (
    ("mesh 2 3 99999999999999999999\n0 0\n1 0\n0 1\n0 1 2\n",
     "header field"),
    ("mesh 2 3 1\n0 0\n1 0\n0 1\n0 99999999999999999999 2\n",
     "cell vertex id"),
))
def test_cli_assemble_rejects_mesh_integers_beyond_int64(
        tmp_path, formfile, capsys, text, field):
    meshfile = tmp_path / "huge.mesh"
    meshfile.write_text(text)
    assert cli(["assemble", str(formfile), str(meshfile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("formc: error:") and field in err


def test_cli_assemble_names_a_mesh_byte_that_is_not_utf8(
        tmp_path, formfile, capsys):
    meshfile = tmp_path / "latin1.mesh"
    meshfile.write_bytes(b"mesh 2 3 1\n0 0\n1 0\n0 \xff1\n0 1 2\n")
    out = tmp_path / "out.mtx"
    assert cli(["assemble", str(formfile), str(meshfile), "-o", str(out)]) == 1
    # the byte is named by its escape, as bytes.decode's backslashreplace
    # writes it
    assert capsys.readouterr().err == (
        "formc: error: bad vertex coordinate in mesh file: %r\n" % "\\xff1")
    assert not out.exists()


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


def test_cli_assemble_rejects_an_unknown_form_name(tmp_path, formfile,
                                                   capsys):
    from formc.runtime import save_mesh, unit_square_mesh

    meshfile = tmp_path / "mesh.txt"
    save_mesh(unit_square_mesh(2), meshfile)
    out = tmp_path / "out.mtx"
    assert cli(["assemble", str(formfile), str(meshfile), "--form", "nosuch",
                "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("formc: error:") and "'nosuch'" in err
    assert not out.exists()


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
    assert cli(["estimate", "--q", "2", "--d", "2", "--r", "1"]) == 0
    assert "n=6 T_T=6 T_Q=24 ratio=4.0000" in capsys.readouterr().out
    assert cli(["estimate", "--q", "2", "--d", "2", "--r", "0"]) == 1
    assert "arity" in capsys.readouterr().err


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
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "ratio" in proc.stdout


def test_estimate_counts_a_large_rule_without_building_it():
    # the q = 1000 rule has 1001^3 points, 24 GB of coordinates; the child
    # may map 1 GiB, so building the rule fails there, not on the host
    proc = run_limited("import sys\nfrom formc.cli_bench import cli\n"
                       "sys.exit(cli(sys.argv[1:]))\n",
                       "estimate", "--q", "1000", "--d", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("n=167668501 T_T=28112726227587001 "
                           "T_Q=28197148772561170991590001 "
                           "ratio=1003003001.0000\n")


@pytest.mark.parametrize("d", (1, 2, 3))
def test_estimate_counts_the_points_of_the_rule(d):
    # T_Q / T_T is the rule's point count N for a mass form
    shape = ("interval", "triangle", "tetrahedron")[d - 1]
    for q in range(5):
        T_T, T_Q, _ = flop_estimates(ComplexityParams(q=q, d=d))
        assert T_Q == T_T * make_quadrature(shape, 2 * q).num_points



def test_cli_bench_without_output_writes_tsv_to_stdout(tmp_path, formfile,
                                                       capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli(["bench", str(formfile), "--qmin", "1", "--qmax", "2",
                "--elements", "4", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "form\tq\td\tt_tensor_ns\tt_quad_ns\tspeedup\tlines"
    assert [line.split("\t")[:3] for line in lines[1:]] == [
        ["a", "1", "2"], ["a", "2", "2"]]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mass.form"]


@pytest.mark.parametrize("argv,code", (
    # Python's float and int, and argparse's type=int, also read
    # underscores and non-ASCII digits
    (["tabulate", "triangle", "1", "--at", "0_1,0"], 1),
    (["tabulate", "triangle", "1", "--at", "\u0660.\u0665,0"], 1),
    (["tabulate", "triangle", "1_0"], 2),
    (["tabulate", "triangle", "\u0661"], 2),
    (["estimate", "--q", "\u0663", "--d", "2"], 2),
    (["estimate", "--q", "1", "--d", "2", "--r", "0_1"], 2),
))
def test_cli_reads_ascii_numbers_only(argv, code, capsys):
    assert cli(argv) == code
    captured = capsys.readouterr()
    assert not captured.out and "error:" in captured.err
    if code == 2:  # a usage error names the input it expected
        assert "expected a natural number in ASCII digits" in captured.err
        assert "_natural" not in captured.err
