"""C, raw, and LaTeX emitters plus the raw reader."""

import ctypes
import os
import shutil
import subprocess

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import parse_one, random_affine_map, run_limited, shipped_forms
from formc.codegen import (
    RAW_HEADER,
    count_code_lines,
    emit_c,
    emit_latex,
    emit_raw,
    read_raw,
)
from formc.errors import FormSyntaxError
from formc.tensor_representation import MAX_BLOCK_ROWS, compile_form

MASS_P1 = (
    'element = FiniteElement("Lagrange", "triangle", 1)\n'
    "v = BasisFunction(element)\n"
    "u = BasisFunction(element)\n"
    "a = v*u*dx\n"
)

POISSON_P1 = (
    'element = FiniteElement("Lagrange", "triangle", 1)\n'
    "v = BasisFunction(element)\n"
    "u = BasisFunction(element)\n"
    "i = Index()\n"
    "a = v.dx(i)*u.dx(i)*dx\n"
)

POISSON_P3 = POISSON_P1.replace('"triangle", 1', '"triangle", 3')

NAVIERSTOKES = (
    'element = VectorElement("Lagrange", "tetrahedron", 1)\n'
    "v = BasisFunction(element)\n"
    "u = BasisFunction(element)\n"
    "w = Function(element)\n"
    "i = Index()\n"
    "j = Index()\n"
    "a = v[i]*w[j]*u[i].dx(j)*dx\n"
)

ELASTICITY = (
    'element = VectorElement("Lagrange", "triangle", 2)\n'
    "v = BasisFunction(element)\n"
    "u = BasisFunction(element)\n"
    "i = Index()\n"
    "j = Index()\n"
    "a = 0.25*(v[i].dx(j) + v[j].dx(i)) * (u[i].dx(j) + u[j].dx(i)) * dx\n"
)

MIXED = (
    'element = FiniteElement("Lagrange", "triangle", 2)\n'
    'coeff = FiniteElement("Lagrange", "triangle", 1)\n'
    "v = BasisFunction(element)\n"
    "u = BasisFunction(element)\n"
    "f = Function(coeff)\n"
    "g = Function(element)\n"
    "i = Index()\n"
    "a = f*v*u*dx + g*v.dx(i)*u.dx(i)*dx\n"
)


# --- C emitter -----------------------------------------------------------------


def test_mass_c_structure():
    cf = compile_form(parse_one(MASS_P1))
    code = emit_c(cf)
    assert "typedef struct {" in code
    for field in ("double det;", "double g00;", "double g01;",
                  "double g10;", "double g11;"):
        assert field in code
    assert "} affine_map_2d;" in code
    assert "void eval(double block[], const affine_map_2d *map)" in code
    assert "const double G0 = map->det;" in code
    assert sum(l.strip().startswith("block[") for l in code.splitlines()) == 9
    assert "block[0] = 8.333333333333333e-02*G0;" in code
    assert "block[1] = 4.166666666666666e-02*G0;" in code
    assert count_code_lines(cf) == 10


def test_poisson_c_geometry_lines():
    cf = compile_form(parse_one(POISSON_P1))
    code = emit_c(cf)
    assert (
        "const double G0_0_0 = map->det*(map->g00*map->g00 + map->g01*map->g01);"
        in code
    )
    assert (
        "const double G0_1_1 = map->det*(map->g10*map->g10 + map->g11*map->g11);"
        in code
    )
    # G_10 equals G_01, so its A0 column folds into G0_0_1 and it is not
    # declared; negative coefficients fold into the term sign
    assert "G0_1_0" not in code
    assert (
        "block[1] = -5.000000000000000e-01*G0_0_0 - 5.000000000000000e-01*G0_0_1;"
        in code
    )
    # the stiffness matrix is symmetric: entry (1, 0) copies entry (0, 1)
    assert "    block[3] = block[1];" in code.splitlines()


def test_p3_poisson_c_block_statements():
    cf = compile_form(parse_one(POISSON_P3))
    code = emit_c(cf)
    blocks = [l.strip() for l in code.splitlines() if l.strip().startswith("block[")]
    assert len(blocks) == 100
    # three G components (G_10 folds into G_01) and 100 block entries
    assert count_code_lines(cf) == 103
    copies = [l for l in blocks if l.split(" = ")[1].startswith("block[")]
    assert len(copies) == 64
    # the first empty row is written 0.0, and the later ones copy it
    zero = [l for l in blocks if l.endswith("= 0.0;")]
    assert zero == ["block[9] = 0.0;"]
    assert {"block[%d] = block[9];" % r for r in (19, 29, 90, 91, 92)} <= set(
        copies)
    by_index = {l.split(" ")[0]: l for l in blocks}
    assert by_index["block[0]"].startswith("block[0] = 4.250000000000")
    # the double nearest -7/80
    assert by_index["block[1]"].startswith("block[1] = -8.749999999999999e-02")
    assert by_index["block[99]"].startswith("block[99] = 4.050000000000")
    assert "*G0_0_0" in by_index["block[99]"]


def test_coefficient_argument_and_offsets():
    code = emit_c(compile_form(parse_one(NAVIERSTOKES)))
    assert "const affine_map_3d *map, const double w[])" in code
    assert "w[0]" in code and "w[11]" in code

    code = emit_c(compile_form(parse_one(MIXED)))
    # slot-major layout: f occupies w[0..2], g starts at w[3]
    assert "w[2]" in code and "w[3]" in code and "w[8]" in code
    assert "w[9]" not in code


def test_emit_c_deterministic():
    # fresh parses allocate fresh index ids; output must not depend on them
    a = emit_c(compile_form(parse_one(ELASTICITY)))
    b = emit_c(compile_form(parse_one(ELASTICITY)))
    assert a == b


def test_count_code_lines_grows_with_degree():
    low = compile_form(parse_one(MASS_P1))
    high = compile_form(parse_one(MASS_P1.replace('"triangle", 1', '"triangle", 4')))
    assert count_code_lines(high) > count_code_lines(low)
    assert count_code_lines(high) == 15 * 15 + 1


# --- raw emitter and reader -------------------------------------------------------


def test_raw_mass_contents():
    cf = compile_form(parse_one(MASS_P1))
    text = emit_raw(cf)
    lines = text.splitlines()
    assert lines[0] == RAW_HEADER
    assert lines[1] == "form a"
    assert "cell triangle 2" in lines
    assert "arity 2" in lines
    assert "primary 3 3" in lines
    assert "geometry (* det)" in lines
    assert "entries 9" in lines
    assert lines[-1] == "end"
    values = sorted(
        float(l.split()[-1]) for l in lines if l[:1].isdigit() and len(l.split()) == 3
    )
    assert np.allclose(values, [1 / 24] * 6 + [1 / 12] * 3, atol=1e-16)


@pytest.mark.parametrize(
    "text", (MASS_P1, POISSON_P3, NAVIERSTOKES, ELASTICITY, MIXED)
)
def test_raw_round_trip_bitwise(text, rng):
    form = parse_one(text)
    cf = compile_form(form)
    raw = read_raw(emit_raw(cf))
    assert raw.name == form.name
    assert raw.arity == form.arity
    assert raw.dim == form.cell.dim
    assert tuple(raw.primary_dims) == cf.primary_dims
    assert list(raw.coefficient_dims) == [el.space_dim for el in form.coefficients]

    d = form.cell.dim
    maps = [random_affine_map(rng, d) for _ in range(4)]
    dets = [m.det for m in maps]
    gs = [m.g for m in maps]
    coeffs = [
        rng.uniform(-1, 1, (4, el.space_dim)) for el in form.coefficients
    ]
    want = cf.element_tensors(dets, gs, coeffs)
    got = raw.element_tensors(dets, gs, coeffs)
    assert np.array_equal(got, want)  # reproduction, not approximation


@pytest.mark.parametrize(
    "text", (MASS_P1, POISSON_P3, NAVIERSTOKES, ELASTICITY, MIXED)
)
def test_reread_form_emits_identical_text(text):
    cf = compile_form(parse_one(text))
    raw = emit_raw(cf)
    again = read_raw(raw)
    assert again.form is None and again.arguments is None
    assert emit_raw(again) == raw
    assert emit_c(again) == emit_c(cf)
    assert emit_latex(again) == emit_latex(cf)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(again.stacked, name),
                              getattr(cf.stacked, name))
    assert len(again.terms) == len(cf.terms)
    for mine, theirs in zip(again.terms, cf.terms):
        assert np.array_equal(mine.used_components, theirs.used_components)
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(mine.matrix, name),
                                  getattr(theirs.matrix, name))


def test_raw_zero_entries_are_not_stored():
    lines = emit_raw(compile_form(parse_one(MASS_P1))).splitlines()
    start = lines.index("entries 9") + 1

    def reread(values):
        edited = list(lines)
        for k, value in enumerate(values):
            edited[start + k] = edited[start + k].rsplit(" ", 1)[0] + " " + value
        return read_raw("\n".join(edited) + "\n")

    cf = reread(["0.0", "-0.0"] * 4 + ["0.0"])
    assert cf.terms == [] and cf.stacked.shape == (9, 0)
    assert "monomials 0" in emit_raw(cf)
    cf = reread(["0.0", "-0.0", "0.5", "-0.0"])
    assert len(cf.terms) == 1 and cf.stacked.nnz == 6
    assert cf.stacked.data[0] == 0.5 and cf.stacked.data.all()
    listed = emit_raw(cf).splitlines()
    values = listed[listed.index("entries 6") + 1:-1]
    assert len(values) == 6
    assert all(float(ln.split()[-1]) != 0.0 for ln in values)


@pytest.mark.parametrize("q", (1, 2, 3))
@pytest.mark.parametrize("shape", ("interval", "triangle", "tetrahedron"))
@pytest.mark.parametrize("name", ("mass", "poisson", "navierstokes",
                                  "elasticity"))
def test_reread_shipped_forms_emit_and_contract_identically(name, shape, q,
                                                            rng):
    for form in shipped_forms(name, shape, q):
        cf = compile_form(form)
        again = read_raw(emit_raw(cf))
        for emit in (emit_c, emit_raw, emit_latex):
            assert emit(again) == emit(cf)
        maps = [random_affine_map(rng, form.cell.dim) for _ in range(4)]
        args = ([m.det for m in maps], [m.g for m in maps],
                [rng.uniform(-1, 1, (4, el.space_dim))
                 for el in form.coefficients])
        assert np.array_equal(again.element_tensors(*args),
                              cf.element_tensors(*args))


def test_raw_round_trip_empty_form(rng):
    form = parse_one(
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "a = v*u*dx - v*u*dx\n"
    )
    raw = read_raw(emit_raw(compile_form(form)))
    amap = random_affine_map(rng, 2)
    out = raw.element_tensors([amap.det], [amap.g])
    assert np.array_equal(out, np.zeros((1, 3, 3)))


def test_raw_reader_rejects_malformed_input():
    with pytest.raises(FormSyntaxError):
        read_raw("not-a-raw-file 1\n")
    cf = compile_form(parse_one(MASS_P1))
    good = emit_raw(cf)
    with pytest.raises(FormSyntaxError):
        read_raw("\n".join(good.splitlines()[:-2]))  # truncated
    with pytest.raises(FormSyntaxError):
        read_raw(good.replace("arity 2", "cells 2"))


@pytest.mark.parametrize("number,replacement,where", (
    (12, "0 9 0.5", 12),  # index out of range
    (12, "0 0.5", 12),  # too few indices
    (7, "monomials x", 7),
    (10, "geometry (* det", 10),  # unclosed
    (10, "geometry (* det (dXdx s0 0))", 10),  # no secondary index
    (12, "0 0 nan", 12),
    (3, "cell hexagon 2", 3),
    (3, "cell triangle 3", 3),
    (5, "primary 3", 5),
    (13, "0 0 0.5", 13),  # repeats the entry before it
    (21, "end\nmore", 22),
    (8, "monomial 1", 8),  # out of order
    (9, "secondary 8192 8192", 9),  # 9 * 2**26 entries: too large
    (10, "geometry (* det (coeff 0 s0))", 10),  # no coefficient 0
))
def test_raw_reader_names_the_line_of_each_fault(number, replacement, where):
    lines = emit_raw(compile_form(parse_one(MASS_P1))).splitlines()
    lines[number - 1] = replacement
    with pytest.raises(FormSyntaxError) as err:
        read_raw("\n".join(lines) + "\n")
    assert err.value.line == where


def test_raw_reader_bounds_the_block_before_building_it():
    # with no monomial no term's bound applies: the 10^10 entry block alone
    # would take 75 GiB, and 2^26 block rows a 512 MiB row pointer; the
    # child may map 1 GiB, so that fails there, not on the host
    for primary in ("100000 100000", "8192 8192"):
        listing = "\n".join([RAW_HEADER, "form a", "cell triangle 2",
                             "arity 2", "primary " + primary, "coefficients",
                             "monomials 0", "end"]) + "\n"
        proc = run_limited("import sys\n"
                           "from formc.codegen import read_raw\n"
                           "from formc.errors import FormSyntaxError\n"
                           "try:\n"
                           "    read_raw(sys.stdin.read())\n"
                           "except FormSyntaxError as exc:\n"
                           "    print(exc)\n", stdin=listing)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "element tensor too large (line 5)\n"


def test_raw_reader_reads_every_block_compile_form_accepts():
    # compile_form and read_raw share one bound on the block rows
    def listing(rows):
        return "\n".join([RAW_HEADER, "form a", "cell interval 1", "arity 1",
                          "primary %d" % rows, "coefficients", "monomials 0",
                          "end"]) + "\n"

    assert read_raw(listing(MAX_BLOCK_ROWS)).block_size == MAX_BLOCK_ROWS
    with pytest.raises(FormSyntaxError, match="element tensor too large"):
        read_raw(listing(MAX_BLOCK_ROWS + 1))


def test_raw_reader_renames_sum_variables():
    raw = emit_raw(compile_form(parse_one(POISSON_P1)))
    renamed = raw.replace("(sum b0 (* (dXdx s0 b0) (dXdx s1 b0)))",
                          "(sum q (* (dXdx s0 q) (dXdx s1 q)))")
    assert renamed != raw
    assert emit_raw(read_raw(renamed)) == raw


@pytest.mark.parametrize("changes", (
    # a summed index as the reference direction
    {10: "geometry (* det (sum b0 (* (dXdx b0 s0) (dXdx s1 b0))))"},
    # a fixed direction outside the triangle
    {10: "geometry (* det (dXdx s0 2) (dXdx s1 0))"},
    # a summed index as a coefficient dof
    {6: "coefficients 2",
     10: "geometry (* det (sum b0 (* (dXdx s0 b0) (dXdx s1 b0) "
         "(coeff 0 b0))))"},
    # a sum variable that nothing reads
    {10: "geometry (* det (sum b0 (* (dXdx s0 0) (dXdx s1 1))))"},
    {10: "geometry (* det (sum b0) (dXdx s0 0) (dXdx s1 1))"},
    # a coefficient-dof slot of extent 3 as a space direction
    {6: "coefficients 3", 9: "secondary 2 3",
     10: "geometry (* det (dXdx s0 s1) (coeff 0 s1))"},
))
def test_raw_reader_rejects_misused_slots(changes):
    lines = emit_raw(compile_form(parse_one(POISSON_P1))).splitlines()
    for number, text in changes.items():
        lines[number - 1] = text
    with pytest.raises(FormSyntaxError) as err:
        read_raw("\n".join(lines) + "\n")
    assert err.value.line == 10


POISSON_SUM = "(sum b0 (* (dXdx s0 b0) (dXdx s1 b0)))"


@pytest.mark.parametrize("geometry", (
    "(* 1.0 det %s)" % POISSON_SUM,  # a constant
    "(* det 2 %s)" % POISSON_SUM,  # a constant after det
    "(* det det %s)" % POISSON_SUM,  # det squared
    "(* %s)" % POISSON_SUM,  # no det
    "(* %s det)" % POISSON_SUM,  # det not leading
    "(* det (sum b0 (* det (dXdx s0 b0) (dXdx s1 b0))))",
    "det",  # not a product
))
def test_raw_reader_requires_one_leading_det(geometry):
    lines = emit_raw(compile_form(parse_one(POISSON_P1))).splitlines()
    assert lines[9] == "geometry (* det %s)" % POISSON_SUM
    lines[9] = "geometry " + geometry
    with pytest.raises(FormSyntaxError) as err:
        read_raw("\n".join(lines) + "\n")
    assert err.value.line == 10


# emit_raw of P1 Navier-Stokes on a triangle as listed before a coefficient's
# component was read in G: w's read runs over all 6 of its dofs, and its
# component j is a secondary index paired with u's derivative direction
UNFOLDED_LISTING = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "data", "navierstokes-p1-triangle.raw")


def test_unfolded_listing_still_reads(rng):
    with open(UNFOLDED_LISTING) as fh:
        text = fh.read()
    assert "geometry (* det (dXdx s2 s0) (coeff 0 s1))" in text
    old = read_raw(text)
    assert emit_raw(old) == text
    (form,) = shipped_forms("navierstokes", "triangle", 1)
    cf = compile_form(form)
    # the component read keeps one column per scalar profile of w
    assert old.stacked.shape == (36, 12) and old.stacked.nnz == 144
    assert cf.stacked.shape == (36, 6) and cf.stacked.nnz == 72
    maps = [random_affine_map(rng, 2) for _ in range(8)]
    args = ([m.det for m in maps], [m.g for m in maps],
            [rng.uniform(-1, 1, (8, 6))])
    want = cf.element_tensors(*args)
    got = old.element_tensors(*args)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


NAVIERSTOKES_P1_TRIANGLE = NAVIERSTOKES.replace("tetrahedron", "triangle")
NS_GEOMETRY = "geometry (* det (sum b0 (* (dXdx s1 b0) (coeff 0 s0 b0))))"


@pytest.mark.parametrize("changes", (
    # a component read of a scalar P1 coefficient (3 dofs, not 2 x 3)
    {6: "coefficients 3"},
    # 7 dofs are not 2 components of a scalar basis
    {6: "coefficients 7"},
    # 8 dofs are 2 components of 4, not of the 3 of slot s0
    {6: "coefficients 8"},
    # components out of range: fixed, unknown slot, slot of extent 3
    {10: NS_GEOMETRY.replace("s0 b0", "s0 2")},
    {10: NS_GEOMETRY.replace("s0 b0", "s0 s9")},
    {10: NS_GEOMETRY.replace("s0 b0", "s0 s0")},
    # a scalar-basis slot of the wrong extent
    {10: NS_GEOMETRY.replace("s0 b0", "s1 b0")},
    # no dof slot, or one index too many
    {10: NS_GEOMETRY.replace("s0 b0", "b0")},
    {10: NS_GEOMETRY.replace("s0 b0", "s0 b0 0")},
    # slots, fixed components and coefficient numbers are ASCII digits
    {10: NS_GEOMETRY.replace("s0 b0", "s\u0660 b0")},
    {10: NS_GEOMETRY.replace("s0 b0", "s0 \u0661")},
    {10: NS_GEOMETRY.replace("coeff 0", "coeff \u0660")},
))
def test_raw_reader_rejects_bad_component_reads(changes):
    lines = emit_raw(compile_form(parse_one(NAVIERSTOKES_P1_TRIANGLE))
                     ).splitlines()
    assert lines[8:10] == ["secondary 3 2", NS_GEOMETRY]
    for number, text in changes.items():
        lines[number - 1] = text
    with pytest.raises(FormSyntaxError) as err:
        read_raw("\n".join(lines) + "\n")
    assert err.value.line == 10


LISTINGS = [emit_raw(compile_form(parse_one(t)))
            for t in (MASS_P1, NAVIERSTOKES, MIXED)]
TOKENS = ("", "x", "-1", "0", "1", "2", "7", "99", "1e400", "nan", "(", ")",
          "s0", "s9", "b0", "b3", "det", "sum", "dXdx", "coeff", "*",
          "end", "entries", "hexagon", "0.5")


@st.composite
def broken_listings(draw):
    lines = draw(st.sampled_from(LISTINGS)).splitlines()
    keywords = [k for k, ln in enumerate(lines) if not ln[:1].isdigit()]
    k = draw(st.sampled_from(keywords) | st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(("truncate", "drop", "line") +
                                  ("token",) * 5))
    if action == "truncate":
        return "\n".join(lines)[:draw(st.integers(0, 600))]
    if action == "drop":
        del lines[k]
    elif action == "token":
        parts = lines[k].split(" ")
        j = draw(st.integers(0, len(parts)))
        parts[j:j + draw(st.integers(0, 1))] = [draw(st.sampled_from(TOKENS))]
        lines[k] = " ".join(parts)
    else:
        lines[k] = draw(st.text(max_size=20))
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=broken_listings())
def test_raw_reader_fuzzed_listings(text):
    try:
        cf = read_raw(text)
    except FormSyntaxError as err:
        assert err.line is not None
        return
    # an accepted listing emits and contracts without error
    emit_c(cf)
    emit_latex(cf)
    rng = np.random.default_rng(0)
    amap = random_affine_map(rng, cf.dim)
    coeffs = [rng.uniform(-1, 1, (1, n)) for n in cf.coefficient_dims]
    out = cf.element_tensors([amap.det], [amap.g], coeffs)
    assert out.shape == (1,) + cf.primary_dims
    assert np.isfinite(out).all()


def test_raw_emit_deterministic():
    a = emit_raw(compile_form(parse_one(NAVIERSTOKES)))
    b = emit_raw(compile_form(parse_one(NAVIERSTOKES)))
    assert a == b


# --- LaTeX emitter ---------------------------------------------------------------


def test_latex_structure():
    tex = emit_latex(compile_form(parse_one(MASS_P1)))
    assert tex.startswith("\\documentclass{article}")
    assert tex.rstrip().endswith("\\end{document}")
    assert "\\[ G_K = \\det F_K' \\]" in tex
    assert "\\begin{eqnarray*}" in tex and "\\end{eqnarray*}" in tex


def test_latex_escapes_underscores_in_the_form_name():
    cf = compile_form(parse_one(MASS_P1.replace("a = ", "a_stab = ")))
    assert cf.name == "a_stab"
    assert ("\\section*{Tensor representation of form a\\_stab}"
            in emit_latex(cf).splitlines())


def test_latex_poisson_rows_and_symbols():
    tex = emit_latex(compile_form(parse_one(POISSON_P1)))
    # with the G_10 column folded into the G_01 one, 15 A0 nonzeros of 16
    assert tex.count("&=&") == 15
    assert "\\sum_{\\beta_{1}}" in tex
    assert "\\frac{\\partial X_{\\alpha_{1}}}{\\partial x_{\\beta_{1}}}" in tex


def test_latex_coefficient_symbol():
    tex = emit_latex(compile_form(parse_one(NAVIERSTOKES)))
    # component beta_1 of w, scalar dof alpha_1
    assert "w^{(0)}_{\\beta_{1},\\alpha_{1}}" in tex


# --- compiled C against the in-process contraction --------------------------------


def assert_c_matches_numpy(form, tmp_path, rng, stem="form"):
    """Build the emitted C with cc -O2 and compare it with the numpy
    contraction on five random cells, relative to the block's largest."""
    cf = compile_form(form)
    d = form.cell.dim
    src = tmp_path / (stem + ".c")
    lib = tmp_path / (stem + ".so")
    src.write_text(emit_c(cf))
    subprocess.run(
        ["cc", "-std=c99", "-O2", "-shared", "-fPIC", "-o", str(lib), str(src)],
        check=True,
    )

    fields = [("det", ctypes.c_double)] + [
        ("g%d%d" % (a, b), ctypes.c_double) for a in range(d) for b in range(d)
    ]
    Map = type("Map", (ctypes.Structure,), {"_fields_": fields})
    handle = ctypes.CDLL(str(lib))
    n_w = sum(el.space_dim for el in form.coefficients)

    for _ in range(5):
        amap = random_affine_map(rng, d)
        m = Map()
        m.det = amap.det
        for a in range(d):
            for b in range(d):
                setattr(m, "g%d%d" % (a, b), amap.g[a, b])
        block = (ctypes.c_double * cf.block_size)()
        coeffs = [rng.uniform(-1, 1, el.space_dim) for el in form.coefficients]
        if n_w:
            w = (ctypes.c_double * n_w)(*np.concatenate(coeffs))
            handle.eval(block, ctypes.byref(m), w)
        else:
            handle.eval(block, ctypes.byref(m))
        want = cf.element_tensor(amap.det, amap.g, [c[None] for c in coeffs])
        got = np.asarray(block).reshape(cf.primary_dims)
        scale = max(np.abs(want).max(), 1e-12)
        assert np.abs(got - want).max() / scale < 1e-12


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("text", (MASS_P1, POISSON_P3, NAVIERSTOKES, MIXED,
                                  ELASTICITY))
def test_emitted_c_compiles_and_matches(text, tmp_path, rng):
    assert_c_matches_numpy(parse_one(text), tmp_path, rng)


# P3 Navier-Stokes and P3 elasticity take tens of seconds to build with
# cc -O2, so their C is not built here; P2 Navier-Stokes on a tetrahedron
# takes about a second
COPIED_ROW_CASES = [
    (name, "interval", q) for name in ("mass", "poisson", "elasticity")
    for q in (1, 2, 3)] + [
    (name, shape, q) for name in ("mass", "poisson", "elasticity")
    for shape in ("triangle", "tetrahedron") for q in (1, 2)] + [
    (name, shape, 3) for name in ("mass", "poisson")
    for shape in ("triangle", "tetrahedron")] + [
    ("navierstokes", shape, 1) for shape in ("triangle", "tetrahedron")] + [
    ("navierstokes", "tetrahedron", 2)]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@pytest.mark.parametrize("name,shape,q", COPIED_ROW_CASES)
def test_c_with_copied_rows_matches_numpy(name, shape, q, tmp_path, rng):
    form = next(f for f in shipped_forms(name, shape, q) if f.arity == 2)
    code = emit_c(compile_form(form))
    assert " = block[" in code
    assert_c_matches_numpy(form, tmp_path, rng)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_c_of_interval_navierstokes_matches_numpy(tmp_path, rng):
    # its two rows that repeat others negated are each summed: no copies
    (form,) = shipped_forms("navierstokes", "interval", 1)
    assert " = block[" not in emit_c(compile_form(form))
    assert_c_matches_numpy(form, tmp_path, rng)


@pytest.mark.parametrize("q", (1, 2, 3))
@pytest.mark.parametrize("shape", ("interval", "triangle", "tetrahedron"))
@pytest.mark.parametrize("name", ("mass", "poisson", "navierstokes",
                                  "elasticity"))
def test_count_code_lines_counts_emitted_statements(name, shape, q):
    for form in shipped_forms(name, shape, q):
        cf = compile_form(form)
        body = emit_c(cf).split("\n{\n", 1)[1]
        statements = [ln for ln in body.splitlines() if ln.endswith(";")]
        assert count_code_lines(cf) == len(statements)


@pytest.mark.parametrize("q", (1, 2, 3))
@pytest.mark.parametrize("shape", ("interval", "triangle", "tetrahedron"))
@pytest.mark.parametrize("name", ("mass", "poisson", "navierstokes",
                                  "elasticity"))
def test_c_copies_follow_the_row_plan(name, shape, q):
    for form in shipped_forms(name, shape, q):
        assert_one_row_rule(compile_form(form))


def c_copies(code):
    """{row: right-hand side} of every block entry the C copies, negated
    or not."""
    got = {}
    for line in code.splitlines():
        if line.startswith("    block["):
            lhs, rhs = line.strip().rstrip(";").split(" = ")
            if rhs.lstrip("-").startswith("block["):
                got[int(lhs[6:-1])] = rhs
    return got


def assert_one_row_rule(cf):
    """Each block row copies the first row with the same (column, value
    bits) pairs, an empty row too, in numpy and in the C alike, with no
    sign; the first rows are the ones the C sums and, when numpy gathers,
    the ones it multiplies."""
    m, plan = cf.stacked, cf.plan
    first = {}
    source = [first.setdefault((m.indices[a:b].tobytes(),
                                m.data[a:b].tobytes()), r)
              for r, (a, b) in enumerate(zip(m.indptr, m.indptr[1:]))]
    assert plan.source.tolist() == source
    summed = np.flatnonzero(plan.source == np.arange(cf.block_size))
    assert np.array_equal(plan.rows, summed)
    assert c_copies(emit_c(cf)) == {
        r: "block[%d]" % j for r, j in enumerate(source) if j != r}
    if plan.gather is None:
        assert plan.a0 is m
    else:
        # numpy multiplies the summed rows, bit for bit, and gathers each
        # block row from its source's product
        rows = m[summed]
        assert np.array_equal(plan.a0.indptr, rows.indptr)
        assert np.array_equal(plan.a0.indices, rows.indices)
        assert plan.a0.data.tobytes() == rows.data.tobytes()
        assert np.array_equal(summed[plan.gather], plan.source)
