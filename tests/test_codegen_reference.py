"""Pins the C, raw and LaTeX emitters to a per-nonzero reference.

The references below format every A0 nonzero on its own, walking the CSR
rows and, for C, the terms of each block row, the way the emitters did
before they moved to whole-array code with a table of distinct values.
The array emitters must reproduce them byte for byte: same C, same raw
listing, same LaTeX.  The parts that never looped over nonzeros (header,
geometry lines and s-expressions) are shared with the module.

The C reference also declares only the G components some nonzero reads,
and writes a block row that repeats an earlier row, or its negation, as a
copy.  It finds those rows with a dict of per-row tuples of (column,
value bits) pairs, a negated row being the tuple of its negated values'
bits.  The older reference, which
declares every component and sums every row, is kept: forms without
repeated rows must still match it.
"""

import struct

import numpy as np
import pytest

from conftest import parse_one, shipped_forms
from formc.codegen import (
    RAW_HEADER,
    _c_geometry_exprs,
    _coeff_offsets,
    _fmt,
    _g_name,
    _geometry_sexpr,
    _latex_geometry,
    emit_c,
    emit_latex,
    emit_raw,
    read_raw,
)
from formc.tensor_representation import compile_form


def reference_nonzeros(cf, ct):
    """(multiindex, value) of the A0 nonzeros of term ct of cf, in CSR
    order."""
    m = ct.matrix
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    idx = np.unravel_index(rows, cf.primary_dims)
    if ct.geometry.dims:
        idx += np.unravel_index(m.indices, ct.geometry.dims)
    return zip(zip(*(i.tolist() for i in idx)), m.data.tolist())


def reference_join_terms(terms):
    if not terms:
        return "0.0"
    parts = []
    for j, (v, name) in enumerate(terms):
        mag = "%s*%s" % (_fmt(abs(v)), name)
        if j == 0:
            parts.append(("-" if v < 0 else "") + mag)
        else:
            parts.append((" - " if v < 0 else " + ") + mag)
    return "".join(parts)


def reference_c_header(cf, function_name):
    d = cf.dim
    lines = []
    lines.append("/* Element tensor evaluation for form '%s': rank %d, %s. */"
                 % (cf.name, cf.arity, cf.cell.shape))
    lines.append("")
    lines.append("typedef struct {")
    lines.append("    double det;")
    for a in range(d):
        for b in range(d):
            lines.append("    double g%d%d;" % (a, b))
    lines.append("} affine_map_%dd;" % d)
    lines.append("")
    sig = "void %s(double block[], const affine_map_%dd *map" % (
        function_name, d)
    if cf.coefficient_dims:
        sig += ", const double w[]"
    sig += ")"
    lines.append(sig)
    lines.append("{")
    return lines


def reference_emit_c_per_entry(cf, function_name="eval"):
    """Every G component declared, every block row summed."""
    offsets = _coeff_offsets(cf.coefficient_dims)
    lines = reference_c_header(cf, function_name)
    csr = []
    for k, ct in enumerate(cf.terms):
        names = []
        for n, alpha in enumerate(ct.geometry.component_multiindices()):
            names.append(_g_name(k, alpha))
            lines.append("    const double %s = %s;" % (
                names[-1], _c_geometry_exprs(ct.geometry, [n], offsets)[0]))
        m = ct.matrix
        csr.append((names, m.indptr.tolist(), m.indices.tolist(),
                    m.data.tolist()))
    if cf.terms:
        lines.append("")
    for flat in range(cf.block_size):
        terms = []
        for names, indptr, indices, data in csr:
            lo, hi = indptr[flat], indptr[flat + 1]
            terms.extend(zip(data[lo:hi], (names[c] for c in indices[lo:hi])))
        lines.append("    block[%d] = %s;" % (flat, reference_join_terms(terms)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_bits(v):
    """The bits of a double, which tell 0.0 from -0.0."""
    return struct.unpack("<q", struct.pack("<d", v))[0]


def reference_emit_c(cf, function_name="eval"):
    """Used G components only, and a copy for every repeated row."""
    offsets = _coeff_offsets(cf.coefficient_dims)
    lines = reference_c_header(cf, function_name)
    csr = []
    for k, ct in enumerate(cf.terms):
        m = ct.matrix
        used = set(m.indices.tolist())
        names = []
        for n, alpha in enumerate(ct.geometry.component_multiindices()):
            names.append(_g_name(k, alpha))
            if n in used:
                lines.append("    const double %s = %s;" % (
                    names[-1], _c_geometry_exprs(ct.geometry, [n], offsets)[0]))
        csr.append((names, m.indptr.tolist(), m.indices.tolist(),
                    m.data.tolist()))
    if cf.terms:
        lines.append("")
    first = {}  # row tuple -> first row written with it
    for flat in range(cf.block_size):
        terms = []
        row = []
        negated = []
        for names, indptr, indices, data in csr:
            lo, hi = indptr[flat], indptr[flat + 1]
            terms.extend(zip(data[lo:hi], (names[c] for c in indices[lo:hi])))
            pairs = list(zip(indices[lo:hi], data[lo:hi]))
            row.append(tuple((c, reference_bits(v)) for c, v in pairs))
            negated.append(tuple((c, reference_bits(-v)) for c, v in pairs))
        row, negated = tuple(row), tuple(negated)
        if terms and row in first:
            rhs = "block[%d]" % first[row]
        elif terms and negated in first:
            rhs = "-block[%d]" % first[negated]
        else:
            first[row] = flat
            rhs = reference_join_terms(terms)
        lines.append("    block[%d] = %s;" % (flat, rhs))
    lines.append("}")
    return "\n".join(lines) + "\n"


def reference_emit_raw(cf):
    lines = [RAW_HEADER]
    lines.append("form %s" % cf.name)
    lines.append("cell %s %d" % (cf.cell.shape, cf.dim))
    lines.append("arity %d" % cf.arity)
    lines.append("primary" + "".join(" %d" % n for n in cf.primary_dims))
    lines.append("coefficients" + "".join(
        " %d" % n for n in cf.coefficient_dims))
    lines.append("monomials %d" % len(cf.terms))
    for k, ct in enumerate(cf.terms):
        lines.append("monomial %d" % k)
        lines.append("secondary" + "".join(
            " %d" % n for n in ct.geometry.dims))
        lines.append("geometry %s" % _geometry_sexpr(ct.geometry))
        lines.append("entries %d" % ct.matrix.nnz)
        for idx, v in reference_nonzeros(cf, ct):
            lines.append("%s %s" % (" ".join(str(i) for i in idx), repr(v)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def reference_emit_latex(cf):
    lines = [
        r"\documentclass{article}",
        r"\begin{document}",
        r"\section*{Tensor representation of form %s}" % cf.name,
        "The element tensor is the sum over monomials of the contraction",
        "of each reference tensor $A^0$ with its geometry tensor $G_K$.",
    ]
    for k, ct in enumerate(cf.terms):
        lines.append(r"\subsection*{Monomial %d}" % k)
        lines.append(r"\[ %s \]" % _latex_geometry(ct.geometry))
        lines.append("Nonzero reference tensor entries:")
        lines.append(r"\begin{eqnarray*}")
        for idx, v in reference_nonzeros(cf, ct):
            lines.append(r"A^0_{%s} &=& %s \\" % (
                r"\,".join(str(i) for i in idx), _fmt(v)))
        lines.append(r"\end{eqnarray*}")
    lines.append(r"\end{document}")
    return "\n".join(lines) + "\n"


def assert_emitters_match(cf):
    assert emit_c(cf) == reference_emit_c(cf)
    assert emit_c(cf, "kernel") == reference_emit_c(cf, "kernel")
    assert emit_raw(cf) == reference_emit_raw(cf)
    assert emit_latex(cf) == reference_emit_latex(cf)


# --- the shipped forms ---------------------------------------------------------

@pytest.mark.parametrize("degree", (1, 2, 3))
@pytest.mark.parametrize("shape", ("triangle", "tetrahedron"))
@pytest.mark.parametrize("name", ("mass", "poisson", "navierstokes",
                                  "elasticity"))
def test_shipped_forms_match_reference(name, shape, degree):
    forms = shipped_forms(name, shape, degree)
    assert forms and all(f.cell.shape == shape for f in forms)
    for form in forms:
        assert_emitters_match(compile_form(form))


# --- corner cases ----------------------------------------------------------------

HEADER = (
    'element = VectorElement("Lagrange", "triangle", 2)\n'
    'scalar = FiniteElement("Lagrange", "triangle", 1)\n'
    "v = BasisFunction(element)\n"
    "u = BasisFunction(element)\n"
    "f = Function(scalar)\n"
    "i = Index()\n"
    "j = Index()\n"
)


def block_lines(cf):
    return [ln for ln in emit_c(cf).splitlines() if ln.startswith("    block[")]


def test_zero_rows_match_reference():
    # only the first component of each argument enters, so the block rows
    # of the other component are empty
    cf = compile_form(parse_one(HEADER + "a = v[0]*u[0].dx(i)*f.dx(i)*dx\n"))
    assert any(ln.endswith("= 0.0;") for ln in block_lines(cf))
    assert_emitters_match(cf)


def test_negative_leading_entry_matches_reference():
    cf = compile_form(parse_one(HEADER + "a = v[i].dx(j)*u[i].dx(j)*dx + "
                                "f*v[i]*u[i]*dx\n"))
    assert len(cf.terms) == 2
    assert any(" = -" in ln for ln in block_lines(cf))
    assert any(" - " in ln for ln in block_lines(cf))
    assert_emitters_match(cf)


def test_non_unit_geometry_scalar_matches_reference():
    cf = compile_form(parse_one(HEADER + "a = 2.5*v[i]*u[i]*dx - "
                                "0.125*f*v[i].dx(j)*u[i].dx(j)*dx\n"))
    # the constants scale the stack values: -0.125 exactly, 2.5 to within
    # the rounding of each value
    units = [compile_form(parse_one(HEADER + "a = %s*dx\n" % text)).stacked
             for text in ("v[i]*u[i]", "f*v[i].dx(j)*u[i].dx(j)")]
    stacked = cf.stacked.toarray()
    width = units[0].shape[1]
    assert stacked.shape[1] == width + units[1].shape[1]
    assert np.allclose(stacked[:, :width], 2.5 * units[0].toarray(),
                       rtol=1e-15, atol=0)
    assert np.array_equal(stacked[:, width:], -0.125 * units[1].toarray())
    assert all(ln.split(" = ")[1].startswith("map->det")
               for ln in emit_c(cf).splitlines()
               if ln.startswith("    const double G"))
    assert_emitters_match(cf)


def test_form_without_terms_matches_reference():
    cf = compile_form(parse_one(HEADER + "a = v[i]*u[i]*dx - v[i]*u[i]*dx\n"))
    assert not cf.terms
    assert set(ln.split(" = ")[1] for ln in block_lines(cf)) == {"0.0;"}
    assert_emitters_match(cf)


@pytest.mark.parametrize("name,shape,degree", (
    ("navierstokes", "triangle", 2),
    ("elasticity", "tetrahedron", 1),
    ("poisson", "tetrahedron", 2),
))
def test_reread_form_matches_reference(name, shape, degree):
    for form in shipped_forms(name, shape, degree):
        again = read_raw(emit_raw(compile_form(form)))
        assert again.form is None
        assert_emitters_match(again)


def test_signed_zeros_and_repeats_match_reference():
    # a listing may carry explicit zeros, 0.0 and -0.0; the reader stores
    # neither, and the emitters match the reference on what is left
    lines = emit_raw(compile_form(parse_one(
        HEADER + "a = v[i]*u[i]*dx\n"))).splitlines()
    start = next(k for k, ln in enumerate(lines)
                 if ln.startswith("entries")) + 1
    for k, value in zip(range(start, start + 6),
                        ("0.0", "-0.0", "-0.0", "0.0", "-1.5", "1.5")):
        lines[k] = lines[k].rsplit(" ", 1)[0] + " " + value
    cf = read_raw("\n".join(lines) + "\n")
    assert cf.terms[0].matrix.nnz == int(lines[start - 1].split()[1]) - 4
    assert cf.terms[0].matrix.data[:2].tolist() == [-1.5, 1.5]
    assert_emitters_match(cf)


# --- repeated rows --------------------------------------------------------------


@pytest.mark.parametrize("degree", (1, 2, 3))
@pytest.mark.parametrize("shape", ("interval", "triangle", "tetrahedron"))
def test_shipped_linear_forms_match_the_per_entry_reference(shape, degree):
    # a load vector has no repeated rows and reads every G component, so
    # its C is what it was before rows were copied
    (form,) = [f for f in shipped_forms("poisson", shape, degree)
               if f.arity == 1]
    cf = compile_form(form)
    assert emit_c(cf) == reference_emit_c_per_entry(cf)
    assert emit_c(cf) == reference_emit_c(cf)


def test_interval_rows_copy_and_negate():
    (form,) = [f for f in shipped_forms("poisson", "interval", 1)
               if f.arity == 2]
    cf = compile_form(form)
    assert block_lines(cf)[1:] == ["    block[1] = -block[0];",
                                   "    block[2] = -block[0];",
                                   "    block[3] = block[0];"]
    assert_emitters_match(cf)


def test_copies_differ_from_the_per_entry_reference():
    (form,) = shipped_forms("mass", "triangle", 1)
    cf = compile_form(form)
    assert emit_c(cf) != reference_emit_c_per_entry(cf)
    assert sum(" = block[" in ln for ln in block_lines(cf)) == 7
