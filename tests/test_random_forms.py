"""Randomised well-formed forms against the quadrature oracle, the raw
round trip and the emitted C."""

import pathlib
import shutil
import tempfile
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import parse_one
from formc.codegen import emit_c, emit_latex, emit_raw, read_raw
from formc.runtime import quadrature_element_tensors
from formc.tensor_representation import compile_form
from test_codegen import assert_c_matches_numpy, assert_one_row_rule
from test_tensor_representation import (
    assert_groups_match_expansion_bytes,
    random_cells,
)

SHAPES = {"interval": 1, "triangle": 2, "tetrahedron": 3}

# the product of the space dimensions of a form's elements stays below
# this, so that a term's dense A0 stays small
ELEMENT_BUDGET = 600


def space_dim(d, vector, q):
    return comb(q + d, d) * (d if vector else 1)


@st.composite
def elements(draw, d, n):
    """n (vector, degree) pairs, degree 1..3, within ELEMENT_BUDGET."""
    out, size = [], 1
    for k in range(n):
        # room is left for the smallest element in each later draw
        options = [(vector, q) for vector in (False, True) for q in (1, 2, 3)
                   if size * space_dim(d, vector, q) * (d + 1) ** (n - 1 - k)
                   <= ELEMENT_BUDGET]
        vector, q = draw(st.sampled_from(options))
        out.append((vector, q))
        size *= space_dim(d, vector, q)
    return out


@st.composite
def terms(draw, d, factors, t):
    """One product of every argument and some coefficients, with an
    optional derivative per factor and a component per vector factor;
    each free index occurs exactly twice."""
    factors = draw(st.permutations(factors))
    # per factor: [name, component slot or None, derivative slot or None]
    parts = [[name, "c" if vector else None, draw(st.sampled_from(
        (None, "d")))] for name, vector in factors]
    slots = [(k, s) for k, part in enumerate(parts) for s in (1, 2)
             if part[s] is not None]
    free = [slot for slot in slots if draw(st.booleans())]
    free = draw(st.permutations(free[:len(free) // 2 * 2]))
    for k, s in slots:
        parts[k][s] = str(draw(st.integers(0, d - 1)))
    indices = []
    for a in range(0, len(free), 2):
        indices.append("i%d_%d" % (t, a // 2))
        for k, s in free[a:a + 2]:
            parts[k][s] = indices[-1]
    text = "*".join(name + ("[%s]" % c if c else "")
                    + (".dx(%s)" % x if x else "") for name, c, x in parts)
    scalar = draw(st.sampled_from(("", "0.5*", "3*")))
    return indices, scalar + text + "*dx"


@st.composite
def well_formed_forms(draw):
    """Form file text: one cell, 1-2 arguments, 0-2 coefficients and 1-3
    terms."""
    shape = draw(st.sampled_from(sorted(SHAPES)))
    d = SHAPES[shape]
    n_args, n_coeffs = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    lines, names = [], []
    for k, (vector, q) in enumerate(draw(elements(d, n_args + n_coeffs))):
        lines.append('e%d = %s("Lagrange", "%s", %d)' % (
            k, "VectorElement" if vector else "FiniteElement", shape, q))
        names.append(("v%d" % k, vector) if k < n_args
                     else ("w%d" % (k - n_args), vector))
        lines.append("%s = %s(e%d)" % (
            names[-1][0], "BasisFunction" if k < n_args else "Function", k))
    products = []
    for t in range(draw(st.integers(1, 3))):
        coefficients = [c for c in names[n_args:] if draw(st.booleans())]
        indices, text = draw(terms(d, names[:n_args] + coefficients, t))
        lines.extend("%s = Index()" % i for i in indices)
        products.append(draw(st.sampled_from(("+", "-"))) + " " + text)
    lines.append("a = " + " ".join(products).lstrip("+ "))
    return "\n".join(lines) + "\n"


@settings(max_examples=50, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=well_formed_forms())
def test_random_forms_match_the_oracle_and_reread(text):
    form = parse_one(text)
    cf = compile_form(form)
    rng = np.random.default_rng(7)
    dets, gs, coeffs = random_cells(rng, form, 3)
    got = cf.element_tensors(dets, gs, coeffs)
    want = quadrature_element_tensors(form, dets, gs, coeffs)
    # terms may cancel, as v[0]*w.dx(0) and -v[i]*w.dx(i) on an interval
    # do, so the error is measured against the form with every term added
    added = parse_one(text.replace("a = - ", "a = ").replace(" - ", " + "))
    scale = np.abs(quadrature_element_tensors(
        added, dets, gs, coeffs if added.coefficients == form.coefficients
        else random_cells(rng, added, 3)[2])).max()
    assert np.abs(got - want).max() <= 1e-10 * max(np.abs(want).max(), scale,
                                                   1e-12)
    assert_groups_match_expansion_bytes(cf)
    again = read_raw(emit_raw(cf))
    # the stack stores no zero, every column and every term holds a
    # nonzero, and a reread stack is the same, bit for bit
    stack = cf.stacked
    assert stack.data.all()
    assert np.bincount(stack.indices, minlength=stack.shape[1]).all()
    assert all(ct.columns.stop > ct.columns.start for ct in cf.terms)
    assert again.stacked.data.tobytes() == stack.data.tobytes()
    assert np.array_equal(again.stacked.indices, stack.indices)
    assert np.array_equal(again.stacked.indptr, stack.indptr)
    assert np.array_equal(again.element_tensors(dets, gs, coeffs), got)
    for emit in (emit_c, emit_raw, emit_latex):
        assert emit(again) == emit(cf)
    assert_one_row_rule(cf)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
@settings(max_examples=5, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=well_formed_forms())
def test_random_forms_c_matches_numpy(text):
    with tempfile.TemporaryDirectory() as tmp:
        assert_c_matches_numpy(parse_one(text), pathlib.Path(tmp),
                               np.random.default_rng(11))
