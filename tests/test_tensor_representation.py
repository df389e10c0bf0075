"""Index classification, reference tensors, and geometry tensor expressions."""

import math
import os
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from conftest import parse_one, random_affine_map, run_limited, shipped_forms
from exact_basis import fraction_basis
from formc.cli_bench import form_text_with
from formc.codegen import emit_raw, read_raw
from formc.errors import (
    DimensionMismatch,
    FormcError,
    IndexOccursOnce,
    IndexOccursThrice,
    NonFiniteValue,
)
from formc.form_language import (
    BasisFunction,
    dx,
    expand_to_monomials,
    parse_form_file,
)
from formc.reference_elements import make_lagrange
from formc.runtime import quadrature_element_tensor, quadrature_element_tensors
from formc.tensor_representation import (
    CompiledForm,
    GeometryTensorExpr,
    KernelPlan,
    classify_indices,
    compile_form,
    compute_reference_tensor,
    derive_geometry_expr,
)


FORMS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "formc", "forms")


def form_text(kind, shape="triangle", degree=1):
    decls = {
        "mass": (
            'element = FiniteElement("Lagrange", "{s}", {q})\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "a = v*u*dx\n"
        ),
        "mass_w": (
            'element = FiniteElement("Lagrange", "{s}", {q})\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "f = Function(element)\n"
            "a = f*v*u*dx\n"
        ),
        "poisson": (
            'element = FiniteElement("Lagrange", "{s}", {q})\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "i = Index()\n"
            "a = v.dx(i)*u.dx(i)*dx\n"
        ),
        "fixed_direction": (
            'element = FiniteElement("Lagrange", "{s}", {q})\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "a = v.dx(0)*u*dx\n"
        ),
        "navierstokes": (
            'element = VectorElement("Lagrange", "{s}", {q})\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "w = Function(element)\n"
            "i = Index()\n"
            "j = Index()\n"
            "a = v[i]*w[j]*u[i].dx(j)*dx\n"
        ),
        "elasticity": (
            'element = VectorElement("Lagrange", "{s}", {q})\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "i = Index()\n"
            "j = Index()\n"
            "a = 0.25*(v[i].dx(j) + v[j].dx(i)) * "
            "(u[i].dx(j) + u[j].dx(i)) * dx\n"
        ),
    }
    return decls[kind].format(s=shape, q=degree)


def terms_of(kind, shape="triangle", degree=1):
    form = parse_one(form_text(kind, shape, degree))
    return [classify_indices(m) for m in expand_to_monomials(form)]


def assert_slots(term):
    """Classified indices carry their positions as values, and the geometry
    expression reads its slots from them."""
    for slots in (term.secondary, term.aux_a0, term.aux_g):
        assert [i.value for i in slots] == list(range(len(slots)))
    geo = derive_geometry_expr(term)
    assert [(r, k) for r, (_, k) in geo.transforms] == [
        (ref.value, x.value) for ref, x in term.transforms]
    assert [(c, k) for c, k, _ in geo.coeff_reads] == [
        (c, e.value) for c, e, _ in term.coeff_reads]


# --- index classification ------------------------------------------------------


def test_mass_classification():
    (term,) = terms_of("mass", degree=2)
    assert term.rank == 2
    assert term.primary_dims == (6, 6)
    assert term.secondary == ()
    assert term.aux_a0 == () and term.aux_g == ()
    assert term.transforms == () and term.coeff_reads == ()


def test_poisson_classification():
    (term,) = terms_of("poisson", "tetrahedron", 3)
    assert term.primary_dims == (20, 20)
    # one created reference direction per differentiated argument
    assert term.secondary_dims == (3, 3)
    # the repeated user index pairs two space directions inside G
    assert len(term.aux_g) == 1 and term.aux_g[0].range == 3
    assert term.aux_a0 == ()
    assert len(term.transforms) == 2


def test_navierstokes_classification():
    (term,) = terms_of("navierstokes", "tetrahedron", 1)
    assert term.primary_dims == (12, 12)
    # shared secondary order: the coefficient read over w's scalar basis,
    # then the created reference direction, in written factor order
    assert term.secondary_dims == (4, 3)
    # i sums v's and u's components inside A0; j pairs w's component with
    # u's derivative direction, both read by G, so it sums inside G
    assert len(term.aux_a0) == 1 and term.aux_a0[0].range == 3
    assert len(term.aux_g) == 1 and term.aux_g[0].range == 3
    assert len(term.coeff_reads) == 1
    assert len(term.transforms) == 1
    assert_slots(term)
    # u's reference direction (slot 1) and w's component both read the
    # summed direction b0; w's expansion index is slot 0
    assert derive_geometry_expr(term).transforms == ((1, ("b", 0)),)
    assert derive_geometry_expr(term).coeff_reads == ((0, 0, ("b", 0)),)


def test_classified_terms_are_values():
    # a monomial classified twice gives equal terms, and the ids of its
    # classified indices number them from 0 in the order made
    form = parse_one(form_text("navierstokes", "tetrahedron", 1))
    (monomial,) = expand_to_monomials(form)
    term = classify_indices(monomial)
    again = classify_indices(monomial)
    assert again == term and hash(again) == hash(term)
    made = term.secondary + term.aux_a0 + term.aux_g
    assert sorted(i.id for i in made) == list(range(len(made))) == [0, 1, 2, 3]


def test_elasticity_classification():
    form = parse_one(form_text("elasticity", "triangle", 1))
    monomials = expand_to_monomials(form)
    assert [m.scalar for m in monomials] == [0.25] * 4
    # the constant scales A0; the classified term and its G do not hold it
    terms = [classify_indices(m) for m in monomials]
    assert not hasattr(terms[0], "scalar")
    assert not hasattr(derive_geometry_expr(terms[0]), "scalar")
    geo_ranks = sorted(len(t.secondary) for t in terms)
    assert geo_ranks == [2, 2, 4, 4]
    aux = sorted((len(t.aux_a0), len(t.aux_g)) for t in terms)
    assert aux == [(0, 0), (0, 0), (1, 1), (1, 1)]
    for t in terms:
        assert_slots(t)
    # v[i].dx(j)*u[i].dx(j): i sums inside A0, j inside G, and the two
    # reference directions take secondary slots 0 and 1
    assert derive_geometry_expr(terms[0]).transforms == (
        (0, ("b", 0)), (1, ("b", 0)))


def test_index_occurrence_errors():
    bad_once = parse_one(
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "i = Index()\n"
        "a = v.dx(i)*u*dx\n"
    )
    with pytest.raises(IndexOccursOnce):
        [classify_indices(m) for m in expand_to_monomials(bad_once)]

    bad_thrice = parse_one(
        'element = VectorElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "i = Index()\n"
        "a = v[i]*u[i].dx(i)*dx\n"
    )
    with pytest.raises(IndexOccursThrice):
        [classify_indices(m) for m in expand_to_monomials(bad_thrice)]


def test_vector_factor_needs_component():
    form = parse_one(
        'element = VectorElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "i = Index()\n"
        "a = v[i]*u[i]*dx\n"
    )
    (good,) = [classify_indices(m) for m in expand_to_monomials(form)]
    assert len(good.aux_a0) == 1

    bad = parse_one(
        'element = VectorElement("Lagrange", "triangle", 1)\n'
        'scalar = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(scalar)\n"
        "a = v*u*dx\n"
    )
    with pytest.raises(DimensionMismatch):
        [classify_indices(m) for m in expand_to_monomials(bad)]


def test_second_derivatives_unsupported():
    e = make_lagrange("triangle", 2)
    v = BasisFunction(e)
    u = BasisFunction(e)
    form = (v.dx(0).dx(1) * u) * dx
    with pytest.raises(NotImplementedError):
        [classify_indices(m) for m in expand_to_monomials(form)]


def test_fixed_indices_allowed():
    form = parse_one(
        'element = FiniteElement("Lagrange", "triangle", 2)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "a = v.dx(0)*u.dx(0)*dx + v.dx(1)*u.dx(1)*dx\n"
    )
    terms = [classify_indices(m) for m in expand_to_monomials(form)]
    assert len(terms) == 2
    for t in terms:
        assert t.secondary_dims == (2, 2)
        assert t.aux_g == ()
        xs = [x for _, x in t.transforms]
        assert all(x.kind == "fixed" for x in xs)


# --- reference tensors ------------------------------------------------------------


def a0_values(term):
    """compute_reference_tensor's A0 as doubles."""
    numerators, denominator = compute_reference_tensor(term)
    return numerators / denominator


def test_p1_mass_reference_tensor():
    (term,) = terms_of("mass", degree=1)
    a0 = a0_values(term)
    expected = (np.ones((3, 3)) + np.eye(3)) / 24.0
    assert a0.shape == (3, 3)
    assert np.allclose(a0, expected, atol=1e-14)
    assert a0.ndim == 2 and term.rank == 2


def test_p1_poisson_reference_tensor():
    (term,) = terms_of("poisson", degree=1)
    a0 = a0_values(term)
    grads = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    expected = 0.5 * np.einsum("ia,jb->ijab", grads, grads)
    assert a0.shape == (3, 3, 2, 2)
    assert np.allclose(a0, expected, atol=1e-14)
    # G_10 equals G_01, so compile_form folds the (1, 0) column into the
    # (0, 1) one: 16 nonzeros become 15
    cf = compile_form(parse_one(form_text("poisson", degree=1)))
    assert cf.terms[0].matrix.nnz == 15
    dense = cf.terms[0].matrix.toarray()
    assert not dense[:, 2].any()
    assert np.allclose(dense[:, 1], (expected[..., 0, 1]
                                     + expected[..., 1, 0]).ravel(), atol=1e-14)


def test_p3_poisson_triangle_values():
    (term,) = terms_of("poisson", "triangle", 3)
    a0 = a0_values(term)
    flat = a0.reshape(100, 2, 2)
    assert abs(flat[0, 0, 0] - 4.25e-01) < 1e-9
    assert abs(flat[1, 0, 0] - (-8.75e-02)) < 1e-9
    assert abs(flat[99, 0, 0] - 4.05) < 1e-9
    assert abs(flat[99, 0, 1] - 2.025) < 1e-9
    # interactions of a vertex with the opposite-edge interior vanish
    zero_blocks = [k for k in range(100) if np.abs(flat[k]).max() < 1e-13]
    assert zero_blocks == [9, 19, 29, 90, 91, 92]


def test_reference_tensor_entries_read_only():
    (term,) = terms_of("mass", degree=1)
    numerators, denominator = compute_reference_tensor(term)
    assert numerators.dtype == np.int64 and denominator == 24
    with pytest.raises(ValueError):
        numerators[0, 0] = 1


def test_symmetry_of_symmetric_forms():
    for kind in ("mass", "poisson"):
        (term,) = terms_of(kind, "triangle", 2)
        a0 = a0_values(term)
        if kind == "mass":
            assert np.allclose(a0, a0.T, atol=1e-14)
        else:
            assert np.allclose(a0, a0.transpose(1, 0, 3, 2), atol=1e-13)


# --- geometry tensor expressions ----------------------------------------------


def test_rank_bookkeeping():
    for kind in ("mass", "mass_w", "poisson", "navierstokes", "elasticity"):
        for shape in ("triangle", "tetrahedron"):
            for q in (1, 2):
                for term in terms_of(kind, shape, q):
                    a0 = compute_reference_tensor(term)[0]
                    geo = derive_geometry_expr(term)
                    assert geo.rank == len(term.secondary)
                    assert a0.ndim == term.rank + geo.rank
                    assert geo.rank == (
                        geo.n_coefficient_slots + geo.n_transform_slots
                    )
                    assert a0.shape == term.primary_dims + geo.dims


def test_geometry_expr_atoms_match_evaluate(rng):
    # reference: the slot tuples read out one product at a time, summed over
    # the auxiliary assignments
    for kind, shape, q in (
        ("poisson", "triangle", 1),
        ("navierstokes", "tetrahedron", 1),
        ("elasticity", "triangle", 1),
        ("mass_w", "triangle", 2),
        ("mass", "tetrahedron", 1),  # rank 0
        ("fixed_direction", "triangle", 1),
        ("elasticity", "tetrahedron", 1),  # an auxiliary sum of 3
    ):
        for term in terms_of(kind, shape, q):
            geo = derive_geometry_expr(term)
            d = 2 if shape == "triangle" else 3
            amap = random_affine_map(rng, d)
            coeffs = [
                rng.uniform(-1, 1, (1, f.element.space_dim))
                for f in term.factors if f.kind == "coefficient"
            ]
            got = geo.evaluate([amap.det], [amap.g], coeffs)[0]
            for k, alpha in enumerate(geo.component_multiindices()):
                manual = 0.0
                for beta in product(*[range(n) for n in geo.aux_dims]):
                    piece = 1.0
                    for ref, (x_kind, x) in geo.transforms:
                        if x_kind != "f":
                            x = {"s": alpha, "b": beta}[x_kind][x]
                        piece *= amap.g[alpha[ref], x]
                    for c, slot, x in geo.coeff_reads:
                        dof = alpha[slot]
                        if x is not None:  # component x of a vector
                            x_kind, x = x
                            if x_kind != "f":
                                x = {"s": alpha, "b": beta}[x_kind][x]
                            dof += x * geo.dims[slot]
                        piece *= coeffs[c][0, dof]
                    manual += piece
                manual *= abs(amap.det)  # no constant: it scales A0
                assert got[k] == pytest.approx(manual, rel=1e-13, abs=1e-15)


def test_mass_geometry_is_det_only(rng):
    (term,) = terms_of("mass", degree=1)
    geo = derive_geometry_expr(term)
    assert geo.rank == 0 and geo.n_components == 1
    amap = random_affine_map(rng, 2)
    assert geo.evaluate([amap.det], [amap.g])[0, 0] == pytest.approx(
        abs(amap.det), rel=1e-15
    )


# --- nonzeros ---------------------------------------------------------------------


def test_p3_poisson_nonzero_count():
    # 252 nonzeros before the (1, 0) column folds into the (0, 1) one
    cf = compile_form(parse_one(form_text("poisson", "triangle", 3)))
    assert cf.terms[0].matrix.nnz == 190


# --- compiled forms ---------------------------------------------------------------


def test_compile_form_structure():
    cf = compile_form(parse_one(form_text("poisson", "triangle", 1)))
    assert isinstance(cf, CompiledForm)
    assert cf.arity == 2
    assert cf.primary_dims == (3, 3)
    assert cf.block_size == 9
    assert len(cf.terms) == 1


def test_compiled_matches_quadrature_oracle(rng):
    cases = (
        ("mass", "triangle", 2),
        ("poisson", "triangle", 3),
        ("poisson", "tetrahedron", 2),
        ("navierstokes", "tetrahedron", 1),
        ("elasticity", "triangle", 2),
        ("mass_w", "tetrahedron", 1),
    )
    for kind, shape, q in cases:
        form = parse_one(form_text(kind, shape, q))
        cf = compile_form(form)
        d = form.cell.dim
        for _ in range(3):
            amap = random_affine_map(rng, d)
            ws = [
                rng.uniform(-1, 1, el.space_dim) for el in form.coefficients
            ]
            got = cf.element_tensor(amap.det, amap.g, [w[None] for w in ws])
            want = quadrature_element_tensor(form, amap, ws)
            scale = max(np.abs(want).max(), 1e-12)
            assert np.abs(got - want).max() / scale < 1e-10, (kind, shape, q)


def test_batch_contraction_matches_single(rng):
    form = parse_one(form_text("elasticity", "triangle", 1))
    cf = compile_form(form)
    maps = [random_affine_map(rng, 2) for _ in range(5)]
    dets = [m.det for m in maps]
    gs = [m.g for m in maps]
    batch = cf.element_tensors(dets, gs)
    assert batch.shape == (5, 6, 6)
    for k, amap in enumerate(maps):
        single = cf.element_tensor(amap.det, amap.g)
        assert np.array_equal(batch[k], single)


def test_zero_form_compiles_to_no_terms(rng):
    form = parse_one(
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "a = v*u*dx - v*u*dx\n"
    )
    cf = compile_form(form)
    assert cf.terms == []
    assert cf.stacked.shape == (9, 0)
    amap = random_affine_map(rng, 2)
    assert np.array_equal(cf.element_tensor(amap.det, amap.g), np.zeros((3, 3)))
    for n in (0, 4):
        dets, gs, _ = random_cells(rng, form, n)
        assert np.array_equal(cf.element_tensors(dets, gs), np.zeros((n, 3, 3)))


@lru_cache(maxsize=None)
def compiled_shipped(name, shape, q):
    """(form, compiled, reread from its raw listing) per shipped form."""
    out = []
    for form in shipped_forms(name, shape, q):
        cf = compile_form(form)
        out.append((form, cf, read_raw(emit_raw(cf))))
    return out


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(("mass", "poisson", "navierstokes",
                             "elasticity")),
       shape=st.sampled_from(("interval", "triangle", "tetrahedron")),
       q=st.integers(1, 3), n=st.integers(0, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_contraction_is_batch_independent(name, shape, q, n, seed):
    rng = np.random.default_rng(seed)
    for form, cf, reread in compiled_shipped(name, shape, q):
        dets, gs, coeffs = random_cells(rng, form, n)
        got = cf.element_tensors(dets, gs, coeffs)
        assert got.shape == (n,) + cf.primary_dims
        for k in range(n):
            single = cf.element_tensor(dets[k], gs[k],
                                       [c[k:k + 1] for c in coeffs])
            assert np.array_equal(single, got[k])
        assert np.array_equal(reread.element_tensors(dets, gs, coeffs), got)
        few = min(n, 2)
        want = quadrature_element_tensors(form, dets[:few], gs[:few],
                                          [c[:few] for c in coeffs])
        assert np.abs(got[:few] - want).max(initial=0.0) <= 1e-10 * max(
            np.abs(want).max(initial=0.0), 1e-12)


# two auxiliary sums on a tetrahedron: nine products per G component
NINE_SUMS = ('element = FiniteElement("Lagrange", "tetrahedron", 1)\n'
             "v = BasisFunction(element)\nu = BasisFunction(element)\n"
             "w = Function(element)\ni = Index()\nj = Index()\n"
             "a = v.dx(i)*u.dx(i)*w.dx(j)*w.dx(j)*dx\n")


def test_eight_or_more_auxiliary_sums_are_batch_independent(rng):
    form = parse_one(NINE_SUMS)
    cf = compile_form(form)
    assert [ct.geometry.aux_dims for ct in cf.terms] == [(3, 3)]
    dets, gs, coeffs = random_cells(rng, form, 7)
    got = cf.element_tensors(dets, gs, coeffs)
    for k in range(7):
        assert np.array_equal(
            cf.element_tensor(dets[k], gs[k], [c[k:k + 1] for c in coeffs]),
            got[k])
    want = quadrature_element_tensors(form, dets, gs, coeffs)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_evaluate_gathers_one_factor_at_a_time(rng):
    # four transforms and two coefficient reads per product: gathering
    # them all at once would hold [ncells x S x n x 4] doubles
    form = parse_one(NINE_SUMS)
    (ct,) = compile_form(form).terms
    assert ct.geometry.expansion[0].shape[::2] == (9, 4)
    n = 2000
    dets, gs, coeffs = random_cells(rng, form, n)
    dets, gs = np.array(dets), np.array(gs)
    tracemalloc.start()
    try:
        got = ct.geometry.evaluate(dets, gs, coeffs, ct.used_components)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    layer = n * 9 * ct.used_components.size * got.itemsize
    assert peak < 3 * layer
    assert np.array_equal(got, ct.geometry.evaluate(
        dets, gs, coeffs)[:, ct.used_components])


@pytest.mark.parametrize("name,shape,q,form_name,distinct", (
    ("navierstokes", "tetrahedron", 1, "a", 17),
    ("navierstokes", "tetrahedron", 2, "a", 101),
    ("navierstokes", "tetrahedron", 3, "a", 401),
    ("poisson", "tetrahedron", 3, "a", 168),
    # the direct product: too few nonzeros repeat
    ("elasticity", "interval", 1, "a", None),
    ("poisson", "interval", 1, "L", None),
    ("poisson", "triangle", 2, "L", None),
    ("poisson", "tetrahedron", 3, "L", None),
    ("mass", "tetrahedron", 1, "a", None),
    ("mass", "tetrahedron", 3, "a", None),
))
def test_contraction_row_map(rng, name, shape, q, form_name, distinct):
    ((form, cf, reread),) = [c for c in compiled_shipped(name, shape, q)
                             if c[0].name == form_name]
    assert "plan" not in vars(compile_form(form))  # built lazily
    plan = cf.plan
    stacked = cf.stacked
    if distinct is None:
        assert plan.gather is None
        assert plan.a0 is stacked
    else:
        assert plan.a0.shape[0] == plan.rows.size == distinct
        assert stacked.nnz - plan.a0.nnz > cf.block_size
        # every block row is its distinct row, exactly
        assert np.array_equal(stacked.toarray(),
                              plan.a0.toarray()[plan.gather])
    dets, gs, coeffs = random_cells(rng, form, 6)
    got = cf.element_tensors(dets, gs, coeffs)
    # bitwise the product with the whole stack
    g = np.hstack([np.empty((6, 0))] + [ct.geometry.evaluate(
        dets, gs, coeffs, ct.used_components) for ct in cf.terms])
    assert np.array_equal(got.reshape(6, -1),
                          (stacked @ np.ascontiguousarray(g.T)).T)
    for k in range(6):
        assert np.array_equal(got[k], cf.element_tensor(
            dets[k], gs[k], [c[k:k + 1] for c in coeffs]))
    assert np.array_equal(reread.element_tensors(dets, gs, coeffs), got)


def test_kernel_plan():
    # rows of one stacked CSR as {column: value}: repeated, negated and
    # empty rows, and rows that hold the same values in other columns
    rows = [{1: 2.0, 3: -1.0}, {1: 2.0, 3: -1.0}, {1: -2.0, 3: 1.0}, {},
            {3: 7.0}, {8: 7.0}, {}, {8: -7.0}, {1: 2.0, 3: -1.0, 8: 7.0}]
    dense = np.zeros((len(rows), 10))
    for r, row in enumerate(rows):
        dense[r, list(row)] = list(row.values())
    stacked = csr_matrix(dense)
    plan = KernelPlan(stacked)
    # a row copies the first row equal to it, an empty row too; a negated
    # row is a row of its own
    assert plan.source.tolist() == [0, 0, 2, 3, 4, 5, 3, 7, 8]
    assert plan.rows.tolist() == [0, 2, 3, 4, 5, 7, 8]
    # the summed rows' nonzeros, as CSR arrays
    data, indices, indptr = plan.entries
    assert data.tolist() == [2.0, -1.0, -2.0, 1.0, 7.0, 7.0, -7.0, 2.0, -1.0,
                             7.0]
    assert indices.tolist() == [1, 3, 1, 3, 3, 8, 8, 1, 3, 8]
    assert indptr.tolist() == [0, 2, 4, 4, 5, 6, 7, 10]
    # 2 nonzeros outside the summed rows do not outnumber 9 rows, so
    # numpy multiplies the whole stack
    assert plan.gather is None and plan.a0 is stacked
    # four copies: 38 skipped nonzeros outnumber 36 rows, and numpy
    # multiplies the summed rows
    plan = KernelPlan(csr_matrix(np.vstack([dense] * 4)))
    assert plan.rows.tolist() == [0, 2, 3, 4, 5, 7, 8]
    assert plan.source.tolist() == [0, 0, 2, 3, 4, 5, 3, 7, 8] * 4
    assert plan.gather.tolist() == [0, 0, 1, 2, 3, 4, 2, 5, 6] * 4
    assert np.array_equal(plan.a0.toarray(), dense[plan.rows])
    # three copies save 26 of 27: numpy multiplies the whole stack
    assert KernelPlan(csr_matrix(np.vstack([dense] * 3))).gather is None
    # no rows, no plan
    plan = KernelPlan(csr_matrix((0, 0)))
    assert plan.source.tolist() == plan.rows.tolist() == []
    assert plan.gather is None


@pytest.mark.parametrize("kind,shape", (
    ("mass", "triangle"),  # no factor: scalar * |det| alone
    ("mass_w", "triangle"),  # the product starts from a coefficient read
    ("navierstokes", "tetrahedron"),
))
def test_evaluate_writes_into_a_strided_view(rng, kind, shape):
    form = parse_one(form_text(kind, shape, 2))
    for ct in compile_form(form).terms:
        used = ct.used_components
        dets, gs, coeffs = random_cells(rng, form, 5)
        dets, gs = np.array(dets), np.array(gs)
        buffer = np.full((used.size + 3, 5), np.nan).T  # column-major
        view = buffer[:, 2:2 + used.size]
        got = ct.geometry.evaluate(dets, gs, coeffs, used, out=view)
        assert got is view
        assert np.array_equal(view, ct.geometry.evaluate(dets, gs, coeffs,
                                                         used))
        assert np.isnan(buffer[:, :2]).all() and np.isnan(buffer[:, -1]).all()


def test_stacked_width_counts_only_read_components():
    (form,) = shipped_forms("navierstokes", "tetrahedron", 1)
    cf = compile_form(form)
    # the stack is built with the form; the contraction's plan waits for
    # the first contraction
    assert "stacked" in vars(cf) and "plan" not in vars(cf)
    (ct,) = cf.terms
    assert ct.geometry.n_components == 12
    assert ct.used_components.size == cf.stacked.shape[1] == 12
    assert not ct.used_components.flags.writeable
    assert set(ct.used_components.tolist()) == set(ct.matrix.indices.tolist())
    widths = [compile_form(f).stacked.shape[1]
              for q in (1, 2, 3)
              for name in ("mass", "poisson", "navierstokes", "elasticity")
              for f in shipped_forms(name, "tetrahedron", q)]
    assert len(widths) == 15
    assert sum(widths) == 310


def test_drop_tolerance_does_not_change_values(rng):
    # the thresholded CSR contracts like the dense, unthresholded A0
    form = parse_one(form_text("poisson", "triangle", 3))
    (term,) = [classify_indices(m) for m in expand_to_monomials(form)]
    amap = random_affine_map(rng, 2)
    a = compile_form(form).element_tensor(amap.det, amap.g)
    g = derive_geometry_expr(term).evaluate([amap.det], [amap.g])[0]
    b = np.einsum("ijk,k->ij", a0_values(term).reshape(10, 10, 4), g)
    assert np.abs(a - b).max() < 1e-12 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("numerators,denominator", (
    ([1, -7, 2 ** 53, 12345678901], 3 ** 33),  # IEEE division at 1.0
    ([2 ** 62 + 1, -(2 ** 60) - 3, 3, 3], 3 ** 40),  # int division
    ([2 ** 53 + 1, 1], 10),
    ([1, -3, 5], 7),  # IEEE division at 1.0, -0.25 and 2.5
))
def test_nonzeros_round_to_the_nearest_double(numerators, denominator):
    import formc.tensor_representation as tr

    for constant in (1.0, -0.25, 2.5, 0.1, 3e-300, 7e250):
        got = tr._rounded(np.array(numerators, dtype=np.int64), denominator,
                          constant)
        want = [float(Fraction(constant) * Fraction(n, denominator))
                for n in numerators]
        assert got.view(np.int64).tolist() == np.array(want).view(
            np.int64).tolist(), constant


def test_a_value_beyond_the_doubles_raises():
    import formc.tensor_representation as tr

    with pytest.raises(NonFiniteValue):
        tr._rounded(np.array([3]), 1, 1e308)
    text = form_text("mass").replace("a = v*u*dx", "a = 1e200*1e200*v*u*dx")
    with pytest.raises(NonFiniteValue):
        compile_form(parse_one(text))
    # each constant's value is a double, but their sum is not: on an
    # interval both monomials read dX/dx in the fixed direction 0
    text = form_text("poisson", "interval").replace(
        "a = v.dx(i)*u.dx(i)*dx",
        "a = 1.7e308*v.dx(0)*u.dx(0)*dx + 1.6e308*v.dx(i)*u.dx(i)*dx")
    with pytest.raises(NonFiniteValue):
        compile_form(parse_one(text))


@pytest.mark.parametrize("kind,text,n_terms,kept", (
    # 1e-323 times 1/12 or 1/24 rounds to 0.0, and to -0.0 for -1e-323
    ("mass", "1e-323*v*u*dx", 0, ()),
    ("mass", "-1e-323*v*u*dx", 0, ()),
    # 4e-323 / 12, on the diagonal, rounds to the least subnormal, and
    # 4e-323 / 24 to 0.0
    ("mass", "4e-323*v*u*dx", 1, (0, 4, 8)),
    # the mass term is gone, the Poisson term is whole
    ("poisson", "1e-323*v*u*dx + v.dx(i)*u.dx(i)*dx", 1, None),
), ids=("underflow", "negative-underflow", "partial", "mixed"))
def test_values_that_round_to_zero_are_not_stored(rng, kind, text, n_terms,
                                                  kept):
    decls = form_text(kind)
    form = parse_one(decls[:decls.index("a = ")] + "a = %s\n" % text)
    cf = compile_form(form)
    assert len(cf.terms) == n_terms
    assert cf.stacked.data.all()
    entries = [ln for ln in emit_raw(cf).splitlines()
               if ln[:1].isdigit() and len(ln.split()) == 3]
    assert all(float(ln.split()[-1]) != 0.0 for ln in entries)
    dets, gs, _ = random_cells(rng, form)
    got = cf.element_tensors(dets, gs)
    if kept is None:
        poisson = compile_form(parse_one(form_text("poisson")))
        assert cf.stacked.nnz == poisson.stacked.nnz
        assert np.array_equal(got, poisson.element_tensors(dets, gs))
    else:
        assert cf.stacked.nonzero()[0].tolist() == list(kept)
        assert np.array_equal(cf.stacked.data, [5e-324] * len(kept))
        assert got.shape == (4, 3, 3) and (got.any() == bool(kept))


def test_numerators_beyond_int64_raise(monkeypatch):
    import formc.tensor_representation as tr

    # 3 * 2**62 over the common denominator 3 does not fit
    with pytest.raises(FormcError):
        tr._exact_sum(np.array([2 ** 62]), 1, np.array([1]), 3)
    monkeypatch.setattr(tr, "_INT64_MAX", 1000)
    with pytest.raises(FormcError):
        compile_form(parse_one(form_text("mass", "interval", 7)))


def test_compile_form_rejects_non_form():
    with pytest.raises(TypeError):
        compile_form("a = v*u*dx")


def test_negative_orientation_uses_absolute_determinant(rng):
    form = parse_one(form_text("mass", "triangle", 1))
    cf = compile_form(form)
    amap = random_affine_map(rng, 2)
    plus = cf.element_tensor(amap.det, amap.g)
    minus = cf.element_tensor(-amap.det, amap.g)
    assert np.allclose(plus, minus, atol=1e-15)


# --- merged geometries --------------------------------------------------------------


def elasticity(shape, q):
    with open(os.path.join(FORMS_DIR, "elasticity.form")) as fh:
        return parse_one(form_text_with(fh.read(), q, shape))


def random_cells(rng, form, n=4):
    d = form.cell.dim
    maps = [random_affine_map(rng, d) for _ in range(n)]
    coeffs = [rng.uniform(-1, 1, (n, el.space_dim)) for el in form.coefficients]
    return [m.det for m in maps], [m.g for m in maps], coeffs


def test_elasticity_merges_to_two_terms():
    for shape, components in (("triangle", 20), ("tetrahedron", 90)):
        for q in (1, 2, 3):
            cf = compile_form(elasticity(shape, q))
            assert len(cf.terms) == 2, (shape, q)
            assert sum(ct.geometry.n_components for ct in cf.terms) == components


def test_per_monomial_listing_rereads_like_merged_compile(rng):
    # one raw block per monomial, the layout listings had before merging
    form = elasticity("tetrahedron", 2)
    entries = []
    for monomial in expand_to_monomials(form):
        term = classify_indices(monomial)
        geometry = derive_geometry_expr(term)
        values = monomial.scalar * a0_values(term).reshape(
            -1, geometry.n_components)
        positions = np.flatnonzero(values)
        entries.append((geometry, positions, values.ravel()[positions]))
    per_monomial = CompiledForm("a", form.cell, (30, 30), (), entries)
    reread = read_raw(emit_raw(per_monomial))
    assert len(reread.terms) == 4
    dets, gs, _ = random_cells(rng, form)
    want = compile_form(form).element_tensors(dets, gs)
    got = reread.element_tensors(dets, gs)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# Vector-valued monomials with the geometry class each one belongs to.  A
# collects an index renaming (v[i].dx(j)*u[i].dx(j) and its i <-> j swap)
# and two monomials with equal geometry that are not renamings of each other
# (v[0].dx(i)*u[0].dx(i) and v[1].dx(i)*u[1].dx(i)); the two of B have equal
# geometry and unequal constants, which scale A0, not G; D reads a
# coefficient.
MERGE_POOL = (
    ("v[0].dx(i)*u[0].dx(i)", "A"),
    ("v[1].dx(i)*u[1].dx(i)", "A"),
    ("v[i].dx(j)*u[i].dx(j)", "A"),
    ("v[j].dx(i)*u[j].dx(i)", "A"),
    ("0.5*v[i].dx(j)*u[j].dx(i)", "B"),
    ("v[j].dx(i)*u[i].dx(j)", "B"),
    ("w[i]*v[j]*u[j].dx(i)", "D"),
    ("w[j]*v[i]*u[i].dx(j)", "D"),
    ("v[i]*u[i]", "E"),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(picks=st.lists(st.sampled_from(MERGE_POOL), min_size=1, max_size=4,
                      unique=True),
       shape=st.sampled_from(("triangle", "tetrahedron")),
       q=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_equal_geometries_merge(picks, shape, q, seed):
    form = parse_one(
        'element = VectorElement("Lagrange", "%s", %d)\n' % (shape, q)
        + "v = BasisFunction(element)\nu = BasisFunction(element)\n"
        "w = Function(element)\ni = Index()\nj = Index()\n"
        "a = (%s)*dx\n" % " + ".join(text for text, _ in picks))
    cf = compile_form(form)
    keys = {derive_geometry_expr(classify_indices(m))
            for m in expand_to_monomials(form)}
    assert len(cf.terms) == len(keys) == len({c for _, c in picks})

    dets, gs, coeffs = random_cells(np.random.default_rng(seed), form)
    got = cf.element_tensors(dets, gs, coeffs)
    want = quadrature_element_tensors(form, dets, gs, coeffs)
    assert np.abs(got - want).max() <= 1e-10 * max(np.abs(want).max(), 1e-12)

    text = emit_raw(cf)
    reread = read_raw(text)
    assert emit_raw(reread) == text
    assert np.array_equal(reread.element_tensors(dets, gs, coeffs), got)


VECTOR_P2_TET = ('element = VectorElement("Lagrange", "tetrahedron", 2)\n'
                 "v = BasisFunction(element)\nu = BasisFunction(element)\n"
                 "i = Index()\nj = Index()\n")


def test_unequal_constants_share_one_geometry(rng):
    form = parse_one(VECTOR_P2_TET + "a = 0.5*v[i].dx(j)*u[j].dx(i)*dx + "
                     "v[j].dx(i)*u[i].dx(j)*dx\n")
    cf = compile_form(form)
    assert len(cf.terms) == 1
    assert cf.stacked.shape == (900, 45) and cf.stacked.nnz == 3240
    dets, gs, _ = random_cells(rng, form)
    want = quadrature_element_tensors(form, dets, gs, [])
    got = cf.element_tensors(dets, gs)
    assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("text", (
    VECTOR_P2_TET + "a = v[i].dx(j)*u[i].dx(j)*dx - v[j].dx(i)*u[j].dx(i)*dx\n",
    # on an interval every free index is the fixed index 0
    'P1 = VectorElement("Lagrange", "interval", 1)\n'
    'P2 = VectorElement("Lagrange", "interval", 2)\n'
    "v0 = BasisFunction(P1)\nv1 = BasisFunction(P1)\nw0 = Function(P2)\n"
    "i = Index()\n"
    "a = 3*v1[0].dx(0)*w0[0].dx(0)*v0[0]*dx"
    " - 3*v1[0].dx(0)*w0[0].dx(i)*v0[i]*dx\n",
), ids=("tetrahedron", "interval"))
def test_renamed_difference_cancels_exactly(rng, text):
    form = parse_one(text)
    cf = compile_form(form)
    assert cf.terms == []
    dets, gs, coeffs = random_cells(rng, form, 8)
    got = cf.element_tensors(dets, gs, coeffs)
    assert got.shape == (8,) + cf.primary_dims
    assert not got.any()


# --- equal G components and shared integrations ---------------------------------


def equal_components(geometry):
    """First component with the same sum of products, per component: each
    product a sorted tuple of its dXdx entries and its coefficient reads."""
    rows, cols, dofs = (a.tolist() for a in geometry.expansion)
    numbers = [c for c, *_ in geometry.coeff_reads]
    first = {}
    out = []
    for n in range(geometry.n_components):
        products = sorted(
            (tuple(sorted(zip(rows[s][n], cols[s][n]))),
             tuple(sorted(zip(numbers, dofs[s][n]))))
            for s in range(len(rows)))
        out.append(first.setdefault(tuple(products), n))
    return out


def per_monomial_matrices(form):
    """Dense A0 per term, integrating every monomial on its own: the exact
    sums over a common denominator, folded, each nonzero rounded as
    float(Fraction(constant) * Fraction).  Every shipped term has one
    constant."""
    groups = {}
    for monomial in expand_to_monomials(form):
        term = classify_indices(monomial)
        geometry = derive_geometry_expr(term)
        numerators, denominator = compute_reference_tensor(term)
        group = groups.setdefault(geometry,
                                  [geometry, 0, 1, monomial.scalar])
        assert group[3] == monomial.scalar
        common = math.lcm(group[2], denominator)
        group[1] = (group[1] * (common // group[2])
                    + numerators * (common // denominator))
        group[2] = common
    out = []
    for geometry, entries, denominator, constant in groups.values():
        flat = entries.reshape(-1, geometry.n_components)
        for n, rep in enumerate(equal_components(geometry)):
            if rep != n:
                flat[:, rep] += flat[:, n]
                flat[:, n] = 0
        dense = np.zeros(flat.shape)
        for r, c in zip(*flat.nonzero()):
            dense[r, c] = float(Fraction(constant)
                                * Fraction(int(flat[r, c]), denominator))
        out.append(dense)
    return out


@pytest.mark.parametrize("q", (1, 2, 3))
@pytest.mark.parametrize("shape", ("interval", "triangle", "tetrahedron"))
@pytest.mark.parametrize("name", ("mass", "poisson", "navierstokes",
                                  "elasticity"))
def test_shared_integrations_are_bitwise_per_monomial(name, shape, q):
    for form in shipped_forms(name, shape, q):
        cf = compile_form(form)
        want = per_monomial_matrices(form)
        assert len(cf.terms) == len(want)
        for ct, dense in zip(cf.terms, want):
            assert ct.matrix.toarray().tobytes() == dense.tobytes()
            assert (ct.geometry.representatives.tolist()
                    == equal_components(ct.geometry))


def expansion_key(geometry):
    """The byte key monomials were once grouped by: the expression's dims,
    coefficient numbers and expanded index arrays."""
    return (geometry.dims, tuple(c for c, *_ in geometry.coeff_reads),
            geometry.expansion[0].shape) + tuple(
                a.tobytes() for a in geometry.expansion)


def first_equal(items):
    """Position of the first item equal to each item."""
    first = {}
    return [first.setdefault(x, k) for k, x in enumerate(items)]


def assert_groups_match_expansion_bytes(cf):
    """Two monomials of cf have the same geometry expression exactly when
    their expansions have the same bytes, and cf's terms are the groups in
    first-occurrence order, less those that cancel."""
    geometries = [derive_geometry_expr(classify_indices(m))
                  for m in expand_to_monomials(cf.form)]
    assert (first_equal(map(expansion_key, geometries))
            == first_equal(geometries))
    terms = [ct.geometry for ct in cf.terms]
    assert terms == [g for g in dict.fromkeys(geometries) if g in terms]


@pytest.mark.parametrize("q", (1, 2, 3))
@pytest.mark.parametrize("shape", ("interval", "triangle", "tetrahedron"))
@pytest.mark.parametrize("name", ("mass", "poisson", "navierstokes",
                                  "elasticity"))
def test_geometry_expressions_are_values(name, shape, q):
    for _, cf, again in compiled_shipped(name, shape, q):
        assert len(again.terms) == len(cf.terms)
        for ct, reread in zip(cf.terms, again.terms):
            assert reread.geometry is not ct.geometry
            assert reread.geometry == ct.geometry
            assert hash(reread.geometry) == hash(ct.geometry)
        assert_groups_match_expansion_bytes(cf)


def test_a0_beyond_the_bound_is_refused_before_integration():
    # Navier-Stokes on a tetrahedron at q = 8 needs 495 * 495 * 165 * 3
    # A0 entries per monomial; the child may map 1 GiB, so integrating
    # fails there, not on the host
    with open(os.path.join(FORMS_DIR, "navierstokes.form")) as fh:
        text = form_text_with(fh.read(), 8, "tetrahedron")
    proc = run_limited("import sys\n"
                       "from formc.errors import UnsupportedDegree\n"
                       "from formc.form_language import parse_form_file\n"
                       "from formc.tensor_representation import compile_form\n"
                       "(form,) = parse_form_file(sys.stdin.read())\n"
                       "try:\n"
                       "    compile_form(form)\n"
                       "except UnsupportedDegree as exc:\n"
                       "    print(exc)\n", stdin=text)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("a monomial's reference tensor has more than "
                           "67108864 entries\n")


def test_element_tensor_beyond_the_row_bound_is_refused():
    # a trilinear P8 form on a tetrahedron has 165^3 block rows, beyond
    # MAX_BLOCK_ROWS: it is refused before any monomial is integrated, in
    # a child that may map 1 GiB
    text = ('element = FiniteElement("Lagrange", "tetrahedron", 8)\n'
            "v = BasisFunction(element)\nu = BasisFunction(element)\n"
            "t = BasisFunction(element)\na = v*u*t*dx\n")
    proc = run_limited("import sys\n"
                       "from formc.errors import UnsupportedDegree\n"
                       "from formc.form_language import parse_form_file\n"
                       "from formc.tensor_representation import compile_form\n"
                       "(form,) = parse_form_file(sys.stdin.read())\n"
                       "try:\n"
                       "    compile_form(form)\n"
                       "except UnsupportedDegree as exc:\n"
                       "    print(exc)\n", stdin=text)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "element tensor too large\n"


def test_renamed_monomials_integrate_once():
    from formc.tensor_representation import _scalar_integrals

    form = elasticity("tetrahedron", 2)
    _scalar_integrals.cache_clear()
    compile_form(form)
    # all four monomials multiply the same two gradient factors
    assert len(expand_to_monomials(form)) == 4
    assert _scalar_integrals.cache_info().misses == 1


@pytest.mark.parametrize("name,kept", (
    ("mass", [1]),
    ("poisson", [6]),
    ("navierstokes", [12]),
    ("elasticity", [6, 45]),
))
def test_equal_components_fold_on_tetrahedra(name, kept):
    (form,) = [f for f in shipped_forms(name, "tetrahedron", 1)
               if f.arity == 2]
    cf = compile_form(form)
    distinct = [len(set(ct.geometry.representatives.tolist()))
                for ct in cf.terms]
    assert distinct == kept
    # A0 reads no folded component
    for ct in cf.terms:
        rep = ct.geometry.representatives
        assert (rep[ct.matrix.indices] == ct.matrix.indices).all()


# Two vector coefficients on P1 triangles: a component read's dof runs to
# d * n - 1 = 5, past every secondary extent (3), so the codes that tell the
# products apart must be wider than the extents.
TWO_VECTORS = ('P = FiniteElement("Lagrange", "triangle", 1)\n'
               'V = VectorElement("Lagrange", "triangle", 1)\n'
               "v = BasisFunction(P)\nu = BasisFunction(P)\n"
               "w = Function(V)\nz = Function(V)\nj = Index()\n")


@pytest.mark.parametrize("integrand,kept", (
    ("v*w[j]*z[j]*u*dx", 9),
    ("v*w[j]*w[j]*u*dx", 6),  # sum_b w[b n + a] w[b n + c] is symmetric
    ("v*w[j]*z[j]*u*dx + v*z[0]*z[1]*u*dx", 9),
    # codes of width 3 would make w[3 + a] z[c] and w[3 + c] z[a] equal
    ("v*w[1]*z[0]*u*dx", 9),
))
def test_component_reads_fold_like_sorted_products(rng, integrand, kept):
    form = parse_one(TWO_VECTORS + "a = %s\n" % integrand)
    cf = compile_form(form)
    for ct in cf.terms:
        geometry = ct.geometry
        assert geometry.dims == (3, 3) and geometry.expansion[2].max() == 5
        assert (geometry.representatives.tolist()
                == equal_components(geometry))
    assert cf.terms[0].used_components.size == kept
    dets, gs, coeffs = random_cells(rng, form, 6)
    got = cf.element_tensors(dets, gs, coeffs)
    want = quadrature_element_tensors(form, dets, gs, coeffs)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    reread = read_raw(emit_raw(cf))
    assert np.array_equal(reread.element_tensors(dets, gs, coeffs), got)


# --- exact values against an independent integrator ------------------------------
#
# The reference below takes each element's exact basis from exact_basis,
# integrates monomials in the reference coordinates X with
# integral X^gamma = gamma! / (|gamma| + d)!, and lays the scalar integrals
# out entry by entry from the classified factors.  It uses no formc code
# beyond the element's nodes and the index classification.


@lru_cache(maxsize=None)
def fraction_scalar_integrals(shape, factors):
    """(numerators, denominator) of the integral of every product of the
    (degree, derivative) factors' basis functions, axes as the factors'."""
    parts = [fraction_basis(shape, q, der) for q, der in factors]
    d = len(parts[0][0][0])
    total = sum(max(map(sum, exps)) for exps, _, _ in parts)
    scale = math.factorial(total + d)
    moments = np.zeros([len(exps) for exps, _, _ in parts], dtype=object)
    for idx in product(*(range(len(exps)) for exps, _, _ in parts)):
        gamma = [sum(g) for g in zip(*(exps[k] for k, (exps, _, _)
                                       in zip(idx, parts)))]
        moments[idx] = (math.prod(map(math.factorial, gamma)) * scale
                        // math.factorial(sum(gamma) + d))
    out = moments
    for _, coefficients, _ in parts:
        out = np.tensordot(out, coefficients, axes=([0], [0]))
    return out, scale * math.prod(den for _, _, den in parts)


def fraction_reference_tensor(term):
    """(numerators, denominator) of a classified monomial's A0, entry by
    entry: each factor reads its dof and direction, and each argument its
    component, from the entry's multi-index, summed over the auxiliary
    components."""
    scalars, denominator = fraction_scalar_integrals(
        term.cell.shape,
        tuple((f.element.degree, bool(f.derivatives)) for f in term.factors))
    grid = np.indices(term.primary_dims + term.secondary_dims)
    out = np.zeros(grid.shape[1:], dtype=object)
    for aux in product(range(term.cell.dim), repeat=len(term.aux_a0)):
        index, mask = [], np.ones(grid.shape[1:], dtype=bool)
        for f in term.factors:
            dof = grid[f.slot if f.expansion is None
                       else term.rank + f.expansion.value]
            # a coefficient's expansion index runs over its scalar basis
            if f.element.value_rank and f.expansion is None:
                c, n = f.component, f.element.scalar_dim
                comp = (c.value if c.kind == "fixed" else aux[c.value]
                        if c.kind == "auxiliary" else grid[term.rank + c.value])
                mask &= dof // n == comp
                dof = dof % n
            index.append(dof)
            index.extend(grid[term.rank + i.value] for i in f.derivatives)
        out += np.where(mask, scalars[tuple(index)], 0)
    return out, denominator


def fraction_terms(form):
    """Per compiled term: its folded A0 as (numerators [block x N],
    denominator), the monomials of equal geometry, each times its
    constant, summed exactly.  Terms whose monomials have one constant
    are stored as these rationals rounded."""
    groups = {}
    for monomial in expand_to_monomials(form):
        term = classify_indices(monomial)
        geometry = derive_geometry_expr(term)
        numerators, denominator = fraction_reference_tensor(term)
        constant = Fraction(monomial.scalar)
        numerators = numerators * constant.numerator
        denominator *= constant.denominator
        group = groups.setdefault(geometry, [geometry, 0, 1])
        common = math.lcm(group[2], denominator)
        group[1] = (group[1] * (common // group[2])
                    + numerators * (common // denominator))
        group[2] = common
    out = []
    for geometry, numerators, denominator in groups.values():
        flat = numerators.reshape(-1, geometry.n_components)
        for n, rep in enumerate(equal_components(geometry)):
            if rep != n:
                flat[:, rep] += flat[:, n]
                flat[:, n] = 0
        out.append((flat, denominator))
    return out


EXACT_CASES = [(kind, shape, q) for kind in ("mass", "poisson")
               for shape in ("triangle", "tetrahedron") for q in range(1, 7)
               ] + [(kind, shape, q) for kind in ("navierstokes", "elasticity")
                    for shape in ("triangle", "tetrahedron") for q in (1, 2)]


@pytest.mark.parametrize("kind,shape,q", EXACT_CASES)
def test_stored_values_are_the_nearest_doubles(kind, shape, q):
    cf = compile_form(parse_one(form_text(kind, shape, q)))
    want = fraction_terms(cf.form)
    assert len(cf.terms) == len(want)
    for ct, (numerators, denominator) in zip(cf.terms, want):
        m = ct.matrix
        # every nonzero rational is stored, and nothing else
        assert np.array_equal(m.toarray() != 0, numerators != 0)
        assert m.nnz == np.count_nonzero(numerators != 0)
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        fractions = [Fraction(int(n), denominator)
                     for n in numerators[rows, m.indices].tolist()]
        nearest = np.array([float(f) for f in fractions])
        assert nearest.view(np.int64).tolist() == m.data.view(
            np.int64).tolist()
        # equal rationals are one double: as many values as fractions
        assert np.unique(m.data).size == len(set(fractions))
    if (kind, shape, q) == ("mass", "tetrahedron", 3):
        assert len(set(fractions)) == 13


# --- the folded Navier-Stokes contraction against exact arithmetic --------------
#
# The reference keeps the unfolded representation of v[i]*w[j]*u[i].dx(j)*dx:
# an A0 column for each dof e of w and reference direction r, masked to the
# entries whose v and u dofs share a component, and G[e, r] = |det| w_e
# dX_r/dx_c(e), c(e) being the component of dof e.  It calls no
# classify_indices; the inputs, taken as exact rationals, are contracted in
# fractions.


@lru_cache(maxsize=None)
def unfolded_navierstokes_a0(q):
    """(numerators [block x 3 d n], denominator) of the unfolded A0 on a
    tetrahedron, columns ordered (e, r) with r fastest."""
    scalars, denominator = fraction_scalar_integrals(
        "tetrahedron", ((q, False), (q, False), (q, True)))
    n, d = scalars.shape[0], 3
    s, c = np.arange(d * n) % n, np.arange(d * n) // n
    # axes [v dof, u dof, w dof e, r]; scalars' are [v, w, u, r]
    a0 = scalars[s[:, None, None], s[None, None, :], s[None, :, None]]
    a0 = a0 * (c[:, None] == c[None, :])[:, :, None, None]
    return a0.reshape((d * n) ** 2, -1), denominator


@pytest.mark.parametrize("q", (1, 2))
def test_folded_navierstokes_is_within_the_exact_bound(rng, q):
    (form,) = shipped_forms("navierstokes", "tetrahedron", q)
    cf = compile_form(form)
    reread = read_raw(emit_raw(cf))
    a0, denominator = unfolded_navierstokes_a0(q)
    n_terms = a0.shape[1]
    n = n_terms // 9
    dets, gs, coeffs = random_cells(rng, form, 4)
    paths = [path.element_tensors(dets, gs, coeffs).reshape(4, -1)
             for path in (cf, reread)]
    eps = Fraction(2) ** -52
    for k in range(4):
        det = abs(Fraction(dets[k]))
        g = [[Fraction(x) for x in row] for row in gs[k].tolist()]
        w = [Fraction(x) for x in coeffs[0][k].tolist()]
        geometry = np.array([det * w[e] * g[r][e // n]
                             for e in range(3 * n) for r in range(3)],
                            dtype=object)
        exact = a0.dot(geometry) / denominator
        magnitude = np.abs(a0).dot(np.abs(geometry)) / denominator
        for got in paths:
            for value, want, size in zip(got[k].tolist(), exact.tolist(),
                                         magnitude.tolist()):
                assert abs(Fraction(value) - want) <= (
                    4 * n_terms * eps * size)
