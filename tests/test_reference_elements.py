"""Reference cells, Lagrange elements, and simplex quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import exponents_upto, parse_one, simplex_integral
from exact_basis import fraction_basis
from formc.errors import (
    DimensionMismatch,
    PointOutsideCell,
    UnsupportedDegree,
    UnsupportedShape,
)
from formc.reference_elements import (
    ReferenceCell,
    make_lagrange,
    make_quadrature,
    make_vector_lagrange,
)

SHAPES = ("interval", "triangle", "tetrahedron")
DIM = {"interval": 1, "triangle": 2, "tetrahedron": 3}


def interior_points(rng, d, n=20):
    # Dirichlet samples give barycentric coordinates strictly inside.
    return rng.dirichlet(np.ones(d + 1), size=n)[:, :d]


# --- reference cells ---------------------------------------------------------


def test_cell_geometry():
    for shape in SHAPES:
        cell = ReferenceCell(shape)
        d = DIM[shape]
        assert cell.dim == d
        assert cell.vertices.shape == (d + 1, d)
        # vertex 0 at the origin, vertex k at unit coordinate k-1
        assert np.array_equal(cell.vertices[0], np.zeros(d))
        assert np.array_equal(cell.vertices[1:], np.eye(d))


def test_cell_contains():
    tri = ReferenceCell("triangle")
    assert tri.contains([0.5, 0.5]).all()
    assert tri.contains([0.0, 0.0]).all()
    assert not tri.contains([0.51, 0.5]).any()
    assert not tri.contains([-0.01, 0.2]).any()


def test_unknown_shape_rejected():
    with pytest.raises(UnsupportedShape):
        ReferenceCell("hexagon")
    with pytest.raises(UnsupportedShape):
        make_quadrature("square", 2)
    with pytest.raises(UnsupportedShape):
        make_lagrange("prism", 1)


# --- quadrature ---------------------------------------------------------------


def test_quadrature_point_count_and_weight_sum():
    for shape in SHAPES:
        d = DIM[shape]
        for p in range(11):
            rule = make_quadrature(shape, p)
            m = p // 2 + 1
            assert len(rule.weights) == m**d
            assert rule.points.shape == (m**d, d)
            assert rule.weights.sum() == pytest.approx(
                1.0 / math.factorial(d), abs=1e-14
            )


def test_quadrature_monomial_exactness():
    # every monomial with |alpha| <= p integrates to the closed-form value
    for shape in SHAPES:
        d = DIM[shape]
        for p in range(11):
            rule = make_quadrature(shape, p)
            for alpha in exponents_upto(d, p):
                vals = np.prod(rule.points ** np.asarray(alpha), axis=1)
                integral = float(vals @ rule.weights)
                assert integral == pytest.approx(
                    simplex_integral(alpha), abs=1e-13
                ), (shape, p, alpha)


def test_quadrature_single_point_rules():
    rule = make_quadrature("triangle", 1)
    assert len(rule.weights) == 1
    assert rule.weights[0] == pytest.approx(0.5, abs=1e-15)
    rule = make_quadrature("tetrahedron", 3)
    assert len(rule.weights) == 8


def test_quadrature_weights_positive():
    for shape in SHAPES:
        for p in (0, 5, 11, 17):
            assert (make_quadrature(shape, p).weights > 0).all()


def test_quadrature_deterministic():
    a = make_quadrature("tetrahedron", 5)
    b = make_quadrature("tetrahedron", 5)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.weights, b.weights)


def test_quadrature_rules_are_cached_and_read_only():
    rule = make_quadrature("triangle", 4)
    assert make_quadrature("triangle", 4) is rule
    assert not rule.points.flags.writeable
    assert not rule.weights.flags.writeable
    with pytest.raises(ValueError):
        rule.weights[0] = 1.0
    for _ in range(2):  # a failed call is not cached
        with pytest.raises(UnsupportedDegree):
            make_quadrature("triangle", -1)


# --- scalar Lagrange elements ---------------------------------------------------


def test_space_dimension():
    for shape in SHAPES:
        d = DIM[shape]
        for q in range(1, 9):
            e = make_lagrange(shape, q)
            assert e.space_dim == math.comb(q + d, d)
    assert make_lagrange("tetrahedron", 3).space_dim == 20


def test_node_ordering_vertices_then_edges():
    for shape in SHAPES:
        d = DIM[shape]
        e = make_lagrange(shape, 2)
        assert np.allclose(e.nodes[: d + 1], ReferenceCell(shape).vertices)
    # interval cubic: edge nodes ordered away from the lower-numbered vertex
    nodes = make_lagrange("interval", 3).nodes.ravel()
    assert np.allclose(nodes, [0.0, 1.0, 1 / 3, 2 / 3])
    # triangle quadratic: midpoints of the edges (0,1), (0,2), (1,2), in
    # lexicographic order
    nodes = make_lagrange("triangle", 2).nodes
    assert np.allclose(nodes[3:], [[0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])


def test_nodal_property():
    for shape in SHAPES:
        for q in range(1, 9):
            e = make_lagrange(shape, q)
            vals = e.tabulate(e.nodes).values
            assert np.allclose(vals, np.eye(e.space_dim), atol=1e-10), (shape, q)


def test_partition_of_unity(rng):
    for shape in SHAPES:
        d = DIM[shape]
        pts = interior_points(rng, d)
        for q in range(1, 9):
            vals = make_lagrange(shape, q).tabulate(pts).values
            assert np.allclose(vals.sum(axis=0), 1.0, atol=1e-12), (shape, q)


def test_p1_triangle_values_and_gradients():
    e = make_lagrange("triangle", 1)
    tab = e.tabulate([[1 / 3, 1 / 3], [0.2, 0.1]])
    assert np.allclose(tab.values[:, 0], [1 / 3, 1 / 3, 1 / 3], atol=1e-14)
    assert np.allclose(tab.values[:, 1], [0.7, 0.2, 0.1], atol=1e-14)
    expected = [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]
    for k in range(2):
        assert np.allclose(tab.gradients[:, :, k], expected, atol=1e-13)


def test_gradients_match_finite_differences(rng):
    h = 1e-6
    for shape in SHAPES:
        d = DIM[shape]
        # stay away from facets so the stencil remains inside the cell
        pts = 0.9 * interior_points(rng, d, n=8) + 0.1 / (d + 1)
        for q in (1, 2, 3, 4, 8):
            e = make_lagrange(shape, q)
            grads = e.tabulate(pts).gradients
            for a in range(d):
                shift = np.zeros(d)
                shift[a] = h
                fd = (
                    e.tabulate(pts + shift).values - e.tabulate(pts - shift).values
                ) / (2 * h)
                assert np.allclose(grads[:, a, :], fd, atol=1e-6), (shape, q, a)


def exact_tabulation(shape, q, points):
    """Exact values [n x npts] and gradients [n x d x npts] of the scalar
    basis at points given as Fractions, from the exact_basis reference."""
    out = []
    for derivative in (False, True):
        exponents, coefficients, denominator = fraction_basis(
            shape, q, derivative)
        monomials = np.array([[math.prod(x ** a for x, a in zip(p, alpha))
                               for p in points] for alpha in exponents],
                             dtype=object)
        exact = np.tensordot(coefficients, monomials, axes=([0], [0]))
        out.append(exact / denominator)
    return out


@pytest.mark.parametrize("shape,max_degree", (
    ("interval", 8), ("triangle", 8), ("tetrahedron", 5)))
def test_tabulation_matches_exact_basis(shape, max_degree, rng):
    d = DIM[shape]
    # dyadic interior points: exact as doubles and as Fractions
    ticks = rng.integers(1, 64, size=(200, d + 1))
    ticks = ticks[ticks.sum(axis=1) <= 64][:8, :d]
    points = [[Fraction(int(t), 64) for t in row] for row in ticks]
    for q in range(1, max_degree + 1):
        tab = make_lagrange(shape, q).tabulate(ticks / 64)
        values, gradients = exact_tabulation(shape, q, points)
        assert np.abs(tab.values - values.astype(float)).max() <= 1e-13, q
        assert np.abs(tab.gradients - gradients.astype(float)).max() <= 1e-12, q


def test_interpolation_reproduces_polynomials(rng):
    for shape in SHAPES:
        d = DIM[shape]
        pts = interior_points(rng, d)
        for q in range(1, 7):
            e = make_lagrange(shape, q)
            alphas = list(exponents_upto(d, q))
            coeffs = rng.uniform(-1, 1, len(alphas))

            def g(x):
                return sum(
                    c * np.prod(x ** np.asarray(a), axis=1)
                    for c, a in zip(coeffs, alphas)
                )

            dof_values = g(e.nodes)
            vals = e.tabulate(pts).values
            assert np.allclose(dof_values @ vals, g(pts), atol=1e-9), (shape, q)


def test_degree_zero_discontinuous():
    for shape in SHAPES:
        e = make_lagrange(shape, 0, "discontinuous")
        assert e.space_dim == 1
        tab = e.tabulate([ReferenceCell(shape).vertices.mean(axis=0)])
        assert np.allclose(tab.values, 1.0)
        assert np.allclose(tab.gradients, 0.0)


def test_discontinuous_positive_degree():
    e = make_lagrange("triangle", 2, "discontinuous")
    assert e.space_dim == 6
    assert e.continuity == "discontinuous"
    vals = e.tabulate(e.nodes).values
    assert np.allclose(vals, np.eye(6), atol=1e-10)


def test_tabulate_deterministic(rng):
    e = make_lagrange("tetrahedron", 4)
    pts = interior_points(rng, 3)
    a = e.tabulate(pts)
    b = e.tabulate(pts)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.gradients, b.gradients)


# --- vector Lagrange elements ----------------------------------------------------


def test_vector_element_structure():
    e = make_vector_lagrange("triangle", 2)
    assert e.space_dim == 12
    assert e.scalar_dim == 6
    assert e.components == 2
    tab = e.tabulate([[0.25, 0.25]])
    assert tab.values.shape == (12, 2, 1)
    assert tab.gradients.shape == (12, 2, 2, 1)
    # each basis function is supported in exactly one component
    for i in range(12):
        nonzero = np.abs(tab.values[i, :, 0]) > 1e-12
        assert nonzero.sum() <= 1
        if nonzero.any():
            assert nonzero.argmax() == i // 6


def test_vector_nodal_property():
    for shape in SHAPES:
        d = DIM[shape]
        for q in range(1, 5):
            e = make_vector_lagrange(shape, q)
            ns = e.scalar_dim
            vals = e.tabulate(e.nodes[:ns]).values
            for c in range(d):
                block = vals[c * ns : (c + 1) * ns, c, :]
                assert np.allclose(block, np.eye(ns), atol=1e-10)
                other = np.delete(vals, range(c * ns, (c + 1) * ns), axis=0)[:, c, :]
                assert np.allclose(other, 0.0, atol=1e-10)


def test_vector_partition_of_unity_per_component(rng):
    e = make_vector_lagrange("tetrahedron", 3)
    pts = interior_points(rng, 3)
    vals = e.tabulate(pts).values
    for c in range(3):
        total = vals[c * 20 : (c + 1) * 20, c, :].sum(axis=0)
        assert np.allclose(total, 1.0, atol=1e-12)


def test_elements_are_cached_and_read_only():
    text = ('element = VectorElement("Lagrange", "tetrahedron", 3)\n'
            "v = BasisFunction(element)\nu = BasisFunction(element)\n"
            "a = v[0]*u[0]*dx\n")
    first, second = (parse_one(text).arguments[0] for _ in range(2))
    assert first is second is make_vector_lagrange("tetrahedron", 3)
    assert make_lagrange("tetrahedron", 3) is make_lagrange(
        "tetrahedron", 3, "continuous")
    assert make_lagrange("tetrahedron", 3) is not first
    for array in (first.nodes, first.lattice, first.cell.vertices):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    for _ in range(2):  # a failed call is not cached
        with pytest.raises(UnsupportedDegree):
            make_lagrange("triangle", 9)
        with pytest.raises(ValueError, match="continuity"):
            make_vector_lagrange("triangle", 1, "broken")


# --- error conditions ------------------------------------------------------------


def test_unsupported_degrees():
    with pytest.raises(UnsupportedDegree):
        make_lagrange("triangle", 9)
    with pytest.raises(UnsupportedDegree):
        make_lagrange("triangle", -1)
    with pytest.raises(UnsupportedDegree):
        make_lagrange("triangle", 0)  # constants must be discontinuous
    with pytest.raises(UnsupportedDegree):
        make_vector_lagrange("tetrahedron", 9)


def test_tabulation_points_must_be_n_by_dim():
    e = make_lagrange("triangle", 1)
    for points in ([0.1, 0.1], [[0.1, 0.1, 0.2, 0.2]], [[0.1], [0.2]],
                   np.full((1, 2, 2), 0.1)):
        with pytest.raises(DimensionMismatch):
            e.tabulate(points)
    with pytest.raises(DimensionMismatch):
        make_vector_lagrange("tetrahedron", 2).tabulate([[0.1, 0.1]])
    assert e.tabulate(np.zeros((0, 2))).values.shape == (3, 0)


def test_point_outside_cell():
    e = make_lagrange("triangle", 1)
    with pytest.raises(PointOutsideCell):
        e.tabulate([[0.6, 0.61]])
    with pytest.raises(PointOutsideCell):
        e.tabulate([[-0.01, 0.5]])
    with pytest.raises(PointOutsideCell):
        make_lagrange("interval", 1).tabulate([[1.01]])
    # boundary points are inside the closed cell
    e.tabulate([[0.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
