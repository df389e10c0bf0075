"""Reference cells, simplex quadrature and Lagrange elements.

The reference cells are the unit simplices

    interval      [0, 1]
    triangle      vertices (0,0), (1,0), (0,1)
    tetrahedron   vertices (0,0,0), (1,0,0), (0,1,0), (0,0,1)

Quadrature rules are tensor-product Gauss-Jacobi rules mapped to the simplex
through the collapsed (Duffy) transform.  Nodal Lagrange bases are obtained
by inverting a generalized Vandermonde matrix of an orthonormal modal basis
at the equispaced lattice nodes; the modal basis keeps the Vandermonde well
conditioned up to the supported degree.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np
from scipy.special import eval_jacobi, roots_jacobi

from .errors import PointOutsideCell, UnsupportedDegree, UnsupportedShape

MAX_DEGREE = 8

CELL_SHAPES = ("interval", "triangle", "tetrahedron")  # of dimension 1..3
_SHAPE_DIM = {shape: d for d, shape in enumerate(CELL_SHAPES, 1)}

_GEOMETRY_TOL = 1e-10


class ReferenceCell:
    """Unit simplex of dimension 1, 2 or 3."""

    def __init__(self, shape):
        if shape not in _SHAPE_DIM:
            raise UnsupportedShape("unknown cell shape %r" % (shape,))
        self.shape = shape
        self.dim = _SHAPE_DIM[shape]
        self.vertices = np.zeros((self.dim + 1, self.dim))
        for i in range(self.dim):
            self.vertices[i + 1, i] = 1.0
        self.vertices.flags.writeable = False

    def entities(self, dim):
        """Sub-entities of dimension ``dim`` as sorted local vertex tuples."""
        if dim < 0 or dim > self.dim:
            raise ValueError("no entities of dimension %d" % dim)
        return tuple(combinations(range(self.dim + 1), dim + 1))

    @property
    def volume(self):
        return 1.0 / math.factorial(self.dim)

    def contains(self, points, tol=_GEOMETRY_TOL):
        """True for each point inside the closed cell (within ``tol``)."""
        pts = np.atleast_2d(points)
        inside = np.all(pts >= -tol, axis=1)
        return inside & (pts.sum(axis=1) <= 1.0 + tol)

    def __repr__(self):
        return "ReferenceCell(%r)" % self.shape

    def __eq__(self, other):
        return isinstance(other, ReferenceCell) and other.shape == self.shape

    def __hash__(self):
        return hash(("ReferenceCell", self.shape))


# --- quadrature -------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights integrating polynomials on a reference cell.

    Exact for all polynomials of total degree <= ``exact_degree``; the
    weights sum to the cell volume 1/d!.
    """

    cell: ReferenceCell
    exact_degree: int
    points: np.ndarray
    weights: np.ndarray

    @property
    def num_points(self):
        return self.points.shape[0]


@lru_cache(maxsize=64)
def make_quadrature(shape, degree):
    """Gauss-Jacobi rule on the unit simplex, exact through ``degree``.

    Uses m = degree//2 + 1 points per direction.  Direction i of the
    collapsed cube carries the Jacobi weight (1-u)^(d-1-i) that the Duffy
    transform produces, so every direction is integrated by a rule matched
    to its weight function.  Rules are cached; their arrays are read-only.
    """
    cell = ReferenceCell(shape)
    if degree < 0:
        raise UnsupportedDegree("quadrature degree must be nonnegative")
    d = cell.dim
    m = degree // 2 + 1
    nodes_1d = []
    weights_1d = []
    for i in range(d):
        alpha = d - 1 - i
        x, w = roots_jacobi(m, alpha, 0.0)
        # map [-1, 1] with weight (1-x)^alpha onto [0, 1] with (1-u)^alpha
        nodes_1d.append((x + 1.0) / 2.0)
        weights_1d.append(w / 2.0 ** (alpha + 1))

    grids = np.meshgrid(*nodes_1d, indexing="ij")
    u = np.stack([g.reshape(-1) for g in grids], axis=1)
    wgrids = np.meshgrid(*weights_1d, indexing="ij")
    weights = np.ones(u.shape[0])
    for g in wgrids:
        weights = weights * g.reshape(-1)

    # Duffy map: X_i = u_i * prod_{k<i} (1 - u_k)
    points = np.empty_like(u)
    shrink = np.ones(u.shape[0])
    for i in range(d):
        points[:, i] = u[:, i] * shrink
        shrink = shrink * (1.0 - u[:, i])

    points.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(cell, degree, points, weights)


# --- orthonormal modal basis ------------------------------------------------


def _jacobi(n, a, x):
    return eval_jacobi(n, a, 0.0, x)


def _jacobi_deriv(n, a, x):
    if n == 0:
        return np.zeros_like(x)
    return 0.5 * (n + a + 1.0) * eval_jacobi(n - 1, a + 1.0, 1.0, x)


def _collapsed_group(s, eta, order, alpha):
    """Value and partials of eta^order * P_order^(alpha,0)(2 s/eta - 1).

    Returns (V, dV/ds, dV/deta).  The quotient 2s/eta - 1 degenerates where
    eta = 0; the limiting value -1 is substituted there, which reproduces
    the polynomial limit because every singular term carries a vanishing
    power of eta.
    """
    safe = eta > 1e-13
    t = np.where(safe, 2.0 * s / np.where(safe, eta, 1.0) - 1.0, -1.0)
    P = _jacobi(order, alpha, t)
    if order == 0:
        zero = np.zeros_like(s)
        return np.ones_like(s), zero, zero
    dP = _jacobi_deriv(order, alpha, t)
    eta_pm1 = eta ** (order - 1)
    V = eta_pm1 * eta * P
    V_s = 2.0 * eta_pm1 * dP
    V_eta = eta_pm1 * (order * P - (t + 1.0) * dP)
    return V, V_s, V_eta


def _modal_indices(shape, degree):
    d = _SHAPE_DIM[shape]
    out = []
    for total in range(degree + 1):
        if d == 1:
            out.append((total,))
        elif d == 2:
            for p in range(total, -1, -1):
                out.append((p, total - p))
        else:
            for p in range(total, -1, -1):
                for q in range(total - p, -1, -1):
                    out.append((p, q, total - p - q))
    return out


def _tabulate_modal(shape, degree, points):
    """Orthonormal modal basis values and gradients at ``points``.

    Returns (phi [modes x npts], dphi [modes x dim x npts]).
    """
    d = _SHAPE_DIM[shape]
    pts = np.asarray(points, dtype=float).reshape(-1, d)
    npts = pts.shape[0]
    modes = _modal_indices(shape, degree)
    phi = np.empty((len(modes), npts))
    dphi = np.empty((len(modes), d, npts))

    if d == 1:
        t = 2.0 * pts[:, 0] - 1.0
        for k, (p,) in enumerate(modes):
            scale = np.sqrt(2.0 * p + 1.0)
            phi[k] = scale * _jacobi(p, 0.0, t)
            dphi[k, 0] = scale * 2.0 * _jacobi_deriv(p, 0.0, t)
        return phi, dphi

    if d == 2:
        x, y = pts[:, 0], pts[:, 1]
        eta = 1.0 - y
        c = 2.0 * y - 1.0
        for k, (p, q) in enumerate(modes):
            scale = np.sqrt((2.0 * p + 1.0) * (2.0 * p + 2.0 * q + 2.0))
            U, U_s, U_eta = _collapsed_group(x, eta, p, 0.0)
            a = 2.0 * p + 1.0
            W = _jacobi(q, a, c)
            dW = _jacobi_deriv(q, a, c)
            phi[k] = scale * U * W
            dphi[k, 0] = scale * U_s * W
            dphi[k, 1] = scale * (-U_eta * W + U * 2.0 * dW)
        return phi, dphi

    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    eta1 = 1.0 - y - z
    eta2 = 1.0 - z
    c = 2.0 * z - 1.0
    for k, (p, q, r) in enumerate(modes):
        scale = np.sqrt(
            (2.0 * p + 1.0)
            * (2.0 * p + 2.0 * q + 2.0)
            * (2.0 * p + 2.0 * q + 2.0 * r + 3.0)
        )
        U, U_s, U_eta = _collapsed_group(x, eta1, p, 0.0)
        W, W_s, W_eta = _collapsed_group(y, eta2, q, 2.0 * p + 1.0)
        a = 2.0 * p + 2.0 * q + 2.0
        Z = _jacobi(r, a, c)
        dZ = _jacobi_deriv(r, a, c)
        phi[k] = scale * U * W * Z
        dphi[k, 0] = scale * U_s * W * Z
        dphi[k, 1] = scale * (-U_eta * W + U * W_s) * Z
        dphi[k, 2] = scale * (-U_eta * W * Z - U * W_eta * Z + U * W * 2.0 * dZ)
    return phi, dphi


# --- lattice nodes and entity bookkeeping -----------------------------------


def _lattice_nodes(cell, degree):
    """Equispaced lattice with entity association.

    Returns a list of (coords, entity_dim, entity_vertices, lattice) in dof
    order: vertices first, then each edge, face and finally the interior.
    Edge nodes run from the lower-numbered vertex to the higher; nodes
    interior to a face or cell are sorted by their barycentric multiindex
    with respect to the entity's sorted vertex list.
    """
    d = cell.dim
    if degree == 0:
        coords = cell.vertices.mean(axis=0)
        entity = tuple(range(d + 1))
        return [(coords, d, entity, (0,) * (d + 1))]

    q = degree
    nodes = []
    for dim in range(d + 1):
        for entity in cell.entities(dim):
            interior = []
            for bary in _compositions(q, dim + 1):
                if all(b > 0 for b in bary):
                    interior.append(bary)
            interior.sort(key=lambda b: b[1:])
            for bary in interior:
                coords = np.zeros(d)
                for b, v in zip(bary, entity):
                    coords += (b / q) * cell.vertices[v]
                nodes.append((coords, dim, entity, bary))
    return nodes


def _compositions(total, parts):
    """All tuples of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


# --- elements ---------------------------------------------------------------


@dataclass(frozen=True)
class TabulatedBasis:
    """Basis values and first derivatives at a set of reference points.

    ``values`` has shape [n x npts] for scalar elements and
    [n x components x npts] for vector ones; ``gradients`` gains one more
    axis of length dim right before the point axis.
    """

    element: "LagrangeElement"
    points: np.ndarray
    values: np.ndarray
    gradients: np.ndarray


class LagrangeElement:
    """Nodal Lagrange element on a reference simplex.

    Degrees 1..8 are supported continuously; degree 0 only as a
    discontinuous element.  Vector elements take d copies of the scalar
    basis with component-major dof ordering: dof = component*n_scalar + k.
    """

    def __init__(self, cell, degree, continuity="continuous", value_rank=0):
        if not isinstance(cell, ReferenceCell):
            cell = ReferenceCell(cell)
        if degree < 0 or degree > MAX_DEGREE:
            raise UnsupportedDegree(
                "degree %d outside supported range 0..%d" % (degree, MAX_DEGREE)
            )
        if continuity not in ("continuous", "discontinuous"):
            raise ValueError("continuity must be continuous or discontinuous")
        if degree == 0 and continuity == "continuous":
            raise UnsupportedDegree("degree 0 requires a discontinuous element")
        if value_rank not in (0, 1):
            raise ValueError("value_rank must be 0 or 1")

        self.cell = cell
        self.degree = degree
        self.continuity = continuity
        self.value_rank = value_rank
        self.components = cell.dim if value_rank == 1 else 1

        lattice = _lattice_nodes(cell, degree)
        self._scalar_dim = len(lattice)
        self.space_dim = self._scalar_dim * self.components
        nodes = np.array([entry[0] for entry in lattice]).reshape(
            self._scalar_dim, cell.dim
        )
        if value_rank == 1:
            nodes = np.tile(nodes, (self.components, 1))
        nodes.flags.writeable = False
        self.nodes = nodes

        # (entity_dim, entity_vertices, lattice, component) per dof
        self.dof_entities = tuple(
            (dim, entity, bary, comp) for comp in range(self.components)
            for coords, dim, entity, bary in lattice)

        self._vinv = self._nodal_coefficients(lattice)
        self._vinv.flags.writeable = False

    def _nodal_coefficients(self, lattice):
        pts = np.array([entry[0] for entry in lattice]).reshape(-1, self.cell.dim)
        phi, _ = _tabulate_modal(self.cell.shape, self.degree, pts)
        vandermonde = phi.T
        return np.linalg.inv(vandermonde)

    @property
    def scalar_dim(self):
        return self._scalar_dim

    def tabulate(self, points):
        """Nodal basis values and gradients at reference ``points``."""
        d = self.cell.dim
        pts = np.asarray(points, dtype=float).reshape(-1, d)
        if not np.all(self.cell.contains(pts)):
            raise PointOutsideCell(
                "tabulation points must lie inside the closed reference cell"
            )
        phi, dphi = _tabulate_modal(self.cell.shape, self.degree, pts)
        ns, npts = self._scalar_dim, pts.shape[0]
        values = np.tensordot(self._vinv.T, phi, axes=1)
        grads = np.einsum("km,mip->kip", self._vinv.T, dphi)
        if self.value_rank == 0:
            values.flags.writeable = False
            grads.flags.writeable = False
            return TabulatedBasis(self, pts, values, grads)

        comps = self.components
        vec_vals = np.zeros((self.space_dim, comps, npts))
        vec_grads = np.zeros((self.space_dim, comps, d, npts))
        for c in range(comps):
            sl = slice(c * ns, (c + 1) * ns)
            vec_vals[sl, c, :] = values
            vec_grads[sl, c, :, :] = grads
        vec_vals.flags.writeable = False
        vec_grads.flags.writeable = False
        return TabulatedBasis(self, pts, vec_vals, vec_grads)

    def _key(self):
        return (
            self.cell.shape,
            self.degree,
            self.continuity,
            self.value_rank,
        )

    def __eq__(self, other):
        return isinstance(other, LagrangeElement) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        kind = "VectorLagrange" if self.value_rank else "Lagrange"
        return "%s(%s, %d, %s)" % (kind, self.cell.shape, self.degree, self.continuity)


@lru_cache(maxsize=128)
def _cached_lagrange(shape, degree, continuity, value_rank):
    return LagrangeElement(ReferenceCell(shape), degree, continuity, value_rank)


def make_lagrange(shape, degree, continuity="continuous"):
    """Scalar Lagrange element on the given reference simplex.  Elements
    are cached and shared; their arrays are read-only."""
    return _cached_lagrange(shape, degree, continuity, 0)


def make_vector_lagrange(shape, degree, continuity="continuous"):
    """Vector Lagrange element with one component per space dimension,
    cached like make_lagrange."""
    return _cached_lagrange(shape, degree, continuity, 1)


@lru_cache(maxsize=256)
def quadrature_tabulation(element, degree):
    """Scalar basis of ``element`` (per-component profile of a vector one)
    at the points of make_quadrature(cell, degree), cached for the
    quadrature oracle."""
    if element.value_rank:
        element = make_lagrange(element.cell.shape, element.degree,
                                element.continuity)
    return element.tabulate(make_quadrature(element.cell.shape, degree).points)
