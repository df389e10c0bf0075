"""Reference cells, simplex quadrature and Lagrange elements.

The reference cells are the unit simplices

    interval      [0, 1]
    triangle      vertices (0,0), (1,0), (0,1)
    tetrahedron   vertices (0,0,0), (1,0,0), (0,1,0), (0,0,1)

Quadrature rules are tensor-product Gauss-Jacobi rules mapped to the simplex
through the collapsed (Duffy) transform.  A degree-q Lagrange element has
one dof per point of the equispaced barycentric lattice, lambda = beta / q
for the multiindices beta with |beta| = q, and its basis is Silvester's
product formula

    phi_beta(lambda) = prod_i prod_{k < beta_i} (q lambda_i - k) / (k + 1),

which is 1 at its own lattice point and 0 at every other one.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np
from scipy.special import roots_jacobi

from .errors import (
    DimensionMismatch,
    PointOutsideCell,
    UnsupportedDegree,
    UnsupportedShape,
)

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

    def contains(self, points):
        """True for each point inside the closed cell, within 1e-10."""
        pts = np.atleast_2d(points)
        inside = np.all(pts >= -_GEOMETRY_TOL, axis=1)
        return inside & (pts.sum(axis=1) <= 1.0 + _GEOMETRY_TOL)

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

    The weights sum to the cell volume 1/d!.
    """

    points: np.ndarray
    weights: np.ndarray


def quadrature_shape(shape, degree):
    """Points per direction of the collapsed cube in make_quadrature's
    rule exact through ``degree``: m = degree//2 + 1 in each of the cell's
    d directions, so the rule has m^d points."""
    cell = ReferenceCell(shape)
    if degree < 0:
        raise UnsupportedDegree("quadrature degree must be nonnegative")
    return (degree // 2 + 1,) * cell.dim


@lru_cache(maxsize=64)
def make_quadrature(shape, degree):
    """Gauss-Jacobi rule on the unit simplex, exact through ``degree``,
    with the points per direction of ``quadrature_shape``.

    Direction i of the collapsed cube carries the Jacobi weight
    (1-u)^(d-1-i) that the Duffy transform produces, so every direction is
    integrated by a rule matched to its weight function.  Rules are
    cached; their arrays are read-only.
    """
    sizes = quadrature_shape(shape, degree)
    d = len(sizes)
    nodes_1d = []
    weights_1d = []
    for i, m in enumerate(sizes):
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
    return QuadratureRule(points, weights)


# --- the dof lattice ---------------------------------------------------------


def _lattice(cell, degree):
    """The multiindices beta with |beta| = degree over the cell vertices,
    one row per scalar dof.

    A dof lies on the entity of the vertices where beta is positive, its
    support.  Rows are sorted by (support size, support, beta on the
    support past its first vertex): vertices first, then each edge, face
    and finally the interior, the entities of one dimension in the
    lexicographic order of their vertex tuples.
    """
    def key(beta):
        support = [i for i, b in enumerate(beta) if b]
        return len(support), support, [beta[i] for i in support[1:]]

    betas = sorted((beta for beta in product(range(degree + 1),
                                              repeat=cell.dim + 1)
                    if sum(beta) == degree), key=key)
    lattice = np.array(betas, dtype=int)
    lattice.flags.writeable = False
    return lattice


# --- elements ---------------------------------------------------------------


@dataclass(frozen=True)
class TabulatedBasis:
    """Basis values and first derivatives at a set of reference points.

    ``values`` has shape [n x npts] for scalar elements and
    [n x components x npts] for vector ones; ``gradients`` gains one more
    axis of length dim right before the point axis.
    """

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

        # row k: the multiindex beta of scalar dof k over the cell vertices
        self.lattice = _lattice(cell, degree)
        self._scalar_dim = len(self.lattice)
        self.space_dim = self._scalar_dim * self.components
        if degree == 0:
            nodes = cell.vertices.mean(axis=0, keepdims=True)
        else:
            nodes = self.lattice[:, 1:] / degree
        if value_rank == 1:
            nodes = np.tile(nodes, (self.components, 1))
        nodes.flags.writeable = False
        self.nodes = nodes

    @property
    def scalar_dim(self):
        return self._scalar_dim

    def tabulate(self, points):
        """Nodal basis values and gradients at reference ``points``, an
        [n x dim] array.

        Silvester's product is built from cumulative products over k of
        the factors (q lambda_i - k) / (k + 1) and their derivatives, one
        table row per lattice value beta_i; a reference derivative is
        d/dlambda_{r+1} - d/dlambda_0.
        """
        d, q = self.cell.dim, self.degree
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != d:
            raise DimensionMismatch(
                "tabulation points must form an [n x %d] array, not shape %s"
                % (d, pts.shape))
        if not np.all(self.cell.contains(pts)):
            raise PointOutsideCell(
                "tabulation points must lie inside the closed reference cell"
            )
        npts = pts.shape[0]
        lam = np.vstack([1.0 - pts.sum(axis=1), pts.T])
        # table[b] = prod_{k<b} (q lam - k) / (k + 1), slope[b] its derivative
        table = np.ones((q + 1, d + 1, npts))
        slope = np.zeros((q + 1, d + 1, npts))
        for k in range(q):
            factor = (q * lam - k) / (k + 1)
            table[k + 1] = table[k] * factor
            slope[k + 1] = slope[k] * factor + table[k] * (q / (k + 1))
        vertices = np.arange(d + 1)
        factors = table[self.lattice, vertices]  # [n x (d+1) x npts]
        derivs = slope[self.lattice, vertices]
        values = factors.prod(axis=1)
        # d phi / d lambda_i: the i-th factor differentiated
        dlam = np.empty_like(factors)
        for i in range(d + 1):
            others = np.delete(factors, i, axis=1).prod(axis=1)
            dlam[:, i] = others * derivs[:, i]
        grads = dlam[:, 1:] - dlam[:, :1]
        if self.value_rank == 0:
            values.flags.writeable = False
            grads.flags.writeable = False
            return TabulatedBasis(values, grads)

        ns, comps = self._scalar_dim, self.components
        vec_vals = np.zeros((self.space_dim, comps, npts))
        vec_grads = np.zeros((self.space_dim, comps, d, npts))
        for c in range(comps):
            sl = slice(c * ns, (c + 1) * ns)
            vec_vals[sl, c, :] = values
            vec_grads[sl, c, :, :] = grads
        vec_vals.flags.writeable = False
        vec_grads.flags.writeable = False
        return TabulatedBasis(vec_vals, vec_grads)

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

