"""Minimal assembly runtime: meshes, affine maps, dof maps, a quadrature
oracle for element tensors, sparse assembly and a conjugate gradient solver.

The runtime exists to close the loop around compiled forms: assemble global
matrices either by contracting reference and geometry tensors or by direct
quadrature, compare the two, and run small boundary value problems end to
end.  Work around the kernel is done on whole-mesh arrays: the mesh checks
every cell at once, the dof map numbers shared entities with one sort,
and assembly scatters the stacked element tensors of all cells as one
triplet set, summed by one bincount or one COO to CSR conversion.
Both evaluators take the same batch, read through ``batch_arrays``:
``assemble`` makes one call for either.  The quadrature oracle batches
itself, CHUNK cells at a time, and evaluates each monomial as one einsum
over its factors' own element tables, in which a free index is a shared
label; of the tensor representation it uses only ``batch_arrays``.  A
single cell is a batch of one.
"""

import math
from collections import defaultdict
from functools import lru_cache, partial
from itertools import combinations

import numpy as np
import scipy.io
import scipy.sparse

from .errors import (
    DegenerateCell,
    DimensionMismatch,
    DuplicateCell,
    MaxIterations,
    NonFiniteValue,
    NotPositiveDefinite,
    NotSymmetric,
    UnsupportedDerivative,
)
from .codegen import _other_space
from .form_language import BasisFunction, Form, expand_to_monomials
from .reference_elements import CELL_SHAPES, make_quadrature
from .tensor_representation import CompiledForm, batch_arrays

__all__ = [
    "Mesh",
    "AffineMap",
    "DofMap",
    "load_mesh",
    "save_mesh",
    "unit_square_mesh",
    "unit_cube_mesh",
    "perturb_mesh",
    "affine_map",
    "affine_maps",
    "build_dofmap",
    "quadrature_element_tensors",
    "quadrature_element_tensor",
    "assemble",
    "cg_solve",
    "apply_dirichlet",
    "lift_solution",
    "write_matrix_market",
    "l2_error",
]

# cells per batched quadrature oracle call
CHUNK = 256


def _cell_matrices(coords):
    """Columns are edge vectors from vertex 0: x = x0 + B X.  Works on one
    cell's (d+1, d) coordinates or a stack of them."""
    coords = np.asarray(coords, dtype=float)
    return np.swapaxes(coords[..., 1:, :] - coords[..., :1, :], -1, -2)


def _det_adj(Bs):
    """Determinants and adjugates of a stack of d x d matrices, d = 1, 2, 3,
    in closed form: B @ adj = det I, and B^-1 = adj / det."""
    d = Bs.shape[-1]
    if d == 1:
        return Bs[:, 0, 0].copy(), np.ones_like(Bs)
    if d == 2:
        (a, b), (c, e) = Bs[:, 0].T, Bs[:, 1].T
        return a * e - b * c, np.stack([e, -b, -c, a], axis=1).reshape(-1, 2, 2)
    # row i of the adjugate is column i+1 of B cross column i+2
    cols = np.swapaxes(Bs, 1, 2)
    adj = np.cross(cols[:, [1, 2, 0]], cols[:, [2, 0, 1]])
    return np.vecdot(cols[:, 0], adj[:, 0]), adj


def _norms(x):
    """Row norms, bitwise equal to np.linalg.norm of each row (both use the
    same dot product)."""
    return np.sqrt(np.vecdot(x, x))


def _row_keys(rows, bound):
    """One int64 key per row of ints in [0, bound), equal for equal rows and
    ordered like the rows lexicographically.  Each row is packed into its
    key when that fits, which sorts far faster than np.unique(axis=0)."""
    width = rows.shape[1]
    if bound ** width >= 2 ** 63:
        return np.unique(rows, axis=0, return_inverse=True)[1].ravel()
    return rows @ (bound ** np.arange(width - 1, -1, -1))


def _unique_rows(rows, bound):
    """Distinct rows in lexicographic order, the inverse map and the counts,
    as np.unique(rows, axis=0) gives them, for ints in [0, bound)."""
    _, first, inverse, counts = np.unique(
        _row_keys(rows, bound), return_index=True, return_inverse=True,
        return_counts=True)
    return rows[first], inverse, counts


class Mesh:
    """Simplicial mesh: vertex coordinates plus (d+1)-tuples of vertex ids.

    Cells are reoriented at construction: a cell with negative Jacobian
    determinant gets its last two vertices swapped, so every map built from
    the mesh has positive determinant.  Degenerate and repeated cells,
    non-integer vertex ids and non-finite coordinates are rejected.

    The cell geometry is computed once here, in closed form, and kept:
    ``dets`` [ncells] holds det B > 0 and ``gs`` [ncells x d x d] holds
    dX/dx = B^-1 of the map x = x0 + B X of each (reoriented) cell.
    ``vertices``, ``cells``, ``dets`` and ``gs`` are read-only arrays, so
    the cache cannot go stale.
    """

    def __init__(self, vertices, cells):
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2:
            raise DimensionMismatch("vertex array must be two dimensional")
        finite = np.isfinite(self.vertices).all(axis=1)
        if not finite.all():
            raise NonFiniteValue("vertex %d has a non-finite coordinate"
                                 % np.argmin(finite))
        self.dim = self.vertices.shape[1]
        if not 1 <= self.dim <= len(CELL_SHAPES):
            raise DimensionMismatch("unsupported mesh dimension %d" % self.dim)
        ids = np.asarray(cells)
        if ids.ndim != 2 or ids.shape[1] != self.dim + 1:
            raise DimensionMismatch(
                "cells must have %d vertices each" % (self.dim + 1))
        if ids.dtype.kind == "f":
            integral = (np.isfinite(ids) & (ids == np.trunc(ids))).all(axis=1)
            if not integral.all():
                raise DimensionMismatch("cell %d has a non-integer vertex id"
                                        % np.argmin(integral))
        elif ids.dtype.kind not in "iu":
            raise DimensionMismatch("cell vertex ids must be integers, got "
                                    "%s values" % ids.dtype)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self.vertices)):
            raise DimensionMismatch("cell vertex id out of range")
        self.cells = ids.astype(int)
        self.cell_shape = CELL_SHAPES[self.dim - 1]

        Bs = _cell_matrices(self.vertices[self.cells])
        dets, adj = _det_adj(Bs)
        scale = np.maximum(np.abs(Bs).max(axis=(1, 2)), 1e-30)
        del Bs
        degenerate = np.abs(dets) <= 1e-14 * scale ** self.dim
        if degenerate.any():
            raise DegenerateCell("cell %d is degenerate"
                                 % np.argmax(degenerate))
        flip = dets < 0
        if flip.any():
            self.cells[flip, -2:] = self.cells[flip][:, [-1, -2]]
            dets[flip], adj[flip] = _det_adj(
                _cell_matrices(self.vertices[self.cells[flip]]))
        keys = _row_keys(np.sort(self.cells, axis=1), len(self.vertices))
        ordered = np.sort(keys)
        twice = ordered[1:][ordered[1:] == ordered[:-1]]
        if twice.size:
            raise DuplicateCell("cells %d and %d have the same vertices"
                                % tuple(np.nonzero(keys == twice[0])[0][:2]))
        adj /= dets[:, None, None]
        self.dets, self.gs = dets, adj
        for array in (self.vertices, self.cells, self.dets, self.gs):
            array.flags.writeable = False

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    def _facets(self):
        """Sorted vertex rows of all (d-1)-subentities, with cell counts."""
        cells = np.sort(self.cells, axis=1)
        rows = [np.delete(cells, k, axis=1) for k in range(self.dim + 1)]
        keys, _, counts = _unique_rows(np.concatenate(rows), self.num_vertices)
        return keys, counts

    def facets(self):
        """All (d-1)-subentities as sorted vertex tuples, with cell counts."""
        keys, counts = self._facets()
        return dict(zip(map(tuple, keys.tolist()), counts.tolist()))

    def boundary_vertices(self):
        keys, counts = self._facets()
        return set(np.unique(keys[counts == 1]).tolist())


def save_mesh(mesh, path):
    """ASCII format: 'mesh <d> <#vertices> <#cells>', vertices, cells."""
    with open(path, "w") as fh:
        fh.write("mesh %d %d %d\n" % (mesh.dim, mesh.num_vertices,
                                      mesh.num_cells))
        for v in mesh.vertices:
            fh.write(" ".join(repr(float(x)) for x in v) + "\n")
        for c in mesh.cells:
            fh.write(" ".join(str(int(i)) for i in c) + "\n")


def _lax(text):
    """Whether text holds a character that no mesh number holds but that
    Python's int and float read (underscores, non-ASCII digits) or that
    str.split ends a token at."""
    return not text.isascii() or "_" in text or _other_space(text) is not None


def _ascii_split(text, maxsplit=-1):
    """text.split(None, maxsplit) at ASCII whitespace only, where
    np.fromstring splits too."""
    return [t.decode() for t in text.encode().split(None, maxsplit)]


def _mesh_numbers(tokens, kind, what, lax):
    """tokens as an array of kind.  Where the file is lax, the first token
    with a character that no number holds is named instead."""
    if lax:
        bad = next((t for t in tokens if _lax(t)), None)
        if bad is not None:
            raise DimensionMismatch("bad %s in mesh file: %r" % (what, bad))
    try:
        return np.array(tokens, dtype=kind)
    except (ValueError, OverflowError) as exc:
        raise DimensionMismatch("bad %s in mesh file: %s" % (what, exc)) from None


def _cell_ids(text):
    """The cell vertex ids of text, read by np.fromstring, or None."""
    try:
        return np.fromstring(text, np.int64, sep=" ")
    except ValueError:
        return None


def load_mesh(path):
    """Read a mesh file as save_mesh writes it.

    The file is a sequence of tokens separated by ASCII whitespace: the
    header 'mesh <d> <#vertices> <#cells>', then the vertex coordinates and
    the cell vertex ids, each block in row-major order.  Line breaks carry
    no meaning.  Only the vertex tokens are split one by one; the cell
    block is converted in a single call, and its tokens are read one at a
    time only to name the first malformed one.  Numbers are written in
    ASCII digits, without underscores.
    """
    with open(path) as fh:
        text = fh.read()
    # str.split is the ASCII split on a file that is not lax
    lax = _lax(text)
    split = _ascii_split if lax else str.split
    head = split(text, maxsplit=4)
    del text  # head[4] is the body: one copy of the file at a time
    if len(head) < 4 or head[0] != "mesh":
        raise DimensionMismatch("not a mesh file (missing "
                                "'mesh <d> <#vertices> <#cells>' header)")
    header = _mesh_numbers(head[1:4], int, "header field", lax)
    if (header < 0).any():
        raise DimensionMismatch("negative header field in mesh file")
    d, nv, nc = (int(x) for x in header)
    body = head[4] if len(head) > 4 else ""
    # a file has fewer tokens than characters, which bounds the split
    fields = split(body, maxsplit=min(nv * d, len(body)))
    rest = fields.pop() if len(fields) > nv * d else ""
    cells = _cell_ids(rest)
    need = nv * d + nc * (d + 1)
    count = len(fields) + (len(split(rest)) if cells is None else cells.size)
    if count != need:
        raise DimensionMismatch("mesh file has %d data fields, expected %d"
                                % (count, need))
    vertices = _mesh_numbers(fields, float, "vertex coordinate",
                             lax).reshape(nv, d)
    if cells is None:
        tokens = split(rest)
        bad = next((t for t in tokens if _cell_ids(t) is None), tokens[-1])
        raise DimensionMismatch("bad cell vertex id in mesh file: %r" % bad)
    return Mesh(vertices, cells.reshape(nc, d + 1))


def unit_square_mesh(n):
    """Uniform (n+1)^2 lattice on [0,1]^2, two triangles per square."""
    xs = np.linspace(0.0, 1.0, n + 1)
    vertices = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1)
    # square (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1)
    # and d = (i, j+1)
    r = np.arange(n)
    a = (r[:, None] * (n + 1) + r[None, :]).ravel()
    b, c, d = a + n + 1, a + n + 2, a + 1
    cells = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return Mesh(vertices.reshape(-1, 2), cells)


def unit_cube_mesh(n):
    """Uniform lattice on [0,1]^3, six tetrahedra per cube."""
    xs = np.linspace(0.0, 1.0, n + 1)
    m = n + 1
    vertices = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1)
    # six tetrahedra along the vertex-ordered paths from corner to corner
    paths = [
        ((1, 0, 0), (1, 1, 0)), ((1, 0, 0), (1, 0, 1)),
        ((0, 1, 0), (1, 1, 0)), ((0, 1, 0), (0, 1, 1)),
        ((0, 0, 1), (1, 0, 1)), ((0, 0, 1), (0, 1, 1)),
    ]
    vid = lambda i, j, k: (i * m + j) * m + k
    corners = np.array([(0, vid(*a), vid(*b), vid(1, 1, 1)) for a, b in paths])
    r = np.arange(n)
    v0 = vid(r[:, None, None], r[None, :, None], r[None, None, :]).ravel()
    cells = (v0[:, None, None] + corners[None]).reshape(-1, 4)
    return Mesh(vertices.reshape(-1, 3), cells)


def perturb_mesh(mesh, amount=0.2, seed=0):
    """Random interior-vertex perturbation preserving validity.

    Each non-boundary vertex moves by at most ``amount`` times its shortest
    incident edge; the Mesh constructor then restores positive orientation.
    """
    rng = np.random.default_rng(seed)
    coords = mesh.vertices[mesh.cells]
    shortest = np.full(mesh.num_vertices, np.inf)
    for a, b in combinations(range(mesh.dim + 1), 2):
        e = _norms(coords[:, a] - coords[:, b])
        np.minimum.at(shortest, mesh.cells[:, a], e)
        np.minimum.at(shortest, mesh.cells[:, b], e)
    moving = np.isfinite(shortest)
    moving[list(mesh.boundary_vertices())] = False
    # one draw per moving vertex, in vertex order, so a seed's stream is fixed
    steps = rng.uniform(-1.0, 1.0, size=(np.count_nonzero(moving), mesh.dim))
    vertices = mesh.vertices.copy()
    vertices[moving] += ((amount * shortest[moving])[:, None] * steps /
                         np.maximum(_norms(steps), 1e-30)[:, None])
    return Mesh(vertices, mesh.cells)


# --- affine maps -----------------------------------------------------------------


class AffineMap:
    """x = x0 + B X with B = dx/dX, g = dX/dx and det = det B."""

    __slots__ = ("B", "g", "det", "x0")

    def __init__(self, B, g, det, x0):
        self.B = B
        self.g = g
        self.det = det
        self.x0 = x0

    def map_points(self, X):
        return np.asarray(X) @ self.B.T + self.x0


def affine_map(mesh, cell_id):
    """The map of one cell, with det and g read from the mesh's cache."""
    coords = mesh.vertices[mesh.cells[cell_id]]
    return AffineMap(_cell_matrices(coords), mesh.gs[cell_id],
                     float(mesh.dets[cell_id]), coords[0])


def affine_maps(mesh):
    """Maps of every cell: (dets, gs, Bs, x0s).

    ``dets`` and ``gs`` are the mesh's cached, read-only geometry; ``Bs``
    and the first vertices ``x0s`` are built on each call, as new arrays.
    """
    return (mesh.dets, mesh.gs, _cell_matrices(mesh.vertices[mesh.cells]),
            mesh.vertices[mesh.cells[:, 0]])


# --- dof maps --------------------------------------------------------------------


class DofMap:
    """Local-to-global dof numbering for one element over one mesh:
    ``cell_dofs`` is a read-only 2-D integer array of ids in [0, global_dim).
    """

    def __init__(self, element, global_dim, cell_dofs):
        ids = np.asarray(cell_dofs)
        if ids.ndim != 2 or ids.dtype.kind not in "iu":
            raise DimensionMismatch("cell dofs must be a 2-D integer array")
        if ids.size and (ids.min() < 0 or ids.max() >= global_dim):
            raise DimensionMismatch("cell dof id out of range")
        self.element = element
        self.global_dim = global_dim
        self.cell_dofs = ids.view()
        self.cell_dofs.flags.writeable = False

    def __repr__(self):
        return "DofMap(M=%d, cells=%d, n=%d)" % (
            self.global_dim, *self.cell_dofs.shape)


def build_dofmap(mesh, element):
    """Number global dofs: vertex dofs first (one per vertex, numbered by
    vertex id), then edge blocks, face blocks and cell interiors; entities
    are keyed by their sorted global vertex tuples and dof positions along
    an entity follow the sorted order, so incident cells agree.  Vector
    elements are numbered component-major; discontinuous elements make every
    dof cell-private.
    """
    if element.cell.shape != mesh.cell_shape:
        raise DimensionMismatch(
            "element cell %r does not match mesh cells %r"
            % (element.cell.shape, mesh.cell_shape))

    ns = element.scalar_dim
    ncells = mesh.num_cells
    if element.continuity == "discontinuous":
        scalar_global = ncells * ns
        scalar_dofs = (np.arange(ncells)[:, None] * ns +
                       np.arange(ns)[None, :])
    else:
        # a dof lies on the entity of its lattice row's support
        support = element.lattice > 0
        dims = support.sum(axis=1) - 1
        scalar_dofs = np.empty((ncells, ns), dtype=int)
        offset = 0
        for dim in np.unique(dims).tolist():
            ks = np.flatnonzero(dims == dim)
            entities = np.nonzero(support[ks])[1].reshape(ks.size, dim + 1)
            barys = element.lattice[ks][support[ks]].reshape(ks.size, dim + 1)
            # lattice points keyed by their base-(q+1) digits, so sorted
            # keys follow the lexicographic order of the tuples
            radix = (element.degree + 1) ** np.arange(dim, -1, -1)
            lattice = np.unique(barys @ radix)
            canon = barys
            gverts = mesh.cells[:, entities]
            if dim == 0:
                ids, count = gverts[..., 0], mesh.num_vertices
            elif dim == mesh.dim:
                ids, count = np.arange(ncells)[:, None], ncells
            else:
                # entities numbered by their sorted global vertex rows; dof
                # positions follow the sorted order, so incident cells agree
                order = np.argsort(gverts, axis=2)
                keys = np.take_along_axis(gverts, order, axis=2)
                uniq, ids, _ = _unique_rows(keys.reshape(-1, dim + 1),
                                            mesh.num_vertices)
                ids, count = ids.reshape(ncells, ks.size), len(uniq)
                canon = np.take_along_axis(barys[None], order, axis=2)
            pos = np.searchsorted(lattice, canon @ radix)
            scalar_dofs[:, ks] = offset + ids * len(lattice) + pos
            offset += count * len(lattice)
        scalar_global = offset

    comps = element.components
    blocks = [scalar_dofs + comp * scalar_global for comp in range(comps)]
    return DofMap(element, comps * scalar_global, np.hstack(blocks))


# --- quadrature oracle ------------------------------------------------------------


# einsum labels of the oracle: the cell, the quadrature point, and a
# factor's own dof and reference direction, which its own einsum sums;
# argument slots and then free indices take the labels from 4 up
_CELL, _POINT, _DOF, _REF = range(4)


@lru_cache(maxsize=128)
def _tabulated(element, degree):
    """element's basis at the points of its cell's rule of degree, one
    copy for every factor, form and monomial that reads it."""
    return element.tabulate(make_quadrature(element.cell.shape, degree).points)


@lru_cache(maxsize=64)
def _quadrature_plan(form):
    """Per monomial of a form: its scalar, the weights of the rule exact
    for its reference integrand degree p = sum(q_factor - #derivs), and
    per factor the table it reads at the rule's points, with one einsum
    label per axis.  The table is the factor's own element's values, or
    its reference gradients for a derivative, component-major for a vector
    element; a fixed component takes its slice.  A derivative factor also
    keeps its slice of dX/dx with that slice's labels, a coefficient its
    number, and each factor the labels it carries into the monomial."""
    plans = []
    for monomial in expand_to_monomials(form):
        if any(len(f.derivatives) > 1 for f in monomial.factors):
            raise UnsupportedDerivative(
                "at most one derivative per factor is supported")
        p = sum(max(f.element.degree - len(f.derivatives), 0)
                for f in monomial.factors)
        rule = make_quadrature(form.cell.shape, p)
        # free index id -> label
        labels = defaultdict(lambda: 4 + len(form.primary_dims) + len(labels))
        factors = []
        for f in monomial.factors:
            if f.element.value_rank and f.component is None:
                raise DimensionMismatch("vector factor without a component")
            tab = _tabulated(f.element, p)
            table = tab.gradients if f.derivatives else tab.values
            number = None if isinstance(f, BasisFunction) else f.number
            sub = [4 + f.slot if number is None else _DOF]
            if f.component is not None and f.component.kind == "fixed":
                table = table[:, f.component.value]
            elif f.component is not None:
                sub.append(labels[f.component.id])
            sub += [_REF] * len(f.derivatives) + [_POINT]
            gsel, gsub = None, []
            if f.derivatives:
                ix = f.derivatives[0]
                gsel, gsub = ((np.s_[:, :, ix.value], [_CELL, _REF])
                              if ix.kind == "fixed" else
                              (np.s_[...], [_CELL, _REF, labels[ix.id]]))
            # each label once: one that the factor carries twice, as the
            # i of w[i].dx(i) does, takes the diagonal
            kept = dict.fromkeys([_CELL] * (number is not None) + gsub + sub)
            factors.append((table, sub, gsel, gsub, number,
                            [lab for lab in kept if lab not in (_DOF, _REF)]))
        plans.append((monomial.scalar, rule.weights, factors))
    return tuple(plans)


def quadrature_element_tensors(form, dets, gs, coeffs=()):
    """Element tensors by direct quadrature, independent of the tensor
    representation, for a batch of affine maps.

    ``dets`` has shape [ncells], ``gs`` is dX/dx with shape [ncells x d x d]
    and ``coeffs`` holds one [ncells x n_e] array per coefficient.  Each
    monomial is one einsum over its factors and the rule's weights: a free
    index is a label that the factors carrying it share, so the einsum
    sums it.  A factor first takes one einsum of its own when it has a
    derivative, made physical through each cell's dX/dx, or is a
    coefficient, contracted with its dofs.  A batch of more than CHUNK
    cells is evaluated CHUNK cells at a time.
    Returns [ncells x n1 x ... x nr].
    """
    if not isinstance(form, Form):
        raise TypeError("expected a Form")
    dets, gs, coeffs = batch_arrays(form, dets, gs, coeffs)
    ncells = dets.shape[0]
    if ncells > CHUNK:
        return np.concatenate([quadrature_element_tensors(
            form, dets[s:s + CHUNK], gs[s:s + CHUNK],
            [w[s:s + CHUNK] for w in coeffs]) for s in range(0, ncells, CHUNK)])
    rank = len(form.primary_dims)
    outsub = [_CELL] + [4 + slot for slot in range(rank)]
    out = np.zeros((ncells,) + form.primary_dims)
    scale = np.abs(dets).reshape((ncells,) + (1,) * rank)
    for scalar, weights, factors in _quadrature_plan(form):
        operands = []
        for table, sub, gsel, gsub, number, kept in factors:
            own = [table, sub]
            if gsel is not None:
                own += [gs[gsel], gsub]
            if number is not None:
                own += [coeffs[number], [_CELL, _DOF]]
            operands += [np.einsum(*own, kept, optimize=False), kept]
        operands += [weights, [_POINT]]
        if not any(_CELL in sub for sub in operands[1::2]):
            # no cell-varying factor: keep the per-cell point loop
            operands += [np.ones(ncells), [_CELL]]
        out += scalar * np.einsum(*operands, outsub, optimize=False) * scale
    return out


def quadrature_element_tensor(form, amap, coefficients=()):
    """Element tensor of one cell by direct quadrature: a batch of one for
    quadrature_element_tensors.  ``coefficients`` holds each coefficient's
    dofs on the cell."""
    return quadrature_element_tensors(form, [amap.det], [amap.g], [
        np.asarray(w)[None] for w in coefficients])[0]


# --- assembly --------------------------------------------------------------------


def _scatter(blocks, dofmaps):
    """Sum one triplet per element-tensor entry, cell by cell in row-major
    order, into a vector (one dof map) or a CSR matrix (two); duplicates
    add up.  The ids are in range: every DofMap checks its own."""
    shape = tuple(dm.global_dim for dm in dofmaps)
    if len(shape) == 1:
        out = np.bincount(dofmaps[0].cell_dofs.ravel(),
                          weights=blocks.ravel(), minlength=shape[0])
        return out.astype(float, copy=False)  # bincount of nothing is int
    # int32 ids, where they fit, spare coo_matrix a checked copy
    ids = np.int32 if max(shape + (blocks.size,)) < 2 ** 31 else np.int64
    rows, cols = (dm.cell_dofs.astype(ids) for dm in dofmaps)
    return scipy.sparse.coo_matrix(
        (blocks.ravel(), (np.repeat(rows, cols.shape[1], axis=1).ravel(),
                          np.tile(cols, (1, rows.shape[1])).ravel())),
        shape=shape).tocsr()


def assemble(evaluator, mesh, dofmaps, coefficients=()):
    """Global matrix (arity 2) or vector (arity 1) over all cells.

    ``evaluator`` is a CompiledForm, compiled or reread from raw text
    (tensor contraction path), or a Form (quadrature oracle path);
    ``coefficients`` pairs each slot's global coefficient vector with its
    dof map: [(vector, dofmap), ...].
    """
    if isinstance(evaluator, CompiledForm):
        evaluate = evaluator.element_tensors
    elif isinstance(evaluator, Form):
        evaluate = partial(quadrature_element_tensors, evaluator)
    else:
        raise TypeError("evaluator must be a CompiledForm or a Form")
    primary_dims = evaluator.primary_dims
    coefficient_dims = evaluator.coefficient_dims
    if evaluator.cell.shape != mesh.cell_shape:
        raise DimensionMismatch("form cell %r does not match mesh %r"
                                % (evaluator.cell.shape, mesh.cell_shape))
    if len(dofmaps) != len(primary_dims):
        raise DimensionMismatch("form needs %d dof maps, got %d"
                                % (len(primary_dims), len(dofmaps)))
    if len(coefficients) != len(coefficient_dims):
        raise DimensionMismatch("form needs %d coefficients, got %d"
                                % (len(coefficient_dims), len(coefficients)))
    if any(len(dm.cell_dofs) != mesh.num_cells
           for dm in [*dofmaps, *(dm for _, dm in coefficients)]):
        raise DimensionMismatch("a dof map was built for another mesh")
    widths = [dm.cell_dofs.shape[1] for dm in dofmaps]
    if widths != list(primary_dims):
        raise DimensionMismatch("argument dof maps have %s dofs per cell, "
                                "form needs %s" % (widths, list(primary_dims)))

    locals_ = []
    for num, ((vec, dmap), n) in enumerate(zip(coefficients,
                                               coefficient_dims)):
        if dmap.cell_dofs.shape[1] != n:
            raise DimensionMismatch(
                "coefficient %d dof map has %d dofs per cell, form needs %d"
                % (num, dmap.cell_dofs.shape[1], n))
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (dmap.global_dim,):
            raise DimensionMismatch(
                "coefficient %d vector has length %d, dof map has %d"
                % (num, vec.size, dmap.global_dim))
        if not np.isfinite(vec).all():
            raise NonFiniteValue("coefficient %d vector has non-finite "
                                 "entries" % num)
        locals_.append(vec[dmap.cell_dofs])

    return _scatter(evaluate(mesh.dets, mesh.gs, locals_), dofmaps)


# --- solver and boundary conditions ------------------------------------------------


def cg_solve(matrix, rhs, tol=1e-10, max_iter=None, return_iterations=False):
    """Plain conjugate gradients with a symmetry spot check.

    Raises NonFiniteValue for a non-finite right-hand side, before any
    work, for a non-finite matrix entry that the spot check reads, before
    it is compared, or for p.Ap, at the iteration where it appears;
    NotSymmetric when one of 10 random entry pairs disagrees,
    NotPositiveDefinite when a search direction p has p.Ap <= 0, and
    MaxIterations when the relative residual fails to reach ``tol``.
    """
    b = np.asarray(rhs, dtype=float)
    if not np.isfinite(b).all():
        raise NonFiniteValue("right-hand side has non-finite entries")
    n = b.size
    if max_iter is None:
        max_iter = max(100, 10 * n)
    A = matrix

    if n > 1:
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j = rng.integers(0, n, size=2)
            aij, aji = A[int(i), int(j)], A[int(j), int(i)]
            for r, c, a in (i, j, aij), (j, i, aji):
                if not math.isfinite(a):
                    raise NonFiniteValue("entry (%d,%d) is %s" % (r, c, a))
            if abs(aij - aji) > 1e-10 * (1.0 + abs(aij)):
                raise NotSymmetric(
                    "entry (%d,%d)=%r differs from (%d,%d)=%r"
                    % (i, j, aij, j, i, aji))

    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        x = np.zeros(n)
        return (x, 0) if return_iterations else x

    x = np.zeros(n)
    r = b.copy()
    p = r.copy()
    rr = float(r @ r)
    for k in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if not math.isfinite(pAp):
            raise NonFiniteValue("p.Ap = %r at iteration %d" % (pAp, k))
        if pAp <= 0.0:
            raise NotPositiveDefinite("p.Ap = %r at iteration %d" % (pAp, k))
        alpha = rr / pAp
        x += alpha * p
        r -= alpha * Ap
        rr_next = float(r @ r)
        if math.sqrt(rr_next) <= tol * bnorm:
            return (x, k) if return_iterations else x
        p = r + (rr_next / rr) * p
        rr = rr_next
    raise MaxIterations("no convergence within %d iterations "
                        "(relative residual %.3e)"
                        % (max_iter, math.sqrt(rr) / bnorm))


def apply_dirichlet(matrix, rhs, dofs, values):
    """Symmetric elimination of prescribed dofs.

    Returns (reduced matrix, reduced rhs, free dof ids); the eliminated
    columns move to the right-hand side so symmetry is preserved.  The
    matrix must be n x n for n = rhs.size, and the dof ids distinct
    integers in [0, n), one value each, or DimensionMismatch is raised; a
    non-finite right-hand side or prescribed value raises NonFiniteValue.
    """
    n = rhs.size
    A = matrix.tocsr() if scipy.sparse.issparse(matrix) else np.asarray(matrix)
    if A.shape != (n, n):
        raise DimensionMismatch("matrix is %s, rhs needs %d x %d"
                                % (" x ".join(map(str, A.shape)), n, n))
    dofs = np.asarray(dofs)
    values = np.asarray(values, dtype=float)
    if (dofs.ndim != 1 or values.shape != dofs.shape
            or dofs.size and (dofs.dtype.kind not in "iu" or dofs.min() < 0
                              or dofs.max() >= n
                              or np.unique(dofs).size < dofs.size)):
        raise DimensionMismatch("prescribed dofs must be distinct integer "
                                "ids in [0, %d), one value each" % n)
    if not (np.isfinite(rhs).all() and np.isfinite(values).all()):
        raise NonFiniteValue("right-hand side or prescribed values have "
                             "non-finite entries")
    dofs = dofs.astype(int)  # an empty list reads as floats
    mask = np.ones(n, dtype=bool)
    mask[dofs] = False
    free = np.nonzero(mask)[0]
    Af = A[free]  # the free rows, selected once
    reduced_rhs = rhs[free] - Af[:, dofs] @ values
    return Af[:, free], reduced_rhs, free


def lift_solution(n, free, x_free, dofs, values):
    """Full-length vector from a reduced solve plus prescribed values."""
    out = np.zeros(n)
    out[free] = x_free
    out[np.asarray(dofs, dtype=int)] = values
    return out


def write_matrix_market(path, matrix):
    """MatrixMarket export: coordinate, 1-based, general symmetry field.

    One-dimensional arrays (assembled vectors) are written as a single
    column.
    """
    if scipy.sparse.issparse(matrix):
        scipy.io.mmwrite(path, matrix.tocoo(), symmetry="general")
    else:
        matrix = np.asarray(matrix)
        if matrix.ndim == 1:
            matrix = matrix[:, None]
        scipy.io.mmwrite(path, matrix)


def l2_error(mesh, dofmap, vec, exact):
    """L2 distance between a scalar FE function and a callable, by a
    quadrature rule exact through degree 6."""
    element = dofmap.element
    if element.value_rank != 0:
        raise DimensionMismatch("l2_error supports scalar elements only")
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (dofmap.global_dim,):
        raise DimensionMismatch("vector has length %d, dof map has %d"
                                % (vec.size, dofmap.global_dim))
    rule = make_quadrature(mesh.cell_shape, 6)
    tab = element.tabulate(rule.points)
    dets, _, Bs, x0s = affine_maps(mesh)
    uh = vec[dofmap.cell_dofs] @ tab.values
    points = rule.points @ np.swapaxes(Bs, 1, 2) + x0s[:, None, :]
    ux = exact(points.reshape(-1, mesh.dim)).reshape(uh.shape)
    return math.sqrt(np.abs(dets) @ ((uh - ux) ** 2 @ rule.weights))
