"""Tensor representation: reference tensors and geometry tensor expressions.

Each monomial of an expanded form is compiled into a pair (A0, G): a
reference tensor

    A0[i, alpha] = integral over the reference cell of the product of
                   (derivatives of) reference basis functions

precomputed once by quadrature, and a geometry tensor expression

    G[alpha] = c * det * (products of dX/dx entries and coefficient dofs)

evaluated per element, so that the element tensor is the contraction
A[i] = sum_alpha A0[i, alpha] * G[alpha].  Monomials with equal geometry
tensor expressions share one G, and their A0 are summed.

A compiled form contracts a batch of cells in one step.  Each term
evaluates only the G components that some A0 nonzero reads, one
gathered factor at a time, straight into its columns of one
[ncells x K] array; the A0 columns of all terms, restricted the same
way, lie side by side in one CSR over K columns (``stacked``).  Many of
its rows repeat an earlier row exactly, or its negation (P3
Navier-Stokes on a tetrahedron: 401 distinct of 3,600 rows).  When
contracting only the distinct rows saves more multiply-adds than the
block has rows to copy, one sparse product A0_distinct @ G^T gives
[U x ncells], a row map gathers it out to [block x ncells], and the
negated rows change sign; otherwise the whole stack is multiplied.  The
sparse product adds each entry in the fixed order of its A0 row, so a
cell's block is bitwise the same in every batch, and a repeated row
gives bitwise the value of its representative, negated rows too.  A
dense BLAS product is not batch independent: it picks its kernels by
the number of rows.

Index bookkeeping follows four kinds.  Primary indices are the element
tensor axes, one per argument.  Each spatial derivative introduces a fresh
secondary index pairing the reference-direction derivative (A0 side) with a
dX/dx factor (G side), and each coefficient factor introduces a secondary
expansion index pairing its basis factor (A0) with a dof read (G).  A free
index written by the user must occur exactly twice: twice among components
means an auxiliary sum inside A0, twice among derivative directions means an
auxiliary sum inside G, and once on each side makes it secondary.
A classified index carries its slot as ``value``: its position among the
monomial's secondary indices, or among its auxiliary indices of one side.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count, product as iter_product
from math import prod

import numpy as np
import scipy.sparse

from .errors import (
    DimensionMismatch,
    IndexOccursOnce,
    IndexOccursThrice,
    UnsupportedDerivative,
)
from .form_language import BasisFunction, Form, Index, Monomial, expand_to_monomials
from .reference_elements import make_quadrature, quadrature_tabulation

__all__ = [
    "MonomialTerm",
    "GeometryTensorExpr",
    "CompiledTerm",
    "CompiledForm",
    "classify_indices",
    "compute_reference_tensor",
    "derive_geometry_expr",
    "batch_arrays",
    "contract_terms",
    "row_classes",
    "compile_form",
]

# A0 entries with |value| <= DROP_TOL * max|A0| are quadrature noise.
DROP_TOL = 1e-14


@dataclass(frozen=True)
class ClassifiedFactor:
    """One reference-side basis factor of a classified monomial."""

    element: object
    kind: str  # "argument" or "coefficient"
    slot: int  # argument slot or coefficient number
    component: object  # classified Index, fixed Index or None
    derivatives: tuple  # secondary reference-direction indices
    expansion: object  # a coefficient's secondary expansion index, else None


class MonomialTerm:
    """Classified monomial: reference-side factors plus geometry-side reads.

    ``secondary`` fixes the shared ordering of the contraction indices;
    axis r + k of the reference tensor pairs with axis k of the geometry
    tensor.
    """

    def __init__(self, scalar, cell, factors, secondary, aux_a0, aux_g,
                 transforms, coeff_reads):
        self.scalar = scalar
        self.cell = cell
        self.factors = tuple(factors)
        self.secondary = tuple(secondary)
        self.aux_a0 = tuple(aux_a0)
        self.aux_g = tuple(aux_g)
        self.transforms = tuple(transforms)
        self.coeff_reads = tuple(coeff_reads)

        self.arg_factors = tuple(sorted(
            (f for f in self.factors if f.kind == "argument"),
            key=lambda f: f.slot,
        ))
        self.coeff_factors = tuple(
            f for f in self.factors if f.kind == "coefficient"
        )
        self.rank = len(self.arg_factors)
        self.primary_dims = tuple(f.element.space_dim for f in self.arg_factors)
        self.secondary_dims = tuple(i.range for i in self.secondary)

    def quadrature_degree(self):
        """Exactness needed to integrate the reference integrand."""
        total = 0
        for f in self.factors:
            total += max(f.element.degree - len(f.derivatives), 0)
        return total


def _slotted(kind, slots, extent):
    """A fresh classified index whose value is its position in slots."""
    index = Index(kind, value=len(slots), range=extent)
    slots.append(index)
    return index


def classify_indices(monomial):
    """Decide the kind of every index of one expanded monomial.

    Returns a MonomialTerm with fresh classified index objects; the free
    indices of the input keep their pairing but are rebound to secondary or
    auxiliary copies.  Each classified index gets its slot as ``value``:
    its position in term.secondary, term.aux_a0 or term.aux_g.  Raises
    IndexOccursOnce / IndexOccursThrice when a free index is not repeated
    exactly twice, and DimensionMismatch when a vector-valued factor lacks
    a component.
    """
    if not isinstance(monomial, Monomial):
        raise TypeError("expected a Monomial")
    factors = monomial.factors
    cell = factors[0].element.cell
    d = cell.dim

    # occurrence sides of each free index: components live on the reference
    # side, derivative directions on the geometry side
    occurrences = {}
    for f in factors:
        if f.element.value_rank == 1 and f.component is None:
            raise DimensionMismatch(
                "vector-valued factor used without a component"
            )
        if f.element.value_rank == 0 and f.component is not None:
            raise DimensionMismatch("component access on a scalar factor")
        if len(f.derivatives) > 1:
            raise UnsupportedDerivative(
                "at most one derivative per factor is supported"
            )
        sites = []
        if f.component is not None and f.component.kind != "fixed":
            sites.append(("a0", f.component))
        for i in f.derivatives:
            if i.kind != "fixed":
                sites.append(("g", i))
        for side, index in sites:
            occurrences.setdefault(index.id, []).append(side)

    rebound = {}
    secondary = []
    aux_a0 = []
    aux_g = []
    for index_id, sides in occurrences.items():
        if len(sides) == 1:
            raise IndexOccursOnce(
                "index occurs only once in a monomial; free indices must "
                "be repeated exactly twice"
            )
        if len(sides) > 2:
            raise IndexOccursThrice(
                "index occurs %d times in a monomial; free indices must "
                "be repeated exactly twice" % len(sides)
            )
        if sides == ["a0", "a0"]:
            rebound[index_id] = _slotted("auxiliary", aux_a0, d)
        elif sides == ["g", "g"]:
            rebound[index_id] = _slotted("auxiliary", aux_g, d)
        else:
            rebound[index_id] = _slotted("secondary", secondary, d)

    # rebuild factors, introducing expansion and reference-direction indices
    transforms = []
    coeff_reads = []
    classified = []
    for f in factors:
        component = None
        if f.component is not None:
            component = (
                f.component if f.component.kind == "fixed"
                else rebound[f.component.id]
            )
        expansion = None
        if isinstance(f, BasisFunction):
            kind, slot = "argument", f.slot
        else:
            kind, slot = "coefficient", f.number
            expansion = _slotted("secondary", secondary, f.element.space_dim)
            coeff_reads.append((slot, expansion))
        derivs = []
        for i in f.derivatives:
            ref = _slotted("secondary", secondary, d)
            derivs.append(ref)
            x = i if i.kind == "fixed" else rebound[i.id]
            transforms.append((ref, x))
        classified.append(ClassifiedFactor(
            element=f.element,
            kind=kind,
            slot=slot,
            component=component,
            derivatives=tuple(derivs),
            expansion=expansion,
        ))

    return MonomialTerm(
        scalar=monomial.scalar,
        cell=cell,
        factors=classified,
        secondary=secondary,
        aux_a0=aux_a0,
        aux_g=aux_g,
        transforms=transforms,
        coeff_reads=coeff_reads,
    )


# --- reference tensor ---------------------------------------------------------


@lru_cache(maxsize=256)
def _contraction_path(inputs, out_labels):
    """The path einsum(optimize=True) takes for operands of these shapes and
    labels; it depends on nothing else, so it is searched for once."""
    operands = []
    for shape, labels in inputs:
        operands += [np.broadcast_to(0.0, shape), list(labels)]
    return np.einsum_path(*operands, list(out_labels), optimize=True)[0]


def compute_reference_tensor(term, quadrature_degree=None):
    """Integrate the reference-side factor products of one monomial into
    its dense, read-only A0.

    A0's axes are the primary indices in slot order, then the secondary
    indices in the monomial's secondary order.  The quadrature rule is
    exact for the integrand degree unless an explicit ``quadrature_degree``
    overrides it.  Vector components never enter the quadrature: on a
    product basis the scalar profile of a basis function is component
    independent, so the scalar factor integrals are computed once and
    written into every component block selected by the (fixed, secondary
    or auxiliary) component indices.
    """
    p0 = term.quadrature_degree() if quadrature_degree is None else (
        quadrature_degree
    )
    rule = make_quadrature(term.cell.shape, p0)

    # einsum labels count up in factor order, 0 is the quadrature point;
    # axis_labels holds the label of each A0 axis the integration yields,
    # and None on the component-valued user secondary axes
    rank = term.rank
    axis_labels = [None] * (rank + len(term.secondary))
    new_label = count(1)
    operands = []
    for f in term.factors:
        tab = quadrature_tabulation(f.element, rule.exact_degree)
        basis = next(new_label)
        axis_labels[f.slot if f.expansion is None
                    else rank + f.expansion.value] = basis
        if f.derivatives:
            deriv = next(new_label)
            axis_labels[rank + f.derivatives[0].value] = deriv
            operands.extend([tab.gradients, [basis, deriv, 0]])
        else:
            operands.extend([tab.values, [basis, 0]])
    operands.extend([rule.weights, [0]])
    out_labels = [label for label in axis_labels if label is not None]
    scalar_block = np.einsum(*operands, out_labels, optimize=_contraction_path(
        tuple((a.shape, tuple(labels)) for a, labels in zip(operands[::2],
                                                            operands[1::2])),
        tuple(out_labels)))

    entries = np.zeros(term.primary_dims + term.secondary_dims)
    # user secondary indices lead term.secondary; each transform and each
    # coefficient read created one of the others
    n_user = len(term.secondary) - len(term.transforms) - len(term.coeff_reads)

    def block(f, values):
        """Basis rows of factor f in its selected component."""
        if f.element.value_rank == 0:
            return slice(None)
        c, n = f.component, f.element.scalar_dim
        k = c.value if c.kind == "fixed" else values[c.kind][c.value]
        return slice(k * n, (k + 1) * n)

    # every assignment of the free components writes its own block
    for combo in iter_product(range(term.cell.dim),
                              repeat=n_user + len(term.aux_a0)):
        values = {"secondary": combo[:n_user], "auxiliary": combo[n_user:]}
        selector = ([block(f, values) for f in term.arg_factors]
                    + list(combo[:n_user])
                    + [slice(None)] * (len(term.secondary) - n_user))
        for f in term.coeff_factors:
            selector[rank + f.expansion.value] = block(f, values)
        entries[tuple(selector)] += scalar_block

    entries.flags.writeable = False
    return entries


def _reference_key(term):
    """Equal keys mean bitwise-equal compute_reference_tensor entries.

    Each factor contributes its element, kind and slot, and its component,
    derivative and coefficient expansion index as (kind, value): a fixed
    value or the slot of a classified index.  Index renamings between
    monomials thus share a key.
    """
    def where(i):
        return None if i is None else (i.kind, i.value)

    return term.cell.shape, term.secondary_dims, tuple(
        (f.element, f.kind, f.slot, where(f.component),
         tuple(map(where, f.derivatives)), where(f.expansion))
        for f in term.factors)


# --- geometry tensor -----------------------------------------------------------


class GeometryTensorExpr:
    """Closed-form per-element expression for the geometry tensor.

    For a fixed secondary multiindex alpha the component is

        scalar * det * sum over auxiliary assignments beta of
                       prod dXdx[alpha[ref], x] * prod w[coeff][alpha[k]]

    over the transforms (ref, x) and coefficient reads (coeff, k).  ref and
    k are secondary slots; x is ("s", k) for alpha[k], ("b", k) for beta[k]
    or ("f", v) for the fixed direction v.  Secondary slot k runs over
    dims[k] and auxiliary slot k over aux_dims[k].  ``rank`` equals the
    number of secondary slots: one per coefficient read plus one per free
    transform slot.
    """

    def __init__(self, scalar, dims, aux_dims, transforms, coeff_reads):
        self.scalar = scalar
        self.dims = tuple(dims)
        self.rank = len(self.dims)
        self.aux_dims = tuple(aux_dims)
        self.transforms = tuple(transforms)
        self.coeff_reads = tuple(coeff_reads)

        self.n_coefficient_slots = len(self.coeff_reads)
        # the reference direction, plus the x direction when it is free
        self.n_transform_slots = sum(
            1 + (x[0] == "s") for _, x in self.transforms)

    @property
    def n_components(self):
        return prod(self.dims) if self.dims else 1

    def component_multiindices(self):
        return list(iter_product(*[range(n) for n in self.dims]))

    @cached_property
    def expansion(self):
        """The expanded sum of products of every component as index arrays.

        ``rows`` and ``cols`` [S x N x T] hold the dXdx entry read by each
        transform and ``dofs`` [S x N x C] the dof read by each coefficient
        read, for S auxiliary assignments and N components, both in
        row-major order.
        """
        alpha = _multiindices(self.dims)  # one [N] array per secondary slot
        beta = [b[:, None] for b in _multiindices(self.aux_dims)]  # [S x 1]
        shape = (prod(self.aux_dims), self.n_components)
        rows = np.empty(shape + (len(self.transforms),), dtype=int)
        cols = np.empty_like(rows)
        dofs = np.empty(shape + (len(self.coeff_reads),), dtype=int)
        for t, (ref, (kind, k)) in enumerate(self.transforms):
            rows[..., t] = alpha[ref]
            cols[..., t] = (alpha[k] if kind == "s" else
                             beta[k] if kind == "b" else k)
        for c, (_, k) in enumerate(self.coeff_reads):
            dofs[..., c] = alpha[k]
        return rows, cols, dofs

    @cached_property
    def representatives(self):
        """For each component, the first component in row-major order that
        is the same sum of products up to the order of the factors and of
        the products (G_ab = G_ba for Poisson), as an [N] index array."""
        rows, cols, dofs = self.expansion
        n_sums, n = rows.shape[:2]
        # a code per factor, sorted within each product: dXdx entries first,
        # then coefficient dofs keyed by their coefficient number.  Every
        # index is below the largest extent: a transform's reference slot
        # runs over the cell dimension.
        width = max(self.dims, default=1)
        numbers = np.array([c for c, _ in self.coeff_reads], dtype=int)
        products = np.concatenate([np.sort(rows * width + cols, axis=2),
                                   np.sort(numbers * width + dofs, axis=2)],
                                  axis=2)
        if n_sums > 1:  # a code per product, sorted within each sum
            ids = _first_equal_rows(products.reshape(n_sums * n, -1))
            products = np.sort(ids.reshape(n_sums, n), axis=0)[..., None]
        return _first_equal_rows(products.transpose(1, 0, 2).reshape(n, -1))

    @cached_property
    def key(self):
        """Equal keys mean equal expressions, component by component."""
        return (self.scalar, self.dims, tuple(c for c, _ in self.coeff_reads),
                self.expansion[0].shape) + tuple(
                    a.tobytes() for a in self.expansion)

    def evaluate(self, dets, gs, coeffs=(), components=None, out=None):
        """Geometry tensor components for a batch of affine maps.

        ``dets`` has shape [ncells], ``gs`` is dX/dx with shape
        [ncells x d x d] and ``coeffs`` one [ncells x n_e] array per
        coefficient.  ``components`` selects flat component indices, all
        by default.  Each transform and each coefficient read is one
        gather over all cells, auxiliary assignments and components; the
        running product starts from the first and the others are
        multiplied in one at a time, so that at most two
        [ncells x S x n_selected] arrays are live.  The S auxiliary
        assignments are then added in order, and ``scalar * |det|``
        multiplies last, written into ``out`` ([ncells x n_selected],
        any strides; a new array by default), which is returned.  The
        determinant enters through its absolute value so that negatively
        oriented cells integrate correctly.
        """
        dets = np.atleast_1d(np.asarray(dets, dtype=float))
        gs = np.asarray(gs, dtype=float)
        rows, cols, dofs = (self.expansion if components is None else
                            (a[:, components] for a in self.expansion))
        if out is None:
            out = np.empty((len(dets), rows.shape[1]))
        scale = (self.scalar * np.abs(dets))[:, None]
        # (array, index) of each factor's gather
        reads = ([(gs, (slice(None), rows[..., t], cols[..., t]))
                  for t in range(rows.shape[2])]
                 + [(coeffs[c], (slice(None), dofs[..., k]))
                    for k, (c, _) in enumerate(self.coeff_reads)])
        if not reads:  # every component is scalar * |det|
            out[...] = scale
            return out
        source, index = reads[0]
        products = source[index]
        for source, index in reads[1:]:
            products *= source[index]
        # added in order, not by sum(): numpy sums eight or more terms
        # pairwise in a shape-dependent order, and a cell's value must not
        # depend on its batch
        total = products[:, 0]
        for s in range(1, products.shape[1]):
            total += products[:, s]
        return np.multiply(total, scale, out=out)


def _first_equal_rows(table):
    """Index of the first row equal to each row of a 2-D integer table."""
    first = {}
    return np.array([first.setdefault(tuple(row), r)
                     for r, row in enumerate(table.tolist())], dtype=int)


def _multiindices(dims):
    """Row-major multiindices of dims, as one index array per axis."""
    return np.unravel_index(np.arange(prod(dims)), dims) if dims else ()


def derive_geometry_expr(term):
    """Geometry tensor expression paired with the monomial's A0: each
    classified index becomes the slot its value holds, tagged by kind."""
    tag = {"secondary": "s", "auxiliary": "b", "fixed": "f"}
    return GeometryTensorExpr(
        term.scalar, term.secondary_dims, [i.range for i in term.aux_g],
        [(ref.value, (tag[x.kind], x.value)) for ref, x in term.transforms],
        [(c, e.value) for c, e in term.coeff_reads],
    )


def _kept(entries, rel_tol=DROP_TOL):
    """Mask of the entries with |value| > rel_tol * max|entries|."""
    magnitude = np.abs(entries)
    return magnitude > rel_tol * (magnitude.max() if entries.size else 0.0)


# --- compiled forms -------------------------------------------------------------


class CompiledTerm:
    """One geometry expression and the A0 nonzeros it contracts with, as
    ``matrix`` (CSR, flat primary index by flat secondary index)."""

    def __init__(self, geometry, primary_dims, matrix):
        self.geometry = geometry
        self.primary_dims = tuple(primary_dims)
        self.secondary_dims = geometry.dims
        self.matrix = matrix

    @cached_property
    def used_components(self):
        """Ascending flat indices of the G components some A0 nonzero
        reads, read-only."""
        used = np.unique(self.matrix.indices)
        used.flags.writeable = False
        return used


def batch_arrays(dim, coefficient_dims, dets, gs, coeffs):
    """A batch of n affine maps and coefficient dofs as float arrays: dets
    [n], gs [n x dim x dim] (an empty gs holds no maps) and one [n x n_e]
    array per coefficient, or DimensionMismatch.  Float input is not
    copied."""
    dets, gs = np.asarray(dets, dtype=float), np.asarray(gs, dtype=float)
    gs = gs if gs.size else gs.reshape(0, dim, dim)
    coeffs = [np.asarray(c, dtype=float) for c in coeffs]
    if len(coeffs) != len(coefficient_dims):
        raise DimensionMismatch("form needs %d coefficients, got %d"
                                % (len(coefficient_dims), len(coeffs)))
    n = dets.shape[:1]
    shapes = [gs.shape] + [c.shape for c in coeffs]
    if dets.ndim != 1 or shapes != [n + (dim, dim)] + [
            n + (e,) for e in coefficient_dims]:
        raise DimensionMismatch(
            "a batch needs dets [n], gs [n x %d x %d] and [n x n_e] arrays, "
            "n_e = %s; got %s" % (dim, dim, list(coefficient_dims),
                                  [dets.shape] + shapes))
    return dets, gs, coeffs


def contract_terms(cf, dets, gs, coeffs=()):
    """Contract every term of a compiled form for a batch of affine maps.

    Every term's G components are written into one [ncells x K] G, and
    one sparse product with the U rows of ``cf.contraction`` gives
    [U x ncells], gathered out to [block x ncells] by its row map, if any.
    Returns [ncells x n1 x ... x nr] with the primary multiindex laid out
    row-major.
    """
    dets, gs, coeffs = batch_arrays(cf.dim, cf.coefficient_dims, dets, gs,
                                    coeffs)
    ncells = dets.shape[0]
    a0, rows, negated = cf.contraction
    g = np.empty((a0.shape[1], ncells)).T  # G.T is contiguous for scipy
    stop = 0
    for ct in cf.terms:
        start, stop = stop, stop + ct.used_components.size
        ct.geometry.evaluate(dets, gs, coeffs, ct.used_components,
                             out=g[:, start:stop])
    out = a0 @ g.T
    if rows is not None:
        out = out[rows]
        out[negated] *= -1.0
    return out.T.reshape((ncells,) + cf.primary_dims)


def row_classes(matrices, codes, flipped):
    """Map the rows shared by term CSRs onto their distinct rows, equal up
    to sign, given one int64 code per nonzero of ``matrices[t]`` in
    ``codes[t]`` and the code of its negation in ``flipped[t]``.

    A row is keyed by the tuple over terms of its (column, code) bytes,
    not by their join, as two terms can share column numbers.  The first
    row of each key, or of its flipped key, represents it; all empty rows
    share one.  Returns (representatives, rows, negated): representative
    row numbers, each row's position among them, and the negated rows.
    """
    keys, negations = [], []
    for m, code, flip in zip(matrices, codes, flipped):
        table = np.empty((m.nnz, 2), dtype=np.int64)  # 16 bytes per nonzero
        table[:, 0] = m.indices
        bounds = (16 * m.indptr).tolist()
        for out, column in ((keys, code), (negations, flip)):
            table[:, 1] = column
            data = table.tobytes()
            out.append([data[a:b] for a, b in zip(bounds, bounds[1:])])
    first = {}  # key -> position among the representatives
    representatives, rows, negated = [], [], []
    for r, (key, neg) in enumerate(zip(zip(*keys), zip(*negations))):
        if key not in first:
            if neg in first:
                key = neg
                negated.append(r)
            else:
                first[key] = len(representatives)
                representatives.append(r)
        rows.append(first[key])
    return representatives, np.array(rows, dtype=np.intp), np.array(
        negated, dtype=np.intp)


class CompiledForm:
    """A form in tensor representation, compiled or reread from raw text.

    ``element_tensors(dets, gs, coeffs)`` contracts every term for a
    batch of affine maps and returns [ncells x n1 x ... x nr]; primary
    multiindices are flattened row-major into the output block.  ``form``,
    ``arguments`` and ``coefficients`` are None for a reread listing.
    """

    def __init__(self, name, cell, arity, primary_dims, coefficient_dims,
                 terms, form=None):
        self.name = name
        self.cell = cell
        self.dim = cell.dim
        self.arity = arity
        self.primary_dims = tuple(primary_dims)
        self.coefficient_dims = tuple(coefficient_dims)
        self.terms = list(terms)
        self.form = form
        self.arguments = form.arguments if form else None
        self.coefficients = form.coefficients if form else None

    @property
    def block_size(self):
        return prod(self.primary_dims)

    @property
    def stacked(self):
        """A0 of every term over the G components it reads, side by side
        in term order: CSR [block x K], built anew on each read."""
        blocks = [scipy.sparse.csr_matrix(
            (ct.matrix.data,
             np.searchsorted(ct.used_components, ct.matrix.indices),
             ct.matrix.indptr),
            shape=(self.block_size, ct.used_components.size))
            for ct in self.terms]
        return scipy.sparse.hstack(
            [scipy.sparse.csr_matrix((self.block_size, 0))] + blocks,
            format="csr")

    @cached_property
    def contraction(self):
        """(a0, rows, negated): the A0 rows contract_terms multiplies, and
        how they give the block.

        When the stack's nonzeros outside its distinct rows outnumber the
        block's rows, ``a0`` holds the distinct rows of ``stacked``,
        ``rows`` maps each block row onto one of them and ``negated``
        lists the block rows that change sign; otherwise ``a0`` is the
        stack and ``rows`` is None.  Built on the first contraction, not
        by compile_form; the full stack is not kept beside the distinct
        rows.
        """
        a0 = self.stacked
        matrices = [ct.matrix for ct in self.terms]
        representatives, rows, negated = row_classes(
            matrices, [m.data.view(np.int64) for m in matrices],
            [(-m.data).view(np.int64) for m in matrices])
        distinct = a0[representatives]
        if a0.nnz - distinct.nnz > self.block_size:
            return distinct, rows, negated
        return a0, None, None

    def element_tensors(self, dets, gs, coeffs=()):
        return contract_terms(self, dets, gs, coeffs)

    def element_tensor(self, det, g, coeffs=()):
        """Single-cell convenience wrapper."""
        return self.element_tensors([det], [g], coeffs)[0]


def compile_form(form):
    """Compile a language form into its tensor representation.

    Monomials whose geometry expressions have equal keys share one term:
    their dense A0 blocks are summed, in first-occurrence order.  Monomials
    with equal reference keys share one integration.  The A0 column of
    each G component that equals an earlier one (``representatives``) is
    then added to that component's column and zeroed, and entries at or
    below DROP_TOL of the largest are dropped.
    """
    if not isinstance(form, Form):
        raise TypeError("expected a Form")
    primary_dims = tuple(el.space_dim for el in form.arguments)
    groups = {}  # geometry key -> [geometry, summed A0 entries]
    integrated = {}  # reference key -> A0 entries
    for monomial in expand_to_monomials(form):
        term = classify_indices(monomial)
        geometry = derive_geometry_expr(term)
        key = _reference_key(term)
        if key not in integrated:
            integrated[key] = compute_reference_tensor(term)
        group = groups.setdefault(geometry.key, [geometry, 0.0])
        group[1] = group[1] + integrated[key]
    terms = []
    for geometry, entries in groups.values():
        flat = entries.reshape(prod(primary_dims), geometry.n_components)
        rep = geometry.representatives
        for n in np.flatnonzero(rep != np.arange(rep.size)).tolist():
            flat[:, rep[n]] += flat[:, n]
            flat[:, n] = 0.0
        kept = _kept(flat)
        indptr = np.zeros(flat.shape[0] + 1, dtype=np.int32)
        kept.sum(axis=1).cumsum(out=indptr[1:])
        rows, cols = kept.nonzero()
        matrix = scipy.sparse.csr_matrix(
            (flat[rows, cols], cols.astype(np.int32), indptr),
            shape=flat.shape)
        terms.append(CompiledTerm(geometry, primary_dims, matrix))
    return CompiledForm(
        form.name, form.cell, form.arity, primary_dims,
        [el.space_dim for el in form.coefficients], terms, form=form)
