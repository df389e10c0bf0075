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
gathered factor at a time, into its columns of one [ncells x K] array;
the A0 columns of all terms, restricted the same way, lie side by side
in one CSR over K columns, and one sparse product G @ A0^T gives
[ncells x block].  The
sparse product adds each entry in the fixed order of its A0 row, so a
cell's block is bitwise the same in every batch.  A dense BLAS product
is not: it picks its kernels by the number of rows.

Index bookkeeping follows four kinds.  Primary indices are the element
tensor axes, one per argument.  Each spatial derivative introduces a fresh
secondary index pairing the reference-direction derivative (A0 side) with a
dX/dx factor (G side), and each coefficient factor introduces a secondary
expansion index pairing its basis factor (A0) with a dof read (G).  A free
index written by the user must occur exactly twice: twice among components
means an auxiliary sum inside A0, twice among derivative directions means an
auxiliary sum inside G, and once on each side makes it secondary.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product as iter_product
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
    "ReferenceTensor",
    "GeometryTensorExpr",
    "CompiledTerm",
    "CompiledForm",
    "classify_indices",
    "compute_reference_tensor",
    "derive_geometry_expr",
    "contract_terms",
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

    @property
    def scalar_dim(self):
        return self.element.scalar_dim


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


def classify_indices(monomial):
    """Decide the kind of every index of one expanded monomial.

    Returns a MonomialTerm with fresh classified index objects; the free
    indices of the input keep their pairing but are rebound to secondary or
    auxiliary copies.  Raises IndexOccursOnce / IndexOccursThrice when a
    free index is not repeated exactly twice, and DimensionMismatch when a
    vector-valued factor lacks a component.
    """
    if not isinstance(monomial, Monomial):
        raise TypeError("expected a Monomial")
    factors = monomial.factors
    cell = factors[0].element.cell
    d = cell.dim

    # occurrence sides of each free index: components live on the reference
    # side, derivative directions on the geometry side
    occurrences = {}
    order = []
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
            if index.id not in occurrences:
                occurrences[index.id] = []
                order.append(index.id)
            occurrences[index.id].append(side)

    rebound = {}
    user_secondary = []
    aux_a0 = []
    aux_g = []
    for index_id in order:
        sides = occurrences[index_id]
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
            new = Index("auxiliary", range=d)
            aux_a0.append(new)
        elif sides == ["g", "g"]:
            new = Index("auxiliary", range=d)
            aux_g.append(new)
        else:
            new = Index("secondary", range=d)
            user_secondary.append(new)
        rebound[index_id] = new

    # rebuild factors, introducing expansion and reference-direction indices
    created_secondary = []
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
        if isinstance(f, BasisFunction):
            kind, slot = "argument", f.slot
        else:
            kind, slot = "coefficient", f.number
            expansion = Index("secondary", range=f.element.space_dim)
            created_secondary.append(expansion)
            coeff_reads.append((slot, expansion))
        derivs = []
        for i in f.derivatives:
            ref = Index("secondary", range=d)
            created_secondary.append(ref)
            derivs.append(ref)
            x = i if i.kind == "fixed" else rebound[i.id]
            transforms.append((ref, x))
        classified.append(ClassifiedFactor(
            element=f.element,
            kind=kind,
            slot=slot,
            component=component,
            derivatives=tuple(derivs),
        ))

    secondary = user_secondary + created_secondary
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


class ReferenceTensor:
    """Dense, read-only reference tensor of one monomial.

    Axes: the primary indices in slot order, then the secondary indices in
    the monomial's secondary order.  Flattening is row-major throughout.
    """

    def __init__(self, entries, primary_rank):
        entries.flags.writeable = False
        self.entries = entries
        self.rank = entries.ndim
        self.primary_rank = primary_rank
        self.dims = entries.shape

    def __repr__(self):
        return "ReferenceTensor(dims=%r, primary=%d)" % (
            tuple(self.dims), self.primary_rank,
        )


@lru_cache(maxsize=256)
def _contraction_path(inputs, out_labels):
    """The path einsum(optimize=True) takes for operands of these shapes and
    labels; it depends on nothing else, so it is searched for once."""
    operands = []
    for shape, labels in inputs:
        operands += [np.broadcast_to(0.0, shape), list(labels)]
    return np.einsum_path(*operands, list(out_labels), optimize=True)[0]


def compute_reference_tensor(term, quadrature_degree=None):
    """Integrate the reference-side factor products of one monomial.

    The quadrature rule is exact for the integrand degree unless an
    explicit ``quadrature_degree`` overrides it.  Vector components never
    enter the quadrature: on a product basis the scalar profile of a basis
    function is component independent, so the scalar factor integrals are
    computed once and written into every component block selected by the
    (fixed, secondary or auxiliary) component indices.
    """
    p0 = term.quadrature_degree() if quadrature_degree is None else (
        quadrature_degree
    )
    rule = make_quadrature(term.cell.shape, p0)

    q_label = 0
    next_label = 1
    operands = []
    basis_labels = {}
    deriv_labels = {}
    for k, f in enumerate(term.factors):
        tab = quadrature_tabulation(f.element, rule.exact_degree)
        basis_labels[k] = next_label
        next_label += 1
        if f.derivatives:
            arr = tab.gradients
            deriv_labels[f.derivatives[0].id] = next_label
            labels = [basis_labels[k], next_label, q_label]
            next_label += 1
        else:
            arr = tab.values
            labels = [basis_labels[k], q_label]
        operands.extend([arr, labels])
    operands.extend([rule.weights, [q_label]])

    out_labels = []
    factor_index = {id(f): k for k, f in enumerate(term.factors)}
    for f in term.arg_factors:
        out_labels.append(basis_labels[factor_index[id(f)]])
    coeff_iter = iter(
        k for k, f in enumerate(term.factors) if f.kind == "coefficient"
    )
    coeff_factor_of = dict(zip((e.id for _, e in term.coeff_reads), coeff_iter))
    for s in term.secondary:
        if s.id in deriv_labels:
            out_labels.append(deriv_labels[s.id])
        elif s.id in coeff_factor_of:
            out_labels.append(basis_labels[coeff_factor_of[s.id]])
        # user secondary indices are component valued and handled blockwise
    scalar_block = np.einsum(*operands, out_labels, optimize=_contraction_path(
        tuple((a.shape, tuple(labels)) for a, labels in zip(operands[::2],
                                                            operands[1::2])),
        tuple(out_labels)))

    dims = term.primary_dims + term.secondary_dims
    entries = np.zeros(dims)

    component_ids = []
    for f in term.factors:
        c = f.component
        if c is not None and c.kind != "fixed" and c.id not in component_ids:
            component_ids.append(c.id)

    def block(f, assignment):
        """Basis rows of factor f in its selected component."""
        if f.element.value_rank == 0:
            return slice(None)
        c = f.component
        c = c.value if c.kind == "fixed" else assignment[c.id]
        return slice(c * f.scalar_dim, (c + 1) * f.scalar_dim)

    for combo in iter_product(range(term.cell.dim), repeat=len(component_ids)):
        assignment = dict(zip(component_ids, combo))
        selector = [block(f, assignment) for f in term.arg_factors]
        for s in term.secondary:
            if s.id in deriv_labels:
                selector.append(slice(None))
            elif s.id in coeff_factor_of:
                selector.append(
                    block(term.factors[coeff_factor_of[s.id]], assignment))
            else:
                selector.append(assignment[s.id])
        entries[tuple(selector)] += scalar_block

    return ReferenceTensor(entries, term.rank)


def _reference_key(term):
    """Equal keys mean bitwise-equal compute_reference_tensor entries.

    Each factor contributes its element, kind and slot, its component and
    derivative as a fixed value or as the position of a secondary ("s") or
    auxiliary ("a") index, and for a coefficient the position of its
    expansion index.  Index renamings between monomials thus share a key.
    """
    pos = {i.id: ("s", k) for k, i in enumerate(term.secondary)}
    pos.update((i.id, ("a", k)) for k, i in enumerate(term.aux_a0))

    def where(i):
        return ("f", i.value) if i.kind == "fixed" else pos[i.id]

    expansion = iter([pos[e.id] for _, e in term.coeff_reads])
    return term.cell.shape, term.secondary_dims, tuple(
        (f.element, f.kind, f.slot,
         None if f.component is None else where(f.component),
         tuple(map(where, f.derivatives)),
         next(expansion) if f.kind == "coefficient" else None)
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

    def evaluate(self, dets, gs, coeffs=(), components=None):
        """Geometry tensor components for a batch of affine maps.

        ``dets`` has shape [ncells], ``gs`` is dX/dx with shape
        [ncells x d x d] and ``coeffs`` one [ncells x n_e] array per
        coefficient.  ``components`` selects flat component indices, all
        by default.  Each transform and each coefficient read is one
        gather over all cells, auxiliary assignments and components,
        multiplied in one at a time, so that at most two
        [ncells x S x n_selected] arrays are live; a sum over the S
        auxiliary assignments reduces them.  Returns [ncells x n_selected];
        the determinant enters through its absolute value so that
        negatively oriented cells integrate correctly.
        """
        dets = np.atleast_1d(np.asarray(dets, dtype=float))
        gs = np.asarray(gs, dtype=float)
        rows, cols, dofs = (self.expansion if components is None else
                            (a[:, components] for a in self.expansion))
        n_transforms = rows.shape[-1]
        products = (gs[:, rows[..., 0], cols[..., 0]] if n_transforms else
                    np.ones((len(gs),) + rows.shape[:2]))
        for t in range(1, n_transforms):
            products *= gs[:, rows[..., t], cols[..., t]]
        for k, (coeff, _) in enumerate(self.coeff_reads):
            products *= coeffs[coeff][:, dofs[..., k]]
        # added in order, not by sum(): numpy sums eight or more terms
        # pairwise in a shape-dependent order, and a cell's value must not
        # depend on its batch
        out = products[:, 0]
        for s in range(1, products.shape[1]):
            out = out + products[:, s]
        return out * (self.scalar * np.abs(dets))[:, None]


def _first_equal_rows(table):
    """Index of the first row equal to each row of a 2-D integer table."""
    first = {}
    return np.array([first.setdefault(tuple(row), r)
                     for r, row in enumerate(table.tolist())], dtype=int)


def _multiindices(dims):
    """Row-major multiindices of dims, as one index array per axis."""
    return np.unravel_index(np.arange(prod(dims)), dims) if dims else ()


def derive_geometry_expr(term):
    """Geometry tensor expression paired with the monomial's A0; classified
    indices become slots by their position in term.secondary or term.aux_g."""
    slots = {i.id: ("s", k) for k, i in enumerate(term.secondary)}
    slots.update((i.id, ("b", k)) for k, i in enumerate(term.aux_g))
    return GeometryTensorExpr(
        term.scalar, term.secondary_dims, [i.range for i in term.aux_g],
        [(slots[ref.id][1], ("f", x.value) if x.kind == "fixed"
          else slots[x.id]) for ref, x in term.transforms],
        [(c, slots[e.id][1]) for c, e in term.coeff_reads],
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

    @property
    def tensor(self):
        """Dense A0, rebuilt from the nonzeros."""
        return ReferenceTensor(
            self.matrix.toarray().reshape(self.primary_dims + self.secondary_dims),
            len(self.primary_dims))

    @cached_property
    def used_components(self):
        """Ascending flat indices of the G components some A0 nonzero
        reads, read-only."""
        used = np.unique(self.matrix.indices)
        used.flags.writeable = False
        return used


def contract_terms(cf, dets, gs, coeffs=()):
    """Contract every term of a compiled form for a batch of affine maps:
    G @ A0^T with one [ncells x K] G and the stacked A0 (``cf.stacked``).

    Returns [ncells x n1 x ... x nr] with the primary multiindex laid out
    row-major.
    """
    dets = np.atleast_1d(np.asarray(dets, dtype=float))
    ncells = dets.shape[0]
    gs = np.asarray(gs, dtype=float).reshape(ncells, cf.dim, cf.dim)
    coeffs = [np.atleast_2d(np.asarray(c, dtype=float)) for c in coeffs]
    a0 = cf.stacked
    g = np.empty((a0.shape[1], ncells)).T  # G.T is contiguous for scipy
    stop = 0
    for ct in cf.terms:
        start, stop = stop, stop + ct.used_components.size
        g[:, start:stop] = ct.geometry.evaluate(dets, gs, coeffs,
                                                ct.used_components)
    return (g @ a0.T).reshape((ncells,) + cf.primary_dims)


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

    @cached_property
    def stacked(self):
        """A0 of every term over the G components it reads, side by side
        in term order: CSR [block x K].  Built on the first contraction,
        not by compile_form."""
        blocks = [scipy.sparse.csr_matrix(
            (ct.matrix.data,
             np.searchsorted(ct.used_components, ct.matrix.indices),
             ct.matrix.indptr),
            shape=(self.block_size, ct.used_components.size))
            for ct in self.terms]
        return scipy.sparse.hstack(
            [scipy.sparse.csr_matrix((self.block_size, 0))] + blocks,
            format="csr")

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
            integrated[key] = compute_reference_tensor(term).entries
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
