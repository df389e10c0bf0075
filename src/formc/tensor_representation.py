"""Tensor representation: reference tensors and geometry tensor expressions.

Each monomial of an expanded form is compiled into a pair (A0, G): a
reference tensor

    A0[i, alpha] = integral over the reference cell of the product of
                   (derivatives of) reference basis functions

precomputed once by quadrature, and a geometry tensor expression

    G[alpha] = c * det * (products of dX/dx entries and coefficient dofs)

evaluated per element, so that the element tensor is the contraction
A[i] = sum_alpha A0[i, alpha] * G[alpha].

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
    "drop_zeros",
    "contract_terms",
    "compile_form",
]

DEFAULT_DROP_TOL = 1e-14


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
    """Dense reference tensor of one monomial.

    Axes: the primary indices in slot order, then the secondary indices in
    the monomial's secondary order.  Flattening is row-major throughout.
    """

    def __init__(self, term, entries, quadrature_degree):
        self.term = term
        self.entries = entries
        self.rank = entries.ndim
        self.primary_rank = term.rank
        self.dims = entries.shape
        self.quadrature_degree = quadrature_degree

    def __repr__(self):
        return "ReferenceTensor(dims=%r, primary=%d)" % (
            tuple(self.dims), self.primary_rank,
        )


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
    scalar_block = np.einsum(*operands, out_labels, optimize=True)

    dims = term.primary_dims + term.secondary_dims
    entries = np.zeros(dims)

    component_ids = []
    for f in term.factors:
        c = f.component
        if c is not None and c.kind != "fixed" and c.id not in component_ids:
            component_ids.append(c.id)

    d = term.cell.dim

    def component_value(index, assignment):
        if index.kind == "fixed":
            return index.value
        return assignment[index.id]

    for combo in iter_product(range(d), repeat=len(component_ids)):
        assignment = dict(zip(component_ids, combo))
        selector = []
        for f in term.arg_factors:
            if f.element.value_rank == 0:
                selector.append(slice(None))
            else:
                c = component_value(f.component, assignment)
                ns = f.scalar_dim
                selector.append(slice(c * ns, (c + 1) * ns))
        for s in term.secondary:
            if s.id in deriv_labels:
                selector.append(slice(None))
            elif s.id in coeff_factor_of:
                f = term.factors[coeff_factor_of[s.id]]
                if f.element.value_rank == 0:
                    selector.append(slice(None))
                else:
                    c = component_value(f.component, assignment)
                    ns = f.scalar_dim
                    selector.append(slice(c * ns, (c + 1) * ns))
            else:
                selector.append(assignment[s.id])
        entries[tuple(selector)] += scalar_block

    entries.flags.writeable = False
    return ReferenceTensor(term, entries, rule.exact_degree)


# --- geometry tensor -----------------------------------------------------------


class GeometryTensorExpr:
    """Closed-form per-element expression for the geometry tensor.

    For a fixed value of the secondary multiindex the component is

        c * det * sum over auxiliary assignments of
                  prod dXdx[ref, x] * prod w[coeff][dof]

    with the auxiliary sums expanded explicitly.  ``rank`` equals the
    number of free secondary slots: one per coefficient read plus one per
    free transform slot.
    """

    def __init__(self, scalar, secondary, aux_g, transforms, coeff_reads):
        self.scalar = scalar
        self.secondary = tuple(secondary)
        self.dims = tuple(i.range for i in self.secondary)
        self.rank = len(self.dims)
        self.aux_g = tuple(aux_g)
        self.transforms = tuple(transforms)
        self.coeff_reads = tuple(coeff_reads)

        self.n_coefficient_slots = len(self.coeff_reads)
        self.n_transform_slots = 0
        pos = {s.id: k for k, s in enumerate(self.secondary)}
        self._pos = pos
        for ref, x in self.transforms:
            self.n_transform_slots += 1  # the reference direction
            if x.kind == "secondary":
                self.n_transform_slots += 1

    @property
    def n_components(self):
        return prod(self.dims) if self.dims else 1

    def component_multiindices(self):
        return list(iter_product(*[range(n) for n in self.dims]))

    def terms_for(self, alpha):
        """Expanded sum of products for one component.

        Each term is a list of atoms ("g", a, b) and ("w", coeff, dof);
        the common factor c * det is not included.
        """
        out = []
        aux_ranges = [range(i.range) for i in self.aux_g]
        for sigma in iter_product(*aux_ranges):
            bound = {i.id: v for i, v in zip(self.aux_g, sigma)}
            atoms = []
            for ref, x in self.transforms:
                a = alpha[self._pos[ref.id]]
                if x.kind == "fixed":
                    b = x.value
                elif x.kind == "secondary":
                    b = alpha[self._pos[x.id]]
                else:
                    b = bound[x.id]
                atoms.append(("g", a, b))
            for coeff, expansion in self.coeff_reads:
                atoms.append(("w", coeff, alpha[self._pos[expansion.id]]))
            out.append(atoms)
        return out

    def evaluate(self, dets, gs, coeffs=()):
        """Geometry tensor components for a batch of affine maps.

        ``dets`` has shape [ncells], ``gs`` is dX/dx with shape
        [ncells x d x d] and ``coeffs`` one [ncells x n_e] array per
        coefficient.  Returns [ncells x n_components]; the determinant
        enters through its absolute value so that negatively oriented
        cells integrate correctly.
        """
        dets = np.atleast_1d(np.asarray(dets, dtype=float))
        gs = np.asarray(gs, dtype=float)
        ncells = dets.shape[0]
        alphas = np.array(self.component_multiindices(), dtype=int).reshape(
            self.n_components, self.rank
        )

        out = np.zeros((ncells, self.n_components))
        aux_ranges = [range(i.range) for i in self.aux_g]
        for sigma in iter_product(*aux_ranges):
            bound = {i.id: v for i, v in zip(self.aux_g, sigma)}
            piece = np.ones((ncells, self.n_components))
            for ref, x in self.transforms:
                a = alphas[:, self._pos[ref.id]]
                if x.kind == "fixed":
                    b = np.full(self.n_components, x.value)
                elif x.kind == "secondary":
                    b = alphas[:, self._pos[x.id]]
                else:
                    b = np.full(self.n_components, bound[x.id])
                piece = piece * gs[:, a, b]
            for coeff, expansion in self.coeff_reads:
                dof = alphas[:, self._pos[expansion.id]]
                piece = piece * coeffs[coeff][:, dof]
            out += piece
        out *= self.scalar * np.abs(dets)[:, None]
        return out


def derive_geometry_expr(term):
    """Geometry tensor expression paired with the monomial's A0."""
    return GeometryTensorExpr(
        term.scalar, term.secondary, term.aux_g,
        term.transforms, term.coeff_reads,
    )


def _kept(entries, rel_tol):
    """Mask of the entries with |value| > rel_tol * max|entries|."""
    magnitude = np.abs(entries)
    return magnitude > rel_tol * (magnitude.max() if entries.size else 0.0)


def drop_zeros(tensor, rel_tol=DEFAULT_DROP_TOL):
    """Sparse view of a reference tensor.

    Returns [(multiindex, value)] keeping entries with
    |value| > rel_tol * max|entries|, in row-major order.
    """
    entries = tensor.entries if isinstance(tensor, ReferenceTensor) else (
        np.asarray(tensor)
    )
    keep = np.nonzero(_kept(entries, rel_tol))
    return list(zip(zip(*(k.tolist() for k in keep)),
                    entries[keep].tolist()))


# --- compiled forms -------------------------------------------------------------


class CompiledTerm:
    """One monomial: its A0 nonzeros as ``matrix`` (CSR, flat primary index
    by flat secondary index) and the geometry expression they contract
    with.  ``term`` and ``tensor`` are kept when compiled from a form."""

    def __init__(self, geometry, primary_dims, matrix, term=None,
                 tensor=None):
        self.term = term
        self.tensor = tensor
        self.geometry = geometry
        self.primary_dims = tuple(primary_dims)
        self.secondary_dims = geometry.dims
        self.matrix = matrix


def contract_terms(terms, primary_dims, dim, dets, gs, coeffs=()):
    """Contract compiled terms for a batch of affine maps.

    Returns [ncells x n1 x ... x nr] with the primary multiindex laid out
    row-major.
    """
    dets = np.atleast_1d(np.asarray(dets, dtype=float))
    gs = np.asarray(gs, dtype=float).reshape(dets.shape[0], dim, dim)
    coeffs = [np.atleast_2d(np.asarray(c, dtype=float)) for c in coeffs]
    out = np.zeros((dets.shape[0], prod(primary_dims)))
    for ct in terms:
        gvals = ct.geometry.evaluate(dets, gs, coeffs)
        out += (ct.matrix @ gvals.T).T
    return out.reshape((dets.shape[0],) + tuple(primary_dims))


class CompiledForm:
    """A form in tensor representation, compiled or reread from raw text.

    ``element_tensors(dets, gs, coeffs)`` contracts every monomial for a
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

    def element_tensors(self, dets, gs, coeffs=()):
        return contract_terms(
            self.terms, self.primary_dims, self.dim, dets, gs, coeffs
        )

    def element_tensor(self, det, g, coeffs=()):
        """Single-cell convenience wrapper."""
        return self.element_tensors([det], [g], coeffs)[0]


def compile_form(form, drop_tol=DEFAULT_DROP_TOL):
    """Compile a language form into its tensor representation."""
    if not isinstance(form, Form):
        raise TypeError("expected a Form")
    primary_dims = tuple(el.space_dim for el in form.arguments)
    terms = []
    for monomial in expand_to_monomials(form):
        term = classify_indices(monomial)
        tensor = compute_reference_tensor(term)
        geometry = derive_geometry_expr(term)
        flat = tensor.entries.reshape(prod(primary_dims),
                                      geometry.n_components)
        rows, cols = np.nonzero(_kept(flat, drop_tol))
        matrix = scipy.sparse.csr_matrix(
            (flat[rows, cols], (rows, cols)), shape=flat.shape)
        terms.append(CompiledTerm(geometry, primary_dims, matrix,
                                  term=term, tensor=tensor))
    return CompiledForm(
        form.name, form.cell, form.arity, primary_dims,
        [el.space_dim for el in form.coefficients], terms, form=form)
