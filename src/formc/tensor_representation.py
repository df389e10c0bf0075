"""Tensor representation: reference tensors and geometry tensor expressions.

Each monomial of an expanded form is compiled into a pair (A0, G): a
reference tensor

    A0[i, alpha] = integral over the reference cell of the product of
                   (derivatives of) reference basis functions

integrated once, exactly, and a geometry tensor expression

    G[alpha] = det * (products of dX/dx entries and coefficient dofs)

evaluated per element, so that the element tensor is the contraction
A[i] = sum_alpha A0[i, alpha] * G[alpha].  A monomial's constant scales
its A0.  Monomials with equal G share one G, and their A0 are summed.

Every A0 entry of a Lagrange form on a simplex is a rational number.  The
basis functions are integer polynomials in barycentric coordinates
(Silvester's product formula), their products integrate to integers over
a common denominator, and the sums of monomials with one constant and the
component folds stay in integers; only then is each nonzero rounded to
the double nearest its rational times the constant.  So equal values are
equal doubles; a value is dropped only if it rounds to zero.  No
quadrature is used.

A compiled form contracts a batch of cells in one step.  Each term
evaluates only the G components that some A0 nonzero reads, one gathered
factor at a time, straight into its columns of one [ncells x K] array;
the A0 columns of all terms, restricted the same way, lie side by side in
one CSR over K columns (``stacked``), the one store of A0 nonzeros: the
CompiledForm constructor builds it, the kernel plan reads it, and the
listings read each term's ``matrix``, decoded from it.  Many of its rows
repeat an earlier row exactly; ``KernelPlan`` finds them by their bits
(P3 on a tetrahedron: Navier-Stokes 401, elasticity 1,458 and Poisson 168
distinct of 3,600, 3,600 and 400 rows; Navier-Stokes stacks 55,746
nonzeros over 60 columns and multiplies 18,582 of them) and decides, once
per form, which earlier row each block row copies and which rows sum
their own nonzeros: the first row of each bit pattern, an empty one
included.  When contracting only these rows saves more multiply-adds
than the block has rows to copy, one sparse product A0_rows @ G^T gives
[U x ncells], and the plan's row map gathers it out to [block x ncells];
otherwise the whole stack is multiplied.  The emitted C sums the same
rows and copies the others.  The sparse product adds each entry in the
fixed order of its A0 row, so a cell's block is bitwise the same in
every batch, and a repeated row gives bitwise the value of its source.  A
dense BLAS product is not batch independent: it picks its kernels by the
number of rows.

Index bookkeeping follows four kinds.  Primary indices are the element
tensor axes, one per argument.  Each spatial derivative introduces a fresh
secondary index pairing the reference-direction derivative (A0 side) with a
dX/dx factor (G side), and each coefficient factor introduces a secondary
expansion index over its scalar basis, pairing its basis factor (A0) with a
dof read (G).  An argument's component acts on the A0 side, selecting its
component block; a coefficient's component and a derivative direction act
on the G side, a coefficient's component selecting the dofs it reads: A0
integrates only the coefficient's scalar profile, so its component would
only repeat A0 columns.  A free index written by the user must occur
exactly twice: twice on the A0 side means an auxiliary sum inside A0,
twice on the G side an auxiliary sum inside G, and once on each side makes
it secondary.
The classification belongs to the compiler, not to the form language:
``classify_indices`` gives each secondary or auxiliary index a
ClassifiedIndex record of its own, with its number among the monomial's
classified indices as ``id``, its slot as ``value`` (its position among
the monomial's secondary indices, or among its auxiliary indices of one
side) and its extent as ``range``.  Records are values: classifying a
monomial twice gives equal terms.
"""

from collections import namedtuple
from functools import cached_property, lru_cache, reduce
from itertools import count, product as iter_product
from math import factorial, gcd, isfinite, lcm, prod

import numpy as np
import scipy.sparse

from .errors import (
    DimensionMismatch,
    IndexOccursOnce,
    IndexOccursThrice,
    NonFiniteValue,
    UnsupportedDegree,
    UnsupportedDerivative,
)
from .form_language import BasisFunction, Form, Index, Product, expand_to_monomials

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
    "KernelPlan",
    "compile_form",
]

# a secondary or auxiliary index of one monomial: its kind, its number
# among the monomial's classified indices as id, its slot as value and its
# extent as range
ClassifiedIndex = namedtuple("ClassifiedIndex", "kind id value range")

# one reference-side basis factor of a classified monomial: its element;
# its kind, "argument" or "coefficient"; its slot, the argument slot or
# coefficient number; its component, a ClassifiedIndex, a fixed Index or
# None; its derivatives, secondary reference-direction indices; and its
# expansion, a coefficient's secondary expansion index, else None
ClassifiedFactor = namedtuple(
    "ClassifiedFactor", "element kind slot component derivatives expansion")


# a classified monomial: its cell and reference-side factors; its
# secondary indices, whose order pairs axis r + k of the reference tensor
# with axis k of the geometry tensor; its auxiliary indices of each side;
# its transforms, each (reference direction, x index); its coefficient
# reads, each coefficient factor's (number, expansion index, component
# index or None); and, derived from these, its argument factors in slot
# order, their number, their extents and the secondary extents
MonomialTerm = namedtuple(
    "MonomialTerm", "cell factors secondary aux_a0 aux_g transforms "
    "coeff_reads arg_factors rank primary_dims secondary_dims")


def classify_indices(monomial):
    """Decide the kind of every index of one expanded monomial.

    Returns a MonomialTerm for the Product; the free indices of the input
    keep their pairing but are rebound to secondary or auxiliary
    ClassifiedIndex records.  Each record gets its slot as ``value``: its
    position in term.secondary, term.aux_a0 or term.aux_g; on an interval,
    free indices become the fixed index 0.  Raises
    IndexOccursOnce / IndexOccursThrice when a free index is not repeated
    exactly twice, and DimensionMismatch when a vector-valued factor lacks
    a component.
    """
    if not isinstance(monomial, Product):
        raise TypeError("expected a Product")
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
            # an argument's component selects its A0 block; a coefficient's
            # selects the dofs its G read takes
            side = "a0" if isinstance(f, BasisFunction) else "g"
            sites.append((side, f.component))
        for i in f.derivatives:
            if i.kind != "fixed":
                sites.append(("g", i))
        for side, index in sites:
            occurrences.setdefault(index.id, []).append(side)

    rebound = {}
    secondary = []
    aux_a0 = []
    aux_g = []
    ids = count()  # numbers the classified indices in the order made

    def slotted(kind, slots, extent):
        """A fresh classified index whose value is its position in slots."""
        index = ClassifiedIndex(kind, next(ids), len(slots), extent)
        slots.append(index)
        return index

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
        if d == 1:
            rebound[index_id] = Index.fixed(0)
        elif sides == ["a0", "a0"]:
            rebound[index_id] = slotted("auxiliary", aux_a0, d)
        elif sides == ["g", "g"]:
            rebound[index_id] = slotted("auxiliary", aux_g, d)
        else:
            rebound[index_id] = slotted("secondary", secondary, d)

    # rebuild factors, introducing expansion and reference-direction
    # indices; a fixed index, whose id is None, stays as it is
    transforms = []
    coeff_reads = []
    classified = []
    for f in factors:
        component = None if f.component is None else rebound.get(
            f.component.id, f.component)
        expansion = None
        if isinstance(f, BasisFunction):
            kind, slot = "argument", f.slot
        else:
            kind, slot = "coefficient", f.number
            expansion = slotted("secondary", secondary, f.element.scalar_dim)
            coeff_reads.append((slot, expansion, component))
        derivs = []
        for i in f.derivatives:
            ref = slotted("secondary", secondary, d)
            derivs.append(ref)
            transforms.append((ref, rebound.get(i.id, i)))
        classified.append(ClassifiedFactor(
            f.element, kind, slot, component, tuple(derivs), expansion))

    arg_factors = tuple(sorted((f for f in classified if f.kind == "argument"),
                               key=lambda f: f.slot))
    return MonomialTerm(
        cell, tuple(classified), tuple(secondary), tuple(aux_a0), tuple(aux_g),
        tuple(transforms), tuple(coeff_reads), arg_factors, len(arg_factors),
        tuple(f.element.space_dim for f in arg_factors),
        tuple(i.range for i in secondary))


# --- reference tensor ---------------------------------------------------------

_INT64_MAX = int(np.iinfo(np.int64).max)

# Largest dense A0 of one monomial (512 MB of doubles; an exact int64 A0
# takes as much), checked before it is integrated and by read_raw on each
# listed term.  Navier-Stokes on a tetrahedron at q = 8 would need
# 495 * 495 * 165 * 3, about 1.2e8 entries; at q = 7 it needs 4.7e7.
MAX_TERM_ENTRIES = 2 ** 26

# Largest element tensor block, in rows, checked by compile_form and by
# read_raw: a compiled form and its kernel plan hold a few arrays of one
# entry per row.  Vector P8 on a tetrahedron has 495 * 495 = 245,025 rows.
MAX_BLOCK_ROWS = 2 ** 20


def _checked(bound):
    """UnsupportedDegree when an exact A0 numerator may exceed int64."""
    if bound > _INT64_MAX:
        raise UnsupportedDegree(
            "an exact reference tensor numerator does not fit in 64 bits")


def _magnitude(numerators):
    """Largest |numerator|, 0 for none."""
    return max(int(np.max(numerators, initial=0)),
               -int(np.min(numerators, initial=0)))


def _univariate(q, b):
    """Integer coefficients, lowest power first, of prod_{k<b} (q x - k)."""
    coeffs = [1]
    for k in range(b):
        coeffs = [q * lo - k * hi for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def _differentiated(polys, i):
    """The univariate factors with the i-th one differentiated."""
    return polys[:i] + [[k * c for k, c in enumerate(polys[i])][1:]] + polys[
        i + 1:]


@lru_cache(maxsize=64)
def _basis_polynomials(element, derivative):
    """q! times each scalar basis function of a degree-q Lagrange element,
    or times its reference derivatives, as a polynomial in the d + 1
    barycentric coordinates lambda.

    Silvester's product formula gives the function of the lattice point
    beta (beta_i / q in barycentric coordinates) as
    prod_i prod_{k<beta_i} (q lambda_i - k) / (k + 1), and a reference
    derivative is d/dlambda_{r+1} - d/dlambda_0.  Returns (rows,
    exponents, coefficients) per nonzero term: the basis function, times d
    directions with the direction fastest for a derivative, its
    [nnz x (d+1)] exponents and its Python int coefficients.
    """
    d, q = element.cell.dim, element.degree
    rows, exponents, coefficients = [], [], []
    n = 0
    for beta in element.lattice.tolist():
        scale = factorial(q) // prod(map(factorial, beta))
        polys = [_univariate(q, b) for b in beta]
        # each row is a signed sum of products of univariate polynomials
        sums = [[(scale, polys)]]
        if derivative:
            sums = [[(scale, _differentiated(polys, r + 1)),
                     (-scale, _differentiated(polys, 0))] for r in range(d)]
        for products in sums:
            terms = {}
            for sign, factors in products:
                for e in iter_product(*(range(len(p)) for p in factors)):
                    terms[e] = terms.get(e, 0) + sign * prod(
                        p[k] for p, k in zip(factors, e))
            for e, c in terms.items():
                if c:
                    rows.append(n)
                    exponents.append(e)
                    coefficients.append(c)
            n += 1
    return (np.array(rows, dtype=np.intp),
            np.array(exponents, dtype=np.intp).reshape(-1, d + 1),
            np.array(coefficients, dtype=object))


@lru_cache(maxsize=32)
def _moments(d, total):
    """(P + d)! times the integral of lambda^gamma over the reference
    simplex, gamma! (P + d)! / (|gamma| + d)!, for every gamma of total
    degree at most P = total, indexed by gamma's row-major code in base
    P + 1 (0 past degree P), as Python ints."""
    gammas = np.indices((total + 1,) * (d + 1)).reshape(d + 1, -1)
    degree = gammas.sum(axis=0)
    inside = degree <= total
    fact = np.array([factorial(k) for k in range(total + d + 1)],
                    dtype=object)
    out = np.zeros(degree.size, dtype=object)
    out[inside] = (fact[gammas[:, inside]].prod(axis=0) * fact[total + d]
                   // fact[degree[inside] + d])
    return out


def _row_sums(values, rows, axis):
    """Sum of the slices of values along axis that share a row number;
    rows ascend."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return rows[starts], np.add.reduceat(values, starts, axis=axis)


@lru_cache(maxsize=256)
def _scalar_integrals(factors):
    """Exact integrals over the reference cell of every product of the
    (element, derivative) factors' scalar basis functions, or reference
    derivatives: (numerators, denominator), reduced by their common
    divisor, numerators a read-only int64 array with a basis axis per
    factor, then a direction axis for a derivative, in factor order.

    The factors before the last are multiplied out in Python ints,
    merging equal monomials per product of basis functions, and the last
    is paired with them through the moments of ``_moments``.
    """
    d = factors[0][0].cell.dim
    total = sum(max(e.degree - der, 0) for e, der in factors)
    sizes = [e.scalar_dim * (d if der else 1) for e, der in factors]
    shape = sum(([e.scalar_dim] + [d] * der for e, der in factors), [])
    polys = [_basis_polynomials(e, der) for e, der in factors]
    # a monomial's code is its exponents in base P + 1: codes add
    place = (total + 1) ** np.arange(d, -1, -1)
    n_codes = (total + 1) ** (d + 1)
    out = np.zeros((prod(sizes[:-1]), sizes[-1]), dtype=object)
    if all(coefficients.size for _, _, coefficients in polys):
        # the product polynomials of the factors before the last, one row
        # per combination of their rows, as (row, code, coefficient) terms
        rows, codes = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
        coefficients = np.ones(1, dtype=object)
        for size, (f_rows, f_exps, f_coeffs) in zip(sizes, polys[:-1]):
            keys = ((rows[:, None] * size + f_rows) * n_codes
                    + codes[:, None] + f_exps @ place).ravel()
            order = np.argsort(keys, kind="stable")
            keys, coefficients = _row_sums(
                np.multiply.outer(coefficients, f_coeffs).ravel()[order],
                keys[order], axis=0)
            rows, codes = np.divmod(keys, n_codes)
        last_rows, last_exps, last_coeffs = polys[-1]
        last_codes, inverse = np.unique(last_exps @ place, return_inverse=True)
        moments = _moments(d, total)[codes[:, None] + last_codes]
        used, partial = _row_sums(coefficients[:, None] * moments, rows, 0)
        done, sums = _row_sums(partial[:, inverse] * last_coeffs, last_rows, 1)
        out[used[:, None], done] = sums
    denominator = prod(factorial(e.degree) for e, _ in factors) * factorial(
        total + d)
    common = gcd(denominator, *out.ravel().tolist())
    out //= common
    _checked(_magnitude(out))
    numerators = out.astype(np.int64).reshape(shape)
    numerators.flags.writeable = False
    return numerators, denominator // common


def compute_reference_tensor(term):
    """Integrate the reference-side factor products of one monomial
    exactly into its dense A0.

    Returns (numerators, denominator) with A0 = numerators / denominator,
    numerators a read-only int64 array.  A0's axes are the primary
    indices in slot order, then the secondary indices in the monomial's
    secondary order.  Vector components never enter the integration: on a
    product basis the scalar profile of a basis function is component
    independent, so the scalar factor integrals are computed once (and
    memoised per reference integrand) and written into every argument
    component block selected by the (fixed, secondary or auxiliary)
    component indices.  A coefficient's expansion axis runs over its scalar
    basis: its component is read on the G side.
    """
    numerators, denominator = _scalar_integrals(tuple(
        (f.element, bool(f.derivatives)) for f in term.factors))
    # the A0 axis of each scalar axis; the component-valued user secondary
    # axes have none
    rank = term.rank
    axes = []
    for f in term.factors:
        axes.append(f.slot if f.expansion is None
                    else rank + f.expansion.value)
        axes.extend(rank + i.value for i in f.derivatives)
    scalar_block = numerators.transpose(np.argsort(axes))

    entries = np.zeros(term.primary_dims + term.secondary_dims,
                       dtype=np.int64)
    # user secondary indices lead term.secondary; each transform and each
    # coefficient read created one of the others
    n_user = len(term.secondary) - len(term.transforms) - len(term.coeff_reads)

    def block(f, values):
        """Basis rows of argument f in its selected component."""
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
        entries[tuple(selector)] += scalar_block

    entries.flags.writeable = False
    return entries, denominator


# --- geometry tensor -----------------------------------------------------------


class GeometryTensorExpr(namedtuple(
        "GeometryTensorExpr", "dims aux_dims transforms coeff_reads")):
    """Closed-form per-element expression for the geometry tensor.

    For a fixed secondary multiindex alpha the component is

        det * sum over auxiliary assignments beta of
                       prod dXdx[alpha[ref], x] * prod w[coeff][dof]

    over the transforms (ref, x) and coefficient reads (coeff, k, x).  ref
    and k are secondary slots; x is ("s", k) for alpha[k], ("b", k) for
    beta[k] or ("f", v) for the fixed direction or component v.  A read of
    a scalar coefficient has x None and reads dof alpha[k]; a read of a
    vector coefficient's component x reads dof x * dims[k] + alpha[k], its
    secondary slot running over the scalar basis.  Secondary slot k runs
    over dims[k] and auxiliary slot k over aux_dims[k].  ``rank`` equals
    the number of secondary slots: one per coefficient read plus one per
    free transform slot.

    The four fields are tuples, so an expression is a value: two are equal,
    with equal hashes, when they are the same expression.
    """

    @property
    def rank(self):
        return len(self.dims)

    @property
    def n_coefficient_slots(self):
        return len(self.coeff_reads)

    @property
    def n_transform_slots(self):
        # the reference direction, plus the x direction when it is free
        return sum(1 + (x[0] == "s") for _, x in self.transforms)

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

        def value(slot):
            kind, k = slot
            return alpha[k] if kind == "s" else beta[k] if kind == "b" else k

        for t, (ref, x) in enumerate(self.transforms):
            rows[..., t] = alpha[ref]
            cols[..., t] = value(x)
        for c, (_, k, x) in enumerate(self.coeff_reads):
            dofs[..., c] = alpha[k] if x is None else (
                value(x) * self.dims[k] + alpha[k])
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
        # index read is below width, a component's dof too.
        width = 1 + max(int(a.max(initial=0)) for a in (rows, cols, dofs))
        numbers = np.array([c for c, *_ in self.coeff_reads], dtype=int)
        products = np.concatenate([np.sort(rows * width + cols, axis=2),
                                   np.sort(numbers * width + dofs, axis=2)],
                                  axis=2)
        if n_sums > 1:  # a code per product, sorted within each sum
            table = products.reshape(n_sums * n, -1).tolist()
            ids = _first_equal(map(tuple, table))
            products = np.sort(ids.reshape(n_sums, n), axis=0)[..., None]
        table = products.transpose(1, 0, 2).reshape(n, -1).tolist()
        return _first_equal(map(tuple, table))

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
        assignments are then added in order, and ``|det|`` multiplies
        last, written into ``out`` ([ncells x n_selected], any strides; a
        new array by default), which is returned.  The absolute value lets
        negatively oriented cells integrate correctly.
        """
        dets = np.atleast_1d(np.asarray(dets, dtype=float))
        gs = np.asarray(gs, dtype=float)
        rows, cols, dofs = (self.expansion if components is None else
                            (a[:, components] for a in self.expansion))
        if out is None:
            out = np.empty((len(dets), rows.shape[1]))
        scale = np.abs(dets)[:, None]
        # (array, index) of each factor's gather
        reads = ([(gs, (slice(None), rows[..., t], cols[..., t]))
                  for t in range(rows.shape[2])]
                 + [(coeffs[c], (slice(None), dofs[..., k]))
                    for k, (c, *_) in enumerate(self.coeff_reads)])
        if not reads:  # every component is |det|
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


def _first_equal(keys):
    """Index of the first key equal to each of the hashable keys."""
    first = {}
    return np.array([first.setdefault(k, r) for r, k in enumerate(keys)],
                    dtype=np.intp)


def _multiindices(dims):
    """Row-major multiindices of dims, as one index array per axis."""
    return np.unravel_index(np.arange(prod(dims)), dims) if dims else ()


def derive_geometry_expr(term):
    """Geometry tensor expression paired with the monomial's A0: each
    classified index becomes the slot its value holds, tagged by kind."""
    tag = {"secondary": "s", "auxiliary": "b", "fixed": "f"}

    def slot(x):
        return None if x is None else (tag[x.kind], x.value)

    return GeometryTensorExpr(
        term.secondary_dims, tuple(i.range for i in term.aux_g),
        tuple((ref.value, slot(x)) for ref, x in term.transforms),
        tuple((c, e.value, slot(x)) for c, e, x in term.coeff_reads),
    )


# --- compiled forms -------------------------------------------------------------


class CompiledTerm:
    """One geometry expression and its ``columns`` of the form's A0 stack;
    column ``columns.start + k`` reads G component ``used_components[k]``."""

    def __init__(self, stacked, geometry, used, columns):
        self.stacked = stacked
        self.geometry = geometry
        self.used_components = used
        self.columns = columns

    @property
    def matrix(self):
        """The term's A0 as a CSR, flat primary index by flat secondary
        index, decoded from its stack columns on each access."""
        m = self.stacked[:, self.columns]
        return scipy.sparse.csr_matrix(
            (m.data, self.used_components[m.indices], m.indptr),
            shape=(m.shape[0], self.geometry.n_components))


def batch_arrays(evaluator, dets, gs, coeffs):
    """A batch of n affine maps and coefficient dofs for a Form or a
    CompiledForm, as float arrays: dets [n], gs [n x dim x dim] (an empty
    gs holds no maps) and one [n x n_e] array per coefficient, or
    DimensionMismatch.  Float input is not copied."""
    dim, coefficient_dims = evaluator.cell.dim, evaluator.coefficient_dims
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
    one sparse product with the rows ``cf.plan`` multiplies gives them for
    every cell, gathered out to [block x ncells] by its row map, if any.
    Returns [ncells x n1 x ... x nr] with the primary multiindex laid out
    row-major.
    """
    dets, gs, coeffs = batch_arrays(cf, dets, gs, coeffs)
    ncells = dets.shape[0]
    plan = cf.plan
    g = np.empty((plan.a0.shape[1], ncells)).T  # G.T is contiguous for scipy
    for ct in cf.terms:
        ct.geometry.evaluate(dets, gs, coeffs, ct.used_components,
                             out=g[:, ct.columns])
    out = plan.a0 @ g.T
    if plan.gather is not None:
        out = out[plan.gather]
    return out.T.reshape((ncells,) + cf.primary_dims)


class KernelPlan:
    """How numpy and the emitted C evaluate a block from its A0 stack.

    Rows are keyed by their (column, value bits) bytes.  Per block row,
    ``source`` holds the first row of its key, which it copies; the first
    rows themselves, ascending in ``rows``, sum their own nonzeros, 0.0
    for an empty row, and ``entries`` holds these nonzeros as the arrays
    (data, indices, indptr) of a CSR over the rows.

    numpy multiplies only these rows, ``a0``, when the nonzeros outside
    them outnumber the block's rows, and ``gather`` holds the position of
    each block row's source among them; otherwise ``gather`` is None and
    ``a0`` is the whole stack.
    """

    def __init__(self, stacked):
        m = stacked
        data = np.column_stack([m.indices.astype(np.int64), m.data.view(
            np.int64)]).tobytes()  # 16 bytes per nonzero
        ends = (16 * m.indptr).tolist()
        self.source = _first_equal(data[a:b] for a, b in zip(ends, ends[1:]))
        summed = self.source == np.arange(m.shape[0])
        self.rows = np.flatnonzero(summed)
        counts = np.diff(m.indptr)
        kept = summed.repeat(counts)
        self.entries = (m.data[kept], m.indices[kept],
                        np.append(0, counts[self.rows].cumsum()))
        self.gather, self.a0 = None, m
        if m.nnz - np.count_nonzero(kept) > m.shape[0]:
            self.gather = np.searchsorted(self.rows, self.source)
            self.a0 = scipy.sparse.csr_matrix(
                self.entries, shape=(self.rows.size, m.shape[1]))


class CompiledForm:
    """A form in tensor representation, compiled or reread from raw text.

    ``entries`` holds each term's (geometry, positions, values): its A0
    values and their ascending flat positions in [block x n_components].
    The constructor drops 0.0 and -0.0, and a term left with none, and
    stores the rest once in ``stacked``, CSR [block x K]: every term's A0
    over the G components it reads, side by side in term order.

    ``element_tensors(dets, gs, coeffs)`` contracts every term for a
    batch of affine maps and returns [ncells x n1 x ... x nr]; primary
    multiindices are flattened row-major into the output block.  ``form``,
    ``arguments`` and ``coefficients`` are None for a reread listing.
    """

    def __init__(self, name, cell, primary_dims, coefficient_dims, entries,
                 form=None):
        self.name = name
        self.cell = cell
        self.dim = cell.dim
        self.primary_dims = tuple(primary_dims)
        self.arity = len(self.primary_dims)
        self.coefficient_dims = tuple(coefficient_dims)
        self.form = form
        self.arguments = form.arguments if form else None
        self.coefficients = form.coefficients if form else None
        spans, width = [], 0  # (geometry, used components, columns)
        pieces = [(np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)]
        for geometry, positions, values in entries:
            keep = values != 0.0  # -0.0 too
            rows, components = np.divmod(positions[keep],
                                         geometry.n_components)
            used = np.flatnonzero(np.bincount(
                components, minlength=geometry.n_components))
            if used.size:
                used.flags.writeable = False
                pieces.append((rows, width + np.searchsorted(used, components),
                               values[keep]))
                spans.append((geometry, used, slice(width, width + used.size)))
                width += used.size
        rows, columns, values = map(np.concatenate, zip(*pieces))
        order = np.argsort(rows, kind="stable")  # terms stay in order
        indptr = np.searchsorted(rows[order], np.arange(self.block_size + 1))
        self.stacked = scipy.sparse.csr_matrix(
            (values[order], columns[order], indptr),
            shape=(self.block_size, width))
        self.terms = [CompiledTerm(self.stacked, *span) for span in spans]

    @property
    def block_size(self):
        return prod(self.primary_dims)

    @cached_property
    def plan(self):
        """The KernelPlan of ``stacked``, which the numpy contraction and
        the emitted C carry out; built on first use, not by compile_form
        or read_raw."""
        return KernelPlan(self.stacked)

    def element_tensors(self, dets, gs, coeffs=()):
        return contract_terms(self, dets, gs, coeffs)

    def element_tensor(self, det, g, coeffs=()):
        """Single-cell convenience wrapper."""
        return self.element_tensors([det], [g], coeffs)[0]


def _exact_sum(total, denominator, numerators, d):
    """total / denominator + numerators / d, as a new array of numerators
    over lcm(denominator, d)."""
    common = lcm(denominator, d)
    scale, other = common // denominator, common // d
    _checked(max(scale, other, _magnitude(total) * scale
                 + _magnitude(numerators) * other))
    out = total * scale
    out += numerators if other == 1 else numerators * other
    return out, common


def _rounded(numerators, denominator, constant):
    """The double nearest constant * numerator / denominator, the constant
    being p / q.  Integers up to 2**53 are exact doubles, and one IEEE
    division of exact doubles rounds correctly; beyond that, Python's int
    division, which rounds correctly too, runs once per distinct value."""
    p, q = constant.as_integer_ratio()
    denominator *= q
    if max(denominator, _magnitude(numerators) * abs(p)) <= 2 ** 53:
        return (numerators if p == 1 else numerators * p) / denominator
    distinct, inverse = np.unique(numerators, return_inverse=True)
    try:
        values = [n * p / denominator for n in distinct.tolist()]
    except OverflowError:
        raise NonFiniteValue("a reference tensor value overflows") from None
    return np.array(values, dtype=float)[inverse]


def compile_form(form):
    """Compile a language form into its tensor representation.

    Monomials with the same geometry expression share one term, and only
    the first one's expression is expanded.  An element tensor of more
    than MAX_BLOCK_ROWS entries, or a monomial whose dense A0 would hold
    more than MAX_TERM_ENTRIES, raises UnsupportedDegree before anything
    is integrated.  Per constant,
    their exact A0 blocks are summed over a common denominator in
    first-occurrence order (equal (element, derivative) factors share one
    integration in ``_scalar_integrals``), the A0 column of each G
    component equal to an earlier one (``representatives``) is added to
    that column and zeroed, and only then is each nonzero rounded to the
    double nearest its rational times the constant, so equal values are
    equal doubles.  The constants' values are then added, in order, where
    any of them is nonzero, for the CompiledForm constructor to store.  A
    numerator beyond int64 raises UnsupportedDegree, and a non-finite
    constant or value NonFiniteValue.
    """
    if not isinstance(form, Form):
        raise TypeError("expected a Form")
    if prod(form.primary_dims) > MAX_BLOCK_ROWS:
        raise UnsupportedDegree("element tensor too large")
    groups = {}  # geometry -> {constant: (numerators, denominator)}
    for monomial in expand_to_monomials(form):
        if not isfinite(monomial.scalar):
            raise NonFiniteValue("a monomial's constant is not finite")
        term = classify_indices(monomial)
        if prod(term.primary_dims + term.secondary_dims) > MAX_TERM_ENTRIES:
            raise UnsupportedDegree("a monomial's reference tensor has more "
                                    "than %d entries" % MAX_TERM_ENTRIES)
        sums = groups.setdefault(derive_geometry_expr(term), {})
        block = compute_reference_tensor(term)
        if monomial.scalar in sums:
            block = _exact_sum(*sums[monomial.scalar], *block)
        sums[monomial.scalar] = block
    entries = []
    for geometry, sums in groups.items():
        rep = geometry.representatives
        moved = np.flatnonzero(rep != np.arange(rep.size)).tolist()
        flats = []
        for c, (numerators, d) in sums.items():
            flat = numerators.reshape(-1, geometry.n_components)
            _checked(_magnitude(flat) * int(np.bincount(rep).max()))
            if moved and not flat.flags.writeable:  # copied to be folded
                flat = flat.copy()
            for n in moved:
                flat[:, rep[n]] += flat[:, n]
                flat[:, n] = 0
            flats.append((flat, d, c))
        positions = np.flatnonzero(reduce(np.logical_or,
                                          [f != 0 for f, _, _ in flats]))
        with np.errstate(over="ignore"):  # raised below
            values = reduce(np.add, [_rounded(f.ravel()[positions], d, c)
                                     for f, d, c in flats])
        if not np.isfinite(values).all():
            raise NonFiniteValue("a reference tensor value overflows")
        entries.append((geometry, positions, values))
    return CompiledForm(form.name, form.cell, form.primary_dims,
                        form.coefficient_dims, entries, form=form)
