"""The exact Lagrange basis, as an independent reference for the tests.

Each element's Vandermonde system at its nodes is solved in integers, so
the basis comes out as integer polynomials in the reference coordinates X
over one common denominator.  It uses no formc code beyond the element's
nodes.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from formc.reference_elements import make_lagrange


def integer_inverse(matrix):
    """(B, det) with matrix^-1 = B / det, by fraction-free Gauss-Jordan
    elimination: every division is exact."""
    n = len(matrix)
    m = np.zeros((n, 2 * n), dtype=object)
    m[:, :n] = matrix
    m[np.arange(n), n + np.arange(n)] = 1
    previous = 1
    for k in range(n):
        pivot = k + np.flatnonzero(m[k:, k] != 0)[0]
        m[[k, pivot]] = m[[pivot, k]]
        others = np.flatnonzero(np.arange(n) != k)
        product = m[k, k] * m[others] - np.multiply.outer(m[others, k], m[k])
        m[others] = product // previous
        assert (m[others] * previous == product).all()
        previous = m[k, k]
    return m[:, n:], previous


@lru_cache(maxsize=None)
def fraction_basis(shape, q, derivative):
    """(exponents, coefficients, denominator) of the scalar degree-q
    Lagrange basis in monomials X^exponent: basis function i is
    sum_a coefficients[a, i] X^exponents[a] / denominator, with a trailing
    direction axis on coefficients for the reference derivatives."""
    element = make_lagrange(shape, q)
    d = element.cell.dim
    # the nodes are lattice points: q X is an integer vector
    ys = np.rint(element.nodes * q).astype(int).tolist()
    alphas = [a for a in product(range(q + 1), repeat=d) if sum(a) <= q]
    inverse, det = integer_inverse(
        [[math.prod(y ** a for y, a in zip(node, alpha)) for alpha in alphas]
         for node in ys])
    # X^alpha = (q X)^alpha / q^|alpha|
    coefficients = np.array([[Fraction(q ** sum(alpha) * c, det) for c in row]
                             for alpha, row in zip(alphas, inverse)])
    denominator = math.lcm(*(c.denominator for c in coefficients.ravel()))
    coefficients = (coefficients * denominator).astype(int).astype(object)
    if not derivative:
        return alphas, coefficients, denominator
    where = {alpha: k for k, alpha in enumerate(alphas)}
    betas = [b for b in alphas if sum(b) < q]
    out = np.zeros((len(betas), len(ys), d), dtype=object)
    for k, beta in enumerate(betas):
        for r in range(d):
            up = tuple(b + (s == r) for s, b in enumerate(beta))
            out[k, :, r] = (beta[r] + 1) * coefficients[where[up]]
    return betas, out, denominator
