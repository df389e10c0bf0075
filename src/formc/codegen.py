"""Code generation from compiled forms.

Three output formats share the same compiled data: straightline C99 with one
statement per element-tensor entry, a raw text format listing the reference
tensor values together with s-expressions for the geometry tensors, and
LaTeX for inspection.  ``read_raw`` turns a raw listing back into a
CompiledForm, so a reread form emits, contracts and assembles like the
compiled one.

The emitters work on each term's A0 nonzeros as whole CSR arrays.  An A0
has few distinct values (P3 Navier-Stokes on a tetrahedron: 167,238
nonzeros, 6,485 distinct magnitudes), so a shared value table formats each
distinct value once, told apart by its bits, and maps the strings back to
the nonzeros; multi-index labels are formatted once per CSR row and once
per secondary column.  The text is the same, byte for byte, as formatting
every nonzero on its own in CSR order (``tests/test_codegen_reference.py``
keeps that per-nonzero form as the reference), and identical inputs give
identical text.

The generated C evaluates fastest when the map determinant is positive; the
runtime mesh loader guarantees that orientation.  Loops are fully unrolled:
element tensors stay small enough that straightline code is both the
simplest and the fastest form.
"""

from math import prod

import numpy as np
import scipy.sparse

from .errors import FormcError, FormSyntaxError
from .form_language import Index
from .reference_elements import ReferenceCell
from .tensor_representation import (
    CompiledForm,
    CompiledTerm,
    GeometryTensorExpr,
)

__all__ = [
    "emit_c",
    "emit_raw",
    "read_raw",
    "emit_latex",
    "count_code_lines",
]

RAW_HEADER = "formc-raw 1"


def _fmt(x):
    return "%.15e" % x


def _coeff_offsets(dims):
    return [sum(dims[:k]) for k in range(len(dims))]


def _per_distinct(keys, texts):
    """One string per key, made once per distinct key.

    ``texts`` maps the sorted distinct keys to their strings; the strings
    are then mapped back to every key, in the keys' order.
    """
    distinct, inverse = np.unique(keys, return_inverse=True)
    return np.array(texts(distinct), dtype=object)[inverse].tolist()


def _formatted(values, fmt):
    """fmt(v) for each value.  Values are told apart by their bits, so 0.0
    and -0.0 keep their own text."""
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    return _per_distinct(bits, lambda distinct: [
        fmt(v) for v in distinct.view(np.float64).tolist()])


def _labels(flat, dims, sep):
    """sep-joined multi-index of each flat row-major position in dims."""
    return _per_distinct(flat, lambda distinct: [
        sep.join(map(str, idx)) for idx in
        zip(*(i.tolist() for i in np.unravel_index(distinct, dims)))])


def _entry_labels(ct, sep):
    """sep-joined multi-index of each A0 nonzero of a term, in CSR order."""
    m = ct.matrix
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    labels = _labels(rows, ct.primary_dims, sep)
    if not ct.secondary_dims:
        return labels
    return list(map(sep.join, zip(
        labels, _labels(m.indices, ct.secondary_dims, sep))))


def _g_name(k, alpha):
    return "G%d" % k + "".join("_%d" % a for a in alpha)


def _c_atom(atom, offsets):
    if atom[0] == "g":
        return "map->g%d%d" % (atom[1], atom[2])
    return "w[%d]" % (offsets[atom[1]] + atom[2])


def _c_geometry_expr(geometry, alpha, offsets):
    terms = geometry.terms_for(alpha)
    products = ["*".join(_c_atom(a, offsets) for a in t) for t in terms]
    if geometry.scalar == 1.0:
        prefix = ""
    elif geometry.scalar == -1.0:
        prefix = "-"
    else:
        prefix = _fmt(geometry.scalar) + "*"
    if len(products) == 1 and not products[0]:
        return prefix + "map->det"
    if len(products) == 1:
        return prefix + "map->det*" + products[0]
    return prefix + "map->det*(" + " + ".join(products) + ")"


def _c_coefficient(v):
    return (" - " if v < 0 else " + ") + _fmt(abs(v)) + "*"


def _leading(text):
    """A block entry's joined pieces with the leading " + " or " - " of
    its first piece written as "" or "-"; "0.0" for an entry with none."""
    if not text:
        return "0.0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _block_sums(cf, names):
    """Right-hand side of every block entry: the nonzeros of its A0 row in
    term order, each as a signed coefficient times its G name."""
    terms = []
    for ct, term_names in zip(cf.terms, names):
        m = ct.matrix
        pieces = [None] * (2 * m.nnz)
        pieces[::2] = _formatted(m.data, _c_coefficient)
        pieces[1::2] = map(term_names.__getitem__, m.indices.tolist())
        terms.append((pieces, (2 * m.indptr).tolist()))
    return [_leading("".join(["".join(p[ip[r]:ip[r + 1]]) for p, ip in terms]))
            for r in range(cf.block_size)]


def emit_c(cf, function_name="eval"):
    """C99 translation unit evaluating the element tensor of one form.

    The signature is ``void <name>(double block[], const affine_map_<d>d
    *map)`` with a trailing ``const double w[]`` argument when the form has
    coefficients; w holds the coefficient dofs slot after slot.  The map
    record carries det and the entries g{a}{b} = dX_a/dx_b of the inverse
    Jacobian, and det must be positive (cells positively oriented).
    """
    d = cf.dim
    offsets = _coeff_offsets(cf.coefficient_dims)
    lines = []
    lines.append("/* Element tensor evaluation for form '%s': rank %d, %s. */"
                 % (cf.name, cf.arity, cf.cell.shape))
    lines.append("")
    lines.append("typedef struct {")
    lines.append("    double det;")
    for a in range(d):
        for b in range(d):
            lines.append("    double g%d%d;" % (a, b))
    lines.append("} affine_map_%dd;" % d)
    lines.append("")
    sig = "void %s(double block[], const affine_map_%dd *map" % (
        function_name, d)
    if cf.coefficient_dims:
        sig += ", const double w[]"
    sig += ")"
    lines.append(sig)
    lines.append("{")
    names = []  # per term: G names by flat secondary index
    for k, ct in enumerate(cf.terms):
        names.append([])
        for alpha in ct.geometry.component_multiindices():
            names[-1].append(_g_name(k, alpha))
            lines.append("    const double %s = %s;" % (
                names[-1][-1], _c_geometry_expr(ct.geometry, alpha, offsets)))
    if cf.terms:
        lines.append("")
    for flat, rhs in enumerate(_block_sums(cf, names)):
        lines.append("    block[%d] = %s;" % (flat, rhs))
    lines.append("}")
    return "\n".join(lines) + "\n"


def count_code_lines(cf):
    """Number of statement lines in the generated C."""
    geometry = sum(ct.geometry.n_components for ct in cf.terms)
    return geometry + cf.block_size


# --- raw format ----------------------------------------------------------------


def _sym(index, secondary_pos, aux_pos):
    if index.kind == "fixed":
        return str(index.value)
    if index.id in secondary_pos:
        return "s%d" % secondary_pos[index.id]
    return "b%d" % aux_pos[index.id]


def _geometry_sexpr(geometry):
    secondary_pos = {s.id: k for k, s in enumerate(geometry.secondary)}
    aux_pos = {a.id: k for k, a in enumerate(geometry.aux_g)}
    atoms = []
    for ref, x in geometry.transforms:
        atoms.append("(dXdx %s %s)" % (
            _sym(ref, secondary_pos, aux_pos),
            _sym(x, secondary_pos, aux_pos),
        ))
    for coeff, expansion in geometry.coeff_reads:
        atoms.append("(coeff %d %s)" % (
            coeff, _sym(expansion, secondary_pos, aux_pos)))
    parts = [repr(float(geometry.scalar)), "det"]
    if geometry.aux_g:
        inner = "(* %s)" % " ".join(atoms) if len(atoms) != 1 else atoms[0]
        for k in range(len(geometry.aux_g) - 1, -1, -1):
            inner = "(sum b%d %s)" % (k, inner)
        parts.append(inner)
    else:
        parts.extend(atoms)
    return "(* %s)" % " ".join(parts)


def emit_raw(cf):
    """Raw listing of the compiled form: every reference tensor nonzero plus
    the geometry tensor expressions, losslessly rereadable by read_raw."""
    lines = [RAW_HEADER]
    lines.append("form %s" % cf.name)
    lines.append("cell %s %d" % (cf.cell.shape, cf.dim))
    lines.append("arity %d" % cf.arity)
    lines.append("primary" + "".join(" %d" % n for n in cf.primary_dims))
    lines.append("coefficients" + "".join(
        " %d" % n for n in cf.coefficient_dims))
    lines.append("monomials %d" % len(cf.terms))
    for k, ct in enumerate(cf.terms):
        lines.append("monomial %d" % k)
        lines.append("secondary" + "".join(
            " %d" % n for n in ct.secondary_dims))
        lines.append("geometry %s" % _geometry_sexpr(ct.geometry))
        lines.append("entries %d" % ct.matrix.nnz)
        lines.extend(map(" ".join, zip(_entry_labels(ct, " "),
                                       _formatted(ct.matrix.data, repr))))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _tokenize_sexpr(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _parse_sexpr(tokens, pos=0):
    if tokens[pos] != "(":
        return tokens[pos], pos + 1
    pos += 1
    out = []
    while tokens[pos] != ")":
        node, pos = _parse_sexpr(tokens, pos)
        out.append(node)
    return out, pos + 1


def _geometry_from_sexpr(node, secondary, dim, coefficient_dims):
    """Geometry expression of a parsed s-expression.  Malformed input raises
    ValueError, IndexError, KeyError or TypeError."""
    scalar = 1.0
    aux = {}
    transforms = []
    reads = []

    def resolve(tok, extent, fixed_ok=True):
        if tok[:1] == "s" and tok[1:].isdigit():
            index = secondary[int(tok[1:])]
        elif tok in aux:
            index = aux[tok]
        elif fixed_ok and 0 <= int(tok) < extent:
            return Index.fixed(int(tok))
        else:
            raise ValueError("bad index %r" % tok)
        if index.range != extent or not (fixed_ok or
                                         index.kind == "secondary"):
            raise ValueError("index %r does not fit its use" % tok)
        return index

    def walk(n):
        nonlocal scalar
        if isinstance(n, list):
            head = n[0]
            if head == "*":
                for child in n[1:]:
                    walk(child)
            elif head == "sum" and n[1] not in aux:
                aux[n[1]] = Index("auxiliary", range=dim)
                for child in n[2:]:
                    walk(child)
            elif head == "dXdx" and len(n) == 3:
                transforms.append((resolve(n[1], dim, fixed_ok=False),
                                   resolve(n[2], dim)))
            elif head == "coeff" and len(n) == 3:
                number = int(n[1])
                if not 0 <= number < len(coefficient_dims):
                    raise ValueError("no coefficient %d" % number)
                reads.append((number, resolve(
                    n[2], coefficient_dims[number], fixed_ok=False)))
            else:
                raise ValueError("bad geometry operator %r" % (head,))
        elif n != "det":
            scalar *= float(n)

    walk(node)
    if not np.isfinite(scalar):
        raise ValueError("non-finite scalar")
    return GeometryTensorExpr(
        scalar, secondary, list(aux.values()), transforms, reads
    )


# Largest dense A0 a listing may declare per term (512 MB of doubles):
# compile_form builds A0 densely, so no compiled form comes near it.
_MAX_TERM_ENTRIES = 2 ** 26


def read_raw(text):
    """Parse emit_raw output back into a CompiledForm.

    A malformed listing raises FormSyntaxError with the line number.
    Entries must be listed in row-major order, as emit_raw writes them.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != RAW_HEADER:
        raise FormSyntaxError("not a raw form listing (missing %r header)"
                              % RAW_HEADER, line=1)
    i = 1

    def take(keyword):
        nonlocal i
        if i >= len(lines):
            raise FormSyntaxError("unexpected end of raw listing, expected %r"
                                  % keyword, line=i + 1)
        parts = lines[i].split()
        if not parts or parts[0] != keyword:
            raise FormSyntaxError("expected %r" % keyword, line=i + 1)
        i += 1
        return parts[1:]

    def numbers(keyword, count=None, least=0):
        fields = take(keyword)
        try:
            out = [int(t) for t in fields]
        except ValueError:
            out = None
        if (out is None or min(out, default=least) < least
                or count not in (None, len(out))):
            raise FormSyntaxError("%r needs %s integers >= %d" % (
                keyword, count or "a list of", least), line=i)
        return out

    name = (take("form") or [""])[0]
    fields = take("cell")
    try:
        cell = ReferenceCell(fields[0])
    except (FormcError, IndexError):
        cell = None
    if cell is None or fields[1:] != [str(cell.dim)]:
        raise FormSyntaxError("expected a cell shape and its dimension",
                              line=i)
    (arity,) = numbers("arity", 1, least=1)
    primary_dims = numbers("primary", arity, least=1)
    coefficient_dims = numbers("coefficients", least=1)
    (n_monomials,) = numbers("monomials", 1)

    terms = []
    for k in range(n_monomials):
        if numbers("monomial", 1) != [k]:
            raise FormSyntaxError("monomial out of order", line=i)
        secondary_dims = numbers("secondary", least=1)
        dims = tuple(primary_dims + secondary_dims)
        if prod(dims) > _MAX_TERM_ENTRIES:
            raise FormSyntaxError("reference tensor too large", line=i)
        secondary = [Index("secondary", range=n) for n in secondary_dims]
        try:
            tokens = _tokenize_sexpr(" ".join(take("geometry")))
            node, end = _parse_sexpr(tokens)
            if end != len(tokens):
                raise ValueError("text after the geometry expression")
            geometry = _geometry_from_sexpr(node, secondary, cell.dim,
                                            coefficient_dims)
        except (ValueError, IndexError, KeyError, TypeError, RecursionError):
            raise FormSyntaxError("malformed geometry expression",
                                  line=i) from None
        (n_entries,) = numbers("entries", 1)
        first = i + 1
        idx = np.zeros((n_entries, len(dims)), dtype=int)
        vals = np.zeros(n_entries)
        for e in range(n_entries):
            if i >= len(lines):
                raise FormSyntaxError("unexpected end of raw listing inside "
                                      "an entry table", line=i + 1)
            parts = lines[i].split()
            i += 1
            try:
                if len(parts) != len(dims) + 1:
                    raise ValueError
                idx[e] = [int(t) for t in parts[:-1]]
                vals[e] = float(parts[-1])
            except (ValueError, OverflowError):
                raise FormSyntaxError("malformed entry line", line=i) from None
        bad = ~np.isfinite(vals) | (idx < 0).any(axis=1) | (idx >= dims).any(
            axis=1)
        if not bad.any():
            flat = np.ravel_multi_index(idx.T, dims)
            bad[1:] = flat[1:] <= flat[:-1]
        if bad.any():
            raise FormSyntaxError(
                "entry out of range, out of row-major order or not finite",
                line=first + int(np.argmax(bad)))
        rows, cols = np.divmod(flat, prod(secondary_dims))
        matrix = scipy.sparse.csr_matrix(
            (vals, (rows, cols)),
            shape=(prod(primary_dims), prod(secondary_dims)))
        terms.append(CompiledTerm(geometry, primary_dims, matrix))
    take("end")
    if any(ln.strip() for ln in lines[i:]):
        raise FormSyntaxError("text after 'end'", line=i + 1)
    return CompiledForm(name, cell, arity, primary_dims, coefficient_dims,
                        terms)


# --- LaTeX ----------------------------------------------------------------------


def _latex_sym(index, secondary_pos, aux_pos):
    if index.kind == "fixed":
        return str(index.value)
    if index.id in secondary_pos:
        return r"\alpha_{%d}" % (secondary_pos[index.id] + 1)
    return r"\beta_{%d}" % (aux_pos[index.id] + 1)


def _latex_geometry(geometry):
    secondary_pos = {s.id: k for k, s in enumerate(geometry.secondary)}
    aux_pos = {a.id: k for k, a in enumerate(geometry.aux_g)}
    lhs = "G_K"
    if geometry.rank:
        lhs = "G_K^{%s}" % " ".join(
            r"\alpha_{%d}" % (j + 1) for j in range(geometry.rank))
    parts = []
    if geometry.scalar != 1.0:
        parts.append(_fmt(geometry.scalar) + r" \,")
    parts.append(r"\det F_K'")
    if geometry.aux_g:
        parts.append(r"\sum_{%s}" % ", ".join(
            r"\beta_{%d}" % (j + 1) for j in range(len(geometry.aux_g))))
    for ref, x in geometry.transforms:
        parts.append(
            r"\frac{\partial X_{%s}}{\partial x_{%s}}" % (
                _latex_sym(ref, secondary_pos, aux_pos),
                _latex_sym(x, secondary_pos, aux_pos),
            ))
    for coeff, expansion in geometry.coeff_reads:
        parts.append(r"w^{(%d)}_{%s}" % (
            coeff, _latex_sym(expansion, secondary_pos, aux_pos)))
    return "%s = %s" % (lhs, " ".join(parts))


def emit_latex(cf):
    """LaTeX listing of the tensor representation for inspection."""
    lines = [
        r"\documentclass{article}",
        r"\begin{document}",
        r"\section*{Tensor representation of form %s}" % cf.name,
        "The element tensor is the sum over monomials of the contraction",
        "of each reference tensor $A^0$ with its geometry tensor $G_K$.",
    ]
    for k, ct in enumerate(cf.terms):
        lines.append(r"\subsection*{Monomial %d}" % k)
        lines.append(r"\[ %s \]" % _latex_geometry(ct.geometry))
        lines.append("Nonzero reference tensor entries:")
        lines.append(r"\begin{eqnarray*}")
        lines.extend(map(r"A^0_{%s} &=& %s \\".__mod__, zip(
            _entry_labels(ct, r"\,"), _formatted(ct.matrix.data, _fmt))))
        lines.append(r"\end{eqnarray*}")
    lines.append(r"\end{document}")
    return "\n".join(lines) + "\n"
