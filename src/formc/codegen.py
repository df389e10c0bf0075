"""Code generation from compiled forms.

Three output formats share the same compiled data: straightline C99, a raw
text format listing the reference tensor values together with
s-expressions for the geometry tensors, and LaTeX for inspection.
``read_raw`` turns a raw listing back into a CompiledForm, so a reread form
emits, contracts and assembles like the compiled one.  A raw ``monomial k``
block is one term of the compiled form: one geometry expression, shared by
every monomial whose expression is equal to it, with their A0 blocks
summed, each scaled by its monomial's constant; the geometry, ``(* det
...)``, holds no constant.  A listing with one block per monomial reads
just as well.

The C declares the G components that some A0 nonzero reads, and carries
out the form's kernel plan (``CompiledForm.plan``), which the numpy
contraction carries out too: a block entry whose plan source is an earlier
row copies that entry, negated where the plan says so ("block[r] =
-block[j];"); every other entry is the sum of its row's nonzeros with the
row's own constants, "0.0" for an empty row.

The emitters work on A0 nonzeros as whole CSR arrays, all read from the
form's one store (``CompiledForm.stacked``): the C on the whole stack,
the listings on each term's ``matrix``, decoded from its columns.  An
A0 has few distinct values, each the double nearest a rational (P3
Navier-Stokes on a tetrahedron: 55,746 nonzeros, 340 distinct values), so
a value table formats each distinct value once, told apart by its bits,
and maps the strings back to the nonzeros; multi-index labels are
formatted once per CSR row and once per secondary column.  The text is the
same, byte for byte, as a reference that formats every nonzero on its own
in CSR order and finds repeated rows with a dict of per-row tuples
(``tests/test_codegen_reference.py``), and identical inputs give identical
text.

The generated C evaluates fastest when the map determinant is positive; the
runtime mesh loader guarantees that orientation.  Loops are fully unrolled:
element tensors stay small enough that straightline code is both the
simplest and the fastest form.
"""

import re
from math import prod

import numpy as np

from .errors import FormcError, FormSyntaxError
from .reference_elements import ReferenceCell
from .tensor_representation import (
    MAX_TERM_ENTRIES,
    CompiledForm,
    GeometryTensorExpr,
)

__all__ = [
    "emit_c",
    "emit_raw",
    "read_raw",
    "emit_latex",
    "count_code_lines",
]

RAW_HEADER = "formc-raw 2"


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


def _entries(cf, ct, m, sep, fmt):
    """(sep-joined multi-index, value formatted by fmt) of each nonzero of
    m, the A0 of term ct of cf, in CSR order."""
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    labels = _labels(rows, cf.primary_dims, sep)
    if ct.geometry.dims:
        labels = map(sep.join, zip(
            labels, _labels(m.indices, ct.geometry.dims, sep)))
    return zip(labels, _formatted(m.data, fmt))


def _g_name(k, alpha):
    return "G%d" % k + "".join("_%d" % a for a in alpha)


def _c_geometry_exprs(geometry, components, offsets):
    """C expression of each of the given flat G components."""
    reads = [offsets[c] for c, *_ in geometry.coeff_reads]
    out = []
    for rows, cols, dofs in zip(*(a[:, components].swapaxes(0, 1).tolist()
                                  for a in geometry.expansion)):
        products = ["*".join(["map->g%d%d" % g for g in zip(r, c)]
                             + ["w[%d]" % (o + v) for o, v in zip(reads, w)])
                    for r, c, w in zip(rows, cols, dofs)]
        text = " + ".join(products)
        text = "(%s)" % text if len(products) > 1 else text
        out.append("map->det*" + text if text else "map->det")
    return out


def _c_coefficient(v):
    return (" - " if v < 0 else " + ") + _fmt(abs(v)) + "*"


def _leading(text):
    """A block entry's joined pieces with the leading " + " or " - " of
    its first piece written as "" or "-"; "0.0" for an entry with none."""
    if not text:
        return "0.0"
    return text[3:] if text[1] == "+" else "-" + text[3:]


def _block_rhs(cf, names):
    """Right-hand side of every block entry, given the G name of each
    column of ``cf.stacked``.

    A row whose ``cf.plan`` source is an earlier row copies it:
    "block[j]" or, for a negated row, "-block[j]".  Every other row is the
    sum of its stacked A0 nonzeros, each as a signed coefficient times its
    G name, with the row's own constants; only the values of these rows
    are formatted, once per distinct value.
    """
    m, plan = cf.stacked, cf.plan
    counts = m.indptr[1:] - m.indptr[:-1]
    written = plan.source == np.arange(cf.block_size)
    kept = written.repeat(counts)
    pieces = [None] * (2 * int(kept.sum()))
    pieces[::2] = _formatted(m.data[kept], _c_coefficient)
    pieces[1::2] = map(names.__getitem__, m.indices[kept].tolist())
    bounds = [0] + (2 * counts[written]).cumsum().tolist()
    texts = iter([_leading("".join(pieces[a:b]))
                  for a, b in zip(bounds, bounds[1:])])
    return [next(texts) if w else ("-block[%d]" if neg else "block[%d]") % j
            for w, neg, j in zip(written.tolist(), plan.negated.tolist(),
                                 plan.source.tolist())]


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
    names, exprs = [], []  # the G name and expression of each stack column
    for k, ct in enumerate(cf.terms):
        alphas = ct.geometry.component_multiindices()
        names += [_g_name(k, alphas[n]) for n in ct.used_components.tolist()]
        exprs += _c_geometry_exprs(ct.geometry, ct.used_components, offsets)
    lines.extend(map("    const double %s = %s;".__mod__, zip(names, exprs)))
    if cf.terms:
        lines.append("")
    lines.extend(map("    block[%d] = %s;".__mod__,
                     enumerate(_block_rhs(cf, names))))
    lines.append("}")
    return "\n".join(lines) + "\n"


def count_code_lines(cf):
    """Number of statement lines in the generated C: the G components some
    A0 nonzero reads, and one line per block entry."""
    return cf.stacked.shape[1] + cf.block_size


# --- raw format ----------------------------------------------------------------


def _sym(slot):
    return str(slot[1]) if slot[0] == "f" else "%s%d" % slot


def _geometry_sexpr(geometry):
    atoms = ["(dXdx s%d %s)" % (ref, _sym(x))
             for ref, x in geometry.transforms]
    atoms += ["(coeff %d s%d)" % (c, k) if x is None else
              "(coeff %d s%d %s)" % (c, k, _sym(x))
              for c, k, x in geometry.coeff_reads]
    if geometry.aux_dims:
        inner = "(* %s)" % " ".join(atoms) if len(atoms) != 1 else atoms[0]
        for k in range(len(geometry.aux_dims) - 1, -1, -1):
            inner = "(sum b%d %s)" % (k, inner)
        atoms = [inner]
    return "(* %s)" % " ".join(["det"] + atoms)


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
            " %d" % n for n in ct.geometry.dims))
        lines.append("geometry %s" % _geometry_sexpr(ct.geometry))
        m = ct.matrix
        lines.append("entries %d" % m.nnz)
        lines.extend(map(" ".join, _entries(cf, ct, m, " ", repr)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _natural(token):
    """token as an int when it is ASCII digits, the one integer grammar of
    a raw listing: Python's int also reads signs, underscores and
    non-ASCII digits.  Any other token raises ValueError."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError("not a natural number: %r" % token)
    return int(token)


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


def _geometry_from_sexpr(node, secondary_dims, dim, coefficient_dims):
    """Geometry expression of a parsed s-expression: a product led by one
    det.  Malformed input raises ValueError, IndexError, KeyError or
    TypeError."""
    aux = {}  # sum variable -> auxiliary slot
    read = set()  # auxiliary slots some transform reads
    transforms = []
    reads = []

    def resolve(tok, extent, fixed_ok=True):
        """Slot of an index token that must run over extent values; only a
        secondary slot fits where fixed_ok is false."""
        if tok[:1] == "s" and tok[1:].isdigit():
            slot = ("s", _natural(tok[1:]))
            size = secondary_dims[slot[1]]
        elif tok in aux and fixed_ok:
            slot, size = ("b", aux[tok]), dim
            read.add(aux[tok])
        elif fixed_ok and _natural(tok) < extent:
            return ("f", int(tok))
        else:
            raise ValueError("bad index %r" % tok)
        if size != extent:
            raise ValueError("index %r does not fit its use" % tok)
        return slot

    def walk(n):
        head = n[0] if isinstance(n, list) else None  # an atom has none
        if head == "*":
            for child in n[1:]:
                walk(child)
        elif head == "sum" and n[1] not in aux:
            aux[n[1]] = len(aux)
            for child in n[2:]:
                walk(child)
        elif head == "dXdx" and len(n) == 3:
            transforms.append((resolve(n[1], dim, fixed_ok=False)[1],
                               resolve(n[2], dim)))
        elif head == "coeff" and len(n) in (3, 4):
            number = _natural(n[1])
            if number >= len(coefficient_dims):
                raise ValueError("no coefficient %d" % number)
            # a component read's dof slot runs over the scalar basis
            extent, rest = divmod(coefficient_dims[number],
                                  dim if len(n) == 4 else 1)
            if rest:
                raise ValueError("coefficient %d has no %d components"
                                 % (number, dim))
            reads.append((number, resolve(n[2], extent, fixed_ok=False)[1],
                          resolve(n[3], dim) if len(n) == 4 else None))
        else:
            raise ValueError("bad geometry factor %r" % (n,))

    if node[:2] != ["*", "det"]:
        raise ValueError("a geometry expression is (* det ...)")
    for child in node[2:]:
        walk(child)
    if len(read) != len(aux):
        raise ValueError("a sum variable that nothing reads")
    return GeometryTensorExpr(tuple(secondary_dims), (dim,) * len(aux),
                              tuple(transforms), tuple(reads))


def _entry_table(lines, start, n_entries, rank):
    """Indices [n_entries x rank] and values of the entry lines from
    lines[start]: rank integers and a float each, as loadtxt reads them.

    The block is parsed in one call.  If that fails, the lines are parsed
    one at a time only to name the first malformed one.
    """
    block = lines[start:start + n_entries]
    dtype = [("idx", np.int64, (rank,)), ("val", float)]
    table = _loaded(block, dtype) if block else np.zeros(0, dtype)
    if table is None:
        bad = next((e for e, line in enumerate(block)
                    if _loaded([line], dtype) is None), 0)
        raise FormSyntaxError("malformed entry line", line=start + bad + 1)
    if len(block) < n_entries:
        raise FormSyntaxError("unexpected end of raw listing inside an entry "
                              "table", line=start + len(block) + 1)
    return table["idx"], table["val"]


def _loaded(block, dtype):
    """The lines of block read by loadtxt, one row each, or None."""
    # a blank first line is malformed, and loadtxt warns on a blank block
    if not block[0].strip():
        return None
    try:
        table = np.loadtxt(block, dtype=dtype, comments=None, ndmin=1)
    except ValueError:
        return None
    return table if len(table) == len(block) else None


_OTHER_SPACE = re.compile(r"[^\S \t\n\r\f\v]")


def _other_space(text):
    """The first whitespace character of text that str.split,
    str.splitlines and np.loadtxt split at but bytes.split does not
    (\\x1c-\\x1f and the non-ASCII spaces), as a match, or None.  Plain
    ASCII text costs four memchr passes, not a regex scan."""
    if text.isascii() and not any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    return _OTHER_SPACE.search(text)


def read_raw(text):
    """Parse emit_raw output back into a CompiledForm.

    A malformed listing raises FormSyntaxError with the line number.
    Entries must be listed in row-major order, as emit_raw writes them.
    Lines break at "\\n" only and fields at ASCII whitespace; any other
    whitespace character is an error on its line.
    """
    other = _other_space(text)
    if other:
        raise FormSyntaxError("unexpected whitespace %r" % other.group(),
                              line=text.count("\n", 0, other.start()) + 1)
    lines = text.removesuffix("\n").split("\n")
    if lines[0].strip() != RAW_HEADER:
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
            out = [_natural(t) for t in fields]
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
    if prod(primary_dims) > MAX_TERM_ENTRIES:
        raise FormSyntaxError("element tensor too large", line=i)
    coefficient_dims = numbers("coefficients", least=1)
    (n_monomials,) = numbers("monomials", 1)

    entries = []
    for k in range(n_monomials):
        if numbers("monomial", 1) != [k]:
            raise FormSyntaxError("monomial out of order", line=i)
        secondary_dims = numbers("secondary", least=1)
        dims = tuple(primary_dims + secondary_dims)
        if prod(dims) > MAX_TERM_ENTRIES:
            raise FormSyntaxError("reference tensor too large", line=i)
        try:
            tokens = _tokenize_sexpr(" ".join(take("geometry")))
            node, end = _parse_sexpr(tokens)
            if end != len(tokens):
                raise ValueError("text after the geometry expression")
            geometry = _geometry_from_sexpr(node, secondary_dims, cell.dim,
                                            coefficient_dims)
        except (ValueError, IndexError, KeyError, TypeError, RecursionError):
            raise FormSyntaxError("malformed geometry expression",
                                  line=i) from None
        (n_entries,) = numbers("entries", 1)
        first = i + 1
        idx, vals = _entry_table(lines, i, n_entries, len(dims))
        i += n_entries
        bad = ~np.isfinite(vals) | (idx < 0).any(axis=1) | (idx >= dims).any(
            axis=1)
        if not bad.any():
            flat = np.ravel_multi_index(idx.T, dims)
            bad[1:] = flat[1:] <= flat[:-1]
        if bad.any():
            raise FormSyntaxError(
                "entry out of range, out of row-major order or not finite",
                line=first + int(np.argmax(bad)))
        entries.append((geometry, flat, vals))
    take("end")
    if any(ln.strip() for ln in lines[i:]):
        raise FormSyntaxError("text after 'end'", line=i + 1)
    return CompiledForm(name, cell, primary_dims, coefficient_dims, entries)


# --- LaTeX ----------------------------------------------------------------------


def _latex_sym(slot):
    return str(slot[1]) if slot[0] == "f" else r"\%s_{%d}" % (
        "alpha" if slot[0] == "s" else "beta", slot[1] + 1)


def _latex_geometry(geometry):
    lhs = "G_K"
    if geometry.rank:
        lhs = "G_K^{%s}" % " ".join(
            r"\alpha_{%d}" % (j + 1) for j in range(geometry.rank))
    parts = [r"\det F_K'"]
    if geometry.aux_dims:
        parts.append(r"\sum_{%s}" % ", ".join(
            r"\beta_{%d}" % (j + 1) for j in range(len(geometry.aux_dims))))
    for ref, x in geometry.transforms:
        parts.append(r"\frac{\partial X_{%s}}{\partial x_{%s}}" % (
            _latex_sym(("s", ref)), _latex_sym(x)))
    for coeff, k, x in geometry.coeff_reads:
        dof = _latex_sym(("s", k))
        parts.append(r"w^{(%d)}_{%s}" % (
            coeff, dof if x is None else "%s,%s" % (_latex_sym(x), dof)))
    return "%s = %s" % (lhs, " ".join(parts))


def emit_latex(cf):
    """LaTeX listing of the tensor representation for inspection."""
    lines = [
        r"\documentclass{article}",
        r"\begin{document}",
        r"\section*{Tensor representation of form %s}" % cf.name.replace(
            "_", r"\_"),
        "The element tensor is the sum over monomials of the contraction",
        "of each reference tensor $A^0$ with its geometry tensor $G_K$.",
    ]
    for k, ct in enumerate(cf.terms):
        lines.append(r"\subsection*{Monomial %d}" % k)
        lines.append(r"\[ %s \]" % _latex_geometry(ct.geometry))
        lines.append("Nonzero reference tensor entries:")
        lines.append(r"\begin{eqnarray*}")
        lines.extend(map(r"A^0_{%s} &=& %s \\".__mod__,
                         _entries(cf, ct, ct.matrix, r"\,", _fmt)))
        lines.append(r"\end{eqnarray*}")
    lines.append(r"\end{document}")
    return "\n".join(lines) + "\n"
