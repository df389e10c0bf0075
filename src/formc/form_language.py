"""Form language: tensor-notation algebra and the form file front end.

An integrand is a sum of scalar-weighted products of (derivatives of) basis
functions and coefficient functions.  The operator result classes are fixed:

    unary  -     B -> P   F -> S   P -> P   S -> S
    unary  .dx   B -> P   F -> S   P -> S   S -> S
    binary + -   always S
    binary *     B*B=P  B*F=S  B*P=P  B*S=S
                 F*any=S
                 P*B=P  P*F=S  P*P=P  P*S=S
                 S*any=S

where B = BasisFunction, F = Function, P = Product, S = Sum.  Subtraction
is sugar for adding the negation and scalar division multiplies by the
reciprocal, so the algebra is closed over the four classes.

The language holds only what a form file says: elements, arguments,
coefficients, free and fixed indices, and each form's collected monomials,
which are Products.  How a monomial's indices are summed is decided by the
compiler (tensor_representation).
"""

import itertools
import re
from collections import namedtuple

from .errors import (
    ArityError,
    FormcError,
    FormSyntaxError,
    IncompatibleCells,
    MissingMeasure,
    UndefinedName,
)
from .reference_elements import LagrangeElement, make_lagrange, make_vector_lagrange

__all__ = [
    "Index",
    "BasisFunction",
    "Function",
    "Product",
    "Sum",
    "Form",
    "Measure",
    "dx",
    "expand_to_monomials",
    "parse_form_file",
]


# --- indices -----------------------------------------------------------------


class Index:
    """Tensor index as a form file writes it: free or fixed.

    A free index (``Index()``) carries an id and no value; the places that
    share its id are summed together.  A fixed index carries a literal,
    nonnegative value and no id.  How a free index is summed, as a
    secondary or an auxiliary index, is the compiler's choice, made per
    monomial by tensor_representation.classify_indices.
    """

    _counter = itertools.count()

    __slots__ = ("kind", "id", "value")

    def __init__(self, kind="free", value=None):
        if kind == "free":
            self.id, self.value = next(Index._counter), None
        elif kind == "fixed":
            if value is None or value < 0:
                raise ValueError("fixed index needs a nonnegative value")
            self.id, self.value = None, int(value)
        else:
            raise ValueError("bad index kind %r" % (kind,))
        self.kind = kind

    @classmethod
    def fixed(cls, value):
        return cls(kind="fixed", value=value)

    def key(self):
        return ("fixed", self.value) if self.kind == "fixed" else ("id", self.id)

    def __repr__(self):
        if self.kind == "fixed":
            return "Index(fixed=%d)" % self.value
        return "Index(%s, id=%d)" % (self.kind, self.id)


def _as_index(obj):
    if isinstance(obj, Index):
        return obj
    if isinstance(obj, int):
        return Index.fixed(obj)
    raise TypeError("expected an Index or integer, got %r" % (obj,))


# --- algebra -----------------------------------------------------------------


def _cell_of(x):
    return next((f.element.cell for p in _as_products(x) for f in p.factors),
                None)


def _check_cells(a, b):
    ca, cb = _cell_of(a), _cell_of(b)
    if ca is not None and cb is not None and ca != cb:
        raise IncompatibleCells(
            "cannot combine forms over %s and %s cells" % (ca.shape, cb.shape)
        )


class _Operand:
    """Arithmetic shared by all algebra nodes."""

    def __add__(self, other):
        if not isinstance(other, _Operand):
            return NotImplemented
        _check_cells(self, other)
        return Sum(_as_products(self) + _as_products(other))

    def __sub__(self, other):
        if not isinstance(other, _Operand):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Measure):
            return Form(_as_sum(self))
        if isinstance(other, (int, float)):
            return self._scaled(float(other))
        if not isinstance(other, _Operand):
            return NotImplemented
        _check_cells(self, other)
        return _multiply(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self._scaled(float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            if other == 0:
                raise ZeroDivisionError("division of a form by zero")
            return self._scaled(1.0 / float(other))
        return NotImplemented


class Terminal(_Operand):
    """Common behaviour of BasisFunction and Function."""

    def __init__(self, element, component=None, derivatives=()):
        if not isinstance(element, LagrangeElement):
            raise TypeError("expected a LagrangeElement")
        self.element = element
        self.component = component
        self.derivatives = tuple(derivatives)

    def _copy(self, **kw):
        return type(self)(
            self.element,
            self._slot_key(),
            kw.get("component", self.component),
            kw.get("derivatives", self.derivatives),
        )

    def __getitem__(self, index):
        if self.element.value_rank == 0:
            raise ValueError("component access on a scalar element")
        if self.component is not None:
            raise ValueError("component already selected")
        index = _as_index(index)
        if index.kind == "fixed" and index.value >= self.element.components:
            raise ValueError("component %d out of range" % index.value)
        return self._copy(component=index)

    def _with_derivative(self, index):
        index = _as_index(index)
        if index.kind == "fixed" and index.value >= self.element.cell.dim:
            raise ValueError("derivative direction %d out of range" % index.value)
        return self._copy(derivatives=self.derivatives + (index,))

    def dx(self, index):
        return self._wrap(Product(1.0, (self._with_derivative(index),)))

    def __neg__(self):
        return self._scaled(-1.0)

    def _scaled(self, a):
        return self._wrap(Product(a, (self,)))

    def _tokens(self):
        comp = None if self.component is None else self.component.key()
        return (
            type(self).__name__,
            self.element._key(),
            self._slot_key(),
            comp,
            tuple(i.key() for i in self.derivatives),
        )


_arg_counter = itertools.count()
_coeff_counter = itertools.count()


class BasisFunction(Terminal):
    """Argument of a form (class B).

    Arguments take consecutive slots in declaration order; the slot decides
    which axis of the element tensor the argument spans.
    """

    def __init__(self, element, slot=None, component=None, derivatives=()):
        super().__init__(element, component, derivatives)
        self.slot = next(_arg_counter) if slot is None else slot

    def _slot_key(self):
        return self.slot

    @staticmethod
    def _wrap(product):
        return product

    def __repr__(self):
        return "BasisFunction(slot=%d%s%s)" % (
            self.slot,
            "" if self.component is None else ", comp=%r" % (self.component,),
            "" if not self.derivatives else ", dx=%r" % (self.derivatives,),
        )


class Function(Terminal):
    """Known coefficient expanded in its element's basis (class F)."""

    def __init__(self, element, number=None, component=None, derivatives=()):
        super().__init__(element, component, derivatives)
        self.number = next(_coeff_counter) if number is None else number

    def _slot_key(self):
        return self.number

    @staticmethod
    def _wrap(product):
        return Sum((product,))

    def __repr__(self):
        return "Function(number=%d)" % self.number


class Product(_Operand):
    """Scalar-weighted product of terminals (class P)."""

    def __init__(self, scalar, factors):
        self.scalar = float(scalar)
        self.factors = tuple(factors)

    def dx(self, index):
        index = _as_index(index)
        terms = []
        for k, f in enumerate(self.factors):
            factors = list(self.factors)
            factors[k] = f._with_derivative(index)
            terms.append(Product(self.scalar, factors))
        return Sum(tuple(terms))

    def __neg__(self):
        return Product(-self.scalar, self.factors)

    def _scaled(self, a):
        return Product(a * self.scalar, self.factors)

    def __repr__(self):
        return "Product(%r, %r)" % (self.scalar, list(self.factors))


class Sum(_Operand):
    """Sum of products (class S)."""

    def __init__(self, terms):
        terms = tuple(terms)
        if not all(isinstance(t, Product) for t in terms):
            raise TypeError("Sum terms must be Products")
        self.terms = terms

    def dx(self, index):
        index = _as_index(index)
        out = []
        for t in self.terms:
            out.extend(t.dx(index).terms)
        return Sum(tuple(out))

    def __neg__(self):
        return Sum(tuple(-t for t in self.terms))

    def _scaled(self, a):
        return Sum(tuple(t._scaled(a) for t in self.terms))

    def __repr__(self):
        return "Sum(%r)" % (list(self.terms),)


def _as_products(x):
    if isinstance(x, Terminal):
        return (Product(1.0, (x,)),)
    if isinstance(x, Product):
        return (x,)
    if isinstance(x, Sum):
        return x.terms
    raise TypeError("not an algebra operand: %r" % (x,))


def _as_sum(x):
    return Sum(_as_products(x))


def _multiply(a, b):
    """Product of two operands with the table-prescribed result class."""
    sticky = isinstance(a, (Sum, Function)) or isinstance(b, (Sum, Function))
    terms = []
    for pa in _as_products(a):
        for pb in _as_products(b):
            terms.append(Product(pa.scalar * pb.scalar, pa.factors + pb.factors))
    if sticky:
        return Sum(tuple(terms))
    assert len(terms) == 1
    return terms[0]


class Measure:
    """Integration measure over cell interiors."""

    def __repr__(self):
        return "dx"


dx = Measure()


# --- forms -------------------------------------------------------------------


class Form:
    """Integral of a multilinear integrand over cell interiors.

    Argument slots and coefficient numbers are compacted to 0..r-1 and
    0..n_w-1 in declaration order when the form is built.  The integrand
    is kept as its collected ``monomials``, each a Product: terms with the
    same factors, up to their order, are one monomial with their scalars
    summed in term order and the factors of the first; monomials that
    cancel exactly are dropped.  ``primary_dims`` and ``coefficient_dims``
    hold the space dimensions of the arguments and coefficients, as in a
    CompiledForm.
    """

    def __init__(self, integrand, name=None):
        if not isinstance(integrand, Sum):
            integrand = _as_sum(integrand)
        self.name = name

        # terms whose monomial cancels are dropped, so that a coefficient
        # read only there is not numbered; they still fix the arguments
        keys = [_monomial_key(t) for t in integrand.terms]
        totals = dict.fromkeys(keys, 0.0)
        for key, t in zip(keys, integrand.terms):
            totals[key] += t.scalar
        slots = sorted({f.slot for t in integrand.terms for f in t.factors
                        if isinstance(f, BasisFunction)})
        numbers = sorted({f.number
                          for key, t in zip(keys, integrand.terms)
                          if totals[key]
                          for f in t.factors if isinstance(f, Function)})
        if not slots:
            raise ArityError("form has no arguments")
        slot_map = {s: k for k, s in enumerate(slots)}
        number_map = {s: k for k, s in enumerate(numbers)}

        arguments = [None] * len(slots)
        coefficients = [None] * len(numbers)
        collected = {}  # key -> the monomial of its first term
        for key, t in zip(keys, integrand.terms):
            seen = set()
            factors = []
            for f in t.factors:
                if isinstance(f, BasisFunction):
                    new = f._copy()
                    new.slot = slot_map[f.slot]
                    if new.slot in seen:
                        raise ArityError(
                            "argument %d appears twice in one term" % new.slot
                        )
                    seen.add(new.slot)
                    if arguments[new.slot] is None:
                        arguments[new.slot] = f.element
                    elif arguments[new.slot] != f.element:
                        raise ArityError(
                            "argument %d bound to two different elements" % new.slot
                        )
                elif not totals[key]:
                    continue  # a cancelled term's coefficients get no number
                else:
                    new = f._copy()
                    new.number = number_map[f.number]
                    if coefficients[new.number] is None:
                        coefficients[new.number] = f.element
                    elif coefficients[new.number] != f.element:
                        raise ArityError(
                            "coefficient %d bound to two different elements"
                            % new.number
                        )
                factors.append(new)
            if seen != set(range(len(slots))):
                raise ArityError("every term must be linear in every argument")
            if totals[key] and key not in collected:
                collected[key] = Product(totals[key], factors)

        cells = {f.element.cell for t in integrand.terms for f in t.factors}
        if len(cells) > 1:
            raise IncompatibleCells("form mixes elements on different cells")

        self.arity = len(slots)
        self.arguments = arguments
        self.coefficients = coefficients
        self.primary_dims = tuple(el.space_dim for el in arguments)
        self.coefficient_dims = tuple(el.space_dim for el in coefficients)
        self.monomials = list(collected.values())
        self.cell = arguments[0].cell

    def named(self, name):
        self.name = name
        return self

    def __repr__(self):
        return "Form(%r, arity=%d, coefficients=%d)" % (
            self.name,
            self.arity,
            len(self.coefficients),
        )


def _monomial_key(product):
    """Equal keys mean the same factors, up to their order."""
    return tuple(sorted(repr(f._tokens()) for f in product.factors))


def expand_to_monomials(form):
    """The collected monomials of a form's integrand, as a new list of
    Products."""
    return list(form.monomials)


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>\#[^\n]*)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<string>"[^"\n]*")
  | (?P<op>[=()\[\],.*+\-])
  | (?P<ws>[ \t\r\n]+)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.ASCII,
)


_Token = namedtuple("_Token", "type text line col")


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "bad":
            raise FormSyntaxError("unexpected character %r" % lexeme, line, col)
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# --- parser ------------------------------------------------------------------


class _Parser:
    """Recursive-descent parser for form files.

    Two rules read every integrand:

        sum  := ['-'] term (('+'|'-') term)*
        term := factor ('*' factor)*

    At top level a term ends in ``*dx`` and the sum is a Form; inside
    parentheses dx may not appear.  The leading unary minus is a small
    superset of the published grammar, so that a sum may start with a
    negated term.  Each name is bound once: a second binding is a
    FormSyntaxError at its name, so no two forms share a name.
    """

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.env = {}

    # token plumbing

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def expect(self, type_, text=None):
        tok = self.peek()
        if tok.type != type_ or (text is not None and tok.text != text):
            want = text if text is not None else type_
            raise FormSyntaxError(
                "expected %r, found %r" % (want, tok.text or "end of input"),
                tok.line,
                tok.col,
            )
        return self.advance()

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise FormSyntaxError(message, tok.line, tok.col)

    def build(self, tok, make):
        """make(), with a failure located at tok.

        A bad operand is a FormSyntaxError; an error of the form algebra or
        of the element constructors keeps its type and gains tok's line and
        column.
        """
        try:
            return make()
        except (ValueError, TypeError, AttributeError) as exc:
            self.fail(str(exc), tok)
        except FormcError as exc:
            raise type(exc)("%s (line %d, column %d)"
                            % (exc, tok.line, tok.col)) from None

    # statements

    def parse_file(self):
        forms = []
        while self.peek().type != "eof":
            name_tok = self.expect("ident")
            if name_tok.text in self.env:
                self.fail("name %r is already bound" % name_tok.text, name_tok)
            self.expect("op", "=")
            value = self.parse_rhs(name_tok)
            if isinstance(value, Form):
                forms.append(value.named(name_tok.text))
            self.env[name_tok.text] = value
        return forms

    def parse_rhs(self, name_tok):
        tok = self.peek()
        if tok.type == "ident" and self.peek(1).text == "(" and tok.text in (
            "FiniteElement",
            "VectorElement",
            "BasisFunction",
            "Function",
            "Index",
        ):
            return self.parse_declaration()
        return self.parse_sum(measured=True)

    def parse_declaration(self):
        head = self.advance()
        self.expect("op", "(")
        if head.text in ("FiniteElement", "VectorElement"):
            family_tok = self.expect("string")
            family = family_tok.text.strip('"')
            self.expect("op", ",")
            shape = self.expect("string").text.strip('"')
            self.expect("op", ",")
            degree_tok = self.expect("number")
            self.expect("op", ")")
            try:
                degree = int(degree_tok.text)
            except ValueError:
                self.fail("element degree must be an integer", degree_tok)
            if family == "Lagrange":
                continuity = "continuous"
            elif family == "Discontinuous Lagrange":
                continuity = "discontinuous"
            else:
                self.fail("unknown element family %r" % family, family_tok)
            maker = make_lagrange if head.text == "FiniteElement" else (
                make_vector_lagrange
            )
            return self.build(head, lambda: maker(shape, degree, continuity))
        if head.text == "Index":
            self.expect("op", ")")
            return Index()
        el_tok = self.expect("ident")
        element = self.lookup(el_tok)
        if not isinstance(element, LagrangeElement):
            self.fail("%r is not an element" % el_tok.text, el_tok)
        self.expect("op", ")")
        return (BasisFunction if head.text == "BasisFunction" else Function)(
            element)

    def lookup(self, tok):
        if tok.text not in self.env:
            raise UndefinedName(
                "name %r used before declaration (line %d, column %d)"
                % (tok.text, tok.line, tok.col)
            )
        return self.env[tok.text]

    # expressions

    def at_statement_boundary(self):
        return self.peek().type == "eof" or (
            self.peek().type == "ident" and self.peek(1).text == "="
        )

    def parse_sum(self, measured):
        start = self.peek()
        negate = start.text == "-"
        if negate:
            self.advance()
        total = None
        while True:
            tok = self.peek()
            term = self.parse_term(measured)
            term = -term if negate else term
            total = term if total is None else self.build(
                tok, lambda: total + term)
            tok = self.peek()
            if tok.text not in ("+", "-"):
                break
            self.advance()
            negate = tok.text == "-"
        if not measured:
            return total
        if not self.at_statement_boundary():
            self.fail("expected '+', '-' or a new statement", tok)
        return self.build(start, lambda: Form(total))

    def parse_term(self, measured):
        start = self.peek()
        factors = []
        while True:
            tok = self.peek()
            if tok.type == "ident" and tok.text == "dx":
                if not measured:
                    self.fail("dx may only end a top-level term", tok)
                self.advance()
                if self.peek().text == "*":
                    self.fail("dx must be the last factor of a term")
                break
            factors.append(self.parse_factor())
            if self.peek().text != "*":
                if measured:
                    tok = self.peek()
                    raise MissingMeasure(
                        "term does not end with the measure dx (line %d, "
                        "column %d)" % (tok.line, tok.col))
                break
            self.advance()
        return self.combine(factors, start if measured else self.peek())

    def parse_factor(self):
        tok = self.peek()
        if tok.type == "number":
            self.advance()
            return float(tok.text)
        if tok.text == "(":
            self.advance()
            value = self.parse_sum(measured=False)
            self.expect("op", ")")
            return self.parse_postfixes(value)
        if tok.type == "ident":
            self.advance()
            value = self.lookup(tok)
            if isinstance(value, (LagrangeElement, Index, Form)):
                self.fail("%r cannot appear in an integrand" % tok.text, tok)
            return self.parse_postfixes(value)
        self.fail("expected a factor", tok)

    def parse_postfixes(self, value):
        while True:
            tok = self.peek()
            if tok.text == "[":
                self.advance()
                index = self.parse_index_ref()
                self.expect("op", "]")
                value = self.build(tok, lambda: value[index])
            elif tok.text == ".":
                self.advance()
                attr = self.expect("ident")
                if attr.text != "dx":
                    self.fail("unknown operation %r" % attr.text, attr)
                self.expect("op", "(")
                index = self.parse_index_ref()
                self.expect("op", ")")
                value = self.build(tok, lambda: value.dx(index))
            else:
                return value

    def parse_index_ref(self):
        tok = self.peek()
        if tok.type == "number":
            self.advance()
            try:
                return Index.fixed(int(tok.text))
            except ValueError:
                self.fail("fixed index must be a nonnegative integer", tok)
        if tok.type == "ident":
            self.advance()
            value = self.lookup(tok)
            if not isinstance(value, Index):
                self.fail("%r is not an index" % tok.text, tok)
            return value
        self.fail("expected an index", tok)

    def combine(self, factors, tok):
        if not factors:
            self.fail("empty term", tok)
        scalar = 1.0
        value = None
        for f in factors:
            if isinstance(f, float):
                scalar *= f
            elif value is None:
                value = f
            else:
                value = self.build(tok, lambda: value * f)
        if value is None:
            self.fail("term contains no basis function or coefficient", tok)
        return value._scaled(scalar) if scalar != 1.0 else value


def parse_form_file(text):
    """Parse form file text into a list of named forms.  Parentheses
    nested deeper than Python's stack allows raise FormSyntaxError at the
    token the parser reached."""
    parser = _Parser(text)
    try:
        return parser.parse_file()
    except RecursionError:
        tok = parser.peek()
    raise FormSyntaxError("parentheses nested too deeply", tok.line, tok.col)
