"""Form algebra, the form file parser, and the parser against the
canonical printer of the tests (``form_text``)."""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import parse_one
from form_text import form_file_text, structurally_equal
from formc.errors import (
    ArityError,
    FormcError,
    FormSyntaxError,
    IncompatibleCells,
    MissingMeasure,
    UndefinedName,
    UnsupportedDegree,
    UnsupportedShape,
)
from formc.form_language import (
    BasisFunction,
    Form,
    Function,
    Index,
    Product,
    Sum,
    dx,
    expand_to_monomials,
    parse_form_file,
)
from formc.reference_elements import make_lagrange, make_vector_lagrange
from formc.tensor_representation import compile_form

E = make_lagrange("triangle", 1)
EV = make_vector_lagrange("triangle", 1)


# --- algebra result classes -------------------------------------------------


def test_component_access_preserves_class():
    i = Index()
    assert isinstance(BasisFunction(EV)[i], BasisFunction)
    assert isinstance(BasisFunction(EV)[1], BasisFunction)
    assert isinstance(Function(EV)[i], Function)


def test_derivative_result_classes():
    v = BasisFunction(E)
    f = Function(E)
    prod = v * BasisFunction(E)
    assert isinstance(v.dx(0), Product)
    assert isinstance(f.dx(Index()), Sum)
    assert isinstance(prod.dx(0), Sum)  # product rule spreads over factors
    assert isinstance((v + v).dx(0), Sum)
    assert len(prod.dx(0).terms) == 2


def test_negation_and_scaling_result_classes():
    v = BasisFunction(E)
    f = Function(E)
    prod = v * BasisFunction(E)
    s = v + v
    assert isinstance(-v, Product) and isinstance(2 * v, Product)
    assert isinstance(-f, Sum) and isinstance(2 * f, Sum)
    assert isinstance(-prod, Product) and isinstance(prod * 3, Product)
    assert isinstance(-s, Sum) and isinstance(0.5 * s, Sum)
    assert isinstance(v / 2, Product)
    neg2 = -(-v)
    assert isinstance(neg2, Product)
    assert neg2.scalar == 1.0 and neg2.factors == (v,)


def test_multiplication_result_classes():
    v = BasisFunction(E)
    u = BasisFunction(E)
    f = Function(E)
    assert isinstance(v * u, Product)
    assert isinstance((2 * v) * u, Product)
    assert isinstance(v * f, Sum)
    assert isinstance(f * v, Sum)
    assert isinstance(f * f, Sum)
    assert isinstance((v + v) * u, Sum)
    prod = (3 * v) * (2 * u)
    assert prod.scalar == 6.0 and len(prod.factors) == 2


def test_addition_always_sum():
    v = BasisFunction(E)
    u = BasisFunction(E)
    f = Function(E)
    operands = (v, f, v * u, v + u)
    for a in operands:
        for b in operands:
            assert isinstance(a + b, Sum)
            assert isinstance(a - b, Sum)


def test_measure_builds_form():
    v = BasisFunction(E)
    u = BasisFunction(E)
    form = v * u * dx
    assert isinstance(form, Form)
    assert form.arity == 2
    only = v * dx
    assert isinstance(only, Form) and only.arity == 1


def test_index_is_free_or_fixed():
    i, k = Index(), Index.fixed(2)
    assert (i.kind, i.value, k.kind, k.id, k.value) == (
        "free", None, "fixed", None, 2)
    assert not hasattr(Index, "KINDS") and not hasattr(i, "range")
    # how a free index is summed is the compiler's to decide
    for kind in ("secondary", "auxiliary", "primary"):
        with pytest.raises(ValueError, match="bad index kind"):
            Index(kind)
    with pytest.raises(ValueError, match="nonnegative"):
        Index.fixed(-1)


def test_scalar_division_by_zero():
    v = BasisFunction(E)
    with pytest.raises(ZeroDivisionError):
        v / 0


def test_component_misuse():
    v = BasisFunction(E)
    w = BasisFunction(EV)
    with pytest.raises(ValueError):
        v[0]  # scalar element has no components
    with pytest.raises(ValueError):
        w[0][1]  # component already chosen
    with pytest.raises(ValueError):
        w[2]  # out of range on a 2d cell
    with pytest.raises(ValueError):
        v.dx(5)  # derivative direction out of range


def test_incompatible_cells():
    v = BasisFunction(E)
    u = BasisFunction(make_lagrange("tetrahedron", 1))
    with pytest.raises(IncompatibleCells):
        v * u
    with pytest.raises(IncompatibleCells):
        v + u


def test_arity_errors():
    v = BasisFunction(E)
    u = BasisFunction(E)
    with pytest.raises(ArityError):
        (v * v) * dx  # argument used twice in one term
    with pytest.raises(ArityError):
        (v * u + v * BasisFunction(E)) * dx  # term missing argument u
    with pytest.raises(ArityError):
        Form(Sum(()))


# --- monomial expansion -------------------------------------------------------


def test_single_monomial():
    v = BasisFunction(E)
    u = BasisFunction(E)
    monomials = expand_to_monomials(v * u * dx)
    assert len(monomials) == 1
    assert monomials[0].scalar == 1.0
    assert len(monomials[0].factors) == 2
    assert type(monomials[0]) is Product


def test_collection_of_identical_terms():
    v = BasisFunction(E)
    u = BasisFunction(E)
    monomials = expand_to_monomials(((v + v) * u) * dx)
    assert len(monomials) == 1
    assert monomials[0].scalar == 2.0
    # commuted duplicates collect too
    monomials = expand_to_monomials((v * u + u * v) * dx)
    assert len(monomials) == 1
    assert monomials[0].scalar == 2.0


def test_exact_cancellation_drops_terms():
    v = BasisFunction(E)
    u = BasisFunction(E)
    form = (v * u - v * u) * dx
    assert form.arity == 2
    assert expand_to_monomials(form) == []


def test_cancelled_coefficients_get_no_number():
    v = BasisFunction(E)
    u = BasisFunction(E)
    w = Function(E)
    z = Function(make_lagrange("triangle", 2))
    # the only coefficient cancels
    only = (v * u + w * v * u - w * v * u) * dx
    assert only.coefficients == []
    assert compile_form(only).coefficient_dims == ()
    # w cancels, so z is renumbered to coefficient 0
    renumbered = (w * v * u - w * v * u + z * v * u) * dx
    assert renumbered.coefficients == [z.element]
    assert [f.number for m in expand_to_monomials(renumbered)
            for f in m.factors if isinstance(f, Function)] == [0]
    assert compile_form(renumbered).coefficient_dims == (6,)
    for form in (only, renumbered):
        (again,) = parse_form_file(form_file_text(form.named("a")))
        assert structurally_equal(form, again)
    # a cancelled term still fixes the arguments
    zero = (w * v * u - w * v * u) * dx
    assert (zero.arity, zero.coefficients) == (2, [])
    assert expand_to_monomials(zero) == []


def test_monomials_sum_in_term_order_with_first_factors():
    v = BasisFunction(E)
    u = BasisFunction(E)
    w = Function(E)
    form = (0.1 * v * u + w * v * u + 0.2 * u * v + 0.5 * v.dx(0) * u
            - w * u * v + 0.3 * v * u) * dx
    monomials = expand_to_monomials(form)
    assert [m.scalar for m in monomials] == [(0.1 + 0.2) + 0.3, 0.5]
    assert monomials[0].scalar != 0.1 + (0.2 + 0.3)
    assert [[(f.slot, len(f.derivatives)) for f in m.factors]
            for m in monomials] == [[(0, 0), (1, 0)], [(0, 1), (1, 0)]]
    assert form.coefficients == []
    assert expand_to_monomials(form) is not monomials


def test_elasticity_expansion():
    text = (
        'element = VectorElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "i = Index()\n"
        "j = Index()\n"
        "a = 0.25*(v[i].dx(j) + v[j].dx(i)) * (u[i].dx(j) + u[j].dx(i)) * dx\n"
    )
    monomials = expand_to_monomials(parse_one(text))
    assert len(monomials) == 4
    assert all(m.scalar == 0.25 for m in monomials)
    assert all(len(m.factors) == 2 for m in monomials)


def test_coefficient_may_repeat_in_a_term():
    v = BasisFunction(E)
    f = Function(E)
    monomials = expand_to_monomials((f * f * v) * dx)
    assert len(monomials) == 1
    assert [type(f) for f in monomials[0].factors] == [Function, Function,
                                                       BasisFunction]


# --- parser ---------------------------------------------------------------------


POISSON = (
    'element = FiniteElement("Lagrange", "tetrahedron", 3)\n'
    "\n"
    "v = BasisFunction(element)\n"
    "u = BasisFunction(element)\n"
    "f = Function(element)\n"
    "\n"
    "i = Index()\n"
    "\n"
    "a = v.dx(i)*u.dx(i)*dx\n"
    "L = v*f*dx\n"
)


def test_parse_poisson_file():
    forms = parse_form_file(POISSON)
    assert [f.name for f in forms] == ["a", "L"]
    a, load = forms
    assert a.arity == 2 and not a.coefficients
    assert load.arity == 1 and len(load.coefficients) == 1
    monomials = expand_to_monomials(a)
    assert len(monomials) == 1
    # the one free index is shared by both derivative slots
    (m,) = monomials
    ids = [idx.id for f in m.factors for idx in f.derivatives]
    assert len(ids) == 2 and ids[0] == ids[1]


def test_parse_caption_strings():
    mass = parse_one(
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "a = v*u*dx\n"
    )
    assert mass.arity == 2
    (m,) = expand_to_monomials(mass)
    assert m.scalar == 1.0 and len(m.factors) == 2

    poisson = parse_one(
        'element = FiniteElement("Lagrange", "triangle", 2)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "i = Index()\n"
        "a = v.dx(i)*u.dx(i)*dx\n"
    )
    assert poisson.arity == 2

    ns = parse_one(
        'element = VectorElement("Lagrange", "tetrahedron", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "w = Function(element)\n"
        "i = Index()\n"
        "j = Index()\n"
        "a = v[i]*w[j]*u[i].dx(j)*dx\n"
    )
    assert ns.arity == 2 and len(ns.coefficients) == 1
    (m,) = expand_to_monomials(ns)
    assert len(m.factors) == 3


def test_parse_numbers_and_comments():
    form = parse_one(
        "# leading comment\n"
        'element = FiniteElement("Lagrange", "interval", 2)  # trailing\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "a = 2*v*u*dx - 0.5*u*v*dx + 0.25*v*u*dx\n"
    )
    monomials = expand_to_monomials(form)
    assert len(monomials) == 1
    assert monomials[0].scalar == pytest.approx(1.75)


def test_parse_discontinuous_and_vector_elements():
    form = parse_one(
        'e0 = FiniteElement("Discontinuous Lagrange", "triangle", 0)\n'
        'e1 = VectorElement("Lagrange", "triangle", 2)\n'
        "v = BasisFunction(e1)\n"
        "c = Function(e0)\n"
        "i = Index()\n"
        "a = c*v[i].dx(i)*dx\n"
    )
    assert form.arity == 1
    assert form.coefficients[0].degree == 0
    assert form.arguments[0].components == 2


def test_parser_error_positions():
    with pytest.raises(FormSyntaxError) as err:
        parse_form_file("a = $\n")
    assert err.value.line == 1 and err.value.col == 5

    bad = (
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "a = v*@u*dx\n"
    )
    with pytest.raises(FormSyntaxError) as err:
        parse_form_file(bad)
    assert err.value.line == 4 and err.value.col == 7


@pytest.mark.parametrize("second", (
    "a = v.dx(0)*u.dx(0)*dx\n",  # two forms named a
    "v = BasisFunction(element)\n",
    'element = FiniteElement("Lagrange", "triangle", 2)\n',
))
def test_a_name_bound_twice_is_a_located_error(second):
    text = (
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "a = v*u*dx\n"
        "  " + second
    )
    name = second.split()[0]
    with pytest.raises(FormSyntaxError,
                       match="name %r is already bound" % name) as err:
        parse_form_file(text)
    assert (err.value.line, err.value.col) == (5, 3)


def test_parser_semantic_errors():
    header = (
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
    )
    with pytest.raises(UndefinedName):
        parse_form_file(header + "a = v*q*dx\n")
    with pytest.raises(MissingMeasure):
        parse_form_file(header + "a = v*u\n")
    with pytest.raises(ArityError):
        parse_form_file(header + "a = v*v*dx\n")
    with pytest.raises(FormSyntaxError):
        parse_form_file('element = FiniteElement("Hermite", "triangle", 1)\n')
    with pytest.raises(IncompatibleCells):
        parse_form_file(
            'e0 = FiniteElement("Lagrange", "triangle", 1)\n'
            'e1 = FiniteElement("Lagrange", "tetrahedron", 1)\n'
            "v = BasisFunction(e0)\n"
            "u = BasisFunction(e1)\n"
            "a = v*u*dx\n"
        )


def test_deep_nesting_is_a_syntax_error():
    head = (
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
    )

    def nested(depth):
        return head + "a = " + "(" * depth + "v*u" + ")" * depth + "*dx\n"

    assert structurally_equal(parse_one(nested(50)), parse_one(nested(0)))
    # Python's stack runs out long before 1,000 levels
    with pytest.raises(FormSyntaxError, match="nested too deeply") as err:
        parse_form_file(nested(1000))
    assert err.value.line == 4


def test_parse_unary_minus():
    form = parse_one(
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "a = -v*u*dx\n"
    )
    (m,) = expand_to_monomials(form)
    assert m.scalar == -1.0


LINES = (
    'element = FiniteElement("Lagrange", "triangle", 1)\n'
    "v = BasisFunction(element)\n"
    "u = BasisFunction(element)\n"
)
VECTOR = 'f = VectorElement("Lagrange", "triangle", 1)\nw = Function(f)\n'


@pytest.mark.parametrize("tail,error,line", (
    ('e = FiniteElement("Lagrange", "hexagon", 1)\n', UnsupportedShape, 4),
    ('e = VectorElement("Lagrange", "triangle", 99)\n', UnsupportedDegree, 4),
    ('e = FiniteElement("Lagrange", "triangle", 0)\n', UnsupportedDegree, 4),
    ('e = FiniteElement("Lagrange", "interval", 1)\n'
     "w = Function(e)\n"
     "a = v*u*w*dx\n", IncompatibleCells, 6),
    ('e = FiniteElement("Lagrange", "interval", 1)\n'
     "w = BasisFunction(e)\n"
     "\n"
     "a = v*u*dx +\n"
     "    w*dx\n", IncompatibleCells, 8),
    ('e = FiniteElement("Lagrange", "interval", 1)\n'
     "w = Function(e)\n"
     "a = v*(u + w)*dx\n", IncompatibleCells, 6),
    ("f = Function(element)\n\na = f*dx\n", ArityError, 6),
    ("\na = v*u*dx + v*dx\n", ArityError, 5),
))
def test_parser_errors_name_their_line(tail, error, line):
    with pytest.raises(error) as err:
        parse_form_file(LINES + tail)
    assert "(line %d, column " % line in str(err.value)


@pytest.mark.parametrize("tail,error,message", (
    ("a = v*(u*dx)*dx\n", FormSyntaxError,
     "dx may only end a top-level term (line 4, column 10)"),
    ("a = dx*u\n", FormSyntaxError,
     "dx must be the last factor of a term (line 4, column 7)"),
    ("a = v*u\n", MissingMeasure,
     "term does not end with the measure dx (line 5, column 1)"),
    ("a = v*u + v*dx\n", MissingMeasure,
     "term does not end with the measure dx (line 4, column 9)"),
    ("a = v*u*dx u\n", FormSyntaxError,
     "expected '+', '-' or a new statement (line 4, column 12)"),
    ("a = dx\n", FormSyntaxError, "empty term (line 4, column 5)"),
    ("a = 2.0*dx\n", FormSyntaxError,
     "term contains no basis function or coefficient (line 4, column 5)"),
    # inside parentheses the term's error points past the term
    ("a = (-2.0)*v*u*dx\n", FormSyntaxError,
     "term contains no basis function or coefficient (line 4, column 10)"),
    # numbers are ASCII digits: float() and int() also read these
    ("a = \u0662*v*u*dx\n", FormSyntaxError,
     "unexpected character '\u0662' (line 4, column 5)"),
    ('e = FiniteElement("Lagrange", "triangle", \u0661)\n', FormSyntaxError,
     "unexpected character '\u0661' (line 4, column 43)"),
    ('e = FiniteElement("Lagrange", "triangle", 2.5)\n', FormSyntaxError,
     "element degree must be an integer (line 4, column 43)"),
    ("i = Index()\nb = BasisFunction(i)\n", FormSyntaxError,
     "'i' is not an element (line 5, column 19)"),
    ("a = element*v*dx\n", FormSyntaxError,
     "'element' cannot appear in an integrand (line 4, column 5)"),
    ("i = Index()\na = v.dy(i)*u*dx\n", FormSyntaxError,
     "unknown operation 'dy' (line 5, column 7)"),
    (VECTOR + "a = w[1.5]*v*u*dx\n", FormSyntaxError,
     "fixed index must be a nonnegative integer (line 6, column 7)"),
    (VECTOR + "a = w[u]*v*dx\n", FormSyntaxError,
     "'u' is not an index (line 6, column 7)"),
    (VECTOR + "a = w[+]*v*dx\n", FormSyntaxError,
     "expected an index (line 6, column 7)"),
    ("a = v[0]*u*dx\n", FormSyntaxError,
     "component access on a scalar element (line 4, column 6)"),
))
def test_parser_errors_pin_message(tail, error, message):
    with pytest.raises(error) as err:
        parse_form_file(LINES + tail)
    assert type(err.value) is error
    assert str(err.value) == message


# --- canonical printer ------------------------------------------------------------


SHIPPED = ("mass", "poisson", "navierstokes", "elasticity")


def shipped_text(name):
    import importlib.resources

    return (
        importlib.resources.files("formc") / "forms" / (name + ".form")
    ).read_text()


@pytest.mark.parametrize("name", SHIPPED)
def test_printer_round_trip(name):
    forms = parse_form_file(shipped_text(name))
    text = form_file_text(forms)
    again = parse_form_file(text)
    assert len(again) == len(forms)
    for f, g in zip(forms, again):
        assert f.name == g.name
        assert structurally_equal(f, g)
    # printing is idempotent
    assert form_file_text(again) == text


@pytest.mark.parametrize("elements", (
    ("P1", "P1", "P2", "P2"),  # a P1 form, then a P2 form
    ("P1", "P2", "P2", "P2"),  # b's slot 1 matches a's, its slot 0 does not
))
def test_printer_names_each_forms_arguments(elements):
    element = {"P1": E, "P2": make_lagrange("triangle", 2)}
    forms = []
    for name, e0, e1 in (("a",) + elements[:2], ("b",) + elements[2:]):
        v, u = BasisFunction(element[e0]), BasisFunction(element[e1])
        w, z = Function(element[e0]), Function(element[e1])
        forms.append((v.dx(0) * u * w.dx(1) * z * dx).named(name))
    again = parse_form_file(form_file_text(forms))
    assert [g.name for g in again] == ["a", "b"]
    for f, g in zip(forms, again):
        assert structurally_equal(f, g)


def test_structurally_equal_discriminates():
    def build(scalar):
        v = BasisFunction(E)
        u = BasisFunction(E)
        return (scalar * v * u) * dx

    assert structurally_equal(build(2.0), build(2.0))
    assert not structurally_equal(build(2.0), build(3.0))
    i_form = parse_one(
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "i = Index()\n"
        "a = v.dx(i)*u.dx(i)*dx\n"
    )
    j_form = parse_one(
        'element = FiniteElement("Lagrange", "triangle", 1)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "j = Index()\n"
        "a = v.dx(j)*u.dx(j)*dx\n"
    )
    # equality is up to renaming of free indices
    assert structurally_equal(i_form, j_form)
    # monomials with and without a component compare without ordering
    w = BasisFunction(EV)
    mixed = (w.dx(0) + w[0].dx(0)) * dx
    assert structurally_equal(mixed, mixed)
    assert not structurally_equal(mixed, (w.dx(0) + w[1].dx(0)) * dx)


# --- fuzzed form files ------------------------------------------------------------

FUZZ_TOKENS = (
    "", "(", ")", "*", "+", "-", ".", "[", "]", "=", ",", "#", "@", "\n",
    "dx", "v", "u", "w", "f", "i", "j", "k", "element", "Index", "dx(i)",
    "BasisFunction", "Function", "FiniteElement", "VectorElement",
    '"Lagrange"', '"Discontinuous Lagrange"', '"Hermite"', '"triangle"',
    '"tetrahedron"', '"interval"', '"hexagon"', '"', "0", "1", "2", "3",
    "9", "99", "1.5", "1e400", "0.25",
)
FUZZ_LINES = (
    'e = FiniteElement("Lagrange", "interval", 1)',
    'e = VectorElement("Discontinuous Lagrange", "triangle", 0)',
    "g = BasisFunction(e)", "g = Function(e)", "k = Index()",
    "b = v*g*dx", "b = g*dx", "b = v*u*dx + g*v*u*dx", "b = (v + g)*u*dx",
)


@st.composite
def mutated_form_files(draw):
    text = shipped_text(draw(st.sampled_from(SHIPPED)))
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(
            ("truncate", "drop", "insert") + ("token",) * 4))
        lines = text.splitlines()
        k = draw(st.integers(0, max(len(lines) - 1, 0)))
        if action == "truncate":
            text = text[:draw(st.integers(0, len(text)))]
            continue
        if action == "drop" and lines:
            del lines[k]
        elif action == "insert":
            lines.insert(k, draw(st.sampled_from(FUZZ_LINES) |
                                 st.text(max_size=20)))
        elif lines:
            parts = re.split(r"(\W)", lines[k])
            j = draw(st.integers(0, len(parts)))
            parts[j:j + draw(st.integers(0, 1))] = [
                draw(st.sampled_from(FUZZ_TOKENS))]
            lines[k] = "".join(parts)
        text = "\n".join(lines) + "\n"
    return text


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_form_files())
def test_parser_fuzzed_form_files(text):
    try:
        parse_form_file(text)
    except FormcError as err:
        found = re.search(r"\(line (\d+)(, column \d+)?\)", str(err))
        assert found, "%s without a line: %s" % (type(err).__name__, err)
        assert 1 <= int(found.group(1)) <= text.count("\n") + 1
