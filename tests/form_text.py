"""A canonical form printer and a structural comparator, as references for
the tests.

``form_file_text`` renders forms as form file text that parses back equal,
so the parser can be checked by a round trip; ``structurally_equal``
compares two forms up to the renaming of free indices and the order of
their monomials.  The comparator renames a form's indices itself, from
each terminal's attributes.
"""

from collections import Counter

from formc.form_language import BasisFunction, Form, expand_to_monomials


def structurally_equal(a, b):
    """Compare two forms up to index renaming and monomial order."""
    if a.arity != b.arity:
        return False
    if [e._key() for e in a.arguments] != [e._key() for e in b.arguments]:
        return False
    if [e._key() for e in a.coefficients] != [e._key() for e in b.coefficients]:
        return False
    return Counter(canonical_keys(a)) == Counter(canonical_keys(b))


def canonical_keys(form):
    """One key per monomial: its rounded scalar and its factors, with free
    indices numbered in their order of appearance."""
    keys = []
    for m in expand_to_monomials(form):
        renaming = {}

        def key(i):
            if i is None:
                return None
            if i.kind == "fixed":
                return ("fix", i.value)
            return ("idx", renaming.setdefault(i.id, len(renaming)))

        keys.append((round(m.scalar, 12), tuple(
            (type(f).__name__, f.element._key(), f._slot_key(),
             key(f.component), tuple(key(i) for i in f.derivatives))
            for f in m.factors)))
    return keys


def element_decl(element):
    head = "VectorElement" if element.value_rank else "FiniteElement"
    family = (
        "Lagrange" if element.continuity == "continuous" else "Discontinuous Lagrange"
    )
    return '%s("%s", "%s", %d)' % (head, family, element.cell.shape, element.degree)


def form_file_text(forms):
    """Render forms as canonical form file text that parses back equal."""
    if isinstance(forms, Form):
        forms = [forms]
    lines = []
    element_names = {}
    argument_names = {}
    coefficient_names = {}
    index_names = {}

    def element_name(element):
        key = element._key()
        if key not in element_names:
            name = "e%d" % len(element_names)
            element_names[key] = name
            lines.append("%s = %s" % (name, element_decl(element)))
        return element_names[key]

    def index_name(index):
        if index.kind == "fixed":
            return str(index.value)
        if index.id not in index_names:
            name = "i%d" % len(index_names)
            index_names[index.id] = name
            lines.append("%s = Index()" % name)
        return index_names[index.id]

    def declare(names, prefix, head, elements):
        """Names of slots 0..n-1.  A form shares a name with an earlier
        one only if the elements of every slot up to it agree too, so the
        names of each form are declared in slot order."""
        out = []
        for k, element in enumerate(elements):
            key = tuple(e._key() for e in elements[:k + 1])
            if key not in names:
                names[key] = "%s%d" % (prefix, len(names))
                lines.append("%s = %s(%s)"
                             % (names[key], head, element_name(element)))
            out.append(names[key])
        return out

    body = []
    for form in forms:
        args = declare(argument_names, "v", "BasisFunction", form.arguments)
        coeffs = declare(coefficient_names, "w", "Function", form.coefficients)

        pieces = []
        for m in expand_to_monomials(form):
            bits = []
            if abs(m.scalar) != 1.0:
                bits.append(repr(abs(m.scalar)))
            for f in m.factors:
                if isinstance(f, BasisFunction):
                    text = args[f.slot]
                else:
                    text = coeffs[f.number]
                if f.component is not None:
                    text += "[%s]" % index_name(f.component)
                for i in f.derivatives:
                    text += ".dx(%s)" % index_name(i)
                bits.append(text)
            bits.append("dx")
            sign = "-" if m.scalar < 0 else "+"
            pieces.append((sign, "*".join(bits)))
        if not pieces:
            raise ValueError("cannot print a form with no monomials")
        text = pieces[0][1] if pieces[0][0] == "+" else "-" + pieces[0][1]
        for sign, chunk in pieces[1:]:
            text += " %s %s" % (sign, chunk)
        body.append("%s = %s" % (form.name or "a", text))

    return "\n".join(lines + body) + "\n"
