"""Meshes, dof maps, quadrature evaluation, assembly, and the CG solver."""

import os
import re
import tempfile
from functools import lru_cache

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import formc.runtime
from conftest import parse_one, random_affine_map, shipped_forms
from formc.codegen import emit_raw, read_raw
from formc.errors import (
    DegenerateCell,
    DimensionMismatch,
    DuplicateCell,
    FormcError,
    FormSyntaxError,
    MaxIterations,
    NonFiniteValue,
    NotPositiveDefinite,
    NotSymmetric,
    UnsupportedDerivative,
)
from formc.reference_elements import make_lagrange, make_vector_lagrange
from formc.runtime import (
    AffineMap,
    DofMap,
    Mesh,
    affine_map,
    affine_maps,
    apply_dirichlet,
    assemble,
    build_dofmap,
    cg_solve,
    l2_error,
    lift_solution,
    load_mesh,
    perturb_mesh,
    quadrature_element_tensor,
    quadrature_element_tensors,
    save_mesh,
    unit_cube_mesh,
    unit_square_mesh,
    write_matrix_market,
)
from formc.tensor_representation import compile_form

REFERENCE_TRIANGLE = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])

TWO_TRIANGLES = Mesh(
    [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
    [[0, 1, 2], [0, 2, 3]],
)


def form_of(kind, shape="triangle", degree=1):
    texts = {
        "mass": (
            'element = FiniteElement("Lagrange", "{s}", {q})\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "a = v*u*dx\n"
        ),
        "poisson": (
            'element = FiniteElement("Lagrange", "{s}", {q})\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "i = Index()\n"
            "a = v.dx(i)*u.dx(i)*dx\n"
        ),
        "load": (
            'element = FiniteElement("Lagrange", "{s}", {q})\n'
            "v = BasisFunction(element)\n"
            "f = Function(element)\n"
            "a = v*f*dx\n"
        ),
        "navierstokes": (
            'element = VectorElement("Lagrange", "{s}", {q})\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "w = Function(element)\n"
            "i = Index()\n"
            "j = Index()\n"
            "a = v[i]*w[j]*u[i].dx(j)*dx\n"
        ),
        "elasticity": (
            'element = VectorElement("Lagrange", "{s}", {q})\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "i = Index()\n"
            "j = Index()\n"
            "a = 0.25*(v[i].dx(j) + v[j].dx(i)) * "
            "(u[i].dx(j) + u[j].dx(i)) * dx\n"
        ),
    }
    return parse_one(texts[kind].format(s=shape, q=degree))


# --- meshes -------------------------------------------------------------------


def test_unit_square_mesh():
    mesh = unit_square_mesh(2)
    assert mesh.num_vertices == 9 and mesh.num_cells == 8
    dets, _, _, _ = affine_maps(mesh)
    assert (dets > 0).all()
    assert abs(dets.sum() / 2 - 1.0) < 1e-14  # total area
    assert mesh.boundary_vertices() == {0, 1, 2, 3, 5, 6, 7, 8}


def test_unit_cube_mesh():
    mesh = unit_cube_mesh(2)
    assert mesh.num_vertices == 27 and mesh.num_cells == 48
    dets, _, _, _ = affine_maps(mesh)
    assert (dets > 0).all()
    assert abs(dets.sum() / 6 - 1.0) < 1e-14  # total volume


def test_mesh_reorients_negative_cells():
    flipped = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 2, 1]])
    assert affine_map(flipped, 0).det > 0
    straight = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    assert np.array_equal(flipped.cells, straight.cells)


def test_mesh_rejects_degenerate_and_malformed():
    with pytest.raises(DegenerateCell):
        Mesh([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [[0, 1, 2]])
    with pytest.raises(DimensionMismatch):
        Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 3]])
    with pytest.raises(DimensionMismatch):
        Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1]])


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_mesh_rejects_non_finite_coordinates(bad):
    with pytest.raises(NonFiniteValue, match="vertex 2"):
        Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, bad]], [[0, 1, 2]])


def test_mesh_reports_first_degenerate_cell():
    vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [1.0, 1.0]]
    with pytest.raises(DegenerateCell, match="cell 2 "):
        Mesh(vertices, [[0, 1, 2], [1, 3, 4], [0, 1, 3], [0, 3, 1]])


def test_mesh_rejects_duplicate_cells():
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    with pytest.raises(DuplicateCell, match="cells 0 and 1 "):
        Mesh(tri, [[0, 1, 2], [0, 2, 1]])
    mesh = unit_cube_mesh(2)
    cells = np.vstack([mesh.cells, mesh.cells[5][::-1]])
    with pytest.raises(DuplicateCell, match="cells 5 and %d " % mesh.num_cells):
        Mesh(mesh.vertices, cells)


def test_mesh_rejects_non_integer_cell_ids():
    tri = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    for bad in (1.7, np.nan, np.inf):
        with pytest.raises(DimensionMismatch, match="cell 1 has a non-integer"):
            Mesh(tri, [[0, 1, 2], [1, bad, 2]])
    with pytest.raises(DimensionMismatch, match="must be integers"):
        Mesh(tri, [["0", "1", "2"]])
    # integral floats are ids all the same
    mesh = Mesh(tri, [[0.0, 1.0, 2.0], [1.0, 3.0, 2.0]])
    assert mesh.cells.dtype == int
    assert mesh.cells.tolist() == [[0, 1, 2], [1, 3, 2]]


def test_mesh_save_load_round_trip(tmp_path):
    mesh = perturb_mesh(unit_square_mesh(3), seed=7)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    again = load_mesh(path)
    assert np.array_equal(again.vertices, mesh.vertices)
    assert np.array_equal(again.cells, mesh.cells)
    header = path.read_text().splitlines()[0]
    assert header == "mesh 2 16 18"


def test_load_mesh_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("mesh 2 3 1\n0.0 0.0\n1.0 0.0\n0.0\n0 1 2\n")
    with pytest.raises(DimensionMismatch):
        load_mesh(path)


@pytest.mark.parametrize(
    "text,message",
    (
        ("mesh 2.5 3 1\n0 0\n1 0\n0 1\n0 1 2\n", "header field"),
        ("mesh 2 -3 1\n0 0 1\n", "negative header"),
        ("mesh 2 3\n", "not a mesh file"),
        ("mesh 2 3 1\n0 0\n1 0\n0 x\n0 1 2\n", "vertex coordinate"),
        ("mesh 2 3 1\n0 0\n1 0\n0 1\n0 1.5 2\n", "cell vertex id"),
        ("mesh 2 3 99999999999999999999\n", "header field"),
        ("mesh 2 3 1\n0 0\n1 0\n0 1\n0 99999999999999999999 2\n",
         "cell vertex id"),
        ("mesh 2 3 1\n0 0\n1 0\n0 1\n0 -99999999999999999999 2\n",
         "cell vertex id"),
        # a short file is reported by its count before any bad token
        ("mesh 2 3 1\n0 0\n1 0\n0\n0 1.5 2\n", "8 data fields, expected 9"),
        ("mesh 2 3 1\n0 0\n1 0\n0 1\n0 1 2 3\n", "10 data fields"),
        ("mesh 2 4611686018427387904 0\n", "expected 9223372036854775808"),
    ),
)
def test_load_mesh_rejects_bad_tokens(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DimensionMismatch, match=message):
        load_mesh(path)


@pytest.mark.parametrize("token", ("0_1", "\u0661"))  # int() reads 1
def test_text_readers_take_only_their_block_grammar(tmp_path, token):
    # a block the one-call parser rejects is read token by token only to
    # name the fault, never by Python's laxer int and float; the keyword
    # lines, the mesh header and the vertices take ASCII digits only
    lines = emit_raw(compile_form(form_of("mass"))).splitlines()
    assert lines[12].startswith("0 1 ")
    assert lines[4:7] == ["primary 3 3", "coefficients", "monomials 1"]
    assert lines[10] == "entries 9"
    for number, line in ((13, "0 %s %s" % (token, lines[12].split()[-1])),
                         (5, "primary 3 " + token), (7, "monomials " + token),
                         (11, "entries " + token)):
        with pytest.raises(FormSyntaxError) as err:
            read_raw("\n".join(lines[:number - 1] + [line] + lines[number:])
                     + "\n")
        assert err.value.line == number
    path = tmp_path / "mesh.txt"
    for text, what in (("mesh 2 3 1\n0 0\n1 0\n0 1\n0 %s 2\n", "cell vertex id"),
                       ("mesh 2 3 1\n0 0\n1 0\n0 %s\n0 1 2\n",
                        "vertex coordinate"),
                       ("mesh 2 3 %s\n0 0\n1 0\n0 1\n0 1 2\n", "header field")):
        path.write_text(text % token)
        with pytest.raises(DimensionMismatch, match="bad %s in mesh file: %r"
                           % (what, token)):
            load_mesh(path)


@pytest.mark.parametrize("space", ("\u2003", "\x1c", "\x85", "\u2028"))
def test_text_readers_split_at_ascii_whitespace_only(tmp_path, space):
    # str.split, str.splitlines and np.loadtxt also split at these; in a
    # raw listing or a mesh file, each is a fault on its line or in its token
    text = emit_raw(compile_form(form_of("mass")))
    lines = text.splitlines()
    assert lines[4:6] == ["primary 3 3", "coefficients"]
    for number, line, joined in ((5, "primary 3" + space + "3", 1),
                                 (13, lines[12].replace(" ", space, 1), 1),
                                 (5, lines[4] + space + lines[5], 2)):
        with pytest.raises(FormSyntaxError,
                           match="unexpected whitespace") as err:
            read_raw("\n".join(lines[:number - 1] + [line]
                                + lines[number - 1 + joined:]) + "\n")
        assert err.value.line == number
    # a CRLF listing still reads
    assert emit_raw(read_raw(text.replace("\n", "\r\n"))) == text
    path = tmp_path / "mesh.txt"
    token = space + "1"
    for mesh, message in (
            ("mesh 2 3 %s\n0 0\n1 0\n0 1\n0 1 2\n", "bad header field"),
            ("mesh 2 3 1\n0 0\n1 0\n0 %s\n0 1 2\n", "bad vertex coordinate"),
            ("mesh 2 3 1\n0 0\n1 0\n0 1\n0 %s 2\n", "bad cell vertex id")):
        path.write_text(mesh % token)
        with pytest.raises(DimensionMismatch, match=re.escape(
                "%s in mesh file: %r" % (message, token))):
            load_mesh(path)
    # two coordinates joined by it are one token
    path.write_text("mesh 2 3 1\n0 0\n1 0\n0%s1\n0 1 2\n" % space)
    with pytest.raises(DimensionMismatch, match="8 data fields, expected 9"):
        load_mesh(path)


def test_load_mesh_ignores_line_breaks(tmp_path):
    mesh = perturb_mesh(unit_cube_mesh(2), seed=4)
    path = tmp_path / "mesh.txt"
    save_mesh(mesh, path)
    tokens = path.read_text().split()
    for sep in (" ", "\n", " \t\n  "):
        path.write_text(sep + sep.join(tokens) + sep)
        again = load_mesh(path)
        assert np.array_equal(again.vertices, mesh.vertices)
        assert np.array_equal(again.cells, mesh.cells)
    path.write_text("mesh 2 3 0\n0 0\n1 0\n0 1\n")
    assert load_mesh(path).cells.shape == (0, 3)
    path.write_text("mesh 3 0 0")
    assert load_mesh(path).vertices.shape == (0, 3)


def test_load_mesh_rejects_nan_coordinate(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("mesh 2 3 1\n0 0\n1 0\nnan 1\n0 1 2\n")
    with pytest.raises(NonFiniteValue):
        load_mesh(path)


@pytest.mark.parametrize("cells,message", (
    # np.fromstring reads a lone sign and the number after it as one id
    (b"0 + 1 2", "mesh file has 10 data fields, expected 9"),
    (b"0 - 1 2", "mesh file has 10 data fields, expected 9"),
    (b"0 +1 2", "bad cell vertex id in mesh file: '+1'"),
    (b"0 1 -2", "bad cell vertex id in mesh file: '-2'"),
))
def test_load_mesh_takes_cell_ids_in_ascii_digits_only(tmp_path, cells,
                                                       message):
    path = tmp_path / "mesh.txt"
    path.write_bytes(b"mesh 2 3 1\n0 0\n1 0\n0 1\n" + cells + b"\n")
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        load_mesh(path)


def test_load_mesh_names_a_byte_that_is_not_utf8(tmp_path):
    # the file is read as bytes, and the token named with the byte escaped
    path = tmp_path / "mesh.txt"
    for text, what in (
            (b"mesh 2 3 1\n0 0\n1 0\n0 \xff1\n0 1 2\n", "vertex coordinate"),
            (b"mesh 2 3 \xff1\n0 0\n1 0\n0 1\n0 1 2\n", "header field"),
            (b"mesh 2 3 1\n0 0\n1 0\n0 1\n0 \xff1 2\n", "cell vertex id")):
        path.write_bytes(text)
        with pytest.raises(DimensionMismatch, match=re.escape(
                "bad %s in mesh file: %r" % (what, "\\xff1"))):
            load_mesh(path)


def test_save_mesh_writes_each_value_as_its_repr(tmp_path):
    path = tmp_path / "mesh.txt"
    extremes = Mesh([[-0.0], [5e-324], [1e16], [1.7976931348623157e308],
                     [0.1], [1 / 3]], [[0, 2], [2, 3], [4, 5]])
    for mesh in (perturb_mesh(unit_cube_mesh(3), seed=5), extremes):
        save_mesh(mesh, path)
        lines = ["mesh %d %d %d" % (mesh.dim, mesh.num_vertices,
                                    mesh.num_cells)]
        lines += [" ".join(repr(float(x)) for x in v) for v in mesh.vertices]
        lines += [" ".join(str(int(i)) for i in c) for c in mesh.cells]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        again = load_mesh(path)
        assert again.vertices.tobytes() == mesh.vertices.tobytes()


SAVED_MESHES = (
    Mesh([[0.0], [0.5], [1.0]], [[0, 1], [1, 2]]),
    perturb_mesh(unit_square_mesh(2), seed=2),
    unit_cube_mesh(1),
)


@lru_cache(maxsize=None)
def saved_mesh_file(k):
    """The bytes save_mesh writes for SAVED_MESHES[k]."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mesh.txt")
        save_mesh(SAVED_MESHES[k], path)
        with open(path, "rb") as fh:
            return fh.read()


# bytes that join two tokens for str.split but not for bytes.split: U+2003
# in UTF-8 and the ASCII file separator
JOINERS = ("\u2003".encode(), b"\x1c")
# ASCII whitespace, which may stand between any two tokens
SPACES = (b"\t", b"\r\n", b"\x0b \x0c")
INSERTS = (b" + ", b" - ", b"+", b"-", b"_", b"\xff")
FLOAT_TOKEN = re.compile(rb"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


@st.composite
def edited_mesh_files(draw):
    """save_mesh output of a small mesh, with up to three random edits: an
    inserted sign, underscore or \\xff byte, two tokens joined by a
    character that is not ASCII whitespace, a token split in two, or the
    space between two tokens made other ASCII whitespace."""
    data = saved_mesh_file(draw(st.integers(0, len(SAVED_MESHES) - 1)))
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(("insert", "join", "split", "space")))
        if action in ("join", "space"):
            start, end = draw(st.sampled_from(
                [m.span() for m in re.finditer(rb"\s+", data.rstrip())]))
            data = data[:start] + draw(st.sampled_from(
                JOINERS if action == "join" else SPACES)) + data[end:]
            continue
        if action == "insert":
            k, piece = draw(st.integers(0, len(data))), draw(
                st.sampled_from(INSERTS))
        else:
            k, piece = draw(st.sampled_from(
                [m.start() + 1 for m in re.finditer(rb"\S(?=\S)", data)])), b" "
        data = data[:k] + piece + data[k:]
    return data


def spelled_mesh(data):
    """(vertices, cells) that the ASCII-whitespace tokens of data spell in
    the mesh grammar, or None: 'mesh', three integers, then the
    coordinates as ASCII decimals and the cell vertex ids as ASCII
    digits, as many as the header asks for."""
    tokens = data.split()
    if (len(tokens) < 4 or tokens[0] != b"mesh" or not all(
            re.fullmatch(rb"[+-]?\d+", t) for t in tokens[1:4])):
        return None
    d, nv, nc = map(int, tokens[1:4])
    if min(d, nv, nc) < 0 or len(tokens) != 4 + nv * d + nc * (d + 1):
        return None
    coords, ids = tokens[4:4 + nv * d], tokens[4 + nv * d:]
    if not (all(FLOAT_TOKEN.fullmatch(t) for t in coords)
            and all(re.fullmatch(rb"\d+", t) for t in ids)):
        return None
    return (np.array([float(t) for t in coords]).reshape(nv, d),
            np.array([int(t) for t in ids], dtype=int).reshape(nc, d + 1))


def read_outcome(read):
    """The vertex and cell bytes of the mesh read returns, or the type of
    the FormcError it raises; any other exception propagates."""
    try:
        mesh = read()
    except FormcError as err:
        return type(err)
    return mesh.vertices.tobytes(), mesh.cells.tobytes()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=edited_mesh_files())
def test_load_mesh_reads_what_the_ascii_tokens_spell(tmp_path, data):
    # the mesh the tokens spell, or a FormcError; never a mesh from a
    # wrong token count or a token outside the grammar
    path = tmp_path / "mesh.txt"
    path.write_bytes(data)
    got = read_outcome(lambda: load_mesh(path))
    want = spelled_mesh(data)
    if want is None:
        assert isinstance(got, type) and issubclass(got, FormcError)
    else:
        assert got == read_outcome(lambda: Mesh(*want))


def test_perturb_mesh_keeps_boundary_and_validity():
    base = unit_square_mesh(4)
    moved = perturb_mesh(base, amount=0.2, seed=3)
    boundary = sorted(base.boundary_vertices())
    assert np.array_equal(moved.vertices[boundary], base.vertices[boundary])
    interior = sorted(set(range(base.num_vertices)) - set(boundary))
    assert not np.allclose(moved.vertices[interior], base.vertices[interior])
    dets, _, _, _ = affine_maps(moved)
    assert (dets > 0).all()
    # deterministic for a fixed seed
    again = perturb_mesh(base, amount=0.2, seed=3)
    assert np.array_equal(again.vertices, moved.vertices)


# --- affine maps -----------------------------------------------------------------


def test_affine_map_reference_identity():
    amap = affine_map(REFERENCE_TRIANGLE, 0)
    assert np.allclose(amap.B, np.eye(2)) and np.allclose(amap.g, np.eye(2))
    assert amap.det == pytest.approx(1.0)
    assert np.allclose(amap.x0, [0.0, 0.0])


def test_affine_map_scaled_cell():
    mesh = Mesh([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0]], [[0, 1, 2]])
    amap = affine_map(mesh, 0)
    assert amap.det == pytest.approx(4.0)
    assert np.allclose(amap.g, np.eye(2) / 2)
    assert np.allclose(amap.map_points([[0.5, 0.5]]), [[2.0, 2.0]])


def test_affine_maps_batch_matches_loop():
    mesh = perturb_mesh(unit_square_mesh(3), seed=1)
    dets, gs, Bs, x0s = affine_maps(mesh)
    for c in range(mesh.num_cells):
        amap = affine_map(mesh, c)
        assert dets[c] == pytest.approx(amap.det, rel=1e-14)
        assert np.allclose(gs[c], amap.g, atol=1e-14)
        assert np.allclose(Bs[c], amap.B, atol=1e-14)
        assert np.allclose(x0s[c], amap.x0, atol=1e-14)
        assert np.allclose(amap.B @ amap.g, np.eye(2), atol=1e-13)


@st.composite
def cell_sets(draw):
    """Meshes of up to four cells that share no vertices, each with edges
    B = I + U/(4d), |U_ij| <= 1, so cond(B) < 2, scaled and shifted, and
    listed in a drawn vertex order, so that some cells arrive flipped."""
    d = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)
    vertices, cells = [], []
    for c in range(draw(st.integers(0, 4))):
        edges = np.eye(d) + np.array(draw(st.lists(
            unit, min_size=d * d, max_size=d * d))).reshape(d, d) / (4 * d)
        scale = draw(st.sampled_from((1e-3, 1.0, 1e3)))
        shift = np.array(draw(st.lists(unit, min_size=d, max_size=d)))
        vertices += list(shift + scale * np.vstack([np.zeros(d), edges]))
        cells.append(c * (d + 1) + np.array(draw(st.permutations(
            range(d + 1)))))
    return (np.reshape(vertices, (-1, d)),
            np.reshape(cells, (-1, d + 1)).astype(int))


@settings(max_examples=100, deadline=None)
@given(cell_sets())
def test_cached_geometry_matches_lapack(vertices_cells):
    """The closed-form dets and gs against LAPACK on the reoriented cells."""
    vertices, cells = vertices_cells
    mesh = Mesh(vertices, cells)
    d = mesh.dim
    Bs = np.swapaxes(vertices[mesh.cells[:, 1:]] - vertices[mesh.cells[:, :1]],
                     1, 2)
    dets, gs = np.linalg.det(Bs), np.linalg.inv(Bs)
    assert (mesh.dets > 0).all()
    assert np.all(np.abs(mesh.dets - dets) <= 1e-13 * np.abs(dets))
    size = np.abs(gs).max(axis=(1, 2), initial=0.0)[:, None, None]
    assert np.all(np.abs(mesh.gs - gs) <= 1e-13 * size)
    assert np.allclose(Bs @ mesh.gs, np.eye(d), rtol=0.0, atol=1e-13)
    # flipped cells have their last two vertices swapped, and only those
    given_dets = np.linalg.det(np.swapaxes(
        vertices[cells[:, 1:]] - vertices[cells[:, :1]], 1, 2))
    flipped = cells.copy()
    flipped[given_dets < 0, -2:] = flipped[given_dets < 0][:, [-1, -2]]
    assert np.array_equal(mesh.cells, flipped)


def test_mesh_arrays_are_read_only():
    mesh = unit_cube_mesh(1)
    for array in (mesh.vertices, mesh.cells, mesh.dets, mesh.gs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    dets, gs, Bs, x0s = affine_maps(mesh)
    assert dets is mesh.dets and gs is mesh.gs
    Bs[0] = 0.0  # built on demand
    x0s[0] = 9.0
    assert affine_maps(mesh)[2][0].any() and (mesh.vertices != 9.0).all()


def test_assemble_reuses_the_mesh_geometry(monkeypatch):
    a = compile_form(form_of("poisson"))
    L = compile_form(form_of("load"))
    counts = {"det_adj": 0}
    closed_form = formc.runtime._det_adj

    def counted(Bs):
        counts["det_adj"] += 1
        return closed_form(Bs)

    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(formc.runtime, "_det_adj", counted)
    monkeypatch.setattr(np.linalg, "det", lapack)
    monkeypatch.setattr(np.linalg, "inv", lapack)
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                [[0, 1, 2], [0, 3, 2]])  # the second cell is flipped
    assert counts["det_adj"] == 2  # all cells, then the flipped one
    dofmap = build_dofmap(mesh, a.arguments[0])
    A = assemble(a, mesh, [dofmap, dofmap])
    b = assemble(L, mesh, [dofmap], [(np.ones(4), dofmap)])
    assert counts["det_adj"] == 2
    assert A.sum() == pytest.approx(0.0, abs=1e-14)
    assert b.sum() == pytest.approx(1.0)


# --- dof maps --------------------------------------------------------------------


def test_p1_dofmap_is_vertex_numbering():
    mesh = unit_square_mesh(2)
    dmap = build_dofmap(mesh, make_lagrange("triangle", 1))
    assert dmap.global_dim == mesh.num_vertices
    assert np.array_equal(dmap.cell_dofs, mesh.cells)


def test_p2_dofmap_shares_edge_dofs():
    dmap = build_dofmap(TWO_TRIANGLES, make_lagrange("triangle", 2))
    # 4 vertices + 5 distinct edges
    assert dmap.global_dim == 9
    assert dmap.cell_dofs.shape == (2, 6)
    shared = set(dmap.cell_dofs[0]) & set(dmap.cell_dofs[1])
    assert len(shared) == 3  # two shared vertices plus the diagonal edge dof
    assert set(np.concatenate(dmap.cell_dofs)) == set(range(9))


def test_p3_dofmap_counts():
    mesh = unit_square_mesh(2)
    dmap = build_dofmap(mesh, make_lagrange("triangle", 3))
    verts, edges, cells = 9, 16, 8
    assert dmap.global_dim == verts + 2 * edges + cells


def test_discontinuous_dofs_are_cell_private():
    mesh = unit_square_mesh(2)
    for q in (0, 1):
        e = make_lagrange("triangle", q, "discontinuous")
        dmap = build_dofmap(mesh, e)
        assert dmap.global_dim == mesh.num_cells * e.space_dim
        flat = dmap.cell_dofs.ravel()
        assert len(set(flat)) == len(flat)


def test_vector_dofmap_is_component_major():
    mesh = unit_square_mesh(2)
    scalar = build_dofmap(mesh, make_lagrange("triangle", 1))
    vector = build_dofmap(mesh, make_vector_lagrange("triangle", 1))
    assert vector.global_dim == 2 * scalar.global_dim
    n = scalar.global_dim
    assert np.array_equal(vector.cell_dofs[:, :3], scalar.cell_dofs)
    assert np.array_equal(vector.cell_dofs[:, 3:], scalar.cell_dofs + n)


def test_dofmap_requires_matching_cell():
    with pytest.raises(DimensionMismatch):
        build_dofmap(unit_square_mesh(1), make_lagrange("tetrahedron", 1))


def test_shared_edge_basis_is_single_valued():
    # cubic dofs on a shared edge must refer to the same physical points
    mesh = perturb_mesh(unit_square_mesh(2), seed=5)
    element = make_lagrange("triangle", 3)
    dmap = build_dofmap(mesh, element)
    rng = np.random.default_rng(0)
    vec = rng.uniform(-1, 1, dmap.global_dim)

    counts = mesh.facets()
    shared = [f for f, c in counts.items() if c == 2]
    facet = shared[0]
    owners = [
        c for c in range(mesh.num_cells)
        if set(facet) <= set(mesh.cells[c])
    ]
    a, b = owners[:2]
    p0, p1 = mesh.vertices[list(facet)]
    # five points strictly inside the shared edge
    phys = p0 + np.linspace(0.1, 0.9, 5)[:, None] * (p1 - p0)

    def evaluate_on(cell):
        amap = affine_map(mesh, cell)
        ref = (phys - amap.x0) @ amap.g.T
        vals = element.tabulate(np.clip(ref, 0.0, 1.0)).values
        return vec[dmap.cell_dofs[cell]] @ vals

    assert np.allclose(evaluate_on(a), evaluate_on(b), atol=1e-10)


# --- quadrature element tensors -----------------------------------------------


def test_quadrature_mass_reference_triangle():
    block = quadrature_element_tensor(
        form_of("mass"), affine_map(REFERENCE_TRIANGLE, 0)
    )
    expected = (np.ones((3, 3)) + np.eye(3)) / 24.0
    assert np.allclose(block, expected, atol=1e-14)


def test_quadrature_mass_scales_with_area():
    mesh = Mesh([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], [[0, 1, 2]])
    block = quadrature_element_tensor(form_of("mass"), affine_map(mesh, 0))
    expected = 4.0 * (np.ones((3, 3)) + np.eye(3)) / 24.0
    assert np.allclose(block, expected, atol=1e-13)


def test_quadrature_poisson_reference_triangle():
    block = quadrature_element_tensor(
        form_of("poisson"), affine_map(REFERENCE_TRIANGLE, 0)
    )
    expected = np.array(
        [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]]
    )
    assert np.allclose(block, expected, atol=1e-14)


def test_quadrature_coefficient_handling(rng):
    form = form_of("load", degree=2)
    amap = affine_map(REFERENCE_TRIANGLE, 0)
    w = rng.uniform(-1, 1, 6)
    vec = quadrature_element_tensor(form, amap, [w])
    assert vec.shape == (6,)
    # linear in the coefficient data
    twice = quadrature_element_tensor(form, amap, [2 * w])
    assert np.allclose(twice, 2 * vec, atol=1e-14)
    with pytest.raises(DimensionMismatch):
        quadrature_element_tensor(form, amap, [w[:5]])


def test_quadrature_batch_matches_single_cells(rng):
    form = form_of("navierstokes", "tetrahedron", 2)
    maps = [random_affine_map(rng, 3) for _ in range(5)]
    w = rng.uniform(-1, 1, (5, form.coefficients[0].space_dim))
    batch = quadrature_element_tensors(
        form, [m.det for m in maps], [m.g for m in maps], [w])
    for k, amap in enumerate(maps):
        one = quadrature_element_tensor(form, amap, [w[k]])
        assert np.allclose(batch[k], one, rtol=0, atol=1e-13)
    with pytest.raises(DimensionMismatch, match="needs 1 coefficients"):
        quadrature_element_tensor(form, maps[0])
    with pytest.raises(TypeError, match="expected a Form"):
        quadrature_element_tensor(compile_form(form), maps[0], [w[0]])
    with pytest.raises(TypeError, match="expected a Form"):
        quadrature_element_tensors(compile_form(form), [maps[0].det],
                                   [maps[0].g], [w[:1]])


def test_quadrature_rejects_a_vector_factor_without_component():
    form = parse_one('e = VectorElement("Lagrange", "triangle", 1)\n'
                     "v = BasisFunction(e)\nu = BasisFunction(e)\n"
                     "a = v*u*dx\n")
    with pytest.raises(DimensionMismatch, match="without a component"):
        compile_form(form)
    with pytest.raises(DimensionMismatch, match="without a component"):
        quadrature_element_tensor(form, affine_map(REFERENCE_TRIANGLE, 0))


ORACLE_CASES = {
    "navierstokes": lambda: form_of("navierstokes", "tetrahedron", 1),
    # a vector form with free indices on an interval
    "interval": lambda: form_of("navierstokes", "interval", 2),
    # one factor carries the label i twice
    "divergence": lambda: parse_one(
        'e = VectorElement("Lagrange", "tetrahedron", 2)\n'
        'f = FiniteElement("Lagrange", "tetrahedron", 1)\n'
        "v = BasisFunction(f)\nw = Function(e)\ni = Index()\n"
        "a = w[i].dx(i)*v*dx\n"),
    # a fixed component and a fixed direction
    "fixed": lambda: parse_one(
        'e = VectorElement("Lagrange", "triangle", 2)\n'
        "v = BasisFunction(e)\nu = BasisFunction(e)\n"
        "a = v[0]*u[1].dx(0)*dx\n"),
}


@pytest.mark.parametrize("n", (0, 1, formc.runtime.CHUNK,
                               formc.runtime.CHUNK + 1))
@pytest.mark.parametrize("case", tuple(ORACLE_CASES))
def test_quadrature_oracle_batches_itself(n, case):
    rng = np.random.default_rng(n)
    form = ORACLE_CASES[case]()
    d = form.cell.dim
    maps = [random_affine_map(rng, d) for _ in range(n)]
    dets, gs = [m.det for m in maps], [m.g for m in maps]
    ws = [rng.uniform(-1, 1, (n, k)) for k in form.coefficient_dims]
    got = quadrature_element_tensors(form, dets, gs, ws)
    assert got.shape == (n,) + form.primary_dims
    want = compile_form(form).element_tensors(dets, gs, ws)
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * np.abs(
        want).max(initial=1.0)


@pytest.mark.parametrize("name", ("mass", "poisson", "navierstokes",
                                  "elasticity"))
def test_quadrature_oracle_needs_no_compiler(name, monkeypatch, rng):
    # the oracle is what the compiler is checked against, so it must run
    # with the compiler's entry points gone, under whatever name they are
    # imported
    import sys

    import formc.tensor_representation as tr

    forms = [f for shape in ("interval", "triangle", "tetrahedron")
             for f in shipped_forms(name, shape, 2)]
    cells = []
    for form in forms:
        maps = [random_affine_map(rng, form.cell.dim) for _ in range(3)]
        args = ([m.det for m in maps], [m.g for m in maps],
                [rng.uniform(-1, 1, (3, k)) for k in form.coefficient_dims])
        cells.append((args, compile_form(form).element_tensors(*args)))

    def gone(*args, **kwargs):
        raise AssertionError("the oracle called the compiler")

    for fn in (tr.compile_form, tr.classify_indices,
               tr.compute_reference_tensor, tr.contract_terms):
        for module in [m for k, m in sys.modules.items()
                       if k.split(".")[0] == "formc"]:
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, gone)
    for form, (args, want) in zip(forms, cells):
        got = quadrature_element_tensors(form, *args)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("compiled", (True, False))
def test_batch_evaluators_check_their_arrays(compiled, rng):
    form = form_of("navierstokes")  # P1 on a triangle: 6 coefficient dofs
    if compiled:
        evaluate = compile_form(form).element_tensors
    else:
        def evaluate(dets, gs, coeffs):
            return quadrature_element_tensors(form, dets, gs, coeffs)
    amap = random_affine_map(rng, 2)
    dets, gs = [amap.det], [amap.g]
    w = rng.uniform(-1, 1, (1, 6))
    assert evaluate(dets, gs, [w]).shape == (1, 6, 6)
    with pytest.raises(DimensionMismatch, match="needs 1 coefficients, got 2"):
        evaluate(dets, gs, [w, w])
    for bad in ([np.hstack([w, w])], [w[0]], [np.vstack([w, w])]):
        with pytest.raises(DimensionMismatch, match="a batch needs"):
            evaluate(dets, gs, bad)
    for bad_dets, bad_gs in (([amap.det] * 2, gs), ([dets], gs),
                             (dets, [amap.g[:1]]), (dets, amap.g)):
        with pytest.raises(DimensionMismatch, match="a batch needs"):
            evaluate(bad_dets, bad_gs, [w])


# --- assembly ---------------------------------------------------------------------


def test_assemble_two_triangle_poisson():
    form = form_of("poisson")
    dmap = build_dofmap(TWO_TRIANGLES, make_lagrange("triangle", 1))
    mat = assemble(compile_form(form), TWO_TRIANGLES, [dmap, dmap]).toarray()
    # stiffness rows sum to zero (constants in the kernel)
    assert np.abs(mat.sum(axis=1)).max() < 1e-13
    # five-point-stencil values for the diagonally split unit square
    expected = np.array(
        [
            [1.0, -0.5, 0.0, -0.5],
            [-0.5, 1.0, -0.5, 0.0],
            [0.0, -0.5, 1.0, -0.5],
            [-0.5, 0.0, -0.5, 1.0],
        ]
    )
    assert np.allclose(mat, expected, atol=1e-13)


def test_assemble_mass_total_is_domain_area():
    mesh = perturb_mesh(unit_square_mesh(4), seed=2)
    dmap = build_dofmap(mesh, make_lagrange("triangle", 2))
    mat = assemble(compile_form(form_of("mass", degree=2)), mesh, [dmap, dmap])
    assert mat.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "kind,degree",
    (("mass", 2), ("poisson", 3), ("navierstokes", 1), ("elasticity", 2)),
)
def test_assemble_tensor_matches_quadrature(kind, degree, rng):
    mesh = perturb_mesh(unit_square_mesh(2), seed=4)
    shape = "triangle"
    form = form_of(kind, shape, degree)
    if form.arguments[0].value_rank:
        dmap = build_dofmap(mesh, make_vector_lagrange(shape, degree))
    else:
        dmap = build_dofmap(mesh, make_lagrange(shape, degree))
    coefficients = []
    for el in form.coefficients:
        cmap = build_dofmap(mesh, el)
        coefficients.append((rng.uniform(-1, 1, cmap.global_dim), cmap))

    tensor = assemble(compile_form(form), mesh, [dmap, dmap], coefficients)
    quad = assemble(form, mesh, [dmap, dmap], coefficients)
    diff = np.abs((tensor - quad).toarray()).max()
    scale = max(np.abs(quad.toarray()).max(), 1e-12)
    assert diff / scale < 1e-10


@pytest.mark.parametrize("mesh", (
    Mesh(TWO_TRIANGLES.vertices, np.empty((0, 3), dtype=int)),
    perturb_mesh(unit_square_mesh(12), seed=5),  # more than CHUNK cells
), ids=("no-cells", "chunks"))
def test_assemble_form_and_compiled_form_agree(mesh, rng):
    assert mesh.num_cells == 0 or mesh.num_cells > formc.runtime.CHUNK
    form = form_of("navierstokes")
    dmap = build_dofmap(mesh, form.arguments[0])
    coefficients = [(rng.uniform(-1, 1, dmap.global_dim), dmap)]
    quad = assemble(form, mesh, [dmap, dmap], coefficients).toarray()
    tensor = assemble(compile_form(form), mesh, [dmap, dmap],
                      coefficients).toarray()
    assert quad.shape == tensor.shape == (dmap.global_dim,) * 2
    assert np.abs(quad - tensor).max() <= 1e-12 * np.abs(tensor).max(
        initial=1.0)


def test_assemble_load_vector(rng):
    mesh = unit_square_mesh(2)
    element = make_lagrange("triangle", 1)
    dmap = build_dofmap(mesh, element)
    ones = np.ones(dmap.global_dim)
    form = form_of("load")
    vec = assemble(compile_form(form), mesh, [dmap], [(ones, dmap)])
    assert vec.shape == (dmap.global_dim,)
    # integrating the constant 1 against the hat functions tiles the area
    assert vec.sum() == pytest.approx(1.0, abs=1e-13)
    quad = assemble(form, mesh, [dmap], [(ones, dmap)])
    assert np.allclose(vec, quad, atol=1e-13)


def test_assemble_validates_inputs():
    form = form_of("poisson")
    mesh = unit_square_mesh(1)
    dmap = build_dofmap(mesh, make_lagrange("triangle", 1))
    with pytest.raises(DimensionMismatch):
        assemble(form, mesh, [dmap])  # arity 2 needs two dof maps
    with pytest.raises(DimensionMismatch):
        assemble(form, mesh, [dmap, dmap], [(np.zeros(4), dmap)])
    with pytest.raises(DimensionMismatch):
        assemble(form_of("load"), mesh, [dmap],
                 [(np.zeros(3), dmap)])  # wrong vector length
    for bad in (np.nan, np.inf):
        vec = np.zeros(dmap.global_dim)
        vec[1] = bad
        for path in (compile_form(form_of("load")), form_of("load")):
            with pytest.raises(NonFiniteValue, match="coefficient 0"):
                assemble(path, mesh, [dmap], [(vec, dmap)])
    other = build_dofmap(unit_square_mesh(2), make_lagrange("triangle", 1))
    with pytest.raises(DimensionMismatch, match="another mesh"):
        assemble(form, mesh, [dmap, other])
    with pytest.raises(TypeError):
        assemble("a = v*u*dx", mesh, [dmap, dmap])
    tet_form = form_of("poisson", "tetrahedron", 1)
    with pytest.raises(DimensionMismatch):
        assemble(tet_form, mesh, [dmap, dmap])


@pytest.mark.parametrize("compiled", (True, False))
def test_assemble_checks_dofmap_widths(compiled, rng):
    mesh = unit_square_mesh(2)
    form = form_of("load", degree=2)
    dmap = build_dofmap(mesh, make_lagrange("triangle", 2))
    path = compile_form(form) if compiled else form
    for degree in (1, 3):
        cmap = build_dofmap(mesh, make_lagrange("triangle", degree))
        vec = rng.uniform(-1, 1, cmap.global_dim)
        with pytest.raises(DimensionMismatch, match="coefficient 0 dof map"):
            assemble(path, mesh, [dmap], [(vec, cmap)])
    p1 = build_dofmap(mesh, make_lagrange("triangle", 1))
    with pytest.raises(DimensionMismatch, match="argument dof maps"):
        assemble(path, mesh, [p1], [(np.zeros(dmap.global_dim), dmap)])


@pytest.mark.parametrize("kind,degree", (("navierstokes", 2), ("poisson", 3)))
def test_assemble_reread_form_is_bitwise_equal(kind, degree, rng):
    mesh = perturb_mesh(unit_square_mesh(3), seed=2)
    form = form_of(kind, "triangle", degree)
    cf = compile_form(form)
    dmap = build_dofmap(mesh, form.arguments[0])
    coefficients = [(rng.uniform(-1, 1, dmap.global_dim), dmap)
                    for _ in form.coefficients]
    want = assemble(cf, mesh, [dmap, dmap], coefficients)
    got = assemble(read_raw(emit_raw(cf)), mesh, [dmap, dmap], coefficients)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


def test_assemble_sums_duplicate_triplets():
    # both cells scatter onto the same three dofs, so every entry of the
    # global tensor is the sum of the two element tensors' entries
    dmap = DofMap(make_lagrange("triangle", 1), 3,
                  np.array([[0, 1, 2], [0, 1, 2]]))
    w = np.array([1.0, -2.0, 0.5])
    for form, dofmaps, coefficients in (
            (form_of("mass"), [dmap, dmap], []),
            (form_of("load"), [dmap], [(w, dmap)])):
        cf = compile_form(form)
        blocks = cf.element_tensors(TWO_TRIANGLES.dets, TWO_TRIANGLES.gs,
                                    [w[dmap.cell_dofs]] * len(coefficients))
        out = assemble(cf, TWO_TRIANGLES, dofmaps, coefficients)
        dense = out.toarray() if scipy.sparse.issparse(out) else out
        assert np.array_equal(dense, blocks[0] + blocks[1])


def test_vector_with_no_triplets_is_float():
    mesh = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], np.empty((0, 3), int))
    dmap = build_dofmap(mesh, make_lagrange("triangle", 1))
    form = form_of("load")
    for path in (compile_form(form), form):
        vec = assemble(path, mesh, [dmap], [(np.ones(3), dmap)])
        assert vec.dtype == float and np.array_equal(vec, np.zeros(3))


def test_dofmap_checks_its_ids():
    dmap = build_dofmap(unit_square_mesh(1), make_lagrange("triangle", 1))
    assert not dmap.cell_dofs.flags.writeable
    ids = np.array(dmap.cell_dofs)
    for bad in (ids[0], ids.astype(float), [["0", "1", "2"]]):
        with pytest.raises(DimensionMismatch, match="2-D integer"):
            DofMap(dmap.element, dmap.global_dim, bad)
    kept = DofMap(dmap.element, dmap.global_dim, ids)
    assert not kept.cell_dofs.flags.writeable and ids.flags.writeable


@pytest.mark.parametrize("slot,bad_id", (
    ("coefficient", -1), ("argument", 9), ("coefficient", 9)))
def test_out_of_range_dof_ids_are_rejected(slot, bad_id, rng):
    # P1 Poisson on unit_square_mesh(2): dofs 0..8
    mesh = unit_square_mesh(2)
    dmap = build_dofmap(mesh, make_lagrange("triangle", 1))
    ids = np.array(dmap.cell_dofs)
    ids[3, 1] = bad_id
    f = rng.uniform(-1, 1, dmap.global_dim)
    with pytest.raises(DimensionMismatch, match="out of range"):
        bad = DofMap(dmap.element, dmap.global_dim, ids)
        if slot == "argument":
            assemble(compile_form(form_of("poisson")), mesh, [bad, bad])
        else:
            assemble(compile_form(form_of("load")), mesh, [dmap], [(f, bad)])


# --- solver and boundary conditions -----------------------------------------------


def test_cg_identity_converges_immediately():
    matrix = scipy.sparse.eye(5, format="csr")
    rhs = np.arange(5.0)
    x, iterations = cg_solve(matrix, rhs, return_iterations=True)
    assert np.allclose(x, rhs, atol=1e-12)
    assert iterations <= 1
    x, iterations = cg_solve(matrix, np.zeros(5), return_iterations=True)
    assert np.array_equal(x, np.zeros(5)) and iterations == 0


def test_cg_rejects_nonsymmetric():
    matrix = scipy.sparse.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(NotSymmetric, match=re.escape(
            "entry (1,0)=0.0 differs from (0,1)=1.0")):
        cg_solve(matrix, np.ones(2))


@pytest.mark.parametrize("matrix", (scipy.sparse.eye(3, format="csr"),
                                    np.eye(3)))
@pytest.mark.parametrize("rhs,message", (
    (np.ones(5), "matrix is 3 x 3, rhs needs 5 x 5"),
    (np.ones(2), "matrix is 3 x 3, rhs needs 2 x 2"),
    (np.ones((3, 1)), r"rhs must be one dimensional, got shape \(3, 1\)"),
    ([[np.nan], [1.0], [1.0]], "rhs must be one dimensional"),
))
def test_cg_checks_the_system_size_first(matrix, rhs, message):
    with pytest.raises(DimensionMismatch, match=message):
        cg_solve(matrix, rhs)


@pytest.mark.parametrize("dense", (
    [[0.0, 0.0], [0.0, 0.0]],  # p.Ap = 0
    [[1.0, 0.0], [0.0, -1.0]],  # p.Ap = 0 for rhs [1, 1]
    [[-2.0, 0.0], [0.0, -1.0]],  # p.Ap < 0
))
def test_cg_rejects_a_matrix_that_is_not_positive_definite(dense):
    with pytest.raises(NotPositiveDefinite):
        cg_solve(scipy.sparse.csr_matrix(np.array(dense)), np.ones(2))


def test_cg_max_iterations(rng):
    mesh = unit_square_mesh(4)
    dmap = build_dofmap(mesh, make_lagrange("triangle", 1))
    mat = assemble(compile_form(form_of("poisson")), mesh, [dmap, dmap])
    boundary = sorted(mesh.boundary_vertices())
    reduced, rhs, _ = apply_dirichlet(
        mat, rng.uniform(-1, 1, dmap.global_dim), boundary,
        np.zeros(len(boundary))
    )
    _, needed = cg_solve(reduced, rhs, return_iterations=True)
    assert needed > 1
    with pytest.raises(MaxIterations):
        cg_solve(reduced, rhs, max_iter=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("diagonal,rhs,where", (
    ([2.0, 2.0, 2.0], [1.0, np.nan, 1.0], "right-hand side"),
    ([2.0, 2.0, 2.0], [1.0, -np.inf, 1.0], "right-hand side"),
    # the symmetry spot check reads (1,1) of a 3 x 3 matrix, but not
    # (2,2) of a 6 x 6 one
    ([2.0, np.nan, 2.0], [1.0, 1.0, 1.0], r"entry \(1,1\) is nan"),
    ([2.0, np.inf, 2.0], [1.0, 1.0, 1.0], r"entry \(1,1\) is inf"),
    ([2.0, 2.0, np.nan, 2.0, 2.0, 2.0], [1.0] * 6, "iteration 1"),
    ([2.0, 2.0, np.inf, 2.0, 2.0, 2.0], [1.0] * 6, "iteration 1"),
))
def test_cg_rejects_non_finite_input(diagonal, rhs, where):
    # p.Ap <= 0 is False for NaN: without the check CG runs to its limit;
    # no warning comes first
    matrix = scipy.sparse.csr_matrix(np.diag(diagonal))
    with pytest.raises(NonFiniteValue, match=where):
        cg_solve(matrix, np.array(rhs))


def test_dirichlet_poisson_recovers_linear_solution():
    # u(x, y) = 1 + x + 2 y is harmonic, so it solves the homogeneous
    # problem exactly for any mesh once its boundary values are imposed
    mesh = perturb_mesh(unit_square_mesh(4), seed=6)
    dmap = build_dofmap(mesh, make_lagrange("triangle", 1))
    mat = assemble(compile_form(form_of("poisson")), mesh, [dmap, dmap])
    exact = 1.0 + mesh.vertices[:, 0] + 2.0 * mesh.vertices[:, 1]
    boundary = sorted(mesh.boundary_vertices())
    reduced, rhs, free = apply_dirichlet(
        mat, np.zeros(dmap.global_dim), boundary, exact[boundary]
    )
    x_free = cg_solve(reduced, rhs, tol=1e-12)
    solution = lift_solution(dmap.global_dim, free, x_free, boundary,
                             exact[boundary])
    assert np.abs(solution - exact).max() < 1e-9


def test_apply_dirichlet_shapes():
    matrix = scipy.sparse.csr_matrix(np.diag([1.0, 2.0, 3.0, 4.0]))
    rhs = np.ones(4)
    reduced, new_rhs, free = apply_dirichlet(matrix, rhs, [1, 3], [5.0, 6.0])
    assert reduced.shape == (2, 2) and list(free) == [0, 2]
    assert np.allclose(new_rhs, [1.0, 1.0])
    lifted = lift_solution(4, free, np.array([9.0, 8.0]), [1, 3], [5.0, 6.0])
    assert np.allclose(lifted, [9.0, 5.0, 8.0, 6.0])


@pytest.mark.parametrize("dofs,values", (
    ([2, 2], [1.0, 1.0]),  # a repeated id would lift its column twice
    ([-1], [1.0]),  # would wrap around to the last dof
    ([0.5], [1.0]),  # would be truncated to dof 0
    ([3], [1.0]),  # past the end
    ([[0], [2]], [[1.0], [1.0]]),
    ([0, 2], [1.0]),
    ([0], 1.0),
))
def test_apply_dirichlet_rejects_bad_dofs(dofs, values):
    matrix = scipy.sparse.csr_matrix(
        np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]]))
    with pytest.raises(DimensionMismatch):
        apply_dirichlet(matrix, np.zeros(3), dofs, values)
    # no prescribed dofs leave the system as it is
    reduced, rhs, free = apply_dirichlet(matrix, np.ones(3), [], [])
    assert (reduced != matrix).nnz == 0 and free.tolist() == [0, 1, 2]
    assert rhs.tolist() == [1.0, 1.0, 1.0]
    # the matrix must be n x n for n = rhs.size, sparse or dense
    for wrong in (scipy.sparse.eye(4, format="csr"), np.ones((3, 4))):
        with pytest.raises(DimensionMismatch, match="rhs needs 3 x 3"):
            apply_dirichlet(wrong, np.zeros(3), [0], [1.0])


@pytest.mark.parametrize("rhs,values", (
    ([0.0, 0.0, 0.0], [np.nan]),
    ([0.0, 0.0, 0.0], [np.inf]),
    ([0.0, np.nan, 0.0], [1.0]),
))
def test_apply_dirichlet_rejects_non_finite_values(rhs, values):
    matrix = scipy.sparse.csr_matrix(
        np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]]))
    with pytest.raises(NonFiniteValue):
        apply_dirichlet(matrix, np.array(rhs), [0], values)


def test_apply_dirichlet_requires_a_one_dimensional_rhs():
    # a (4, 1) rhs would broadcast to a (3, 3) "reduced rhs"
    matrix = scipy.sparse.csr_matrix(np.diag([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(DimensionMismatch, match=re.escape(
            "rhs must be one dimensional, got shape (4, 1)")):
        apply_dirichlet(matrix, np.ones((4, 1)), [1], [5.0])


@pytest.mark.parametrize("free,x_free,dofs,values", (
    ([0, 1], [1.0], [2, 3], [1.0, 1.0]),  # x_free would broadcast
    ([0, 1], [1.0, 2.0], [2, 3], [1.0]),  # the value would broadcast
    ([0, 1], [1.0, 2.0], [2, 3], 1.0),
    ([0.0, 1.0], [1.0, 2.0], [2, 3], [1.0, 1.0]),  # float ids
    ([0, 1], [1.0, 2.0], [2.5, 3], [1.0, 1.0]),  # would be truncated to 2
    ([0, 1], [1.0, 2.0], [2, 2], [1.0, 1.0]),  # 3 would stay 0
    ([0, 1], [1.0, 2.0], [1, 3], [1.0, 1.0]),  # 1 both free and prescribed
    ([0, 1], [1.0, 2.0], [2, -1], [1.0, 1.0]),  # would wrap around to 3
    ([0, 1], [1.0, 2.0], [2, 3, 4], [1.0, 1.0, 1.0]),  # past the end
    ([[0, 1]], [[1.0, 2.0]], [2, 3], [1.0, 1.0]),
))
def test_lift_solution_rejects_mis_sized_vectors(free, x_free, dofs, values):
    with pytest.raises(DimensionMismatch, match=re.escape(
            "hold each of [0, 4) once")):
        lift_solution(4, free, x_free, dofs, values)


def test_lift_solution_takes_any_partition_of_the_ids():
    assert lift_solution(4, [3, 0], [1.0, 2.0], [2, 1],
                         [3.0, 4.0]).tolist() == [2.0, 4.0, 3.0, 1.0]
    assert lift_solution(2, [0, 1], [1.0, 2.0], [], []).tolist() == [1.0, 2.0]
    assert lift_solution(2, [], [], [1, 0], [1.0, 2.0]).tolist() == [2.0, 1.0]


def test_apply_dirichlet_matches_two_selections(rng):
    # P2 diffusion plus advection along x: a nonsymmetric matrix whose
    # eliminated columns move to the right-hand side
    form = parse_one(
        'element = FiniteElement("Lagrange", "triangle", 2)\n'
        "v = BasisFunction(element)\nu = BasisFunction(element)\n"
        "i = Index()\na = v.dx(i)*u.dx(i)*dx + v*u.dx(0)*dx\n")
    mesh = perturb_mesh(unit_square_mesh(5), seed=3)
    dmap = build_dofmap(mesh, make_lagrange("triangle", 2))
    mat = assemble(compile_form(form), mesh, [dmap, dmap])
    assert abs(mat - mat.T).max() > 0.1
    rhs = rng.uniform(-1, 1, dmap.global_dim)
    dofs = np.flatnonzero(rng.uniform(size=dmap.global_dim) < 0.3)
    values = rng.uniform(-1, 1, dofs.size)
    reduced, new_rhs, free = apply_dirichlet(mat, rhs, dofs, values)
    want = mat.tocsr()[free][:, free]
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(reduced, name), getattr(want, name))
    assert np.array_equal(new_rhs,
                          rhs[free] - mat.tocsr()[free][:, dofs] @ values)


def test_write_matrix_market(tmp_path):
    mesh = unit_square_mesh(1)
    dmap = build_dofmap(mesh, make_lagrange("triangle", 1))
    mat = assemble(compile_form(form_of("mass")), mesh, [dmap, dmap])
    path = tmp_path / "mass.mtx"
    write_matrix_market(path, mat)
    first = path.read_text().splitlines()[0]
    assert first.startswith("%%MatrixMarket matrix coordinate real general")
    again = scipy.io.mmread(path)
    assert np.allclose(again.toarray(), mat.toarray(), atol=1e-15)


def test_l2_error_of_interpolants():
    mesh = unit_square_mesh(4)
    dmap = build_dofmap(mesh, make_lagrange("triangle", 1))
    linear = lambda x: 1.0 + 2.0 * x[:, 0] - x[:, 1]
    vec = linear(mesh.vertices)
    assert l2_error(mesh, dmap, vec, linear) < 1e-13
    # || 0 - 1 ||_{L2} over the unit square
    err = l2_error(mesh, dmap, np.zeros(dmap.global_dim), lambda x: np.ones(len(x)))
    assert err == pytest.approx(1.0, abs=1e-12)
    vector = build_dofmap(mesh, make_vector_lagrange("triangle", 1))
    with pytest.raises(DimensionMismatch):
        l2_error(mesh, vector, np.zeros(vector.global_dim), linear)
    # a short vector would index past its end, a long one be cut
    for n in (dmap.global_dim - 1, dmap.global_dim + 1):
        with pytest.raises(DimensionMismatch, match="vector has length %d, "
                           "dof map has 25" % n):
            l2_error(mesh, dmap, np.zeros(n), linear)


def test_second_derivatives_are_unsupported(rng):
    form = parse_one(
        'element = FiniteElement("Lagrange", "triangle", 2)\n'
        "v = BasisFunction(element)\n"
        "u = BasisFunction(element)\n"
        "i = Index()\n"
        "j = Index()\n"
        "a = v.dx(i).dx(j)*u.dx(i).dx(j)*dx\n"
    )
    with pytest.raises(UnsupportedDerivative):
        compile_form(form)
    amap = random_affine_map(rng, 2)
    with pytest.raises(UnsupportedDerivative):
        quadrature_element_tensors(form, [amap.det], [amap.g])
