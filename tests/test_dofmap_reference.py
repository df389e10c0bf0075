"""Pins the dof numbering and assembled outputs to a per-cell reference.

The references below build lattice meshes, number dofs, scatter element
tensors, perturb meshes and sum L2 errors one cell or vertex at a time, the
way the runtime did before it moved to whole-mesh array code.  The array
code must reproduce them bit for bit: same vertices and cells in the same
order, same cell dofs, same global dimension, same CSR arrays, the same
load vectors and the same perturbed coordinates for a seed.  Only the L2
error sums in another order, so it is held to 1e-13 relative.
"""

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import parse_one
from formc.reference_elements import (
    make_lagrange,
    make_quadrature,
    make_vector_lagrange,
)
from formc.runtime import (
    Mesh,
    _sort_rows,
    _unique_rows,
    affine_map,
    affine_maps,
    assemble,
    build_dofmap,
    l2_error,
    perturb_mesh,
    unit_cube_mesh,
    unit_square_mesh,
)
from formc.tensor_representation import compile_form


def reference_unit_square_mesh(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    vid = lambda i, j: i * (n + 1) + j
    vertices = [(xs[i], xs[j]) for i in range(n + 1) for j in range(n + 1)]
    cells = []
    for i in range(n):
        for j in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            cells.append((a, b, c))
            cells.append((a, c, d))
    return Mesh(vertices, cells)


def reference_unit_cube_mesh(n):
    xs = np.linspace(0.0, 1.0, n + 1)
    m = n + 1
    vid = lambda i, j, k: (i * m + j) * m + k
    vertices = [(xs[i], xs[j], xs[k])
                for i in range(m) for j in range(m) for k in range(m)]
    cells = []
    paths = [
        ((1, 0, 0), (1, 1, 0)), ((1, 0, 0), (1, 0, 1)),
        ((0, 1, 0), (1, 1, 0)), ((0, 1, 0), (0, 1, 1)),
        ((0, 0, 1), (1, 0, 1)), ((0, 0, 1), (0, 1, 1)),
    ]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                v0 = vid(i, j, k)
                v7 = vid(i + 1, j + 1, k + 1)
                for (a, b) in paths:
                    va = vid(i + a[0], j + a[1], k + a[2])
                    vb = vid(i + b[0], j + b[1], k + b[2])
                    cells.append((v0, va, vb, v7))
    return Mesh(vertices, cells)


@pytest.mark.parametrize("n", (1, 2, 5))
@pytest.mark.parametrize("build,reference", (
    (unit_square_mesh, reference_unit_square_mesh),
    (unit_cube_mesh, reference_unit_cube_mesh),
))
def test_lattice_meshes_match_loop_reference(build, reference, n):
    got, want = build(n), reference(n)
    for name in ("vertices", "cells"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype
        assert np.array_equal(mine, theirs)
    assert np.array_equal(got.vertices.view(np.int64),
                          want.vertices.view(np.int64))


def reference_dofmap(mesh, element):
    """(global_dim, cell_dofs) by a per-cell walk over dof entities."""
    ns = element.scalar_dim
    ncells = mesh.num_cells
    # (dim, entity, bary) per scalar dof: the support of its lattice row
    # and the row on the support
    scalar_entities = []
    for beta in element.lattice.tolist():
        entity = tuple(v for v, b in enumerate(beta) if b > 0)
        scalar_entities.append((len(entity) - 1, entity,
                                tuple(beta[v] for v in entity)))
    if element.continuity == "discontinuous":
        scalar_global = ncells * ns
        scalar_dofs = (np.arange(ncells)[:, None] * ns +
                       np.arange(ns)[None, :])
    else:
        lattice_rank = {}
        per_entity = {}
        for dim, entity, bary in scalar_entities:
            lattices = sorted({
                b for dd, ee, b in scalar_entities
                if dd == dim and ee == entity
            })
            lattice_rank[dim] = {b: k for k, b in enumerate(lattices)}
            per_entity[dim] = len(lattices)

        entity_rank = {}
        for dim in sorted(per_entity):
            if dim == 0 or dim == mesh.dim:
                continue
            keys = set()
            for cell in mesh.cells:
                for dd, entity, _ in scalar_entities:
                    if dd == dim:
                        keys.add(tuple(sorted(cell[v] for v in entity)))
            entity_rank[dim] = {k: r for r, k in enumerate(sorted(keys))}

        base = {}
        offset = 0
        for dim in sorted(per_entity):
            base[dim] = offset
            if dim == 0:
                offset += mesh.num_vertices
            elif dim == mesh.dim:
                offset += ncells * per_entity[dim]
            else:
                offset += len(entity_rank[dim]) * per_entity[dim]
        scalar_global = offset

        scalar_dofs = np.empty((ncells, ns), dtype=int)
        for c, cell in enumerate(mesh.cells):
            for k, (dim, entity, bary) in enumerate(scalar_entities):
                gverts = tuple(cell[v] for v in entity)
                if dim == 0:
                    scalar_dofs[c, k] = gverts[0]
                elif dim == mesh.dim:
                    pos = lattice_rank[dim][bary]
                    scalar_dofs[c, k] = base[dim] + c * per_entity[dim] + pos
                else:
                    order = np.argsort(gverts)
                    key = tuple(gverts[p] for p in order)
                    canon = tuple(bary[p] for p in order)
                    pos = lattice_rank[dim][canon]
                    scalar_dofs[c, k] = (base[dim] +
                                         entity_rank[dim][key] *
                                         per_entity[dim] + pos)
    comps = element.components
    blocks = [scalar_dofs + comp * scalar_global for comp in range(comps)]
    return comps * scalar_global, np.hstack(blocks)


def reference_scatter(blocks, cell_dofs, shape):
    """Per-cell triplets summed by COO-to-CSR, or by np.add.at for vectors."""
    rows, cols, vals = [], [], []
    for c, block in enumerate(blocks):
        di = cell_dofs[0][c]
        if len(shape) == 1:
            rows.append(di)
        else:
            dj = cell_dofs[1][c]
            rows.append(np.repeat(di, len(dj)))
            cols.append(np.tile(dj, len(di)))
        vals.append(np.ravel(block))
    rows, vals = np.concatenate(rows), np.concatenate(vals)
    if len(shape) == 1:
        out = np.zeros(shape[0])
        np.add.at(out, rows, vals)
        return out
    return scipy.sparse.coo_matrix(
        (vals, (rows, np.concatenate(cols))), shape=shape).tocsr()


def reference_perturb(mesh, amount, seed):
    rng = np.random.default_rng(seed)
    shortest = np.full(mesh.num_vertices, np.inf)
    for cell in mesh.cells:
        coords = mesh.vertices[cell]
        for a in range(len(cell)):
            for b in range(a + 1, len(cell)):
                e = np.linalg.norm(coords[a] - coords[b])
                shortest[cell[a]] = min(shortest[cell[a]], e)
                shortest[cell[b]] = min(shortest[cell[b]], e)
    vertices = mesh.vertices.copy()
    boundary = mesh.boundary_vertices()
    for v in range(mesh.num_vertices):
        if v in boundary or not np.isfinite(shortest[v]):
            continue
        step = rng.uniform(-1.0, 1.0, size=mesh.dim)
        vertices[v] += amount * shortest[v] * step / max(
            np.linalg.norm(step), 1e-30)
    return Mesh(vertices, mesh.cells)


def reference_boundary_vertices(mesh):
    counts = {}
    for cell in mesh.cells.tolist():
        for k in range(len(cell)):
            facet = tuple(sorted(cell[:k] + cell[k + 1:]))
            counts[facet] = counts.get(facet, 0) + 1
    return {v for facet, count in counts.items() if count == 1 for v in facet}


MESHES = {
    "square": lambda: unit_square_mesh(3),
    "square-perturbed": lambda: perturb_mesh(unit_square_mesh(4), seed=11),
    "cube": lambda: unit_cube_mesh(2),
    "cube-perturbed": lambda: perturb_mesh(unit_cube_mesh(3), seed=12),
}
ELEMENTS = (
    [("scalar", q, "continuous") for q in (1, 2, 3)] +
    [("vector", q, "continuous") for q in (1, 2, 3)] +
    [("scalar", q, "discontinuous") for q in (0, 1, 2)]
)


def make_element(shape, kind, degree, continuity):
    if kind == "vector":
        return make_vector_lagrange(shape, degree)
    return make_lagrange(shape, degree, continuity)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("kind,degree,continuity", ELEMENTS)
def test_dofmap_matches_per_cell_reference(mesh_name, kind, degree,
                                           continuity):
    mesh = MESHES[mesh_name]()
    element = make_element(mesh.cell_shape, kind, degree, continuity)
    dmap = build_dofmap(mesh, element)
    global_dim, cell_dofs = reference_dofmap(mesh, element)
    assert dmap.global_dim == global_dim
    assert dmap.cell_dofs.dtype == cell_dofs.dtype
    assert np.array_equal(dmap.cell_dofs, cell_dofs)


def forms_for(shape, kind, degree, continuity):
    family = ('VectorElement("Lagrange"' if kind == "vector" else
              'FiniteElement("%s"' % ("Discontinuous Lagrange"
                                      if continuity == "discontinuous"
                                      else "Lagrange"))
    if kind == "vector":
        a = "a = v[i]*u[i]*dx + v[i].dx(j)*u[i].dx(j)*dx + v[0]*u[i].dx(i)*dx"
        L = "L = v[i]*f[i]*dx"
    else:
        # the advection term makes element tensors unsymmetric, so a swap
        # of rows and columns in the scatter shows
        a = ("a = v*u*dx" if degree == 0 else
             "a = v*u*dx + v.dx(i)*u.dx(i)*dx + v*u.dx(0)*dx")
        L = "L = v*f*dx"
    text = ('element = %s, "%s", %d)\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "f = Function(element)\n"
            "i = Index()\n"
            "j = Index()\n"
            "%s\n" % (family, shape, degree, "%s"))
    return parse_one(text % a), parse_one(text % L)


@pytest.mark.parametrize("mesh_name", ("square-perturbed", "cube-perturbed"))
@pytest.mark.parametrize("kind,degree,continuity", ELEMENTS)
def test_assembly_matches_per_cell_reference(mesh_name, kind, degree,
                                             continuity):
    mesh = MESHES[mesh_name]()
    element = make_element(mesh.cell_shape, kind, degree, continuity)
    a, L = forms_for(mesh.cell_shape, kind, degree, continuity)
    dmap = build_dofmap(mesh, element)
    _, ref_dofs = reference_dofmap(mesh, element)
    rng = np.random.default_rng(degree)
    f = rng.uniform(-1, 1, dmap.global_dim)

    ca, cL = compile_form(a), compile_form(L)
    A = assemble(ca, mesh, [dmap, dmap])
    b = assemble(cL, mesh, [dmap], [(f, dmap)])

    dets, gs, _, _ = affine_maps(mesh)
    shape = (dmap.global_dim, dmap.global_dim)
    A_ref = reference_scatter(ca.element_tensors(dets, gs),
                              [ref_dofs] * 2, shape)
    b_ref = reference_scatter(
        cL.element_tensors(dets, gs, [f[ref_dofs]]), [ref_dofs], shape[:1])
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(A, name), getattr(A_ref, name)), name
    assert np.array_equal(b, b_ref)


@pytest.mark.parametrize("base", (unit_square_mesh(6), unit_cube_mesh(3)))
@pytest.mark.parametrize("seed", (0, 7))
def test_perturb_mesh_matches_per_vertex_reference(base, seed):
    # reorient half the cells first, so the reference sees flipped input too
    cells = base.cells.copy()
    cells[::2, :2] = cells[::2, 1::-1]
    mesh = Mesh(base.vertices, cells)
    moved = perturb_mesh(mesh, amount=0.3, seed=seed)
    ref = reference_perturb(mesh, 0.3, seed)
    assert np.array_equal(moved.vertices, ref.vertices)
    assert np.array_equal(moved.cells, ref.cells)


@pytest.mark.parametrize("base", (unit_square_mesh(6), unit_cube_mesh(3)))
@pytest.mark.parametrize("drop", (None, 3))
def test_boundary_vertices_match_per_facet_reference(base, drop):
    mesh = perturb_mesh(base, seed=5)
    if drop:
        # holes put inner vertices on the boundary too
        mesh = Mesh(mesh.vertices, mesh.cells[np.arange(mesh.num_cells) % drop
                                              != 0])
        assert len(reference_boundary_vertices(mesh)) > len(
            base.boundary_vertices())
    assert mesh.boundary_vertices() == reference_boundary_vertices(mesh)


@pytest.mark.parametrize("bound", (50, 2 ** 40))
def test_unique_rows_matches_numpy(bound):
    # 2**40 overflows a packed int64 key and takes the np.unique fallback
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 50, size=(400, 3)) * (bound // 50)
    uniq, inverse, counts = _unique_rows(rows, bound)
    want = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    assert np.array_equal(uniq, want[0])
    assert np.array_equal(inverse.ravel(), want[1].ravel())
    assert np.array_equal(counts, want[2])


@st.composite
def short_rows(draw):
    """Rows of 1 to 4 keys drawn from a few values, so that rows hold ties,
    and rows of distinct keys with a payload."""
    width, n = draw(st.integers(1, 4)), draw(st.integers(0, 30))
    row = lambda keys, **kw: st.lists(keys, min_size=width, max_size=width,
                                      **kw)
    rows = lambda keys, **kw: np.array(
        draw(st.lists(row(keys, **kw), min_size=n, max_size=n)),
        dtype=np.int64).reshape(n, width)
    return (rows(st.integers(-2, 2)), rows(st.integers(-50, 50), unique=True),
            rows(st.integers(0, 10 ** 6)))


@settings(max_examples=300, deadline=None)
@given(short_rows())
def test_sort_rows_matches_numpy(rows):
    ties, distinct, payload = rows
    got = _sort_rows(ties)
    assert got.dtype == ties.dtype
    assert np.array_equal(got, np.sort(ties, axis=1))
    keys, moved = _sort_rows(distinct, payload)
    assert np.array_equal(keys, np.sort(distinct, axis=1))
    assert np.array_equal(moved, np.take_along_axis(
        payload, np.argsort(distinct, axis=1), axis=1))


def reference_geometry(vertices, cells):
    """Reoriented cells, dets and gs, with each B taken from one gather of
    the cells' [ncells x d+1 x d] coordinate rows, and the determinant and
    adjugate in closed form."""

    def det_adj(Bs):
        if Bs.shape[-1] == 2:
            (a, b), (c, e) = Bs[:, 0].T, Bs[:, 1].T
            adj = np.stack([e, -b, -c, a], axis=1).reshape(-1, 2, 2)
            return a * e - b * c, adj
        cols = np.swapaxes(Bs, 1, 2)
        adj = np.cross(cols[:, [1, 2, 0]], cols[:, [2, 0, 1]])
        return np.vecdot(cols[:, 0], adj[:, 0]), adj

    def edges(cells):
        coords = vertices[cells]
        return np.swapaxes(coords[:, 1:] - coords[:, :1], 1, 2)

    dets, adj = det_adj(edges(cells))
    flip = dets < 0
    cells = cells.copy()
    cells[flip, -2:] = cells[flip][:, [-1, -2]]
    dets[flip], adj[flip] = det_adj(edges(cells[flip]))
    return cells, dets, adj / dets[:, None, None], edges(cells)


@pytest.mark.parametrize("base", (unit_square_mesh(8), unit_cube_mesh(3)),
                         ids=("square", "cube"))
def test_mesh_geometry_is_bitwise_the_row_gather(base):
    vertices = perturb_mesh(base, amount=0.3, seed=6).vertices
    cells = base.cells.copy()
    cells[::2] = cells[::2, ::-1]  # flips a triangle, not a tetrahedron
    cells[1::4, :2] = cells[1::4, 1::-1]  # flips either
    mesh = Mesh(vertices, cells)
    want_cells, dets, gs, Bs = reference_geometry(vertices, cells)
    assert (want_cells != cells).any()  # some cells were flipped
    assert mesh.cells.tobytes() == want_cells.tobytes()
    assert mesh.dets.tobytes() == dets.tobytes()
    assert mesh.gs.tobytes() == gs.tobytes()
    assert affine_maps(mesh)[2].tobytes() == Bs.tobytes()
    amap = affine_map(mesh, 5)
    assert amap.B.tobytes() == Bs[5].tobytes()
    assert amap.x0.tobytes() == vertices[want_cells[5, 0]].tobytes()


def reference_l2_error(mesh, dofmap, vec, exact):
    rule = make_quadrature(mesh.cell_shape, 6)
    tab = dofmap.element.tabulate(rule.points)
    total = 0.0
    for c in range(mesh.num_cells):
        amap = affine_map(mesh, c)
        uh = vec[dofmap.cell_dofs[c]] @ tab.values
        ux = exact(amap.map_points(rule.points))
        total += abs(amap.det) * float(rule.weights @ (uh - ux) ** 2)
    return np.sqrt(total)


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("degree", (1, 3))
def test_l2_error_matches_per_cell_reference(mesh_name, degree):
    # the batched sum runs in another order: equal to a few ulps of the total
    mesh = MESHES[mesh_name]()
    dmap = build_dofmap(mesh, make_lagrange(mesh.cell_shape, degree))
    vec = np.random.default_rng(degree).uniform(-1, 1, dmap.global_dim)
    exact = lambda x: np.sin(3.0 * x[:, 0]) + x[:, -1] ** 2
    got = l2_error(mesh, dmap, vec, exact)
    assert got == pytest.approx(reference_l2_error(mesh, dmap, vec, exact),
                                rel=1e-13)
