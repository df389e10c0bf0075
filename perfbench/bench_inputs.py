"""Workload definitions and seeded input generation for the formc benchmark.

Everything the program under test receives is made here from the workload
seed: form file texts (re-degreed copies of the shipped forms), mesh files
written from a numpy lattice with a seeded interior perturbation, batches of
random affine cells with coefficient values, and a manufactured quadratic
solution with its Dirichlet data.
"""

import os
import re
from dataclasses import dataclass, field

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORMS_DIR = os.path.join(ROOT, "src", "formc", "forms")

# Per-entry batches are sized by entries, so every case does similar work.
TENSOR_ENTRIES = 400_000
QUAD_ENTRIES = 4_000
MAX_BATCH_CELLS = 50_000

# Interior vertices move by up to this share of the lattice spacing per
# coordinate; small enough that no cell of either lattice can invert.
PERTURBATION = {2: 0.15, 3: 0.1}


@dataclass(frozen=True)
class FormSpec:
    """One shipped form file at a given degree and cell shape."""

    file: str
    degree: int
    shape: str

    @property
    def label(self):
        return "%s-q%d" % (self.file, self.degree)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    forms: tuple                 # FormSpecs compiled, emitted and timed per entry
    pipeline: FormSpec           # Poisson form solved on the mesh
    mesh_n: int                  # lattice cells per side
    c_built: frozenset = field(default_factory=frozenset)  # FormSpec labels built with cc


_TET = "tetrahedron"
_ALL_FORMS = ("mass", "poisson", "navierstokes", "elasticity")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="poisson2d-p1",
            why="P1 Poisson solve on a perturbed 256^2 square: bound by the "
                "runtime's per-cell Python loops (mesh, scatter, CG); kernel "
                "and compiler are under 1% of the run",
            forms=(FormSpec("poisson", 1, "triangle"),),
            pipeline=FormSpec("poisson", 1, "triangle"),
            mesh_n=256,
            c_built=frozenset({"poisson-q1"}),
        ),
        Workload(
            name="poisson3d-p3",
            why="P3 Poisson solve on a perturbed 12^3 cube: the dof map walks "
                "edges and faces, and element blocks are few and large (20x20)",
            forms=(FormSpec("poisson", 3, _TET),),
            pipeline=FormSpec("poisson", 3, _TET),
            mesh_n=12,
            c_built=frozenset({"poisson-q3"}),
        ),
        Workload(
            name="forms3d-kernel",
            why="mass, Poisson, Navier-Stokes and elasticity on tetrahedra at "
                "q=1..3, timed per entry on random cells: bound by the compiler "
                "and the kernel; coefficients favour quadrature",
            forms=tuple(FormSpec(f, q, _TET) for q in (1, 2, 3) for f in _ALL_FORMS),
            pipeline=FormSpec("poisson", 1, _TET),
            mesh_n=8,
            # cc -O2 takes seconds to minutes on P2/P3 Navier-Stokes and
            # elasticity, so the C-built set is fixed to the cheap cases.
            c_built=frozenset({"mass-q1", "poisson-q1", "navierstokes-q1",
                               "elasticity-q1", "mass-q2", "poisson-q2",
                               "mass-q3", "poisson-q3"}),
        ),
    )
}

_ELEMENT_RE = re.compile(
    r'((?:Finite|Vector)Element\s*\(\s*"[^"]*"\s*,\s*")[a-z]+("\s*,\s*)\d+(\s*\))')


def form_text(spec):
    """The shipped form file with every element set to spec's shape and degree."""
    with open(os.path.join(FORMS_DIR, spec.file + ".form")) as fh:
        text = fh.read()
    return _ELEMENT_RE.sub(
        lambda m: "%s%s%s%d%s" % (m.group(1), spec.shape, m.group(2),
                                  spec.degree, m.group(3)),
        text)


# --- meshes -------------------------------------------------------------------


def lattice_mesh(dim, n, rng):
    """Vertices and cells of the n^dim lattice split into simplices, with
    every interior vertex moved by a seeded random offset.

    Returns (vertices, cells, boundary_vertex_mask).
    """
    xs = np.linspace(0.0, 1.0, n + 1)
    grids = np.meshgrid(*([xs] * dim), indexing="ij")
    vertices = np.stack([g.ravel() for g in grids], axis=1)
    ijk = np.stack(np.meshgrid(*([np.arange(n + 1)] * dim), indexing="ij"),
                   axis=-1).reshape(-1, dim)
    boundary = ((ijk == 0) | (ijk == n)).any(axis=1)

    strides = (n + 1) ** np.arange(dim - 1, -1, -1)
    corners = np.stack(np.meshgrid(*([np.arange(n)] * dim), indexing="ij"),
                       axis=-1).reshape(-1, dim)
    if dim == 2:
        # two triangles per square, as in runtime.unit_square_mesh
        paths = [((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1))]
    else:
        # six tetrahedra per cube along the corner-to-corner vertex paths
        paths = [((0, 0, 0), a, b, (1, 1, 1)) for a, b in (
            ((1, 0, 0), (1, 1, 0)), ((1, 0, 0), (1, 0, 1)),
            ((0, 1, 0), (1, 1, 0)), ((0, 1, 0), (0, 1, 1)),
            ((0, 0, 1), (1, 0, 1)), ((0, 0, 1), (0, 1, 1)))]
    cells = np.stack([
        np.stack([(corners + np.array(v)) @ strides for v in path], axis=1)
        for path in paths], axis=1).reshape(-1, dim + 1)

    # Positive orientation up front, so the runtime keeps the cells as written.
    before = _signed_volumes(vertices, cells)
    flip = before < 0
    cells[flip, -2:] = cells[flip, -1:-3:-1]
    before = np.abs(before)

    h = 1.0 / n
    offset = rng.uniform(-PERTURBATION[dim], PERTURBATION[dim],
                         size=vertices.shape) * h
    offset[boundary] = 0.0
    vertices = vertices + offset
    after = _signed_volumes(vertices, cells)
    if np.any(after < 0.25 * before):
        raise RuntimeError("perturbation degraded a cell; lower PERTURBATION")
    return vertices, cells, boundary


def _signed_volumes(vertices, cells):
    coords = vertices[cells]
    return np.linalg.det(coords[:, 1:] - coords[:, :1])


def write_mesh(path, vertices, cells):
    """The runtime's text format: header, one vertex per line, one cell per line."""
    with open(path, "w") as fh:
        fh.write("mesh %d %d %d\n" % (vertices.shape[1], len(vertices), len(cells)))
        np.savetxt(fh, vertices, fmt="%.17g")
        np.savetxt(fh, cells, fmt="%d")


# --- manufactured solution ----------------------------------------------------


@dataclass(frozen=True)
class Quadratic:
    """u(x) = c + b.x + x.M.x, so -laplace(u) = -2 trace(M) everywhere."""

    c: float
    b: np.ndarray
    M: np.ndarray

    @classmethod
    def draw(cls, dim, rng):
        off = rng.uniform(-0.25, 0.25, size=(dim, dim))
        M = np.diag(rng.uniform(0.5, 1.5, size=dim)) + (off + off.T) / 2
        return cls(float(rng.uniform(-1, 1)), rng.uniform(-1, 1, size=dim), M)

    def __call__(self, x):
        return self.c + x @ self.b + np.einsum("pi,ij,pj->p", x, self.M, x)

    @property
    def source(self):
        return -2.0 * float(np.trace(self.M))

    @property
    def second_derivative_bound(self):
        return 2.0 * float(np.abs(self.M).max())


# --- random cells for per-entry timing ------------------------------------------


def random_cells(rng, n, d):
    """Positively oriented well-conditioned affine maps: (dets, gs, Bs)."""
    B = rng.normal(size=(n, d, d))
    while True:
        dets = np.linalg.det(B)
        bad = np.abs(dets) < 0.3
        if not bad.any():
            break
        B[bad] = rng.normal(size=(int(bad.sum()), d, d))
    B[dets < 0, 0] *= -1.0
    return np.linalg.det(B), np.linalg.inv(B), B


def batch_sizes(block_size):
    """(cells timed on the tensor and C paths, cells timed on the oracle)."""
    n = int(min(MAX_BATCH_CELLS, max(8, -(-TENSOR_ENTRIES // block_size))))
    nq = int(min(n, max(2, -(-QUAD_ENTRIES // block_size))))
    return n, nq
