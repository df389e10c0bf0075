"""Set-up, timed jobs, correctness checks and counts of one workload.

Every timed job calls formc only through its public functions, looked up
on the module at call time so that a traced run sees the same calls.
"""

import os
import time
from dataclasses import dataclass, field
from math import prod

import numpy as np

from formc import cli_bench, codegen, form_language, runtime, tensor_representation

import bench_ckernel
import bench_inputs

CG_TOL = 1e-10
# Relative tolerances of the checks.
ORACLE_RTOL = 1e-10
C_RTOL = 1e-12
# P3 holds the quadratic solution exactly, so its nodal error is the solver's:
# relative residual 1e-10 times a condition number below 1e4.
P3_NODAL_RTOL = 1e-6
# P1 nodal error of a quadratic is O(h^2 |D^2 u|); the constant measured on
# the perturbed lattices (n = 32..256, three seeds) stays below 0.09.
P1_NODAL_CONSTANT = 0.5


@dataclass
class Case:
    """One compiled form with its batch of random cells."""

    label: str
    form: object
    cf: object
    dets: np.ndarray
    gs: np.ndarray
    coeffs: list
    quad_maps: list
    quad_coeffs: list
    kernel: object = None
    outputs: dict = field(default_factory=dict)

    @property
    def cells(self):
        return len(self.dets)

    @property
    def quad_cells(self):
        return len(self.quad_maps)


@dataclass
class Pipeline:
    """A mesh file and the data to solve the manufactured problem on it."""

    mesh_path: str
    a: object
    L: object
    dofs: int
    fvec: np.ndarray
    bdofs: np.ndarray
    bvals: np.ndarray
    exact: np.ndarray
    cell_dofs: np.ndarray
    h: float
    u: bench_inputs.Quadratic
    result: dict = field(default_factory=dict)


@dataclass
class Prepared:
    texts: list
    c_texts: list
    cases: list
    pipeline: Pipeline
    warmup: Pipeline
    c_build_s: float
    compiled_c: list = None


def _compile_text(text):
    forms = form_language.parse_form_file(text)
    return [(form, tensor_representation.compile_form(form)) for form in forms]


def _pipeline(workdir, name, spec, n, seed_seq):
    """Mesh file, compiled Poisson forms and manufactured Dirichlet data."""
    dim = 3 if spec.shape == "tetrahedron" else 2
    mesh_rng, u_rng = (np.random.default_rng(s) for s in seed_seq.spawn(2))
    vertices, cells, boundary = bench_inputs.lattice_mesh(dim, n, mesh_rng)
    path = os.path.join(workdir, name + ".mesh")
    bench_inputs.write_mesh(path, vertices, cells)

    compiled = dict((cf.name, cf) for _, cf in
                    _compile_text(bench_inputs.form_text(spec)))
    a, L = compiled["a"], compiled["L"]
    if spec.degree == 1:
        # P1 dofs are numbered by vertex id
        coords, cell_dofs, on_boundary = vertices, cells, boundary
    else:
        mesh = runtime.Mesh(vertices, cells)
        dofmap = runtime.build_dofmap(mesh, a.arguments[0])
        _, _, Bs, x0s = runtime.affine_maps(mesh)
        nodes = np.asarray(a.arguments[0].nodes)
        coords = np.empty((dofmap.global_dim, dim))
        coords[dofmap.cell_dofs] = x0s[:, None, :] + np.einsum(
            "cij,kj->cki", Bs, nodes)
        cell_dofs = dofmap.cell_dofs
        on_boundary = ((np.abs(coords) < 1e-9) |
                       (np.abs(coords - 1.0) < 1e-9)).any(axis=1)
    u = bench_inputs.Quadratic.draw(dim, u_rng)
    exact = u(coords)
    bdofs = np.nonzero(on_boundary)[0]
    return Pipeline(
        mesh_path=path, a=a, L=L, dofs=len(coords),
        fvec=np.full(len(coords), u.source), bdofs=bdofs, bvals=exact[bdofs],
        exact=exact, cell_dofs=np.asarray(cell_dofs), h=1.0 / n, u=u)


def prepare(workload, seed, workdir, cc_available):
    """One set-up round: inputs, compiled forms, C builds and warm-up."""
    os.makedirs(workdir, exist_ok=True)
    seq = np.random.SeedSequence([seed, sum(map(ord, workload.name))])
    cells_seq, pipe_seq, warm_seq = seq.spawn(3)
    rng = np.random.default_rng(cells_seq)

    texts = [bench_inputs.form_text(spec) for spec in workload.forms]
    cases, c_texts, c_build_s = [], [], 0.0
    for spec, text in zip(workload.forms, texts):
        for form, cf in _compile_text(text):
            d = form.cell.dim
            n, nq = bench_inputs.batch_sizes(cf.block_size)
            dets, gs, Bs = bench_inputs.random_cells(rng, n, d)
            coeffs = [rng.uniform(-1.0, 1.0, size=(n, el.space_dim))
                      for el in form.coefficients]
            case = Case(
                label="%s-%s" % (spec.label, form.name), form=form,
                cf=cf, dets=dets, gs=gs, coeffs=coeffs,
                quad_maps=[runtime.AffineMap(Bs[i], gs[i], dets[i], np.zeros(d))
                           for i in range(nq)],
                quad_coeffs=[[c[i] for c in coeffs] for i in range(nq)])
            c_text = codegen.emit_c(cf)
            c_texts.append(c_text)
            if cc_available and spec.label in workload.c_built:
                stem = os.path.join(workdir, case.label)
                c_build_s += bench_ckernel.build(
                    bench_ckernel.batch_source(c_text, d, bool(coeffs)),
                    stem + ".c", stem + ".so")
                case.kernel = bench_ckernel.BatchKernel(
                    stem + ".so", dets, gs, coeffs, cf.block_size)
            cases.append(case)

    pipeline = _pipeline(workdir, workload.name, workload.pipeline,
                         workload.mesh_n, pipe_seq)
    warmup = _pipeline(workdir, "warmup", workload.pipeline, 2, warm_seq)
    prep = Prepared(texts, c_texts, cases, pipeline, warmup, c_build_s)
    warm_up(prep)
    return prep


def warm_up(prep):
    """Run every path once on small inputs so lazy set-up is not timed."""
    run_pipeline(prep.warmup)
    for case in prep.cases:
        case.cf.element_tensors(case.dets[:2], case.gs[:2],
                                [c[:2] for c in case.coeffs])
        if case.kernel is not None:
            case.kernel()
        runtime.quadrature_element_tensor(case.form, case.quad_maps[0],
                                          case.quad_coeffs[0])


# --- timed jobs -----------------------------------------------------------------


def compile_job(prep):
    """Form file text to compiled forms plus emitted C, as `formc compile`."""
    out = []
    for text in prep.texts:
        for form in form_language.parse_form_file(text):
            out.append(codegen.emit_c(tensor_representation.compile_form(form)))
    return out


def run_pipeline(p):
    """Mesh file to matrix and load vector, then to the solution vector.

    Returns (assemble seconds, solution seconds) and keeps the outputs.
    """
    clock = time.perf_counter
    t0 = clock()
    mesh = runtime.load_mesh(p.mesh_path)
    dofmap = runtime.build_dofmap(mesh, p.a.arguments[0])
    A = runtime.assemble(p.a, mesh, [dofmap, dofmap])
    b = runtime.assemble(p.L, mesh, [dofmap], [(p.fvec, dofmap)])
    t1 = clock()
    Ar, br, free = runtime.apply_dirichlet(A, b, p.bdofs, p.bvals)
    x_free, iterations = runtime.cg_solve(Ar, br, tol=CG_TOL,
                                          return_iterations=True)
    x = runtime.lift_solution(b.size, free, x_free, p.bdofs, p.bvals)
    t2 = clock()
    p.result = dict(mesh=mesh, dofmap=dofmap, A=A, b=b, x=x,
                    iterations=iterations)
    return t1 - t0, t2 - t0


def tensor_job(case):
    case.outputs["tensor"] = case.cf.element_tensors(case.dets, case.gs,
                                                     case.coeffs)


def c_job(case):
    case.outputs["c"] = case.kernel()


def quad_job(case):
    case.outputs["quad"] = [
        runtime.quadrature_element_tensor(case.form, amap, coeffs)
        for amap, coeffs in zip(case.quad_maps, case.quad_coeffs)]


# --- correctness ------------------------------------------------------------------


def _rel(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def checks(prep):
    """[(name, passed, detail)] for the outputs of the last timed pass."""
    out = []
    for case in prep.cases:
        tensor = case.outputs["tensor"]
        quad = np.asarray(case.outputs["quad"])
        err = _rel(tensor[:case.quad_cells], quad)
        out.append(("oracle:" + case.label, err <= ORACLE_RTOL,
                    "rel %.2e vs quadrature_element_tensor" % err))
        if case.kernel is not None:
            err = _rel(case.outputs["c"].reshape(tensor.shape), tensor)
            out.append(("c:" + case.label, err <= C_RTOL,
                        "rel %.2e vs numpy path" % err))
        raw = codegen.read_raw(codegen.emit_raw(case.cf))
        k = case.quad_cells
        same = np.array_equal(
            raw.element_tensors(case.dets[:k], case.gs[:k],
                                [c[:k] for c in case.coeffs]),
            tensor[:k])
        out.append(("raw:" + case.label, same, "read_raw(emit_raw) bitwise"))
    out.append(("compile", prep.compiled_c == prep.c_texts,
                "timed compile reproduces the set-up C text"))

    p = prep.pipeline
    res = p.result
    out.append(("dofmap", res["dofmap"].global_dim == p.dofs and np.array_equal(
        res["dofmap"].cell_dofs, p.cell_dofs), "dof numbering of the mesh file"))
    err = float(np.abs(res["x"] - p.exact).max())
    if p.a.arguments[0].degree == 1:
        bound = P1_NODAL_CONSTANT * p.h ** 2 * p.u.second_derivative_bound
        out.append(("solution", err <= bound,
                    "P1 nodal error %.2e <= %.2e (C h^2 |D2u|)" % (err, bound)))
    else:
        bound = P3_NODAL_RTOL * max(1.0, float(np.abs(p.exact).max()))
        out.append(("solution", err <= bound,
                    "nodal error %.2e <= %.2e (solver tolerance)" % (err, bound)))
    return out


# --- counts -----------------------------------------------------------------------


def _complexity(form):
    monomials = form_language.expand_to_monomials(form)
    n_D = max(sum(len(f.derivatives) for f in m.factors) for m in monomials)
    return cli_bench.ComplexityParams(
        q=max(el.degree for el in form.arguments), d=form.cell.dim,
        n_f=len(form.coefficients), n_D=n_D, r=form.arity,
        vector=any(el.value_rank == 1 for el in form.arguments))


def c_flops(c_text):
    """Arithmetic operations in the statements of emitted C."""
    total = 0
    for line in c_text.splitlines():
        line = line.strip()
        if line.endswith(";") and (line.startswith("const double")
                                   or line.startswith("block[")):
            rhs = line.split("=", 1)[1]
            total += rhs.count("*") + rhs.count(" + ") + rhs.count(" - ")
    return total


def counts(prep):
    """Deterministic per-layer counts of the compile set and the pipeline."""
    cfs = [case.cf for case in prep.cases]
    nonzeros = sum(ct.matrix.nnz for cf in cfs for ct in cf.terms)
    dense = sum(prod(ct.matrix.shape) for cf in cfs for ct in cf.terms)
    flops = sum(c_flops(t) for t in prep.c_texts)
    model = sum(cli_bench.flop_estimates(_complexity(cf.form))[0] for cf in cfs)
    p = prep.pipeline
    res = p.result
    n = res["mesh"].num_cells
    block = p.a.block_size
    triplets = n * block
    return {
        "form_language.monomials": sum(
            len(form_language.expand_to_monomials(cf.form)) for cf in cfs),
        "tensor_representation.a0_nonzeros": nonzeros,
        "tensor_representation.a0_density": nonzeros / dense,
        "tensor_representation.gk_components": sum(
            ct.geometry.n_components for cf in cfs for ct in cf.terms),
        "codegen.c_bytes": sum(len(t) for t in prep.c_texts),
        "codegen.c_statements": sum(codegen.count_code_lines(cf) for cf in cfs),
        "codegen.c_flops": flops,
        "cli_bench.model_flops": model,
        "cli_bench.flop_ratio": flops / model,
        "runtime.cells": n,
        "runtime.dofs": res["dofmap"].global_dim,
        "runtime.triplets": triplets,
        "runtime.nnz": res["A"].nnz,
        "runtime.nnz_per_triplet": res["A"].nnz / triplets,
        "runtime.cg_iterations": res["iterations"],
    }
