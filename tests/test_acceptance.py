"""End-to-end acceptance gate.

Each criterion prints exactly one verdict line of the shape

    criterion  3  analytic P1 element tensors ............ PASS  (0.0s)

directly to the real stdout so the verdicts stay visible under pytest's
output capture.
"""

import time

import numpy as np
import pytest

from conftest import exponents_upto, parse_one, random_affine_map, simplex_integral
from formc.cli_bench import ComplexityParams, flop_estimates, run_benchmark
from formc.errors import IndexOccursOnce, IndexOccursThrice
from formc.form_language import expand_to_monomials, parse_form_file
from formc.reference_elements import make_lagrange, make_quadrature
from formc.runtime import (
    apply_dirichlet,
    assemble,
    affine_map,
    build_dofmap,
    cg_solve,
    l2_error,
    lift_solution,
    Mesh,
    quadrature_element_tensor,
    unit_square_mesh,
)
from formc.tensor_representation import (
    classify_indices,
    compile_form,
    derive_geometry_expr,
)

TEXTS = {
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
        "a = 0.25*(v[i].dx(j) + v[j].dx(i)) * (u[i].dx(j) + u[j].dx(i)) * dx\n"
    ),
}


def form_for(kind, shape, degree):
    return parse_one(TEXTS[kind].format(s=shape, q=degree))


def check(number, label, body, capfd, budget=None):
    start = time.perf_counter()
    try:
        ok = bool(body())
    except Exception:
        _verdict(number, label, False, time.perf_counter() - start, capfd)
        raise
    elapsed = time.perf_counter() - start
    if budget is not None:
        ok = ok and elapsed < budget
    _verdict(number, label, ok, elapsed, capfd)
    assert ok, "criterion %d failed: %s" % (number, label)


def _verdict(number, label, ok, elapsed, capfd):
    line = "criterion %2d  %s %s %s  (%.1fs)" % (
        number, label, "." * max(1, 44 - len(label)),
        "PASS" if ok else "FAIL", elapsed,
    )
    # write through pytest's capture so the verdict reaches the terminal
    with capfd.disabled():
        print(line, flush=True)


def test_criterion_01_generated_code_regression(capfd):
    def body():
        cf = compile_form(form_for("poisson", "triangle", 3))
        (term,) = cf.terms
        flat = term.matrix.toarray().reshape(100, 4)
        return (
            cf.block_size == 100
            and abs(flat[0, 0] - 4.249999999999996e-01) < 1e-9
            and abs(flat[1, 0] - (-8.749999999999993e-02)) < 1e-9
            and abs(flat[99, 0] - 4.049999999999997e+00) < 1e-9
        )

    check(1, "cubic stiffness regression values", body, capfd, budget=5.0)


def test_criterion_02_oracle_equivalence_suite(capfd):
    def body():
        rng = np.random.default_rng(42)
        for shape, d in (("triangle", 2), ("tetrahedron", 3)):
            for kind in TEXTS:
                qmax = 6 if kind in ("mass", "poisson") else 4
                for q in range(1, qmax + 1):
                    form = form_for(kind, shape, q)
                    cf = compile_form(form)
                    maps = [random_affine_map(rng, d) for _ in range(20)]
                    coeffs = [
                        rng.uniform(-1, 1, (20, el.space_dim))
                        for el in form.coefficients
                    ]
                    got = cf.element_tensors(
                        [m.det for m in maps], [m.g for m in maps], coeffs
                    )
                    for k, amap in enumerate(maps):
                        want = quadrature_element_tensor(
                            form, amap, [c[k] for c in coeffs]
                        )
                        scale = np.abs(want).max()
                        bound = 1e-10 * scale + 1e-12
                        if np.abs(got[k] - want).max() > bound:
                            return False
        return True

    check(2, "tensor path matches quadrature oracle", body, capfd, budget=60.0)


def test_criterion_03_analytic_element_tensors(capfd):
    def body():
        reference = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
        amap = affine_map(reference, 0)
        mass_expected = (np.ones((3, 3)) + np.eye(3)) / 24.0
        poisson_expected = np.array(
            [[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]]
        )
        for kind, expected in (
            ("mass", mass_expected),
            ("poisson", poisson_expected),
        ):
            form = form_for(kind, "triangle", 1)
            compiled = compile_form(form).element_tensor(amap.det, amap.g)
            oracle = quadrature_element_tensor(form, amap)
            if np.abs(compiled - expected).max() > 1e-13:
                return False
            if np.abs(oracle - expected).max() > 1e-13:
                return False
        return True

    check(3, "analytic P1 element tensors", body, capfd)


def test_criterion_04_structural_invariants(capfd):
    def body():
        for shape in ("triangle", "tetrahedron"):
            for kind in TEXTS:
                for q in (1, 2):
                    form = form_for(kind, shape, q)
                    for monomial in expand_to_monomials(form):
                        term = classify_indices(monomial)
                        geo = derive_geometry_expr(term)
                        n_f = geo.n_coefficient_slots
                        n_d = geo.n_transform_slots
                        if geo.rank != n_f + n_d:
                            return False
                        if term.rank + geo.rank != len(
                            term.primary_dims + term.secondary_dims
                        ):
                            return False
                        # every auxiliary index is read exactly twice
                        reads = {}
                        for f in term.factors:
                            comp = f.component
                            if comp is not None and comp.kind == "auxiliary":
                                reads[comp.id] = reads.get(comp.id, 0) + 1
                        for _, x in term.transforms:
                            if x.kind == "auxiliary":
                                reads[x.id] = reads.get(x.id, 0) + 1
                        for idx in term.aux_a0 + term.aux_g:
                            if reads.get(idx.id, 0) != 2:
                                return False

        # over- and under-repeated indices are rejected up front
        once = parse_one(
            'element = FiniteElement("Lagrange", "triangle", 1)\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "i = Index()\n"
            "a = v.dx(i)*u*dx\n"
        )
        with pytest.raises(IndexOccursOnce):
            [classify_indices(m) for m in expand_to_monomials(once)]
        thrice = parse_one(
            'element = VectorElement("Lagrange", "triangle", 1)\n'
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "i = Index()\n"
            "a = v[i]*u[i].dx(i)*dx\n"
        )
        with pytest.raises(IndexOccursThrice):
            [classify_indices(m) for m in expand_to_monomials(thrice)]
        return True

    check(4, "rank bookkeeping and index occurrence", body, capfd)


def test_criterion_05_quadrature_exactness(capfd):
    def body():
        for shape, d in (("triangle", 2), ("tetrahedron", 3)):
            for p in range(1, 11):
                rule = make_quadrature(shape, p)
                for alpha in exponents_upto(d, p):
                    vals = np.prod(rule.points ** np.asarray(alpha), axis=1)
                    got = float(vals @ rule.weights)
                    if abs(got - simplex_integral(alpha)) > 1e-13:
                        return False
        return True

    check(5, "quadrature exactness through degree 10", body, capfd, budget=10.0)


def test_criterion_06_assembly_correctness(capfd):
    def body():
        mesh = Mesh(
            [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
            [[0, 1, 2], [0, 2, 3]],
        )
        element = make_lagrange("triangle", 1)
        dmap = build_dofmap(mesh, element)
        poisson = form_for("poisson", "triangle", 1)
        tensor = assemble(compile_form(poisson), mesh, [dmap, dmap]).toarray()
        quad = assemble(poisson, mesh, [dmap, dmap]).toarray()
        if np.abs(tensor - quad).max() > 1e-10:
            return False
        if np.abs(tensor.sum(axis=1)).max() > 1e-12:
            return False
        mass = form_for("mass", "triangle", 1)
        total = assemble(compile_form(mass), mesh, [dmap, dmap]).sum()
        return abs(total - 1.0) < 1e-12

    check(6, "two-triangle assembly equivalence", body, capfd)


def test_criterion_07_convergence(capfd):
    def body():
        a_form = form_for("poisson", "triangle", 1)
        load = parse_one(
            'element = FiniteElement("Lagrange", "triangle", 1)\n'
            'source = FiniteElement("Lagrange", "triangle", 4)\n'
            "v = BasisFunction(element)\n"
            "f = Function(source)\n"
            "L = v*f*dx\n"
        )
        compiled_a = compile_form(a_form)
        compiled_load = compile_form(load)
        element = make_lagrange("triangle", 1)
        source_element = make_lagrange("triangle", 4)

        def exact(x):
            return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

        def source(x):
            return 2.0 * np.pi**2 * exact(x)

        errors = []
        for n in (4, 8, 16):
            mesh = unit_square_mesh(n)
            dmap = build_dofmap(mesh, element)
            smap = build_dofmap(mesh, source_element)
            matrix = assemble(compiled_a, mesh, [dmap, dmap])
            f_vec = np.zeros(smap.global_dim)
            for c in range(mesh.num_cells):
                phys = affine_map(mesh, c).map_points(source_element.nodes)
                f_vec[smap.cell_dofs[c]] = source(phys)
            rhs = assemble(compiled_load, mesh, [dmap], [(f_vec, smap)])
            boundary = sorted(mesh.boundary_vertices())
            zeros = np.zeros(len(boundary))
            reduced, reduced_rhs, free = apply_dirichlet(
                matrix, rhs, boundary, zeros
            )
            x_free = cg_solve(reduced, reduced_rhs, tol=1e-12)
            solution = lift_solution(
                dmap.global_dim, free, x_free, boundary, zeros
            )
            errors.append(l2_error(mesh, dmap, solution, exact))
        ratios = [errors[k] / errors[k + 1] for k in range(2)]
        return all(3.6 <= r <= 4.4 for r in ratios)

    check(7, "second-order convergence on refinement", body, capfd, budget=60.0)


def test_criterion_08_benchmark_speedups(capfd):
    def body():
        runs = (
            ("mass", "triangle", [1, 2, 3, 4]),
            ("mass", "tetrahedron", [2, 3, 4]),
            ("poisson", "triangle", [2, 3, 4]),
            ("poisson", "tetrahedron", [2, 3, 4]),
        )
        mass_2d = {}
        for kind, shape, qs in runs:
            text = TEXTS[kind].format(s=shape, q=1)
            results = run_benchmark(text, qs, n_elements=10000,
                                    repetitions=5, seed=7)
            for r in results:
                if kind == "mass" and shape == "triangle":
                    mass_2d[r.q] = r.speedup
                if r.q >= 2 and r.speedup <= 1.0:
                    return False
        return mass_2d[4] > mass_2d[1]

    check(8, "tensor path beats quadrature per entry", body, capfd, budget=300.0)


def test_criterion_09_complexity_model_trend(capfd):
    def body():
        for d in (2, 3):
            r7 = flop_estimates(ComplexityParams(q=7, d=d))[2]
            r8 = flop_estimates(ComplexityParams(q=8, d=d))[2]
            trend = (16.0 / 14.0) ** d
            if abs(r8 / r7 - trend) / trend >= 0.15:
                return False
        return True

    check(9, "flop model follows the degree trend", body, capfd)


def test_criterion_10_parser_fidelity(capfd):
    def body():
        verbatim = (
            'element = FiniteElement("Lagrange", "tetrahedron", 3)\n'
            "\n"
            "v = BasisFunction(element)\n"
            "u = BasisFunction(element)\n"
            "f = Function(element)\n"
            "i = Index()\n"
            "\n"
            "a = v.dx(i)*u.dx(i)*dx\n"
            "L = v*f*dx\n"
        )
        forms = parse_form_file(verbatim)
        bilinear = next(f for f in forms if f.name == "a")
        if bilinear.arity != 2 or bilinear.coefficients:
            return False
        monomials = expand_to_monomials(bilinear)
        if len(monomials) != 1:
            return False
        (monomial,) = monomials
        ids = [
            idx.id for f in monomial.factors for idx in f.derivatives
        ]
        if len(ids) != 2 or ids[0] != ids[1]:
            return False

        captions = (
            TEXTS["mass"].format(s="triangle", q=1),
            TEXTS["poisson"].format(s="triangle", q=1),
            TEXTS["navierstokes"].format(s="tetrahedron", q=1),
        )
        return all(parse_form_file(text) for text in captions)

    check(10, "verbatim form files parse", body, capfd)
