"""Command line interface, complexity model and benchmark harness.

The benchmark compares two ways of evaluating element tensors over a batch
of random affine cells: contracting precomputed reference tensors against
per-cell geometry tensors, and direct quadrature with pretabulated basis
values through the runtime's batched oracle.  Both paths run over the same
runtime.CHUNK-cell slices.  Timing covers per-element work only (geometry
tensors, derivative transforms, contractions); map construction and
reference-element tabulation are excluded.  Runs are single threaded for
stable timing, and both paths consume identical seeded inputs.
"""

import argparse
import os
import re
import sys
import time
from dataclasses import dataclass
from math import comb, prod

import numpy as np

from . import codegen, runtime
from .errors import FormcError, ValueMismatch
from .form_language import parse_form_file
from .reference_elements import CELL_SHAPES, make_lagrange, quadrature_shape
from .tensor_representation import compile_form

__all__ = [
    "ComplexityParams",
    "BenchResult",
    "flop_estimates",
    "run_benchmark",
    "results_tsv",
    "cli",
    "main",
]

DEFAULT_ELEMENTS = 10_000
DEFAULT_REPETITIONS = 5


# --- complexity model -------------------------------------------------------------


@dataclass(frozen=True)
class ComplexityParams:
    """Operation-count model inputs: polynomial degree q, dimension d,
    number of coefficient functions n_f, number of differential operators
    n_D and arity r; vector forms scale the space dimension by d."""

    q: int
    d: int
    n_f: int = 0
    n_D: int = 0
    r: int = 2
    vector: bool = False

    def __post_init__(self):
        if min(self.q, self.n_f, self.n_D) < 0:
            raise ValueError("complexity parameters must be nonnegative")
        if self.r < 1:
            raise ValueError("arity must be at least 1")
        if self.d not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")

    @property
    def n(self):
        n = comb(self.q + self.d, self.d)
        return n * self.d if self.vector else n


def flop_estimates(params):
    """Model operation counts per element tensor.

    Tensor path: T_T = n^r * n^{n_f} * d^{n_D}.  Quadrature path:
    T_Q = n^r * N * (n_f + n_D*d + 1) with N the point count of the rule
    that is exact for the reference integrand degree (r + n_f)*q - n_D,
    counted without building the rule.  Returns (T_T, T_Q, T_Q / T_T).
    """
    n, d, r = params.n, params.d, params.r
    T_T = n ** r * n ** params.n_f * d ** params.n_D
    p = max((r + params.n_f) * params.q - params.n_D, 0)
    N = prod(quadrature_shape(CELL_SHAPES[d - 1], p))
    T_Q = n ** r * N * (params.n_f + params.n_D * d + 1)
    return T_T, T_Q, T_Q / T_T


# --- benchmark harness ------------------------------------------------------------


@dataclass(frozen=True)
class BenchResult:
    form: str
    q: int
    d: int
    t_tensor_ns: float
    t_quad_ns: float
    speedup: float
    n_elements: int
    lines: int


_DEGREE_RE = re.compile(
    r'((?:Finite|Vector)Element\s*\(\s*"[^"]*"\s*,\s*")([a-z]+)("\s*,\s*)(\d+)(\s*\))',
    re.ASCII)


def form_text_with(text, degree=None, shape=None):
    """Rewrite the degree and/or cell shape of every element declaration."""

    def sub(match):
        head, cell, mid, q, tail = match.groups()
        if shape is not None:
            cell = shape
        if degree is not None:
            q = str(degree)
        return head + cell + mid + q + tail

    return _DEGREE_RE.sub(sub, text)


def _random_cells(rng, n, d):
    B = rng.normal(size=(n, d, d))
    while True:
        dets = np.linalg.det(B)
        bad = np.abs(dets) < 0.3
        if not bad.any():
            break
        B[bad] = rng.normal(size=(int(bad.sum()), d, d))
    flip = dets < 0
    B[flip, 0] *= -1.0
    dets = np.linalg.det(B)
    return dets, np.linalg.inv(B)


def run_benchmark(text, q_values, n_elements=DEFAULT_ELEMENTS,
                  repetitions=DEFAULT_REPETITIONS, seed=0):
    """Time tensor contraction against direct quadrature.

    ``text`` is the text of a form file (``formc bench`` reads the file);
    every form in it is benchmarked at each degree in ``q_values`` on
    ``n_elements`` random positively oriented cells.  Reported times are
    the minimum over ``repetitions`` timed passes after one untimed
    warm-up, normalized per element-tensor entry.  Both paths run on
    identical inputs and are compared first; disagreement raises
    ValueMismatch.
    """
    if repetitions < 1:
        raise ValueError("benchmark needs at least one repetition")
    if n_elements < 1:
        raise ValueError("benchmark needs at least one element")
    q_values = list(q_values)
    if not q_values:
        raise ValueError("benchmark needs at least one degree")

    rng = np.random.default_rng(seed)
    results = []
    for q in q_values:
        forms = parse_form_file(form_text_with(text, degree=q))
        if not forms:
            raise ValueError("the form text defines no form")
        for form in forms:
            d = form.cell.dim
            cf = compile_form(form)
            dets, gs = _random_cells(rng, n_elements, d)
            coeffs = [rng.normal(size=(n_elements, n))
                      for n in form.coefficient_dims]

            ncheck = min(20, n_elements)
            a = cf.element_tensors(dets[:ncheck], gs[:ncheck],
                                   [c[:ncheck] for c in coeffs])
            b = runtime.quadrature_element_tensors(
                form, dets[:ncheck], gs[:ncheck], [c[:ncheck] for c in coeffs])
            scale = max(np.abs(b).max(), 1e-30)
            worst = np.abs(a - b).max() / scale
            if worst > 1e-10:
                raise ValueMismatch(
                    "benchmark paths disagree for form %r at q=%d "
                    "(relative error %.3e)" % (form.name, q, worst))

            # CHUNK cells at a time: the element tensors of 10,000
            # Navier-Stokes q3 tetrahedra at once would take 288 MB
            chunk = runtime.CHUNK
            starts = range(0, n_elements, chunk)

            def tensor_pass():
                for s in starts:
                    e = min(s + chunk, n_elements)
                    cf.element_tensors(dets[s:e], gs[s:e],
                                       [c[s:e] for c in coeffs])

            def quad_pass():
                for s in starts:
                    e = min(s + chunk, n_elements)
                    runtime.quadrature_element_tensors(
                        form, dets[s:e], gs[s:e], [c[s:e] for c in coeffs])

            t_tensor = _time_min(tensor_pass, repetitions)
            t_quad = _time_min(quad_pass, repetitions)
            entries = n_elements * cf.block_size
            t_tensor_ns = t_tensor / entries * 1e9
            t_quad_ns = t_quad / entries * 1e9
            results.append(BenchResult(
                form=form.name, q=q, d=d,
                t_tensor_ns=t_tensor_ns, t_quad_ns=t_quad_ns,
                speedup=t_quad_ns / t_tensor_ns,
                n_elements=n_elements,
                lines=codegen.count_code_lines(cf),
            ))
    return results


def _time_min(fn, repetitions):
    fn()  # warm-up, excluded
    best = float("inf")
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def results_tsv(results):
    lines = ["form\tq\td\tt_tensor_ns\tt_quad_ns\tspeedup\tlines"]
    for r in results:
        lines.append("%s\t%d\t%d\t%.3f\t%.3f\t%.2f\t%d" % (
            r.form, r.q, r.d, r.t_tensor_ns, r.t_quad_ns, r.speedup, r.lines))
    return "\n".join(lines) + "\n"


# --- command line -----------------------------------------------------------------


def _read_forms(path):
    """The text and forms of a form file; a file that defines none is an
    error."""
    with open(path) as fh:
        text = fh.read()
    forms = parse_form_file(text)
    if not forms:
        raise FormcError("%s defines no form" % path)
    return text, forms


def _cmd_compile(args):
    _, forms = _read_forms(args.form_file)
    emit = {"c": codegen.emit_c, "raw": codegen.emit_raw,
            "latex": codegen.emit_latex}[args.format]
    ext = {"c": ".c", "raw": ".raw", "latex": ".tex"}[args.format]
    stem = os.path.splitext(os.path.basename(args.form_file))[0]
    # every form compiles before any file is written, so a form that fails
    # leaves no output behind
    outputs = [emit(compile_form(form)) for form in forms]
    written = []
    for form, out in zip(forms, outputs):
        if args.output and len(forms) == 1:
            path = args.output
        elif args.output:
            root, oext = os.path.splitext(args.output)
            path = "%s_%s%s" % (root, form.name, oext or ext)
        else:
            path = "%s_%s%s" % (stem, form.name, ext)
        with open(path, "w") as fh:
            fh.write(out)
        written.append(path)
    for path in written:
        print("wrote %s" % path)
    return 0


def _cmd_tabulate(args):
    element = make_lagrange(args.shape, args.degree)
    if args.at:
        # Python's float also reads underscores and non-ASCII digits
        if not args.at.isascii() or "_" in args.at:
            raise FormcError("--at takes ASCII numbers without underscores: "
                             "%r" % args.at)
        pts = np.array([[float(x) for x in chunk.split(",")]
                        for chunk in args.at.split(";")])
    else:
        pts = element.nodes
    tab = element.tabulate(pts)
    print("element Lagrange %s degree %d: n=%d" % (
        args.shape, args.degree, element.space_dim))
    print("points:")
    for p in pts:
        print("  " + " ".join("% .12g" % x for x in p))
    print("values (one row per basis function):")
    for row in tab.values:
        print("  " + " ".join("% .12g" % x for x in row))
    return 0


def _cmd_assemble(args):
    _, forms = _read_forms(args.form_file)
    if args.form:
        matches = [f for f in forms if f.name == args.form]
        if not matches:
            raise FormcError("no form named %r in %s"
                             % (args.form, args.form_file))
        form = matches[0]
    else:
        form = forms[0]
    mesh = runtime.load_mesh(args.mesh_file)
    dofmaps = [runtime.build_dofmap(mesh, el) for el in form.arguments]
    rng = np.random.default_rng(args.seed)
    coefficients = []
    for el in form.coefficients:
        dm = runtime.build_dofmap(mesh, el)
        coefficients.append((rng.normal(size=dm.global_dim), dm))
    evaluator = compile_form(form) if args.path == "tensor" else form
    result = runtime.assemble(evaluator, mesh, dofmaps, coefficients)
    out = args.output or "%s_%s.mtx" % (
        os.path.splitext(os.path.basename(args.form_file))[0], form.name)
    runtime.write_matrix_market(out, result)
    print("wrote %s (%s path, form %s, %d cells)"
          % (out, args.path, form.name, mesh.num_cells))
    return 0


def _cmd_bench(args):
    qs = list(range(args.qmin, args.qmax + 1))
    text, _ = _read_forms(args.form_file)
    results = run_benchmark(text, qs, n_elements=args.elements,
                            repetitions=args.reps, seed=args.seed)
    tsv = results_tsv(results)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(tsv)
        print("wrote %s" % args.output)
    else:
        sys.stdout.write(tsv)
    return 0


def _cmd_estimate(args):
    params = ComplexityParams(q=args.q, d=args.d, n_f=args.nf, n_D=args.nd,
                              r=args.r, vector=args.vector)
    T_T, T_Q, ratio = flop_estimates(params)
    print("n=%d T_T=%d T_Q=%d ratio=%.4f" % (params.n, T_T, T_Q, ratio))
    return 0


def _natural(token):
    """An integer argument read as a raw listing reads its numbers:
    Python's int also takes signs, underscores and non-ASCII digits."""
    try:
        return codegen._natural(token)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a natural number in ASCII digits, got %r" % token
        ) from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="formc",
        description="Compile multilinear forms to tensor contractions; "
                    "verify and benchmark against direct quadrature.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a form file")
    p.add_argument("form_file")
    p.add_argument("--format", choices=("c", "raw", "latex"), default="c")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("tabulate", help="print basis values of an element")
    p.add_argument("shape", choices=("interval", "triangle", "tetrahedron"))
    p.add_argument("degree", type=_natural)
    p.add_argument("--at", default=None,
                   help="semicolon-separated points, e.g. '0.25,0.25;0.5,0'")
    p.set_defaults(fn=_cmd_tabulate)

    p = sub.add_parser("assemble", help="assemble a form over a mesh")
    p.add_argument("form_file")
    p.add_argument("mesh_file")
    p.add_argument("--path", choices=("tensor", "quadrature"),
                   default="tensor")
    p.add_argument("--form", default=None, help="form name to assemble")
    p.add_argument("--seed", type=_natural, default=0,
                   help="seed for random coefficient data")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_assemble)

    p = sub.add_parser("bench", help="benchmark tensor vs quadrature paths")
    p.add_argument("form_file")
    p.add_argument("--qmin", type=_natural, default=1)
    p.add_argument("--qmax", type=_natural, default=3)
    p.add_argument("--elements", type=_natural, default=DEFAULT_ELEMENTS)
    p.add_argument("--reps", type=_natural, default=DEFAULT_REPETITIONS)
    p.add_argument("--seed", type=_natural, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("estimate", help="print complexity model estimates")
    p.add_argument("--q", type=_natural, required=True)
    p.add_argument("--d", type=_natural, required=True)
    p.add_argument("--nf", type=_natural, default=0)
    p.add_argument("--nd", type=_natural, default=0)
    p.add_argument("--r", type=_natural, default=2)
    p.add_argument("--vector", action="store_true")
    p.set_defaults(fn=_cmd_estimate)
    return parser


def cli(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (FormcError, OSError, ValueError) as exc:
        print("formc: error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
