"""Span tracing of formc's public functions, installed from outside.

Each traced function is replaced by a wrapper under every name it is
looked up by: a function imported by name into several modules (for
example ``make_quadrature`` in ``tensor_representation``, ``runtime`` and
``cli_bench``) is wrapped in each of them, and a method is wrapped on its
class.  Spans are kept in memory as [name, start, end, parent, job] and
written out when the run ends.
"""

import importlib
import sys
import time

# (module, attribute, span name).  A dotted attribute is a method.
TRACED = (
    ("form_language", "parse_form_file", "form_language.parse"),
    ("form_language", "expand_to_monomials", "form_language.expand"),
    ("reference_elements", "make_quadrature", "reference_elements.make_quadrature"),
    ("reference_elements", "LagrangeElement.tabulate", "reference_elements.tabulate"),
    ("tensor_representation", "compile_form", "tensor_representation.compile"),
    ("tensor_representation", "classify_indices", "tensor_representation.classify"),
    ("tensor_representation", "compute_reference_tensor",
     "tensor_representation.reference_tensor"),
    ("tensor_representation", "drop_zeros", "tensor_representation.drop_zeros"),
    ("tensor_representation", "GeometryTensorExpr.evaluate",
     "tensor_representation.geometry"),
    ("tensor_representation", "contract_terms", "tensor_representation.contract"),
    ("codegen", "emit_c", "codegen.emit_c"),
    ("runtime", "load_mesh", "runtime.load_mesh"),
    ("runtime", "Mesh.__init__", "runtime.mesh_init"),
    ("runtime", "build_dofmap", "runtime.build_dofmap"),
    ("runtime", "affine_maps", "runtime.affine_maps"),
    ("runtime", "assemble", "runtime.assemble"),
    ("runtime", "apply_dirichlet", "runtime.apply_dirichlet"),
    ("runtime", "cg_solve", "runtime.cg_solve"),
    ("runtime", "quadrature_element_tensor", "runtime.quadrature_element_tensor"),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None
        self._patches = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                spans[idx][1] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args) as a span of its own (the benchmark's job spans)."""
        return self._wrap(fn, name)(*args, **kwargs)

    def install(self):
        """Wrap every entry of TRACED under each name that refers to it.

        Returns the entries that formc no longer defines; their spans stay
        empty.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        formc_modules = [m for n, m in sys.modules.items()
                         if n == "formc" or n.startswith("formc.")]
        missing = []
        for module_name, attr, span in TRACED:
            module = importlib.import_module("formc." + module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is None:
                    missing.append("%s.%s" % (module_name, attr))
                    continue
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, span))
                continue
            original = getattr(module, attr, None)
            if original is None:
                missing.append("%s.%s" % (module_name, attr))
                continue
            wrapper = self._wrap(original, span)
            for mod in formc_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return missing

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own

