"""Every name a formc module lists in ``__all__`` exists and has a caller
outside the tests, and each module imports only from the layers below its
own."""

import ast
import glob
import importlib
import os
import pkgutil
from functools import lru_cache

import pytest

import formc

MODULES = sorted(m.name for m in pkgutil.iter_modules(formc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module("formc." + name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# exported for users of the runtime, though no caller below reads them
USER_ONLY = {
    "save_mesh": "writes the mesh file that load_mesh and formc assemble "
                 "read, so a user can make one",
    "unit_cube_mesh": "the tetrahedral counterpart of unit_square_mesh",
    "perturb_mesh": "moves the inner vertices of a lattice mesh, so that "
                    "its cells differ in shape",
}


@lru_cache(maxsize=None)
def called_names():
    """Every name, attribute and imported name that formc, perfbench or
    the acceptance test uses, read with ast."""
    paths = (glob.glob(os.path.join(formc.__path__[0], "*.py"))
             + glob.glob(os.path.join(REPO, "perfbench", "*.py"))
             + [os.path.join(REPO, "tests", "test_acceptance.py")])
    out = set()
    for path in paths:
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.rpartition(".")[2])
    return out


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_has_a_caller(name):
    # API that only tests read belongs in the tests
    module = importlib.import_module("formc." + name)
    unread = set(getattr(module, "__all__", ())) - called_names()
    assert unread == (set(USER_ONLY) if name == "runtime" else set())


def test_the_modules_are_found():
    assert {"cli_bench", "codegen", "form_language", "reference_elements",
            "runtime", "tensor_representation"} <= set(MODULES)


# each module imports from lower layers only; codegen and runtime, which
# share a layer, do not import each other
LAYERS = (("errors",), ("reference_elements",), ("form_language",),
          ("tensor_representation",), ("codegen", "runtime"), ("cli_bench",))
LAYER = {name: k for k, names in enumerate(LAYERS) for name in names}


def relative_imports(name):
    """The formc modules that module name imports, read with ast."""
    with open(os.path.join(formc.__path__[0], name + ".py")) as fh:
        tree = ast.parse(fh.read())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            out.update([node.module.split(".")[0]] if node.module
                       else [alias.name for alias in node.names])
    return out


def test_every_module_has_a_layer():
    assert set(MODULES) == set(LAYER)


@pytest.mark.parametrize("name", MODULES)
def test_modules_import_only_lower_layers(name):
    imported = relative_imports(name)
    assert imported <= set(LAYER)
    assert {m for m in imported if LAYER[m] >= LAYER[name]} == set()


def test_codegen_and_runtime_do_not_import_each_other():
    assert "runtime" not in relative_imports("codegen")
    assert "codegen" not in relative_imports("runtime")
    assert relative_imports("cli_bench") >= {"codegen", "runtime"}
