"""Every name a formc module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import formc

MODULES = sorted(m.name for m in pkgutil.iter_modules(formc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module("formc." + name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_the_modules_are_found():
    assert {"cli_bench", "codegen", "form_language", "reference_elements",
            "runtime", "tensor_representation"} <= set(MODULES)
