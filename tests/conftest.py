"""Shared helpers for the test suite."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from formc.cli_bench import form_text_with
from formc.form_language import parse_form_file
from formc.runtime import AffineMap


def simplex_integral(alpha):
    """Exact integral of X^alpha over the unit simplex of dimension len(alpha).

    Closed form: prod(alpha_i!) / (|alpha| + d)!.
    """
    d = len(alpha)
    num = math.prod(math.factorial(a) for a in alpha)
    return num / math.factorial(sum(alpha) + d)


def exponents_upto(d, degree):
    """All multi-exponents alpha of length d with |alpha| <= degree."""
    if d == 0:
        yield ()
        return
    for head in range(degree + 1):
        for tail in exponents_upto(d - 1, degree - head):
            yield (head,) + tail


def parse_one(text, name=None):
    """Parse form file text and return a single form (by name if given)."""
    forms = parse_form_file(text)
    if name is None:
        assert len(forms) == 1
        return forms[0]
    return next(f for f in forms if f.name == name)


FORMS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                         "src", "formc", "forms")


def shipped_forms(name, shape, degree):
    """The forms of a shipped form file, re-degreed and on another cell."""
    with open(os.path.join(FORMS_DIR, name + ".form")) as fh:
        return parse_form_file(form_text_with(fh.read(), degree, shape))


def child_env():
    """The environment of a child process, with src/ on its path, as
    pytest's own pythonpath setting does not reach it."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                              else ""))


def run_limited(code, *args, stdin=""):
    """Run Python code in a child process that may map only 1 GiB, so that
    an allocation the code should never make fails in the child, not on
    the host.  Returns the CompletedProcess."""
    prologue = ("import resource\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n")
    return subprocess.run(
        [sys.executable, "-c", prologue + code, *args], input=stdin,
        capture_output=True, text=True, timeout=120,
        env=dict(child_env(), OPENBLAS_NUM_THREADS="1"))


def random_affine_map(rng, d, min_det=0.3):
    """Random well-conditioned affine map with positive orientation."""
    while True:
        B = rng.uniform(-1.5, 1.5, (d, d))
        det = float(np.linalg.det(B))
        if det > min_det:
            x0 = rng.uniform(-1.0, 1.0, d)
            return AffineMap(B, np.linalg.inv(B), det, x0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
