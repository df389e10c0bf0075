"""Build the C that formc emits and run it over a batch of cells.

The emitted translation unit defines ``eval(block, map[, w])`` for one
cell.  The benchmark appends its own loop, ``perfbench_batch``, which calls
``eval`` once per cell, so a batch costs one ctypes call and the timing is
the generated code's.
"""

import ctypes
import shutil
import subprocess
import time

import numpy as np

CC_FLAGS = ["-std=c99", "-O2", "-shared", "-fPIC"]

_LOOP = """
void perfbench_batch(long n, const double *maps, const double *w, long nw,
                     double *out, long bs)
{
    for (long c = 0; c < n; ++c)
        eval(out + c * bs, (const affine_map_%(d)dd *)(maps + c * %(stride)d)%(w)s);
}
"""

_DOUBLES = ctypes.POINTER(ctypes.c_double)


def cc_path():
    return shutil.which("cc")


def cc_version():
    path = cc_path()
    if path is None:
        return None
    out = subprocess.run([path, "--version"], capture_output=True, text=True,
                         check=True).stdout
    return out.splitlines()[0] if out else path


def batch_source(c_text, dim, has_coefficients):
    """Emitted C plus the benchmark's batch loop."""
    return c_text + _LOOP % {
        "d": dim,
        "stride": 1 + dim * dim,
        "w": ", w + c * nw" if has_coefficients else "",
    }


def build(source, src_path, lib_path):
    """Compile one shared library; returns its cc wall time in seconds."""
    with open(src_path, "w") as fh:
        fh.write(source)
    t0 = time.perf_counter()
    subprocess.run([cc_path(), *CC_FLAGS, "-o", lib_path, src_path], check=True)
    return time.perf_counter() - t0


class BatchKernel:
    """A built library bound to one batch of cells and its output buffer."""

    def __init__(self, lib_path, dets, gs, coeffs, block_size):
        n, d = gs.shape[0], gs.shape[1]
        self.maps = np.ascontiguousarray(
            np.concatenate([dets[:, None], gs.reshape(n, d * d)], axis=1))
        self.w = np.ascontiguousarray(
            np.concatenate(coeffs, axis=1) if coeffs else np.zeros((n, 1)))
        self.out = np.zeros((n, block_size))
        self.n = n
        self.block_size = block_size
        self._lib = ctypes.CDLL(lib_path)
        self._fn = self._lib.perfbench_batch
        self._fn.argtypes = [ctypes.c_long, _DOUBLES, _DOUBLES, ctypes.c_long,
                             _DOUBLES, ctypes.c_long]
        self._fn.restype = None
        self._args = (n, self.maps.ctypes.data_as(_DOUBLES),
                      self.w.ctypes.data_as(_DOUBLES), self.w.shape[1],
                      self.out.ctypes.data_as(_DOUBLES), block_size)

    def __call__(self):
        self._fn(*self._args)
        return self.out
