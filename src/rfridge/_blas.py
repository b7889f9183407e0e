"""The thread count of numpy's BLAS, read through ctypes.

numpy's wheels bundle OpenBLAS under ``numpy.libs/`` (Linux, Windows) or
``numpy/.dylibs/`` (macOS).  That library exports a getter for the number of
threads each BLAS call may use: ``scipy_openblas_get_num_threads64_`` in the
scipy-openblas builds, ``openblas_get_num_threads`` in plain OpenBLAS.  The
count follows the machine's cores unless ``OPENBLAS_NUM_THREADS`` sets it.
The library is looked up once, on import; the count is read on every call,
since it can change at run time.  Where no getter is found (a numpy linked against another
BLAS, or a build without bundled libraries) the count is taken to be the
usable cores, the most any BLAS would use.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy

_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")


def cores() -> int:
    """The cores this process may run on (its CPU affinity where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _find_getter():
    """The bundled library's thread-count getter, or None."""
    root = os.path.dirname(numpy.__file__)
    dirs = (os.path.join(os.path.dirname(root), "numpy.libs"), os.path.join(root, ".dylibs"))
    paths = sorted(p for d in dirs for p in glob.glob(os.path.join(d, "*openblas*")))
    for name in _GETTERS:
        for path in paths:
            try:
                fn = getattr(ctypes.CDLL(path), name)
            except (OSError, AttributeError):
                continue
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return fn
    return None


_getter = _find_getter()


def threads() -> int:
    """Threads one BLAS call may use now; the usable cores where that cannot be read."""
    count = _getter() if _getter is not None else 0
    return count if count >= 1 else cores()
