"""The thread count of numpy's BLAS, read and pinned through ctypes.

numpy's wheels bundle OpenBLAS under ``numpy.libs/`` (Linux, Windows) or
``numpy/.dylibs/`` (macOS).  That library exports a getter and a setter for
the number of threads each BLAS call may use:
``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_`` in the scipy-openblas builds,
``openblas_get_num_threads`` and ``openblas_set_num_threads`` in plain
OpenBLAS.  The count follows the machine's cores unless
``OPENBLAS_NUM_THREADS`` sets it.  The library is looked up once, on import;
the count is read on every call, since it can change at run time.  Where no
getter is found (a numpy linked against another BLAS, or a build without
bundled libraries) the count is taken to be the usable cores, the most any
BLAS would use, and it cannot be pinned.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import threading
from typing import Iterator

import numpy

_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads")
_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads")


def cores() -> int:
    """The cores this process may run on (its CPU affinity where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _find(names, argtypes, restype):
    """The first of names the bundled library exports, or None."""
    root = os.path.dirname(numpy.__file__)
    dirs = (os.path.join(os.path.dirname(root), "numpy.libs"), os.path.join(root, ".dylibs"))
    paths = sorted(p for d in dirs for p in glob.glob(os.path.join(d, "*openblas*")))
    for name in names:
        for path in paths:
            try:
                fn = getattr(ctypes.CDLL(path), name)
            except (OSError, AttributeError):
                continue
            fn.argtypes = argtypes
            fn.restype = restype
            return fn
    return None


_getter = _find(_GETTERS, [], ctypes.c_int)
_setter = _find(_SETTERS, [ctypes.c_int], None)


def threads() -> int:
    """Threads one BLAS call may use now; the usable cores where that cannot be read."""
    count = _getter() if _getter is not None else 0
    return count if count >= 1 else cores()


class _Pin:
    """The one_thread blocks open now, and the count the first of them found.

    One object, made on import and changed in place, so pinning rebinds no
    name of this module."""

    def __init__(self):
        self.lock = threading.Lock()
        self.blocks = 0
        self.unpinned = 0


_pin = _Pin()


@contextlib.contextmanager
def one_thread() -> Iterator[bool]:
    """Hold every BLAS call of the process to one thread inside the block.

    Yields whether the count could be pinned, which needs both the getter and
    the setter.  The pin is process-wide: it holds BLAS calls made from any
    thread, and lasts while any block is open, so blocks may overlap in
    threads.  When the last one closes, also by an exception, the count the
    first one found is set again.
    """
    if _getter is None or _setter is None:
        yield False
        return
    with _pin.lock:
        if _pin.blocks == 0:
            _pin.unpinned = _getter()
            _setter(1)
        _pin.blocks += 1
    try:
        yield True
    finally:
        with _pin.lock:
            _pin.blocks -= 1
            if _pin.blocks == 0:
                _setter(_pin.unpinned)
