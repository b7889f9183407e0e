"""The benchmark's tracer names rfridge functions; each name must still resolve.

perfbench/tracer.py wraps public functions by module and name, and a name
that no longer exists crashes every traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name while the module executes
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for _layer, home, func, _kind in tracer.WRAPPED:
        assert callable(getattr(importlib.import_module(home), func, None)), (home, func)
