"""The benchmark's tracer (fitbench/tracing.py) wraps fishervi callables by name.

Renaming or removing one of them breaks the traced benchmark run; this test
makes it break tier-1 as well.  tracing.py is only read and executed here;
nothing is installed.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "fitbench" / "tracing.py"


def test_every_traced_callable_resolves():
    spec = importlib.util.spec_from_file_location("fitbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, entries in tracing.TRACED.items():
        module = importlib.import_module(f"fishervi.{module_name}")
        for path, _ in entries:
            if "." in path:
                cls_name, attr = path.split(".")
                found = attr in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, path, None))
            if not found:
                missing.append(f"fishervi.{module_name}.{path}")
    assert not missing, f"traced by fitbench but not defined: {missing}"
