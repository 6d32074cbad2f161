"""The benchmark's tracer rebinds names inside the package.

perfbench/tracing.py wraps each (module, name) pair of its BOUNDARIES in a
timer and reads cache_info() from each pair of its CACHES. A refactor that
renames or drops one of those names would break the traced benchmark run,
so this test reads both tables from the file's source and checks that every
pair still resolves on its centdim module.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_tables():
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("BOUNDARIES", "CACHES"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_traced_names_resolve():
    tables = traced_tables()
    assert len(tables["BOUNDARIES"]) > 0 and len(tables["CACHES"]) > 0
    for module, name, _ in tables["BOUNDARIES"]:
        value = getattr(importlib.import_module(f"centdim.{module}"), name)
        assert callable(value), (module, name)
    for module, name in tables["CACHES"]:
        value = getattr(importlib.import_module(f"centdim.{module}"), name)
        assert callable(value.cache_info), (module, name)
