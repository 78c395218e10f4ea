"""The benchmark's tracer finds the package's layers by module and function
name; a rename of a traced function must fail here rather than in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("_perfbench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    lt = _layertrace()
    hooks = list(lt.SPANNED) + [lt.LADDER]
    missing = [
        f"{home}.{name}"
        for home, name, _ in hooks
        if not callable(getattr(importlib.import_module(home), name, None))
    ]
    assert not missing, f"traced functions not found: {missing}"
