"""The benchmark's tracer finds the package's layers by module and function
name; a rename of a traced function must fail here rather than in a traced
benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import maxop

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
    # the rule-build counter reads the cache misses of the rule builders
    uncached = [fn.__name__ for fn in lt.RULE_FUNCS if not callable(getattr(fn, "cache_info", None))]
    assert not uncached, f"rule builders without cache_info: {uncached}"


def _imports_scipy_fft(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) and any(a.name == "scipy.fft" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (
            node.module == "scipy.fft" or (node.module == "scipy" and any(a.name == "fft" for a in node.names))
        ):
            return True
    return False


def test_fft_calling_modules_are_traced():
    # the tracer counts a scipy.fft call only against a module it maps to a
    # layer; an unmapped caller would silently drop its FFTs from the counts
    lt = _layertrace()
    package = Path(maxop.__file__).resolve().parent
    callers = {f"maxop.{p.stem}" for p in package.glob("*.py") if _imports_scipy_fft(p)}
    assert "maxop.multiplier" in callers
    untracked = sorted(callers - set(lt.CALLER_LAYER))
    assert not untracked, f"modules calling scipy.fft without a tracer layer: {untracked}"


def _scipy_fft_attributes(path: Path) -> set[str]:
    """Names read off every alias the module binds to scipy.fft."""
    tree = ast.parse(path.read_text())
    aliases = {
        a.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for a in node.names
        if a.name == "scipy.fft" and a.asname
    }
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases
    }


def test_package_transforms_are_counted():
    # the FFT counters wrap the n-dim transforms by name; a transform outside
    # that list (a 1-D fft, say) would run uncounted.  dctn is the one known
    # uncounted transform, and next_fast_len transforms nothing.
    lt = _layertrace()
    package = Path(maxop.__file__).resolve().parent
    used = set().union(*(_scipy_fft_attributes(p) for p in package.glob("*.py")))
    assert {"rfftn", "irfftn", "fftn", "ifftn"} <= used
    uncounted = sorted(used - set(lt.FFT_FUNCS) - {"next_fast_len", "dctn"})
    assert not uncounted, f"scipy.fft names the tracer does not count: {uncounted}"
