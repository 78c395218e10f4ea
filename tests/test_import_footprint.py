"""Start-up cost: a run loads numpy and scipy.fft and nothing else of scipy.

Each ``maxop`` command is a short process, so every scipy submodule the
package imports is paid on every run.  The package's scans, decay sweep and
Funk-Hecke kernel must leave no ``scipy.*`` module in ``sys.modules`` beyond
what ``import scipy.fft`` loads by itself.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

LIST_SCIPY = "print(*sorted(m for m in sys.modules if m.startswith('scipy.')))"

RUN_PACKAGE = """
import sys
import maxop
from maxop.scan import ScanConfig, run_scan

small = dict(d_range=(1,), p_list=(2.0,), q_list=(2.0,), n_members=1, grid=(2.0, 8), radii_K=4)
for operator, d in (("HL", 1), ("MULT_L", 1), ("DESCENT", 3), ("MK", 1)):
    run_scan(ScanConfig(operator=operator, **dict(small, d_range=(d,))))
maxop.decay_constants(3, 2)
maxop.funk_hecke_kernel(1, 3, [0.5])
"""


def _scipy_modules(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    return set(out.stdout.split())


def test_runs_load_no_scipy_module_beyond_scipy_fft():
    baseline = _scipy_modules("import sys, scipy.fft\n" + LIST_SCIPY)
    loaded = _scipy_modules(RUN_PACKAGE + LIST_SCIPY)
    assert "scipy.fft" in loaded
    extra = sorted(loaded - baseline)
    assert not extra, f"scipy modules loaded beyond scipy.fft: {extra}"
