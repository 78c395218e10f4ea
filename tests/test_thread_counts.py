"""Thread counts: the Fourier side's numbers do not depend on them.

The decay table and a Funk-Hecke kernel are computed in two fresh
processes, one with every FFT and BLAS thread variable set to 1 and one with
them set to 2.  Their quadrature sums contract with numpy's own loops, not
with BLAS products that regroup sums by thread count, so the values agree
bit for bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = str(Path(__file__).resolve().parents[1] / "src")
THREAD_VARS = ("MAXOP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

RUN = """
import json
import numpy as np
from maxop.multiplier import decay_constants, funk_hecke_kernel

decay = [[row.c1, row.c2, row.c3] for row in decay_constants(5, 3)]
kernel = funk_hecke_kernel(1, 3, np.linspace(0.1, 2.3, 12), tol=1e-10)
print(json.dumps({"decay": decay, "funk_hecke": kernel.tolist()}))
"""


def _values(threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    env.update({var: str(threads) for var in THREAD_VARS})
    out = subprocess.run([sys.executable, "-c", RUN], capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout)


def test_decay_and_funk_hecke_agree_across_thread_counts():
    one, two = _values(1), _values(2)
    for key in ("decay", "funk_hecke"):
        a, b = np.ravel(one[key]), np.ravel(two[key])
        assert a.size == b.size > 0, key
        assert np.array_equal(a, b), (key, a - b)
