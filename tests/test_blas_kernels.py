"""The termination, network, stacked-sampler, ADMM and splitting suites under
OpenBLAS's AVX2 (Haswell) kernels.

OpenBLAS picks its kernels by CPU, and a kernel sets the summation order of
dot products and mat-vecs.  No verdict in these suites, no byte of the
round-log golden, and no equality of a batched ``np.matmul`` with the
per-point ``ndarray.dot`` may depend on that choice.  ``OPENBLAS_CORETYPE`` makes the
child process alone use the AVX2 kernels.  ``tests/test_cli.py`` is left out:
its ``verify`` goldens print BLAS figures that move in the last digits.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SUITES = ["tests/test_termination.py", "tests/test_network.py", "tests/test_stacked.py",
          "tests/test_admm.py", "tests/test_splitting.py"]


def test_suites_pass_under_the_avx2_kernels():
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *SUITES],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    # exit code 0: tests were collected, and none failed or errored
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
