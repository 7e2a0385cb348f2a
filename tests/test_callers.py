"""Callers outside the package keep finding what they use.

The demos import public names, and the benchmark's tracer rebinds module
attributes by name, so a deletion under ``src/`` can break either one without
failing any test of the package itself.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    # run in tmp_path: two demos write their files into the working directory
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr


def test_bench_tracer_rebinds_only_attributes_that_exist():
    # installed() and snapshot() read owner.__dict__[attr] for every entry
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.REBINDINGS
               if attr not in vars(owner)]
    assert not missing
