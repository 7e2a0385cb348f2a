"""Callers outside the package keep finding what they use.

The demos import public names, the benchmark's tracer rebinds module
attributes by name, and two benchmark workloads rely on their operators'
pure-float forms, so a deletion under ``src/`` can break or slow any of them
without failing any test of the package itself.
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


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_rebinds_only_attributes_that_exist():
    # installed() and snapshot() read owner.__dict__[attr] for every entry
    tracing = _bench_module("tracing")
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.REBINDINGS
               if attr not in vars(owner)]
    assert not missing


@pytest.mark.parametrize("seed", [1, 2])
def test_bench_workloads_build_operators_with_their_float_forms(seed):
    # consensus sweeps in Python floats at dim 1, and protocol's central solve a column
    # at a time; without these forms either would move, untraced and traced, to arrays
    workloads = _bench_module("workloads")
    assert all(hasattr(op, "resolvent_scalar") for op in workloads.Consensus().make(seed).ops)
    protocol = workloads.Protocol()
    assert all(len(op.entry_resolvents(protocol.DIM) or ()) == protocol.DIM
               for op in protocol.make(seed).ops)
