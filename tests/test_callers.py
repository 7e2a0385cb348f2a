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


# each tampering of one send in round 1 of the protocol workload (n = 200), and what follows
TAMPERED_SENDS = {
    "none": None,
    "x sent twice": "messages_per_node_round is 3, expected 2",
    "z pass dropped": "node 2 expected a z message from node 3",
    "x sent to a non-neighbour": "node 5 may not message node 3 on the cycle",
}


@pytest.mark.parametrize("tamper", list(TAMPERED_SENDS))
def test_protocol_claims_count_the_sends_that_happened(monkeypatch, tamper):
    # the benchmark's messages_per_node_round reads the sends a round made, not its schedule:
    # an extra send fails that claim, and a missing or misrouted one fails the round
    from minsplit import X_PASS, Z_PASS, network
    from minsplit.errors import ProtocolError

    workloads, send = _bench_module("workloads"), network._Mailbox.send

    def tampered(mail, from_node, to_node, kind, payload):
        if tamper == "z pass dropped" and (from_node, kind) == (3, Z_PASS):
            return None
        if (from_node, kind) == (5, X_PASS):
            if tamper == "x sent twice":
                send(mail, from_node, to_node, kind, payload)
            elif tamper == "x sent to a non-neighbour":
                to_node = 3
        return send(mail, from_node, to_node, kind, payload)

    monkeypatch.setattr(network._Mailbox, "send", tampered)
    protocol = workloads.Protocol()
    inp = protocol.make(1, small=True)
    if tamper in ("z pass dropped", "x sent to a non-neighbour"):
        with pytest.raises(ProtocolError, match=TAMPERED_SENDS[tamper]):
            protocol.run(inp)
        return
    out = protocol.run(inp)
    sent = sum(m.from_node == 5 for m in out.logs[0].messages)
    assert sent == (3 if tamper == "x sent twice" else 2)
    failures = workloads.claim_failures(protocol.counts(inp, out))
    assert failures == ([TAMPERED_SENDS[tamper]] if TAMPERED_SENDS[tamper] else [])
