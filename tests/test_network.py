import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minsplit import (
    X_PASS,
    Z_PASS,
    AbsValue,
    Prng,
    ProxOp,
    ZeroOp,
    dr_step,
    gathered_z,
    gen_affine_monotone,
    gen_consensus,
    make_nodes,
    mt_solve,
    mt_step,
    round_log_csv,
    run_protocol,
    run_round,
)
from minsplit.errors import ParameterError, ProtocolError, ShapeError
from minsplit.network import Message, _Mailbox
from minsplit.splitting import chain_argument, relaxed_update

from conftest import affine_ops


def adjacent_nodes(i, n):
    return {((i - 2) % n) + 1, (i % n) + 1}


def test_one_round_equals_one_step_bitwise(rng):
    inst, ops = affine_ops(5, 3, seed=70)
    z0 = rng.standard_normal((4, 3))
    nodes = make_nodes(ops, z0)
    log = run_round(nodes, 0.9, 1)
    z_central, x_central = mt_step(z0, ops, 0.9)
    assert np.array_equal(gathered_z(nodes), z_central)
    for i in range(5):
        assert np.array_equal(log.x_values[i + 1], x_central[i])


def test_degenerate_two_node_cycle_matches_dr(rng):
    inst, ops = affine_ops(2, 2, seed=71)
    z0 = rng.standard_normal((1, 2))
    nodes = make_nodes(ops, z0)
    run_round(nodes, 0.7, 1)
    z_dr, _, _ = dr_step(z0[0], ops[0], ops[1], 0.7)
    assert np.linalg.norm(gathered_z(nodes)[0] - z_dr) <= 1e-12


def test_zero_ops_round_is_cyclic_shift(rng):
    ops = [ZeroOp() for _ in range(5)]
    z0 = rng.standard_normal((4, 1))
    nodes = make_nodes(ops, z0)
    run_round(nodes, 1.0, 1)
    assert np.array_equal(gathered_z(nodes), np.roll(z0, -1, axis=0))


def test_protocol_reaches_median():
    inst = gen_consensus(10, 3)
    nodes = make_nodes(inst.operators(), np.zeros((9, 1)))
    report, logs = run_protocol(nodes, 0.9, rounds=50000, tol=1e-8)
    lo, hi = inst.median_interval()
    assert report.converged
    # every node tracks its own solution estimate
    for node in nodes:
        assert lo - 1e-6 <= float(node.last_x[0]) <= hi + 1e-6


def test_protocol_equals_centralised_iterates():
    inst = gen_consensus(10, 5)
    ops = inst.operators()
    nodes = make_nodes(ops, np.zeros((9, 1)))
    z = np.zeros((9, 1))
    for k in range(1, 201):
        run_round(nodes, 0.9, k)
        z, _ = mt_step(z, ops, 0.9)
        assert np.max(np.abs(gathered_z(nodes) - z)) == 0.0
    report = mt_solve(ops, gamma=0.9, tol=0.0, max_iter=200, dim=1)
    assert np.max(np.abs(gathered_z(nodes) - report.state.z)) == 0.0


def test_message_audit():
    inst, ops = affine_ops(6, 2, seed=72)
    nodes = make_nodes(ops, np.zeros((5, 2)))
    report, logs = run_protocol(nodes, 0.9, rounds=20, tol=0.0)
    n = 6
    for log in logs:
        counts = {i: 0 for i in range(1, n + 1)}
        for msg in log.messages:
            counts[msg.from_node] += 1
            assert msg.to_node in adjacent_nodes(msg.from_node, n)
            assert msg.kind in (Z_PASS, X_PASS)
        assert all(c == 2 for c in counts.values())
        assert len(log.messages) == 2 * n


def test_messages_are_immutable_copies():
    for n in (2, 3, 6):
        _, ops = affine_ops(n, 2, seed=77)
        nodes = make_nodes(ops, np.zeros((n - 1, 2)))
        _, logs = run_protocol(nodes, 0.9, rounds=2, tol=0.0)
        log = logs[-1]
        msg = next(m for m in log.messages if m.from_node == 1)
        with pytest.raises(AttributeError):
            msg.body = np.zeros(2)
        assert np.array_equal(msg.body, nodes[0].last_x)
        # no body is a view of node state or of another body, no block update
        # is a view of a node's block, and each output is its X message's body
        state = [a for node in nodes for a in (node.owned_z, node.last_x) if a is not None]
        bodies = [m.body for m in log.messages]
        for j, body in enumerate(bodies):
            assert not any(np.shares_memory(body, a) for a in state)
            assert not any(np.shares_memory(body, other) for other in bodies[j + 1:])
        for z in log.z_updates.values():
            assert not any(np.shares_memory(z, node.owned_z) for node in nodes[1:])
        for i, x in log.x_values.items():
            own = next(m.body for m in log.messages if m.from_node == i and m.kind == X_PASS)
            assert np.shares_memory(x, own)


def test_middle_block_pass_is_last_rounds_update():
    # a middle node's next block pass may leave right after its own step 3:
    # the body it sends in round k+1 is its round-k update, bit for bit
    n = 5
    inst, ops = affine_ops(n, 2, seed=73)
    nodes = make_nodes(ops, np.arange(8.0).reshape(4, 2))
    _, logs = run_protocol(nodes, 0.8, rounds=40, tol=0.0)
    for before, after in zip(logs, logs[1:]):
        passes = {m.from_node: m.body for m in after.messages if m.kind == Z_PASS}
        for i in range(2, n):
            assert np.array_equal(passes[i], before.z_updates[i])


@given(
    n=st.integers(2, 12),
    gamma=st.floats(0.0, 1.0, exclude_min=True),
    dim=st.integers(1, 3),
    rounds=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, gamma=0.9, dim=3, rounds=30, seed=0)
@example(n=2, gamma=4.51e-92, dim=1, rounds=2, seed=0)
def test_protocol_equals_centralised_for_any_cycle(n, gamma, dim, rounds, seed):
    ops = gen_affine_monotone(n, dim, seed).operators()
    z0 = np.random.default_rng(seed).standard_normal((n - 1, dim))
    report, logs = run_protocol(make_nodes(ops, z0), gamma, rounds, tol=0.0)
    assert len(logs) == report.iterations
    z = z0
    for log in logs:
        z, _ = mt_step(z, ops, gamma)
        assert np.array_equal(np.stack([log.z_updates[i] for i in range(2, n + 1)]), z)
    if gamma < 1.0:
        # mt_solve admits gamma < 1 only; at tol=0 both run every sweep, also
        # past an exact fixed point (the tiny-gamma example reaches one)
        central = mt_solve(ops, gamma=gamma, z0=z0, tol=0.0, max_iter=rounds)
        assert central.iterations == report.iterations == rounds
        assert np.array_equal(report.state.z, central.state.z)


class FifoMailbox:
    """The round's first mailbox: a dict of FIFO lists keyed by channel."""

    def __init__(self, n, log):
        self.n = n
        self.log = log
        self.queues = {}

    def send(self, from_node, to_node, kind, body):
        if (to_node - from_node) % self.n not in (1, self.n - 1):
            raise ProtocolError(f"node {from_node} may not message node {to_node} on the cycle")
        msg = Message(from_node, to_node, kind, np.array(body, dtype=np.float64),
                      self.log.round_index)
        self.log.messages.append(msg)
        self.queues.setdefault((from_node, to_node, kind), []).append(msg.body)
        return msg.body

    def receive(self, to_node, from_node, kind):
        queue = self.queues.get((from_node, to_node, kind))
        if not queue:
            raise ProtocolError(f"node {to_node} expected a {kind} message from node {from_node}")
        return queue.pop(0)


def reference_round(nodes, gamma, round_index):
    """The round as first written: every read goes through a FIFO channel, and the
    log holds each field as a list or dict filled as the round goes."""
    n = len(nodes)
    log = SimpleNamespace(round_index=round_index, messages=[], x_values={}, z_updates={})
    mail = FifoMailbox(n, log)
    for node in nodes[1:]:
        mail.send(node.node_id, node.node_id - 1, Z_PASS, node.owned_z)
    nodes[0].last_x = nodes[0].op.resolvent(mail.receive(1, 2, Z_PASS))
    log.x_values[1] = mail.send(1, 2, X_PASS, nodes[0].last_x)
    mail.send(1, n, X_PASS, nodes[0].last_x)
    for i in range(2, n + 1):
        node = nodes[i - 1]
        lead = mail.receive(i, i % n + 1, Z_PASS if i < n else X_PASS)
        x_prev = mail.receive(i, i - 1, X_PASS)
        node.last_x = node.op.resolvent(chain_argument(lead, node.owned_z, x_prev))
        log.x_values[i] = mail.send(i, i % n + 1, X_PASS, node.last_x)
        node.owned_z = relaxed_update(node.owned_z, node.last_x, x_prev, gamma)
        log.z_updates[i] = node.owned_z.copy()
    return log


def array_record(a):
    # every NaN as one bit pattern: CPython's float add returns its second operand's NaN
    # where numpy's returns its first, so the float round and numpy can differ in its sign
    return a.dtype.str, a.shape, np.where(np.isnan(a), np.nan, a).tobytes()


def log_record(log):
    """Every field of a RoundLog as comparable bytes, in order."""
    return (
        log.round_index,
        [(m.from_node, m.to_node, m.kind, m.round_index, array_record(m.body))
         for m in log.messages],
        [(i, array_record(x)) for i, x in log.x_values.items()],
        [(i, array_record(z)) for i, z in log.z_updates.items()],
    )


# a node's operator: AbsValue with a 1-D centre (the float form), with a 0-d centre, or an
# AffineOp (both one array resolvent call)
NODE_KINDS = ("abs 1-d", "abs 0-d", "affine")
MIXED = ["abs 1-d", "abs 0-d", "affine", "abs 1-d", "affine", "abs 0-d"] * 2


def mixed_ops(kinds, dim, seed, centre):
    # one operator per kind; a centre other than None replaces every centre's first entry
    c = Prng(seed).normals(len(kinds) * dim).reshape(len(kinds), dim)
    if centre is not None:
        c[:, 0] = centre
    affine = gen_affine_monotone(len(kinds), dim, seed).operators()
    return [AbsValue(c[i]) if kind == "abs 1-d" else AbsValue(c[i, 0]) if kind == "abs 0-d"
            else affine[i] for i, kind in enumerate(kinds)]


@given(
    n=st.integers(2, 12),
    gamma=st.floats(0.0, 1.0, exclude_min=True),
    dim=st.integers(1, 3),
    rounds=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(NODE_KINDS), min_size=12, max_size=12),
    centre=st.sampled_from([None, -0.0]),
    z_entry=st.sampled_from([None, -0.0, math.inf, -math.inf, math.nan]),
)
@example(n=2, gamma=1.0, dim=2, rounds=4, seed=0, kinds=["abs 1-d"] * 12, centre=None,
         z_entry=None)
@example(n=2, gamma=0.9, dim=3, rounds=4, seed=0, kinds=["affine"] * 12, centre=None,
         z_entry=None)
@example(n=7, gamma=1.0, dim=2, rounds=5, seed=3, kinds=MIXED, centre=None, z_entry=None)
@example(n=6, gamma=0.37, dim=3, rounds=4, seed=4, kinds=MIXED, centre=-0.0, z_entry=-0.0)
@example(n=5, gamma=0.9, dim=2, rounds=3, seed=5, kinds=MIXED, centre=None, z_entry=math.inf)
@example(n=5, gamma=1.0, dim=2, rounds=3, seed=6, kinds=MIXED, centre=None, z_entry=-math.inf)
@example(n=4, gamma=0.5, dim=1, rounds=3, seed=7, kinds=MIXED, centre=-0.0, z_entry=math.nan)
def test_round_equals_fifo_mailbox_reference(n, gamma, dim, rounds, seed, kinds, centre,
                                              z_entry):
    ops = mixed_ops(kinds[:n], dim, seed, centre)
    z0 = np.random.default_rng(seed).standard_normal((n - 1, dim))
    if z_entry is not None:
        z0[0, 0] = z_entry
    nodes, ref_nodes = make_nodes(ops, z0), make_nodes(ops, z0)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf in the arrays
        report, logs = run_protocol(nodes, gamma, rounds, tol=0.0)
        ref_logs = [reference_round(ref_nodes, gamma, k) for k in range(1, len(logs) + 1)]
    # a non-finite start makes the first residual non-finite, which ends the run
    assert len(logs) == (rounds if z_entry is None or math.isfinite(z_entry) else 1)
    assert [log_record(log) for log in logs] == [log_record(log) for log in ref_logs]
    for node, ref in zip(nodes, ref_nodes):
        assert array_record(node.last_x) == array_record(ref.last_x)
        if node.owned_z is not None:
            assert array_record(node.owned_z) == array_record(ref.owned_z)
    # the residual trace as first computed: restacked blocks, np.linalg.norm
    assert len(report.trace.columns["residual"]) == len(logs)
    z = z0
    for log, residual in zip(ref_logs, report.trace.columns["residual"]):
        z_next = np.stack([log.z_updates[i] for i in range(2, n + 1)])
        with np.errstate(invalid="ignore"):
            assert residual.hex() == (float(np.linalg.norm(z_next - z)) / gamma).hex()
        z = z_next


@pytest.mark.parametrize("gamma", [np.float32(0.9), np.float64(0.37), 1],
                         ids=["float32", "float64", "int 1"])
def test_round_relaxes_in_float64_for_any_real_gamma(gamma):
    # mt_step's arrays promote gamma to float64, and the float round must do the same
    ops = [AbsValue(c) for c in Prng(5).normals(10).reshape(5, 2)]
    z = np.random.default_rng(5).standard_normal((4, 2))
    _, logs = run_protocol(make_nodes(ops, z), gamma, 4, tol=0.0)
    for log in logs:
        z, _ = mt_step(z, ops, gamma)
        assert array_record(np.stack(list(log.z_updates.values()))) == array_record(z)


def test_uninitialised_node_raises():
    inst, ops = affine_ops(3, 1, seed=74)
    nodes = make_nodes(ops, np.zeros((2, 1)))
    nodes[1].owned_z = None
    with pytest.raises(ProtocolError):
        run_round(nodes, 0.9, 1)


@pytest.mark.parametrize("blank", [1, 2])
def test_run_protocol_raises_the_round_error_on_an_uninitialised_node(blank):
    # run_protocol gathers the blocks before its first round; it must fail as the round does
    nodes = make_nodes(gen_affine_monotone(3, 1, 0).operators(), np.zeros((2, 1)))
    nodes[blank].owned_z = None
    with pytest.raises(ProtocolError) as from_round:
        run_round(nodes, 0.9, 1)
    with pytest.raises(ProtocolError) as from_protocol:
        run_protocol(nodes, 0.9, 1)
    assert str(from_protocol.value) == str(from_round.value)
    assert str(from_round.value) == f"node {blank + 1} has no initialised block"


def test_a_failed_round_leaves_every_node_as_it_was():
    # node state changes only once the whole round has run: a resolvent error at node 3
    # leaves nodes 1 and 2 as they were too
    ops = [ZeroOp(), ZeroOp(), ProxOp(lambda y, step: np.full((1,), 0.5)), ZeroOp()]
    nodes = make_nodes(ops, np.arange(6.0).reshape(3, 2))
    state = [(node.owned_z, node.last_x) for node in nodes]
    with pytest.raises(ShapeError, match="node 3 resolvent returned shape"):
        run_round(nodes, 0.9, 1)
    assert all(node.owned_z is z and node.last_x is x for node, (z, x) in zip(nodes, state))


@pytest.mark.parametrize("run", [run_round, run_protocol], ids=["run_round", "run_protocol"])
def test_a_one_node_cycle_fails_on_its_missing_message(run):
    nodes = make_nodes([ZeroOp(), ZeroOp()], np.zeros((1, 2)))[:1]
    with pytest.raises(ProtocolError, match="node 1 expected a z message from node 2"):
        run(nodes, 0.9, 1)


@pytest.mark.parametrize("rounds", [0, -1])
@pytest.mark.parametrize("blank", [None, 2])
def test_run_protocol_names_rounds_before_any_block_or_round(rounds, blank):
    # the budget is checked first: an uninitialised block does not mask it, no node moves
    nodes = make_nodes(gen_affine_monotone(3, 1, 0).operators(), np.full((2, 1), 0.5))
    if blank is not None:
        nodes[blank].owned_z = None
    blocks = [node.owned_z for node in nodes]
    with pytest.raises(ParameterError) as err:
        run_protocol(nodes, 0.9, rounds)
    assert str(err.value) == f"rounds must be >= 1, got {rounds}"
    assert all(node.owned_z is z and node.last_x is None for node, z in zip(nodes, blocks))


@pytest.mark.parametrize("n, from_node, to_node", [(5, 1, 3), (5, 2, 2), (2, 2, 2)])
def test_mailbox_rejects_non_adjacent_pairs(n, from_node, to_node):
    mail = _Mailbox(n)
    with pytest.raises(ProtocolError, match="may not message"):
        mail.send(from_node, to_node, X_PASS, [0.0, 0.0])
    assert mail.links == [] and mail.payloads == []


@pytest.mark.parametrize("n, from_node, to_node", [(5, 1, 5), (5, 5, 1), (2, 1, 2), (2, 2, 1)])
def test_mailbox_accepts_adjacent_nodes(n, from_node, to_node):
    mail = _Mailbox(n)
    payload = [0.0, 1.0]
    assert mail.send(from_node, to_node, X_PASS, payload) == 0
    assert mail.links == [from_node, to_node, X_PASS] and mail.payloads == [payload]
    assert mail.receive(to_node, from_node, X_PASS) is payload


def test_mailbox_receive_on_empty_channel_raises():
    mail = _Mailbox(3)
    with pytest.raises(ProtocolError, match="expected a z message from node 2"):
        mail.receive(1, 2, Z_PASS)
    mail.send(2, 1, Z_PASS, [0.0])
    mail.receive(1, 2, Z_PASS)
    with pytest.raises(ProtocolError):
        mail.receive(1, 2, Z_PASS)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_message_bodies_are_rows_of_one_buffer_in_send_order(n):
    # no message owns a copy: body j is row j of one (2n, dim) float64 buffer, and every
    # reading of the log builds the same messages over it
    _, ops = affine_ops(n, 2, seed=79)
    log = run_round(make_nodes(ops, np.ones((n - 1, 2))), 0.9, 1)
    messages = log.messages
    assert [(m.from_node, m.to_node, m.kind) for m in messages] == (
        [(i, i - 1, Z_PASS) for i in range(2, n + 1)] + [(1, 2, X_PASS), (1, n, X_PASS)]
        + [(i, i % n + 1, X_PASS) for i in range(2, n + 1)])
    buffer = messages[0].body.base
    assert buffer.dtype == np.float64 and buffer.shape == (2 * n, 2) and buffer.flags.c_contiguous
    start = buffer.__array_interface__["data"][0]
    for row, m in enumerate(messages):
        assert m.body.base is buffer
        assert m.body.__array_interface__["data"][0] == start + row * buffer.strides[0]
    assert log_record(log) == log_record(log)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_x_values_are_the_sent_message_bodies(n):
    _, ops = affine_ops(n, 2, seed=78)
    log = run_round(make_nodes(ops, np.ones((n - 1, 2))), 0.9, 1)
    for i in range(1, n + 1):
        body = next(m.body for m in log.messages if m.from_node == i and m.kind == X_PASS)
        assert np.shares_memory(log.x_values[i], body)


def test_make_nodes_validates_shapes():
    inst, ops = affine_ops(3, 1, seed=75)
    with pytest.raises(ShapeError):
        make_nodes(ops, np.zeros((3, 1)))
    with pytest.raises(ParameterError):
        run_protocol(make_nodes(ops, np.zeros((2, 1))), 1.5, rounds=1)


def test_round_log_csv(tmp_path):
    inst, ops = affine_ops(3, 1, seed=76)
    nodes = make_nodes(ops, np.zeros((2, 1)))
    _, logs = run_protocol(nodes, 0.9, rounds=3, tol=0.0)
    path = tmp_path / "rounds.csv"
    round_log_csv(logs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,node,message_kind,l2_norm_of_payload"
    assert len(lines) == 1 + 3 * 6  # 2 messages per node per round, 3 nodes


# SHA-256 of every RoundLog field as first recorded.  AbsValue rounds use only
# elementwise ufuncs, so the bytes depend on no matrix kernel and must not move
# when a change only reorganises the round
GOLDEN_ROUND_SHA256 = "6c6cc2a32edaa2d56536e911719659c5348ec9fa1d02508be31edd920db0b5ce"


def test_round_logs_are_golden():
    h = hashlib.sha256()
    for n in (2, 3, 5, 37):
        for gamma in (0.9, 1.0):
            draw = Prng(n)
            ops = [AbsValue(draw.normals(2)) for _ in range(n)]
            z0 = draw.normals(2 * (n - 1)).reshape(n - 1, 2)
            _, logs = run_protocol(make_nodes(ops, z0), gamma, rounds=12, tol=0.0)
            for log in logs:
                h.update(repr(log.round_index).encode())
                for m in log.messages:
                    h.update(repr((m.from_node, m.to_node, m.kind, m.round_index,
                                   m.body.shape)).encode() + m.body.tobytes())
                for values in (log.x_values, log.z_updates):
                    for i, v in values.items():
                        h.update(repr((i, v.shape)).encode() + v.tobytes())
    assert h.hexdigest() == GOLDEN_ROUND_SHA256
