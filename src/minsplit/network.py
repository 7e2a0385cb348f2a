"""Deterministic simulation of the decentralised cycle-graph protocol.

Each of ``n`` nodes on a cycle privately holds one monotone operator; nodes
``2..n`` additionally own one lifted block each (node ``i`` owns block
``i-1``).  One round implements a full sweep of the centralised iteration:

1. nodes ``2..n`` pass their owned block to their predecessor;
2. node 1 applies its resolvent and sends the output to both neighbours;
3. nodes ``2..n-1`` in turn apply their resolvents, forward the output, and
   relax their owned block;
4. node ``n`` applies its resolvent, relaxes its owned block, and passes its
   output back to node 1.

Every node sends exactly two messages per round, one to each cycle
neighbour.  The arithmetic uses the same primitive grouping as
:func:`minsplit.splitting.mt_step`, so the concatenated owned blocks
reproduce the centralised iterates exactly, not merely to tolerance.

The scheduler is synchronous and reliable (no loss, FIFO channels).  The
``pipelined`` mode demonstrates that nodes ``2..n-1`` may emit the next
round's block pass right after their step 3, before node ``n`` finishes the
current round; values and per-round logs are unchanged, only the global
emission order differs.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ProtocolError
from .splitting import (
    _check_gamma,
    _lifted,
    _solve_report,
    chain_argument,
    consensus_spread,
    relaxed_update,
)
from .trace import format_float, write_csv

Z_PASS = "z"
X_PASS = "x"


@dataclass(frozen=True)
class Message:
    """One payload passed between adjacent nodes in a given round."""

    from_node: int
    to_node: int
    kind: str
    body: np.ndarray
    round_index: int


@dataclass
class Node:
    """Per-node private state: its operator and (for nodes 2..n) one block."""

    node_id: int
    op: object
    owned_z: np.ndarray = None
    last_x: np.ndarray = None


@dataclass
class RoundLog:
    """Everything observable about one protocol round."""

    round_index: int
    messages: list = field(default_factory=list)
    x_values: dict = field(default_factory=dict)
    z_updates: dict = field(default_factory=dict)


def make_nodes(ops, z0):
    """Build a cycle of nodes from operators and an initial lifted point."""
    n = len(ops)
    if n < 2:
        raise ParameterError(f"cycle needs at least 2 nodes, got {n}")
    z0 = _lifted(z0, n - 1, None, name="z0")
    nodes = [Node(node_id=1, op=ops[0])]
    for i in range(2, n + 1):
        nodes.append(Node(node_id=i, op=ops[i - 1], owned_z=z0[i - 2].copy()))
    return nodes


def gathered_z(nodes):
    """Concatenate the owned blocks of nodes 2..n into an (n-1, dim) array."""
    return np.stack([node.owned_z for node in nodes[1:]])


def _neighbours(i, n):
    prev = n if i == 1 else i - 1
    nxt = 1 if i == n else i + 1
    return prev, nxt


class _Mailbox:
    """FIFO channels between cycle neighbours with adjacency enforcement."""

    def __init__(self, n):
        self.n = n
        self.queues = {}

    def send(self, log, from_node, to_node, kind, body):
        prev, nxt = _neighbours(from_node, self.n)
        if to_node not in (prev, nxt):
            raise ProtocolError(
                f"node {from_node} may not message node {to_node} on the cycle"
            )
        msg = Message(
            from_node=from_node,
            to_node=to_node,
            kind=kind,
            body=np.asarray(body, dtype=np.float64).copy(),
            round_index=log.round_index,
        )
        log.messages.append(msg)
        self.queues.setdefault((from_node, to_node, kind), []).append(msg.body)

    def receive(self, to_node, from_node, kind):
        queue = self.queues.get((from_node, to_node, kind))
        if not queue:
            raise ProtocolError(
                f"node {to_node} expected a {kind} message from node {from_node}"
            )
        return queue.pop(0)


def _send_block_pass(nodes, mail, log):
    # step 1: owned blocks travel to the predecessor
    for node in nodes:
        if node.owned_z is None:
            raise ProtocolError(f"node {node.node_id} has no initialised block")
        mail.send(log, node.node_id, node.node_id - 1, Z_PASS, node.owned_z)


def _resolvent_chain(nodes, gamma, mail, log):
    # steps 2 and 3: node 1 then the middle nodes, in index order
    n = len(nodes)
    z_first = mail.receive(1, 2, Z_PASS)
    x1 = nodes[0].op.resolvent(z_first)
    nodes[0].last_x = x1
    log.x_values[1] = x1.copy()
    mail.send(log, 1, 2, X_PASS, x1)
    mail.send(log, 1, n, X_PASS, x1)
    for i in range(2, n):
        node = nodes[i - 1]
        z_in = mail.receive(i, i + 1, Z_PASS)
        x_prev = mail.receive(i, i - 1, X_PASS)
        x_i = node.op.resolvent(chain_argument(z_in, node.owned_z, x_prev))
        node.last_x = x_i
        log.x_values[i] = x_i.copy()
        mail.send(log, i, i + 1, X_PASS, x_i)
        node.owned_z = relaxed_update(node.owned_z, x_i, x_prev, gamma)
        log.z_updates[i] = node.owned_z.copy()


def _closing_step(nodes, gamma, mail, log):
    # step 4: node n updates the last block and reports back to node 1,
    # which gives every node exactly two sends per round
    n = len(nodes)
    last = nodes[-1]
    x_first = mail.receive(n, 1, X_PASS)
    x_prev = mail.receive(n, n - 1, X_PASS) if n > 2 else x_first
    x_n = last.op.resolvent(chain_argument(x_first, last.owned_z, x_prev))
    last.last_x = x_n
    log.x_values[n] = x_n.copy()
    last.owned_z = relaxed_update(last.owned_z, x_n, x_prev, gamma)
    log.z_updates[n] = last.owned_z.copy()
    mail.send(log, n, 1, X_PASS, x_n)


def run_round(nodes, gamma, round_index):
    """Execute one synchronous protocol round in place.

    Returns a :class:`RoundLog`; raises :class:`ProtocolError` on
    uninitialised node state or adjacency violations.
    """
    _check_gamma(gamma)
    mail = _Mailbox(len(nodes))
    log = RoundLog(round_index=round_index)
    _send_block_pass(nodes[1:], mail, log)
    _resolvent_chain(nodes, gamma, mail, log)
    _closing_step(nodes, gamma, mail, log)
    return log


def run_protocol(nodes, gamma, rounds, tol=0.0, mode="strict"):
    """Run the protocol for up to ``rounds`` rounds.

    Stops early once the residual reconstructed from the block updates,
    ``||z_new - z_old|| / gamma``, drops to ``tol`` (set ``tol=0`` to force
    all rounds).  ``mode`` is ``"strict"`` or ``"pipelined"``; the pipelined
    scheduler lets nodes 2..n-1 emit the next round's block pass before node
    n finishes the current round.  Both modes produce identical values and
    identical per-round logs.

    Returns ``(report, logs)``.
    """
    if mode not in ("strict", "pipelined"):
        raise ParameterError(f"unknown mode {mode!r}")
    _check_gamma(gamma)
    n = len(nodes)
    mail = _Mailbox(n)
    logs = []
    current = RoundLog(round_index=1)
    _send_block_pass(nodes[1:], mail, current)
    x = None

    def step():
        nonlocal current, x
        k = current.round_index
        z_before = gathered_z(nodes)
        _resolvent_chain(nodes, gamma, mail, current)
        upcoming = RoundLog(round_index=k + 1)
        if mode == "pipelined" and k < rounds:
            # overlap: middle nodes already finished step 3, so their block
            # pass for round k+1 goes out before node n's step 4 below
            _send_block_pass(nodes[1:-1], mail, upcoming)
        _closing_step(nodes, gamma, mail, current)
        logs.append(current)
        z_after = gathered_z(nodes)
        residual = float(np.linalg.norm(z_after - z_before)) / gamma
        x = np.stack([current.x_values[i] for i in range(1, n + 1)])
        if k < rounds:
            _send_block_pass(nodes[-1:] if mode == "pipelined" else nodes[1:], mail, upcoming)
        current = upcoming
        return {"residual": residual, "spread": consensus_spread(x)}

    report = _solve_report(
        step,
        rounds,
        lambda row: tol > 0.0 and row["residual"] <= tol,
        lambda: (gathered_z(nodes), x, x[0].copy()),
    )
    return report, logs


def round_log_csv(logs, path):
    """Export message telemetry: one row per message."""
    header = ["round", "node", "message_kind", "l2_norm_of_payload"]
    rows = []
    for log in logs:
        for msg in log.messages:
            rows.append(
                [
                    str(log.round_index),
                    str(msg.from_node),
                    msg.kind,
                    format_float(np.linalg.norm(msg.body)),
                ]
            )
    write_csv(path, header, rows)
