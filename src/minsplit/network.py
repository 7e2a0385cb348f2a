"""Deterministic simulation of the decentralised cycle-graph protocol.

Each of ``n`` nodes on a cycle privately holds one monotone operator; nodes
``2..n`` additionally own one lifted block each (node ``i`` owns block
``i-1``).  One round implements a full sweep of the centralised iteration:

1. nodes ``2..n`` pass their owned block to their predecessor;
2. node 1 applies its resolvent and sends the output to both neighbours;
3. nodes ``2..n`` in turn take the block of node ``i+1`` (or, at node ``n``,
   node 1's output), read node ``i-1``'s output, apply their resolvents,
   send the output on to node ``i % n + 1`` and relax their owned block.

At ``n = 2`` node 1's two neighbours are both node 2, which reads both of
node 1's messages in step 3.  Every node sends exactly two messages per
round, one to each cycle neighbour.  The arithmetic uses the same primitive
grouping as :func:`minsplit.splitting.mt_step`, so the concatenated owned
blocks reproduce the centralised iterates exactly, not merely to tolerance.

The scheduler is synchronous and reliable (no loss, FIFO channels).  Each
round opens a fresh mailbox, so no message outlives the round that sent it.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ProtocolError
from .splitting import (
    _check_gamma,
    _lifted,
    _solve_report,
    chain_argument,
    consensus_spread,  # unused here, but bench/tracing.py rebinds this module's copy
    relaxed_update,
)
from .trace import format_float, write_csv

Z_PASS = "z"
X_PASS = "x"


class Message(NamedTuple):
    """One payload passed between adjacent nodes in a given round (immutable)."""

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


class _Mailbox:
    """FIFO channels between cycle neighbours with adjacency enforcement."""

    def __init__(self, n, log):
        self.n = n
        self.log = log
        self.queues = {}

    def send(self, from_node, to_node, kind, body):
        """Queue and log a private copy of ``body``; returns that copy."""
        if (to_node - from_node) % self.n not in (1, self.n - 1):
            raise ProtocolError(
                f"node {from_node} may not message node {to_node} on the cycle"
            )
        msg = Message(from_node, to_node, kind, np.array(body, dtype=np.float64),
                      self.log.round_index)
        self.log.messages.append(msg)
        self.queues.setdefault((from_node, to_node, kind), []).append(msg.body)
        return msg.body

    def receive(self, to_node, from_node, kind):
        queue = self.queues.get((from_node, to_node, kind))
        if not queue:
            raise ProtocolError(
                f"node {to_node} expected a {kind} message from node {from_node}"
            )
        return queue.pop(0)


def run_round(nodes, gamma, round_index):
    """Execute one synchronous protocol round in place.

    Returns a :class:`RoundLog`; raises :class:`ProtocolError` on
    uninitialised node state or adjacency violations.
    """
    _check_gamma(gamma)
    n = len(nodes)
    log = RoundLog(round_index=round_index)
    mail = _Mailbox(n, log)
    # step 1: owned blocks travel to the predecessor
    for node in nodes[1:]:
        if node.owned_z is None:
            raise ProtocolError(f"node {node.node_id} has no initialised block")
        mail.send(node.node_id, node.node_id - 1, Z_PASS, node.owned_z)
    # step 2: node 1 applies its resolvent and sends to both neighbours
    nodes[0].last_x = nodes[0].op.resolvent(mail.receive(1, 2, Z_PASS))
    log.x_values[1] = mail.send(1, 2, X_PASS, nodes[0].last_x)
    mail.send(1, n, X_PASS, nodes[0].last_x)
    # step 3: nodes 2..n in index order; node n leads with node 1's output
    # and reports back to node 1, which gives every node two sends per round
    for i in range(2, n + 1):
        node = nodes[i - 1]
        lead = mail.receive(i, i % n + 1, Z_PASS if i < n else X_PASS)
        x_prev = mail.receive(i, i - 1, X_PASS)
        node.last_x = node.op.resolvent(chain_argument(lead, node.owned_z, x_prev))
        log.x_values[i] = mail.send(i, i % n + 1, X_PASS, node.last_x)
        node.owned_z = relaxed_update(node.owned_z, node.last_x, x_prev, gamma)
        log.z_updates[i] = node.owned_z.copy()
    return log


def run_protocol(nodes, gamma, rounds, tol=0.0):
    """Run the protocol for up to ``rounds`` rounds, one :func:`run_round` each.

    Stops early once the residual reconstructed from the block updates,
    ``||z_new - z_old|| / gamma``, drops to ``tol`` (``tol=0`` runs all
    rounds).  The report's ``state.x`` stacks the last round's outputs.

    Returns ``(report, logs)``.
    """
    n = len(nodes)
    logs = []
    z = gathered_z(nodes)

    def step():
        nonlocal z
        log = run_round(nodes, gamma, len(logs) + 1)
        logs.append(log)
        z_next = gathered_z(nodes)
        residual = float(np.linalg.norm(z_next - z)) / gamma
        z = z_next
        return {"residual": residual}

    def final():
        x = np.stack([logs[-1].x_values[i] for i in range(1, n + 1)])
        return z, x, x[0].copy()

    return _solve_report(step, rounds, tol, final), logs


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
