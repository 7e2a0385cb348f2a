"""Deterministic simulation of the decentralised cycle-graph protocol.

Each of ``n`` nodes on a cycle privately holds one monotone operator; nodes
``2..n`` additionally own one lifted block each (node ``i`` owns block
``i-1``).  One round implements a full sweep of the centralised iteration:

1. nodes ``2..n`` pass their owned block to their predecessor;
2. node 1 applies its resolvent and sends the output to both neighbours;
3. nodes ``2..n`` in turn take the block of node ``i+1`` (or, at node ``n``,
   node 1's output), read node ``i-1``'s output, apply their resolvents,
   send the output on to node ``i % n + 1`` and relax their owned block.

Every node sends exactly two messages per round, one to each cycle
neighbour; at ``n = 2`` both of node 1's go to node 2.  Each node chains and
relaxes its entries in Python floats with :func:`minsplit.splitting.mt_step`'s
operations in its order, resolving them by ``entry_resolvents(dim)`` or else by
one ``resolvent`` call on an array, so the concatenated owned blocks reproduce
the centralised iterates exactly (a NaN up to its sign), not merely to tolerance.

The scheduler is synchronous and reliable.  Each round keeps one body per
link (sender, receiver and kind), so no message outlives its round.  A node
reads its lead off a link and takes ``x_prev`` from its predecessor's output,
whose X body holds the same bits.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ProtocolError
from .splitting import (
    _check_gamma,
    _checked_shape,
    _entry_forms,
    _lifted,
    _norm,
    _solve_report,
    check_budget,
    consensus_spread,  # unused here, but bench/tracing.py rebinds this module's copy
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
    return [Node(node_id=1, op=ops[0])] + [
        Node(node_id=i, op=ops[i - 1], owned_z=z0[i - 2].copy()) for i in range(2, n + 1)]


def _check_blocks(nodes):
    for node in nodes[1:]:
        if node.owned_z is None:
            raise ProtocolError(f"node {node.node_id} has no initialised block")


def gathered_z(nodes):
    """Concatenate the owned blocks of nodes 2..n into an (n-1, dim) array."""
    return np.array([node.owned_z for node in nodes[1:]])


class _Mailbox:
    """One round's bodies, one per ``(sender, receiver, kind)`` link.  At ``n = 2``
    node 1's two X messages share one link: the later body replaces the earlier,
    both hold the same bits, and the log keeps both messages."""

    def __init__(self, n, log):
        self.n, self.log, self.bodies = n, log, {}

    def send(self, from_node, to_node, kind, body):
        """Post and log a private copy of ``body``; returns that copy."""
        if (to_node - from_node) % self.n not in (1, self.n - 1):
            raise ProtocolError(f"node {from_node} may not message node {to_node} on the cycle")
        # tuple.__new__ makes the same Message without namedtuple's Python-level __new__
        msg = tuple.__new__(Message, (from_node, to_node, kind, body.copy(), self.log.round_index))
        self.log.messages.append(msg)
        self.bodies[from_node, to_node, kind] = msg.body
        return msg.body

    def receive(self, to_node, from_node, kind):
        """Take the body on the link from ``from_node`` to ``to_node``."""
        body = self.bodies.pop((from_node, to_node, kind), None)
        if body is None:
            raise ProtocolError(f"node {to_node} expected a {kind} message from node {from_node}")
        return body


def run_round(nodes, gamma, round_index):
    """Execute one synchronous protocol round in place.

    Returns a :class:`RoundLog`; raises :class:`ProtocolError` on
    uninitialised node state or adjacency violations.
    """
    _check_blocks(nodes)
    return _round(nodes, gamma, round_index, _node_forms(nodes))[0]


def _node_forms(nodes):
    # each node's float form, its dim entry resolvents, or None for one array call
    dim = len(nodes[-1].owned_z) if len(nodes) > 1 else 0  # one node fails in the round
    return _entry_forms([node.op for node in nodes], dim)


def _resolve(node, form, arg):
    # the node's resolvent of the float list ``arg``, entry by entry or in one array call
    if form is not None:
        return np.array([res(a) for res, a in zip(form, arg)])
    return _checked_shape(node.op.resolvent(np.array(arg)), (len(arg),), "node {}", node.node_id)


def _round(nodes, gamma, round_index, forms):
    # the log and the new blocks as one array, whose rows are the z_updates
    _check_gamma(gamma)
    gamma = float(gamma)
    n = len(nodes)
    log = RoundLog(round_index=round_index)
    mail = _Mailbox(n, log)
    send, receive = mail.send, mail.receive
    # step 1: owned blocks travel to the predecessor
    for node in nodes[1:]:
        send(node.node_id, node.node_id - 1, Z_PASS, node.owned_z)
    # step 2: node 1 applies its resolvent and sends to both neighbours
    x = nodes[0].last_x = _resolve(nodes[0], forms[0], receive(1, 2, Z_PASS).tolist())
    x_prev = x.tolist()
    log.x_values[1] = send(1, 2, X_PASS, x)
    send(1, n, X_PASS, x)
    # step 3: nodes 2..n in order; node n leads with node 1's output and reports back to it.
    # Per entry, mt_step's operations: resolve lead + (x_prev - z), relax z with x - x_prev
    for i in range(2, n + 1):
        node, form = nodes[i - 1], forms[i - 1]
        lead = receive(i, i % n + 1, Z_PASS if i < n else X_PASS).tolist()
        zs = node.owned_z.tolist()
        if form is None:
            x = _resolve(node, form, [a + (p - z) for a, z, p in zip(lead, zs, x_prev)])
            xs = x.tolist()
            zn = [v + (z - p) if gamma == 1.0 else z + gamma * (v - p)
                  for v, z, p in zip(xs, zs, x_prev)]
        else:  # one pass over the entries: chain, resolve, relax
            xs, zn = [], []
            for res, a, z, p in zip(form, lead, zs, x_prev):
                v = res(a + (p - z))
                xs.append(v)
                zn.append(v + (z - p) if gamma == 1.0 else z + gamma * (v - p))
            x = np.array(xs)
        node.last_x, node.owned_z = x, np.array(zn)
        log.x_values[i] = send(i, i % n + 1, X_PASS, x)
        x_prev = xs
    z_next = gathered_z(nodes)
    log.z_updates = dict(zip(range(2, n + 1), z_next))
    return log, z_next


def run_protocol(nodes, gamma, rounds, tol=0.0):
    """Run the protocol for up to ``rounds`` rounds, each as :func:`run_round` runs it.

    Stops early once the residual reconstructed from the block updates,
    ``||z_new - z_old|| / gamma``, drops to ``tol`` (``tol=0`` runs all
    rounds).  The report's ``state.x`` stacks the last round's outputs.

    Returns ``(report, logs)``; raises :class:`ParameterError` unless
    ``rounds`` passes :func:`minsplit.splitting.check_budget`.
    """
    check_budget(rounds, "rounds")
    logs = []
    _check_blocks(nodes)
    z = gathered_z(nodes)
    forms = _node_forms(nodes)  # bound once per run

    def step():
        nonlocal z
        log, z_next = _round(nodes, gamma, len(logs) + 1, forms)
        logs.append(log)
        residual = _norm(z_next - z) / gamma
        z = z_next
        return {"residual": residual}

    def final():
        x = np.stack(list(logs[-1].x_values.values()))  # nodes 1..n in order
        return z.copy(), x, x[0].copy()

    return _solve_report(step, rounds, tol, final), logs


def round_log_csv(logs, path):
    """Export message telemetry: one row per message."""
    header = ["round", "node", "message_kind", "l2_norm_of_payload"]
    rows = [[str(log.round_index), str(msg.from_node), msg.kind,
             format_float(np.linalg.norm(msg.body))]
            for log in logs for msg in log.messages]
    write_csv(path, header, rows)
