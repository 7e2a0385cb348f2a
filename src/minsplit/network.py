"""Deterministic simulation of the decentralised cycle-graph protocol.

Each of ``n`` nodes on a cycle privately holds one monotone operator; nodes
``2..n`` additionally own one lifted block each (node ``i`` owns block
``i-1``).  One round implements a full sweep of the centralised iteration:

1. nodes ``2..n`` pass their owned block to their predecessor;
2. node 1 applies its resolvent and sends the output to both neighbours;
3. nodes ``2..n`` in turn take the block of node ``i+1`` (or, at node ``n``,
   node 1's output), read node ``i-1``'s output, apply their resolvents,
   send the output on to node ``i % n + 1`` and relax their owned block.

Every node sends exactly two messages per round, one to each cycle neighbour;
at ``n = 2`` both of node 1's go to node 2.  Each node chains and relaxes its
entries in Python floats with :func:`minsplit.splitting.mt_step`'s operations
in its order, resolving them by ``entry_resolvents(dim)`` or else by one
``resolvent`` call on an array, so the owned blocks reproduce the centralised
iterates exactly (a NaN up to its sign), not merely to tolerance.

The scheduler is synchronous and reliable.  A round keeps its traffic as data,
not as one object per message: each send logs its link and float payload, and
the round ends by making the payloads the rows of one float64 array.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ProtocolError
from .splitting import (  # consensus_spread is unused here, but bench/tracing.py rebinds it
    _check_gamma, _checked_shape, _entry_forms, _lifted, _norm, _solve_report, check_budget,
    consensus_spread,
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
    """Everything observable about one protocol round, kept as data: ``links`` holds
    each message's sender, receiver and kind, flat in send order; ``bodies`` their
    payloads as rows of one float64 array; ``x_rows`` the row of each node's first X
    message; ``z`` a copy of the new blocks.  ``messages``, ``x_values`` and
    ``z_updates`` are built from them on access, with row views as arrays."""

    round_index: int
    links: list
    bodies: np.ndarray
    x_rows: list
    z: np.ndarray

    @property
    def messages(self):
        links = self.links
        return tuple(Message(*link, body, self.round_index)
                     for *link, body in zip(links[::3], links[1::3], links[2::3], self.bodies))

    @property
    def x_values(self):
        return {i: self.bodies[row] for i, row in enumerate(self.x_rows, 1)}

    @property
    def z_updates(self):
        return dict(zip(range(2, len(self.z) + 2), self.z))


def make_nodes(ops, z0):
    """Build a cycle of nodes from operators and an initial lifted point."""
    n = len(ops)
    if n < 2:
        raise ParameterError(f"cycle needs at least 2 nodes, got {n}")
    z0 = _lifted(z0, n - 1, None, name="z0")
    return [Node(node_id=1, op=ops[0])] + [
        Node(node_id=i, op=ops[i - 1], owned_z=z0[i - 2].copy()) for i in range(2, n + 1)]


def gathered_z(nodes):
    """Concatenate the owned blocks of nodes 2..n into an (n-1, dim) array."""
    return np.array([node.owned_z for node in nodes[1:]])


class _Mailbox:
    """One round's sends, each a link ``(sender, receiver, kind)`` and a float payload,
    and the payload pending on each link.  At ``n = 2`` node 1's two X messages share
    one link: the later payload replaces the earlier, and both sends are kept."""

    def __init__(self, n):
        self.n, self.links, self.payloads, self.pending = n, [], [], {}

    def send(self, from_node, to_node, kind, payload):
        """Post the float list ``payload``; returns its row among the round's bodies."""
        if (to_node - from_node) % self.n not in (1, self.n - 1):
            raise ProtocolError(f"node {from_node} may not message node {to_node} on the cycle")
        link = (from_node, to_node, kind)
        self.links += link
        self.payloads.append(payload)
        self.pending[link] = payload
        return len(self.payloads) - 1

    def receive(self, to_node, from_node, kind):
        """Take the payload on the link from ``from_node`` to ``to_node``."""
        payload = self.pending.pop((from_node, to_node, kind), None)
        if payload is None:
            raise ProtocolError(f"node {to_node} expected a {kind} message from node {from_node}")
        return payload


def run_round(nodes, gamma, round_index):
    """Execute one synchronous protocol round in place and return its :class:`RoundLog`;
    raises :class:`ProtocolError` on uninitialised node state or adjacency violations."""
    return _round(nodes, gamma, round_index, _node_forms(nodes))


def _node_forms(nodes):
    # each node's float form, its dim entry resolvents or None for one array call, once
    # every block is set; a one-node cycle fails in the round, on its missing message
    for node in nodes[1:]:
        if node.owned_z is None:
            raise ProtocolError(f"node {node.node_id} has no initialised block")
    return _entry_forms([node.op for node in nodes], len(nodes[-1].owned_z) if nodes[1:] else 0)


def _resolve(node, form, arg):
    # the node's resolvent of the float list ``arg`` as floats, entry by entry or in one array call
    if form is not None:
        return [res(a) for res, a in zip(form, arg)]
    x = _checked_shape(node.op.resolvent(np.array(arg)), (len(arg),), "node {}", node.node_id)
    return x.tolist()


def _round(nodes, gamma, round_index, forms):
    # the round's log; its z, a copy of the new blocks, holds the z_updates as rows
    _check_gamma(gamma)
    gamma, n = float(gamma), len(nodes)
    mail = _Mailbox(n)
    send, receive = mail.send, mail.receive
    # step 1: owned blocks travel to the predecessor
    zs_old = [node.owned_z.tolist() for node in nodes[1:]]
    for i, zs in enumerate(zs_old, 2):
        send(i, i - 1, Z_PASS, zs)
    # step 2: node 1 applies its resolvent and sends to both neighbours
    x_prev = _resolve(nodes[0], forms[0], receive(1, 2, Z_PASS))
    x_rows, zs_new = [send(1, 2, X_PASS, x_prev)], []
    send(1, n, X_PASS, x_prev)
    # step 3: nodes 2..n in order; node n leads with node 1's output and reports back to it.
    # Per entry, mt_step's operations: resolve lead + (x_prev - z), relax z with x - x_prev
    for i, form, zs in zip(range(2, n + 1), forms[1:], zs_old):
        lead = receive(i, i % n + 1, Z_PASS if i < n else X_PASS)
        if form is None:
            xs = _resolve(nodes[i - 1], form, [a + (p - z) for a, z, p in zip(lead, zs, x_prev)])
            zn = [v + (z - p) if gamma == 1.0 else z + gamma * (v - p)
                  for v, z, p in zip(xs, zs, x_prev)]
        else:  # one pass over the entries: chain, resolve, relax
            xs, zn = [], []
            for res, a, z, p in zip(form, lead, zs, x_prev):
                v = res(a + (p - z))
                xs.append(v)
                zn.append(v + (z - p) if gamma == 1.0 else z + gamma * (v - p))
        zs_new.append(zn)
        x_rows.append(send(i, i % n + 1, X_PASS, xs))
        x_prev = xs
    # one conversion each: the bodies, then the outputs and blocks as node state
    bodies, z_next = np.array(mail.payloads, dtype=float), np.array(zs_new)
    for node, x in zip(nodes, bodies[x_rows]):
        node.last_x = x
    for node, z in zip(nodes[1:], z_next):
        node.owned_z = z
    return RoundLog(round_index, mail.links, bodies, x_rows, z_next.copy())


def run_protocol(nodes, gamma, rounds, tol=0.0):
    """Run the protocol for up to ``rounds`` rounds, each as :func:`run_round` runs it.

    Stops early once the residual reconstructed from the block updates,
    ``||z_new - z_old|| / gamma``, drops to ``tol`` (``tol=0`` runs all
    rounds).  The report's ``state.x`` stacks the last round's outputs.

    Returns ``(report, logs)``; raises :class:`ParameterError` unless
    ``rounds`` passes :func:`minsplit.splitting.check_budget`.
    """
    check_budget(rounds, "rounds")
    forms = _node_forms(nodes)  # bound once per run
    z, logs = gathered_z(nodes), []

    def step():
        nonlocal z
        logs.append(_round(nodes, gamma, len(logs) + 1, forms))
        z, z_old = logs[-1].z, z
        return {"residual": _norm(z - z_old) / gamma}

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
