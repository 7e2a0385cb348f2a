"""Spans and call counts recorded from outside the package.

The traced run rebinds public names in the package's modules to wrappers
that time each call, and wraps the operators and block solvers a workload
hands to the solvers.  Nothing under ``src/`` is edited, and every rebinding
is undone when :func:`installed` exits.

Two kinds of call are recorded:

* kept spans (solver entry points, instance generators, the CLI) are stored
  in memory as ``(sample, id, name, start, end, parent)`` and written out
  when the run ends;
* hot calls (resolvents, proxes, SVDs, spreads, trace appends) run millions
  of times per run, so they are only aggregated per name.

Every call, kept or hot, pushes a frame, so each name's self time is its
duration minus the time covered by the calls made inside it.
"""

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import minsplit.admm
import minsplit.cli
import minsplit.linalg
import minsplit.network
import minsplit.problems
import minsplit.scheme
import minsplit.splitting
from minsplit.trace import ResidualTrace


class Tracer:
    """Call stack, kept spans and per-name totals of one traced run."""

    def __init__(self):
        self.sample = -1
        self.spans = []
        self.stack = []
        self.next_id = 0
        # name -> [calls, total seconds, self seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        # name -> summed count returned by a wrapper's ``count`` hook
        self.counts = defaultdict(int)

    def call(self, name, keep, fn, args, kwargs, count=None):
        span_id = parent = None
        if keep:
            span_id = self.next_id
            self.next_id += 1
            parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
        frame = [perf_counter(), 0.0, span_id]
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            dur = end - frame[0]
            total = self.totals[name]
            total[0] += 1
            total[1] += dur
            total[2] += dur - frame[1]
            if self.stack:
                self.stack[-1][1] += dur
            if keep:
                self.spans.append((self.sample, span_id, name, frame[0], end, parent))
        if count is not None:
            self.counts[name] += count(result)
        return result

    def wrap(self, name, fn, keep=False, count=None):
        """A function that records every call of ``fn`` under ``name``.

        ``name`` may be a callable of ``(args, kwargs)`` returning the name.
        """
        def wrapped(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            return self.call(label, keep, fn, args, kwargs, count)

        return wrapped

    def calls(self, name):
        return self.totals[name][0] if name in self.totals else 0

    def total_s(self, name):
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, name):
        return self.totals[name][2] if name in self.totals else 0.0

    def wrap_ops(self, ops):
        return [CountedScalarOp(op, self) if hasattr(op, "resolvent_scalar")
                else CountedOp(op, self) for op in ops]

    def write(self, path):
        """Write the kept spans, one JSON object per line."""
        with open(path, "w") as fh:
            for sample, span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"sample": sample, "id": span_id, "name": name,
                                     "start": start, "end": end, "parent": parent}))
                fh.write("\n")


class CountedOp:
    """A monotone operator whose resolvent calls are counted and timed."""

    def __init__(self, op, tracer):
        self.op = op
        self.calls = 0
        self._tracer = tracer

    def resolvent(self, y, step=1.0):
        self.calls += 1
        return self._tracer.call("operators.resolvent", False, self.op.resolvent,
                                 (y, step), {})


class CountedScalarOp(CountedOp):
    """:class:`CountedOp` for operators with a pure-float resolvent.

    The solvers pick the scalar path with ``hasattr(op, "resolvent_scalar")``,
    so a wrapper must expose it exactly when the wrapped operator does.
    """

    def resolvent_scalar(self, y, step=1.0):
        self.calls += 1
        return self._tracer.call("operators.resolvent", False, self.op.resolvent_scalar,
                                 (y, step), {})


def _admm_form(args, kwargs):
    return "admm.admm_solve." + kwargs["form"]


# (module or class, attribute, span name, kept, count hook)
REBINDINGS = (
    (minsplit.splitting, "mt_solve", "splitting.mt_solve", True, None),
    (minsplit.splitting, "averagedness_check", "splitting.averagedness_check", True, None),
    (minsplit.splitting, "consensus_spread", "splitting.consensus_spread", False, None),
    (minsplit.network, "consensus_spread", "splitting.consensus_spread", False, None),
    (minsplit.network, "run_protocol", "network.run_protocol", True, None),
    (minsplit.admm, "admm_solve", _admm_form, True, None),
    (minsplit.admm, "averaged_to_auglag", "admm.averaged_to_auglag", True, None),
    (minsplit.admm, "asalm_solve", "admm.asalm_solve", True, None),
    (minsplit.admm, "prox_nuclear", "operators.prox_nuclear", False, None),
    (minsplit.admm, "prox_l1", "operators.prox_l1", False, None),
    (minsplit.admm, "project_partial_ball", "operators.project_partial_ball", False, None),
    (minsplit.linalg, "svd", "linalg.svd", False, None),
    (minsplit.scheme, "eval_scheme", "scheme.eval_scheme", False, None),
    (minsplit.scheme, "solve_scheme", "scheme.solve_scheme", True, lambda r: r[3]),
    (minsplit.problems, "gen_consensus", "problems.gen_consensus", True, None),
    (minsplit.problems, "gen_rpca", "problems.gen_rpca", True, None),
    (minsplit.problems, "gen_affine_monotone", "problems.gen_affine_monotone", True, None),
    (ResidualTrace, "append", "trace.append", False, None),
    (minsplit.cli, "main", "cli.main", True, None),
)


@contextmanager
def installed(tracer):
    """Rebind every name in :data:`REBINDINGS` to a recording wrapper.

    The originals are put back on exit, also when the body raises.
    """
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in REBINDINGS]
    try:
        for owner, attr, name, keep, count in REBINDINGS:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), keep, count))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def snapshot():
    """The objects currently bound to every name in :data:`REBINDINGS`."""
    return [owner.__dict__[attr] for owner, attr, *_ in REBINDINGS]
