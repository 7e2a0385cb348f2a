"""The benchmark's four workloads.

Each workload turns a sample seed into inputs (:meth:`make`, untimed), runs
the program on them (:meth:`run`, timed), and then checks the outputs
(:meth:`check`).  :meth:`fingerprint` gives the bits that the traced run must
reproduce, and :meth:`counts` the work and paper-claim counts of one sample.

A claim count is a pair ``(observed, expected)``; a sample whose observed
value differs from the expected one fails (see :func:`claim_failures`).
"""

import io
from contextlib import redirect_stdout
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from minsplit import admm, cli, network, problems, splitting
from minsplit.operators import AbsValue


def _bits(*arrays):
    return b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in arrays)


def _finite(trace):
    return all(np.all(np.isfinite(col)) for col in trace.columns.values())


def claim_failures(counts):
    return [f"{claim} is {observed}, expected {expected}"
            for claim, (observed, expected) in counts["claims"].items()
            if observed != expected]


def _calls_per_op_sweep(ops, sweeps):
    """Worst resolvent calls per operator per sweep, when the ops count calls."""
    if not hasattr(ops[0], "calls"):
        return {}
    ratios = [op.calls / sweeps for op in ops]
    return {"resolvent_calls_per_op_sweep": (max(ratios, key=lambda r: abs(r - 1.0)), 1.0)}


class Consensus:
    """Cycle consensus ``min_x sum_i |x - c_i|`` on the pure-float path.

    ``n = 10`` is the ``minsplit consensus`` default.  Sweeps to ``tol`` have
    a heavy tail (a target close to the median slows the iteration), so the
    budget is capped at ``MAX_ITER``: about 5% of instances use all of it.
    """

    name = "consensus"
    work_unit = "sweeps"
    N = 10
    GAMMA = 0.9
    TOL = 1e-8
    MAX_ITER = 800
    # relative and absolute roundoff allowed on the nonincreasing residual
    MONO_REL = 1e-9
    MONO_ABS = 1e-15

    def make(self, seed, tracer=None, small=False):
        inst = problems.gen_consensus(self.N, seed)
        ops = inst.operators()
        if tracer is not None:
            ops = tracer.wrap_ops(ops)
        return SimpleNamespace(inst=inst, ops=ops, max_iter=5 if small else self.MAX_ITER)

    def run(self, inp):
        return splitting.mt_solve(inp.ops, gamma=self.GAMMA, tol=self.TOL,
                                  max_iter=inp.max_iter, dim=1)

    def work(self, out):
        return out.iterations

    def check(self, inp, out):
        failures = []
        res = np.asarray(out.trace.columns["residual"])
        if out.diverged or not _finite(out.trace):
            failures.append("diverged or non-finite residual")
        # the update map is nonexpansive, so its fixed-point residual never grows
        elif np.any(res[1:] > res[:-1] * (1.0 + self.MONO_REL) + self.MONO_ABS):
            failures.append("fixed-point residual increased")
        if out.converged:
            lo, hi = inp.inst.median_interval()
            x = float(out.final_x[0])
            if not lo - 1e-6 <= x <= hi + 1e-6:
                failures.append(f"final_x {x!r} outside median interval [{lo!r}, {hi!r}]")
        elif out.iterations != inp.max_iter:
            failures.append(f"stopped after {out.iterations} sweeps without converging")
        return failures

    def fingerprint(self, out):
        return out.iterations, _bits(out.state.z, out.state.x)

    def counts(self, inp, out):
        return {
            "splitting.sweeps": out.iterations,
            "claims": {
                "lifted_floats": (out.state.z.size, self.N - 1),
                **_calls_per_op_sweep(inp.ops, out.iterations),
            },
        }


class Protocol:
    """The decentralised cycle protocol beside the centralised array sweep."""

    name = "protocol"
    work_unit = "sweeps+rounds"
    N = 200
    DIM = 2
    GAMMA = 0.9
    ROUNDS = 10

    def make(self, seed, tracer=None, small=False):
        c = problems.Prng(seed).normals(self.N * self.DIM).reshape(self.N, self.DIM)
        ops = [AbsValue(ci) for ci in c]
        if tracer is not None:
            ops = tracer.wrap_ops(ops)
        return SimpleNamespace(ops=ops, rounds=1 if small else self.ROUNDS)

    def run(self, inp):
        central = splitting.mt_solve(inp.ops, gamma=self.GAMMA, tol=0.0,
                                     max_iter=inp.rounds, dim=self.DIM)
        nodes = network.make_nodes(inp.ops, np.zeros((self.N - 1, self.DIM)))
        report, logs = network.run_protocol(nodes, self.GAMMA, inp.rounds, tol=0.0)
        return SimpleNamespace(central=central, report=report, logs=logs)

    def work(self, out):
        return out.central.iterations + len(out.logs)

    def check(self, inp, out):
        failures = []
        if out.central.iterations != inp.rounds or len(out.logs) != inp.rounds:
            failures.append("a solver stopped before the round budget")
        if _bits(out.report.state.z) != _bits(out.central.state.z):
            failures.append("network state.z differs from mt_solve state.z")
        return failures

    def fingerprint(self, out):
        return (out.central.iterations, len(out.logs),
                _bits(out.central.state.z, out.central.state.x, out.report.state.z))

    def counts(self, inp, out):
        sent = np.concatenate([
            np.bincount([m.from_node for m in log.messages], minlength=self.N + 1)[1:]
            for log in out.logs])
        lifted = (self.N - 1) * self.DIM
        sizes = (out.central.state.z.size, out.report.state.z.size)
        return {
            "splitting.sweeps": out.central.iterations,
            "network.rounds": len(out.logs),
            "network.message_bytes": sum(m.body.nbytes for log in out.logs
                                         for m in log.messages),
            "claims": {
                "lifted_floats": (next((s for s in sizes if s != lifted), lifted), lifted),
                "messages_per_node_round": (int(sent[np.argmax(np.abs(sent - 2))]), 2),
                **_calls_per_op_sweep(inp.ops, out.central.iterations + len(out.logs)),
            },
        }


class Rpca:
    """Partially observed robust PCA, solved by both ADMM forms and ASALM."""

    name = "rpca"
    work_unit = "sweeps"
    SIZE = 60
    LAM = 0.25
    DELTA = 0.1
    GAMMA = 0.8
    SWEEPS = 200
    FORMS_AGREE = 1e-10
    # criterion 10 asks 1e-2 after 2000 sweeps; after 200 sweeps 100 seeds
    # gave agreement up to 0.0142, so the sanity bound here is wider
    SOLVERS_AGREE = 5e-2

    def make(self, seed, tracer=None, small=False):
        inst = problems.gen_rpca(self.SIZE, self.SIZE, seed)
        observed = admm.PartialMatrix(values=inst.observed, mask=inst.omega)
        problem = admm.rpca_problem(observed, self.LAM, self.DELTA)
        if tracer is not None:
            blocks = tuple(replace(b, solve=tracer.wrap("admm.block_solve", b.solve))
                           for b in problem.blocks)
            problem = admm.SepProblem(blocks=blocks, b=problem.b)
        return SimpleNamespace(observed=observed, problem=problem,
                               sweeps=2 if small else self.SWEEPS)

    def run(self, inp):
        p, s = inp.problem, inp.sweeps
        z0 = np.zeros((p.n - 1, p.b.size))
        averaged = admm.admm_solve(p, form="averaged", gamma=self.GAMMA, tol=0.0,
                                   max_iter=s, metric_blocks=(1, 2))
        init = admm.averaged_to_auglag(p, z0, self.GAMMA)
        auglag = admm.admm_solve(p, form="auglag", gamma=self.GAMMA, init=init, tol=0.0,
                                 max_iter=s - 1, metric_blocks=(1, 2))
        state, trace = admm.asalm_solve(inp.observed, self.LAM, self.DELTA, max_iter=s)
        return SimpleNamespace(averaged=averaged, auglag=auglag, asalm=state,
                               asalm_trace=trace)

    def work(self, out):
        return out.averaged.iterations + out.auglag.iterations + len(out.asalm_trace)

    def check(self, inp, out):
        failures = []
        forms = max(float(np.max(np.abs(a - b)))
                    for a, b in zip(out.averaged.w, out.auglag.w))
        if not forms <= self.FORMS_AGREE:
            failures.append(f"ADMM forms differ by {forms!r}")
        low_rank = out.averaged.w[2].reshape(out.asalm.low_rank.shape)
        agree = float(np.linalg.norm(low_rank - out.asalm.low_rank)
                      / (1.0 + np.linalg.norm(out.asalm.low_rank)))
        if not agree <= self.SOLVERS_AGREE:
            failures.append(f"ADMM and ASALM low-rank parts differ by {agree!r}")
        if not all(_finite(t) for t in (out.averaged.trace, out.auglag.trace,
                                        out.asalm_trace)):
            failures.append("non-finite trace")
        return failures

    def fingerprint(self, out):
        return (out.averaged.iterations, out.auglag.iterations, len(out.asalm_trace),
                _bits(*out.averaged.w, *out.auglag.w, out.asalm.low_rank, out.asalm.sparse))

    def counts(self, inp, out):
        p = inp.problem
        return {
            "admm.sweeps.averaged": out.averaged.iterations,
            "admm.sweeps.auglag": out.auglag.iterations,
            "admm.sweeps.asalm": len(out.asalm_trace),
            "claims": {"lifted_floats": (out.averaged.z.size, (p.n - 1) * p.b.size)},
        }


class Verify:
    """``minsplit verify --builtin mt:4`` in-process, plus averagedness sampling."""

    name = "verify"
    work_unit = "certifications"
    OPS = 4
    DIM = 4
    GAMMA = 0.5
    TRIALS = 100
    PAIRS = 1000
    SLACK = 1e-9

    def make(self, seed, tracer=None, small=False):
        inst = problems.gen_affine_monotone(self.OPS, self.DIM, seed)
        ops = inst.operators()
        if tracer is not None:
            ops = tracer.wrap_ops(ops)
        return SimpleNamespace(seed=seed, ops=ops, trials=10 if small else self.TRIALS,
                               pairs=10 if small else self.PAIRS)

    def run(self, inp):
        text = io.StringIO()
        with redirect_stdout(text):
            code = cli.main(["verify", "--builtin", f"mt:{self.OPS}", "--seed", str(inp.seed),
                             "--trials", str(inp.trials), "--dim", str(self.DIM)])
        worst = splitting.averagedness_check(inp.ops, self.GAMMA, inp.pairs, dim=self.DIM,
                                             seed=inp.seed)
        return SimpleNamespace(code=code, text=text.getvalue(), worst=worst)

    def work(self, out):
        return 2

    def check(self, inp, out):
        failures = []
        if out.code != 0 or "overall: PASS" not in out.text.splitlines():
            failures.append(f"verify exited {out.code}: {out.text.splitlines()[-1:]}")
        if not out.worst <= self.SLACK:
            failures.append(f"averagedness slack {out.worst!r} above {self.SLACK}")
        return failures

    def fingerprint(self, out):
        return out.code, out.text, _bits(out.worst)

    def counts(self, inp, out):
        # averagedness_check makes one sweep at each point of every pair
        return {
            "splitting.averagedness_pairs": inp.pairs,
            "claims": _calls_per_op_sweep(inp.ops, 2 * inp.pairs),
        }


WORKLOADS = {w.name: w for w in (Consensus(), Protocol(), Rpca(), Verify())}
