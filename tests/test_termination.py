"""How solves end: the shared fixed-point driver, non-finite runs and zero budgets."""

import math

import numpy as np
import pytest

from minsplit import (
    AbsValue,
    MonotoneOp,
    PartialMatrix,
    Prng,
    ResidualTrace,
    SepProblem,
    ZeroOp,
    admm_solve,
    asalm_solve,
    averagedness_check,
    cycle_laplacian,
    eval_scheme,
    gen_consensus,
    gen_rpca,
    identity_prox_block,
    make_nodes,
    mt_scheme,
    mt_solve,
    mt_step,
    op_norm,
    pdhg_solve,
    pdhg_stepsizes,
    point_block,
    pr_solve,
    product_dr_solve,
    rpca_problem,
    run_protocol,
    ryu3_solve,
    solve_scheme,
)
from minsplit.cli import main
from minsplit.errors import ParameterError
from minsplit.splitting import DIVERGENCE_CAP, averagedness_sample, iterate


class NanOp(MonotoneOp):
    """A broken resolvent that returns NaN, on the array and the scalar path."""

    def resolvent(self, y, step=1.0):
        return np.full_like(np.asarray(y, dtype=np.float64), np.nan)

    def resolvent_scalar(self, y, step=1.0):
        return math.nan


def nan_ops(n):
    return [ZeroOp()] + [NanOp()] + [ZeroOp() for _ in range(n - 2)]


def nan_admm_problem():
    nan_block = identity_prox_block(lambda u: np.full_like(u, np.nan), 2, coercive=True)
    return SepProblem(blocks=(nan_block, point_block(np.ones(2))), b=np.ones(2))


def _report(r):
    return r.iterations, r.converged, r.diverged


def _nan_scheme_run():
    _, converged, diverged, iterations = solve_scheme(
        mt_scheme(3, 0.9), nan_ops(3), dim=2, max_iter=50
    )
    return iterations, converged, diverged


NON_FINITE_RUNS = {
    "mt_solve-scalar": lambda: _report(mt_solve(nan_ops(3), max_iter=50, dim=1)),
    "mt_solve-array": lambda: _report(mt_solve(nan_ops(3), max_iter=50, dim=2)),
    "pr_solve": lambda: _report(pr_solve(nan_ops(3), max_iter=50, dim=1)),
    "ryu3_solve": lambda: _report(ryu3_solve(nan_ops(3), max_iter=50, dim=2)),
    "product_dr_solve": lambda: _report(product_dr_solve(nan_ops(3), max_iter=50, dim=2)),
    "run_protocol": lambda: _report(
        run_protocol(make_nodes(nan_ops(3), np.zeros((2, 2))), 0.9, 50)[0]
    ),
    "admm_solve-averaged": lambda: _report(admm_solve(nan_admm_problem(), max_iter=50)),
    "admm_solve-auglag": lambda: _report(
        admm_solve(nan_admm_problem(), form="auglag", max_iter=50)
    ),
    "solve_scheme": _nan_scheme_run,
    "pdhg_solve": lambda: _report(
        pdhg_solve(np.zeros(4), cycle_laplacian(4), 0.25, 0.25, x0=np.full(4, np.nan),
                   max_iter=50)
    ),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_RUNS))
def test_non_finite_run_stops_at_first_sweep_as_diverged(name):
    iterations, converged, diverged = NON_FINITE_RUNS[name]()
    assert (iterations, converged, diverged) == (1, False, True)


def test_nan_start_reaches_the_scalar_paths_outputs():
    # AbsValue's pure-float resolvent must carry NaN through, as prox_abs does
    ops = [AbsValue(0.1), AbsValue(0.2), AbsValue(0.3)]
    z0 = np.array([[np.nan], [0.0]])
    report = mt_solve(ops, z0=z0, max_iter=50)
    assert _report(report) == (1, False, True)
    assert np.isnan(report.state.x).all()
    assert np.array_equal(report.state.x, mt_step(z0, ops, 0.9)[1], equal_nan=True)


def test_non_finite_map_fails_the_averagedness_check():
    assert averagedness_check(nan_ops(3), 0.5, 50, dim=2) == math.inf


def test_non_finite_scheme_update_fails_the_averagedness_sample():
    # the sampler behind `minsplit verify`, on the scheme evaluation it runs
    sch = mt_scheme(3, 0.5)
    ops = nan_ops(3)
    slack = averagedness_sample(
        lambda z: eval_scheme(sch, z, ops)[0], 0.5, Prng(1), sch.d, 2, 10
    )
    assert slack == math.inf


def _rpca_parts():
    inst = gen_rpca(6, 6, 1)
    observed = PartialMatrix(values=inst.observed, mask=inst.omega)
    return observed, rpca_problem(observed, 0.25, 0.1)


def _pdhg_zero():
    c = gen_consensus(4, 1).c
    lap = cycle_laplacian(4)
    tau, sigma = pdhg_stepsizes(op_norm(lap), 1)
    return pdhg_solve(c, lap, tau, sigma, max_iter=0)


ZERO_BUDGET_RUNS = {
    "mt_solve": lambda: mt_solve(gen_consensus(4, 1).operators(), max_iter=0, dim=1),
    "pr_solve": lambda: pr_solve(gen_consensus(4, 1).operators(), max_iter=0, dim=1),
    "ryu3_solve": lambda: ryu3_solve(gen_consensus(3, 1).operators(), max_iter=0, dim=1),
    "product_dr_solve": lambda: product_dr_solve(
        gen_consensus(4, 1).operators(), max_iter=0, dim=1
    ),
    "run_protocol": lambda: run_protocol(
        make_nodes(gen_consensus(4, 1).operators(), np.zeros((3, 1))), 0.9, 0
    ),
    "solve_scheme": lambda: solve_scheme(
        mt_scheme(4), gen_consensus(4, 1).operators(), dim=1, max_iter=0
    ),
    "admm_solve-averaged": lambda: admm_solve(_rpca_parts()[1], max_iter=0),
    "admm_solve-auglag": lambda: admm_solve(_rpca_parts()[1], form="auglag", max_iter=0),
    "asalm_solve": lambda: asalm_solve(_rpca_parts()[0], 0.25, 0.1, max_iter=0),
    "pdhg_solve": _pdhg_zero,
}


@pytest.mark.parametrize("name", sorted(ZERO_BUDGET_RUNS))
def test_zero_budget_raises_parameter_error(name):
    with pytest.raises(ParameterError):
        ZERO_BUDGET_RUNS[name]()


@pytest.mark.parametrize("command", ["consensus", "rpca"])
def test_cli_zero_budget_exits_2_with_parameter_error(capsys, command):
    rc = main([command, "--max-iter", "0"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ParameterError")
    assert "Traceback" not in captured.err


def _replay_rows(values):
    it = iter(values)
    return lambda: {"residual": next(it)}


def test_iterate_traces_every_sweep_and_stops_on_the_callers_test():
    trace = ResidualTrace(["residual"])
    run = iterate(_replay_rows([3.0, 2.0, 1.0, 0.5]), trace, 10,
                  lambda row: row["residual"] <= 1.0)
    assert run == (3, True, False)
    assert [row[0] for row in trace.rows()] == ["1", "2", "3"]
    assert trace.columns["residual"] == [3.0, 2.0, 1.0]


def test_iterate_exhausts_the_budget_without_a_verdict():
    assert iterate(_replay_rows([1.0] * 4), None, 4, lambda row: False) == (4, False, False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2 * DIVERGENCE_CAP])
def test_iterate_divergence_wins_over_the_stop_test(bad):
    trace = ResidualTrace(["residual"])
    run = iterate(_replay_rows([1.0, bad]), trace, 10, lambda row: row["residual"] != 1.0)
    assert run == (2, False, True)
    assert len(trace) == 2


def test_iterate_watches_the_named_column():
    def step():
        return {"residual": 0.0, "delta": math.nan}

    assert iterate(step, None, 5, lambda row: False, watch="delta") == (1, False, True)
