"""How solves end: the shared fixed-point driver, non-finite runs and zero budgets."""

import math
import warnings

import numpy as np
import pytest

from minsplit import (
    AbsValue,
    MonotoneOp,
    PartialMatrix,
    Prng,
    ProxOp,
    ResidualTrace,
    SepProblem,
    ZeroOp,
    admm_solve,
    asalm_solve,
    averagedness_check,
    consensus_spread,
    cycle_laplacian,
    eval_scheme,
    gen_affine_monotone,
    gen_consensus,
    gen_rpca,
    identity_prox_block,
    kkt_residual,
    make_nodes,
    mt_scheme,
    mt_solve,
    mt_step,
    op_norm,
    pdhg_solve,
    pdhg_stepsizes,
    pr_solve,
    product_dr_solve,
    rpca_problem,
    run_protocol,
    ryu3_solve,
    ryu3_step,
    solve_scheme,
)
from minsplit.cli import main
from minsplit.errors import ParameterError, ShapeError
from minsplit.splitting import DIVERGENCE_CAP, averagedness_sample, iterate


class NanOp(MonotoneOp):
    """A broken resolvent that returns NaN, on the array path and through
    ``resolvent_scalar`` on the pure-float path ``mt_solve`` takes at ``dim = 1``."""

    def resolvent(self, y, step=1.0):
        return np.full_like(np.asarray(y, dtype=np.float64), np.nan)

    def resolvent_scalar(self, y, step=1.0):
        return math.nan


def nan_ops(n):
    # a scalar-centred AbsValue offers resolvent_scalar and takes any dim on the array path
    return [AbsValue(0.0)] + [NanOp()] + [AbsValue(0.0) for _ in range(n - 2)]


def nan_admm_problem():
    nan_block = identity_prox_block(lambda u: np.full_like(u, np.nan), 2, coercive=True)
    point = identity_prox_block(lambda u: np.ones(2), 2, coercive=True)
    return SepProblem(blocks=(nan_block, point), b=np.ones(2))


def _report(r):
    return r.iterations, r.converged, r.diverged


def _nan_scheme_run():
    _, converged, diverged, iterations = solve_scheme(
        mt_scheme(3, 0.9), nan_ops(3), dim=2, max_iter=50
    )
    return iterations, converged, diverged


def _pdhg_start(**kwargs):
    # steps strictly inside tau*sigma*||L||^2 < 1 whatever ||L|| the SVD returns
    lap = cycle_laplacian(4)
    return pdhg_solve(np.zeros(4), lap, *pdhg_stepsizes(op_norm(lap), 1), **kwargs)


NON_FINITE_REPORTS = {  # the runs that return a report, whose trace says why it stopped
    "mt_solve-scalar": lambda: mt_solve(nan_ops(3), max_iter=50, dim=1),
    "mt_solve-array": lambda: mt_solve(nan_ops(3), max_iter=50, dim=2),
    "pr_solve": lambda: pr_solve(nan_ops(3), max_iter=50, dim=1),
    "ryu3_solve": lambda: ryu3_solve(nan_ops(3), max_iter=50, dim=2),
    "product_dr_solve": lambda: product_dr_solve(nan_ops(3), max_iter=50, dim=2),
    "run_protocol": lambda: run_protocol(make_nodes(nan_ops(3), np.zeros((2, 2))), 0.9, 50)[0],
    "admm_solve-averaged": lambda: admm_solve(nan_admm_problem(), max_iter=50),
    "admm_solve-auglag": lambda: admm_solve(nan_admm_problem(), form="auglag", max_iter=50),
    "pdhg_solve": lambda: _pdhg_start(x0=np.full(4, np.nan), max_iter=50),
}

NON_FINITE_RUNS = {name: lambda run=run: _report(run()) for name, run in NON_FINITE_REPORTS.items()}
NON_FINITE_RUNS["solve_scheme"] = _nan_scheme_run  # solve_scheme returns no trace


@pytest.mark.parametrize("name", sorted(NON_FINITE_RUNS))
def test_non_finite_run_stops_at_first_sweep_as_diverged(name):
    iterations, converged, diverged = NON_FINITE_RUNS[name]()
    assert (iterations, converged, diverged) == (1, False, True)


@pytest.mark.parametrize("name", sorted(NON_FINITE_REPORTS))
def test_non_finite_run_traces_its_stop_reason(name):
    assert NON_FINITE_REPORTS[name]().trace.stop_reason == "non_finite"


def _asalm_trace(scale, max_iter):
    inst = gen_rpca(6, 6, 1)
    observed = PartialMatrix(values=scale * inst.observed, mask=inst.omega)
    with np.errstate(over="ignore", invalid="ignore"):  # a 1e300 scale overflows the norms
        return asalm_solve(observed, 0.25, 0.1, max_iter=max_iter)[1]


# every way a run ends, one reason per run: (run returning a trace, sweeps, stop reason)
STOP_REASON_RUNS = {
    "mt_solve tol": (lambda: mt_solve(gen_consensus(10, 3).operators(), dim=1).trace,
                     None, "tol"),
    "mt_solve tol=0": (lambda: mt_solve(gen_consensus(10, 3).operators(), dim=1, tol=0,
                                        max_iter=7).trace, 7, "max_iter"),
    # an expanding resolvent, y -> 3y: finite residuals that grow past the cap
    "mt_solve cap": (lambda: mt_solve([ProxOp(lambda y, s: 3.0 * y), ZeroOp(), ZeroOp()],
                                      z0=np.ones((2, 2))).trace, 55, "diverged"),
    "admm_solve tol=0": (lambda: admm_solve(_rpca_parts()[1], tol=0, max_iter=3).trace,
                         3, "max_iter"),
    "pdhg_solve tol=0": (lambda: _pdhg_start(x0=np.ones(4), tol=0, max_iter=4).trace,
                         4, "max_iter"),
    "asalm_solve budget": (lambda: _asalm_trace(1.0, 5), 5, "max_iter"),
    "asalm_solve overflow": (lambda: _asalm_trace(1e300, 5), 1, "non_finite"),
}


@pytest.mark.parametrize("name", sorted(STOP_REASON_RUNS))
def test_every_solver_trace_says_why_it_stopped(name):
    run, sweeps, reason = STOP_REASON_RUNS[name]
    trace = run()
    assert trace.stop_reason == reason
    assert sweeps is None or len(trace) == sweeps
    if reason == "diverged":  # above the cap, not non-finite
        assert DIVERGENCE_CAP < trace.last("residual") < math.inf


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


# every budget, count and block dimension is checked by check_budget
BUDGET_ENTRY_POINTS = {
    "mt_solve": ("max_iter", lambda budget: mt_solve([ZeroOp(), ZeroOp()], dim=1,
                                                     max_iter=budget)),
    "run_protocol": ("rounds", lambda budget: run_protocol(
        make_nodes(gen_consensus(3, 1).operators(), np.zeros((2, 1))), 0.9, budget
    )),
    "averagedness_sample": ("pairs", lambda budget: averagedness_sample(
        lambda z: z, 0.5, Prng(0), 1, 1, budget)),
    "mt_solve dim": ("dim", lambda dim: mt_solve(gen_consensus(3, 1).operators(), dim=dim)),
    "pr_solve dim": ("dim", lambda dim: pr_solve(gen_consensus(3, 1).operators(), dim=dim)),
    "ryu3_solve dim": ("dim", lambda dim: ryu3_solve(gen_consensus(3, 1).operators(), dim=dim)),
    "product_dr_solve dim": ("dim", lambda dim: product_dr_solve(
        gen_consensus(3, 1).operators(), dim=dim)),
    "solve_scheme dim": ("dim", lambda dim: solve_scheme(
        mt_scheme(3), gen_consensus(3, 1).operators(), dim=dim)),
    "gen_consensus n": ("n", lambda n: gen_consensus(n, 1)),
    "gen_rpca m": ("m", lambda m: gen_rpca(m, 6, 1)),
    "gen_rpca n": ("n", lambda n: gen_rpca(6, n, 1)),
    "gen_affine_monotone n_ops": ("n_ops", lambda n_ops: gen_affine_monotone(n_ops, 2, 1)),
    "gen_affine_monotone dim": ("dim", lambda dim: gen_affine_monotone(3, dim, 1)),
    "averagedness_check dim": ("dim", lambda dim: averagedness_check(
        [ZeroOp(), ZeroOp()], 0.5, 10, dim=dim)),
    "averagedness_sample blocks": ("blocks", lambda blocks: averagedness_sample(
        lambda z: z, 0.5, Prng(0), blocks, 1, 10)),
    "mt_scheme n": ("n", lambda n: mt_scheme(n)),
    "cycle_laplacian n": ("n", lambda n: cycle_laplacian(n)),
}


@pytest.mark.parametrize("budget, message", [
    (math.nan, "must be an integer, got nan"),
    (2.5, "must be an integer, got 2.5"),
    (0, "must be >= 1, got 0"),
    (-1, "must be >= 1, got -1"),
], ids=["nan", "2.5", "0", "-1"])
@pytest.mark.parametrize("entry", sorted(BUDGET_ENTRY_POINTS))
def test_bad_budget_is_a_named_parameter_error(entry, budget, message):
    name, run = BUDGET_ENTRY_POINTS[entry]
    with pytest.raises(ParameterError) as err:
        run(budget)
    assert str(err.value) == f"{name} {message}"


@pytest.mark.parametrize("run, message", [
    (lambda: gen_consensus(1, 1), "need n >= 2, got 1"),
    (lambda: gen_rpca(1, 6, 1), "need m, n >= 2, got 1x6"),
    (lambda: gen_rpca(6, 1, 1), "need m, n >= 2, got 6x1"),
    (lambda: mt_scheme(1), "need n >= 2, got 1"),
    (lambda: cycle_laplacian(2), "cycle graph needs n >= 3 nodes, got 2"),
], ids=["gen_consensus", "gen_rpca m", "gen_rpca n", "mt_scheme", "cycle_laplacian"])
def test_generators_keep_their_two_entry_minimum(run, message):
    with pytest.raises(ParameterError) as err:
        run()
    assert str(err.value) == message


def _affine_op():
    # a (3, 3) y once came back as neither the row- nor the column-wise resolvent
    return gen_affine_monotone(2, 3, 1).operators()[0]


# malformed arguments that numpy used to reject with a bare error: each is named
NAMED_ERRORS = {
    "pdhg_solve x0": (ShapeError, lambda: _pdhg_start(x0=np.zeros(3)),
                      "x0 must have shape (4,), got (3,)"),
    "pdhg_solve y0": (ShapeError, lambda: _pdhg_start(y0=np.zeros((4, 1))),
                      "y0 must have shape (4,), got (4, 1)"),
    "mt_solve z0": (ParameterError, lambda: mt_solve(gen_consensus(3, 1).operators(), z0="abc"),
                    "z0 must be a numeric array, got 'abc'"),
    "make_nodes z0": (ParameterError, lambda: make_nodes(gen_consensus(3, 1).operators(), "ab"),
                      "z0 must be a numeric array, got 'ab'"),
    "pdhg_solve lap": (ShapeError, lambda: pdhg_solve(np.zeros(3), cycle_laplacian(4), 0.1, 0.1),
                       "lap is (4, 4) but c has length 3"),
    "averagedness_check ops": (ParameterError, lambda: averagedness_check([ZeroOp()], 0.5, 10),
                               "need at least 2 operators, got 1"),
    "AffineOp y (3, 3)": (ShapeError, lambda: _affine_op().resolvent(np.ones((3, 3))),
                          "y must have shape (3,), got (3, 3)"),
    "AffineOp y (5, 3)": (ShapeError, lambda: _affine_op().resolvent(np.ones((5, 3))),
                          "y must have shape (3,), got (5, 3)"),
    "AffineOp y (4,)": (ShapeError, lambda: _affine_op().resolvent(np.ones(4)),
                        "y must have shape (3,), got (4,)"),
    "consensus_spread 1-d": (ShapeError, lambda: consensus_spread(np.array([1.0, 2.0])),
                             "x must be a non-empty 2-d array, got shape (2,)"),
    "consensus_spread (0, 3)": (ShapeError, lambda: consensus_spread(np.zeros((0, 3))),
                                "x must be a non-empty 2-d array, got shape (0, 3)"),
    "consensus_spread (3, 0)": (ShapeError, lambda: consensus_spread(np.zeros((3, 0))),
                                "x must be a non-empty 2-d array, got shape (3, 0)"),
    "consensus_spread (0, 1)": (ShapeError, lambda: consensus_spread(np.zeros((0, 1))),
                                "x must be a non-empty 2-d array, got shape (0, 1)"),
    "consensus_spread text": (ParameterError, lambda: consensus_spread("ab"),
                              "x must be a numeric array, got 'ab'"),
    "kkt_residual w": (ShapeError, lambda: _kkt_run(1, 2),
                       "need 2 w blocks, 2 dual entries; got 1, 2"),
    "kkt_residual dual": (ShapeError, lambda: _kkt_run(2, 3),
                          "need 2 w blocks, 2 dual entries; got 2, 3"),
    "kkt_residual w block length": (ShapeError, lambda: _kkt_run(2, 2, first=3),
                                    "w block 0 must have shape (2,), got (3,)"),
    "admm_solve metric_blocks 1": (ParameterError, lambda: _metric_blocks_run(1),
                                   "metric_blocks must be distinct ints in 0..1, got 1"),
    **{f"admm_solve metric_blocks {blocks}": (
        ParameterError, lambda blocks=blocks: _metric_blocks_run(blocks),
        f"metric_blocks must be distinct ints in 0..1, got {list(blocks)}",
    ) for blocks in [(5,), (1.0,), (-1,), (), (1, 1)]},
    "Prng.uniforms": (ParameterError, lambda: Prng(7).uniforms(-3), "k must be >= 0, got -3"),
    "Prng.normals": (ParameterError, lambda: Prng(7).normals(-2), "k must be >= 0, got -2"),
    "Prng.normal_rows k": (ParameterError, lambda: Prng(7).normal_rows(2, -4),
                           "k must be >= 0, got -4"),
    "Prng.normal_rows count": (ParameterError, lambda: Prng(7).normal_rows(-1, 2),
                               "count must be >= 0, got -1"),
    "Prng.subset k < 0": (ParameterError, lambda: Prng(7).subset(5, -1),
                          "subset needs 0 <= k <= n, got k=-1, n=5"),
    "Prng.subset k > n": (ParameterError, lambda: Prng(7).subset(3, 5),
                          "subset needs 0 <= k <= n, got k=5, n=3"),
    **{f"mt_solve resolvent {shape}": (
        ShapeError, lambda shape=shape: mt_solve(_shape_ops(shape), dim=2, max_iter=3),
        f"ops[1] resolvent returned shape {shape}, expected (2,)",
    ) for shape in [(1,), (), (3,)]},
    **{f"{name} resolvent {shape}": (
        ShapeError, lambda run=run, shape=shape: run(_shape_ops(shape)),
        f"ops[1] resolvent returned shape {shape}, expected (2,)",
    ) for shape in [(1,), (), (3,)] for name, run in [
        ("ryu3_step", lambda ops: ryu3_step(np.zeros((2, 2)), ops, 0.9)),
        ("product_dr_solve", lambda ops: product_dr_solve(ops, dim=2, max_iter=3)),
        ("eval_scheme", lambda ops: eval_scheme(mt_scheme(3), np.zeros((2, 2)), ops)),
    ]},
    **{f"run_protocol resolvent {shape}": (
        ShapeError, lambda shape=shape: run_protocol(
            make_nodes(_shape_ops(shape), np.zeros((2, 2))), 0.9, 3),
        f"node 2 resolvent returned shape {shape}, expected (2,)",
    ) for shape in [(1,), (), (3,)]},
    "run_protocol gamma '0.9'": (
        ParameterError,
        lambda: run_protocol(make_nodes(_shape_ops((2,)), np.zeros((2, 2))), "0.9", 2),
        "gamma must lie in (0, 1.0], got '0.9'"),
    "mt_solve gamma None": (ParameterError, lambda: mt_solve(_shape_ops((2,)), gamma=None, dim=2),
                            "gamma must lie in (0, 1.0), got None"),
    "ryu3_solve gamma 1j": (ParameterError, lambda: ryu3_solve(_shape_ops((2,)), gamma=1j, dim=2),
                            "gamma must lie in (0, 1.0), got 1j"),
    "product_dr_solve gamma [0.5]": (
        ParameterError, lambda: product_dr_solve(_shape_ops((2,)), gamma=[0.5], dim=2),
        "gamma must lie in (0, 1.0], got [0.5]"),
    "admm_solve gamma 'x'": (ParameterError, lambda: admm_solve(_identity_problem(), gamma="x"),
                             "gamma must lie in (0, 1.0), got 'x'"),
}


def _shape_ops(shape):
    # at dim 2, an operator whose resolvent returns ``shape`` between two identities
    return [ZeroOp(), ProxOp(lambda y, step: np.full(shape, 0.5)), ZeroOp()]


def _identity_problem():
    block = identity_prox_block(lambda u: u, 2, coercive=True)
    return SepProblem(blocks=(block, block), b=np.ones(2))


def _kkt_run(w_blocks, dual_size, first=2):
    # w_blocks blocks, the first of length `first`, for a problem of two length-2 blocks
    p = SepProblem(blocks=(identity_prox_block(lambda u: u, 2, coercive=True),) * 2,
                   b=np.ones(2))
    w = [np.zeros(first)] + [np.zeros(2)] * (w_blocks - 1)
    return kkt_residual(p, w, np.zeros(dual_size))


def _metric_blocks_run(metric_blocks):
    calls = []
    counting = identity_prox_block(lambda u: calls.append(u) or u, 2, coercive=True)
    try:
        admm_solve(SepProblem(blocks=(counting, counting), b=np.ones(2)), max_iter=3,
                   metric_blocks=metric_blocks)
    finally:
        assert calls == [], "a block was solved before metric_blocks was checked"


@pytest.mark.parametrize("entry", sorted(NAMED_ERRORS))
def test_malformed_argument_is_a_named_error(entry):
    error, run, message = NAMED_ERRORS[entry]
    with pytest.raises(error) as err:
        run()
    assert str(err.value) == message


def test_prng_draws_nothing_for_a_zero_count():
    prng = Prng(7)
    assert prng.uniforms(0).shape == (0,)
    assert prng.normal_rows(0, 3).shape == (0, 3)
    assert prng.normal_rows(2, 0).shape == (2, 0)
    assert prng.uniforms(3).tobytes() == Prng(7).uniforms(3).tobytes()  # nothing drawn
    assert Prng(7).subset(3, 0).size == 0
    assert list(Prng(7).subset(3, 3)) == [0, 1, 2]


def test_product_dr_solve_needs_an_operator_before_any_numpy_call():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="need at least 1 operator, got 0"):
            product_dr_solve([], dim=1)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("solve", [mt_solve, pr_solve])
def test_split_solve_needs_two_operators_on_both_paths(solve, dim):
    # checked before a sweep is chosen: under mt_solve this AbsValue would take the
    # pure-float path at dim=1 and the column path at dim=2; pr_solve always sweeps arrays
    with pytest.raises(ParameterError, match="need at least 2 operators, got 1"):
        solve([AbsValue(np.zeros(dim))], dim=dim)


ZERO_WIDTH_ENTRY_POINTS = {  # the lifted point's name and block count, and a call with it
    "mt_step": ("z", 2, lambda ops, z: mt_step(z, ops, 0.9)),
    "mt_solve": ("z0", 2, lambda ops, z: mt_solve(ops, z0=z)),
    "pr_solve": ("z0", 2, lambda ops, z: pr_solve(ops, z0=z)),
    "ryu3_solve": ("z0", 2, lambda ops, z: ryu3_solve(ops, z0=z)),
    "product_dr_solve": ("z0", 3, lambda ops, z: product_dr_solve(ops, z0=z)),
    "make_nodes": ("z0", 2, lambda ops, z: make_nodes(ops, z)),
    "solve_scheme": ("z0", 2, lambda ops, z: solve_scheme(mt_scheme(3), ops, z0=z)),
}


@pytest.mark.parametrize("kind", ["zero", "affine"])
@pytest.mark.parametrize("entry", sorted(ZERO_WIDTH_ENTRY_POINTS))
def test_zero_width_lifted_point_is_a_named_shape_error(entry, kind):
    # blocks of no entries, rejected as dim=0 is: not an IndexError, a TypeError, a
    # ZeroDivisionError in the spread, or a silently accepted (and "converged") run
    ops = [ZeroOp()] * 3 if kind == "zero" else gen_affine_monotone(3, 2, 0).operators()
    name, blocks, run = ZERO_WIDTH_ENTRY_POINTS[entry]
    with pytest.raises(ShapeError) as err:
        run(ops, np.zeros((blocks, 0)))
    assert str(err.value) == f"{name} must have {blocks} nonempty blocks, got shape ({blocks}, 0)"


def test_pr_solve_reports_a_nan_spread_when_an_output_is_nan():
    # Python's max and min skip a NaN, which let a pure-float spread read 0.5 here
    ops = [AbsValue([0.0]) for _ in range(4)]
    report = pr_solve(ops, z0=[[1.5], [-0.0], [math.nan]], tol=0, max_iter=5)
    assert _report(report) == (1, False, True)
    assert math.isnan(report.consensus_spread)
    assert math.isnan(report.trace.last("spread"))


def test_averagedness_check_needs_a_sample():
    with pytest.raises(ParameterError, match="trials must be >= 1, got 0"):
        averagedness_check([ZeroOp(), ZeroOp()], 0.5, trials=0)


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
    run = iterate(_replay_rows([3.0, 2.0, 1.0, 0.5]), trace, 10, tol=1.0)
    assert run == (3, "tol")
    assert trace.stop_reason == "tol"
    assert [row[0] for row in trace.rows()] == ["1", "2", "3"]
    assert trace.columns["residual"] == [3.0, 2.0, 1.0]


def test_iterate_exhausts_the_budget_without_a_verdict():
    assert iterate(_replay_rows([1.0] * 4), None, 4) == (4, "max_iter")


@pytest.mark.parametrize("bad, reason", [
    (math.nan, "non_finite"), (math.inf, "non_finite"), (-math.inf, "non_finite"),
    (2 * DIVERGENCE_CAP, "diverged"),
], ids=["nan", "inf", "-inf", "2000000000000.0"])
def test_iterate_divergence_wins_over_the_stop_test(bad, reason):
    # the bad row's own stop column meets tol, so only the watch can end the run there
    rows = iter([{"residual": 1.0, "stop": 5.0}, {"residual": bad, "stop": 0.0}])
    trace = ResidualTrace(["residual", "stop"])
    run = iterate(lambda: next(rows), trace, 10, tol=1.0, stop="stop")
    assert run == (2, reason)
    assert trace.stop_reason == reason
    assert len(trace) == 2


def test_iterate_watches_the_named_column():
    def step():
        return {"residual": 0.0, "delta": math.nan}

    assert iterate(step, None, 5, watch="delta") == (1, "non_finite")
