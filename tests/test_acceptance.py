"""End-to-end acceptance battery.

One test per acceptance criterion, each asserting the stated tolerances and
printing a single pass line (run with ``pytest -s tests/test_acceptance.py``
to see them).
"""

import time

import numpy as np
import pytest

from minsplit import (
    PartialMatrix,
    SepProblem,
    ZeroOp,
    admm_auglag_step,
    admm_avg_step,
    asalm_solve,
    averaged_to_auglag,
    averagedness_check,
    cycle_laplacian,
    dr_step,
    dual_ops,
    gathered_z,
    gen_affine_monotone,
    gen_consensus,
    gen_rpca,
    make_nodes,
    mt_scheme,
    mt_solve,
    mt_step,
    op_norm,
    pdhg_solve,
    pdhg_stepsizes,
    pr_solve,
    rpca_problem,
    run_protocol,
    eval_scheme,
    check_solution_mapping,
    lifting_ok,
    ryu4_scheme,
)
from conftest import affine_ops, quadratic_block


def test_criterion_1_averagedness_inequality():
    start = time.time()
    worst = -np.inf
    for n in (2, 3, 4, 5, 6):
        for gamma in (0.1, 0.5, 0.9):
            for block in range(100):
                inst = gen_affine_monotone(n, 4, seed=1_000_000 + 1000 * n + block)
                slack = averagedness_check(
                    inst.operators(), gamma, trials=10, dim=4, seed=block
                )
                worst = max(worst, slack)
    elapsed = time.time() - start
    assert worst <= 1e-9
    assert elapsed < 30.0
    print(f"criterion 1 PASS: averagedness worst slack {worst:.2e} <= 1e-9 "
          f"({elapsed:.1f}s for 15000 pairs)")


def test_criterion_2_isometry_witness():
    ops = [ZeroOp() for _ in range(5)]
    rng = np.random.default_rng(2)
    for _ in range(100):
        z0 = rng.standard_normal((4, 1))
        z1, _ = mt_step(z0, ops, 1.0)
        # the map is exactly the cyclic shift of the four lifted blocks
        assert np.array_equal(z1, np.roll(z0, -1, axis=0))
        z = z0.copy()
        for _ in range(4):
            z, _ = mt_step(z, ops, 1.0)
        assert np.linalg.norm(z - z0) == 0.0
        # the map is an isometry realised as a pure permutation: pairwise
        # differences are carried over exactly, only reordered
        zb = rng.standard_normal((4, 1))
        tza, _ = mt_step(z0, ops, 1.0)
        tzb, _ = mt_step(zb, ops, 1.0)
        assert np.array_equal(tza - tzb, np.roll(z0 - zb, -1, axis=0))
    print("criterion 2 PASS: n=5, gamma=1, zero operators act as the exact "
          "cyclic shift; ||T^4 z - z|| = 0 for 100 random z")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated literally as ||T^5 z - z|| = 0: the shift acts on the n-1 = 4 "
        "lifted blocks, so its period is 4 and T^5 = T, which moves a generic "
        "z; the realisable exact-return property is ||T^4 z - z|| = 0 and is "
        "asserted in the test above"
    ),
)
def test_criterion_2_literal_fifth_power():
    ops = [ZeroOp() for _ in range(5)]
    rng = np.random.default_rng(2)
    for _ in range(100):
        z0 = rng.standard_normal((4, 1))
        z = z0.copy()
        for _ in range(5):
            z, _ = mt_step(z, ops, 1.0)
        assert np.linalg.norm(z - z0) == 0.0


def test_criterion_3_divergence_witness():
    ops = [ZeroOp() for _ in range(4)]
    s = ryu4_scheme(0.5)
    z = np.array([[0.0], [0.0], [1.0]])
    for k in range(1, 41):
        z = eval_scheme(s, z, ops)[0]
        ratio = float(np.linalg.norm(z)) / 1.5**k
        assert 1.0 - 1e-9 <= ratio <= 1.0 + 1e-9
    print("criterion 3 PASS: four-operator extension grows at exactly 1.5^k "
          "for 40 steps from z0=(0,0,1)")


def test_criterion_4_l1_consensus():
    # validate the oracle itself once per size by brute-force grid search
    worst_iters = {}
    for n in (10, 100):
        for seed in range(1, 21):
            inst = gen_consensus(n, seed)
            report = mt_solve(inst.operators(), gamma=0.9, tol=1e-8,
                              max_iter=50000, dim=1)
            assert report.converged, (n, seed)
            lo, hi = inst.median_interval()
            if seed <= 3:
                xs = np.linspace(inst.c.min(), inst.c.max(), 100001)
                vals = np.abs(xs[None, :] - inst.c[:, None]).sum(axis=0)
                best = xs[np.argmin(vals)]
                assert lo - 1e-3 <= best <= hi + 1e-3
            x_hat = float(report.final_x[0])
            assert lo - 1e-6 <= x_hat <= hi + 1e-6, (n, seed)
            worst_iters[n] = max(worst_iters.get(n, 0), report.iterations)
    print(f"criterion 4 PASS: consensus residual < 1e-8 and median match to "
          f"1e-6 for 20 seeds each; worst iterations {worst_iters}")


def test_criterion_5_distributed_equivalence():
    for n in (3, 10):
        inst = gen_consensus(n, seed=n)
        ops = inst.operators()
        nodes = make_nodes(ops, np.zeros((n - 1, 1)))
        z = np.zeros((n - 1, 1))
        report, logs = run_protocol(nodes, 0.9, rounds=1000, tol=0.0)
        assert len(logs) == 1000
        worst = 0.0
        z = np.zeros((n - 1, 1))
        nodes2 = make_nodes(ops, np.zeros((n - 1, 1)))
        from minsplit import run_round

        for k in range(1, 1001):
            run_round(nodes2, 0.9, k)
            z, _ = mt_step(z, ops, 0.9)
            worst = max(worst, float(np.max(np.abs(gathered_z(nodes2) - z))))
        assert worst == 0.0
        # the centralised solver itself lands on the same iterate
        central = mt_solve(ops, gamma=0.9, tol=0.0, max_iter=1000, dim=1)
        assert np.max(np.abs(gathered_z(nodes) - central.state.z)) == 0.0
        for log in logs:
            counts = {}
            for msg in log.messages:
                counts[msg.from_node] = counts.get(msg.from_node, 0) + 1
                lo_nb = ((msg.from_node - 2) % n) + 1
                hi_nb = (msg.from_node % n) + 1
                assert msg.to_node in (lo_nb, hi_nb)
            assert all(counts[i] == 2 for i in range(1, n + 1))
    print("criterion 5 PASS: 1000 protocol rounds equal centralised iterates "
          "bitwise for n=3 and n=10; exactly 2 neighbour messages per node "
          "per round")


def test_criterion_6_scheme_calculus():
    worst_eval = 0.0
    for n in (2, 3, 4, 5, 6):
        scheme = mt_scheme(n, gamma=0.9)
        for trial in range(20):
            inst, ops = affine_ops(n, 3, seed=6000 + 100 * n + trial)
            rng = np.random.default_rng(100 * n + trial)
            for _ in range(3):
                z = rng.standard_normal((n - 1, 3))
                t_out, s_out, x_s, _ = eval_scheme(scheme, z, ops)
                z_next, x_d = mt_step(z, ops, 0.9)
                worst_eval = max(
                    worst_eval,
                    float(np.max(np.abs(t_out - z_next))),
                    float(np.max(np.abs(x_s - x_d))),
                )
        inst, ops = affine_ops(n, 3, seed=6600 + n)
        report = mt_solve(ops, gamma=0.9, tol=1e-10, max_iter=200000, dim=3)
        assert report.converged
        mapping = check_solution_mapping(scheme, ops, report.state.z)
        assert mapping.drift <= 1e-8
        assert mapping.consensus_spread <= 1e-7
        assert mapping.solution_vs_mean_y <= 1e-7
        assert lifting_ok(n, n - 1)
    assert worst_eval <= 1e-12
    assert not lifting_ok(4, 2)
    print(f"criterion 6 PASS: scheme evaluation matches the direct step to "
          f"{worst_eval:.2e} <= 1e-12 on 100 instances; fixed-point drift <= "
          f"1e-8; solution map consensus <= 1e-7; lifting bound enforced")


def test_criterion_7_two_operator_reductions():
    inst, ops = affine_ops(2, 4, seed=7001)
    rng = np.random.default_rng(7)
    z_mt = rng.standard_normal((1, 4))
    z_dr = z_mt[0].copy()
    worst = 0.0
    for _ in range(100):
        z_mt, _ = mt_step(z_mt, ops, 0.9)
        z_dr, _, _ = dr_step(z_dr, ops[0], ops[1], 0.9)
        worst = max(worst, float(np.linalg.norm(z_mt[0] - z_dr)))
    assert worst <= 1e-12

    r = np.random.default_rng(70)
    qs, qv, amats = [], [], []
    for _ in range(2):
        p_ = r.standard_normal((3, 3))
        qs.append(p_.T @ p_ + 0.4 * np.eye(3))
        qv.append(r.standard_normal(3))
        amats.append(r.standard_normal((4, 3)))
    prob = SepProblem(
        blocks=tuple(quadratic_block(qs[i], qv[i], amats[i]) for i in range(2)),
        b=r.standard_normal(4),
    )
    b1, b2 = prob.blocks
    mu = np.zeros((2, 4))
    w_prev = [np.zeros(3), np.zeros(3)]
    mus, w1s, w2s = [], [], []
    for _ in range(100):
        mu, w = admm_auglag_step(prob, mu, w_prev, 1.0)
        w_prev = w
        mus.append(mu.copy())
        w1s.append(w[0])
        w2s.append(w[1])
    assert all(np.array_equal(m[0], m[1]) for m in mus)
    m_cl = mus[0][1].copy()
    u1 = w1s[0].copy()
    worst_cl = 0.0
    for t in range(1, 100):
        u2 = b2.solve(b1.apply(u1) - prob.b + m_cl)
        u1_next = b1.solve(b2.apply(u2) - prob.b + m_cl)
        m_cl = m_cl + b1.apply(u1_next) + b2.apply(u2) - prob.b
        worst_cl = max(
            worst_cl,
            float(np.linalg.norm(u2 - w2s[t - 1])),
            float(np.linalg.norm(u1_next - w1s[t])),
        )
        u1 = u1_next
    assert worst_cl <= 1e-10
    print(f"criterion 7 PASS: two-operator step equals relaxed DR to "
          f"{worst:.2e} <= 1e-12 over 100 iterations; gamma=1 two-block "
          f"multiplier form collapses to classical ADMM "
          f"(match {worst_cl:.2e} <= 1e-10)")


def _form_equivalence_deviation(problem, gamma, sweeps):
    n = problem.n
    z = np.zeros((n - 1, problem.b.size))
    mu, w_prev = averaged_to_auglag(problem, z, gamma)
    z_avg, _ = admm_avg_step(problem, z, gamma)
    worst = 0.0
    for _ in range(sweeps):
        z_avg, w_avg = admm_avg_step(problem, z_avg, gamma)
        mu, w_aug = admm_auglag_step(problem, mu, w_prev, gamma)
        w_prev = w_aug
        for i in range(n):
            worst = max(worst, float(np.linalg.norm(w_avg[i] - w_aug[i])))
    return worst


def test_criterion_8_form_equivalence():
    r = np.random.default_rng(8)
    qs = []
    for _ in range(3):
        p_ = r.standard_normal((3, 3))
        qs.append(quadratic_block(p_.T @ p_ + 0.4 * np.eye(3),
                                  r.standard_normal(3),
                                  r.standard_normal((5, 3))))
    quad = SepProblem(blocks=tuple(qs), b=r.standard_normal(5))
    worst_quad = _form_equivalence_deviation(quad, 0.7, 500)
    assert worst_quad <= 1e-10

    inst = gen_rpca(20, 20, seed=1)
    observed = PartialMatrix(values=inst.observed, mask=inst.omega)
    pca = rpca_problem(observed, 0.25, 0.1)
    worst_pca = _form_equivalence_deviation(pca, 0.8, 500)
    assert worst_pca <= 1e-10
    print(f"criterion 8 PASS: averaged and multiplier forms agree over 500 "
          f"sweeps to {worst_quad:.2e} (quadratic) and {worst_pca:.2e} "
          f"(robust PCA), both <= 1e-10")


def test_criterion_9_dual_path_consistency():
    r = np.random.default_rng(9)
    blocks = []
    for _ in range(3):
        p_ = r.standard_normal((3, 3))
        blocks.append(quadratic_block(p_.T @ p_ + 0.4 * np.eye(3),
                                      r.standard_normal(3),
                                      r.standard_normal((5, 3))))
    prob = SepProblem(blocks=tuple(blocks), b=r.standard_normal(5))
    fops = dual_ops(prob)
    gamma = 0.7
    z_dual = np.zeros((2, 5))
    z_admm = np.zeros((2, 5))
    worst = 0.0
    for _ in range(200):
        z_pre = z_dual
        z_dual, x = mt_step(z_dual, fops, gamma)
        z_admm, w_admm = admm_avg_step(prob, z_admm, gamma)
        worst = max(worst, float(np.linalg.norm(z_dual - z_admm)))
        # recover the block iterates from the dual-side resolvent inputs
        y1 = z_pre[0]
        y2 = z_pre[1] + (x[0] - z_pre[0])
        y3 = x[0] + (x[1] - z_pre[1])
        w_dual = [
            prob.blocks[0].solve(y1),
            prob.blocks[1].solve(y2),
            prob.blocks[2].solve(y3 - prob.b),
        ]
        for i in range(3):
            worst = max(worst, float(np.linalg.norm(w_dual[i] - w_admm[i])))
    assert worst <= 1e-10
    print(f"criterion 9 PASS: splitting on the dual tuple reproduces the "
          f"averaged sweeps (z and w) to {worst:.2e} <= 1e-10 over 200 "
          f"iterations")


def test_criterion_10_robust_pca_benchmark():
    start = time.time()
    inst = gen_rpca(20, 20, seed=1)
    observed = PartialMatrix(values=inst.observed, mask=inst.omega)
    prob = rpca_problem(observed, 0.25, 0.1)
    from minsplit import admm_solve

    rep = admm_solve(prob, form="averaged", gamma=0.8, tol=0.0, max_iter=2000,
                     metric_blocks=(1, 2))
    admm_l = rep.w[2].reshape(20, 20)
    resid = (rep.w[0] + rep.w[1] + rep.w[2] - prob.b).reshape(20, 20)
    admm_primal_omega = float(np.linalg.norm(resid[inst.omega]))
    admm_rel = rep.trace.last("relative_change")

    state, trace = asalm_solve(observed, 0.25, 0.1, max_iter=2000)
    asalm_primal_omega = trace.last("primal_residual_omega")
    asalm_rel = trace.last("relative_change")

    elapsed = time.time() - start
    assert admm_primal_omega <= 1e-4
    assert asalm_primal_omega <= 1e-4
    assert admm_rel <= 1e-5
    assert asalm_rel <= 1e-5
    agreement = float(
        np.linalg.norm(admm_l - state.low_rank) / (1.0 + np.linalg.norm(state.low_rank))
    )
    assert agreement <= 1e-2
    assert elapsed < 60.0
    print(f"criterion 10 PASS: 2000-iteration robust PCA: observed-set "
          f"residuals {admm_primal_omega:.1e}/{asalm_primal_omega:.1e} <= 1e-4, "
          f"relative changes {admm_rel:.1e}/{asalm_rel:.1e} <= 1e-5, recovered "
          f"low-rank parts agree to {agreement:.1e} <= 1e-2 ({elapsed:.1f}s)")


def test_criterion_11_uniform_monotonicity_limit():
    inst = gen_affine_monotone(3, 4, seed=11, moduli=(0.0, 0.5, 0.5))
    report = pr_solve(inst.operators(), tol=1e-8, max_iter=10000, dim=4)
    assert report.converged
    assert report.iterations <= 10000
    assert report.consensus_spread <= 1e-8

    rng = np.random.default_rng(11)
    z0 = rng.standard_normal((2, 4))
    flat = pr_solve([ZeroOp() for _ in range(3)], z0=z0, tol=1e-8, max_iter=2000)
    assert not flat.converged
    print(f"criterion 11 PASS: gamma=1 with strongly monotone tail operators "
          f"reaches spread {report.consensus_spread:.1e} <= 1e-8 in "
          f"{report.iterations} iterations; zero-operator isometry correctly "
          f"reported non-convergent")


def test_criterion_12_pdhg_baseline():
    lap = cycle_laplacian(10)
    norm = op_norm(lap)
    inst = gen_consensus(10, seed=1)
    lo, hi = inst.median_interval()
    for variant in (1, 2, 3):
        tau, sigma = pdhg_stepsizes(norm, variant)
        assert tau * sigma * norm**2 < 1.0
        rep = pdhg_solve(inst.c, lap, tau, sigma, tol=1e-10, max_iter=300000)
        assert rep.converged
        for xi in rep.x:
            assert lo - 1e-6 <= xi <= hi + 1e-6
    print("criterion 12 PASS: all three stepsize pairs satisfy the strict "
          "product bound and drive every coordinate into the median interval "
          "to 1e-6")
