import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from minsplit import (
    KernelWitness,
    SchemeMatrices,
    ZeroOp,
    check_solution_mapping,
    eval_scheme,
    kernel_residuals,
    lifting_ok,
    load_scheme,
    mt_scheme,
    mt_solve,
    mt_step,
    ryu3_scheme,
    ryu3_step,
    ryu4_scheme,
    save_scheme,
    solve_scheme,
    witness_from_point,
)
from minsplit.errors import NotAFixedPointError, ParameterError, SchemeParseError, ShapeError

from conftest import affine_ops


def test_scheme_matrices_validation():
    with pytest.raises(ShapeError):
        SchemeMatrices(
            n=2, d=1,
            B=np.ones((2, 1)), L=np.ones((2, 2)),  # L not strictly lower
            Tz=np.eye(1), Tx=np.ones((1, 2)), Sz=np.zeros((1, 1)), Sx=np.ones((1, 2)),
        )
    with pytest.raises(ShapeError):
        SchemeMatrices(
            n=2, d=1,
            B=np.ones((3, 1)), L=np.zeros((2, 2)),
            Tz=np.eye(1), Tx=np.ones((1, 2)), Sz=np.zeros((1, 1)), Sx=np.ones((1, 2)),
        )
    # a package error that is still a ValueError
    with pytest.raises(ParameterError, match="Tx contains non-finite entries"):
        SchemeMatrices(
            n=2, d=1,
            B=np.ones((2, 1)), L=np.zeros((2, 2)),
            Tz=np.eye(1), Tx=np.array([[np.nan, 1.0]]), Sz=np.zeros((1, 1)), Sx=np.ones((1, 2)),
        )


def test_dr_matrices_literal():
    # one-block encoding of Douglas-Rachford: y1 = z, y2 = 2 x1 - z,
    # T = z + x2 - x1, S = x1
    s = mt_scheme(2, gamma=1.0)
    assert np.array_equal(s.B, np.array([[1.0], [-1.0]]))
    assert np.array_equal(s.L, np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert np.array_equal(s.Tz, np.eye(1))
    assert np.array_equal(s.Tx, np.array([[-1.0, 1.0]]))
    assert np.array_equal(s.Sz, np.zeros((1, 1)))
    assert np.array_equal(s.Sx, np.array([[1.0, 0.0]]))


def test_dr_scheme_matches_direct_formula(rng):
    inst, ops = affine_ops(2, 3, seed=31)
    s = mt_scheme(2, gamma=1.0)
    for _ in range(20):
        z = rng.standard_normal((1, 3))
        t_out, s_out, x, y = eval_scheme(s, z, ops)
        x1 = ops[0].resolvent(z[0])
        x2 = ops[1].resolvent(2.0 * x1 - z[0])
        direct = z[0] + x2 - x1
        assert np.linalg.norm(t_out[0] - direct) <= 1e-12
        assert np.linalg.norm(s_out - x1) <= 1e-12


def test_eval_scheme_zero_ops_is_linear(rng):
    s = mt_scheme(4, gamma=0.7)
    ops = [ZeroOp() for _ in range(4)]
    z = rng.standard_normal((3, 2))
    t_out, s_out, x, y = eval_scheme(s, z, ops)
    assert np.array_equal(x, y)
    # propagate the linear recursion by hand
    x_ref = np.zeros((4, 2))
    for i in range(4):
        x_ref[i] = s.B[i] @ z + s.L[i, :i] @ x_ref[:i]
    assert np.allclose(x, x_ref, atol=1e-14)
    assert np.allclose(t_out, s.Tz @ z + s.Tx @ x_ref, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mt_scheme_matches_direct_step(n, rng):
    inst, ops = affine_ops(n, 3, seed=40 + n)
    for gamma in (0.5, 0.9):
        s = mt_scheme(n, gamma)
        for _ in range(20):
            z = rng.standard_normal((n - 1, 3))
            t_out, s_out, x_s, _ = eval_scheme(s, z, ops)
            z_next, x_d = mt_step(z, ops, gamma)
            assert np.max(np.abs(t_out - z_next)) <= 1e-12
            assert np.max(np.abs(x_s - x_d)) <= 1e-12
            assert np.linalg.norm(s_out - x_d[0]) <= 1e-12


def test_ryu3_scheme_matches_step(rng):
    inst, ops = affine_ops(3, 2, seed=51)
    s = ryu3_scheme(0.8)
    for _ in range(20):
        z = rng.standard_normal((2, 2))
        t_out, _, x_s, _ = eval_scheme(s, z, ops)
        z_next, x_d = ryu3_step(z, ops, 0.8)
        assert np.max(np.abs(t_out - z_next)) <= 1e-12
        assert np.max(np.abs(x_s - x_d)) <= 1e-12


def test_eval_scheme_deterministic(rng):
    inst, ops = affine_ops(3, 3, seed=53)
    s = mt_scheme(3, 0.9)
    z = rng.standard_normal((2, 3))
    first = eval_scheme(s, z, ops)
    second = eval_scheme(s, z, ops)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# kernel witnesses


def test_kernel_residuals_at_converged_fixed_point():
    inst, ops = affine_ops(2, 3, seed=54)
    report = mt_solve(ops, gamma=0.9, tol=1e-10, max_iter=100000, dim=3)
    s = mt_scheme(2, gamma=0.9)
    witness = witness_from_point(s, report.state.z, ops)
    r1, r2, r3 = kernel_residuals(s, witness)
    assert r1 <= 1e-8 and r2 <= 1e-8 and r3 <= 1e-8


def test_kernel_residuals_zero_witness():
    s = mt_scheme(3, gamma=0.9)
    w = KernelWitness(
        z=np.zeros((2, 1)), x=np.zeros((3, 1)), y=np.zeros((3, 1)), a=np.zeros((3, 1))
    )
    assert kernel_residuals(s, w) == (0.0, 0.0, 0.0)


def test_kernel_residuals_detect_perturbation():
    inst, ops = affine_ops(3, 2, seed=55)
    report = mt_solve(ops, gamma=0.9, tol=1e-11, max_iter=100000, dim=2)
    s = mt_scheme(3, gamma=0.9)
    witness = witness_from_point(s, report.state.z, ops)
    x_bad = witness.x.copy()
    x_bad[1] += 1.0
    bad = KernelWitness(z=witness.z, x=x_bad, y=witness.y, a=witness.a)
    r1, r2, r3 = kernel_residuals(s, bad)
    assert max(r1, r3) >= 0.5


# ---------------------------------------------------------------------------
# solution mapping


def test_solution_mapping_at_dr_fixed_point():
    inst, ops = affine_ops(2, 3, seed=56)
    report = mt_solve(ops, gamma=0.9, tol=1e-11, max_iter=100000, dim=3)
    s = mt_scheme(2, gamma=0.9)
    rep = check_solution_mapping(s, ops, report.state.z)
    assert rep.consensus_spread <= 1e-7
    assert rep.solution_vs_mean_y <= 1e-7
    assert rep.inclusion_residual <= 1e-7


def test_solution_mapping_zero_ops_spread_zero():
    s = mt_scheme(4, gamma=0.9)
    ops = [ZeroOp() for _ in range(4)]
    rep = check_solution_mapping(s, ops, np.zeros((3, 2)))
    assert rep.consensus_spread == 0.0


def test_solution_mapping_mt4():
    inst, ops = affine_ops(4, 3, seed=57)
    report = mt_solve(ops, gamma=0.9, tol=1e-11, max_iter=200000, dim=3)
    s = mt_scheme(4, gamma=0.9)
    rep = check_solution_mapping(s, ops, report.state.z)
    assert rep.solution_vs_mean_y <= 1e-7
    assert rep.consensus_spread <= 1e-7
    assert np.linalg.norm(rep.solution - inst.solution) <= 1e-6


def test_solution_mapping_rejects_non_fixed_point(rng):
    inst, ops = affine_ops(3, 2, seed=58)
    with pytest.raises(NotAFixedPointError):
        check_solution_mapping(mt_scheme(3, 0.9), ops, rng.standard_normal((2, 2)))


# ---------------------------------------------------------------------------
# lifting dimensions


def test_lifting_bounds():
    assert lifting_ok(3, 2)
    assert not lifting_ok(4, 2)
    assert lifting_ok(1, 1)
    assert lifting_ok(2, 1)
    assert not lifting_ok(5, 3)


def test_lifting_ok_on_matrices():
    good = mt_scheme(4, 0.9)
    assert lifting_ok(good.n, good.d)
    bad = SchemeMatrices(
        n=4, d=2,
        B=np.zeros((4, 2)), L=np.zeros((4, 4)),
        Tz=np.eye(2), Tx=np.zeros((2, 4)), Sz=np.zeros((1, 2)), Sx=np.zeros((1, 4)),
    )
    assert not lifting_ok(bad.n, bad.d)


# ---------------------------------------------------------------------------
# serialisation


def test_scheme_roundtrip(tmp_path):
    s = mt_scheme(4, gamma=0.55)
    path = tmp_path / "scheme.txt"
    save_scheme(s, path)
    loaded = load_scheme(path)
    for name in ("B", "L", "Tz", "Tx", "Sz", "Sx"):
        assert np.array_equal(getattr(s, name), getattr(loaded, name)), name
    assert (loaded.n, loaded.d) == (4, 3)


def test_scheme_parse_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n")
    with pytest.raises(SchemeParseError) as err:
        load_scheme(path)
    assert err.value.line_no == 1

    path.write_text("2 1\n1\n-1\n0 0\n2 0\n1\n-1 1\n0\n1 oops\n")
    with pytest.raises(SchemeParseError) as err:
        load_scheme(path)
    assert "Sx" in str(err.value) or "non-numeric" in str(err.value)


def test_scheme_parse_reports_line_numbers(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("2 1\n1\n")
    with pytest.raises(SchemeParseError) as err:
        load_scheme(path)
    assert err.value.line_no >= 1


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_scheme_parse_reports_non_finite_entry_on_its_line(tmp_path, entry):
    path = tmp_path / "nan.txt"
    save_scheme(mt_scheme(3, 0.5), path)
    lines = path.read_text().splitlines()
    # header, then B (3 rows), L (3 rows) and Tz (2 rows), each after a blank
    assert lines[13] == "-0.5 0.5 0.0"
    lines[13] = f"{entry} 0.5 0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemeParseError) as err:
        load_scheme(path)
    assert err.value.line_no == 14
    assert str(err.value) == "line 14: Tx row 1 contains non-finite entries"


def test_scheme_parse_skips_comments_and_rejects_trailing(tmp_path):
    path = tmp_path / "dr.txt"
    save_scheme(mt_scheme(2, 0.5), path)
    text = path.read_text()
    path.write_text("# Douglas-Rachford\n" + text.replace("\n\n", "\n# block\n\n"))
    loaded = load_scheme(path)
    assert np.array_equal(loaded.Tx, mt_scheme(2, 0.5).Tx)
    path.write_text(text + "0.0\n")
    with pytest.raises(SchemeParseError) as err:
        load_scheme(path)
    assert err.value.line_no == len(text.splitlines()) + 1


def test_scheme_parse_reports_inconsistent_blocks_at_header(tmp_path):
    path = tmp_path / "upper.txt"
    path.write_text("# upper triangular L\n2 1\n1\n-1\n0 1\n0 0\n1\n-1 1\n0\n1 0\n")
    with pytest.raises(SchemeParseError) as err:
        load_scheme(path)
    assert err.value.line_no == 2 and "lower triangular" in str(err.value)


@given(n=st.integers(1, 5), d=st.integers(1, 5), data=st.data())
def test_scheme_round_trip_is_exact(tmp_path_factory, n, d, data):
    def matrix(rows, cols):
        entries = st.floats(allow_nan=False, allow_infinity=False)
        values = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
        return np.array(values, dtype=np.float64).reshape(rows, cols)

    s = SchemeMatrices(n=n, d=d, B=matrix(n, d), L=np.tril(matrix(n, n), -1),
                       Tz=matrix(d, d), Tx=matrix(d, n), Sz=matrix(1, d), Sx=matrix(1, n))
    tmp = tmp_path_factory.mktemp("scheme")
    save_scheme(s, tmp / "s.txt")
    loaded = load_scheme(tmp / "s.txt")
    save_scheme(loaded, tmp / "again.txt")
    assert (tmp / "again.txt").read_bytes() == (tmp / "s.txt").read_bytes()
    for name in ("B", "L", "Tz", "Tx", "Sz", "Sx"):
        assert np.array_equal(getattr(s, name), getattr(loaded, name)), name


def test_solve_scheme_converges_and_diverges():
    inst, ops = affine_ops(3, 2, seed=60)
    z, conv, div, _ = solve_scheme(mt_scheme(3, 0.9), ops, dim=2, tol=1e-10,
                                   max_iter=50000)
    assert conv and not div
    zero_ops = [ZeroOp() for _ in range(4)]
    z0 = np.array([[0.0], [0.0], [1.0]])
    _, conv, div, _ = solve_scheme(ryu4_scheme(0.9), zero_ops, z0=z0, max_iter=200)
    assert div and not conv
