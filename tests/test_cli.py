import dataclasses
import hashlib

import numpy as np
import pytest

from minsplit import SchemeMatrices, mt_scheme, ryu3_scheme, save_scheme, scheme
from minsplit.cli import main


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_consensus_writes_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    common = ["consensus", "--n", "10", "--seed", "1", "--algorithms", "mt,pdhg1",
              "--max-iter", "3000"]
    rc1, _, _ = run_cli(capsys, *common, "--out", str(out1))
    rc2, _, _ = run_cli(capsys, *common, "--out", str(out2))
    assert rc1 == 0 and rc2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "k,algorithm,residual"
    algos = {line.split(",")[1] for line in lines[1:]}
    assert algos == {"mt", "pdhg1"}


def test_consensus_mt_reaches_tolerance(tmp_path, capsys):
    out = tmp_path / "mt.csv"
    rc, stdout, _ = run_cli(
        capsys, "consensus", "--n", "10", "--seed", "1", "--algorithms", "mt",
        "--tol", "1e-8", "--out", str(out)
    )
    assert rc == 0
    final = float(out.read_text().splitlines()[-1].split(",")[2])
    assert final <= 1e-8


def test_consensus_rejects_unknown_algorithm(capsys):
    rc, _, err = run_cli(capsys, "consensus", "--algorithms", "sgd")
    assert rc == 2
    assert "error:" in err and "sgd" in err


def test_consensus_ryu3_needs_three_operators(capsys):
    rc, _, err = run_cli(capsys, "consensus", "--n", "10", "--algorithms", "ryu3")
    assert rc == 2
    assert "ryu3" in err


def test_rpca_smoke(tmp_path, capsys):
    out = tmp_path / "rpca.csv"
    prefix = tmp_path / "rec"
    rc, stdout, _ = run_cli(
        capsys, "rpca", "--m", "12", "--n", "12", "--seed", "1",
        "--max-iter", "50", "--out", str(out), "--matrix-out", str(prefix),
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,algorithm,relative_change,primal_residual"
    assert (tmp_path / "rec_admm_avg_L.txt").exists()
    assert (tmp_path / "rec_admm_avg_S.txt").exists()
    assert (tmp_path / "rec_asalm_L.txt").exists()
    loaded = np.loadtxt(tmp_path / "rec_admm_avg_L.txt")
    assert loaded.shape == (12, 12)


def test_rpca_deterministic(tmp_path, capsys):
    args = ["rpca", "--m", "10", "--n", "10", "--seed", "2", "--max-iter", "30"]
    out1, out2 = tmp_path / "1.csv", tmp_path / "2.csv"
    run_cli(capsys, *args, "--out", str(out1))
    run_cli(capsys, *args, "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_builtin_mt_passes(capsys):
    rc, stdout, _ = run_cli(capsys, "verify", "--builtin", "mt:4", "--trials", "30",
                            "--dim", "3")
    assert rc == 0
    assert "lifting: PASS" in stdout
    assert "averagedness: PASS" in stdout
    assert "overall: PASS" in stdout


def test_verify_builtin_ryu4_fails_averagedness(capsys):
    rc, stdout, _ = run_cli(capsys, "verify", "--builtin", "ryu4", "--trials", "30",
                            "--dim", "3")
    assert rc == 1
    assert "lifting: PASS" in stdout
    assert "averagedness: FAIL" in stdout
    assert "divergence: detected" in stdout
    assert "overall: FAIL" in stdout


def _fixed_points_line(stdout):
    return next(line for line in stdout.splitlines() if line.startswith("divergence:"))


def test_verify_honours_max_iter(capsys):
    args = ("verify", "--builtin", "mt:4", "--trials", "30", "--dim", "3")
    _, full, _ = run_cli(capsys, *args)
    rc, cut, _ = run_cli(capsys, *args, "--max-iter", "1")
    assert "(0 fixed points reached)" not in _fixed_points_line(full)
    assert _fixed_points_line(cut) == "divergence: not detected (0 fixed points reached)"
    assert rc == 1


def test_verify_zero_budget_exits_2_with_parameter_error(capsys):
    rc, out, err = run_cli(capsys, "verify", "--builtin", "mt:4", "--max-iter", "0")
    assert rc == 2
    assert err == "error: ParameterError: max_iter must be >= 1, got 0\n"
    assert out == ""


@pytest.mark.parametrize("dim", ["0", "-3"])
def test_verify_bad_dim_exits_2_before_printing(capsys, dim):
    rc, out, err = run_cli(capsys, "verify", "--builtin", "mt:4", "--dim", dim)
    assert rc == 2
    assert err == f"error: ParameterError: dim must be >= 1, got {dim}\n"
    assert out == ""


# SHA-256 of the CSVs as first written.  mt at dim=1 runs in Python floats,
# ryu3 in elementwise ufuncs and the norm of a 2-vector, so the bytes depend
# on no matrix kernel and must not move when a change only makes solvers faster
GOLDEN_CSV_SHA256 = {
    "mt": "83da2aa35052ceef43dcf1cce21ae77c9a5103ec277cd6f1e858261fb91360e9",
    "mt,ryu3": "07135df2055b24c8f2ba1f0cbf86afecf6cd356d08a3ad04c16014eaddd1e0af",
}


@pytest.mark.parametrize("n, algorithms", [(10, "mt"), (3, "mt,ryu3")])
def test_consensus_csv_bytes_are_golden(tmp_path, capsys, n, algorithms):
    out = tmp_path / "golden.csv"
    rc, _, _ = run_cli(capsys, "consensus", "--n", str(n), "--algorithms", algorithms,
                       "--out", str(out))
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[algorithms]


# exit code and SHA-256 of the stdout of `verify --builtin X --seed S`; the
# averaged schemes pass and ryu3, ryu4 fail.  The report prints the slack with
# repr, so these move whenever a sampled point or a slack changes a single bit.
# A key may add flags after the builtin ("mt:4 --dim 4 --trials 100" is the
# benchmark's own run), and a "file:" key reads a SAVED_SCHEMES entry back
# from a scheme file instead (the saved ryu3 prints the builtin's bytes)
GOLDEN_VERIFY = {
    ("mt:4", 1): (0, "2be6cb21c30bc83a490e54cc508ff3e0ce7e5ec24d198b9542f7b7bf391277ef"),
    ("mt:4", 2): (0, "f63e4065939ea0aeda5287c54e4fb2580663721b342584d9961be1b823b154a5"),
    ("mt:4", 3): (0, "0d292e1cb3f21f88162d627cb37ed15aa3f35c6fc9eae4f529f134a40497d2b6"),
    ("dr", 1): (0, "c84f0dd293dafa4bec5d52c5cdcf58e33e4c9f3382e75bc031fb93c6768b970e"),
    ("dr", 2): (0, "09170abd212e5048decb001c9a76771489198ae395297a6644583e28efa98b90"),
    ("dr", 3): (0, "f2b1e4269a8b22dfbdd147cc3adb6fdd9e5e47fb7910fb3a748ada68306eac0d"),
    ("ryu3", 1): (1, "91526e2c72c7d02fc7efe24aecac30b2ba78cff3ec3adc6b01c12a63ad591bd1"),
    ("ryu3", 2): (1, "acbaa5fd37401f639a227bc99965cd0f872ffe7d8bcdce6ae4e4b7a4493929d0"),
    ("ryu3", 3): (1, "3bfbe21e0b9cb3fd63681a28e87978fb7d3482a895e4f0eb30048ae22b8bf6fa"),
    ("ryu4", 1): (1, "c36dd21a5962946481a9422f2c9eb7f60b86bc7354e813b8cbd8fff11fca7d93"),
    ("ryu4", 2): (1, "d59216dcaad3ff7bb73718e7d9d1eb787f2544a7feaf9a6bc4296abc297140de"),
    ("ryu4", 3): (1, "4e977f008f784b8ceae2ca2748c4692ad81144e41d33115817fec5f0293247da"),
    ("mt:4 --dim 4 --trials 100", 1):
        (0, "d491cf6dfce4eb1617130fc6f42831deabfb9610cdb1660afb19e2537d938e6b"),
    ("mt:4 --dim 4 --trials 100", 2):
        (0, "4c1fbd3d7382ce4153861d0e9e7bf6e3f5268e8e955be6d4f5fc0148d0b61369"),
    ("mt:4 --dim 4 --trials 100", 3):
        (0, "090d81f39886c0551c64998c483948bd35ff9bcfb37308663d854d46bfa0de67"),
    ("file:mt5 --gamma 0.6", 1):
        (0, "2f19c4ae601cbadac30ee621dfebb7bc08cca56d4b39c43a910357f632894be1"),
    ("file:ryu3 --gamma 0.5", 1):
        (1, "91526e2c72c7d02fc7efe24aecac30b2ba78cff3ec3adc6b01c12a63ad591bd1"),
}
SAVED_SCHEMES = {"file:mt5": mt_scheme(5, 0.6), "file:ryu3": ryu3_scheme(0.5)}


@pytest.mark.parametrize("builtin, seed", sorted(GOLDEN_VERIFY))
def test_verify_stdout_is_golden(tmp_path, capsys, builtin, seed):
    name, *flags = builtin.split()
    source = ["--builtin", name]
    if name in SAVED_SCHEMES:
        source = ["--scheme-file", str(tmp_path / "scheme.txt")]
        save_scheme(SAVED_SCHEMES[name], source[1])
    rc, stdout, _ = run_cli(capsys, "verify", *source, *flags, "--seed", str(seed))
    assert (rc, hashlib.sha256(stdout.encode()).hexdigest()) == GOLDEN_VERIFY[builtin, seed]


# gammas the averagedness sampler cannot use: a subnormal one overflows
# (1 - gamma) / gamma, zero divides by zero, a negative one weakens the inequality
@pytest.mark.parametrize("gamma, shown", [("1e-310", "1e-310"), ("0", "0.0"), ("-0.5", "-0.5")])
def test_verify_bad_gamma_exits_2_with_parameter_error(capsys, gamma, shown):
    rc, stdout, err = run_cli(capsys, "verify", "--builtin", "mt:4", "--gamma", gamma)
    assert rc == 2
    assert err == ("error: ParameterError: gamma must be positive with (1-gamma)/gamma "
                   f"finite, got {shown}\n")
    assert "averagedness" not in stdout


# above 1 the sampler's (1 - gamma) / gamma is negative and would pass maps that
# are not averaged; a non-finite gamma would reach the builtin's Tx
@pytest.mark.parametrize("builtin, gamma, message", [
    ("mt:4", "2", "gamma must lie in (0, 1.0], got 2.0"),
    ("mt:4", "nan", "gamma must be finite, got nan"),
    ("ryu3", "inf", "gamma must be finite, got inf"),
    ("ryu4", "-inf", "gamma must be finite, got -inf"),
])
def test_verify_out_of_range_gamma_is_named(capsys, builtin, gamma, message):
    rc, stdout, err = run_cli(capsys, "verify", "--builtin", builtin, f"--gamma={gamma}")
    assert rc == 2
    assert err == f"error: ParameterError: {message}\n"
    assert "averagedness" not in stdout


def test_verify_rejects_underlifted_scheme(tmp_path, capsys):
    # a syntactically valid scheme with d = n - 2 must fail the dimension check
    path = tmp_path / "under.txt"
    lines = ["4 2"]
    lines += ["0 0"] * 4          # B
    lines += ["0 0 0 0"] * 4      # L
    lines += ["1 0", "0 1"]       # Tz (identity so everything is "fixed")
    lines += ["0 0 0 0"] * 2      # Tx
    lines += ["0 0"]              # Sz
    lines += ["0 0 0 0"]          # Sx
    path.write_text("\n".join(lines) + "\n")
    rc, stdout, _ = run_cli(capsys, "verify", "--scheme-file", str(path),
                            "--trials", "10", "--dim", "2")
    assert rc == 1
    assert "lifting: FAIL" in stdout


def _constant_x_scheme(n, d, tz, tx):
    # B = L = 0, so each x_i is J_i(0) at every z, and T(z) = Tz z + Tx x
    return SchemeMatrices(n=n, d=d, B=np.zeros((n, d)), L=np.zeros((n, n)), Tz=tz, Tx=tx,
                          Sz=np.zeros((1, d)), Sx=np.zeros((1, n)))


def _drift_stub(monkeypatch):
    # no averaged map can fail the drift half alone: ||T(t) - t|| <= ||t - z|| <= 1e-10 at
    # the stop, so this row reports each fixed point's drift as 2e-8
    check = scheme.check_solution_mapping
    monkeypatch.setattr(scheme, "check_solution_mapping",
                        lambda *a, **k: dataclasses.replace(check(*a, **k), drift=2e-8))


# one row per verdict line: an input, the lines that read FAIL (divergence: "detected"),
# and the exit code.  Each single-line row fails that line alone
VERDICT_ROWS = {
    "none": ("mt:4", [], set(), 0),
    # d = n-2 with Tz = I and a constant T(z) - z: no fixed point, so nothing else fails
    "lifting": (_constant_x_scheme(4, 2, np.eye(2), np.eye(2, 4)), ["--max-iter", "5"],
                {"lifting"}, 1),
    "averagedness": ("ryu3", [], {"averagedness"}, 1),
    # T(z) = z + c with |c| near 1e200: the sampler passes it, and its first residual overflows
    "divergence": (_constant_x_scheme(2, 1, np.eye(1), np.array([[1e200, 0.0]])), [],
                   {"divergence"}, 1),
    "ryu4": ("ryu4", [], {"averagedness", "divergence"}, 1),
    # the solution map doubles x_1, so S(z) misses the mean of y by |x*|
    "solution-mapping": (dataclasses.replace(mt_scheme(4, 0.5), Sx=np.array([[2.0, 0, 0, 0]])),
                         ["--gamma", "0.5"], {"solution-mapping"}, 1),
    "solution-mapping drift": ("mt:4", [], {"solution-mapping"}, 1),  # by _drift_stub
}


@pytest.mark.parametrize("row", sorted(VERDICT_ROWS))
def test_every_verify_verdict_has_an_input_that_fails_it(tmp_path, capsys, monkeypatch, row):
    source, flags, failing, code = VERDICT_ROWS[row]
    if row == "solution-mapping drift":
        _drift_stub(monkeypatch)
    if isinstance(source, str):
        source = ["--builtin", source]
    else:
        save_scheme(source, tmp_path / "scheme.txt")
        source = ["--scheme-file", str(tmp_path / "scheme.txt")]
    rc, stdout, _ = run_cli(capsys, "verify", *source, *flags, "--seed", "1")
    verdicts = dict(line.split(" ", 1) for line in stdout.splitlines()[1:-1])
    assert list(verdicts) == ["lifting:", "averagedness:", "divergence:", "solution-mapping:"]
    failed = {name[:-1] for name, text in verdicts.items()
              if text.startswith(("FAIL", "detected"))}
    assert (failed, rc) == (failing, code)
    assert stdout.splitlines()[-1] == f"overall: {'FAIL' if code else 'PASS'}"


def test_verify_evaluates_each_fixed_point_once(capsys, monkeypatch):
    calls = []
    evaluate = scheme.eval_scheme
    monkeypatch.setattr(scheme, "eval_scheme", lambda *a: calls.append(1) or evaluate(*a))
    rc, stdout, _ = run_cli(capsys, "verify", "--builtin", "mt:4", "--trials", "100")
    assert rc == 0
    assert "divergence: not detected (10 fixed points reached)" in stdout
    assert len(calls) == 10


def test_verify_scheme_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "mt3.txt"
    save_scheme(mt_scheme(3, gamma=0.5), path)
    rc, stdout, _ = run_cli(capsys, "verify", "--scheme-file", str(path),
                            "--trials", "30", "--dim", "3", "--gamma", "0.5")
    assert rc == 0
    assert "overall: PASS" in stdout


def test_verify_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("2 1\n1\nnot-a-number\n")
    rc, _, err = run_cli(capsys, "verify", "--scheme-file", str(path))
    assert rc == 2
    assert "line" in err


def test_verify_requires_exactly_one_source(capsys):
    rc, _, err = run_cli(capsys, "verify")
    assert rc == 2
    assert "scheme" in err


@pytest.mark.parametrize("builtin", ["mt:x", "mt:", "mt:2.5"])
def test_verify_malformed_mt_builtin_exits_2(capsys, builtin):
    rc, stdout, err = run_cli(capsys, "verify", "--builtin", builtin)
    assert rc == 2
    assert err == f"error: bad-builtin: mt:N needs an integer N, got {builtin!r}\n"
    assert stdout == ""


# pairs are drawn 10 per generated instance, so any other count was rounded
# (15 ran 10 pairs) or clamped (0 and -5 ran 10 pairs and passed)
@pytest.mark.parametrize("trials", ["-5", "0", "15"])
@pytest.mark.parametrize("via_config", [False, True])
def test_verify_trials_must_be_a_positive_multiple_of_10(tmp_path, capsys, trials, via_config):
    cfg = tmp_path / "trials.cfg"
    cfg.write_text(f"trials = {trials}\n")
    flags = ("--config", str(cfg)) if via_config else ("--trials", trials)
    rc, stdout, err = run_cli(capsys, "verify", "--builtin", "mt:4", *flags)
    assert rc == 2
    assert err == f"error: bad-trials: --trials must be a positive multiple of 10, got {trials}\n"
    assert stdout == ""


def test_config_file_defaults_and_flag_priority(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 12\nseed = 9\nmax-iter = 40\nalgorithms = mt\n")
    out = tmp_path / "out.csv"
    rc, stdout, _ = run_cli(capsys, "consensus", "--config", str(cfg),
                            "--out", str(out))
    assert rc == 0
    assert "mt:" in stdout
    # flags win over the config file: n=12 from config, seed overridden
    rc2, _, _ = run_cli(capsys, "consensus", "--config", str(cfg),
                        "--seed", "9", "--out", str(tmp_path / "out2.csv"))
    assert rc2 == 0
    assert out.read_bytes() == (tmp_path / "out2.csv").read_bytes()


def test_subcommand_defaults_and_config_override(tmp_path):
    from minsplit.cli import _apply_config, build_parser

    defaults = {"consensus": (0.9, 50000), "rpca": (0.8, 2000), "verify": (0.5, 20000)}
    for command, want in defaults.items():
        args = _apply_config(build_parser(), [command])
        assert (args.gamma, args.max_iter) == want, command
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.7\nmax-iter = 40\n")
    args = _apply_config(build_parser(), ["rpca", "--config", str(cfg)])
    assert (args.gamma, args.max_iter) == (0.7, 40)
    args = _apply_config(build_parser(), ["rpca", "--config", str(cfg), "--gamma", "0.6"])
    assert (args.gamma, args.max_iter) == (0.6, 40)


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    rc, _, err = run_cli(capsys, "consensus", "--config", str(cfg))
    assert rc == 2
    assert "bogus" in err


def test_consensus_large_instance_completes(tmp_path, capsys):
    # desk-scale capability check: a 1000-operator run finishes and reports
    out = tmp_path / "big.csv"
    rc, stdout, _ = run_cli(
        capsys, "consensus", "--n", "1000", "--seed", "1", "--algorithms", "mt",
        "--max-iter", "1500", "--out", str(out)
    )
    assert rc == 0
    assert out.exists()
    assert len(out.read_text().splitlines()) == 1501


def test_rpca_forty_by_forty_supported(tmp_path, capsys):
    out = tmp_path / "rpca40.csv"
    rc, _, _ = run_cli(
        capsys, "rpca", "--m", "40", "--n", "40", "--seed", "1",
        "--max-iter", "20", "--algorithms", "admm_avg,asalm", "--out", str(out)
    )
    assert rc == 0
    assert len(out.read_text().splitlines()) == 1 + 2 * 20


def test_config_reports_unparsable_values(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("max-iter = 4.5\n")
    rc, _, err = run_cli(capsys, "consensus", "--config", str(cfg))
    assert rc == 2
    assert err == "error: bad-config: cannot parse max_iter='4.5'\n"


def test_config_keys_of_other_subcommands_are_ignored(tmp_path, capsys):
    # one file may serve every subcommand: verify reads neither tol nor out
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(f"tol = 1\nout = {tmp_path / 'x.csv'}\ntrials = 30\ndim = 3\n")
    args = ("verify", "--builtin", "mt:4", "--trials", "30", "--dim", "3")
    rc, plain, _ = run_cli(capsys, *args)
    rc2, configured, _ = run_cli(capsys, "verify", "--builtin", "mt:4", "--config", str(cfg))
    assert rc == rc2 == 0
    assert configured == plain
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ("verify", "--builtin", "dr", "--tol", "1"),
    ("verify", "--builtin", "dr", "--out", "x.csv"),
    ("rpca", "--max-iter", "5", "--tol", "1"),
])
def test_subcommands_reject_flags_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


def test_non_finite_parameter_exits_2_without_traceback(capsys):
    rc, _, err = run_cli(capsys, "rpca", "--lam", "nan", "--algorithms", "asalm",
                         "--max-iter", "3")
    assert rc == 2
    assert err == "error: ParameterError: lam must be nonnegative, got nan\n"


@pytest.mark.parametrize("algorithm", ["admm_avg", "admm_auglag", "asalm"])
@pytest.mark.parametrize("name", ["lam", "delta"])
def test_rpca_nan_parameter_is_named(capsys, algorithm, name):
    rc, _, err = run_cli(capsys, "rpca", f"--{name}", "nan", "--algorithms", algorithm,
                         "--max-iter", "3")
    assert rc == 2
    rule = {"lam": "nonnegative", "delta": "positive"}[name]
    assert err == f"error: ParameterError: {name} must be {rule}, got nan\n"


@pytest.mark.parametrize("flag, value, algorithm, message", [
    ("--lam", "0", "asalm", "lam must be positive, got 0.0"),
    ("--lam", "-1", "admm_auglag", "lam must be nonnegative, got -1.0"),
    ("--delta", "0", "admm_avg", "delta must be positive, got 0.0"),
])
def test_rpca_out_of_range_parameter_is_named(capsys, flag, value, algorithm, message):
    rc, _, err = run_cli(capsys, "rpca", flag, value, "--algorithms", algorithm,
                         "--max-iter", "3")
    assert rc == 2
    assert err == f"error: ParameterError: {message}\n"


def test_consensus_nan_tol_exits_2(capsys):
    rc, _, err = run_cli(capsys, "consensus", "--n", "5", "--tol", "nan", "--max-iter", "300")
    assert rc == 2
    assert err == "error: ParameterError: tol must be nonnegative, got nan\n"
