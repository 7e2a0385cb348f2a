import hashlib

import numpy as np
import pytest

from minsplit import mt_scheme, save_scheme
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
    rc, _, err = run_cli(capsys, "verify", "--builtin", "mt:4", "--max-iter", "0")
    assert rc == 2
    assert err == "error: ParameterError: max_iter must be >= 1, got 0\n"


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
