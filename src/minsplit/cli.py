"""Command-line front end.

Three subcommands:

* ``consensus`` runs the scalar consensus experiment (splitting solvers
  against the primal-dual baseline on a cycle graph) and writes a residual
  trace CSV with columns ``k, algorithm, residual``;
* ``rpca`` runs partially observed robust PCA (multi-block ADMM against the
  single-multiplier baseline) and writes ``k, algorithm, relative_change,
  primal_residual`` plus the recovered matrices;
* ``verify`` loads a scheme matrix file (or a built-in scheme) and runs the
  numerical certification battery: lifting dimension, averagedness
  sampling, and the solution-mapping identities with the drift
  ``||T(z) - z||`` at each fixed point reached.

Shared flags: ``--seed``, ``--max-iter``, ``--gamma``; ``consensus`` also
takes ``--tol``, and ``consensus`` and ``rpca`` take ``--out``.  Options may
also come from a ``key=value`` file via ``--config``; explicit flags win,
and keys that only other subcommands read are ignored.  All output CSVs are
byte-stable across reruns: randomness is seeded and floats are printed in
shortest round-trip form.
"""

import argparse
import sys

import numpy as np

from . import admm, linalg, problems, scheme, splitting
from .errors import MinsplitError
from .trace import format_float, write_csv, write_rows

CONSENSUS_ALGORITHMS = ("mt", "product_dr", "ryu3", "pdhg1", "pdhg2", "pdhg3")
RPCA_ALGORITHMS = ("admm_avg", "admm_auglag", "asalm")


class CliError(MinsplitError):
    """Configuration or input error surfaced with a machine-readable reason."""

    def __init__(self, code, message):
        super().__init__(f"{code}: {message}")
        self.code = code


def _load_config(path):
    values = {}
    try:
        with open(path) as fh:
            for no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError("bad-config", f"{path}:{no}: expected key=value")
                key, _, val = line.partition("=")
                values[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise CliError("bad-config", str(exc))
    return values


def _apply_config(parser, argv):
    # flags win over config-file values: the file's entries go in as flags
    # ahead of the command line's own, and argparse keeps the last value given
    args = parser.parse_args(argv)
    if not args.config:
        return args
    entries = _load_config(args.config)
    # each subcommand's options with their defaults; an option's type is its
    # default's, or str when the default is None
    options = {name: vars(parser.parse_args([name])) for name in COMMANDS}
    known = {k: v for own in options.values() for k, v in own.items() if k != "command"}
    unknown = set(entries) - set(known)
    if unknown:
        raise CliError("bad-config", f"unknown keys: {', '.join(sorted(unknown))}")
    flags = []
    for key, val in entries.items():
        try:
            (str if known[key] is None else type(known[key]))(val)
        except ValueError:
            raise CliError("bad-config", f"cannot parse {key}={val!r}")
        if key in options[args.command]:
            flags.append(f"--{key.replace('_', '-')}={val}")
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + flags + argv[at:])


def build_parser():
    parser = argparse.ArgumentParser(prog="minsplit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, gamma, max_iter):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=max_iter)
        p.add_argument("--gamma", type=float, default=gamma)
        p.add_argument("--config", default=None, help="key=value defaults file")

    con = sub.add_parser("consensus", help="scalar consensus on a cycle graph")
    shared(con, gamma=0.9, max_iter=50000)
    con.add_argument("--tol", type=float, default=1e-8)
    con.add_argument("--out", default=None, help="output CSV path")
    con.add_argument("--n", type=int, default=10)
    con.add_argument(
        "--algorithms",
        default="mt,pdhg1,pdhg2,pdhg3",
        help=f"comma list from {','.join(CONSENSUS_ALGORITHMS)}",
    )

    rp = sub.add_parser("rpca", help="partially observed robust PCA")
    shared(rp, gamma=0.8, max_iter=2000)
    rp.add_argument("--out", default=None, help="output CSV path")
    rp.add_argument("--m", type=int, default=20)
    rp.add_argument("--n", type=int, default=20)
    rp.add_argument("--lam", type=float, default=0.25)
    rp.add_argument("--delta", type=float, default=0.1)
    rp.add_argument(
        "--algorithms",
        default="admm_avg,asalm",
        help=f"comma list from {','.join(RPCA_ALGORITHMS)}",
    )
    rp.add_argument("--matrix-out", dest="matrix_out", default=None,
                    help="prefix for recovered matrix files")

    ver = sub.add_parser("verify", help="certify a splitting scheme numerically")
    shared(ver, gamma=0.5, max_iter=20000)
    ver.add_argument("--scheme-file", dest="scheme_file", default=None)
    ver.add_argument("--builtin", default=None,
                     help="mt:N, dr, ryu3 or ryu4 instead of a file")
    ver.add_argument("--trials", type=int, default=200,
                     help="averagedness pairs, a positive multiple of 10: each "
                          "generated instance draws 10")
    ver.add_argument("--dim", type=int, default=4)
    return parser


def _parse_algorithms(raw, allowed):
    names = [a.strip() for a in raw.split(",") if a.strip()]
    if not names:
        raise CliError("bad-algorithms", "no algorithms selected")
    for name in names:
        if name not in allowed:
            raise CliError("bad-algorithms", f"unknown algorithm {name!r}")
    return names


def cmd_consensus(args):
    n = int(args.n)
    names = _parse_algorithms(args.algorithms, CONSENSUS_ALGORITHMS)
    if "ryu3" in names and n != 3:
        raise CliError("bad-algorithms", "ryu3 takes exactly 3 operators; use --n 3")
    inst = problems.gen_consensus(n, args.seed)
    ops = inst.operators()
    rows = []
    for name in names:
        if name.startswith("pdhg"):
            lap = problems.cycle_laplacian(n)
            tau, sigma = admm.pdhg_stepsizes(linalg.op_norm(lap), int(name[-1]))
            report = admm.pdhg_solve(inst.c, lap, tau, sigma, tol=args.tol, max_iter=args.max_iter)
        else:
            solve = getattr(splitting, f"{name}_solve")
            report = solve(ops, gamma=args.gamma, tol=args.tol, max_iter=args.max_iter, dim=1)
        residuals = report.trace.columns["residual"]
        for k, value in enumerate(residuals, start=1):
            rows.append([str(k), name, format_float(value)])
        print(f"{name}: {len(residuals)} iterations, final residual "
              f"{format_float(residuals[-1])}")
    if args.out:
        write_csv(args.out, ["k", "algorithm", "residual"], rows)
        print(f"wrote {args.out}")
    return 0


def cmd_rpca(args):
    names = _parse_algorithms(args.algorithms, RPCA_ALGORITHMS)
    inst = problems.gen_rpca(int(args.m), int(args.n), args.seed)
    observed = admm.PartialMatrix(values=inst.observed, mask=inst.omega)
    problem = admm.rpca_problem(observed, args.lam, args.delta)
    shape = inst.observed.shape
    rows = []
    recovered = {}
    for name in names:
        if name == "asalm":
            state, trace = admm.asalm_solve(observed, args.lam, args.delta,
                                            max_iter=args.max_iter)
            recovered[name] = (state.low_rank, state.sparse)
        else:
            form = "averaged" if name == "admm_avg" else "auglag"
            report = admm.admm_solve(
                problem,
                form=form,
                gamma=args.gamma,
                tol=0.0,
                max_iter=args.max_iter,
                metric_blocks=(1, 2),
            )
            trace = report.trace
            recovered[name] = (report.w[2].reshape(shape), report.w[1].reshape(shape))
        for k, *values in trace.rows(["relative_change", "primal_residual"]):
            rows.append([k, name, *values])
        print(f"{name}: {len(trace)} iterations, final relative change "
              f"{format_float(trace.columns['relative_change'][-1])}")
    if args.out:
        write_csv(args.out, ["k", "algorithm", "relative_change", "primal_residual"], rows)
        print(f"wrote {args.out}")
    if args.matrix_out:
        for name, (low_rank, sparse) in recovered.items():
            for tag, mat in (("L", low_rank), ("S", sparse)):
                path = f"{args.matrix_out}_{name}_{tag}.txt"
                with open(path, "w") as fh:
                    write_rows(fh, mat)
                print(f"wrote {path}")
    return 0


def _builtin_scheme(spec_str, gamma):
    if spec_str.startswith("mt:"):
        try:
            n = int(spec_str[3:])
        except ValueError:
            raise CliError("bad-builtin", f"mt:N needs an integer N, got {spec_str!r}") from None
        return scheme.mt_scheme(n, gamma)
    if spec_str == "dr":
        return scheme.mt_scheme(2, gamma)
    if spec_str == "ryu3":
        return scheme.ryu3_scheme(gamma)
    if spec_str == "ryu4":
        return scheme.ryu4_scheme(gamma)
    raise CliError("bad-builtin", f"unknown builtin scheme {spec_str!r}")


def cmd_verify(args):
    if (args.scheme_file is None) == (args.builtin is None):
        raise CliError("bad-scheme", "provide exactly one of --scheme-file/--builtin")
    if not (args.trials > 0 and args.trials % 10 == 0):
        raise CliError("bad-trials",
                       f"--trials must be a positive multiple of 10, got {args.trials}")
    splitting.check_budget(args.dim, "dim")
    splitting.check_budget(args.max_iter, "max_iter")
    if args.builtin:
        sch = _builtin_scheme(args.builtin, args.gamma)
    else:
        sch = scheme.load_scheme(args.scheme_file)
    print(f"scheme: n={sch.n} operators, d={sch.d} lifted blocks")
    checks = {}

    lifting = scheme.lifting_ok(sch.n, sch.d)
    checks["lifting"] = lifting
    print(f"lifting: {'PASS' if lifting else 'FAIL'} "
          f"(need d >= n-1 for n >= 2; d={sch.d}, n={sch.n})")

    prng = problems.Prng(args.seed)
    dim = args.dim
    worst_slack = -np.inf
    diverged_any = False
    mapping_worst = drift_worst = 0.0
    fixed_points_found = 0
    instances = []
    for trial in range(args.trials // 10):
        inst = problems.gen_affine_monotone(sch.n, dim, seed=int(prng.uniforms(1)[0] * 2**31))
        instances.append(inst.operators())
        slack = splitting.averagedness_sample(
            scheme.image_map(sch, instances[-1]), args.gamma, prng, sch.d, dim, 10
        )
        worst_slack = max(worst_slack, slack)
    solves = scheme.solve_stack(sch, instances, dim, tol=1e-10, max_iter=args.max_iter)
    for ops, (z_fix, conv, div, _) in zip(instances, solves):
        diverged_any = diverged_any or div
        if conv:
            fixed_points_found += 1
            rep = scheme.check_solution_mapping(sch, ops, z_fix, fp_tol=1e-6)
            mapping_worst = max(mapping_worst, rep.consensus_spread, rep.solution_vs_mean_y,
                                rep.inclusion_residual)
            drift_worst = max(drift_worst, rep.drift)
    averaged_ok = worst_slack <= 1e-9
    checks["averagedness"] = averaged_ok
    print(f"averagedness: {'PASS' if averaged_ok else 'FAIL'} "
          f"(worst relative slack {format_float(worst_slack)}, bound 1e-09)")
    print(f"divergence: {'detected' if diverged_any else 'not detected'} "
          f"({fixed_points_found} fixed points reached)")
    mapping_ok = fixed_points_found > 0 and mapping_worst <= 1e-6 and drift_worst <= 1e-8
    checks["solution-mapping"] = mapping_ok
    if fixed_points_found:
        print(f"solution-mapping: {'PASS' if mapping_ok else 'FAIL'} "
              f"(worst {format_float(mapping_worst)}, bound 1e-06; "
              f"drift {format_float(drift_worst)}, bound 1e-08)")
    else:
        print("solution-mapping: SKIP (no fixed point reached)")
    checks["no-divergence"] = not diverged_any
    ok = all(checks.values())
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


COMMANDS = {"consensus": cmd_consensus, "rpca": cmd_rpca, "verify": cmd_verify}


def main(argv=None):
    parser = build_parser()
    try:
        args = _apply_config(parser, sys.argv[1:] if argv is None else list(argv))
        return COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MinsplitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
