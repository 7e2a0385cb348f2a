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
  sampling, kernel residuals and the solution-mapping identities.

Shared flags: ``--seed``, ``--tol``, ``--max-iter``, ``--gamma``, ``--out``.
Options may also come from a ``key=value`` file via ``--config``; explicit
flags win.  All output CSVs are byte-stable across reruns: randomness is
seeded and floats are printed in shortest round-trip form.
"""

import argparse
import sys

import numpy as np

from . import admm, linalg, problems, scheme, splitting
from .errors import MinsplitError
from .trace import format_float, write_csv

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
    # flags win over config-file values: pre-scan for --config, install the
    # file's entries as typed parser defaults, then parse the real argv
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config:
        entries = _load_config(known.config)
        subparsers = list(parser._subparsers._group_actions[0].choices.values())
        types = {}
        for container in [parser] + subparsers:
            for action in container._actions:
                if action.dest != argparse.SUPPRESS:
                    types.setdefault(action.dest, action.type)
        unknown = set(entries) - set(types)
        if unknown:
            raise CliError("bad-config", f"unknown keys: {', '.join(sorted(unknown))}")
        typed = {}
        for key, val in entries.items():
            caster = types[key]
            try:
                typed[key] = caster(val) if caster else val
            except ValueError:
                raise CliError("bad-config", f"cannot parse {key}={val!r}")
        # the flags live on the subcommand parsers, so the defaults must too
        for container in subparsers:
            own = {a.dest for a in container._actions}
            container.set_defaults(**{k: v for k, v in typed.items() if k in own})
    return parser.parse_args(argv)


def build_parser():
    parser = argparse.ArgumentParser(prog="minsplit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p):
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--max-iter", dest="max_iter", type=int, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--out", default=None, help="output CSV path")
        p.add_argument("--config", default=None, help="key=value defaults file")

    con = sub.add_parser("consensus", help="scalar consensus on a cycle graph")
    shared(con)
    con.add_argument("--n", type=int, default=10)
    con.add_argument(
        "--algorithms",
        default="mt,pdhg1,pdhg2,pdhg3",
        help=f"comma list from {','.join(CONSENSUS_ALGORITHMS)}",
    )

    rp = sub.add_parser("rpca", help="partially observed robust PCA")
    shared(rp)
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
    shared(ver)
    ver.add_argument("--scheme-file", dest="scheme_file", default=None)
    ver.add_argument("--builtin", default=None,
                     help="mt:N, dr, ryu3 or ryu4 instead of a file")
    ver.add_argument("--trials", type=int, default=200)
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


def _int_or(value, default):
    return default if value is None else int(value)


def _float_or(value, default):
    return default if value is None else float(value)


def cmd_consensus(args):
    n = int(args.n)
    gamma = _float_or(args.gamma, 0.9)
    max_iter = _int_or(args.max_iter, 50000)
    tol = float(args.tol)
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
            report = admm.pdhg_solve(inst.c, lap, tau, sigma, tol=tol, max_iter=max_iter)
        else:
            solve = getattr(splitting, f"{name}_solve")
            report = solve(ops, gamma=gamma, tol=tol, max_iter=max_iter, dim=1)
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
    gamma = _float_or(args.gamma, 0.8)
    max_iter = _int_or(args.max_iter, 2000)
    names = _parse_algorithms(args.algorithms, RPCA_ALGORITHMS)
    inst = problems.gen_rpca(int(args.m), int(args.n), args.seed)
    observed = admm.PartialMatrix(values=inst.observed, mask=inst.omega)
    problem = admm.rpca_problem(observed, args.lam, args.delta)
    shape = inst.observed.shape
    rows = []
    recovered = {}
    for name in names:
        if name == "asalm":
            state, trace = admm.asalm_solve(observed, args.lam, args.delta, max_iter=max_iter)
            recovered[name] = (state.low_rank, state.sparse)
        else:
            form = "averaged" if name == "admm_avg" else "auglag"
            report = admm.admm_solve(
                problem,
                form=form,
                gamma=gamma,
                tol=0.0,
                max_iter=max_iter,
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
                    for row in mat:
                        fh.write(" ".join(format_float(v) for v in row) + "\n")
                print(f"wrote {path}")
    return 0


def _builtin_scheme(spec_str, gamma):
    if spec_str.startswith("mt:"):
        return scheme.mt_scheme(int(spec_str[3:]), gamma)
    if spec_str == "dr":
        return scheme.mt_scheme(2, gamma)
    if spec_str == "ryu3":
        return scheme.ryu3_scheme(gamma)
    if spec_str == "ryu4":
        return scheme.ryu4_scheme(gamma)
    raise CliError("bad-builtin", f"unknown builtin scheme {spec_str!r}")


def cmd_verify(args):
    gamma = _float_or(args.gamma, 0.5)
    if (args.scheme_file is None) == (args.builtin is None):
        raise CliError("bad-scheme", "provide exactly one of --scheme-file/--builtin")
    if args.builtin:
        sch = _builtin_scheme(args.builtin, gamma)
    else:
        sch = scheme.load_scheme(args.scheme_file)
    print(f"scheme: n={sch.n} operators, d={sch.d} lifted blocks")
    checks = {}

    lifting = scheme.validate_lifting(sch)
    checks["lifting"] = lifting
    print(f"lifting: {'PASS' if lifting else 'FAIL'} "
          f"(need d >= n-1 for n >= 2; d={sch.d}, n={sch.n})")

    prng = problems.Prng(args.seed)
    dim = int(args.dim)
    worst_slack = -np.inf
    diverged_any = False
    kernel_worst = 0.0
    mapping_worst = 0.0
    fixed_points_found = 0
    for trial in range(max(1, args.trials // 10)):
        inst = problems.gen_affine_monotone(sch.n, dim, seed=int(prng.uniforms(1)[0] * 2**31))
        ops = inst.operators()
        slack = splitting.averagedness_sample(
            lambda z: scheme.eval_scheme(sch, z, ops)[0], gamma, prng, sch.d, dim, 10
        )
        worst_slack = max(worst_slack, slack)
        z_fix, conv, div, _ = scheme.solve_scheme(sch, ops, dim=dim, tol=1e-10,
                                                  max_iter=20000)
        diverged_any = diverged_any or div
        if conv:
            fixed_points_found += 1
            witness = scheme.witness_from_point(sch, z_fix, ops)
            kernel_worst = max(kernel_worst, max(scheme.kernel_residuals(sch, witness)))
            rep = scheme.check_solution_mapping(sch, ops, z_fix, fp_tol=1e-6)
            mapping_worst = max(
                mapping_worst,
                rep.consensus_spread,
                rep.solution_vs_mean_y,
                rep.inclusion_residual,
            )
    averaged_ok = worst_slack <= 1e-9
    checks["averagedness"] = averaged_ok
    print(f"averagedness: {'PASS' if averaged_ok else 'FAIL'} "
          f"(worst relative slack {format_float(worst_slack)}, bound 1e-09)")
    print(f"divergence: {'detected' if diverged_any else 'not detected'} "
          f"({fixed_points_found} fixed points reached)")
    if fixed_points_found:
        kernel_ok = kernel_worst <= 1e-8
        mapping_ok = mapping_worst <= 1e-6
        checks["kernel"] = kernel_ok
        checks["solution-mapping"] = mapping_ok
        print(f"kernel-residuals: {'PASS' if kernel_ok else 'FAIL'} "
              f"(worst {format_float(kernel_worst)}, bound 1e-08)")
        print(f"solution-mapping: {'PASS' if mapping_ok else 'FAIL'} "
              f"(worst {format_float(mapping_worst)}, bound 1e-06)")
    else:
        checks["kernel"] = False
        checks["solution-mapping"] = False
        print("kernel-residuals: SKIP (no fixed point reached)")
        print("solution-mapping: SKIP (no fixed point reached)")
    checks["no-divergence"] = not diverged_any
    ok = all(checks.values())
    print(f"overall: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None):
    parser = build_parser()
    try:
        args = _apply_config(parser, sys.argv[1:] if argv is None else list(argv))
        if args.command == "consensus":
            return cmd_consensus(args)
        if args.command == "rpca":
            return cmd_rpca(args)
        return cmd_verify(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MinsplitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
