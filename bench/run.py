"""Benchmark of the minsplit package: one seeded workload per run.

Run from the root of a checkout:

    python3 bench/run.py --workload consensus --seed 1 --seconds 25 --trace 0

Each run is a closed loop with one caller: a fresh instance per sample,
derived from ``--seed``, one sample after another for ``--seconds``.  With
``--trace 0`` the last line of standard output is a JSON object holding the
gated end-to-end metrics (:data:`RESULT_METRICS`); with ``--trace 1`` it holds
the per-layer metrics of a traced replay of the samples of a shorter untraced
run.  The lines before it give every metric for a human, with the
environment.  A summary, and for
traced runs the spans, are written under ``bench/results/``.

BLAS runs single-threaded: :func:`main` sets the thread variables before
numpy loads.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench" / "results"
SETUP_PROBES = 5
WARM_SEED = 20210806
TAIL_MAX = 95.0
WORKLOAD_NAMES = ("consensus", "protocol", "rpca", "verify")

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s.p50", "s"),
    ("solve_s.tail", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
# All of END_TO_END is printed; only these go into the JSON result.  On a
# shared 2-core machine solve_s.p50 and work_per_s moved by up to 30% from
# run to run (bench/NOTES.md), more than any regression bound could allow.
RESULT_METRICS = ("setup_s", "solve_s.tail", "peak_rss_mb")

# "_s" and "_calls" metrics are per traced sample
PER_LAYER = (
    ("splitting.us_per_sweep", "us"),
    ("splitting.self_s", "s"),
    ("splitting.spread_s", "s"),
    ("splitting.spread_calls", "count"),
    ("splitting.sweeps_to_tol", "count"),
    ("splitting.averagedness_s", "s"),
    ("splitting.averagedness_pairs_per_s", "1/s"),
    ("splitting.resolvent_calls_per_op_sweep", "count"),
    ("splitting.lifted_floats", "count"),
    ("operators.resolvent_calls", "count"),
    ("operators.resolvent_s", "s"),
    ("operators.us_per_resolvent", "us"),
    ("operators.prox_nuclear_s", "s"),
    ("operators.prox_nuclear_calls", "count"),
    ("operators.prox_l1_s", "s"),
    ("operators.project_partial_ball_s", "s"),
    ("linalg.svd_s", "s"),
    ("linalg.svd_calls", "count"),
    ("linalg.us_per_svd", "us"),
    ("admm.ms_per_sweep.averaged", "ms"),
    ("admm.ms_per_sweep.auglag", "ms"),
    ("admm.ms_per_sweep.asalm", "ms"),
    ("admm.self_s", "s"),
    ("network.us_per_round", "us"),
    ("network.self_s", "s"),
    ("network.messages_per_node_round", "count"),
    ("network.message_bytes_per_round", "B"),
    ("scheme.eval_calls", "count"),
    ("scheme.us_per_eval", "us"),
    ("scheme.solve_scheme_s", "s"),
    ("scheme.solve_scheme_iters", "count"),
    ("problems.gen_s", "s"),
    ("trace.append_calls", "count"),
    ("trace.append_s", "s"),
    ("cli.self_s", "s"),
    ("tracing.overhead", "ratio"),
)


def load_package():
    """Put the checkout's ``src`` first on the path, or stop with an error."""
    if not (SRC / "minsplit" / "__init__.py").is_file():
        raise SystemExit(f"error: no minsplit package in {SRC}; "
                         "run the benchmark from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import minsplit

    if Path(minsplit.__file__).resolve().parent != (SRC / "minsplit").resolve():
        raise SystemExit(f"error: imported minsplit from {minsplit.__file__}, not {SRC}")


def sample_seed(seed, i):
    return seed * 1_000_003 + i


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "seed": seed,
    }


def one_sample(wl, seed, i, tracer=None):
    """Make, run (timed) and check sample ``i``; never raises."""
    from workloads import claim_failures

    record = {"i": i, "time": None, "work": 0, "failures": [], "fingerprint": None,
              "counts": None}
    try:
        if tracer is not None:
            tracer.sample = i
        inp = wl.make(sample_seed(seed, i), tracer)
        start = time.perf_counter()
        if tracer is None:
            out = wl.run(inp)
        else:
            out = tracer.call("bench.sample", True, wl.run, (inp,), {})
        record["time"] = time.perf_counter() - start
        counts = wl.counts(inp, out)
        record.update(work=wl.work(out), fingerprint=wl.fingerprint(out), counts=counts,
                      failures=wl.check(inp, out) + claim_failures(counts))
    except Exception as exc:  # a broken sample is counted as failed, not fatal
        where = traceback.extract_tb(exc.__traceback__)[-1]
        record["failures"] = [f"{type(exc).__name__}: {exc} "
                              f"(at {where.filename}:{where.lineno})"]
    return record


class Tally:
    """Sample times, work and failures of one loop, and its records if kept.

    Without the records a sample costs 8 bytes, so ``peak_rss_mb`` does not
    grow with the number of samples a run completes.
    """

    def __init__(self, keep):
        self.times = array("d")
        self.work = 0
        self.attempted = 0
        self.failures = []
        self.records = [] if keep else None

    def add(self, record):
        self.attempted += 1
        if record["time"] is not None:
            self.times.append(record["time"])
        self.work += record["work"]
        if record["failures"]:
            self.failures.append(record["failures"])
        if self.records is not None:
            self.records.append(record)

    def require_times(self):
        if not self.times:
            raise SystemExit(f"error: every sample failed: {self.failures[0]}")


def closed_loop(wl, seed, seconds, keep=False):
    tally = Tally(keep)
    gc.collect()
    deadline = time.perf_counter() + seconds
    while not tally.attempted or time.perf_counter() < deadline:
        tally.add(one_sample(wl, seed, tally.attempted))
    tally.require_times()
    return tally


def warm(wl, seed):
    """Warm lazy set-up on a small fixed instance, then build sample 0's inputs."""
    wl.run(wl.make(WARM_SEED, small=True))
    wl.make(sample_seed(seed, 0))


def measure_setup(workload, seed):
    """Median, over fresh processes, of process start to ready-to-time."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--probe-setup"],
            capture_output=True, text=True, timeout=60, check=True)
        # both clocks are the system-wide monotonic clock
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


def tail(times):
    """The highest percentile, up to p95, with at least ten samples beyond it.

    Past p95 the slowest samples of a run are set by the machine's noise
    (other tenants, frequency changes) more than by the work, and on a
    shared 2-core machine p99 moved by half its value from run to run.
    With fewer than 20 samples the median is used.
    """
    import numpy as np

    pct = min(TAIL_MAX, max(50.0, 100.0 * (1.0 - 10.0 / len(times))))
    value = float(np.percentile(times, pct))
    return pct, value, sum(t > value for t in times)


def end_to_end(wl, tally, setup_s):
    times = tally.times
    pct, tail_s, beyond = tail(times)
    metrics = {
        "setup_s": setup_s,
        "solve_s.p50": statistics.median(times),
        "solve_s.tail": tail_s,
        "work_per_s": tally.work / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    failed = len(tally.failures)
    notes = {
        "setup_s": f"median of {SETUP_PROBES} set-ups in fresh processes",
        "solve_s.tail": f"p{pct:.4g} of {len(times)} samples, {beyond} beyond it",
        "work_per_s": f"{wl.work_unit} per second of solve time",
        "fail_rate": f"{failed / tally.attempted!r} ({failed} failed of "
                     f"{tally.attempted} attempted)",
    }
    return metrics, notes


def _claim(records, name):
    """The claim's observed value: the first deviating one, else the expected."""
    pairs = [r["counts"]["claims"][name] for r in records
             if r["counts"] and name in r["counts"]["claims"]]
    if not pairs:
        return 0
    return next((obs for obs, exp in pairs if obs != exp), pairs[0][1])


def per_layer(tracer, records, overhead):
    t = tracer
    n = len(records)

    def total(key):
        return sum(r["counts"].get(key, 0) for r in records if r["counts"])

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    sweeps = [r["counts"]["splitting.sweeps"] for r in records
              if r["counts"] and "splitting.sweeps" in r["counts"]]
    admm_spans = ("admm.admm_solve.averaged", "admm.admm_solve.auglag",
                  "admm.averaged_to_auglag", "admm.asalm_solve")
    gens = ("problems.gen_consensus", "problems.gen_rpca", "problems.gen_affine_monotone")
    rounds = total("network.rounds")
    return {
        "splitting.us_per_sweep": per(t.total_s("splitting.mt_solve"), sum(sweeps), 1e6),
        "splitting.self_s": t.self_s("splitting.mt_solve") / n,
        "splitting.spread_s": t.total_s("splitting.consensus_spread") / n,
        "splitting.spread_calls": t.calls("splitting.consensus_spread") / n,
        "splitting.sweeps_to_tol": statistics.median(sweeps) if sweeps else 0,
        "splitting.averagedness_s": t.total_s("splitting.averagedness_check") / n,
        "splitting.averagedness_pairs_per_s": per(
            total("splitting.averagedness_pairs"), t.total_s("splitting.averagedness_check")),
        "splitting.resolvent_calls_per_op_sweep": _claim(
            records, "resolvent_calls_per_op_sweep"),
        "splitting.lifted_floats": _claim(records, "lifted_floats"),
        "operators.resolvent_calls": t.calls("operators.resolvent") / n,
        "operators.resolvent_s": t.total_s("operators.resolvent") / n,
        "operators.us_per_resolvent": per(t.total_s("operators.resolvent"),
                                          t.calls("operators.resolvent"), 1e6),
        "operators.prox_nuclear_s": t.total_s("operators.prox_nuclear") / n,
        "operators.prox_nuclear_calls": t.calls("operators.prox_nuclear") / n,
        "operators.prox_l1_s": t.total_s("operators.prox_l1") / n,
        "operators.project_partial_ball_s": t.total_s("operators.project_partial_ball") / n,
        "linalg.svd_s": t.total_s("linalg.svd") / n,
        "linalg.svd_calls": t.calls("linalg.svd") / n,
        "linalg.us_per_svd": per(t.total_s("linalg.svd"), t.calls("linalg.svd"), 1e6),
        "admm.ms_per_sweep.averaged": per(t.total_s("admm.admm_solve.averaged"),
                                          total("admm.sweeps.averaged"), 1e3),
        "admm.ms_per_sweep.auglag": per(t.total_s("admm.admm_solve.auglag"),
                                        total("admm.sweeps.auglag"), 1e3),
        "admm.ms_per_sweep.asalm": per(t.total_s("admm.asalm_solve"),
                                       total("admm.sweeps.asalm"), 1e3),
        "admm.self_s": sum(t.self_s(s) for s in admm_spans) / n,
        "network.us_per_round": per(t.total_s("network.run_protocol"), rounds, 1e6),
        "network.self_s": t.self_s("network.run_protocol") / n,
        "network.messages_per_node_round": _claim(records, "messages_per_node_round"),
        "network.message_bytes_per_round": per(total("network.message_bytes"), rounds),
        "scheme.eval_calls": t.calls("scheme.eval_scheme") / n,
        "scheme.us_per_eval": per(t.total_s("scheme.eval_scheme"),
                                  t.calls("scheme.eval_scheme"), 1e6),
        "scheme.solve_scheme_s": t.total_s("scheme.solve_scheme") / n,
        "scheme.solve_scheme_iters": per(t.counts["scheme.solve_scheme"],
                                         t.calls("scheme.solve_scheme")),
        "problems.gen_s": sum(t.total_s(g) for g in gens) / n,
        "trace.append_calls": t.calls("trace.append") / n,
        "trace.append_s": t.total_s("trace.append") / n,
        "cli.self_s": t.self_s("cli.main") / n,
        "tracing.overhead": overhead,
    }


def traced_run(wl, seed, seconds):
    """Untraced closed loop for half the time, then a traced replay of it."""
    import tracing

    plain = closed_loop(wl, seed, seconds / 2.0, keep=True)
    originals = tracing.snapshot()
    tracer = tracing.Tracer()
    replay = Tally(keep=True)
    with tracing.installed(tracer):
        for record in plain.records:
            replay.add(one_sample(wl, seed, record["i"], tracer))
    replay.require_times()
    failures = []
    if any(a is not b for a, b in zip(originals, tracing.snapshot())):
        failures.append("a rebound name was not restored")
    mismatched = 0
    for a, b in zip(plain.records, replay.records):
        if a["fingerprint"] != b["fingerprint"]:
            mismatched += 1
            if not b["failures"]:
                replay.failures.append([f"traced sample {b['i']} differs from the untraced run"])
    overhead = statistics.median(replay.times) / statistics.median(plain.times) - 1.0
    RESULTS.mkdir(parents=True, exist_ok=True)
    tracer.write(RESULTS / f"trace-{wl.name}-seed{seed}.jsonl")
    notes = {
        "tracing.overhead": f"traced over untraced solve_s.p50 minus 1, "
                            f"{replay.attempted} samples each",
        "bitwise": f"{replay.attempted - mismatched} of {replay.attempted} traced samples "
                   "equal the untraced run",
    }
    return (plain, replay), per_layer(tracer, replay.records, overhead), notes, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    load_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    if args.probe_setup:
        warm(wl, args.seed)
        print(time.perf_counter())
        return 0

    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    warm(wl, args.seed)
    env = environment(args.seed)
    run_failures = []
    if args.trace:
        tallies, metrics, notes, run_failures = traced_run(wl, args.seed, args.seconds)
        names = result_names = PER_LAYER
    else:
        tallies = (closed_loop(wl, args.seed, args.seconds),)
        metrics, notes = end_to_end(wl, tallies[0], setup_s)
        names = END_TO_END
        result_names = [(n, u) for n, u in END_TO_END if n in RESULT_METRICS]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(len(t.failures) for t in tallies)
    first = next((t.failures[0] for t in tallies if t.failures), [])

    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, unit in names:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{wl.name} {name} = {metrics[name]!r} {unit}{note}")
    for name in ("fail_rate", "bitwise"):
        if name in notes:
            print(f"{wl.name} {name}: {notes[name]}")
    for failure in run_failures + first:
        print(f"{wl.name} failure: {failure}")

    result = {
        "correct": failed == 0 and not run_failures,
        "attempted": attempted,
        "failed": failed + len(run_failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in result_names},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    summary = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
               "env": env, "notes": notes, **result}
    (RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
