"""Benchmark of qincompat: one workload per process, outputs checked.

    python3 perfbench/run.py --workload channel-ladder --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from ``src/`` next to
this directory, never from an installed copy.  The run repeats whole passes
over the workload's operations until ``--seconds`` have elapsed and prints,
as its last stdout line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-module metrics with ``--trace 1``.  Progress goes to stderr.  See
README.md for the metrics and the workloads.
"""

import os

# One BLAS thread: the problems are small, and extra threads only add
# contention and spread on a two-core machine.  Must precede numpy's import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7  # fresh processes timed for setup_s
SETUP_TIMEOUT_S = 60

import numpy as np

import checks
from tracing import Tracer
from workloads import WORKLOADS


def import_package():
    """Import qincompat from ``src/`` of this checkout, or exit 1."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import qincompat
        import qincompat.cli  # noqa: F401
    except ImportError as e:
        sys.exit(f"perfbench: cannot import qincompat from {src}: {e}")
    if src.resolve() not in Path(qincompat.__file__).resolve().parents:
        sys.exit(f"perfbench: qincompat was imported from {qincompat.__file__}, not {src}")
    return qincompat


# -- tracing targets -------------------------------------------------------------


def _svec_columns(problem):
    """Columns of the solver's dense constraint matrix: svec length of each
    block after the real embedding, plus one per scalar variable."""
    cols = 0
    for b, n in enumerate(problem.blocks):
        m = n if b in problem.real_blocks else 2 * n
        cols += m * (m + 1) // 2
    return cols + len(problem.scalar_costs)


def _after_solve(tracer, args, kwargs, sol):
    problem = args[0]
    rows = len(problem.constraints)
    tracer.count("sdp.solve.iterations", sol.iterations)
    tracer.peak("sdp.solve.rows", rows)
    tracer.peak("sdp.solve.amat_mb", rows * _svec_columns(problem) * 8 / 1e6)


def _after_cli(tracer, args, kwargs, code):
    argv = args[0]
    if code == 0 and "--out" in argv:
        out = Path(argv[argv.index("--out") + 1])
        if out.exists():
            tracer.count("cli.report_bytes", out.stat().st_size)


TARGETS = [
    ("sdp", "solve", "sdp.solve", _after_solve),
    ("sdp", "real_embed", "sdp.real_embed", None),
    ("sdp", "hermitian_equality", "sdp.hermitian_equality", None),
    ("linalg", "hermitian_basis", "linalg.hermitian_basis", None),
    ("linalg", "embed_operator", "linalg.embed_operator", None),
    ("linalg", "partial_trace", "linalg.partial_trace", None),
    ("qobjects", "snap_povm", "qobjects.snap", None),
    ("qobjects", "snap_choi_matrix", "qobjects.snap", None),
    ("qobjects", "snap_instrument", "qobjects.snap", None),
    ("qobjects", "apply_channel", "qobjects.apply_channel", None),
    ("qobjects", "apply_channel_extended", "qobjects.apply_channel", None),
    ("robustness", "robustness_channels_primal", "robustness.primal", None),
    ("robustness", "robustness_measurements", "robustness.primal", None),
    ("robustness", "robustness_pair_primal", "robustness.primal", None),
    ("robustness", "robustness_channels_dual", "robustness.dual", None),
    ("robustness", "_measurements_dual", "robustness.dual", None),
    ("robustness", "robustness_pair_dual", "robustness.dual", None),
    ("compat", "check_channels", "compat.check", None),
    ("compat", "check_measurements", "compat.check", None),
    ("compat", "check_pair", "compat.check", None),
    ("games", "best_compatible_success", "games.best_compatible_success", None),
    ("games", "success_prob", "games.success_prob", None),
    ("games", "game_from_channel_witness", "games.witness_game", None),
    ("games", "game_from_pair_witness", "games.witness_game", None),
    ("cli", "main", "cli.main", _after_cli),
]


def layer_metrics(tracer, wall):
    """Per-module figures of one traced pass."""
    t, s, c = tracer.totals, tracer.selfs, tracer.calls
    iters = tracer.counters["sdp.solve.iterations"]
    return {
        "sdp.solve.calls": c["sdp.solve"],
        "sdp.solve.self_s": s["sdp.solve"],
        "sdp.solve.iterations": iters,
        "sdp.solve.s_per_iter": s["sdp.solve"] / iters if iters else 0.0,
        "sdp.solve.rows": tracer.maxima["sdp.solve.rows"],
        "sdp.solve.amat_mb": tracer.maxima["sdp.solve.amat_mb"],
        "sdp.real_embed.s": t["sdp.real_embed"],
        "sdp.hermitian_equality.s": t["sdp.hermitian_equality"],
        "sdp.hermitian_equality.calls": c["sdp.hermitian_equality"],
        "linalg.hermitian_basis.s": t["linalg.hermitian_basis"],
        "linalg.embed_operator.calls": c["linalg.embed_operator"],
        "linalg.embed_operator.s": t["linalg.embed_operator"],
        "linalg.partial_trace.s": t["linalg.partial_trace"],
        "qobjects.snap.s": t["qobjects.snap"],
        "qobjects.apply_channel.s": t["qobjects.apply_channel"],
        "robustness.primal.self_s": s["robustness.primal"],
        "robustness.dual.s": t["robustness.dual"],
        "robustness.dual.calls": c["robustness.dual"],
        "compat.check.s": t["compat.check"],
        "compat.check.calls": c["compat.check"],
        "games.best_compatible_success.s": t["games.best_compatible_success"],
        "games.best_compatible_success.calls": c["games.best_compatible_success"],
        "games.success_prob.s": t["games.success_prob"],
        "games.witness_game.s": t["games.witness_game"],
        "cli.main.self_s": s["cli.main"],
        "cli.report_bytes": tracer.counters["cli.report_bytes"],
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(s.values()),
        "trace.unattributed_s": wall - tracer.top_level_s(),
    }


def with_units(values, section):
    """Attach the units declared in BENCHMARK.json's ``section`` to
    ``values``, whose names must be exactly the declared ones."""
    declared = {m["name"]: m["unit"]
                for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} are not "
                           f"both measured and declared in BENCHMARK.json {section}")
    return {name: {"value": v, "unit": declared[name]} for name, v in values.items()}


# -- passes ------------------------------------------------------------------------


class Pass:
    """Timings and check results of one pass over the operations."""

    def __init__(self):
        self.wall = 0.0
        self.op_seconds = {}
        self.failed = []  # (op name, reason)
        self.worst = 0.0
        self.fingerprints = {}
        self.outcomes = []  # (kind, out) of operations that passed


def run_pass(ops):
    p = Pass()
    for op in ops:
        start = time.perf_counter()
        try:
            res = op.run()
        except Exception:
            traceback.print_exc()
            p.failed.append((op.name, "raised"))
            continue
        finally:
            p.op_seconds[op.name] = time.perf_counter() - start
            p.wall += p.op_seconds[op.name]
        try:
            out = op.outcome(res)
            ck = checks.Checks()
            checks.VERIFY[op.kind](ck, out)
        except Exception:
            traceback.print_exc()
            p.failed.append((op.name, "outcome could not be checked"))
            continue
        p.worst = max(p.worst, ck.worst)
        if ck.failed:
            p.failed.append((op.name, ",".join(ck.failed)))
        else:
            p.fingerprints[op.name] = out["fingerprint"]
            p.outcomes.append((op.kind, out))
    return p


def time_setup(args):
    """Median time from spawning a fresh process until it has imported the
    package and built the inputs.  The child reports the moment it is ready
    on the monotonic clock, which is shared between processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        child = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                               timeout=SETUP_TIMEOUT_S)
        samples.append(float(child.stdout.split()[-1]) - start)
    print("setup samples: " + " ".join(f"{t:.3f}" for t in samples), file=sys.stderr)
    return statistics.median(samples)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the inputs, then exit (times setup_s)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    q = import_package()
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = WORKLOADS[args.workload](q, np.random.default_rng(args.seed), workdir)
        if args.setup_only:
            print(repr(time.monotonic()))
            return 0
        return measure(args, ops, None if args.trace else time_setup(args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, setup_s):
    tracer = Tracer() if args.trace else None
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < args.seconds:
        plain.append(run_pass(ops))
        if tracer is not None:
            tracer.reset()
            tracer.install("qincompat", TARGETS)
            try:
                traced.append(run_pass(ops))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer, traced[-1].wall))
        print(f"pass {len(plain)}: wall {plain[-1].wall:.3f} s"
              + (f", traced {traced[-1].wall:.3f} s" if traced else "")
              + f", failed {len(plain[-1].failed)}", file=sys.stderr)

    passes = plain + traced
    attempted = len(ops) * len(passes)
    failed = sum(len(p.failed) for p in passes)
    for p in passes:
        for name, reason in p.failed:
            print(f"FAILED {name}: {reason}", file=sys.stderr)
    # the solver is documented as deterministic: repeated passes, traced or
    # not, must reproduce every checked value bit for bit
    repeatable = all(p.fingerprints.get(k, v) == v
                     for p in passes for k, v in passes[0].fingerprints.items())
    missed = checks.self_test(passes[0].outcomes)
    for name in missed:
        print(f"SELF-TEST: check {name} did not fail on a perturbed value", file=sys.stderr)
    correct = repeatable and not missed and bool(passes[0].outcomes)

    walls = [p.wall for p in plain]
    worst = max(p.worst for p in passes)
    if args.trace:
        values = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
        values["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                      - statistics.median(walls))
        metrics = with_units(values, "per_layer")
    else:
        metrics = with_units({
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "accuracy_digits": max(0.0, min(16.0, -math.log10(worst))) if worst > 0 else 16.0,
        }, "end_to_end")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    save(args, result, plain, traced, tracer)
    print(json.dumps(result))
    return 0


def save(args, result, plain, traced, tracer):
    """Write the result with per-pass detail, and the spans of the last
    traced pass, under results/."""
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "blas_threads": BLAS_THREADS, "pass_walls": [p.wall for p in plain],
              "traced_pass_walls": [p.wall for p in traced],
              "op_seconds": {k: statistics.median(p.op_seconds[k] for p in plain)
                             for k in plain[0].op_seconds},
              "values": {k: list(v) for k, v in plain[0].fingerprints.items()},
              "result": result}
    (out / f"{stem}.json").write_text(json.dumps(detail, indent=1, default=float) + "\n")
    if tracer is not None:
        t0 = min((s[1] for s in tracer.spans), default=0.0)
        spans = [[name, start - t0, end - start, parent]
                 for name, start, end, parent in tracer.spans]
        (out / f"{stem}.spans.json").write_text(json.dumps(
            {"columns": ["name", "start_s", "duration_s", "parent"], "spans": spans}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
