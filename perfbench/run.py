"""idemlift benchmark: one workload per run, checked outputs, one JSON result.

    python3 perfbench/run.py --workload matrix-verify --seed 0 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src.
With ``--trace 0`` the run repeats whole passes of the workload until
``--seconds`` have gone by, sets the workload up afresh at intervals
between its operations, and reports the end-to-end metrics.  With
``--trace 1`` it runs one warm-up pass, then every operation once
untraced and once traced, checks that all three give identical outputs,
and reports the per-layer metrics.  The
last line of standard output is the result object; the line before it
(``detail ...``) carries the per-workload metrics and the environment.
Metric names, units and the default ``--seconds`` come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import os

# one BLAS thread: set before numpy loads, so runs on a shared 2-core
# machine do not oversubscribe it
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import importlib
import json
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import numpy as np

import spans
import spec
from stats import percentile, tail_percentile
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 30


class BenchError(Exception):
    """The benchmark cannot run here (no library to measure)."""


def import_library() -> None:
    """Import idemlift afresh from ./src."""
    for name in [m for m in sys.modules if m == "idemlift" or m.startswith("idemlift.")]:
        del sys.modules[name]
    lib = importlib.import_module("idemlift")
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"idemlift came from {lib.__file__}, not from {SRC}")


def set_up(workload) -> float:
    """Import idemlift afresh and prepare the workload's inputs; returns the
    seconds both took.  Operations look their modules and inputs up when
    they are called, so every operation after this one uses what it made."""
    start = time.perf_counter()
    import_library()
    workload.prepare()
    return time.perf_counter() - start


def run_pass(workload) -> list[Op]:
    return [operation() for operation in workload.operations()]


def fail(op: Op, why: str) -> None:
    op.error, op.points = f"{op.label}: {why}", 0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, seconds: float) -> tuple[list[Op], int, list[float]]:
    """Whole passes until ``seconds`` have elapsed, and up to SETUP_REPS
    set-ups: the k-th is due ``k * seconds / SETUP_REPS`` after the start
    and made, with any others due, before the next operation.  Returns the
    operations, the passes and the set-up times.  An output that differs
    from the same operation's output in an earlier pass is a failure.

    The machine runs the same code up to 1.8x slower for seconds at a
    time, so set-ups made back to back can all land in one slow spell;
    spread over the run, their fastest one almost always falls in a fast
    spell."""
    ops: list[Op] = []
    first: dict[str, object] = {}
    setups: list[float] = []
    passes = 0
    interval = seconds / SETUP_REPS
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        for operation in workload.operations():
            while len(setups) < SETUP_REPS and time.perf_counter() - start >= len(setups) * interval:
                setups.append(set_up(workload))
            op = operation()
            if op.error is None:
                expected = first.setdefault(op.label, op.body)
                if op.body != expected:
                    fail(op, "output differs from the first pass")
            ops.append(op)
        passes += 1
    return ops, passes, setups


def end_to_end(workload, ops: list[Op], passes: int, setups: list[float]) -> tuple[dict, dict]:
    """(gated metrics, per-workload detail metrics) of an untraced run."""
    # the fastest set-up: within a run the set-ups fall into a fast and a
    # slow group about 1.6x apart, and their median follows the share of
    # slow spells in the run (0.022 to 0.035 s over five runs), where the
    # minimum moved by 7 %
    setup_s = min(setups)
    # all the work over all the operation time: the machine switches
    # between a fast and a slow state within seconds, and the total
    # averages over every switch where a median of a few passes jumps
    # between the two
    ops_per_s = sum(op.points for op in ops) / sum(op.seconds for op in ops)
    rss = peak_rss_mb()
    gated = {"setup_s": setup_s, "ops_per_s": ops_per_s, "peak_rss_mb": rss}
    detail: dict[str, float] = {"setup_s": setup_s}
    if workload.name == "funcalc-stream":
        ms = [op.seconds * 1e3 for op in ops]
        detail["calls_per_s"] = ops_per_s
        detail["call_ms.p50"] = median(ms)
        if len(ms) >= 100:
            detail["call_ms.p90"] = percentile(ms, 90.0)
        tail = tail_percentile(ms)
        if tail is not None:
            detail[f"call_ms.p{tail[0]:g}"] = tail[1]
    else:
        by_label: dict[str, list[float]] = {}
        for op in ops:
            by_label.setdefault(op.label, []).append(op.seconds)
        for label, seconds in by_label.items():
            detail[f"scenario_s.{label}"] = median(seconds)
        detail["lift_points_per_s"] = ops_per_s
    detail["failed_ratio"] = sum(op.error is not None for op in ops) / len(ops)
    detail["peak_rss_mb"] = rss
    detail["passes"] = passes
    detail["setups"] = len(setups)
    return gated, detail


def traced_run(workload, seed: int) -> tuple[list[Op], dict]:
    """A warm-up pass, then each operation untraced and traced back to
    back; per-layer metrics of the traced calls.  Pairing the calls keeps
    a slow spell of the machine out of ``trace.overhead``, and swapping
    the order in every other pair keeps out the second call's warm caches."""
    reference = run_pass(workload)
    tracer = spans.Tracer()
    untraced, traced = [], []

    def run_traced(operation) -> None:
        installed = spans.install(tracer)
        try:
            traced.append(operation())
        finally:
            installed.uninstall()

    for i, operation in enumerate(workload.operations()):
        if i % 2:
            run_traced(operation)
        untraced.append(operation())
        if not i % 2:
            run_traced(operation)

    for ref, u, t in zip(reference, untraced, traced):
        if ref.error is None:
            if u.error is None and u.body != ref.body:
                fail(u, "output differs from the warm-up pass")
            if t.error is None and t.body != ref.body:
                fail(t, "traced output differs from the untraced one")
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead"] = sum(op.seconds for op in traced) / sum(op.seconds for op in untraced)
    table = {"workload": workload.name, "seed": seed, "metrics": metrics, **tracer.table()}
    (OUT / f"spans-{workload.name}-seed{seed}.json").write_text(json.dumps(table, indent=1) + "\n")
    return reference + untraced + traced, metrics


def environment() -> dict:
    return {
        **{k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def with_units(values: dict) -> dict:
    return {name: {"value": value, "unit": spec.unit_of(name)} for name, value in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "idemlift" / "__init__.py").is_file():
        print(f"error: no idemlift sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    # idemlift's compiled bytecode goes to perfbench/out, even where the
    # environment turns bytecode writing off: the first set-up compiles
    # and is not timed, so setup_s times importing, not compiling
    sys.pycache_prefix = str(OUT / "pycache")
    sys.dont_write_bytecode = False

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        try:
            set_up(workload)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            ops, metrics = traced_run(workload, args.seed)
            workload_metrics = {}
        else:
            ops, passes, setups = timed_run(workload, args.seconds)
            metrics, workload_metrics = end_to_end(workload, ops, passes, setups)

    failures = [op.error for op in ops if op.error is not None]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "metrics": with_units(workload_metrics),
        "environment": environment(),
        "failures": failures[:5],
    }
    print("detail " + json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(ops),
                "failed": len(failures),
                "metrics": with_units(metrics),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
