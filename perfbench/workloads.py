"""The three benchmark workloads.

Each is a closed loop with one caller: the next operation starts when
the previous one has returned.  ``prepare`` builds the inputs from the
seed (it is what ``setup_s`` times, after the import); ``operations``
lists the workload's operations, one pass, each a callable that runs
once and returns its ``Op``, already checked.  Operations reach idemlift through module
attributes looked up at call time, so a traced pass goes through the
wrappers that ``spans.install`` put in place.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

SERIES_IDS = ("example2", "example3")
# the base point only: one pass of both scenarios takes about 9 s on a
# 2-core machine, against 20 s for (0, 0.5) and 30 s for (-0.5, 0, 0.5),
# so a run holds several passes and its per-scenario medians drop a pass
# that a slow spell of the machine hit
SERIES_GRID = (0.0,)
VERIFY_IDS = ("dual-testbed", "block-testbed", "example1", "remark3-probe")
VERIFY_GRID = "0,0.5,11"
# 48 inputs: the three call kinds in turn, every fourth one at n = 16,
# so the n = 16 calls (a quarter) set the 90th percentile
FUNCALC_POOL = 48
SPECTRA_SEED = 20140101


@dataclass
class Op:
    """One checked operation: a scenario run or a functional-calculus call."""

    label: str
    seconds: float
    points: int  # valid lift rows for a scenario, 1 for a call
    error: str | None
    body: object  # deterministic output, compared between passes and runs


def _module(name: str):
    """The idemlift module as it is now: the one the last import made, or
    its traced version (``__init__`` does not import ``cli``)."""
    return importlib.import_module(f"idemlift.{name}")


def report_body(report: dict) -> str:
    """The report without its ``timings`` block, canonically serialised."""
    return json.dumps({k: v for k, v in report.items() if k != "timings"}, sort_keys=True)


def report_problem(report: dict) -> str | None:
    """Why a scenario report counts as failed, or None."""
    for run in report["runs"]:
        if run.get("error"):
            return f"run {run['name']} errored: {run['error']}"
        invalid = sum(1 for row in run["rows"] if not row["valid"])
        if invalid:
            return f"run {run['name']} has {invalid} invalid rows"
    if not _module("report").report_passed(report):
        return f"report failed: {', '.join(report['failures'])}"
    return None


def valid_rows(report: dict) -> int:
    return sum(1 for run in report["runs"] for row in run["rows"] if row["valid"])


def scenario_op(sid: str, seconds: float, report: dict) -> Op:
    problem = report_problem(report)
    if problem:
        return Op(sid, seconds, 0, f"{sid}: {problem}", report_body(report))
    return Op(sid, seconds, valid_rows(report), None, report_body(report))


def raised_op(label: str, start: float, exc: Exception) -> Op:
    return Op(label, time.perf_counter() - start, 0, f"{label}: {type(exc).__name__}: {exc}", None)


class SeriesFamily:
    """run_verification on the series-algebra examples."""

    name = "series-family"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def prepare(self) -> None:
        build = _module("scenarios").build_scenario
        self.scenarios = {sid: build(sid, seed=self.seed) for sid in SERIES_IDS}

    def operations(self) -> list[Callable[[], Op]]:
        return [functools.partial(self._verify, sid) for sid in SERIES_IDS]

    def _verify(self, sid: str) -> Op:
        start = time.perf_counter()
        try:
            report = _module("scenarios").run_verification(self.scenarios[sid], grid=SERIES_GRID, seed=self.seed)
        except Exception as exc:  # an operation that raises is a failed one
            return raised_op(sid, start, exc)
        return scenario_op(sid, time.perf_counter() - start, report)


class MatrixVerify:
    """The ``idemlift run`` command, in process, on the exact-algebra scenarios."""

    name = "matrix-verify"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def prepare(self) -> None:
        # the command builds its own scenario; building them here times
        # the same work as set-up and stops a scenario that fails to build
        # before any timing
        _module("cli")
        build = _module("scenarios").build_scenario
        self.scenarios = {sid: build(sid, seed=self.seed) for sid in VERIFY_IDS}

    def operations(self) -> list[Callable[[], Op]]:
        return [functools.partial(self._run, sid) for sid in VERIFY_IDS]

    def _run(self, sid: str) -> Op:
        out, csv = self.tmp / f"{sid}.json", self.tmp / f"{sid}.csv"
        argv = ["run", sid, "--grid", VERIFY_GRID, "--seed", str(self.seed), "--out", str(out), "--csv", str(csv)]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = _module("cli").main(argv)
        except Exception as exc:  # an operation that raises is a failed one
            return raised_op(sid, start, exc)
        elapsed = time.perf_counter() - start
        if code != 0:
            return Op(sid, elapsed, 0, f"{sid}: exit code {code}", None)
        with open(out, encoding="utf-8") as fh:
            return scenario_op(sid, elapsed, json.load(fh))


class FuncalcStream:
    """Direct functional-calculus calls on random matrices, contours built per input."""

    name = "funcalc-stream"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed

    def prepare(self) -> None:
        # the spectra fix each contour and so most of a call's cost; they
        # come from one stream for every seed, so that seeds differ in the
        # matrices (the eigenbases) but not in the amount of work
        rng, spectra = np.random.default_rng(self.seed), np.random.default_rng(SPECTRA_SEED)
        self.cases = [
            oracle.make_case(rng, spectra, oracle.KINDS[i % 3], 16 if i % 4 == 3 else 4)
            for i in range(FUNCALC_POOL)
        ]
        MatrixAlgebra = _module("algebra").MatrixAlgebra
        self.algebras = {n: MatrixAlgebra(n) for n in (4, 16)}

    def _call(self, case: oracle.Case) -> tuple[np.ndarray, float | None]:
        """The call's result and, for a square root, the angle of its cut."""
        fc, ct = _module("funcalc"), _module("contours")
        x = self.algebras[case.matrix.shape[0]].wrap(case.matrix)
        if case.kind == "riesz":
            cd = fc.ContourData(ct.circle_polygon(oracle.RIESZ_CENTER, oracle.RIESZ_RADIUS), eps=oracle.RIESZ_EPS)
            return fc.riesz_projection(x, cd).payload, None
        if case.kind == "sqrt_cut":
            rep = x.spectrum()
            cut = ct.build_escape_arc(rep)
            eps = cut.distance_to_points(rep.points) / 3.0
            cd = fc.ContourData(ct.build_gamma_pair(cut, eps, rep.radius), eps=eps, branch="cut", cut=cut)
            return fc.sqrt_cut(x, cut, cd, sheet=1).payload, cut.angle
        return fc.sqrt_near_one(x).payload, None

    def operations(self) -> list[Callable[[], Op]]:
        return [
            functools.partial(self._checked_call, f"{i}:{case.kind}:n{case.matrix.shape[0]}", case)
            for i, case in enumerate(self.cases)
        ]

    def _checked_call(self, label: str, case: oracle.Case) -> Op:
        start = time.perf_counter()
        try:
            result, cut_angle = self._call(case)
        except Exception as exc:  # an operation that raises is a failed one
            return raised_op(label, start, exc)
        elapsed = time.perf_counter() - start
        problem = oracle.check(case, result, cut_angle)
        return Op(label, elapsed, 0 if problem else 1, problem, result.tobytes())


WORKLOADS = {w.name: w for w in (SeriesFamily, MatrixVerify, FuncalcStream)}
