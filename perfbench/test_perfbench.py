"""Tests of the benchmark's own arithmetic and tracing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import spec
from stats import percentile, tail_percentile
from workloads import WORKLOADS, Op, report_body

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self, *times: float):
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


# -- percentile rule -----------------------------------------------------


@pytest.mark.parametrize(
    "n, want",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, None)],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, want):
    samples = [float(i) for i in range(n)]
    got = tail_percentile(samples)
    if want is None:
        assert got is None
        return
    p, value = got
    assert p == want
    assert value == percentile(samples, p)
    assert sum(1 for s in samples if s > value) >= 10


def test_tail_percentile_counts_ties_as_not_beyond():
    assert tail_percentile([1.0] * 500) is None
    p, value = tail_percentile([1.0] * 90 + [2.0] * 10)
    assert (p, value) == (90.0, 1.0)


def test_percentile_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert percentile([3.0, 1.0, 2.0, 4.0], 90) == 4.0
    assert percentile([5.0], 99.9) == 5.0


# -- self time -----------------------------------------------------------


def test_self_time_subtracts_children_across_nested_kinds():
    # product -> unitization -> weighted_sum, the nesting of a series
    # scenario's resolvent batch
    tr = spans.Tracer(FakeClock(0.0, 1.0, 2.0, 5.0, 7.0, 10.0))
    outer = tr.begin("algebra.product.resolvent_batch")
    mid = tr.begin("algebra.unitization.resolvent_batch")
    leaf = tr.begin("algebra.weighted_sum")
    tr.end(leaf)
    tr.end(mid)
    tr.end(outer)
    assert tr.spans["algebra.weighted_sum"].self_s == 3.0
    assert tr.spans["algebra.unitization.resolvent_batch"].self_s == 3.0
    assert tr.spans["algebra.product.resolvent_batch"].self_s == 4.0
    assert sum(s.self_s for s in tr.spans.values()) == 10.0


def test_self_time_of_a_span_nested_in_its_own_name():
    # a product of products: the inner call is the outer one's child
    tr = spans.Tracer(FakeClock(0.0, 2.0, 3.0, 6.0, 7.0, 10.0))
    outer = tr.begin("algebra.product.resolvent_batch")
    inner = tr.begin("algebra.product.resolvent_batch")
    leaf = tr.begin("algebra.weighted_sum")
    tr.end(leaf)
    tr.end(inner)
    tr.end(outer)
    stats = tr.spans["algebra.product.resolvent_batch"]
    assert stats.calls == 2
    assert stats.self_s == (10.0 - 5.0) + (7.0 - 2.0 - 3.0)
    assert stats.outer_s == 10.0  # the nested call is not counted twice
    assert tr.spans["algebra.weighted_sum"].self_s == 3.0


def test_spans_must_close_in_order():
    tr = spans.Tracer(FakeClock(0.0, 1.0, 2.0))
    first = tr.begin("a")
    tr.begin("b")
    with pytest.raises(RuntimeError):
        tr.end(first)


# -- ratios --------------------------------------------------------------


def test_useful_node_ratio():
    # sqrt_near_one today: 64 edges x 16 nodes, then x 32, accepted
    assert spans.useful_node_ratio([[1024, 2048]]) == pytest.approx(2 / 3)
    # a call with two refinements and one without batches
    assert spans.useful_node_ratio([[100, 200, 400], [], [50, 100]]) == pytest.approx(500 / 850)
    assert spans.useful_node_ratio([]) == 0.0
    assert spans.useful_node_ratio([[]]) == 0.0


def test_sqrt_near_one_per_point():
    assert spans.sqrt_near_one_per_point(12, 6) == 2.0
    assert spans.sqrt_near_one_per_point(9, 4) == 2.25
    assert spans.sqrt_near_one_per_point(3, 0) == 0.0


def test_layer_metrics_name_every_per_layer_metric_but_the_overhead():
    names = set(spans.layer_metrics(spans.Tracer()))
    assert names | {"trace.overhead"} == {m["name"] for m in spec.BENCHMARK["per_layer"]}


# -- wrappers on the real library ------------------------------------------


@pytest.fixture
def idemlift_modules():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from idemlift import algebra, funcalc, lifting

        yield algebra, funcalc, lifting
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_tracing_changes_no_result_and_counts_quadrature(idemlift_modules):
    algebra, funcalc, lifting = idemlift_modules
    original = funcalc.sqrt_near_one
    alg = algebra.MatrixAlgebra(3)
    y = alg.wrap(np.diag([0.1, -0.2, 0.05j]) + 0.01)
    untraced = funcalc.sqrt_near_one(y).payload

    tr = spans.Tracer()
    installed = spans.install(tr)
    try:
        assert lifting.sqrt_near_one is not original
        traced = funcalc.sqrt_near_one(y).payload
    finally:
        installed.uninstall()
    assert funcalc.sqrt_near_one is original and lifting.sqrt_near_one is original
    assert np.array_equal(traced, untraced)

    metrics = spans.layer_metrics(tr)
    assert metrics["funcalc.sqrt_near_one.calls"] == 1
    (passes,) = tr.quadrature
    assert metrics["funcalc.refinements"] == len(passes) - 1
    assert metrics["algebra.resolvent_batch.nodes"] == sum(passes)
    assert metrics["funcalc.useful_node_ratio"] == passes[-1] / sum(passes)
    assert metrics["contours.polygons_built"] == 1
    # a direct call is not charged to lifting
    assert tr.counts.get("lifting.sqrt_near_one.calls", 0) == 0


def test_report_body_ignores_only_timings():
    a = {"passed": True, "runs": [], "timings": {"family": 1.0}}
    b = {"passed": True, "runs": [], "timings": {"family": 2.0}}
    assert report_body(a) == report_body(b)
    assert report_body(a) != report_body({**a, "passed": False})


# -- the run loop ------------------------------------------------------------


class FakeWorkload:
    """Two operations; the second one's output changes after the first pass."""

    name = "fake"

    def __init__(self) -> None:
        self.passes = 0
        self.prepared = 0

    def prepare(self) -> None:
        self.prepared += 1

    def operations(self):
        return [self._steady, self._drifting]

    def _steady(self) -> Op:
        return Op("steady", 0.5, 2, None, "same")

    def _drifting(self) -> Op:
        self.passes += 1
        return Op("drifting", 1.5, 1, None, "first" if self.passes == 1 else "later")


def test_timed_run_fails_an_output_that_changes_between_passes(monkeypatch):
    monkeypatch.setattr(run, "import_library", lambda: None)
    ops, passes, _ = run.timed_run(FakeWorkload(), seconds=0.01)
    assert passes >= 2 and len(ops) == 2 * passes
    drifting = [op for op in ops if op.label == "drifting"]
    assert drifting[0].error is None
    assert all("differs from the first pass" in op.error and op.points == 0 for op in drifting[1:])
    assert all(op.error is None for op in ops if op.label == "steady")


def test_timed_run_sets_up_at_intervals_over_the_run(monkeypatch):
    monkeypatch.setattr(run, "import_library", lambda: None)
    workload = FakeWorkload()
    _, passes, setups = run.timed_run(workload, seconds=0.05)
    # one set-up per interval, the first before any operation
    assert len(setups) == run.SETUP_REPS
    assert workload.prepared == len(setups) < passes


def test_end_to_end_throughput_is_total_work_over_total_time():
    ops = [Op("a", s, 2, None, None) for s in (1.0, 2.0, 9.0)] + [Op("b", 3.0, 1, None, None)] * 3
    ops.append(Op("b", 3.0, 0, "b: failed", None))
    gated, detail = run.end_to_end(FakeWorkload(), ops, passes=4, setups=[0.3, 0.1, 0.2])
    assert gated["setup_s"] == detail["setup_s"] == 0.1
    assert gated["ops_per_s"] == pytest.approx((3 * 2 + 3 * 1) / (12.0 + 12.0))
    # a scenario's time is still the median over the passes
    assert detail["scenario_s.a"] == 2.0 and detail["scenario_s.b"] == 3.0
    assert detail["failed_ratio"] == pytest.approx(1 / 7)
    assert set(gated) == {m["name"] for m in spec.BENCHMARK["end_to_end"]}


# -- BENCHMARK.json --------------------------------------------------------


def test_benchmark_json_names_and_bounds():
    data = spec.BENCHMARK
    assert [w["name"] for w in data["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in data["end_to_end"] + data["per_layer"]] + [w["name"] for w in data["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in data["end_to_end"] + data["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    bounds = {m["name"]: m["bound"] for m in data["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
