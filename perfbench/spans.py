"""Span tracing of idemlift from outside the library.

The traced run replaces the public functions and methods of each module
with wrappers that open one span per call.  Spans live in memory: each
one is folded into per-name totals when it closes (calls, self time,
and wall time of the outermost occurrences), so a long run costs a
fixed amount of memory.  ``Tracer.table()`` is what the benchmark
writes out at the end of a traced run.

Self time is a span's duration minus the durations of its direct
children, so the self times of all spans partition the traced time.
A span nested in one of the same name (a product algebra's
``resolvent_batch`` calling a unitization algebra's) is its own child,
and its time is not counted twice.

``install`` patches every idemlift module that binds a wrapped function,
because modules import public names directly (``lifting`` binds
``sqrt_near_one``, ``funcalc`` binds ``circle_polygon``); ``uninstall``
restores the originals.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    outer_s: float = 0.0


class Tracer:
    """Span stack plus per-name aggregates and deterministic counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[str, int] = {}
        # one list per finished quadrature call: the node count of each
        # outermost resolvent batch it evaluated, in order
        self.quadrature: list[list[int]] = []
        # open resolvent batches of any kind: only the outermost one's
        # nodes count
        self.batch_depth = 0
        self._stack: list[list] = []  # open frames: [name, start, child_s]
        self._open: dict[str, int] = {}
        self._open_quadrature: list[list[int]] = []

    def begin(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def end(self, frame: list) -> None:
        now = self.clock()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        self._stack.pop()
        name, start, child_s = frame
        duration = now - start
        depth = self._open[name] - 1
        self._open[name] = depth
        stats = self.spans.get(name)
        if stats is None:
            stats = self.spans[name] = SpanStats()
        stats.calls += 1
        stats.self_s += duration - child_s
        if depth == 0:
            stats.outer_s += duration
        if self._stack:
            self._stack[-1][2] += duration

    def open_under(self, prefixes: tuple[str, ...]) -> bool:
        """True when any open span's name starts with one of ``prefixes``."""
        return any(frame[0].startswith(prefixes) for frame in self._stack)

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def begin_quadrature(self) -> list[int]:
        passes: list[int] = []
        self._open_quadrature.append(passes)
        return passes

    def end_quadrature(self, passes: list[int]) -> None:
        self._open_quadrature.remove(passes)
        self.quadrature.append(passes)

    def note_batch(self, nodes: int) -> None:
        if self._open_quadrature:
            self._open_quadrature[-1].append(nodes)

    def table(self) -> dict:
        return {
            "spans": {
                name: {"calls": s.calls, "self_s": s.self_s, "outer_s": s.outer_s}
                for name, s in sorted(self.spans.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


# ---------------------------------------------------------------------------
# arithmetic on the aggregates


def useful_node_ratio(quadrature: Iterable[list[int]]) -> float:
    """Nodes of each call's accepted (last) pass over all nodes it
    evaluated, summed over calls; 0 when no call evaluated a node."""
    accepted = evaluated = 0
    for passes in quadrature:
        if passes:
            accepted += passes[-1]
            evaluated += sum(passes)
    return accepted / evaluated if evaluated else 0.0


def sqrt_near_one_per_point(calls: int, valid_points: int) -> float:
    """``sqrt_near_one`` calls per valid orthogonal-step point; 0 when no
    step produced a valid point."""
    return calls / valid_points if valid_points else 0.0


ALGEBRA_KINDS = ("matrix", "dual", "block-triangular", "unitization", "product")
ELEMENTWISE = ("zero", "one", "add", "neg", "scale", "norm", "adjoint", "tail_bound", "add_tail")
FUNCALC = ("riesz_projection", "sqrt_cut", "sqrt_near_one", "spectral_component_apply")
LIFTING = ("lift_local", "lift_local_sa", "lift_ortho_step", "lift_family")
CONTOUR_BUILD = (
    "contours.JordanPolygon.__post_init__",
    "contours.PolygonalArc.__post_init__",
    "contours.circle_polygon",
    "contours.square_polygon",
    "contours.build_escape_arc",
    "contours.build_gamma_pair",
)
CONTOUR_QUERY = (
    "contours.JordanPolygon.winding_number",
    "contours.JordanPolygon.encloses",
    "contours.JordanPolygon.distance_to_point",
    "contours.JordanPolygon.distance_to_points",
    "contours.PolygonalArc.distance_to_point",
    "contours.PolygonalArc.distance_to_points",
)
FAMILY_EVAL = ("families.ElementFamily.__call__", "families.Section.__call__")
FAMILY_HOM = ("families.HomFamily.apply",)  # hom_apply goes through it
# spans under which a sqrt_near_one call belongs to a lift, not to a
# direct functional-calculus call
LIFT_CONTEXT = ("lifting.", "families.", "scenarios.", "cli.")


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics, by name, from one traced pass."""

    def calls(*names: str) -> int:
        return sum(tr.spans[n].calls for n in names if n in tr.spans)

    def self_s(*names: str) -> float:
        return sum(tr.spans[n].self_s for n in names if n in tr.spans)

    def outer_s(*names: str) -> float:
        return sum(tr.spans[n].outer_s for n in names if n in tr.spans)

    count = tr.counts.get
    out: dict[str, float] = {"algebra.resolvent_batch.nodes": count("algebra.resolvent_batch.nodes", 0)}
    for kind in ALGEBRA_KINDS:
        out[f"algebra.{kind}.resolvent_batch.self_s"] = self_s(f"algebra.{kind}.resolvent_batch")
    out["algebra.weighted_sum.calls"] = calls("algebra.weighted_sum")
    out["algebra.weighted_sum.terms"] = count("algebra.weighted_sum.terms", 0)
    out["algebra.weighted_sum.self_s"] = self_s("algebra.weighted_sum")
    for op in ("mul", "inverse", "spectrum"):
        out[f"algebra.{op}.calls"] = calls(f"algebra.{op}")
    out["algebra.elementwise.self_s"] = self_s(*(f"algebra.{op}" for op in ELEMENTWISE))
    for fn in FUNCALC:
        out[f"funcalc.{fn}.calls"] = calls(f"funcalc.{fn}")
        out[f"funcalc.{fn}.self_s"] = self_s(f"funcalc.{fn}")
    out["funcalc.refinements"] = count("funcalc.refinements", 0)
    out["funcalc.useful_node_ratio"] = useful_node_ratio(tr.quadrature)
    out["contours.polygons_built"] = calls("contours.JordanPolygon.__post_init__")
    out["contours.build_s"] = self_s(*CONTOUR_BUILD)
    out["contours.query_s"] = self_s(*CONTOUR_QUERY)
    out["families.eval.calls"] = calls(*FAMILY_EVAL)
    out["families.hom_apply.calls"] = calls(*FAMILY_HOM)
    out["families.self_s"] = self_s(*(n for n in tr.spans if n.startswith("families.")))
    for fn in LIFTING:
        out[f"lifting.{fn}.self_s"] = self_s(f"lifting.{fn}")
    out["lifting.points.valid"] = count("lifting.points.valid", 0)
    out["lifting.points.attempted"] = count("lifting.points.attempted", 0)
    out["lifting.sqrt_near_one_per_point"] = sqrt_near_one_per_point(
        count("lifting.sqrt_near_one.calls", 0), count("lifting.ortho_points.valid", 0)
    )
    out["scenarios.build_s"] = outer_s("scenarios.build_scenario")
    out["scenarios.run_verification.self_s"] = self_s("scenarios.run_verification")
    out["report.write_s"] = outer_s("report.write_json", "report.write_csv")
    out["report.json_bytes"] = count("report.json_bytes", 0)
    out["report.csv_bytes"] = count("report.csv_bytes", 0)
    out["cli.main.self_s"] = self_s("cli.main")
    return out


# ---------------------------------------------------------------------------
# wrappers


def _plain(tr: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tr.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.end(frame)

    return wrapper


def _resolvent_batch(tr: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, x, zs, *args, **kwargs):
        if not hasattr(zs, "__len__"):
            zs = list(zs)
        depth = tr.batch_depth
        if depth == 0:
            tr.add("algebra.resolvent_batch.nodes", len(zs))
            tr.note_batch(len(zs))
        tr.batch_depth = depth + 1
        frame = tr.begin(f"algebra.{self.kind}.resolvent_batch")
        try:
            return fn(self, x, zs, *args, **kwargs)
        finally:
            tr.end(frame)
            tr.batch_depth = depth

    return wrapper


def _weighted_sum(tr: Tracer, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, elems, coeffs, *args, **kwargs):
        if not hasattr(elems, "__len__"):
            elems = list(elems)
        tr.add("algebra.weighted_sum.terms", len(elems))
        frame = tr.begin("algebra.weighted_sum")
        try:
            return fn(self, elems, coeffs, *args, **kwargs)
        finally:
            tr.end(frame)

    return wrapper


def _quadrature(tr: Tracer, name: str, fn: Callable) -> Callable:
    """Span for a public functional-calculus call; reads the call's
    QuadratureAudit records through its ``audit_sink`` argument."""
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        sink = bound.arguments.get("audit_sink")
        if sink is None:
            sink = bound.arguments["audit_sink"] = []
        before = len(sink)
        if name == "funcalc.sqrt_near_one" and tr.open_under(LIFT_CONTEXT):
            tr.add("lifting.sqrt_near_one.calls")
        passes = tr.begin_quadrature()
        frame = tr.begin(name)
        try:
            return fn(*bound.args, **bound.kwargs)
        finally:
            tr.end(frame)
            tr.end_quadrature(passes)
            tr.add("funcalc.refinements", sum(a.refinements for a in sink[before:]))

    return wrapper


def _lift(tr: Tracer, name: str, fn: Callable) -> Callable:
    """Span for a lift routine that returns a trace of grid points."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tr.begin(name)
        try:
            trace = fn(*args, **kwargs)
        finally:
            tr.end(frame)
        valid = sum(1 for p in trace.points if p.valid)
        tr.add("lifting.points.attempted", len(trace.points))
        tr.add("lifting.points.valid", valid)
        if name == "lifting.lift_ortho_step":
            tr.add("lifting.ortho_points.valid", valid)
        return trace

    return wrapper


def _writer(tr: Tracer, name: str, key: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(report, path, *args, **kwargs):
        frame = tr.begin(name)
        try:
            fn(report, path, *args, **kwargs)
        finally:
            tr.end(frame)
        tr.add(key, os.path.getsize(path))

    return wrapper


class Installation:
    """The patches one ``install`` made, so they can be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _patch_function(inst: Installation, modules: list, fn: Callable, wrapper: Callable) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                inst.set(mod, attr, wrapper)


def install(tr: Tracer) -> Installation:
    """Wrap the public API of every idemlift layer; returns the handle
    whose ``uninstall`` restores the library."""
    from idemlift import algebra, cli, contours, families, funcalc, lifting, report, scenarios

    modules = [m for name, m in sorted(sys.modules.items()) if name == "idemlift" or name.startswith("idemlift.")]
    inst = Installation()

    def functions(mod, prefix: str, names: Iterable[str], make=None) -> None:
        for fname in names:
            fn = getattr(mod, fname)
            span = f"{prefix}.{fname}"
            wrapper = make(span, fn) if make else _plain(tr, span, fn)
            _patch_function(inst, modules, fn, wrapper)

    # algebra: every class's own definition of each public method
    for cls in [algebra.BanachAlgebra, *_subclasses(algebra.BanachAlgebra)]:
        for attr in ("resolvent_batch", "weighted_sum", "mul", "inverse", "spectrum", *ELEMENTWISE):
            fn = cls.__dict__.get(attr)
            if fn is None:
                continue
            if attr == "resolvent_batch":
                wrapper = _resolvent_batch(tr, fn)
            elif attr == "weighted_sum":
                wrapper = _weighted_sum(tr, fn)
            else:
                wrapper = _plain(tr, f"algebra.{attr}", fn)
            inst.set(cls, attr, wrapper)

    for cls, attrs in (
        (contours.JordanPolygon, ("__post_init__", "winding_number", "encloses", "distance_to_point", "distance_to_points")),
        (contours.PolygonalArc, ("__post_init__", "distance_to_point", "distance_to_points")),
        (families.ElementFamily, ("__call__",)),
        (families.Section, ("__call__", "defect")),
        (families.HomFamily, ("apply",)),
    ):
        layer = cls.__module__.rsplit(".", 1)[-1]
        for attr in attrs:
            fn = cls.__dict__[attr]
            inst.set(cls, attr, _plain(tr, f"{layer}.{cls.__name__}.{attr}", fn))

    functions(contours, "contours", ("circle_polygon", "square_polygon", "build_escape_arc", "build_gamma_pair"))
    functions(
        funcalc, "funcalc", ("contour_apply", *FUNCALC), lambda span, fn: _quadrature(tr, span, fn)
    )
    functions(
        families,
        "families",
        ("hom_apply", "make_section", "symmetrize", "constant_family", "exp_conjugation_family", "kernel_residual"),
    )
    functions(lifting, "lifting", ("lift_trivial", "choose_sign", "lift_family"))
    functions(
        lifting, "lifting", ("lift_local", "lift_local_sa", "lift_ortho_step"), lambda span, fn: _lift(tr, span, fn)
    )
    functions(scenarios, "scenarios", ("build_scenario", "run_verification"))
    functions(report, "report", ("build_report",))
    for fname, key in (("write_json", "report.json_bytes"), ("write_csv", "report.csv_bytes")):
        fn = getattr(report, fname)
        _patch_function(inst, modules, fn, _writer(tr, f"report.{fname}", key, fn))
    functions(cli, "cli", ("main",))
    return inst


def _subclasses(cls: type) -> list[type]:
    out: list[type] = []
    for sub in cls.__subclasses__():
        out.extend(c for c in (sub, *_subclasses(sub)) if c not in out)
    return out
