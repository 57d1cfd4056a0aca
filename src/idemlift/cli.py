"""Command-line front end for the scenario verification runs.

Exit codes: 0 when every required check passed, 1 when a run or
hypothesis failed its tolerance, 2 for configuration problems (unknown
scenario, malformed grid or config file, a grid of more than
MAX_GRID_POINTS points, a negative seed, a tolerance that is not finite
and nonnegative).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import ConfigError, UnknownScenario
from .report import report_passed, write_csv, write_json
from .scenarios import build_scenario, list_scenarios, run_verification

__all__ = ["RunConfig", "main"]

ENV_OUT_DIR = "IDEMLIFT_OUT_DIR"

# the most grid points a run takes; checked before any point is built
MAX_GRID_POINTS = 10_000

_CONFIG_KEYS = ("grid", "tol-idem", "tol-lift", "out", "csv", "seed")


class RunConfig:
    """Resolved options for one verification run."""

    __slots__ = ("scenario", "grid", "tol_idem", "tol_lift", "out", "csv", "seed")

    def __init__(
        self,
        scenario: str,
        grid: tuple[float, ...] | None = None,
        tol_idem: float | None = None,
        tol_lift: float | None = None,
        out: str | None = None,
        csv: str | None = None,
        seed: int = 0,
    ):
        self.scenario = scenario
        self.grid = grid
        self.tol_idem = tol_idem
        self.tol_lift = tol_lift
        self.out = out
        self.csv = csv
        self.seed = seed

    def tolerance_overrides(self) -> dict[str, float]:
        out: dict[str, float] = {}
        if self.tol_idem is not None:
            out["tol_idem"] = self.tol_idem
            out["tol_comm"] = self.tol_idem
        if self.tol_lift is not None:
            out["tol_lift"] = self.tol_lift
            out["tol_orth"] = self.tol_lift
        return out


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"grid must be center,halfwidth,count, got {text!r}")
    try:
        center, halfwidth = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid component in {text!r}: {exc}") from None
    if not (math.isfinite(center) and math.isfinite(halfwidth)):
        raise ConfigError(f"grid center and halfwidth must be finite, got {text!r}")
    if count < 1:
        raise ConfigError("grid count must be at least 1")
    if count > MAX_GRID_POINTS:
        raise ConfigError(f"grid count must be at most {MAX_GRID_POINTS}, got {count}")
    if halfwidth < 0:
        raise ConfigError("grid halfwidth must be nonnegative")
    if count == 1:
        return (center,)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(center - halfwidth, center + halfwidth, count)
    if not np.isfinite(grid).all():
        raise ConfigError(f"grid points must be finite, but {text!r} overflows")
    return tuple(grid)


def _parse_tolerance(value: float, name: str) -> float:
    """``value`` as a tolerance: finite and nonnegative.  An infinite or NaN
    tolerance would switch its checks off, and a negative one fail every
    check, so both are configuration errors."""
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


def _parse_seed(value: int, name: str) -> int:
    """``value`` as a seed: a scenario draws its noise from
    ``np.random.default_rng(seed)``, which refuses a negative one."""
    if value < 0:
        raise ConfigError(f"{name} must be nonnegative, got {value}")
    return value


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(
                f"{path}:{ln}: unknown key {key!r}; valid keys: {', '.join(_CONFIG_KEYS)}"
            )
        out[key] = value.strip()
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(scenario=args.scenario)
    if args.config:
        raw = _read_config_file(args.config)
        try:
            if "grid" in raw:
                cfg.grid = _parse_grid(raw["grid"])
            if "tol-idem" in raw:
                cfg.tol_idem = _parse_tolerance(float(raw["tol-idem"]), "tol-idem")
            if "tol-lift" in raw:
                cfg.tol_lift = _parse_tolerance(float(raw["tol-lift"]), "tol-lift")
            if "seed" in raw:
                cfg.seed = _parse_seed(int(raw["seed"]), "seed")
        except ValueError as exc:
            raise ConfigError(f"bad value in config file: {exc}") from None
        cfg.out = raw.get("out", cfg.out)
        cfg.csv = raw.get("csv", cfg.csv)
    # command-line flags override the config file
    if args.grid is not None:
        cfg.grid = _parse_grid(args.grid)
    if args.tol_idem is not None:
        cfg.tol_idem = _parse_tolerance(args.tol_idem, "--tol-idem")
    if args.tol_lift is not None:
        cfg.tol_lift = _parse_tolerance(args.tol_lift, "--tol-lift")
    if args.out is not None:
        cfg.out = args.out
    if args.csv is not None:
        cfg.csv = args.csv
    if args.seed is not None:
        cfg.seed = _parse_seed(args.seed, "--seed")
    if cfg.out is None:
        out_dir = os.environ.get(ENV_OUT_DIR, ".")
        cfg.out = os.path.join(out_dir, f"{cfg.scenario}-report.json")
    return cfg


def _fmt(value: float | None, spec: str) -> str:
    """``value`` formatted by ``spec``; reports store non-finite values as null."""
    return "null" if value is None else format(value, spec)


def _summarise(report: dict, out_path: str, csv_path: str | None) -> str:
    lines = []
    verdict = "PASS" if report["passed"] else "FAIL"
    lines.append(
        f"scenario {report['scenario']}: {verdict} (expected outcome: {report['expected_outcome']})"
    )
    hyp_total = len(report["hypotheses"])
    hyp_ok = sum(1 for h in report["hypotheses"] if h["passed"])
    lines.append(f"  hypotheses: {hyp_ok}/{hyp_total} hold")
    for h in report["hypotheses"]:
        mark = "ok" if h["passed"] else ("violated (optional)" if not h["required"] else "FAIL")
        lines.append(
            f"    {h['name']:<28} {_fmt(h['value'], '.3e')} <= {_fmt(h['bound'], '.1e')}  {mark}"
        )
    for r in report["runs"]:
        path = f"path {r['theorem_path']}" if r["theorem_path"] else "      "
        if r.get("error"):
            lines.append(f"  run {r['name']:<24} {path}  ERROR  {r['error']}")
            continue
        # a null value is non-finite, so it is the worst
        values = [c["value"] for c in r["checks"]]
        worst = None if None in values else max(values, default=0.0)
        mark = "PASS" if r["passed"] else "FAIL"
        lines.append(f"  run {r['name']:<24} {path}  {mark}   worst check {_fmt(worst, '.3e')}")
        if not r["passed"]:
            for c in r["checks"]:
                if not c["passed"]:
                    lines.append(
                        f"      failed {c['name']}: {_fmt(c['value'], '.3e')} > {_fmt(c['bound'], '.1e')}"
                    )
    for p in report["probes"]:
        mark = "PASS" if p["passed"] else ("ERROR " + p["error"] if p.get("error") else "FAIL")
        lines.append(f"  probe {p['name']:<22} {mark}")
    if report["failures"]:
        lines.append(f"  failing sections: {', '.join(report['failures'])}")
    lines.append(f"  report written to {out_path}")
    if csv_path:
        lines.append(f"  grid rows written to {csv_path}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idemlift",
        description="Run idempotent-lifting verification scenarios and write JSON reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one scenario and write its report")
    runp.add_argument("scenario", help="scenario id (see `idemlift list`)")
    runp.add_argument(
        "--grid",
        help="parameter grid as center,halfwidth,count (e.g. 0,0.5,21)",
    )
    runp.add_argument("--tol-idem", type=float, help="idempotency/commutation tolerance")
    runp.add_argument("--tol-lift", type=float, help="lift/orthogonality tolerance")
    runp.add_argument("--out", help="JSON report path (default: <scenario>-report.json)")
    runp.add_argument("--csv", help="also write per-grid-point defect rows as CSV")
    runp.add_argument("--seed", type=int, help="seed for randomised sections and probes")
    runp.add_argument("--config", help="key=value config file; flags override it")

    sub.add_parser("list", help="list available scenario ids")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; normalise other codes
        return int(exc.code) if exc.code else 0

    if args.command == "list":
        for sid in list_scenarios():
            print(sid)
        return 0

    try:
        cfg = _resolve_config(args)
        scenario = build_scenario(cfg.scenario, seed=cfg.seed)
    except UnknownScenario as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = run_verification(
        scenario,
        grid=cfg.grid,
        tolerances=cfg.tolerance_overrides(),
        seed=cfg.seed,
    )

    try:
        write_json(report, cfg.out)
        if cfg.csv:
            write_csv(report, cfg.csv)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2

    print(_summarise(report, cfg.out, cfg.csv))
    return 0 if report_passed(report) else 1


if __name__ == "__main__":
    sys.exit(main())
