"""Command-line front end for the scenario verification runs.

Each option of ``idemlift run`` is one row of ``_RUN_OPTIONS``: its
config-file key, which is the flag without ``--``, its parser and its
help.  A flag's text and a ``key=value`` line of a ``--config`` file go
through that one parser, and a flag wins over the file.

Exit codes: 0 when every required check passed, 1 when a run or
hypothesis failed its tolerance, 2 for configuration problems (unknown
scenario, malformed grid or config file, a grid of more than
MAX_GRID_POINTS points, a negative seed, a tolerance that is not finite
and nonnegative, an output path in a missing or read-only directory).
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

__all__ = ["main"]

ENV_OUT_DIR = "IDEMLIFT_OUT_DIR"

# the most grid points a run takes; checked before any point is built
MAX_GRID_POINTS = 10_000


def _parse_grid(text: str, _name: str) -> tuple[float, ...]:
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


def _parse_tolerance(text: str, name: str) -> float:
    """``text`` as a tolerance: finite and nonnegative.  An infinite or NaN
    tolerance would switch its checks off, and a negative one fail every
    check, so both are configuration errors."""
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from None
    if not (math.isfinite(value) and value >= 0):
        raise ConfigError(f"{name} must be finite and nonnegative, got {value!r}")
    return value


def _parse_seed(text: str, name: str) -> int:
    """``text`` as a seed: a scenario draws its noise from
    ``np.random.default_rng(seed)``, which refuses a negative one."""
    try:
        value = int(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {exc}") from None
    if value < 0:
        raise ConfigError(f"{name} must be nonnegative, got {value}")
    return value


def _parse_path(text: str, _name: str) -> str:
    return text


# The options of `idemlift run`, one row each: the config-file key (the
# flag is --key), the parser of the option's text, called with the name
# of the text's source (--key for a flag, key for a config line), and the
# flag's help.
_RUN_OPTIONS = (
    ("grid", _parse_grid, "parameter grid as center,halfwidth,count (e.g. 0,0.5,21)"),
    ("tol-idem", _parse_tolerance, "tolerance of idempotency, commutation, self-adjointness and the residuals"),
    ("tol-lift", _parse_tolerance, "tolerance of the lift and of orthogonality"),
    ("out", _parse_path, "JSON report path (default: <scenario>-report.json)"),
    ("csv", _parse_path, "also write per-grid-point defect rows as CSV"),
    ("seed", _parse_seed, "seed for randomised sections and probes"),
)


def _read_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    keys = [key for key, _, _ in _RUN_OPTIONS]
    out: dict[str, str] = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}; valid keys: {', '.join(keys)}")
        out[key] = value.strip()
    return out


def _resolve_options(args: argparse.Namespace) -> dict[str, object]:
    """Each run option by its key: the flag's text if given, else the
    config-file line's, through the option's parser; None when neither
    gives it.  So a flag wins over the file."""
    lines = _read_config_file(args.config) if args.config else {}
    opts: dict[str, object] = {}
    for key, parse, _ in _RUN_OPTIONS:
        flag = getattr(args, key.replace("-", "_"))
        source, text = (key, lines.get(key)) if flag is None else (f"--{key}", flag)
        opts[key] = None if text is None else parse(text, source)
    return opts


def _check_writable(path: str) -> None:
    """Refuse, before the run, an output ``path`` no file can be written to."""
    folder = os.path.dirname(path) or "."
    if not path or os.path.isdir(path) or not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise ConfigError(f"cannot write report: {path!r} is not a file in a writable directory")


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
    for key, _, help_text in _RUN_OPTIONS:
        runp.add_argument(f"--{key}", help=help_text)
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
        opts = _resolve_options(args)
        seed = 0 if opts["seed"] is None else opts["seed"]
        scenario = build_scenario(args.scenario, seed=seed)
        out, csv = opts["out"], opts["csv"]
        if out is None:
            out = os.path.join(os.environ.get(ENV_OUT_DIR, "."), f"{args.scenario}-report.json")
        _check_writable(out)
        if csv:
            _check_writable(csv)
    except (UnknownScenario, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tols = {key.replace("-", "_"): opts[key] for key in ("tol-idem", "tol-lift") if opts[key] is not None}
    report = run_verification(scenario, grid=opts["grid"], tolerances=tols, seed=seed)
    try:
        write_json(report, out)
        if csv:
            write_csv(report, csv)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2

    print(_summarise(report, out, csv))
    return 0 if report_passed(report) else 1


if __name__ == "__main__":
    sys.exit(main())
