"""Command-line interface: run, validate, and summarize subcommands.

Exit codes: 0 on success, 1 for parse/validation/usage problems, 2 when
the power-flow solver fails to converge mid-run.  Diagnostics go to
stderr; results go to the output file or stdout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .engine import (
    NonConvergenceError,
    read_results_csv,
    render_csv,
    run_simulation,
    summarize,
    write_csv,
)
from .scenario import (
    SOLVER_CHOICES,
    Scenario,
    ScenarioFormatError,
    format_number,
    parse_scenario,
    simulation_pairs,
)
from .weather import WeatherTraceError, load_weather_csv


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this CLI reserves 2 for
    # solver non-convergence, so route usage problems through exit code 1.
    def error(self, message: str):
        raise _UsageError(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="microgridsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run = sub.add_parser("run", help="run a scenario and write results CSV")
    run.add_argument("scenario", help="path of a .mgs scenario file")
    run.add_argument("--steps", type=int, help="override the number of hourly steps")
    run.add_argument("--seed", type=int, help="override the random seed")
    run.add_argument("--solver", choices=SOLVER_CHOICES, help="override the solver")
    run.add_argument("--weather-csv", help="use an external weather trace CSV")
    run.add_argument("--out", help="results CSV path (default: stdout)")

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("scenario", help="path of a .mgs scenario file")

    summ = sub.add_parser("summarize", help="summarize a results CSV")
    summ.add_argument("results", help="path of a results CSV")
    summ.add_argument("--quantity", help="quantity to summarize (default: all present)")

    return parser


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path!r}: {exc.strerror or exc}") from None


def _print_scenario_errors(path: str, exc: ScenarioFormatError) -> None:
    for err in exc.errors:
        print(f"{path}:{err}", file=sys.stderr)


def _load_scenario(path: str) -> Scenario:
    return parse_scenario(_read_text(path))


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = _load_scenario(args.scenario)
    except ScenarioFormatError as exc:
        _print_scenario_errors(args.scenario, exc)
        return 1

    cfg = scenario.config
    if args.steps is not None:
        if args.steps < 1:
            raise _UsageError("--steps must be at least 1")
        cfg = replace(cfg, steps=args.steps)
    if args.seed is not None:
        if not 0 <= args.seed < 2**64:
            raise _UsageError("--seed must fit in an unsigned 64-bit integer")
        cfg = replace(cfg, seed=args.seed)
    if args.solver is not None:
        cfg = replace(cfg, solver=args.solver)
    scenario = replace(scenario, config=cfg)

    weather = None
    if args.weather_csv is not None:
        try:
            weather = load_weather_csv(args.weather_csv)
        except OSError as exc:
            raise _UsageError(
                f"cannot read {args.weather_csv!r}: {exc.strerror or exc}"
            ) from None
        except WeatherTraceError as exc:
            print(f"{args.weather_csv}: {exc}", file=sys.stderr)
            return 1

    comments = simulation_pairs(cfg)
    if args.weather_csv is not None:
        comments.append(("weather_csv", args.weather_csv))

    try:
        table = run_simulation(
            scenario, weather=weather, trace_dir=Path(args.scenario).parent
        )
    except NonConvergenceError as exc:
        print(f"{args.scenario}: {exc}", file=sys.stderr)
        return 2
    except (WeatherTraceError, ValueError, OSError) as exc:
        print(f"{args.scenario}: {exc}", file=sys.stderr)
        return 1

    if args.out is not None:
        try:
            write_csv(table, args.out, comments)
        except OSError as exc:
            print(f"cannot write {args.out!r}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(render_csv(table, comments))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        _load_scenario(args.scenario)
    except ScenarioFormatError as exc:
        _print_scenario_errors(args.scenario, exc)
        print(f"{len(exc.errors)} diagnostics")
        return 1
    print("0 diagnostics")
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    try:
        table = read_results_csv(args.results)
    except OSError as exc:
        raise _UsageError(f"cannot read {args.results!r}: {exc.strerror or exc}") from None
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1

    if args.quantity is not None:
        quantities = [args.quantity]
    else:
        quantities = sorted(table.quantities)
    try:
        rows = [row for quantity in quantities for row in summarize(table, quantity)]
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print("object,quantity,min,q1,median,q3,max,mean")
    for row in rows:
        print(
            f"{row.object},{row.quantity},"
            f"{format_number(row.minimum)},{format_number(row.q1)},"
            f"{format_number(row.median)},{format_number(row.q3)},"
            f"{format_number(row.maximum)},{format_number(row.mean)}"
        )
    return 0


def cli_main(argv: Sequence[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_summarize(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        code = exc.code
        return code if isinstance(code, int) else 0


def main() -> None:
    sys.exit(cli_main())
