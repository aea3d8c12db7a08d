"""Hourly simulation loop, results tables, CSV output, and summaries.

Each step follows a fixed order so runs are reproducible: draw the
weather sample, evaluate every generator, solve (lossless balance or AC
power flow), then append records.  A results table is a flat list of
(step, hour, object, quantity, value, unit) observations; the CSV form
sorts rows by (step, object, quantity) and renders values at up to 9
significant digits.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from importlib import resources
from math import isfinite
from pathlib import Path
from typing import Sequence

import numpy as np

from .generation import pv_power, wind_power
from .grid import PerUnitBase, build_admittance
from .powerflow import (
    METHOD_GAUSS_SEIDEL,
    METHOD_NEWTON_RAPHSON,
    PowerFlowProblem,
    PowerFlowSolution,
    SolverOptions,
    compute_injections,
    simple_power_distribution,
    solve,
    total_line_losses,
)
from .scenario import NETWORK_OBJECT, WEATHER_OBJECT, Scenario, format_number
from .weather import WeatherSample, load_weather_csv, weather_series

RESULT_COLUMNS = ("step", "hour", "object", "quantity", "value", "unit")

QUANTITY_UNITS = {
    "cloud_factor": "1",
    "wind_speed": "m/s",
    "temperature": "degC",
    "p_out": "W",
    "p_demand": "W",
    "p_grid": "W",
    "v_mag": "V",
    "v_angle": "rad",
    "losses": "W",
}

_SOLVER_METHODS = {"acpf": METHOD_NEWTON_RAPHSON, "gs": METHOD_GAUSS_SEIDEL}


@dataclass(frozen=True)
class ResultRecord:
    """One observation; (step, object, quantity) is unique within a table."""

    step: int
    hour: int
    object: str
    quantity: str
    value: float
    unit: str


@dataclass(frozen=True)
class SummaryRow:
    """Boxplot-style statistics of one object/quantity series."""

    object: str
    quantity: str
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float


class NonConvergenceError(RuntimeError):
    """The power-flow solver failed to converge at a simulation step.

    worst_bus is the id of the PQ bus with the largest final P or Q
    mismatch; v_mag_range is (min, max) of the last iterate's |V| in pu.
    """

    def __init__(self, step: int, solution: PowerFlowSolution, worst_bus: str):
        self.step = step
        self.solution = solution
        self.worst_bus = worst_bus
        self.v_mag_range = (float(solution.v_mag.min()), float(solution.v_mag.max()))
        super().__init__(
            f"power flow did not converge at step {step} "
            f"(max mismatch {solution.max_mismatch:.3e} pu after "
            f"{solution.iterations} iterations; worst at bus {worst_bus!r}; "
            f"|V| from {self.v_mag_range[0]:.6g} to {self.v_mag_range[1]:.6g} pu)"
        )


def _worst_mismatch_bus(problem: PowerFlowProblem, solution: PowerFlowSolution) -> int:
    """Index of the PQ bus whose final |dP| or |dQ| is largest."""
    p, q = compute_injections(solution.v_mag, solution.v_angle, problem.admittance)
    pq = problem.pq_indices
    worst = np.maximum(np.abs(problem.p_injection - p[pq]), np.abs(problem.q_injection - q[pq]))
    return pq[int(np.argmax(worst))]


def run_simulation(
    scenario: Scenario,
    weather: Sequence[WeatherSample] | None = None,
    trace_dir: str | Path = ".",
) -> list[ResultRecord]:
    """Run the configured number of hourly steps and return the result table.

    An explicit `weather` sequence overrides the scenario's weather
    source; otherwise a scenario trace path (resolved against trace_dir)
    or the synthetic model supplies the samples.  Sample i must be for
    hour (start_hour + i) % 24, else ValueError names the step.
    Non-convergence of the AC solver aborts the run by raising
    NonConvergenceError.  A NaN or infinite result value raises
    ValueError naming its step, object and quantity, so a table never
    holds one.
    """
    cfg = scenario.config
    net = scenario.network

    if weather is not None:
        samples = list(weather)
    elif scenario.weather_trace is not None:
        trace = Path(scenario.weather_trace)
        if not trace.is_absolute():
            trace = Path(trace_dir) / trace
        samples = load_weather_csv(trace)
    else:
        params = replace(scenario.weather, seed=cfg.seed)
        samples = weather_series(params, cfg.steps, cfg.start_hour)
    if len(samples) < cfg.steps:
        raise ValueError(
            f"weather trace provides {len(samples)} samples, run needs {cfg.steps}"
        )
    for step in range(cfg.steps):
        hour = (cfg.start_hour + step) % 24
        if samples[step].hour_of_day != hour:
            raise ValueError(
                f"weather sample for step {step} is for hour {samples[step].hour_of_day}, "
                f"but a run starting at hour {cfg.start_hour} needs hour {hour}"
            )

    grid_object = net.grid.id if net.grid is not None else net.buses[net.slack_index()].id

    use_acpf = cfg.solver in _SOLVER_METHODS
    if use_acpf:
        base = PerUnitBase(s_base=cfg.s_base_va, v_base=cfg.v_base_v)
        admittance = build_admittance(net, base)
        slack = net.slack_index()
        pq = [i for i in range(len(net.buses)) if i != slack]
        options = SolverOptions(method=_SOLVER_METHODS[cfg.solver])
        load_buses = [net.bus_index(load.bus) for load in net.loads]
        producer_buses = [net.bus_index(dev.bus) for dev in (*net.pvs, *net.winds)]

    records: list[ResultRecord] = []

    def emit(step: int, hour: int, obj: str, quantity: str, value: float) -> None:
        value = float(value)
        if not isfinite(value):
            raise ValueError(f"step {step}: {obj} {quantity} is {value}, not a finite number")
        records.append(ResultRecord(step, hour, obj, quantity, value, QUANTITY_UNITS[quantity]))

    for step in range(cfg.steps):
        ws = samples[step]
        hour = ws.hour_of_day
        emit(step, hour, WEATHER_OBJECT, "cloud_factor", ws.cloud_factor)
        emit(step, hour, WEATHER_OBJECT, "wind_speed", ws.wind_speed)
        emit(step, hour, WEATHER_OBJECT, "temperature", ws.temperature)

        productions = [(pv.id, pv_power(pv, ws)) for pv in net.pvs]
        productions += [(w.id, wind_power(w, ws.wind_speed)) for w in net.winds]

        if not use_acpf:
            dispatch = simple_power_distribution(
                [load.active_power for load in net.loads],
                productions,
            )
            for obj, watts in dispatch.produced:
                emit(step, hour, obj, "p_out", watts)
            for load in net.loads:
                emit(step, hour, load.id, "p_demand", load.active_power)
            emit(step, hour, grid_object, "p_grid", dispatch.grid_power)
            continue

        n = len(net.buses)
        p_watts = np.zeros(n)
        q_var = np.zeros(n)
        for load, i in zip(net.loads, load_buses):
            p_watts[i] -= load.active_power
            q_var[i] -= load.reactive_power
        for (_, watts), i in zip(productions, producer_buses):
            p_watts[i] += watts
        problem = PowerFlowProblem(
            admittance=admittance,
            slack_index=slack,
            p_injection=p_watts[pq] / cfg.s_base_va,
            q_injection=q_var[pq] / cfg.s_base_va,
        )
        solution = solve(problem, options)
        if not solution.converged:
            worst = _worst_mismatch_bus(problem, solution)
            raise NonConvergenceError(step, solution, net.buses[worst].id)
        for i, bus in enumerate(net.buses):
            emit(step, hour, bus.id, "v_mag", solution.v_mag[i] * cfg.v_base_v)
            emit(step, hour, bus.id, "v_angle", solution.v_angle[i])
        emit(step, hour, grid_object, "p_grid", solution.slack_injection[0] * cfg.s_base_va)
        losses_pu = total_line_losses(net, base, solution.v_mag, solution.v_angle)
        emit(step, hour, NETWORK_OBJECT, "losses", losses_pu * cfg.s_base_va)

    return records


def render_csv(
    table: Sequence[ResultRecord],
    config_comments: Sequence[tuple[str, str]] | None = None,
) -> str:
    """Render a results table as CSV text (LF endings, 9 significant digits)."""
    lines = []
    for key, value in config_comments or ():
        lines.append(f"# {key} = {value}")
    lines.append(",".join(RESULT_COLUMNS))
    for rec in sorted(table, key=lambda r: (r.step, r.object, r.quantity)):
        lines.append(
            f"{rec.step},{rec.hour},{rec.object},{rec.quantity},"
            f"{format_number(rec.value)},{rec.unit}"
        )
    return "\n".join(lines) + "\n"


def write_csv(
    table: Sequence[ResultRecord],
    path: str | Path,
    config_comments: Sequence[tuple[str, str]] | None = None,
) -> None:
    """Write a results table as UTF-8 CSV; see render_csv for the format."""
    Path(path).write_text(render_csv(table, config_comments), encoding="utf-8", newline="\n")


def read_results_csv(path: str | Path) -> list[ResultRecord]:
    """Read back a results CSV, skipping '#' comment lines."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [
            row
            for row in csv.reader(line for line in fh if not line.startswith("#"))
            if row
        ]
    if not rows:
        raise ValueError(f"{path}: empty results file")
    header = tuple(rows[0])
    if header != RESULT_COLUMNS:
        raise ValueError(
            f"{path}: expected header {','.join(RESULT_COLUMNS)}, got {','.join(header)}"
        )
    table = []
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(RESULT_COLUMNS):
            raise ValueError(f"{path}: row {row_no}: expected {len(RESULT_COLUMNS)} cells")
        try:
            table.append(
                ResultRecord(
                    step=int(row[0]),
                    hour=int(row[1]),
                    object=row[2],
                    quantity=row[3],
                    value=float(row[4]),
                    unit=row[5],
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}: row {row_no}: {exc}") from None
    return table


def summarize(table: Sequence[ResultRecord], quantity: str) -> list[SummaryRow]:
    """Per-object min/quartile/max/mean summary of one quantity.

    Quartiles interpolate linearly between closest ranks (the value at
    zero-based rank p*(n-1)), matching numpy's default percentile method.
    """
    series: dict[str, list[float]] = {}
    for rec in table:
        if rec.quantity == quantity:
            series.setdefault(rec.object, []).append(rec.value)
    if not series:
        available = sorted({rec.quantity for rec in table})
        raise ValueError(
            f"no records with quantity {quantity!r}; available: "
            + (", ".join(available) if available else "none")
        )
    out = []
    for obj in sorted(series):
        values = np.asarray(series[obj])
        q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0])
        out.append(
            SummaryRow(
                object=obj,
                quantity=quantity,
                minimum=float(values.min()),
                q1=float(q1),
                median=float(median),
                q3=float(q3),
                maximum=float(values.max()),
                mean=float(values.mean()),
            )
        )
    return out


BUNDLED_SCENARIOS = ("case1", "case2", "case2_pv")


def bundled_scenario_text(name: str) -> str:
    """Source text of a bundled scenario (case1, case2, case2_pv)."""
    if name not in BUNDLED_SCENARIOS:
        raise KeyError(f"no bundled scenario {name!r}; have {', '.join(BUNDLED_SCENARIOS)}")
    return (
        resources.files("microgridsim")
        .joinpath("scenarios", f"{name}.mgs")
        .read_text(encoding="utf-8")
    )


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a bundled scenario (package installed from files)."""
    if name not in BUNDLED_SCENARIOS:
        raise KeyError(f"no bundled scenario {name!r}; have {', '.join(BUNDLED_SCENARIOS)}")
    return Path(str(resources.files("microgridsim").joinpath("scenarios", f"{name}.mgs")))
