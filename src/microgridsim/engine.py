"""Hourly simulation loop, results tables, CSV output, and summaries.

Each step follows a fixed order so runs are reproducible: draw the
weather sample, evaluate every generator, solve (lossless balance or AC
power flow), then append that step's values.  Every step yields the same
(object, quantity) sequence, so the run states it once and keeps one flat
list of values.  The result is a ResultTable: numpy columns of step, hour,
value and name codes, built once at the end of the run.  Iterating a
table yields (step, hour, object, quantity, value, unit) ResultRecords.
The CSV form sorts rows by (step, object, quantity) and renders values at
up to 9 significant digits.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from importlib import resources
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class ResultRecord(NamedTuple):
    """One observation; (step, object, quantity) is unique within a table."""

    step: int
    hour: int
    object: str
    quantity: str
    value: float
    unit: str


def _encode(labels: Iterable[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of labels into the tuple of distinct labels, in first-seen order."""
    index: dict[str, int] = {}
    codes = [index.setdefault(label, len(index)) for label in labels]
    return np.array(codes, dtype=np.intp), tuple(index)


@dataclass(frozen=True, eq=False)
class ResultTable:
    """A results table held as columns, one entry per observation.

    Row i is (step[i], hour[i], objects[object_code[i]],
    quantities[quantity_code[i]], value[i], units[unit_code[i]]).  The
    name tuples list the distinct names in order of first appearance.
    Rows keep the order they were added in; render_csv sorts them.
    Iterating yields ResultRecords, which are built only then.
    """

    step: np.ndarray
    hour: np.ndarray
    object_code: np.ndarray
    quantity_code: np.ndarray
    unit_code: np.ndarray
    value: np.ndarray
    objects: tuple[str, ...]
    quantities: tuple[str, ...]
    units: tuple[str, ...]

    @classmethod
    def from_columns(
        cls,
        step: Iterable[int],
        hour: Iterable[int],
        obj: Iterable[str],
        quantity: Iterable[str],
        value: Iterable[float],
        unit: Iterable[str],
    ) -> ResultTable:
        """Table of the given per-row columns, names coded in first-seen order."""
        object_code, object_names = _encode(obj)
        quantity_code, quantity_names = _encode(quantity)
        unit_code, unit_names = _encode(unit)
        return cls(
            step=np.fromiter(step, dtype=np.int64),
            hour=np.fromiter(hour, dtype=np.int64),
            object_code=object_code,
            quantity_code=quantity_code,
            unit_code=unit_code,
            value=np.fromiter(value, dtype=np.float64),
            objects=object_names,
            quantities=quantity_names,
            units=unit_names,
        )

    @classmethod
    def from_records(cls, records: Iterable[ResultRecord]) -> ResultTable:
        """Table of the given records, in their order."""
        columns = list(zip(*records)) or [()] * len(RESULT_COLUMNS)
        return cls.from_columns(*columns)

    def __len__(self) -> int:
        return len(self.value)

    def __iter__(self) -> Iterator[ResultRecord]:
        return map(
            ResultRecord._make,
            zip(
                self.step.tolist(),
                self.hour.tolist(),
                map(self.objects.__getitem__, self.object_code.tolist()),
                map(self.quantities.__getitem__, self.quantity_code.tolist()),
                self.value.tolist(),
                map(self.units.__getitem__, self.unit_code.tolist()),
            ),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        return list(self) == list(other)


def _as_table(table: ResultTable | Iterable[ResultRecord]) -> ResultTable:
    return table if isinstance(table, ResultTable) else ResultTable.from_records(table)


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
    """Index of the PQ bus whose final |dP| or |dQ| is largest.

    The state may have overflowed, as the solver's own mismatch did, so
    numpy's warnings are silenced here too.
    """
    pq = problem.pq_indices
    with np.errstate(over="ignore", invalid="ignore"):
        p, q = compute_injections(solution.v_mag, solution.v_angle, problem.admittance)
        dp, dq = problem.p_injection - p[pq], problem.q_injection - q[pq]
    worst = np.maximum(np.abs(dp), np.abs(dq))
    return pq[int(np.argmax(worst))]


def run_simulation(
    scenario: Scenario,
    weather: Sequence[WeatherSample] | None = None,
    trace_dir: str | Path = ".",
) -> ResultTable:
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

    # Every step emits the same (object, quantity) sequence: the weather,
    # then the balance or power-flow results.  Each step's values are
    # appended to one flat list, in that order.
    keys = [(WEATHER_OBJECT, q) for q in ("cloud_factor", "wind_speed", "temperature")]
    use_acpf = cfg.solver in _SOLVER_METHODS
    if use_acpf:
        base = PerUnitBase(s_base=cfg.s_base_va, v_base=cfg.v_base_v)
        admittance = build_admittance(net, base)
        slack = net.slack_index()
        pq = [i for i in range(len(net.buses)) if i != slack]
        options = SolverOptions(method=_SOLVER_METHODS[cfg.solver])
        load_buses = [net.bus_index(load.bus) for load in net.loads]
        producer_buses = [net.bus_index(dev.bus) for dev in (*net.pvs, *net.winds)]
        keys += [(bus.id, q) for bus in net.buses for q in ("v_mag", "v_angle")]
        keys += [(grid_object, "p_grid"), (NETWORK_OBJECT, "losses")]
    else:
        demands = [load.active_power for load in net.loads]
        producer_ids = [dev.id for dev in (*net.pvs, *net.winds)]
        keys += [(dev_id, "p_out") for dev_id in producer_ids]
        keys += [(load.id, "p_demand") for load in net.loads]
        keys += [(grid_object, "p_grid")]

    def solved_values(productions: list[float], step: int) -> list[float]:
        n = len(net.buses)
        p_watts = np.zeros(n)
        q_var = np.zeros(n)
        for load, i in zip(net.loads, load_buses):
            p_watts[i] -= load.active_power
            q_var[i] -= load.reactive_power
        for watts, i in zip(productions, producer_buses):
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
        voltages = np.column_stack((solution.v_mag * cfg.v_base_v, solution.v_angle))
        losses_pu = total_line_losses(net, base, solution.v_mag, solution.v_angle)
        return [
            *voltages.ravel().tolist(),
            solution.slack_injection[0] * cfg.s_base_va,
            losses_pu * cfg.s_base_va,
        ]

    values: list[float] = []
    for step in range(cfg.steps):
        ws = samples[step]
        row = [ws.cloud_factor, ws.wind_speed, ws.temperature]
        try:
            productions = [pv_power(pv, ws) for pv in net.pvs]
            productions += [wind_power(w, ws.wind_speed) for w in net.winds]
            if use_acpf:
                row += solved_values(productions, step)
            else:
                dispatch = simple_power_distribution(demands, list(zip(producer_ids, productions)))
                row += [watts for _, watts in dispatch.produced]
                row += demands
                row.append(dispatch.grid_power)
        except Exception:
            # The weather values come first: a bad one is the error to report.
            _require_finite(step, keys, row)
            raise
        if not isfinite(sum(row)):
            _require_finite(step, keys, row)
        values += row

    k = len(keys)
    object_code, objects = _encode(obj for obj, _ in keys)
    quantity_code, quantities = _encode(q for _, q in keys)
    unit_code, units = _encode(QUANTITY_UNITS[q] for _, q in keys)
    steps = np.arange(cfg.steps, dtype=np.int64)
    return ResultTable(
        step=np.repeat(steps, k),
        hour=np.repeat((cfg.start_hour + steps) % 24, k),
        object_code=np.tile(object_code, cfg.steps),
        quantity_code=np.tile(quantity_code, cfg.steps),
        unit_code=np.tile(unit_code, cfg.steps),
        value=np.array(values, dtype=np.float64),
        objects=objects,
        quantities=quantities,
        units=units,
    )


def _require_finite(step: int, keys: Sequence[tuple[str, str]], row: Sequence[float]) -> None:
    """Raise ValueError naming the first NaN or infinite value of a step's row."""
    for (obj, quantity), value in zip(keys, row):
        value = float(value)
        if not isfinite(value):
            raise ValueError(f"step {step}: {obj} {quantity} is {value}, not a finite number")


def render_csv(
    table: ResultTable | Sequence[ResultRecord],
    config_comments: Sequence[tuple[str, str]] | None = None,
) -> str:
    """Render a results table as CSV text (LF endings, 9 significant digits).

    Rows are ordered by (step, object, quantity), names in Python string
    order; rows that tie keep their table order.
    """
    table = _as_table(table)
    lines = [f"# {key} = {value}" for key, value in config_comments or ()]
    lines.append(",".join(RESULT_COLUMNS))
    order = np.lexsort(
        (
            _ranks(table.quantities)[table.quantity_code],
            _ranks(table.objects)[table.object_code],
            table.step,
        )
    )
    lines += [
        f"{step},{hour},{obj},{quantity},{format_number(value)},{unit}"
        for step, hour, obj, quantity, value, unit in zip(
            table.step[order].tolist(),
            table.hour[order].tolist(),
            map(table.objects.__getitem__, table.object_code[order].tolist()),
            map(table.quantities.__getitem__, table.quantity_code[order].tolist()),
            table.value[order].tolist(),
            map(table.units.__getitem__, table.unit_code[order].tolist()),
        )
    ]
    return "\n".join(lines) + "\n"


def _ranks(names: Sequence[str]) -> np.ndarray:
    """Position of each name when the names are sorted as Python strings."""
    ranks = np.empty(len(names), dtype=np.intp)
    ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return ranks


def write_csv(
    table: ResultTable | Sequence[ResultRecord],
    path: str | Path,
    config_comments: Sequence[tuple[str, str]] | None = None,
) -> None:
    """Write a results table as UTF-8 CSV; see render_csv for the format."""
    Path(path).write_text(render_csv(table, config_comments), encoding="utf-8", newline="\n")


def read_results_csv(path: str | Path) -> ResultTable:
    """Read back a results CSV, skipping '#' comment lines.

    A row with the wrong number of cells, or a step, hour or value that
    does not parse as int64, int64 or float, is a ValueError that names
    the first such row by its number among the non-comment rows, the
    header being row 1.
    """
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
    body = rows[1:]
    if any(len(row) != len(RESULT_COLUMNS) for row in body):
        _raise_bad_row(path, body)
    step, hour, obj, quantity, value, unit = (
        [row[i] for row in body] for i in range(len(RESULT_COLUMNS))
    )
    try:
        return ResultTable.from_columns(
            map(int, step), map(int, hour), obj, quantity, map(float, value), unit
        )
    except (ValueError, OverflowError):
        _raise_bad_row(path, body)
        raise


def _raise_bad_row(path: str | Path, body: Sequence[Sequence[str]]) -> None:
    """Raise ValueError naming the first body row that is not a valid record."""
    for row_no, row in enumerate(body, start=2):
        if len(row) != len(RESULT_COLUMNS):
            raise ValueError(f"{path}: row {row_no}: expected {len(RESULT_COLUMNS)} cells")
        try:
            np.int64(int(row[0]))
            np.int64(int(row[1]))
            float(row[4])
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: row {row_no}: {exc}") from None


def summarize(table: ResultTable | Sequence[ResultRecord], quantity: str) -> list[SummaryRow]:
    """Per-object min/quartile/max/mean summary of one quantity.

    Quartiles interpolate linearly between closest ranks (the value at
    zero-based rank p*(n-1)), matching numpy's default percentile method.
    Each object's values are taken in table order.
    """
    table = _as_table(table)
    # Code -1 matches no row.
    code = table.quantities.index(quantity) if quantity in table.quantities else -1
    rows = np.flatnonzero(table.quantity_code == code)
    if not rows.size:
        available = sorted(table.quantities[c] for c in np.unique(table.quantity_code).tolist())
        raise ValueError(
            f"no records with quantity {quantity!r}; available: "
            + (", ".join(available) if available else "none")
        )
    # A stable sort by object keeps each object's rows in table order.
    rows = rows[np.argsort(table.object_code[rows], kind="stable")]
    codes = table.object_code[rows]
    starts = np.flatnonzero(np.diff(codes)) + 1
    series = {
        table.objects[c]: table.value[group]
        for c, group in zip(codes[np.r_[0, starts]].tolist(), np.split(rows, starts))
    }
    out = []
    for obj in sorted(series):
        values = series[obj]
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
