"""Hourly simulation loop, results tables, CSV output, and summaries.

Each step follows a fixed order so runs are reproducible: draw the
weather sample, evaluate every generator, solve (lossless balance or AC
power flow), then append that step's values.  Every step yields the same
(object, quantity) sequence, so the run states it once and keeps one flat
list of values.  The result is a ResultTable: numpy columns of step, hour,
value and name codes, built once at the end of the run.  Iterating a
table yields (step, hour, object, quantity, value, unit) ResultRecords.
The CSV form sorts rows by (step, object, quantity) and renders values at
up to 9 significant digits.  Rendering, reading back and iterating a table
go one fixed-size block of rows at a time, so that the per-row Python
objects of only one block are alive at once.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources
from itertools import chain, islice
from math import isfinite
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .generation import pv_power, wind_power
from .grid import PerUnitBase, build_admittance
from .powerflow import (
    PowerFlowProblem,
    PowerFlowSolution,
    SolverOptions,
    simple_power_distribution,
    solve,
    total_line_losses,
    worst_mismatch_bus,
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

# Rows per block when a table is rendered, read back or iterated, so that
# the per-row Python objects of only one block are alive at a time.
_BLOCK_ROWS = 4096


class ResultRecord(NamedTuple):
    """One observation; (step, object, quantity) is unique within a table."""

    step: int
    hour: int
    object: str
    quantity: str
    value: float
    unit: str


class _Coder(dict):
    """Name -> code, in first-seen order; looking up a new name adds it."""

    def __missing__(self, name: str) -> int:
        code = self[name] = len(self)
        return code

    def codes(self, names: Iterable[str]) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, names), dtype=np.intp)


def _encode(labels: Iterable[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of labels into the tuple of distinct labels, in first-seen order."""
    coder = _Coder()
    return coder.codes(labels), tuple(coder)


# A ResultRecord from a row tuple, built in C: NamedTuple's own __new__ and
# _make run Python code for every row.
_make_record = partial(tuple.__new__, ResultRecord)


@dataclass(frozen=True, eq=False)
class ResultTable:
    """A results table held as columns, one entry per observation.

    Row i is (step[i], hour[i], objects[object_code[i]],
    quantities[quantity_code[i]], value[i], units[unit_code[i]]).  The
    name tuples list the distinct names in order of first appearance.
    Rows keep the order they were added in; render_csv sorts them.
    Iterating yields ResultRecords, which are built only then, one block
    of rows at a time.
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
    def from_records(cls, records: Iterable[ResultRecord]) -> ResultTable:
        """Table of the given records, in their order, names coded in first-seen order."""
        step, hour, obj, quantity, value, unit = list(zip(*records)) or [()] * len(RESULT_COLUMNS)
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

    def __len__(self) -> int:
        return len(self.value)

    def __iter__(self) -> Iterator[ResultRecord]:
        return map(_make_record, chain.from_iterable(map(self._rows, _blocks(len(self)))))

    def _rows(self, index: slice | np.ndarray) -> Iterator[tuple]:
        """(step, hour, object, quantity, value, unit) tuples of the indexed rows."""
        return zip(
            self.step[index].tolist(),
            self.hour[index].tolist(),
            map(self.objects.__getitem__, self.object_code[index].tolist()),
            map(self.quantities.__getitem__, self.quantity_code[index].tolist()),
            self.value[index].tolist(),
            map(self.units.__getitem__, self.unit_code[index].tolist()),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        return list(self) == list(other)


def _blocks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most _BLOCK_ROWS that cover range(n)."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


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
    holds one.  A solver other than acpf, gs or simple is a ValueError.
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
    # solve() rejects a solver name that is neither "simple" nor an AC method.
    use_acpf = cfg.solver != "simple"
    if use_acpf:
        base = PerUnitBase(s_base=cfg.s_base_va, v_base=cfg.v_base_v)
        admittance = build_admittance(net, base)
        slack = net.slack_index()
        pq = [i for i in range(len(net.buses)) if i != slack]
        options = SolverOptions(method=cfg.solver)
        load_buses = [net.bus_index(load.bus) for load in net.loads]
        producer_buses = [net.bus_index(dev.bus) for dev in (*net.pvs, *net.winds)]
        keys += [(bus.id, q) for bus in net.buses for q in ("v_mag", "v_angle")]
        keys += [(grid_object, "p_grid"), (NETWORK_OBJECT, "losses")]
    else:
        demands = [load.active_power for load in net.loads]
        keys += [(dev.id, "p_out") for dev in (*net.pvs, *net.winds)]
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
            worst = worst_mismatch_bus(problem, solution)
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
                row += productions
                row += demands
                row.append(simple_power_distribution(demands, productions))
        except Exception:
            # The weather values come first: a bad one is the error to report.
            _require_finite(f"step {step}", map(" ".join, keys), row)
            raise
        if not isfinite(sum(row)):
            _require_finite(f"step {step}", map(" ".join, keys), row)
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


def _require_finite(where: str, names: Iterable[str], values: Iterable[float]) -> None:
    """Raise ValueError naming the first NaN or infinite value, as 'WHERE: NAME is VALUE, ...'."""
    for name, value in zip(names, values):
        value = float(value)
        if not isfinite(value):
            raise ValueError(f"{where}: {name} is {value}, not a finite number")


def render_csv(
    table: ResultTable, config_comments: Sequence[tuple[str, str]] | None = None
) -> str:
    """Render a results table as CSV text (LF endings, 9 significant digits).

    Rows are ordered by (step, object, quantity), names in Python string
    order; rows that tie keep their table order.
    """
    return "".join(_csv_blocks(table, config_comments))


def write_csv(
    table: ResultTable,
    path: str | Path,
    config_comments: Sequence[tuple[str, str]] | None = None,
) -> None:
    """Write a results table as UTF-8 CSV; see render_csv for the format."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_csv_blocks(table, config_comments))


def _csv_blocks(
    table: ResultTable, config_comments: Sequence[tuple[str, str]] | None
) -> Iterator[str]:
    """The CSV text: the comments and header, then one piece per block of rows."""
    comments = [f"# {key} = {value}\n" for key, value in config_comments or ()]
    yield "".join(comments) + ",".join(RESULT_COLUMNS) + "\n"
    order = np.lexsort(
        (
            _ranks(table.quantities)[table.quantity_code],
            _ranks(table.objects)[table.object_code],
            table.step,
        )
    )
    for rows in _blocks(len(order)):
        yield "".join(
            [
                f"{step},{hour},{obj},{quantity},{format_number(value)},{unit}\n"
                for step, hour, obj, quantity, value, unit in table._rows(order[rows])
            ]
        )


def _ranks(names: Sequence[str]) -> np.ndarray:
    """Position of each name when the names are sorted as Python strings."""
    ranks = np.empty(len(names), dtype=np.intp)
    ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    return ranks


def read_results_csv(path: str | Path) -> ResultTable:
    """Read back a results CSV, skipping '#' comment lines.

    A row with the wrong number of cells, a step or hour that does not
    parse as int64, or a value that does not parse as a finite float, is
    a ValueError that names the first such row by its number among the
    non-comment rows, the header being row 1.  A file that is not UTF-8
    is a ValueError that names the file.  The file is read one block of
    rows at a time.
    """
    objects, quantities, units = _Coder(), _Coder(), _Coder()
    chunks = []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = filter(None, csv.reader(line for line in fh if not line.startswith("#")))
            header = tuple(next(rows, ()))
            if not header:
                raise ValueError(f"{path}: empty results file")
            if header != RESULT_COLUMNS:
                raise ValueError(
                    f"{path}: expected header {','.join(RESULT_COLUMNS)}, got {','.join(header)}"
                )
            row_no = 2
            while block := list(islice(rows, _BLOCK_ROWS)):
                step, hour, obj, quantity, value, unit = _parse_block(path, block, row_no)
                chunks.append(
                    (step, hour, objects.codes(obj), quantities.codes(quantity), units.codes(unit), value)
                )
                row_no += len(block)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not chunks:
        return ResultTable.from_records(())
    return ResultTable(
        *map(np.concatenate, zip(*chunks)),
        objects=tuple(objects),
        quantities=tuple(quantities),
        units=tuple(units),
    )


def _parse_block(path: str | Path, block: list[list[str]], first_row_no: int) -> tuple:
    """Columns of a block of CSV rows: step, hour and value as arrays, names as tuples."""
    n = len(block)
    if set(map(len, block)) != {len(RESULT_COLUMNS)}:
        _raise_bad_row(path, block, first_row_no)
    step, hour, obj, quantity, value, unit = zip(*block)
    try:
        step = np.fromiter(map(int, step), np.int64, n)
        hour = np.fromiter(map(int, hour), np.int64, n)
        value = np.fromiter(map(float, value), np.float64, n)
    except (ValueError, OverflowError):
        _raise_bad_row(path, block, first_row_no)
        raise
    if not np.isfinite(value).all():
        _raise_bad_row(path, block, first_row_no)
    return step, hour, obj, quantity, value, unit


def _raise_bad_row(path: str | Path, block: Sequence[Sequence[str]], first_row_no: int) -> None:
    """Raise ValueError naming the first row of a block that is not a valid record."""
    for row_no, row in enumerate(block, start=first_row_no):
        if len(row) != len(RESULT_COLUMNS):
            raise ValueError(f"{path}: row {row_no}: expected {len(RESULT_COLUMNS)} cells")
        try:
            np.int64(int(row[0]))
            np.int64(int(row[1]))
            value = float(row[4])
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: row {row_no}: {exc}") from None
        if not isfinite(value):
            raise ValueError(f"{path}: row {row_no}: value {row[4]} is not a finite number")


def summarize(table: ResultTable, quantity: str) -> list[SummaryRow]:
    """Per-object min/quartile/max/mean summary of one quantity.

    Quartiles interpolate linearly between closest ranks (the value at
    zero-based rank p*(n-1)), matching numpy's default percentile method.
    Each object's values are taken in table order.  A statistic that
    overflows to inf or NaN, though every value is finite, raises
    ValueError naming the object, quantity and statistic.
    """
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
    # One errstate for all objects: entering it costs more than a small
    # object's statistics.
    with np.errstate(over="ignore", invalid="ignore"):
        for obj in sorted(series):
            values = series[obj]
            q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0]).tolist()
            stats = {
                "minimum": float(values.min()),
                "q1": q1,
                "median": median,
                "q3": q3,
                "maximum": float(values.max()),
                "mean": float(values.mean()),
            }
            _require_finite(f"{obj} {quantity}", stats, stats.values())
            out.append(SummaryRow(object=obj, quantity=quantity, **stats))
    return out


BUNDLED_SCENARIOS = ("case1", "case2", "case2_pv")


def _bundled_scenario(name: str) -> resources.abc.Traversable:
    """The package resource of a bundled scenario; KeyError for another name."""
    if name not in BUNDLED_SCENARIOS:
        raise KeyError(f"no bundled scenario {name!r}; have {', '.join(BUNDLED_SCENARIOS)}")
    return resources.files("microgridsim").joinpath("scenarios", f"{name}.mgs")


def bundled_scenario_text(name: str) -> str:
    """Source text of a bundled scenario (case1, case2, case2_pv)."""
    return _bundled_scenario(name).read_text(encoding="utf-8")


def bundled_scenario_path(name: str) -> Path:
    """Filesystem path of a bundled scenario (package installed from files)."""
    return Path(str(_bundled_scenario(name)))
