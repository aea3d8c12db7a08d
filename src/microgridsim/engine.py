"""Hourly simulation loop, results tables, CSV output, and summaries.

A run takes its weather, from any source, as one WeatherSeries of
columns and runs the steps before the first invalid one: their
generation is one array per device, then the lossless balance is one
stack, and AC steps go in stacks of as many as STACK_BYTES of the
solver's per-step state hold: a Newton-Raphson matrix, or a Gauss-Seidel
voltage row.  Each stack writes a
(steps x K) block of values, scanned for its first non-finite row: the
run raises its first failure in step order.  The blocks are the value
column of the ResultTable; iterating it yields ResultRecords.  The CSV
form sorts rows by (step, object, quantity) and renders values at up to
9 significant digits.  Rendering and iterating a table go one
fixed-size block of rows at a time, and reading one back one block of
lines at a time, so that the per-row Python objects of only one block
are alive at once.  A rendered block is one join of texts made once
each: a 'step,hour,' per run of equal step and hour, a value's text per
distinct value, and the names per (object, quantity, unit); a value or
name that the reader would refuse or split is refused first.  A block
read back is parsed by numpy's C reader, unless the csv module,
int() or float() could read it otherwise: then they read it, row by row,
and their answer, a table or a located error, is the reader's.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources
from itertools import chain, islice, repeat
from math import isfinite
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .csvtext import loadtxt_columns
from .generation import pv_power, wind_power
from .grid import NETWORK_OBJECT, WEATHER_OBJECT, Network, PerUnitBase, build_admittance
from .powerflow import (
    METHOD_GAUSS_SEIDEL,
    TOLERANCE,
    PowerFlowProblem,
    PowerFlowSolution,
    SingularMatrixError,
    SolverOptions,
    simple_power_distribution,
    solve,
    total_line_losses,
)
from .scenario import Scenario, SimulationConfig
from .weather import WeatherSeries, load_weather_csv, weather_series

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

_WEATHER = ("cloud_factor", "wind_speed", "temperature")

# Rows per block of a table being rendered or iterated, and lines per block
# of a file being read back, so that only one block's per-row Python
# objects live.
_BLOCK_ROWS = 4096

# A results row as read back, a field per CSV column named after its
# ResultTable column: numpy's C reader codes the names as it reads them.
_RESULT_DTYPE = np.dtype(
    [("step", np.int64), ("hour", np.int64), ("object_code", np.intp), ("quantity_code", np.intp),
     ("value", np.float64), ("unit_code", np.intp)]
)

# Bytes of per-step solver state (_step_bytes) that one stack of AC steps may
# hold: Newton-Raphson's 2m x (2m + 1) float64 matrix (124 steps of the 17-bus
# street), or Gauss-Seidel's voltage row, 16 bytes a bus (3,855 steps).  From
# 256 KiB to 1.5 MiB, a street year under Newton-Raphson took a median 0.72,
# 0.45, 0.35, 0.28, 0.28 and 0.25 s wall, peak RSS flat (BENCH_33.json
# "supplementary"); Gauss-Seidel gained nothing and took 4.8 MB more from 1 MiB
# on (BENCH_31.json).  1.5 MiB is just below two 160-bus feeder matrices, which
# keep one step per stack and the one-system elimination: it stays 1 MiB.
STACK_BYTES = 1024 * 1024


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


def _encode(labels: Iterable[str]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Codes of labels into the tuple of distinct labels, in first-seen order."""
    coder = _Coder()
    return np.fromiter(map(coder.__getitem__, labels), dtype=np.intp), tuple(coder)


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
        # Each record is built in C, by tuple.__new__ from its row tuple:
        # NamedTuple's own __new__ and _make run Python code for every row.
        return chain.from_iterable(
            map(tuple.__new__, repeat(ResultRecord), self._rows(rows))
            for rows in _blocks(len(self))
        )

    def _rows(self, index: slice | np.ndarray) -> Iterator[tuple]:
        """(step, hour, object, quantity, value, unit) tuples of the indexed rows."""
        return zip(
            self.step[index].tolist(),
            self.hour[index].tolist(),
            _lookup(self.objects, self.object_code[index]),
            _lookup(self.quantities, self.quantity_code[index]),
            self.value[index].tolist(),
            _lookup(self.units, self.unit_code[index]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultTable):
            return NotImplemented
        return list(self) == list(other)


def _lookup(names: tuple[str, ...], codes: np.ndarray) -> list[str]:
    """The name of each code, looked up in C."""
    return np.array(names, dtype=object).take(codes).tolist()


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

    worst_bus is the id of the bus at solution.worst_bus (see
    PowerFlowSolution); v_mag_range is (min, max) of the last iterate's
    |V| in pu.
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
    weather: WeatherSeries | None = None,
    trace_dir: str | Path = ".",
) -> ResultTable:
    """Run the configured number of hourly steps and return the result table.

    An explicit `weather` series overrides the scenario's weather
    source; otherwise a scenario trace path (resolved against trace_dir)
    or the synthetic model supplies it.  Its step i must be for hour
    (start_hour + i) % 24, else ValueError names the step.  The first
    failing step, in step order, aborts the run.  Its weather comes first,
    under the trace reader's rules (WeatherSeries.first_invalid): a NaN or
    infinite value, then a cloud factor outside [0, 1], then a negative
    wind speed, is a ValueError naming step and quantity.  Else a non-finite result is one naming
    step, object and quantity, so a table never holds one; or the step's
    NonConvergenceError, or SingularMatrixError as 'step S: MESSAGE',
    naming the bus of a Newton-Raphson pivot.  An AC step whose values are
    all finite, but whose p_grid plus PQ injections less losses misses zero
    by more than m * TOLERANCE pu for m PQ buses (what the stop rule lets
    the injections miss) plus 8 eps of the terms' magnitudes, as beside a
    near-short line, is a ValueError 'step S: ...' that gives the miss in
    W.  A solver other than acpf, gs or simple is a ValueError.
    """
    cfg = scenario.config
    net = scenario.network

    if weather is None and scenario.weather_trace is not None:
        # An absolute trace path replaces trace_dir.
        weather = load_weather_csv(Path(trace_dir) / scenario.weather_trace)
    elif weather is None:
        weather = weather_series(replace(scenario.weather, seed=cfg.seed), cfg.steps, cfg.start_hour)
    if len(weather) < cfg.steps:
        raise ValueError(
            f"weather trace provides {len(weather)} samples, run needs {cfg.steps}"
        )
    weather = weather[: cfg.steps]
    steps = np.arange(cfg.steps, dtype=np.int64)
    hour = (cfg.start_hour + steps) % 24
    wrong = np.flatnonzero(weather.hour != hour)
    if wrong.size:
        step = int(wrong[0])
        raise ValueError(
            f"weather sample for step {step} is for hour {weather.hour[step]}, "
            f"but a run starting at hour {cfg.start_hour} needs hour {hour[step]}"
        )
    # The steps before the first invalid one run; its error follows theirs.
    invalid = weather.first_invalid()
    good = cfg.steps if invalid is None else invalid[0]
    production = np.reshape(
        [pv_power(pv, hour[:good], weather.cloud_factor[:good]) for pv in net.pvs]
        + [wind_power(turbine, weather.wind_speed[:good]) for turbine in net.winds],
        (len(net.pvs) + len(net.winds), good),
    ).T

    grid_object = net.grid.id if net.grid is not None else net.buses[net.slack_index()].id

    # Every step's K (object, quantity) columns: weather, then solver results.
    keys = [(WEATHER_OBJECT, q) for q in _WEATHER]
    if cfg.solver == "simple":
        keys += [(dev.id, "p_out") for dev in (*net.pvs, *net.winds)]
        keys += [(load.id, "p_demand") for load in net.loads]
        keys += [(grid_object, "p_grid")]
        stack_steps = cfg.steps
        solve_stack = partial(_balance_values, [load.active_power for load in net.loads])
    else:
        # solve() rejects a solver name that is neither "simple" nor an AC method.
        keys += [(bus.id, q) for bus in net.buses for q in ("v_mag", "v_angle")]
        keys += [(grid_object, "p_grid"), (NETWORK_OBJECT, "losses")]
        stack_steps, solve_stack = _ac_stacks(net, cfg)

    values = np.zeros((cfg.steps, len(keys)))
    values[:, : len(_WEATHER)] = np.column_stack([getattr(weather, q) for q in _WEATHER])
    for first in range(0, good, stack_steps):
        block = values[first : min(first + stack_steps, good)]
        stack = production[first : first + len(block)]
        failure = solve_stack(block[:, len(_WEATHER) :], stack, first)
        end = len(block) if failure is None else failure[0] - first
        bad = np.flatnonzero(~np.isfinite(block[:end]).all(axis=1))
        if bad.size:
            _require_finite(f"step {first + int(bad[0])}", map(" ".join, keys), block[bad[0]])
        if failure is not None:
            raise failure[1]
    if invalid is not None:
        raise ValueError(f"step {good}: {WEATHER_OBJECT} {invalid[1]}")

    object_code, objects = _encode(obj for obj, _ in keys)
    quantity_code, quantities = _encode(q for _, q in keys)
    unit_code, units = _encode(QUANTITY_UNITS[q] for _, q in keys)
    return ResultTable(
        step=np.repeat(steps, len(keys)),
        hour=np.repeat(hour, len(keys)),
        object_code=np.tile(object_code, cfg.steps),
        quantity_code=np.tile(quantity_code, cfg.steps),
        unit_code=np.tile(unit_code, cfg.steps),
        value=values.ravel(),
        objects=objects, quantities=quantities, units=units,
    )


def _balance_values(demands: list, values: np.ndarray, production: np.ndarray, first: int) -> None:
    """Write a stack's lossless-balance values: each producer's and load's power, then p_grid.

    p_grid adds the producers' columns left to right, as a step's sum does, and
    overflows to inf without a warning, as Python floats do: the run reports it.
    """
    values[:, : -1 - len(demands)] = production
    values[:, -1 - len(demands) : -1] = demands
    with np.errstate(over="ignore", invalid="ignore"):
        values[:, -1] = simple_power_distribution(demands, production.T)


def _ac_stacks(net: Network, cfg: SimulationConfig) -> tuple[int, Callable]:
    """The steps per stack of an AC run, as many as STACK_BYTES of solver state hold, and its solver.

    The solver solves a stack by solve(stack, options, step) in step order,
    writes the values of the steps before the first that fails, and returns
    that step and its error, if any.
    """
    base = PerUnitBase(s_base=cfg.s_base_va, v_base=cfg.v_base_v)
    admittance = build_admittance(net, base)
    n = len(net.buses)
    slack = net.slack_index()
    pq = [i for i in range(n) if i != slack]
    m = len(pq)
    # The loads' part of every step's injections, subtracted in device order.
    p_load, q_load = np.zeros(n), np.zeros(n)
    for load in net.loads:
        i = net.bus_index(load.bus)
        p_load[i] -= load.active_power
        q_load[i] -= load.reactive_power
    producer_buses = np.array([net.bus_index(d.bus) for d in (*net.pvs, *net.winds)], np.intp)
    options = SolverOptions(method=cfg.solver)

    def solve_stack(values: np.ndarray, production: np.ndarray, first: int):
        p_watts = np.tile(p_load, (len(values), 1))
        np.add.at(p_watts, (slice(None), producer_buses), production)  # in device order
        q_pu = np.tile(q_load[pq] / cfg.s_base_va, (len(values), 1))
        stack = PowerFlowProblem(admittance, slack, p_watts[:, pq] / cfg.s_base_va, q_pu)
        solutions, failure = [], None
        for i in range(len(stack)):
            try:
                solution = solve(stack, options, i)
            except SingularMatrixError as exc:
                # Pivot k is the column of the angle (k < m) or |V| of PQ bus k % m.
                where = "" if exc.pivot is None else " ({} of bus {!r})".format(
                    "|V|" if exc.pivot >= m else "angle", net.buses[pq[exc.pivot % m]].id
                )
                failure = first + i, SingularMatrixError(f"step {first + i}: {exc}{where}")
                break
            if not solution.converged:
                worst = net.buses[solution.worst_bus].id
                failure = first + i, NonConvergenceError(first + i, solution, worst)
                break
            solutions.append(solution)
        if solutions:
            v_mag = np.array([sol.v_mag for sol in solutions])
            v_angle = np.array([sol.v_angle for sol in solutions])
            rows = values[: len(solutions)]
            rows[:, : 2 * n : 2] = v_mag * cfg.v_base_v
            rows[:, 1 : 2 * n : 2] = v_angle
            rows[:, -2] = np.array([sol.slack_injection[0] for sol in solutions]) * cfg.s_base_va
            rows[:, -1] = total_line_losses(net, base, v_mag, v_angle) * cfg.s_base_va
            terms = (rows[:, -2], p_watts[: len(rows), pq].sum(axis=1), -rows[:, -1])
            imbalance, scale = sum(terms), sum(map(np.abs, terms))
            allowed = m * TOLERANCE * cfg.s_base_va + 8 * np.finfo(float).eps * scale
            off = np.flatnonzero(np.isfinite(rows).all(axis=1) & (np.abs(imbalance) > allowed))
            if off.size:
                i = int(off[0])
                failure = first + i, ValueError(
                    f"step {first + i}: p_grid + injections - losses is {imbalance[i]:.6g} W, "
                    f"beyond the {allowed[i]:.3g} W that the solver's tolerance allows: "
                    "rounding swamped the solution, as beside a near-short line"
                )
        return failure

    step_bytes = _step_bytes(n, cfg.solver)
    return (max(1, STACK_BYTES // step_bytes) if step_bytes else 1), solve_stack


def _step_bytes(n: int, solver: str) -> int:
    """Bytes of one step of an n-bus AC run by solver, as STACK_BYTES counts them."""
    m = n - 1
    return 16 * n if solver == METHOD_GAUSS_SEIDEL else 8 * 2 * m * (2 * m + 1)


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
    order; rows that tie keep their table order.  What read_results_csv
    would reject or read otherwise is a ValueError naming the first such
    row's step, object and quantity, in that order: a NaN or infinite
    value, or an object, quantity or unit name that holds a comma, CR or
    LF, starts with '"', or is not UTF-8 text.  Before any of these, a
    config_comments key or value that holds a CR or LF, or is not UTF-8
    text, is a ValueError naming the key.
    """
    return "".join(_csv_blocks(table, config_comments))


def write_csv(
    table: ResultTable,
    path: str | Path,
    config_comments: Sequence[tuple[str, str]] | None = None,
) -> None:
    """Write a results table as UTF-8 CSV; see render_csv for the format.

    A table that render_csv rejects raises before the file is opened.
    """
    blocks = _csv_blocks(table, config_comments)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(blocks)


def _csv_blocks(
    table: ResultTable, config_comments: Sequence[tuple[str, str]] | None
) -> Iterator[str]:
    """The CSV text: the comments and header, then one piece per block of rows.

    The comments and the table are checked here, and the table sorted,
    before the first piece is made: a comment key or value that holds a CR
    or LF, or is not UTF-8 text, is a ValueError that names the key.  Each
    distinct object, quantity and unit name is checked once, and its rows
    found through their codes.  A row is four pieces of text, each made
    once and then looked up: its 'step,hour,' once per run of equal (step,
    hour) in the block, its 'object,quantity,' once per (object, quantity)
    pair of the table, its ',unit\n' once per unit name, and its value's
    '%.9g' (scenario.format_number) once per distinct float64 bit pattern
    in the block, so -0.0 stays '-0'.  A block is one join of its rows'
    pieces.
    """
    for key, value in config_comments or ():
        if fault := _text_fault("key", key, cell=False) or _text_fault("value", value, cell=False):
            raise ValueError(f"config comment {key!r}: {fault}")
    order = np.lexsort(
        (
            _ranks(table.quantities)[table.quantity_code],
            _ranks(table.objects)[table.object_code],
            table.step,
        )
    )
    kinds = ("object", "quantity", "unit")
    names = (table.objects, table.quantities, table.units)
    codes = (table.object_code, table.quantity_code, table.unit_code)
    faults = [[_text_fault(kind, name) for name in kind_names] for kind, kind_names in zip(kinds, names)]
    bad = ~np.isfinite(table.value)
    for kind_faults, kind_codes in zip(faults, codes):
        if any(kind_faults):
            bad |= np.array([fault is not None for fault in kind_faults])[kind_codes]
    if bad.any():
        row = order[np.argmax(bad[order])]
        _, _, obj, quantity, _, _ = next(table._rows([row]))
        where = f"step {table.step[row]}"
        if fault := next(filter(None, (f[c[row]] for f, c in zip(faults, codes))), None):
            raise ValueError(f"{where}: object {obj!r}, quantity {quantity!r}: {fault}")
        _require_finite(where, [f"{obj} {quantity}"], [table.value[row]])
    _, first, pair = np.unique(
        table.object_code * len(table.quantities) + table.quantity_code,
        return_index=True, return_inverse=True,
    )
    heads = np.array(
        [f"{obj},{quantity}," for _, _, obj, quantity, _, _ in table._rows(first)], dtype=object
    )
    tails = np.array([f",{unit}\n" for unit in table.units], dtype=object)
    comments = [f"# {key} = {value}\n" for key, value in config_comments or ()]
    return chain(
        ["".join(comments) + ",".join(RESULT_COLUMNS) + "\n"],
        (_csv_block(table, order[rows], pair, heads, tails) for rows in _blocks(len(order))),
    )


def _text_fault(kind: str, text: str, cell: bool = True) -> str | None:
    """Why read_results_csv would not read text back as a cell, or in a comment line; or None."""
    if cell and text.startswith('"'):
        return f"{kind} {text!r} starts with '\"'"
    for char, what in ((",", "a comma"), ("\r", "a CR"), ("\n", "an LF")):
        if char in text and (cell or char != ","):
            return f"{kind} {text!r} holds {what}"
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return f"{kind} {text!r} is not UTF-8 text"
    return None


def _csv_block(
    table: ResultTable, index: np.ndarray, pair: np.ndarray, heads: np.ndarray, tails: np.ndarray
) -> str:
    """The text of the table's rows at index, in that order; see _csv_blocks."""
    step, hour = table.step[index], table.hour[index]
    run_start = np.ones(len(index), dtype=bool)
    run_start[1:] = (step[1:] != step[:-1]) | (hour[1:] != hour[:-1])
    starts = np.flatnonzero(run_start)
    prefixes = np.array(
        ["%d,%d," % sh for sh in zip(step[starts].tolist(), hour[starts].tolist())], dtype=object
    )
    # By bit pattern, so that -0.0 and 0.0 keep their own texts.
    bits, value_code = np.unique(table.value[index].view(np.int64), return_inverse=True)
    texts = np.array(list(map("%.9g".__mod__, bits.view(np.float64).tolist())), dtype=object)
    parts = [None] * (4 * len(index))
    parts[0::4] = prefixes.take(np.cumsum(run_start) - 1).tolist()
    parts[1::4] = heads.take(pair[index]).tolist()
    parts[2::4] = texts.take(value_code).tolist()
    parts[3::4] = tails.take(table.unit_code[index]).tolist()
    return "".join(parts)


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
    non-comment rows, the header being row 1, and so is a row the csv
    module rejects.  A file that is not UTF-8 is a ValueError that names
    the file.  The file is read one block of lines at a time: numpy's C
    reader parses a block, coding names as it reads them, and wherever
    the answer of Python's csv module, int and float could differ
    (loadtxt_columns, or a value that is not finite), one loop over the
    block's rows reads it with them instead (_read_block), so what is
    accepted, and how, is theirs.  A C reader that gives up partway has
    coded the names of a prefix of the rows that the loop reads, in its
    order, so names keep their first-seen order, or the loop raises.
    """
    objects, quantities, units = coders = _Coder(), _Coder(), _Coder()
    converters = {2: objects.__getitem__, 3: quantities.__getitem__, 5: units.__getitem__}
    blocks = [np.empty(0, _RESULT_DTYPE)]
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = filter(None, csv.reader(line for line in fh if not line.startswith("#")))
            try:
                header = tuple(next(rows, ()))
            except csv.Error as exc:
                raise ValueError(f"{path}: row 1: {exc}") from None
            if not header:
                raise ValueError(f"{path}: empty results file")
            if header != RESULT_COLUMNS:
                raise ValueError(
                    f"{path}: expected header {','.join(RESULT_COLUMNS)}, got {','.join(header)}"
                )
            row_no = 2
            while lines := list(islice(fh, _BLOCK_ROWS)):
                lines = [line for line in lines if not line.startswith("#")]
                block = loadtxt_columns(lines, _RESULT_DTYPE, converters)
                if block is None or not np.isfinite(block["value"]).all():
                    block = _read_block(path, lines, fh, row_no, coders)
                # Fields copied apart: a kept record array per block took 1 MB
                # more peak RSS reading two years of case1.
                blocks.append({name: block[name].copy() for name in _RESULT_DTYPE.names})
                row_no += len(block)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return ResultTable(
        **{name: np.concatenate([block[name] for block in blocks]) for name in _RESULT_DTYPE.names},
        objects=tuple(objects),
        quantities=tuple(quantities),
        units=tuple(units),
    )


def _read_block(path: str | Path, lines: list[str], fh: Iterator[str], first: int, coders) -> np.ndarray:
    """_RESULT_DTYPE rows of a block of lines read row by row, its first non-empty row numbered first.

    A quoted cell left open at the block's end reads on in fh's
    non-comment lines.  The first row that breaks a rule of
    read_results_csv, in row order, is a ValueError that names it.
    Names are coded by coders, the object, quantity and unit _Coders.
    """
    objects, quantities, units = coders
    reader = csv.reader(chain(lines, (line for line in fh if not line.startswith("#"))))
    rows = []
    while reader.line_num < len(lines):
        row_no = first + len(rows)
        try:
            cells = next(reader)
        except csv.Error as exc:
            raise ValueError(f"{path}: row {row_no}: {exc}") from None
        if not cells:
            continue
        if len(cells) != len(RESULT_COLUMNS):
            raise ValueError(f"{path}: row {row_no}: expected {len(RESULT_COLUMNS)} cells")
        step, hour, obj, quantity, value, unit = cells
        try:
            step, hour = int(step), int(hour)
            if not (-(2**63) <= step < 2**63 and -(2**63) <= hour < 2**63):
                raise ValueError(f"step and hour must fit int64, got {step} and {hour}")
            value = float(value)
        except ValueError as exc:
            raise ValueError(f"{path}: row {row_no}: {exc}") from None
        if not isfinite(value):
            raise ValueError(f"{path}: row {row_no}: value {cells[4]} is not a finite number")
        rows.append((step, hour, objects[obj], quantities[quantity], value, units[unit]))
    return np.array(rows, _RESULT_DTYPE)


def summarize(table: ResultTable, quantity: str) -> list[SummaryRow]:
    """Per-object min/quartile/max/mean summary of one quantity.

    Quartiles interpolate linearly between closest ranks (the value at
    zero-based rank p*(n-1)), matching numpy's default percentile method.
    Each object's values are taken in table order.  Objects with equally
    many values are one batch, a C-contiguous block of a row each, whose
    statistics are numpy calls along the rows: each row gets the 1-D
    kernels, bit for bit what a call on the object's values alone gives.
    A statistic that overflows to inf or NaN, though every value is
    finite, raises ValueError naming the object, quantity and statistic:
    the first such object by name, and its first such statistic.
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
    # Objects ordered by series length, then code; a stable sort of the rows
    # by that rank makes each length class one slice, each object's rows in
    # table order.
    lengths = np.bincount(table.object_code[rows], minlength=len(table.objects))
    present = np.flatnonzero(lengths)
    present = present[np.argsort(lengths[present], kind="stable")]
    rank = np.empty(len(table.objects), dtype=np.intp)
    rank[present] = np.arange(len(present))
    values = table.value[rows[np.argsort(rank[table.object_code[rows]], kind="stable")]]
    # minimum, q1, median, q3, maximum, mean: a row per object, in rank order.
    stats = np.empty((len(present), 6))
    first = start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for length, count in zip(*map(np.ndarray.tolist, np.unique(lengths[present], return_counts=True))):
            block = values[start : start + count * length].reshape(count, length)
            part = stats[first : first + count]
            part[:, 1:4] = np.percentile(block, [25.0, 50.0, 75.0], axis=1).T
            part[:, 0], part[:, 4], part[:, 5] = block.min(axis=1), block.max(axis=1), block.mean(axis=1)
            first, start = first + count, start + count * length
    names = [table.objects[c] for c in present.tolist()]
    order = sorted(range(len(names)), key=names.__getitem__)
    bad = ~np.isfinite(stats[order]).all(axis=1)
    if bad.any():
        i = order[np.argmax(bad)]
        fields = ("minimum", "q1", "median", "q3", "maximum", "mean")
        _require_finite(f"{names[i]} {quantity}", fields, stats[i])
    stats = stats.tolist()
    return [SummaryRow(names[i], quantity, *stats[i]) for i in order]


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
