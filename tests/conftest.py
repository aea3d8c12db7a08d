"""Shared builders for randomized networks, problems, and scenarios."""

from __future__ import annotations

import csv
import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from microgridsim import (
    Bus,
    BusKind,
    GridConnection,
    Line,
    LoadDevice,
    Network,
    PerUnitBase,
    PowerFlowProblem,
    ResultRecord,
    Scenario,
    SimulationConfig,
    SingularMatrixError,
    SolarPanel,
    SummaryRow,
    WeatherParams,
    WeatherSeries,
    WeatherTraceError,
    WindTurbine,
    build_admittance,
    bundled_scenario_text,
    clear_sky_factor,
    compute_injections,
    sample_wind,
    step_cloud,
    uniform_stream,
)
from microgridsim import powerflow
from microgridsim.engine import RESULT_COLUMNS
from microgridsim.powerflow import PowerFlowSolution
from microgridsim.scenario import format_number
from microgridsim.weather import TRACE_COLUMNS

BASE = PerUnitBase(s_base=10_000.0, v_base=230.0)

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile(
    "microgridsim", derandomize=True, database=None, deadline=None, max_examples=100
)
settings.load_profile("microgridsim")


def make_radial_network(
    rng: random.Random,
    n_buses: int,
    load_pu_range: tuple[float, float] = (0.05, 0.4),
    r_pu_range: tuple[float, float] = (0.001, 0.01),
) -> Network:
    """Random radial 230 V network: bus 0 slack, every other bus hangs off an
    earlier one, with a constant load on most non-slack buses."""
    buses = [Bus("bus0", BusKind.SLACK, 230.0)]
    lines = []
    loads = []
    for i in range(1, n_buses):
        parent = rng.randrange(i)
        buses.append(Bus(f"bus{i}", BusKind.PQ, 230.0))
        r_ohm = rng.uniform(*r_pu_range) * BASE.z_base
        lines.append(Line(f"line{i}", f"bus{parent}", f"bus{i}", r_ohm))
        if rng.random() < 0.8:
            p_w = rng.uniform(*load_pu_range) * BASE.s_base
            loads.append(LoadDevice(f"load{i}", f"bus{i}", p_w))
    return Network(buses=tuple(buses), lines=tuple(lines), loads=tuple(loads))


def problem_for(network: Network, base: PerUnitBase = BASE) -> PowerFlowProblem:
    """Injection problem for a network of constant loads and PV/wind watts.

    Rebuilt here from first principles (loads negative, generation
    positive, divided by s_base) rather than reusing the engine's
    assembly, so solver tests do not depend on engine code.
    """
    n = len(network.buses)
    index = {bus.id: i for i, bus in enumerate(network.buses)}
    p = np.zeros(n)
    q = np.zeros(n)
    for load in network.loads:
        p[index[load.bus]] -= load.active_power
        q[index[load.bus]] -= load.reactive_power
    slack = network.slack_index()
    pq = [i for i in range(n) if i != slack]
    return PowerFlowProblem(
        admittance=build_admittance(network, base),
        slack_index=slack,
        p_injection=p[pq] / base.s_base,
        q_injection=q[pq] / base.s_base,
    )


def finite_difference_jacobian(
    v_mag: np.ndarray,
    v_angle: np.ndarray,
    admittance,
    pq: list[int],
    step: float = 1e-6,
) -> np.ndarray:
    """Central-difference Jacobian of the computed PQ injections.

    Independent oracle for the analytic Jacobian: perturbs each angle and
    magnitude of the PQ buses by +-step and differences compute_injections.
    """
    m = len(pq)
    jac = np.zeros((2 * m, 2 * m))

    def stacked(vm, va):
        p, q = compute_injections(vm, va, admittance)
        return np.concatenate([p[pq], q[pq]])

    for col in range(2 * m):
        vm_hi, va_hi = v_mag.copy(), v_angle.copy()
        vm_lo, va_lo = v_mag.copy(), v_angle.copy()
        if col < m:
            va_hi[pq[col]] += step
            va_lo[pq[col]] -= step
        else:
            vm_hi[pq[col - m]] += step
            vm_lo[pq[col - m]] -= step
        jac[:, col] = (stacked(vm_hi, va_hi) - stacked(vm_lo, va_lo)) / (2.0 * step)
    return jac


def loop_jacobian(
    v_mag: np.ndarray,
    v_angle: np.ndarray,
    admittance,
    pq_indices: list[int],
) -> np.ndarray:
    """Element-by-element reference for newton_jacobian.

    The double loop over PQ bus pairs that newton_jacobian's whole-array
    form must reproduce bit for bit.
    """
    g = admittance.conductance
    b = admittance.susceptance
    p, q = compute_injections(v_mag, v_angle, admittance)
    m = len(pq_indices)
    jac = np.zeros((2 * m, 2 * m))
    for a, i in enumerate(pq_indices):
        for c, k in enumerate(pq_indices):
            if i == k:
                jac[a, c] = -q[i] - b[i, i] * v_mag[i] ** 2
                jac[a, m + c] = p[i] / v_mag[i] + g[i, i] * v_mag[i]
                jac[m + a, c] = p[i] - g[i, i] * v_mag[i] ** 2
                jac[m + a, m + c] = q[i] / v_mag[i] - b[i, i] * v_mag[i]
            else:
                t = v_angle[i] - v_angle[k]
                cos_t, sin_t = np.cos(t), np.sin(t)
                vv = v_mag[i] * v_mag[k]
                jac[a, c] = vv * (g[i, k] * sin_t - b[i, k] * cos_t)
                jac[a, m + c] = v_mag[i] * (g[i, k] * cos_t + b[i, k] * sin_t)
                jac[m + a, c] = -vv * (g[i, k] * cos_t + b[i, k] * sin_t)
                jac[m + a, m + c] = v_mag[i] * (g[i, k] * sin_t - b[i, k] * cos_t)
    return jac


def loop_solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense reference for solve_linear.

    Gaussian elimination with partial pivoting that updates the whole
    trailing block at every pivot; solve_linear's sparse elimination must
    reproduce its result bit for bit.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for k in range(n):
        pivot_row = int(np.argmax(np.abs(a[k:, k]))) + k
        if abs(a[pivot_row, k]) < 1e-12:
            raise SingularMatrixError(f"pivot {k} below 1e-12")
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
            b[[k, pivot_row]] = b[[pivot_row, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= np.outer(factors, a[k, k:])
        b[k + 1 :] -= factors * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


def loop_gauss_seidel(problem: PowerFlowProblem) -> PowerFlowSolution:
    """Per-bus reference for solve_gauss_seidel on step 0 of a problem.

    The sweep as first written: each bus slices its row of Y, reads Y_ii
    and conjugates S_i anew, and the PQ buses are indexed with a list.
    The stop rule reads S = V conj(Y V) of the complex V itself, and the
    worst bus comes from that mismatch; |V| and the angle, from np.angle,
    are taken only for the solution returned.  solve_gauss_seidel must
    reproduce every field of its solution bit for bit.  The tolerance and
    the cap are the package's, read at each call, and a mismatch that is
    not finite stops the solve, as the package's stop rule says.
    """
    max_iter = powerflow.GS_MAX_ITERATIONS
    y = problem.admittance.y
    n = problem.admittance.n
    pq = problem.pq_indices
    slack = problem.slack_index
    p_spec, q_spec = problem.p_injection[0], problem.q_injection[0]
    s_spec = np.zeros(n, dtype=complex)
    s_spec[pq] = p_spec + 1j * q_spec
    v = np.ones(n, dtype=complex)
    it = 0
    while True:
        s_calc = v * np.conj(y @ v)
        p_calc, q_calc = s_calc.real, s_calc.imag
        mismatch = np.concatenate([p_spec - p_calc[pq], q_spec - q_calc[pq]])
        max_mismatch = float(np.max(np.abs(mismatch))) if len(pq) else 0.0
        converged = max_mismatch <= powerflow.TOLERANCE
        if converged or it >= max_iter or not math.isfinite(max_mismatch):
            return PowerFlowSolution(
                v_mag=np.abs(v),
                v_angle=np.angle(v),
                iterations=it,
                max_mismatch=max_mismatch,
                slack_injection=(float(p_calc[slack]), float(q_calc[slack])),
                converged=converged,
                worst_bus=None if converged else loop_worst_bus(mismatch, p_spec, q_spec, pq),
            )
        for i in pq:
            row_sum = y[i, :] @ v - y[i, i] * v[i]
            v[i] = (np.conj(s_spec[i]) / np.conj(v[i]) - row_sum) / y[i, i]
        it += 1


def loop_worst_mismatch_bus(
    problem: PowerFlowProblem, solution: PowerFlowSolution, step: int = 0
) -> int:
    """Reference for PowerFlowSolution.worst_bus: recomputed from the final state.

    loop_worst_bus of the mismatch that compute_injections gives at the
    solution's |V| and angle, against the injections of `step`.
    """
    pq = problem.pq_indices
    p_spec, q_spec = problem.p_injection[step], problem.q_injection[step]
    with np.errstate(over="ignore", invalid="ignore"):
        p_calc, q_calc = compute_injections(solution.v_mag, solution.v_angle, problem.admittance)
        mismatch = np.concatenate([p_spec - p_calc[pq], q_spec - q_calc[pq]])
    return loop_worst_bus(mismatch, p_spec, q_spec, pq)


def loop_worst_bus(mismatch: np.ndarray, p_spec, q_spec, pq) -> int:
    """The index of the PQ bus whose |dP| or |dQ| in a mismatch [dP, dQ] is largest.

    np.argmax picks among equals.  When the state has overflowed, several
    buses' mismatch is inf or NaN; then it is the one, among those, with
    the largest specified max(|P|, |Q|) injection.
    """
    m = len(pq)
    with np.errstate(invalid="ignore"):
        worst = np.maximum(np.abs(mismatch[:m]), np.abs(mismatch[m:]))
    overflowed = ~np.isfinite(worst)
    if overflowed.any():
        load = np.maximum(np.abs(p_spec), np.abs(q_spec))
        worst = np.where(overflowed, load, -np.inf)
    return int(pq[np.argmax(worst)])


def loop_line_losses(network: Network, base: PerUnitBase, v_mag, v_angle) -> float:
    """Line-by-line reference for total_line_losses on one state.

    The loop as first written: per line, its impedance as a Python
    complex, the current as a numpy scalar division, and R |I|^2 added to
    a running total from 0.0.  total_line_losses must give the same bits.
    """
    index = {bus.id: i for i, bus in enumerate(network.buses)}
    v = np.asarray(v_mag, dtype=float) * np.exp(1j * np.asarray(v_angle, dtype=float))
    total = 0.0
    for line in network.lines:
        z = complex(line.resistance, line.reactance) / base.z_base
        i, k = index[line.from_bus], index[line.to_bus]
        current = (v[i] - v[k]) / z
        total += (line.resistance / base.z_base) * abs(current) ** 2
    return total


def loop_build_admittance(network: Network, base: PerUnitBase) -> np.ndarray:
    """Line-by-line reference for build_admittance's Y on a network it accepts.

    The loop as first written: per line, its per-unit impedance as a
    Python complex, 1/z as Python divides, subtracted from both
    off-diagonal slots; then per row the diagonal that cancels it, refined
    once.  build_admittance must give the same bits.
    """
    n = len(network.buses)
    index = {bus.id: i for i, bus in enumerate(network.buses)}
    y = np.zeros((n, n), dtype=complex)
    for line in network.lines:
        z = complex(line.resistance, line.reactance) / base.z_base
        i, k = index[line.from_bus], index[line.to_bus]
        y_line = 1.0 / z
        y[i, k] -= y_line
        y[k, i] -= y_line
    for i in range(n):
        y[i, i] = -np.sum(y[i, :])
        y[i, i] -= np.sum(y[i, :])
    return y


def loop_reachable(network: Network, start: int, skip: set[str]) -> set[int]:
    """Breadth-first reference for validate's reachability: the indices of
    the buses that the lines not named in skip connect to bus start.
    Lines with an unknown end or both ends on one bus connect nothing."""
    index = {bus.id: i for i, bus in enumerate(network.buses)}
    neighbours: dict[int, list[int]] = {i: [] for i in range(len(network.buses))}
    for line in network.lines:
        i, k = index.get(line.from_bus), index.get(line.to_bus)
        if i is not None and k is not None and i != k and line.id not in skip:
            neighbours[i].append(k)
            neighbours[k].append(i)
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [k for i in frontier for k in neighbours[i] if k not in seen]
        seen.update(frontier)
    return seen


def loop_pv_power(panel: SolarPanel, hour_of_day: int, cloud_factor: float) -> float:
    """Scalar reference for pv_power: the PV curve as first written, one value at a time."""
    sky = clear_sky_factor(hour_of_day)
    return panel.peak_power * sky * (1.0 - panel.cloud_attenuation * cloud_factor)


def loop_wind_power(turbine: WindTurbine, wind_speed: float) -> float:
    """Scalar reference for wind_power: the turbine curve as first written, with branches."""
    if wind_speed < 0.0:
        raise ValueError(f"wind speed must be >= 0, got {wind_speed!r}")
    v = wind_speed
    if v < turbine.cut_in or v >= turbine.cut_out:
        return 0.0
    if v >= turbine.rated:
        return turbine.peak_power
    frac = (v - turbine.cut_in) / (turbine.rated - turbine.cut_in)
    return turbine.peak_power * frac**3


def loop_weather_series(params: WeatherParams, n_steps: int, start_hour: int = 0) -> WeatherSeries:
    """Step-by-step reference for weather_series: the per-step loop as first written.

    Each step draws its wind with a scalar sample_wind call, walks the
    cloud with one step_cloud call, and evaluates the temperature cosine.
    """
    u = uniform_stream(params.seed, 2 * n_steps).tolist()
    cloud = params.cloud_initial
    hours, clouds, winds, temps = [], [], [], []
    for step in range(n_steps):
        hour = (start_hour + step) % 24
        wind = sample_wind(u[2 * step], params.weibull_shape, params.weibull_scale)
        cloud = step_cloud(cloud, u[2 * step + 1], params.cloud_step)
        temp = params.temp_mean + params.temp_amplitude * math.cos(
            2.0 * math.pi * (hour - 15) / 24.0
        )
        hours.append(hour)
        clouds.append(cloud)
        winds.append(wind)
        temps.append(temp)
    return WeatherSeries(hours, clouds, winds, temps)


def overheated_weather(scenario: Scenario) -> WeatherSeries:
    """The scenario's weather with temp_mean = temp_amplitude = 1e308, built step by step.

    Its afternoon temperatures overflow to inf: in a run that starts at
    hour 0, steps 13-17 of every day.  weather_series rejects these
    parameters; the step-by-step loop does not, so a run can be given the
    non-finite weather they make.
    """
    cfg = scenario.config
    params = replace(scenario.weather, seed=cfg.seed, temp_mean=1e308, temp_amplitude=1e308)
    return loop_weather_series(params, cfg.steps, cfg.start_hour)


def changed_weather(series: WeatherSeries, step: int, **values) -> WeatherSeries:
    """The series with the named columns' entries at step set to the given values."""
    columns = {name: getattr(series, name).copy() for name in values}
    for name, value in values.items():
        columns[name][step] = value
    return replace(series, **columns)


def loop_load_weather_csv(path) -> WeatherSeries:
    """Row-by-row reference for load_weather_csv: the csv.reader loop as first written.

    Each row's cells go through int() and float() and the trace rules in
    turn, and the first row that breaks one is named in a WeatherTraceError.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise WeatherTraceError(path, "empty file, expected header") from None
            missing = [c for c in TRACE_COLUMNS if c not in header]
            if missing:
                raise WeatherTraceError(path, f"missing column(s): {', '.join(missing)}")
            extra = [c for c in header if c not in TRACE_COLUMNS]
            if extra:
                raise WeatherTraceError(path, f"unknown column(s): {', '.join(extra)}")
            col = {name: header.index(name) for name in TRACE_COLUMNS}
            rows = []
            for row_no, cells in enumerate(reader, start=1):
                if not cells or (len(cells) == 1 and cells[0].strip() == ""):
                    continue
                if len(cells) != len(TRACE_COLUMNS):
                    raise WeatherTraceError(
                        path, f"expected {len(TRACE_COLUMNS)} cells, got {len(cells)}", row_no
                    )
                try:
                    step = int(cells[col["step"]])
                    hour = int(cells[col["hour"]])
                    cloud = float(cells[col["cloud_factor"]])
                    wind = float(cells[col["wind_speed_mps"]])
                    temp = float(cells[col["temperature_c"]])
                except ValueError:
                    raise WeatherTraceError(path, "non-numeric cell", row_no) from None
                if not 0 <= hour <= 23:
                    raise WeatherTraceError(path, f"hour must be in 0..23, got {hour}", row_no)
                if not 0.0 <= cloud <= 1.0:
                    raise WeatherTraceError(path, f"cloud_factor outside [0, 1]: {cloud}", row_no)
                for name, value in (("wind_speed_mps", wind), ("temperature_c", temp)):
                    if not math.isfinite(value):
                        raise WeatherTraceError(path, f"{name} must be finite, got {value}", row_no)
                if wind < 0.0:
                    raise WeatherTraceError(path, f"negative wind speed: {wind}", row_no)
                if step != len(rows):
                    raise WeatherTraceError(path, f"step must be {len(rows)}, got {step}", row_no)
                rows.append((hour, cloud, wind, temp))
    except UnicodeDecodeError as exc:
        raise WeatherTraceError(path, f"not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise WeatherTraceError(path, "no samples")
    return WeatherSeries(*zip(*rows))


def loop_write_weather_csv(series: WeatherSeries, path) -> None:
    """Row-by-row reference for write_weather_csv: one % format per row, joined with LF."""
    rows = zip(range(len(series)), series.hour.tolist(), series.cloud_factor.tolist(),
               series.wind_speed.tolist(), series.temperature.tolist())
    lines = [",".join(TRACE_COLUMNS)] + ["%d,%d,%.9g,%.9g,%.9g" % row for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# Number cells that int(), float() and numpy's C reader may read apart, or
# that break a rule: not finite, not an int, out of range, not a number.
NUMBER_FORMS = (
    "nan", "inf", "-inf", "1e999", " 1", "1 ", "+1", "1.0", "1_0", "\u0661", "\uff11.5",
    "\x1c1", "7", "-1", "25", "x", "",
)
# Lines a CSV file may hold between its rows: blank, whitespace-only, '#'.
LOOSE_LINES = ("", " ", "\t", "#", "# note")


@pytest.fixture
def loadtxt_reading_ints_via_float(monkeypatch):
    """np.loadtxt as numpy releases before the int-via-float deprecation expired read.

    An int cell that does not parse as an int, such as '1.0', '2.5' or
    '1e3', is read as a float and truncated, with a DeprecationWarning in
    place of the ValueError that int() raises.
    """
    loadtxt = np.loadtxt

    def read(lines, dtype, **kwargs):
        dtype = np.dtype(dtype)
        try:
            return loadtxt(lines, dtype=dtype, **kwargs)
        except ValueError:
            as_float = [(name, float if dtype[name].kind == "i" else dtype[name]) for name in dtype.names]
            table = loadtxt(lines, dtype=as_float, **kwargs)
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return table.astype(dtype)

    monkeypatch.setattr(np, "loadtxt", read)


@st.composite
def mutated_csv(
    draw, rows: list[list[str]], first_data_row: int, numbers: tuple[int, ...]
) -> bytes:
    """The UTF-8 text of rows, one a line, after drawn edits.

    Up to four edits of data rows (from first_data_row on): a cell in a
    column of numbers replaced by one of NUMBER_FORMS, a cell quoted, or
    quoted around a line break (the line after it may start with '#'), a
    cell added, or the last one dropped.  Then up to three LOOSE_LINES go
    in anywhere, lines end in LF or CRLF, and a byte that is not UTF-8 may
    go in anywhere.
    """
    rows = [list(row) for row in rows]
    data = range(first_data_row, len(rows))
    for _ in range(draw(st.integers(0, 4)) if data else 0):
        cells = rows[draw(st.sampled_from(data))]
        edit = draw(st.sampled_from(("number", "quote", "line break", "extra", "missing")))
        column = draw(st.integers(0, len(cells) - 1))
        if edit == "number":
            cells[draw(st.sampled_from(numbers)) % len(cells)] = draw(st.sampled_from(NUMBER_FORMS))
        elif edit == "quote":
            cells[column] = '"' + cells[column].replace('"', '""') + '"'
        elif edit == "line break":
            tail = draw(st.sampled_from(("", "x", "#x", " ")))
            cells[column] = '"' + cells[column].replace('"', '""') + "\n" + tail + '"'
        elif edit == "extra":
            cells.append("0")
        elif len(cells) > 1:
            cells.pop()
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), [draw(st.sampled_from(LOOSE_LINES))])
    ending = draw(st.sampled_from(("\n", "\r\n")))
    raw = (ending.join(",".join(cells) for cells in rows) + ending).encode("utf-8")
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


def loop_render_csv(table, config_comments=None) -> str:
    """Record-by-record reference for render_csv.

    Sorts ResultRecords with a (step, object, quantity) key and formats
    one f-string per record; render_csv's column form must give the same
    text.
    """
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


def loop_read_results_csv(path) -> list[ResultRecord]:
    """Row-by-row reference for read_results_csv: one ResultRecord per row."""
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
        if not math.isfinite(table[-1].value):
            raise ValueError(f"{path}: row {row_no}: value {row[4]} is not a finite number")
    return table


def loop_summarize(table, quantity: str) -> list[SummaryRow]:
    """Record-by-record reference for summarize: a dict of per-object lists.

    A statistic that overflows to inf or NaN is a ValueError, as in summarize.
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
        with np.errstate(over="ignore", invalid="ignore"):
            q1, median, q3 = np.percentile(values, [25.0, 50.0, 75.0])
            row = SummaryRow(
                object=obj,
                quantity=quantity,
                minimum=float(values.min()),
                q1=float(q1),
                median=float(median),
                q3=float(q3),
                maximum=float(values.max()),
                mean=float(values.mean()),
            )
        for name in ("minimum", "q1", "median", "q3", "maximum", "mean"):
            stat = getattr(row, name)
            if not math.isfinite(stat):
                raise ValueError(f"{obj} {quantity}: {name} is {stat}, not a finite number")
        out.append(row)
    return out


def splitmix64_uniforms(seed: int, n: int) -> list[float]:
    """Scalar reference for uniform_stream: n SplitMix64 draws in Python ints.

    Each draw adds the golden-ratio increment to the 64-bit state, applies
    the two xor-shift-multiply mixing rounds, and keeps the top 53 bits.
    """
    mask = 0xFFFFFFFFFFFFFFFF
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append((z >> 11) * 2.0**-53)
    return out


def make_random_scenario(rng: random.Random) -> Scenario:
    """Random valid scenario for parser round-trip property tests."""
    n_buses = rng.randint(2, 7)
    network = make_radial_network(rng, n_buses)
    buses, lines, loads = list(network.buses), list(network.lines), list(network.loads)

    pvs = []
    winds = []
    for i in range(rng.randint(0, 2)):
        bus = rng.choice(buses).id
        pvs.append(
            SolarPanel(f"pv{i}", bus, rng.uniform(100.0, 9000.0), rng.uniform(0.0, 1.0))
        )
    for i in range(rng.randint(0, 2)):
        bus = rng.choice(buses).id
        cut_in = rng.uniform(0.0, 4.0)
        rated = cut_in + rng.uniform(1.0, 12.0)
        cut_out = rated + rng.uniform(1.0, 15.0)
        winds.append(
            WindTurbine(f"wind{i}", bus, rng.uniform(200.0, 5000.0), cut_in, rated, cut_out)
        )
    grid = GridConnection("util", "bus0") if rng.random() < 0.7 else None
    network = Network(
        buses=tuple(buses), lines=tuple(lines), loads=tuple(loads),
        pvs=tuple(pvs), winds=tuple(winds), grid=grid,
    )

    config = SimulationConfig(
        steps=rng.randint(1, 200),
        start_hour=rng.randint(0, 23),
        solver=rng.choice(["acpf", "gs", "simple"]),
        seed=rng.getrandbits(64),
        s_base_va=rng.uniform(1000.0, 100_000.0),
        v_base_v=rng.uniform(100.0, 1000.0),
    )
    if rng.random() < 0.15:
        return Scenario(
            network=network, config=config, weather=None, weather_trace="trace.csv"
        )
    weather = WeatherParams(
        weibull_shape=rng.uniform(0.5, 4.0),
        weibull_scale=rng.uniform(1.0, 15.0),
        cloud_step=rng.uniform(0.0, 0.5),
        cloud_initial=rng.uniform(0.0, 1.0),
        temp_mean=rng.uniform(-10.0, 30.0),
        temp_amplitude=rng.uniform(0.0, 12.0),
        seed=config.seed,
    )
    return Scenario(network=network, config=config, weather=weather, weather_trace=None)


def scenarios_close(a: Scenario, b: Scenario, rel: float = 1e-8) -> bool:
    """Field-by-field equality with floats compared at 9-digit precision."""

    def close(x, y) -> bool:
        if isinstance(x, float) or isinstance(y, float):
            return x == y or abs(x - y) <= rel * max(1.0, abs(x), abs(y))
        if isinstance(x, tuple) and isinstance(y, tuple):
            return len(x) == len(y) and all(close(i, j) for i, j in zip(x, y))
        if hasattr(x, "__dataclass_fields__"):
            return type(x) is type(y) and all(
                close(getattr(x, f), getattr(y, f)) for f in x.__dataclass_fields__
            )
        return x == y

    return close(a, b)
