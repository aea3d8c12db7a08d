"""Shared builders for randomized networks, problems, and scenarios."""

from __future__ import annotations

import csv
import math
import random

import numpy as np
from hypothesis import settings

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
    WindTurbine,
    build_admittance,
    bundled_scenario_text,
    compute_injections,
)
from microgridsim import powerflow
from microgridsim.engine import RESULT_COLUMNS
from microgridsim.powerflow import PowerFlowSolution
from microgridsim.scenario import format_number

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
    """Per-bus reference for solve_gauss_seidel.

    The sweep as first written: each bus slices its row of Y, reads Y_ii
    and conjugates S_i anew, the angle comes from np.angle and the PQ
    buses are indexed with a list.  solve_gauss_seidel must reproduce
    every field of its solution bit for bit.  The tolerance and the cap
    are the package's, read at each call.
    """
    max_iter = powerflow.GS_MAX_ITERATIONS
    y = problem.admittance.y
    n = problem.admittance.n
    pq = problem.pq_indices
    slack = problem.slack_index
    s_spec = np.zeros(n, dtype=complex)
    s_spec[pq] = problem.p_injection + 1j * problem.q_injection
    v = np.ones(n, dtype=complex)
    it = 0
    while True:
        v_mag = np.abs(v)
        v_angle = np.angle(v)
        p_calc, q_calc = compute_injections(v_mag, v_angle, problem.admittance)
        mismatch = np.concatenate(
            [problem.p_injection - p_calc[pq], problem.q_injection - q_calc[pq]]
        )
        max_mismatch = float(np.max(np.abs(mismatch))) if pq else 0.0
        converged = max_mismatch <= powerflow.TOLERANCE
        if converged or it >= max_iter:
            return PowerFlowSolution(
                v_mag=v_mag,
                v_angle=v_angle,
                iterations=it,
                max_mismatch=max_mismatch,
                slack_injection=(float(p_calc[slack]), float(q_calc[slack])),
                converged=converged,
            )
        for i in pq:
            row_sum = y[i, :] @ v - y[i, i] * v[i]
            v[i] = (np.conj(s_spec[i]) / np.conj(v[i]) - row_sum) / y[i, i]
        it += 1


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


def overheated_case1_text() -> str:
    """case1 with a temperature curve whose afternoon peak overflows to inf."""
    text = bundled_scenario_text("case1")
    assert "temp_mean_c = 15\n" in text and "temp_amplitude_c = 5\n" in text
    return text.replace("temp_mean_c = 15\n", "temp_mean_c = 1e308\n").replace(
        "temp_amplitude_c = 5\n", "temp_amplitude_c = 1e308\n"
    )


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
