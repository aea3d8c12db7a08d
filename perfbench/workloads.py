"""Seeded inputs of the four benchmark workloads.

Every input is a function of (workload, seed) alone: the same seed gives
byte-identical scenario text and weather trace.  The simulator only ever
sees the files written by :func:`write_inputs`.  Why each workload exists,
and which layer it loads, is written down in README.md next to this file.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

from microgridsim import (
    Bus,
    BusKind,
    GridConnection,
    Line,
    LoadDevice,
    Network,
    Scenario,
    SimulationConfig,
    SolarPanel,
    WeatherParams,
    WindTurbine,
    bundled_scenario_text,
    emit_scenario,
    weather_series,
    write_weather_csv,
)

# The seed whose CSV hashes are stored in expected_sha256.json.
DEFAULT_SEED = 1

S_BASE_VA = 10_000.0
V_BASE_V = 230.0
Z_BASE_OHM = V_BASE_V**2 / S_BASE_VA

FEEDER_BUSES = 160
FEEDER_TRACE_HOURS = 8760
# Largest linearized voltage drop of the generated feeder, in pu.
FEEDER_DROP_PU = 0.05
FEEDER_TRACE_NAME = "feeder_weather.csv"
SCENARIO_NAME = "scenario.mgs"


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str
    steps: int
    case: str | None  # bundled case, or None for the generated feeder


WORKLOADS = {
    w.name: w
    for w in (
        # Two years of hourly steps on the lossless balance: no power flow.
        Workload("balance_long", "simple", 17_520, "case1"),
        # Two weeks of Newton-Raphson on the 17-bus street with rooftop PV.
        Workload("street_acpf", "acpf", 336, "case2_pv"),
        # Two days of Gauss-Seidel on the same street.
        Workload("street_gs", "gs", 48, "case2_pv"),
        # Four daylight hours of Newton-Raphson on a generated 160-bus feeder.
        Workload("feeder_acpf", "acpf", 4, None),
    )
}


def _set_key(text: str, key: str, value: str) -> str:
    out, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    if count != 1:
        raise ValueError(f"bundled scenario must set {key!r} exactly once")
    return out


def bundled_variant(case: str, solver: str, steps: int, seed: int) -> str:
    """A bundled case with its solver, step count and weather seed replaced."""
    text = bundled_scenario_text(case)
    for key, value in (("steps", steps), ("solver", solver), ("seed", seed)):
        text = _set_key(text, key, str(value))
    return text


def make_feeder(seed: int) -> Network:
    """Random radial 230 V feeder with loads, rooftop PV and small turbines.

    Each bus hangs off a uniformly chosen earlier bus, with loads of
    0.005-0.05 pu.  The line impedances are then scaled so that the largest
    linearized voltage drop under the loads alone is FEEDER_DROP_PU.  So
    every seed loads NR alike: three iterations a step, with min |V| near
    0.95 pu.  Unscaled, the depth of the random tree decides it, and one
    seed in a hundred needs a fourth iteration.  At 0.05-0.4 pu a 200-bus
    feeder of this shape runs NR into its 50-iteration cap.
    """
    rng = random.Random(seed)
    buses = [Bus("b0", BusKind.SLACK, V_BASE_V)]
    branches, loads, pvs, winds = [], [], [], []
    p_down = [0.0] * FEEDER_BUSES
    q_down = [0.0] * FEEDER_BUSES
    for i in range(1, FEEDER_BUSES):
        parent = rng.randrange(i)
        buses.append(Bus(f"b{i}", BusKind.PQ, V_BASE_V))
        r_ohm = rng.uniform(0.001, 0.01) * Z_BASE_OHM
        branches.append((parent, i, r_ohm, r_ohm * rng.uniform(0.1, 0.4)))
        if rng.random() < 0.8:
            p_w = rng.uniform(0.005, 0.05) * S_BASE_VA
            q_var = p_w * rng.uniform(0.1, 0.4)
            loads.append(LoadDevice(f"d{i}", f"b{i}", p_w, q_var))
            p_down[i], q_down[i] = p_w, q_var
        if rng.random() < 0.15:
            pvs.append(SolarPanel(f"pv{i}", f"b{i}", rng.uniform(0.01, 0.05) * S_BASE_VA))
        if rng.random() < 0.03:
            winds.append(WindTurbine(f"wt{i}", f"b{i}", rng.uniform(0.02, 0.06) * S_BASE_VA))
    # A parent's index is below its children's: sum the loads towards the
    # root, then the drops away from it.
    for parent, i, _, _ in reversed(branches):
        p_down[parent] += p_down[i]
        q_down[parent] += q_down[i]
    drop = [0.0] * FEEDER_BUSES
    for parent, i, r_ohm, x_ohm in branches:
        drop[i] = drop[parent] + (r_ohm * p_down[i] + x_ohm * q_down[i]) / V_BASE_V**2
    scale = FEEDER_DROP_PU / max(drop)
    lines = [
        Line(f"l{i}", f"b{parent}", f"b{i}", r_ohm * scale, x_ohm * scale)
        for parent, i, r_ohm, x_ohm in branches
    ]
    return Network(
        buses=tuple(buses),
        lines=tuple(lines),
        loads=tuple(loads),
        pvs=tuple(pvs),
        winds=tuple(winds),
        grid=GridConnection("utility", "b0"),
    )


def feeder_trace(seed: int):
    """A year of hourly weather starting at 09:00, so the run sees daylight."""
    params = WeatherParams(weibull_scale=7.0, cloud_step=0.1, seed=seed)
    return weather_series(params, FEEDER_TRACE_HOURS, start_hour=9)


def feeder_scenario_text(seed: int, solver: str, steps: int) -> str:
    config = SimulationConfig(
        steps=steps, start_hour=9, solver=solver, seed=seed,
        s_base_va=S_BASE_VA, v_base_v=V_BASE_V,
    )
    scenario = Scenario(make_feeder(seed), config, weather_trace=FEEDER_TRACE_NAME)
    return emit_scenario(scenario)


def write_inputs(name: str, seed: int, directory: Path) -> Path:
    """Write the workload's inputs into directory; return the scenario path."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    w = WORKLOADS[name]
    directory.mkdir(parents=True, exist_ok=True)
    if w.case is None:
        text = feeder_scenario_text(seed, w.solver, w.steps)
        write_weather_csv(feeder_trace(seed), directory / FEEDER_TRACE_NAME)
    else:
        text = bundled_variant(w.case, w.solver, w.steps, seed)
    path = directory / SCENARIO_NAME
    path.write_text(text, encoding="utf-8", newline="\n")
    return path
