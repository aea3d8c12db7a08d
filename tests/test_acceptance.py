"""Acceptance suite: every exit criterion at its stated tolerance.

Each test covers one numbered criterion and prints a PASS/FAIL line
(visible with `pytest -s` or in captured output).  Expected values are
computed from independent oracles inside the tests: the quadratic
feeder-voltage formula, central finite differences, the Gamma-function
Weibull mean, and Pearson correlation over the synthesized trace.
"""

import math
import random
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import microgridsim as mg
from microgridsim.cli import cli_main
from conftest import (
    BASE,
    finite_difference_jacobian,
    make_radial_network,
    make_random_scenario,
    problem_for,
    scenarios_close,
)

MILE_M = 1609.344


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {title}")
        raise
    print(f"criterion {number:2d}: PASS  {title}")


@pytest.fixture(scope="module")
def case1():
    return mg.parse_scenario(mg.bundled_scenario_text("case1"))


@pytest.fixture(scope="module")
def case2():
    return mg.parse_scenario(mg.bundled_scenario_text("case2"))


@pytest.fixture(scope="module")
def case2_pv():
    return mg.parse_scenario(mg.bundled_scenario_text("case2_pv"))


def records_by(table, quantity):
    return [r for r in table if r.quantity == quantity]


def value_at(table, step, quantity, obj=None):
    # Tests that call this in a loop pass list(table): scanning a list of
    # records does not make them anew on every call.
    for r in table:
        if r.step == step and r.quantity == quantity and (obj is None or r.object == obj):
            return r.value
    raise KeyError((step, quantity, obj))


def test_c01_line_constant():
    with criterion(1, "0.115 ohm/km and 0.185 ohm/mile copper line constant"):
        per_km = mg.line_resistance(1.724e-8, 1000.0, 150e-6)
        assert abs(per_km / 0.115 - 1.0) <= 0.005
        per_mile = mg.line_resistance(1.724e-8, MILE_M, 150e-6)
        assert abs(per_mile / 0.185 - 1.0) <= 0.005


def test_c02_two_bus_analytic_oracle():
    with criterion(2, "two-bus feeder voltage against the quadratic oracle"):
        r_pu, p_pu = 0.0013044, 0.5
        # independent oracle: V^2 - V + P R = 0 for a resistive two-bus feeder
        oracle = (1.0 + math.sqrt(1.0 - 4.0 * p_pu * r_pu)) / 2.0
        assert oracle == pytest.approx(0.99934742, abs=1e-7)
        g = 1.0 / r_pu
        y = mg.AdmittanceMatrix(np.array([[g, -g], [-g, g]], dtype=complex))
        problem = mg.PowerFlowProblem(y, 0, np.array([-p_pu]), np.array([0.0]))
        for solver in (mg.solve_newton_raphson, mg.solve_gauss_seidel):
            solution = solver(problem)
            assert solution.converged
            assert abs(solution.v_mag[1] - oracle) <= 1e-7


def test_c03_jacobian_vs_finite_differences():
    with criterion(3, "analytic Jacobian vs central differences, 100 random networks"):
        rng = random.Random(303)
        np_rng = np.random.default_rng(303)
        for _ in range(100):
            net = make_radial_network(rng, rng.randint(2, 6), r_pu_range=(0.005, 0.1))
            problem = problem_for(net)
            n = problem.admittance.n
            pq = problem.pq_indices
            vm = np.ones(n) + np_rng.uniform(-0.05, 0.05, n)
            va = np_rng.uniform(-0.1, 0.1, n)
            analytic = mg.newton_jacobian(vm, va, problem.admittance, pq)
            numeric = finite_difference_jacobian(vm, va, problem.admittance, pq, step=1e-6)
            assert np.all(
                np.abs(analytic - numeric) <= 1e-5 * np.maximum(1.0, np.abs(numeric))
            )


def _step_problems(scenario):
    """One power-flow problem per simulation step of an acpf scenario."""
    cfg = scenario.config
    net = scenario.network
    samples = mg.weather_series(replace(scenario.weather, seed=cfg.seed), cfg.steps, cfg.start_hour)
    base = mg.PerUnitBase(cfg.s_base_va, cfg.v_base_v)
    admittance = mg.build_admittance(net, base)
    slack = net.slack_index()
    pq = [i for i in range(len(net.buses)) if i != slack]
    for ws in samples:
        p = np.zeros(len(net.buses))
        q = np.zeros(len(net.buses))
        for load in net.loads:
            p[net.bus_index(load.bus)] -= load.active_power
            q[net.bus_index(load.bus)] -= load.reactive_power
        for pv in net.pvs:
            p[net.bus_index(pv.bus)] += mg.pv_power(pv, ws)
        for wt in net.winds:
            p[net.bus_index(wt.bus)] += mg.wind_power(wt, ws.wind_speed)
        yield mg.PowerFlowProblem(admittance, slack, p[pq] / cfg.s_base_va, q[pq] / cfg.s_base_va)


def test_c04_solver_cross_agreement(case2, case2_pv):
    with criterion(4, "NR/GS |V| within 1e-6 pu; NR <= 10 iterations on case studies"):
        assert mg.powerflow.TOLERANCE == 1e-8
        for scenario in (case2, case2_pv):
            for problem in _step_problems(scenario):
                nr = mg.solve_newton_raphson(problem)
                gs = mg.solve_gauss_seidel(problem)
                assert nr.converged and gs.converged
                assert nr.iterations <= 10
                assert np.max(np.abs(nr.v_mag - gs.v_mag)) <= 1e-6
        rng = random.Random(404)
        for _ in range(100):
            problem = problem_for(make_radial_network(rng, rng.randint(2, 10)))
            nr = mg.solve_newton_raphson(problem)
            gs = mg.solve_gauss_seidel(problem)
            assert nr.converged and gs.converged
            assert np.max(np.abs(nr.v_mag - gs.v_mag)) <= 1e-6


def test_c05_conservation(case2, case2_pv):
    with criterion(5, "slack power minus net load equals line losses, losses >= 0"):
        for scenario in (case2, case2_pv):
            cfg = scenario.config
            net = scenario.network
            table = list(mg.run_simulation(scenario))
            index = {b.id: i for i, b in enumerate(net.buses)}
            load_w = sum(l.active_power for l in net.loads)
            for step in range(cfg.steps):
                # reconstruct complex bus voltages from the records
                v = np.zeros(len(net.buses), dtype=complex)
                for bus in net.buses:
                    vm = value_at(table, step, "v_mag", bus.id) / cfg.v_base_v
                    va = value_at(table, step, "v_angle", bus.id)
                    v[index[bus.id]] = vm * np.exp(1j * va)
                losses_pu = 0.0
                for line in net.lines:
                    z = complex(line.resistance, line.reactance) / BASE.z_base
                    current = (v[index[line.from_bus]] - v[index[line.to_bus]]) / z
                    losses_pu += (line.resistance / BASE.z_base) * abs(current) ** 2
                assert losses_pu >= 0.0
                cloud = value_at(table, step, "cloud_factor")
                hour = next(r.hour for r in table if r.step == step)
                pv_w = sum(
                    mg.pv_power(pv, mg.WeatherSample(step, hour, cloud, 0.0, 0.0))
                    for pv in net.pvs
                )
                slack_pu = value_at(table, step, "p_grid") / cfg.s_base_va
                net_load_pu = (load_w - pv_w) / cfg.s_base_va
                assert abs(slack_pu - net_load_pu - losses_pu) <= 1e-8


def test_c06_night_pv_zero_wind_alive(case1):
    with criterion(6, "night PV output exactly zero, wind producing, seeds 0-9"):
        for seed in range(10):
            scenario = replace(case1, config=replace(case1.config, seed=seed))
            table = mg.run_simulation(scenario)
            night_pv = [
                r.value
                for r in records_by(table, "p_out")
                if r.object.startswith("panel") and not 6 < r.hour < 18
            ]
            assert night_pv, "expected night PV records"
            assert all(value == 0.0 for value in night_pv)
            night_wind = [
                r.value
                for r in records_by(table, "p_out")
                if r.object == "turbine" and not 6 < r.hour < 18
            ]
            assert any(value > 0.0 for value in night_wind)


def test_c07_cloud_correlation(case1):
    with criterion(7, "daytime PV output vs cloud factor correlation <= -0.5"):
        scenario = replace(case1, config=replace(case1.config, steps=1000))
        table = mg.run_simulation(scenario)
        clouds = {r.step: r.value for r in records_by(table, "cloud_factor")}
        pv = {
            r.step: r.value
            for r in records_by(table, "p_out")
            if r.object == "panel1"
        }
        hours = {r.step: r.hour for r in table}
        day_steps = [s for s in pv if 7 <= hours[s] <= 17]
        x = np.array([pv[s] for s in day_steps])
        y = np.array([clouds[s] for s in day_steps])
        corr = float(np.corrcoef(x, y)[0, 1])
        assert corr <= -0.5


def test_c08_minimum_voltage_bus(case2):
    with criterion(8, "bus hb4 has the strictly minimum voltage at every step"):
        table = list(mg.run_simulation(case2))
        bus_ids = [b.id for b in case2.network.buses]
        for step in range(case2.config.steps):
            v = {b: value_at(table, step, "v_mag", b) for b in bus_ids}
            low = min(v, key=v.get)
            assert low == "hb4"
            assert all(v["hb4"] < v[b] for b in bus_ids if b != "hb4")


def test_c09_pv_voltage_lift(case2, case2_pv):
    with criterion(9, "adding PV raises the voltage at its bus whenever it produces"):
        assert case2.config.seed == case2_pv.config.seed
        base_table = list(mg.run_simulation(case2))
        pv_table = list(mg.run_simulation(case2_pv))
        panel = case2_pv.network.pvs[0]
        for step in range(case2.config.steps):
            v_base = value_at(base_table, step, "v_mag", "hb4")
            v_pv = value_at(pv_table, step, "v_mag", "hb4")
            assert v_pv >= v_base
            cloud = value_at(pv_table, step, "cloud_factor")
            hour = next(r.hour for r in pv_table if r.step == step)
            output = mg.pv_power(panel, mg.WeatherSample(step, hour, cloud, 0.0, 0.0))
            if output > 0.0:
                assert v_pv > v_base


def test_c10_simple_distribution_identity(case1):
    with criterion(10, "lossless balance exact; both import and export, seeds 0-9"):
        for seed in range(10):
            scenario = replace(case1, config=replace(case1.config, seed=seed))
            table = mg.run_simulation(scenario)
            imported = exported = False
            for step in range(scenario.config.steps):
                outs = [
                    r.value for r in table if r.step == step and r.quantity == "p_out"
                ]
                demands = [
                    r.value for r in table if r.step == step and r.quantity == "p_demand"
                ]
                grid = value_at(table, step, "p_grid")
                # p_grid + sum(p_out) - sum(p_demand) = 0, checked without
                # re-associating the floating-point sums
                assert grid == sum(demands) - sum(outs)
                imported = imported or grid > 0.0
                exported = exported or grid < 0.0
            assert imported, f"seed {seed} never imported"
            assert exported, f"seed {seed} never exported"


def test_c11_weibull_sampler():
    with criterion(11, "1e6 Weibull draws match the Gamma-mean and CDF oracles"):
        shape, scale = 2.0, 6.0
        u = mg.uniform_stream(1106, 1_000_000)
        draws = np.array([mg.sample_wind(x, shape, scale) for x in u])
        mean_oracle = scale * math.gamma(1.0 + 1.0 / shape)
        assert mean_oracle == pytest.approx(5.3174, abs=5e-5)
        assert abs(float(draws.mean()) / mean_oracle - 1.0) <= 0.01
        cdf_at_scale = float(np.mean(draws <= scale))
        assert abs(cdf_at_scale / (1.0 - math.exp(-1.0)) - 1.0) <= 0.01


def test_c12_determinism_and_formats(tmp_path):
    with criterion(12, "byte-identical reruns; round-trips; error line accuracy"):
        case1_path = str(mg.bundled_scenario_path("case1"))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["run", case1_path, "--seed", "7", "--out", str(a)]) == 0
        assert cli_main(["run", case1_path, "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

        for name in mg.BUNDLED_SCENARIOS:
            scenario = mg.parse_scenario(mg.bundled_scenario_text(name))
            assert mg.parse_scenario(mg.emit_scenario(scenario)) == scenario
        rng = random.Random(1212)
        for _ in range(500):
            original = make_random_scenario(rng)
            normalized = mg.parse_scenario(mg.emit_scenario(original))
            assert scenarios_close(original, normalized)
            assert mg.parse_scenario(mg.emit_scenario(normalized)) == normalized

        base = mg.bundled_scenario_text("case1")
        malformed = [
            (base.replace("solver = simple", "solver = magic"), "magic"),
            (base.replace("p_w = 800", "p_w = lots", 1), "lots"),
            (base + "\n[pv]\nid = spare\nbus = ghost\npeak_w = 100\n", "ghost"),
            (base + "\nloose line\n", "loose line"),
            (base.replace("id = house1", "id = house2", 1), "[load]"),
        ]
        for text, token in malformed:
            with pytest.raises(mg.ScenarioFormatError) as exc:
                mg.parse_scenario(text)
            lines = text.splitlines()
            assert any(
                token in lines[e.line - 1] for e in exc.value.errors
            ), f"no error line contains {token!r}"
