"""Simulation loop, results CSV, and summaries."""

import csv
import math
import random
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microgridsim import (
    Bus,
    BusKind,
    Line,
    Network,
    NonConvergenceError,
    PerUnitBase,
    ResultRecord,
    ResultTable,
    Scenario,
    SimulationConfig,
    SingularMatrixError,
    SolarPanel,
    WeatherParams,
    WindTurbine,
    bundled_scenario_text,
    compute_injections,
    parse_scenario,
    read_results_csv,
    render_csv,
    run_simulation,
    summarize,
    validate,
    weather_series,
    write_csv,
    write_weather_csv,
)
from microgridsim import engine, powerflow
from conftest import (
    changed_weather,
    loop_pv_power,
    loop_read_results_csv,
    loop_render_csv,
    loop_summarize,
    loop_wind_power,
    make_radial_network,
    make_random_scenario,
    mutated_csv,
    overheated_weather,
    problem_for,
)


@pytest.fixture(scope="module")
def case1():
    return parse_scenario(bundled_scenario_text("case1"))


@pytest.fixture(scope="module")
def case2():
    return parse_scenario(bundled_scenario_text("case2"))


@pytest.fixture(scope="module")
def case2_table(case2):
    return run_simulation(case2)


def by_quantity(table, quantity):
    return [r for r in table if r.quantity == quantity]


# Block sizes the CSV layer is checked at: small ones make the drawn
# tables span several blocks, and the last is the one the package uses.
BLOCK_SIZES = (1, 2, 5, engine._BLOCK_ROWS)


def block_rows(n):
    """Context in which the CSV layer works in blocks of n rows."""
    return mock.patch.object(engine, "_BLOCK_ROWS", n)


def stacks_of(scenario, steps):
    """Context in which an AC run of scenario, by its solver, solves stacks of `steps` steps."""
    step_bytes = engine._step_bytes(len(scenario.network.buses), scenario.config.solver)
    return mock.patch.object(engine, "STACK_BYTES", steps * step_bytes)


def solved_stacks(scenario):
    """(steps, method) of each stack that an AC run of scenario solves, in order."""
    with mock.patch.object(powerflow, "solve_steps", wraps=powerflow.solve_steps) as spy:
        run_simulation(scenario)
    return [(len(call.args[0]), call.args[1]) for call in spy.call_args_list]


# The stack sizes error order is checked at: 1 solves step by step.
STACK_STEPS = (1, 2, 3)


class TestRunSimulation:
    def test_record_keys_unique(self, case2_table):
        keys = [(r.step, r.object, r.quantity) for r in case2_table]
        assert len(keys) == len(set(keys))

    def test_acpf_record_completeness(self, case2, case2_table):
        n_buses = len(case2.network.buses)
        assert len(by_quantity(case2_table, "v_mag")) == 48 * n_buses
        assert len(by_quantity(case2_table, "v_angle")) == 48 * n_buses
        assert len(by_quantity(case2_table, "p_grid")) == 48
        assert len(by_quantity(case2_table, "losses")) == 48

    def test_weather_pass_through_exact(self, case1):
        table = run_simulation(case1)
        samples = weather_series(case1.weather, case1.config.steps, case1.config.start_hour)
        clouds = {r.step: r.value for r in by_quantity(table, "cloud_factor")}
        winds = {r.step: r.value for r in by_quantity(table, "wind_speed")}
        for step in range(len(samples)):
            assert clouds[step] == samples.cloud_factor[step]
            assert winds[step] == samples.wind_speed[step]

    def test_simple_run_shape_and_night_pv(self, case1):
        table = run_simulation(case1)
        for rec in by_quantity(table, "p_out"):
            if rec.object.startswith("panel") and not 6 < rec.hour < 18:
                assert rec.value == 0.0
        assert len(by_quantity(table, "p_demand")) == 48 * 3
        assert len(by_quantity(table, "p_grid")) == 48

    def test_simple_balance_identity(self, case1):
        table = run_simulation(case1)
        for step in range(case1.config.steps):
            outs = [r.value for r in table if r.step == step and r.quantity == "p_out"]
            demands = [r.value for r in table if r.step == step and r.quantity == "p_demand"]
            grid = [r.value for r in table if r.step == step and r.quantity == "p_grid"]
            assert grid[0] == sum(demands) - sum(outs)

    def test_acpf_energy_sanity(self, case2, case2_table):
        s_base = case2.config.s_base_va
        load_w = sum(l.active_power for l in case2.network.loads)
        for step in range(48):
            grid = next(
                r.value for r in case2_table
                if r.step == step and r.quantity == "p_grid"
            )
            losses = next(
                r.value for r in case2_table
                if r.step == step and r.quantity == "losses"
            )
            assert losses >= 0.0
            assert abs(grid - load_w - losses) / s_base <= 1e-8

    def test_determinism(self, case2):
        a = run_simulation(case2)
        b = run_simulation(case2)
        assert a == b
        assert render_csv(a) == render_csv(b)

    def test_weather_override(self, case1):
        samples = weather_series(replace(case1.weather, seed=5), 48)
        table = run_simulation(case1, weather=samples)
        clouds = {r.step: r.value for r in by_quantity(table, "cloud_factor")}
        assert clouds[0] == samples.cloud_factor[0]

    def test_scenario_trace_resolved_against_trace_dir(self, case1, tmp_path):
        samples = weather_series(case1.weather, 48)
        write_weather_csv(samples, tmp_path / "wx.csv")
        scenario = replace(case1, weather=None, weather_trace="wx.csv")
        table = run_simulation(scenario, trace_dir=tmp_path)
        assert len(by_quantity(table, "cloud_factor")) == 48

    def test_short_trace_rejected(self, case1):
        samples = weather_series(case1.weather, 10)
        with pytest.raises(ValueError, match="10 samples"):
            run_simulation(case1, weather=samples)

    def test_trace_hours_must_follow_start_hour(self, case1):
        samples = weather_series(case1.weather, 48, start_hour=5)
        with pytest.raises(ValueError, match="step 0 is for hour 5"):
            run_simulation(case1, weather=samples)
        samples = changed_weather(weather_series(case1.weather, 48), 7, hour=3)
        with pytest.raises(ValueError, match="step 7 is for hour 3, .* needs hour 7"):
            run_simulation(case1, weather=samples)

    def test_unknown_solver_is_rejected(self, case2):
        # "newton_raphson" was the method's name before it became "acpf".
        scenario = replace(case2, config=replace(case2.config, solver="newton_raphson"))
        with pytest.raises(ValueError, match="^unknown solver method 'newton_raphson'$"):
            run_simulation(scenario)

    def test_non_convergence_aborts_with_step(self):
        text = bundled_scenario_text("case2").replace("p_w = 6000", "p_w = 90000000")
        scenario = parse_scenario(text)
        with pytest.raises(NonConvergenceError) as exc:
            run_simulation(scenario)
        assert exc.value.step == 0
        assert "step 0" in str(exc.value)

    @pytest.mark.parametrize("solver", ["acpf", "gs"])
    def test_non_convergence_names_worst_bus_and_voltage_range(self, solver):
        text = bundled_scenario_text("case2").replace("p_w = 6000", "p_w = 90000000")
        scenario = parse_scenario(text)
        scenario = replace(scenario, config=replace(scenario.config, solver=solver))
        with pytest.raises(NonConvergenceError) as exc:
            run_simulation(scenario)
        err = exc.value
        sol = err.solution
        # Rebuild step 0's problem (constant loads only) and find the worst
        # bus one PQ bus at a time.
        cfg = scenario.config
        problem = problem_for(scenario.network, PerUnitBase(cfg.s_base_va, cfg.v_base_v))
        p, q = compute_injections(sol.v_mag, sol.v_angle, problem.admittance)
        worst_bus, worst = None, -1.0
        for k, i in enumerate(problem.pq_indices):
            bus_mismatch = max(
                abs(problem.p_injection[0][k] - p[i]), abs(problem.q_injection[0][k] - q[i])
            )
            if bus_mismatch > worst:
                worst_bus, worst = scenario.network.buses[i].id, bus_mismatch
        assert err.worst_bus == worst_bus
        assert err.v_mag_range == (np.min(sol.v_mag), np.max(sol.v_mag))
        low, high = err.v_mag_range
        assert f"worst at bus '{worst_bus}'" in str(err)
        assert f"|V| from {low:.6g} to {high:.6g} pu" in str(err)

    @pytest.mark.parametrize(
        "solver, worst_bus, message",
        [
            (
                "acpf",
                "ha1",
                "power flow did not converge at step 0 (max mismatch inf pu after 2 "
                "iterations; worst at bus 'ha1'; |V| from -1.51264e+299 to 1.59621e+300 pu)",
            ),
            (
                "gs",
                "ha1",
                "power flow did not converge at step 0 (max mismatch inf pu after 1 "
                "iterations; worst at bus 'ha1'; |V| from 0.99987 to 2.17265e+300 pu)",
            ),
        ],
    )
    def test_overflowed_state_names_the_loaded_bus(self, solver, worst_bus, message):
        # One 1e308 var load at ha1: the last iterate's mismatch is inf at
        # several PQ buses, and of those the one with the largest specified
        # injection, the loaded bus, is named.
        text = bundled_scenario_text("case2")
        scenario = parse_scenario(text.replace("q_var = 0\n", "q_var = 1e308\n", 1))
        scenario = replace(scenario, config=replace(scenario.config, solver=solver))
        with pytest.raises(NonConvergenceError) as exc:
            run_simulation(scenario)
        assert exc.value.worst_bus == worst_bus
        assert str(exc.value) == message

    def test_non_finite_result_names_step_object_and_quantity(self, case1):
        scenario = replace(case1, config=replace(case1.config, steps=24))
        with pytest.raises(
            ValueError, match=r"^step 13: weather temperature is inf, not a finite number$"
        ):
            run_simulation(scenario, weather=overheated_weather(scenario))

    def test_non_finite_result_reported_for_the_whole_run(self, case1):
        # The check runs step by step, so the first bad step is named even
        # when later steps are bad too.
        with pytest.raises(
            ValueError, match=r"^step 13: weather temperature is inf, not a finite number$"
        ):
            run_simulation(case1, weather=overheated_weather(case1))

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"weibull_shape": 1e-320},
                "weibull_shape = 1e-320 with weibull_scale = 9.0 gives an infinite wind speed",
            ),
            (
                {"temp_mean": 1e308, "temp_amplitude": 1e308},
                "temp_mean = 1e+308 with temp_amplitude = 1e+308 gives an infinite temperature",
            ),
        ],
    )
    def test_overflowing_weather_params_abort_the_run(self, case1, changes, message):
        # Each parameter is finite, but the weather it makes is not: the run
        # fails before its first step, naming the parameters.
        scenario = replace(case1, weather=replace(case1.weather, **changes))
        with pytest.raises(ValueError) as exc:
            run_simulation(scenario)
        assert str(exc.value) == message

    @pytest.mark.parametrize("solver", ["acpf", "gs"])
    def test_near_short_line_breaks_the_power_balance(self, solver):
        # At 1e-300 ohm seg_a1 passes validate, and each step stops within
        # tolerance, but seg_a1's admittance swamps its neighbours' in
        # rounding: p_grid reads 0 W under a 39 kW street load.
        text = bundled_scenario_text("case2")
        seg_a1 = "to = a1\nresistance_ohm = "
        scenario = parse_scenario(text.replace(seg_a1 + "0.006896\n", seg_a1 + "1e-300\n"))
        assert validate(scenario.network) == []
        scenario = replace(scenario, config=replace(scenario.config, solver=solver, steps=4))
        weather = weather_series(scenario.weather, 4, scenario.config.start_hour)
        balance = (
            r"^step 0: p_grid \+ injections - losses is -39359\.6 W, beyond the 0\.0016 W that "
            "the solver's tolerance allows: rounding swamped the solution, as beside a "
            "near-short line$"
        )
        with pytest.raises(ValueError, match=balance):
            run_simulation(scenario, weather=weather)
        # In step order: weather broken at step 1 comes after step 0's
        # imbalance, and at step 0 before it.
        for step, message in ((1, balance), (0, r"^step 0: weather temperature is nan")):
            broken = changed_weather(weather, step, temperature=math.nan)
            with pytest.raises(ValueError, match=message):
                run_simulation(scenario, weather=broken)

    def test_non_finite_balance_value_names_its_object(self):
        # Two 1e308 W loads are finite, but the grid's share of them is not.
        text = bundled_scenario_text("case1")
        assert text.count("p_w = 800\n") == 3
        scenario = parse_scenario(text.replace("p_w = 800\n", "p_w = 1e308\n", 2))
        with pytest.raises(
            ValueError, match=r"^step 0: utility p_grid is inf, not a finite number$"
        ):
            run_simulation(scenario)

    def test_first_failing_balance_step_is_reported_whatever_the_stacks(self, case1):
        # Step 5's negative wind speed is rejected at its step, but step 3's
        # NaN temperature comes first.
        samples = weather_series(case1.weather, case1.config.steps, case1.config.start_hour)
        backwards = changed_weather(samples, 5, wind_speed=-1.0)
        both = changed_weather(backwards, 3, temperature=float("nan"))
        with pytest.raises(ValueError, match=r"^step 5: weather wind_speed is -1\.0, not >= 0$"):
            run_simulation(case1, weather=backwards)
        with pytest.raises(
            ValueError, match=r"^step 3: weather temperature is nan, not a finite number$"
        ):
            run_simulation(case1, weather=both)

    @pytest.mark.parametrize("case", ["case1", "case2", "case2_pv"])
    @pytest.mark.parametrize(
        "step, change, message",
        [
            (12, {"cloud_factor": 5.0}, "step 12: weather cloud_factor is 5.0, not in [0, 1]"),
            (0, {"cloud_factor": -0.5}, "step 0: weather cloud_factor is -0.5, not in [0, 1]"),
            (5, {"wind_speed": -1.0}, "step 5: weather wind_speed is -1.0, not >= 0"),
            (
                5,
                {"cloud_factor": 5.0, "wind_speed": -1.0},
                "step 5: weather cloud_factor is 5.0, not in [0, 1]",
            ),
            (
                47,
                {"cloud_factor": 5.0, "temperature": float("nan")},
                "step 47: weather temperature is nan, not a finite number",
            ),
        ],
        ids=["cloud-high", "cloud-low", "wind", "cloud-and-wind", "cloud-and-nan"],
    )
    def test_bad_weather_is_rejected_at_its_step(self, case, step, change, message):
        # The trace reader's rules hold for given weather too, whether or
        # not the network has a device that uses the value: case2 has no
        # producers, case2_pv a panel, case1 panels and a turbine.  A step's
        # non-finite values come before its out-of-range ones.
        scenario = parse_scenario(bundled_scenario_text(case))
        cfg = scenario.config
        samples = weather_series(scenario.weather, cfg.steps, cfg.start_hour)
        samples = changed_weather(samples, step, **change)
        with pytest.raises(ValueError) as exc:
            run_simulation(scenario, weather=samples)
        assert str(exc.value) == message

    def test_weather_at_the_bounds_is_accepted(self, case1):
        # Cloud 0 and 1, and a calm of -0.0 m/s, are valid weather.
        samples = weather_series(case1.weather, case1.config.steps, case1.config.start_hour)
        samples = changed_weather(samples, 3, cloud_factor=0.0, wind_speed=-0.0)
        samples = changed_weather(samples, 4, cloud_factor=1.0, wind_speed=0.0)
        table = run_simulation(case1, weather=samples)
        assert np.isfinite(table.value).all()

    @pytest.fixture(scope="class")
    def bright_case2_pv(self):
        # A 1e200 W rooftop PV: from the first daylight step on, the AC
        # solver's state overflows and the solve fails.
        text = bundled_scenario_text("case2_pv")
        assert "peak_w = 5000\n" in text
        scenario = parse_scenario(text.replace("peak_w = 5000\n", "peak_w = 1e200\n"))
        samples = weather_series(replace(scenario.weather, seed=scenario.config.seed), 48)
        return scenario, samples

    def test_bright_pv_fails_to_converge_at_first_daylight(self, bright_case2_pv):
        scenario, samples = bright_case2_pv
        with pytest.raises(NonConvergenceError) as exc:
            run_simulation(scenario, weather=samples)
        assert exc.value.step == 7

    @pytest.mark.parametrize(
        "solver, bright",
        [
            (
                "acpf",
                "power flow did not converge at step 7 (max mismatch inf pu after 1 "
                "iterations; worst at bus 'hb4'; |V| from 0.995383 to 4.92905e+192 pu)",
            ),
            (
                "gs",
                "power flow did not converge at step 7 (max mismatch inf pu after 1 "
                "iterations; worst at bus 'hb4'; |V| from 0.999881 to 3.08066e+191 pu)",
            ),
        ],
        ids=["acpf", "gs"],
    )
    @pytest.mark.parametrize("steps", STACK_STEPS)
    def test_first_failing_step_is_reported_whatever_the_stacks(
        self, bright_case2_pv, steps, solver, bright
    ):
        # Step 7 fails to converge while later steps of its stack are
        # solved; a bad weather value before it, or at it, comes first.
        scenario, samples = bright_case2_pv
        scenario = replace(scenario, config=replace(scenario.config, solver=solver))
        nan_temperature = changed_weather(samples, 3, temperature=float("nan"))
        inf_cloud = changed_weather(samples, 7, cloud_factor=-float("inf"))
        inf_wind = changed_weather(samples, 7, wind_speed=-float("inf"))
        hot = parse_scenario(bundled_scenario_text("case1"))
        hot = replace(hot, config=replace(hot.config, solver=solver))
        not_finite = "step {}: weather {} is {}, not a finite number"
        cases = [
            (scenario, samples, NonConvergenceError, bright),
            (scenario, nan_temperature, ValueError, not_finite.format(3, "temperature", "nan")),
            (scenario, inf_cloud, ValueError, not_finite.format(7, "cloud_factor", "-inf")),
            (scenario, inf_wind, ValueError, not_finite.format(7, "wind_speed", "-inf")),
            (hot, overheated_weather(hot), ValueError, not_finite.format(13, "temperature", "inf")),
        ]
        for case, weather, error, message in cases:
            with stacks_of(case, steps), pytest.raises(error) as exc:
                run_simulation(case, weather=weather)
            assert str(exc.value) == message

    @pytest.mark.parametrize("steps", STACK_STEPS)
    def test_singular_step_before_a_non_converging_one(self, steps):
        # Bus far hangs off the slack by a line of conductance 5e-13 pu,
        # so a step that needs a Newton step has a singular Jacobian.  Its
        # PV panel gives power at step 4 only, and the two 1e308 W turbines
        # at bus w make step 5's injection infinite: it stops at once.
        # Stacks of 2 and 3 steps both hold steps 4 and 5.
        network = Network(
            buses=(
                Bus("s", BusKind.SLACK, 230.0),
                Bus("far", BusKind.PQ, 230.0),
                Bus("w", BusKind.PQ, 230.0),
            ),
            lines=(Line("l1", "s", "far", 1e13), Line("l2", "s", "w", 0.05)),
            pvs=(SolarPanel("pv", "far", 5000.0, 1.0),),
            winds=(WindTurbine("wt1", "w", 1e308), WindTurbine("wt2", "w", 1e308)),
        )
        config = SimulationConfig(
            steps=6, start_hour=8, solver="acpf", seed=1, s_base_va=10_000.0, v_base_v=230.0
        )
        scenario = Scenario(network=network, config=config, weather=WeatherParams(seed=1))
        calm = replace(
            weather_series(WeatherParams(seed=1), 6, 8), cloud_factor=np.ones(6), wind_speed=np.zeros(6)
        )
        windy = changed_weather(calm, 5, wind_speed=15.0)
        sunny = changed_weather(windy, 4, cloud_factor=0.0)
        # wind_power raises for a negative speed: at step 5, after step 4.
        backwards = changed_weather(sunny, 5, wind_speed=-1.0)
        # 1e308 + 1e308 overflows to inf, as the turbines are meant to.
        with stacks_of(scenario, steps), np.errstate(over="ignore"):
            # Three weather values, |V| and angle of three buses, p_grid, losses.
            assert len(run_simulation(scenario, weather=calm)) == 6 * 11
            singular = r"^step 4: pivot 0 below 1e-12 \(angle of bus 'far'\)$"
            for weather in (sunny, backwards):
                with pytest.raises(SingularMatrixError, match=singular):
                    run_simulation(scenario, weather=weather)
            with pytest.raises(NonConvergenceError) as exc:
                run_simulation(scenario, weather=windy)
        assert str(exc.value) == (
            "power flow did not converge at step 5 (max mismatch inf pu after 0 "
            "iterations; worst at bus 'w'; |V| from 1 to 1 pu)"
        )

    def test_non_finite_value_before_a_non_converging_step(self, bright_case2_pv):
        scenario, samples = bright_case2_pv
        samples = changed_weather(samples, 3, temperature=float("nan"))
        with pytest.raises(
            ValueError, match=r"^step 3: weather temperature is nan, not a finite number$"
        ):
            run_simulation(scenario, weather=samples)

    @pytest.mark.parametrize("field", ["cloud_factor", "wind_speed"])
    def test_non_finite_weather_at_the_non_converging_step(self, bright_case2_pv, field):
        # The weather values of a step come before its solve, so they are
        # the error even when that solve fails or the generators reject them.
        scenario, samples = bright_case2_pv
        samples = changed_weather(samples, 7, **{field: -float("inf")})
        with pytest.raises(
            ValueError, match=rf"^step 7: weather {field} is -inf, not a finite number$"
        ):
            run_simulation(scenario, weather=samples)

    @pytest.mark.parametrize(
        "field",
        ["cloud_step", "cloud_initial", "weibull_shape", "weibull_scale", "temp_mean", "temp_amplitude"],
    )
    def test_nan_weather_params_abort_the_run(self, case1, field):
        scenario = replace(case1, weather=replace(case1.weather, **{field: float("nan")}))
        with pytest.raises(ValueError, match=f"^{field} must be"):
            run_simulation(scenario)

    def test_gs_solver_matches_acpf(self, case2, case2_table):
        gs_table = run_simulation(replace(case2, config=replace(case2.config, solver="gs")))
        nr = {(r.step, r.object): r.value for r in by_quantity(case2_table, "v_mag")}
        gs = {(r.step, r.object): r.value for r in by_quantity(gs_table, "v_mag")}
        worst = max(abs(nr[k] - gs[k]) for k in nr)
        assert worst <= 1e-6 * 230.0


class TestStackedRuns:
    @given(
        seed=st.integers(0, 2**64 - 1),
        steps=st.integers(2, 60),
        load_scale=st.sampled_from([1.0, 60.0]),
        producer_scale=st.sampled_from([1.0, 100.0]),
        data=st.data(),
    )
    @settings(max_examples=40)
    def test_run_does_not_depend_on_the_stacks(
        self, seed, steps, load_scale, producer_scale, data
    ):
        # A drawn scenario solved step by step and in stacks of a drawn
        # size gives the same values, bit for bit, or the same error.
        # Scaled up, some loads fail to converge at night and some
        # generators by day, at various steps.
        scenario = make_random_scenario(random.Random(seed))
        net = scenario.network
        net = replace(
            net,
            loads=tuple(replace(d, active_power=d.active_power * load_scale) for d in net.loads),
            pvs=tuple(replace(d, peak_power=d.peak_power * producer_scale) for d in net.pvs),
            winds=tuple(replace(d, peak_power=d.peak_power * producer_scale) for d in net.winds),
        )
        scenario = Scenario(
            network=net,
            config=replace(scenario.config, solver="acpf", steps=steps),
            weather=WeatherParams(seed=seed),
        )
        outcomes = []
        for size in (1, data.draw(st.integers(2, steps))):
            with stacks_of(scenario, size):
                try:
                    outcomes.append(run_simulation(scenario).value.tobytes())
                except (NonConvergenceError, SingularMatrixError) as exc:
                    outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    @given(seed=st.integers(0, 2**64 - 1), steps=st.integers(1, 60))
    @settings(max_examples=25)
    def test_balance_run_equals_the_per_step_oracle(self, seed, steps):
        # A drawn balance run, one array expression per column, has the
        # bits of a step-by-step run: the scalar curves, and each step's
        # p_grid as sum(demands) - sum(out).
        scenario = make_random_scenario(random.Random(seed))
        scenario = Scenario(
            network=scenario.network,
            config=replace(scenario.config, solver="simple", steps=steps, seed=seed),
            weather=WeatherParams(seed=seed),
        )
        net = scenario.network
        demands = [load.active_power for load in net.loads]
        expected = []
        weather = weather_series(scenario.weather, steps, scenario.config.start_hour)
        columns = (weather.hour, weather.cloud_factor, weather.wind_speed, weather.temperature)
        for hour, cloud, wind, temperature in zip(*(column.tolist() for column in columns)):
            out = [loop_pv_power(pv, hour, cloud) for pv in net.pvs]
            out += [loop_wind_power(turbine, wind) for turbine in net.winds]
            expected += [cloud, wind, temperature, *out, *demands]
            expected.append(sum(demands) - sum(out))
        assert run_simulation(scenario).value.tobytes() == np.array(expected).tobytes()

    @given(seed=st.integers(0, 2**64 - 1), steps=st.integers(2, 4), data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_gauss_seidel_run_does_not_depend_on_the_stacks(self, seed, steps, data):
        # As for acpf, over a few steps only: each takes hundreds of sweeps.
        scenario = make_random_scenario(random.Random(seed))
        scenario = Scenario(
            network=scenario.network,
            config=replace(scenario.config, solver="gs", steps=steps),
            weather=WeatherParams(seed=seed),
        )
        outcomes = []
        for size in (1, data.draw(st.integers(2, steps))):
            with stacks_of(scenario, size):
                try:
                    outcomes.append(run_simulation(scenario).value.tobytes())
                except (NonConvergenceError, SingularMatrixError) as exc:
                    outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("solver", ["acpf", "gs"])
    def test_each_step_is_one_solve_call(self, solver):
        # Stacks of 3 over 7 steps, the last of them ragged: solve() is
        # called once a step, in step order, with the run's solver.
        scenario = parse_scenario(bundled_scenario_text("case2_pv"))
        scenario = replace(scenario, config=replace(scenario.config, solver=solver, steps=7))
        with stacks_of(scenario, 3), mock.patch.object(
            engine, "solve", wraps=engine.solve
        ) as spy:
            run_simulation(scenario)
        calls = spy.call_args_list
        assert [call.args[2] for call in calls] == [0, 1, 2] * 2 + [0]
        assert {call.args[1].method for call in calls} == {solver}

    def test_gauss_seidel_run_of_the_street_is_one_stack(self):
        # STACK_BYTES holds 3,855 steps of the street's complex voltage rows,
        # so its 48 steps are swept as one stack.
        scenario = parse_scenario(bundled_scenario_text("case2_pv"))
        scenario = replace(scenario, config=replace(scenario.config, solver="gs"))
        assert scenario.config.steps == 48
        assert solved_stacks(scenario) == [(48, "gs")]

    def test_newton_raphson_stacks_of_the_street(self):
        # STACK_BYTES holds 124 of the street's 32 x 33 matrices: two weeks
        # are solved in stacks of 124, 124 and 88 steps.
        scenario = parse_scenario(bundled_scenario_text("case2_pv"))
        scenario = replace(scenario, config=replace(scenario.config, solver="acpf", steps=336))
        assert solved_stacks(scenario) == [(124, "acpf"), (124, "acpf"), (88, "acpf")]

    def test_newton_raphson_stacks_of_a_160_bus_feeder_are_single_steps(self):
        # Two of its 318 x 319 matrices outgrow STACK_BYTES, so each step is
        # its own stack and takes the one-system elimination.
        network = make_radial_network(random.Random(160), 160, load_pu_range=(0.001, 0.01))
        config = SimulationConfig(steps=3, start_hour=12, solver="acpf", seed=1)
        scenario = Scenario(network=network, config=config, weather=WeatherParams(seed=1))
        assert engine.STACK_BYTES < engine._step_bytes(160, "acpf") * 2
        assert solved_stacks(scenario) == [(1, "acpf")] * 3

    def test_street_csv_does_not_depend_on_the_stack_budget(self):
        # Two weeks in the stacks of the budget before this one (31 steps)
        # and in those of the current one render the same bytes.
        scenario = parse_scenario(bundled_scenario_text("case2_pv"))
        scenario = replace(scenario, config=replace(scenario.config, solver="acpf", steps=336))
        with stacks_of(scenario, 31):
            small = render_csv(run_simulation(scenario))
        assert render_csv(run_simulation(scenario)) == small


class TestCsv:
    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(ResultTable.from_records([]), path)
        assert path.read_text() == "step,hour,object,quantity,value,unit\n"

    def test_round_trip_nine_digits(self, case2_table, tmp_path):
        path = tmp_path / "results.csv"
        write_csv(case2_table, path)
        loaded = read_results_csv(path)
        assert len(loaded) == len(case2_table)
        original = {
            (r.step, r.object, r.quantity): r for r in case2_table
        }
        for rec in loaded:
            ref = original[(rec.step, rec.object, rec.quantity)]
            assert rec.hour == ref.hour
            assert rec.unit == ref.unit
            assert format(rec.value, ".9g") == format(ref.value, ".9g")

    def test_rows_sorted_and_lf(self, case2_table, tmp_path):
        path = tmp_path / "results.csv"
        write_csv(case2_table, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        rows = [line.split(",") for line in raw.decode().splitlines()[1:]]
        keys = [(int(r[0]), r[2], r[3]) for r in rows]
        assert keys == sorted(keys)

    def test_config_comments_prefix(self, tmp_path):
        path = tmp_path / "results.csv"
        write_csv(
            ResultTable.from_records([]), path, config_comments=[("seed", "7"), ("solver", "acpf")]
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed = 7"
        assert lines[1] == "# solver = acpf"
        assert lines[2] == "step,hour,object,quantity,value,unit"

    @staticmethod
    def assert_refused(tmp_path, records, message, comments=None):
        """render_csv and write_csv raise message; write_csv touches no file."""
        table = ResultTable.from_records(records)
        with pytest.raises(ValueError) as exc:
            render_csv(table, comments)
        assert str(exc.value) == message
        kept, missing = tmp_path / "kept.csv", tmp_path / "missing.csv"
        kept.write_text("kept\n")
        for path in (kept, missing):
            with pytest.raises(ValueError) as exc:
                write_csv(table, path, comments)
            assert str(exc.value) == message
        assert kept.read_text() == "kept\n"
        assert not missing.exists()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused(self, tmp_path, value):
        # The first in rendered order is named, not the first in table order.
        records = [
            ResultRecord(2, 2, "a", "p_out", value, "W"),
            ResultRecord(1, 1, "b", "p_out", value, "W"),
            ResultRecord(1, 1, "a", "p_out", 1.0, "W"),
            ResultRecord(1, 1, "c", "p_out", value, "W"),
        ]
        self.assert_refused(tmp_path, records, f"step 1: b p_out is {value}, not a finite number")

    @pytest.mark.parametrize(
        "name, fault",
        [
            ("a,b", "holds a comma"),
            ("a\rb", "holds a CR"),
            ("a\n", "holds an LF"),
            ('"a', "starts with '\"'"),
            ('""', "starts with '\"'"),
            ("a\udc80", "is not UTF-8 text"),
        ],
    )
    @pytest.mark.parametrize("kind", ["object", "quantity", "unit"])
    def test_name_the_reader_would_split_is_refused(self, tmp_path, name, fault, kind):
        names = {"object": "x", "quantity": "p_out", "unit": "W", kind: name}
        # The NaN's row renders after the bad name's, which is named.
        records = [
            ResultRecord(2, 2, "z", "p_out", math.nan, "W"),
            ResultRecord(2, 2, **names, value=1.0),
            ResultRecord(1, 1, "a", "p_out", 1.0, "W"),
        ]
        message = (
            f"step 2: object {names['object']!r}, quantity {names['quantity']!r}: "
            f"{kind} {name!r} {fault}"
        )
        self.assert_refused(tmp_path, records, message)

    @pytest.mark.parametrize("kind", ["object", "quantity"])
    def test_row_with_two_refused_names_is_named_by_the_first(self, tmp_path, kind):
        # Within a row the object is checked first, then the quantity, then the unit.
        names = {"object": "x", "quantity": "p_out", "unit": "W,h", kind: "a\n"}
        records = [
            ResultRecord(1, 1, "a", "p_out", 1.0, "W"),
            ResultRecord(1, 1, **names, value=math.nan),
        ]
        message = (
            f"step 1: object {names['object']!r}, quantity {names['quantity']!r}: "
            f"{kind} 'a\\n' holds an LF"
        )
        self.assert_refused(tmp_path, records, message)

    @pytest.mark.parametrize(
        "text, fault",
        [("a\rb", "holds a CR"), ("a\n", "holds an LF"), ("a\udc80", "is not UTF-8 text")],
    )
    @pytest.mark.parametrize("part", ["key", "value"])
    def test_comment_the_reader_would_split_is_refused(self, tmp_path, text, fault, part):
        comment = {"key": "weather_csv", "value": "wx.csv", part: text}
        comments = [("seed", "1"), (comment["key"], comment["value"]), ("solver", "x\ny")]
        # The comments are checked before the table's NaN, and in their order.
        records = [ResultRecord(0, 0, "a", "p_out", math.nan, "W")]
        message = f"config comment {comment['key']!r}: {part} {text!r} {fault}"
        self.assert_refused(tmp_path, records, message, comments)

    @pytest.mark.parametrize("name", ['a"b', "", "a\x00b", " a ", "\x1c", "#", "a\u2028b"])
    def test_names_the_reader_keeps_are_written(self, tmp_path, name):
        records = [ResultRecord(0, 0, name, name, -0.0, name)]
        path = tmp_path / "results.csv"
        write_csv(ResultTable.from_records(records), path)
        assert path.read_text(encoding="utf-8") == loop_render_csv(records)
        assert repr(list(read_results_csv(path))) == repr(records)

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,object\n")
        with pytest.raises(ValueError, match="header"):
            read_results_csv(path)


    @pytest.mark.parametrize(
        "body, row",
        [
            ("0,0,a,p_out,1.5,W\n1,0,a,p_out,watts,W\n", 3),
            ("0,0,a,p_out,1.5,W\n1.5,0,a,p_out,2,W\n", 3),
            ("0,noon,a,p_out,1.5,W\n", 2),
            ("0,0,a,p_out,1.5,W\n0,0,a,p_out\n", 3),
            # The first bad row is named, whichever column fails.
            ("0,0,a,p_out,x,W\n0,y,a,p_out,1,W\n", 2),
            ("0,0,a,p_out,1,W\n0,0,a\n0,y,a,p_out,1,W\n", 3),
            ("0,0,a,p_out,1,W\n0,y,a,p_out,1,W\n0,0,a\n", 3),
            # A value cell that does not parse as a finite float.
            ("0,0,a,p_out,1.5,W\n1,0,a,p_out,nan,W\n", 3),
            ("0,0,a,p_out,inf,W\n", 2),
            ("0,0,a,p_out,-inf,W\n0,0,a\n", 2),
            ("0,0,a,p_out,1e999,W\n", 2),
            # Bad rows after several blocks of good ones.
            pytest.param(
                "0,0,a,p_out,1,W\n" * 11 + "0,0,a,p_out,nan,W\n0,y,a,p_out,1,W\n",
                13,
                id="nan-after-11-rows",
            ),
            pytest.param("0,0,a,p_out,1,W\n" * 12 + "0,0,a\n", 14, id="short-after-12-rows"),
        ],
    )
    def test_malformed_row_is_named(self, tmp_path, body, row):
        path = tmp_path / "bad.csv"
        path.write_text("# seed = 1\nstep,hour,object,quantity,value,unit\n" + body)
        with pytest.raises(ValueError) as oracle:
            loop_read_results_csv(path)
        assert str(oracle.value).startswith(f"{path}: row {row}: ")
        for n in BLOCK_SIZES:
            with block_rows(n), pytest.raises(ValueError) as exc:
                read_results_csv(path)
            assert str(exc.value) == str(oracle.value)

    def test_non_utf8_file_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"step,hour,object,quantity,value,unit\n0,0,\xff,p_out,1,W\n")
        with pytest.raises(ValueError, match=f"^{path}: not UTF-8 text"):
            read_results_csv(path)

    @pytest.mark.parametrize("rows", [0, 1, engine._BLOCK_ROWS, engine._BLOCK_ROWS + 1])
    def test_block_boundaries(self, tmp_path, rows):
        records = [
            ResultRecord(i // 3, i // 3 % 24, f"obj{i % 3}", "p_out", i / 8.0, "W")
            for i in range(rows)
        ]
        table = ResultTable.from_records(records)
        assert list(table) == records
        assert render_csv(table) == loop_render_csv(records)
        path = tmp_path / "results.csv"
        write_csv(table, path)
        assert path.read_text() == loop_render_csv(records)
        assert list(read_results_csv(path)) == loop_read_results_csv(path) == records

    @pytest.mark.parametrize("bad", ["", "0,0,a,p_out,x,W\n"], ids=["rows", "bad-row-after"])
    def test_blank_lines_read_as_the_row_loop_reads_them(self, tmp_path, bad):
        # numpy's reader skips a blank line, so a block that holds one
        # gives fewer rows than lines and is read row by row.  A blank line
        # in the middle of the rows and one at the end of the file; a bad
        # row before the last is named by its number among the rows.
        rows = [f"{i // 3},{i // 3},obj{i % 3},p_out,{i / 8},W\n" for i in range(9)]
        path = tmp_path / "results.csv"
        path.write_text(
            "# seed = 1\nstep,hour,object,quantity,value,unit\n"
            + "".join(rows[:4]) + "\n" + "".join(rows[4:]) + bad + "\n"
        )
        expected = read_outcome(loop_read_results_csv, path)
        if bad:
            assert expected.startswith(f"{path}: row 11: ")
        else:
            assert len(loop_read_results_csv(path)) == 9
        for n in BLOCK_SIZES:
            with block_rows(n):
                assert read_outcome(read_results_csv, path) == expected

    def test_memory_does_not_grow_with_rows(self, case1, tmp_path):
        # 48,000 rows.  The record-per-row CSV layer peaked at about 200 B
        # a row to render and 500 B a row to read back; the rendered text
        # is about 40 B a row and a read-back table 48 B a row.
        table = run_simulation(replace(case1, config=replace(case1.config, steps=4800)))
        path = tmp_path / "results.csv"
        write_csv(table, path)
        for fn, arg, bytes_per_row in ((render_csv, table, 120), (read_results_csv, path, 200)):
            tracemalloc.start()
            try:
                fn(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bytes_per_row * len(table), fn.__name__

    def test_step_beyond_int64_is_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,hour,object,quantity,value,unit\n" + "9" * 20 + ",0,a,p_out,1,W\n")
        with pytest.raises(ValueError, match=f"^{path}: row 2: "):
            read_results_csv(path)

    @pytest.mark.parametrize(
        "step, hour, message",
        [
            (2**63 - 1, -(2**63), None),
            (2**63, 0, f"step and hour must fit int64, got {2**63} and 0"),
            (0, -(2**63) - 1, f"step and hour must fit int64, got 0 and {-(2**63) - 1}"),
        ],
        ids=["edges", "step-over", "hour-under"],
    )
    def test_int64_edges_on_the_row_by_row_reading(self, tmp_path, step, hour, message):
        # The quoted cell sends the block to Python's reading.
        path = tmp_path / "edges.csv"
        path.write_text(f'step,hour,object,quantity,value,unit\n"{step}",{hour},a,p_out,1,W\n')
        if message is None:
            assert list(read_results_csv(path)) == [ResultRecord(step, hour, "a", "p_out", 1.0, "W")]
        else:
            with pytest.raises(ValueError) as exc:
                read_results_csv(path)
            assert str(exc.value) == f"{path}: row 2: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty results file"),
            ("# seed = 1\n\n", "empty results file"),
            (
                "step,hour,object,quantity,value," + "u" * 140_000 + "\n",
                f"row 1: field larger than field limit ({csv.field_size_limit()})",
            ),
            # The rows of a block are checked in order, a row the csv
            # module rejects among them.
            (
                "step,hour,object,quantity,value,unit\n0,0,a,p_out,x,W\n0,0," + "a" * 140_000 + ",p_out,1,W\n",
                "row 2: could not convert string to float: 'x'",
            ),
            (
                "step,hour,object,quantity,value,unit\n0,0,a,p_out,1,W\n0,0," + "a" * 140_000 + ",p_out,x,W\n",
                f"row 3: field larger than field limit ({csv.field_size_limit()})",
            ),
        ],
        ids=["empty", "comments-only", "long-header-cell", "bad-value-then-long-cell", "long-cell-then-bad-value"],
    )
    def test_rejected_file_is_named(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        for n in BLOCK_SIZES:
            with block_rows(n), pytest.raises(ValueError) as exc:
                read_results_csv(path)
            assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "body, expected",
        [
            # int() and float() read these forms, and numpy's C reader does not.
            ("1_0,0,a,p_out,1.5,W", ResultRecord(10, 0, "a", "p_out", 1.5, "W")),
            ("0,\u0661,a,p_out,1.5,W", ResultRecord(0, 1, "a", "p_out", 1.5, "W")),
            ("0,0,a,p_out,\uff11.5,W", ResultRecord(0, 0, "a", "p_out", 1.5, "W")),
            ("0,0,a,p_out,2_5.5,W", ResultRecord(0, 0, "a", "p_out", 25.5, "W")),
            # A quoted cell across a line break, with a '#' line inside it
            # dropped as a comment line.
            ('0,0,"a\n#x\nb",p_out,1,W', ResultRecord(0, 0, "a\nb", "p_out", 1.0, "W")),
            # numpy strips an ASCII information separator around a number;
            # int() and float() reject it.
            ("\x1c1,0,a,p_out,1,W", "invalid literal for int() with base 10: '\\x1c1'"),
            ("0,0,a,p_out,1\x1f,W", "could not convert string to float: '1\\x1f'"),
            # Both read these alike: a 1.0 step is not an int, and ' 1' is.
            ("1.0,0,a,p_out,1,W", "invalid literal for int() with base 10: '1.0'"),
            (" 1,0,a,p_out, 2 ,W", ResultRecord(1, 0, "a", "p_out", 2.0, "W")),
        ],
    )
    def test_python_reading_wins_where_numpy_differs(self, tmp_path, body, expected):
        path = tmp_path / "forms.csv"
        path.write_text("step,hour,object,quantity,value,unit\n" + body + "\n")
        for n in BLOCK_SIZES:
            with block_rows(n):
                if isinstance(expected, ResultRecord):
                    assert list(read_results_csv(path)) == [expected]
                else:
                    with pytest.raises(ValueError) as exc:
                        read_results_csv(path)
                    assert str(exc.value) == f"{path}: row 2: {expected}"

    def test_names_coded_before_the_fast_path_gives_up(self, tmp_path):
        # numpy's reader codes 'b', then row 3's 'a', before it rejects the
        # 1_000 that float() reads; the row-by-row reading of the block must
        # keep those codes and add 'c', 'v_mag' and 'V' after them.
        path = tmp_path / "results.csv"
        path.write_text(
            "# seed = 1\nstep,hour,object,quantity,value,unit\n"
            "0,0,b,p_out,1.5,W\n0,0,a,p_out,1_000,W\n# mid-block\n"
            "1,1,c,v_mag,2,V\n1,1,a,p_out,-0.0,W\n1,1,d,p_out,0.5,W\n"
        )
        expected = loop_read_results_csv(path)
        assert [r.object for r in expected] == ["b", "a", "c", "a", "d"]
        for n in BLOCK_SIZES:
            with block_rows(n):
                table = read_results_csv(path)
            assert repr(list(table)) == repr(expected)
            assert table.objects == ("b", "a", "c", "d")
            assert table.quantities == ("p_out", "v_mag")
            assert table.units == ("W", "V")

    @pytest.mark.parametrize("column", [0, 1])
    @pytest.mark.parametrize("cell", ["1.0", "2.5", "1e3"])
    def test_float_form_in_an_int_column_is_an_error_where_numpy_only_warns(
        self, tmp_path, loadtxt_reading_ints_via_float, column, cell
    ):
        row = ["0", "0", "a", "p_out", "1", "W"]
        row[column] = cell
        with pytest.warns(DeprecationWarning):  # such a numpy truncates the cell
            read = np.loadtxt([",".join(row)], dtype=[("c", int)], usecols=column, delimiter=",")
        assert read["c"] == int(float(cell))
        path = tmp_path / "forms.csv"
        path.write_text("step,hour,object,quantity,value,unit\n" + ",".join(row) + "\n")
        for n in BLOCK_SIZES:
            with block_rows(n), pytest.raises(ValueError) as exc:
                read_results_csv(path)
            assert str(exc.value) == f"{path}: row 2: invalid literal for int() with base 10: '{cell}'"


def read_outcome(read, path) -> str:
    """repr of the records that read gives for path, or the text of its ValueError."""
    try:
        return repr(list(read(path)))
    except UnicodeDecodeError as exc:  # the row-by-row reader does not name the file
        return f"{path}: not UTF-8 text ({exc.reason})"
    except ValueError as exc:
        return str(exc)


# Names with '%' check that no name is read as a format; values drawn from a
# small pool repeat within a block and mix signed zeros; hours drawn from
# 0..1 give runs of rows that share step and hour.
OBJECTS = ("pv", "b10", "b2", "Grid", "weather", "a_b", "ab", "%s", "pv%d")
QUANTITIES = ("v_mag", "p_out", "losses", "cloud_factor", "p_%")
UNITS = ("V", "W", "rad", "1", "%")
VALUE_POOL = (0.0, -0.0, 1.5, -1.5, 5e-324, 1e300)

records_st = st.lists(
    st.builds(
        ResultRecord,
        step=st.integers(0, 3),
        hour=st.integers(0, 1) | st.integers(0, 23),
        object=st.sampled_from(OBJECTS),
        quantity=st.sampled_from(QUANTITIES),
        value=st.sampled_from(VALUE_POOL) | st.floats(allow_nan=False, allow_infinity=False),
        unit=st.sampled_from(UNITS),
    ),
    max_size=12,
)


class TestColumnsMatchRecordOracles:
    """The column forms give what the record-by-record loops gave, bit for bit.

    Drawn tables come in any row order, repeat (step, object, quantity)
    keys, and code their names in an order that differs from string order.
    reprs are compared so that -0.0 and 0.0 count as different.
    """

    @staticmethod
    def summaries(summarize_fn, table):
        out = {}
        for quantity in QUANTITIES:
            try:
                out[quantity] = repr(summarize_fn(table, quantity))
            except ValueError as exc:
                out[quantity] = f"ValueError: {exc}"
        return out

    @settings(max_examples=60)
    @given(records=records_st)
    def test_render_and_summarize(self, records):
        comments = [("seed", "1")]
        expected_csv = loop_render_csv(records, comments)
        expected_bare_csv = loop_render_csv(records)
        expected_summaries = self.summaries(loop_summarize, records)
        for n in BLOCK_SIZES:
            with block_rows(n):
                table = ResultTable.from_records(records)
                assert render_csv(table, comments) == expected_csv
                assert repr(list(table)) == repr(records)
                assert render_csv(table) == expected_bare_csv
                assert self.summaries(summarize, table) == expected_summaries

    @settings(max_examples=40)
    @given(records=records_st)
    def test_read_back(self, records, tmp_path_factory):
        comments = [("seed", "1")]
        path = tmp_path_factory.mktemp("read") / "results.csv"
        expected_csv = loop_render_csv(records, comments)
        path.write_text(expected_csv)
        expected = loop_read_results_csv(path)
        expected_summaries = self.summaries(loop_summarize, expected)
        for n in BLOCK_SIZES:
            with block_rows(n):
                write_csv(ResultTable.from_records(records), path, comments)
                assert path.read_text() == expected_csv
                table = read_results_csv(path)
                assert repr(list(table)) == repr(expected)
                assert table.quantities == tuple(dict.fromkeys(r.quantity for r in expected))
                assert self.summaries(summarize, table) == expected_summaries

    @settings(max_examples=40)
    @given(records=records_st, data=st.data())
    def test_mutated_files_read_as_the_row_loop_reads_them(self, records, data, tmp_path_factory):
        # Quoted cells (across block boundaries too), CRLF, loose lines,
        # number forms, extra or missing cells and a non-UTF-8 byte: the
        # table, or the error text, is the row-by-row reader's.
        rows = [line.split(",") for line in loop_render_csv(records, [("seed", "1")]).splitlines()]
        path = tmp_path_factory.mktemp("mutated") / "results.csv"
        path.write_bytes(data.draw(mutated_csv(rows, 2, (0, 1, 4))))
        expected = read_outcome(loop_read_results_csv, path)
        for n in BLOCK_SIZES:
            with block_rows(n):
                assert read_outcome(read_results_csv, path) == expected

    def test_run_tables(self, case1, case2_table, tmp_path):
        # Long per-object groups, where an unstable grouping sort would
        # reorder values and move the mean's last bits.
        for table in (run_simulation(case1), case2_table):
            records = list(table)
            assert render_csv(table) == loop_render_csv(records)
            quantities = sorted({rec.quantity for rec in records})
            for quantity in quantities:
                assert repr(summarize(table, quantity)) == repr(loop_summarize(records, quantity))
            path = tmp_path / "results.csv"
            write_csv(table, path)
            assert list(read_results_csv(path)) == loop_read_results_csv(path)

    def test_equality_compares_rows_not_codes(self):
        a = ResultRecord(0, 0, "b", "p_out", 1.0, "W")
        b = ResultRecord(0, 0, "a", "v_mag", 2.0, "V")
        table = ResultTable.from_records([a, b])
        recoded = replace(table, object_code=1 - table.object_code, objects=table.objects[::-1])
        assert recoded == table
        assert table != ResultTable.from_records([b, a])
        assert table != ResultTable.from_records([a])


class TestSummarize:
    def test_constant_series(self):
        table = ResultTable.from_records(
            ResultRecord(i, i % 24, "x", "p_out", 7.5, "W") for i in range(10)
        )
        (row,) = summarize(table, "p_out")
        assert (row.minimum, row.q1, row.median, row.q3, row.maximum, row.mean) == (
            7.5, 7.5, 7.5, 7.5, 7.5, 7.5,
        )

    def test_interpolated_quartiles(self):
        table = ResultTable.from_records(
            ResultRecord(i, 0, "x", "v_mag", float(v), "V") for i, v in enumerate([1, 2, 3, 4])
        )
        (row,) = summarize(table, "v_mag")
        assert row.q1 == pytest.approx(1.75)
        assert row.median == pytest.approx(2.5)
        assert row.q3 == pytest.approx(3.25)
        assert row.minimum == 1.0
        assert row.maximum == 4.0
        assert row.mean == pytest.approx(2.5)

    def test_case2_v_mag_row_per_bus(self, case2, case2_table):
        rows = summarize(case2_table, "v_mag")
        assert len(rows) == len(case2.network.buses)
        assert [r.object for r in rows] == sorted(r.object for r in rows)
        for row in rows:
            assert row.minimum <= row.q1 <= row.median <= row.q3 <= row.maximum

    def test_unknown_quantity_lists_available(self, case2_table):
        with pytest.raises(ValueError, match="v_mag"):
            summarize(case2_table, "power_factor")

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1e308, 1e308], "x p_out: mean is inf, not a finite number"),
            ([-1e308, 1e308, 1e308, 1e308], "x p_out: q1 is -inf, not a finite number"),
        ],
    )
    def test_overflowing_statistic_is_named(self, values, message):
        # Every value is finite; the sum behind the mean, or the difference
        # behind an interpolated quartile, overflows.
        records = [ResultRecord(i, 0, "x", "p_out", v, "W") for i, v in enumerate(values)]
        with pytest.raises(ValueError) as oracle:
            loop_summarize(records, "p_out")
        assert str(oracle.value) == message
        with pytest.raises(ValueError) as exc:
            summarize(ResultTable.from_records(records), "p_out")
        assert str(exc.value) == message

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_feeder_shaped_table_matches_the_object_loop(self, seed):
        # 160 buses in three series lengths, rows shuffled so that codes and
        # names are in different orders; values mix signed zeros, +-1e308
        # (at most one of each an object, so nothing overflows) and normal
        # numbers of any magnitude.
        rng = random.Random(seed)
        lengths = {f"b{i}": rng.choice((24, 24, 24, 23, 7)) for i in range(160)}
        pool = (0.0, -0.0, 0.0, -0.0, 1.5, -2.5, 5e-324)
        records = []
        for obj, length in lengths.items():
            values = [
                rng.choice(pool) if rng.random() < 0.5 else rng.gauss(0.0, 10.0 ** rng.randint(-300, 300))
                for _ in range(length)
            ]
            if rng.random() < 0.3:
                values[rng.randrange(length)] = 1e308
                values[rng.randrange(length)] = -1e308
            records += [ResultRecord(i, i % 24, obj, "v_mag", v, "V") for i, v in enumerate(values)]
            records.append(ResultRecord(0, 0, obj, "v_angle", 0.0, "rad"))
        rng.shuffle(records)
        table = ResultTable.from_records(records)
        assert len(set(lengths.values())) == 3
        rows = summarize(table, "v_mag")
        assert len(rows) == 160
        assert repr(rows) == repr(loop_summarize(records, "v_mag"))

    def test_first_overflowing_object_by_name_is_named(self):
        # 'b' comes first in the table and in its own series length; 'a'
        # overflows in q1 and in its mean, and q1 is named.
        values = {"b": [1e308, 1e308], "c": [1.0, 2.0, 3.0], "a": [-1e308, 1e308, 1e308, 1e308]}
        records = [
            ResultRecord(step, 0, obj, "p_out", v, "W")
            for obj, series in values.items()
            for step, v in enumerate(series)
        ]
        message = "a p_out: q1 is -inf, not a finite number"
        with pytest.raises(ValueError) as oracle:
            loop_summarize(records, "p_out")
        assert str(oracle.value) == message
        with pytest.raises(ValueError) as exc:
            summarize(ResultTable.from_records(records), "p_out")
        assert str(exc.value) == message

    def test_case2_pv_under_acpf_matches_the_object_loop(self):
        scenario = parse_scenario(bundled_scenario_text("case2_pv"))
        assert scenario.config.solver == "acpf"
        table = run_simulation(scenario)
        records = list(table)
        for quantity in table.quantities:
            assert repr(summarize(table, quantity)) == repr(loop_summarize(records, quantity))
