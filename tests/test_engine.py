"""Simulation loop, results CSV, and summaries."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microgridsim import (
    NonConvergenceError,
    PerUnitBase,
    ResultRecord,
    ResultTable,
    bundled_scenario_text,
    compute_injections,
    parse_scenario,
    read_results_csv,
    render_csv,
    run_simulation,
    summarize,
    weather_series,
    write_csv,
    write_weather_csv,
)
from microgridsim import engine
from conftest import (
    loop_read_results_csv,
    loop_render_csv,
    loop_summarize,
    overheated_case1_text,
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
        for s in samples:
            assert clouds[s.step] == s.cloud_factor
            assert winds[s.step] == s.wind_speed

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
        assert clouds[0] == samples[0].cloud_factor

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
        samples = weather_series(case1.weather, 48)
        samples[7] = replace(samples[7], hour_of_day=3)
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
                abs(problem.p_injection[k] - p[i]), abs(problem.q_injection[k] - q[i])
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
                "a1",
                "power flow did not converge at step 0 (max mismatch inf pu after 2 "
                "iterations; worst at bus 'a1'; |V| from -1.51264e+299 to 1.59621e+300 pu)",
            ),
            (
                "gs",
                "ha1",
                "power flow did not converge at step 0 (max mismatch inf pu after 1 "
                "iterations; worst at bus 'ha1'; |V| from 0.99987 to 2.17265e+300 pu)",
            ),
        ],
    )
    def test_overflowed_state_names_the_first_worst_bus(self, solver, worst_bus, message):
        # One 1e308 var load: the last iterate's mismatch is inf at several
        # PQ buses, and the first of them, in bus order, is named.
        text = bundled_scenario_text("case2")
        scenario = parse_scenario(text.replace("q_var = 0\n", "q_var = 1e308\n", 1))
        scenario = replace(scenario, config=replace(scenario.config, solver=solver))
        with pytest.raises(NonConvergenceError) as exc:
            run_simulation(scenario)
        assert exc.value.worst_bus == worst_bus
        assert str(exc.value) == message

    def test_non_finite_result_names_step_object_and_quantity(self):
        scenario = parse_scenario(overheated_case1_text())
        scenario = replace(scenario, config=replace(scenario.config, steps=24))
        with pytest.raises(
            ValueError, match=r"^step 13: weather temperature is inf, not a finite number$"
        ):
            run_simulation(scenario)

    def test_non_finite_result_reported_for_the_whole_run(self):
        # The check runs step by step, so the first bad step is named even
        # when later steps are bad too.
        scenario = parse_scenario(overheated_case1_text())
        with pytest.raises(
            ValueError, match=r"^step 13: weather temperature is inf, not a finite number$"
        ):
            run_simulation(scenario)

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

    def test_non_finite_value_before_a_non_converging_step(self, bright_case2_pv):
        scenario, samples = bright_case2_pv
        samples = list(samples)
        samples[3] = replace(samples[3], temperature=float("nan"))
        with pytest.raises(
            ValueError, match=r"^step 3: weather temperature is nan, not a finite number$"
        ):
            run_simulation(scenario, weather=samples)

    @pytest.mark.parametrize("field", ["cloud_factor", "wind_speed"])
    def test_non_finite_weather_at_the_non_converging_step(self, bright_case2_pv, field):
        # The weather values of a step come before its solve, so they are
        # the error even when that solve fails or the generators reject them.
        scenario, samples = bright_case2_pv
        samples = list(samples)
        samples[7] = replace(samples[7], **{field: -float("inf")})
        with pytest.raises(
            ValueError, match=rf"^step 7: weather {field} is -inf, not a finite number$"
        ):
            run_simulation(scenario, weather=samples)

    @pytest.mark.parametrize("field", ["cloud_step", "cloud_initial"])
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


OBJECTS = ("pv", "b10", "b2", "Grid", "weather", "a_b", "ab")
QUANTITIES = ("v_mag", "p_out", "losses", "cloud_factor")
UNITS = ("V", "W", "rad", "1")

records_st = st.lists(
    st.builds(
        ResultRecord,
        step=st.integers(0, 3),
        hour=st.integers(0, 23),
        object=st.sampled_from(OBJECTS),
        quantity=st.sampled_from(QUANTITIES),
        value=st.floats(allow_nan=False, allow_infinity=False),
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
