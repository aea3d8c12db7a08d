"""Weather synthesis: SplitMix64 determinism, Weibull sampling, cloud walk, CSV."""

import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microgridsim import (
    WeatherParams,
    WeatherSeries,
    WeatherTraceError,
    load_weather_csv,
    sample_wind,
    step_cloud,
    uniform_stream,
    weather_series,
    write_weather_csv,
)
from conftest import (
    changed_weather,
    loop_load_weather_csv,
    loop_weather_series,
    loop_write_weather_csv,
    mutated_csv,
    splitmix64_uniforms,
)
from microgridsim.weather import TRACE_COLUMNS

# (hour, cloud_factor, wind_speed, temperature) of trace steps in range.
sample_fields = st.tuples(
    st.integers(0, 23),
    st.floats(0.0, 1.0),
    st.floats(min_value=0.0, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False),
)
traces = st.lists(sample_fields, min_size=1, max_size=20).map(
    lambda rows: WeatherSeries(*zip(*rows))
)
# Weather parameters inside the scenario bounds, of every magnitude a
# scenario is likely to give.
weather_params = st.builds(
    WeatherParams,
    weibull_shape=st.floats(0.05, 50.0),
    weibull_scale=st.floats(1e-3, 1e3),
    cloud_step=st.floats(0.0, 2.0),
    cloud_initial=st.floats(0.0, 1.0),
    temp_mean=st.floats(-1e3, 1e3),
    temp_amplitude=st.floats(-1e3, 1e3),
    seed=st.integers(0, 2**64 - 1),
)


def assert_same_bits(a: WeatherSeries, b: WeatherSeries) -> None:
    for name in ("hour", "cloud_factor", "wind_speed", "temperature"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def trace_outcome(load, path) -> tuple:
    """The bytes of the columns that load reads from path, or its error's text and row."""
    try:
        series = load(path)
    except WeatherTraceError as exc:
        return str(exc), exc.row
    columns = ("hour", "cloud_factor", "wind_speed", "temperature")
    return tuple(getattr(series, name).tobytes() for name in columns)


# A data row that load_weather_csv must reject, as a function of its step
# and hour, and the words its error must contain.
MALFORMED_ROWS = [
    (lambda s, h: f"{s},{h},0.5,breeze,12", "non-numeric cell"),
    (lambda s, h: f"{s},{h},0.5,4", "expected 5 cells, got 4"),
    (lambda s, h: f"{s},24,0.5,4,12", "hour must be in 0..23"),
    (lambda s, h: f"{s},{h},1.5,4,12", "cloud_factor outside [0, 1]"),
    (lambda s, h: f"{s},{h},0.5,-1,12", "negative wind speed"),
    (lambda s, h: f"{s},{h},0.5,nan,12", "wind_speed_mps must be finite"),
    (lambda s, h: f"{s},{h},0.5,4,-inf", "temperature_c must be finite"),
    (lambda s, h: f"{s + 1},{h},0.5,4,12", "step must be"),
]

# Published SplitMix64 outputs for seed 0 (top bits feed the uniform).
SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


class TestRng:
    def test_seed0_reference_vector(self):
        expected = [(x >> 11) * 2.0**-53 for x in SPLITMIX64_SEED0]
        assert uniform_stream(0, 3).tolist() == expected

    def test_same_seed_same_sequence(self):
        assert uniform_stream(1234, 96).tolist() == uniform_stream(1234, 96).tolist()

    def test_uniforms_in_unit_interval(self):
        u = uniform_stream(7, 10_000)
        assert np.all((0.0 <= u) & (u < 1.0))

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
    def test_uniform_stream_matches_scalar(self, seed):
        assert uniform_stream(seed, 257).tolist() == splitmix64_uniforms(seed, 257)


class TestSampleWind:
    def test_inverse_cdf_at_scale(self):
        # u = 1 - e^-1 puts the Weibull exponent at exactly 1, so v = scale.
        u = 1.0 - math.exp(-1.0)
        assert sample_wind(u, 2.0, 6.0) == pytest.approx(6.0, rel=1e-12)
        assert sample_wind(u, 0.7, 3.3) == pytest.approx(3.3, rel=1e-12)

    def test_limits(self):
        assert sample_wind(0.0, 2.0, 6.0) == 0.0
        assert sample_wind(1e-12, 2.0, 6.0) < 1e-5
        with pytest.raises(ValueError):
            sample_wind(1.0, 2.0, 6.0)
        with pytest.raises(ValueError):
            sample_wind(-0.1, 2.0, 6.0)
        with pytest.raises(ValueError):
            sample_wind(0.5, 0.0, 6.0)
        with pytest.raises(ValueError):
            sample_wind(0.5, 2.0, -1.0)
        with pytest.raises(ValueError, match="^weibull_shape must be > 0, got nan$"):
            sample_wind(0.5, math.nan, 6.0)
        with pytest.raises(ValueError, match="^weibull_scale must be > 0, got nan$"):
            sample_wind(0.5, 2.0, math.nan)

    def test_monotonic_in_u(self):
        us = np.linspace(0.0, 0.999999, 500)
        vs = [sample_wind(u, 2.0, 6.0) for u in us]
        assert all(b > a for a, b in zip(vs, vs[1:]))

    def test_mean_against_gamma_oracle(self):
        # E[v] = scale * Gamma(1 + 1/k); 1e5 draws keep this unit test quick.
        u = uniform_stream(99, 100_000)
        mean = float(np.mean(sample_wind(u, 2.0, 6.0)))
        assert mean == pytest.approx(6.0 * math.gamma(1.5), rel=0.02)

    def test_calm_draw_of_an_array_is_plus_zero(self):
        wind = sample_wind(np.array([0.0, 0.5, 0.0]), 2.0, 6.0)
        assert wind.tolist() == [0.0, sample_wind(0.5, 2.0, 6.0), 0.0]
        assert math.copysign(1.0, wind[0]) == 1.0
        assert math.copysign(1.0, sample_wind(0.0, 0.7, 3.3)) == 1.0

    def test_array_keeps_its_shape_and_rejects_its_first_bad_draw(self):
        u = uniform_stream(4, 6).reshape(2, 3)
        assert sample_wind(u, 2.0, 6.0).shape == (2, 3)
        assert isinstance(sample_wind(0.25, 2.0, 6.0), float)
        with pytest.raises(ValueError, match=r"^uniform draw must lie in \[0, 1\), got 1\.5$"):
            sample_wind(np.array([0.1, 1.5, -0.5]), 2.0, 6.0)
        with pytest.raises(ValueError, match=r"got nan$"):
            sample_wind(np.array([0.1, math.nan]), 2.0, 6.0)

    @pytest.mark.parametrize(
        "shape, scale, field", [(math.inf, 6.0, "weibull_shape"), (2.0, math.inf, "weibull_scale")]
    )
    def test_infinite_parameter_rejected(self, shape, scale, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
            sample_wind(0.5, shape, scale)

    @settings(max_examples=50)
    @given(
        u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=50),
        shape=st.floats(0.05, 50.0),
        scale=st.floats(1e-3, 1e3),
    )
    def test_array_has_the_bits_of_the_python_formula(self, u, shape, scale):
        # math.log1p and ** per draw, as the per-step loop computed them.
        expected = [scale * (-math.log1p(-x)) ** (1.0 / shape) for x in u]
        assert sample_wind(np.array(u), shape, scale).tobytes() == np.array(expected).tobytes()


class TestStepCloud:
    def test_zero_increment(self):
        assert step_cloud(0.5, 0.5, 0.15) == 0.5

    def test_clamped_at_floor(self):
        assert step_cloud(0.0, 0.0, 0.15) == 0.0

    def test_clamped_at_ceiling(self):
        assert step_cloud(0.9, 1.0 - 1e-12, 0.15) == 1.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            step_cloud(0.5, 0.5, -0.1)
        with pytest.raises(ValueError, match="^cloud_step must be >= 0, got nan$"):
            step_cloud(0.5, 0.5, math.nan)
        with pytest.raises(ValueError, match="^cloud_step must be finite, got inf$"):
            step_cloud(0.5, 0.5, math.inf)


class TestWeatherSeries:
    def test_deterministic_48_samples(self):
        params = WeatherParams(seed=3)
        a = weather_series(params, 48)
        b = weather_series(params, 48)
        assert len(a) == 48
        assert a == b
        assert a.hour.tolist() == [i % 24 for i in range(48)]

    def test_two_uniforms_per_step_wind_first(self):
        params = WeatherParams(seed=11)
        series = weather_series(params, 10)
        u = uniform_stream(11, 20)
        cloud = params.cloud_initial
        for i in range(len(series)):
            assert series.wind_speed[i] == sample_wind(
                u[2 * i], params.weibull_shape, params.weibull_scale
            )
            cloud = step_cloud(cloud, u[2 * i + 1], params.cloud_step)
            assert series.cloud_factor[i] == cloud

    def test_constant_temperature_when_amplitude_zero(self):
        series = weather_series(WeatherParams(temp_amplitude=0.0, temp_mean=9.5), 30)
        assert set(series.temperature.tolist()) == {9.5}

    def test_temperature_profile_peaks_mid_afternoon(self):
        series = weather_series(WeatherParams(seed=5), 24)
        by_hour = dict(zip(series.hour.tolist(), series.temperature.tolist()))
        assert by_hour[15] == max(by_hour.values())
        assert by_hour[15] == pytest.approx(20.0)
        assert by_hour[3] == pytest.approx(10.0)

    def test_constant_cloud_when_sigma_zero(self):
        for initial in (0.42, 0.0, 1.0):  # the bounds of cloud_initial are kept
            series = weather_series(WeatherParams(cloud_step=0.0, cloud_initial=initial), 50)
            assert set(series.cloud_factor.tolist()) == {initial}

    def test_bounds_hold_over_long_sweep(self):
        series = weather_series(WeatherParams(seed=8, cloud_step=0.3), 100_000)
        assert ((0.0 <= series.cloud_factor) & (series.cloud_factor <= 1.0)).all()
        assert (series.wind_speed >= 0.0).all()

    def test_columns_are_read_only_and_sliced_by_step(self):
        series = weather_series(WeatherParams(seed=2), 30, start_hour=20)
        for name in ("hour", "cloud_factor", "wind_speed", "temperature"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(series, name)[0] = 1
        part = series[22:25]
        assert len(part) == 3
        assert part.hour.tolist() == [18, 19, 20]
        assert part.wind_speed.tolist() == series.wind_speed[22:25].tolist()
        assert part != series and series[:] == series

    @pytest.mark.parametrize("hour", [[24], [-1], [1.0], [True]])
    def test_hour_must_be_ints_in_range(self, hour):
        with pytest.raises(ValueError, match=r"^hour must hold ints in 0\.\.23$"):
            WeatherSeries(hour, [0.5], [4.0], [12.0])

    @pytest.mark.parametrize(
        "columns",
        [
            ([0, 1], [0.5], [4.0, 4.0], [12.0, 12.0]),
            (0, 0.5, 4.0, 12.0),
            ([[0]], [[0.5]], [[4.0]], [[12.0]]),
        ],
    )
    def test_columns_must_be_1d_and_of_one_length(self, columns):
        with pytest.raises(ValueError, match="^weather columns must be 1-D and of one length$"):
            WeatherSeries(*columns)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            weather_series(WeatherParams(), 0)
        with pytest.raises(ValueError):
            weather_series(WeatherParams(), 10, start_hour=24)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cloud_step", math.nan),
            ("cloud_initial", math.nan),
            ("cloud_initial", 1.7),
            ("cloud_initial", -0.2),
            ("weibull_shape", math.nan),
        ],
    )
    def test_bad_parameter_raises_naming_field(self, field, value):
        # Rejected, never clamped: clamping turns a bad parameter into
        # plausible weather (a NaN cloud_step would give cloud 0 throughout).
        with pytest.raises(ValueError, match=f"^{field} must be"):
            weather_series(WeatherParams(**{field: value}), 10)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("weibull_shape", math.inf),
            ("weibull_scale", math.inf),
            ("cloud_step", math.inf),
            ("temp_mean", math.nan),
            ("temp_mean", math.inf),
            ("temp_amplitude", -math.inf),
            ("temp_amplitude", math.nan),
        ],
    )
    def test_non_finite_parameter_raises_naming_field(self, field, value):
        # Within its other bounds, a non-finite parameter would give
        # infinite wind or temperatures, or a cloud stuck at 0 or 1.
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
            weather_series(WeatherParams(**{field: value}), 3)

    @settings(max_examples=40)
    @given(params=weather_params, n_steps=st.integers(1, 300), start_hour=st.integers(0, 23))
    def test_columns_have_the_bits_of_the_per_step_loop(self, params, n_steps, start_hour):
        expected = loop_weather_series(params, n_steps, start_hour)
        assert_same_bits(weather_series(params, n_steps, start_hour), expected)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_stream_ends_match_the_per_step_loop(self, seed):
        params = WeatherParams(weibull_shape=1.7, cloud_step=0.3, seed=seed)
        assert_same_bits(weather_series(params, 8760, 9), loop_weather_series(params, 8760, 9))

    @pytest.mark.parametrize(
        "changes, message",
        [
            (
                {"weibull_shape": 1e-320},
                "weibull_shape = 1e-320 with weibull_scale = 6.0 gives an infinite wind speed",
            ),
            (
                {"weibull_shape": 0.5, "weibull_scale": 1e308},
                "weibull_shape = 0.5 with weibull_scale = 1e+308 gives an infinite wind speed",
            ),
            (
                {"temp_mean": 1e308, "temp_amplitude": 1e308},
                "temp_mean = 1e+308 with temp_amplitude = 1e+308 gives an infinite temperature",
            ),
            (
                {"temp_mean": -1e308, "temp_amplitude": 1e308},
                "temp_mean = -1e+308 with temp_amplitude = 1e+308 gives an infinite temperature",
            ),
        ],
    )
    def test_finite_parameters_that_overflow_raise_naming_them(self, changes, message):
        # Each parameter is finite, but 1 / shape, scale * x ** (1 / shape)
        # or mean + amplitude * cos overflows at some step of the day.
        params = WeatherParams(**changes)
        with pytest.raises(ValueError) as exc:
            weather_series(params, 24)
        assert str(exc.value) == message
        # The step-by-step loop makes the infinite values that are rejected.
        expected = loop_weather_series(params, 24)
        assert not all(np.isfinite(c).all() for c in (expected.wind_speed, expected.temperature))

    @pytest.mark.parametrize("seed", [-1, -5, 2**64])
    def test_seed_outside_the_stream_range_is_rejected(self, seed):
        # Taken mod 2**64, seed -5 would silently give the trace of 2**64 - 5.
        with pytest.raises(ValueError, match=rf"^seed must be in \[0, 2\*\*64\), got {seed}$"):
            WeatherParams(seed=seed)


class TestTraceCsv:
    def test_round_trip_to_nine_digits(self, tmp_path):
        series = weather_series(WeatherParams(seed=21), 48, start_hour=6)
        path = tmp_path / "trace.csv"
        write_weather_csv(series, path)
        loaded = load_weather_csv(path)
        assert len(loaded) == 48
        assert loaded.hour.tolist() == series.hour.tolist()
        for field in ("cloud_factor", "wind_speed", "temperature"):
            for a, b in zip(getattr(series, field), getattr(loaded, field)):
                assert format(a, ".9g") == format(b, ".9g")

    @settings(max_examples=50)
    @given(samples=traces)
    def test_round_trip_property(self, samples, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        write_weather_csv(samples, path)
        nine_digits = WeatherSeries(
            samples.hour,
            *(
                [float(format(v, ".9g")) for v in getattr(samples, field).tolist()]
                for field in ("cloud_factor", "wind_speed", "temperature")
            ),
        )
        assert load_weather_csv(path) == nine_digits

    @settings(max_examples=50)
    @given(samples=traces, data=st.data())
    def test_malformed_row_property(self, samples, data, tmp_path_factory):
        row = data.draw(st.integers(0, len(samples) - 1))
        make_row, words = data.draw(st.sampled_from(MALFORMED_ROWS))
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        write_weather_csv(samples, path)
        lines = path.read_text().splitlines()
        lines[row + 1] = make_row(row, samples.hour[row])
        path.write_text("\n".join(lines) + "\n")
        anchor = f"^{re.escape(str(path))}: row {row + 1}: "
        with pytest.raises(WeatherTraceError, match=anchor) as exc:
            load_weather_csv(path)
        assert exc.value.row == row + 1
        assert words in str(exc.value)

    @pytest.mark.parametrize(
        "step, change, message",
        [
            (1, {"wind_speed": math.inf}, "step 1: wind_speed is inf, not a finite number"),
            (0, {"temperature": -math.inf}, "step 0: temperature is -inf, not a finite number"),
            (2, {"cloud_factor": math.nan}, "step 2: cloud_factor is nan, not a finite number"),
            (2, {"cloud_factor": 1.5}, "step 2: cloud_factor is 1.5, not in [0, 1]"),
            (1, {"wind_speed": -1.0}, "step 1: wind_speed is -1.0, not >= 0"),
        ],
    )
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, step, change, message):
        # Written, each of these would be a trace that load_weather_csv rejects.
        series = changed_weather(weather_series(WeatherParams(), 3), step, **change)
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError) as exc:
            write_weather_csv(series, path)
        assert str(exc.value) == message
        assert not path.exists()

    def test_writer_has_the_bytes_of_the_per_row_format(self, tmp_path):
        series = weather_series(WeatherParams(seed=5), 8760, start_hour=7)
        for step, change in enumerate(
            [{"cloud_factor": -0.0}, {"wind_speed": 5e-324}, {"temperature": -1e308},
             {"wind_speed": 1.7976931348623157e308, "temperature": -0.0}]
        ):
            series = changed_weather(series, step, **change)
        write_weather_csv(series, tmp_path / "trace.csv")
        loop_write_weather_csv(series, tmp_path / "expected.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize(
        "cells, expected",
        [
            # float() reads these forms, and numpy's C reader does not.
            ("0,0,0.5,1_0,12", 10.0),
            ("0,0,0.5,\uff14,12", 4.0),
            # numpy strips an ASCII information separator around a number;
            # float() rejects it.
            ("0,0,0.5,4\x1d,12", "row 1: non-numeric cell"),
            # A quoted cell around a line break is read by the csv module.
            ('0,0,0.5,"4\n",12', 4.0),
            ("0,1.0,0.5,4,12", "row 1: non-numeric cell"),
        ],
    )
    def test_python_reading_wins_where_numpy_differs(self, tmp_path, cells, expected):
        path = tmp_path / "trace.csv"
        path.write_text("step,hour,cloud_factor,wind_speed_mps,temperature_c\n" + cells + "\n")
        if isinstance(expected, float):
            assert load_weather_csv(path) == WeatherSeries([0], [0.5], [expected], [12.0])
        else:
            with pytest.raises(WeatherTraceError) as exc:
                load_weather_csv(path)
            assert str(exc.value) == f"{path}: {expected}"

    @pytest.mark.parametrize("cells", ["1.0,0,0.5,4,12", "0,2.5,0.5,4,12", "0,1e1,0.5,4,12"])
    def test_float_form_in_an_int_column_is_an_error_where_numpy_only_warns(
        self, tmp_path, loadtxt_reading_ints_via_float, cells
    ):
        path = tmp_path / "trace.csv"
        path.write_text("step,hour,cloud_factor,wind_speed_mps,temperature_c\n" + cells + "\n")
        with pytest.raises(WeatherTraceError) as exc:
            load_weather_csv(path)
        assert str(exc.value) == f"{path}: row 1: non-numeric cell"

    @settings(max_examples=40)
    @given(samples=traces, data=st.data())
    def test_mutated_traces_read_as_the_row_loop_reads_them(self, samples, data, tmp_path_factory):
        # Mutated as results files are, after the header alone, or every
        # row, has its columns reordered: the series, or the error text and
        # row, are those of the row-by-row reader.
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        write_weather_csv(samples, path)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        order = data.draw(st.permutations(range(len(TRACE_COLUMNS))))
        for row in rows[: None if data.draw(st.booleans()) else 1]:
            row[:] = [row[i] for i in order]
        path.write_bytes(data.draw(mutated_csv(rows, 1, tuple(range(len(TRACE_COLUMNS))))))
        assert trace_outcome(load_weather_csv, path) == trace_outcome(loop_load_weather_csv, path)

    def test_blank_lines_read_as_the_row_loop_reads_them(self, tmp_path):
        # numpy's reader skips a blank line, so a trace that holds one gives
        # fewer rows than lines and is read row by row.  A trace is one
        # block of lines, whatever the results reader's block size.
        path = tmp_path / "trace.csv"
        write_weather_csv(weather_series(WeatherParams(seed=4), 12), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:6]) + "\n" + "".join(lines[6:]) + "\n")
        assert len(load_weather_csv(path)) == 12
        assert trace_outcome(load_weather_csv, path) == trace_outcome(loop_load_weather_csv, path)

    def test_lf_endings_and_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_weather_csv(weather_series(WeatherParams(), 2), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"step,hour,cloud_factor,wind_speed_mps,temperature_c\n")

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "trace.csv"
        body = (
            "step,hour,cloud_factor,wind_speed_mps,temperature_c\r\n"
            "0,0,0.5,4.0,12.0\r\n"
        )
        path.write_bytes(body.encode())
        loaded = load_weather_csv(path)
        assert loaded == WeatherSeries([0], [0.5], [4.0], [12.0])

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_weather_csv(weather_series(WeatherParams(), 2), path)
        path.write_bytes(path.read_bytes().replace(b"step", b"st\xffp", 1))
        with pytest.raises(WeatherTraceError) as exc:
            load_weather_csv(path)
        assert str(exc.value) == f"{path}: not UTF-8 text (invalid start byte)"
        assert exc.value.row is None

    @pytest.mark.parametrize("step", [b"1", b"9"])
    def test_non_utf8_byte_late_in_a_long_trace(self, tmp_path, step):
        # The text is decoded a chunk at a time, so a row that breaks a rule
        # well before the byte that does not decode is named, as the row
        # loop names it; otherwise the file is not UTF-8.
        path = tmp_path / "trace.csv"
        write_weather_csv(weather_series(WeatherParams(), 2000), path)
        path.write_bytes(path.read_bytes().replace(b"\n1,", b"\n" + step + b",", 1) + b"\xff\n")
        outcome = trace_outcome(load_weather_csv, path)
        assert outcome == trace_outcome(loop_load_weather_csv, path)
        if step == b"9":
            assert outcome == (f"{path}: row 2: step must be 1, got 9", 2)
        else:
            assert outcome == (f"{path}: not UTF-8 text (invalid start byte)", None)

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("step,hour,cloud_factor,wind_speed_mps,temperature_c\n")
        with pytest.raises(WeatherTraceError, match="no samples"):
            load_weather_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("step,hour,cloud_factor,wind_speed_mps\n0,0,0.5,4\n")
        with pytest.raises(WeatherTraceError, match="missing column.*temperature_c"):
            load_weather_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file, expected header"),
            (",".join(TRACE_COLUMNS) + ",pressure\n0,0,0.5,4,12,1013\n", "unknown column(s): pressure"),
            # With 5-cell rows the repeated hour once read as a 1-step trace.
            (",".join(TRACE_COLUMNS) + ",hour\n0,0,0.5,4,12\n", "duplicate column(s): hour"),
            (",".join(TRACE_COLUMNS) + ",hour\n0,0,0.5,4,12,0\n", "duplicate column(s): hour"),
            (
                "hour,step,hour,step,cloud_factor,wind_speed_mps,temperature_c\n",
                "duplicate column(s): step, hour",
            ),
            (
                "step,hour,cloud_factor,wind_speed_mps," + "t" * 140_000 + "\n",
                f"header: field larger than field limit ({csv.field_size_limit()})",
            ),
        ],
        ids=["empty", "unknown", "duplicate-5-cells", "duplicate-6-cells", "duplicates", "long-cell"],
    )
    def test_bad_header_is_named(self, tmp_path, text, message):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(WeatherTraceError) as exc:
            load_weather_csv(path)
        assert (str(exc.value), exc.value.row) == (f"{path}: {message}", None)

    def test_cloud_out_of_range_cites_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "step,hour,cloud_factor,wind_speed_mps,temperature_c\n"
            "0,0,0.5,4.0,12.0\n"
            "1,1,0.6,4.0,12.0\n"
            "2,2,1.5,4.0,12.0\n"
        )
        with pytest.raises(WeatherTraceError, match="row 3") as exc:
            load_weather_csv(path)
        assert exc.value.row == 3

    def test_non_numeric_cell_cites_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "step,hour,cloud_factor,wind_speed_mps,temperature_c\n"
            "0,0,0.5,breeze,12.0\n"
        )
        with pytest.raises(WeatherTraceError, match="row 1"):
            load_weather_csv(path)

    @pytest.mark.parametrize(
        "steps, row, expected",
        [
            ((0, 1, 1, 2), 3, 2),  # duplicate
            ((0, 1, 3), 3, 2),  # missing
            ((0, 2, 1), 2, 1),  # out of order
            ((1, 2), 1, 0),  # not starting at 0
            ((-1,), 1, 0),
        ],
    )
    def test_step_sequence_cites_row(self, tmp_path, steps, row, expected):
        path = tmp_path / "trace.csv"
        path.write_text(
            "step,hour,cloud_factor,wind_speed_mps,temperature_c\n"
            + "".join(f"{s},{s % 24},0.5,4.0,12.0\n" for s in steps)
        )
        with pytest.raises(
            WeatherTraceError, match=f"row {row}: step must be {expected}, got"
        ) as exc:
            load_weather_csv(path)
        assert exc.value.row == row

    def test_negative_wind_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "step,hour,cloud_factor,wind_speed_mps,temperature_c\n"
            "0,0,0.5,-1.0,12.0\n"
        )
        with pytest.raises(WeatherTraceError, match="row 1"):
            load_weather_csv(path)

    @pytest.mark.parametrize(
        "cells, column",
        [
            ("0,0,0.5,nan,12.0", "wind_speed_mps"),
            ("0,0,0.5,inf,12.0", "wind_speed_mps"),
            ("0,0,0.5,4.0,nan", "temperature_c"),
            ("0,0,0.5,4.0,-inf", "temperature_c"),
        ],
    )
    def test_non_finite_value_cites_row(self, tmp_path, cells, column):
        path = tmp_path / "trace.csv"
        path.write_text(
            "step,hour,cloud_factor,wind_speed_mps,temperature_c\n"
            "0,0,0.5,4.0,12.0\n"
            f"{cells}\n"
        )
        with pytest.raises(WeatherTraceError, match=f"row 2: {column} must be finite") as exc:
            load_weather_csv(path)
        assert exc.value.row == 2
