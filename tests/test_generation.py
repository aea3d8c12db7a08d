"""PV and wind power curves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microgridsim import (
    SolarPanel,
    WindTurbine,
    clear_sky_factor,
    pv_power,
    wind_power,
)
from conftest import loop_pv_power, loop_wind_power

PANEL = SolarPanel("pv", "b1", 500.0)
TURBINE = WindTurbine("wt", "b1", 1500.0)  # cut-in 3, rated 12, cut-out 25


class TestClearSky:
    def test_noon_peak(self):
        assert clear_sky_factor(12) == 1.0

    def test_night_exactly_zero(self):
        for hour in (0, 3, 6, 18, 21, 23):
            assert clear_sky_factor(hour) == 0.0

    def test_mid_morning(self):
        assert clear_sky_factor(9) == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
        assert clear_sky_factor(9) == pytest.approx(0.70711, abs=5e-6)

    def test_fractional_hours(self):
        assert clear_sky_factor(6.5) > 0.0
        assert clear_sky_factor(17.9) > 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            clear_sky_factor(24.0)
        with pytest.raises(ValueError):
            clear_sky_factor(-1.0)


class TestPvPower:
    def test_clear_noon_is_peak(self):
        assert pv_power(PANEL, 12, 0.0) == 500.0

    def test_night_is_zero_any_cloud(self):
        for cloud in (0.0, 0.5, 1.0):
            assert pv_power(PANEL, 0, cloud) == 0.0
            assert pv_power(PANEL, 18, cloud) == 0.0

    def test_full_overcast_noon(self):
        assert pv_power(PANEL, 12, 1.0) == pytest.approx(125.0)

    def test_non_increasing_in_cloud(self):
        for hour in range(7, 18):
            outputs = [pv_power(PANEL, hour, c / 20) for c in range(21)]
            assert all(b <= a for a, b in zip(outputs, outputs[1:]))

    def test_bounded_by_peak(self):
        for hour in range(24):
            for c in (0.0, 0.3, 1.0):
                assert 0.0 <= pv_power(PANEL, hour, c) <= PANEL.peak_power


class TestWindPower:
    def test_below_cut_in(self):
        assert wind_power(TURBINE, 2.0) == 0.0

    def test_rated_speed_gives_peak(self):
        assert wind_power(TURBINE, 12.0) == 1500.0

    def test_cubic_midpoint(self):
        assert wind_power(TURBINE, 7.5) == pytest.approx(1500.0 * 0.5**3)

    def test_continuous_at_cut_in_and_rated(self):
        eps = 1e-9
        assert wind_power(TURBINE, 3.0) == 0.0
        assert wind_power(TURBINE, 3.0 + eps) < 1e-20
        assert wind_power(TURBINE, 12.0 - eps) == pytest.approx(1500.0, rel=1e-6)

    def test_discontinuous_at_cut_out(self):
        assert wind_power(TURBINE, 25.0 - 1e-9) == 1500.0
        assert wind_power(TURBINE, 25.0) == 0.0
        assert wind_power(TURBINE, 40.0) == 0.0

    def test_non_decreasing_below_cut_out(self):
        speeds = [i * 25.0 / 1000 for i in range(1000)]
        outputs = [wind_power(TURBINE, v) for v in speeds]
        assert all(b >= a for a, b in zip(outputs, outputs[1:]))

    def test_bounded_by_peak(self):
        for v in (0.0, 3.0, 5.0, 11.999, 12.0, 24.0, 25.0, 100.0):
            assert 0.0 <= wind_power(TURBINE, v) <= TURBINE.peak_power

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            wind_power(TURBINE, -0.1)


def bits(values) -> bytes:
    """The float64 bytes of a value or an array, for bitwise comparison."""
    return np.asarray(values, dtype=np.float64).tobytes()


@st.composite
def turbines_and_speeds(draw):
    """A turbine with cut_in < rated < cut_out, and speeds at and between its edges."""
    cut_in = draw(st.floats(0.0, 10.0))
    rated = cut_in + draw(st.floats(0.1, 20.0))
    cut_out = rated + draw(st.floats(0.1, 30.0))
    turbine = WindTurbine("wt", "b1", draw(st.floats(1.0, 1e6)), cut_in, rated, cut_out)
    edges = st.sampled_from([0.0, cut_in, rated, cut_out, 1e300, math.nan])
    speeds = st.one_of(edges, st.floats(0.0, 2.0 * cut_out))
    return turbine, draw(st.lists(speeds, min_size=1, max_size=48))


class TestArrayForms:
    """The array forms have the bits of the scalar curves at every entry."""

    @given(
        peak=st.floats(1.0, 1e6),
        attenuation=st.floats(0.0, 1.0),
        weather=st.lists(
            st.tuples(st.integers(0, 23), st.floats(0.0, 1.0)), min_size=1, max_size=48
        ),
    )
    @settings(max_examples=50)
    def test_pv_equals_the_scalar_oracle(self, peak, attenuation, weather):
        panel = SolarPanel("pv", "b1", peak, attenuation)
        expected = [loop_pv_power(panel, hour, cloud) for hour, cloud in weather]
        hours, clouds = map(np.array, zip(*weather))
        assert bits(pv_power(panel, hours, clouds)) == bits(expected)
        for (hour, cloud), oracle in zip(weather, expected):
            value = pv_power(panel, hour, cloud)
            assert type(value) is float and bits(value) == bits(oracle)

    @given(turbines_and_speeds())
    @settings(max_examples=50)
    def test_wind_equals_the_scalar_oracle(self, drawn):
        turbine, speeds = drawn
        expected = [loop_wind_power(turbine, v) for v in speeds]
        assert bits(wind_power(turbine, np.array(speeds))) == bits(expected)
        for v, oracle in zip(speeds, expected):
            value = wind_power(turbine, v)
            assert type(value) is float and bits(value) == bits(oracle)

    def test_negative_speed_in_an_array_is_named(self):
        with pytest.raises(ValueError, match=r"^wind speed must be >= 0, got -2\.0$"):
            wind_power(TURBINE, np.array([1.0, -2.0, -3.0]))

    @pytest.mark.parametrize("hour", [-1, 24, 6.5, np.array([3, -1]), np.array([12.0])])
    def test_hour_outside_the_table_is_rejected(self, hour):
        # Indexing the table with -1 would silently read hour 23.
        with pytest.raises(ValueError, match=r"^hour_of_day must be an int in 0\.\.23"):
            pv_power(PANEL, hour, 0.0)
