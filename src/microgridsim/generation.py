"""Renewable generator models mapping weather to electrical output.

PV output follows a daylight sine hump attenuated linearly by cloud
cover; wind turbines use a cubic power curve between cut-in and rated
speed with a hard cut-out.  Both outputs are bounded by the device's
peak power for every input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .weather import WeatherSample

DEFAULT_CLOUD_ATTENUATION = 0.75
DEFAULT_CUT_IN = 3.0
DEFAULT_RATED = 12.0
DEFAULT_CUT_OUT = 25.0


@dataclass(frozen=True)
class SolarPanel:
    """PV panel: peak watts at clear-sky noon, derated by cloud cover."""

    id: str
    bus: str
    peak_power: float
    cloud_attenuation: float = DEFAULT_CLOUD_ATTENUATION


@dataclass(frozen=True)
class WindTurbine:
    """Wind turbine with cut-in / rated / cut-out speeds in m/s."""

    id: str
    bus: str
    peak_power: float
    cut_in: float = DEFAULT_CUT_IN
    rated: float = DEFAULT_RATED
    cut_out: float = DEFAULT_CUT_OUT


def clear_sky_factor(hour_of_day: float) -> float:
    """Daylight factor in [0, 1]: sin(pi*(hour - 6)/12) between 06:00 and 18:00.

    Returns exactly 0.0 outside the open daylight window, avoiding the
    ~1e-16 residue sin(pi) would leave at 18:00.
    """
    if not 0.0 <= hour_of_day < 24.0:
        raise ValueError(f"hour_of_day must be in [0, 24), got {hour_of_day!r}")
    if not 6.0 < hour_of_day < 18.0:
        return 0.0
    return math.sin(math.pi * (hour_of_day - 6.0) / 12.0)


def pv_power(panel: SolarPanel, sample: WeatherSample) -> float:
    """PV output in watts: peak * clear_sky_factor * (1 - attenuation * cloud)."""
    sky = clear_sky_factor(sample.hour_of_day)
    return panel.peak_power * sky * (1.0 - panel.cloud_attenuation * sample.cloud_factor)


def wind_power(turbine: WindTurbine, wind_speed: float) -> float:
    """Turbine output in watts for the given wind speed.

    Zero below cut-in and at or above cut-out; cubic ramp
    peak * ((v - cut_in)/(rated - cut_in))**3 between cut-in and rated;
    flat at peak between rated and cut-out.
    """
    if wind_speed < 0.0:
        raise ValueError(f"wind speed must be >= 0, got {wind_speed!r}")
    v = wind_speed
    if v < turbine.cut_in or v >= turbine.cut_out:
        return 0.0
    if v >= turbine.rated:
        return turbine.peak_power
    frac = (v - turbine.cut_in) / (turbine.rated - turbine.cut_in)
    return turbine.peak_power * frac**3
