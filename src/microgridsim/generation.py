"""Renewable generator models mapping weather to electrical output.

PV output follows a daylight sine hump attenuated linearly by cloud
cover; wind turbines use a cubic power curve between cut-in and rated
speed with a hard cut-out.  Both outputs are bounded by the device's
peak power for every valid input.  Each takes one value or an array of
them, so a run's generation is one array expression per device.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


# clear_sky_factor at each whole hour, indexed by hour of day.
_CLEAR_SKY = np.array([clear_sky_factor(hour) for hour in range(24)])


def pv_power(
    panel: SolarPanel, hour_of_day: int | np.ndarray, cloud_factor: float | np.ndarray
) -> float | np.ndarray:
    """PV output in watts: peak * clear_sky_factor(hour) * (1 - attenuation * cloud).

    Values give a float, arrays of one shape an array with the value
    form's bits at each entry; an hour not an int in 0..23 is ValueError.
    """
    hour = np.asarray(hour_of_day)
    if hour.dtype.kind not in "iu" or ((hour < 0) | (hour > 23)).any():
        raise ValueError(f"hour_of_day must be an int in 0..23, got {hour_of_day!r}")
    clear = 1.0 - panel.cloud_attenuation * np.asarray(cloud_factor)
    out = panel.peak_power * _CLEAR_SKY[hour] * clear
    return float(out) if out.ndim == 0 else out


def wind_power(turbine: WindTurbine, wind_speed: float | np.ndarray) -> float | np.ndarray:
    """Turbine output in watts: a float for a wind speed, an array for an array of them.

    Zero below cut-in and at or above cut-out; cubic ramp
    peak * ((v - cut_in)/(rated - cut_in))**3 between cut-in and rated;
    flat at peak between rated and cut-out.  A negative speed is a
    ValueError naming the first; a NaN speed gives NaN.
    """
    v = np.asarray(wind_speed, dtype=float)
    if (v < 0.0).any():
        raise ValueError(f"wind speed must be >= 0, got {float(v[v < 0.0].flat[0])!r}")
    # The ramp is computed at every speed but kept only between cut-in and
    # rated, where it is at most peak; float_power has the bits of ** 3.
    with np.errstate(all="ignore"):
        ramp = np.float_power((v - turbine.cut_in) / (turbine.rated - turbine.cut_in), 3)
        out = np.where(v >= turbine.rated, turbine.peak_power, turbine.peak_power * ramp)
    out = np.where((v < turbine.cut_in) | (v >= turbine.cut_out), 0.0, out)
    return float(out) if out.ndim == 0 else out
