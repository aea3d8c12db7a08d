"""Deterministic stochastic weather synthesis and weather-trace CSV I/O.

Wind speed is drawn per hour from a Weibull distribution via inverse-CDF
sampling, cloud cover evolves as a bounded random walk on [0, 1], and
temperature follows a fixed daily cosine profile.  All randomness comes
from one SplitMix64 stream (:func:`uniform_stream`), so a (seed, params,
n_steps) triple fully determines the generated trace on every platform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB

TRACE_COLUMNS = ("step", "hour", "cloud_factor", "wind_speed_mps", "temperature_c")


def uniform_stream(seed: int, n: int) -> np.ndarray:
    """SplitMix64: the first n uniforms in [0, 1) for the given seed.

    State i is just ``seed + i * gamma`` mod 2**64, so the whole stream is
    one vector expression: the two xor-shift-multiply mixing rounds of
    each state in exact 64-bit arithmetic, then the top 53 bits of the
    result as the uniform, so 0 <= u < 1 always holds.
    """
    steps = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + steps * np.uint64(_GOLDEN_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_MUL_1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_MUL_2)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def sample_wind(u: float, shape: float, scale: float) -> float:
    """Weibull inverse-CDF sample: scale * (-ln(1 - u)) ** (1 / shape).

    u = 0 maps to calm (0 m/s); u = 1 would be infinite and is rejected,
    and so is a NaN shape or scale.
    """
    if not shape > 0.0:
        raise ValueError(f"weibull_shape must be > 0, got {shape!r}")
    if not scale > 0.0:
        raise ValueError(f"weibull_scale must be > 0, got {scale!r}")
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform draw must lie in [0, 1), got {u!r}")
    if u == 0.0:
        return 0.0
    return scale * (-math.log1p(-u)) ** (1.0 / shape)


def step_cloud(prev: float, u: float, sigma: float) -> float:
    """One random-walk step of the cloud factor, clamped to [0, 1]; sigma is cloud_step."""
    if not sigma >= 0.0:
        raise ValueError(f"cloud_step must be >= 0, got {sigma!r}")
    return min(1.0, max(0.0, prev + sigma * (2.0 * u - 1.0)))


@dataclass(frozen=True)
class WeatherSample:
    """Weather at one simulation step: cloud cover, wind speed, temperature."""

    step: int
    hour_of_day: int
    cloud_factor: float
    wind_speed: float
    temperature: float


@dataclass(frozen=True)
class WeatherParams:
    """Parameters of the synthetic weather model.

    weibull_shape/weibull_scale control the hourly wind-speed draw,
    cloud_step is the half-width of the cloud random-walk increment,
    and the temperature trace is
    temp_mean + temp_amplitude * cos(2*pi*(hour - 15)/24).  seed selects
    the SplitMix64 stream and must lie in [0, 2**64), else ValueError.
    """

    weibull_shape: float = 2.0
    weibull_scale: float = 6.0
    cloud_step: float = 0.15
    cloud_initial: float = 0.5
    temp_mean: float = 15.0
    temp_amplitude: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        # Out of range, a seed would alias the stream of seed mod 2**64.
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed!r}")


def weather_series(
    params: WeatherParams, n_steps: int, start_hour: int = 0
) -> list[WeatherSample]:
    """Generate n_steps hourly weather samples.

    Step i takes uniforms 2i (wind) and 2i + 1 (cloud) of the seed's
    stream, so traces stay reproducible even if a future model change
    stops using one of the draws.  Parameters out of range, NaN included,
    raise ValueError naming the field.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not 0 <= start_hour <= 23:
        raise ValueError("start_hour must be in 0..23")
    u = uniform_stream(params.seed, 2 * n_steps).tolist()
    cloud = params.cloud_initial
    if not 0.0 <= cloud <= 1.0:
        raise ValueError(f"cloud_initial must be in [0, 1], got {cloud!r}")
    samples = []
    for step in range(n_steps):
        hour = (start_hour + step) % 24
        wind = sample_wind(u[2 * step], params.weibull_shape, params.weibull_scale)
        cloud = step_cloud(cloud, u[2 * step + 1], params.cloud_step)
        temp = params.temp_mean + params.temp_amplitude * math.cos(
            2.0 * math.pi * (hour - 15) / 24.0
        )
        samples.append(WeatherSample(step, hour, cloud, wind, temp))
    return samples


class WeatherTraceError(ValueError):
    """Raised for malformed weather-trace CSV files.

    The message starts with the file's path, then with "row N: " when
    data row N (1-based), kept as row, is to blame.
    """

    def __init__(self, path: str | Path, message: str, row: int | None = None):
        where = f"{path}: " if row is None else f"{path}: row {row}: "
        super().__init__(where + message)
        self.row = row


def load_weather_csv(path: str | Path) -> list[WeatherSample]:
    """Read a weather trace written by :func:`write_weather_csv`.

    Expects the exact column set step, hour, cloud_factor, wind_speed_mps,
    temperature_c; accepts LF or CRLF line endings.  The i-th sample must
    carry step i (counting from 0), so duplicate, missing and out-of-order
    steps are rejected with the row that breaks the sequence.  A file that
    is not UTF-8 is a WeatherTraceError too; an unreadable one is OSError.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            samples = _read_trace(path, csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise WeatherTraceError(path, f"not UTF-8 text ({exc.reason})") from None
    if not samples:
        raise WeatherTraceError(path, "no samples")
    return samples


def _read_trace(path: str | Path, reader) -> list[WeatherSample]:
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

    samples = []
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
        if step != len(samples):
            raise WeatherTraceError(path, f"step must be {len(samples)}, got {step}", row_no)
        samples.append(WeatherSample(step, hour, cloud, wind, temp))
    return samples


def write_weather_csv(samples: Sequence[WeatherSample], path: str | Path) -> None:
    """Write a weather trace as UTF-8 CSV with LF line endings."""
    lines = [",".join(TRACE_COLUMNS)]
    for s in samples:
        lines.append(
            f"{s.step},{s.hour_of_day},{s.cloud_factor:.9g},"
            f"{s.wind_speed:.9g},{s.temperature:.9g}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
