"""Deterministic stochastic weather synthesis and weather-trace CSV I/O.

Weather is one form from source to engine: a :class:`WeatherSeries`, a
read-only column per quantity with one entry per hourly step.  Wind
speed is drawn per hour from a Weibull distribution via inverse-CDF
sampling, cloud cover evolves as a bounded random walk on [0, 1], and
temperature follows a fixed daily cosine profile.  All randomness comes
from one SplitMix64 stream (:func:`uniform_stream`), so a (seed, params,
n_steps) triple fully determines the generated series on every platform.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Iterator

import numpy as np

from .csvtext import loadtxt_columns

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL_1 = 0xBF58476D1CE4E5B9
_MIX_MUL_2 = 0x94D049BB133111EB

TRACE_COLUMNS = ("step", "hour", "cloud_factor", "wind_speed_mps", "temperature_c")
# The float columns of a WeatherSeries, in order.
_VALUES = ("cloud_factor", "wind_speed", "temperature")


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


def sample_wind(u: float | np.ndarray, shape: float, scale: float) -> float | np.ndarray:
    """Weibull inverse-CDF sample: scale * (-ln(1 - u)) ** (1 / shape).

    A value gives a float, an array an array with the value form's bits at
    each entry.  u = 0 maps to calm (+0.0 m/s); u = 1 would be infinite
    and is rejected, and so is a NaN or infinite shape or scale.  A speed
    that overflows is inf, without a warning.
    """
    named = (("weibull_shape", shape), ("weibull_scale", scale))
    for name, value in named:
        if not value > 0.0:
            raise ValueError(f"{name} must be > 0, got {value!r}")
    draws = np.asarray(u, dtype=float)
    outside = draws[~((0.0 <= draws) & (draws < 1.0))]
    if outside.size:
        raise ValueError(f"uniform draw must lie in [0, 1), got {float(outside[0])!r}")
    for name, value in named:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    # math.log1p per draw, as numpy's rounds some draws differently; float_power has the bits of **.
    log = np.fromiter(map(math.log1p, (-draws).ravel().tolist()), float, draws.size)
    with np.errstate(over="ignore"):  # an infinite speed is the caller's to reject
        out = scale * np.float_power(-log.reshape(draws.shape), 1.0 / shape)
    return float(out) if out.ndim == 0 else out


def step_cloud(prev: float, u: float, sigma: float) -> float:
    """One random-walk step of the cloud factor, clamped to [0, 1]; sigma is cloud_step."""
    _check_cloud_step(sigma)
    return _walk_cloud(sigma, prev, u)


def _check_cloud_step(sigma: float) -> None:
    if not sigma >= 0.0:
        raise ValueError(f"cloud_step must be >= 0, got {sigma!r}")
    if sigma == math.inf:
        raise ValueError(f"cloud_step must be finite, got {sigma!r}")


def _walk_cloud(sigma: float, prev: float, u: float) -> float:
    """step_cloud for a sigma already checked; sigma first, for partial."""
    return min(1.0, max(0.0, prev + sigma * (2.0 * u - 1.0)))


@dataclass(frozen=True, eq=False)
class WeatherSeries:
    """Weather of consecutive hourly steps as equal-length, read-only 1-D columns.

    Entry i of each column is step i's hour of day (ints in 0..23, else
    ValueError), cloud factor, wind speed in m/s or temperature in degC.
    The values are not checked here: see first_invalid.  len() is the
    number of steps, a slice is the series of those steps, and series
    with equal columns are equal.
    """

    hour: np.ndarray
    cloud_factor: np.ndarray
    wind_speed: np.ndarray
    temperature: np.ndarray

    def __post_init__(self) -> None:
        hour = np.array(self.hour)
        if hour.size and (hour.dtype.kind not in "iu" or ((hour < 0) | (hour > 23)).any()):
            raise ValueError("hour must hold ints in 0..23")
        columns = [hour.astype(np.int64)] + [np.array(getattr(self, q), float) for q in _VALUES]
        if {c.ndim for c in columns} != {1} or len({len(c) for c in columns}) != 1:
            raise ValueError("weather columns must be 1-D and of one length")
        for name, column in zip(("hour", *_VALUES), columns):
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def __len__(self) -> int:
        return len(self.hour)

    def __getitem__(self, steps: slice) -> WeatherSeries:
        return WeatherSeries(*(column[steps] for column in self._columns()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeatherSeries):
            return NotImplemented
        return all(map(np.array_equal, self._columns(), other._columns()))

    def first_invalid(self) -> tuple[int, str] | None:
        """(step, why) for the first step with a value no trace may hold, else None.

        A trace's values are finite, its cloud factors in [0, 1] and its wind
        speeds >= 0.  why reads 'COLUMN is VALUE, not ...'; a step's
        non-finite values, in column order, come before its others.
        """
        cloud, wind = self.cloud_factor, self.wind_speed
        finite = np.isfinite(cloud) & np.isfinite(wind) & np.isfinite(self.temperature)
        bad = np.flatnonzero(~finite | (cloud < 0.0) | (cloud > 1.0) | (wind < 0.0))
        if not bad.size:
            return None
        step = int(bad[0])
        values = {name: float(getattr(self, name)[step]) for name in _VALUES}
        for name, value in values.items():
            if not math.isfinite(value):
                return step, f"{name} is {value}, not a finite number"
        if not 0.0 <= values["cloud_factor"] <= 1.0:
            return step, f"cloud_factor is {values['cloud_factor']}, not in [0, 1]"
        return step, f"wind_speed is {values['wind_speed']}, not >= 0"


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


def weather_series(params: WeatherParams, n_steps: int, start_hour: int = 0) -> WeatherSeries:
    """Generate n_steps hourly weather steps.

    Step i takes uniforms 2i (wind) and 2i + 1 (cloud) of the seed's
    stream, so traces stay reproducible even if a future model change
    stops using one of the draws.  Parameters out of range or not
    finite, NaN included, raise ValueError naming the field; finite ones
    whose wind speed or temperature overflows to infinity, one naming
    the pair, 'weibull_shape = 1e-320 with weibull_scale = 6.0 gives an
    infinite wind speed'.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    if not 0 <= start_hour <= 23:
        raise ValueError("start_hour must be in 0..23")
    if not 0.0 <= params.cloud_initial <= 1.0:
        raise ValueError(f"cloud_initial must be in [0, 1], got {params.cloud_initial!r}")
    u = uniform_stream(params.seed, 2 * n_steps)
    wind = sample_wind(u[0::2], params.weibull_shape, params.weibull_scale)
    _check_cloud_step(params.cloud_step)
    walk = partial(_walk_cloud, params.cloud_step)
    cloud = list(accumulate(u[1::2].tolist(), walk, initial=params.cloud_initial))[1:]
    for name in ("temp_mean", "temp_amplitude"):
        if not math.isfinite(value := getattr(params, name)):
            raise ValueError(f"{name} must be finite, got {value!r}")
    angles = [2.0 * math.pi * (h - 15) / 24.0 for h in range(24)]
    day = [params.temp_mean + params.temp_amplitude * math.cos(a) for a in angles]
    hour = (start_hour + np.arange(n_steps)) % 24
    temperature = np.array(day)[hour]
    if not np.isfinite(wind).all():
        raise ValueError(
            f"weibull_shape = {params.weibull_shape!r} with "
            f"weibull_scale = {params.weibull_scale!r} gives an infinite wind speed"
        )
    if not np.isfinite(temperature).all():
        raise ValueError(
            f"temp_mean = {params.temp_mean!r} with "
            f"temp_amplitude = {params.temp_amplitude!r} gives an infinite temperature"
        )
    return WeatherSeries(hour, cloud, wind, temperature)


class WeatherTraceError(ValueError):
    """Raised for malformed weather-trace CSV files.

    The message starts with the file's path, then with "row N: " when
    data row N (1-based), kept as row, is to blame.
    """

    def __init__(self, path: str | Path, message: str, row: int | None = None):
        where = f"{path}: " if row is None else f"{path}: row {row}: "
        super().__init__(where + message)
        self.row = row


def load_weather_csv(path: str | Path) -> WeatherSeries:
    """Read a weather trace written by :func:`write_weather_csv`.

    Expects the columns step, hour, cloud_factor, wind_speed_mps and
    temperature_c, each once, in any order; accepts LF or CRLF line
    endings.  The i-th row must carry step i (counting from 0), so
    duplicate, missing and out-of-order steps are rejected with the row
    that breaks the sequence.  A file that is not UTF-8, or a row the csv
    module rejects (a cell over csv.field_size_limit()), is a
    WeatherTraceError too; an unreadable one is OSError.
    numpy's C reader parses the data rows; where its reading could differ
    from the csv module's, int's and float's, or any rule fails, the rows
    are read one by one, which gives their answer or the row's error.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            try:
                lines = fh.readlines()
            except UnicodeDecodeError:
                # Row by row, as far as the text decodes: a row before the
                # bytes that do not decode may be the one to name.
                fh.seek(0)
                reader = csv.reader(fh)
                return _read_trace(path, _read_header(path, reader), reader)
    except UnicodeDecodeError as exc:
        raise WeatherTraceError(path, f"not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(lines)
    header = _read_header(path, reader)
    series = _loadtxt_trace(header, lines[reader.line_num :])
    return _read_trace(path, header, reader) if series is None else series


def _read_header(path: str | Path, reader) -> list[str]:
    """The header row of a trace's csv reader, which must name each of TRACE_COLUMNS once."""
    try:
        header = next(reader)
    except StopIteration:
        raise WeatherTraceError(path, "empty file, expected header") from None
    except csv.Error as exc:
        raise WeatherTraceError(path, f"header: {exc}") from None
    missing = [c for c in TRACE_COLUMNS if c not in header]
    if missing:
        raise WeatherTraceError(path, f"missing column(s): {', '.join(missing)}")
    extra = [c for c in header if c not in TRACE_COLUMNS]
    if extra:
        raise WeatherTraceError(path, f"unknown column(s): {', '.join(extra)}")
    repeated = [c for c in TRACE_COLUMNS if header.count(c) > 1]
    if repeated:
        raise WeatherTraceError(path, f"duplicate column(s): {', '.join(repeated)}")
    return header


def _loadtxt_trace(header: list[str], lines: list[str]) -> WeatherSeries | None:
    """The trace of a header's data lines by numpy's C reader, or None unless _read_trace would accept it as is."""
    dtype = np.dtype([(name, np.int64 if name in ("step", "hour") else float) for name in header])
    table = loadtxt_columns(lines, dtype)
    if table is None or not len(table):
        return None
    try:
        series = WeatherSeries(*(table[name] for name in TRACE_COLUMNS[1:]))
    except ValueError:  # an hour outside 0..23
        return None
    if series.first_invalid() is not None or (table["step"] != np.arange(len(table))).any():
        return None
    return series


def _read_trace(path: str | Path, header: list[str], reader) -> WeatherSeries:
    """The trace of the data rows left in a csv reader, read row by row."""
    col = {name: header.index(name) for name in TRACE_COLUMNS}

    rows = []
    for row_no, cells in _numbered(path, reader):
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
        if step != len(rows):
            raise WeatherTraceError(path, f"step must be {len(rows)}, got {step}", row_no)
        rows.append((hour, cloud, wind, temp))
    if not rows:
        raise WeatherTraceError(path, "no samples")
    return WeatherSeries(*zip(*rows))


def _numbered(path: str | Path, reader) -> Iterator[tuple[int, list[str]]]:
    """The rows of a csv reader, numbered from 1; a row it rejects is a WeatherTraceError."""
    row_no = 0
    try:
        for row_no, cells in enumerate(reader, start=1):
            yield row_no, cells
    except csv.Error as exc:
        raise WeatherTraceError(path, str(exc), row_no + 1) from None


def write_weather_csv(series: WeatherSeries, path: str | Path) -> None:
    """Write a weather trace as UTF-8 CSV with LF line endings.

    A series that load_weather_csv could not read back, by its
    first_invalid step, is a ValueError 'step S: COLUMN is VALUE, not ...',
    and no file is written.
    """
    invalid = series.first_invalid()
    if invalid is not None:
        raise ValueError("step {}: {}".format(*invalid))
    fields = [None] * (len(TRACE_COLUMNS) * len(series))
    fields[0 :: len(TRACE_COLUMNS)] = range(len(series))
    for i, column in enumerate(series._columns(), start=1):
        fields[i :: len(TRACE_COLUMNS)] = column.tolist()
    rows = "%d,%d,%.9g,%.9g,%.9g\n" * len(series) % tuple(fields)
    Path(path).write_text(",".join(TRACE_COLUMNS) + "\n" + rows, encoding="utf-8", newline="\n")
