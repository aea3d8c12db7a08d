"""Synthesize two days of hourly weather and show it is fully reproducible.

The weather model draws wind speed from a Weibull distribution and walks
the cloud factor randomly inside [0, 1]; temperature follows a daily
cosine.  Everything is driven by one 64-bit seed, so the same seed gives
the same trace on any machine.  A trace is a WeatherSeries: one read-only
column per quantity (hour, cloud_factor, wind_speed, temperature), one
entry per hourly step.
"""

import tempfile
from pathlib import Path

from microgridsim import WeatherParams, load_weather_csv, weather_series, write_weather_csv

params = WeatherParams(
    weibull_shape=2.0,     # Rayleigh wind
    weibull_scale=6.0,     # typical breeze around 5-6 m/s
    cloud_step=0.15,
    cloud_initial=0.5,
    temp_mean=15.0,
    temp_amplitude=5.0,
    seed=42,
)

trace = weather_series(params, n_steps=48, start_hour=0)

day = trace[:24]
rows = zip(day.hour.tolist(), day.cloud_factor.tolist(), day.wind_speed.tolist(), day.temperature.tolist())
print("step hour  cloud  wind m/s  temp C")
for step, (hour, cloud, wind, temp) in enumerate(rows):
    bar = "#" * int(wind)
    print(f"{step:4d} {hour:4d}  {cloud:5.2f}  {wind:8.2f}  {temp:6.1f}  {bar}")
print(f"... ({len(trace)} steps total)")

# Determinism: regenerating with the same seed gives the identical trace.
again = weather_series(params, n_steps=48, start_hour=0)
print("\nsame seed reproduces the trace exactly:", trace == again)

# Traces round-trip through the CSV interchange format; the file lives in a
# temporary directory, so no file of the caller's is touched.
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "weather_trace.csv"
    write_weather_csv(trace, out)
    loaded = load_weather_csv(out)
print(f"wrote {out.name} and read back {len(loaded)} steps")
