"""One benchmark repetition in a fresh interpreter.

Usage: python3 perfbench/worker.py SCENARIO_PATH OUT_DIR TRACE REP

Prints ``ready`` once ``microgridsim`` is imported and the scenario parsed
(the parent times this as set-up), then runs a one-step warm-up, then the
timed repetition:

* run: scenario text -> parse_scenario -> run_simulation -> render_csv bytes
* summarize: results CSV -> read_results_csv -> summarize per quantity,
  repeated until SUMMARIZE_MIN_S have passed; the mean counts

and prints one JSON line with the timings, the CSV's SHA-256, peak RSS,
the output-check errors and, with TRACE=1, the per-layer metrics.

Everything is timed on the reference clock of refclock.py, which runs from
before ``microgridsim`` is imported.  Set-up is timed by the parent in wall
time; the worker reports setup_factor, the reference seconds per wall second
over its own share of set-up, by which the parent scales it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from refclock import RefClock

if __name__ == "__main__":
    # Started before microgridsim is imported, so that it times set-up too.
    CLOCK = RefClock().__enter__()
    SETUP_START = (perf_counter(), CLOCK.now())

from microgridsim import engine, scenario  # noqa: E402
from microgridsim.scenario import format_number  # noqa: E402
from tracing import Recorder  # noqa: E402

# A voltage above this multiple of v_base is reported as an output error.
V_MAX_PU = 1.1
# Relative tolerance of the balance check on values read back at 9 digits.
BALANCE_RTOL = 1e-7
# Summarize is repeated until its timings add up to this many seconds.
SUMMARIZE_MIN_S = 0.5


def config_comments(cfg) -> list[tuple[str, str]]:
    """The '#' header lines `microgridsim run` writes."""
    return [
        ("steps", str(cfg.steps)),
        ("start_hour", str(cfg.start_hour)),
        ("solver", cfg.solver),
        ("seed", str(cfg.seed)),
        ("s_base_va", format_number(cfg.s_base_va)),
        ("v_base_v", format_number(cfg.v_base_v)),
    ]


def run_once(text: str, trace_dir: Path, steps: int | None = None) -> bytes:
    """The work of `microgridsim run`: scenario text to results CSV bytes."""
    sc = scenario.parse_scenario(text)
    if steps is not None:
        sc = replace(sc, config=replace(sc.config, steps=steps))
    table = engine.run_simulation(sc, trace_dir=trace_dir)
    return engine.render_csv(table, config_comments(sc.config)).encode("utf-8")


def summarize_once(csv_path: Path):
    """The work of `microgridsim summarize` without --quantity."""
    table = engine.read_results_csv(csv_path)
    quantities = sorted({rec.quantity for rec in table})
    return table, [row for q in quantities for row in engine.summarize(table, q)]


def check_outputs(table, summary, steps: int, v_base: float) -> list[str]:
    """Seed-independent checks of a read-back results table and its summary."""
    errors = []
    by_step = defaultdict(lambda: defaultdict(list))
    for rec in table:
        if not math.isfinite(rec.value):
            errors.append(f"step {rec.step}: {rec.object}.{rec.quantity} = {rec.value}")
        by_step[rec.step][rec.quantity].append(rec.value)
        if rec.quantity == "v_mag" and not 0.0 < rec.value <= V_MAX_PU * v_base:
            errors.append(f"step {rec.step}: {rec.object} v_mag {rec.value} V out of range")
        if rec.quantity == "losses" and rec.value < 0.0:
            errors.append(f"step {rec.step}: negative losses {rec.value} W")
    if sorted(by_step) != list(range(steps)):
        errors.append(f"expected steps 0..{steps - 1}, got {len(by_step)} distinct steps")
    for step, q in by_step.items():
        if "v_mag" in q:
            continue  # AC step: p_grid carries the losses, no lossless balance
        demand, produced, grid = sum(q["p_demand"]), sum(q["p_out"]), q["p_grid"]
        scale = abs(demand) + sum(abs(p) for p in q["p_out"]) + 1.0
        if len(grid) != 1 or abs(grid[0] - (demand - produced)) > BALANCE_RTOL * scale:
            errors.append(f"step {step}: p_grid {grid} != demand - production")
    for row in summary:
        if not row.minimum <= row.q1 <= row.median <= row.q3 <= row.maximum:
            errors.append(f"summary {row.object}.{row.quantity}: quartiles out of order")
    return errors[:20]


def main(argv: list[str]) -> int:
    scenario_path, out_dir, traced, rep = Path(argv[0]), Path(argv[1]), argv[2] == "1", int(argv[3])
    text = scenario_path.read_text(encoding="utf-8")
    cfg = scenario.parse_scenario(text).config
    wall_start, clock_start = SETUP_START
    setup_factor = (CLOCK.now() - clock_start) / (perf_counter() - wall_start)
    print("ready", flush=True)

    trace_dir = scenario_path.parent
    csv_path = out_dir / f"results-rep{rep}.csv"
    csv_path.write_bytes(run_once(text, trace_dir, steps=1))
    summarize_once(csv_path)
    gc.collect()

    recorder = Recorder(rep, clock=CLOCK.now) if traced else None
    with recorder or contextlib.nullcontext():
        wall = perf_counter()
        start = CLOCK.now()
        data = run_once(text, trace_dir)
        run_s = CLOCK.now() - start
        run_wall_s = perf_counter() - wall
        csv_path.write_bytes(data)
        start = CLOCK.now()
        table, summary = summarize_once(csv_path)
        summarize_times = [CLOCK.now() - start]
    # Read before the checks, whose own bookkeeping is not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    errors = check_outputs(table, summary, cfg.steps, cfg.v_base_v)
    del table, summary
    # A small CSV summarizes in milliseconds: repeat it, untraced, and keep
    # the mean, in which the garbage collections that only some calls
    # trigger count in proportion.
    while sum(summarize_times) < SUMMARIZE_MIN_S:
        start = CLOCK.now()
        summarize_once(csv_path)
        summarize_times.append(CLOCK.now() - start)
    CLOCK.__exit__(None, None, None)

    result = {
        "run_s": run_s,
        "run_wall_s": run_wall_s,
        "summarize_s": statistics.fmean(summarize_times),
        "peak_rss_mb": peak_rss_mb,
        "setup_factor": setup_factor,
        "probe_s": CLOCK.median_probe_s(),
        "sha256": hashlib.sha256(data).hexdigest(),
        "errors": errors,
    }
    csv_path.unlink()
    if recorder is not None:
        result["layers"] = recorder.layer_metrics()
        recorder.write(out_dir / f"spans-rep{rep}.csv")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
