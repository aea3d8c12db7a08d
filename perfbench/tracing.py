"""Spans and counters recorded around the simulator's public functions.

The recorder wraps functions from outside, at the module attribute each
caller looks up (``engine.solve``, ``powerflow.newton_jacobian``,
``Network.bus_index``, ...), so the simulator itself is unchanged.  Spans
are kept in memory as (name, start, end, parent, rep) and written out
after the repetition ends.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple, Sequence

from microgridsim import engine, grid, powerflow, scenario


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    rep: int


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread, so children of a span never overlap and
    their durations can simply be subtracted.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _count_solve(rec: "Recorder", args: tuple, solution) -> None:
    rec.counts["powerflow.solves"] += 1
    rec.counts["powerflow.converged"] += bool(solution.converged)
    if args[1].method == powerflow.METHOD_GAUSS_SEIDEL:
        rec.counts["powerflow.gs_sweeps"] += solution.iterations
    else:
        rec.counts["powerflow.nr_iterations"] += solution.iterations


def _count_linear(rec: "Recorder", args: tuple, _result) -> None:
    rec.counts["powerflow.linear_n3"] += len(args[0]) ** 3


def _count(counter: str, size: Callable | None = None):
    def hook(rec: "Recorder", _args: tuple, result) -> None:
        rec.counts[counter] += 1 if size is None else size(result)

    return hook


# (owner, attribute, span name, hook run on the result).
WRAPPED = (
    (scenario, "parse_scenario", "scenario.parse", None),
    (engine, "run_simulation", "engine.run_simulation", _count("engine.records", len)),
    (engine, "weather_series", "weather.series", _count("weather.samples", len)),
    (engine, "load_weather_csv", "weather.trace_read", _count("weather.samples", len)),
    (engine, "pv_power", "generation.pv", _count("generation.calls")),
    (engine, "wind_power", "generation.wind", _count("generation.calls")),
    (engine, "simple_power_distribution", "powerflow.dispatch", None),
    (engine, "build_admittance", "grid.admittance", None),
    (engine, "solve", "powerflow.solve", _count_solve),
    (engine, "total_line_losses", "powerflow.losses", None),
    (powerflow, "compute_injections", "powerflow.injections", None),
    (powerflow, "newton_jacobian", "powerflow.jacobian", None),
    (powerflow, "solve_linear", "powerflow.linear", _count_linear),
    (engine, "render_csv", "engine.render", _count("engine.csv_bytes", len)),
    (engine, "read_results_csv", "engine.read", None),
    (engine, "summarize", "engine.summarize", None),
)


class Recorder:
    """Context manager: while entered, the wrappers record spans and counts.

    Spans are timed on ``clock``; the worker passes its reference clock.
    """

    def __init__(self, rep: int = 0, clock: Callable[[], float] = perf_counter):
        self.rep = rep
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.rep)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def __enter__(self) -> "Recorder":
        for owner, attr, name, hook in WRAPPED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, hook))
        bus_index = grid.Network.bus_index
        self._saved.append((grid.Network, "bus_index", bus_index))

        def counted_bus_index(net, bus_id):
            self.counts["grid.bus_index_calls"] += 1
            return bus_index(net, bus_id)

        grid.Network.bus_index = counted_bus_index
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        lines = ["rep,index,name,start,end,parent"]
        lines += [
            f"{s.rep},{i},{s.name},{s.start:.9f},{s.end:.9f},{s.parent}"
            for i, s in enumerate(self.spans)
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded repetition, named as in BENCHMARK.json."""
        spans = self.spans
        own = self_times(spans)
        total: Counter = Counter()
        solve_self = 0.0
        loop_self = 0.0
        for s, t in zip(spans, own):
            total[s.name] += s.end - s.start
            if s.name == "powerflow.solve":
                solve_self += t
            elif s.name == "engine.run_simulation":
                loop_self += t
        c = self.counts
        sweeps = c["powerflow.gs_sweeps"]
        return {
            "powerflow.jacobian_s": total["powerflow.jacobian"],
            "powerflow.linear_s": total["powerflow.linear"],
            "powerflow.nr_iterations": c["powerflow.nr_iterations"],
            # Gaussian elimination of an n x n system: 2n^3/3 flops.
            "powerflow.linear_flops": 2 * c["powerflow.linear_n3"] / 3,
            "powerflow.gs_sweeps": sweeps,
            # The sweep loop is inline in the GS solver, so a sweep's cost is
            # the solve span's self time (all but the mismatch evaluations).
            "powerflow.gs_sweep_us": 1e6 * solve_self / sweeps if sweeps else 0.0,
            "powerflow.solve_s": total["powerflow.solve"],
            "powerflow.solves": c["powerflow.solves"],
            "powerflow.converged_frac": (
                c["powerflow.converged"] / c["powerflow.solves"] if c["powerflow.solves"] else 0.0
            ),
            "powerflow.injections_s": total["powerflow.injections"],
            "powerflow.losses_s": total["powerflow.losses"],
            "powerflow.dispatch_s": total["powerflow.dispatch"],
            "weather.series_s": total["weather.series"],
            "weather.trace_read_s": total["weather.trace_read"],
            "weather.samples": c["weather.samples"],
            "generation.pv_s": total["generation.pv"],
            "generation.wind_s": total["generation.wind"],
            "generation.calls": c["generation.calls"],
            "grid.bus_index_calls": c["grid.bus_index_calls"],
            "grid.admittance_s": total["grid.admittance"],
            "scenario.parse_s": total["scenario.parse"],
            "engine.run_simulation_s": total["engine.run_simulation"],
            "engine.loop_self_s": loop_self,
            "engine.records": c["engine.records"],
            "engine.render_s": total["engine.render"],
            "engine.csv_bytes": c["engine.csv_bytes"],
            "engine.read_s": total["engine.read"],
            "engine.summarize_s": total["engine.summarize"],
        }
