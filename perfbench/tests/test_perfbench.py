"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import refclock  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from microgridsim import ResultRecord, SummaryRow, parse_scenario, run_simulation  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(tmp_path, name):
    workloads.write_inputs(name, 5, tmp_path / "a")
    workloads.write_inputs(name, 5, tmp_path / "b")
    workloads.write_inputs(name, 6, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_feeder_converges_at_every_step(tmp_path, seed):
    path = workloads.write_inputs("feeder_acpf", seed, tmp_path)
    sc = parse_scenario(path.read_text())
    assert len(sc.network.buses) == workloads.FEEDER_BUSES
    assert sc.network.pvs and sc.network.loads
    with tracing.Recorder() as rec:
        table = run_simulation(sc, trace_dir=tmp_path)  # raises on non-convergence
    steps = workloads.WORKLOADS["feeder_acpf"].steps
    assert rec.counts["powerflow.solves"] == rec.counts["powerflow.converged"] == steps
    # Scaled to a fixed voltage drop, every seed costs the same iterations.
    assert rec.counts["powerflow.nr_iterations"] == 3 * steps
    v_pu = [r.value / sc.config.v_base_v for r in table if r.quantity == "v_mag"]
    assert 0.94 <= min(v_pu) and max(v_pu) <= 1.1


@pytest.mark.parametrize(
    "name, steps", [("balance_long", 48), ("street_acpf", 24), ("street_gs", 2), ("feeder_acpf", 1)]
)
def test_traced_csv_is_byte_identical(tmp_path, name, steps):
    path = workloads.write_inputs(name, 3, tmp_path)
    text = path.read_text()
    plain = worker.run_once(text, tmp_path, steps=steps)
    with tracing.Recorder() as rec:
        traced = worker.run_once(text, tmp_path, steps=steps)
    assert traced == plain
    assert rec.counts["engine.csv_bytes"] == len(plain)
    # The wrappers are gone again: a further run records nothing.
    before = len(rec.spans)
    worker.run_once(text, tmp_path, steps=1)
    assert len(rec.spans) == before


def test_self_time_on_a_hand_built_tree():
    S = tracing.Span
    spans = [
        S("engine.run_simulation", 0.0, 10.0, -1, 0),
        S("powerflow.solve", 1.0, 6.0, 0, 0),
        S("powerflow.jacobian", 1.5, 3.0, 1, 0),
        S("powerflow.injections", 2.0, 2.5, 2, 0),
        S("powerflow.linear", 3.0, 5.0, 1, 0),
        S("powerflow.losses", 7.0, 8.0, 0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.5, 1.0, 0.5, 2.0, 1.0])


def test_loop_self_time_accounts_for_the_run_span(tmp_path):
    path = workloads.write_inputs("street_acpf", 3, tmp_path)
    with tracing.Recorder() as rec:
        worker.run_once(path.read_text(), tmp_path, steps=12)
    m = rec.layer_metrics()
    run = next(i for i, s in enumerate(rec.spans) if s.name == "engine.run_simulation")
    children = sum(s.end - s.start for s in rec.spans if s.parent == run)
    assert m["engine.loop_self_s"] + children == pytest.approx(m["engine.run_simulation_s"])
    assert m["powerflow.solves"] == 12 and m["powerflow.converged_frac"] == 1.0
    assert m["grid.bus_index_calls"] > 0 and m["powerflow.linear_flops"] > 0


def test_probe_starts_no_garbage_collection():
    refclock.probe()
    before = gc.get_count()
    for _ in range(20):
        refclock.probe()
    assert gc.get_count() == before


def test_reference_clock_credits_the_probe_at_its_reference_time():
    # Timed on the reference clock, work made of probes takes REF_PROBE_S
    # a probe, however fast the CPU runs it.
    calls = 0
    with refclock.RefClock() as clock:
        start_wall, start = perf_counter(), clock.now()
        while perf_counter() - start_wall < 0.5:
            refclock.probe()
            calls += 1
        elapsed = clock.now() - start
    assert len(clock.probe_s) >= 10
    assert elapsed / calls == pytest.approx(refclock.REF_PROBE_S, rel=0.25)


def test_output_checks_flag_bad_tables():
    rows = [
        ResultRecord(0, 0, "h1", "p_demand", 800.0, "W"),
        ResultRecord(0, 0, "pv", "p_out", 300.0, "W"),
        ResultRecord(0, 0, "sub", "p_grid", 500.0, "W"),
    ]
    assert worker.check_outputs(rows, [], 1, 230.0) == []
    unbalanced = rows[:2] + [ResultRecord(0, 0, "sub", "p_grid", 501.0, "W")]
    assert "p_grid" in worker.check_outputs(unbalanced, [], 1, 230.0)[0]
    bad = [
        ResultRecord(0, 0, "b1", "v_mag", 260.0, "V"),
        ResultRecord(1, 1, "network", "losses", -1.0, "W"),
        ResultRecord(1, 1, "weather", "wind_speed", float("nan"), "m/s"),
    ]
    errors = worker.check_outputs(bad, [SummaryRow("x", "q", 0, 2, 1, 3, 4, 2)], 3, 230.0)
    for needle in ("nan", "v_mag", "negative losses", "distinct steps", "quartiles"):
        assert any(needle in e for e in errors), needle


def _run_bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_prints_every_metric_with_its_unit(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = str(workloads.DEFAULT_SEED)  # also checks the stored CSV hash
    proc = _run_bench("--workload", "street_acpf", "--seed", seed, "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)
    assert "nproc" in json.loads(lines[0])["environment"]
