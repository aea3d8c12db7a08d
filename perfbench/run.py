"""microgridsim benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: one fresh worker process per repetition, one at
a time, with BLAS pinned to one thread.  Times are in seconds of the
reference clock of refclock.py, which takes out the speed drift of a
shared CPU; the wall times go to standard error.  Before the timed repetitions, one
untimed repetition at DEFAULT_SEED checks the results CSV byte for byte
against expected_sha256.json.  Every repetition's CSV goes through the
output checks in worker.py; a repetition that raises, fails a check or
times out counts as failed and gives no timings.

With --trace 0 the last line carries the end-to-end metrics, medians over
the repetitions.  With --trace 1 repetitions alternate untraced and
traced, and it carries the per-layer metrics of the traced ones plus
trace.overhead_s, the traced minus the untraced median run_s.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "summarize_s": "s", "peak_rss_mb": "MB"}
WORKER_TIMEOUT_S = 40.0
# No repetition starts after this much time has passed, so the whole run
# ends well inside three minutes.
START_DEADLINE_S = 120.0


def layer_unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_s", "s"), ("_frac", "1"), ("_flops", "flop"), ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def run_worker(scenario: Path, out_dir: Path, traced: bool, rep: int) -> dict:
    """One repetition; returns the worker's result plus setup_s, or an error."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "worker.py"), str(scenario), str(out_dir), str(int(traced)), str(rep)]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)[0]:
            raise subprocess.TimeoutExpired(cmd, WORKER_TIMEOUT_S)
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"worker timed out after {WORKER_TIMEOUT_S:.0f} s"]}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        tail = (err.strip().splitlines() or ["no output"])[-1]
        return {"errors": [f"worker exited {proc.returncode}: {tail}"]}
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_wall_s"] = setup_s
    result["setup_s"] = setup_s * result["setup_factor"]
    return result


def environment(reps: list[dict]) -> dict:
    import numpy

    import refclock

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned": PINNED_ENV,
        "ref_clock": {
            "interval_s": refclock.INTERVAL_S,
            "ref_probe_s": refclock.REF_PROBE_S,
            "median_probe_s": statistics.median(r["probe_s"] for r in reps if "probe_s" in r),
        },
    }


def failed_reps(reps: list[dict]) -> int:
    return sum(1 for r in reps if r["errors"])


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so that a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "microgridsim" / "__init__.py").is_file():
        log(f"error: no microgridsim sources under {SRC}")
        return 2
    os.environ.update(PINNED_ENV)  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; have {', '.join(workloads.WORKLOADS)}")
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        log("error: --seed must fit in 0..2**64-1 and --seconds must be > 0")
        return 2
    expected = json.loads((HERE / "expected_sha256.json").read_text())[args.workload]

    began = perf_counter()
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    reps: list[dict] = []

    def attempt(seed: int, traced: bool, timed: bool) -> None:
        out_dir = WORK / args.workload / f"seed{seed}"
        scenario = out_dir / workloads.SCENARIO_NAME
        if not scenario.exists():
            workloads.write_inputs(args.workload, seed, out_dir)
        r = run_worker(scenario, out_dir, traced, len(reps))
        if seed == workloads.DEFAULT_SEED and r.get("sha256", expected) != expected:
            r["errors"].append(f"CSV sha256 {r['sha256']} != stored {expected}")
        r.update(timed=timed, traced=traced)
        reps.append(r)
        log(
            f"rep {len(reps) - 1} seed={seed} traced={int(traced)} timed={int(timed)} "
            + " ".join(
                f"{k}={r[k]:.4f}"
                for k in ("setup_s", "setup_wall_s", "run_s", "run_wall_s", "summarize_s", "probe_s")
                if k in r
            )
            + (f" sha256={r['sha256']}" if "sha256" in r else "")
            + "".join(f"\n  error: {e}" for e in r["errors"])
        )

    if args.seed != workloads.DEFAULT_SEED:
        attempt(workloads.DEFAULT_SEED, traced=False, timed=False)
    start = perf_counter()
    need_traced = args.trace == 1
    while True:
        timed = [r for r in reps if r["timed"] and not r["errors"]]
        enough = perf_counter() - start >= args.seconds
        have_both = not need_traced or {r["traced"] for r in timed} == {False, True}
        if (enough and (have_both or failed_reps(reps))) or perf_counter() - began > START_DEADLINE_S:
            break
        # In trace mode alternate untraced and traced repetitions.
        attempt(args.seed, traced=need_traced and len(timed) % 2 == 1, timed=True)

    failed = failed_reps(reps)
    good = [r for r in reps if r["timed"] and not r["errors"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if not plain or (need_traced and not traced):
        log("error: no repetition succeeded")
        return 1

    if need_traced:
        values = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        values["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced) - statistics.median(r["run_s"] for r in plain)
        )
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        metrics = {
            k: {"value": statistics.median(r[k] for r in plain), "unit": unit}
            for k, unit in END_TO_END_UNITS.items()
        }

    print(json.dumps({"environment": environment(good), "workload": args.workload, "seed": args.seed}))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
