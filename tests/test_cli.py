"""CLI contract: subcommands, exit codes, stream discipline."""

import csv
import hashlib
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import microgridsim
from microgridsim import (
    WeatherParams,
    bundled_scenario_path,
    bundled_scenario_text,
    emit_scenario,
    parse_scenario,
    weather_series,
    write_weather_csv,
)
from microgridsim.cli import cli_main
from conftest import loop_read_results_csv, make_random_scenario

CASE1 = str(bundled_scenario_path("case1"))
CASE2 = str(bundled_scenario_path("case2"))

# SHA-256 of `microgridsim run CASE [--solver SOLVER] --out FILE` and of
# `microgridsim summarize FILE` on stdout, per (case, solver override).
# A change to any of them changes printed digits, which must be deliberate.
GOLDEN_SHA256 = {
    ("case1", None): (
        "9039c28cad53944f73992006e9e5e665595e0c6490a67f5bc12616bb0eeb8798",
        "a1bc14237d15470fc8115e41dfe6a5fb1b36bd87c38eeb552080fd28f3a4c2b1",
    ),
    ("case2", None): (
        "68514917906778cf0b87c9eaf9cb174e55892a53b5acb396d1bdb0a765da9524",
        "d9af514f752600413cbdf7b4edd4e13794ae4b8f3e10f195b1ec429545ee2052",
    ),
    ("case2", "gs"): (
        "45ef0dacea9f52099151cc2421e36ee8059e4c50f0a1d8e30fdece4ea8788192",
        "187885e75c209357abb1d4f23ff22d04c4ba476d217b588074f696aeb079f5f0",
    ),
    ("case2_pv", None): (
        "f89226565572d99f7d2296613c70cfa9555512bebba5848faf9dfa6c22234915",
        "98ecfe1e16620e69add6a1819c141c247cdb41a0f43a284b2e916e999929e0f6",
    ),
    ("case2_pv", "gs"): (
        "8cc768010901f2c0f163b046533a9e7066a4fe9348671dd5e93b39c92f48ce1e",
        "2c62c180d436d782520897a239186c749da30e9d64f9eeaa4733a780b1f3e4af",
    ),
}


def run_module(*args: str, cwd: str | Path | None = None) -> subprocess.CompletedProcess:
    """Run `python -m microgridsim ARGS` in a child process, capturing text."""
    # The child finds the package where this process imported it from,
    # whether that came from PYTHONPATH or pytest's pythonpath setting.
    src = str(Path(microgridsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "microgridsim", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        cwd=cwd,
    )


class TestRun:
    def test_run_writes_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert cli_main(["run", CASE2, "--out", str(out)]) == 0
        assert out.exists()
        text = out.read_text()
        assert "step,hour,object,quantity,value,unit" in text
        assert capsys.readouterr().out == ""

    def test_run_to_stdout(self, capsys):
        assert cli_main(["run", CASE1, "--steps", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# steps = 2\n")
        assert "step,hour,object,quantity,value,unit" in out

    def test_missing_scenario_names_path(self, capsys):
        assert cli_main(["run", "missing.mgs"]) == 1
        err = capsys.readouterr().err
        assert "missing.mgs" in err

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["run", CASE1, "--seed", "7", "--out", str(a)]) == 0
        assert cli_main(["run", CASE1, "--seed", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flag_overrides_echoed(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli_main(
            ["run", CASE2, "--solver", "gs", "--steps", "3", "--out", str(out)]
        ) == 0
        head = out.read_text().splitlines()[:6]
        assert "# steps = 3" in head
        assert "# solver = gs" in head

    def test_weather_csv_flag(self, tmp_path, capsys):
        from microgridsim import WeatherParams, weather_series, write_weather_csv

        trace = tmp_path / "wx.csv"
        write_weather_csv(weather_series(WeatherParams(seed=4), 48), trace)
        out = tmp_path / "r.csv"
        code = cli_main(["run", CASE1, "--weather-csv", str(trace), "--out", str(out)])
        assert code == 0
        assert f"# weather_csv = {trace}" in out.read_text()

    def test_non_finite_weather_trace_exits_1(self, tmp_path, capsys):
        from microgridsim import WeatherParams, weather_series, write_weather_csv

        trace = tmp_path / "wx.csv"
        write_weather_csv(weather_series(WeatherParams(seed=4), 48), trace)
        lines = trace.read_text().splitlines()
        cells = lines[5].split(",")
        cells[3] = "nan"
        lines[5] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.csv"
        code = cli_main(["run", CASE1, "--weather-csv", str(trace), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "row 5: wind_speed_mps must be finite" in capsys.readouterr().err

    def test_duplicated_weather_step_exits_1(self, tmp_path, capsys):
        from microgridsim import WeatherParams, weather_series, write_weather_csv

        trace = tmp_path / "wx.csv"
        write_weather_csv(weather_series(WeatherParams(seed=4), 48), trace)
        lines = trace.read_text().splitlines()
        lines.insert(4, lines[3])
        trace.write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.csv"
        code = cli_main(["run", CASE1, "--weather-csv", str(trace), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "row 4: step must be 3, got 2" in capsys.readouterr().err

    def test_trace_out_of_step_with_start_hour_exits_1(self, tmp_path, capsys):
        from microgridsim import WeatherParams, weather_series, write_weather_csv

        trace = tmp_path / "wx.csv"
        write_weather_csv(weather_series(WeatherParams(seed=4), 48, start_hour=5), trace)
        out = tmp_path / "r.csv"
        code = cli_main(["run", CASE1, "--weather-csv", str(trace), "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert "step 0 is for hour 5" in capsys.readouterr().err

    def test_overflowing_s_base_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.mgs"
        text = bundled_scenario_text("case2")
        assert "s_base_va = 10000\n" in text
        bad.write_text(text.replace("s_base_va = 10000\n", "s_base_va = 1e999\n"))
        out = tmp_path / "r.csv"
        assert cli_main(["run", str(bad), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "bad.mgs:" in err and "'s_base_va' must be finite" in err

    def test_non_finite_result_exits_1(self, tmp_path, capsys):
        # Two 1e308 W loads are finite, but the grid's share of them is not.
        hot = tmp_path / "hot.mgs"
        text = bundled_scenario_text("case1")
        assert text.count("p_w = 800\n") == 3
        hot.write_text(text.replace("p_w = 800\n", "p_w = 1e308\n", 2))
        out = tmp_path / "r.csv"
        assert cli_main(["run", str(hot), "--steps", "24", "--out", str(out)]) == 1
        assert not out.exists()
        assert cli_main(["run", str(hot), "--steps", "24"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "step 0: utility p_grid is inf, not a finite number" in captured.err

    def test_non_convergent_run_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mgs"
        bad.write_text(
            bundled_scenario_text("case2").replace("p_w = 6000", "p_w = 90000000")
        )
        assert cli_main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "step 0" in err

    @pytest.mark.parametrize("solver", ["acpf", "gs"])
    def test_overflowing_solver_state_is_one_line_exit_2(self, tmp_path, solver):
        # One huge but finite reactive load passes validation; the solver's
        # state then overflows.  No numpy warning may reach the user.
        text = bundled_scenario_text("case2")
        assert "q_var = 0\n" in text
        huge = tmp_path / "huge.mgs"
        huge.write_text(text.replace("q_var = 0\n", "q_var = 1e308\n", 1))
        out = tmp_path / "r.csv"
        proc = run_module("run", str(huge), "--solver", solver, "--out", str(out))
        assert proc.returncode == 2
        assert not out.exists()
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"{huge}: power flow did not converge at step 0 ")

    @pytest.mark.parametrize(
        "solver, message",
        [
            ("acpf", "step 0: pivot 7 below 1e-12 (angle of bus 'ha4')"),
            ("gs", "power flow did not converge at step 0 "),
        ],
    )
    def test_singular_network_is_one_line_exit_2(self, tmp_path, solver, message):
        # A 1e10 ohm first line all but cuts the street off the slack: the
        # line is weak but not open, so the scenario passes validation,
        # the Newton-Raphson Jacobian is singular and Gauss-Seidel does not
        # converge.
        text = bundled_scenario_text("case2")
        assert "resistance_ohm = 0.006896\n" in text
        cut = tmp_path / "cut.mgs"
        cut.write_text(text.replace("resistance_ohm = 0.006896\n", "resistance_ohm = 1e10\n", 1))
        assert cli_main(["validate", str(cut)]) == 0
        out = tmp_path / "r.csv"
        proc = run_module("run", str(cut), "--solver", solver, "--out", str(out))
        assert proc.returncode == 2
        assert not out.exists()
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"{cut}: {message}")

    def test_scenario_errors_listed_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.mgs"
        bad.write_text("[simulation]\nsteps = nope\n")
        assert cli_main(["run", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.mgs:2:" in err


def _case2_with(tmp: Path, *changes: tuple[str, str]) -> str:
    text = bundled_scenario_text("case2")
    for old, new in changes:
        assert old in text
        text = text.replace(old, new)
    path = tmp / "bases.mgs"
    path.write_text(text)
    return str(path)


def _case1_with(tmp: Path, *changes: tuple[str, str]) -> str:
    text = bundled_scenario_text("case1")
    for old, new in changes:
        assert old in text
        text = text.replace(old, new)
    path = tmp / "weather.mgs"
    path.write_text(text)
    return str(path)


def _trace(tmp: Path, edit=lambda data: data) -> str:
    """A 48-step weather trace, its bytes passed through edit."""
    path = tmp / "wx.csv"
    write_weather_csv(weather_series(WeatherParams(seed=4), 48), path)
    path.write_bytes(edit(path.read_bytes()))
    return str(path)


def _case1_tracing(tmp: Path, edit) -> str:
    """case1 with a `trace = wx.csv` weather section, the trace edited by edit."""
    _trace(tmp, edit)
    scenario = parse_scenario(bundled_scenario_text("case1"))
    path = tmp / "traced.mgs"
    path.write_text(emit_scenario(replace(scenario, weather=None, weather_trace="wx.csv")))
    return str(path)


def _not_utf8(data: bytes) -> bytes:
    return data.replace(b"step", b"st\xffp", 1)


def _bad_row(data: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[5] = lines[5].replace(b",", b",x", 1)
    return b"\n".join(lines)


def _long_cell(data: bytes) -> bytes:
    """Data row 5's step cell made 140,000 digits long, over csv's field limit."""
    lines = data.split(b"\n")
    lines[5] = b"1" * 140_000 + lines[5]
    return b"\n".join(lines)


def _repeated_hour(data: bytes) -> bytes:
    return data.replace(b"temperature_c\n", b"temperature_c,hour\n", 1)


def _not_utf8_scenario(tmp: Path) -> str:
    path = tmp / "latin1.mgs"
    path.write_bytes(b"# caf\xe9\n" + bundled_scenario_text("case1").encode())
    return str(path)


_HUGE_V = ("v_base_v = 230\n", "v_base_v = 1e200\n")
# case2's first line, seg_a1, at 1e15 ohm is open in floating point.
_OPEN_SEG_A1 = ("to = a1\nresistance_ohm = 0.006896\n", "to = a1\nresistance_ohm = 1e15\n")
_OPEN_SEG_A1_ERROR = (
    "bases.mgs:107:1: semantic_conflict: buses unreachable from 'f': 'a1', 'a2', 'a3', 'a4', "
    "'ha1', 'ha2', 'ha3', 'ha4'; open in floating point: line 'seg_a1' "
    "(|1/z| at most 6.9e-18 of each end's sum)"
)
# At 1e-320 ohm seg_a1's 1/z overflows, and at 1e-308 ohm its per-unit 1/z does.
_SUBNORMAL_SEG_A1 = ("to = a1\nresistance_ohm = 0.006896\n", "to = a1\nresistance_ohm = 1e-320\n")
_SUBNORMAL_SEG_A1_ERROR = (
    "bases.mgs:111:18: semantic_conflict: line 'seg_a1' impedance 1e-320 + j0.0 ohm is too small: "
    "its 1/z is not finite"
)
# seg_a1 and a parallel copy at 1e-308 ohm: at f and at a1 their 1/z sum past the largest float.
_PARALLEL_NEAR_SHORTS = (
    "[line]\nid = seg_a1\nfrom = f\nto = a1\nresistance_ohm = 0.006896\n",
    "[line]\nid = seg_a1\nfrom = f\nto = a1\nresistance_ohm = 1e-308\n\n"
    "[line]\nid = seg_a1b\nfrom = f\nto = a1\nresistance_ohm = 1e-308\n",
)
_PARALLEL_NEAR_SHORTS_ERROR = (
    "bases.mgs:22:1: semantic_conflict: near-short lines: the sum of 1/z is not finite at "
    "bus 'f' (line 'seg_a1', line 'seg_a1b', line 'seg_b1'), bus 'a1' (line 'seg_a1', "
    "line 'seg_a1b', line 'seg_a2', line 'tap_a1')"
)
# At 1e-300 ohm seg_a1 is valid, but swamps its neighbours in rounding.
_NEAR_SHORT_SEG_A1 = ("to = a1\nresistance_ohm = 0.006896\n", "to = a1\nresistance_ohm = 1e-300\n")
_TINY_SEG_A1 = ("to = a1\nresistance_ohm = 0.006896\n", "to = a1\nresistance_ohm = 1e-308\n")
_TINY_Z = (
    ("s_base_va = 10000\n", "s_base_va = 1e308\n"),
    ("v_base_v = 230\n", "v_base_v = 1e-150\n"),
)

_HUGE_STEPS = ("steps = 48\n", "steps = " + "9" * 31 + "\n")

# (argv, stderr text) of inputs that each must exit 1 with one line per
# problem and no traceback; "{out}" is the --out path.
BAD_INPUTS = {
    "steps 0": (lambda tmp: ["run", CASE1, "--steps", "0"], "--steps must be >= 1, got 0"),
    "steps 87601": (
        lambda tmp: ["run", CASE1, "--steps", "87601"],
        "--steps must be <= 87600, got 87601",
    ),
    "steps 10**30": (
        lambda tmp: ["run", CASE1, "--steps", str(10**30)],
        f"--steps must be <= 87600, got {10**30}",
    ),
    "seed -1": (lambda tmp: ["run", CASE1, "--seed", "-1"], "--seed must be >= 0, got -1"),
    "seed 2**64": (
        lambda tmp: ["run", CASE1, "--seed", str(2**64)],
        f"--seed must be <= {2**64 - 1}, got {2**64}",
    ),
    "run non-UTF-8 scenario": (
        lambda tmp: ["run", _not_utf8_scenario(tmp)],
        "latin1.mgs: not UTF-8 text (invalid continuation byte)",
    ),
    "validate non-UTF-8 scenario": (
        lambda tmp: ["validate", _not_utf8_scenario(tmp)],
        "latin1.mgs: not UTF-8 text (invalid continuation byte)",
    ),
    "non-UTF-8 --weather-csv": (
        lambda tmp: ["run", CASE1, "--weather-csv", _trace(tmp, _not_utf8)],
        "wx.csv: not UTF-8 text (invalid start byte)",
    ),
    "missing --weather-csv": (
        lambda tmp: ["run", CASE1, "--weather-csv", str(tmp / "absent.csv")],
        "No such file or directory",
    ),
    "bad row in --weather-csv": (
        lambda tmp: ["run", CASE1, "--weather-csv", _trace(tmp, _bad_row)],
        "wx.csv: row 5: non-numeric cell",
    ),
    "--weather-csv cell over the csv field limit": (
        lambda tmp: ["run", CASE1, "--weather-csv", _trace(tmp, _long_cell)],
        f"wx.csv: row 5: field larger than field limit ({csv.field_size_limit()})",
    ),
    "--weather-csv with a repeated column": (
        lambda tmp: ["run", CASE1, "--weather-csv", _trace(tmp, _repeated_hour)],
        "wx.csv: duplicate column(s): hour",
    ),
    "non-UTF-8 trace entry": (
        lambda tmp: ["run", _case1_tracing(tmp, _not_utf8)],
        "wx.csv: not UTF-8 text (invalid start byte)",
    ),
    "bad row in trace entry": (
        lambda tmp: ["run", _case1_tracing(tmp, _bad_row)],
        "wx.csv: row 5: non-numeric cell",
    ),
    "run overflowing impedance base": (
        lambda tmp: ["run", _case2_with(tmp, _HUGE_V)],
        "semantic_conflict: v_base_v = 1e+200 with s_base_va = 10000: impedance base",
    ),
    "validate overflowing impedance base": (
        lambda tmp: ["validate", _case2_with(tmp, _HUGE_V)],
        "semantic_conflict: v_base_v = 1e+200 with s_base_va = 10000: impedance base",
    ),
    "run overflowing wind": (
        lambda tmp: ["run", _case1_with(tmp, ("weibull_shape = 2\n", "weibull_shape = 1e-320\n"))],
        "weather.mgs: weibull_shape = 1e-320 with weibull_scale = 9.0 gives an infinite wind speed",
    ),
    "run overflowing temperature": (
        lambda tmp: ["run", _case1_with(tmp, ("temp_mean_c = 15\n", "temp_mean_c = 1e308\n"),
                                        ("temp_amplitude_c = 5\n", "temp_amplitude_c = 1e308\n"))],
        "weather.mgs: temp_mean = 1e+308 with temp_amplitude = 1e+308 gives an infinite temperature",
    ),
    "run underflowing impedance base": (
        lambda tmp: ["run", _case2_with(tmp, *_TINY_Z), "--solver", "simple"],
        "semantic_conflict: v_base_v = 1e-150 with s_base_va = 1e+308: impedance base",
    ),
    "validate open line": (
        lambda tmp: ["validate", _case2_with(tmp, _OPEN_SEG_A1)],
        _OPEN_SEG_A1_ERROR,
    ),
    **{
        f"run {solver} open line": (
            lambda tmp, solver=solver: ["run", _case2_with(tmp, _OPEN_SEG_A1), "--solver", solver],
            _OPEN_SEG_A1_ERROR,
        )
        for solver in ("acpf", "gs", "simple")
    },
    "validate subnormal line": (
        lambda tmp: ["validate", _case2_with(tmp, _SUBNORMAL_SEG_A1)],
        _SUBNORMAL_SEG_A1_ERROR,
    ),
    **{
        f"run {solver} subnormal line": (
            lambda tmp, solver=solver: [
                "run", _case2_with(tmp, _SUBNORMAL_SEG_A1), "--solver", solver
            ],
            _SUBNORMAL_SEG_A1_ERROR,
        )
        for solver in ("acpf", "gs", "simple")
    },
    **{
        f"run {solver} line with a subnormal per-unit impedance": (
            lambda tmp, solver=solver: ["run", _case2_with(tmp, _TINY_SEG_A1), "--solver", solver],
            "bases.mgs: line 'seg_a1' impedance 1.890359168241964e-309 + j0.0 pu is too small: "
            "its 1/z is not finite",
        )
        for solver in ("acpf", "gs")
    },
    **{
        f"run {solver} near-short line": (
            lambda tmp, solver=solver: [
                "run", _case2_with(tmp, _NEAR_SHORT_SEG_A1), "--solver", solver
            ],
            "bases.mgs: step 0: p_grid + injections - losses is -39359.6 W, beyond the 0.0016 W",
        )
        for solver in ("acpf", "gs")
    },
    **{
        f"{command} parallel near-shorts": (
            lambda tmp, command=command: [*command.split(), _case2_with(tmp, _PARALLEL_NEAR_SHORTS)],
            _PARALLEL_NEAR_SHORTS_ERROR,
        )
        for command in ("validate", "run --solver acpf", "run --solver gs", "run --solver simple")
    },
    # int() reads 31 digits; the bound rejects them before any allocation.
    **{
        f"{command} steps above the bound": (
            lambda tmp, command=command: [command, _case2_with(tmp, _HUGE_STEPS)],
            f"bases.mgs:7:9: type_mismatch: key 'steps' expects an integer <= 87600, got '{'9' * 31}'",
        )
        for command in ("validate", "run")
    },
    "validate underflowing impedance base": (
        lambda tmp: ["validate", _case2_with(tmp, *_TINY_Z)],
        "semantic_conflict: v_base_v = 1e-150 with s_base_va = 1e+308: impedance base",
    ),
}


class TestBadInput:
    @pytest.mark.parametrize("case", BAD_INPUTS)
    def test_one_line_exit_1_and_no_file(self, tmp_path, capsys, case):
        make_argv, message = BAD_INPUTS[case]
        argv = make_argv(tmp_path)
        out = tmp_path / "r.csv"
        if argv[0] == "run":
            argv += ["--out", str(out)]
        assert cli_main(argv) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert message in line
        assert captured.out in ("", "1 diagnostics\n")

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_weather_csv_path_holding_lf_writes_nothing(self, tmp_path, capsys, to_file):
        # The path is echoed in a '# weather_csv = ' line, which an LF would
        # split into a line that the results reader rejects.
        directory = tmp_path / "a\nb"
        directory.mkdir()
        trace = _trace(directory)
        out = tmp_path / "r.csv"
        argv = ["run", CASE1, "--weather-csv", trace] + (["--out", str(out)] if to_file else [])
        assert cli_main(argv) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        refusal = f"config comment 'weather_csv': value {trace!r} holds an LF"
        assert line == f"{CASE1}: cannot write results: {refusal}"

    def test_relative_weather_csv_resolves_against_the_working_directory(self, tmp_path):
        # The scenario lives elsewhere, so resolving against its directory fails.
        trace = _trace(tmp_path)
        proc = run_module("run", CASE1, "--weather-csv", "wx.csv", "--out", "r.csv", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        text = (tmp_path / "r.csv").read_text()
        expected = tmp_path / "expected.csv"
        assert cli_main(["run", CASE1, "--weather-csv", trace, "--out", str(expected)]) == 0
        # The trace is echoed as given; the results are those of its absolute path.
        as_given = f"# weather_csv = {trace}\n", "# weather_csv = wx.csv\n"
        assert text == expected.read_text().replace(*as_given)


class TestLongInteger:
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_steps_of_5000_digits_is_one_located_line(self, tmp_path, capsys, command):
        scenario = _case2_with(tmp_path, ("steps = 48\n", "steps = " + "9" * 5000 + "\n"))
        out = tmp_path / "r.csv"
        argv = [command, scenario] + (["--out", str(out)] if command == "run" else [])
        assert cli_main(argv) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert line.startswith(f"{scenario}:7:9: semantic_conflict: key 'steps' has 5000 digits")


class TestRunProperty:
    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), write_trace=st.booleans())
    def test_run_writes_finite_values_or_no_file(self, tmp_path_factory, seed, write_trace):
        # A drawn radial scenario either runs, and every value in its CSV
        # is finite, or fails with exit code 1 or 2 and writes no file.  A
        # scenario that names a weather trace finds it only if one is written.
        directory = tmp_path_factory.mktemp("run")
        scenario = make_random_scenario(random.Random(seed))
        cfg = scenario.config
        if scenario.weather_trace is not None and write_trace:
            samples = weather_series(WeatherParams(seed=cfg.seed), cfg.steps, cfg.start_hour)
            write_weather_csv(samples, directory / scenario.weather_trace)
        path = directory / "drawn.mgs"
        path.write_text(emit_scenario(scenario))
        out = directory / "r.csv"
        code = cli_main(["run", str(path), "--out", str(out)])
        if code == 0:
            assert loop_read_results_csv(out)  # raises on a non-finite value
        else:
            assert code in (1, 2)
            assert not out.exists()


class TestValidate:
    def test_bundled_scenarios_clean(self, capsys):
        for name in ("case1", "case2", "case2_pv"):
            assert cli_main(["validate", str(bundled_scenario_path(name))]) == 0
            assert capsys.readouterr().out.strip() == "0 diagnostics"

    def test_invalid_scenario_counts(self, tmp_path, capsys):
        bad = tmp_path / "bad.mgs"
        bad.write_text("[simulation]\nsteps = 4\nstart_hour = 0\nsolver = acpf\nseed = 1\n")
        assert cli_main(["validate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "diagnostics" in captured.out
        assert captured.out.strip() != "0 diagnostics"
        assert captured.err != ""


class TestSummarize:
    def test_summary_of_run(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cli_main(["run", CASE1, "--out", str(out)])
        capsys.readouterr()
        assert cli_main(["summarize", str(out), "--quantity", "p_grid"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "object,quantity,min,q1,median,q3,max,mean"
        assert len(lines) == 2
        assert lines[1].startswith("utility,p_grid,")

    def test_all_quantities_by_default(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cli_main(["run", CASE1, "--steps", "5", "--out", str(out)])
        capsys.readouterr()
        assert cli_main(["summarize", str(out)]) == 0
        out_lines = capsys.readouterr().out.splitlines()
        quantities = {line.split(",")[1] for line in out_lines[1:]}
        assert {"cloud_factor", "p_grid", "p_out", "p_demand"} <= quantities

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_exits_1(self, tmp_path, capsys, value):
        out = tmp_path / "r.csv"
        out.write_text(f"step,hour,object,quantity,value,unit\n0,0,a,p_out,1,W\n1,1,a,p_out,{value},W\n")
        assert cli_main(["summarize", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{out}: row 3: value {value} is not a finite number\n"

    @pytest.mark.parametrize(
        "values, message",
        [
            (["1e308", "1e308"], "a p_out: mean is inf, not a finite number"),
            (["-1e308", "1e308", "1e308", "1e308"], "a p_out: q1 is -inf, not a finite number"),
        ],
    )
    def test_overflowing_statistic_exits_1(self, tmp_path, capsys, values, message):
        out = tmp_path / "r.csv"
        rows = "".join(f"{step},0,a,p_out,{value},W\n" for step, value in enumerate(values))
        out.write_text("step,hour,object,quantity,value,unit\n0,0,b,losses,5,W\n" + rows)
        assert cli_main(["summarize", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_non_utf8_file_exits_1(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        # 5,000 rows: the bad byte sits in the second block of rows.
        cli_main(["run", CASE1, "--steps", "500", "--out", str(out)])
        data = out.read_bytes()
        at = data.rindex(b"turbine")
        out.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        capsys.readouterr()
        assert cli_main(["summarize", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{out}: not UTF-8 text")

    def test_cell_over_the_csv_field_limit_exits_1(self, tmp_path, capsys):
        # numpy could read the long name; the csv module rejects it, so
        # the file is not accepted.
        out = tmp_path / "r.csv"
        name = "a" * 140_000
        out.write_text(f"step,hour,object,quantity,value,unit\n0,0,a,p_out,1,W\n1,1,{name},p_out,2,W\n")
        assert cli_main(["summarize", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        limit = csv.field_size_limit()
        assert captured.err == f"{out}: row 3: field larger than field limit ({limit})\n"

    def test_unknown_quantity(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        cli_main(["run", CASE1, "--steps", "2", "--out", str(out)])
        capsys.readouterr()
        assert cli_main(["summarize", str(out), "--quantity", "frequency"]) == 1
        assert "available" in capsys.readouterr().err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert cli_main([]) == 1
        assert capsys.readouterr().err != ""

    def test_unknown_subcommand(self, capsys):
        assert cli_main(["explode"]) == 1

    def test_bad_steps_value(self, capsys):
        assert cli_main(["run", CASE1, "--steps", "0"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "run" in capsys.readouterr().out

    def test_module_entry_point(self):
        proc = run_module("validate", CASE1)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0 diagnostics"


@pytest.mark.parametrize("case, solver", list(GOLDEN_SHA256))
def test_bundled_outputs_byte_identical(tmp_path, capsys, case, solver):
    out = tmp_path / "r.csv"
    flags = ["--solver", solver] if solver else []
    assert cli_main(["run", str(bundled_scenario_path(case)), *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli_main(["summarize", str(out)]) == 0
    summary = capsys.readouterr().out.encode("utf-8")
    digests = tuple(hashlib.sha256(data).hexdigest() for data in (out.read_bytes(), summary))
    assert digests == GOLDEN_SHA256[case, solver]
