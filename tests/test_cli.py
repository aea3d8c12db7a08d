"""CLI contract: subcommands, exit codes, stream discipline."""

import hashlib
import os
import random
import subprocess
import sys
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
    weather_series,
    write_weather_csv,
)
from microgridsim.cli import cli_main
from conftest import loop_read_results_csv, make_random_scenario, overheated_case1_text

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


def run_module(*args: str) -> subprocess.CompletedProcess:
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
        hot = tmp_path / "hot.mgs"
        hot.write_text(overheated_case1_text())
        out = tmp_path / "r.csv"
        assert cli_main(["run", str(hot), "--steps", "24", "--out", str(out)]) == 1
        assert not out.exists()
        assert cli_main(["run", str(hot), "--steps", "24"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "step 13: weather temperature is inf, not a finite number" in captured.err

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

    def test_scenario_errors_listed_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.mgs"
        bad.write_text("[simulation]\nsteps = nope\n")
        assert cli_main(["run", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "bad.mgs:2:" in err


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
