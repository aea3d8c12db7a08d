"""Scenario DSL: parsing, error reporting, canonical emission, round-trips."""

import cmath
import dataclasses
import hashlib
import math
import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from microgridsim import (
    Bus,
    BusKind,
    GridConnection,
    Line,
    LoadDevice,
    Network,
    ParseErrorKind,
    Scenario,
    ScenarioFormatError,
    SimulationConfig,
    SolarPanel,
    WeatherParams,
    WindTurbine,
    bundled_scenario_text,
    emit_scenario,
    parse_scenario,
    validate,
)
from microgridsim.grid import FIELD_BOUNDS
from microgridsim.scenario import _NUMBER_RE, _SCHEMA
from conftest import make_random_scenario, scenarios_close

MINIMAL = """\
[simulation]
steps = 4
start_hour = 0
solver = acpf
seed = 9

[bus]
id = root
kind = slack
nominal_voltage_v = 230

[bus]
id = leaf
kind = pq
nominal_voltage_v = 230

[line]
id = wire
from = root
to = leaf
resistance_ohm = 0.01

[load]
id = sink
bus = leaf
p_w = 500
"""


def errors_of(text):
    with pytest.raises(ScenarioFormatError) as exc:
        parse_scenario(text)
    return exc.value.errors


class TestParseBasics:
    def test_minimal_scenario(self):
        s = parse_scenario(MINIMAL)
        assert [b.id for b in s.network.buses] == ["root", "leaf"]
        assert s.network.buses[0].kind is BusKind.SLACK
        assert s.config.steps == 4
        assert s.config.v_base_v == 230.0  # defaults to the bus voltage
        assert s.config.s_base_va == 10000.0
        assert s.weather is not None and s.weather_trace is None
        assert s.weather.seed == 9

    def test_bundled_case1_contents(self):
        s = parse_scenario(bundled_scenario_text("case1"))
        assert sum(b.kind is BusKind.SLACK for b in s.network.buses) == 1
        assert len(s.network.loads) == 3
        assert len(s.network.winds) == 1
        assert len(s.network.pvs) == 2
        assert s.config.solver == "simple"

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL.replace(
            "steps = 4", "steps = 4  # two days would be 48"
        )
        assert parse_scenario(text).config.steps == 4

    def test_defaults_materialized(self):
        s = parse_scenario(MINIMAL)
        assert s.network.lines[0].reactance == 0.0
        assert s.network.loads[0].reactive_power == 0.0

    def test_weather_trace_variant(self):
        text = MINIMAL + "\n[weather]\ntrace = wx.csv\n"
        s = parse_scenario(text)
        assert s.weather is None
        assert s.weather_trace == "wx.csv"


def _line_containing(text, line_no):
    return text.splitlines()[line_no - 1]


class TestParseErrors:
    def test_missing_required_key(self):
        text = MINIMAL.replace("id = root\n", "")
        errs = errors_of(text)
        assert len(errs) == 1
        assert errs[0].kind is ParseErrorKind.MISSING_REQUIRED
        assert "[bus]" in _line_containing(text, errs[0].line)

    def test_type_mismatch_cites_value(self):
        text = MINIMAL.replace("resistance_ohm = 0.01", "resistance_ohm = abc")
        errs = errors_of(text)
        assert len(errs) == 1
        assert errs[0].kind is ParseErrorKind.TYPE_MISMATCH
        line = _line_containing(text, errs[0].line)
        assert "abc" in line
        assert line[errs[0].column - 1 :].startswith("abc")

    def test_unknown_key(self):
        text = MINIMAL.replace("p_w = 500", "p_w = 500\nwattage = 3")
        errs = errors_of(text)
        assert [e.kind for e in errs] == [ParseErrorKind.UNKNOWN_KEY]
        assert "wattage" in _line_containing(text, errs[0].line)

    def test_unknown_section(self):
        errs = errors_of(MINIMAL + "\n[battery]\nid = b\n")
        assert errs[0].kind is ParseErrorKind.UNKNOWN_KEY
        assert "battery" in errs[0].message

    def test_syntax_error_line(self):
        text = MINIMAL + "\nthis is not an entry\n"
        errs = errors_of(text)
        assert errs[0].kind is ParseErrorKind.SYNTAX
        assert "this is not an entry" in _line_containing(text, errs[0].line)

    def test_entry_before_any_section(self):
        errs = errors_of("steps = 4\n" + MINIMAL)
        assert errs[0].kind is ParseErrorKind.SYNTAX
        assert errs[0].line == 1

    def test_duplicate_key_in_section(self):
        text = MINIMAL.replace("p_w = 500", "p_w = 500\np_w = 600")
        errs = errors_of(text)
        assert errs[0].kind is ParseErrorKind.SEMANTIC_CONFLICT
        assert "p_w" in errs[0].message

    def test_duplicate_object_id(self):
        text = MINIMAL + "\n[load]\nid = sink\nbus = leaf\np_w = 10\n"
        errs = errors_of(text)
        assert errs[0].kind is ParseErrorKind.SEMANTIC_CONFLICT
        assert "sink" in errs[0].message

    def test_reserved_id(self):
        text = MINIMAL.replace("id = sink", "id = weather")
        errs = errors_of(text)
        assert "reserved" in errs[0].message

    def test_dangling_bus_reference_cites_entry(self):
        text = MINIMAL.replace("to = leaf", "to = h9")
        errs = errors_of(text)
        dangling = [e for e in errs if "h9" in e.message]
        assert len(dangling) == 1
        assert dangling[0].kind is ParseErrorKind.SEMANTIC_CONFLICT
        cited = _line_containing(text, dangling[0].line)
        assert "h9" in cited
        assert cited[dangling[0].column - 1 :].startswith("h9")

    def test_two_slack_buses(self):
        text = MINIMAL.replace("kind = pq", "kind = slack")
        errs = errors_of(text)
        assert any("slack" in e.message for e in errs)

    def test_missing_simulation_section(self):
        text = MINIMAL.split("[bus]", 1)[1]
        errs = errors_of("[bus]" + text)
        assert any(
            e.kind is ParseErrorKind.MISSING_REQUIRED and "simulation" in e.message
            for e in errs
        )

    def test_repeated_simulation_section(self):
        errs = errors_of(MINIMAL + "\n[simulation]\nsteps = 9\n")
        assert any(e.kind is ParseErrorKind.SEMANTIC_CONFLICT for e in errs)

    def test_trace_and_params_conflict(self):
        errs = errors_of(MINIMAL + "\n[weather]\ntrace = wx.csv\ncloud_step = 0.1\n")
        assert any(e.kind is ParseErrorKind.SEMANTIC_CONFLICT for e in errs)

    def test_solver_enum(self):
        errs = errors_of(MINIMAL.replace("solver = acpf", "solver = fdlf"))
        assert errs[0].kind is ParseErrorKind.TYPE_MISMATCH

    def test_seed_range(self):
        errs = errors_of(MINIMAL.replace("seed = 9", f"seed = {2**64}"))
        assert errs[0].kind is ParseErrorKind.TYPE_MISMATCH

    def test_negative_resistance(self):
        errs = errors_of(MINIMAL.replace("resistance_ohm = 0.01", "resistance_ohm = -1"))
        assert errs[0].kind is ParseErrorKind.TYPE_MISMATCH

    def test_overflowing_number_cites_entry(self):
        # 1e999 matches the number syntax but parses to inf.
        text = MINIMAL.replace("p_w = 500", "p_w = 1e999")
        errs = errors_of(text)
        assert len(errs) == 1
        assert errs[0].kind is ParseErrorKind.SEMANTIC_CONFLICT
        assert "must be finite" in errs[0].message
        assert _line_containing(text, errs[0].line).startswith("p_w = 1e999")

    @pytest.mark.parametrize(
        "key", ["s_base_va", "v_base_v", "weibull_scale_mps", "temp_mean_c"]
    )
    def test_overflowing_number_rejected_in_every_section(self, key):
        if key in ("s_base_va", "v_base_v"):
            text = MINIMAL.replace("seed = 9", f"seed = 9\n{key} = 1e999")
        else:
            text = MINIMAL + f"\n[weather]\n{key} = 1e999\n"
        errs = errors_of(text)
        assert len(errs) == 1
        assert errs[0].kind is ParseErrorKind.SEMANTIC_CONFLICT
        assert "must be finite" in errs[0].message
        line = _line_containing(text, errs[0].line)
        assert line == f"{key} = 1e999"
        assert line[errs[0].column - 1 :] == "1e999"

    def test_bad_id_charset(self):
        errs = errors_of(MINIMAL.replace("id = sink", "id = Sink"))
        assert errs[0].kind is ParseErrorKind.TYPE_MISMATCH

    def test_all_errors_reported_together(self):
        text = MINIMAL.replace("steps = 4", "steps = oops").replace(
            "p_w = 500", "p_w = many"
        )
        assert len(errors_of(text)) == 2

    def test_error_lines_contain_offending_tokens(self):
        # Battery of malformed inputs; every reported line must contain the token.
        cases = [
            (MINIMAL.replace("resistance_ohm = 0.01", "resistance_ohm = bogus"), "bogus"),
            (MINIMAL + "\n[load]\nid = z!\nbus = leaf\np_w = 1\n", "z!"),
            (MINIMAL + "\nnot_an_entry\n", "not_an_entry"),
            (MINIMAL.replace("solver = acpf", "solver = magic"), "magic"),
            (MINIMAL.replace("p_w = 500", "p_w = 500\nmystery_key = 1"), "mystery_key"),
        ]
        for text, token in cases:
            errs = errors_of(text)
            assert any(token in _line_containing(text, e.line) for e in errs), token

    @pytest.mark.parametrize(
        "section, entry, kind, message",
        [
            (
                "[wind]\nid = turbine\nbus = root\npeak_w = 1500\n"
                "cut_in_mps = 5\nrated_mps = 4\ncut_out_mps = 30\n",
                "rated_mps = 4",
                ParseErrorKind.SEMANTIC_CONFLICT,
                "wind 'turbine' needs 0 <= cut_in < rated < cut_out",
            ),
            (
                "[grid]\nid = utility\nbus = leaf\n",
                "bus = leaf",
                ParseErrorKind.SEMANTIC_CONFLICT,
                "grid connection 'utility' must sit on the slack bus",
            ),
            (
                "[weather]\ntrace = my wx.csv\n",
                "trace = my wx.csv",
                ParseErrorKind.TYPE_MISMATCH,
                "key 'trace' expects a path without whitespace, got 'my wx.csv'",
            ),
        ],
    )
    def test_rule_cites_its_entry(self, section, entry, kind, message):
        text = MINIMAL + "\n" + section
        (err,) = errors_of(text)
        assert (err.kind, err.message) == (kind, message)
        assert _line_containing(text, err.line) == entry
        assert err.column == entry.index("= ") + 3

    def test_open_line_cites_its_section(self):
        text = bundled_scenario_text("case2")
        assert "resistance_ohm = 0.006896\n" in text
        text = text.replace("resistance_ohm = 0.006896\n", "resistance_ohm = 1e15\n", 1)
        (err,) = errors_of(text)
        assert err.kind is ParseErrorKind.SEMANTIC_CONFLICT
        assert (_line_containing(text, err.line + 1), err.column) == ("id = seg_a1", 1)
        assert "open in floating point: line 'seg_a1'" in err.message


CONFIG = SimulationConfig(steps=4, start_hour=0, solver="acpf", seed=9)


class TestSimulationConfigBounds:
    """Every SimulationConfig, however made, holds values its keys accept."""

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"steps": 0}, "steps must be >= 1, got 0"),
            ({"steps": 87_601}, "steps must be <= 87600, got 87601"),
            ({"start_hour": -1}, "start_hour must be >= 0, got -1"),
            ({"start_hour": 24}, "start_hour must be <= 23, got 24"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"seed": 2**64}, f"seed must be <= {2**64 - 1}, got {2**64}"),
            ({"s_base_va": 0.0}, "s_base_va must be > 0, got 0.0"),
            ({"s_base_va": math.nan}, "s_base_va must be > 0, got nan"),
            ({"v_base_v": math.nan}, "v_base_v must be > 0, got nan"),
            ({"s_base_va": math.inf}, "s_base_va must be finite, got inf"),
            ({"v_base_v": math.inf}, "v_base_v must be finite, got inf"),
            (
                {"v_base_v": 1e200},
                "v_base_v = 1e+200 with s_base_va = 10000: impedance base",
            ),
            (
                {"s_base_va": 1e308, "v_base_v": 1e-150},
                "v_base_v = 1e-150 with s_base_va = 1e+308: impedance base",
            ),
        ],
    )
    def test_out_of_bounds_value_names_its_key(self, changes, message):
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            SimulationConfig(**{**dataclasses.asdict(CONFIG), **changes})
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            dataclasses.replace(CONFIG, **changes)

    @pytest.mark.parametrize(
        "entries, located_at",
        [
            ("v_base_v = 1e200", "1e200"),
            ("s_base_va = 1e308\nv_base_v = 1e-150", "1e-150"),
        ],
    )
    def test_bad_base_pair_is_a_located_error(self, entries, located_at):
        text = MINIMAL.replace("seed = 9", "seed = 9\n" + entries)
        (err,) = errors_of(text)
        assert err.kind is ParseErrorKind.SEMANTIC_CONFLICT
        assert "impedance base" in err.message
        line = _line_containing(text, err.line)
        assert line.startswith("v_base_v = ")
        assert line[err.column - 1 :] == located_at

    def test_defaulted_base_is_located_at_the_first_bus_voltage(self):
        text = MINIMAL.replace("nominal_voltage_v = 230", "nominal_voltage_v = 1e200")
        (err,) = errors_of(text)
        assert err.kind is ParseErrorKind.SEMANTIC_CONFLICT
        assert err.message.startswith("v_base_v = 1e+200 with s_base_va = 10000: ")
        # The first of the two buses, whose voltage v_base_v takes.
        assert err.line == text.splitlines().index("nominal_voltage_v = 1e200") + 1
        assert err.column == len("nominal_voltage_v = ") + 1


class TestEmission:
    def test_bundled_round_trip_exact(self):
        for name in ("case1", "case2", "case2_pv"):
            s = parse_scenario(bundled_scenario_text(name))
            emitted = emit_scenario(s)
            assert parse_scenario(emitted) == s
            assert emit_scenario(parse_scenario(emitted)) == emitted

    def test_emission_is_canonical_order(self):
        s = parse_scenario(bundled_scenario_text("case1"))
        emitted = emit_scenario(s)
        kinds = [
            line.strip("[]") for line in emitted.splitlines() if line.startswith("[")
        ]
        order = {"simulation": 0, "weather": 1, "bus": 2, "line": 3, "grid": 4,
                 "load": 5, "pv": 6, "wind": 7}
        assert kinds[0] == "simulation"
        assert [order[k] for k in kinds] == sorted(order[k] for k in kinds)

    def test_lf_endings(self):
        s = parse_scenario(MINIMAL)
        assert "\r" not in emit_scenario(s)
        assert emit_scenario(s).endswith("\n")

    def test_generated_scenarios_round_trip(self):
        rng = random.Random(77)
        for _ in range(100):
            original = make_random_scenario(rng)
            normalized = parse_scenario(emit_scenario(original))
            assert scenarios_close(original, normalized)
            again = parse_scenario(emit_scenario(normalized))
            assert again == normalized


class TestFuzz:
    # What the parser makes of the 2,000 documents below: the SHA-256 of
    # each outcome in turn, and how many errors of each kind they hold. A
    # change to either changes a parsed scenario, an error or its place,
    # which must be deliberate.
    OUTCOMES_SHA256 = "600b0777b55666b6f9e5987ffc5763e4d1037405b93108235223765da5e2fb2b"
    ERROR_KINDS = {
        "syntax": 9689,
        "missing_required": 3760,
        "unknown_key": 2801,
        "semantic_conflict": 1893,
        "type_mismatch": 1035,
    }

    def test_mutated_documents_never_crash(self):
        # Arbitrary garbage must either parse or raise ScenarioFormatError.
        rng = random.Random(55)
        base = bundled_scenario_text("case2")
        alphabet = "abz_=[]#.0123456789 \n\t-+eE!\r"
        digest = hashlib.sha256()
        kinds = Counter()
        for _ in range(2000):
            if rng.random() < 0.5:
                text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 200)))
            else:
                chars = list(base)
                for _ in range(rng.randint(1, 15)):
                    pos = rng.randrange(len(chars))
                    roll = rng.random()
                    if roll < 0.4:
                        chars[pos] = rng.choice(alphabet)
                    elif roll < 0.7:
                        del chars[pos]
                    else:
                        chars.insert(pos, rng.choice(alphabet))
                text = "".join(chars)
            try:
                outcome = repr(parse_scenario(text))
            except ScenarioFormatError as exc:
                errors = [(e.line, e.column, e.kind.value, e.message) for e in exc.errors]
                kinds.update(kind for _, _, kind, _ in errors)
                outcome = f"{errors!r}\n{exc}"
            digest.update(outcome.encode() + b"\0")
        assert dict(kinds) == self.ERROR_KINDS
        assert digest.hexdigest() == self.OUTCOMES_SHA256


class TestIntegerDigits:
    @pytest.mark.parametrize("key", ["steps", "start_hour", "seed"])
    def test_more_digits_than_int_converts_is_a_located_error(self, key):
        # int() refuses strings of over 4,300 digits by default.
        entry = re.search(rf"(?m)^{key} = \S+$", MINIMAL)
        text = MINIMAL[: entry.start()] + f"{key} = " + "9" * 5000 + MINIMAL[entry.end() :]
        (err,) = errors_of(text)
        assert (err.line, err.column) == (MINIMAL.count("\n", 0, entry.start()) + 1, len(key) + 4)
        assert err.kind is ParseErrorKind.SEMANTIC_CONFLICT
        assert err.message == f"key {key!r} has 5000 digits, too many for an integer"


class TestIds:
    """validate() rejects every id the parser rejects, so a network it accepts reads back."""

    @pytest.mark.parametrize(
        "load_id, code",
        [
            ("House_A1", "invalid_id"),
            ("x" * 33, "invalid_id"),
            ("", "invalid_id"),
            ("a1\n", "invalid_id"),
            (None, "invalid_id"),
            ("weather", "reserved_id"),
            ("network", "reserved_id"),
        ],
    )
    def test_case2_with_a_load_id_the_parser_rejects_fails_validate(self, load_id, code):
        net = parse_scenario(bundled_scenario_text("case2")).network
        loads = (dataclasses.replace(net.loads[0], id=load_id),) + net.loads[1:]
        net = dataclasses.replace(net, loads=loads)
        assert [(d.code, d.object_id, d.attribute) for d in validate(net)] == [(code, load_id, "id")]

    @given(
        st.lists(st.from_regex(r"[a-z0-9_]{1,32}", fullmatch=True), min_size=4, max_size=4, unique=True),
        st.integers(0, 4),
        st.sampled_from(["weather", "network", "House_A1", "a#1", " a1"]) | st.text(max_size=34),
    )
    def test_network_that_validate_accepts_round_trips(self, ids, replaced, other):
        # Identifiers, one of which (unless replaced is 4) becomes `other`.
        if replaced < 4:
            ids[replaced] = other
        slack, leaf, wire, sink = ids
        network = Network(
            buses=(Bus(slack, BusKind.SLACK, 230.0), Bus(leaf, BusKind.PQ, 230.0)),
            lines=(Line(wire, slack, leaf, 0.01),),
            loads=(LoadDevice(sink, leaf, 500.0),),
        )
        scenario = dataclasses.replace(parse_scenario(MINIMAL), network=network)
        if validate(network):
            # emit_scenario refuses the text, or parse_scenario rejects it.
            with pytest.raises(ValueError):
                parse_scenario(emit_scenario(scenario))
        else:
            assert parse_scenario(emit_scenario(scenario)) == scenario


class TestStepsBound:
    @pytest.mark.parametrize("steps, accepted", [(87_600, True), (87_601, False), (10**30, False)])
    def test_steps_is_at_most_ten_years_of_hours(self, steps, accepted):
        text = MINIMAL.replace("steps = 4", f"steps = {steps}")
        if accepted:
            assert parse_scenario(text).config.steps == steps
            return
        (err,) = errors_of(text)
        assert (err.line, err.column) == (2, len("steps = ") + 1)
        assert err.kind is ParseErrorKind.TYPE_MISMATCH
        assert err.message == f"key 'steps' expects an integer <= 87600, got '{steps}'"


class TestLineEnds:
    # str.splitlines() also breaks at these; a scenario line does not.
    NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("char", NOT_LINE_ENDS)
    def test_character_inside_a_comment_stays_in_it(self, char):
        text = f"# notes{char}more notes\n" + MINIMAL
        assert parse_scenario(text) == parse_scenario(MINIMAL)
        bad = text.replace("steps = 4", "steps = four")
        (err,) = errors_of(bad)
        assert err.line == bad.count("\n", 0, bad.index("steps = four")) + 1

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_lf_crlf_and_cr_each_end_a_line(self, newline):
        text = MINIMAL.replace("\n", newline)
        assert parse_scenario(text) == parse_scenario(MINIMAL)
        (err,) = errors_of(text.replace("steps = 4", "steps = four"))
        assert err.line == MINIMAL.count("\n", 0, MINIMAL.index("steps = 4")) + 1


class TestEmissionRefusal:
    """emit_scenario refuses a value that would read back as another one."""

    @pytest.mark.parametrize("trace", ["wx#1.csv", " wx.csv", "wx.csv ", "", "a\nb.csv", "a\rb.csv"])
    def test_trace_path(self, trace):
        scenario = dataclasses.replace(parse_scenario(MINIMAL), weather=None, weather_trace=trace)
        with pytest.raises(ValueError, match=r"^\[weather\] trace = ") as exc:
            emit_scenario(scenario)
        assert repr(trace) in str(exc.value)

    @pytest.mark.parametrize("load_id", ["house1#2", "house1 ", "", "a\nb"])
    def test_id(self, load_id):
        scenario = parse_scenario(MINIMAL)
        net = scenario.network
        loads = (dataclasses.replace(net.loads[0], id=load_id),)
        scenario = dataclasses.replace(scenario, network=dataclasses.replace(net, loads=loads))
        with pytest.raises(ValueError, match=r"^\[load\] id = ") as exc:
            emit_scenario(scenario)
        assert repr(load_id) in str(exc.value)

    def test_a_trace_that_reads_back_is_written(self):
        scenario = dataclasses.replace(
            parse_scenario(MINIMAL), weather=None, weather_trace="data/wx-1.csv"
        )
        assert parse_scenario(emit_scenario(scenario)) == scenario


CASE2 = bundled_scenario_text("case2")
# (start, end) of every value in case2 written as a number, by line number.
CASE2_NUMBERS = {
    CASE2.count("\n", 0, m.start()) + 1: m.span(2)
    for m in re.finditer(r"(?m)^([a-z_]+) = (\S+)$", CASE2)
    if _NUMBER_RE.match(m.group(2))
}


def _case2_line(key):
    return next(i for i, line in enumerate(CASE2.splitlines(), 1) if line.startswith(key))


def _floats(obj):
    """Every float held by a scenario's dataclasses and tuples."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _floats(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _floats(getattr(obj, f.name))


class TestNonFiniteNumbers:
    @given(
        st.sampled_from(sorted(CASE2_NUMBERS)),
        st.builds(
            "{}{}{}".format,
            st.sampled_from(["", "+", "-"]),
            st.from_regex(r"\A(?:[0-9]{1,400}(?:\.[0-9]*)?|\.[0-9]+)\Z"),
            st.one_of(st.just(""), st.integers(-999, 999).map("e{:+d}".format)),
        ),
    )
    @example(_case2_line("s_base_va"), "1e999")
    @example(_case2_line("temp_mean_c"), "-1e999")
    @example(_case2_line("weibull_scale_mps"), "9" * 400)
    def test_no_non_finite_value_reaches_a_scenario(self, line_no, literal):
        assert _NUMBER_RE.match(literal)
        start, end = CASE2_NUMBERS[line_no]
        text = CASE2[:start] + literal + CASE2[end:]
        try:
            scenario = parse_scenario(text)
        except ScenarioFormatError:
            return
        assert all(math.isfinite(x) for x in _floats(scenario))


def _bound_cases():
    """(kind, key, attr, value, accepted) probing each FIELD_BOUNDS entry at its edges."""
    cases = []
    for kind, spec in _SCHEMA.items():
        for key in spec.keys:
            bound = FIELD_BOUNDS.get(spec.cls, {}).get(key.attr)
            if bound is None:
                continue
            probes = [(math.nan, False), (math.inf, False)]
            if bound.minimum is not None:
                probes += [
                    (math.nextafter(bound.minimum, -math.inf), False),
                    (bound.minimum, not bound.strict),
                ]
            if bound.maximum is not None:
                probes += [
                    (math.nextafter(bound.maximum, math.inf), False),
                    (bound.maximum, True),
                ]
            cases += [(kind, key.key, key.attr, value, ok) for value, ok in probes]
    return cases


def _probe_scenario():
    """case2 plus a PV panel and a wind turbine; the last line gets reactance,
    so that a zero resistance on it is still a valid line."""
    base = parse_scenario(CASE2)
    net = base.network
    net = dataclasses.replace(
        net,
        lines=net.lines[:-1] + (dataclasses.replace(net.lines[-1], reactance=0.001),),
        pvs=(SolarPanel("sun", "ha4", 500.0, 0.9),),
        winds=(WindTurbine("gust", "hb4", 800.0),),
    )
    return dataclasses.replace(base, network=net)


PROBE = _probe_scenario()
PROBE_TEXT = emit_scenario(PROBE)
_GROUPS = {"bus": "buses", "line": "lines", "load": "loads", "pv": "pvs", "wind": "winds"}


class TestBoundsAgreement:
    """The parser and validate() accept exactly the same field values."""

    def test_every_table_field_is_probed_and_read_by_the_parser(self):
        probed = {(_SCHEMA[kind].cls, attr) for kind, _, attr, _, _ in _bound_cases()}
        assert probed == {(cls, f) for cls, bounds in FIELD_BOUNDS.items() for f in bounds}
        for spec in _SCHEMA.values():
            for key in spec.keys:
                if key.attr in FIELD_BOUNDS.get(spec.cls, {}):
                    assert key.bound is FIELD_BOUNDS[spec.cls][key.attr]

    @pytest.mark.parametrize("kind, key, attr, value, accepted", _bound_cases())
    def test_parser_and_validate_agree(self, kind, key, attr, value, accepted):
        # The last object of the kind is edited: for buses that is not the
        # first bus, which the shared-voltage diagnostic is filed under.
        group = _GROUPS[kind]
        objects = list(getattr(PROBE.network, group))
        target = objects[-1]
        objects[-1] = dataclasses.replace(target, **{attr: value})
        diags = validate(dataclasses.replace(PROBE.network, **{group: tuple(objects)}))

        block = f"[{kind}]\nid = {target.id}\n"
        start = PROBE_TEXT.index(f"\n{key} = ", PROBE_TEXT.index(block)) + 1
        end = PROBE_TEXT.index("\n", start)
        literal = "nan" if math.isnan(value) else "1e999" if math.isinf(value) else repr(value)
        text = PROBE_TEXT[:start] + f"{key} = {literal}" + PROBE_TEXT[end:]
        line_no = PROBE_TEXT.count("\n", 0, start) + 1

        if accepted:
            assert diags == []
            parsed = getattr(parse_scenario(text).network, group)[-1]
            assert getattr(parsed, attr) == value
            return
        errs = errors_of(text)
        assert [(e.line, e.column) for e in errs] == [(line_no, len(key) + 4)]
        naming = [d for d in diags if attr in d.message]
        assert [(d.code, d.object_id, d.attribute) for d in naming] == [
            ("invalid_value", target.id, attr)
        ]
        if math.isfinite(value):  # both name the one requirement the value fails
            unmet = FIELD_BOUNDS[type(target)][attr].unmet(value)
            assert f"expects a number {unmet}, got" in errs[0].message
            assert f"must be {unmet}, got {value!r}" in naming[0].message

    def test_out_of_range_message_names_field_and_value(self):
        load = dataclasses.replace(PROBE.network.loads[0], active_power=-1.0)
        net = dataclasses.replace(PROBE.network, loads=(load,), pvs=(SolarPanel("p", "ha4", 0.0),))
        assert [d.message for d in validate(net)] == [
            "load 'house_a1' active_power must be >= 0, got -1.0",
            "pv 'p' peak_power must be > 0, got 0.0",
        ]

    def test_nan_length_rejected_by_validate_and_by_parsing_its_emission(self):
        net = PROBE.network
        lines = (dataclasses.replace(net.lines[0], length=math.nan),) + net.lines[1:]
        scenario = dataclasses.replace(PROBE, network=dataclasses.replace(net, lines=lines))
        diags = validate(scenario.network)
        assert [(d.code, d.object_id, d.attribute) for d in diags] == [
            ("invalid_value", "seg_a1", "length")
        ]
        text = emit_scenario(scenario)
        line_no = text.splitlines().index("length_m = nan") + 1
        assert [(e.line, e.column) for e in errors_of(text)] == [(line_no, 12)]


def _in_bounds(kind, attr):
    """Values the schema's bound for (kind, attr) accepts: on the bound,
    subnormal, and 9-significant-digit values."""
    bound = next(k.bound for k in _SCHEMA[kind].keys if k.attr == attr)
    lo, hi = bound.minimum, bound.maximum
    edges = [v for v in (lo, hi) if v is not None and not bound.unmet(v)]
    subnormal = [5e-324] if lo is not None else [5e-324, -5e-324]
    nine_digits = st.floats(
        -1e6 if lo is None else lo, 1e6 if hi is None else hi, exclude_min=bound.strict
    ).map(lambda x: float(format(x, ".9g")))
    values = st.one_of(st.sampled_from(edges + subnormal), nine_digits)
    return values.filter(lambda v: bound.unmet(v) is None)


@st.composite
def bounded_scenarios(draw):
    """A radial feeder of 2-4 buses whose every number is drawn by _in_bounds."""

    def value(kind, attr):
        return draw(_in_bounds(kind, attr))

    def optional(kind, *attrs):
        return {a: value(kind, a) for a in attrs if draw(st.booleans())}

    n = draw(st.integers(2, 4))
    voltage = value("bus", "nominal_voltage")
    buses = [Bus("s0", BusKind.SLACK, voltage)]
    buses += [Bus(f"b{i}", BusKind.PQ, voltage) for i in range(1, n)]
    lines, loads = [], []
    for i in range(1, n):
        r, extra = value("line", "resistance"), optional("line", "reactance", "length")
        # Fields in bounds can still make a line of zero impedance, or a
        # subnormal one whose 1/z is not finite: validate rejects both.
        z = complex(r, extra.get("reactance", 0.0))
        assume(z != 0 and cmath.isfinite(1.0 / z))
        lines.append(Line(f"l{i}", buses[i - 1].id, f"b{i}", r, **extra))
        active = value("load", "active_power")
        loads.append(LoadDevice(f"d{i}", f"b{i}", active, **optional("load", "reactive_power")))
    pvs = [
        SolarPanel(
            f"p{i}", f"b{i}", value("pv", "peak_power"), **optional("pv", "cloud_attenuation")
        )
        for i in range(1, draw(st.integers(1, n)))
    ]
    winds = []
    if draw(st.booleans()):
        speeds = {}
        if draw(st.booleans()):
            drawn = st.lists(_in_bounds("wind", "cut_in"), min_size=3, max_size=3, unique=True)
            speeds = dict(zip(("cut_in", "rated", "cut_out"), sorted(draw(drawn))))
        winds.append(WindTurbine("w", "s0", value("wind", "peak_power"), **speeds))
    grid = GridConnection("g", "s0") if draw(st.booleans()) else None
    bases = optional("simulation", "s_base_va", "v_base_v")
    try:
        config = SimulationConfig(steps=1, start_hour=0, solver="acpf", seed=0, **bases)
    except ValueError:  # bases in bounds whose impedance base overflows or underflows
        assume(False)
    weather = optional("weather", *(k.attr for k in _SCHEMA["weather"].keys))
    return Scenario(
        Network(tuple(buses), tuple(lines), tuple(loads), tuple(pvs), tuple(winds), grid),
        config,
        WeatherParams(**weather),
    )


class TestBoundsRoundTrip:
    @settings(max_examples=100)
    @given(bounded_scenarios())
    def test_values_from_the_bounds_table_round_trip(self, scenario):
        assert validate(scenario.network) == []
        text = emit_scenario(scenario)
        assert emit_scenario(parse_scenario(text)) == text


class TestDocs:
    def test_readme_table_lists_schema_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Scenario format", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("|") and cells[0] in _SCHEMA:
                rows[cells[0]] = cells[1].split(", ")
        expected = {
            kind: [k.key + ("*" if k.attr in spec.optional else "") for k in spec.keys]
            for kind, spec in _SCHEMA.items()
        }
        assert rows == expected
