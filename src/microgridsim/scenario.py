"""Line-oriented scenario document format: parsing, validation, emission.

A scenario file is a sequence of sections.  A section starts with
``[kind]`` where kind is one of simulation, weather, bus, line, grid,
load, pv, wind; the following ``key = value`` entries describe one
object.  ``#`` starts a comment, blank lines are ignored, identifiers
use ``[a-z0-9_]+``, and numbers accept integer, decimal, or scientific
notation with ``.`` as separator; a number that overflows to infinity
is an error.

``_SCHEMA`` is the one definition of the keys: for each section kind,
the dataclass it builds and its entries in canonical order, each with
the attribute it sets, its value kind and its bound.  The bounds of the
network sections' numbers come from ``grid.FIELD_BOUNDS``, which
:func:`~microgridsim.grid.validate` checks too.  A key is optional
exactly when its attribute has a default.  Parsing, emission, the
placement of validation diagnostics and the results-CSV header
(:func:`simulation_pairs`) all read it.

Parsing is all-or-nothing: every problem found is reported as a
:class:`ParseError` with a 1-based line and column, and no partially
valid scenario is ever returned.  :func:`emit_scenario` writes the
canonical form (fixed section and key order, defaults materialized,
numbers at up to 9 significant digits, LF endings), and
``parse_scenario(emit_scenario(s))`` reproduces ``s``.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from typing import NamedTuple

from .generation import SolarPanel, WindTurbine
from .grid import (
    FIELD_BOUNDS,
    Bound,
    Bus,
    BusKind,
    GridConnection,
    Line,
    LoadDevice,
    Network,
    validate,
)
from .powerflow import METHOD_GAUSS_SEIDEL, METHOD_NEWTON_RAPHSON
from .weather import WeatherParams

SOLVER_CHOICES = (METHOD_NEWTON_RAPHSON, METHOD_GAUSS_SEIDEL, "simple")

# Object ids the result writer uses for non-device rows.
WEATHER_OBJECT = "weather"
NETWORK_OBJECT = "network"
RESERVED_IDS = (WEATHER_OBJECT, NETWORK_OBJECT)

_SECTION_RE = re.compile(r"^\s*\[([a-z_]+)\]\s*$")
_ENTRY_RE = re.compile(r"^\s*([a-z_][a-z0-9_]*)\s*=\s*(\S(?:.*\S)?)\s*$")
_ID_RE = re.compile(r"^[a-z0-9_]{1,32}$")
_INT_RE = re.compile(r"^[+-]?[0-9]+$")
_NUMBER_RE = re.compile(r"^[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?$")


class ParseErrorKind(str, Enum):
    SYNTAX = "syntax"
    UNKNOWN_KEY = "unknown_key"
    TYPE_MISMATCH = "type_mismatch"
    MISSING_REQUIRED = "missing_required"
    SEMANTIC_CONFLICT = "semantic_conflict"


@dataclass(frozen=True)
class ParseError:
    """One problem in a scenario document, located at line:column (1-based)."""

    line: int
    column: int
    kind: ParseErrorKind
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.kind.value}: {self.message}"


class ScenarioFormatError(ValueError):
    """Raised by parse_scenario; carries every ParseError found."""

    def __init__(self, errors: list[ParseError]):
        self.errors = tuple(sorted(errors, key=lambda e: (e.line, e.column)))
        summary = "; ".join(str(e) for e in self.errors[:3])
        if len(self.errors) > 3:
            summary += f"; and {len(self.errors) - 3} more"
        super().__init__(f"{len(self.errors)} scenario error(s): {summary}")


@dataclass(frozen=True)
class SimulationConfig:
    """Run controls parsed from the [simulation] section.

    A document without v_base_v takes the first bus's nominal voltage.
    """

    steps: int
    start_hour: int
    solver: str
    seed: int
    s_base_va: float = 10000.0
    v_base_v: float = 230.0


@dataclass(frozen=True)
class Scenario:
    """A parsed, validated simulation document.

    Exactly one of weather / weather_trace is set: either synthetic
    weather parameters or the path of an external trace CSV.
    """

    network: Network
    config: SimulationConfig
    weather: WeatherParams | None = None
    weather_trace: str | None = None


def format_number(value: float) -> str:
    """Canonical numeric rendering: up to 9 significant digits."""
    return format(value, ".9g")


class _Key(NamedTuple):
    """One entry of a section: document key, attribute it sets, value kind, bound.

    kind is "id", "int", "number", "path", or the tuple of allowed words.
    """

    key: str
    attr: str
    kind: str | tuple[str, ...]
    bound: Bound = Bound()


class _Kind(NamedTuple):
    """A section kind: the dataclass it builds and its keys in canonical order."""

    cls: type
    keys: tuple[_Key, ...]
    optional: frozenset[str]  # attributes with a dataclass default

    @classmethod
    def of(cls, built: type, *keys: _Key) -> _Kind:
        """Network classes take their keys' bounds from grid.FIELD_BOUNDS."""
        bounds = FIELD_BOUNDS.get(built, {})
        keys = tuple(k._replace(bound=bounds.get(k.attr, k.bound)) for k in keys)
        defaults = frozenset(f.name for f in fields(built) if f.default is not MISSING)
        return cls(built, keys, defaults)


_POSITIVE = Bound(0.0, strict=True)
_ID = _Key("id", "id", "id")
_BUS = _Key("bus", "bus", "id")
_PEAK = _Key("peak_w", "peak_power", "number")

# Section kinds in canonical order.  BusKind members are str, so they
# compare equal to the words that select them.
_SCHEMA = {
    "simulation": _Kind.of(
        SimulationConfig,
        _Key("steps", "steps", "int", Bound(1)),
        _Key("start_hour", "start_hour", "int", Bound(0, 23)),
        _Key("solver", "solver", SOLVER_CHOICES),
        _Key("seed", "seed", "int", Bound(0, 2**64 - 1)),
        _Key("s_base_va", "s_base_va", "number", _POSITIVE),
        _Key("v_base_v", "v_base_v", "number", _POSITIVE),
    ),
    "weather": _Kind.of(
        WeatherParams,
        _Key("weibull_shape", "weibull_shape", "number", _POSITIVE),
        _Key("weibull_scale_mps", "weibull_scale", "number", _POSITIVE),
        _Key("cloud_step", "cloud_step", "number", Bound(0.0)),
        _Key("cloud_initial", "cloud_initial", "number", Bound(0.0, 1.0)),
        _Key("temp_mean_c", "temp_mean", "number"),
        _Key("temp_amplitude_c", "temp_amplitude", "number"),
    ),
    "bus": _Kind.of(
        Bus,
        _ID,
        _Key("kind", "kind", tuple(BusKind)),
        _Key("nominal_voltage_v", "nominal_voltage", "number"),
    ),
    "line": _Kind.of(
        Line,
        _ID,
        _Key("from", "from_bus", "id"),
        _Key("to", "to_bus", "id"),
        _Key("resistance_ohm", "resistance", "number"),
        _Key("reactance_ohm", "reactance", "number"),
        _Key("length_m", "length", "number"),
    ),
    "grid": _Kind.of(GridConnection, _ID, _BUS),
    "load": _Kind.of(
        LoadDevice,
        _ID,
        _BUS,
        _Key("p_w", "active_power", "number"),
        _Key("q_var", "reactive_power", "number"),
    ),
    "pv": _Kind.of(SolarPanel, _ID, _BUS, _PEAK, _Key("alpha", "cloud_attenuation", "number")),
    "wind": _Kind.of(
        WindTurbine,
        _ID,
        _BUS,
        _PEAK,
        _Key("cut_in_mps", "cut_in", "number"),
        _Key("rated_mps", "rated", "number"),
        _Key("cut_out_mps", "cut_out", "number"),
    ),
}
# A [weather] section holds either this key alone or the model parameters.
_TRACE = _Key("trace", "weather_trace", "path")

_SECTION_KINDS = tuple(_SCHEMA)


@dataclass
class _Entry:
    key: str
    value: str
    line: int
    key_column: int
    value_column: int


@dataclass
class _Section:
    kind: str
    line: int
    entries: dict[str, _Entry] = field(default_factory=dict)


class _Reader:
    """Typed, error-accumulating access to one section's entries."""

    def __init__(self, section: _Section, errors: list[ParseError]):
        self.section = section
        self.errors = errors
        self.used: set[str] = set()
        self.ok = True

    def _take(self, key: str, required: bool) -> _Entry | None:
        self.used.add(key)
        entry = self.section.entries.get(key)
        if entry is None and required:
            self.errors.append(
                ParseError(
                    self.section.line,
                    1,
                    ParseErrorKind.MISSING_REQUIRED,
                    f"section [{self.section.kind}] is missing required key {key!r}",
                )
            )
            self.ok = False
        return entry

    def _fail(self, entry: _Entry, kind: ParseErrorKind, message: str) -> None:
        self.errors.append(ParseError(entry.line, entry.value_column, kind, message))
        self.ok = False

    def _mismatch(self, entry: _Entry, expected: str) -> None:
        self._fail(
            entry,
            ParseErrorKind.TYPE_MISMATCH,
            f"key {entry.key!r} expects {expected}, got {entry.value!r}",
        )

    def read(self, key: _Key, required: bool):
        """The entry's value converted as key.kind says; None if absent or invalid."""
        entry = self._take(key.key, required)
        if entry is None:
            return None
        text, kind = entry.value, key.kind
        if kind == "number":
            if not _NUMBER_RE.match(text):
                return self._mismatch(entry, "a number")
            value, noun = float(text), "a number"
            if not math.isfinite(value):  # float() makes 1e999 inf
                return self._fail(
                    entry,
                    ParseErrorKind.SEMANTIC_CONFLICT,
                    f"key {entry.key!r} must be finite, got {text!r}",
                )
        elif kind == "int":
            if not _INT_RE.match(text):
                return self._mismatch(entry, "an integer")
            value, noun = int(text), "an integer"
        elif kind == "id":
            if not _ID_RE.match(text):
                return self._mismatch(entry, "an identifier ([a-z0-9_], 1-32 chars)")
            return text
        elif kind == "path":
            if any(ch.isspace() for ch in text):
                return self._mismatch(entry, "a path without whitespace")
            return text
        else:
            if text not in kind:
                return self._mismatch(entry, "one of " + ", ".join(kind))
            return kind[kind.index(text)]
        unmet = key.bound.unmet(value)
        if unmet:
            return self._mismatch(entry, f"{noun} {unmet}")
        return value

    def reject_unknown(self) -> None:
        for key, entry in self.section.entries.items():
            if key not in self.used:
                self.errors.append(
                    ParseError(
                        entry.line,
                        entry.key_column,
                        ParseErrorKind.UNKNOWN_KEY,
                        f"unknown key {key!r} in section [{self.section.kind}]",
                    )
                )
                self.ok = False


def _scan_sections(text: str, errors: list[ParseError]) -> list[_Section]:
    sections: list[_Section] = []
    current: _Section | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        if not content.strip():
            continue
        header = _SECTION_RE.match(content)
        if header:
            kind = header.group(1)
            if kind not in _SECTION_KINDS:
                errors.append(
                    ParseError(
                        line_no,
                        content.index("[") + 1,
                        ParseErrorKind.UNKNOWN_KEY,
                        f"unknown section kind [{kind}]",
                    )
                )
                current = _Section(kind, line_no)  # swallow entries, already reported
                continue
            current = _Section(kind, line_no)
            sections.append(current)
            continue
        entry_match = _ENTRY_RE.match(content)
        if entry_match is None:
            column = len(content) - len(content.lstrip()) + 1
            errors.append(
                ParseError(
                    line_no,
                    column,
                    ParseErrorKind.SYNTAX,
                    f"expected 'key = value' or '[section]', got {content.strip()!r}",
                )
            )
            continue
        if current is None:
            errors.append(
                ParseError(
                    line_no,
                    entry_match.start(1) + 1,
                    ParseErrorKind.SYNTAX,
                    "entry appears before any section header",
                )
            )
            continue
        key = entry_match.group(1)
        entry = _Entry(
            key=key,
            value=entry_match.group(2),
            line=line_no,
            key_column=entry_match.start(1) + 1,
            value_column=entry_match.start(2) + 1,
        )
        if key in current.entries:
            errors.append(
                ParseError(
                    line_no,
                    entry.key_column,
                    ParseErrorKind.SEMANTIC_CONFLICT,
                    f"duplicate key {key!r} in section [{current.kind}]",
                )
            )
            continue
        current.entries[key] = entry
    return sections


def _single_section(
    sections: list[_Section], kind: str, errors: list[ParseError]
) -> _Section | None:
    found = [s for s in sections if s.kind == kind]
    for extra in found[1:]:
        errors.append(
            ParseError(
                extra.line,
                1,
                ParseErrorKind.SEMANTIC_CONFLICT,
                f"section [{kind}] may appear at most once",
            )
        )
    return found[0] if found else None


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document; raise ScenarioFormatError listing every problem."""
    errors: list[ParseError] = []
    sections = _scan_sections(text, errors)

    first = {
        kind: _single_section(sections, kind, errors)
        for kind in ("simulation", "weather", "grid")
    }
    if first["simulation"] is None:
        errors.append(
            ParseError(
                1, 1, ParseErrorKind.MISSING_REQUIRED, "missing [simulation] section"
            )
        )

    # Attribute values of every section that read cleanly, per kind.
    values: dict[str, list[dict]] = {kind: [] for kind in _SCHEMA}
    weather_trace: str | None = None
    id_sections: dict[str, _Section] = {}

    def register_id(obj_id: str, section: _Section) -> bool:
        if obj_id in RESERVED_IDS:
            errors.append(
                ParseError(
                    section.line,
                    1,
                    ParseErrorKind.SEMANTIC_CONFLICT,
                    f"id {obj_id!r} is reserved for simulator output rows",
                )
            )
            return False
        if obj_id in id_sections:
            errors.append(
                ParseError(
                    section.line,
                    1,
                    ParseErrorKind.SEMANTIC_CONFLICT,
                    f"id {obj_id!r} already declared on line {id_sections[obj_id].line}",
                )
            )
            return False
        id_sections[obj_id] = section
        return True

    for section in sections:
        if first.get(section.kind, section) is not section:
            continue  # repeats of a single section, already reported
        spec = _SCHEMA[section.kind]
        r = _Reader(section, errors)
        if section.kind == "weather" and _TRACE.key in section.entries:
            weather_trace = r.read(_TRACE, required=True)
            stray = [k.key for k in spec.keys if k.key in section.entries]
            if stray:
                r.used.update(stray)  # one conflict error, not one per key
                errors.append(
                    ParseError(
                        section.entries[stray[0]].line,
                        section.entries[stray[0]].key_column,
                        ParseErrorKind.SEMANTIC_CONFLICT,
                        "a [weather] section uses either 'trace' or model "
                        "parameters, not both",
                    )
                )
            r.reject_unknown()
            continue
        found = {}
        for key in spec.keys:
            value = r.read(key, required=key.attr not in spec.optional)
            if value is not None:
                found[key.attr] = value
        r.reject_unknown()
        if r.ok and ("id" not in found or register_id(found["id"], section)):
            values[section.kind].append(found)

    if errors:
        raise ScenarioFormatError(errors)

    def build(kind: str) -> tuple:
        return tuple(_SCHEMA[kind].cls(**v) for v in values[kind])

    network = Network(
        buses=build("bus"),
        lines=build("line"),
        loads=build("load"),
        pvs=build("pv"),
        winds=build("wind"),
        grid=next(iter(build("grid")), None),
    )
    for diag in validate(network):
        line_no, column = 1, 1
        section = id_sections.get(diag.object_id or "")
        if section is not None:
            line_no = section.line
            keys = _SCHEMA[section.kind].keys
            key = next((k.key for k in keys if k.attr == diag.attribute), None)
            entry = section.entries.get(key)
            if entry is not None:
                line_no, column = entry.line, entry.value_column
        errors.append(
            ParseError(line_no, column, ParseErrorKind.SEMANTIC_CONFLICT, diag.message)
        )
    if errors:
        raise ScenarioFormatError(errors)

    simulation = values["simulation"][0]
    simulation.setdefault("v_base_v", network.buses[0].nominal_voltage)
    config = SimulationConfig(**simulation)
    weather = None
    if weather_trace is None:
        weather = WeatherParams(**(values["weather"] or [{}])[0], seed=config.seed)
    return Scenario(
        network=network,
        config=config,
        weather=weather,
        weather_trace=weather_trace,
    )


def _pairs(kind: str, obj) -> list[tuple[str, str]]:
    """obj's entries as (key, text) in canonical order; None attributes are left out."""
    pairs = []
    for key in _SCHEMA[kind].keys:
        value = getattr(obj, key.attr)
        if value is None:
            continue
        if key.kind == "number":
            text = format_number(value)
        else:
            text = value.value if isinstance(value, Enum) else str(value)
        pairs.append((key.key, text))
    return pairs


def simulation_pairs(config: SimulationConfig) -> list[tuple[str, str]]:
    """The [simulation] entries of config as (key, text), in canonical order."""
    return _pairs("simulation", config)


def _emit_section(kind: str, pairs: list[tuple[str, str]]) -> str:
    body = "\n".join(f"{key} = {value}" for key, value in pairs)
    return f"[{kind}]\n{body}"


def emit_scenario(scenario: Scenario) -> str:
    """Render the canonical text form of a valid scenario.

    Sections appear as simulation, weather, buses, lines, grid, loads,
    pvs, winds; optional keys are materialized with their effective
    values so the output is self-contained and byte-stable.
    """
    if scenario.weather_trace is not None:
        weather = [(_TRACE.key, scenario.weather_trace)]
    else:
        weather = _pairs("weather", scenario.weather)
    blocks = [
        _emit_section("simulation", _pairs("simulation", scenario.config)),
        _emit_section("weather", weather),
    ]
    net = scenario.network
    grid = () if net.grid is None else (net.grid,)
    for kind, objects in (
        ("bus", net.buses),
        ("line", net.lines),
        ("grid", grid),
        ("load", net.loads),
        ("pv", net.pvs),
        ("wind", net.winds),
    ):
        blocks += [_emit_section(kind, _pairs(kind, obj)) for obj in objects]
    return "\n\n".join(blocks) + "\n"
