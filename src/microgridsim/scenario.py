"""Line-oriented scenario document format: parsing, validation, emission.

A scenario file is a sequence of sections.  A section starts with
``[kind]`` where kind is one of simulation, weather, bus, line, grid,
load, pv, wind; the following ``key = value`` entries describe one
object.  Lines end at LF, CRLF or CR only, so a form feed or U+2028 in a
comment stays in it.  ``#`` starts a comment, blank lines are ignored,
identifiers use ``[a-z0-9_]+``, and numbers accept integer, decimal, or
scientific notation with ``.`` as separator; a number that overflows to
infinity, or an integer of more digits than ``int()`` converts, is an
error.

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
valid scenario is ever returned.  Every section goes through one loop
over its keys (a ``[weather]`` section that holds ``trace`` through that
key alone): ``_read`` converts each entry as its key's kind says, and
each problem goes to one ``fail(line, column, kind, message)`` callback.
:func:`emit_scenario` writes the canonical form (fixed section and key
order, defaults materialized, numbers at up to 9 significant digits, LF
endings), and ``parse_scenario(emit_scenario(s))`` reproduces ``s``.  It
raises ValueError for a text value that would read back as another one
or not at all: an empty one, one holding ``#``, CR or LF, or one with
whitespace around it, such as a trace path ``wx#1.csv``.
"""

from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from typing import NamedTuple

from .generation import SolarPanel, WindTurbine
from .grid import (
    _ID_RE,
    FIELD_BOUNDS,
    RESERVED_IDS,
    Bound,
    Bus,
    BusKind,
    GridConnection,
    Line,
    LoadDevice,
    Network,
    PerUnitBase,
    validate,
)
from .powerflow import METHOD_GAUSS_SEIDEL, METHOD_NEWTON_RAPHSON
from .weather import WeatherParams

SOLVER_CHOICES = (METHOD_NEWTON_RAPHSON, METHOD_GAUSS_SEIDEL, "simple")

_SECTION_RE = re.compile(r"^\s*\[([a-z_]+)\]\s*$")
_ENTRY_RE = re.compile(r"^\s*([a-z_][a-z0-9_]*)\s*=\s*(\S(?:.*\S)?)\s*$")
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
    Every instance, however it is made (``replace`` included), holds
    values within the bounds of its keys in ``_SCHEMA``, finite bases,
    and bases that make a valid :class:`~microgridsim.grid.PerUnitBase`;
    else construction raises ValueError naming the key.  The solver name
    is checked where it is used.
    """

    steps: int
    start_hour: int
    solver: str
    seed: int
    s_base_va: float = 10000.0
    v_base_v: float = 230.0

    def __post_init__(self) -> None:
        for key in _SCHEMA["simulation"].keys:
            value = getattr(self, key.attr)
            unmet = key.bound.unmet(value)
            if unmet is None and key.kind == "number" and not math.isfinite(value):
                unmet = "finite"
            if unmet:
                raise ValueError(f"{key.key} must be {unmet}, got {value!r}")
        try:
            PerUnitBase(self.s_base_va, self.v_base_v)
        except ValueError as exc:
            raise ValueError(
                f"v_base_v = {format_number(self.v_base_v)} with "
                f"s_base_va = {format_number(self.s_base_va)}: {exc}"
            ) from None


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
        # At most ten years of hourly steps: a larger count would only fail
        # later, allocating gigabytes for its weather and results.
        _Key("steps", "steps", "int", Bound(1, 87_600)),
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
# The keys a section of each kind may hold; any other is unknown.
_KNOWN_KEYS = {kind: {k.key for k in spec.keys} for kind, spec in _SCHEMA.items()}
_KNOWN_KEYS["weather"].add(_TRACE.key)


class _Entry(NamedTuple):
    key: str
    value: str
    line: int
    key_column: int
    value_column: int


class _Section(NamedTuple):
    kind: str
    line: int
    entries: dict[str, _Entry]


def _scan_sections(text: str, fail) -> list[_Section]:
    """The sections of known kinds in text; fail(line, column, kind, message)
    gets each unknown section, syntax error and duplicate key."""
    sections: list[_Section] = []
    current: _Section | None = None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        content = raw.split("#", 1)[0]
        if not content.strip():
            continue
        header = _SECTION_RE.match(content)
        if header:
            current = _Section(header.group(1), line_no, {})
            if current.kind in _SCHEMA:
                sections.append(current)
            else:  # its entries are read but kept out of the sections
                message = f"unknown section kind [{current.kind}]"
                fail(line_no, content.index("[") + 1, ParseErrorKind.UNKNOWN_KEY, message)
            continue
        match = _ENTRY_RE.match(content)
        if match is None:
            column = len(content) - len(content.lstrip()) + 1
            message = f"expected 'key = value' or '[section]', got {content.strip()!r}"
            fail(line_no, column, ParseErrorKind.SYNTAX, message)
            continue
        key, column = match.group(1), match.start(1) + 1
        if current is None:
            fail(line_no, column, ParseErrorKind.SYNTAX, "entry appears before any section header")
        elif key in current.entries:
            message = f"duplicate key {key!r} in section [{current.kind}]"
            fail(line_no, column, ParseErrorKind.SEMANTIC_CONFLICT, message)
        else:
            current.entries[key] = _Entry(key, match.group(2), line_no, column, match.start(2) + 1)
    return sections


def _read(key: _Key, entry: _Entry, fail):
    """The entry's value converted as key.kind says; None once fail has reported why not."""
    text, kind, where = entry.value, key.kind, (entry.line, entry.value_column)
    if kind == "number":
        noun, value = "a number", _NUMBER_RE.match(text) and float(text)
        if value is not None and not math.isfinite(value):  # float() makes 1e999 inf
            message = f"key {entry.key!r} must be finite, got {text!r}"
            return fail(*where, ParseErrorKind.SEMANTIC_CONFLICT, message)
    elif kind == "int":
        try:
            noun, value = "an integer", _INT_RE.match(text) and int(text)
        except ValueError:  # more digits than int() converts
            digits = len(text.lstrip("+-"))
            message = f"key {entry.key!r} has {digits} digits, too many for an integer"
            return fail(*where, ParseErrorKind.SEMANTIC_CONFLICT, message)
    elif kind == "id":
        noun, value = "an identifier ([a-z0-9_], 1-32 chars)", _ID_RE.fullmatch(text) and text
    elif kind == "path":
        noun, value = "a path without whitespace", None if any(c.isspace() for c in text) else text
    else:
        noun, value = "one of " + ", ".join(kind), next((w for w in kind if w == text), None)
    if value is not None:
        unmet = key.bound.unmet(value)
        if unmet is None:
            return value
        noun += " " + unmet
    message = f"key {entry.key!r} expects {noun}, got {text!r}"
    return fail(*where, ParseErrorKind.TYPE_MISMATCH, message)


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario document; raise ScenarioFormatError listing every problem."""
    errors: list[ParseError] = []

    def fail(line: int, column: int, kind: ParseErrorKind, message: str) -> None:
        errors.append(ParseError(line, column, kind, message))

    conflict = ParseErrorKind.SEMANTIC_CONFLICT
    sections = _scan_sections(text, fail)
    if all(section.kind != "simulation" for section in sections):
        fail(1, 1, ParseErrorKind.MISSING_REQUIRED, "missing [simulation] section")

    # Attribute values of every section that read cleanly, per kind.
    values: dict[str, list[dict]] = {kind: [] for kind in _SCHEMA}
    first: dict[str, _Section] = {}
    id_sections: dict[str, _Section] = {}
    for section in sections:
        kind, entries, before = section.kind, section.entries, len(errors)
        repeated = first.setdefault(kind, section) is not section
        if repeated and kind in ("simulation", "weather", "grid"):
            fail(section.line, 1, conflict, f"section [{kind}] may appear at most once")
            continue
        spec = _SCHEMA[kind]
        keys = spec.keys
        if kind == "weather" and _TRACE.key in entries:
            keys = (_TRACE,)
            stray = next((entries[k.key] for k in spec.keys if k.key in entries), None)
            if stray is not None:
                message = "a [weather] section uses either 'trace' or model parameters, not both"
                fail(stray.line, stray.key_column, conflict, message)
        found = {}
        for key in keys:
            entry = entries.get(key.key)
            if entry is not None:
                value = _read(key, entry, fail)
                if value is not None:
                    found[key.attr] = value
            elif key.attr not in spec.optional:
                message = f"section [{kind}] is missing required key {key.key!r}"
                fail(section.line, 1, ParseErrorKind.MISSING_REQUIRED, message)
        for entry in entries.values():
            if entry.key not in _KNOWN_KEYS[kind]:
                message = f"unknown key {entry.key!r} in section [{kind}]"
                fail(entry.line, entry.key_column, ParseErrorKind.UNKNOWN_KEY, message)
        if len(errors) > before:
            continue
        obj_id = found.get("id")
        if obj_id in RESERVED_IDS:
            fail(section.line, 1, conflict, f"id {obj_id!r} is reserved for simulator output rows")
        elif obj_id in id_sections:
            message = f"id {obj_id!r} already declared on line {id_sections[obj_id].line}"
            fail(section.line, 1, conflict, message)
        else:
            values[kind].append(found)
            if obj_id is not None:
                id_sections[obj_id] = section

    if errors:
        raise ScenarioFormatError(errors)

    def build(kind: str) -> tuple:
        return tuple(_SCHEMA[kind].cls(**v) for v in values[kind])

    network = Network(
        *(build(kind) for kind in ("bus", "line", "load", "pv", "wind")),
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
        fail(line_no, column, conflict, diag.message)
    if errors:
        raise ScenarioFormatError(errors)

    simulation = values["simulation"][0]
    base_entry = first["simulation"].entries.get("v_base_v")
    if base_entry is None:
        simulation["v_base_v"] = network.buses[0].nominal_voltage
        base_entry = id_sections[network.buses[0].id].entries["nominal_voltage_v"]
    try:
        config = SimulationConfig(**simulation)
    except ValueError as exc:  # each value is in bounds, so the bases' pair is not
        error = ParseError(base_entry.line, base_entry.value_column, conflict, str(exc))
        raise ScenarioFormatError([error]) from None
    weather = (values["weather"] or [{}])[0]
    weather_trace = weather.pop(_TRACE.attr, None)
    return Scenario(
        network=network,
        config=config,
        weather=None if weather_trace else WeatherParams(**weather, seed=config.seed),
        weather_trace=weather_trace,
    )


def _pairs(kind: str, obj, keys: tuple[_Key, ...] = ()) -> list[tuple[str, str]]:
    """obj's entries for keys (the kind's by default) as (key, text), in
    canonical order; None attributes are left out.  Raise ValueError for a
    text that is empty, holds '#', CR or LF, or has whitespace around it.
    """
    pairs = []
    for key in keys or _SCHEMA[kind].keys:
        value = getattr(obj, key.attr)
        if value is None:
            continue
        if key.kind == "number":
            text = format_number(value)
        else:
            text = value.value if isinstance(value, Enum) else str(value)
            if not text or text.strip() != text or any(c in text for c in "#\r\n"):
                raise ValueError(f"[{kind}] {key.key} = {text!r} would not read back as itself")
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
    values so the output is self-contained and byte-stable.  Raise
    ValueError, naming the section kind and key, for a value the text
    cannot hold, such as an id or trace path with '#' in it.
    """
    if scenario.weather_trace is not None:
        weather = _pairs("weather", scenario, (_TRACE,))
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
