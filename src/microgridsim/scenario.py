"""Line-oriented scenario document format: parsing, validation, emission.

A scenario file is a sequence of sections.  A section starts with
``[kind]`` where kind is one of simulation, weather, bus, line, grid,
load, pv, wind; the following ``key = value`` entries describe one
object.  ``#`` starts a comment, blank lines are ignored, identifiers
use ``[a-z0-9_]+``, and numbers accept integer, decimal, or scientific
notation with ``.`` as separator.

Parsing is all-or-nothing: every problem found is reported as a
:class:`ParseError` with a 1-based line and column, and no partially
valid scenario is ever returned.  :func:`emit_scenario` writes the
canonical form (fixed section and key order, defaults materialized,
numbers at up to 9 significant digits, LF endings), and
``parse_scenario(emit_scenario(s))`` reproduces ``s``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum

from .generation import (
    DEFAULT_CLOUD_ATTENUATION,
    DEFAULT_CUT_IN,
    DEFAULT_CUT_OUT,
    DEFAULT_RATED,
    SolarPanel,
    WindTurbine,
)
from .grid import Bus, BusKind, GridConnection, Line, LoadDevice, Network, validate
from .weather import WeatherParams

SOLVER_CHOICES = ("acpf", "gs", "simple")
DEFAULT_S_BASE_VA = 10000.0

# Object ids the result writer uses for non-device rows.
RESERVED_IDS = ("weather", "network")

_SECTION_RE = re.compile(r"^\s*\[([a-z_]+)\]\s*$")
_ENTRY_RE = re.compile(r"^\s*([a-z_][a-z0-9_]*)\s*=\s*(\S(?:.*\S)?)\s*$")
_ID_RE = re.compile(r"^[a-z0-9_]{1,32}$")
_INT_RE = re.compile(r"^[+-]?[0-9]+$")
_NUMBER_RE = re.compile(r"^[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?$")

_SECTION_KINDS = ("simulation", "weather", "bus", "line", "grid", "load", "pv", "wind")

_WEATHER_PARAM_KEYS = (
    "weibull_shape",
    "weibull_scale_mps",
    "cloud_step",
    "cloud_initial",
    "temp_mean_c",
    "temp_amplitude_c",
)

# Network field names (as used in validation diagnostics) -> document keys.
_ATTRIBUTE_KEYS = {
    "bus": "bus",
    "from_bus": "from",
    "to_bus": "to",
    "resistance": "resistance_ohm",
    "reactance": "reactance_ohm",
    "nominal_voltage": "nominal_voltage_v",
    "active_power": "p_w",
    "reactive_power": "q_var",
    "peak_power": "peak_w",
    "cloud_attenuation": "alpha",
    "cut_in": "cut_in_mps",
    "rated": "rated_mps",
    "cut_out": "cut_out_mps",
}


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
    """Run controls parsed from the [simulation] section."""

    steps: int = 48
    start_hour: int = 0
    solver: str = "acpf"
    seed: int = 0
    s_base_va: float = DEFAULT_S_BASE_VA
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

    def _mismatch(self, entry: _Entry, expected: str) -> None:
        self.errors.append(
            ParseError(
                entry.line,
                entry.value_column,
                ParseErrorKind.TYPE_MISMATCH,
                f"key {entry.key!r} expects {expected}, got {entry.value!r}",
            )
        )
        self.ok = False

    def has(self, key: str) -> bool:
        return key in self.section.entries

    def ident(self, key: str, required: bool = True) -> str | None:
        entry = self._take(key, required)
        if entry is None:
            return None
        if not _ID_RE.match(entry.value):
            self._mismatch(entry, "an identifier ([a-z0-9_], 1-32 chars)")
            return None
        return entry.value

    def choice(self, key: str, options: tuple[str, ...], required: bool = True,
               default: str | None = None) -> str | None:
        entry = self._take(key, required)
        if entry is None:
            return default
        if entry.value not in options:
            self._mismatch(entry, "one of " + ", ".join(options))
            return default
        return entry.value

    def integer(self, key: str, required: bool = True, default: int | None = None,
                minimum: int | None = None, maximum: int | None = None) -> int | None:
        entry = self._take(key, required)
        if entry is None:
            return default
        if not _INT_RE.match(entry.value):
            self._mismatch(entry, "an integer")
            return default
        value = int(entry.value)
        if minimum is not None and value < minimum:
            self._mismatch(entry, f"an integer >= {minimum}")
            return default
        if maximum is not None and value > maximum:
            self._mismatch(entry, f"an integer <= {maximum}")
            return default
        return value

    def number(self, key: str, required: bool = True, default: float | None = None,
               minimum: float | None = None, maximum: float | None = None,
               exclusive_minimum: bool = False) -> float | None:
        entry = self._take(key, required)
        if entry is None:
            return default
        if not _NUMBER_RE.match(entry.value):
            self._mismatch(entry, "a number")
            return default
        value = float(entry.value)
        if minimum is not None:
            if value < minimum or (exclusive_minimum and value == minimum):
                op = ">" if exclusive_minimum else ">="
                self._mismatch(entry, f"a number {op} {format_number(minimum)}")
                return default
        if maximum is not None and value > maximum:
            self._mismatch(entry, f"a number <= {format_number(maximum)}")
            return default
        return value

    def path(self, key: str, required: bool = True) -> str | None:
        entry = self._take(key, required)
        if entry is None:
            return None
        if any(ch.isspace() for ch in entry.value):
            self._mismatch(entry, "a path without whitespace")
            return None
        return entry.value

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

    sim_section = _single_section(sections, "simulation", errors)
    weather_section = _single_section(sections, "weather", errors)
    grid_section = _single_section(sections, "grid", errors)

    if sim_section is None:
        errors.append(
            ParseError(
                1, 1, ParseErrorKind.MISSING_REQUIRED, "missing [simulation] section"
            )
        )

    steps = start_hour = seed = None
    solver = None
    s_base_va: float | None = DEFAULT_S_BASE_VA
    v_base_v: float | None = None
    if sim_section is not None:
        r = _Reader(sim_section, errors)
        steps = r.integer("steps", minimum=1)
        start_hour = r.integer("start_hour", minimum=0, maximum=23)
        solver = r.choice("solver", SOLVER_CHOICES)
        seed = r.integer("seed", minimum=0, maximum=2**64 - 1)
        s_base_va = r.number(
            "s_base_va", required=False, default=DEFAULT_S_BASE_VA,
            minimum=0.0, exclusive_minimum=True,
        )
        v_base_v = r.number(
            "v_base_v", required=False, default=None,
            minimum=0.0, exclusive_minimum=True,
        )
        r.reject_unknown()

    weather_params: WeatherParams | None = None
    weather_trace: str | None = None
    if weather_section is not None:
        r = _Reader(weather_section, errors)
        if r.has("trace"):
            weather_trace = r.path("trace")
            stray = [k for k in _WEATHER_PARAM_KEYS if k in weather_section.entries]
            if stray:
                r.used.update(stray)  # one conflict error, not one per key
                errors.append(
                    ParseError(
                        weather_section.entries[stray[0]].line,
                        weather_section.entries[stray[0]].key_column,
                        ParseErrorKind.SEMANTIC_CONFLICT,
                        "a [weather] section uses either 'trace' or model "
                        "parameters, not both",
                    )
                )
            r.reject_unknown()
        else:
            defaults = WeatherParams()
            weather_params = WeatherParams(
                weibull_shape=r.number(
                    "weibull_shape", required=False,
                    default=defaults.weibull_shape, minimum=0.0, exclusive_minimum=True,
                ),
                weibull_scale=r.number(
                    "weibull_scale_mps", required=False,
                    default=defaults.weibull_scale, minimum=0.0, exclusive_minimum=True,
                ),
                cloud_step=r.number(
                    "cloud_step", required=False,
                    default=defaults.cloud_step, minimum=0.0,
                ),
                cloud_initial=r.number(
                    "cloud_initial", required=False,
                    default=defaults.cloud_initial, minimum=0.0, maximum=1.0,
                ),
                temp_mean=r.number(
                    "temp_mean_c", required=False, default=defaults.temp_mean
                ),
                temp_amplitude=r.number(
                    "temp_amplitude_c", required=False, default=defaults.temp_amplitude
                ),
            )
            r.reject_unknown()
    else:
        weather_params = WeatherParams()

    buses: list[Bus] = []
    lines: list[Line] = []
    loads: list[LoadDevice] = []
    pvs: list[SolarPanel] = []
    winds: list[WindTurbine] = []
    grid: GridConnection | None = None
    id_sections: dict[str, _Section] = {}

    def register_id(obj_id: str | None, section: _Section) -> bool:
        if obj_id is None:
            return False
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
        if section.kind in ("simulation", "weather"):
            continue
        if section.kind == "grid" and section is not grid_section:
            continue  # extra [grid] sections already reported
        r = _Reader(section, errors)
        if section.kind == "bus":
            bus_id = r.ident("id")
            kind = r.choice("kind", ("slack", "pq"))
            voltage = r.number(
                "nominal_voltage_v", minimum=0.0, exclusive_minimum=True
            )
            r.reject_unknown()
            if r.ok and register_id(bus_id, section):
                buses.append(Bus(bus_id, BusKind(kind), voltage))
        elif section.kind == "line":
            line_id = r.ident("id")
            from_bus = r.ident("from")
            to_bus = r.ident("to")
            resistance = r.number("resistance_ohm", minimum=0.0)
            reactance = r.number("reactance_ohm", required=False, default=0.0, minimum=0.0)
            length = r.number("length_m", required=False, default=None, minimum=0.0)
            r.reject_unknown()
            if r.ok and register_id(line_id, section):
                lines.append(Line(line_id, from_bus, to_bus, resistance, reactance, length))
        elif section.kind == "grid":
            grid_id = r.ident("id")
            bus = r.ident("bus")
            r.reject_unknown()
            if r.ok and register_id(grid_id, section):
                grid = GridConnection(grid_id, bus)
        elif section.kind == "load":
            load_id = r.ident("id")
            bus = r.ident("bus")
            p_w = r.number("p_w", minimum=0.0)
            q_var = r.number("q_var", required=False, default=0.0)
            r.reject_unknown()
            if r.ok and register_id(load_id, section):
                loads.append(LoadDevice(load_id, bus, p_w, q_var))
        elif section.kind == "pv":
            pv_id = r.ident("id")
            bus = r.ident("bus")
            peak = r.number("peak_w", minimum=0.0, exclusive_minimum=True)
            alpha = r.number(
                "alpha", required=False, default=DEFAULT_CLOUD_ATTENUATION,
                minimum=0.0, maximum=1.0,
            )
            r.reject_unknown()
            if r.ok and register_id(pv_id, section):
                pvs.append(SolarPanel(pv_id, bus, peak, alpha))
        elif section.kind == "wind":
            wind_id = r.ident("id")
            bus = r.ident("bus")
            peak = r.number("peak_w", minimum=0.0, exclusive_minimum=True)
            cut_in = r.number("cut_in_mps", required=False, default=DEFAULT_CUT_IN, minimum=0.0)
            rated = r.number("rated_mps", required=False, default=DEFAULT_RATED)
            cut_out = r.number("cut_out_mps", required=False, default=DEFAULT_CUT_OUT)
            r.reject_unknown()
            if r.ok and register_id(wind_id, section):
                winds.append(WindTurbine(wind_id, bus, peak, cut_in, rated, cut_out))

    if errors:
        raise ScenarioFormatError(errors)

    network = Network(
        buses=tuple(buses),
        lines=tuple(lines),
        loads=tuple(loads),
        pvs=tuple(pvs),
        winds=tuple(winds),
        grid=grid,
    )
    for diag in validate(network):
        line_no, column = 1, 1
        section = id_sections.get(diag.object_id or "")
        if section is not None:
            line_no = section.line
            entry = section.entries.get(_ATTRIBUTE_KEYS.get(diag.attribute or "", ""))
            if entry is not None:
                line_no, column = entry.line, entry.value_column
        errors.append(
            ParseError(line_no, column, ParseErrorKind.SEMANTIC_CONFLICT, diag.message)
        )
    if errors:
        raise ScenarioFormatError(errors)

    if v_base_v is None:
        v_base_v = buses[0].nominal_voltage if buses else 230.0
    config = SimulationConfig(
        steps=steps,
        start_hour=start_hour,
        solver=solver,
        seed=seed,
        s_base_va=s_base_va,
        v_base_v=v_base_v,
    )
    if weather_params is not None:
        weather_params = replace(weather_params, seed=config.seed)
    return Scenario(
        network=network,
        config=config,
        weather=weather_params,
        weather_trace=weather_trace,
    )


def _emit_section(kind: str, pairs: list[tuple[str, str]]) -> str:
    body = "\n".join(f"{key} = {value}" for key, value in pairs)
    return f"[{kind}]\n{body}"


def emit_scenario(scenario: Scenario) -> str:
    """Render the canonical text form of a valid scenario.

    Sections appear as simulation, weather, buses, lines, grid, loads,
    pvs, winds; optional keys are materialized with their effective
    values so the output is self-contained and byte-stable.
    """
    cfg = scenario.config
    blocks = [
        _emit_section(
            "simulation",
            [
                ("steps", str(cfg.steps)),
                ("start_hour", str(cfg.start_hour)),
                ("solver", cfg.solver),
                ("seed", str(cfg.seed)),
                ("s_base_va", format_number(cfg.s_base_va)),
                ("v_base_v", format_number(cfg.v_base_v)),
            ],
        )
    ]
    if scenario.weather_trace is not None:
        blocks.append(_emit_section("weather", [("trace", scenario.weather_trace)]))
    else:
        w = scenario.weather
        blocks.append(
            _emit_section(
                "weather",
                [
                    ("weibull_shape", format_number(w.weibull_shape)),
                    ("weibull_scale_mps", format_number(w.weibull_scale)),
                    ("cloud_step", format_number(w.cloud_step)),
                    ("cloud_initial", format_number(w.cloud_initial)),
                    ("temp_mean_c", format_number(w.temp_mean)),
                    ("temp_amplitude_c", format_number(w.temp_amplitude)),
                ],
            )
        )
    net = scenario.network
    for bus in net.buses:
        blocks.append(
            _emit_section(
                "bus",
                [
                    ("id", bus.id),
                    ("kind", bus.kind.value),
                    ("nominal_voltage_v", format_number(bus.nominal_voltage)),
                ],
            )
        )
    for line in net.lines:
        pairs = [
            ("id", line.id),
            ("from", line.from_bus),
            ("to", line.to_bus),
            ("resistance_ohm", format_number(line.resistance)),
            ("reactance_ohm", format_number(line.reactance)),
        ]
        if line.length is not None:
            pairs.append(("length_m", format_number(line.length)))
        blocks.append(_emit_section("line", pairs))
    if net.grid is not None:
        blocks.append(
            _emit_section("grid", [("id", net.grid.id), ("bus", net.grid.bus)])
        )
    for load in net.loads:
        blocks.append(
            _emit_section(
                "load",
                [
                    ("id", load.id),
                    ("bus", load.bus),
                    ("p_w", format_number(load.active_power)),
                    ("q_var", format_number(load.reactive_power)),
                ],
            )
        )
    for pv in net.pvs:
        blocks.append(
            _emit_section(
                "pv",
                [
                    ("id", pv.id),
                    ("bus", pv.bus),
                    ("peak_w", format_number(pv.peak_power)),
                    ("alpha", format_number(pv.cloud_attenuation)),
                ],
            )
        )
    for wind in net.winds:
        blocks.append(
            _emit_section(
                "wind",
                [
                    ("id", wind.id),
                    ("bus", wind.bus),
                    ("peak_w", format_number(wind.peak_power)),
                    ("cut_in_mps", format_number(wind.cut_in)),
                    ("rated_mps", format_number(wind.rated)),
                    ("cut_out_mps", format_number(wind.cut_out)),
                ],
            )
        )
    return "\n\n".join(blocks) + "\n"
