"""Electrical topology model, per-unit bases, and admittance construction.

Networks are a flat description of buses, lines, and attached devices.
All types are frozen dataclasses; construction never raises for
semantically bad networks, that is the job of :func:`validate`, which
returns machine-readable diagnostics instead of exceptions so callers
can report every problem at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .generation import SolarPanel, WindTurbine


class BusKind(str, Enum):
    SLACK = "slack"
    PQ = "pq"


@dataclass(frozen=True)
class Bus:
    id: str
    kind: BusKind
    nominal_voltage: float


@dataclass(frozen=True)
class Line:
    """Series branch between two buses; impedance in ohms, length informational."""

    id: str
    from_bus: str
    to_bus: str
    resistance: float
    reactance: float = 0.0
    length: float | None = None


@dataclass(frozen=True)
class LoadDevice:
    """Constant-power load; reactive part defaults to unity power factor."""

    id: str
    bus: str
    active_power: float
    reactive_power: float = 0.0


@dataclass(frozen=True)
class GridConnection:
    """Utility tie point; must sit on the slack bus of its network."""

    id: str
    bus: str


@dataclass(frozen=True)
class PerUnitBase:
    """Normalization base: s_base in VA, v_base in volts.

    Both bases and the impedance base z_base they give are positive and
    finite, else construction raises ValueError.
    """

    s_base: float
    v_base: float

    def __post_init__(self) -> None:
        if not (0.0 < self.s_base < math.inf and 0.0 < self.v_base < math.inf):
            raise ValueError("per-unit bases must be positive and finite")
        try:
            z_base = self.z_base
        except OverflowError:  # float ** raises where / gives inf
            z_base = math.inf
        if not 0.0 < z_base < math.inf:
            raise ValueError(
                f"impedance base v_base**2 / s_base is {z_base!r}, not positive and finite"
            )

    @property
    def z_base(self) -> float:
        return self.v_base**2 / self.s_base


@dataclass(frozen=True, eq=False)
class AdmittanceMatrix:
    """Dense per-unit bus admittance matrix (complex n x n, read-only)."""

    y: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.y, dtype=complex)  # copy: never freezes caller arrays
        arr.setflags(write=False)
        object.__setattr__(self, "y", arr)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def conductance(self) -> np.ndarray:
        return self.y.real

    @property
    def susceptance(self) -> np.ndarray:
        return self.y.imag


@dataclass(frozen=True)
class Network:
    """Buses, lines, and attached devices; device lists may be empty."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]
    loads: tuple[LoadDevice, ...] = ()
    pvs: tuple[SolarPanel, ...] = ()
    winds: tuple[WindTurbine, ...] = ()
    grid: GridConnection | None = None

    def __post_init__(self) -> None:
        for name in ("buses", "lines", "loads", "pvs", "winds"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def bus_index(self, bus_id: str) -> int:
        for i, bus in enumerate(self.buses):
            if bus.id == bus_id:
                return i
        raise KeyError(f"no bus named {bus_id!r}")

    def slack_index(self) -> int:
        for i, bus in enumerate(self.buses):
            if bus.kind is BusKind.SLACK:
                return i
        raise ValueError("network has no slack bus")


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding; code is a stable machine-readable tag.

    attribute names the field of the offending object (when one field is
    to blame) so callers can point at the exact source location.
    """

    code: str
    object_id: str | None
    message: str
    attribute: str | None = None


class Bound(NamedTuple):
    """Valid range of a numeric field; the minimum is exclusive when strict is set."""

    minimum: float | None = None
    maximum: float | None = None
    strict: bool = False

    def unmet(self, value: float) -> str | None:
        """The requirement value fails, such as "> 0" or "<= 1"; None if in range.

        NaN fails every stated limit.  Int limits print as ints, float
        limits at up to 9 significant digits.
        """
        lo, hi = self.minimum, self.maximum
        if lo is not None and not (value > lo if self.strict else value >= lo):
            return f"{'>' if self.strict else '>='} {_show(lo)}"
        if hi is not None and not value <= hi:
            return f"<= {_show(hi)}"
        return None


def _show(limit: float) -> str:
    return str(limit) if isinstance(limit, int) else format(limit, ".9g")


_POSITIVE = Bound(0.0, strict=True)
_NON_NEGATIVE = Bound(0.0)

# The one statement of which values each numeric network field accepts.
# validate() also requires every listed field to be finite (None skips
# an optional one), and the .mgs parser reads its bounds from here.
FIELD_BOUNDS: dict[type, dict[str, Bound]] = {
    Bus: {"nominal_voltage": _POSITIVE},
    Line: {"resistance": _NON_NEGATIVE, "reactance": _NON_NEGATIVE, "length": _NON_NEGATIVE},
    LoadDevice: {"active_power": _NON_NEGATIVE, "reactive_power": Bound()},
    SolarPanel: {"peak_power": _POSITIVE, "cloud_attenuation": Bound(0.0, 1.0)},
    WindTurbine: {
        "peak_power": _POSITIVE,
        "cut_in": _NON_NEGATIVE,
        "rated": Bound(),
        "cut_out": Bound(),
    },
}

# The fields of each object type that name a bus; validate() requires
# each to name one of the network's buses.
BUS_FIELDS: dict[type, tuple[str, ...]] = {
    Line: ("from_bus", "to_bus"),
    LoadDevice: ("bus",),
    SolarPanel: ("bus",),
    WindTurbine: ("bus",),
    GridConnection: ("bus",),
}


def line_resistance(resistivity: float, length: float, cross_section: float) -> float:
    """Conductor resistance in ohms: resistivity * length / cross_section.

    Units: ohm-meters, meters, square meters.
    """
    if resistivity <= 0.0:
        raise ValueError(f"resistivity must be positive, got {resistivity!r}")
    if cross_section <= 0.0:
        raise ValueError(f"cross_section must be positive, got {cross_section!r}")
    if length < 0.0:
        raise ValueError(f"length must be >= 0, got {length!r}")
    return resistivity * length / cross_section


class SingularBranchError(ValueError):
    """A line whose per-unit 1/z is not finite cannot enter the admittance matrix."""


def build_admittance(network: Network, base: PerUnitBase) -> AdmittanceMatrix:
    """Assemble the per-unit bus admittance matrix of a shunt-free network.

    Each line contributes -1/z_pu to both off-diagonal slots; parallel
    lines accumulate.  Diagonals are set to cancel their row, then
    refined once so every row sums to zero well inside 1e-12 even after
    floating-point rounding.  A line whose per-unit z is zero, or so
    small that 1/z is not finite, raises SingularBranchError.
    """
    n = len(network.buses)
    index = {bus.id: i for i, bus in enumerate(network.buses)}
    y = np.zeros((n, n), dtype=complex)
    for line in network.lines:
        z = complex(line.resistance, line.reactance) / base.z_base
        if z == 0:
            raise SingularBranchError(f"line {line.id!r} has zero impedance")
        i, k = index[line.from_bus], index[line.to_bus]
        if i == k:
            raise ValueError(f"line {line.id!r} connects bus {line.from_bus!r} to itself")
        y_line = 1.0 / z
        if not np.isfinite(y_line):
            raise SingularBranchError(
                f"line {line.id!r} impedance {z.real!r} + j{z.imag!r} pu is too small: "
                "its 1/z is not finite"
            )
        y[i, k] -= y_line
        y[k, i] -= y_line
    for i in range(n):
        y[i, i] = -np.sum(y[i, :])
        y[i, i] -= np.sum(y[i, :])
    return AdmittanceMatrix(y)


def _open_lines(
    network: Network, lines: list[Line]
) -> tuple[dict[Line, float], dict[str, list[str]]]:
    """The lines that are open in floating point, each with its ratio, and
    the ids of the buses whose |sum of 1/z| is not finite, each with its lines'.

    A line's ratio is its |1/z| over the smaller |sum of 1/z| of the lines
    at its two end buses.  At or below machine epsilon the line cannot
    change the sum of either bus's row: it connects nothing.  A line that
    is lost only in one end's sum, beside a near-short there or as the
    one weak line of a bus, still carries the other end's row and is not
    open.  Near-shorts' 1/z may sum past the largest float: such a bus
    makes none of its lines open.  The ratio does not depend on the
    per-unit base, so it is taken in ohms.  lines must connect two
    distinct buses of the network through a finite impedance whose 1/z
    is finite.
    """
    index = {bus.id: i for i, bus in enumerate(network.buses)}
    ends = np.array([(index[line.from_bus], index[line.to_bus]) for line in lines], np.intp)
    ends = ends.reshape(-1, 2)
    y = 1.0 / np.array([complex(line.resistance, line.reactance) for line in lines], complex)
    total = np.zeros(len(network.buses), complex)
    # Near-shorts' 1/z may sum past the largest float: to inf, or to nan.
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(total, ends, y[:, None])
    total = np.abs(total)
    overflowed = ~np.isfinite(total)
    total[overflowed] = 0.0
    with np.errstate(divide="ignore"):
        ratio = np.abs(y) / total[ends].min(axis=1)
    eps = np.finfo(float).eps
    open_lines = {line: r for line, r in zip(lines, ratio.tolist()) if r <= eps}
    return open_lines, {
        network.buses[bus].id: [line.id for line, pair in zip(lines, ends.tolist()) if bus in pair]
        for bus in np.flatnonzero(overflowed).tolist()
    }


def _connected_component(network: Network, start: int, open_lines: dict[Line, float]) -> set[int]:
    index = {bus.id: i for i, bus in enumerate(network.buses)}
    adjacency: dict[int, list[int]] = {i: [] for i in range(len(network.buses))}
    for line in network.lines:
        i = index.get(line.from_bus)
        k = index.get(line.to_bus)
        if i is None or k is None or i == k or line in open_lines:
            continue
        adjacency[i].append(k)
        adjacency[k].append(i)
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return seen


def validate(network: Network) -> list[Diagnostic]:
    """Check network consistency; an empty result means the network is valid.

    Reports duplicate identifiers, numeric fields that are non-finite or
    outside their FIELD_BOUNDS range, BUS_FIELDS that name no bus,
    disconnected buses, a slack count other than one, zero-impedance or
    self-looped lines, lines whose 1/z is not finite (a subnormal
    impedance), and inconsistent wind speeds.  A line that is open
    in floating point (see _open_lines) connects nothing: the buses it
    alone connects are disconnected, and the diagnostic names it.  The
    buses whose lines' 1/z sum to no finite number are one diagnostic,
    which names each with its lines.
    """
    diags: list[Diagnostic] = []
    grid = () if network.grid is None else (network.grid,)
    groups = (
        ("bus", network.buses),
        ("line", network.lines),
        ("load", network.loads),
        ("pv", network.pvs),
        ("wind", network.winds),
        ("grid", grid),
    )
    bus_ids = {b.id for b in network.buses}
    seen_ids: set[str] = set()
    for kind, objects in groups:
        for obj in objects:
            if obj.id in seen_ids:
                diags.append(
                    Diagnostic("duplicate_id", obj.id, f"duplicate id {obj.id!r} ({kind})")
                )
            seen_ids.add(obj.id)
            for name, bound in FIELD_BOUNDS.get(type(obj), {}).items():
                value = getattr(obj, name)
                if value is None:
                    continue
                unmet = bound.unmet(value) if math.isfinite(value) else "finite"
                if unmet:
                    message = f"{kind} {obj.id!r} {name} must be {unmet}, got {value!r}"
                    diags.append(Diagnostic("invalid_value", obj.id, message, name))
            for name in BUS_FIELDS.get(type(obj), ()):
                bus = getattr(obj, name)
                if bus not in bus_ids:
                    message = f"{kind} {obj.id!r} references unknown bus {bus!r}"
                    diags.append(Diagnostic("dangling_reference", obj.id, message, name))

    voltages = {
        b.nominal_voltage for b in network.buses if math.isfinite(b.nominal_voltage)
    }
    if len(voltages) > 1:
        diags.append(
            Diagnostic(
                "invalid_value",
                network.buses[0].id,
                "all buses must share one nominal voltage, got "
                + ", ".join(f"{v:g} V" for v in sorted(voltages)),
                "nominal_voltage",
            )
        )

    slack_ids = [b.id for b in network.buses if b.kind is BusKind.SLACK]
    if not slack_ids:
        diags.append(Diagnostic("no_slack", None, "network has no slack bus"))
    elif len(slack_ids) > 1:
        diags.append(
            Diagnostic(
                "multiple_slack",
                slack_ids[1],
                "network must have exactly one slack bus, got "
                + ", ".join(repr(s) for s in slack_ids),
            )
        )

    for line in network.lines:
        if line.from_bus == line.to_bus:
            message = f"line {line.id!r} connects a bus to itself"
            diags.append(Diagnostic("self_loop", line.id, message, "to_bus"))
        if line.resistance == line.reactance == 0.0:
            message = f"line {line.id!r} has zero impedance"
            diags.append(Diagnostic("zero_impedance", line.id, message, "resistance"))
    for wind in network.winds:
        speeds = (wind.cut_in, wind.rated, wind.cut_out)
        if all(map(math.isfinite, speeds)) and not wind.cut_in < wind.rated < wind.cut_out:
            message = f"wind {wind.id!r} needs 0 <= cut_in < rated < cut_out"
            diags.append(Diagnostic("invalid_value", wind.id, message, "rated"))
    for tie in grid:
        if tie.bus in bus_ids and tie.bus not in slack_ids:
            message = f"grid connection {tie.id!r} must sit on the slack bus"
            diags.append(Diagnostic("invalid_value", tie.id, message, "bus"))

    # Lines with a diagnostic on their ends or impedance keep it and stay
    # out of the open-line ratio, and so does a line whose 1/z overflows.
    electrical = ("from_bus", "to_bus", "resistance", "reactance")
    flagged = {d.object_id for d in diags if d.attribute in electrical}
    for line in network.lines:
        z = complex(line.resistance, line.reactance)
        if line.id not in flagged and not np.isfinite(1.0 / z):
            message = (
                f"line {line.id!r} impedance {z.real!r} + j{z.imag!r} ohm is too small: "
                "its 1/z is not finite"
            )
            diags.append(Diagnostic("invalid_value", line.id, message, "resistance"))
            flagged.add(line.id)

    if network.buses:
        open_lines, overflowed = _open_lines(
            network, [line for line in network.lines if line.id not in flagged]
        )
        if overflowed:
            message = "near-short lines: the sum of 1/z is not finite at " + ", ".join(
                f"bus {bus!r} (" + ", ".join(f"line {line!r}" for line in at) + ")"
                for bus, at in overflowed.items()
            )
            diags.append(Diagnostic("near_short", next(iter(overflowed)), message))
        start = next((i for i, b in enumerate(network.buses) if b.kind is BusKind.SLACK), 0)
        reachable = _connected_component(network, start, open_lines)
        unreachable = [b.id for i, b in enumerate(network.buses) if i not in reachable]
        if unreachable:
            names = ", ".join(map(repr, unreachable))
            message = f"buses unreachable from {network.buses[start].id!r}: {names}"
            # The open lines with one end reachable cut the rest off.
            reached = {network.buses[i].id for i in reachable}
            cut = [
                line for line in open_lines if (line.from_bus in reached) != (line.to_bus in reached)
            ]
            if cut:
                message += "; open in floating point: " + ", ".join(
                    f"line {line.id!r} (|1/z| at most {open_lines[line]:.3g} of each end's sum)"
                    for line in cut
                )
            diags.append(Diagnostic("disconnected", cut[0].id if cut else unreachable[0], message))

    return diags
