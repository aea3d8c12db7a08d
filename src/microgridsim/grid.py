"""Electrical topology model, per-unit bases, and admittance construction.

Networks are a flat description of buses, lines, and attached devices.
All types are frozen dataclasses; construction never raises for
semantically bad networks, that is the job of :func:`validate`, which
returns machine-readable diagnostics instead of exceptions so callers
can report every problem at once.
"""

from __future__ import annotations

import math
import re
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import count
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

# What an object id may be: validate() requires it, and the .mgs parser
# reads ids by it.  The result writer names its non-device rows by the
# reserved ids, so no object may take them.
_ID_RE = re.compile(r"[a-z0-9_]{1,32}")
WEATHER_OBJECT = "weather"
NETWORK_OBJECT = "network"
RESERVED_IDS = (WEATHER_OBJECT, NETWORK_OBJECT)

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


def _line_table(network: Network, z_base: float) -> tuple[np.ndarray, np.ndarray]:
    """Every line's end-bus indices (L, 2) and impedance z / z_base (L,), in line order.

    An id that names no bus gets an index from n up, one per id, so two
    ends are equal exactly when their ids are.  Each part of z is divided
    on its own, as Python's complex / float does (numpy's rounds
    otherwise).  np.reciprocal(z) rounds as Python's 1.0 / z does; numpy's
    1.0 / z does not.
    """
    index = defaultdict(count(len(network.buses)).__next__)
    index.update((bus.id, i) for i, bus in enumerate(network.buses))
    ends = np.array([(index[line.from_bus], index[line.to_bus]) for line in network.lines], np.intp)
    parts = np.array([(line.resistance, line.reactance) for line in network.lines], float)
    return ends.reshape(-1, 2), (parts.reshape(-1, 2) / z_base).view(complex)[:, 0]


def build_admittance(network: Network, base: PerUnitBase) -> AdmittanceMatrix:
    """Assemble the per-unit bus admittance matrix of a shunt-free network.

    Each line contributes -1/z_pu to both off-diagonal slots; parallel
    lines accumulate, in line order, by one scatter.  Diagonals are set
    to cancel their row, then refined once so every row sums to zero
    well inside 1e-12 even after floating-point rounding.  The first line
    that cannot enter the matrix raises: a per-unit z that is zero
    (SingularBranchError), an unknown end bus (KeyError naming it), a
    self-loop (ValueError), or a z whose 1/z is not finite, such as a
    subnormal one (SingularBranchError).
    """
    n = len(network.buses)
    ends, z = _line_table(network, base.z_base)
    with np.errstate(all="ignore"):
        y_line = np.reciprocal(z)
    zero, unknown, self_loop = z == 0, ends >= n, ends[:, 0] == ends[:, 1]
    bad = zero | unknown.any(axis=1) | self_loop | ~np.isfinite(y_line) | ~np.isfinite(z)
    if bad.any():
        line = network.lines[j := int(np.argmax(bad))]
        if zero[j]:
            raise SingularBranchError(f"line {line.id!r} has zero impedance")
        if unknown[j].any():
            raise KeyError(line.from_bus if unknown[j, 0] else line.to_bus)
        if self_loop[j]:
            raise ValueError(f"line {line.id!r} connects bus {line.from_bus!r} to itself")
        # As Python divides it: a non-finite part makes the other nan.
        z_pu = complex(line.resistance, line.reactance) / base.z_base
        raise SingularBranchError(
            f"line {line.id!r} impedance {z_pu.real!r} + j{z_pu.imag!r} pu is too small: "
            "its 1/z is not finite"
        )
    y = np.zeros((n, n), dtype=complex)
    # Each line's (from, to) then (to, from) slot, line by line.
    np.subtract.at(y, (ends.ravel(), ends[:, ::-1].ravel()), np.repeat(y_line, 2))
    diagonal = y.reshape(-1)[:: n + 1]
    diagonal[:] = -y.sum(axis=1)
    diagonal -= y.sum(axis=1)
    return AdmittanceMatrix(y)


def validate(network: Network) -> list[Diagnostic]:
    """Check network consistency; an empty result means the network is valid.

    Reports ids that are not identifiers ([a-z0-9_], 1-32 chars) or are
    reserved, duplicate identifiers, numeric fields that are non-finite or
    outside their FIELD_BOUNDS range, BUS_FIELDS that name no bus,
    disconnected buses, a slack count other than one, zero-impedance or
    self-looped lines, lines whose 1/z is not finite (a subnormal
    impedance), and inconsistent wind speeds.  The line rules are masks
    over one table of the lines' end buses and impedances.  A line whose
    |1/z| is at most machine epsilon of the smaller |sum of 1/z| at its
    two end buses (taken in ohms: the ratio does not depend on the base)
    cannot change either bus's row: it is open in floating point and
    connects nothing.  The buses it alone connects are disconnected, and
    the diagnostic names it.  A bus whose lines' 1/z sum to no finite
    number makes none of its lines open; such buses are one diagnostic,
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
            if not (isinstance(obj.id, str) and _ID_RE.fullmatch(obj.id)):
                message = f"{kind} id {obj.id!r} is not an identifier ([a-z0-9_], 1-32 chars)"
                diags.append(Diagnostic("invalid_id", obj.id, message, "id"))
            elif obj.id in RESERVED_IDS:
                message = f"{kind} id {obj.id!r} is reserved for simulator output rows"
                diags.append(Diagnostic("reserved_id", obj.id, message, "id"))
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

    buses, lines, n = network.buses, network.lines, len(network.buses)
    ends, z = _line_table(network, 1.0)
    self_loop, zero = ends[:, 0] == ends[:, 1], z == 0
    for j in np.flatnonzero(self_loop | zero).tolist():
        if self_loop[j]:
            message = f"line {lines[j].id!r} connects a bus to itself"
            diags.append(Diagnostic("self_loop", lines[j].id, message, "to_bus"))
        if zero[j]:
            message = f"line {lines[j].id!r} has zero impedance"
            diags.append(Diagnostic("zero_impedance", lines[j].id, message, "resistance"))
    for wind in network.winds:
        speeds = (wind.cut_in, wind.rated, wind.cut_out)
        if all(map(math.isfinite, speeds)) and not wind.cut_in < wind.rated < wind.cut_out:
            message = f"wind {wind.id!r} needs 0 <= cut_in < rated < cut_out"
            diags.append(Diagnostic("invalid_value", wind.id, message, "rated"))
    for tie in grid:
        if tie.bus in bus_ids and tie.bus not in slack_ids:
            message = f"grid connection {tie.id!r} must sit on the slack bus"
            diags.append(Diagnostic("invalid_value", tie.id, message, "bus"))

    # A line with a diagnostic on its ends or impedance (unknown or equal
    # ends, a z that is zero or outside FIELD_BOUNDS, or a 1/z that is not
    # finite) keeps it and stays out of the open-line ratio.
    known = (ends < n).all(axis=1)
    fit = known & ~self_loop & ~zero & np.isfinite(z) & (z.real >= 0) & (z.imag >= 0)
    with np.errstate(all="ignore"):
        y = np.reciprocal(z)
    for j in np.flatnonzero(fit & ~np.isfinite(y)).tolist():
        message = (
            f"line {lines[j].id!r} impedance {z[j].real.item()!r} + j{z[j].imag.item()!r} ohm "
            "is too small: its 1/z is not finite"
        )
        diags.append(Diagnostic("invalid_value", lines[j].id, message, "resistance"))
    used = np.flatnonzero(fit & np.isfinite(y))
    at, y = ends[used], y[used]
    total = np.zeros(n, complex)
    # Near-shorts' 1/z may sum past the largest float: to inf, or to nan.
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(total, at, y[:, None])
    total = np.abs(total)
    overflowed = np.flatnonzero(~np.isfinite(total)).tolist()
    if overflowed:
        message = "near-short lines: the sum of 1/z is not finite at " + ", ".join(
            f"bus {buses[bus].id!r} ("
            + ", ".join(f"line {lines[j].id!r}" for j in used[(at == bus).any(axis=1)])
            + ")"
            for bus in overflowed
        )
        diags.append(Diagnostic("near_short", buses[overflowed[0]].id, message))
    total[overflowed] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs(y) / total[at].min(axis=1)
    is_open = ratio <= np.finfo(float).eps
    connects = known & ~self_loop
    connects[used[is_open]] = False
    # Reachability spreads from the slack one line further a pass.
    a, b = ends[connects].T
    start = network.slack_index() if slack_ids else 0
    reached = np.arange(n) == start
    while (cross := reached[a] != reached[b]).any():
        reached[a[cross]] = reached[b[cross]] = True
    if not reached.all():
        unreachable = [buses[i].id for i in np.flatnonzero(~reached).tolist()]
        names = ", ".join(map(repr, unreachable))
        message = f"buses unreachable from {buses[start].id!r}: {names}"
        # The open lines with one end reachable cut the rest off.
        cut = np.flatnonzero(is_open & (reached[at[:, 0]] != reached[at[:, 1]])).tolist()
        if cut:
            message += "; open in floating point: " + ", ".join(
                f"line {lines[used[k]].id!r} (|1/z| at most {ratio[k]:.3g} of each end's sum)"
                for k in cut
            )
        where = lines[used[cut[0]]].id if cut else unreachable[0]
        diags.append(Diagnostic("disconnected", where, message))

    return diags
