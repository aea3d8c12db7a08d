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
    """Normalization base: s_base in VA, v_base in volts."""

    s_base: float
    v_base: float

    def __post_init__(self) -> None:
        if self.s_base <= 0.0 or self.v_base <= 0.0:
            raise ValueError("per-unit bases must be positive")

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
    """A line with zero impedance cannot enter the admittance matrix."""


def build_admittance(network: Network, base: PerUnitBase) -> AdmittanceMatrix:
    """Assemble the per-unit bus admittance matrix of a shunt-free network.

    Each line contributes -1/z_pu to both off-diagonal slots; parallel
    lines accumulate.  Diagonals are set to cancel their row, then
    refined once so every row sums to zero well inside 1e-12 even after
    floating-point rounding.
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
        y[i, k] -= y_line
        y[k, i] -= y_line
    for i in range(n):
        y[i, i] = -np.sum(y[i, :])
        y[i, i] -= np.sum(y[i, :])
    return AdmittanceMatrix(y)


def _connected_component(network: Network, start: int) -> set[int]:
    index = {bus.id: i for i, bus in enumerate(network.buses)}
    adjacency: dict[int, list[int]] = {i: [] for i in range(len(network.buses))}
    for line in network.lines:
        i = index.get(line.from_bus)
        k = index.get(line.to_bus)
        if i is None or k is None or i == k:
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


def _non_finite(kind: str, obj, fields: tuple[str, ...]) -> list[Diagnostic]:
    """invalid_value diagnostics for the named fields of obj that are NaN or infinite."""
    return [
        Diagnostic(
            "invalid_value",
            obj.id,
            f"{kind} {obj.id!r} {name} must be finite, got {getattr(obj, name)!r}",
            name,
        )
        for name in fields
        if not math.isfinite(getattr(obj, name))
    ]


def validate(network: Network) -> list[Diagnostic]:
    """Check network consistency; an empty result means the network is valid.

    Reports duplicate identifiers, dangling bus references, disconnected
    buses, a slack count other than one, zero-impedance or self-looped
    lines, and non-finite or out-of-range electrical and device parameters.
    """
    diags: list[Diagnostic] = []

    seen_ids: set[str] = set()
    devices: list[tuple[str, str]] = []
    devices += [("bus", b.id) for b in network.buses]
    devices += [("line", l.id) for l in network.lines]
    devices += [("load", l.id) for l in network.loads]
    devices += [("pv", p.id) for p in network.pvs]
    devices += [("wind", w.id) for w in network.winds]
    if network.grid is not None:
        devices.append(("grid", network.grid.id))
    for kind, obj_id in devices:
        if obj_id in seen_ids:
            diags.append(
                Diagnostic("duplicate_id", obj_id, f"duplicate id {obj_id!r} ({kind})")
            )
        seen_ids.add(obj_id)

    bus_ids = {b.id for b in network.buses}

    for bus in network.buses:
        bad = _non_finite("bus", bus, ("nominal_voltage",))
        if bad:
            diags += bad
        elif bus.nominal_voltage <= 0.0:
            diags.append(
                Diagnostic(
                    "invalid_value",
                    bus.id,
                    f"bus {bus.id!r} nominal voltage must be positive",
                    "nominal_voltage",
                )
            )
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
        for endpoint, field_name in ((line.from_bus, "from_bus"), (line.to_bus, "to_bus")):
            if endpoint not in bus_ids:
                diags.append(
                    Diagnostic(
                        "dangling_reference",
                        line.id,
                        f"line {line.id!r} references unknown bus {endpoint!r}",
                        field_name,
                    )
                )
        if line.from_bus == line.to_bus:
            diags.append(
                Diagnostic(
                    "self_loop",
                    line.id,
                    f"line {line.id!r} connects a bus to itself",
                    "to_bus",
                )
            )
        bad = _non_finite("line", line, ("resistance", "reactance"))
        if bad:
            diags += bad
        elif line.resistance < 0.0 or line.reactance < 0.0:
            diags.append(
                Diagnostic(
                    "invalid_value",
                    line.id,
                    f"line {line.id!r} has negative impedance",
                    "resistance",
                )
            )
        elif line.resistance + line.reactance == 0.0:
            diags.append(
                Diagnostic(
                    "zero_impedance",
                    line.id,
                    f"line {line.id!r} has zero impedance",
                    "resistance",
                )
            )

    def check_ref(kind: str, obj_id: str, bus: str) -> None:
        if bus not in bus_ids:
            diags.append(
                Diagnostic(
                    "dangling_reference",
                    obj_id,
                    f"{kind} {obj_id!r} references unknown bus {bus!r}",
                    "bus",
                )
            )

    for load in network.loads:
        check_ref("load", load.id, load.bus)
        bad = _non_finite("load", load, ("active_power", "reactive_power"))
        if bad:
            diags += bad
        elif load.active_power < 0.0:
            diags.append(
                Diagnostic(
                    "invalid_value",
                    load.id,
                    f"load {load.id!r} has negative demand",
                    "active_power",
                )
            )
    for pv in network.pvs:
        check_ref("pv", pv.id, pv.bus)
        bad = _non_finite("pv", pv, ("peak_power", "cloud_attenuation"))
        if bad:
            diags += bad
            continue
        if pv.peak_power <= 0.0:
            diags.append(
                Diagnostic(
                    "invalid_value",
                    pv.id,
                    f"pv {pv.id!r} peak power must be positive",
                    "peak_power",
                )
            )
        if not 0.0 <= pv.cloud_attenuation <= 1.0:
            diags.append(
                Diagnostic(
                    "invalid_value",
                    pv.id,
                    f"pv {pv.id!r} cloud attenuation outside [0, 1]",
                    "cloud_attenuation",
                )
            )
    for wind in network.winds:
        check_ref("wind", wind.id, wind.bus)
        bad = _non_finite("wind", wind, ("peak_power", "cut_in", "rated", "cut_out"))
        if bad:
            diags += bad
            continue
        if wind.peak_power <= 0.0:
            diags.append(
                Diagnostic(
                    "invalid_value",
                    wind.id,
                    f"wind {wind.id!r} peak power must be positive",
                    "peak_power",
                )
            )
        if not 0.0 <= wind.cut_in < wind.rated < wind.cut_out:
            diags.append(
                Diagnostic(
                    "invalid_value",
                    wind.id,
                    f"wind {wind.id!r} needs 0 <= cut_in < rated < cut_out",
                    "rated",
                )
            )
    if network.grid is not None:
        check_ref("grid", network.grid.id, network.grid.bus)
        if network.grid.bus in bus_ids:
            slack = {b.id for b in network.buses if b.kind is BusKind.SLACK}
            if network.grid.bus not in slack:
                diags.append(
                    Diagnostic(
                        "invalid_value",
                        network.grid.id,
                        f"grid connection {network.grid.id!r} must sit on the slack bus",
                        "bus",
                    )
                )

    if network.buses:
        start = 0
        for i, bus in enumerate(network.buses):
            if bus.kind is BusKind.SLACK:
                start = i
                break
        reachable = _connected_component(network, start)
        unreachable = [b.id for i, b in enumerate(network.buses) if i not in reachable]
        if unreachable:
            diags.append(
                Diagnostic(
                    "disconnected",
                    unreachable[0],
                    "buses unreachable from "
                    + repr(network.buses[start].id)
                    + ": "
                    + ", ".join(repr(u) for u in unreachable),
                )
            )

    return diags
