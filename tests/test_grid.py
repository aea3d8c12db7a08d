"""Topology validation, per-unit bases, and admittance construction."""

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microgridsim import (
    Bus,
    BusKind,
    GridConnection,
    Line,
    LoadDevice,
    Network,
    PerUnitBase,
    SingularBranchError,
    SolarPanel,
    WindTurbine,
    build_admittance,
    bundled_scenario_text,
    line_resistance,
    parse_scenario,
    validate,
)
from conftest import BASE, loop_build_admittance, loop_reachable, make_radial_network

COPPER = 1.724e-8
SECTION = 150e-6


# Three per-unit bases, of z_base 5.29 ohm, 1.6 ohm and 32.7 megaohm.
BASES = (
    BASE,
    PerUnitBase(s_base=100_000.0, v_base=400.0),
    PerUnitBase(s_base=3.7, v_base=11_000.0),
)
OHMS = st.floats(1e-4, 10.0)


@st.composite
def radial_networks_with_parallel_lines(draw):
    """A random radial network, with copies of some of its lines laid either
    way round, in shuffled line order; every impedance drawn in ohms."""
    n = draw(st.integers(1, 40))
    ends = [(f"b{draw(st.integers(0, i - 1))}", f"b{i}") for i in range(1, n)]
    if ends:
        copies = draw(st.lists(st.tuples(st.sampled_from(ends), st.booleans()), max_size=6))
        ends += [(b, a) if flip else (a, b) for (a, b), flip in copies]
    lines = [
        Line(f"l{k}", a, b, draw(OHMS), draw(st.sampled_from([0.0]) | OHMS))
        for k, (a, b) in enumerate(ends)
    ]
    buses = tuple(Bus(f"b{i}", BusKind.SLACK if i == 0 else BusKind.PQ, 230.0) for i in range(n))
    return Network(buses, tuple(draw(st.permutations(lines))))


@st.composite
def networks_with_open_lines(draw):
    """Random groups of 2-5 buses, each a tree of 1-10 milliohm lines, and
    1e15 ohm lines between any two buses.  Every bus's sum of 1/z is at
    least 100 S, so each 1e15 ohm line is open in floating point."""
    n = draw(st.integers(2, 24))
    lines, first = [], 0
    while first < n:
        size = draw(st.integers(2, 5))
        last = n if n - (first + size) < 2 else first + size
        for i in range(first + 1, last):
            parent = draw(st.integers(first, i - 1))
            lines.append(Line(f"l{i}", f"b{parent}", f"b{i}", draw(st.floats(1e-3, 1e-2))))
        first = last
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    for k, (i, j) in enumerate(draw(st.lists(pairs, min_size=1, max_size=8))):
        lines.append(Line(f"weak{k}", f"b{i}", f"b{j}", 1e15))
    buses = tuple(Bus(f"b{i}", BusKind.SLACK if i == 0 else BusKind.PQ, 230.0) for i in range(n))
    return Network(buses, tuple(draw(st.permutations(lines))))


def two_bus(resistance=BASE.z_base, reactance=0.0):
    return Network(
        buses=(Bus("a", BusKind.SLACK, 230.0), Bus("b", BusKind.PQ, 230.0)),
        lines=(Line("l1", "a", "b", resistance, reactance),),
    )


class TestLineResistance:
    def test_copper_street_cable_per_km(self):
        r = line_resistance(COPPER, 1000.0, SECTION)
        assert abs(r / 0.115 - 1.0) <= 0.005

    def test_zero_length(self):
        assert line_resistance(COPPER, 0.0, SECTION) == 0.0

    def test_sixty_meter_segment(self):
        r = line_resistance(COPPER, 60.0, SECTION)
        assert r == pytest.approx(0.006896, rel=1e-9)
        # same value from the per-km figure
        assert r == pytest.approx(0.115 * 0.060, rel=0.005)

    def test_doubling_length_is_exact(self):
        for length in (7.0, 60.0, 123.456):
            r = line_resistance(COPPER, length, SECTION)
            assert line_resistance(COPPER, 2 * length, SECTION) == r + r

    def test_additive_in_length(self):
        r90 = line_resistance(COPPER, 90.0, SECTION)
        r60 = line_resistance(COPPER, 60.0, SECTION)
        r30 = line_resistance(COPPER, 30.0, SECTION)
        assert r60 + r30 == pytest.approx(r90, rel=1e-14)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            line_resistance(0.0, 10.0, SECTION)
        with pytest.raises(ValueError):
            line_resistance(COPPER, 10.0, 0.0)
        with pytest.raises(ValueError):
            line_resistance(COPPER, -1.0, SECTION)


class TestPerUnitBase:
    def test_street_base(self):
        assert BASE.z_base == pytest.approx(5.29)

    @pytest.mark.parametrize(
        "s_base, v_base",
        [
            (0.0, 230.0),
            (10_000.0, -5.0),
            # NaN made z_base NaN, and an infinite s_base made it 0.0.
            (math.nan, 230.0),
            (math.inf, 230.0),
            (-math.inf, 230.0),
            (10_000.0, math.nan),
            (10_000.0, math.inf),
        ],
    )
    def test_positive_required(self, s_base, v_base):
        with pytest.raises(ValueError, match="^per-unit bases must be positive and finite$"):
            PerUnitBase(s_base, v_base)

    @pytest.mark.parametrize(
        "s_base, v_base, z_base",
        [
            (10_000.0, 1e200, "inf"),  # v_base**2 overflows
            (1e-100, 1e150, "inf"),  # the division overflows
            (1e308, 1e-150, "0.0"),  # the division underflows
        ],
    )
    def test_impedance_base_must_be_positive_and_finite(self, s_base, v_base, z_base):
        with pytest.raises(
            ValueError, match=rf"^impedance base v_base\*\*2 / s_base is {z_base}, not positive"
        ):
            PerUnitBase(s_base, v_base)


class TestBuildAdmittance:
    def test_unit_impedance_two_bus(self):
        y = build_admittance(two_bus(), BASE).y
        assert np.allclose(y, [[1.0, -1.0], [-1.0, 1.0]])

    def test_single_bus_zero_matrix(self):
        net = Network(buses=(Bus("a", BusKind.SLACK, 230.0),), lines=())
        y = build_admittance(net, BASE).y
        assert y.shape == (1, 1)
        assert y[0, 0] == 0.0

    def test_case2_street_segment(self):
        y = build_admittance(two_bus(resistance=0.0069), BASE).y
        assert y[0, 1] == pytest.approx(-1.0 / (0.0069 / 5.29), rel=1e-12)
        assert y[0, 1] == pytest.approx(-766.6667, rel=1e-6)

    def test_parallel_lines_add(self):
        net = Network(
            buses=(Bus("a", BusKind.SLACK, 230.0), Bus("b", BusKind.PQ, 230.0)),
            lines=(
                Line("l1", "a", "b", BASE.z_base),
                Line("l2", "a", "b", BASE.z_base),
            ),
        )
        y = build_admittance(net, BASE).y
        assert y[0, 1] == pytest.approx(-2.0)
        assert y[0, 0] == pytest.approx(2.0)

    def test_reactance_enters_complex(self):
        y = build_admittance(two_bus(resistance=0.0, reactance=BASE.z_base), BASE).y
        assert y[0, 1] == pytest.approx(1j)

    def test_zero_impedance_rejected(self):
        with pytest.raises(SingularBranchError):
            build_admittance(two_bus(resistance=0.0, reactance=0.0), BASE)

    def test_symmetric_and_rows_cancel(self):
        rng = random.Random(4)
        for _ in range(50):
            net = make_radial_network(rng, rng.randint(2, 12))
            y = build_admittance(net, BASE).y
            assert np.array_equal(y, y.T)
            assert np.max(np.abs(y.sum(axis=1))) <= 1e-12
            assert np.all(np.diag(y).real >= 0.0)

    @settings(max_examples=50)
    @given(radial_networks_with_parallel_lines())
    def test_bytes_match_the_line_loop(self, network):
        for base in BASES:
            y = build_admittance(network, base).y
            assert y.tobytes() == loop_build_admittance(network, base).tobytes()

    def test_valid_network_always_builds(self):
        rng = random.Random(9)
        for _ in range(50):
            net = make_radial_network(rng, rng.randint(1, 10))
            assert validate(net) == []
            build_admittance(net, BASE)


class TestValidate:
    def test_bundled_case2_is_clean(self):
        scenario = parse_scenario(bundled_scenario_text("case2"))
        assert validate(scenario.network) == []
        assert len(scenario.network.buses) == 17
        assert len(scenario.network.lines) == 16

    def test_case2_segment_resistances_follow_per_km_figure(self):
        scenario = parse_scenario(bundled_scenario_text("case2"))
        for line in scenario.network.lines:
            expected = 0.115e-3 * line.length
            assert abs(line.resistance / expected - 1.0) <= 0.005

    def test_two_slack_buses_single_diagnostic(self):
        net = Network(
            buses=(Bus("a", BusKind.SLACK, 230.0), Bus("b", BusKind.SLACK, 230.0)),
            lines=(Line("l1", "a", "b", 1.0),),
        )
        diags = [d for d in validate(net) if d.code == "multiple_slack"]
        assert len(diags) == 1
        assert diags[0].object_id == "b"

    def test_no_slack(self):
        net = Network(
            buses=(Bus("a", BusKind.PQ, 230.0),),
            lines=(),
        )
        assert [d.code for d in validate(net)] == ["no_slack"]

    def test_dangling_line_reference(self):
        net = Network(
            buses=(Bus("a", BusKind.SLACK, 230.0), Bus("b", BusKind.PQ, 230.0)),
            lines=(Line("l1", "a", "b", 1.0), Line("l2", "a", "h9", 1.0)),
        )
        diags = validate(net)
        assert [d.code for d in diags] == ["dangling_reference"]
        assert diags[0].object_id == "l2"
        assert "h9" in diags[0].message

    def test_dangling_device_reference(self):
        net = two_bus()
        net = Network(
            buses=net.buses,
            lines=net.lines,
            loads=(LoadDevice("ld", "nowhere", 100.0),),
        )
        assert [d.code for d in validate(net)] == ["dangling_reference"]

    def test_duplicate_ids_across_kinds(self):
        net = Network(
            buses=(Bus("a", BusKind.SLACK, 230.0), Bus("b", BusKind.PQ, 230.0)),
            lines=(Line("a", "a", "b", 1.0),),
        )
        assert [d.code for d in validate(net)] == ["duplicate_id"]

    def test_disconnected_component(self):
        net = Network(
            buses=(
                Bus("a", BusKind.SLACK, 230.0),
                Bus("b", BusKind.PQ, 230.0),
                Bus("c", BusKind.PQ, 230.0),
            ),
            lines=(Line("l1", "a", "b", 1.0),),
        )
        diags = validate(net)
        assert [d.code for d in diags] == ["disconnected"]
        assert diags[0].object_id == "c"

    def test_zero_impedance_diagnostic(self):
        diags = validate(two_bus(resistance=0.0, reactance=0.0))
        assert [d.code for d in diags] == ["zero_impedance"]

    def test_self_loop_diagnostic(self):
        net = Network(
            buses=(Bus("a", BusKind.SLACK, 230.0),),
            lines=(Line("l1", "a", "a", 1.0),),
        )
        assert "self_loop" in [d.code for d in validate(net)]

    def test_mixed_nominal_voltage(self):
        net = Network(
            buses=(Bus("a", BusKind.SLACK, 230.0), Bus("b", BusKind.PQ, 400.0)),
            lines=(Line("l1", "a", "b", 1.0),),
        )
        assert "invalid_value" in [d.code for d in validate(net)]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "kind, field",
        [
            ("lines", "resistance"),
            ("lines", "reactance"),
            ("buses", "nominal_voltage"),
            ("loads", "active_power"),
            ("loads", "reactive_power"),
            ("pvs", "peak_power"),
            ("pvs", "cloud_attenuation"),
            ("winds", "peak_power"),
            ("winds", "cut_in"),
            ("winds", "rated"),
            ("winds", "cut_out"),
        ],
    )
    def test_non_finite_value(self, kind, field, value):
        net = replace(
            two_bus(),
            loads=(LoadDevice("ld", "b", 100.0, 20.0),),
            pvs=(SolarPanel("pv", "b", 500.0),),
            winds=(WindTurbine("wt", "b", 800.0),),
        )
        assert validate(net) == []
        objects = list(getattr(net, kind))
        objects[-1] = replace(objects[-1], **{field: value})
        diags = validate(replace(net, **{kind: tuple(objects)}))
        assert [(d.code, d.object_id, d.attribute) for d in diags] == [
            ("invalid_value", objects[-1].id, field)
        ]
        assert f"{field} must be finite" in diags[0].message

    def test_empty_implies_build_succeeds(self):
        rng = random.Random(12)
        for _ in range(30):
            net = make_radial_network(rng, rng.randint(1, 8))
            if validate(net) == []:
                build_admittance(net, BASE)

    @pytest.mark.parametrize("kind", ["loads", "pvs", "winds", "grid"])
    def test_every_bus_field_is_checked(self, kind):
        device = {
            "loads": (LoadDevice("d", "nowhere", 100.0),),
            "pvs": (SolarPanel("d", "nowhere", 500.0),),
            "winds": (WindTurbine("d", "nowhere", 800.0),),
            "grid": GridConnection("d", "nowhere"),
        }[kind]
        diags = validate(replace(two_bus(), **{kind: device}))
        noun = {"loads": "load", "pvs": "pv", "winds": "wind", "grid": "grid"}[kind]
        assert [(d.code, d.object_id, d.attribute, d.message) for d in diags] == [
            ("dangling_reference", "d", "bus", f"{noun} 'd' references unknown bus 'nowhere'")
        ]

    @pytest.mark.parametrize("rated", [1.0, 3.0, 25.0, 30.0])
    def test_wind_speeds_out_of_order(self, rated):
        net = replace(two_bus(), winds=(WindTurbine("wt", "b", 800.0, 3.0, rated, 25.0),))
        assert [(d.code, d.object_id, d.attribute, d.message) for d in validate(net)] == [
            ("invalid_value", "wt", "rated", "wind 'wt' needs 0 <= cut_in < rated < cut_out")
        ]

    def test_grid_connection_off_the_slack_bus(self):
        net = replace(two_bus(), grid=GridConnection("utility", "b"))
        assert [(d.code, d.object_id, d.attribute, d.message) for d in validate(net)] == [
            ("invalid_value", "utility", "bus", "grid connection 'utility' must sit on the slack bus")
        ]
        assert validate(replace(net, grid=GridConnection("utility", "a"))) == []

    def test_diagnostic_order(self):
        # Per-line rules in line order, then the devices', then each
        # remaining line rule over all lines.
        buses = tuple(Bus(i, BusKind.SLACK if i == "s" else BusKind.PQ, 230.0) for i in "sbcdef")
        lines = (
            Line("sb", "s", "b", 0.01),
            Line("loop", "c", "c", 0.01),
            Line("bc", "b", "c", 0.01),
            Line("zero", "c", "d", 0.0),
            Line("cd", "c", "d", 0.01),
            Line("sub", "b", "d", 1e-320),
            Line("de", "d", "e", 1e15),
            Line("ef", "e", "f", 0.01),
        )
        network = Network(
            buses,
            lines,
            winds=(WindTurbine("wt", "b", 800.0, 3.0, 30.0, 25.0),),
            grid=GridConnection("utility", "b"),
        )
        assert [(d.code, d.object_id, d.attribute) for d in validate(network)] == [
            ("self_loop", "loop", "to_bus"),
            ("zero_impedance", "zero", "resistance"),
            ("invalid_value", "wt", "rated"),
            ("invalid_value", "utility", "bus"),
            ("invalid_value", "sub", "resistance"),
            ("disconnected", "de", None),
        ]

    def test_unknown_end_buses_compare_by_name(self):
        # Both ends of xx name one unknown bus, a self-loop; xy's name two.
        lines = (Line("l1", "a", "b", 1.0), Line("xx", "x", "x", 1.0), Line("xy", "x", "y", 1.0))
        network = replace(two_bus(), lines=lines)
        assert [(d.code, d.object_id, d.attribute) for d in validate(network)] == [
            ("dangling_reference", "xx", "from_bus"),
            ("dangling_reference", "xx", "to_bus"),
            ("dangling_reference", "xy", "from_bus"),
            ("dangling_reference", "xy", "to_bus"),
            ("self_loop", "xx", "to_bus"),
        ]
        with pytest.raises(KeyError, match="^'x'$"):
            build_admittance(network, BASE)


def _case2_with_seg_a1(resistance: float) -> Network:
    network = parse_scenario(bundled_scenario_text("case2")).network
    assert network.lines[0].id == "seg_a1"
    lines = (replace(network.lines[0], resistance=resistance),) + network.lines[1:]
    return replace(network, lines=lines)


class TestOpenLines:
    def test_open_line_is_named_by_the_disconnection(self):
        # seg_a1's |1/z| is 6.9e-18 of the sum at either end, and every
        # other line's is at least 0.2 of it.
        (diag,) = validate(_case2_with_seg_a1(1e15))
        assert (diag.code, diag.object_id, diag.attribute) == ("disconnected", "seg_a1", None)
        assert diag.message == (
            "buses unreachable from 'f': 'a1', 'a2', 'a3', 'a4', 'ha1', 'ha2', 'ha3', 'ha4'; "
            "open in floating point: line 'seg_a1' (|1/z| at most 6.9e-18 of each end's sum)"
        )

    def test_weak_line_is_not_open(self):
        # 1e10 ohm leaves seg_a1 at 6.9e-13 of the sums at its ends: weak,
        # but it still changes them.
        assert validate(_case2_with_seg_a1(1e10)) == []

    def test_open_line_beside_a_closed_one_cuts_nothing(self):
        buses = (Bus("a", BusKind.SLACK, 230.0), Bus("b", BusKind.PQ, 230.0))
        lines = (Line("l1", "a", "b", 1.0), Line("l2", "b", "a", 1e20))
        assert validate(Network(buses, lines)) == []

    @pytest.mark.parametrize("tiny", [1e-308, 1e-235])
    def test_line_beside_a_near_short_is_not_open(self, tiny):
        # l1 is lost in b1's sum, but it is all of a's: it still connects.
        buses = (
            Bus("a", BusKind.SLACK, 230.0),
            Bus("b1", BusKind.PQ, 230.0),
            Bus("b2", BusKind.PQ, 230.0),
        )
        lines = (Line("l1", "a", "b1", 1.0), Line("l2", "b1", "b2", tiny))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate(Network(buses, lines)) == []

    def test_parallel_near_shorts_are_not_open(self):
        # Each line's 1/z is 1e308, and their sum at either bus overflows.
        # Neither line is open: the diagnostic names the buses and lines.
        buses = (Bus("a", BusKind.SLACK, 230.0), Bus("b", BusKind.PQ, 230.0))
        lines = (Line("l1", "a", "b", 1e-308), Line("l2", "b", "a", 1e-308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diags = validate(Network(buses, lines))
        assert [(d.code, d.object_id, d.attribute, d.message) for d in diags] == [
            (
                "near_short",
                "a",
                None,
                "near-short lines: the sum of 1/z is not finite at "
                "bus 'a' (line 'l1', line 'l2'), bus 'b' (line 'l1', line 'l2')",
            )
        ]

    @settings(max_examples=50)
    @given(networks_with_open_lines())
    def test_disconnected_buses_match_breadth_first_search(self, network):
        weak = {line.id for line in network.lines if line.resistance == 1e15}
        reachable = loop_reachable(network, 0, weak)
        unreachable = [bus.id for i, bus in enumerate(network.buses) if i not in reachable]
        diags = validate(network)
        if not unreachable:
            assert diags == []
            return
        (diag,) = diags
        assert diag.code == "disconnected"
        names, _, cut = diag.message.partition("; open in floating point: ")
        assert names == "buses unreachable from 'b0': " + ", ".join(map(repr, unreachable))
        # The lines named are the weak ones with one end reachable.
        cuts = [
            line.id
            for line in network.lines
            if line.id in weak
            and (network.bus_index(line.from_bus) in reachable)
            != (network.bus_index(line.to_bus) in reachable)
        ]
        assert [name for name in cuts if f"line {name!r} (" in cut] == cuts
        assert cut.count("line '") == len(cuts)
        assert diag.object_id == (cuts or unreachable)[0]

    def test_bus_whose_sum_overflows_makes_no_line_open(self):
        # The 1e20 ohm line l3 is lost in c's sum beside the 1 ohm line l4,
        # and in b's overflowed sum; b's sum is no number, so l3 is not open.
        buses = tuple(Bus(i, BusKind.SLACK if i == "a" else BusKind.PQ, 230.0) for i in "abc")
        lines = (
            Line("l1", "a", "b", 1e-308),
            Line("l2", "a", "b", 1e-308),
            Line("l3", "b", "c", 1e20),
            Line("l4", "c", "a", 1.0),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diags = validate(Network(buses, lines))
        # No line is open, so nothing is disconnected: one diagnostic.
        assert [(d.code, d.object_id, d.attribute, d.message) for d in diags] == [
            (
                "near_short",
                "a",
                None,
                "near-short lines: the sum of 1/z is not finite at "
                "bus 'a' (line 'l1', line 'l2', line 'l4'), "
                "bus 'b' (line 'l1', line 'l2', line 'l3')",
            )
        ]

    @pytest.mark.parametrize("resistance, reactance", [(1e-320, 0.0), (0.0, 5e-324), (1e-320, 1e-320)])
    def test_line_whose_1_over_z_is_not_finite(self, resistance, reactance):
        # 1/z overflows: the line is an invalid value, whatever its
        # neighbours, and stays out of the open-line ratio, with no warning.
        network = _case2_with_seg_a1(resistance)
        lines = (replace(network.lines[0], reactance=reactance),) + network.lines[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diags = validate(replace(network, lines=lines))
        assert [(d.code, d.object_id, d.attribute, d.message) for d in diags] == [
            (
                "invalid_value",
                "seg_a1",
                "resistance",
                f"line 'seg_a1' impedance {resistance!r} + j{reactance!r} ohm is too small: "
                "its 1/z is not finite",
            )
        ]
        # Per unit, z is subnormal too, or zero.
        with pytest.raises(
            SingularBranchError, match="^line 'seg_a1' (impedance .* pu is too small|has zero)"
        ):
            build_admittance(replace(network, lines=lines), BASE)

    def test_per_unit_1_over_z_that_is_not_finite_is_a_singular_branch(self):
        # 1e-308 ohm has a finite 1/z, so the line is valid, but at a
        # z_base of 5.29 ohm its per-unit 1/z overflows.
        network = _case2_with_seg_a1(1e-308)
        assert validate(network) == []
        with pytest.raises(
            SingularBranchError,
            match=r"^line 'seg_a1' impedance 1\.890359168241964e-309 \+ j0\.0 pu is too small: "
            "its 1/z is not finite$",
        ):
            build_admittance(network, BASE)
        # A base that keeps the per-unit impedance normal builds.
        y = build_admittance(network, PerUnitBase(s_base=1.0, v_base=1.0)).y
        assert y[network.bus_index("f"), network.bus_index("a1")] == -1e308

    def test_lines_with_their_own_diagnostic_stay_out_of_the_ratio(self):
        # A non-finite or negative impedance is not compared with its
        # neighbours, so it makes none of them open.
        for resistance in (math.inf, math.nan, -1e30):
            net = _case2_with_seg_a1(resistance)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                diags = validate(net)
            assert [(d.code, d.object_id) for d in diags] == [("invalid_value", "seg_a1")]
