"""Solver tests: injections, Jacobian, linear solve, NR/GS, lossless balance."""

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from microgridsim import (
    AdmittanceMatrix,
    Bus,
    BusKind,
    Line,
    LoadDevice,
    Network,
    PowerFlowProblem,
    SingularMatrixError,
    SolverOptions,
    build_admittance,
    bundled_scenario_text,
    compute_injections,
    newton_jacobian,
    parse_scenario,
    simple_power_distribution,
    solve,
    solve_gauss_seidel,
    solve_linear,
    solve_newton_raphson,
    total_line_losses,
)
from microgridsim import powerflow
from conftest import (
    BASE,
    finite_difference_jacobian,
    loop_gauss_seidel,
    loop_jacobian,
    loop_line_losses,
    loop_solve_linear,
    loop_worst_mismatch_bus,
    make_radial_network,
    problem_for,
)


def resistive_two_bus(r_pu: float, p_pu: float) -> PowerFlowProblem:
    g = 1.0 / r_pu
    y = AdmittanceMatrix(np.array([[g, -g], [-g, g]], dtype=complex))
    return PowerFlowProblem(y, 0, np.array([-p_pu]), np.array([0.0]))


def two_bus_voltage_oracle(r_pu: float, p_pu: float) -> float:
    # For a resistive two-bus feeder with slack at 1 pu and a P-only load,
    # the receiving voltage solves V^2 - V + P R = 0.
    return (1.0 + math.sqrt(1.0 - 4.0 * p_pu * r_pu)) / 2.0


def case2_problem():
    scenario = parse_scenario(bundled_scenario_text("case2"))
    return problem_for(scenario.network), scenario.network


def case2_pv_problem():
    """case2_pv's constant loads with its PV panel at peak output."""
    network = parse_scenario(bundled_scenario_text("case2_pv")).network
    problem = problem_for(network)
    p = problem.p_injection[0].copy()
    slack = problem.slack_index
    for pv in network.pvs:
        i = network.bus_index(pv.bus)
        p[i - (i > slack)] += pv.peak_power / BASE.s_base
    return replace(problem, p_injection=p)


def assert_same_solution(a, b) -> None:
    assert np.array_equal(a.v_mag, b.v_mag)
    assert np.array_equal(a.v_angle, b.v_angle)
    assert a.iterations == b.iterations
    assert a.max_mismatch == b.max_mismatch
    assert a.slack_injection == b.slack_injection
    assert a.converged == b.converged
    assert a.worst_bus == b.worst_bus


def random_reactive_network(rng: random.Random, n_buses: int, **kwargs):
    """Random radial feeder whose lines carry both R and X; kwargs go to
    make_radial_network."""
    net = make_radial_network(rng, n_buses, **kwargs)
    lines = tuple(
        replace(line, reactance=rng.uniform(0.0, 0.02) * BASE.z_base) for line in net.lines
    )
    return replace(net, lines=lines)


@st.composite
def radial_feeders(draw):
    """Radial 230 V feeders of 2-12 buses: bus 0 is the slack, every other
    bus hangs off an earlier one through an R+jX line and carries a light
    P+jQ load."""
    n = draw(st.integers(2, 12))
    buses = [Bus("bus0", BusKind.SLACK, 230.0)]
    lines, loads = [], []
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        r_pu = draw(st.floats(0.001, 0.01))
        x_pu = draw(st.floats(0.0, 0.01))
        buses.append(Bus(f"bus{i}", BusKind.PQ, 230.0))
        lines.append(
            Line(f"line{i}", f"bus{parent}", f"bus{i}", r_pu * BASE.z_base, x_pu * BASE.z_base)
        )
        p_pu = draw(st.floats(0.0, 0.2))
        q_pu = draw(st.floats(0.0, 0.1))
        loads.append(LoadDevice(f"load{i}", f"bus{i}", p_pu * BASE.s_base, q_pu * BASE.s_base))
    return Network(buses=tuple(buses), lines=tuple(lines), loads=tuple(loads))


@st.composite
def interior_slack_feeders(draw):
    """radial_feeders of 3-12 buses whose slack is a drawn interior bus.

    The slack is neither the first bus nor the last, so the PQ buses
    before it keep their index and those after it move down one.  Bus 0
    becomes a PQ bus with a light P+jQ load of its own.
    """
    net = draw(radial_feeders().filter(lambda net: len(net.buses) >= 3))
    slack = draw(st.integers(1, len(net.buses) - 2))
    buses = tuple(
        replace(bus, kind=BusKind.SLACK if i == slack else BusKind.PQ)
        for i, bus in enumerate(net.buses)
    )
    p_pu = draw(st.floats(0.0, 0.2))
    q_pu = draw(st.floats(0.0, 0.1))
    load = LoadDevice("load0", "bus0", p_pu * BASE.s_base, q_pu * BASE.s_base)
    return replace(net, buses=buses, loads=net.loads + (load,))


@st.composite
def meshed_networks(draw):
    """radial_feeders of 3-12 buses meshed by 1-6 more R+jX lines, with an interior slack.

    Each added line either joins a drawn pair of buses, closing a loop,
    or runs in parallel with a drawn line of the feeder.  Bus 0 becomes a
    PQ bus with no load of its own: a zero injection.
    """
    net = draw(radial_feeders().filter(lambda net: len(net.buses) >= 3))
    n = len(net.buses)
    lines = list(net.lines)
    for k in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            twin = draw(st.sampled_from(net.lines))
            ends = twin.from_bus, twin.to_bus
        else:
            ends = tuple(f"bus{i}" for i in draw(st.permutations(range(n)))[:2])
        r_pu, x_pu = draw(st.floats(0.001, 0.01)), draw(st.floats(0.0, 0.01))
        lines.append(Line(f"mesh{k}", *ends, r_pu * BASE.z_base, x_pu * BASE.z_base))
    slack = draw(st.integers(1, n - 2))
    buses = tuple(
        replace(bus, kind=BusKind.SLACK if i == slack else BusKind.PQ)
        for i, bus in enumerate(net.buses)
    )
    return replace(net, buses=buses, lines=tuple(lines))


@st.composite
def sparse_systems(draw, n=None):
    """Sparse, diagonally weighted systems with their rows shuffled.

    The shuffle moves each row's heavy diagonal entry away from the
    diagonal, so elimination has to swap rows; the sparse off-diagonal
    part leaves many pivot columns with nothing to eliminate below the
    pivot.  n, the size, is drawn when not given.
    """
    if n is None:
        n = draw(st.integers(1, 12))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    off = draw(arrays(float, (n, n), elements=entries))
    keep = draw(arrays(bool, (n, n), elements=st.sampled_from([False, False, False, True])))
    weights = draw(arrays(float, n, elements=st.floats(1.0, 100.0)))
    signs = draw(arrays(bool, n, elements=st.booleans()))
    order = draw(st.permutations(range(n)))
    a = np.where(keep, off, 0.0)
    a[np.arange(n), np.arange(n)] = np.where(signs, -weights, weights)
    b = draw(arrays(float, n, elements=st.floats(-10.0, 10.0, allow_nan=False)))
    return a[list(order)], b


@st.composite
def sparse_stacks(draw):
    """Stacks of 2-5 sparse_systems of one size, and maybe one made singular.

    Each system has its own sparsity and row order, so a row's entry in a
    pivot column is zero in some systems of the stack and nonzero in
    others.  The singular one repeats a row (or is zero at size 1).
    """
    n = draw(st.integers(1, 10))
    systems = draw(st.lists(sparse_systems(n), min_size=2, max_size=5))
    a = np.array([a for a, _ in systems])
    b = np.array([b for _, b in systems])
    singular = draw(st.none() | st.integers(0, len(a) - 1))
    if singular is not None:
        a[singular, -1] = a[singular, 0] if n > 1 else 0.0
    return a, b


@st.composite
def line_loss_cases(draw):
    """A radial R+jX feeder of 1-60 buses in drawn bus order, and 1-4 states of it.

    Some lines are purely reactive, with a resistance of 0.0 or -0.0 ohm.
    """
    n = draw(st.integers(1, 60))
    lines = []
    for i in range(1, n):
        parent = draw(st.integers(0, i - 1))
        r_pu = draw(st.sampled_from([0.0, -0.0]) | st.floats(0.001, 0.01))
        x_pu = draw(st.floats(0.001, 0.01) if r_pu == 0.0 else st.floats(0.0, 0.01))
        lines.append(
            Line(f"line{i}", f"bus{parent}", f"bus{i}", r_pu * BASE.z_base, x_pu * BASE.z_base)
        )
    buses = [Bus(f"bus{i}", BusKind.SLACK if i == 0 else BusKind.PQ, 230.0) for i in range(n)]
    net = Network(buses=tuple(draw(st.permutations(buses))), lines=tuple(lines))
    s = draw(st.integers(1, 4))
    v_mag = draw(arrays(float, (s, n), elements=st.floats(0.9, 1.1)))
    v_angle = draw(arrays(float, (s, n), elements=st.floats(-0.3, 0.3)))
    return net, v_mag, v_angle


def same_bits(x, y) -> bool:
    """Equal as float64 bytes: values, signs of zeros and NaN alike."""
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


def assert_same_bits(a, b) -> None:
    """Every field of two solutions equal bit for bit."""
    assert same_bits(a.v_mag, b.v_mag)
    assert same_bits(a.v_angle, b.v_angle)
    assert a.iterations == b.iterations
    assert same_bits(a.max_mismatch, b.max_mismatch)
    assert same_bits(a.slack_injection, b.slack_injection)
    assert a.converged == b.converged
    assert a.worst_bus == b.worst_bus


class TestComputeInjections:
    def test_flat_start_shunt_free_is_zero(self):
        rng = random.Random(1)
        for _ in range(20):
            net = make_radial_network(rng, rng.randint(2, 10))
            problem = problem_for(net)
            n = problem.admittance.n
            p, q = compute_injections(np.ones(n), np.zeros(n), problem.admittance)
            assert np.max(np.abs(p)) <= 1e-12
            assert np.max(np.abs(q)) <= 1e-12

    def test_two_bus_hand_evaluation(self):
        y = AdmittanceMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex))
        p, q = compute_injections(np.array([1.0, 0.9]), np.zeros(2), y)
        assert p[0] == pytest.approx(0.1, abs=1e-15)
        assert p[1] == pytest.approx(-0.09, abs=1e-15)
        assert np.allclose(q, 0.0)

    def test_uniform_angle_shift_invariance(self):
        rng = random.Random(2)
        net = make_radial_network(rng, 6)
        admittance = problem_for(net).admittance
        vm = np.array([1.0, 0.98, 1.02, 0.95, 1.01, 0.99])
        va = np.array([0.0, -0.02, 0.01, -0.05, 0.03, 0.0])
        p0, q0 = compute_injections(vm, va, admittance)
        p1, q1 = compute_injections(vm, va + 0.7, admittance)
        assert np.allclose(p0, p1, atol=1e-12)
        assert np.allclose(q0, q1, atol=1e-12)


class TestSolveLinear:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        assert np.array_equal(solve_linear(np.eye(3), b), b)

    def test_hand_solved_system(self):
        x = solve_linear(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([3.0, 5.0]))
        assert x == pytest.approx([0.8, 1.4])

    def test_rank_deficient(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 2.0]))

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert solve_linear(a, np.array([2.0, 3.0])) == pytest.approx([3.0, 2.0])

    def test_residual_bound_on_random_systems(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            a = rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
            b = rng.uniform(-1.0, 1.0, n)
            x = solve_linear(a, b)
            assert np.max(np.abs(a @ x - b)) <= 1e-9 * max(1.0, np.max(np.abs(b)))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            solve_linear(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError):
            solve_linear(np.eye(2), np.ones(3))

    def test_bitwise_equal_to_dense_loop_on_newton_systems(self):
        rng = random.Random(41)
        np_rng = np.random.default_rng(41)
        for _ in range(40):
            problem = problem_for(random_reactive_network(rng, rng.randint(2, 120)))
            n = problem.admittance.n
            pq = problem.pq_indices
            vm = np.ones(n)
            va = np.zeros(n)
            vm[pq] += np_rng.uniform(-0.05, 0.05, n - 1)
            va[pq] += np_rng.uniform(-0.05, 0.05, n - 1)
            jac = newton_jacobian(vm, va, problem.admittance, pq)
            p, q = compute_injections(vm, va, problem.admittance)
            mismatch = np.concatenate(
                [problem.p_injection[0] - p[pq], problem.q_injection[0] - q[pq]]
            )
            assert np.array_equal(
                solve_linear(jac, mismatch), loop_solve_linear(jac, mismatch)
            )

    @given(sparse_systems())
    def test_bitwise_equal_to_dense_loop_on_sparse_systems(self, system):
        a, b = system
        a_in, b_in = a.copy(), b.copy()
        try:
            expected = loop_solve_linear(a, b)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                solve_linear(a, b)
        else:
            assert np.array_equal(solve_linear(a, b), expected)
        assert np.array_equal(a, a_in) and np.array_equal(b, b_in)


class TestNewtonRaphson:
    def test_zero_injections_converges_immediately(self):
        problem = resistive_two_bus(0.01, 0.0)
        sol = solve_newton_raphson(problem)
        assert sol.converged
        assert sol.iterations == 0
        assert np.array_equal(sol.v_mag, [1.0, 1.0])
        assert np.array_equal(sol.v_angle, [0.0, 0.0])

    def test_two_bus_against_quadratic_oracle(self):
        problem = resistive_two_bus(0.0013044, 0.5)
        sol = solve_newton_raphson(problem)
        assert sol.converged
        assert sol.v_mag[1] == pytest.approx(
            two_bus_voltage_oracle(0.0013044, 0.5), abs=1e-10
        )

    def test_case2_converges_quickly(self):
        problem, _ = case2_problem()
        sol = solve_newton_raphson(problem)
        assert sol.converged
        assert sol.iterations <= 10
        assert sol.max_mismatch <= 1e-8

    def test_mismatch_certificate(self):
        problem, _ = case2_problem()
        sol = solve_newton_raphson(problem)
        p, q = compute_injections(sol.v_mag, sol.v_angle, problem.admittance)
        pq = problem.pq_indices
        assert np.max(np.abs(problem.p_injection[0] - p[pq])) <= 1e-8
        assert np.max(np.abs(problem.q_injection[0] - q[pq])) <= 1e-8

    def test_slack_state_pinned(self):
        problem, _ = case2_problem()
        sol = solve_newton_raphson(problem)
        assert sol.v_mag[problem.slack_index] == 1.0
        assert sol.v_angle[problem.slack_index] == 0.0

    def test_infeasible_load_reports_non_convergence(self):
        # P R = 0.3 pu > 1/4 puts the load beyond the feeder's deliverable power.
        problem = resistive_two_bus(1.0, 0.3)
        sol = solve_newton_raphson(problem)
        assert not sol.converged
        assert sol.iterations == 50

    def test_injections_evaluated_once_per_iteration(self, monkeypatch):
        calls = []
        real = powerflow.compute_injections

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(powerflow, "compute_injections", counted)
        problem, _ = case2_problem()
        sol = solve_newton_raphson(problem)
        assert sol.converged and sol.iterations >= 2
        assert len(calls) == sol.iterations + 1

    def test_iteration_cap_returns_non_converged(self, monkeypatch):
        monkeypatch.setattr(powerflow, "NR_MAX_ITERATIONS", 2)
        problem, _ = case2_problem()
        sol = solve_newton_raphson(problem)
        assert not sol.converged
        assert sol.iterations == 2
        assert sol.max_mismatch > powerflow.TOLERANCE

    def test_singular_jacobian_raises(self):
        y = AdmittanceMatrix(np.zeros((2, 2), dtype=complex))
        problem = PowerFlowProblem(y, 0, np.array([0.5]), np.array([0.0]))
        with pytest.raises(SingularMatrixError):
            solve_newton_raphson(problem)

    def test_radial_voltage_monotone_from_slack(self):
        rng = random.Random(31)
        for _ in range(20):
            net = make_radial_network(rng, rng.randint(3, 10))
            sol = solve_newton_raphson(problem_for(net))
            assert sol.converged
            index = {b.id: i for i, b in enumerate(net.buses)}
            for line in net.lines:
                up, down = index[line.from_bus], index[line.to_bus]
                assert sol.v_mag[down] <= sol.v_mag[up] + 1e-12


class TestJacobian:
    def test_matches_finite_differences_on_random_networks(self):
        rng = random.Random(17)
        np_rng = np.random.default_rng(17)
        for _ in range(25):
            net = make_radial_network(rng, rng.randint(2, 6), r_pu_range=(0.005, 0.1))
            problem = problem_for(net)
            n = problem.admittance.n
            pq = problem.pq_indices
            vm = np.ones(n) + np_rng.uniform(-0.05, 0.05, n)
            va = np_rng.uniform(-0.1, 0.1, n)
            analytic = newton_jacobian(vm, va, problem.admittance, pq)
            numeric = finite_difference_jacobian(vm, va, problem.admittance, pq)
            assert np.all(
                np.abs(analytic - numeric) <= 1e-5 * np.maximum(1.0, np.abs(numeric))
            )


    def test_bitwise_equal_to_loop_reference(self):
        rng = random.Random(23)
        np_rng = np.random.default_rng(23)
        for _ in range(120):
            net = random_reactive_network(rng, rng.randint(2, 60))
            admittance = build_admittance(net, BASE)
            n = admittance.n
            slack = rng.randrange(n)
            pq = [i for i in range(n) if i != slack]
            vm = np_rng.uniform(0.95, 1.05, n)
            va = np_rng.uniform(-0.2, 0.2, n)
            assert np.array_equal(
                newton_jacobian(vm, va, admittance, pq),
                loop_jacobian(vm, va, admittance, pq),
            )

    @settings(max_examples=60)
    @given(line_loss_cases(), st.data())
    def test_pattern_entries_equal_the_loop_and_the_rest_are_positive_zero(self, case, data):
        # The pattern is the diagonal and every pair where Y's PQ block is
        # nonzero, in each of the four blocks; purely reactive lines are in it.
        net, v_mag, v_angle = case
        admittance = build_admittance(net, BASE)
        slack = data.draw(st.integers(0, admittance.n - 1))
        pq = [i for i in range(admittance.n) if i != slack]
        block = admittance.y[np.ix_(pq, pq)]
        pattern = np.tile((block != 0) | np.eye(len(pq), dtype=bool), (2, 2))
        for vm, va in zip(v_mag, v_angle):
            jac = newton_jacobian(vm, va, admittance, pq)
            assert same_bits(jac[pattern], loop_jacobian(vm, va, admittance, pq)[pattern])
            assert same_bits(jac[~pattern], np.zeros(np.count_nonzero(~pattern)))

    def test_given_injections_give_the_same_matrix(self):
        problem, _ = case2_problem()
        pq = problem.pq_indices
        np_rng = np.random.default_rng(29)
        n = problem.admittance.n
        vm = np_rng.uniform(0.95, 1.05, n)
        va = np_rng.uniform(-0.1, 0.1, n)
        injections = compute_injections(vm, va, problem.admittance)
        assert np.array_equal(
            newton_jacobian(vm, va, problem.admittance, pq, injections),
            newton_jacobian(vm, va, problem.admittance, pq),
        )


class TestStacks:
    """Stacked kernels and the stacked NR against one system or step at a time."""

    def test_stacked_jacobian_equals_loop_per_slice(self):
        rng = random.Random(61)
        np_rng = np.random.default_rng(61)
        for _ in range(30):
            net = random_reactive_network(rng, rng.randint(2, 30))
            admittance = build_admittance(net, BASE)
            n = admittance.n
            pq = list(range(1, n))
            s = rng.randint(1, 6)
            vm = np_rng.uniform(0.95, 1.05, (s, n))
            va = np_rng.uniform(-0.2, 0.2, (s, n))
            jac = newton_jacobian(vm, va, admittance, pq)
            assert jac.shape == (s, 2 * n - 2, 2 * n - 2)
            for i in range(s):
                assert np.array_equal(jac[i], loop_jacobian(vm[i], va[i], admittance, pq))
                assert same_bits(jac[i], newton_jacobian(vm[i], va[i], admittance, pq))

    @settings(max_examples=60)
    @given(line_loss_cases(), st.data())
    def test_stacked_jacobian_is_the_per_state_one_bit_for_bit(self, case, data):
        net, v_mag, v_angle = case
        admittance = build_admittance(net, BASE)
        slack = data.draw(st.integers(0, admittance.n - 1))
        pq = [i for i in range(admittance.n) if i != slack]
        alone = [newton_jacobian(vm, va, admittance, pq) for vm, va in zip(v_mag, v_angle)]
        assert same_bits(newton_jacobian(v_mag, v_angle, admittance, pq), alone)

    @given(sparse_stacks())
    def test_stacked_solve_equals_loop_per_slice(self, stack):
        a, b = stack
        a_in, b_in = a.copy(), b.copy()
        x = solve_linear(a, b)
        for i in range(len(a)):
            try:
                expected = loop_solve_linear(a[i], b[i])
            except SingularMatrixError:
                assert np.isnan(x[i]).all()
            else:
                assert np.array_equal(x[i], expected)
        assert np.array_equal(a, a_in) and np.array_equal(b, b_in)

    def test_stacked_solve_equals_loop_on_newton_systems(self):
        rng = random.Random(67)
        np_rng = np.random.default_rng(67)
        for _ in range(20):
            problem = problem_for(random_reactive_network(rng, rng.randint(2, 40)))
            n = problem.admittance.n
            pq = problem.pq_indices
            s = rng.randint(2, 8)
            vm = np.ones((s, n))
            va = np.zeros((s, n))
            vm[:, pq] += np_rng.uniform(-0.05, 0.05, (s, n - 1))
            va[:, pq] += np_rng.uniform(-0.05, 0.05, (s, n - 1))
            jac = newton_jacobian(vm, va, problem.admittance, pq)
            rhs = np_rng.uniform(-1.0, 1.0, (s, 2 * n - 2))
            x = solve_linear(jac, rhs)
            for i in range(s):
                assert np.array_equal(x[i], loop_solve_linear(jac[i], rhs[i]))

    def test_slice_with_infinite_entry_is_solved_alone(self):
        # System 1's row 1 is nonzero in pivot column 0, so the stack
        # updates that row in system 0 too, with a zero factor times
        # system 0's pivot row [1, inf]: NaN, where alone row 1 is skipped.
        a = np.array([[[1.0, np.inf], [0.0, 1.0]], [[2.0, 1.0], [1.0, 3.0]]])
        b = np.array([[1.0, 1.0], [3.0, 5.0]])
        with np.errstate(invalid="ignore"):
            x = solve_linear(a, b)
            alone = [solve_linear(a[i], b[i]) for i in range(2)]
        assert np.array_equal(alone[0], [-np.inf, 1.0])
        assert same_bits(x, alone)

    def test_singular_slice_is_nan_in_the_stack(self):
        # System 1's pivot 0 is exactly zero, and its elimination goes on
        # to a NaN pivot 1: solved again alone, it is singular.
        a = np.array([[[2.0, 1.0], [1.0, 3.0]], [[0.0, 1.0], [0.0, 2.0]]])
        b = np.ones((2, 2))
        x = solve_linear(a, b)
        assert np.array_equal(x[0], loop_solve_linear(a[0], b[0]))
        assert np.isnan(x[1]).all()

    def test_stack_of_one_singular_system_is_nan(self):
        x = solve_linear(np.ones((1, 2, 2)), np.ones((1, 2)))
        assert x.shape == (1, 2) and np.isnan(x).all()

    def test_stack_shape_checks(self):
        with pytest.raises(ValueError):
            solve_linear(np.ones((2, 2, 3)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            solve_linear(np.ones((2, 2, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            solve_linear(np.ones((1, 2, 2, 2)), np.ones((1, 2, 2)))

    @given(
        net=radial_feeders(),
        scales=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_each_step_as_if_alone(self, net, scales, data):
        # Steps scale the feeder's loads; heavy ones fail to converge.
        # A drawn subset of them is solved in chunks split at drawn
        # boundaries, and each step must equal its solve alone.
        base = problem_for(net)
        p = np.outer(scales, base.p_injection)
        q = np.outer(scales, base.q_injection)
        subset = data.draw(st.lists(st.sampled_from(range(len(scales))), min_size=1))
        cuts = st.sets(st.integers(1, len(subset) - 1)) if len(subset) > 1 else st.just(set())
        bounds = sorted(data.draw(cuts))
        for chunk in np.split(np.array(subset), bounds):
            stack = PowerFlowProblem(base.admittance, base.slack_index, p[chunk], q[chunk])
            for s, i in enumerate(chunk.tolist()):
                alone = replace(base, p_injection=p[i], q_injection=q[i])
                assert_same_bits(solve(stack, None, s), solve_newton_raphson(alone))

    def test_singular_step_does_not_stop_the_others(self):
        # Bus 1 hangs off the slack by a conductance of 5e-13 pu, below the
        # pivot threshold, and bus 2 by 100 pu, so every Jacobian here is
        # singular.  Step 0 starts converged; steps 1 and 2 need a Newton
        # step, at bus 1 and at bus 2, and meet a singular Jacobian in one
        # stack; step 3 has an infinite injection and stops at once; and
        # step 4 is step 0 again, after them.
        y = np.zeros((3, 3), dtype=complex)
        for i, g in ((1, 5e-13), (2, 100.0)):
            y[[0, i], [0, i]] += g
            y[[0, i], [i, 0]] -= g
        p = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.0, np.inf], [0.0, 0.0]])
        stack = PowerFlowProblem(AdmittanceMatrix(y), 0, p, np.zeros_like(p))
        outcomes = stack.outcomes("acpf")
        assert outcomes[0].converged and outcomes[0].iterations == 0
        for s in (1, 2):
            assert isinstance(outcomes[s], SingularMatrixError)
            assert str(outcomes[s]) == "pivot 0 below 1e-12"
        assert not outcomes[3].converged and outcomes[3].iterations == 0
        for s in range(5):
            alone = PowerFlowProblem(stack.admittance, 0, p[s], np.zeros(2))
            if s in (1, 2):
                for problem, step in ((stack, s), (alone, 0)):
                    with pytest.raises(SingularMatrixError, match="^pivot 0 below 1e-12$"):
                        solve_newton_raphson(problem, step)
            else:
                assert_same_bits(solve_newton_raphson(stack, s), solve_newton_raphson(alone))

    @given(
        net=radial_feeders(),
        scales=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=25)
    def test_each_gauss_seidel_step_as_if_alone(self, net, scales, data):
        # As test_each_step_as_if_alone, against the per-bus loop; at a
        # lower cap, so that the heavy steps stop soon.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(powerflow, "GS_MAX_ITERATIONS", 200)
            base = problem_for(net)
            p = np.outer(scales, base.p_injection)
            q = np.outer(scales, base.q_injection)
            steps = st.sampled_from(range(len(scales)))
            subset = data.draw(st.lists(steps, min_size=1, max_size=8))
            cuts = st.sets(st.integers(1, len(subset) - 1)) if len(subset) > 1 else st.just(set())
            bounds = sorted(data.draw(cuts))
            gs = SolverOptions(method="gs")
            for chunk in np.split(np.array(subset), bounds):
                stack = PowerFlowProblem(base.admittance, base.slack_index, p[chunk], q[chunk])
                for s, i in enumerate(chunk.tolist()):
                    alone = replace(base, p_injection=p[i], q_injection=q[i])
                    assert_same_bits(solve(stack, gs, s), loop_gauss_seidel(alone))

    @given(
        net=interior_slack_feeders(),
        scales=st.lists(st.floats(0.0, 40.0), min_size=2, max_size=6),
        data=st.data(),
    )
    @settings(max_examples=25)
    def test_gauss_seidel_steps_with_an_interior_slack(self, net, scales, data):
        # The sweep takes Y_ii V_i and S_i*/V_i* of every PQ bus at its
        # start, in rows ordered as the PQ buses; with the slack inside
        # the bus order, the k-th row belongs to bus k or k + 1.  Steps
        # scale the loads; step 0 also has an infinite injection, which
        # stops it at once, and step 1 a 1e308 var load, whose mismatch
        # overflows after a sweep.  Drawn orders and cuts make stacks that
        # shrink as steps stop, and each step must equal the per-bus loop
        # alone.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(powerflow, "GS_MAX_ITERATIONS", 200)
            base = problem_for(net)
            assert 0 < base.slack_index < base.admittance.n - 1
            p = np.outer(scales, base.p_injection)
            q = np.outer(scales, base.q_injection)
            m = p.shape[1]
            p[0, data.draw(st.integers(0, m - 1))] = np.inf
            q[1, data.draw(st.integers(0, m - 1))] = -1e308 / BASE.s_base
            order = data.draw(st.permutations(range(len(scales))))
            cuts = sorted(data.draw(st.sets(st.integers(1, len(scales) - 1))))
            gs = SolverOptions(method="gs")
            for chunk in np.split(np.array(order), cuts):
                stack = PowerFlowProblem(base.admittance, base.slack_index, p[chunk], q[chunk])
                for s, i in enumerate(chunk.tolist()):
                    alone = replace(base, p_injection=p[i], q_injection=q[i])
                    with np.errstate(over="ignore", invalid="ignore"):
                        expected = loop_gauss_seidel(alone)
                    assert_same_bits(solve(stack, gs, s), expected)
                    if i < 2:
                        assert not math.isfinite(expected.max_mismatch)
                        assert expected.iterations == i

    @pytest.mark.parametrize("method", ["acpf", "gs"])
    def test_repeated_rows_get_the_outcome_of_the_step_alone(self, monkeypatch, method):
        # The 3-bus Y of test_singular_step_does_not_stop_the_others, whose
        # Jacobians are all singular.  Steps 5-8 repeat steps 0-2 and 4;
        # step 3 is step 0 with a -0.0, and step 9 is step 4 with the sign
        # bit of its NaN set, so each of those two is a row of its own.
        monkeypatch.setattr(powerflow, "GS_MAX_ITERATIONS", 200)
        y = np.zeros((3, 3), dtype=complex)
        for i, g in ((1, 5e-13), (2, 100.0)):
            y[[0, i], [0, i]] += g
            y[[0, i], [i, 0]] -= g
        nan, inf = np.nan, np.inf
        p = np.array(
            [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [-0.0, 0.0], [nan, inf],
             [0.1, 0.0], [0.0, 0.0], [nan, inf], [0.0, 0.1], [-nan, inf]]
        )
        q = np.zeros_like(p)
        stack = PowerFlowProblem(AdmittanceMatrix(y), 0, p, q)
        outcomes = stack.outcomes(method)
        for s, repeat in ((0, 6), (1, 5), (2, 8), (4, 7)):
            assert outcomes[s] is outcomes[repeat]
        assert outcomes[0] is not outcomes[3] and outcomes[4] is not outcomes[9]
        singular = {1, 2, 5, 8} if method == "acpf" else set()
        for s in range(len(p)):
            alone = PowerFlowProblem(stack.admittance, 0, p[s], q[s])
            if s in singular:
                for problem, step in ((stack, s), (alone, 0)):
                    with pytest.raises(SingularMatrixError, match="^pivot 0 below 1e-12$"):
                        solve_newton_raphson(problem, step)
            elif method == "acpf":
                assert_same_bits(solve_newton_raphson(stack, s), solve_newton_raphson(alone))
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = loop_gauss_seidel(alone)
                assert_same_bits(solve_gauss_seidel(stack, s), expected)

    def test_stack_iterates_only_its_distinct_rows(self, monkeypatch):
        # Six steps, three distinct rows: the first Jacobian stack and the
        # first sweep are of all three rows, and none is of more.
        base = problem_for(make_radial_network(random.Random(71), 6))
        scales = np.array([0.5, 1.0, 0.5, 2.0, 1.0, 0.5])
        p, q = np.outer(scales, base.p_injection), np.outer(scales, base.q_injection)
        stack = PowerFlowProblem(base.admittance, base.slack_index, p, q)
        sizes = {"acpf": [], "gs": []}
        jacobian, sweeps = powerflow.newton_jacobian, powerflow._gauss_seidel_sweeps
        monkeypatch.setattr(
            powerflow,
            "newton_jacobian",
            lambda v_mag, *args: sizes["acpf"].append(len(v_mag)) or jacobian(v_mag, *args),
        )
        monkeypatch.setattr(
            powerflow,
            "_gauss_seidel_sweeps",
            lambda *args: sizes["gs"].append(len(args[5][0])) or sweeps(*args),
        )
        for method in ("acpf", "gs"):
            stack.outcomes(method)
            assert sizes[method][0] == 3 and max(sizes[method]) == 3
        for s in range(len(scales)):
            alone = replace(base, p_injection=p[s], q_injection=q[s])
            assert_same_bits(solve_newton_raphson(stack, s), solve_newton_raphson(alone))
            assert_same_bits(solve_gauss_seidel(stack, s), loop_gauss_seidel(alone))

    @given(
        net=radial_feeders(),
        pool=st.lists(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 40.0), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=25)
    def test_steps_drawn_from_few_rows_as_if_alone(self, net, pool, data):
        # Steps repeat the rows of at most three load scales, so a stack
        # solves fewer rows than it has steps; each step must equal its
        # solve alone, by Newton-Raphson or the per-bus Gauss-Seidel loop.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(powerflow, "GS_MAX_ITERATIONS", 200)
            base = problem_for(net)
            picks = data.draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=8))
            scales = np.array(pool)[picks]
            p, q = np.outer(scales, base.p_injection), np.outer(scales, base.q_injection)
            stack = PowerFlowProblem(base.admittance, base.slack_index, p, q)
            for s in range(len(scales)):
                alone = replace(base, p_injection=p[s], q_injection=q[s])
                assert_same_bits(solve_newton_raphson(stack, s), solve_newton_raphson(alone))
                assert_same_bits(solve_gauss_seidel(stack, s), loop_gauss_seidel(alone))

    def test_stack_is_solved_once_and_gauss_seidel_alone(self, monkeypatch):
        net = make_radial_network(random.Random(71), 6)
        base = problem_for(net)
        scales = np.array([0.5, 1.0, 2.0])
        stack = PowerFlowProblem(
            base.admittance,
            base.slack_index,
            np.outer(scales, base.p_injection),
            np.outer(scales, base.q_injection),
        )
        calls = []
        stacked = powerflow.solve_steps
        monkeypatch.setattr(
            powerflow,
            "solve_steps",
            lambda s, method: calls.append((len(s), method)) or stacked(s, method),
        )
        gs = SolverOptions(method="gs")
        for s in (2, 0, 1):
            assert_same_bits(solve(stack, None, s), stack.outcomes("acpf")[s])
            alone = replace(base, p_injection=stack.p_injection[s], q_injection=stack.q_injection[s])
            assert_same_bits(solve(stack, gs, s), solve_gauss_seidel(alone))
        # One call per stack and method, then the lone steps' own.
        assert calls == [(3, "acpf"), (3, "gs")] + [(1, "gs")] * 3

    @pytest.mark.parametrize("n_buses", [50, 120, 200])
    def test_gauss_seidel_stacks_on_large_feeders(self, monkeypatch, n_buses):
        # Row dots longer than the street's 17 buses take other BLAS
        # chunkings.  Five steps of a drawn feeder: no load, which starts
        # converged, drawn load scales, which stop at the cap of 30 sweeps,
        # an infinite injection, which stops at once, and a 1e308 var load,
        # whose mismatch overflows after a sweep.  They are solved in
        # chunks split at drawn cuts, and each step must equal the per-bus
        # loop alone.
        monkeypatch.setattr(powerflow, "GS_MAX_ITERATIONS", 30)
        rng = random.Random(n_buses)
        base = problem_for(random_reactive_network(rng, n_buses))
        scales = [0.0, rng.uniform(0.1, 1.0), 1.0, rng.uniform(1.0, 3.0), 1.0]
        p = np.outer(scales, base.p_injection)
        q = np.outer(scales, base.q_injection)
        p[2, rng.randrange(n_buses - 1)] = np.inf
        q[4, rng.randrange(n_buses - 1)] = -1e308 / BASE.s_base
        order = rng.sample(range(5), 5)
        cuts = sorted(rng.sample(range(1, 5), 2))
        gs = SolverOptions(method="gs")
        for chunk in np.split(np.array(order), cuts):
            stack = PowerFlowProblem(base.admittance, base.slack_index, p[chunk], q[chunk])
            for s, i in enumerate(chunk.tolist()):
                alone = replace(base, p_injection=p[i], q_injection=q[i])
                with np.errstate(over="ignore", invalid="ignore"):
                    expected = loop_gauss_seidel(alone)
                assert_same_bits(solve(stack, gs, s), expected)

    def test_problem_and_stack_shapes(self):
        y = AdmittanceMatrix(np.eye(3, dtype=complex))
        stack = PowerFlowProblem(y, 0, np.zeros((4, 2)), np.ones((4, 2)))
        assert len(stack) == 4
        assert np.array_equal(stack.q_injection[3], [1.0, 1.0])
        assert np.array_equal(stack.pq_indices, [1, 2])
        # A vector is one step.
        one = PowerFlowProblem(y, 1, np.zeros(2), np.ones(2))
        assert len(one) == 1 and one.q_injection.shape == (1, 2)
        assert np.array_equal(one.pq_indices, [0, 2])
        shapes = (((4, 2), (2,)), ((4, 3), (4, 3)), ((3,), (3,)), ((1, 4, 2),) * 2, ((0, 2),) * 2)
        for shape_p, shape_q in shapes:
            with pytest.raises(
                ValueError, match=r"^injections must have shape \(S, 2\) with S >= 1, or \(2,\)$"
            ):
                PowerFlowProblem(y, 0, np.zeros(shape_p), np.zeros(shape_q))
        with pytest.raises(ValueError, match="slack index 3 out of range"):
            PowerFlowProblem(y, 3, np.zeros((4, 2)), np.zeros((4, 2)))


class TestGaussSeidel:
    def test_zero_injections_flat(self):
        sol = solve_gauss_seidel(resistive_two_bus(0.01, 0.0))
        assert sol.converged
        assert sol.iterations == 0
        assert np.array_equal(sol.v_mag, [1.0, 1.0])

    def test_two_bus_matches_newton(self):
        problem = resistive_two_bus(0.0013044, 0.5)
        nr = solve_newton_raphson(problem)
        gs = solve_gauss_seidel(problem)
        assert gs.converged
        assert abs(gs.v_mag[1] - nr.v_mag[1]) <= 1e-6

    def test_case2_matches_newton_per_bus(self):
        problem, _ = case2_problem()
        nr = solve_newton_raphson(problem)
        gs = solve_gauss_seidel(problem)
        assert gs.converged
        assert np.max(np.abs(nr.v_mag - gs.v_mag)) <= 1e-6
        assert np.max(np.abs(nr.v_angle - gs.v_angle)) <= 1e-6

    def test_zero_diagonal_raises(self):
        y = AdmittanceMatrix(np.zeros((2, 2), dtype=complex))
        problem = PowerFlowProblem(y, 0, np.array([0.1]), np.array([0.0]))
        with pytest.raises(SingularMatrixError):
            solve_gauss_seidel(problem)
        # In a stack, it is every step's error.
        stack = PowerFlowProblem(y, 0, np.array([[0.1], [0.0]]), np.zeros((2, 1)))
        for s in range(2):
            with pytest.raises(SingularMatrixError, match="^zero admittance diagonal at bus index 1$"):
                solve_gauss_seidel(stack, s)

    def test_iteration_cap_returns_non_converged(self, monkeypatch):
        monkeypatch.setattr(powerflow, "GS_MAX_ITERATIONS", 3)
        problem, _ = case2_problem()
        sol = solve_gauss_seidel(problem)
        assert not sol.converged
        assert sol.iterations == 3

    def test_bitwise_equal_to_loop_reference_on_random_feeders(self):
        rng = random.Random(43)
        for _ in range(100):
            net = random_reactive_network(
                rng, rng.randint(2, 40), load_pu_range=(0.01, 0.1)
            )
            problem = problem_for(net)
            expected = loop_gauss_seidel(problem)
            assert expected.converged
            assert_same_solution(solve_gauss_seidel(problem), expected)

    def test_bitwise_equal_to_loop_reference_on_bundled_cases(self):
        for problem in (case2_problem()[0], case2_pv_problem()):
            assert_same_solution(solve_gauss_seidel(problem), loop_gauss_seidel(problem))

    def test_bitwise_equal_to_loop_reference_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(powerflow, "GS_MAX_ITERATIONS", 3)
        problem, _ = case2_problem()
        assert_same_solution(solve_gauss_seidel(problem), loop_gauss_seidel(problem))

    def test_injections_never_taken_from_the_polar_state(self, monkeypatch):
        # The stop rule reads S = V conj(Y V) of the complex V: no
        # iteration turns V into |V| and theta and back.
        calls = []
        real = powerflow.compute_injections
        monkeypatch.setattr(
            powerflow, "compute_injections", lambda *args: calls.append(args) or real(*args)
        )
        problem, _ = case2_problem()
        sol = solve_gauss_seidel(problem)
        assert sol.converged and sol.iterations >= 2
        assert calls == []


def redo_counterexample() -> PowerFlowProblem:
    """Five buses, bus 0 the slack, where a level sweep must be done again in bus order.

    Buses 1 and 2 share level 0, and bus 2 reads bus 1's V through a zero
    term.  Bus 1 hangs off the slack by a tiny admittance and carries a
    1e308 pu var load, so its new V is infinite after one sweep.  In bus
    order bus 2 then reads 0 * inf, a NaN; at once with bus 1, it reads
    bus 1's old V.
    """
    y = np.zeros((5, 5), dtype=complex)
    for a, b, y_line in ((0, 1, 5e-6 - 1e-6j), (0, 2, 50 - 20j), (2, 3, 50 - 20j), (3, 4, 50 - 20j)):
        y[[a, b], [a, b]] += y_line
        y[[a, b], [b, a]] -= y_line
    p = np.full(4, -0.01)
    q = np.array([-1e308, -0.005, -0.005, -0.005])
    return PowerFlowProblem(AdmittanceMatrix(y), 0, p, q)


def assert_steps_match_loop(base: PowerFlowProblem, scales) -> None:
    """Each step of a stack of base's injections times scales equals the per-bus loop alone."""
    p = np.outer(scales, base.p_injection)
    q = np.outer(scales, base.q_injection)
    stack = PowerFlowProblem(base.admittance, base.slack_index, p, q)
    for s in range(len(scales)):
        alone = replace(base, p_injection=p[s], q_injection=q[s])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = loop_gauss_seidel(alone)
        assert_same_bits(solve(stack, SolverOptions(method="gs"), s), expected)


class TestGaussSeidelLevels:
    """A sweep updates one level of PQ buses at once, bit for bit as in bus order."""

    @given(net=meshed_networks())
    def test_neighbours_sit_in_different_levels(self, net):
        problem = problem_for(net)
        y, pq = problem.admittance.y, problem.pq_indices
        level = powerflow._gauss_seidel_levels(y, pq)
        linked = (y != 0) | (y.T != 0)
        for a in range(len(pq)):
            for b in range(a):
                if linked[pq[a], pq[b]]:
                    assert level[b] < level[a]  # an earlier neighbour sits lower
                if level[a] == level[b]:
                    assert not linked[pq[a], pq[b]]

    @given(
        net=meshed_networks(),
        scales=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=4),
    )
    @settings(max_examples=25)
    def test_meshed_networks(self, net, scales):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(powerflow, "GS_MAX_ITERATIONS", 200)
            assert_steps_match_loop(problem_for(net), scales)

    def test_resistive_network_with_active_loads(self, monkeypatch):
        # No reactance and no var load, as on the bundled street: every
        # imaginary part of V stays a zero, whose sign is all a zero term
        # of a row dot could change.
        monkeypatch.setattr(powerflow, "GS_MAX_ITERATIONS", 300)
        rng = random.Random(17)
        for n_buses in (3, 9, 17, 40):
            base = problem_for(make_radial_network(rng, n_buses, load_pu_range=(0.01, 0.1)))
            assert not base.admittance.y.imag.any() and not base.q_injection.any()
            assert not solve_gauss_seidel(base).v_angle.any()
            assert_steps_match_loop(base, [0.5, 1.0, 3.0])

    def test_zero_injection_buses(self, monkeypatch):
        # Loads on a third of the buses; the others inject nothing.
        monkeypatch.setattr(powerflow, "GS_MAX_ITERATIONS", 300)
        rng = random.Random(29)
        for n_buses in (6, 25):
            net = random_reactive_network(rng, n_buses, load_pu_range=(0.01, 0.1))
            loads = tuple(load for i, load in enumerate(net.loads) if i % 3 == 0)
            base = problem_for(replace(net, loads=loads))
            assert (base.p_injection == 0).sum() >= n_buses // 2
            assert_steps_match_loop(base, [1.0, 2.0])

    def test_a_sweep_that_leaves_v_not_finite_is_done_again_in_bus_order(self, monkeypatch):
        problem = redo_counterexample()
        level = powerflow._gauss_seidel_levels(problem.admittance.y, problem.pq_indices)
        assert level.tolist() == [0, 0, 1, 2]
        calls = []
        real = powerflow._gauss_seidel_level

        def spy(v, levels):
            real(v, levels)
            calls.append((len(levels), np.abs(v[0])))

        monkeypatch.setattr(powerflow, "_gauss_seidel_level", spy)
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_gauss_seidel(problem)
            expected = loop_gauss_seidel(problem)
        # By levels, bus 2 is finite; in bus order, it is not.
        assert [n for n, _ in calls] == [3, 4]
        assert np.isinf(calls[0][1][1]) and calls[0][1][2] == pytest.approx(0.99989655)
        assert np.isinf(sol.v_mag[1]) and np.isnan(sol.v_mag[2:]).all()
        assert sol.iterations == 1
        assert_same_bits(sol, expected)

    def test_large_random_feeder_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(powerflow, "GS_MAX_ITERATIONS", 30)
        base = problem_for(random_reactive_network(random.Random(160), 160))
        sol = solve_gauss_seidel(base)
        assert sol.iterations == 30 and not sol.converged
        assert_steps_match_loop(base, [1.0, 0.5])


# The complex-state stop rule and the polar form round differently: by at
# most 9e-14 pu on the bundled cases and on 20 random R+jX feeders of 2-40
# buses, at 3 sweeps and at convergence.
POLAR_TOLERANCE = 1e-12


def assert_stop_rule_matches_polar_form(problem: PowerFlowProblem) -> None:
    """GS's max_mismatch and slack injection against compute_injections at its |V| and theta.

    Checked at the cap of 3 sweeps, where the mismatch is large, and at
    convergence.
    """
    pq, slack = problem.pq_indices, problem.slack_index
    for cap in (3, powerflow.GS_MAX_ITERATIONS):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(powerflow, "GS_MAX_ITERATIONS", cap)
            sol = solve_gauss_seidel(replace(problem))  # a problem keeps its outcomes
        p, q = compute_injections(sol.v_mag, sol.v_angle, problem.admittance)
        mismatch = np.concatenate([problem.p_injection[0] - p[pq], problem.q_injection[0] - q[pq]])
        assert abs(sol.max_mismatch - np.abs(mismatch).max()) <= POLAR_TOLERANCE
        assert abs(sol.slack_injection[0] - p[slack]) <= POLAR_TOLERANCE
        assert abs(sol.slack_injection[1] - q[slack]) <= POLAR_TOLERANCE


class TestGaussSeidelStopRuleAgainstPolarForm:
    """An independent check of the stop rule's complex form: the polar one."""

    def test_bundled_cases(self):
        for problem in (case2_problem()[0], case2_pv_problem()):
            assert_stop_rule_matches_polar_form(problem)

    @given(net=radial_feeders())
    @settings(max_examples=20)
    def test_random_feeders(self, net):
        assert_stop_rule_matches_polar_form(problem_for(net))


class TestOverflowingState:
    @pytest.mark.parametrize(
        "method", [powerflow.METHOD_NEWTON_RAPHSON, powerflow.METHOD_GAUSS_SEIDEL]
    )
    def test_first_non_finite_mismatch_ends_the_solve_silently(self, method):
        # case2 with one reactive load of 1e308 var: finite input whose
        # iterates overflow within the first two iterations.
        problem, _ = case2_problem()
        q = problem.q_injection.copy()
        q[0, 0] = -1e308 / BASE.s_base
        problem = replace(problem, q_injection=q)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(problem, SolverOptions(method=method))
        assert not sol.converged
        assert not math.isfinite(sol.max_mismatch)
        assert sol.iterations <= 2


class TestDispatcher:
    def test_method_routing(self):
        problem = resistive_two_bus(0.0013044, 0.5)
        nr = solve(problem, SolverOptions(method="acpf"))
        gs = solve(problem, SolverOptions(method="gs"))
        assert nr.iterations < gs.iterations
        assert abs(nr.v_mag[1] - gs.v_mag[1]) <= 1e-6

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            solve(resistive_two_bus(0.01, 0.1), SolverOptions(method="fdlf"))


class TestSolverProperties:
    @given(radial_feeders())
    def test_gs_agrees_with_nr_and_nr_balances_power(self, net):
        problem = problem_for(net)
        nr = solve_newton_raphson(problem)
        gs = solve_gauss_seidel(problem)
        assert nr.converged and gs.converged
        assert np.max(np.abs(gs.v_mag - nr.v_mag)) <= 1e-6
        # The injections sum to the line losses, and NR leaves up to
        # `tolerance` of P mismatch at each of the m PQ buses.
        losses = total_line_losses(net, BASE, nr.v_mag, nr.v_angle)
        load_pu = sum(load.active_power for load in net.loads) / BASE.s_base
        m = len(problem.pq_indices)
        assert abs(nr.slack_injection[0] - load_pu - losses) <= m * powerflow.TOLERANCE


# One purely reactive line of resistance -0.0 ohm: its term is -0.0, and
# a sum that starts from 0.0 makes the total 0.0.
NEGATIVE_ZERO_LINE = (
    Network(
        buses=(Bus("bus0", BusKind.SLACK, 230.0), Bus("bus1", BusKind.PQ, 230.0)),
        lines=(Line("line1", "bus0", "bus1", -0.0, 0.01 * BASE.z_base),),
    ),
    np.array([[1.0, 0.99]]),
    np.array([[0.0, -0.01]]),
)


class TestLineLosses:
    @given(line_loss_cases())
    @example(NEGATIVE_ZERO_LINE)
    def test_bitwise_equal_to_loop_reference(self, case):
        # Each state's total, alone or in a stack, has the loop's bytes.
        net, v_mag, v_angle = case
        totals = total_line_losses(net, BASE, v_mag, v_angle)
        assert totals.shape == (len(v_mag),)
        for s in range(len(v_mag)):
            expected = loop_line_losses(net, BASE, v_mag[s], v_angle[s])
            alone = total_line_losses(net, BASE, v_mag[s], v_angle[s])
            assert type(alone) is float
            assert same_bits(alone, expected) and same_bits(totals[s], expected)


class TestWorstMismatchBus:
    """worst_bus of each unconverged step against loop_worst_mismatch_bus."""

    @pytest.mark.parametrize(
        "method, cap", [("acpf", "NR_MAX_ITERATIONS"), ("gs", "GS_MAX_ITERATIONS")]
    )
    def test_each_step_against_its_own_injections(self, monkeypatch, method, cap):
        # A four-bus chain whose three steps each load one bus most.  With
        # no iteration allowed, every step stops unconverged at the flat
        # state, where its mismatch is about its own injections, so steps
        # 0 and 2 have different worst buses, stacked and alone.
        net = Network(
            buses=tuple(
                Bus(f"bus{i}", BusKind.SLACK if i == 0 else BusKind.PQ, 230.0) for i in range(4)
            ),
            lines=tuple(
                Line(f"line{i}", f"bus{i - 1}", f"bus{i}", 0.005 * BASE.z_base) for i in (1, 2, 3)
            ),
        )
        p = -np.array([[0.3, 0.1, 0.1], [0.1, 0.3, 0.1], [0.1, 0.1, 0.3]])
        problem = PowerFlowProblem(build_admittance(net, BASE), 0, p, np.zeros_like(p))
        monkeypatch.setattr(powerflow, cap, 0)
        options = SolverOptions(method=method)
        stacked = [solve(problem, options, s) for s in range(3)]
        assert [sol.worst_bus for sol in stacked] == [1, 2, 3]
        for s, sol in enumerate(stacked):
            assert not sol.converged
            assert sol.worst_bus == loop_worst_mismatch_bus(problem, sol, s)
            alone = PowerFlowProblem(problem.admittance, 0, p[s], np.zeros(3))
            assert_same_bits(solve(alone, options), sol)

    @given(
        net=radial_feeders(),
        scales=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=6),
        cuts=st.sets(st.integers(1, 5)),
        overflow=st.none() | st.tuples(st.integers(0, 5), st.integers(0, 10)),
    )
    @example(
        net=make_radial_network(random.Random(7), 5),
        scales=[1.0, 40.0, 1.0, 1.0],
        cuts={2},
        overflow=(3, 1),
    )
    @settings(max_examples=25)
    def test_unconverged_steps_name_the_oracle_bus(self, net, scales, cuts, overflow):
        # Steps scale the feeder's loads, so heavy ones fail to converge,
        # and `overflow` puts a 1e308 var load on one (step, bus), whose
        # iterates overflow.  The steps are solved in chunks split at the
        # drawn cuts, by each method; GS has a cap of 20 sweeps, so that
        # most of its steps stop there with a finite mismatch.  Each
        # unconverged step's worst_bus is the oracle's on that step alone,
        # and each converged step's is None.
        base = problem_for(net)
        p = np.outer(scales, base.p_injection)
        q = np.outer(scales, base.q_injection)
        if overflow is not None:
            q[overflow[0] % len(scales), overflow[1] % q.shape[1]] = -1e308 / BASE.s_base
        bounds = sorted(c for c in cuts if c < len(scales))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(powerflow, "GS_MAX_ITERATIONS", 20)
            for options in (SolverOptions(method="acpf"), SolverOptions(method="gs")):
                for chunk in np.split(np.arange(len(scales)), bounds):
                    stack = PowerFlowProblem(base.admittance, base.slack_index, p[chunk], q[chunk])
                    for s, i in enumerate(chunk.tolist()):
                        alone = replace(base, p_injection=p[i], q_injection=q[i])
                        expected = solve(alone, options)
                        solution = solve(stack, options, s)
                        assert_same_bits(solution, expected)
                        if solution.converged:
                            assert solution.worst_bus is None
                        else:
                            assert solution.worst_bus == loop_worst_mismatch_bus(alone, expected)


class TestPowerBalance:
    def test_slack_covers_load_plus_losses(self):
        rng = random.Random(23)
        for _ in range(20):
            net = make_radial_network(rng, rng.randint(2, 10))
            problem = problem_for(net)
            sol = solve_newton_raphson(problem)
            assert sol.converged
            losses = total_line_losses(net, BASE, sol.v_mag, sol.v_angle)
            assert losses >= 0.0
            load_pu = sum(l.active_power for l in net.loads) / BASE.s_base
            assert abs(sol.slack_injection[0] - load_pu - losses) <= 1e-8


class TestSimplePowerDistribution:
    def test_night_import(self):
        assert simple_power_distribution([800.0, 800.0, 800.0], [300.0, 0.0, 0.0]) == 2100.0

    def test_peak_export(self):
        grid_power = simple_power_distribution([800.0, 800.0, 800.0], [1500.0, 500.0, 500.0])
        assert grid_power == pytest.approx(-100.0)
        assert grid_power < 0.0

    def test_no_production(self):
        assert simple_power_distribution([120.0, 80.0], []) == 200.0

    def test_identity_is_bitwise_exact(self):
        rng = random.Random(6)
        for _ in range(200):
            demands = [rng.uniform(0.0, 5000.0) for _ in range(rng.randint(0, 6))]
            productions = [rng.uniform(0.0, 3000.0) for _ in range(rng.randint(0, 6))]
            grid_power = simple_power_distribution(demands, productions)
            assert grid_power == sum(demands) - sum(productions)
