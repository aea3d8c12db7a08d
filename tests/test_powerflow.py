"""Solver tests: injections, Jacobian, linear solve, NR/GS, lossless balance."""

import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
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
    loop_solve_linear,
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
    p = problem.p_injection.copy()
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
def sparse_systems(draw):
    """Sparse, diagonally weighted systems with their rows shuffled.

    The shuffle moves each row's heavy diagonal entry away from the
    diagonal, so elimination has to swap rows; the sparse off-diagonal
    part leaves many pivot columns with nothing to eliminate below the
    pivot.
    """
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
                [problem.p_injection - p[pq], problem.q_injection - q[pq]]
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
        assert np.max(np.abs(problem.p_injection - p[pq])) <= 1e-8
        assert np.max(np.abs(problem.q_injection - q[pq])) <= 1e-8

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


class TestOverflowingState:
    @pytest.mark.parametrize(
        "method", [powerflow.METHOD_NEWTON_RAPHSON, powerflow.METHOD_GAUSS_SEIDEL]
    )
    def test_first_non_finite_mismatch_ends_the_solve_silently(self, method):
        # case2 with one reactive load of 1e308 var: finite input whose
        # iterates overflow within the first two iterations.
        problem, _ = case2_problem()
        q = problem.q_injection.copy()
        q[0] = -1e308 / BASE.s_base
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
