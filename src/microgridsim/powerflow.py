"""Power-flow solvers: Newton-Raphson, Gauss-Seidel, and a lossless balance.

The AC problem is the standard injection form.  With Y = G + jB and
theta_ik = theta_i - theta_k, the bus injections are

    P_i = sum_k |V_i||V_k| (G_ik cos theta_ik + B_ik sin theta_ik)
    Q_i = sum_k |V_i||V_k| (G_ik sin theta_ik - B_ik cos theta_ik)

One slack bus holds |V| = 1 pu, theta = 0; every other bus is PQ with a
specified injection (generation positive, consumption negative).  Both
solvers start flat and stop when the worst injection mismatch drops to
the tolerance, so their results are directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Sequence

import numpy as np

from .grid import AdmittanceMatrix, Network, PerUnitBase

NR_MAX_ITERATIONS = 50
GS_MAX_ITERATIONS = 5000

METHOD_NEWTON_RAPHSON = "newton_raphson"
METHOD_GAUSS_SEIDEL = "gauss_seidel"


class SingularMatrixError(RuntimeError):
    """Linear system (or GS diagonal) is singular to working precision."""


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls; max_iterations of None picks the method default."""

    tolerance: float = 1e-8
    max_iterations: int | None = None
    method: str = METHOD_NEWTON_RAPHSON

    def __post_init__(self) -> None:
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True, eq=False)
class PowerFlowProblem:
    """Per-unit injection problem on an admittance matrix.

    p_injection/q_injection hold one entry per non-slack bus, in
    ascending bus-index order with the slack skipped.
    """

    admittance: AdmittanceMatrix
    slack_index: int
    p_injection: np.ndarray
    q_injection: np.ndarray

    def __post_init__(self) -> None:
        n = self.admittance.n
        if not 0 <= self.slack_index < n:
            raise ValueError(f"slack index {self.slack_index} out of range for {n} buses")
        p = np.array(self.p_injection, dtype=float)
        q = np.array(self.q_injection, dtype=float)
        if p.shape != (n - 1,) or q.shape != (n - 1,):
            raise ValueError(f"injection vectors must have length {n - 1}")
        p.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "p_injection", p)
        object.__setattr__(self, "q_injection", q)

    @property
    def pq_indices(self) -> list[int]:
        return [i for i in range(self.admittance.n) if i != self.slack_index]


@dataclass(frozen=True, eq=False)
class PowerFlowSolution:
    """Voltage state plus convergence bookkeeping; slack stays (1.0, 0.0)."""

    v_mag: np.ndarray
    v_angle: np.ndarray
    iterations: int
    max_mismatch: float
    slack_injection: tuple[float, float]
    converged: bool

    def __post_init__(self) -> None:
        for name in ("v_mag", "v_angle"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def compute_injections(
    v_mag: np.ndarray, v_angle: np.ndarray, admittance: AdmittanceMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (P, Q) at every bus for the given voltage state, in pu."""
    v = np.asarray(v_mag, dtype=float) * np.exp(1j * np.asarray(v_angle, dtype=float))
    s = v * np.conj(admittance.y @ v)
    return s.real, s.imag


def newton_jacobian(
    v_mag: np.ndarray,
    v_angle: np.ndarray,
    admittance: AdmittanceMatrix,
    pq_indices: Sequence[int],
    injections: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Analytic power-flow Jacobian restricted to the PQ buses.

    Block layout [[dP/dtheta, dP/d|V|], [dQ/dtheta, dQ/d|V|]], each block
    m x m for m PQ buses, evaluated at the given state.  injections is
    (P, Q) at every bus for that state, as compute_injections returns it;
    when omitted it is computed here.

    Every entry is the per-element polar formula, evaluated in the same
    operation order as an element-by-element loop over (i, k), so the
    matrix is bitwise equal to that loop's (tests keep the loop as the
    oracle).  |V_i|^2 goes through np.float_power, which calls C pow
    like the scalar ``v ** 2`` does; the array ``vm ** 2`` multiplies
    and differs in the last bit for some inputs.  The complex-derivative
    form of MATPOWER's dSbus_dV and a LAPACK solve would be faster still,
    but they change printed digits of the results CSVs, so they are not
    used here.
    """
    pq = np.asarray(pq_indices, dtype=int)
    if injections is None:
        injections = compute_injections(v_mag, v_angle, admittance)
    p, q = injections
    vm = np.asarray(v_mag, dtype=float)[pq]
    va = np.asarray(v_angle, dtype=float)[pq]
    block = np.ix_(pq, pq)
    g = admittance.conductance[block]
    b = admittance.susceptance[block]
    t = va[:, None] - va[None, :]
    cos_t, sin_t = np.cos(t), np.sin(t)
    vv = vm[:, None] * vm[None, :]
    gs_bc = g * sin_t - b * cos_t
    gc_bs = g * cos_t + b * sin_t
    m = len(pq)
    jac = np.empty((2 * m, 2 * m))
    jac[:m, :m] = vv * gs_bc
    jac[:m, m:] = vm[:, None] * gc_bs
    jac[m:, :m] = -vv * gc_bs
    jac[m:, m:] = vm[:, None] * gs_bc

    d = np.arange(m)
    g_ii, b_ii, p_i, q_i = g[d, d], b[d, d], p[pq], q[pq]
    vm_sq = np.float_power(vm, 2)
    jac[d, d] = -q_i - b_ii * vm_sq
    jac[d, m + d] = p_i / vm + g_ii * vm
    jac[m + d, d] = p_i - g_ii * vm_sq
    jac[m + d, m + d] = q_i / vm - b_ii * vm
    return jac


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a dense real system by Gaussian elimination with partial pivoting.

    Raises SingularMatrixError when the best available pivot falls below
    1e-12 in magnitude.

    b rides along as column n of one working copy, so a row swap and an
    update cover both.  Each pivot updates only the rows below it whose
    entry in the pivot column is nonzero; the power-flow Jacobian is
    sparse, so most rows are skipped.  For finite input this is exact: a
    skipped row would have subtracted a signed zero, which changes no
    value, and every updated element gets the same multiply and subtract
    in the same pivot order as the full dense update.  Column k below the
    pivot is never read again, so it is left as it is.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side must have length {n}")
    ab = np.hstack([a, b[:, None]])
    for k in range(n):
        pivot_row = int(np.abs(ab[k:, k]).argmax()) + k
        if abs(ab[pivot_row, k]) < 1e-12:
            raise SingularMatrixError(f"pivot {k} below 1e-12")
        if pivot_row != k:
            ab[[k, pivot_row]] = ab[[pivot_row, k]]
        col = ab[k + 1 :, k]
        rows = col.nonzero()[0]
        if rows.size:
            factors = col[rows] / ab[k, k]
            ab[rows + (k + 1), k + 1 :] -= factors[:, None] * ab[k, k + 1 :]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (ab[k, n] - ab[k, k + 1 : n] @ x[k + 1 :]) / ab[k, k]
    return x


def _mismatch(
    problem: PowerFlowProblem,
    v_mag: np.ndarray,
    v_angle: np.ndarray,
    pq: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p_calc, q_calc = compute_injections(v_mag, v_angle, problem.admittance)
    mismatch = np.concatenate(
        [problem.p_injection - p_calc[pq], problem.q_injection - q_calc[pq]]
    )
    return mismatch, p_calc, q_calc


def solve_newton_raphson(
    problem: PowerFlowProblem, options: SolverOptions | None = None
) -> PowerFlowSolution:
    """Full Newton-Raphson power flow from a flat start.

    Each iteration solves J dx = mismatch for the angle and magnitude
    corrections of the PQ buses.  A singular Jacobian raises
    SingularMatrixError; hitting the iteration cap returns the last state
    with converged=False so callers can inspect it.  So does a mismatch
    that overflows to inf or NaN, as soon as it does: numpy's overflow and
    invalid-value warnings are silenced, since the solution reports them.
    """
    opts = options or SolverOptions()
    max_iter = opts.max_iterations if opts.max_iterations is not None else NR_MAX_ITERATIONS
    n = problem.admittance.n
    pq = np.asarray(problem.pq_indices, dtype=np.intp)
    m = len(pq)
    slack = problem.slack_index
    v_mag = np.ones(n)
    v_angle = np.zeros(n)
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            mismatch, p_calc, q_calc = _mismatch(problem, v_mag, v_angle, pq)
            max_mismatch = float(np.max(np.abs(mismatch))) if m else 0.0
            converged = max_mismatch <= opts.tolerance
            if converged or it >= max_iter or not isfinite(max_mismatch):
                return PowerFlowSolution(
                    v_mag=v_mag,
                    v_angle=v_angle,
                    iterations=it,
                    max_mismatch=max_mismatch,
                    slack_injection=(float(p_calc[slack]), float(q_calc[slack])),
                    converged=converged,
                )
            jac = newton_jacobian(v_mag, v_angle, problem.admittance, pq, (p_calc, q_calc))
            dx = solve_linear(jac, mismatch)
            v_angle[pq] += dx[:m]
            v_mag[pq] += dx[m:]
            it += 1


def solve_gauss_seidel(
    problem: PowerFlowProblem, options: SolverOptions | None = None
) -> PowerFlowSolution:
    """Gauss-Seidel power flow with in-place complex voltage sweeps.

    Update per PQ bus: V_i <- (S_i*/V_i* - sum_{k != i} Y_ik V_k) / Y_ii.
    Convergence is judged on the same injection mismatch as
    Newton-Raphson so the two solvers are cross-comparable, and a
    non-finite mismatch ends the solve unconverged in the same way.

    A sweep costs per-call overhead, not arithmetic, so every per-bus
    constant (row of Y, Y_ii, S_i*) is looked up once per solve.  The
    row sum is a dense BLAS dot over the whole row minus Y_ii V_i, and
    the divisions are numpy scalar divisions: summing only the nonzeros
    would regroup the dot's SIMD accumulation, and Python complex
    division rounds differently, so either would move printed digits.
    """
    opts = options or SolverOptions()
    max_iter = opts.max_iterations if opts.max_iterations is not None else GS_MAX_ITERATIONS
    y = problem.admittance.y
    n = problem.admittance.n
    pq = problem.pq_indices
    for i in pq:
        if y[i, i] == 0:
            raise SingularMatrixError(f"zero admittance diagonal at bus index {i}")
    s_spec = np.zeros(n, dtype=complex)
    s_spec[pq] = problem.p_injection + 1j * problem.q_injection
    # Per PQ bus: index, bound dot of its row of Y (ndarray.dot is np.dot
    # without the dispatch wrapper), Y_ii and S_i*.  complex.conjugate and
    # np.arctan2 below give the bits of np.conj and np.angle, minus their
    # per-call overhead.
    buses = [(i, y[i].dot, y[i, i], np.conj(s_spec[i])) for i in pq]
    pq_idx = np.asarray(pq, dtype=np.intp)
    slack = problem.slack_index
    conj = complex.conjugate
    v = np.ones(n, dtype=complex)
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            v_mag = np.abs(v)
            v_angle = np.arctan2(v.imag, v.real)
            mismatch, p_calc, q_calc = _mismatch(problem, v_mag, v_angle, pq_idx)
            max_mismatch = float(np.abs(mismatch).max()) if pq else 0.0
            converged = max_mismatch <= opts.tolerance
            if converged or it >= max_iter or not isfinite(max_mismatch):
                return PowerFlowSolution(
                    v_mag=v_mag,
                    v_angle=v_angle,
                    iterations=it,
                    max_mismatch=max_mismatch,
                    slack_injection=(float(p_calc[slack]), float(q_calc[slack])),
                    converged=converged,
                )
            for i, row_dot, y_ii, s_conj in buses:
                v_i = v[i]
                v[i] = (s_conj / conj(v_i) - (row_dot(v) - y_ii * v_i)) / y_ii
            it += 1


def solve(problem: PowerFlowProblem, options: SolverOptions | None = None) -> PowerFlowSolution:
    """Dispatch to the solver named by options.method."""
    opts = options or SolverOptions()
    if opts.method == METHOD_NEWTON_RAPHSON:
        return solve_newton_raphson(problem, opts)
    if opts.method == METHOD_GAUSS_SEIDEL:
        return solve_gauss_seidel(problem, opts)
    raise ValueError(f"unknown solver method {opts.method!r}")


@dataclass(frozen=True)
class Dispatch:
    """Lossless dispatch result; grid_power > 0 imports, < 0 exports.

    grid_power is computed as total_demand - sum(production values), with
    plain left-to-right summation, so that identity holds bit-exactly on
    the stored fields.
    """

    produced: tuple[tuple[str, float], ...]
    total_demand: float
    grid_power: float


def simple_power_distribution(
    demands: Sequence[float], productions: Sequence[tuple[str, float]]
) -> Dispatch:
    """Lossless energy balance: renewables dispatch fully, the grid covers the rest."""
    total_demand = sum(demands)
    total_production = sum(p for _, p in productions)
    return Dispatch(
        produced=tuple(productions),
        total_demand=total_demand,
        grid_power=total_demand - total_production,
    )


def total_line_losses(
    network: Network,
    base: PerUnitBase,
    v_mag: np.ndarray,
    v_angle: np.ndarray,
) -> float:
    """Sum of R |I|^2 over all lines, in pu, for a solved voltage state."""
    index = {bus.id: i for i, bus in enumerate(network.buses)}
    v = np.asarray(v_mag, dtype=float) * np.exp(1j * np.asarray(v_angle, dtype=float))
    total = 0.0
    for line in network.lines:
        z = complex(line.resistance, line.reactance) / base.z_base
        i, k = index[line.from_bus], index[line.to_bus]
        current = (v[i] - v[k]) / z
        total += (line.resistance / base.z_base) * abs(current) ** 2
    return total
