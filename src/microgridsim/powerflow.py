"""Power-flow solvers: Newton-Raphson, Gauss-Seidel, and a lossless balance.

The AC problem is the standard injection form.  With Y = G + jB and
theta_ik = theta_i - theta_k, the bus injections are

    P_i = sum_k |V_i||V_k| (G_ik cos theta_ik + B_ik sin theta_ik)
    Q_i = sum_k |V_i||V_k| (G_ik sin theta_ik - B_ik cos theta_ik)

One slack bus holds |V| = 1 pu, theta = 0; every other bus is PQ with a
specified injection (generation positive, consumption negative).  Both
solvers start flat and share one stop rule: the worst injection mismatch
is within TOLERANCE, the solver's iteration cap is reached, or the
mismatch is not finite.  So their results are directly comparable.  A
step that stops unconverged names the PQ bus with its worst final
mismatch.  The tolerance and the caps are module constants, read when a
method first solves a problem's steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import count, cycle
from typing import Iterator, Sequence

import numpy as np

from .grid import AdmittanceMatrix, Network, PerUnitBase, _line_table

TOLERANCE = 1e-8
NR_MAX_ITERATIONS = 50
GS_MAX_ITERATIONS = 5000

# The solver names of the .mgs format and the CLI.
METHOD_NEWTON_RAPHSON = "acpf"
METHOD_GAUSS_SEIDEL = "gs"

class SingularMatrixError(RuntimeError):
    """Linear system (or GS diagonal) singular to working precision; pivot is its index, if any."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


@dataclass(frozen=True)
class SolverOptions:
    """The AC solver that solve runs."""

    method: str = METHOD_NEWTON_RAPHSON


@dataclass(frozen=True, eq=False)
class PowerFlowProblem:
    """S >= 1 steps of per-unit injections on one admittance matrix.

    p_injection/q_injection have shape (S, n - 1), a vector being one
    step: row s holds step s's injection at each bus of pq_indices, the
    non-slack buses in ascending order (a read-only intp array).  A
    method's first solve of any step solves each distinct row once
    (solve_steps) and keeps every step's outcome, each bit for bit that
    of the step alone.
    """

    admittance: AdmittanceMatrix
    slack_index: int
    p_injection: np.ndarray
    q_injection: np.ndarray
    pq_indices: np.ndarray = field(init=False, repr=False)
    _outcomes: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        n = self.admittance.n
        if not 0 <= self.slack_index < n:
            raise ValueError(f"slack index {self.slack_index} out of range for {n} buses")
        p = np.array(self.p_injection, dtype=float, ndmin=2)
        q = np.array(self.q_injection, dtype=float, ndmin=2)
        if p.shape != q.shape or p.ndim != 2 or p.shape[1] != n - 1 or not len(p):
            raise ValueError(f"injections must have shape (S, {n - 1}) with S >= 1, or ({n - 1},)")
        pq = np.flatnonzero(np.arange(n) != self.slack_index)
        for name, arr in (("p_injection", p), ("q_injection", q), ("pq_indices", pq)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.p_injection)

    def outcomes(self, method: str) -> tuple[PowerFlowSolution | SingularMatrixError, ...]:
        """Each step's solution by `method`, or its SingularMatrixError."""
        if method not in self._outcomes:
            self._outcomes[method] = tuple(solve_steps(self, method))
        return self._outcomes[method]


@dataclass(frozen=True, eq=False)
class PowerFlowSolution:
    """Voltage state plus convergence bookkeeping; slack stays (1.0, 0.0).

    worst_bus is None for a converged state.  For one that is not, it is
    the index of the PQ bus with the largest final |dP| or |dQ|, or, when
    that mismatch has overflowed, of the non-finite bus with the largest
    specified max(|P|, |Q|).
    """

    v_mag: np.ndarray
    v_angle: np.ndarray
    iterations: int
    max_mismatch: float
    slack_injection: tuple[float, float]
    converged: bool
    worst_bus: int | None

    def __post_init__(self) -> None:
        for name in ("v_mag", "v_angle"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def compute_injections(
    v_mag: np.ndarray, v_angle: np.ndarray, admittance: AdmittanceMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate (P, Q) at every bus for the given voltage state, in pu.

    The state is one vector per quantity, (n,), or a stack of them,
    (S, n).  Each state's Y V is its own matrix-vector product, so its
    injections do not depend on the other states of its stack; one
    matrix-matrix product over the stack would round differently.
    """
    v = np.asarray(v_mag, dtype=float) * np.exp(1j * np.asarray(v_angle, dtype=float))
    return _injections(v, admittance.y)


def _injections(v: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) at every bus of a complex state (n,) or stack of states (S, n): S = V conj(Y V)."""
    s = v * np.conj(np.matmul(y, v[..., None])[..., 0])
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
    when omitted it is computed here.  A stack of S states, (S, n) each,
    gives a stack of S Jacobians, (S, 2m, 2m), with the same entries as
    one state at a time.

    The polar formulas are evaluated only at the off-diagonal pairs
    where Y's PQ block is nonzero, as (..., nnz) arrays scattered into a
    zeroed stack: a radial feeder has about three nonzeros a row (the
    sparsity of Tinney & Hart, IEEE Trans. PAS-86(11), 1967).  Each such
    entry, and each diagonal one, is evaluated in the operation order of
    an element-by-element loop over (i, k), so it is bitwise equal to
    that loop's (tests keep the loop as the oracle).  Every other entry
    is +0.0, where the loop gives a signed zero, or NaN at a state that
    is not finite: a zero's sign changes no elimination step on finite
    values, and Newton-Raphson's stop rule ends a step on its non-finite
    mismatch before it builds a Jacobian there.  On the diagonal,
    |V_i|^2 goes through np.float_power, which calls C pow like the
    scalar ``v ** 2`` does; the array ``vm ** 2`` multiplies and differs
    in the last bit for some inputs.  The complex-derivative form of
    MATPOWER's dSbus_dV and a LAPACK solve would be faster still, but
    they change printed digits of the results CSVs, so they are not used
    here.
    """
    pq = np.asarray(pq_indices, dtype=int)
    if injections is None:
        injections = compute_injections(v_mag, v_angle, admittance)
    p, q = injections
    vm = np.asarray(v_mag, dtype=float)[..., pq]
    va = np.asarray(v_angle, dtype=float)[..., pq]
    y = admittance.y[np.ix_(pq, pq)]
    m = len(pq)
    i, k = np.nonzero((y != 0) & ~np.eye(m, dtype=bool))
    g, b = y.real[i, k], y.imag[i, k]
    t = va[..., i] - va[..., k]
    cos_t, sin_t = np.cos(t), np.sin(t)
    vm_i = vm[..., i]
    vv = vm_i * vm[..., k]
    gs_bc = g * sin_t - b * cos_t
    gc_bs = g * cos_t + b * sin_t
    jac = np.zeros((*vm.shape[:-1], 2 * m, 2 * m))
    jac[..., i, k] = vv * gs_bc
    jac[..., i, m + k] = vm_i * gc_bs
    jac[..., m + i, k] = -vv * gc_bs
    jac[..., m + i, m + k] = vm_i * gs_bc

    d = np.arange(m)
    g_ii, b_ii, p_i, q_i = y.real[d, d], y.imag[d, d], p[..., pq], q[..., pq]
    vm_sq = np.float_power(vm, 2)
    jac[..., d, d] = -q_i - b_ii * vm_sq
    jac[..., d, m + d] = p_i / vm + g_ii * vm
    jac[..., m + d, d] = p_i - g_ii * vm_sq
    jac[..., m + d, m + d] = q_i / vm - b_ii * vm
    return jac


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a dense real system by Gaussian elimination with partial pivoting.

    a is (n, n) and b (n,), or a stack of S systems, a (S, n, n) and
    b (S, n).  A system is singular when its best available pivot falls
    below 1e-12 in magnitude.  Alone, it raises SingularMatrixError; in a
    stack, its solution comes back as NaN and the other systems are
    solved.  Each other system's solution equals the one it gets alone,
    value for value: a zero in it may differ in sign.

    b rides along as column n of one working copy, so a row swap and an
    update cover both.  Each pivot updates only the rows below it whose
    entry in the pivot column is nonzero; the power-flow Jacobian is
    sparse, so most rows are skipped.  For finite input this is exact: a
    skipped row would have subtracted a signed zero, which changes no
    value, and every updated element gets the same multiply and subtract
    in the same pivot order as the full dense update.  Column k below the
    pivot is never read again, so it is left as it is.

    A stack is eliminated together, one pivot at a time for all of its
    systems (see _eliminate_stack).  The one-system elimination alone
    judges singularity: a system that met a pivot below 1e-12 in the
    stack, or came back with a NaN, which a zero factor that met an
    infinite entry can make, is solved again alone.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape != a.shape[:-1]:
        raise ValueError(f"right-hand side must have shape {a.shape[:-1]}")
    if a.ndim == 2:
        return _eliminate(a, b)
    x, small = _eliminate_stack(a, b)
    for i in np.flatnonzero(small | np.isnan(x).any(axis=1)).tolist():
        try:
            x[i] = _eliminate(a[i], b[i])
        except SingularMatrixError:
            x[i] = np.nan
    return x


def _eliminate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """solve_linear for one system."""
    n = a.shape[0]
    ab = np.hstack([a, b[:, None]])
    for k in range(n):
        pivot_row = int(np.abs(ab[k:, k]).argmax()) + k
        if abs(ab[pivot_row, k]) < 1e-12:
            raise SingularMatrixError(f"pivot {k} below 1e-12", k)
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


def _eliminate_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """solve_linear's elimination of a stack of systems, all at once.

    Returns the solutions and a mask of the systems that met a pivot
    below 1e-12, which solve_linear solves again alone.  Each pivot and
    row swap is per system, but one row selection serves the stack: the
    rows below the pivot that are nonzero in any system.  A system whose
    own entry is zero there subtracts a zero factor times its pivot row,
    which changes no finite value; only where that zero meets an
    infinite entry does it make a NaN.  The back substitution takes each
    system's own BLAS dot, as one system's does: matmul of a row by a
    column, like ``@`` of two vectors, calls it.  The pivot check reads
    U's diagonal once elimination is done, so numpy's warnings for the
    divisions past a small pivot are silenced.
    """
    systems, n = b.shape
    # Row k of every system is ab[k], and each system's row is contiguous.
    ab = np.empty((n, systems, n + 1))
    ab[:, :, :n] = a.transpose(1, 0, 2)
    ab[:, :, n] = b.T
    index = np.arange(systems)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            pivot_row = np.abs(ab[k:, :, k]).argmax(axis=0)
            if np.count_nonzero(pivot_row):
                pivot_row += k
                row = ab[pivot_row, index]
                ab[pivot_row, index] = ab[k]
                ab[k] = row
            below = ab[k + 1 :]
            col = below[:, :, k]
            rows = col.any(axis=1).nonzero()[0]
            if rows.size:
                factors = col[rows] / ab[k, :, k]
                below[rows, :, k + 1 :] -= factors[:, :, None] * ab[k, :, k + 1 :]
        x = np.zeros((systems, n))
        for k in range(n - 1, -1, -1):
            row = ab[k]
            dot = np.matmul(row[:, None, k + 1 : n], x[:, k + 1 :, None])[:, 0, 0]
            x[:, k] = (row[:, n] - dot) / row[:, k]
    diagonal = np.arange(n)
    return x, (np.abs(ab[diagonal, :, diagonal]) < 1e-12).any(axis=0)


def _mismatch(
    p_spec: np.ndarray, q_spec: np.ndarray, p_calc: np.ndarray, q_calc: np.ndarray, pq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Injection mismatch [dP, dQ] at the PQ buses, from (P, Q) at every bus of a state or stack.

    Returns (mismatch, worst): worst is each state's largest |mismatch| (0 without PQ buses).
    """
    mismatch = np.concatenate([p_spec - p_calc[..., pq], q_spec - q_calc[..., pq]], axis=-1)
    return mismatch, np.abs(mismatch).max(-1, initial=0.0)


def _worst_bus(
    mismatch: np.ndarray, p_spec: np.ndarray, q_spec: np.ndarray, pq: np.ndarray
) -> int:
    """Index of the PQ bus with the largest |dP| or |dQ| in one state's mismatch.

    np.argmax picks among equals.  When the state has overflowed, several
    buses' mismatch is inf or NaN and the first of them says nothing of
    the cause.  Then the bus named is the one, among those, with the
    largest specified max(|P|, |Q|) injection.
    """
    m = len(pq)
    worst = np.maximum(np.abs(mismatch[:m]), np.abs(mismatch[m:]))
    overflowed = ~np.isfinite(worst)
    if overflowed.any():
        load = np.maximum(np.abs(p_spec), np.abs(q_spec))
        worst = np.where(overflowed, load, -np.inf)
    return int(pq[np.argmax(worst)])


@np.errstate(over="ignore", invalid="ignore")
def solve_steps(
    problem: PowerFlowProblem, method: str
) -> list[PowerFlowSolution | SingularMatrixError]:
    """Power flow from a flat start by `method`, for every step of a problem.

    A step's outcome depends only on Y and its (p, q) row, so the
    distinct rows, told apart by their bits (-0.0 is not +0.0, and NaNs
    match bit for bit), share one loop, and each step gets the outcome
    of its row.  Each iteration evaluates the rows' mismatches together,
    applies the stop rule to all of them as one boolean mask, builds a
    solution for each row that stops, and updates the others; the method
    picks only the cap, the state, its injections, how it reads as |V|
    and theta, and the update.  Gauss-Seidel's injections are S =
    V conj(Y V) of its complex V, which becomes |V| and theta only for
    the rows that stop.  Either update serves the going rows at once:
    Newton-Raphson eliminates their Jacobians as one stack, and a
    Gauss-Seidel sweep updates a whole level of buses, which share no
    line, in all of them with one set of array operations.  The levels
    are found once per call (_gauss_seidel_levels), and their order
    defines a sweep (_gauss_seidel_sweeps).  A row that stops unconverged
    gets its worst bus (_worst_bus) from the mismatch that stopped it.
    Each step's solution is bit for bit the one it gets alone, and a
    Gauss-Seidel one that of the scalar per-bus loop while its V stays
    finite with real parts >= +0.  A row whose Jacobian is
    singular gets its SingularMatrixError, and the other rows go on; a
    zero Gauss-Seidel diagonal is every step's error.  numpy's overflow
    and invalid-value warnings are silenced: the solutions report them.
    """
    admittance, slack, pq = problem.admittance, problem.slack_index, problem.pq_indices
    # The distinct rows of p||q's bits in the order of their first steps, and each step's row.
    spec = np.concatenate([problem.p_injection, problem.q_injection], axis=1)
    keys = np.ndarray(len(spec), (np.void, spec.itemsize * spec.shape[1]), spec)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    first_steps = np.sort(first)
    step_rows = np.searchsorted(first_steps, first[inverse.ravel()]).tolist()
    p_spec, q_spec = problem.p_injection[first_steps], problem.q_injection[first_steps]
    shape = (len(first_steps), admittance.n)
    if method == METHOD_NEWTON_RAPHSON:
        cap = NR_MAX_ITERATIONS
        state = (np.ones(shape), np.zeros(shape))
        injections = lambda v_mag, v_angle: compute_injections(v_mag, v_angle, admittance)
        polar = lambda v_mag, v_angle: (v_mag, v_angle)
        update = partial(_newton_step, admittance, pq)
    elif method == METHOD_GAUSS_SEIDEL:
        y = admittance.y
        diagonal = y[pq, pq]
        if zero := pq[diagonal == 0].tolist():
            message = f"zero admittance diagonal at bus index {zero[0]}"
            return [SingularMatrixError(message) for _ in range(len(problem))]
        cap = GS_MAX_ITERATIONS
        # Row r of a sweep's bus-major arrays serves PQ bus buses[r]: the
        # PQ buses by level, each level one slice of rows.
        level = _gauss_seidel_levels(y, pq)
        order = np.argsort(level, kind="stable")
        buses = pq[order]
        bounds = [0, *np.cumsum(np.bincount(level)).tolist()]
        levels = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        # Complex V, and S* at the PQ buses in row order, (S, m) held
        # bus-major as the sweeps read it (until rows stop and it is cut).
        state = (np.ones(shape, dtype=complex), np.conj(p_spec + 1j * q_spec).T[order].T)
        injections = lambda v, _: _injections(v, y)
        # np.arctan2 gives the bits of np.angle with less overhead.
        polar = lambda v, _: (np.abs(v), np.arctan2(v.imag, v.real))
        update = partial(_gauss_seidel_sweeps, y, buses, diagonal[order][:, None], levels, {})
    else:
        raise ValueError(f"unknown solver method {method!r}")
    outcomes: list[PowerFlowSolution | SingularMatrixError | None] = [None] * len(first_steps)
    rows = np.arange(len(first_steps))
    # The rows whose Jacobian the last update found singular: they keep their error.
    singular = np.zeros(len(first_steps), dtype=bool)
    for it in count():
        p_calc, q_calc = injections(*state)
        mismatch, worst = _mismatch(p_spec, q_spec, p_calc, q_calc, pq)
        # The stop rule, negated: a row goes on while its mismatch is
        # finite and above TOLERANCE and the cap is not reached.
        going = (worst > TOLERANCE) & np.isfinite(worst) & (it < cap) & ~singular
        if not going.all():
            converged = worst <= TOLERANCE
            stop = np.flatnonzero(~(going | singular))
            for i, v_mag, v_angle in zip(stop.tolist(), *polar(*(arr[stop] for arr in state))):
                ok = bool(converged[i])
                outcomes[rows[i]] = PowerFlowSolution(
                    v_mag=v_mag,
                    v_angle=v_angle,
                    iterations=it,
                    max_mismatch=float(worst[i]),
                    slack_injection=(float(p_calc[i, slack]), float(q_calc[i, slack])),
                    converged=ok,
                    worst_bus=None if ok else _worst_bus(mismatch[i], p_spec[i], q_spec[i], pq),
                )
            if not going.any():
                return [outcomes[row] for row in step_rows]
            rows = rows[going]
            state = tuple(arr[going] for arr in state)
            p_spec, q_spec, mismatch, p_calc, q_calc = (
                arr[going] for arr in (p_spec, q_spec, mismatch, p_calc, q_calc)
            )
            singular = np.zeros(len(rows), dtype=bool)
        for i, error in update(state, mismatch, (p_calc, q_calc)):
            outcomes[rows[i]] = error
            singular[i] = True


def _newton_step(
    admittance: AdmittanceMatrix, pq: np.ndarray, state: tuple[np.ndarray, np.ndarray],
    mismatch: np.ndarray, injections: tuple[np.ndarray, np.ndarray],
) -> list[tuple[int, SingularMatrixError]]:
    """One Newton-Raphson iteration of a stack of (|V|, theta) states, in place.

    J dx = mismatch gives each state's angle and magnitude corrections.
    The Jacobians are built and solved as one stack.  A lone state, and
    each state whose correction came back all NaN, as a singular one
    does, is solved as one system, which makes fewer numpy calls per
    pivot and raises a singular Jacobian's error.  Returns (index, error)
    for each state whose Jacobian is singular.
    """
    v_mag, v_angle = state
    m = len(pq)
    jac = newton_jacobian(v_mag, v_angle, admittance, pq, injections)
    dx = solve_linear(jac, mismatch) if len(jac) > 1 else np.full(mismatch.shape, np.nan)
    errors = []
    for i in np.flatnonzero(np.isnan(dx).all(axis=1)).tolist():
        try:
            dx[i] = solve_linear(jac[i], mismatch[i])
        except SingularMatrixError as exc:
            errors.append((i, exc))
    v_angle[:, pq] += dx[:, :m]
    v_mag[:, pq] += dx[:, m:]
    return errors


def _gauss_seidel_levels(y: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """Each PQ bus's level: 1 + the highest level among its earlier PQ neighbours, from 0.

    PQ buses i and k are neighbours when Y_ik or Y_ki is nonzero.  So an
    earlier neighbour sits in a lower level, a later one in a higher
    level, and no two buses of one level are neighbours (level scheduling
    of a sparse triangular solve: Anderson & Saad, Int. J. High Speed
    Computing 1(1), 1989).
    """
    linked = y[np.ix_(pq, pq)] != 0
    linked |= linked.T
    level = np.zeros(len(pq), dtype=np.intp)
    for i in range(1, len(pq)):
        level[i] = level[:i][linked[i, :i]].max(initial=-1) + 1
    return level


def _gauss_seidel_sweeps(
    y: np.ndarray, buses: np.ndarray, y_ii: np.ndarray, levels: list[slice], plans: dict,
    state: tuple, mismatch: np.ndarray, injections: tuple,
) -> tuple[()]:
    """One Gauss-Seidel sweep of every (V, S*) state of a stack at once, in place.

    Update per PQ bus: V_i <- (S_i*/V_i* - sum_{k != i} Y_ik V_k) / Y_ii,
    one level of buses at a time, lowest first (_gauss_seidel_level).
    V_i changes only at bus i's own update, so Y_ii V_i and S_i*/V_i* are
    taken at the sweep's start, for every PQ bus of every step, into
    bus-major (m, S) arrays whose row r serves PQ bus buses[r], with the
    buses in level order (_gauss_seidel_levels); y_ii holds Y_ii per
    row, (m, 1), and S* in the state's columns comes in row order too.
    levels holds each level's slice of rows, and plans the buffers and
    views of the last stack size swept (_gauss_seidel_plan).

    The level order defines the sweep.  A bus reads each neighbour's V
    in the version that bus order gives it: an earlier neighbour's new V,
    a later one's old V.  A non-neighbour k may be read in the other
    version, but while every PQ bus's V is finite with a real part >= +0,
    Y_ik V_k is (+0, +0) in either version.  So the sweep equals the
    bus-order sweep bit for bit there; past it, a zero's sign or the
    spread of a NaN may differ.  Each bus gets the bits of the scalar
    update ``(s / conj(v_i) - (y[i].dot(v) - y_ii * v_i)) / y_ii``:

    - the row sum is each step's own dense BLAS dot, taken by matmul of
      row i by the step's column, as ``y[i].dot(v)`` takes it; summing
      only the nonzeros would regroup the dot's SIMD accumulation;
    - Y_ii V_i is written in real arithmetic, in the order of numpy's
      scalar complex product, because numpy's array complex multiply
      rounds differently from it.  Its parts go straight into a complex
      array: ``re + 1j * im`` would add 0 * im to the real part, which
      turns a -0.0 into 0.0 and, for an infinite im, makes a NaN;
    - array complex division and subtraction round as the scalar ones do
      (Python complex division would not).

    The mismatch and injections are unused.
    """
    v, s_conj = state
    y_re, y_im = y_ii.real, y_ii.imag
    fresh = len(v) not in plans
    if fresh:
        plans.clear()
        plans[len(v)] = _gauss_seidel_plan(y, buses, y_ii, levels, len(v))
    # The stack is cut only when steps stop, so while its size holds, V at
    # the PQ buses is the last sweep's new V, in this sweep's start.
    start, y_v, s_v, product, plan = next(plans[len(v)])
    if fresh:
        # (take with mode "raise" would fill a copy of out and then copy it.)
        np.take(v.T, buses, axis=0, out=start, mode="clip")
    # From V: Y_ii V_i, then V*, then S*/V*.
    np.multiply(y_re, start.real, out=y_v.real)
    np.multiply(y_im, start.imag, out=product)
    np.subtract(y_v.real, product, out=y_v.real)
    np.multiply(y_re, start.imag, out=y_v.imag)
    np.multiply(y_im, start.real, out=product)
    np.add(y_v.imag, product, out=y_v.imag)
    np.conjugate(start, out=s_v)
    np.divide(s_conj.T, s_v, out=s_v)
    _gauss_seidel_level(v, plan)
    return ()


def _gauss_seidel_plan(
    y: np.ndarray, buses: np.ndarray, y_ii: np.ndarray, levels: list[slice], steps: int
) -> Iterator[tuple]:
    """The buffers of sweeps of `steps` steps, and each level as views of them.

    Yields (start, y_v, s_v, product, plan) without end: bus-major
    (m, steps) arrays, complex but for product, and plan, a list of one
    tuple per level: (y_v rows, s_v rows, dots as (l, steps) and as
    (l, steps, 1, 1), buses, Y rows as (l, 1, 1, n), Y_ii rows).  Two
    buffers take turns as start and y_v, so each sweep's start is the
    last sweep's y_v.  They are made once per stack size: fresh ones each
    sweep would cost view making on a short stack and page faults on a
    long one.
    """
    start, y_v, s_v = np.empty((3, buses.size, steps), dtype=complex)
    product = np.empty(y_v.shape)
    widest = max((rows.stop - rows.start for rows in levels), default=0)
    dots = np.empty(widest * steps, dtype=complex)

    def level(y_v: np.ndarray, rows: slice) -> tuple:
        out, idx = y_v[rows], buses[rows]
        dot = dots[: out.size].reshape(out.shape)
        return out, s_v[rows], dot, dot.reshape(*out.shape, 1, 1), idx, y[idx, None, None], y_ii[rows]

    return cycle(
        (a, b, s_v, product, [level(b, rows) for rows in levels]) for a, b in ((start, y_v), (y_v, start))
    )


def _gauss_seidel_level(v: np.ndarray, levels: list[tuple]) -> None:
    """The Gauss-Seidel update of each level of a sweep's plan in turn, in place.

    One matmul takes every bus's dot with every step's column of V, two
    subtractions and a division by Y_ii turn the level's rows of y_v
    (Y_ii V_i) into its new V, which is written into V's columns.
    """
    columns, v_t = v[:, :, None], v.T
    for out, s_rows, dot, dot_4d, idx, y_rows, y_ii in levels:
        np.matmul(y_rows, columns, out=dot_4d)
        np.subtract(dot, out, out=out)
        np.subtract(s_rows, out, out=out)
        np.divide(out, y_ii, out=out)
        v_t[idx] = out


def solve(
    problem: PowerFlowProblem, options: SolverOptions | None = None, step: int = 0
) -> PowerFlowSolution:
    """Solve step `step` by options.method: problem.outcomes(method)[step], its error raised."""
    outcome = problem.outcomes((options or SolverOptions()).method)[step]
    if isinstance(outcome, SingularMatrixError):
        raise outcome
    return outcome


def solve_newton_raphson(problem: PowerFlowProblem, step: int = 0) -> PowerFlowSolution:
    """solve by Newton-Raphson, the default method."""
    return solve(problem, SolverOptions(METHOD_NEWTON_RAPHSON), step)


def solve_gauss_seidel(problem: PowerFlowProblem, step: int = 0) -> PowerFlowSolution:
    """solve by Gauss-Seidel."""
    return solve(problem, SolverOptions(METHOD_GAUSS_SEIDEL), step)


def simple_power_distribution(demands: Sequence[float], productions: Sequence[float]) -> float:
    """Lossless energy balance: renewables dispatch fully, the grid covers the rest.

    Returns the grid power, sum(demands) - sum(productions) with plain
    left-to-right sums: > 0 imports, < 0 exports.
    """
    return sum(demands) - sum(productions)


def total_line_losses(
    network: Network, base: PerUnitBase, v_mag: np.ndarray, v_angle: np.ndarray
) -> float | np.ndarray:
    """Sum of R |I|^2 over all lines, in pu, for a state (n,) or each state of a stack (S, n).

    Each line's end buses and per-unit z come from the network's line
    table, and R is z.real.  The array terms have the bits of a scalar
    loop's: |I| is np.hypot, as abs of a complex scalar is (np.abs on an
    array is not), and the square np.float_power, as ** 2 is.  They are
    summed from 0.0 in line order; np.sum would regroup more than 8 of
    them.  A line whose end names no bus is an IndexError.
    """
    ends, z = _line_table(network, base.z_base)
    v = np.asarray(v_mag, dtype=float) * np.exp(1j * np.asarray(v_angle, dtype=float))
    current = (v.take(ends[:, 0], axis=-1) - v.take(ends[:, 1], axis=-1)) / z
    terms = z.real * np.float_power(np.hypot(current.real, current.imag), 2)
    zero = np.zeros((*terms.shape[:-1], 1))
    total = np.add.accumulate(np.concatenate((zero, terms), axis=-1), axis=-1)[..., -1]
    return float(total) if total.ndim == 0 else total
