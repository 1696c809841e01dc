"""Trajectory integration: the scalar model problem and its d-dimensional
generalisation.

The model problem is  q'' = -(1+eps) q.  The general problem is

    M q'' = -A q + f(q)

with M symmetric positive definite.  When f(q) = -B q and A, B can be
simultaneously diagonalized after the mass change of variables, the system
splits into scalar model problems: mode i evolves exactly like the model
problem with perturbation strength eps_i = mu_i / lambda_i and rescaled
time t * sqrt(lambda_i), where lambda_i and mu_i are the paired eigenvalues
of L^-1 A L^-T and L^-1 B L^-T (M = L L^T).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np

from .kernel import _fold, _Operator, _require_finite
from .schemes import SplittingScheme, check_consistency

#: Phase-space norm ||q|| + ||p|| beyond which integration aborts with
#: ExponentialBlowup.
BLOWUP_NORM = 1e150

#: Values of stored states the integrator checks against BLOWUP_NORM at
#: once (one check per block of steps instead of per step), and the most
#: values that a linear run's stack of step-matrix powers holds.
_GUARD_BLOCK_VALUES = 1 << 14


class ExponentialBlowup(RuntimeError):
    """Trajectory norm exceeded the overflow guard."""

    def __init__(self, steps_completed: int, norm: float):
        super().__init__(
            f"trajectory norm reached {norm:.3e} after {steps_completed} steps"
        )
        self.steps_completed = steps_completed
        self.norm = norm


class NotSPD(ValueError):
    """Mass matrix is not symmetric positive definite."""


class NotSimultaneouslyDiagonalizable(ValueError):
    """Stiffness and perturbation do not commute after the mass transform,
    or the transformed stiffness itself is not diagonalizable."""


class NonPositiveLambda(ValueError):
    """The transformed stiffness has a non-positive (or non-real) eigenvalue."""


@dataclass(frozen=True)
class TrajectoryReport:
    """States visited by repeated stepping, plus growth diagnostics.

    ``states`` has one row per visited state (n_steps + 1 rows).
    ``empirical_growth`` is exp(slope) of a least-squares fit of
    log(norm) against step index over the last half of the trajectory.
    """

    states: np.ndarray = field(repr=False)
    max_norm: float
    empirical_growth: float

    @property
    def n_steps(self) -> int:
        return len(self.states) - 1


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, each row scaled by a power of two before
    squaring so that no square under- or overflows; exact in range."""
    x = np.abs(x)
    exp = np.maximum(np.frexp(x.max(axis=1))[1], -1022)
    return np.ldexp(np.linalg.norm(x * np.ldexp(1.0, -exp)[:, None], axis=1), exp)


@dataclass(frozen=True)
class GeneralProblem:
    """M q'' = -A q + f(q) with M symmetric positive definite.

    The perturbation is at most one of ``force``, which evaluates f(q),
    and ``linear_b``, for f(q) = -B q, which enables the exact reduction
    to scalar model problems; both are None for the unperturbed system.
    """

    mass: np.ndarray = field(repr=False)
    stiffness: np.ndarray = field(repr=False)
    force: Callable[[np.ndarray], np.ndarray] | None = None
    linear_b: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("mass", "stiffness", "linear_b"):
            value = getattr(self, name)
            if name == "linear_b" and value is None:
                continue
            value = np.asarray(value, dtype=float)
            if value.ndim != 2:
                raise ValueError(f"{name} must be a 2-D matrix, got shape {value.shape}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, value)
        m, a, b = self.mass, self.stiffness, self.linear_b
        if self.force is not None and b is not None:
            raise ValueError("give at most one of force and linear_b")
        if m.shape[0] != m.shape[1] or m.shape != a.shape:
            raise ValueError(f"matrix shapes differ: M {m.shape}, A {a.shape}")
        if b is not None and b.shape != m.shape:
            raise ValueError(f"B shape {b.shape} differs from M {m.shape}")
        if float(np.abs(m - m.T).max()) > 1e-10 * max(1.0, float(np.abs(m).max())):
            raise NotSPD("mass matrix is not symmetric within 1e-10")

    @property
    def dim(self) -> int:
        return self.mass.shape[0]

    @classmethod
    def with_linear_force(cls, mass, stiffness, b) -> "GeneralProblem":
        return cls(mass, stiffness, linear_b=b)

    @classmethod
    def with_cubic_force(cls, mass, stiffness, delta: float) -> "GeneralProblem":
        d = float(delta)
        _require_finite("cubic_delta", d)
        return cls(mass, stiffness, force=lambda q: -d * q**3)


@dataclass(frozen=True)
class Mode:
    """One decoupled oscillator: frequency-squared lambda and relative
    perturbation eps = mu / lambda."""

    freq_sq: float
    eps: float


@dataclass(frozen=True)
class ModeReduction:
    """Outcome of the exact reduction of a linear general problem.

    Mode i follows the scalar model problem with perturbation
    ``modes[i].eps`` and rescaled time t * sqrt(modes[i].freq_sq): a step
    of size h in the original variables advances mode i by an effective
    steplength h * sqrt(freq_sq).
    """

    modes: tuple[Mode, ...]
    cholesky_factor: np.ndarray = field(repr=False)
    eigenvectors: np.ndarray = field(repr=False)
    time_rescaling: ClassVar[str] = "mode i advances with effective steplength h*sqrt(freq_sq_i)"


def _mass_basis(problem: GeneralProblem):
    """The mass change of variables: (L, L^-1, A_t, B_t) with M = L L^T,
    A_t = L^-1 A L^-T and B_t = L^-1 B L^-T (zero without ``linear_b``),
    so that x = L^T q obeys  x'' = -(A_t + B_t) x."""
    try:
        ell = np.linalg.cholesky(problem.mass)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(f"mass matrix is not positive definite: {exc}") from exc
    inv_l = np.linalg.inv(ell)
    a_t = inv_l @ problem.stiffness @ inv_l.T
    b = problem.linear_b
    return ell, inv_l, a_t, np.zeros_like(a_t) if b is None else inv_l @ b @ inv_l.T


def _frame(matrix: np.ndarray, name: str = "transformed stiffness"):
    """(lams ascending, Q, Q^-1) with matrix Q = Q diag(lams): by ``eigh`` when
    symmetric (Q^-1 = Q^T), else by ``eig``, with a real spectrum and Q well
    conditioned; the errors call the matrix ``name``."""
    if float(np.abs(matrix - matrix.T).max()) <= 1e-10 * max(1.0, float(np.abs(matrix).max())):
        lams, q = np.linalg.eigh(0.5 * (matrix + matrix.T))
        # a copy: with the transposed view, products with Q^-1 round differently
        return lams, q, q.T.copy()
    lams_c, qc = np.linalg.eig(matrix)
    if float(np.abs(lams_c.imag).max()) > 1e-10 * max(1.0, float(np.abs(lams_c).max())):
        raise NonPositiveLambda(f"{name} has a complex eigenvalue")
    # a defective matrix leaves eig a Q whose columns (nearly) coincide: cond
    # is inf, or about 1/sqrt(eps) or more where rounding split the eigenvalue
    if not (cond := float(np.linalg.cond(qc.real))) <= 1e7:
        raise NotSimultaneouslyDiagonalizable(
            f"{name} is not diagonalizable to working accuracy: "
            f"eigenvector condition number {cond:.3e} > 1e7")
    order = np.argsort(lams_c.real)
    return lams_c.real[order], qc.real[:, order], np.linalg.inv(qc.real)[order]


def _require_positive(lams: np.ndarray) -> None:
    """NonPositiveLambda unless the least of the ascending ``lams`` is positive."""
    if lams[0] <= 0.0:
        raise NonPositiveLambda(f"transformed stiffness eigenvalue {float(lams[0])!r}"
                                " is not positive")


def reduce_to_model(problem: GeneralProblem) -> ModeReduction:
    """Split a linear general problem into scalar model problems.

    Requires ``problem.linear_b`` (the reduction is exact only for linear perturbations)
    commuting with the stiffness after the mass change of variables.  Such a pair, if
    diagonalizable, shares the eigenvectors Q of a generic A_t + t B_t (Horn & Johnson,
    Matrix Analysis, Thm 1.3.21), so the modes are the diagonals of Q^-1 A_t Q and
    Q^-1 B_t Q, repeated frequencies included, in increasing freq_sq order, the order in
    which a rotation/kick ``integrate_general`` run steps them.
    """
    if problem.linear_b is None:
        raise ValueError("reduction needs a linear perturbation f(q) = -B q")
    ell, _, a_t, b_t = _mass_basis(problem)
    # irrational, so that inputs of rational ratios keep distinct modes' lam + t mu apart
    t = 0.6180339887498949 * float(np.abs(a_t).max()) / (float(np.abs(b_t).max()) or 1.0)
    try:
        _, q, q_inv = _frame(a_t + t * b_t, "A_t + t B_t")
    except (NonPositiveLambda, NotSimultaneouslyDiagonalizable) as exc:
        # A_t's own frame and spectrum decide the class and message first
        _require_positive(_frame(a_t)[0])
        raise NotSimultaneouslyDiagonalizable(str(exc)) from None
    a_m, b_m = q_inv @ a_t @ q, q_inv @ b_t @ q
    for x in (a_m, b_m):
        off = float(np.abs(x - np.diag(np.diag(x))).max())
        if off > 1e-8 * max(1.0, float(np.abs(x).max())):
            raise NotSimultaneouslyDiagonalizable(
                f"off-diagonal residual {off:.3e} after transform")
    order = np.argsort(np.diag(a_m))
    lams, mus = np.diag(a_m)[order], np.diag(b_m)[order]
    _require_positive(lams)
    modes = tuple(Mode(float(l), float(mu / l)) for l, mu in zip(lams, mus))
    return ModeReduction(modes=modes, cholesky_factor=ell, eigenvectors=q[:, order])


def _step_segments(scheme: SplittingScheme, problem: GeneralProblem, h: float):
    """One step as segments [(S_1, t_1), ..., (S_k, t_k)]: z <- S_i z on
    z = (q, p), then p <- p + t_i f(q) when t_i is non-zero.

    The flows up to each kick of a nonlinear force, or all of them, are
    folded by ``kernel._fold`` on d x d blocks where the free flow is the
    model problem's: for rotation/kick in the scaled modes (Q^-1 L^T q,
    Omega^-1 Q^-1 L^-1 p) of the eigenbasis ``_frame(A_t)``, steplength
    h*omega and kick coupling Lambda^-1 Q^-1 B_t Q; for drift/kick in
    (L^T q, L^-1 p), i.e. Q = I and omega = 1, with coupling A_t + B_t.
    """
    d = problem.dim
    ell, inv_l, a_t, b_t = _mass_basis(problem)
    if scheme.is_drift_family:
        omega, coupling = 1.0, a_t + b_t
        to_q, to_p, from_q, from_p = ell.T, inv_l, inv_l.T, ell
    else:
        lams, q, q_inv = _frame(a_t)
        _require_positive(lams)
        omega, coupling = np.sqrt(lams)[:, None], q_inv @ b_t @ q / lams[:, None]
        to_q, to_p = q_inv @ ell.T, q_inv @ inv_l / omega
        from_q, from_p = np.linalg.inv(to_q), np.linalg.inv(to_p)
    zero = np.zeros((d, d))
    to_modes = np.block([[to_q, zero], [zero, to_p]])
    from_modes = np.block([[from_q, zero], [zero, from_p]])

    def step_map(flows):
        a, b, c, e = _fold(flows, scheme.is_drift_family, _Operator(coupling), h * omega, np.eye(d))
        return from_modes @ np.block([[a, b], [c, e]]) @ to_modes

    segments, run = [], []
    for kind, weight in [(k, w) for k, w in scheme.flow_sequence() if w * h != 0.0]:
        run.append((kind, weight))
        if kind == "kick" and problem.force is not None:
            segments.append((step_map(run), weight * h))
            run = []
    if run:
        segments.append((step_map(run), 0.0))
    return segments


def integrate_general(
    scheme: SplittingScheme,
    problem: GeneralProblem,
    h: float,
    n_steps: int,
    z0: Sequence[float],
) -> TrajectoryReport:
    """Apply the scheme to the general problem.

    Rotation stages advance M q'' = -A q exactly in its scaled modes
    (u, u'/omega), so M^-1 A must be diagonalizable with a real positive
    spectrum; drift/kick (Verlet) stages act on (L^T q, L^-1 p), M = L L^T,
    need only an SPD M and kick with -A q + f(q).  The linear stages
    between two nonlinear kicks p <- p + t f(q) are folded into one matrix
    before the first step.  Without a nonlinear force the step is one
    matrix S, and the states are filled up to span = _GUARD_BLOCK_VALUES //
    (2d)^2 at a time as S^[1..span] times the state before them, the powers
    built once by one product per power; a span of 1 (d >= 46) is one
    product per step, as with a nonlinear force.  ||q|| + ||p|| is checked
    against BLOWUP_NORM once per block of _GUARD_BLOCK_VALUES // (2d) states.

    Complex inputs are propagated unchanged (useful for derivative
    checks); the blowup guard and norm diagnostics use magnitudes.
    """
    check_consistency(scheme)
    _require_finite("h", h)
    if n_steps < 1:
        raise ValueError(f"need n_steps >= 1, got {n_steps}")
    z0 = np.asarray(z0)
    d = problem.dim
    if z0.shape != (2 * d,):
        raise ValueError(f"z0 must have length {2 * d}, got shape {z0.shape}")
    bad = np.flatnonzero(~np.isfinite(z0))
    if bad.size:
        raise ValueError(f"z0 must be finite, got {z0[bad[0]].item()!r} at entry {bad[0]}")
    z = z0.astype(complex if np.iscomplexobj(z0) else float)
    states = np.empty((n_steps + 1, 2 * d), dtype=z.dtype)
    states[0] = z
    per_block = max(1, _GUARD_BLOCK_VALUES // (2 * d))
    # a huge perturbation overflows the step map, and steps past a blowup
    # overflow until the block ends; the guard reports the first such state
    with np.errstate(all="ignore"):
        segments = _step_segments(scheme, problem, h)
        span = min(n_steps, _GUARD_BLOCK_VALUES // (2 * d) ** 2)
        if len(segments) > 1 or segments[0][1]:
            span = 1  # a nonlinear kick: one step at a time
        if span > 1:
            # one linear step map S: its powers S^1..S^span stacked as rows, cut
            # before the first with an entry past BLOWUP_NORM (or NaN), so that
            # a chunk S^k z overflows only where the per-step states would
            mat = segments[0][0]
            powers = [mat]
            for _ in range(span - 1):
                powers.append(mat.dot(powers[-1]))
            fine = np.abs(np.array(powers)).max(axis=(1, 2)) <= BLOWUP_NORM
            span = int(np.logical_and.accumulate(fine).sum())
            stacked = np.concatenate(powers)
        for start in range(1, n_steps + 1, per_block):
            stop = min(start + per_block, n_steps + 1)
            if span > 1:
                # a chunk of up to span states is one product with the stack
                for first in range(start, stop, span):
                    rows = min(span, stop - first)
                    states[first:first + rows] = stacked[:rows * 2 * d].dot(
                        states[first - 1]).reshape(rows, 2 * d)
            else:
                for step in range(start, stop):
                    for mat, t in segments:
                        # the product of mat @ z, at a smaller call cost on small matrices
                        z = mat.dot(z)
                        if t:
                            z[d:] += t * problem.force(z[:d])
                    states[step] = z
            norms = _row_norms(states[start:stop, :d]) + _row_norms(states[start:stop, d:])
            # written as "not <=" so that a NaN state is a blowup too
            bad = np.flatnonzero(~(norms <= BLOWUP_NORM))
            if bad.size:
                raise ExponentialBlowup(start + int(bad[0]), float(norms[bad[0]]))
    norms = _row_norms(states)
    tail = np.log(np.maximum(norms[len(norms) // 2:], 1e-300))
    slope = np.polyfit(np.arange(len(tail), dtype=float), tail, 1)[0] if len(tail) > 1 else 0.0
    return TrajectoryReport(states, float(norms.max()), math.exp(slope))


def integrate_model(
    scheme: SplittingScheme,
    eps: float,
    h: float,
    n_steps: int,
    q0: float = 1.0,
    p0: float = 0.0,
) -> TrajectoryReport:
    """Iterate the scheme on the model problem from (q0, p0): the
    one-degree-of-freedom general problem M = A = 1, B = eps, stepped and
    guarded by ``integrate_general``, so a phase-space norm |q| + |p| past
    BLOWUP_NORM raises ExponentialBlowup with the steps completed and that
    norm."""
    _require_finite("q0", q0)
    _require_finite("p0", p0)
    _require_finite("eps", eps)
    if eps <= -1.0:
        warnings.warn(
            f"eps={float(eps)!r} <= -1 leaves the oscillatory regime; "
            "the model problem is unstable for every scheme there",
            stacklevel=2,
        )
    problem = GeneralProblem([[1.0]], [[1.0]], linear_b=[[eps]])
    return integrate_general(scheme, problem, h, n_steps, (q0, p0))
