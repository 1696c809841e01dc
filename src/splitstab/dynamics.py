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
from typing import Callable, Sequence

import numpy as np

from .kernel import _fold, _Operator, _require_finite, transfer_matrix
from .schemes import SplittingScheme, check_consistency

#: Norm beyond which integration aborts with ExponentialBlowup.
BLOWUP_NORM = 1e150

#: Values of stored states the general integrator checks against
#: BLOWUP_NORM at once: one check per block of steps instead of per step.
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
    """Stiffness and perturbation do not commute after the mass transform."""


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


def _report(states: np.ndarray) -> TrajectoryReport:
    norms = np.linalg.norm(states, axis=1)
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
    """Iterate the scheme's step matrix on the model problem from (q0, p0).

    The step matrix is built once; each step is one 2x2 multiply.  If the
    phase-space norm ever exceeds 1e150 the run aborts with
    ExponentialBlowup carrying the number of completed steps.
    """
    if n_steps < 1:
        raise ValueError(f"need n_steps >= 1, got {n_steps}")
    _require_finite("q0", q0)
    _require_finite("p0", p0)
    if eps <= -1.0:
        warnings.warn(
            f"eps={eps!r} <= -1 leaves the oscillatory regime; "
            "the model problem is unstable for every scheme there",
            stacklevel=2,
        )
    mat = transfer_matrix(scheme, eps, h)
    a, b, c, d = mat.a, mat.b, mat.c, mat.d
    q, p = float(q0), float(p0)
    qs = [q]
    ps = [p]
    for step in range(n_steps):
        q, p = a * q + b * p, c * q + d * p
        # written as "not <=" so that a NaN state is a blowup too
        if not (abs(q) <= BLOWUP_NORM and abs(p) <= BLOWUP_NORM):
            raise ExponentialBlowup(step + 1, math.hypot(q, p))
        qs.append(q)
        ps.append(p)
    return _report(np.column_stack((np.asarray(qs), np.asarray(ps))))


# ---------------------------------------------------------------------------
# the general problem


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
    time_rescaling: str = "mode i advances with effective steplength h*sqrt(freq_sq_i)"


def _mass_basis(problem: GeneralProblem):
    """The mass change of variables: (L, L^-1, A_t) with M = L L^T and
    A_t = L^-1 A L^-T, so that x = L^T q obeys  x'' = -A_t x."""
    try:
        ell = np.linalg.cholesky(problem.mass)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(f"mass matrix is not positive definite: {exc}") from exc
    inv_l = np.linalg.inv(ell)
    return ell, inv_l, inv_l @ problem.stiffness @ inv_l.T


def _modes(a_t: np.ndarray):
    """The modes of  x'' = -A_t x: (lams, Q, Q^-1) with
    A_t Q = Q diag(lams).  Q^-1 is Q^T when A_t is symmetric (``eigh``)
    and the computed inverse otherwise (``eig``)."""
    sym_tol = 1e-10 * max(1.0, float(np.abs(a_t).max()))
    if float(np.abs(a_t - a_t.T).max()) <= sym_tol:
        lams, q = np.linalg.eigh(0.5 * (a_t + a_t.T))
        q_inv = q.T.copy()  # reduce_to_model rotates Q and Q^-1 one by one
    else:
        lams_c, qc = np.linalg.eig(a_t)
        if float(np.abs(lams_c.imag).max()) > 1e-10 * max(1.0, float(np.abs(lams_c).max())):
            raise NonPositiveLambda("transformed stiffness has a complex eigenvalue")
        lams, q = lams_c.real, qc.real
        q_inv = np.linalg.inv(q)
    if lams.min() <= 0.0:
        raise NonPositiveLambda(
            f"transformed stiffness eigenvalue {lams.min()!r} is not positive"
        )
    return lams, q, q_inv


def reduce_to_model(problem: GeneralProblem) -> ModeReduction:
    """Split a linear general problem into scalar model problems.

    Requires ``problem.linear_b`` (the reduction is exact only for linear
    perturbations).  Modes are returned in increasing freq_sq order.
    """
    if problem.linear_b is None:
        raise ValueError("reduction needs a linear perturbation f(q) = -B q")
    ell, inv_l, a_t = _mass_basis(problem)
    lams, q, q_inv = _modes(a_t)
    b_t = inv_l @ problem.linear_b @ inv_l.T
    tol = 1e-8
    scale = max(1.0, float(np.abs(a_t).max()) * max(1.0, float(np.abs(b_t).max())))
    comm = a_t @ b_t - b_t @ a_t
    if float(np.abs(comm).max()) > tol * scale:
        raise NotSimultaneouslyDiagonalizable(
            f"commutator residual {float(np.abs(comm).max()):.3e} exceeds "
            f"{tol * scale:.3e}"
        )
    d = q_inv @ b_t @ q
    # re-diagonalize inside clusters of (numerically) equal eigenvalues,
    # where the eigenbasis is arbitrary; the rotation is orthogonal, so
    # its transpose keeps Q^-1 the inverse of Q
    cluster_tol = 1e-8 * max(1.0, float(np.abs(lams).max()))
    i = 0
    n = len(lams)
    while i < n:
        j = i + 1
        while j < n and abs(lams[j] - lams[i]) <= cluster_tol:
            j += 1
        if j - i > 1:
            block = 0.5 * (d[i:j, i:j] + d[i:j, i:j].T)
            _, rot = np.linalg.eigh(block)
            q[:, i:j] = q[:, i:j] @ rot
            q_inv[i:j] = rot.T @ q_inv[i:j]
            d = q_inv @ b_t @ q
        i = j
    off = d - np.diag(np.diag(d))
    if float(np.abs(off).max()) > tol * max(1.0, float(np.abs(d).max())):
        raise NotSimultaneouslyDiagonalizable(
            f"off-diagonal residual {float(np.abs(off).max()):.3e} after transform"
        )
    order = np.argsort(lams)
    lams, mus, q = lams[order], np.diag(d)[order], q[:, order]
    modes = tuple(Mode(float(l), float(mu / l)) for l, mu in zip(lams, mus))
    return ModeReduction(modes=modes, cholesky_factor=ell, eigenvectors=q)


def _step_segments(scheme: SplittingScheme, problem: GeneralProblem, h: float):
    """One step as segments [(S_1, t_1), ..., (S_k, t_k)]: z <- S_i z on
    z = (q, p), then p <- p + t_i f(q) when t_i is non-zero.

    The flows up to each kick of a nonlinear force, or all of them, are
    folded by ``kernel._fold`` on d x d blocks where the free flow is the
    model problem's: in the scaled modes (u, u'/omega), with steplength
    h*omega and kick coupling Lambda^-1 Q^-1 B_t Q, for rotation/kick; in
    (L^T q, L^-1 p), i.e. Q = I and omega = 1, with coupling A_t + B_t
    for drift/kick (B_t = L^-1 B L^-T, zero unless f is linear).
    """
    d = problem.dim
    ell, inv_l, a_t = _mass_basis(problem)
    b_t = np.zeros((d, d)) if problem.linear_b is None else inv_l @ problem.linear_b @ inv_l.T
    if scheme.is_drift_family:
        lams, q, q_inv, b_t = np.ones(d), np.eye(d), np.eye(d), a_t + b_t
    else:
        lams, q, q_inv = _modes(a_t)
    omega, zero = np.sqrt(lams)[:, None], np.zeros((d, d))
    to_q, to_p = q_inv @ ell.T, q_inv @ inv_l / omega
    to_modes = np.block([[to_q, zero], [zero, to_p]])
    from_modes = np.block([[np.linalg.inv(to_q), zero], [zero, np.linalg.inv(to_p)]])
    coupling = _Operator(q_inv @ b_t @ q / lams[:, None])

    def step_map(flows):
        a, b, c, e = _fold(flows, scheme.is_drift_family, coupling, h * omega, np.eye(d))
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
    (u, u'/omega), so M^-1 A needs a real positive spectrum; drift/kick
    (Verlet) stages act on (L^T q, L^-1 p), M = L L^T, need only an SPD
    M and kick with -A q + f(q).  The linear stages between two nonlinear
    kicks p <- p + t f(q) are folded into one matrix before the first step.

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
    segments = _step_segments(scheme, problem, h)
    z = z0.astype(complex if np.iscomplexobj(z0) else float)
    states = np.empty((n_steps + 1, 2 * d), dtype=z.dtype)
    states[0] = z
    per_block = max(1, _GUARD_BLOCK_VALUES // (2 * d))
    # steps past a blowup overflow until the block ends; they are dropped
    with np.errstate(all="ignore"):
        for start in range(1, n_steps + 1, per_block):
            stop = min(start + per_block, n_steps + 1)
            for step in range(start, stop):
                for mat, t in segments:
                    z = mat @ z
                    if t:
                        z[d:] += t * problem.force(z[:d])
                states[step] = z
            block = states[start:stop]
            norms = np.linalg.norm(block[:, :d], axis=1) + np.linalg.norm(block[:, d:], axis=1)
            # the row norms may differ from the per-state norms in the last
            # bits, so rows near the bound get the per-state test, which is
            # written as "not <=" so that a NaN state is a blowup too
            for step in (start + np.flatnonzero(~(norms <= 0.999 * BLOWUP_NORM))).tolist():
                norm = float(np.linalg.norm(states[step, :d]) + np.linalg.norm(states[step, d:]))
                if not norm <= BLOWUP_NORM:
                    raise ExponentialBlowup(step, norm)
    return _report(states)
