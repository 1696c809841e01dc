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

from .kernel import _require_finite, transfer_matrix
from .schemes import SplittingScheme, check_consistency

#: Norm beyond which integration aborts with ExponentialBlowup.
BLOWUP_NORM = 1e150


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
class ModelState:
    """Phase-space point (q, p) of the scalar model problem."""

    q: float
    p: float


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


def _growth_fit(norms: np.ndarray) -> float:
    half = len(norms) // 2
    tail = np.log(np.maximum(norms[half:], 1e-300))
    if len(tail) < 2:
        return 1.0
    steps = np.arange(len(tail), dtype=float)
    slope = np.polyfit(steps, tail, 1)[0]
    return float(math.exp(slope))


def integrate_model(
    scheme: SplittingScheme,
    eps: float,
    h: float,
    n_steps: int,
    z0: ModelState = ModelState(1.0, 0.0),
) -> TrajectoryReport:
    """Iterate the scheme's step matrix on the model problem.

    The step matrix is built once; each step is one 2x2 multiply.  If the
    phase-space norm ever exceeds 1e150 the run aborts with
    ExponentialBlowup carrying the number of completed steps.
    """
    if n_steps < 1:
        raise ValueError(f"need n_steps >= 1, got {n_steps}")
    _require_finite("q0", z0.q)
    _require_finite("p0", z0.p)
    if eps <= -1.0:
        warnings.warn(
            f"eps={eps!r} <= -1 leaves the oscillatory regime; "
            "the model problem is unstable for every scheme there",
            stacklevel=2,
        )
    mat = transfer_matrix(scheme, eps, h)
    a, b, c, d = mat.a, mat.b, mat.c, mat.d
    q, p = float(z0.q), float(z0.p)
    qs = [q]
    ps = [p]
    for step in range(n_steps):
        q, p = a * q + b * p, c * q + d * p
        if abs(q) > BLOWUP_NORM or abs(p) > BLOWUP_NORM:
            raise ExponentialBlowup(step + 1, math.hypot(q, p))
        qs.append(q)
        ps.append(p)
    states = np.column_stack((np.asarray(qs), np.asarray(ps)))
    norms = np.hypot(states[:, 0], states[:, 1])
    return TrajectoryReport(
        states=states,
        max_norm=float(norms.max()),
        empirical_growth=_growth_fit(norms),
    )


# ---------------------------------------------------------------------------
# the general problem


@dataclass(frozen=True)
class GeneralProblem:
    """M q'' = -A q + f(q) with M symmetric positive definite.

    ``force`` evaluates the perturbation f(q); ``linear_b`` is set when
    f(q) = -B q, which enables the exact reduction to scalar model
    problems.  ``force`` may be None for the unperturbed system.
    """

    mass: np.ndarray = field(repr=False)
    stiffness: np.ndarray = field(repr=False)
    force: Callable[[np.ndarray], np.ndarray] | None = None
    linear_b: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.mass, dtype=float))
        a = np.atleast_2d(np.asarray(self.stiffness, dtype=float))
        if m.shape[0] != m.shape[1] or m.shape != a.shape:
            raise ValueError(f"matrix shapes differ: M {m.shape}, A {a.shape}")
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "stiffness", a)
        if self.linear_b is not None:
            b = np.atleast_2d(np.asarray(self.linear_b, dtype=float))
            if b.shape != m.shape:
                raise ValueError(f"B shape {b.shape} differs from M {m.shape}")
            if not np.all(np.isfinite(b)):
                raise ValueError("B must be finite")
            object.__setattr__(self, "linear_b", b)
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > 1e-10 * scale:
            raise NotSPD("mass matrix is not symmetric within 1e-10")

    @property
    def dim(self) -> int:
        return self.mass.shape[0]

    @classmethod
    def with_linear_force(cls, mass, stiffness, b) -> "GeneralProblem":
        b = np.atleast_2d(np.asarray(b, dtype=float))
        return cls(mass, stiffness, force=lambda q: -(b @ q), linear_b=b)

    @classmethod
    def with_cubic_force(cls, mass, stiffness, delta: float) -> "GeneralProblem":
        d = float(delta)
        return cls(mass, stiffness, force=lambda q: -d * q**3, linear_b=None)


def _cholesky_or_raise(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NotSPD(f"mass matrix is not positive definite: {exc}") from exc


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


def _modal_basis(problem: GeneralProblem):
    """The mass change of variables and the modes of  M q'' = -A q.

    Returns (L, L^-1, A_t, lams, Q, symmetric) with M = L L^T,
    A_t = L^-1 A L^-T and A_t Q = Q diag(lams); ``symmetric`` says whether
    Q came from ``eigh`` (orthogonal) or from ``eig``.
    """
    ell = _cholesky_or_raise(problem.mass)
    inv_l = np.linalg.inv(ell)
    a_t = inv_l @ problem.stiffness @ inv_l.T
    sym_tol = 1e-10 * max(1.0, float(np.abs(a_t).max()))
    symmetric = float(np.abs(a_t - a_t.T).max()) <= sym_tol
    if symmetric:
        lams, q = np.linalg.eigh(0.5 * (a_t + a_t.T))
    else:
        lams_c, qc = np.linalg.eig(a_t)
        if float(np.abs(lams_c.imag).max()) > 1e-10 * max(1.0, float(np.abs(lams_c).max())):
            raise NonPositiveLambda("transformed stiffness has a complex eigenvalue")
        lams, q = lams_c.real, qc.real
    if lams.min() <= 0.0:
        raise NonPositiveLambda(
            f"transformed stiffness eigenvalue {lams.min()!r} is not positive"
        )
    return ell, inv_l, a_t, lams, q, symmetric


def reduce_to_model(problem: GeneralProblem) -> ModeReduction:
    """Split a linear general problem into scalar model problems.

    Requires ``problem.linear_b`` (the reduction is exact only for linear
    perturbations).  Modes are returned in increasing freq_sq order.
    """
    if problem.linear_b is None:
        raise ValueError("reduction needs a linear perturbation f(q) = -B q")
    ell, inv_l, a_t, lams, q, symmetric = _modal_basis(problem)
    b_t = inv_l @ problem.linear_b @ inv_l.T
    tol = 1e-8
    scale = max(1.0, float(np.abs(a_t).max()) * max(1.0, float(np.abs(b_t).max())))
    comm = a_t @ b_t - b_t @ a_t
    if float(np.abs(comm).max()) > tol * scale:
        raise NotSimultaneouslyDiagonalizable(
            f"commutator residual {float(np.abs(comm).max()):.3e} exceeds "
            f"{tol * scale:.3e}"
        )
    if symmetric:
        d = q.T @ b_t @ q
        # re-diagonalize inside clusters of (numerically) equal eigenvalues,
        # where eigh's basis is arbitrary
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
            i = j
        d = q.T @ b_t @ q
    else:
        d = np.linalg.solve(q, b_t @ q)
    off = d - np.diag(np.diag(d))
    if float(np.abs(off).max()) > tol * max(1.0, float(np.abs(d).max())):
        raise NotSimultaneouslyDiagonalizable(
            f"off-diagonal residual {float(np.abs(off).max()):.3e} after transform"
        )
    order = np.argsort(lams)
    lams, mus, q = lams[order], np.diag(d)[order], q[:, order]
    modes = tuple(Mode(float(l), float(mu / l)) for l, mu in zip(lams, mus))
    return ModeReduction(modes=modes, cholesky_factor=ell, eigenvectors=q)


class _OscillatorFlow:
    """Cached exact flow of M q'' = -A q, diagonalized once per problem."""

    def __init__(self, problem: GeneralProblem):
        ell, inv_l, _, lams, q, _ = _modal_basis(problem)
        self.freq = np.sqrt(lams)
        # q-modal = to_q @ q_phys, p-modal = to_p @ p_phys
        self.to_q = q.T @ ell.T
        self.to_p = q.T @ inv_l
        self.from_q = np.linalg.inv(self.to_q)
        self.from_p = ell @ q

    def advance(self, q, p, t: float):
        """Exact rotation of every mode for time t."""
        u = self.to_q @ q
        v = self.to_p @ p
        wt = self.freq * t
        cw, sw = np.cos(wt), np.sin(wt)
        u2 = cw * u + (sw / self.freq) * v
        v2 = -(sw * self.freq) * u + cw * v
        return self.from_q @ u2, self.from_p @ v2


def integrate_general(
    scheme: SplittingScheme,
    problem: GeneralProblem,
    h: float,
    n_steps: int,
    z0: Sequence[float],
) -> TrajectoryReport:
    """Apply the scheme to the general problem.

    Rotation stages advance M q'' = -A q exactly through the cached
    diagonalization; kick stages apply p <- p + t f(q).  For the
    drift/kick (Verlet) family, free stages are drifts q <- q + t M^-1 p
    and kicks carry the full right-hand side -A q + f(q).

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
    drifting = scheme.is_drift_family
    flow = None if drifting else _OscillatorFlow(problem)
    inv_mass = np.linalg.inv(problem.mass) if drifting else None
    force = problem.force

    q = z0[:d].astype(complex if np.iscomplexobj(z0) else float)
    p = z0[d:].astype(q.dtype)
    states = np.empty((n_steps + 1, 2 * d), dtype=q.dtype)
    states[0, :d] = q
    states[0, d:] = p
    stage_list = list(scheme.flow_sequence())
    for step in range(n_steps):
        for kind, w in stage_list:
            t = w * h
            if t == 0.0:
                continue
            if kind == "free":
                if drifting:
                    q = q + t * (inv_mass @ p)
                else:
                    q, p = flow.advance(q, p, t)
            else:
                impulse = -(problem.stiffness @ q) if drifting else 0.0
                if force is not None:
                    impulse = impulse + force(q)
                p = p + t * impulse
        norm = float(np.linalg.norm(np.abs(q)) + np.linalg.norm(np.abs(p)))
        if norm > BLOWUP_NORM:
            raise ExponentialBlowup(step + 1, norm)
        states[step + 1, :d] = q
        states[step + 1, d:] = p
    norms = np.linalg.norm(np.abs(states), axis=1)
    return TrajectoryReport(
        states=states,
        max_norm=float(norms.max()),
        empirical_growth=_growth_fit(norms),
    )
