"""Scripted experiments over the stability kernel.

Four studies live here: the critical-steplength table, the sweep of the
three-stage kick-first family over its free rotation parameter, a
randomized spot-check that every competitor scheme admits an instability
witness inside the guaranteed window, and the ``verify`` property suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import stability
from .kernel import _flow_weights, _horner, _semitrace_rows, transfer_matrix
from .rng import SplitMix64
from .schemes import (
    FirstFlow,
    SplittingScheme,
    _random_first_flow,
    catalog_scheme,
    random_consistent_scheme,
    random_palindromic_scheme,
    three_stage_necessary_k,
    three_stage_scheme,
)
from .stability import (
    _real_roots_rows,
    _stacked,
    _witness_search,
    coincides_with_chebyshev,
    critical_steplength,
    instability_witness,  # not called here; perfbench/test_perfbench.py reads this binding
)

#: Rotation weights at which the three-stage family collapses onto a
#: uniform-substep scheme: at 1/4 the outer kicks vanish (two rotation-
#: first substeps), at 1/3 all weights equalize (three substeps), at 1/2
#: the middle rotation vanishes (two kick-first substeps).
DEGENERATE_ROTATION_WEIGHTS = (0.25, 1.0 / 3.0, 0.5)

#: Rotation weights the three-stage sweep covers, inclusive.
R_RANGE = (0.2, 0.6)

#: Open eps-bracket searched for the critical point nearest the origin.
EPS_STAR_BRACKET = (-0.5, 0.5)


def critical_steplength_table(m_max: int) -> tuple[float, ...]:
    """Critical steplengths for stage counts 1..m_max (strictly increasing)."""
    if m_max < 1:
        raise ValueError(f"need m_max >= 1, got {m_max}")
    return tuple(critical_steplength(m) for m in range(1, m_max + 1))


# ---------------------------------------------------------------------------
# three-stage family sweep


@dataclass(frozen=True)
class SweepRecord:
    """One row of the three-stage sweep.

    ``eps_star`` is the critical point of the semitrace (in eps) nearest
    the origin and ``semitrace`` its value there, both NaN when there is
    no critical point in EPS_STAR_BRACKET; ``exceptional`` marks rotation
    weights where the scheme's polynomial coincides with a uniform-substep
    (Chebyshev) form, so no instability window opens.
    """

    r: float
    k: float
    eps_star: float
    semitrace: float
    exceptional: bool


def default_r_grid(n: int = 401) -> tuple[float, ...]:
    """Uniform inclusive grid on R_RANGE with degenerate weights snapped.

    Interior nodes within half a grid spacing of 1/4, 1/3 or 1/2 are
    replaced by the exact value, so the sweep samples the collapses
    precisely instead of straddling them; both ends of R_RANGE stay.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lo, hi = R_RANGE
    spacing = (hi - lo) / (n - 1)
    nodes = [lo]
    for i in range(1, n - 1):
        r = ((n - 1 - i) * lo + i * hi) / (n - 1)
        for target in DEGENERATE_ROTATION_WEIGHTS:
            if abs(r - target) <= 0.5 * spacing:
                r = target
                break
        nodes.append(r)
    return (*nodes, hi)


def _critical_points_near_zero(rows: np.ndarray) -> np.ndarray:
    """Per row of monomial coefficients: the real root of its
    eps-derivative in EPS_STAR_BRACKET with smallest magnitude, or NaN if
    there is none."""
    lo, hi = (np.full(len(rows), x) for x in EPS_STAR_BRACKET)
    roots = _real_roots_rows(rows[:, 1:] * np.arange(1, rows.shape[1]), lo, hi)
    # a NaN column keeps a root-less row NaN, even when no row has a root
    roots = np.column_stack([roots, np.full(len(rows), np.nan)])
    nearest = np.where(np.isnan(roots), np.inf, np.abs(roots)).argmin(axis=1)
    return roots[np.arange(len(rows)), nearest]


def three_stage_sweep(
    h_star: float, r_grid: Sequence[float] | None = None
) -> tuple[SweepRecord, ...]:
    """Sweep the three-stage kick-first family over its rotation weight.

    For each r the unique consistency-compatible inner kick weight is
    computed, the stability polynomial is formed at ``h_star``, and the
    critical point of the semitrace nearest eps = 0 is found exactly, as
    the real root of its eps-derivative in EPS_STAR_BRACKET of smallest
    magnitude.  Rows where no critical point exists are recorded with NaN
    values rather than aborting the sweep.  All rows share one fold and
    one stacked root solve.
    """
    if not 0.0 < h_star < math.pi:
        raise ValueError(f"need 0 < h_star < pi, got {h_star!r}")
    c1 = -(h_star / 4.0) * math.sin(h_star / 2.0)
    if 2.0 * (c1 * c1) < np.finfo(float).tiny:
        # the rows' eps^2 coefficients, ~h^4/32 like the m = 2 Strang row's
        # 2 c1^2, underflow, and rows of other weights pass for Strang forms
        raise ValueError(f"h_star: h={h_star!r} is too small, the eps^2 coefficients "
                         "of the sweep's rows underflow below about 2.9e-77")
    if r_grid is None:
        r_grid = default_r_grid()
    for r in r_grid:
        if not R_RANGE[0] <= r <= R_RANGE[1]:
            raise ValueError(f"rotation weight {float(r)!r} outside {list(R_RANGE)}")
    if len(r_grid) == 0:
        return ()
    ks = [three_stage_necessary_k(r) for r in r_grid]  # sin(pi r) >= 0.58 on R_RANGE
    schemes = [three_stage_scheme(r, k) for r, k in zip(r_grid, ks)]
    rows = _semitrace_rows(_flow_weights(schemes), np.full(len(schemes), h_star))
    exceptional = (coincides_with_chebyshev(rows, 2, h_star)
                   | coincides_with_chebyshev(rows, 3, h_star)).tolist()
    eps_star = _critical_points_near_zero(rows)
    semitrace = _horner(rows.T, eps_star)
    return tuple(map(SweepRecord, r_grid, ks, eps_star.tolist(), semitrace.tolist(), exceptional))


# ---------------------------------------------------------------------------
# randomized optimality spot-check


@dataclass(frozen=True)
class SpotcheckFailure:
    """A (scheme, h) pair at which no instability witness was found."""

    label: str
    rotation_coeffs: tuple[float, ...]
    kick_coeffs: tuple[float, ...]
    h: float


@dataclass(frozen=True)
class SpotcheckReport:
    """Tally of the randomized witness search.

    Counts are per trial: a trial either coincides with the Chebyshev
    form (skipped), produces a witness at every sampled h, or records its
    first witness-less h (one failure record per failed trial), so
    witnesses_found + coincidence_skips + len(failures) == trials.
    """

    m: int
    trials: int
    witnesses_found: int
    coincidence_skips: int
    failures: tuple[SpotcheckFailure, ...] = field(default=())

    @property
    def consistent_tally(self) -> bool:
        return (
            self.witnesses_found + self.coincidence_skips + len(self.failures)
            == self.trials
        )


def _draw_steplengths(rng: SplitMix64, count: int, h_cap: float) -> list[float]:
    """``count`` steplengths uniform in [0.1, h_cap), each one redrawn
    while it lies within 1e-3 of a multiple of pi."""
    hs = []
    while len(hs) < count:
        h = rng.uniform(0.1, h_cap)
        if abs(h - round(h / math.pi) * math.pi) > 1e-3:
            hs.append(h)
    return hs


def optimality_spotcheck(
    m: int, trials: int, h_samples: int, seed: int = 1
) -> SpotcheckReport:
    """Randomized check that competitor schemes lose stability early.

    Each trial draws a consistent palindromic m-stage scheme (rotation-
    or kick-first on a coin flip, coefficients uniform in [-0.5, 1.5]
    before normalization) and ``h_samples`` steplengths uniform in
    (0.1, critical steplength) avoiding 1e-3 neighborhoods of multiples
    of pi, then requires an instability witness at every steplength.
    Deterministic for a fixed seed.
    """
    if m not in (2, 3, 4):
        raise ValueError(f"stage count must be 2, 3 or 4, got {m}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    if h_samples < 1:
        raise ValueError(f"need h_samples >= 1, got {h_samples}")
    rng = SplitMix64(seed)
    h_cap = critical_steplength(m)
    # trials are drawn in blocks of at most the witness search's row
    # budget (one trial at least), so memory stays flat for any count
    per_block = max(1, stability._WITNESS_BLOCK_ROWS // h_samples)
    skips = 0
    failures: list[SpotcheckFailure] = []
    for start in range(0, trials, per_block):
        schemes, hs = [], []
        for _ in range(min(per_block, trials - start)):
            schemes.append(random_palindromic_scheme(rng, m, first_flow=_random_first_flow(rng)))
            hs.append(_draw_steplengths(rng, h_samples, h_cap))
        hs = np.array(hs)
        witness, coincides = _witness_search(schemes, hs, m)
        # a trial coinciding at some steplength is skipped (its witnesses
        # are all NaN); any other with a NaN witness fails at its first
        skip = coincides.any(axis=1)
        lost = np.isnan(witness)
        skips += int(skip.sum())
        for i in np.flatnonzero(lost.any(axis=1) & ~skip).tolist():
            s, h = schemes[i], hs[i, lost[i].argmax()].item()
            failures.append(SpotcheckFailure(
                s.label or s.describe(), s.rotation_coeffs, s.kick_coeffs, h
            ))
    return SpotcheckReport(m, trials, trials - skips - len(failures), skips, tuple(failures))


# ---------------------------------------------------------------------------
# randomized property suites


#: Relative tolerance of the Chebyshev identity check.
CHEBYSHEV_TOL = 1e-10

#: Absolute tolerance of the conjugacy checks (coefficients and semitraces).
CONJUGACY_TOL = 1e-12


def _random_h(rng: SplitMix64) -> float:
    """A steplength in [0.05, 3.1), clear of h = pi by more than 0.04."""
    return rng.uniform(0.05, 3.1)


def _suite_consistency(rng: SplitMix64, trials: int):
    schemes = [catalog_scheme(n) for n in ("rkr", "krk", "lt_rk", "lt_kr")] + [
        random_consistent_scheme(rng, 1 + rng.randint(0, 5), first_flow=_random_first_flow(rng))
        for _ in range(trials)
    ]
    hs = np.array([[_random_h(rng) for _ in range(5)] for _ in schemes])
    return _stacked(stability._expansion_rows, schemes, hs, hs)


def _suite_second_derivative(rng: SplitMix64, trials: int):
    schemes = [
        random_palindromic_scheme(rng, 1 + rng.randint(0, 4), first_flow=_random_first_flow(rng))
        for _ in range(trials)
    ]
    n = np.tile([1, 2, 3], (trials, 1))
    return _stacked(stability._curvature_rows, schemes, n * math.pi, n)


def _chebyshev_rows(rows, eps, ref):
    """|P(eps) - ref| / max(1, |ref|) per row, and whether it is within CHEBYSHEV_TOL."""
    resid = np.abs(_horner(np.moveaxis(rows, -1, 0), eps) - ref) / np.maximum(1.0, np.abs(ref))
    return resid, resid <= CHEBYSHEV_TOL


def _suite_chebyshev(rng: SplitMix64, trials: int):
    per_m = max(1, trials // 7)
    draws = [[(rng.uniform(0.05, m * math.pi - 0.05), rng.uniform(-1.0, 6.0)) for _ in range(per_m)]
             for m in range(2, 9)]
    ref = [[stability.chebyshev_semitrace(m, eps, h) for h, eps in row]
           for m, row in zip(range(2, 9), draws)]
    hs, eps = np.moveaxis(np.array(draws), -1, 0)
    schemes = [catalog_scheme("krkm", m) for m in range(2, 9)]
    return _stacked(_chebyshev_rows, schemes, hs, eps, np.array(ref))


def _cyclic_shift(scheme: SplittingScheme) -> SplittingScheme:
    """Move the leading rotation of a rotation-first scheme to the end:
    a kick-first scheme with the same transfer-matrix trace (the shift is
    a similarity transform), which is what the conjugacy suite checks."""
    r, k = scheme.rotation_coeffs, scheme.kick_coeffs
    return SplittingScheme(FirstFlow.KICK, (*r[1:-1], r[-1] + r[0]), (*k, 0.0))


def _suite_conjugacy(rng: SplitMix64, trials: int):
    hs = np.array([[_random_h(rng) for _ in range(3)] for _ in range(6)])
    schemes = [catalog_scheme(name, m) for name in ("rkrm", "krkm") for m in range(1, 7)]
    rows = _semitrace_rows(np.repeat(_flow_weights(schemes), 3, axis=0), np.tile(hs.ravel(), 2))
    d = [stability.polynomial_distance(*np.split(rows, 2))]
    # the random schemes stay on the scalar fold: the absolute CONJUGACY_TOL judges its rounding
    for _ in range(trials):
        scheme = random_consistent_scheme(rng, 2 + rng.randint(0, 4))  # rotation-first
        h, eps = _random_h(rng), rng.uniform(-1.0, 6.0)
        d.append([abs(transfer_matrix(scheme, eps, h).semitrace()
                      - transfer_matrix(_cyclic_shift(scheme), eps, h).semitrace())])
    d = np.concatenate(d)
    return d, d <= CONJUGACY_TOL


#: The suites of ``verify_suite``, in the order ``splitstab verify`` runs them.
VERIFY_SUITES = {
    "consistency": _suite_consistency,
    "second-derivative": _suite_second_derivative,
    "chebyshev": _suite_chebyshev,
    "conjugacy": _suite_conjugacy,
}


def verify_suite(name: str, seed: int, trials: int) -> tuple[int, int, float]:
    """Run one of VERIFY_SUITES, deterministic for a fixed seed: (checks,
    failures, worst residual or 0.0), the tally of one check per (scheme,
    steplength) of c0 = cos h and c1 = -(h/2) sin h, the curvature bound
    at h = n*pi, the m-substep Strang semitrace's Chebyshev form or
    rotation-/kick-first conjugacy."""
    if name not in VERIFY_SUITES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(VERIFY_SUITES)}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    residual, passed = VERIFY_SUITES[name](SplitMix64(seed), trials)
    return passed.size, int((~passed).sum()), max([0.0, *residual.ravel().tolist()])
