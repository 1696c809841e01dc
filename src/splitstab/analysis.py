"""Scripted experiments over the stability kernel.

Three studies live here: the critical-steplength table, the sweep of the
three-stage kick-first family over its free rotation parameter, and a
randomized spot-check that every competitor scheme admits an instability
witness inside the guaranteed window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import stability
from .kernel import _horner, _semitrace_rows
from .rng import SplitMix64
from .schemes import (
    FirstFlow,
    _random_first_flow,
    random_palindromic_scheme,
    three_stage_necessary_k,
    three_stage_scheme,
)
from .stability import (
    _real_roots_rows,
    _witness_search,
    chebyshev_polynomial_coeffs,
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
    if r_grid is None:
        r_grid = default_r_grid()
    for r in r_grid:
        if not R_RANGE[0] <= r <= R_RANGE[1]:
            raise ValueError(f"rotation weight {r!r} outside {list(R_RANGE)}")
    if len(r_grid) == 0:
        return ()
    ks = [three_stage_necessary_k(r) for r in r_grid]  # sin(pi r) >= 0.58 on R_RANGE
    schemes = [three_stage_scheme(r, k) for r, k in zip(r_grid, ks)]
    rows = _semitrace_rows(schemes, np.full((len(schemes), 1), h_star))[:, 0]
    exceptional = np.any(
        [coincides_with_chebyshev(rows, chebyshev_polynomial_coeffs(m, h_star)) for m in (1, 2, 3)],
        axis=0,
    ).tolist()
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
    hs = []
    multiples = [j * math.pi for j in range(1, int(h_cap / math.pi) + 2)]
    while len(hs) < count:
        h = rng.uniform(0.1, h_cap)
        if any(abs(h - x) <= 1e-3 for x in multiples):
            continue
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
    witnesses_found = skips = 0
    failures: list[SpotcheckFailure] = []
    for start in range(0, trials, per_block):
        drawn = []
        for _ in range(min(per_block, trials - start)):
            scheme = random_palindromic_scheme(rng, m, first_flow=_random_first_flow(rng))
            drawn.append((scheme, _draw_steplengths(rng, h_samples, h_cap)))
        # per trial: whether it coincides with the Chebyshev form at some
        # steplength, and its first steplength without a witness (or NaN);
        # the trials of one first flow share one flow layout and one search
        skip, missing = np.zeros(len(drawn), bool), np.full(len(drawn), np.nan)
        for first in FirstFlow:
            group = [i for i, (scheme, _) in enumerate(drawn) if scheme.first_flow is first]
            if not group:
                continue
            hs = np.array([drawn[i][1] for i in group])
            witness, coincides = _witness_search([drawn[i][0] for i in group], hs, m)
            lost = np.isnan(witness)
            first_lost = hs[np.arange(len(group)), lost.argmax(axis=1)]
            skip[group] = coincides.any(axis=1)
            missing[group] = np.where(lost.any(axis=1), first_lost, np.nan)
        for (scheme, _), skipped, h in zip(drawn, skip.tolist(), missing.tolist()):
            if skipped:
                skips += 1
            elif not math.isnan(h):
                failures.append(SpotcheckFailure(
                    scheme.label or scheme.describe(), scheme.rotation_coeffs, scheme.kick_coeffs, h
                ))
            else:
                witnesses_found += 1
    return SpotcheckReport(m, trials, witnesses_found, skips, tuple(failures))
