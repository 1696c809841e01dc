"""Stability classification and the optimal-stability toolbox.

The step matrix of any consistent rotation/kick scheme has unit
determinant, so its spectrum is controlled by the semitrace
P = (trace)/2: the step is stable for |P| < 1, exponentially unstable for
|P| > 1, and at |P| = 1 stable only when the matrix is exactly +-identity.

The m-substep Strang composition plays a special role: its semitrace is
the Chebyshev polynomial T_m evaluated along an affine function of eps,
which gives closed-form stability edges and, below a critical steplength,
makes the composition's stability interval optimal among all m-stage
schemes.  The routines here expose those edges, the critical steplength,
and a witness search that exhibits an unstable eps for any competing
scheme whose stability polynomial differs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial

import numpy as np

from .kernel import (
    TransferMatrix,
    _horner,
    _semitrace_rows,
    epsilon_polynomial,
    transfer_matrix,
)
from .schemes import SplittingScheme

#: |det - 1| beyond this is treated as a corrupted input matrix.
DET_TOL = 1e-9

#: Entrywise distance from +-identity within which a |P| = 1 step is stable.
IDENTITY_TOL = 1e-9

#: Coefficient-wise distance below which a stability polynomial is treated
#: as identical to the Chebyshev (Strang) form.
COINCIDENCE_TOL = 1e-10

#: Largest stage count whose critical steplength is accurate to 1e-11
#: relative: beyond it cos(pi/m) - cos(h/m) cancels in the residual.
MAX_CRITICAL_STAGES = 1000


class NonUnitDeterminant(ValueError):
    """Input matrix is not area-preserving within tolerance."""


class OutOfRange(ValueError):
    """Argument outside the domain of a closed-form expression."""


class PolynomialCoincides(ValueError):
    """The scheme's stability polynomial equals the Chebyshev form, so no
    instability witness exists."""


class StabilityClass(Enum):
    STABLE = "stable"
    LINEARLY_UNSTABLE = "linear_unstable"
    EXPONENTIALLY_UNSTABLE = "exp_unstable"


@dataclass(frozen=True)
class StabilityVerdict:
    """Classification of one step matrix.

    ``growth_rate`` is the largest eigenvalue magnitude; it equals 1 except
    in the exponentially unstable case, where it is |P| + sqrt(P^2 - 1).
    """

    kind: StabilityClass
    semitrace: float
    growth_rate: float = 1.0


def classify(mat: TransferMatrix) -> StabilityVerdict:
    """Classify a unit-determinant step matrix by its semitrace.

    In the borderline |P| = 1 case the matrix is compared entrywise
    against +-identity within ``IDENTITY_TOL``.
    """
    a, b, c, d = mat.a, mat.b, mat.c, mat.d
    det, unit = a * d - b * c, 1.0
    if not math.isfinite(det):
        # a*d or b*c overflowed: test the matrix scaled by its largest
        # entry, whose determinant should be 1/top^2 (NaN and infinite
        # entries still end up with a NaN determinant)
        inv = 1.0 / max(abs(a), abs(b), abs(c), abs(d))
        a, b, c, d = a * inv, b * inv, c * inv, d * inv
        det, unit = a * d - b * c, inv * inv
    # relative residual: a*d - b*c cancels catastrophically for large
    # entries, so an absolute test would reject legitimate (symplectic)
    # products deep in the unstable region, while a genuinely wrong
    # matrix is off by O(1) and fails either way; written as "not <=" so
    # that a NaN determinant is rejected too
    scale = max(unit, abs(a * d) + abs(b * c))
    if not abs(det - unit) <= DET_TOL * scale:
        raise NonUnitDeterminant(
            f"determinant {mat.det()!r} differs from 1 beyond {DET_TOL} "
            f"relative to the entry scale"
        )
    p = mat.semitrace()
    ap = abs(p)
    if ap < 1.0:
        return StabilityVerdict(StabilityClass.STABLE, p)
    if ap > 1.0:
        # (ap - 1)(ap + 1) rather than p*p - 1, which overflows from
        # |P| ~ 1e154 on
        growth = ap + math.sqrt(ap - 1.0) * math.sqrt(ap + 1.0)
        return StabilityVerdict(StabilityClass.EXPONENTIALLY_UNSTABLE, p, growth)
    sign = 1.0 if p > 0 else -1.0
    off = (mat.a - sign, mat.d - sign, mat.b, mat.c)
    if all(abs(x) <= IDENTITY_TOL for x in off):
        return StabilityVerdict(StabilityClass.STABLE, p)
    return StabilityVerdict(StabilityClass.LINEARLY_UNSTABLE, p)


# ---------------------------------------------------------------------------
# closed-form edges of the Strang composition


@dataclass(frozen=True)
class StabilityEdges:
    """Stability edges of the m-substep Strang scheme at steplength h.

    ``lower`` (< -1) and ``upper`` (> 0) bound the eps-interval on which
    |P| <= 1; ``witness_floor`` is the eps above which every competing
    m-stage scheme with a different stability polynomial is guaranteed an
    unstable point below ``upper`` (valid for h below the critical
    steplength).
    """

    lower: float
    upper: float
    witness_floor: float


def strang_boundaries(m: int, h: float) -> StabilityEdges:
    """Closed-form stability edges for the m-substep Strang composition.

    Defined for 0 < h < m*pi.  The edges are the eps-values where the
    Chebyshev argument reaches +-1, and the witness floor is where it
    reaches cos(pi/m).
    """
    if m < 1:
        raise OutOfRange(f"substep count must be >= 1, got {m}")
    if not (0.0 < h < m * math.pi):
        raise OutOfRange(f"need 0 < h < m*pi = {m * math.pi:.6g}, got h={h!r}")
    half = 0.5 * h / m
    lower = -(2.0 * m / h) * math.tan(half)
    upper = (2.0 * m / h) / math.tan(half)
    s = math.sin(h / m)
    witness_floor = (2.0 * m / (h * s)) * (math.cos(h / m) - math.cos(math.pi / m))
    return StabilityEdges(lower, upper, witness_floor)


def _critical_equation(m: int, h: float) -> float:
    """Residual of the critical-steplength equation

        (h / 2m) sin(h/m) = cos(pi/m) - cos(h/m),

    equivalently witness_floor(h) = -1."""
    return (h / (2.0 * m)) * math.sin(h / m) - math.cos(math.pi / m) + math.cos(h / m)


@lru_cache(maxsize=None)
def critical_steplength(m: int) -> float:
    """Smallest positive root of the critical-steplength equation.

    Below this steplength the Strang composition's stability interval is
    optimal among m-stage schemes.  For m = 1 the root is pi exactly; in
    general it lies in (0, m*pi) and grows like (12 pi^2 m^2)^(1/4).
    Defined for 1 <= m <= MAX_CRITICAL_STAGES.
    """
    if not 1 <= m <= MAX_CRITICAL_STAGES:
        raise OutOfRange(f"need 1 <= m <= {MAX_CRITICAL_STAGES}, got {m}")
    if m == 1:
        return math.pi
    # with x = h/m the residual is (x/2) sin x + cos x - cos(pi/m); its
    # x-derivative (x cos x - sin x)/2 is negative on (0, pi], so it falls
    # from 1 - cos(pi/m) > 0 at h = 0 to -1 - cos(pi/m) < 0 at h = m*pi and
    # the root in between is unique: bisect until the midpoint no longer
    # lies strictly between the ends
    lo, hi = 0.0, m * math.pi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _critical_equation(m, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


# ---------------------------------------------------------------------------
# the Chebyshev semitrace of the Strang composition


def chebyshev_semitrace(m: int, eps, h: float):
    """Semitrace of the m-substep Strang scheme: T_m(x) with
    x = cos(h/m) - (h*eps / 2m) sin(h/m), via the three-term recurrence.

    Accepts scalar or numpy-array eps.
    """
    if m < 1:
        raise OutOfRange(f"substep count must be >= 1, got {m}")
    x = math.cos(h / m) - (h / (2.0 * m)) * math.sin(h / m) * eps
    if m == 1:
        return x
    t_prev, t_cur = 1.0, x
    if not isinstance(x, float):
        t_prev = x * 0 + 1.0
    for _ in range(m - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur


def chebyshev_polynomial_coeffs(m: int, h: float) -> tuple[float, ...]:
    """Monomial eps-coefficients of the Strang semitrace at fixed h; for
    an array of steplengths each coefficient is an array like ``h``."""
    if m < 1:
        raise OutOfRange(f"substep count must be >= 1, got {m}")
    cos, sin = (np.cos, np.sin) if isinstance(h, np.ndarray) else (math.cos, math.sin)
    c0 = cos(h / m)
    c1 = -(h / (2.0 * m)) * sin(h / m)
    t_prev = [1.0]
    t_cur = [c0, c1]
    for _ in range(m - 1):
        # t_next = 2*(c0 + c1*eps)*t_cur - t_prev
        nxt = [0.0] * (len(t_cur) + 1)
        for i, v in enumerate(t_cur):
            nxt[i] += 2.0 * c0 * v
            nxt[i + 1] += 2.0 * c1 * v
        for i, v in enumerate(t_prev):
            nxt[i] -= v
        t_prev, t_cur = t_cur, nxt
    return tuple(t_cur)


# ---------------------------------------------------------------------------
# consistency and curvature diagnostics

#: Absolute tolerance of the consistency residuals of c0 and c1.
EXPANSION_TOL = 1e-12

#: Slack of the curvature bound, and the distance counted as equality.
CURVATURE_BOUND_TOL = 1e-10
CURVATURE_EQUALITY_TOL = 1e-9


@dataclass(frozen=True)
class ConsistencyExpansionReport:
    """Residuals of the low-order coefficients forced by consistency:
    c0 = cos(h) and c1 = -(h/2) sin(h) for every consistent scheme."""

    h: float
    c0_residual: float
    c1_residual: float
    passed: bool


def check_consistency_expansion(scheme: SplittingScheme, h: float) -> ConsistencyExpansionReport:
    poly = epsilon_polynomial(scheme, h)
    c0 = poly.coeffs[0]
    c1 = poly.coeffs[1] if len(poly.coeffs) > 1 else 0.0
    r0 = abs(c0 - math.cos(h))
    r1 = abs(c1 + 0.5 * h * math.sin(h))
    passed = r0 <= EXPANSION_TOL and r1 <= EXPANSION_TOL
    return ConsistencyExpansionReport(h, r0, r1, passed)


@dataclass(frozen=True)
class SecondDerivativeReport:
    """Curvature of the stability polynomial in eps at (0, n*pi).

    ``value`` is d^2 P / d eps^2 at eps = 0, h = n*pi (= 2 c2).  Stability
    of the scheme in a neighbourhood of (0, n*pi) forces
    (-1)^(n+1) * value = n^2 pi^2 / 4, and for every consistent scheme
    (-1)^(n+1) * value <= n^2 pi^2 / 4.
    """

    n: int
    value: float
    bound: float
    bound_satisfied: bool
    equality: bool


def second_derivative_check(scheme: SplittingScheme, n: int) -> SecondDerivativeReport:
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    poly = epsilon_polynomial(scheme, n * math.pi)
    c2 = poly.coeffs[2] if len(poly.coeffs) > 2 else 0.0
    value = 2.0 * c2
    sign = 1.0 if n % 2 == 1 else -1.0
    bound = (n * math.pi) ** 2 / 4.0
    signed = sign * value
    return SecondDerivativeReport(
        n=n,
        value=value,
        bound=bound,
        bound_satisfied=(signed <= bound + CURVATURE_BOUND_TOL),
        equality=(abs(signed - bound) <= CURVATURE_EQUALITY_TOL),
    )


# ---------------------------------------------------------------------------
# instability witness for competing schemes


def polynomial_distance(p, q):
    """Max coefficient-wise distance, padding the shorter with zeros.

    With stacks of coefficient rows (last axis = power) it is one distance
    per row, the rows broadcast against each other."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    n = max(p.shape[-1], q.shape[-1])
    p, q = (np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, n - x.shape[-1])]) for x in (p, q))
    return np.abs(p - q).max(axis=-1, initial=0.0)


def _real_roots_rows(rows, lo, hi) -> np.ndarray:
    """Real roots in the open interval (lo[i], hi[i]) of each row i of
    monomial coefficients ``rows`` (constant term first), as an array with
    one row per input row: the roots ascending, padded with NaN to the
    largest effective degree among the rows.

    Trailing exact zeros do not count toward a row's degree, and the rows
    of each degree share one eigenvalue solve on a stack of companion
    matrices; rows of degree 0 have no roots.  The roots are the companion
    matrices' eigenvalues that LAPACK returns with a zero imaginary part.
    Rounding may turn two real roots closer than about sqrt(unit
    roundoff) into a complex pair, which is skipped; P varies between two
    such roots by far less than its rounding error.
    """
    rows = np.asarray(rows, dtype=float)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    # the highest power with a non-zero coefficient (0 for a zero row)
    degree = np.where(rows != 0.0, np.arange(rows.shape[1]), 0).max(axis=1)
    out = np.full((len(rows), degree.max(initial=0)), np.nan)
    for n in np.unique(degree[degree > 0]).tolist():
        which = np.flatnonzero(degree == n)
        top = rows[which]
        # numpy.roots' companion layout: the first row holds the
        # coefficients, the subdiagonal (flat index n + i*(n+1)) ones
        companion = np.zeros((len(which), n, n))
        companion.reshape(-1, n * n)[:, n::n + 1] = 1.0
        companion[:, 0] = top[:, n - 1::-1] / -top[:, n, None]
        z = np.linalg.eigvals(companion)
        keep = (z.imag == 0.0) & (lo[which, None] < z.real) & (z.real < hi[which, None])
        out[which, :n] = np.sort(np.where(keep, z.real, np.nan), axis=1, kind="stable")
    return out


def coincides_with_chebyshev(coeffs, cheb):
    """Whether monomial ``coeffs`` equal the Strang (Chebyshev) form's
    coefficients ``cheb`` at the same steplength, coefficient-wise within
    ``COINCIDENCE_TOL``; one answer per row for stacks of rows."""
    return polynomial_distance(coeffs, cheb) <= COINCIDENCE_TOL


def _witness_rows(rows: np.ndarray, hs: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The witness search of ``instability_witness`` on semitrace rows,
    row i at steplength hs[i], all in the domain: per row the witness or
    NaN, and whether the row coincides with the Chebyshev form (its
    witness is then NaN).  Rows may come from different schemes."""
    cheb = np.array(chebyshev_polynomial_coeffs(m, hs)).T
    coincides = coincides_with_chebyshev(rows, cheb)
    # row i of every array below belongs to hs[i]; ``poly`` evaluates row
    # i's polynomial at the points in row i
    poly = partial(_horner, rows.T[:, :, None])
    edges = [strang_boundaries(m, x) for x in hs.tolist()]
    lo = np.array([e.witness_floor for e in edges])
    hi = np.array([e.upper for e in edges])
    critical = _real_roots_rows(rows[:, 1:] * np.arange(1, rows.shape[1]), lo, hi)

    # column 0 is the lower end of each window, column 1 the upper, each
    # with the adjacent knot of lo < critical points < hi; a window with
    # hi <= lo keeps no candidate
    ends = np.column_stack([lo, hi])
    knots = np.column_stack([lo, critical, hi])
    inner = np.column_stack(
        [np.fmin.reduce(knots[:, 1:], axis=1), np.fmax.reduce(knots[:, :-1], axis=1)]
    )
    p_end = poly(ends)
    sign = np.copysign(1.0, p_end)
    q = sign * poly(inner)
    falling = (np.abs(p_end) > 1.0) & (q < np.abs(p_end))
    # sign*P is monotone on a falling piece: if it is still >= 1 at inner,
    # P - sign has no root there and the piece runs to inner
    row, side = np.nonzero(falling & (q < 1.0))
    end, other = ends[row, side], inner[row, side]
    shifted = rows[row]
    shifted[:, 0] -= sign[row, side]
    roots = _real_roots_rows(shifted, np.fmin(end, other), np.fmax(end, other))
    # the root nearest the end; every root lies strictly between the end
    # and inner, so inner, appended last, is taken only when there is none
    near = np.column_stack([roots, other])
    pick = np.nanargmin(np.abs(near - end[:, None]), axis=1)
    crossing = inner.copy()
    crossing[row, side] = near[np.arange(len(row)), pick]

    # every candidate is confirmed by evaluation (the NaN padding never
    # is); the witness is the confirmed one nearest 0, the first on a tie
    midpoints = np.where(falling, 0.5 * (ends + crossing), np.nan)
    grid = np.concatenate([critical, midpoints], axis=1)
    confirmed = (
        (lo[:, None] < grid) & (grid < hi[:, None])
        & (np.abs(poly(grid)) > 1.0) & ~coincides[:, None]
    )
    nearest = np.where(confirmed, np.abs(grid), np.inf).argmin(axis=1)
    witness = grid[np.arange(len(grid)), nearest]
    return np.where(confirmed.any(axis=1), witness, np.nan), coincides


#: (scheme, steplength) rows that one fold and witness search take at a
#: time, so memory stays flat for any number of schemes and steplengths.
_WITNESS_BLOCK_ROWS = 1 << 10


def _witness_search(schemes, hs, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The witness search of ``instability_witness`` for T schemes of one
    flow layout, scheme i at the steplengths in row i of the (T, S) array
    ``hs``: two (T, S) arrays, the witnesses (NaN where there is none) and
    whether the polynomial coincides with the Chebyshev form there (the
    witness is then NaN).

    Raises OutOfRange, before any search, unless every scheme has at most
    m stages and every steplength lies in (0, critical_steplength(m)) and
    not within 1e-6 of j*pi for 0 < j < m.  At most _WITNESS_BLOCK_ROWS
    rows are folded and searched at a time: blocks of whole rows of
    ``hs``, or pieces of one row when a row alone is longer.
    """
    hs = np.asarray(hs, dtype=float)
    over = [s.stages for s in schemes if s.stages > m]
    if over:
        raise OutOfRange(f"scheme has {over[0]} stages, exceeding the stage budget m={m}")
    h_crit = critical_steplength(m)
    bad = hs[~((0.0 < hs) & (hs < h_crit))]
    if bad.size:
        raise OutOfRange(f"need 0 < h < critical steplength {h_crit:.6f}, got {bad[0].item()!r}")
    near_pi = np.abs(hs[..., None] - np.pi * np.arange(1, m)) < 1e-6
    if near_pi.any():
        *at, j = np.argwhere(near_pi)[0].tolist()
        raise OutOfRange(f"h={hs[tuple(at)].item()!r} is within 1e-6 of {j + 1}*pi")
    witness, coincides = np.full(hs.shape, np.nan), np.zeros(hs.shape, bool)
    cols = max(1, min(hs.shape[1], _WITNESS_BLOCK_ROWS))
    per = max(1, _WITNESS_BLOCK_ROWS // cols)
    for i in range(0, len(hs), per):
        for j in range(0, hs.shape[1], cols):
            part = np.s_[i:i + per, j:j + cols]
            rows = _semitrace_rows(schemes[i:i + per], hs[part])
            shape = rows.shape[:2]
            found, same = _witness_rows(rows.reshape(-1, rows.shape[-1]), hs[part].ravel(), m)
            witness[part], coincides[part] = found.reshape(shape), same.reshape(shape)
    return witness, coincides


def instability_witness(
    scheme: SplittingScheme, m: int, h
) -> float | None | tuple[float | None, ...]:
    """An eps* with |P(eps*, h)| > 1 inside the guaranteed interval
    (witness_floor, upper edge) of the m-substep Strang scheme.

    Any m-stage scheme whose stability polynomial at this h differs from
    the Chebyshev form has such a witness whenever h is below the critical
    steplength and not a multiple of pi up to (m-1)*pi.

    The search is exact: P has degree <= m, so the maxima of |P| on the
    open interval are critical points of P or open ends.  The candidates
    are the real roots of P' inside the interval, and each end where
    |P| > 1 and |P| falls going inward; such an end contributes the
    midpoint between it and the nearest root of P -+ 1 on its monotone
    piece, or the piece's other end (the adjacent critical point or the
    other end of the interval) when there is no such root.  A root the
    eigenvalue solver loses is a near-double root, which sits next to
    that critical point.  Every candidate is checked by direct evaluation
    (inside the interval, |P| > 1), so a badly conditioned root can cause
    a miss but never a false witness.
    Returns the admissible candidate nearest eps = 0, or None if there is
    none (which the theory rules out under the stated hypotheses).

    ``h`` is a float or a 1-D array or sequence; that gives a tuple with
    one result per steplength, from the one-scheme case of
    ``_witness_search``, so memory stays flat however many there are.  A
    float is the one-steplength case.

    Raises OutOfRange for a steplength outside the domain and
    PolynomialCoincides when the polynomial at some steplength matches the
    Chebyshev form coefficient-wise within ``COINCIDENCE_TOL``; every
    steplength is checked before any search.
    """
    witness, coincides = _witness_search([scheme], np.array(h, dtype=float, ndmin=1)[None], m)
    if coincides.any():
        raise PolynomialCoincides(
            "stability polynomial equals the Chebyshev form at this h"
        )
    found = [None if math.isnan(w) else w for w in witness[0].tolist()]
    return tuple(found) if np.ndim(h) else found[0]


# ---------------------------------------------------------------------------
# region scans


@dataclass(frozen=True)
class RegionGrid:
    """Stability verdicts on a uniform (eps, h) grid, eps-major (row-major
    with rows indexed by eps and columns by h)."""

    label: str
    eps_nodes: tuple[float, ...]
    h_nodes: tuple[float, ...]
    verdicts: tuple[StabilityVerdict, ...] = field(repr=False)


def grid_nodes(start: float, end: float, n: int) -> tuple[float, ...]:
    """n nodes on [start, end), node i = start + i*(end-start)/n."""
    if n < 1:
        raise OutOfRange(f"need at least one node, got {n}")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise OutOfRange(f"range [{start!r}, {end!r}) must have finite ends")
    if not (end >= start):
        raise OutOfRange(f"inverted range [{start!r}, {end!r})")
    step = (end - start) / n
    return tuple(start + i * step for i in range(n))


def scan_region(
    scheme: SplittingScheme,
    eps_range: tuple[float, float],
    h_range: tuple[float, float],
    grid: tuple[int, int],
) -> RegionGrid:
    """Classify the scheme's step on a uniform inclusive-exclusive grid.

    ``grid`` = (number of eps nodes, number of h nodes).
    """
    eps_nodes = grid_nodes(eps_range[0], eps_range[1], grid[0])
    h_nodes = grid_nodes(h_range[0], h_range[1], grid[1])
    verdicts = tuple(
        classify(transfer_matrix(scheme, eps, hv))
        for eps in eps_nodes
        for hv in h_nodes
    )
    return RegionGrid(scheme.label, eps_nodes, h_nodes, verdicts)
