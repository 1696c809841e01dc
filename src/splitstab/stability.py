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
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .kernel import (
    TransferMatrix,
    _flow_weights,
    _horner,
    _Operator,
    _require_finite,
    _semitrace_rows,
    transfer_matrix,
)
from .schemes import SplittingScheme

#: |det - 1| beyond this is treated as a corrupted input matrix.
DET_TOL = 1e-9

#: Entrywise distance from +-identity within which a |P| = 1 step is stable.
IDENTITY_TOL = 1e-9

#: Below this a stability polynomial counts as the Chebyshev (Strang) form s:
#: sum_k |c_k - s_k| r^k against sum_k |c_k| r^k, P's rounding scale out to
#: r, the nodes' largest |eps|; the left side bounds |P - s| at every node.
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


class StabilityVerdict(NamedTuple):
    """Classification of one step matrix.

    ``growth_rate`` is the largest eigenvalue magnitude; it equals 1 except
    in the exponentially unstable case, where it is |P| + sqrt(P^2 - 1).
    A named tuple, so ``kind, p, growth = classify(mat)`` unpacks it.
    """

    kind: StabilityClass
    semitrace: float
    growth_rate: float = 1.0


_STABLE = StabilityClass.STABLE
_LINEAR = StabilityClass.LINEARLY_UNSTABLE
_EXP = StabilityClass.EXPONENTIALLY_UNSTABLE

#: Builds a verdict from a plain tuple without the Python frame of the
#: named tuple's generated ``__new__``: ``classify`` runs once per cell.
_new = tuple.__new__


def classify(mat: TransferMatrix) -> StabilityVerdict:
    """Classify a unit-determinant step matrix by its semitrace.

    In the borderline |P| = 1 case the matrix is compared entrywise
    against +-identity within ``IDENTITY_TOL``.
    """
    a, b, c, d = mat
    ad, bc = a * d, b * c
    det, unit = ad - bc, 1.0
    if not math.isfinite(det):
        # a*d or b*c overflowed: test the matrix scaled by its largest
        # entry, whose determinant should be 1/top^2 (NaN and infinite
        # entries still end up with a NaN determinant)
        inv = 1.0 / max(abs(a), abs(b), abs(c), abs(d))
        ad, bc = (a * inv) * (d * inv), (b * inv) * (c * inv)
        det, unit = ad - bc, inv * inv
    # relative residual: a*d - b*c cancels catastrophically for large
    # entries, so an absolute test would reject legitimate (symplectic)
    # products deep in the unstable region, while a genuinely wrong
    # matrix is off by O(1) and fails either way; written as "not <=" so
    # that a NaN determinant is rejected too
    scale = abs(ad) + abs(bc)
    if not abs(det - unit) <= DET_TOL * (scale if scale > unit else unit):
        raise NonUnitDeterminant(_determinant_error(mat))
    p = 0.5 * (a + d)
    ap = abs(p)
    if ap < 1.0:
        return _new(StabilityVerdict, (_STABLE, p, 1.0))
    if ap > 1.0:
        # (ap - 1)(ap + 1) rather than p*p - 1, which overflows from
        # |P| ~ 1e154 on
        growth = ap + math.sqrt(ap - 1.0) * math.sqrt(ap + 1.0)
        return _new(StabilityVerdict, (_EXP, p, growth))
    sign = 1.0 if p > 0 else -1.0
    if max(abs(a - sign), abs(d - sign), abs(b), abs(c)) <= IDENTITY_TOL:
        return _new(StabilityVerdict, (_STABLE, p, 1.0))
    return _new(StabilityVerdict, (_LINEAR, p, 1.0))


def _determinant_error(mat: TransferMatrix) -> str:
    """Why ``classify`` rejects ``mat``: its first entry that is not
    finite (from a fold at finite (eps, h), one that overflowed), else
    its determinant."""
    for name, value in zip(mat._fields, mat):
        if not math.isfinite(value):
            return f"step matrix entry {name} = {float(value)!r} is not finite"
    return (f"determinant {float(mat.det())!r} differs from 1 beyond {DET_TOL} "
            f"relative to the entry scale")


# ---------------------------------------------------------------------------
# closed-form edges of the Strang composition


@dataclass(frozen=True)
class StabilityEdges:
    """Stability edges of the m-substep Strang scheme at steplength h.

    ``lower`` (< -1) and ``upper`` (> 0) bound the eps-interval on which
    |P| <= 1; ``witness_floor`` is the eps above which every competing
    m-stage scheme with a different stability polynomial is guaranteed an
    unstable point below ``upper`` (valid for h below the critical
    steplength).  Each field is a float for one steplength, or an array
    shaped like the steplengths for an array of them.
    """

    lower: float | np.ndarray
    upper: float | np.ndarray
    witness_floor: float | np.ndarray


def strang_boundaries(m: int, h) -> StabilityEdges:
    """Closed-form stability edges for the m-substep Strang composition.

    Defined for 0 < h < m*pi.  The edges are the eps-values where the
    Chebyshev argument reaches +-1, and the witness floor is where it
    reaches cos(pi/m).  For an array ``h`` each entry gets the bits of the
    float call: both run the ``math`` functions elementwise.

    Raises OutOfRange, naming the first such steplength, for h outside the
    domain or so small that an edge is not finite: upper ~ 4 m^2 / h^2
    overflows below about h = 1.5e-154 m.
    """
    if m < 1:
        raise OutOfRange(f"substep count must be >= 1, got {m}")
    hs = np.asarray(h, dtype=float)
    bad = hs[~((0.0 < hs) & (hs < m * math.pi))]
    if bad.size:
        raise OutOfRange(f"need 0 < h < m*pi = {m * math.pi:.6g}, got h={bad[0].item()!r}")
    tan, sin, cos = (np.vectorize(f, otypes=[float]) for f in (math.tan, math.sin, math.cos))
    with np.errstate(all="ignore"):
        t = tan(0.5 * hs / m)
        lower = -(2.0 * m / hs) * t
        upper = (2.0 * m / hs) / t
        s = sin(hs / m)
        witness_floor = (2.0 * m / (hs * s)) * (cos(hs / m) - math.cos(math.pi / m))
    edges = (lower, upper, witness_floor)
    bad = hs[~np.logical_and.reduce([np.isfinite(e) for e in edges])]
    if bad.size:
        raise OutOfRange(f"h={bad[0].item()!r} is too small: the {m}-substep Strang "
                         f"edges are not finite there")
    return StabilityEdges(*(e if np.ndim(h) else e.item() for e in edges))


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
    t_prev, t_cur = 1.0, x
    if not isinstance(x, float):
        t_prev = x * 0 + 1.0
    for _ in range(m - 1):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
    return t_cur


def chebyshev_polynomial_coeffs(m: int, h) -> np.ndarray:
    """Monomial eps-coefficients of the Strang semitrace T_m(c0 + c1 eps),
    c0 = cos(h/m), c1 = -(h/2m) sin(h/m), by the recurrence on rows
    T_{k+1} = 2 (c0 + c1 eps) T_k - T_{k-1}: shape ``np.shape(h) + (m + 1,)``, powers last."""
    if m < 1:
        raise OutOfRange(f"substep count must be >= 1, got {m}")
    h = np.asarray(h, dtype=float)[..., None]
    c0, c1_eps = np.cos(h / m), -(h / (2.0 * m)) * np.sin(h / m) * _Operator()
    t_prev = np.zeros(h.shape[:-1] + (m + 1,))
    t_prev[..., 0] = 1.0
    t_cur = c0 * t_prev + c1_eps * t_prev
    for _ in range(m - 1):
        t_prev, t_cur = t_cur, 2.0 * (c0 * t_cur + c1_eps * t_cur) - t_prev
    return t_cur


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


def _expansion_rows(rows, hs):
    """Per semitrace row (last axis = power, trailing zeros kept) at
    steplength ``hs``: the larger residual, the verdict, then the c0 and
    c1 residuals of ``check_consistency_expansion``, read against the
    m = 1 Strang row (cos h, -(h/2) sin h)."""
    r0, r1 = np.moveaxis(np.abs(rows[..., :2] - chebyshev_polynomial_coeffs(1, hs)), -1, 0)
    return np.maximum(r0, r1), (r0 <= EXPANSION_TOL) & (r1 <= EXPANSION_TOL), r0, r1


def check_consistency_expansion(scheme: SplittingScheme, h: float) -> ConsistencyExpansionReport:
    """The one-scheme, one-steplength case of the consistency suite of
    ``analysis.verify_suite``; both run ``_expansion_rows``."""
    _require_finite("h", h)
    hs = [float(h)]
    _, passed, r0, r1 = _expansion_rows(_semitrace_rows(_flow_weights([scheme]), hs), hs)
    return ConsistencyExpansionReport(h, r0.item(), r1.item(), passed.item())


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


def _curvature_rows(rows, n):
    """Per semitrace row at h = n*pi (``n`` an int array like ``rows[..., 0]``):
    the signed value's excess over the bound, then the bound_satisfied,
    value, bound and equality of ``second_derivative_check``."""
    value = 2.0 * (rows[..., 2] if rows.shape[-1] > 2 else np.zeros(n.shape))
    signed = np.where(n % 2 == 1, 1.0, -1.0) * value
    bound = np.reshape([(k * math.pi) ** 2 / 4.0 for k in n.ravel().tolist()], n.shape)
    return (signed - bound, signed <= bound + CURVATURE_BOUND_TOL, value, bound,
            np.abs(signed - bound) <= CURVATURE_EQUALITY_TOL)


def second_derivative_check(scheme: SplittingScheme, n: int) -> SecondDerivativeReport:
    """The one-scheme, one-n case of the second-derivative suite of
    ``analysis.verify_suite``; both run ``_curvature_rows``."""
    if n < 1:
        raise OutOfRange(f"need n >= 1, got {n}")
    rows = _semitrace_rows(_flow_weights([scheme]), [n * math.pi])
    _, satisfied, value, bound, equality = _curvature_rows(rows, np.array([n]))
    return SecondDerivativeReport(n, value.item(), bound.item(), satisfied.item(), equality.item())


# ---------------------------------------------------------------------------
# instability witness for competing schemes


def polynomial_distance(p, q):
    """Max coefficient-wise distance, padding the shorter with zeros.

    With stacks of coefficient rows (last axis = power) it is one distance
    per row, the rows broadcast against each other."""
    return np.abs(np.subtract(*_padded(p, q))).max(axis=-1, initial=0.0)


def _padded(p, q):
    """Coefficient rows ``p`` and ``q`` as floats, padded to one width."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    n = max(p.shape[-1], q.shape[-1])
    return (np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, n - x.shape[-1])]) for x in (p, q))


def _real_roots_rows(rows, lo, hi) -> np.ndarray:
    """Real roots in the open interval (lo[i], hi[i]) of each row i of
    monomial coefficients ``rows`` (constant term first), as an array with
    one row per input row: the roots ascending, padded with NaN to the
    largest effective degree among the rows (the three-stage sweep's
    critical points).

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
    # not np.unique: in numpy 2.x it imports numpy.ma, a cold-start cost
    # of every spotcheck and fig2 process
    for n in sorted(set(degree[degree > 0].tolist())):
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


def coincides_with_chebyshev(coeffs, m, h):
    """Whether monomial ``coeffs`` (powers last) are the m-substep Strang
    form at ``h``, by the witness search's one test (see COINCIDENCE_TOL)
    with r = max(-witness_floor, upper): one answer per row, row i at h[i]
    for an array h.  Raises OutOfRange where ``strang_boundaries`` does."""
    edges = strang_boundaries(m, h)
    return _coincides(coeffs, m, h, np.maximum(-edges.witness_floor, edges.upper))


def _coincides(coeffs, m, h, r):
    """``coincides_with_chebyshev`` with the nodes' largest |eps| ``r`` given."""
    c, s = _padded(coeffs, chebyshev_polynomial_coeffs(m, h))
    return _horner(np.abs(c - s).T, r) <= COINCIDENCE_TOL * _horner(np.abs(c).T, r)


def _witness_rows(rows: np.ndarray, hs: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  m: int) -> tuple[np.ndarray, np.ndarray]:
    """The witness search of ``instability_witness`` on semitrace rows,
    row i at steplength hs[i], all in the domain, with outer nodes lo[i]
    and hi[i]: per row the witness or NaN, and whether the row coincides
    with the Chebyshev form (its witness is then NaN).  Rows may come from
    different schemes."""
    # the nodes eps_j ascending, the ends lo and hi with j = 2..m-1 between
    # them (at m = 1 the one node is both ends, and the window is empty)
    j = np.r_[1, 2:m, m]
    x = hs[:, None] / m
    nodes = 2.0 * m * (np.cos(x) - np.cos(np.pi / m * j)) / (hs[:, None] * np.sin(x))
    nodes[:, 0], nodes[:, -1] = lo, hi
    coincides = _coincides(rows, m, hs, np.maximum(-lo, hi))

    # the first interior node with |P| > 1; failing that, a point stepped
    # in from an end toward its neighbouring node by 2^-k of the gap, at
    # the first k where |P| > 1 there, the lower end first
    inner = nodes[:, 1:-1]
    inner = np.where(np.abs(_horner(rows.T[:, :, None], inner)) > 1.0, inner, np.nan)
    witness = np.where(coincides, np.nan, np.fmin.reduce(inner, axis=1, initial=np.nan))
    ends, toward = nodes[:, [0, -1]], nodes[:, [1, -2]]
    for k in range(1, np.finfo(float).nmant + 1):
        at = np.flatnonzero(np.isnan(witness) & ~coincides)
        if not at.size:
            break
        points = ends[at] + (toward[at] - ends[at]) * 0.5 ** k
        # a step below the end's rounding leaves the open window
        ok = ((lo[at, None] < points) & (points < hi[at, None])
              & (np.abs(_horner(rows[at].T[:, :, None], points)) > 1.0))
        witness[at] = np.where(ok[:, 0], points[:, 0], np.where(ok[:, 1], points[:, 1], np.nan))
    return witness, coincides


#: (scheme, steplength) rows that one fold and witness search take at a
#: time, so memory stays flat for any number of schemes and steplengths.
_WITNESS_BLOCK_ROWS = 1 << 10


def _stacked(check, schemes, hs, *args):
    """The first two results, a float and a bool array, of
    ``check(rows, *args)`` on the semitrace rows of T schemes of any first
    flows and stage counts, scheme i at the steplengths in row i of the
    (T, S) array ``hs``, as (T, S) arrays; each of ``args`` is a (T, S)
    array.  The (scheme, steplength) pairs are folded in row-major order,
    one row each and at most _WITNESS_BLOCK_ROWS at a time, and ``check``
    gets a block's rows with the matching entries of ``args``, flat."""
    weights = _flow_weights(schemes)
    scheme_of = np.repeat(np.arange(len(schemes)), hs.shape[1])
    flat_hs, flat_args = hs.ravel(), [x.ravel() for x in args]
    values, flags = np.empty(hs.size), np.empty(hs.size, bool)
    for i in range(0, hs.size, _WITNESS_BLOCK_ROWS):
        at = slice(i, i + _WITNESS_BLOCK_ROWS)
        rows = _semitrace_rows(weights[scheme_of[at]], flat_hs[at])
        values[at], flags[at] = check(rows, *(x[at] for x in flat_args))[:2]
    return values.reshape(hs.shape), flags.reshape(hs.shape)


def _witness_search(schemes, hs, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The witness search of ``instability_witness`` in the blocks of
    ``_stacked``, scheme i (any first flow and stage count) at the
    steplengths in row i of the (T, S) array ``hs``: two (T, S) arrays,
    the witnesses (NaN where there is none) and whether the polynomial
    coincides with the Chebyshev form there (the witness is then NaN), in
    the windows (witness_floor, upper) of one ``strang_boundaries`` call.

    Raises OutOfRange, before any search, unless every scheme has at most
    m stages and every steplength lies in (0, critical_steplength(m)), not
    within 1e-6 of j*pi for 0 < j < m, and where the Strang edges of
    ``strang_boundaries`` are finite.
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
    edges = strang_boundaries(m, hs)  # raises where an edge is not finite
    return _stacked(partial(_witness_rows, m=m), schemes, hs, hs, edges.witness_floor, edges.upper)


def instability_witness(
    scheme: SplittingScheme, m: int, h
) -> float | None | tuple[float | None, ...]:
    """An eps* with |P(eps*, h)| > 1 inside the guaranteed interval
    (witness_floor, upper edge) of the m-substep Strang scheme.

    Any m-stage scheme whose stability polynomial at this h differs from
    the Chebyshev form has such a witness whenever h is below the critical
    steplength and not a multiple of pi up to (m-1)*pi.

    The search is a certificate at the m Chebyshev nodes eps_j of the
    window, where x(eps_j) = cos(j pi / m) and the Strang form S equals
    (-1)^j; eps_1 = witness_floor and eps_m = upper.  A consistent P
    shares S's value and slope at eps = 0, so D = S - P (degree <= m) has
    a double zero there.  If |P| <= 1 at every node, D weakly alternates
    in sign over the nodes and has a zero, with multiplicity, in each of
    the m - 1 gaps between them.  With the double zero that is m + 1
    zeros when h < pi, where 0 lies below the window, and also when
    pi < h < h_crit, where 0 lies in the gap (eps_i, eps_i+1),
    i = floor(h / pi), which then holds an odd count of at least 3.  So
    D = 0 (Rivlin, Chebyshev Polynomials, ch. 2), and a P that differs
    from S has |P| > 1 at a node; h = j pi would put 0 on a node.

    The witness is the first interior node with |P| > 1, or else, the
    window being open, the point 2^-k of the way from an end to its
    neighbouring node at the first k = 1..52 with |P| > 1 there, the
    lower end first on a tie.  Each is confirmed by evaluating P.  Returns
    None if there is none (which the theory rules out under the stated
    hypotheses).

    ``h`` is a float or a 1-D array or sequence; that gives a tuple with
    one result per steplength, from the one-scheme case of
    ``_witness_search``, so memory stays flat however many there are.  A
    float is the one-steplength case.

    Raises OutOfRange for a steplength outside the domain and
    PolynomialCoincides where ``coincides_with_chebyshev`` holds, every
    steplength checked before any search, and ValueError for an ``h`` of
    more than one dimension.
    """
    if np.ndim(h) > 1:
        raise ValueError(f"h must be a float or a 1-D array, got shape {np.shape(h)}")
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
    """Stability classes on a uniform grid over the scanned (eps, h)
    ranges, eps-major (row-major with rows indexed by eps and columns by h).

    ``semitraces`` and ``codes`` (each cell's class as its index in
    ``StabilityClass``) are read-only, one entry per cell.  ``verdicts``
    holds the per-cell ``classify`` results they are built from, kept
    while perfbench's tracer test counts cells by them (ROADMAP item 1).
    """

    label: str
    eps_range: tuple[float, float]
    h_range: tuple[float, float]
    eps_nodes: tuple[float, ...]
    h_nodes: tuple[float, ...]
    semitraces: np.ndarray = field(compare=False, repr=False)
    codes: np.ndarray = field(compare=False, repr=False)
    verdicts: tuple[StabilityVerdict, ...] = field(repr=False)


def grid_nodes(start: float, end: float, n: int) -> tuple[float, ...]:
    """n nodes on [start, end), node i = start + i*(end-start)/n.

    Raises OutOfRange for an end that is not finite, an inverted range, or
    a span (end-start)/n that overflows."""
    if n < 1:
        raise OutOfRange(f"need at least one node, got {n}")
    span = f"[{float(start)!r}, {float(end)!r})"
    if not (math.isfinite(start) and math.isfinite(end)):
        raise OutOfRange(f"range {span} must have finite ends")
    if not (end >= start):
        raise OutOfRange(f"inverted range {span}")
    step = (end - start) / n
    if not math.isfinite(step):
        raise OutOfRange(f"range {span} spans more than the largest float")
    return tuple(start + i * step for i in range(n))


def scan_region(
    scheme: SplittingScheme,
    eps_range: tuple[float, float],
    h_range: tuple[float, float],
    grid: tuple[int, int],
) -> RegionGrid:
    """Classify the scheme's step on a uniform inclusive-exclusive grid.

    ``grid`` = (number of eps nodes, number of h nodes).  Each cell is
    folded by one ``transfer_matrix`` and judged by one ``classify`` call,
    the calls perfbench's tracer test counts (ROADMAP item 1), and the
    record's arrays are built from those verdicts.  A cell that
    ``classify`` rejects (an entry that overflowed) raises
    NonUnitDeterminant naming its (eps, h).
    """
    eps_nodes = grid_nodes(eps_range[0], eps_range[1], grid[0])
    h_nodes = grid_nodes(h_range[0], h_range[1], grid[1])
    # the module's bindings, read at each call: a wrapper installed over
    # them (a tracer's) is still the function called for every cell
    fold, judge = transfer_matrix, classify
    verdicts = []
    append = verdicts.append
    try:
        for eps in eps_nodes:
            for hv in h_nodes:
                append(judge(fold(scheme, eps, hv)))
    except NonUnitDeterminant as exc:
        raise NonUnitDeterminant(f"at (eps, h) = ({eps!r}, {hv!r}): {exc}") from None
    n = len(verdicts)
    semitraces = np.fromiter(map(itemgetter(1), verdicts), float, n)
    # one object-array comparison per class, no hash of each cell's class
    kinds = np.fromiter(map(itemgetter(0), verdicts), object, n)
    codes = np.zeros(n, dtype=np.intp)
    for code, kind in enumerate(StabilityClass):
        codes[kinds == kind] = code
    semitraces.flags.writeable = codes.flags.writeable = False
    return RegionGrid(scheme.label, tuple(eps_range), tuple(h_range), eps_nodes, h_nodes,
                      semitraces, codes, tuple(verdicts))
