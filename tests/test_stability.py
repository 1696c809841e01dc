import math
import re
from dataclasses import replace
from itertools import product
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitstab import stability, svgplot
from splitstab.analysis import _draw_steplengths
from splitstab.kernel import (
    TransferMatrix,
    _flow_weights,
    _poly_trim,
    epsilon_polynomial,
    transfer_matrix,
)
from splitstab.rng import SplitMix64
from splitstab.schemes import (
    FirstFlow,
    SplittingScheme,
    catalog_scheme,
    random_consistent_scheme,
    random_palindromic_scheme,
    three_stage_necessary_k,
    three_stage_scheme,
)
from splitstab.stability import (
    NonUnitDeterminant,
    OutOfRange,
    PolynomialCoincides,
    StabilityClass,
    StabilityVerdict,
    chebyshev_polynomial_coeffs,
    chebyshev_semitrace,
    check_consistency_expansion,
    classify,
    coincides_with_chebyshev,
    critical_steplength,
    grid_nodes,
    instability_witness,
    polynomial_distance,
    scan_region,
    second_derivative_check,
    strang_boundaries,
)


def test_classify_trichotomy():
    rotation = TransferMatrix(math.cos(1.0), math.sin(1.0), -math.sin(1.0), math.cos(1.0))
    assert classify(rotation).kind is StabilityClass.STABLE

    stretch = classify(TransferMatrix(2.0, 0.0, 0.0, 0.5))
    assert stretch.kind is StabilityClass.EXPONENTIALLY_UNSTABLE
    assert stretch.growth_rate == pytest.approx(2.0, abs=1e-15)
    assert stretch.semitrace == pytest.approx(1.25)

    shear = classify(TransferMatrix(1.0, 1.0, 0.0, 1.0))
    assert shear.kind is StabilityClass.LINEARLY_UNSTABLE
    assert shear.growth_rate == 1.0

    assert classify(TransferMatrix(1.0, 0.0, 0.0, 1.0)).kind is StabilityClass.STABLE
    assert classify(TransferMatrix(-1.0, 0.0, 0.0, -1.0)).kind is StabilityClass.STABLE
    # within tolerance of -identity
    near = TransferMatrix(-1.0 + 1e-12, 5e-13, -5e-13, -1.0 - 2e-13)
    assert classify(near).kind is StabilityClass.STABLE


def test_stability_verdict_is_an_immutable_value_record():
    verdict = classify(TransferMatrix(1.0, 0.0, 0.0, 1.0))
    assert type(verdict) is StabilityVerdict
    assert repr(verdict) == ("StabilityVerdict(kind=<StabilityClass.STABLE: 'stable'>, "
                             "semitrace=1.0, growth_rate=1.0)")
    with pytest.raises(AttributeError):
        verdict.kind = StabilityClass.LINEARLY_UNSTABLE
    # growth_rate defaults to 1; equality and hash are by value
    assert verdict == StabilityVerdict(StabilityClass.STABLE, 1.0)
    assert hash(verdict) == hash(StabilityVerdict(StabilityClass.STABLE, 1.0, 1.0))
    assert verdict != StabilityVerdict(StabilityClass.LINEARLY_UNSTABLE, 1.0)
    kind, p, growth = classify(TransferMatrix(2.0, 0.0, 0.0, 0.5))
    assert (kind, p) == (StabilityClass.EXPONENTIALLY_UNSTABLE, 1.25)
    assert growth == pytest.approx(2.0, abs=1e-15)


def test_classify_strang_at_pi_is_shear():
    # the exact step of the Strang scheme at eps=1, h=pi: |P| = 1 but the
    # matrix is a shear, not -identity
    verdict = classify(TransferMatrix(-1.0, -math.pi, 0.0, -1.0))
    assert verdict.kind is StabilityClass.LINEARLY_UNSTABLE
    assert verdict.semitrace == -1.0
    # the floating-point product lands an ulp past -1; classify must not
    # pretend it is exactly on the boundary
    drifted = classify(transfer_matrix(catalog_scheme("rkr"), 1.0, math.pi))
    assert drifted.kind in (
        StabilityClass.LINEARLY_UNSTABLE,
        StabilityClass.EXPONENTIALLY_UNSTABLE,
    )
    assert drifted.growth_rate == pytest.approx(1.0, abs=1e-6)


def test_classify_rejects_non_unit_determinant():
    with pytest.raises(NonUnitDeterminant):
        classify(TransferMatrix(2.0, 0.0, 0.0, 1.0))
    # numpy entries: the determinant is shown as a plain float
    with pytest.raises(NonUnitDeterminant, match=r"^determinant 4\.0 differs"):
        classify(TransferMatrix(*np.array([2.0, 0.0, 0.0, 2.0])))


def test_classify_rejects_nan_matrix():
    # a NaN determinant fails every comparison, so it must not slip past
    # the determinant guard into a verdict
    with pytest.raises(NonUnitDeterminant):
        classify(TransferMatrix(math.nan, math.nan, math.nan, math.nan))
    with pytest.raises(NonUnitDeterminant):
        classify(TransferMatrix(1.0, math.nan, 0.0, 1.0))


@pytest.mark.parametrize("eps", [1e155, 1e200])
def test_classify_survives_overflowing_products(eps):
    # the entries are ~eps/2, so a*d, b*c and P*P overflow although the
    # matrix is symplectic
    mat = transfer_matrix(catalog_scheme("rkr"), eps, 1.0)
    assert not math.isfinite(mat.det())
    verdict = classify(mat)
    assert verdict.kind is StabilityClass.EXPONENTIALLY_UNSTABLE
    assert math.isfinite(verdict.growth_rate)
    # |P| + sqrt(P^2 - 1) = 2|P| to double precision at this size
    assert verdict.growth_rate == pytest.approx(2.0 * abs(verdict.semitrace), rel=1e-15)


def test_growth_rate_matches_eigenvalues():
    frozen = classify(transfer_matrix(catalog_scheme("krk"), 2.0, 2.0))
    assert frozen.kind is StabilityClass.EXPONENTIALLY_UNSTABLE
    assert frozen.growth_rate == pytest.approx(4.233258745895373, abs=1e-13)

    rng = SplitMix64(20)
    checked = 0
    while checked < 50:
        scheme = random_consistent_scheme(rng, 1 + rng.randint(0, 3))
        eps = rng.uniform(1.0, 6.0)
        h = rng.uniform(0.5, 3.1)
        mat = transfer_matrix(scheme, eps, h)
        verdict = classify(mat)
        if verdict.kind is not StabilityClass.EXPONENTIALLY_UNSTABLE:
            continue
        eig = np.max(np.abs(np.linalg.eigvals(np.array([[mat.a, mat.b], [mat.c, mat.d]]))))
        assert verdict.growth_rate == pytest.approx(float(eig), rel=1e-10)
        checked += 1


def test_strang_boundaries_single_substep_closed_form():
    edges = strang_boundaries(1, math.pi / 2)
    assert edges.lower == pytest.approx(-4.0 / math.pi, abs=1e-15)
    assert edges.upper == pytest.approx(4.0 / math.pi, abs=1e-15)


def test_strang_boundaries_reference_values():
    assert strang_boundaries(3, 3.12).upper == pytest.approx(3.358724, abs=1e-5)
    assert strang_boundaries(2, 3.12).upper == pytest.approx(1.295968, abs=1e-5)
    assert strang_boundaries(2, math.pi).witness_floor == 0.0


def test_strang_boundaries_bracket_the_stable_interval():
    # semitrace is exactly -1 at the lower edge, +1 at the upper edge
    rng = SplitMix64(21)
    for _ in range(100):
        m = 1 + rng.randint(0, 5)
        h = rng.uniform(1e-2, m * math.pi - 1e-2)
        edges = strang_boundaries(m, h)
        assert edges.lower < 0.0 < edges.upper
        at_lower = chebyshev_semitrace(m, edges.lower, h)
        at_upper = chebyshev_semitrace(m, edges.upper, h)
        assert abs(abs(at_lower) - 1.0) < 1e-9
        assert abs(abs(at_upper) - 1.0) < 1e-9


def test_strang_boundaries_domain():
    with pytest.raises(OutOfRange):
        strang_boundaries(0, 1.0)
    with pytest.raises(OutOfRange):
        strang_boundaries(2, 0.0)
    with pytest.raises(OutOfRange):
        strang_boundaries(2, 2 * math.pi)


def test_strang_boundaries_on_arrays_match_the_float_calls():
    assert type(strang_boundaries(3, 1.0).upper) is float
    for m in range(1, 8):
        rng = SplitMix64(40 + m)
        hs = np.array([rng.uniform(1e-3, m * math.pi - 1e-3) for _ in range(200)])
        edges = strang_boundaries(m, hs)
        scalar = [strang_boundaries(m, h) for h in hs.tolist()]
        for name in ("lower", "upper", "witness_floor"):
            assert getattr(edges, name).shape == hs.shape
            assert ([x.hex() for x in getattr(edges, name).tolist()]
                    == [getattr(e, name).hex() for e in scalar])
    # the error names the out-of-range entry, wherever it sits
    for bad in (0.0, -1.0, 2 * math.pi, math.nan, 1e-200):
        with pytest.raises(OutOfRange, match=re.escape(f"h={bad!r}")):
            strang_boundaries(2, np.array([1.0, bad, 2.0]))


@pytest.mark.parametrize("h", [1e-160, 1e-200, 5e-324])
def test_edges_that_are_not_finite_are_out_of_range(monkeypatch, h):
    # upper ~ 16/h^2 overflows below h ~ 3e-154, and h*sin(h/2) underflows
    # to 0 below h ~ 2e-162; neither may give inf, a division by zero or a
    # numpy warning
    shown = re.escape(f"h={h!r} is too small")
    with pytest.raises(OutOfRange, match=shown):
        strang_boundaries(2, h)
    with pytest.raises(OutOfRange, match=shown):
        strang_boundaries(2, np.array([1.0, h]))
    assert math.isfinite(strang_boundaries(2, 1e-150).upper)
    # the witness search raises it before any fold
    competitor = SplittingScheme(FirstFlow.KICK, (0.5, 0.5), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0))

    def no_fold(*args):
        raise AssertionError("folded before the domain check")

    monkeypatch.setattr(stability, "_semitrace_rows", no_fold)
    for hs in (h, np.array([1.0, h])):
        with pytest.raises(OutOfRange, match=shown):
            instability_witness(competitor, 2, hs)


def test_critical_steplength_values():
    assert critical_steplength(1) == math.pi
    assert isinstance(critical_steplength(2), float)
    prev = 0.0
    for m in range(1, 9):
        h = critical_steplength(m)
        assert 0.0 < h <= m * math.pi
        assert h > prev
        residual = (h / (2 * m)) * math.sin(h / m) - math.cos(math.pi / m) + math.cos(h / m)
        assert abs(residual) <= 1e-10
        if m > 1:
            # the witness floor reaches -1 exactly at the critical steplength
            assert strang_boundaries(m, h).witness_floor == pytest.approx(-1.0, abs=1e-9)
        prev = h
    with pytest.raises(OutOfRange):
        critical_steplength(0)


def test_critical_steplength_stops_where_its_residual_cancels():
    # cos(pi/m) - cos(h/m) loses digits as m grows; past the cap the
    # result would no longer be good to 1e-11 relative
    top = stability.MAX_CRITICAL_STAGES
    assert top == 1000
    h = critical_steplength(top)
    assert 0.0 < h < top * math.pi
    with pytest.raises(OutOfRange, match="1000"):
        critical_steplength(top + 1)


def test_chebyshev_semitrace_against_numpy():
    rng = SplitMix64(22)
    for m in range(1, 9):
        for _ in range(30):
            h = rng.uniform(1e-2, m * math.pi - 1e-2)
            eps = rng.uniform(-1.0, 6.0)
            x = math.cos(h / m) - (h / (2 * m)) * math.sin(h / m) * eps
            ref = np.polynomial.chebyshev.chebval(x, [0.0] * m + [1.0])
            got = chebyshev_semitrace(m, eps, h)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_chebyshev_semitrace_single_substep_and_arrays():
    h, eps = 1.7, 2.3
    assert chebyshev_semitrace(1, eps, h) == pytest.approx(
        math.cos(h) - 0.5 * h * eps * math.sin(h), abs=1e-15
    )
    grid = np.linspace(-1, 6, 15)
    vals = chebyshev_semitrace(3, grid, 2.0)
    assert vals.shape == grid.shape
    for e, v in zip(grid, vals):
        assert v == pytest.approx(chebyshev_semitrace(3, float(e), 2.0), abs=1e-14)
    with pytest.raises(OutOfRange):
        chebyshev_semitrace(0, 1.0, 1.0)


def test_chebyshev_coeffs_match_composed_strang():
    rng = SplitMix64(23)
    for m in range(1, 9):
        for _ in range(10):
            h = rng.uniform(1e-2, m * math.pi - 1e-2)
            cheb = chebyshev_polynomial_coeffs(m, h)
            poly = epsilon_polynomial(catalog_scheme("krkm", m), h)
            assert len(cheb) == m + 1
            assert polynomial_distance(cheb, poly.coeffs) <= 1e-12


def _listed_chebyshev_coeffs(m, h):
    """T_{k+1} = 2 (c0 + c1 eps) T_k - T_{k-1} one coefficient at a time
    on lists, math's cos and sin for a float h: each coefficient a float
    or an array like h, constant term first."""
    cos, sin = (np.cos, np.sin) if isinstance(h, np.ndarray) else (math.cos, math.sin)
    c0, c1 = cos(h / m), -(h / (2.0 * m)) * sin(h / m)
    t_prev, t_cur = [1.0], [c0, c1]
    for _ in range(m - 1):
        nxt = [0.0] * (len(t_cur) + 1)
        for i, v in enumerate(t_cur):
            nxt[i] += 2.0 * c0 * v
            nxt[i + 1] += 2.0 * c1 * v
        for i, v in enumerate(t_prev):
            nxt[i] -= v
        t_prev, t_cur = t_cur, nxt
    return t_cur


@pytest.mark.parametrize("m", range(1, 13))
def test_chebyshev_coeffs_rows_match_the_list_recurrence(m):
    # rows with powers last, bit for bit the coefficients of the list form
    rng = np.random.default_rng(m)
    hs = [*rng.uniform(1e-2, m * math.pi, 5).tolist(),
          rng.uniform(1e-2, m * math.pi, 40), rng.uniform(1e-2, m * math.pi, (5, 8))]
    for h in hs:
        rows = chebyshev_polynomial_coeffs(m, h)
        assert rows.shape == np.shape(h) + (m + 1,)
        listed = np.moveaxis(np.array(_listed_chebyshev_coeffs(m, h)), 0, -1)
        assert list(map(float.hex, rows.ravel().tolist())) == list(
            map(float.hex, listed.ravel().tolist()))
    for bad in (0, -1):
        with pytest.raises(OutOfRange):
            chebyshev_polynomial_coeffs(bad, 1.0)


def test_consistency_expansion():
    rng = SplitMix64(24)
    for name in ("rkr", "krk", "lt_rk", "lt_kr"):
        rep = check_consistency_expansion(catalog_scheme(name), 1.3)
        assert rep.passed
        assert rep.c0_residual <= 1e-12 and rep.c1_residual <= 1e-12
    for _ in range(50):
        scheme = random_consistent_scheme(rng, 1 + rng.randint(0, 5))
        assert check_consistency_expansion(scheme, rng.uniform(0.1, 3.0)).passed
    # shape-valid but inconsistent weights must fail the expansion check
    bogus = SplittingScheme(FirstFlow.ROTATION, (0.7, 0.1), (1.3,), label="bogus")
    rep = check_consistency_expansion(bogus, 1.0)
    assert not rep.passed


def _double_sum_oracle(scheme: SplittingScheme, n: int) -> float:
    """Independent curvature oracle: (n pi)^2 * sum over kick pairs of
    k_i k_j sin^2(n pi (theta_i - theta_j)), with theta_i the rotation
    time elapsed before kick i."""
    if scheme.first_flow is FirstFlow.ROTATION:
        thetas = []
        acc = 0.0
        for r in scheme.rotation_coeffs[: len(scheme.kick_coeffs)]:
            acc += r
            thetas.append(acc)
    else:
        thetas = [0.0]
        acc = 0.0
        for r in scheme.rotation_coeffs:
            acc += r
            thetas.append(acc)
    kicks = scheme.kick_coeffs
    total = 0.0
    for i in range(1, len(kicks)):
        for j in range(i):
            total += (
                kicks[i]
                * kicks[j]
                * math.sin(n * math.pi * (thetas[i] - thetas[j])) ** 2
            )
    return (n * math.pi) ** 2 * total


def test_second_derivative_matches_double_sum_oracle():
    rng = SplitMix64(25)
    for _ in range(200):
        stages = 1 + rng.randint(0, 5)
        first = FirstFlow.ROTATION if rng.next_u64() & 1 == 0 else FirstFlow.KICK
        scheme = random_consistent_scheme(rng, stages, first_flow=first)
        n = 1 + rng.randint(0, 2)
        rep = second_derivative_check(scheme, n)
        signed = (1.0 if n % 2 == 1 else -1.0) * rep.value
        oracle = _double_sum_oracle(scheme, n)
        assert abs(signed - oracle) <= 1e-12 * max(1.0, abs(oracle))
        assert rep.bound == pytest.approx((n * math.pi) ** 2 / 4.0)
        assert rep.bound_satisfied


def test_second_derivative_equality_cases():
    # single merged kick at a node of sin(n pi .): curvature vanishes
    for name in ("krk", "rkr"):
        rep = second_derivative_check(catalog_scheme(name), 1)
        assert rep.value == pytest.approx(0.0, abs=1e-12)
        assert not rep.equality

    # two Strang substeps saturate the curvature bound at n = 1
    rep = second_derivative_check(catalog_scheme("krkm", 2), 1)
    assert rep.equality
    assert rep.value == pytest.approx(math.pi**2 / 4.0, abs=1e-9)
    # ... but not at n = 2, where every kick gap is a full period
    rep2 = second_derivative_check(catalog_scheme("krkm", 2), 2)
    assert rep2.value == pytest.approx(0.0, abs=1e-12)
    assert not rep2.equality

    with pytest.raises(OutOfRange):
        second_derivative_check(catalog_scheme("krk"), 0)


def test_polynomial_distance():
    assert polynomial_distance((1.0, 2.0), (1.0, 2.0)) == 0.0
    assert polynomial_distance((1.0, 2.0, 0.5), (1.0, 1.0)) == pytest.approx(1.0)
    assert polynomial_distance((), (0.0, 3.0)) == pytest.approx(3.0)


def test_instability_witness_two_stage_competitor():
    competitor = SplittingScheme(
        FirstFlow.KICK, (0.5, 0.5), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0), label="comp2"
    )
    h = 3.0
    # P = c0 + c1 eps + c2 eps^2 with c0 = cos h, c1 = -(h/2) sin h and
    # c2 = h^2 (1 - cos h) / 18
    c0, c1, c2 = math.cos(h), -0.5 * h * math.sin(h), h * h * (1.0 - math.cos(h)) / 18.0
    poly = epsilon_polynomial(competitor, h)
    assert poly.coeffs == pytest.approx((c0, c1, c2), abs=1e-14)
    # m = 2 has no interior node: the witness is stepped in from an end by
    # 2^-k of the window, at the first k where |P| > 1, the lower end first
    edges = strang_boundaries(2, h)
    lo, hi = edges.witness_floor, edges.upper
    for k in range(1, 5):
        for end, toward in ((lo, hi), (hi, lo)):
            assert abs(poly(end + (toward - end) * 0.5 ** k)) <= 1.0
    witness = instability_witness(competitor, 2, h)
    assert witness == lo + (hi - lo) * 0.5 ** 5
    assert witness == pytest.approx(0.1363244300804834, abs=1e-15)
    assert abs(poly(witness)) > 1.0
    assert poly(witness) == pytest.approx(c0 + c1 * witness + c2 * witness * witness, abs=1e-14)
    assert poly(witness) == pytest.approx(-1.0003582948453351, abs=1e-12)


def test_instability_witness_three_stage_razor_case():
    # nearly-optimal three-stage scheme: just above the witness floor
    # |P| > 1 only in a sliver a few parts in 1e6 wide, but at the interior
    # Chebyshev node eps_2, where the Strang form is +1, P = 1.44
    scheme = three_stage_scheme(0.3, three_stage_necessary_k(0.3))
    h, m = 3.12, 3
    eps_2 = 2.0 * m * (math.cos(h / m) - math.cos(2.0 * math.pi / m)) / (h * math.sin(h / m))
    witness = instability_witness(scheme, m, h)
    assert witness == pytest.approx(eps_2, abs=1e-12)
    assert witness == pytest.approx(2.2438, abs=1e-4)
    assert epsilon_polynomial(scheme, h)(witness) == pytest.approx(1.4397, abs=1e-4)
    assert chebyshev_semitrace(m, witness, h) == pytest.approx(1.0, abs=1e-12)


def test_strang_compositions_coincide_on_a_dense_steplength_grid():
    # the deviation is judged relative to P's rounding scale out to the
    # nodes, sum_k |c_k| r^k, which grows with m and eps: an absolute
    # tolerance turned most rows of the m = 10 Strang composition into
    # false witnesses
    for m in range(1, 13):
        hs = np.linspace(0.0, critical_steplength(m), 2002)[1:-1]
        hs = hs[np.abs(hs[:, None] - np.pi * np.arange(1, m)).min(axis=1, initial=1.0) >= 1e-6]
        schemes = [catalog_scheme("rkrm", m), catalog_scheme("krkm", m)]
        found, coincides = stability._witness_search(schemes, np.tile(hs, (2, 1)), m)
        assert len(hs) >= 1990
        assert coincides.all(), (m, hs[~coincides.all(axis=0)])
        assert np.isnan(found).all()


def _numpy_roots(coeffs, lo, hi):
    """Real roots in (lo, hi) from numpy.roots, which builds the same
    companion matrix from the highest coefficient down."""
    z = np.roots(coeffs[::-1])
    return sorted(float(r.real) for r in z if r.imag == 0.0 and lo < r.real < hi)


def _unpadded(roots):
    """The roots of one row of ``_real_roots_rows``, without the padding."""
    return roots[~np.isnan(roots)].tolist()


def test_stacked_real_roots_of_mixed_degree_match_row_by_row():
    rows = [
        (-6.0, 11.0, -6.0, 1.0),  # (x - 1)(x - 2)(x - 3)
        (2.0, -3.0, 1.0, 0.0),  # (x - 1)(x - 2), a trailing exact zero
        (1.5, 0.5, 0.0, 0.0),  # x = -3, two trailing zeros
        (0.5, 0.0, 0.0, 0.0),  # constant: no roots
        (0.0, 0.0, 0.0, 0.0),  # all zero: no roots
        (-1.0, 0.0, 1.0, 0.0),  # x = -1, 1
        (1.0, 0.0, 1.0, 0.0),  # x^2 + 1: no real roots
        (-6.0, 11.0, -6.0, 1.0),  # the cubic again, on a narrower window
        (2.0, -3.0, 1.0, -0.0),  # a trailing negative zero is trimmed too
    ]
    lo = [-5.0, -5.0, -5.0, -5.0, -5.0, -5.0, -5.0, 1.5, 0.0]
    hi = [5.0, 5.0, 5.0, 5.0, 5.0, 0.0, 5.0, 2.5, 1.5]
    padded = stability._real_roots_rows(rows, lo, hi)
    assert padded.shape == (len(rows), 3)
    got = [_unpadded(roots) for roots in padded]
    # the roots come first, the NaN padding after them
    assert all(np.isnan(roots[len(r):]).all() for roots, r in zip(padded, got))
    assert got == [
        _unpadded(stability._real_roots_rows([r], [a], [b])[0]) for r, a, b in zip(rows, lo, hi)
    ]
    assert got[3] == got[4] == got[6] == []
    assert got[5] == pytest.approx([-1.0], abs=1e-14)
    assert got[7] == pytest.approx([2.0], abs=1e-12)
    assert got[8] == pytest.approx([1.0], abs=1e-14)
    for (r, a, b), roots in zip(zip(rows, lo, hi), got):
        if r[0] != 0.0 and any(r[1:]):
            assert roots == _numpy_roots(_poly_trim(r), a, b)
    assert got[0] == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)
    assert got[1] == pytest.approx([1.0, 2.0], abs=1e-14)
    assert got[2] == [-3.0]


def test_stacked_real_roots_outside_every_window_are_dropped():
    rows = np.array([(-6.0, 11.0, -6.0, 1.0), (2.0, -3.0, 1.0, 0.0)])
    none = stability._real_roots_rows(rows, [3.5, -1.0], [9.0, 0.999])
    assert none.shape == (2, 3) and np.isnan(none).all()
    one = stability._real_roots_rows(rows, [3.5, 0.5], [9.0, 1.5])
    assert one.shape == (2, 3) and np.isnan(one[0]).all() and np.isnan(one[1, 1:]).all()
    assert one[1, 0] == pytest.approx(1.0)


def test_real_roots_rows_pad_to_the_largest_degree():
    # the width is the largest degree among the rows, trailing zeros not
    # counted; constant and all-zero rows are all padding
    rows = np.array([(2.0, -3.0, 1.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0, 0.0), (0.0,) * 5])
    roots = stability._real_roots_rows(rows, [-5.0] * 3, [5.0] * 3)
    assert roots.shape == (3, 2)
    assert roots[0] == pytest.approx([1.0, 2.0], abs=1e-14)
    assert np.isnan(roots[1:]).all()
    # constant rows alone have width 0, and no rows give no roots
    assert stability._real_roots_rows(rows[1:], [-5.0] * 2, [5.0] * 2).shape == (2, 0)
    assert stability._real_roots_rows(np.empty((0, 4)), [], []).shape == (0, 0)


def test_witness_rows_of_no_rows_are_empty():
    found, coincides = stability._witness_rows(np.empty((0, 3)), *[np.empty(0)] * 3, 2)
    assert found.shape == coincides.shape == (0,)
    competitor = SplittingScheme(FirstFlow.KICK, (0.5, 0.5), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0))
    found, coincides = stability._witness_search([competitor], np.empty((1, 0)), 2)
    assert found.shape == coincides.shape == (1, 0)


@pytest.mark.parametrize("budget", [1024, 3, 1])
def test_witness_search_computes_each_window_once(monkeypatch, budget):
    # one strang_boundaries call per search, whatever the number of
    # blocks; the row search takes its windows as given
    rng = SplitMix64(budget)
    # 3 rotation- and 3 kick-first schemes x 4 steplengths, one row per
    # pair: 1, 8 or 24 blocks
    schemes = [random_palindromic_scheme(rng, 3, first_flow=flow)
               for flow in (FirstFlow.ROTATION, FirstFlow.KICK) * 3]
    hs = np.array([_draw_steplengths(rng, 4, critical_steplength(3)) for _ in schemes])
    want = stability._witness_search(schemes, hs, 3)
    boundaries, witness_rows = stability.strang_boundaries, stability._witness_rows
    calls, blocks = [], []

    def counted_boundaries(m, h):
        calls.append(np.shape(h))
        return boundaries(m, h)

    def counted_rows(rows, hs, lo, hi, m):
        before = len(calls)
        result = witness_rows(rows, hs, lo, hi, m)
        blocks.append(len(calls) - before)
        return result

    monkeypatch.setattr(stability, "strang_boundaries", counted_boundaries)
    monkeypatch.setattr(stability, "_witness_rows", counted_rows)
    monkeypatch.setattr(stability, "_WITNESS_BLOCK_ROWS", budget)
    got = stability._witness_search(schemes, hs, 3)
    assert calls == [hs.shape]
    assert blocks == [0] * {1024: 1, 3: 8, 1: 24}[budget]
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_array_witness_matches_the_scalar_search_entry_by_entry(m):
    rng = SplitMix64(90 + m)
    h_cap = critical_steplength(m)
    compared = 0
    for trial in range(300):
        first = (FirstFlow.ROTATION, FirstFlow.KICK)[trial % 2]
        scheme = random_palindromic_scheme(rng, m, first_flow=first)
        hs = _draw_steplengths(rng, 5, h_cap)
        try:
            stacked = instability_witness(scheme, m, np.array(hs))
        except PolynomialCoincides:
            with pytest.raises(PolynomialCoincides):
                [instability_witness(scheme, m, h) for h in hs]
            continue
        assert isinstance(stacked, tuple) and len(stacked) == len(hs)
        assert stacked == tuple(instability_witness(scheme, m, h) for h in hs)
        compared += 1
    assert compared >= 295


@pytest.mark.parametrize("m", [2, 3, 4])
def test_witness_rows_across_schemes_match_the_scalar_search(m):
    # 300 seeded trials of 5 steplengths, both first flows, every 20th a
    # Strang composition (coinciding at every h): the trials of each first
    # flow go through one witness search, and every entry's witness
    # equals the scalar search's bit for bit
    rng = SplitMix64(190 + m)
    h_cap = critical_steplength(m)
    drawn = []
    for trial in range(300):
        first = (FirstFlow.ROTATION, FirstFlow.KICK)[rng.randint(0, 1)]
        scheme = random_palindromic_scheme(rng, m, first_flow=first)
        if trial % 20 == 0:
            scheme = catalog_scheme("rkrm" if first is FirstFlow.ROTATION else "krkm", m)
        drawn.append((scheme, _draw_steplengths(rng, 5, h_cap)))
    coinciding = 0
    for first in (FirstFlow.ROTATION, FirstFlow.KICK):
        group = [(scheme, hs) for scheme, hs in drawn if scheme.first_flow is first]
        hs = np.array([hs for _, hs in group])
        found, coincides = stability._witness_search([scheme for scheme, _ in group], hs, m)
        assert found.shape == coincides.shape == (len(group), 5) and len(group) > 100
        for (scheme, row), witnesses, same in zip(group, found.tolist(), coincides.tolist()):
            for h, witness, c in zip(row, witnesses, same):
                if c:
                    coinciding += 1
                    assert math.isnan(witness)
                    with pytest.raises(PolynomialCoincides):
                        instability_witness(scheme, m, h)
                else:
                    assert not math.isnan(witness)
                    assert float.hex(witness) == float.hex(instability_witness(scheme, m, h))
    assert coinciding == 15 * 5


def test_array_witness_beyond_the_row_budget_matches_the_scalar_search():
    # 2500 steplengths take three fold chunks of at most _WITNESS_BLOCK_ROWS
    rng = SplitMix64(77)
    hs = np.array(_draw_steplengths(rng, 2500, critical_steplength(3)))
    assert len(hs) > 2 * stability._WITNESS_BLOCK_ROWS
    scheme = random_palindromic_scheme(rng, 3, first_flow=FirstFlow.KICK)
    stacked = instability_witness(scheme, 3, hs)
    assert None not in stacked
    scalar = [instability_witness(scheme, 3, h) for h in hs.tolist()]
    assert list(map(float.hex, stacked)) == list(map(float.hex, scalar))


def test_array_witness_with_one_coinciding_steplength_raises(monkeypatch):
    competitor = SplittingScheme(FirstFlow.KICK, (0.5, 0.5), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0))
    hs = np.array([1.7, 2.5, 3.0])
    assert None not in instability_witness(competitor, 2, hs)
    # the Strang composition coincides at every h
    with pytest.raises(PolynomialCoincides):
        instability_witness(catalog_scheme("krkm", 2), 2, hs)
    # the competitor's polynomial replaced by the Chebyshev form at h = 2.5 only
    semitrace_rows = stability._semitrace_rows

    def chebyshev_at_2_5(schemes, h):
        rows = semitrace_rows(schemes, h)
        cheb = chebyshev_polynomial_coeffs(2, 2.5)
        rows[h == 2.5] = (*cheb, 0.0)[: rows.shape[-1]]
        return rows

    monkeypatch.setattr(stability, "_semitrace_rows", chebyshev_at_2_5)
    assert instability_witness(competitor, 2, 1.7) is not None
    with pytest.raises(PolynomialCoincides):
        instability_witness(competitor, 2, 2.5)
    with pytest.raises(PolynomialCoincides):
        instability_witness(competitor, 2, hs)


def test_array_witness_domain_checks_cover_every_steplength():
    competitor = SplittingScheme(FirstFlow.KICK, (0.5, 0.5), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0))
    h_crit = critical_steplength(2)
    for bad in (math.pi + 5e-7, math.pi - 5e-7, h_crit, h_crit + 0.1, 0.0, -1.0, math.nan):
        # the message names the offending h as a plain float
        with pytest.raises(OutOfRange, match=re.escape(f"{bad!r}")):
            instability_witness(competitor, 2, np.array([1.7, bad, 3.0]))
    # every steplength is checked before any search: the Strang composition
    # coincides at 1.0, yet the out-of-range 5.0 is what is reported
    with pytest.raises(OutOfRange):
        instability_witness(catalog_scheme("krkm", 2), 2, np.array([1.0, 5.0]))
    assert instability_witness(competitor, 2, np.array([])) == ()


def test_instability_witness_rejects_steplengths_of_more_than_one_dimension():
    competitor = SplittingScheme(FirstFlow.KICK, (0.5, 0.5), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0))
    for h in ([[1.0, 2.0]], [[1.0], [2.0]]):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(h)}")):
            instability_witness(competitor, 2, h)
    assert isinstance(instability_witness(competitor, 2, 1.7), float)
    assert len(instability_witness(competitor, 2, np.array([1.7, 2.5]))) == 2


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 6), st.sampled_from([FirstFlow.ROTATION, FirstFlow.KICK])),
                min_size=1, max_size=6),
       st.integers(1, 4), st.integers(0, 2**32))
def test_stacked_rows_of_any_mix_of_schemes_equal_one_scheme_at_a_time(layouts, samples, seed):
    # 1-6-stage rotation- and kick-first schemes in any mix: the stacked
    # expansion check and witness search give the bytes of one scheme at a
    # time, at every row budget
    rng = SplitMix64(seed)
    schemes = [random_consistent_scheme(rng, m, first_flow=first) for m, first in layouts]
    hs = np.array([_draw_steplengths(rng, samples, critical_steplength(6)) for _ in schemes])
    searches = (
        lambda batch, h: stability._stacked(stability._expansion_rows, batch, h, h),
        lambda batch, h: stability._witness_search(batch, h, 6),
    )
    for search in searches:
        each = [search([scheme], hs[i:i + 1]) for i, scheme in enumerate(schemes)]
        want = [np.concatenate(results).tobytes() for results in zip(*each)]
        for budget in (1, 3, 1024):
            with patch.object(stability, "_WITNESS_BLOCK_ROWS", budget):
                assert [x.tobytes() for x in search(schemes, hs)] == want


def test_instability_witness_coincidence():
    with pytest.raises(PolynomialCoincides):
        instability_witness(catalog_scheme("krkm", 2), 2, 3.0)
    # the reversed-order composition shares the Chebyshev polynomial
    with pytest.raises(PolynomialCoincides):
        instability_witness(catalog_scheme("rkrm", 2), 2, 3.0)
    with pytest.raises(PolynomialCoincides):
        instability_witness(catalog_scheme("krkm", 3), 3, 2.5)
    # both Strang orders read as the Chebyshev form at every h, and not
    # once one kick weight moves, small h included
    hs = np.array([0.001, 0.01, 0.05, 0.4, 1.3, 2.2, 2.9])
    for m, name in product(range(1, 5), ("krkm", "rkrm")):
        scheme = catalog_scheme(name, m)
        rows = stability._semitrace_rows(np.repeat(_flow_weights([scheme]), len(hs), axis=0), hs)
        assert coincides_with_chebyshev(rows, m, hs).all()
        assert all(coincides_with_chebyshev(row, m, h) for row, h in zip(rows, hs.tolist()))
        kicks = (scheme.kick_coeffs[0] + 1e-6, *scheme.kick_coeffs[1:])
        weights = _flow_weights([replace(scheme, kick_coeffs=kicks)])
        rows = stability._semitrace_rows(np.repeat(weights, len(hs), axis=0), hs)
        assert not coincides_with_chebyshev(rows, m, hs).any()
    # a consistent move of krk2's kicks by (+d, -2d, +d): at h = 0.05 and
    # d = 1e-5, |P| - 1 = 1.3e-9 at the witness, and fig2's question and
    # the witness search both say it is not the Strang form
    scheme = SplittingScheme(FirstFlow.KICK, (0.5, 0.5), (0.25 + 1e-5, 0.5 - 2e-5, 0.25 + 1e-5))
    rows = stability._semitrace_rows(_flow_weights([scheme]), [0.05])
    _, flag = stability._witness_search([scheme], np.array([[0.05]]), 2)
    assert not coincides_with_chebyshev(rows, 2, 0.05)[0]
    assert not flag[0, 0]
    witness = instability_witness(scheme, 2, 0.05)
    assert witness == pytest.approx(3199.43, abs=0.01)
    assert abs(epsilon_polynomial(scheme, 0.05)(witness)) - 1.0 == pytest.approx(1.34e-9, rel=1e-2)


def _nudged(scheme, d):
    """``scheme`` with its first three kicks moved by (+d, -2d, +d), or its
    first three rotations where it has two kicks: still consistent."""
    if len(scheme.kick_coeffs) >= 3:
        k = scheme.kick_coeffs
        return replace(scheme, kick_coeffs=(k[0] + d, k[1] - 2 * d, k[2] + d, *k[3:]))
    r = scheme.rotation_coeffs
    return replace(scheme, rotation_coeffs=(r[0] + d, r[1] - 2 * d, r[2] + d, *r[3:]))


def test_one_coincidence_rule_on_near_strang_rows():
    # both Strang orders at m = 2..8, nudged by d = 1e-14..10^-3.5, at
    # h = 0.05 and seeded steplengths: fig2's question and the witness
    # search's flag agree on every row, and a row judged coinciding has
    # |P| - 1 <= COINCIDENCE_TOL * S at every node, S = max_j sum_k
    # |c_k| |eps_j|^k being P's rounding scale there.  A coefficient test
    # weighted by max(1, h^-2)^k called krk3 with d = 1e-5 at h = 0.05
    # coinciding, where |P| - 1 reaches 1.2e-10 S.
    rng = SplitMix64(26)
    ds = 10.0 ** np.arange(-14.0, -3.0, 0.5)
    counts = np.zeros(2, int)
    for name, m in product(("rkrm", "krkm"), (2, 3, 4, 5, 6, 8)):
        hs = np.array([0.05, *_draw_steplengths(rng, 5, critical_steplength(m))])
        schemes = [_nudged(catalog_scheme(name, m), d) for d in ds]
        flat = np.tile(hs, len(ds))
        rows = stability._semitrace_rows(np.repeat(_flow_weights(schemes), len(hs), axis=0), flat)
        _, flag = stability._witness_search(schemes, flat.reshape(len(ds), -1), m)
        same = coincides_with_chebyshev(rows, m, flat)
        assert (same == flag.ravel()).all(), (name, m)
        x, j = flat[:, None] / m, np.arange(1, m + 1)
        nodes = 2.0 * m * (np.cos(x) - np.cos(np.pi / m * j)) / (flat[:, None] * np.sin(x))
        excess = (np.abs(stability._horner(rows.T[:, :, None], nodes)) - 1.0).max(axis=1)
        scale = stability._horner(np.abs(rows).T[:, :, None], np.abs(nodes)).max(axis=1)
        assert (excess[same] <= stability.COINCIDENCE_TOL * scale[same]).all(), (name, m)
        counts += same.sum(), (~same).sum()
    assert counts.min() > 300, counts


def test_strang_forms_coincide_up_to_rounding():
    # item 17's Q = 0 for both Strang orders at m = 1..8: at 4000 seeded
    # steplengths each in (0.05, h_crit(m)), 1e-3 clear of j*pi, the
    # coincidence ratio sum_k |c_k - s_k| r^k / sum_k |c_k| r^k is at
    # rounding level (at most 2.8e-15 over these 63,973 rows), over four
    # decades below COINCIDENCE_TOL
    rng = np.random.default_rng(17)
    for name, m in product(("rkrm", "krkm"), range(1, 9)):
        hs = rng.uniform(0.05, critical_steplength(m), 4000)
        hs = hs[np.abs(hs - np.pi * np.round(hs / np.pi)) > 1e-3]
        rows = stability._semitrace_rows(
            np.repeat(_flow_weights([catalog_scheme(name, m)]), len(hs), axis=0), hs)
        edges = strang_boundaries(m, hs)
        r = np.maximum(-edges.witness_floor, edges.upper)
        c, s = stability._padded(rows, chebyshev_polynomial_coeffs(m, hs))
        ratio = stability._horner(np.abs(c - s).T, r) / stability._horner(np.abs(c).T, r)
        assert ratio.max() <= 1e-13, (name, m, ratio.max())


def _two_stage(first, w, h):
    """The m = 2 palindromic family: rotations (w, 1 - 2w, w) and kicks
    (1/2, 1/2) rotation-first, or the roles swapped kick-first; the
    closed-form Strang deviation's factor at h, so that P - P_Strang =
    -(eps^2 h^2 / 8) factor; and the floor node's |P| - 1."""
    if first is FirstFlow.ROTATION:
        scheme = SplittingScheme(first, (w, 1.0 - 2.0 * w, w), (0.5, 0.5))
        factor = np.sin((4.0 * w - 1.0) * h / 2.0) ** 2
        return scheme, factor, 2.0 * factor / np.tan(h / 2.0) ** 2
    scheme = SplittingScheme(first, (0.5, 0.5), (w, 1.0 - 2.0 * w, w))
    factor = (4.0 * w - 1.0) ** 2 * np.sin(h / 2.0) ** 2
    return scheme, factor, 2.0 * np.cos(h / 2.0) ** 2 * (4.0 * w - 1.0) ** 2


@pytest.mark.parametrize("first", [FirstFlow.ROTATION, FirstFlow.KICK])
def test_two_stage_strang_deviation_in_closed_form(first):
    # 2000 seeded draws, h in (0.1, 3) and w in (-0.5, 1): the fold's
    # deviation from the Strang row is -(h^2 / 8) factor in eps^2 alone
    # (kick-first rows are cubic with an exactly zero eps^3 coefficient),
    # and at the floor node, where the Strang form is -1, |P| - 1 is the
    # closed-form margin to P's rounding
    rng = SplitMix64(2 if first is FirstFlow.ROTATION else 3)
    h = np.array([rng.uniform(0.1, 3.0) for _ in range(2000)])
    w = np.array([rng.uniform(-0.5, 1.0) for _ in range(2000)])
    schemes, factor, margin = zip(*map(_two_stage, [first] * len(h), w.tolist(), h.tolist()))
    rows = stability._semitrace_rows(_flow_weights(schemes), h)
    assert rows.shape == (len(h), 3 if first is FirstFlow.ROTATION else 4)
    deviation = rows[:, :3] - chebyshev_polynomial_coeffs(2, h)
    assert np.abs(deviation[:, :2]).max() <= 1e-14
    assert np.abs(deviation[:, 2] + h * h / 8.0 * np.array(factor)).max() <= 1e-14
    assert (rows[:, 3:] == 0.0).all()
    floor = strang_boundaries(2, h).witness_floor
    excess = np.abs(stability._horner(rows.T, floor)) - 1.0
    scale = stability._horner(np.abs(rows).T, np.abs(floor))
    assert (np.abs(excess - np.array(margin)) <= 16 * np.finfo(float).eps * scale).all()


def test_two_stage_aliased_zeros_coincide():
    # the rotation-first factor sin^2((4 w - 1) h / 2) vanishes at
    # w = 1/4 + k pi / (2h) too, where the scheme is the Strang form
    for h, k in product((0.7, 2.0, 4.0), (1, 2)):
        scheme, factor, _ = _two_stage(FirstFlow.ROTATION, 0.25 + k * math.pi / (2.0 * h), h)
        assert factor < 1e-30
        rows = stability._semitrace_rows(_flow_weights([scheme]), [h])
        assert coincides_with_chebyshev(rows, 2, h)[0]
        assert stability._witness_search([scheme], np.array([[h]]), 2)[1].all()
        with pytest.raises(PolynomialCoincides):
            instability_witness(scheme, 2, h)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_node_margin_is_the_deviation_polynomial_at_the_nodes(m):
    # seeded consistent schemes, both first flows: random ones,
    # palindromic or not, and Strang compositions nudged by up to 0.05,
    # whose deviations are small.  P has degree <= m and agrees with the
    # Strang form T_m(x(eps)) in value and slope at eps = 0, so
    # P - T_m(x) = eps^2 Q(eps), Q from rows -
    # chebyshev_polynomial_coeffs(m, h).  At node eps_j, T_m = (-1)^j and
    # P = (-1)^j (1 + delta_j), delta_j = (-1)^j eps_j^2 Q(eps_j), so
    # |P(eps_j)| - 1 = |1 + delta_j| - 1 at every node.  The node margin
    # max_j delta_j is then max_j |P(eps_j)| - 1 wherever it is positive
    # and no node has delta_j < -2 (an overshoot past the other sign,
    # where |P| - 1 = -delta_j - 2 > 0 though delta_j < 0).  A nonzero Q of
    # degree <= m - 2 cannot weakly alternate in sign on m nodes, so the
    # margin is positive on every draw that does not coincide.
    rng = SplitMix64(17 + m)
    schemes, hs = [], []
    for i in range(400):
        first = (FirstFlow.ROTATION, FirstFlow.KICK)[i % 2]
        if i % 3 == 0:
            scheme = random_palindromic_scheme(rng, m, first_flow=first)
        elif i % 3 == 1:
            scheme = random_consistent_scheme(rng, m, first_flow=first)
        else:
            scheme = _nudged(catalog_scheme(("rkrm", "krkm")[i % 2], m), rng.uniform(-0.05, 0.05))
        schemes.append(scheme)
        hs.extend(_draw_steplengths(rng, 1, critical_steplength(m)))
    h = np.array(hs)
    rows = stability._semitrace_rows(_flow_weights(schemes), h)
    coeffs, strang = stability._padded(rows, chebyshev_polynomial_coeffs(m, h))
    x, j = h[:, None] / m, np.arange(1, m + 1)
    nodes = 2.0 * m * (np.cos(x) - np.cos(np.pi / m * j)) / (h[:, None] * np.sin(x))
    delta = (-1.0) ** j * nodes**2 * stability._horner((coeffs - strang)[:, 2:].T[:, :, None], nodes)
    excess = np.abs(stability._horner(coeffs.T[:, :, None], nodes)) - 1.0
    tol = 32 * np.finfo(float).eps * stability._horner(np.abs(coeffs).T[:, :, None], np.abs(nodes))
    assert (np.abs(excess - (np.abs(1.0 + delta) - 1.0)) <= tol).all()
    margin = delta.max(axis=1)
    same = coincides_with_chebyshev(rows, m, h)
    assert not same.any() and (margin > 0).all()
    plain = (delta >= -2.0).all(axis=1)
    assert plain.sum() >= 130, plain.sum()
    assert (np.abs(margin - excess.max(axis=1)) <= tol.max(axis=1))[plain].all()


def test_instability_witness_domain_checks():
    competitor = SplittingScheme(
        FirstFlow.KICK, (0.5, 0.5), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0), label="comp2"
    )
    with pytest.raises(OutOfRange):
        instability_witness(competitor, 2, 5.0)  # above the critical steplength
    with pytest.raises(OutOfRange):
        instability_witness(competitor, 2, math.pi + 1e-8)  # too close to pi
    three = three_stage_scheme(0.3, three_stage_necessary_k(0.3))
    with pytest.raises(OutOfRange):
        instability_witness(three, 2, 3.0)  # stage budget exceeded


def test_grid_nodes_half_open():
    nodes = grid_nodes(-1.0, 6.0, 7)
    assert len(nodes) == 7
    assert nodes[0] == -1.0
    assert nodes[1] - nodes[0] == pytest.approx(1.0, abs=1e-15)
    assert nodes[-1] == pytest.approx(5.0)
    assert grid_nodes(2.0, 3.0, 1) == (2.0,)
    with pytest.raises(OutOfRange):
        grid_nodes(0.0, 1.0, 0)
    with pytest.raises(OutOfRange):
        grid_nodes(1.0, 0.0, 3)


@pytest.mark.parametrize("start, end", [(0.0, math.inf), (-math.inf, 1.0),
                                        (math.nan, 1.0), (0.0, math.nan)])
def test_grid_nodes_rejects_non_finite_ends(start, end):
    with pytest.raises(OutOfRange, match="must have finite ends"):
        grid_nodes(start, end, 3)


def test_grid_nodes_shows_numpy_ends_as_floats():
    with pytest.raises(OutOfRange, match=r"^inverted range \[2\.0, 1\.0\)$"):
        grid_nodes(np.float64(2.0), np.float64(1.0), 3)
    with pytest.raises(OutOfRange, match=r"^range \[inf, 1\.0\) must have finite ends$"):
        grid_nodes(np.float64(math.inf), 1.0, 3)


def test_grid_nodes_rejects_a_span_that_overflows():
    # (end - start) / n would be inf and node 0 would be start + 0*inf = nan
    with pytest.raises(OutOfRange, match=re.escape("[-1e+308, 1e+308) spans more than")):
        grid_nodes(-1e308, 1e308, 3)
    assert grid_nodes(-8e307, 8e307, 2) == (-8e307, 0.0)


def _numpy_step(scheme, eps, h):
    """Independent oracle: the stage flows multiplied with numpy, the
    first stage rightmost, as in tests/test_kernel.py."""
    drift = scheme.first_flow in (FirstFlow.DRIFT, FirstFlow.KICK_DK)
    out = np.eye(2)
    for kind, w in scheme.flow_sequence():
        t = w * h
        if kind == "kick":
            f = [[1.0, 0.0], [-t * (1.0 + eps if drift else eps), 1.0]]
        elif drift:
            f = [[1.0, t], [0.0, 1.0]]
        else:
            f = [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
        out = np.array(f) @ out
    return out


@pytest.mark.parametrize("name, m, eps_range, h_range, grid", [
    ("rkr", None, (-0.5, 1.0), (0.5, 3.0), (6, 5)),
    # kick-first, with exponentially unstable cells
    ("krkm", 3, (-1.0, 6.0), (0.5, 9.0), (7, 6)),
    # drift/kick; eps = -1 and the nodes with h^2 (1 + eps) = 4 are exact
    # shears and h = 0 the exact identity, so every class occurs
    ("verlet_vel", None, (-1.0, 6.0), (0.0, 4.0), (7, 8)),
], ids=["rkr", "krkm3", "verlet_vel"])
def test_scan_region_shape_and_order(name, m, eps_range, h_range, grid):
    scheme = catalog_scheme(name, m) if m else catalog_scheme(name)
    region = scan_region(scheme, eps_range, h_range, grid)
    n_eps, n_h = grid
    assert len(region.eps_nodes) == n_eps
    assert len(region.h_nodes) == n_h
    assert len(region.verdicts) == n_eps * n_h
    cells = list(product(region.eps_nodes, region.h_nodes))
    assert cells[0] == (eps_range[0], h_range[0])
    # eps-major: h varies fastest
    assert cells[1] == (eps_range[0], region.h_nodes[1])
    kinds = set()
    for (eps, hval), verdict in zip(cells, region.verdicts):
        step = _numpy_step(scheme, eps, hval)
        p = 0.5 * np.trace(step)
        assert verdict.semitrace == pytest.approx(p, rel=1e-12, abs=1e-12)
        # no cell is so near |P| = 1 that rounding could change its class
        assert abs(p) == 1.0 or abs(abs(p) - 1.0) > 1e-6
        if abs(p) < 1.0:
            expected = StabilityClass.STABLE
        elif abs(p) > 1.0:
            expected = StabilityClass.EXPONENTIALLY_UNSTABLE
        elif np.allclose(step, p * np.eye(2), rtol=0.0, atol=1e-9):
            expected = StabilityClass.STABLE
        else:
            expected = StabilityClass.LINEARLY_UNSTABLE
        assert verdict.kind is expected
        kinds.add(expected)
    if name == "verlet_vel":
        assert kinds == set(StabilityClass)
    # the record's arrays are the verdicts' semitraces and class indices,
    # read-only, and left out of the record's equality
    assert (region.eps_range, region.h_range) == (eps_range, h_range)
    assert region.semitraces.tolist() == [v.semitrace for v in region.verdicts]
    order = list(StabilityClass)
    assert region.codes.tolist() == [order.index(v.kind) for v in region.verdicts]
    for array in (region.semitraces, region.codes):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert region == scan_region(scheme, eps_range, h_range, grid)
    # the SVG reads no verdict
    assert svgplot.region_svg(replace(region, verdicts=())) == svgplot.region_svg(region)
