import math
import re
from itertools import product

import numpy as np
import pytest

from splitstab import stability
from splitstab.analysis import _draw_steplengths
from splitstab.kernel import (
    EpsilonPolynomial,
    TransferMatrix,
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
    chebyshev_polynomial_coeffs,
    chebyshev_semitrace,
    check_consistency_expansion,
    classify,
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
    witness = instability_witness(competitor, 2, h)
    assert witness is not None
    # P = c0 + c1 eps + c2 eps^2 with c0 = cos h, c1 = -(h/2) sin h and
    # c2 = h^2 (1 - cos h) / 18; the witness is the vertex of the parabola
    c0, c1, c2 = math.cos(h), -0.5 * h * math.sin(h), h * h * (1.0 - math.cos(h)) / 18.0
    vertex = -c1 / (2.0 * c2)
    assert vertex == pytest.approx(0.10637226645397867, abs=1e-15)
    assert witness == pytest.approx(vertex, abs=1e-12)
    edges = strang_boundaries(2, h)
    assert edges.witness_floor < witness < edges.upper
    p = epsilon_polynomial(competitor, h)(witness)
    assert abs(p) > 1.0
    assert abs(p) == pytest.approx(abs(c0 - c1 * c1 / (4.0 * c2)), abs=1e-12)
    assert abs(p) == pytest.approx(1.0012509379249444, abs=1e-12)


def test_instability_witness_three_stage_razor_case():
    # nearly-optimal three-stage scheme: the unstable sliver above the
    # witness floor is a few parts in 1e6 wide, a good stress test for
    # the extremum refinement
    scheme = three_stage_scheme(0.3, three_stage_necessary_k(0.3))
    witness = instability_witness(scheme, 3, 3.12)
    assert witness is not None
    floor = strang_boundaries(3, 3.12).witness_floor
    assert floor < witness < floor + 2e-5
    assert abs(epsilon_polynomial(scheme, 3.12)(witness)) > 1.0


def _withhold_unit_roots(monkeypatch, derivative):
    """Make the root solver lose every root of P -+ 1, keeping those of P'."""
    real_roots_rows = stability._real_roots_rows

    def without_unit_roots(rows, lo, hi):
        found = real_roots_rows(rows, lo, hi)
        keep = np.array([_poly_trim(row) == derivative for row in np.asarray(rows).tolist()], bool)
        return np.where(keep[:, None], found, np.nan)

    monkeypatch.setattr(stability, "_real_roots_rows", without_unit_roots)


@pytest.mark.parametrize("k, found", [(1.0, False), (4.0, True)])
def test_end_piece_stops_at_the_critical_point_without_unit_roots(monkeypatch, k, found):
    # P = 0.5 + k (eps - 1.3)^2 on the m = 2, h = 3 window (0.0946, 1.4312):
    # |P| > 1 only at the lower end, falling to the critical point 1.3
    h, c = 3.0, 1.3
    lo = strang_boundaries(2, h).witness_floor
    poly = EpsilonPolynomial((0.5 + k * c * c, -2.0 * k * c, k), h)
    monkeypatch.setattr(
        stability, "_semitrace_rows", lambda schemes, hs: np.tile(poly.coeffs, hs.shape + (1,))
    )
    competitor = SplittingScheme(FirstFlow.KICK, (0.5, 0.5), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0))
    # with the roots of P - 1: the midpoint between the end and the crossing
    crossing = c - math.sqrt(0.5 / k)
    assert instability_witness(competitor, 2, h) == pytest.approx(0.5 * (lo + crossing), abs=1e-12)
    # without them the piece runs to the critical point; that midpoint has
    # P = 0.5 + (P(lo) - 0.5) / 4, a witness only when P(lo) > 2.5
    _withhold_unit_roots(monkeypatch, poly.derivative_coeffs())
    witness = instability_witness(competitor, 2, h)
    if found:
        assert witness == pytest.approx(0.5 * (lo + c), abs=1e-12)
        assert abs(poly(witness)) > 1.0
    else:
        assert witness is None


def test_witnesses_without_unit_roots_are_still_confirmed(monkeypatch):
    # lose every root of P -+ 1 on seeded competitors: end pieces then run
    # to the adjacent critical point, and whatever is returned still lies
    # in the window with |P| > 1
    rng = SplitMix64(8)
    real_roots_rows = stability._real_roots_rows
    seen = 0
    for _ in range(60):
        m = 2 + rng.randint(0, 2)
        first = FirstFlow.ROTATION if rng.next_u64() & 1 == 0 else FirstFlow.KICK
        scheme = random_palindromic_scheme(rng, m, first_flow=first)
        h = rng.uniform(0.1, critical_steplength(m))
        if any(abs(h - j * math.pi) < 1e-3 for j in range(1, m)):
            continue
        poly = epsilon_polynomial(scheme, h)
        monkeypatch.setattr(stability, "_real_roots_rows", real_roots_rows)
        _withhold_unit_roots(monkeypatch, poly.derivative_coeffs())
        try:
            witness = instability_witness(scheme, m, h)
        except PolynomialCoincides:
            continue
        seen += 1
        if witness is not None:
            edges = strang_boundaries(m, h)
            assert edges.witness_floor < witness < edges.upper
            assert abs(poly(witness)) > 1.0
    assert seen > 40


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
    found, coincides = stability._witness_rows(np.empty((0, 3)), np.empty(0), 2)
    assert found.shape == coincides.shape == (0,)
    competitor = SplittingScheme(FirstFlow.KICK, (0.5, 0.5), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0))
    found, coincides = stability._witness_search([competitor], np.empty((1, 0)), 2)
    assert found.shape == coincides.shape == (1, 0)


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


def test_instability_witness_coincidence():
    with pytest.raises(PolynomialCoincides):
        instability_witness(catalog_scheme("krkm", 2), 2, 3.0)
    # the reversed-order composition shares the Chebyshev polynomial
    with pytest.raises(PolynomialCoincides):
        instability_witness(catalog_scheme("rkrm", 2), 2, 3.0)
    with pytest.raises(PolynomialCoincides):
        instability_witness(catalog_scheme("krkm", 3), 3, 2.5)


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


def test_scan_region_shape_and_order():
    grid = scan_region(catalog_scheme("rkr"), (-0.5, 1.0), (0.5, 3.0), (6, 5))
    assert len(grid.eps_nodes) == 6
    assert len(grid.h_nodes) == 5
    assert len(grid.verdicts) == 30
    rows = [(e, hv, v) for (e, hv), v in zip(product(grid.eps_nodes, grid.h_nodes), grid.verdicts)]
    assert rows[0][0] == -0.5 and rows[0][1] == 0.5
    # eps-major: h varies fastest
    assert rows[1][0] == -0.5 and rows[1][1] == grid.h_nodes[1]
    for i in range(6):
        for j in range(5):
            eps, hval = grid.eps_nodes[i], grid.h_nodes[j]
            direct = classify(transfer_matrix(catalog_scheme("rkr"), eps, hval))
            assert grid.verdicts[i * 5 + j] == direct
