import math

import numpy as np
import pytest

import splitstab.analysis as analysis
import splitstab.stability as stability
from splitstab.analysis import (
    DEGENERATE_ROTATION_WEIGHTS,
    R_RANGE,
    SpotcheckFailure,
    SpotcheckReport,
    _critical_points_near_zero,
    critical_steplength_table,
    default_r_grid,
    optimality_spotcheck,
    three_stage_sweep,
)
from splitstab.kernel import EpsilonPolynomial, epsilon_polynomial
from splitstab.rng import SplitMix64
from splitstab.schemes import (
    FirstFlow,
    SplittingScheme,
    catalog_scheme,
    three_stage_necessary_k,
    three_stage_scheme,
)
from splitstab.stability import (
    PolynomialCoincides,
    critical_steplength,
    instability_witness,
    strang_boundaries,
)


def test_critical_steplength_table():
    table = critical_steplength_table(8)
    assert len(table) == 8
    assert table[0] == math.pi
    assert all(isinstance(h, float) for h in table)
    prev = 0.0
    for m, h in enumerate(table, 1):
        residual = (h / (2 * m)) * math.sin(h / m) - math.cos(math.pi / m) + math.cos(h / m)
        assert abs(residual) <= 1e-9
        assert h > prev
        prev = h
    with pytest.raises(ValueError):
        critical_steplength_table(0)


def test_default_r_grid():
    grid = default_r_grid()
    assert len(grid) == 401
    assert grid[0] == 0.2
    assert grid[-1] == 0.6
    assert (grid[0], grid[-1]) == R_RANGE
    assert list(grid) == sorted(grid)
    for target in DEGENERATE_ROTATION_WEIGHTS:
        assert target in grid  # snapped exactly, not straddled
    coarse = default_r_grid(9)
    assert coarse[0] == 0.2 and coarse[-1] == 0.6
    assert 1.0 / 3.0 in coarse
    with pytest.raises(ValueError):
        default_r_grid(1)


def test_default_r_grid_keeps_both_ends_on_coarse_grids():
    # only interior nodes snap: the ends of R_RANGE are never replaced by
    # a degenerate weight, however coarse the grid
    assert default_r_grid(2) == R_RANGE
    assert default_r_grid(3) == (0.2, 1.0 / 3.0, 0.6)
    assert default_r_grid(5) == (0.2, 1.0 / 3.0, 0.4, 0.5, 0.6)


def test_sweep_validates_inputs():
    with pytest.raises(ValueError):
        three_stage_sweep(0.0)
    with pytest.raises(ValueError):
        three_stage_sweep(math.pi)
    with pytest.raises(ValueError):
        three_stage_sweep(3.12, r_grid=(0.1,))
    with pytest.raises(ValueError):
        three_stage_sweep(3.12, r_grid=(0.7,))


def test_sweep_takes_an_array_of_rotation_weights():
    recs = three_stage_sweep(3.0, np.array([0.25, 0.3]))
    assert recs == three_stage_sweep(3.0, (0.25, 0.3))
    assert three_stage_sweep(3.0, np.array([])) == ()


def test_sweep_exceptional_set_and_instability_margin():
    sweep = three_stage_sweep(3.12)
    assert len(sweep) == 401
    assert all(math.isfinite(rec.eps_star) and math.isfinite(rec.semitrace) for rec in sweep)
    exceptional = [rec.r for rec in sweep if rec.exceptional]
    assert exceptional == list(DEGENERATE_ROTATION_WEIGHTS)
    for rec in sweep:
        if rec.exceptional:
            assert abs(rec.semitrace + 1.0) <= 1e-6
        else:
            # strictly below -1: every non-degenerate member is unstable
            # somewhere inside the Strang stability window
            assert rec.semitrace < -1.0


def test_sweep_critical_point_matches_closed_form():
    # at r = 1/3 the family collapses onto the three-substep Strang
    # composition, whose semitrace minimum sits exactly at the witness
    # floor of the stability edges
    sweep = three_stage_sweep(3.12, r_grid=(1.0 / 3.0,))
    rec = sweep[0]
    assert rec.exceptional
    gamma3 = strang_boundaries(3, 3.12).witness_floor
    assert rec.eps_star == pytest.approx(gamma3, abs=1e-9)
    assert rec.k == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_sweep_no_critical_point_status():
    # at small steplength the semitrace is monotone in eps near the
    # origin, so the row degrades gracefully instead of aborting
    recs = three_stage_sweep(0.3, r_grid=(0.2, 0.45, 0.6))
    assert [rec.r for rec in recs] == [0.2, 0.45, 0.6]
    for rec in recs:
        assert math.isnan(rec.eps_star)
        assert math.isnan(rec.semitrace)


def test_sweep_agrees_with_witness_search():
    # the sweep's critical point and the witness search bracket the same
    # sliver of instability just above the witness floor
    scheme = three_stage_scheme(0.3, three_stage_necessary_k(0.3))
    witness = instability_witness(scheme, 3, 3.12)
    rec = three_stage_sweep(3.12, r_grid=(0.3,))[0]
    assert not rec.exceptional
    assert abs(witness - rec.eps_star) <= 5e-6
    floor = strang_boundaries(3, 3.12).witness_floor
    assert floor < witness < floor + 2e-5


def test_spotcheck_scheme_direct():
    competitor = SplittingScheme(
        FirstFlow.KICK, (0.5, 0.5), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0), label="comp2"
    )
    witnesses = [instability_witness(competitor, 2, h) for h in (1.7, 3.0)]
    assert len(witnesses) == 2
    assert all(w is not None for w in witnesses)


def test_optimality_spotcheck_all_stage_counts():
    for m, trials in ((2, 25), (3, 15), (4, 10)):
        report = optimality_spotcheck(m, trials, 2, seed=3)
        assert report.m == m
        assert report.trials == trials
        assert report.failures == ()
        assert report.witnesses_found + report.coincidence_skips == trials
        assert report.consistent_tally


def test_optimality_spotcheck_deterministic():
    a = optimality_spotcheck(2, 25, 2, seed=3)
    b = optimality_spotcheck(2, 25, 2, seed=3)
    assert a == b
    c = optimality_spotcheck(2, 25, 2, seed=4)
    assert c.consistent_tally


def test_optimality_spotcheck_counts_coincidences(monkeypatch):
    # force every draw onto the uniform Strang composition: each trial
    # must be skipped as a coincidence, never counted as a failure
    monkeypatch.setattr(
        analysis,
        "random_palindromic_scheme",
        lambda rng, stages, first_flow=FirstFlow.KICK: catalog_scheme("krkm", 2),
    )
    report = optimality_spotcheck(2, 7, 3, seed=1)
    assert report.coincidence_skips == 7
    assert report.witnesses_found == 0
    assert report.failures == ()
    assert report.consistent_tally


def _reference_spotcheck(m, trials, h_samples, seed, witness):
    """The spot-check as a loop of one scalar witness search per (trial, h),
    drawing from the RNG in the same order."""
    rng = SplitMix64(seed)
    h_cap = critical_steplength(m)
    found = skips = 0
    failures = []
    for _ in range(trials):
        scheme = analysis.random_palindromic_scheme(
            rng, m, first_flow=analysis._random_first_flow(rng)
        )
        hs = analysis._draw_steplengths(rng, h_samples, h_cap)
        try:
            missing = [h for h in hs if witness(scheme, m, h) is None]
        except PolynomialCoincides:
            skips += 1
            continue
        if missing:
            failures.append(SpotcheckFailure(
                scheme.label or scheme.describe(), scheme.rotation_coeffs,
                scheme.kick_coeffs, missing[0],
            ))
        else:
            found += 1
    return SpotcheckReport(m, trials, found, skips, tuple(failures))


@pytest.mark.parametrize("variant", ["plain", "withheld", "coinciding"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_spotcheck_matches_a_loop_of_scalar_searches(monkeypatch, m, variant):
    witness, draws = instability_witness, [0]
    if variant == "withheld":
        # no witness above 0.8 h_crit: trials with such an h fail, and the
        # failure records the first of them
        cut = 0.8 * critical_steplength(m)

        def withholding(scheme, m, h):
            found = instability_witness(scheme, m, h)
            return None if h > cut else found

        witness_rows = stability._witness_rows

        def withholding_rows(rows, hs, m):
            found, coincides = witness_rows(rows, hs, m)
            return np.where(hs > cut, np.nan, found), coincides

        witness = withholding
        monkeypatch.setattr(stability, "_witness_rows", withholding_rows)
    elif variant == "coinciding":
        # every third draw of a run is replaced by the Strang composition
        draw = analysis.random_palindromic_scheme

        def every_third_strang(rng, stages, first_flow):
            scheme = draw(rng, stages, first_flow=first_flow)
            draws[0] += 1
            return catalog_scheme("krkm", stages) if draws[0] % 3 == 1 else scheme

        monkeypatch.setattr(analysis, "random_palindromic_scheme", every_third_strang)
    for seed in range(1, 6):
        draws[0] = 0
        report = optimality_spotcheck(m, 40, 5, seed=seed)
        draws[0] = 0
        assert report == _reference_spotcheck(m, 40, 5, seed, witness)
        assert report.consistent_tally
        if variant == "withheld":
            assert report.failures
        if variant == "coinciding":
            assert report.coincidence_skips >= 13


@pytest.mark.parametrize("m", [2, 3, 4])
def test_spotcheck_report_does_not_depend_on_the_row_budget(monkeypatch, m):
    # a budget of 1 or 3 rows splits every trial's 5 steplengths across
    # fold chunks, 12 draws two trials per block and the default all 40
    # at once; with skipped (every third draw Strang), failed (no witness
    # above 0.8 h_crit) and witnessed trials the reports are identical
    draw, draws = analysis.random_palindromic_scheme, [0]

    def every_third_strang(rng, stages, first_flow):
        scheme = draw(rng, stages, first_flow=first_flow)
        draws[0] += 1
        return catalog_scheme("krkm", stages) if draws[0] % 3 == 1 else scheme

    cut = 0.8 * critical_steplength(m)
    witness_rows, semitrace_rows = stability._witness_rows, stability._semitrace_rows
    witness_search = analysis._witness_search
    folds, searches = [], []

    def withholding_rows(rows, hs, m):
        found, coincides = witness_rows(rows, hs, m)
        return np.where(hs > cut, np.nan, found), coincides

    def counted_rows(schemes, h):
        folds.append(h.size)
        return semitrace_rows(schemes, h)

    def counted_search(schemes, hs, m):
        searches.append(len(schemes))
        return witness_search(schemes, hs, m)

    monkeypatch.setattr(analysis, "random_palindromic_scheme", every_third_strang)
    monkeypatch.setattr(stability, "_witness_rows", withholding_rows)
    monkeypatch.setattr(stability, "_semitrace_rows", counted_rows)
    monkeypatch.setattr(analysis, "_witness_search", counted_search)
    reports = []
    for budget in (stability._WITNESS_BLOCK_ROWS, 12, 3, 1):
        monkeypatch.setattr(stability, "_WITNESS_BLOCK_ROWS", budget)
        draws[0] = 0
        folds.clear()
        searches.clear()
        reports.append(optimality_spotcheck(m, 40, 5, seed=m))
        # the one budget bounds both the fold chunks and the draw blocks
        assert sum(folds) == 200 and max(folds) == min(budget, 5 * max(searches))
        assert sum(searches) == 40 and max(searches) <= max(1, budget // 5)
    assert reports[0].failures and reports[0].coincidence_skips and reports[0].witnesses_found
    assert reports[0].consistent_tally
    assert reports[1:] == reports[:1] * 3


def test_optimality_spotcheck_validates_inputs():
    with pytest.raises(ValueError):
        optimality_spotcheck(5, 3, 2)
    with pytest.raises(ValueError):
        optimality_spotcheck(1, 3, 2)
    with pytest.raises(ValueError):
        optimality_spotcheck(2, 0, 2)
    with pytest.raises(ValueError):
        optimality_spotcheck(2, 3, 0)


def test_spotcheck_report_tally_definition():
    report = SpotcheckReport(m=2, trials=5, witnesses_found=3, coincidence_skips=1)
    assert not report.consistent_tally  # 3 + 1 + 0 != 5
    report = SpotcheckReport(m=2, trials=4, witnesses_found=3, coincidence_skips=1)
    assert report.consistent_tally


def test_collapsed_weights_reproduce_uniform_compositions():
    # the three snapped rotation weights collapse the family onto
    # uniform-substep compositions; their polynomials coincide at any h
    from splitstab.stability import chebyshev_polynomial_coeffs, polynomial_distance

    for r, m in ((0.25, 2), (1.0 / 3.0, 3), (0.5, 2)):
        scheme = three_stage_scheme(r, three_stage_necessary_k(r))
        poly = epsilon_polynomial(scheme, 2.4)
        assert polynomial_distance(
            poly.coeffs, chebyshev_polynomial_coeffs(m, 2.4)
        ) <= 1e-10


def test_critical_point_nearest_zero_from_the_derivative_roots():
    # P' = (eps - 0.1)(eps + 0.3) has both roots in (-0.5, 0.5); the one
    # nearer 0 is taken.  P' = eps^2 + 1 has none, which reads NaN.
    poly = EpsilonPolynomial((0.7, -0.03, 0.1, 1.0 / 3.0), 1.0)
    none = EpsilonPolynomial((0.7, 1.0, 0.0, 1.0 / 3.0), 1.0)
    near, nan = _critical_points_near_zero(np.array([poly.coeffs, none.coeffs]))
    assert near == pytest.approx(0.1, abs=1e-14)
    assert math.isnan(nan)
