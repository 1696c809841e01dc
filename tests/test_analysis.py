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
from splitstab.kernel import EpsilonPolynomial, epsilon_polynomial, transfer_matrix
from splitstab.rng import SplitMix64
from splitstab.schemes import (
    FirstFlow,
    SplittingScheme,
    catalog_scheme,
    random_consistent_scheme,
    three_stage_necessary_k,
    three_stage_scheme,
)
from splitstab.stability import (
    PolynomialCoincides,
    check_consistency_expansion,
    chebyshev_semitrace,
    critical_steplength,
    instability_witness,
    polynomial_distance,
    second_derivative_check,
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
    with pytest.raises(ValueError, match=r"^rotation weight 0\.1 outside \[0\.2, 0\.6\]$"):
        three_stage_sweep(3.0, np.array([0.1]))


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


@pytest.mark.parametrize("h_star", [1e-76, 1e-60, 0.001, 0.01, 0.05, 0.1, 1.0, 3.12, 3.14158])
def test_sweep_exceptional_rows_are_the_degenerate_weights_at_every_steplength(h_star):
    # the eps^k coefficients scale like h^(2k) and the window's nodes like
    # h^-2, so the coincidence test weights the eps^k deviation by r^k, r
    # the nodes' largest |eps|; an unweighted coefficient distance marked
    # 378 of 401 rows exceptional at h_star = 0.01, and weights
    # max(1, h^-2)^k overflowed and marked none at 1e-60.  Near pi the
    # one-substep window shrinks to a point (r ~ (pi - h)/pi), so a test
    # against m = 1 there would mark every row
    exceptional = [rec.r for rec in three_stage_sweep(h_star) if rec.exceptional]
    assert exceptional == list(DEGENERATE_ROTATION_WEIGHTS)


@pytest.mark.parametrize("h_star", [1e-78, 1e-77])
def test_sweep_refuses_an_h_star_whose_rows_underflow(h_star):
    # the eps^2 coefficients (~h^4/32) fall below the smallest normal
    # float; unrefused, 2 of 401 rows read as exceptional at 1e-78 that
    # are not, and all 401 from 1e-90 down
    with pytest.raises(ValueError, match=f"h_star: h={h_star!r} is too small"):
        three_stage_sweep(h_star)


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
    # at r = 0.3 the sweep's critical point, with P < -1, lies within
    # 5e-6 of the witness floor, so |P| > 1 in a sliver just above it; the
    # witness search finds the same scheme unstable, at the node eps_2
    rec = three_stage_sweep(3.12, r_grid=(0.3,))[0]
    assert not rec.exceptional
    floor = strang_boundaries(3, 3.12).witness_floor
    assert abs(rec.eps_star - floor) <= 5e-6 and rec.semitrace < -1.0
    assert instability_witness(three_stage_scheme(0.3, rec.k), 3, 3.12) > rec.eps_star
    # over the default grid the m = 3 witness search counts only r = 1/3,
    # the three-substep Strang form, as coinciding; the sweep's other
    # exceptional rows, r = 1/4 and 1/2, equal the rotation- and
    # kick-first two-substep forms, which differ from the three-substep
    # one in its window
    sweep = three_stage_sweep(3.12)
    schemes = [three_stage_scheme(rec.r, rec.k) for rec in sweep]
    found, coincides = stability._witness_search(schemes, np.full((len(sweep), 1), 3.12), 3)
    assert [rec.r for rec in sweep if rec.exceptional] == [0.25, 1.0 / 3.0, 0.5]
    assert [rec.r for rec, same in zip(sweep, coincides[:, 0]) if same] == [1.0 / 3.0]
    assert not np.isnan(found[~coincides]).any()


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


@pytest.mark.parametrize("seed", [7, 11, 64, 3308])
def test_spotcheck_tallies_at_the_benchmark_seeds(seed):
    # every trial is witnessed at m = 2..4.  Trial 90 of seed 3308, m = 2,
    # is no Strang composition (rotations 0.25009, 0.49982, 0.25009), yet
    # with P(witness_floor) = -1.00000027 at h = 0.1489 an absolute
    # coefficient tolerance skipped it as coinciding
    for m in (2, 3, 4):
        rep = optimality_spotcheck(m, 200, 5, seed=seed)
        assert (rep.witnesses_found, rep.coincidence_skips, len(rep.failures)) == (200, 0, 0)


def _reference_draws(rng, count, h_cap):
    """The documented draw rule: uniform in [0.1, h_cap), redrawn when
    within 1e-3 of j*pi; also how many draws were redrawn."""
    hs, redrawn = [], 0
    multiples = [j * math.pi for j in range(0, 8)]
    while len(hs) < count:
        h = rng.uniform(0.1, h_cap)
        if min(abs(h - x) for x in multiples) <= 1e-3:
            redrawn += 1
        else:
            hs.append(h)
    return hs, redrawn


def test_draw_steplengths_follows_the_documented_rule():
    redrawn = 0
    for m in (2, 3, 4):
        h_cap = critical_steplength(m)
        for seed in (1, 2, 3):
            got = analysis._draw_steplengths(SplitMix64(seed), 20000, h_cap)
            want, skipped = _reference_draws(SplitMix64(seed), 20000, h_cap)
            assert list(map(float.hex, got)) == list(map(float.hex, want))
            redrawn += skipped
            hs = np.array(got)
            assert ((0.1 <= hs) & (hs < h_cap)).all()
            assert (np.abs(hs - np.round(hs / math.pi) * math.pi) > 1e-3).all()
    # h_cap > pi at every m here: the rule was exercised
    assert redrawn > 0


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

        def withholding_rows(rows, hs, lo, hi, m):
            found, coincides = witness_rows(rows, hs, lo, hi, m)
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
    # per fold its rows and per search its trials: a fold takes a whole
    # search, whatever its mix of first flows, when the budget allows
    folds, searches = [], []

    def withholding_rows(rows, hs, lo, hi, m):
        found, coincides = witness_rows(rows, hs, lo, hi, m)
        return np.where(hs > cut, np.nan, found), coincides

    def counted_rows(weights, h):
        folds.append(h.size)
        return semitrace_rows(weights, h)

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
        # the one budget bounds both the fold chunks and the draw blocks;
        # each block's fold is followed by its Strang rows' reference fold
        assert folds[1::2] == folds[::2]
        assert sum(folds[::2]) == 200 and max(folds) == min(budget, 5 * max(searches))
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
    from splitstab.stability import polynomial_distance
    from test_stability import _listed_chebyshev_coeffs

    for r, m in ((0.25, 2), (1.0 / 3.0, 3), (0.5, 2)):
        scheme = three_stage_scheme(r, three_stage_necessary_k(r))
        poly = epsilon_polynomial(scheme, 2.4)
        assert polynomial_distance(poly.coeffs, _listed_chebyshev_coeffs(m, 2.4)) <= 1e-10


def test_critical_point_nearest_zero_from_the_derivative_roots():
    # P' = (eps - 0.1)(eps + 0.3) has both roots in (-0.5, 0.5); the one
    # nearer 0 is taken.  P' = eps^2 + 1 has none, which reads NaN.
    poly = EpsilonPolynomial((0.7, -0.03, 0.1, 1.0 / 3.0), 1.0)
    none = EpsilonPolynomial((0.7, 1.0, 0.0, 1.0 / 3.0), 1.0)
    near, nan = _critical_points_near_zero(np.array([poly.coeffs, none.coeffs]))
    assert near == pytest.approx(0.1, abs=1e-14)
    assert math.isnan(nan)


# ---------------------------------------------------------------------------
# the verify suites


def _reference_checks(name, rng, trials, flows):
    """(residual, passed) per check of one suite, from one scalar fold per
    (scheme, steplength), drawing from the RNG in the same order; the
    first flows of the random schemes are added to ``flows``."""
    draw = analysis._random_first_flow
    if name == "consistency":
        schemes = [catalog_scheme(n) for n in ("rkr", "krk", "lt_rk", "lt_kr")]
        for _ in range(trials):
            stages = 1 + rng.randint(0, 5)
            schemes.append(random_consistent_scheme(rng, stages, first_flow=draw(rng)))
        flows.update(s.first_flow for s in schemes[4:])
        for scheme in schemes:
            for _ in range(5):
                rep = check_consistency_expansion(scheme, analysis._random_h(rng))
                yield max(rep.c0_residual, rep.c1_residual), rep.passed
    elif name == "second-derivative":
        for _ in range(trials):
            stages = 1 + rng.randint(0, 4)
            scheme = analysis.random_palindromic_scheme(rng, stages, first_flow=draw(rng))
            flows.add(scheme.first_flow)
            for n in (1, 2, 3):
                rep = second_derivative_check(scheme, n)
                yield (1.0 if n % 2 else -1.0) * rep.value - rep.bound, rep.bound_satisfied
    elif name == "chebyshev":
        for m in range(2, 9):
            for _ in range(max(1, trials // 7)):
                h, eps = rng.uniform(0.05, m * math.pi - 0.05), rng.uniform(-1.0, 6.0)
                ref = chebyshev_semitrace(m, eps, h)
                poly = epsilon_polynomial(catalog_scheme("krkm", m), h)
                resid = abs(poly(eps) - ref) / max(1.0, abs(ref))
                yield resid, resid <= analysis.CHEBYSHEV_TOL
    else:
        for m in range(1, 7):
            for _ in range(3):
                h = analysis._random_h(rng)
                d = polynomial_distance(epsilon_polynomial(catalog_scheme("rkrm", m), h).coeffs,
                                        epsilon_polynomial(catalog_scheme("krkm", m), h).coeffs)
                yield d, d <= analysis.CONJUGACY_TOL
        for _ in range(trials):
            scheme = random_consistent_scheme(rng, 2 + rng.randint(0, 4))
            shifted = analysis._cyclic_shift(scheme)
            h, eps = analysis._random_h(rng), rng.uniform(-1.0, 6.0)
            d = abs(transfer_matrix(scheme, eps, h).semitrace()
                    - transfer_matrix(shifted, eps, h).semitrace())
            yield d, d <= analysis.CONJUGACY_TOL


def _reference_tally(name, seed, trials, flows=None):
    checks = failures = 0
    worst = 0.0
    flows = set() if flows is None else flows
    for residual, passed in _reference_checks(name, SplitMix64(seed), trials, flows):
        checks += 1
        worst = max(worst, residual)
        failures += not passed
    return checks, failures, worst.hex()


def _tally(name, seed, trials):
    checks, failures, worst = analysis.verify_suite(name, seed, trials)
    assert type(checks) is int and type(failures) is int and type(worst) is float
    return checks, failures, worst.hex()


@pytest.mark.parametrize("name", list(analysis.VERIFY_SUITES))
@pytest.mark.parametrize("seed", [1, 7, 64, 3301])
def test_verify_suite_matches_a_loop_of_one_scheme_checks(name, seed):
    flows = set()
    assert _tally(name, seed, 200) == _reference_tally(name, seed, 200, flows)
    if name in ("consistency", "second-derivative"):
        assert flows == {FirstFlow.ROTATION, FirstFlow.KICK}


def test_verify_suite_conjugacy_fails_on_rounding_at_seed_64():
    # an absolute tolerance on the semitraces of random schemes: one
    # rounding-only failure, which the stacked suite keeps
    checks, failures, worst = analysis.verify_suite("conjugacy", 64, 200)
    assert (checks, failures) == (218, 1) and 1e-12 < worst < 1e-11


def test_one_scheme_checks_read_the_trimmed_polynomial_coefficients():
    # c0, c1 and c2 come from untrimmed rows; trailing zeros are exact, so
    # they equal the trimmed polynomial's coefficients, or 0.0
    rng = SplitMix64(11)
    schemes = [catalog_scheme(n) for n in ("rkr", "krk", "lt_rk", "lt_kr")] + [
        random_consistent_scheme(rng, 1 + rng.randint(0, 5), analysis._random_first_flow(rng))
        for _ in range(60)
    ]
    for scheme in schemes:
        h = analysis._random_h(rng)
        c = epsilon_polynomial(scheme, h).coeffs + (0.0,)
        rep = check_consistency_expansion(scheme, h)
        assert rep.c0_residual == abs(c[0] - math.cos(h))
        assert rep.c1_residual == abs(c[1] + 0.5 * h * math.sin(h))
        for n in (1, 2, 3):
            c = epsilon_polynomial(scheme, n * math.pi).coeffs + (0.0, 0.0)
            assert second_derivative_check(scheme, n).value == 2.0 * c[2]


@pytest.mark.parametrize("budget", [1, 7])
def test_verify_suite_does_not_depend_on_the_row_budget(monkeypatch, budget):
    want = {(name, seed): _tally(name, seed, 40)
            for name in analysis.VERIFY_SUITES for seed in (7, 3301)}
    monkeypatch.setattr(stability, "_WITNESS_BLOCK_ROWS", budget)
    assert {key: _tally(*key, 40) for key in want} == want


@pytest.mark.parametrize("name", list(analysis.VERIFY_SUITES))
def test_verify_suite_with_one_trial(name):
    checks = {"consistency": 25, "second-derivative": 3, "chebyshev": 7, "conjugacy": 19}
    tally = _tally(name, 5, 1)
    assert tally == _reference_tally(name, 5, 1)
    assert tally[:2] == (checks[name], 0)


def test_verify_suite_rejects_an_unknown_name():
    with pytest.raises(ValueError, match=r"^unknown suite 'nope'; known: consistency, "
                                         r"second-derivative, chebyshev, conjugacy$"):
        analysis.verify_suite("nope", 1, 3)


def test_verify_suite_rejects_trials_below_one():
    with pytest.raises(ValueError, match="trials"):
        analysis.verify_suite("chebyshev", 1, 0)
