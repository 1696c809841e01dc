"""The flow fold and the witness search against a 50-digit mpmath
product of the stage flows.

The oracle multiplies the 2x2 flow matrices in mpmath at 50 significant
digits.  Transfer-matrix entries are compared directly; the coefficients
of the eps-polynomial are recovered from the oracle's semitrace at
eps = 0, 1, ..., K (K kicks, so degree <= K) by solving the Vandermonde
system in the same precision, which shares nothing with the monomial
arithmetic under test.  Instability witnesses are checked against the
oracle's semitrace and the closed-form window edges in the same precision.
"""

import math

import mpmath
import numpy as np
import pytest
from mpmath import mp

from splitstab.analysis import _draw_steplengths
from splitstab.kernel import epsilon_polynomial, transfer_matrix
from splitstab.rng import SplitMix64
from splitstab.schemes import (
    FirstFlow,
    SplittingScheme,
    catalog_scheme,
    random_consistent_scheme,
    random_palindromic_scheme,
)
from splitstab.stability import (
    COINCIDENCE_TOL,
    PolynomialCoincides,
    _witness_search,
    critical_steplength,
    instability_witness,
    strang_boundaries,
)

DPS = 50
REL_TOL = 1e-12


def mp_step(scheme, eps, h):
    """Step matrix [[a, b], [c, d]] as mpf entries, first stage rightmost."""
    a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
    drifting = scheme.is_drift_family
    for kind, w in scheme.flow_sequence():
        t = mp.mpf(w) * mp.mpf(h)
        if kind == "kick":
            f = (1, 0, -t * (1 + eps) if drifting else -t * eps, 1)
        elif drifting:
            f = (1, t, 0, 1)
        else:
            f = (mp.cos(t), mp.sin(t), -mp.sin(t), mp.cos(t))
        a, b, c, d = (
            f[0] * a + f[1] * c,
            f[0] * b + f[1] * d,
            f[2] * a + f[3] * c,
            f[2] * b + f[3] * d,
        )
    return a, b, c, d


def mp_semitrace_coeffs(scheme, h):
    nodes = range(len(scheme.kick_coeffs) + 1)
    vander = mpmath.matrix([[mp.mpf(e) ** i for i in nodes] for e in nodes])
    values = []
    for e in nodes:
        a, _, _, d = mp_step(scheme, mp.mpf(e), h)
        values.append((a + d) / 2)
    coeffs = mpmath.lu_solve(vander, mpmath.matrix(values))
    return [coeffs[i] for i in nodes]


def _random_schemes(rng, count, families):
    for i in range(count):
        stages = 1 + rng.randint(0, 4)
        first = families[rng.randint(0, len(families) - 1)]
        maker = random_palindromic_scheme if i % 2 else random_consistent_scheme
        yield maker(rng, stages, first_flow=first)


def _assert_close(got, ref):
    scale = max(1.0, max(abs(float(x)) for x in ref))
    worst = max(abs(g - float(r)) for g, r in zip(got, ref, strict=True))
    assert worst <= REL_TOL * scale, (got, [float(r) for r in ref])


def test_transfer_matrix_against_mpmath():
    rng = SplitMix64(31)
    families = (FirstFlow.ROTATION, FirstFlow.KICK, FirstFlow.DRIFT, FirstFlow.KICK_DK)
    schemes = [catalog_scheme("verlet_pos"), catalog_scheme("verlet_vel")]
    schemes += list(_random_schemes(rng, 120, families))
    with mp.workdps(DPS):
        for scheme in schemes:
            for _ in range(3):
                eps, h = rng.uniform(-1.0, 6.0), rng.uniform(0.05, 3.1)
                mat = transfer_matrix(scheme, eps, h)
                _assert_close(
                    (mat.a, mat.b, mat.c, mat.d), mp_step(scheme, mp.mpf(eps), h)
                )


#: Bound on |P - P_ref| / max(1, |P_ref|) for the half-chain squared.  Over
#: 300 seeded draws per scheme the worst was 1.7e-15 at rkrm4, 8.7e-15 at
#: krkm16 and 2.8e-14 at rkrm32, where the flat fold of all 2m + 1 flows
#: reached 8.5e-16, 7.6e-15 and 2.4e-14.
SQUARED_SEMITRACE_TOL = 1e-13


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12, 16, 32])
@pytest.mark.parametrize("name", ["rkrm", "krkm"])
def test_half_chain_squared_against_mpmath(name, m):
    scheme = catalog_scheme(name, m)
    # halved once per factor 2 of m
    assert scheme._half_chain[1] == (m & -m).bit_length() - 1
    rng = SplitMix64((40 if name == "rkrm" else 80) + m)
    with mp.workdps(DPS):
        for _ in range(100):
            eps, h = rng.uniform(-1.0, 6.0), rng.uniform(0.05, 0.99 * m * math.pi)
            mat = transfer_matrix(scheme, eps, h)
            ref = mp_step(scheme, mp.mpf(eps), h)
            _assert_close((mat.a, mat.b, mat.c, mat.d), ref)
            p_ref = float((ref[0] + ref[3]) / 2)
            assert abs(mat.semitrace() - p_ref) <= SQUARED_SEMITRACE_TOL * max(1.0, abs(p_ref))


@pytest.mark.parametrize("first", [FirstFlow.ROTATION, FirstFlow.KICK])
def test_epsilon_polynomial_every_coefficient_against_mpmath(first):
    rng = SplitMix64(32 if first is FirstFlow.ROTATION else 33)
    with mp.workdps(DPS):
        for scheme in _random_schemes(rng, 60, (first,)):
            h = rng.uniform(0.05, 3.1)
            ref = mp_semitrace_coeffs(scheme, h)
            got = epsilon_polynomial(scheme, h).coeffs
            # exact trailing zeros are trimmed; the oracle's are ~1e-50
            got = got + (0.0,) * (len(ref) - len(got))
            _assert_close(got, ref)


def mp_window(m, h):
    """(witness_floor, upper) of the m-substep Strang scheme."""
    x = mp.mpf(h) / m
    floor = (2 * m / (mp.mpf(h) * mp.sin(x))) * (mp.cos(x) - mp.cos(mp.pi / m))
    return floor, (2 * m / mp.mpf(h)) / mp.tan(x / 2)


def _check_witness(scheme, m, h):
    return _confirm_witness(scheme, m, h, instability_witness(scheme, m, h))


def _confirm_witness(scheme, m, h, witness):
    """A returned witness is inside the window with |P| > 1 at 50 digits,
    and one is returned whenever a 1e5-node scan of the window sees |P| > 1.
    Returns whether a witness was found."""
    floor, upper = mp_window(m, h)
    if witness is not None:
        a, _, _, d = mp_step(scheme, mp.mpf(witness), h)
        assert floor < witness < upper, (scheme, h, witness)
        assert abs((a + d) / 2) > 1, (scheme, h, witness)
        return True
    # the scan evaluates the coefficients checked against the oracle above
    nodes = np.linspace(float(floor), float(upper), 100_002)[1:-1]
    coeffs = epsilon_polynomial(scheme, h).coeffs
    assert not np.any(np.abs(np.polyval(coeffs[::-1], nodes)) > 1.0), (scheme, h)
    return False


@pytest.mark.parametrize("m", [2, 3, 4])
def test_instability_witness_against_mpmath(m):
    rng = SplitMix64(40 + m)
    h_cap = critical_steplength(m)
    pairs = found = 0
    with mp.workdps(DPS):
        while pairs < 340:
            first = (FirstFlow.ROTATION, FirstFlow.KICK)[rng.randint(0, 1)]
            scheme = random_palindromic_scheme(rng, m, first_flow=first)
            for h in _draw_steplengths(rng, 5, h_cap):
                try:
                    found += _check_witness(scheme, m, h)
                except PolynomialCoincides:
                    continue
                pairs += 1
    # the theory promises a witness for every competitor below h_crit
    assert found == pairs


@pytest.mark.parametrize("m", [2, 3, 4])
def test_array_witnesses_against_mpmath(m):
    # the same confirmation for every entry of one array call per scheme
    rng = SplitMix64(50 + m)
    h_cap = critical_steplength(m)
    pairs = found = 0
    with mp.workdps(DPS):
        while pairs < 340:
            first = (FirstFlow.ROTATION, FirstFlow.KICK)[rng.randint(0, 1)]
            scheme = random_palindromic_scheme(rng, m, first_flow=first)
            hs = _draw_steplengths(rng, 5, h_cap)
            try:
                witnesses = instability_witness(scheme, m, np.array(hs))
            except PolynomialCoincides:
                continue
            for h, witness in zip(hs, witnesses):
                found += _confirm_witness(scheme, m, h, witness)
                pairs += 1
    assert found == pairs


@pytest.mark.parametrize("m", [5, 6, 8])
def test_witness_search_against_mpmath_beyond_four_stages(m):
    # seeded palindromic and consistent non-palindromic draws of both
    # first flows through one stacked search: every row gets a witness,
    # and each holds at 50 digits; over a third of the steplengths lie in
    # (pi, h_crit), where 0 is inside the window
    rng = SplitMix64(60 + m)
    makers = (random_palindromic_scheme, random_consistent_scheme)
    flows = (FirstFlow.ROTATION, FirstFlow.KICK)
    schemes = [makers[i % 2](rng, m, first_flow=flows[rng.randint(0, 1)]) for i in range(60)]
    hs = np.array([_draw_steplengths(rng, 5, critical_steplength(m)) for _ in schemes])
    assert (hs > np.pi).sum() > 100
    found, coincides = _witness_search(schemes, hs, m)
    assert not coincides.any()
    with mp.workdps(DPS):
        for scheme, row, witnesses in zip(schemes, hs.tolist(), found.tolist()):
            for h, witness in zip(row, witnesses):
                assert _confirm_witness(scheme, m, h, witness)


def _coincidence_ratio(scheme, h):
    """The m = 2 coincidence measure, sum_k |c_k - s_k| r^k over
    sum_k |c_k| r^k, with the Strang row s = (cos h, -(h/2) sin h,
    (h^2/8) sin^2(h/2)) written out and r the larger |eps| of the window
    ends."""
    edges = strang_boundaries(2, h)
    r = max(-edges.witness_floor, edges.upper)
    strang = (math.cos(h), -0.5 * h * math.sin(h), h * h / 8.0 * math.sin(h / 2.0) ** 2)
    coeffs = epsilon_polynomial(scheme, h).coeffs
    pairs = list(zip(coeffs, strang + (0.0,) * (len(coeffs) - 3)))
    deviation = sum(abs(c - s) * r**k for k, (c, s) in enumerate(pairs))
    return deviation / sum(abs(c) * r**k for k, (c, _) in enumerate(pairs))


def _shifted_strang(d):
    """The 2-substep Strang scheme with its outer kicks moved by d."""
    return SplittingScheme(FirstFlow.KICK, (0.5, 0.5), (0.25 + d, 0.5 - 2 * d, 0.25 + d))


def test_instability_witness_just_below_coincidence_tol():
    # at d = 3e-6 the coincidence ratio is below COINCIDENCE_TOL: the
    # scheme counts as the Strang form
    scheme = _shifted_strang(3e-6)
    assert 0.5 * COINCIDENCE_TOL < _coincidence_ratio(scheme, 3.0) < COINCIDENCE_TOL
    with pytest.raises(PolynomialCoincides):
        instability_witness(scheme, 2, 3.0)


def test_instability_witness_just_above_coincidence_tol():
    # at d = 3.5e-6 the coincidence ratio is just above COINCIDENCE_TOL,
    # and |P| exceeds 1 only in a sliver just above the witness floor
    scheme = _shifted_strang(3.5e-6)
    assert COINCIDENCE_TOL < _coincidence_ratio(scheme, 3.0) < 2 * COINCIDENCE_TOL
    with mp.workdps(DPS):
        assert _check_witness(scheme, 2, 3.0)


def test_kick_first_competitor_at_small_h_gets_a_witness():
    # at h = 0.01 its eps^2 coefficient is within 3.5e-11 of the Strang
    # form's, inside an absolute coefficient tolerance of 1e-10; its node
    # values are 0.22 and 0.89 from the Strang form's -1 and +1, and the
    # deviation out to the upper node, 0.89, is set against a rounding
    # scale of 16
    competitor = SplittingScheme(FirstFlow.KICK, (0.5, 0.5), (1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0))
    assert _coincidence_ratio(competitor, 0.01) > 0.05
    witness = instability_witness(competitor, 2, 0.01)
    assert witness == pytest.approx(99999.4167, abs=1e-4)
    with mp.workdps(DPS):
        assert _confirm_witness(competitor, 2, 0.01, witness)


@pytest.mark.parametrize("first", [FirstFlow.ROTATION, FirstFlow.KICK])
def test_two_stage_strang_deviation_closed_form_at_50_digits(first):
    # rotations (w, 1 - 2w, w) and kicks (1/2, 1/2) rotation-first give
    # P - T_2(x(eps)) = -(eps^2 h^2 / 8) sin^2((4w - 1) h / 2); kicks
    # (w, 1 - 2w, w) and rotations (1/2, 1/2) kick-first give
    # -(eps^2 h^2 / 8) (4w - 1)^2 sin^2(h / 2).  At the floor node, where
    # T_2 = -1, |P| - 1 is 2 cot^2(h/2) sin^2((4w - 1) h / 2), resp.
    # 2 cos^2(h/2) (4w - 1)^2.  w is dyadic, so 1 - 2w is exact and the
    # 50-digit product is the scheme's own; four eps values pin the cubic
    rng = SplitMix64(17 if first is FirstFlow.ROTATION else 18)
    with mp.workdps(DPS):
        for _ in range(12):
            h = rng.uniform(0.1, 3.0)
            w = round(rng.uniform(-0.5, 1.0) * 2**20) / 2**20
            weights = ((w, 1.0 - 2.0 * w, w), (0.5, 0.5))
            if first is FirstFlow.KICK:
                weights = weights[::-1]
            scheme = SplittingScheme(first, *weights)
            hm, wm = mp.mpf(h), mp.mpf(w)
            if first is FirstFlow.ROTATION:
                factor = mp.sin((4 * wm - 1) * hm / 2) ** 2
                margin = 2 * mp.cot(hm / 2) ** 2 * factor
            else:
                factor = (4 * wm - 1) ** 2 * mp.sin(hm / 2) ** 2
                margin = 2 * mp.cos(hm / 2) ** 2 * (4 * wm - 1) ** 2
            floor = 4 * mp.cos(hm / 2) / (hm * mp.sin(hm / 2))
            for eps in (mp.mpf(-1), mp.mpf(0.5), mp.mpf(2), mp.mpf(7), floor):
                a, _, _, d = mp_step(scheme, eps, hm)
                x = mp.cos(hm / 2) - hm * eps / 4 * mp.sin(hm / 2)
                assert abs((a + d) / 2 - (2 * x * x - 1) + eps**2 * hm**2 / 8 * factor) < 1e-40
            assert abs(abs((a + d) / 2) - 1 - margin) < 1e-40


@pytest.mark.parametrize("m", [2, 3, 7, 50, 300, 1000])
def test_critical_steplength_against_mpmath_root(m):
    # the root of (h/2m) sin(h/m) = cos(pi/m) - cos(h/m) in 60 digits, from
    # the float value as the starting point; the relative error stays below
    # 1e-11 up to the stage cap, where the residual's cancellation grows
    h = critical_steplength(m)
    with mp.workdps(60):
        def residual(x):
            return (x / (2 * m)) * mp.sin(x / m) - mp.cos(mp.pi / m) + mp.cos(x / m)

        root = mp.findroot(residual, mp.mpf(h))
        assert abs(residual(root)) < mp.mpf(10) ** -50
        assert abs((mp.mpf(h) - root) / root) <= 1e-11


@pytest.mark.parametrize("m", [2, 3, 7, 50])
def test_critical_steplength_to_float_resolution(m):
    # the monotone residual is bisected until the bracket cannot shrink,
    # so for moderate m the root is good to a few units of roundoff
    h = critical_steplength(m)
    with mp.workdps(DPS):
        def residual(x):
            return (x / (2 * m)) * mp.sin(x / m) - mp.cos(mp.pi / m) + mp.cos(x / m)

        root = mp.findroot(residual, mp.mpf(h))
        assert abs((mp.mpf(h) - root) / root) <= 1e-14
