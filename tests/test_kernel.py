import math

import numpy as np
import pytest

from splitstab.kernel import (
    EpsilonPolynomial,
    TransferMatrix,
    UnsupportedFamily,
    _poly_trim,
    _semitrace_rows,
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


def as_array(mat: TransferMatrix) -> np.ndarray:
    return np.array([[mat.a, mat.b], [mat.c, mat.d]])


def numpy_product(scheme, eps: float, h: float) -> np.ndarray:
    """Independent oracle: multiply the stage flows with numpy."""
    out = np.eye(2)
    for kind, w in scheme.flow_sequence():
        t = w * h
        if kind == "free":
            if scheme.is_drift_family:
                f = np.array([[1.0, t], [0.0, 1.0]])
            else:
                f = np.array(
                    [[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]]
                )
        else:
            strength = -t * (1.0 + eps) if scheme.is_drift_family else -t * eps
            f = np.array([[1.0, 0.0], [strength, 1.0]])
        out = f @ out
    return out


def test_transfer_matrix_exact_at_eps_zero():
    rng = SplitMix64(2)
    for _ in range(50):
        stages = 1 + rng.randint(0, 4)
        scheme = random_consistent_scheme(rng, stages)
        h = rng.uniform(0.05, 3.1)
        mat = transfer_matrix(scheme, 0.0, h)
        assert mat.a == pytest.approx(math.cos(h), abs=1e-13)
        assert mat.b == pytest.approx(math.sin(h), abs=1e-13)
        assert mat.c == pytest.approx(-math.sin(h), abs=1e-13)
        assert mat.d == pytest.approx(math.cos(h), abs=1e-13)


def test_transfer_matrix_strang_at_pi():
    mat = transfer_matrix(catalog_scheme("rkr"), 1.0, math.pi)
    assert mat.a == pytest.approx(-1.0, abs=1e-12)
    assert mat.b == pytest.approx(-math.pi, abs=1e-12)
    assert mat.c == pytest.approx(0.0, abs=1e-12)
    assert mat.d == pytest.approx(-1.0, abs=1e-12)


def test_transfer_matrix_strang_semitrace_closed_form():
    rng = SplitMix64(5)
    for _ in range(100):
        eps = rng.uniform(-1.0, 6.0)
        h = rng.uniform(0.05, 3.1)
        for name in ("rkr", "krk"):
            p = transfer_matrix(catalog_scheme(name), eps, h).semitrace()
            assert p == pytest.approx(
                math.cos(h) - 0.5 * h * eps * math.sin(h), abs=1e-13
            )


def test_transfer_matrix_against_numpy_product():
    rng = SplitMix64(6)
    names = ("rkr", "krk", "lt_rk", "lt_kr", "verlet_pos", "verlet_vel")
    for _ in range(40):
        eps = rng.uniform(-1.0, 6.0)
        h = rng.uniform(0.05, 3.1)
        for name in names:
            scheme = catalog_scheme(name)
            got = as_array(transfer_matrix(scheme, eps, h))
            ref = numpy_product(scheme, eps, h)
            assert np.max(np.abs(got - ref)) < 1e-13


def test_transfer_matrix_random_schemes_against_numpy():
    rng = SplitMix64(7)
    for _ in range(100):
        stages = 1 + rng.randint(0, 5)
        first = FirstFlow.ROTATION if rng.next_u64() & 1 == 0 else FirstFlow.KICK
        scheme = random_consistent_scheme(rng, stages, first_flow=first)
        eps = rng.uniform(-1.0, 6.0)
        h = rng.uniform(0.05, 3.1)
        got = as_array(transfer_matrix(scheme, eps, h))
        ref = numpy_product(scheme, eps, h)
        scale = max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(got - ref)) < 1e-13 * scale


def test_transfer_matrix_determinant():
    rng = SplitMix64(8)
    for _ in range(200):
        scheme = random_consistent_scheme(rng, 1 + rng.randint(0, 5))
        eps = rng.uniform(-1.0, 6.0)
        h = rng.uniform(0.05, 3.1)
        mat = transfer_matrix(scheme, eps, h)
        scale = max(1.0, abs(mat.a * mat.d) + abs(mat.b * mat.c))
        assert abs(mat.det() - 1.0) <= 1e-12 * scale


def test_non_finite_input_is_rejected_by_name():
    rkr = catalog_scheme("rkr")
    with pytest.raises(ValueError, match="h must be finite"):
        transfer_matrix(rkr, 0.5, math.inf)
    with pytest.raises(ValueError, match="eps must be finite"):
        transfer_matrix(rkr, math.nan, 1.0)
    with pytest.raises(ValueError, match="h must be finite"):
        epsilon_polynomial(rkr, math.nan)


def test_epsilon_polynomial_strang_coefficients():
    rng = SplitMix64(9)
    for _ in range(100):
        h = rng.uniform(1e-3, math.pi - 1e-3)
        for name in ("rkr", "krk"):
            poly = epsilon_polynomial(catalog_scheme(name), h)
            assert len(poly.coeffs) == 2
            assert poly.coeffs[0] == pytest.approx(math.cos(h), abs=1e-12)
            assert poly.coeffs[1] == pytest.approx(
                -0.5 * h * math.sin(h), abs=1e-12
            )


def test_epsilon_polynomial_degree_bound_and_base_coeffs():
    rng = SplitMix64(10)
    for _ in range(100):
        stages = 1 + rng.randint(0, 5)
        first = FirstFlow.ROTATION if rng.next_u64() & 1 == 0 else FirstFlow.KICK
        scheme = random_consistent_scheme(rng, stages, first_flow=first)
        h = rng.uniform(0.05, 3.1)
        poly = epsilon_polynomial(scheme, h)
        assert poly.degree <= stages
        assert poly.coeffs[0] == pytest.approx(math.cos(h), abs=1e-12)
        if poly.degree >= 1:
            assert poly.coeffs[1] == pytest.approx(
                -0.5 * h * math.sin(h), abs=1e-12
            )


def test_epsilon_polynomial_matches_transfer_matrix():
    rng = SplitMix64(11)
    for _ in range(200):
        stages = 1 + rng.randint(0, 5)
        scheme = random_consistent_scheme(rng, stages)
        h = rng.uniform(0.05, 3.1)
        eps = rng.uniform(-1.0, 6.0)
        poly = epsilon_polynomial(scheme, h)
        direct = transfer_matrix(scheme, eps, h).semitrace()
        assert abs(poly(eps) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_epsilon_polynomial_frozen_value():
    # three-substep scheme at eps=1, h=1; value frozen from the exact
    # Chebyshev closed form T_3(cos(1/3) - (1/6) sin(1/3))
    poly = epsilon_polynomial(catalog_scheme("krkm", 3), 1.0)
    assert poly(1.0) == pytest.approx(0.15263936171631298, abs=1e-13)


def test_epsilon_polynomial_array_evaluation():
    poly = epsilon_polynomial(catalog_scheme("krkm", 2), 2.0)
    grid = np.linspace(-1, 3, 17)
    vals = poly(grid)
    assert vals.shape == grid.shape
    for e, v in zip(grid, vals):
        assert v == pytest.approx(poly(float(e)), abs=1e-14)


def test_epsilon_polynomial_derivative_coeffs():
    poly = EpsilonPolynomial((2.0, -3.0, 0.5, 1.25), h=1.0)
    assert poly.derivative_coeffs() == (-3.0, 1.0, 3.75)
    assert EpsilonPolynomial((4.0,), h=1.0).derivative_coeffs() == (0.0,)


def test_epsilon_polynomial_rejects_drift_family():
    with pytest.raises(UnsupportedFamily):
        epsilon_polynomial(catalog_scheme("verlet_pos"), 1.0)
    with pytest.raises(UnsupportedFamily):
        epsilon_polynomial(catalog_scheme("verlet_vel"), 1.0)


def test_m_fold_composition_equivalence():
    rng = SplitMix64(12)
    from splitstab.schemes import compose_substeps

    for _ in range(50):
        scheme = random_consistent_scheme(rng, 1 + rng.randint(0, 3))
        m = 2 + rng.randint(0, 3)
        eps = rng.uniform(-1.0, 6.0)
        h = rng.uniform(0.05, 3.1)
        comp = transfer_matrix(compose_substeps(scheme, m), eps, h)
        step = transfer_matrix(scheme, eps, h / m)
        got = as_array(comp)
        ref = np.linalg.matrix_power(as_array(step), m)
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-13


def test_nearly_collapsed_three_stage_polynomial_keeps_tail():
    # the r=1/4 inner kick weight is ~-3e-17, not exactly zero: the tiny
    # cubic coefficient must survive so large-eps evaluation stays honest
    k = three_stage_necessary_k(0.25)
    scheme = three_stage_scheme(0.25, k)
    poly = epsilon_polynomial(scheme, 1.7)
    direct = transfer_matrix(scheme, 40.0, 1.7).semitrace()
    assert abs(poly(40.0) - direct) <= 1e-12 * max(1.0, abs(direct))


@pytest.mark.parametrize("first", [FirstFlow.ROTATION, FirstFlow.KICK])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_stacked_semitrace_rows_equal_the_one_scheme_rows(m, first):
    # one fold over 60 schemes of one layout, one steplength each, gives
    # row i exactly as the fold of scheme i alone at that steplength
    rng = SplitMix64(40 + m)
    schemes = [random_palindromic_scheme(rng, m, first_flow=first) for _ in range(60)]
    hs = np.array([rng.uniform(0.1, 3.0 * m) for _ in schemes])
    rows = _semitrace_rows(schemes, hs[:, None])
    assert rows.shape == (60, 1, len(schemes[0].kick_coeffs) + 1)
    for scheme, h, row in zip(schemes, hs, rows[:, 0]):
        assert row.tolist() == _semitrace_rows([scheme], np.array([[h]]))[0, 0].tolist()
        assert _poly_trim(row.tolist()) == epsilon_polynomial(scheme, h).coeffs
    # a scheme over several steplengths is the same scheme repeated, one
    # steplength each, and each of 4 schemes over 3 steplengths is its own
    assert np.array_equal(
        _semitrace_rows(schemes[:1], hs[None, :3])[0],
        _semitrace_rows([schemes[0]] * 3, hs[:3, None])[:, 0],
    )
    block = _semitrace_rows(schemes[:4], np.tile(hs[:3], (4, 1)))
    assert block.shape == (4, 3, rows.shape[-1])
    for i, j in np.ndindex(4, 3):
        assert block[i, j].tolist() == _semitrace_rows([schemes[i]], hs[None, j:j + 1])[0, 0].tolist()


def test_stacked_semitrace_rows_reject_mixed_layouts():
    rng = SplitMix64(5)
    rot2, kick2, rot3 = (
        random_palindromic_scheme(rng, m, first_flow=first)
        for m, first in ((2, FirstFlow.ROTATION), (2, FirstFlow.KICK), (3, FirstFlow.ROTATION))
    )
    hs = np.array([[1.0], [2.0]])
    for mixed in ([rot2, kick2], [rot2, rot3]):
        with pytest.raises(ValueError, match="one first flow and stage count"):
            _semitrace_rows(mixed, hs)
    # h must be a 2-D array with one row per scheme
    for h in (np.array([1.0, 2.0, 3.0]), 1.0, np.ones((3, 2))):
        with pytest.raises(ValueError, match="one row of steplengths per scheme"):
            _semitrace_rows([rot2, rot2], h)
    with pytest.raises(ValueError, match="one row of steplengths per scheme"):
        _semitrace_rows([rot2], 1.0)
    with pytest.raises(UnsupportedFamily):
        _semitrace_rows([catalog_scheme("verlet_vel")], np.array([[1.0]]))
