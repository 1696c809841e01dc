import math

import numpy as np
import pytest

from splitstab.dynamics import (
    BLOWUP_NORM,
    ExponentialBlowup,
    GeneralProblem,
    NonPositiveLambda,
    NotSimultaneouslyDiagonalizable,
    NotSPD,
    integrate_general,
    integrate_model,
    reduce_to_model,
)
from splitstab import dynamics
from splitstab.kernel import _fold, _Operator, transfer_matrix
from splitstab.schemes import ConsistencyViolation, FirstFlow, SplittingScheme, catalog_scheme
from splitstab.stability import StabilityClass, classify


def test_integrate_model_stable_orbit():
    rep = integrate_model(catalog_scheme("rkr"), 0.5, 1.0, 500)
    assert rep.n_steps == 500
    assert rep.states.shape == (501, 2)
    assert rep.states[0] == pytest.approx([1.0, 0.0])
    assert rep.max_norm < 2.0
    assert rep.empirical_growth == pytest.approx(1.0, abs=1e-4)


def test_integrate_model_growth_matches_classification():
    scheme = catalog_scheme("krk")
    verdict = classify(transfer_matrix(scheme, 2.0, 2.0))
    assert verdict.kind is StabilityClass.EXPONENTIALLY_UNSTABLE
    rep = integrate_model(scheme, 2.0, 2.0, 200)
    assert rep.empirical_growth == pytest.approx(verdict.growth_rate, rel=1e-12)


def test_integrate_model_blowup():
    with pytest.raises(ExponentialBlowup) as info:
        integrate_model(catalog_scheme("rkr"), 4.0, 1.0, 10_000)
    assert info.value.steps_completed == 652
    assert info.value.norm > BLOWUP_NORM


@pytest.mark.parametrize("name, eps, h, q0, p0", [
    ("rkr", 4.0, 1.0, 1.0, 0.0),
    ("krk", 2.0, 2.0, 0.3, -0.7),
    # |q| and |p| both stay below the bound on a stable orbit, their sum does not
    ("rkr", 0.5, 1.0, 6e149, 6e149),
    # the states pass the bound after 1960 steps, the step matrix's powers
    # after about 650 and overflow after about 1300: powers past the bound
    # would overflow S^k z first
    ("rkr", 4.0, 1.0, 1e-300, 0.0),
    # the step matrix itself is past the bound, and S^2 overflows
    ("rkr", 1e300, 1.0, 1.0, 0.0),
    ("rkr", 1e300, 1.0, 1e-300, 0.0),
])
def test_integrate_model_blowup_rule_is_the_general_one(monkeypatch, name, eps, h, q0, p0):
    # integrate_general's rule on one degree of freedom: stop at the first
    # state with |q| + |p| > BLOWUP_NORM and report that sum.  The states
    # are the kernel's 2x2 matrix times the state, one product per step
    m = transfer_matrix(catalog_scheme(name), eps, h)
    mat, z = np.array([[m.a, m.b], [m.c, m.d]]), np.array([q0, p0])
    for step in range(1, 10_000):
        z = mat @ z
        norm = abs(z[0]) + abs(z[1])
        if norm > BLOWUP_NORM:
            break
    with pytest.raises(ExponentialBlowup) as info:
        integrate_model(catalog_scheme(name), eps, h, 10_000, q0=q0, p0=p0)
    # by default the states come from stacked powers of the step matrix,
    # which round differently from one product per step
    assert info.value.steps_completed == step
    assert info.value.norm == pytest.approx(norm, rel=1e-13, abs=0.0)
    with pytest.raises(ExponentialBlowup) as info:
        integrate_general(catalog_scheme(name), GeneralProblem.with_linear_force(
            [[1.0]], [[1.0]], [[eps]]), h, 10_000, [q0, p0])
    assert info.value.steps_completed == step
    # a power span of 1 (4 // (2d)^2) is one product per step, bit for bit
    monkeypatch.setattr(dynamics, "_GUARD_BLOCK_VALUES", 4)
    with pytest.raises(ExponentialBlowup) as info:
        integrate_model(catalog_scheme(name), eps, h, 10_000, q0=q0, p0=p0)
    assert (info.value.steps_completed, info.value.norm) == (step, norm)


def test_integrate_model_argument_checks():
    with pytest.raises(ValueError):
        integrate_model(catalog_scheme("rkr"), 0.5, 1.0, 0)
    with pytest.warns(UserWarning, match="oscillatory"):
        integrate_model(catalog_scheme("rkr"), -1.5, 0.3, 5)
    with pytest.warns(UserWarning, match=r"^eps=-1\.5 <= -1 "):
        integrate_model(catalog_scheme("rkr"), np.float64(-1.5), 0.3, 5)
    with pytest.raises(ConsistencyViolation):
        integrate_model(SplittingScheme(FirstFlow.ROTATION, (0.5, 0.6), (1.0,)), 0.5, 0.3, 5)


def test_integrate_model_initial_state():
    rep = integrate_model(catalog_scheme("krk"), 0.2, 0.7, 3, q0=0.4, p0=-1.1)
    mat = transfer_matrix(catalog_scheme("krk"), 0.2, 0.7)
    q, p = 0.4, -1.1
    for step in range(1, 4):
        q, p = mat.a * q + mat.b * p, mat.c * q + mat.d * p
        assert rep.states[step, 0] == pytest.approx(q, abs=1e-15)
        assert rep.states[step, 1] == pytest.approx(p, abs=1e-15)


def _commuting_linear_problem():
    """Mass, stiffness, and perturbation sharing an eigenbasis after the
    Cholesky change of variables; modes (1.2, eps=0.25) and (3.0, eps=-0.3)."""
    mass = np.array([[2.0, 0.3], [0.3, 1.5]])
    ell = np.linalg.cholesky(mass)
    c, s = math.cos(0.7), math.sin(0.7)
    basis = np.array([[c, -s], [s, c]])
    lams = np.array([1.2, 3.0])
    mus = np.array([0.3, -0.9])
    a_t = basis @ np.diag(lams) @ basis.T
    b_t = basis @ np.diag(mus) @ basis.T
    stiffness = ell @ a_t @ ell.T
    pert = ell @ b_t @ ell.T
    return GeneralProblem.with_linear_force(mass, stiffness, pert)


def test_reduce_to_model_modes():
    red = reduce_to_model(_commuting_linear_problem())
    assert [m.freq_sq for m in red.modes] == pytest.approx([1.2, 3.0], abs=1e-12)
    assert [m.eps for m in red.modes] == pytest.approx([0.25, -0.3], abs=1e-12)


def test_reduce_to_model_sorts_modes_ascending():
    prob = GeneralProblem.with_linear_force(
        np.eye(2), np.diag([4.0, 1.0]), np.diag([0.8, 0.1])
    )
    red = reduce_to_model(prob)
    assert [m.freq_sq for m in red.modes] == pytest.approx([1.0, 4.0])
    assert [m.eps for m in red.modes] == pytest.approx([0.1, 0.2])


def test_reduce_to_model_small_distinct_frequencies_keep_their_perturbations():
    # 1e-9 and 5e-9 are no cluster: each keeps its own eps = mu / lambda
    prob = GeneralProblem.with_linear_force(
        np.eye(2), np.diag([1e-9, 5e-9]), np.diag([2e-10, 1e-10])
    )
    red = reduce_to_model(prob)
    assert [m.freq_sq for m in red.modes] == pytest.approx([1e-9, 5e-9], rel=1e-12)
    assert [m.eps for m in red.modes] == pytest.approx([0.2, 0.02], rel=1e-12)


def test_reduce_to_model_degenerate_cluster():
    # equal transformed-stiffness eigenvalues: the eigenbasis must still be
    # rotated inside the cluster so the perturbation comes out diagonal
    angle = 0.3
    c, s = math.cos(angle), math.sin(angle)
    basis = np.array([[c, -s], [s, c]])
    pert = basis @ np.diag([2.5 * -0.2, 2.5 * 0.32]) @ basis.T
    prob = GeneralProblem.with_linear_force(np.eye(2), 2.5 * np.eye(2), pert)
    red = reduce_to_model(prob)
    assert [m.freq_sq for m in red.modes] == pytest.approx([2.5, 2.5])
    assert sorted(m.eps for m in red.modes) == pytest.approx([-0.2, 0.32], abs=1e-12)


_FRAMED_MUS = (0.4, -0.7, 1.1)


def _framed_problem(lams, symmetric: bool) -> GeneralProblem:
    """A 3-dof problem with A_t = S diag(lams) S^-1 and a commuting
    B_t = S diag(mus) S^-1 on the mass basis; S is orthogonal when
    ``symmetric``, else a well-conditioned non-orthogonal matrix."""
    rng = np.random.default_rng(19)
    g = rng.normal(size=(3, 3))
    mass = g @ g.T / 3 + np.eye(3)
    ell = np.linalg.cholesky(mass)
    s = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
    if symmetric:
        s = np.linalg.qr(s)[0]
    s_inv = np.linalg.inv(s)
    mus = np.array(_FRAMED_MUS)
    stiffness = ell @ s @ np.diag(lams) @ s_inv @ ell.T
    pert = ell @ s @ np.diag(mus) @ s_inv @ ell.T
    if symmetric:
        stiffness, pert = 0.5 * (stiffness + stiffness.T), 0.5 * (pert + pert.T)
    return GeneralProblem.with_linear_force(mass, stiffness, pert)


@pytest.mark.parametrize("lams, symmetric", [
    ([3.0, 1.0, 2.0], True),  # eigh
    ([3.0, 1.0, 2.0], False),  # eig, whose raw order is not ascending
    ([3.5, 2.0, 2.0], True),  # a 2-fold repeated frequency
    ([3.5, 2.0, 2.0], False),  # the same in a non-orthogonal eigenbasis
], ids=["eigh", "eig", "cluster", "eig-cluster"])
def test_modes_is_one_ascending_frame(lams, symmetric):
    # _frame(A_t) is the integrator's plain eigenbasis; reduce reads each
    # mode off the eigenbasis of A_t + t B_t, which diagonalizes both
    prob = _framed_problem(lams, symmetric)
    _, _, a_t, b_t = dynamics._mass_basis(prob)
    assert (float(np.abs(a_t - a_t.T).max()) <= 1e-10) == symmetric
    if not symmetric:
        assert np.any(np.diff(np.linalg.eig(a_t)[0].real) < 0.0)
    got, q, q_inv = dynamics._frame(a_t)
    assert np.all(np.diff(got) >= 0.0)
    assert got == pytest.approx(sorted(lams), rel=1e-12)
    assert np.abs((q * got) @ q_inv - a_t).max() <= 1e-12 * np.abs(a_t).max()
    assert np.abs(q_inv @ q - np.eye(3)).max() <= 1e-12
    red = reduce_to_model(prob)
    freqs = np.array([mode.freq_sq for mode in red.modes])
    mus = np.array([mode.eps for mode in red.modes]) * freqs
    assert np.all(np.diff(freqs) >= 0.0)
    # as pairs ordered by mu, which are distinct where the lams repeat
    want = np.array(sorted(zip(lams, _FRAMED_MUS), key=lambda pair: pair[1]))
    got = np.array(sorted(zip(freqs, mus), key=lambda pair: pair[1]))
    assert got == pytest.approx(want, rel=1e-12)
    v = red.eigenvectors
    for mat, diag in ((a_t, freqs), (b_t, mus)):
        assert np.abs(mat @ v - v * diag).max() <= 1e-12 * np.abs(mat).max() * np.abs(v).max()


def _similar_pair(rng, d: int, lams, mus) -> GeneralProblem:
    """A_t = S diag(lams) S^-1 and B_t = S diag(mus) S^-1 on the mass basis
    of a random SPD mass, S a random well-conditioned non-orthogonal matrix."""
    g = rng.normal(size=(d, d))
    ell = np.linalg.cholesky(g @ g.T / d + np.eye(d))
    s = np.eye(d) + 0.3 * rng.normal(size=(d, d))
    left, right = ell @ s, np.linalg.inv(s) @ ell.T
    return GeneralProblem.with_linear_force(
        ell @ ell.T, left @ np.diag(lams) @ right, left @ np.diag(mus) @ right)


def test_reduce_to_model_commuting_non_symmetric_repeated_frequency():
    # a commuting, non-symmetric pair with lams[1] = lams[0]: the repeated
    # frequency carries two perturbations, and reduce recovers every
    # generating (lam, mu / lam)
    rng = np.random.default_rng(24)
    for d in [2, 3, 4, 5, 6] * 60:
        lams = rng.uniform(0.5, 4.0, d)
        lams[1] = lams[0]
        mus = lams * rng.uniform(-0.6, 0.6, d)
        red = reduce_to_model(_similar_pair(rng, d, lams, mus))
        got = sorted(((mode.freq_sq, mode.eps) for mode in red.modes), key=lambda m: m[1])
        want = sorted(zip(lams, mus / lams), key=lambda m: m[1])
        assert np.array(got) == pytest.approx(np.array(want), abs=1e-11)


def test_reduce_to_model_non_commuting_non_symmetric_pairs_are_not_diagonalizable():
    # A_t + t B_t of a pair that does not commute may have a complex
    # spectrum; that is still NotSimultaneouslyDiagonalizable, not the
    # NonPositiveLambda of a complex stiffness
    rng = np.random.default_rng(5)
    for d in [2, 3, 4, 5] * 50:
        prob = _similar_pair(rng, d, np.sort(rng.uniform(0.5, 4.0, d)), np.zeros(d))
        prob = GeneralProblem.with_linear_force(prob.mass, prob.stiffness,
                                                rng.normal(size=(d, d)))
        with pytest.raises(NotSimultaneouslyDiagonalizable):
            reduce_to_model(prob)


def test_reduce_to_model_error_cases():
    with pytest.raises(ValueError, match="linear"):
        reduce_to_model(GeneralProblem(np.eye(2), np.eye(2)))
    with pytest.raises(NotSPD):
        GeneralProblem.with_linear_force(
            np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), np.eye(2) * 0.1
        )
    with pytest.raises(NotSPD):
        reduce_to_model(
            GeneralProblem.with_linear_force(
                np.diag([1.0, -2.0]), np.eye(2), np.eye(2) * 0.1
            )
        )
    with pytest.raises(NotSimultaneouslyDiagonalizable):
        reduce_to_model(
            GeneralProblem.with_linear_force(
                np.eye(2), np.diag([1.0, 2.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
            )
        )
    with pytest.raises(NonPositiveLambda):
        reduce_to_model(
            GeneralProblem.with_linear_force(
                np.eye(2), np.diag([-1.0, 2.0]), np.diag([0.1, 0.1])
            )
        )


@pytest.mark.parametrize("stiffness", [
    [[1.0, 1.0], [0.0, 1.0]],  # a Jordan block: eig's Q is near-singular
    [[1.0, 1.0], [-1e-30, 1.0]],  # nearly one: the real part of eig's Q is singular
    # a Jordan block at 2 that rounding splits by 4e-8: cond(Q) is 9.5e7,
    # while Q diag(lams) Q^-1 still reconstructs A_t to 6e-9
    [[1.0, 1.0], [-1.0, 3.0]],
    # diagonalizable, but cond(Q) is 2e7: a rotation/kick run would carry
    # a relative error near 1e-8 (6.6e-9 from (0, 1, 0, 0) at h = 0.5 over 20 steps)
    [[1.0, 1.0], [0.0, 1.0 + 1e-7]],
])
def test_defective_stiffness_is_not_diagonalizable(stiffness):
    # rotation/kick and the reduction need an eigenbasis; drift/kick does not
    prob = GeneralProblem.with_linear_force(np.eye(2), stiffness, 0.1 * np.eye(2))
    z0 = [0.0, 1.0, 0.0, 0.0]
    with pytest.raises(NotSimultaneouslyDiagonalizable, match="not diagonalizable"):
        reduce_to_model(prob)
    with pytest.raises(NotSimultaneouslyDiagonalizable, match="not diagonalizable"):
        integrate_general(catalog_scheme("rkr"), prob, 0.5, 20, z0)
    assert integrate_general(catalog_scheme("verlet_vel"), prob, 0.5, 20, z0).n_steps == 20


@pytest.mark.parametrize("stiffness, pert, message", [
    # A_t = I is diagonalizable; the Jordan block is B_t, so A_t + t B_t is defective
    (np.eye(2), [[1.0, 1.0], [0.0, 1.0]], r"^A_t \+ t B_t is not diagonalizable "),
    # the stiffness itself is the Jordan block, and keeps its own message
    ([[1.0, 1.0], [0.0, 1.0]], 0.1 * np.eye(2), r"^transformed stiffness is not diagonalizable "),
], ids=["defective-perturbation", "defective-stiffness"])
def test_reduce_names_the_matrix_that_is_not_diagonalizable(stiffness, pert, message):
    prob = GeneralProblem.with_linear_force(np.eye(2), stiffness, pert)
    with pytest.raises(NotSimultaneouslyDiagonalizable, match=message):
        reduce_to_model(prob)


def _exact_flow(mass, stiffness, h: float, n: int, z0) -> np.ndarray:
    """exp(h n G) z0 with G = [[0, M^-1], [-A, 0]], from mpmath at 40
    digits: the exact flow of M q'' = -A q over n steps of size h."""
    mpmath = pytest.importorskip("mpmath")
    d = len(mass)
    with mpmath.workdps(40):
        gen = mpmath.zeros(2 * d, 2 * d)
        inv_mass = mpmath.matrix(np.asarray(mass).tolist()) ** -1
        for i in range(d):
            for j in range(d):
                gen[i, j + d] = inv_mass[i, j]
                gen[i + d, j] = -mpmath.mpf(stiffness[i][j])
        flow = mpmath.expm(gen * (mpmath.mpf(h) * n)) * mpmath.matrix(np.asarray(z0).tolist())
        return np.array([float(x) for x in flow])


def test_ill_conditioned_diagonalizable_stiffness_below_the_bound_runs():
    # cond(Q) is 2e6 here, under the 1e7 bound; the rotation stages alone
    # are the exact flow
    stiffness = np.array([[1.0, 1.0], [0.0, 1.0 + 1e-6]])
    h, n = 0.5, 20
    z0 = np.array([0.0, 1.0, 0.0, 0.0])
    rep = integrate_general(catalog_scheme("rkr"), GeneralProblem(np.eye(2), stiffness), h, n, z0)
    exact = _exact_flow(np.eye(2), stiffness, h, n, z0)
    assert np.abs(rep.states[-1] - exact).max() <= 1e-9 * np.abs(exact).max()


def test_general_problem_takes_at_most_one_perturbation():
    # a force next to linear_b would be silently ignored by the stepper
    with pytest.raises(ValueError, match="at most one of force and linear_b"):
        GeneralProblem(np.eye(2), np.eye(2), force=lambda q: -(q**3), linear_b=np.eye(2))
    assert GeneralProblem.with_linear_force(np.eye(2), np.eye(2), np.eye(2)).force is None
    assert GeneralProblem.with_cubic_force(np.eye(2), np.eye(2), 0.1).linear_b is None


def _commuting_problem(d: int) -> GeneralProblem:
    """A d-dof linear problem whose A_t and B_t share an eigenbasis, with
    distinct frequencies-squared 1..d and eps_i in (-0.6, 0.6)."""
    rng = np.random.default_rng(d)
    g = rng.normal(size=(d, d))
    mass = g @ g.T / d + np.eye(d)
    ell = np.linalg.cholesky(mass)
    basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
    lams = np.arange(1.0, d + 1.0)
    mus = lams * rng.uniform(-0.6, 0.6, d)
    stiffness = ell @ basis @ np.diag(lams) @ basis.T @ ell.T
    pert = ell @ basis @ np.diag(mus) @ basis.T @ ell.T
    return GeneralProblem.with_linear_force(mass, stiffness, 0.5 * (pert + pert.T))


@pytest.mark.parametrize("name", ["rkrm", "krkm"])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_folded_modal_blocks_are_the_per_mode_transfer_matrices(name, m):
    # with a commuting B the modal kick coupling Lambda^-1 Q^-1 B_t Q is
    # diagonal, so the d x d fold is one model-problem fold per mode: the
    # system's step map is the per-mode transfer matrices of reduce_to_model
    d, h = 4, 0.9
    prob = _commuting_problem(d)
    red = reduce_to_model(prob)
    scheme = catalog_scheme(name, m)
    inv_l = np.linalg.inv(red.cholesky_factor)
    q = red.eigenvectors
    lams = np.array([mode.freq_sq for mode in red.modes])
    omega = np.sqrt(lams)[:, None]
    b_t = inv_l @ prob.linear_b @ inv_l.T
    coupling = _Operator(q.T @ b_t @ q / lams[:, None])
    blocks = _fold(scheme.flow_sequence(), False, coupling, h * omega, np.eye(d))
    for i, mode in enumerate(red.modes):
        mat = transfer_matrix(scheme, mode.eps, h * math.sqrt(mode.freq_sq))
        for block, want in zip(blocks, (mat.a, mat.b, mat.c, mat.d)):
            assert abs(block[i, i] - want) <= 1e-14 * max(1.0, abs(want))
    for block in blocks:
        assert np.abs(block - np.diag(np.diag(block))).max() <= 1e-14
    # and the integrator's step map is those blocks in (q, p) coordinates
    (step, _), = dynamics._step_segments(scheme, prob, h)
    zero = np.zeros((d, d))
    to_modes = np.block([[q.T @ red.cholesky_factor.T, zero], [zero, q.T @ inv_l / omega]])
    modal = to_modes @ step @ np.linalg.inv(to_modes)
    assert np.abs(modal - np.block([list(blocks[:2]), list(blocks[2:])])).max() <= 1e-12


@pytest.mark.parametrize("name", ["verlet_pos", "verlet_vel"])
@pytest.mark.parametrize("linear", [True, False])
def test_drift_kick_step_map_is_the_explicit_block_product(name, linear):
    # a drift is [[I, t M^-1], [0, I]] and a kick [[I, 0], [-t (A + B), I]]
    # on z = (q, p); the step map is their product, the first stage rightmost
    d, h = 5, 0.37
    prob = _commuting_problem(d)
    coupling = prob.stiffness + prob.linear_b if linear else prob.stiffness
    if not linear:
        prob = GeneralProblem(prob.mass, prob.stiffness)
    eye, zero, m_inv = np.eye(d), np.zeros((d, d)), np.linalg.inv(prob.mass)
    want = np.eye(2 * d)
    for kind, w in catalog_scheme(name).flow_sequence():
        t = w * h
        if kind == "kick":
            want = np.block([[eye, zero], [-t * coupling, eye]]) @ want
        else:
            want = np.block([[eye, t * m_inv], [zero, eye]]) @ want
    (step, t), = dynamics._step_segments(catalog_scheme(name), prob, h)
    assert t == 0.0
    assert np.abs(step - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", ["rkr", "krk", "lt_rk", "verlet_pos", "verlet_vel"])
def test_integrate_general_matches_per_mode_model(name):
    prob = _commuting_linear_problem()
    red = reduce_to_model(prob)
    h, n = 0.21, 40
    z0 = np.array([0.7, -0.2, 0.1, 0.9])
    scheme = catalog_scheme(name)
    rep = integrate_general(scheme, prob, h, n, z0)

    ell = red.cholesky_factor
    basis = red.eigenvectors
    inv_l = np.linalg.inv(ell)
    d = prob.dim
    to_u = basis.T @ ell.T
    to_v = basis.T @ inv_l
    for i, mode in enumerate(red.modes):
        omega = math.sqrt(mode.freq_sq)
        u0 = float(to_u[i] @ z0[:d])
        v0 = float(to_v[i] @ z0[d:])
        mode_rep = integrate_model(scheme, mode.eps, h * omega, n, q0=u0, p0=v0 / omega)
        u_general = rep.states[:, :d] @ to_u[i]
        v_general = rep.states[:, d:] @ to_v[i]
        scale = max(1.0, float(np.abs(u_general).max()))
        assert np.abs(u_general - mode_rep.states[:, 0]).max() <= 1e-12 * scale
        assert np.abs(v_general - omega * mode_rep.states[:, 1]).max() <= 1e-12 * scale


def test_integrate_general_scalar_matches_kernel():
    # one degree of freedom: both families must reproduce the 2x2 kernel
    eps, h, n = 0.8, 0.9, 30
    cases = [
        ("rkr", GeneralProblem.with_linear_force([[1.0]], [[1.0]], [[eps]])),
        ("krk", GeneralProblem.with_linear_force([[1.0]], [[1.0]], [[eps]])),
        ("verlet_pos", GeneralProblem([[1.0]], [[1.0 + eps]])),
        ("verlet_vel", GeneralProblem([[1.0]], [[1.0 + eps]])),
    ]
    for name, prob in cases:
        scheme = catalog_scheme(name)
        rep = integrate_general(scheme, prob, h, n, [1.0, 0.0])
        mat = transfer_matrix(scheme, eps, h)
        q, p = 1.0, 0.0
        for step in range(1, n + 1):
            q, p = mat.a * q + mat.b * p, mat.c * q + mat.d * p
            assert rep.states[step, 0] == pytest.approx(q, abs=1e-12)
            assert rep.states[step, 1] == pytest.approx(p, abs=1e-12)


def test_integrate_general_cubic_force_and_blowup_guard():
    prob = GeneralProblem.with_cubic_force([[1.0]], [[1.0]], 0.4)
    rep = integrate_general(catalog_scheme("rkr"), prob, 0.3, 50, [1.0, 0.0])
    assert rep.n_steps == 50
    assert np.all(np.isfinite(rep.states))
    # energy of the perturbed oscillator stays bounded for this steplength
    assert rep.max_norm < 3.0

    with pytest.raises(ValueError, match="z0"):
        integrate_general(catalog_scheme("rkr"), prob, 0.3, 5, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="n_steps"):
        integrate_general(catalog_scheme("rkr"), prob, 0.3, 0, [1.0, 0.0])


@pytest.mark.parametrize("name", ["rkr", "krk", "verlet_pos", "verlet_vel"])
def test_integrate_general_cubic_force_matches_stage_by_stage_loop(name):
    # reference: every stage applied on its own, rotations through numpy's
    # eigh of A (M = I), kicks as p += t (f(q) - A q) in the drift family
    # and p += t f(q) otherwise
    stiffness = np.array([[2.0, 0.3], [0.3, 1.0]])
    delta, h, n = 0.4, 0.3, 50
    z0 = np.array([0.9, -0.4, 0.2, 0.5])
    scheme = catalog_scheme(name)
    prob = GeneralProblem.with_cubic_force(np.eye(2), stiffness, delta)
    rep = integrate_general(scheme, prob, h, n, z0)

    lam, vec = np.linalg.eigh(stiffness)
    w = np.sqrt(lam)
    drifting = scheme.is_drift_family
    q, p = z0[:2], z0[2:]
    for _ in range(n):
        for kind, weight in scheme.flow_sequence():
            t = weight * h
            if kind == "kick":
                p = p + t * (-delta * q**3 - (stiffness @ q if drifting else 0.0))
            elif drifting:
                q = q + t * p
            else:
                u, v = vec.T @ q, vec.T @ p
                c, s = np.cos(w * t), np.sin(w * t)
                q, p = vec @ (c * u + s / w * v), vec @ (-w * s * u + c * v)
    assert np.abs(rep.states[-1] - np.concatenate([q, p])).max() <= 1e-12


@pytest.mark.parametrize("k, pert, h, n, z0, tol", [
    # commuting with A
    ([1e-9, 5e-9], [[2e-10, 0.0], [0.0, 1e-10]], 2000.0, 50, [0.9, -0.4, 2e-5, 5e-5], 1e-12),
    # not commuting
    ([1e-9, 5e-9], [[2e-10, 1e-10], [1e-10, 1e-10]], 2000.0, 50, [0.9, -0.4, 2e-5, 5e-5],
     1e-12),
    # frequencies-squared 5e-9 apart, relative: a rotation of the frame
    # inside that gap ran the stages up to 1.75e-6 off
    ([1.0, 1.0 + 5e-9], [[0.1, 0.05], [0.05, 0.2]], 0.3, 20_000, [0.9, -0.4, 0.2, 0.5], 1e-11),
], ids=["commuting", "coupled", "near-repeated"])
@pytest.mark.parametrize("name", ["rkr", "krk"])
def test_integrate_general_small_distinct_frequencies_are_not_one_cluster(
    name, k, pert, h, n, z0, tol
):
    # the modal frame is A's own eigenbasis, so no mode is rotated into
    # another however close their frequencies.  Reference: stage by stage
    # (M = I, diagonal A), each coordinate's rotation the exact flow
    # exp(t [[0, 1], [-k, 0]]), kicks p -= t B q
    k, pert, z0 = np.array(k), np.array(pert), np.array(z0)
    scheme = catalog_scheme(name)
    rep = integrate_general(scheme, GeneralProblem.with_linear_force(np.eye(2), np.diag(k), pert),
                            h, n, z0)

    w = np.sqrt(k)
    q, p = z0[:2], z0[2:]
    for _ in range(n):
        for kind, weight in scheme.flow_sequence():
            t = weight * h
            if kind == "kick":
                p = p - t * (pert @ q)
            else:
                c, s = np.cos(w * t), np.sin(w * t)
                q, p = c * q + s / w * p, -w * s * q + c * p
    assert np.abs(rep.states[-1, :2] - q).max() <= tol * np.abs(q).max()
    assert np.abs(rep.states[-1, 2:] - p).max() <= tol * np.abs(p).max()


@pytest.mark.parametrize("name", ["rkr", "krk"])
def test_integrate_general_non_symmetric_stiffness_matches_exact_flow(name):
    # M^-1 A = V diag(lams) V^-1 with V not orthogonal: the transformed
    # stiffness is not symmetric, so the modes come from eig, not eigh.
    # Without a force the rotation stages alone are the exact flow.
    mass = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
    basis = np.array([[1.0, 0.4, 0.1], [0.0, 1.0, 0.3], [0.2, 0.0, 1.0]])
    stiffness = mass @ basis @ np.diag([0.7, 1.6, 3.1]) @ np.linalg.inv(basis)
    assert np.abs(stiffness - stiffness.T).max() > 0.1
    h, n = 0.3, 200
    z0 = np.array([0.7, -0.2, 0.4, 0.1, 0.9, -0.5])
    rep = integrate_general(catalog_scheme(name), GeneralProblem(mass, stiffness), h, n, z0)
    exact = _exact_flow(mass, stiffness, h, n, z0)
    assert np.abs(rep.states[-1] - exact).max() <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("name, problem, steps", [
    ("rkr", GeneralProblem.with_linear_force([[1.0]], [[1.0]], [[9.0]]), 134),
    ("verlet_vel", GeneralProblem([[1.0]], [[10.0]]), 114),
])
def test_integrate_general_blowup_steps_completed(name, problem, steps):
    with pytest.raises(ExponentialBlowup) as info:
        integrate_general(catalog_scheme(name), problem, 1.5, 10_000, [1.0, 0.0])
    assert info.value.steps_completed == steps
    assert info.value.norm > BLOWUP_NORM


@pytest.mark.parametrize("values", [2, 6, 258, 1 << 20])
def test_integrate_general_blowup_is_found_in_any_block(monkeypatch, values):
    # the guard checks the stored states a block at a time (1, 3, 129 or
    # every step of a d = 1 run; 1, 1, 43 or every step at d = 3), filled
    # from powers of the step matrix 1, 1, 64 or up to the first power past
    # the bound (d = 1) and 1, 1, 7 or as many (d = 3) steps at a time; the
    # blowup step and norm are those of the first stacked state whose row
    # norm ||q|| + ||p|| passes the bound, and no stored state past the
    # blowup is returned
    scheme = catalog_scheme("rkr")
    d3 = _commuting_problem(3)
    cases = [
        (GeneralProblem.with_linear_force([[1.0]], [[1.0]], [[9.0]]), [1.0, 0.0], 134),
        (GeneralProblem.with_linear_force(d3.mass, d3.stiffness, 9.0 * d3.stiffness),
         [1.0, 0.0, 0.0, 0.0, 0.5, 0.0], 122),
    ]
    monkeypatch.setattr(dynamics, "_GUARD_BLOCK_VALUES", values)
    for problem, z0, want in cases:
        d = problem.dim
        (mat, _), = dynamics._step_segments(scheme, problem, 1.5)
        states = [np.array(z0)]
        with np.errstate(all="ignore"):
            for _ in range(300):
                states.append(mat @ states[-1])
            states = np.array(states)
            norms = np.linalg.norm(states[:, :d], axis=1) + np.linalg.norm(states[:, d:], axis=1)
        step = int(np.flatnonzero(~(norms[1:] <= BLOWUP_NORM))[0]) + 1
        with pytest.raises(ExponentialBlowup) as info:
            integrate_general(scheme, problem, 1.5, 10_000, z0)
        assert info.value.steps_completed == step
        if values // (2 * d) ** 2 <= 1:
            # a power span of 1 is one product per step, bit for bit
            assert info.value.norm == norms[step]
        else:
            # powers of the step matrix round differently from the per-step products
            assert info.value.norm == pytest.approx(norms[step], rel=1e-13, abs=0.0)
        assert step == want
        rep = integrate_general(scheme, problem, 1.5, step - 1, z0)
        assert rep.n_steps == want - 1 and rep.max_norm <= BLOWUP_NORM


def _non_commuting_problem(d: int) -> GeneralProblem:
    """``_commuting_problem(d)`` with a symmetric B that does not commute
    with the stiffness after the mass change of variables."""
    base = _commuting_problem(d)
    g = np.random.default_rng(100 + d).normal(size=(d, d))
    return GeneralProblem.with_linear_force(base.mass, base.stiffness, 0.1 * (g + g.T))


@pytest.mark.parametrize("name", ["rkr", "krk", "verlet_vel"])
@pytest.mark.parametrize("commuting", [True, False])
@pytest.mark.parametrize("d, n", [(1, 20_000), (2, 10_000), (3, 6_000), (20, 1_000)])
def test_linear_blocks_of_powers_match_the_per_step_states(name, commuting, d, n):
    # a linear run fills its states 4096, 1024, 455 or 10 at a time (d = 1,
    # 2, 3, 20) from powers of the step matrix; each run here spans several
    # such chunks and several guard blocks.  Reference: one product
    # mat @ z per step with the same step matrix
    scheme, h = catalog_scheme(name), 0.2
    if d == 1:
        prob = GeneralProblem.with_linear_force([[1.0]], [[1.0]], [[0.3 if commuting else -0.4]])
    elif d == 2 and commuting:
        prob = _commuting_linear_problem()
    else:
        prob = _commuting_problem(d) if commuting else _non_commuting_problem(d)
    z = np.random.default_rng(d).normal(size=2 * d)
    rep = integrate_general(scheme, prob, h, n, z)
    (mat, _), = dynamics._step_segments(scheme, prob, h)
    want = [z]
    for _ in range(n):
        want.append(mat @ want[-1])
    want = np.array(want)
    err = np.abs(rep.states - want).max(axis=1)
    assert (err <= 1e-12 * np.linalg.norm(want, axis=1)).all()


def test_linear_blocks_drift_from_the_exact_powers_no_faster_than_per_step():
    # 200,000 steps of the model problem: the final state against 50-digit
    # S^200000 z0 for the same float step matrix S.  The blocked run was
    # 5.0e-14 off (relative to the state norm), the per-step loop 2.5e-14;
    # shorter spans drift further (1.2e-13 at span 1024, 8.1e-13 at 64)
    mpmath = pytest.importorskip("mpmath")
    scheme, eps, h, n = catalog_scheme("krk"), 0.5, 0.9, 200_000
    blocked = integrate_model(scheme, eps, h, n).states[-1]
    (mat, _), = dynamics._step_segments(
        scheme, GeneralProblem.with_linear_force([[1.0]], [[1.0]], [[eps]]), h)
    z = np.array([1.0, 0.0])
    for _ in range(n):
        z = mat.dot(z)
    with mpmath.workdps(50):
        power, exact, k = mpmath.matrix(mat.tolist()), mpmath.eye(2), n
        while k:
            if k & 1:
                exact = power * exact
            power, k = power * power, k >> 1
        want = np.array([float(x) for x in exact * mpmath.matrix([1.0, 0.0])])
    scale = np.linalg.norm(want)
    per_step_err = np.abs(z - want).max() / scale
    blocked_err = np.abs(blocked - want).max() / scale
    assert blocked_err <= 4.0 * per_step_err
    assert blocked_err <= 1e-12


def test_linear_powers_are_cut_before_the_bound():
    # from q0 = 1e-300 the states stay below the bound for 1959 steps while
    # the step matrix's powers pass it after about 650 steps and overflow
    # after about 1300; a stable run from a tiny state stays tiny
    scheme = catalog_scheme("rkr")
    mat = dynamics._step_segments(
        scheme, GeneralProblem.with_linear_force([[1.0]], [[1.0]], [[4.0]]), 1.0)[0][0]
    want = [np.array([1e-300, 0.0])]
    for _ in range(1959):
        want.append(mat @ want[-1])
    want = np.array(want)
    rep = integrate_model(scheme, 4.0, 1.0, 1959, q0=1e-300)
    assert np.isfinite(rep.states).all() and rep.max_norm <= BLOWUP_NORM
    err = np.abs(rep.states - want).max(axis=1)
    # squares of 1e-300 underflow: the scaled row norms
    assert (err <= 1e-12 * dynamics._row_norms(want)).all()
    rep = integrate_model(catalog_scheme("rkr"), 0.5, 1.0, 20_000, q0=1e-300)
    assert rep.max_norm == pytest.approx(1e-300 * integrate_model(
        catalog_scheme("rkr"), 0.5, 1.0, 20_000).max_norm, rel=1e-12)
    assert rep.empirical_growth == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("c", [1e-200, 1e100])
def test_report_of_a_scaled_initial_state_is_scaled(c):
    # both runs are linear, so c times the initial state gives c times the
    # norms and the same growth; squared entries of 1e-200 underflow, so
    # an unscaled norm would read 0 and the growth 1
    scheme = catalog_scheme("rkr")
    runs = [
        lambda s: integrate_model(scheme, 4.0, 1.0, 100, q0=s),
        lambda s: integrate_general(scheme, _commuting_linear_problem(), 0.3, 200,
                                    s * np.array([1.0, 0.0, 0.0, 0.0])),
    ]
    for run in runs:
        want, got = run(1.0), run(c)
        assert got.max_norm == pytest.approx(c * want.max_norm, rel=1e-12)
        assert got.empirical_growth == pytest.approx(want.empirical_growth, rel=1e-12)


def test_integrate_general_symplectic_jacobian():
    # complex-step Jacobian of the n-step map: symplectic in 1 dof means
    # det J = 1 to machine accuracy even with the cubic perturbation
    prob = GeneralProblem.with_cubic_force([[1.0]], [[1.0]], 0.4)
    delta = 1e-20
    for name in ("verlet_pos", "rkr"):
        scheme = catalog_scheme(name)
        cols = []
        for j in range(2):
            z0 = np.array([0.9, -0.3], dtype=complex)
            z0[j] += 1j * delta
            rep = integrate_general(scheme, prob, 0.3, 25, z0)
            cols.append(rep.states[-1].imag / delta)
        jac = np.column_stack(cols)
        assert abs(np.linalg.det(jac) - 1.0) <= 1e-10
