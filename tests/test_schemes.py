import json
import math
from dataclasses import replace

import pytest

from splitstab.kernel import _fold, transfer_matrix
from splitstab.rng import SplitMix64
from splitstab.schemes import (
    ConsistencyViolation,
    FirstFlow,
    ShapeMismatch,
    SingularParameter,
    SplittingScheme,
    UnknownScheme,
    catalog_names,
    catalog_scheme,
    check_consistency,
    compose_substeps,
    is_palindromic,
    load_scheme_json,
    random_consistent_scheme,
    random_palindromic_scheme,
    scheme_to_record,
    schemes_equal,
    three_stage_necessary_k,
    three_stage_scheme,
    validate_scheme,
)


def test_catalog_strang_coefficients():
    rkr = catalog_scheme("rkr")
    assert rkr.first_flow is FirstFlow.ROTATION
    assert rkr.rotation_coeffs == (0.5, 0.5)
    assert rkr.kick_coeffs == (1.0,)
    assert rkr.stages == 1

    krk = catalog_scheme("krk")
    assert krk.first_flow is FirstFlow.KICK
    assert krk.kick_coeffs == (0.5, 0.5)
    assert krk.rotation_coeffs == (1.0,)
    assert krk.stages == 1


def test_catalog_lie_trotter_variants():
    lt_rk = catalog_scheme("lt_rk")
    assert lt_rk.rotation_coeffs == (0.0, 1.0)
    assert lt_rk.kick_coeffs == (1.0,)
    lt_kr = catalog_scheme("lt_kr")
    assert lt_kr.rotation_coeffs == (1.0, 0.0)
    assert not is_palindromic(lt_rk)
    assert not is_palindromic(lt_kr)


def test_catalog_verlet_families():
    pos = catalog_scheme("verlet_pos")
    vel = catalog_scheme("verlet_vel")
    assert pos.first_flow is FirstFlow.DRIFT
    assert vel.first_flow is FirstFlow.KICK_DK
    assert pos.is_drift_family and vel.is_drift_family
    assert not catalog_scheme("rkr").is_drift_family


def test_replace_re_resolves_the_fold_family():
    rkr = catalog_scheme("rkr")
    pos = replace(rkr, first_flow=FirstFlow.DRIFT)
    assert pos.is_drift_family and not rkr.is_drift_family
    assert list(pos.flow_sequence()) == list(catalog_scheme("verlet_pos").flow_sequence())
    assert transfer_matrix(pos, 0.5, 1.0) == transfer_matrix(catalog_scheme("verlet_pos"), 0.5, 1.0)
    krk = replace(pos, first_flow=FirstFlow.KICK, rotation_coeffs=(1.0,), kick_coeffs=(0.5, 0.5))
    assert not krk.is_drift_family
    assert transfer_matrix(krk, 0.5, 1.0) == transfer_matrix(catalog_scheme("krk"), 0.5, 1.0)
    # the family is derived, never given, and plays no part in equality
    # or the repr
    with pytest.raises(ValueError, match="init=False"):
        replace(rkr, is_drift_family=True)
    with pytest.raises(TypeError):
        SplittingScheme(FirstFlow.ROTATION, (0.5, 0.5), (1.0,), is_drift_family=True)
    assert replace(pos, first_flow=FirstFlow.ROTATION) == rkr
    assert "is_drift_family" not in repr(pos)


@pytest.mark.parametrize("flow, rot, kick", [
    (FirstFlow.ROTATION, (0.5, 0.5), (1.0,)),
    (FirstFlow.KICK, (1.0,), (0.5, 0.5)),
    (FirstFlow.DRIFT, (0.5, 0.5), (1.0,)),
    (FirstFlow.KICK_DK, (1.0,), (0.5, 0.5)),
])
def test_first_flow_given_by_its_value_builds_the_enum_scheme(flow, rot, kick):
    by_value = SplittingScheme(flow.value, rot, kick)
    by_member = SplittingScheme(flow, rot, kick)
    assert by_value.first_flow is flow
    assert by_value == by_member
    assert by_value.is_drift_family == by_member.is_drift_family
    assert by_value._flows == by_member._flows


@pytest.mark.parametrize("flow", ["X", "r", "ROTATION", None])
def test_unknown_first_flow_is_a_shape_mismatch_naming_it(flow):
    with pytest.raises(ShapeMismatch, match=f"unknown first flow {flow!r}"):
        SplittingScheme(flow, (0.5, 0.5), (1.0,))


def test_catalog_unknown_name():
    with pytest.raises(UnknownScheme):
        catalog_scheme("nope")
    with pytest.raises(UnknownScheme):
        catalog_scheme("rkrm")  # needs m
    with pytest.raises(UnknownScheme):
        catalog_scheme("rkr", m=4)  # does not take m
    assert "rkr" in catalog_names() and "krkm" in catalog_names()


def test_unknown_scheme_prints_its_message():
    # a KeyError, whose str() would be the quoted repr of the message
    with pytest.raises(KeyError) as info:
        catalog_scheme("rkrm")
    assert isinstance(info.value, UnknownScheme)
    assert str(info.value) == "scheme 'rkrm' needs a substep count m"


def test_composed_substep_coefficients():
    krk3 = catalog_scheme("krkm", 3)
    assert krk3.label == "krk3"
    assert krk3.stages == 3
    assert krk3.rotation_coeffs == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)
    assert krk3.kick_coeffs == pytest.approx((1 / 6, 1 / 3, 1 / 3, 1 / 6), abs=1e-15)

    rkr2 = compose_substeps(catalog_scheme("rkr"), 2)
    assert rkr2.rotation_coeffs == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)
    assert rkr2.kick_coeffs == pytest.approx((0.5, 0.5), abs=1e-15)
    assert rkr2.stages == 2


def test_compose_identity_and_consistency():
    rkr = catalog_scheme("rkr")
    assert schemes_equal(compose_substeps(rkr, 1), rkr)
    for m in (2, 3, 5):
        comp = compose_substeps(rkr, m)
        check_consistency(comp)
        assert comp.stages == m
        assert is_palindromic(comp)


def test_flow_sequence_order():
    rkr = catalog_scheme("rkr")
    assert list(rkr.flow_sequence()) == [("free", 0.5), ("kick", 1.0), ("free", 0.5)]
    krk = catalog_scheme("krk")
    assert list(krk.flow_sequence()) == [("kick", 0.5), ("free", 1.0), ("kick", 0.5)]
    pos = catalog_scheme("verlet_pos")
    assert list(pos.flow_sequence()) == [("free", 0.5), ("kick", 1.0), ("free", 0.5)]


def test_consistency_sums():
    for name in ("rkr", "krk", "lt_rk", "lt_kr", "verlet_pos", "verlet_vel"):
        scheme = catalog_scheme(name)
        assert scheme.rotation_sum() == pytest.approx(1.0, abs=1e-15)
        assert scheme.kick_sum() == pytest.approx(1.0, abs=1e-15)
        check_consistency(scheme)


def test_inconsistent_scheme_detected_but_constructible():
    # negative control: construction is shape-only, the checker must object
    bad = SplittingScheme(FirstFlow.ROTATION, (0.5, 0.6), (1.0,))
    with pytest.raises(ConsistencyViolation):
        check_consistency(bad)
    bad_kick = SplittingScheme(FirstFlow.ROTATION, (0.5, 0.5), (0.9,))
    with pytest.raises(ConsistencyViolation):
        check_consistency(bad_kick)


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        SplittingScheme(FirstFlow.ROTATION, (0.5, 0.5), ())  # no kicks
    with pytest.raises(ShapeMismatch):
        SplittingScheme(FirstFlow.ROTATION, (1.0,), (1.0,))  # needs m+1 rotations
    with pytest.raises(ShapeMismatch):
        SplittingScheme(FirstFlow.KICK, (1.0,), (1.0,))  # needs m+1 kicks
    with pytest.raises(ShapeMismatch):
        SplittingScheme(FirstFlow.KICK, (), (0.5, 0.5))  # no rotations


def test_stage_counts():
    assert catalog_scheme("krkm", 5).stages == 5
    assert catalog_scheme("rkrm", 4).stages == 4
    three = three_stage_scheme(0.3, three_stage_necessary_k(0.3))
    assert three.stages == 3


def test_validate_scheme_roundtrip(tmp_path):
    scheme = catalog_scheme("krkm", 2)
    record = scheme_to_record(scheme)
    again = validate_scheme(record)
    assert schemes_equal(scheme, again)
    assert again.label == "krk2"

    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(record))
    loaded = load_scheme_json(path)
    assert schemes_equal(scheme, loaded)


def test_validate_scheme_rejects_bad_records():
    with pytest.raises(ShapeMismatch):
        validate_scheme({"first": "R", "r": [0.5, 0.5]})  # missing k
    with pytest.raises(ShapeMismatch):
        validate_scheme({"first": "Q", "r": [0.5, 0.5], "k": [1.0]})
    with pytest.raises(ConsistencyViolation):
        validate_scheme({"first": "R", "r": [0.5, 0.6], "k": [1.0]})
    with pytest.raises(ConsistencyViolation):  # a NaN sum must fail too
        validate_scheme({"first": "K", "r": [1.0], "k": [0.5, math.nan]})


def test_three_stage_necessary_k_exceptional_values():
    # the three collapses: r=1/4 kills the inner kicks' correction,
    # r=1/3 gives the uniform three-substep scheme, r=1/2 the two-substep
    assert three_stage_necessary_k(0.25) == pytest.approx(0.0, abs=1e-12)
    assert three_stage_necessary_k(1 / 3) == pytest.approx(1 / 6, abs=1e-12)
    assert three_stage_necessary_k(0.5) == pytest.approx(0.25, abs=1e-12)


def test_three_stage_necessary_k_singular():
    for r in (0.0, 1.0, -1.0, 2.0):
        with pytest.raises(SingularParameter):
            three_stage_necessary_k(r)


def test_three_stage_scheme_structure():
    r = 0.3
    k = three_stage_necessary_k(r)
    scheme = three_stage_scheme(r, k)
    assert scheme.first_flow is FirstFlow.KICK
    assert scheme.kick_coeffs == pytest.approx((k, 0.5 - k, 0.5 - k, k), abs=1e-15)
    assert scheme.rotation_coeffs == pytest.approx((r, 1 - 2 * r, r), abs=1e-15)
    check_consistency(scheme)
    assert is_palindromic(scheme)


def test_three_stage_at_one_third_is_uniform_substep():
    scheme = three_stage_scheme(1 / 3, three_stage_necessary_k(1 / 3))
    assert schemes_equal(scheme, catalog_scheme("krkm", 3), tol=1e-12)


def test_random_consistent_schemes():
    rng = SplitMix64(3)
    for _ in range(100):
        stages = 1 + rng.randint(0, 5)
        first = FirstFlow.ROTATION if rng.next_u64() & 1 == 0 else FirstFlow.KICK
        scheme = random_consistent_scheme(rng, stages, first_flow=first)
        check_consistency(scheme)
        assert scheme.stages == stages
        if first is FirstFlow.ROTATION:
            assert len(scheme.rotation_coeffs) == stages + 1
            assert len(scheme.kick_coeffs) == stages
        else:
            assert len(scheme.rotation_coeffs) == stages
            assert len(scheme.kick_coeffs) == stages + 1


def test_random_palindromic_schemes():
    rng = SplitMix64(4)
    for _ in range(100):
        stages = 1 + rng.randint(0, 4)
        first = FirstFlow.ROTATION if rng.next_u64() & 1 == 0 else FirstFlow.KICK
        scheme = random_palindromic_scheme(rng, stages, first_flow=first)
        check_consistency(scheme)
        assert is_palindromic(scheme)
        assert scheme.stages == stages


def test_random_draws_deterministic():
    a = random_consistent_scheme(SplitMix64(11), 3)
    b = random_consistent_scheme(SplitMix64(11), 3)
    assert a.rotation_coeffs == b.rotation_coeffs
    assert a.kick_coeffs == b.kick_coeffs


def test_palindromic_predicate():
    assert is_palindromic(catalog_scheme("rkr"))
    assert is_palindromic(catalog_scheme("krk"))
    assert is_palindromic(catalog_scheme("krkm", 4))
    assert is_palindromic(catalog_scheme("verlet_pos"))
    assert not is_palindromic(
        SplittingScheme(FirstFlow.ROTATION, (0.2, 0.3, 0.5), (0.6, 0.4))
    )


def test_schemes_equal_ignores_label_not_family():
    a = catalog_scheme("rkr")
    b = SplittingScheme(FirstFlow.ROTATION, (0.5, 0.5), (1.0,), label="other")
    assert schemes_equal(a, b)
    c = catalog_scheme("krk")
    assert not schemes_equal(a, c)


def test_describe_mentions_structure():
    text = catalog_scheme("krkm", 3).describe()
    assert "3" in text


# ---------------------------------------------------------------------------
# the layout of all four families


def _merge_same_kind(flows):
    merged = []
    for kind, w in flows:
        if merged and merged[-1][0] == kind:
            merged[-1] = (kind, merged[-1][1] + w)
        else:
            merged.append((kind, w))
    return merged


@pytest.mark.parametrize("first", list(FirstFlow))
def test_compose_substeps_flow_sequence_every_family(first):
    rng = SplitMix64(21)
    for stages in (1, 2, 4):
        scheme = random_consistent_scheme(rng, stages, first_flow=first)
        for m in (2, 3, 5):
            composed = compose_substeps(scheme, m)
            expected = _merge_same_kind(
                [(kind, w / m) for kind, w in scheme.flow_sequence()] * m
            )
            got = list(composed.flow_sequence())
            assert [kind for kind, _ in got] == [kind for kind, _ in expected]
            assert [w for _, w in got] == pytest.approx(
                [w for _, w in expected], rel=1e-15, abs=1e-15
            )
            assert composed.first_flow is first
            assert composed.stages == m * stages
            check_consistency(composed)


@pytest.mark.parametrize("first", list(FirstFlow))
def test_stages_is_the_inner_weight_count(first):
    rng = SplitMix64(22)
    inner_kind = "kick" if first in (FirstFlow.ROTATION, FirstFlow.DRIFT) else "free"
    for stages in range(1, 6):
        scheme = random_palindromic_scheme(rng, stages, first_flow=first)
        flows = list(scheme.flow_sequence())
        assert scheme.stages == stages
        assert scheme.stages == min(len(scheme.rotation_coeffs), len(scheme.kick_coeffs))
        assert scheme.stages == sum(kind == inner_kind for kind, _ in flows)
        assert len(flows) == 2 * stages + 1 and flows[0][0] != inner_kind


@pytest.mark.parametrize("first, message", [
    (FirstFlow.ROTATION, "R-first scheme needs one more rotation than kicks, "
                         "got 1 rotations / 1 kicks"),
    (FirstFlow.DRIFT, "D-first scheme needs one more rotation than kicks, "
                      "got 1 rotations / 1 kicks"),
    (FirstFlow.KICK, "K-first scheme needs one more kick than rotations, "
                     "got 1 rotations / 1 kicks"),
    (FirstFlow.KICK_DK, "K_DK-first scheme needs one more kick than rotations, "
                        "got 1 rotations / 1 kicks"),
])
def test_shape_mismatch_messages_per_family(first, message):
    with pytest.raises(ShapeMismatch) as info:
        SplittingScheme(first, (1.0,), (1.0,))
    assert str(info.value) == message
    no_inner = ((1.0,), ()) if first in (FirstFlow.ROTATION, FirstFlow.DRIFT) else ((), (1.0,))
    with pytest.raises(ShapeMismatch) as info:
        SplittingScheme(first, *no_inner)
    assert str(info.value) == "scheme needs at least one stage"


@pytest.mark.parametrize("first", list(FirstFlow))
def test_random_draws_take_rotation_weights_first(first):
    # the SplitMix64 stream feeds the rotation weights before the kicks,
    # whichever flow opens the step
    stages = 3
    n_rot = stages + 1 if first in (FirstFlow.ROTATION, FirstFlow.DRIFT) else stages
    rng = SplitMix64(5)
    raw = [rng.uniform(-0.5, 1.5) for _ in range(n_rot)]
    assert abs(math.fsum(raw)) >= 0.2  # no redraw at this seed
    scheme = random_consistent_scheme(SplitMix64(5), stages, first_flow=first)
    assert scheme.rotation_coeffs == tuple(v / math.fsum(raw) for v in raw)


# ---------------------------------------------------------------------------
# the half-chain transfer_matrix folds and squares


def _halvings(scheme):
    flows, k = scheme._half_chain
    return len(flows), k


@pytest.mark.parametrize("first", list(FirstFlow))
def test_compose_substeps_power_of_two_is_halved_to_one_copy(first):
    rng = SplitMix64(22)
    for stages in (1, 2, 3):
        scheme = random_consistent_scheme(rng, stages, first_flow=first)
        assert _halvings(scheme) == (2 * stages + 1, 0)
        for k in range(1, 6):
            flows, halvings = compose_substeps(scheme, 2**k)._half_chain
            assert halvings == k and len(flows) == 2 * stages + 1
            # the copy at substep h / 2^k, exactly: 2^k divides without rounding
            assert flows == tuple((kind, w / 2**k) for kind, w in scheme.flow_sequence())


@pytest.mark.parametrize("name", ["rkrm", "krkm"])
def test_odd_substep_blocks_are_kept(name):
    # m = 3 is not halved; m = 6 and m = 12 keep a 3-substep block
    assert _halvings(catalog_scheme(name, 3)) == (7, 0)
    assert _halvings(catalog_scheme(name, 6)) == (7, 1)
    assert _halvings(catalog_scheme(name, 12)) == (7, 2)
    assert _halvings(catalog_scheme(name, 48)) == (7, 4)
    assert _halvings(catalog_scheme(name, 16)) == (3, 4)
    for single in ("rkr", "krk", "lt_rk", "verlet_pos", "verlet_vel"):
        assert _halvings(catalog_scheme(single)) == (3, 0)


def test_periodic_json_scheme_is_halved(tmp_path):
    # four copies of r = (1/16, 3/16), k = 1/4, seams 1/16 + 3/16 = 1/4,
    # written out by hand rather than composed
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps({"first": "R", "r": [0.0625, 0.25, 0.25, 0.25, 0.1875],
                                "k": [0.25, 0.25, 0.25, 0.25]}))
    flows, k = load_scheme_json(path)._half_chain
    assert k == 2 and flows == (("free", 0.0625), ("kick", 0.25), ("free", 0.1875))
    # a composed drift/kick scheme too
    assert _halvings(compose_substeps(catalog_scheme("verlet_pos"), 8)) == (3, 3)


def test_inexact_repeats_are_not_halved():
    rkr8 = catalog_scheme("rkrm", 8)
    up = math.nextafter(0.125, 1.0)
    # one ulp off at the middle seam, at an outer seam, or one kick
    middle = replace(rkr8, rotation_coeffs=(*rkr8.rotation_coeffs[:4], up, *rkr8.rotation_coeffs[5:]))
    outer = replace(rkr8, rotation_coeffs=(*rkr8.rotation_coeffs[:6], up, *rkr8.rotation_coeffs[7:]))
    kick = replace(rkr8, kick_coeffs=(*rkr8.kick_coeffs[:5], up, *rkr8.kick_coeffs[6:]))
    krk16 = catalog_scheme("krkm", 16)
    kicks = krk16.kick_coeffs
    krk_kick = replace(krk16, kick_coeffs=(*kicks[:9], math.nextafter(kicks[9], 0.0), *kicks[10:]))
    for scheme in (middle, outer, kick, krk_kick):
        assert scheme._half_chain == (scheme._flows, 0)
        for eps, h in ((0.3, 2.0), (-0.9, 11.0), (5.5, 40.0)):
            flat = _fold(scheme._flows, False, eps, h)
            assert [x.hex() for x in transfer_matrix(scheme, eps, h)] == [x.hex() for x in flat]
    # the second half repeats but the seam is not the float sum of the ends
    assert _halvings(SplittingScheme(FirstFlow.ROTATION, (0.1, 0.3, 0.6), (0.5, 0.5))) == (5, 0)


def test_replace_keeps_the_half_chain():
    krk16 = catalog_scheme("krkm", 16)
    relabelled = replace(krk16, label="other")
    assert relabelled._half_chain == krk16._half_chain
    for eps, h in ((0.3, 2.0), (-0.9, 40.0), (5.5, 49.0)):
        assert transfer_matrix(relabelled, eps, h) == transfer_matrix(krk16, eps, h)
