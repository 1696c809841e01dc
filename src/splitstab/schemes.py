"""Splitting schemes built from exact rotation and kick flows.

A scheme is an alternating composition of two kinds of exact flows for the
perturbed oscillator  q'' = -q - eps*q.  Rotation stages advance the
unperturbed oscillator, kick stages apply the perturbation impulse.  An
m-stage scheme uses m kicks; consistency requires the rotation weights and
the kick weights to each sum to 1.

Two additional families cover the classical Verlet/leapfrog comparison,
where the free flow is a drift (free flight) instead of a rotation and the
kick carries the full force.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Iterator

from .rng import SplitMix64

#: Tolerance used when validating that coefficient sums equal 1.
CONSISTENCY_TOL = 1e-12

#: Tolerance for palindromy and scheme-equality coefficient comparisons.
COEFF_TOL = 1e-14


class ConsistencyViolation(ValueError):
    """A coefficient family does not sum to 1 within tolerance."""


class ShapeMismatch(ValueError):
    """Coefficient sequence lengths do not fit the declared family."""


class UnknownScheme(KeyError):
    """Catalog lookup for a name that is not registered."""

    # the message itself, not the repr KeyError gives
    __str__ = Exception.__str__


class SingularParameter(ValueError):
    """A closed-form parameter map is evaluated at a singular point."""


class FirstFlow(Enum):
    """Which flow opens the composition, fixing the family layout.

    ROTATION / KICK are the rotation-kick family on the model problem.
    DRIFT / KICK_DK are the drift-kick (Verlet) family, kept for
    comparisons; there the "rotation" slots hold drift weights and kicks
    carry the full force -(1+eps)*q.
    """

    ROTATION = "R"
    KICK = "K"
    DRIFT = "D"
    KICK_DK = "K_DK"


#: Families whose step opens and closes with the free (rotation/drift) flow.
_FREE_FIRST = (FirstFlow.ROTATION, FirstFlow.DRIFT)


def _by_layout(first_flow: FirstFlow, rotation_side, kick_side):
    """Order a (rotation, kick) pair as (outer, inner) for the family: outer
    belongs to the flow that opens and closes the step.  The swap is its own
    inverse, so an (outer, inner) pair comes back as (rotation, kick)."""
    if first_flow in _FREE_FIRST:
        return rotation_side, kick_side
    return kick_side, rotation_side


@dataclass(frozen=True)
class SplittingScheme:
    """An alternating rotation/kick (or drift/kick) composition.

    For ROTATION- and DRIFT-first schemes the layout over one step h is

        free(r_1 h), kick(k_1 h), free(r_2 h), ..., kick(k_m h), free(r_{m+1} h)

    applied left to right, so ``rotation_coeffs`` has m+1 entries and
    ``kick_coeffs`` has m.  KICK-first schemes mirror this (m+1 kicks, m
    free stages).  Zero coefficients are allowed.
    """

    first_flow: FirstFlow
    rotation_coeffs: tuple[float, ...]
    kick_coeffs: tuple[float, ...]
    label: str = ""
    #: Whether the free flow is a drift (DRIFT/KICK_DK), not a rotation;
    #: set from ``first_flow`` on construction, ``replace`` included.
    is_drift_family: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            object.__setattr__(self, "first_flow", FirstFlow(self.first_flow))
        except ValueError:
            raise ShapeMismatch(f"unknown first flow {self.first_flow!r}; known: "
                                f"{', '.join(f.value for f in FirstFlow)}") from None
        rot = tuple(float(x) for x in self.rotation_coeffs)
        kick = tuple(float(x) for x in self.kick_coeffs)
        object.__setattr__(self, "rotation_coeffs", rot)
        object.__setattr__(self, "kick_coeffs", kick)
        outer, inner = self._layout()
        if len(outer) != len(inner) + 1:
            more, fewer = _by_layout(self.first_flow, "rotation", "kick")
            raise ShapeMismatch(
                f"{self.first_flow.value}-first scheme needs one more {more} than "
                f"{fewer}s, got {len(rot)} rotations / {len(kick)} kicks"
            )
        if not inner:
            raise ShapeMismatch("scheme needs at least one stage")
        # the fold walks the flows and reads the family once per step
        # matrix, so resolve them here
        kinds = _by_layout(self.first_flow, "free", "kick")
        flows = [flow for pair in zip(outer, inner) for flow in zip(kinds, pair)]
        object.__setattr__(self, "_flows", (*flows, (kinds[0], outer[-1])))
        object.__setattr__(self, "is_drift_family",
                           self.first_flow in (FirstFlow.DRIFT, FirstFlow.KICK_DK))

    def _layout(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(outer, inner): the m+1 weights of the flow that opens and closes
        the step, and the m weights of the other flow."""
        return _by_layout(self.first_flow, self.rotation_coeffs, self.kick_coeffs)

    @property
    def stages(self) -> int:
        """Number of stages m, the length of the shorter coefficient family.

        An m-stage rotation-first scheme has m kicks between m+1 rotations;
        a kick-first scheme has m rotations between m+1 kicks.  Either way
        the stability polynomial has degree at most m in eps.
        """
        return len(self._layout()[1])

    def flow_sequence(self) -> Iterator[tuple[str, float]]:
        """Yield ("free"|"kick", weight) pairs in order of application."""
        return iter(self._flows)

    @cached_property
    def _half_chain(self) -> tuple[tuple[tuple[str, float], ...], int]:
        """(flows, k): the step is ``flows`` applied 2^k times at the same
        h.  A chain of 2m + 1 flows is halved while m is even, every inner
        weight of its second half repeats the first half's exactly, and
        the middle (seam) weight is exactly the float sum of the last and
        first ones; as free or kick flows of the same kind add, the step
        matrix is then the half's squared.  Built on first use, so drawing
        a scheme costs nothing extra."""
        flows, k = self._flows, 0
        while len(flows) % 4 == 1:
            half = len(flows) // 2
            if (flows[half][1] != flows[-1][1] + flows[0][1]
                    or flows[half + 1:-1] != flows[1:half]):
                break
            flows, k = flows[:half] + flows[-1:], k + 1
        return flows, k

    def rotation_sum(self) -> float:
        return math.fsum(self.rotation_coeffs)

    def kick_sum(self) -> float:
        return math.fsum(self.kick_coeffs)

    def describe(self) -> str:
        name = self.label or "scheme"
        return (
            f"{name}: {self.first_flow.value}-first, {self.stages} stage(s), "
            f"r={list(self.rotation_coeffs)}, k={list(self.kick_coeffs)}"
        )


def check_consistency(scheme: SplittingScheme) -> None:
    """Raise ConsistencyViolation unless both coefficient sums equal 1."""
    rsum = scheme.rotation_sum()
    ksum = scheme.kick_sum()
    # written so that a NaN sum fails the test too
    if not (abs(rsum - 1.0) <= CONSISTENCY_TOL and abs(ksum - 1.0) <= CONSISTENCY_TOL):
        raise ConsistencyViolation(
            f"coefficient sums must be 1: rotations sum to {rsum!r}, "
            f"kicks sum to {ksum!r}"
        )


def _require_json_numbers(key: str, value, nested: bool = False) -> None:
    """Raise TypeError, naming record key ``key``, unless ``value`` is a
    JSON number or, with ``nested``, an array of numbers or of such
    arrays.  A bool or a numeric string is not a number, though ``float``
    takes both."""
    if nested and isinstance(value, list):
        # a row of plain floats and ints passes on its item types alone,
        # so a d = 200 matrix costs 200 set builds, not 40,000 calls
        if not {float, int}.issuperset(map(type, value)):
            for item in value:
                _require_json_numbers(key, item, nested)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must hold JSON numbers, got {value!r}")


def validate_scheme(raw) -> SplittingScheme:
    """Build a validated scheme from a coefficient record.

    ``raw`` is a mapping with keys ``first`` ("R", "K", "D" or "K_DK"),
    ``r``, ``k`` (arrays of JSON numbers) and an optional ``label`` (a
    string, or null for none).  Types, shape and consistency are all
    enforced.
    """
    try:
        first, rot, kick, label = raw["first"], raw["r"], raw["k"], raw.get("label")
        for key, weights in (("r", rot), ("k", kick)):
            if not isinstance(weights, list):
                raise TypeError(f"{key} must be an array, got {weights!r}")
            for weight in weights:
                _require_json_numbers(key, weight)
        if not isinstance(label, (str, type(None))):
            raise TypeError(f"label must be a string or null, got {label!r}")
        scheme = SplittingScheme(FirstFlow(first), tuple(rot), tuple(kick), label or "")
    except (KeyError, TypeError) as exc:
        raise ShapeMismatch(f"malformed scheme record: {exc}") from exc
    except ValueError as exc:
        raise ShapeMismatch(str(exc)) from exc
    check_consistency(scheme)
    return scheme


def scheme_to_record(scheme: SplittingScheme) -> dict:
    """Inverse of validate_scheme, suitable for JSON serialization."""
    return {
        "label": scheme.label,
        "first": scheme.first_flow.value,
        "r": list(scheme.rotation_coeffs),
        "k": list(scheme.kick_coeffs),
    }


def load_scheme_json(path) -> SplittingScheme:
    """Read a scheme record from a JSON file and validate it."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_scheme(json.load(fh))


# ---------------------------------------------------------------------------
# catalog


#: name -> (first_flow, rotation_coeffs, kick_coeffs).  lt_rk kicks first,
#: then rotates fully (r_1 = 0); lt_kr rotates first, then kicks (r_2 = 0).
_CATALOG = {
    "rkr": (FirstFlow.ROTATION, (0.5, 0.5), (1.0,)),
    "krk": (FirstFlow.KICK, (1.0,), (0.5, 0.5)),
    "lt_rk": (FirstFlow.ROTATION, (0.0, 1.0), (1.0,)),
    "lt_kr": (FirstFlow.ROTATION, (1.0, 0.0), (1.0,)),
    "verlet_pos": (FirstFlow.DRIFT, (0.5, 0.5), (1.0,)),
    "verlet_vel": (FirstFlow.KICK_DK, (1.0,), (0.5, 0.5)),
}

#: Catalog entries that take a substep count m, and the scheme they compose.
_COMPOSED = {"rkrm": "rkr", "krkm": "krk"}


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG)) + tuple(sorted(_COMPOSED))


def catalog_scheme(name: str, m: int | None = None) -> SplittingScheme:
    """Return a named scheme; ``rkrm``/``krkm`` require a substep count m."""
    if name in _COMPOSED:
        if m is None:
            raise UnknownScheme(f"scheme {name!r} needs a substep count m")
        composed = compose_substeps(SplittingScheme(*_CATALOG[_COMPOSED[name]]), m)
        return replace(composed, label=f"{name[:-1]}{m}")
    if name in _CATALOG:
        if m is not None and m != 1:
            raise UnknownScheme(f"scheme {name!r} does not take a substep count")
        return SplittingScheme(*_CATALOG[name], label=name)
    raise UnknownScheme(f"unknown scheme {name!r}; known: {', '.join(catalog_names())}")


# ---------------------------------------------------------------------------
# composition and structure


def compose_substeps(scheme: SplittingScheme, m: int) -> SplittingScheme:
    """m-fold self-composition with substep h/m.

    The returned scheme applies ``scheme`` m times with steplength h/m.
    Adjacent free stages at the substep seams are merged by summing their
    weights, so the result is again a strictly alternating scheme of the
    same family.
    """
    if m < 1:
        raise ValueError(f"substep count must be >= 1, got {m}")
    check_consistency(scheme)
    if m == 1:
        return scheme
    outer, inner = ([x / m for x in seq] for seq in scheme._layout())
    merged = list(outer)
    for _ in range(m - 1):
        merged[-1] += outer[0]
        merged.extend(outer[1:])
    rot, kick = _by_layout(scheme.first_flow, tuple(merged), tuple(inner * m))
    label = f"{scheme.label}^{m}" if scheme.label else ""
    return SplittingScheme(scheme.first_flow, rot, kick, label=label)


def is_palindromic(scheme: SplittingScheme) -> bool:
    """True when both coefficient sequences read the same in reverse."""
    r, k = scheme.rotation_coeffs, scheme.kick_coeffs
    ok_r = all(abs(a - b) <= COEFF_TOL for a, b in zip(r, reversed(r)))
    ok_k = all(abs(a - b) <= COEFF_TOL for a, b in zip(k, reversed(k)))
    return ok_r and ok_k


def schemes_equal(a: SplittingScheme, b: SplittingScheme, tol: float = COEFF_TOL) -> bool:
    """Coefficient-wise equality of two schemes of the same family."""
    if a.first_flow is not b.first_flow:
        return False
    if len(a.rotation_coeffs) != len(b.rotation_coeffs):
        return False
    if len(a.kick_coeffs) != len(b.kick_coeffs):
        return False
    pairs = zip(
        a.rotation_coeffs + a.kick_coeffs, b.rotation_coeffs + b.kick_coeffs
    )
    return all(abs(x - y) <= tol for x, y in pairs)


# ---------------------------------------------------------------------------
# the palindromic three-stage family


def three_stage_necessary_k(r: float) -> float:
    """The kick weight forced on the three-stage family by stability near
    steplength pi:  k(r) = -cos(2 pi r) / (4 sin^2(pi r)).

    Raises SingularParameter where sin(pi r) vanishes (integer r), where
    the family degenerates.
    """
    s = math.sin(math.pi * r)
    if abs(s) < 1e-12:
        raise SingularParameter(f"sin(pi*r) vanishes at r={r!r}")
    return -math.cos(2.0 * math.pi * r) / (4.0 * s * s)


def three_stage_scheme(r: float, k: float) -> SplittingScheme:
    """The palindromic kick-first three-stage scheme with rotation weight r
    and outer kick weight k: kicks (k, 1/2 - k, 1/2 - k, k), rotations
    (r, 1 - 2r, r), so both sums equal 1 for every (r, k)."""
    r, k = float(r), float(k)
    scheme = SplittingScheme(
        FirstFlow.KICK,
        rotation_coeffs=(r, 1.0 - 2.0 * r, r),
        kick_coeffs=(k, 0.5 - k, 0.5 - k, k),
        label=f"three_stage(r={r:g})",
    )
    check_consistency(scheme)
    return scheme


# ---------------------------------------------------------------------------
# random scheme draws for the verification suites


def _draw_normalized(rng: SplitMix64, n: int, palindromic: bool) -> tuple[float, ...]:
    while True:
        if palindromic:
            half = [rng.uniform(-0.5, 1.5) for _ in range((n + 1) // 2)]
            vals = half + half[: n // 2][::-1]
        else:
            vals = [rng.uniform(-0.5, 1.5) for _ in range(n)]
        total = math.fsum(vals)
        if abs(total) >= 0.2:
            return tuple(v / total for v in vals)


def _random_scheme(
    rng: SplitMix64, stages: int, first_flow: FirstFlow, palindromic: bool, label: str
) -> SplittingScheme:
    # rotation weights are drawn before kick weights for every family
    n_rot, n_kick = _by_layout(first_flow, stages + 1, stages)
    rot = _draw_normalized(rng, n_rot, palindromic)
    kick = _draw_normalized(rng, n_kick, palindromic)
    return SplittingScheme(first_flow, rot, kick, label=label)


def _random_first_flow(rng: SplitMix64) -> FirstFlow:
    """Rotation- or kick-first on a fair coin flip (one draw)."""
    return FirstFlow.ROTATION if rng.next_u64() & 1 == 0 else FirstFlow.KICK


def random_consistent_scheme(
    rng: SplitMix64, stages: int, first_flow: FirstFlow = FirstFlow.ROTATION
) -> SplittingScheme:
    """Draw a consistent scheme with coefficients uniform in [-0.5, 1.5]
    before normalization.  Draws whose raw sum is near zero are redrawn."""
    return _random_scheme(rng, stages, first_flow, False, f"random_{stages}")


def random_palindromic_scheme(
    rng: SplitMix64, stages: int, first_flow: FirstFlow = FirstFlow.KICK
) -> SplittingScheme:
    """Palindromic variant of random_consistent_scheme."""
    return _random_scheme(rng, stages, first_flow, True, f"random_pal_{stages}")
