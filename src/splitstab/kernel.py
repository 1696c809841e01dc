"""Transfer matrices of splitting schemes on the scalar model problem.

One step of a scheme applied to  q'' = -(1+eps) q  acts linearly on the
phase-space vector (q, p).  This module builds that 2x2 step matrix, both
numerically for given (eps, h) and symbolically as a matrix with polynomial
entries in eps, from which the stability polynomial (the semitrace) is read
off exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .schemes import FirstFlow, SplittingScheme

class UnsupportedFamily(ValueError):
    """Operation not defined for this scheme family."""


@dataclass(frozen=True)
class TransferMatrix:
    """A 2x2 real step matrix, row-major entries a, b, c, d."""

    a: float
    b: float
    c: float
    d: float

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def semitrace(self) -> float:
        return 0.5 * (self.a + self.d)


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _fold(flows, drifting: bool, coupling, h, one=1.0):
    """Entries (a, b, c, d) of the step matrix: the ``("free"|"kick",
    weight)`` flows multiplied in order, the first stage rightmost; the
    free flow is a drift when ``drifting``, else a rotation, and a kick
    is  p <- p - t coupling q.

    Only ``+`` and ``*`` touch the entries, so one loop serves floats,
    polynomials (``one`` coefficient rows, an eps ``_Operator``) and d x d
    blocks (a matrix ``_Operator``) in (L^T q, L^-1 p) for drift/kick and
    the scaled modes (u, u'/omega) for rotation/kick; ``h`` is a float or
    an array that broadcasts against the rows, and so may each weight be.
    """
    cos, sin = (np.cos, np.sin) if isinstance(h, np.ndarray) else (math.cos, math.sin)
    a, b, c, d = one, 0.0 * one, 0.0 * one, one
    for kind, w in flows:
        t = w * h
        if kind == "kick":
            k = -t * coupling
            c, d = c + k * a, d + k * b
        elif drifting:
            a, b = a + t * c, b + t * d
        else:
            co, si = cos(t), sin(t)
            a, b, c, d = (
                co * a + si * c, co * b + si * d,
                co * c - si * a, co * d - si * b,
            )
    return a, b, c, d


def transfer_matrix(scheme: SplittingScheme, eps: float, h: float) -> TransferMatrix:
    """Step matrix of ``scheme`` on the model problem at (eps, h).

    Flows are applied in scheme order, i.e. the result is the matrix
    product with the first stage rightmost.
    """
    _require_finite("eps", eps)
    _require_finite("h", h)
    drifting = scheme.is_drift_family
    coupling = 1.0 + eps if drifting else eps
    return TransferMatrix(*_fold(scheme.flow_sequence(), drifting, coupling, h))


# ---------------------------------------------------------------------------
# polynomial entries in eps


class _Operator:
    """A linear map on fold entries: ``s * op`` scales it (``s`` a float
    or an array shaped like the rows) and ``op * v`` applies it, as
    ``(s * matrix) @ v`` on d x d blocks or, without a matrix, as the
    indeterminate eps on rows of monomial coefficients (last index =
    power), raising every power of ``v`` by one.  Rows are sized so the
    top entry stays zero."""

    # an ndarray on the left of ``*`` defers to __rmul__
    __array_ufunc__ = None

    def __init__(self, matrix=None, scale=1.0):
        self.matrix, self.scale = matrix, scale

    def __rmul__(self, s) -> "_Operator":
        return _Operator(self.matrix, s * self.scale)

    def __mul__(self, v: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return (self.scale * self.matrix) @ v
        out = np.zeros(v.shape)
        out[..., 1:] = (self.scale * v)[..., :-1]
        return out


def _poly_trim(p: Sequence[float]) -> tuple[float, ...]:
    """Strip trailing coefficients that are exactly zero.

    Only exact zeros go: a tiny trailing coefficient is real information
    (it matters at large eps), so no magnitude threshold is applied.
    """
    n = len(p)
    while n > 1 and p[n - 1] == 0.0:
        n -= 1
    return tuple(p[:n])


def _horner(coeffs, eps):
    """Horner evaluation of monomial ``coeffs`` (constant term first) at
    ``eps``, elementwise on numpy arrays; each coefficient may itself be
    an array broadcast against ``eps``, so (N,) coefficients at N points
    give each of N polynomials at its own point and (N, 1) columns at an
    (N, K) array give polynomial i at the K points of row i."""
    acc = coeffs[-1]
    if not isinstance(eps, float):
        acc = eps * 0 + acc
    for c in reversed(coeffs[:-1]):
        acc = acc * eps + c
    return acc


@dataclass(frozen=True)
class EpsilonPolynomial:
    """The stability polynomial eps -> semitrace of the step matrix, at a
    fixed steplength h.  Coefficients are monomial, constant term first."""

    coeffs: tuple[float, ...]
    h: float

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, eps):
        """Horner evaluation; works elementwise on numpy arrays too."""
        return _horner(self.coeffs, eps)

    def derivative_coeffs(self) -> tuple[float, ...]:
        return tuple(i * c for i, c in enumerate(self.coeffs) if i > 0) or (0.0,)


def _semitrace_rows(schemes, h) -> np.ndarray:
    """Monomial eps-coefficients of the semitrace of T schemes that share
    one flow layout (first flow and stage count), scheme i at the S
    steplengths in row i of the (T, S) array ``h``: a (T, S, n) array of
    rows that keep their trailing zeros.  Each scheme's weights enter the
    fold once, broadcast over its steplengths.

    Only defined for the rotation/kick family; the drift/kick (Verlet)
    comparison family has a different eps-dependence and is rejected.
    """
    scheme, h = schemes[0], np.asarray(h, dtype=float)
    if scheme.first_flow not in (FirstFlow.ROTATION, FirstFlow.KICK):
        raise UnsupportedFamily(
            f"eps-polynomial requires a rotation/kick scheme, got "
            f"{scheme.first_flow.value}-first"
        )
    layout = (scheme.first_flow, scheme.stages)
    if any((s.first_flow, s.stages) != layout for s in schemes):
        raise ValueError("stacked schemes must share one first flow and stage count")
    if h.ndim != 2 or len(h) != len(schemes):
        raise ValueError(f"need one row of steplengths per scheme, got h of shape {h.shape}")
    one = np.zeros(h.shape + (len(scheme.kick_coeffs) + 1,))
    one[..., 0] = 1.0
    weights = np.array([[w for _, w in s.flow_sequence()] for s in schemes])
    flows = [
        (kind, column[:, None, None])
        for (kind, _), column in zip(scheme.flow_sequence(), weights.T)
    ]
    a, _, _, d = _fold(flows, False, _Operator(), h[..., None], one)
    return 0.5 * (a + d)


def epsilon_polynomial(scheme: SplittingScheme, h: float) -> EpsilonPolynomial:
    """Exact monomial coefficients of the stability polynomial at fixed h:
    the (1, 1) case of ``_semitrace_rows``, trailing zeros trimmed."""
    _require_finite("h", h)
    rows = _semitrace_rows([scheme], np.full((1, 1), float(h)))
    return EpsilonPolynomial(_poly_trim(rows[0, 0].tolist()), h)
