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


def _fold(flows, drifting: bool, eps, h, one=1.0):
    """Entries (a, b, c, d) of the step matrix: the ``("free"|"kick",
    weight)`` flows multiplied in order, the first stage rightmost; the
    free flow is a drift when ``drifting``, else a rotation.

    Only ``+`` and ``*`` touch the entries and ``eps``, so the same loop
    serves floats and, with ``one`` coefficient rows, polynomials; ``h``
    is a float or an array shaped like the rows, one steplength per row,
    and so may each weight be.
    """
    cos, sin = (np.cos, np.sin) if isinstance(h, np.ndarray) else (math.cos, math.sin)
    a, b, c, d = one, 0.0 * one, 0.0 * one, one
    for kind, w in flows:
        t = w * h
        if kind == "kick":
            k = -t * (1.0 + eps) if drifting else -t * eps
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
    return TransferMatrix(*_fold(scheme.flow_sequence(), scheme.is_drift_family, eps, h))


# ---------------------------------------------------------------------------
# polynomial entries in eps


class _Eps:
    """The indeterminate eps acting on rows of monomial coefficients
    (last index = power): ``s * eps`` scales it (``s`` a float or an array
    shaped like the rows), ``(s * eps) * v`` raises every power of ``v``
    by one.  Rows are sized so the top entry stays zero."""

    # an ndarray on the left of ``*`` defers to __rmul__
    __array_ufunc__ = None

    def __init__(self, scale=1.0):
        self.scale = scale

    def __rmul__(self, s) -> "_Eps":
        return _Eps(s * self.scale)

    def __mul__(self, v: np.ndarray) -> np.ndarray:
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


@dataclass(frozen=True)
class EpsilonPolynomial:
    """The stability polynomial eps -> semitrace of the step matrix, at a
    fixed steplength h.  Coefficients are monomial, constant term first.

    Each coefficient may instead be an array with one entry per row, for
    a stack of polynomials (``h`` then holds the rows' steplengths, or
    their common one), broadcast against ``eps`` in evaluation: (H,)
    coefficients at H points give each row at its own point (the
    three-stage sweep), and (H, 1) columns at an (H, K) array give row i
    at the K points of row i (the witness search)."""

    coeffs: tuple[float, ...]
    h: float

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, eps):
        """Horner evaluation; works elementwise on numpy arrays too."""
        acc = self.coeffs[-1]
        if not isinstance(eps, float):
            acc = eps * 0 + acc
        for c in reversed(self.coeffs[:-1]):
            acc = acc * eps + c
        return acc

    def derivative_coeffs(self) -> tuple[float, ...]:
        return tuple(i * c for i, c in enumerate(self.coeffs) if i > 0) or (0.0,)


def _semitrace_rows(schemes, h) -> np.ndarray:
    """Monomial eps-coefficients of the semitrace: one row for a finite
    float ``h``, an (H, n) array of rows for a 1-D array of H of them.
    Rows keep trailing zeros.

    ``schemes`` is one scheme for every row, or a sequence of H schemes,
    one per row, that share one flow layout (first flow and stage count);
    their weights then enter the fold as columns, like ``h``.

    Only defined for the rotation/kick family; the drift/kick (Verlet)
    comparison family has a different eps-dependence and is rejected.
    """
    stacked = not isinstance(schemes, SplittingScheme)
    scheme = schemes[0] if stacked else schemes
    if scheme.first_flow not in (FirstFlow.ROTATION, FirstFlow.KICK):
        raise UnsupportedFamily(
            f"eps-polynomial requires a rotation/kick scheme, got "
            f"{scheme.first_flow.value}-first"
        )
    if stacked:
        layout = (scheme.first_flow, scheme.stages)
        if any((s.first_flow, s.stages) != layout for s in schemes):
            raise ValueError("stacked schemes must share one first flow and stage count")
        if np.shape(h) != (len(schemes),):
            raise ValueError(f"need one steplength per scheme, got h of shape {np.shape(h)}")
    one = np.zeros(np.shape(h) + (len(scheme.kick_coeffs) + 1,))
    one[..., 0] = 1.0
    flows = scheme.flow_sequence()
    if isinstance(h, np.ndarray):
        # every product in the fold is then elementwise, none broadcasts
        h = np.broadcast_to(h[:, None], one.shape)
    if stacked:
        weights = np.array([[w for _, w in s.flow_sequence()] for s in schemes])
        flows = [
            (kind, np.broadcast_to(column[:, None], one.shape))
            for (kind, _), column in zip(flows, weights.T)
        ]
    a, _, _, d = _fold(flows, False, _Eps(), h, one)
    return 0.5 * (a + d)


def epsilon_polynomial(scheme: SplittingScheme, h: float) -> EpsilonPolynomial:
    """Exact monomial coefficients of the stability polynomial at fixed h:
    the one-row case of ``_semitrace_rows``, trailing zeros trimmed."""
    _require_finite("h", h)
    return EpsilonPolynomial(_poly_trim(_semitrace_rows(scheme, h).tolist()), h)
