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
from typing import NamedTuple

import numpy as np

from .schemes import FirstFlow, SplittingScheme

class UnsupportedFamily(ValueError):
    """Operation not defined for this scheme family."""


class TransferMatrix(NamedTuple):
    """A 2x2 real step matrix, row-major entries a, b, c, d.  A named
    tuple, so ``a, b, c, d = transfer_matrix(...)`` unpacks it."""

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
        raise ValueError(f"{name} must be finite, got {float(value)!r}")


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
            a, c = co * a + si * c, co * c - si * a
            b, d = co * b + si * d, co * d - si * b
    return a, b, c, d


def transfer_matrix(scheme: SplittingScheme, eps: float, h: float) -> TransferMatrix:
    """Step matrix of ``scheme`` on the model problem at (eps, h).

    Flows are applied in scheme order, i.e. the result is the matrix
    product with the first stage rightmost.  A scheme that is 2^k exact
    copies of a shorter chain (an m-substep composition) folds that chain
    and squares the result k times: O(log m) flows, not 2m + 1.
    """
    if not (math.isfinite(eps) and math.isfinite(h)):
        _require_finite("eps", eps)
        _require_finite("h", h)
    drifting = scheme.is_drift_family
    flows, squarings = scheme._half_chain
    mat = _fold(flows, drifting, 1.0 + eps if drifting else eps, h)
    if squarings:
        a, b, c, d = mat
        for _ in range(squarings):
            # the direct product, not tr M - I, which would assume det = 1
            # and leave classify's determinant test nothing to check
            bc, tr = b * c, a + d
            a, b, c, d = a * a + bc, b * tr, c * tr, d * d + bc
        mat = a, b, c, d
    # tuple.__new__ skips the Python frame of the named tuple's __new__
    return tuple.__new__(TransferMatrix, mat)


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


def _flow_weights(schemes) -> np.ndarray:
    """The (T, 2K + 1) flow weights of T rotation/kick schemes, K the
    largest kick count, as rotation-first rows: rotation, kick, ...,
    rotation.  A kick-first scheme gets a weight-0 rotation at each end and
    a shorter scheme trailing weight-0 flows, each an exact identity
    (cos 0 = 1, sin 0 = 0, a kick adds zeros).  Raises UnsupportedFamily
    for the drift/kick (Verlet) family, whose eps-dependence differs."""
    kicks = max((len(s.kick_coeffs) for s in schemes), default=0)
    weights = np.zeros((len(schemes), 2 * kicks + 1))
    for row, scheme in zip(weights, schemes):
        if scheme.first_flow not in (FirstFlow.ROTATION, FirstFlow.KICK):
            raise UnsupportedFamily(f"eps-polynomial requires a rotation/kick scheme, "
                                    f"got {scheme.first_flow.value}-first")
        flows = [w for _, w in scheme.flow_sequence()]
        start = int(scheme.first_flow is FirstFlow.KICK)
        row[start:start + len(flows)] = flows
    return weights


def _semitrace_rows(weights, h) -> np.ndarray:
    """The (N, K + 1) monomial eps-coefficients of the semitrace, trailing
    zeros kept, of row i of the (N, 2K + 1) ``_flow_weights`` at h[i]."""
    h = np.asarray(h, dtype=float)[:, None]
    one = np.zeros((len(weights), weights.shape[1] // 2 + 1))
    one[:, 0] = 1.0
    flows = [(("free", "kick")[j % 2], column[:, None]) for j, column in enumerate(weights.T)]
    a, _, _, d = _fold(flows, False, _Operator(), h, one)
    return 0.5 * (a + d)


def epsilon_polynomial(scheme: SplittingScheme, h: float) -> EpsilonPolynomial:
    """Exact monomial coefficients of the stability polynomial at fixed h:
    the one-row case of ``_semitrace_rows``, trailing zeros trimmed."""
    _require_finite("h", h)
    row = _semitrace_rows(_flow_weights([scheme]), [float(h)])[0]
    # only exact zeros go, the constant term always stays: a tiny trailing
    # coefficient is real information (it matters at large eps)
    row = row[:max(1, len(np.trim_zeros(row, "b")))]
    return EpsilonPolynomial(tuple(row.tolist()), h)
