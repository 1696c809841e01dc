"""Hand-rolled SVG output for region scans and sweep curves.

Plots here are diagnostic, not publication graphics, so everything is
emitted as plain rect/polyline/text primitives with no plotting stack.
"""

from __future__ import annotations

import math
from html import escape
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .stability import RegionGrid, StabilityClass

if TYPE_CHECKING:
    from .analysis import SweepRecord

CLASS_COLORS = {
    StabilityClass.STABLE: "#2a6f97",
    StabilityClass.LINEARLY_UNSTABLE: "#e9c46a",
    StabilityClass.EXPONENTIALLY_UNSTABLE: "#e76f51",
}

_MARGIN = 46.0

#: (width, height) in pixels of the region heat map and the sweep panels.
REGION_SIZE = (640, 640)
SWEEP_SIZE = (820, 380)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _span(lo: float, hi: float) -> tuple[float, float]:
    """An axis range: (lo, hi), widened by 1 on each side when narrower
    than 1e-12, so that one value still gets an axis."""
    return (lo - 1.0, hi + 1.0) if hi - lo < 1e-12 else (lo, hi)


def _axes(
    x0: float, y0: float, x1: float, y1: float,
    xlo: float, xhi: float, ylo: float, yhi: float,
    xlabel: str, ylabel: str,
) -> list[str]:
    """Frame, four ticks per axis, and labels for one panel."""
    parts = [
        f'<rect x="{_fmt(x0)}" y="{_fmt(y1)}" width="{_fmt(x1 - x0)}" '
        f'height="{_fmt(y0 - y1)}" fill="none" stroke="#222" stroke-width="1"/>'
    ]
    for i in range(5):
        t = i / 4.0
        xv = xlo + t * (xhi - xlo)
        px = x0 + t * (x1 - x0)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(y0 + 4)}" stroke="#222" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0 + 16)}" font-size="10" '
            f'text-anchor="middle" fill="#222">{_fmt(xv)}</text>'
        )
        yv = ylo + t * (yhi - ylo)
        py = y0 - t * (y0 - y1)
        parts.append(
            f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" '
            f'y2="{_fmt(py)}" stroke="#222" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 6)}" y="{_fmt(py + 3)}" font-size="10" '
            f'text-anchor="end" fill="#222">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<text x="{_fmt(0.5 * (x0 + x1))}" y="{_fmt(y0 + 32)}" font-size="12" '
        f'text-anchor="middle" fill="#222">{xlabel}</text>'
    )
    parts.append(
        f'<text x="{_fmt(x0 - 36)}" y="{_fmt(0.5 * (y0 + y1))}" font-size="12" '
        f'text-anchor="middle" fill="#222" transform="rotate(-90 {_fmt(x0 - 36)} '
        f'{_fmt(0.5 * (y0 + y1))})">{ylabel}</text>'
    )
    return parts


def region_svg(grid: RegionGrid) -> str:
    """Stability classes over the scanned (eps, h) rectangle, one color
    per class; the axes span the scanned ranges, as the cells do.

    Cells sharing a class are merged along each eps column to keep the
    file small on fine grids.
    """
    width, height = REGION_SIZE
    n_eps = len(grid.eps_nodes)
    n_h = len(grid.h_nodes)
    x0, y0 = _MARGIN, height - _MARGIN
    x1, y1 = width - 12.0, 12.0
    cell_w = (x1 - x0) / n_eps
    cell_h = (y0 - y1) / n_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    # cells are eps-major: a run of one class along an eps column starts
    # at the column's first cell and wherever the class changes
    codes = grid.codes
    starts = np.ones(len(codes), dtype=bool)
    starts[1:] = codes[1:] != codes[:-1]
    starts[::n_h] = True
    first = np.flatnonzero(starts)
    colors = [CLASS_COLORS[kind] for kind in StabilityClass]
    for start, end, code in zip(first.tolist(), [*first[1:].tolist(), len(codes)],
                                codes[first].tolist()):
        i = start // n_h
        px = x0 + i * cell_w
        py = y0 - (end - i * n_h) * cell_h
        parts.append(
            f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(cell_w)}" '
            f'height="{_fmt((end - start) * cell_h)}" '
            f'fill="{colors[code]}"/>'
        )
    parts += _axes(x0, y0, x1, y1, *grid.eps_range, *grid.h_range, "eps", "h")
    parts.append(
        f'<text x="{_fmt(x0)}" y="{_fmt(y1 - 2)}" font-size="12" '
        f'fill="#222">{escape(grid.label or "stability region", quote=False)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)


def _panel_polyline(pts: Sequence[tuple[float, float]], color: str) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="1.5"/>'
    )


def _marker(x: float, y: float, color: str) -> str:
    return f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.5" fill="{color}"/>'


def sweep_svg(records: Sequence[SweepRecord]) -> str:
    """Twin panel over the rotation weight r: critical point (left) and
    semitrace value there (right), exceptional weights marked."""
    rows = [rec for rec in records if math.isfinite(rec.semitrace)]
    if not rows:
        raise ValueError("no usable sweep records to plot")
    width, height = SWEEP_SIZE
    panel_w = (width - 3 * _MARGIN) / 2.0
    y0, y1 = height - _MARGIN, 16.0
    r_lo, r_hi = _span(min(rec.r for rec in rows), max(rec.r for rec in rows))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for panel, (attr, ylabel) in enumerate(
        (("eps_star", "critical eps"), ("semitrace", "semitrace at critical eps"))
    ):
        x0 = _MARGIN + panel * (panel_w + _MARGIN)
        x1 = x0 + panel_w
        vals = [getattr(rec, attr) for rec in rows]
        v_lo, v_hi = _span(min(vals), max(vals))
        pad = 0.06 * (v_hi - v_lo)
        v_lo -= pad
        v_hi += pad

        def sx(r: float) -> float:
            return x0 + (r - r_lo) / (r_hi - r_lo) * (x1 - x0)

        def sy(v: float) -> float:
            return y0 - (v - v_lo) / (v_hi - v_lo) * (y0 - y1)

        if attr == "semitrace" and v_lo < -1.0 < v_hi:
            parts.append(
                f'<line x1="{_fmt(x0)}" y1="{_fmt(sy(-1.0))}" x2="{_fmt(x1)}" '
                f'y2="{_fmt(sy(-1.0))}" stroke="#999" stroke-width="1" '
                f'stroke-dasharray="4 3"/>'
            )
        pts = [(sx(rec.r), sy(getattr(rec, attr))) for rec in rows]
        # a polyline through one point draws nothing: mark that point instead
        curve = _panel_polyline(pts, "#2a6f97") if len(pts) > 1 else _marker(*pts[0], "#2a6f97")
        parts.append(curve)
        parts += [_marker(x, y, "#e76f51") for (x, y), rec in zip(pts, rows) if rec.exceptional]
        parts += _axes(x0, y0, x1, y1, r_lo, r_hi, v_lo, v_hi, "r", ylabel)
    parts.append("</svg>")
    return "\n".join(parts)
