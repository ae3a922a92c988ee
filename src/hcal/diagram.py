"""Deterministic SVG reliability diagrams.

The output is plain hand-assembled SVG text: per-bin accuracy bars, a gap
overlay up to the bin's mean confidence, the identity diagonal, and dashed
overall-accuracy / overall-confidence guide lines.  Identical inputs produce
byte-identical files, so diagrams are diffable in tests.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

import numpy as np

from .metrics import BinStats

_W, _H = 560.0, 560.0
_MARGIN = 60.0
_PLOT = _W - 2 * _MARGIN


def _x(v: float) -> str:
    return f"{_MARGIN + v * _PLOT:.2f}"


def _y(v: float) -> str:
    return f"{_H - _MARGIN - v * _PLOT:.2f}"


def render_reliability_svg(stats: BinStats, title: str = "reliability") -> str:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" height="{_H:.0f}" '
        f'viewBox="0 0 {_W:.0f} {_H:.0f}">',
        f'<rect width="{_W:.0f}" height="{_H:.0f}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="30" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{escape(title)}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{_x(0)}" y1="{_y(0)}" x2="{_x(1)}" y2="{_y(0)}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_x(0)}" y1="{_y(0)}" x2="{_x(0)}" y2="{_y(1)}" stroke="black"/>'
    )
    for tick in np.linspace(0, 1, 6):
        parts.append(
            f'<text x="{_x(tick)}" y="{_H - _MARGIN + 20:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:.1f}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN - 8:.2f}" y="{_y(tick)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:.1f}</text>'
        )
    parts.append(
        f'<text x="{_W / 2:.0f}" y="{_H - 15:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">confidence</text>'
    )
    parts.append(
        f'<text x="18" y="{_H / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 18 {_H / 2:.0f})">accuracy</text>'
    )

    # bars: accuracy in blue, the gap to mean confidence as a red overlay
    for m in range(stats.n_bins):
        if stats.counts[m] == 0:
            continue
        lo, hi = float(stats.lower[m]), float(stats.upper[m])
        acc = float(stats.accuracy[m])
        conf = float(stats.mean_confidence[m])
        x0, x1 = _x(lo + 0.004), _x(hi - 0.004)
        width = float(x1) - float(x0)
        parts.append(
            f'<rect x="{x0}" y="{_y(acc)}" width="{width:.2f}" '
            f'height="{float(_y(0)) - float(_y(acc)):.2f}" fill="#4878cf" fill-opacity="0.85"/>'
        )
        gap_top, gap_bot = max(acc, conf), min(acc, conf)
        if gap_top > gap_bot:
            parts.append(
                f'<rect x="{x0}" y="{_y(gap_top)}" width="{width:.2f}" '
                f'height="{float(_y(gap_bot)) - float(_y(gap_top)):.2f}" '
                f'fill="#d65f5f" fill-opacity="0.45"/>'
            )

    # identity diagonal and overall aggregates (dashed)
    parts.append(
        f'<line x1="{_x(0)}" y1="{_y(0)}" x2="{_x(1)}" y2="{_y(1)}" '
        f'stroke="#555555" stroke-dasharray="6 3"/>'
    )
    parts.append(
        f'<line x1="{_x(stats.overall_confidence)}" y1="{_y(0)}" '
        f'x2="{_x(stats.overall_confidence)}" y2="{_y(1)}" '
        f'stroke="#d65f5f" stroke-dasharray="4 3"/>'
    )
    parts.append(
        f'<line x1="{_x(0)}" y1="{_y(stats.overall_accuracy)}" '
        f'x2="{_x(1)}" y2="{_y(stats.overall_accuracy)}" '
        f'stroke="#4878cf" stroke-dasharray="4 3"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
