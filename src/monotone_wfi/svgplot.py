"""Minimal deterministic SVG line plots.

Self-contained output: inline styling, fixed coordinate formatting, no
timestamps or external assets, so rerunning a command reproduces the
file byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot", "cdf_overlay"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _fmt(x: float) -> str:
    return format(x, ".2f")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def line_plot(
    path,
    series: list[dict],
    *,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
    annotations: tuple[str, ...] = (),
) -> None:
    """Write a line plot; each series is a dict with xs, ys, label and, optionally, dashed."""

    def tx(v: float) -> float:
        return math.log10(v) if logx else v

    def ty(v: float) -> float:
        return math.log10(v) if logy else v

    xs_all = [tx(float(x)) for s in series for x in s["xs"]]
    ys_all = [ty(float(y)) for s in series for y in s["ys"]]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(v: float) -> float:
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="Helvetica, Arial, sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="24" text-anchor="middle" font-size="15">{_esc(title)}</text>',
    ]
    axis = f'stroke="#333" stroke-width="1"'
    out.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" {axis}/>'
    )
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" {axis}/>')

    for v in _ticks(x_lo, x_hi):
        x = px(v)
        label = format(10.0**v if logx else v, ".3g")
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_H - _MB}" x2="{_fmt(x)}" y2="{_H - _MB + 5}" {axis}/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_H - _MB + 18}" text-anchor="middle" font-size="11">{label}</text>'
        )
    for v in _ticks(y_lo, y_hi):
        y = py(v)
        label = format(10.0**v if logy else v, ".3g")
        out.append(
            f'<line x1="{_ML - 5}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" {axis}/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" text-anchor="end" font-size="11">{label}</text>'
        )
    out.append(
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" font-size="12">{_esc(xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H // 2})">{_esc(ylabel)}</text>'
    )

    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{_fmt(px(tx(float(x))))},{_fmt(py(ty(float(y))))}"
            for x, y in zip(s["xs"], s["ys"])
        )
        dash = ' stroke-dasharray="6,4"' if s.get("dashed") else ""
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
        )
    legend_y = _MT + 6
    for i, s in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        out.append(
            f'<text x="{_W - _MR - 6}" y="{legend_y + 14 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{_esc(s["label"])}</text>'
        )
    base = legend_y + 14 * len(series) + 6
    for j, note in enumerate(annotations):
        out.append(
            f'<text x="{_W - _MR - 6}" y="{base + 13 * j}" text-anchor="end" '
            f'font-size="11" fill="#333">{_esc(note)}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def cdf_overlay(path, samples: list, labels: list[str], *, title: str = "") -> None:
    """Overlaid empirical CDFs, decimated to keep files small."""
    series = []
    for draw, label in zip(samples, labels):
        arr = np.sort(np.asarray(draw, dtype=float))
        n = arr.size
        idx = np.unique(np.linspace(0, n - 1, min(n, 512)).astype(int))
        series.append(
            {"xs": arr[idx].tolist(), "ys": ((idx + 1) / n).tolist(), "label": label}
        )
    line_plot(path, series, title=title, xlabel="value", ylabel="empirical CDF")
