"""Minimal self-contained SVG line plots.

Hand-rolled so that experiment figures carry no external assets and are
byte-identical across reruns: fixed canvas, fixed palette, axes with tick
labels, a log x axis and an optional log y axis (decade ticks).
"""

from __future__ import annotations

import math

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 36, 52
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(mult * mag for mult in (1.0, 2.0, 2.5, 5.0, 10.0) if raw <= mult * mag)
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * step:
        ticks.append(round(t / step) * step)
        t += step
    return ticks


def _decade_ticks(lo: float, hi: float) -> list[float]:
    return [10.0**e for e in range(math.ceil(math.log10(lo) - 1e-9),
                                   math.floor(math.log10(hi) + 1e-9) + 1)]


def _fmt(v: float) -> str:
    if v != 0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        return f"{v:.0e}"
    return f"{v:g}"


def line_plot(path, series, *, title: str, xlabel: str, ylabel: str,
              logy: bool = False) -> None:
    """Write a line plot on a log x axis.  ``series`` is a list of
    (label, xs, ys); points off a log axis are dropped."""
    kept = [[(float(x), float(y)) for x, y in zip(xs, ys) if x > 0 and (not logy or y > 0)]
            for _, xs, ys in series]
    if not any(kept):
        raise ValueError("nothing to plot")
    fx, fy = math.log10, (math.log10 if logy else (lambda v: v))
    xs, ys = zip(*(p for pts in kept for p in pts))
    xlo, xhi, ylo, yhi = min(xs), max(xs), min(ys), max(ys)
    if not logy:
        pad = 0.05 * (yhi - ylo or 1.0)
        ylo, yhi = ylo - pad, yhi + pad
    sx = lambda v: _ML + (fx(v) - fx(xlo)) / (fx(xhi) - fx(xlo) or 1.0) * (_W - _ML - _MR)
    sy = lambda v: _H - _MB - (fy(v) - fy(ylo)) / (fy(yhi) - fy(ylo) or 1.0) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>',
           f'<g font-family="sans-serif" font-size="12">',
           f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '  # the axes box
           f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>']
    for t in _decade_ticks(xlo, xhi):
        if not (xlo <= t <= xhi):
            continue
        px = sx(t)
        out.append(f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" '
                   f'y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.2f}" y="{_H - _MB + 18}" '
                   f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _decade_ticks(ylo, yhi) if logy else _nice_ticks(ylo, yhi):  # padded: ylo < yhi
        if not (ylo <= t <= yhi):
            continue
        py = sy(t)
        out.append(f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" '
                   f'y2="{py:.2f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{py + 4:.2f}" '
                   f'text-anchor="end">{_fmt(t)}</text>')
    out.append(f'<text x="{_W / 2}" y="{_MT - 12}" text-anchor="middle" '
               f'font-size="15">{title}</text>')
    out.append(f'<text x="{_W / 2}" y="{_H - 14}" text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{_H / 2}" text-anchor="middle" '
               f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>')
    for i, ((label, _, _), pts) in enumerate(zip(series, kept)):
        color = _PALETTE[i % len(_PALETTE)]
        if not pts:
            continue
        path_d = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{path_d}" fill="none" stroke="{color}" '
                   f'stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        out.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" '
                   f'x2="{_W - _MR - 125}" y2="{ly - 4}" stroke="{color}" '
                   f'stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR - 120}" y="{ly}">{label}</text>')
    out.append("</g></svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
