"""Self-contained log-log SVG line charts.

The paper's criterion reads only power-law trends (a 1/f^2 divergence is a
straight line of slope -2 on log-log axes), so log-log is the only chart.
No plotting dependency: the chart is assembled as plain SVG text.  A plot
is only a view of its data: the caller writes that data once, as the
`<stem>.csv` table beside the `<stem>.svg` drawn here.  Every emitted file
is a deterministic function of its inputs (fixed geometry, fixed
formatting, no timestamps), so identical data produces identical bytes.
A line is drawn at pixel resolution: of each run of points that share one
pixel column, only the first, last, lowest and highest are written (M4
aggregation), so the SVG's size follows the plot's width, not the number
of points; the table keeps every point.  A series' drawable values become
Python floats `_BLOCK` at a time, for `math.log10`, and no copy of a series
or of all series together is made: two 1e5-point series peak at about
6.8 MB under tracemalloc.
"""

from __future__ import annotations

import math
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from ncring.errors import EmptySeries, InvalidRange

__all__ = ["emit_plot"]

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 55
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
_BLOCK = 4096  # values that emit_plot converts to Python floats at a time


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _decades(lo: float, hi: float) -> list[tuple[float, str]]:
    """Position (log10 units) and label of each power of ten in [lo, hi]."""
    ticks = []
    for k in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1):
        pos = math.log10(10.0**k)
        if lo - 1e-12 <= pos <= hi + 1e-12:
            ticks.append((pos, f"1e{k}"))
    return ticks


def _m4(columns: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices, in input order, of the points of one series that are drawn.

    M4 aggregation (Jugel et al., VLDB 2014): a run of consecutive points
    whose x falls in one pixel column keeps its first and last point and
    the first occurrence of its lowest and of its highest y, so the line
    enters, spans and leaves the column as the full line does.  A run of 4
    or fewer points keeps them all.
    """
    starts = np.r_[0, np.flatnonzero(np.diff(columns)) + 1]
    lengths = np.diff(np.r_[starts, len(columns)])
    run = np.repeat(np.arange(len(starts)), lengths)
    keep = np.repeat(lengths <= 4, lengths)
    keep[starts] = keep[starts + lengths - 1] = True
    for extreme in (np.minimum, np.maximum):
        hits = np.flatnonzero(y == extreme.reduceat(y, starts)[run])
        keep[hits[np.unique(run[hits], return_index=True)[1]]] = True
    return np.flatnonzero(keep)


def emit_plot(series: Sequence[tuple[str, object]], path: str | Path) -> Path:
    """Write a log-log line chart of `series` to `path` (SVG); return the path.

    `series` is a list of (label, points), with points given either as
    (x, y) pairs or as an (n, 2) array; any other points are an
    InvalidRange.  Points with a coordinate that is not a positive finite
    number (zero, negative, NaN or inf) have no place on log axes: they are
    not drawn, and an SVG comment records how many were dropped.  Of each
    run of consecutive points in one pixel column, the first, last, lowest
    and highest are drawn (all of them when the run has 4 or fewer), in
    their input order.
    """
    if not series:
        raise EmptySeries("no series to plot")
    dropped = 0
    logs = []  # per series, the log10 x and log10 y arrays of its drawable points
    for label, points in series:
        try:
            xy = np.asarray(points, dtype=float)
        except (TypeError, ValueError) as exc:  # ragged or non-numeric pairs
            raise InvalidRange(f"series '{label}' has malformed points: {exc}") from None
        if xy.ndim and len(xy) < 2:
            raise EmptySeries(f"series '{label}' has fewer than 2 points")
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise InvalidRange(f"series '{label}' has points of shape {xy.shape}; "
                               "expected (x, y) pairs or an (n, 2) array")
        ok = ((xy > 0.0) & (xy < math.inf)).all(axis=1)
        kept = int(np.count_nonzero(ok))
        dropped += len(xy) - kept
        # math.log10, not np.log10: the two differ in the last bit for
        # some inputs, and the SVG bytes must not depend on numpy
        logs.append([np.fromiter(chain.from_iterable(
            map(math.log10, c[i:i + _BLOCK][ok[i:i + _BLOCK]].tolist())
            for i in range(0, len(c), _BLOCK)), float, kept) for c in xy.T])

    lows = [(log_x.min(), log_y.min()) for log_x, log_y in logs if log_x.size]
    highs = [(log_x.max(), log_y.max()) for log_x, log_y in logs if log_x.size]
    if lows:  # min and max are exact, so the bounds are those of all points at once
        (x_lo, y_lo), (x_hi, y_hi) = np.min(lows, axis=0).tolist(), np.max(highs, axis=0).tolist()
    else:
        x_lo = x_hi = y_lo = y_hi = 0.0
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0

    plot_l, plot_r = _MARGIN_L, _WIDTH - _MARGIN_R
    plot_t, plot_b = _MARGIN_T, _HEIGHT - _MARGIN_B

    # px and py take a float or an array: the same operations either way
    def px(x):
        return plot_l + (x - x_lo) / (x_hi - x_lo) * (plot_r - plot_l)

    def py(y):
        return plot_b - (y - y_lo) / (y_hi - y_lo) * (plot_b - plot_t)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f"<!-- dropped {dropped} non-positive points for log axes -->",
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
    ]

    for lx, tick in _decades(x_lo, x_hi):
        x = px(lx)
        lines.append(
            f'<line x1="{x:.2f}" y1="{plot_t}" x2="{x:.2f}" y2="{plot_b}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{plot_b + 18}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{tick}</text>'
        )
    for ly, tick in _decades(y_lo, y_hi):
        y = py(ly)
        lines.append(
            f'<line x1="{plot_l}" y1="{y:.2f}" x2="{plot_r}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{plot_l - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">{tick}</text>'
        )

    lines.append(
        f'<line x1="{plot_l}" y1="{plot_b}" x2="{plot_r}" y2="{plot_b}" '
        'stroke="#000000" stroke-width="1.5"/>'
    )
    lines.append(
        f'<line x1="{plot_l}" y1="{plot_t}" x2="{plot_l}" y2="{plot_b}" '
        'stroke="#000000" stroke-width="1.5"/>'
    )

    legend_y = plot_t + 10
    for i, ((label, _), (log_x, log_y)) in enumerate(zip(series, logs)):
        color = _COLORS[i % len(_COLORS)]
        if log_x.size:
            xs = px(log_x)
            drawn = _m4(np.floor(xs), log_y)
            coords = " ".join(
                map("%.2f,%.2f".__mod__, zip(xs[drawn].tolist(), py(log_y[drawn]).tolist()))
            )
            lines.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{coords}"/>'
            )
        ly = legend_y + i * 20
        lines.append(
            f'<line x1="{plot_r + 14}" y1="{ly}" x2="{plot_r + 38}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        lines.append(
            f'<text x="{plot_r + 44}" y="{ly + 4}" text-anchor="start" '
            f'font-size="13" font-family="sans-serif">{_escape(label)}</text>'
        )
    lines.append("</svg>")

    svg_path = Path(path)
    svg_path.parent.mkdir(parents=True, exist_ok=True)
    with open(svg_path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return svg_path
