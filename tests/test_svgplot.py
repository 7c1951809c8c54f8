"""SVG chart emission: the plot only; its data table is the caller's."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncring.errors import EmptySeries
from ncring.svgplot import _m4, emit_plot


def drawn(text: str) -> list[str]:
    """The `x,y` coordinates of the first polyline in an SVG."""
    return re.search(r'<polyline [^>]*points="([^"]*)"', text).group(1).split()


def pixels(points) -> list[tuple[float, float]]:
    """Unrounded pixel coordinates of a lone series' points, placed as emit_plot does."""
    lx = [math.log10(x) for x, _ in points]
    ly = [math.log10(y) for _, y in points]
    x_lo, x_hi, y_lo, y_hi = min(lx), max(lx), min(ly), max(ly)
    return [(70 + (a - x_lo) / (x_hi - x_lo) * 490, 425 - (b - y_lo) / (y_hi - y_lo) * 385)
            for a, b in zip(lx, ly)]


def m4_reference(columns, ys) -> list[int]:
    """The indices M4 keeps, one run of equal columns at a time."""
    kept, start = [], 0
    while start < len(columns):
        end = start
        while end < len(columns) and columns[end] == columns[start]:
            end += 1
        run = range(start, end)
        if len(run) <= 4:
            kept += run
        else:  # min and max return the first of equal keys
            picks = (start, end - 1, min(run, key=ys.__getitem__), max(run, key=ys.__getitem__))
            kept += sorted(set(picks))
        start = end
    return kept


class TestEmitPlot:
    def test_single_series_single_polyline(self, tmp_path):
        points = [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]
        svg = emit_plot([("flat", points)], tmp_path / "flat.svg")
        text = svg.read_text()
        assert text.count("<polyline") == 1
        assert "flat" in text
        assert list(tmp_path.iterdir()) == [svg]  # no data file beside it

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(EmptySeries):
            emit_plot([], tmp_path / "none.svg")
        with pytest.raises(EmptySeries):
            emit_plot([("one", [(0.0, 1.0)])], tmp_path / "one.svg")

    def test_log_axis_drops_nonpositive_points(self, tmp_path):
        points = [(0.1, 0.0), (0.2, 1.0), (0.3, 2.0), (0.4, 0.0)]
        svg = emit_plot([("s", points)], tmp_path / "log.svg")
        text = svg.read_text()
        assert "dropped 2 non-positive points" in text
        drawn = re.search(r'<polyline [^>]*points="([^"]*)"', text).group(1).split()
        assert len(drawn) == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("column", [0, 1])
    def test_log_axis_drops_non_finite_points(self, tmp_path, bad, column):
        finite = [(0.1, 3.0), (0.2, 1.0), (0.3, 2.0)]
        point = [0.25, 5.0]
        point[column] = bad
        points = [*finite[:2], tuple(point), finite[2]]
        text = emit_plot([("s", points)], tmp_path / "bad.svg").read_text()
        clean = emit_plot([("s", finite)], tmp_path / "clean.svg").read_text()
        assert "dropped 1 non-positive points" in text
        # apart from the count, the drawing is that of the finite points alone
        assert text.replace("dropped 1", "dropped 0") == clean

    def test_deterministic_bytes(self, tmp_path):
        points = [(0.1, 1.0), (0.2, 4.0), (0.3, 9.0)]
        a = emit_plot([("s", points)], tmp_path / "a.svg")
        b = emit_plot([("s", points)], tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()


class TestPixelResolution:
    """M4: of each run of points in one pixel column, the first, last, lowest and highest."""

    def test_large_log_grid_series(self, tmp_path):
        rng = np.random.default_rng(5)
        x = np.geomspace(1e-3, 0.4, 100_000)
        points = list(zip(x.tolist(), (x**-2 * (1.0 + 0.1 * rng.random(len(x)))).tolist()))
        text = emit_plot([("s", points)], tmp_path / "large.svg").read_text()
        pix = pixels(points)
        columns = [math.floor(px) for px, _ in pix]
        coords = ["%.2f,%.2f" % p for p in pix]
        # the drawn points are a subsequence of all points: match them in order
        per_column: dict[int, list[str]] = {}
        rest = iter(zip(coords, columns))
        for point in drawn(text):
            column = next(c for xy, c in rest if xy == point)
            per_column.setdefault(column, []).append(point)
        assert set(per_column) == set(columns)
        assert max(map(len, per_column.values())) <= 4
        ys: dict[int, list[tuple[float, int]]] = {}
        for i, ((_, y), column) in enumerate(zip(points, columns)):
            ys.setdefault(column, []).append((y, i))
        for column, column_ys in ys.items():
            for _, i in (min(column_ys), max(column_ys)):
                assert coords[i] in per_column[column]

    def test_sparse_series_draws_every_point(self, tmp_path):
        # up to 4 points in a column keeps them all: the polyline of every point
        x = [1.0, 10.0, 10.001, 10.002, 10.003, 100.0, 100.001, 1000.0]
        points = [(v, 1.0 + (i % 3)) for i, v in enumerate(x)]
        assert max(np.bincount([math.floor(px) for px, _ in pixels(points)])) == 4
        text = emit_plot([("s", points)], tmp_path / "sparse.svg").read_text()
        assert drawn(text) == ["%.2f,%.2f" % p for p in pixels(points)]

    def test_back_and_forth_drawn_as_runs_in_order(self, tmp_path):
        rng = np.random.default_rng(2)
        sweep = np.geomspace(1.0, 1e3, 3000)
        x = np.concatenate((sweep, sweep[::-1], sweep))
        points = list(zip(x.tolist(), rng.uniform(1.0, 10.0, len(x)).tolist()))
        text = emit_plot([("s", points)], tmp_path / "zigzag.svg").read_text()
        pix = pixels(points)
        columns = [math.floor(px) for px, _ in pix]
        kept = m4_reference(columns, [y for _, y in points])
        assert drawn(text) == ["%.2f,%.2f" % pix[i] for i in kept]
        # one run per column per sweep, the sweeps' end columns shared
        runs = [column for column, _ in itertools.groupby(columns[i] for i in kept)]
        up = sorted(set(columns))
        assert runs == up + up[::-1][1:] + up[1:]

    @given(
        steps=st.lists(st.sampled_from([0, 0, 0, 1, -1]), min_size=1, max_size=60),
        ys=st.lists(st.integers(-2, 2), min_size=60, max_size=60),
    )
    @settings(max_examples=200)
    def test_m4_matches_loop(self, steps, ys):
        # mostly zero column steps and few y values: long runs and tied extremes
        y = np.array(ys[: len(steps)], dtype=float)
        for columns in (np.cumsum(np.abs(steps)), np.cumsum(steps)):  # x sorted, x back and forth
            assert _m4(columns, y).tolist() == m4_reference(columns.tolist(), y.tolist())
