"""SVG chart emission: the plot only; its data table is the caller's."""

import math
import re

import pytest

from ncring.errors import EmptySeries
from ncring.svgplot import emit_plot


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
