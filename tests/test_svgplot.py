"""SVG chart emission and its CSV twin."""

import numpy as np
import pytest

from ncring.errors import EmptySeries
from ncring.model import RingSystem, lambda_signature
from ncring.svgplot import emit_plot


class TestEmitPlot:
    def test_single_series_single_polyline(self, tmp_path):
        points = [(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)]
        svg = emit_plot([("flat", points)], tmp_path / "flat.svg")
        text = svg.read_text()
        assert text.count("<polyline") == 1
        assert "flat" in text

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
        # the CSV twin keeps everything
        csv_text = svg.with_suffix(".csv").read_text()
        assert csv_text.count("\n") == 5  # header + 4 rows

    def test_csv_twin_round_trips_values(self, tmp_path):
        xs = [0.1, 0.2, 0.30000000000000004]
        ys = [1e-5, 2.5e-5, -3.125e-7]
        svg = emit_plot([("vals", list(zip(xs, ys)))], tmp_path / "vals.svg")
        rows = svg.with_suffix(".csv").read_text().splitlines()[1:]
        parsed = [tuple(r.split(",")) for r in rows]
        assert [float(x) for _, x, _ in parsed] == xs
        assert [float(y) for _, _, y in parsed] == ys

    def test_emitted_signature_slope_recoverable(self, tmp_path):
        # a log-log straight line of slope -2 must survive the CSV round trip
        ring = RingSystem.from_f_nc(n_electrons=10001, f_nc=1.5828e-5)
        f = np.geomspace(1e-3, 1e-1, 64)
        lam = np.abs(lambda_signature(ring, f))
        svg = emit_plot(
            [("|lambda|", list(zip(f.tolist(), lam.tolist())))],
            tmp_path / "sig.svg",
        )
        rows = svg.with_suffix(".csv").read_text().splitlines()[1:]
        x = np.log10([float(r.split(",")[1]) for r in rows])
        y = np.log10([float(r.split(",")[2]) for r in rows])
        slope = np.polyfit(x, y, 1)[0]
        assert slope == pytest.approx(-2.0, abs=1e-10)

    def test_deterministic_bytes(self, tmp_path):
        points = [(0.1, 1.0), (0.2, 4.0), (0.3, 9.0)]
        a = emit_plot([("s", points)], tmp_path / "a.svg")
        b = emit_plot([("s", points)], tmp_path / "b.svg")
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".csv").read_bytes() == b.with_suffix(".csv").read_bytes()
