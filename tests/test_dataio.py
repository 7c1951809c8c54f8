"""File formats: trace CSV, configuration, result reports, row bytes."""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncring import cli, dataio
from ncring.constants import CODATA2018
from ncring.dataio import (
    RunConfig,
    _meta_lines,
    parse_config,
    read_config,
    read_trace_csv,
    serialize_config,
    write_config,
    write_results_report,
    write_trace_csv,
)
from ncring.errors import NonMonotonicFlux, ParseError, UnitMismatch
from ncring.model import RingSystem, eigenenergy
from ncring.pipeline import (
    MIN_TRACE_POINTS,
    CurrentTrace,
    PowerLawFit,
    TraceMeta,
    Verdict,
    VerdictKind,
    flux_grid,
    synthesize_trace,
)
from ncring.svgplot import emit_plot


def ring_with(n_electrons: int, f_nc: float) -> RingSystem:
    return RingSystem.from_f_nc(n_electrons=n_electrons, f_nc=f_nc)


class TestTraceCsv:
    def test_reduced_round_trip_full_precision(self, tmp_path):
        ring = ring_with(3, 1e-5)
        trace = synthesize_trace(ring, 1e-3, 0.4, 64, noise_sigma=0.01, seed=42)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert np.array_equal(back.f, trace.f)
        assert np.array_equal(back.j, trace.j)
        assert back.meta.seed == 42
        assert back.meta.noise_sigma == 0.01
        assert back.meta.source == "synthetic"

    def test_ring_hint_round_trip(self, tmp_path):
        ring = ring_with(5, 1e-4)
        trace = synthesize_trace(ring, 1e-3, 0.4, 32)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        hint = read_trace_csv(path).meta.ring_hint
        assert hint is not None
        assert hint.n_electrons == 5
        assert hint.radius == ring.radius
        assert hint.sw.theta_tilde == ring.sw.theta_tilde

    def test_si_header_converted_on_load(self, tmp_path):
        phi0 = CODATA2018.flux_quantum
        ring = ring_with(3, 0.0)
        rows = "\n".join(
            f"{(0.1 + 0.01 * i) * phi0!r},{-6.0 * (0.1 + 0.01 * i) * ring.j0!r}"
            for i in range(10)
        )
        path = tmp_path / "si.csv"
        path.write_text(f"phi_wb,J_A\n{rows}\n")
        trace = read_trace_csv(path, ring=ring)
        assert trace.f[0] == pytest.approx(0.1, rel=1e-12)
        assert trace.j[0] == pytest.approx(-0.6, rel=1e-12)

    def test_si_flux_quantum_reference(self, tmp_path):
        # one flux quantum of 4.13567e-16 Wb is f = 0.1 to five digits
        ring = ring_with(3, 0.0)
        rows = "\n".join(f"{4.13567e-16 * (1 + 0.1 * i)!r},1e-12" for i in range(10))
        path = tmp_path / "si.csv"
        path.write_text(f"phi_wb,J_A\n{rows}\n")
        trace = read_trace_csv(path, ring=ring)
        assert trace.f[0] == 4.13567e-16 / CODATA2018.flux_quantum
        assert trace.f[0] == pytest.approx(0.1, rel=1e-5)

    def test_si_write_needs_ring(self, tmp_path):
        trace = synthesize_trace(ring_with(3, 0.0), 1e-3, 0.4, 16)
        with pytest.raises(UnitMismatch):
            write_trace_csv(trace, tmp_path / "si.csv", units="si", ring=None)

    def test_si_read_needs_scale(self, tmp_path):
        rows = "\n".join(f"{1e-16 * (i + 1)!r},1e-12" for i in range(10))
        path = tmp_path / "si.csv"
        path.write_text(f"phi_wb,J_A\n{rows}\n")
        with pytest.raises(UnitMismatch):
            read_trace_csv(path)

    def test_si_read_uses_embedded_hint(self, tmp_path):
        ring = ring_with(3, 0.0)
        trace = synthesize_trace(ring, 1e-3, 0.4, 16)
        path = tmp_path / "si.csv"
        write_trace_csv(trace, path, units="si", ring=ring)
        back = read_trace_csv(path)  # scales recovered from metadata
        assert np.allclose(back.f, trace.f, rtol=1e-12)
        assert np.allclose(back.j, trace.j, rtol=1e-12)

    def test_si_read_refuses_disagreeing_rings(self, tmp_path):
        # the file's ring (R = 2 um) and the passed ring (R = 1 um) give
        # different current scales: rescaling with either would be a guess
        ring = RunConfig(radius_m=2e-6, n_electrons=3).ring()
        trace = synthesize_trace(ring, 1e-3, 0.4, 16)
        path = tmp_path / "si.csv"
        write_trace_csv(trace, path, units="si", ring=ring)
        with pytest.raises(UnitMismatch, match=repr(ring.j0)):
            read_trace_csv(path, ring=RunConfig(n_electrons=3).ring())
        assert read_trace_csv(path, ring=ring).meta.ring_hint.radius == 2e-6

    @pytest.mark.parametrize("key, value", [("radius_m", 2e-6), ("alpha", 0.5)])
    def test_reduced_read_refuses_other_radius_or_alpha(self, tmp_path, key, value):
        # radius and alpha convert the fitted f_nc into theta_tilde, so a
        # reduced trace from another ring cannot be read with the config's
        ring = RunConfig(n_electrons=3, **{key: value}).ring()
        path = tmp_path / "reduced.csv"
        write_trace_csv(synthesize_trace(ring, 1e-3, 0.4, 16), path, ring=ring)
        with pytest.raises(UnitMismatch, match=f"{key} = {value!r}"):
            read_trace_csv(path, ring=RunConfig(n_electrons=3).ring())
        assert read_trace_csv(path, ring=ring).meta.ring_hint == ring

    def test_stated_radius_checked_without_full_ring(self, tmp_path):
        # the file states its radius but not its N or theta_tilde: no ring
        # hint, yet the radius still has to match the configured ring's
        ring = RunConfig(radius_m=2e-6, n_electrons=3).ring()
        path = tmp_path / "partial.csv"
        write_trace_csv(synthesize_trace(ring, 1e-3, 0.4, 16), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(
            line for line in lines if not line.startswith(("# n_electrons", "# theta_tilde"))
        ))
        with pytest.raises(UnitMismatch, match=r"radius_m = 2e-06"):
            read_trace_csv(path, ring=RunConfig(n_electrons=3).ring())
        assert read_trace_csv(path, ring=ring).meta.ring_hint is None

    @pytest.mark.parametrize(
        "key, value",
        [("alpha", "1.5"), ("radius_m", "-1e-06"), ("n_electrons", "three"),
         ("theta_tilde", "-1.0"), ("mass_kg", "heavy")],
    )
    def test_invalid_stated_ring_value_is_parse_error(self, tmp_path, key, value):
        path = tmp_path / "bad.csv"
        write_trace_csv(synthesize_trace(ring_with(3, 1e-5), 1e-3, 0.4, 16), path)
        text = path.read_text()
        stated = next(line for line in text.splitlines() if line.startswith(f"# {key}:"))
        path.write_text(text.replace(stated, f"# {key}: {value}"))
        with pytest.raises(ParseError, match=f"trace metadata {key}: "):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "key, value",
        [("seed", "nine"), ("seed", "-1"), ("noise_sigma", "1O.0"),
         ("noise_sigma", "-0.1"), ("noise_sigma", "nan"), ("noise_sigma", "inf")],
    )
    def test_invalid_stated_noise_value_is_parse_error(self, tmp_path, key, value):
        path = tmp_path / "bad.csv"
        trace = synthesize_trace(ring_with(3, 1e-5), 1e-3, 0.4, 16, noise_sigma=0.01, seed=9)
        write_trace_csv(trace, path)
        text = path.read_text()
        stated = next(line for line in text.splitlines() if line.startswith(f"# {key}:"))
        path.write_text(text.replace(stated, f"# {key}: {value}"))
        with pytest.raises(ParseError, match=f"trace metadata {key}: "):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "key",
        ["source", "seed", "noise_sigma", "n_electrons", "radius_m", "alpha",
         "theta_tilde", "mass_kg"],
    )
    def test_repeated_metadata_key_is_parse_error(self, tmp_path, key):
        path = tmp_path / "repeated.csv"
        trace = synthesize_trace(ring_with(3, 1e-5), 1e-3, 0.4, 16, noise_sigma=0.01, seed=9)
        write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith(f"# {key}:"))
        lines.insert(row + 1, lines[row])  # even an agreeing repeat is refused
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"repeated trace metadata key '{key}'") as err:
            read_trace_csv(path)
        assert err.value.line == row + 2

    def test_repeated_free_text_comment_is_kept_legal(self, tmp_path):
        path = tmp_path / "notes.csv"
        trace = synthesize_trace(ring_with(3, 1e-5), 1e-3, 0.4, 16)
        write_trace_csv(trace, path)
        notes = "# note: first\n# note: second\n# plain remark\n# plain remark\n"
        path.write_text(notes + path.read_text())
        assert np.array_equal(read_trace_csv(path).j, trace.j)

    def test_hand_written_odd_trace(self, tmp_path):
        # a bare f,J file with slope -6 reads as an N=3 odd ring's trace
        from ncring.pipeline import estimate_electron_number

        rows = "\n".join(f"{0.1 * (i + 1):.1f},{-0.6 * (i + 1):.1f}" for i in range(8))
        path = tmp_path / "hand.csv"
        path.write_text(f"f,J\n{rows}\n")
        trace = read_trace_csv(path)
        assert trace.meta.source == "ingested"
        assert trace.meta.ring_hint is None
        assert estimate_electron_number(trace) == (3, "odd")

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_trace_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("flux,current\n0.1,-0.6\n")
        with pytest.raises(ParseError) as err:
            read_trace_csv(path)
        assert err.value.line == 1

    def test_bad_float_carries_line_number(self, tmp_path):
        rows = "\n".join(f"0.{i + 1},-0.6" for i in range(9))
        path = tmp_path / "bad.csv"
        path.write_text(f"f,J\n{rows}\nnot,a-number\n")
        with pytest.raises(ParseError) as err:
            read_trace_csv(path)
        assert err.value.line == 11

    @pytest.mark.parametrize("row", ["0.5,nan", "0.5,inf", "inf,-3.0", "0.5,-inf"])
    def test_non_finite_value_carries_line_number(self, tmp_path, row):
        rows = [f"0.{i + 1},-0.{i + 1}" for i in range(9)]
        rows[4] = row
        path = tmp_path / "nonfinite.csv"
        path.write_text("f,J\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError) as err:
            read_trace_csv(path)
        assert err.value.line == 6

    def test_non_monotonic_flux(self, tmp_path):
        rows = "\n".join(f"{f},-1.0" for f in (0.1, 0.2, 0.15, 0.3, 0.4, 0.5, 0.6, 0.7))
        path = tmp_path / "nm.csv"
        path.write_text(f"f,J\n{rows}\n")
        with pytest.raises(NonMonotonicFlux):
            read_trace_csv(path)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("f,J\n0.1,-0.6\n0.2,-1.2\n")
        with pytest.raises(ParseError):
            read_trace_csv(path)


class TestRunConfig:
    def test_defaults_parse_from_empty(self):
        assert parse_config("") == RunConfig()

    def test_round_trip_identity(self):
        config = RunConfig(n_electrons=3, theta_tilde=1.76e-61, noise_sigma=0.25)
        assert parse_config(serialize_config(config)) == config

    def test_serialize_is_idempotent_after_parse(self):
        text = "n_electrons = 3\nf_max = 0.3  # keep inside the zone\n"
        once = serialize_config(parse_config(text))
        twice = serialize_config(parse_config(once))
        assert once == twice

    def test_file_round_trip(self, tmp_path):
        config = RunConfig(seed=7, grid="uniform")
        path = tmp_path / "run.cfg"
        write_config(config, path)
        assert read_config(path) == config

    def test_unknown_key(self):
        with pytest.raises(ParseError) as err:
            parse_config("radius = 1e-6\n")
        assert err.value.line == 1

    def test_duplicate_key(self):
        with pytest.raises(ParseError) as err:
            parse_config("alpha = 1.0\nalpha = 0.5\n")
        assert err.value.line == 2

    def test_bad_value(self):
        with pytest.raises(ParseError):
            parse_config("n_electrons = three\n")
        with pytest.raises(ParseError):
            parse_config("alpha == 1.0\n")

    def test_validation(self):
        with pytest.raises(ParseError):
            parse_config("f_min = 0.4\nf_max = 0.1\n")
        with pytest.raises(ParseError):  # the ring's own check: alpha in (0, 1]
            parse_config("alpha = 1.5\n")
        with pytest.raises(ValueError):
            RunConfig(smoothing_window=4)
        with pytest.raises(ValueError):
            RunConfig(grid="spiral")
        with pytest.raises(ValueError):
            RunConfig(units="cgs")

    @pytest.mark.parametrize(
        "text, message",
        [("theta_tilde = nan\n", "theta_tilde must be finite"),
         ("noise_sigma = nan\n", "noise_sigma must be finite"),
         ("radius_m = inf\n", "radius_m must be finite"),
         ("exponent_tol = -inf\n", "exponent_tol must be finite"),
         ("seed = -2\n", "seed must be non-negative")],
    )
    def test_non_finite_float_or_negative_seed(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_config(text)

    def test_fit_window_property(self):
        config = RunConfig(fit_f_lo=1e-3, fit_f_hi=0.2)
        assert config.fit_window == (1e-3, 0.2)

    def test_ring_and_options(self):
        config = RunConfig(n_electrons=3, alpha=0.5)
        ring = config.ring()
        assert ring.n_electrons == 3 and ring.sw.alpha == 0.5


def _verdict(kind=VerdictKind.NO_NC_DETECTED, f_nc=None, theta=None):
    fit = PowerLawFit(
        amplitude=3.0, exponent=-2.0, r_squared=1.0, n_points_used=50, residual_floor=0.0
    )
    return Verdict(
        kind=kind,
        lambda_fit=None,
        sigma_fit=fit,
        estimated_n=3,
        estimated_parity="odd",
        estimated_f_nc=f_nc,
        estimated_theta_tilde=theta,
        diagnostics=("lambda: no usable signal above the noise floor",),
    )


class TestResultsReport:
    def test_contains_verdict_line(self, tmp_path):
        path = tmp_path / "report.txt"
        write_results_report(_verdict(f_nc=0.0, theta=0.0), RunConfig(), path)
        text = path.read_text()
        assert "verdict: NoNcDetected\n" in text

    def test_float_format(self, tmp_path):
        path = tmp_path / "report.txt"
        verdict = _verdict(
            kind=VerdictKind.ODD_NC_DETECTED, f_nc=1.5828e-5, theta=1.76e-61
        )
        write_results_report(verdict, RunConfig(), path)
        text = path.read_text()
        assert "f_nc_hat: 1.5828e-05\n" in text
        assert "theta_tilde_hat: 1.7600e-61\n" in text

    def test_key_sorted_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        verdict = _verdict(f_nc=0.0, theta=0.0)
        write_results_report(verdict, RunConfig(), a, trace_noise_rms=1e-3)
        write_results_report(verdict, RunConfig(), b, trace_noise_rms=1e-3)
        assert a.read_bytes() == b.read_bytes()
        keys = [line.split(":", 1)[0] for line in a.read_text().splitlines()]
        assert keys == sorted(keys)

    def test_absent_fit_reported_as_none(self, tmp_path):
        path = tmp_path / "report.txt"
        write_results_report(_verdict(f_nc=0.0, theta=0.0), RunConfig(), path)
        text = path.read_text()
        assert "lambda_amplitude: none\n" in text
        assert "lambda_points_used: 0\n" in text


# The per-row writers that preceded dataio.write_table, kept as a byte
# reference: every data CSV must stay exactly what they wrote.
def reference_trace_csv(trace, units="reduced", ring=None) -> str:
    lines = _meta_lines(trace.meta)
    if units == "reduced":
        lines.append("f,J")
        for f, j in zip(trace.f, trace.j):
            lines.append(f"{float(f)!r},{float(j)!r}")
    else:
        phi0 = CODATA2018.flux_quantum
        lines.append("phi_wb,J_A")
        for f, j in zip(trace.f, trace.j):
            lines.append(f"{float(f) * phi0!r},{float(j) * ring.j0!r}")
    return "\n".join(lines) + "\n"


def reference_signatures_table(f, lam, sig, header="") -> str:
    rows = [header + "f,lambda,sigma\n"]
    for fv, lv, sv in zip(f, lam, sig):
        rows.append(f"{float(fv)!r},{float(lv)!r},{float(sv)!r}\n")
    return "".join(rows)


def reference_spectrum_table(ring, grid, k) -> str:
    rows = ["f,n,E_reduced\n"]
    for f in grid:
        for n in range(-k, k + 1):
            rows.append(f"{float(f)!r},{n},{eigenenergy(ring, n, float(f))!r}\n")
    return "".join(rows)


def awkward_floats(rng, n: int) -> np.ndarray:
    """Signed values over ~600 decades, with the repr edge cases mixed in."""
    values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    values[:6] = [0.1 + 0.2, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 123456789.0]
    return values


# Two series, a point with x = 0 and one with y = 0 dropped from the
# drawing, both axes over several decades and a label that needs escaping:
# the bytes emit_plot wrote before it lost its linear axes.
PINNED_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="720" height="480" viewBox="0 0 720 480">
<!-- dropped 2 non-positive points for log axes -->
<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>
<line x1="70.00" y1="40" x2="70.00" y2="425" stroke="#dddddd" stroke-width="1"/>
<text x="70.00" y="443" text-anchor="middle" font-size="12" font-family="sans-serif">1e-2</text>
<line x1="267.81" y1="40" x2="267.81" y2="425" stroke="#dddddd" stroke-width="1"/>
<text x="267.81" y="443" text-anchor="middle" font-size="12" font-family="sans-serif">1e-1</text>
<line x1="465.62" y1="40" x2="465.62" y2="425" stroke="#dddddd" stroke-width="1"/>
<text x="465.62" y="443" text-anchor="middle" font-size="12" font-family="sans-serif">1e0</text>
<line x1="70" y1="425.00" x2="560" y2="425.00" stroke="#dddddd" stroke-width="1"/>
<text x="62" y="429.00" text-anchor="end" font-size="12" font-family="sans-serif">1e-2</text>
<line x1="70" y1="328.75" x2="560" y2="328.75" stroke="#dddddd" stroke-width="1"/>
<text x="62" y="332.75" text-anchor="end" font-size="12" font-family="sans-serif">1e-1</text>
<line x1="70" y1="232.50" x2="560" y2="232.50" stroke="#dddddd" stroke-width="1"/>
<text x="62" y="236.50" text-anchor="end" font-size="12" font-family="sans-serif">1e0</text>
<line x1="70" y1="136.25" x2="560" y2="136.25" stroke="#dddddd" stroke-width="1"/>
<text x="62" y="140.25" text-anchor="end" font-size="12" font-family="sans-serif">1e1</text>
<line x1="70" y1="40.00" x2="560" y2="40.00" stroke="#dddddd" stroke-width="1"/>
<text x="62" y="44.00" text-anchor="end" font-size="12" font-family="sans-serif">1e2</text>
<line x1="70" y1="425" x2="560" y2="425" stroke="#000000" stroke-width="1.5"/>
<line x1="70" y1="40" x2="70" y2="425" stroke="#000000" stroke-width="1.5"/>
<polyline fill="none" stroke="#1f77b4" stroke-width="2" points="70.00,40.00 267.81,232.50 465.62,425.00"/>
<line x1="574" y1="50" x2="598" y2="50" stroke="#1f77b4" stroke-width="2"/>
<text x="604" y="54" text-anchor="start" font-size="13" font-family="sans-serif">a&lt;b</text>
<polyline fill="none" stroke="#d62728" stroke-width="2" points="129.55,165.22 406.07,299.78 560.00,357.72"/>
<line x1="574" y1="70" x2="598" y2="70" stroke="#d62728" stroke-width="2"/>
<text x="604" y="74" text-anchor="start" font-size="13" font-family="sans-serif">c</text>
</svg>
"""
PINNED_SERIES = [
    ("a<b", [(0.01, 100.0), (0.1, 1.0), (1.0, 0.01), (2.0, 0.0)]),
    ("c", [(0.0, 3.0), (0.02, 5.0), (0.5, 0.2), (3.0, 0.05)]),
]


class TestRowBytes:
    """write_table and its callers write the reference writers' bytes."""

    @pytest.mark.parametrize("units", ["reduced", "si"])
    def test_trace_csv(self, tmp_path, units):
        ring = RunConfig(radius_m=2e-6, n_electrons=3).ring()
        rng = np.random.default_rng(7)
        f = np.geomspace(1e-12, 1e3, 500) * (1.0 + 1e-3 * rng.random(500))
        awkward = CurrentTrace(f=f, j=awkward_floats(rng, 500), meta=TraceMeta(ring_hint=ring))
        # more rows than write_table writes per chunk
        noisy = synthesize_trace(ring, 1e-3, 0.4, 10_000, noise_sigma=0.01, seed=3)
        for trace in (awkward, noisy):
            path = tmp_path / "trace.csv"
            write_trace_csv(trace, path, units=units, ring=ring)
            assert path.read_bytes() == reference_trace_csv(trace, units, ring).encode()

    def test_signatures_table_and_plot(self, tmp_path):
        rng = np.random.default_rng(11)
        f = np.geomspace(1e-3, 0.4, 400)
        lam, sig = awkward_floats(rng, 400), awkward_floats(rng, 400)
        stem = tmp_path / "derived"
        svg = cli._write_signatures(stem, f, lam, sig, comments=("# method: central",))
        expected = reference_signatures_table(f, lam, sig, header="# method: central\n")
        assert (tmp_path / "derived.csv").read_bytes() == expected.encode()
        assert svg == tmp_path / "derived.svg"
        drawn = emit_plot(
            [("|lambda|", list(zip(f.tolist(), np.abs(lam).tolist()))),
             ("|sigma|", list(zip(f.tolist(), np.abs(sig).tolist())))],
            tmp_path / "pairs.svg",
        )
        assert svg.read_bytes() == drawn.read_bytes()

    @pytest.mark.parametrize("grid, k", [("log", 3), ("uniform", 0), ("uniform", 2)])
    def test_spectrum_table(self, tmp_path, grid, k):
        args = ["spectrum", "--n-electrons", "3", "--points", "40", "--grid", grid]
        assert cli.main([*args, "--n-levels", str(k), "--out", str(tmp_path)]) == 0
        config = RunConfig(n_electrons=3, n_points=40, grid=grid)
        flux = flux_grid(config.f_min, config.f_max, config.n_points, config.grid)
        expected = reference_spectrum_table(config.ring(), flux, k)
        assert (tmp_path / "spectrum.csv").read_bytes() == expected.encode()

    def test_pinned_svg(self, tmp_path):
        svg = emit_plot(PINNED_SERIES, tmp_path / "pairs.svg")
        assert svg.read_bytes() == PINNED_SVG.encode()
        # the (n, 2) array form draws the same bytes
        arrays = [(label, np.array(points)) for label, points in PINNED_SERIES]
        svg = emit_plot(arrays, tmp_path / "arrays.svg")
        assert svg.read_bytes() == PINNED_SVG.encode()


def read_outcome(path, bulk: bool = True):
    """The bits and metadata read_trace_csv gives for `path`, or its error.

    With `bulk` False the one-call parser is switched off, so the rows go
    through the row loop alone: the reference the bulk parser must match.
    """
    with pytest.MonkeyPatch.context() as mp:
        if not bulk:
            mp.setattr(dataio, "_bulk_rows", lambda fh: None)
        try:
            trace = read_trace_csv(path)
        except ParseError as err:
            return type(err), str(err), err.line
    return trace.f.tobytes(), trace.j.tobytes(), trace.meta


def scan_rows(path, bulk: bool) -> np.ndarray | None:
    with open(path, "r", newline="") as fh:
        return dataio._scan(fh, bulk=bulk)[2]


def float_rows(path) -> tuple[bytes, bytes]:
    """The f and J bits of `path`'s data rows, each field read by float()."""
    lines = Path(path).read_text().splitlines()
    rows = [tuple(map(float, line.split(","))) for line in lines[lines.index("f,J") + 1:]]
    return tuple(np.array(col, dtype=float).tobytes() for col in zip(*rows))


# Nine data rows.  Each file below puts `# seed: 1` and the header before
# them, so row i sits on line i + 3.
CLEAN_ROWS = [f"0.{i + 1},-0.{i + 1}" for i in range(9)]


def edited(index: int, row: str, insert: bool = False) -> list[str]:
    rows = list(CLEAN_ROWS)
    if insert:
        rows.insert(index, row)
    else:
        rows[index] = row
    return rows


# name: (data lines, line ending, line of the expected ParseError or None)
PARSE_CASES = {
    "clean": (CLEAN_ROWS, "\n", None),
    "bad_float": (edited(4, "not,a-number"), "\n", 7),
    "three_fields": (edited(4, "0.5,-0.5,1"), "\n", 7),
    "three_fields_everywhere": ([row + ",1" for row in CLEAN_ROWS], "\n", 3),
    "nan": (edited(4, "0.5,nan"), "\n", 7),
    "inf": (edited(8, "inf,-0.9"), "\n", 11),
    "minus_inf": (edited(0, "0.1,-inf"), "\n", 3),
    "comment_between_rows": (edited(4, "# note: between rows", insert=True), "\n", None),
    "repeated_key_between_rows": (edited(4, "# seed: 2", insert=True), "\n", 7),
    "blank_line": (edited(4, "", insert=True), "\n", None),
    "whitespace_line": (edited(4, " \t ", insert=True), "\n", None),
    "crlf": (CLEAN_ROWS, "\r\n", None),
    "crlf_bad_float": (edited(2, "0.3,x"), "\r\n", 5),
    "underscore": (edited(4, "0.5,1_0"), "\n", None),
    "unicode_digits": (edited(4, "0.5,-\u0660.\u0665"), "\n", None),
    "no_rows": ([], "\n", None),
    "too_few_rows": (CLEAN_ROWS[: MIN_TRACE_POINTS - 1], "\n", None),
}


class TestBulkParse:
    """The one-call row parser gives what the row loop gives, bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(MIN_TRACE_POINTS + 1, 300))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_matches_float(self, seed, n):
        rng = np.random.default_rng(seed)
        f = np.unique(np.abs(awkward_floats(rng, n)))
        f = f[f > 0.0]  # keeps 5e-324 and the largest float; -0.0 became 0.0
        assume(len(f) >= MIN_TRACE_POINTS)
        trace = CurrentTrace(f=f, j=awkward_floats(rng, len(f)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.csv"
            write_trace_csv(trace, path)
            back = read_trace_csv(path)
            assert (back.f.tobytes(), back.j.tobytes()) == float_rows(path)
            assert (back.f.tobytes(), back.j.tobytes()) == (f.tobytes(), trace.j.tobytes())
            bulk, rows = scan_rows(path, bulk=True), scan_rows(path, bulk=False)
        assert bulk is not None
        assert bulk.tobytes() == rows.tobytes()

    def test_large_noisy_trace_matches_float(self, tmp_path):
        ring = RunConfig(n_electrons=10001, theta_tilde=1.76e-61, radius_m=1e-6).ring()
        trace = synthesize_trace(ring, 1e-3, 0.4, 100_000, noise_sigma=1e-6, seed=7)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert (back.f.tobytes(), back.j.tobytes()) == float_rows(path)
        assert np.array_equal(back.j, trace.j) and np.array_equal(back.f, trace.f)
        assert scan_rows(path, bulk=True).tobytes() == scan_rows(path, bulk=False).tobytes()

    @pytest.mark.parametrize("case", PARSE_CASES)
    def test_same_outcome_as_row_loop(self, tmp_path, case):
        rows, ending, error_line = PARSE_CASES[case]
        path = tmp_path / "trace.csv"
        path.write_bytes(ending.join(["# seed: 1", "f,J", *rows, ""]).encode())
        outcome = read_outcome(path)
        assert outcome == read_outcome(path, bulk=False)
        if error_line is not None:
            assert outcome[0] is ParseError and outcome[2] == error_line
        if len(rows) < MIN_TRACE_POINTS:
            assert outcome == (ParseError, f"trace needs at least {MIN_TRACE_POINTS} "
                               f"data rows, found {len(rows)}", None)
