"""Detection pipeline: synthesis, differentiation, fitting, classification."""

import dataclasses
import gc
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncring import pipeline
from ncring.dataio import read_trace_csv, write_trace_csv
from ncring.errors import (
    DegenerateFit,
    InsufficientSignal,
    InvalidRange,
    NonMonotonicFlux,
    NotDetected,
    TooFewPoints,
)
from ncring.model import (
    RingSystem,
    lambda_signature,
    persistent_current,
    sigma_signature,
    theta_tilde_from_f_nc,
)
from ncring.pipeline import (
    CurrentTrace,
    PowerLawFit,
    RunConfig,
    VerdictKind,
    _centre,
    _electron_number,
    _grid,
    _line_fit,
    _noise_floor,
    _power_law,
    _shared_term,
    _stencil,
    _window,
    analyze_trace,
    classify,
    differentiate_trace,
    estimate_electron_number,
    estimate_theta_tilde,
    fit_power_law,
    flux_grid,
    synthesize_trace,
    trace_noise_rms,
)

THETA_TILDE_REF = 1.76e-61
CONSTANT_HBAR = 1.054571817e-34


def ring_with(n_electrons: int, f_nc: float) -> RingSystem:
    return RingSystem.from_f_nc(n_electrons=n_electrons, f_nc=f_nc)


def make_trace(ring, n_points=512, noise_sigma=0.0, seed=None, f_max=0.4):
    f_min = max(1e-3, ring.f_nc) if ring.parity == "even" else 1e-3
    return synthesize_trace(
        ring, f_min, f_max, n_points, noise_sigma=noise_sigma, seed=seed
    )


def bits(a) -> bytes:
    """The raw bytes of `a` as float64: equal only when every bit is."""
    return np.asarray(a, dtype=float).tobytes()


def test_pipeline_imports_no_io_plot_or_oracle():
    # the package's __init__ imports nothing, so each module loads only its own layers
    src = str(Path(pipeline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, ncring.pipeline; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()
    assert "ncring.pipeline" in loaded
    assert not {"ncring.dataio", "ncring.oracle", "ncring.svgplot"} & set(loaded)


def test_analysis_imports_no_masked_arrays():
    # the floor's median is taken by np.partition; np.median's first call imports numpy.ma
    src = str(Path(pipeline.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys\n"
            "from ncring.model import RingSystem\n"
            "from ncring.pipeline import analyze_trace, synthesize_trace\n"
            "ring = RingSystem.from_f_nc(n_electrons=3, f_nc=1e-5)\n"
            "analyze_trace(synthesize_trace(ring, 1e-3, 0.4, 256, noise_sigma=1e-4, seed=1))\n"
            "print('numpy.ma' in sys.modules)")
    loaded = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert loaded == "False\n"


class TestSynthesizeTrace:
    def test_noiseless_odd_is_exactly_linear(self):
        ring = ring_with(3, 0.0)
        trace = synthesize_trace(ring, 1e-3, 0.4, 64, noise_sigma=0.0)
        assert np.array_equal(trace.j, -6.0 * trace.f)

    def test_same_seed_same_trace(self):
        ring = ring_with(3, 1e-5)
        a = synthesize_trace(ring, 1e-3, 0.4, 64, noise_sigma=0.05, seed=42)
        b = synthesize_trace(ring, 1e-3, 0.4, 64, noise_sigma=0.05, seed=42)
        assert np.array_equal(a.j, b.j)
        c = synthesize_trace(ring, 1e-3, 0.4, 64, noise_sigma=0.05, seed=43)
        assert not np.array_equal(a.j, c.j)

    def test_noise_is_unbiased(self):
        ring = ring_with(3, 0.0)
        sigma = 0.01 * 3
        trace = synthesize_trace(ring, 1e-3, 0.4, 256, noise_sigma=sigma, seed=42)
        residuals = trace.j - (-6.0 * trace.f)
        assert abs(residuals.mean()) <= 3.0 * sigma / math.sqrt(len(trace))

    def test_grid_shapes(self):
        ring = ring_with(3, 0.0)
        log = synthesize_trace(ring, 1e-3, 0.4, 32, grid="log")
        uni = synthesize_trace(ring, 1e-3, 0.4, 32, grid="uniform")
        assert log.f[0] == pytest.approx(1e-3) and log.f[-1] == pytest.approx(0.4)
        assert np.allclose(np.diff(uni.f), np.diff(uni.f)[0])

    def test_invalid_ranges(self):
        ring = ring_with(3, 0.0)
        with pytest.raises(InvalidRange):
            synthesize_trace(ring, 0.0, 0.4, 64)
        with pytest.raises(InvalidRange):
            synthesize_trace(ring, 0.2, 0.1, 64)
        with pytest.raises(InvalidRange):
            synthesize_trace(ring, 1e-3, 0.51, 64)
        with pytest.raises(InvalidRange):
            synthesize_trace(ring, 1e-3, 0.4, 7)
        with pytest.raises(InvalidRange):
            synthesize_trace(ring, 1e-3, 0.4, 64, noise_sigma=-0.1)
        with pytest.raises(InvalidRange):
            synthesize_trace(ring, 1e-3, 0.4, 64, grid="cubic")

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_sigma(self, sigma):
        with pytest.raises(InvalidRange, match="finite and non-negative"):
            synthesize_trace(ring_with(3, 0.0), 1e-3, 0.4, 64, noise_sigma=sigma, seed=1)

    def test_negative_seed(self):
        # numpy's own refusal is an untyped ValueError
        with pytest.raises(InvalidRange, match="seed must be non-negative, got -1"):
            synthesize_trace(ring_with(3, 0.0), 1e-3, 0.4, 64, noise_sigma=0.1, seed=-1)

    def test_non_integer_seed(self):
        # SeedSequence's own refusal is an untyped TypeError
        with pytest.raises(InvalidRange, match="seed must be an integer, got 1.5"):
            synthesize_trace(ring_with(3, 0.0), 1e-3, 0.4, 64, noise_sigma=0.1, seed=1.5)

    def test_noise_needs_a_seed(self):
        # an unseeded generator would draw different noise on each call
        ring = RingSystem.from_f_nc(3, 1e-2)
        with pytest.raises(InvalidRange, match="needs a seed, got seed=None"):
            synthesize_trace(ring, 1e-3, 0.4, 64, noise_sigma=0.1)
        trace = synthesize_trace(ring, 1e-3, 0.4, 64)  # noiseless needs none
        assert (trace.seed, trace.noise_sigma, trace.n_electrons) == (None, 0.0, 3)
        assert bits(trace.j) == bits(persistent_current(ring, trace.f))

    def test_even_ring_must_start_at_f_nc(self):
        ring = ring_with(4, 1e-2)
        with pytest.raises(InvalidRange):
            synthesize_trace(ring, 1e-3, 0.4, 64)
        trace = synthesize_trace(ring, ring.f_nc, 0.4, 64)
        assert trace.j[0] == pytest.approx(4.0)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            CurrentTrace(f=np.array([0.1, 0.2]), j=np.array([1.0, 2.0]))
        f = np.linspace(0.1, 0.4, 10)
        with pytest.raises(ValueError):
            CurrentTrace(f=f[::-1].copy(), j=np.zeros(10))
        with pytest.raises(ValueError):
            CurrentTrace(f=f - 0.2, j=np.zeros(10))
        # NaN and inf are refused in either column, a trailing +inf flux too
        for bad_f, bad_j in ((np.append(f[:-1], np.inf), np.zeros(10)),
                             (np.append(f[:-1], np.nan), np.zeros(10)),
                             (f, np.append(np.zeros(9), np.nan)),
                             (f, np.append(np.zeros(9), -np.inf))):
            with pytest.raises(InvalidRange, match="must be finite"):
                CurrentTrace(f=bad_f, j=bad_j)

    @pytest.mark.parametrize("n", [0, -3, 2.0, True, "3"])
    def test_stated_electron_number_is_a_positive_integer(self, n):
        # the ring's own check and message
        f = np.linspace(0.1, 0.4, 10)
        with pytest.raises(InvalidRange, match="n_electrons must be"):
            CurrentTrace(f=f, j=-2.0 * f, n_electrons=n)
        with pytest.raises(InvalidRange, match="n_electrons must be"):
            RingSystem(radius=1e-6, n_electrons=n)
        assert CurrentTrace(f=f, j=-2.0 * f, n_electrons=np.int64(1)).n_electrons == 1


class TestFluxGrid:
    @pytest.mark.parametrize(
        "args, message",
        [((0.0, 0.4, 16, "log"), "need 0 < f_min < f_max"),  # numpy: "cannot include zero"
         ((1e-3, 0.4, -1, "log"), "need at least 8 points"),  # numpy: "must be non-negative"
         ((1e-3, 0.4, 10.0, "log"), "n_points must be an integer"),  # numpy: TypeError
         # numpy: "invalid value encountered in multiply", or a non-finite flux
         ((1e-3, math.inf, 8, "log"), "f_max must be finite, got inf"),
         ((1e-3, math.nan, 8, "uniform"), "f_max must be finite, got nan")],
    )
    def test_bad_request_is_invalid_range(self, args, message):
        with pytest.raises(InvalidRange, match=message):
            flux_grid(*args)
        with pytest.raises(InvalidRange, match=message):
            synthesize_trace(ring_with(3, 1e-3), *args[:3], grid=args[3])

    @pytest.mark.parametrize("grid, spacing", [("log", np.geomspace), ("uniform", np.linspace)])
    def test_shared_read_only_grid(self, grid, spacing):
        f = flux_grid(1e-3, 0.4, 64, grid)
        assert bits(f) == bits(spacing(1e-3, 0.4, 64))
        assert np.array_equal(flux_grid(1e-3, 0.4, 64, grid), f)
        with pytest.raises(ValueError, match="read-only"):
            f[0] = 1.0
        trace = CurrentTrace(f=f, j=np.zeros(64))
        assert trace.f is not f  # a trace built directly copies even a flux_grid array
        assert bits(trace.f) == bits(f)


class TestEstimateElectronNumber:
    def test_odd_ring(self):
        trace = make_trace(ring_with(3, 1e-5), n_points=64)
        assert estimate_electron_number(trace) == (3, "odd")

    def test_even_ring(self):
        trace = make_trace(ring_with(4, 0.0), n_points=64)
        assert estimate_electron_number(trace) == (4, "even")

    def test_noisy_exact_recovery(self):
        # at sigma = 1e-4 N the slope uncertainty is well below half an
        # electron, so rounding recovers N exactly for any seed
        ring = ring_with(10001, 1e-5)
        trace = synthesize_trace(
            ring, 1e-3, 0.4, 1024, noise_sigma=1e-4 * 10001, seed=7, grid="uniform"
        )
        assert estimate_electron_number(trace) == (10001, "odd")

    def test_noisy_close_recovery(self):
        # at sigma = 1e-3 N the slope scatter is a few electrons; the
        # estimate must stay within 0.15% with the parity intact
        ring = ring_with(10001, 1e-5)
        trace = synthesize_trace(
            ring, 1e-3, 0.4, 1024, noise_sigma=1e-3 * 10001, seed=7, grid="uniform"
        )
        n, parity = estimate_electron_number(trace)
        assert abs(n - 10001) <= 15
        assert parity == "odd"

    def test_degenerate_fit(self):
        f = np.linspace(0.01, 0.4, 16)
        trace = CurrentTrace(f=f, j=2.0 * f)
        with pytest.raises(DegenerateFit):
            estimate_electron_number(trace)

    def test_slope_under_one_electron_is_degenerate_fit(self):
        f = np.linspace(0.01, 0.4, 16)
        trace = CurrentTrace(f=f, j=-0.5 * f)
        with pytest.raises(DegenerateFit, match="^slope -0.5 implies a non-physical electron "
                                                "count$"):
            estimate_electron_number(trace)

    def test_infinite_slope_is_degenerate_fit(self):
        # int(round(inf)) would be an OverflowError
        with pytest.raises(DegenerateFit, match="not finite and negative"):
            _electron_number(0.0, -math.inf)
        f = np.linspace(1e-3, 1e-3 + 1.5e-12, 16)
        trace = CurrentTrace(f=f, j=-1e300 * np.arange(16))
        with np.errstate(all="ignore"), pytest.raises(DegenerateFit):
            estimate_electron_number(trace)

    def test_overflowing_fit_is_degenerate_fit(self):
        # finite currents whose mean overflows: the fit of a non-blind analysis, which
        # estimates no N from its slope, gave a NaN noise rms and "Inconclusive"
        f = np.geomspace(0.2, 0.4, 32)
        trace = CurrentTrace(f=f, j=1.5e308 * (-1.0) ** np.arange(32), n_electrons=3)
        with pytest.raises(DegenerateFit, match="line fit of J on f overflows"):
            analyze_trace(trace, blind=False)
        with pytest.raises(DegenerateFit, match="line fit of J on f overflows"):
            trace_noise_rms(trace)

    def test_noise_rms_estimate(self):
        ring = ring_with(3, 0.0)
        sigma = 0.03
        trace = synthesize_trace(ring, 1e-3, 0.4, 1024, noise_sigma=sigma, seed=11)
        assert trace_noise_rms(trace) == pytest.approx(sigma, rel=0.15)
        quiet = synthesize_trace(ring, 1e-3, 0.4, 64)
        assert trace_noise_rms(quiet) <= 1e-12


class TestDifferentiateTrace:
    def test_noiseless_odd_matches_closed_form(self):
        ring = ring_with(3, 1e-5)
        trace = synthesize_trace(ring, 1e-3, 0.4, 1024)
        lam, _, _ = differentiate_trace(trace, ring.n_electrons, smoothing_window=1)
        lam_ref = lambda_signature(ring, trace.f)
        keep = slice(1, -1)  # the one-sided endpoints are not compared
        rel = np.abs(lam[keep] - lam_ref[keep]) / np.abs(lam_ref[keep])
        assert rel.max() < 1e-4

    def test_noiseless_even_sigma_matches_closed_form(self):
        ring = ring_with(4, 1e-2)
        trace = synthesize_trace(ring, ring.f_nc, 0.4, 1024)
        _, sig, _ = differentiate_trace(trace, ring.n_electrons, smoothing_window=1)
        sig_ref = sigma_signature(ring, trace.f)
        keep = slice(1, -1)  # the one-sided endpoints are not compared
        rel = np.abs(sig[keep] - sig_ref[keep]) / np.abs(sig_ref[keep])
        assert rel.max() < 1e-4

    @pytest.mark.parametrize("n_electrons", [3.5, 3.0, "3", True])
    def test_refuses_non_integer_electron_number(self, n_electrons):
        trace = synthesize_trace(ring_with(3, 1e-5), 1e-3, 0.4, 64)
        with pytest.raises(InvalidRange, match="n_electrons must be an integer"):
            differentiate_trace(trace, n_electrons)

    def test_constant_current_gives_inverse_square(self):
        # d/df (c/f) = -c/f^2; the electron number only shifts sigma
        f = np.geomspace(1e-3, 0.4, 512)
        c = 2.5
        trace = CurrentTrace(f=f, j=np.full_like(f, c))
        lam, sig, _ = differentiate_trace(trace, 3, smoothing_window=1)
        keep = slice(1, -1)  # the one-sided endpoints are not compared
        expected = -c / f[keep] ** 2
        rel = np.abs(lam[keep] - expected) / np.abs(expected)
        assert rel.max() < 1e-3
        expected_sigma = -(c - 3.0) / f[keep] ** 2
        rel_sigma = np.abs(sig[keep] - expected_sigma) / np.abs(expected_sigma)
        assert rel_sigma.max() < 1e-3

    def test_endpoints_flagged(self):
        # the method text names the endpoint stencil; that analyze_trace
        # fits only the interior is TestAnalyzeTrace::test_fits_exactly_the_interior
        trace = make_trace(ring_with(3, 0.0), n_points=32)
        _, _, method = differentiate_trace(trace, 3)
        assert method.endswith(";endpoints=one_sided2")

    def test_smoothing_window_validation(self):
        trace = make_trace(ring_with(3, 0.0), n_points=32)
        with pytest.raises(ValueError):
            differentiate_trace(trace, 3, smoothing_window=2)
        # a float width used to fail later, indexing with float bounds
        with pytest.raises(InvalidRange, match="smoothing_window must be an integer"):
            differentiate_trace(trace, 3, smoothing_window=3.0)
        with pytest.raises(TooFewPoints):
            differentiate_trace(trace, 3, smoothing_window=17)

    def test_smoothing_tracks_noiseless_signal(self):
        ring = ring_with(3, 1e-3)
        trace = synthesize_trace(ring, 1e-3, 0.4, 1024)
        lam, _, _ = differentiate_trace(trace, ring.n_electrons, smoothing_window=5)
        lam_ref = lambda_signature(ring, trace.f)
        keep = slice(1, -1)  # the one-sided endpoints are not compared
        # smoothing biases a curved profile; stays within a percent here
        rel = np.abs(lam[keep] - lam_ref[keep]) / np.abs(lam_ref[keep])
        assert np.median(rel) < 1e-2


def reference_line_fit(x, y):
    """lstsq on the [1, x] design matrix: (intercept, slope, ss_res)."""
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    res = y - design @ coef
    return float(coef[0]), float(coef[1]), float(res @ res)


@st.composite
def lines(draw):
    """x on a log or uniform grid (or its log10), y on a line, noisy or exact."""
    n = draw(st.integers(5, 10_000))
    lo = draw(st.floats(1e-4, 1.0))
    hi = lo * draw(st.floats(1.01, 1e4))
    x = (np.geomspace if draw(st.booleans()) else np.linspace)(lo, hi, n)
    if draw(st.booleans()):
        x = np.log10(x)
    # no coefficients near the subnormal range, where too few bits are left
    # for a relative bound on either fit
    coefficient = st.floats(-1e4, 1e4).filter(lambda v: v == 0.0 or abs(v) >= 1e-100)
    intercept, slope = draw(coefficient), draw(coefficient)
    y = intercept + slope * x
    noise = draw(st.sampled_from([0.0, 1e-12, 1e-3, 1.0]))
    if noise:
        y = y + np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, noise, n)
    return x, y


class TestLineFit:
    @given(data=lines())
    @settings(max_examples=200, deadline=None)
    def test_matches_lstsq(self, data):
        x, y = data
        intercept, slope, ss_res, dy = _line_fit(_centre(x), y)
        ref_intercept, ref_slope, ref_ss_res = reference_line_fit(x, y)
        # rounding y (~eps |y|) moves each coefficient by its conditioning
        # times that, and each residual by about as much; 1e-10 is ~1e6 eps
        y_scale = float(np.abs(y).max())
        span = float(x.max() - x.min())
        x_scale = float(np.abs(x).max())
        assert abs(slope - ref_slope) <= 1e-10 * y_scale / span
        assert abs(intercept - ref_intercept) <= 1e-10 * y_scale * (1.0 + x_scale / span)
        assert ss_res >= 0.0
        shift = 1e-10 * y_scale * math.sqrt(len(x))  # bound on |residuals - ref residuals|
        assert abs(ss_res - ref_ss_res) <= shift * (2.0 * math.sqrt(ref_ss_res) + shift)
        assert float(dy @ dy) == pytest.approx(float(np.sum((y - y.mean()) ** 2)), rel=1e-12,
                                               abs=0.0)


class TestFitPowerLaw:
    # analyze_trace hands fit_power_law the points of its fit window; these
    # tests pass such sliced arrays the same way
    def test_exact_inverse_square(self):
        f = np.geomspace(1e-3, 1e-1, 64)
        values = -0.6 / f**2
        fit = fit_power_law(f, values)
        assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
        assert fit.amplitude == pytest.approx(-0.6, rel=1e-12)
        assert fit.r_squared > 1.0 - 1e-12
        assert fit.n_points_used == 64

    def test_all_below_floor(self):
        f = np.geomspace(1e-3, 1e-1, 64)
        values = np.full_like(f, 1e-9)
        with pytest.raises(InsufficientSignal):
            fit_power_law(f, values, noise_floor=1e-6)

    def test_too_few_in_window(self):
        f = np.geomspace(1e-3, 1e-1, 64)
        values = 1.0 / f**2
        window = slice(int(np.searchsorted(f, 0.09)), None)  # the points in [0.09, 0.1]
        assert len(f[window]) == 2
        with pytest.raises(InsufficientSignal):
            fit_power_law(f[window], values[window])

    def test_single_flux_is_insufficient_signal(self):
        # ten usable points at one flux admit no line
        f = np.full(10, 0.01)
        with pytest.raises(InsufficientSignal, match="single flux"):
            fit_power_law(f, np.full(10, -3.0))

    def test_skips_flux_that_is_not_positive_finite(self):
        f = np.geomspace(1e-3, 1e-1, 16)
        values = -0.6 / f**2
        clean = fit_power_law(f, values)
        # finite values at f <= 0, NaN and inf, which no log-log line can hold
        bad_f = np.array([0.0, -1e-2, np.nan, np.inf, -np.inf])
        fit = fit_power_law(np.concatenate([bad_f, f]), np.concatenate([np.full(5, -7.0), values]))
        assert repr(fit) == repr(clean)
        assert fit.n_points_used == 16
        with pytest.raises(InsufficientSignal, match="^0 usable points"):
            fit_power_law(bad_f, np.full(5, -7.0))

    @pytest.mark.parametrize("f_shape, values_shape", [((10,), (12,)), ((6,), (6, 2)),
                                                       ((6, 2), (6, 2)), ((), ())])
    def test_refuses_shapes_other_than_one_1d_length(self, f_shape, values_shape):
        f, values = np.full(f_shape, 0.01), np.full(values_shape, -3.0)
        with pytest.raises(InvalidRange, match=(
                rf"1-D f and values of one length, got shapes {re.escape(str(f_shape))} "
                rf"and {re.escape(str(values_shape))}")):
            fit_power_law(f, values)

    def test_majority_sign(self):
        f = np.geomspace(1e-3, 1e-1, 11)
        values = -1.0 / f**2
        values[0] = abs(values[0])  # one flipped point keeps majority negative
        fit = fit_power_law(f, values)
        assert fit.amplitude < 0.0

    def test_fit_on_closed_form_lambda(self):
        ring = ring_with(3, 1e-5)
        trace = synthesize_trace(ring, 1e-3, 0.4, 1024)
        lam, _, _ = differentiate_trace(trace, ring.n_electrons)
        f_int = trace.f[1:-1]  # the one-sided endpoints are not compared
        window = slice(0, int(np.searchsorted(f_int, 1e-1, "right")))  # f <= 0.1
        fit = fit_power_law(f_int[window], lam[1:-1][window])
        assert -2.01 <= fit.exponent <= -1.99
        assert fit.amplitude == pytest.approx(-6.0 * ring.f_nc, rel=1e-3)


class TestFitWindow:
    """analyze_trace's one window slice selects exactly the points of the mask."""

    @pytest.mark.parametrize("grid", ["log", "uniform"])
    @pytest.mark.parametrize("bounds", ["on_grid_points", "empty", "wider_than_grid"])
    def test_slice_equals_mask(self, grid, bounds):
        trace = synthesize_trace(ring_with(3, 1e-3), 1e-3, 0.4, 64, noise_sigma=1e-3, seed=2,
                                 grid=grid)
        f_int = trace.f[1:-1]
        lo, hi = {
            "on_grid_points": (float(f_int[5]), float(f_int[40])),  # both bounds included
            "empty": (0.5, 0.6),
            "wider_than_grid": (1e-4, 1.0),
        }[bounds]
        mask = (f_int >= lo) & (f_int <= hi)
        assert np.count_nonzero(mask) == {"on_grid_points": 36, "empty": 0,
                                          "wider_than_grid": 62}[bounds]
        config = RunConfig(fit_f_lo=lo, fit_f_hi=hi)
        result = analyze_trace(trace, config)
        floor = result.residual_floor
        for fit, values in ((result.verdict.lambda_fit, result.lam),
                            (result.verdict.sigma_fit, result.sig)):
            assert repr(fit) == repr(fit_outcome(f_int[mask], values[1:-1][mask], floor, None))
        verdict, _, _, _, plain_floor = plain_analysis(trace, config)
        assert repr(result.verdict) == repr(verdict)
        assert bits(floor) == bits(plain_floor)
        if bounds == "empty":
            assert result.verdict.kind is VerdictKind.INCONCLUSIVE and floor == 0.0


def fit_outcome(f, values, floor, insufficient="raise"):
    """fit_power_law's fit, or `insufficient` (by default the repr of its error) without one."""
    try:
        return fit_power_law(f, values, floor)
    except InsufficientSignal as err:
        return repr(err) if insufficient == "raise" else insufficient


class TestFitKernel:
    """analyze_trace's fit kernel on a fit window equals fit_power_law on its points."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 300),
           grid=st.sampled_from(["log", "uniform"]), every_point_usable=st.booleans())
    def test_kernel_equals_fit_power_law(self, seed, n, grid, every_point_usable):
        rng = np.random.default_rng(seed)
        f_min = 10.0 ** rng.uniform(-4.0, -1.0)
        f = flux_grid(f_min, f_min * 10.0 ** rng.uniform(0.3, 3.0), n, grid)
        # two of: two grid points, and a bound near each end of the grid, on either side
        candidates = np.concatenate((rng.choice(f, 2), rng.uniform(0.5, 2.0, 2) * f[[0, -1]]))
        lo, hi = np.sort(rng.choice(candidates, 2, replace=False))
        window = _window(f, float(lo), float(hi))
        m = len(window.f)
        values = (rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 4.0)
                  * window.f ** rng.uniform(-3.0, 1.0) * (1.0 + 0.2 * rng.standard_normal(m)))
        if every_point_usable:
            floor = rng.choice((0.0, 0.5 * float(np.abs(values).min(initial=1.0))))
        else:
            floor = rng.choice((0.0, 10.0 ** rng.uniform(-7.0, 5.0), math.nan))
            lo_run, hi_run = np.sort(rng.integers(0, m + 1, 2))  # a run below the floor
            values[lo_run:hi_run] = floor * rng.uniform(-1.0, 1.0, hi_run - lo_run)
            flip = rng.random(m) < rng.uniform(0.0, 0.5)
            values[flip] = -values[flip]
            for bad in (math.nan, math.inf, -math.inf):
                values[rng.random(m) < 0.05] = bad
            if m:
                values[rng.integers(m)] = rng.choice((math.nan, math.inf, -math.inf, 0.0))
        usable = (np.abs(values) > floor) & np.isfinite(values)
        assert usable.all() == every_point_usable or not m  # both paths of the kernel
        want = fit_outcome(window.f, values, floor)
        try:
            got = _power_law(window.f, window.log_centring, values, floor)
        except InsufficientSignal as err:
            got = repr(err)
        assert repr(got) == repr(want)
        # and both equal the plain reference: the points of the mask, no fit without one
        plain = plain_power_law(window.f, values, (lo, hi), floor)
        assert repr(plain) == repr(want if isinstance(want, PowerLawFit) else None)


def _fit(amplitude, exponent, floor=0.0, r2=1.0, n=50):
    return PowerLawFit(
        amplitude=amplitude,
        exponent=exponent,
        r_squared=r2,
        n_points_used=n,
        residual_floor=floor,
    )


class TestClassify:
    def test_case_one_odd_detection(self):
        v = classify(_fit(-6e-5, -2.0), _fit(3.0, -2.0), 3, "odd")
        assert v.kind is VerdictKind.ODD_NC_DETECTED
        # the verdict comes finished: f_nc = -A_lambda / 2N, then the cross-check
        assert v.estimated_f_nc == pytest.approx(1e-5, rel=1e-12)
        assert v.diagnostics[-1].startswith("f_nc cross-check")

    def test_case_two_even_detection(self):
        v = classify(_fit(-4.08, -2.0), _fit(-8e-2, -2.0), 4, "even")
        assert v.kind is VerdictKind.EVEN_NC_DETECTED
        # f_nc = -A_sigma / 2N
        assert v.estimated_f_nc == pytest.approx(1e-2, rel=1e-12)
        assert v.diagnostics[-1].startswith("f_nc cross-check")

    def test_commutative_odd(self):
        v = classify(None, _fit(3.0, -2.0), 3, "odd")
        assert v.kind is VerdictKind.NO_NC_DETECTED
        assert v.estimated_f_nc == 0.0
        assert v.estimated_theta_tilde == 0.0

    def test_commutative_even(self):
        v = classify(_fit(-4.0, -2.0), None, 4, "even")
        assert v.kind is VerdictKind.NO_NC_DETECTED

    def test_inconclusive_when_nothing_diverges(self):
        v = classify(None, None, 3, "odd")
        assert v.kind is VerdictKind.INCONCLUSIVE
        assert v.estimated_f_nc is None

    def test_exponent_band_enforced(self):
        v = classify(_fit(-6e-5, -2.4), _fit(3.0, -2.0), 3, "odd")
        assert v.kind is VerdictKind.NO_NC_DETECTED  # lambda out of band

    def test_amplitude_floor_enforced(self):
        v = classify(_fit(-1e-6, -2.0, floor=1e-6), _fit(3.0, -2.0), 3, "odd")
        assert v.kind is VerdictKind.NO_NC_DETECTED

    def test_odd_case_on_an_even_parity_is_inconclusive(self):
        # a commutative even ring under a current offset of -0.08 shows case 1's pattern
        t = synthesize_trace(ring_with(4, 0.0), 0.02, 0.4, 256, noise_sigma=4e-4, seed=1)
        v = analyze_trace(CurrentTrace(t.f, t.j - 0.08)).verdict
        assert (v.kind, v.criterion) == (VerdictKind.INCONCLUSIVE, "case1_even")
        assert (v.estimated_n, v.estimated_parity) == (4, "even")
        assert v.lambda_divergent and v.sigma_divergent
        assert v.estimated_f_nc is None and v.f_nc_hat_cross is None
        assert v.diagnostics[-1] == "criterion case 1 contradicts the even parity"

    @pytest.mark.parametrize("blind", [True, False])
    @pytest.mark.parametrize("offset, f_nc_hat", [(0.06, 0.0098), (0.6, 0.1000)])
    def test_a_current_offset_reads_as_f_nc(self, offset, f_nc_hat, blind):
        # a confound, not a defect: in one zone J + d has intercept 2 N f_nc + d, so a
        # commutative odd ring under an offset d is a detection of f_nc ~ d / (2N)
        t = synthesize_trace(ring_with(3, 0.0), 1e-3, 0.4, 256, noise_sigma=3e-4, seed=1)
        v = analyze_trace(CurrentTrace(t.f, t.j + offset, n_electrons=3), blind=blind).verdict
        assert (v.kind, v.criterion) == (VerdictKind.ODD_NC_DETECTED, "case1")
        assert (v.estimated_n, v.estimated_parity) == (3, "odd")
        assert round(v.estimated_f_nc, 4) == f_nc_hat
        assert v.estimated_f_nc == pytest.approx(offset / 6, rel=0.02)

    @pytest.mark.parametrize("slope", [0.3, 1.0, -2.0])
    def test_a_current_linear_in_f_keeps_f_nc(self, slope):
        # e f cancels in d(J/f)/df, so with N given the estimate keeps its value to
        # rounding; a blind N would move with the line's slope -2N + e
        t = synthesize_trace(ring_with(3, 1e-2), 1e-3, 0.4, 256)
        v = analyze_trace(CurrentTrace(t.f, t.j + slope * t.f, n_electrons=3),
                          blind=False).verdict
        assert (v.kind, v.estimated_n, v.estimated_parity) == (VerdictKind.ODD_NC_DETECTED, 3,
                                                               "odd")
        assert v.estimated_f_nc == pytest.approx(0.0100055208456622, rel=1e-13, abs=0.0)

    def test_even_case_on_an_odd_parity_is_inconclusive(self):
        # the parity compared is the one classify is given, not that of N
        v = classify(_fit(-4.08, -2.0), _fit(-8e-2, -2.0), 4, "odd")
        assert (v.kind, v.criterion) == (VerdictKind.INCONCLUSIVE, "case2_odd")
        assert v.estimated_f_nc is None
        assert v.diagnostics[-1] == "criterion case 2 contradicts the odd parity"
        assert classify(_fit(-4.08, -2.0), _fit(-8e-2, -2.0), 3, "even").criterion == "case2"

    def test_even_ordering_required(self):
        # both divergent-negative but lambda above sigma: not case two
        v = classify(_fit(-1e-2, -2.0), _fit(-4.0, -2.0), 4, "even")
        assert v.kind is VerdictKind.INCONCLUSIVE

    def test_thresholds_are_configurable(self):
        tight = RunConfig(exponent_tol=0.01)
        v = classify(_fit(-6e-5, -2.2), _fit(3.0, -2.0), 3, "odd", tight)
        assert v.kind is not VerdictKind.ODD_NC_DETECTED


# Each branch of the criterion with its diagnostics; the lines of the first seven are
# those classify wrote while a verdict stored them as text, and must keep these bytes.
NO_SIGNAL = "no usable signal above the noise floor"
GOLDEN_VERDICTS = {
    "odd detection": ((_fit(-6e-5, -2.0), _fit(2.99994, -2.0), 3, "odd"), "case1", (
        "lambda: amplitude -6.0000e-05, exponent -2.0000, r2 1.000000, points 50, divergent=yes",
        "sigma: amplitude 2.9999e+00, exponent -2.0000, r2 1.000000, points 50, divergent=yes",
        "electron number estimate: 3 (odd)",
        "criterion case 1: odd-ring divergence pattern",
        "f_nc cross-check: primary 1.0000e-05, cross 1.0000e-05, relative gap 1.0000e-12",
    )),
    "even detection": ((_fit(-4.08, -2.0), _fit(-8e-2, -2.0), 4, "even"), "case2", (
        "lambda: amplitude -4.0800e+00, exponent -2.0000, r2 1.000000, points 50, divergent=yes",
        "sigma: amplitude -8.0000e-02, exponent -2.0000, r2 1.000000, points 50, divergent=yes",
        "electron number estimate: 4 (even)",
        "criterion case 2: even-ring divergence pattern (lambda < sigma)",
        "f_nc cross-check: primary 1.0000e-02, cross 1.0000e-02, relative gap 8.6736e-16",
    )),
    "commutative odd": ((None, _fit(3.0, -2.0), 3, "odd"), "commutative_odd", (
        f"lambda: {NO_SIGNAL}",
        "sigma: amplitude 3.0000e+00, exponent -2.0000, r2 1.000000, points 50, divergent=yes",
        "electron number estimate: 3 (odd)",
        "commutative odd pattern: lambda absent, sigma ~ +N/f^2",
    )),
    "commutative even": ((_fit(-4.0, -2.0), None, 4, "even"), "commutative_even", (
        "lambda: amplitude -4.0000e+00, exponent -2.0000, r2 1.000000, points 50, divergent=yes",
        f"sigma: {NO_SIGNAL}",
        "electron number estimate: 4 (even)",
        "commutative even pattern: sigma absent, lambda ~ -N/f^2",
    )),
    "no case": ((_fit(-6e-5, -2.4, r2=0.987654321, n=37), _fit(3.0, -1.9, floor=2.0), 3, "odd"),
                "none", (
        "lambda: amplitude -6.0000e-05, exponent -2.4000, r2 0.987654, points 37, divergent=no",
        "sigma: amplitude 3.0000e+00, exponent -1.9000, r2 1.000000, points 50, divergent=no",
        "electron number estimate: 3 (odd)",
        "no criterion case matches the observed divergence pattern",
    )),
    "no fits": ((None, None, 3, "odd"), "none", (
        f"lambda: {NO_SIGNAL}", f"sigma: {NO_SIGNAL}", "electron number estimate: 3 (odd)",
        "no criterion case matches the observed divergence pattern",
    )),
    # a zero amplitude passes the tests against a negative floor but has no sign
    "zero amplitude": ((_fit(0.0, -2.0, floor=-1.0), _fit(3.0, -2.0), 3, "odd"),
                       "commutative_odd", (
        "lambda: amplitude 0.0000e+00, exponent -2.0000, r2 1.000000, points 50, divergent=yes",
        "sigma: amplitude 3.0000e+00, exponent -2.0000, r2 1.000000, points 50, divergent=yes",
        "electron number estimate: 3 (odd)",
        "commutative odd pattern: lambda absent, sigma ~ +N/f^2",
    )),
    "odd case, even parity": ((_fit(-6e-5, -2.0), _fit(2.99994, -2.0), 4, "even"),
                              "case1_even", (
        "lambda: amplitude -6.0000e-05, exponent -2.0000, r2 1.000000, points 50, divergent=yes",
        "sigma: amplitude 2.9999e+00, exponent -2.0000, r2 1.000000, points 50, divergent=yes",
        "electron number estimate: 4 (even)",
        "criterion case 1 contradicts the even parity",
    )),
    "even case, odd parity": ((_fit(-4.08, -2.0), _fit(-8e-2, -2.0), 3, "odd"), "case2_odd", (
        "lambda: amplitude -4.0800e+00, exponent -2.0000, r2 1.000000, points 50, divergent=yes",
        "sigma: amplitude -8.0000e-02, exponent -2.0000, r2 1.000000, points 50, divergent=yes",
        "electron number estimate: 3 (odd)",
        "criterion case 2 contradicts the odd parity",
    )),
}
CRITERION_KINDS = {
    "case1": VerdictKind.ODD_NC_DETECTED,
    "case2": VerdictKind.EVEN_NC_DETECTED,
    "commutative_odd": VerdictKind.NO_NC_DETECTED,
    "commutative_even": VerdictKind.NO_NC_DETECTED,
    "none": VerdictKind.INCONCLUSIVE,
    "case1_even": VerdictKind.INCONCLUSIVE,
    "case2_odd": VerdictKind.INCONCLUSIVE,
}


def reference_classify(lambda_fit, sigma_fit, n, parity, config=RunConfig()):
    """(kind, diagnostics) as classify built them while a verdict stored its prose, a case
    that contradicts `parity` then made inconclusive."""
    def divergence(fit, name):
        if fit is None:
            return False, False, f"{name}: {NO_SIGNAL}"
        divergent = (abs(fit.exponent + 2.0) <= config.exponent_tol
                     and abs(fit.amplitude) > config.amplitude_floor_mult * fit.residual_floor)
        note = (f"{name}: amplitude {fit.amplitude:.4e}, exponent {fit.exponent:.4f}, "
                f"r2 {fit.r_squared:.6f}, points {fit.n_points_used}, "
                f"divergent={'yes' if divergent else 'no'}")
        return divergent and fit.amplitude < 0.0, divergent and fit.amplitude > 0.0, note

    lam_neg, lam_pos, lam_note = divergence(lambda_fit, "lambda")
    sig_neg, sig_pos, sig_note = divergence(sigma_fit, "sigma")
    notes = [lam_note, sig_note, f"electron number estimate: {n} ({parity})"]
    if lam_neg and sig_pos:
        kind = VerdictKind.ODD_NC_DETECTED
        line = "criterion case 1: odd-ring divergence pattern"
    elif lam_neg and sig_neg and lambda_fit.amplitude < sigma_fit.amplitude:
        kind = VerdictKind.EVEN_NC_DETECTED
        line = "criterion case 2: even-ring divergence pattern (lambda < sigma)"
    elif not (lam_neg or lam_pos) and sig_pos:
        kind = VerdictKind.NO_NC_DETECTED
        line = "commutative odd pattern: lambda absent, sigma ~ +N/f^2"
    elif not (sig_neg or sig_pos) and lam_neg:
        kind = VerdictKind.NO_NC_DETECTED
        line = "commutative even pattern: sigma absent, lambda ~ -N/f^2"
    else:
        kind = VerdictKind.INCONCLUSIVE
        line = "no criterion case matches the observed divergence pattern"
    number, against = {VerdictKind.ODD_NC_DETECTED: (1, "even"),
                       VerdictKind.EVEN_NC_DETECTED: (2, "odd")}.get(kind, (0, None))
    if parity == against:
        kind = VerdictKind.INCONCLUSIVE
        line = f"criterion case {number} contradicts the {parity} parity"
    notes.append(line)
    if kind in (VerdictKind.ODD_NC_DETECTED, VerdictKind.EVEN_NC_DETECTED):
        f_nc, _, cross, gap = estimate_theta_tilde(kind, lambda_fit, sigma_fit, n,
                                                   radius=config.radius_m, alpha=config.alpha)
        notes.append(f"f_nc cross-check: primary {f_nc:.4e}, "
                     f"cross {cross:.4e}, relative gap {gap:.4e}")
    return kind, tuple(notes)


# fits near every edge of the criterion: absent, signed zero, NaN, either side of
# the exponent band and of the amplitude floor (which may be negative)
EDGE_FITS = st.none() | st.builds(
    _fit,
    amplitude=st.sampled_from([0.0, -0.0, math.nan, math.inf, -3.0, 3.0, -4.08, -8e-2, -6e-5])
    | st.floats(-10.0, 10.0),
    exponent=st.sampled_from([-2.0, -2.3, -1.7, -2.31, math.nan]) | st.floats(-3.0, -1.0),
    floor=st.sampled_from([0.0, -1.0, 1e-6, 1.0, math.nan]) | st.floats(-1.0, 3.0),
    r2=st.floats(0.0, 1.0),
    n=st.integers(5, 10**6),
)


class TestVerdictFacts:
    """A verdict keeps the criterion's key and flags; its diagnostics are rendered from them."""

    @pytest.mark.parametrize("name", GOLDEN_VERDICTS)
    def test_golden_diagnostics(self, name):
        args, criterion, lines = GOLDEN_VERDICTS[name]
        v = classify(*args)
        assert (v.criterion, v.kind) == (criterion, CRITERION_KINDS[criterion])
        assert v.diagnostics == lines
        assert (v.lambda_divergent, v.sigma_divergent) == tuple(
            line.endswith("divergent=yes") for line in lines[:2])

    def test_golden_covers_every_branch(self):
        assert {c for _, c, _ in GOLDEN_VERDICTS.values()} == set(CRITERION_KINDS)

    @given(lam=EDGE_FITS, sig=EDGE_FITS, n=st.integers(1, 10001),
           parity=st.sampled_from(["odd", "even"]))
    # a drawn pair seldom shows a case, so each case is also given against the other parity
    @example(lam=_fit(-6e-5, -2.0), sig=_fit(3.0, -2.0), n=4, parity="even")
    @example(lam=_fit(-4.08, -2.0), sig=_fit(-8e-2, -2.0), n=3, parity="odd")
    @settings(max_examples=200, deadline=None)
    def test_matches_prose_classifier(self, lam, sig, n, parity):
        v = classify(lam, sig, n, parity)
        assert (v.kind, v.diagnostics) == reference_classify(lam, sig, n, parity)
        assert v.kind is CRITERION_KINDS[v.criterion]
        detected = v.criterion in ("case1", "case2")
        assert (v.f_nc_hat_cross is not None, v.cross_gap is not None) == (detected, detected)

    def test_slotted_and_read_only(self):
        v = classify(_fit(-6e-5, -2.0), _fit(3.0, -2.0), 3, "odd")
        assert not hasattr(v, "__dict__") and not hasattr(v.lambda_fit, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.criterion = "none"
        # CPython 3.11's frozen slotted __setattr__ raises TypeError for a non-field name
        with pytest.raises((AttributeError, TypeError)):
            v.diagnostics = ()
        assert v.diagnostics == v.diagnostics and v.diagnostics is not v.diagnostics


def batch_small_mix(seed: int = 1) -> list[tuple]:
    """(ring, f_min, noise sigma, noise seed) of the 600 traces in one draw of the
    benchmark's batch_small mix: noisy commutative rings and noiseless detections."""
    rng = random.Random(seed)
    specs = [(n, 0.0, mult * n, rng.randrange(2**31))
             for n in (3, 4) for mult in (0.0, 0.01, 0.1) for _ in range(50)]
    specs += [(n, f_nc, 0.0, None)
              for n in (3, 4, 101, 10000, 10001) for f_nc in (1e-5, 1e-3, 1e-2) for _ in range(20)]
    rng.shuffle(specs)
    return [(ring_with(n, f_nc), max(1e-3, f_nc) if n % 2 == 0 else 1e-3, sigma, noise_seed)
            for n, f_nc, sigma, noise_seed in specs]


def test_retained_memory_per_verdict():
    def verdict(ring, f_min, sigma, noise_seed):
        trace = synthesize_trace(ring, f_min, 0.4, 128, noise_sigma=sigma, seed=noise_seed)
        return analyze_trace(trace).verdict

    inputs = batch_small_mix()
    # build each grid and its shared terms, and import numpy.random by one noisy trace,
    # first, so that what the traced pass holds is its verdicts
    for spec in {(spec[1], spec[2] > 0.0): spec for spec in inputs}.values():
        verdict(*spec)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        verdicts = [verdict(*spec) for spec in inputs]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # about 505 bytes: the slotted verdict, its two slotted fits and their floats;
    # 1100 when each verdict kept its diagnostics as text in an instance dict
    assert len(verdicts) == 600 and held / len(verdicts) < 600


class TestEstimateThetaTilde:
    def test_reference_chain(self):
        n = 10001
        lam = _fit(-2.0 * n * 1.5828e-5, -2.0)
        sig = _fit(n * (1.0 - 2.0 * 1.5828e-5), -2.0)
        f_nc, theta_tilde, _, gap = estimate_theta_tilde(
            VerdictKind.ODD_NC_DETECTED, lam, sig, n, radius=1e-6, alpha=1.0
        )
        assert f_nc == pytest.approx(1.5828e-5, rel=1e-12)
        assert theta_tilde == pytest.approx(THETA_TILDE_REF, rel=2e-3)
        assert gap < 1e-9

    def test_even_inversion(self):
        n = 4
        f_nc = 1e-2
        lam = _fit(-n * (1.0 + 2.0 * f_nc), -2.0)
        sig = _fit(-2.0 * n * f_nc, -2.0)
        primary, _, cross, _ = estimate_theta_tilde(
            VerdictKind.EVEN_NC_DETECTED, lam, sig, n, radius=1e-6, alpha=1.0
        )
        assert primary == pytest.approx(f_nc, rel=1e-12)
        assert cross == pytest.approx(f_nc, rel=1e-9)

    def test_zero_amplitude_maps_to_zero(self):
        f_nc, theta_tilde, _, _ = estimate_theta_tilde(
            VerdictKind.ODD_NC_DETECTED, _fit(-0.0, -2.0), _fit(3.0, -2.0), 3,
            radius=1e-6, alpha=1.0,
        )
        assert f_nc == 0.0
        assert theta_tilde == 0.0

    @pytest.mark.parametrize("radius", [1e-7, 1e-6, 2e-6, 1e-4])
    @pytest.mark.parametrize("f_nc", [1e-5, 1.5828e-5, 1e-3, 0.3])
    def test_one_map_from_f_nc_to_theta_tilde(self, f_nc, radius):
        # from_f_nc and the inversion share one map, with the bits of each one's own
        # former formula: hbar * 1.0 is exact; N = 4 makes -A / (2N) give f_nc back exactly
        for alpha in (1.0, 0.5, 0.3):
            primary, theta_tilde, _, _ = estimate_theta_tilde(
                VerdictKind.ODD_NC_DETECTED, _fit(-8.0 * f_nc, -2.0), _fit(4.0, -2.0), 4,
                radius=radius, alpha=alpha)
            assert primary == f_nc
            assert bits(theta_tilde) == bits(f_nc * (CONSTANT_HBAR * alpha / radius) ** 2)
        ring = RingSystem.from_f_nc(4, f_nc, radius=radius)
        assert bits(ring.theta_tilde) == bits(f_nc * (CONSTANT_HBAR / radius) ** 2)
        assert bits(ring.theta_tilde) == bits(theta_tilde_from_f_nc(f_nc, radius, 1.0))

    def test_not_detected_refused(self):
        with pytest.raises(NotDetected):
            estimate_theta_tilde(
                VerdictKind.NO_NC_DETECTED, _fit(-1.0, -2.0), _fit(1.0, -2.0), 3,
                radius=1e-6, alpha=1.0,
            )


class TestAnalyzeTrace:
    def test_odd_round_trip(self):
        ring = ring_with(3, 1e-5)
        result = analyze_trace(make_trace(ring))
        v = result.verdict
        assert v.kind is VerdictKind.ODD_NC_DETECTED
        assert v.estimated_n == 3 and v.estimated_parity == "odd"
        assert v.estimated_f_nc == pytest.approx(ring.f_nc, rel=5e-3)

    def test_even_round_trip(self):
        ring = ring_with(4, 1e-2)
        result = analyze_trace(make_trace(ring))
        v = result.verdict
        assert v.kind is VerdictKind.EVEN_NC_DETECTED
        assert v.estimated_n == 4 and v.estimated_parity == "even"
        assert v.estimated_f_nc == pytest.approx(ring.f_nc, rel=5e-3)

    def test_verdict_invariants(self):
        for ring in (ring_with(3, 1e-5), ring_with(4, 1e-2), ring_with(3, 0.0)):
            v = analyze_trace(make_trace(ring)).verdict
            if v.kind is not VerdictKind.INCONCLUSIVE:
                assert v.estimated_f_nc >= 0.0
                # theta_tilde consistent with f_nc through the ring geometry
                back = v.estimated_theta_tilde * (1e-6 / CONSTANT_HBAR) ** 2
                assert back == pytest.approx(v.estimated_f_nc, rel=1e-12, abs=1e-300)

    def test_commutative_limit(self):
        for n in (3, 4):
            result = analyze_trace(make_trace(ring_with(n, 0.0)))
            assert result.verdict.kind is VerdictKind.NO_NC_DETECTED

    def test_blind_ignores_hint(self):
        ring = ring_with(3, 1e-5)
        trace = make_trace(ring)
        blind = analyze_trace(trace, blind=True)
        informed = analyze_trace(trace, blind=False)
        assert blind.verdict.estimated_n == informed.verdict.estimated_n == 3

    def test_informed_reads_the_stated_electron_number(self):
        # J doubled: the fit reads N = 6 (even), the trace states 3 (odd)
        trace = make_trace(ring_with(3, 1e-5))
        doubled = dataclasses.replace(trace, j=2.0 * trace.j)
        assert analyze_trace(doubled).verdict.estimated_n == 6
        informed = analyze_trace(doubled, blind=False).verdict
        assert (informed.estimated_n, informed.estimated_parity) == (3, "odd")
        unstated = dataclasses.replace(doubled, n_electrons=None)
        with pytest.raises(InvalidRange, match="n_electrons"):
            analyze_trace(unstated, blind=False)

    def test_seed_determinism(self):
        ring = ring_with(3, 1e-5)
        a = analyze_trace(make_trace(ring, noise_sigma=0.001, seed=9))
        b = analyze_trace(make_trace(ring, noise_sigma=0.001, seed=9))
        assert a.verdict == b.verdict
        assert np.array_equal(a.lam, b.lam)

    def test_fits_exactly_the_interior(self):
        # a fit window wider than the grid: only the two one-sided endpoints
        # are left out of the fits and of the floor
        trace = synthesize_trace(ring_with(3, 1e-3), 1e-3, 0.4, 64)
        config = RunConfig(n_electrons=3, fit_f_lo=1e-4, fit_f_hi=1.0)
        result = analyze_trace(trace, config)
        v = result.verdict
        assert v.kind is VerdictKind.ODD_NC_DETECTED
        assert v.lambda_fit.n_points_used == v.sigma_fit.n_points_used == 62
        sigma_j = max(result.trace_noise_rms, np.finfo(float).eps * np.abs(trace.j).max())
        f = trace.f
        scale = float(np.median(f[1:-1] / (f[2:] - f[:-2])))
        assert result.residual_floor == math.sqrt(2.0) * sigma_j * scale

    @pytest.mark.parametrize("window", [1, 3, 5])
    @pytest.mark.parametrize("n_points", [64, 256, 1024])
    def test_log_grid_floor_closed_form(self, n_points, window):
        # on a log grid f / d2 = 1 / (r - 1/r) at every interior point, with
        # r = f[1] / f[0], so the floor is sqrt(2) sigma / (sqrt(W) 2 sinh(log r))
        trace = synthesize_trace(ring_with(3, 1e-3), 1e-3, 0.4, n_points, noise_sigma=3e-3,
                                 seed=n_points + window)
        result = analyze_trace(trace, RunConfig(n_electrons=3, smoothing_window=window))
        sigma_floor = max(result.trace_noise_rms, np.finfo(float).eps * np.abs(trace.j).max())
        r = trace.f[1] / trace.f[0]
        closed = math.sqrt(2.0) * sigma_floor / (math.sqrt(window) * (r - 1.0 / r))
        assert result.residual_floor == pytest.approx(closed, rel=1e-12, abs=0.0)
        if (n_points, window) == (256, 1):
            ratio = result.residual_floor / result.trace_noise_rms
            assert ratio == pytest.approx(30.0920815520576, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "n, n_points, grid, f_max",
        [(n, 256, "uniform", 0.4) for n in (6, 12, 24)]
        + [(n, 1000, "log", 0.49) for n in (6, 12, 24)]
        + [(10, 16, "log", 0.1), (20, 16, "log", 0.1), (100, 128, "log", 0.1),
           (1000, 128, "log", 0.4)],
    )
    def test_noiseless_commutative_not_detected(self, n, n_points, grid, f_max):
        # an exactly linear fit leaves sigma_j = 0; the floor must still sit at
        # the rounding level of J, or rounding noise passes for a divergence
        trace = synthesize_trace(ring_with(n, 0.0), 1e-3, f_max, n_points, grid=grid)
        result = analyze_trace(trace)
        assert result.verdict.kind not in (
            VerdictKind.ODD_NC_DETECTED,
            VerdictKind.EVEN_NC_DETECTED,
        )
        assert result.residual_floor > 0.0

    def test_monotone_degradation_sample(self):
        # noise must never turn a commutative trace into a detection
        for n in (3, 4):
            ring = ring_with(n, 0.0)
            for sigma_mult in (0.0, 0.01, 0.1):
                for seed in range(10):
                    trace = make_trace(
                        ring, n_points=128, noise_sigma=sigma_mult * n, seed=seed
                    )
                    kind = analyze_trace(trace).verdict.kind
                    assert kind in (
                        VerdictKind.NO_NC_DETECTED,
                        VerdictKind.INCONCLUSIVE,
                    )


# Exactness pins.  The pipeline takes faster routes than these plain numpy
# forms (one stacked pass for both signatures, sum / n for the mean, the
# floor's median taken once per fit window, a cached grid); the routes must
# give the same bits, so every comparison below is on the raw bytes.


def plain_line_fit(x, y):
    x_bar, y_bar = x.mean(), y.mean()
    dx, dy = x - x_bar, y - y_bar
    slope = float(dx @ dy / (dx @ dx))
    res = dy - slope * dx
    return float(y_bar - slope * x_bar), slope, float(res @ res), float(dy @ dy)


def plain_signature(f, u, window):
    """Moving average by cumulative sums (width 1 is u itself), then the 3-point stencil."""
    if window > 1:
        half, n = window // 2, len(u)
        csum = np.concatenate([[0.0], np.cumsum(u)])
        lo = np.maximum(np.arange(n) - half, 0)
        hi = np.minimum(np.arange(n) + half, n - 1)
        u = (csum[hi + 1] - csum[lo]) / (hi + 1 - lo)
    d = np.empty(len(f))
    h1, h2 = f[1:-1] - f[:-2], f[2:] - f[1:-1]
    d[1:-1] = (
        h1 * h1 * u[2:] - h2 * h2 * u[:-2] + (h2 * h2 - h1 * h1) * u[1:-1]
    ) / (h1 * h2 * (h1 + h2))
    d[0] = (u[1] - u[0]) / (f[1] - f[0])
    d[-1] = (u[-1] - u[-2]) / (f[-1] - f[-2])
    return d


def plain_noise_floor(f, sigma_j, window, f_window):
    f_int, d2 = f[1:-1], f[2:] - f[:-2]
    in_window = (f_int >= f_window[0]) & (f_int <= f_window[1])
    if not in_window.any():
        return 0.0
    scale = float(np.median(f_int[in_window] / d2[in_window]))
    return math.sqrt(2.0) * sigma_j / math.sqrt(window) * scale


def plain_power_law(f, values, f_window, floor):
    mask = (f >= f_window[0]) & (f <= f_window[1]) & np.isfinite(values) & (np.abs(values) > floor)
    n_used = int(mask.sum())
    if n_used < 5 or f[mask].min() == f[mask].max():
        return None
    intercept, slope, ss_res, ss_tot = plain_line_fit(
        np.log10(f[mask]), np.log10(np.abs(values[mask]))
    )
    n_pos = int((values[mask] > 0.0).sum())
    return PowerLawFit(
        amplitude=(1.0 if n_pos > n_used - n_pos else -1.0) * 10.0**intercept,
        exponent=slope,
        r_squared=max(0.0, 1.0 - ss_res / ss_tot) if ss_tot > 0.0 else 1.0,
        n_points_used=n_used,
        residual_floor=floor,
    )


def plain_analysis(trace, config):
    """(verdict, lam, sig, noise rms, floor) of a blind analysis, from the plain forms."""
    f, j, window = trace.f, trace.j, config.smoothing_window
    intercept, slope, ss_res, _ = plain_line_fit(f, j)
    sigma_j = math.sqrt(ss_res / (len(f) - 2))
    n, parity = _electron_number(intercept, slope)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam, sig = (plain_signature(f, numerator / f, window) for numerator in (j, j - n))
    sigma_floor = max(sigma_j, float(np.finfo(float).eps * np.max(np.abs(j))))
    f_window = (config.fit_f_lo, config.fit_f_hi)
    floor = plain_noise_floor(f, sigma_floor, window, f_window)
    fits = [plain_power_law(f[1:-1], v[1:-1], f_window, floor) for v in (lam, sig)]
    return classify(*fits, n, parity, config), lam, sig, sigma_j, floor


class TestExactness:
    @pytest.mark.parametrize("window", [1, 3, 5])
    @pytest.mark.parametrize("grid", ["log", "uniform"])
    def test_differentiate_trace(self, window, grid):
        trace = synthesize_trace(ring_with(3, 1e-3), 1e-3, 0.4, 129, noise_sigma=3e-3, seed=5,
                                 grid=grid)
        lam, sig, _ = differentiate_trace(trace, 3, smoothing_window=window)
        f, j = trace.f, trace.j
        assert bits(lam) == bits(plain_signature(f, j / f, window))
        assert bits(sig) == bits(plain_signature(f, (j - 3) / f, window))

    @pytest.mark.parametrize("f_hi, parity", [(0.1, 0), (0.2, 1)])
    @pytest.mark.parametrize("window", [1, 3])
    def test_noise_floor_odd_and_even_counts(self, f_hi, parity, window):
        # on a uniform grid the amplitudes grow with f, so the middle pair differ
        f = flux_grid(1e-3, 0.4, 100, "uniform")
        f_window = (1e-3, f_hi)
        in_window = np.flatnonzero((f[1:-1] >= f_window[0]) & (f[1:-1] <= f_window[1]))
        assert in_window.size % 2 == parity
        floor = _noise_floor(_window(f, *f_window), 0.03, window)
        assert bits(floor) == bits(plain_noise_floor(f, 0.03, window, f_window))
        for sigma_j in (0.03, math.nan, math.inf):  # no point in the window, whatever the noise
            assert _noise_floor(_window(f, 0.5, 0.6), sigma_j, window) == 0.0

    def test_noise_floor_nan_amplitude(self):
        # at f ~ 1e-200 both f d2f and f^2 underflow to 0, so the per-point
        # amplitude f^2 / (f d2f) is inf * 0 there; f / d2f is finite on any
        # strictly increasing grid, and so is the floor built on it
        f = np.concatenate([[1e-200, 2e-200, 3e-200], np.geomspace(1e-3, 0.4, 20)])
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            amp = 0.03 / (f[1:-1] * (f[2:] - f[:-2])) * f[1:-1] ** 2
        assert np.isnan(amp).sum() == 1
        floor = _noise_floor(_window(f, 1e-300, 1.0), 0.03, 1)  # every interior point
        assert math.isfinite(floor)
        assert bits(floor) == bits(plain_noise_floor(f, 0.03, 1, (1e-300, 1.0)))

    def test_analyze_trace_mix(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.choice((3, 4, 101, 10000, 10001))
            f_nc = rng.choice((0.0, 1e-5, 1e-2))
            noise = rng.choice((0.0, 1e-3 * n, 0.05 * n))
            ring = ring_with(n, f_nc)
            f_min = max(1e-3, f_nc) if n % 2 == 0 else 1e-3
            trace = synthesize_trace(ring, f_min, 0.4, rng.choice((127, 128)),
                                     noise_sigma=noise, seed=rng.randrange(2**31),
                                     grid=rng.choice(("log", "uniform")))
            config = RunConfig(smoothing_window=rng.choice((1, 3, 5)))
            result = analyze_trace(trace, config)
            verdict, lam, sig, sigma_j, floor = plain_analysis(trace, config)
            assert repr(result.verdict) == repr(verdict)
            assert bits(result.lam) == bits(lam) and bits(result.sig) == bits(sig)
            assert bits(result.trace_noise_rms) == bits(sigma_j)
            assert bits(result.residual_floor) == bits(floor)


class TestGridTerms:
    """A synthesize_trace trace records its grid request, whose terms are memoized once;
    any other trace copies its flux and computes each term for its own call."""

    @pytest.mark.parametrize("window", [1, 3, 5])
    @pytest.mark.parametrize("grid", ["log", "uniform"])
    def test_shared_copied_and_plain_agree(self, window, grid):
        # fit windows: the default, a narrower one with the same lower bound,
        # one above the grid (empty) and one wider than it; three rings on one
        # grid each, so every trace after the first reuses its terms
        for f_lo, f_hi in ((1e-3, 1e-1), (1e-3, 3e-2), (0.5, 0.6), (1e-4, 1.0)):
            config = RunConfig(smoothing_window=window, fit_f_lo=f_lo, fit_f_hi=f_hi)
            for n, f_nc, noise in ((3, 1e-3, 1e-4), (101, 0.0, 1e-2), (5, 1e-2, 0.0)):
                shared = synthesize_trace(ring_with(n, f_nc), 1e-3, 0.4, 96, noise_sigma=noise,
                                          seed=n, grid=grid)
                assert shared._grid == (1e-3, 0.4, 96, grid)
                copied = dataclasses.replace(shared, f=np.array(shared.f))
                assert copied._grid is None
                assert not np.shares_memory(copied.f, shared.f)
                verdict, lam, sig, sigma_j, floor = plain_analysis(shared, config)
                for trace in (shared, copied, shared):
                    result = analyze_trace(trace, config)
                    assert repr(result.verdict) == repr(verdict)
                    assert bits(result.lam) == bits(lam) and bits(result.sig) == bits(sig)
                    assert bits(result.trace_noise_rms) == bits(sigma_j)
                    assert bits(result.residual_floor) == bits(floor)

    def test_equal_grid_arguments_share_one_grid(self):
        ring = ring_with(3, 1e-3)
        first = synthesize_trace(ring, 1e-3, 0.4, 64)
        second = synthesize_trace(ring, 1e-3, 0.4, 64, noise_sigma=1e-3, seed=1)
        assert second._grid == first._grid and second.f is first.f
        assert flux_grid(1e-3, 0.4, 64) is first.f is _grid(*first._grid)
        uniform = synthesize_trace(ring, 1e-3, 0.4, 64, grid="uniform")
        assert uniform._grid != first._grid and uniform.f is not first.f

    def test_one_term_per_request_and_window(self):
        trace = synthesize_trace(ring_with(3, 1e-3), 1e-3, 0.4, 96, noise_sigma=1e-4, seed=3)
        _shared_term.cache_clear()
        for f_hi in np.geomspace(2e-3, 0.3, 20):
            config = RunConfig(fit_f_hi=float(f_hi))
            result = analyze_trace(trace, config)
            verdict, lam, sig, sigma_j, floor = plain_analysis(trace, config)
            assert repr(result.verdict) == repr(verdict)
            assert bits(result.lam) == bits(lam) and bits(result.sig) == bits(sig)
            assert bits(result.trace_noise_rms) == bits(sigma_j)
            assert bits(result.residual_floor) == bits(floor)
        # the centring and the stencil once for the grid, then one term per window
        info = _shared_term.cache_info()
        assert (info.misses, info.hits, info.currsize) == (22, 38, 22)
        window = _window(trace.f, 1e-3, float(f_hi))
        held = _shared_term(_window, *trace._grid, 1e-3, float(f_hi))
        assert all(bits(a) == bits(b) for a, b in zip(window[1:3], held[1:3]))

    def test_file_trace_computes_its_terms_per_call(self, monkeypatch, tmp_path):
        ring = ring_with(3, 1e-3)
        path = tmp_path / "trace.csv"
        write_trace_csv(synthesize_trace(ring, 1e-3, 0.4, 64, noise_sigma=1e-4, seed=1), path)
        trace = read_trace_csv(path, ring=ring)
        assert trace._grid is None
        computed = []

        def recorded(part):
            def call(f, *args):
                if f is trace.f:  # not the centring of a window's log10 f
                    computed.append(part.__name__)
                return part(f, *args)
            return call

        for name in ("_centre", "_stencil", "_window"):
            monkeypatch.setattr(pipeline, name, recorded(getattr(pipeline, name)))
        cache = _shared_term.cache_info()
        analyze_trace(trace)
        estimate_electron_number(trace)
        trace_noise_rms(trace)
        differentiate_trace(trace, 3)
        # each stage computes what it reads, and nothing is memoized or kept on the trace
        assert computed == ["_centre", "_stencil", "_window", "_centre", "_centre", "_stencil"]
        assert _shared_term.cache_info() == cache
        assert set(vars(trace)) == {f.name for f in dataclasses.fields(trace)}

    def test_terms_are_held_by_the_memo_not_the_trace(self):
        ring = ring_with(3, 1e-3)
        trace = synthesize_trace(ring, 1.25e-3, 0.3, 40)  # arguments no other test uses
        _shared_term.cache_clear()
        synthesize_trace(ring, 1.25e-3, 0.3, 40, noise_sigma=1e-3, seed=2)
        # building a trace memoizes its ring's current on the request, and no grid term
        info = _shared_term.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        analyze_trace(trace)
        assert _shared_term.cache_info().currsize == 4
        stencil = weakref.ref(pipeline._term(trace, _stencil)[0])
        current = weakref.ref(_shared_term(pipeline._current, *trace._grid, ring))
        assert stencil() is not None and current() is not None
        _shared_term.cache_clear()
        gc.collect()
        assert stencil() is None  # the trace, still alive, holds none of its terms
        assert current() is None  # nor the memo's current, of which it holds a copy

    def test_current_is_evaluated_once_per_ring_and_request(self, monkeypatch):
        evaluated = []

        def counted(ring, f):
            evaluated.append(ring)
            return persistent_current(ring, f)

        monkeypatch.setattr(pipeline, "persistent_current", counted)
        ring = ring_with(5, 1e-3)
        request = (1.5e-3, 0.3, 48, "log")  # arguments no other test uses
        _shared_term.cache_clear()
        traces = [synthesize_trace(ring, *request[:3], noise_sigma=sigma, seed=seed,
                                   grid=request[3])
                  for sigma, seed in ((0.0, None), (1e-3, 1), (0.0, 4), (2e-2, 2), (1e-3, 1))]
        traces.append(synthesize_trace(ring_with(5, 1e-3), *request[:3]))  # an equal ring
        assert evaluated == [ring] and _shared_term.cache_info().currsize == 1
        f = flux_grid(*request)
        plain = persistent_current(ring, f)
        for trace in traces:
            noise = (np.random.default_rng(trace.seed).normal(0.0, trace.noise_sigma, 48)
                     if trace.noise_sigma > 0.0 else 0.0)
            assert trace.f is f and bits(trace.j) == bits(plain + noise)
        held = _shared_term(pipeline._current, *request, ring)
        assert bits(held) == bits(plain) and not held.flags.writeable
        assert not any(np.shares_memory(trace.j, held) for trace in traces)
        assert bits(traces[1].j) == bits(traces[4].j) and traces[1].j is not traces[4].j

    def test_each_ring_and_request_has_its_own_current(self):
        odd, even = ring_with(5, 1e-3), ring_with(6, 1e-3)
        _shared_term.cache_clear()
        traces = [synthesize_trace(ring, 1.5e-3, 0.3, n, noise_sigma=1e-3, seed=3)
                  for ring in (odd, even) for n in (48, 49)]
        info = _shared_term.cache_info()
        assert (info.misses, info.currsize) == (4, 4)
        for trace, ring in zip(traces, (odd, odd, even, even)):
            noise = np.random.default_rng(3).normal(0.0, 1e-3, len(trace))
            assert bits(trace.j) == bits(persistent_current(ring, trace.f) + noise)
            held = _shared_term(pipeline._current, *trace._grid, ring)
            assert bits(held) == bits(persistent_current(ring, trace.f))
        info = _shared_term.cache_info()
        assert (info.hits, info.misses) == (4, 4)  # one entry each

    def test_file_trace_holds_no_terms_after_analysis(self, tmp_path):
        ring = ring_with(10001, 1.5828e-5)
        small, large = tmp_path / "small.csv", tmp_path / "large.csv"
        write_trace_csv(synthesize_trace(ring, 1e-3, 0.4, 64, noise_sigma=1e-6, seed=7), small)
        write_trace_csv(synthesize_trace(ring, 1e-3, 0.4, 100_000, noise_sigma=1e-6, seed=7),
                        large)
        analyze_trace(read_trace_csv(small, ring=ring))  # the lazy imports of both, first
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = read_trace_csv(large, ring=ring)
            analyze_trace(trace)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 1.6 MB of f and j; 6.2 MB when a file trace kept its grid's centring, stencil and window
        assert len(trace) == 100_000 and held < 2e6

    def test_other_fluxes_are_copied(self):
        request = (1e-3, 0.4, 64, "log")
        grid = flux_grid(*request)
        read_only = np.array(grid)
        read_only.flags.writeable = False
        for f in (grid, np.array(grid), read_only, grid[:], list(grid)):
            # a trace shares a grid only when its flux is that request's array
            for trace in (CurrentTrace(f=f, j=np.zeros(64)),
                          CurrentTrace(f=f, j=np.zeros(64), _grid=request if f is not grid
                                       else (1e-3, 0.4, 64, "uniform"))):
                assert trace._grid is None
                assert trace.f is not grid and not np.shares_memory(trace.f, grid)
                assert bits(trace.f) == bits(grid)
            if isinstance(f, np.ndarray) and f.base is None and f is not grid:
                f.flags.writeable = True  # the caller owns its array and may write it
                f[0] = 5.0
                assert trace.f[0] == grid[0]
        assert CurrentTrace(f=grid, j=np.zeros(64), _grid=request).f is grid
        # a replaced current keeps the shared grid; a replaced flux is copied, its request cleared
        shared = synthesize_trace(ring_with(3, 1e-3), 1e-3, 0.4, 64)
        kept = dataclasses.replace(shared, j=np.zeros(64))
        assert kept._grid == shared._grid and kept.f is shared.f
        replaced = dataclasses.replace(shared, f=np.geomspace(2e-3, 0.4, 64))
        assert replaced._grid is None and replaced.f[0] == 2e-3

    def test_grid_checked_once_when_built(self):
        with pytest.raises(NonMonotonicFlux, match="flux values must be strictly increasing"):
            flux_grid(1e-3, 1e-3 * (1.0 + 1e-15), 8)  # too narrow: repeated values
        # a shared-grid trace still checks its current, after its shape
        shared = synthesize_trace(ring_with(3, 1e-3), 1e-3, 0.4, 16)
        with pytest.raises(InvalidRange, match="flux and current values must be finite"):
            dataclasses.replace(shared, j=np.full(16, np.nan))
        with pytest.raises(InvalidRange, match="f and j must be 1D arrays of equal length"):
            dataclasses.replace(shared, j=np.zeros(17))
        # a copied flux runs every check, the current's finiteness before the flux's order
        with pytest.raises(InvalidRange, match="flux and current values must be finite"):
            CurrentTrace(f=np.full(8, 1e-3), j=np.full(8, np.nan))
        with pytest.raises(NonMonotonicFlux, match="flux values must be strictly increasing"):
            CurrentTrace(f=np.full(8, 1e-3), j=np.zeros(8))
