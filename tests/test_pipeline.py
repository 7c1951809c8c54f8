"""Detection pipeline: synthesis, differentiation, fitting, classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncring.errors import (
    DegenerateFit,
    InsufficientSignal,
    InvalidRange,
    NotDetected,
    TooFewPoints,
)
from ncring.model import RingSystem, lambda_signature, sigma_signature
from ncring.pipeline import (
    CurrentTrace,
    PowerLawFit,
    RunConfig,
    TraceMeta,
    VerdictKind,
    _line_fit,
    analyze_trace,
    classify,
    differentiate_trace,
    estimate_electron_number,
    estimate_theta_tilde,
    fit_power_law,
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
        sig = differentiate_trace(trace, ring.n_electrons, smoothing_window=1)
        lam_ref = lambda_signature(ring, sig.f)
        keep = sig.interior_mask()
        rel = np.abs(sig.lam[keep] - lam_ref[keep]) / np.abs(lam_ref[keep])
        assert rel.max() < 1e-4

    def test_noiseless_even_sigma_matches_closed_form(self):
        ring = ring_with(4, 1e-2)
        trace = synthesize_trace(ring, ring.f_nc, 0.4, 1024)
        sig = differentiate_trace(trace, ring.n_electrons, smoothing_window=1)
        sig_ref = sigma_signature(ring, sig.f)
        keep = sig.interior_mask()
        rel = np.abs(sig.sig[keep] - sig_ref[keep]) / np.abs(sig_ref[keep])
        assert rel.max() < 1e-4

    def test_constant_current_gives_inverse_square(self):
        # d/df (c/f) = -c/f^2; the electron number only shifts sigma
        f = np.geomspace(1e-3, 0.4, 512)
        c = 2.5
        trace = CurrentTrace(f=f, j=np.full_like(f, c))
        sig = differentiate_trace(trace, 3, smoothing_window=1)
        keep = sig.interior_mask()
        expected = -c / f[keep] ** 2
        rel = np.abs(sig.lam[keep] - expected) / np.abs(expected)
        assert rel.max() < 1e-3
        expected_sigma = -(c - 3.0) / f[keep] ** 2
        rel_sigma = np.abs(sig.sig[keep] - expected_sigma) / np.abs(expected_sigma)
        assert rel_sigma.max() < 1e-3

    def test_endpoints_flagged(self):
        trace = make_trace(ring_with(3, 0.0), n_points=32)
        sig = differentiate_trace(trace, 3)
        assert sig.one_sided == (0, 31)
        assert "one_sided" in sig.method
        assert sig.interior_mask().sum() == 30

    def test_smoothing_window_validation(self):
        trace = make_trace(ring_with(3, 0.0), n_points=32)
        with pytest.raises(ValueError):
            differentiate_trace(trace, 3, smoothing_window=2)
        with pytest.raises(TooFewPoints):
            differentiate_trace(trace, 3, smoothing_window=17)

    def test_smoothing_tracks_noiseless_signal(self):
        ring = ring_with(3, 1e-3)
        trace = synthesize_trace(ring, 1e-3, 0.4, 1024)
        sig = differentiate_trace(trace, ring.n_electrons, smoothing_window=5)
        lam_ref = lambda_signature(ring, sig.f)
        keep = sig.interior_mask()
        # smoothing biases a curved profile; stays within a percent here
        rel = np.abs(sig.lam[keep] - lam_ref[keep]) / np.abs(lam_ref[keep])
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
        intercept, slope, ss_res, ss_tot = _line_fit(x, y)
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
        assert ss_tot == pytest.approx(float(np.sum((y - y.mean()) ** 2)), rel=1e-12, abs=0.0)


class TestFitPowerLaw:
    def test_exact_inverse_square(self):
        f = np.geomspace(1e-3, 1e-1, 64)
        values = -0.6 / f**2
        fit = fit_power_law(f, values, (1e-3, 1e-1))
        assert fit.exponent == pytest.approx(-2.0, abs=1e-12)
        assert fit.amplitude == pytest.approx(-0.6, rel=1e-12)
        assert fit.r_squared > 1.0 - 1e-12
        assert fit.n_points_used == 64

    def test_all_below_floor(self):
        f = np.geomspace(1e-3, 1e-1, 64)
        values = np.full_like(f, 1e-9)
        with pytest.raises(InsufficientSignal):
            fit_power_law(f, values, (1e-3, 1e-1), noise_floor=1e-6)

    def test_too_few_in_window(self):
        f = np.geomspace(1e-3, 1e-1, 64)
        values = 1.0 / f**2
        with pytest.raises(InsufficientSignal):
            fit_power_law(f, values, (0.09, 0.1))

    def test_single_flux_is_insufficient_signal(self):
        # ten usable points at one flux admit no line
        f = np.full(10, 0.01)
        with pytest.raises(InsufficientSignal, match="single flux"):
            fit_power_law(f, np.full(10, -3.0), (1e-3, 1e-1))

    def test_window_validation(self):
        f = np.geomspace(1e-3, 1e-1, 16)
        with pytest.raises(InvalidRange):
            fit_power_law(f, 1.0 / f, (0.1, 0.01))

    def test_majority_sign(self):
        f = np.geomspace(1e-3, 1e-1, 11)
        values = -1.0 / f**2
        values[0] = abs(values[0])  # one flipped point keeps majority negative
        fit = fit_power_law(f, values, (1e-3, 1e-1))
        assert fit.amplitude < 0.0

    def test_fit_on_closed_form_lambda(self):
        ring = ring_with(3, 1e-5)
        trace = synthesize_trace(ring, 1e-3, 0.4, 1024)
        sig = differentiate_trace(trace, ring.n_electrons)
        keep = sig.interior_mask()
        fit = fit_power_law(sig.f[keep], sig.lam[keep], (1e-3, 1e-1))
        assert -2.01 <= fit.exponent <= -1.99
        assert fit.amplitude == pytest.approx(-6.0 * ring.f_nc, rel=1e-3)


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

    def test_even_ordering_required(self):
        # both divergent-negative but lambda above sigma: not case two
        v = classify(_fit(-1e-2, -2.0), _fit(-4.0, -2.0), 4, "even")
        assert v.kind is VerdictKind.INCONCLUSIVE

    def test_thresholds_are_configurable(self):
        tight = RunConfig(exponent_tol=0.01)
        v = classify(_fit(-6e-5, -2.2), _fit(3.0, -2.0), 3, "odd", tight)
        assert v.kind is not VerdictKind.ODD_NC_DETECTED


class TestEstimateThetaTilde:
    def test_reference_chain(self):
        n = 10001
        lam = _fit(-2.0 * n * 1.5828e-5, -2.0)
        sig = _fit(n * (1.0 - 2.0 * 1.5828e-5), -2.0)
        est = estimate_theta_tilde(
            VerdictKind.ODD_NC_DETECTED, lam, sig, n, radius=1e-6, alpha=1.0
        )
        assert est.f_nc_hat == pytest.approx(1.5828e-5, rel=1e-12)
        assert est.theta_tilde_hat == pytest.approx(THETA_TILDE_REF, rel=2e-3)
        assert est.cross_gap < 1e-9

    def test_even_inversion(self):
        n = 4
        f_nc = 1e-2
        lam = _fit(-n * (1.0 + 2.0 * f_nc), -2.0)
        sig = _fit(-2.0 * n * f_nc, -2.0)
        est = estimate_theta_tilde(
            VerdictKind.EVEN_NC_DETECTED, lam, sig, n, radius=1e-6, alpha=1.0
        )
        assert est.f_nc_hat == pytest.approx(f_nc, rel=1e-12)
        assert est.f_nc_hat_cross == pytest.approx(f_nc, rel=1e-9)

    def test_zero_amplitude_maps_to_zero(self):
        est = estimate_theta_tilde(
            VerdictKind.ODD_NC_DETECTED, _fit(-0.0, -2.0), _fit(3.0, -2.0), 3,
            radius=1e-6, alpha=1.0,
        )
        assert est.f_nc_hat == 0.0
        assert est.theta_tilde_hat == 0.0

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

    def test_seed_determinism(self):
        ring = ring_with(3, 1e-5)
        a = analyze_trace(make_trace(ring, noise_sigma=0.001, seed=9))
        b = analyze_trace(make_trace(ring, noise_sigma=0.001, seed=9))
        assert a.verdict == b.verdict
        assert np.array_equal(a.signatures.lam, b.signatures.lam)

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
