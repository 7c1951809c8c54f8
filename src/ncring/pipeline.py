"""Detection pipeline: synthetic measurement, differentiation, power-law
fits, the divergence criterion, and noncommutative-parameter estimation.

The stages mirror how the measurement side would proceed:

1. obtain a current-versus-flux trace (here synthesized from the closed
   form, optionally with seeded Gaussian noise),
2. fit one straight line for the electron number, parity and noise level
   (here and in stage 4, one centred closed-form least-squares solve),
3. differentiate J/f and (J - N)/f, N from stage 2, to get the two signatures,
4. fit |signature| against f on log-log axes (a window whose usable points
   share one flux is InsufficientSignal),
5. classify the pair of fits (divergence pattern decides the verdict),
6. invert the fitted amplitudes into f_nc and theta_tilde.

:class:`RunConfig` is the one configuration type (ring, grid, thresholds);
:func:`analyze_trace` takes it plus ``blind=``, which decides whether ring
metadata in the trace may supply the electron number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ncring.constants import CODATA2018
from ncring.errors import (
    DegenerateFit,
    InsufficientSignal,
    InvalidRange,
    NonMonotonicFlux,
    NotDetected,
    TooFewPoints,
)
from ncring.model import Parity, RingSystem, SwParams, persistent_current

__all__ = [
    "MIN_TRACE_POINTS",
    "RunConfig",
    "TraceMeta",
    "CurrentTrace",
    "SignatureTrace",
    "PowerLawFit",
    "VerdictKind",
    "Verdict",
    "NcEstimate",
    "AnalysisResult",
    "flux_grid",
    "check_zone",
    "synthesize_trace",
    "estimate_electron_number",
    "trace_noise_rms",
    "differentiate_trace",
    "fit_power_law",
    "classify",
    "estimate_theta_tilde",
    "analyze_trace",
]

MIN_TRACE_POINTS = 8  # minimum for differentiation plus a 5-point fit


@dataclass(frozen=True)
class RunConfig:
    """One run's worth of parameters, round-trippable through a config file.

    A fit counts as 1/f^2-divergent when its exponent lies within
    exponent_tol of -2 and its |amplitude| exceeds amplitude_floor_mult
    times the recorded residual floor.
    """

    radius_m: float = 1e-6
    n_electrons: int = 10000
    alpha: float = 1.0
    theta_tilde: float = 1.76e-61
    mass_kg: float = CODATA2018.m_electron
    f_min: float = 1e-3
    f_max: float = 0.4
    n_points: int = 256
    grid: str = "log"
    noise_sigma: float = 0.0
    seed: int = 42
    smoothing_window: int = 1
    fit_f_lo: float = 1e-3
    fit_f_hi: float = 1e-1
    exponent_tol: float = 0.3
    amplitude_floor_mult: float = 3.0
    units: str = "reduced"

    def __post_init__(self):
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidRange(f"{name} must be finite, got {value}")
        if self.seed < 0:
            raise InvalidRange(f"seed must be non-negative, got {self.seed}")
        self.ring()  # RingSystem and SwParams validate the ring fields
        for name in ("f_min", "f_max", "fit_f_lo", "fit_f_hi",
                     "exponent_tol", "amplitude_floor_mult"):
            if not getattr(self, name) > 0.0:
                raise InvalidRange(f"{name} must be strictly positive")
        if self.noise_sigma < 0.0:
            raise InvalidRange("noise_sigma must be non-negative")
        if self.n_points < MIN_TRACE_POINTS:
            raise InvalidRange(f"n_points must be at least {MIN_TRACE_POINTS}")
        if not self.f_min < self.f_max:
            raise InvalidRange("f_min must be smaller than f_max")
        if not self.fit_f_lo < self.fit_f_hi:
            raise InvalidRange("fit_f_lo must be smaller than fit_f_hi")
        if self.grid not in ("log", "uniform"):
            raise InvalidRange(f"grid must be 'log' or 'uniform', got {self.grid!r}")
        if self.units not in ("reduced", "si"):
            raise InvalidRange(f"units must be 'reduced' or 'si', got {self.units!r}")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise InvalidRange("smoothing_window must be an odd integer >= 1")

    @property
    def fit_window(self) -> tuple[float, float]:
        return (self.fit_f_lo, self.fit_f_hi)

    def ring(self) -> RingSystem:
        return RingSystem(
            radius=self.radius_m,
            n_electrons=self.n_electrons,
            sw=SwParams(alpha=self.alpha, theta_tilde=self.theta_tilde),
            mass=self.mass_kg,
        )


@dataclass(frozen=True)
class TraceMeta:
    source: str = "synthetic"  # "synthetic" | "ingested"
    seed: int | None = None
    noise_sigma: float = 0.0
    ring_hint: RingSystem | None = None


def _readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CurrentTrace:
    """Sampled (f, J) data in reduced units, flux strictly increasing."""

    f: np.ndarray
    j: np.ndarray
    meta: TraceMeta = field(default_factory=TraceMeta)

    def __post_init__(self):
        object.__setattr__(self, "f", _readonly(self.f))
        object.__setattr__(self, "j", _readonly(self.j))
        if self.f.ndim != 1 or self.f.shape != self.j.shape:
            raise InvalidRange("f and j must be 1D arrays of equal length")
        if len(self.f) < MIN_TRACE_POINTS:
            raise InvalidRange(f"trace needs at least {MIN_TRACE_POINTS} points")
        if not np.all(np.diff(self.f) > 0.0):
            raise NonMonotonicFlux("flux values must be strictly increasing")
        if not np.all(self.f > 0.0):
            raise InvalidRange("all flux values must be positive")

    def __len__(self) -> int:
        return len(self.f)


@dataclass(frozen=True)
class SignatureTrace:
    """Signature estimates on the source grid, with the scheme recorded.

    `method` names the stencil: central differences inside, 2-point
    one-sided differences at the two grid endpoints, which
    :func:`analyze_trace` therefore never fits.
    """

    f: np.ndarray
    lam: np.ndarray
    sig: np.ndarray
    method: str

    def __post_init__(self):
        object.__setattr__(self, "f", _readonly(self.f))
        object.__setattr__(self, "lam", _readonly(self.lam))
        object.__setattr__(self, "sig", _readonly(self.sig))


def flux_grid(f_min: float, f_max: float, n_points: int, grid: str = "log") -> np.ndarray:
    """n_points >= MIN_TRACE_POINTS flux values from 0 < f_min to f_max, log or uniform."""
    if not 0.0 < f_min < f_max:
        raise InvalidRange(f"need 0 < f_min < f_max, got [{f_min}, {f_max}]")
    if n_points < MIN_TRACE_POINTS:
        raise InvalidRange(f"need at least {MIN_TRACE_POINTS} points, got {n_points}")
    if grid == "log":
        return np.geomspace(f_min, f_max, n_points)
    if grid == "uniform":
        return np.linspace(f_min, f_max, n_points)
    raise InvalidRange(f"grid must be 'log' or 'uniform', got {grid!r}")


def check_zone(ring: RingSystem, f_min: float, f_max: float) -> None:
    """Refuse (InvalidRange) a flux window off the branch the closed forms hold on.

    Level crossings sit at f = 1/2 + f_nc for odd N and at f_nc and 1 + f_nc
    for even N.  Needs 0 < f_min < f_max, f_max <= 1/2 - f_nc (conservative
    inside either zone) and, for even N, f_min >= f_nc, below which J wraps.
    """
    f_nc = ring.f_nc
    if not 0.0 < f_min < f_max:
        raise InvalidRange(f"need 0 < f_min < f_max, got [{f_min}, {f_max}]")
    if f_max > 0.5 - f_nc:
        raise InvalidRange(
            f"f_max = {f_max} leaves the zone; need f_max <= 0.5 - f_nc = {0.5 - f_nc}"
        )
    if ring.parity == "even" and f_min < f_nc:
        raise InvalidRange(
            f"even ring: f_min = {f_min} is below f_nc = {f_nc}, outside the zone"
        )


def synthesize_trace(
    ring: RingSystem,
    f_min: float,
    f_max: float,
    n_points: int,
    noise_sigma: float = 0.0,
    seed: int | None = None,
    grid: str = "log",
) -> CurrentTrace:
    """Sample the closed-form current on a grid, optionally adding noise.

    The window must pass :func:`check_zone`.  Noise is Gaussian, i.i.d. per
    point, drawn in ascending-f order from a generator seeded with the
    non-negative `seed`, and recorded in the metadata.
    """
    check_zone(ring, f_min, f_max)
    f = flux_grid(f_min, f_max, n_points, grid)
    if not 0.0 <= noise_sigma < math.inf:
        raise InvalidRange(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    if seed is not None and seed < 0:
        raise InvalidRange(f"seed must be non-negative, got {seed}")
    j = persistent_current(ring, f)
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        j = j + rng.normal(0.0, noise_sigma, n_points)
    meta = TraceMeta(
        source="synthetic", seed=seed, noise_sigma=noise_sigma, ring_hint=ring
    )
    return CurrentTrace(f=f, j=j, meta=meta)


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Least-squares line y ~ intercept + slope * x on centred data.

    Returns (intercept, slope, ss_res, ss_tot); ss_res sums the explicit
    residuals, so it is never negative.  x needs two distinct values.
    """
    x_bar, y_bar = x.mean(), y.mean()
    dx, dy = x - x_bar, y - y_bar
    slope = float(dx @ dy / (dx @ dx))
    res = dy - slope * dx
    return float(y_bar - slope * x_bar), slope, float(res @ res), float(dy @ dy)


def _linear_fit(f: np.ndarray, j: np.ndarray) -> tuple[float, float, float]:
    """OLS of j on f; returns (intercept, slope, rms residual)."""
    intercept, slope, ss_res, _ = _line_fit(f, j)
    return intercept, slope, math.sqrt(ss_res / (len(f) - 2))


def _electron_number(intercept: float, slope: float) -> tuple[int, Parity]:
    """Electron number and parity from the straight-line fit of a trace.

    Both parities of the closed-form current have slope -2N, so
    N = round(-slope/2).  The intercept separates them: an odd ring's
    intercept is ~2 N f_nc (tiny), an even ring's is ~N.
    """
    if not -math.inf < slope < 0.0:
        raise DegenerateFit(f"trace slope {slope:g} is not finite and negative")
    n = int(round(-slope / 2.0))
    if n < 1:
        raise DegenerateFit(f"slope {slope:g} implies a non-physical electron count")
    parity: Parity = "odd" if abs(intercept) < n / 2.0 else "even"
    return n, parity


def estimate_electron_number(trace: CurrentTrace) -> tuple[int, Parity]:
    """Electron number and parity from the trace alone."""
    a, b, _ = _linear_fit(trace.f, trace.j)
    return _electron_number(a, b)


def trace_noise_rms(trace: CurrentTrace) -> float:
    """RMS residual of the straight-line fit to the trace.

    The noiseless current is exactly linear in f inside one zone, so the
    residual is an unbiased estimate of the measurement noise.
    """
    return _linear_fit(trace.f, trace.j)[2]


def _moving_average(y: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average; windows shrink symmetrically at the edges."""
    if window <= 1:
        return y  # itself: the cumsum path below is not bit-exact at width 1
    half = window // 2
    n = len(y)
    csum = np.concatenate([[0.0], np.cumsum(y)])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    return (csum[hi + 1] - csum[lo]) / (hi + 1 - lo)


def _derivative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First derivative on a possibly nonuniform grid.

    Interior points use the 3-point central stencil with the standard
    nonuniform weights (exact for quadratics); the two endpoints fall back
    to 2-point one-sided differences.
    """
    n = len(x)
    d = np.empty(n)
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    d[1:-1] = (
        h1 * h1 * y[2:] - h2 * h2 * y[:-2] + (h2 * h2 - h1 * h1) * y[1:-1]
    ) / (h1 * h2 * (h1 + h2))
    d[0] = (y[1] - y[0]) / (x[1] - x[0])
    d[-1] = (y[-1] - y[-2]) / (x[-1] - x[-2])
    return d


def differentiate_trace(
    trace: CurrentTrace,
    n_electrons: int,
    smoothing_window: int = 1,
) -> SignatureTrace:
    """Turn a current trace into signature estimates.

    Forms u = j/f and v = (j - N)/f with N = `n_electrons`, applies a
    centered moving average of width `smoothing_window` (odd; 1 disables),
    then differentiates on the trace's own grid.
    """
    if smoothing_window < 1 or smoothing_window % 2 == 0:
        raise InvalidRange(f"smoothing_window must be an odd integer >= 1, got {smoothing_window}")
    if smoothing_window >= len(trace) / 2:
        raise TooFewPoints(
            f"smoothing window {smoothing_window} too wide for {len(trace)} points"
        )
    # J/f and its differences can overflow near f = 0; the inf and NaN
    # estimates are masked by fit_power_law and dropped from the plot
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        lam, sig = (
            _derivative(trace.f, _moving_average(numerator / trace.f, smoothing_window))
            for numerator in (trace.j, trace.j - n_electrons)
        )
    method = (
        f"moving_average(width={smoothing_window});"
        "central3(nonuniform);endpoints=one_sided2"
    )
    return SignatureTrace(f=trace.f, lam=lam, sig=sig, method=method)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of log10|value| against log10 f.

    amplitude carries the majority sign of the fitted values, so a clean
    A/f^2 divergence comes back as (amplitude=A, exponent=-2).
    """

    amplitude: float
    exponent: float
    r_squared: float
    n_points_used: int
    residual_floor: float


def fit_power_law(
    f: np.ndarray,
    values: np.ndarray,
    f_window: tuple[float, float],
    noise_floor: float = 0.0,
) -> PowerLawFit:
    """Fit value = A * f^p inside the window, ignoring sub-floor points.

    Raises InsufficientSignal when fewer than 5 points qualify or when they
    span a single flux; callers map that outcome to "signature absent", not
    to an error.
    """
    f = np.asarray(f, dtype=float)
    values = np.asarray(values, dtype=float)
    f_lo, f_hi = f_window
    if not 0.0 < f_lo < f_hi:
        raise InvalidRange(f"bad fit window [{f_lo}, {f_hi}]")
    mask = (
        (f >= f_lo)
        & (f <= f_hi)
        & np.isfinite(values)
        & (np.abs(values) > noise_floor)
    )
    n_used = int(mask.sum())
    if n_used < 5:
        raise InsufficientSignal(
            f"{n_used} usable points in [{f_lo}, {f_hi}] above floor {noise_floor:g}"
        )
    x = np.log10(f[mask])
    if x.min() == x.max():
        raise InsufficientSignal(f"{n_used} usable points share the single flux {f[mask][0]:g}")
    intercept, slope, ss_res, ss_tot = _line_fit(x, np.log10(np.abs(values[mask])))
    # ss_tot = 0 means a constant y, which the line fits exactly
    r_squared = max(0.0, 1.0 - ss_res / ss_tot) if ss_tot > 0.0 else 1.0
    n_pos = int((values[mask] > 0.0).sum())
    sign = 1.0 if n_pos > n_used - n_pos else -1.0
    return PowerLawFit(
        amplitude=sign * 10.0**intercept,
        exponent=slope,
        r_squared=r_squared,
        n_points_used=n_used,
        residual_floor=noise_floor,
    )


class VerdictKind(Enum):
    ODD_NC_DETECTED = "OddNcDetected"
    EVEN_NC_DETECTED = "EvenNcDetected"
    NO_NC_DETECTED = "NoNcDetected"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    lambda_fit: PowerLawFit | None
    sigma_fit: PowerLawFit | None
    estimated_n: int
    estimated_parity: Parity
    estimated_f_nc: float | None
    estimated_theta_tilde: float | None
    diagnostics: tuple[str, ...]


def _divergence(
    fit: PowerLawFit | None, config: RunConfig, name: str
) -> tuple[bool, bool, str]:
    """(divergent-negative, divergent-positive, human-readable summary)."""
    if fit is None:
        return False, False, f"{name}: no usable signal above the noise floor"
    exponent_ok = abs(fit.exponent + 2.0) <= config.exponent_tol
    amplitude_ok = abs(fit.amplitude) > config.amplitude_floor_mult * fit.residual_floor
    divergent = exponent_ok and amplitude_ok
    note = (
        f"{name}: amplitude {fit.amplitude:.4e}, exponent {fit.exponent:.4f}, "
        f"r2 {fit.r_squared:.6f}, points {fit.n_points_used}, "
        f"divergent={'yes' if divergent else 'no'}"
    )
    return divergent and fit.amplitude < 0.0, divergent and fit.amplitude > 0.0, note


def classify(
    lambda_fit: PowerLawFit | None,
    sigma_fit: PowerLawFit | None,
    n_electrons: int,
    parity: Parity,
    config: RunConfig = RunConfig(),
) -> Verdict:
    """Apply the divergence criterion to a pair of signature fits.

    Case 1 (lambda divergent-negative, sigma divergent-positive) detects an
    odd ring; case 2 (both divergent-negative with lambda's amplitude below
    sigma's) detects an even ring.  One commutative-limit signature absent
    while the other shows its parity's persistent divergence means no
    effect was detected; anything else is inconclusive.  A detection also
    carries :func:`estimate_theta_tilde`'s f_nc and theta_tilde for `config`'s
    ring, and ends its diagnostics with the f_nc cross-check.
    """
    lam_neg, lam_pos, lam_note = _divergence(lambda_fit, config, "lambda")
    sig_neg, sig_pos, sig_note = _divergence(sigma_fit, config, "sigma")
    diagnostics = [lam_note, sig_note, f"electron number estimate: {n_electrons} ({parity})"]

    if lam_neg and sig_pos:
        kind = VerdictKind.ODD_NC_DETECTED
        diagnostics.append("criterion case 1: odd-ring divergence pattern")
    elif lam_neg and sig_neg and lambda_fit.amplitude < sigma_fit.amplitude:
        kind = VerdictKind.EVEN_NC_DETECTED
        diagnostics.append("criterion case 2: even-ring divergence pattern (lambda < sigma)")
    elif not (lam_neg or lam_pos) and sig_pos:
        kind = VerdictKind.NO_NC_DETECTED
        diagnostics.append("commutative odd pattern: lambda absent, sigma ~ +N/f^2")
    elif not (sig_neg or sig_pos) and lam_neg:
        kind = VerdictKind.NO_NC_DETECTED
        diagnostics.append("commutative even pattern: sigma absent, lambda ~ -N/f^2")
    else:
        kind = VerdictKind.INCONCLUSIVE
        diagnostics.append("no criterion case matches the observed divergence pattern")
    estimated_f_nc = estimated_theta_tilde = 0.0 if kind is VerdictKind.NO_NC_DETECTED else None
    if kind in (VerdictKind.ODD_NC_DETECTED, VerdictKind.EVEN_NC_DETECTED):
        estimate = estimate_theta_tilde(
            kind, lambda_fit, sigma_fit, n_electrons, radius=config.radius_m, alpha=config.alpha
        )
        estimated_f_nc = estimate.f_nc_hat
        estimated_theta_tilde = estimate.theta_tilde_hat
        diagnostics.append(
            f"f_nc cross-check: primary {estimate.f_nc_hat:.4e}, "
            f"cross {estimate.f_nc_hat_cross:.4e}, relative gap {estimate.cross_gap:.4e}"
        )
    return Verdict(
        kind=kind,
        lambda_fit=lambda_fit,
        sigma_fit=sigma_fit,
        estimated_n=n_electrons,
        estimated_parity=parity,
        estimated_f_nc=estimated_f_nc,
        estimated_theta_tilde=estimated_theta_tilde,
        diagnostics=tuple(diagnostics),
    )


@dataclass(frozen=True)
class NcEstimate:
    """Inversion of the fitted amplitudes into physical parameters.

    f_nc_hat comes from the f_nc-proportional signature of the detected
    parity; f_nc_hat_cross re-derives it from the other signature as a
    consistency check (much noisier for small f_nc, since there the signal
    is a tiny correction to an O(N) amplitude).
    """

    f_nc_hat: float
    f_nc_hat_cross: float
    cross_gap: float
    theta_tilde_hat: float


def estimate_theta_tilde(
    kind: VerdictKind,
    lambda_fit: PowerLawFit,
    sigma_fit: PowerLawFit,
    n_electrons: int,
    radius: float,
    alpha: float,
) -> NcEstimate:
    """Invert fitted amplitudes into (f_nc, theta_tilde) for a detection.

    odd:  A_lambda = -2 N f_nc         -> f_nc = -A_lambda / (2N)
          A_sigma  = N (1 - 2 f_nc)    -> cross-check (1 - A_sigma/N) / 2
    even: A_sigma  = -2 N f_nc         -> f_nc = -A_sigma / (2N)
          A_lambda = -N (1 + 2 f_nc)   -> cross-check -(1 + A_lambda/N) / 2

    theta_tilde follows from f_nc = R^2 theta_tilde / (hbar^2 alpha^2).
    """
    n = n_electrons
    if kind is VerdictKind.ODD_NC_DETECTED:
        primary = -lambda_fit.amplitude / (2.0 * n)
        cross = (1.0 - sigma_fit.amplitude / n) / 2.0
    elif kind is VerdictKind.EVEN_NC_DETECTED:
        primary = -sigma_fit.amplitude / (2.0 * n)
        cross = -(1.0 + lambda_fit.amplitude / n) / 2.0
    else:
        raise NotDetected(f"no parameter estimate for verdict {kind.value}")
    gap = abs(primary - cross) / max(abs(primary), 1e-300)
    theta_tilde = primary * (CODATA2018.hbar * alpha / radius) ** 2
    return NcEstimate(
        f_nc_hat=primary,
        f_nc_hat_cross=cross,
        cross_gap=gap,
        theta_tilde_hat=theta_tilde,
    )


@dataclass(frozen=True)
class AnalysisResult:
    verdict: Verdict
    signatures: SignatureTrace
    trace_noise_rms: float
    residual_floor: float


def _noise_floor(
    f: np.ndarray,
    sigma_j: float,
    smoothing_window: int,
    f_window: tuple[float, float],
) -> float:
    """Amplitude-equivalent noise scale of the derivative estimates.

    Trace noise sigma_j propagates into the central differences as
    ~ sqrt(2) sigma_j / (sqrt(W) f d2f) at each interior point, which on a
    log grid is a constant times 1/f^2, i.e. exactly the shape of a true
    divergence.  Scaling by f^2 and taking the window median therefore
    yields a floor directly comparable with a fitted 1/f^2 amplitude.
    """
    d2 = f[2:] - f[:-2]
    f_int = f[1:-1]
    # overflows near f = 0 as in differentiate_trace, with the same outcome
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s_val = math.sqrt(2.0) * sigma_j / (math.sqrt(smoothing_window) * f_int * d2)
        amp_equiv = s_val * f_int**2
    in_window = (f_int >= f_window[0]) & (f_int <= f_window[1])
    if not in_window.any():
        return 0.0
    return float(np.median(amp_equiv[in_window]))


def analyze_trace(
    trace: CurrentTrace,
    config: RunConfig = RunConfig(),
    blind: bool = True,
) -> AnalysisResult:
    """Run the full detection chain on a current trace.

    One straight-line fit gives the electron number, the parity and the
    noise level.  In blind mode (default) the electron number comes from
    that fit; otherwise a ring hint in the trace metadata supplies it.
    Windows, thresholds and the ring scales come from `config`.
    """
    intercept, slope, sigma_j = _linear_fit(trace.f, trace.j)
    hint = None if blind else trace.meta.ring_hint
    parity: Parity
    if hint is not None:
        n_est, parity = hint.n_electrons, hint.parity
    else:
        n_est, parity = _electron_number(intercept, slope)
    signatures = differentiate_trace(trace, n_est, smoothing_window=config.smoothing_window)
    # A noiseless trace can fit its line exactly (sigma_j = 0), yet the
    # signatures still carry the rounding of J; the floor never goes below it.
    sigma_floor = max(sigma_j, float(np.finfo(float).eps * np.max(np.abs(trace.j))))
    floor = _noise_floor(trace.f, sigma_floor, config.smoothing_window, config.fit_window)

    # the one-sided endpoints (see differentiate_trace) are never fitted
    fits: list[PowerLawFit | None] = []
    for values in (signatures.lam, signatures.sig):
        try:
            fits.append(
                fit_power_law(trace.f[1:-1], values[1:-1], config.fit_window, noise_floor=floor)
            )
        except InsufficientSignal:
            fits.append(None)

    return AnalysisResult(
        verdict=classify(*fits, n_est, parity, config),
        signatures=signatures,
        trace_noise_rms=sigma_j,
        residual_floor=floor,
    )
