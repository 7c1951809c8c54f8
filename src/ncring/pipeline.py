"""Detection pipeline: synthetic measurement, differentiation, power-law
fits, the divergence criterion, and noncommutative-parameter estimation.

The stages mirror how the measurement side would proceed:

1. obtain a current-versus-flux trace (here synthesized from the closed
   form, optionally with seeded Gaussian noise),
2. fit one straight line for the electron number, parity and noise level
   (here and in stage 4, one centred closed-form least-squares solve),
3. differentiate J/f and (J - N)/f, N from stage 2, to get the two signatures,
4. fit |signature| against f on log-log axes in the fit window, one slice
   of the interior grid per trace, by one kernel that reuses the window's
   centred log10 f (usable points sharing one flux are InsufficientSignal),
5. classify the pair of fits: the divergence pattern picks the criterion's
   branch, kept as a key (case1, case2, commutative_odd, commutative_even, none, case1_even,
   case2_odd) with two divergence flags; ``Verdict.diagnostics`` renders the prose on access,
6. invert the fitted amplitudes into f_nc and theta_tilde.

:class:`RunConfig` is the one configuration type (ring, grid, thresholds)
and the one check of the fit window; it checks its grid by :func:`flux_grid`'s
rule without building it.  :func:`analyze_trace` takes it plus ``blind=``;
``blind=False`` takes N from the trace's ``n_electrons``, not from the fit.

What stages 2-4 derive from the flux alone (the line fit's centring, the
stencil weights, the fit window's points, their log10 f centring and the
noise floor's scale) are pure functions of the flux; a trace's noise floor is
its noise level times that scale.  They are memoized per :func:`flux_grid`
request for the traces of :func:`synthesize_trace`, which share its grid; any
other flux is copied into its trace, and each call computes and frees its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from ncring.constants import M_ELECTRON
from ncring.errors import (
    DegenerateFit,
    InsufficientSignal,
    InvalidRange,
    NonMonotonicFlux,
    NotDetected,
    TooFewPoints,
    check_integer,
)
from ncring.model import (Parity, RingSystem, check_electron_number, persistent_current,
                          theta_tilde_from_f_nc)

__all__ = [
    "MIN_TRACE_POINTS",
    "MAX_ROWS",
    "RunConfig",
    "CurrentTrace",
    "PowerLawFit",
    "VerdictKind",
    "Verdict",
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
MAX_ROWS = 10_000_000  # the most grid points, or spectrum (f, n) rows, that one run may request
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RunConfig:
    """One run's worth of parameters, round-trippable through a config file.

    The first five fields are the ring's (:meth:`ring`), which checks them.
    A fit counts as 1/f^2-divergent when its exponent lies within
    exponent_tol of -2 and its |amplitude| exceeds amplitude_floor_mult
    times the recorded residual floor.
    """

    radius_m: float = 1e-6
    n_electrons: int = 10000
    alpha: float = 1.0
    theta_tilde: float = 1.76e-61
    mass_kg: float = M_ELECTRON
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
        if check_integer("seed", self.seed) < 0:
            raise InvalidRange(f"seed must be non-negative, got {self.seed}")
        self.ring()  # the ring checks its five fields, alpha first
        _check_grid(self.f_min, self.f_max, self.n_points, self.grid)  # checked, not built
        for name in ("fit_f_lo", "fit_f_hi", "exponent_tol", "amplitude_floor_mult"):
            if not getattr(self, name) > 0.0:
                raise InvalidRange(f"{name} must be strictly positive")
        if self.noise_sigma < 0.0:
            raise InvalidRange("noise_sigma must be non-negative")
        if not self.fit_f_lo < self.fit_f_hi:
            raise InvalidRange("fit_f_lo must be smaller than fit_f_hi")
        if self.units not in ("reduced", "si"):
            raise InvalidRange(f"units must be 'reduced' or 'si', got {self.units!r}")
        window = check_integer("smoothing_window", self.smoothing_window)
        if window < 1 or window % 2 == 0:
            raise InvalidRange("smoothing_window must be an odd integer >= 1")

    def ring(self) -> RingSystem:
        return RingSystem(radius=self.radius_m, n_electrons=self.n_electrons, alpha=self.alpha,
                          theta_tilde=self.theta_tilde, mass=self.mass_kg)


def _readonly(a, name: str) -> np.ndarray:
    try:
        arr = np.array(a, dtype=float)
    except (TypeError, ValueError) as err:  # text, ragged rows or objects with no float
        raise InvalidRange(f"{name} must hold real numbers: {err}") from None
    arr.flags.writeable = False
    return arr


def _check_flux(f: np.ndarray, j: np.ndarray | None = None) -> None:
    """Refuse a 1D flux, or its current j: length, finite f and j, increasing, positive."""
    if len(f) < MIN_TRACE_POINTS:
        raise InvalidRange(f"trace needs at least {MIN_TRACE_POINTS} points")
    if not (np.isfinite(f).all() and (j is None or np.isfinite(j).all())):
        raise InvalidRange("flux and current values must be finite")
    if not (f[1:] > f[:-1]).all():
        raise NonMonotonicFlux("flux values must be strictly increasing")
    if not f[0] > 0.0:
        raise InvalidRange("all flux values must be positive")


@dataclass(frozen=True)
class CurrentTrace:
    """Sampled (f, J) data in reduced units, flux strictly increasing, with its provenance.

    `n_electrons` is the electron number it states, None or a positive integer
    (else InvalidRange).  Only :func:`synthesize_trace` shares a :func:`flux_grid`
    array, recording its request so that the grid's terms are computed once; any
    other trace copies its flux, out of the caller's reach.
    """

    f: np.ndarray
    j: np.ndarray
    source: str = "synthetic"  # "synthetic" | "ingested"
    seed: int | None = None
    noise_sigma: float = 0.0
    n_electrons: int | None = None
    _grid: tuple | None = field(default=None, repr=False, compare=False)  # a flux_grid request

    def __post_init__(self):
        if self.n_electrons is not None:
            check_electron_number(self.n_electrons)
        shared = self._grid is not None and self.f is _grid(*self._grid)  # not on replace(f=...)
        if not shared:
            object.__setattr__(self, "_grid", None)
            object.__setattr__(self, "f", _readonly(self.f, "f"))
        object.__setattr__(self, "j", _readonly(self.j, "j"))
        if self.f.ndim != 1 or self.f.shape != self.j.shape:
            raise InvalidRange("f and j must be 1D arrays of equal length")
        if not shared:
            _check_flux(self.f, self.j)
        elif not np.isfinite(self.j).all():  # _grid checked the flux when it built it
            raise InvalidRange("flux and current values must be finite")

    def __len__(self) -> int:
        return len(self.f)


def _check_grid(f_min: float, f_max: float, n_points: int, grid: str) -> None:
    """:func:`flux_grid`'s checks of its request, without building the grid."""
    if not f_max < math.inf:  # 0 < f_min < f_max refuses any other non-finite bound
        raise InvalidRange(f"f_max must be finite, got {f_max}")
    if not 0.0 < f_min < f_max:
        raise InvalidRange(f"need 0 < f_min < f_max, got [{f_min}, {f_max}]")
    if check_integer("n_points", n_points) < MIN_TRACE_POINTS:
        raise InvalidRange(f"need at least {MIN_TRACE_POINTS} points, got {n_points}")
    if n_points > MAX_ROWS:
        raise InvalidRange(f"need at most {MAX_ROWS} points, got {n_points}")
    if grid not in ("log", "uniform"):
        raise InvalidRange(f"grid must be 'log' or 'uniform', got {grid!r}")


def flux_grid(f_min: float, f_max: float, n_points: int, grid: str = "log") -> np.ndarray:
    """n_points >= MIN_TRACE_POINTS flux values from 0 < f_min to f_max, log or uniform.

    One read-only float64 array serves every call with the same arguments;
    bounds too close for n_points distinct values raise NonMonotonicFlux.
    """
    _check_grid(f_min, f_max, n_points, grid)
    return _grid(f_min, f_max, n_points, grid)


@functools.lru_cache(maxsize=8, typed=True)  # typed: a float32 bound computes its own grid
def _grid(f_min: float, f_max: float, n_points: int, grid: str) -> np.ndarray:
    """The grid of a checked :func:`flux_grid` request, itself checked once here."""
    f = (np.geomspace if grid == "log" else np.linspace)(f_min, f_max, n_points, dtype=float)
    f.flags.writeable = False
    _check_flux(f)
    return f


class _FitWindow(NamedTuple):
    """One fit window's interior grid points, centred log10 f and floor scale."""

    cut: slice  # of the interior grid f[1:-1]
    f: np.ndarray  # f[1:-1][cut]
    floor_scale: float  # median of f / (f[2:] - f[:-2])[cut], 0.0 for no point
    log_centring: tuple[float, np.ndarray, float] | None  # _log_centring(f), for full rows


def _stencil(f: np.ndarray) -> tuple[np.ndarray, ...]:
    """h1*h1, h2*h2, h2*h2 - h1*h1, h1*h2*(h1+h2) and the two endpoint spacings of f."""
    h1 = f[1:-1] - f[:-2]
    h2 = f[2:] - f[1:-1]
    h1_sq, h2_sq = h1 * h1, h2 * h2
    return h1_sq, h2_sq, h2_sq - h1_sq, h1 * h2 * (h1 + h2), f[1] - f[0], f[-1] - f[-2]


def _window(f: np.ndarray, f_lo: float, f_hi: float) -> _FitWindow:
    """The interior points of f with f_lo <= f <= f_hi, found on the sorted grid."""
    f_int = f[1:-1]
    cut = slice(np.searchsorted(f_int, f_lo), np.searchsorted(f_int, f_hi, "right"))
    f_w = f_int[cut]
    # np.median's arithmetic, less its numpy.ma import; f / d2 < ~2**53, so it is finite
    mid = ((f_w.size - 1) // 2, f_w.size // 2)
    r = np.partition(f_w / (f[2:][cut] - f[:-2][cut]), mid) if f_w.size else np.zeros(1)
    scale = float((r[mid[0]] + r[mid[1]]) / 2)  # 0.0 for an empty window
    return _FitWindow(cut, f_w, scale, _log_centring(f_w))


def _term(trace: CurrentTrace, part, *args):
    """part(trace.f, *args), memoized per grid request on a shared grid; each part holds only
    what numpy would evaluate first anyway, so a result keeps its bits either way."""
    return part(trace.f, *args) if trace._grid is None else _shared_term(part, *trace._grid, *args)


# batch_small's 2 grid requests and 1 fit window fill 6 entries (centring, stencil, window);
# the digest's 2400-trace mix asks for 2769 (602 requests, 1565 windows) and hits 84 of 7200.
@functools.lru_cache(maxsize=24, typed=True)  # a flat request: typed keys its bounds as _grid's
def _shared_term(part, f_min: float, f_max: float, n_points: int, grid: str, *args):
    return part(_grid(f_min, f_max, n_points, grid), *args)


def check_zone(ring: RingSystem, f_min: float, f_max: float) -> None:
    """Refuse (InvalidRange) a flux window off the branch the closed forms hold on.

    Level crossings sit at f = 1/2 + f_nc for odd N and at f_nc and 1 + f_nc
    for even N.  Needs f_max <= 1/2 - f_nc (conservative inside either zone)
    and, for even N, f_min >= f_nc, below which J wraps; 0 < f_min < f_max
    is :func:`flux_grid`'s check, so callers build the grid first.
    """
    f_nc = ring.f_nc
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
    non-negative `seed` it needs; the trace records both and the ring's N.
    """
    _check_grid(f_min, f_max, n_points, grid)
    f = _grid(f_min, f_max, n_points, grid)
    check_zone(ring, f_min, f_max)
    if not 0.0 <= noise_sigma < math.inf:
        raise InvalidRange(f"noise_sigma must be finite and non-negative, got {noise_sigma}")
    if seed is None and noise_sigma > 0.0:
        raise InvalidRange(f"noise_sigma = {noise_sigma} needs a seed, got seed=None")
    if seed is not None and check_integer("seed", seed) < 0:
        raise InvalidRange(f"seed must be non-negative, got {seed}")
    j = persistent_current(ring, f)
    if noise_sigma > 0.0:
        j = j + np.random.default_rng(seed).normal(0.0, noise_sigma, n_points)
    return CurrentTrace(f=f, j=j, seed=seed, noise_sigma=noise_sigma,
                        n_electrons=ring.n_electrons, _grid=(f_min, f_max, n_points, grid))


def _centre(x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """The x side of a line fit: (mean, x - mean, sum of squares about the mean)."""
    x_bar = float(x.sum()) / len(x)  # ndarray.mean's bits
    dx = x - x_bar
    return x_bar, dx, dx @ dx


def _log_centring(f: np.ndarray) -> tuple[float, np.ndarray, float] | None:
    """:func:`_centre` of log10 f, or None when f spans fewer than two distinct log10 f."""
    x = np.log10(f)
    return _centre(x) if x.size and x.min() < x.max() else None


def _line_fit(
    centred: tuple[float, np.ndarray, float], y: np.ndarray
) -> tuple[float, float, float, np.ndarray]:
    """Least-squares line y ~ intercept + slope * x on data centred by :func:`_centre`.

    Returns (intercept, slope, ss_res, dy); ss_res sums the explicit
    residuals, so it is never negative, and dy = y - mean(y), whose dy @ dy
    is ss_tot.  x needs two distinct values.
    """
    x_bar, dx, dx_dx = centred
    y_bar = float(y.sum()) / len(y)
    dy = y - y_bar
    slope = float(dx @ dy / dx_dx)
    res = slope * dx
    np.subtract(dy, res, out=res)  # dy - slope * dx, with one temporary
    return float(y_bar - slope * x_bar), slope, float(res @ res), dy


def _linear_fit(trace: CurrentTrace) -> tuple[float, float, float]:
    """OLS of the trace's j on f; returns (intercept, slope, rms residual)."""
    with np.errstate(over="ignore", invalid="ignore"):  # a current near 1e308 squares to inf
        intercept, slope, ss_res, _ = _line_fit(_term(trace, _centre), trace.j)
    fit = intercept, slope, math.sqrt(ss_res / (len(trace) - 2))
    if not all(map(math.isfinite, fit)):
        raise DegenerateFit(f"the line fit of J on f overflows: intercept, slope, rms = {fit}")
    return fit


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
    a, b, _ = _linear_fit(trace)
    return _electron_number(a, b)


def trace_noise_rms(trace: CurrentTrace) -> float:
    """RMS residual of the straight-line fit to the trace.

    The noiseless current is exactly linear in f inside one zone, so the
    residual is an unbiased estimate of the measurement noise.
    """
    return _linear_fit(trace)[2]


def _moving_average(y: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average along the last axis; windows shrink at the edges."""
    if window <= 1:
        return y  # itself: the cumsum path below is not bit-exact at width 1
    half = window // 2
    n = y.shape[-1]
    csum = np.zeros((*y.shape[:-1], n + 1))
    np.cumsum(y, axis=-1, out=csum[..., 1:])
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    return (csum[..., hi + 1] - csum[..., lo]) / (hi + 1 - lo)


def _derivative(stencil: tuple[np.ndarray, ...], y: np.ndarray) -> np.ndarray:
    """First derivative along the last axis of `y` on a possibly nonuniform grid.

    Interior points use the 3-point central stencil with the standard
    nonuniform weights (exact for quadratics); the two endpoints fall back
    to 2-point one-sided differences.  `stencil` is :func:`_stencil` of the
    grid, with h1 and h2 the spacings below and above each interior point.
    """
    h1_sq, h2_sq, h_diff, denom, first, last = stencil
    d = np.empty(y.shape)
    # (h1_sq * y2 - h2_sq * y0 + h_diff * y1) / denom in that order, one temporary at a time
    mid = np.multiply(h1_sq, y[..., 2:], out=d[..., 1:-1])
    mid -= h2_sq * y[..., :-2]
    mid += h_diff * y[..., 1:-1]
    mid /= denom
    d[..., 0] = (y[..., 1] - y[..., 0]) / first
    d[..., -1] = (y[..., -1] - y[..., -2]) / last
    return d


def differentiate_trace(
    trace: CurrentTrace,
    n_electrons: int,
    smoothing_window: int = 1,
) -> tuple[np.ndarray, np.ndarray, str]:
    """Turn a current trace into signature estimates on its own grid.

    Forms u = j/f and v = (j - N)/f with N = `n_electrons` (an integer,
    else InvalidRange), applies a centered moving average of width
    `smoothing_window` (odd; 1 disables), then differentiates on the
    trace's grid, u and v as one stacked pass.
    Returns (lambda, sigma, method); `method` names the stencil: central
    differences inside, 2-point one-sided differences at the two grid
    endpoints, which :func:`analyze_trace` therefore never fits.
    """
    check_integer("n_electrons", n_electrons)
    if check_integer("smoothing_window", smoothing_window) < 1 or smoothing_window % 2 == 0:
        raise InvalidRange(f"smoothing_window must be an odd integer >= 1, got {smoothing_window}")
    if smoothing_window >= len(trace) / 2:
        raise TooFewPoints(
            f"smoothing window {smoothing_window} too wide for {len(trace)} points"
        )
    # J/f, its differences and the stencil weights can overflow near f = 0; the
    # inf and NaN estimates are masked by the power-law fits and dropped from the plot
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u_v = np.array((trace.j, trace.j - n_electrons)) / trace.f
        lam, sig = _derivative(_term(trace, _stencil), _moving_average(u_v, smoothing_window))
    method = (
        f"moving_average(width={smoothing_window});"
        "central3(nonuniform);endpoints=one_sided2"
    )
    return lam, sig, method


@dataclass(frozen=True, slots=True)
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


def fit_power_law(f: np.ndarray, values: np.ndarray, noise_floor: float = 0.0) -> PowerLawFit:
    """Fit value = A * f^p to every point given, ignoring sub-floor points.

    The caller picks the fit window; of its points, those whose flux is not
    a positive finite number or whose value is not finite are skipped too.
    `f` and `values` are 1-D of one length, else InvalidRange.  Raises
    InsufficientSignal when fewer than 5 points qualify or when they span a
    single flux; callers map that outcome to "signature absent", not to an
    error.
    """
    f = np.asarray(f, dtype=float)
    values = np.asarray(values, dtype=float)
    if f.ndim != 1 or f.shape != values.shape:
        raise InvalidRange(f"fit_power_law needs 1-D f and values of one length, "
                           f"got shapes {f.shape} and {values.shape}")
    f_ok = (0.0 < f) & (f < math.inf)  # a value at a flux with no log is unusable
    log_centring = _log_centring(f) if f_ok.all() else None  # else no row is fully usable
    return _power_law(f, log_centring, np.where(f_ok, values, math.nan), noise_floor)


def _power_law(f: np.ndarray, log_centring: tuple[float, np.ndarray, float] | None,
               values: np.ndarray, noise_floor: float) -> PowerLawFit:
    """The one fit of log10|value| on log10 f, f > 0, where noise_floor < |value| < inf.

    Only a row usable at every point reads `log_centring`, :func:`_log_centring` of f.
    """
    y = np.abs(values)
    use = (y > noise_floor) & (y < math.inf)
    n_used = int(np.count_nonzero(use))
    if n_used < 5:
        raise InsufficientSignal(f"{n_used} usable points above floor {noise_floor:g}")
    if n_used < len(y):
        log_centring, y = _log_centring(f[use]), y[use]
    if log_centring is None:
        raise InsufficientSignal(f"{n_used} usable points share the single flux {f[use][0]:g}")
    intercept, slope, ss_res, dy = _line_fit(log_centring, np.log10(y, out=y))
    ss_tot = float(dy @ dy)
    # ss_tot = 0 means a constant y, which the line fits exactly
    r_squared = max(0.0, 1.0 - ss_res / ss_tot) if ss_tot > 0.0 else 1.0
    n_pos = int(np.count_nonzero((values > 0.0) & use))
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


# the criterion's branches: key -> (verdict, diagnostics line)
_CRITERIA = {
    "case1": (VerdictKind.ODD_NC_DETECTED, "criterion case 1: odd-ring divergence pattern"),
    "case2": (VerdictKind.EVEN_NC_DETECTED,
              "criterion case 2: even-ring divergence pattern (lambda < sigma)"),
    "commutative_odd": (VerdictKind.NO_NC_DETECTED,
                        "commutative odd pattern: lambda absent, sigma ~ +N/f^2"),
    "commutative_even": (VerdictKind.NO_NC_DETECTED,
                         "commutative even pattern: sigma absent, lambda ~ -N/f^2"),
    "none": (VerdictKind.INCONCLUSIVE,
             "no criterion case matches the observed divergence pattern"),
    "case1_even": (VerdictKind.INCONCLUSIVE, "criterion case 1 contradicts the even parity"),
    "case2_odd": (VerdictKind.INCONCLUSIVE, "criterion case 2 contradicts the odd parity"),
}


@dataclass(frozen=True, slots=True)
class Verdict:
    """The criterion's facts; `diagnostics` renders their prose on each access.

    `criterion` is the branch's key (`case1`, `case2`, `commutative_odd`, `commutative_even`,
    `none`, `case1_even`, `case2_odd`), the two flags say which fit diverges, and a
    detection keeps its f_nc cross-check (else None).
    """

    kind: VerdictKind
    lambda_fit: PowerLawFit | None
    sigma_fit: PowerLawFit | None
    estimated_n: int
    estimated_parity: Parity
    estimated_f_nc: float | None
    estimated_theta_tilde: float | None
    criterion: str
    lambda_divergent: bool
    sigma_divergent: bool
    f_nc_hat_cross: float | None = None
    cross_gap: float | None = None

    @property
    def diagnostics(self) -> tuple[str, ...]:
        """The report's human-readable notes, rendered from the fields on each access."""
        notes = [
            f"{name}: no usable signal above the noise floor" if fit is None else
            f"{name}: amplitude {fit.amplitude:.4e}, exponent {fit.exponent:.4f}, "
            f"r2 {fit.r_squared:.6f}, points {fit.n_points_used}, "
            f"divergent={'yes' if divergent else 'no'}"
            for name, fit, divergent in (("lambda", self.lambda_fit, self.lambda_divergent),
                                         ("sigma", self.sigma_fit, self.sigma_divergent))
        ]
        notes += [f"electron number estimate: {self.estimated_n} ({self.estimated_parity})",
                  _CRITERIA[self.criterion][1]]
        if self.f_nc_hat_cross is not None:
            notes.append(f"f_nc cross-check: primary {self.estimated_f_nc:.4e}, "
                         f"cross {self.f_nc_hat_cross:.4e}, relative gap {self.cross_gap:.4e}")
        return tuple(notes)


def _divergent(fit: PowerLawFit | None, config: RunConfig) -> bool:
    """Whether `fit` shows the A/f^2 divergence: exponent near -2, |A| clear of its floor."""
    return (fit is not None and abs(fit.exponent + 2.0) <= config.exponent_tol
            and abs(fit.amplitude) > config.amplitude_floor_mult * fit.residual_floor)


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
    while the other shows its parity's persistent divergence means no effect
    was detected; anything else, or a case against `parity`, is inconclusive.  The verdict
    keeps the key and both flags; its prose is rendered on access.  A detection also keeps
    :func:`estimate_theta_tilde`'s f_nc, theta_tilde (`config`'s ring) and cross-check.
    """
    lam_div, sig_div = _divergent(lambda_fit, config), _divergent(sigma_fit, config)
    # the signed amplitude of a divergent fit; 0 for no divergence
    lam = lambda_fit.amplitude if lam_div else 0.0
    sig = sigma_fit.amplitude if sig_div else 0.0
    criterion = ("case1" if lam < 0.0 < sig else "case2" if lam < sig < 0.0
                 else "commutative_odd" if lam == 0.0 < sig
                 else "commutative_even" if sig == 0.0 > lam else "none")
    if (criterion, parity) in (("case1", "even"), ("case2", "odd")):
        criterion = f"{criterion}_{parity}"  # the pattern contradicts the estimated parity
    kind = _CRITERIA[criterion][0]
    estimated_f_nc = estimated_theta_tilde = 0.0 if kind is VerdictKind.NO_NC_DETECTED else None
    cross = gap = None
    if kind in (VerdictKind.ODD_NC_DETECTED, VerdictKind.EVEN_NC_DETECTED):
        estimated_f_nc, estimated_theta_tilde, cross, gap = estimate_theta_tilde(
            kind, lambda_fit, sigma_fit, n_electrons, radius=config.radius_m, alpha=config.alpha)
    return Verdict(kind=kind, lambda_fit=lambda_fit, sigma_fit=sigma_fit,
                   estimated_n=n_electrons, estimated_parity=parity,
                   estimated_f_nc=estimated_f_nc, estimated_theta_tilde=estimated_theta_tilde,
                   criterion=criterion, lambda_divergent=lam_div, sigma_divergent=sig_div,
                   f_nc_hat_cross=cross, cross_gap=gap)


def estimate_theta_tilde(
    kind: VerdictKind,
    lambda_fit: PowerLawFit,
    sigma_fit: PowerLawFit,
    n_electrons: int,
    radius: float,
    alpha: float,
) -> tuple[float, float, float, float]:
    """Invert fitted amplitudes into (f_nc, theta_tilde, f_nc_cross, cross_gap) for a detection.

    f_nc_cross re-derives f_nc from the other signature as a check, much noisier for
    small f_nc (a tiny correction to an O(N) amplitude); cross_gap is their relative gap.

    odd:  A_lambda = -2 N f_nc         -> f_nc = -A_lambda / (2N)
          A_sigma  = N (1 - 2 f_nc)    -> cross-check (1 - A_sigma/N) / 2
    even: A_sigma  = -2 N f_nc         -> f_nc = -A_sigma / (2N)
          A_lambda = -N (1 + 2 f_nc)   -> cross-check -(1 + A_lambda/N) / 2

    theta_tilde is model.theta_tilde_from_f_nc(f_nc); N must be a positive integer.
    """
    n = n_electrons
    check_electron_number(n)
    if kind is VerdictKind.ODD_NC_DETECTED:
        primary = -lambda_fit.amplitude / (2.0 * n)
        cross = (1.0 - sigma_fit.amplitude / n) / 2.0
    elif kind is VerdictKind.EVEN_NC_DETECTED:
        primary = -sigma_fit.amplitude / (2.0 * n)
        cross = -(1.0 + lambda_fit.amplitude / n) / 2.0
    else:
        raise NotDetected(f"no parameter estimate for verdict {kind.value}")
    gap = abs(primary - cross) / max(abs(primary), 1e-300)
    return primary, theta_tilde_from_f_nc(primary, radius, alpha), cross, gap


@dataclass(frozen=True)
class AnalysisResult:
    verdict: Verdict
    lam: np.ndarray
    sig: np.ndarray
    method: str
    trace_noise_rms: float
    residual_floor: float


def _noise_floor(window: _FitWindow, sigma_j: float, smoothing_window: int) -> float:
    """Amplitude-equivalent noise of the derivative estimates; 0 for an empty window.

    Trace noise sigma_j reaches the central differences as ~ sqrt(2) sigma_j /
    (sqrt(W) f d2f) at each interior point, on a log grid a constant times
    1/f^2, the shape of a true divergence.  Its median times f^2 over the fit
    window, sqrt(2) sigma_j / sqrt(W) times the window's floor scale, is a
    floor directly comparable with a fitted 1/f^2 amplitude; taking the median before
    the noise scaling changes it by rounding only.
    """
    if not window.f.size:
        return 0.0  # also for a NaN or infinite sigma_j
    return math.sqrt(2.0) * sigma_j / math.sqrt(smoothing_window) * window.floor_scale


def analyze_trace(
    trace: CurrentTrace,
    config: RunConfig = RunConfig(),
    blind: bool = True,
) -> AnalysisResult:
    """Run the full detection chain on a current trace.

    One straight-line fit gives the noise level and, in blind mode (default),
    the electron number and parity; otherwise they come from the trace's
    `n_electrons` (InvalidRange when it states none).  Windows, thresholds
    and the ring scales come from `config`.
    """
    intercept, slope, sigma_j = _linear_fit(trace)
    parity: Parity
    if blind:
        n_est, parity = _electron_number(intercept, slope)
    elif trace.n_electrons is None:
        raise InvalidRange("a non-blind analysis needs the trace's n_electrons; it states none")
    else:
        n_est, parity = trace.n_electrons, ("odd" if trace.n_electrons % 2 else "even")
    lam, sig, method = differentiate_trace(trace, n_est, smoothing_window=config.smoothing_window)
    # A noiseless trace can fit its line exactly (sigma_j = 0), yet the
    # signatures still carry the rounding of J; the floor never goes below it.
    sigma_floor = max(sigma_j, float(_EPS * np.abs(trace.j).max()))
    # the fit window of the interior grid: the one-sided endpoints (see
    # differentiate_trace) are never fitted
    window = _term(trace, _window, config.fit_f_lo, config.fit_f_hi)
    floor = _noise_floor(window, sigma_floor, config.smoothing_window)

    fits: list[PowerLawFit | None] = []
    for values in (lam, sig):
        try:
            fits.append(_power_law(window.f, window.log_centring, values[1:-1][window.cut], floor))
        except InsufficientSignal:
            fits.append(None)

    return AnalysisResult(
        verdict=classify(*fits, n_est, parity, config),
        lam=lam,
        sig=sig,
        method=method,
        trace_noise_rms=sigma_j,
        residual_floor=floor,
    )
