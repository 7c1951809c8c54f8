"""Brute-force reference implementations used to validate the closed forms.

Levels are enumerated and sorted explicitly so that the closed-form
ground-state energy and current can be checked against a construction that
never calls them.  One kernel, :func:`_fill`, fills a whole flux array for
one ring.  It enumerates the levels of the fixed window |n| <= m, with
m = N // 2 + 5, in the tie-break column order n = 0, -1, 1, -2, 2, ...;
each level (n + x) * (n + x) - 0.75 f_nc^2 is squared as a correctly
rounded product, and a stable sort along each row fills the N lowest.  It
refuses a flux that is not finite or lies m or more from f_nc, and a
filling that reaches |n| = m.  The scalar oracles are its one-point case,
summed with math.fsum.  The filling sweeps at the bottom, behind the test
suite and the `verify` CLI subcommand, fill one row per point and compare
with E and J = -dE/df evaluated exactly on that occupation from its sums of
n and n^2.  The signature differences alone are built on the closed-form
current; every sweep is tallied by :func:`_sweep`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ncring.errors import InvalidRange, NearDegeneracy, WindowTooSmall, check_integer
from ncring.model import (
    RingSystem,
    persistent_current,
    ground_state_energy,
    lambda_signature,
    sigma_signature,
    reduce_to_zone,
)

__all__ = [
    "LevelFilling",
    "ground_state_by_filling",
    "current_by_finite_difference",
    "signature_by_finite_difference",
    "boundary_distance",
    "SweepResult",
    "zone_flux_grid",
    "ground_state_sweep",
    "current_sweep",
    "signature_sweep",
]


@dataclass(frozen=True)
class LevelFilling:
    """Result of filling the N lowest ring levels at fixed flux.

    occupied lists the quantum numbers n in the order they were filled
    (ascending energy, ties broken by smaller |n|, then negative n first).
    total_energy is in units of epsilon0.
    """

    occupied: tuple[int, ...]
    total_energy: float


def _fill(ring: RingSystem, f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupy the N lowest levels among n in [-m, m], m = N // 2 + 5, at each flux of `f`.

    Returns (levels, order, n): `levels` is the (len(f), 2m + 1) block of
    level energies, one row per flux, whose columns hold the quantum numbers
    `n` in tie-break order 0, -1, 1, -2, 2, ...; row b of the (len(f), N)
    array `order` lists the columns filled at f[b], in filling order.  A
    stable sort along each row breaks exact degeneracies by smaller |n|,
    then negative n.  Raises InvalidRange for a non-finite flux, and
    WindowTooSmall if |f - f_nc| >= m or if a filled level sits on the
    enumeration boundary.
    """
    n_el = ring.n_electrons
    m = n_el // 2 + 5  # five levels past the filled shell on each side at f = f_nc
    if not np.isfinite(f).all():
        raise InvalidRange(f"flux must be finite, got {f[~np.isfinite(f)][0]}")
    x = f - ring.f_nc  # the lowest level sits near n = -x, so |x| < m must hold
    if (far := np.abs(x) >= m).any():
        raise WindowTooSmall(
            f"flux {f[far][0]} lies {m} or more from f_nc; shift it toward f_nc by whole quanta"
        )
    k = np.arange(2 * m + 1)
    n = (k + 1) // 2 * (1 - 2 * (k % 2))  # tie-break order 0, -1, 1, -2, 2, ...
    u = n + x[:, None]
    # the product is the correctly rounded square, as in model.eigenenergy;
    # libm pow (float_power, **) misrounds a few squares in ten thousand
    levels = u * u - 0.75 * ring.f_nc**2
    order = np.argsort(levels, axis=1, kind="stable")[:, :n_el]
    if order.max() >= 2 * m - 1:  # the last two columns hold n = -m and n = +m
        raise WindowTooSmall(
            f"filling touches the enumeration boundary +-{m}; shift f toward f_nc by whole quanta"
        )
    return levels, order, n


def _fsum_rows(a: np.ndarray) -> np.ndarray:
    """Correctly rounded sum of each row."""
    return np.fromiter(map(math.fsum, a.tolist()), float, len(a))


def ground_state_by_filling(ring: RingSystem, f: float) -> LevelFilling:
    """Occupy the N lowest levels among n in [-m, m], m = N // 2 + 5, and sum them.

    The tie-break at degeneracies (smaller |n| first, then negative n) is
    arbitrary but total-ordered, so identical inputs always produce the
    identical filling.  Raises InvalidRange for a non-finite flux, and
    WindowTooSmall if f lies m or more from f_nc or if the filled set
    touches the enumeration boundary.
    """
    levels, order, n = _fill(ring, np.array([float(f)]))
    return LevelFilling(tuple(n[order[0]].tolist()), math.fsum(levels[0, order[0]].tolist()))


def _finite_difference_current(ring: RingSystem, f: np.ndarray, h: float) -> np.ndarray:
    """-dE_g/df at each flux of `f` by the telescoped central difference.

    The f + h and f - h rows are filled as one block; the occupation moved
    at a point when its two rows fill different columns.
    """
    if not 0.0 < h < math.inf:
        raise InvalidRange(f"h must be finite and strictly positive, got {h}")
    b = len(f)
    fpm = np.concatenate((f + h, f - h))
    _, order, n = _fill(ring, fpm)
    columns = np.sort(order, axis=1)
    moved = np.any(columns[:b] != columns[b:], axis=1)
    if moved.any():
        raise NearDegeneracy(
            f"occupation changes across f = {float(f[moved][0])} +- {h}; "
            "move away from the crossing"
        )
    x = (fpm - ring.f_nc)[:, None]
    return -_fsum_rows(2.0 * n[order[:b]] + x[:b] + x[b:])


def current_by_finite_difference(ring: RingSystem, f: float, h: float = 1e-6) -> float:
    """Central difference -[E_g(f+h) - E_g(f-h)] / (2h) from the filling oracle.

    Because every occupied level is a quadratic in the flux, the difference
    of the two level sums telescopes exactly:

        E(f+h) - E(f-h) = (xp - xm) * sum_n (2n + xp + xm)

    with xp/xm the level arguments at the two flux points.  Evaluating the
    telescoped quotient instead of subtracting two O(N^3) totals avoids the
    catastrophic cancellation that would otherwise swamp the O(N) signal.
    Raises NearDegeneracy if the occupation changes between f-h and f+h.
    """
    return float(_finite_difference_current(ring, np.array([float(f)]), h)[0])


def boundary_distance(ring: RingSystem, f):
    """Distance in f from the nearest ground-state level crossing (scalar or array)."""
    x = np.asarray(reduce_to_zone(np.asarray(f, dtype=float) - ring.f_nc, ring.parity))
    d = 0.5 - np.abs(x) if ring.parity == "odd" else np.minimum(x, 1.0 - x)
    return float(d) if d.ndim == 0 else d


def signature_by_finite_difference(ring: RingSystem, f, h=1e-7):
    """Central differences of J/f and (J - N)/f built on the closed-form current.

    `f` and `h` are scalars or arrays of one shape: a scalar call returns two
    floats, an array call two arrays equal to its scalar calls element by
    element.  The step is caller-chosen: relative accuracy of the difference
    degrades like eps*|J/f|/(2h) at large f, so sweeps scale h with f.
    Requires f - h > 0 and at least 10h of clearance from any level crossing
    (NearDegeneracy otherwise) at every point.
    """
    if not np.all(h > 0.0):
        raise InvalidRange("h must be strictly positive")
    if not np.all(f - h > 0.0):
        raise InvalidRange(f"need f - h > 0, got f={f}, h={h}")
    if np.any(boundary_distance(ring, f) <= 10.0 * h):
        raise NearDegeneracy(
            f"f = {f} is within 10h of a level crossing; differences are invalid"
        )
    n = ring.n_electrons
    fp, fm = f + h, f - h
    jp = persistent_current(ring, fp)
    jm = persistent_current(ring, fm)
    lam = (jp / fp - jm / fm) / (2.0 * h)
    sig = ((jp - n) / fp - (jm - n) / fm) / (2.0 * h)
    return lam, sig


# ---------------------------------------------------------------------------
# sweeps shared by the test suite and the `verify` CLI subcommand


@dataclass(frozen=True)
class SweepResult:
    label: str
    n_points: int
    max_dev: float
    tol: float
    worst: tuple[int, float, float]  # (N, f_nc, f)
    rows_filled: int  # rows the filling kernel filled: one per point, 0 for the signature sweep

    @property
    def passed(self) -> bool:
        """Every checked point is within tol, and at least one point was checked."""
        return self.n_points > 0 and self.max_dev <= self.tol

    def summary(self) -> str:
        n, f_nc, f = self.worst
        status = "OK" if self.passed else "FAIL"
        return (
            f"{self.label}: max dev {self.max_dev:.3e} (tol {self.tol:.0e}) over "
            f"{self.n_points} points, worst at N={n}, f_nc={f_nc:g}, f={f:g}  [{status}]"
        )


def zone_flux_grid(n_flux: int = 101) -> np.ndarray:
    """n_flux >= 1 flux values strictly inside (-1, 1)."""
    if check_integer("n_flux", n_flux) < 1:
        raise InvalidRange(f"n_flux must be at least 1, got {n_flux}")
    return np.linspace(-1.0, 1.0, n_flux + 2)[1:-1]


# The `verify` sweeps' fixed settings; a (full, quick) pair is indexed by `quick`.
FILLING_N = (range(1, 61), range(1, 13))  # N values of the ground-state and current sweeps
FILLING_F_NC = (0.0, 1e-5, 0.01, 0.3)
FILLING_POINTS = (101, 31)  # zone_flux_grid sizes
GROUND_STATE_TOL, CURRENT_TOL = 1e-14, 1e-12
SIGNATURE_N, SIGNATURE_F_NC = (3, 4), (0.0, 1e-5, 1e-2)
SIGNATURE_SPAN, SIGNATURE_POINTS = (1e-3, 0.4), (40, 15)  # log grid bounds and sizes
SIGNATURE_TOL = 1e-6


def _sweep_rings(
    n_values: Iterable[int], f_nc_values: Iterable[float]
) -> Iterable[RingSystem]:
    for n in n_values:
        for f_nc in f_nc_values:
            yield RingSystem.from_f_nc(n_electrons=n, f_nc=f_nc)


def _sweep(label, tol, rows, deviations) -> SweepResult:
    """Max over `deviations`, (ring, f, dev) triples with one row of `dev` per flux of
    a non-empty `f`, filled at `rows` kernel rows per point; the worst point is
    the first row-major maximum."""
    max_dev, worst, count = 0.0, (0, 0.0, 0.0), 0
    for ring, f, dev in deviations:
        count += dev.size
        i = int(np.argmax(dev))
        if dev.flat[i] > max_dev:
            row = i // (dev.size // len(f))
            max_dev, worst = float(dev.flat[i]), (ring.n_electrons, ring.f_nc, float(f[row]))
    return SweepResult(label, count, max_dev, tol, worst, rows * count)


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly: Dekker's TwoProduct on
    Veltkamp's split into 26-bit halves, valid for |a|, |b| < 2**996 and so for the
    filling sweeps' bounded inputs, |f| < 1, f_nc < 1/2 and N <= 60."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b  # 2**27 + 1
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _compensated_sum(terms):
    """sum(terms) as a pair (hi, lo) by Ogita, Rump and Oishi's Sum2 with an
    error-free last step: within about n^2 u^2 sum |term|, u = 2**-53."""
    s, c = terms[0], 0.0
    for t in terms[1:]:
        s, e = _two_sum(s, t)
        c = c + e
    return _two_sum(s, c)


def _occupation_sums(ring: RingSystem, f: np.ndarray) -> np.ndarray:
    """Rows S1 = sum n and S2 = sum n^2 over the levels `_fill` occupies at each flux."""
    _, order, n = _fill(ring, f)
    occupied = n[order]
    return np.stack((occupied.sum(axis=1), (occupied * occupied).sum(axis=1))).astype(float)


def _exact_energy(n_el, f_nc, f, sums):
    """E = S2 + 2 S1 x + N x^2 - (3/4) N f_nc^2, x = f - f_nc, as a pair (hi, lo) within a
    few u^2 max(1, |E|): first-order products are split exactly, second-order ones rounded."""
    s1, s2 = sums
    xh, xl = _two_sum(f, -f_nc)
    q, qe = _two_prod(f_nc, f_nc)
    c, ce = _two_prod(0.75 * n_el, q)
    a, ae = _two_prod(2.0 * s1, xh)
    g, ge = _two_prod(xh, xh)
    k, ke = _two_prod(float(n_el), g)
    return _compensated_sum([s2, -c, -ce, -0.75 * n_el * qe, a, ae, 2.0 * s1 * xl,
                             k, ke, n_el * ge, 2.0 * n_el * xh * xl, n_el * xl * xl])


def _exact_current(n_el, f_nc, f, sums):
    """J = -dE/df = -2 (S1 + N x) as a pair (hi, lo), every product split exactly."""
    xh, xl = _two_sum(f, -f_nc)
    p, pe = _two_prod(float(n_el), xh)
    r, re = _two_prod(float(n_el), xl)
    hi, lo = _compensated_sum([sums[0], p, pe, r, re])
    return -2.0 * hi, -2.0 * lo


def _filling_deviations(quick, closed, exact):
    """(ring, f, |closed - exact| / max(1, |closed|)) per ring of the filling sweep, on its
    grid points off a level crossing, where J is undefined; `exact` takes (N, f_nc, f,
    occupation sums) over one N's block of rings, filled once per point."""
    grid = zone_flux_grid(FILLING_POINTS[quick])
    for n in FILLING_N[quick]:
        block = [(ring, f) for ring in _sweep_rings((n,), FILLING_F_NC)
                 if (f := grid[boundary_distance(ring, grid) > 0.0]).size]
        sizes = [len(f) for _, f in block]
        value = np.concatenate([closed(ring, f) for ring, f in block])
        sums = np.concatenate([_occupation_sums(ring, f) for ring, f in block], axis=1)
        f_nc = np.repeat([ring.f_nc for ring, _ in block], sizes)
        hi, lo = exact(n, f_nc, np.concatenate([f for _, f in block]), sums)
        dev = np.abs((value - hi) - lo) / np.maximum(1.0, np.abs(value))
        for (ring, f), d in zip(block, np.split(dev, np.cumsum(sizes)[:-1])):
            yield ring, f, d


def ground_state_sweep(quick: bool = False) -> SweepResult:
    """Max of |E_g(closed) - E_g(exact)| / max(1, |E_g|) over the filling sweep."""
    return _sweep("ground-state closed form vs filling oracle", GROUND_STATE_TOL, 1,
                  _filling_deviations(quick, ground_state_energy, _exact_energy))


def current_sweep(quick: bool = False) -> SweepResult:
    """Max of |J(closed) + dE_g/df(exact)| / max(1, |J|) over the filling sweep."""
    return _sweep("current closed form vs -dE/df oracle", CURRENT_TOL, 1,
                  _filling_deviations(quick, persistent_current, _exact_current))


def signature_sweep(quick: bool = False) -> SweepResult:
    """Max relative deviation of the signature closed forms from finite differences.

    Each signature is compared at relative tolerance where its closed form
    is nonzero; an identically-zero closed form (the commutative limit of
    one signature per parity) is instead required to vanish to tol of the
    dominant signature scale N/f^2.  Even-parity points below f_nc sit on
    the wrapped branch of the current where the closed forms do not apply
    and are skipped.  The step is scaled with f to balance truncation
    against rounding.
    """
    grid = np.geomspace(*SIGNATURE_SPAN, SIGNATURE_POINTS[quick])
    step = np.maximum(1e-7, 1e-4 * grid)

    def deviations():
        for ring in _sweep_rings(SIGNATURE_N, SIGNATURE_F_NC):
            keep = grid > ring.f_nc + 10.0 * step if ring.parity == "even" else slice(None)
            f, h = grid[keep], step[keep]
            if f.size:
                fd = np.column_stack(signature_by_finite_difference(ring, f, h=h))
                closed = np.column_stack((lambda_signature(ring, f), sigma_signature(ring, f)))
                scale = ring.n_electrons / f[:, None] ** 2
                yield ring, f, np.abs(fd - closed) / np.where(closed == 0.0, scale, np.abs(closed))

    return _sweep("signature closed forms vs finite differences", SIGNATURE_TOL, 0, deviations())
