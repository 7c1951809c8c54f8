"""Brute-force reference implementations used to validate the closed forms.

Levels are enumerated and sorted explicitly so that the closed-form
ground-state energy and current can be checked against a construction that
never calls them.  One kernel, :func:`_fill`, fills a whole flux array for
one ring.  It enumerates the levels of the fixed window |n| <= m, with
m = N // 2 + 5, in the tie-break column order n = 0, -1, 1, -2, 2, ...;
each level (n + x) * (n + x) - 0.75 f_nc^2 is squared as a correctly
rounded product, and a stable sort along each row fills the N lowest.  It
refuses a flux that is not finite or lies m or more from f_nc, and a
filling that reaches |n| = m.  The scalar oracles are its one-point case.
The three sweeps at the bottom, behind the test suite and the `verify` CLI
subcommand, run one path, :func:`_sweep`: it fills one row per point, drops
a level crossing (the row's N-th and (N+1)-th levels tie), and compares each
closed form with E, J = -dE/df or the two signatures, exact on the filled
occupation from its sums of n and n^2.  No sweep calls the scalar oracles,
:func:`boundary_distance` or a model function but the closed form it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    No sweep calls it; it stays as the tests' reference and a traced benchmark name.
    """
    return float(_finite_difference_current(ring, np.array([float(f)]), h)[0])


def boundary_distance(ring: RingSystem, f):
    """Distance in f from the nearest ground-state level crossing (scalar or array).

    It takes the model's zone reduction, so no sweep calls it: the sweeps find
    crossings from the filling, and the tests check the two agree."""
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
    (NearDegeneracy otherwise) at every point.  No sweep calls it; it stays as
    the tests' reference and a traced benchmark name.
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
    rows_filled: int  # rows the filling kernel filled: one per flux, crossings included

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
SIGNATURE_TOL = 1e-14


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's TwoSum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly: Dekker's TwoProduct on
    Veltkamp's split into 26-bit halves, valid for |a|, |b| < 2**996 and so for the
    sweeps' bounded inputs, |f| < 1, f_nc < 1/2 and N <= 60."""
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


def _occupation_sums(ring: RingSystem, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fluxes of `f` off a level crossing (their `_fill` row's N-th and (N+1)-th levels
    differ), and rows S1 = sum n and S2 = sum n^2 over the levels filled at each of them."""
    levels, order, n = _fill(ring, f)
    n_el = ring.n_electrons
    lowest = np.partition(levels, (n_el - 1, n_el), axis=1)
    off = lowest[:, n_el - 1] != lowest[:, n_el]
    occupied = n[order[off]]
    return f[off], np.stack((occupied.sum(axis=1), (occupied**2).sum(axis=1))).astype(float)


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


def _exact_signatures(n_el, f_nc, f, sums):
    """d(J/f)/df = (2 S1 - 2N f_nc) / f^2 and d((J - N)/f)/df, that plus N / f^2, for
    J = -2 (S1 + N x), as (len(f), 2) pairs (hi, lo) within a few u^2 of each value: the
    numerators are summed over an exact 2N f_nc, then divided by the exact f^2 and refined."""
    p, pe = _two_prod(2.0 * n_el, f_nc[:, None])
    hi, lo = _compensated_sum([2.0 * sums[0][:, None] + [0.0, n_el], -p, -pe])
    g, ge = _two_prod(f[:, None], f[:, None])
    q = hi / g
    t, te = _two_prod(q, g)
    return q, (((hi - t) - te) + lo - q * ge) / g  # hi - t is exact: q g lies within an ulp of hi


def _sweep(label, tol, n_values, f_nc_values, points, closed, exact) -> SweepResult:
    """Max of |closed - exact| / max(1, |closed|) over each ring's fluxes `points(ring)` off a
    level crossing, where J is undefined.  Each flux is filled once; `exact` takes (N, f_nc,
    f, occupation sums) over one N's block of rings, and the worst point is the first
    row-major maximum."""
    max_dev, worst, count, rows = 0.0, (0, 0.0, 0.0), 0, 0
    for n in n_values:
        block = []
        for f_nc in f_nc_values:
            ring = RingSystem.from_f_nc(n_electrons=n, f_nc=f_nc)
            f = points(ring)
            rows += len(f)
            block.append((ring, *_occupation_sums(ring, f)))
        rings, kept, sums = zip(*block)
        f = np.concatenate(kept)
        f_nc = np.repeat([ring.f_nc for ring in rings], [len(k) for k in kept])
        value = np.concatenate([closed(ring, k) for ring, k in zip(rings, kept)])
        hi, lo = exact(n, f_nc, f, np.concatenate(sums, axis=1))
        dev = np.abs((value - hi) - lo) / np.maximum(1.0, np.abs(value))
        count += dev.size
        if dev.size and dev.max() > max_dev:
            row = int(np.argmax(dev)) // (dev.size // len(f))
            max_dev, worst = float(dev.max()), (n, float(f_nc[row]), float(f[row]))
    return SweepResult(label, count, max_dev, tol, worst, rows)


def ground_state_sweep(quick: bool = False) -> SweepResult:
    """Max of |E_g(closed) - E_g(exact)| / max(1, |E_g|) over the filling sweep."""
    grid = zone_flux_grid(FILLING_POINTS[quick])
    return _sweep("ground-state closed form vs filling oracle", GROUND_STATE_TOL,
                  FILLING_N[quick], FILLING_F_NC, lambda ring: grid,
                  ground_state_energy, _exact_energy)


def current_sweep(quick: bool = False) -> SweepResult:
    """Max of |J(closed) + dE_g/df(exact)| / max(1, |J|) over the filling sweep."""
    grid = zone_flux_grid(FILLING_POINTS[quick])
    return _sweep("current closed form vs -dE/df oracle", CURRENT_TOL,
                  FILLING_N[quick], FILLING_F_NC, lambda ring: grid,
                  persistent_current, _exact_current)


def signature_sweep(quick: bool = False) -> SweepResult:
    """Max of |closed - exact| / max(1, |closed|) over both signatures on a log grid.

    On an even ring the closed forms hold only on the branch f > f_nc, so the
    grid's points at or below f_nc are not filled.
    """
    grid = np.geomspace(*SIGNATURE_SPAN, SIGNATURE_POINTS[quick])
    return _sweep("signature closed forms vs filling oracle", SIGNATURE_TOL,
                  SIGNATURE_N, SIGNATURE_F_NC,
                  lambda ring: grid[grid > ring.f_nc] if ring.parity == "even" else grid,
                  lambda ring, f: np.column_stack((lambda_signature(ring, f),
                                                   sigma_signature(ring, f))),
                  _exact_signatures)
