"""Brute-force reference implementations used to validate the closed forms.

Levels are enumerated and sorted explicitly, so no oracle calls a closed
form.  One kernel, :func:`_fill`, fills a whole flux array for every N of
the rings that share f_nc and that array, from one sort.  It enumerates the
levels of the window |n| <= m of the largest N, m = N // 2 + 5, in the
tie-break column order n = 0, -1, 1, -2, 2, ...; each level
(n + x) * (n + x) - 0.75 f_nc^2 is squared as a correctly rounded product,
and a stable sort along each row orders them; each N fills the N lowest.
For each N, with its own m, it refuses a flux that is not finite or lies m
or more from f_nc, and a filling that reaches |n| = m.  The scalar oracles
are its one-N case; the two finite differences fill f - d and f + d as one
block and refuse (NearDegeneracy) a point where the two occupations differ.
The three sweeps at the bottom, behind the `verify` CLI subcommand and on
the rings and grids the module constants fix, compare each closed form with
E, J = -dE/df or the two signatures, exact from the sums of n and n^2 of a
:class:`Filling`: one row filled per point, a level crossing (the N-th and
(N+1)-th levels of the row's sort tie) dropped.  The closed form is called
once per ring, the exact references once per block of 4096 kept rows, which
may span several N.  The ground-state and current sweeps of one `verify`
share one fill, :func:`zone_filling`, which sorts once per f_nc.  A sweep
calls no model function but the closed form it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ncring.errors import InvalidRange, NearDegeneracy, WindowTooSmall, check_integer
from ncring.model import (RingSystem, ground_state_energy, lambda_signature, persistent_current,
                          sigma_signature)

__all__ = [
    "LevelFilling",
    "ground_state_by_filling",
    "current_by_finite_difference",
    "signature_by_finite_difference",
    "SweepResult",
    "zone_flux_grid",
    "Filling",
    "zone_filling",
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


def _fill(f_nc: float, f: np.ndarray, n_values):
    """Fill, for each N of `n_values` in turn, the N lowest levels among n in [-m, m],
    m = N // 2 + 5, at each flux of `f`; a generator that yields once per N.

    The levels of the largest N's window, one row per flux, with columns in tie-break
    order n = 0, -1, 1, -2, 2, ..., are sorted once, stably along each row, which breaks
    exact degeneracies by smaller |n|, then negative n.  Each N gets what a sort of its
    own window gives: a smaller window is a column prefix, which the stable sort keeps
    in order, and its boundary check keeps the N + 1 lowest levels inside it.  Yields
    (levels, occupied, sums): the (len(f), N + 1) lowest levels and their n in filling
    order, the last one empty, and the (2, len(f)) integer S1 = sum n and S2 = sum n^2
    over the N filled.  Before it yields for N it raises InvalidRange for a non-finite
    flux, and WindowTooSmall if |f - f_nc| >= m or a filled level is on the boundary.
    """
    if not np.isfinite(f).all():
        raise InvalidRange(f"flux must be finite, got {f[~np.isfinite(f)][0]}")
    x = f - f_nc  # the lowest level sits near n = -x, so |x| < m must hold
    reach = None
    for n_el in n_values:
        m = n_el // 2 + 5  # five levels past the filled shell on each side at f = f_nc
        if (far := np.abs(x) >= m).any():
            raise WindowTooSmall(
                f"flux {f[far][0]} lies {m} or more from f_nc; shift it toward f_nc by whole quanta"
            )
        if reach is None:  # sorted once |x| < m holds, so no level can overflow
            top = max(n_values)
            k = np.arange(2 * (top // 2 + 5) + 1)
            n = (k + 1) // 2 * (1 - 2 * (k % 2))  # tie-break order 0, -1, 1, -2, 2, ...
            u = n + x[:, None]
            # the product is the correctly rounded square, as in model.eigenenergy;
            # libm pow (float_power, **) misrounds a few squares in ten thousand
            levels = u * u - 0.75 * f_nc**2
            order = np.argsort(levels, axis=1, kind="stable")[:, :top + 1]
            levels, occupied = np.take_along_axis(levels, order, axis=1), n[order]
            sums = np.cumsum((occupied, occupied * occupied), axis=2)
            # reach[N - 1]: the largest |n| among the N lowest levels of any row
            reach = np.maximum.accumulate(np.abs(occupied), axis=1).max(axis=0, initial=0)
            del u, order  # every N reads only the sorted blocks
        if reach[n_el - 1] >= m:  # a filled level on the boundary n = -m, +m or beyond
            raise WindowTooSmall(
                f"filling touches the enumeration boundary +-{m}; shift f toward f_nc by whole quanta"
            )
        yield levels[:, :n_el + 1], occupied[:, :n_el + 1], sums[:, :, n_el - 1]


def ground_state_by_filling(ring: RingSystem, f: float) -> LevelFilling:
    """Occupy the N lowest levels among n in [-m, m], m = N // 2 + 5, and sum them.

    The tie-break at degeneracies (smaller |n| first, then negative n) is
    arbitrary but total-ordered, so identical inputs always produce the
    identical filling.  Raises InvalidRange for a non-finite flux, and
    WindowTooSmall if f lies m or more from f_nc or if the filled set
    touches the enumeration boundary.
    """
    levels, occupied, _ = next(_fill(ring.f_nc, np.array([float(f)]), (ring.n_electrons,)))
    return LevelFilling(tuple(occupied[0, :-1].tolist()), math.fsum(levels[0, :-1].tolist()))


def _occupation_between(ring: RingSystem, f: np.ndarray, d, message: str) -> np.ndarray:
    """The quantum numbers filled at each f + d, one row per flux, in filling order.

    f + d and f - d are filled as one block; where the two fill different
    levels, a level crossing lies between them and NearDegeneracy(message)
    is raised.
    """
    b = len(f)
    _, occupied, _ = next(_fill(ring.f_nc, np.concatenate((f + d, f - d)), (ring.n_electrons,)))
    filled = np.sort(occupied[:, :-1], axis=1)
    if np.any(filled[:b] != filled[b:]):
        raise NearDegeneracy(message)
    return occupied[:b, :-1]


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
    if not 0.0 < h < math.inf:
        raise InvalidRange(f"h must be finite and strictly positive, got {h}")
    f = float(f)
    occupied = _occupation_between(ring, np.array([f]), h, f"occupation changes across "
                                   f"f = {f} +- {h}; move away from the crossing")
    xp, xm = (f + h) - ring.f_nc, (f - h) - ring.f_nc
    return -math.fsum((2.0 * occupied[0] + xp + xm).tolist())


def signature_by_finite_difference(ring: RingSystem, f, h=1e-7):
    """Central differences of J/f and (J - N)/f, J = -2 (S1 + N x) of the filled occupation.

    `f` and `h` are scalars or arrays of one shape: a scalar call returns two
    floats, an array call two arrays equal to its scalar calls element by
    element.  The step is caller-chosen: relative accuracy of the difference
    degrades like eps*|J/f|/(2h) at large f, so callers scale h with f.
    Requires f - h > 0, and the same occupation at f - 10h and f + 10h
    (NearDegeneracy otherwise) at every point.  No sweep calls it; it stays as
    the tests' reference and a traced benchmark name.
    """
    if not np.all(h > 0.0):
        raise InvalidRange("h must be strictly positive")
    if not np.all(f - h > 0.0):
        raise InvalidRange(f"need f - h > 0, got f={f}, h={h}")
    shape = np.broadcast_shapes(np.shape(f), np.shape(h))
    fb, hb = (np.broadcast_to(np.asarray(a, dtype=float), shape).ravel() for a in (f, h))
    occupied = _occupation_between(ring, fb, 10.0 * hb, f"f = {f} is within 10h of a level "
                                   "crossing; differences are invalid")
    n = ring.n_electrons
    sums = [occupied.sum(axis=1).astype(float)]  # S1; J reads no S2
    fp, fm = fb + hb, fb - hb
    jp = _exact_current(n, ring.f_nc, fp, sums)[0]
    jm = _exact_current(n, ring.f_nc, fm, sums)[0]
    lam = (jp / fp - jm / fm) / (2.0 * hb)
    sig = ((jp - n) / fp - (jm - n) / fm) / (2.0 * hb)
    if not shape:
        return float(lam[0]), float(sig[0])
    return lam.reshape(shape), sig.reshape(shape)


# ---------------------------------------------------------------------------
# sweeps shared by the test suite and the `verify` CLI subcommand


@dataclass(frozen=True)
class SweepResult:
    label: str
    n_points: int
    max_dev: float
    tol: float
    worst: tuple[int, float, float]  # (N, f_nc, f)
    rows_filled: int  # rows of the fill the sweep compared against, crossings included

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


# The `verify` sweeps' fixed settings.
FILLING_N = range(1, 61)  # N values of the ground-state and current sweeps
FILLING_F_NC = (0.0, 1e-5, 0.01, 0.3)
FILLING_POINTS = 101  # zone_flux_grid size
GROUND_STATE_TOL, CURRENT_TOL = 1e-14, 1e-12
SIGNATURE_N, SIGNATURE_F_NC = (3, 4), (0.0, 1e-5, 1e-2)
SIGNATURE_SPAN, SIGNATURE_POINTS = (1e-3, 0.4), 40  # log grid bounds and size
SIGNATURE_TOL = 1e-14
_BLOCK = 4096  # rows per exact-reference call: few calls, temporaries of a few hundred kB


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


def _exact_energy(n_el, f_nc, f, sums):
    """E = S2 + 2 S1 x + N x^2 - (3/4) N f_nc^2, x = f - f_nc, as a pair (hi, lo) within a
    few u^2 max(1, |E|): first-order products are split exactly, second-order ones rounded.
    Here and below, N is a scalar or one per row of f; each row's bits are the same."""
    s1, s2 = sums
    xh, xl = _two_sum(f, -f_nc)
    q, qe = _two_prod(f_nc, f_nc)
    c, ce = _two_prod(0.75 * n_el, q)
    a, ae = _two_prod(2.0 * s1, xh)
    g, ge = _two_prod(xh, xh)
    k, ke = _two_prod(n_el, g)
    return _compensated_sum([s2, -c, -ce, -0.75 * n_el * qe, a, ae, 2.0 * s1 * xl,
                             k, ke, n_el * ge, 2.0 * n_el * xh * xl, n_el * xl * xl])


def _exact_current(n_el, f_nc, f, sums):
    """J = -dE/df = -2 (S1 + N x) as a pair (hi, lo), every product split exactly."""
    xh, xl = _two_sum(f, -f_nc)
    p, pe = _two_prod(n_el, xh)
    r, re = _two_prod(n_el, xl)
    hi, lo = _compensated_sum([sums[0], p, pe, r, re])
    return -2.0 * hi, -2.0 * lo


def _exact_signatures(n_el, f_nc, f, sums):
    """d(J/f)/df = (2 S1 - 2N f_nc) / f^2 and d((J - N)/f)/df, that plus N / f^2, for
    J = -2 (S1 + N x), as (len(f), 2) pairs (hi, lo) within a few u^2 of each value: the
    numerators are summed over an exact 2N f_nc, then divided by the exact f^2 and refined."""
    n_el = np.reshape(n_el, (-1, 1))
    p, pe = _two_prod(2.0 * n_el, f_nc[:, None])
    hi, lo = _compensated_sum([2.0 * sums[0][:, None] + [0.0, 1.0] * n_el, -p, -pe])
    g, ge = _two_prod(f[:, None], f[:, None])
    q = hi / g
    t, te = _two_prod(q, g)
    return q, (((hi - t) - te) + lo - q * ge) / g  # hi - t is exact: q g lies within an ulp of hi


@dataclass(frozen=True)
class Filling:
    """Rings filled once, for every sweep that compares against them: per ring, the ring and
    its kept fluxes, for one closed-form call each; per kept row, flat in ring order, N, f_nc,
    f and the (2, rows) sums S1, S2, which `_sweep` reads in blocks of `_BLOCK` rows."""

    rings: tuple  # (ring, kept fluxes) pairs
    n: np.ndarray
    f_nc: np.ndarray
    f: np.ndarray
    sums: np.ndarray
    rows: int  # fluxes filled, level crossings included


def _filling(n_values, f_nc_values, points) -> Filling:
    """Fill each ring's `points(ring)`; keep those off a crossing, where J is undefined.

    The rings that share f_nc and fluxes are filled together, from one `_fill` and one
    sort, group after group; of the rings that fail, the first in ring order raises."""
    rings = [RingSystem.from_f_nc(n_electrons=n, f_nc=f_nc)
             for n in n_values for f_nc in f_nc_values]
    fluxes = [points(ring) for ring in rings]
    groups = {}  # ring indices by (f_nc, fluxes), in ring order
    for i, (ring, f) in enumerate(zip(rings, fluxes)):
        groups.setdefault((ring.f_nc, f.tobytes()), []).append(i)
    kept, sums, failed = [None] * len(rings), [None] * len(rings), []
    for (f_nc, _), group in groups.items():
        n_el = [rings[i].n_electrons for i in group]
        try:
            for i, (levels, _, occupation) in zip(group, _fill(f_nc, fluxes[group[0]], n_el)):
                off = levels[:, -2] != levels[:, -1]  # the N-th and (N+1)-th levels
                kept[i], sums[i] = fluxes[i][off], occupation[:, off].astype(float)
        except (InvalidRange, WindowTooSmall) as exc:  # raised for the first ring not filled
            failed.append((next(i for i in group if kept[i] is None), exc))
    if failed:
        raise min(failed, key=lambda pair: pair[0])[1]
    counts = [len(k) for k in kept]
    return Filling(tuple(zip(rings, kept)),
                   np.repeat([float(ring.n_electrons) for ring in rings], counts),
                   np.repeat([ring.f_nc for ring in rings], counts), np.concatenate(kept),
                   np.concatenate(sums, axis=1), sum(map(len, fluxes)))


def zone_filling() -> Filling:
    """The rings of the ground-state and current sweeps, each filled once over the zone grid."""
    grid = zone_flux_grid(FILLING_POINTS)
    return _filling(FILLING_N, FILLING_F_NC, lambda ring: grid)


def _sweep(label, tol, filled, closed, exact) -> SweepResult:
    """Max of |closed - exact| / max(1, |closed|) over `filled`; `exact` takes
    (N, f_nc, f, sums) per block of `_BLOCK` rows; the worst point is the first max."""
    value = np.concatenate([closed(ring, kept) for ring, kept in filled.rings])
    dev = np.empty_like(value)
    for start in range(0, len(value), _BLOCK):
        b = slice(start, start + _BLOCK)
        hi, lo = exact(filled.n[b], filled.f_nc[b], filled.f[b], filled.sums[:, b])
        dev[b] = np.abs((value[b] - hi) - lo) / np.maximum(1.0, np.abs(value[b]))
    max_dev, worst = float(dev.max(initial=0.0)), (0, 0.0, 0.0)
    if not max_dev <= 0.0:  # a NaN deviation is the worst
        row = np.unravel_index(np.argmax(dev), dev.shape)[0]
        worst = (int(filled.n[row]), float(filled.f_nc[row]), float(filled.f[row]))
    return SweepResult(label, dev.size, max_dev, tol, worst, filled.rows)


def ground_state_sweep(filled: Filling | None = None) -> SweepResult:
    """Max of |E_g(closed) - E_g(exact)| / max(1, |E_g|) over `filled`, or zone_filling()."""
    return _sweep("ground-state closed form vs filling oracle", GROUND_STATE_TOL,
                  filled or zone_filling(), ground_state_energy, _exact_energy)


def current_sweep(filled: Filling | None = None) -> SweepResult:
    """Max of |J(closed) + dE_g/df(exact)| / max(1, |J|) over `filled`, or zone_filling()."""
    return _sweep("current closed form vs -dE/df oracle", CURRENT_TOL,
                  filled or zone_filling(), persistent_current, _exact_current)


def signature_sweep() -> SweepResult:
    """Max of |closed - exact| / max(1, |closed|) over both signatures on a log grid.

    On an even ring the closed forms hold only on the branch f > f_nc, so the
    grid's points at or below f_nc are not filled.
    """
    grid = np.geomspace(*SIGNATURE_SPAN, SIGNATURE_POINTS)
    filled = _filling(SIGNATURE_N, SIGNATURE_F_NC,
                      lambda ring: grid[grid > ring.f_nc] if ring.parity == "even" else grid)
    return _sweep("signature closed forms vs filling oracle", SIGNATURE_TOL, filled,
                  lambda ring, f: np.column_stack((lambda_signature(ring, f),
                                                   sigma_signature(ring, f))),
                  _exact_signatures)
