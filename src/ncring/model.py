"""Closed-form physics of electrons on a 1D ring in noncommutative phase space.

The linear map to canonical operators turns the free ring Hamiltonian into
one with an effective mass m* = m/alpha and an effective magnetic flux
phi_nc generated by the momentum-momentum commutator scale theta_tilde.
The position-position scale theta enters no ring observable, so
:class:`RingSystem` holds only radius, N, alpha, theta_tilde and m.
Everything downstream is computed in reduced units:

* energies in units of  epsilon0 = hbar^2 / (2 m* R^2)
* currents in units of  j0 = (e/h) epsilon0
* magnetic flux in units of the flux quantum phi0 = h/e

hbar, e and h are fixed at their CODATA 2018 values (the constants
module).  SI conversion happens only at the I/O boundary (see
:mod:`ncring.dataio`).  Scalar-or-array inputs are accepted wherever it is
natural; scalars come back as plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ncring.constants import E_CHARGE, FLUX_QUANTUM, HBAR, H_PLANCK, M_ELECTRON
from ncring.errors import InvalidRange, ZeroFlux, check_integer

Parity = Literal["odd", "even"]

__all__ = [
    "Parity",
    "RingSystem",
    "check_electron_number",
    "theta_tilde_from_f_nc",
    "reduce_to_zone",
    "eigenenergy",
    "ground_state_energy",
    "persistent_current",
    "lambda_signature",
    "sigma_signature",
]


def check_electron_number(n) -> None:
    """Refuse (InvalidRange) an electron number that is not a positive integer, a bool included."""
    if not (isinstance(n, (int, np.integer)) and check_integer("n_electrons", n) >= 1):
        raise InvalidRange(f"n_electrons must be a positive integer, got {n}")


def theta_tilde_from_f_nc(f_nc: float, radius: float, alpha: float = 1.0) -> float:
    """The theta_tilde whose :attr:`RingSystem.f_nc`, R^2 theta_tilde / (hbar alpha)^2, is f_nc."""
    return f_nc * (HBAR * alpha / radius) ** 2


@dataclass(frozen=True)
class RingSystem:
    """A 1D ring of N electrons, its map parameters and its mass, as one flat record.

    alpha is the dimensionless scaling of the linear map; theta_tilde is the
    momentum-momentum commutator scale (kg^2 m^2 s^-2); mass is the bare
    mass m (kg).  All derived scales are recomputed from the stored fields
    on access, so they can never drift out of sync with the inputs.
    """

    radius: float
    n_electrons: int
    alpha: float = 1.0
    theta_tilde: float = 0.0
    mass: float = M_ELECTRON

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidRange(f"alpha must lie in (0, 1], got {self.alpha}")
        if not 0.0 <= self.theta_tilde < math.inf:
            raise InvalidRange(
                f"theta_tilde must be finite and non-negative, got {self.theta_tilde}"
            )
        if not self.radius > 0.0:
            raise InvalidRange(f"radius must be strictly positive, got {self.radius}")
        check_electron_number(self.n_electrons)
        if not self.mass > 0.0:
            raise InvalidRange(f"mass must be strictly positive, got {self.mass}")
        for name in ("f_nc", "epsilon0", "j0"):
            try:
                value = getattr(self, name)
            except (OverflowError, ZeroDivisionError):  # a float ** or / past the range
                value = math.inf
            if not math.isfinite(value) or (name != "f_nc" and not value > 0.0):
                raise InvalidRange(
                    f"the ring's {name} is {value}: radius, alpha, theta_tilde "
                    "or mass is out of range"
                )

    @classmethod
    def from_f_nc(cls, n_electrons: int, f_nc: float, radius: float = 1e-6) -> "RingSystem":
        """The ring (alpha 1, electron mass) whose reduced flux is, up to rounding, f_nc.

        Inverts f_nc = R^2 theta_tilde / hbar^2, for sweeps parameterized by f_nc.
        """
        if not 0.0 <= f_nc < math.inf:
            raise InvalidRange(f"f_nc must be finite and non-negative, got {f_nc}")
        try:
            theta_tilde = theta_tilde_from_f_nc(f_nc, radius)
        except (OverflowError, ZeroDivisionError):  # radius 0 or below ~1e-188
            theta_tilde = 0.0  # the ring below refuses the radius or its epsilon0
        return cls(radius=radius, n_electrons=n_electrons, theta_tilde=theta_tilde)

    @property
    def parity(self) -> Parity:
        return "odd" if self.n_electrons % 2 else "even"

    @property
    def m_star(self) -> float:
        """Effective mass m* = m / alpha in kg."""
        return self.mass / self.alpha

    @property
    def epsilon0(self) -> float:
        """Natural energy scale hbar^2 / (2 m* R^2) in J."""
        return HBAR**2 / (2.0 * self.m_star * self.radius**2)

    @property
    def j0(self) -> float:
        """Natural current scale (e/h) epsilon0 in A (magnitude convention)."""
        return E_CHARGE * self.epsilon0 / H_PLANCK

    @property
    def f_nc(self) -> float:
        """Reduced flux R^2 theta_tilde / (hbar^2 alpha^2) generated by theta_tilde."""
        return self.radius**2 * self.theta_tilde / (HBAR * self.alpha) ** 2

    @property
    def phi_nc(self) -> float:
        """Absolute noncommutative flux f_nc * phi0 in Wb."""
        return self.f_nc * FLUX_QUANTUM

    @property
    def b_eff(self) -> float:
        """Effective field theta_tilde / (e alpha^2 hbar) in T, by |e|, taken along +z."""
        return self.theta_tilde / (E_CHARGE * self.alpha**2 * HBAR)


def _maybe_scalar(out: np.ndarray, scalar: bool):
    return float(out) if scalar else out


def reduce_to_zone(x, parity: Parity):
    """Reduce a flux offset to the fundamental zone of its parity.

    odd  -> [-1/2, 1/2), via x - rint(x)
    even -> [0, 1),      via x - floor(x)

    Both conventions are half-open so that a value sitting exactly on a
    level crossing is mapped deterministically to the left branch.  The odd
    difference is exact, so only rint's ties to even, y = +1/2, move.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    if parity == "odd":
        y = arr - np.rint(arr)
        y = np.where(y >= 0.5, y - 1.0, y)
    elif parity == "even":
        y = arr - np.floor(arr)
        y = np.where(y >= 1.0, y - 1.0, y)
    else:
        raise InvalidRange(f"parity must be 'odd' or 'even', got {parity!r}")
    return _maybe_scalar(y, scalar)


def eigenenergy(ring: RingSystem, n, f):
    """Single-particle energy (n + f - f_nc)^2 - (3/4) f_nc^2 in units of epsilon0.

    No zone reduction is applied: the spectrum as a whole is periodic under
    f -> f + 1 through the relabeling n -> n - 1.
    """
    n_arr = np.asarray(n, dtype=float)
    f_arr = np.asarray(f, dtype=float)
    scalar = n_arr.ndim == 0 and f_arr.ndim == 0
    u = n_arr + (f_arr - ring.f_nc)
    out = u * u - 0.75 * ring.f_nc**2
    return _maybe_scalar(out, scalar)


def ground_state_energy(ring: RingSystem, f):
    """Ground-state energy of the N-electron ring in units of epsilon0.

    With x = f - f_nc reduced to the fundamental zone:

    odd  N: (N^3 - N)/12 + N [x^2 - (3/4) f_nc^2],  x in [-1/2, 1/2)
    even N: (N^3 + 2N)/12 - N x + N [x^2 - (3/4) f_nc^2],  x in [0, 1)

    Continuous except at the zone-boundary level crossings.
    """
    n = ring.n_electrons
    f_arr = np.asarray(f, dtype=float)
    scalar = f_arr.ndim == 0
    x = np.asarray(reduce_to_zone(f_arr - ring.f_nc, ring.parity))
    offset = 0.75 * ring.f_nc**2
    if ring.parity == "odd":
        out = (n**3 - n) / 12.0 + n * (x * x - offset)
    else:
        out = (n**3 + 2 * n) / 12.0 - n * x + n * (x * x - offset)
    return _maybe_scalar(out, scalar)


def persistent_current(ring: RingSystem, f):
    """Equilibrium current -dE_g/df in units of j0.

    With x = f - f_nc reduced to the fundamental zone: odd N gives -2 N x,
    even N gives N - 2 N x, each extended periodically by the reduction.
    """
    n = ring.n_electrons
    f_arr = np.asarray(f, dtype=float)
    scalar = f_arr.ndim == 0
    x = np.asarray(reduce_to_zone(f_arr - ring.f_nc, ring.parity))
    if ring.parity == "odd":
        out = (-2.0 * n) * x
    else:
        out = n - (2.0 * n) * x
    return _maybe_scalar(out, scalar)


def _over_f_squared(numerator: float, f):
    """numerator / f^2, the shape of both signatures; raises ZeroFlux at f = 0."""
    f_arr = np.asarray(f, dtype=float)
    if np.any(f_arr == 0.0):
        raise ZeroFlux("signatures diverge at f = 0; exclude that point")
    return _maybe_scalar(numerator / (f_arr * f_arr), f_arr.ndim == 0)


def lambda_signature(ring: RingSystem, f):
    """First detection signature, d/df of J/f, in reduced units.

    odd  N: -2 N f_nc / f^2
    even N: -N (1 + 2 f_nc) / f^2

    Valid on the principal branch of the current (f - f_nc inside the
    fundamental zone without wrapping).  Raises ZeroFlux at f = 0.
    """
    n, f_nc = ring.n_electrons, ring.f_nc
    if ring.parity == "odd":
        return _over_f_squared(-2.0 * n * f_nc, f)
    return _over_f_squared(-n * (1.0 + 2.0 * f_nc), f)


def sigma_signature(ring: RingSystem, f):
    """Second detection signature, d/df of (J - N)/f, in reduced units.

    odd  N: N (1 - 2 f_nc) / f^2
    even N: -2 N f_nc / f^2

    Same validity domain as :func:`lambda_signature`.
    """
    n, f_nc = ring.n_electrons, ring.f_nc
    if ring.parity == "odd":
        return _over_f_squared(n * (1.0 - 2.0 * f_nc), f)
    return _over_f_squared(-2.0 * n * f_nc, f)
