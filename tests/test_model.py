"""Closed-form model: constants, ring fields, spectrum, current, signatures."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncring.constants import E_CHARGE, FLUX_QUANTUM, HBAR, H_PLANCK, M_ELECTRON
from ncring.errors import InvalidRange, ZeroFlux
from ncring.model import (
    RingSystem,
    eigenenergy,
    ground_state_energy,
    lambda_signature,
    persistent_current,
    reduce_to_zone,
    sigma_signature,
)

THETA_TILDE_REF = 1.76e-61


def ring_with(n_electrons: int, f_nc: float) -> RingSystem:
    return RingSystem.from_f_nc(n_electrons=n_electrons, f_nc=f_nc)


def unit_ring(n_electrons: int, f_nc: float) -> RingSystem:
    # at radius hbar (and alpha 1) theta_tilde is f_nc * 1.0 and the ring's f_nc is
    # hbar^2 f_nc / hbar^2: exact for a dyadic f_nc, which the bit-exactness properties use
    return RingSystem.from_f_nc(n_electrons=n_electrons, f_nc=f_nc, radius=HBAR)


class TestConstants:
    def test_flux_quantum_is_h_over_e(self):
        assert FLUX_QUANTUM == H_PLANCK / E_CHARGE


class TestMapParameters:
    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            RingSystem(radius=1e-6, n_electrons=3, alpha=0.0)
        with pytest.raises(ValueError):
            RingSystem(radius=1e-6, n_electrons=3, alpha=1.2)
        with pytest.raises(ValueError):
            RingSystem(radius=1e-6, n_electrons=3, theta_tilde=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_scales_refused(self, value):
        # `x < 0.0` is False for NaN, so a sign check alone lets it through
        with pytest.raises(InvalidRange, match="^theta_tilde must be finite and non-negative"):
            RingSystem(radius=1e-6, n_electrons=3, theta_tilde=value)

    def test_alpha_checked_before_radius(self):
        with pytest.raises(InvalidRange, match=r"^alpha must lie in \(0, 1\], got 2\.0$"):
            RingSystem(radius=-1.0, n_electrons=3, alpha=2.0)


class TestEffectiveField:
    def test_zero_theta_tilde(self):
        assert RingSystem(radius=1e-6, n_electrons=3).b_eff == 0.0

    def test_reference_magnitude(self):
        # independent arithmetic: B = theta_tilde / (e hbar) at alpha = 1
        expected = THETA_TILDE_REF / (E_CHARGE * HBAR)
        b = RingSystem(radius=1e-6, n_electrons=3, theta_tilde=THETA_TILDE_REF).b_eff
        assert b == pytest.approx(expected, rel=1e-14)
        assert b == pytest.approx(1.0417e-8, rel=1e-4)

    def test_inverse_alpha_squared_scaling(self):
        b1 = RingSystem(radius=1e-6, n_electrons=3, theta_tilde=THETA_TILDE_REF).b_eff
        b2 = RingSystem(radius=1e-6, n_electrons=3, alpha=0.5, theta_tilde=THETA_TILDE_REF).b_eff
        assert b2 == 4.0 * b1


class TestNoncommutativeFlux:
    def test_reference_value(self):
        ring = RingSystem(radius=1e-6, n_electrons=3, theta_tilde=THETA_TILDE_REF)
        assert ring.f_nc == pytest.approx(1.5828e-5, rel=1e-3)

    def test_zero_theta_tilde(self):
        ring = RingSystem(radius=1e-6, n_electrons=3)
        assert ring.f_nc == 0.0

    def test_quadratic_radius_scaling(self):
        small = RingSystem(radius=1e-6, n_electrons=3, theta_tilde=THETA_TILDE_REF)
        big = RingSystem(radius=2e-6, n_electrons=3, theta_tilde=THETA_TILDE_REF)
        assert big.f_nc == 4.0 * small.f_nc

    def test_phi_nc_consistent(self):
        ring = ring_with(3, 1e-5)
        assert ring.phi_nc == ring.f_nc * FLUX_QUANTUM

    def test_radius_drops_out_of_the_nc_current_scale(self):
        # f_nc grows as R^2 and j0 falls as 1/R^2, so the amplitude 2N f_nc j0 that carries
        # f_nc is the same for every radius and scales as 1/alpha
        scales = [ring.f_nc * ring.j0 * ring.alpha
                  for radius in (1e-7, 1e-6, 1e-5, 1e-4) for alpha in (1.0, 0.5, 0.25, 0.1)
                  for ring in [RingSystem(radius=radius, n_electrons=3, alpha=alpha,
                                          theta_tilde=THETA_TILDE_REF)]]
        assert max(scales) - min(scales) <= 1e-15 * min(scales)
        assert float(f"{scales[0]:.6e}") == 2.335867e-17  # amperes


class TestRingSystem:
    def test_derived_scales(self):
        ring = RingSystem(
            radius=1e-6,
            n_electrons=4,
            alpha=0.8,
            theta_tilde=THETA_TILDE_REF,
            mass=M_ELECTRON,
        )
        assert ring.m_star == ring.mass / 0.8
        assert ring.epsilon0 == HBAR**2 / (2.0 * ring.m_star * ring.radius**2)
        assert ring.j0 == E_CHARGE * ring.epsilon0 / H_PLANCK
        assert ring.parity == "even"

    def test_rebuild_and_compare(self):
        # derived values are pure functions of the stored fields
        a = ring_with(7, 1e-3)
        b = RingSystem(radius=a.radius, n_electrons=a.n_electrons, alpha=a.alpha,
                       theta_tilde=a.theta_tilde, mass=a.mass)
        for name in ("m_star", "epsilon0", "j0", "f_nc", "phi_nc", "b_eff"):
            assert getattr(a, name) == getattr(b, name)

    def test_validation(self):
        with pytest.raises(ValueError):
            RingSystem(radius=0.0, n_electrons=3)
        with pytest.raises(ValueError):
            RingSystem(radius=1e-6, n_electrons=0)
        with pytest.raises(ValueError):
            RingSystem(radius=1e-6, n_electrons=3, mass=-1.0)
        with pytest.raises(ValueError):
            RingSystem.from_f_nc(n_electrons=3, f_nc=-1e-5)

    @pytest.mark.parametrize(
        "radius, alpha, theta_tilde, scale",
        [(1e200, 1.0, THETA_TILDE_REF, "f_nc is inf"),  # radius**2 overflows
         (1e-200, 1.0, THETA_TILDE_REF, "epsilon0 is inf"),  # radius**2 underflows to zero
         (1e-6, 1e-200, THETA_TILDE_REF, "f_nc is inf"),  # (hbar alpha)**2 underflows
         (1e-6, 1.0, 1e300, "f_nc is inf"),  # the product overflows
         (1e150, 1.0, 0.0, "epsilon0 is 0.0")],  # hbar^2 / (2 m R^2) underflows
        ids=["radius_1e200", "radius_1e-200", "alpha_1e-200", "theta_tilde_1e300",
             "radius_1e150"],
    )
    def test_out_of_range_scales_refused(self, radius, alpha, theta_tilde, scale):
        with pytest.raises(InvalidRange, match=f"^the ring's {re.escape(scale)}: "):
            RingSystem(radius=radius, n_electrons=3, alpha=alpha, theta_tilde=theta_tilde)

    def test_from_f_nc_zero_radius(self):
        with pytest.raises(InvalidRange, match=r"^radius must be strictly positive, got 0\.0$"):
            RingSystem.from_f_nc(3, 0.01, radius=0.0)

    @pytest.mark.parametrize("f_nc", [-1e-5, math.nan, math.inf])
    def test_from_f_nc_refuses_by_name(self, f_nc):
        # a NaN or inf once reached the ring as theta_tilde and was refused by that name
        message = f"^f_nc must be finite and non-negative, got {f_nc}$"
        with pytest.raises(InvalidRange, match=message):
            RingSystem.from_f_nc(3, f_nc)


class TestReduceToZone:
    def test_examples(self):
        assert reduce_to_zone(0.7, "odd") == pytest.approx(-0.3)
        assert reduce_to_zone(1.5, "odd") == -0.5
        assert reduce_to_zone(-0.2, "even") == pytest.approx(0.8)

    def test_half_open_boundaries(self):
        assert reduce_to_zone(0.5, "odd") == -0.5
        assert reduce_to_zone(-0.5, "odd") == -0.5
        assert reduce_to_zone(1.0, "even") == 0.0
        assert reduce_to_zone(-1e-20, "even") == 0.0

    def test_odd_point_one_ulp_inside_the_zone_stays(self):
        # x - floor(x + 1/2) rounded 0.5 - 2^-54 onto the far branch, so an N = 1 ring
        # read J = +1 where its filled level n = 0 gives J = -2x, about -1
        from ncring.oracle import ground_state_by_filling

        x = 0.5 - 2**-54
        assert reduce_to_zone(x, "odd") == x
        assert reduce_to_zone(-x, "odd") == -x
        ring = ring_with(1, 0.0)
        assert ground_state_by_filling(ring, x).occupied == (0,)
        assert persistent_current(ring, x) == -2.0 * x
        assert ground_state_energy(ring, x) == x * x

    def test_bad_parity_rejected(self):
        with pytest.raises(ValueError):
            reduce_to_zone(0.1, "both")

    @given(x=st.floats(-1e6, 1e6, allow_nan=False))
    def test_odd_range(self, x):
        y = reduce_to_zone(x, "odd")
        assert -0.5 <= y < 0.5

    @given(x=st.floats(-1e6, 1e6, allow_nan=False))
    def test_even_range(self, x):
        y = reduce_to_zone(x, "even")
        assert 0.0 <= y < 1.0

    @given(x=st.floats(-10, 10, allow_nan=False))
    def test_unit_periodicity(self, x):
        for parity in ("odd", "even"):
            a = reduce_to_zone(x, parity)
            b = reduce_to_zone(x + 1.0, parity)
            assert a == pytest.approx(b, abs=1e-12)


class TestEigenenergy:
    def test_vanishing_kinetic_term(self):
        ring = ring_with(3, 1e-5)
        assert eigenenergy(ring, 0, ring.f_nc) == pytest.approx(
            -0.75 * ring.f_nc**2, rel=1e-12
        )

    def test_unit_level(self):
        ring = ring_with(3, 0.0)
        assert eigenenergy(ring, 1, 0.0) == 1.0

    def test_array_broadcast(self):
        ring = ring_with(3, 0.0)
        n = np.arange(-2, 3)
        e = eigenenergy(ring, n, 0.25)
        assert e.shape == n.shape
        assert e[2] == 0.0625

    @given(
        k=st.integers(-1023, 1023),
        f_nc_num=st.sampled_from([0, 16, 256]),
        m=st.integers(2, 6),
    )
    @settings(max_examples=60)
    def test_spectrum_relabel_exact(self, k, f_nc_num, m):
        # dyadic flux values keep f + 1 exactly representable, so the
        # spectra must match as multisets bit for bit
        f = k / 1024.0
        f_nc = f_nc_num / 1024.0
        ring = unit_ring(3, f_nc)
        assert ring.f_nc == f_nc
        left = sorted(eigenenergy(ring, n, f) for n in range(-m, m + 1))
        right = sorted(eigenenergy(ring, n, f + 1.0) for n in range(-m - 1, m))
        assert left == right


def _eg_exact(n_electrons: int, f, f_nc, parity: str) -> Fraction:
    """Closed-form ground-state energy in exact rational arithmetic."""
    x = Fraction(f) - Fraction(f_nc)
    if parity == "odd":
        x -= math.floor(x + Fraction(1, 2))
    else:
        x -= math.floor(x)
    offset = Fraction(3, 4) * Fraction(f_nc) ** 2
    n = n_electrons
    if parity == "odd":
        return Fraction(n**3 - n, 12) + n * (x * x - offset)
    return Fraction(n**3 + 2 * n, 12) - n * x + n * (x * x - offset)


class TestGroundStateEnergy:
    def test_three_electron_fill(self):
        # occupy n in {-1, 0, 1}: sum (n + 0.1)^2 = 2.03
        ring = ring_with(3, 0.0)
        assert ground_state_energy(ring, 0.1) == pytest.approx(2.03, rel=1e-12)

    def test_two_electron_fill(self):
        # occupy n in {0, -1}: 0.1^2 + 0.9^2 = 0.82
        ring = ring_with(2, 0.0)
        assert ground_state_energy(ring, 0.1) == pytest.approx(0.82, rel=1e-12)

    def test_single_electron_at_f_nc(self):
        ring = ring_with(1, 1e-3)
        assert ground_state_energy(ring, ring.f_nc) == pytest.approx(
            -0.75 * ring.f_nc**2, rel=1e-12
        )

    @given(f=st.floats(-2.0, 2.0, allow_nan=False), n=st.sampled_from([1, 2, 3, 4, 7, 10]))
    @settings(max_examples=80)
    def test_zone_periodicity(self, f, n):
        ring = ring_with(n, 1e-5)
        a = ground_state_energy(ring, f)
        b = ground_state_energy(ring, f + 1.0)
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    @given(x=st.floats(1e-6, 0.499, allow_nan=False))
    @settings(max_examples=60)
    def test_odd_symmetry_exact(self, x):
        # with f_nc = 0 the two mirror fluxes square to identical floats
        ring = ring_with(5, 0.0)
        assert ground_state_energy(ring, x) == ground_state_energy(ring, -x)

    @given(x=st.floats(1e-6, 0.499, allow_nan=False))
    @settings(max_examples=60)
    def test_even_symmetry(self, x):
        ring = ring_with(4, 0.0)
        a = ground_state_energy(ring, x)
        b = ground_state_energy(ring, -x)
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    def test_derivative_consistency(self):
        # -dE_g/df must reproduce the closed-form current; the central
        # difference is evaluated in exact rational arithmetic so the
        # comparison is limited only by the closed forms themselves
        h = 1e-6
        for n, f_nc in [(2, 0.0), (3, 1e-5), (4, 1e-2), (7, 0.0)]:
            ring = ring_with(n, f_nc)
            parity = ring.parity
            for f in np.linspace(-0.93, 0.93, 41):
                f = float(f)
                x = reduce_to_zone(f - ring.f_nc, parity)
                dist = 0.5 - abs(x) if parity == "odd" else min(x, 1.0 - x)
                if dist <= 10.0 * h:
                    continue
                a, b = f + h, f - h
                de = _eg_exact(n, a, ring.f_nc, parity) - _eg_exact(n, b, ring.f_nc, parity)
                j_fd = float(-de / (Fraction(a) - Fraction(b)))
                j = persistent_current(ring, f)
                assert abs(j_fd - j) <= 1e-10 * max(1.0, abs(j))


class TestPersistentCurrent:
    def test_odd_linear_response(self):
        ring = ring_with(3, 0.0)
        assert persistent_current(ring, 0.1) == pytest.approx(-0.6, rel=1e-14)

    def test_vanishes_at_f_nc(self):
        ring = ring_with(3, 1e-5)
        assert persistent_current(ring, ring.f_nc) == pytest.approx(0.0, abs=1e-18)

    def test_even_branch_value(self):
        ring = ring_with(4, 1e-5)
        expected = 4.0 - 8.0 * (0.25 - ring.f_nc)
        assert persistent_current(ring, 0.25) == pytest.approx(expected, rel=1e-15)
        assert persistent_current(ring, 0.25) == pytest.approx(2.00008, rel=1e-6)

    @given(f=st.floats(-2.0, 2.0, allow_nan=False))
    @settings(max_examples=60)
    def test_zone_periodicity(self, f):
        ring = ring_with(4, 1e-5)
        a = persistent_current(ring, f)
        b = persistent_current(ring, f + 1.0)
        assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    def test_vectorized_matches_scalar(self):
        ring = ring_with(5, 1e-3)
        f = np.linspace(0.01, 0.4, 17)
        j = persistent_current(ring, f)
        assert j.shape == f.shape
        for fi, ji in zip(f, j):
            assert persistent_current(ring, float(fi)) == ji


class TestSignatures:
    def test_lambda_odd_example(self):
        ring = RingSystem.from_f_nc(n_electrons=3, f_nc=1e-5)
        expected = -2.0 * 3 * ring.f_nc / 0.01**2
        assert lambda_signature(ring, 0.01) == pytest.approx(expected, rel=1e-14)
        assert lambda_signature(ring, 0.01) == pytest.approx(-0.6, rel=1e-9)

    def test_lambda_odd_commutative_zero(self):
        ring = ring_with(3, 0.0)
        for f in (0.001, 0.1, 0.3):
            assert lambda_signature(ring, f) == 0.0

    def test_sigma_odd_example(self):
        ring = ring_with(3, 0.0)
        assert sigma_signature(ring, 0.1) == pytest.approx(300.0, rel=1e-12)

    def test_sigma_even_commutative_zero(self):
        ring = ring_with(4, 0.0)
        for f in (0.001, 0.1, 0.3):
            assert sigma_signature(ring, f) == 0.0

    def test_sigma_even_example(self):
        ring = ring_with(4, 1e-5)
        expected = -2.0 * 4 * ring.f_nc / 0.01**2
        assert sigma_signature(ring, 0.01) == pytest.approx(expected, rel=1e-14)
        assert sigma_signature(ring, 0.01) == pytest.approx(-0.8, rel=1e-9)

    def test_lambda_even_example(self):
        ring = ring_with(4, 0.0)
        assert lambda_signature(ring, 0.1) == pytest.approx(-400.0, rel=1e-12)

    def test_zero_flux_raises(self):
        ring = ring_with(3, 1e-5)
        for signature in (lambda_signature, sigma_signature):
            for f in (0.0, np.array([0.1, 0.0, 0.2])):
                with pytest.raises(ZeroFlux):
                    signature(ring, f)

    # today's explicit closed forms, which the shared 1/f^2 body must keep bit for bit
    EXPLICIT = {
        ("lambda", "odd"): lambda n, f_nc, f: (-2.0 * n * f_nc) / (f * f),
        ("lambda", "even"): lambda n, f_nc, f: (-n * (1.0 + 2.0 * f_nc)) / (f * f),
        ("sigma", "odd"): lambda n, f_nc, f: (n * (1.0 - 2.0 * f_nc)) / (f * f),
        ("sigma", "even"): lambda n, f_nc, f: (-2.0 * n * f_nc) / (f * f),
    }

    @pytest.mark.parametrize("f_nc", [0.0, 1e-5, 1e-2])
    @pytest.mark.parametrize("n", [3, 6, 101, 10000])
    @pytest.mark.parametrize(
        "name, signature", [("lambda", lambda_signature), ("sigma", sigma_signature)]
    )
    def test_scalar_array_and_explicit_form_agree(self, name, signature, n, f_nc):
        ring = ring_with(n, f_nc)
        f = np.geomspace(1e-3, 0.4, 17)
        scalars = [signature(ring, x) for x in f.tolist()]
        assert all(type(value) is float for value in scalars)
        assert (signature(ring, f) == np.array(scalars)).all()
        explicit = self.EXPLICIT[name, ring.parity]
        assert scalars == [explicit(n, ring.f_nc, x) for x in f.tolist()]

    @given(
        f=st.floats(1e-4, 0.49, allow_nan=False),
        f_nc=st.floats(1e-6, 0.49, allow_nan=False),
        n=st.sampled_from([1, 3, 5, 101]),
    )
    @settings(max_examples=80)
    def test_odd_parity_signs(self, f, f_nc, n):
        ring = unit_ring(n, f_nc)
        assert lambda_signature(ring, f) < 0.0
        assert sigma_signature(ring, f) > 0.0

    @given(
        f=st.floats(1e-4, 0.49, allow_nan=False),
        f_nc=st.floats(0.0, 0.49, allow_nan=False),
        n=st.sampled_from([2, 4, 8, 100]),
    )
    @settings(max_examples=80)
    def test_even_parity_ordering(self, f, f_nc, n):
        ring = unit_ring(n, f_nc)
        lam = lambda_signature(ring, f)
        sig = sigma_signature(ring, f)
        assert lam < sig <= 0.0
