"""Brute-force oracle: level filling, finite differences, sweep agreement."""

import inspect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncring.errors import InvalidRange, NearDegeneracy, WindowTooSmall
from ncring.model import (
    RingSystem,
    eigenenergy,
    ground_state_energy,
    lambda_signature,
    persistent_current,
    sigma_signature,
)
from ncring import oracle
from ncring.oracle import (
    LevelFilling,
    boundary_distance,
    current_by_finite_difference,
    current_sweep,
    ground_state_by_filling,
    ground_state_sweep,
    signature_by_finite_difference,
    signature_sweep,
    zone_flux_grid,
)


def ring_with(n_electrons: int, f_nc: float) -> RingSystem:
    return RingSystem.from_f_nc(n_electrons=n_electrons, f_nc=f_nc)


# ---------------------------------------------------------------------------
# the per-point list-sort filling, kept as the reference for the batched kernel


def reference_filling(ring: RingSystem, f: float, window: int | None = None) -> LevelFilling:
    """The filling among n in [-window, window]; by default the kernel's window N // 2 + 5."""
    n_el = ring.n_electrons
    m = n_el // 2 + 5 if window is None else window
    x = float(f) - ring.f_nc
    offset = 0.75 * ring.f_nc**2
    levels = [((n + x) * (n + x) - offset, n) for n in range(-m, m + 1)]
    levels.sort(key=lambda t: (t[0], abs(t[1]), t[1] >= 0))
    filled = levels[:n_el]
    if any(abs(n) == m for _, n in filled):
        raise WindowTooSmall("filling touches the boundary")
    return LevelFilling(
        occupied=tuple(n for _, n in filled),
        total_energy=math.fsum(e for e, _ in filled),
    )


def reference_current(ring: RingSystem, f: float, h: float = 1e-6) -> float:
    fill_p = reference_filling(ring, f + h)
    fill_m = reference_filling(ring, f - h)
    if sorted(fill_p.occupied) != sorted(fill_m.occupied):
        raise NearDegeneracy("occupation changes")
    xp = (f + h) - ring.f_nc
    xm = (f - h) - ring.f_nc
    return -math.fsum(2.0 * n + xp + xm for n in fill_p.occupied)


def outcome(fn, *args, **kwargs):
    """The result, with floats as their exact hex, or the type of the oracle error."""
    try:
        result = fn(*args, **kwargs)
    except (WindowTooSmall, NearDegeneracy) as exc:
        return type(exc)
    if isinstance(result, LevelFilling):
        return result.occupied, result.total_energy.hex()
    if isinstance(result, np.ndarray):
        return [v.hex() for v in result.tolist()]
    return result.hex()


@st.composite
def filling_cases(draw, reach=7.0):
    """A ring and a flux batch.

    The batch mixes fluxes drawn from [-reach, reach] with exact level
    degeneracies x = f - f_nc in {0, +-0.5, +-1}, where only the column order
    breaks the tie.  From about 4.5 away from f_nc on, the filling reaches the
    edge |n| = N // 2 + 5 of the kernel's window, and past it the flux is
    refused, so the default reach draws both refusals.
    """
    n = draw(st.integers(1, 60))
    f_nc = draw(
        st.one_of(
            st.sampled_from([0.0, 1e-5, 0.01, 0.3]),
            st.floats(0.0, 0.5, allow_nan=False, allow_infinity=False),
        )
    )
    degenerate = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]).map(lambda x: x + f_nc)
    drawn = st.floats(-reach, reach, allow_nan=False, allow_infinity=False)
    f = draw(st.lists(st.one_of(degenerate, drawn), min_size=1, max_size=12))
    return ring_with(n, f_nc), f


class TestGroundStateByFilling:
    def test_three_electron_filling(self):
        fill = ground_state_by_filling(ring_with(3, 0.0), 0.1)
        assert sorted(fill.occupied) == [-1, 0, 1]
        assert fill.total_energy == pytest.approx(2.03, rel=1e-12)

    def test_single_electron(self):
        fill = ground_state_by_filling(ring_with(1, 0.0), 0.0)
        assert fill.occupied == (0,)
        assert fill.total_energy == 0.0

    def test_two_electron_filling_order(self):
        # filled in ascending energy: n=0 (0.01) before n=-1 (0.81)
        fill = ground_state_by_filling(ring_with(2, 0.0), 0.1)
        assert fill.occupied == (0, -1)
        assert fill.total_energy == pytest.approx(0.82, rel=1e-12)

    def test_tie_break_smaller_abs_n_first(self):
        # at f = 0.5 the n=0 and n=-1 levels are degenerate; |0| < |-1| wins
        fill = ground_state_by_filling(ring_with(1, 0.0), 0.5)
        assert fill.occupied == (0,)

    def test_tie_break_negative_first(self):
        # at f = 0 the n = +-1 levels are degenerate; negative comes first
        fill = ground_state_by_filling(ring_with(3, 0.0), 0.0)
        assert fill.occupied == (0, -1, 1)

    def test_boundary_touch_detected(self):
        # 4.6 from f_nc, within the window of N = 3 (6), the three lowest levels are
        # n = -5, -4 and -6: the filled shell reaches the window's edge
        with pytest.raises(WindowTooSmall, match=r"^filling touches the enumeration boundary \+-6;"):
            ground_state_by_filling(ring_with(3, 0.0), 4.6)

    @pytest.mark.parametrize("f", [math.nan, math.inf, -math.inf])
    def test_non_finite_flux_refused(self, f):
        # unchecked, a NaN flux fills (0, -1, 1) with a NaN energy
        with pytest.raises(InvalidRange, match="^flux must be finite, got"):
            ground_state_by_filling(ring_with(3, 0.0), f)

    @pytest.mark.parametrize("f", [1e17, -1e17, 1e12, 6.0, -6.0])
    def test_flux_a_window_from_f_nc_refused(self, f):
        # at 1e17 every (n + f)^2 in the window rounds to one value: unchecked, the
        # stable sort keeps the first columns and (0, -1, 1) comes back with no error
        with pytest.raises(WindowTooSmall, match=r"^flux \S+ lies 6 or more from f_nc;"):
            ground_state_by_filling(ring_with(3, 0.0), f)  # the window of N = 3: 6

    def test_determinism(self):
        ring = ring_with(6, 1e-3)
        a = ground_state_by_filling(ring, 0.21)
        b = ground_state_by_filling(ring, 0.21)
        assert a == b

    def test_total_recomputable_from_levels(self):
        import math

        from ncring.model import eigenenergy

        ring = ring_with(7, 1e-3)
        fill = ground_state_by_filling(ring, 0.13)
        assert len(set(fill.occupied)) == ring.n_electrons
        recomputed = math.fsum(eigenenergy(ring, n, 0.13) for n in fill.occupied)
        assert recomputed == fill.total_energy

    @given(
        n=st.integers(1, 25),
        f=st.floats(-0.9, 0.9, allow_nan=False),
        f_nc=st.sampled_from([0.0, 1e-5, 0.3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_saturation(self, n, f, f_nc):
        # five more levels on each side than the kernel enumerates change nothing
        ring = ring_with(n, f_nc)
        fill = ground_state_by_filling(ring, f)
        large = reference_filling(ring, f, window=n // 2 + 10)
        assert sorted(fill.occupied) == sorted(large.occupied)
        assert fill.total_energy == large.total_energy

    @given(n=st.integers(1, 30), f=st.floats(-0.9, 0.9, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form(self, n, f):
        ring = ring_with(n, 1e-5)
        fill = ground_state_by_filling(ring, f)
        e_closed = ground_state_energy(ring, f)
        assert fill.total_energy == pytest.approx(e_closed, rel=1e-12, abs=1e-12)


class TestFillingKernelMatchesReference:
    @given(case=filling_cases())
    @settings(max_examples=200, deadline=None)
    def test_ground_state_by_filling(self, case):
        ring, fluxes = case
        for f in fluxes:
            assert outcome(ground_state_by_filling, ring, f) == outcome(reference_filling, ring, f)

    @given(case=filling_cases(), h=st.sampled_from([1e-6, 1e-3, 0.25]))
    @settings(max_examples=200, deadline=None)
    def test_current_by_finite_difference(self, case, h):
        ring, fluxes = case
        for f in fluxes:
            assert outcome(current_by_finite_difference, ring, f, h) == outcome(
                reference_current, ring, f, h
            )

    @given(case=filling_cases(), h=st.sampled_from([1e-6, 1e-3]))
    @settings(max_examples=100, deadline=None)
    def test_batched_rows(self, case, h):
        # the sweeps fill a whole flux array at once: each row must be the
        # reference filling of its own point, and a batch fails iff a point does
        ring, fluxes = case
        f = np.array(fluxes)
        fills = [outcome(reference_filling, ring, v) for v in fluxes]
        if WindowTooSmall in fills:
            assert outcome(oracle._fill, ring, f) is WindowTooSmall
        else:
            levels, order, n = oracle._fill(ring, f)
            rows = [(tuple(n[o].tolist()), math.fsum(e[o].tolist()).hex())
                    for o, e in zip(order, levels)]
            assert rows == fills
        currents = [outcome(reference_current, ring, v, h) for v in fluxes]
        batch = outcome(oracle._finite_difference_current, ring, f, h)
        if WindowTooSmall in currents:
            assert batch in (WindowTooSmall, NearDegeneracy)
        elif NearDegeneracy in currents:
            assert batch is NearDegeneracy
        else:
            assert batch == currents

    @given(case=filling_cases(reach=3.0))  # every flux within 3 of zero fills
    @settings(max_examples=100, deadline=None)
    def test_levels_are_model_eigenenergies(self, case):
        # squares are correctly rounded products, so each level is the model's bit for bit
        ring, fluxes = case
        f = np.array(fluxes)
        levels, _, n = oracle._fill(ring, f)
        expected = eigenenergy(ring, n, f[:, None])
        assert [v.hex() for v in levels.flat] == [v.hex() for v in expected.flat]


class TestOracleIndependence:
    @pytest.fixture(autouse=True)
    def refuse_closed_forms(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called a closed form it checks")

        for name in (
            "ground_state_energy",
            "persistent_current",
            "lambda_signature",
            "sigma_signature",
            "reduce_to_zone",
        ):
            monkeypatch.setattr(oracle, name, refuse)

    def test_oracles_never_call_the_closed_forms(self):
        ring = ring_with(7, 0.01)
        fill = ground_state_by_filling(ring, 0.13)
        assert len(fill.occupied) == 7
        assert current_by_finite_difference(ring, 0.13) == pytest.approx(-14 * 0.12, rel=1e-9)
        f = zone_flux_grid(31)
        assert oracle._fill(ring, f)[1].shape == (31, 7)
        f = f[np.abs(f - 0.51) > 0.05]
        assert oracle._finite_difference_current(ring, f, 1e-6).shape == f.shape

    def test_exact_references_never_call_the_closed_forms(self):
        # the sweeps' reference side: fill, crossing test and occupation sums, then
        # exact E, J and signatures; 0.51 + f_nc is a level crossing and is dropped
        ring = ring_with(7, 0.01)
        f, sums = oracle._occupation_sums(ring, np.array([0.13, 0.51, -0.2]))
        assert f.tolist() == [0.13, -0.2]
        assert sums.tolist() == [[0.0, 0.0], [28.0, 28.0]]  # n = -3..3 at both points
        f_nc = np.full(2, ring.f_nc)
        energy = np.add(*oracle._exact_energy(7, f_nc, f, sums))
        current = np.add(*oracle._exact_current(7, f_nc, f, sums))
        lam, sig = np.add(*oracle._exact_signatures(7, f_nc, f, sums)).T
        x = f - ring.f_nc
        assert energy == pytest.approx(28.0 + 7 * (x * x - 0.75 * ring.f_nc**2), rel=1e-15)
        assert current == pytest.approx(-14 * x, rel=1e-15)
        assert lam == pytest.approx(-14 * ring.f_nc / f**2, rel=1e-15)
        assert sig == pytest.approx(7 * (1 - 2 * ring.f_nc) / f**2, rel=1e-15)


def signature_columns(ring, f):
    """The two signature closed forms as the signature sweep compares them."""
    return np.column_stack((lambda_signature(ring, f), sigma_signature(ring, f)))


class TestSweepIndependence:
    @pytest.mark.parametrize("sweep, checked", [
        (ground_state_sweep, {"ground_state_energy"}),
        (current_sweep, {"persistent_current"}),
        (signature_sweep, {"lambda_signature", "sigma_signature"}),
    ])
    def test_sweep_calls_no_model_function_but_its_closed_form(self, monkeypatch, sweep,
                                                                 checked):
        # every model function the oracle imports, reduce_to_zone included, is refused,
        # except the closed forms this sweep checks; the ring record stays usable
        imported = {name for name, value in vars(oracle).items()
                    if inspect.isfunction(value) and value.__module__ == "ncring.model"}
        assert {"reduce_to_zone", *checked} < imported

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep called a model function it does not check")

        for name in imported - checked:
            monkeypatch.setattr(oracle, name, refuse)
        result = sweep(quick=True)
        assert result.passed, result.summary()
        assert result.n_points == (168 if sweep is signature_sweep else 1470)


class TestCurrentByFiniteDifference:
    def test_odd_reference_point(self):
        j = current_by_finite_difference(ring_with(3, 0.0), 0.1, h=1e-6)
        assert j == pytest.approx(-0.6, abs=1e-9)

    def test_symmetry_point(self):
        ring = ring_with(3, 1e-5)
        j = current_by_finite_difference(ring, ring.f_nc, h=1e-6)
        assert j == pytest.approx(0.0, abs=1e-9)

    def test_even_reference_point(self):
        j = current_by_finite_difference(ring_with(4, 0.0), 0.25, h=1e-6)
        assert j == pytest.approx(2.0, abs=1e-9)

    def test_near_degeneracy_detected(self):
        with pytest.raises(NearDegeneracy):
            current_by_finite_difference(ring_with(3, 0.0), 0.5, h=1e-6)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            current_by_finite_difference(ring_with(3, 0.0), 0.1, h=0.0)

    @pytest.mark.parametrize("h", [math.inf, math.nan])
    def test_step_must_be_finite(self, h):
        # an infinite step was once reported as the flux f + h: "flux must be finite, got inf"
        with pytest.raises(InvalidRange, match=f"^h must be finite and strictly positive, got {h}$"):
            current_by_finite_difference(ring_with(3, 0.0), 0.1, h=h)

    @pytest.mark.parametrize("f, error", [(math.nan, InvalidRange), (math.inf, InvalidRange),
                                          (-math.inf, InvalidRange), (1e17, WindowTooSmall),
                                          (-1e17, WindowTooSmall), (1e12, WindowTooSmall)])
    def test_flux_it_cannot_fill_refused(self, f, error):
        # unchecked, 1e17, NaN and inf give -6e17, NaN and -inf, where J is 0 or undefined
        with pytest.raises(error):
            current_by_finite_difference(ring_with(3, 0.0), f)

    def test_wrapped_branch_agrees_with_closed_form(self):
        # one zone over: the filling shifts but the current must repeat
        ring = ring_with(5, 0.0)
        j = current_by_finite_difference(ring, 1.2, h=1e-6)
        assert j == pytest.approx(persistent_current(ring, 1.2), abs=1e-10)


class TestSignatureByFiniteDifference:
    def test_odd_commutative(self):
        lam, sig = signature_by_finite_difference(ring_with(3, 0.0), 0.1, h=1e-7)
        assert abs(lam) <= 1e-6
        assert sig == pytest.approx(300.0, rel=1e-6)

    def test_even_commutative(self):
        lam, sig = signature_by_finite_difference(ring_with(4, 0.0), 0.1, h=1e-7)
        assert lam == pytest.approx(-400.0, rel=1e-6)
        assert abs(sig) <= 1e-6

    def test_odd_noncommutative(self):
        ring = ring_with(3, 1e-5)
        lam, sig = signature_by_finite_difference(ring, 0.01, h=1e-7)
        assert lam == pytest.approx(lambda_signature(ring, 0.01), rel=1e-6)
        assert sig == pytest.approx(sigma_signature(ring, 0.01), rel=1e-6)

    def test_f_nc_shift_is_linear(self):
        # closed forms are linear in f_nc: the lambda difference between
        # two rings is -2 N (f_nc_a - f_nc_b) / f^2
        a = ring_with(3, 1e-5)
        b = ring_with(3, 0.0)
        f = 0.05
        expected = -2.0 * 3 * (a.f_nc - b.f_nc) / f**2
        assert lambda_signature(a, f) - lambda_signature(b, f) == pytest.approx(
            expected, rel=1e-12
        )

    def test_zone_boundary_guard(self):
        with pytest.raises(NearDegeneracy):
            signature_by_finite_difference(ring_with(3, 0.0), 0.4999999, h=1e-6)

    def test_flux_must_clear_step(self):
        with pytest.raises(ValueError):
            signature_by_finite_difference(ring_with(3, 0.0), 1e-8, h=1e-7)

    @pytest.mark.parametrize("n, f_nc, f_lo",
                             [(3, 0.0, 1e-3), (3, 1e-5, 1e-3), (4, 0.0, 1e-3), (4, 1e-2, 0.02),
                              (7, 0.3, 1e-3)])
    def test_array_call_equals_scalar_calls(self, n, f_nc, f_lo):
        ring = ring_with(n, f_nc)
        f = np.geomspace(f_lo, 0.19, 57)
        h = np.maximum(1e-7, 1e-4 * f)
        lam, sig = signature_by_finite_difference(ring, f, h=h)
        pairs = [signature_by_finite_difference(ring, float(x), h=float(y)) for x, y in zip(f, h)]
        assert type(pairs[0][0]) is float and type(pairs[0][1]) is float
        assert lam.tolist() == [p[0] for p in pairs]
        assert sig.tolist() == [p[1] for p in pairs]

    def test_array_call_refuses_any_point_near_a_crossing(self):
        f = np.array([0.1, 0.2, 0.4999999, 0.3])
        with pytest.raises(NearDegeneracy, match="within 10h of a level crossing"):
            signature_by_finite_difference(ring_with(3, 0.0), f, h=1e-6)
        with pytest.raises(InvalidRange, match="need f - h > 0"):
            signature_by_finite_difference(ring_with(3, 0.0), np.array([0.1, 1e-8]), h=1e-7)


class TestSweeps:
    def test_zone_grid_is_interior(self):
        grid = zone_flux_grid(101)
        assert len(grid) == 101
        assert grid[0] > -1.0 and grid[-1] < 1.0

    def test_boundary_distance(self):
        ring = ring_with(3, 0.0)
        assert boundary_distance(ring, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert boundary_distance(ring, 0.25) == pytest.approx(0.25)
        even = ring_with(4, 0.0)
        assert boundary_distance(even, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert boundary_distance(even, 0.75) == pytest.approx(0.25)

    @pytest.mark.parametrize("n_electrons", [3, 4])
    def test_boundary_distance_array_matches_scalar(self, n_electrons):
        ring = ring_with(n_electrons, 0.01)
        grid = zone_flux_grid(101)
        d = boundary_distance(ring, grid)
        assert isinstance(boundary_distance(ring, 0.3), float)
        assert d.tolist() == [boundary_distance(ring, float(f)) for f in grid]

    # the `verify --quick` sweeps; the filling kernel fills one row per flux, and the
    # 18 of 1488 filling fluxes on a level crossing are not checked
    def test_ground_state_sweep_small(self):
        result = ground_state_sweep(quick=True)
        assert result.passed, result.summary()
        assert (result.n_points, result.rows_filled) == (1470, 1488)

    def test_current_sweep_small(self):
        result = current_sweep(quick=True)
        assert result.passed, result.summary()
        assert (result.n_points, result.rows_filled) == (1470, 1488)

    def test_signature_sweep_small(self):
        # two signatures per flux; an even ring's fluxes at or below f_nc are not filled
        result = signature_sweep(quick=True)
        assert result.passed, result.summary()
        assert (result.n_points, result.rows_filled) == (168, 84)

    def test_sweep_over_no_points_fails(self):
        # both fluxes sit on a level crossing of the one-electron ring: filled, not checked
        result = oracle._sweep("empty", 1e-12, (1,), (0.0,), lambda ring: np.array([0.5, -0.5]),
                               persistent_current, oracle._exact_current)
        assert (result.n_points, result.rows_filled) == (0, 2)
        assert not result.passed
        assert result.summary().endswith("over 0 points, worst at N=0, f_nc=0, f=0  [FAIL]")

    @pytest.mark.parametrize("n_flux", [0, -1, -5])
    def test_n_flux_must_be_positive(self, n_flux):
        # unchecked, 0 and -1 gave an empty grid and -5 numpy's untyped ValueError
        with pytest.raises(InvalidRange, match=f"^n_flux must be at least 1, got {n_flux}$"):
            zone_flux_grid(n_flux)

    def test_n_flux_must_be_an_integer(self):
        with pytest.raises(InvalidRange, match="n_flux must be an integer, got 2.5"):
            zone_flux_grid(2.5)


class TestCrossings:
    """The sweeps drop a flux whose N-th and (N+1)-th filled levels tie; that
    keeps exactly the fluxes that the model's zone reduction places off a
    level crossing."""

    @pytest.mark.parametrize("n_values, f_nc_values, grid, dropped_points", [
        (oracle.FILLING_N[0], oracle.FILLING_F_NC, zone_flux_grid(oracle.FILLING_POINTS[0]), 30),
        (oracle.FILLING_N[1], oracle.FILLING_F_NC, zone_flux_grid(oracle.FILLING_POINTS[1]), 18),
        (oracle.SIGNATURE_N, oracle.SIGNATURE_F_NC,
         np.geomspace(*oracle.SIGNATURE_SPAN, oracle.SIGNATURE_POINTS[0]), 0),
        (oracle.SIGNATURE_N, oracle.SIGNATURE_F_NC,
         np.geomspace(*oracle.SIGNATURE_SPAN, oracle.SIGNATURE_POINTS[1]), 0),
        (range(1, 61), (*oracle.FILLING_F_NC, 0.125, 0.2, 0.49), None, 1380),  # exact crossings
    ])
    def test_tie_test_keeps_what_boundary_distance_keeps(self, n_values, f_nc_values, grid,
                                                          dropped_points):
        dropped = 0
        for n in n_values:
            for f_nc in f_nc_values:
                ring = ring_with(n, f_nc)
                f = grid
                if grid is None:  # crossings at x = f - f_nc = +-1/2, +-3/2 (odd N) or 0, +-1
                    x = np.array([-1.5, -0.5, 0.5, 1.5] if n % 2 else [-1.0, 0.0, 1.0])
                    x = np.concatenate((x, x + 0.25))  # and points a quarter flux past them
                    f = ring.f_nc + x
                    f = f[f - ring.f_nc == x]  # where x is exact, the crossing is exact
                kept, _ = oracle._occupation_sums(ring, f)
                assert kept.tolist() == f[boundary_distance(ring, f) > 0.0].tolist(), (n, f_nc)
                dropped += len(f) - len(kept)
        assert dropped == dropped_points


def rational_reference(closed, n, f_nc, f, occupied):
    """The exact values that the sweep of `closed` compares with, in Fraction arithmetic."""
    x = f - f_nc
    if closed is ground_state_energy:
        return [sum((k + x) ** 2 for k in occupied) - Fraction(3, 4) * n * f_nc**2]
    if closed is persistent_current:
        return [-2 * sum(k + x for k in occupied)]
    a = -2 * sum(k - f_nc for k in occupied)  # J = a - 2 N f, so J/f = a/f - 2 N
    return [-a / f**2, (n - a) / f**2]  # d(J/f)/df and d((J - N)/f)/df


class TestExactReferences:
    """Each sweep compares its closed form with an exact E, J or pair of
    signatures on the occupation `_fill` chooses, evaluated by error-free
    transformations."""

    @pytest.mark.parametrize("sweep, reference, closed", [
        (ground_state_sweep, "_exact_energy", ground_state_energy),
        (current_sweep, "_exact_current", persistent_current),
        (signature_sweep, "_exact_signatures", signature_columns),
    ])
    def test_reference_matches_rational_arithmetic(self, monkeypatch, sweep, reference, closed):
        # every point of the quick sweep, against Fraction sums over the filled levels;
        # the references are within a few u^2 = 1.2e-32 relative, bounded here by 1e-30
        blocks = []
        exact = getattr(oracle, reference)

        def record(n, f_nc, f, sums):
            blocks.append((n, f_nc, f, exact(n, f_nc, f, sums)))
            return blocks[-1][-1]

        monkeypatch.setattr(oracle, reference, record)
        result = sweep(quick=True)
        assert result.passed
        checked = 0
        for n, f_nc, f, (hi, lo) in blocks:
            for value in np.unique(f_nc):
                ring, at = ring_with(n, float(value)), f_nc == value
                _, order, levels = oracle._fill(ring, f[at])
                columns = [np.reshape(part, (at.sum(), -1)).tolist()
                           for part in (hi[at], lo[at], closed(ring, f[at]))]
                for fb, occupied, *row in zip(f[at].tolist(), levels[order].tolist(), *columns):
                    truth = rational_reference(closed, n, Fraction(ring.f_nc), Fraction(fb),
                                               occupied)
                    for t, h, l, c in zip(truth, *row, strict=True):
                        assert abs(Fraction(h) + Fraction(l) - t) <= 1e-30 * max(1.0, abs(c))
                        checked += 1
        assert checked == result.n_points

    @pytest.mark.parametrize("sweep, name", [
        (ground_state_sweep, "ground_state_energy"),
        (current_sweep, "persistent_current"),
        (signature_sweep, "lambda_signature"),
        (signature_sweep, "sigma_signature"),
    ])
    @pytest.mark.parametrize("shift, passes", [(10.0, False), (0.1, True)])
    def test_sweep_resolves_its_tolerance(self, monkeypatch, sweep, name, shift, passes):
        # a closed form off by 10 tol fails its sweep; one off by tol / 10 passes
        closed = getattr(oracle, name)
        tol = sweep(quick=True).tol

        def shifted(ring, f):
            value = closed(ring, f)
            return value + shift * tol * np.maximum(1.0, np.abs(value))

        monkeypatch.setattr(oracle, name, shifted)
        result = sweep(quick=True)
        assert result.passed is passes, result.summary()
