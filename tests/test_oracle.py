"""Brute-force oracle: level filling, finite differences, sweep agreement."""

import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncring.cli import main
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
    current_by_finite_difference,
    current_sweep,
    ground_state_by_filling,
    ground_state_sweep,
    signature_by_finite_difference,
    signature_sweep,
    zone_filling,
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


def fill_one(ring: RingSystem, f) -> tuple[np.ndarray, ...]:
    """The kernel's one-N case, as the scalar oracles call it: (levels, occupied, sums)."""
    return next(oracle._fill(ring.f_nc, np.asarray(f, dtype=float), (ring.n_electrons,)))


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

    @given(case=filling_cases())
    @settings(max_examples=100, deadline=None)
    def test_batched_rows(self, case):
        # the sweeps fill a whole flux array at once: each row must be the
        # reference filling of its own point, and a batch fails iff a point does
        ring, fluxes = case
        f = np.array(fluxes)
        fills = [outcome(reference_filling, ring, v) for v in fluxes]
        if WindowTooSmall in fills:
            assert outcome(fill_one, ring, f) is WindowTooSmall
        else:
            levels, occupied, _ = fill_one(ring, f)
            rows = [(tuple(o[:-1].tolist()), math.fsum(e[:-1].tolist()).hex())
                    for o, e in zip(occupied, levels)]
            assert rows == fills

    @given(case=filling_cases(reach=3.0))  # every flux within 3 of zero fills
    @settings(max_examples=100, deadline=None)
    def test_levels_are_model_eigenenergies(self, case):
        # squares are correctly rounded products, so each level is the model's bit for bit
        ring, fluxes = case
        f = np.array(fluxes)
        levels, occupied, _ = fill_one(ring, f)
        expected = eigenenergy(ring, occupied, f[:, None])
        assert [v.hex() for v in levels.flat] == [v.hex() for v in expected.flat]


def model_functions():
    """The names of the `ncring.model` functions that `oracle` imports."""
    return {name for name, value in vars(oracle).items()
            if inspect.isfunction(value) and value.__module__ == "ncring.model"}


class TestOracleIndependence:
    @pytest.fixture(autouse=True)
    def refuse_model_functions(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle called a model function")

        for name in model_functions():
            monkeypatch.setattr(oracle, name, refuse)

    def test_oracles_never_call_the_closed_forms(self):
        ring = ring_with(7, 0.01)
        fill = ground_state_by_filling(ring, 0.13)
        assert len(fill.occupied) == 7
        assert current_by_finite_difference(ring, 0.13) == pytest.approx(-14 * 0.12, rel=1e-9)
        f = zone_flux_grid(31)
        assert fill_one(ring, f)[1][:, :-1].shape == (31, 7)
        lam, sig = signature_by_finite_difference(ring, 0.13)
        assert lam == pytest.approx(-14 * ring.f_nc / 0.13**2, rel=1e-6)
        assert sig == pytest.approx(7 * (1 - 2 * ring.f_nc) / 0.13**2, rel=1e-6)
        f = np.geomspace(1e-3, 0.4, 15)
        lam, sig = signature_by_finite_difference(ring, f, h=1e-4 * f)
        assert lam == pytest.approx(-14 * ring.f_nc / f**2, rel=1e-6)
        assert sig == pytest.approx(7 * (1 - 2 * ring.f_nc) / f**2, rel=1e-6)

    def test_exact_references_never_call_the_closed_forms(self):
        # the sweeps' reference side: fill, crossing test and occupation sums, then
        # exact E, J and signatures; 0.51 + f_nc is a level crossing and is dropped
        ring = ring_with(7, 0.01)
        filled = oracle._filling((7,), (0.01,), lambda ring: np.array([0.13, 0.51, -0.2]))
        f, sums = filled.f, filled.sums
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


# each sweep's tolerance, the names of its closed forms and of its exact reference in `oracle`
SWEEPS = {
    ground_state_sweep: (oracle.GROUND_STATE_TOL, ("ground_state_energy",), "_exact_energy"),
    current_sweep: (oracle.CURRENT_TOL, ("persistent_current",), "_exact_current"),
    signature_sweep: (oracle.SIGNATURE_TOL, ("lambda_signature", "sigma_signature"),
                      "_exact_signatures"),
}


def small_filling(sweep) -> oracle.Filling:
    """A small filling of `sweep`'s kind: N = 1..12 on a 31-point zone grid, or the
    signature rings on a 15-point log grid, an even ring's points at or below f_nc left out."""
    if sweep is signature_sweep:
        grid = np.geomspace(*oracle.SIGNATURE_SPAN, 15)
        return oracle._filling(oracle.SIGNATURE_N, oracle.SIGNATURE_F_NC, lambda ring:
                               grid[grid > ring.f_nc] if ring.parity == "even" else grid)
    return oracle._filling(range(1, 13), oracle.FILLING_F_NC, lambda ring: zone_flux_grid(31))


def small_sweep(sweep) -> oracle.SweepResult:
    """`sweep`'s comparison over `small_filling(sweep)`, through `oracle._sweep`; the closed
    forms and the exact reference are read from `oracle` at call time, as `sweep` reads them."""
    tol, names, reference = SWEEPS[sweep]

    def closed(ring, f):
        values = [getattr(oracle, name)(ring, f) for name in names]
        return values[0] if len(values) == 1 else np.column_stack(values)

    return oracle._sweep(sweep.__name__, tol, small_filling(sweep), closed,
                         getattr(oracle, reference))


class TestSweepIndependence:
    @pytest.mark.parametrize("sweep, checked", [
        (ground_state_sweep, {"ground_state_energy"}),
        (current_sweep, {"persistent_current"}),
        (signature_sweep, {"lambda_signature", "sigma_signature"}),
    ])
    def test_sweep_calls_no_model_function_but_its_closed_form(self, monkeypatch, sweep,
                                                                 checked):
        # the oracle imports from the model only the ring record and the four closed
        # forms; each is refused except those this sweep checks
        imported = {name for name, value in vars(oracle).items()
                    if getattr(value, "__module__", None) == "ncring.model"}
        assert imported == {"RingSystem", "ground_state_energy", "persistent_current",
                            "lambda_signature", "sigma_signature"}
        assert model_functions() == imported - {"RingSystem"}

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep called a model function it does not check")

        for name in model_functions() - checked:
            monkeypatch.setattr(oracle, name, refuse)
        result = sweep()
        assert result.passed, result.summary()
        assert result.n_points == (450 if sweep is signature_sweep else 24210)


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

    def test_empty_flux_array_gives_empty_arrays(self):
        # the fill's boundary check once took the max of an empty block: numpy's untyped
        # ValueError "zero-size array to reduction operation maximum"
        lam, sig = signature_by_finite_difference(ring_with(3, 0.0), np.array([]), h=1e-7)
        assert (lam.shape, sig.shape) == ((0,), (0,))

    def test_step_array_holding_zero_refused(self):
        with pytest.raises(InvalidRange, match="^h must be strictly positive$"):
            signature_by_finite_difference(ring_with(3, 0.0), np.array([0.1, 0.2]),
                                           h=np.array([1e-7, 0.0]))

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

    # the ground-state and current sweeps' counts are pinned by test_acceptance.py's
    # criteria 2 and 3: 30 of their 24240 filled fluxes sit on a level crossing
    def test_signature_sweep(self):
        # two signatures per flux; an even ring's fluxes at or below f_nc are not filled
        result = signature_sweep()
        assert result.passed, result.summary()
        assert (result.n_points, result.rows_filled) == (450, 225)

    def test_sweep_over_no_points_fails(self):
        # both fluxes sit on a level crossing of the one-electron ring: filled, not checked
        filled = oracle._filling((1,), (0.0,), lambda ring: np.array([0.5, -0.5]))
        result = oracle._sweep("empty", 1e-12, filled, persistent_current,
                               oracle._exact_current)
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


class TestZoneFilling:
    """The ground-state and current sweeps of one `verify` compare against one fill."""

    def test_verify_sorts_once_per_f_nc_and_fluxes(self, monkeypatch, capsys):
        # the 240 zone rings, filled once for both sweeps, sort once per f_nc; the 6
        # signature rings sort 4 times, since at f_nc = 1e-2 the even ring's log grid
        # leaves out the points at or below f_nc and the odd ring's does not
        sorts, per_fill = [], []
        argsort, filling = np.argsort, oracle._filling

        def counted(*args, **kwargs):
            sorts.append(args[0].shape)
            return argsort(*args, **kwargs)

        def fill(*args):
            before = len(sorts)
            filled = filling(*args)
            per_fill.append((len(filled.rings), len(sorts) - before))
            return filled

        monkeypatch.setattr(np, "argsort", counted)
        monkeypatch.setattr(oracle, "_filling", fill)
        assert main(["verify"]) == 0
        assert per_fill == [(240, 4), (6, 4)]
        assert sorts[:4] == [(oracle.FILLING_POINTS, 2 * (60 // 2 + 5) + 1)] * 4

    @pytest.mark.parametrize("sweep", [ground_state_sweep, current_sweep])
    def test_shared_filling_gives_the_sweep_result(self, sweep):
        assert sweep(filled=zone_filling()) == sweep()


# ---------------------------------------------------------------------------
# the per-ring fill, one sort over each ring's own window, kept as the reference for
# the one sort per (f_nc, fluxes) group that `_filling` makes


def reference_ring_fill(ring: RingSystem, f: np.ndarray, spare: int = 0) -> tuple:
    """(levels, order, n): the ring's levels in its own window, m = N // 2 + 5, in
    tie-break column order, the first N + spare columns of their stable argsort, and
    the columns' quantum numbers."""
    n_el = ring.n_electrons
    m = n_el // 2 + 5
    if not np.isfinite(f).all():
        raise InvalidRange(f"flux must be finite, got {f[~np.isfinite(f)][0]}")
    x = f - ring.f_nc
    if (far := np.abs(x) >= m).any():
        raise WindowTooSmall(
            f"flux {f[far][0]} lies {m} or more from f_nc; shift it toward f_nc by whole quanta"
        )
    k = np.arange(2 * m + 1)
    n = (k + 1) // 2 * (1 - 2 * (k % 2))
    u = n + x[:, None]
    levels = u * u - 0.75 * ring.f_nc**2
    order = np.argsort(levels, axis=1, kind="stable")[:, :n_el + spare]
    if order[:, :n_el].max(initial=0) >= 2 * m - 1:
        raise WindowTooSmall(
            f"filling touches the enumeration boundary +-{m}; shift f toward f_nc by whole quanta"
        )
    return levels, order, n


def reference_occupation_sums(ring: RingSystem, f: np.ndarray) -> tuple:
    """The fluxes of `f` off a level crossing and the (2, kept) S1, S2 filled at them."""
    levels, order, n = reference_ring_fill(ring, f, spare=1)
    edge = levels[np.arange(len(f))[:, None], order[:, -2:]]
    off = edge[:, 0] != edge[:, 1]
    occupied = n[order[off, :-1]]
    return f[off], np.stack((occupied.sum(axis=1), (occupied**2).sum(axis=1))).astype(float)


def reference_ring_filling(n_values, f_nc_values, points) -> oracle.Filling:
    """`oracle._filling` with one fill per ring, in ring order."""
    rings = [ring_with(n, f_nc) for n in n_values for f_nc in f_nc_values]
    fluxes = [points(ring) for ring in rings]
    kept, sums = zip(*map(reference_occupation_sums, rings, fluxes))
    counts = [len(k) for k in kept]
    return oracle.Filling(tuple(zip(rings, kept)),
                          np.repeat([float(ring.n_electrons) for ring in rings], counts),
                          np.repeat([ring.f_nc for ring in rings], counts),
                          np.concatenate(kept), np.concatenate(sums, axis=1),
                          sum(map(len, fluxes)))


def assert_same_filling(filled: oracle.Filling, expected: oracle.Filling) -> None:
    for name in ("n", "f_nc", "f", "sums"):
        got, want = getattr(filled, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert filled.rows == expected.rows
    assert len(filled.rings) == len(expected.rings)
    for (ring, kept), (want_ring, want_kept) in zip(filled.rings, expected.rings):
        assert ring == want_ring
        assert kept.dtype == want_kept.dtype and np.array_equal(kept, want_kept)


def filling_outcome(build, *args):
    """The filling, or the type and message of the error it raises."""
    try:
        return build(*args)
    except (InvalidRange, WindowTooSmall) as exc:
        return type(exc), str(exc)


@st.composite
def ring_sets(draw):
    """`_filling` arguments: a set of N in 1..60, one to three f_nc in [0, 1/2), and
    per ring drawn fluxes plus the exact crossing 1/2 + f_nc and, for even N, f_nc (-1/2
    + f_nc for odd N), so an odd and an even ring of one f_nc sort apart on flux arrays
    of one length.  At times a ring also gets a flux m or more from f_nc, m of the
    smallest N of its parity, or a non-finite one; drawn fluxes out to 7, or from 4.3 to
    5.3 where the odd and then the even fillings reach the window's edge, fail some
    rings and not others."""
    n_values = draw(st.lists(st.integers(1, 60), min_size=1, max_size=6, unique=True))
    f_nc_values = draw(st.lists(
        st.one_of(st.sampled_from(oracle.FILLING_F_NC), st.floats(0.0, 0.5, exclude_max=True)),
        min_size=1, max_size=3, unique=True))
    reach = draw(st.sampled_from([1.0, 7.0]))
    edge = st.one_of(st.floats(4.3, 5.3), st.floats(-5.3, -4.3))
    drawn = draw(st.lists(st.one_of(st.floats(-reach, reach), edge), max_size=8))
    far = draw(st.one_of(st.none(), st.floats(0.0, 1.0), st.floats(0.0, 30.0),
                         st.sampled_from([math.nan, math.inf])))
    side = draw(st.sampled_from([-1.0, 1.0]))

    def points(ring):
        even = ring.parity == "even"
        f = [*drawn, 0.5 + ring.f_nc, ring.f_nc if even else -0.5 + ring.f_nc]
        if far is not None:
            m = min(n for n in n_values if n % 2 == ring.n_electrons % 2) // 2 + 5
            f.append(ring.f_nc + side * (m + far))
        return np.array(f)

    return n_values, f_nc_values, points


class TestSharedSort:
    """`_filling` sorts the rings of one f_nc and one flux array once, over the window
    of their largest N; every ring gets the per-ring fill's rows and sums."""

    def test_zone_filling_matches_the_per_ring_fill(self):
        grid = zone_flux_grid(oracle.FILLING_POINTS)
        expected = reference_ring_filling(oracle.FILLING_N, oracle.FILLING_F_NC,
                                          lambda ring: grid)
        assert_same_filling(zone_filling(), expected)

    def test_signature_fill_matches_the_per_ring_fill(self, monkeypatch):
        made = []
        filling = oracle._filling

        def record(*args):
            made.append((args, filling(*args)))
            return made[-1][1]

        monkeypatch.setattr(oracle, "_filling", record)
        assert signature_sweep().passed
        [(args, filled)] = made
        assert_same_filling(filled, reference_ring_filling(*args))

    def test_the_first_ring_to_fail_raises(self):
        # filling stops at about 4.5 from f_nc for odd N, 5 for even N: at f = -4.8 ring
        # (4, 0) fills, then (4, 0.3) and (3, 0) fail, in that ring order; the group of
        # f_nc = 0 is filled first and fails at (3, 0), but (4, 0.3) raises
        with pytest.raises(WindowTooSmall, match=r"^filling touches the enumeration boundary \+-7;"):
            oracle._filling((4, 3), (0.0, 0.3), lambda ring: np.array([0.1, -4.8]))
        with pytest.raises(WindowTooSmall, match=r"^filling touches the enumeration boundary \+-6;"):
            oracle._filling((4, 3), (0.0,), lambda ring: np.array([0.1, -4.8]))

    @given(case=ring_sets())
    @settings(max_examples=200, deadline=None)
    def test_shared_sort_matches_the_per_ring_fill(self, case):
        # the same kept rows and sums, or the error of the first ring that fails
        got, expected = (filling_outcome(build, *case)
                         for build in (oracle._filling, reference_ring_filling))
        if isinstance(expected, tuple) or isinstance(got, tuple):
            assert got == expected
        else:
            assert_same_filling(got, expected)


class TestCrossings:
    """The sweeps drop a flux whose N-th and (N+1)-th filled levels tie; that
    keeps exactly the fluxes whose offset x = f - f_nc, reduced to the zone of
    the ring's parity, lies off a level crossing: |x| < 1/2 for odd N, x > 0
    for even N."""

    @pytest.mark.parametrize("n_values, f_nc_values, grid, dropped_points", [
        (oracle.FILLING_N, oracle.FILLING_F_NC, zone_flux_grid(oracle.FILLING_POINTS), 30),
        (range(1, 13), oracle.FILLING_F_NC, zone_flux_grid(31), 18),  # small_filling's
        (oracle.SIGNATURE_N, oracle.SIGNATURE_F_NC,
         np.geomspace(*oracle.SIGNATURE_SPAN, oracle.SIGNATURE_POINTS), 0),
        (oracle.SIGNATURE_N, oracle.SIGNATURE_F_NC, np.geomspace(*oracle.SIGNATURE_SPAN, 15), 0),
        (range(1, 61), (*oracle.FILLING_F_NC, 0.125, 0.2, 0.49), None, 1380),  # exact crossings
    ])
    def test_tie_test_keeps_the_fluxes_off_a_crossing(self, n_values, f_nc_values, grid,
                                                       dropped_points):
        def points(ring):
            if grid is not None:
                return grid
            # crossings at x = f - f_nc = +-1/2, +-3/2 (odd N) or 0, +-1 (even N)
            x = np.array([-1.5, -0.5, 0.5, 1.5] if ring.parity == "odd" else [-1.0, 0.0, 1.0])
            x = np.concatenate((x, x + 0.25))  # and points a quarter flux past them
            f = ring.f_nc + x
            return f[f - ring.f_nc == x]  # where x is exact, the crossing is exact

        filled = oracle._filling(n_values, f_nc_values, points)
        for ring, kept in filled.rings:
            f = points(ring)
            x = f - ring.f_nc
            off = np.abs(x - np.rint(x)) < 0.5 if ring.parity == "odd" else x - np.floor(x) > 0.0
            assert kept.tolist() == f[off].tolist(), (ring.n_electrons, ring.f_nc)
        assert filled.rows - len(filled.f) == dropped_points


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
        # every point of the small sweep, against Fraction sums over the filled levels;
        # the references are within a few u^2 = 1.2e-32 relative, bounded here by 1e-30
        calls = []
        exact = getattr(oracle, reference)

        def record(n, f_nc, f, sums):
            calls.append((n, f_nc, f, exact(n, f_nc, f, sums)))
            return calls[-1][-1]

        monkeypatch.setattr(oracle, reference, record)
        result = small_sweep(sweep)
        assert result.passed
        n, f_nc, f, hi, lo = (np.concatenate(part) for part in
                              zip(*((n, f_nc, f, *pair) for n, f_nc, f, pair in calls)))
        checked = 0
        for group in np.unique(np.column_stack((n, f_nc)), axis=0):  # one (N, f_nc) ring each
            at = (n == group[0]) & (f_nc == group[1])
            ring = ring_with(int(group[0]), float(group[1]))
            occupied = fill_one(ring, f[at])[1][:, :-1]
            columns = [np.reshape(part, (at.sum(), -1)).tolist()
                       for part in (hi[at], lo[at], closed(ring, f[at]))]
            for fb, occupied, *row in zip(f[at].tolist(), occupied.tolist(), *columns):
                truth = rational_reference(closed, ring.n_electrons, Fraction(ring.f_nc),
                                           Fraction(fb), occupied)
                for t, h, l, c in zip(truth, *row, strict=True):
                    assert abs(Fraction(h) + Fraction(l) - t) <= 1e-30 * max(1.0, abs(c))
                    checked += 1
        assert checked == result.n_points == (168 if sweep is signature_sweep else 1470)

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
        tol = SWEEPS[sweep][0]

        def shifted(ring, f):
            value = closed(ring, f)
            return value + shift * tol * np.maximum(1.0, np.abs(value))

        monkeypatch.setattr(oracle, name, shifted)
        result = small_sweep(sweep)
        assert result.passed is passes, result.summary()


SWEEP_REFERENCES = [(ground_state_sweep, "_exact_energy"), (current_sweep, "_exact_current"),
                    (signature_sweep, "_exact_signatures")]


class TestBlockPass:
    """`_sweep` calls each exact reference on consecutive blocks of `_BLOCK` kept rows,
    with N one per row, and takes the worst point over all rows at once."""

    @pytest.mark.parametrize("sweep, reference", SWEEP_REFERENCES)
    @pytest.mark.parametrize("small", [False, True])
    def test_blocks_give_the_bits_of_one_call_per_ring(self, monkeypatch, sweep, reference,
                                                        small):
        calls = []
        exact = getattr(oracle, reference)

        def record(n, f_nc, f, sums):
            calls.append((n, f_nc, f, sums, exact(n, f_nc, f, sums)))
            return calls[-1][-1]

        monkeypatch.setattr(oracle, reference, record)
        result = small_sweep(sweep) if small else sweep()
        assert result.passed
        n, f_nc, f, hi, lo = (np.concatenate(part) for part in
                              zip(*((n, f_nc, f, *pair) for n, f_nc, f, _, pair in calls)))
        sums = np.concatenate([call[3] for call in calls], axis=1)
        assert all(len(call[2]) == oracle._BLOCK for call in calls[:-1])
        if sweep is not signature_sweep and not small:
            # a block boundary falls inside the rows of one N
            assert any(a[0][-1] == b[0][0] for a, b in zip(calls, calls[1:]))
        covered = 0
        for group_n, group_f_nc in np.unique(np.column_stack((n, f_nc)), axis=0):
            at = (n == group_n) & (f_nc == group_f_nc)  # one (N, f_nc) ring, a scalar N
            group_hi, group_lo = exact(int(group_n), f_nc[at], f[at], sums[:, at])
            assert np.array_equal(group_hi, hi[at]) and np.array_equal(group_lo, lo[at])
            covered += at.sum()
        assert covered == len(n) == result.n_points // (hi.size // len(n))

    def test_verify_calls_the_exact_references_per_block(self, monkeypatch, capsys):
        # 6 + 6 blocks of the 24210 zone rows and 1 of the signature rows
        made = []
        for _, reference in SWEEP_REFERENCES:
            def counted(*args, exact=getattr(oracle, reference)):
                made.append(exact)
                return exact(*args)

            monkeypatch.setattr(oracle, reference, counted)
        assert main(["verify"]) == 0
        assert len(made) == 13

    @pytest.mark.parametrize("sweep", [ground_state_sweep, current_sweep, signature_sweep])
    def test_small_blocks_give_the_same_result(self, monkeypatch, sweep):
        expected = small_sweep(sweep)
        monkeypatch.setattr(oracle, "_BLOCK", 7)
        assert small_sweep(sweep) == expected

    @pytest.mark.parametrize("column", [0, 1])
    def test_worst_point_is_the_first_row_major_max(self, monkeypatch, column):
        # every row from the third ring on deviates by exactly 1 in one column; the worst
        # point is the first of them, in the second of five-row blocks
        monkeypatch.setattr(oracle, "_BLOCK", 5)
        filled = oracle._filling((3, 4), (0.0, 1e-5), lambda ring: np.geomspace(0.02, 0.4, 4))
        later = [ring for ring, _ in filled.rings[2:]]

        def closed(ring, f):
            value = signature_columns(ring, f)
            if ring in later:
                value[:, column] = 1e300  # (1e300 - hi) - lo rounds to 1e300
            return value

        result = oracle._sweep("tie", 1e-14, filled, closed, oracle._exact_signatures)
        assert (result.max_dev, result.n_points) == (1.0, 32)
        assert result.worst == (4, 0.0, filled.rings[2][1][0])

    def test_nan_deviation_fails_the_sweep(self):
        filled = small_filling(current_sweep)
        result = oracle._sweep("nan", 1e-12, filled,
                               lambda ring, f: np.where(f > 0.5, np.nan, f),
                               oracle._exact_current)
        assert math.isnan(result.max_dev) and not result.passed
        first = int(np.argmax(filled.f > 0.5))
        assert result.worst == (int(filled.n[first]), filled.f_nc[first], filled.f[first])

    @pytest.mark.parametrize("sweep", [ground_state_sweep, current_sweep])
    def test_full_sweep_peak_memory(self, sweep):
        # the blocks bound the exact references' temporaries; one call over all 24210
        # rows peaked at 5.6 MB (energy) and 3.3 MB (current)
        filled = zone_filling()
        tracemalloc.start()
        try:
            sweep(filled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
