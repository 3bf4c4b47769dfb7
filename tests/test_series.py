"""Closed-form kernel machinery against independent high-precision oracles.

Frozen reference values were computed with a 50-digit mpmath evaluation of
the same closed formulas (tests/oracles/highprec.py regenerates them).
"""

import math

import numpy as np
import pytest

from hingedplate import (MaterialParams, Mesh, ObstacleSpec, ScanWindow, SeriesState,
                         analytic_bound_C, antisym_solution, aux_pair,
                         envelope_g, gap_threshold_M, green_value, phi_m,
                         tail_estimate, uniform_load_profile)
from hingedplate.summation import SERIES_CHUNK, CompensatedSum, series_sum
from oracles import highprec

# 50-digit evaluations of the closed forms, truncated to double precision
F_AT_HALF = 1.4803219098300823        # F(0.5), sigma = 0.2
FBAR_AT_HALF = 2.2803219098300823     # Fbar(0.5), sigma = 0.2
PHI3_REF = 6.889768288263896          # c_3(0.01, -0.02), sigma=0.2, l=0.1
C_REF = 8.275152162980941             # closed-form bound, sigma=0.2, l=0.1
M_REF = 0.023879949449088378          # threshold, sigma=0.2, l=0.1, m<=2e5

PARAM_GRID = [MaterialParams(s, l) for s in (0.2, 0.3) for l in (np.pi / 150, 0.1)]


class TestAuxPair:
    def test_gap_is_linear_in_z(self, params):
        # Fbar - F = 2 z (1 - sigma) identically
        for z in (0.25, 1.0, 3.0):
            f, fbar = aux_pair(z, params)
            assert fbar - f == pytest.approx(2.0 * z * (1.0 - params.sigma), rel=1e-14)
        f1, fbar1 = aux_pair(1.0, MaterialParams(0.5, 0.1))
        assert fbar1 - f1 == pytest.approx(1.0, rel=1e-14)

    def test_strictly_positive(self):
        for sigma in (0.05, 0.2, 0.5, 0.95):
            p = MaterialParams(sigma, 0.1)
            for z in np.geomspace(1e-4, 5.0, 40):
                f, fbar = aux_pair(z, p)
                assert f > 0.0
                assert fbar > f

    def test_frozen_value(self, params):
        f, fbar = aux_pair(0.5, params)
        assert f == pytest.approx(F_AT_HALF, rel=1e-15)
        assert fbar == pytest.approx(FBAR_AT_HALF, rel=1e-15)

    def test_rejects_nonpositive(self, params):
        with pytest.raises(ValueError):
            aux_pair(0.0, params)
        with pytest.raises(ValueError):
            aux_pair(-1.0, params)
        with pytest.raises(ValueError, match="argument must be positive, got z=nan"):
            aux_pair(float("nan"), params)


class TestBoundaryKernels:
    def test_edge_envelopes(self):
        # |zeta|,|theta| <= A and |psi|,|omega| <= B along the edge line, for
        # the numerators of phi_m evaluated by the high-precision oracle
        for p in PARAM_GRID:
            s, l = p.sigma, p.half_width
            ch2 = np.cosh(l) ** 2
            a_bound = ((4.0 + (1.0 + s) ** 2) / (1.0 - s) + 2.0 * l * (3.0 + s)) * ch2
            b_bound = (3.0 + s + 4.0 * (1.0 - s) * l) * ch2
            for y in np.linspace(-l, l, 41):
                zeta, theta, psi, omega = highprec.kernels(float(y), l, s)
                assert abs(zeta) <= a_bound
                assert abs(theta) <= a_bound
                assert abs(psi) <= b_bound
                assert abs(omega) <= b_bound


class TestPhiCoefficient:
    def test_positive_and_strictly_decreasing(self):
        for p in PARAM_GRID:
            grid = np.linspace(-p.half_width, p.half_width, 9)
            for eta in grid:
                prev = None
                for m in range(1, 52):
                    val = phi_m(grid, eta, m, p)
                    assert np.all(val > 0.0)
                    if prev is not None:
                        assert np.all(val < prev)
                    prev = val

    def test_symmetric_in_arguments(self, params):
        rng = np.random.default_rng(7)
        for _ in range(30):
            y, eta = rng.uniform(-0.1, 0.1, 2)
            m = int(rng.integers(1, 40))
            a = phi_m(y, eta, m, params)
            b = phi_m(eta, y, m, params)
            assert a == pytest.approx(b, rel=1e-12)

    def test_frozen_value(self, params):
        assert phi_m(0.01, -0.02, 3, params) == pytest.approx(PHI3_REF, rel=1e-13)

    def test_overflow_safe_for_huge_index(self, params):
        # raw cosh/sinh overflow near m*l ~ 350; the scaled form must not
        val = phi_m(0.05, -0.03, 100_000, params)
        assert np.isfinite(val)
        assert 0.0 <= val < 1e-200

    def test_edge_difference_matches_threshold_terms(self, params):
        # c_m(l,l) - c_m(l,-l) == 8 sinh(ml)^2 / ((1-sigma) Fbar(ml)):
        # ties the kernel to the explicit threshold series term by term
        l, sig = params.half_width, params.sigma
        for m in (1, 2, 3, 7, 20, 81):
            lhs = phi_m(l, l, m, params) - phi_m(l, -l, m, params)
            _, fbar = aux_pair(m * l, params)
            rhs = 8.0 * np.sinh(m * l) ** 2 / ((1.0 - sig) * fbar)
            assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_domain_errors(self, params):
        with pytest.raises(ValueError):
            phi_m(0.2, 0.0, 1, params)
        with pytest.raises(ValueError):
            phi_m(0.0, 0.2, 1, params)
        with pytest.raises(ValueError):
            phi_m(0.0, 0.0, 0, params)
        with pytest.raises(ValueError):
            phi_m(0.0, 0.0, np.array([3.0, 1.0, 0.0, 2.0]), params)

    def test_index_axis_matches_scalar_calls_bitwise(self, params):
        l = params.half_width
        m = np.arange(1.0, 301.0)
        ys = np.linspace(-l, l, 5)
        etas = np.array([-l, -0.3 * l, 0.0, 0.7 * l])
        scalar_y = phi_m(0.4 * l, -0.2 * l, m, params)
        assert scalar_y.shape == m.shape
        assert np.array_equal(scalar_y, [phi_m(0.4 * l, -0.2 * l, int(k), params)
                                         for k in m])
        array_y = phi_m(ys, 0.6 * l, m[:, None], params)
        assert array_y.shape == (m.size, ys.size)
        assert np.array_equal(array_y, [phi_m(ys, 0.6 * l, int(k), params)
                                        for k in m])
        array_eta = phi_m(ys[:, None], etas, m[:, None, None], params)
        assert array_eta.shape == (m.size, ys.size, etas.size)
        for k, row in zip(m, array_eta):
            for i, y in enumerate(ys):
                expect = [phi_m(y, e, int(k), params) for e in etas]
                assert np.array_equal(row[i], expect)


class TestSeriesSum:
    """Chunked summation against the per-index loops it replaced."""

    @staticmethod
    def _kahan(terms):
        s = c = 0.0
        for x in terms:
            t = s + x
            c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
            s = t
        return s + c

    @pytest.mark.parametrize("m_max, step", [
        (2 * SERIES_CHUNK + 16, 1),   # not a multiple of the chunk
        (299, 1),                     # shorter than one chunk
        (3 * SERIES_CHUNK + 5, 2),    # odd indices only
    ])
    def test_matches_per_index_loop(self, params, m_max, step):
        l = params.half_width

        def scalar(m):
            return phi_m(0.3 * l, -0.8 * l, m, params) / (m * m * m)

        indices = range(1, m_max + 1, step)
        loop = [float(phi_m(0.3 * l, -0.8 * l, m, params) / m ** 3)
                for m in indices]
        seen = []

        def recorded(m):
            seen.append(m)
            return scalar(m)

        total = series_sum(recorded, m_max, step)
        assert np.array_equal(np.concatenate(seen), list(indices))
        assert max(b.size for b in seen) <= SERIES_CHUNK
        assert total == math.fsum(loop)
        assert total == pytest.approx(self._kahan(loop), rel=1e-15)

        xs = np.linspace(0.0, np.pi, 7)
        seen.clear()

        def grid(m):
            seen.append(m)
            return scalar(m)[:, None] * np.sin(m[:, None] * xs)

        acc = CompensatedSum()
        for m in indices:
            acc.add(float(phi_m(0.3 * l, -0.8 * l, m, params) / m ** 3)
                    * np.sin(m * xs))
        assert np.array_equal(series_sum(grid, m_max, step), acc.value)
        assert np.array_equal(np.concatenate(seen), list(indices))
        # blocks hold at most SERIES_CHUNK term values, not indices
        assert max(b.size for b in seen) * xs.size <= SERIES_CHUNK

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            series_sum(lambda m: m, 0)


class TestGreenValue:
    def test_vanishes_on_short_edges(self, state):
        p = (1.0, 0.05)
        assert green_value(p, (0.0, 0.02), state) == 0.0
        assert green_value((0.0, 0.05), (1.0, 0.02), state) == 0.0
        # x = pi only vanishes up to the roundoff of sin(m*pi)
        assert abs(green_value(p, (np.pi, -0.07), state)) < 1e-12
        assert abs(green_value((np.pi, 0.05), (1.0, 0.02), state)) < 1e-12

    def test_strictly_positive_inside(self, state):
        l = state.params.half_width
        src = np.linspace(0.0, np.pi, 9)[1:-1]
        for xi in src[::2]:
            for eta in (-l, 0.0, l):
                vals = green_value((xi, eta), (src, 0.3 * l), state)
                assert np.all(vals > 0.0)

    def test_reciprocity_within_tail(self, state):
        l = state.params.half_width
        rng = np.random.default_rng(3)
        for _ in range(25):
            p = (rng.uniform(0.1, np.pi - 0.1), rng.uniform(-l, l))
            q = (rng.uniform(0.1, np.pi - 0.1), rng.uniform(-l, l))
            assert abs(green_value(p, q, state) - green_value(q, p, state)) \
                <= 2.0 * state.tail_bound


class TestAntisymSolution:
    def test_zero_on_midline_and_for_centered_pair(self, state):
        assert antisym_solution((1.3, 0.07), (2.0, 0.0), state) == 0.0
        assert antisym_solution((1.3, 0.0), (2.0, 0.05), state) == 0.0

    def test_odd_in_y_and_in_eta(self, state):
        load = (np.pi / 2, 0.06)
        flipped = (np.pi / 2, -0.06)
        q = (1.1, 0.08)
        v = antisym_solution(load, q, state)
        assert antisym_solution(load, (1.1, -0.08), state) == pytest.approx(-v, rel=1e-13)
        assert antisym_solution(flipped, q, state) == pytest.approx(-v, rel=1e-13)

    def test_matches_antisymmetrized_green(self, state):
        l = state.params.half_width
        q = (np.pi / 2, l)
        direct = antisym_solution((np.pi / 2, l), q, state)
        split = 0.5 * (green_value((np.pi / 2, l), q, state)
                       - green_value((np.pi / 2, -l), q, state))
        assert direct == pytest.approx(split, rel=1e-12)

    def test_broadcast_over_sites_equals_per_site_calls(self, state):
        l = state.params.half_width
        xi = np.linspace(0.0, np.pi, 9)
        eta = np.linspace(-l, l, 5)
        xs = np.linspace(0.0, np.pi, 17)
        for y in (l, 0.3 * l):
            grid = antisym_solution((xi[:, None, None], eta[None, :, None]),
                                    (xs, y), state)
            assert grid.shape == (9, 5, 17)
            per_site = [[antisym_solution((a, e), (xs, y), state) for e in eta]
                        for a in xi]
            assert np.array_equal(grid, per_site)

    def test_vectorized_scan_agrees_with_pointwise(self, state):
        from hingedplate import edge_gap_series_scan
        l = state.params.half_width
        scan = edge_gap_series_scan(state, nxi=5, neta=5, n_abscissae=9)
        xi, eta = scan["xi_grid"], scan["eta_grid"]
        xs = np.linspace(0.0, np.pi, 9)
        for i in (1, 2, 3):
            for j in (0, 1, 3):
                vals = np.abs([antisym_solution((xi[i], eta[j]), (x, l), state)
                               for x in xs])
                assert scan["per_site"][i, j] == pytest.approx(
                    float(np.max(vals)), rel=1e-11, abs=1e-15)


class TestUniformLoadProfile:
    def test_vanishes_on_short_edges(self, state):
        assert uniform_load_profile((0.0, 0.03), state) == 0.0
        assert abs(uniform_load_profile((np.pi, -0.03), state)) < 1e-12

    def test_positive_inside(self, state):
        l = state.params.half_width
        xs = np.linspace(0.0, np.pi, 15)[1:-1]
        for y in (-l, -l / 3, 0.0, l):
            assert np.all(uniform_load_profile((xs, y), state) > 0.0)

    def test_matches_2d_quadrature_of_green(self, state):
        # independent oracle: tensor Gauss-Legendre over the whole plate
        l = state.params.half_width
        q = (np.pi / 2, 0.0)
        nx, wx = np.polynomial.legendre.leggauss(40)
        ne, we = np.polynomial.legendre.leggauss(16)
        xi = (nx + 1.0) * np.pi / 2.0
        wxi = wx * np.pi / 2.0
        acc = 0.0
        for e, w_e in zip(ne * l, we * l):
            vals = np.array([green_value((a, e), q, state) for a in xi])
            acc += w_e * float(wxi @ vals)
        direct = uniform_load_profile(q, state)
        assert direct == pytest.approx(acc, rel=5e-7)


NAN = float("nan")


class TestPointsOffThePlate:
    """Every series evaluation refuses an abscissa outside [0, pi] and a NaN
    coordinate, where the sine series would give the value of its odd
    periodic extension, or NaN."""

    @pytest.mark.parametrize("evaluate", [
        pytest.param(lambda s: green_value((4.0, 0.0), (1.0, 0.0), s), id="green-xi"),
        pytest.param(lambda s: green_value((1.0, 0.0), (4.0, 0.0), s), id="green-x"),
        pytest.param(lambda s: uniform_load_profile((-1.0, 0.0), s), id="profile-x"),
        pytest.param(lambda s: antisym_solution((1.0, 0.05), (5.0, 0.1), s),
                     id="antisym-x"),
        pytest.param(lambda s: antisym_solution((1.0, 0.05), (np.array([1.0, -0.5]), 0.1),
                                                s), id="antisym-x-array"),
    ])
    def test_abscissa_off_the_plate_is_refused(self, state, evaluate):
        with pytest.raises(ValueError, match=r"outside \[0, pi\]"):
            evaluate(state)

    @pytest.mark.parametrize("evaluate", [
        pytest.param(lambda s: green_value((NAN, 0.0), (1.0, 0.0), s), id="green-xi"),
        pytest.param(lambda s: green_value((1.0, NAN), (1.0, 0.0), s), id="green-eta"),
        pytest.param(lambda s: green_value((1.0, 0.0), (NAN, 0.0), s), id="green-x"),
        pytest.param(lambda s: green_value((1.0, 0.0), (1.0, NAN), s), id="green-y"),
        pytest.param(lambda s: uniform_load_profile((NAN, 0.0), s), id="profile-x"),
        pytest.param(lambda s: uniform_load_profile((1.0, NAN), s), id="profile-y"),
        pytest.param(lambda s: antisym_solution((1.0, 0.05), (NAN, 0.1), s),
                     id="antisym-x"),
        pytest.param(lambda s: antisym_solution((1.0, 0.05), (1.0, NAN), s),
                     id="antisym-y"),
        pytest.param(lambda s: phi_m(NAN, 0.0, 1, s.params), id="phi-y"),
        pytest.param(lambda s: phi_m(np.array([0.0, NAN]), 0.0, 1, s.params),
                     id="phi-y-array"),
        pytest.param(lambda s: phi_m(0.0, NAN, 1, s.params), id="phi-eta"),
        pytest.param(lambda s: envelope_g(NAN, s.params), id="envelope-eta"),
    ])
    def test_nan_coordinate_is_refused(self, state, evaluate):
        with pytest.raises(ValueError):
            evaluate(state)

    @pytest.mark.parametrize("x, on_plate", [(-1e-12, True), (np.pi + 1e-12, True),
                                             (-2e-12, False), (np.pi + 2e-12, False)])
    def test_abscissa_slack_is_that_of_the_mesh(self, state, x, on_plate):
        """A point within rounding of a short edge is on the plate for the
        series exactly when it is for ``Mesh.contains``."""
        assert Mesh(16, 4, state.params.half_width).contains(x, 0.0) == on_plate
        calls = [lambda: green_value((x, 0.05), (1.0, 0.0), state),
                 lambda: green_value((1.0, 0.0), (x, 0.05), state),
                 lambda: uniform_load_profile((x, 0.05), state),
                 lambda: antisym_solution((x, 0.05), (1.0, 0.05), state)]
        for call in calls:
            if on_plate:
                assert abs(call()) < 1e-9
            else:
                with pytest.raises(ValueError, match="outside"):
                    call()


class TestThresholdAndBound:
    def test_positive_and_below_closed_bound(self):
        for p in PARAM_GRID:
            value, tail = gap_threshold_M(p, m_max=20_001)
            assert value > 0.0
            assert value + tail <= analytic_bound_C(p)

    def test_truncation_stability(self, params):
        # tail past m is ~(4/pi)/(2(1-s)(3+s)) * 1/(4 m^2): ~6e-8 at m=1e3,
        # so the 1e-9 level needs m_max ~ 1e4
        coarse, _ = gap_threshold_M(params, m_max=1_001)
        mid, _ = gap_threshold_M(params, m_max=10_001)
        fine, _ = gap_threshold_M(params, m_max=100_001)
        assert abs(coarse - fine) <= 1e-7
        assert abs(mid - fine) <= 1e-9

    def test_tail_dominates_truncation(self, params):
        coarse, tail = gap_threshold_M(params, m_max=501)
        fine, _ = gap_threshold_M(params, m_max=200_001)
        assert abs(coarse - fine) <= tail

    def test_frozen_value(self, params):
        value, _ = gap_threshold_M(params, m_max=200_001)
        assert value == pytest.approx(M_REF, rel=1e-12)

    def test_closed_bound_frozen_and_floor(self, params):
        c = analytic_bound_C(params)
        assert c == pytest.approx(C_REF, rel=1e-14)
        for p in PARAM_GRID:
            assert analytic_bound_C(p) > np.pi / 12.0


class TestEnvelope:
    def test_even_and_increasing(self, params):
        l = params.half_width
        etas = np.linspace(0.0, l, 20)
        vals = envelope_g(etas, params)
        assert np.all(np.diff(vals) > 0.0)
        assert envelope_g(-0.07, params) == envelope_g(0.07, params)

    def test_eta_beyond_the_half_width_is_rejected(self, params):
        l = params.half_width
        envelope_g(np.array([-l, l * (1.0 + 1e-13)]), params)  # rounding allowed
        for eta in (1.01 * l, np.array([0.0, -1.01 * l])):
            with pytest.raises(ValueError, match="must not exceed the half-width"):
                envelope_g(eta, params)

    def test_dominates_first_coefficient(self):
        for p in PARAM_GRID:
            grid = np.linspace(-p.half_width, p.half_width, 21)
            for eta in grid:
                assert np.all(phi_m(grid, eta, 1, p) <= envelope_g(eta, p))

    def test_levels_dominate_uniform_profile(self, state):
        # the level l g(l) pi^2/6 bounds the uniform-load deflection, hence
        # every response to a load of sup-norm at most one
        p = state.params
        level = p.half_width * float(envelope_g(p.half_width, p)) * np.pi ** 2 / 6.0
        xs = np.linspace(0.0, np.pi, 33)
        for y in np.linspace(-p.half_width, p.half_width, 9):
            assert np.all(uniform_load_profile((xs, y), state) < level)


class TestTailEstimate:
    def test_monotone_to_zero_with_quartic_halving(self, params):
        prev = np.inf
        for m_max in (10, 20, 40, 80, 160, 10_000):
            bound = tail_estimate(m_max, params)
            assert 0.0 < bound < prev
            prev = bound
        assert tail_estimate(200, params) == pytest.approx(
            tail_estimate(100, params) / 4.0, rel=1e-12)

    def test_bounds_observed_truncation_error(self, params):
        state_lo = SeriesState(params, m_max=100)
        state_hi = SeriesState(params, m_max=100_000)
        l = params.half_width
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = (rng.uniform(0.2, np.pi - 0.2), rng.uniform(-l, l))
            q = (rng.uniform(0.2, np.pi - 0.2), rng.uniform(-l, l))
            err = abs(green_value(p, q, state_lo) - green_value(p, q, state_hi))
            assert err <= state_lo.tail_bound


class TestStateAndWindow:
    def test_series_state_invariants(self, params):
        st = SeriesState(params, m_max=50)
        assert st.tail_bound == tail_estimate(50, params)
        with pytest.raises(ValueError):
            SeriesState(params, m_max=0)

    @pytest.mark.parametrize("m_max", [2.5, 10 ** 400, 2 ** 26, True])
    def test_series_state_rejects_m_max_past_the_index_limit(self, params, m_max):
        # 10**400 overflowed in tail_estimate, and 2.5 failed only once a
        # series was summed; the float index products are exact below 2**26
        with pytest.raises(ValueError):
            SeriesState(params, m_max=m_max)
        assert SeriesState(params, m_max=2 ** 26 - 1).tail_bound > 0.0

    def test_material_params_invariants(self):
        with pytest.raises(ValueError):
            MaterialParams(sigma=1.2, half_width=0.1)
        with pytest.raises(ValueError):
            MaterialParams(sigma=0.2, half_width=2.0)
        with pytest.raises(ValueError):
            MaterialParams(sigma=0.2, half_width=-0.1)

    def test_window_membership(self, params):
        w = ScanWindow.default(params)
        w.validate(params)
        l = params.half_width
        assert bool(w.contains(np.pi / 2, l, params))
        assert bool(w.contains(0.1, -l, params))          # edge band
        assert bool(w.contains(2.0, l / 4, params))       # midline band
        assert not bool(w.contains(1.0, l, params))       # outside all bands
        with pytest.raises(ValueError):
            ScanWindow(z0=2.0, w0=l / 2).validate(params)

    def test_obstacle_region_must_be_known(self):
        with pytest.raises(ValueError, match="unknown obstacle region 'middle'"):
            ObstacleSpec(lower=-1.0, upper=1.0, region="middle")
        with pytest.raises(ValueError, match="unknown obstacle region 'middle'"):
            ObstacleSpec.constant_level(0.5, region="middle")

    def test_nan_guide_level_is_rejected(self):
        """``gamma <= 0`` let NaN through to the generic sign message of
        the bounds."""
        with pytest.raises(ValueError, match="guide level must be positive, got nan"):
            ObstacleSpec.constant_level(float("nan"))

    def test_antisym_delta_validation(self, state):
        antisym_solution((1.0, 0.05), (2.0, 0.05), state)
        with pytest.raises(ValueError, match="outside"):
            antisym_solution((-0.1, 0.05), (2.0, 0.05), state)
        with pytest.raises(ValueError, match="outside"):
            antisym_solution((np.array([1.0, np.pi + 0.1]), 0.05), (2.0, 0.05), state)
        with pytest.raises(ValueError, match="outside"):
            antisym_solution((np.nan, 0.05), (2.0, 0.05), state)
        with pytest.raises(ValueError, match="eta"):
            antisym_solution((1.0, 0.5), (2.0, 0.05), state)
