"""Outer scans: determinism, symmetry of maximizers, regime logic, bounds."""

import numpy as np
import pytest

from hingedplate import (BoxConstraints, DofField, LoadSpec,
                         ObstacleSpec, ReinforcementMask, ScanWindow,
                         SeriesState, analytic_bound_C, best_obstacle,
                         best_reinforcement, classify_regime,
                         edge_gap_series_scan, gap_profile, gap_threshold_M,
                         placement_bound_report, worst_force_amplitude,
                         worst_gap_force)
from hingedplate.fem import assemble_load
from hingedplate.optimize import ForceClass, ObstacleFamily, ReinforcementFamily
from hingedplate.solver import solve_obstacle


@pytest.fixture(scope="module")
def window(params):
    return ScanWindow.default(params)


@pytest.fixture(scope="module")
def small_forces(params, window):
    return ForceClass(kind="antisym-delta", window=window, nxi=17, neta=5)


@pytest.fixture(scope="module")
def threshold(params):
    value, _ = gap_threshold_M(params, m_max=100_001)
    return value


def unreachable_obstacle(params):
    return ObstacleSpec.constant_level(2.0 * analytic_bound_C(params),
                                       region="long_edges")


class TestGapProfile:
    def test_zero_and_even_fields(self, mesh_small):
        zero = DofField.zeros(mesh_small)
        prof = gap_profile(zero)
        assert prof.maximal_gap == 0.0
        even = DofField.zeros(mesh_small)
        for j, y in enumerate(mesh_small.ys):
            for i, x in enumerate(mesh_small.xs):
                even.dofs[4 * mesh_small.node_index(i, j)] = np.sin(x) * np.cos(y)
        assert gap_profile(even).maximal_gap == pytest.approx(0.0, abs=1e-15)

    def test_contact_free_gap_matches_series(self, operator_mid, mesh_mid,
                                             params):
        state = SeriesState(params, m_max=400)
        l = params.half_width
        b = assemble_load(mesh_mid, LoadSpec.antisym_pair(np.pi / 2, l))
        box = BoxConstraints.from_obstacle(mesh_mid, unreachable_obstacle(params))
        sol = solve_obstacle(operator_mid, b, box)
        prof = gap_profile(sol)
        scan = edge_gap_series_scan(state, nxi=3, neta=3, n_abscissae=65)
        # series value at the same site: use the dedicated evaluation
        from hingedplate import antisym_solution, AntisymDelta
        exact = 2.0 * antisym_solution(AntisymDelta(np.pi / 2, l),
                                       (prof.argmax_x, l), state)
        assert prof.maximal_gap == pytest.approx(abs(exact), rel=5e-3)

    def test_argmax_tie_breaks_to_smallest_x(self, mesh_small):
        fld = DofField.zeros(mesh_small)
        top = mesh_small.ny
        for i in (3, 9):  # two equal peaks
            fld.dofs[4 * mesh_small.node_index(i, top)] = 1.0
            fld.dofs[4 * mesh_small.node_index(i, 0)] = -1.0
        prof = gap_profile(fld)
        assert prof.argmax_x == mesh_small.xs[3]


class TestForceClasses:
    def test_antisym_members_have_unit_mass_and_skip_midline(self, params,
                                                             window):
        fc = ForceClass(kind="antisym-delta", window=window, nxi=9, neta=5)
        members = fc.members(params)
        assert members
        for m in members:
            assert m.load.total_point_mass() == pytest.approx(1.0)
            assert dict(m.meta)["eta"] != 0.0

    def test_signed_delta_members_come_in_pairs(self, params):
        fc = ForceClass(kind="signed-delta", nxi=5, neta=3)
        members = fc.members(params)
        assert len(members) == 2 * 5 * 3
        assert all(m.load.total_point_mass() == 1.0 for m in members)

    def test_bang_bang_enumeration_and_cap(self, params):
        fc = ForceClass(kind="bang-bang", cells=(2, 2))
        members = fc.members(params)
        assert len(members) == 16
        xs = np.linspace(0.1, np.pi - 0.1, 7)
        for m in members[:4]:
            vals = m.load.density(xs, 0.0)
            assert np.all(np.abs(vals) == 1.0)
        with pytest.raises(ValueError):
            ForceClass(kind="bang-bang", cells=(5, 4)).members(params)


class TestWorstForceAmplitude:
    def test_plus_minus_symmetric_values(self, mesh_small, params):
        sel = np.ones((mesh_small.ny, mesh_small.nx), dtype=bool)
        mask = ReinforcementMask(sel, alpha=1.0, beta=1.0)
        fc = ForceClass(kind="signed-delta", nxi=5, neta=3)
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.1, region="full"))
        res = worst_force_amplitude(mesh_small, params, mask, fc, box,
                                    variant="E1")
        by_site = {}
        for row in res.rows:
            key = (row["params"]["xi"], row["params"]["eta"])
            by_site.setdefault(key, []).append(row["value"])
        for vals in by_site.values():
            assert vals[0] == vals[1]  # +delta and -delta agree exactly

    def test_scan_dominates_each_member(self, mesh_small, params):
        sel = np.ones((mesh_small.ny, mesh_small.nx), dtype=bool)
        mask = ReinforcementMask(sel, alpha=1.0, beta=1.0)
        fc = ForceClass(kind="signed-delta", nxi=9, neta=5)
        box = BoxConstraints.unbounded(mesh_small)
        res = worst_force_amplitude(mesh_small, params, mask, fc, box,
                                    variant="E1")
        assert all(res.value >= row["value"] for row in res.rows)
        # randomized subset recomputation reproduces the scan rows
        rng = np.random.default_rng(17)
        members = fc.members(params)
        for k in rng.choice(len(members), size=5, replace=False):
            b = assemble_load(mesh_small, members[k].load)
            from hingedplate.solver import PlateOperator
            op = PlateOperator.build(mesh_small, params)
            sol = solve_obstacle(op, b, box)
            assert sol.field.sup_norm() == pytest.approx(
                res.rows[k]["value"], rel=1e-12)

    def test_density_variant_needs_density_class(self, mesh_small, params):
        sel = np.ones((mesh_small.ny, mesh_small.nx), dtype=bool)
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.0)
        fc = ForceClass(kind="signed-delta", nxi=5, neta=3)
        with pytest.raises(ValueError):
            worst_force_amplitude(mesh_small, params, mask, fc,
                                  BoxConstraints.unbounded(mesh_small),
                                  variant="E2")


class TestBestReinforcement:
    def test_single_candidate_family(self, mesh_small, params):
        sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        sel[:, :4] = True
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.5)
        fam = ReinforcementFamily(kind="explicit", alpha=0.5, beta=2.5,
                                  explicit_masks=(mask,))
        fc = ForceClass(kind="bang-bang", cells=(2, 1))
        res = best_reinforcement(fam, mesh_small, params, fc,
                                 BoxConstraints.unbounded(mesh_small),
                                 variant="E2")
        assert res.argopt_index == 0
        assert res.meta["argopt_mask"] is mask

    def test_two_candidates_pick_smaller(self, mesh_small, params):
        edge = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        edge[:, :2] = True
        edge[:, -2:] = True
        center = np.zeros_like(edge)
        center[:, 6:10] = True
        fam = ReinforcementFamily(
            kind="explicit", alpha=0.5, beta=2.5,
            explicit_masks=(ReinforcementMask(edge, 0.5, 2.5),
                            ReinforcementMask(center, 0.5, 2.5)))
        fc = ForceClass(kind="bang-bang", cells=(2, 1))
        res = best_reinforcement(fam, mesh_small, params, fc,
                                 BoxConstraints.unbounded(mesh_small),
                                 variant="E2")
        vals = [row["value"] for row in res.rows]
        assert res.value == min(vals)
        assert res.argopt_index == int(np.argmin(vals))

    def test_edge_strip_beats_center_strip(self, mesh_small, params):
        # one vertical strip: near a short edge vs over the midline x=pi/2
        cols = 4
        near_edge = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        near_edge[:, :cols] = True
        at_center = np.zeros_like(near_edge)
        at_center[:, 6:6 + cols] = True
        fc = ForceClass(kind="bang-bang", cells=(2, 1))
        box = BoxConstraints.unbounded(mesh_small)
        vals = []
        for sel in (near_edge, at_center):
            mask = ReinforcementMask(sel, alpha=0.5, beta=2.5)
            vals.append(worst_force_amplitude(mesh_small, params, mask, fc,
                                              box, variant="E2").value)
        assert vals[0] <= vals[1]

    def test_monotone_under_family_growth(self, mesh_small, params):
        masks = []
        for start in (0, 4, 6, 12):
            sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
            sel[:, start:start + 4] = True
            masks.append(ReinforcementMask(sel, alpha=0.5, beta=2.5))
        fc = ForceClass(kind="bang-bang", cells=(2, 1))
        box = BoxConstraints.unbounded(mesh_small)
        prev = np.inf
        for k in (1, 2, 4):
            fam = ReinforcementFamily(kind="explicit", alpha=0.5, beta=2.5,
                                      explicit_masks=tuple(masks[:k]))
            res = best_reinforcement(fam, mesh_small, params, fc, box,
                                     variant="E2")
            assert res.value <= prev + 1e-15
            prev = res.value

    def test_cross_family_generation(self, mesh_small, params):
        mu = ReinforcementFamily.cross_mu_for_area(0.5, 2.0, params,
                                                   mesh=mesh_small)
        fam = ReinforcementFamily(kind="cross", alpha=0.5, beta=2.0,
                                  n_xstrips=1, mu=mu, centers_per_axis=5)
        masks = fam.candidates(mesh_small)
        assert masks
        for m in masks:
            assert abs(m.area_defect(mesh_small)) <= 0.5 * mesh_small.ny + 1.0

    def test_infeasible_family_raises(self, mesh_small):
        fam = ReinforcementFamily(kind="cross", alpha=0.5, beta=2.0,
                                  n_xstrips=1, mu=0.01, centers_per_axis=3,
                                  area_tol_elements=1.0)
        with pytest.raises(ValueError, match="area balance"):
            fam.candidates(mesh_small)


class TestWorstGapForce:
    def test_unreachable_guides_peak_at_center_edge(self, operator_mid,
                                                    mesh_mid, params,
                                                    small_forces):
        res = worst_gap_force(operator_mid, unreachable_obstacle(params),
                              small_forces, params)
        best = dict(res.rows[res.argopt_index]["params"])
        assert best["xi"] == pytest.approx(np.pi / 2)
        assert abs(best["eta"]) == pytest.approx(params.half_width)
        assert all(r["contact_lower"] + r["contact_upper"] == 0
                   for r in res.rows)

    def test_even_pairs_give_zero_gap(self, operator_mid, mesh_mid, params):
        # symmetric pair (delta_(xi,eta) + delta_(xi,-eta))/2: even load
        box = BoxConstraints.from_obstacle(mesh_mid,
                                           unreachable_obstacle(params))
        for xi, eta in [(np.pi / 2, 0.1), (1.0, 0.05)]:
            load = LoadSpec(point_masses=((xi, eta, 0.5), (xi, -eta, 0.5)))
            sol = solve_obstacle(operator_mid, assemble_load(mesh_mid, load),
                                 box)
            assert gap_profile(sol).maximal_gap <= 1e-10 * max(
                sol.field.sup_norm(), 1e-30)

    def test_sign_flip_attains_equal_value(self, operator_small, mesh_small,
                                           params, threshold):
        obstacle = ObstacleSpec.constant_level(0.5 * threshold,
                                               region="long_edges")
        fc = ForceClass(kind="antisym-delta",
                        window=ScanWindow.default(params), nxi=9, neta=5)
        box = BoxConstraints.from_obstacle(mesh_small, obstacle)
        for member in fc.members(params)[::7]:
            a = solve_obstacle(operator_small,
                               assemble_load(mesh_small, member.load), box)
            b = solve_obstacle(
                operator_small,
                assemble_load(mesh_small, member.negated().load), box)
            assert gap_profile(a).maximal_gap == gap_profile(b).maximal_gap

    def test_scan_is_deterministic(self, operator_small, mesh_small, params):
        fc = ForceClass(kind="antisym-delta",
                        window=ScanWindow.default(params), nxi=9, neta=5)
        obstacle = ObstacleSpec.constant_level(0.02, region="long_edges")
        r1 = worst_gap_force(operator_small, obstacle, fc, params)
        r2 = worst_gap_force(operator_small, obstacle, fc, params)
        assert r1.argopt_index == r2.argopt_index
        assert r1.value == r2.value
        assert r1.rows == r2.rows


class TestBestObstacle:
    def test_low_levels_clip_to_twice_gamma(self, operator_mid, mesh_mid,
                                            params, threshold, small_forces):
        gamma = 0.5 * threshold
        fam = ObstacleFamily.constant_levels([gamma, 2.0 * gamma])
        res = best_obstacle(fam, operator_mid, small_forces, params)
        assert res.argopt_index == 0
        assert res.value == pytest.approx(2.0 * gamma, rel=1e-9)

    def test_single_candidate_returned(self, operator_small, mesh_small,
                                       params):
        fam = ObstacleFamily.constant_levels([0.37])
        fc = ForceClass(kind="antisym-delta",
                        window=ScanWindow.default(params), nxi=5, neta=3)
        res = best_obstacle(fam, operator_small, fc, params)
        assert res.argopt_index == 0

    def test_high_level_leaves_gap_unclipped(self, operator_mid, mesh_mid,
                                             params, threshold, small_forces):
        gamma = 3.0 * threshold
        fam = ObstacleFamily.constant_levels([gamma])
        res = best_obstacle(fam, operator_mid, small_forces, params)
        free = worst_gap_force(operator_mid, unreachable_obstacle(params),
                               small_forces, params)
        assert res.value < 2.0 * gamma
        assert res.value == pytest.approx(free.value, rel=1e-12)

    def test_profile_family_validation(self, params):
        good = lambda x, y: 0.02 + 0.005 * np.cos(x)
        fam = ObstacleFamily.from_profiles([good], gamma=0.015, kappa=0.2,
                                           holder_alpha=0.5, params=params)
        assert len(fam.candidates) == 1
        with pytest.raises(ValueError):
            ObstacleFamily.from_profiles([lambda x, y: 0.01 + 0.0 * x],
                                         gamma=0.015, kappa=0.2,
                                         holder_alpha=0.5, params=params)


class TestRegime:
    def test_cases(self, params, threshold):
        hi = classify_regime(1.5 * threshold, params)
        lo = classify_regime(0.5 * threshold, params)
        at = classify_regime(threshold, params)
        assert hi["case"] == "(i)"
        assert lo["case"] == "(ii)"
        assert at["case"] == "(ii)"  # the boundary level still clips

    def test_binding_regime_scan_equals_twice_gamma(self, operator_mid,
                                                    mesh_mid, params,
                                                    threshold, small_forces):
        gamma = 0.5 * threshold
        res = worst_gap_force(operator_mid,
                              ObstacleSpec.constant_level(gamma),
                              small_forces, params)
        assert res.value == pytest.approx(2.0 * gamma, rel=1e-9)
        assert any(r["contact_lower"] + r["contact_upper"] > 0
                   for r in res.rows)

    def test_unsupported_region_rejected(self, params):
        with pytest.raises(ValueError):
            classify_regime(-0.5, params)


class TestSeriesScan:
    def test_threshold_consistency(self, params, threshold, window):
        state = SeriesState(params, m_max=200)
        scan = edge_gap_series_scan(state, window=window, nxi=33, neta=9)
        assert abs(scan["m_scan"] - threshold) <= 2.0 * state.tail_bound
        assert scan["argmax_xi"] == pytest.approx(np.pi / 2)
        assert abs(scan["argmax_eta"]) == pytest.approx(params.half_width)

    def test_boundary_sites_respond_trivially(self, params):
        state = SeriesState(params, m_max=100)
        scan = edge_gap_series_scan(state, window=None, nxi=5, neta=5)
        per_site = scan["per_site"]
        assert np.all(per_site[0, :] <= 1e-12)    # xi = 0
        assert np.all(per_site[-1, :] <= 1e-12)   # xi = pi
        assert np.all(per_site[:, 2] <= 1e-12)    # eta = 0


class TestPlacementBounds:
    def test_degenerate_weights_reduce_to_uniform_profile(self, mesh_small,
                                                          params):
        from hingedplate import uniform_load_profile
        state = SeriesState(params, m_max=200)
        sel = np.ones((mesh_small.ny, mesh_small.nx), dtype=bool)
        mask = ReinforcementMask(sel, alpha=1.0, beta=1.0)
        rep = placement_bound_report(mask, state, mesh_small)
        zmax = max(float(np.max(uniform_load_profile((mesh_small.xs, y), state)))
                   for y in mesh_small.ys)
        assert rep["weighted_green_bound"] == pytest.approx(zmax, rel=1e-9)

    def test_bound_chain(self, mesh_small, params):
        state = SeriesState(params, m_max=200)
        sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        sel[:, :4] = True
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.5)
        rep = placement_bound_report(mask, state, mesh_small)
        fc = ForceClass(kind="bang-bang", cells=(3, 2))
        measured = worst_force_amplitude(
            mesh_small, params, mask, fc,
            BoxConstraints.unbounded(mesh_small), variant="E2").value
        slack = rep["series_tail"] + 1e-4  # discretization allowance
        assert measured <= rep["weighted_green_bound"] + slack
        assert rep["weighted_green_bound"] <= rep["coarse_bound"]
