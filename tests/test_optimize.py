"""Outer scans: determinism, symmetry of maximizers, regime logic, bounds."""

import dataclasses
import itertools

import numpy as np
import pytest

from hingedplate import (BoxConstraints, DofField, LoadSpec, Mesh,
                         ObstacleSpec, ReinforcementMask, ScanWindow,
                         SeriesState, analytic_bound_C, best_obstacle,
                         best_reinforcement, classify_regime,
                         edge_gap_series_scan, gap_profile, gap_threshold_M,
                         placement_bound_report, worst_force_amplitude,
                         worst_gap_force)
from hingedplate import cli, optimize, solver
from hingedplate.fem import MIRRORS, OrbitBasis, assemble_load
from hingedplate.optimize import MAX_MEMBERS, ForceClass, ReinforcementFamily
from hingedplate.solver import (PlateOperator, SolverError, kkt_report,
                                mirror_symmetries, solve_obstacle)

#: y -> -y, and y -> -y with negation: the y-parity subspaces of the scans
Y_EVEN, Y_ODD = (False, True, 1), (False, True, -1)


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


class TestScanTies:
    @pytest.mark.parametrize("maximize", [True, False])
    def test_round_off_ties_pick_the_first(self, maximize):
        v = 0.7589747822164721
        near = v * (1.0 + 1e-13) if maximize else v * (1.0 - 1e-13)
        rows = [{"label": "a", "value": v}, {"label": "b", "value": near}]
        res = optimize._scan("p", rows, maximize=maximize)
        assert res.argopt_index == 0 and res.argopt_label == "a"
        assert res.value == near

    def test_values_apart_beyond_the_tolerance_do_not_tie(self):
        v = 0.7589747822164721
        rows = [{"label": "a", "value": v},
                {"label": "b", "value": v * (1.0 + 10 * optimize.TIE_RTOL)}]
        assert optimize._scan("p", rows, maximize=True).argopt_index == 1
        assert optimize._scan("p", rows, maximize=False).argopt_index == 0

    def test_empty_outer_scans_name_their_problem(self, operator_small, mesh_small,
                                                  params):
        """Without candidates the outer scans fail on ``_scan``'s own
        message, not on ``max()`` of an empty sequence."""
        fc = ForceClass(kind="bang-bang", cells=(2, 1))
        with pytest.raises(ValueError, match="best-obstacle scan has no candidates"):
            best_obstacle([], operator_small, fc)
        for variant in ("E1", "E2"):
            with pytest.raises(ValueError,
                               match="best-reinforcement scan has no candidates"):
                best_reinforcement([], mesh_small, params, fc,
                                   BoxConstraints.unbounded(mesh_small), variant)


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
        from hingedplate import antisym_solution
        exact = 2.0 * antisym_solution((np.pi / 2, l), (prof.argmax_x, l), state)
        assert prof.maximal_gap == pytest.approx(abs(exact), rel=5e-3)

    def test_argmax_tie_breaks_to_smallest_x(self, mesh_small):
        fld = DofField.zeros(mesh_small)
        top = mesh_small.ny
        for i in (3, 9):  # two equal peaks
            fld.dofs[4 * mesh_small.node_index(i, top)] = 1.0
            fld.dofs[4 * mesh_small.node_index(i, 0)] = -1.0
        prof = gap_profile(fld)
        assert prof.argmax_x == mesh_small.xs[3]

    def test_mirror_maxima_tie_to_the_first(self, mesh_small):
        # two peaks equal up to round-off; the larger one comes second
        fld = DofField.zeros(mesh_small)
        for i, g in ((3, 1.0), (9, 1.0 + 1e-13)):
            fld.dofs[4 * mesh_small.node_index(i, mesh_small.ny)] = g
        prof = gap_profile(fld)
        assert prof.argmax_x == mesh_small.xs[3]
        assert prof.maximal_gap == 1.0 + 1e-13

    @pytest.mark.parametrize("mesh_name", ["mesh_small", "mesh_mid"])
    def test_signed_delta_on_the_axis_is_exactly_zero(self, request, params,
                                                      mesh_name):
        # a point load on eta = 0 is even in y, so its gap is zero in exact
        # arithmetic; round-off must not choose a maximal gap or its place
        mesh = request.getfixturevalue(mesh_name)
        op = request.getfixturevalue(mesh_name.replace("mesh", "operator"))
        fc = ForceClass(kind="signed-delta", window=None, nxi=5, neta=3)
        box = BoxConstraints.from_obstacle(mesh, unreachable_obstacle(params))
        on_axis = [m for m in fc.members(params)
                   if dict(m.meta)["eta"] == 0.0 and 0.0 < dict(m.meta)["xi"] < np.pi]
        assert len(on_axis) == 6
        for member in on_axis:
            sol = solve_obstacle(op, assemble_load(mesh, member.load), box)
            assert sol.field.sup_norm() > 0.0
            prof = gap_profile(sol)
            assert prof.maximal_gap == 0.0 and np.all(prof.gaps == 0.0)
            assert prof.argmax_x == mesh.xs[0]


class TestForceClasses:
    def test_antisym_members_have_unit_mass_and_skip_midline(self, params,
                                                             window):
        fc = ForceClass(kind="antisym-delta", window=window, nxi=9, neta=5)
        members = fc.members(params)
        assert members
        for m in members:
            assert sum(abs(w) for (_, _, w) in m.load.point_masses) == pytest.approx(1.0)
            assert dict(m.meta)["eta"] != 0.0

    @pytest.mark.parametrize("neta", [5, 9, 23, 39])
    def test_antisym_midline_is_dropped_by_index(self, params, neta):
        """linspace need not put the middle eta at exactly 0 (1.39e-17 for
        neta 23 and 39 at half-width 0.1); the midline pair is still the
        zero load, never a member."""
        fc = ForceClass(kind="antisym-delta", window=None, nxi=3, neta=neta)
        members = fc.members(params)
        assert len(members) == 3 * (neta - 1)
        assert all(abs(dict(m.meta)["eta"]) > 0.5 * params.half_width / neta
                   for m in members)

    def test_signed_delta_members_come_in_pairs(self, params):
        fc = ForceClass(kind="signed-delta", nxi=5, neta=3)
        members = fc.members(params)
        assert len(members) == 2 * 5 * 3
        assert all(sum(abs(w) for (_, _, w) in m.load.point_masses) == 1.0
                   for m in members)

    def test_signed_delta_members_respect_the_window(self, params):
        window = ScanWindow(z0=0.1, w0=0.01)
        fc = ForceClass(kind="signed-delta", window=window, nxi=5, neta=3)
        members = fc.members(params)
        # edge columns (6 sites), the midline (3) and the midline band (2)
        assert len(members) == 2 * 11
        for m in members:
            site = dict(m.meta)
            assert window.contains(site["xi"], site["eta"], params)

    @pytest.mark.parametrize("kind, nxi, neta, count", [
        ("signed-delta", 64, 32, 4096), ("signed-delta", 64, 33, 4224),
        ("antisym-delta", 512, 9, 4096), ("antisym-delta", 512, 10, 5120),
        ("antisym-delta", 100000, 9, 800000)])
    def test_point_load_classes_are_bounded_before_any_member_is_built(
            self, kind, nxi, neta, count):
        """A point-load class counts its members, 2 nxi neta signed loads or
        nxi (neta - neta % 2) pairs, and refuses more than MAX_MEMBERS."""
        if count <= MAX_MEMBERS:
            ForceClass(kind=kind, nxi=nxi, neta=neta)
        else:
            with pytest.raises(ValueError, match=f"has {count} members, more than"):
                ForceClass(kind=kind, nxi=nxi, neta=neta)

    @pytest.mark.parametrize("kind", ["antisym-delta", "signed-delta"])
    def test_a_window_without_sites_is_an_error(self, params, kind):
        """An unvalidated window that holds no site of the grid (no midline
        column for even nxi, no edge band or midline band for negative
        widths) leaves the class without members."""
        fc = ForceClass(kind=kind, window=ScanWindow(z0=-1.0, w0=-1.0), nxi=4, neta=3)
        with pytest.raises(ValueError, match="discretization produced no members"):
            fc.members(params)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown force class kind 'tripole'"):
            ForceClass(kind="tripole")

    def test_bang_bang_rejects_a_window(self, window):
        with pytest.raises(ValueError, match="point-load classes only"):
            ForceClass(kind="bang-bang", window=window)

    def test_members_compare_and_hash_by_identity(self, params):
        members = ForceClass(kind="bang-bang", cells=(2, 1)).members(params)
        assert members[0] == members[0] and members[0] != members[1]
        assert len(set(members + members)) == 4

    def test_bang_bang_enumeration_and_cap(self, params):
        fc = ForceClass(kind="bang-bang", cells=(2, 2))
        members = fc.members(params)
        assert len(members) == 16
        for bits, m in enumerate(members):
            # the sign grid itself, row 0 at y = -l, cell c = bit c of the label
            grid = m.load.density
            assert grid.shape == (2, 2) and not grid.flags.writeable
            assert grid.ravel().tolist() == [1.0 if bits >> c & 1 else -1.0
                                             for c in range(4)]
            assert m.signs.dtype == np.int8 and not m.signs.flags.writeable
            assert np.array_equal(m.signs, grid)
        with pytest.raises(ValueError):
            ForceClass(kind="bang-bang", cells=(5, 4)).members(params)


class TestWorstForceAmplitude:
    def test_plus_minus_symmetric_values(self, mesh_small, params):
        sel = np.ones((mesh_small.ny, mesh_small.nx), dtype=bool)
        mask = ReinforcementMask(sel, alpha=1.0, beta=1.0)
        fc = ForceClass(kind="signed-delta", nxi=5, neta=3)
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.1, region="full"))
        op = PlateOperator.build(mesh_small, params, mask=mask)
        res = worst_force_amplitude(op, box, fc)
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
        op = PlateOperator.build(mesh_small, params, mask=mask)
        res = worst_force_amplitude(op, box, fc)
        assert all(res.value >= row["value"] for row in res.rows)
        # the argopt is the first member within TIE_RTOL of the optimum
        near = [abs(row["value"] - res.value) <= optimize.TIE_RTOL * res.value
                for row in res.rows]
        assert res.argopt_index == near.index(True)
        # randomized subset recomputation reproduces the scan rows
        rng = np.random.default_rng(17)
        members = fc.members(params)
        for k in rng.choice(len(members), size=5, replace=False):
            b = assemble_load(mesh_small, members[k].load)
            op = PlateOperator.build(mesh_small, params)
            sol = solve_obstacle(op, b, box)
            assert sol.field.sup_norm() == pytest.approx(
                res.rows[k]["value"], rel=1e-12)

    def test_density_variant_needs_density_class(self, operator_small,
                                                 mesh_small, params):
        sel = np.ones((mesh_small.ny, mesh_small.nx), dtype=bool)
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.0)
        fc = ForceClass(kind="signed-delta", nxi=5, neta=3)
        with pytest.raises(ValueError, match="integrable loads only"):
            worst_force_amplitude(operator_small, BoxConstraints.unbounded(mesh_small),
                                  fc, weight=mask)


class TestBestReinforcement:
    def test_single_candidate_family(self, mesh_small, params):
        sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        sel[:, :4] = True
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.5)
        fc = ForceClass(kind="bang-bang", cells=(2, 1))
        res = best_reinforcement([mask], mesh_small, params, fc,
                                 BoxConstraints.unbounded(mesh_small), "E2")
        assert res.argopt_index == 0

    def test_two_candidates_pick_smaller(self, mesh_small, params):
        edge = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        edge[:, :2] = True
        edge[:, -2:] = True
        center = np.zeros_like(edge)
        center[:, 6:10] = True
        masks = [ReinforcementMask(edge, 0.5, 2.5),
                 ReinforcementMask(center, 0.5, 2.5)]
        fc = ForceClass(kind="bang-bang", cells=(2, 1))
        res = best_reinforcement(masks, mesh_small, params, fc,
                                 BoxConstraints.unbounded(mesh_small), "E2")
        vals = [row["value"] for row in res.rows]
        assert res.value == min(vals)
        assert res.argopt_index == int(np.argmin(vals))

    def test_edge_strip_beats_center_strip(self, operator_small, mesh_small,
                                           params):
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
            vals.append(worst_force_amplitude(operator_small, box, fc,
                                              weight=mask).value)
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
            res = best_reinforcement(masks[:k], mesh_small, params, fc, box,
                                     "E2")
            assert res.value <= prev + 1e-15
            prev = res.value

    def test_mirror_masks_tie_to_the_first(self, mesh_small, params):
        # a mask and its mirror image x -> pi - x have the same worst load in
        # exact arithmetic; round-off must not choose between them
        sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        sel[:, :2] = True
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.5)
        mirror = ReinforcementMask(sel[:, ::-1].copy(), alpha=0.5, beta=2.5)
        fc = ForceClass(kind="bang-bang", cells=(2, 1))
        box = BoxConstraints.unbounded(mesh_small)
        for masks in ([mask, mirror], [mirror, mask]):
            res = best_reinforcement(masks, mesh_small, params, fc, box, "E2")
            vals = [row["value"] for row in res.rows]
            assert vals[1] == pytest.approx(vals[0], rel=optimize.TIE_RTOL)
            assert res.argopt_index == 0
            assert res.value == min(vals)

    def test_unknown_family_kind_is_rejected(self):
        with pytest.raises(ValueError,
                           match="unknown reinforcement family kind 'rings'"):
            ReinforcementFamily(kind="rings", alpha=0.5, beta=2.0)

    def test_cross_family_generation(self, mesh_small, params):
        # one vertical strip balancing |D|, snapped to whole element columns
        # so that it rasterizes with zero area defect
        target = 2.0 * np.pi * params.half_width * (1.0 - 0.5) / (2.0 - 0.5)
        mu = target / (4.0 * params.half_width)
        mu = max(1.0, np.round(2.0 * mu / mesh_small.hx)) * mesh_small.hx / 2.0
        fam = ReinforcementFamily(kind="cross", alpha=0.5, beta=2.0,
                                  n_xstrips=1, mu=mu, centers_per_axis=5)
        masks = fam.candidates(mesh_small)
        assert masks
        for m in masks:
            assert abs(m.area_defect(mesh_small)) <= 0.5 * mesh_small.ny + 1.0

    @pytest.mark.parametrize("n_tiles, beta, count", [(1, 2.5, 6), (2, 1.5, 11)])
    def test_tiles_family_generation(self, mesh_small, n_tiles, beta, count):
        """Tiles of pi/2 x l on a 3 x 2 lattice of corners: one tile gives six
        distinct layouts of 16 elements; two give the 11 of the 15 pairs that
        do not overlap, of 32.  Each meets its area balance exactly."""
        fam = ReinforcementFamily(kind="tiles", alpha=0.5, beta=beta,
                                  tile_size=(np.pi / 2, mesh_small.half_width),
                                  n_tiles=n_tiles, centers_per_axis=3)
        masks = fam.candidates(mesh_small)
        assert len(masks) == count
        assert len({m.elements.tobytes() for m in masks}) == count
        for m in masks:
            assert np.count_nonzero(m.elements) == 16 * n_tiles
            assert m.area_defect(mesh_small) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("strips, mu, eps, count", [
        ((1, 1), 0.2, 0.03125, 25), ((2, 0), 0.4, 0.01, 6),
        ((0, 2), 0.2, 0.03125, 6)])
    def test_cross_layouts_match_the_reference_rasterizer(self, strips, mu, eps,
                                                          count):
        """Each layout is ``from_indicator`` of its union of strips, in the
        order of the centre lattices; two strips on an axis sit more than a
        strip width apart, which drops the 4 neighbouring pairs of 5 centres.
        The densities 1, 1 impose no area balance, so no layout is dropped.
        On a plate of half-width 1/8 the element centres, the strip centres
        and eps are exact binary fractions, so the middle horizontal strip's
        edges pass exactly through two rows of centres, which it leaves out."""
        n, m = strips
        mesh = Mesh(16, 4, 0.125)
        fam = ReinforcementFamily(kind="cross", alpha=1.0, beta=1.0, n_xstrips=n,
                                  n_ystrips=m, mu=mu, eps=eps, centers_per_axis=5)
        l = mesh.half_width
        xc = np.linspace(mu, np.pi - mu, 5)
        yc = np.linspace(-l + eps, l - eps, 5)
        x_sets = [c for c in itertools.combinations(xc, n)
                  if all(b - a > 2 * mu for a, b in zip(c, c[1:]))]
        y_sets = [c for c in itertools.combinations(yc, m)
                  if all(b - a > 2 * eps for a, b in zip(c, c[1:]))]

        def strips_at(xs, ys):
            def indicator(X, Y):
                hit = np.zeros(X.shape, dtype=bool)
                for x0 in xs:
                    hit |= np.abs(X - x0) < mu
                for y0 in ys:
                    hit |= np.abs(Y - y0) < eps
                return hit
            return indicator

        expected = [ReinforcementMask.from_indicator(mesh, strips_at(xs, ys),
                                                     1.0, 1.0)
                    for xs in x_sets for ys in y_sets]
        got = fam.candidates(mesh)
        assert len(got) == count
        assert [g.elements.tolist() for g in got] == [
            e.elements.tolist() for e in expected]
        assert all(g.elements.any() for g in got)

    def test_tile_layouts_match_the_reference_rasterizer(self, mesh_small):
        """Two tiles of pi/2 x l on the 3 x 2 lattice of corners: the 11
        pairs that do not overlap, each ``from_indicator`` of its two open
        rectangles, in the order of the pairs."""
        w, h = np.pi / 2, mesh_small.half_width
        fam = ReinforcementFamily(kind="tiles", alpha=1.0, beta=1.0,
                                  tile_size=(w, h), n_tiles=2, centers_per_axis=3)
        spots = [(x0, y0) for x0 in np.linspace(0.0, np.pi - w, 3)
                 for y0 in np.linspace(-h, 0.0, 2)]
        pairs = [(a, b) for a, b in itertools.combinations(spots, 2)
                 if not (abs(a[0] - b[0]) < w and abs(a[1] - b[1]) < h)]
        assert len(pairs) == 11

        def tiles_at(rects):
            def indicator(X, Y):
                hit = np.zeros(X.shape, dtype=bool)
                for (x0, y0) in rects:
                    hit |= (X > x0) & (X < x0 + w) & (Y > y0) & (Y < y0 + h)
                return hit
            return indicator

        expected = [ReinforcementMask.from_indicator(mesh_small, tiles_at(rects),
                                                     1.0, 1.0) for rects in pairs]
        got = fam.candidates(mesh_small)
        assert [g.elements.tolist() for g in got] == [
            e.elements.tolist() for e in expected]

    def test_tiles_overlap(self):
        w, h = np.pi / 2, 0.1
        assert optimize._tiles_overlap([(0.0, -0.1), (np.pi / 4, -0.1)], w, h)
        assert not optimize._tiles_overlap([(0.0, -0.1), (np.pi / 4, 0.0)], w, h)
        assert not optimize._tiles_overlap([(0.0, -0.1)], w, h)

    def test_e1_rows_are_worst_amplitudes_on_the_stiffened_operator(
            self, mesh_small, params):
        masks = ReinforcementFamily(kind="tiles", alpha=0.5, beta=2.5,
                                    tile_size=(np.pi / 2, mesh_small.half_width),
                                    centers_per_axis=3).candidates(mesh_small)
        fc = ForceClass(kind="bang-bang", cells=(2, 1))
        box = BoxConstraints.unbounded(mesh_small)
        res = best_reinforcement(masks, mesh_small, params, fc, box, "E1")
        assert len(res.rows) == len(masks)
        for row, mask in zip(res.rows, masks):
            inner = worst_force_amplitude(
                PlateOperator.build(mesh_small, params, mask=mask), box, fc)
            assert row["value"] == inner.value
            assert row["worst_force"] == inner.argopt_label
        assert res.value == min(row["value"] for row in res.rows)

    @pytest.mark.parametrize("variant", ["E3", "e2", None])
    def test_unknown_variant_is_rejected(self, mesh_small, params, variant):
        mask = ReinforcementMask(np.ones((mesh_small.ny, mesh_small.nx), dtype=bool),
                                 alpha=1.0, beta=1.0)
        with pytest.raises(ValueError, match=f"unknown variant {variant!r}"):
            best_reinforcement([mask], mesh_small, params,
                               ForceClass(kind="bang-bang", cells=(1, 1)),
                               BoxConstraints.unbounded(mesh_small), variant)

    def test_infeasible_family_raises(self, mesh_small):
        fam = ReinforcementFamily(kind="cross", alpha=0.5, beta=2.0,
                                  n_xstrips=1, mu=0.01, centers_per_axis=3)
        with pytest.raises(ValueError, match="area balance"):
            fam.candidates(mesh_small)


class TestWorstGapForce:
    def test_unreachable_guides_peak_at_center_edge(self, operator_mid,
                                                    mesh_mid, params,
                                                    small_forces):
        res = worst_gap_force(operator_mid, unreachable_obstacle(params),
                              small_forces)
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
            negated = LoadSpec(point_masses=[(x, y, -w) for (x, y, w)
                                             in member.load.point_masses])
            b = solve_obstacle(operator_small,
                               assemble_load(mesh_small, negated), box)
            assert gap_profile(a).maximal_gap == gap_profile(b).maximal_gap

    def test_scan_is_deterministic(self, operator_small, mesh_small, params):
        fc = ForceClass(kind="antisym-delta",
                        window=ScanWindow.default(params), nxi=9, neta=5)
        obstacle = ObstacleSpec.constant_level(0.02, region="long_edges")
        r1 = worst_gap_force(operator_small, obstacle, fc)
        r2 = worst_gap_force(operator_small, obstacle, fc)
        assert r1.argopt_index == r2.argopt_index
        assert r1.value == r2.value
        assert r1.rows == r2.rows


def _member_solutions(monkeypatch, operator, box, forces, weight=None,
                      direct=False):
    """The member solutions of one scan and, for each member solved, the
    group of the orbit basis its solve runs on, ``()`` on the full space;
    with ``direct``, no mirror applies, so every member is solved on the
    full space."""
    groups = []
    solve = optimize._member_solve

    def recording(op, rhs, b, flips=()):
        groups.append(solver._mirror_group(op, rhs, b, flips))
        return solve(op, rhs, b, flips)

    with monkeypatch.context() as mp:
        mp.setattr(optimize, "_member_solve", recording)
        if direct:
            mp.setattr(optimize, "mirror_symmetries", lambda *args: [MIRRORS[0]])
            mp.setattr(solver, "_mirror_group", lambda *args: ())
        sols = [sol for sol, _ in optimize._member_rows(operator, box, forces,
                                                        weight=weight)]
    return sols, groups


def _rows(values):
    return [{"label": str(k), "value": v} for k, v in enumerate(values)]


def _x_asymmetric_mask(mesh):
    sel = np.zeros((mesh.ny, mesh.nx), dtype=bool)
    sel[:, :mesh.nx // 4] = True
    return ReinforcementMask(sel, alpha=0.5, beta=2.5)


class TestOrbitScans:
    """A scan solves the first member of each mirror orbit and certifies the
    images of that solve, against direct solves of every member."""

    CLASSES = {
        "antisym-delta": lambda p: ForceClass(kind="antisym-delta",
                                              window=ScanWindow.default(p)),
        "signed-delta": lambda p: ForceClass(kind="signed-delta", nxi=5, neta=3),
        "bang-bang": lambda p: ForceClass(kind="bang-bang", cells=(3, 2)),
    }
    #: a deflection scale of each class at 16x4: the gap threshold for the
    #: point loads, the largest bang-bang deflection for the densities
    SCALE = {"antisym-delta": 1.0, "signed-delta": 1.0, "bang-bang": 55.0}
    BOXES = {
        "unbounded": lambda mesh, m: BoxConstraints.unbounded(mesh),
        "guides": lambda mesh, m: BoxConstraints.from_obstacle(
            mesh, ObstacleSpec.constant_level(0.5 * m)),
        # lower != -upper: negation maps it onto no box of the scan
        "bounds": lambda mesh, m: BoxConstraints.from_obstacle(
            mesh, ObstacleSpec(lower=-0.5 * m, upper=0.7 * m, region="full")),
        # lower == upper: every image maps degenerate pins onto pins
        "pinned": lambda mesh, m: BoxConstraints.from_obstacle(
            mesh, ObstacleSpec(lower=0.0, upper=0.0, region="long_edges")),
    }

    def _check(self, monkeypatch, orbits, operator, box, forces, params,
               weight=None):
        direct, full = _member_solutions(monkeypatch, operator, box, forces,
                                         weight, direct=True)
        sols, solved = _member_solutions(monkeypatch, operator, box, forces,
                                         weight)
        assert len(full) == len(sols) and len(solved) == orbits
        for sol, ref in zip(sols, direct):
            assert np.array_equal(sol.lower_contact, ref.lower_contact)
            assert np.array_equal(sol.upper_contact, ref.upper_contact)
        masks = [m for m in (operator.mask, weight) if m is not None]
        orbit = optimize._orbits(forces.members(params), mirror_symmetries(
            operator.mesh, box, masks))
        assert len({first for first, _ in orbit}) == orbits
        for measure in (lambda s: gap_profile(s).maximal_gap,
                        lambda s: s.field.sup_norm()):
            got, want = [measure(s) for s in sols], [measure(s) for s in direct]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            for maximize in (True, False):
                assert (optimize._scan("p", _rows(got), maximize).argopt_index
                        == optimize._scan("p", _rows(want), maximize).argopt_index)
            # the members of an orbit have exactly equal values
            assert all(got[k] == got[first] for k, (first, _) in enumerate(orbit))
        return sols

    @pytest.mark.parametrize("kind, box_kind, orbits", [
        ("antisym-delta", "unbounded", 48), ("antisym-delta", "guides", 48),
        ("antisym-delta", "bounds", 48),
        ("signed-delta", "unbounded", 6), ("signed-delta", "guides", 6),
        ("signed-delta", "bounds", 12),
        ("bang-bang", "unbounded", 14), ("bang-bang", "guides", 14),
        ("bang-bang", "bounds", 24), ("antisym-delta", "pinned", 48),
        ("signed-delta", "pinned", 6), ("bang-bang", "pinned", 14)])
    def test_orbit_scan_matches_direct_solves(self, monkeypatch, operator_small,
                                              mesh_small, params, threshold,
                                              kind, box_kind, orbits):
        box = self.BOXES[box_kind](mesh_small, self.SCALE[kind] * threshold)
        sols = self._check(monkeypatch, orbits, operator_small, box,
                           self.CLASSES[kind](params), params)
        if box_kind != "unbounded":
            assert any(s.upper_contact.size for s in sols)
        if box_kind in ("bounds", "pinned"):
            assert any(s.lower_contact.size for s in sols)

    @pytest.mark.parametrize("variant, kind, orbits", [
        ("E1", "signed-delta", 10), ("E1", "bang-bang", 20),
        ("E2", "bang-bang", 20)])
    def test_x_asymmetric_masks_drop_the_x_mirror(self, monkeypatch, mesh_small,
                                                  operator_small, params,
                                                  threshold, variant, kind,
                                                  orbits):
        mask = _x_asymmetric_mask(mesh_small)
        box = self.BOXES["guides"](mesh_small, self.SCALE[kind] * threshold)
        if variant == "E1":
            self._check(monkeypatch, orbits,
                        PlateOperator.build(mesh_small, params, mask=mask), box,
                        self.CLASSES[kind](params), params)
        else:
            self._check(monkeypatch, orbits, operator_small, box,
                        self.CLASSES[kind](params), params, weight=mask)

    def test_a_failed_image_is_solved_directly(self, monkeypatch, mesh_small,
                                               operator_small, params,
                                               threshold):
        """Images of a doubled solve fail the certificate, so every member is
        solved: the first of each orbit on the y-even subspace (one cell row
        is y-even), the others on the full space.  Each solution is, bit for
        bit, that member's solve by its own path, and agrees with the direct
        full-space solve."""
        box = self.BOXES["guides"](mesh_small, self.SCALE["bang-bang"] * threshold)
        forces = ForceClass(kind="bang-bang", cells=(3, 1))  # 8 members, 3 orbits
        members = forces.members(params)
        direct, _ = _member_solutions(monkeypatch, operator_small, box, forces,
                                      direct=True)
        _, solved = _member_solutions(monkeypatch, operator_small, box, forces)
        assert solved == [(Y_EVEN,)] * 3
        image = optimize.mirror_solution

        def doubled(solution, *args):
            field = DofField(mesh_small, 2.0 * solution.field.dofs)
            return image(dataclasses.replace(solution, field=field), *args)

        monkeypatch.setattr(optimize, "mirror_solution", doubled)
        sols, solved = _member_solutions(monkeypatch, operator_small, box, forces)
        assert len(solved) == len(sols) == 8
        firsts = {first for first, _ in optimize._orbits(
            members, mirror_symmetries(mesh_small, box))}
        for k, (member, sol, full) in enumerate(zip(members, sols, direct)):
            rhs = assemble_load(mesh_small, member.load)
            ref = solve_obstacle(operator_small, rhs, box,
                                 ((False, True),) if k in firsts else ())
            assert sol.field.dofs.tobytes() == ref.field.dofs.tobytes()
            for got in (ref, full):
                assert np.array_equal(sol.lower_contact, got.lower_contact)
                assert np.array_equal(sol.upper_contact, got.upper_contact)
            scale = np.max(np.abs(full.field.dofs))
            assert np.max(np.abs(sol.field.dofs - full.field.dofs)) <= 1e-12 * scale

    def test_each_member_load_is_assembled_once(self, monkeypatch, mesh_small,
                                                operator_small, params,
                                                threshold):
        """A member whose image fails is solved from the load its image was
        certified against, not from a second assembly."""
        box = self.BOXES["guides"](mesh_small, self.SCALE["bang-bang"] * threshold)
        forces = ForceClass(kind="bang-bang", cells=(3, 1))  # 8 members, 3 orbits
        calls = []
        assemble = optimize.assemble_load

        def counted(*args, **kw):
            calls.append(1)
            return assemble(*args, **kw)

        def failed(*args):
            raise SolverError("no image")

        monkeypatch.setattr(optimize, "assemble_load", counted)
        monkeypatch.setattr(optimize, "mirror_solution", failed)
        sols, solved = _member_solutions(monkeypatch, operator_small, box, forces)
        assert len(solved) == len(sols) == len(calls) == 8

    def test_default_window_has_48_orbits(self, params):
        forces = ForceClass(kind="antisym-delta", window=ScanWindow.default(params))
        members = forces.members(params)
        orbit = optimize._orbits(members, list(MIRRORS))
        assert len(members) == 164
        assert len({first for first, _ in orbit}) == 48


def _reference_sites(forces, member):
    """A member's sorted ``(j, i, sign)`` triples, read off its label: row
    ``j`` (eta or cell row) and column ``i`` (xi or cell column) of each
    point mass or density cell."""
    if forces.kind == "bang-bang":
        kx, ky = forces.cells
        bits = int(member.label[3:-1], 2)
        return tuple((j, i, 1 if bits >> (j * kx + i) & 1 else -1)
                     for j in range(ky) for i in range(kx))
    i, j = map(int, member.label[member.label.index("[") + 1:-1].split(","))
    if forces.kind == "signed-delta":
        return ((j, i, 1 if member.label[0] == "+" else -1),)
    return tuple(sorted(((j, i, 1), (forces.neta - 1 - j, i, -1))))


def _reference_orbits(forces, members, elements):
    """``optimize._orbits`` by index arithmetic on the sites of each member:
    ``fx`` maps column ``i`` to ``cols - 1 - i``, ``fy`` row ``j`` to
    ``rows - 1 - j``, and ``s`` multiplies the signs."""
    rows, cols = ((forces.cells[1], forces.cells[0]) if forces.kind == "bang-bang"
                  else (forces.neta, forces.nxi))

    def image(sites, element):
        fx, fy, s = element
        return tuple(sorted((rows - 1 - j if fy else j, cols - 1 - i if fx else i,
                             s * sign) for j, i, sign in sites))

    sites = [_reference_sites(forces, m) for m in members]
    index = {site: k for k, site in enumerate(sites)}
    out = []
    for site in sites:
        images = ((index.get(image(site, g)), g) for g in elements)
        out.append(min(((k, g) for k, g in images if k is not None),
                       key=lambda pair: pair[0]))
    return out


class TestOrbitOracle:
    """Orbits from flipped sign grids are those of the site arithmetic; the
    non-square grids and cell partitions catch a transposed flip."""

    CLASSES = {
        "antisym-delta-33x9-window": lambda p: ForceClass(
            kind="antisym-delta", window=ScanWindow.default(p)),
        "signed-delta-9x5": lambda p: ForceClass(kind="signed-delta", nxi=9, neta=5),
        "signed-delta-8x4": lambda p: ForceClass(kind="signed-delta", nxi=8, neta=4),
        "bang-bang-3x2": lambda p: ForceClass(kind="bang-bang", cells=(3, 2)),
        "bang-bang-2x3": lambda p: ForceClass(kind="bang-bang", cells=(2, 3)),
    }
    ELEMENTS = {
        "all": lambda mesh: list(MIRRORS),
        "guides": lambda mesh: mirror_symmetries(
            mesh, TestOrbitScans.BOXES["guides"](mesh, 1.0)),
        "bounds": lambda mesh: mirror_symmetries(
            mesh, TestOrbitScans.BOXES["bounds"](mesh, 1.0)),
        "x-asymmetric-mask": lambda mesh: mirror_symmetries(
            mesh, BoxConstraints.unbounded(mesh), [_x_asymmetric_mask(mesh)]),
    }

    @pytest.mark.parametrize("elements", list(ELEMENTS))
    @pytest.mark.parametrize("kind", list(CLASSES))
    def test_orbits_match_the_site_arithmetic(self, mesh_small, params, kind,
                                              elements):
        forces = self.CLASSES[kind](params)
        members = forces.members(params)
        group = self.ELEMENTS[elements](mesh_small)
        assert len(group) == {"all": 8, "guides": 8, "bounds": 4,
                              "x-asymmetric-mask": 4}[elements]
        for m in members:
            marks = sorted((j, i, int(m.signs[j, i]))
                           for j, i in zip(*np.nonzero(m.signs)))
            assert tuple(marks) == _reference_sites(forces, m)
        orbits = optimize._orbits(members, group)
        assert orbits == _reference_orbits(forces, members, group)
        assert len({first for first, _ in orbits}) < len(members)


class TestRepresentativeSubspace:
    """The first member of an orbit is solved on the y-parity subspace when a
    mirror of the scan flips y alone and fixes its load."""

    def test_antisym_pairs_under_guides_run_y_odd(self, monkeypatch, mesh_small,
                                                  operator_small, params,
                                                  threshold):
        box = TestOrbitScans.BOXES["guides"](mesh_small, threshold)
        forces = TestOrbitScans.CLASSES["antisym-delta"](params)
        sols, groups = _member_solutions(monkeypatch, operator_small, box, forces)
        assert groups == [(Y_ODD,)] * 48
        assert any(s.upper_contact.size for s in sols)

    def test_reduced_members_are_certified_on_the_full_operator(
            self, monkeypatch, mesh_small, operator_small, params, threshold):
        """A y-reduced scan hands ``_member_solve`` the full problem: each
        solve it returns lives on the operator's mesh and passes the KKT
        certificate there, against the member's own load."""
        box = TestOrbitScans.BOXES["guides"](mesh_small, threshold)
        forces = TestOrbitScans.CLASSES["antisym-delta"](params)
        solve = optimize._member_solve
        contacts = []

        def certified(op, rhs, b, *flips):
            sol = solve(op, rhs, b, *flips)
            assert op is operator_small and sol.field.mesh is mesh_small
            rep = kkt_report(sol, op, rhs, b)
            assert rep["stationarity"] <= 1e-9 and rep["feasibility"] == 0.0
            assert rep["complementarity"] <= 1e-9
            contacts.append(sol.upper_contact.size)
            return sol

        monkeypatch.setattr(optimize, "_member_solve", certified)
        assert len(list(optimize._member_rows(operator_small, box, forces))) == 164
        assert len(contacts) == 48 and any(contacts)

    def test_uneven_bounds_keep_the_full_space(self, monkeypatch, mesh_small,
                                               operator_small, params,
                                               threshold):
        """lower != -upper: no negating mirror maps the box onto itself, so
        no antisymmetric pair has a y-stabilizer."""
        box = TestOrbitScans.BOXES["bounds"](mesh_small, threshold)
        forces = TestOrbitScans.CLASSES["antisym-delta"](params)
        _, groups = _member_solutions(monkeypatch, operator_small, box, forces)
        assert groups == [()] * 48

    def test_midline_point_loads_run_y_even(self, monkeypatch, mesh_small,
                                            operator_small, params, threshold):
        box = TestOrbitScans.BOXES["guides"](mesh_small, threshold)
        forces = TestOrbitScans.CLASSES["signed-delta"](params)
        members = forces.members(params)
        firsts = sorted({first for first, _ in optimize._orbits(
            members, mirror_symmetries(mesh_small, box))})
        _, groups = _member_solutions(monkeypatch, operator_small, box, forces)
        midline = [members[k].signs[forces.neta // 2].any() for k in firsts]
        assert groups == [(Y_EVEN,) if mid else () for mid in midline]
        assert midline.count(True) == midline.count(False) == 3

    def test_levels_share_one_reduced_operator(self, monkeypatch, tmp_path,
                                               mesh_small, params, threshold):
        """The reduced operator and its orbit basis are built once per
        operator and group, so the levels of an obstacle scan share them, and
        a reduced vi-solve builds one basis."""
        calls, built = [], []
        restrict = OrbitBasis.restrict_form
        init = OrbitBasis.__init__

        def counted(basis, form):
            calls.append(basis.group)
            return restrict(basis, form)

        def constructed(basis, mesh, generators):
            built.append(tuple(generators))
            init(basis, mesh, generators)

        monkeypatch.setattr(OrbitBasis, "restrict_form", counted)
        monkeypatch.setattr(OrbitBasis, "__init__", constructed)
        guides = [ObstacleSpec.constant_level(g)
                  for g in (0.5 * threshold, 2.0 * threshold)]
        forces = ForceClass(kind="antisym-delta", window=ScanWindow.default(params),
                            nxi=9, neta=5)
        res = best_obstacle(guides, PlateOperator.build(mesh_small, params), forces)
        assert len(res.rows) == 2 and calls == built == [(Y_ODD,)]
        built.clear()
        cfg = cli.default_config()
        cfg.update(material={"sigma": params.sigma, "half_width": params.half_width},
                   mesh={"nx": mesh_small.nx, "ny": mesh_small.ny},
                   problem="vi-solve", output_dir=str(tmp_path),
                   params={"load": {"density": 1.0},
                           "obstacles": {"gamma": threshold, "region": "full"}})
        code, summary = cli.run(cfg)
        assert code == 0 and summary["result"]["contact_upper"]
        assert len(built) == 1

    def test_y_mirror_contacts_enter_together(self, monkeypatch, params,
                                              threshold):
        """The guide-scan warm-up op: regime at 64x16 on the 5x3 site grid,
        guides at 0.6 M.  The contact member's y-mirror pair of edge nodes is
        one coordinate of the y-odd subspace, so it enters in one blocking
        step: 2 iterations and 2 factorizations in the scan.  On the full
        space its two nodes reached their guides at step ratios apart by
        round-off and entered one at a time: 3 and 3."""
        mesh = Mesh(64, 16, params.half_width)
        box = BoxConstraints.from_obstacle(
            mesh, ObstacleSpec.constant_level(0.6 * threshold))
        forces = ForceClass(kind="antisym-delta", window=ScanWindow.default(params),
                            nxi=5, neta=3)
        factorizations = []
        factor = solver._spd_factor

        def counted(*args, **kw):
            factorizations.append(1)
            return factor(*args, **kw)

        monkeypatch.setattr(solver, "_spd_factor", counted)
        sols, groups = _member_solutions(
            monkeypatch, PlateOperator.build(mesh, params), box, forces)
        assert groups == [(Y_ODD,)] * 2
        contact = [s for s in sols if s.upper_contact.size]
        assert contact and all(s.iterations == 2 for s in contact)
        # one node on each long edge, mirror images of each other
        assert all(s.upper_contact.size == s.lower_contact.size == 1 for s in contact)
        assert len(factorizations) == 2


class TestBestObstacle:
    def test_low_levels_clip_to_twice_gamma(self, operator_mid, mesh_mid,
                                            params, threshold, small_forces):
        gamma = 0.5 * threshold
        guides = [ObstacleSpec.constant_level(g) for g in (gamma, 2.0 * gamma)]
        res = best_obstacle(guides, operator_mid, small_forces)
        assert res.argopt_index == 0
        assert res.value == pytest.approx(2.0 * gamma, rel=1e-9)

    def test_single_candidate_returned(self, operator_small, mesh_small,
                                       params):
        fc = ForceClass(kind="antisym-delta",
                        window=ScanWindow.default(params), nxi=5, neta=3)
        res = best_obstacle([ObstacleSpec.constant_level(0.37)], operator_small, fc)
        assert res.argopt_index == 0

    def test_high_level_leaves_gap_unclipped(self, operator_mid, mesh_mid,
                                             params, threshold, small_forces):
        gamma = 3.0 * threshold
        res = best_obstacle([ObstacleSpec.constant_level(gamma)], operator_mid,
                            small_forces)
        free = worst_gap_force(operator_mid, unreachable_obstacle(params),
                               small_forces)
        assert res.value < 2.0 * gamma
        assert res.value == pytest.approx(free.value, rel=1e-12)


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
                              small_forces)
        assert res.value == pytest.approx(2.0 * gamma, rel=1e-9)
        assert any(r["contact_lower"] + r["contact_upper"] > 0
                   for r in res.rows)

    def test_unsupported_region_rejected(self, params):
        with pytest.raises(ValueError):
            classify_regime(-0.5, params)
        with pytest.raises(ValueError, match="guide level must be positive"):
            classify_regime(float("nan"), params, m_max=100)


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

    def test_rejects_a_mesh_of_another_plate(self, slim_params):
        """The kernel is the plate of ``state``; a mesh of another width
        would integrate it over the wrong strip and report no bound."""
        state = SeriesState(slim_params, m_max=200)
        mesh = Mesh(32, 8, 0.01)
        mask = ReinforcementMask(np.zeros((8, 32), dtype=bool), 1.0, 1.0)
        with pytest.raises(ValueError, match="half-width"):
            placement_bound_report(mask, state, mesh)
        matching = Mesh(32, 8, slim_params.half_width)
        assert placement_bound_report(mask, state, matching)["weighted_green_bound"] > 1.0

    def test_bound_chain(self, operator_small, mesh_small, params):
        state = SeriesState(params, m_max=200)
        sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        sel[:, :4] = True
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.5)
        rep = placement_bound_report(mask, state, mesh_small)
        fc = ForceClass(kind="bang-bang", cells=(3, 2))
        measured = worst_force_amplitude(
            operator_small, BoxConstraints.unbounded(mesh_small), fc,
            weight=mask).value
        slack = rep["series_tail"] + 1e-4  # discretization allowance
        assert measured <= rep["weighted_green_bound"] + slack
        assert rep["weighted_green_bound"] <= rep["coarse_bound"]
