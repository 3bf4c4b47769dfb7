"""Box-constrained solves: certificates, symmetry transfer, oracle agreement."""

import itertools

import numpy as np
import pytest

from hingedplate import (AntisymDelta, BoxConstraints, DofField, LoadSpec,
                         Mesh, ObstacleSpec, ReinforcementMask, SeriesState,
                         antisym_solution, kkt_report, solve_linear,
                         solve_obstacle, symmetry_decompose,
                         uniform_load_profile)
from hingedplate import solver
from hingedplate.fem import DOF_VALUE, assemble_load
from hingedplate.solver import IterationLimitError, PlateOperator

SIN_LOAD = LoadSpec(density=lambda x, y: np.sin(x))


def far_box(mesh, level=100.0):
    return BoxConstraints.from_obstacle(
        mesh, ObstacleSpec.constant_level(level, region="full"))


class TestSolveLinear:
    def test_zero_load(self, operator_small, mesh_small):
        b = assemble_load(mesh_small, LoadSpec(density=0.0))
        fld = solve_linear(operator_small, b)
        assert np.all(fld.dofs == 0.0)

    def test_positivity_preserving(self, operator_small, mesh_small):
        b = assemble_load(mesh_small, LoadSpec(density=1.0))
        fld = solve_linear(operator_small, b)
        interior = fld.value_grid()[:, 1:-1]  # all y rows, x strictly inside
        assert np.all(interior > 0.0)

    def test_point_pair_matches_series(self, operator_mid, mesh_mid, params):
        state = SeriesState(params, m_max=400)
        load = AntisymDelta(xi=np.pi / 2, eta=params.half_width)
        b = assemble_load(mesh_mid, LoadSpec.antisym_pair(load.xi, load.eta))
        fld = solve_linear(operator_mid, b)
        grid = fld.value_grid()
        for (i, j) in [(16, 8), (16, 0), (10, 8), (24, 4)]:
            x, y = mesh_mid.xs[i], mesh_mid.ys[j]
            exact = antisym_solution(load, (x, y), state)
            assert grid[j, i] == pytest.approx(
                exact, rel=5e-3, abs=1e-4 * abs(exact) + 1e-9)


class TestSolveObstacle:
    def test_inactive_obstacles_reproduce_linear_exactly(
            self, operator_small, mesh_small):
        b = assemble_load(mesh_small, SIN_LOAD)
        linear = solve_linear(operator_small, b)
        sol = solve_obstacle(operator_small, b, far_box(mesh_small))
        assert np.array_equal(sol.field.dofs, linear.dofs)
        assert sol.contact_free
        assert sol.iterations == 1
        assert np.all(sol.multipliers == 0.0)

    def test_empty_contact_under_certified_margin(self, operator_small,
                                                  mesh_small, params):
        state = SeriesState(params, m_max=200)
        xs = np.linspace(0, np.pi, 33)
        zmax = max(float(np.max(uniform_load_profile((xs, y), state)))
                   for y in mesh_small.ys)
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec(lower=-1.1 * zmax, upper=1.1 * zmax,
                                     region="full"))
        rng = np.random.default_rng(21)
        for _ in range(3):
            coef = rng.uniform(-1.0, 1.0, 3)
            coef /= max(1.0, np.abs(coef).sum())  # sup-norm at most one

            def f(x, y, c=coef):
                return c[0] * np.sin(x) + c[1] * np.cos(3 * x) + c[2] * np.sign(y)

            b = assemble_load(mesh_small, LoadSpec(density=f))
            sol = solve_obstacle(operator_small, b, box)
            assert sol.contact_free

    def test_negating_data_negates_solution_exactly(self, operator_small,
                                                    mesh_small):
        gamma = 0.4
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(gamma, region="full"))
        b = assemble_load(mesh_small, SIN_LOAD)
        sol_pos = solve_obstacle(operator_small, b, box)
        sol_neg = solve_obstacle(operator_small, -b, box)
        assert np.array_equal(sol_neg.field.dofs, -sol_pos.field.dofs)
        assert np.array_equal(sol_neg.lower_contact, sol_pos.upper_contact)
        assert sol_pos.upper_contact.size > 0  # the obstacle actually binds

    def test_feasibility_is_exact_at_nodes(self, operator_small, mesh_small):
        gamma = 0.3
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(gamma, region="full"))
        b = assemble_load(mesh_small, SIN_LOAD)
        sol = solve_obstacle(operator_small, b, box)
        vals = sol.field.node_values
        assert np.max(vals) == gamma  # clipped exactly, no overshoot
        assert np.min(vals) >= -gamma
        assert np.all(vals[sol.upper_contact] == gamma)

    def test_multiplier_signs(self, operator_small, mesh_small):
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.3, region="full"))
        b = assemble_load(mesh_small, SIN_LOAD)
        sol = solve_obstacle(operator_small, b, box)
        assert np.all(sol.multipliers[sol.upper_contact] > 0.0)
        assert np.all(sol.multipliers[sol.lower_contact] < 0.0)
        outside = np.setdiff1d(np.arange(mesh_small.n_nodes),
                               np.concatenate([sol.upper_contact,
                                               sol.lower_contact]))
        assert np.all(sol.multipliers[outside] == 0.0)

    def test_warm_starts_agree(self, operator_small, mesh_small):
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.35, region="full"))
        b = assemble_load(mesh_small, SIN_LOAD)
        cold = solve_obstacle(operator_small, b, box)
        lin = solve_linear(operator_small, b)
        clipped = lin.dofs.copy()
        vals = clipped[0::4]
        clipped[0::4] = np.clip(vals, box.lower, box.upper)
        warm = solve_obstacle(operator_small, b, box,
                              warm_start=DofField(mesh_small, clipped))
        tol = 10.0 * solver.TOL
        scale = max(1.0, cold.field.sup_norm())
        assert np.max(np.abs(warm.field.dofs - cold.field.dofs)) <= tol * scale

    def test_energy_below_random_feasible_fields(self, operator_small,
                                                 mesh_small):
        gamma = 0.3
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(gamma, region="full"))
        b = assemble_load(mesh_small, SIN_LOAD)
        sol = solve_obstacle(operator_small, b, box)
        k = operator_small.form.matrix
        bf = b.astype(float)

        def energy(dofs):
            return 0.5 * dofs @ (k @ dofs) - bf @ dofs

        e_star = energy(sol.field.dofs)
        rng = np.random.default_rng(33)
        free = mesh_small.free_dof_mask()
        for _ in range(100):
            cand = rng.normal(scale=0.1, size=mesh_small.n_dofs)
            cand[~free] = 0.0
            cand[0::4] = np.clip(cand[0::4], box.lower, box.upper)
            assert e_star <= energy(cand) + 1e-12

    def test_degenerate_box_pins_node(self, operator_small, mesh_small):
        n = mesh_small.n_nodes
        mask = np.zeros(n, dtype=bool)
        pin = mesh_small.node_index(8, 2)
        mask[pin] = True
        lower = np.zeros(n)
        upper = np.zeros(n)
        box = BoxConstraints(mask, lower, upper)
        b = assemble_load(mesh_small, SIN_LOAD)
        sol = solve_obstacle(operator_small, b, box)
        assert sol.field.node_values[pin] == 0.0

    def test_invalid_boxes_rejected(self, mesh_small):
        n = mesh_small.n_nodes
        mask = np.ones(n, dtype=bool)
        with pytest.raises(ValueError):
            BoxConstraints(mask, np.full(n, 0.5), np.full(n, 1.0))  # lower > 0
        with pytest.raises(ValueError):
            BoxConstraints(mask, np.full(n, -1.0), np.full(n, -0.5))  # upper < 0

    def test_iteration_budget_error_carries_residual(self, operator_small,
                                                     mesh_small, monkeypatch):
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.2, region="full"))
        b = assemble_load(mesh_small, SIN_LOAD)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        with pytest.raises(IterationLimitError) as err:
            solve_obstacle(operator_small, b, box)
        assert hasattr(err.value, "residual")
        # here two blocking steps never reach a contact-set optimum; the
        # error still reports the iterate's KKT violation, finite and above tol
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 2)
        with pytest.raises(IterationLimitError) as err:
            solve_obstacle(operator_small, b, box)
        assert np.isfinite(err.value.residual)
        assert err.value.residual > solver.TOL


class TestSettledIterate:
    """The iterate that settles the active set is the returned solve.

    Each test builds its own operator: the session fixtures share a cached LU.
    """

    @staticmethod
    def _count_calls(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_contact_free_solve_runs_one_free_solve(self, mesh_small, params,
                                                    monkeypatch):
        op = PlateOperator.build(mesh_small, params)
        calls = self._count_calls(monkeypatch, PlateOperator, "solve_free")
        sol = solve_obstacle(op, assemble_load(mesh_small, SIN_LOAD),
                             far_box(mesh_small))
        assert sol.contact_free
        assert len(calls) == 1

    def test_binding_solve_factors_once_per_iteration(self, mesh_small, params,
                                                      monkeypatch):
        op = PlateOperator.build(mesh_small, params)
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.3, region="full"))
        calls = self._count_calls(monkeypatch, solver.spla, "splu")
        sol = solve_obstacle(op, assemble_load(mesh_small, SIN_LOAD), box)
        assert sol.upper_contact.size > 0 and sol.iterations > 1
        assert len(calls) == sol.iterations

    def test_pinning_the_contacts_reproduces_the_field(self, mesh_small, params):
        op = PlateOperator.build(mesh_small, params)
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec(lower=-0.15, upper=1.0, region="full"))
        b = assemble_load(mesh_small, LoadSpec(
            density=lambda x, y: np.sin(x) - 80.0 * np.sin(3.0 * x)))
        sol = solve_obstacle(op, b, box)
        assert sol.lower_contact.size > 0 and sol.upper_contact.size > 0
        nodes = np.concatenate([sol.lower_contact, sol.upper_contact])
        values = np.concatenate([box.lower[sol.lower_contact],
                                 box.upper[sol.upper_contact]])
        again = op.solve_pinned(b, 4 * nodes + DOF_VALUE, values)
        assert np.array_equal(again.astype(float), sol.field.dofs)


class TestSymmetryTransfer:
    def test_odd_load_even_obstacles_kills_even_part(self, operator_mid,
                                                     mesh_mid):
        box = BoxConstraints.from_obstacle(
            mesh_mid, ObstacleSpec.constant_level(0.01, region="long_edges"))
        b = assemble_load(mesh_mid, LoadSpec.antisym_pair(np.pi / 2, 0.1))
        sol = solve_obstacle(operator_mid, b, box)
        even, _ = symmetry_decompose(sol.field)
        assert even.sup_norm() <= 1e-10 * max(sol.field.sup_norm(), 1e-30)

    def test_even_load_even_obstacles_kills_odd_part(self, operator_mid,
                                                     mesh_mid):
        box = BoxConstraints.from_obstacle(
            mesh_mid, ObstacleSpec.constant_level(0.5, region="full"))
        b = assemble_load(mesh_mid, LoadSpec(density=lambda x, y: np.sin(x)
                                             * np.cos(y)))
        sol = solve_obstacle(operator_mid, b, box)
        _, odd = symmetry_decompose(sol.field)
        assert odd.sup_norm() <= 1e-10 * max(sol.field.sup_norm(), 1e-30)

    def test_x_mirror_invariance(self, operator_mid, mesh_mid):
        from hingedplate.fem import reflect_x
        box = BoxConstraints.from_obstacle(
            mesh_mid, ObstacleSpec.constant_level(0.6, region="full"))
        b = assemble_load(mesh_mid, SIN_LOAD)  # sin(x) = sin(pi - x)
        sol = solve_obstacle(operator_mid, b, box)
        mirrored = reflect_x(sol.field)
        diff = np.max(np.abs(mirrored.dofs - sol.field.dofs))
        assert diff <= 1e-10 * max(sol.field.sup_norm(), 1e-30)


class TestReinforcedAndWeighted:
    def _half_mask(self, mesh, alpha=0.5, beta=2.0):
        sel = np.zeros((mesh.ny, mesh.nx), dtype=bool)
        sel[:, : mesh.nx // 2] = True
        return ReinforcementMask(sel, alpha=alpha, beta=beta)

    def test_degenerate_mask_reduces_to_base(self, mesh_small, params,
                                             operator_small):
        sel = np.ones((mesh_small.ny, mesh_small.nx), dtype=bool)
        mask = ReinforcementMask(sel, alpha=1.0, beta=1.0)
        b = assemble_load(mesh_small, SIN_LOAD)
        box = far_box(mesh_small)
        base = solve_obstacle(operator_small, b, box)
        reinforced = solve_obstacle(
            PlateOperator.build(mesh_small, params, mask=mask), b, box)
        assert np.array_equal(reinforced.field.dofs, base.field.dofs)

    def test_stiffer_plate_deflects_less(self, mesh_small, params,
                                         operator_small):
        sel = np.ones((mesh_small.ny, mesh_small.nx), dtype=bool)
        mask = ReinforcementMask(sel, alpha=1.0, beta=10.0)  # D = whole plate
        b = assemble_load(mesh_small, SIN_LOAD)
        box = far_box(mesh_small)
        base = solve_obstacle(operator_small, b, box)
        stiff = solve_obstacle(
            PlateOperator.build(mesh_small, params, mask=mask), b, box)
        assert stiff.field.sup_norm() < base.field.sup_norm()

    def test_swapping_regions_changes_energy(self, mesh_small, params):
        # stiffening the left quarter vs the right three quarters; the two
        # minima are genuinely different (frozen regression values)
        sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        sel[:, :4] = True
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.0)
        b = assemble_load(mesh_small, SIN_LOAD)
        box = far_box(mesh_small)
        vals = []
        for m in (mask, mask.complement()):
            op = PlateOperator.build(mesh_small, params, mask=m)
            sol = solve_obstacle(op, b, box)
            x = sol.field.dofs
            vals.append(0.5 * x @ (op.form.matrix @ x) - b.astype(float) @ x)
        assert vals[0] == pytest.approx(-0.304712491408885, rel=1e-9)
        assert vals[1] == pytest.approx(-0.103957703095207, rel=1e-9)

    def test_densityweighted_zero_and_degenerate(self, operator_small,
                                                 mesh_small):
        sel = np.ones((mesh_small.ny, mesh_small.nx), dtype=bool)
        degenerate = ReinforcementMask(sel, alpha=1.0, beta=1.0)
        box = far_box(mesh_small)
        zero = solve_obstacle(operator_small, assemble_load(
            mesh_small, LoadSpec(density=0.0), weight=degenerate), box)
        assert np.all(zero.field.dofs == 0.0)
        plain = solve_obstacle(
            operator_small, assemble_load(mesh_small, SIN_LOAD), box)
        weighted = solve_obstacle(operator_small, assemble_load(
            mesh_small, SIN_LOAD, weight=degenerate), box)
        assert np.array_equal(weighted.field.dofs, plain.field.dofs)

    def test_densityweighted_bounded_by_scaled_profile(self, operator_small,
                                                       mesh_small, params):
        mask = self._half_mask(mesh_small)
        box = far_box(mesh_small)
        sol = solve_obstacle(operator_small, assemble_load(
            mesh_small, LoadSpec(density=1.0), weight=mask), box)
        state = SeriesState(params, m_max=400)
        for j in (0, mesh_small.ny // 2, mesh_small.ny):
            y = mesh_small.ys[j]
            profile = uniform_load_profile((mesh_small.xs, y), state)
            assert np.all(sol.field.value_grid()[j] <=
                          mask.beta * profile + 1e-6)

    def test_densityweighted_rejects_mass_only_loads(self, operator_small,
                                                     mesh_small):
        sel = np.ones((mesh_small.ny, mesh_small.nx), dtype=bool)
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.0)
        with pytest.raises(ValueError):
            solve_obstacle(operator_small, assemble_load(
                mesh_small, LoadSpec(point_masses=((1.0, 0.0, 1.0),)),
                weight=mask), far_box(mesh_small))


class TestKKTReport:
    def test_contact_free_report(self, operator_small, mesh_small):
        b = assemble_load(mesh_small, SIN_LOAD)
        box = far_box(mesh_small)
        sol = solve_obstacle(operator_small, b, box)
        rep = kkt_report(sol, operator_small, b, box)
        assert rep["stationarity"] <= 1e-8
        assert rep["complementarity"] == 0.0
        assert rep["feasibility"] == 0.0

    def test_binding_report(self, operator_small, mesh_small):
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.3, region="full"))
        b = assemble_load(mesh_small, SIN_LOAD)
        sol = solve_obstacle(operator_small, b, box)
        rep = kkt_report(sol, operator_small, b, box)
        assert sol.upper_contact.size > 0
        assert rep["stationarity"] <= 1e-8
        assert rep["complementarity"] <= 1e-8
        assert rep["feasibility"] == 0.0


class TestBruteForceOracle:
    """Dense active-set enumeration on a small real instance."""

    def _oracle(self, a, b, cons_pos, lo, hi, tol=1e-9):
        n = a.shape[0]
        best = None
        for pattern in itertools.product((0, 1, 2), repeat=len(cons_pos)):
            fixed_idx = [p for p, s in zip(cons_pos, pattern) if s != 0]
            fixed_val = [lo[i] if s == 1 else hi[i]
                         for i, (p, s) in enumerate(zip(cons_pos, pattern))
                         if s != 0]
            freei = np.setdiff1d(np.arange(n), fixed_idx)
            x = np.zeros(n)
            if fixed_idx:
                x[fixed_idx] = fixed_val
            rhs = b[freei] - a[np.ix_(freei, fixed_idx)] @ x[fixed_idx] \
                if fixed_idx else b[freei]
            x[freei] = np.linalg.solve(a[np.ix_(freei, freei)], rhs)
            lam = b - a @ x
            ok = True
            for i, (p, s) in enumerate(zip(cons_pos, pattern)):
                if s == 0:
                    if not (lo[i] - tol <= x[p] <= hi[i] + tol):
                        ok = False
                        break
                elif s == 1 and lam[p] > tol:
                    ok = False
                    break
                elif s == 2 and lam[p] < -tol:
                    ok = False
                    break
            if ok:
                energy = 0.5 * x @ a @ x - b @ x
                if best is None or energy < best[1] - 1e-15:
                    best = (x, energy)
        assert best is not None, "oracle found no KKT point"
        return best[0]

    def test_solver_matches_enumeration(self, params):
        mesh = Mesh(6, 2, params.half_width)  # 84 dofs < 200
        op = PlateOperator.build(mesh, params)
        rng = np.random.default_rng(99)
        rhs = np.zeros(mesh.n_dofs)
        rhs[op.free_idx] = rng.normal(scale=1e-3, size=op.free_idx.size)

        nodes = rng.choice(np.arange(mesh.n_nodes), size=6, replace=False)
        nodes = np.array([n for n in nodes
                          if op.free[4 * n + DOF_VALUE]])[:5]
        n = mesh.n_nodes
        mask = np.zeros(n, dtype=bool)
        mask[nodes] = True
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
        lin = solve_linear(op, rhs.astype(np.longdouble))
        span = max(1e-6, lin.sup_norm())
        lower[nodes] = -rng.uniform(0.05, 0.4, nodes.size) * span
        upper[nodes] = rng.uniform(0.05, 0.4, nodes.size) * span
        box = BoxConstraints(mask, lower, upper)

        sol = solve_obstacle(op, rhs.astype(np.longdouble), box)
        assert sol.upper_contact.size + sol.lower_contact.size > 0

        a = op.form.matrix[op.free_idx][:, op.free_idx].toarray()
        bf = rhs[op.free_idx]
        cons_pos = [int(np.flatnonzero(op.free_idx == 4 * nd + DOF_VALUE)[0])
                    for nd in nodes]
        x_oracle = self._oracle(a, bf, cons_pos, lower[nodes], upper[nodes])
        diff = np.max(np.abs(sol.field.dofs[op.free_idx] - x_oracle))
        assert diff <= 1e-8 * max(1.0, np.max(np.abs(x_oracle)))
