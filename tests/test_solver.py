"""Box-constrained solves: certificates, symmetry transfer, oracle agreement."""

import dataclasses
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from hingedplate import (BoxConstraints, DofField, LoadSpec, Mesh,
                         ObstacleSpec, ReinforcementMask, SeriesState,
                         antisym_solution, kkt_report, solve_linear,
                         solve_obstacle, symmetry_decompose,
                         uniform_load_profile)
from hingedplate import solver
from hingedplate.fem import (DOF_VALUE, MIRRORS, assemble_load, mirror_axes,
                             mirror_field)
from hingedplate.solver import (IterationLimitError, PlateOperator,
                                SolverError, mirror_solution, mirror_symmetries)

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
        load = (np.pi / 2, params.half_width)
        b = assemble_load(mesh_mid, LoadSpec.antisym_pair(*load))
        fld = solve_linear(operator_mid, b)
        grid = fld.value_grid()
        for (i, j) in [(16, 8), (16, 0), (10, 8), (24, 4)]:
            x, y = mesh_mid.xs[i], mesh_mid.ys[j]
            exact = antisym_solution(load, (x, y), state)
            assert grid[j, i] == pytest.approx(
                exact, rel=5e-3, abs=1e-4 * abs(exact) + 1e-9)


    def test_a_large_residual_is_refused(self, monkeypatch, operator_small,
                                         mesh_small):
        """A solve whose residual exceeds 1e-10 relative is refused: the
        operator's ``solve_free`` returns its solve with its first free dof
        raised by 1e-3 of the largest entry."""
        b = assemble_load(mesh_small, LoadSpec(density=1.0))
        solve = operator_small.solve_free

        def perturbed(rhs):
            x = solve(rhs)
            x[operator_small.free_idx[0]] += 1e-3 * np.max(np.abs(x))
            return x

        monkeypatch.setattr(operator_small, "solve_free", perturbed)
        with pytest.raises(SolverError, match=r"linear solve residual \S+ above "
                                              "1e-10; operator may be singular"):
            solve_linear(operator_small, b)


class TestNonFiniteCertificates:
    @pytest.mark.parametrize("weight, stat, scale", [
        (1e307, "nan", "nan"), (1e305, "0.000e+00", "inf")])
    def test_certificates_refuse_an_overflowing_solve(self, params, weight,
                                                       stat, scale):
        """A NaN field passes every comparison, and an overflowed scale reads
        any residual as 0: both certificates refuse the solve instead."""
        mesh = Mesh(8, 2, params.half_width)
        op = PlateOperator.build(mesh, params)
        rhs = assemble_load(mesh, LoadSpec(point_masses=((1.0, 0.0, weight),)))
        n = mesh.n_nodes
        box = BoxConstraints(np.full(n, -1e308), np.full(n, 1e308))
        message = re.escape(f"residual {stat} or its scale {scale} is not finite")
        with pytest.raises(SolverError, match=message):
            solve_obstacle(op, rhs, box)
        with pytest.raises(SolverError, match=message):
            solve_linear(op, rhs)


class TestSolveObstacle:
    def test_inactive_obstacles_reproduce_linear_exactly(
            self, operator_small, mesh_small):
        b = assemble_load(mesh_small, SIN_LOAD)
        linear = solve_linear(operator_small, b)
        sol = solve_obstacle(operator_small, b, far_box(mesh_small))
        assert np.array_equal(sol.field.dofs, linear.dofs)
        assert not (sol.lower_contact.size or sol.upper_contact.size)
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
            assert not (sol.lower_contact.size or sol.upper_contact.size)

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
        pin = mesh_small.node_index(8, 2)
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
        lower[pin] = upper[pin] = 0.0
        box = BoxConstraints(lower, upper)
        b = assemble_load(mesh_small, SIN_LOAD)
        sol = solve_obstacle(operator_small, b, box)
        assert sol.field.node_values[pin] == 0.0

    def test_invalid_boxes_rejected(self, mesh_small):
        n = mesh_small.n_nodes
        with pytest.raises(ValueError):
            BoxConstraints(np.full(n, 0.5), np.full(n, 1.0))  # lower > 0
        with pytest.raises(ValueError):
            BoxConstraints(np.full(n, -1.0), np.full(n, -0.5))  # upper < 0

    def test_misaligned_bounds_rejected(self, mesh_small):
        n = mesh_small.n_nodes
        for lower, upper in [(np.full(n - 1, -1.0), np.full(n, 1.0)),
                             (np.full(n, -1.0), np.full((n, 1), 1.0))]:
            with pytest.raises(ValueError, match="must have one shape"):
                BoxConstraints(lower, upper)

    @pytest.mark.parametrize("entry", ["solve", "solve-y", "symmetries", "image", "kkt"])
    @pytest.mark.parametrize("n", [65, 100])
    def test_a_box_of_another_mesh_is_refused(self, operator_small, mesh_small,
                                              n, entry):
        """Every entry checks a box against the operator's mesh, 85 nodes
        here, before any mirror test or solve.  Unchecked, a 65-node box
        with upper 0.05 left the last 20 nodes free and was certified with
        sup 0.05003; offered the y flip, or at 100 nodes, it raised a bare
        IndexError."""
        b = assemble_load(mesh_small, LoadSpec(density=1.0))
        sol = solve_obstacle(operator_small, b, BoxConstraints(
            np.full(mesh_small.n_nodes, -np.inf), np.full(mesh_small.n_nodes, 0.05)))
        box = BoxConstraints(np.full(n, -np.inf), np.full(n, 0.05))
        entries = {
            "solve": lambda: solve_obstacle(operator_small, b, box),
            "solve-y": lambda: solve_obstacle(operator_small, b, box, ((False, True),)),
            "symmetries": lambda: mirror_symmetries(mesh_small, box),
            "image": lambda: mirror_solution(sol, operator_small, b, box,
                                             (False, True, 1)),
            "kkt": lambda: kkt_report(sol, operator_small, b, box),
        }
        with pytest.raises(ValueError, match=f"the box has {n} nodes, the mesh 85"):
            entries[entry]()

    def test_an_essential_dof_cannot_be_pinned(self, operator_small, mesh_small):
        # the value dof of a node on the hinged edge x = 0, beside a free one
        free = 4 * mesh_small.node_index(3, 1) + DOF_VALUE
        hinged = 4 * mesh_small.node_index(0, 1) + DOF_VALUE
        b = assemble_load(mesh_small, SIN_LOAD)
        with pytest.raises(SolverError, match="cannot pin an essentially"):
            operator_small.solve_pinned(b, np.array([free, hinged]), np.zeros(2))

    def test_nan_bounds_rejected(self, operator_small, mesh_small):
        """A NaN bound passes ``lower > 0`` and ``upper < 0`` alike;
        unrejected, a NaN upper bound on the whole plate certified the
        unconstrained field (sup 1.32) with no contact.  A NaN bound on any
        one node is rejected, the other bound infinite or not.  Infinite
        bounds stay allowed: a box whose bounds are all +-inf boxes no node
        and solves as the unbounded box."""
        n = mesh_small.n_nodes
        for lower, upper in [(-1.0, np.nan), (np.nan, 1.0), (np.nan, np.nan)]:
            with pytest.raises(ValueError, match="lower <= 0 <= upper"):
                BoxConstraints(np.full(n, lower), np.full(n, upper))
        for side, node, other in itertools.product(("lower", "upper"), (0, n // 2, n - 1),
                                                   (1.0, np.inf)):
            bounds = {"lower": np.full(n, -other), "upper": np.full(n, other)}
            bounds[side][node] = np.nan
            with pytest.raises(ValueError, match="lower <= 0 <= upper"):
                BoxConstraints(**bounds)
        box = BoxConstraints(np.full(n, -np.inf), np.full(n, np.inf))
        b = assemble_load(mesh_small, LoadSpec(density=1.0))
        sol = solve_obstacle(operator_small, b, box)
        free = solve_obstacle(operator_small, b, BoxConstraints.unbounded(mesh_small))
        assert np.array_equal(sol.field.dofs, free.field.dofs)
        assert sol.iterations == free.iterations
        assert np.array_equal(sol.contact, free.contact)
        assert sol.field.sup_norm() == pytest.approx(
            solve_linear(operator_small, b).sup_norm())

    @pytest.mark.parametrize("half_width", [0.1, 5e-12])
    def test_long_edges_are_the_outer_node_rows(self, half_width):
        """Long-edge guides box node rows 0 and ny alone.  On a plate of
        half-width 5e-12 all rows lie within 1e-12 of the edge rows, and an
        absolute tolerance on |y| = l boxed rows 1 and ny - 1 too."""
        mesh = Mesh(8, 10, half_width)
        box = BoxConstraints.from_obstacle(mesh, ObstacleSpec.constant_level(0.01))
        boxed = np.isfinite(box.upper)
        rows = boxed.reshape(mesh.ny + 1, mesh.nx + 1)
        assert rows[[0, mesh.ny]].all() and not rows[1:mesh.ny].any()
        assert np.all(box.upper[boxed] == 0.01)
        assert np.all(box.lower[~boxed] == -np.inf)

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

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_iteration_budget_error_carries_the_iterate_state(
            self, operator_small, mesh_small, monkeypatch, budget):
        """The error names the iterations spent and the contacts of the
        iterate it stopped at: here each blocking step puts one more node on
        the guide, and the settled solve has 5 contacts in 5 iterations."""
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.2, region="full"))
        b = assemble_load(mesh_small, SIN_LOAD)
        settled = solve_obstacle(operator_small, b, box)
        assert settled.iterations == settled.upper_contact.size == 5
        monkeypatch.setattr(solver, "MAX_ITERATIONS", budget)
        with pytest.raises(IterationLimitError) as err:
            solve_obstacle(operator_small, b, box)
        assert err.value.iterations == budget
        assert err.value.contacts == budget + 1

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_iteration_budget_residual_is_the_full_iterates(
            self, operator_small, mesh_small, monkeypatch, budget):
        """The error's residual is the KKT violation of the iterate the loop
        stopped at, rebuilt in full: here against the same blocking steps
        taken in the full space, each toward a refined pinned solve."""
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.2, region="full"))
        b = assemble_load(mesh_small, SIN_LOAD)
        dofs, lo, hi = solver._box_dof_arrays(operator_small, box)
        x = np.zeros(mesh_small.n_dofs, dtype=solver.LONG)
        side = np.zeros(dofs.size, dtype=np.int8)
        for _ in range(budget):
            on = side != 0
            x_star = operator_small.solve_pinned(b, dofs[on], hi[on])
            d = (x_star - x).astype(float)[dofs]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(~on & (d > 0.0), (hi - x.astype(float)[dofs]) / d, np.inf)
            alpha = float(t.min())
            assert alpha < 1.0
            blocked = t <= alpha * (1.0 + 1e-12)
            x = x + solver.LONG(alpha) * (x_star - x)
            x[dofs[blocked]] = hi[blocked]
            side[blocked] = 1
        want = solver._kkt_violation(operator_small, b, x, solver._residual(
            operator_small, b, x), dofs, lo == hi, side)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", budget)
        with pytest.raises(IterationLimitError) as err:
            solve_obstacle(operator_small, b, box)
        assert err.value.contacts == np.count_nonzero(side)
        assert err.value.residual == pytest.approx(want, rel=1e-6)

    def test_an_iterate_certified_at_the_budget_is_the_result(
            self, operator_small, mesh_small, monkeypatch):
        """A guide 1e-6 below the free solve's peak: the one blocking step
        scales the free solve by 1 - 1e-6 and puts the peak on the guide, an
        iterate that already passes the certificate, so a budget of one
        iteration returns it where the loop would spend a second."""
        b = assemble_load(mesh_small, LoadSpec(density=1.0))
        peak = float(np.max(solve_linear(operator_small, b).dofs[DOF_VALUE::4]))
        box = BoxConstraints.from_obstacle(mesh_small, ObstacleSpec.constant_level(
            (1.0 - 1e-6) * peak, region="full"))
        settled = solve_obstacle(operator_small, b, box)
        assert settled.iterations == 2 and settled.upper_contact.size > 0
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        sol = solve_obstacle(operator_small, b, box)
        assert sol.iterations == 1
        assert np.array_equal(sol.upper_contact, settled.upper_contact)
        assert sol.lower_contact.size == 0
        report = kkt_report(sol, operator_small, b, box)
        assert report["stationarity"] <= solver.TOL and report["feasibility"] == 0.0


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
        assert not (sol.lower_contact.size or sol.upper_contact.size)
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

    @staticmethod
    def _force_a_release(monkeypatch):
        """Make the refined check of the first settled set read its first
        contact's multiplier with the wrong sign; returns the list of the
        pinned dofs of each refined solve and the list of the forced dof."""
        pinned, forced = [], []
        solve_pinned, residual = PlateOperator.solve_pinned, solver._residual

        def recorded(self, rhs, dofs, values):
            pinned.append(dofs.copy())
            return solve_pinned(self, rhs, dofs, values)

        def flipped(operator, rhs, x):
            r = residual(operator, rhs, x)
            if pinned and not forced:
                forced.append(pinned[0][0])
                r[forced[0]] = -r[forced[0]]
            return r

        monkeypatch.setattr(PlateOperator, "solve_pinned", recorded)
        monkeypatch.setattr(solver, "_residual", flipped)
        return pinned, forced

    def test_a_refined_check_that_disagrees_goes_on(self, mesh_small, params,
                                                   monkeypatch):
        """The refined check of the first settled set is made to read one
        contact's multiplier with the wrong sign: that set is not returned.
        The loop releases the contact from that step's own solve on the box
        rows and goes on; the guide blocks the node again, and the second
        settled set passes its check, the solve of the unforced run bit for
        bit."""
        op = PlateOperator.build(mesh_small, params)
        b = assemble_load(mesh_small, SIN_LOAD)
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.3, region="full"))
        want = solve_obstacle(op, b, box)
        pinned, forced = self._force_a_release(monkeypatch)
        sol = solve_obstacle(op, b, box)
        assert len(forced) == 1 and len(pinned) == 2
        assert forced[0] // 4 in want.upper_contact
        assert sol.iterations == want.iterations + 2  # the release, the block
        assert np.array_equal(sol.contact, want.contact)
        assert np.array_equal(sol.field.dofs, want.field.dofs)
        assert kkt_report(sol, op, b, box)["stationarity"] <= solver.TOL

    @pytest.mark.parametrize("budget", [2, 3])
    def test_the_budget_right_after_a_refined_release(self, mesh_small, params,
                                                      monkeypatch, budget):
        """The release forced as above is the second iteration.  At a budget
        of two the full iterate is rebuilt from ``x0`` and the columns of
        that step with the node released, whose multiplier, 4.27e-6
        relative, is then a KKT violation.  At three the guide has blocked
        the node again, and the rebuilt iterate is certified with the
        contacts of the unforced run."""
        op = PlateOperator.build(mesh_small, params)
        b = assemble_load(mesh_small, SIN_LOAD)
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.3, region="full"))
        want = solve_obstacle(op, b, box)
        assert want.iterations == want.upper_contact.size == 2
        _, forced = self._force_a_release(monkeypatch)
        monkeypatch.setattr(solver, "MAX_ITERATIONS", budget)
        if budget == 2:
            with pytest.raises(IterationLimitError) as err:
                solve_obstacle(op, b, box)
            assert (err.value.iterations, err.value.contacts) == (2, 1)
            assert err.value.residual == pytest.approx(4.27e-6, rel=1e-3)
        else:
            sol = solve_obstacle(op, b, box)
            assert sol.iterations == 3
            assert np.array_equal(sol.contact, want.contact)
            assert np.allclose(sol.field.dofs, want.field.dofs, rtol=0, atol=1e-10)
            assert kkt_report(sol, op, b, box)["stationarity"] <= solver.TOL
        assert len(forced) == 1


class TestActiveSetPath:
    """Large contact sets keep their iteration counts and contact sets
    exactly, as recorded in ``oracles/active_set_paths.json``."""

    CASES = json.loads((Path(__file__).parent / "oracles" / "active_set_paths.json")
                       .read_text(encoding="utf-8"))["cases"]
    Z_MAX = 1.3217633217236697  # sup-norm of the unit-load deflection at 64x16

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_full_plate_contact_path(self, params, case):
        want = self.CASES[case]
        mesh = Mesh(64, 16, params.half_width)
        box = BoxConstraints.from_obstacle(mesh, ObstacleSpec(
            lower=-1.0, upper=want["fraction"] * self.Z_MAX, region="full"))
        sol = solve_obstacle(PlateOperator.build(mesh, params),
                             assemble_load(mesh, LoadSpec(density=1.0)), box,
                             ((True, False), (False, True)))
        assert sol.iterations == want["iterations"]
        assert sol.lower_contact.tolist() == want["lower"]
        assert sol.upper_contact.tolist() == want["upper"]

    def test_refined_work_does_not_grow_with_iterations(self, params, monkeypatch):
        """The 97 iterations of ``contact-limit`` are decided on the box rows:
        the one settled set gets the one pinned solve, so the extended-precision
        products are those of the free solve (REFINE_STEPS), of the pinned
        solve (REFINE_STEPS + 1), its residual and the image's residual."""
        want = self.CASES["contact-limit"]
        mesh = Mesh(64, 16, params.half_width)
        box = BoxConstraints.from_obstacle(mesh, ObstacleSpec(
            lower=-1.0, upper=want["fraction"] * self.Z_MAX, region="full"))
        op = PlateOperator.build(mesh, params)
        rhs = assemble_load(mesh, LoadSpec(density=1.0))
        pinned, products = [], []
        solve_pinned = PlateOperator.solve_pinned
        matvec = type(op.form).matvec_extended

        def recorded(self, rhs, dofs, values):
            pinned.append(dofs.size)
            return solve_pinned(self, rhs, dofs, values)

        def counted(self, x):
            products.append(x.size)
            return matvec(self, x)

        monkeypatch.setattr(PlateOperator, "solve_pinned", recorded)
        monkeypatch.setattr(type(op.form), "matvec_extended", counted)
        sol = solve_obstacle(op, rhs, box, ((True, False), (False, True)))
        assert sol.iterations == want["iterations"] == 97
        assert len(pinned) == 1 and pinned[0] > 0
        assert len(products) == solver.REFINE_STEPS + (solver.REFINE_STEPS + 1) + 2


class TestSPDFactor:
    """Each operator factors its free block once, by a symmetric elimination
    of the SPD block; a pinned solve factors only its Schur block, formed
    from cached columns of the free factor."""

    @staticmethod
    def _record_factors(monkeypatch):
        seen = []
        splu = solver.spla.splu

        def recorded(a, **kwargs):
            seen.append((a, splu(a, **kwargs)))
            return seen[-1][1]

        monkeypatch.setattr(solver.spla, "splu", recorded)
        return seen

    @staticmethod
    def _value_dofs(op, picks):
        value_dofs = op.free_idx[op.free_idx % 4 == DOF_VALUE]
        return value_dofs[picks]

    @staticmethod
    def _columns(op, pos):
        """``A^-1 e_p`` at the free positions ``pos``, from the free factor."""
        eye = np.zeros((op.free_idx.size, len(pos)), order="F")
        eye[pos, np.arange(len(pos))] = 1.0
        return op._free_factor.solve(eye)

    @pytest.mark.parametrize("nx, ny", [(16, 4), (64, 16)])
    @pytest.mark.parametrize("reinforced", [False, True], ids=["base", "E1"])
    def test_blocks_are_symmetric_eliminations(self, params, nx, ny,
                                               reinforced, monkeypatch):
        mesh = Mesh(nx, ny, params.half_width)
        sel = np.zeros((ny, nx), dtype=bool)
        sel[:, :nx // 2] = True
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.5) if reinforced else None
        op = PlateOperator.build(mesh, params, mask=mask)
        seen = self._record_factors(monkeypatch)
        b = assemble_load(mesh, SIN_LOAD)
        op.solve_free(b)
        pinned = self._value_dofs(op, [30, 3, 17])
        op.solve_pinned(b, pinned, np.array([0.01, -0.02, 0.0]))
        assert len(seen) == 2
        for a, lu in seen:
            assert a.format == "csc"
            assert np.array_equal(lu.perm_r, lu.perm_c)
            assert np.all(lu.U.diagonal() > 0.0)

        # the free block is diag(s) K[free][:, free] diag(s), s = diag(K)^(-1/2),
        # and the Schur block the symmetrized W[P] of the columns W = A^-1 E
        # at the sorted pinned positions P, each formed bit for bit
        k_free = op.form.matrix[op.free_idx][:, op.free_idx].tocsc()
        s = 1.0 / np.sqrt(k_free.diagonal())
        pos = np.sort(op._pos_of_dof[pinned])
        schur = self._columns(op, pos)[pos]
        refs = [(sp.diags(s) @ k_free @ sp.diags(s)).tocsc(),
                sp.csc_matrix(0.5 * (schur + schur.T))]
        for (a, _), ref in zip(seen, refs):
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(a, part), getattr(ref, part))

    def test_free_block_is_factored_once_per_operator(self, params, monkeypatch):
        mesh = Mesh(32, 8, params.half_width)
        b = assemble_load(mesh, SIN_LOAD)
        op = PlateOperator.build(mesh, params)
        seen = self._record_factors(monkeypatch)
        sets = [[5], [5, 40, 9], [40], [], [2, 60, 61, 62]]
        for picks in sets:  # a pinned first solve factors the free block too
            dofs = self._value_dofs(op, picks)
            op.solve_pinned(b, dofs, np.full(dofs.size, 0.001))
        op.solve_free(b)
        shapes = [a.shape[0] for a, _ in seen]
        assert shapes == [op.free_idx.size] + [len(p) for p in sets if p]

    def test_cache_holds_the_columns_of_pinned_dofs_only(self, params):
        mesh = Mesh(32, 8, params.half_width)
        b = assemble_load(mesh, SIN_LOAD)
        op = PlateOperator.build(mesh, params)
        op.solve_free(b)
        assert op._n_columns == 0 and np.all(op._slot == -1)
        ever = set()
        for picks in ([7, 3], [3, 11, 50], [11]):
            dofs = self._value_dofs(op, picks)
            op.solve_pinned(b, dofs, np.zeros(dofs.size))
            ever |= set(op._pos_of_dof[dofs].tolist())
            assert set(np.flatnonzero(op._slot >= 0).tolist()) == ever
            # one slot each, the first slots of the array, which at most
            # doubles its capacity to take new columns
            assert sorted(op._slot[op._slot >= 0].tolist()) == list(range(len(ever)))
            assert op._n_columns == len(ever) <= op._columns.shape[1] <= 2 * len(ever)
            assert op._columns.flags.f_contiguous
        pos = sorted(ever)
        want = self._columns(op, pos)
        for j, p in enumerate(pos):
            assert np.array_equal(op._columns[:, op._slot[p]], want[:, j])

    def test_pinned_solve_ignores_cache_history_and_order(self, params):
        mesh = Mesh(32, 8, params.half_width)
        b = assemble_load(mesh, LoadSpec(
            density=lambda x, y: np.sin(x) - 5.0 * np.sin(3.0 * x) + 20.0 * y))
        rng = np.random.default_rng(3)
        cold = PlateOperator.build(mesh, params)
        dofs = self._value_dofs(cold, rng.choice(150, 24, replace=False))
        values = rng.uniform(-0.01, 0.01, dofs.size)
        want = cold.solve_pinned(b, dofs, values)
        warm = PlateOperator.build(mesh, params)
        for k in (5, 17, 24):  # the columns come in three other blocks
            warm.solve_pinned(b, dofs[:k][::-1], values[:k][::-1])
        for perm in (np.arange(dofs.size), rng.permutation(dofs.size)):
            for op in (cold, warm):
                got = op.solve_pinned(b, dofs[perm], values[perm])
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("case", ["random", "contacts"])
    def test_pinned_solve_matches_the_principal_block(self, params, case):
        """An oracle that factors the principal block of the unpinned free
        dofs directly, refined once against the extended-precision residual."""
        mesh = Mesh(32, 8, params.half_width)
        op = PlateOperator.build(mesh, params)
        b = assemble_load(mesh, LoadSpec(density=1.0))
        if case == "random":
            rng = np.random.default_rng(11)
            dofs = self._value_dofs(op, rng.choice(150, 30, replace=False))
            values = rng.uniform(-0.02, 0.02, dofs.size)
        else:
            box = BoxConstraints.from_obstacle(
                mesh, ObstacleSpec.constant_level(0.2, region="full"))
            sol = solve_obstacle(op, b, box)
            assert sol.upper_contact.size > 10
            dofs = 4 * sol.upper_contact + DOF_VALUE
            values = box.upper[sol.upper_contact]
        got = op.solve_pinned(b, dofs, values)
        assert np.array_equal(got[dofs], values.astype(solver.LONG))

        rest = op.free_idx[~np.isin(op.free_idx, dofs)]
        k_rest = op.form.matrix[rest][:, rest].tocsc()
        lu = sp.linalg.splu(k_rest)
        want = np.zeros(mesh.n_dofs, dtype=solver.LONG)
        want[dofs] = values
        for _ in range(2):
            r = (b - op.form.matvec_extended(want))[rest].astype(float)
            want[rest] += lu.solve(r).astype(solver.LONG)
        want = want.astype(float)
        err = np.max(np.abs(got.astype(float) - want)) / np.max(np.abs(want))
        assert err <= 1e-10

    def test_short_axis_start_fills_less(self, params):
        mesh = Mesh(64, 16, params.half_width)
        op = PlateOperator.build(mesh, params)
        op.solve_free(assemble_load(mesh, SIN_LOAD))
        lu = op._free_factor
        # the same block in plain dof order, under the same minimum degree
        idx = np.flatnonzero(op.free)
        k_idx = op.form.matrix[idx][:, idx]
        s = 1.0 / np.sqrt(k_idx.diagonal())
        plain = solver._spd_factor((sp.diags(s) @ k_idx @ sp.diags(s)).tocsc())
        assert lu.L.nnz + lu.U.nnz < plain.L.nnz + plain.U.nnz


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
        box = BoxConstraints.from_obstacle(
            mesh_mid, ObstacleSpec.constant_level(0.6, region="full"))
        b = assemble_load(mesh_mid, SIN_LOAD)  # sin(x) = sin(pi - x)
        sol = solve_obstacle(operator_mid, b, box)
        mirrored = mirror_field(sol.field, (True, False, 1))
        diff = np.max(np.abs(mirrored.dofs - sol.field.dofs))
        assert diff <= 1e-10 * max(sol.field.sup_norm(), 1e-30)


def _cells(signs):
    return LoadSpec(density=signs)


#: (group, load, obstacle): data invariant under each group, with contacts
REDUCIBLE = {
    "x+y+": (((True, False, 1), (False, True, 1)), LoadSpec(density=1.0),
             ObstacleSpec(lower=-1.0, upper=0.25, region="full")),
    "x+": (((True, False, 1),), _cells([[1.0, 1.0], [0.2, 0.2]]),
           ObstacleSpec(lower=-1.0, upper=0.2, region="full")),
    "y+": (((False, True, 1),), _cells([[1.0, 0.3], [1.0, 0.3]]),
           ObstacleSpec(lower=-1.0, upper=0.3, region="full")),
    "y-": (((False, True, -1),), _cells([[-1.0, -0.3], [1.0, 0.3]]),
           ObstacleSpec.constant_level(0.002, region="long_edges")),
}


class TestMirrorImages:
    """A solve mapped through a mirror of the box onto the mirrored load."""

    def test_symmetries_of_boxes_and_masks(self, mesh_small):
        guides = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.01, region="long_edges"))
        assert mirror_symmetries(mesh_small, guides) == list(MIRRORS)
        bounds = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec(lower=-1.0, upper=0.25, region="full"))
        assert mirror_symmetries(mesh_small, bounds) == [
            g for g in MIRRORS if g[2] == 1]
        sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        sel[:, :3] = True
        mask = ReinforcementMask(sel, 0.5, 2.5)
        assert mirror_symmetries(mesh_small, guides, [mask]) == [
            g for g in MIRRORS if not g[0]]
        # guides on the lower long edge only
        upper = guides.upper.copy()
        upper[-(mesh_small.nx + 1):] = np.inf
        one_edge = BoxConstraints(-upper, upper)
        assert mirror_symmetries(mesh_small, one_edge) == [
            g for g in MIRRORS if not g[1]]

    @pytest.mark.parametrize("element", MIRRORS)
    def test_image_is_the_solve_of_the_mirrored_load(self, operator_small,
                                                     mesh_small, element):
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.002, region="long_edges"))
        signs = np.array([[1.0, 0.3], [-0.2, 0.7]])
        mirrored = element[2] * np.flip(signs, mirror_axes(element))
        source = solve_obstacle(
            operator_small, assemble_load(mesh_small, _cells(signs)), box)
        rhs = assemble_load(mesh_small, _cells(mirrored))
        direct = solve_obstacle(operator_small, rhs, box)
        image = mirror_solution(source, operator_small, rhs, box, element)
        assert direct.upper_contact.size + direct.lower_contact.size > 0
        assert np.array_equal(image.upper_contact, direct.upper_contact)
        assert np.array_equal(image.lower_contact, direct.lower_contact)
        scale = np.max(np.abs(direct.field.dofs))
        assert np.max(np.abs(image.field.dofs - direct.field.dofs)) <= 1e-9 * scale
        assert kkt_report(image, operator_small, rhs, box)["stationarity"] <= 1e-9
        assert image.field.sup_norm() == source.field.sup_norm()

    def test_image_off_the_box_is_an_error(self, operator_small, mesh_small):
        """A field 1e-6 off passes the stationarity test (relative to
        |b| + |K| |x|), but its contacts sit above the guides: no image."""
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.012, region="long_edges"))
        source = solve_obstacle(
            operator_small, assemble_load(mesh_small, LoadSpec.point(0.8, 0.1)), box)
        assert source.upper_contact.size > 0
        rhs = assemble_load(mesh_small, LoadSpec.point(np.pi - 0.8, 0.1))
        off = dataclasses.replace(
            source, field=DofField(mesh_small, (1.0 + 1e-6) * source.field.dofs))
        with pytest.raises(SolverError, match="leaves the box"):
            mirror_solution(off, operator_small, rhs, box, (True, False, 1))

    def test_image_under_a_wrong_mirror_is_an_error(self, operator_small,
                                                    mesh_small):
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.002, region="long_edges"))
        signs = np.array([[1.0, 0.3], [-0.2, 0.7]])
        source = solve_obstacle(
            operator_small, assemble_load(mesh_small, _cells(signs)), box)
        rhs = assemble_load(mesh_small, _cells(np.flip(signs, 1)))
        with pytest.raises(SolverError):
            mirror_solution(source, operator_small, rhs, box, (False, True, 1))


#: the axis flips a vi-solve offers solve_obstacle: x and y
XY = ((True, False), (False, True))


def _reduced_solve(op, rhs, box, group):
    """The solve offered both axes, which the data must reduce by ``group``:
    the expansion of the solve on ``op.reduced(group)``."""
    assert solver._mirror_group(op, rhs, box, XY) == group
    sol = solve_obstacle(op, rhs, box, XY)
    assert group in op._reduced
    return sol


class TestOrbitReduction:
    """Solves on the invariant subspace, certified in the full space, against
    the full solve of the same data."""

    # odd element counts have no fixed line
    @pytest.mark.parametrize("nx, ny, case", [
        (nx, ny, case) for nx, ny in [(32, 8), (64, 16)] for case in sorted(REDUCIBLE)]
        + [(33, 9, "x+y+")])
    def test_reduced_and_full_solves_agree(self, params, nx, ny, case):
        group, load, obstacle = REDUCIBLE[case]
        mesh = Mesh(nx, ny, params.half_width)
        op = PlateOperator.build(mesh, params)
        rhs = assemble_load(mesh, load)
        box = BoxConstraints.from_obstacle(mesh, obstacle)
        full = solve_obstacle(op, rhs, box)
        reduced = _reduced_solve(op, rhs, box, group)
        assert full.upper_contact.size > 0
        assert np.array_equal(reduced.upper_contact, full.upper_contact)
        assert np.array_equal(reduced.lower_contact, full.lower_contact)
        scale = np.max(np.abs(full.field.dofs))
        assert np.max(np.abs(reduced.field.dofs - full.field.dofs)) <= 1e-9 * scale
        rep = kkt_report(reduced, op, rhs, box)
        assert rep["stationarity"] <= 1e-9
        assert rep["feasibility"] == 0.0 and rep["complementarity"] == 0.0
        vals = reduced.field.node_values
        assert np.all(vals[reduced.upper_contact] == obstacle.upper)
        assert np.all(vals[reduced.lower_contact] == obstacle.lower)
        assert reduced.iterations <= full.iterations

    def test_wrong_group_on_a_load_is_an_error(self, operator_mid, mesh_mid):
        """The y+ load is not x-invariant, though its box is: offered the x
        flip alone, the data fix no mirror, so there is no reduced problem."""
        _, load, obstacle = REDUCIBLE["y+"]
        rhs = assemble_load(mesh_mid, load)
        box = BoxConstraints.from_obstacle(mesh_mid, obstacle)
        assert solver._mirror_group(operator_mid, rhs, box, ((True, False),)) == ()

    def test_wrong_group_on_a_box_is_an_error(self, operator_mid, mesh_mid):
        """The load is y-odd, but negation maps the box [-1, 0.25] onto
        [-0.25, 1]: no reduced problem."""
        rhs = assemble_load(mesh_mid, _cells([[-1.0, -1.0], [1.0, 1.0]]))
        box = BoxConstraints.from_obstacle(
            mesh_mid, ObstacleSpec(lower=-1.0, upper=0.25, region="full"))
        assert solver._mirror_group(operator_mid, rhs, box, ((False, True),)) == ()

    def test_wrong_group_on_a_mask_is_an_error(self, params, mesh_mid):
        """An E1 mask on the left quarter: the x mirror maps the box and the
        load onto themselves, but not the stiffness, so no reduced problem."""
        sel = np.zeros((mesh_mid.ny, mesh_mid.nx), dtype=bool)
        sel[:, :mesh_mid.nx // 4] = True
        op = PlateOperator.build(mesh_mid, params,
                                 mask=ReinforcementMask(sel, 0.5, 2.5))
        _, load, obstacle = REDUCIBLE["x+"]
        rhs = assemble_load(mesh_mid, load)
        box = BoxConstraints.from_obstacle(mesh_mid, obstacle)
        assert solver._mirror_group(op, rhs, box, ((True, False),)) == ()

    def test_expanded_field_off_the_box_is_an_error(self, monkeypatch,
                                                    operator_small, mesh_small):
        """An expanded field 1e-6 off passes the stationarity test, but its
        contacts sit above the guides: the closing step of every image
        refuses it, as it refuses a mirror image."""
        rhs = assemble_load(mesh_small, LoadSpec(density=1.0))
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.012, region="long_edges"))
        reduced = []
        active_set = solver._active_set

        def off(op, b, constraints):
            # the reduced solve, its field moved 1e-6 off before expansion
            sol = active_set(op, b, constraints)
            reduced.append(sol)
            return dataclasses.replace(sol, field=DofField(
                sol.field.mesh, (1.0 + 1e-6) * sol.field.dofs))

        monkeypatch.setattr(solver, "_active_set", off)
        with pytest.raises(SolverError, match="leaves the box"):
            solve_obstacle(operator_small, rhs, box, XY)
        assert reduced[0].field.mesh.group == ((True, False, 1), (False, True, 1))
        assert reduced[0].upper_contact.size > 0

    def test_pinned_edges_keep_their_sides(self, operator_small, mesh_small):
        """lower == upper on the long edges: the expanded solve pins every
        edge node on the side its multiplier points to, as the direct solve
        does."""
        rhs = assemble_load(mesh_small, LoadSpec(density=1.0))
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec(lower=0.0, upper=0.0, region="long_edges"))
        full = solve_obstacle(operator_small, rhs, box)
        reduced = _reduced_solve(operator_small, rhs, box,
                                 ((True, False, 1), (False, True, 1)))
        assert reduced.upper_contact.size == 30 and reduced.lower_contact.size == 0
        assert np.array_equal(reduced.upper_contact, full.upper_contact)
        assert np.array_equal(reduced.lower_contact, full.lower_contact)
        assert np.all(reduced.multipliers[reduced.upper_contact] > 0.0)
        assert np.all(reduced.field.node_values[reduced.upper_contact] == 0.0)

    def test_direct_field_off_the_box_is_an_error(self, operator_small,
                                                  mesh_small):
        """A direct solve's field 1e-6 off, with its own contacts and
        residual, passes the stationarity test, but its contacts sit above
        the guides: the closing step refuses it as it refuses an image."""
        rhs = assemble_load(mesh_small, LoadSpec.point(0.8, 0.1))
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec.constant_level(0.012, region="long_edges"))
        sol = solve_obstacle(operator_small, rhs, box)
        assert sol.upper_contact.size > 0
        dofs, lo, hi = solver._box_dof_arrays(operator_small, box)
        x = (1.0 + 1e-6) * sol.field.dofs.astype(np.longdouble)
        with pytest.raises(SolverError, match="leaves the box"):
            solver._certified(operator_small, rhs, (dofs, lo, hi), x,
                              solver._residual(operator_small, rhs, x),
                              sol.contact[dofs // 4], sol.iterations)

    def test_closing_certificate_rejects_a_wrong_sign(self, operator_small,
                                                     mesh_small):
        """The shared closing step refuses a contact whose multiplier points
        into the box, whichever path built it."""
        rhs = assemble_load(mesh_small, LoadSpec(density=1.0))
        box = BoxConstraints.from_obstacle(
            mesh_small, ObstacleSpec(lower=-1.0, upper=0.25, region="full"))
        sol = solve_obstacle(operator_small, rhs, box)
        dofs, lo, hi = solver._box_dof_arrays(operator_small, box)
        x = sol.field.dofs.astype(np.longdouble)
        side = sol.contact[dofs // 4].copy()
        # call a free node a lower contact whose multiplier points up
        resid = solver._residual(operator_small, rhs, x)
        k = int(np.flatnonzero(side == 0)[0])
        resid[dofs[k]] = 1e-30
        side[k] = -1
        with pytest.raises(SolverError, match="points into the box"):
            solver._certified(operator_small, rhs, (dofs, lo, hi), x, resid,
                              side, sol.iterations)


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
        for m in (mask, ReinforcementMask(~sel, alpha=0.5, beta=2.0)):
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
        lower = np.full(n, -np.inf)
        upper = np.full(n, np.inf)
        lin = solve_linear(op, rhs.astype(np.longdouble))
        span = max(1e-6, lin.sup_norm())
        lower[nodes] = -rng.uniform(0.05, 0.4, nodes.size) * span
        upper[nodes] = rng.uniform(0.05, 0.4, nodes.size) * span
        box = BoxConstraints(lower, upper)

        sol = solve_obstacle(op, rhs.astype(np.longdouble), box)
        assert sol.upper_contact.size + sol.lower_contact.size > 0

        a = op.form.matrix[op.free_idx][:, op.free_idx].toarray()
        bf = rhs[op.free_idx]
        cons_pos = [int(np.flatnonzero(op.free_idx == 4 * nd + DOF_VALUE)[0])
                    for nd in nodes]
        x_oracle = self._oracle(a, bf, cons_pos, lower[nodes], upper[nodes])
        diff = np.max(np.abs(sol.field.dofs[op.free_idx] - x_oracle))
        assert diff <= 1e-8 * max(1.0, np.max(np.abs(x_oracle)))
