"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import time

import numpy as np
import pytest

from hingedplate import (BoxConstraints, LoadSpec, MaterialParams, Mesh,
                         ObstacleSpec, ReinforcementMask, ScanWindow,
                         SeriesState, analytic_bound_C, edge_gap_series_scan,
                         gap_profile, gap_threshold_M, green_value, kkt_report,
                         phi_m, placement_bound_report, solve_linear,
                         solve_obstacle, symmetry_decompose,
                         uniform_load_profile, worst_force_amplitude,
                         worst_gap_force)
from hingedplate.fem import DOF_VALUE, assemble_load, mirror_field
from hingedplate.optimize import ForceClass
from hingedplate.solver import PlateOperator

PARAMS = MaterialParams(sigma=0.2, half_width=0.1)
L = PARAMS.half_width


def _report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:>2}] {status}  {name}  ({elapsed:.1f}s)  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def state():
    return SeriesState(PARAMS, m_max=200)


@pytest.fixture(scope="module")
def mesh():
    return Mesh(64, 16, L)


@pytest.fixture(scope="module")
def operator(mesh):
    return PlateOperator.build(mesh, PARAMS)


@pytest.fixture(scope="module")
def threshold():
    value, tail = gap_threshold_M(PARAMS, m_max=100_001)
    return value, tail


@pytest.fixture(scope="module")
def window():
    return ScanWindow.default(PARAMS)


def _sine_series_values(mesh_obj):
    """Series solution for the sin(x) density at the mesh nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    vals = np.empty((mesh_obj.ny + 1, mesh_obj.nx + 1))
    sin_x = np.sin(mesh_obj.xs)
    for j, y in enumerate(mesh_obj.ys):
        integral = sum(w * float(phi_m(y, e, 1, PARAMS))
                       for e, w in zip(nodes * L, weights * L))
        vals[j] = sin_x * integral / 4.0
    return vals


def test_criterion_1_series_fem_consistency():
    t0 = time.time()
    errors = []
    for nx, ny in ((16, 4), (32, 8), (64, 16)):
        m = Mesh(nx, ny, L)
        op = PlateOperator.build(m, PARAMS)
        rhs = assemble_load(m, LoadSpec(density=lambda x, y: np.sin(x)))
        fld = solve_linear(op, rhs)
        exact = _sine_series_values(m)
        errors.append(np.max(np.abs(fld.value_grid() - exact))
                      / np.max(np.abs(exact)))
    elapsed = time.time() - t0
    monotone = errors[0] > errors[1] > errors[2]
    ok = monotone and errors[-1] <= 1e-3 and elapsed <= 60.0
    _report(1, "series-FEM consistency", ok, elapsed,
            f"errors={['%.2e' % e for e in errors]}")


def test_criterion_2_phi_monotonicity():
    t0 = time.time()
    ok = True
    for sigma in (0.2, 0.3):
        for l in (np.pi / 150, 0.1):
            p = MaterialParams(sigma, l)
            ys = np.linspace(-l, l, 21)
            for eta in np.linspace(-l, l, 21):
                prev = None
                for m in range(1, 51):
                    val = phi_m(ys, eta, m, p)
                    if not np.all(val > 0.0):
                        ok = False
                    if prev is not None and not np.all(val < prev):
                        ok = False
                    prev = val
    elapsed = time.time() - t0
    ok = ok and elapsed <= 5.0
    _report(2, "coefficient monotonicity", ok, elapsed,
            "m=1..50 on 21x21 grids, 4 parameter sets")


def test_criterion_3_green_positivity_reciprocity(state):
    t0 = time.time()
    xs = np.linspace(0.0, np.pi, 11)[1:-1]   # 9 interior abscissae
    ys = np.linspace(-L, L, 5)
    sites = [(x, y) for y in ys for x in xs]
    n = len(sites)
    g = np.empty((n, n))
    for i, p in enumerate(sites):
        for j_y, y in enumerate(ys):
            row = np.atleast_1d(green_value(p, (xs, y), state))
            g[i, j_y * len(xs):(j_y + 1) * len(xs)] = row
    positive = bool(np.all(g > 0.0))
    reciprocal = bool(np.max(np.abs(g - g.T)) <= 2.0 * state.tail_bound)
    elapsed = time.time() - t0
    ok = positive and reciprocal and elapsed <= 10.0
    _report(3, "kernel positivity and reciprocity", ok, elapsed,
            f"min={g.min():.3e} max|G-G^T|={np.max(np.abs(g - g.T)):.2e} "
            f"tail={state.tail_bound:.1e}")


def test_criterion_4_kkt_certification(mesh, operator, threshold):
    t0 = time.time()
    m_val, _ = threshold
    worst = 0.0
    # representative batch: contact-free, thin binding, full binding
    cases = [
        (assemble_load(mesh, LoadSpec(density=lambda x, y: np.sin(x))),
         BoxConstraints.from_obstacle(mesh, ObstacleSpec(
             lower=-50.0, upper=50.0, region="full"))),
        (assemble_load(mesh, LoadSpec.antisym_pair(np.pi / 2, L)),
         BoxConstraints.from_obstacle(mesh, ObstacleSpec.constant_level(
             0.5 * m_val, region="long_edges"))),
        (assemble_load(mesh, LoadSpec(density=lambda x, y: np.sin(x))),
         BoxConstraints.from_obstacle(mesh, ObstacleSpec(
             lower=-0.4, upper=0.4, region="full"))),
    ]
    for rhs, box in cases:
        sol = solve_obstacle(operator, rhs, box)
        rep = kkt_report(sol, operator, rhs, box)
        worst = max(worst, rep["stationarity"], rep["complementarity"],
                    rep["feasibility"])

    # dense brute-force oracle on a <= 200-dof instance
    small = Mesh(6, 2, L)
    op = PlateOperator.build(small, PARAMS)
    rng = np.random.default_rng(1234)
    rhs = np.zeros(small.n_dofs)
    rhs[op.free_idx] = rng.normal(scale=1e-3, size=op.free_idx.size)
    nodes = np.array([n for n in rng.permutation(small.n_nodes)
                      if op.free[4 * n + DOF_VALUE]][:5])
    lin = solve_linear(op, rhs.astype(np.longdouble))
    span = max(1e-6, lin.sup_norm())
    lower = np.full(small.n_nodes, -np.inf)
    upper = np.full(small.n_nodes, np.inf)
    lower[nodes] = -rng.uniform(0.05, 0.4, nodes.size) * span
    upper[nodes] = rng.uniform(0.05, 0.4, nodes.size) * span
    box = BoxConstraints(lower, upper)
    sol = solve_obstacle(op, rhs.astype(np.longdouble), box)

    a = op.form.matrix[op.free_idx][:, op.free_idx].toarray()
    bf = rhs[op.free_idx]
    pos = [int(np.flatnonzero(op.free_idx == 4 * nd + DOF_VALUE)[0])
           for nd in nodes]
    best = None
    for pattern in itertools.product((0, 1, 2), repeat=len(pos)):
        fixed = [(p, lower[nodes[i]] if s == 1 else upper[nodes[i]])
                 for i, (p, s) in enumerate(zip(pos, pattern)) if s != 0]
        x = np.zeros(a.shape[0])
        fidx = [p for p, _ in fixed]
        if fixed:
            x[fidx] = [v for _, v in fixed]
        rest = np.setdiff1d(np.arange(a.shape[0]), fidx)
        rhs_red = bf[rest] - (a[np.ix_(rest, fidx)] @ x[fidx] if fixed else 0.0)
        x[rest] = np.linalg.solve(a[np.ix_(rest, rest)], rhs_red)
        lam = bf - a @ x
        ok_pat = True
        for i, (p, s) in enumerate(zip(pos, pattern)):
            if s == 0 and not (lower[nodes[i]] - 1e-9 <= x[p]
                               <= upper[nodes[i]] + 1e-9):
                ok_pat = False
            elif s == 1 and lam[p] > 1e-9:
                ok_pat = False
            elif s == 2 and lam[p] < -1e-9:
                ok_pat = False
        if ok_pat:
            energy = 0.5 * x @ a @ x - bf @ x
            if best is None or energy < best[1] - 1e-15:
                best = (x, energy)
    oracle_diff = np.max(np.abs(sol.field.dofs[op.free_idx] - best[0])) \
        / max(1.0, np.max(np.abs(best[0])))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and oracle_diff <= 1e-8
    _report(4, "KKT certification + QP oracle", ok, elapsed,
            f"worst residual={worst:.2e} oracle diff={oracle_diff:.2e}")


def test_criterion_5_empty_contact(mesh, operator, state):
    t0 = time.time()
    zmax = max(float(np.max(uniform_load_profile((mesh.xs, y), state)))
               for y in mesh.ys)
    box = BoxConstraints.from_obstacle(
        mesh, ObstacleSpec(lower=-1.1 * zmax, upper=1.1 * zmax, region="full"))
    rng = np.random.default_rng(2026)
    all_free = True
    for _ in range(20):
        c = rng.uniform(-1.0, 1.0, 5)
        c /= max(1.0, np.abs(c).sum())
        kx = rng.integers(1, 5)

        def f(x, y, c=c, kx=kx):
            return (c[0] * np.sin(kx * x) + c[1] * np.cos(x)
                    + c[2] * np.sign(np.sin(3 * x)) + c[3] * np.sign(y)
                    + c[4])

        rhs = assemble_load(mesh, LoadSpec(density=f))
        sol = solve_obstacle(operator, rhs, box)
        if sol.lower_contact.size or sol.upper_contact.size:
            all_free = False
    elapsed = time.time() - t0
    ok = all_free and elapsed <= 120.0
    _report(5, "empty contact under certified ceiling", ok, elapsed,
            f"level=1.1*z_max={1.1 * zmax:.4f}, 20 random sup-norm<=1 loads")


def test_criterion_6_threshold_identity(mesh, operator, state, threshold,
                                        window):
    t0 = time.time()
    m_val, m_tail = threshold
    fc = ForceClass(kind="antisym-delta", window=window, nxi=33, neta=9)
    far = ObstacleSpec.constant_level(2.0 * analytic_bound_C(PARAMS),
                                      region="long_edges")
    scan_fine = worst_gap_force(operator, BoxConstraints.from_obstacle(mesh, far), fc)
    coarse_mesh = Mesh(32, 8, L)
    scan_coarse = worst_gap_force(PlateOperator.build(coarse_mesh, PARAMS),
                                  BoxConstraints.from_obstacle(coarse_mesh, far), fc)
    fem_estimate = abs(scan_fine.value - scan_coarse.value)
    identity_gap = abs(scan_fine.value - 2.0 * m_val)
    tol = 5.0 * (2.0 * state.tail_bound + fem_estimate)
    best = dict(scan_fine.rows[scan_fine.argopt_index]["params"])
    at_center_edge = (best["xi"] == pytest.approx(np.pi / 2)
                      and abs(best["eta"]) == pytest.approx(L))
    # series-side scan agrees too
    series_scan = edge_gap_series_scan(state, window=window, nxi=33, neta=9)
    series_gap = abs(2.0 * series_scan["m_scan"] - 2.0 * m_val)
    elapsed = time.time() - t0
    ok = (identity_gap <= tol and at_center_edge
          and series_gap <= 2.0 * state.tail_bound + 2.0 * m_tail
          and elapsed <= 120.0)
    _report(6, "threshold identity (thin case)", ok, elapsed,
            f"|2M_scan-2M|={identity_gap:.2e} tol={tol:.2e} "
            f"argmax=({best['xi']:.4f},{best['eta']:.4f})")


def test_criterion_7_regime_dichotomy(mesh, operator, threshold, window):
    t0 = time.time()
    m_val, _ = threshold
    fc = ForceClass(kind="antisym-delta", window=window, nxi=33, neta=9)

    gamma_hi = 1.5 * m_val
    scan_hi = worst_gap_force(
        operator, BoxConstraints.from_obstacle(mesh, ObstacleSpec.constant_level(gamma_hi)),
        fc)
    center_rows = [r for r in scan_hi.rows
                   if r["params"]["xi"] == pytest.approx(np.pi / 2)]
    hi_ok = (scan_hi.value < 2.0 * gamma_hi
             and center_rows
             and all(r["contact_lower"] + r["contact_upper"] == 0
                     for r in center_rows))

    gamma_lo = 0.5 * m_val
    scan_lo = worst_gap_force(
        operator, BoxConstraints.from_obstacle(mesh, ObstacleSpec.constant_level(gamma_lo)),
        fc)
    eta_spacing = 2.0 * L / 8.0
    tol_scan = 2.0 * gamma_lo * eta_spacing / L
    lo_ok = (2.0 * gamma_lo - tol_scan <= scan_lo.value
             <= 2.0 * gamma_lo * (1.0 + 1e-12))
    elapsed = time.time() - t0
    ok = hi_ok and lo_ok and elapsed <= 180.0
    _report(7, "regime dichotomy", ok, elapsed,
            f"hi: {scan_hi.value:.6f} < {2 * gamma_hi:.6f}; "
            f"lo: {scan_lo.value:.6f} in [{2 * gamma_lo - tol_scan:.6f}, "
            f"{2 * gamma_lo:.6f}]")


def test_criterion_8_symmetry_suite(threshold):
    t0 = time.time()
    m_val, _ = threshold
    m = Mesh(32, 8, L)
    op = PlateOperator.build(m, PARAMS)

    # odd load, even obstacles (binding): even part must vanish
    rhs = assemble_load(m, LoadSpec.antisym_pair(np.pi / 2, L))
    box = BoxConstraints.from_obstacle(
        m, ObstacleSpec.constant_level(0.5 * m_val, region="long_edges"))
    sol = solve_obstacle(op, rhs, box)
    even, _ = symmetry_decompose(sol.field)
    odd_case = even.sup_norm() <= 1e-7 * sol.field.sup_norm()

    # even load: odd part must vanish
    rhs_e = assemble_load(m, LoadSpec(density=lambda x, y: np.sin(x)
                                      * np.cos(y)))
    box_e = BoxConstraints.from_obstacle(
        m, ObstacleSpec(lower=-0.4, upper=0.4, region="full"))
    sol_e = solve_obstacle(op, rhs_e, box_e)
    _, odd_part = symmetry_decompose(sol_e.field)
    even_case = odd_part.sup_norm() <= 1e-7 * sol_e.field.sup_norm()

    # x-mirror data: solution invariant under x -> pi - x
    mirror = mirror_field(sol_e.field, (True, False, 1))
    mirror_case = (np.max(np.abs(mirror.dofs - sol_e.field.dofs))
                   <= 1e-7 * sol_e.field.sup_norm())
    elapsed = time.time() - t0
    ok = odd_case and even_case and mirror_case
    _report(8, "symmetry suite", ok, elapsed,
            f"even-part={even.sup_norm():.2e} odd-part={odd_part.sup_norm():.2e}")


def test_criterion_9_sign_symmetry(threshold):
    t0 = time.time()
    m_val, _ = threshold
    m = Mesh(32, 8, L)
    op = PlateOperator.build(m, PARAMS)
    box = BoxConstraints.from_obstacle(
        m, ObstacleSpec.constant_level(0.5 * m_val, region="long_edges"))
    fc = ForceClass(kind="antisym-delta", window=ScanWindow.default(PARAMS),
                    nxi=9, neta=5)
    exact = True
    vals_pos, vals_neg = [], []
    for member in fc.members(PARAMS):
        a = solve_obstacle(op, assemble_load(m, member.load), box)
        negated = LoadSpec(point_masses=[(x, y, -w) for (x, y, w)
                                         in member.load.point_masses])
        b = solve_obstacle(op, assemble_load(m, negated), box)
        ga, gb = gap_profile(a).maximal_gap, gap_profile(b).maximal_gap
        vals_pos.append(ga)
        vals_neg.append(gb)
        if ga != gb:
            exact = False
    scan_equal = max(vals_pos) == max(vals_neg)
    elapsed = time.time() - t0
    ok = exact and scan_equal
    _report(9, "sign symmetry of maximizers", ok, elapsed,
            f"{len(vals_pos)} members, values agree exactly")


def test_criterion_10_bound_chain(threshold):
    t0 = time.time()
    m = Mesh(32, 8, L)
    st = SeriesState(PARAMS, m_max=200)
    op = PlateOperator.build(m, PARAMS)
    fc = ForceClass(kind="bang-bang", cells=(3, 2))
    box = BoxConstraints.unbounded(m)
    chain_ok = True
    details = []
    for cols in (slice(0, 8), slice(12, 20)):
        sel = np.zeros((m.ny, m.nx), dtype=bool)
        sel[:, cols] = True
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.5)
        measured = worst_force_amplitude(op, box, fc, weight=mask).value
        rep = placement_bound_report(mask, st, m)
        slack = rep["series_tail"] + 1e-5 * rep["weighted_green_bound"]
        if not (measured <= rep["weighted_green_bound"] + slack
                and rep["weighted_green_bound"] <= rep["coarse_bound"]):
            chain_ok = False
        details.append((measured, rep["weighted_green_bound"],
                        rep["coarse_bound"]))
    threshold_ok = True
    for sigma in (0.2, 0.3):
        for l in (np.pi / 150, 0.1):
            p = MaterialParams(sigma, l)
            value, tail = gap_threshold_M(p, m_max=20_001)
            if value + tail > analytic_bound_C(p):
                threshold_ok = False
    elapsed = time.time() - t0
    ok = chain_ok and threshold_ok
    _report(10, "bound chain", ok, elapsed,
            "; ".join(f"{a:.4f}<={b:.4f}<={c:.4f}" for (a, b, c) in details))
