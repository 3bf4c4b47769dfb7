"""Discretization layer: element exactness, constraints, symmetry, energies."""

import numpy as np
import pytest
import scipy.sparse as sp

from hingedplate import fem
from hingedplate import (DofField, LoadSpec, Mesh, PlateOperator,
                         ReinforcementMask, assemble_bilinear, assemble_load,
                         energy, point_eval, symmetry_decompose)
from hingedplate.fem import (DOF_DX, DOF_DXY, DOF_DY, DOF_VALUE, LONG,
                             MIRRORS, _GAUSS_PTS, _GAUSS_WTS, _X_MIRROR_SIGNS,
                             _Y_MIRROR_SIGNS, AssembledForm, OrbitBasis,
                             _hermite_1d, _local_rows, apply_functional,
                             element_stiffness, field_to_csv, mirror_field,
                             mirror_map, quad_form, write_csv)


def interpolate(mesh, fn, dfx, dfy, dfxy):
    """Hermite interpolant of a smooth function from exact nodal data."""
    fld = DofField.zeros(mesh)
    for j, y in enumerate(mesh.ys):
        for i, x in enumerate(mesh.xs):
            base = 4 * mesh.node_index(i, j)
            fld.dofs[base + 0] = fn(x, y)
            fld.dofs[base + 1] = dfx(x, y)
            fld.dofs[base + 2] = dfy(x, y)
            fld.dofs[base + 3] = dfxy(x, y)
    return fld


#: the mirrors x -> pi - x and y -> -y as elements of MIRRORS
X_MIRROR, Y_MIRROR = (True, False, 1), (False, True, 1)


class TestMesh:
    @pytest.mark.parametrize("half_width", [0.0, -0.1, float("nan"), float("inf")])
    def test_half_width_must_be_positive(self, half_width):
        """A NaN half-width fails ``<= 0`` too; unrejected, its first build
        reported an overflowing operator.  An infinite one gave ``hy = inf``."""
        with pytest.raises(ValueError, match="half_width must be positive"):
            Mesh(8, 2, half_width)

    @pytest.mark.parametrize("nx, ny", [(4.5, 2), (4, 2.0), (True, 2)])
    def test_sizes_must_be_integers(self, nx, ny):
        """A float size used to pass, and ``dof_grid`` failed later."""
        with pytest.raises(TypeError, match="mesh sizes must be integers"):
            Mesh(nx, ny, 0.1)

    @pytest.mark.parametrize("size", [1, -1])
    def test_field_needs_one_value_per_dof(self, mesh_small, size):
        n = mesh_small.n_dofs + size
        with pytest.raises(ValueError, match=f"expected {mesh_small.n_dofs} dofs, "
                                             rf"got \({n},\)"):
            DofField(mesh_small, np.zeros(n))

    def test_invariants(self, params):
        with pytest.raises(ValueError):
            Mesh(2, 4, params.half_width)
        with pytest.raises(ValueError):
            Mesh(8, 1, params.half_width)
        m = Mesh(8, 4, params.half_width)
        assert m.n_dofs == 4 * 9 * 5
        X, Y = m.node_coordinates()
        # row-major in x then y, corners present
        assert X[0] == 0.0 and Y[0] == -params.half_width
        assert X[8] == pytest.approx(np.pi)
        assert Y[-1] == params.half_width

    @pytest.mark.parametrize("half_width", [0.1, 5e-12])
    def test_contains_takes_y_up_to_a_relative_tolerance(self, half_width):
        """|y| <= l (1 + 1e-12), the series kernel's rule: on a plate of
        half-width 5e-12 an absolute 1e-12 would take points 20% beyond the
        long edges, and ``locate`` would clamp them onto it."""
        mesh = Mesh(8, 10, half_width)
        for y in (half_width, -half_width, half_width * (1.0 + 5e-13),
                  -half_width * (1.0 + 5e-13), 0.0):
            assert mesh.contains(1.0, y)
        for y in (1.18 * half_width, -1.18 * half_width,
                  half_width * (1.0 + 1e-11)):
            assert not mesh.contains(1.0, y)
            with pytest.raises(ValueError, match="outside the closed plate"):
                mesh.locate(1.0, y)
        # x keeps its absolute tolerance
        assert mesh.contains(-5e-13, 0.0) and mesh.contains(np.pi + 5e-13, 0.0)
        assert not mesh.contains(-2e-12, 0.0)

    def test_locate(self, mesh_small):
        ei, ej, tx, ty = mesh_small.locate(np.pi / 2, 0.0)
        assert 0 <= ei < mesh_small.nx and 0 <= ej < mesh_small.ny
        assert 0.0 <= tx <= 1.0 and 0.0 <= ty <= 1.0
        with pytest.raises(ValueError):
            mesh_small.locate(-0.5, 0.0)

    @pytest.mark.parametrize("nx, ny", [(64, 16), (128, 32), (33, 9)])
    def test_closing_edges_get_local_coordinate_one(self, params, slim_params,
                                                    nx, ny):
        """A point load on x = pi puts nothing on the free dofs, as one on
        x = 0 does, and the load at (x, l) is the exact y-mirror of the load
        at (x, -l): the closing edges get the exact local coordinate 1."""
        for p in (params, slim_params):
            mesh = Mesh(nx, ny, p.half_width)
            l = mesh.half_width
            free = mesh.free_dof_mask()
            perm, signs = mirror_map(mesh, Y_MIRROR)
            for y in (-l, -0.3 * l, 0.0, 0.7 * l, l):
                assert not np.any(assemble_load(mesh, LoadSpec.point(np.pi, y))[free])
                assert mesh.locate(np.pi, y)[2] == 1.0
            for x in (0.0, 0.4, np.pi / 2, 2.9, np.pi):
                top = assemble_load(mesh, LoadSpec.point(x, l))
                bottom = assemble_load(mesh, LoadSpec.point(x, -l))
                assert np.array_equal(top, signs * bottom[perm])
                assert mesh.locate(x, l)[3] == 1.0

    def test_mirror_sites_get_exact_mirror_loads(self, params, slim_params):
        """At 64x16 every site of the default 33x9 scan grid lies on a node,
        and the point load at each site is the exact mirror image of the
        load at its mirror site, under either mirror."""
        for p in (params, slim_params):
            mesh = Mesh(64, 16, p.half_width)
            xs = np.linspace(0.0, np.pi, 33)
            ys = np.linspace(-p.half_width, p.half_width, 9)
            loads = {(i, j): assemble_load(mesh, LoadSpec.point(x, y))
                     for i, x in enumerate(xs) for j, y in enumerate(ys)}
            for element in (X_MIRROR, Y_MIRROR):
                perm, signs = mirror_map(mesh, element)
                for (i, j), b in loads.items():
                    site = (32 - i if element[0] else i, 8 - j if element[1] else j)
                    assert np.array_equal(signs * b[perm], loads[site]), (element, i, j)

    def test_grid_symmetry(self, mesh_small):
        assert np.allclose(mesh_small.ys, -mesh_small.ys[::-1])
        assert np.allclose(mesh_small.xs, np.pi - mesh_small.xs[::-1])


# ---------------------------------------------------------------------------
# reference dof layout: the node loops that the dof grid replaces
# ---------------------------------------------------------------------------

def _reference_free_dof_mask(mesh):
    free = np.ones(mesh.n_dofs, dtype=bool)
    for j in range(mesh.ny + 1):
        for i in (0, mesh.nx):
            free[4 * mesh.node_index(i, j) + DOF_VALUE] = False
            free[4 * mesh.node_index(i, j) + DOF_DY] = False
    return free


def _reference_mirror_permutation(mesh, axis):
    perm = np.empty(mesh.n_dofs, dtype=np.int64)
    signs = np.empty(mesh.n_dofs)
    dof_signs = _Y_MIRROR_SIGNS if axis == "y" else _X_MIRROR_SIGNS
    for j in range(mesh.ny + 1):
        for i in range(mesh.nx + 1):
            mi, mj = (i, mesh.ny - j) if axis == "y" else (mesh.nx - i, j)
            src = 4 * mesh.node_index(mi, mj)
            dst = 4 * mesh.node_index(i, j)
            for d in range(4):
                perm[dst + d] = src + d
                signs[dst + d] = dof_signs[d]
    return perm, signs


@pytest.mark.parametrize("nx, ny", [(4, 2), (7, 3), (16, 4)])
class TestDofGrid:
    def test_grid_numbers_nodes_x_fastest(self, nx, ny):
        mesh = Mesh(nx, ny, 0.1)
        grid = mesh.dof_grid()
        assert grid.shape == (ny + 1, nx + 1, 4)
        for j in range(ny + 1):
            for i in range(nx + 1):
                assert np.array_equal(grid[j, i], 4 * mesh.node_index(i, j) + np.arange(4))

    def test_free_dof_mask_matches_the_loop(self, nx, ny):
        mesh = Mesh(nx, ny, 0.1)
        assert np.array_equal(mesh.free_dof_mask(), _reference_free_dof_mask(mesh))

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_mirror_permutation_matches_the_loop(self, nx, ny, axis):
        mesh = Mesh(nx, ny, 0.1)
        perm, signs = mirror_map(mesh, X_MIRROR if axis == "x" else Y_MIRROR)
        want_perm, want_signs = _reference_mirror_permutation(mesh, axis)
        assert perm.dtype == want_perm.dtype and np.array_equal(perm, want_perm)
        assert signs.dtype == want_signs.dtype and np.array_equal(signs, want_signs)

    @pytest.mark.parametrize("element", MIRRORS)
    def test_mirror_map_composes_the_loops(self, nx, ny, element):
        """Every element of MIRRORS is its axis mirrors in turn, times its sign."""
        mesh = Mesh(nx, ny, 0.1)
        perm, signs = mirror_map(mesh, element)
        want_perm = np.arange(mesh.n_dofs)
        want_signs = np.full(mesh.n_dofs, float(element[2]))
        for axis, flip in zip("xy", element[:2]):
            if flip:
                p, q = _reference_mirror_permutation(mesh, axis)
                want_perm, want_signs = want_perm[p], want_signs[p] * q
        assert np.array_equal(perm, want_perm) and np.array_equal(signs, want_signs)


GROUPS = [((True, False, 1), (False, True, 1)), ((True, False, 1),),
          ((False, True, 1),), ((False, True, -1),),
          ((True, False, -1), (False, True, 1)),
          ((True, False, -1), (False, True, -1))]


def _group_id(group):
    return "".join(f"{'x' if fx else 'y'}{'+' if s > 0 else '-'}" for fx, _, s in group)


def _orbit_matrix(basis):
    """Dense R: column a is the full field of coordinate vector e_a."""
    return np.stack([basis.expand(e) for e in np.eye(basis.n_dofs)], axis=1)


def _group_average(mesh, group, field):
    """Mean of the images of ``field`` under every element of ``group``."""
    images = [field]
    for generator in group:
        images += [mirror_field(f, generator) for f in images]
    return sum(f.dofs for f in images) / len(images)


@pytest.mark.parametrize("nx, ny", [(4, 2), (7, 3), (16, 4)])
@pytest.mark.parametrize("group", GROUPS, ids=_group_id)
class TestOrbitBasis:
    def test_expanded_fields_are_invariant(self, nx, ny, group):
        mesh = Mesh(nx, ny, 0.1)
        basis = OrbitBasis(mesh, group)
        fld = DofField(mesh, basis.expand(np.random.default_rng(3).normal(
            size=basis.n_dofs)))
        for generator in group:
            assert np.array_equal(mirror_field(fld, generator).dofs, fld.dofs)

    def test_spans_every_invariant_field(self, nx, ny, group):
        mesh = Mesh(nx, ny, 0.1)
        basis = OrbitBasis(mesh, group)
        x = _group_average(mesh, group, DofField(
            mesh, np.random.default_rng(4).normal(size=mesh.n_dofs)))
        # R'R is diagonal: the orbit sizes, 0 on the coordinates forced to zero
        sizes = basis.restrict(basis.sign)
        coords = np.divide(basis.restrict(x), sizes, out=np.zeros(basis.n_dofs),
                           where=sizes > 0)
        assert np.allclose(basis.expand(coords), x, rtol=0.0, atol=1e-14)

    def test_layout_is_a_dof_grid_of_representatives(self, nx, ny, group):
        mesh = Mesh(nx, ny, 0.1)
        basis = OrbitBasis(mesh, group)
        flips = [g[:2] for g in group]
        assert (basis.nx, basis.ny) == (nx // 2 if (True, False) in flips else nx,
                                       ny // 2 if (False, True) in flips else ny)
        rep = basis.representatives
        assert np.array_equal(basis.coordinate[rep], np.arange(basis.n_dofs))
        assert np.array_equal(rep[basis.dof_grid()],
                              mesh.dof_grid()[:basis.ny + 1, :basis.nx + 1])
        assert np.array_equal(basis.free_dof_mask(),
                              mesh.free_dof_mask()[rep] & (basis.sign[rep] != 0.0))
        node_orbit = basis.coordinate[DOF_VALUE::4] // 4
        assert np.array_equal(node_orbit[basis.representative_nodes],
                              np.arange(basis.n_nodes))

    def test_restricted_form_is_rt_k_r(self, nx, ny, group, params):
        mesh = Mesh(nx, ny, 0.1)
        basis = OrbitBasis(mesh, group)
        form = assemble_bilinear(mesh, params)
        r = _orbit_matrix(basis)
        want = r.T @ form.matrix.toarray() @ r
        got = basis.restrict_form(form).csr.toarray().astype(float)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())
        b = assemble_load(mesh, LoadSpec(density=1.0))
        assert np.allclose(basis.restrict(b).astype(float), r.T @ b.astype(float),
                           rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("group, line_dofs", [
    (((True, False, 1),), {"x": [DOF_DX, DOF_DXY]}),
    (((False, True, 1),), {"y": [DOF_DY, DOF_DXY]}),
    (((False, True, -1),), {"y": [DOF_VALUE, DOF_DX]}),
    (((True, False, 1), (False, True, 1)),
     {"x": [DOF_DX, DOF_DXY], "y": [DOF_DY, DOF_DXY]}),
    (((True, False, -1), (False, True, 1)),
     {"x": [DOF_VALUE, DOF_DY], "y": [DOF_DY, DOF_DXY]}),
])
def test_orbit_basis_zeroes_the_dofs_a_mirror_negates(group, line_dofs):
    """On the fixed line of a mirror (x = pi/2, y = 0), the dofs it maps to
    their own negative are zero in every invariant field; no other dof is,
    and odd element counts have no fixed line."""
    mesh = Mesh(8, 4, 0.1)
    zero = np.zeros_like(mesh.dof_grid(), dtype=bool)
    for axis, dofs in line_dofs.items():
        if axis == "x":
            zero[:, 4, dofs] = True
        else:
            zero[2, :, dofs] = True
    sign = OrbitBasis(mesh, group).sign
    assert np.array_equal(sign == 0.0, zero.ravel())
    # +0.0 only: a -0.0 sign expands to a -0 entry in field.csv
    assert not np.any(np.signbit(sign[sign == 0.0]))
    assert np.all(OrbitBasis(Mesh(9, 5, 0.1), group).sign != 0.0)


def test_orbit_basis_rejects_other_groups():
    """A generator flips one axis, times +1 or -1, and each axis has at most one."""
    for generators in [((False, False, 1),), ((True, False, 2),),
                       ((True, True, -1),), ((True, False, 1), (True, False, -1))]:
        with pytest.raises(ValueError, match="mirror group"):
            OrbitBasis(Mesh(8, 4, 0.1), generators)


class TestAssembly:
    def test_region_additivity_is_exact_to_rounding(self, mesh_small, params):
        # weightings over D and its complement add to (alpha + beta) K with
        # no quadrature or cut-cell error; only final-rounding ulps may differ
        sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        sel[:, : mesh_small.nx // 3] = True
        sel[2, 5] = True
        alpha, beta = 0.5, 2.0
        full = (alpha + beta) * assemble_bilinear(mesh_small, params).matrix
        part = (assemble_bilinear(mesh_small, params,
                                  weight=ReinforcementMask(sel, alpha, beta)).matrix
                + assemble_bilinear(mesh_small, params,
                                    weight=ReinforcementMask(~sel, alpha, beta)).matrix)
        diff = (full - part)
        scale = np.max(np.abs(full.data))
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) <= 1e-15 * scale

    def test_spd_on_constrained_subspace(self, params):
        mesh = Mesh(6, 2, params.half_width)
        k = assemble_bilinear(mesh, params).matrix
        free = mesh.free_dof_mask()
        dense = k[free][:, free].toarray()
        assert np.allclose(dense, dense.T, atol=1e-18)
        eigs = np.linalg.eigvalsh(dense)
        assert eigs.min() > 0.0

    def test_energy_of_sine_matches_closed_form(self, mesh_mid, params):
        # quadratic part of sin(x): integrand sin(x)^2, integral = pi * l
        fld = interpolate(mesh_mid, lambda x, y: np.sin(x),
                          lambda x, y: np.cos(x), lambda x, y: 0.0,
                          lambda x, y: 0.0)
        form = assemble_bilinear(mesh_mid, params)
        quad = fld.dofs @ (form.matrix @ fld.dofs)
        assert quad == pytest.approx(np.pi * params.half_width, rel=1e-5)

    def test_weighted_combination(self, mesh_small, params):
        # weighting each element is alpha K + (beta - alpha) K_D, with K_D
        # the stiffness of D alone: no quadrature or cut-cell error, only
        # final-rounding ulps may differ
        sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        sel[:, : mesh_small.nx // 3] = True
        sel[2, 5] = True
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.0)
        k_d = _reference_matrix(mesh_small.n_dofs,
                                _reference_triplets(mesh_small, params, sel))
        want = (mask.alpha * assemble_bilinear(mesh_small, params).matrix
                + (mask.beta - mask.alpha) * k_d)
        got = assemble_bilinear(mesh_small, params, weight=mask).matrix
        diff = got - want
        scale = np.max(np.abs(got.data))
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) <= 1e-15 * scale


class TestLoads:
    def test_zero_load_gives_zero_functional(self, mesh_small):
        b = assemble_load(mesh_small, LoadSpec(density=0.0))
        assert np.all(b == 0.0)

    def test_point_mass_functional_is_point_evaluation(self, mesh_small):
        rng = np.random.default_rng(5)
        fld = DofField(mesh_small, rng.normal(size=mesh_small.n_dofs))
        for q in [(0.7, 0.03), (np.pi / 2, -0.1), (2.9, 0.0)]:
            b = assemble_load(mesh_small, LoadSpec.point(*q, weight=1.0))
            assert apply_functional(b, fld) == pytest.approx(
                point_eval(fld, q), rel=1e-12, abs=1e-14)

    def test_node_located_mass_reads_value_dof(self, mesh_small):
        i, j = 4, 2
        q = (mesh_small.xs[i], mesh_small.ys[j])
        b = assemble_load(mesh_small, LoadSpec.point(*q))
        fld = DofField.zeros(mesh_small)
        fld.dofs[4 * mesh_small.node_index(i, j) + DOF_VALUE] = 2.5
        assert apply_functional(b, fld) == pytest.approx(2.5, rel=1e-13)

    def test_antisym_pair_is_odd_functional(self, mesh_small):
        b = assemble_load(mesh_small, LoadSpec.antisym_pair(1.2, 0.07))
        rng = np.random.default_rng(9)
        fld = DofField(mesh_small, rng.normal(size=mesh_small.n_dofs))
        assert apply_functional(b, mirror_field(fld, Y_MIRROR)) == pytest.approx(
            -apply_functional(b, fld), rel=1e-12)

    def test_mass_outside_plate_rejected(self, mesh_small):
        with pytest.raises(ValueError):
            assemble_load(mesh_small, LoadSpec.point(4.0, 0.0))

    def test_density_weighting_splits_by_region(self, mesh_small, params):
        sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        sel[:, : mesh_small.nx // 2] = True
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.0)
        b_w = assemble_load(mesh_small, LoadSpec(density=1.0), weight=mask)
        b_d = assemble_load(mesh_small, LoadSpec(density=1.0), weight=None)
        # weighted = alpha * plain + (beta - alpha) * plain-restricted-to-D
        mask_only = np.where(sel, 1.0, 0.0)
        b_region = assemble_load(
            mesh_small,
            LoadSpec(density=lambda x, y: mask_only[
                np.clip((np.asarray(y) + mesh_small.half_width) / mesh_small.hy, 0,
                        mesh_small.ny - 1).astype(int),
                np.clip(np.asarray(x) / mesh_small.hx, 0, mesh_small.nx - 1).astype(int)]))
        combo = 0.5 * b_d.astype(float) + 1.5 * b_region.astype(float)
        assert np.allclose(b_w.astype(float), combo, rtol=1e-12, atol=1e-18)

    def test_weight_with_point_masses_rejected(self, mesh_small):
        sel = np.ones((mesh_small.ny, mesh_small.nx), dtype=bool)
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.0)
        load = LoadSpec(density=1.0, point_masses=((1.0, 0.0, 1.0),))
        with pytest.raises(ValueError):
            assemble_load(mesh_small, load, weight=mask)


# ---------------------------------------------------------------------------
# reference kernels: the per-element and per-entry loops the whole-array
# assembly and the longdouble CSR replace, kept to pin them bit for bit
# ---------------------------------------------------------------------------

def _reference_element_dofs(mesh, ei, ej):
    out = []
    for (ii, jj) in ((0, 0), (1, 0), (0, 1), (1, 1)):
        base = 4 * mesh.node_index(ei + ii, ej + jj)
        out.extend(base + d for d in range(4))
    return np.array(out, dtype=np.int64)


def _reference_triplets(mesh, params, w_elem=None):
    """Deduplicated (rows, cols, vals) of the Galerkin matrix, one element
    at a time, each element matrix times its entry of the (ny, nx) weights
    ``w_elem`` when given, duplicates summed in element order."""
    Ke = element_stiffness(mesh.hx, mesh.hy, params.sigma)
    rows, cols, vals = [], [], []
    for ej in range(mesh.ny):
        for ei in range(mesh.nx):
            w = 1.0 if w_elem is None else w_elem[ej, ei]
            gl = _reference_element_dofs(mesh, ei, ej)
            rows.append(np.repeat(gl, 16))
            cols.append(np.tile(gl, 16))
            vals.append(LONG(w) * Ke.ravel())
    return _reference_reduce(np.concatenate(rows), np.concatenate(cols),
                             np.concatenate(vals))


def _reference_reduce(rows, cols, vals):
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    starts = np.flatnonzero(keep)
    return rows[starts], cols[starts], np.add.reduceat(vals, starts)


def _reference_matvec(triplets, x):
    rows, cols, vals = triplets
    out = np.zeros(len(x), dtype=LONG)
    np.add.at(out, rows, vals * x[cols])
    return out


def _reference_matrix(n, triplets):
    rows, cols, vals = triplets
    csr = sp.coo_matrix((vals.astype(float), (rows, cols)), shape=(n, n)).tocsr()
    csr.sum_duplicates()
    return csr


def _reference_density(density, x, y, half_width):
    """A density's value at one point: the value of a constant, of the cell
    of a (ky, kx) grid that holds the point (row 0 at y = -l), or of a call."""
    if callable(density):
        return float(np.asarray(density(x, y)))
    if np.ndim(density) == 0:
        return float(density)
    ky, kx = np.shape(density)
    i = min(max(int(x / np.pi * kx), 0), kx - 1)
    j = min(max(int((y + half_width) / (2 * half_width) * ky), 0), ky - 1)
    return float(density[j][i])


def _reference_load(mesh, load, weight=None):
    """Dof functional with one density evaluation per Gauss point."""
    b = np.zeros(mesh.n_dofs, dtype=LONG)
    if load.density is not None:
        tq = (_GAUSS_PTS + 1) / 2
        wq = _GAUSS_WTS / 2
        brows = [[_local_rows(tx, ty, mesh.hx, mesh.hy) for ty in tq] for tx in tq]
        wsel = None
        if weight is not None:
            wsel = np.where(weight.elements, weight.beta, weight.alpha)
        scale = LONG(mesh.hx) * LONG(mesh.hy)
        for ej in range(mesh.ny):
            y0 = -mesh.half_width + ej * mesh.hy
            for ei in range(mesh.nx):
                x0 = ei * mesh.hx
                w_elem = 1.0 if wsel is None else wsel[ej, ei]
                fe = np.zeros(16, dtype=LONG)
                for a, (tx, wx) in enumerate(zip(tq, wq)):
                    for bq, (ty, wy) in enumerate(zip(tq, wq)):
                        fv = _reference_density(load.density, x0 + tx * mesh.hx,
                                                y0 + ty * mesh.hy, mesh.half_width)
                        fe += LONG(wx * wy * w_elem * fv) * brows[a][bq]
                b[_reference_element_dofs(mesh, ei, ej)] += fe * scale
    for (x, y, w) in load.point_masses:
        ei, ej, tx, ty = mesh.locate(x, y)
        b[_reference_element_dofs(mesh, ei, ej)] += (
            LONG(w) * _local_rows(tx, ty, mesh.hx, mesh.hy))
    return b


def _region(mesh):
    sel = np.zeros((mesh.ny, mesh.nx), dtype=bool)
    sel[:, : mesh.nx // 4] = True
    sel[1, mesh.nx // 2] = True
    return sel


class TestKernelsBitForBit:
    """Whole-array assembly and the longdouble CSR reproduce the loops."""

    @pytest.fixture(params=["full", "weighted"])
    def form_pair(self, request, mesh_small, params):
        if request.param == "full":
            return (assemble_bilinear(mesh_small, params),
                    _reference_triplets(mesh_small, params))
        sel = _region(mesh_small)
        return (assemble_bilinear(mesh_small, params,
                                  weight=ReinforcementMask(sel, alpha=0.5, beta=2.5)),
                _reference_triplets(mesh_small, params, np.where(sel, 2.5, 0.5)))

    def test_matvec_extended(self, form_pair, mesh_small):
        form, triplets = form_pair
        rng = np.random.default_rng(31)
        for _ in range(3):
            # division in longdouble fills the extended mantissa
            x = rng.normal(size=mesh_small.n_dofs).astype(LONG) / LONG(3)
            y = form.matvec_extended(x)
            assert y.dtype == LONG
            assert np.array_equal(y, _reference_matvec(triplets, x))

    def test_float64_matrix(self, form_pair, mesh_small):
        form, triplets = form_pair
        got, want = form.matrix, _reference_matrix(mesh_small.n_dofs, triplets)
        assert got.dtype == np.float64
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("mesh_name", ["mesh_small", "mesh_mid"])
    @pytest.mark.parametrize("kind", [
        "constant", "callable", "mixed-sign", "cells",
        "weighted", "constant-weighted", "cells-weighted", "point-masses"])
    def test_assemble_load(self, request, mesh_name, kind):
        mesh = request.getfixturevalue(mesh_name)
        weight = None
        if kind.endswith("weighted"):  # an E2 mask: beta on D, alpha off D
            weight = ReinforcementMask(_region(mesh), alpha=0.5, beta=2.5)
        if kind.startswith("constant"):
            load = LoadSpec(density=-2.5)
        elif kind == "callable":
            load = LoadSpec(density=lambda x, y: np.sin(x) - 80.0 * np.sin(3.0 * x))
        elif kind == "mixed-sign":
            load = LoadSpec(density=lambda x, y: (0.3 * np.sin(x) + 0.2 * np.cos(3 * x)
                                                  - 0.5 * np.sign(y)))
        elif kind.startswith("cells"):
            signs = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]])
            load = LoadSpec(density=signs)
        elif kind == "weighted":
            load = LoadSpec(density=lambda x, y: np.exp(x) * y ** 2)
        else:
            load = LoadSpec(density=lambda x, y: np.sin(x),
                            point_masses=((1.1, 0.02, 0.7), (2.0, -0.05, -1.3)))
        b = assemble_load(mesh, load, weight=weight)
        assert b.dtype == LONG
        assert np.array_equal(b, _reference_load(mesh, load, weight))

    @pytest.mark.parametrize("density", [np.ones(3), np.ones((2, 3, 1)), [[[1.0]]]],
                             ids=["1-D", "3-D", "3-D-list"])
    def test_density_of_another_rank_is_rejected(self, density):
        with pytest.raises(ValueError, match="a constant, a 2-D cell grid or a callable"):
            LoadSpec(density=density)

    def test_cell_grid_is_a_frozen_copy(self, mesh_small):
        signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
        load = LoadSpec(density=signs)
        b = assemble_load(mesh_small, load)
        signs[0, 0] = 7.0  # the caller's array stays the caller's
        assert not load.density.flags.writeable and load.density[0, 0] == 1.0
        assert np.array_equal(assemble_load(mesh_small, load), b)

    def test_loads_compare_and_hash_by_identity(self):
        """Loads holding equal grids are distinct objects: comparing or
        hashing them never asks an array for its truth value."""
        a, b = LoadSpec(density=np.ones((2, 2))), LoadSpec(density=np.ones((2, 2)))
        assert a == a and a != b and len({a, b, a}) == 2

    @pytest.mark.parametrize("shape, draw, block", [
        pytest.param((40, 40), "random", None, id="shape0"),
        pytest.param((25, 70), "random", None, id="shape1"),
        pytest.param((70, 25), "random", None, id="shape2"),
        pytest.param((40, 40), "empty", None, id="empty"),
        pytest.param((40, 40), "one-run", None, id="one-run"),
        pytest.param((40, 40), "one-run", 7, id="one-run-block7"),
        pytest.param((25, 70), "random", 7, id="random-block7"),
    ])
    def test_from_triplets_matches_lexsort(self, monkeypatch, shape, draw, block):
        # random triplets, many duplicates; every order of the same entries
        # is summed in input order, as a lexsort on (row, col) would, and in
        # blocks of whole runs of any length as in one pass: no block for no
        # triplets, one for a single run or a short list, many for a block
        # length of 7
        if block is not None:
            monkeypatch.setattr(fem, "BLOCK_TRIPLETS", block)
        rng = np.random.default_rng(7)
        n = {"random": 4000, "one-run": 50, "empty": 0}[draw]
        rows = rng.integers(0, shape[0], size=n)
        cols = rng.integers(0, shape[1], size=n)
        if draw == "one-run":
            rows[:], cols[:] = rows[0], cols[0]
        vals = rng.normal(size=n).astype(LONG) / LONG(3)
        order = np.lexsort((cols, rows))
        assert np.array_equal(
            np.argsort(rows.astype(np.int64) * shape[1] + cols, kind="stable"),
            order)
        r, c, v = rows[order], cols[order], vals[order]
        keep = np.ones(n, dtype=bool)
        keep[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        starts = np.flatnonzero(keep)
        assert starts.size < n or n == 0  # the draw has duplicates
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(r[starts], minlength=shape[0]), out=indptr[1:])
        want = sp.csr_matrix((np.add.reduceat(v, starts), c[starts], indptr),
                             shape=shape)
        got = AssembledForm.from_triplets(shape, rows, cols, vals).csr
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def _local_rows_reference(tx, ty, hx, hy):
    """The basis rows built one local dof at a time, as a plain loop."""
    Nx, dNx, d2Nx = _hermite_1d(tx, hx)
    Ny, dNy, d2Ny = _hermite_1d(ty, hy)
    rows = np.empty((6, 16), dtype=LONG)
    k = 0
    for (ii, jj) in ((0, 0), (1, 0), (0, 1), (1, 1)):
        for (a, b) in ((0, 0), (1, 0), (0, 1), (1, 1)):
            px, py = 2 * ii + a, 2 * jj + b
            rows[:, k] = (Nx[px] * Ny[py], dNx[px] * Ny[py], Nx[px] * dNy[py],
                          d2Nx[px] * Ny[py], Nx[px] * d2Ny[py], dNx[px] * dNy[py])
            k += 1
    return rows


def _element_stiffness_reference(hx, hy, sigma):
    """The element matrix summed over 4x4 Gauss points from the loop's
    second-derivative rows, in the order of operations of
    ``element_stiffness``."""
    tq = (_GAUSS_PTS.astype(LONG) + 1) / 2
    wq = _GAUSS_WTS.astype(LONG) / 2
    sigma = LONG(sigma)
    K = np.zeros((16, 16), dtype=LONG)
    for tx, wx in zip(tq, wq):
        for ty, wy in zip(tq, wq):
            Bxx, Byy, Bxy = _local_rows_reference(tx, ty, hx, hy)[3:]
            lap = Bxx + Byy
            w = wx * wy * LONG(hx) * LONG(hy)
            K += w * (np.outer(lap, lap)
                      + (1 - sigma) * (2 * np.outer(Bxy, Bxy)
                                       - np.outer(Bxx, Byy) - np.outer(Byy, Bxx)))
    return K


@pytest.mark.parametrize("tx, ty, hx, hy", [
    (0.0, 0.0, np.pi / 16, 0.05),
    (1.0, 1.0, np.pi / 64, 2 * np.pi / 150 / 16),
    (0.3, 0.7, np.pi / 8, 0.025),
    (LONG(_GAUSS_PTS[1] + 1) / 2, LONG(_GAUSS_PTS[2] + 1) / 2, np.pi / 128, 0.1 / 32),
    (0.1234567, 0.987654321, 0.4, 0.003),
])
def test_local_rows_match_the_loop_bit_for_bit(tx, ty, hx, hy):
    """The value rows at (tx, ty), and the element matrix, the one consumer
    of the derivative rows, equal the loop's bit for bit."""
    expected = _local_rows_reference(tx, ty, hx, hy)
    values = _local_rows(tx, ty, hx, hy)
    assert values.dtype == LONG and np.array_equal(values, expected[0])
    got = element_stiffness(hx, hy, 0.2)
    assert got.dtype == LONG and np.array_equal(got, _element_stiffness_reference(hx, hy, 0.2))


class TestPointEval:
    def test_reproduces_bicubics_exactly(self, mesh_small):
        # tensor cubics lie in the element space: interpolation is exact
        fn = lambda x, y: (x ** 3 - 2 * x ** 2 + 3) * (y ** 2 + y)
        dfx = lambda x, y: (3 * x ** 2 - 4 * x) * (y ** 2 + y)
        dfy = lambda x, y: (x ** 3 - 2 * x ** 2 + 3) * (2 * y + 1)
        dfxy = lambda x, y: (3 * x ** 2 - 4 * x) * (2 * y + 1)
        fld = interpolate(mesh_small, fn, dfx, dfy, dfxy)
        rng = np.random.default_rng(2)
        l = mesh_small.half_width
        for _ in range(20):
            q = (rng.uniform(0, np.pi), rng.uniform(-l, l))
            assert point_eval(fld, q) == pytest.approx(fn(*q), rel=1e-11)

    def test_mid_element_matches_refined_interpolant(self, params):
        fn = lambda x, y: np.sin(x) * np.cosh(y)
        dfx = lambda x, y: np.cos(x) * np.cosh(y)
        dfy = lambda x, y: np.sin(x) * np.sinh(y)
        dfxy = lambda x, y: np.cos(x) * np.sinh(y)
        coarse = interpolate(Mesh(16, 4, params.half_width), fn, dfx, dfy, dfxy)
        fine = interpolate(Mesh(64, 16, params.half_width), fn, dfx, dfy, dfxy)
        rng = np.random.default_rng(14)
        l = params.half_width
        for _ in range(10):
            # coarse interpolation error is O(h^4) ~ 4e-6 at 16 columns
            q = (rng.uniform(0, np.pi), rng.uniform(-l, l))
            a, b = point_eval(coarse, q), point_eval(fine, q)
            assert a == pytest.approx(b, rel=1e-5, abs=1e-8)
            assert b == pytest.approx(fn(*q), rel=1e-7)

    def test_zero_trace_on_short_edges(self, mesh_small):
        rng = np.random.default_rng(4)
        fld = DofField(mesh_small, rng.normal(size=mesh_small.n_dofs))
        fld.dofs[~mesh_small.free_dof_mask()] = 0.0  # admissible field
        for y in np.linspace(-0.1, 0.1, 7):
            assert point_eval(fld, (0.0, y)) == pytest.approx(0.0, abs=1e-14)
            assert point_eval(fld, (np.pi, y)) == pytest.approx(0.0, abs=1e-14)

    def test_outside_rejected(self, mesh_small):
        fld = DofField.zeros(mesh_small)
        with pytest.raises(ValueError):
            point_eval(fld, (1.0, 1.0))


class TestSymmetry:
    def test_even_field_has_zero_odd_part(self, mesh_small):
        fld = interpolate(mesh_small, lambda x, y: np.sin(x) * np.cos(y),
                          lambda x, y: np.cos(x) * np.cos(y),
                          lambda x, y: -np.sin(x) * np.sin(y),
                          lambda x, y: -np.cos(x) * np.sin(y))
        even, odd = symmetry_decompose(fld)
        assert np.allclose(odd.dofs, 0.0, atol=1e-15)
        assert np.allclose(even.dofs, fld.dofs, rtol=1e-15)

    def test_linear_in_y_field_has_zero_even_part(self, mesh_small):
        fld = interpolate(mesh_small, lambda x, y: np.sin(x) * y,
                          lambda x, y: np.cos(x) * y,
                          lambda x, y: np.sin(x),
                          lambda x, y: np.cos(x))
        even, odd = symmetry_decompose(fld)
        assert np.allclose(even.dofs, 0.0, atol=1e-15)

    def test_parts_sum_and_are_energy_orthogonal(self, mesh_small, params):
        rng = np.random.default_rng(6)
        fld = DofField(mesh_small, rng.normal(size=mesh_small.n_dofs))
        even, odd = symmetry_decompose(fld)
        assert np.allclose(even.dofs + odd.dofs, fld.dofs, rtol=1e-15)
        k = assemble_bilinear(mesh_small, params).matrix
        inner = even.dofs @ (k @ odd.dofs)
        scale = np.sqrt((even.dofs @ (k @ even.dofs)) * (odd.dofs @ (k @ odd.dofs))) + 1e-30
        assert abs(inner) / scale < 1e-12

    def test_x_mirror_involution(self, mesh_small):
        rng = np.random.default_rng(8)
        fld = DofField(mesh_small, rng.normal(size=mesh_small.n_dofs))
        twice = mirror_field(mirror_field(fld, X_MIRROR), X_MIRROR)
        assert np.array_equal(twice.dofs, fld.dofs)
        # mirrored field evaluates at mirrored points
        q = (0.9, 0.04)
        assert point_eval(mirror_field(fld, X_MIRROR), q) == pytest.approx(
            point_eval(fld, (np.pi - q[0], q[1])), rel=1e-11)


class TestEnergies:
    def test_zero_field_zero_load(self, mesh_small, params):
        fld = DofField.zeros(mesh_small)
        b = assemble_load(mesh_small, LoadSpec(density=0.0))
        assert energy(assemble_bilinear(mesh_small, params), b, fld) == 0.0

    def test_degenerate_weights_collapse_to_base(self, mesh_small, params):
        rng = np.random.default_rng(10)
        fld = DofField(mesh_small, rng.normal(size=mesh_small.n_dofs))
        load = LoadSpec(density=lambda x, y: np.sin(x))
        sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        sel[:, :5] = True
        mask = ReinforcementMask(sel, alpha=1.0, beta=1.0)
        # weights of one multiply exactly: the weighted form and load are
        # the base ones bit for bit
        got = PlateOperator.build(mesh_small, params, mask=mask).form.csr
        want = assemble_bilinear(mesh_small, params).csr
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.dtype == want.dtype
        b = assemble_load(mesh_small, load)
        assert np.array_equal(assemble_load(mesh_small, load, weight=mask), b)
        base = energy(PlateOperator.build(mesh_small, params).form, b, fld)
        e1 = energy(PlateOperator.build(mesh_small, params, mask=mask).form, b, fld)
        e2 = energy(PlateOperator.build(mesh_small, params).form,
                    assemble_load(mesh_small, load, weight=mask), fld)
        assert e1 == pytest.approx(base, rel=1e-14)
        assert e2 == pytest.approx(base, rel=1e-14)

    def test_quadratic_part_matches_matrix_form(self, mesh_small, params):
        rng = np.random.default_rng(12)
        fld = DofField(mesh_small, rng.normal(size=mesh_small.n_dofs))
        form = assemble_bilinear(mesh_small, params)
        e = energy(form, assemble_load(mesh_small, LoadSpec(density=0.0)), fld)
        k = form.matrix
        assert e == pytest.approx(0.5 * fld.dofs @ (k @ fld.dofs), rel=1e-12)

    def test_stiffness_weighted_energy_splits_by_region(self, mesh_small, params):
        # E1 weights the quadratic part: alpha off D, beta on D
        rng = np.random.default_rng(15)
        fld = DofField(mesh_small, rng.normal(size=mesh_small.n_dofs))
        mask = ReinforcementMask(_region(mesh_small), alpha=0.5, beta=2.5)
        b = assemble_load(mesh_small, LoadSpec(density=lambda x, y: np.sin(x)))
        e1 = energy(PlateOperator.build(mesh_small, params, mask=mask).form, b, fld)
        x = fld.dofs.astype(LONG)
        k_d = _reference_triplets(mesh_small, params, mask.elements)
        quad = (mask.alpha * quad_form(assemble_bilinear(mesh_small, params), fld)
                + (mask.beta - mask.alpha) * float(np.dot(x, _reference_matvec(k_d, x))))
        assert e1 == pytest.approx(0.5 * quad - apply_functional(b, fld), rel=1e-12)

    def test_density_weighted_rejects_point_masses(self, mesh_small):
        sel = np.ones((mesh_small.ny, mesh_small.nx), dtype=bool)
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.0)
        load = LoadSpec(point_masses=((1.0, 0.0, 1.0),))
        with pytest.raises(ValueError):
            assemble_load(mesh_small, load, weight=mask)


class TestReinforcementMask:
    def test_density_invariants(self):
        sel = np.ones((4, 16), dtype=bool)
        with pytest.raises(ValueError):
            ReinforcementMask(sel, alpha=1.5, beta=2.0)
        with pytest.raises(ValueError):
            ReinforcementMask(sel, alpha=0.5, beta=0.8)

    def test_area_balance_checked(self, mesh_small):
        # target |D| = |Omega| (1-a)/(b-a) = 1/4 of the plate = 4 columns
        sel = np.zeros((mesh_small.ny, mesh_small.nx), dtype=bool)
        sel[:, :4] = True
        mask = ReinforcementMask(sel, alpha=0.5, beta=2.5)
        assert mask.area_defect(mesh_small) == pytest.approx(0.0, abs=1e-9)
        mask.validate(mesh_small)
        bad = ReinforcementMask(np.zeros_like(sel), alpha=0.5, beta=2.5)
        with pytest.raises(ValueError):
            bad.validate(mesh_small)

    def test_equal_densities_impose_no_area(self, mesh_small):
        mask = ReinforcementMask(np.ones((4, 16), dtype=bool), alpha=1.0, beta=1.0)
        with pytest.raises(ValueError, match="degenerate densities impose no area"):
            mask.target_area(mesh_small)

    def test_complement_and_indicator(self, mesh_small):
        mask = ReinforcementMask.from_indicator(
            mesh_small, lambda x, y: x < np.pi / 2, alpha=0.5, beta=2.0)
        comp = ReinforcementMask(~mask.elements, mask.alpha, mask.beta)
        assert np.array_equal(mask.elements, ~comp.elements)
        assert np.count_nonzero(mask.elements) == mesh_small.nx * mesh_small.ny // 2


class TestExport:
    def test_csv_roundtrip(self, mesh_small, tmp_path):
        rng = np.random.default_rng(13)
        fld = DofField(mesh_small, rng.normal(size=mesh_small.n_dofs))
        path = tmp_path / "field.csv"
        field_to_csv(fld, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,u,ux,uy,uxy"
        assert len(lines) == 1 + mesh_small.n_nodes
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == -mesh_small.half_width
        assert first[2] == fld.dofs[0]  # 17 significant digits round-trip

    def test_csv_bytes_match_cellwise_formatting(self, tmp_path):
        """One format string per row writes the bytes of one ``:.17g`` f-string
        per cell, on values whose shortest and 17-digit forms differ."""
        mesh = Mesh(8, 2, 0.1)
        hard = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                1.5e-310, 1e308, -1.7976931348623157e308, 0.1, 1 / 3,
                -2.0 / 3.0, 1.2345678901234567, 9007199254740993.0, 1e16,
                123456789012345680.0, 1e-5, 100.0, np.pi]
        dofs = np.resize(hard, mesh.n_dofs) * np.resize([1.0, -1.0, 1.0], mesh.n_dofs)
        fld = DofField(mesh, dofs)
        path = tmp_path / "field.csv"
        field_to_csv(fld, path)
        X, Y = mesh.node_coordinates()
        want = "x,y,u,ux,uy,uxy\n" + "".join(
            ",".join(f"{v:.17g}" for v in (X[n], Y[n], *dofs[4 * n:4 * n + 4])) + "\n"
            for n in range(mesh.n_nodes))
        assert path.read_bytes() == want.encode("utf-8")

    def test_write_csv_bytes_match_cellwise_formatting(self, tmp_path):
        """The one result writer takes 1-D columns and 2-D blocks of them and
        writes one ``:.17g`` f-string per cell, non-finite values included;
        no rows leave the header alone."""
        vals = np.array([0.0, -0.0, 5e-324, -1.5e-310, 1e308, np.nan, np.inf,
                         -np.inf, 0.1, 1 / 3])
        path = tmp_path / "t.csv"
        write_csv(path, "a,b,c", [vals, np.column_stack([vals[::-1], -vals])])
        want = "a,b,c\n" + "".join(f"{a:.17g},{b:.17g},{c:.17g}\n"
                                   for a, b, c in zip(vals, vals[::-1], -vals))
        assert path.read_bytes() == want.encode("utf-8")
        write_csv(path, "x,y,value", [np.reshape([], (-1, 2)), []])
        assert path.read_bytes() == b"x,y,value\n"
