"""Point-load location and basis rows against the formulas they replaced.

``Mesh.locate`` snaps with plain float arithmetic, ``_local_rows`` forms
the value rows alone and ``element_stiffness`` forms its derivative rows
itself.  The oracles here are the earlier formulas, numpy scalar calls and
all three 1-D factors; element, local coordinates (``float.hex``), every
extended-precision load entry and the element matrix must agree, on random
points and on points within a few ulps of the grid lines.
"""

import math

import numpy as np
import pytest

from hingedplate import LoadSpec, Mesh, assemble_load
from hingedplate.fem import (LONG, _GAUSS_PTS, _GAUSS_WTS, _PX, _PY, _local_rows,
                             element_stiffness)

L = 0.1
MESHES = [Mesh(16, 4, L), Mesh(64, 16, L), Mesh(5, 3, np.pi / 150)]


def _grid_coordinate_oracle(u, h, n):
    t = u / h
    node = round(t)
    if abs(t - node) <= 4 * np.spacing(max(node, 1)):
        return min(node, n - 1), float(node >= n)
    e = min(int(np.clip(t, 0, n - 1)), n - 1)
    return e, float(np.clip((u - e * h) / h, 0.0, 1.0))


def _locate_oracle(mesh, x, y):
    ei, tx = _grid_coordinate_oracle(x, mesh.hx, mesh.nx)
    ej, ty = _grid_coordinate_oracle(y + mesh.half_width, mesh.hy, mesh.ny)
    return ei, ej, tx, ty


def _hermite_oracle(t, h):
    t = LONG(t)
    h = LONG(h)
    N = np.array([1 - 3 * t ** 2 + 2 * t ** 3,
                  h * (t - 2 * t ** 2 + t ** 3),
                  3 * t ** 2 - 2 * t ** 3,
                  h * (t ** 3 - t ** 2)], dtype=LONG)
    dN = np.array([-6 * t + 6 * t ** 2,
                   h * (1 - 4 * t + 3 * t ** 2),
                   6 * t - 6 * t ** 2,
                   h * (3 * t ** 2 - 2 * t)], dtype=LONG) / h
    d2N = np.array([-6 + 12 * t,
                    h * (-4 + 6 * t),
                    6 - 12 * t,
                    h * (6 * t - 2)], dtype=LONG) / h ** 2
    return N, dN, d2N


def _rows_oracle(tx, ty, hx, hy):
    return _hermite_oracle(tx, hx)[0][_PX] * _hermite_oracle(ty, hy)[0][_PY]


def _same(a, b):
    """Equal extended-precision arrays, signed zeros included."""
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and np.array_equal(np.signbit(a), np.signbit(b)))


def _nudged(value, ulps):
    """``value`` moved by ``ulps`` floats, up or down."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


def _points(mesh, seed):
    """Random points, grid-line crossings moved by up to 6 ulps (some snap,
    some do not), and the corners."""
    rng = np.random.default_rng(seed)
    l = mesh.half_width
    pts = [(float(x), float(y)) for x, y in rng.uniform((0.0, -l), (np.pi, l), (20, 2))]
    pts += [tuple(p) for p in rng.uniform((0.0, -l), (np.pi, l), (20, 2))]  # numpy floats
    for _ in range(60):
        i, j = rng.integers(0, mesh.nx + 1), rng.integers(0, mesh.ny + 1)
        x = _nudged(float(mesh.xs[i]), int(rng.integers(-6, 7)))
        y = _nudged(float(mesh.ys[j]), int(rng.integers(-6, 7)))
        if mesh.contains(x, y):
            pts.append((x, y))
    pts += [(x, y) for x in (0.0, np.pi) for y in (-l, l)]
    pts += [(i * mesh.hx, -l + j * mesh.hy) for i in range(mesh.nx + 1)
            for j in range(mesh.ny + 1)]
    return pts


@pytest.mark.parametrize("mesh", MESHES)
def test_locate_and_rows_match_the_old_formulas(mesh):
    for x, y in _points(mesh, mesh.nx):
        ei, ej, tx, ty = mesh.locate(x, y)
        oi, oj, otx, oty = _locate_oracle(mesh, x, y)
        assert (ei, ej, tx.hex(), ty.hex()) == (oi, oj, otx.hex(), oty.hex())
        assert type(tx) is float and type(ty) is float
        assert _same(_local_rows(tx, ty, mesh.hx, mesh.hy),
                     _rows_oracle(tx, ty, mesh.hx, mesh.hy))


def _stiffness_oracle(hx, hy, sigma):
    """The element matrix from the earlier derivative rows, summed over the
    4x4 Gauss points in the order of operations of ``element_stiffness``."""
    tq = (_GAUSS_PTS.astype(LONG) + 1) / 2
    wq = _GAUSS_WTS.astype(LONG) / 2
    sigma = LONG(sigma)
    K = np.zeros((16, 16), dtype=LONG)
    for tx, wx in zip(tq, wq):
        for ty, wy in zip(tq, wq):
            Nx, dNx, d2Nx = (f[_PX] for f in _hermite_oracle(tx, hx))
            Ny, dNy, d2Ny = (f[_PY] for f in _hermite_oracle(ty, hy))
            Bxx, Byy, Bxy = d2Nx * Ny, Nx * d2Ny, dNx * dNy
            lap = Bxx + Byy
            w = wx * wy * LONG(hx) * LONG(hy)
            K += w * (np.outer(lap, lap)
                      + (1 - sigma) * (2 * np.outer(Bxy, Bxy)
                                       - np.outer(Bxx, Byy) - np.outer(Byy, Bxx)))
    return K


@pytest.mark.parametrize("mesh", MESHES)
def test_derivative_rows_match_the_old_formulas(mesh):
    """The element matrix, the one consumer of the derivative rows, and the
    value rows at random and edge points keep the earlier formulas' bits."""
    for sigma in (0.0, 0.2, 0.3):
        assert _same(element_stiffness(mesh.hx, mesh.hy, sigma),
                     _stiffness_oracle(mesh.hx, mesh.hy, sigma))
    rng = np.random.default_rng(1)
    for tx, ty in [(0.0, 1.0), (1.0, 0.0)] + list(rng.uniform(0.0, 1.0, (6, 2))):
        assert _same(_local_rows(tx, ty, mesh.hx, mesh.hy),
                     _rows_oracle(tx, ty, mesh.hx, mesh.hy))


@pytest.mark.parametrize("mesh", MESHES)
def test_point_mass_loads_match_the_old_formulas(mesh):
    rng = np.random.default_rng(mesh.ny)
    masses = tuple((x, y, float(rng.uniform(-2.0, 2.0)))
                   for x, y in _points(mesh, mesh.ny + 7))
    want = np.zeros(mesh.n_dofs, dtype=LONG)
    for x, y, w in masses:
        ei, ej, tx, ty = _locate_oracle(mesh, x, y)
        want[mesh.element_dofs(ei, ej)] += LONG(w) * _rows_oracle(tx, ty, mesh.hx, mesh.hy)
    assert _same(assemble_load(mesh, LoadSpec(point_masses=masses)), want)
