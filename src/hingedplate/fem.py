"""Conforming C1 discretization of the plate bending energy.

Tensor-product cubic Hermite rectangles (value, both first derivatives and
the cross derivative at every node) discretize the energy inner product

    (u, v) = int  du dv + (1-sigma) (2 u_xy v_xy - u_xx v_yy - u_yy v_xx)

on the uniform grid of (0, pi) x (-l, l).  The short edges carry the only
essential constraints (value and tangential-derivative dofs pinned to zero);
the free-edge conditions on the long edges are natural and never imposed.

Element matrices and load vectors are accumulated in extended precision:
the fourth-order operator's conditioning (~h^-4) otherwise drowns the
fine-mesh discretization error in assembly roundoff.  An assembled operator
is stored once, as a longdouble CSR matrix; its float64 view for the sparse
factorization is a cast of that matrix, made on each use.  Loads and
stiffness are assembled for the whole mesh at once from one (ny, nx, 16)
element-dof table, each element weighted by a reinforcement mask's weights
when one is given.

What depends on a mesh's shape alone is planned once per shape and kept,
read-only, for the ``PLAN_CACHE_SIZE`` shapes used most recently by a
``functools.lru_cache`` (``_shape_plans``): the ``SumPlan`` that sums the
stiffness triplets (their stable sort, the runs of equal (row, col) and the
CSR pattern) and the eight ``mirror_map``s.
A ``SumPlan`` keeps the plans of ``OrbitBasis.restrict_form`` on its own
pattern, one per mirror group, so the stiffness plan holds those of its
shape.  Every form of a planned shape is then a gather and an
``np.add.reduceat``, in the order the sort gives, so its values are those
of the sort itself.

That numeric pass streams, in blocks of whole runs, into one preallocated
data array, and the plans hold narrow indices: the stiffness plan an int32
element and a uint8 entry of the element matrix per triplet, in place of an
int64 gather from a longdouble array of every element matrix.  At 128x32,
whose stiffness has 9.6 MB of data, the traced peak of a warm assembly is
14 MB (48 MB with full-length temporaries), of a cold one, plan included,
25 MB (64 MB), and of the cold ``R' K R`` of the quarter plate 17 MB (46 MB).

The mirrors of the plate, x -> pi - x and y -> -y, each optionally combined
with negation, are the elements of ``MIRRORS``; this is the one vocabulary
for symmetry throughout the package.  ``mirror_map`` is their one dof map, a
flip of the dof grid, and ``OrbitBasis`` is generated by them.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

LONG = np.longdouble

#: per-node dof order
DOF_VALUE, DOF_DX, DOF_DY, DOF_DXY = 0, 1, 2, 3

#: sign flips of the four dof types under a reflection of y and of x
_Y_MIRROR_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_X_MIRROR_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])

#: the sign of a triplet of ``R' K R``, indexed by whether it is negated
_SIGNS = np.array([1, -1], dtype=LONG)

_GAUSS_PTS, _GAUSS_WTS = np.polynomial.legendre.leggauss(4)


# ---------------------------------------------------------------------------
# mesh and fields
# ---------------------------------------------------------------------------

class DofTable:
    """The dof numbering of a grid of ``nx`` x ``ny`` elements, whose
    subclass sets ``nx`` and ``ny``: four dofs per node, nodes row-major in
    x then y (x fastest)."""

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_dofs(self):
        return 4 * self.n_nodes

    def dof_grid(self):
        """(ny+1, nx+1, 4) dof numbers of every node, indexed [j, i, dof]."""
        return np.arange(self.n_dofs).reshape(self.ny + 1, self.nx + 1, 4)


@dataclass(frozen=True)
class Mesh(DofTable):
    """Uniform rectangular grid of the plate with nx x ny elements."""

    nx: int
    ny: int
    half_width: float

    def __post_init__(self):
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                   for n in (self.nx, self.ny)):
            raise TypeError(f"mesh sizes must be integers, got {self.nx!r}x{self.ny!r}")
        if self.nx < 4 or self.ny < 2:
            raise ValueError(f"mesh must be at least 4x2 elements, got {self.nx}x{self.ny}")
        if not 0.0 < self.half_width < math.inf:  # NaN too
            raise ValueError("half_width must be positive and finite")

    @property
    def hx(self):
        return np.pi / self.nx

    @property
    def hy(self):
        return 2.0 * self.half_width / self.ny

    @property
    def xs(self):
        return np.linspace(0.0, np.pi, self.nx + 1)

    @property
    def ys(self):
        return np.linspace(-self.half_width, self.half_width, self.ny + 1)

    def node_index(self, i, j):
        """Flat node number; nodes are row-major in x then y (x fastest)."""
        return j * (self.nx + 1) + i

    def node_coordinates(self):
        """(x, y) arrays of all nodes in flat node order."""
        X, Y = np.meshgrid(self.xs, self.ys)
        return X.ravel(), Y.ravel()

    def element_centers(self):
        """(ny, nx) arrays X, Y of the element centers, indexed [ej, ei]."""
        return np.meshgrid((np.arange(self.nx) + 0.5) * self.hx,
                           -self.half_width + (np.arange(self.ny) + 0.5) * self.hy)

    def contains(self, x, y):
        """Whether (x, y) lies on the closed plate, up to rounding: x within
        1e-12 of [0, pi], and |y| <= l (1 + 1e-12), as in the series kernel."""
        tol = 1e-12 * max(1.0, self.half_width)
        return -tol <= x <= np.pi + tol and abs(y) <= self.half_width * (1.0 + 1e-12)

    def locate(self, x, y):
        """Element (ei, ej) containing (x, y) and local coordinates in [0,1]^2.

        A point within a few ulps of a grid line lies on it: its local
        coordinate is exactly 0, or exactly 1 on the closing edge x = pi
        (y = l).  So a point load on a node sits on that node alone, and the
        loads at mirror points are exact mirror images."""
        if not self.contains(x, y):
            raise ValueError(f"point ({x}, {y}) outside the closed plate")
        ei, tx = _grid_coordinate(x, self.hx, self.nx)
        ej, ty = _grid_coordinate(y + self.half_width, self.hy, self.ny)
        return ei, ej, tx, ty

    def element_dofs(self, ei, ej):
        """Global dof numbers of the 16 local dofs of element (ei, ej).

        Local order is node (0,0), (1,0), (0,1), (1,1), each with its four
        dofs.  ``ei`` and ``ej`` broadcast; the result gets a trailing axis
        of length 16.
        """
        corners = np.add.outer(self.node_index(ei, ej),
                               [0, 1, self.nx + 1, self.nx + 2])
        dofs = 4 * corners[..., None] + np.arange(4)
        return dofs.reshape(*corners.shape[:-1], 16)

    def element_dof_table(self):
        """(ny, nx, 16) global dofs of every element, indexed [ej, ei]."""
        return self.element_dofs(np.arange(self.nx), np.arange(self.ny)[:, None])

    def free_dof_mask(self):
        """Essential constraints: value and y-derivative pinned on short edges."""
        free = np.ones(self.n_dofs, dtype=bool)
        free[self.dof_grid()[:, [0, -1]][..., [DOF_VALUE, DOF_DY]]] = False
        return free


def _grid_coordinate(u, h, n):
    """Element and local coordinate in [0, 1] of the offset ``u`` along an
    axis of ``n`` elements of length ``h``, an offset within a few ulps of
    a node snapped onto it."""
    t = u / h
    node = round(t)
    if abs(t - node) <= 4 * math.ulp(max(node, 1)):
        return min(node, n - 1), float(node >= n)
    e = int(min(max(t, 0), n - 1))
    return e, float(min(max((u - e * h) / h, 0.0), 1.0))


@dataclass
class DofField:
    """A C1 field given by its nodal (value, ux, uy, uxy) degrees of freedom."""

    mesh: Mesh
    dofs: np.ndarray

    def __post_init__(self):
        self.dofs = np.asarray(self.dofs, dtype=float)
        if self.dofs.shape != (self.mesh.n_dofs,):
            raise ValueError(f"expected {self.mesh.n_dofs} dofs, got {self.dofs.shape}")

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros(mesh.n_dofs))

    @property
    def node_values(self):
        """Point values at nodes, flat node order."""
        return self.dofs[0::4]

    def value_grid(self):
        """Point values as a (ny+1, nx+1) grid."""
        return self.node_values.reshape(self.mesh.ny + 1, self.mesh.nx + 1)

    def sup_norm(self):
        return float(np.max(np.abs(self.node_values)))


# ---------------------------------------------------------------------------
# Hermite basis
# ---------------------------------------------------------------------------

def _hermite_values(t, h):
    """Cubic Hermite basis N on one interval of length h, in local t in [0,1],
    in the order value-left, slope-left, value-right, slope-right; slope
    dofs represent physical derivatives."""
    t = LONG(t)
    h = LONG(h)
    return np.array([1 - 3 * t ** 2 + 2 * t ** 3,
                     h * (t - 2 * t ** 2 + t ** 3),
                     3 * t ** 2 - 2 * t ** 3,
                     h * (t ** 3 - t ** 2)], dtype=LONG)


def _hermite_1d(t, h):
    """(N, dN, d2N) of ``_hermite_values``, each of length 4; derivatives
    are with respect to the physical coordinate."""
    N = _hermite_values(t, h)
    t = LONG(t)
    h = LONG(h)
    dN = np.array([-6 * t + 6 * t ** 2,
                   h * (1 - 4 * t + 3 * t ** 2),
                   6 * t - 6 * t ** 2,
                   h * (3 * t ** 2 - 2 * t)], dtype=LONG) / h
    d2N = np.array([-6 + 12 * t,
                    h * (-4 + 6 * t),
                    6 - 12 * t,
                    h * (6 * t - 2)], dtype=LONG) / h ** 2
    return N, dN, d2N


#: 1-D Hermite factor (x, y) of each local dof: node (0,0), (1,0), (0,1),
#: (1,1), each with value, d/dx, d/dy, d2/dxdy
_PX = np.array([0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3])
_PY = np.array([0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3])


def _local_rows(tx, ty, hx, hy):
    """Values of the 16 element basis functions at local point (tx, ty)."""
    return _hermite_values(tx, hx)[_PX] * _hermite_values(ty, hy)[_PY]


@functools.cache
def element_stiffness(hx, hy, sigma):
    """16x16 element matrix of the energy inner product (extended precision).

    4x4 Gauss is exact here: the integrand is polynomial of degree at most
    six per direction.
    """
    tq = (_GAUSS_PTS.astype(LONG) + 1) / 2
    wq = _GAUSS_WTS.astype(LONG) / 2
    sigma = LONG(sigma)
    K = np.zeros((16, 16), dtype=LONG)
    for tx, wx in zip(tq, wq):
        Nx, dNx, d2Nx = (f[_PX] for f in _hermite_1d(tx, hx))
        for ty, wy in zip(tq, wq):
            Ny, dNy, d2Ny = (f[_PY] for f in _hermite_1d(ty, hy))
            Bxx, Byy, Bxy = d2Nx * Ny, Nx * d2Ny, dNx * dNy
            lap = Bxx + Byy
            w = wx * wy * LONG(hx) * LONG(hy)
            K += w * (np.outer(lap, lap)
                      + (1 - sigma) * (2 * np.outer(Bxy, Bxy)
                                       - np.outer(Bxx, Byy) - np.outer(Byy, Bxx)))
    return K


# ---------------------------------------------------------------------------
# loads and reinforcement regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LoadSpec:
    """A load: bounded density and/or finitely many signed point masses.

    ``density`` is a constant, a read-only (ky, kx) float grid of values on
    the cells of a uniform partition (row 0 at y = -l), or a callable
    (x, y) -> values.  Assembly calls a callable once, on (ny, nx, 4, 4) arrays of all Gauss points, so it must
    broadcast over arrays; a scalar result counts as a constant.
    ``point_masses`` is a tuple of (x, y, weight).  A load compares and
    hashes by identity.
    """

    density: object = None
    point_masses: tuple = ()

    def __post_init__(self):
        if self.density is not None and not callable(self.density):
            arr = np.array(self.density, dtype=float)
            if arr.ndim not in (0, 2):
                raise ValueError("density must be a constant, a 2-D cell grid "
                                 "or a callable")
            object.__setattr__(self, "density", float(arr) if arr.ndim == 0
                               else _frozen(arr))
        object.__setattr__(self, "point_masses",
                           tuple((float(x), float(y), float(w))
                                 for (x, y, w) in self.point_masses))

    @classmethod
    def point(cls, x, y, weight=1.0):
        return cls(point_masses=((x, y, weight),))

    @classmethod
    def antisym_pair(cls, xi, eta):
        """Antisymmetric pair (delta_(xi,eta) - delta_(xi,-eta)) / 2."""
        return cls(point_masses=((xi, eta, 0.5), (xi, -eta, -0.5)))

    def validate(self, mesh, weight=None):
        """Raise unless every point mass lies on the plate and, with a density
        ``weight`` given, there is none: point masses cannot be weighted."""
        for (x, y, _) in self.point_masses:
            if not mesh.contains(x, y):
                raise ValueError(f"point mass at ({x}, {y}) outside the closed plate")
        if weight is not None and self.point_masses and not weight.is_degenerate:
            raise ValueError("density weighting applies to integrable loads only; "
                             "remove point masses")


@dataclass(frozen=True)
class ReinforcementMask:
    """Element-resolution indicator of the reinforced region D.

    ``elements`` has shape (ny, nx); densities satisfy 0 < alpha <= 1 <= beta
    and the degenerate case alpha = beta = 1 collapses every weighting.  A mask
    may miss the area balance by its ``area_defect``, which
    ``ReinforcementFamily.candidates`` bounds.
    """

    elements: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "elements", np.asarray(self.elements, dtype=bool))
        if not (0.0 < self.alpha <= 1.0 <= self.beta):
            raise ValueError(f"densities must satisfy 0 < alpha <= 1 <= beta, "
                             f"got alpha={self.alpha}, beta={self.beta}")

    @property
    def is_degenerate(self):
        return self.alpha == 1.0 and self.beta == 1.0

    @property
    def weights(self):
        """(ny, nx) element weights: beta on D, alpha off D."""
        return np.where(self.elements, self.beta, self.alpha)

    def target_area(self, mesh):
        """|D| imposed by the density balance |D| = |Omega| (1-a)/(b-a)."""
        if self.beta == self.alpha:
            raise ValueError("degenerate densities impose no area constraint")
        area_omega = 2.0 * np.pi * mesh.half_width
        return area_omega * (1.0 - self.alpha) / (self.beta - self.alpha)

    def area(self, mesh):
        return float(np.count_nonzero(self.elements)) * mesh.hx * mesh.hy

    def area_defect(self, mesh):
        """Signed defect of |D| from its target, in units of one element."""
        return (self.area(mesh) - self.target_area(mesh)) / (mesh.hx * mesh.hy)

    def check_shape(self, mesh):
        if self.elements.shape != (mesh.ny, mesh.nx):
            raise ValueError(f"mask shape {self.elements.shape} does not match "
                             f"mesh {mesh.nx}x{mesh.ny}")

    @classmethod
    def from_indicator(cls, mesh, indicator, alpha, beta):
        """Rasterize a region indicator (x, y) -> bool by element centers."""
        return cls(indicator(*mesh.element_centers()), alpha, beta)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

class AssembledForm:
    """Symmetric operator on the dof space, kept in extended precision.

    Stored once, as a longdouble CSR matrix whose rows hold sorted,
    duplicate-free columns.  ``pattern`` is the ``SumPlan`` that built it,
    whose read-only ``indices`` and ``indptr`` the matrix shares.
    """

    def __init__(self, csr, pattern):
        self.csr = csr
        self.pattern = pattern

    @classmethod
    def from_triplets(cls, shape, rows, cols, vals):
        """Sum duplicate (row, col) entries of the 1-D triplet arrays in
        input order, then store: the sort-based path that every ``SumPlan``
        takes once, here with the identity gather."""
        take = np.arange(len(vals), dtype=_index_dtype(len(vals)))
        return SumPlan(shape, rows, cols, (take,)).form(vals)

    @property
    def matrix(self):
        """float64 CSR cast of the operator, made anew on each use and not
        kept; its values are read-only and it shares the form's pattern."""
        csr = self.csr
        return sp.csr_matrix((_frozen(csr.data.astype(float)), csr.indices, csr.indptr),
                             shape=csr.shape)

    def matvec_extended(self, x):
        """Operator application in longdouble.

        Each row sums its products from zero in column order.
        """
        return self.csr @ x


def _frozen(array):
    """``array``, made read-only."""
    array.flags.writeable = False
    return array


#: triplets per block of ``SumPlan.form``'s numeric pass, rounded to whole
#: runs: what bounds its working memory, whatever the plan's length
BLOCK_TRIPLETS = 1 << 16


def _index_dtype(size):
    """The narrower of int32 and int64 that indexes ``size`` entries."""
    return np.int32 if size <= np.iinfo(np.int32).max else np.int64


class SumPlan:
    """The symbolic half of summing a fixed list of triplets into a CSR
    matrix, computed once and kept read-only.

    ``rows``, ``cols`` and each index array of ``take`` broadcast to one
    shape, whose C order is the input order of the triplets.  Triplet ``k``
    puts the product of ``sources[i][take[i][k]]`` over the sources given
    to ``form`` at ``(rows[k], cols[k])``.  One stable sort of the row-major
    key stores each ``take`` in the order of the sum, so duplicates keep
    their input order; each run of one (row, col) begins at ``starts``.  The
    plan is compact: keys and ``starts`` are int32 unless their sizes need
    int64, each ``take`` keeps its caller's narrow dtype, the sorted rows and
    columns are read off the one sorted key, and each temporary is dropped
    once used.  ``indices`` and ``indptr`` are the pattern of the
    sum, in the index dtype scipy keeps, so every form the plan builds
    shares them.  The numeric half is ``form``; the module docstring gives
    the set-up memory of both halves at 128x32.  ``restrictions`` maps a
    mirror group to the plan of ``R' K R`` on this pattern
    (``OrbitBasis.restrict_form``), built on first use and kept as long as
    the plan.
    """

    def __init__(self, shape, rows, cols, take):
        dtype = _index_dtype(shape[0] * shape[1])
        key = np.add(np.multiply(rows, shape[1], dtype=dtype), cols, dtype=dtype)
        triplets, key = key.shape, key.ravel()
        size = key.size
        order = np.argsort(key, kind="stable")
        key = key[order]
        keep = np.empty(size, dtype=bool)
        keep[:1] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        starts = np.flatnonzero(keep).astype(_index_dtype(size))
        del keep
        key = key[starts]
        # row pointers from row counts, so the conversion sums nothing
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(key // shape[1], minlength=shape[0]), out=indptr[1:])
        pattern = sp.csr_matrix((np.zeros(starts.size, dtype=np.int8), key % shape[1],
                                 indptr), shape=shape)
        del key
        take = tuple(np.broadcast_to(t, triplets).ravel()[order] for t in take)
        self.shape = shape
        self.take = tuple(_frozen(t) for t in take)
        self.starts = _frozen(starts)
        self.indices = _frozen(pattern.indices)
        self.indptr = _frozen(pattern.indptr)
        self.restrictions = {}

    def form(self, *sources):
        """The AssembledForm of ``sources``, one per ``take`` array from the
        first on; a ``take`` array left without a source counts as ones, and
        the first source gives the dtype.

        The pass streams: blocks of whole runs, about ``BLOCK_TRIPLETS``
        triplets each, are gathered, multiplied and summed by
        ``np.add.reduceat`` straight into the form's one data array, so no
        full-length gathered copy is made.  Each run is summed from its own
        triplets alone, so its value is that of one pass over them all.
        """
        starts, size = self.starts, self.take[0].size
        data = np.empty(starts.size, dtype=sources[0].dtype)
        # the first run of each block, and the end of the last
        edges = np.unique(np.append(
            np.searchsorted(starts, np.arange(0, size, BLOCK_TRIPLETS)), starts.size))
        for r0, r1 in zip(edges[:-1], edges[1:]):
            t0, t1 = starts[r0], starts[r1] if r1 < starts.size else size
            # intp indices: numpy casts narrower ones far more slowly itself
            vals = sources[0][self.take[0][t0:t1].astype(np.intp)]
            for source, take in zip(sources[1:], self.take[1:]):
                vals *= source[take[t0:t1].astype(np.intp)]
            np.add.reduceat(vals, starts[r0:r1] - t0, out=data[r0:r1])
        return AssembledForm(sp.csr_matrix((data, self.indices, self.indptr),
                                           shape=self.shape), self)


#: mesh shapes (nx, ny) whose plans ``_shape_plans`` keeps; the least
#: recently used shape is dropped first
PLAN_CACHE_SIZE = 4


class _ShapePlans:
    """Everything of a mesh's operators that depends on its shape alone,
    each part built on first use: the ``SumPlan`` of the stiffness triplets,
    which keeps the ``R' K R`` plan of each mirror group on its pattern, and
    the ``mirror_map`` of each mirror.  ``_shape_plans`` makes one, empty,
    per shape it keeps.  At 128x32 the stiffness plan holds 10.1 MB and the
    quarter plate's ``R' K R`` plan 4.1 MB."""

    def __init__(self):
        self.bilinear = None
        self.mirrors = {}


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _shape_plans(nx, ny):
    """The plans of the mesh shape (nx, ny): a ``functools.lru_cache`` of
    the PLAN_CACHE_SIZE shapes used most recently, so a shape met first or
    again after it was dropped gets fresh, empty plans."""
    return _ShapePlans()


def _element_weights(mesh, weight):
    """(ny, nx) weights of a ReinforcementMask: beta on D, alpha off D; ones,
    which multiply exactly, without one."""
    if weight is None:
        return np.ones((mesh.ny, mesh.nx))
    weight.check_shape(mesh)
    return weight.weights


def assemble_bilinear(mesh, params, weight=None):
    """Galerkin matrix of the energy inner product, in extended precision.

    With a ReinforcementMask ``weight``, each element matrix is multiplied
    by beta on D and alpha off D, as ``assemble_load`` weights the density:
    the stiffness of the stiffness-weighted energy.  The element matrices
    are summed by the ``SumPlan`` of the mesh's shape, sorted once per shape
    (``_shape_plans``), in the order the sort gives.  Its triplets index an
    element (int32) and an entry of ``Ke`` (uint8), so a form's blocks
    multiply ``w[e] * Ke[l]`` as they go, and the base energy takes ``Ke[l]``
    alone: no longdouble array of every element matrix is formed.
    """
    plans = _shape_plans(mesh.nx, mesh.ny)
    if plans.bilinear is None:
        # triplet (e, a, b) of element e (row-major) couples its local dofs
        # a and b: entry a * 16 + b of Ke, times the weight of e
        gl = mesh.element_dof_table().reshape(-1, 16, 1).astype(_index_dtype(mesh.n_dofs))
        elements = np.arange(gl.shape[0], dtype=_index_dtype(gl.shape[0]))
        plans.bilinear = SumPlan((mesh.n_dofs, mesh.n_dofs), gl, gl.reshape(-1, 1, 16),
                                 (np.arange(256, dtype=np.uint8).reshape(16, 16),
                                  elements[:, None, None]))
    Ke = element_stiffness(mesh.hx, mesh.hy, params.sigma).ravel()
    if weight is None:
        return plans.bilinear.form(Ke)  # unit weights: the products are Ke itself
    return plans.bilinear.form(Ke, _element_weights(mesh, weight).astype(LONG).ravel())


def assemble_load(mesh, load, weight=None):
    """Dof functional of a load, in extended precision.

    Point masses evaluate the C1 basis exactly at their location (legitimate
    because the field space embeds in continuous functions).  With ``weight``
    given, the density is multiplied by beta on D and alpha off D; point
    masses cannot be weighted.
    """
    load.validate(mesh, weight)
    b = np.zeros(mesh.n_dofs, dtype=LONG)
    fv = load.density
    if fv is not None:
        tq = (_GAUSS_PTS + 1) / 2
        wq = _GAUSS_WTS / 2
        if not isinstance(fv, float):
            # quadrature point (x0 + tq[a] hx, y0 + tq[bq] hy) of element
            # (ei, ej) sits at [ej, ei, a, bq] of X (nx, 4, 1) and Y (ny, 1, 1, 4)
            l = mesh.half_width
            X = (np.arange(mesh.nx) * mesh.hx)[:, None, None] + (tq * mesh.hx)[:, None]
            Y = (-l + np.arange(mesh.ny) * mesh.hy)[:, None, None, None] + tq * mesh.hy
            if callable(fv):
                # contiguous, writable copies: the density is caller code
                shape = (mesh.ny, mesh.nx, 4, 4)
                fv = np.asarray(fv(np.broadcast_to(X, shape).copy(),
                                   np.broadcast_to(Y, shape).copy()), dtype=float)
            else:  # the cell of each Gauss point
                ky, kx = fv.shape
                fv = fv[np.clip(((Y + l) / (2 * l) * ky).astype(int), 0, ky - 1),
                        np.clip((X / np.pi * kx).astype(int), 0, kx - 1)]
        w_elem = _element_weights(mesh, weight)
        coef = (np.outer(wq, wq) * w_elem[..., None, None] * fv).astype(LONG)
        # row 4 a + bq of R: the basis at quadrature point (a, bq); longdouble
        # matmul sums each element vector from zero in that order
        R = np.array([_local_rows(tx, ty, mesh.hx, mesh.hy) for tx in tq for ty in tq])
        fe = coef.reshape(mesh.ny, mesh.nx, 16) @ R
        scale = LONG(mesh.hx) * LONG(mesh.hy)
        np.add.at(b, mesh.element_dof_table().ravel(), (fe * scale).ravel())
    for (x, y, w) in load.point_masses:
        ei, ej, tx, ty = mesh.locate(x, y)
        b[mesh.element_dofs(ei, ej)] += LONG(w) * _local_rows(tx, ty, mesh.hx, mesh.hy)
    return b


def apply_functional(load_vector, field):
    """Value of an assembled load functional on a field."""
    return float(np.dot(load_vector.astype(float), field.dofs))


# ---------------------------------------------------------------------------
# point evaluation and symmetry
# ---------------------------------------------------------------------------

def point_eval(field, q):
    """C1 interpolant value at a point of the closed plate."""
    x, y = q
    mesh = field.mesh
    ei, ej, tx, ty = mesh.locate(x, y)
    B = _local_rows(tx, ty, mesh.hx, mesh.hy).astype(float)
    return float(B @ field.dofs[mesh.element_dofs(ei, ej)])


#: the mirrors of the plate as elements ``(fx, fy, s)``: x -> pi - x when
#: ``fx``, y -> -y when ``fy``, then multiplication by ``s``; the identity
#: first, the negating elements last
MIRRORS = tuple((fx, fy, s) for s in (1, -1) for fy in (False, True)
                for fx in (False, True))


def mirror_axes(element):
    """The axes of a (ny, nx)-shaped node or cell grid that ``element`` flips."""
    fx, fy, _ = element
    return [axis for axis, flip in ((1, fx), (0, fy)) if flip]


def mirror_map(mesh, element):
    """Dof permutation ``perm`` and signs of the mirror ``element`` of
    ``MIRRORS``.  The image of a dof vector ``v`` is ``signs * v[perm]``;
    every element is its own inverse, and ``perm[DOF_VALUE::4] // 4`` is its
    node permutation.  Both arrays are built once per mesh shape and
    element (``_shape_plans``) and are read-only."""
    maps = _shape_plans(mesh.nx, mesh.ny).mirrors
    if element not in maps:
        fx, fy, s = element
        dof_signs = s * np.where(fx, _X_MIRROR_SIGNS, 1.0) * np.where(fy, _Y_MIRROR_SIGNS, 1.0)
        maps[element] = (_frozen(np.flip(mesh.dof_grid(), mirror_axes(element)).ravel()),
                         _frozen(np.tile(dof_signs, mesh.n_nodes)))
    return maps[element]


def mirror_field(field, element):
    """The field composed with the mirror ``element`` of ``MIRRORS``."""
    perm, signs = mirror_map(field.mesh, element)
    return DofField(field.mesh, signs * field.dofs[perm])


class OrbitBasis(DofTable):
    """Coordinates of the fields invariant under a group of mirrors of a mesh.

    The group is generated by ``generators``, elements of ``MIRRORS`` that
    each flip one axis, one per axis: ``(True, False, s)`` flips x -> pi - x
    and ``(False, True, s)`` flips y -> -y, combined with negation when
    ``s`` is -1.  An invariant field is fixed by one coordinate per dof
    orbit, numbered by the ``DofTable`` of the ``nx`` x ``ny`` elements of
    the representative nodes (i <= nx/2 when x is flipped, j <= ny/2 when y
    is); ``free_dof_mask`` marks the free coordinates.  Each full dof ``k``
    is the signed copy ``sign[k] * coords[coordinate[k]]``; its sign is 0
    where some group element maps it to its own negative (ux and uxy on
    x = pi/2, uy and uxy on y = 0, and the value there under a negating
    element).  Such a coordinate is not free.  ``R`` below is the
    ``n_dofs(mesh) x n_dofs`` matrix of this map.
    """

    def __init__(self, mesh, generators):
        flips = [g[:2] for g in generators]
        if (not set(generators) <= set(MIRRORS) or len(set(flips)) < len(flips)
                or not set(flips) <= {(True, False), (False, True)}):
            raise ValueError("a mirror group is generated by elements of MIRRORS "
                             f"that each flip one axis, one per axis: {generators!r}")
        self.mesh = mesh
        self.group = tuple(generators)
        self.nx = mesh.nx // 2 if (True, False) in flips else mesh.nx
        self.ny = mesh.ny // 2 if (False, True) in flips else mesh.ny
        self.representatives = mesh.dof_grid()[:self.ny + 1, :self.nx + 1].ravel()
        # fold the generators in: each dof not yet covered copies the
        # coordinate of its image, and its sign times the generator's, once
        # that image is covered (-1 marks an uncovered dof)
        self.coordinate = np.full(mesh.n_dofs, -1, dtype=np.int64)
        self.coordinate[self.representatives] = np.arange(self.n_dofs)
        sign = np.ones(mesh.n_dofs)
        negated = np.zeros(mesh.n_dofs, dtype=bool)
        for generator in self.group:
            perm, signs = mirror_map(mesh, generator)
            todo = np.flatnonzero(self.coordinate < 0)
            self.coordinate[todo] = self.coordinate[perm[todo]]
            sign[todo] = signs[todo] * sign[perm[todo]]
            negated |= (perm == np.arange(mesh.n_dofs)) & (signs < 0.0)
        # zeroed after the fold, so no sign is -0.0
        self.sign = np.where(negated, 0.0, sign)

    def free_dof_mask(self):
        """Coordinates whose representative dof is free and not forced to zero."""
        rep = self.representatives
        return self.mesh.free_dof_mask()[rep] & (self.sign[rep] != 0.0)

    @property
    def representative_nodes(self):
        """Full node of each orbit node."""
        return self.representatives[DOF_VALUE::4] // 4

    def expand(self, coords):
        """The full dof vector ``R coords``; exact, each entry one signed copy."""
        return self.sign * coords[self.coordinate]

    def restrict(self, vector):
        """``R' vector``, the functional of a full load on the coordinates."""
        out = np.zeros(self.n_dofs, dtype=vector.dtype)
        np.add.at(out, self.coordinate, self.sign * vector)
        return out

    def restrict_form(self, form):
        """``R' K R`` from the assembled form, in its extended precision.

        The form's entries whose sign product is not zero are gathered,
        signed (a uint8 index into ``_SIGNS`` per triplet) and summed by a
        ``SumPlan`` built from int8 sign products once per pattern and group
        and kept on the form's pattern (``SumPlan.restrictions``): the
        stiffness plan of a form of ``assemble_bilinear`` lives with its
        shape's plans (``_shape_plans``), and so do its restrictions."""
        plans = form.pattern.restrictions
        if self.group not in plans:
            csr = form.csr
            sign = self.sign.astype(np.int8)
            coordinate = self.coordinate.astype(_index_dtype(self.n_dofs))
            rows = np.repeat(np.arange(csr.shape[0], dtype=csr.indices.dtype),
                             np.diff(csr.indptr))
            s = sign[rows]
            s *= sign[csr.indices]
            kept = np.flatnonzero(s).astype(_index_dtype(s.size))
            rows = coordinate[rows[kept]]
            cols = coordinate[csr.indices[kept]]
            negated = (s[kept] < 0).view(np.uint8)
            del s
            plans[self.group] = SumPlan((self.n_dofs, self.n_dofs), rows, cols,
                                        (kept, negated))
        return plans[self.group].form(form.csr.data, _SIGNS)


def symmetry_decompose(field):
    """Even and odd parts in y; the parts are energy-orthogonal."""
    mirrored = mirror_field(field, (False, True, 1))
    even = DofField(field.mesh, 0.5 * (field.dofs + mirrored.dofs))
    odd = DofField(field.mesh, 0.5 * (field.dofs - mirrored.dofs))
    return even, odd


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def quad_form(form, field):
    """x' K x of a form on a field, from the extended-precision product."""
    x = field.dofs.astype(LONG)
    return float(np.dot(x, form.matvec_extended(x)))


def energy(form, rhs, field):
    """Energy 1/2 x' K x - b' x of a field under an assembled form and load;
    a weighted energy is the one whose form or load carries the weights."""
    return 0.5 * quad_form(form, field) - apply_functional(rhs, field)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def write_csv(path, header, columns):
    """Write the equal-length ``columns`` (1-D, or 2-D blocks of columns) as
    CSV under the line ``header``, each number in ``%.17g``, which round-trips
    every float64: the one writer of every result data file."""
    rows = np.column_stack(columns)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write("".join([line % tuple(row) for row in rows.tolist()]))


def field_to_csv(field, path):
    """Dump nodal dofs as CSV x,y,u,ux,uy,uxy, row-major in x then y."""
    X, Y = field.mesh.node_coordinates()
    write_csv(path, "x,y,u,ux,uy,uxy", [X, Y, field.dofs.reshape(-1, 4)])
