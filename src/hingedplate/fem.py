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
factorization is a cast of that matrix.  Loads and stiffness are assembled
for the whole mesh at once from one (ny, nx, 16) element-dof table, each
element weighted by a reinforcement mask's weights when one is given.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

LONG = np.longdouble

#: per-node dof order
DOF_VALUE, DOF_DX, DOF_DY, DOF_DXY = 0, 1, 2, 3

#: sign flips of the four dof types under a reflection of y and of x
_Y_MIRROR_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])
_X_MIRROR_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])

_GAUSS_PTS, _GAUSS_WTS = np.polynomial.legendre.leggauss(4)


# ---------------------------------------------------------------------------
# mesh and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mesh:
    """Uniform rectangular grid of the plate with nx x ny elements."""

    nx: int
    ny: int
    half_width: float

    def __post_init__(self):
        if self.nx < 4 or self.ny < 2:
            raise ValueError(f"mesh must be at least 4x2 elements, got {self.nx}x{self.ny}")
        if self.half_width <= 0.0:
            raise ValueError("half_width must be positive")

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

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_dofs(self):
        return 4 * self.n_nodes

    def node_index(self, i, j):
        """Flat node number; nodes are row-major in x then y (x fastest)."""
        return j * (self.nx + 1) + i

    def dof_grid(self):
        """(ny+1, nx+1, 4) global dofs of every node, indexed [j, i, dof]."""
        return np.arange(self.n_dofs).reshape(self.ny + 1, self.nx + 1, 4)

    def node_coordinates(self):
        """(x, y) arrays of all nodes in flat node order."""
        X, Y = np.meshgrid(self.xs, self.ys)
        return X.ravel(), Y.ravel()

    def contains(self, x, y):
        """Whether (x, y) lies on the closed plate, up to rounding."""
        l = self.half_width
        tol = 1e-12 * max(1.0, l)
        return -tol <= x <= np.pi + tol and -l - tol <= y <= l + tol

    def locate(self, x, y):
        """Element (ei, ej) containing (x, y) and local coordinates in [0,1]^2.

        A point on the closing edge x = pi (y = l) gets the exact local
        coordinate 1, as one on x = 0 (y = -l) gets the exact 0, so its load
        sits on the edge's nodes alone."""
        if not self.contains(x, y):
            raise ValueError(f"point ({x}, {y}) outside the closed plate")
        l = self.half_width
        ei = min(int(np.clip(x / self.hx, 0, self.nx - 1)), self.nx - 1)
        ej = min(int(np.clip((y + l) / self.hy, 0, self.ny - 1)), self.ny - 1)
        tx = 1.0 if x >= np.pi else (x - ei * self.hx) / self.hx
        ty = 1.0 if y >= l else (y + l - ej * self.hy) / self.hy
        return ei, ej, float(np.clip(tx, 0.0, 1.0)), float(np.clip(ty, 0.0, 1.0))

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

def _hermite_1d(t, h):
    """Cubic Hermite basis on one interval of length h, in local t in [0,1].

    Returns (N, dN, d2N), each of length 4 in the order value-left,
    slope-left, value-right, slope-right; derivatives are with respect to the
    physical coordinate and slope dofs represent physical derivatives.
    """
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


#: 1-D Hermite factor (x, y) of each local dof: node (0,0), (1,0), (0,1),
#: (1,1), each with value, d/dx, d/dy, d2/dxdy
_PX = np.array([0, 1, 0, 1, 2, 3, 2, 3, 0, 1, 0, 1, 2, 3, 2, 3])
_PY = np.array([0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3])


def _local_rows(tx, ty, hx, hy, derivatives=False):
    """Rows of the 16 element basis functions at local point (tx, ty).

    Returns B (values) or (B, Bx, By, Bxx, Byy, Bxy) with physical
    derivatives when ``derivatives`` is set.
    """
    Nx, dNx, d2Nx = (f[_PX] for f in _hermite_1d(tx, hx))
    Ny, dNy, d2Ny = (f[_PY] for f in _hermite_1d(ty, hy))
    if not derivatives:
        return Nx * Ny
    return Nx * Ny, dNx * Ny, Nx * dNy, d2Nx * Ny, Nx * d2Ny, dNx * dNy


_ELEMENT_CACHE = {}


def element_stiffness(hx, hy, sigma):
    """16x16 element matrix of the energy inner product (extended precision).

    4x4 Gauss is exact here: the integrand is polynomial of degree at most
    six per direction.
    """
    key = (float(hx), float(hy), float(sigma))
    if key in _ELEMENT_CACHE:
        return _ELEMENT_CACHE[key]
    tq = (_GAUSS_PTS.astype(LONG) + 1) / 2
    wq = _GAUSS_WTS.astype(LONG) / 2
    sigma = LONG(sigma)
    K = np.zeros((16, 16), dtype=LONG)
    for tx, wx in zip(tq, wq):
        for ty, wy in zip(tq, wq):
            _, _, _, Bxx, Byy, Bxy = _local_rows(tx, ty, hx, hy, derivatives=True)
            lap = Bxx + Byy
            w = wx * wy * LONG(hx) * LONG(hy)
            K += w * (np.outer(lap, lap)
                      + (1 - sigma) * (2 * np.outer(Bxy, Bxy)
                                       - np.outer(Bxx, Byy) - np.outer(Byy, Bxx)))
    _ELEMENT_CACHE[key] = K
    return K


# ---------------------------------------------------------------------------
# loads and reinforcement regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadSpec:
    """A load: bounded density and/or finitely many signed point masses.

    ``density`` is a callable (x, y) -> values or a constant.  Assembly calls
    a callable once, on (ny, nx, 4, 4) arrays of all Gauss points, so it must
    broadcast over arrays; a scalar result counts as a constant.
    ``point_masses`` is a tuple of (x, y, weight).
    """

    density: object = None
    point_masses: tuple = ()

    def __post_init__(self):
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
    and the degenerate case alpha = beta = 1 collapses every weighting.
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

    def validate(self, mesh, tol_elements=1.0):
        self.check_shape(mesh)
        if not self.is_degenerate and abs(self.area_defect(mesh)) > tol_elements:
            raise ValueError(
                f"|D|={self.area(mesh):.6g} misses the density balance "
                f"|Omega|(1-alpha)/(beta-alpha)={self.target_area(mesh):.6g} "
                f"by more than {tol_elements:g} element(s)")

    @classmethod
    def from_indicator(cls, mesh, indicator, alpha, beta):
        """Rasterize a region indicator (x, y) -> bool by element centers."""
        xc = (np.arange(mesh.nx) + 0.5) * mesh.hx
        yc = -mesh.half_width + (np.arange(mesh.ny) + 0.5) * mesh.hy
        X, Y = np.meshgrid(xc, yc)
        return cls(indicator(X, Y), alpha, beta)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

class AssembledForm:
    """Symmetric operator on the dof space, kept in extended precision.

    Stored once, as a longdouble CSR matrix whose rows hold sorted,
    duplicate-free columns.
    """

    def __init__(self, csr):
        self.csr = csr

    @classmethod
    def from_triplets(cls, shape, rows, cols, vals):
        """Sum duplicate (row, col) entries in input order, then store."""
        # one stable sort on the row-major key: the permutation of
        # lexsort((cols, rows)), so duplicates keep their input order
        key = rows.astype(np.int64) * shape[1] + cols
        order = np.argsort(key, kind="stable")
        rows, cols, vals = rows[order], cols[order], vals[order]
        keep = np.ones(len(rows), dtype=bool)
        keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(keep)
        # row pointers from row counts, so the conversion sums nothing
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[starts], minlength=shape[0]), out=indptr[1:])
        return cls(sp.csr_matrix((np.add.reduceat(vals, starts), cols[starts], indptr),
                                 shape=shape))

    @property
    def matrix(self):
        """float64 CSR cast of the operator."""
        return self.csr.astype(float)

    def matvec_extended(self, x):
        """Operator application in longdouble.

        Each row sums its products from zero in column order.
        """
        return self.csr @ x


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
    the stiffness of the stiffness-weighted energy.
    """
    Ke = element_stiffness(mesh.hx, mesh.hy, params.sigma)
    gl = mesh.element_dof_table().reshape(-1, 16)  # elements row-major
    rows = np.repeat(gl, 16, axis=1).ravel()
    cols = np.tile(gl, 16).ravel()
    vals = (_element_weights(mesh, weight).astype(LONG)[..., None] * Ke.ravel()).ravel()
    return AssembledForm.from_triplets((mesh.n_dofs, mesh.n_dofs), rows, cols, vals)


def _density_evaluator(density):
    if callable(density):
        return density
    arr = np.asarray(density, dtype=float)
    if arr.ndim != 0:
        raise ValueError("density must be callable or a constant")
    c = float(arr)
    return lambda x, y: np.full(np.shape(x), c)


def assemble_load(mesh, load, weight=None):
    """Dof functional of a load, in extended precision.

    Point masses evaluate the C1 basis exactly at their location (legitimate
    because the field space embeds in continuous functions).  With ``weight``
    given, the density is multiplied by beta on D and alpha off D; point
    masses cannot be weighted.
    """
    load.validate(mesh, weight)
    b = np.zeros(mesh.n_dofs, dtype=LONG)
    if load.density is not None:
        f = _density_evaluator(load.density)
        tq = (_GAUSS_PTS + 1) / 2
        wq = _GAUSS_WTS / 2
        # quadrature point (x0 + tq[a] hx, y0 + tq[bq] hy) of element (ei, ej)
        # sits at [ej, ei, a, bq]
        shape = (mesh.ny, mesh.nx, 4, 4)
        x0 = np.arange(mesh.nx) * mesh.hx
        y0 = -mesh.half_width + np.arange(mesh.ny) * mesh.hy
        # contiguous, writable copies: the density is caller code
        X = np.broadcast_to(x0[:, None, None] + (tq * mesh.hx)[:, None], shape).copy()
        Y = np.broadcast_to(y0[:, None, None, None] + tq * mesh.hy, shape).copy()
        fv = np.asarray(f(X, Y), dtype=float)
        w_elem = _element_weights(mesh, weight)
        coef = (np.outer(wq, wq) * w_elem[..., None, None] * fv).astype(LONG)
        fe = np.zeros((mesh.ny, mesh.nx, 16), dtype=LONG)
        for a, tx in enumerate(tq):
            for bq, ty in enumerate(tq):
                fe += coef[:, :, a, bq, None] * _local_rows(tx, ty, mesh.hx, mesh.hy)
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


def _mirror_permutation(mesh, axis):
    """Dof permutation and signs realizing y -> -y (axis='y') or x -> pi - x."""
    flip, dof_signs = (0, _Y_MIRROR_SIGNS) if axis == "y" else (1, _X_MIRROR_SIGNS)
    return np.flip(mesh.dof_grid(), flip).ravel(), np.tile(dof_signs, mesh.n_nodes)


def mirror_map(mesh, element):
    """Dof permutation ``perm`` and signs of the mirror ``element = (fx, fy,
    s)``: x -> pi - x when ``fx``, y -> -y when ``fy``, then multiplication
    by ``s`` (+1 or -1).  The image of a dof vector ``v`` is
    ``signs * v[perm]``; every element is its own inverse."""
    fx, fy, s = element
    perm, signs = np.arange(mesh.n_dofs), np.full(mesh.n_dofs, float(s))
    for axis, flip in (("x", fx), ("y", fy)):
        if flip:
            p, q = _mirror_permutation(mesh, axis)
            perm, signs = perm[p], signs[p] * q
    return perm, signs


class OrbitBasis:
    """Coordinates of the fields invariant under a group of mirrors of a mesh.

    ``group`` maps an axis, ``"x"`` (x -> pi - x) or ``"y"`` (y -> -y), to
    +1 for its mirror or to -1 for its mirror combined with negation; the
    group is generated by these elements.  An invariant field is fixed by one
    coordinate per dof orbit, laid out like a mesh's dof table over the
    representative nodes (i <= nx/2 when x is in the group, j <= ny/2 when y
    is): ``dof_grid``, ``free_dof_mask``, ``n_nodes`` and ``n_dofs`` read as
    on a Mesh of ``nx`` x ``ny`` elements.  Each full dof ``k`` is the signed
    copy ``sign[k] * coords[coordinate[k]]``; its sign is 0 where some group
    element maps it to its own negative (ux and uxy on x = pi/2, uy and uxy
    on y = 0, and the value there under a negating element).  Such a
    coordinate is not free.  ``R`` below is the ``n_dofs(mesh) x n_dofs``
    matrix of this map.
    """

    def __init__(self, mesh, group):
        if set(group) - {"x", "y"} or set(group.values()) - {1, -1}:
            raise ValueError(f"a mirror group maps 'x' and 'y' to +1 or -1: {group!r}")
        self.mesh = mesh
        self.group = dict(group)
        self.nx = mesh.nx // 2 if "x" in group else mesh.nx
        self.ny = mesh.ny // 2 if "y" in group else mesh.ny
        # every group element as the signed dof permutation it applies
        elements = [(np.arange(mesh.n_dofs), np.ones(mesh.n_dofs))]
        for axis, eps in sorted(self.group.items()):
            perm, signs = _mirror_permutation(mesh, axis)
            elements += [(p[perm], eps * signs * s[perm]) for p, s in elements]
        images = np.stack([p for p, _ in elements])
        signs = np.stack([s for _, s in elements])
        # the smallest image of a dof lies on a representative node
        first = np.argmin(images, axis=0)
        rep = images[first, np.arange(mesh.n_dofs)]
        self.representatives = mesh.dof_grid()[:self.ny + 1, :self.nx + 1].ravel()
        position = np.empty(mesh.n_dofs, dtype=np.int64)
        position[self.representatives] = np.arange(self.n_dofs)
        self.coordinate = position[rep]
        negated = np.any((images == np.arange(mesh.n_dofs)) & (signs < 0.0), axis=0)
        self.sign = np.where(negated, 0.0, signs[first, np.arange(mesh.n_dofs)])

    @property
    def n_nodes(self):
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_dofs(self):
        return 4 * self.n_nodes

    def dof_grid(self):
        """(ny+1, nx+1, 4) coordinate numbers, indexed [j, i, dof] as on a Mesh."""
        return np.arange(self.n_dofs).reshape(self.ny + 1, self.nx + 1, 4)

    def free_dof_mask(self):
        """Coordinates whose representative dof is free and not forced to zero."""
        rep = self.representatives
        return self.mesh.free_dof_mask()[rep] & (self.sign[rep] != 0.0)

    @property
    def representative_nodes(self):
        """Full node of each orbit node."""
        return self.representatives[DOF_VALUE::4] // 4

    @property
    def node_orbit(self):
        """Orbit node of each full node."""
        return self.coordinate[DOF_VALUE::4] // 4

    def expand(self, coords):
        """The full dof vector ``R coords``; exact, each entry one signed copy."""
        return self.sign * coords[self.coordinate]

    def restrict(self, vector):
        """``R' vector``, the functional of a full load on the coordinates."""
        out = np.zeros(self.n_dofs, dtype=vector.dtype)
        np.add.at(out, self.coordinate, self.sign * vector)
        return out

    def restrict_form(self, form):
        """``R' K R`` from the assembled form, in its extended precision."""
        coo = form.csr.tocoo()
        s = self.sign[coo.row] * self.sign[coo.col]
        keep = s != 0.0
        return AssembledForm.from_triplets(
            (self.n_dofs, self.n_dofs), self.coordinate[coo.row[keep]],
            self.coordinate[coo.col[keep]], coo.data[keep] * s[keep])


def reflect_y(field):
    """The field composed with the reflection y -> -y."""
    perm, signs = _mirror_permutation(field.mesh, "y")
    return DofField(field.mesh, signs * field.dofs[perm])


def reflect_x(field):
    """The field composed with the mirror x -> pi - x."""
    perm, signs = _mirror_permutation(field.mesh, "x")
    return DofField(field.mesh, signs * field.dofs[perm])


def symmetry_decompose(field):
    """Even and odd parts in y; the parts are energy-orthogonal."""
    mirrored = reflect_y(field)
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

def field_to_csv(field, path):
    """Dump nodal dofs as CSV x,y,u,ux,uy,uxy (row-major in x then y)."""
    mesh = field.mesh
    X, Y = mesh.node_coordinates()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,u,ux,uy,uxy\n")
        for n in range(mesh.n_nodes):
            vals = field.dofs[4 * n:4 * n + 4]
            cells = [f"{v:.17g}" for v in (X[n], Y[n], *vals)]
            fh.write(",".join(cells) + "\n")
