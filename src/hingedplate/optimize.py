"""Outer worst-case problems over loads, reinforcement sets and obstacles.

Every outer problem is an exhaustive, deterministic scan over a finite
candidate list: unit point-load pairs on a window grid, signed unit point
loads, bang-bang densities, rasterized reinforcement layouts, or constant
guide levels.  Inner problems are box-constrained solves.  The loads of a
force class come in mirror orbits; a scan solves the first member of each
orbit and maps that solve onto the others exactly, each image certified
against its own load, so mirror-image loads get exactly equal values.
Each first member is one ``solve_obstacle`` call offered the y flip alone,
so one whose data a y mirror fixes (an antisymmetric point pair under
guides with ``lower == -upper``, a midline point load, a bang-bang pattern
even or odd in y) runs on that mirror's y-parity subspace.  Offering x as
well, for the few x-fixed first members, raised the peak memory of the
``guide-scan`` benchmark by 4-11% in paired runs, against its 5% bound.  A
member whose image fails its certificate is solved on the full space.
Reductions tie-break to the first candidate within ``TIE_RTOL`` of the
optimum, so repeated runs are identical and round-off cannot choose between
other near-equal candidates, such as mirror-image reinforcement layouts.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .fem import LoadSpec, ReinforcementMask, assemble_load, mirror_axes, write_csv
from .series import (ScanWindow, _sine_series, antisym_solution, gap_threshold_M,
                     phi_m)
from .solver import (BoxConstraints, PlateOperator, SolverError, mirror_solution,
                     mirror_symmetries, solve_obstacle)
from .summation import quadrature_sum

__all__ = [
    "GapProfile",
    "ForceMember",
    "ForceClass",
    "ReinforcementFamily",
    "ScanResult",
    "gap_profile",
    "worst_force_amplitude",
    "best_reinforcement",
    "worst_gap_force",
    "best_obstacle",
    "classify_regime",
    "edge_gap_series_scan",
    "placement_bound_report",
]


# ---------------------------------------------------------------------------
# gap profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapProfile:
    """Edge displacement difference u(x, l) - u(x, -l) sampled at mesh abscissae.

    ``argmax_x`` is the first abscissa whose |gap| is within ``TIE_RTOL`` of
    ``maximal_gap``.  A profile whose largest |gap| is at most ``TIE_RTOL``
    times the larger sup-norm of the two edges is zero up to round-off and
    is reported as exactly zero: every gap 0.0, ``maximal_gap`` 0.0 and
    ``argmax_x`` the first abscissa.
    """

    xs: np.ndarray
    gaps: np.ndarray
    maximal_gap: float
    argmax_x: float

    def to_csv(self, path):
        write_csv(path, "x,gap", [self.xs, self.gaps])


def gap_profile(solution):
    """Gap profile of a solve (or of a bare field)."""
    fld = solution.field if hasattr(solution, "field") else solution
    grid = fld.value_grid()
    gaps = grid[-1, :] - grid[0, :]
    xs = fld.mesh.xs
    top = float(np.max(np.abs(gaps)))
    if top <= TIE_RTOL * float(np.max(np.abs(grid[[0, -1], :]))):
        return GapProfile(xs=xs, gaps=np.zeros_like(gaps), maximal_gap=0.0,
                          argmax_x=float(xs[0]))
    k = int(np.argmax(np.abs(gaps) >= top * (1.0 - TIE_RTOL)))
    return GapProfile(xs=xs, gaps=gaps, maximal_gap=top, argmax_x=float(xs[k]))


# ---------------------------------------------------------------------------
# force classes
# ---------------------------------------------------------------------------

#: largest enumeration a scan may ask for: the members of a point-load class
#: before its window, the sign patterns of a bang-bang class, or the layouts
#: of a reinforcement family before any is dropped
MAX_MEMBERS = 4096


@dataclass(frozen=True, eq=False)
class ForceMember:
    """One load of a force class.  ``signs`` is the read-only int8 grid of
    the load's signs on the class's index grid, indexed [j, i] like a cell
    grid: (neta, nxi) sites of a point-load kind, with +-1 at its one or two
    point masses, or the (ky, kx) cells of a bang-bang pattern; 0 where the
    load has no mass.  A member compares and hashes by identity."""

    label: str
    load: LoadSpec
    meta: tuple
    signs: np.ndarray

    def __post_init__(self):
        self.signs.flags.writeable = False


@dataclass(frozen=True)
class ForceClass:
    """A finite family of unit-norm loads to scan over.

    The point-load kinds share an nxi x neta site grid over the closure,
    restricted to ``window`` when given:
      * ``antisym-delta``: pairs (delta_(xi,eta)-delta_(xi,-eta))/2; the
        midline sites (eta = 0, the middle row of an odd ``neta``) are
        dropped: they are the zero load, not unit norm.  So the class needs
        ``neta >= 2``.
      * ``signed-delta``: +-delta_p.
    Counted before the window, a point-load class has at most
    ``MAX_MEMBERS`` members: ``nxi * (neta - neta % 2)`` pairs, or
    ``2 * nxi * neta`` signed point loads.
    ``bang-bang`` densities take the values +-1, constant on a cells_x x
    cells_y partition: each member's density is its sign grid.  All sign
    patterns are enumerated, and a window is an error.
    """

    kind: str
    window: ScanWindow | None = None
    nxi: int = 33
    neta: int = 9
    cells: tuple = (3, 2)

    def __post_init__(self):
        if self.kind not in ("antisym-delta", "signed-delta", "bang-bang"):
            raise ValueError(f"unknown force class kind {self.kind!r}")
        if self.nxi < 1 or self.neta < 1:
            raise ValueError(f"force class grid needs nxi, neta >= 1, "
                             f"got {self.nxi}x{self.neta}")
        if self.kind == "antisym-delta" and self.neta < 2:
            raise ValueError(f"antisym-delta pairs need neta >= 2, got {self.neta}")
        if self.kind != "bang-bang":
            # counted before any is built; a window only drops members
            count = (2 * self.nxi * self.neta if self.kind == "signed-delta"
                     else self.nxi * (self.neta - self.neta % 2))
            if count > MAX_MEMBERS:
                raise ValueError(f"{self.kind} class {self.nxi}x{self.neta} has "
                                 f"{count} members, more than {MAX_MEMBERS}")
        if self.kind == "bang-bang" and self.window is not None:
            raise ValueError("a scan window applies to point-load classes only")
        if self.kind == "bang-bang" and not (
                len(self.cells) == 2 and min(self.cells) >= 1
                # 2**n <= MAX_MEMBERS, without forming 2**n
                and self.cells[0] * self.cells[1] <= MAX_MEMBERS.bit_length() - 1):
            raise ValueError(f"bang-bang cells must be two counts >= 1 with at most "
                             f"{MAX_MEMBERS} sign patterns: {list(self.cells)}")

    def members(self, plate):
        """The members on the plate of half-width ``plate.half_width``."""
        out = []
        if self.kind == "bang-bang":
            kx, ky = self.cells
            n_cells = kx * ky
            for bits in range(2 ** n_cells):
                signs = np.array([1 if bits >> c & 1 else -1 for c in range(n_cells)],
                                 dtype=np.int8).reshape(ky, kx)
                out.append(ForceMember(
                    label=f"bb[{bits:0{n_cells}b}]",
                    load=LoadSpec(density=signs),
                    meta=(("pattern", bits),),
                    signs=signs))
            return out
        xis, etas, allowed = _site_grid(self.nxi, self.neta, self.window, plate)
        for i, xi in enumerate(xis):
            for j, eta in enumerate(etas):
                if not allowed[i, j]:
                    continue
                site = (("xi", float(xi)), ("eta", float(eta)))
                unit = np.zeros((self.neta, self.nxi), dtype=np.int8)
                unit[j, i] = 1
                if self.kind == "signed-delta":
                    for sign, tag in ((1.0, "+"), (-1.0, "-")):
                        out.append(ForceMember(
                            label=f"{tag}d[{i},{j}]",
                            load=LoadSpec.point(xi, eta, sign),
                            meta=site + (("sign", sign),),
                            signs=int(sign) * unit))
                # by index: linspace need not put the middle eta at exactly 0
                elif 2 * j != self.neta - 1:
                    out.append(ForceMember(
                        label=f"T[{i},{j}]", load=LoadSpec.antisym_pair(xi, eta),
                        meta=site, signs=unit - unit[::-1]))
        if not out:
            raise ValueError("force class discretization produced no members")
        return out


def _site_grid(nxi, neta, window, plate):
    """The nxi x neta point-load sites over the closure of the plate of
    half-width ``plate.half_width``: abscissae ``xi``, ordinates ``eta`` and
    the (nxi, neta) mask of the sites in ``window`` (all, without one)."""
    xi = np.linspace(0.0, np.pi, nxi)
    eta = np.linspace(-plate.half_width, plate.half_width, neta)
    allowed = (np.ones((nxi, neta), dtype=bool) if window is None
               else window.contains(*np.meshgrid(xi, eta, indexing="ij"), plate))
    return xi, eta, allowed


# ---------------------------------------------------------------------------
# reinforcement families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReinforcementFamily:
    """Finite family of reinforcement layouts under the area balance.

    ``cross`` layouts are unions of N full-height vertical strips of
    half-width mu and M full-length horizontal strips of half-width eps,
    with strip centers on a per-axis lattice and center separations above
    one strip width.  ``tiles`` layouts are N disjoint axis-aligned
    rectangles of a fixed size (inradius at least eps) placed on a lattice.
    ``candidates`` rasterizes each layout at element centres: an element is
    in D when its centre lies inside a strip or tile.  Candidates violating
    the area balance by more than the rasterization granularity are dropped;
    a family whose candidates all violate it is an error.
    """

    kind: str
    alpha: float
    beta: float
    n_xstrips: int = 1
    n_ystrips: int = 0
    mu: float = 0.1
    eps: float = 0.01
    centers_per_axis: int = 9
    tile_size: tuple = (0.5, 0.05)
    n_tiles: int = 1

    def __post_init__(self):
        if self.kind not in ("cross", "tiles"):
            raise ValueError(f"unknown reinforcement family kind {self.kind!r}")
        for name in ("n_tiles", "centers_per_axis"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1: {getattr(self, name)}")
        c = self.centers_per_axis
        if self.kind == "cross":
            counts = f"n_xstrips {self.n_xstrips}, n_ystrips {self.n_ystrips}"
            layouts = _choose(c, self.n_xstrips) * _choose(c, self.n_ystrips)
        else:
            counts = f"n_tiles {self.n_tiles}"
            layouts = _choose(c * max(2, c // 2), self.n_tiles)
        if layouts > MAX_MEMBERS:
            raise ValueError(f"{self.kind} family enumerates more than {MAX_MEMBERS} "
                             f"layouts: centers_per_axis {c}, {counts}")

    def candidates(self, mesh):
        X, Y = mesh.element_centers()
        # the area tolerance is the rasterization granularity: a strip snaps
        # by whole columns/rows
        if self.kind == "cross":
            rasters = self._cross_rasters(X, Y, mesh.half_width)
            tol = 0.5 * (self.n_xstrips * mesh.ny + self.n_ystrips * mesh.nx)
        else:
            rasters = self._tile_rasters(X, Y, mesh.half_width)
            w, h = self.tile_size
            tol = 0.5 * self.n_tiles * (w / mesh.hx + h / mesh.hy)
        feasible = []
        for r in rasters:
            m = ReinforcementMask(r, self.alpha, self.beta)
            try:
                m.validate(mesh, tol_elements=max(1.0, tol))
            except ValueError:
                continue
            feasible.append(m)
        if not feasible:
            raise ValueError(
                "no candidate satisfies the area balance "
                "|D| = |Omega|(1-alpha)/(beta-alpha) at element resolution")
        return feasible

    def _cross_rasters(self, X, Y, l):
        n, m = self.n_xstrips, self.n_ystrips
        if not (0 <= n <= 2 and 0 <= m <= 2 and n + m > 0):
            raise ValueError("cross families support up to two strips per axis")
        if n and not 0.0 < self.mu < np.pi / (2 * n):
            raise ValueError(f"strip half-width mu={self.mu} outside (0, pi/2N)")
        if m and not 0.0 < self.eps < l / m:
            raise ValueError(f"strip half-width eps={self.eps} outside (0, l/M)")
        xc = np.linspace(self.mu, np.pi - self.mu, self.centers_per_axis)
        yc = np.linspace(-l + self.eps, l - self.eps, self.centers_per_axis)
        x_sets = [c for c in itertools.combinations(xc, n)
                  if all(b - a > 2 * self.mu for a, b in zip(c, c[1:]))]
        y_sets = [c for c in itertools.combinations(yc, m)
                  if all(b - a > 2 * self.eps for a, b in zip(c, c[1:]))]
        return [np.any([np.abs(X - x0) < self.mu for x0 in xs]
                       + [np.abs(Y - y0) < self.eps for y0 in ys], axis=0)
                for xs in x_sets for ys in y_sets]

    def _tile_rasters(self, X, Y, l):
        w, h = self.tile_size
        if min(w, h) / 2.0 < self.eps:
            raise ValueError(f"tile inradius {min(w, h) / 2} below eps={self.eps}")
        x0s = np.linspace(0.0, np.pi - w, self.centers_per_axis)
        y0s = np.linspace(-l, l - h, max(2, self.centers_per_axis // 2))
        spots = [(x0, y0) for x0 in x0s for y0 in y0s]
        return [np.any([(X > x0) & (X < x0 + w) & (Y > y0) & (Y < y0 + h)
                        for (x0, y0) in rects], axis=0)
                for rects in itertools.combinations(spots, self.n_tiles)
                if not _tiles_overlap(rects, w, h)]


def _choose(n, k):
    """The number C(n, k) of k-subsets of n items, or MAX_MEMBERS + 1 once
    it exceeds MAX_MEMBERS, without forming a larger integer."""
    count = 1 if 0 <= k <= n else 0
    for i in range(min(k, n - k)):
        count = count * (n - i) // (i + 1)
        if count > MAX_MEMBERS:
            return MAX_MEMBERS + 1
    return count


def _tiles_overlap(rects, w, h):
    for (a, b) in itertools.combinations(rects, 2):
        if abs(a[0] - b[0]) < w and abs(a[1] - b[1]) < h:
            return True
    return False


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

@dataclass
class ScanResult:
    """A scan's optimum ``value`` over its candidate ``rows`` and its argopt:
    the first candidate within ``TIE_RTOL`` (relative) of the optimum.  The
    argopt's own row value, and the profile kept for a gap scan, may differ
    from ``value`` by up to that tolerance; mirror-image loads have exactly
    equal values, so the first of them is the argopt."""

    problem: str
    value: float
    argopt_index: int
    argopt_label: str
    rows: list
    # gap profile of the optimal member of a gap scan; not part of the report
    argopt_profile: GapProfile | None = field(default=None, init=False)

    def to_report(self):
        return {
            "problem": self.problem,
            "value": self.value,
            "argopt": {"index": self.argopt_index, "label": self.argopt_label},
            "candidates": self.rows,
        }


#: relative distance from the optimum within which scan values tie
TIE_RTOL = 1e-9


def _scan(problem, rows, maximize):
    """The ``ScanResult`` of ``problem`` over its candidate ``rows``; a scan
    with no rows is a ValueError naming the problem."""
    if not rows:
        raise ValueError(f"{problem} scan has no candidates")
    # near-equal candidates other than mirror-image loads (mirror-image
    # layouts, say) agree only up to round-off, so the argopt is the first
    # candidate within TIE_RTOL of the optimum; the value is the optimum
    values = [row["value"] for row in rows]
    value = max(values) if maximize else min(values)
    best = next(i for i, v in enumerate(values)
                if abs(v - value) <= TIE_RTOL * abs(value))
    return ScanResult(problem=problem, value=value, argopt_index=best,
                      argopt_label=rows[best]["label"], rows=rows)


def _member_solve(operator, rhs, box, flips=()):
    return solve_obstacle(operator, rhs, box, flips)


def _orbits(members, elements):
    """For each member, the index of the first member of its orbit under the
    mirrors ``elements`` of ``fem.MIRRORS`` (the identity first) and an
    element mapping that member's load to its own.  The image of a member's
    sign grid under ``(fx, fy, s)`` is the grid flipped on ``mirror_axes``,
    times ``s``: the one flip rule of every grid the package mirrors, applied
    to all members at once per element."""
    stack = np.stack([m.signs for m in members])
    index = {grid.tobytes(): k for k, grid in enumerate(stack)}
    images = [[index.get(grid.tobytes()) for grid in
               g[2] * np.flip(stack, [1 + axis for axis in mirror_axes(g)])]
              for g in elements]
    return [min(((k, g) for k, g in zip(column, elements) if k is not None),
                key=lambda image: image[0])
            for column in zip(*images)]


def _member_rows(operator, obstacles, forces, weight=None):
    """Solve each force-class member on ``operator.mesh`` under one operator
    and obstacle box, yielding ``(solution, row)`` with the shared row fields.

    The mirrors that map the box, the operator's mask and ``weight`` onto
    themselves split the members into orbits.  The first member of each
    orbit is solved with the y flip offered (``solve_obstacle``); every other
    member's solution is the image of that solve, certified against the
    member's own load, and a member whose image fails its certificate is
    solved on the full space.
    """
    box = (obstacles if isinstance(obstacles, BoxConstraints)
           else BoxConstraints.from_obstacle(operator.mesh, obstacles))
    members = forces.members(operator.mesh)
    masks = [m for m in (operator.mask, weight) if m is not None]
    elements = mirror_symmetries(operator.mesh, box, masks)
    orbits = _orbits(members, elements)
    last = {first: k for k, (first, _) in enumerate(orbits)}
    solved = {}
    for k, (member, (first, element)) in enumerate(zip(members, orbits)):
        rhs = assemble_load(operator.mesh, member.load, weight=weight)
        if first == k:
            sol = solved[k] = _member_solve(operator, rhs, box, ((False, True),))
        else:
            try:
                sol = mirror_solution(solved[first], operator, rhs, box, element)
            except SolverError:
                sol = _member_solve(operator, rhs, box)
        if last[first] == k:
            del solved[first]
        yield sol, {
            "label": member.label,
            "params": dict(member.meta),
            "contact_lower": int(sol.lower_contact.size),
            "contact_upper": int(sol.upper_contact.size),
        }


def worst_gap_force(operator, obstacle, forces):
    """Worst unit load for the maximal gap, under the given obstacle."""
    rows, profiles = [], []
    for sol, row in _member_rows(operator, obstacle, forces):
        prof = gap_profile(sol)
        profiles.append(prof)
        rows.append({**row, "value": prof.maximal_gap, "argmax_x": prof.argmax_x})
    result = _scan("worst-gap-force", rows, maximize=True)
    result.argopt_profile = profiles[result.argopt_index]
    return result


#: relative slack of the 2*gamma ceiling check on scanned gaps
CEILING_RTOL = 1e-9


def best_obstacle(guides, operator, forces):
    """Best guide among ``guides``, a sequence of symmetric constant-level
    ``ObstacleSpec``s: minimize the worst maximal gap.

    Every guide's region contains the long edges, so its scanned gap must
    stay below the ceiling of twice its level; a violation fails the scan
    with a SolverError.
    A guide's level, and its ``kappa`` (its sup-norm), is its ``upper``.
    """
    rows = []
    for spec in guides:
        inner = worst_gap_force(operator, spec, forces)
        ceiling = 2.0 * spec.upper
        if inner.value > ceiling * (1.0 + CEILING_RTOL):
            raise SolverError(
                f"scanned gap {inner.value} breaks the 2*gamma ceiling {ceiling}")
        rows.append({
            "label": f"level={spec.upper:.6g}@{spec.region}",
            "params": {"gamma": spec.upper, "kappa": spec.upper,
                       "region": spec.region},
            "value": inner.value,
            "worst_force": inner.argopt_label,
            "ceiling": ceiling,
        })
    return _scan("best-obstacle", rows, maximize=False)


def worst_force_amplitude(operator, obstacles, forces, weight=None):
    """Worst unit load for the sup-norm of the deflection, one layout fixed.

    The layout acts through ``operator`` (a stiffness-weighted operator) or
    through ``weight`` (a mask weighting the load density, which point
    loads cannot carry).
    """
    rows = [{**row, "value": sol.field.sup_norm()}
            for sol, row in _member_rows(operator, obstacles, forces, weight=weight)]
    return _scan("worst-force-amplitude", rows, maximize=True)


def best_reinforcement(masks, mesh, params, forces, obstacles, variant):
    """Best layout among ``masks``: minimize the worst amplitude.

    Under ``"E1"`` a mask weights the stiffness, so each mask builds its own
    operator; under ``"E2"`` it weights the load density (of a bang-bang
    class only), so all masks share the base operator and pass as ``weight``.
    """
    if variant not in ("E1", "E2"):
        raise ValueError(f"unknown variant {variant!r}")
    base = PlateOperator.build(mesh, params) if variant == "E2" else None
    rows = []
    for i, mask in enumerate(masks):
        if variant == "E1":
            inner = worst_force_amplitude(PlateOperator.build(mesh, params, mask=mask),
                                          obstacles, forces)
        else:
            inner = worst_force_amplitude(base, obstacles, forces, weight=mask)
        rows.append({
            "label": f"mask[{i}]",
            "params": {
                "elements": int(np.count_nonzero(mask.elements)),
                "area": mask.area(mesh),
                "alpha": mask.alpha,
                "beta": mask.beta,
            },
            "value": inner.value,
            "worst_force": inner.argopt_label,
        })
    return _scan("best-reinforcement", rows, maximize=False)


def edge_gap_series_scan(state, window=None, nxi=33, neta=9, n_abscissae=65):
    """Grid maximum of the edge response |v(x, l)| over point-pair sites.

    Scans the (xi, eta) site grid (restricted to ``window`` when given) with
    one ``antisym_solution`` call broadcast over (xi, eta, x) grids, so each
    site's edge values equal its own call on the abscissae exactly.  The gap
    of the odd solution is twice the edge value, so the returned ``m_scan``
    is half the scanned maximal gap.  Ties break to the first site in
    row-major order.
    """
    params = state.params
    xi, eta, allowed = _site_grid(nxi, neta, window, params)
    x = np.linspace(0.0, np.pi, n_abscissae)
    values = antisym_solution((xi[:, None, None], eta[None, :, None]),
                              (x, params.half_width), state)
    per_site = np.where(allowed, np.max(np.abs(values), axis=2), -np.inf)
    k = int(np.argmax(per_site))  # row-major first maximum
    i, j = divmod(k, neta)
    return {
        "m_scan": float(per_site[i, j]),
        "gap": 2.0 * float(per_site[i, j]),
        "argmax_xi": float(xi[i]),
        "argmax_eta": float(eta[j]),
        "per_site": per_site,
        "xi_grid": xi,
        "eta_grid": eta,
    }


#: Gauss-Legendre points per element row in ``placement_bound_report``
PLACEMENT_QUAD_POINTS = 8
_PLACEMENT_NODES, _PLACEMENT_WEIGHTS = np.polynomial.legendre.leggauss(
    PLACEMENT_QUAD_POINTS)


def placement_bound_report(mask, state, mesh):
    """Certified upper bounds for the worst amplitude of one layout.

    Evaluates, over the mesh node grid, the weighted kernel integral

        alpha * int_{D^c} K  +  beta * int_D K

    term by term (exact column integrals of sin(m xi), Gauss in the
    ordinate), together with the coarser envelope

        (pi/12) * [alpha int_{D^c} + beta int_D] c_1(y, eta) sin(xi),

    which dominates it.  Both bound the measured worst amplitude of the
    density-weighted problem for sup-norm-one loads.  The mesh must cover
    the plate of ``state``.
    """
    params = state.params
    if mesh.half_width != params.half_width:
        raise ValueError(f"mesh half-width {mesh.half_width!r} is not the plate's "
                         f"{params.half_width!r}")
    mask.check_shape(mesh)
    xs, ys = mesh.xs, mesh.ys
    mid = 0.5 * (ys[:-1] + ys[1:])
    half = 0.5 * (ys[1:] - ys[:-1])
    w_elem = mask.weights  # (ny, nx)

    def weighted_rows(m):
        """Weighted kernel integrals per index and node row, (m.size, ys.size)."""
        mc = m[:, None]
        # exact column integrals of sin(m xi)
        sx = (np.cos(mc * xs[:-1]) - np.cos(mc * xs[1:])) / mc
        # Gauss ordinate integrals of the coefficient, per node y, per row
        q = half * quadrature_sum(
            lambda t: phi_m(ys[:, None], mid + half * t, mc[:, None], params),
            _PLACEMENT_NODES.reshape(-1, 1, 1, 1), _PLACEMENT_WEIGHTS,
            mc.size * ys.size * mid.size)
        ws = sx @ w_elem.T                    # weighted column sums per row
        return np.einsum("kij,kj->ki", q, ws)

    refined = _sine_series(lambda m: weighted_rows(m.ravel())[:, :, None], xs,
                           lambda m: 2.0 * np.pi * (m * m * m), 2, state.m_max)
    # the first term's cell data feed the coarse envelope
    coarse_profile = np.pi / 12.0 * weighted_rows(np.ones(1))[0]
    k = int(np.argmax(refined))
    iy, ix = divmod(k, xs.size)
    tail = state.tail_bound * params.area * mask.beta
    return {
        "weighted_green_bound": float(refined[iy, ix]),
        "coarse_bound": float(np.max(coarse_profile)),
        "argmax_x": float(xs[ix]),
        "argmax_y": float(ys[iy]),
        "alpha": mask.alpha,
        "beta": mask.beta,
        "m_max": state.m_max,
        "series_tail": float(tail),
    }


def classify_regime(gamma, params, m_max=200_000):
    """Guide-level regime for obstacles on the long edges.

    Case ``"(i)"`` (gamma above the threshold): guides never bind under the
    scanned point-pair loads and leave the worst gap unchanged.  Case
    ``"(ii)"``: guides clip the worst gap to exactly twice their level.
    The explicit threshold only covers the thin obstacle region.
    """
    if not gamma > 0.0:  # NaN too
        raise ValueError("guide level must be positive")
    value, tail = gap_threshold_M(params, m_max=m_max)
    case = "(i)" if gamma > value else "(ii)"
    return {
        "case": case,
        "gamma": float(gamma),
        "threshold": float(value),
        "threshold_tail": float(tail),
    }
