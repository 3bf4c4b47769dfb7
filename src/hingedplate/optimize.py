"""Outer worst-case problems over loads, reinforcement sets and obstacles.

Every outer problem is an exhaustive, deterministic scan over a finite
candidate list: unit point-load pairs on a window grid, signed unit point
loads, bang-bang densities, rasterized reinforcement layouts, or constant
guide levels.  Inner problems are box-constrained solves; reductions
tie-break to the first candidate within ``TIE_RTOL`` of the optimum, so
repeated runs are identical and round-off cannot choose between
mirror-image candidates.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .fem import LoadSpec, ReinforcementMask, assemble_load
from .series import (ObstacleSpec, ScanWindow, antisym_edge_profile,
                     gap_threshold_M, phi_m)
from .solver import BoxConstraints, PlateOperator, solve_obstacle
from .summation import series_sum

__all__ = [
    "GapProfile",
    "ForceMember",
    "ForceClass",
    "ObstacleFamily",
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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,gap\n")
            for x, g in zip(self.xs, self.gaps):
                fh.write(f"{x:.17g},{g:.17g}\n")


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

#: largest bang-bang enumeration a force class may ask for
MAX_MEMBERS = 4096


@dataclass(frozen=True)
class ForceMember:
    label: str
    load: LoadSpec
    meta: tuple = ()


@dataclass(frozen=True)
class ForceClass:
    """A finite family of unit-norm loads to scan over.

    The point-load kinds share an nxi x neta site grid over the closure,
    restricted to ``window`` when given:
      * ``antisym-delta``: pairs (delta_(xi,eta)-delta_(xi,-eta))/2; sites
        with eta = 0 are dropped (they are the zero load, not unit norm).
      * ``signed-delta``: +-delta_p.
    ``bang-bang`` densities take the values +-1, constant on a cells_x x
    cells_y partition; all sign patterns are enumerated, and a window is an error.
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
        if self.kind == "bang-bang" and self.window is not None:
            raise ValueError("a scan window applies to point-load classes only")
        if self.kind == "bang-bang" and not (
                len(self.cells) == 2 and min(self.cells) >= 1
                # 2**n <= MAX_MEMBERS, without forming 2**n
                and self.cells[0] * self.cells[1] <= MAX_MEMBERS.bit_length() - 1):
            raise ValueError(f"bang-bang cells must be two counts >= 1 with at most "
                             f"{MAX_MEMBERS} sign patterns: {list(self.cells)}")

    def members(self, params):
        l = params.half_width
        out = []
        if self.kind == "bang-bang":
            kx, ky = self.cells
            n_cells = kx * ky
            for bits in range(2 ** n_cells):
                signs = np.array([1.0 if bits >> c & 1 else -1.0
                                  for c in range(n_cells)]).reshape(ky, kx)
                out.append(ForceMember(
                    label=f"bb[{bits:0{n_cells}b}]",
                    load=LoadSpec(density=_cell_density(signs, l)),
                    meta=(("pattern", bits),)))
            return out
        for i, xi in enumerate(np.linspace(0.0, np.pi, self.nxi)):
            for j, eta in enumerate(np.linspace(-l, l, self.neta)):
                if self.window is not None and not self.window.contains(
                        xi, eta, params):
                    continue
                site = (("xi", float(xi)), ("eta", float(eta)))
                if self.kind == "signed-delta":
                    for sign, tag in ((1.0, "+"), (-1.0, "-")):
                        out.append(ForceMember(
                            label=f"{tag}d[{i},{j}]",
                            load=LoadSpec.point(xi, eta, sign),
                            meta=site + (("sign", sign),)))
                elif eta != 0.0:
                    out.append(ForceMember(
                        label=f"T[{i},{j}]", load=LoadSpec.antisym_pair(xi, eta),
                        meta=site))
        if not out:
            raise ValueError("force class discretization produced no members")
        return out


def _cell_density(signs, half_width):
    ky, kx = signs.shape

    def density(x, y):
        ci = np.clip((np.asarray(x) / np.pi * kx).astype(int), 0, kx - 1)
        cj = np.clip(((np.asarray(y) + half_width) / (2 * half_width) * ky).astype(int),
                     0, ky - 1)
        return signs[cj, ci]

    return density


# ---------------------------------------------------------------------------
# obstacle and reinforcement families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstacleFamily:
    """Finite list of symmetric constant-level guides."""

    candidates: tuple

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("obstacle family has no candidates")

    @classmethod
    def constant_levels(cls, gammas, region="long_edges"):
        return cls(candidates=tuple(ObstacleSpec.constant_level(g, region=region)
                                    for g in gammas))


@dataclass(frozen=True)
class ReinforcementFamily:
    """Finite family of reinforcement layouts under the area balance.

    ``cross`` layouts are unions of N full-height vertical strips of
    half-width mu and M full-length horizontal strips of half-width eps,
    with strip centers on a per-axis lattice and center separations above
    one strip width.  ``tiles`` layouts are N disjoint axis-aligned
    rectangles of a fixed size (inradius at least eps) placed on a lattice.
    Candidates violating the area balance by more than the rasterization
    granularity are dropped; a family whose candidates all violate it is an error.
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

    def candidates(self, mesh):
        # the area tolerance is the rasterization granularity: a strip snaps
        # by whole columns/rows
        if self.kind == "cross":
            masks = self._cross_candidates(mesh)
            tol = 0.5 * (self.n_xstrips * mesh.ny + self.n_ystrips * mesh.nx)
        else:
            masks = self._tile_candidates(mesh)
            w, h = self.tile_size
            tol = 0.5 * self.n_tiles * (w / mesh.hx + h / mesh.hy)
        feasible = []
        for m in masks:
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

    def _cross_candidates(self, mesh):
        l = mesh.half_width
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
                  if all(b - a > 2 * self.mu for a, b in zip(c, c[1:]))] if n else [()]
        y_sets = [c for c in itertools.combinations(yc, m)
                  if all(b - a > 2 * self.eps for a, b in zip(c, c[1:]))] if m else [()]
        out = []
        for xs in x_sets:
            for ys in y_sets:
                def indicator(X, Y, xs=xs, ys=ys):
                    hit = np.zeros(X.shape, dtype=bool)
                    for x0 in xs:
                        hit |= np.abs(X - x0) < self.mu
                    for y0 in ys:
                        hit |= np.abs(Y - y0) < self.eps
                    return hit
                out.append(ReinforcementMask.from_indicator(
                    mesh, indicator, self.alpha, self.beta))
        return out

    def _tile_candidates(self, mesh):
        l = mesh.half_width
        w, h = self.tile_size
        if min(w, h) / 2.0 < self.eps:
            raise ValueError(f"tile inradius {min(w, h) / 2} below eps={self.eps}")
        x0s = np.linspace(0.0, np.pi - w, self.centers_per_axis)
        y0s = np.linspace(-l, l - h, max(2, self.centers_per_axis // 2))
        spots = [(x0, y0) for x0 in x0s for y0 in y0s]
        out = []
        for combo in itertools.combinations(range(len(spots)), self.n_tiles):
            rects = [spots[i] for i in combo]
            if _tiles_overlap(rects, w, h):
                continue
            def indicator(X, Y, rects=rects):
                hit = np.zeros(X.shape, dtype=bool)
                for (x0, y0) in rects:
                    hit |= (X > x0) & (X < x0 + w) & (Y > y0) & (Y < y0 + h)
                return hit
            out.append(ReinforcementMask.from_indicator(
                mesh, indicator, self.alpha, self.beta))
        return out


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
    from ``value`` by up to that tolerance."""

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
    # mirror-image candidates agree only up to round-off, so the argopt is the
    # first candidate within TIE_RTOL of the optimum; the value is the optimum
    values = [row["value"] for row in rows]
    value = max(values) if maximize else min(values)
    best = next(i for i, v in enumerate(values)
                if abs(v - value) <= TIE_RTOL * abs(value))
    return ScanResult(problem=problem, value=value, argopt_index=best,
                      argopt_label=rows[best]["label"], rows=rows)


def _member_solve(operator, member, box, weight=None):
    rhs = assemble_load(operator.mesh, member.load, weight=weight)
    return solve_obstacle(operator, rhs, box)


def _member_rows(operator, obstacles, forces, params, weight=None):
    """Solve each force-class member under one operator and obstacle box,
    yielding ``(solution, row)`` with the row fields both worst-load scans share."""
    box = (obstacles if isinstance(obstacles, BoxConstraints)
           else BoxConstraints.from_obstacle(operator.mesh, obstacles))
    for member in forces.members(params):
        sol = _member_solve(operator, member, box, weight=weight)
        yield sol, {
            "label": member.label,
            "params": dict(member.meta),
            "contact_lower": int(sol.lower_contact.size),
            "contact_upper": int(sol.upper_contact.size),
        }


def worst_gap_force(operator, obstacle, forces, params):
    """Worst unit load for the maximal gap, under the given obstacle."""
    rows, profiles = [], []
    for sol, row in _member_rows(operator, obstacle, forces, params):
        prof = gap_profile(sol)
        profiles.append(prof)
        rows.append({**row, "value": prof.maximal_gap, "argmax_x": prof.argmax_x})
    result = _scan("worst-gap-force", rows, maximize=True)
    result.argopt_profile = profiles[result.argopt_index]
    return result


#: relative slack of the 2*gamma ceiling check on scanned gaps
CEILING_RTOL = 1e-9


def best_obstacle(family, operator, forces, params):
    """Best obstacle in a finite family: minimize the worst maximal gap.

    Every candidate's region contains the long edges, so its scanned gap must
    stay below the ceiling of twice its level; a violation fails the scan.
    A candidate's ``kappa`` (its sup-norm) is its level.
    """
    rows = []
    for spec in family.candidates:
        inner = worst_gap_force(operator, spec, forces, params)
        ceiling = 2.0 * spec.gamma
        if inner.value > ceiling * (1.0 + CEILING_RTOL):
            raise RuntimeError(
                f"scanned gap {inner.value} breaks the 2*gamma ceiling {ceiling}")
        rows.append({
            "label": f"level={spec.gamma:.6g}@{spec.region}",
            "params": {"gamma": spec.gamma, "kappa": spec.gamma,
                       "region": spec.region},
            "value": inner.value,
            "worst_force": inner.argopt_label,
            "ceiling": ceiling,
        })
    return _scan("best-obstacle", rows, maximize=False)


def worst_force_amplitude(operator, obstacles, forces, params, weight=None):
    """Worst unit load for the sup-norm of the deflection, one layout fixed.

    The layout acts through ``operator`` (a stiffness-weighted operator) or
    through ``weight`` (a mask weighting the load density, which point
    loads cannot carry).
    """
    rows = [{**row, "value": sol.field.sup_norm()}
            for sol, row in _member_rows(operator, obstacles, forces, params,
                                         weight=weight)]
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
                                          obstacles, forces, params)
        else:
            inner = worst_force_amplitude(base, obstacles, forces, params, weight=mask)
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
    the closed-form series; the gap of the odd solution is twice the edge
    value, so the returned ``m_scan`` is half the scanned maximal gap.
    Ties break to the first site in row-major order.
    """
    params = state.params
    l = params.half_width
    xi = np.linspace(0.0, np.pi, nxi)
    eta = np.linspace(-l, l, neta)
    x = np.linspace(0.0, np.pi, n_abscissae)
    values = antisym_edge_profile(xi, eta, x, state)
    per_site = np.max(np.abs(values), axis=2)
    if window is not None:
        XI, ETA = np.meshgrid(xi, eta, indexing="ij")
        allowed = window.contains(XI, ETA, params)
        per_site = np.where(allowed, per_site, -np.inf)
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


def placement_bound_report(mask, state, mesh, quad_points=8):
    """Certified upper bounds for the worst amplitude of one layout.

    Evaluates, over the mesh node grid, the weighted kernel integral

        alpha * int_{D^c} K  +  beta * int_D K

    term by term (exact column integrals of sin(m xi), Gauss in the
    ordinate), together with the coarser envelope

        (pi/12) * [alpha int_{D^c} + beta int_D] c_1(y, eta) sin(xi),

    which dominates it.  Both bound the measured worst amplitude of the
    density-weighted problem for sup-norm-one loads.
    """
    params = state.params
    mask.check_shape(mesh)
    xs, ys = mesh.xs, mesh.ys
    gauss_t, gauss_w = np.polynomial.legendre.leggauss(quad_points)
    mid = 0.5 * (ys[:-1] + ys[1:])
    half = 0.5 * (ys[1:] - ys[:-1])
    w_elem = mask.weights  # (ny, nx)

    def weighted_rows(m):
        """Weighted kernel integrals per index and node row, (m.size, ys.size)."""
        mc = m[:, None]
        # exact column integrals of sin(m xi)
        sx = (np.cos(mc * xs[:-1]) - np.cos(mc * xs[1:])) / mc
        # Gauss ordinate integrals of the coefficient, per node y, per row
        q = half * sum(w * phi_m(ys[:, None], mid + half * t, mc[:, None], params)
                       for t, w in zip(gauss_t, gauss_w))
        ws = sx @ w_elem.T                    # weighted column sums per row
        return np.einsum("kij,kj->ki", q, ws)

    def term(m):
        return (np.outer(wr, sn) / (2.0 * np.pi * (mk * mk * mk))
                for wr, sn, mk in zip(weighted_rows(m), np.sin(m[:, None] * xs), m))

    refined = series_sum(term, state.m_max)
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
    if gamma <= 0.0:
        raise ValueError("guide level must be positive")
    value, tail = gap_threshold_M(params, m_max=m_max)
    case = "(i)" if gamma > value else "(ii)"
    return {
        "case": case,
        "gamma": float(gamma),
        "threshold": float(value),
        "threshold_tail": float(tail),
    }
