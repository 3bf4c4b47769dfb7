"""Outer worst-case problems over loads, reinforcement sets and obstacles.

Every outer problem is an exhaustive, deterministic scan over a finite
candidate list: unit point-load pairs on a window grid, signed unit point
loads, bang-bang densities, rasterized reinforcement layouts, or parametric
obstacle profiles.  Inner problems are box-constrained solves; reductions
tie-break to the first candidate index so repeated runs are identical.
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
    """Edge displacement difference u(x, l) - u(x, -l) sampled at mesh abscissae."""

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
    k = int(np.argmax(np.abs(gaps)))  # first index wins ties
    return GapProfile(xs=xs, gaps=gaps, maximal_gap=float(abs(gaps[k])),
                      argmax_x=float(xs[k]))


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

    def negated(self):
        return ForceMember(label=f"-({self.label})", load=self.load.negated(),
                           meta=self.meta)


@dataclass(frozen=True)
class ForceClass:
    """A finite family of unit-norm loads to scan over.

    kinds:
      * ``antisym-delta``: point-load pairs (delta_(xi,eta)-delta_(xi,-eta))/2
        on an nxi x neta grid, restricted to ``window`` when given; sites with
        eta = 0 are dropped (they are the zero load, not unit norm).
      * ``signed-delta``: +-delta_p on an nxi x neta grid over the closure.
      * ``bang-bang``: densities of values +-1, constant on a cells_x x
        cells_y partition; all sign patterns are enumerated.
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
        if self.kind == "bang-bang" and not (
                len(self.cells) == 2 and min(self.cells) >= 1
                and 2 ** (self.cells[0] * self.cells[1]) <= MAX_MEMBERS):
            raise ValueError(f"bang-bang cells must be two counts >= 1 with at most "
                             f"{MAX_MEMBERS} sign patterns: {list(self.cells)}")

    @property
    def is_density_class(self):
        return self.kind == "bang-bang"

    def members(self, params):
        l = params.half_width
        out = []
        if self.kind == "antisym-delta":
            xis = np.linspace(0.0, np.pi, self.nxi)
            etas = np.linspace(-l, l, self.neta)
            for i, xi in enumerate(xis):
                for j, eta in enumerate(etas):
                    if eta == 0.0:
                        continue
                    if self.window is not None and not bool(
                            self.window.contains(xi, eta, params)):
                        continue
                    out.append(ForceMember(
                        label=f"T[{i},{j}]", load=LoadSpec.antisym_pair(xi, eta),
                        meta=(("xi", float(xi)), ("eta", float(eta)))))
        elif self.kind == "signed-delta":
            xis = np.linspace(0.0, np.pi, self.nxi)
            etas = np.linspace(-l, l, self.neta)
            for i, xi in enumerate(xis):
                for j, eta in enumerate(etas):
                    for sign in (1.0, -1.0):
                        tag = "+" if sign > 0 else "-"
                        out.append(ForceMember(
                            label=f"{tag}d[{i},{j}]",
                            load=LoadSpec.point(xi, eta, sign),
                            meta=(("xi", float(xi)), ("eta", float(eta)),
                                  ("sign", sign))))
        else:
            kx, ky = self.cells
            n_cells = kx * ky
            for bits in range(2 ** n_cells):
                signs = np.array([1.0 if bits >> c & 1 else -1.0
                                  for c in range(n_cells)]).reshape(ky, kx)
                out.append(ForceMember(
                    label=f"bb[{bits:0{n_cells}b}]",
                    load=LoadSpec(density=_cell_density(signs, l)),
                    meta=(("pattern", bits),)))
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
    """Finite list of admissible two-sided obstacles."""

    candidates: tuple

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("obstacle family has no candidates")

    @classmethod
    def constant_levels(cls, gammas, region="long_edges"):
        return cls(candidates=tuple(ObstacleSpec.constant_level(float(g), region=region)
                                    for g in gammas))

    @classmethod
    def from_profiles(cls, profiles, gamma, kappa, holder_alpha, params,
                      region="long_edges", check_points=64):
        """Wrap sampled symmetric profiles psi >= gamma with class certificates.

        Each profile is a callable psi(x, y); membership (psi >= gamma,
        sup <= kappa, Hoelder quotient consistent with kappa) is spot-checked
        on a sample grid.
        """
        if not 0.0 < holder_alpha < 1.0:
            raise ValueError("Hoelder exponent must lie in (0, 1)")
        if not kappa >= gamma > 0.0:
            raise ValueError("class parameters need kappa >= gamma > 0")
        l = params.half_width
        xs = np.linspace(0.0, np.pi, check_points)
        specs = []
        for psi in profiles:
            for y in (-l, l, 0.0):
                vals = np.asarray(psi(xs, y), dtype=float)
                if np.any(vals < gamma):
                    raise ValueError("profile drops below its guaranteed level gamma")
                if np.any(vals > kappa):
                    raise ValueError("profile sup-norm exceeds kappa")
                quot = np.abs(np.diff(vals)) / np.diff(xs) ** holder_alpha
                if np.any(vals.max() + quot > kappa * (1 + 1e-9)):
                    raise ValueError("profile Hoelder certificate exceeds kappa")
            specs.append(ObstacleSpec(
                lower=_negated_profile(psi), upper=psi, region=region,
                gamma=gamma, kappa=kappa, holder_alpha=holder_alpha))
        return cls(candidates=tuple(specs))


def _negated_profile(psi):
    return lambda x, y: -np.asarray(psi(x, y))


@dataclass(frozen=True)
class ReinforcementFamily:
    """Finite family of reinforcement layouts under the area balance.

    ``cross`` layouts are unions of N full-height vertical strips of
    half-width mu and M full-length horizontal strips of half-width eps,
    with strip centers on a per-axis lattice and center separations above
    one strip width.  ``tiles`` layouts are N disjoint axis-aligned
    rectangles of a fixed size (inradius at least eps) placed on a lattice.
    Candidates violating the area balance by more than one element are
    dropped; a family whose candidates all violate it is an error.
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
    explicit_masks: tuple = ()
    area_tol_elements: float | None = None

    def __post_init__(self):
        if self.kind not in ("cross", "tiles", "explicit"):
            raise ValueError(f"unknown reinforcement family kind {self.kind!r}")

    def _area_tolerance(self, mesh):
        """Rasterization granularity: a strip snaps by whole columns/rows."""
        if self.area_tol_elements is not None:
            return self.area_tol_elements
        if self.kind == "cross":
            return max(1.0, 0.5 * (self.n_xstrips * mesh.ny
                                   + self.n_ystrips * mesh.nx))
        if self.kind == "tiles":
            w, h = self.tile_size
            return max(1.0, 0.5 * self.n_tiles * (w / mesh.hx + h / mesh.hy))
        return 1.0

    def candidates(self, mesh):
        if self.kind == "explicit":
            masks = list(self.explicit_masks)
        elif self.kind == "cross":
            masks = self._cross_candidates(mesh)
        else:
            masks = self._tile_candidates(mesh)
        tol = self._area_tolerance(mesh)
        feasible = []
        for m in masks:
            try:
                m.validate(mesh, tol_elements=tol)
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

    @staticmethod
    def cross_mu_for_area(alpha, beta, params, n_xstrips=1, n_ystrips=0, eps=0.0,
                          mesh=None):
        """Vertical-strip half-width balancing |D| for a cross layout.

        With a mesh given, the half-width snaps to a whole number of element
        columns so that node-centered strips rasterize with zero area defect.
        """
        l = params.half_width
        target = 2.0 * np.pi * l * (1.0 - alpha) / (beta - alpha)
        if n_xstrips == 0:
            raise ValueError("needs at least one vertical strip")
        mu = (target - 2.0 * np.pi * n_ystrips * eps) / (
            4.0 * n_xstrips * (l - n_ystrips * eps))
        if mesh is not None:
            cols = max(1.0, np.round(2.0 * mu / mesh.hx))
            mu = cols * mesh.hx / 2.0
        return mu


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
    problem: str
    value: float
    argopt_index: int
    argopt_label: str
    rows: list
    meta: dict = field(default_factory=dict)
    # gap profile of the optimal member of a gap scan; not part of the report
    argopt_profile: GapProfile | None = field(default=None, init=False)

    def to_report(self):
        return {
            "problem": self.problem,
            "value": self.value,
            "argopt": {"index": self.argopt_index, "label": self.argopt_label},
            "candidates": self.rows,
            **self.meta,
        }


def _scan(problem, rows, maximize):
    # max and min keep the first of equal values, so the first candidate wins
    best = (max if maximize else min)(range(len(rows)),
                                      key=lambda i: rows[i]["value"])
    return ScanResult(problem=problem, value=rows[best]["value"],
                      argopt_index=best, argopt_label=rows[best]["label"],
                      rows=rows)


def _member_solve(operator, member, box, weight=None):
    rhs = assemble_load(operator.mesh, member.load, weight=weight)
    return solve_obstacle(operator, rhs, box)


def _as_box(mesh, obstacles):
    if isinstance(obstacles, BoxConstraints):
        return obstacles
    return BoxConstraints.from_obstacle(mesh, obstacles)


def worst_gap_force(operator, obstacle, forces, params):
    """Worst unit load for the maximal gap, under the given obstacle."""
    box = _as_box(operator.mesh, obstacle)
    rows, profiles = [], []
    for member in forces.members(params):
        sol = _member_solve(operator, member, box)
        prof = gap_profile(sol)
        profiles.append(prof)
        rows.append({
            "label": member.label,
            "params": dict(member.meta),
            "value": prof.maximal_gap,
            "argmax_x": prof.argmax_x,
            "contact_lower": int(sol.lower_contact.size),
            "contact_upper": int(sol.upper_contact.size),
        })
    result = _scan("worst-gap-force", rows, maximize=True)
    result.argopt_profile = profiles[result.argopt_index]
    return result


#: relative slack of the 2*gamma ceiling check on scanned gaps
CEILING_RTOL = 1e-9


def best_obstacle(family, operator, forces, params):
    """Best obstacle in a finite family: minimize the worst maximal gap.

    Constant-level candidates whose region contains the long edges must stay
    below the ceiling of twice their level; a violation fails the scan.
    """
    rows = []
    for i, spec in enumerate(family.candidates):
        inner = worst_gap_force(operator, spec, forces, params)
        label = (f"level={spec.gamma:.6g}@{spec.region}" if spec.gamma is not None
                 else f"profile[{i}]")
        row = {
            "label": label,
            "params": {"gamma": spec.gamma, "kappa": spec.kappa,
                       "region": spec.region},
            "value": inner.value,
            "worst_force": inner.argopt_label,
        }
        if spec.gamma is not None:
            ceiling = 2.0 * spec.gamma
            row["ceiling"] = ceiling
            if inner.value > ceiling * (1.0 + CEILING_RTOL):
                raise RuntimeError(
                    f"scanned gap {inner.value} breaks the 2*gamma ceiling {ceiling}")
        rows.append(row)
    return _scan("best-obstacle", rows, maximize=False)


def worst_force_amplitude(mesh, params, mask, forces, obstacles, variant="E1",
                          operator=None):
    """Worst unit load for the sup-norm of the deflection, one layout fixed.

    ``variant`` selects how the two materials act: ``"E1"`` weights the
    stiffness (any force class), ``"E2"`` weights the load density and is
    defined for density classes only.
    """
    if variant not in ("E1", "E2"):
        raise ValueError(f"unknown variant {variant!r}")
    weight = None
    if variant == "E1":
        op = operator if operator is not None else PlateOperator.build(
            mesh, params, mask=mask)
    else:
        if not forces.is_density_class:
            raise ValueError("density-weighted scans need an integrable force class")
        op = operator if operator is not None else PlateOperator.build(mesh, params)
        weight = mask
    box = _as_box(mesh, obstacles)
    rows = []
    for member in forces.members(params):
        sol = _member_solve(op, member, box, weight=weight)
        rows.append({
            "label": member.label,
            "params": dict(member.meta),
            "value": sol.field.sup_norm(),
            "contact_lower": int(sol.lower_contact.size),
            "contact_upper": int(sol.upper_contact.size),
        })
    return _scan("worst-force-amplitude", rows, maximize=True)


def best_reinforcement(family, mesh, params, forces, obstacles, variant="E1"):
    """Best layout in a reinforcement family: minimize the worst amplitude."""
    masks = family.candidates(mesh)
    # E2 weights only the load, so every mask shares the base operator
    base = PlateOperator.build(mesh, params) if variant == "E2" else None
    rows = []
    for i, mask in enumerate(masks):
        inner = worst_force_amplitude(mesh, params, mask, forces, obstacles,
                                      variant=variant, operator=base)
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
    result = _scan("best-reinforcement", rows, maximize=False)
    result.meta["argopt_mask"] = masks[result.argopt_index]
    return result


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
    l = params.half_width
    xs, ys = mesh.xs, mesh.ys
    x_edges = np.linspace(0.0, np.pi, mesh.nx + 1)
    y_edges = np.linspace(-l, l, mesh.ny + 1)
    gauss_t, gauss_w = np.polynomial.legendre.leggauss(quad_points)
    mid = 0.5 * (y_edges[:-1] + y_edges[1:])
    half = 0.5 * (y_edges[1:] - y_edges[:-1])
    w_elem = np.where(mask.elements, mask.beta, mask.alpha)  # (ny, nx)

    def weighted_rows(m):
        """Weighted kernel integrals per index and node row, (m.size, ys.size)."""
        mc = m[:, None]
        # exact column integrals of sin(m xi)
        sx = (np.cos(mc * x_edges[:-1]) - np.cos(mc * x_edges[1:])) / mc
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
