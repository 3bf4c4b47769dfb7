"""Box-constrained solves of the discrete plate problems.

The discrete two-sided obstacle problem is the quadratic program

    min  1/2 x' K x - b' x    subject to  lo_i <= x_i <= hi_i

over the essential-constrained dof space, where only value dofs of nodes in
the obstacle region are boxed.  A monotone primal active set iteration
solves it with exact nodewise feasibility and finite termination; multipliers
are nonnegative on upper contact and nonpositive on lower contact.  Every
block the solver factors is symmetric positive definite: the free block of
the energy, scaled once per operator to unit diagonal, or a principal
submatrix of it.  It is factored as such, by a symmetric elimination
(SuperLU in symmetric mode, diagonal pivots).  Each operator orders its
elimination once: the free dofs are numbered with the short axis fastest,
the first factorization of the free block takes a minimum-degree order on
the pattern of A + A' from there, and the scaled block is kept permuted into
that order.  A pinned block is a principal submatrix of it, factored in its
natural order, so it never fills more than the free factor and no later
factorization reorders.  Every solve is followed by extended-precision
iterative refinement, so the fourth-order conditioning does not eat the
certified residuals.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import LONG, DOF_VALUE, DofField, assemble_bilinear, energy
from .fem import assemble_load  # noqa: F401  (perfbench/tracing.py wraps it here)

__all__ = [
    "BoxConstraints",
    "VISolution",
    "PlateOperator",
    "SolverError",
    "IterationLimitError",
    "solve_linear",
    "solve_obstacle",
    "kkt_report",
    "solution_to_json",
]


class SolverError(RuntimeError):
    pass


class IterationLimitError(SolverError):
    """Active-set loop hit its iteration budget; carries the iterate's KKT violation."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


#: relative KKT stationarity a solve must reach to be certified
TOL = 1e-9
#: active-set iteration budget of one obstacle solve
MAX_ITERATIONS = 200
#: extended-precision refinement steps after each factored solve
REFINE_STEPS = 2


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxConstraints:
    """Bounds on value dofs of the nodes selected by ``node_mask``.

    ``lower`` and ``upper`` are per-node arrays aligned with the flat node
    order; entries outside the mask are ignored.  Bounds must bracket zero
    (the rest state is always admissible); a node with lower == upper is
    pinned.
    """

    node_mask: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "node_mask", np.asarray(self.node_mask, dtype=bool))
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        m = self.node_mask
        if self.lower.shape != m.shape or self.upper.shape != m.shape:
            raise ValueError("bounds must align with the node mask")
        if np.any(self.lower[m] > 0.0) or np.any(self.upper[m] < 0.0):
            raise ValueError("obstacles must satisfy lower <= 0 <= upper")

    @classmethod
    def from_obstacle(cls, mesh, obstacle):
        """Nodewise bounds of an ObstacleSpec on its region of the mesh."""
        _, Y = mesh.node_coordinates()
        if obstacle.region == "long_edges":
            mask = np.isclose(np.abs(Y), mesh.half_width, rtol=0.0, atol=1e-12)
        else:
            mask = np.ones(mesh.n_nodes, dtype=bool)
        lower = np.where(mask, obstacle.lower, -np.inf)
        upper = np.where(mask, obstacle.upper, np.inf)
        return cls(mask, lower, upper)

    @classmethod
    def unbounded(cls, mesh):
        n = mesh.n_nodes
        return cls(np.zeros(n, dtype=bool), np.full(n, -np.inf), np.full(n, np.inf))


@dataclass
class VISolution:
    """Solution of a box-constrained solve plus optimality certificates."""

    field: DofField
    lower_contact: np.ndarray
    upper_contact: np.ndarray
    multipliers: np.ndarray
    kkt_residual: float
    iterations: int


# ---------------------------------------------------------------------------
# operator wrapper: essential reduction + refined solves
# ---------------------------------------------------------------------------

def _spd_factor(a, permc_spec="MMD_AT_PLUS_A"):
    """Symmetric elimination of the SPD CSC block ``a``, diagonal pivots: in
    the minimum-degree order on the pattern of a + a', or in the block's own
    order with ``permc_spec="NATURAL"``."""
    return spla.splu(a, permc_spec=permc_spec, diag_pivot_thresh=0.0,
                     options={"SymmetricMode": True})


class PlateOperator:
    """An assembled bilinear form together with the essential constraints.

    Owns the reduction to free dofs, the free block scaled to unit diagonal
    (``diag(s) K diag(s)`` with ``s = diag(K)^(-1/2)``), its factor, built on
    the first solve, and extended-precision refinement of every solve.  The
    free dofs ``free_idx`` run with the short axis fastest: node column
    slowest, then node row, then the dof.
    """

    def __init__(self, mesh, form):
        self.mesh = mesh
        self.form = form
        self.free = mesh.free_dof_mask()
        dofs = mesh.dof_grid().transpose(1, 0, 2).ravel()
        self.free_idx = dofs[self.free[dofs]]
        self._pos_of_dof = -np.ones(mesh.n_dofs, dtype=np.int64)
        self._pos_of_dof[self.free_idx] = np.arange(self.free_idx.size)
        csr = form.matrix
        k_free = csr[self.free_idx][:, self.free_idx]
        self._s = 1.0 / np.sqrt(k_free.diagonal())
        self._scaled = (sp.diags(self._s) @ k_free @ sp.diags(self._s)).tocsc()
        self._free_factor = None
        # positions in free_idx of the elimination order, set by the factor
        self._order = None
        self._norm_estimate = float(np.abs(csr).sum(axis=1).max())

    @classmethod
    def build(cls, mesh, params, mask=None):
        """Operator of the base or stiffness-weighted energy."""
        full = assemble_bilinear(mesh, params)
        if mask is None or mask.is_degenerate:
            return cls(mesh, full)
        region = assemble_bilinear(mesh, params, region=mask)
        weighted = full.scaled(mask.alpha) + region.scaled(mask.beta - mask.alpha)
        return cls(mesh, weighted)

    def _factor_free(self):
        """The free block's factor, built on first use.  Its minimum-degree
        order becomes the operator's elimination order, and the scaled block
        is kept permuted into it in place of the unordered copy."""
        if self._free_factor is None:
            self._free_factor = _spd_factor(self._scaled)
            self._order = np.argsort(self._free_factor.perm_c)
            self._scaled = self._scaled[self._order][:, self._order]
        return self._free_factor

    def solve_free(self, rhs_full):
        """Solve on the free dofs with all box constraints inactive."""
        lu = self._factor_free()
        full = np.zeros(self.mesh.n_dofs, dtype=LONG)
        return self._refined_solve(rhs_full, full, self.free_idx,
                                   rhs_full[self.free_idx], self._s, lu)

    def solve_pinned(self, rhs_full, pinned_dofs, pinned_values):
        """Solve with some free dofs pinned to prescribed values.

        Returns the full dof vector in extended precision; essential dofs
        stay zero and pinned dofs carry exactly their prescribed values.
        """
        if pinned_dofs.size == 0:
            return self.solve_free(rhs_full)
        pin_pos = self._pos_of_dof[pinned_dofs]
        if np.any(pin_pos < 0):
            raise SolverError("cannot pin an essentially constrained dof")
        self._factor_free()
        keep = np.ones(self.free_idx.size, dtype=bool)
        keep[pin_pos] = False
        # the principal submatrix of the ordered block, eliminated in order
        sub = np.flatnonzero(keep[self._order])
        pos = self._order[sub]
        full = np.zeros(self.mesh.n_dofs, dtype=LONG)
        full[pinned_dofs] = pinned_values.astype(LONG)
        idx = self.free_idx[pos]
        r0 = (rhs_full - self.form.matvec_extended(full))[idx]
        return self._refined_solve(rhs_full, full, idx, r0, self._s[pos],
                                   _spd_factor(self._scaled[sub][:, sub],
                                               "NATURAL"))

    def _refined_solve(self, rhs_full, full, idx, r0, s, lu):
        """Fill ``full[idx]`` by ``lu``, the factor of that block scaled by
        ``s``, from residual ``r0``, then refine against the
        extended-precision residual."""
        x = (s * lu.solve(s * r0.astype(float))).astype(LONG)
        for _ in range(REFINE_STEPS):
            full[idx] = x
            r = (rhs_full - self.form.matvec_extended(full))[idx]
            x = x + (s * lu.solve(s * r.astype(float))).astype(LONG)
        full[idx] = x
        return full

    def residual_scale(self, rhs_full, x=None):
        """Backward-stable normalization |b| + |K| |x| for relative residuals."""
        scale = float(np.max(np.abs(rhs_full.astype(float))))
        if x is not None:
            scale += self._norm_estimate * float(
                np.max(np.abs(np.asarray(x, dtype=float))))
        return max(scale, 1e-300)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def solve_linear(operator, rhs):
    """Unconstrained Galerkin solve; relative residual certified <= 1e-10."""
    x = operator.solve_free(rhs)
    r = (rhs - operator.form.matvec_extended(x))[operator.free_idx]
    rel = float(np.max(np.abs(r.astype(float)))) / operator.residual_scale(rhs, x)
    if not np.isfinite(rel) or rel > 1e-10:
        raise SolverError(f"linear solve residual {rel:.3e} above 1e-10; "
                          "operator may be singular")
    return DofField(operator.mesh, x.astype(float))


def _box_dof_arrays(operator, constraints):
    """Constrained value-dof indices with their bounds, essential dofs excluded."""
    nodes = np.flatnonzero(constraints.node_mask)
    dofs = 4 * nodes + DOF_VALUE
    ok = operator.free[dofs]
    nodes, dofs = nodes[ok], dofs[ok]
    return dofs, constraints.lower[nodes], constraints.upper[nodes]


def solve_obstacle(operator, rhs, constraints):
    """Two-sided obstacle solve by a monotone primal active set iteration.

    Iterates stay feasible: each step solves the equality problem with the
    current contact set pinned to its bounds, moves along the resulting
    direction until the first blocking bound (adding every node that hits
    one), and at a contact-set optimum releases the single worst wrong-sign
    multiplier.  Energy descends monotonically, the loop terminates finitely,
    and a multiplier of exactly zero classifies its node inactive.  With no
    binding bound the result coincides with the unconstrained solve on the
    same data.
    """
    dofs, lo, hi = _box_dof_arrays(operator, constraints)
    if np.any(lo > hi):
        raise ValueError("infeasible box: lower bound above upper bound")

    n_c = dofs.size
    pinned_eq = lo == hi  # degenerate boxes pin the dof for good
    act_lo = pinned_eq.copy()
    act_hi = np.zeros(n_c, dtype=bool)
    x = np.zeros(operator.mesh.n_dofs, dtype=LONG)

    def residual(x):
        return (rhs - operator.form.matvec_extended(x)).astype(float)

    def kkt_violation(x, resid):
        """Relative stationarity residual of ``x``, except at contacts whose
        multiplier has the admissible sign."""
        lam = resid[dofs]
        resid = resid.copy()
        resid[dofs[pinned_eq | (act_hi & (lam >= 0.0)) | (act_lo & (lam <= 0.0))]] = 0.0
        return (float(np.max(np.abs(resid[operator.free_idx])))
                / operator.residual_scale(rhs, x))

    for it in range(1, MAX_ITERATIONS + 1):
        x_star = operator.solve_pinned(
            rhs, np.concatenate([dofs[act_lo], dofs[act_hi]]),
            np.concatenate([lo[act_lo], hi[act_hi]]))
        inactive = ~(act_lo | act_hi)
        d = (x_star - x).astype(float)[dofs]
        vals = x.astype(float)[dofs]
        # largest feasible step along d over the inactive constrained dofs
        t = np.full(n_c, np.inf)
        up = inactive & (d > 0.0) & np.isfinite(hi)
        dn = inactive & (d < 0.0) & np.isfinite(lo)
        t[up] = (hi[up] - vals[up]) / d[up]
        t[dn] = (lo[dn] - vals[dn]) / d[dn]
        t = np.maximum(t, 0.0)
        alpha = min(1.0, float(t.min(initial=np.inf)))

        if alpha < 1.0:
            blocked = t <= alpha * (1.0 + 1e-12)
            x = x + LONG(alpha) * (x_star - x)
            new_hi = blocked & up
            new_lo = blocked & dn
            x[dofs[new_hi]] = hi[new_hi].astype(LONG)
            x[dofs[new_lo]] = lo[new_lo].astype(LONG)
            act_hi |= new_hi
            act_lo |= new_lo
            continue

        # contact-set optimum reached; check multiplier signs
        x = x_star
        resid = residual(x)
        lam = resid[dofs]
        wrong_hi = act_hi & ~pinned_eq & (lam < 0.0)
        wrong_lo = act_lo & ~pinned_eq & (lam > 0.0)
        if not (np.any(wrong_hi) or np.any(wrong_lo)):
            break
        # release the single worst offender, lowest node index on ties
        badness = np.where(wrong_hi | wrong_lo, np.abs(lam), -np.inf)
        k = int(np.argmax(badness))
        act_hi[k] = False
        act_lo[k] = False
    else:
        raise IterationLimitError(
            f"active set did not settle in {MAX_ITERATIONS} iterations",
            kkt_violation(x, residual(x)))

    # x solves the settled contact set, where every multiplier has its sign
    stat = kkt_violation(x, resid)
    if stat > TOL:
        raise SolverError(f"stationarity residual {stat:.3e} above tol {TOL}")
    lam = np.where(act_lo | act_hi, lam, 0.0)
    # degenerate pins report the side their multiplier points to
    swap = pinned_eq & act_lo & (lam > 0.0)
    act_hi |= swap
    act_lo &= ~swap
    # a multiplier of exactly zero on the active-set boundary means inactive
    act_lo &= lam != 0.0
    act_hi &= lam != 0.0

    nodes = dofs // 4
    multipliers = np.zeros(operator.mesh.n_nodes)
    multipliers[nodes] = lam
    return VISolution(field=DofField(operator.mesh, x.astype(float)),
                      lower_contact=np.sort(nodes[act_lo]),
                      upper_contact=np.sort(nodes[act_hi]),
                      multipliers=multipliers,
                      kkt_residual=stat,
                      iterations=it)


def kkt_report(solution, operator, rhs, constraints):
    """Stationarity, complementarity and feasibility residuals of a solve."""
    dofs, lo, hi = _box_dof_arrays(operator, constraints)
    nodes = dofs // 4
    x = solution.field.dofs
    resid = rhs.astype(float) - operator.form.matrix @ x
    lam = solution.multipliers[nodes]
    contact = np.isin(nodes, solution.lower_contact) | np.isin(nodes, solution.upper_contact)
    scale = operator.residual_scale(rhs, x)

    stat_res = resid[operator.free_idx].copy()
    pos = operator._pos_of_dof[dofs[contact]]
    stat_res[pos] -= lam[contact]
    stationarity = float(np.max(np.abs(stat_res))) / scale if stat_res.size else 0.0

    vals = x[dofs]
    up_gap = np.where(np.isfinite(hi), hi - vals, np.inf)
    lo_gap = np.where(np.isfinite(lo), vals - lo, np.inf)
    feasibility = float(max(0.0, np.max(np.maximum(-up_gap, -lo_gap), initial=0.0)))
    comp_up = np.abs(np.maximum(lam, 0.0) * np.where(np.isfinite(hi), up_gap, 0.0))
    comp_lo = np.abs(np.minimum(lam, 0.0) * np.where(np.isfinite(lo), lo_gap, 0.0))
    complementarity = float(np.max(np.concatenate([comp_up, comp_lo]), initial=0.0)) / scale
    return {
        "stationarity": stationarity,
        "complementarity": complementarity,
        "feasibility": feasibility,
        "iterations": solution.iterations,
    }


def solution_to_json(solution, operator, rhs, constraints):
    """JSON-ready summary of a solve: contact sets, certificates, energy."""
    return {
        "contact_lower": [int(n) for n in solution.lower_contact],
        "contact_upper": [int(n) for n in solution.upper_contact],
        "kkt": kkt_report(solution, operator, rhs, constraints),
        "energy": energy(operator.form, rhs, solution.field),
        "sup_norm": solution.field.sup_norm(),
        "iterations": solution.iterations,
    }
