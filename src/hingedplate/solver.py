"""Box-constrained solves of the discrete plate problems.

The discrete two-sided obstacle problem is the quadratic program

    min  1/2 x' K x - b' x    subject to  lo_i <= x_i <= hi_i

over the essential-constrained dof space, where only the value dofs of
nodes with a finite bound are boxed.  A monotone primal active set iteration
solves it with exact nodewise feasibility and finite termination; it decides
every step on the box dofs alone and refines only a contact set that settles
(``_active_set``).  A contact is one signed side per box dof, -1 on the lower
obstacle and +1 on the upper one, and its multiplier ``lam`` is admissible
when ``side * lam >= 0``.  Each
operator factors its free block of the energy, scaled once to unit diagonal,
on its first solve, so an operator that is never solved, such as the full
operator of a reduced solve, never builds it.  A solve with contacts pinned
goes through that one factor, by the capacitance matrix: the columns
``A^-1 e_p`` of the scaled block ``A`` at the pinned positions ``P`` form
``W``, and the only block a pinned set adds is its ``|P| x |P|`` Schur block
``S = W[P]``.  The operator caches each column the first time its dof is
pinned, in one growing column array, so every solve on it shares them, and
keeps the factor of its last Schur block.  Both blocks are symmetric positive
definite and are factored as such, by one symmetric elimination (SuperLU in
symmetric mode, diagonal pivots); a block singular in float64 is a
SolverError.  The free dofs are numbered with the short axis fastest, and
the free block is eliminated in a minimum-degree order on the pattern of
A + A' from there.  What an operator's assembly shares with every other
operator on its mesh shape, the summation plan of its stiffness and of each
``R' K R``, and its mirror maps, ``fem`` plans once per shape.  Every solve
is followed by extended-precision iterative refinement, so the fourth-order
conditioning does not eat the certified residuals; the pinned dofs keep
their values exactly.

Mirrors are the elements of ``fem.MIRRORS``, the package's one symmetry
vocabulary; ``mirror_symmetries`` lists those that map a box, and the
reinforcement masks of an energy, onto themselves.  When mirrors also map
the load onto itself, the energy is strictly convex, so the minimizer is
unique and invariant under them.  ``solve_obstacle`` exploits this itself:
among the axis flips its caller offers (``flips``), it alone decides which
mirrors fix the box, the mask and the assembled load, and runs the active
set iteration on the invariant fields of their group, one coordinate per
dof orbit (``K_r = R' K R``, ``b_r = R' b``), a quarter- or half-sized
operator whose run its ``iterations`` count.  Each operator builds ``K_r``
and its ``fem.OrbitBasis`` once per group (``PlateOperator.reduced``), so
the levels of an obstacle scan share one reduced operator and its factor.
A ``vi-solve`` (``cli``) offers both axes; a scan's orbit representatives
(``optimize``) offer y alone.  Both kinds of image, the expansion of a
reduced solve and ``mirror_solution`` of a solve through one mirror (a scan
solves one load of each mirror orbit), are exact signed copies of a solve,
their contact sides included, built by one function.  Every result, a direct
solve's and an image's alike, ends in one closing step on the full operator
against its own load: its float64 field must lie in the box exactly and pass
the KKT certificate.  A field that fails is an error, never a result, and so
is one whose stationarity residual or its scale is not finite: such a
certificate would pass anything.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import (LONG, DOF_VALUE, MIRRORS, DofField, OrbitBasis, assemble_bilinear,
                  energy, mirror_axes, mirror_map)
from .fem import assemble_load  # noqa: F401  (perfbench/tracing.py wraps it here)

__all__ = [
    "BoxConstraints",
    "VISolution",
    "PlateOperator",
    "SolverError",
    "IterationLimitError",
    "solve_linear",
    "solve_obstacle",
    "mirror_symmetries",
    "mirror_solution",
    "kkt_report",
    "solution_to_json",
]


class SolverError(RuntimeError):
    pass


class IterationLimitError(SolverError):
    """Active-set loop hit its iteration budget with an iterate that does not
    pass the certificate; carries the state it stopped in: the iterate's
    extended-precision KKT violation ``residual``, the ``iterations`` spent and
    the number of ``contacts`` (box dofs on a bound) of that iterate.  Of a
    reduced solve (``solve_obstacle`` under a mirror group) all three are the
    reduced run's: its operator's residual and its orbit coordinates on a
    bound."""

    def __init__(self, message, residual, iterations, contacts):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
        self.contacts = contacts


#: relative KKT stationarity a solve must reach to be certified
TOL = 1e-9
#: active-set iteration budget of one obstacle solve
MAX_ITERATIONS = 200
#: extended-precision refinement steps after each factored solve
REFINE_STEPS = 2
#: relative distance within which a mirror maps a load onto itself: three
#: orders below TOL, so the projected load keeps the full certificate
LOAD_RTOL = 1e-12


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxConstraints:
    """Bounds ``lower`` and ``upper`` on the value dofs of the nodes, arrays
    of one shape in the flat node order; a node whose two bounds are both
    infinite is unboxed.  Bounds must bracket zero (the rest state is always
    admissible), so a NaN bound is an error; a node with lower == upper is
    pinned."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower and upper bounds must have one shape")
        # negated, so that a NaN bound fails too
        if not (np.all(self.lower <= 0.0) and np.all(self.upper >= 0.0)):
            raise ValueError("obstacles must satisfy lower <= 0 <= upper")

    @classmethod
    def from_obstacle(cls, mesh, obstacle):
        """Nodewise bounds of an ObstacleSpec on its region of the mesh, +-inf off it.

        The long edges are the node rows 0 and ``ny`` (y = -l and y = l),
        taken by index, so no other row joins them however thin the plate."""
        region = np.ones((mesh.ny + 1, mesh.nx + 1), dtype=bool)
        if obstacle.region == "long_edges":
            region[1:mesh.ny] = False
        return cls(np.where(region, obstacle.lower, -np.inf).ravel(),
                   np.where(region, obstacle.upper, np.inf).ravel())

    @classmethod
    def unbounded(cls, mesh):
        return cls(np.full(mesh.n_nodes, -np.inf), np.full(mesh.n_nodes, np.inf))


@dataclass
class VISolution:
    """Solution of a box-constrained solve plus optimality certificates.

    ``contact`` holds the contact side of each node: -1 on the lower
    obstacle, +1 on the upper one, 0 off contact; ``lower_contact`` and
    ``upper_contact`` list the nodes of each side, sorted."""

    field: DofField
    contact: np.ndarray
    multipliers: np.ndarray
    iterations: int

    @property
    def lower_contact(self):
        return np.flatnonzero(self.contact < 0)

    @property
    def upper_contact(self):
        return np.flatnonzero(self.contact > 0)


# ---------------------------------------------------------------------------
# operator wrapper: essential reduction + refined solves
# ---------------------------------------------------------------------------

def _spd_factor(a):
    """Symmetric elimination of the SPD CSC block ``a``, diagonal pivots, in
    the minimum-degree order on the pattern of a + a'.  A block that is
    singular in float64, as the energy of a plate too thin for its mesh can
    be, is a SolverError."""
    try:
        return spla.splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(f"the factorization failed: {exc}") from None


class PlateOperator:
    """An assembled bilinear form together with the essential constraints.

    Owns the reduction to free dofs, the free block scaled to unit diagonal
    (``A = diag(s) K diag(s)`` with ``s = diag(K)^(-1/2)``) and its factor,
    both built on the first solve, the columns ``A^-1 e_p`` of the free
    positions ``p`` it has pinned, its restrictions to mirror-invariant
    subspaces with their orbit bases, each built on first use per mirror
    group, and extended-precision refinement of every solve.  The columns
    live side by side in one Fortran-order float64 array, a slot of
    ``free_idx.size`` entries per boxed dof that ever enters a contact set,
    and nothing else; the array doubles its capacity when it is full, so it
    reserves at most twice the columns it holds, and growing it copies the
    filled slots once.  Building an operator
    takes only the row sums of ``|K|`` for ``residual_scale``; an operator
    whose float64 matrix overflows is a SolverError.
    The free dofs ``free_idx`` run with the short axis fastest: node column
    slowest, then node row, then the dof.  ``mask`` is the reinforcement
    mask whose weights the form carries, None for the base energy.
    """

    def __init__(self, mesh, form, mask=None):
        self.mesh = mesh
        self.form = form
        self.mask = mask
        self.free = mesh.free_dof_mask()
        dofs = mesh.dof_grid().transpose(1, 0, 2).ravel()
        self.free_idx = dofs[self.free[dofs]]
        self._pos_of_dof = -np.ones(mesh.n_dofs, dtype=np.int64)
        self._pos_of_dof[self.free_idx] = np.arange(self.free_idx.size)
        self._free_factor = None
        self._s = None  # the scaling, set with the factor
        # the columns A^-1 e_p side by side, the first _n_columns filled, and
        # the slot of each position p in free_idx among them, -1 for none
        self._columns = np.empty((self.free_idx.size, 0), order="F")
        self._n_columns = 0
        self._slot = -np.ones(self.free_idx.size, dtype=np.int64)
        self._schur = None  # (positions, factor) of the last Schur block
        self._reduced = {}
        with np.errstate(over="ignore"):
            self._norm_estimate = float(np.abs(form.matrix).sum(axis=1).max())
        if not np.isfinite(self._norm_estimate):
            raise SolverError("the operator overflows float64")

    @classmethod
    def build(cls, mesh, params, mask=None):
        """Operator of the base energy, or of the stiffness-weighted one whose
        elements ``mask.weights`` weights, from one assembly."""
        return cls(mesh, assemble_bilinear(mesh, params, weight=mask), mask)

    def _factor_free(self):
        """The factor of the scaled free block ``A``, built on first use: an
        operator that is never solved, such as the full operator of a reduced
        solve, never builds it."""
        if self._free_factor is None:
            k_free = self.form.matrix[self.free_idx][:, self.free_idx]
            self._s = 1.0 / np.sqrt(k_free.diagonal())
            self._free_factor = _spd_factor(
                (sp.diags(self._s) @ k_free @ sp.diags(self._s)).tocsc())
        return self._free_factor

    def _column_slots(self, pos):
        """The slots in ``_columns`` of the columns ``A^-1 e_p`` at the free
        positions ``pos``.  Those not cached yet come from one solve on an
        identity block and fill the next slots, the array doubling its
        capacity when it is full; a column's bits do not depend on which
        others share its block."""
        lu = self._factor_free()
        new = pos[self._slot[pos] < 0]
        if new.size:
            k = self._n_columns
            if k + new.size > self._columns.shape[1]:
                grown = np.empty((self.free_idx.size, max(k + new.size, 2 * k)), order="F")
                grown[:, :k] = self._columns[:, :k]
                self._columns = grown
            eye = np.zeros((self.free_idx.size, new.size), order="F")
            eye[new, np.arange(new.size)] = 1.0
            self._columns[:, k:k + new.size] = lu.solve(eye)
            self._slot[new] = np.arange(k, k + new.size)
            self._n_columns = k + new.size
        return self._slot[pos]

    def _schur_factor(self, pos):
        """The factor of the Schur block ``S = W[pos]`` of the columns ``W``
        at the sorted free positions ``pos``, symmetrized.  The last one is
        kept, so that the refined solve of a settled contact set reuses the
        factor of its active-set step."""
        if self._schur is None or not np.array_equal(self._schur[0], pos):
            slots = self._column_slots(pos)  # before reading the array it may grow
            schur = self._columns[pos[:, None], slots]
            self._schur = pos, _spd_factor(sp.csc_matrix(0.5 * (schur + schur.T)))
        return self._schur[1]

    def reduced(self, group):
        """The operator ``R' K R`` on the invariant fields of the mirror group
        generated by the tuple ``group``: its ``mesh`` is the
        ``OrbitBasis(self.mesh, group)`` of those fields.  Built on first use
        per group, as the free factor is."""
        if group not in self._reduced:
            basis = OrbitBasis(self.mesh, group)
            self._reduced[group] = PlateOperator(basis, basis.restrict_form(self.form))
        return self._reduced[group]

    def solve_free(self, rhs_full):
        """Solve on the free dofs with all box constraints inactive."""
        full = np.zeros(self.mesh.n_dofs, dtype=LONG)
        return self._refined_solve(rhs_full, full, np.zeros(0, dtype=np.int64))

    def solve_pinned(self, rhs_full, pinned_dofs, pinned_values):
        """Solve with some free dofs pinned to prescribed values.

        Returns the full dof vector in extended precision; essential dofs
        stay zero and pinned dofs carry exactly their prescribed values.  The
        result depends on the pinned set only, not on its order.
        """
        if pinned_dofs.size == 0:
            return self.solve_free(rhs_full)
        pos = np.sort(self._pos_of_dof[pinned_dofs])
        if pos[0] < 0:
            raise SolverError("cannot pin an essentially constrained dof")
        full = np.zeros(self.mesh.n_dofs, dtype=LONG)
        full[pinned_dofs] = pinned_values.astype(LONG)
        return self._refined_solve(rhs_full, full, pos)

    def _refined_solve(self, rhs_full, full, pos):
        """Complete ``full``, whose free positions ``pos`` hold their pinned
        values, by one solve and REFINE_STEPS refinements against the
        extended-precision residual ``r``, its rows ``pos`` zeroed.  Each step
        is ``z = A^-1 (s r)``, then, through the columns ``w = A^-1 E`` at
        ``pos``, ``mu = S^-1 (-z[pos])`` with ``S = w[pos]``, so that the step
        ``s (z + w mu)`` leaves ``pos`` where they are."""
        lu = self._factor_free()
        if pos.size:
            schur_lu = self._schur_factor(pos)
            # row-major, as the products' rounding depends on the layout
            w = np.take(self._columns, self._slot[pos], axis=1)
        idx, s = self.free_idx, self._s
        for step in range(REFINE_STEPS + 1):
            # the residual of the zero start is the load itself
            r = (rhs_full - self.form.matvec_extended(full) if step or pos.size
                 else rhs_full)[idx].astype(float)
            r[pos] = 0.0
            z = lu.solve(s * r)
            if pos.size:
                z += w @ schur_lu.solve(-z[pos])
                z[pos] = 0.0
            full[idx] += (s * z).astype(LONG)
        return full

    def residual_scale(self, rhs_full, x):
        """Backward-stable normalization |b| + |K| |x| for relative residuals."""
        scale = (float(np.max(np.abs(rhs_full.astype(float))))
                 + self._norm_estimate * float(np.max(np.abs(np.asarray(x, dtype=float)))))
        return max(scale, 1e-300)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def solve_linear(operator, rhs):
    """Unconstrained Galerkin solve; relative residual certified <= 1e-10."""
    x = operator.solve_free(rhs)
    rel = _stationarity(operator, rhs, x, _residual(operator, rhs, x))
    if rel > 1e-10:
        raise SolverError(f"linear solve residual {rel:.3e} above 1e-10; "
                          "operator may be singular")
    return DofField(operator.mesh, x.astype(float))


def _bounds(mesh, constraints):
    """The bound arrays of a box, a ValueError unless one per node of ``mesh``."""
    if constraints.lower.shape != (mesh.n_nodes,):
        raise ValueError(f"the box has {constraints.lower.size} nodes, the mesh {mesh.n_nodes}")
    return constraints.lower, constraints.upper


def _box_dof_arrays(operator, constraints):
    """Boxed value-dof indices with their bounds, essential dofs excluded."""
    lower, upper = _bounds(operator.mesh, constraints)
    nodes = np.flatnonzero(np.isfinite(lower) | np.isfinite(upper))
    dofs = 4 * nodes + DOF_VALUE
    ok = operator.free[dofs]
    nodes, dofs = nodes[ok], dofs[ok]
    return dofs, lower[nodes], upper[nodes]


def solve_obstacle(operator, rhs, constraints, flips=()):
    """Two-sided obstacle solve by a monotone primal active set iteration.

    Iterates stay feasible: each step solves the equality problem with the
    current contact set pinned to its bounds, moves along the resulting
    direction until the first blocking bound (adding every node that hits
    one), and at a contact-set optimum releases the single worst wrong-sign
    multiplier.  Energy descends monotonically, the loop terminates finitely,
    and a multiplier of exactly zero classifies its node inactive.  With no
    binding bound the result coincides with the unconstrained solve on the
    same data.

    ``flips`` lists the axis flips ``(fx, fy)`` the solve may use: when
    mirrors among them fix the data (``_mirror_group``), the iteration runs
    on ``operator.reduced(group)``, each orbit node boxed as its
    representative, and the result is its exact expansion, certified on the
    full operator against ``rhs`` (``_image``).
    """
    group = _mirror_group(operator, rhs, constraints, flips)
    if not group:
        return _active_set(operator, rhs, constraints)
    reduced = operator.reduced(group)
    basis, rep = reduced.mesh, reduced.mesh.representative_nodes
    solution = _active_set(reduced, basis.restrict(rhs), BoxConstraints(
        constraints.lower[rep], constraints.upper[rep]))
    return _image(solution, operator, rhs, constraints, basis.coordinate, basis.sign)


def _mirror_group(operator, rhs, constraints, flips):
    """The generators of the mirror group of an obstacle problem's data, ``()``
    when the data fix no mirror of ``flips``.

    For each axis flip ``(fx, fy)`` in ``flips`` the generator is the first
    element of ``fem.MIRRORS`` that flips that axis alone and maps the load
    ``rhs``, up to ``LOAD_RTOL`` of its largest entry, and the box and the
    operator's reinforcement mask (``_maps_onto_itself``) onto themselves."""
    masks = [operator.mask] if operator.mask is not None else []
    load = rhs.astype(float)
    group = {}
    for g in MIRRORS:
        if g[:2] in flips and g[:2] not in group:
            perm, signs = mirror_map(operator.mesh, g)
            off = np.max(np.abs(signs * load[perm] - load))
            if (off <= LOAD_RTOL * np.max(np.abs(load))
                    and _maps_onto_itself(operator.mesh, constraints, masks, g)):
                group[g[:2]] = g
    return tuple(group.values())


def _active_set(operator, rhs, constraints):
    """The active set iteration of ``solve_obstacle`` on ``operator``, decided
    on the box dofs ``B`` alone.

    It starts from the refined free solve ``x0``.  With ``z0 = x0 / s`` and
    the cached columns ``W = A^-1 E``, the solve with the contacts ``P``
    pinned to their bounds ``v`` is ``x*_B = s_B (z0_B + W_BP mu)``, where
    ``S mu = v_P / s_P - z0_P`` for the Schur block ``S = W_PP``, factored
    once per step (``PlateOperator._schur_factor``), and contact ``p`` has
    the multiplier ``-mu_p / s_p``.  Steps, blocks and releases read these
    alone.  A contact set that settles, no bound blocking and every
    multiplier of its sign, gets one refined ``solve_pinned`` on its step's
    factor (none without contacts: ``x0`` is that solve), and its refined
    multipliers decide: the certified result, or a release of the worst of
    them from the step's own solve on the box rows, from which the loop goes
    on.  Every step counts against MAX_ITERATIONS.  At the budget the full
    iterate is rebuilt once, from ``x0`` and the columns, weighted as the
    steps combined them; it is returned if ``_certified`` passes it, else it
    is an IterationLimitError with its KKT violation."""
    dofs, lo, hi = _box_dof_arrays(operator, constraints)
    pinned_eq = lo == hi  # degenerate boxes pin the dof for good
    # contact side of each box dof: -1 lower, +1 upper, 0 none
    side = -pinned_eq.astype(np.int8)
    x0 = operator.solve_free(rhs)
    pos = operator._pos_of_dof[dofs]
    s = operator._s[pos]
    x0_box = x0[dofs].astype(float)
    z0 = x0_box / s
    by_pos = np.argsort(pos)  # box dofs in the order of their free positions
    # the iterate: vals on its box rows, and in full w_free * x0 + s W m,
    # m the weight of each box dof's column
    vals = np.zeros(dofs.size)
    w_free, m = 0.0, np.zeros(dofs.size)

    for it in range(1, MAX_ITERATIONS + 1):
        on = side != 0
        target = np.where(side > 0, hi, lo)
        x_star, mu = x0_box, np.zeros(dofs.size)
        if np.any(on):
            contacts = by_pos[on[by_pos]]
            schur_lu = operator._schur_factor(pos[contacts])
            w = operator._columns[pos[:, None], operator._slot[pos[contacts]]]
            mu[contacts] = schur_lu.solve(target[contacts] / s[contacts] - z0[contacts])
            x_star = s * (z0 + w @ mu[contacts])
            x_star[on] = target[on]
        d = x_star - vals
        # largest feasible step along d over the free constrained dofs
        bound = np.where(d > 0.0, hi, lo)
        moving = ~on & ((d > 0.0) | (d < 0.0)) & np.isfinite(bound)
        t = np.full(dofs.size, np.inf)
        with np.errstate(over="ignore"):  # an infinite ratio never blocks
            t[moving] = (bound[moving] - vals[moving]) / d[moving]
        t = np.maximum(t, 0.0)
        alpha = min(1.0, float(t.min(initial=np.inf)))

        if alpha < 1.0:
            blocked = t <= alpha * (1.0 + 1e-12)
            vals = vals + alpha * d
            vals[blocked] = bound[blocked]
            side[blocked] = np.sign(d[blocked])
            w_free = (1.0 - alpha) * w_free + alpha
            m = (1.0 - alpha) * m + alpha * mu
            continue

        # contact-set optimum reached; check multiplier signs
        vals, w_free, m = x_star, 1.0, mu
        lam = -mu / s
        wrong = _wrong_sign(lam, side, pinned_eq)
        if not np.any(wrong):
            x = operator.solve_pinned(rhs, dofs[on], target[on]) if np.any(on) else x0
            resid = _residual(operator, rhs, x)
            lam = resid[dofs]
            wrong = _wrong_sign(lam, side, pinned_eq)
            if not np.any(wrong):
                return _certified(operator, rhs, (dofs, lo, hi), x, resid, side, it)
        # release the single worst offender, lowest node index on ties
        side[int(np.argmax(np.where(wrong, np.abs(lam), -np.inf)))] = 0

    x = LONG(w_free) * x0
    used = np.flatnonzero(m)
    x[operator.free_idx] += (operator._s * (
        operator._columns[:, operator._slot[pos[used]]] @ m[used])).astype(LONG)
    on = side != 0
    x[dofs[on]] = np.where(side > 0, hi, lo)[on].astype(LONG)
    resid = _residual(operator, rhs, x)
    try:
        return _certified(operator, rhs, (dofs, lo, hi), x, resid, side, MAX_ITERATIONS)
    except SolverError:
        pass
    raise IterationLimitError(
        f"active set did not settle in {MAX_ITERATIONS} iterations",
        _kkt_violation(operator, rhs, x, resid, dofs, pinned_eq, side),
        MAX_ITERATIONS, int(np.count_nonzero(side)))


def _residual(operator, rhs, x):
    """b - K x from the extended-precision product, rounded to float64."""
    return (rhs - operator.form.matvec_extended(x)).astype(float)


def _wrong_sign(lam, side, pinned_eq):
    """Contacts, degenerate pins aside, whose multiplier points into the box."""
    return ~pinned_eq & (side * lam < 0.0)


def _kkt_violation(operator, rhs, x, resid, dofs, pinned_eq, side):
    """Relative stationarity residual of ``x``, except at contacts whose
    multiplier has the admissible sign."""
    lam = resid[dofs]
    resid = resid.copy()
    resid[dofs[pinned_eq | ((side != 0) & (side * lam >= 0.0))]] = 0.0
    return _stationarity(operator, rhs, x, resid)


def _stationarity(operator, rhs, x, resid):
    """The largest free-dof entry of the residual ``resid`` of ``x`` relative
    to ``residual_scale``; a SolverError when it or the scale is not finite,
    for then it certifies nothing: a NaN passes every comparison, and an
    overflowed scale reads any residual as 0."""
    scale = operator.residual_scale(rhs, x)
    stat = float(np.max(np.abs(resid[operator.free_idx]))) / scale
    if not (np.isfinite(stat) and np.isfinite(scale)):
        raise SolverError(f"stationarity residual {stat:.3e} or its scale "
                          f"{scale:.3e} is not finite")
    return stat


def _certified(operator, rhs, box, x, resid, side, iterations):
    """The solution ``x`` with contact sides ``side`` (-1 lower, +1 upper, 0
    none) on the box dofs, once certified: its float64 field lies in the box
    exactly, every contact multiplier has its sign and the stationarity
    residual ``resid`` of ``x`` is at most TOL; else a SolverError.  Every
    VISolution is built here.  Degenerate pins report the side their
    multiplier points to, and a multiplier of exactly zero classifies its
    node inactive."""
    dofs, lo, hi = box
    vals = x[dofs].astype(float)
    if np.any(vals < lo) or np.any(vals > hi):
        raise SolverError("the field leaves the box")
    pinned_eq = lo == hi
    lam = resid[dofs]
    if np.any(_wrong_sign(lam, side, pinned_eq)):
        raise SolverError("a contact multiplier points into the box")
    stat = _kkt_violation(operator, rhs, x, resid, dofs, pinned_eq, side)
    if stat > TOL:
        raise SolverError(f"stationarity residual {stat:.3e} above tol {TOL}")
    lam = np.where(side != 0, lam, 0.0)
    side = np.where(lam == 0.0, 0, np.where(pinned_eq & (lam > 0.0), 1, side))

    nodes = dofs // 4
    contact = np.zeros(operator.mesh.n_nodes, dtype=np.int8)
    contact[nodes] = side
    multipliers = np.zeros(operator.mesh.n_nodes)
    multipliers[nodes] = lam
    return VISolution(field=DofField(operator.mesh, x.astype(float)),
                      contact=contact,
                      multipliers=multipliers,
                      iterations=iterations)


def mirror_symmetries(mesh, constraints, masks=()):
    """The elements of ``fem.MIRRORS`` that map the box ``constraints`` and
    each reinforcement mask in ``masks`` onto themselves: the mirrors under
    which a problem on the plate with those data is invariant whenever its
    load is."""
    return [g for g in MIRRORS if _maps_onto_itself(mesh, constraints, masks, g)]


def _maps_onto_itself(mesh, constraints, masks, element):
    """Whether the mirror ``element`` maps the box ``constraints`` and the
    elements of each reinforcement mask in ``masks`` onto themselves, by
    exact comparison: the bounds under the node permutation, swapped and
    negated under a negating element."""
    lower, upper = _bounds(mesh, constraints)
    perm = mirror_map(mesh, element)[0][DOF_VALUE::4] // 4
    lo, hi = (lower, upper) if element[2] > 0 else (-upper, -lower)
    return (np.array_equal(lo[perm], lower) and np.array_equal(hi[perm], upper)
            and all(np.array_equal(np.flip(mask.elements, mirror_axes(element)),
                                   mask.elements) for mask in masks))


def mirror_solution(solution, operator, rhs, constraints, element):
    """The solution of the problem with load ``rhs`` as the image of
    ``solution`` under the mirror ``element``, by ``_image``.

    ``solution`` solves the problem whose load is the mirror image of
    ``rhs``, on an operator and box that ``element`` maps onto themselves
    (``mirror_symmetries``).
    """
    return _image(solution, operator, rhs, constraints,
                  *mirror_map(operator.mesh, element))


def _image(solution, operator, rhs, constraints, index, sign):
    """The signed copy ``sign * solution.field.dofs[index]`` of a solve,
    certified against ``rhs`` by ``_certified``; else a SolverError, never a
    result.

    Each box node takes the contact of the node its value dof is copied from,
    on the opposite side where the sign is negative and none where it is
    zero; degenerate pins stay pinned.
    """
    x = (sign * solution.field.dofs[index]).astype(LONG)
    dofs, lo, hi = _box_dof_arrays(operator, constraints)
    side = np.where(lo == hi, -1.0, sign[dofs] * solution.contact[index[dofs] // 4])
    return _certified(operator, rhs, (dofs, lo, hi), x, _residual(operator, rhs, x),
                      side, solution.iterations)


def kkt_report(solution, operator, rhs, constraints):
    """Stationarity, complementarity and feasibility residuals of a solve."""
    dofs, lo, hi = _box_dof_arrays(operator, constraints)
    nodes = dofs // 4
    x = solution.field.dofs
    resid = rhs.astype(float) - operator.form.matrix @ x
    lam = solution.multipliers[nodes]
    contact = solution.contact[nodes] != 0
    scale = operator.residual_scale(rhs, x)

    resid[dofs[contact]] -= lam[contact]
    stationarity = float(np.max(np.abs(resid[operator.free_idx]), initial=0.0)) / scale

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
    """JSON-ready summary of a solve: contact sets, certificates, energy; a
    SolverError when the energy overflows, so the summary stays strict JSON."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = energy(operator.form, rhs, solution.field)
    if not np.isfinite(value):
        raise SolverError(f"the energy of the certified field is {value}")
    return {
        "contact_lower": [int(n) for n in solution.lower_contact],
        "contact_upper": [int(n) for n in solution.upper_contact],
        "kkt": kkt_report(solution, operator, rhs, constraints),
        "energy": value,
        "sup_norm": solution.field.sup_norm(),
        "iterations": solution.iterations,
    }
