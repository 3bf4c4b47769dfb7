"""Per-shape assembly plans: planned forms equal the sort, plans stay
read-only and bounded, and a cold and a warm cache write the same files."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from hingedplate import fem
from hingedplate.cli import default_config, run
from hingedplate.fem import (LONG, AssembledForm, Mesh, OrbitBasis, ReinforcementMask,
                             assemble_bilinear, element_stiffness, mirror_map)
from hingedplate.params import MaterialParams
from hingedplate.series import ObstacleSpec
from hingedplate.solver import BoxConstraints, PlateOperator, kkt_report, solve_obstacle

PARAMS = MaterialParams(sigma=0.2, half_width=0.1)
SHAPES = [(8, 2), (16, 4), (65, 17), (128, 32)]
X_GENERATORS = [(True, False, 1), (True, False, -1)]
Y_GENERATORS = [(False, True, 1), (False, True, -1)]
#: every mirror group: one generator of MIRRORS per flipped axis
GROUPS = ([(g,) for g in X_GENERATORS + Y_GENERATORS]
          + list(itertools.product(X_GENERATORS, Y_GENERATORS)))


def _mask(mesh):
    """An E1 mask that no mirror maps onto itself."""
    sel = np.zeros((mesh.ny, mesh.nx), dtype=bool)
    sel[:, : mesh.nx // 4] = True
    sel[0, mesh.nx // 2] = True
    return ReinforcementMask(sel, alpha=0.5, beta=2.5)


def _sorted_bilinear(mesh, weights):
    """The stiffness by the sort of ``from_triplets``, no plan reused."""
    gl = mesh.element_dof_table().reshape(-1, 16)
    Ke = element_stiffness(mesh.hx, mesh.hy, PARAMS.sigma)
    vals = (weights.astype(LONG)[..., None] * Ke.ravel()).ravel()
    return AssembledForm.from_triplets((mesh.n_dofs, mesh.n_dofs),
                                       np.repeat(gl, 16, axis=1).ravel(),
                                       np.tile(gl, 16).ravel(), vals)


def _sorted_restriction(basis, form):
    """``R' K R`` by the sort of ``from_triplets`` over the signed entries."""
    coo = form.csr.tocoo()
    s = basis.sign[coo.row] * basis.sign[coo.col]
    keep = s != 0.0
    return AssembledForm.from_triplets(
        (basis.n_dofs, basis.n_dofs), basis.coordinate[coo.row[keep]],
        basis.coordinate[coo.col[keep]], coo.data[keep] * s[keep])


def _assert_same_form(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got.csr, name), getattr(want.csr, name)
        # values, not bytes: a longdouble's padding bytes are uninitialised
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty plan cache for the test, the session's cache restored after."""
    monkeypatch.setattr(fem, "_PLAN_CACHE", {})
    return fem._PLAN_CACHE


@pytest.mark.parametrize("nx, ny", SHAPES, ids=[f"{nx}x{ny}" for nx, ny in SHAPES])
def test_planned_forms_equal_the_sort(cold_cache, nx, ny):
    """Both energies and every restriction equal the sort-based path, the
    second form of each kind from the plan the first one built."""
    mesh = Mesh(nx, ny, PARAMS.half_width)
    mask = _mask(mesh)
    base = assemble_bilinear(mesh, PARAMS)
    weighted = assemble_bilinear(mesh, PARAMS, weight=mask)
    plans = cold_cache[(nx, ny)]
    assert base.pattern is plans.bilinear and weighted.pattern is plans.bilinear
    _assert_same_form(base, _sorted_bilinear(mesh, np.ones((ny, nx))))
    _assert_same_form(weighted, _sorted_bilinear(mesh, mask.weights))
    for group in GROUPS:
        basis = OrbitBasis(mesh, group)
        for form in (base, weighted):
            _assert_same_form(basis.restrict_form(form), _sorted_restriction(basis, form))
        assert group in plans.bilinear.restrictions


def test_forms_of_a_foreign_pattern_restrict_unplanned(cold_cache):
    """A form not built on its mesh's plan is restricted by its own pattern,
    which keeps the restriction plan; the shape's plans hold none."""
    mesh = Mesh(8, 2, PARAMS.half_width)
    form = _sorted_bilinear(mesh, np.ones((2, 8)))
    basis = OrbitBasis(mesh, GROUPS[-1])
    _assert_same_form(basis.restrict_form(form), _sorted_restriction(basis, form))
    assert list(form.pattern.restrictions) == [GROUPS[-1]]
    assert cold_cache[(8, 2)].bilinear is None  # only the mirror maps of the basis


def _held_arrays(plan):
    """Every array a plan holds, as a field or within a tuple field."""
    for value in vars(plan).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield item


def test_plans_are_read_only(cold_cache):
    mesh = Mesh(16, 4, PARAMS.half_width)
    form = assemble_bilinear(mesh, PARAMS)
    OrbitBasis(mesh, GROUPS[0]).restrict_form(form)
    plans = cold_cache[(16, 4)]
    arrays = [a for plan in [plans.bilinear, *plans.bilinear.restrictions.values()]
              for a in _held_arrays(plan)]
    assert len(arrays) >= 2 * 4  # each plan holds a take, starts and its pattern
    arrays += [a for element in fem.MIRRORS for a in mirror_map(mesh, element)]
    arrays.append(form.matrix.data)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    # every form of the shape shares the plan's pattern
    assert np.shares_memory(form.csr.indices, plans.bilinear.indices)
    assert np.shares_memory(form.matrix.indptr, plans.bilinear.indptr)


def _traced_peak(call):
    """``call()`` and the peak of the memory it allocated, from tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


#: peak working memory of each set-up stage at 128x32, as a multiple of the
#: data bytes of the form it returns.  Measured 2.6, 1.5 and 7.5 for the
#: streamed pass over compact plans; full-length temporaries took 6.7, 5.0
#: and 19.7.
SETUP_PEAK_LIMITS = {"cold assembly": 3.5, "warm assembly": 2.5,
                     "cold quarter restriction": 10.0}


def test_setup_memory_stays_within_its_bound(cold_cache):
    """Assembly and ``R' K R`` stream through compact plans: the cold
    stiffness plan with its first form, a warm assembly and the cold plan of
    the quarter group with its form each peak within a small multiple of the
    form they return, at the refined mesh."""
    mesh = Mesh(128, 32, PARAMS.half_width)
    element_stiffness(mesh.hx, mesh.hy, PARAMS.sigma)  # not a stage of the plans
    basis = OrbitBasis(mesh, (X_GENERATORS[0], Y_GENERATORS[0]))  # the quarter plate
    peaks = {}
    form, peaks["cold assembly"] = _traced_peak(lambda: assemble_bilinear(mesh, PARAMS))
    _, peaks["warm assembly"] = _traced_peak(lambda: assemble_bilinear(mesh, PARAMS))
    reduced, peaks["cold quarter restriction"] = _traced_peak(
        lambda: basis.restrict_form(form))
    results = {"cold assembly": form, "warm assembly": form,
               "cold quarter restriction": reduced}
    ratios = {stage: peak / results[stage].csr.data.nbytes for stage, peak in peaks.items()}
    for stage, limit in SETUP_PEAK_LIMITS.items():
        assert ratios[stage] <= limit, (stage, ratios)


def test_mirror_maps_are_built_once_per_shape(cold_cache):
    a, b = Mesh(16, 4, 0.1), Mesh(16, 4, 0.2)
    for element in fem.MIRRORS:
        assert mirror_map(a, element) is mirror_map(b, element)
    assert len(cold_cache[(16, 4)].mirrors) == 8


def test_cache_stays_within_its_bound(cold_cache):
    shapes = [(4 + k, 2) for k in range(fem.PLAN_CACHE_SIZE + 3)]
    for nx, ny in shapes:
        assemble_bilinear(Mesh(nx, ny, 0.1), PARAMS)
        mirror_map(Mesh(*shapes[0], 0.1), fem.MIRRORS[1])  # keeps the first in use
        assert len(cold_cache) <= fem.PLAN_CACHE_SIZE
    assert list(cold_cache) == [*shapes[-fem.PLAN_CACHE_SIZE + 1:], shapes[0]]


def _vi_solve(tmp_path, name, nx, ny):
    cfg = default_config()
    cfg.update(material={"sigma": 0.2, "half_width": 0.1}, mesh={"nx": nx, "ny": ny},
               problem="vi-solve", output_dir=str(tmp_path / name),
               params={"load": {"density": 1.0},
                       "obstacles": {"kind": "bounds", "lower": -1.0, "upper": 0.002,
                                     "region": "full"}})
    assert run(cfg)[0] == 0
    return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}


def test_cold_and_warm_caches_write_the_same_files(cold_cache, tmp_path):
    cold = _vi_solve(tmp_path, "cold", 16, 4)
    assert cold_cache[(16, 4)].bilinear.restrictions  # the solve was reduced
    warm = _vi_solve(tmp_path, "warm", 16, 4)
    for k in range(fem.PLAN_CACHE_SIZE):
        _vi_solve(tmp_path, f"other{k}", 8 + 2 * k, 2)
    assert (16, 4) not in cold_cache
    evicted = _vi_solve(tmp_path, "evicted", 16, 4)
    assert set(cold) == {"summary.json", "field.csv", "gap.csv"}
    for name in cold:
        assert warm[name] == cold[name].replace(b"/cold", b"/warm"), name
        assert evicted[name] == cold[name].replace(b"/cold", b"/evicted"), name


def _float64_arrays(form):
    """The float64 arrays and matrices a form holds as fields."""
    return [v for v in vars(form).values()
            if (isinstance(v, np.ndarray) or sp.issparse(v)) and v.dtype == np.float64]


def test_full_operator_of_a_reduced_solve_builds_no_block():
    """Only the reduced operator is factored, so only it builds its scaling,
    its factor and its pinned columns; no form keeps a float64 copy, even
    after the solve and its ``kkt_report`` have cast both."""
    mesh = Mesh(16, 4, PARAMS.half_width)
    op = PlateOperator.build(mesh, PARAMS)
    rhs = fem.assemble_load(mesh, fem.LoadSpec(density=1.0))
    box = BoxConstraints.from_obstacle(
        mesh, ObstacleSpec(lower=-1.0, upper=0.002, region="full"))
    solution = solve_obstacle(op, rhs, box, ((True, False), (False, True)))
    kkt_report(solution, op, rhs, box)
    assert op._s is None and op._free_factor is None and op._n_columns == 0
    reduced = op.reduced(((True, False, 1), (False, True, 1)))
    assert reduced._s is not None and reduced._n_columns > 0
    assert _float64_arrays(op.form) == [] and _float64_arrays(reduced.form) == []

