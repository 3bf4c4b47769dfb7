"""The grouped ordinate quadratures against per-node loops, bit for bit.

``uniform_load_profile`` and ``placement_bound_report`` pass groups of
Gauss-Legendre nodes through ``phi_m`` on a leading axis.  The oracles here
call ``phi_m`` once per node and sum the weighted values with the builtin
``sum``, as both functions did before the nodes were grouped; every value
must keep its bits, at default and at split node groups.
"""

import numpy as np
import pytest

from hingedplate import (MaterialParams, Mesh, ReinforcementMask, SeriesState,
                         optimize, placement_bound_report, series, summation,
                         uniform_load_profile)
from hingedplate.series import _sine_series, phi_m

PARAMS = MaterialParams(sigma=0.2, half_width=0.1)
L = PARAMS.half_width
STATE = SeriesState(PARAMS, m_max=200)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _profile_oracle(q, state):
    """The profile with one ``phi_m`` call per Gauss node."""
    x, y = q
    params = state.params
    l = params.half_width
    nodes, weights = np.polynomial.legendre.leggauss(series.PROFILE_QUAD_POINTS)
    eta_q = nodes * l
    w_q = weights * l
    return _sine_series(
        lambda m: sum(w * phi_m(y, e, m, params) for e, w in zip(eta_q, w_q)),
        x, lambda m: np.pi * ((m * m) * (m * m)), np.broadcast(x, y).ndim,
        state.m_max, 2)


def _placement_oracle(mask, state, mesh):
    """The refined grid and the coarse profile of ``placement_bound_report``
    with one ``phi_m`` call per Gauss node."""
    params = state.params
    xs, ys = mesh.xs, mesh.ys
    gauss_t, gauss_w = np.polynomial.legendre.leggauss(optimize.PLACEMENT_QUAD_POINTS)
    mid = 0.5 * (ys[:-1] + ys[1:])
    half = 0.5 * (ys[1:] - ys[:-1])

    def weighted_rows(m):
        mc = m[:, None]
        sx = (np.cos(mc * xs[:-1]) - np.cos(mc * xs[1:])) / mc
        q = half * sum(w * phi_m(ys[:, None], mid + half * t, mc[:, None], params)
                       for t, w in zip(gauss_t, gauss_w))
        return np.einsum("kij,kj->ki", q, sx @ mask.weights.T)

    refined = _sine_series(lambda m: weighted_rows(m.ravel())[:, :, None], xs,
                           lambda m: 2.0 * np.pi * (m * m * m), 2, state.m_max)
    return refined, np.pi / 12.0 * weighted_rows(np.ones(1))[0]


def _points():
    """Random points, and grids through the corners and the edges."""
    rng = np.random.default_rng(28)
    scattered = [(rng.uniform(0.0, np.pi), rng.uniform(-L, L)) for _ in range(3)]
    edges = [(0.0, -L), (np.pi, L), (np.pi / 2, -L), (np.pi / 2, L), (0.0, 0.0)]
    grids = [
        (np.linspace(0.0, np.pi, 9), np.linspace(-L, L, 5)[:, None]),
        np.meshgrid(np.linspace(0.0, np.pi, 7), np.array([-L, -0.3 * L, L])),
        (rng.uniform(0.0, np.pi, 5), rng.uniform(-L, L, 5)),
        (np.pi, np.array([-L, L])),
    ]
    return scattered + edges + grids


POINTS = _points()


@pytest.fixture
def node_groups(monkeypatch):
    """The number of Gauss nodes of each ``phi_m`` call of the package."""
    groups = []
    real = series.phi_m

    def recorded(y, eta, m, params):
        groups.append(np.shape(eta)[0] if np.ndim(eta) > np.ndim(m) else 1)
        return real(y, eta, m, params)

    monkeypatch.setattr(series, "phi_m", recorded)
    monkeypatch.setattr(optimize, "phi_m", recorded)
    return groups


@pytest.mark.parametrize("q", POINTS)
def test_profile_matches_per_node_loop(q):
    assert _hex(uniform_load_profile(q, STATE)) == _hex(_profile_oracle(q, STATE))


@pytest.mark.parametrize("q", POINTS)
def test_profile_matches_per_node_loop_in_split_groups(q, monkeypatch, node_groups):
    # the first index block's rows hold np.size(y) values per node: groups of 3
    monkeypatch.setattr(summation, "SERIES_CHUNK", 3 * np.size(q[1]))
    state = SeriesState(PARAMS, m_max=40)
    got = uniform_load_profile(q, state)
    assert max(node_groups) == 3
    assert _hex(got) == _hex(_profile_oracle(q, state))


def test_profile_matches_per_node_loop_at_large_index():
    state = SeriesState(PARAMS, m_max=1000)
    for q in ((1.3, 0.02), (0.0, L), (np.pi / 2, -L)):
        assert _hex(uniform_load_profile(q, state)) == _hex(_profile_oracle(q, state))


def _placement_case(ny, selected):
    mesh = Mesh(4 * ny, ny, L)
    sel = np.zeros((ny, 4 * ny), dtype=bool)
    sel[selected] = True
    return ReinforcementMask(sel, alpha=0.5, beta=2.5), mesh


PLACEMENT_CASES = [
    _placement_case(4, (slice(None), slice(0, 4))),
    _placement_case(2, (0, slice(2, 5))),
]


def _check_placement(mask, mesh, monkeypatch):
    grids = []
    real = optimize._sine_series

    def recorded(*args):
        grids.append(real(*args))
        return grids[-1]

    monkeypatch.setattr(optimize, "_sine_series", recorded)
    rep = placement_bound_report(mask, STATE, mesh)
    refined, coarse = _placement_oracle(mask, STATE, mesh)
    assert len(grids) == 1 and _hex(grids[0]) == _hex(refined)
    assert rep["weighted_green_bound"].hex() == float(refined.max()).hex()
    assert rep["coarse_bound"].hex() == float(coarse.max()).hex()


@pytest.mark.parametrize("mask, mesh", PLACEMENT_CASES)
def test_placement_bound_matches_per_node_loop(mask, mesh, monkeypatch):
    _check_placement(mask, mesh, monkeypatch)


@pytest.mark.parametrize("mask, mesh", PLACEMENT_CASES)
def test_placement_bound_matches_per_node_loop_in_split_groups(
        mask, mesh, monkeypatch, node_groups):
    # the first index block's rows hold (ny + 1) * ny values per node
    monkeypatch.setattr(summation, "SERIES_CHUNK", 3 * mesh.ny * (mesh.ny + 1))
    _check_placement(mask, mesh, monkeypatch)
    assert max(node_groups) == 3


@pytest.mark.parametrize("q, m_max", [
    ((1.3, 0.02), 1000),          # index blocks of 499 rows limit the groups
    ((np.pi / 2, L), 1000),
    ((np.linspace(0.0, np.pi, 65), np.linspace(-L, L, 17)[:, None]), 1000),
    (np.meshgrid(np.linspace(0.0, np.pi, 65), np.linspace(-L, L, 17)), 200),
])
def test_profile_arrays_stay_within_the_chunk(q, m_max, monkeypatch):
    sizes, blocks = [], set()
    real = series.phi_m

    def recorded(y, eta, m, params):
        values = real(y, eta, m, params)
        sizes.append(values.size)
        blocks.add(float(m.flat[0]))
        return values

    monkeypatch.setattr(series, "phi_m", recorded)
    uniform_load_profile(q, SeriesState(PARAMS, m_max=m_max))
    assert max(sizes) <= summation.SERIES_CHUNK
    # the nodes were grouped: fewer calls than one per node and index block
    assert len(sizes) < len(blocks) * series.PROFILE_QUAD_POINTS
