"""Closed-form sine-series machinery for the partially hinged plate.

The deflection caused by a unit point load at p = (xi, eta) expands as

    (1 / 2 pi) * sum_m  c_m(y, eta) / m^3 * sin(m xi) * sin(m x)

where the coefficient c_m (``phi_m`` below) carries the correction enforcing
the free-edge conditions on the long edges.  This module evaluates that
kernel, the antisymmetric point-pair solution built from it, the deflection
profile under a uniform load, the explicit series threshold separating the
regimes in which edge guides do or do not bind, and the analytic envelopes
used for truncation-error certificates.

Every sine series of the kernel forms its terms as

    coefficient(m) * sin(m x) / denominator(m)

through one helper, ``_sine_series``, on a leading Fourier-index axis that
``summation.series_sum`` accumulates; each caller keeps its own order of
operations inside the coefficient and the denominator.  The point-pair
solution broadcasts over arrays of load sites as well as of points.

A coefficient that integrates ``phi_m`` over the ordinate (the uniform-load
profile here, the placement bound of ``optimize``) passes its Gauss-Legendre
nodes through ``phi_m`` on a quadrature axis ahead of the index axis, in
groups that hold at most ``summation.SERIES_CHUNK`` values unless one node's
values exceed it (``summation.quadrature_sum``).  The weighted rows
accumulate in node order from 0, as a per-node loop adds them, so every
term keeps its bits.

All hyperbolic factors are evaluated in exponentially rescaled form so that
coefficients stay finite for arbitrarily large Fourier index (raw sinh/cosh
overflow once m*l exceeds ~350).
"""

from dataclasses import dataclass, field

import numpy as np

from .params import MaterialParams
from .summation import check_m_max, quadrature_sum, series_sum

__all__ = [
    "SeriesState",
    "ScanWindow",
    "ObstacleSpec",
    "aux_pair",
    "phi_m",
    "green_value",
    "antisym_solution",
    "uniform_load_profile",
    "gap_threshold_M",
    "analytic_bound_C",
    "envelope_g",
    "tail_estimate",
]


# ---------------------------------------------------------------------------
# elementary closed forms
# ---------------------------------------------------------------------------

def aux_pair(z, params):
    """Denominator pair (F, Fbar) of the edge-correction coefficients.

    F(z)    = (3+sigma)/2 * sinh(2z) - z*(1-sigma)
    Fbar(z) = (3+sigma)/2 * sinh(2z) + z*(1-sigma)

    Both are strictly positive for z > 0 (sinh(2z) >= 2z makes
    F >= 2*(1+sigma)*z).
    """
    if not z > 0.0:  # NaN too
        raise ValueError(f"argument must be positive, got z={z}")
    s = params.sigma
    base = (3.0 + s) / 2.0 * np.sinh(2.0 * z)
    return base - z * (1.0 - s), base + z * (1.0 - s)


def _scaled_aux_pair(s, e2s, sigma):
    """(F, Fbar) of ``aux_pair`` at z = s, both scaled by exp(-2s), given
    ``e2s`` = exp(-2s): finite for every s."""
    fbase = (3.0 + sigma) * (1.0 - e2s * e2s) / 4.0
    return fbase - s * (1.0 - sigma) * e2s, fbase + s * (1.0 - sigma) * e2s


def phi_m(y, eta, m, params):
    """Series coefficient c_m(y, eta) of the point-load expansion.

    ``y``, ``eta`` and the Fourier index ``m`` may be scalars or ndarrays
    that broadcast together; an index array shaped (k, 1, ..., 1) adds a
    leading index axis.  The coefficient is strictly positive, strictly
    decreasing in m, and symmetric in (y, eta).  Evaluated in rescaled form:
    every hyperbolic product is multiplied through by exp(-(|arg1|+|arg2|))
    and compensated by a single final exponential whose argument is never
    positive.  Raises ValueError for an ordinate above the half-width or NaN.
    """
    l = params.half_width
    sig = params.sigma
    y = np.asarray(y, dtype=float)
    bound = l * (1.0 + 1e-12)
    if not (np.all(np.abs(y) <= bound) and np.all(np.abs(eta) <= bound)):  # NaN fails
        raise ValueError("ordinates must satisfy |y| <= l and |eta| <= l")
    if np.any(m < 1):
        raise ValueError(f"Fourier index must be >= 1, got {m}")

    s = m * l
    r = m * y
    t = m * eta
    ar, at = np.abs(r), abs(t)
    e2r = np.exp(-2.0 * ar)
    e2s = np.exp(-2.0 * s)
    e2t = np.exp(-2.0 * at)
    sgn_r = np.sign(r)

    # cosh/sinh products scaled by exp(-(|r|+s))
    ch_r, sh_r = 1.0 + e2r, sgn_r * (1.0 - e2r)
    ch_s, sh_s = 1.0 + e2s, 1.0 - e2s
    cc = ch_r * ch_s / 4.0
    cs = ch_r * sh_s / 4.0
    sc = sh_r * ch_s / 4.0
    ss = sh_r * sh_s / 4.0

    a1 = 4.0 / (1.0 - sig) - s * (1.0 + sig)
    a2 = (1.0 + sig) ** 2 / (1.0 - sig) + 2.0 * s
    b1 = 2.0 + (1.0 - sig) * s
    b2 = -(1.0 + sig) + s * (1.0 - sig)
    # shared products, each rounded once; -rm equals (-r) * (1 - sig) exactly
    r2, rp, rm = 2.0 * r, r * (1.0 + sig), r * (1.0 - sig)
    zeta = a1 * cc + a2 * cs - r2 * sc + rp * ss
    theta = rp * cc - r2 * cs + a2 * sc + a1 * ss
    psi = b1 * cc + b2 * cs - rm * sc - rm * ss
    omega = -rm * cc - rm * cs + b2 * sc + b1 * ss

    f_sc, fb_sc = _scaled_aux_pair(s, e2s, sig)

    ch_t = (1.0 + e2t) / 2.0       # cosh(t) * exp(-|t|)
    sh_t = np.sign(t) * (1.0 - e2t) / 2.0

    bracket = (ch_t * (zeta / f_sc + s * psi / f_sc - t * omega / fb_sc)
               + sh_t * (theta / fb_sc + s * omega / fb_sc - t * psi / f_sc))
    # exp(-s)*cosh(t)*zeta/F = ch_t*zeta_sc/F_sc * exp(|t|+|r|-2s), exponent <= 0
    scale = np.exp(ar + at - 2.0 * s)
    d = np.abs(r - t)
    return scale * bracket + (1.0 + d) * np.exp(-d)


def envelope_g(eta, params):
    """Even, increasing envelope dominating c_1(y, eta) over all y.  Raises
    ValueError for |eta| above the half-width or NaN."""
    l = params.half_width
    if not np.all(np.abs(eta) <= l * (1.0 + 1e-12)):
        raise ValueError("|eta| must not exceed the half-width")
    s = params.sigma
    f1, _ = aux_pair(l, params)
    c = np.cosh(l) ** 2 / (np.exp(l) * f1) * ((4.0 + (1.0 + s) ** 2) / (1.0 - s)
                                              + l * (13.0 - s))
    return c * (np.cosh(eta) + np.abs(np.sinh(eta))) * (1.0 + np.abs(eta)) + 1.0


def tail_estimate(m_max, params):
    """Sup-norm bound on the discarded tail of any kernel series here.

    Every term is dominated by g(l)/(2 pi m^3) (coefficients decrease in m,
    c_1 <= g, |sin| <= 1) and sum_{m > M} m^-3 <= 1/(2 M^2).
    """
    check_m_max(m_max)
    g_edge = float(envelope_g(params.half_width, params))
    return g_edge / (4.0 * np.pi * m_max ** 2)


# ---------------------------------------------------------------------------
# series state and series-valued objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeriesState:
    """Truncation order plus its certified sup-norm tail bound."""

    params: MaterialParams
    m_max: int = 200
    tail_bound: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tail_bound", tail_estimate(self.m_max, self.params))


@dataclass(frozen=True)
class ScanWindow:
    """Scan region: two bands near the short edges plus the vertical midline
    (full height), united with a horizontal band around the midline.

    The defaults z0 = pi/6 and w0 = l/2 are conservative configuration
    choices; the window shape itself is fixed.
    """

    z0: float
    w0: float

    @classmethod
    def default(cls, params):
        return cls(z0=np.pi / 6.0, w0=params.half_width / 2.0)

    def validate(self, params):
        if not 0.0 < self.z0 < np.pi / 2.0:
            raise ValueError(f"z0 must lie in (0, pi/2), got {self.z0}")
        if not 0.0 < self.w0 < params.half_width:
            raise ValueError(f"w0 must lie in (0, half_width), got {self.w0}")

    def contains(self, xi, eta, params):
        """Membership test, vectorized over (xi, eta) arrays."""
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        near_edge = (xi <= self.z0) | (xi >= np.pi - self.z0)
        midline = np.isclose(xi, np.pi / 2.0, rtol=0.0, atol=1e-12)
        band = np.abs(eta) <= self.w0
        inside = (np.abs(eta) <= params.half_width) & (xi >= 0.0) & (xi <= np.pi)
        return inside & (near_edge | midline | band)


def _check_abscissa(x, params, name="x"):
    """Raise ValueError unless every ``x`` lies in [0, pi] up to the rounding
    slack of ``fem.Mesh.contains``; NaN fails."""
    tol = 1e-12 * max(1.0, params.half_width)
    if not np.all((-tol <= x) & (x <= np.pi + tol)):
        raise ValueError(f"{name}={x} outside [0, pi]")


# The sums below get float index blocks: m * m is exact for m < 2**26
# (``summation.INDEX_LIMIT``, which ``series_sum`` enforces), so m**3 and
# m**4 formed as products round once, as integer powers would.

def _sine_series(coefficient, x, denominator, ndim, m_max, step=1):
    """Sum of coefficient(m) * sin(m x) / denominator(m) over the indices.

    The index block reaches ``coefficient`` and ``denominator`` shaped
    (k, 1, ..., 1), with ``ndim`` trailing axes, so each term is an
    ndim-dimensional array on the leading index axis.  The product with the
    sine comes first, then the division.  The indices are m = 1, 1 + step,
    ... up to m_max.
    """
    def term(m):
        m = m.reshape((-1,) + (1,) * ndim)
        return coefficient(m) * np.sin(m * x) / denominator(m)

    return series_sum(term, m_max, step)


def green_value(p, q, state):
    """Truncated deflection at q = (x, y) under a unit point load at p.

    Absolute truncation error is at most ``state.tail_bound``.  ``q`` may be
    a pair of arrays for grid evaluation.  Raises ValueError for a point off
    the closed plate or a NaN coordinate.
    """
    xi, eta = p
    x, y = q
    params = state.params
    _check_abscissa(xi, params, "xi")
    _check_abscissa(x, params)
    return _sine_series(
        lambda m: phi_m(y, eta, m, params) / (m * m * m) * np.sin(m * xi),
        x, lambda m: 2.0 * np.pi, np.broadcast(x, y).ndim, state.m_max)


def antisym_solution(p, q, state):
    """Deflection at q = (x, y) under the antisymmetric point pair at p.

    The load at p = (xi, eta) is (delta_(xi,eta) - delta_(xi,-eta)) / 2, of
    unit dual norm whenever xi is interior and eta != 0.  The solution is odd
    in the ordinate of q and odd in eta, exactly at formula level.  xi, eta,
    x and y broadcast together, so arrays of sites and of points evaluate in
    one pass over the Fourier index.  Raises ValueError for a site or point
    off the closed plate or a NaN coordinate.
    """
    xi, eta = p
    x, y = q
    params = state.params
    _check_abscissa(xi, params, "xi")
    _check_abscissa(x, params)

    def coefficient(m):
        dphi = phi_m(y, eta, m, params) - phi_m(y, -eta, m, params)
        return dphi / (m * m * m) * np.sin(m * xi)

    return _sine_series(coefficient, x, lambda m: 4.0 * np.pi,
                        np.broadcast(xi, eta, x, y).ndim, state.m_max)


#: Gauss-Legendre points of the ordinate integral in ``uniform_load_profile``
PROFILE_QUAD_POINTS = 32
_PROFILE_NODES, _PROFILE_WEIGHTS = np.polynomial.legendre.leggauss(PROFILE_QUAD_POINTS)


def uniform_load_profile(q, state):
    """Deflection z(x, y) under the unit uniform load, by term-wise integration.

    The abscissa integral of sin(m xi) over (0, pi) is 2/m for odd m and 0
    otherwise; the ordinate integral of the coefficient uses Gauss-Legendre
    quadrature, whose nodes ride a leading axis through ``phi_m`` in groups
    (``summation.quadrature_sum``).  z is strictly positive away from the
    short edges.  Raises ValueError for a point off the closed plate or a
    NaN coordinate.
    """
    x, y = q
    params = state.params
    _check_abscissa(x, params)
    l = params.half_width
    eta_q = _PROFILE_NODES * l
    w_q = _PROFILE_WEIGHTS * l

    def coefficient(m):
        return quadrature_sum(lambda eta: phi_m(y, eta, m, params),
                              eta_q.reshape((-1,) + (1,) * m.ndim), w_q,
                              np.broadcast(y, m).size)

    return _sine_series(coefficient, x, lambda m: np.pi * ((m * m) * (m * m)),
                        np.broadcast(x, y).ndim, state.m_max, 2)


def gap_threshold_M(params, m_max=200_000):
    """Explicit threshold for edge guides on the long edges.

    Returns ``(value, tail_bound)``: the truncated odd-index series

        (4/pi) * sum_{m odd} sinh(ml)^2
                 / (m^3 (1-sigma) [(3+sigma) sinh(2ml) + 2ml (1-sigma)])

    in overflow-safe rescaled form, plus a bound on the neglected tail.
    A guide level above the value cannot bind under any antisymmetric
    point-pair load from the scan window; below it, guides clip the response.
    """
    sig, l = params.sigma, params.half_width

    def term(m):
        s = m * l
        e2s = np.exp(-2.0 * s)
        num = (1.0 - e2s) ** 2 / 4.0               # sinh(s)^2 * exp(-2s)
        # the bracket is 2 Fbar; doubling is exact, so each term keeps its bits
        den = 2.0 * _scaled_aux_pair(s, e2s, sig)[1]
        return num / (m * m * m * (1.0 - sig) * den)

    value = 4.0 / np.pi * series_sum(term, m_max, 2)
    # each term is below (4/pi) / (m^3 (1-sigma)(3+sigma) * 2)
    tail = 4.0 / np.pi / (2.0 * (1.0 - sig) * (3.0 + sig)) / (2.0 * m_max ** 2)
    return value, tail


def analytic_bound_C(params):
    """Closed-form upper bound for the gap threshold (any obstacle region)."""
    s, l = params.sigma, params.half_width
    num = np.pi * np.cosh(l) ** 2 * (5.0 + 2.0 * s + s ** 2
                                     + 2.0 * l * (5.0 + 2.0 * s) * (1.0 - s)
                                     + 8.0 * l ** 2 * (1.0 - s) ** 2)
    den = 6.0 * (1.0 - s) * ((3.0 + s) * np.sinh(2.0 * l) - l * (1.0 + s))
    return num / den + np.pi / 12.0


# ---------------------------------------------------------------------------
# obstacles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstacleSpec:
    """Two-sided obstacle: constant heights lower <= 0 <= upper on a region.

    ``region`` is ``"full"`` for obstacles over the whole closed plate or
    ``"long_edges"`` for the thin case where only the free edges are
    constrained.
    """

    lower: float
    upper: float
    region: str = "full"

    def __post_init__(self):
        if self.region not in ("full", "long_edges"):
            raise ValueError(f"unknown obstacle region {self.region!r}")
        if not self.lower <= 0.0 <= self.upper:
            raise ValueError("obstacles must satisfy lower <= 0 <= upper")

    @classmethod
    def constant_level(cls, gamma, region="long_edges"):
        """Symmetric guides at heights -gamma and +gamma."""
        if not gamma > 0.0:  # NaN too
            raise ValueError(f"guide level must be positive, got {gamma}")
        return cls(lower=-gamma, upper=gamma, region=region)
