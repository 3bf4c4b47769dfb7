"""Closed-form sine-series machinery for the partially hinged plate.

The deflection caused by a unit point load at p = (xi, eta) expands as

    (1 / 2 pi) * sum_m  c_m(y, eta) / m^3 * sin(m xi) * sin(m x)

where the coefficient c_m (``phi_m`` below) carries the correction enforcing
the free-edge conditions on the long edges.  This module evaluates that
kernel, the antisymmetric point-pair solution built from it, the deflection
profile under a uniform load, the explicit series threshold separating the
regimes in which edge guides do or do not bind, and the analytic envelopes
used for truncation-error certificates.

All hyperbolic factors are evaluated in exponentially rescaled form so that
coefficients stay finite for arbitrarily large Fourier index (raw sinh/cosh
overflow once m*l exceeds ~350).
"""

from dataclasses import dataclass, field

import numpy as np

from .params import MaterialParams
from .summation import series_sum

__all__ = [
    "SeriesState",
    "AntisymDelta",
    "ScanWindow",
    "ObstacleSpec",
    "aux_pair",
    "phi_m",
    "green_value",
    "antisym_solution",
    "antisym_edge_profile",
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
    if z <= 0.0:
        raise ValueError(f"argument must be positive, got z={z}")
    s = params.sigma
    base = (3.0 + s) / 2.0 * np.sinh(2.0 * z)
    return base - z * (1.0 - s), base + z * (1.0 - s)


def phi_m(y, eta, m, params):
    """Series coefficient c_m(y, eta) of the point-load expansion.

    ``y``, ``eta`` and the Fourier index ``m`` may be scalars or ndarrays
    that broadcast together; an index array shaped (k, 1, ..., 1) adds a
    leading index axis.  The coefficient is strictly positive, strictly
    decreasing in m, and symmetric in (y, eta).  Evaluated in rescaled form:
    every hyperbolic product is multiplied through by exp(-(|arg1|+|arg2|))
    and compensated by a single final exponential whose argument is never
    positive.
    """
    l = params.half_width
    sig = params.sigma
    y = np.asarray(y, dtype=float)
    if np.any(np.abs(y) > l * (1.0 + 1e-12)) or np.any(np.abs(eta) > l * (1.0 + 1e-12)):
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
    cc = (1.0 + e2r) * (1.0 + e2s) / 4.0
    cs = (1.0 + e2r) * (1.0 - e2s) / 4.0
    sc = sgn_r * (1.0 - e2r) * (1.0 + e2s) / 4.0
    ss = sgn_r * (1.0 - e2r) * (1.0 - e2s) / 4.0

    a1 = 4.0 / (1.0 - sig) - s * (1.0 + sig)
    a2 = (1.0 + sig) ** 2 / (1.0 - sig) + 2.0 * s
    b1 = 2.0 + (1.0 - sig) * s
    b2 = -(1.0 + sig) + s * (1.0 - sig)
    zeta = a1 * cc + a2 * cs - 2.0 * r * sc + r * (1.0 + sig) * ss
    theta = r * (1.0 + sig) * cc - 2.0 * r * cs + a2 * sc + a1 * ss
    psi = b1 * cc + b2 * cs - r * (1.0 - sig) * sc - r * (1.0 - sig) * ss
    omega = -r * (1.0 - sig) * cc - r * (1.0 - sig) * cs + b2 * sc + b1 * ss

    # F, Fbar scaled by exp(-2s)
    fbase = (3.0 + sig) * (1.0 - e2s * e2s) / 4.0
    f_sc = fbase - s * (1.0 - sig) * e2s
    fb_sc = fbase + s * (1.0 - sig) * e2s

    ch_t = (1.0 + e2t) / 2.0       # cosh(t) * exp(-|t|)
    sh_t = np.sign(t) * (1.0 - e2t) / 2.0

    bracket = (ch_t * (zeta / f_sc + s * psi / f_sc - t * omega / fb_sc)
               + sh_t * (theta / fb_sc + s * omega / fb_sc - t * psi / f_sc))
    # exp(-s)*cosh(t)*zeta/F = ch_t*zeta_sc/F_sc * exp(|t|+|r|-2s), exponent <= 0
    scale = np.exp(ar + at - 2.0 * s)
    d = np.abs(r - t)
    return scale * bracket + (1.0 + d) * np.exp(-d)


def envelope_g(eta, params):
    """Even, increasing envelope dominating c_1(y, eta) over all y."""
    l = params.half_width
    if np.any(np.abs(eta) > l * (1.0 + 1e-12)):
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
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
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
        if self.m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {self.m_max}")
        object.__setattr__(self, "tail_bound", tail_estimate(self.m_max, self.params))


@dataclass(frozen=True)
class AntisymDelta:
    """Antisymmetric pair of point loads, (delta_(xi,eta) - delta_(xi,-eta))/2.

    Unit dual norm whenever xi is interior and eta != 0; acts trivially
    otherwise.
    """

    xi: float
    eta: float

    def validate(self, params):
        if not 0.0 <= self.xi <= np.pi:
            raise ValueError(f"xi={self.xi} outside [0, pi]")
        if abs(self.eta) > params.half_width * (1.0 + 1e-12):
            raise ValueError(f"|eta|={abs(self.eta)} exceeds half-width")


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


# The sums below get float index blocks: m * m is exact for m < 2**26, so
# m**3 and m**4 formed as products round once, as integer powers would.

def green_value(p, q, state):
    """Truncated deflection at q = (x, y) under a unit point load at p.

    Absolute truncation error is at most ``state.tail_bound``.  ``q`` may be
    a pair of arrays for grid evaluation.
    """
    xi, eta = p
    x, y = q
    params = state.params
    nd = np.broadcast(x, y).ndim

    def term(m):
        m = m.reshape((-1,) + (1,) * nd)
        return (phi_m(y, eta, m, params) / (m * m * m)
                * np.sin(m * xi) * np.sin(m * x) / (2.0 * np.pi))

    return series_sum(term, state.m_max)


def antisym_solution(load, q, state):
    """Deflection at q for the antisymmetric point-pair load.

    Odd in the ordinate of q and odd in load.eta, exactly at formula level.
    """
    x, y = q
    params = state.params
    load.validate(params)
    nd = np.broadcast(x, y).ndim

    def term(m):
        m = m.reshape((-1,) + (1,) * nd)
        dphi = phi_m(y, load.eta, m, params) - phi_m(y, -load.eta, m, params)
        return dphi / (m * m * m) * np.sin(m * load.xi) * np.sin(m * x) / (4.0 * np.pi)

    return series_sum(term, state.m_max)


def antisym_edge_profile(xi_grid, eta_grid, x_grid, state, y=None):
    """Vectorized antisymmetric solutions on the long edge.

    Returns the array v[i, j, k] of deflections at (x_grid[k], y) for the
    point-pair load at (xi_grid[i], eta_grid[j]); y defaults to the upper
    edge.  One pass over the Fourier index serves the whole scan.
    """
    params = state.params
    y_eval = params.half_width if y is None else y
    xi = np.asarray(xi_grid, dtype=float)
    eta = np.asarray(eta_grid, dtype=float)
    x = np.asarray(x_grid, dtype=float)

    def term(m):
        mc = m[:, None]
        dphi = phi_m(y_eval, eta, mc, params) - phi_m(y_eval, -eta, mc, params)
        # one (xi, eta, x) tensor per index, formed as the sum consumes it
        return (np.einsum("i,j,k->ijk", a, b, c) / (4.0 * np.pi * (mk * mk * mk))
                for a, b, c, mk in zip(np.sin(mc * xi), dphi, np.sin(mc * x), m))

    return series_sum(term, state.m_max)


def uniform_load_profile(q, state, quad_points=32):
    """Deflection z(x, y) under the unit uniform load, by term-wise integration.

    The abscissa integral of sin(m xi) over (0, pi) is 2/m for odd m and 0
    otherwise; the ordinate integral of the coefficient uses Gauss-Legendre
    quadrature.  z is strictly positive away from the short edges.
    """
    x, y = q
    params = state.params
    l = params.half_width
    nodes, weights = np.polynomial.legendre.leggauss(quad_points)
    eta_q = nodes * l
    w_q = weights * l
    nd = np.broadcast(x, y).ndim

    def term(m):
        m = m.reshape((-1,) + (1,) * nd)
        integral = sum(w * phi_m(y, e, m, params) for e, w in zip(eta_q, w_q))
        return integral * np.sin(m * x) / (np.pi * ((m * m) * (m * m)))

    return series_sum(term, state.m_max, 2)


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
        den = (3.0 + sig) * (1.0 - e2s * e2s) / 2.0 + 2.0 * s * (1.0 - sig) * e2s
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
    constrained.  ``gamma`` is the level of symmetric guides built by
    :meth:`constant_level`, and None for other bounds.
    """

    lower: float
    upper: float
    region: str = "full"
    gamma: float | None = None

    def __post_init__(self):
        if self.region not in ("full", "long_edges"):
            raise ValueError(f"unknown obstacle region {self.region!r}")
        if not self.lower <= 0.0 <= self.upper:
            raise ValueError("obstacles must satisfy lower <= 0 <= upper")

    @classmethod
    def constant_level(cls, gamma, region="long_edges"):
        """Symmetric guides at heights -gamma and +gamma."""
        if gamma <= 0.0:
            raise ValueError(f"guide level must be positive, got {gamma}")
        return cls(lower=-gamma, upper=gamma, region=region, gamma=gamma)
