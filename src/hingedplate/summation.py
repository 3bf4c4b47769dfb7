"""Accurate summation of long series over the Fourier index, and the
quadrature sums inside their terms.

Sums with 1e5 terms must stay reproducible to ~1e-9 against arbitrary
precision oracles; plain float accumulation loses that near the tail.

Scalar series are summed exactly rounded: the result is ``math.fsum`` of
the terms, bit for bit, but most of the work is done on numpy blocks.  Each
block is cut by error-free vector extraction (Rump, Ogita & Oishi, "Accurate
floating-point summation part I: faithful rounding", SIAM J. Sci. Comput.
31(1), 2008): with every |p_i| < 2**e and sigma = 2**(e + ceil(log2 n) + 1),
``q = (sigma + p) - sigma`` and ``p - q`` are exact, and every q_i is a
multiple of 2**-53 sigma no larger than 2**e.  So every partial sum of the
q_i is such a multiple of magnitude at most n 2**e <= sigma / 2, which a
float holds exactly, in whatever order ``np.sum`` adds them.  A few such
passes leave the block as a short list of exact part sums plus its nonzero
leftovers, with the same exact sum as the block.  ``math.fsum`` returns the correctly
rounded exact sum of whatever it is given, and that value is unique, so fsum
of the parts equals fsum of the terms: a theorem, not a tolerance.
"""

import itertools
import math
import numbers

import numpy as np

#: Most term values one index block holds, so that no array spans the
#: whole index range: 4096 indices of a scalar term, fewer of an array term.
#: It also sizes the node groups of ``quadrature_sum``.
SERIES_CHUNK = 4096

#: Every summed index stays below this: the float products m * m that the
#: term formulas form are exact only there.
INDEX_LIMIT = 2 ** 26

#: Blocks with fewer values reach ``math.fsum`` as they are: fsum alone is
#: faster on blocks of up to about 400 values than the numpy passes.
EXACT_MIN = 512
#: A block with a value this large (or not finite) and every block after it
#: reach fsum as they are, so fsum sees its own overflow, inf and NaN cases
#: in order; the parts of the blocks before stay far below overflow.
_TOP = 2.0 ** 960
#: The extraction stops once sigma would fall below 2**_SIGMA_MIN_EXP, where
#: its grid of 2**-53 sigma would underflow, after _PASSES passes, or once
#: fewer than _FEW nonzero leftovers remain.
_SIGMA_MIN_EXP = -969
_PASSES = 8
_FEW = 64


def check_m_max(m_max):
    """Raise ValueError unless 1 <= m_max < INDEX_LIMIT is an integer."""
    if isinstance(m_max, bool) or not isinstance(m_max, numbers.Integral):
        raise ValueError(f"m_max must be an integer, got {m_max!r}")
    if not 1 <= m_max < INDEX_LIMIT:
        raise ValueError(f"m_max must satisfy 1 <= m_max < 2**26, got {m_max}")


class CompensatedSum:
    """Kahan-Neumaier accumulator for same-shape ndarrays."""

    def __init__(self):
        self._s = 0.0
        self._c = 0.0

    def add(self, x):
        t = self._s + x
        big = np.abs(self._s) >= np.abs(x)
        self._c += np.where(big, (self._s - t) + x, (x - t) + self._s)
        self._s = t

    @property
    def value(self):
        return self._s + self._c


def series_sum(term, m_max, step=1):
    """Sum of the terms for the indices m = 1, 1 + step, ... up to m_max.

    ``term`` maps a float array of consecutive indices to their terms, an
    array whose leading axis is the index.  Scalar terms (a 1-D array) are
    summed exactly rounded, bit for bit as ``math.fsum`` over all of them
    sums: each block goes to fsum as the exact parts of ``_exact_parts``.
    Array terms are accumulated in index order by a ``CompensatedSum``.  The
    m = 1 term is evaluated alone and sizes the blocks after it, which hold
    at most ``SERIES_CHUNK`` term values; they are summed as they come and
    never joined.  ``m_max`` must be an integer with 1 <= m_max <
    ``INDEX_LIMIT``, else ValueError.
    """
    check_m_max(m_max)
    head = term(np.ones(1))
    width = step * max(1, SERIES_CHUNK // head[0].size)
    blocks = itertools.chain([head], (
        term(np.arange(b, min(b + width, m_max + 1), step, dtype=float))
        for b in range(1 + step, m_max + 1, width)))
    if head.ndim == 1:
        return math.fsum(itertools.chain.from_iterable(_exact_parts(blocks)))
    acc = CompensatedSum()
    for row in itertools.chain.from_iterable(blocks):
        acc.add(row)
    return acc.value


def _exact_parts(blocks):
    """For each 1-D block, a list of floats with the same exact sum.

    A block of at least ``EXACT_MIN`` finite values, not all zero and all
    below ``_TOP``, is cut by extraction passes into one exact sum per pass
    plus its nonzero leftovers; any other block is listed as it is.
    """
    raw = False
    for p in blocks:
        top = float(np.max(np.abs(p)))
        raw = raw or not top < _TOP  # NaN compares False
        if raw or p.size < EXACT_MIN or top == 0.0:
            yield p.tolist()  # so a sum of negative zeros gets fsum's sign
            continue
        parts = []
        c = (p.size - 1).bit_length()  # 2**c >= n
        e = math.frexp(top)[1]  # every |p_i| < 2**e
        p = p.astype(float)  # a copy, in double precision whatever p was
        q = np.empty_like(p)
        for _ in range(_PASSES):
            s = e + c + 1
            if s < _SIGMA_MIN_EXP:
                break
            sigma = math.ldexp(1.0, s)
            np.add(p, sigma, out=q)
            q -= sigma
            p -= q
            parts.append(float(q.sum()))
            e = s - 53  # now every |p_i| <= 2**e
            if np.count_nonzero(p) < _FEW:
                break
        parts += p[p != 0.0].tolist()
        yield parts


def quadrature_sum(integrand, nodes, weights, size):
    """Sum of ``weights[k] * integrand(nodes[k])`` over a quadrature rule.

    ``nodes`` holds the rule on its leading axis.  ``integrand`` maps a group
    of consecutive nodes to their values, one row of ``size`` values per
    node on the same leading axis.  A group holds ``SERIES_CHUNK // size``
    nodes (at least one), so no array of the integrand spans more than
    ``SERIES_CHUNK`` values unless one node's row does.  The products
    accumulate in node order from 0, as the builtin ``sum`` over the nodes
    does, so each value rounds as a per-node loop rounds it.
    """
    group = max(1, SERIES_CHUNK // size)
    total = 0
    for start in range(0, len(nodes), group):
        rows = integrand(nodes[start:start + group])
        for w, row in zip(weights[start:start + group], rows):
            total = total + w * row
    return total
