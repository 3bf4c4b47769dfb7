"""Accurate summation of long series over the Fourier index, and the
quadrature sums inside their terms.

Sums with 1e5 terms must stay reproducible to ~1e-9 against arbitrary
precision oracles; plain float accumulation loses that near the tail.
"""

import itertools
import math

import numpy as np

#: Most term values one index block holds, so that no array spans the
#: whole index range: 4096 indices of a scalar term, fewer of an array term.
#: It also sizes the node groups of ``quadrature_sum``.
SERIES_CHUNK = 4096


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
    summed exactly rounded by ``math.fsum``; array terms are accumulated in
    index order by a ``CompensatedSum``.  The m = 1 term is evaluated alone
    and sizes the blocks after it, which hold at most ``SERIES_CHUNK`` term
    values.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    head = term(np.ones(1))
    width = step * max(1, SERIES_CHUNK // head[0].size)
    blocks = itertools.chain([head], (
        term(np.arange(b, min(b + width, m_max + 1), step, dtype=float))
        for b in range(1 + step, m_max + 1, width)))
    if head.ndim == 1:
        return math.fsum(itertools.chain.from_iterable(b.tolist() for b in blocks))
    acc = CompensatedSum()
    for row in itertools.chain.from_iterable(blocks):
        acc.add(row)
    return acc.value


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
