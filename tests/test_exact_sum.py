"""The scalar path of ``series_sum`` against ``math.fsum``, bit for bit.

Scalar series are summed by exact extraction passes over numpy blocks
(``summation._exact_parts``); fsum of the parts must give the bits that
fsum of the terms gives, for every input: the same ``float.hex``, or the
same exception type.  The inputs are seeded and built so that the block
edges, the leftover path, rounding ties and the raw guards are all reached.
"""

import math
import tracemalloc

import numpy as np
import pytest

from hingedplate.summation import (EXACT_MIN, INDEX_LIMIT, SERIES_CHUNK,
                                   _exact_parts, series_sum)

RNG_SEED = 20261020


def _fsum_of(values):
    """fsum's value of ``values`` as hex, or the type of what it raises."""
    try:
        return math.fsum(values).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _series(values):
    """``series_sum`` over a term that gives values[m - 1], as fsum reports it.

    The term checks that no block of indices or of terms exceeds
    ``SERIES_CHUNK`` values.
    """
    values = np.asarray(values, dtype=float)

    def term(m):
        assert m.size <= SERIES_CHUNK
        out = values[m.astype(np.int64) - 1]
        assert out.size <= SERIES_CHUNK
        return out

    try:
        return series_sum(term, values.size).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _blocks_of(values):
    """The blocks ``series_sum`` forms over ``values``: the head, then chunks."""
    values = np.asarray(values, dtype=float)
    return [values[:1]] + [values[b:b + SERIES_CHUNK]
                           for b in range(1, values.size, SERIES_CHUNK)]


def _assert_same(values):
    want = _fsum_of(list(values))
    assert _series(values) == want
    for block in _blocks_of(values):
        parts = list(_exact_parts([block]))
        assert len(parts) == 1
        assert _fsum_of(parts[0]) == _fsum_of(block.tolist())


def _signed(rng, magnitudes):
    return magnitudes * rng.choice([-1.0, 1.0], size=magnitudes.size)


def _wide(rng, n, top=288):
    """Magnitudes from 1e-300 to 10**top with mixed signs; up to 1e288 a
    block stays below 2**960 and is extracted."""
    return _signed(rng, 10.0 ** rng.uniform(-300, top, n))


def _tie(base, half_ulp, rng, n, nudge=0.0):
    """Values whose exact sum is base + half_ulp + nudge, padded with pairs
    v, -v of mixed magnitudes that cancel exactly, shuffled."""
    pads = _signed(rng, 10.0 ** rng.uniform(-20, 20, (n - 3) // 2))
    values = np.concatenate([[base, half_ulp, nudge], pads, -pads])
    rng.shuffle(values)
    return values


def _cases():
    rng = np.random.default_rng(RNG_SEED)
    n = 3 * SERIES_CHUNK + 7
    cancel = _signed(rng, rng.uniform(0.5, 1.0, n // 2) * 2.0 ** rng.integers(-60, 60, n // 2))
    subnormal = _signed(rng, rng.integers(1, 2 ** 40, n) * 2.0 ** -1074)
    # one block's partial sums fill the 53 bits above the grid of its
    # extraction, and the next block cancels it in another order
    full = rng.uniform(0.75, 1.0, SERIES_CHUNK) * 2.0 ** 40
    return {
        "wide": _wide(rng, n),
        "wide-two-blocks": _wide(rng, SERIES_CHUNK + 1),
        "wide-to-1e300": _wide(rng, n, top=300),
        "positive": rng.uniform(0.75, 1.0, n) * 2.0 ** 40,
        "positive-then-negated": np.concatenate([[1.0], full, -rng.permutation(full)]),
        "smooth": 1.0 / np.arange(1.0, n + 1) ** 3,
        "alternating": np.sin(np.arange(1.0, n + 1) * 2.0) / np.arange(1.0, n + 1),
        "subnormal": subnormal,
        "subnormal-and-normal": np.concatenate([subnormal, _wide(rng, 100)]),
        "smallest-normals": _signed(rng, rng.uniform(1.0, 2.0, n) * 2.0 ** -1022),
        "cancel-to-zero": rng.permutation(np.concatenate([cancel, -cancel])),
        "tie-to-even-down": _tie(1.0, 2.0 ** -53, rng, n),
        "tie-to-even-up": _tie(1.0 + 2.0 ** -52, 2.0 ** -53, rng, n),
        "tie-broken-up": _tie(1.0, 2.0 ** -53, rng, n, 2.0 ** -1000),
        "tie-broken-down": _tie(1.0, 2.0 ** -53, rng, n, -2.0 ** -1000),
        "tie-subnormal-nudge": _tie(1.0, 2.0 ** -53, rng, n, 2.0 ** -1074),
        "one-value": np.array([0.1]),
        "below-threshold": _wide(rng, EXACT_MIN - 1),
        "at-threshold": _wide(rng, EXACT_MIN + 1),
        "short-tail-block": _wide(rng, SERIES_CHUNK + EXACT_MIN),
        "all-zero": np.zeros(n),
        "negative-zeros": np.full(SERIES_CHUNK + 1, -0.0),
        "mixed-zeros": rng.choice([0.0, -0.0], n),
        "zero-block-then-values": np.concatenate([np.zeros(SERIES_CHUNK + 1),
                                                  _wide(rng, 100)]),
    }


def _with(values, index, *new):
    values = np.array(values, dtype=float)
    values[index:index + len(new)] = new
    return values


def _special_cases():
    rng = np.random.default_rng(RNG_SEED + 1)
    base = _wide(rng, 3 * SERIES_CHUNK + 7)
    later = 2 * SERIES_CHUNK + 100
    return {
        "inf": _with(base, later, math.inf),
        "minus-inf": _with(base, later, -math.inf),
        "nan": _with(base, later, math.nan),
        "inf-minus-inf": _with(base, later, math.inf, -math.inf),
        "inf-in-head": _with(base, 0, math.inf),
        "nan-and-inf": _with(base, 5, math.nan, math.inf),
        "huge-cancelling": _with(base, later, 2.0 ** 1000, -2.0 ** 1000),
        "at-2-960": _with(base, later, 2.0 ** 960),
        "huge-overflow": _with(base, later, 1e308, 1e308, -1e308),
        "huge-then-inf": _with(_with(base, 50, 1.7e308, 1.7e308), later, math.inf),
        "max-then-small": _with(base, SERIES_CHUNK, 1.7976931348623157e308),
        "max-then-excursion": _excursion(),
    }


def _excursion():
    """The largest float, then a block of values below 2**960 whose running
    sum climbs past the overflow threshold and comes back: fsum raises on the
    way up, so that block must reach it raw, in order."""
    half = SERIES_CHUNK // 2
    step = 1.9 * 2.0 ** 959
    return np.concatenate([[1.0, 1.7976931348623157e308], np.zeros(SERIES_CHUNK - 1),
                           np.full(half, step), np.full(half, -step)])


@pytest.mark.parametrize("name", sorted(_cases()))
def test_scalar_series_matches_fsum_bits(name):
    _assert_same(_cases()[name])


@pytest.mark.parametrize("name", sorted(_special_cases()))
def test_non_finite_and_huge_terms_match_fsum(name):
    _assert_same(_special_cases()[name])


@pytest.mark.parametrize("name", ["huge-then-inf", "max-then-excursion"])
def test_guards_reach_fsum_in_order(name):
    # fsum raises on an intermediate overflow before it meets a later inf or
    # the values that bring the sum back: the raw values from the first huge
    # block on must reach it in their order
    values = _special_cases()[name]
    assert _fsum_of(list(values)) is OverflowError
    assert _series(values) is OverflowError


def test_ties_round_half_to_even():
    cases = _cases()
    assert _series(cases["tie-to-even-down"]) == (1.0).hex()
    assert _series(cases["tie-to-even-up"]) == (1.0 + 2.0 ** -51).hex()
    assert _series(cases["tie-broken-up"]) == (1.0 + 2.0 ** -52).hex()
    assert _series(cases["tie-broken-down"]) == (1.0).hex()
    assert _series(cases["cancel-to-zero"]) == (0.0).hex()


def test_blocks_are_summed_as_they_come():
    # 64 blocks of terms: one array joining them would hold 2 MB, their
    # list of floats 8 MB; the sum keeps a few blocks alive at a time
    rng = np.random.default_rng(RNG_SEED + 2)
    values = _wide(rng, 64 * SERIES_CHUNK + 1)
    tracemalloc.start()
    try:
        got = _series(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == _fsum_of(values.tolist())
    assert peak < 16 * SERIES_CHUNK * values.itemsize


def test_index_limit():
    def term(m):
        raise AssertionError("no term may be formed past the index limit")

    for m_max in (INDEX_LIMIT, 10 ** 400, 2.5, 200.0, True, 0):
        with pytest.raises(ValueError):
            series_sum(term, m_max)
