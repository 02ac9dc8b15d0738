"""Exact proximity queries on point clouds.  Squared differences are summed
in coordinate order, as numpy's own sum does over fewer than eight
coordinates, so every result equals a pair-by-pair test's bit for bit."""

from itertools import product

import numpy as np

_BLOCK = 1 << 15  # candidate pairs per block, to keep temporaries small


def radius_pairs(points: np.ndarray, r: float):
    """Index arrays (i, j), i < j, of the pairs with |points[i] - points[j]| <= r,
    a block at a time (a generator), so that no more than a block of them
    need be held.

    A fixed-radius cell search (Bentley, Stanat & Williams, 1977): the points
    are sorted by cell key, with cells of side r * (1 + 1e-6) widened by the
    rounding scale of the coordinates, so that rounding cannot put a pair
    within r two cells apart.  A point meets only later points: in the rest
    of its own row's run of three cells and in the runs of the rows after its
    own.
    """
    if len(points) == 0:
        yield np.empty(0, np.int64), np.empty(0, np.int64)
        return
    xt = np.ascontiguousarray(points.T)
    ct = np.where(np.isfinite(xt), xt, 0.0)  # a non-finite point passes no test
    dim, n, low, high = len(xt), len(points), ct.min(axis=1), ct.max(axis=1)
    # The excess over r covers the rounding of the test and squares that
    # underflow; the term in max|x| keeps ct / cell below 2**50, and cells of
    # 2**(1 - 60 // dim) of the extent keep keys in int64 (to 20 coordinates).
    cell = max(r * (1 + 1e-6) + 4 * np.finfo(float).eps * np.abs([low, high]).max()
               + 1e-150, (high - low).max() / 2.0 ** (60 // dim - 1))
    k = np.floor(np.divide(ct, cell, out=ct), out=ct).astype(np.int64)
    k -= k.min(axis=1, keepdims=True) - 1
    strides = np.r_[np.cumprod(k.max(axis=1)[:0:-1] + 2)[::-1], 1]
    key = strides @ k
    del ct, k  # each as large as the cloud
    rows = np.array(list(product((-1, 0, 1), repeat=dim - 1)), np.int64) @ strides[:-1]
    rows = rows[rows >= 0]
    order = np.argsort(key)
    sorted_key, xs = key[order], xt.take(order, axis=1)
    lo = np.searchsorted(sorted_key, sorted_key[:, None] + rows - 1, side="left")
    hi = np.searchsorted(sorted_key, sorted_key[:, None] + rows + 1, side="right")
    lo[:, 0] = np.arange(1, n + 1)  # in its own row, only the later points
    q = np.repeat(np.arange(n), lo.shape[1])
    lo, count = lo.ravel(), (hi - lo).ravel()
    first = np.cumsum(count) - count
    bounds = np.r_[np.flatnonzero(np.diff(first // _BLOCK, prepend=-1)), len(count)]
    for s, e in zip(bounds[:-1], bounds[1:]):
        c = count[s:e]
        qj = np.repeat(q[s:e], c)
        xi = np.arange(c.sum()) + np.repeat(lo[s:e] - first[s:e] + first[s], c)
        # take and flatnonzero: several times faster than fancy or mask indexing
        near = np.flatnonzero(np.sqrt(_squared_distance(
            xs.take(xi, axis=1), xs.take(qj, axis=1))) <= r)
        i, j = order.take(xi.take(near)), order.take(qj.take(near))
        yield np.minimum(i, j), np.maximum(i, j)


def min_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Smallest distance between the nonempty clouds a and b, by brute force
    in row blocks."""
    step = max(1, _BLOCK // len(b))
    return float(np.sqrt(min(
        _squared_distance(a[s:s + step].T[:, :, None], b.T[:, None, :]).min()
        for s in range(0, len(a), step))))


def _squared_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d2 = (a[0] - b[0]) ** 2
    for ak, bk in zip(a[1:], b[1:]):
        d2 += (ak - bk) ** 2
    return d2
