"""Exact proximity queries on point clouds.  Squared differences are summed
in coordinate order, as numpy's own sum does over fewer than eight
coordinates, so every result equals a pair-by-pair test's bit for bit."""

from itertools import product

import numpy as np

_BLOCK = 1 << 15  # candidate pairs per block, to keep temporaries small


def radius_pairs(points: np.ndarray, r: float, others: np.ndarray | None = None):
    """Index arrays (i, j) of the pairs with |points[i] - y[j]| <= r, where y
    is ``others`` (faster as the smaller cloud), or ``points`` with i < j.

    A fixed-radius cell search (Bentley, Stanat & Williams, 1977): ``points``
    is sorted by cell key, with cells of side r * (1 + 1e-6) widened by the
    rounding scale of the coordinates, so that rounding cannot put a pair
    within r two cells apart.  Per neighbouring row of cells a query meets
    one run of three cells; a point of ``points`` meets only later points:
    in the rest of its own row's run and in the rows after its own.
    """
    y = points if others is None else others
    if len(points) == 0 or len(y) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    xt = np.ascontiguousarray((points if others is None else np.concatenate([points, y])).T)
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
    del ct, k  # each as large as the clouds: a 70k-point tube takes 1.7 MB a copy
    rows = np.array(list(product((-1, 0, 1), repeat=dim - 1)), np.int64) @ strides[:-1]
    order = np.argsort(key[:n])
    sorted_key, xs = key[order], xt.take(order, axis=1)
    if others is None:
        q_key, q_pts, q_ids, rows = sorted_key, xs, order, rows[rows >= 0]
    else:
        q_key, q_pts, q_ids = key[n:], xt[:, n:], np.arange(len(y))
    lo = np.searchsorted(sorted_key, q_key[:, None] + rows - 1, side="left")
    hi = np.searchsorted(sorted_key, q_key[:, None] + rows + 1, side="right")
    if others is None:  # in its own row, a point meets the later points only
        lo[:, 0] = np.arange(1, n + 1)
    q = np.repeat(np.arange(len(q_key)), lo.shape[1])
    lo, count = lo.ravel(), (hi - lo).ravel()
    first = np.cumsum(count) - count
    bounds = np.r_[np.flatnonzero(np.diff(first // _BLOCK, prepend=-1)), len(count)]
    found = []
    for s, e in zip(bounds[:-1], bounds[1:]):
        c = count[s:e]
        qj = np.repeat(q[s:e], c)
        xi = np.arange(c.sum()) + np.repeat(lo[s:e] - first[s:e] + first[s], c)
        # take and flatnonzero: several times faster than fancy or mask indexing
        near = np.flatnonzero(np.sqrt(_squared_distance(
            xs.take(xi, axis=1), q_pts.take(qj, axis=1))) <= r)
        found.append((order.take(xi.take(near)), q_ids.take(qj.take(near))))
    i, j = map(np.concatenate, zip(*found))
    return (np.minimum(i, j), np.maximum(i, j)) if others is None else (i, j)


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
