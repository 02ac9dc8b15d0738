import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from impulseflow.neighbors import min_distance, radius_pairs

from oracles import min_cross_distance


def brute_pairs(a, r):
    """Every pair i < j within r by sqrt(sum(diff**2)) over all pairs."""
    near = np.sqrt(np.sum((a[:, None, :] - a[None, :, :]) ** 2, axis=2)) <= r
    return set(zip(*(idx.tolist() for idx in np.nonzero(np.triu(near, 1)))))


@st.composite
def clouds(draw, max_points=40):
    """A cloud on a lattice of step r (so neighbours lie exactly r apart),
    r / 2 or 0.3, with repeated points, optional jitter, and an offset of 0 or
    +-1e6, where the rounding of the coordinates and of the cell edges bites.
    A jitter of 1e-18 puts lattice points just either side of a cell edge
    while their differences still round to the lattice step."""
    dim = draw(st.integers(1, 3))
    r = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.1, 0.5, 1.0, 2.5]))
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    step = draw(st.sampled_from([r, r / 2, 0.3])) or 0.3
    jitter = draw(st.sampled_from([0.0, 1e-18, 1e-12, 1e-4, 0.2]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def cloud(n):
        sites = rng.integers(-3, 4, size=(draw(st.integers(1, 8)), dim))
        pts = sites[rng.integers(0, len(sites), size=n)] * step
        return offset + pts + jitter * rng.normal(size=(n, dim))

    a = cloud(draw(st.integers(0, max_points)))
    b = cloud(draw(st.integers(0, max_points)))
    return a, b, r


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
@given(clouds())
@example((np.zeros((0, 2)), np.zeros((0, 2)), 0.5))
@example((np.ones((1, 3)), np.ones((1, 3)), 0.0))
@example((np.array([[0.0], [0.5], [1.0]]), np.array([[0.25]]), 0.5))
# 0.1 - (-1e-18) rounds to 0.1, so the pair is within r although floor(x / r)
# puts its points two cells apart
@example((np.array([[-1e-18], [0.1]]), np.array([[0.1], [-1e-18]]), 0.1))
# the squared difference underflows to 0, so the pair is within r = 0
@example((np.array([[0.0, 0.0], [1e-200, 0.0]]), np.array([[1e-200, 1e-200]]), 0.0))
def test_radius_pairs_equal_brute_force(data):
    a, _, r = data
    i, j = radius_pairs(a, r)
    got = list(zip(i.tolist(), j.tolist()))
    assert len(set(got)) == len(got)  # each pair once
    assert set(got) == brute_pairs(a, r)


def test_duplicates_pair_at_zero_radius():
    pts = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0 + 1e-15], [1.0, 2.0]])
    i, j = radius_pairs(pts, 0.0)
    assert sorted(zip(i.tolist(), j.tolist())) == [(0, 1), (0, 3), (1, 3)]


def test_non_finite_points_pair_with_nothing():
    pts = np.array([[0.0, 0.0], [np.nan, 0.0], [np.inf, 0.0], [0.1, 0.0]])
    i, j = radius_pairs(pts, 10.0)
    assert list(zip(i.tolist(), j.tolist())) == [(0, 3)]


@settings(max_examples=100, deadline=None)
@given(clouds(max_points=30))
def test_min_distance_equals_oracle(data):
    a, b, _ = data
    if len(a) and len(b):
        assert min_distance(a, b) == min_cross_distance(a, b)
