import warnings

import numpy as np
import pytest

from impulseflow import (
    GridPartition,
    birkhoff_average,
    build_fixture,
    impulsive_trajectory,
    occupation_measure,
    pushforward_discrepancy,
)
from conftest import polar
from oracles import arc_cell_weights, occupation_reference


@pytest.fixture(scope="module")
def annulus_run(annulus):
    # one long orbit reused by several tests
    return impulsive_trajectory(annulus, polar(1.5, np.pi / 2), 1000.0, 0.01)


@pytest.fixture(scope="module")
def square_grid():
    return GridPartition(lo=(-2, -2), hi=(2, 2), bins=(40, 40))


class TestGridPartition:
    def test_cells_partition_box(self):
        g = GridPartition(lo=(0, 0), hi=(1, 2), bins=(2, 4))
        assert g.n_cells == 8
        assert g.cell_of(np.array([0.1, 0.1]))[0] == 0
        assert g.cell_of(np.array([[1.0, 2.0]]))[0] == 7  # top corner included
        assert g.cell_of(np.array([[1.5, 0.5]]))[0] == -1

    def test_validation(self):
        with pytest.raises(ValueError):
            GridPartition(lo=(0, 1), hi=(1, 1), bins=(2, 2))
        with pytest.raises(ValueError):
            GridPartition(lo=(0,), hi=(1,), bins=(0,))
        with pytest.raises(ValueError):
            GridPartition(lo=(-np.inf,), hi=(np.inf,), bins=(10,))

    @pytest.mark.parametrize("bins", [(2.5,), (2.0,), (True,), (np.bool_(True),)])
    def test_bins_must_be_integers(self, bins):
        # int() would truncate these to 2 or 1 bins
        with pytest.raises(ValueError, match="bins"):
            GridPartition(lo=(0,), hi=(1,), bins=bins)

    def test_numpy_integer_bins_accepted(self):
        assert GridPartition(lo=(0,), hi=(1,), bins=(np.int64(3),)).bins == (3,)

    def test_centers_and_indices_align(self):
        g = GridPartition(lo=(0, 0), hi=(1, 1), bins=(3, 3))
        centers = g.cell_centers()
        assert np.array_equal(g.cell_of(centers), np.arange(9))


class TestOccupationMeasure:
    def test_fixed_point_gives_dirac(self):
        static = build_fixture("static_null")
        traj = impulsive_trajectory(static, np.array([0.3, 0.7]), 50.0, 0.1)
        grid = GridPartition(lo=(0, 0), hi=(1, 1), bins=(5, 5))
        mu = occupation_measure(traj, grid, burn_in=5.0)
        assert np.isclose(mu.weights.max(), 1.0)
        assert (mu.weights > 0).sum() == 1

    def test_weights_normalized_nonnegative(self, annulus_run, square_grid):
        mu = occupation_measure(annulus_run, square_grid, burn_in=100.0)
        assert abs(mu.weights.sum() - 1.0) <= 1e-12
        assert (mu.weights >= 0).all()
        assert mu.escaped_frac == 0.0

    def test_limit_is_uniform_arc_measure(self, annulus_run, square_grid):
        # transients decay geometrically, so past burn-in the orbit is the
        # unit lower half-circle traversed at unit speed
        mu = occupation_measure(annulus_run, square_grid, burn_in=100.0)
        tv = 0.5 * np.abs(mu.weights - arc_cell_weights(40)).sum()
        assert tv <= 0.05

    def test_angular_cells_equal_shares(self, annulus):
        # eight equal sectors of the lower half-circle get 1/8 each: compare
        # through the angular histogram of the occupation measure
        traj = impulsive_trajectory(annulus, polar(1.5, np.pi / 2), 500.0, 0.01)
        grid = GridPartition(lo=(-2, -2), hi=(2, 2), bins=(80, 80))
        mu = occupation_measure(traj, grid, burn_in=60.0)
        centers = grid.cell_centers()
        ang = np.mod(np.arctan2(centers[:, 1], centers[:, 0]), 2 * np.pi)
        sector = ((ang - np.pi) / (np.pi / 8)).astype(int)
        shares = np.array([mu.weights[(sector == k) & (ang >= np.pi)].sum()
                           for k in range(8)])
        assert np.abs(shares - 1 / 8).max() < 0.01

    def test_escape_detected(self, annulus_run):
        small = GridPartition(lo=(-0.5, -0.5), hi=(0.5, 0.5), bins=(4, 4))
        with pytest.raises(ValueError, match="escaped"):
            occupation_measure(annulus_run, small, burn_in=100.0)

    def test_burn_in_validation(self, annulus_run, square_grid):
        with pytest.raises(ValueError):
            occupation_measure(annulus_run, square_grid, burn_in=1000.0)

    def test_weights_equal_add_at_reference(self, annulus_run, square_grid):
        mu = occupation_measure(annulus_run, square_grid, burn_in=100.0)
        weights, escaped_frac = occupation_reference(annulus_run, square_grid, 100.0)
        assert np.array_equal(mu.weights, weights)
        assert mu.escaped_frac == escaped_frac == 0.0

    def test_sliver_escape_is_reported(self, annulus_run):
        # past burn-in the orbit lies on the lower unit half-circle: a box
        # floor 1e-7 above its bottom clips a sliver of arc near (0, -1)
        grid = GridPartition(lo=(-2, -1 + 1e-7), hi=(2, 2), bins=(40, 40))
        mu = occupation_measure(annulus_run, grid, burn_in=100.0)
        weights, escaped_frac = occupation_reference(annulus_run, grid, 100.0)
        assert 0 < mu.escaped_frac < 1e-3
        assert mu.escaped_frac == escaped_frac
        assert np.array_equal(mu.weights, weights)


class TestPushforwardDiscrepancy:
    def test_fixed_point_zero(self):
        static = build_fixture("static_null")
        traj = impulsive_trajectory(static, np.array([0.3, 0.7]), 50.0, 0.1)
        grid = GridPartition(lo=(0, 0), hi=(1, 1), bins=(5, 5))
        assert pushforward_discrepancy(traj, grid, 1.0, burn_in=5.0) == 0.0

    def test_period_aligned_windows_vanish(self, annulus, square_grid):
        # the limit orbit has period pi: shifting by a whole period leaves
        # the window measure unchanged up to sampling error
        traj = impulsive_trajectory(annulus, polar(1.0, np.pi), 400.0, 0.01)
        disc = pushforward_discrepancy(traj, square_grid, np.pi, burn_in=10.0)
        assert disc < 2e-3

    def test_generic_shift_small(self, annulus_run, square_grid):
        disc = pushforward_discrepancy(annulus_run, square_grid, 1.0,
                                       burn_in=100.0)
        assert disc <= 0.02

    def test_decays_with_horizon(self, annulus, square_grid):
        values = {}
        for T in (250.0, 500.0, 1000.0):
            traj = impulsive_trajectory(annulus, polar(1.5, np.pi / 2), T, 0.01)
            values[T] = pushforward_discrepancy(traj, square_grid, 1.0)
        assert values[500.0] <= 0.75 * values[250.0] + 1e-3
        assert values[1000.0] <= 0.75 * values[500.0] + 1e-3

    def test_shift_validation(self, annulus_run, square_grid):
        with pytest.raises(ValueError):
            pushforward_discrepancy(annulus_run, square_grid, 200.0)

    def test_burn_in_validation(self, annulus_run, square_grid):
        for burn_in in (1000.0, 1001.0):
            with pytest.raises(ValueError, match="burn_in"):
                pushforward_discrepancy(annulus_run, square_grid, 1.0, burn_in)

    def test_escape_detected(self, annulus_run):
        small = GridPartition(lo=(-0.5, -0.5), hi=(0.5, 0.5), bins=(4, 4))
        with pytest.raises(ValueError, match="escaped"):
            pushforward_discrepancy(annulus_run, small, 1.0, burn_in=100.0)


class TestBirkhoffAverage:
    def test_constant_observable(self, annulus_run):
        assert birkhoff_average(annulus_run, lambda x: np.ones(len(x)), 100.0) == 1.0

    def test_cell_indicators_equal_occupation_weights(self, annulus_run,
                                                      square_grid):
        mu = occupation_measure(annulus_run, square_grid, 100.0)
        occupied = np.flatnonzero(mu.weights)
        assert len(occupied) > 1
        for flat in occupied:
            via_obs = birkhoff_average(
                annulus_run, lambda x: (square_grid.cell_of(x) == flat) * 1.0, 100.0)
            assert abs(via_obs - mu.weights[flat]) <= 1e-12 * mu.weights[flat]

    def test_radius_settles_to_one(self, annulus_run):
        radius = birkhoff_average(annulus_run, lambda x: np.hypot(x[:, 0], x[:, 1]),
                                  100.0)
        assert abs(radius - 1.0) <= 1e-3

    def test_coordinate_observable(self, annulus_run):
        # lower half-circle: mean of x over arc length is zero by symmetry
        assert abs(birkhoff_average(annulus_run, lambda x: x[:, 0], 100.0)) < 0.01

    def test_burn_in_validation(self, annulus_run):
        # a window of one sample, or of none, is rejected, not averaged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for burn_in in (1000.0, 1001.0):
                with pytest.raises(ValueError, match="burn_in"):
                    birkhoff_average(annulus_run, lambda x: x[:, 0], burn_in)

    def test_observable_gives_one_value_per_state(self, annulus_run):
        with pytest.raises(ValueError, match="one value per state"):
            birkhoff_average(annulus_run, lambda x: x[:, :1], 100.0)
