import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from impulseflow import (
    IntegratorConfig,
    ImpulsiveSetSpec,
    LinearLevel,
    RadiusLevel,
    apply_impulse,
    build_fixture,
    candidate_cloud,
    eval_vector_field,
    first_hitting_time,
    flow,
    impulse_preimages,
    impulsive_trajectory,
    impulsive_trajectory_batch,
    psi,
    psi_batch,
)
from impulseflow.flow_core import (
    _TO_BERNSTEIN, BatchStepper, RegionEscape, dense_bernstein, dense_eval)
from impulseflow import impulsive_system
from impulseflow.impulsive_system import (
    _COINCIDE_TOL,
    _ROUNDING,
    _SAMPLE_BLOCK,
    _TIME_TOL,
    AmbiguousCrossing,
    GapUnderflow,
    RunStats,
    _BatchRun,
    _centring,
    _first_crossings,
    _first_hits,
    _isolate,
    _newton_roots,
    _propagate,
    _split,
    hit_times_batch,
)
from conftest import polar
from oracles import _RootScan, _first_trial, annulus_impulse_schedule, reference_evaluate

COORD0 = LinearLevel((1.0, 0.0))
COORD1 = LinearLevel((0.0, 1.0))


def _translate(offset):
    """The impulse x -> x + offset and its preimage, as SystemSpec fields."""
    offset = np.asarray(offset, dtype=float)
    return {"impulse": lambda x, piece: x + offset,
            "preimages": lambda p: [p - offset]}


class TestFirstHittingTime:
    def test_annulus_from_upper_quadrant(self, annulus):
        tau, hit = first_hitting_time(annulus, polar(1.5, np.pi / 2), 10.0)
        assert abs(tau - 1.5 * np.pi) < 1e-10
        assert np.allclose(hit, [1.5, 0.0], atol=1e-9)

    def test_annulus_from_image_point(self, annulus):
        tau, _ = first_hitting_time(annulus, np.array([-1.25, 0.0]), 10.0)
        assert abs(tau - np.pi) < 1e-10

    @pytest.mark.filterwarnings("error")
    def test_huge_t_max_overflows_nothing(self, annulus):
        # no step comes near the horizon, so its remaining time is never
        # divided by a step
        tau, _ = first_hitting_time(annulus, polar(1.5, 4.0), 1e308)
        assert abs(tau - (2 * np.pi - 4.0)) < 1e-10

    def test_prey_predator_below_plane_never_hits(self, prey_predator):
        # the coordinate sum only decreases, so the plane is unreachable
        assert first_hitting_time(prey_predator, np.array([0.2, 0.3, 0.3]), 30.0) is None

    def test_prey_predator_between_planes(self, prey_predator):
        tau, hit = first_hitting_time(prey_predator, np.array([0.6, 0.5, 0.4]), 30.0)
        assert tau > 0
        assert abs(hit.sum() - 1.0) < 1e-9

    def test_constraint_filtered_crossings_are_skipped(self):
        # impulsive segment restricted to x in [1.2, 1.4]: an orbit of radius
        # 1.1 crosses the level but never inside the window
        narrow = dataclasses.replace(
            build_fixture("annulus"),
            impulsive_sets=(ImpulsiveSetSpec(
                COORD1, 0.0,
                halfspaces=(((1.0, 0.0), 1.2), ((-1.0, 0.0), -1.4)),
                direction=+1),),
            image_sets=(ImpulsiveSetSpec(
                COORD1, 0.0,
                halfspaces=(((1.0, 0.0), -1.2), ((-1.0, 0.0), 1.1)),),),
        )
        assert first_hitting_time(narrow, polar(1.1, 0.5), 20.0) is None
        tau, _ = first_hitting_time(narrow, polar(1.3, 0.5), 20.0)
        assert abs(tau - (2 * np.pi - 0.5)) < 1e-9

    def test_t_max_validation(self, annulus):
        with pytest.raises(ValueError):
            first_hitting_time(annulus, polar(1.5, 1.0), 0.0)


def _along_step(level, c, B):
    """A level form's Bernstein coefficients along the steps with the
    interpolant coefficients ``B``, and their rounding bound, as
    ``_first_crossings`` computes them."""
    b, scale = level.form_along_step(B, c)
    return b, _ROUNDING * (len(b) - 1) * scale


def _isolated(b, eps, min_width, direction=0):
    """``_isolate``'s brackets, subdivisions and stuck positions, inf where
    a column is not stuck."""
    found, subdivisions, stuck = _isolate(b, eps, min_width, direction)
    return found, subdivisions, np.full(b.shape[1], np.inf) if stuck is None else stuck


def _first_brackets(b, eps, min_width, direction=0):
    """``_isolate``'s first bracket of each column that has one: (cols, lo,
    hi, f_lo, f_hi); with its subdivisions and stuck positions."""
    found, subdivisions, stuck = _isolated(b, eps, min_width, direction)
    _, first = np.unique(found[0], return_index=True)
    return tuple(a[first] for a in found), subdivisions, stuck


class TestBracketedRoots:
    """``_newton_roots`` on polynomials in powers of (s - 1/2)."""

    TOL = 1e-11

    @staticmethod
    def _solve(columns, a, b, tol):
        """The roots of the polynomials with the centred coefficients
        ``columns`` (lowest power first, zero-padded to one length) in the
        brackets [a, b]."""
        q = np.zeros((max(map(len, columns)), len(columns)))
        for k, col in enumerate(columns):
            q[:len(col), k] = col
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        ends = [np.polynomial.polynomial.polyval(x - 0.5, q, tensor=False) for x in (a, b)]
        return _newton_roots(q, a, b, *ends, tol)

    def test_roots_within_tolerance(self):
        # a linear, a curved (degree-7 Taylor polynomial of expm1(3 (s - r)),
        # whose only root is r), and a flat-then-steep level ((s / r)^25 - 1:
        # Newton's step from the flat side leaves the bracket, and bisection
        # must shrink it)
        x = np.polynomial.Polynomial([0.5, 1.0])     # s, in powers of s - 1/2
        r = np.array([0.3, 0.61, 0.9])
        curved = sum(((3 * (x - r[1])) ** j / math.factorial(j) for j in range(1, 8)),
                     0 * x)
        steep = (x / r[2]) ** 25 - 1.0
        roots, passes = self._solve([(x - r[0]).coef, curved.coef, steep.coef],
                                    np.zeros(3), np.ones(3), self.TOL)
        assert np.abs(roots - r).max() <= self.TOL
        assert passes <= 3 * 37

    def test_exact_zero_is_returned(self):
        roots, passes = self._solve([[0.25, 1.0]], [0.0], [1.0], self.TOL)
        assert roots[0] == 0.25 and passes == 1

    def test_zero_at_bracket_end(self):
        # an exact zero at the step end counts as the crossing
        roots, _ = self._solve([[-0.5, 1.0]], [0.25], [1.0], self.TOL)
        assert 1.0 - self.TOL <= roots[0] <= 1.0

    @staticmethod
    def _crossing_form(seed, level):
        """A level form along one random step, as in ``test_rounding_bound_holds``,
        with its value taken on at a random fraction of the step: the step,
        the value, the form's Bernstein coefficients on the step and their
        rounding bound."""
        rng = np.random.default_rng(seed)
        y0 = rng.normal(size=(1, 3))
        F = rng.normal(size=(7, 1, 3)) * np.array([1.0, 0.3, 0.1, 0.03, 0.01, 0.003,
                                                   0.001])[:, None, None]
        lvl = RadiusLevel() if level == "radius" else LinearLevel(level)
        c = float(lvl.value(dense_eval(y0, F, rng.uniform(0.05, 0.95, 1)))[0])
        b, eps = _along_step(lvl, c, dense_bernstein(y0, F))
        return y0[0], F[:, 0], c, b[:, 0], eps[0]

    @staticmethod
    def _polish(b, eps, tol):
        """The earliest root of each column of ``b`` as ``_first_crossings``
        locates it: bracketed by ``_isolate``, then polished."""
        (rows, lo, hi, f_lo, f_hi), _, _ = _first_brackets(b, eps, np.full(b.shape[1], 1e-12))
        q = _centring(len(b) - 1) @ b
        return rows, _newton_roots(q[:, rows], lo, hi, f_lo, f_hi, tol[rows])[0]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           level=st.sampled_from([(0.0, 1.0, 0.0), (1.0, 1.0, 1.0), (0.6, -0.8, 0.0),
                                  (-0.35, 2.5, -1.25), "radius"]))
    def test_root_brackets_an_exact_sign_change(self, seed, level):
        # against the form in exact rationals: at a transversal crossing (a
        # slope of at least 1% of the form's magnitude scale), the form
        # changes sign within _TIME_TOL of the located root
        y0, F, c, b, eps = self._crossing_form(seed, level)
        rows, roots = self._polish(b[:, None], np.array([eps]), np.array([_TIME_TOL]))
        assume(len(rows))
        exact = _exact_form_coefficients(level, c, y0, F, 0.0, 1.0)
        n = len(exact) - 1

        def p(s, coef=exact):
            m = len(coef) - 1
            return sum(math.comb(m, i) * s ** i * (1 - s) ** (m - i) * x
                       for i, x in enumerate(coef))

        root, tol = Fraction(float(roots[0])), Fraction(_TIME_TOL)
        slope = p(root, [n * (y - x) for x, y in zip(exact, exact[1:])])
        assume(abs(slope) >= 0.01 * eps / (_ROUNDING * n))
        assert p(root - tol) * p(root + tol) <= 0

    @settings(max_examples=30, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=2, max_size=6),
           form=st.sampled_from(["linear level", "radius", "steep"]),
           scales=st.lists(st.floats(0.01, 100.0), min_size=6, max_size=6))
    def test_each_member_gets_its_own_bits(self, seeds, form, scales):
        # a batch of forms, each with its own tolerance, solved together and
        # one by one: the same bits.  "steep" puts the flat-then-steep form of
        # test_roots_within_tolerance beside linear ones: it needs many more
        # passes, and the columns that finish first run on, unread
        tol = _TIME_TOL * np.array(scales[:len(seeds)])
        if form == "steep":
            x = np.polynomial.Polynomial([0.5, 1.0])     # s, in powers of s - 1/2
            rng = np.random.default_rng(seeds)
            r = np.r_[rng.uniform(0.7, 0.95), rng.uniform(0.1, 0.9, len(seeds) - 1)]
            columns = [((x / r[0]) ** 25 - 1.0).coef, *((x - ri).coef for ri in r[1:])]
            q = np.zeros((26, len(seeds)))
            for k, col in enumerate(columns):
                q[:len(col), k] = col
            lo, hi = np.zeros(len(seeds)), np.ones(len(seeds))
            f_lo, f_hi = (np.polynomial.polynomial.polyval(s - 0.5, q, tensor=False)
                          for s in (lo, hi))
        else:
            forms = [self._crossing_form(seed, "radius" if form == "radius"
                                         else (0.6, -0.8, 0.0)) for seed in seeds]
            b = np.stack([f[3] for f in forms], axis=1)
            eps = np.array([f[4] for f in forms])
            (rows, lo, hi, f_lo, f_hi), _, _ = _first_brackets(
                b, eps, np.full(len(seeds), 1e-12))
            q, tol = (_centring(len(b) - 1) @ b)[:, rows], tol[rows]
        together, _ = _newton_roots(q, lo, hi, f_lo, f_hi, tol)
        passes = []
        for k in range(q.shape[1]):
            alone, n = _newton_roots(q[:, [k]], lo[[k]], hi[[k]], f_lo[[k]],
                                     f_hi[[k]], tol[[k]])
            assert alone[0] == together[k]
            passes.append(n)
        if form == "steep":
            assert passes[0] > 2 * max(passes[1:])


def _bernstein_from_roots(roots, positive, scale):
    """Bernstein coefficients of scale * prod(u - r) * g(u), with g the
    polynomial of the Bernstein coefficients ``positive`` (all > 0)."""
    b = np.asarray(positive, dtype=float)
    for r in roots:
        # (u - r) = -r (1 - u) + (1 - r) u, and degree elevation by one
        n = len(b) - 1
        k = np.arange(n + 2)
        up = np.zeros(n + 2)
        up[:-1] += -r * b * (n + 1 - k[:-1]) / (n + 1)
        up[1:] += (1 - r) * b * k[1:] / (n + 1)
        b = up
    return scale * b


def _scan_earliest(b, direction=0, min_width=1e-12):
    """The earliest root of the Bernstein polynomial b (n + 1,) by
    ``_isolate`` and ``_newton_roots``; (root or None, stuck position before
    it)."""
    b = np.asarray(b, dtype=float)[:, None]
    eps = np.array([_ROUNDING * (len(b) - 1) * np.abs(b).max()])
    (rows, lo, hi, f_lo, f_hi), _, stuck = _first_brackets(b, eps, np.array([min_width]),
                                                          direction)
    if not len(rows):
        return None, stuck[0]
    # a column sticks only past its last bracket
    u, _ = _newton_roots(_centring(len(b) - 1) @ b, lo, hi, f_lo, f_hi, 1e-12)
    return u[0], np.inf


class TestRootScan:
    """Isolation of the earliest root on Bernstein coefficients."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_planted_earliest_root_is_found(self, data):
        # simple roots at least 0.01 apart, optionally a pair 1e-6 apart,
        # times a factor with positive coefficients, to degree 7; the scan
        # may stop at the pair only when the polynomial between its roots
        # is within 100 rounding bounds of zero there, where no verdict on
        # the rounded coefficients can separate them
        simple = data.draw(st.lists(st.floats(0.02, 0.98), max_size=3))
        pair = data.draw(st.one_of(st.none(), st.floats(0.02, 0.97)))
        spots = sorted(simple + ([pair] if pair is not None else []))
        assume(all(b - a >= 0.01 for a, b in zip(spots, spots[1:])))
        roots = sorted(simple + ([pair, pair + 1e-6] if pair is not None else []))
        positive = data.draw(st.lists(st.floats(0.5, 2.0), min_size=8 - len(roots),
                                      max_size=8 - len(roots)))
        sign = data.draw(st.sampled_from([-1.0, 1.0]))
        direction = data.draw(st.sampled_from([-1, 0, 1]))
        b = _bernstein_from_roots(roots, positive, sign)
        norm = np.abs(b).max()
        b /= norm
        eps = _ROUNDING * 7

        def factors(u, skip=()):
            return abs(np.prod([u - q for q in roots if q not in skip])) / norm

        # the crossing direction at each root is the sign of p' there
        slope = [sign * np.prod([r - q for q in roots if q != r]) for r in roots]
        allowed = [r for r, d in zip(roots, slope) if direction * d >= 0]
        root, stuck = _scan_earliest(b, direction)
        if not allowed:
            assert root is None and stuck == np.inf
            return
        want = allowed[0]
        if stuck < np.inf:
            depth = factors(pair + 5e-7) * min(positive)
            assert pair is not None and want >= pair and depth <= 100 * eps
            assert pair - 1e-5 < stuck <= pair + 1e-6
            return
        # rounding the coefficients (to ~1e-16 of the largest, 1) moves the
        # root by up to ~1e-16 / |p'|, and |p'| >= dp there
        dp = factors(want, skip=(want,)) * min(positive)
        assert root is not None
        assert abs(root - want) <= 1e-12 + 1e-14 / dp

    @pytest.mark.parametrize("gap", [0.0, 1e-10])
    def test_near_double_root_is_stuck_or_located(self, gap):
        # roots this close cannot be told apart within the rounding bound:
        # the scan stops at them, or finds a root of the pair
        b = _bernstein_from_roots([0.3, 0.3 + gap], np.ones(6), 1.0)
        root, stuck = _scan_earliest(b)
        if root is None:
            assert 0.29 < stuck <= 0.3 + gap
        else:
            assert abs(root - 0.3) < 1e-6

    def test_no_root_and_direction(self):
        assert _scan_earliest(np.linspace(1.0, 2.0, 8)) == (None, np.inf)
        # one downward crossing at 0.4, one upward at 0.7
        b = _bernstein_from_roots([0.4, 0.7], np.ones(6), 1.0)
        assert abs(_scan_earliest(b)[0] - 0.4) < 1e-12
        assert abs(_scan_earliest(b, direction=-1)[0] - 0.4) < 1e-12
        assert abs(_scan_earliest(b, direction=+1)[0] - 0.7) < 1e-12

    def test_end_values_count_at_face_value(self):
        # an exact zero at 1 is a root; one at 0 is not, and the scan takes
        # the sign just past 0
        assert abs(_scan_earliest(np.linspace(-1.0, 0.0, 8))[0] - 1.0) <= 1e-12
        assert _scan_earliest(np.linspace(0.0, 1.0, 8)) == (None, np.inf)
        b = _bernstein_from_roots([0.0, 0.5], np.ones(6), 1.0)
        assert abs(_scan_earliest(b)[0] - 0.5) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           level=st.sampled_from([(0.0, 1.0, 0.0), (1.0, 1.0, 1.0), (0.6, -0.8, 0.0),
                                  (-0.35, 2.5, -1.25), "radius"]))
    def test_rounding_bound_holds(self, seed, level):
        # the coefficients of a level form on a trial interval, computed as
        # the scan computes them, against exact rational arithmetic: the
        # linear levels are a coordinate, the sum and mixed-sign weights off 1
        rng = np.random.default_rng(seed)
        y0 = rng.normal(size=(1, 3))
        F = rng.normal(size=(7, 1, 3)) * np.array([1.0, 0.3, 0.1, 0.03, 0.01, 0.003,
                                                   0.001])[:, None, None]
        c = float(rng.uniform(-2.0, 2.0)) if level != "radius" else 1.5
        lo, hi = np.sort(rng.uniform(0.0, 1.0, 2))
        piece = ImpulsiveSetSpec(
            RadiusLevel() if level == "radius" else LinearLevel(level), c)
        b, eps = _along_step(piece.level, c, dense_bernstein(y0, F))
        _, right = _split(b, np.array([lo]))
        tau = (hi - lo) / (1.0 - lo)
        trial, _ = _split(right, np.array([tau]))
        exact = _exact_form_coefficients(level, c, y0[0], F[:, 0], lo,
                                         lo + tau * (1.0 - lo))
        err = max(abs(Fraction(float(t)) - x) for t, x in zip(trial[:, 0], exact))
        assert err <= eps[0]

    @staticmethod
    def _crossings_of(columns, monkeypatch):
        """``_first_crossings`` on one-coordinate steps whose level form x
        has about the Bernstein coefficients ``columns`` (8, m), the end
        ones exactly; returns its result and the coefficients of each
        isolation that halved a trial, so built the scan state."""
        rows = np.linalg.solve(_TO_BERNSTEIN, columns)
        y0, F = rows[0][:, None], rows[1:, :, None]
        scanned = []

        def counted(b, *args):
            found = _isolate(b, *args)
            if found[1]:
                scanned.append(b.copy())
            return found
        monkeypatch.setattr(impulsive_system, "_isolate", counted)
        sets = (ImpulsiveSetSpec(LinearLevel((1.0,)), 0.0),)
        return _first_crossings(sets, np.array([0]), y0, F, 1.0, columns[0][:, None],
                                columns[-1][:, None], np.ones(columns.shape[1]),
                                RunStats()), scanned

    @staticmethod
    def _direct_scan(b):
        b = b[:, None]
        eps = np.array([_ROUNDING * 7 * np.abs(b).max()])
        return _isolated(b, eps, np.array([_TIME_TOL]))

    def test_a_column_leaving_the_level_is_scanned_only_if_it_can_return(
            self, monkeypatch):
        # every column starts on the level (b[0] = 0): the first returns to
        # it at 0.5, the other two leave it for good, downward and upward
        back = _bernstein_from_roots([0.0, 0.5], np.ones(6), 1.0)
        gone = _bernstein_from_roots([0.0], np.ones(7), -1.0)
        columns = np.stack([back, gone, -gone], axis=1)
        columns[0] = 0.0
        (members, u, _, _), scanned = self._crossings_of(columns, monkeypatch)
        # only the returning column is scanned, and it gives the bracket and
        # the root that a direct _isolate of its coefficients gives
        assert len(scanned) == 1 and scanned[0].shape[1] == 1
        (rows, lo, hi, _, _), _, _ = self._direct_scan(scanned[0][:, 0])
        assert list(rows) == [0] and lo[0] <= 0.5 <= hi[0]
        assert list(members) == [0] and abs(u[0] - 0.5) <= 1e-12
        # a direct scan passes the others on its first trial: no bracket, no
        # subdivision, not stuck
        for b in (gone, -gone):
            (rows, *_), subdivisions, stuck = self._direct_scan(np.r_[0.0, b[1:]])
            assert not len(rows) and subdivisions == 0
            assert stuck[0] == np.inf

    def test_a_column_with_no_clear_slope_off_the_level_is_scanned(self, monkeypatch):
        # b[0] = 0 and |b[1]| within the rounding bound: the orbit is tangent
        # to the level at the step's start, which the scan reports stuck at 0
        tangent = _bernstein_from_roots([0.0, 0.0, 0.6], np.ones(5), 1.0)
        columns = tangent[:, None].copy()
        columns[0] = 0.0
        with pytest.raises(AmbiguousCrossing):
            self._crossings_of(columns, monkeypatch)
        (rows, *_), _, stuck = self._direct_scan(np.r_[0.0, tangent[1:]])
        assert not len(rows) and stuck[0] == 0.0

    def test_post_impulse_steps_build_no_root_scan(self, annulus, monkeypatch):
        # an impulse leaves the annulus state on y = 0, moving down: the next
        # step's column starts at 0 and is root-free, so the hit steps' are
        # the only columns the filter keeps; the first trial isolates each of
        # their roots on the whole step, so no step halves a trial, and the
        # hits keep their schedule
        starts, scans = [], []

        def counted(b, *args):
            found = _isolate(b, *args)
            (_, lo, hi, f_lo, _), subdivisions, _ = found
            assert (lo == 0.0).all() and (hi == 1.0).all()
            starts.extend(f_lo)
            scans.extend([subdivisions] if subdivisions else [])
            return found
        monkeypatch.setattr(impulsive_system, "_isolate", counted)
        tr = impulsive_trajectory(annulus, polar(1.5, 4.0), 30.0, 0.1)
        want, _ = annulus_impulse_schedule(1.5, 4.0, 9)
        assert tr.n_impulses == len(starts) == 9 and not scans
        assert 0.0 not in starts
        assert np.abs(tr.impulse_times - want).max() < 1e-8

    @staticmethod
    def _near_zero(eps):
        """Values within, at and just past the rounding bound eps of 0."""
        return st.sampled_from([0.0, -0.0, 5e-324, eps, -eps, 0.5 * eps, -0.5 * eps,
                                eps * (1 + 2 ** -52), -eps * (1 - 2 ** -53)])

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), n=st.sampled_from([7, 14]), k=st.integers(1, 10),
           direction=st.sampled_from([-1, 0, 1]),
           min_width=st.sampled_from([0.6, 1e-3, 1e-12]))
    def test_isolation_equals_the_reference_scan(self, data, n, k, direction, min_width):
        # columns of degree-7 and degree-14 forms, many of one sign or one
        # sign change, with coefficients within eps of 0 anywhere, exact
        # zeros at either end included, against the scan of tests/oracles.py
        # (min_width 0.6 stops it after its first trial, [0, 1])
        eps = _ROUNDING * n
        columns = []
        for _ in range(k):
            c = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n + 1, max_size=n + 1))
            order = data.draw(st.sampled_from(["none", "down", "up", "one sign"]))
            if order == "one sign":
                c = [math.copysign(0.5 + abs(x), c[0]) for x in c]
            elif order != "none":
                c.sort(reverse=order == "down")
            spots = data.draw(st.lists(st.integers(0, n), max_size=2))
            spots += [end for end in (0, n) if data.draw(st.integers(0, 3)) == 0]
            for i in spots:
                c[i] = data.draw(self._near_zero(eps))
            columns.append(c)
        b = np.array(columns, dtype=float).T
        args = b, np.full(k, eps), np.full(k, min_width), direction
        (cols, lo, hi, f_lo, f_hi), subdivisions, stuck = _isolated(*args)
        # the same first admissible bracket per column, bit for bit, and the
        # same stuck position where a column sticks before it
        scan = _RootScan(*args)
        rounds = [scan.brackets(np.arange(k))]
        order = np.argsort(rounds[0][0], kind="stable")
        for got, want in zip(_first_brackets(*args)[0], rounds[0]):
            assert got.tobytes() == want[order].tobytes()
        before = np.setdiff1d(np.arange(k), rounds[0][0])
        assert stuck[before].tobytes() == scan.stuck[before].tobytes()
        # resumed past each bracket, the scan gives every bracket of the pass,
        # in its order, and its subdivisions and stuck positions
        while len(rounds[-1][0]):
            rounds.append(scan.brackets(scan.resume(rounds[-1][0])))
        ref = [np.concatenate(a) for a in zip(*rounds)]
        order = np.argsort(ref[0], kind="stable")
        for got, want in zip((cols, lo, hi, f_lo, f_hi), ref):
            assert got.tobytes() == want[order].tobytes()
        assert subdivisions == scan.subdivisions
        assert stuck.tobytes() == scan.stuck.tobytes()
        # the brackets on the whole step are those of the fused first trial
        cand, one, _ = _first_trial(b, np.full(k, eps), direction) or 3 * [np.zeros(0, int)]
        assert list(cols[(lo == 0.0) & (hi == 1.0)]) == list(cand[one])


def _exact_form_coefficients(level, c, y0, F, lo, hi):
    """Bernstein coefficients on [lo, hi] of a level form along the dense
    output y0 + u (F0 + v (F1 + u (F2 + ...))), in exact rationals; ``level``
    is "radius" or the weights of a linear level."""
    def mul(p, q):
        out = [Fraction(0)] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    def add(p, q):
        n = max(len(p), len(q))
        return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                for i in range(n)]

    lo, hi = Fraction(float(lo)), Fraction(float(hi))
    u = [lo, hi - lo]                    # u as a polynomial in s in [0, 1]
    v = [1 - lo, lo - hi]
    coords = []
    for d in range(len(y0)):
        # Horner from F6 inward: F_k is multiplied by u for even k, by v for odd
        p = [Fraction(float(F[6, d]))]
        for k in range(5, -1, -1):
            p = add(mul(p, u if (k + 1) % 2 == 0 else v), [Fraction(float(F[k, d]))])
        coords.append(add(mul(p, u), [Fraction(float(y0[d]))]))
    if level == "radius":
        form = add(add(mul(coords[0], coords[0]), mul(coords[1], coords[1])),
                   [-Fraction(c) ** 2])
    else:
        form = [-Fraction(c)]
        for a, coord in zip(level, coords):
            form = add(form, mul([Fraction(a)], coord))
    n = len(form) - 1
    return [sum(Fraction(math.comb(k, i), math.comb(n, i)) * form[i]
                for i in range(k + 1)) for k in range(n + 1)]


class TestApplyImpulse:
    def test_annulus_endpoints(self, annulus):
        assert np.allclose(apply_impulse(annulus, [1.0, 0.0]), [-1.0, 0.0])
        assert np.allclose(apply_impulse(annulus, [2.0, 0.0]), [-1.5, 0.0])

    def test_prey_predator_rescale(self, prey_predator):
        out = apply_impulse(prey_predator, np.array([1, 1, 1]) / 3)
        assert np.allclose(out, np.array([2, 2, 2]) / 3)

    def test_off_set_rejected(self, annulus):
        with pytest.raises(ValueError, match="not on the impulsive set"):
            apply_impulse(annulus, polar(1.5, 1.0))

    def test_image_lands_on_image_set(self, annulus):
        out = apply_impulse(annulus, [1.37, 0.0])
        assert annulus.image_sets[0].contains(out)
        assert annulus.in_impulsive_set(out) == -1


class TestTrajectory:
    def test_annulus_schedule_and_radii(self, annulus):
        traj = impulsive_trajectory(annulus, polar(1.5, np.pi / 2), 70.0, 0.05)
        taus_exp, radii_exp = annulus_impulse_schedule(1.5, np.pi / 2, traj.n_impulses)
        assert traj.n_impulses >= 20
        assert np.abs(traj.impulse_times - taus_exp).max() < 1e-8
        radii = np.hypot(traj.post_impulse_states[:, 0], traj.post_impulse_states[:, 1])
        assert np.abs(radii - radii_exp).max() < 1e-8

    def test_short_horizon_is_pure_flow(self, annulus):
        traj = impulsive_trajectory(annulus, polar(1.5, np.pi / 2), 1.0, 0.01)
        assert traj.n_impulses == 0
        expected = polar(1.5, np.pi / 2 + 0.5)
        assert np.allclose(traj.evaluate(0.5), expected, atol=1e-9)

    def test_doubling_schedule(self, doubling):
        theta0 = 0.37
        x = np.array([np.cos(theta0), np.sin(theta0), 0.0])
        traj = impulsive_trajectory(doubling, x, 8.0, 0.05)
        assert np.abs(traj.impulse_times - np.arange(1, 9)).max() < 1e-9
        angles = np.arctan2(traj.post_impulse_states[:, 1],
                            traj.post_impulse_states[:, 0])
        expected = theta0 * 2.0 ** np.arange(1, 9)
        wrap = np.angle(np.exp(1j * (angles - expected)))
        assert np.abs(wrap).max() < 1e-10

    def test_hit_times_do_not_drift(self, doubling):
        # each hit starts the next leg, so a root located off its crossing
        # would move every later hit time: the 100th stays within 2e-12 of 100
        traj = impulsive_trajectory(doubling, np.array([1.0, 0.0, 0.0]), 100.5, 0.05)
        assert traj.n_impulses == 100
        assert np.abs(traj.impulse_times - np.arange(1, 101)).max() <= 2e-12

    def test_recursion_consistency(self, annulus):
        # each gap equals the first hitting time of the previous post state
        traj = impulsive_trajectory(annulus, polar(1.8, 2.2), 25.0, 0.05)
        for n in range(traj.n_impulses - 1):
            tau1, _ = first_hitting_time(annulus, traj.post_impulse_states[n], 10.0)
            assert abs(traj.impulse_times[n + 1] - traj.impulse_times[n] - tau1) <= 1e-9

    def test_post_states_live_on_image_never_on_set(self, prey_predator):
        traj = impulsive_trajectory(prey_predator, np.array([0.7, 0.6, 0.5]), 20.0, 0.05)
        assert traj.n_impulses >= 3
        for p in traj.post_impulse_states:
            assert prey_predator.image_sets[0].contains(p, tol=1e-7)
            assert prey_predator.in_impulsive_set(p, tol=1e-7) == -1

    def test_segments_never_cross_the_set(self, annulus):
        # strictly between hits the level stays on one side: y < 0 for the
        # annulus, whose crossings are upward
        traj = impulsive_trajectory(annulus, polar(1.5, np.pi / 2), 40.0, 0.01)
        t = traj.sample_times
        margin = 1e-6
        for a, b in zip(traj.impulse_times[:-1], traj.impulse_times[1:]):
            inside = (t > a + margin) & (t < b - margin)
            assert (traj.sample_states[inside, 1] < 1e-12).all()

    def test_return_map_contraction(self, annulus):
        traj = impulsive_trajectory(annulus, polar(1.5, 0.1), 70.0, 0.05)
        radii = np.hypot(traj.post_impulse_states[:, 0], traj.post_impulse_states[:, 1])
        prev = 1.5
        for r in radii:
            assert abs(r - (0.5 + 0.5 * prev)) < 1e-8
            prev = r
        n = np.arange(1, len(radii) + 1)
        assert np.allclose(np.abs(radii - 1.0), 0.5 / 2 ** n, atol=1e-8)

    def test_determinism_bitwise(self, annulus):
        a = impulsive_trajectory(annulus, polar(1.44, 0.9), 30.0, 0.05)
        b = impulsive_trajectory(annulus, polar(1.44, 0.9), 30.0, 0.05)
        assert np.array_equal(a.sample_states, b.sample_states)
        assert np.array_equal(a.impulse_times, b.impulse_times)
        assert np.array_equal(a.final_state, b.final_state)

    def test_gap_underflow_detected(self):
        # the impulse drops the state a hair below the set, so the next hit
        # follows within ~1e-12 and the chattering guard must fire
        degenerate = dataclasses.replace(
            build_fixture("annulus"),
            impulsive_sets=(ImpulsiveSetSpec(
                COORD1, 0.0,
                halfspaces=(((1.0, 0.0), 1.0), ((-1.0, 0.0), -2.0)),
                direction=+1),),
            image_sets=(ImpulsiveSetSpec(COORD1, 0.0),),
            **_translate((0.0, -1e-12)),
        )
        with pytest.raises(GapUnderflow):
            impulsive_trajectory(degenerate, polar(1.5, np.pi / 2), 30.0, 0.1)

    @pytest.mark.parametrize("T", [3, 10])
    def test_doubling_hit_on_integer_horizon_is_recorded(self, doubling, T):
        # every orbit hits at t = 1, 2, ..., T; the last hit sits exactly on
        # the horizon and must be counted, with the post-impulse state as the
        # final state (right continuity at the horizon)
        X = candidate_cloud(doubling, 64, np.random.default_rng(0))
        trajs = impulsive_trajectory_batch(doubling, X, float(T), 0.05)
        for tr in trajs:
            assert tr.n_impulses == T
            assert np.abs(tr.impulse_times - np.arange(1, T + 1)).max() < 1e-9
            assert np.array_equal(tr.final_state, tr.post_impulse_states[-1])

    @settings(max_examples=12, deadline=None)
    @given(starts=st.lists(st.tuples(st.floats(1.0, 2.0),
                                     st.floats(0.05, 2 * np.pi - 0.05)),
                           min_size=1, max_size=6))
    def test_annulus_batch_matches_analytic_schedule(self, annulus, starts):
        # hit times of every batch member follow t1 + k*pi, whatever the
        # other members of the batch are doing
        T = 20.0
        X = np.stack([polar(r, th) for r, th in starts])
        trajs = impulsive_trajectory_batch(annulus, X, T, 0.1)
        for (r, th), tr in zip(starts, trajs):
            taus, _ = annulus_impulse_schedule(r, th, 8)
            assume(np.abs(taus - T).min() > 1e-6)
            want = taus[taus <= T]
            assert tr.n_impulses == len(want)
            assert np.abs(tr.impulse_times - want).max() < 1e-8

    def test_input_validation(self, annulus, prey_predator):
        with pytest.raises(ValueError):
            impulsive_trajectory(annulus, polar(1.5, 1.0), -1.0, 0.1)
        with pytest.raises(ValueError):
            impulsive_trajectory(annulus, polar(1.5, 1.0), 1.0, 0.0)
        # non-finite states and times are rejected up front: a NaN state
        # makes the step size NaN, and a run to an infinite time or search
        # limit on an orbit that never hits would not end
        for T, dt in ((math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                impulsive_trajectory(annulus, polar(1.5, 1.0), T, dt)
        with pytest.raises(ValueError, match="finite"):
            impulsive_trajectory(annulus, [math.nan, 1.5], 1.0, 0.1)
        static_null = build_fixture("static_null")
        x = candidate_cloud(static_null, 1, np.random.default_rng(0))[0]
        for t_max in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                first_hitting_time(static_null, x, t_max)
            with pytest.raises(ValueError, match="finite"):
                first_hitting_time(annulus, polar(1.5, 1.0), t_max)
        # states of the wrong dimension get the field's own message
        with pytest.raises(ValueError, match="state dimension 3 does not match"):
            impulsive_trajectory(annulus, [0.0, 1.5, 0.0], 1.0, 0.1)
        with pytest.raises(ValueError, match="state dimension 2 does not match"):
            psi(prey_predator, np.array([1.0, 1.0]), 1.0)


class TestPsi:
    def test_identity_at_zero(self, annulus):
        x = polar(1.5, 0.4)
        assert np.allclose(psi(annulus, x, 0.0), x)

    def test_post_impulse_value_at_hit_time(self, annulus):
        x = polar(1.5, np.pi / 2)
        out = psi(annulus, x, 1.5 * np.pi)
        assert np.allclose(out, [-1.25, 0.0], atol=1e-9)

    def test_quarter_turn_after_impulse(self, annulus):
        x = polar(1.5, np.pi / 2)
        out = psi(annulus, x, 1.5 * np.pi + np.pi / 2)
        assert np.allclose(out, polar(1.25, 1.5 * np.pi), atol=1e-9)

    def test_negative_time_rejected(self, annulus):
        with pytest.raises(ValueError):
            psi(annulus, polar(1.5, 1.0), -0.5)
        # and non-finite ones, a NaN time too, which no comparison rejects
        for t in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                psi(annulus, polar(1.5, 1.0), t)
            with pytest.raises(ValueError, match="finite"):
                psi_batch(annulus, polar(1.5, 1.0)[None], np.array([t]))
        with pytest.raises(ValueError, match="finite"):
            psi(annulus, np.array([math.inf, 1.5]), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(r=st.floats(1.0, 2.0), theta=st.floats(0.05, 2 * np.pi - 0.05),
           s=st.floats(0.0, 12.0), t=st.floats(0.0, 12.0))
    # a first leg far shorter than the horizon slack once extrapolated the
    # step's interpolant ~1e4 steps ahead and applied an impulse 0.28 early
    @example(r=1.5, theta=6.0, s=9.369787810086868e-239, t=1.0)
    def test_semigroup_across_impulses(self, annulus, r, theta, s, t):
        # psi(x, s + t) = psi(psi(x, s), t) when s and s + t stay away from
        # the hit times t1 + k*pi; the second leg crosses at least one hit
        taus, _ = annulus_impulse_schedule(r, theta, 12)
        assume(np.abs(taus - s).min() > 1e-3)
        assume(np.abs(taus - (s + t)).min() > 1e-3)
        assume(((taus > s) & (taus < s + t)).any())
        x = polar(r, theta)
        once = psi(annulus, x, s + t)
        twice = psi(annulus, psi(annulus, x, s), t)
        assert np.abs(once - twice).max() < 1e-9

    def test_duration_below_the_horizon_slack_applies_no_impulse(self, annulus):
        # the step is at least the horizon slack long, so the crossing scan
        # never extrapolates the dense output far past it
        theta = np.linspace(0.05, 2 * np.pi - 0.05, 60)
        X = np.stack([polar(1.5, a) for a in theta])
        for s in 10.0 ** np.linspace(-300, -8, 11):
            out = psi_batch(annulus, X, np.full(len(X), s))
            assert np.abs(out - X).max() < 1e-7

    @settings(max_examples=10, deadline=None)
    @given(which=st.sampled_from(["annulus", "doubling"]),
           starts=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                           min_size=1, max_size=4))
    def test_right_continuous_at_hits(self, annulus, doubling, which, starts):
        # at every recorded hit tau the semiflow and the trajectory carry the
        # post-impulse state; just before tau they tend to the pre-impulse one
        if which == "annulus":
            sys, T = annulus, 12.0
            X = np.stack([polar(1.0 + a, 0.05 + b * (2 * np.pi - 0.1))
                          for a, b in starts])
        else:
            sys, T = doubling, 5.5
            X = np.stack([[np.cos(2 * np.pi * a), np.sin(2 * np.pi * a), 0.9 * b]
                          for a, b in starts])
        trajs = impulsive_trajectory_batch(sys, X, T, 0.05)
        for x, tr in zip(X, trajs):
            assert tr.n_impulses >= 1
            n = tr.n_impulses
            at_hits = psi_batch(sys, np.repeat(x[None], n, axis=0), tr.impulse_times)
            assert np.abs(at_hits - tr.post_impulse_states).max() < 1e-9
            assert np.abs(tr.evaluate(tr.impulse_times)
                          - tr.post_impulse_states).max() < 1e-9
            speed = np.linalg.norm(eval_vector_field(sys.field, tr.pre_impulse_states),
                                   axis=1)
            for s in (1e-3, 1e-5, 1e-7):
                before = psi_batch(sys, np.repeat(x[None], n, axis=0),
                                   tr.impulse_times - s)
                gap = np.linalg.norm(before - tr.pre_impulse_states, axis=1)
                assert (gap <= 1.01 * speed * s + 1e-9).all()

    def test_sample_written_before_a_coinciding_hit_takes_post_state(self):
        # a step that ends 5e-10 before the grid time writes that sample; the
        # hit 3e-10 after the grid time, in the next step, still owns it
        run = _BatchRun(np.zeros((1, 2)), np.array([0.0, 1.0]))
        y0, F = np.ones((1, 2)), np.zeros((7, 1, 2))
        run.fill_samples(np.array([0]), np.array([0.5]), np.array([0.5 - 5e-10]),
                         y0, F, 0.5)
        assert np.array_equal(run.samples[0, 1], [1.0, 1.0])
        post = np.array([[2.0, 3.0]])
        run.record_hits(np.array([0]), np.array([1.0 + 3e-10]), y0, post, 1e-9)
        assert np.array_equal(run.samples[0, 1], post[0])

    def test_sample_just_after_a_hit_in_its_step_takes_post_state(self):
        # the step is cut at a hit 3e-10 before the grid time: the grid time
        # is on the hit, so its sample carries the post-impulse state
        run = _BatchRun(np.zeros((1, 2)), np.array([0.0, 1.0]))
        y0, F = np.ones((1, 2)), np.zeros((7, 1, 2))
        run.fill_samples(np.array([0]), np.array([0.5]), np.array([0.5 - 3e-10]),
                         y0, F, 0.5)
        post = np.array([[2.0, 3.0]])
        run.record_hits(np.array([0]), np.array([1.0 - 3e-10]), y0, post, 1e-9)
        assert np.array_equal(run.samples[0, 1], post[0])

    def test_grid_time_clear_of_a_hit_is_left_to_the_next_step(self):
        # a grid time 2e-9 after the hit is off it: the hit does not write
        # it, and the step after the impulse does
        run = _BatchRun(np.zeros((1, 2)), np.array([0.0, 1.0]))
        y0, F = np.ones((1, 2)), np.zeros((7, 1, 2))
        tau = 1.0 - 2e-9
        run.fill_samples(np.array([0]), np.array([0.5]), np.array([tau - 0.5]),
                         y0, F, 0.5)
        run.record_hits(np.array([0]), np.array([tau]), y0, np.array([[2.0, 3.0]]),
                        1e-9)
        assert np.isnan(run.samples[0, 1]).all()
        after = np.array([[5.0, 7.0]])
        run.fill_samples(np.array([0]), np.array([tau]), np.array([0.5]), after, F, 0.5)
        assert np.array_equal(run.samples[0, 1], after[0])

    @settings(max_examples=20, deadline=None)
    @given(dt=st.sampled_from([0.1, 0.125, 0.25, 0.5]),
           starts=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 9)),
                           min_size=1, max_size=4))
    def test_doubling_samples_within_coincide_tol_are_post_impulse(
            self, doubling, dt, starts):
        # start heights on the grid put every hit at t = 1 - height + n on a
        # grid time, up to rounding; that sample is the post-impulse state
        per_unit = round(1.0 / dt)
        X = np.stack([[np.cos(2 * np.pi * a), np.sin(2 * np.pi * a),
                       (k % per_unit) * dt] for a, k in starts])
        for tr in impulsive_trajectory_batch(doubling, X, 4.0, dt):
            assert tr.n_impulses >= 3
            for tau, post in zip(tr.impulse_times, tr.post_impulse_states):
                on = np.flatnonzero(np.abs(tr.sample_times - tau) <= 1e-9)
                assert len(on) == 1
                assert np.array_equal(tr.sample_states[on[0]], post)

    def test_doubling_samples_on_hit_times_are_post_impulse(self, doubling):
        # the doubling orbit hits at every integer time, on the sample grid
        tr = impulsive_trajectory(doubling, np.array([1.0, 0.0, 0.0]), 20.0, 0.01)
        on = np.flatnonzero(np.isin(np.round(tr.sample_times, 9), np.arange(1, 21)))
        assert tr.n_impulses == len(on) == 20
        assert np.abs(tr.sample_states[on] - tr.post_impulse_states).max() < 1e-9

    def test_matches_trajectory_evaluation(self, annulus, rng):
        x = polar(1.62, 2.8)
        traj = impulsive_trajectory(annulus, x, 20.0, 0.05)
        for t in rng.uniform(0.0, 20.0, 8):
            assert np.allclose(traj.evaluate(t), psi(annulus, x, t), atol=1e-6)


class TestTrajectoryBatch:
    """``TrajectoryBatch.evaluate`` against references independent of it:
    the recorded samples, hits and final states, and the semiflow ``psi``."""

    @pytest.mark.parametrize("name", ["annulus", "doubling", "prey_predator"])
    def test_evaluate_against_references(self, request, name):
        sys_spec = request.getfixturevalue(name)
        T, rng = 7.0, np.random.default_rng(3)
        X = candidate_cloud(sys_spec, 9, rng)
        batch = impulsive_trajectory_batch(sys_spec, X, T, 0.05)
        assert len(batch) == len(list(batch)) == 9 and batch.hit_offsets[-1] > 0
        grid = batch.sample_times
        for i in range(len(batch)):
            a, b = batch.hit_offsets[i:i + 2]
            assert np.array_equal(batch.evaluate(i, grid), batch.samples[i])
            assert np.array_equal(batch.evaluate(i, batch.hit_times[a:b]),
                                  batch.post_impulse_states[a:b])
            assert np.array_equal(batch.evaluate(i, T), batch.final_states[i])
        # between knots: the Hermite rule against the semiflow
        members = rng.integers(0, len(batch), 60)
        times = rng.uniform(0.0, T, 60)
        assert np.abs(batch.evaluate(members, times)
                      - psi_batch(sys_spec, X[members], times)).max() < 1e-6

    def test_evaluate_takes_the_post_impulse_side_just_before_a_hit(self, doubling):
        # the sample at t = 1 lies within the coincidence tolerance before the
        # hit and holds the post-impulse state (height 0); so does every time
        # between them, as segment_index counts the hit there
        batch = impulsive_trajectory_batch(
            doubling, np.array([[1.0, 0.0, -5e-10]]), 3.0, 0.5)
        tau = batch.hit_times[0]
        assert 1.0 < tau <= 1.0 + 1e-9 and batch.samples[0, 2, 2] == 0.0
        times = np.array([1.0 + 2.5e-10, tau - 1e-11])
        assert (batch[0].segment_index(times) == 1).all()
        assert np.abs(batch.evaluate(0, times)[:, 2]).max() <= 1e-9

    def test_members_and_sub_batches_are_byte_equal_rows(self, doubling):
        rng = np.random.default_rng(5)
        X = candidate_cloud(doubling, 12, rng)
        batch = impulsive_trajectory_batch(doubling, X, 5.0, 0.05)
        times = np.concatenate([rng.uniform(0.0, 5.0, 40), batch.hit_times[:6],
                                [0.0, 5.0]])
        whole = batch.evaluate(np.arange(len(batch))[:, None], times)
        for idx in (slice(3, 9), np.array([11, 0, 4, 4])):
            sub = batch[idx]
            rows = np.arange(len(batch))[idx]
            assert len(sub) == len(rows)
            for j, i in enumerate(rows):
                assert sub.samples[j].tobytes() == batch.samples[i].tobytes()
                assert sub[j].impulse_times.tobytes() == batch[i].impulse_times.tobytes()
                assert sub.evaluate(j, times).tobytes() == whole[i].tobytes()
        for i in range(len(batch)):
            assert batch[i].evaluate(times).tobytes() == whole[i].tobytes()
            assert batch[i].evaluate(times[0]).tobytes() == whole[i, 0].tobytes()
        with pytest.raises(IndexError):
            batch[len(batch)]


    # a 4-member annulus batch: member 3 is at (1.012, -0.021) at t = 4.82,
    # and before the check member -1 read the hit rows of member 0 there,
    # member 0.7 was member 0, and a NaN time raised an IndexError
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("members,t,message", [
        ([-1], 4.82, "members must be integers in"),
        ([4], 4.82, "members must be integers in"),
        ([0.7], 4.82, "members must be integers in"),
        ([0], np.nan, "evaluation time outside"),
    ])
    def test_evaluate_rejects_bad_queries(self, annulus, members, t, message):
        X = candidate_cloud(annulus, 4, np.random.default_rng(0))
        batch = impulsive_trajectory_batch(annulus, X, 10.0, 0.1)
        assert np.abs(batch.evaluate(3, 4.82) - [1.012, -0.021]).max() < 1e-3
        with pytest.raises(ValueError, match=message):
            batch.evaluate(members, t)

    @pytest.mark.parametrize("name", ["annulus", "prey_predator", "doubling_suspension",
                                      "static_null", "tangent_degenerate"])
    def test_evaluate_in_blocks_equals_one_call(self, monkeypatch, name):
        # runs of queries across each hit (on it, and either side of it by
        # the tolerances and by a sample step), 0, the horizon and random
        # times, in one block and in blocks of 7, which split the runs at
        # every offset
        sys_spec, T = build_fixture(name), 6.0
        rng = np.random.default_rng(8)
        batch = impulsive_trajectory_batch(
            sys_spec, candidate_cloud(sys_spec, 10, rng), T, 0.1)
        offsets = [-0.1, -_TIME_TOL, -_COINCIDE_TOL, 0.0, _COINCIDE_TOL, _TIME_TOL, 0.1]
        times = np.clip(np.concatenate([(batch.hit_times[:, None] + offsets).ravel(),
                                        [0.0, T], rng.uniform(0.0, T, 90)]), 0.0, T)
        members = np.concatenate([np.repeat(batch.hit_members, len(offsets)),
                                  rng.integers(0, len(batch), 92)])
        every = np.arange(len(batch))[:, None]

        def queries():
            return [batch.evaluate(members, times).tobytes(),
                    batch.evaluate(every, times).tobytes()]
        monkeypatch.setattr(impulsive_system, "_SAMPLE_BLOCK", 10 ** 9)
        one_call = queries()
        monkeypatch.setattr(impulsive_system, "_SAMPLE_BLOCK", 7)
        assert queries() == one_call


# a state of each system that does not hit up to the horizons of
# TestEvaluateReference (on the doubling suspension, below a horizon of 1)
_NO_HIT = {"annulus": polar(1.5, 0.2), "doubling": np.array([1.0, 0.0, 0.0]),
           "prey_predator": np.array([0.2, 0.3, 0.3])}


class TestEvaluateReference:
    """``TrajectoryBatch.evaluate`` bit for bit against its form before the
    rewrite, ``oracles.reference_evaluate``: the same knots, the same
    Hermite arithmetic."""

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(sorted(_NO_HIT)), T=st.floats(0.5, 6.0),
           dt=st.sampled_from([0.05, 0.15, 0.5, 1.3]), seed=st.integers(0, 2 ** 16))
    @example(name="doubling", T=0.7, dt=0.15, seed=0)
    @example(name="annulus", T=6.0, dt=1.3, seed=1)
    @example(name="prey_predator", T=3.0, dt=0.15, seed=2)
    def test_equals_the_reference(self, annulus, doubling, prey_predator,
                                  name, T, dt, seed):
        sys_spec = {"annulus": annulus, "doubling": doubling,
                    "prey_predator": prey_predator}[name]
        rng = np.random.default_rng(seed)
        X = np.vstack([candidate_cloud(sys_spec, 7, rng), _NO_HIT[name]])
        batch = impulsive_trajectory_batch(sys_spec, X, T, dt)
        taus = batch.hit_times
        # each hit time, at and around it by both tolerances, for its own
        # member and for a random one; the grid, 0, the horizon and random times
        near = (taus[:, None] + [0.0, _COINCIDE_TOL, -_COINCIDE_TOL, _TIME_TOL,
                                 -_TIME_TOL]).ravel()
        times = np.concatenate([near, near, batch.sample_times, [0.0, T],
                                rng.uniform(0.0, T, 300)])
        members = np.concatenate([np.repeat(batch.hit_members, 5),
                                  rng.integers(0, len(X), len(times) - 5 * len(taus))])
        times = np.clip(times, -_COINCIDE_TOL, T + _COINCIDE_TOL)
        got = batch.evaluate(members, times)
        assert np.array_equal(got, reference_evaluate(batch, members, times))
        # the member without hits, over all of the times; every member at once
        last = len(X) - 1
        assert batch.hit_offsets[-2] == batch.hit_offsets[-1] or T >= 1.0
        assert np.array_equal(batch.evaluate(last, times),
                              reference_evaluate(batch, last, times))
        every = np.arange(len(X))[:, None]
        assert np.array_equal(batch.evaluate(every, times[:50]),
                              reference_evaluate(batch, every, times[:50]))


def _block_configs(annulus, doubling, prey_predator):
    """The sampled runs whose outputs must not depend on the sample block:
    one long orbit, large batches with staggered hits, a doubling batch
    whose hits fall on grid times, its horizon among them, a batch on a
    grid coarser than its steps, and a flow sampled at uneven times (its
    horizon the times, its dt None)."""
    rng = np.random.default_rng(5)
    a, k = rng.random(256), rng.integers(0, 8, 256)
    on_grid = np.c_[np.cos(2 * np.pi * a), np.sin(2 * np.pi * a), 0.125 * k]
    return {
        "annulus x1": (annulus, candidate_cloud(annulus, 1, np.random.default_rng(1)),
                       300.0, 0.005),
        "annulus x512": (annulus, candidate_cloud(annulus, 512, rng), 30.0, 0.15),
        "doubling x256": (doubling, on_grid, 10.0, 0.125),
        "doubling x1": (doubling, candidate_cloud(doubling, 1, rng), 50.0, 0.25),
        "prey_predator x128": (prey_predator, candidate_cloud(prey_predator, 128, rng),
                               30.0, 0.05),
        # a grid coarser than the steps, reached by the members in different
        # steps: most queued rows have no sample
        "prey_predator x512 sparse": (prey_predator,
                                      candidate_cloud(prey_predator, 512, rng), 30.0, 1.0),
        # gaps from 1e-6 to 0.2, clustered and sparse stretches
        "flow x16 uneven": (prey_predator.field, candidate_cloud(prey_predator, 16, rng),
                            np.cumsum(10.0 ** rng.uniform(-6.0, -0.7, 600)), None),
    }


class TestSampleBlocks:
    """Grid samples are evaluated in blocks after the steps that reach them."""

    @pytest.mark.parametrize("name", ["annulus x1", "annulus x512", "doubling x256",
                                      "doubling x1", "prey_predator x128",
                                      "prey_predator x512 sparse", "flow x16 uneven"])
    def test_outputs_independent_of_the_block(self, annulus, doubling, prey_predator,
                                              monkeypatch, name):
        sys_spec, X, T, dt = _block_configs(annulus, doubling, prey_predator)[name]

        def run():
            if dt is None:
                return flow(sys_spec, X, T).tobytes()
            b = impulsive_trajectory_batch(sys_spec, X, T, dt)
            return b"".join(a.tobytes() for a in (
                b.samples, b.hit_offsets, b.hit_times, b.pre_impulse_states,
                b.post_impulse_states, b.final_states))
        want = run()
        for block in (1, 7, 10 ** 5):
            monkeypatch.setattr(impulsive_system, "_SAMPLE_BLOCK", block)
            assert run() == want, block

    def test_sampling_evaluates_whole_blocks(self, annulus, monkeypatch):
        # the measure orbit: 1531 steps, 96 hits and 60 001 samples; the
        # sampled run's dense_eval calls beyond those of the same run without
        # a grid are the sampling's own
        calls = []

        def counted(y0, F, u):
            calls.append(len(u))
            return dense_eval(y0, F, u)
        monkeypatch.setattr(impulsive_system, "dense_eval", counted)
        x = candidate_cloud(annulus, 1, np.random.default_rng(1))
        grid = 0.005 * np.arange(60001)
        run = _propagate(annulus, x, 300.0, IntegratorConfig(), sample_grid=grid)
        assert not np.isnan(run.samples).any()
        sampled, calls[:] = len(calls), []
        _propagate(annulus, x, 300.0, IntegratorConfig())
        assert run.stats.steps == 1531 and run.stats.hits == 96
        assert 0 < sampled - len(calls) <= math.ceil(60001 / _SAMPLE_BLOCK)

    def test_sparse_grid_flushes_on_queued_rows(self, annulus, doubling, prey_predator,
                                                monkeypatch):
        # each step queues all 512 rows, most without a sample: the queue
        # reaches its row bound before it expects a block of samples, never
        # passes the bound by more than one step's rows, and no flush passes
        # more than one block to dense_eval
        flushes, evaluated = [], []
        flush = _BatchRun.flush

        def counted(run, whole=False):
            if run._queue:
                flushes.append((run._expected, run._rows))
            flush(run, whole)

        def sized(y0, F, u):
            evaluated.append(len(u))
            return dense_eval(y0, F, u)
        monkeypatch.setattr(_BatchRun, "flush", counted)
        monkeypatch.setattr(impulsive_system, "dense_eval", sized)
        sys_spec, X, T, dt = _block_configs(annulus, doubling, prey_predator)[
            "prey_predator x512 sparse"]
        batch = impulsive_trajectory_batch(sys_spec, X, T, dt)
        assert not np.isnan(batch.samples).any()
        assert sum(e < _SAMPLE_BLOCK <= r for e, r in flushes) >= 2
        assert max(r for _, r in flushes) < _SAMPLE_BLOCK + len(X)
        assert max(evaluated) <= _SAMPLE_BLOCK

    def test_a_step_of_many_blocks_is_evaluated_a_block_at_a_time(self, doubling,
                                                                 monkeypatch):
        # 512 doubling orbits to T = 10 sampled every 0.005: one step queues
        # about 20 000 samples.  dense_eval takes at most one block of them
        # at a time, and the run's traced peak stays within 15% of what the
        # batch keeps (22% when a step's samples were evaluated at once)
        evaluated = []

        def sized(y0, F, u):
            evaluated.append(len(u))
            return dense_eval(y0, F, u)
        monkeypatch.setattr(impulsive_system, "dense_eval", sized)
        X = candidate_cloud(doubling, 512, np.random.default_rng(0))
        tracemalloc.start()
        try:
            batch = impulsive_trajectory_batch(doubling, X, 10.0, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(a.nbytes for a in (
            batch.initial_states, batch.sample_times, batch.samples, batch.hit_offsets,
            batch.hit_times, batch.pre_impulse_states, batch.post_impulse_states,
            batch.final_states))
        assert not np.isnan(batch.samples).any()
        assert max(evaluated) <= _SAMPLE_BLOCK
        assert peak <= 1.15 * kept


    def test_hit_rows_are_ordered_one_field_at_a_time(self, doubling):
        # 2048 doubling orbits hit at t = 1, ..., 10: 20 480 hits in ten
        # per-step blocks.  Ordering them by member, field by field, peaks
        # above its entry by less than the arrays it returns (2.3 times them
        # when every field was joined before any was reordered)
        X = candidate_cloud(doubling, 2048, np.random.default_rng(0))
        tracemalloc.start()
        try:
            run = _propagate(doubling, X, 10.0)
            tracemalloc.reset_peak()
            entry = tracemalloc.get_traced_memory()[0]
            offsets, taus, pre, post = out = run.hits_by_member()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(offsets, 10 * np.arange(2049))
        assert np.abs(taus - np.tile(np.arange(1.0, 11.0), 2048)).max() < 1e-9
        assert peak - entry <= sum(a.nbytes for a in out)
        # a second call gives the same rows
        assert all(np.array_equal(a, b) for a, b in zip(out, run.hits_by_member()))


class TestExport:
    def test_segment_index_follows_the_sample_state(self, doubling):
        # a doubling orbit's height is the time since its last hit
        ang = 2 * np.pi * np.arange(200) / 200
        X = np.c_[np.cos(ang), np.sin(ang), np.zeros(200)]
        for tr in impulsive_trajectory_batch(doubling, X, 10.0, 0.5):
            seg = tr.segment_index(tr.sample_times)
            last_hit = np.concatenate([[0.0], tr.impulse_times])[seg]
            assert np.allclose(tr.sample_states[:, 2], tr.sample_times - last_hit,
                               rtol=0, atol=1e-9)


class TestPreimages:
    def test_annulus_inverse(self, annulus):
        pre = impulse_preimages(annulus, np.array([-1.25, 0.0]))
        assert len(pre) == 1
        assert np.allclose(pre[0], [1.5, 0.0])

    def test_doubling_two_branches(self, doubling):
        p = np.array([np.cos(0.8), np.sin(0.8), 0.0])
        pre = impulse_preimages(doubling, p)
        assert len(pre) == 2
        for q in pre:
            assert doubling.impulsive_sets[0].contains(q, tol=1e-9)

    def test_off_image_point_has_none(self, annulus):
        assert impulse_preimages(annulus, polar(1.5, 2.0)) == []


class TestEngineGuards:
    @staticmethod
    def _annulus_variant(d_set, offset):
        # the annulus's field and band, with d_set translated by offset
        return dataclasses.replace(
            build_fixture("annulus"),
            name="annulus_variant",
            impulsive_sets=(d_set,),
            image_sets=(ImpulsiveSetSpec(COORD1, 0.0),),
            **_translate(offset),
        )

    # the coarse config's orbit on r = 1.5 is off by at most 7.1e-9 in radius
    # at the chord y = 1.49, where dL/dt = 0.17, which moves its first
    # crossing by at most 3.95e-8 from arcsin(1.49 / 1.5) - angle (201 start
    # angles in [0, 1])
    _COARSE_TIME_TOL = 1e-7

    def test_double_crossing_in_one_step_locates_the_first(self):
        # the chord y = 1.49 of the circle r = 1.5 is crossed twice, 0.23
        # apart in time, near the orbit's top; a coarse step spans both
        # crossings, and the earlier one is the hit
        chord = self._annulus_variant(
            ImpulsiveSetSpec(COORD1, 1.49),
            (0.0, -2.49))
        x0 = polar(1.5, 0.0)
        coarse = IntegratorConfig(abs_tol=1e-3, rel_tol=1e-3, max_step=0.5)
        batch = impulsive_trajectory_batch(chord, x0[None, :], 3.0, 0.1, coarse)
        tr = batch[0]
        assert tr.n_impulses == 1
        assert abs(tr.impulse_times[0] - np.arcsin(1.49 / 1.5)) < self._COARSE_TIME_TOL
        assert batch.stats.subdivisions >= 1
        # at the default step cap the first crossing is located as usual
        tr = impulsive_trajectory(chord, x0, 3.0, 0.1)
        assert tr.n_impulses == 1
        assert abs(tr.impulse_times[0] - np.arcsin(1.49 / 1.5)) < 1e-9

    @pytest.mark.parametrize("c, cfg, tol, may_raise", [
        (1.49, IntegratorConfig(abs_tol=1e-3, rel_tol=1e-3, max_step=0.5), 1e-6, True),
        (1.49, IntegratorConfig(), 1e-9, False),
        (1.49999, IntegratorConfig(), 1e-9, True),
    ])
    def test_chord_sweep_never_drops_the_hit(self, c, cfg, tol, may_raise):
        # from every start angle the orbit either records its first crossing
        # of the chord y = c or raises: a step spanning both crossings (0.23
        # apart at c = 1.49, 0.0073 at c = 1.49999) never passes silently
        chord = self._annulus_variant(
            ImpulsiveSetSpec(COORD1, c),
            (0.0, -(c + 1.0)))
        raised = 0
        for angle in np.linspace(0.0, 1.0, 21):
            try:
                tr = impulsive_trajectory(chord, polar(1.5, angle), 3.0, 0.1, cfg)
            except AmbiguousCrossing:
                raised += 1
                continue
            assert tr.n_impulses >= 1
            assert abs(tr.impulse_times[0] - (np.arcsin(c / 1.5) - angle)) < tol
        # steps of at most 0.1 cannot span crossings 0.23 apart
        assert raised == 0 or may_raise

    @pytest.mark.parametrize("c", [1.49, 1.49999])
    def test_chord_sweep_records_the_first_crossing(self, c):
        # at the default config, from each of 201 start angles, the first of
        # the two crossings of the chord y = c (0.23 apart at c = 1.49,
        # 0.0073 at c = 1.49999) is recorded, whether or not one step spans
        # both
        chord = self._annulus_variant(
            ImpulsiveSetSpec(COORD1, c),
            (0.0, -(c + 1.0)))
        for angle in np.linspace(0.0, 1.0, 201):
            tr = impulsive_trajectory(chord, polar(1.5, angle), 3.0, 0.1)
            assert tr.n_impulses >= 1
            assert abs(tr.impulse_times[0] - (np.arcsin(c / 1.5) - angle)) < 1e-9

    def test_orbit_resting_on_a_level_is_a_tangency(self):
        # under the zero field a state on the line x = 0.5 stays on it: the
        # level vanishes along the whole step and no crossing can be told
        resting = dataclasses.replace(
            build_fixture("static_null"),
            name="resting",
            impulsive_sets=(ImpulsiveSetSpec(COORD0, 0.5),),
            image_sets=(ImpulsiveSetSpec(COORD0, 0.25),),
            **_translate((-0.25, 0.0)),
        )
        with pytest.raises(AmbiguousCrossing, match="tangent"):
            impulsive_trajectory(resting, np.array([0.5, 0.5]), 1.0, 0.1)
        assert impulsive_trajectory(resting, np.array([0.6, 0.5]), 1.0, 0.1).n_impulses == 0

    # a step of the coarse config spans [0.61, 1.11]; from angle 0.7552 on
    # r = 1.5 the chord y = 1.49 is crossed at 0.70 and 0.93 inside it
    _COARSE = IntegratorConfig(abs_tol=1e-3, rel_tol=1e-3, max_step=0.5)
    _CHORD_START = 0.7552

    def test_double_crossing_past_the_horizon_is_not_checked(self):
        chord = self._annulus_variant(
            ImpulsiveSetSpec(COORD1, 1.49),
            (0.0, -2.49))
        # the member at r = 1.2 never reaches the chord and sets the steps
        X = np.array([polar(1.2, 0.0), polar(1.5, self._CHORD_START)])
        taus = hit_times_batch(chord, X, np.array([3.0, 3.0]), self._COARSE)
        assert [len(tau) for tau in taus] == [0, 1]
        first = np.arcsin(1.49 / 1.5) - self._CHORD_START
        assert abs(taus[1][0] - first) < self._COARSE_TIME_TOL
        # a horizon at 0.65 ends the second member before its double crossing
        taus = hit_times_batch(chord, X, np.array([3.0, 0.65]), self._COARSE)
        assert [len(tau) for tau in taus] == [0, 0]

    def test_double_crossing_past_a_hit_on_another_piece_is_not_checked(self):
        offset = (0.0, -2.49)
        chord = ImpulsiveSetSpec(COORD1, 1.49)
        x0 = polar(1.5, self._CHORD_START)
        taus = hit_times_batch(self._annulus_variant(chord, offset), x0[None, :],
                               np.array([1.5]), self._COARSE)
        first = np.arcsin(1.49 / 1.5) - self._CHORD_START
        assert len(taus[0]) == 1
        assert abs(taus[0][0] - first) < self._COARSE_TIME_TOL
        # the line x = x(0.65) is hit first, in the same step, and the impulse
        # moves the orbit to r ~ 1.04, below the chord
        line = ImpulsiveSetSpec(COORD0, 1.5 * np.cos(self._CHORD_START + 0.65),
                                direction=-1)
        two = dataclasses.replace(self._annulus_variant(chord, offset),
                                  impulsive_sets=(line, chord))
        taus = hit_times_batch(two, x0[None, :], np.array([1.5]), self._COARSE)
        assert len(taus[0]) == 1 and abs(taus[0][0] - 0.65) < 1e-6

    def test_single_orbit_escape_raises(self):
        # the impulse throws the orbit from the segment [1, 2] out to
        # x >= 2.5, outside the band 1 <= r <= 2
        escaping = self._annulus_variant(
            ImpulsiveSetSpec(COORD1, 0.0,
                             halfspaces=(((1.0, 0.0), 1.0), ((-1.0, 0.0), -2.0)),
                             direction=+1),
            (1.5, 0.0))
        with pytest.raises(RegionEscape, match="admissible region"):
            impulsive_trajectory(escaping, polar(1.5, 0.5), 10.0, 0.1)
        # before the hit at 2*pi - 0.5 the orbit stays inside the band
        tr = impulsive_trajectory(escaping, polar(1.5, 0.5), 5.0, 0.1)
        assert tr.n_impulses == 0

    def test_escape_in_a_batch_ends_only_its_member(self, annulus, rng):
        # the band cut at y = -1.9: the orbit on r = 1.95 from the top passes
        # below the cut at the bottom, before it reaches the set on the
        # positive x-axis; orbits on r <= 1.85 never leave
        cut = dataclasses.replace(
            annulus, region=lambda x: annulus.region(x) & (x[:, 1] >= -1.9))
        others = np.array([polar(r, a) for r, a in zip(
            rng.uniform(1.0, 1.85, 63), rng.uniform(0.0, 2 * np.pi, 63))])
        X = np.insert(others, 17, polar(1.95, np.pi / 2), axis=0)
        tau, _, run = _first_hits(cut, X, 10.0)
        assert np.flatnonzero(run.escaped).tolist() == [17] and np.isnan(tau[17])
        alone, _, clean = _first_hits(cut, others, 10.0)
        assert not clean.escaped.any() and not np.isnan(alone).any()
        assert np.abs(np.delete(tau, 17) - alone).max() <= 1e-9
        # the public calls still raise, naming the state past the cut
        for call in (lambda: first_hitting_time(cut, X[17], 10.0),
                     lambda: impulsive_trajectory_batch(cut, X, 10.0, 0.1)):
            with pytest.raises(RegionEscape, match="left the admissible region of "
                               "'annulus' near state") as err:
                call()
            state = np.array(str(err.value).split("[")[1].rstrip("]").split(), float)
            assert state[1] < -1.9 and abs(np.hypot(*state) - 1.95) < 1e-6


class TestRunStats:
    def test_criterion_1_orbit_steps_and_accuracy(self, annulus):
        # criterion 1's orbit: one hit per half turn, each folding the radius
        batch = impulsive_trajectory_batch(annulus, polar(1.5, np.pi / 2)[None, :],
                                           70.0, 0.05)
        tr, stats = batch[0], batch.stats
        radii = np.hypot(tr.post_impulse_states[:20, 0], tr.post_impulse_states[:20, 1])
        assert np.abs(radii - (1.0 + 0.5 / 2.0 ** np.arange(1, 21))).max() <= 1e-9
        # a hit ends its step, so each flow segment takes ceil(length / 0.2)
        # steps at the default max_step: 24 + 20 * 16 + 13 = 357 for the 22
        # segments, plus the ramp up from the initial step
        assert stats.hits == 21
        assert stats.steps <= 360
        assert stats.h_max == IntegratorConfig().max_step
        assert 0 < stats.h_min < stats.h_max

    def test_horizon_on_the_step_grid_takes_no_slack_step(self, doubling):
        # every doubling orbit hits at t = 1, 2, ... and steps at max_step
        # from each hit, so the horizon T = 10 falls on its step grid; the
        # step that reaches it finishes it, with no further step of
        # _HORIZON_SLACK
        X = candidate_cloud(doubling, 64, np.random.default_rng(0))
        trajs = impulsive_trajectory_batch(doubling, X, 10.0, 0.05)
        assert trajs.stats.h_min > 1e-3
        assert all(tr.n_impulses == 10 for tr in trajs)

    def test_mixed_durations_step_only_running_members(self, annulus, monkeypatch):
        # a member leaves the shared step when its run ends: the rows stepped
        # never increase, and sum to about half the steps times the batch
        rng = np.random.default_rng(0)
        X = candidate_cloud(annulus, 200, rng)
        durations = rng.uniform(0.0, 20.0, 200)
        rows, step = [], BatchStepper.step

        def counted(stepper, h_cap):
            rows.append(stepper.n)
            return step(stepper, h_cap)

        monkeypatch.setattr(BatchStepper, "step", counted)
        psi_batch(annulus, X, durations)
        assert rows[0] == 200 and all(np.diff(rows) <= 0)
        assert sum(rows) < 0.6 * len(rows) * 200

    def test_a_member_that_never_runs_leaves_the_others_bitwise(self, prey_predator):
        # a zero-duration member is not stepped, so its state, here one with
        # a large derivative, has no say in the batch's initial step
        X = candidate_cloud(prey_predator, 8, np.random.default_rng(0))
        alone = psi_batch(prey_predator, X, np.full(8, 5.0))
        idle = psi_batch(prey_predator, np.vstack([X, [0.0, 0.0, 50.0]]),
                         np.append(np.full(8, 5.0), 0.0))
        assert alone.tobytes() == idle[:8].tobytes()
        assert np.array_equal(idle[8], [0.0, 0.0, 50.0])

    def test_counters_identical_across_reruns(self, prey_predator, rng):
        X = candidate_cloud(prey_predator, 16, rng)
        runs = [impulsive_trajectory_batch(prey_predator, X, 8.0, 0.05).stats
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0].steps > 0 and runs[0].hits > 0

    def test_subdivisions_count_the_isolation_of_close_crossings(self):
        # the chord y = 1.49999 of the circle r = 1.5 is crossed twice,
        # 0.0073 apart, inside one step; separating them takes subdivisions,
        # and after the hit the orbit runs on r ~ 1.0 far below the chord,
        # where every step is cleared without one
        chord = TestEngineGuards._annulus_variant(
            ImpulsiveSetSpec(COORD1, 1.49999),
            (0.0, -2.49999))
        batch = impulsive_trajectory_batch(chord, polar(1.5, 0.0)[None, :], 20.0, 0.1)
        assert batch[0].n_impulses == 1
        assert batch.stats.subdivisions >= 1
        quiet = impulsive_trajectory_batch(chord, polar(1.2, 0.0)[None, :], 20.0,
                                           0.1).stats
        assert quiet.subdivisions == 0 and quiet.hits == 0


class TestTolerances:
    """The default membership tolerance (1e-9) and the admissible regions'
    tolerance (1e-6): half of each is inside, twice of each outside."""

    def test_membership_tolerance(self, annulus):
        piece = annulus.impulsive_sets[0]  # the segment [1, 2] x {0}
        assert piece.contains(np.array([1.5, 0.5e-9]))
        assert not piece.contains(np.array([1.5, 2e-9]))
        assert annulus.in_impulsive_set(np.array([1.5, -0.5e-9])) == 0
        assert annulus.in_impulsive_set(np.array([1.5, -2e-9])) == -1

    @pytest.mark.parametrize("name,state,outward", [
        # annulus band 1 <= r <= 2, on the x-axis
        ("annulus", (1.0, 0.0), (-1.0, 0.0)),
        ("annulus", (2.0, 0.0), (1.0, 0.0)),
        # tangent_degenerate's band 0.5 <= r <= 2.5, on the y-axis
        ("tangent_degenerate", (0.0, 0.5), (0.0, -1.0)),
        ("tangent_degenerate", (0.0, -2.5), (0.0, -1.0)),
        # nonnegative octant, each face
        ("prey_predator", (0.0, 0.3, 0.4), (-1.0, 0.0, 0.0)),
        ("prey_predator", (0.3, 0.0, 0.4), (0.0, -1.0, 0.0)),
        ("prey_predator", (0.3, 0.4, 0.0), (0.0, 0.0, -1.0)),
        # cylinder height 0 <= h <= 1.25
        ("doubling_suspension", (1.0, 0.0, 0.0), (0.0, 0.0, -1.0)),
        ("doubling_suspension", (0.0, 1.0, 1.25), (0.0, 0.0, 1.0)),
        # unit box, each face
        ("static_null", (0.0, 0.5), (-1.0, 0.0)),
        ("static_null", (1.0, 0.5), (1.0, 0.0)),
        ("static_null", (0.5, 0.0), (0.0, -1.0)),
        ("static_null", (0.5, 1.0), (0.0, 1.0)),
    ])
    def test_region_tolerance(self, name, state, outward):
        sys_spec = build_fixture(name)
        x, u = np.array(state), np.array(outward)
        assert sys_spec.admissible(x)
        assert sys_spec.admissible(x + 0.5e-6 * u)
        assert not sys_spec.admissible(x + 2e-6 * u)
