import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from impulseflow import (
    IntegratorConfig,
    LinearLevel,
    RadiusLevel,
    VectorFieldSpec,
    build_fixture,
    eval_vector_field,
    flow,
)
from impulseflow.flow_core import StepSizeUnderflow, dense_bernstein, dense_eval
from conftest import polar
from oracles import annulus_position, prey_predator_rhs


ANNULUS = build_fixture("annulus").field
PREY_PREDATOR = build_fixture("prey_predator").field


class TestEvalVectorField:
    def test_annulus_rotation(self):
        spec = ANNULUS
        assert np.allclose(eval_vector_field(spec, [1.0, 0.0]), [0.0, 1.0])
        assert np.allclose(eval_vector_field(spec, [0.0, 2.0]), [-2.0, 0.0])

    def test_prey_predator_origin_fixed(self):
        spec = PREY_PREDATOR
        assert np.allclose(eval_vector_field(spec, [0.0, 0.0, 0.0]), 0.0)

    def test_prey_predator_unit_point(self):
        # frozen from hand substitution, cross-checked by the transcription
        # oracle: denominator 3, numerators -(1+1), -(1+1), -1
        spec = PREY_PREDATOR
        out = eval_vector_field(spec, [1.0, 1.0, 1.0])
        assert np.allclose(out, [-2 / 3, -2 / 3, -1 / 3], atol=1e-15)
        assert np.allclose(out, prey_predator_rhs(np.ones(3)), atol=1e-15)

    def test_prey_predator_random_matches_oracle(self, rng):
        spec = PREY_PREDATOR
        for _ in range(25):
            x = rng.uniform(0.0, 2.0, 3)
            assert np.allclose(eval_vector_field(spec, x), prey_predator_rhs(x),
                               rtol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            eval_vector_field(ANNULUS, [1.0, 0.0, 0.0])

    def test_prey_predator_param_validation(self):
        with pytest.raises(ValueError, match="must be > 0"):
            build_fixture("prey_predator", {"mu1": 0.0})
        with pytest.raises(ValueError, match="unknown prey_predator"):
            build_fixture("prey_predator", {"mu3": 1.0})


class TestFlow:
    def test_identity_at_zero(self, cfg):
        x = np.array([1.3, 0.4])
        assert np.array_equal(flow(ANNULUS, x, 0.0, cfg), x)

    def test_annulus_quarter_turn(self, cfg):
        # closed form: theta(t) = theta0 + t, r constant
        out = flow(ANNULUS, polar(1.5, 0.0), np.pi / 2, cfg)
        assert np.allclose(out, polar(1.5, np.pi / 2), atol=1e-10)

    def test_annulus_long_horizon_matches_closed_form(self, cfg):
        out = flow(ANNULUS, polar(1.7, 0.3), 87.0, cfg)
        assert np.allclose(out, annulus_position(1.7, 0.3, 87.0), atol=5e-9)

    def test_prey_predator_sum_strictly_decreasing(self, cfg):
        spec = PREY_PREDATOR
        x = np.array([0.8, 0.6, 0.6])
        sums = [x.sum()]
        for _ in range(8):
            x = flow(spec, x, 0.5, cfg)
            sums.append(x.sum())
        assert all(a > b for a, b in zip(sums, sums[1:]))

    def test_prey_predator_octant_invariant(self, cfg, rng):
        spec = PREY_PREDATOR
        for _ in range(5):
            x = rng.uniform(0.01, 1.5, 3)
            out = flow(spec, x, 20.0, cfg)
            assert (out >= -1e-9).all()

    def test_backward_flow_inverts(self, cfg):
        spec = PREY_PREDATOR
        x = np.array([0.5, 0.4, 0.3])
        back = flow(spec, flow(spec, x, 3.0, cfg), -3.0, cfg)
        assert np.allclose(back, x, atol=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(s=st.floats(0.0, 10.0), t=st.floats(0.0, 10.0),
           r=st.floats(1.05, 1.95), theta=st.floats(0.0, 6.28))
    def test_semigroup_annulus(self, s, t, r, theta):
        cfg = IntegratorConfig()
        spec = ANNULUS
        x = polar(r, theta)
        a = flow(spec, flow(spec, x, s, cfg), t, cfg)
        b = flow(spec, x, s + t, cfg)
        bound = 10 * (cfg.abs_tol + cfg.rel_tol * np.linalg.norm(x))
        assert np.linalg.norm(a - b) <= bound

    @settings(max_examples=10, deadline=None)
    @given(s=st.floats(0.1, 10.0), t=st.floats(0.1, 10.0))
    def test_semigroup_prey_predator(self, s, t):
        cfg = IntegratorConfig()
        spec = PREY_PREDATOR
        x = np.array([0.9, 0.7, 0.4])
        a = flow(spec, flow(spec, x, s, cfg), t, cfg)
        b = flow(spec, x, s + t, cfg)
        bound = 10 * (cfg.abs_tol + cfg.rel_tol * np.linalg.norm(x))
        assert np.linalg.norm(a - b) <= bound

    def test_time_array_matches_closed_form_and_single_calls(self, cfg):
        spec = ANNULUS
        starts = [(1.2, 0.3), (1.9, 4.0), (1.5, 2.0)]
        X = np.stack([polar(r, th) for r, th in starts])
        times = np.array([0.0, 0.05, 0.7, np.pi, 5.0, 12.5])
        out = flow(spec, X, times, cfg)
        assert out.shape == (3, len(times), 2)
        assert np.array_equal(out[:, 0], X)
        for (r, th), x, path in zip(starts, X, out):
            for t, state in zip(times, path):
                assert np.abs(state - annulus_position(r, th, t)).max() < 1e-9
                assert np.abs(state - flow(spec, x, t, cfg)).max() < 1e-9

    def test_time_array_backward_and_single_state(self, cfg):
        spec = ANNULUS
        times = -np.array([0.2, 1.0, 4.5])
        out = flow(spec, polar(1.4, 1.0), times, cfg)
        assert out.shape == (3, 2)
        for t, state in zip(times, out):
            assert np.abs(state - annulus_position(1.4, 1.0, t)).max() < 1e-9

    def test_negative_time_and_batch(self, cfg):
        spec = ANNULUS
        X = np.stack([polar(1.1, 0.2), polar(1.8, 5.0)])
        for t in (-2.5, 3.0):
            out = flow(spec, X, t, cfg)
            assert out.shape == X.shape
            for (r, th), state in zip([(1.1, 0.2), (1.8, 5.0)], out):
                assert np.abs(state - annulus_position(r, th, t)).max() < 1e-9
        assert np.array_equal(flow(spec, X, 0.0, cfg), X)

    @pytest.mark.parametrize("times", [[1.0, 0.5], [0.5, 0.5], [-1.0, 2.0],
                                       [[0.5, 1.0]], [], [math.nan, 1.0],
                                       [0.5, math.nan, 1.0], [0.5, math.inf]])
    def test_time_array_validation(self, cfg, times):
        with pytest.raises(ValueError, match="times"):
            flow(ANNULUS, polar(1.5, 0.0), np.array(times), cfg)

    def test_input_checks(self, cfg):
        # a field that is NaN at the start makes the first step size NaN,
        # which must end the run rather than be rejected step after step
        spec = VectorFieldSpec(2, lambda x: np.sqrt(x - 1.0))
        with np.errstate(invalid="ignore"), pytest.raises(StepSizeUnderflow):
            flow(spec, np.array([0.5, 2.0]), 1.0, cfg)
        with pytest.raises(ValueError, match="state dimension 3 does not match"):
            flow(ANNULUS, [1.0, 0.0, 0.0], 1.0, cfg)
        with pytest.raises(ValueError, match="finite"):
            flow(ANNULUS, [math.nan, 1.0], 0.0, cfg)

    @pytest.mark.parametrize("t", [1.0, 10.0, 50.0, 100.0])
    def test_annulus_radius_conserved(self, cfg, t):
        x = polar(1.5, 0.7)
        out = flow(ANNULUS, x, t, cfg)
        bound = cfg.abs_tol + cfg.rel_tol * np.linalg.norm(x)
        assert abs(np.hypot(*out) - 1.5) <= bound


class TestLevels:
    def test_sum_gradient_is_ones(self, rng):
        x = rng.uniform(0, 2, 3)
        assert np.array_equal(LinearLevel((1.0, 1.0, 1.0)).grad(x), np.ones(3))

    def test_radius_gradient_is_unit_radial(self):
        x = polar(1.5, 1.1)
        g = RadiusLevel().grad(x)
        assert np.allclose(g, x / 1.5)
        assert np.isclose(np.linalg.norm(g), 1.0)

    def test_level_values(self):
        assert np.isclose(RadiusLevel().value(polar(1.5, 0.4)), 1.5)
        assert np.isclose(LinearLevel((1.0, 1.0, 1.0)).value(np.array([0.3, 0.3, 0.4])),
                          1.0)
        assert np.isclose(LinearLevel((0.0, 1.0)).value(np.array([2.0, -0.7])), -0.7)


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(min_step=1.0, max_step=0.1)
        with pytest.raises(ValueError):
            IntegratorConfig(abs_tol=0.0)
        for tol in ("abs_tol", "rel_tol"):
            with pytest.raises(ValueError, match="tolerances"):
                IntegratorConfig(**{tol: math.nan})


class TestDop853:
    def test_tableau_matches_scipy_bit_for_bit(self):
        from impulseflow import flow_core
        ref = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        for name in ("A", "B", "E3", "E5", "D"):
            ours, theirs = getattr(flow_core, "_" + name), getattr(ref, name)
            assert ours.shape == theirs.shape, name
            assert ours.tobytes() == theirs.tobytes(), name

    @staticmethod
    def _one_step(states, h):
        from impulseflow.flow_core import BatchStepper
        stepper = BatchStepper(PREY_PREDATOR.fn, states,
                               IntegratorConfig(abs_tol=1e-6, rel_tol=1e-6))
        stepper.h = h
        h, y_new, K = stepper.step(h)
        return stepper, h, y_new, K

    def test_step_and_dense_output_match_scipy(self, rng):
        # scipy's DOP853 takes the same first step from a forced step size;
        # its dense output is built from the same 16 stages
        from scipy.integrate import DOP853
        x0 = rng.uniform(0.2, 1.5, 3)
        stepper, h, y_new, K = self._one_step(x0[None, :], 0.05)
        F = stepper.interpolant(h, y_new, K)
        ref = DOP853(lambda t, y: eval_vector_field(PREY_PREDATOR, y), 0.0, x0, 1.0,
                     first_step=0.05, max_step=0.05, rtol=1e-6, atol=1e-6)
        ref.step()
        assert ref.t == h
        assert np.allclose(y_new[0], ref.y, rtol=0, atol=1e-15)
        u = np.linspace(0.0, 1.0, 11)
        ours = dense_eval(np.repeat(x0[None, :], len(u), axis=0),
                          np.repeat(F, len(u), axis=1), u)
        assert np.allclose(ours, ref.dense_output()(u * h).T, rtol=0, atol=1e-15)

    def test_dense_eval_ends_and_derivative(self, rng):
        x0 = rng.uniform(0.2, 1.5, (5, 3))
        stepper, h, y_new, K = self._one_step(x0, 0.05)
        F = stepper.interpolant(h, y_new, K)
        assert np.array_equal(dense_eval(x0, F, np.zeros(5)), x0)
        assert np.allclose(dense_eval(x0, F, np.ones(5)), y_new,
                           rtol=1e-15, atol=1e-16)

    def test_bernstein_coefficients_give_the_dense_output(self, rng):
        # sum_k C(7, k) u^k (1 - u)^(7 - k) B_k is the interpolant itself
        x0 = rng.uniform(0.2, 1.5, (5, 3))
        stepper, h, y_new, K = self._one_step(x0, 0.05)
        F = stepper.interpolant(h, y_new, K)
        B = dense_bernstein(x0, F)
        u = rng.uniform(0.0, 1.0, 5)
        basis = np.array([math.comb(7, k) * u ** k * (1 - u) ** (7 - k)
                          for k in range(8)])
        assert np.allclose(np.einsum("km,kmd->md", basis, B),
                           dense_eval(x0, F, u), rtol=0, atol=1e-15)
        assert np.array_equal(B[0], x0)
        assert np.allclose(B[-1], y_new, rtol=1e-15, atol=1e-16)

    def test_member_row_equals_its_row_in_a_batch(self, rng):
        x0 = rng.uniform(0.2, 1.5, (9, 3))
        stepper, h, y_new, K = self._one_step(x0, 0.05)
        F = stepper.interpolant(h, y_new, K)
        u = rng.uniform(0.0, 1.0, 9)
        batch = dense_eval(x0, F, u)
        for i in range(9):
            one = dense_eval(x0[i:i + 1], F[:, i:i + 1], u[i:i + 1])
            assert one.tobytes() == batch[i:i + 1].tobytes()
