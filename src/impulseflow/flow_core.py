"""Continuous flows: builtin vector fields, level functions, and an adaptive
embedded Runge-Kutta 5(4) stepper with PI step-size control and dense output.

States are plain float ndarrays.  Every field and level function is vectorized
over a leading batch axis, and ``BatchStepper`` advances a whole batch of
independent states with a shared adaptive step; this is what makes the
separated-set entropy estimator affordable.  The quartic in-step interpolant
(``dense_*``) is written here only.

The stepping loop itself is the propagation engine of ``impulsive_system``:
``flow`` runs it as its case with no impulsive-set pieces, for one time or
for an increasing array of times sampled from one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "IntegratorConfig",
    "VectorFieldSpec",
    "StepSizeUnderflow",
    "RegionEscape",
    "eval_vector_field",
    "flow",
    "level_value",
    "level_gradient",
    "system_dimension",
]


class StepSizeUnderflow(RuntimeError):
    """Adaptive step fell below ``min_step`` without meeting the tolerance."""


class RegionEscape(RuntimeError):
    """A trajectory left the admissible region of its system."""


# --------------------------------------------------------------------------
# Specs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step bounds for the adaptive integrator.

    Defaults keep the event-location error well below the smallest radius used
    by the entropy estimator.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float = 0.1
    min_step: float = 1e-14

    def __post_init__(self):
        if not (0 < self.min_step <= self.max_step):
            raise ValueError("require 0 < min_step <= max_step")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class VectorFieldSpec:
    """A builtin right-hand side f in x' = f(x), selected by id.

    ``params`` override the field's defaults by name; every builtin field
    parameter is a positive rate.
    """

    system_id: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.system_id not in _FIELDS:
            raise ValueError(f"unknown system_id {self.system_id!r}")
        defaults = _FIELDS[self.system_id][2]
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise ValueError(f"unknown {self.system_id} parameters {sorted(unknown)}")
        merged = {**defaults, **self.params}
        for name, value in merged.items():
            if not value > 0:
                raise ValueError(f"{self.system_id} parameter {name} must be > 0")
        object.__setattr__(self, "params", merged)


# --------------------------------------------------------------------------
# Builtin fields, all vectorized over (..., dim)
# --------------------------------------------------------------------------

def _field_annulus(params, x):
    # rigid rotation: r' = 0, theta' = 1, written in Cartesian coordinates
    out = np.empty_like(x)
    out[..., 0] = -x[..., 1]
    out[..., 1] = x[..., 0]
    return out


def _field_prey_predator(params, x):
    a1 = params["alpha1"]
    b1 = params["beta1"]
    b2 = params["beta2"]
    g2 = params["gamma2"]
    n2 = params["nu2"]
    m1 = params["mu1"]
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    denom = 1.0 + b1 * x1 + b2 * x2
    out = np.empty_like(x)
    out[..., 0] = -(x1 + a1 * x3) * x1 / denom
    out[..., 1] = -(g2 * x2 + n2 * x3) * x2 / denom
    out[..., 2] = -m1 * x3 / denom
    return out


def _field_doubling_suspension(params, x):
    # unit-speed vertical flow on the cylinder embedded as (cos a, sin a, h)
    out = np.zeros_like(x)
    out[..., 2] = 1.0
    return out


def _field_static_null(params, x):
    return np.zeros_like(x)


# system_id -> (state dimension, field, parameter defaults)
_FIELDS: dict[str, tuple[int, Callable, Mapping[str, float]]] = {
    "annulus": (2, _field_annulus, {}),
    "prey_predator": (3, _field_prey_predator, dict.fromkeys(
        ("alpha1", "alpha2", "beta1", "beta2", "gamma1",
         "gamma2", "nu1", "nu2", "mu1", "mu2"), 1.0)),
    "doubling_suspension": (3, _field_doubling_suspension, {}),
    "static_null": (2, _field_static_null, {}),
    "tangent_degenerate": (2, _field_annulus, {}),
}


def system_dimension(spec: VectorFieldSpec) -> int:
    """State dimension of a builtin system."""
    return _FIELDS[spec.system_id][0]


def eval_vector_field(spec: VectorFieldSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate the right-hand side f(x) of a builtin system.

    ``x`` may carry a leading batch axis.  Raises on dimension mismatch or a
    non-finite result (the usual symptom of a state far outside the region the
    field was written for).
    """
    x = np.asarray(x, dtype=float)
    dim, fn, _ = _FIELDS[spec.system_id]
    if x.shape[-1] != dim:
        raise ValueError(
            f"state dimension {x.shape[-1]} does not match system "
            f"{spec.system_id!r} (expected {dim})"
        )
    out = fn(spec.params, x)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"vector field of {spec.system_id!r} returned non-finite values")
    return out


def make_rhs(spec: VectorFieldSpec, sign: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Bind a field spec into a plain callable; sign=-1 gives the time-reversed
    field (valid for the builtin systems, whose flows are invertible)."""
    fn = _FIELDS[spec.system_id][1]
    params = spec.params
    if sign == 1.0:
        return lambda x: fn(params, x)
    return lambda x: -fn(params, x)


# --------------------------------------------------------------------------
# Level functions (analytic values and gradients)
# --------------------------------------------------------------------------

def _level_coord(i):
    def value(x):
        return x[..., i]

    def grad(x):
        g = np.zeros_like(x)
        g[..., i] = 1.0
        return g

    return value, grad


def _level_sum():
    def value(x):
        return x.sum(axis=-1)

    def grad(x):
        return np.ones_like(x)

    return value, grad


def _level_radius():
    def value(x):
        return np.hypot(x[..., 0], x[..., 1])

    def grad(x):
        r = np.hypot(x[..., 0], x[..., 1])
        g = np.zeros_like(x)
        g[..., 0] = x[..., 0] / r
        g[..., 1] = x[..., 1] / r
        return g

    return value, grad


def _level_angle():
    def value(x):
        return np.arctan2(x[..., 1], x[..., 0])

    def grad(x):
        r2 = x[..., 0] ** 2 + x[..., 1] ** 2
        g = np.zeros_like(x)
        g[..., 0] = -x[..., 1] / r2
        g[..., 1] = x[..., 0] / r2
        return g

    return value, grad


_LEVELS: dict[str, tuple[Callable, Callable]] = {
    "coord0": _level_coord(0),
    "coord1": _level_coord(1),
    "coord2": _level_coord(2),
    "sum": _level_sum(),
    "radius": _level_radius(),
    "angle": _level_angle(),
}


def level_value(level_id: str, x: np.ndarray) -> np.ndarray:
    """Evaluate a builtin level function L at x (batched)."""
    try:
        value, _ = _LEVELS[level_id]
    except KeyError:
        raise ValueError(f"unknown level_id {level_id!r}") from None
    return value(np.asarray(x, dtype=float))


def level_gradient(level_id: str, x: np.ndarray) -> np.ndarray:
    """Analytic gradient of a builtin level function (no finite differences)."""
    try:
        _, grad = _LEVELS[level_id]
    except KeyError:
        raise ValueError(f"unknown level_id {level_id!r}") from None
    return grad(np.asarray(x, dtype=float))


# --------------------------------------------------------------------------
# Dormand-Prince 5(4) tableau and dense-output coefficients
# --------------------------------------------------------------------------

_RK_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])

_RK_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]

# weights of the propagated 5th-order solution (row 7 of A; FSAL scheme)
_RK_B = _RK_A[6]

# difference between 5th- and 4th-order weights: local error estimator
_RK_E = np.array([
    71 / 57600, 0.0, -71 / 16695, 71 / 1920,
    -17253 / 339200, 22 / 525, -1 / 40,
])

# quartic interpolant: y(t0 + u*h) = y0 + h * K^T (P @ [u, u^2, u^3, u^4])
_RK_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_N_STAGES = 7
_ERR_EXP = 1.0 / 5.0
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents (accepted steps): h *= safety * err^-kI * err_prev^kP
_PI_KI = 0.7 / 5.0
_PI_KP = 0.4 / 5.0
# the controller aims below the user tolerance so that the accumulated global
# error of integrations up to t ~ 100 stays within the advertised per-call
# bound (abs_tol + rel_tol * |x|)
_TARGET_FRACTION = 0.1


class BatchStepper:
    """Advance a batch of independent states of one autonomous field with a
    shared adaptive step.

    The step size is controlled by the worst member of the batch, so every
    member meets the configured tolerance.  Each accepted step exposes the
    stage array needed for dense (quartic) in-step evaluation.
    """

    def __init__(self, rhs, y0: np.ndarray, cfg: IntegratorConfig):
        self.rhs = rhs
        self.y = np.array(y0, dtype=float)
        if self.y.ndim != 2:
            raise ValueError("BatchStepper expects states of shape (n, dim)")
        self.cfg = cfg
        self.n, self.dim = self.y.shape
        self.k1 = rhs(self.y)
        self.active = np.ones(self.n, dtype=bool)
        self.rejected = 0   # steps rejected by the error test, over the stepper's life
        self._err_prev = 1.0
        self.h = self._initial_step()

    def _initial_step(self):
        cfg = self.cfg
        scale = cfg.abs_tol + cfg.rel_tol * np.abs(self.y)
        d0 = np.sqrt(np.mean((self.y / scale) ** 2, axis=1)).max()
        d1 = np.sqrt(np.mean((self.k1 / scale) ** 2, axis=1)).max()
        if d0 < 1e-5 or d1 < 1e-5:
            h0 = 1e-6
        else:
            h0 = 0.01 * d0 / d1
        return min(h0, cfg.max_step)

    def refresh_derivative(self, idx):
        """Recompute f for members whose state changed out-of-band (impulses)."""
        self.k1[idx] = self.rhs(self.y[idx])

    def step(self, h_cap: float):
        """Take one accepted step of size <= h_cap.

        Returns (h, y_new, K) without committing: the caller decides how far
        each member actually advances (events may cut a member's step short)
        and then calls commit().
        """
        cfg = self.cfg
        h = min(self.h, h_cap, cfg.max_step)
        active = self.active
        nd = self.n * self.dim
        yf = self.y.reshape(nd)
        while True:
            if h < cfg.min_step:
                raise StepSizeUnderflow(f"step size {h:.3e} below min_step")
            Kf = np.empty((_N_STAGES, nd))
            Kf[0] = self.k1.reshape(nd)
            for s in range(1, _N_STAGES - 1):
                ys = yf + h * (_RK_A[s] @ Kf[:s])
                Kf[s] = self.rhs(ys.reshape(self.n, self.dim)).reshape(nd)
            y_new_f = yf + h * (_RK_B @ Kf[:6])
            y_new = y_new_f.reshape(self.n, self.dim)
            Kf[6] = self.rhs(y_new).reshape(nd)
            K = Kf.reshape(_N_STAGES, self.n, self.dim)

            err_vec = (h * (_RK_E @ Kf)).reshape(self.n, self.dim)
            scale = (cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(self.y), np.abs(y_new)))
            scale *= _TARGET_FRACTION
            if active.any():
                err = np.sqrt(np.mean((err_vec[active] / scale[active]) ** 2, axis=1)).max()
            else:
                err = 0.0

            if err <= 1.0:
                if err == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = _SAFETY * err ** (-_PI_KI) * self._err_prev ** _PI_KP
                    factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                self.h = min(cfg.max_step, h * factor)
                self._err_prev = max(err, 1e-4)
                return h, y_new, K
            self.rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * err ** (-_ERR_EXP))

    def commit(self, y_new, K):
        """Accept the proposed step for every member (FSAL reuse of stage 7)."""
        self.y = y_new
        self.k1 = K[6].copy()


def dense_coefficients(K) -> np.ndarray:
    """Per-member quartic coefficients q = K^T P of the in-step interpolant,
    shape (n, dim, 4): y(t0 + u*h) = y0 + h * q @ [u, u^2, u^3, u^4]."""
    return np.einsum("snd,sj->ndj", K, _RK_P)


def dense_eval_coefficients(y0, q, h, u):
    """Evaluate the in-step interpolant from coefficients ``dense_coefficients``
    computed once per step; ``u`` has one entry per member, in [0, 1]."""
    u = np.asarray(u, dtype=float)
    powers = u[..., None] ** np.arange(1, 5)
    return y0 + h * np.einsum("ndj,nj->nd", q, powers)


def dense_eval_member(y0, K, h, u):
    """The in-step interpolant of one member (``y0`` of shape (dim,), ``K``
    of shape (7, dim)) at several fractions ``u`` of the step; shape
    (len(u), dim)."""
    q = K.T @ _RK_P
    return y0 + h * ((u[:, None] ** np.arange(1, 5)) @ q.T)


def dense_eval(y0, K, h, u):
    """Evaluate the in-step quartic interpolant at fractions ``u`` of the step.

    y0, K are the per-member slices returned by ``BatchStepper.step``; ``u``
    has one entry per member, in [0, 1].
    """
    return dense_eval_coefficients(y0, dense_coefficients(K), h, u)


def flow(spec: VectorFieldSpec, x: np.ndarray, t,
         cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Flow a state (or batch of states) of a builtin system for time ``t``.

    ``t`` may also be a 1-D array of times of one sign whose magnitudes
    strictly increase; all of them are sampled from one run on the
    integrator's dense output, and the result gains a time axis before the
    state axis: shape (..., len(t), dim).

    Negative times integrate the reversed field, which is meaningful for the
    builtin systems only because their flows are invertible.  The flow is
    the propagation engine's case with no impulsive-set pieces.
    """
    # imported on call: the engine's module imports this one
    from .impulsive_system import _propagate

    cfg = cfg or IntegratorConfig()
    x = np.asarray(x, dtype=float)
    batch = np.atleast_2d(x)
    if batch.shape[-1] != system_dimension(spec):
        raise ValueError("state dimension does not match system")
    times = np.asarray(t, dtype=float)
    sign = -1.0 if (times < 0).any() else 1.0
    span = sign * times
    if times.ndim == 0:
        if t == 0:
            return x.copy()
        out = _propagate(spec, batch, span, cfg, time_sign=sign).final
    else:
        if (times.ndim != 1 or not len(span) or span[0] < 0
                or (np.diff(span) <= 0).any()):
            raise ValueError("times must be one sign with strictly increasing "
                             "magnitude")
        out = _propagate(spec, batch, span[-1], cfg, sample_grid=span,
                         time_sign=sign).samples
    return out[0] if x.ndim == 1 else out
