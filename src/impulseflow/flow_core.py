"""Continuous flows: the vector-field spec, the linear and radius level
functions, and the adaptive DOP853 stepper (the 8(5,3) Runge-Kutta pair of
Dormand and Prince) with its degree-7 dense output.

A field is given by value, ``VectorFieldSpec(dim, fn)``, and a level by its
object, ``LinearLevel(a)`` with explicit weights or ``RadiusLevel()``; the
builtin systems' fields live beside their builders in ``systems``.  States
are plain float ndarrays.  Every field and level function is vectorized
over a leading batch axis, and ``BatchStepper`` advances a whole batch of
independent states with a shared adaptive step; this is what makes the
separated-set entropy estimator affordable.  The in-step interpolant is built
by ``BatchStepper.interpolant`` and evaluated by ``dense_eval``, here only.

The stepping loop itself is the propagation engine of ``impulsive_system``:
``flow`` runs it as its case with no impulsive-set pieces, for one time or
for an increasing array of times sampled from one run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "IntegratorConfig",
    "VectorFieldSpec",
    "LinearLevel",
    "RadiusLevel",
    "StepSizeUnderflow",
    "RegionEscape",
    "eval_vector_field",
    "flow",
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
    by the entropy estimator.  Hit detection needs no step cap; ``max_step``
    bounds the global error instead.  DOP853 would step about 0.27 on the
    annulus, where a radius error of 4e-11 moves a crossing of the chord
    y = 1.49999 of the circle r = 1.5 by 7e-9; at 0.2 it is 5e-12 and 9e-10.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_step: float = 0.2
    min_step: float = 1e-14

    def __post_init__(self):
        if not (0 < self.min_step <= self.max_step):
            raise ValueError("require 0 < min_step <= max_step")
        if not (self.abs_tol > 0 and self.rel_tol > 0):     # NaN too
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class VectorFieldSpec:
    """A right-hand side f in x' = f(x) on states of dimension ``dim``:
    ``fn`` maps states (..., dim) to their derivatives, vectorized over the
    leading axes."""

    dim: int
    fn: Callable[[np.ndarray], np.ndarray] = field(compare=False, repr=False)


def check_dimension(spec: VectorFieldSpec, x: np.ndarray) -> None:
    """Raise ValueError unless the states ``x`` (..., dim) match the field."""
    if x.shape[-1] != spec.dim:
        raise ValueError(
            f"state dimension {x.shape[-1]} does not match the field's "
            f"(expected {spec.dim})"
        )


def eval_vector_field(spec: VectorFieldSpec, x: np.ndarray) -> np.ndarray:
    """Evaluate the right-hand side f(x).

    ``x`` may carry a leading batch axis.  Raises on dimension mismatch or a
    non-finite result (the usual symptom of a state far outside the region the
    field was written for).
    """
    x = np.asarray(x, dtype=float)
    check_dimension(spec, x)
    out = spec.fn(x)
    if not np.all(np.isfinite(out)):
        raise ValueError("the vector field returned non-finite values")
    return out


# --------------------------------------------------------------------------
# Level functions: analytic values and gradients, and the polynomial form
# that the propagation engine scans along each integration step
# --------------------------------------------------------------------------

class LinearLevel:
    """The linear level a . x with the weights ``a``; its form for the value
    c is a . x - c, which has degree 7 along one step of the dense output."""

    def __init__(self, a):
        self.a = np.array(a, dtype=float)
        self.a.flags.writeable = False

    def value(self, x):
        return x @ self.a

    def grad(self, x):
        return np.broadcast_to(self.a, x.shape).copy()

    def form(self, x, c):
        return self.value(x) - c

    def form_along_step(self, B, c):
        """Bernstein coefficients (8, m) of the form along the steps whose
        interpolants have the coefficients ``B`` (``dense_bernstein``), and
        the form's magnitude scale (m,): the form with |a|, |B| and |c|."""
        return B @ self.a - c, np.maximum.reduce(np.abs(B)) @ np.abs(self.a) + abs(c)


class RadiusLevel:
    """The radius |(x1, x2)|; its form for the value c >= 0 is
    x1^2 + x2^2 - c^2, with the same zero set and sign, which has degree 14
    along one step of the dense output."""

    def value(self, x):
        return np.hypot(x[..., 0], x[..., 1])

    def grad(self, x):
        r = self.value(x)
        g = np.zeros_like(x)
        g[..., 0] = x[..., 0] / r
        g[..., 1] = x[..., 1] / r
        return g

    def form(self, x, c):
        return x[..., 0] ** 2 + x[..., 1] ** 2 - c * c

    def form_along_step(self, B, c):
        P = B[..., :2]
        size = np.maximum.reduce(np.abs(P))
        pairs = np.einsum("imd,jmd->ijm", P, P).reshape(64, P.shape[1])
        return (_PRODUCT_77.reshape(15, 64) @ pairs - c * c,
                np.add.reduce(size * size, axis=-1) + c * c)


# --------------------------------------------------------------------------
# DOP853: the 8(5,3) Runge-Kutta pair of Dormand and Prince with its degree-7
# dense output (Hairer, Norsett & Wanner, Solving ODEs I, II.5-II.6), with
# the coefficients of Hairer's Fortran code
# --------------------------------------------------------------------------

_N_STAGES = 12          # stages of one step; stage 13 is f at the new state (FSAL)
_N_STAGES_EXTENDED = 16  # the last 3 are computed only for the dense output

_A = np.zeros((_N_STAGES_EXTENDED, _N_STAGES_EXTENDED))
_A[1, 0] = 5.26001519587677318785587544488e-2
_A[2, [0, 1]] = (1.97250569845378994544595329183e-2,
                 5.91751709536136983633785987549e-2)
_A[3, [0, 2]] = (2.95875854768068491816892993775e-2,
                 8.87627564304205475450678981324e-2)
_A[4, [0, 2, 3]] = (2.41365134159266685502369798665e-1,
                    -8.84549479328286085344864962717e-1,
                    9.24834003261792003115737966543e-1)
_A[5, [0, 3, 4]] = (3.7037037037037037037037037037e-2,
                    1.70828608729473871279604482173e-1,
                    1.25467687566822425016691814123e-1)
_A[6, [0, 3, 4, 5]] = (3.7109375e-2,
                       1.70252211019544039314978060272e-1,
                       6.02165389804559606850219397283e-2,
                       -1.7578125e-2)
_A[7, [0, 3, 4, 5, 6]] = (3.70920001185047927108779319836e-2,
                          1.70383925712239993810214054705e-1,
                          1.07262030446373284651809199168e-1,
                          -1.53194377486244017527936158236e-2,
                          8.27378916381402288758473766002e-3)
_A[8, [0, 3, 4, 5, 6, 7]] = (6.24110958716075717114429577812e-1,
                             -3.36089262944694129406857109825,
                             -8.68219346841726006818189891453e-1,
                             2.75920996994467083049415600797e1,
                             2.01540675504778934086186788979e1,
                             -4.34898841810699588477366255144e1)
_A[9, [0, 3, 4, 5, 6, 7, 8]] = (4.77662536438264365890433908527e-1,
                                -2.48811461997166764192642586468,
                                -5.90290826836842996371446475743e-1,
                                2.12300514481811942347288949897e1,
                                1.52792336328824235832596922938e1,
                                -3.32882109689848629194453265587e1,
                                -2.03312017085086261358222928593e-2)
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = (-9.3714243008598732571704021658e-1,
                                    5.18637242884406370830023853209,
                                    1.09143734899672957818500254654,
                                    -8.14978701074692612513997267357,
                                    -1.85200656599969598641566180701e1,
                                    2.27394870993505042818970056734e1,
                                    2.49360555267965238987089396762,
                                    -3.0467644718982195003823669022)
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = (2.27331014751653820792359768449,
                                        -1.05344954667372501984066689879e1,
                                        -2.00087205822486249909675718444,
                                        -1.79589318631187989172765950534e1,
                                        2.79488845294199600508499808837e1,
                                        -2.85899827713502369474065508674,
                                        -8.87285693353062954433549289258,
                                        1.23605671757943030647266201528e1,
                                        6.43392746015763530355970484046e-1)
_A[12, [0, 5, 6, 7, 8, 9, 10, 11]] = (5.42937341165687622380535766363e-2,
                                      4.45031289275240888144113950566,
                                      1.89151789931450038304281599044,
                                      -5.8012039600105847814672114227,
                                      3.1116436695781989440891606237e-1,
                                      -1.52160949662516078556178806805e-1,
                                      2.01365400804030348374776537501e-1,
                                      4.47106157277725905176885569043e-2)
_A[13, [0, 6, 7, 8, 9, 10, 11, 12]] = (5.61675022830479523392909219681e-2,
                                       2.53500210216624811088794765333e-1,
                                       -2.46239037470802489917441475441e-1,
                                       -1.24191423263816360469010140626e-1,
                                       1.5329179827876569731206322685e-1,
                                       8.20105229563468988491666602057e-3,
                                       7.56789766054569976138603589584e-3,
                                       -8.298e-3)
_A[14, [0, 5, 6, 7, 10, 11, 12, 13]] = (3.18346481635021405060768473261e-2,
                                        2.83009096723667755288322961402e-2,
                                        5.35419883074385676223797384372e-2,
                                        -5.49237485713909884646569340306e-2,
                                        -1.08347328697249322858509316994e-4,
                                        3.82571090835658412954920192323e-4,
                                        -3.40465008687404560802977114492e-4,
                                        1.41312443674632500278074618366e-1)
_A[15, [0, 5, 6, 7, 8, 12, 13, 14]] = (-4.28896301583791923408573538692e-1,
                                       -4.69762141536116384314449447206,
                                       7.68342119606259904184240953878,
                                       4.06898981839711007970213554331,
                                       3.56727187455281109270669543021e-1,
                                       -1.39902416515901462129418009734e-3,
                                       2.9475147891527723389556272149,
                                       -9.15095847217987001081870187138)

# weights of the propagated 8th-order solution (row 13 of A)
_B = _A[_N_STAGES, :_N_STAGES]

# 3rd- and 5th-order error estimators, over the 12 stages and the FSAL stage
_E3 = np.zeros(_N_STAGES + 1)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1

_E5 = np.zeros(_N_STAGES + 1)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = (0.1312004499419488073250102996e-1,
                                   -0.1225156446376204440720569753e+1,
                                   -0.4957589496572501915214079952,
                                   0.1664377182454986536961530415e+1,
                                   -0.3503288487499736816886487290,
                                   0.3341791187130174790297318841,
                                   0.8192320648511571246570742613e-1,
                                   -0.2235530786388629525884427845e-1)
_E53 = np.stack([_E5, _E3])   # both estimators in one product

# rows 4-7 of the interpolant (rows 1-3 come from the step's ends), over
# all 16 stages
_D = np.zeros((4, _N_STAGES_EXTENDED))
_D[0, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (-0.84289382761090128651353491142e+1,
                                                     0.56671495351937776962531783590,
                                                     -0.30689499459498916912797304727e+1,
                                                     0.23846676565120698287728149680e+1,
                                                     0.21170345824450282767155149946e+1,
                                                     -0.87139158377797299206789907490,
                                                     0.22404374302607882758541771650e+1,
                                                     0.63157877876946881815570249290,
                                                     -0.88990336451333310820698117400e-1,
                                                     0.18148505520854727256656404962e+2,
                                                     -0.91946323924783554000451984436e+1,
                                                     -0.44360363875948939664310572000e+1)
_D[1, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (0.10427508642579134603413151009e+2,
                                                     0.24228349177525818288430175319e+3,
                                                     0.16520045171727028198505394887e+3,
                                                     -0.37454675472269020279518312152e+3,
                                                     -0.22113666853125306036270938578e+2,
                                                     0.77334326684722638389603898808e+1,
                                                     -0.30674084731089398182061213626e+2,
                                                     -0.93321305264302278729567221706e+1,
                                                     0.15697238121770843886131091075e+2,
                                                     -0.31139403219565177677282850411e+2,
                                                     -0.93529243588444783865713862664e+1,
                                                     0.35816841486394083752465898540e+2)
_D[2, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (0.19985053242002433820987653617e+2,
                                                     -0.38703730874935176555105901742e+3,
                                                     -0.18917813819516756882830838328e+3,
                                                     0.52780815920542364900561016686e+3,
                                                     -0.11573902539959630126141871134e+2,
                                                     0.68812326946963000169666922661e+1,
                                                     -0.10006050966910838403183860980e+1,
                                                     0.77771377980534432092869265740,
                                                     -0.27782057523535084065932004339e+1,
                                                     -0.60196695231264120758267380846e+2,
                                                     0.84320405506677161018159903784e+2,
                                                     0.11992291136182789328035130030e+2)
_D[3, [0, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]] = (-0.25693933462703749003312586129e+2,
                                                     -0.15418974869023643374053993627e+3,
                                                     -0.23152937917604549567536039109e+3,
                                                     0.35763911791061412378285349910e+3,
                                                     0.93405324183624310003907691704e+2,
                                                     -0.37458323136451633156875139351e+2,
                                                     0.10409964950896230045147246184e+3,
                                                     0.29840293426660503123344363579e+2,
                                                     -0.43533456590011143754432175058e+2,
                                                     0.96324553959188282948394950600e+2,
                                                     -0.39177261675615439165231486172e+2,
                                                     -0.14972683625798562581422125276e+3)


def _interpolant_to_bernstein():
    """The map from (y0, F0..F6) to the degree-7 Bernstein coefficients of
    the interpolant y0 + u (F0 + v (F1 + u (F2 + ... + u F6))), v = 1 - u.
    F_k carries u^i v^j with i = k // 2 + 1 and j = (k + 1) // 2, and u^i v^j
    is the sum over m of C(7 - i - j, m - i) / C(7, m) times the m-th basis
    polynomial C(7, m) u^m v^(7 - m)."""
    out = np.zeros((8, 8))
    out[:, 0] = 1.0
    for k in range(7):
        i, j = k // 2 + 1, (k + 1) // 2
        for m in range(i, 8 - j):
            out[m, k + 1] = math.comb(7 - i - j, m - i) / math.comb(7, m)
    return out


def _bernstein_product():
    """The product of two degree-7 Bernstein polynomials in the degree-14
    basis: coefficient i + j gains C(7, i) C(7, j) / C(14, i + j) b_i b'_j."""
    out = np.zeros((15, 8, 8))
    for i in range(8):
        for j in range(8):
            out[i + j, i, j] = math.comb(7, i) * math.comb(7, j) / math.comb(14, i + j)
    return out


_TO_BERNSTEIN = _interpolant_to_bernstein()
_PRODUCT_77 = _bernstein_product()

# step control: h *= safety * err^(-1/8) (the error estimate is O(h^8)),
# by a factor within [min, max]
_ERR_EXP = -1.0 / 8.0
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
# the controller aims below the user tolerance so that the accumulated global
# error of integrations up to t ~ 100 stays within the advertised per-call
# bound (abs_tol + rel_tol * |x|)
_TARGET_FRACTION = 0.1


class BatchStepper:
    """Advance a batch of independent states of one autonomous field with a
    shared adaptive step.

    The step size is controlled by the worst member of the batch, so every
    member meets the configured tolerance.  Each accepted step exposes its
    stages, from which ``interpolant`` builds the step's dense output.
    The stepper holds only running members: ``keep`` drops the others.
    """

    FSAL = _N_STAGES    # the row of a step's K that holds f at y_new

    def __init__(self, rhs, y0: np.ndarray, cfg: IntegratorConfig):
        self.rhs = rhs
        self.y = np.array(y0, dtype=float)
        if self.y.ndim != 2:
            raise ValueError("BatchStepper expects states of shape (n, dim)")
        self.cfg = cfg
        self.n, self.dim = self.y.shape
        self.k1 = rhs(self.y)
        self.rejected = 0   # steps rejected by the error test, over the stepper's life
        self.h = self._initial_step()
        self._coef, self._coef_h = np.ones((_N_STAGES + 1, _N_STAGES + 1)), None
        self._buffer = np.empty((_N_STAGES_EXTENDED + 1) * self.n * self.dim)
        self.keep(slice(None))

    def keep(self, rows):
        """Keep only the members ``rows`` (a slice, index or mask array): a
        member leaves the shared step when its run ends."""
        self.y, self.k1 = self.y[rows], self.k1[rows]
        self.n = len(self.y)
        # the step buffer, a contiguous prefix of the one allocated at the
        # start (a strided view would change the products' rounding): row 0
        # holds y and row s + 1 stage s, so that each stage state is one
        # product with the row [1, h * A[s]] of _coef, kept while h is; a
        # step's K is a view of it, read before the next step
        self._YK = self._buffer[:(_N_STAGES_EXTENDED + 1) * self.n * self.dim].reshape(
            _N_STAGES_EXTENDED + 1, self.n * self.dim)
        rows = self._YK.reshape(_N_STAGES_EXTENDED + 1, self.n, self.dim)
        self._stages = [(self._coef[s, :s + 1], self._YK[:s + 1], rows[s + 1])
                        for s in range(1, _N_STAGES + 1)]

    def _initial_step(self):
        cfg = self.cfg
        scale = cfg.abs_tol + cfg.rel_tol * np.abs(self.y)
        d0 = np.sqrt(np.mean((self.y / scale) ** 2, axis=1)).max(initial=0.0)
        d1 = np.sqrt(np.mean((self.k1 / scale) ** 2, axis=1)).max(initial=0.0)
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
        and then calls commit().  K has shape (16, n, dim): the 12 stages,
        f at y_new, and 3 rows that ``interpolant`` fills.
        """
        cfg = self.cfg
        h = float(min(self.h, h_cap, cfg.max_step))
        n, dim = self.n, self.dim
        self._YK[:2] = self.y.reshape(-1), self.k1.reshape(-1)
        rejected = False
        while True:
            if not h >= cfg.min_step:     # NaN too: a field non-finite at a stage
                raise StepSizeUnderflow(f"step size {h:.3e} below min_step")
            if h != self._coef_h:
                np.multiply(h, _A[:_N_STAGES + 1, :_N_STAGES], out=self._coef[:, 1:])
                self._coef_h = h
            for coef, rows, out in self._stages:
                ys = (coef @ rows).reshape(n, dim)
                out[...] = self.rhs(ys)
            y_new = ys      # row 13 of A is B: the last stage state is y_new

            scale = (cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(self.y), np.abs(y_new)))
            scale *= _TARGET_FRACTION
            # DOP853's combined norm, per member: with e5, e3 the squared
            # scaled norms of the two estimators, h e5 / sqrt((e5 + 0.01 e3) dim)
            e = (_E53 @ self._YK[1:_N_STAGES + 2]).reshape(2, n, dim) / scale
            e5, e3 = np.einsum("knd,knd->kn", e, e)
            denom = np.sqrt((e5 + 0.01 * e3) * dim)
            ratio = np.divide(e5, denom, out=np.zeros(n), where=denom > 0)
            err = h * np.maximum.reduce(ratio)

            if err < 1.0:
                if err == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * err ** _ERR_EXP)
                if rejected:
                    factor = min(1.0, factor)
                self.h = min(cfg.max_step, h * factor)
                return h, y_new, self._YK[1:].reshape(_N_STAGES_EXTENDED, n, dim)
            self.rejected += 1
            rejected = True
            h *= max(_MIN_FACTOR, _SAFETY * err ** _ERR_EXP)

    def interpolant(self, h, y_new, K):
        """Coefficients F, shape (7, n, dim), of the degree-7 dense output of
        the proposed step ``(h, y_new, K)``, which ``dense_eval`` evaluates.
        They cost 3 more stages, written into the last rows of K."""
        n, dim = self.n, self.dim
        Kf = K.reshape(_N_STAGES_EXTENDED, n * dim)
        yf = self.y.reshape(n * dim)
        for s in range(_N_STAGES + 1, _N_STAGES_EXTENDED):
            ys = yf + h * (_A[s, :s] @ Kf[:s])
            Kf[s] = self.rhs(ys.reshape(n, dim)).reshape(-1)
        dy = y_new - self.y
        F = np.empty((7, n, dim))
        F[0] = dy
        F[1] = h * K[0] - dy
        F[2] = 2.0 * dy - h * (K[self.FSAL] + K[0])
        F[3:] = h * (_D @ Kf).reshape(4, n, dim)
        return F

    def commit(self, y_new, K):
        """Accept the proposed step for every member (FSAL reuse of stage 13)."""
        self.y = y_new
        self.k1 = K[self.FSAL].copy()


def dense_eval(y0, F, u):
    """Evaluate the degree-7 in-step interpolant at fractions ``u`` of the step.

    ``y0`` (m, dim) are the states at the step's start and ``F`` (7, m, dim)
    the rows of ``BatchStepper.interpolant`` for the same members; ``u`` has
    one entry per member, in [0, 1].  Every operation is elementwise, so a
    member's row does not depend on the batch it is evaluated in.
    """
    u = np.asarray(u, dtype=float)[:, None]
    v = 1.0 - u
    # y = y0 + u (F0 + v (F1 + u (F2 + v (F3 + u (F4 + v (F5 + u F6)))))),
    # Horner from the inside out; the weight is u for even rows, v for odd
    y = np.zeros(y0.shape)
    for k in range(6, -1, -1):
        y += F[k]
        y *= u if k % 2 == 0 else v
    y += y0
    return y


def dense_bernstein(y0, F):
    """Bernstein coefficients, shape (8, m, dim), of the degree-7 in-step
    interpolant on the whole step, u in [0, 1]; ``y0`` and ``F`` are as for
    ``dense_eval``.  The first row is y0 and the last y0 + F0."""
    m, dim = y0.shape
    rows = np.concatenate([y0[None], F]).reshape(8, m * dim)
    return (_TO_BERNSTEIN @ rows).reshape(8, m, dim)


def flow(spec: VectorFieldSpec, x: np.ndarray, t,
         cfg: IntegratorConfig | None = None) -> np.ndarray:
    """Flow a state (or batch of states) for time ``t``.

    ``t`` may also be a 1-D array of times of one sign whose magnitudes
    strictly increase; all of them are sampled from one run on the
    integrator's dense output, and the result gains a time axis before the
    state axis: shape (..., len(t), dim).

    Negative times integrate the reversed field, which is meaningful only
    for an invertible flow, as every builtin system's is.  The flow is
    the propagation engine's case with no impulsive-set pieces.
    """
    # imported on call: the engine's module imports this one
    from .impulsive_system import _propagate

    x = np.asarray(x, dtype=float)
    batch = np.atleast_2d(x)
    times = np.asarray(t, dtype=float)
    sign = -1.0 if (times < 0).any() else 1.0
    span = sign * times
    if times.ndim == 0:
        out = _propagate(spec, batch, span, cfg, time_sign=sign).final
    else:
        if (times.ndim != 1 or not len(span) or not span[0] >= 0
                or not (np.diff(span) > 0).all()):
            raise ValueError("times must be one sign with strictly increasing "
                             "magnitude")
        out = _propagate(spec, batch, span[-1], cfg, sample_grid=span,
                         time_sign=sign).samples
    return out[0] if x.ndim == 1 else out
