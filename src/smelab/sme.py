"""Stochastic modified equations for the discrete algorithms.

Each discrete family has a family of SDEs whose weak order of approximation
to the iterates (on the grid t = k eta) is 1 or 2 depending on how much of
the step-size dependence is kept in the drift:

* sgd,  order 1:  dX = -grad f dt + sqrt(eta) Sigma^{1/2}(X) dW
* sgd,  order 2:  dX = -grad(f + (eta/4)|grad f|^2) dt + sqrt(eta) Sigma^{1/2} dW
* msgd, order 1:  dV = -(mu V + grad f) dt + sqrt(eta) Sigma^{1/2} dW,  dX = V dt
* msgd, order 2:  dV = -[(mu I + (eta/2)(mu^2 I - Hess f)) V + (1 + eta mu/2)
                  grad f] dt + sqrt(eta) Sigma^{1/2} dW
                  dX = [(1 - eta mu/2) V - (eta/2) grad f] dt
* snag, order 2:  same as msgd order 2 with (mu^2 I + Hess f) in the V-drift
  (the lone sign flip on the Hessian term is the entire order-eta difference
  between the two momentum methods); snag order 1 coincides with msgd order 1.
* snag_varying, order 1: dV = -((3/t) V + grad f) dt + sqrt(eta) Sigma^{1/2} dW
  on [t0, T], matching the Nesterov schedule mu_k ~ 3/(k eta + 2 eta).

State ordering for momentum systems is (v, x).  Drift and diffusion callables
take (y, t); autonomous systems ignore t.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor  # noqa: F401 -- bench/tracing.py patches it
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from . import models, rng, sga
from .analysis import (CRITICAL, OVERDAMPED, UNDERDAMPED, _drift_blocks,
                       classify_damping)
from .matkit import Block2x2Family, SpectralDecomp, _assemble, mat_exp_dense
from .sga import EnsembleStats, iteration_count

SNAG_VARYING = "snag_varying"
_FAMILIES = (sga.SGD, sga.MSGD, sga.SNAG, SNAG_VARYING)

_CHUNK = sga._CHUNK  # bench/tracing.py asserts it at import


@dataclass(frozen=True)
class SmeSystem:
    """One stochastic modified equation, with its drift split b = b0 + eta b1."""

    family: str
    order: int
    model: models.QuadraticModel
    eta: float
    mu: float = None
    t0: float = 0.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError("unknown sme family %r" % (self.family,))
        if self.order not in (1, 2):
            raise ValueError("weak order must be 1 or 2")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must lie in (0, 1]")
        if self.family == SNAG_VARYING:
            if self.order != 1:
                raise ValueError("the varying-coefficient system is order 1 only")
            if not (self.t0 > 0.0):
                raise ValueError("snag_varying needs a start time t0 > 0 "
                                 "(the 3/t drag blows up at 0)")
            if self.mu is not None:
                raise ValueError("snag_varying has no constant mu")
        elif self.family in (sga.MSGD, sga.SNAG):
            if self.mu is None or not (0.0 < self.mu <= 1.0 / self.eta):
                raise ValueError("momentum systems need mu in (0, 1/eta]")
        elif self.mu is not None:
            raise ValueError("sgd takes no mu")

    @property
    def dim_x(self):
        return self.model.dim

    @property
    def state_dim(self):
        return self.dim_x if self.family == sga.SGD else 2 * self.dim_x

    def split_state(self, y):
        """(v, x) views of a state vector (v is None for sgd)."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.state_dim,):
            raise ValueError("state shape %s, expected (%d,)" % ((y.shape,), self.state_dim))
        if self.family == sga.SGD:
            return None, y
        return y[:self.dim_x], y[self.dim_x:]

    def _blocks(self, t=0.0):
        """Per-mode drift blocks (b0, b1) at time t; see _drift_blocks."""
        return _drift_blocks(self.family, self.order, self.model.spec.eigenvalues,
                             self.eta, self.mu, t)

    def _map(self, blocks, y):
        self.split_state(y)
        return _assemble(self.model.spec, blocks) @ np.asarray(y, dtype=float)

    def drift_b0(self, y, t=0.0):
        return self._map(self._blocks(t)[0], y)

    def drift_b1(self, y, t=0.0):
        return self._map(self._blocks(t)[1], y)

    def drift(self, y, t=0.0):
        b0, b1 = self._blocks(t)
        return self._map(b0 + self.eta * b1, y)

    def noise_factor(self, y, t=0.0):
        """Full diffusion factor multiplying dW: sqrt(eta) [Sigma^{1/2}; 0]."""
        _, x = self.split_state(y)
        out = np.zeros((self.state_dim, self.dim_x))
        out[:self.dim_x] = math.sqrt(self.eta) * models.sigma_sqrt(self.model, x)
        return out

    def linear_parts(self):
        """(A, S) with dY = A Y dt + S dW, when the system is linear-Gaussian.

        Only isotropic_shift models qualify (state-independent diffusion);
        raises ValueError otherwise.
        """
        if self.model.kind != models.ISOTROPIC_SHIFT:
            raise ValueError("the %s model has state-dependent noise" % self.model.kind)
        if self.family == SNAG_VARYING:
            raise ValueError("the varying-coefficient system is not autonomous")
        b0, b1 = self._blocks()
        a = _assemble(self.model.spec, b0 + self.eta * b1)
        s = np.zeros((self.state_dim, self.dim_x))
        s[:self.dim_x] = math.sqrt(self.eta) * self.model.noise_scale * self.model.hessian
        return a, s


def build_sme(model, family, order, eta, mu=None, t0=None):
    """Construct the modified equation for a discrete family at weak order 1 or 2."""
    if family == SNAG_VARYING:
        return SmeSystem(family, order, model, eta, None, 0.1 if t0 is None else float(t0))
    return SmeSystem(family, order, model, eta, mu, 0.0)


def _batch_drift(system, Y, t, out=None):
    b0, b1 = system._blocks(t)
    return np.matmul(Y, _assemble(system.model.spec, b0 + system.eta * b1).T, out=out)


def _batch_noise(system, Y, Z, out, rows):
    """sqrt(eta) Sigma^{1/2}(x) z per row (the v slot, or x for sgd), written
    into out and the scratch rows (a models._Rows of Z's shape)."""
    d = system.dim_x
    model = system.model
    q = model.spec.basis
    w = np.matmul(Z, q, out=rows.a)
    if model.kind == models.ISOTROPIC_SHIFT:
        w *= rows.lam
    else:
        w *= np.abs(np.matmul(Y[:, -d:], q, out=rows.b), out=rows.b)
    w *= math.sqrt(system.eta) * model.noise_scale
    return np.matmul(w, rows.basis_t, out=out)


def em_integrate_ensemble(system, start, T, n_paths, seed, substeps=16,
                          observable="f", threads=1):
    """Euler-Maruyama ensemble statistics on the grid t = t0 + k eta, k = 0..N.

    start is either an x-point (momentum state is padded with v = 0) or the
    full state vector; substeps Euler steps of size eta/substeps are taken per
    grid interval.  Increments are keyed by (seed, path, global substep) and
    sums are taken per 4096-path chunk, so the result depends on the chunk
    size but not on the thread count.  Each chunk steps its paths in place,
    with its buffers made once, and the drift matrix of an autonomous system
    is assembled once per call.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    start = np.asarray(start, dtype=float)
    if start.shape == (system.dim_x,) and system.state_dim != system.dim_x:
        y0 = np.concatenate([np.zeros(system.dim_x), start])
    elif start.shape == (system.state_dim,):
        y0 = start
    else:
        raise ValueError("start must have length %d or %d"
                         % (system.dim_x, system.state_dim))
    t0 = system.t0
    n = iteration_count(T - t0, system.eta)
    if n < 1:
        raise ValueError("horizon leaves no full eta-interval after t0")
    delta = system.eta / substeps
    root_delta = math.sqrt(delta)
    bind = models._observer(system.model, observable)
    d = system.dim_x
    varying = system.family == SNAG_VARYING
    if not varying:   # C-ordered: numpy multiplies by a transposed view slower
        b0, b1 = system._blocks()
        drift_t = np.ascontiguousarray(_assemble(system.model.spec,
                                                 b0 + system.eta * b1).T)

    def chunk(paths):
        m = len(paths)
        Y = np.tile(y0, (m, 1))
        Z, inc = np.empty((m, d)), np.empty((m, d))
        rows = models._Rows(system.model, (m, d))
        dy = np.empty_like(Y)
        noise = np.zeros_like(Y)   # its x slot stays 0 for the momentum systems

        def advance(k):
            for idx in range(k * substeps, (k + 1) * substeps):
                rng.normals(seed, rng.STREAM_EM, paths, idx, 0, d, out=Z)
                if varying:
                    _batch_drift(system, Y, t0 + idx * delta, out=dy)
                else:
                    np.matmul(Y, drift_t, out=dy)
                np.multiply(dy, delta, out=dy)
                np.multiply(_batch_noise(system, Y, Z, inc, rows), root_delta,
                            out=noise[:, :d])
                np.add(dy, noise, out=dy)
                np.add(Y, dy, out=Y)

        return advance, bind(Y[:, -d:], rows)

    mean, stderr = sga._ensemble(n_paths, n, chunk, threads)
    times = t0 + system.eta * np.arange(n + 1)
    return EnsembleStats(times, mean, stderr, n_paths, observable)


def one_step_moments(system, y):
    """Weak-order-2 truncation of the one-step moments over one eta interval.

    Returns (first, second, bounded_flag):
      first  = eta b0 + eta^2 (b1 + (1/2) (Db0) b0)          (length D)
      second = eta^2 (b0 b0^T + Sigma_tilde)                  (D x D)
    where Sigma_tilde is the state-noise covariance block.  The drifts of the
    quadratic models are linear in the state, so (Db0) b0 = b0(b0), at the
    fixed time t0.  bounded_flag reports that the implied third-absolute-moment
    bound is finite for this state.
    """
    y = np.asarray(y, dtype=float)
    eta = system.eta
    b0 = system.drift_b0(y, system.t0)
    b1 = system.drift_b1(y, system.t0)
    jb = system.drift_b0(b0, system.t0)
    first = eta * b0 + eta * eta * (b1 + 0.5 * jb)
    sig = system.noise_factor(y, system.t0) / math.sqrt(eta)
    second = eta * eta * (np.outer(b0, b0) + sig @ sig.T)
    kbound = (float(np.linalg.norm(b0)) + float(np.linalg.norm(sig))) ** 3
    return first, second, bool(np.isfinite(kbound))


def linear_sme_moments(system, y0, h=None):
    """Exact one-interval moments of a linear-Gaussian system (isotropic_shift).

    For dY = A Y dt + S dW from the deterministic start y0, over h (default
    one eta interval):
      E[Y_h - y0]            = (e^{hA} - I) y0
      E[(Y_h-y0)(Y_h-y0)^T]  = C(h) + mean mean^T,
      C(h) = int_0^h e^{uA} S S^T e^{uA^T} du = G e^{hA^T},
    G the upper-right block of Van Loan's expm(h [[A, S S^T], [0, -A^T]]).
    Independent of the order-2 truncation in one_step_moments, so the two can
    be compared against the discrete algorithms.
    """
    a, s = system.linear_parts()
    h = system.eta if h is None else float(h)
    y0 = np.asarray(y0, dtype=float)
    n = a.shape[0]
    big = expm(h * np.block([[a, s @ s.T], [np.zeros_like(a), -a.T]]))
    mean = (big[:n, :n] - np.eye(n)) @ y0
    return mean, big[:n, n:] @ big[:n, :n].T + np.outer(mean, mean)


# ---------------------------------------------------------------------------
# Closed-form expectations of f along the modified equations.
# ---------------------------------------------------------------------------


def _decay_rates(spec, eta, order):
    lam = spec.eigenvalues
    if order == 2:
        return lam * (1.0 + 0.5 * eta * lam)
    return lam.copy()


def ou_expected_f(spec, x0, eta, t, noise_scale=1.0, order=1):
    """E f(X_t) for the sgd modified equation on isotropic_shift (an OU process).

    Per eigenmode with decay m_i (= lam_i at order 1, lam_i(1 + eta lam_i/2)
    at order 2) and noise intensity eta ns^2 lam_i^2:
      E y_i(t)^2 = e^{-2 m_i t} y0_i^2 + eta ns^2 lam_i^2 (1 - e^{-2 m_i t})/(2 m_i).
    t may be a scalar or an array.
    """
    lam = spec.eigenvalues
    y0 = spec.to_eigen(np.asarray(x0, dtype=float))
    m = _decay_rates(spec, eta, order)
    t = np.asarray(t, dtype=float)
    decay = np.exp(-2.0 * m * t[..., None])
    ey2 = decay * y0 ** 2 + eta * noise_scale ** 2 * lam ** 2 * (1.0 - decay) / (2.0 * m)
    out = 0.5 * np.sum(lam * ey2, axis=-1)
    return float(out) if out.ndim == 0 else out


def bs_expected_f(spec, x0, eta, t, noise_scale=1.0, order=1):
    """E f(X_t) for the sgd modified equation on eigenbasis_scaled.

    Each eigenmode is a geometric Brownian motion:
      E y_i(t)^2 = y0_i^2 exp((eta ns^2 - 2 m_i) t),
    with m_i as in ou_expected_f.  The mode diverges iff eta ns^2 > 2 m_i.
    """
    lam = spec.eigenvalues
    y0 = spec.to_eigen(np.asarray(x0, dtype=float))
    m = _decay_rates(spec, eta, order)
    t = np.asarray(t, dtype=float)
    ey2 = y0 ** 2 * np.exp((eta * noise_scale ** 2 - 2.0 * m) * t[..., None])
    out = 0.5 * np.sum(lam * ey2, axis=-1)
    return float(out) if out.ndim == 0 else out


def R_function(t, mu, lam):
    """The damping-regime kernel appearing in the momentum noise integral.

    Underdamped (mu^2 < 4 lam, om = sqrt(4 lam - mu^2)):
      R = [mu + om e^{-mu t} sin(om t) - mu e^{-mu t} cos(om t)] / (4 lam)
    Overdamped and critical:
      R = (1 - e^{-mu t}) / mu
    R(0) = 0 and R(inf) = min(mu/(4 lam), 1/mu); the two branches agree at
    mu^2 = 4 lam.
    """
    if mu <= 0 or lam <= 0:
        raise ValueError("R_function needs mu > 0, lam > 0")
    regime = classify_damping(mu, lam)
    if np.isinf(t):
        return min(mu / (4.0 * lam), 1.0 / mu)
    t = float(t)
    if t < 0:
        raise ValueError("t must be >= 0")
    if mu * t > 700.0:
        return min(mu / (4.0 * lam), 1.0 / mu) if regime == UNDERDAMPED \
            else 1.0 / mu
    if regime == UNDERDAMPED:
        om = math.sqrt(4.0 * lam - mu * mu)
        return (mu + om * math.exp(-mu * t) * math.sin(om * t)
                - mu * math.exp(-mu * t) * math.cos(om * t)) / (4.0 * lam)
    return (1.0 - math.exp(-mu * t)) / mu


@dataclass(frozen=True)
class LangevinBlockSystem:
    """Per-eigenmode 2x2 reduction dz = -a_i z dt + sqrt(eta) ns lam_i e_v dW.

    variant "order1" is the order-1 momentum system; "msgd2"/"snag2" use the
    order-2 drift blocks (the diffusion is unchanged at this order).
    """

    spec: SpectralDecomp
    mu: float
    eta: float
    noise_scale: float
    variant: str
    blocks: Block2x2Family


# e_v e_v^T: the noise enters the v slot of the (v, x) state
_EV_EV = np.array([[1.0, 0.0], [0.0, 0.0]])


def langevin_system(spec, mu, eta, noise_scale=1.0, variant="order1"):
    if variant not in ("order1", "msgd2", "snag2"):
        raise ValueError("variant must be order1, msgd2 or snag2")
    if mu <= 0:
        raise ValueError("mu must be positive")
    family, order = {"order1": (sga.MSGD, 1), "msgd2": (sga.MSGD, 2),
                     "snag2": (sga.SNAG, 2)}[variant]
    b0, b1 = _drift_blocks(family, order, spec.eigenvalues, eta, mu)
    fam = Block2x2Family(-(b0 + eta * b1), spec)
    return LangevinBlockSystem(spec, float(mu), float(eta), float(noise_scale),
                               variant, fam)


def langevin_expected_f_exact(system, x0, t):
    """E f(X_t) for the block-reduced momentum SDE, start (v, x) = (0, x0).

    Every mode is the linear Langevin equation dz = -a_i z dt + sqrt(eta) ns
    lam_i e_v dW, so with E = e^{-t a_i}
      E f = sum_i (lam_i/2) [(E z0)_x^2 + eta ns^2 lam_i^2 C_i(t)_xx],
      C_i(t) = int_0^t e^{-s a_i} e_v e_v^T e^{-s a_i^T} ds = C_inf - E C_inf E^T,
    where C_inf solves a C + C a^T = e_v e_v^T.  One route serves every
    variant and damping regime: E is the closed-form 2x2 exponential,
    evaluated over every finite t and mode in one broadcast call, and at
    t = inf only C_inf is used (the system must be asymptotically stable).
    Where t ||a_i||_1 < 0.5 the difference cancels (relative error ~ eps/t^3),
    so C_i(t) = E G instead, G the upper-right block of Van Loan's
    expm(t [[a, e_v e_v^T], [0, -a^T]]), which overflows at large t ||a||.
    t may be a scalar, math.inf or an array; a scalar returns a float.
    """
    t = np.asarray(t, dtype=float)
    if np.any(np.isnan(t)) or np.any(t < 0):
        raise ValueError("t must be >= 0 (math.inf for the stationary value)")
    spec = system.spec
    lam = spec.eigenvalues
    a = system.blocks.blocks
    y0 = spec.to_eigen(np.asarray(x0, dtype=float))
    ts = t.reshape(-1)
    if np.isinf(ts).any() and float(np.min(system.blocks.block_eigenvalues().real)) <= 0:
        raise ValueError("system is not asymptotically stable; E f diverges")
    # Cramer's rule on the three unknowns of the symmetric Lyapunov equation
    tr = a[:, 0, 0] + a[:, 1, 1]
    c_inf = np.empty_like(a)
    c_inf[:, 0, 0] = tr * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    c_inf[:, 0, 1] = c_inf[:, 1, 0] = -a[:, 1, 0] * a[:, 1, 1]
    c_inf[:, 1, 1] = a[:, 1, 0] ** 2
    c_inf /= (2.0 * tr * np.linalg.det(a))[:, None, None]
    finite = np.isfinite(ts)
    e = system.blocks.block_exp(-np.where(finite, ts, 0.0))
    e[~finite] = 0.0
    cov = c_inf - e @ c_inf @ np.swapaxes(e, -1, -2)
    small = ts[:, None] * np.abs(a).sum(axis=1).max(axis=1) < 0.5
    if small.any():
        k, i = np.nonzero(small)
        tk = ts[k, None, None]
        m = np.zeros((k.size, 4, 4))
        m[:, :2, :2] = tk * a[i]
        m[:, :2, 2:] = tk * _EV_EV
        m[:, 2:, 2:] = -tk * np.swapaxes(a[i], -1, -2)
        cov[k, i] = e[k, i] @ expm(m)[:, :2, 2:]
    x = e[..., 1, 1] * y0
    noise = system.eta * system.noise_scale ** 2 * lam ** 2 * cov[..., 1, 1]
    out = 0.5 * np.sum(lam * (x * x + noise), axis=-1)
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first use: only the quadrature
    oracle integrates, and importing scipy.integrate costs an import of this
    package about as much time and memory as scipy.linalg does."""
    from scipy.integrate import quad as integrate
    return integrate(*args, **kwargs)


def _decay_entry(block):
    """u -> the [1, 0] entry of exp(-u block) for u >= 0, c1(-u) block[1, 0]
    with c1 as in matkit._exp_2x2, in scalar math (branch picked once)."""
    a00, a01, a10, a11 = (float(v) for v in np.ravel(block))
    tr = a00 + a11
    delta = tr * tr - 4.0 * (a00 * a11 - a01 * a10)
    half, om = 0.5 * tr, 0.5 * math.sqrt(abs(delta))
    if abs(delta) <= 1e-12 * max(1.0, tr * tr):
        return lambda u: -a10 * u * math.exp(-half * u)
    if delta < 0.0:
        return lambda u: -a10 * math.exp(-half * u) * math.sin(om * u) / om
    # e^{-half u} sinh(om u) with e^{om u} folded into the exponent
    return lambda u: (a10 * math.exp((om - half) * u)
                      * math.expm1(-2.0 * om * u) / (2.0 * om))


def _mode_quad_integral(block, t):
    tr = block[0, 0] + block[1, 1]
    det = block[0, 0] * block[1, 1] - block[0, 1] * block[1, 0]
    disc = tr * tr - 4.0 * det
    min_re = 0.5 * (tr - math.sqrt(disc)) if disc > 0 else 0.5 * tr
    max_re = tr - min_re
    if np.isinf(t):
        if min_re <= 0:
            raise ValueError("unstable block; infinite-horizon integral diverges")
        t = max(120.0 / min_re, 120.0)
    t = float(t)
    if t <= 0.0:
        return 0.0
    # piecewise quadrature: segments no longer than half an oscillation period
    freq = math.sqrt(-disc) / 2.0 if disc < 0 else 0.0
    seg = min(t, math.pi / max(freq, 1e-2))
    n_seg = min(20000, max(1, int(math.ceil(t / seg))))
    edges = np.linspace(0.0, t, n_seg + 1)
    # a stiff block's fast mode settles on the scale 1/max_re, far inside the
    # first segment: break that segment at 1/max_re * 2^j
    fast = 2.0 ** np.arange(math.ceil(math.log2(max(edges[1] * max_re, 1.0))))
    edges = np.concatenate([[0.0], fast / max_re, edges[1:]])
    entry = _decay_entry(block)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        val, _ = quad(lambda u: entry(u) ** 2, a, b,
                      epsabs=1e-14, epsrel=1e-11, limit=100)
        total += val
    return total


def langevin_expected_f_quadrature(system, x0, t):
    """Same expectation via an independent route: dense matrix exponential for
    the transient and adaptive quadrature for every noise integral."""
    spec = system.spec
    lam = spec.eigenvalues
    y0full = np.concatenate([np.zeros(spec.dim), np.asarray(x0, dtype=float)])
    a = system.blocks.assemble()
    if np.isinf(t):
        transient = 0.0
    else:
        z = mat_exp_dense(a, -float(t)) @ y0full
        x = z[spec.dim:]
        transient = 0.5 * float(x @ spec.matrix() @ x)
    ns2 = system.noise_scale ** 2
    noise = 0.0
    for i in range(spec.dim):
        noise += 0.5 * system.eta * ns2 * lam[i] ** 3 \
            * _mode_quad_integral(system.blocks.blocks[i], t)
    return transient + noise


def asymptotic_noise_msgd(spec, mu, eta, noise_scale=1.0):
    """The stationary value of E f for the order-1 momentum system.

    (eta/2) sum_i lam_i^3 / |mu^2 - 4 lam_i| * [1/(2 Re Lam_+) + 1/(2 Re Lam_-)
    - 2 min(mu/(4 lam_i), 1/mu)], with Lam_+- the continuous-time momentum
    eigenvalues.  Degenerate modes (|mu^2 - 4 lam_i| under tolerance) raise.
    In both damping regimes the bracket sum equals (eta/4mu) ns^2 sum lam_i^2,
    the Gibbs value of the Langevin SME.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    total = 0.0
    for lam in spec.eigenvalues:
        regime = classify_damping(mu, lam)
        if regime == CRITICAL:
            raise ValueError("degenerate damping at lam=%g: |mu^2-4lam| below tolerance" % lam)
        disc = mu * mu - 4.0 * lam
        if regime == OVERDAMPED:
            root = math.sqrt(disc)
            re_p = 0.5 * (mu + root)
            re_m = 0.5 * (mu - root)
        else:
            re_p = re_m = 0.5 * mu
        bracket = (1.0 / (2.0 * re_p) + 1.0 / (2.0 * re_m)
                   - 2.0 * min(mu / (4.0 * lam), 1.0 / mu))
        total += 0.5 * eta * noise_scale ** 2 * lam ** 3 * bracket / abs(disc)
    return total
