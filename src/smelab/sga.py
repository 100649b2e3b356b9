"""Stochastic gradient algorithms in rescaled variables.

Three families, all driven by one fresh noise draw gamma_k per iteration:

* sgd:   x' = x - eta * grad f_gamma(x)
* msgd:  v' = v - mu eta v - eta grad f_gamma(x);          x' = x + eta v'
* snag:  v' = v - mu eta v - eta grad f_gamma(x + eta (1 - mu eta) v)
         x' = x + eta v'   (the lookahead gradient reuses the SAME gamma)

The rescaling from textbook variables (step hat_eta, momentum hat_mu) is
eta = sqrt(hat_eta), v = hat_v / sqrt(hat_eta), mu = (1 - hat_mu)/sqrt(hat_eta),
so admissible momenta satisfy 0 < mu <= 1/eta.  The Nesterov schedule
hat_mu_k = (k-1)/(k+2) maps to mu_k = 3/((k+2) eta), clamped by default to the
admissible ceiling 1/eta (so mu_1 = 1/eta exactly); v_0 = 0 makes mu_0
irrelevant and index 0 reuses mu_1.

Iteration counts use N = floor(T/eta + 1e-9); the epsilon guards against IEEE
artifacts such as 2/0.1 = 19.999999999999996.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import models, rng
from .analysis import discrete_growth_factors

SGD = "sgd"
MSGD = "msgd"
SNAG = "snag"
_FAMILIES = (SGD, MSGD, SNAG)

_CHUNK = 4096        # paths per ensemble chunk; part of the byte contract
_MAX_THREADS = 64    # fixed, so a config's validity does not depend on the machine


def iteration_count(horizon, eta):
    return int(math.floor(horizon / eta + 1e-9))


@dataclass(frozen=True)
class ConstantMomentum:
    mu: float


@dataclass(frozen=True)
class NesterovSchedule:
    clamp: bool = True


@dataclass(frozen=True)
class AlgoSpec:
    family: str
    eta: float
    horizon: float
    momentum: object = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError("unknown family %r (expected one of %s)"
                             % (self.family, (_FAMILIES,)))
        if not (0.0 < self.eta <= 1.0):
            raise ValueError("eta must lie in (0, 1], got %r" % self.eta)
        if self.n_steps < 1:
            raise ValueError("horizon %r admits no full step of size %r"
                             % (self.horizon, self.eta))
        if self.family == SGD:
            if self.momentum is not None:
                raise ValueError("sgd takes no momentum parameter")
        else:
            if isinstance(self.momentum, ConstantMomentum):
                mu = self.momentum.mu
                if not (0.0 < mu <= 1.0 / self.eta):
                    raise ValueError("momentum mu must lie in (0, 1/eta]; "
                                     "got mu=%r at eta=%r" % (mu, self.eta))
            elif not isinstance(self.momentum, NesterovSchedule):
                raise ValueError("%s needs ConstantMomentum or NesterovSchedule"
                                 % self.family)

    @property
    def n_steps(self):
        return iteration_count(self.horizon, self.eta)


def rescale(eta_hat, mu_hat):
    """(hat_eta, hat_mu) -> (eta, mu) in the rescaled variables."""
    if not (0.0 < eta_hat <= 1.0):
        raise ValueError("hat_eta must lie in (0, 1]")
    if not (0.0 <= mu_hat < 1.0):
        raise ValueError("hat_mu must lie in [0, 1)")
    eta = math.sqrt(eta_hat)
    return eta, (1.0 - mu_hat) / eta


def rescale_inverse(eta, mu):
    """(eta, mu) -> (hat_eta, hat_mu); inverse of rescale."""
    if not (0.0 < eta <= 1.0):
        raise ValueError("eta must lie in (0, 1]")
    if not (0.0 < mu <= 1.0 / eta):
        raise ValueError("mu must lie in (0, 1/eta]")
    return eta * eta, 1.0 - mu * eta


def nesterov_mu_hat(k):
    """Unscaled Nesterov momentum factor (k-1)/(k+2) for iterate index k >= 1."""
    if k < 1:
        raise ValueError("Nesterov schedule is indexed from k = 1")
    return (k - 1.0) / (k + 2.0)


def nesterov_mu(k, eta, clamp=True):
    """Rescaled Nesterov momentum mu_k = (1 - hat_mu_k)/eta = 3/((k+2) eta)."""
    mu = (1.0 - nesterov_mu_hat(k)) / eta
    if clamp:
        mu = min(mu, 1.0 / eta)
    return mu


def mu_at(algo, k):
    """Momentum coefficient used by iteration k -> k+1."""
    if algo.family == SGD:
        raise ValueError("sgd has no momentum coefficient")
    if isinstance(algo.momentum, ConstantMomentum):
        return algo.momentum.mu
    return nesterov_mu(max(int(k), 1), algo.eta, algo.momentum.clamp)


@dataclass(frozen=True)
class IterState:
    k: int
    x: np.ndarray
    v: np.ndarray = None


def init_state(algo, x0):
    x0 = np.asarray(x0, dtype=float)
    v0 = None if algo.family == SGD else np.zeros_like(x0)
    return IterState(0, x0, v0)


def step(algo, model, state, stream):
    """One iteration; consumes exactly one gamma draw from the stream."""
    eta = algo.eta
    if algo.family == SGD:
        draw = models.grad_sample(model, state.x, stream)
        return IterState(state.k + 1, state.x - eta * draw.gradient, None)
    mu = mu_at(algo, state.k)
    if algo.family == MSGD:
        draw = models.grad_sample(model, state.x, stream)
    else:
        gamma = models.draw_gamma(model, stream)
        look = state.x + eta * (1.0 - mu * eta) * state.v
        draw = models.GradientDraw(gamma, models.gradient_given_gamma(model, look, gamma))
    v = state.v - mu * eta * state.v - eta * draw.gradient
    return IterState(state.k + 1, state.x + eta * v, v)


def run_path(algo, model, x0, seed, path=0, observable="f"):
    """Observable along a single trajectory; returns array of length N+1."""
    g = models.observable_fn(model, observable)
    state = init_state(algo, x0)
    stream = rng.CounterStream(seed, rng.STREAM_GAMMA, path)
    out = np.empty(algo.n_steps + 1)
    out[0] = g(state.x[None, :])[0]
    for k in range(algo.n_steps):
        state = step(algo, model, state, stream)
        out[k + 1] = g(state.x[None, :])[0]
    return out


@dataclass(frozen=True)
class EnsembleStats:
    """Per-recording-time mean and standard error of an observable."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_paths: int
    observable: object = "f"


def _ensemble(n_paths, n, start, threads):
    """(mean, stderr) of an observable at points 0..n over n_paths paths.

    start(paths) builds the state and scratch buffers of one chunk of paths
    (a uint64 array) and returns (advance, observe): advance(k) moves the
    state from point k to k + 1 in place, and observe() returns the
    observable of every path (it may reuse one buffer).  Sums are taken per
    chunk of _CHUNK paths and added in chunk order, so with every draw keyed
    by path and step the chunk size is part of the byte contract and the
    thread count is not.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    if not 1 <= threads <= _MAX_THREADS:
        raise ValueError("threads must lie in [1, %d], got %r" % (_MAX_THREADS, threads))

    def run_chunk(lo):
        # an array, not a range: bench/tracing.py sizes the path of a traced
        # rng.normals call with np.size, which turns a range into an array
        # (about 160 us for 2048 paths, charged to the ensemble's own layer)
        paths = np.arange(lo, min(lo + _CHUNK, n_paths), dtype=np.uint64)
        advance, observe = start(paths)
        s1 = np.empty(n + 1)
        s2 = np.empty(n + 1)
        square = np.empty(len(paths))
        for k in range(n + 1):
            if k:
                advance(k - 1)
            vals = observe()
            s1[k] = vals.sum()
            s2[k] = np.multiply(vals, vals, out=square).sum()
        return s1, s2

    lows = range(0, n_paths, _CHUNK)
    s1 = np.zeros(n + 1)
    s2 = np.zeros(n + 1)
    with ThreadPoolExecutor(max_workers=min(threads, len(lows))) as pool:
        for p1, p2 in pool.map(run_chunk, lows):   # consumed in chunk order
            s1 += p1
            s2 += p2
    mean = s1 / n_paths
    var = np.maximum(s2 - n_paths * mean * mean, 0.0) / (n_paths - 1)
    return mean, np.sqrt(var / n_paths)


def run_ensemble(algo, model, x0, n_paths, seed, observable="f", threads=1):
    """Ensemble mean/stderr of an observable at every iterate, k = 0..N.

    Draws are keyed by (seed, stream, path, step) and sums are taken per
    4096-path chunk, so the result is bit-identical for any thread count.
    Each chunk steps its paths in place: x (and v) and the buffers of the
    draws, the gradient and the observable are made once per chunk.
    """
    x0 = np.asarray(x0, dtype=float)
    bind = models._observer(model, observable)
    eta, d, ns = algo.eta, model.dim, model.noise_scale
    family = algo.family

    def start(paths):
        m = len(paths)
        X = np.tile(x0, (m, 1))
        V = None if family == SGD else np.zeros((m, d))
        Z, G = np.empty((m, d)), np.empty((m, d))
        rows = models._Rows(model, (m, d))

        def advance(k):
            gamma = rng.normals(seed, rng.STREAM_GAMMA, paths, k, 0, d, out=Z)
            gamma *= ns
            if family == SGD:
                grad = models._batch_gradient(model, X, gamma, G, rows)
                grad *= eta
                np.subtract(X, grad, out=X)
                return
            c = 1.0 - mu_at(algo, k) * eta
            at = X
            if family == SNAG:   # the look-ahead x + eta (1 - mu eta) v
                at = np.multiply(V, eta * c, out=rows.a)
                at += X
            grad = models._batch_gradient(model, at, gamma, G, rows)
            grad *= eta
            np.multiply(V, c, out=V)
            np.subtract(V, grad, out=V)
            np.add(X, np.multiply(V, eta, out=G), out=X)

        return advance, bind(X, rows)

    mean, stderr = _ensemble(n_paths, algo.n_steps, start, threads)
    times = algo.eta * np.arange(algo.n_steps + 1)
    return EnsembleStats(times, mean, stderr, n_paths, observable)


# ---------------------------------------------------------------------------
# Exact moment recursions (no Monte Carlo error).
#
# Both models are diagonal in the eigenbasis of H, so each family is one
# small linear map per mode.  The three functions below are the only place
# that writes it; the closed-form series (sgd, constant momentum), the
# schedule's step loop, the moment state and the stationary floor read them.
#
# _mode_update, _mode_noise (msgd, snag on isotropic_shift): z = (v_i, y_i) obeys
#   z' = M_k z + n gamma_i, gamma_i ~ N(0, ns^2), n = (eta lam, eta^2 lam), with
#     msgd: M = [[1 - mu eta, -eta lam], [eta (1 - mu eta), 1 - eta^2 lam]]
#     snag: M as msgd with 1 - mu eta replaced by (1 - mu eta)(1 - eta^2 lam),
#   so the second moment obeys P' = M P M^T + N, N = ns^2 n n^T.
# _sgd_factors (sgd): y' = (1 - eta lam) y in the mean and p' = a p + b in the
#   second moment, a = (1 - eta lam)^2 and b = ns^2 (eta lam)^2 on
#   isotropic_shift, a = discrete_growth_factors and b = 0 on eigenbasis_scaled.
# Momentum families on eigenbasis_scaled do not decouple.
# ---------------------------------------------------------------------------


def _mode_update(algo, model, k):
    """Per-mode update M_k of a momentum family, (d, 2, 2)."""
    lam = model.spec.eigenvalues
    eta = algo.eta
    mu = mu_at(algo, k)
    m = np.empty((model.dim, 2, 2))
    damp = 1.0 - mu * eta
    if algo.family == SNAG:
        damp = damp * (1.0 - eta * eta * lam)
    m[:, 0, 0] = damp
    m[:, 0, 1] = -eta * lam
    m[:, 1, 0] = eta * damp
    m[:, 1, 1] = 1.0 - eta * eta * lam
    return m


def _mode_noise(algo, model):
    """Per-mode noise covariance N of a momentum family, (d, 2, 2); the same at
    every step."""
    lam = model.spec.eigenvalues
    eta = algo.eta
    nv = np.stack([eta * lam, eta * eta * lam], axis=1)
    return model.noise_scale ** 2 * nv[:, :, None] * nv[:, None, :]


def _stationary_second_moment(m, noise):
    """P_inf solving P = M P M^T + N per mode, (d, 2, 2).

    The symmetric equation has three unknowns p = (P00, P01, P11), and
    (I - K) p = (N00, N01, N11) with K the action of P -> M P M^T on them;
    the 3 x 3 systems are solved in one batched call.
    """
    a, b = m[:, 0, 0], m[:, 0, 1]
    c, e = m[:, 1, 0], m[:, 1, 1]
    k = np.stack([a * a, 2.0 * a * b, b * b,
                  a * c, a * e + b * c, b * e,
                  c * c, 2.0 * c * e, e * e], axis=-1).reshape(-1, 3, 3)
    rhs = np.stack([noise[:, 0, 0], noise[:, 0, 1], noise[:, 1, 1]], axis=-1)
    p = np.linalg.solve(np.eye(3) - k, rhs[:, :, None])[:, :, 0]
    return np.stack([p[:, 0], p[:, 1], p[:, 1], p[:, 2]], axis=-1).reshape(-1, 2, 2)


def _powers(m, count):
    """m^0, ..., m^(count-1) of a stack of 2x2 blocks m (d, 2, 2), by doubling:
    shape (count, d, 2, 2)."""
    out = np.empty((count,) + m.shape, dtype=m.dtype)
    out[0] = np.eye(2)
    filled, step = 1, m
    while filled < count:
        take = min(filled, count - filled)
        out[filled:filled + take] = out[:take] @ step
        filled += take
        if filled < count:
            step = step @ step
    return out


# working-set bound of the constant-momentum series: elements per temporary
_SERIES_BLOCK = 1 << 13


def _momentum_series(m, noise, y0, lam, n):
    """E f(x_k), k = 0..n, of a momentum family at a constant per-mode update
    m whose blocks all have spectral radius < 1.

    Per mode P_k = M^k (P_0 - P_inf) (M^k)^T + P_inf, and only the x row r_k
    of M^k is needed.  With a block length B ~ sqrt(n + 1), r_{jB+i} is the x
    row of M^{jB} times M^i: B small powers, about n/B large powers, and a
    broadcast product, accumulated a few large-power blocks at a time so the
    working set stays O(sqrt(n) d).  The power tables are built in
    np.longdouble: the rounding of M^B would otherwise be raised to the j-th
    power and shift the phase of an oscillating mode (on a platform whose
    longdouble is double the series is then about 10x less accurate, still
    well inside the step loop's error).
    """
    d = lam.shape[0]
    p_inf = _stationary_second_moment(m, noise)
    dev = -p_inf
    with np.errstate(over="ignore"):   # as f(x0) in exact_moment_recursion
        dev[:, 1, 1] += y0 * y0
    width = math.isqrt(n) + 1
    mx = m.astype(np.longdouble)
    small = _powers(mx, width)
    rows = _powers(small[-1] @ mx, -(-(n + 1) // width))[:, :, 1, :].astype(float)
    small = small.astype(float)
    half = 0.5 * lam
    out = np.empty(rows.shape[0] * width)
    per = max(1, _SERIES_BLOCK // (width * d))
    for j in range(0, rows.shape[0], per):
        # the x row of M^k, k = jB + i, as (blocks, B, d) components
        r0 = rows[j:j + per, None, :, 0]
        r1 = rows[j:j + per, None, :, 1]
        c0 = r0 * small[..., 0, 0] + r1 * small[..., 1, 0]
        c1 = r0 * small[..., 0, 1] + r1 * small[..., 1, 1]
        p = c0 * (c0 * dev[:, 0, 0] + 2.0 * c1 * dev[:, 0, 1]) \
            + c1 * c1 * dev[:, 1, 1] + p_inf[:, 1, 1]
        out[j * width:(j + c0.shape[0]) * width] = (p @ half).reshape(-1)
    return out[:n + 1]


def _sgd_factors(model, eta):
    """Per-mode sgd factors (c, a, b) of the mean, y' = c y, and of the second
    moment, p' = a p + b."""
    lam = model.spec.eigenvalues
    mean = 1.0 - eta * lam
    if model.kind == models.ISOTROPIC_SHIFT:
        return mean, mean ** 2, model.noise_scale ** 2 * (eta * lam) ** 2
    return mean, discrete_growth_factors(model, eta), np.zeros_like(lam)


def _times(c, x):
    """c * x, broadcast, with 0 wherever c == 0 even if x is inf (0 * inf is NaN)."""
    out = np.zeros(np.broadcast_shapes(c.shape, x.shape), np.result_type(c, x))
    return np.multiply(c, x, out=out, where=c != 0.0)


def _sgd_series(model, eta, y0, n):
    """E f(x_k), k = 0..n, of sgd from eigen-coordinates y0.

    Per mode p_k = a^k p_0 + b S_k, S_k = 1 + a + ... + a^(k-1); with k = jL + i
    and L ~ sqrt(n + 1), p_k = a^i p_(jL) + b S_i: the block starts
    p_(jL) = a^(jL) p_0 + b S_(jL) times a (d, L) table of a^i, one product
    whose extra row carries b S_i.  p_inf is never subtracted: a == 1
    (eta lam = 2) and a > 1 need no branch.  No zero meets an overflowed
    power, so a growing mode reads +inf once it overflows, never NaN.
    """
    half = 0.5 * model.spec.eigenvalues
    _, a, b = _sgd_factors(model, eta)
    with np.errstate(over="ignore"):     # +inf is the overflowed E f
        p0 = y0 * y0
        a = np.where((p0 != 0.0) | (b != 0.0), a, 0.0)  # else p_k = 0 for all k
        d, width = a.size, math.isqrt(n) + 1
        right = np.empty((d + 1, width))
        np.power(a[:, None], np.arange(width), out=right[:d])        # a^i
        geo = np.zeros((d, width + 1))
        np.cumsum(right[:d], axis=1, out=geo[:, 1:])                  # S_i
        right[d] = half @ _times(b[:, None], geo[:, :-1])             # E f of b S_i
        # a^(jL) in np.longdouble's wider range, so a power past the largest
        # double still scales a small p_0 to its finite p_(jL)
        big = np.power(a.astype(np.longdouble),
                       width * np.arange(-(-(n + 1) // width))[:, None])  # a^(jL)
        left = np.ones((big.shape[0] - 1, d + 1))                    # p_(jL), j >= 1
        left[:, :d] = half * (_times(p0, big[1:])
                              + _times(b, np.cumsum(big[:-1], axis=0) * geo[:, -1]))
        first = half @ _times(p0[:, None], right[:d]) + right[d]      # j = 0
        del geo, big   # the output is most of the working set; keep the rest small
        out = np.empty((left.shape[0] + 1, width))
        out[0] = first
        with np.errstate(invalid="ignore"):   # BLAS flags its padding lanes when an
            np.matmul(left, right, out=out[1:])   # entry is inf; no zero meets one
        return out.reshape(-1)[:n + 1]


def supports_exact_moments(algo, model):
    if model.kind == models.ISOTROPIC_SHIFT:
        return True
    return algo.family == SGD


def exact_moment_recursion(algo, model, x0):
    """E f(x_k) for k = 0..N, computed exactly (per-mode moment recursions).

    Supported: isotropic_shift with any family, eigenbasis_scaled with sgd.
    Raises ValueError otherwise (use run_ensemble for those).

    Routes: sgd never steps; it takes p_k = a^k p_0 + b S_k from blocked
    power tables (_sgd_series).  A constant momentum whose per-mode updates
    all have spectral radius < 1 takes P_k = M^k (P_0 - P_inf) (M^k)^T + P_inf
    by blocked matrix powers (_momentum_series).  The Nesterov schedule
    (time-varying M_k) and a constant momentum with a mode of radius >= 1
    (no stationary P_inf) step the recursion once per iteration.
    """
    if not supports_exact_moments(algo, model):
        raise ValueError("no exact recursion for %s on %s; use run_ensemble"
                         % (algo.family, model.kind))
    lam = model.spec.eigenvalues
    y0 = model.spec.to_eigen(np.asarray(x0, dtype=float))
    n = algo.n_steps
    out = _sgd_series(model, algo.eta, y0, n) if algo.family == SGD else np.empty(n + 1)
    with np.errstate(over="ignore"):   # f(x0) past the largest double reads +inf
        out[0] = 0.5 * float(np.sum(lam * (y0 * y0)))
    if algo.family == SGD:
        return out

    constant = isinstance(algo.momentum, ConstantMomentum)
    m = _mode_update(algo, model, 0)
    noise = _mode_noise(algo, model)
    if constant and np.all(np.abs(np.linalg.eigvals(m)) < 1.0):
        out[1:] = _momentum_series(m, noise, y0, lam, n)[1:]
        return out
    P = np.zeros((model.dim, 2, 2))
    P[:, 1, 1] = y0 * y0
    for k in range(n):
        if not constant:
            m = _mode_update(algo, model, k)
        P = m @ P @ np.swapaxes(m, 1, 2) + noise
        out[k + 1] = 0.5 * float(np.sum(lam * P[:, 1, 1]))
    return out


@dataclass(frozen=True)
class MomentState:
    """Exact mean and second moment of the full state at one iterate.

    For sgd the state is x (length d); for momentum families it is (v, x)
    (length 2d), both in the original coordinates.
    """

    k: int
    mean: np.ndarray
    second: np.ndarray


def exact_moment_state(algo, model, x0, k_target):
    """Exact MomentState after k_target iterations (same support as the recursion).

    Cross-mode second moments from a deterministic start factor into products
    of the means (the cross covariances satisfy the same homogeneous linear
    recursion with zero initial condition), so only per-mode means and second
    moments are evolved.
    """
    if not supports_exact_moments(algo, model):
        raise ValueError("no exact recursion for %s on %s" % (algo.family, model.kind))
    if not (0 <= k_target <= algo.n_steps):
        raise ValueError("k must lie in [0, N]")
    q = model.spec.basis
    y0 = model.spec.to_eigen(np.asarray(x0, dtype=float))
    d = model.dim

    if algo.family == SGD:
        factor, a, b = _sgd_factors(model, algo.eta)
        mean, p = y0.copy(), y0 * y0
        for _ in range(k_target):
            mean = factor * mean
            p = a * p + b
        mean, P = mean[:, None], p[:, None, None]
    else:
        mean = np.zeros((d, 2))
        mean[:, 1] = y0
        P = np.zeros((d, 2, 2))
        P[:, 1, 1] = y0 * y0
        noise = _mode_noise(algo, model)
        for k in range(k_target):
            m = _mode_update(algo, model, k)
            P = m @ P @ np.swapaxes(m, 1, 2) + noise
            mean = np.einsum("dij,dj->di", m, mean)
    s = mean.shape[1]
    second = np.empty((s * d, s * d))
    for i in range(s):
        for j in range(s):
            cross = np.outer(mean[:, i], mean[:, j])
            np.fill_diagonal(cross, P[:, i, j])
            second[i * d:(i + 1) * d, j * d:(j + 1) * d] = q @ cross @ q.T
    return MomentState(k_target, (q @ mean).T.reshape(-1), second)
