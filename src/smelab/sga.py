"""Stochastic gradient algorithms in rescaled variables.

Three families, all driven by one fresh noise draw gamma_k per iteration:

* sgd:   x' = x - eta * grad f_gamma(x)
* msgd:  v' = v - mu eta v - eta grad f_gamma(x);          x' = x + eta v'
* snag:  v' = v - mu eta v - eta grad f_gamma(x + eta (1 - mu eta) v)
         x' = x + eta v'   (the lookahead gradient reuses the SAME gamma)
written once (_update) for step, run_path and the ensembles alike.

The rescaling from textbook variables (step hat_eta, momentum hat_mu) is
eta = sqrt(hat_eta), v = hat_v / sqrt(hat_eta), mu = (1 - hat_mu)/sqrt(hat_eta),
so admissible momenta satisfy 0 < mu <= 1/eta.  The Nesterov schedule
hat_mu_k = (k-1)/(k+2) maps to mu_k = 3/((k+2) eta), which never exceeds the
admissible ceiling 1/eta: mu_1 = 1/eta exactly, so the schedule needs no
clamp.  v_0 = 0 makes mu_0 irrelevant and index 0 reuses mu_1.

Iteration counts use N = floor(T/eta + 1e-9); the epsilon guards against IEEE
artifacts such as 2/0.1 = 19.999999999999996.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import matkit, models, rng
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
    """The Nesterov schedule mu_k = nesterov_mu(k, eta)."""


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
    """Unscaled Nesterov momentum factor (k-1)/(k+2), elementwise, for k >= 1."""
    if np.any(np.less(k, 1)):
        raise ValueError("Nesterov schedule is indexed from k = 1")
    return (k - 1.0) / (k + 2.0)


def nesterov_mu(k, eta):
    """Rescaled Nesterov momentum mu_k = (1 - hat_mu_k)/eta = 3/((k+2) eta)."""
    return (1.0 - nesterov_mu_hat(k)) / eta


def mu_at(algo, k):
    """Momentum coefficient used by iteration k -> k+1, elementwise over an
    integer array of k; a constant momentum stays one scalar."""
    if algo.family == SGD:
        raise ValueError("sgd has no momentum coefficient")
    if isinstance(algo.momentum, ConstantMomentum):
        return algo.momentum.mu
    return nesterov_mu(np.maximum(k, 1), algo.eta)


@dataclass(frozen=True)
class IterState:
    k: int
    x: np.ndarray
    v: np.ndarray = None


def init_state(algo, x0):
    x0 = np.asarray(x0, dtype=float)
    v0 = None if algo.family == SGD else np.zeros_like(x0)
    return IterState(0, x0, v0)


def _update(algo, model, k, X, V, G, gamma, rows):
    """The one update of the three families: rows of X (and V, unused by sgd)
    from iterate k to k + 1 in place under draws gamma (times noise_scale),
    with G and rows (a models._Rows) as scratch of X's shape."""
    eta = algo.eta
    if algo.family == SGD:
        grad = models._batch_gradient(model, X, gamma, G, rows)
        grad *= eta
        np.subtract(X, grad, out=X)
        return
    c = 1.0 - mu_at(algo, k) * eta
    at = X
    if algo.family == SNAG:   # the look-ahead x + eta (1 - mu eta) v
        at = np.multiply(V, eta * c, out=rows.a)
        at += X
    grad = models._batch_gradient(model, at, gamma, G, rows)
    grad *= eta
    np.multiply(V, c, out=V)
    np.subtract(V, grad, out=V)
    np.add(X, np.multiply(V, eta, out=G), out=X)


def step(algo, model, state, stream):
    """One iteration; consumes exactly one gamma draw from the stream."""
    X = models._as_point(model, state.x)[None, :].copy()
    V = None if algo.family == SGD else state.v[None, :].copy()
    _update(algo, model, state.k, X, V, np.empty_like(X),
            models.draw_gamma(model, stream), models._Rows(model, X.shape))
    return IterState(state.k + 1, X[0], None if V is None else V[0])


def run_path(algo, model, x0, seed, path=0):
    """Objective f along a single trajectory; returns array of length N+1:
    path `path` of run_ensemble at the seed, one row of its chunk kernel."""
    advance, (f,) = _chunk([algo], model, models._as_point(model, x0), seed,
                           models._observer(model, "f"), np.array([path], dtype=np.uint64))
    out = np.empty(algo.n_steps + 1)
    out[0] = f()[0]
    for k in range(algo.n_steps):
        advance(k)
        out[k + 1] = f()[0]
    return out


@dataclass(frozen=True)
class EnsembleStats:
    """Per-recording-time mean and standard error of an observable."""

    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    n_paths: int
    observable: object = "f"


def _ensemble(n_paths, n, start, threads, record=None):
    """[(mean, stderr), ...] of observables over n_paths paths at the
    increasing points record of 0..n (None: every point); past the last of
    them no state advances.

    start(paths) builds the states and scratch buffers of one chunk of paths
    (a uint64 array) and returns (advance, observes): advance(k) moves every
    state from point k to k + 1 in place, and each observes[j]() returns
    observable j of every path (it may reuse one buffer).  Sums are taken per
    chunk of _CHUNK paths and added in chunk order, so with every draw keyed
    by path and step the chunk size is part of the byte contract and the
    thread count is not.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    if not 1 <= threads <= _MAX_THREADS:
        raise ValueError("threads must lie in [1, %d], got %r" % (_MAX_THREADS, threads))
    ks = range(n + 1) if record is None else np.asarray(record).tolist()

    def run_chunk(lo):
        # an array, not a range: bench/tracing.py sizes the path of a traced
        # rng.normals call with np.size, which turns a range into an array
        # (about 160 us for 2048 paths, charged to the ensemble's own layer)
        paths = np.arange(lo, min(lo + _CHUNK, n_paths), dtype=np.uint64)
        advance, observes = start(paths)
        sums = np.empty((2, len(observes), len(ks)))   # of the values, of their squares
        square = np.empty(len(paths))
        done = 0   # the point every state is at
        with np.errstate(over="ignore"):   # a sum or square past the largest double is +inf
            for i, k in enumerate(ks):
                for s in range(done, k):
                    advance(s)
                done = k
                for j, observe in enumerate(observes):
                    vals = observe()
                    sums[0, j, i] = vals.sum()
                    sums[1, j, i] = np.multiply(vals, vals, out=square).sum()
        return sums

    lows = range(0, n_paths, _CHUNK)
    s1 = s2 = 0.0   # the first chunk's sums are added to 0.0, as they were to zeros
    with np.errstate(over="ignore", invalid="ignore"):   # inf - inf: a NaN the caller rejects
        with ThreadPoolExecutor(max_workers=min(threads, len(lows))) as pool:
            for p1, p2 in pool.map(run_chunk, lows):   # consumed in chunk order
                s1 += p1
                s2 += p2
        mean = s1 / n_paths
        var = np.maximum(s2 - n_paths * mean * mean, 0.0) / (n_paths - 1)
    return list(zip(mean, np.sqrt(var / n_paths)))


def run_ensemble(algo, model, x0, n_paths, seed, observable="f", threads=1):
    """Ensemble mean/stderr of an observable at every iterate, k = 0..N.

    Draws are keyed by (seed, stream, path, step) and sums are taken per
    4096-path chunk, so the result is bit-identical for any thread count.
    """
    return _run_ensembles([algo], model, x0, n_paths, seed, observable, threads)[0]


def _chunk(algos, model, x0, seed, bind, paths):
    """_ensemble's start for algorithms from x0 and paths (a uint64 array),
    with bind from models._observer.  The chunk makes its buffers once, draws
    a step's normals once and steps every algorithm's x (and v) from them in
    place, with the operations of a single run: each keeps its own bits."""
    m, d = len(paths), model.dim
    Z = np.empty((m, d))
    rows = models._Rows(model, (m, d))   # scratch, used by one algorithm at a time
    states = [(algo, np.tile(x0, (m, 1)), np.zeros((m, d)), np.empty((m, d)))
              for algo in algos]          # algo, x, v (unused by sgd), gradient

    def advance(k):
        gamma = rng.normals(seed, rng.STREAM_GAMMA, paths, k, 0, d, out=Z)
        gamma *= model.noise_scale
        for algo, X, V, G in states:
            _update(algo, model, k, X, V, G, gamma, rows)

    return advance, [bind(X, rows) for _, X, _, _ in states]


def _run_ensembles(algos, model, x0, n_paths, seed, observable="f", threads=1,
                   record=None):
    """run_ensemble of algorithms with one step count on one model, start and
    seed, as a list of EnsembleStats at the increasing steps record (None:
    every step), from one draw per path and step (_chunk)."""
    n = algos[0].n_steps
    if any(algo.n_steps != n for algo in algos):
        raise ValueError("a batch needs one step count, got %s" % [a.n_steps for a in algos])
    start = partial(_chunk, algos, model, np.asarray(x0, dtype=float), seed,
                    models._observer(model, observable))
    ks = np.arange(n + 1) if record is None else np.asarray(record)
    return [EnsembleStats(algo.eta * ks, mean, stderr, n_paths, observable)
            for algo, (mean, stderr) in zip(algos, _ensemble(n_paths, n, start, threads, ks))]


# ---------------------------------------------------------------------------
# Exact moment recursions (no Monte Carlo error).
#
# Both models are diagonal in the eigenbasis of H, so each family is one
# small linear map per mode.  The three functions below are the only place
# that writes it; the series, the Nesterov schedule's step loop and sgd's
# floor read them, and the momentum floor reads M's invariants (_stationary).
#
# _mode_update, _mode_noise (msgd, snag on isotropic_shift): z = (v_i, y_i) obeys
#   z' = M_k z + n gamma_i, gamma_i ~ N(0, ns^2), n = (eta lam, eta^2 lam), with
#     msgd: M = [[1 - mu eta, -eta lam], [eta (1 - mu eta), 1 - eta^2 lam]]
#     snag: M as msgd with 1 - mu eta replaced by (1 - mu eta)(1 - eta^2 lam),
#   so mean' = M mean and cov' = M cov M^T + N, N = ns^2 n n^T.  _mode_update
#   takes a (G, 1) array of momenta: G constant ones of one family and eta
#   (the series) or mu_at of a block of steps (the loop).
# _sgd_factors (sgd): y' = (1 - eta lam) y in the mean and p' = a p + b in the
#   second moment, a = (1 - eta lam)^2 and b = ns^2 (eta lam)^2 on
#   isotropic_shift, a = discrete_growth_factors and b = 0 on eigenbasis_scaled.
# Momentum families on eigenbasis_scaled do not decouple.
# ---------------------------------------------------------------------------


def _mode_update(algo, model, mu):
    """Per-mode updates M, (G, d, 2, 2), of a momentum family at momenta mu (G, 1)."""
    lam = model.spec.eigenvalues
    eta = algo.eta
    damp = 1.0 - mu * eta
    if algo.family == SNAG:
        damp = damp * (1.0 - eta * eta * lam)
    m = np.empty((len(mu),) + lam.shape + (2, 2))
    m[..., 0, 0] = damp
    m[..., 0, 1] = -eta * lam
    m[..., 1, 0] = eta * damp
    m[..., 1, 1] = 1.0 - eta * eta * lam
    return m


def _mode_noise(algo, model):
    """Per-mode noise covariance N of a momentum family, (d, 2, 2); the same at
    every step."""
    lam = model.spec.eigenvalues
    eta = algo.eta
    nv = np.stack([eta * lam, eta * eta * lam], axis=1)
    return model.noise_scale ** 2 * nv[:, :, None] * nv[:, None, :]


def _stationary(algos, model):
    """(floor, stable) of G constant momenta of one family at one eta: each
    one's stationary E f (NaN unless stable) and whether all its modes are.

    Per mode det M = c (_mode_update's damping), 1 - tr M + det M = h =
    eta^2 lam and 1 + tr M + det M = q = 2 + 2c - h.  M is stable iff h, 1 - c
    and q are positive (Jury's test), and then P = M P M^T + N has P_yy =
    ns^2 h (1 + c) / ((1 - c) q).  q cancels at the top of the stable lam
    range, so c and h are np.longdouble, formed from the float mu, eta, lam.
    """
    eta = np.longdouble(algos[0].eta)
    h = eta * eta * model.spec.eigenvalues.astype(np.longdouble)
    c = 1.0 - np.array([[a.momentum.mu] for a in algos], np.longdouble) * eta
    if algos[0].family == SNAG:
        c = c * (1.0 - h)
    q = 2.0 + 2.0 * c - h
    stable = np.all((h > 0.0) & (c < 1.0) & (q > 0.0), axis=-1)
    with np.errstate(all="ignore"):   # an unstable mode's P_yy is not read
        p_yy = (model.noise_scale ** 2 * h * (1.0 + c) / ((1.0 - c) * q)).astype(float)
        floor = np.where(stable, 0.5 * np.sum(model.spec.eigenvalues * p_yy, axis=-1), np.nan)
    return floor, stable


def _powers(m, noise, count):
    """(M^i, C_i), i < count, C_i = sum_{j<i} M^j noise (M^j)^T, of G stacks of
    2x2 blocks m (G, d, 2, 2), noise broadcasting to m; each (G, count, d, 2, 2),
    by doubling: (M^(a+b), C_(a+b)) = (M^b M^a, C_b + M^b C_a (M^b)^T)."""
    shape = (len(m), count) + m.shape[1:]
    power, cov = np.empty(shape, m.dtype), np.empty(shape, m.dtype)
    power[:, 0], cov[:, 0] = np.eye(2), 0.0
    filled, step, acc = 1, m[:, None], np.broadcast_to(noise, m.shape)[:, None]
    while filled < count:
        take = min(filled, count - filled)
        new = slice(filled, filled + take)
        np.matmul(power[:, :take], step, out=power[:, new])
        np.matmul(step @ cov[:, :take], np.swapaxes(step, -1, -2), out=cov[:, new])
        cov[:, new] += acc
        filled += take
        if filled < count:
            step, acc = step @ step, acc + step @ acc @ np.swapaxes(step, -1, -2)
    return power, cov


# working-set bound of the constant-momentum series: elements per temporary
_SERIES_BLOCK = 1 << 13
_SERIES_CELLS = 1 << 20   # series cells (runs x points) per slice of runs


def _moment_steps(algo, model, y0, n):
    """Yield each mode's mean (d, 2) and covariance (d, 2, 2) of (v, y) at
    k = 0..n from y0 (v = 0): mean' = M_k mean, cov' = M_k cov M_k^T + N,
    with M_k from one mu_at and _mode_update call per _SERIES_BLOCK elements."""
    mean = np.zeros((model.dim, 2, 1))   # a column per mode
    mean[:, 1, 0] = y0
    cov, noise = np.zeros((model.dim, 2, 2)), _mode_noise(algo, model)
    yield mean[..., 0], cov
    size = max(1, _SERIES_BLOCK // (4 * model.dim))
    for lo in range(0, n, size):
        ks = np.arange(lo, min(lo + size, n))[:, None]
        for m in _mode_update(algo, model, np.broadcast_to(mu_at(algo, ks), ks.shape)):
            mean, cov = m @ mean, m @ cov @ np.swapaxes(m, 1, 2) + noise
            yield mean[..., 0], cov


def _start(model, x0):
    """x0 in eigen-coordinates and f(x0) (+inf past the largest double)."""
    y0 = model.spec.to_eigen(np.asarray(x0, dtype=float))
    with np.errstate(over="ignore"):
        return y0, 0.5 * float(np.sum(model.spec.eigenvalues * (y0 * y0)))


def _momentum_series(m, noise, model, x0, n):
    """Yield E f(x_k), k = 0..n, of each of G momentum runs from x0 at
    constant per-mode updates m (G, d, 2, 2) and noise covariances (d, 2, 2).

    Per mode P_k = M^k P_0 (M^k)^T + C_k, a sum of positive semidefinite
    terms (_powers), so every spectral radius takes this route and a growing
    mode reads +inf once it overflows, never NaN.  With B ~ sqrt(n + 1) and
    k = jB + i, P_(k,yy) = (M^k_yy y0)^2 + C_(i,yy) + r_i C_(jB) r_i^T, r_i
    the y row of M^i, and M^k's y row is M^(jB)'s times M^i: B small and
    about n/B large pairs, combined a few large pairs at a time so the
    working set stays O(sqrt(n) d) per run.  The pairs are built in
    np.longdouble: the rounding of M^B would otherwise be raised to the j-th
    power and shift the phase of an oscillating mode (about 10x less
    accurate where longdouble is double).  A slice of runs holds at most
    _SERIES_CELLS cells; each run's modes are summed by its own (B, d) @ (d,)
    products, so its bits do not depend on the slice.
    """
    y0, f0 = _start(model, x0)
    width = math.isqrt(n) + 1
    half = 0.5 * model.spec.eigenvalues
    size = max(1, min(_SERIES_CELLS // (n + 1), _SERIES_BLOCK // (width * model.dim)))
    live = (y0 != 0.0) | np.any(noise != 0.0, axis=(1, 2))   # else P_k = 0 for all k
    m = np.where(live[:, None, None], m, 0.0)
    for lo in range(0, len(m), size):
        with np.errstate(over="ignore", invalid="ignore"):   # +inf is the overflowed E f
            power, cov = _powers(m[lo:lo + size].astype(np.longdouble), noise, width + 1)
            small, c_yy = power[:, :width].astype(float), cov[:, :width, :, 1, 1].astype(float)
            step = power[:, width].copy(), cov[:, width].copy()   # (M^B, C_B)
            del power, cov   # the tables dominate the working set; hold one pair at a time
            big, c_big = (t.astype(float) for t in _powers(*step, -(-(n + 1) // width)))
            out = np.empty((len(big), big.shape[1] * width))
            per = max(1, _SERIES_BLOCK // (width * model.dim * len(big)))
            r0, r1 = small[:, None, ..., 1, 0], small[:, None, ..., 1, 1]   # r_i
            for j in range(0, big.shape[1], per):
                # (G, blocks, B, d) components: M^k_yy, k = jB + i, and P_(k,yy)
                c = c_big[:, j:j + per, None]
                yy = big[:, j:j + per, None, :, 1, 0] * small[:, None, ..., 0, 1] \
                    + big[:, j:j + per, None, :, 1, 1] * r1
                p = np.square(yy * y0) + c_yy[:, None] + r0 * (r0 * c[..., 0, 0] \
                    + 2.0 * r1 * c[..., 0, 1]) + r1 * r1 * c[..., 1, 1]
                out[:, j * width:(j + p.shape[1]) * width] = (p @ half).reshape(len(big), -1)
        out[np.isnan(out)] = np.inf   # inf - inf or 0 inf in a mode that overflowed
        out[:, 0] = f0
        yield from out[:, :n + 1]


def constant_momentum_runs(algos, model, x0):
    """Iterator of (discrete_floor, exact_moment_recursion) of G constant
    momenta of one family, eta and step count from x0 on isotropic_shift, in
    order: the closed-form floors at the call, one batched series a slice at
    a time as the items are reached; (nan, None) for a run with a diverging mode.
    """
    one = {(a.family, a.eta, a.n_steps, type(a.momentum)) for a in algos}
    if len(one) != 1 or not isinstance(algos[0].momentum, ConstantMomentum) \
            or model.kind != models.ISOTROPIC_SHIFT:
        raise ValueError("need constant momenta of one family, eta and step count")
    floors, stable = _stationary(algos, model)
    m = _mode_update(algos[0], model, np.array([[a.momentum.mu] for a in algos])[stable])
    series = _momentum_series(m, _mode_noise(algos[0], model), model, x0, algos[0].n_steps)
    return ((floor, next(series) if ok else None)
            for floor, ok in zip(floors.tolist(), stable.tolist()))


def _sgd_factors(model, eta):
    """Per-mode sgd factors (c, a, b) of the mean, y' = c y, and of the second
    moment, p' = a p + b."""
    lam = model.spec.eigenvalues
    mean = 1.0 - eta * lam
    if model.kind == models.ISOTROPIC_SHIFT:
        with np.errstate(over="ignore", invalid="ignore"):   # +inf past the largest double
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
    with np.errstate(over="ignore", invalid="ignore"):   # an inf p_0 times a zero a^k is NaN
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
    power tables (_sgd_series).  A constant momentum, whatever its spectral
    radius, takes P_k = M^k P_0 (M^k)^T + C_k from blocked tables of
    composed (M^i, C_i) pairs (_momentum_series, which constant_momentum_runs
    runs for G momenta at once).  The Nesterov schedule (time-varying M_k)
    steps each mode's mean and covariance (_moment_steps); a second moment
    stepped as one would cancel where a mean crosses zero.
    """
    if not supports_exact_moments(algo, model):
        raise ValueError("no exact recursion for %s on %s; use run_ensemble"
                         % (algo.family, model.kind))
    if isinstance(algo.momentum, ConstantMomentum):
        m = _mode_update(algo, model, np.array([[algo.momentum.mu]]))
        return next(_momentum_series(m, _mode_noise(algo, model), model, x0, algo.n_steps))
    y0, f0 = _start(model, x0)
    if algo.family == SGD:
        out = _sgd_series(model, algo.eta, y0, algo.n_steps)
    else:
        half = 0.5 * model.spec.eigenvalues
        with np.errstate(over="ignore", invalid="ignore"):   # +inf is the overflowed E f
            out = np.fromiter((half @ (mean[:, 1] ** 2 + cov[:, 1, 1]) for mean, cov
                               in _moment_steps(algo, model, y0, algo.n_steps)), float)
        out[np.isnan(out)] = np.inf   # inf - inf in a mode whose moments overflowed
    out[0] = f0
    return out


def discrete_floor(algo, model):
    """Stationary E f of the exact second-moment recursion (constant mu).

    Per eigenmode: the fixed point b / (1 - a) of sgd's p' = a p + b (zero on
    eigenbasis_scaled), or P_yy of the discrete Lyapunov equation P = M P M^T
    + N of a momentum family in closed form (_stationary with G = 1).  Raises
    ValueError when a mode diverges (a >= 1, or M fails Jury's test).
    """
    if not supports_exact_moments(algo, model):
        raise ValueError("no exact stationary value for %s on %s"
                         % (algo.family, model.kind))
    lam = model.spec.eigenvalues
    diverging = ValueError("a mode diverges; no stationary value")
    if algo.family == SGD:
        _, a, b = _sgd_factors(model, algo.eta)
        if np.any(a >= 1.0):
            raise diverging
        return float(0.5 * np.sum(lam * (b / (1.0 - a))))
    if not isinstance(algo.momentum, ConstantMomentum):
        raise ValueError("stationary floor needs constant momentum")
    floor, stable = _stationary([algo], model)
    if not stable[0]:
        raise diverging
    return float(floor[0])


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
    recursion with zero initial condition): the second moment is the outer
    product of the mean plus the per-mode covariances (matkit._assemble), which
    sgd's scalar loop, the reference for _sgd_series, or _moment_steps evolves.
    """
    if not supports_exact_moments(algo, model):
        raise ValueError("no exact recursion for %s on %s" % (algo.family, model.kind))
    if not (0 <= k_target <= algo.n_steps):
        raise ValueError("k must lie in [0, N]")
    y0 = model.spec.to_eigen(np.asarray(x0, dtype=float))

    if algo.family == SGD:
        factor, a, b = _sgd_factors(model, algo.eta)
        mean, p = y0.copy(), y0 * y0
        for _ in range(k_target):
            mean = factor * mean
            p = a * p + b
        mean, cov = mean[:, None], (p - mean * mean)[:, None, None]
    else:
        mean, cov = deque(_moment_steps(algo, model, y0, k_target), maxlen=1).pop()
    m = (model.spec.basis @ mean).T.reshape(-1)
    return MomentState(k_target, m, np.outer(m, m) + matkit._assemble(model.spec, cov))
