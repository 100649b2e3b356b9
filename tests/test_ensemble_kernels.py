"""The in-place ensemble kernels against the per-step loop they replaced.

The reference below is the earlier implementation of run_ensemble and
em_integrate_ensemble, kept here as exact_moment_state keeps its step loop:
every step draws fresh arrays for a uint64 path array, and every operation
allocates its result.  The kernels perform the same floating-point operations
in the same order into buffers, so the two must agree bit for bit.
"""

import math

import numpy as np
import pytest

from smelab import models, rng, sga
from smelab.matkit import _assemble, haar_orthogonal
from smelab.models import EIGENBASIS_SCALED, ISOTROPIC_SHIFT, from_spectrum
from smelab.sga import (MSGD, SGD, SNAG, AlgoSpec, ConstantMomentum,
                        NesterovSchedule, mu_at, run_ensemble)
from smelab.sme import SNAG_VARYING, build_sme, em_integrate_ensemble

N_PATHS = sga._CHUNK + 808          # one full chunk and a partial one
KINDS = (ISOTROPIC_SHIFT, EIGENBASIS_SCALED)
# the objective at d = 1, 2, 7 (columns added in turn) and 8, 9 (np.sum,
# pairwise from eight terms); a monomial on either side of that line
OBSERVED = [(d, "f") for d in (1, 2, 7, 8, 9)] + [(2, "monomial"), (9, "monomial")]


# ---------------------------------------------------------------------------
# the reference: one allocating step at a time
# ---------------------------------------------------------------------------


def _ref_gradient(model, X, gammas):
    q = model.spec.basis
    lam = model.spec.eigenvalues
    if model.kind == ISOTROPIC_SHIFT:
        return ((X - gammas) @ q * lam) @ q.T
    return ((X @ q) * (lam + gammas)) @ q.T


def _ref_observable(model, observable):
    if observable == "f":
        def objective(X):
            y = X @ model.spec.basis
            return 0.5 * np.sum(model.spec.eigenvalues * y * y, axis=-1)
        return objective
    exps = np.asarray(observable, dtype=float)
    return lambda X: np.prod(X ** exps, axis=-1)


def _ref_ensemble(n_paths, n, start, advance, observe):
    s1 = np.zeros(n + 1)
    s2 = np.zeros(n + 1)
    for lo in range(0, n_paths, sga._CHUNK):
        paths = np.arange(lo, min(lo + sga._CHUNK, n_paths), dtype=np.uint64)
        state = start(paths.size)
        p1 = np.empty(n + 1)
        p2 = np.empty(n + 1)
        for k in range(n + 1):
            if k:
                advance(state, paths, k - 1)
            vals = observe(state)
            p1[k] = vals.sum()
            p2[k] = (vals * vals).sum()
        s1 += p1
        s2 += p2
    mean = s1 / n_paths
    var = np.maximum(s2 - n_paths * mean * mean, 0.0) / (n_paths - 1)
    return mean, np.sqrt(var / n_paths)


def _ref_run_ensemble(algo, model, x0, n_paths, seed, observable):
    x0 = np.asarray(x0, dtype=float)
    g = _ref_observable(model, observable)

    def advance(state, paths, k):
        X, V = state
        eta = algo.eta
        gammas = model.noise_scale * rng.normals(seed, rng.STREAM_GAMMA, paths, k,
                                                 0, model.dim)
        if algo.family == SGD:
            X -= eta * _ref_gradient(model, X, gammas)
            return
        mu = mu_at(algo, k)
        at = X if algo.family == MSGD else X + eta * (1.0 - mu * eta) * V
        G = _ref_gradient(model, at, gammas)
        V *= (1.0 - mu * eta)
        V -= eta * G
        X += eta * V

    momentum = algo.family != SGD
    return _ref_ensemble(
        n_paths, algo.n_steps,
        lambda m: (np.tile(x0, (m, 1)), np.zeros((m, x0.size)) if momentum else None),
        advance, lambda state: g(state[0]))


def _ref_batch_drift(system, Y, t):
    b0, b1 = system._blocks(t)
    return Y @ _assemble(system.model.spec, b0 + system.eta * b1).T


def _ref_batch_noise(system, Y, Z):
    d = system.dim_x
    model = system.model
    q = model.spec.basis
    root_eta = math.sqrt(system.eta)
    if model.kind == ISOTROPIC_SHIFT:
        inc = root_eta * model.noise_scale * (Z @ q * model.spec.eigenvalues) @ q.T
    else:
        yc = np.abs(Y[:, -d:] @ q)
        inc = root_eta * model.noise_scale * (yc * (Z @ q)) @ q.T
    out = np.zeros_like(Y)
    out[:, :d] = inc
    return out


def _ref_em(system, x0, T, n_paths, seed, substeps, observable):
    d = system.dim_x
    y0 = np.asarray(x0, dtype=float)
    if system.state_dim != d:
        y0 = np.concatenate([np.zeros(d), y0])
    t0 = system.t0
    n = sga.iteration_count(T - t0, system.eta)
    delta = system.eta / substeps
    g = _ref_observable(system.model, observable)

    def advance(Y, paths, k):
        for idx in range(k * substeps, (k + 1) * substeps):
            Z = rng.normals(seed, rng.STREAM_EM, paths, idx, 0, d)
            Y += delta * _ref_batch_drift(system, Y, t0 + idx * delta) \
                + math.sqrt(delta) * _ref_batch_noise(system, Y, Z)

    return _ref_ensemble(n_paths, n, lambda m: np.tile(y0, (m, 1)), advance,
                         lambda Y: g(Y[:, -d:]))


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def _model(kind, d):
    lam = np.linspace(1.0, 0.2, d)
    return from_spectrum(kind, lam, haar_orthogonal(d, seed=d), noise_scale=0.5)


def _start(d):
    return np.random.default_rng(d).uniform(-1.5, 1.5, d)


def _observable(name, d):
    return "f" if name == "f" else tuple(1 + j % 2 for j in range(d))


def _same(stats, mean, stderr):
    return np.array_equal(stats.mean, mean) and np.array_equal(stats.stderr, stderr)


ALGOS = {
    "sgd": (SGD, None),
    "msgd.const": (MSGD, ConstantMomentum(1.5)),
    "snag.const": (SNAG, ConstantMomentum(1.5)),
    "msgd.sched": (MSGD, NesterovSchedule()),
    "snag.sched": (SNAG, NesterovSchedule()),
}


@pytest.mark.parametrize("algo_name", sorted(ALGOS))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d, observable", OBSERVED)
def test_run_ensemble_equals_the_step_loop(d, observable, kind, algo_name):
    family, momentum = ALGOS[algo_name]
    algo = AlgoSpec(family, 0.1, 0.3, momentum)   # the schedule's mu changes at k = 2
    model, x0, obs = _model(kind, d), _start(d), _observable(observable, d)
    mean, stderr = _ref_run_ensemble(algo, model, x0, N_PATHS, 7, obs)
    for threads in (1, 2):
        stats = run_ensemble(algo, model, x0, N_PATHS, 7, obs, threads=threads)
        assert _same(stats, mean, stderr)


SYSTEMS = {
    "sgd1": (SGD, 1, None), "sgd2": (SGD, 2, None),
    "msgd1": (MSGD, 1, 1.2), "msgd2": (MSGD, 2, 1.2),
    "snag1": (SNAG, 1, 1.2), "snag2": (SNAG, 2, 1.2),
    "snag_varying": (SNAG_VARYING, 1, None),
}


@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d, observable", OBSERVED)
def test_em_ensemble_equals_the_step_loop(d, observable, kind, system_name):
    family, order, mu = SYSTEMS[system_name]
    system = build_sme(_model(kind, d), family, order, 0.1, mu=mu)
    x0, obs = _start(d), _observable(observable, d)
    T = system.t0 + 0.2
    mean, stderr = _ref_em(system, x0, T, N_PATHS, 11, 2, obs)
    for threads in (1, 2):
        stats = em_integrate_ensemble(system, x0, T, N_PATHS, 11, substeps=2,
                                      observable=obs, threads=threads)
        assert _same(stats, mean, stderr)


@pytest.mark.parametrize("d", range(1, 17))
def test_batch_objective_equals_numpy_sum(d):
    model = _model(ISOTROPIC_SHIFT, d)
    gen = np.random.default_rng(100 + d)
    X = gen.standard_normal((1000, d)) * 10.0 ** gen.uniform(-8, 8, (1000, d))
    y = X @ model.spec.basis
    want = 0.5 * np.sum(model.spec.eigenvalues * y * y, axis=-1)
    assert np.array_equal(models._batch_objective(model, X), want)
    out = np.empty(1000)
    assert models._batch_objective(model, X, out, models._Rows(model, X.shape)) is out
    assert np.array_equal(out, want)


# Sums over thousands of paths absorb a last-bit change in a few of them, so
# the same comparison runs on many two-path ensembles as well.
SEEDS = range(16)


@pytest.mark.parametrize("algo_name", sorted(ALGOS))
@pytest.mark.parametrize("kind", KINDS)
def test_two_path_ensembles_equal_the_step_loop(kind, algo_name):
    family, momentum = ALGOS[algo_name]
    algo = AlgoSpec(family, 0.1, 1.0, momentum)
    model, x0 = _model(kind, 2), _start(2)
    for seed in SEEDS:
        mean, stderr = _ref_run_ensemble(algo, model, x0, 2, seed, "f")
        assert _same(run_ensemble(algo, model, x0, 2, seed), mean, stderr)


@pytest.mark.parametrize("system_name", sorted(SYSTEMS))
@pytest.mark.parametrize("kind", KINDS)
def test_two_path_em_ensembles_equal_the_step_loop(kind, system_name):
    family, order, mu = SYSTEMS[system_name]
    system = build_sme(_model(kind, 2), family, order, 0.1, mu=mu)
    x0, T = _start(2), system.t0 + 0.5
    for seed in SEEDS:
        mean, stderr = _ref_em(system, x0, T, 2, seed, 4, "f")
        stats = em_integrate_ensemble(system, x0, T, 2, seed, substeps=4)
        assert _same(stats, mean, stderr)
