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

from smelab import models, rng, sga, sme
from smelab.matkit import _assemble, haar_orthogonal
from smelab.models import EIGENBASIS_SCALED, ISOTROPIC_SHIFT, from_spectrum
from smelab.sga import (MSGD, SGD, SNAG, AlgoSpec, ConstantMomentum,
                        NesterovSchedule, mu_at, run_ensemble)
from smelab.sme import SNAG_VARYING, build_sme, em_integrate_ensemble

N_PATHS = sga._CHUNK + 808          # one full chunk and a partial one
KINDS = (ISOTROPIC_SHIFT, EIGENBASIS_SCALED)
# the objective at d = 1, 2, 7 (columns added in turn) and 8 to 64 (eight
# accumulators, with and without a tail and a second round of eight); a
# monomial on either side of that line
OBSERVED = [(d, "f") for d in (1, 2, 7, 8, 9, 15, 16, 17, 64)] \
    + [(2, "monomial"), (9, "monomial")]


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
# one algorithm per run_ensemble call, or several sharing their draws in one
# sga._run_ensembles batch: momentum_dynamics' three momenta, and one of each family
RUNS = {name: [algo] for name, algo in ALGOS.items()}
RUNS["batch.msgd.mu_0.1_1_3"] = [(MSGD, ConstantMomentum(mu)) for mu in (0.1, 1.0, 3.0)]
RUNS["batch.sgd_msgd_snag.sched"] = [ALGOS["sgd"], ALGOS["msgd.const"], ALGOS["snag.sched"]]
# a batch shares only the draws, so fewer observables cover it
RUN_CASES = [(d, obs, kind, name) for d, obs in OBSERVED for kind in KINDS
             for name in sorted(ALGOS)] \
    + [(d, obs, kind, name) for d, obs in [(2, "f"), (9, "f"), (2, "monomial")]
       for kind in KINDS for name in sorted(set(RUNS) - set(ALGOS))]


def _runs(algos, model, x0, n_paths, seed, obs, threads):
    """run_ensemble of each algorithm, and the batch of them when there are several."""
    singles = [run_ensemble(algo, model, x0, n_paths, seed, obs, threads=threads)
               for algo in algos]
    if len(algos) == 1:
        return [singles]
    return [singles, sga._run_ensembles(algos, model, x0, n_paths, seed, obs, threads)]


@pytest.mark.parametrize("d, observable, kind, run_name", RUN_CASES)
def test_run_ensemble_equals_the_step_loop(d, observable, kind, run_name):
    # the schedule's mu changes at k = 2
    algos = [AlgoSpec(family, 0.1, 0.3, momentum) for family, momentum in RUNS[run_name]]
    model, x0, obs = _model(kind, d), _start(d), _observable(observable, d)
    refs = [_ref_run_ensemble(algo, model, x0, N_PATHS, 7, obs) for algo in algos]
    for threads in (1, 2):
        for run in _runs(algos, model, x0, N_PATHS, 7, obs, threads):
            for stats, (mean, stderr) in zip(run, refs, strict=True):
                assert _same(stats, mean, stderr)
                assert np.array_equal(stats.times, 0.1 * np.arange(4))


def test_a_batch_needs_one_step_count():
    model = _model(ISOTROPIC_SHIFT, 2)
    algos = [AlgoSpec(SGD, 0.1, 0.3), AlgoSpec(MSGD, 0.1, 0.4, ConstantMomentum(1.0))]
    with pytest.raises(ValueError, match="one step count"):
        sga._run_ensembles(algos, model, _start(2), N_PATHS, 7)


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


@pytest.mark.parametrize("d", list(range(1, 18)) + [23, 24, 25, 31, 32, 33, 64, 127, 128,
                                                 129, 130])
def test_batch_objective_equals_numpy_sum(d):
    # past haar_orthogonal's 64 the basis is the identity
    model = _model(ISOTROPIC_SHIFT, d) if d <= 64 else from_spectrum(
        ISOTROPIC_SHIFT, np.linspace(1.0, 0.2, d))
    gen = np.random.default_rng(100 + d)
    X = gen.standard_normal((1000, d)) * 10.0 ** gen.uniform(-8, 8, (1000, d))
    y = X @ model.spec.basis
    want = 0.5 * np.sum(model.spec.eigenvalues * y * y, axis=-1)
    assert np.array_equal(models._batch_objective(model, X, None,
                                                  models._Rows(model, X.shape)), want)
    out = np.empty(1000)
    assert models._batch_objective(model, X, out, models._Rows(model, X.shape)) is out
    assert np.array_equal(out, want)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 17, 64, 130])
def test_single_point_calls_equal_the_reference_on_one_row(kind, d):
    # objective, gradient_given_gamma and step run the batch kernels on one
    # row, whose scratch takes the (d,) eigenvalues and whose f is one
    # np.add.reduce: the bits of the allocating reference on that row (with
    # the kernels' C-ordered basis.T, which one-row products tell apart)
    model = _model(kind, d) if d <= 64 else from_spectrum(
        kind, np.linspace(1.0, 0.2, d), noise_scale=0.5)
    q, lam = model.spec.basis, model.spec.eigenvalues
    q_t = np.ascontiguousarray(q.T)

    def grad(x, gamma):
        if kind == ISOTROPIC_SHIFT:
            return ((x - gamma) @ q * lam) @ q_t
        return ((x @ q) * (lam + gamma)) @ q_t

    gen = np.random.default_rng(200 + d)
    for j in range(8):
        x = gen.standard_normal((1, d)) * 10.0 ** gen.uniform(-4, 4, (1, d))
        v = gen.standard_normal((1, d))
        gamma = model.noise_scale * rng.CounterStream(5, rng.STREAM_GAMMA, j).normals(d)
        assert models.objective(model, x[0]) == _ref_observable(model, "f")(x)[0]
        assert np.array_equal(models.gradient_given_gamma(model, x[0], gamma),
                              grad(x, gamma)[0])
        for algo in (AlgoSpec(SGD, 0.1, 1.0), AlgoSpec(MSGD, 0.1, 1.0, ConstantMomentum(2.0)),
                     AlgoSpec(SNAG, 0.1, 1.0, NesterovSchedule())):
            state = sga.IterState(3, x[0], None if algo.family == SGD else v[0])
            after = sga.step(algo, model, state, rng.CounterStream(5, rng.STREAM_GAMMA, j))
            if algo.family == SGD:
                assert np.array_equal(after.x, (x - 0.1 * grad(x, gamma))[0])
                continue
            c = 1.0 - mu_at(algo, 3) * 0.1
            at = x if algo.family == MSGD else x + 0.1 * c * v
            v_next = v * c - 0.1 * grad(at, gamma)
            assert np.array_equal(after.v, v_next[0])
            assert np.array_equal(after.x, (x + 0.1 * v_next)[0])


# Sums over thousands of paths absorb a last-bit change in a few of them, so
# the same comparison runs on many two-path ensembles as well.
SEEDS = range(16)


@pytest.mark.parametrize("run_name", sorted(RUNS))
@pytest.mark.parametrize("kind", KINDS)
def test_two_path_ensembles_equal_the_step_loop(kind, run_name):
    algos = [AlgoSpec(family, 0.1, 1.0, momentum) for family, momentum in RUNS[run_name]]
    model, x0 = _model(kind, 2), _start(2)
    for seed in SEEDS:
        refs = [_ref_run_ensemble(algo, model, x0, 2, seed, "f") for algo in algos]
        for run in _runs(algos, model, x0, 2, seed, "f", 1):
            for stats, (mean, stderr) in zip(run, refs, strict=True):
                assert _same(stats, mean, stderr)


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


# Models built with no basis have exactly np.eye(d) as their eigenbasis, and
# the kernels skip their products with it; the explicit products give the
# same bits on finite points with no zero coordinate.
def _identity_model(kind, d):
    return from_spectrum(kind, np.linspace(1.0, 0.2, d), noise_scale=0.5)


def _points(gen, m, d):
    return gen.standard_normal((m, d)) * 10.0 ** gen.uniform(-4, 4, (m, d))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m, d", [(1, 1), (1, 2), (1, 9), (5, 1), (300, 2), (300, 9)])
def test_identity_basis_kernels_equal_the_explicit_products(kind, m, d):
    model = _identity_model(kind, d)
    eye, lam = np.eye(d), model.spec.eigenvalues
    rows = models._Rows(model, (m, d))
    assert rows.basis is None and rows.basis_t is None
    gen = np.random.default_rng(300 + 10 * m + d)
    X, gamma = _points(gen, m, d), model.noise_scale * gen.standard_normal((m, d))
    if kind == ISOTROPIC_SHIFT:
        want = ((X - gamma) @ eye * lam) @ eye
    else:
        want = ((X @ eye) * (lam + gamma)) @ eye
    out = np.empty((m, d))
    assert models._batch_gradient(model, X, gamma, out, rows) is out
    assert np.array_equal(out, want)
    # snag's look-ahead point lives in rows.a, which the kernel must read
    # before it writes there
    np.copyto(rows.a, X)
    assert np.array_equal(models._batch_gradient(model, rows.a, gamma, None, rows), want)
    y = X @ eye
    f = models._batch_objective(model, X, np.empty(m), rows)
    assert np.array_equal(f, 0.5 * np.sum(lam * y * y, axis=-1))
    if m == 1:
        assert models.objective(model, X[0]) == f[0]
        assert np.array_equal(models.gradient_given_gamma(model, X[0], gamma[0]), want[0])


@pytest.mark.parametrize("system_name", ["sgd1", "msgd2", "snag1"])
@pytest.mark.parametrize("kind", KINDS)
def test_identity_basis_noise_equals_the_explicit_products(kind, system_name):
    family, order, mu = SYSTEMS[system_name]
    system = build_sme(_identity_model(kind, 3), family, order, 0.1, mu=mu)
    gen = np.random.default_rng(17)
    Y, Z = _points(gen, 200, system.state_dim), gen.standard_normal((200, 3))
    rows = models._Rows(system.model, Z.shape)
    assert rows.basis is None
    out = np.empty_like(Z)
    assert sme._batch_noise(system, Y, Z, out, rows) is out
    assert np.array_equal(out, _ref_batch_noise(system, Y, Z)[:, :3])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", KINDS)
def test_recorded_steps_equal_the_full_run_there(kind, threads):
    # one full chunk and a partial one; the last recorded step stops the run
    algos = [AlgoSpec(MSGD, 0.1, 0.7, ConstantMomentum(mu)) for mu in (0.1, 1.0, 3.0)] \
        + [AlgoSpec(SNAG, 0.1, 0.7, NesterovSchedule())]
    for model in (_identity_model(kind, 2), _model(kind, 2)):
        full = sga._run_ensembles(algos, model, _start(2), N_PATHS, 7, "f", threads)
        for ks in (np.array([0, 2, 3, 7]), np.array([1, 4]), np.arange(8)):
            part = sga._run_ensembles(algos, model, _start(2), N_PATHS, 7, "f", threads,
                                      record=ks)
            for stats, whole in zip(part, full, strict=True):
                assert np.array_equal(stats.times, whole.times[ks])
                assert _same(stats, whole.mean[ks], whole.stderr[ks])
