import numpy as np
import pytest
from numpy.testing import assert_allclose

from smelab import rng, sga
from smelab.matkit import condition_spectrum, haar_orthogonal
from smelab.models import (EIGENBASIS_SCALED, ISOTROPIC_SHIFT, from_spectrum,
                           gradient_given_gamma, objective, sigma_mc)
from smelab.sga import (MSGD, SGD, SNAG, AlgoSpec, ConstantMomentum,
                        NesterovSchedule, exact_moment_recursion,
                        exact_moment_state, init_state, iteration_count,
                        mu_at, nesterov_mu, nesterov_mu_hat, rescale,
                        rescale_inverse, run_ensemble, run_path, step,
                        supports_exact_moments)
from smelab.sme import build_sme, em_integrate_ensemble


def _gamma_at(model, seed, path, k):
    return model.noise_scale * rng.normals(seed, rng.STREAM_GAMMA, path, k, 0,
                                           model.dim)


# ---------------------------------------------------------------------------
# bookkeeping: counts, rescaling, schedules, validation
# ---------------------------------------------------------------------------


def test_iteration_count_floor_semantics():
    assert iteration_count(2.0, 0.1) == 20
    assert iteration_count(0.3, 0.1) == 3          # 0.3/0.1 is 2.999... in fp
    assert iteration_count(1.999, 0.1) == 19
    assert iteration_count(0.05, 0.1) == 0


def test_rescale_round_trip_and_values():
    eta, mu = rescale(0.01, 0.9)
    assert_allclose(eta, 0.1, rtol=1e-15)
    assert_allclose(mu, 1.0, rtol=1e-12)
    for eta_hat in (0.04, 0.25, 1.0):
        for mu_hat in (0.0, 0.5, 0.99):
            back = rescale_inverse(*rescale(eta_hat, mu_hat))
            assert_allclose(back, (eta_hat, mu_hat), rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError):
        rescale(0.0, 0.5)
    with pytest.raises(ValueError):
        rescale(1.5, 0.5)


def test_nesterov_schedule_values():
    assert nesterov_mu_hat(1) == 0.0
    assert_allclose(nesterov_mu_hat(4), 0.5)
    with pytest.raises(ValueError):
        nesterov_mu_hat(0)
    # mu_k = 3/((k+2) eta), never above the admissible cap 1/eta for k >= 1
    assert_allclose(nesterov_mu(1, 0.1), 10.0)
    assert_allclose(nesterov_mu(28, 0.1), 1.0)
    assert_allclose(nesterov_mu(298, 0.1), 0.1)
    for k in range(1, 200):
        assert nesterov_mu(k, 0.1) <= 10.0 + 1e-12


def test_mu_at_conventions():
    sched = AlgoSpec(SNAG, 0.1, 5.0, NesterovSchedule())
    # iteration 0 reuses the k=1 coefficient
    assert mu_at(sched, 0) == mu_at(sched, 1) == nesterov_mu(1, 0.1)
    assert_allclose(mu_at(sched, 10), nesterov_mu(10, 0.1))
    const = AlgoSpec(MSGD, 0.1, 5.0, ConstantMomentum(0.7))
    assert mu_at(const, 0) == mu_at(const, 123) == 0.7
    with pytest.raises(ValueError):
        mu_at(AlgoSpec(SGD, 0.1, 5.0), 0)


def test_algo_spec_validation():
    assert AlgoSpec(SGD, 0.1, 2.0).n_steps == 20
    with pytest.raises(ValueError):
        AlgoSpec(SGD, 0.1, 2.0, ConstantMomentum(0.5))    # sgd takes none
    with pytest.raises(ValueError):
        AlgoSpec(MSGD, 0.1, 2.0)                          # momentum required
    with pytest.raises(ValueError):
        AlgoSpec(MSGD, 0.1, 2.0, ConstantMomentum(10.5))  # mu > 1/eta
    with pytest.raises(ValueError):
        AlgoSpec(SGD, 1.5, 2.0)                           # eta > 1
    with pytest.raises(ValueError):
        AlgoSpec(SGD, 0.1, 0.05)                          # zero iterations
    with pytest.raises(ValueError):
        AlgoSpec("adam", 0.1, 2.0)


# ---------------------------------------------------------------------------
# single-step recursions against hand-unrolled arithmetic
# ---------------------------------------------------------------------------


def test_sgd_step_hand_unrolled():
    model = from_spectrum(ISOTROPIC_SHIFT, [1.5, 0.5], noise_scale=0.8)
    h = model.spec.matrix()
    algo = AlgoSpec(SGD, 0.2, 1.0)
    x0 = np.array([1.0, -2.0])
    stream = rng.CounterStream(21, rng.STREAM_GAMMA, path=4)
    s1 = step(algo, model, init_state(algo, x0), stream)
    gamma0 = _gamma_at(model, 21, 4, 0)
    assert_allclose(s1.x, x0 - 0.2 * h @ (x0 - gamma0), rtol=1e-14)
    s2 = step(algo, model, s1, stream)
    gamma1 = _gamma_at(model, 21, 4, 1)
    assert_allclose(s2.x, s1.x - 0.2 * h @ (s1.x - gamma1), rtol=1e-14)
    assert s2.k == 2 and s2.v is None


def test_msgd_step_hand_unrolled():
    model = from_spectrum(ISOTROPIC_SHIFT, [1.5, 0.5], noise_scale=0.8)
    h = model.spec.matrix()
    eta, mu = 0.2, 0.9
    algo = AlgoSpec(MSGD, eta, 1.0, ConstantMomentum(mu))
    x0 = np.array([1.0, -2.0])
    state = init_state(algo, x0)
    assert_allclose(state.v, 0.0)
    stream = rng.CounterStream(33, rng.STREAM_GAMMA)
    s1 = step(algo, model, state, stream)
    gamma0 = _gamma_at(model, 33, 0, 0)
    v1 = -eta * h @ (x0 - gamma0)
    assert_allclose(s1.v, v1, rtol=1e-14)
    assert_allclose(s1.x, x0 + eta * v1, rtol=1e-14)
    s2 = step(algo, model, s1, stream)
    gamma1 = _gamma_at(model, 33, 0, 1)
    v2 = v1 - mu * eta * v1 - eta * h @ (s1.x - gamma1)
    assert_allclose(s2.v, v2, rtol=1e-14)
    assert_allclose(s2.x, s1.x + eta * v2, rtol=1e-14)


def test_snag_lookahead_uses_same_draw():
    # the lookahead gradient is evaluated with the same gamma as the update
    model = from_spectrum(EIGENBASIS_SCALED, [1.5, 0.5],
                          basis=haar_orthogonal(2, seed=1), noise_scale=0.8)
    eta, mu = 0.2, 0.9
    algo = AlgoSpec(SNAG, eta, 1.0, ConstantMomentum(mu))
    x0 = np.array([1.0, -2.0])
    stream = rng.CounterStream(8, rng.STREAM_GAMMA)
    s1 = step(algo, model, init_state(algo, x0), stream)
    s2 = step(algo, model, s1, stream)
    gamma1 = _gamma_at(model, 8, 0, 1)
    look = s1.x + eta * (1.0 - mu * eta) * s1.v
    v2 = s1.v - mu * eta * s1.v - eta * gradient_given_gamma(model, look, gamma1)
    assert_allclose(s2.v, v2, rtol=1e-13)
    assert_allclose(s2.x, s1.x + eta * v2, rtol=1e-13)


def test_deterministic_limits_of_all_families():
    # noise_scale = 0: closed-form deterministic recursions
    model = from_spectrum(ISOTROPIC_SHIFT, [2.0], noise_scale=0.0)
    eta, mu, lam = 0.1, 0.5, 2.0
    x0 = np.array([1.0])
    stream = rng.CounterStream(0, rng.STREAM_GAMMA)
    sgd1 = step(AlgoSpec(SGD, eta, 1.0), model, init_state(AlgoSpec(SGD, eta, 1.0), x0), stream)
    assert_allclose(sgd1.x, (1.0 - eta * lam) * x0)
    algo = AlgoSpec(MSGD, eta, 1.0, ConstantMomentum(mu))
    m1 = step(algo, model, init_state(algo, x0), stream)
    assert_allclose(m1.v, -eta * lam * x0)
    assert_allclose(m1.x, (1.0 - eta * eta * lam) * x0)
    algo = AlgoSpec(SNAG, eta, 1.0, ConstantMomentum(mu))
    n1 = step(algo, model, init_state(algo, x0), stream)
    assert_allclose(n1.x, (1.0 - eta * eta * lam) * x0)


def test_run_path_matches_manual_steps():
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=1.0)
    algo = AlgoSpec(MSGD, 0.1, 0.5, ConstantMomentum(0.8))
    vals = run_path(algo, model, [1.0, 1.0], seed=9, path=2)
    assert vals.shape == (6,)
    state = init_state(algo, np.array([1.0, 1.0]))
    stream = rng.CounterStream(9, rng.STREAM_GAMMA, path=2)
    manual = [objective(model, state.x)]
    for _ in range(5):
        state = step(algo, model, state, stream)
        manual.append(objective(model, state.x))
    assert_allclose(vals, manual, rtol=1e-14)


# ---------------------------------------------------------------------------
# exact moment recursions
# ---------------------------------------------------------------------------


def test_sgd_exact_recursion_scalar_oracle():
    lam, eta, ns = 0.7, 0.2, 0.9
    model = from_spectrum(ISOTROPIC_SHIFT, [lam], noise_scale=ns)
    algo = AlgoSpec(SGD, eta, 2.0)
    out = exact_moment_recursion(algo, model, np.array([1.3]))
    a = (1.0 - eta * lam) ** 2
    p = 1.3 ** 2
    manual = [0.5 * lam * p]
    for _ in range(algo.n_steps):
        p = a * p + (eta * lam * ns) ** 2
        manual.append(0.5 * lam * p)
    assert_allclose(out, manual, rtol=1e-13)


def test_msgd_exact_recursion_scalar_oracle():
    lam, eta, mu, ns = 0.7, 0.2, 0.9, 0.8
    model = from_spectrum(ISOTROPIC_SHIFT, [lam], noise_scale=ns)
    algo = AlgoSpec(MSGD, eta, 2.0, ConstantMomentum(mu))
    out = exact_moment_recursion(algo, model, np.array([1.3]))
    # second-moment recursion written from the update equations directly
    a, b = 1.0 - mu * eta, eta * lam
    sv = eta * lam * ns
    evv, evy, eyy = 0.0, 0.0, 1.3 ** 2
    manual = [0.5 * lam * eyy]
    for _ in range(algo.n_steps):
        # v' = a v - b y + n with noise std sv, y' = y + eta v'
        evv_n = a * a * evv - 2 * a * b * evy + b * b * eyy + sv * sv
        evy_n = (a * evy - b * eyy) + eta * evv_n
        eyy_n = eyy + 2 * eta * (a * evy - b * eyy) + eta * eta * evv_n
        evv, evy, eyy = evv_n, evy_n, eyy_n
        manual.append(0.5 * lam * eyy)
    assert_allclose(out, manual, rtol=1e-12)


def test_snag_exact_recursion_against_monte_carlo():
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=1.0)
    algo = AlgoSpec(SNAG, 0.1, 3.0, ConstantMomentum(0.8))
    x0 = np.array([2.0, 1.0])
    exact = exact_moment_recursion(algo, model, x0)
    stats = run_ensemble(algo, model, x0, n_paths=8192, seed=17)
    z = (stats.mean - exact) / np.where(stats.stderr > 0, stats.stderr, 1.0)
    assert np.max(np.abs(z[1:])) < 5.0
    assert np.mean(np.abs(z[1:])) < 1.5


def test_sgd_scaled_exact_recursion_against_monte_carlo():
    model = from_spectrum(EIGENBASIS_SCALED, [1.0, 0.1],
                          basis=haar_orthogonal(2, seed=3), noise_scale=1.0)
    algo = AlgoSpec(SGD, 0.05, 1.5)
    x0 = np.array([1.0, 1.0])
    exact = exact_moment_recursion(algo, model, x0)
    stats = run_ensemble(algo, model, x0, n_paths=8192, seed=29)
    z = (stats.mean - exact) / np.where(stats.stderr > 0, stats.stderr, 1.0)
    assert np.max(np.abs(z[1:])) < 5.0


def test_nesterov_schedule_recursion_against_monte_carlo():
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=1.0)
    algo = AlgoSpec(SNAG, 0.1, 3.0, NesterovSchedule())
    x0 = np.array([2.0, 1.0])
    exact = exact_moment_recursion(algo, model, x0)
    stats = run_ensemble(algo, model, x0, n_paths=8192, seed=41)
    z = (stats.mean - exact) / np.where(stats.stderr > 0, stats.stderr, 1.0)
    assert np.max(np.abs(z[1:])) < 5.0


def test_supports_exact_moments_matrix():
    iso = from_spectrum(ISOTROPIC_SHIFT, [1.0])
    scaled = from_spectrum(EIGENBASIS_SCALED, [1.0])
    sgd = AlgoSpec(SGD, 0.1, 1.0)
    msgd = AlgoSpec(MSGD, 0.1, 1.0, ConstantMomentum(0.5))
    assert supports_exact_moments(sgd, iso)
    assert supports_exact_moments(msgd, iso)
    assert supports_exact_moments(sgd, scaled)
    assert not supports_exact_moments(msgd, scaled)
    with pytest.raises(ValueError):
        exact_moment_recursion(msgd, scaled, np.array([1.0]))


def test_exact_moment_state_consistency():
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25],
                          basis=haar_orthogonal(2, seed=5), noise_scale=0.7)
    algo = AlgoSpec(MSGD, 0.1, 2.0, ConstantMomentum(0.9))
    x0 = np.array([2.0, -1.0])
    series = exact_moment_recursion(algo, model, x0)
    h = model.spec.matrix()
    for k in (0, 1, 7, algo.n_steps):
        ms = exact_moment_state(algo, model, x0, k)
        sxx = ms.second[2:, 2:]
        assert_allclose(0.5 * np.trace(h @ sxx), series[k], rtol=1e-11)
        # second moment minus outer(mean) is a covariance: PSD
        cov = ms.second - np.outer(ms.mean, ms.mean)
        assert np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))) > -1e-10


@pytest.mark.parametrize("kind,family,momentum", [
    (ISOTROPIC_SHIFT, SGD, None),
    (EIGENBASIS_SCALED, SGD, None),
    (ISOTROPIC_SHIFT, MSGD, ConstantMomentum(0.9)),
    (ISOTROPIC_SHIFT, SNAG, ConstantMomentum(0.9)),
    (ISOTROPIC_SHIFT, SNAG, NesterovSchedule()),
])
def test_exact_moment_state_consistency_every_family(kind, family, momentum):
    # the state and the recursion read the same per-mode tables
    model = from_spectrum(kind, [1.0, 0.5, 0.25],
                          basis=haar_orthogonal(3, seed=8), noise_scale=0.7)
    algo = AlgoSpec(family, 0.1, 2.0, momentum)
    x0 = np.array([2.0, -1.0, 0.5])
    series = exact_moment_recursion(algo, model, x0)
    h = model.spec.matrix()
    for k in (0, 1, 7, algo.n_steps):
        ms = exact_moment_state(algo, model, x0, k)
        sxx = ms.second[-3:, -3:]
        assert_allclose(0.5 * np.trace(h @ sxx), series[k], rtol=1e-11)
        cov = ms.second - np.outer(ms.mean, ms.mean)
        assert np.min(np.linalg.eigvalsh(0.5 * (cov + cov.T))) > -1e-10


def test_exact_moment_state_mean_is_deterministic_path():
    # the mean follows the noise-free recursion
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=0.7)
    zero_noise = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=0.0)
    algo = AlgoSpec(SNAG, 0.1, 1.0, ConstantMomentum(0.6))
    x0 = np.array([1.0, 2.0])
    state = init_state(algo, x0)
    stream = rng.CounterStream(0, rng.STREAM_GAMMA)
    for _ in range(6):
        state = step(algo, zero_noise, state, stream)
    ms = exact_moment_state(algo, model, x0, 6)
    assert_allclose(ms.mean[2:], state.x, rtol=1e-12)
    assert_allclose(ms.mean[:2], state.v, rtol=1e-12)


# ---------------------------------------------------------------------------
# constant momentum: the closed-form series against step loops
# ---------------------------------------------------------------------------


def _mode_matrices(family, lam, eta, mu, ns):
    """Per-mode update and noise covariance, written from the update
    equations: z = (v, y), z' = M z + (eta lam, eta^2 lam) gamma."""
    damp = 1.0 - mu * eta
    if family == SNAG:
        damp = damp * (1.0 - eta * eta * lam)
    m = np.array([[damp, -eta * lam], [eta * damp, 1.0 - eta * eta * lam]])
    nv = np.array([eta * lam, eta * eta * lam])
    return m, ns * ns * np.outer(nv, nv)


def _loop_series(family, lams, eta, mu, ns, y0, n):
    mats = [_mode_matrices(family, lam, eta, mu, ns) for lam in lams]
    ps = [np.array([[0.0, 0.0], [0.0, y * y]]) for y in y0]
    out = [0.5 * sum(lam * p[1, 1] for lam, p in zip(lams, ps))]
    for _ in range(n):
        ps = [m @ p @ m.T + noise for (m, noise), p in zip(mats, ps)]
        out.append(0.5 * sum(lam * p[1, 1] for lam, p in zip(lams, ps)))
    return np.array(out)


@pytest.mark.parametrize("family", [MSGD, SNAG])
@pytest.mark.parametrize("lams", [[1.0, 0.225625], [1.0, 0.25], [1.0, 1e-3]])
def test_constant_momentum_series_equals_step_loop(family, lams):
    # mu = 0.95 is critically damped on the scan spectrum (1, 0.225625)
    eta, ns = 0.1, 1.0
    model = from_spectrum(ISOTROPIC_SHIFT, lams, noise_scale=ns)
    x0 = np.array([1.0, 1.0])
    y0 = model.spec.to_eigen(x0)
    for mu in (0.1, 0.95, 1.0, 2.0, 3.0, 9.9):
        for horizon in (40.0, 400.0):
            algo = AlgoSpec(family, eta, horizon, ConstantMomentum(mu))
            series = exact_moment_recursion(algo, model, x0)
            loop = _loop_series(family, lams, eta, mu, ns, y0, algo.n_steps)
            assert_allclose(series, loop, rtol=1e-12, atol=0)


def test_unstable_constant_momentum_steps_the_recursion():
    # spectral radius 2.49: no stationary P_inf, so the step loop serves
    model = from_spectrum(ISOTROPIC_SHIFT, [5.674], noise_scale=1.0)
    algo = AlgoSpec(SNAG, 0.6, 6.0, ConstantMomentum(0.02))
    series = exact_moment_recursion(algo, model, np.array([1.0]))
    loop = _loop_series(SNAG, [5.674], 0.6, 0.02, 1.0, [1.0], algo.n_steps)
    assert_allclose(series, loop, rtol=1e-12, atol=0)
    assert series[-1] > 1e6 * series[0]


@pytest.mark.parametrize("family", [MSGD, SNAG])
def test_constant_momentum_series_against_mpmath(family):
    # a 40-digit recursion on the same per-mode M and N doubles; the step
    # loop in double precision is off by up to 1.4e-10 (msgd) and 3.7e-10
    # (snag) here, where an oscillating mode passes near zero
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    eta, mu, n = 0.1, 0.2, 1200
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 1.0], noise_scale=1.0)
    x0 = np.array([5.0e4, 1.0e6])
    algo = AlgoSpec(family, eta, n * eta + 1e-9, ConstantMomentum(mu))
    series = exact_moment_recursion(algo, model, x0)
    modes = []
    for lam, y in zip(model.spec.eigenvalues, model.spec.to_eigen(x0)):
        m, noise = _mode_matrices(family, lam, eta, mu, 1.0)
        modes.append((mp.mpf(lam), mp.matrix(m.tolist()), mp.matrix(noise.tolist()),
                      mp.matrix([[0, 0], [0, mp.mpf(y) ** 2]])))
    worst = 0.0
    for k in range(n + 1):
        ref = sum(lam / 2 * p[1, 1] for lam, _, _, p in modes)
        worst = max(worst, float(abs((mp.mpf(series[k]) - ref) / ref)))
        modes = [(lam, m, noise, m * p * m.T + noise) for lam, m, noise, p in modes]
    # the power tables are built in extended precision where the platform
    # has it; with a double-only longdouble the bound is 10x wider
    extended = np.finfo(np.longdouble).eps < 1e-18
    assert worst < (5e-12 if extended else 5e-11)


def test_constant_momentum_series_memory_stays_small():
    import tracemalloc
    lams = np.linspace(1.0, 0.01, 64)
    model = from_spectrum(ISOTROPIC_SHIFT, lams, noise_scale=1.0)
    algo = AlgoSpec(SNAG, 0.1, 300.0, ConstantMomentum(0.5))
    x0 = np.ones(64)
    assert algo.n_steps == 3000
    tracemalloc.start()
    try:
        series = exact_moment_recursion(algo, model, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.shape == (3001,)
    assert peak < 1 << 20


def _sweep_case():
    model = from_spectrum(ISOTROPIC_SHIFT, condition_spectrum(6, 1000.0),
                          noise_scale=1.0)
    return model, 0.1, 1.0e7 * model.spec.basis[:, -1], 120000


_SGD_SERIES_CASES = {
    # condition_sweep at kappa = 1000: 120,001 points, checked every 300th
    "sweep": _sweep_case,
    # divergence defaults: b = 0, decaying at eta = 0.005, growing at 0.04
    "scaled-decay": lambda: (from_spectrum(EIGENBASIS_SCALED, [1.0, 0.01]),
                             0.005, np.array([0.1, 1.0]), 60000),
    "scaled-growth": lambda: (from_spectrum(EIGENBASIS_SCALED, [1.0, 0.01]),
                              0.04, np.array([0.1, 1.0]), 7500),
    # eta lam = 2: a == 1 exactly, p_k = p_0 + b k
    "a-is-one": lambda: (from_spectrum(ISOTROPIC_SHIFT, [20.0]), 0.1,
                         np.array([1.0]), 2000),
    # a within about 2e-8 of 1 on either side
    "a-near-one": lambda: (from_spectrum(ISOTROPIC_SHIFT, [20.0 + 1e-7, 20.0 - 1e-7]),
                           0.1, np.array([1.0, 1.0]), 2000),
    # a = 1.44 with noise, started at 0 on that mode: p_k = b S_k alone
    "isotropic-growth": lambda: (from_spectrum(ISOTROPIC_SHIFT, [22.0, 1.0]),
                                 0.1, np.array([0.0, 1.0]), 1500),
}


@pytest.mark.parametrize("case", sorted(_SGD_SERIES_CASES))
def test_sgd_series_against_mpmath(case):
    # p_k = a^k p_0 + b S_k per mode in 40 digits on the same a, b doubles,
    # with S_k = k at a == 1 and (1 - a^k) / (1 - a) otherwise
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    model, eta, x0, n = _SGD_SERIES_CASES[case]()
    algo = AlgoSpec(SGD, eta, n * eta + 1e-9)
    assert algo.n_steps == n
    series = exact_moment_recursion(algo, model, x0)
    assert series.shape == (n + 1,)
    _, a, b = sga._sgd_factors(model, eta)
    assert case != "a-is-one" or a[0] == 1.0
    modes = [(mp.mpf(lam) / 2, mp.mpf(ai), mp.mpf(bi), mp.mpf(y) ** 2)
             for lam, ai, bi, y in zip(model.spec.eigenvalues, a, b,
                                       model.spec.to_eigen(x0))]
    worst = 0.0
    for k in sorted(set(range(0, n + 1, 300 if n > 10000 else 1)) | {n}):
        ref = mp.fsum(half * (ai ** k * p0 + bi * (k if ai == 1 else
                                                   (1 - ai ** k) / (1 - ai)))
                      for half, ai, bi, p0 in modes)
        worst = max(worst, float(abs((mp.mpf(series[k]) - ref) / ref)))
    assert worst < 1e-15


def test_sgd_series_memory_stays_small():
    import tracemalloc
    model, eta, x0, n = _sweep_case()
    algo = AlgoSpec(SGD, eta, n * eta + 1e-9)
    tracemalloc.start()
    try:
        series = exact_moment_recursion(algo, model, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series.shape == (n + 1,)
    assert peak < 1 << 20     # an (n + 1) x d power table alone is 5.8 MB


def test_sigma_mc_memory_stays_small():
    import tracemalloc
    model = from_spectrum(EIGENBASIS_SCALED, condition_spectrum(8, 10.0),
                          haar_orthogonal(8, seed=9), noise_scale=0.5)
    x = np.linspace(0.5, 1.5, 8)
    tracemalloc.start()
    try:
        est = sigma_mc(model, x, (1 << 16) + 4000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.shape == (8, 8)
    # draws come in chunks of sga._CHUNK; one chunk of 2**16 peaked at 16.6 MiB
    assert peak < 2 << 20


_OVERFLOW_CASES = {
    # divergence defaults at noise_scale 10: b = 0 and the lam = 0.01 mode
    # grows (a = 1.159 at eta = 0.04) until a^k passes the largest double
    "scaled-eta0.04": lambda: (from_spectrum(EIGENBASIS_SCALED, [1.0, 0.01],
                                             noise_scale=10.0),
                               0.04, np.array([0.1, 1.0]), 7500),
    "scaled-eta0.025": lambda: (from_spectrum(EIGENBASIS_SCALED, [1.0, 0.01],
                                              noise_scale=10.0),
                                0.025, np.array([0.1, 1.0]), 12000),
    # a = 1.44 with noise, started at 0 on that mode
    "isotropic-zero-start": lambda: (from_spectrum(ISOTROPIC_SHIFT, [22.0, 1.0]),
                                     0.1, np.array([0.0, 1.0]), 2500),
    # a = 25 from 0: a^i overflows inside the first block (i > 220, L = 245)
    "isotropic-first-block": lambda: (from_spectrum(ISOTROPIC_SHIFT, [60.0, 1.0]),
                                      0.1, np.array([0.0, 1.0]), 60000),
    # a = 1999^2 from 0 with no noise: a^i overflows inside every block
    # (i > 46, L = 55), and that mode stays 0
    "noiseless-zero-mode": lambda: (from_spectrum(ISOTROPIC_SHIFT, [20000.0, 1.0],
                                                  noise_scale=0.0),
                                    0.1, np.array([0.0, 1.0]), 3000),
}


@pytest.mark.parametrize("case", sorted(_OVERFLOW_CASES))
def test_sgd_series_overflow_reads_inf_not_nan(case):
    # the step-loop recursion per mode, on the E f contributions half * p
    # (exact_moment_state's rotated second moment turns an infinite mode
    # into NaN, so it cannot be the oracle past the overflow)
    model, eta, x0, n = _OVERFLOW_CASES[case]()
    algo = AlgoSpec(SGD, eta, n * eta + 1e-9)
    with np.errstate(over="ignore"):
        series = exact_moment_recursion(algo, model, x0)
        _, a, b = sga._sgd_factors(model, eta)
        half = 0.5 * model.spec.eigenvalues
        q = half * model.spec.to_eigen(x0) ** 2
        ref = np.empty(n + 1)
        ref[0] = q.sum()
        for k in range(n):
            q = a * q + half * b
            ref[k + 1] = q.sum()
    assert n * np.log(np.max(a)) > np.log(np.finfo(float).max)
    assert not np.any(np.isnan(series))
    assert np.array_equal(np.isinf(series), np.isinf(ref))
    finite = np.isfinite(ref)
    assert_allclose(series[finite], ref[finite], rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# ensembles: layout, determinism, thread invariance
# ---------------------------------------------------------------------------


def test_run_ensemble_layout_and_determinism():
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=1.0)
    algo = AlgoSpec(MSGD, 0.1, 1.0, ConstantMomentum(0.5))
    stats = run_ensemble(algo, model, [1.0, 1.0], n_paths=512, seed=3)
    assert stats.times.shape == stats.mean.shape == stats.stderr.shape == (11,)
    assert_allclose(stats.times, 0.1 * np.arange(11), rtol=1e-15)
    assert stats.n_paths == 512 and stats.observable == "f"
    assert stats.stderr[0] == 0.0           # deterministic start
    assert np.all(stats.stderr[1:] > 0.0)
    again = run_ensemble(algo, model, [1.0, 1.0], n_paths=512, seed=3)
    assert np.array_equal(stats.mean, again.mean)
    assert np.array_equal(stats.stderr, again.stderr)


def test_run_ensemble_thread_invariance():
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=1.0)
    algo = AlgoSpec(SNAG, 0.1, 1.0, ConstantMomentum(0.5))
    # spans three 4096-path chunks unevenly
    one = run_ensemble(algo, model, [1.0, 1.0], n_paths=9000, seed=5, threads=1)
    many = run_ensemble(algo, model, [1.0, 1.0], n_paths=9000, seed=5, threads=4)
    assert np.array_equal(one.mean, many.mean)
    assert np.array_equal(one.stderr, many.stderr)


def test_ensembles_reject_threads_outside_the_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(sga, "ThreadPoolExecutor", refuse)
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=1.0)
    algo = AlgoSpec(MSGD, 0.1, 0.5, ConstantMomentum(0.5))
    system = build_sme(model, MSGD, 1, 0.1, mu=0.5)
    for threads in (0, sga._MAX_THREADS + 1):
        with pytest.raises(ValueError, match="threads"):
            run_ensemble(algo, model, [1.0, 1.0], 16, 0, threads=threads)
        with pytest.raises(ValueError, match="threads"):
            em_integrate_ensemble(system, [1.0, 1.0], 0.5, 16, 0, threads=threads)


def test_run_ensemble_matches_run_path():
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=1.0)
    algo = AlgoSpec(MSGD, 0.1, 0.5, ConstantMomentum(0.5))
    stats = run_ensemble(algo, model, [1.0, 1.0], n_paths=16, seed=13)
    paths = np.stack([run_path(algo, model, [1.0, 1.0], seed=13, path=p)
                      for p in range(16)])
    assert_allclose(stats.mean, paths.mean(axis=0), rtol=1e-12, atol=1e-14)
