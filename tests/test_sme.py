import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, solve_ivp
from scipy.linalg import solve_continuous_lyapunov

from smelab.matkit import SpectralDecomp, haar_orthogonal, mat_exp_dense
from smelab.models import (EIGENBASIS_SCALED, ISOTROPIC_SHIFT, from_spectrum,
                           grad_full, objective)
from smelab.sga import MSGD, SGD, SNAG
from smelab.sme import (SNAG_VARYING, SmeSystem, _batch_drift,
                        asymptotic_noise_msgd,
                        bs_expected_f, build_sme, em_integrate_ensemble,
                        langevin_expected_f_exact,
                        langevin_expected_f_quadrature, langevin_system,
                        linear_sme_moments, one_step_moments, ou_expected_f,
                        R_function)

RHO = haar_orthogonal(2, seed=11)


def _iso(lams, ns=1.0):
    return from_spectrum(ISOTROPIC_SHIFT, lams, basis=RHO[:len(lams), :len(lams)]
                         if len(lams) == 2 else None, noise_scale=ns)


# ---------------------------------------------------------------------------
# system construction and validation
# ---------------------------------------------------------------------------


def test_system_validation():
    model = _iso([1.0, 0.25])
    with pytest.raises(ValueError):
        build_sme(model, "adam", 1, 0.1)
    with pytest.raises(ValueError):
        build_sme(model, SGD, 3, 0.1)
    with pytest.raises(ValueError):
        build_sme(model, SGD, 1, 1.5)
    with pytest.raises(ValueError):
        build_sme(model, MSGD, 1, 0.1)               # mu required
    with pytest.raises(ValueError):
        build_sme(model, MSGD, 1, 0.1, mu=10.5)      # mu > 1/eta
    with pytest.raises(ValueError):
        build_sme(model, SGD, 1, 0.1, mu=0.5)        # sgd takes no mu
    with pytest.raises(ValueError):
        build_sme(model, SNAG_VARYING, 2, 0.1, t0=1.0)
    # omitted t0 falls back to a small positive start; zero is rejected
    assert build_sme(model, SNAG_VARYING, 1, 0.1).t0 == 0.1
    with pytest.raises(ValueError):
        SmeSystem(SNAG_VARYING, 1, model, 0.1, None, 0.0)
    sys1 = build_sme(model, SNAG_VARYING, 1, 0.1, t0=2.0)
    assert sys1.state_dim == 4 and sys1.dim_x == 2
    assert build_sme(model, SGD, 1, 0.1).state_dim == 2
    with pytest.raises(ValueError):
        build_sme(model, SGD, 1, 0.1).split_state(np.zeros(3))


def test_the_sde_takes_any_positive_mu():
    # the ceiling mu <= 1/eta is the discrete family's, held by build_sme
    model = _iso([1.0, 0.25])
    with pytest.raises(ValueError):
        SmeSystem(MSGD, 1, model, 0.1, None)
    assert SmeSystem(MSGD, 1, model, 0.1, 100.0).mu == 100.0
    with pytest.raises(ValueError):
        build_sme(model, MSGD, 1, 0.1, mu=10.5)


def test_langevin_system_is_an_sme_system():
    spec = _iso([1.0, 0.25]).spec
    for variant, family, order in (("order1", MSGD, 1), ("msgd2", MSGD, 2),
                                   ("snag2", SNAG, 2)):
        system = langevin_system(spec, 0.7, 0.1, 0.9, variant)
        assert isinstance(system, SmeSystem)
        assert (system.family, system.order, system.mu, system.eta) \
            == (family, order, 0.7, 0.1)
        assert system.model.kind == ISOTROPIC_SHIFT
        assert system.model.spec is spec and system.model.noise_scale == 0.9
    # eta and noise_scale are checked as for any SME and model
    for eta in (0.0, 1.5):
        with pytest.raises(ValueError):
            langevin_system(spec, 0.7, eta)
    with pytest.raises(ValueError):
        langevin_system(spec, 0.7, 0.1, noise_scale=-0.1)


@pytest.mark.parametrize("variant, family, order", [
    ("order1", MSGD, 1), ("msgd2", MSGD, 2), ("snag2", SNAG, 2)])
def test_closed_forms_read_any_momentum_sme(variant, family, order):
    model = _iso([1.0, 0.25], ns=0.9)
    x0 = np.array([1.5, -0.5])
    built = build_sme(model, family, order, 0.1, 0.7)
    named = langevin_system(model.spec, 0.7, 0.1, 0.9, variant)
    assert np.array_equal(built.blocks.blocks, named.blocks.blocks)
    for t in (0.0, 0.3, 2.0, math.inf):
        assert langevin_expected_f_exact(built, x0, t) \
            == langevin_expected_f_exact(named, x0, t)
        assert langevin_expected_f_quadrature(built, x0, t) \
            == langevin_expected_f_quadrature(named, x0, t)


@pytest.mark.parametrize("make", [
    lambda m: build_sme(m, SGD, 1, 0.1),
    lambda m: build_sme(m, SNAG_VARYING, 1, 0.1, t0=1.0),
    lambda m: build_sme(from_spectrum(EIGENBASIS_SCALED, [1.0, 0.25]), MSGD, 1, 0.1, 0.7),
], ids=["sgd", "snag_varying", "eigenbasis_scaled"])
def test_systems_without_langevin_blocks_are_rejected(make):
    system = make(_iso([1.0, 0.25]))
    with pytest.raises(ValueError):
        system.blocks
    with pytest.raises(ValueError):
        langevin_expected_f_exact(system, np.ones(2), 1.0)
    with pytest.raises(ValueError):
        langevin_expected_f_quadrature(system, np.ones(2), 1.0)


def test_drift_closed_forms():
    model = _iso([1.5, 0.5], ns=0.8)
    h = model.spec.matrix()
    x = np.array([0.7, -1.1])
    v = np.array([0.4, 0.2])
    y = np.concatenate([v, x])
    g = grad_full(model, x)
    sgd1 = build_sme(model, SGD, 1, 0.2)
    assert_allclose(sgd1.drift(x), -g, rtol=1e-14)
    sgd2 = build_sme(model, SGD, 2, 0.2)
    assert_allclose(sgd2.drift(x), -g - 0.5 * 0.2 * h @ g, rtol=1e-13)
    mu = 0.9
    msgd1 = build_sme(model, MSGD, 1, 0.2, mu=mu)
    assert_allclose(msgd1.drift(y), np.concatenate([-mu * v - g, v]), rtol=1e-14)
    # order-2 corrections differ between the momentum families by the sign
    # of the Hessian-velocity term in the velocity block
    msgd2 = build_sme(model, MSGD, 2, 0.2, mu=mu)
    snag2 = build_sme(model, SNAG, 2, 0.2, mu=mu)
    dv = (snag2.drift(y) - msgd2.drift(y))[:2]
    assert_allclose(dv, -0.2 * h @ v, rtol=1e-12)
    assert_allclose((snag2.drift(y) - msgd2.drift(y))[2:], 0.0, atol=1e-15)
    varying = build_sme(model, SNAG_VARYING, 1, 0.2, t0=2.5)
    assert_allclose(varying.drift_b0(y, 2.5),
                    np.concatenate([-(3.0 / 2.5) * v - g, v]), rtol=1e-14)
    with pytest.raises(ValueError):
        varying.drift_b0(y, 0.0)


def test_noise_factor_and_linear_parts():
    model = _iso([1.5, 0.5], ns=0.8)
    h = model.spec.matrix()
    eta = 0.2
    sgd2 = build_sme(model, SGD, 2, eta)
    a, s = sgd2.linear_parts()
    assert_allclose(a, -h - 0.5 * eta * h @ h, rtol=1e-13)
    assert_allclose(s, math.sqrt(eta) * 0.8 * h, rtol=1e-14)
    x = np.array([0.3, 0.4])
    assert_allclose(sgd2.noise_factor(x), s, rtol=1e-14)
    mu = 0.9
    msgd1 = build_sme(model, MSGD, 1, eta, mu=mu)
    a, s = msgd1.linear_parts()
    eye = np.eye(2)
    zero = np.zeros((2, 2))
    assert_allclose(a, np.block([[-mu * eye, -h], [eye, zero]]), atol=1e-14)
    assert_allclose(s, np.vstack([math.sqrt(eta) * 0.8 * h, zero]), atol=1e-14)
    # drift of the linear system equals A y
    y = np.array([0.4, 0.2, 0.7, -1.1])
    assert_allclose(msgd1.drift(y), a @ y, rtol=1e-13)
    scaled = from_spectrum(EIGENBASIS_SCALED, [1.5, 0.5], noise_scale=0.8)
    with pytest.raises(ValueError):
        build_sme(scaled, SGD, 1, eta).linear_parts()
    with pytest.raises(ValueError):
        build_sme(model, SNAG_VARYING, 1, eta, t0=1.0).linear_parts()


@pytest.mark.parametrize("family", [SGD, MSGD, SNAG])
@pytest.mark.parametrize("order", [1, 2])
def test_drift_routes_share_one_block_table(family, order):
    # drift, batched drift, dense linear part and Langevin blocks all derive
    # from the same per-mode drift blocks
    model = from_spectrum(ISOTROPIC_SHIFT, [1.5, 0.6, 0.2],
                          basis=haar_orthogonal(3, seed=4), noise_scale=0.8)
    mu = None if family == SGD else 0.9
    system = build_sme(model, family, order, 0.2, mu=mu)
    a = system.linear_parts()[0]
    ys = np.random.default_rng(3).standard_normal((5, system.state_dim))
    batch = _batch_drift(system, ys, 0.0)
    for y, row in zip(ys, batch):
        assert_allclose(system.drift(y), a @ y, rtol=1e-13, atol=1e-13)
        assert_allclose(row, system.drift(y), rtol=1e-13, atol=1e-13)
    if family != SGD:
        variant = "order1" if order == 1 else family + "2"
        blocks = langevin_system(model.spec, mu, 0.2, 0.8, variant).blocks
        assert_allclose(blocks.assemble(), -a, rtol=1e-13, atol=1e-13)


# ---------------------------------------------------------------------------
# closed-form E f against an independent ODE integrator
# ---------------------------------------------------------------------------


def test_ou_expected_f_against_ode():
    model = _iso([1.0, 0.1], ns=0.7)
    spec = model.spec
    x0 = np.array([1.0, -2.0])
    eta, ns = 0.1, 0.7
    for order in (1, 2):
        m = spec.eigenvalues * (1.0 + 0.5 * eta * spec.eigenvalues
                                if order == 2 else 1.0)
        y0 = spec.to_eigen(x0) ** 2

        def rhs(_, p):
            return -2.0 * m * p + eta * ns ** 2 * spec.eigenvalues ** 2

        sol = solve_ivp(rhs, (0.0, 3.0), y0, t_eval=[0.5, 1.5, 3.0],
                        rtol=1e-11, atol=1e-13)
        want = 0.5 * sol.y.T @ spec.eigenvalues
        got = ou_expected_f(spec, x0, eta, np.array([0.5, 1.5, 3.0]),
                            noise_scale=ns, order=order)
        assert_allclose(got, want, rtol=1e-8)
    assert_allclose(ou_expected_f(spec, x0, eta, 0.0, noise_scale=ns),
                    objective(model, x0), rtol=1e-14)


@pytest.mark.parametrize("order", [1, 2])
def test_ou_expected_f_at_t0_is_f_x0_where_the_noise_overflows(order):
    # eta ns^2 lam^2 (and at order 2 the decay m) overflow: inf x 0 must read 0, not NaN
    spec = SpectralDecomp(np.array([2.7e281, 3.2e135]), np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ou_expected_f(spec, (1.0, 1.0), 0.1, 0.0, order=order) == 1.35e281


def test_bs_expected_f_against_ode():
    model = from_spectrum(EIGENBASIS_SCALED, [1.0, 0.1], noise_scale=0.7)
    spec = model.spec
    x0 = np.array([1.0, -2.0])
    eta, ns = 0.1, 0.7
    lam = spec.eigenvalues
    y0 = spec.to_eigen(x0) ** 2

    def rhs(_, p):
        return (eta * ns ** 2 - 2.0 * lam) * p

    sol = solve_ivp(rhs, (0.0, 4.0), y0, t_eval=[1.0, 4.0], rtol=1e-11, atol=1e-13)
    want = 0.5 * sol.y.T @ lam
    got = bs_expected_f(spec, x0, eta, np.array([1.0, 4.0]), noise_scale=ns)
    assert_allclose(got, want, rtol=1e-8)
    # a mode with eta ns^2 > 2 lam grows
    grow = bs_expected_f(spec, x0, 0.5, np.array([10.0, 20.0]), noise_scale=2.0)
    assert grow[1] > grow[0]


def test_ou_zero_noise_is_pure_decay():
    spec = _iso([1.0, 0.25]).spec
    x0 = np.array([2.0, 1.0])
    y0 = spec.to_eigen(x0)
    t = 1.3
    want = 0.5 * np.sum(spec.eigenvalues * np.exp(-2 * spec.eigenvalues * t) * y0 ** 2)
    assert_allclose(ou_expected_f(spec, x0, 0.1, t, noise_scale=0.0), want, rtol=1e-13)


# ---------------------------------------------------------------------------
# R function and the asymptotic noise level
# ---------------------------------------------------------------------------


def test_r_function_underdamped_is_cosine_integral():
    for mu, lam in ((1.0, 1.0), (0.5, 0.3), (1.9, 1.0)):
        om = math.sqrt(4 * lam - mu * mu)
        for t in (0.3, 1.0, 4.0):
            want, _ = quad(lambda s: math.exp(-mu * s) * math.cos(om * s), 0, t)
            assert_allclose(R_function(t, mu, lam), want, rtol=1e-10)


def test_r_function_branches_and_limits():
    assert R_function(0.0, 0.7, 2.0) == 0.0
    assert_allclose(R_function(np.inf, 0.7, 2.0), 0.7 / 8.0, rtol=1e-14)
    assert_allclose(R_function(np.inf, 4.0, 1.0), 0.25, rtol=1e-14)
    # overdamped branch is the exponential relaxation
    assert_allclose(R_function(1.7, 3.0, 1.0), (1 - math.exp(-3.0 * 1.7)) / 3.0,
                    rtol=1e-14)
    # the branches agree across the critical point mu^2 = 4 lam
    lo = R_function(1.1, 2.0 * (1 - 1e-7), 1.0)
    hi = R_function(1.1, 2.0 * (1 + 1e-7), 1.0)
    assert_allclose(lo, hi, rtol=1e-5)
    # the deep-time value reaches R(inf) once e^{-mu t} underflows
    assert_allclose(R_function(2000.0, 0.5, 1.0), R_function(np.inf, 0.5, 1.0),
                    rtol=1e-12)
    with pytest.raises(ValueError):
        R_function(1.0, 0.0, 1.0)
    for t in (-1.0, -math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be >= 0"):
            R_function(t, 1.0, 1.0)


def test_asymptotic_noise_collapses_to_quarter_mu():
    # in both damping regimes the bracket algebra reduces the sum to
    # (eta / 4 mu) ns^2 sum lam^2
    spec = _iso([1.0, 0.25]).spec
    for mu in (0.1, 3.0):
        got = asymptotic_noise_msgd(spec, mu, 0.1, noise_scale=0.8)
        assert_allclose(got, 0.1 / (4 * mu) * 0.64 * (1.0 + 0.0625), rtol=1e-12)
    with pytest.raises(ValueError):
        asymptotic_noise_msgd(spec, 1.0, 0.1)   # critical at lam = 0.25
    with pytest.raises(ValueError):
        asymptotic_noise_msgd(spec, 0.0, 0.1)


def test_asymptotic_noise_equals_exact_stationary_value():
    spec = _iso([1.0, 0.25]).spec
    for mu in (0.1, 0.7, 3.0):
        system = langevin_system(spec, mu, 0.1, noise_scale=0.8)
        exact = langevin_expected_f_exact(system, np.zeros(2), np.inf)
        assert_allclose(asymptotic_noise_msgd(spec, mu, 0.1, noise_scale=0.8),
                        exact, rtol=1e-10)


# ---------------------------------------------------------------------------
# the Langevin dual route: closed form vs dense quadrature
# ---------------------------------------------------------------------------


def test_langevin_exact_vs_quadrature_random_systems():
    rng_ = np.random.default_rng(2024)
    for _ in range(4):
        d = int(rng_.integers(1, 4))
        lams = np.sort(rng_.uniform(0.1, 2.0, d))[::-1]
        mu = float(rng_.uniform(0.2, 3.0))
        spec = from_spectrum(ISOTROPIC_SHIFT, lams).spec
        if min(abs(mu * mu - 4 * l) for l in lams) < 1e-6:
            mu += 0.01
        system = langevin_system(spec, mu, 0.1, noise_scale=0.9)
        x0 = rng_.uniform(-2, 2, d)
        for t in (0.3, 1.7, 5.0):
            a = langevin_expected_f_exact(system, x0, t)
            b = langevin_expected_f_quadrature(system, x0, t)
            assert_allclose(a, b, rtol=1e-8)


def test_langevin_t_zero_and_critical_fallback():
    spec = _iso([1.0, 0.25]).spec
    x0 = np.array([2.0, -1.0])
    system = langevin_system(spec, 0.7, 0.1, noise_scale=0.9)
    assert_allclose(langevin_expected_f_exact(system, x0, 0.0),
                    0.5 * x0 @ spec.matrix() @ x0, rtol=1e-12)
    # mu = 1 is critically damped for lam = 0.25: the exact route treats that
    # mode like any other (no regime split), and quadrature is the oracle
    critical = langevin_system(spec, 1.0, 0.1, noise_scale=0.9)
    a = langevin_expected_f_exact(critical, x0, 2.0)
    b = langevin_expected_f_quadrature(critical, x0, 2.0)
    assert_allclose(a, b, rtol=1e-9)


def test_langevin_unstable_asymptote_raises():
    spec = _iso([1.0, 0.25]).spec
    system = langevin_system(spec, 0.7, 0.1)
    assert langevin_expected_f_exact(system, np.zeros(2), np.inf) > 0
    # mu <= 0 rejected outright; a stable system never raises
    with pytest.raises(ValueError):
        langevin_system(spec, -0.5, 0.1)


@pytest.mark.parametrize("block", [
    [[3.0, 1.0], [-1.0, 0.0]],     # overdamped: tr^2 - 4 det = 5
    [[0.4, 1.0], [-1.0, 0.0]],     # underdamped: -3.84
    [[2.0, 1.0], [-1.0, 0.0]],     # defective (critical): 0
    [[0.7, 0.3], [-2.5, 0.05]],    # underdamped with a general [1, 0] entry
])
def test_quadrature_integrand_entry_matches_the_matrix_exponential(block):
    import scipy.linalg
    from smelab.matkit import mat_exp_2x2
    from smelab.sme import _decay_entry
    m = np.array(block)
    entry = _decay_entry(m)
    for u in (0.0, 1e-9, 0.3, 2.0, 37.5, 600.0):
        # scipy's expm is off by about 1e-10 on the defective block at u = 600
        assert_allclose(entry(u), mat_exp_2x2(m, -u)[1, 0], rtol=1e-13, atol=0)
        assert_allclose(entry(u), scipy.linalg.expm(-u * m)[1, 0], rtol=1e-9, atol=0)


def test_order2_variants_differ_and_agree_between_routes():
    spec = _iso([1.0, 0.25]).spec
    x0 = np.array([1.0, 1.0])
    vals = {}
    for variant in ("order1", "msgd2", "snag2"):
        system = langevin_system(spec, 0.7, 0.25, noise_scale=0.9, variant=variant)
        a = langevin_expected_f_exact(system, x0, 2.0)
        b = langevin_expected_f_quadrature(system, x0, 2.0)
        assert_allclose(a, b, rtol=1e-8)
        vals[variant] = a
    assert abs(vals["msgd2"] - vals["snag2"]) > 1e-4
    with pytest.raises(ValueError):
        langevin_system(spec, 0.7, 0.25, variant="order3")


def _stationary_f_order2(lams, mu, eta, ns, variant):
    # per mode, state (v, x): dv = -[(mu + (eta/2)(mu^2 -+ lam)) v
    # + (1 + eta mu/2) lam x] dt + sqrt(eta) ns lam dW,
    # dx = [(1 - eta mu/2) v - (eta/2) lam x] dt (-lam for msgd2, +lam for
    # snag2); the stationary covariance S solves A S + S A^T + b b^T = 0
    sign = -1.0 if variant == "msgd2" else 1.0
    total = 0.0
    for lam in lams:
        a = np.array([[-(mu + 0.5 * eta * (mu * mu + sign * lam)),
                       -(1.0 + 0.5 * eta * mu) * lam],
                      [1.0 - 0.5 * eta * mu, -0.5 * eta * lam]])
        bbt = np.diag([eta * ns ** 2 * lam ** 2, 0.0])
        total += 0.5 * lam * solve_continuous_lyapunov(a, -bbt)[1, 1]
    return total


@pytest.mark.parametrize("variant", ["msgd2", "snag2"])
@pytest.mark.parametrize("mu", [1.85, 2.0, 2.5, 2.95, 3.0, 10.0, 30.0, 100.0])
def test_order2_stationary_value_is_finite_and_matches_lyapunov(variant, mu):
    # overdamped order-2 modes, where cosh(om t) of a finite-time exponential
    # overflows long before the stationary value is reached
    spec = _iso([1.0, 0.25]).spec
    system = langevin_system(spec, mu, 0.1, variant=variant)
    got = langevin_expected_f_exact(system, np.zeros(2), math.inf)
    assert math.isfinite(got)
    assert_allclose(got, _stationary_f_order2([1.0, 0.25], mu, 0.1, 1.0, variant),
                    rtol=1e-12)
    assert_allclose(got, langevin_expected_f_quadrature(system, np.zeros(2), math.inf),
                    rtol=1e-10)


def test_stationary_value_needs_routh_hurwitz():
    # msgd2 at lam = 8, mu = 0.5, eta = 1: det a = lam (1 + eta mu / 2 -
    # eta^2 lam / 4) = -6, so a real mode grows; a finite time still has E f
    system = langevin_system(SpectralDecomp(np.array([8.0]), np.eye(1)), mu=0.5, eta=1.0,
                             variant="msgd2")
    with pytest.raises(ValueError, match="not asymptotically stable"):
        langevin_expected_f_exact(system, np.array([1.0]), math.inf)
    assert math.isfinite(langevin_expected_f_exact(system, np.array([1.0]), 1.0))


@pytest.mark.parametrize("variant", ["order1", "msgd2", "snag2"])
@pytest.mark.parametrize("mu", [0.7, 1.0])
def test_langevin_small_t_noise_term_has_no_cancellation(variant, mu):
    # x0 = 0 leaves only the noise term, where a difference form
    # C_inf - E C_inf E^T would lose ~eps/t^3 relative accuracy as t -> 0
    spec = _iso([1.0, 0.25]).spec
    system = langevin_system(spec, mu, 0.1, noise_scale=0.9, variant=variant)
    for t in (1e-8, 1e-6, 1e-4, 1e-2, 1e-1):
        assert_allclose(langevin_expected_f_exact(system, np.zeros(2), t),
                        langevin_expected_f_quadrature(system, np.zeros(2), t),
                        rtol=1e-10)


# (lam, mu, eta): under- and overdamped modes, critical mu = 2 sqrt(lam) at
# both eigenvalues, and mu = 9.99 just under 1/eta
_NOISE_CASES = [(1.0, 0.5, 0.1), (0.25, 1.9, 0.1), (1.0, 2.0, 0.1), (0.25, 1.0, 0.1),
                (1.0, 9.99, 0.1), (0.25, 9.99, 0.1), (4.0, 1.9, 0.5)]


def _noise_f_worst(variant, switch_factors, tiny=()):
    """Worst relative error of E f at x0 = 0 (the noise term alone) over
    _NOISE_CASES against mpmath, at the times tiny and f t_s for f in
    switch_factors, t_s = 0.5/||a||_1, where langevin_expected_f_exact
    used to switch from its series to a difference form.

    One mode: E f = (lam/2) eta ns^2 lam^2 C_xx with, for tau = tr a/2 and
    om^2 = tau^2 - det a, (e^{-s a})_xv = -a_xv e^{-tau s} sinh(om s)/om, so
    C_xx = a_xv^2 int_0^t e^{-2 tau s} (sinh(om s)/om)^2 ds by quadrature,
    at 30 digits plus those of the largest exponent 2 t ||a||_1."""
    mp = pytest.importorskip("mpmath")
    worst = (0.0, None)
    for lam, mu, eta in _NOISE_CASES:
        system = langevin_system(_iso([lam]).spec, mu, eta, noise_scale=0.9,
                                 variant=variant)
        block = system.blocks.blocks[0]
        norm = float(np.abs(block).sum(axis=0).max())
        for t in list(tiny) + [f * 0.5 / norm for f in switch_factors]:
            got = langevin_expected_f_exact(system, np.zeros(1), t)
            with mp.workdps(30 + math.ceil(2.0 * t * norm / math.log(10.0))):
                a00, a01, a10, a11 = (mp.mpf(float(v)) for v in block.ravel())
                tau = (a00 + a11) / 2
                om = mp.sqrt(mp.mpc(tau ** 2 - (a00 * a11 - a01 * a10)))
                def s_om(s):
                    return s if om == 0 else (mp.sinh(om * s) / om).real
                cxx = a10 ** 2 * mp.quad(lambda s: mp.exp(-2 * tau * s) * s_om(s) ** 2,
                                         [0, mp.mpf(t)])
                ref = mp.mpf(lam) ** 3 / 2 * mp.mpf(eta) * mp.mpf(0.9) ** 2 * cxx
                err = float(abs((mp.mpf(got) - ref) / ref))
            if err > worst[0]:
                worst = (err, "lam=%g mu=%g eta=%g t=%.3g" % (lam, mu, eta, t))
    return worst


@pytest.mark.parametrize("variant", ["order1", "msgd2", "snag2"])
def test_langevin_small_t_series_against_mpmath(variant):
    # the series branch from t = 1e-8 up to just under its switch
    worst, where = _noise_f_worst(variant, [0.01, 0.3, 0.9, 1.0 - 1e-3],
                                  tiny=[1e-8, 1e-6, 1e-4])
    assert worst <= 1e-14, "worst relative error %.3g at %s" % (worst, where)


def test_langevin_one_route_just_past_the_old_switch_against_mpmath():
    # the difference form C_inf - E C_inf E^T that served t ||a||_1 >= 0.5
    # read 3.4e-12 here (lam = 0.25, mu = 9.99, eta = 0.1); series and
    # doubling read 4.4e-16
    worst = max(_noise_f_worst(v, [1.0 + 1e-3]) for v in ("order1", "msgd2", "snag2"))
    assert worst[0] <= 1e-14, "worst relative error %.3g at %s" % worst


def test_langevin_one_route_past_the_old_switch_against_mpmath():
    # Measured 1.46e-15 (lam = 0.25, mu = 9.99, eta = 0.1, t = 1.29 at f = 40);
    # the difference form read 1.91e-12 (snag2 at f = 1.5), 2.2 eps C_inf_xx /
    # C_xx(t) with C_inf_xx / C_xx = 3.9e3 there.
    worst = max(_noise_f_worst(v, [1.5, 3.0, 10.0, 40.0]) for v in ("order1", "msgd2", "snag2"))
    assert worst[0] <= 3e-15, "worst relative error %.3g at %s" % worst


def test_langevin_array_t_equals_scalar_calls():
    spec = _iso([1.0, 0.25]).spec
    x0 = np.array([2.0, -1.0])
    ts = np.array([0.0, 1e-6, 0.05, 0.3, 1.7, 40.0, math.inf])
    for variant in ("order1", "msgd2", "snag2"):
        system = langevin_system(spec, 1.0, 0.1, noise_scale=0.9, variant=variant)
        got = langevin_expected_f_exact(system, x0, ts)
        assert got.shape == ts.shape
        one = [langevin_expected_f_exact(system, x0, t) for t in ts]
        assert all(type(v) is float for v in one)
        np.testing.assert_array_equal(got, one)
        np.testing.assert_array_equal(
            langevin_expected_f_exact(system, x0, ts.reshape(7, 1)), got.reshape(7, 1))


def test_langevin_rejects_negative_and_nan_t():
    system = langevin_system(_iso([1.0, 0.25]).spec, 0.7, 0.1)
    for t in (-1.0, math.nan, np.array([0.5, -1.0])):
        with pytest.raises(ValueError):
            langevin_expected_f_exact(system, np.zeros(2), t)


# ---------------------------------------------------------------------------
# one-step moments: truncated vs exact-linear vs the discrete algorithms
# ---------------------------------------------------------------------------


def test_one_step_first_moments_match_discrete_exactly():
    # at order 2 the truncated first moment reproduces the discrete one-step
    # mean exactly for sgd and msgd (linear drifts); snag differs at eta^3
    model = _iso([1.3, 0.4], ns=0.6)
    h = model.spec.matrix()
    eta, mu = 0.25, 0.7
    x = np.array([0.8, -1.2])
    v = np.array([0.5, 0.3])
    y = np.concatenate([v, x])
    g = h @ x

    first, second, flag = one_step_moments(build_sme(model, SGD, 2, eta), x)
    assert flag
    assert_allclose(first, -eta * g, rtol=1e-12)
    assert_allclose(second, eta * eta * (np.outer(g, g) + 0.36 * h @ h), rtol=1e-12)

    first, second, _ = one_step_moments(build_sme(model, MSGD, 2, eta, mu=mu), y)
    dv = -mu * eta * v - eta * g
    dx = eta * (v + dv)
    assert_allclose(first, np.concatenate([dv, dx]), rtol=1e-12)
    det_v = mu * v + g
    assert_allclose(second[:2, :2],
                    eta * eta * (np.outer(det_v, det_v) + 0.36 * h @ h), rtol=1e-12)

    first, _, _ = one_step_moments(build_sme(model, SNAG, 2, eta, mu=mu), y)
    # discrete snag evaluates the gradient at the lookahead point
    dv_snag = -mu * eta * v - eta * h @ (x + eta * (1 - mu * eta) * v)
    dx_snag = eta * (v + dv_snag)
    resid = np.concatenate([dv_snag, dx_snag]) - first
    assert_allclose(resid[:2], mu * eta ** 3 * h @ v, rtol=1e-9)
    assert_allclose(resid[2:], -(1 - mu * eta) * eta ** 3 * h @ v, rtol=1e-9)


def test_linear_sme_moments_third_order_residual():
    # exact sgd order-2 increment mean differs from the discrete mean by
    # eta^3 H^3 x / 3 + O(eta^4)
    model = _iso([1.3, 0.4], ns=0.6)
    h = model.spec.matrix()
    x = np.array([0.8, -1.2])
    eta = 0.1
    mean, _ = linear_sme_moments(build_sme(model, SGD, 2, eta), x)
    resid = mean - (-eta * h @ x)
    lead = eta ** 3 * (h @ h @ h @ x) / 3.0
    assert np.linalg.norm(resid - lead) < 0.2 * np.linalg.norm(lead)


def test_linear_sme_covariance_against_lyapunov_ode():
    model = _iso([1.3, 0.4], ns=0.6)
    eta, mu = 0.25, 0.7
    system = build_sme(model, MSGD, 1, eta, mu=mu)
    a, s = system.linear_parts()
    ssT = s @ s.T
    y0 = np.array([0.5, 0.3, 0.8, -1.2])

    def rhs(_, cvec):
        c = cvec.reshape(4, 4)
        return (a @ c + c @ a.T + ssT).ravel()

    sol = solve_ivp(rhs, (0.0, eta), np.zeros(16), rtol=1e-11, atol=1e-13)
    cov = sol.y[:, -1].reshape(4, 4)
    mean, second = linear_sme_moments(system, y0)
    assert_allclose(second - np.outer(mean, mean), cov, rtol=1e-7, atol=1e-12)
    assert_allclose(mean, (mat_exp_dense(a, eta) - np.eye(4)) @ y0, rtol=1e-12)


def test_one_step_moments_varying_drift_at_t0():
    model = _iso([1.0, 0.25])
    system = build_sme(model, SNAG_VARYING, 1, 0.1, t0=3.0)
    y = np.array([0.1, 0.2, 1.0, -1.0])
    first, second, flag = one_step_moments(system, y)
    v, x = y[:2], y[2:]
    h = model.spec.matrix()
    g = h @ x
    b0 = np.concatenate([-v - g, v])       # 3/t0 = 1 at t0 = 3
    # truncation includes the (1/2) (Db0) b0 correction at fixed t = t0
    jb = np.concatenate([-b0[:2] - h @ b0[2:], b0[:2]])
    assert_allclose(first, 0.1 * b0 + 0.01 * 0.5 * jb, rtol=1e-6)
    assert flag


# ---------------------------------------------------------------------------
# Euler-Maruyama ensemble vs the closed forms
# ---------------------------------------------------------------------------


def test_em_matches_ou_closed_form():
    model = _iso([1.0, 0.25], ns=1.0)
    system = build_sme(model, SGD, 1, 0.1)
    stats = em_integrate_ensemble(system, [1.0, 1.0], 1.0, n_paths=4096,
                                  seed=101, substeps=20)
    exact = ou_expected_f(model.spec, np.array([1.0, 1.0]), 0.1, stats.times)
    delta = 0.1 / 20
    tol = 4.0 * stats.stderr + 2.0 * delta * np.abs(exact)
    assert np.all(np.abs(stats.mean - exact) <= tol + 1e-12)


def test_em_matches_langevin_closed_form():
    model = _iso([1.0, 0.25], ns=1.0)
    system = build_sme(model, MSGD, 1, 0.1, mu=0.7)
    stats = em_integrate_ensemble(system, [2.0, 1.0], 1.0, n_paths=4096,
                                  seed=102, substeps=20)
    lang = langevin_system(model.spec, 0.7, 0.1, noise_scale=1.0)
    exact = np.array([langevin_expected_f_exact(lang, np.array([2.0, 1.0]), t)
                      for t in stats.times])
    delta = 0.1 / 20
    tol = 4.0 * stats.stderr + 2.0 * delta * np.abs(exact)
    assert np.all(np.abs(stats.mean - exact) <= tol + 1e-12)


def test_em_matches_gbm_closed_form():
    model = from_spectrum(EIGENBASIS_SCALED, [1.0, 0.25], noise_scale=1.0)
    system = build_sme(model, SGD, 1, 0.1)
    stats = em_integrate_ensemble(system, [1.0, 1.0], 0.5, n_paths=4096,
                                  seed=103, substeps=40)
    exact = bs_expected_f(model.spec, np.array([1.0, 1.0]), 0.1, stats.times)
    delta = 0.1 / 40
    tol = 4.0 * stats.stderr + 5.0 * delta * np.abs(exact)
    assert np.all(np.abs(stats.mean - exact) <= tol + 1e-12)


def test_em_layout_thread_invariance_and_start_forms():
    model = _iso([1.0, 0.25], ns=1.0)
    system = build_sme(model, MSGD, 1, 0.1, mu=0.7)
    one = em_integrate_ensemble(system, [1.0, 1.0], 0.5, n_paths=600, seed=7,
                                substeps=4, threads=1)
    many = em_integrate_ensemble(system, [1.0, 1.0], 0.5, n_paths=600, seed=7,
                                 substeps=4, threads=3)
    assert np.array_equal(one.mean, many.mean)
    assert np.array_equal(one.stderr, many.stderr)
    # three uneven chunks, so the pool runs them at once and the sum order
    # of three partials is fixed (two partials would commute)
    wide = [em_integrate_ensemble(system, [1.0, 1.0], 0.2, n_paths=2 * 4096 + 8,
                                  seed=7, substeps=4, threads=t) for t in (1, 3)]
    assert np.array_equal(wide[0].mean, wide[1].mean)
    assert np.array_equal(wide[0].stderr, wide[1].stderr)
    assert_allclose(one.times, 0.1 * np.arange(6), rtol=1e-15)
    padded = em_integrate_ensemble(system, [0.0, 0.0, 1.0, 1.0], 0.5,
                                   n_paths=600, seed=7, substeps=4)
    assert np.array_equal(one.mean, padded.mean)
    with pytest.raises(ValueError):
        em_integrate_ensemble(system, [1.0, 1.0, 1.0], 0.5, n_paths=16, seed=0)
    with pytest.raises(ValueError):
        em_integrate_ensemble(system, [1.0, 1.0], 0.5, n_paths=1, seed=0)
    with pytest.raises(ValueError):
        em_integrate_ensemble(system, [1.0, 1.0], 0.05, n_paths=16, seed=0)


def test_em_varying_grid_starts_at_t0():
    model = _iso([1.0, 0.25], ns=0.5)
    system = build_sme(model, SNAG_VARYING, 1, 0.1, t0=2.0)
    stats = em_integrate_ensemble(system, [1.0, 1.0], 2.5, n_paths=64, seed=9,
                                  substeps=4)
    assert_allclose(stats.times, 2.0 + 0.1 * np.arange(6), rtol=1e-14)
    assert np.all(np.isfinite(stats.mean))
