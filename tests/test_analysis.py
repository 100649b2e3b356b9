import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from smelab.analysis import (CRITICAL, OVERDAMPED, UNDERDAMPED, _drift_blocks,
                             classify_damping, decay_bound_check,
                             descent_rate, discrete_divergence_threshold,
                             discrete_growth_factors, divergence_threshold,
                             fit_loglog_slope, momentum_eigs, optimal_mu,
                             order2_eigs, varying_momentum_eigs)
from smelab.matkit import _least_real_2x2, block_reduce, mat_exp_2x2
from smelab.models import ISOTROPIC_SHIFT, EIGENBASIS_SCALED, from_spectrum
from smelab.sga import SGD, AlgoSpec, exact_moment_recursion
from smelab.sme import langevin_system


def _spec(lams):
    return from_spectrum(ISOTROPIC_SHIFT, lams).spec


# ---------------------------------------------------------------------------
# eigenvalue reports
# ---------------------------------------------------------------------------


def test_classify_damping_regimes_and_tolerance():
    assert classify_damping(1.0, 1.0) == UNDERDAMPED
    assert classify_damping(2.1, 1.0) == OVERDAMPED
    assert classify_damping(2.0, 1.0) == CRITICAL
    # relative tolerance window around mu^2 = 4 lam
    assert classify_damping(2.0 + 1e-10, 1.0) == CRITICAL
    assert classify_damping(2.0 + 1e-4, 1.0) == OVERDAMPED


@pytest.mark.parametrize("lam", [1.0, 0.25])
def test_one_classification_rule_near_critical(lam):
    # momentum_eigs, order2_eigs at a vanishing eta and decay_bound_check's
    # defective mask read one discriminant test, so they agree on both sides
    # of mu = 2 sqrt(lam); |mu^2 - 4 lam| ~ 8 lam 10^-k is inside the
    # 1e-9 max(1, 4 lam) band from k = 10 on
    spec = _spec([lam])
    grid = np.linspace(0.0, 50.0, 51)
    for k in range(4, 16):
        for sign in (1.0, -1.0):
            mu = 2.0 * math.sqrt(lam) * (1.0 + sign * 10.0 ** -k)
            [regime] = momentum_eigs(mu, spec).classification
            assert regime == (CRITICAL if k >= 10 else
                              OVERDAMPED if sign > 0 else UNDERDAMPED), (k, sign)
            assert order2_eigs("msgd", mu, 1e-12, spec).classification == (regime,), (k, sign)
            defective = decay_bound_check(langevin_system(spec, mu, 0.1).blocks,
                                          grid).any_defective
            assert defective == (regime == CRITICAL), (k, sign)


def test_momentum_eigs_root_identities():
    rep = momentum_eigs(0.9, _spec([1.0, 0.25]))
    assert rep.eigenvalues.shape == (2, 2)
    for i, lam in enumerate([1.0, 0.25]):
        pair = rep.eigenvalues[i]
        assert_allclose(pair.sum(), 0.9, rtol=1e-14)      # trace
        assert_allclose(pair.prod(), lam, rtol=1e-13)     # determinant
    # mu = 0.9 < 2 sqrt(0.25): both modes underdamped, conjugate pairs
    assert rep.classification == (UNDERDAMPED, UNDERDAMPED)
    assert rep.diagonalizable
    assert_allclose(rep.eigenvalues[:, 0], np.conj(rep.eigenvalues[:, 1]))
    assert_allclose(rep.min_real_part, 0.45, rtol=1e-14)


def test_momentum_eigs_overdamped_min_real():
    rep = momentum_eigs(3.0, _spec([1.0, 0.25]))
    assert rep.classification == (OVERDAMPED, OVERDAMPED)
    assert_allclose(rep.min_real_part, 0.5 * (3.0 - math.sqrt(8.0)), rtol=1e-13)
    with pytest.raises(ValueError):
        momentum_eigs(0.0, _spec([1.0]))
    with pytest.raises(ValueError):
        momentum_eigs(1.0, [1.0, -0.5])


def test_optimal_mu_matches_grid_argmax():
    for lam_min in (0.25, 0.04):
        spec = _spec([1.0, lam_min])
        pred = optimal_mu(spec)
        assert_allclose(pred, 2.0 * math.sqrt(lam_min), rtol=1e-14)
        grid = np.linspace(0.05, 2.5, 1200)
        rates = [momentum_eigs(m, spec).min_real_part for m in grid]
        best = grid[int(np.argmax(rates))]
        assert abs(best - pred) <= (grid[1] - grid[0]) + 1e-12


def _order2_closed_form(family, mu, eta, lam):
    """Closed-form order-2 eigenvalue pairs, s = eta mu + 2:
    msgd: (1/4) [mu s +- sqrt(mu^2 s^2 + 4 eta^2 lam^2 - 8 lam s)]
    snag: (1/4) [mu s + 2 eta lam +- sqrt(s) sqrt(mu^2 s + 4 lam (eta mu - 2))]
    """
    s = eta * mu + 2.0
    if family == "msgd":
        root = np.sqrt(complex(mu * mu * s * s + 4.0 * eta * eta * lam * lam
                               - 8.0 * lam * s))
        return 0.25 * (mu * s + root), 0.25 * (mu * s - root)
    root = math.sqrt(s) * np.sqrt(complex(mu * mu * s + 4.0 * lam * (eta * mu - 2.0)))
    return (0.25 * (mu * s + 2.0 * eta * lam + root),
            0.25 * (mu * s + 2.0 * eta * lam - root))


def test_order2_eigs_match_block_numerics():
    spec = _spec([1.0, 0.25])
    for family, variant in (("msgd", "msgd2"), ("snag", "snag2")):
        for mu, eta in ((0.7, 0.25), (2.5, 0.1), (0.2, 0.1)):
            rep = order2_eigs(family, mu, eta, spec)
            num = langevin_system(spec, mu, eta, variant=variant).blocks \
                .block_eigenvalues()
            for i, lam in enumerate([1.0, 0.25]):
                got = sorted(rep.eigenvalues[i], key=lambda z: (z.real, z.imag))
                for want in (num[i], _order2_closed_form(family, mu, eta, lam)):
                    want = sorted(want, key=lambda z: (z.real, z.imag))
                    assert_allclose(got, want, atol=1e-10)


@pytest.mark.parametrize("family", ["msgd", "snag"])
def test_order2_least_real_parts_over_a_grid_equal_scalar_calls(family):
    # the coarse momentum grid of the order-2 argmax, in one array call with
    # no complex root, is order2_eigs' least real part to the bit at each mu
    spec = _spec([1.0, 0.25])
    grid = np.arange(0.002, 6.0, 0.002)
    b0, b1 = _drift_blocks(family, 2, spec.eigenvalues, 0.1, grid)
    least = _least_real_2x2(-(b0 + 0.1 * b1))
    assert least.shape == (grid.size, 2)
    for mu, value in zip(grid, least.min(axis=1)):
        assert value.tobytes() == np.float64(order2_eigs(family, mu, 0.1, spec)
                                             .min_real_part).tobytes()


def test_order2_eigs_limits_and_gap():
    spec = _spec([1.0, 0.25])
    mu, eta = 0.2, 0.1
    base = momentum_eigs(mu, spec)
    tiny = order2_eigs("msgd", mu, 1e-9, spec)
    assert_allclose(tiny.eigenvalues, base.eigenvalues, atol=1e-8)
    # underdamped real-part shift between the families is eta lam / 2, so the
    # min-real gap is governed by the smallest eigenvalue
    m = order2_eigs("msgd", mu, eta, spec)
    s = order2_eigs("snag", mu, eta, spec)
    assert_allclose(s.min_real_part - m.min_real_part, 0.5 * eta * 0.25,
                    rtol=1e-10)
    for i, lam in enumerate([1.0, 0.25]):
        gap = s.eigenvalues[i].real - m.eigenvalues[i].real
        assert_allclose(gap, [0.5 * eta * lam] * 2, rtol=1e-9)
    with pytest.raises(ValueError):
        order2_eigs("sgd", mu, eta, spec)
    with pytest.raises(ValueError):
        order2_eigs("msgd", -1.0, eta, spec)


@pytest.mark.parametrize("lams", [[1.0, 0.0], [1.0, -0.5]])
@pytest.mark.parametrize("spectral", [
    lambda lams: momentum_eigs(0.5, lams),
    optimal_mu,
    divergence_threshold,
    lambda lams: order2_eigs("snag", 0.5, 0.1, lams),
], ids=["momentum_eigs", "optimal_mu", "divergence_threshold", "order2_eigs"])
def test_spectral_functions_reject_nonpositive_eigenvalues(spectral, lams):
    with pytest.raises(ValueError, match="eigenvalues must be positive"):
        spectral(lams)


def test_varying_momentum_eigs_limits():
    spec = _spec([1.0, 0.25])
    t0 = 2.0
    near = varying_momentum_eigs(t0 * (1 + 1e-8), t0, spec)
    frozen = momentum_eigs(3.0 / t0, spec)
    assert_allclose(near.eigenvalues, frozen.eigenvalues, rtol=1e-6)
    late = varying_momentum_eigs(1e5, t0, spec)
    assert 0 < late.min_real_part < 1e-3      # drag decays like 3 log t / t
    with pytest.raises(ValueError):
        varying_momentum_eigs(1.0, 2.0, spec)
    with pytest.raises(ValueError):
        varying_momentum_eigs(1.0, 0.0, spec)


# ---------------------------------------------------------------------------
# decay bound certificates
# ---------------------------------------------------------------------------


def test_decay_bound_overdamped_and_underdamped():
    grid = np.linspace(0.0, 50.0, 500)
    spec = _spec([1.0, 0.25])
    over = decay_bound_check(langevin_system(spec, 3.0, 0.1).blocks, grid)
    assert over.holds and not over.any_defective and over.eps == 0.0
    assert_allclose(over.rate, 0.5 * (3.0 - math.sqrt(8.0)), rtol=1e-12)
    assert over.constant >= 2.0               # sqrt(2 d) floor
    under = decay_bound_check(langevin_system(spec, 0.5, 0.1).blocks, grid)
    assert under.holds
    assert_allclose(under.rate, 0.25, rtol=1e-12)


@pytest.mark.parametrize("variant", ["order1", "msgd2", "snag2"])
def test_decay_rate_is_the_least_real_eigenvalue_part_near_critical(variant):
    # the rate reads the invariants with no complex root: min(Re eig) of the
    # blocks to the bit, on both sides of the critical mu = 1 of lam = 0.25
    spec = _spec([1.0, 0.25])
    grid = np.linspace(0.0, 50.0, 51)
    for k in range(4, 17):
        for sign in (1.0, -1.0):
            fam = langevin_system(spec, 1.0 + sign * 10.0 ** -k, 1e-3, variant=variant).blocks
            rate = decay_bound_check(fam, grid).rate
            assert np.float64(rate).tobytes() == np.min(fam.block_eigenvalues().real).tobytes()


def test_decay_bound_defective_eps_branch():
    # mu = 2, lam = 1 is exactly critical: the block is defective and the
    # certificate must fall back to the eps-discounted rate
    grid = np.linspace(0.0, 50.0, 500)
    spec = _spec([1.0])
    rep = decay_bound_check(langevin_system(spec, 2.0, 0.1).blocks, grid)
    assert rep.any_defective and rep.holds
    assert_allclose(rep.rate, 1.0, rtol=1e-12)
    assert_allclose(rep.eps, 0.1, rtol=1e-12)
    # the certified curve really does dominate ||e^{-tA}||_F = sqrt of
    # sum((1 + t N) e^{-t})^2 entries, which has a (1 + t) polynomial factor
    block = langevin_system(spec, 2.0, 0.1).blocks.blocks[0]
    worst = max(np.linalg.norm(mat_exp_2x2(block, -t)) /
                (rep.constant * math.exp(-(rep.rate - rep.eps) * t))
                for t in grid)
    assert worst <= 1.0 + 1e-9


def test_decay_bound_nilpotent_rate_zero_raises():
    spec = _spec([2.0, 1.0])
    fam = block_reduce((0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, 0.0), spec)
    with pytest.raises(ValueError):
        decay_bound_check(fam, np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError):
        decay_bound_check(langevin_system(spec, 1.0, 0.1).blocks,
                          np.array([-1.0, 0.0]))


def test_decay_bound_random_systems_hold():
    grid = np.linspace(0.0, 50.0, 500)
    rng = np.random.default_rng(7)
    for _ in range(5):
        d = int(rng.integers(1, 5))
        lams = np.sort(rng.uniform(0.05, 3.0, d))[::-1]
        mu = float(rng.uniform(0.1, 4.0))
        rep = decay_bound_check(langevin_system(_spec(lams), mu, 0.1).blocks,
                                grid)
        assert rep.holds
        assert math.isfinite(rep.constant)


def test_decay_bound_scalar_block_is_perfectly_conditioned():
    # every direction is an eigenvector of c I, so the basis is orthonormal
    # and only the sqrt(2 d) factor remains
    spec = _spec([2.0, 1.0])
    fam = block_reduce((0.5, 0.0), (0.0, 0.0), (0.0, 0.0), (0.5, 0.0), spec)
    rep = decay_bound_check(fam, np.linspace(0.0, 50.0, 500))
    assert rep.holds and not rep.any_defective and rep.eps == 0.0
    assert rep.rate == 0.5
    assert rep.constant == math.sqrt(2.0 * spec.dim)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def test_fit_loglog_slope_examples():
    xs = np.array([0.1, 0.05, 0.025, 0.0125])
    fit = fit_loglog_slope(xs, 3.0 * xs ** 2)
    assert_allclose(fit.slope, 2.0, rtol=1e-12)
    assert_allclose(fit.intercept, math.log(3.0), rtol=1e-10)
    assert fit.residual < 1e-12
    fit = fit_loglog_slope(xs, 0.7 / xs)
    assert_allclose(fit.slope, -1.0, rtol=1e-12)
    noisy = 2.0 * xs ** 1.5 * np.exp([0.01, -0.02, 0.015, -0.005])
    assert abs(fit_loglog_slope(xs, noisy).slope - 1.5) < 0.05
    with pytest.raises(ValueError):
        fit_loglog_slope([0.1], [1.0])
    with pytest.raises(ValueError):
        fit_loglog_slope(xs, np.array([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        fit_loglog_slope(np.full(4, 0.1), np.ones(4))


def test_descent_rate_pure_exponential():
    series = 5.0 * np.exp(-0.1 * np.arange(60))
    fit = descent_rate(series, 0.05, floor=0.0)
    assert_allclose(fit.slope, 0.1, rtol=1e-12)
    assert fit.window == (2, 59)
    assert fit.residual < 1e-12


def test_descent_rate_on_exact_sgd_trajectory():
    # E f decays like (1 - eta lam)^{2k} toward the noise floor; the fit
    # window must stop before the floor contaminates the slope
    lam, eta, ns = 1.0, 0.05, 0.1
    model = from_spectrum(ISOTROPIC_SHIFT, [lam], noise_scale=ns)
    series = exact_moment_recursion(AlgoSpec(SGD, eta, 40.0), model,
                                    np.array([100.0]))
    fit = descent_rate(series, eta)
    want = -2.0 * math.log(1.0 - eta * lam)
    assert abs(fit.slope - want) < 0.05 * want
    assert abs(fit.slope - 2 * eta * lam) < 0.08 * fit.slope


def test_descent_rate_errors():
    with pytest.raises(ValueError):
        descent_rate(np.ones(60), 0.0)
    with pytest.raises(ValueError):
        descent_rate(np.ones(5), 0.1)
    with pytest.raises(ValueError):
        descent_rate(np.ones(60), 0.1)        # flat: window empty
    s = 5.0 * np.exp(-0.1 * np.arange(60))
    s[10] = -0.5                              # sign flip inside the window
    with pytest.raises(ValueError):
        descent_rate(s, 0.1, floor=0.0)


# ---------------------------------------------------------------------------
# divergence thresholds
# ---------------------------------------------------------------------------


def test_divergence_thresholds_and_gap():
    assert_allclose(divergence_threshold(_spec([1.0, 0.01])), 0.02, rtol=1e-14)
    disc = discrete_divergence_threshold(0.01)
    assert_allclose(disc, 0.02 / (1.0 + 1e-4), rtol=1e-14)
    rel = abs(disc - 0.02) / 0.02
    assert rel <= 1e-4                       # the two flip points agree to 1e-4
    assert_allclose(rel, 1e-4 / (1 + 1e-4), rtol=1e-10)
    with pytest.raises(ValueError):
        divergence_threshold([0.0, 1.0])
    with pytest.raises(ValueError):
        discrete_divergence_threshold(-1.0)


def test_discrete_growth_factors():
    model = from_spectrum(EIGENBASIS_SCALED, [1.0, 0.01], noise_scale=1.0)
    g = discrete_growth_factors(model, 0.04)
    assert_allclose(g, [(1 - 0.04) ** 2 + 0.04 ** 2,
                        (1 - 0.0004) ** 2 + 0.04 ** 2], rtol=1e-14)
    assert g[1] > 1.0 > g[0]                 # slow mode diverges first
    below = discrete_growth_factors(model, 0.015)
    assert np.all(below < 1.0)
