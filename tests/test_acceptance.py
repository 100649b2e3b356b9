"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (also through the capture, so the
verdicts are visible in live output) and then asserts.  The criteria pin the
quantitative claims of the package: weak-approximation orders, condition
scaling, the divergence threshold, optimal momentum, the Langevin oracle
triangle, one-step moment matching, the SNAG-vs-MSGD gap, decay-bound
certificates, schedule sub-linearity, bytewise determinism, and the weak
orders of the momentum SMEs.
"""

import math
import sys
import time

import numpy as np
from numpy.testing import assert_allclose
from scipy.linalg import solve_continuous_lyapunov

import pytest

from smelab import cli, rng
from smelab.analysis import (decay_bound_check, descent_rate,
                             discrete_divergence_threshold, fit_loglog_slope,
                             momentum_eigs, optimal_mu, order2_eigs)
from smelab.models import (EIGENBASIS_SCALED, ISOTROPIC_SHIFT, from_spectrum,
                           objective)
from smelab.repro import (discrete_floor, exp_condition_sweep, exp_divergence,
                          exp_msgd_vs_snag, parse_csv)
from smelab.sga import (MSGD, SGD, SNAG, AlgoSpec, ConstantMomentum,
                        exact_moment_recursion)
from smelab.sme import (bs_expected_f, build_sme, em_integrate_ensemble,
                        langevin_expected_f_exact,
                        langevin_expected_f_quadrature, langevin_system,
                        linear_sme_moments, ou_expected_f,
                        asymptotic_noise_msgd)


_SNAG_REPORT = None


def _snag_report():
    # criteria 9 and 11 read different metrics of the same experiment
    global _SNAG_REPORT
    if _SNAG_REPORT is None:
        _SNAG_REPORT = exp_msgd_vs_snag()
    return _SNAG_REPORT


def _line(num, slug, ok, detail=""):
    msg = "%s criterion-%02d %s%s" % ("PASS" if ok else "FAIL", num, slug,
                                      " (%s)" % detail if detail else "")
    print(msg)
    print(msg, file=sys.__stdout__)
    sys.__stdout__.flush()


def _weak_slopes(variant, closed_form):
    model = from_spectrum(variant, [1.0, 0.1], noise_scale=1.0)
    x0 = np.array([1.0, 1.0])
    etas = (0.1, 0.05, 0.025, 0.0125)
    slopes = {}
    for order in (1, 2):
        errors = []
        for eta in etas:
            algo = AlgoSpec(SGD, eta, 2.0)
            discrete = exact_moment_recursion(algo, model, x0)
            t_grid = eta * np.arange(algo.n_steps + 1)
            continuous = closed_form(model.spec, x0, eta, t_grid, 1.0, order)
            errors.append(float(np.max(np.abs(discrete - continuous))))
        slopes[order] = fit_loglog_slope(etas, errors).slope
    return slopes


def test_criterion_01_weak_order_isotropic():
    t0 = time.monotonic()
    slopes = _weak_slopes(ISOTROPIC_SHIFT, ou_expected_f)
    elapsed = time.monotonic() - t0
    ok = 0.85 <= slopes[1] <= 1.15 and 1.8 <= slopes[2] <= 2.2 and elapsed < 10
    _line(1, "weak-order-isotropic", ok,
          "order1 slope %.4f in [0.85,1.15], order2 slope %.4f in [1.8,2.2], "
          "%.2fs" % (slopes[1], slopes[2], elapsed))
    assert 0.85 <= slopes[1] <= 1.15
    assert 1.8 <= slopes[2] <= 2.2
    assert elapsed < 10


def test_criterion_02_weak_order_scaled():
    t0 = time.monotonic()
    slopes = _weak_slopes(EIGENBASIS_SCALED, bs_expected_f)
    elapsed = time.monotonic() - t0
    ok = 0.85 <= slopes[1] <= 1.15 and elapsed < 10
    _line(2, "weak-order-scaled", ok,
          "order1 slope %.4f in [0.85,1.15], %.2fs" % (slopes[1], elapsed))
    assert 0.85 <= slopes[1] <= 1.15
    assert elapsed < 10


def test_criterion_03_condition_scaling():
    t0 = time.monotonic()
    report = exp_condition_sweep()      # kappa {10,30,100,300,1000}, eta 0.1
    elapsed = time.monotonic() - t0
    assert tuple(report.config.kappa) == (10.0, 30.0, 100.0, 300.0, 1000.0)
    assert report.config.eta_grid[0] == 0.1
    sgd_slope = report.metric("sgd_slope")
    msgd_slope = report.metric("msgd_slope")
    ok = (-1.15 <= sgd_slope <= -0.85 and -0.6 <= msgd_slope <= -0.4
          and elapsed < 30)
    _line(3, "condition-scaling", ok,
          "sgd slope %.4f in [-1.15,-0.85], msgd slope %.4f in [-0.6,-0.4], "
          "%.2fs" % (sgd_slope, msgd_slope, elapsed))
    assert -1.15 <= sgd_slope <= -0.85
    assert -0.6 <= msgd_slope <= -0.4
    assert elapsed < 30


def test_criterion_04_divergence_threshold():
    t0 = time.monotonic()
    report = exp_divergence()           # lam_d = 0.01, eta grid around 0.02
    elapsed = time.monotonic() - t0
    flip = next(c for c in report.checks if c.name == "single-flip")
    flipped_where = flip.passed and "0.015, 0.025" in flip.detail
    disc = discrete_divergence_threshold(0.01)
    rel = abs(disc - 0.02) / 0.02
    ok = flipped_where and rel <= 0.01 and elapsed < 5
    _line(4, "divergence-threshold", ok,
          "flip between 0.015 and 0.025: %s, discrete threshold %.6f vs 0.02 "
          "(rel %.2g <= 1%%), %.2fs" % (flipped_where, disc, rel, elapsed))
    assert flipped_where
    assert rel <= 0.01
    assert elapsed < 5


def test_criterion_05_optimal_momentum():
    t0 = time.monotonic()
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.225625], noise_scale=1.0)
    x0 = np.array([1.0e6, 1.0e6])
    grid = np.round(np.arange(0.30, 1.9001, 0.01), 10)
    rates = []
    for mu in grid:
        algo = AlgoSpec(MSGD, 0.1, 40.0, ConstantMomentum(float(mu)))
        series = exact_moment_recursion(algo, model, x0)
        floor = discrete_floor(algo, model)
        rates.append(descent_rate(series, 0.1, floor=floor).slope)
    best = float(grid[int(np.argmax(rates))])
    predicted = optimal_mu(model.spec)
    elapsed = time.monotonic() - t0
    ok = abs(best - predicted) <= 0.1 * predicted and elapsed < 60
    _line(5, "optimal-momentum", ok,
          "grid argmax mu %.3f vs 2 sqrt(lam_d) = %.3f (10%% band), %.2fs"
          % (best, predicted, elapsed))
    assert_allclose(predicted, 0.95, rtol=1e-12)
    assert abs(best - predicted) <= 0.1 * predicted
    assert elapsed < 60


def test_criterion_06_langevin_oracle_triangle():
    t0 = time.monotonic()
    draws = np.random.default_rng(617)
    worst_pair = 0.0
    worst_em = 0.0
    for i in range(10):
        d = int(draws.integers(1, 4))
        lams = np.sort(draws.uniform(0.15, 2.0, d))[::-1]
        mu = float(draws.uniform(0.3, 3.2))
        while min(abs(mu * mu - 4 * l) for l in lams) < 1e-3:
            mu += 0.037
        eta = float(draws.choice([0.1, 0.25]))
        n = int(draws.integers(3, 13))
        t = n * eta
        x0 = draws.uniform(-2.0, 2.0, d)
        model = from_spectrum(ISOTROPIC_SHIFT, lams, noise_scale=1.0)
        lang = langevin_system(model.spec, mu, eta, noise_scale=1.0)
        exact = langevin_expected_f_exact(lang, x0, t)
        quadr = langevin_expected_f_quadrature(lang, x0, t)
        worst_pair = max(worst_pair, abs(exact - quadr) / abs(exact))
        system = build_sme(model, MSGD, 1, eta, mu=mu)
        stats = em_integrate_ensemble(system, x0, t, n_paths=10000,
                                      seed=700 + i, substeps=20)
        closed = np.array([langevin_expected_f_exact(lang, x0, tk)
                           for tk in stats.times])
        delta = eta / 20.0
        tol = 4.0 * stats.stderr + 2.0 * delta * np.abs(closed)
        gap = np.abs(stats.mean - closed) - tol
        worst_em = max(worst_em, float(np.max(gap[1:])))
    elapsed = time.monotonic() - t0
    ok = worst_pair <= 1e-8 and worst_em <= 0.0 and elapsed < 120
    _line(6, "langevin-oracle-triangle", ok,
          "exact-vs-quadrature worst rel %.2e <= 1e-8, EM within "
          "4*stderr + 2*delta*|value| (worst margin %+.2e), %.1fs"
          % (worst_pair, worst_em, elapsed))
    assert worst_pair <= 1e-8
    assert worst_em <= 0.0
    assert elapsed < 120


def _stationary_f_lyapunov(lams, mu, eta, ns):
    # per mode, state (v, x): dv = -(mu v + lam x) dt + sqrt(eta) ns lam dW,
    # dx = v dt; the stationary covariance S solves a S + S a^T + b b^T = 0
    total = 0.0
    for lam in lams:
        a = np.array([[-mu, -lam], [1.0, 0.0]])
        bbt = np.diag([eta * ns ** 2 * lam ** 2, 0.0])
        cov = solve_continuous_lyapunov(a, -bbt)
        total += 0.5 * lam * cov[1, 1]
    return total


def test_criterion_07_asymptotic_noise_consistency():
    spec = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=1.0).spec
    grid = np.geomspace(0.01, 100.0, 50)
    printed = np.array([asymptotic_noise_msgd(spec, mu, 0.1) for mu in grid])
    exact = np.array([
        langevin_expected_f_exact(langevin_system(spec, mu, 0.1),
                                  np.zeros(2), math.inf) for mu in grid])
    agree = float(np.max(np.abs(printed - exact) / exact))
    monotone = bool(np.all(np.diff(printed) < 0))
    slope_small = ((math.log(printed[1]) - math.log(printed[0]))
                   / (math.log(grid[1]) - math.log(grid[0])))
    slope_large = ((math.log(printed[-1]) - math.log(printed[-2]))
                   / (math.log(grid[-1]) - math.log(grid[-2])))
    # the Gibbs density of the order-1 momentum SME gives
    # E f(X_inf) = eta ns^2 sum lam^2 / (4 mu) for every mu > 0, so the
    # large-mu tail is 1/mu; the ends of the grid are tied to that value and
    # to an independent per-mode Lyapunov solve
    lams, ends = [1.0, 0.25], [0, 1, -2, -1]
    gibbs = 0.1 * 1.0 ** 2 * sum(lam ** 2 for lam in lams) / (4.0 * grid[ends])
    lyap = np.array([_stationary_f_lyapunov(lams, grid[k], 0.1, 1.0)
                     for k in ends])
    oracle_gap = float(np.max(np.abs(lyap - gibbs) / gibbs))
    ends_gap = float(np.max(np.abs(printed[ends] - gibbs) / gibbs))
    tail_ok = abs(slope_large + 1.0) <= 0.2 and ends_gap <= 1e-10
    ok = (agree <= 1e-10 and monotone and abs(slope_small + 1.0) <= 0.2
          and oracle_gap <= 1e-10 and tail_ok)
    _line(7, "asymptotic-noise-consistency", ok,
          "exact=printed rel %.1e <= 1e-10: %s; monotone in mu: %s; "
          "small-mu slope %.3f in -1+-0.2: %s; large-mu slope %.3f in "
          "-1+-0.2 and grid ends vs Gibbs eta ns^2 sum lam^2/(4mu) rel "
          "%.1e <= 1e-10 (Lyapunov check rel %.1e): %s"
          % (agree, agree <= 1e-10, monotone, slope_small,
             abs(slope_small + 1.0) <= 0.2, slope_large, ends_gap,
             oracle_gap, tail_ok))
    assert agree <= 1e-10
    assert monotone
    assert abs(slope_small + 1.0) <= 0.2
    assert oracle_gap <= 1e-10, \
        "Lyapunov stationary value differs from the Gibbs value by rel %.2e" \
        % oracle_gap
    assert abs(slope_large + 1.0) <= 0.2, \
        "large-mu endpoint slope %.4f is not within 0.2 of -1 (the Gibbs " \
        "value eta ns^2 sum lam^2/(4mu) decays like 1/mu)" % slope_large
    assert ends_gap <= 1e-10, \
        "printed values at the grid ends differ from the Gibbs/Lyapunov " \
        "oracle eta ns^2 sum lam^2/(4mu) by rel %.2e > 1e-10" % ends_gap


def test_criterion_08_one_step_moment_matching():
    # eta*lam must stay well below 1 so the eta^3 truncation term dominates
    # the eta^4 tail; at eta*lam ~ 0.5 the halving ratio drifts above 10.
    model = from_spectrum(ISOTROPIC_SHIFT, [1.3, 0.4], noise_scale=1.0)
    h = model.spec.matrix()
    x = np.array([0.56, -0.84])
    v = np.array([0.35, 0.21])
    mu = 0.8
    paths = np.arange(1_000_000, dtype=np.uint64)
    gam = rng.normals(915, rng.STREAM_GAMMA, paths, 0, 0, 2)
    residuals = {}
    for eta in (0.2, 0.1):
        for family in (SGD, MSGD, SNAG):
            if family == SGD:
                incr = -eta * (x - gam) @ h
                system = build_sme(model, SGD, 2, eta)
                y0 = x
            else:
                point = x if family == MSGD else x + eta * (1 - mu * eta) * v
                dv = -mu * eta * v - eta * (point - gam) @ h
                incr = np.hstack([dv, eta * (v + dv)])
                system = build_sme(model, family, 2, eta, mu=mu)
                y0 = np.concatenate([v, x])
            mc_first = incr.mean(axis=0)
            mc_second = incr.T @ incr / len(incr)
            sme_first, sme_second = linear_sme_moments(system, y0)
            residuals[(family, eta, 1)] = float(
                np.max(np.abs(mc_first - sme_first)))
            residuals[(family, eta, 2)] = float(
                np.max(np.abs(mc_second - sme_second)))
    ratios = {}
    for family in (SGD, MSGD, SNAG):
        for order in (1, 2):
            ratios[(family, order)] = (residuals[(family, 0.2, order)]
                                       / residuals[(family, 0.1, order)])
    ok = all(6.0 <= r <= 10.0 for r in ratios.values())
    detail = ", ".join("%s m%d ratio %.2f" % (fam, order, ratios[(fam, order)])
                       for fam in (SGD, MSGD, SNAG) for order in (1, 2))
    _line(8, "one-step-moment-matching", ok, detail + " (band [6,10])")
    for key, r in ratios.items():
        assert 6.0 <= r <= 10.0, "eta^3 residual ratio %s = %.3f" % (key, r)


def test_criterion_09_snag_msgd_gap():
    eta, mu = 0.1, 0.2
    report = _snag_report()
    assert report.config.mu_values[0] == mu and report.config.eta_grid[0] == eta
    closed_ok, measured_ok, details = True, True, []
    for lam_d in (0.25, 1.0):
        spec = from_spectrum(ISOTROPIC_SHIFT, [1.0, lam_d]).spec
        gap = (order2_eigs(SNAG, mu, eta, spec).min_real_part
               - order2_eigs(MSGD, mu, eta, spec).min_real_part)
        closed_ok &= abs(gap - 0.5 * eta * lam_d) <= 1e-10
        meas = report.metric("measured_rate_gap[lam_d=%g]" % lam_d)
        pred = 2.0 * gap * eta
        measured_ok &= abs(meas - pred) <= 0.15 * pred
        details.append("lam_d=%g: gap %.6f = eta*lam_d/2, rate gap %.5f vs "
                       "%.5f" % (lam_d, gap, meas, pred))
    ok = closed_ok and measured_ok
    _line(9, "snag-msgd-gap", ok, "; ".join(details))
    assert closed_ok
    assert measured_ok


def test_criterion_10_decay_bound():
    draws = np.random.default_rng(1029)
    t_grid = np.linspace(0.0, 50.0, 500)
    violations = 0
    for _ in range(20):
        d = int(draws.integers(1, 7))
        lams = np.sort(draws.uniform(0.05, 3.0, d))[::-1]
        mu = float(draws.uniform(0.1, 4.0))
        spec = from_spectrum(ISOTROPIC_SHIFT, lams).spec
        rep = decay_bound_check(langevin_system(spec, mu, 0.1).blocks, t_grid)
        if not rep.holds:
            violations += 1
    ok = violations == 0
    _line(10, "decay-bound", ok,
          "%d violations over 20 random (mu, spectrum) pairs on 500 times "
          "in [0, 50]" % violations)
    assert violations == 0


def test_criterion_11_schedule_sublinear():
    report = _snag_report()
    early = report.metric("schedule_early_rate")
    late = report.metric("schedule_late_rate")
    floor_sched = report.metric("schedule_floor")
    floor_msgd = report.metric("msgd_tuned_floor")
    sub = late < 0.5 * early
    above = floor_sched > floor_msgd
    ok = sub and above
    _line(11, "schedule-sublinear", ok,
          "late rate %.3g < half early rate %.3g: %s; schedule floor %.4g > "
          "tuned msgd floor %.4g: %s" % (late, early, sub, floor_sched,
                                         floor_msgd, above))
    assert sub
    assert above


def test_criterion_12_determinism(tmp_path):
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    assert cli.main(["figures", "--out", str(out1), "--seed", "7"]) == 0
    assert cli.main(["figures", "--out", str(out2), "--seed", "7"]) == 0
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    assert csvs and csvs == sorted(p.name for p in out2.glob("*.csv"))
    identical = all((out1 / n).read_bytes() == (out2 / n).read_bytes()
                    for n in csvs)
    assert cli.main(["figures", "--out", str(out3), "--seed", "7",
                     "--threads", "3"]) == 0
    same_numbers = True
    for name in csvs:
        rows1 = parse_csv(str(out1 / name)).rows
        rows3 = parse_csv(str(out3 / name)).rows
        same_numbers &= rows1 == rows3
    ok = identical and same_numbers
    _line(12, "determinism", ok,
          "%d CSVs byte-identical across reruns: %s; 1-thread vs 3-thread "
          "numerically identical: %s" % (len(csvs), identical, same_numbers))
    assert identical
    assert same_numbers


def test_criterion_13_weak_order_momentum():
    # every momentum SME against the exact recursion it approximates: the
    # order-1 Langevin system for msgd and snag, msgd2 and snag2 at order 2
    t0 = time.monotonic()
    model = from_spectrum(ISOTROPIC_SHIFT, [1.0, 0.25], noise_scale=1.0)
    x0 = np.array([1.0, 1.0])
    etas = (0.1, 0.05, 0.025, 0.0125)
    slopes = {}
    for family, variant2 in ((MSGD, "msgd2"), (SNAG, "snag2")):
        for mu in (0.5, 1.0, 3.0):
            errors = {1: [], 2: []}
            for eta in etas:
                algo = AlgoSpec(family, eta, 4.0, ConstantMomentum(mu))
                discrete = exact_moment_recursion(algo, model, x0)
                t_grid = eta * np.arange(algo.n_steps + 1)
                for order, variant in ((1, "order1"), (2, variant2)):
                    continuous = langevin_expected_f_exact(
                        langevin_system(model.spec, mu, eta, 1.0, variant), x0, t_grid)
                    errors[order].append(float(np.max(np.abs(discrete - continuous))))
            for order, errs in errors.items():
                slopes[family, mu, order] = fit_loglog_slope(etas, errs).slope
    elapsed = time.monotonic() - t0
    bands = {1: (0.85, 1.15), 2: (1.8, 2.2)}
    outside = ["%s mu=%g order%d %.4f" % (*key, slope) for key, slope in slopes.items()
               if not bands[key[2]][0] <= slope <= bands[key[2]][1]]
    by_order = {order: [v for k, v in slopes.items() if k[2] == order] for order in bands}
    _line(13, "weak-order-momentum", not outside,
          "order1 slopes %.4f..%.4f in [0.85,1.15], order2 slopes %.4f..%.4f in "
          "[1.8,2.2], %.2fs" % (min(by_order[1]), max(by_order[1]),
                                min(by_order[2]), max(by_order[2]), elapsed))
    assert not outside, "slopes outside their bands: %s" % ", ".join(outside)
