"""Precision ledger: exact routes against 80-digit mpmath oracles at the
numerical edges (critical damping, t -> 0, long horizons).

Each test sweeps one route over its edge grid, compares every point with an
oracle evaluated in mpmath on the same float inputs, and asserts a documented
bound on the worst relative error; the assertion message names the worst
error and its case.  A route over its bound is a finding, not a bound to
widen.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from smelab import sga
from smelab.analysis import CRITICAL, classify_damping
from smelab.matkit import SpectralDecomp, _exp_2x2
from smelab.models import ISOTROPIC_SHIFT, from_spectrum
from smelab.sga import MSGD, SGD, SNAG, AlgoSpec, ConstantMomentum, discrete_floor
from smelab.sme import (R_function, _decay_entry, asymptotic_noise_msgd, bs_expected_f,
                        langevin_expected_f_exact, langevin_system, ou_expected_f)
from test_sga import _worst_against_mpmath

DPS = 80

# Momentum blocks [[mu, lam], [-1, 0]] around critical damping: mu^2 - 4 lam
# is about 4 lam f 1e-12, so f in (0, 1) lies inside the tolerance band that
# used to select the defective branch, f > 1 just outside it, f = -0.5 on the
# underdamped side and f = 0 at the float nearest to critical.
BLOCK_LAMS = (1.0, 0.25, 4.0, 0.01)
BLOCK_FS = (0.0, 1e-4, 0.3, 0.999, 1.001, 3.0, 100.0, -0.5)
BLOCK_TIMES = (0.1, 10.0, 100.0, 300.0, 1000.0, 3000.0)

# Measured 5.32e-14 for both (lam = 4, f = -0.5, t = 300).  That is the
# rounding of the exponent (tr/2) t = 600 - 1.5e-10, off by -5.33e-14 in
# absolute terms, which exp turns into the same relative error: a floor of
# any float evaluation at the grid's cap mu t / 2 <= 600.  The old floor,
# 1.26e-12 (lam = 0.01, f = 0, t = 3000), was the rounding of a float
# Delta = tr^2 - 4 det, about eps tr^2 in absolute terms; it went when
# matkit._invariants began to form Delta in np.longdouble.
EXP_2X2_BOUND = 1e-13
DECAY_ENTRY_BOUND = 1e-13

R_CASES = ((0.7, 2.0), (0.5, 1.0), (3.0, 1.0), (2.0 * (1 - 1e-7), 1.0),
           (2.0 * (1 - 1e-12), 1.0), (2.0, 1.0), (0.1, 0.25), (1.9, 1.0))
R_TIMES = (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e4)
R_BOUND = 2e-15          # measured 1.02e-15 (mu = 0.1, lam = 0.25, t = 10)

OU_LAMS = (1.0, 0.25, 1e-3, 10.0)
OU_ETAS = (0.1, 0.0125)
OU_TIMES = np.concatenate([10.0 ** np.arange(-10, 3), [0.0125]])
OU_BOUND = 1e-15         # measured 4.6e-16 (lam = 1e-3, eta = 0.1, order 2, t = 1e-4)

# mu = 2 sqrt(lam) (1 + f) around critical damping.  The route divides by
# |mu^2 - 4 lam|, about 8 lam |f|, so its error grows like eps / |f|:
# measured 4.5e-9 at |f| = 1e-8, 4.4e-13 at 1e-4, 5.8e-14 at 1e-3, 2.6e-15 at
# 1e-2 and at most 1.1e-15 from 0.5 on.  Points inside classify_damping's
# band raise, as documented, and are checked to raise.
NOISE_LAMS = (1.0, 0.25, 4.0, 0.01)
NOISE_FS = (1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.5, 3.0)
NOISE_ETA = 0.1


# discrete_floor per mode: sgd's b / (1 - a) and the momentum families'
# closed form P_yy = ns^2 h (1 + c) / ((1 - c) q), with c and h in
# np.longdouble, as the spectral radius rho of the mode's update nears 1,
# from the damping (mu eta -> 0; sgd's eta lam -> 0 and -> 2) or from the top
# of the stable lam range (eta^2 lam -> its limit h_max at fixed mu eta).  The
# floor grows like 1 / (1 - rho), so the bound is 2 eps / (1 - rho) + 2e-15.
# Measured as a share of it: sgd 0.35 (eta lam = 2 - 1e-6); the damping rows
# at most 0.0046 (snag, lam = 4, mu eta = 1e-6; msgd 0.0024); snag's lam edge
# 0.0044 (mu eta = 0.5, gap 1e-2); msgd's lam edge 0.033 (mu eta = 0.01, gap
# 1e-8, where 1 - rho = 4.0e-6).
FLOOR_ETA = 0.1
FLOOR_LAMS = (1.0, 0.25, 4.0, 0.01)
FLOOR_MU_ETAS = (1e-8, 1e-6, 1e-4, 1e-2, 0.5, 1.0)
FLOOR_SGD_ETA_LAMS = (1e-8, 1e-6, 1e-4, 1e-2, 0.5, 1.0, 1.5, 2 - 1e-2, 2 - 1e-4, 2 - 1e-6,
                      2 - 1e-8)
FLOOR_EDGE_GAPS = (1e-8, 1e-6, 1e-4, 1e-2)      # h = h_max (1 - gap)
FLOOR_EDGE_MU_ETAS = (0.01, 0.5)

# bs_expected_f (the GBM route) near its growth threshold eta ns^2 = 2 m, with
# ns = sqrt(2 m (1 + g) / eta): the rate eta ns^2 - 2 m cancels, and its
# absolute rounding, about eps 2 m, enters exp(rate t) times t.  Bound
# 2 eps (1 + 2 m t); measured at most 0.95 eps (1 + 2 m t) (lam = 4,
# eta = 0.0125, order 2, g = 0).  Points whose exact value leaves the double
# range (|rate t| > 600) are skipped.
GBM_LAMS = (1.0, 0.25, 4.0, 0.01)
GBM_ETAS = (0.1, 0.0125)
GBM_GS = (0.0, 1e-12, -1e-12, 1e-8, -1e-8, 1e-4, -1e-4, 1e-2, -1e-2)
GBM_TIMES = np.array([1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4])

# langevin_expected_f_exact from x0 = 1 (transient and noise) on one mode, at
# mu = 2 sqrt(lam) (1 +- 1e-6) around critical damping and mu = 9.99 just under
# 1/eta, at t = f 0.5 / ||a||_1, f times the old switch time of its series.
# Measured 4.69e-14 (msgd2, lam = 0.25, mu = 9.99, f = 1000, t = 32.3), where
# the transient is 99.95 % of E f and its e^{-t a}_xx, whose exponent
# (tr/2) t = 242 rounds as in the _exp_2x2 row, is off by 2.35e-14; at most
# 8.2e-16 up to f = 10, and 8.2e-15 at f = 100.
LANGEVIN_LAMS = (1.0, 0.25, 4.0, 0.01)
LANGEVIN_ETA = 0.1
LANGEVIN_FS = (1e-3, 1e-2, 0.1, 0.999, 1.001, 3.0, 10.0, 100.0, 1e3)
LANGEVIN_BOUND = 1e-13


def _noise_msgd_bound(f):
    return 0.5 * np.finfo(float).eps / abs(f) + 2e-15


def _edge_blocks():
    for lam in BLOCK_LAMS:
        for f in BLOCK_FS:
            mu = 2.0 * math.sqrt(lam) / math.sqrt(1.0 - f * 1e-12)
            # mu t / 2 <= 600 keeps exp(-t a) clear of underflow
            times = [t for t in BLOCK_TIMES if 0.5 * mu * t <= 600.0]
            yield (lam, f), np.array([[mu, lam], [-1.0, 0.0]]), times


def _mp_exp_neg(block, t):
    """exp(-t block) in closed form at the working precision, from the exact
    values of the float entries."""
    a = [[mp.mpf(float(x)) for x in row] for row in block]
    tr = a[0][0] + a[1][1]
    delta = tr * tr - 4 * (a[0][0] * a[1][1] - a[0][1] * a[1][0])
    u = -mp.mpf(t)
    if delta == 0:
        c0, c1 = mp.mpf(1), u
    else:
        om = mp.sqrt(mp.mpc(delta)) / 2
        c0, c1 = mp.cosh(om * u), mp.sinh(om * u) / om
    g = mp.exp(tr / 2 * u)
    return [[mp.re(g * ((c0 if i == j else 0) + c1 * (a[i][j] - (tr / 2 if i == j else 0))))
             for j in range(2)] for i in range(2)]


def _worst(cases):
    """(largest error, its case) over an iterable of (error, case)."""
    return max(cases, key=lambda item: item[0])


def test_exp_2x2_near_critical_against_mpmath():
    def cases():
        for case, block, times in _edge_blocks():
            for t in times:
                want = _mp_exp_neg(block, t)
                got = _exp_2x2(block, -t)
                num = sum((mp.mpf(float(got[i, j])) - want[i][j]) ** 2
                          for i in range(2) for j in range(2))
                den = sum(want[i][j] ** 2 for i in range(2) for j in range(2))
                yield float(mp.sqrt(num / den)), case + (t,)

    with mp.workdps(DPS):
        err, case = _worst(cases())
    assert err <= EXP_2X2_BOUND, "worst normwise error %.3g at (lam, f, t) = %s" % (err, case)


def test_decay_entry_near_critical_against_mpmath():
    def cases():
        for case, block, times in _edge_blocks():
            entry = _decay_entry(block)
            for t in times:
                want = _mp_exp_neg(block, t)[1][0]
                yield float(abs((entry(t) - want) / want)), case + (t,)

    with mp.workdps(DPS):
        err, case = _worst(cases())
    assert err <= DECAY_ENTRY_BOUND, "worst relative error %.3g at (lam, f, t) = %s" % (err, case)


def _mp_r(t, mu, lam):
    """R_function's documented formulas, branch by the exact sign of 4 lam - mu^2."""
    t, mu, lam = mp.mpf(t), mp.mpf(mu), mp.mpf(lam)
    om2 = 4 * lam - mu * mu
    if om2 <= 0:
        return (1 - mp.exp(-mu * t)) / mu
    om = mp.sqrt(om2)
    return (mu + om * mp.exp(-mu * t) * mp.sin(om * t)
            - mu * mp.exp(-mu * t) * mp.cos(om * t)) / (4 * lam)


def test_long_double_is_x87_extended():
    # sga._stationary, sga._momentum_series and matkit._invariants form their
    # cancelling terms in np.longdouble; where it is double, their ledger rows
    # above fail for this one reason
    eps = np.finfo(np.longdouble).eps
    assert eps < 1e-18, ("np.longdouble has eps %.3g, not x87 extended (1.08e-19): "
                         "sga._stationary, sga._momentum_series and "
                         "matkit._invariants lose the extra bits they rely on" % eps)


def test_r_function_against_mpmath():
    def cases():
        for mu, lam in R_CASES:
            for t in R_TIMES:
                want = _mp_r(t, mu, lam)
                yield float(abs((R_function(t, mu, lam) - want) / want)), (mu, lam, t)

    with mp.workdps(DPS):
        err, case = _worst(cases())
    assert err <= R_BOUND, "worst relative error %.3g at (mu, lam, t) = %s" % (err, case)


def test_ou_noise_term_against_mpmath():
    # x0 = 0 leaves only the noise term (lam/2) eta lam^2 (1 - e^{-2 m t})/(2 m)
    def cases():
        for lam in OU_LAMS:
            spec = SpectralDecomp(np.array([lam]), np.eye(1))
            for eta in OU_ETAS:
                for order in (1, 2):
                    got = ou_expected_f(spec, [0.0], eta, OU_TIMES, order=order)
                    lam_, eta_ = mp.mpf(lam), mp.mpf(eta)
                    m = lam_ * (1 + eta_ * lam_ / 2) if order == 2 else lam_
                    for t, value in zip(OU_TIMES.tolist(), got.tolist()):
                        want = lam_ / 2 * eta_ * lam_ ** 2 * -mp.expm1(-2 * m * t) / (2 * m)
                        yield float(abs((value - want) / want)), (lam, eta, order, t)

    with mp.workdps(DPS):
        err, case = _worst(cases())
    assert err <= OU_BOUND, "worst relative error %.3g at (lam, eta, order, t) = %s" % (err, case)


def test_asymptotic_noise_msgd_near_critical_against_mpmath():
    # the Gibbs value eta ns^2 lam^2 / (4 mu) that the bracket sum equals
    def cases():
        for lam in NOISE_LAMS:
            spec = SpectralDecomp(np.array([lam]), np.eye(1))
            for f in NOISE_FS + tuple(-f for f in NOISE_FS if f < 1):
                mu = 2.0 * math.sqrt(lam) * (1.0 + f)
                if classify_damping(mu, lam) == CRITICAL:
                    with pytest.raises(ValueError, match="degenerate"):
                        asymptotic_noise_msgd(spec, mu, NOISE_ETA)
                    continue
                got = asymptotic_noise_msgd(spec, mu, NOISE_ETA)
                want = mp.mpf(NOISE_ETA) * mp.mpf(lam) ** 2 / (4 * mp.mpf(mu))
                err = float(abs((got - want) / want))
                yield err / _noise_msgd_bound(f), (lam, f, err)

    with mp.workdps(DPS):
        ratio, case = _worst(cases())
    assert ratio <= 1.0, ("worst relative error %.3g at (lam, f) = %s, %.3g of its bound"
                          % (case[2], case[:2], ratio))


def _mp_floor(family, lam, mu):
    """Stationary E f of one mode at the exact values of the float inputs:
    sgd's b / (1 - a), or the 3 x 3 solve of P = M P M^T + N (independent of
    the closed form that discrete_floor evaluates)."""
    lam, eta = mp.mpf(lam), mp.mpf(FLOOR_ETA)
    h = eta * eta * lam
    if family == SGD:
        return lam / 2 * (eta * lam) ** 2 / (1 - (1 - eta * lam) ** 2)
    d = (1 - mp.mpf(mu) * eta) * ((1 - h) if family == SNAG else 1)
    a, b, c, e = d, -eta * lam, eta * d, 1 - h
    k = mp.matrix([[a * a, 2 * a * b, b * b], [a * c, a * e + b * c, b * e],
                   [c * c, 2 * c * e, e * e]])
    p = mp.lu_solve(mp.eye(3) - k, mp.matrix([(eta * lam) ** 2, eta * lam * h, h * h]))
    return lam / 2 * p[2]


def _floor_edge_lam(family, mu_eta, gap):
    """lam at h = eta^2 lam = h_max (1 - gap), h_max the top of the stable
    range at damping c = 1 - mu eta: 2 (1 + c) for msgd, 1 + 1/(1 + 2c) for snag."""
    c = 1.0 - mu_eta
    h_max = 2.0 * (1.0 + c) if family == MSGD else 1.0 + 1.0 / (1.0 + 2.0 * c)
    return h_max * (1.0 - gap) / FLOOR_ETA ** 2


def _floor_errors(cases):
    """(error over its bound, (family, lam, mu eta, error)) of each (family, lam, mu)."""
    eps = np.finfo(float).eps
    for family, lam, mu in cases:
        model = from_spectrum(ISOTROPIC_SHIFT, [lam])
        algo = AlgoSpec(family, FLOOR_ETA, 1.0, None if mu is None else ConstantMomentum(mu))
        if family == SGD:
            rho = sga._sgd_factors(model, FLOOR_ETA)[1][0]
        else:
            m = sga._mode_update(algo, model, np.array([[mu]]))[0, 0]
            rho = np.abs(np.linalg.eigvals(m)).max()
        want = _mp_floor(family, lam, mu)
        err = float(abs((discrete_floor(algo, model) - want) / want))
        yield err / (2.0 * eps / (1.0 - rho) + 2e-15), (family, lam, mu and mu * FLOOR_ETA, err)


def test_discrete_floor_near_spectral_radius_one_against_mpmath():
    cases = [(SGD, x / FLOOR_ETA, None) for x in FLOOR_SGD_ETA_LAMS]
    cases += [(family, lam, x / FLOOR_ETA) for family in (MSGD, SNAG)
              for lam in FLOOR_LAMS for x in FLOOR_MU_ETAS]
    cases += [(SNAG, _floor_edge_lam(SNAG, x, gap), x / FLOOR_ETA)
              for x in FLOOR_EDGE_MU_ETAS for gap in FLOOR_EDGE_GAPS]
    with mp.workdps(DPS):
        ratio, case = _worst(_floor_errors(cases))
    assert ratio <= 1.0, ("worst relative error %.3g at (family, lam, mu eta) = %s, "
                          "%.3g of its bound" % (case[3], case[:3], ratio))


def test_discrete_floor_msgd_at_its_lam_edge_against_mpmath():
    cases = [(MSGD, _floor_edge_lam(MSGD, x, gap), x / FLOOR_ETA)
             for x in FLOOR_EDGE_MU_ETAS for gap in FLOOR_EDGE_GAPS]
    with mp.workdps(DPS):
        ratio, case = _worst(_floor_errors(cases))
    assert ratio <= 1.0, ("worst relative error %.3g at (family, lam, mu eta) = %s, "
                          "%.3g of its bound" % (case[3], case[:3], ratio))


# The constant-momentum E f series, P_k = M^k P_0 (M^k)^T + C_k with C_k
# composed from (M^i, C_i) pairs, at the lam edges of the floor rows above:
# one mode from x0 = 1 over 1200 steps, against test_sga's 40-digit step
# recursion; bound as the floor rows', per point.  snag's worst is 0.020 of
# it (mu eta = 0.01, gap 1e-2), msgd's 0.47 (the same point) outside the two
# rows below.  Their loss is in the np.longdouble table of M^(jB): at
# mu eta = 0.01 msgd's two eigenvalues lie near -1 and -0.99, M^k grows to
# about 160 times rho^k, and at gap 1e-6 M^B is already off by 1.9e-16
# relative and M^(20 B) by 2.4e-13.
MSGD_SERIES_OVER_ITS_BOUND = {
    (0.01, 1e-6): "6.2e-12 relative at k = 1154, where 1 - rho = 4.2e-4 (5.8 x its bound)",
    (0.01, 1e-4): "1.6e-12 relative at k = 1117, where 1 - rho = 5.0e-3 (18 x its bound)",
}


def _series_edge_case(family, mu_eta, gap):
    found = MSGD_SERIES_OVER_ITS_BOUND.get((mu_eta, gap)) if family == MSGD else None
    marks = [pytest.mark.xfail(strict=True, reason=(
        "msgd's series near the top of its stable lam range: " + found))] if found else []
    return pytest.param(family, mu_eta, gap, marks=marks)


@pytest.mark.parametrize("family, mu_eta, gap", [
    _series_edge_case(family, x, gap)
    for family in (MSGD, SNAG) for x in FLOOR_EDGE_MU_ETAS for gap in FLOOR_EDGE_GAPS])
def test_momentum_series_at_its_lam_edge_against_mpmath(family, mu_eta, gap):
    mu = mu_eta / FLOOR_ETA
    model = from_spectrum(ISOTROPIC_SHIFT, [_floor_edge_lam(family, mu_eta, gap)])
    algo = AlgoSpec(family, FLOOR_ETA, 1200 * FLOOR_ETA + 1e-9, ConstantMomentum(mu))
    m = sga._mode_update(algo, model, np.array([[mu]]))[0, 0]
    rho = np.abs(np.linalg.eigvals(m)).max()
    assert rho < 1.0      # the bound needs a stable mode
    worst, k = _worst_against_mpmath(algo, model, np.array([1.0]))
    bound = 2.0 * np.finfo(float).eps / (1.0 - rho) + 2e-15
    assert worst <= bound, ("worst relative error %.3g at k = %d, %.3g of its bound"
                            % (worst, k, worst / bound))


# The same series away from the lam edge, as rho nears 1 from the damping
# side (mu eta -> 0), for one mode from x0 = 1 over 1200 steps.  Measured at
# most 8.9e-16 (snag, lam = 0.01, mu eta = 1e-6), at most 0.0091 of the floor
# rows' bound 2 eps / (1 - rho) + 2e-15, so the bound is a flat 2e-15.
SERIES_DAMPING_LAMS = (1.0, 0.01)
SERIES_DAMPING_MU_ETAS = (1e-6, 1e-4, 1e-2)


@pytest.mark.parametrize("family", [MSGD, SNAG])
def test_momentum_series_near_radius_one_from_damping_against_mpmath(family):
    def cases():
        for lam in SERIES_DAMPING_LAMS:
            model = from_spectrum(ISOTROPIC_SHIFT, [lam])
            for mu_eta in SERIES_DAMPING_MU_ETAS:
                algo = AlgoSpec(family, FLOOR_ETA, 1200 * FLOOR_ETA + 1e-9,
                                ConstantMomentum(mu_eta / FLOOR_ETA))
                worst, k = _worst_against_mpmath(algo, model, np.array([1.0]))
                yield worst, (lam, mu_eta, k)

    err, case = _worst(cases())
    assert err <= 2e-15, "worst relative error %.3g at (lam, mu eta, k) = %s" % (err, case)


def test_bs_expected_f_near_growth_threshold_against_mpmath():
    eps = np.finfo(float).eps

    def cases():
        for lam in GBM_LAMS:
            spec = SpectralDecomp(np.array([lam]), np.eye(1))
            for eta in GBM_ETAS:
                for order in (1, 2):
                    m = lam * (1.0 + 0.5 * eta * lam) if order == 2 else lam
                    for g in GBM_GS:
                        ns = math.sqrt(2.0 * m * (1.0 + g) / eta)
                        rate = eta * ns * ns - 2.0 * m
                        times = GBM_TIMES[np.abs(rate * GBM_TIMES) <= 600.0]
                        got = bs_expected_f(spec, [1.0], eta, times, noise_scale=ns, order=order)
                        lam_, eta_ = mp.mpf(lam), mp.mpf(eta)
                        m_ = lam_ * (1 + eta_ * lam_ / 2) if order == 2 else lam_
                        for t, value in zip(times.tolist(), got.tolist()):
                            want = lam_ / 2 * mp.exp((eta_ * mp.mpf(ns) ** 2 - 2 * m_) * t)
                            err = float(abs((value - want) / want))
                            yield (err / (2.0 * eps * (1.0 + 2.0 * m * t)),
                                   (lam, eta, order, g, t, err))

    with mp.workdps(DPS):
        ratio, case = _worst(cases())
    assert ratio <= 1.0, ("worst relative error %.3g at (lam, eta, order, g, t) = %s, "
                          "%.3g of its bound" % (case[5], case[:5], ratio))


def _mp_langevin_f(block, lam, y0, t):
    """(lam/2) [(E z0)_x^2 + eta ns^2 lam^2 C_xx] at ns = 0.9 from the float
    block's exact entries: E = e^{-t a} by _mp_exp_neg, and with tau = tr/2,
    om^2 = tau^2 - det and p(k) = (1 - e^{-k t})/k,
    C_xx = a_xv^2 int_0^t e^{-2 tau s} sinh(om s)^2/om^2 ds
         = a_xv^2 [p(2 tau - 2 om) + p(2 tau + 2 om) - 2 p(2 tau)] / (4 om^2)."""
    a = [[mp.mpf(float(x)) for x in row] for row in block]
    tau = (a[0][0] + a[1][1]) / 2
    om = mp.sqrt(mp.mpc(tau * tau - (a[0][0] * a[1][1] - a[0][1] * a[1][0])))
    t = mp.mpf(t)

    def p(k):
        return t if k == 0 else -mp.expm1(-k * t) / k

    cxx = mp.re(a[1][0] ** 2 * (p(2 * tau - 2 * om) + p(2 * tau + 2 * om) - 2 * p(2 * tau))
                / (4 * om * om))
    x = _mp_exp_neg(block, t)[1][1] * mp.mpf(y0)
    lam_ = mp.mpf(lam)
    return lam_ / 2 * (x * x + mp.mpf(LANGEVIN_ETA) * mp.mpf(0.9) ** 2 * lam_ ** 2 * cxx)


@pytest.mark.parametrize("variant", ["order1", "msgd2", "snag2"])
def test_langevin_closed_form_against_mpmath(variant):
    def cases():
        for lam in LANGEVIN_LAMS:
            spec = SpectralDecomp(np.array([lam]), np.eye(1))
            for mu in (2.0 * math.sqrt(lam) * (1.0 + 1e-6), 2.0 * math.sqrt(lam) * (1.0 - 1e-6),
                       (1.0 - 1e-3) / LANGEVIN_ETA):
                system = langevin_system(spec, mu, LANGEVIN_ETA, noise_scale=0.9,
                                         variant=variant)
                block = system.blocks.blocks[0]
                times = np.array(LANGEVIN_FS) * 0.5 / np.abs(block).sum(axis=0).max()
                got = langevin_expected_f_exact(system, [1.0], times)
                for t, value in zip(times.tolist(), got.tolist()):
                    want = _mp_langevin_f(block, lam, 1.0, t)
                    yield float(abs((value - want) / want)), (lam, mu, t)

    with mp.workdps(DPS):
        err, case = _worst(cases())
    assert err <= LANGEVIN_BOUND, "worst relative error %.3g at (lam, mu, t) = %s" % (err, case)
