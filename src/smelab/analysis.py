"""Spectral analysis of the momentum systems and rate measurement utilities.

The linear momentum SDEs reduce to per-eigenmode 2x2 blocks; their complex
eigenvalue pairs decide damping regimes, convergence rates, optimal momentum,
and divergence thresholds.  This module also certifies exponential decay
bounds ||e^{-tA}||_F <= C e^{-rate t} with explicit constants, and fits
convergence rates from measured E f trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matkit import Block2x2Family, SpectralDecomp, _invariants, _least_real_2x2, _pairs_2x2

_DEGENERATE_TOL = 1e-9

UNDERDAMPED = "underdamped"
OVERDAMPED = "overdamped"
CRITICAL = "critical"


def _eigenvalues_of(spec_or_lambdas):
    if isinstance(spec_or_lambdas, SpectralDecomp):
        lam = spec_or_lambdas.eigenvalues
    else:
        lam = np.asarray(spec_or_lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("expected a SpectralDecomp or a 1-d eigenvalue array")
    if np.any(lam <= 0):
        raise ValueError("eigenvalues must be positive")
    return lam


@dataclass(frozen=True)
class EigenReport:
    """Eigenvalue pairs (d, 2) of per-mode 2x2 systems, with classification."""

    eigenvalues: np.ndarray
    min_real_part: float
    classification: tuple
    diagonalizable: bool


def _regimes(det, delta):
    """The one near-critical rule: the regime of each 2x2 block (determinant
    det, discriminant delta from matkit._invariants) is critical where
    |delta| <= _DEGENERATE_TOL max(1, 4 det), and otherwise set by delta's sign."""
    critical = np.abs(delta) <= _DEGENERATE_TOL * np.maximum(1.0, 4.0 * det)
    return np.where(critical, CRITICAL, np.where(delta > 0.0, OVERDAMPED, UNDERDAMPED))


def _eigen_report(blocks):
    """Eigenvalue pairs, least real part and regimes of blocks (d, 2, 2)."""
    pairs = _pairs_2x2(blocks)
    cls = tuple(_regimes(*_invariants(blocks)[1:]).tolist())
    return EigenReport(pairs, float(np.min(pairs.real)), cls, CRITICAL not in cls)


def classify_damping(mu, lam):
    """Damping regime of one momentum mode, the block [[mu, lam], [-1, 0]]
    (trace mu, determinant lam) under _regimes' rule: mu^2 vs 4 lam."""
    return str(_regimes(*_invariants(np.array([[mu, lam], [-1.0, 0.0]]))[1:]))


def momentum_eigs(mu, spec_or_lambdas):
    """Continuous-time momentum eigenvalues Lam_+- = (mu +- sqrt(mu^2-4lam))/2,
    the eigenvalue pairs of the order-1 drift blocks -b0.

    These govern e^{-t Lam} decay, so stability means positive real parts.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    lam = _eigenvalues_of(spec_or_lambdas)
    return _eigen_report(-_drift_blocks("msgd", 1, lam, 0.0, mu)[0])


def optimal_mu(spec_or_lambdas):
    """The rate-optimal constant momentum 2 sqrt(lam_min) (critical damping of
    the slowest mode)."""
    return 2.0 * math.sqrt(float(np.min(_eigenvalues_of(spec_or_lambdas))))


def _drift_blocks(family, order, lam, eta, mu=None, t=0.0):
    """Per-mode drift blocks (b0, b1) of an SME, each of shape (d, m, m).

    In the eigenbasis of H the drift b0 + eta b1 acts on mode i as the m x m
    block b0_i + eta b1_i, with state y_i (m = 1) for sgd and (v_i, y_i)
    (m = 2) for the momentum families:
      sgd:  b0 = -lam,                   b1 = -lam^2 / 2
      msgd: b0 = [[-mu, -lam], [1, 0]],  b1 = -(1/2) [[mu^2 - lam, mu lam], [mu, lam]]
      snag: as msgd with mu^2 + lam in b1's velocity entry
      snag_varying: b0 with the drag 3/t in place of mu
    b1 is zero at order 1.  An array of momenta mu gives blocks of shape
    mu.shape + (d, 2, 2).
    """
    if family == "sgd":
        b0 = -lam.reshape(-1, 1, 1)
        b1 = -0.5 * b0 * b0
    else:
        if family == "snag_varying":
            if t <= 0:
                raise ValueError("varying drift needs t > 0")
            mu = 3.0 / t
        mu = np.asarray(mu, dtype=float)
        shape = mu.shape + lam.shape + (2, 2)
        mu = mu[..., None]
        b0 = np.zeros(shape)
        b0[..., 0, 0], b0[..., 0, 1], b0[..., 1, 0] = -mu, -lam, 1.0
        sign = -1.0 if family == "msgd" else 1.0
        b1 = np.empty(shape)
        b1[..., 0, 0], b1[..., 0, 1] = mu * mu + sign * lam, mu * lam
        b1[..., 1, 0], b1[..., 1, 1] = mu, lam
        b1 *= -0.5
    if order == 1:
        b1 = np.zeros_like(b0)
    return b0, b1


def order2_eigs(family, mu, eta, spec_or_lambdas):
    """Eigenvalues of the order-2 momentum drift blocks -(b0 + eta b1).

    In the underdamped regime each snag eigenvalue's real part exceeds its
    msgd counterpart by eta lam / 2: the extra Hessian damping is what speeds
    SNAG up at order eta.
    """
    if family not in ("msgd", "snag"):
        raise ValueError("family must be msgd or snag")
    if mu <= 0 or eta <= 0:
        raise ValueError("mu and eta must be positive")
    b0, b1 = _drift_blocks(family, 2, _eigenvalues_of(spec_or_lambdas), eta, mu)
    return _eigen_report(-(b0 + eta * b1))


def varying_momentum_eigs(t, t0, spec_or_lambdas):
    """Frozen-coefficient eigenvalues of the schedule system averaged on [t0, t]:
    (1/2) [drag +- sqrt(drag^2 - 4 lam)], drag = 3 log(t/t0)/(t - t0)."""
    if not (t > t0 > 0):
        raise ValueError("need t > t0 > 0")
    return momentum_eigs(3.0 * math.log(t / t0) / (t - t0), spec_or_lambdas)


# ---------------------------------------------------------------------------
# Decay bound certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayBound:
    """Certified bound ||exp(-t A)||_F <= constant * exp(-(rate - eps) t)."""

    rate: float
    constant: float
    eps: float
    holds: bool
    any_defective: bool


def decay_bound_check(family: Block2x2Family, t_grid):
    """Certify ||e^{-tA}||_F <= C e^{-(rate-eps) t} blockwise and test it on a grid.

    rate is the spectral abscissa min_i Re eig(A_i).  For each diagonalizable
    block the constant picks up its eigenvector conditioning; a defective
    block (critical under _regimes, with nilpotent part N != 0) forces the
    eps-branch (eps = rate/10) with the explicit constant sup_t (1 + t ||N||)
    e^{-eps t}.  The overall constant includes the dimension factor sqrt(2d).
    holds reports whether the bound was satisfied at every grid time (up to
    1e-9 relative slack for rounding at equality cases).
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0 or np.any(t_grid < 0):
        raise ValueError("t_grid must be a 1-d array of nonnegative times")
    blocks = family.blocks
    rate = float(np.min(_least_real_2x2(blocks)))
    tr, det, disc = _invariants(blocks)
    nil = blocks - 0.5 * tr[:, None, None] * np.eye(2)
    defective = ((_regimes(det, disc) == CRITICAL)
                 & (np.max(np.abs(nil), axis=(1, 2)) > 1e-14))
    any_def = bool(np.any(defective))
    eps = 0.0
    if any_def:
        if rate <= 0.0:
            raise ValueError("defective block with nonpositive rate: no eps-branch")
        eps = rate / 10.0
    constant = math.sqrt(2.0 * family.dim)
    for i in np.flatnonzero(defective):
        # ||e^{-ta}||_2 <= (1 + t ||N||) e^{-(mean - s) t} with mean = tr/2
        # and s = sqrt(|disc|)/2, so the eps-branch needs eps > s and pays
        # sup_t (1 + t ||N||) e^{-(eps - s) t}.
        s = 0.5 * math.sqrt(abs(disc[i]))
        if eps <= s:
            raise ValueError("near-degenerate block too wide for the eps-branch")
        delta = eps - s
        nnorm = math.sqrt(float(np.sum(nil[i] * nil[i])))
        if nnorm <= delta:
            factor = 1.0
        else:
            factor = (nnorm / delta) * math.exp(delta / nnorm - 1.0)
        constant *= max(1.0, factor)
    # a real basis of each diagonalizable block: both eigenvectors of a real
    # pair, (Re v, Im v) of a complex one.  numpy's eigenvectors have unit
    # norm, and the condition number is blind to the phase of a complex v.
    w, vecs = np.linalg.eig(blocks[~defective])
    v = vecs[:, :, 0]
    basis = np.where((w[:, 0].imag != 0)[:, None, None],
                     np.stack([v.real, v.imag], axis=2), vecs.real)
    constant *= float(np.prod(np.maximum(1.0, np.linalg.cond(basis))))
    e = family.block_exp(-t_grid)
    norms = np.sqrt(np.sum(e * e, axis=(1, 2, 3)))
    bound = constant * np.exp(-(rate - eps) * t_grid)
    holds = bool(np.all(norms <= bound * (1.0 + 1e-9) + 1e-300))
    return DecayBound(rate, constant, eps, holds, any_def)


# ---------------------------------------------------------------------------
# Rate fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    residual: float
    window: tuple


def _ols(x, y):
    """(slope, intercept, rms residual) of the least-squares line y ~ x; a
    range x is made as an array only while in use, so a long window keeps at
    most three arrays of its length live: y and two work buffers."""
    xs = (lambda: np.arange(x.start, x.stop, dtype=float)) if isinstance(x, range) else x.copy
    dx = xs()
    xb = float(np.mean(dx))
    yb = float(np.mean(y))
    dx -= xb
    work = np.multiply(dx, dx)
    sxx = float(np.sum(work))
    if sxx == 0.0:
        raise ValueError("degenerate fit: all abscissae equal")
    slope = float(np.sum(np.multiply(np.subtract(y, yb, out=work), dx, out=work))) / sxx
    intercept = yb - slope * xb
    del dx
    resid = xs()
    resid *= slope
    resid += intercept
    np.subtract(y, resid, out=resid)
    return slope, intercept, math.sqrt(float(np.mean(np.square(resid, out=resid))))


def fit_loglog_slope(xs, ys):
    """OLS slope of log ys against log xs (e.g. error vs step size)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need two 1-d arrays of equal length >= 2")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive data")
    slope, intercept, resid = _ols(np.log(xs), np.log(ys))
    return RateFit(slope, intercept, resid, (0, xs.size))


def descent_rate(series, eta, floor=None):
    """Per-iteration decay rate of a positive E f trajectory on the k-grid.

    Fits -log series(k) against k by OLS on the window [2, k_b], where k_b is
    the last index with series >= 10 * floor (floor defaults to the mean of
    the final quarter).  The returned slope is the decay rate per iteration;
    divide by eta for a rate per unit rescaled time.
    """
    if not (eta > 0):
        raise ValueError("eta must be positive")
    s = np.asarray(series, dtype=float)
    if s.ndim != 1 or s.size < 8:
        raise ValueError("need a trajectory of at least 8 values")
    if floor is None:
        floor = float(np.mean(s[-(s.size // 4):]))
    thresh = 10.0 * floor
    k_b = s.size - 1 - int(np.argmax(s[::-1] >= thresh))   # the last index above
    k_a = 2
    if not s[k_b] >= thresh or k_b <= k_a + 2:
        raise ValueError("descent window is empty: trajectory starts within "
                         "10x of its floor (floor=%g)" % floor)
    return windowed_rate(s, k_a, k_b)


def windowed_rate(series, lo, hi):
    """OLS decay rate of -log(series) against k on the index window [lo, hi]."""
    values = np.asarray(series, dtype=float)
    if not (0 <= lo < hi < values.size):
        raise ValueError("window [%d, %d] out of range for %d values"
                         % (lo, hi, values.size))
    window = values[lo:hi + 1]
    if np.any(window <= 0):
        raise ValueError("trajectory is not positive on the fit window")
    y = np.log(window)
    return RateFit(*_ols(range(lo, hi + 1), np.negative(y, out=y)), (lo, hi))


# ---------------------------------------------------------------------------
# Divergence thresholds
# ---------------------------------------------------------------------------


def divergence_threshold(spec_or_lambdas):
    """SME prediction for the critical step size of the multiplicative-noise
    model at unit noise scale: eta* = 2 lam_min."""
    return 2.0 * float(np.min(_eigenvalues_of(spec_or_lambdas)))


def discrete_divergence_threshold(lam, noise_scale=1.0):
    """Exact flip point of one discrete mode: E y^2 grows iff
    (1 - eta lam)^2 + eta^2 ns^2 > 1, i.e. eta > 2 lam/(lam^2 + ns^2)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return 2.0 * lam / (lam * lam + noise_scale ** 2)


def discrete_growth_factors(model, eta):
    """Per-mode one-step factors of E y_i^2 for sgd on eigenbasis_scaled."""
    lam = model.spec.eigenvalues
    with np.errstate(over="ignore"):   # a factor past the largest double is +inf
        return (1.0 - eta * lam) ** 2 + eta * eta * model.noise_scale ** 2
