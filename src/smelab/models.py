"""Quadratic test models with analytically known gradient-noise covariance.

Both models share the full objective f(x) = (1/2) x^T H x with H symmetric
positive definite, and differ in how the per-sample objectives f_gamma are
randomized:

* isotropic_shift: f_gamma(x) = (1/2)(x - gamma)^T H (x - gamma)
  - (1/2) noise_scale^2 tr(H), with gamma ~ N(0, noise_scale^2 I).  The
  subtracted constant makes E f_gamma = f exactly for every noise_scale.
  Gradient noise is state-independent: Sigma(x) = noise_scale^2 H^2.

* eigenbasis_scaled: f_gamma(x) = (1/2)(Q^T x)^T (D + diag(gamma)) (Q^T x)
  with H = Q D Q^T and gamma ~ N(0, noise_scale^2 I) perturbing the
  eigenvalues.  Gradient noise is multiplicative:
  Sigma(x) = noise_scale^2 Q diag((Q^T x)^2) Q^T, which vanishes at the
  minimizer.

gamma in a GradientDraw is the shift vector (original coordinates) for
isotropic_shift and the eigenvalue perturbation (eigen coordinates) for
eigenbasis_scaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .matkit import SpectralDecomp, sym_eig

ISOTROPIC_SHIFT = "isotropic_shift"
EIGENBASIS_SCALED = "eigenbasis_scaled"
_KINDS = (ISOTROPIC_SHIFT, EIGENBASIS_SCALED)


@dataclass(frozen=True)
class QuadraticModel:
    kind: str
    spec: SpectralDecomp
    noise_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown model kind %r (expected one of %s)" % (self.kind, (_KINDS,)))
        if not (np.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ValueError("noise_scale must be nonnegative and finite")
        if np.any(self.spec.eigenvalues <= 0):
            raise ValueError("model curvature must be positive definite")

    @property
    def dim(self):
        return self.spec.dim


def from_matrix(kind, H, noise_scale=1.0):
    """Build a model from a dense SPD matrix (eigendecomposed internally)."""
    return QuadraticModel(kind, sym_eig(H), float(noise_scale))


def from_spectrum(kind, eigenvalues, basis=None, noise_scale=1.0):
    """Build a model from planted eigenvalues (descending) and optional basis."""
    lam = np.asarray(eigenvalues, dtype=float)
    q = np.eye(lam.shape[0]) if basis is None else np.asarray(basis, dtype=float)
    return QuadraticModel(kind, SpectralDecomp(lam, q), float(noise_scale))


@dataclass(frozen=True)
class GradientDraw:
    gamma: np.ndarray
    gradient: np.ndarray


def _as_point(model, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError("point shape %s does not match model dimension %d"
                         % ((x.shape,), model.dim))
    if not np.all(np.isfinite(x)):
        raise ValueError("point contains non-finite entries")
    return x


def objective(model, x):
    """f(x) = (1/2) x^T H x, identical for both model kinds."""
    x = _as_point(model, x)[None, :]
    return float(_batch_objective(model, x, None, _Rows(model, x.shape))[0])


def grad_full(model, x):
    """The full (noise-free) gradient H x."""
    return gradient_given_gamma(model, x, 0.0)


def sampled_objective(model, x, gamma):
    """f_gamma(x) for a concrete noise draw; E over gamma recovers objective()."""
    x = _as_point(model, x)
    gamma = np.asarray(gamma, dtype=float)
    if model.kind == ISOTROPIC_SHIFT:
        z = model.spec.to_eigen(x - gamma)
        ns = model.noise_scale
        return (0.5 * float(np.sum(model.spec.eigenvalues * z * z))
                - 0.5 * ns * ns * float(np.sum(model.spec.eigenvalues)))
    y = model.spec.to_eigen(x)
    return 0.5 * float(np.sum((model.spec.eigenvalues + gamma) * y * y))


def gradient_given_gamma(model, x, gamma):
    """grad f_gamma(x) for a concrete draw (used to reuse one draw at two points)."""
    x = _as_point(model, x)[None, :]
    return _batch_gradient(model, x, np.asarray(gamma, dtype=float), None,
                           _Rows(model, x.shape))[0]


def draw_gamma(model, stream):
    """One noise draw gamma ~ N(0, noise_scale^2 I) from a CounterStream."""
    return model.noise_scale * stream.normals(model.dim)


def grad_sample(model, x, stream):
    """One stochastic gradient: draws gamma from the stream, evaluates at x."""
    gamma = draw_gamma(model, stream)
    return GradientDraw(gamma, gradient_given_gamma(model, x, gamma))


def _noise_weight(model, x):
    """w in Sigma^{1/2}(x) = ns Q diag(w) Q^T: lam, or |Q^T x| on eigenbasis_scaled."""
    x = _as_point(model, x)
    if model.kind == ISOTROPIC_SHIFT:
        return model.spec.eigenvalues
    return np.abs(model.spec.basis.T @ x)


def sigma(model, x):
    """Gradient-noise covariance Sigma(x) = Cov[grad f_gamma(x)]."""
    q = model.spec.basis
    return model.noise_scale ** 2 * (q * _noise_weight(model, x) ** 2) @ q.T


def sigma_sqrt(model, x):
    """The positive-semidefinite square root of sigma(model, x)."""
    q = model.spec.basis
    return model.noise_scale * (q * _noise_weight(model, x)) @ q.T


def sigma_mc(model, x, n_draws, seed):
    """Monte-Carlo estimate of sigma(model, x) from n_draws gradient samples.

    Unbiased sample covariance (n-1 denominator); deterministic in seed via
    the counter RNG; draws are chunked so memory stays bounded.
    """
    x = _as_point(model, x)
    if n_draws < 2:
        raise ValueError("need at least 2 draws for a covariance estimate")
    d = model.dim
    mean = np.zeros(d)
    cross = np.zeros((d, d))
    done = 0
    chunk = 4096   # draws at a time: bounds the memory; part of the result's bits
    while done < n_draws:
        m = min(chunk, n_draws - done)
        paths = np.arange(done, done + m, dtype=np.uint64)
        z = rng.normals(seed, rng.STREAM_MC, paths, 0, 0, d)
        g = _batch_gradient(model, np.broadcast_to(x, (m, d)), model.noise_scale * z,
                            None, _Rows(model, (m, d)))
        mean += g.sum(axis=0)
        cross += g.T @ g
        done += m
    mean /= n_draws
    return (cross - n_draws * np.outer(mean, mean)) / (n_draws - 1)


class _Rows:
    """Scratch for points of a model stacked in rows, of the given shape:
    two buffers a and b, the eigenvalues (repeated in every row of a batch:
    numpy runs a product with a (d,) vector broadcast over the rows row by
    row, several times slower at small d), the basis and a C-ordered copy of
    basis.T (numpy multiplies by the transposed view several times slower),
    both None for an identity basis, whose products the kernels skip: X @ I
    is X bit for bit for finite X but for the sign of a zero.  An ensemble
    chunk makes one and reuses it at every step."""

    def __init__(self, model, shape):
        lam, q = model.spec.eigenvalues, model.spec.basis
        self.lam = lam if shape[0] == 1 else np.broadcast_to(lam, shape).copy()
        self.basis = None if np.array_equal(q, np.eye(len(q))) else q
        self.basis_t = None if self.basis is None else np.ascontiguousarray(q.T)
        self.a = np.empty(shape)
        self.b = np.empty(shape)


def _batch_gradient(model, X, gammas, out, rows):
    """Rows of grad f_gamma(x) for row-stacked points X (which may be rows.a)
    and draws gammas, into out (or a new array) and rows, a _Rows of X's shape."""
    q = rows.basis
    if model.kind == ISOTROPIC_SHIFT:
        c = np.subtract(X, gammas, out=rows.a)
        if q is None:
            return np.multiply(c, rows.lam, out=out)
        c = np.matmul(c, q, out=rows.b)
        c *= rows.lam
    elif q is None:   # X may be rows.a
        return np.multiply(X, np.add(rows.lam, gammas, out=rows.b), out=out)
    else:
        c = np.matmul(X, q, out=rows.b)
        c *= np.add(rows.lam, gammas, out=rows.a)
    return np.matmul(c, rows.basis_t, out=out)


def _batch_objective(model, X, out, rows):
    """f of each row of X: 0.5 * np.sum(lam * y * y, axis=-1), y = X @ basis,
    written into out (or a new array) and rows (a _Rows of X's shape).

    numpy sums fewer than eight terms left to right, and up to 128 in eight
    accumulators r_j of the terms j, j + 8, ... of the whole eights, then
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and the rest in turn.
    For d <= 128 and several rows the columns are added in that order (in t):
    the same bits without the per-row cost of a short reduction.
    """
    y = X if rows.basis is None else np.matmul(X, rows.basis, out=rows.a)
    t = np.multiply(rows.lam, y, out=rows.b)
    t *= y
    d = t.shape[-1]
    if d > 128 or t.shape[0] == 1:
        out = np.add.reduce(t, axis=-1, out=out)
    else:
        rest = 1 if d < 8 else d - d % 8   # the first column added in turn
        if d >= 8:
            for i in range(8, rest, 8):
                t[..., :8] += t[..., i:i + 8]
            t[..., 0:8:2] += t[..., 1:8:2]
            t[..., 0:8:4] += t[..., 2:8:4]
            t[..., 0] += t[..., 4]
        out = np.positive(t[..., 0], out=out)       # a copy
        for j in range(rest, d):
            out += t[..., j]
    out *= 0.5
    return out


def _observer(model, observable):
    """observable_fn for chunked ensembles: bind(X, rows) returns a function
    of no arguments that evaluates the observable on the rows of X (a view of
    one chunk's state); the objective is written into rows and a buffer that
    bind makes once."""
    g = observable_fn(model, observable)
    if observable != "f":
        return lambda X, rows: lambda: g(X)

    def bind(X, rows):
        out = np.empty(X.shape[0])
        return lambda: _batch_objective(model, X, out, rows)
    return bind


def observable_fn(model, observable):
    """Vectorized observable g: rows of X -> values.

    observable is "f" for the objective or a tuple of integer exponents for
    the monomial prod_j x_j^{e_j}.
    """
    if observable == "f":
        return lambda X: _batch_objective(model, X, None, _Rows(model, X.shape))
    exps = np.asarray(observable, dtype=float)
    if exps.shape != (model.dim,):
        raise ValueError("monomial exponents must have length %d" % model.dim)
    return lambda X: np.prod(X ** exps, axis=-1)
