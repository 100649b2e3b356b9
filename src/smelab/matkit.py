"""Small dense symmetric-matrix toolkit used by the rest of the package.

Everything here is sized for the regimes this package works in (d <= 64):
the symmetric eigendecomposition (LAPACK eigh) and the dense matrix
exponential (scipy expm) behind this package's validation and size cap,
closed-form 2x2 matrix exponentials and invariants (the per-mode blocks of
the momentum systems), planted-spectrum SPD test matrices, and the reduction
of block-structured 2d x 2d systems to per-mode 2x2 blocks sharing one
eigenbasis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng

MAX_DIM = 64


class MatkitError(ValueError):
    pass


def check_symmetric(H):
    """Validate and return a float copy of a finite symmetric matrix."""
    a = np.array(H, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatkitError("H must be a square matrix, got shape %s" % ((a.shape,),))
    if not np.all(np.isfinite(a)):
        raise MatkitError("H contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    if np.max(np.abs(a - a.T)) > 1e-12 * scale:
        raise MatkitError("H is not symmetric (max asymmetry %.3e)"
                          % float(np.max(np.abs(a - a.T))))
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigenvalues in descending order and the orthogonal eigenbasis.

    H = basis @ diag(eigenvalues) @ basis.T with basis orthogonal.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        q = np.asarray(self.basis, dtype=float)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "basis", q)
        d = lam.shape[0]
        if q.shape != (d, d):
            raise MatkitError("basis shape %s does not match %d eigenvalues" % ((q.shape,), d))
        if np.any(np.diff(lam) > 0):
            raise MatkitError("eigenvalues must be in descending order")
        if np.max(np.abs(q.T @ q - np.eye(d))) > 1e-10:
            raise MatkitError("basis is not orthogonal")

    @property
    def dim(self):
        return self.eigenvalues.shape[0]

    def matrix(self):
        return (self.basis * self.eigenvalues) @ self.basis.T

    def to_eigen(self, x):
        """Coordinates of x in the eigenbasis (y = Q^T x)."""
        return self.basis.T @ np.asarray(x, dtype=float)

    def from_eigen(self, y):
        return self.basis @ np.asarray(y, dtype=float)


def sym_eig(H):
    """Spectral decomposition (LAPACK eigh) of a symmetric matrix up to 64 x 64,
    eigenvalues in descending order."""
    a = check_symmetric(H)
    n = a.shape[0]
    if n > MAX_DIM:
        raise MatkitError("sym_eig supports matrices up to %d, got %d" % (MAX_DIM, n))
    lam, q = np.linalg.eigh(a)
    return SpectralDecomp(lam[::-1], q[:, ::-1])


def _times(c, x):
    """c * x, broadcast, with 0 wherever c or x is 0 even if the other is inf (0 * inf: NaN)."""
    out = np.zeros(np.broadcast_shapes(np.shape(c), np.shape(x)), np.result_type(c, x))
    return np.multiply(c, x, out=out, where=(c != 0.0) & (x != 0.0))


def _exp_2x2(a, t):
    """exp(t a) for 2x2 blocks a (..., 2, 2) at times t that broadcast
    against a's batch shape.

    Writes a = (tr/2) I + K with K^2 = (Delta/4) I (see _invariants), and
    picks per block on the sign of Delta: cosh/sinh and cos/sin, both accurate
    as Delta -> 0, and the defective I + tK only where Delta == 0.  In the
    cosh/sinh branch e^{|om t|} is folded into the exponent, so the result
    stays finite wherever exp(t a) is, even when cosh(om t) alone would overflow.
    """
    _, _, delta = _invariants(a)
    half = 0.5 * a[..., 0, 0] + 0.5 * a[..., 1, 1]   # tr/2 with no overflow: a finite k
    over = delta > 0.0
    under = delta < 0.0
    om = 0.5 * np.sqrt(np.abs(delta))
    om_nz = np.where(delta == 0.0, 1.0, om)   # a divisor that is never 0
    ot = _times(om_nz, t)   # 0 at t = 0 even where Delta overflows: e^{0 a} = I
    # cosh(om t) = e^s (1 + e^{-2s}) / 2, sinh(om t) = sign(t) e^s (1 - e^{-2s}) / 2
    s = np.where(over, np.abs(ot), 0.0)
    g = np.exp(half * t + s)
    c0 = np.where(over, 0.5 * g * (1.0 + np.exp(-2.0 * s)),
                  np.where(under, g * np.cos(ot), g))
    c1 = np.where(over, 0.5 * g * np.copysign(-np.expm1(-2.0 * s) / om_nz, t),
                  np.where(under, g * np.sin(ot) / om_nz, g * t))
    k = a - half[..., None, None] * np.eye(2)
    return c0[..., None, None] * np.eye(2) + c1[..., None, None] * k


def mat_exp_2x2(M, t=1.0):
    """exp(t M) for a real 2x2 matrix, in closed form (see _exp_2x2)."""
    a = np.asarray(M, dtype=float)
    if a.shape != (2, 2) or not np.all(np.isfinite(a)):
        raise MatkitError("mat_exp_2x2 needs a finite 2x2 matrix")
    return _exp_2x2(a, float(t))


def mat_exp_dense(M, t=1.0):
    """exp(t M) for a small dense matrix (scipy expm, imported on first use)."""
    from scipy.linalg import expm
    a = np.asarray(M, dtype=float) * float(t)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatkitError("mat_exp_dense needs a square matrix")
    n = a.shape[0]
    if n > MAX_DIM:
        raise MatkitError("mat_exp_dense supports matrices up to %d, got %d" % (MAX_DIM, n))
    if not np.all(np.isfinite(a)):
        raise MatkitError("mat_exp_dense: non-finite input")
    return expm(a)


def condition_spectrum(d, kappa):
    """Planted eigenvalues lambda_i = kappa^{-(i-1)/(d-1)}, descending from 1 to 1/kappa."""
    if d < 1:
        raise MatkitError("dimension must be >= 1")
    if kappa < 1.0:
        raise MatkitError("condition number must be >= 1")
    if d == 1:
        if kappa != 1.0:
            raise MatkitError("d = 1 admits only kappa = 1")
        return np.array([1.0])
    return kappa ** (-np.arange(d) / (d - 1.0))


def haar_orthogonal(d, seed):
    """Haar-distributed orthogonal matrix from the counter RNG (QR sign fix)."""
    g = rng.normals(seed, rng.STREAM_SPD, 0, 0, 0, d * d).reshape(d, d)
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))


def spd_with_condition(d, kappa, seed):
    """Random SPD matrix with planted spectrum condition_spectrum(d, kappa).

    Deterministic in (d, kappa, seed); the eigenbasis is Haar and the matrix
    is explicitly symmetrized.
    """
    lam = condition_spectrum(d, kappa)
    if d > MAX_DIM:
        raise MatkitError("spd_with_condition supports d up to %d" % MAX_DIM)
    q = haar_orthogonal(d, seed)
    h = (q * lam) @ q.T
    return 0.5 * (h + h.T)


@dataclass(frozen=True)
class Block2x2Family:
    """A 2d x 2d block matrix reduced to d independent 2x2 blocks.

    Represents A = [[a11 I + b11 H, a12 I + b12 H], [a21 I + b21 H,
    a22 I + b22 H]] in the eigenbasis of H: one 2x2 block per eigenvalue.
    blocks has shape (d, 2, 2), ordered like spec.eigenvalues.
    """

    blocks: np.ndarray
    spec: SpectralDecomp

    def __post_init__(self):
        b = np.asarray(self.blocks, dtype=float)
        object.__setattr__(self, "blocks", b)
        if b.shape != (self.spec.dim, 2, 2):
            raise MatkitError("blocks shape %s does not match dimension %d"
                              % ((b.shape,), self.spec.dim))

    @property
    def dim(self):
        return self.spec.dim

    def assemble(self):
        """Dense 2d x 2d matrix in the original coordinates, state order (v, x)."""
        return _assemble(self.spec, self.blocks)

    def block_exp(self, t):
        """exp(t A_i) for every block: shape (d, 2, 2) at a scalar t, or
        t.shape + (d, 2, 2) for an array of times, in one broadcast
        evaluation of the closed form (_exp_2x2) over (t, mode)."""
        t = np.asarray(t, dtype=float)
        return _exp_2x2(self.blocks, t[..., None])

    def block_eigenvalues(self):
        """Complex eigenvalue pair of each 2x2 block, shape (d, 2)."""
        return _pairs_2x2(self.blocks)


def _invariants(a):
    """(trace, determinant, Delta = tr^2 - 4 det) of 2x2 blocks a (..., 2, 2).
    Delta is (a00 - a11)^2 + 4 a01 a10, formed in np.longdouble from the float
    entries and rounded once: it carries no eps tr^2 from a float tr^2 - 4 det."""
    w = a.astype(np.longdouble)
    diff = w[..., 0, 0] - w[..., 1, 1]
    with np.errstate(over="ignore"):   # +-inf past the largest double
        return (a[..., 0, 0] + a[..., 1, 1],
                a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0],
                (diff * diff + 4.0 * w[..., 0, 1] * w[..., 1, 0]).astype(float))


def _pairs_2x2(a):
    """Complex eigenvalue pairs (tr +- sqrt(Delta)) / 2 of 2x2 blocks
    a (..., 2, 2): shape (..., 2)."""
    tr, _, delta = _invariants(a)
    root = np.sqrt(np.asarray(delta, dtype=complex))
    return np.stack([(tr + root) / 2.0, (tr - root) / 2.0], axis=-1)


def _least_real_2x2(a):
    """Least eigenvalue real part (tr - sqrt(max(Delta, 0))) / 2 of 2x2 blocks a (..., 2, 2):
    the bits of the smaller of _pairs_2x2's real parts, with no complex root."""
    tr, _, delta = _invariants(a)
    return (tr - np.sqrt(np.maximum(delta, 0.0))) / 2.0


def _assemble(spec, blocks):
    """The (m d) x (m d) matrix, in original coordinates with the m state slots
    of length d side by side, whose eigenbasis blocks are blocks (d, m, m)."""
    q = spec.basis
    m = blocks.shape[1]
    return np.block([[(q * blocks[:, i, j]) @ q.T for j in range(m)] for i in range(m)])


def block_reduce(p11, p12, p21, p22, spec):
    """Build the Block2x2Family for aI + bH entries.

    Each p is a coefficient pair (a, b) meaning the corresponding block of the
    2d x 2d matrix equals a I + b H; per eigenvalue the entry is a + b lam_i.
    """
    lam = spec.eigenvalues
    blocks = np.empty((spec.dim, 2, 2))
    for (i, j), (a, b) in zip(((0, 0), (0, 1), (1, 0), (1, 1)), (p11, p12, p21, p22)):
        blocks[:, i, j] = a + b * lam
    return Block2x2Family(blocks, spec)
