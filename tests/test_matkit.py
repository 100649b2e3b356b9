import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal
from test_precision import _edge_blocks

from smelab import matkit
from smelab.analysis import CRITICAL, OVERDAMPED, _drift_blocks, _regimes, classify_damping
from smelab.matkit import (Block2x2Family, MatkitError, SpectralDecomp, _invariants,
                           _least_real_2x2, _pairs_2x2, block_reduce, check_symmetric,
                           condition_spectrum, haar_orthogonal, mat_exp_2x2, mat_exp_dense,
                           spd_with_condition, sym_eig)


def _random_symmetric(d, seed):
    gen = np.random.default_rng(seed)
    a = gen.standard_normal((d, d))
    return 0.5 * (a + a.T)


# ---------------------------------------------------------------------------
# check_symmetric / SpectralDecomp
# ---------------------------------------------------------------------------


def test_check_symmetric_accepts_and_rejects():
    h = _random_symmetric(4, 0)
    out = check_symmetric(h)
    assert_allclose(out, h)
    bad = h.copy()
    bad[0, 1] += 1e-6
    with pytest.raises(MatkitError):
        check_symmetric(bad)
    with pytest.raises(MatkitError):
        check_symmetric(np.ones((2, 3)))


def test_spectral_decomp_ordering_rules():
    # strictly ascending is rejected; descending and ties are fine
    with pytest.raises(MatkitError):
        SpectralDecomp(np.array([0.5, 1.0]), np.eye(2))
    dec = SpectralDecomp(np.array([1.0, 1.0]), np.eye(2))
    assert dec.dim == 2
    dec = SpectralDecomp(np.array([2.0, 1.0, 0.5]), np.eye(3))
    assert_allclose(dec.matrix(), np.diag([2.0, 1.0, 0.5]))


def test_spectral_decomp_coordinate_round_trip():
    h = _random_symmetric(5, 1)
    dec = sym_eig(h)
    x = np.arange(1.0, 6.0)
    y = dec.to_eigen(x)
    assert_allclose(dec.from_eigen(y), x, atol=1e-12)
    # to_eigen is the basis transpose action
    assert_allclose(y, dec.basis.T @ x, atol=1e-12)


# ---------------------------------------------------------------------------
# sym_eig against the dense reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,seed", [(1, 0), (2, 1), (3, 2), (6, 3), (10, 4),
                                    (32, 5)])
def test_sym_eig_matches_reference(d, seed):
    h = _random_symmetric(d, seed)
    dec = sym_eig(h)
    ref = np.sort(np.linalg.eigvalsh(h))[::-1]
    assert_allclose(dec.eigenvalues, ref, atol=1e-11 * max(1, d))
    # descending order, orthogonal basis, exact reconstruction
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
    assert_allclose(dec.basis.T @ dec.basis, np.eye(d), atol=1e-12 * d)
    assert_allclose(dec.matrix(), h, atol=1e-11 * max(1, d))


def test_sym_eig_repeated_eigenvalues():
    q = haar_orthogonal(4, seed=9)
    h = (q * np.array([2.0, 1.0, 1.0, 1.0])) @ q.T
    dec = sym_eig(0.5 * (h + h.T))
    assert_allclose(dec.eigenvalues, [2.0, 1.0, 1.0, 1.0], atol=1e-12)
    assert_allclose(dec.matrix(), h, atol=1e-11)


def test_sym_eig_rejects_oversize_and_asymmetric():
    with pytest.raises(MatkitError):
        sym_eig(np.eye(65))
    with pytest.raises(MatkitError):
        sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# matrix exponentials
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [
    np.array([[0.3, 0.0], [0.0, -1.2]]),           # diagonal
    np.array([[0.0, 1.0], [-1.0, 0.0]]),           # rotation (complex pair)
    np.array([[1.0, 1.0], [0.0, 1.0]]),            # defective Jordan block
    np.array([[2.0, 3.0], [0.5, -1.0]]),           # generic real eigenvalues
    np.array([[-0.5, 2.0], [-2.0, -0.5]]),         # damped oscillator
])
def test_mat_exp_2x2_matches_scipy(m):
    for t in (0.0, 0.37, 1.0, -2.0, 11.0):
        assert_allclose(mat_exp_2x2(m, t), scipy.linalg.expm(t * m),
                        rtol=1e-10, atol=1e-10)


def test_mat_exp_2x2_near_defective_stability():
    # discriminant ~ 1e-14: the closed form must not lose digits
    for eps in (0.0, 1e-14, -1e-14, 1e-7):
        m = np.array([[1.0 + eps, 1.0], [0.0, 1.0]])
        assert_allclose(mat_exp_2x2(m, 0.9), scipy.linalg.expm(0.9 * m),
                        rtol=1e-9, atol=1e-9)


def test_mat_exp_2x2_overdamped_large_t_stays_finite():
    # the msgd2 block at mu = 3, eta = 0.1, lam = 0.25: cosh(om t) alone
    # overflows at t = -600 although exp(t m) is about 6e-23
    m = np.array([[3.4375, 0.2875], [-0.85, 0.0125]])
    assert_allclose(mat_exp_2x2(m, -600.0), scipy.linalg.expm(-600.0 * m),
                    rtol=1e-12, atol=0.0)


def test_mat_exp_2x2_group_property():
    m = np.array([[0.4, -1.1], [0.8, -0.2]])
    e1 = mat_exp_2x2(m, 0.6)
    e2 = mat_exp_2x2(m, 0.4)
    assert_allclose(e1 @ e2, mat_exp_2x2(m, 1.0), rtol=1e-12, atol=1e-12)
    assert_allclose(mat_exp_2x2(m, 0.0), np.eye(2), atol=1e-15)


def _discriminant_blocks():
    """The order-1 momentum blocks of the precision ledger near critical
    damping, the order-2 msgd and snag blocks -(b0 + eta b1) at the same mu,
    and 200 seeded blocks with N(0, 1) entries."""
    order1 = [block for _, block, _ in _edge_blocks()]
    lam = np.array([b[0, 1] for b in order1])
    mu = np.array([b[0, 0] for b in order1])
    order2 = []
    for family in ("msgd", "snag"):
        b0, b1 = _drift_blocks(family, 2, lam, 0.1, mu)
        order2 += list(-(b0 + 0.1 * b1)[np.arange(lam.size), np.arange(lam.size)])
    gen = np.random.default_rng(28)
    return np.array(order1 + order2 + list(gen.standard_normal((200, 2, 2))))


def _exact_discriminants(blocks):
    """(a00 - a11)^2 + 4 a01 a10 and (a00 - a11)^2 + 4 |a01 a10| of each
    block at 60 digits from its float entries, as mpmath numbers."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        for a in blocks:
            a00, a01, a10, a11 = (mp.mpf(float(v)) for v in a.ravel())
            yield (a00 - a11) ** 2 + 4 * a01 * a10, (a00 - a11) ** 2 + 4 * abs(a01 * a10)


def test_invariants_discriminant_against_mpmath():
    # |Delta - Delta_exact| <= 2^-53 |Delta_exact| + 2^-59 ((a00 - a11)^2 +
    # 4 |a01 a10|); a float tr^2 - 4 det is 335 x over it near critical damping
    blocks = _discriminant_blocks()
    tr, det, delta = _invariants(blocks)
    assert_array_equal(tr, blocks[:, 0, 0] + blocks[:, 1, 1])
    assert_array_equal(det, blocks[:, 0, 0] * blocks[:, 1, 1]
                       - blocks[:, 0, 1] * blocks[:, 1, 0])
    worst = (0.0, None)
    for a, got, (exact, scale) in zip(blocks, delta.tolist(), _exact_discriminants(blocks)):
        ratio = float(abs(got - exact) / (abs(exact) / 2 ** 53 + scale / 2 ** 59))
        if ratio > worst[0]:
            worst = (ratio, a.tolist())
    assert worst[0] <= 1.0, "error %.3g of its bound at block %s" % worst


def test_discriminant_readers_agree():
    blocks = _discriminant_blocks()
    _, det, delta = _invariants(blocks)
    # a complex eigenvalue pair exactly where _exp_2x2 takes its cos/sin branch
    assert_array_equal(_pairs_2x2(blocks).imag[:, 0] != 0.0, delta < 0.0)
    # the least real part with no complex root: the bits of the pairs' smaller one
    assert _least_real_2x2(blocks).tobytes() == _pairs_2x2(blocks).real.min(axis=1).tobytes()
    # outside the critical band the regime is the sign of the exact Delta
    regimes = _regimes(det, delta)
    exact_sign = np.array([int(exact > 0) - int(exact < 0)
                           for exact, _ in _exact_discriminants(blocks)])
    outside = regimes != CRITICAL
    assert outside.any() and not outside.all()
    assert_array_equal(np.where(regimes[outside] == OVERDAMPED, 1, -1), exact_sign[outside])
    # classify_damping reads the same rule on the order-1 blocks [[mu, lam], [-1, 0]]
    for block, regime in zip(blocks[:len(list(_edge_blocks()))], regimes):
        assert classify_damping(block[0, 0], block[0, 1]) == regime


@pytest.mark.parametrize("d,seed", [(3, 0), (5, 1), (8, 2)])
def test_mat_exp_dense_matches_scipy(d, seed):
    gen = np.random.default_rng(seed)
    m = gen.standard_normal((d, d))
    assert_allclose(mat_exp_dense(m, 0.8), scipy.linalg.expm(0.8 * m),
                    rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# constructed spectra and random bases
# ---------------------------------------------------------------------------


def test_condition_spectrum_values():
    lam = condition_spectrum(6, 100.0)
    assert lam.shape == (6,)
    assert lam[0] == 1.0
    assert_allclose(lam[-1], 0.01, rtol=1e-12)
    assert_allclose(lam, 100.0 ** (-np.arange(6) / 5.0), rtol=1e-12)
    assert_allclose(lam[0] / lam[-1], 100.0, rtol=1e-12)
    # kappa = 1 collapses to the identity spectrum
    assert_allclose(condition_spectrum(4, 1.0), np.ones(4))


def test_haar_orthogonal_properties():
    q = haar_orthogonal(6, seed=4)
    assert_allclose(q.T @ q, np.eye(6), atol=1e-12)
    assert np.array_equal(q, haar_orthogonal(6, seed=4))
    assert not np.allclose(q, haar_orthogonal(6, seed=5))


def test_spd_with_condition_planted_spectrum():
    h = spd_with_condition(6, 300.0, seed=11)
    assert_allclose(h, h.T, atol=1e-15)
    lam = np.sort(np.linalg.eigvalsh(h))[::-1]
    assert_allclose(lam, condition_spectrum(6, 300.0), rtol=1e-10)
    assert np.array_equal(h, spd_with_condition(6, 300.0, seed=11))


# ---------------------------------------------------------------------------
# block 2x2 families
# ---------------------------------------------------------------------------


def _family(seed=3):
    h = spd_with_condition(3, 10.0, seed=seed)
    spec = sym_eig(h)
    # the momentum drift layout [[mu I, H], [-I, 0]]
    fam = block_reduce((1.7, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, 0.0), spec)
    return h, spec, fam


def test_block_reduce_assembles_dense_matrix():
    h, spec, fam = _family()
    d = spec.dim
    dense = np.block([[1.7 * np.eye(d), h], [-np.eye(d), np.zeros((d, d))]])
    assert_allclose(fam.assemble(), dense, atol=1e-12)


def test_block_entries_follow_eigenvalues():
    _, spec, fam = _family()
    for i, lam in enumerate(spec.eigenvalues):
        assert_allclose(fam.blocks[i], [[1.7, lam], [-1.0, 0.0]], atol=1e-14)


def test_block_exp_matches_dense_exponential():
    h, spec, fam = _family()
    d = spec.dim
    t = 0.55
    exps = fam.block_exp(t)
    for i in range(d):
        assert_allclose(exps[i], scipy.linalg.expm(t * fam.blocks[i]),
                        rtol=1e-10, atol=1e-12)
    # assembled exponential equals blockwise exponential rotated back
    dense = scipy.linalg.expm(t * fam.assemble())
    q = spec.basis
    recon = np.zeros((2 * d, 2 * d))
    for i in range(2):
        for j in range(2):
            recon[i * d:(i + 1) * d, j * d:(j + 1) * d] = \
                (q * exps[:, i, j]) @ q.T
    assert_allclose(recon, dense, rtol=1e-9, atol=1e-10)


def test_block_exp_array_t_equals_scalar_calls():
    # one overdamped, one critically damped (defective) and one underdamped
    # block, each at an array of times
    spec = SpectralDecomp(np.array([4.0, 1.0, 0.25]), np.eye(3))
    blocks = np.array([[[3.0, 1.0], [-1.0, 0.0]],      # Delta = 5
                       [[2.0, 1.0], [-1.0, 0.0]],      # Delta = 0
                       [[0.5, 0.25], [-1.0, 0.0]]])    # Delta = -0.75
    fam = Block2x2Family(blocks, spec)
    t = np.linspace(-3.0, 5.0, 17).reshape(1, 17)
    exps = fam.block_exp(t)
    assert exps.shape == (1, 17, 3, 2, 2)
    for j, tj in enumerate(t[0]):
        assert_allclose(exps[0, j], fam.block_exp(float(tj)), rtol=1e-15, atol=0)
        for i in range(3):
            assert_allclose(exps[0, j, i], mat_exp_2x2(blocks[i], float(tj)),
                            rtol=1e-15, atol=0)
            assert_allclose(exps[0, j, i], scipy.linalg.expm(tj * blocks[i]),
                            rtol=1e-10, atol=1e-12)


def test_block_eigenvalues_match_reference():
    _, spec, fam = _family()
    eigs = fam.block_eigenvalues()
    for i in range(spec.dim):
        ref = np.linalg.eigvals(fam.blocks[i])
        assert_allclose(np.sort_complex(eigs[i]), np.sort_complex(ref),
                        atol=1e-12)


def test_block_family_shape_validation():
    _, spec, _ = _family()
    with pytest.raises(MatkitError):
        Block2x2Family(np.zeros((2, 2, 2)), spec)
