import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import ndtri

from smelab import rng


# The numpy Philox bit generator increments its counter (word 0, with carry)
# before emitting the first block, so numpy(counter) equals the raw bijection
# evaluated at counter + 1.
def _numpy_block(counter, key):
    bg = np.random.Philox(counter=np.array(counter, dtype=np.uint64),
                          key=np.array(key, dtype=np.uint64))
    return np.asarray(bg.random_raw(4), dtype=np.uint64)


@pytest.mark.parametrize("counter,key", [
    ((0, 0, 0, 0), (0, 0)),
    ((10, 20, 30, 40), (12345, 678)),
    ((2**64 - 1, 7, 0, 3), (2**63, 2**64 - 1)),
    ((1, 2**64 - 1, 2**64 - 1, 2**64 - 1), (99, 1)),
])
def test_philox_matches_numpy(counter, key):
    bumped = list(counter)
    for i in range(4):
        bumped[i] = (bumped[i] + 1) % 2**64
        if bumped[i] != 0:
            break
    mine = np.concatenate(rng.philox4x64(
        np.array(bumped, dtype=np.uint64), key))
    assert np.array_equal(mine, _numpy_block(counter, key))


def test_philox_known_answer_zero_key():
    # Random123 reference vector: philox4x64-10 of all-zero counter and key.
    out = np.concatenate(rng.philox4x64(np.zeros(4, dtype=np.uint64), (0, 0)))
    assert np.array_equal(out, _numpy_block((2**64 - 1,) * 4, (0, 0)))


def test_raw_words_packing():
    # words are philox blocks at counter (path, step, draw, block), block
    # running fastest; a 9-word request spans three blocks.
    seed, stream, path, step, draw = 5, 2, 11, 13, 17
    words = rng.raw_words(seed, stream, path, step, draw, 9)
    manual = []
    for block in range(3):
        c = np.array([path, step, draw, block], dtype=np.uint64)
        manual.extend(int(w) for w in np.concatenate(
            rng.philox4x64(c, (seed, stream))))
    assert [int(w) for w in words] == manual[:9]


def test_raw_words_frozen_values():
    words = rng.raw_words(42, 1, 3, 5, 7, 4)
    assert [int(w) for w in words] == [
        0x318CF7605156BEC2, 0xE70557FFB41B2C31,
        0x250709FEA4B279E9, 0x0103372560DB5AFA]


def test_uniforms_mapping_and_range():
    words = rng.raw_words(9, 4, 0, 0, 0, 1000)
    u = rng.uniforms(9, 4, 0, 0, 0, 1000)
    expect = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(u, expect)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_uniforms_frozen_values():
    assert_allclose(rng.uniforms(42, 1, 3, 5, 7, 4),
                    [0.19355722524172853, 0.9024252890850277,
                     0.1446386572540152, 0.003955313325474774],
                    rtol=0, atol=0)


def test_normals_are_inverse_cdf_of_uniforms():
    u = rng.uniforms(3, 1, 0, 2, 0, 256)
    z = rng.normals(3, 1, 0, 2, 0, 256)
    assert np.array_equal(z, ndtri(u))


def test_normals_frozen_values():
    assert_allclose(rng.normals(42, 1, 3, 5, 7, 4),
                    [-0.8648621568727297, 1.2954952995185953,
                     -1.0597083244353636, -2.6558607738953324],
                    rtol=0, atol=0)


def test_normals_sample_moments():
    n = 200_000
    z = rng.normals(123, 4, 0, 0, 0, n)
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    # symmetry of tails
    assert abs((z > 2.0).mean() - (z < -2.0).mean()) < 4.0 * np.sqrt(0.0228 / n)


def test_key_components_are_independent():
    base = (7, 1, 2, 3, 4)
    ref = rng.raw_words(*base, 8)
    for i in range(5):
        other = list(base)
        other[i] += 1
        alt = rng.raw_words(*other, 8)
        assert not np.array_equal(ref, alt)


def test_determinism_and_vectorized_paths():
    a = rng.raw_words(1, 2, 3, 4, 5, 12)
    b = rng.raw_words(1, 2, 3, 4, 5, 12)
    assert np.array_equal(a, b)
    paths = np.array([0, 1, 2])
    batch = rng.raw_words(1, 2, paths, 4, 5, 12)
    assert batch.shape == (3, 12)
    for i, p in enumerate(paths):
        assert np.array_equal(batch[i], rng.raw_words(1, 2, int(p), 4, 5, 12))


def test_counter_stream_cursor():
    s = rng.CounterStream(77, rng.STREAM_EM, path=5, step=0)
    first = s.normals(6)
    second = s.normals(6)
    assert np.array_equal(first, rng.normals(77, rng.STREAM_EM, 5, 0, 0, 6))
    assert np.array_equal(second, rng.normals(77, rng.STREAM_EM, 5, 1, 0, 6))
    s.jump_to(0)
    assert np.array_equal(s.normals(6), first)
    assert s.step == 1


def test_raw_words_rejects_empty_request():
    with pytest.raises(ValueError):
        rng.raw_words(0, 0, 0, 0, 0, 0)


# raw_words serves consecutive-path requests from numpy's C Philox; the
# emulation below, block by block through philox4x64, is the reference.
def _emulated_words(seed, stream, paths, step, draw, n_words):
    paths = np.asarray(paths, dtype=np.uint64)
    step = np.asarray(step, dtype=np.uint64)
    n_blocks = -(-n_words // 4)
    out = rng.philox4x64((paths[..., None], step[..., None], np.uint64(draw),
                          np.arange(n_blocks, dtype=np.uint64)), (seed, stream))
    shape = np.broadcast_shapes(paths.shape, step.shape)
    words = np.stack(out, axis=-1).reshape(shape + (4 * n_blocks,))
    return words[..., :n_words]


_WORD = st.integers(0, 2**64 - 1)


@st.composite
def _path_runs(draw):
    m = draw(st.integers(1, 40))
    p0 = draw(st.integers(0, 2**64 - m))
    n_words = draw(st.integers(1, 4 * m))
    return p0, m, n_words


@settings(max_examples=200, deadline=None)
@given(seed=_WORD, stream=_WORD, run=_path_runs(), step=_WORD, draw=_WORD)
# p0 = step = draw = 0: the start counter borrows through every word
@example(seed=3, stream=1, run=(0, 3, 10), step=0, draw=0)
@example(seed=2**63, stream=2**64 - 1, run=(0, 1, 4), step=0, draw=0)
# p0 + m = 2**64: the last path is the largest counter word
@example(seed=2**64 - 1, stream=2**63, run=(2**64 - 5, 5, 7), step=2**64 - 1,
         draw=2**64 - 1)
@example(seed=0, stream=0, run=(2**64 - 1, 1, 3), step=5, draw=0)
def test_path_runs_match_the_emulation(seed, stream, run, step, draw):
    p0, m, n_words = run
    paths = np.arange(m, dtype=np.uint64) + np.uint64(p0)
    assert rng._is_path_run(paths, -(-n_words // 4))
    expect = _emulated_words(seed, stream, paths, step, draw, n_words)
    words = rng.raw_words(seed, stream, paths, step, draw, n_words)
    assert words.shape == (m, n_words)
    assert np.array_equal(words, expect)
    # out= receives the same normals
    z = ndtri(((expect >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53)
    out = np.full((m, n_words), np.nan)
    assert rng.normals(seed, stream, paths, step, draw, n_words, out=out) is out
    assert np.array_equal(out, z)


def _forbid(monkeypatch, name):
    def fail(*args, **kwargs):
        raise AssertionError("%s must not serve this request" % name)
    monkeypatch.setattr(rng, name, fail)


def test_path_runs_and_scalar_keys_take_the_c_route(monkeypatch):
    expect_run = _emulated_words(8, 4, np.arange(2, 7), 9, 1, 13)
    expect_key = _emulated_words(8, 4, 2, 9, 1, 3)
    _forbid(monkeypatch, "philox4x64")
    assert np.array_equal(rng.raw_words(8, 4, np.arange(2, 7), 9, 1, 13), expect_run)
    assert np.array_equal(rng.raw_words(8, 4, 2, 9, 1, 3), expect_key)


@pytest.mark.parametrize("paths,step,n_words", [
    (np.array([4, 5, 7, 8]), 3, 6),            # not consecutive
    (np.array([9, 8, 7]), 3, 4),               # descending
    (np.array([3, 5, 4, 6]), 3, 4),            # spans m - 1, out of order
    (np.arange(6).reshape(2, 3), 3, 5),        # 2-d
    (np.arange(2), 3, 12),                     # more blocks than paths
    (7, 3, 9),                                 # one key, three blocks
    (np.arange(3), np.array([3, 4, 5]), 4),    # step array
    (np.array([2**64 - 1, 0], dtype=np.uint64), 3, 4),  # wraps past 2**64
])
def test_other_requests_stay_on_the_emulation(monkeypatch, paths, step, n_words):
    expect = _emulated_words(11, 6, paths, step, 2, n_words)
    _forbid(monkeypatch, "_path_run_words")
    assert np.array_equal(rng.raw_words(11, 6, paths, step, 2, n_words), expect)


def test_out_must_match_the_draws():
    with pytest.raises(ValueError, match="shape"):
        rng.normals(1, 2, np.arange(4), 0, 0, 3, out=np.empty((4, 2)))
    with pytest.raises(ValueError, match="shape"):
        rng.normals(1, 2, 0, 0, 0, 3, out=np.empty((1, 3)))
