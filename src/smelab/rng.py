"""Counter-based random numbers (Philox4x64-10) with named streams.

Every random quantity in this package is a pure function of a key tuple

    (seed, stream, path, step, draw, slot)

so that results are reproducible bit-for-bit regardless of execution order,
chunking, or thread count.  The generator is the standard Philox 4x64 bijection
with 10 rounds; the two 64-bit key words hold (seed, stream) and the four
counter words hold (path, step, draw, block).  Standard normals are produced by
the inverse-CDF transform (Cephes ndtri) applied to open-interval uniforms,
never by rejection or Box-Muller, so the draw count per key is fixed.

normals takes ndtri by one of two routes with the same bits: a scalar port of
Cephes ndtri (S. L. Moshier, 1989; its one step outside IEEE arithmetic is libm's
log, i.e. math.log) for a single key (scalar path and step) of at most _PORT_MAX
draws, the Haar fills and CounterStream steps, so bases, models, exact recursions
and closed forms import no scipy; and scipy.special.ndtri, the same routine as a
ufunc, about 100x faster per value on long inputs, for every other request.

raw_words computes the same words by one of two routes:

* numpy's C Philox (np.random.Philox, the same bijection) serves a request
  whose step is a scalar and whose path is a scalar or a 1-d run of
  consecutive integers p0, p0+1, ..., p0+m-1, provided p0 + m <= 2**64 (no
  carry reaches the step word) and the request spans at most m blocks of
  four words.  numpy adds one to its 256-bit counter, path word first,
  before each block, so a generator set to (p0, step, draw, b) - 1 emits
  block b of the m paths in order (each thread keeps one generator and
  re-positions it).
* the vectorised numpy emulation philox4x64 serves every other request:
  arbitrary path and step arrays, and single keys with many blocks (one
  generator per block would cost more than it saves there).  It is also the
  reference the tests hold the C route to.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# Philox 4x64 round multipliers and Weyl key increments (Random123 constants).
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK64 = (1 << 64) - 1
_MASK256 = (1 << 256) - 1
_ROUNDS = 10

_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_INV53 = 2.0 ** -53
_BELOW_ONE = 1.0 - _INV53

# Stream tags.  Each independent consumer of randomness gets its own stream so
# that counters never collide across uses of the same seed.
STREAM_GAMMA = 1   # per-iteration gradient noise draws in the discrete algorithms
STREAM_EM = 2      # Brownian increments in the Euler-Maruyama integrator
STREAM_SPD = 3     # Gaussian fill used to build random orthogonal bases
STREAM_MC = 4      # scratch Monte Carlo draws (covariance estimates, oracles)


def _mulhilo(a, b):
    """Full 64x64 -> 128 bit product of uint64 arrays, as (high, low) words."""
    lo = a * b  # wraps mod 2**64, which is exactly the low word
    ahi = a >> _S32
    alo = a & _M32
    bhi = b >> _S32
    blo = b & _M32
    x0 = alo * blo
    x1 = ahi * blo
    x2 = alo * bhi
    mid = (x0 >> _S32) + (x1 & _M32) + (x2 & _M32)
    hi = ahi * bhi + (x1 >> _S32) + (x2 >> _S32) + (mid >> _S32)
    return hi, lo


def philox4x64(counter, key):
    """Apply the Philox4x64-10 bijection.

    counter: sequence of four uint64 arrays (broadcast together); key: pair of
    python ints.  Returns four uint64 arrays of the broadcast shape.  Matches
    the Random123 / numpy reference outputs word for word.
    """
    c = [np.atleast_1d(np.asarray(w, dtype=np.uint64)) for w in counter]
    c0, c1, c2, c3 = np.broadcast_arrays(*c)
    k0 = int(key[0]) & _MASK64
    k1 = int(key[1]) & _MASK64
    m0 = np.uint64(_M0)
    m1 = np.uint64(_M1)
    for r in range(_ROUNDS):
        rk0 = np.uint64((k0 + r * _W0) & _MASK64)
        rk1 = np.uint64((k1 + r * _W1) & _MASK64)
        hi0, lo0 = _mulhilo(m0, c0)
        hi1, lo1 = _mulhilo(m1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ rk0, lo1, hi0 ^ c3 ^ rk1, lo0
    return c0, c1, c2, c3


def raw_words(seed, stream, path, step, draw, n_words):
    """n_words raw uint64 outputs for the given key tuple.

    path and step may be integer arrays (broadcast against each other); the
    result has shape broadcast(path, step).shape + (n_words,).
    """
    if n_words < 1:
        raise ValueError("n_words must be >= 1")
    n_blocks = -(-n_words // 4)
    path_dims, step_dims = np.ndim(path), np.ndim(step)
    scalar_key = path_dims == 0 and step_dims == 0
    path_run = path_dims <= 1 and step_dims == 0
    path = np.atleast_1d(np.asarray(path, dtype=np.uint64))
    step = np.atleast_1d(np.asarray(step, dtype=np.uint64))
    if path_run and _is_path_run(path, n_blocks):
        words = _path_run_words(seed, stream, int(path[0]), path.size, int(step[0]),
                                draw, n_words)
    else:
        base = np.broadcast(path, step)
        blocks = np.arange(n_blocks, dtype=np.uint64)
        c0 = path.reshape(path.shape + (1,))
        c1 = step.reshape(step.shape + (1,))
        c2 = np.uint64(int(draw) & _MASK64)
        out = philox4x64((c0, c1, c2, blocks), (seed, stream))
        words = np.stack(out, axis=-1).reshape(base.shape + (4 * n_blocks,))
        words = words[..., :n_words]
    return words[0] if scalar_key else words


def _is_path_run(path, n_blocks):
    """True when the 1-d uint64 path array suits the C route (module doc).

    Strictly increasing integers that span m - 1 are consecutive, which one
    comparison pass checks (np.diff == 1 takes two passes and two arrays).
    """
    m = path.size
    return (n_blocks <= m and int(path[0]) + m <= 1 << 64
            and int(path[-1]) - int(path[0]) == m - 1
            and bool(np.all(path[1:] > path[:-1])))


def _path_run_words(seed, stream, p0, m, step, draw, n_words):
    """(m, n_words) words of the consecutive paths p0, p0+1, ... from numpy's
    Philox, C-ordered.

    Block b of the m paths comes from a generator started at the 256-bit
    counter (p0, step, draw, b) - 1, with borrow across all four words; its
    4 m outputs are block b of each path in turn.
    """
    n_blocks = -(-n_words // 4)
    key = (int(seed) & _MASK64) | (int(stream) & _MASK64) << 64
    base = p0 | step << 64 | (int(draw) & _MASK64) << 128
    blocks = [_philox(((base | b << 192) - 1) & _MASK256, key).random_raw(4 * m)
              .reshape(m, 4) for b in range(n_blocks)]
    # one block needs no copy, which saves page-faulting a fresh array
    words = blocks[0] if n_blocks == 1 else np.concatenate(blocks, axis=1)
    if n_words == words.shape[1]:
        return words
    # the first n_words of each row, moved as one fixed-size item per row:
    # numpy copies a strided (m, n_words) view a short row at a time
    rows = np.ndarray((m,), np.dtype((np.void, 8 * n_words)), words,
                      strides=words.strides[:1])
    return np.ascontiguousarray(rows).view(np.uint64).reshape(m, n_words)


_LOCAL = threading.local()


def _philox(counter, key):
    """numpy's Philox at a 256-bit counter under a 128-bit key, about to
    compute a fresh block.  Each thread keeps one generator and sets its
    state, which costs about a fifth of making one (numpy's constructor
    also reads OS entropy for a seed that the key replaces)."""
    state = getattr(_LOCAL, "state", None)
    if state is None:
        _LOCAL.philox = np.random.Philox(0)
        state = _LOCAL.state = _LOCAL.philox.state
    state["state"]["counter"] = [counter >> s & _MASK64 for s in (0, 64, 128, 192)]
    state["state"]["key"] = [key & _MASK64, key >> 64]
    state["buffer_pos"] = 4
    _LOCAL.philox.state = state
    return _LOCAL.philox


def uniforms(seed, stream, path, step, draw, n, out=None):
    """n float64 uniforms on the open interval (0, 1) for the key tuple:
    (k + 1/2) 2**-53 of the top 53 bits k of each word, rounded to double.
    Below 2**52 that is the midpoint of k's cell; above, k + 1/2 rounds to
    the even one of k and k + 1, so the top k = 2**53 - 1 would give 1.0 and
    is mapped to 1 - 2**-53, the largest double below 1.

    out, when given, is a float64 array of the result's shape that receives
    the values (the same bits, with no temporaries); it is returned.
    """
    w = raw_words(seed, stream, path, step, draw, n)
    if out is None:
        out = np.empty(w.shape)
    elif out.shape != w.shape:
        raise ValueError("out has shape %s, the draws %s" % (out.shape, w.shape))
    np.copyto(out, w >> _S11)          # exact: the shifted words are below 2**53
    out += 0.5
    out *= _INV53
    return np.minimum(out, _BELOW_ONE, out=out)


def normals(seed, stream, path, step, draw, n, out=None):
    """n standard normal deviates for the key tuple (inverse-CDF transform);
    out as in uniforms; the scalar port or scipy's ufunc (module doc)."""
    u = uniforms(seed, stream, path, step, draw, n, out)
    if np.ndim(path) == 0 and np.ndim(step) == 0 and n <= _PORT_MAX:
        u[:] = list(map(_ndtri, u.tolist()))
        return u
    from scipy.special import ndtri
    return ndtri(u, out=u)


# Cephes ndtri's rational approximations, highest power first (leading 1s written out):
# P0/Q0 in (y - 1/2)^2 on the centre, P1/Q1 and P2/Q2 in 1/x, x = sqrt(-2 log y) < 8, >= 8.
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)
_EXP_M2, _S2PI = 0.13533528323661269189, 2.50662827463100050242    # exp(-2), sqrt(2 pi)
_PORT_MAX = 4096    # the d * d Haar fill at matkit.MAX_DIM


def _horner(x, coef):
    acc = 0.0
    for c in coef:
        acc = acc * x + c
    return acc


def _ndtri(y0):
    """Cephes ndtri at a float y0 in (0, 1], operation for operation."""
    if y0 == 1.0:       # as Cephes; uniforms stay below 1
        return math.inf
    upper = y0 > 1.0 - _EXP_M2
    y = 1.0 - y0 if upper else y0
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)
    x = x - math.log(x) / x - z * _horner(z, p) / _horner(z, q)
    return x if upper else -x


class CounterStream:
    """A positioned stream of standard-normal draws for one (seed, stream, path).

    Each call to normals(n) consumes one step of the counter, so interleaving
    callers cannot silently correlate: the k-th call always returns the same
    values for the same key, whatever happened in between.
    """

    def __init__(self, seed, stream=STREAM_GAMMA, path=0, step=0):
        self.seed = int(seed)
        self.stream = int(stream)
        self.path = int(path)
        self.step = int(step)

    def normals(self, n):
        z = normals(self.seed, self.stream, self.path, self.step, 0, n)
        self.step += 1
        return z

    def jump_to(self, step):
        self.step = int(step)
        return self

    def __repr__(self):
        return ("CounterStream(seed=%d, stream=%d, path=%d, step=%d)"
                % (self.seed, self.stream, self.path, self.step))
