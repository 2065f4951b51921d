"""Counter-based random streams for reproducible disorder sampling.

Every Gaussian draw is a pure function of (seed, bond index, sample index):
a Philox4x32-10 block keyed by the seed is evaluated at a counter built from
the two indices, and the 128-bit output is turned into one normal deviate by
Box-Muller.  Draws can therefore be generated in any order, in chunks of any
size, and on any number of workers with bit-identical results.
`standard_normals` uses that to evaluate a large draw in blocks of at most
`_BLOCK` = 2^14 counters.  A block runs the Philox rounds in place on four
(2, n) uint64 arrays (the state and two scratch buffers) and Box-Muller on
one (2, n) float64 array, about 1.25 MiB at 2^14 counters, so they stay in
a 2 MiB L2 cache however large the draw, and no round allocates.
"""

from __future__ import annotations

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_M = np.array([[_M0], [_M1]])  # multipliers of the state rows (c0, c2)
_W = np.array([[_W0], [_W1]])  # key increments of the rows (k0, k1)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_ROUNDS = 10
_R = np.arange(_ROUNDS, dtype=np.uint64)[:, None, None]  # round numbers
_BLOCK = 1 << 14  # counters per Philox evaluation in standard_normals: 1.25 MiB of buffers

# Stream tags keep draws for different purposes disjoint under one seed.
TAG_DISORDER = 1
TAG_SEED_DERIVE = 2


def philox4x32(c0, c1, c2, c3, k0, k1):
    """Philox4x32-10 block function, vectorized over counter arrays.

    All inputs hold 32-bit values in uint64 arrays (or scalars); returns the
    four 32-bit output words as uint64 arrays of the broadcast shape.  Each
    round allocates its results, which costs little on the scalars of seed
    derivation; `_rounds` is the same function in place, for draw blocks.
    """
    c0 = np.asarray(c0, dtype=np.uint64) & _MASK32
    c1 = np.asarray(c1, dtype=np.uint64) & _MASK32
    c2 = np.asarray(c2, dtype=np.uint64) & _MASK32
    c3 = np.asarray(c3, dtype=np.uint64) & _MASK32
    k0 = np.uint64(k0) & _MASK32
    k1 = np.uint64(k1) & _MASK32
    for _ in range(_ROUNDS):
        p0 = _M0 * c0
        p1 = _M1 * c2
        hi0 = p0 >> _SHIFT32
        lo0 = p0 & _MASK32
        hi1 = p1 >> _SHIFT32
        lo1 = p1 & _MASK32
        c0 = hi1 ^ c1 ^ k0
        c1 = lo1
        c2 = hi0 ^ c3 ^ k1
        c3 = lo0
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return c0, c1, c2, c3


def _rounds(x, y, k0, k1):
    """The ten Philox rounds in place on x = (c0, c2) and y = (c1, c3), each (2, n) uint64."""
    p = np.empty_like(x)
    h = np.empty_like(x)
    p_swap, h_swap = p[::-1], h[::-1]
    for k in (np.array([[k0], [k1]], dtype=np.uint64) + _R * _W) & _MASK32:  # the round keys
        np.multiply(x, _M, out=p)  # (M0 c0, M1 c2), exact in 64 bits
        np.right_shift(p, _SHIFT32, out=h)
        np.bitwise_xor(h_swap, y, out=x)  # c0 = hi1 ^ c1, c2 = hi0 ^ c3
        x ^= k
        np.bitwise_and(p_swap, _MASK32, out=y)  # c1 = lo1, c3 = lo0


def _key_words(seed: int, tag: int) -> tuple[np.uint64, np.uint64]:
    s = np.uint64(seed)
    k0 = s & _MASK32
    k1 = ((s >> _SHIFT32) ^ (np.uint64(tag) * _W0)) & _MASK32
    return k0, k1


def standard_normals(seed: int, index_a, index_b, tag: int = TAG_DISORDER) -> np.ndarray:
    """One standard normal per (index_a, index_b) pair, broadcast together.

    index_a is the bond index and index_b the realization index in disorder
    sampling; both may be arrays.  The value depends only on
    (seed, index_a, index_b, tag).  A draw of more than `_BLOCK` counters
    is evaluated in slices of the longest axis of the broadcast shape.
    """
    a = np.asarray(index_a, dtype=np.uint64)
    b = np.asarray(index_b, dtype=np.uint64)
    a, b = np.broadcast_arrays(a, b)
    k0, k1 = _key_words(seed, tag)
    if a.size <= _BLOCK:
        return _normals(a, b, k0, k1)
    axis = int(np.argmax(a.shape))
    step = max(1, _BLOCK * a.shape[axis] // a.size)
    out = np.empty(a.shape)
    for lo in range(0, a.shape[axis], step):
        sl = (slice(None),) * axis + (slice(lo, lo + step),)
        out[sl] = _normals(a[sl], b[sl], k0, k1)
    return out


def _normals(a, b, k0, k1):
    shape, n = a.shape, a.size
    x = np.empty((2, n), dtype=np.uint64)
    y = np.empty((2, n), dtype=np.uint64)
    np.bitwise_and(a, _MASK32, out=x[0].reshape(shape))
    np.right_shift(a, _SHIFT32, out=y[0].reshape(shape))
    np.bitwise_and(b, _MASK32, out=x[1].reshape(shape))
    np.right_shift(b, _SHIFT32, out=y[1].reshape(shape))
    _rounds(x, y, k0, k1)
    # 53 random bits of each word pair -> (0, 1), endpoints excluded so log() is safe
    x <<= _SHIFT32
    x |= y
    x >>= np.uint64(11)
    u = x.astype(np.float64)
    u += 0.5
    u *= 0.5**53
    # Box-Muller: sqrt(-2 log u1) cos(2 pi u2)
    np.log(u[0], out=u[0])
    u[0] *= -2.0
    np.sqrt(u[0], out=u[0])
    u[1] *= 2.0 * np.pi
    np.cos(u[1], out=u[1])
    return np.multiply(u[0].reshape(shape), u[1].reshape(shape))


def _derivation_words(seed: int, indices: tuple[int, ...]):
    if len(indices) > 3:
        raise ValueError("at most three derivation indices are supported")
    idx = list(indices) + [0] * (3 - len(indices))
    for i in idx:
        if not 0 <= i < 2**32:
            raise ValueError("derivation indices must fit in 32 bits")
    k0, k1 = _key_words(seed, TAG_SEED_DERIVE)
    return philox4x32(np.uint64(idx[0]), np.uint64(idx[1]), np.uint64(idx[2]), np.uint64(len(indices)), k0, k1)


def derive_seed(seed: int, *indices: int) -> int:
    """Derive a child 64-bit seed from a parent seed and up to three indices.

    Used to hand independent, reproducible streams to nested samplers
    (e.g. one Markov chain per disorder realization).
    """
    w0, w1, _, _ = _derivation_words(seed, indices)
    return int((w0 << _SHIFT32) | w1)


def spawn_generator(seed: int, *indices: int) -> np.random.Generator:
    """A numpy Generator on an independent Philox stream keyed by (seed, indices)."""
    w = _derivation_words(seed, indices)
    key = int(w[0]) | (int(w[1]) << 32) | (int(w[2]) << 64) | (int(w[3]) << 96)
    return np.random.Generator(np.random.Philox(key=key))
