"""Counter-based generator: reference vectors, stream statistics, determinism."""

import hashlib

import numpy as np
import pytest

from nlsurf.rng import TAG_DISORDER, _BLOCK, _key_words, _rounds, derive_seed, philox4x32, spawn_generator, standard_normals

# Published Philox4x32-10 reference vectors (counter, key, output words).
KAT = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


@pytest.mark.parametrize("ctr,key,expect", KAT)
def test_philox_known_answers(ctr, key, expect):
    got = tuple(int(w) for w in philox4x32(*ctr, *key))
    assert got == expect


@pytest.mark.parametrize("ctr,key,expect", KAT)
def test_block_rounds_known_answers(ctr, key, expect):
    # the in-place kernel of standard_normals, state x = (c0, c2), y = (c1, c3)
    x = np.array([[ctr[0]], [ctr[2]]], dtype=np.uint64)
    y = np.array([[ctr[1]], [ctr[3]]], dtype=np.uint64)
    _rounds(x, y, np.uint64(key[0]), np.uint64(key[1]))
    assert (x[0, 0], y[0, 0], x[1, 0], y[1, 0]) == expect


@pytest.mark.parametrize("key", [key for _, key, _ in KAT])
def test_philox_lanes_match_scalar_calls(key):
    # the three KAT counters as the lanes of one vectorized call
    words = np.array([ctr for ctr, _, _ in KAT], dtype=np.uint64).T
    lanes = np.stack(philox4x32(*words, *key))
    for j, (ctr, _, _) in enumerate(KAT):
        assert tuple(lanes[:, j]) == tuple(int(w) for w in philox4x32(*ctr, *key))
    # bits above 32 in the counter words and key are masked off
    high = words | (np.uint64(0xABCD) << np.uint64(32))
    hk = tuple(k | (0x1234 << 32) for k in key)
    assert np.array_equal(np.stack(philox4x32(*high, *hk)), lanes)


# sha256 prefixes of standard_normals(...).tobytes(); every disorder-MC
# result rests on these bytes, so they stay frozen
NORMAL_DIGESTS = [
    ((2024, np.arange(48)[:, None], np.arange(4096)[None, :]), "25404e02c2543e96"),
    (
        (2024, np.arange(3)[:, None], (2**32 - 8 + np.arange(2 * _BLOCK + 3, dtype=np.uint64))[None, :]),
        "26e0a21d76be8f3c",
    ),
    ((7, np.uint64(2**32 + 5), np.arange(100)), "321d40dd56e26327"),
    ((2**64 - 1, 3, 9), "191f8763da8a99a8"),
]


@pytest.mark.parametrize("args,digest", NORMAL_DIGESTS, ids=["48x4096", "samples-past-2^32", "bond-past-2^32", "0-d"])
def test_normals_bytes_frozen(args, digest):
    got = standard_normals(*args)
    assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("samples", [100, 3 * _BLOCK + 1], ids=["one-block", "blocked"])
def test_normals_return_fresh_arrays(samples):
    # callers keep each chunk's core, so no kernel buffer may reach the output
    a = standard_normals(3, np.arange(4)[:, None], np.arange(samples)[None, :])
    b = standard_normals(3, np.arange(4)[:, None], np.arange(samples)[None, :])
    assert not np.shares_memory(a, b)
    for z in (a, b):
        assert z.flags.c_contiguous and z.flags.writeable


def test_normals_deterministic_and_order_free():
    bonds = np.arange(17)
    a = standard_normals(99, bonds, 4)
    b = standard_normals(99, bonds, 4)
    assert np.array_equal(a, b)
    # each (bond, sample) value is independent of how the batch is laid out
    singles = np.array([standard_normals(99, b_, 4) for b_ in bonds])
    assert np.array_equal(a, singles)


def _unblocked(seed, index_a, index_b):
    """The normals of `standard_normals` from one Philox evaluation of the whole broadcast array."""
    a, b = np.broadcast_arrays(np.asarray(index_a, dtype=np.uint64), np.asarray(index_b, dtype=np.uint64))
    lo32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    w0, w1, w2, w3 = philox4x32(a & lo32, a >> s32, b & lo32, b >> s32, *_key_words(seed, TAG_DISORDER))
    u1, u2 = (((((hi << s32) | lo) >> np.uint64(11)).astype(np.float64) + 0.5) * 0.5**53 for hi, lo in ((w0, w1), (w2, w3)))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@pytest.mark.parametrize(
    "index_a,index_b",
    [
        (np.arange(48)[:, None], np.arange(4096)[None, :]),
        (5, np.arange(3 * _BLOCK + 1)[None, :]),
        (5, np.arange(3 * _BLOCK + 7)[:, None]),
        (np.arange(3)[:, None], (2**32 - 8 + np.arange(2 * _BLOCK + 3, dtype=np.uint64))[None, :]),
        (np.arange(48)[:, None], np.arange(0)[None, :]),
    ],
    ids=["48x4096", "1x3-blocks-and-1", "long-first-axis", "samples-past-2^32", "zero-samples"],
)
def test_normals_blocks_match_one_evaluation(index_a, index_b):
    # draws above _BLOCK counters are evaluated in slices of their longest
    # axis; the bytes are those of one evaluation of the whole array
    got = standard_normals(2024, index_a, index_b)
    want = _unblocked(2024, index_a, index_b)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_normals_depend_on_all_indices():
    assert standard_normals(1, 0, 0) != standard_normals(2, 0, 0)
    assert standard_normals(1, 0, 0) != standard_normals(1, 1, 0)
    assert standard_normals(1, 0, 0) != standard_normals(1, 0, 1)


def test_normals_mean_zero():
    # fixed bond, 1e5 realizations: mean within 4/sqrt(1e5) of 0
    z = standard_normals(31415, 0, np.arange(100_000))
    assert abs(z.mean()) <= 4.0 / np.sqrt(100_000)


def test_normals_mean_and_variance_shifted():
    # law-of-large-numbers check at mean 2: j = 2 + g over 1e5 realizations
    g = standard_normals(2718, 3, np.arange(100_000))
    j = 2.0 + g
    assert abs(j.mean() - 2.0) <= 4.0 / np.sqrt(100_000)
    assert abs(j.var() - 1.0) <= 0.05


def test_derive_seed_distinct_and_stable():
    seeds = {derive_seed(7, i, j) for i in range(8) for j in range(8)}
    assert len(seeds) == 64
    assert derive_seed(7, 3, 5) == derive_seed(7, 3, 5)
    with pytest.raises(ValueError):
        derive_seed(7, 1, 2, 3, 4)


def test_spawn_generator_reproducible():
    a = spawn_generator(5, 2).random(10)
    b = spawn_generator(5, 2).random(10)
    c = spawn_generator(5, 3).random(10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
