"""Exact engine against independent enumeration oracles and closed forms."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsurf.cli import RESULT_SCHEMA
from nlsurf.exact import (
    CouplingField,
    SizeCapExceeded,
    _engine_tables,
    _gibbs_pass,
    batch_gibbs,
    enumerable,
    gibbs_report,
)
from nlsurf.lattice import Boundary, build_lattice, colour_classes, decompose_box, torus_cut
from nlsurf.rng import standard_normals

from oracles import FROZEN, brute_gibbs, graycode_gibbs

LN2 = math.log(2.0)


def _bonds(lat):
    return [(b.site_a, b.site_b) for b in lat.bonds]


def test_free_spins():
    lat = build_lattice(2, 2, Boundary.FREE)
    assert gibbs_report(lat, CouplingField(np.zeros(4))).log_z == pytest.approx(4 * LN2, abs=1e-13)


def test_single_bond_closed_form():
    lat = build_lattice(1, 2, Boundary.FREE)
    K = CouplingField(np.array([0.5]))
    assert gibbs_report(lat, K).log_z == pytest.approx(math.log(4 * math.cosh(0.5)), abs=1e-13)
    assert gibbs_report(lat, K, bonds=(0,)).correlations[0] == pytest.approx(math.tanh(0.5), abs=1e-13)


def test_2x2_frozen_oracle():
    lat = build_lattice(2, 2, Boundary.FREE)
    K = CouplingField(np.array([0.3, -0.2, 0.7, 0.1]))
    assert gibbs_report(lat, K).log_z == pytest.approx(FROZEN["logz_2x2_mixed"], abs=1e-13)
    assert gibbs_report(lat, K, bonds=(0,)).correlations[0] == pytest.approx(FROZEN["corr_2x2_mixed_b0"], abs=1e-13)


def test_zero_couplings_correlations_vanish():
    lat = build_lattice(2, 3, Boundary.PERIODIC)
    K = CouplingField(np.zeros(lat.n_bonds))
    rep = gibbs_report(lat, K, bonds=tuple(range(lat.n_bonds)))
    assert all(abs(v) < 1e-14 for v in rep.correlations.values())


def test_tree_pair_factorizes():
    lat = build_lattice(1, 3, Boundary.FREE)
    K = CouplingField(np.array([0.8, -0.4]))
    got = gibbs_report(lat, K, pairs=((0, 1),)).correlations[(0, 1)]
    assert got == pytest.approx(math.tanh(0.8) * math.tanh(-0.4), abs=1e-13)


def test_plaquette_pair_frozen():
    lat = build_lattice(2, 2, Boundary.FREE)
    K = CouplingField(np.full(4, 0.5))
    corr = gibbs_report(lat, K, bonds=(0, 2), pairs=((0, 2),)).correlations
    pair = corr[(0, 2)]
    assert pair == pytest.approx(FROZEN["pair_2x2_half_02"], abs=1e-13)
    conn = pair - corr[0] * corr[2]
    assert conn == pytest.approx(FROZEN["conn_2x2_half_02"], abs=1e-13)
    assert conn > 0


def test_corridor_average_cases():
    lat = build_lattice(1, 4, Boundary.FREE)
    idx = decompose_box(lat).corridor.sorted_indices()
    assert idx == (1,)

    def corridor_mean(K):
        rep = gibbs_report(lat, K, bonds=idx)
        return sum(rep.correlations[b] for b in idx) / len(idx)

    K = CouplingField(np.array([0.4, 0.9, -0.3]))
    # open chain factorizes bond by bond, so the middle bond gives tanh(0.9)
    assert corridor_mean(K) == pytest.approx(math.tanh(0.9), abs=1e-13)
    assert corridor_mean(CouplingField(np.zeros(3))) == pytest.approx(0.0, abs=1e-14)
    single = gibbs_report(lat, K, bonds=(1,)).correlations[1]
    assert corridor_mean(K) == pytest.approx(single, abs=1e-15)


@pytest.mark.parametrize(
    "dim,side,bc",
    [(1, 4, Boundary.FREE), (2, 2, Boundary.FREE), (2, 3, Boundary.PERIODIC), (1, 5, Boundary.PERIODIC)],
)
def test_against_brute_force(dim, side, bc):
    rng = np.random.default_rng(abs(hash((dim, side, bc.value))) % 2**32)
    lat = build_lattice(dim, side, bc)
    K = rng.normal(0.0, 0.9, lat.n_bonds)
    queries = (0, lat.n_bonds - 1)
    pairs = ((0, 1),)
    want = brute_gibbs(lat.n_sites, _bonds(lat), K, queries=queries, pairs=pairs)
    rep = gibbs_report(lat, CouplingField(K), bonds=queries, pairs=pairs)
    assert rep.log_z == pytest.approx(want["log_z"], abs=1e-11)
    for q in queries:
        assert rep.correlations[q] == pytest.approx(want[("bond", q)], abs=1e-12)
    assert rep.correlations[(0, 1)] == pytest.approx(want[("pair", 0, 1)], abs=1e-12)


@pytest.mark.parametrize(
    "dim,side,bc",
    [(2, 3, Boundary.PERIODIC), (1, 6, Boundary.FREE), (2, 2, Boundary.FREE), (1, 12, Boundary.FREE)],
)
def test_graycode_oracle_matches(dim, side, bc):
    rng = np.random.default_rng(17)
    lat = build_lattice(dim, side, bc)
    K = rng.normal(0.0, 0.8, lat.n_bonds)
    assert gibbs_report(lat, CouplingField(K)).log_z == pytest.approx(
        graycode_gibbs(lat.n_sites, _bonds(lat), K), abs=1e-10
    )


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_gauge_covariance(data):
    lat = build_lattice(2, 2, Boundary.FREE)
    K = np.array([data.draw(st.floats(-2, 2)) for _ in range(4)])
    site = data.draw(st.integers(0, 3))
    flipped = K.copy()
    touched = []
    for b in lat.bonds:
        if site in (b.site_a, b.site_b):
            flipped[b.index] = -flipped[b.index]
            touched.append(b.index)
    rep0 = gibbs_report(lat, CouplingField(K), bonds=tuple(range(4)))
    rep1 = gibbs_report(lat, CouplingField(flipped), bonds=tuple(range(4)))
    assert rep1.log_z == pytest.approx(rep0.log_z, abs=1e-11)
    for b in range(4):
        sign = -1.0 if b in touched else 1.0
        assert rep1.correlations[b] == pytest.approx(sign * rep0.correlations[b], abs=1e-11)


def test_derivative_of_logz_is_correlation():
    rng = np.random.default_rng(23)
    for dim, side in [(2, 2), (1, 6)]:
        lat = build_lattice(dim, side, Boundary.FREE)
        K = rng.normal(0.3, 0.5, lat.n_bonds)
        h = 1e-5
        for b in (0, lat.n_bonds - 1):
            Kp, Km = K.copy(), K.copy()
            Kp[b] += h
            Km[b] -= h
            fd = (gibbs_report(lat, CouplingField(Kp)).log_z - gibbs_report(lat, CouplingField(Km)).log_z) / (2 * h)
            assert fd == pytest.approx(gibbs_report(lat, CouplingField(K), bonds=(b,)).correlations[b], abs=1e-8)


@settings(deadline=None, max_examples=20)
@given(st.lists(st.floats(-3, 3), min_size=4, max_size=4))
def test_logz_bounds(ks):
    lat = build_lattice(2, 2, Boundary.FREE)
    K = np.array(ks)
    lz = gibbs_report(lat, CouplingField(K)).log_z
    bound = np.abs(K).sum()
    assert lat.n_sites * LN2 - bound - 1e-10 <= lz <= lat.n_sites * LN2 + bound + 1e-10


def test_size_cap_error_mentions_mcmc():
    lat = build_lattice(2, 6, Boundary.FREE)
    with pytest.raises(SizeCapExceeded) as exc:
        gibbs_report(lat, CouplingField(np.zeros(lat.n_bonds)))
    assert "mcmc" in str(exc.value)


def test_enumerable_is_the_size_cap():
    assert enumerable(build_lattice(1, 24, Boundary.FREE)) and not enumerable(build_lattice(1, 25, Boundary.FREE))
    with pytest.raises(SizeCapExceeded) as exc:
        batch_gibbs(build_lattice(1, 25, Boundary.FREE), np.zeros((2, 24)))
    assert exc.value.n_sites == 25


def test_equal_lattices_share_their_tables():
    # separate but equal lattice objects key one entry of each per-lattice cache
    a, b = build_lattice(2, 2, Boundary.FREE), build_lattice(2, 2, Boundary.FREE)
    assert a is not b and a == b and hash(a) == hash(b)
    assert _engine_tables(a, np.float64) is _engine_tables(b, np.float64)
    assert colour_classes(a) is colour_classes(b)


def test_invalid_queries():
    lat = build_lattice(2, 2, Boundary.FREE)
    K = CouplingField(np.zeros(4))
    with pytest.raises(ValueError):
        gibbs_report(lat, K, bonds=(9,))
    with pytest.raises(ValueError):
        gibbs_report(lat, K, pairs=((1, 1),))
    with pytest.raises(ValueError):
        gibbs_report(lat, CouplingField(np.zeros(3)))


@pytest.mark.parametrize(
    "dim,side,bc",
    [(2, 4, Boundary.FREE), (2, 3, Boundary.PERIODIC), (2, 4, Boundary.PERIODIC), (1, 11, Boundary.PERIODIC), (1, 12, Boundary.FREE)],
)
def test_batch_engines_consistent(dim, side, bc):
    rng = np.random.default_rng(31)
    lat = build_lattice(dim, side, bc)
    KB = rng.normal(0.4, 0.7, size=(9, lat.n_bonds))
    bonds = (0, 1, lat.n_bonds - 1)
    pairs = ((0, 1), (0, lat.n_bonds - 1))
    ref = [gibbs_report(lat, CouplingField(k), bonds=bonds, pairs=pairs) for k in KB]
    for precise, tol in ((True, 1e-11), (False, 5e-6)):
        got = batch_gibbs(lat, KB, bonds=bonds, pairs=pairs, need_log_z=True, precise=precise)
        assert np.allclose(got.log_z, [r.log_z for r in ref], atol=tol)
        for b in bonds:
            assert np.allclose(got.bond[b], [r.correlations[b] for r in ref], atol=tol)
        for p in pairs:
            assert np.allclose(got.pair[p], [r.correlations[p] for r in ref], atol=tol)


@pytest.mark.parametrize(
    "dim,side,bc",
    [
        (2, 4, Boundary.FREE),
        (2, 4, Boundary.PERIODIC),
        (1, 11, Boundary.PERIODIC),
        (2, 2, Boundary.FREE),
        (2, 3, Boundary.PERIODIC),
        (1, 3, Boundary.FREE),
    ],
)
@pytest.mark.parametrize("precise", [True, False])
def test_batch_row_does_not_depend_on_request(dim, side, bc, precise):
    # quenched_joint_many enumerates a shared variant once for the union of its
    # jobs' requests, so each result must be the bytes of a lone request
    lat = build_lattice(dim, side, bc)
    KB = np.random.default_rng(41).normal(0.5, 0.9, size=(64, lat.n_bonds))
    every = tuple(range(lat.n_bonds))
    pairs = ((0, 1), (0, lat.n_bonds - 1))
    full = batch_gibbs(lat, KB, bonds=every, pairs=pairs, need_log_z=True, precise=precise)
    for b in every:
        assert batch_gibbs(lat, KB, bonds=(b,), precise=precise).bond[b].tobytes() == full.bond[b].tobytes()
    for p in pairs:
        assert batch_gibbs(lat, KB, pairs=(p,), precise=precise).pair[p].tobytes() == full.pair[p].tobytes()
    assert batch_gibbs(lat, KB, need_log_z=True, precise=precise).log_z.tobytes() == full.log_z.tobytes()


def test_pattern_count_4x4_box():
    # 8 analytic sites: two corners of degree 2, four edge sites of degree 3 and
    # two interior sites of degree 4 give 72 sign patterns, but the two edge
    # sites next to site 0 (fixed up) show only half of theirs: 64 distinct
    lat = build_lattice(2, 4, Boundary.FREE)
    sign, apos, S_pat, M, col, start, lhs = _engine_tables(lat, np.float64)
    assert M.shape == (64, 128) and S_pat.shape == (lat.n_bonds, 64)
    assert np.all(M.sum(axis=0) == 8) and np.all(M.sum(axis=1) >= 1)
    # bipartite: no bond joins two enumerated sites, so the product operand is M.T
    assert np.all(apos >= 0) and lhs.tobytes() == np.ascontiguousarray(M.T).tobytes()


_PINNED_ENGINES = pytest.mark.parametrize(
    "dim,side,bc,precise,corridor_only,pairs,rows,pinned",
    [
        (2, 4, Boundary.FREE, False, True, (), 512, "a5d82bedf017b356"),
        (2, 2, Boundary.FREE, True, False, ((0, 3),), 512, "3bcb8ebe79cb805b"),
        (2, 3, Boundary.PERIODIC, False, False, ((0, 17),), 512, "7cb11e183adb0b0f"),
        (1, 11, Boundary.PERIODIC, False, False, ((0, 1), (0, 10)), 512, "a1921d8d9cb5b315"),
        (2, 4, Boundary.PERIODIC, True, False, ((0, 1), (0, 31)), 512, "da7b0c8437098b8e"),
        (2, 4, Boundary.FREE, False, True, (), 4096, "5fead7a3c0917d47"),
        (1, 23, Boundary.PERIODIC, True, False, ((0, 1), (0, 22)), 4096, "9af270e873783730"),
    ],
    ids=["4x4-box-f32", "2x2-box-f64", "3x3-torus-f32", "11-ring-f32", "4x4-torus-f64", "4x4-box-f32-4096", "23-ring-f64-4096"],
)


def _pinned_batch(dim, side, bc, precise, corridor_only, pairs, rows, bond_major=False):
    """(outputs as bytes, digest) of the seeded batch of `rows` rows a pinned case runs."""
    lat = build_lattice(dim, side, bc)
    bonds = decompose_box(lat).corridor.sorted_indices() if corridor_only else tuple(range(lat.n_bonds))
    core = standard_normals(7, np.arange(lat.n_bonds)[None, :], np.arange(rows)[:, None])
    K = 0.8 * (0.8 + core)
    if bond_major:  # the same values, handed over as the transposed view of a (bonds, rows) array
        K = np.ascontiguousarray(K.T).T
        assert K.flags.f_contiguous and not K.flags.c_contiguous
    bg = batch_gibbs(lat, K, bonds=bonds, pairs=pairs, need_log_z=True, precise=precise)
    out = [bg.log_z.tobytes()] + [bg.bond[b].tobytes() for b in bonds] + [bg.pair[p].tobytes() for p in pairs]
    digest = hashlib.sha256()
    for chunk in out:
        digest.update(chunk)
    return out, digest.hexdigest()[:16]


@_PINNED_ENGINES
def test_engine_bytes_pinned_to_schema(dim, side, bc, precise, corridor_only, pairs, rows, pinned):
    # a seeded disorder-MC batch with log Z: the 4x4 box with its 8 corridor
    # bonds, the others with every bond and the listed pairs (the 2x2 box and
    # 3x3 torus enumerate every site; the odd rings have bonds between
    # enumerated sites and pairs with tanh ends); the 4096-row cases run in
    # 4 and 8 passes; when a digest moves on purpose, RESULT_SCHEMA moves with it
    _, digest = _pinned_batch(dim, side, bc, precise, corridor_only, pairs, rows)
    assert (RESULT_SCHEMA, digest) == ("nlsurf.result.v11", pinned)


@_PINNED_ENGINES
def test_engine_bytes_independent_of_coupling_layout(dim, side, bc, precise, corridor_only, pairs, rows, pinned):
    # C-ordered (rows, bonds) couplings and the transposed view of bond-major
    # ones, as the disorder passes hand them over, give the same bytes
    row_major, _ = _pinned_batch(dim, side, bc, precise, corridor_only, pairs, rows)
    bond_major, digest = _pinned_batch(dim, side, bc, precise, corridor_only, pairs, rows, bond_major=True)
    assert bond_major == row_major and digest == pinned


def _outputs(bg, bonds, pairs):
    return [bg.log_z] + [bg.bond[b] for b in bonds] + [bg.pair[p] for p in pairs]


@pytest.mark.parametrize(
    "dim,side,bc,precise",
    [
        (2, 4, Boundary.FREE, False),
        (2, 4, Boundary.FREE, True),
        (2, 4, Boundary.PERIODIC, True),
        (2, 3, Boundary.PERIODIC, False),
        (1, 23, Boundary.PERIODIC, True),
        (1, 24, Boundary.FREE, False),
    ],
    ids=["4x4-box-f32", "4x4-box-f64", "4x4-torus-f64", "3x3-torus-f32", "23-ring-f64", "24-chain-f32"],
)
def test_batch_passes_give_the_bytes_of_one_pass(dim, side, bc, precise):
    # a 4096-row chunk runs in passes of 512 (ring, chain, 3x3 torus, 4x4 in
    # float64) or 1024 rows (4x4 box in float32); every bond, a pair and log Z
    # equal one pass over the whole chunk and calls on slices cut at multiples
    # of 512 rows, byte for byte; a width that is not a multiple of 512 runs
    # as one pass
    lat = build_lattice(dim, side, bc)
    K = 0.8 * (0.8 + standard_normals(11, np.arange(lat.n_bonds)[None, :], np.arange(4096)[:, None]))
    bonds, pairs = tuple(range(lat.n_bonds)), ((0, lat.n_bonds - 1),)
    dtype = np.float64 if precise else np.float32
    tables = _engine_tables(lat, dtype)

    def run(rows):
        return _outputs(batch_gibbs(lat, rows, bonds=bonds, pairs=pairs, need_log_z=True, precise=precise), bonds, pairs)

    whole = run(K)
    one = _outputs(_gibbs_pass(tables, K, bonds, pairs, True, dtype), bonds, pairs)
    sliced = [run(K[lo:hi]) for lo, hi in ((0, 512), (512, 1536), (1536, 4096))]
    for i, w in enumerate(whole):
        assert w.tobytes() == one[i].tobytes() == np.concatenate([s[i] for s in sliced]).tobytes()
    odd = _outputs(_gibbs_pass(tables, K[:4059], bonds, pairs, True, dtype), bonds, pairs)
    assert [w.tobytes() for w in run(K[:4059])] == [w.tobytes() for w in odd]


def test_zero_row_batch_gives_empty_outputs():
    for lat in (build_lattice(1, 24, Boundary.FREE), build_lattice(2, 2, Boundary.FREE)):
        for precise in (True, False):
            bg = batch_gibbs(lat, np.zeros((0, lat.n_bonds)), bonds=(0, 1), pairs=((0, 1),), need_log_z=True, precise=precise)
            assert all(v.shape == (0,) and v.dtype == np.float64 for v in _outputs(bg, (0, 1), ((0, 1),)))


@pytest.mark.parametrize(
    "dim,side,bc,precise", [(1, 24, Boundary.FREE, False), (1, 23, Boundary.PERIODIC, True)], ids=["24-chain-f32", "23-ring-f64"]
)
def test_batch_peak_memory_is_cache_sized(dim, side, bc, precise):
    # live arrays of one 4096-row call with every bond and a pair: in one
    # pass the 2048-configuration tables held 99 MiB (24-chain, float32) and
    # 198 MiB (23-ring, float64); in passes of 512 rows they stay under 32 MiB
    lat = build_lattice(dim, side, bc)
    K = 0.8 * (0.8 + standard_normals(5, np.arange(lat.n_bonds)[None, :], np.arange(4096)[:, None]))
    request = dict(bonds=tuple(range(lat.n_bonds)), pairs=((0, lat.n_bonds - 1),), need_log_z=True, precise=precise)
    batch_gibbs(lat, K[:1], **request)  # the cached engine tables are built outside the measurement
    tracemalloc.start()
    try:
        batch_gibbs(lat, K, **request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
