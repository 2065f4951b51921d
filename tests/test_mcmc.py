"""Markov-chain estimates against the exact engine, balance, and determinism."""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from nlsurf import mcmc as nlmcmc
from nlsurf import rng as nlrng
from nlsurf.exact import CouplingField, gibbs_report
from nlsurf.lattice import Boundary, build_lattice
from nlsurf.mcmc import (
    BLOCK_SWEEPS,
    CHAIN_BATCH,
    CHAIN_ENGINE,
    McmcConfig,
    TwoLevelInner,
    blocked_estimate,
    colour_classes,
    run_chains,
)
from nlsurf.quenched import DisorderMC, Moments, Quadrature, combined_std_error, legendre_nodes_01
from nlsurf.surface import Geometry, SurfaceTermKind, _adjacency_setup, _interpolation_term, adjacency_term

from oracles import brute_gibbs


def test_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(sweeps=10, burn_in=10, seed=1)
    with pytest.raises(ValueError):
        McmcConfig(sweeps=4, burn_in=3, seed=1, measure_stride=5)  # one measurement
    for seed in (-1, 2**64):  # chain streams take unsigned 64-bit seeds
        with pytest.raises(ValueError):
            McmcConfig(sweeps=10, burn_in=2, seed=seed)


def test_zero_couplings():
    lat = build_lattice(2, 3, Boundary.PERIODIC)
    cfg = McmcConfig(sweeps=4000, burn_in=500, seed=3, measure_stride=1)
    series, _, flips, proposals = run_chains(lat, np.zeros((1, lat.n_bonds)), [cfg.seed], cfg, (0, 5))
    for col in range(2):  # bonds 0 and 5
        mean, se, _, ess = blocked_estimate(series[0, :, col])
        assert abs(mean) <= 3.0 * se + 1e-9
        assert ess <= cfg.n_measurements
    assert 0.0 <= flips[0] / proposals[0] <= 1.0


@pytest.mark.parametrize("dim,side,bc", [(2, 3, Boundary.PERIODIC), (2, 2, Boundary.FREE), (1, 6, Boundary.FREE)])
def test_matches_exact_engine(dim, side, bc):
    # covers both colourings: 3 classes (odd torus) and 2 sublattices
    lat = build_lattice(dim, side, bc)
    rng = np.random.default_rng(dim * 100 + side)
    K = rng.normal(0.25, 0.5, lat.n_bonds)
    bonds = tuple(range(lat.n_bonds))
    cfg = McmcConfig(sweeps=30_000, burn_in=2_000, seed=17, measure_stride=2)
    series, _, _, _ = run_chains(lat, K[None, :], [cfg.seed], cfg, bonds)
    exact = gibbs_report(lat, CouplingField(K), bonds=bonds)
    for b in bonds:
        mean, se, _, _ = blocked_estimate(series[0, :, b])
        assert abs(mean - exact.correlations[b]) <= 3.0 * se


def test_seed_determinism():
    lat = build_lattice(2, 3, Boundary.PERIODIC)
    K = np.full(lat.n_bonds, 0.3)
    cfg = McmcConfig(sweeps=2000, burn_in=200, seed=55, measure_stride=2)
    a, b = (run_chains(lat, K[None, :], [cfg.seed], cfg, (0, 1)) for _ in range(2))
    for x, y in zip(a, b):  # series, states (None), flips, proposals
        assert (x is None and y is None) or x.tobytes() == y.tobytes()


def test_stationary_distribution_2x2():
    # empirical state histogram vs exact Gibbs probabilities, 3 sigma per state
    lat = build_lattice(2, 2, Boundary.FREE)
    rng = np.random.default_rng(8)
    K = rng.normal(0.3, 0.4, lat.n_bonds)
    cfg = McmcConfig(sweeps=1_000_000, burn_in=2_000, seed=5, measure_stride=1)
    _, states, _, _ = run_chains(lat, K[None, :], [cfg.seed], cfg, (0,), record_states=True)
    states = states[0]
    counts = np.bincount(states, minlength=16)
    bonds = [(b.site_a, b.site_b) for b in lat.bonds]
    weights = np.empty(16)
    for s in range(16):
        spins = [1 - 2 * ((s >> i) & 1) for i in range(4)]
        weights[s] = math.exp(sum(k * spins[a] * spins[b] for (a, b), k in zip(bonds, K)))
    probs = weights / weights.sum()
    n = len(states)
    # chain samples are correlated; inflate the multinomial band by the
    # integrated autocorrelation time of the worst state indicator
    tau = max(blocked_estimate((states == s).astype(float))[2] for s in range(16))
    for s in range(16):
        sigma = math.sqrt(n * probs[s] * (1 - probs[s]) * 2.0 * tau)
        assert abs(counts[s] - n * probs[s]) <= 3.0 * sigma + 1.0


def _corridor_term(d, L, x, method, t_nodes, mcmc=None):
    """The integral route of the adjacency corridor; with mcmc, by the two-level estimator."""
    lattice, corridor = _adjacency_setup(d, L)
    geometry = Geometry(dim=d, L=L, k=None, corridor_size=corridor.cardinality)
    kind = SurfaceTermKind.ADJACENCY_TL
    return _interpolation_term(kind, geometry, lattice, corridor, x, method, t_nodes, "corridor", routes="integral", mcmc=mcmc)


def _check_two_level(d, with_quadrature):
    # one chain per (realization, t-node) against the exact inner engine on
    # the same disorder samples and, optionally, against quadrature: every
    # t-node and the t-integral within 3 combined std errors; a rerun is bit-equal
    method = DisorderMC(48, seed=9)
    cfg = McmcConfig(sweeps=8_000, burn_in=1_000, seed=9, measure_stride=2)
    two_level = _corridor_term(d, 2, 0.8, method, 2, cfg)
    refs = [_corridor_term(d, 2, 0.8, method, 2)]
    if with_quadrature:
        refs.append(_corridor_term(d, 2, 0.8, Quadrature(24), 2))
    for ref in refs:
        nodes = zip(two_level.integrand_tables["corridor"], ref.integrand_tables["corridor"], strict=True)
        for a, b in [*nodes, (two_level.integral, ref.integral)]:
            assert abs(a.value - b.value) <= 3.0 * combined_std_error(a, b)
    assert _corridor_term(d, 2, 0.8, method, 2, cfg) == two_level


def test_quenched_estimate_vs_exact_inner():
    # the 4x4 box: two-level against exact enumeration on the same disorder
    _check_two_level(2, with_quadrature=False)


def test_quenched_estimate_corridor_route():
    # the 4-site chain: two-level against enumeration and against quadrature
    _check_two_level(1, with_quadrature=True)


def test_diagnostics_types():
    lat = build_lattice(1, 4, Boundary.FREE)
    cfg = McmcConfig(sweeps=500, burn_in=100, seed=2)
    series, _, _, _ = run_chains(lat, np.full((1, 3), 0.4), [cfg.seed], cfg, (1,))
    assert series.shape == (1, cfg.n_measurements, 1)
    assert blocked_estimate(series[0, :, 0])[2] >= 0.5
    for kvecs in (np.full((2, 3), 0.4), np.full((1, 4), 0.4)):  # one row per seed, one column per bond
        with pytest.raises(ValueError):
            run_chains(lat, kvecs, [cfg.seed], cfg, (1,))


def test_starved_chain_is_flagged():
    from nlsurf.mcmc import PoorMixingWarning

    cfg = McmcConfig(sweeps=20, burn_in=4, seed=1, measure_stride=2)
    with pytest.warns(PoorMixingWarning):
        r = _corridor_term(1, 2, 0.8, DisorderMC(2, seed=1), 2, cfg)
    assert r.chain_telemetry["poor_mixing_warnings"] == 1


@pytest.mark.parametrize(
    "dim,side,bc,n_classes",
    [
        (2, 8, Boundary.FREE, 2),
        (2, 12, Boundary.FREE, 2),
        (3, 4, Boundary.FREE, 2),
        (1, 6, Boundary.FREE, 2),
        (2, 4, Boundary.PERIODIC, 2),
        (2, 6, Boundary.PERIODIC, 2),
        (2, 3, Boundary.PERIODIC, 3),
        (1, 5, Boundary.PERIODIC, 3),
    ],
)
def test_colour_classes(dim, side, bc, n_classes):
    lat = build_lattice(dim, side, bc)
    classes = colour_classes(lat)
    assert len(classes) == n_classes
    assert sorted(s for cls in classes for s in cls) == list(range(lat.n_sites))
    colour = {s: c for c, cls in enumerate(classes) for s in cls}
    assert all(colour[b.site_a] != colour[b.site_b] for b in lat.bonds)


@pytest.mark.filterwarnings("ignore::nlsurf.mcmc.PoorMixingWarning")
def test_batch_composition_independence():
    # a chain's kernel outputs are a function of its seed and couplings
    # only, whatever other chains share its batch
    lat = build_lattice(2, 3, Boundary.PERIODIC)
    cfg = McmcConfig(sweeps=300, burn_in=50, seed=0, measure_stride=1)
    kv = np.random.default_rng(3).normal(0.3, 0.5, (5, lat.n_bonds))
    seeds = [nlrng.derive_seed(9, c) for c in range(5)]

    def chain(out, c):  # (series, flips, proposals) bytes of chain c of one kernel call
        series, _, flips, proposals = out
        return series[c].tobytes(), flips[c].tobytes(), proposals[c].tobytes()

    batch = run_chains(lat, kv, seeds, cfg, (0, 7))
    sub = run_chains(lat, kv[3:], seeds[3:], cfg, (0, 7))
    for c, seed in enumerate(seeds):
        alone = chain(run_chains(lat, kv[c : c + 1], [seed], cfg, (0, 7)), 0)
        assert alone == chain(batch, c)
        if c >= 3:
            assert alone == chain(sub, c - 3)

    # chain (s, i) of the two-level adjacency call, run alone, reproduces its
    # row: the node estimates and the worst ESS and mean acceptance are bit-equal
    method, mcmc = DisorderMC(3, seed=4), McmcConfig(sweeps=120, burn_in=20, seed=11)
    r = adjacency_term(2, 3, 0.5, method, 2, mcmc)
    lattice, corridor = _adjacency_setup(2, 3)
    corr_idx = corridor.sorted_indices()
    tn, _ = legendre_nodes_01(2)
    alone = []  # (corridor mean, ESS, acceptance) per chain
    for s in range(method.samples):
        g = nlrng.standard_normals(method.seed, np.arange(lattice.n_bonds, dtype=np.uint64), s)
        for i, t in enumerate(tn):
            xt = np.full(lattice.n_bonds, 0.5)
            xt[list(corr_idx)] = 0.5 * math.sqrt(t)
            seed = nlrng.derive_seed(mcmc.seed, s, i)
            series, _, flips, proposals = run_chains(lattice, (xt * (xt + g))[None, :], [seed], mcmc, corr_idx)
            mean, _, _, ess = blocked_estimate(series[0].mean(axis=1))
            alone.append((mean, ess, float(flips[0] / max(proposals[0], 1))))
    values = np.array([a[0] for a in alone]).reshape(method.samples, 2)
    moments = Moments()
    moments.add(list(values.T), None)
    for point, node in zip(r.integrand_tables["corridor"], moments.estimates(), strict=True):
        assert (point.value, point.std_error) == (node.value, node.std_error)
    assert r.chain_telemetry["chains"] == len(alone)
    assert r.chain_telemetry["min_ess"] == min(a[1] for a in alone)
    assert r.chain_telemetry["mean_acceptance"] == float(np.mean([a[2] for a in alone]))


@pytest.mark.parametrize(
    "sweeps, chains",
    [(1500, 5), (BLOCK_SWEEPS - 4, 5), (300, 1)],
    ids=["partial-last-block", "one-block", "one-chain"],
)
def test_pipelined_draws_are_byte_identical(sweeps, chains):
    # workers=2 draws each block on a helper thread: the series, states, flips
    # and proposals are the bytes of the in-line draws, and no thread is left
    lat = build_lattice(2, 3, Boundary.PERIODIC)
    cfg = McmcConfig(sweeps=sweeps, burn_in=10, seed=0, measure_stride=3)
    kv = np.random.default_rng(5).normal(0.3, 0.5, (chains, lat.n_bonds))
    seeds = [nlrng.derive_seed(2, c) for c in range(chains)]
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        inline, ahead = [run_chains(lat, kv, seeds, cfg, (0, 4), record_states=True, workers=w) for w in (1, 2)]
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    for a, b in zip(inline, ahead, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_pipelined_draw_error_reaches_the_caller(monkeypatch):
    # an error on the helper thread is raised by run_chains, after the helper
    # has been joined; at one worker there is no helper
    lat = build_lattice(2, 2, Boundary.FREE)
    cfg = McmcConfig(sweeps=200, burn_in=10, seed=0)
    calls = []  # the thread of each block draw
    spawn = nlrng.spawn_generator

    class FailingStream:  # fails on the first draw of the second block
        def __init__(self, seed):
            self.g = spawn(seed)
            self.integers = self.g.integers

        def random(self, *args, **kwargs):
            calls.append(threading.current_thread())
            if len(calls) > 2:
                raise RuntimeError("draw failed")
            return self.g.random(*args, **kwargs)

    monkeypatch.setattr(nlrng, "spawn_generator", FailingStream)
    before = threading.active_count()
    for workers in (1, 2):
        calls.clear()
        with pytest.raises(RuntimeError, match="draw failed"):
            run_chains(lat, np.full((2, lat.n_bonds), 0.3), [1, 2], cfg, (0,), workers=workers)
        assert threading.active_count() == before
        # one worker draws in line, on the calling thread
        assert all((t is threading.main_thread()) == (workers == 1) for t in calls)


def test_one_helper_thread_per_chain_run(monkeypatch):
    # 200 sweeps are 7 blocks: at two workers every block is drawn on the same
    # helper thread, which is not the calling thread and is joined on return
    lat = build_lattice(2, 2, Boundary.FREE)
    cfg = McmcConfig(sweeps=200, burn_in=10, seed=0)
    calls = []  # the thread of each draw
    spawn = nlrng.spawn_generator

    class RecordingStream:
        def __init__(self, seed):
            self.g = spawn(seed)
            self.integers = self.g.integers

        def random(self, *args, **kwargs):
            calls.append(threading.current_thread())
            return self.g.random(*args, **kwargs)

    monkeypatch.setattr(nlrng, "spawn_generator", RecordingStream)
    before = threading.active_count()
    run_chains(lat, np.full((2, lat.n_bonds), 0.3), [1, 2], cfg, (0,), workers=2)
    assert len(calls) == 2 * 7
    assert len(set(calls)) == 1 and calls[0] is not threading.main_thread()
    assert threading.active_count() == before


def test_poor_mixing_warning_names_the_caller():
    from nlsurf.mcmc import PoorMixingWarning
    from nlsurf.surface import scaling_sweep

    cfg = McmcConfig(sweeps=20, burn_in=4, seed=1, measure_stride=2)
    with pytest.warns(PoorMixingWarning) as record:
        _corridor_term(1, 2, 0.8, DisorderMC(2, seed=1), 2, cfg)
    assert record[0].filename == __file__
    with pytest.warns(PoorMixingWarning) as record:
        scaling_sweep(2, 0.5, [4], method=DisorderMC(2, seed=3), t_nodes=2, mcmc=cfg)
    assert record[0].filename == __file__


def test_chain_kernel_bytes_pinned_to_engine_version():
    # the kernel's output bytes for fixed seeds and couplings; when this digest
    # moves on purpose, CHAIN_ENGINE must move with it
    digest = hashlib.sha256()
    cfg = McmcConfig(sweeps=200, burn_in=20, seed=0, measure_stride=3)
    for lat, n_classes in ((build_lattice(2, 3, Boundary.PERIODIC), 3), (build_lattice(2, 2, Boundary.FREE), 2)):
        assert len(colour_classes(lat)) == n_classes
        kvecs = np.stack([np.linspace(-0.4, 0.9, lat.n_bonds), np.linspace(0.7, -0.2, lat.n_bonds)])
        series, _, flips, proposals = run_chains(lat, kvecs, [101, 202], cfg, tuple(range(lat.n_bonds)))
        for a in (series, flips, proposals):
            digest.update(a.tobytes())
    assert (CHAIN_ENGINE, digest.hexdigest()[:16]) == ("metropolis-batched-4", "8e59a320c3399ccc")


@pytest.mark.filterwarnings("ignore::nlsurf.mcmc.PoorMixingWarning")
def test_two_level_bytes_pinned_to_engine_version():
    # the reduction after the kernel: the integral, every corridor node and the
    # chain telemetry of a fixed two-level term; when this digest moves on
    # purpose, CHAIN_ENGINE must move with it
    r = adjacency_term(2, 3, 0.5, DisorderMC(3, seed=4), 2, McmcConfig(sweeps=120, burn_in=20, seed=11))
    values = [r.integral.value, r.integral.std_error]
    values += [v for p in r.integrand_tables["corridor"] for v in (p.value, p.std_error)]
    values += [r.chain_telemetry[k] for k in ("chains", "site_sweeps", "min_ess", "mean_acceptance", "poor_mixing_warnings")]
    digest = hashlib.sha256(np.array(values, dtype=np.float64).tobytes()).hexdigest()[:16]
    assert (CHAIN_ENGINE, digest) == ("metropolis-batched-4", "f6d82ebb2997d3ea")


@pytest.mark.filterwarnings("ignore::nlsurf.mcmc.PoorMixingWarning")
def test_two_level_regrouped_calls_pinned_to_engine_version():
    # 100 realizations x 3 t-nodes = 300 chains on the 8x8 box: calls of whole
    # realizations (85 a call) do not cut them where CHAIN_BATCH would, so this
    # pins that the grouping of chains into kernel calls moves no byte
    r = adjacency_term(2, 4, 0.5, DisorderMC(100, seed=5), 3, McmcConfig(sweeps=6, burn_in=2, seed=7))
    values = [v for p in r.integrand_tables["corridor"] for v in (p.value, p.std_error)]
    values.append(r.chain_telemetry["chains"])
    digest = hashlib.sha256(np.array(values, dtype=np.float64).tobytes()).hexdigest()[:16]
    assert (CHAIN_ENGINE, r.chain_telemetry["chains"], digest) == ("metropolis-batched-4", 300, "a9183fe802501522")


@pytest.mark.filterwarnings("ignore::nlsurf.mcmc.PoorMixingWarning")
def test_two_level_reads_the_stream_a_chunk_at_a_time(monkeypatch):
    # the inner engine answers one chunk at a time: each kernel call takes
    # whole realizations of the chunk in hand, at most CHAIN_BATCH chains;
    # realization indices run on across chunks, so two chunks give the bytes of one
    lattice, corridor = _adjacency_setup(2, 2)
    x_at = [np.full(lattice.n_bonds, x) for x in (0.3, 0.5, 0.7)]
    cfg = McmcConfig(sweeps=4, burn_in=0, seed=3)
    bonds = np.arange(lattice.n_bonds)[:, None]
    drawn, calls = [], []  # chunks handed over so far; (chains, chunks handed over) per kernel call

    def chunked(sizes):
        inner, means, lo = TwoLevelInner(lattice, x_at, corridor=corridor, config=cfg), [], 0
        for n in sizes:
            drawn.append(n)
            means.append(inner.means(nlrng.standard_normals(1, bonds, np.arange(lo, lo + n)[None, :])))
            lo += n
        return np.concatenate(means, axis=1), inner.telemetry()

    kernel = nlmcmc.run_chains

    def counted(lattice, kvecs, seeds, *args, **kwargs):
        calls.append((len(seeds), len(drawn)))
        return kernel(lattice, kvecs, seeds, *args, **kwargs)

    monkeypatch.setattr(nlmcmc, "run_chains", counted)
    split, telemetry = chunked([100, 7])
    assert calls == [(255, 1), (45, 1), (21, 2)] and max(c for c, _ in calls) <= CHAIN_BATCH
    assert telemetry["chains"] == 321 and split.shape == (3, 107)
    drawn.clear()
    whole, _ = chunked([107])
    assert whole.tobytes() == split.tobytes()


def test_two_level_rejects_a_weighted_stream():
    # chains average realizations with equal weight; a quadrature stream is refused
    with pytest.raises(ValueError, match="unweighted"):
        _corridor_term(1, 2, 0.8, Quadrature(4), 2, McmcConfig(sweeps=20, burn_in=4, seed=1))
