"""Markov-chain estimates against the exact engine, balance, and determinism."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from nlsurf import rng as nlrng
from nlsurf.exact import CouplingField, gibbs_report
from nlsurf.lattice import Boundary, build_lattice
from nlsurf.mcmc import (
    CHAIN_ENGINE,
    ChainDiagnostics,
    McmcConfig,
    _run_chains,
    blocked_estimate,
    colour_classes,
    estimate_correlations,
    estimate_correlations_batch,
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
    est, diag = estimate_correlations(lat, np.zeros(lat.n_bonds), bonds=(0, 5), config=cfg)
    for b in (0, 5):
        assert abs(est[b].value) <= 3.0 * est[b].std_error + 1e-9
    assert 0.0 <= diag.acceptance <= 1.0
    assert diag.ess <= diag.n_measurements


@pytest.mark.parametrize("dim,side,bc", [(2, 3, Boundary.PERIODIC), (2, 2, Boundary.FREE), (1, 6, Boundary.FREE)])
def test_matches_exact_engine(dim, side, bc):
    # covers both colourings: 3 classes (odd torus) and 2 sublattices
    lat = build_lattice(dim, side, bc)
    rng = np.random.default_rng(dim * 100 + side)
    K = rng.normal(0.25, 0.5, lat.n_bonds)
    bonds = tuple(range(lat.n_bonds))
    cfg = McmcConfig(sweeps=30_000, burn_in=2_000, seed=17, measure_stride=2)
    est, _ = estimate_correlations(lat, K, bonds=bonds, config=cfg)
    exact = gibbs_report(lat, CouplingField(K), bonds=bonds)
    for b in bonds:
        assert abs(est[b].value - exact.correlations[b]) <= 3.0 * est[b].std_error


def test_seed_determinism():
    lat = build_lattice(2, 3, Boundary.PERIODIC)
    K = np.full(lat.n_bonds, 0.3)
    cfg = McmcConfig(sweeps=2000, burn_in=200, seed=55, measure_stride=2)
    a, da = estimate_correlations(lat, K, bonds=(0, 1), config=cfg)
    b, db = estimate_correlations(lat, K, bonds=(0, 1), config=cfg)
    assert a[0].value == b[0].value and a[1].std_error == b[1].std_error
    assert da == db


def test_stationary_distribution_2x2():
    # empirical state histogram vs exact Gibbs probabilities, 3 sigma per state
    lat = build_lattice(2, 2, Boundary.FREE)
    rng = np.random.default_rng(8)
    K = rng.normal(0.3, 0.4, lat.n_bonds)
    cfg = McmcConfig(sweeps=1_000_000, burn_in=2_000, seed=5, measure_stride=1)
    _, states, _, _ = _run_chains(lat, K[None, :], [cfg.seed], cfg, (0,), record_states=True)
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
    _, diag = estimate_correlations(lat, np.full(3, 0.4), bonds=(1,), config=cfg)
    assert isinstance(diag, ChainDiagnostics)
    assert diag.autocorr_time >= 0.5
    assert diag.n_measurements == cfg.n_measurements


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
    # a chain's estimates and diagnostics are a function of its seed and
    # couplings only, whatever other chains share its batch
    lat = build_lattice(2, 3, Boundary.PERIODIC)
    cfg = McmcConfig(sweeps=300, burn_in=50, seed=0, measure_stride=1)
    kv = np.random.default_rng(3).normal(0.3, 0.5, (5, lat.n_bonds))
    seeds = [nlrng.derive_seed(9, c) for c in range(5)]
    batch = estimate_correlations_batch(lat, kv, seeds, bonds=(0, 7), config=cfg)
    assert estimate_correlations_batch(lat, kv[3:], seeds[3:], bonds=(0, 7), config=cfg) == batch[3:]
    for c, seed in enumerate(seeds):
        alone = estimate_correlations(lat, kv[c], bonds=(0, 7), config=replace(cfg, seed=seed))
        assert alone == batch[c]

    # chain (s, i) of the two-level adjacency call, run alone, reproduces its
    # row: the node estimates and the worst ESS and mean acceptance are bit-equal
    method, mcmc = DisorderMC(3, seed=4), McmcConfig(sweeps=120, burn_in=20, seed=11)
    r = adjacency_term(2, 3, 0.5, method, 2, mcmc)
    lattice, corridor = _adjacency_setup(2, 3)
    corr_idx = list(corridor.sorted_indices())
    tn, _ = legendre_nodes_01(2)
    alone = []
    for s in range(method.samples):
        g = nlrng.standard_normals(method.seed, np.arange(lattice.n_bonds, dtype=np.uint64), s)
        for i, t in enumerate(tn):
            xt = np.full(lattice.n_bonds, 0.5)
            xt[corr_idx] = 0.5 * math.sqrt(t)
            cfg = replace(mcmc, seed=nlrng.derive_seed(mcmc.seed, s, i))
            alone.append(estimate_correlations(lattice, xt * (xt + g), corridor=corridor, config=cfg))
    values = np.array([est["corridor_mean"].value for est, _ in alone]).reshape(method.samples, 2)
    moments = Moments()
    moments.add(list(values.T), None)
    for point, node in zip(r.integrand_tables["corridor"], moments.estimates(), strict=True):
        assert (point.value, point.std_error) == (node.value, node.std_error)
    assert r.chain_telemetry["chains"] == len(alone)
    assert r.chain_telemetry["min_ess"] == min(d.ess for _, d in alone)
    assert r.chain_telemetry["mean_acceptance"] == float(np.mean([d.acceptance for _, d in alone]))


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
        series, _, flips, proposals = _run_chains(lat, kvecs, [101, 202], cfg, tuple(range(lat.n_bonds)))
        for a in (series, flips, proposals):
            digest.update(a.tobytes())
    assert (CHAIN_ENGINE, digest.hexdigest()[:16]) == ("metropolis-batched-3", "8e59a320c3399ccc")
