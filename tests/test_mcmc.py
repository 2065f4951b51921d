"""Markov-chain estimates against the exact engine, balance, and determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nlsurf import rng as nlrng
from nlsurf.exact import CouplingField, gibbs_report
from nlsurf.lattice import Boundary, build_lattice, decompose_box
from nlsurf.mcmc import (
    ChainDiagnostics,
    McmcConfig,
    _run_chain,
    blocked_estimate,
    colour_classes,
    estimate_correlations,
    estimate_correlations_batch,
    quenched_estimate_mcmc,
)
from nlsurf.model import sample_disorder, uniform_params
from nlsurf.quenched import DisorderMC, Quadrature, combined_std_error, legendre_nodes_01, quenched_correlation
from nlsurf.surface import _adjacency_setup, _adjacency_term_mcmc

from oracles import brute_gibbs


def test_config_validation():
    with pytest.raises(ValueError):
        McmcConfig(sweeps=10, burn_in=10, seed=1)
    with pytest.raises(ValueError):
        McmcConfig(sweeps=100, burn_in=0, seed=1, x_ladder=(0.5, 1.0), replicas=1)
    with pytest.raises(ValueError):
        McmcConfig(sweeps=100, burn_in=0, seed=1, x_ladder=(1.0, 0.5), replicas=2)
    with pytest.raises(ValueError):
        McmcConfig(sweeps=4, burn_in=3, seed=1, measure_stride=5)  # one measurement


def test_zero_couplings():
    lat = build_lattice(2, 3, Boundary.PERIODIC)
    cfg = McmcConfig(sweeps=4000, burn_in=500, seed=3, measure_stride=1)
    est, diag = estimate_correlations(lat, np.zeros(lat.n_bonds), bonds=(0, 5), config=cfg)
    for b in (0, 5):
        assert abs(est[b].value) <= 3.0 * est[b].std_error + 1e-9
    assert all(0.0 <= a <= 1.0 for a in diag.acceptance)
    assert diag.ess <= diag.n_measurements


@pytest.mark.parametrize("dim,side,bc", [(2, 3, Boundary.PERIODIC), (2, 2, Boundary.FREE), (1, 6, Boundary.FREE)])
def test_matches_exact_engine(dim, side, bc):
    # covers both update schedules: sequential scan (odd torus) and checkerboard
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
    _, states, _, _, _, _ = _run_chain(lat, K, cfg, track=(0,), record_states=True)
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


def test_replica_exchange_preserves_marginals():
    lat = build_lattice(2, 2, Boundary.FREE)
    rng = np.random.default_rng(12)
    K = rng.normal(0.5, 0.5, lat.n_bonds)
    single = McmcConfig(sweeps=40_000, burn_in=2_000, seed=31, measure_stride=2)
    ladder = McmcConfig(
        sweeps=40_000, burn_in=2_000, seed=77, measure_stride=2, x_ladder=(0.4, 0.7, 1.0), replicas=3
    )
    a, _ = estimate_correlations(lat, K, bonds=(0,), config=single)
    b, diag = estimate_correlations(lat, K, bonds=(0,), config=ladder)
    assert abs(a[0].value - b[0].value) <= 3.0 * combined_std_error(a[0], b[0])
    assert len(diag.exchange) == 2
    assert all(0.0 < e <= 1.0 for e in diag.exchange)


def test_quenched_estimate_vs_exact_inner():
    lat = build_lattice(2, 2, Boundary.FREE)
    params = uniform_params(lat, 0.6)
    cfg = McmcConfig(sweeps=8_000, burn_in=1_000, seed=9, measure_stride=2)
    two_level = quenched_estimate_mcmc(lat, params, bond=0, outer_samples=48, config=cfg)
    exact_route = quenched_correlation(lat, params, [("bond", 0)], Quadrature(24))[("bond", 0)]
    assert abs(two_level.value - exact_route.value) <= 3.0 * combined_std_error(two_level, exact_route)
    again = quenched_estimate_mcmc(lat, params, bond=0, outer_samples=48, config=cfg)
    assert again.value == two_level.value


def test_quenched_estimate_corridor_route():
    lat = build_lattice(1, 4, Boundary.FREE)
    dec = decompose_box(lat)
    params = uniform_params(lat, 0.8)
    cfg = McmcConfig(sweeps=6_000, burn_in=500, seed=21, measure_stride=2)
    est = quenched_estimate_mcmc(lat, params, corridor=dec.corridor, outer_samples=40, config=cfg)
    oracle = quenched_correlation(lat, params, [("bond", 1)], Quadrature(32))[("bond", 1)]
    assert abs(est.value - oracle.value) <= 3.0 * combined_std_error(est, oracle)
    with pytest.raises(ValueError):
        quenched_estimate_mcmc(lat, params, outer_samples=4, config=cfg)


def test_diagnostics_types():
    lat = build_lattice(1, 4, Boundary.FREE)
    cfg = McmcConfig(sweeps=500, burn_in=100, seed=2)
    _, diag = estimate_correlations(lat, np.full(3, 0.4), bonds=(1,), config=cfg)
    assert isinstance(diag, ChainDiagnostics)
    assert diag.autocorr_time >= 0.5
    assert diag.n_measurements == cfg.n_measurements


def test_starved_chain_is_flagged():
    from nlsurf.mcmc import PoorMixingWarning
    from nlsurf.lattice import decompose_box

    lat = build_lattice(1, 4, Boundary.FREE)
    dec = decompose_box(lat)
    cfg = McmcConfig(sweeps=20, burn_in=4, seed=1, measure_stride=2)
    with pytest.warns(PoorMixingWarning):
        quenched_estimate_mcmc(lat, uniform_params(lat, 0.8), corridor=dec.corridor, outer_samples=2, config=cfg)


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
    ladder = McmcConfig(sweeps=300, burn_in=50, seed=0, x_ladder=(0.5, 1.0), replicas=2, measure_stride=1)
    kv = np.random.default_rng(3).normal(0.3, 0.5, (5, lat.n_bonds))
    seeds = [nlrng.derive_seed(9, c) for c in range(5)]
    batch = estimate_correlations_batch(lat, kv, seeds, bonds=(0, 7), config=ladder)
    assert estimate_correlations_batch(lat, kv[3:], seeds[3:], bonds=(0, 7), config=ladder) == batch[3:]
    for c, seed in enumerate(seeds):
        alone = estimate_correlations(lat, kv[c], bonds=(0, 7), config=replace(ladder, seed=seed))
        assert alone == batch[c]

    # chain (s, i) of the two-level adjacency call, run alone, reproduces its
    # row: the node means and the worst ESS and mean acceptance are bit-equal
    method, mcmc = DisorderMC(3, seed=4), McmcConfig(sweeps=120, burn_in=20, seed=11)
    r = _adjacency_term_mcmc(2, 3, 0.5, method, 2, mcmc)
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
    for i, point in enumerate(r.integrand_tables["corridor"]):
        assert point.value == float(values[:, i].mean())
    assert r.chain_telemetry["chains"] == len(alone)
    assert r.chain_telemetry["min_ess"] == min(d.ess for _, d in alone)
    assert r.chain_telemetry["mean_acceptance"] == float(np.mean([d.acceptance[-1] for _, d in alone]))
