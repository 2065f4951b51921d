"""Metropolis single-flip sampling with replica exchange along a ladder in x.

For lattices beyond the enumeration cap the fixed-disorder expectations are
estimated by Markov chains.  One kernel advances a batch of independent
chains held as a (chains x replicas, sites) spin array.  Sites are split into
the classes of a greedy (DSatur) colouring, cached per lattice: same-colour
sites do not interact, so updating a whole class at once is a product of
single-flip Metropolis kernels.  Free boxes and even tori get their two
sublattices; the odd 3x3 torus gets 3 classes, where a per-site scan took 9
update groups.

Each site update reads one uniform u and flips iff u < 1/2 min(1, e^D), with
D the log weight change of the flip.  This is a proposal with probability 1/2
followed by the Metropolis test, folded into one draw: u < 1/2 is the
proposal, so acceptance diagnostics count flips per draw below 1/2.  Without
the thinning a deterministic scan at zero coupling would flip every spin in
lockstep and never decorrelate.  The ladder re-weights the coupling field by
x_r / x_target, and the exchange move swaps configurations between
neighboring rungs.

Every chain draws from its own Philox stream, `rng.spawn_generator(seed)`, in
blocks of BLOCK_SWEEPS sweeps with a fixed layout per sweep: one uniform per
(replica, site), then one per neighboring-rung exchange.  A chain's result is
therefore a function of its seed and couplings alone, whatever other chains
share its batch.

Error bars are blocked: the block length comes from the integrated
autocorrelation time of each measured series, unlike disorder averages where
realizations are independent.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .exact import CouplingField, _endpoints
from .lattice import Corridor, LatticeSpec
from .model import NishimoriParams, sample_disorder
from .quenched import DisorderMC, Estimate

MIN_INNER_ESS = 32  # two-level estimates are flagged below this
CHAIN_ENGINE = "metropolis-batched-2"  # recorded with results; changes whenever chain bytes do
BLOCK_SWEEPS = 32  # sweeps of uniforms drawn per stream call
CHAIN_BATCH = 256  # chains advanced together; bounds memory, not results


class PoorMixingWarning(UserWarning):
    """An inner chain's effective sample size fell below MIN_INNER_ESS."""


@dataclass(frozen=True)
class McmcConfig:
    sweeps: int
    burn_in: int
    seed: int
    x_ladder: tuple[float, ...] = (1.0,)
    replicas: int = 1
    measure_stride: int = 2

    def __post_init__(self):
        if not 0 <= self.burn_in < self.sweeps:
            raise ValueError("need 0 <= burn_in < sweeps")
        if self.measure_stride < 1:
            raise ValueError("measure_stride must be >= 1")
        if self.replicas != len(self.x_ladder):
            raise ValueError("replicas must equal the ladder length")
        if any(v <= 0 for v in self.x_ladder):
            raise ValueError("ladder entries must be positive")
        if list(self.x_ladder) != sorted(self.x_ladder):
            raise ValueError("ladder must be sorted ascending")
        if self.n_measurements < 2:
            raise ValueError("config yields fewer than 2 measurements")

    @property
    def n_measurements(self) -> int:
        return len(range(self.burn_in, self.sweeps, self.measure_stride))


@dataclass(frozen=True)
class ChainDiagnostics:
    acceptance: tuple[float, ...]
    exchange: tuple[float, ...]
    autocorr_time: float
    ess: float
    n_measurements: int


_nbr_cache: dict = {}


def _neighbor_tables(lattice: LatticeSpec):
    """Padded (site, bond) neighbor arrays; pad entries point at a zero coupling."""
    key = lattice.cache_key()
    if key in _nbr_cache:
        return _nbr_cache[key]
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(lattice.n_sites)]
    for b in lattice.bonds:
        nbrs[b.site_a].append((b.site_b, b.index))
        nbrs[b.site_b].append((b.site_a, b.index))
    deg = max(len(v) for v in nbrs)
    site = np.zeros((lattice.n_sites, deg), dtype=np.int64)
    bond = np.full((lattice.n_sites, deg), lattice.n_bonds, dtype=np.int64)
    for s, v in enumerate(nbrs):
        for d, (ns, nb) in enumerate(v):
            site[s, d] = ns
            bond[s, d] = nb
    _nbr_cache[key] = (site, bond)
    return site, bond


_colour_cache: dict = {}


def colour_classes(lattice: LatticeSpec) -> tuple[tuple[int, ...], ...]:
    """Sites split into independent sets by a greedy DSatur colouring.

    The next site coloured is the one whose neighbors already show the most
    distinct colours (ties: more neighbors, then lower index); it takes the
    smallest colour its neighbors lack.  DSatur is exact on bipartite graphs,
    so free boxes and even tori get two classes.  Cached per lattice.
    """
    key = lattice.cache_key()
    if key in _colour_cache:
        return _colour_cache[key]
    n = lattice.n_sites
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for b in lattice.bonds:
        nbrs[b.site_a].add(b.site_b)
        nbrs[b.site_b].add(b.site_a)
    colour = [-1] * n
    seen: list[set[int]] = [set() for _ in range(n)]  # colours among coloured neighbors
    heap = [(0, -len(nbrs[s]), s) for s in range(n)]
    heapq.heapify(heap)
    while heap:
        neg_sat, _, s = heapq.heappop(heap)
        if colour[s] >= 0 or -neg_sat != len(seen[s]):
            continue  # stale entry: coloured already, or saturation has grown
        c = 0
        while c in seen[s]:
            c += 1
        colour[s] = c
        for t in nbrs[s]:
            if colour[t] < 0 and c not in seen[t]:
                seen[t].add(c)
                heapq.heappush(heap, (-len(seen[t]), -len(nbrs[t]), t))
    classes = tuple(tuple(s for s in range(n) if colour[s] == c) for c in range(max(colour) + 1))
    _colour_cache[key] = classes
    return classes


def _tau_int(v: np.ndarray) -> float:
    """Integrated autocorrelation time with a self-consistent window."""
    n = len(v)
    c = v - v.mean()
    var = float(c @ c) / n
    if var == 0.0 or n < 4:
        return 0.5
    tau = 0.5
    for k in range(1, min(n // 4, 1024) + 1):
        rho = float(c[:-k] @ c[k:]) / ((n - k) * var)
        tau += rho
        if k >= 5.0 * tau:
            break
    return max(tau, 0.5)


def blocked_estimate(v: np.ndarray) -> tuple[float, float, float, float]:
    """(mean, blocked std error, tau_int, effective sample size)."""
    n = len(v)
    tau = _tau_int(v)
    block = min(max(1, math.ceil(2.0 * tau)), max(1, n // 2))
    nb = n // block
    bm = v[: nb * block].reshape(nb, block).mean(axis=1)
    se = float(bm.std(ddof=1) / math.sqrt(nb)) if nb >= 2 else float("nan")
    ess = min(float(n), n / (2.0 * tau))
    return float(v.mean()), se, tau, ess


def _run_chains(
    lattice: LatticeSpec,
    kvecs: np.ndarray,
    seeds,
    config: McmcConfig,
    track: tuple[int, ...],
    record_states: bool = False,
):
    """Advance one replica ladder per row of kvecs, chain c on stream seeds[c].

    Spins are stored with the colour classes contiguous, so each class update
    works on a slice.  Returns (bond series (C, measurements, len(track)),
    encoded target states (C, measurements) or None, flips (C, R), proposals
    (C, R), exchanges (C, R - 1), exchange tries).
    """
    C, R, n = len(seeds), config.replicas, lattice.n_sites
    lam = np.asarray(config.x_ladder) / config.x_ladder[-1]
    nbr_site, nbr_bond = _neighbor_tables(lattice)
    classes = colour_classes(lattice)
    perm = np.array([s for cls in classes for s in cls], dtype=np.int64)
    pos = np.argsort(perm)  # site -> column
    kpad = np.concatenate([kvecs, np.zeros((C, 1))], axis=1)
    krows = (lam[None, :, None] * kpad[:, None, :]).reshape(C * R, -1)
    updates = []  # (first column, end column, neighbor columns (deg, m), couplings (C R, deg, m))
    a = 0
    for cls in classes:
        idx = np.array(cls, dtype=np.int64)
        updates.append((a, a + len(cls), pos[nbr_site[idx].T], krows[:, nbr_bond[idx].T]))
        a += len(cls)
    ea, eb = _endpoints(lattice)
    ta, tb = pos[ea[list(track)]], pos[eb[list(track)]]
    ea_pos, eb_pos = pos[ea], pos[eb]
    k_energy = np.repeat(kvecs, R, axis=0)

    gens = [rng.spawn_generator(seed) for seed in seeds]
    S = np.stack([g.integers(0, 2, size=(R, n)) for g in gens]).reshape(C * R, n)[:, perm] * 2.0 - 1.0
    top = S[R - 1 :: R]  # measurement replicas; a view, since S is only updated in place

    n_meas = config.n_measurements
    series = np.empty((C, n_meas, len(track)))
    states = np.empty((C, n_meas), dtype=np.int64) if record_states else None
    pow2 = np.left_shift(1, perm) if record_states else None  # site bits of a state code
    flips = np.zeros((C * R, n), dtype=np.int64)
    proposals = np.zeros(C * R, dtype=np.int64)
    exchanges = np.zeros((C, R - 1), dtype=np.int64)
    width = R * n + R - 1
    mi = 0
    for start in range(0, config.sweeps, BLOCK_SWEEPS):
        nb = min(BLOCK_SWEEPS, config.sweeps - start)
        u = np.stack([g.random((nb, width)) for g in gens], axis=1)  # (sweep, chain, draw)
        us = u[:, :, : R * n].reshape(nb, C * R, n)[:, :, perm]
        proposed = us < 0.5
        proposals += proposed.sum(axis=(0, 2))
        # u < 1/2 min(1, e^D) with D = -2 s h  <=>  u < 1/2 and s h < -log(2u)/2
        with np.errstate(divide="ignore"):
            threshold = np.where(proposed, -0.5 * np.log(2.0 * us), -np.inf)
            log_ex = np.log(u[:, :, R * n :])
        snap = np.empty((nb, C, n))  # measured target-replica states of this block
        k = 0
        for j in range(nb):
            thr = threshold[j]
            for lo, hi, nbr, kc in updates:
                s = S[:, lo:hi]
                flip = s * (kc * S[:, nbr]).sum(axis=1) < thr[:, lo:hi]
                np.negative(s, out=s, where=flip)
                flips[:, lo:hi] += flip
            if R > 1:
                energy = ((S[:, ea_pos] * S[:, eb_pos]) * k_energy).sum(axis=1).reshape(C, R)
                for r in range(R - 1):
                    log_ratio = (lam[r] - lam[r + 1]) * (energy[:, r + 1] - energy[:, r])
                    hit = np.flatnonzero(log_ex[j, :, r] < log_ratio)
                    rows = hit * R + r
                    S[np.concatenate([rows, rows + 1])] = S[np.concatenate([rows + 1, rows])]
                    energy[hit, r], energy[hit, r + 1] = energy[hit, r + 1], energy[hit, r]
                    exchanges[hit, r] += 1
            sweep = start + j
            if sweep >= config.burn_in and (sweep - config.burn_in) % config.measure_stride == 0:
                snap[k] = top
                k += 1
        taken = snap[:k]
        series[:, mi : mi + k] = (taken[:, :, ta] * taken[:, :, tb]).transpose(1, 0, 2)
        if record_states:
            states[:, mi : mi + k] = ((taken < 0) * pow2).sum(axis=2).T
        mi += k
    return (
        series,
        states,
        flips.sum(axis=1).reshape(C, R),
        proposals.reshape(C, R),
        exchanges,
        config.sweeps if R > 1 else 0,
    )


def _run_chain(
    lattice: LatticeSpec,
    kvec: np.ndarray,
    config: McmcConfig,
    track: tuple[int, ...],
    record_states: bool = False,
):
    """One chain of the batched kernel on stream config.seed; returns (bond
    series, encoded target states, flips, proposals, exchanges, exchange tries)."""
    series, states, flips, proposals, exchanges, tries = _run_chains(
        lattice, np.asarray(kvec, dtype=np.float64)[None, :], [config.seed], config, track, record_states
    )
    return series[0], None if states is None else states[0], flips[0], proposals[0], exchanges[0], tries


def estimate_correlations_batch(
    lattice: LatticeSpec,
    kvecs: np.ndarray,
    seeds,
    *,
    bonds: tuple[int, ...] = (),
    corridor: Corridor | None = None,
    config: McmcConfig,
) -> list[tuple[dict, ChainDiagnostics]]:
    """estimate_correlations for many chains at once: row c of kvecs on seeds[c].

    Entry c is bit-identical to estimate_correlations(lattice, kvecs[c],
    config=replace(config, seed=seeds[c])), so results do not depend on how
    chains are batched; chains run CHAIN_BATCH at a time to bound memory.
    """
    kvecs = np.asarray(kvecs, dtype=np.float64)
    seeds = list(seeds)
    if kvecs.shape != (len(seeds), lattice.n_bonds):
        raise ValueError("coupling field does not match the lattice, or not one per chain seed")
    query = tuple(bonds)
    corr_idx: tuple[int, ...] = ()
    if corridor is not None:
        if corridor.cardinality == 0:
            raise ValueError("corridor is empty")
        corr_idx = corridor.sorted_indices()
    track = tuple(dict.fromkeys(query + corr_idx))
    if not track:
        raise ValueError("nothing to measure: pass bonds and/or a corridor")
    col = {b: i for i, b in enumerate(track)}
    corr_cols = [col[b] for b in corr_idx]
    n_meas = config.n_measurements
    n_sites, n_bonds = lattice.n_sites, lattice.n_bonds
    out = []
    for lo in range(0, len(seeds), CHAIN_BATCH):
        batch = seeds[lo : lo + CHAIN_BATCH]
        series, _, flips, proposals, exchanges, tries = _run_chains(lattice, kvecs[lo : lo + len(batch)], batch, config, track)
        for c, seed in enumerate(batch):
            method = replace(config, seed=seed)
            estimates: dict = {}
            taus = []
            for b in query:
                mean, se, tau, _ = blocked_estimate(series[c, :, col[b]])
                estimates[b] = Estimate(value=mean, std_error=se, method=method, n_bonds=n_bonds, n_sites=n_sites)
                taus.append(tau)
            main_tau, main_ess = 0.5, float(n_meas)
            if corr_cols:
                mean, se, main_tau, main_ess = blocked_estimate(series[c][:, corr_cols].mean(axis=1))
                estimates["corridor_mean"] = Estimate(value=mean, std_error=se, method=method, n_bonds=n_bonds, n_sites=n_sites)
            elif taus:
                main_tau = max(taus)
                main_ess = min(float(n_meas), n_meas / (2.0 * main_tau))
            diags = ChainDiagnostics(
                acceptance=tuple(flips[c] / np.maximum(proposals[c], 1)),
                exchange=tuple(exchanges[c] / tries) if tries else (),
                autocorr_time=main_tau,
                ess=main_ess,
                n_measurements=n_meas,
            )
            out.append((estimates, diags))
    return out


def estimate_correlations(
    lattice: LatticeSpec,
    K: CouplingField | np.ndarray,
    *,
    bonds: tuple[int, ...] = (),
    corridor: Corridor | None = None,
    config: McmcConfig,
) -> tuple[dict, ChainDiagnostics]:
    """Chain estimates of <S_b> (and the corridor average) at fixed disorder.

    Returns ({bond index or "corridor_mean": Estimate}, diagnostics).  The
    measurement replica is the top of the ladder, whose couplings are exactly
    K; deterministic given config.seed.
    """
    kvec = K.K if isinstance(K, CouplingField) else np.asarray(K, dtype=np.float64)
    return estimate_correlations_batch(lattice, kvec[None, :], [config.seed], bonds=bonds, corridor=corridor, config=config)[0]


def quenched_estimate_mcmc(
    lattice: LatticeSpec,
    params: NishimoriParams,
    *,
    corridor: Corridor | None = None,
    bond: int | None = None,
    outer_samples: int,
    config: McmcConfig,
    disorder_seed: int | None = None,
) -> Estimate:
    """Two-level estimator: disorder MC outside, one Markov chain inside.

    All realizations' chains run as one batch; chain s is keyed by
    derive_seed(config.seed, s).  The reported error is the spread of the
    per-realization chain estimates, which already carries the mean inner
    error on top of the disorder variance.
    """
    if (corridor is None) == (bond is None):
        raise ValueError("specify exactly one of corridor or bond")
    if outer_samples < 2:
        raise ValueError("need at least 2 outer samples")
    seed0 = config.seed if disorder_seed is None else disorder_seed
    kvecs = np.stack([params.x * sample_disorder(params, seed0, sample_index=s).j for s in range(outer_samples)])
    seeds = [rng.derive_seed(config.seed, s) for s in range(outer_samples)]
    if corridor is not None:
        chains = estimate_correlations_batch(lattice, kvecs, seeds, corridor=corridor, config=config)
        key = "corridor_mean"
    else:
        chains = estimate_correlations_batch(lattice, kvecs, seeds, bonds=(bond,), config=config)
        key = bond
    vals = np.array([est[key].value for est, _ in chains])
    min_ess = min(diag.ess for _, diag in chains)
    if min_ess < MIN_INNER_ESS:
        warnings.warn(
            f"inner chains reached an effective sample size of {min_ess:.0f} (< {MIN_INNER_ESS}); "
            "treat this estimate as under-resolved",
            PoorMixingWarning,
            stacklevel=2,
        )
    return Estimate(
        value=float(vals.mean()),
        std_error=float(vals.std(ddof=1) / math.sqrt(outer_samples)),
        method=DisorderMC(samples=outer_samples, seed=seed0),
        n_bonds=lattice.n_bonds,
        n_sites=lattice.n_sites,
    )
