"""Metropolis single-flip sampling of fixed-disorder expectations.

The inner engine beside `exact` beyond the enumeration cap: expectations at
fixed couplings, estimated by Markov chains on the disorder stream the caller
hands in; it draws no disorder.  One kernel advances a batch of independent
chains held as a (chains, sites) spin array.  Sites are split into the
classes of a greedy (DSatur) colouring, `lattice.colour_classes`: same-colour
sites do not interact, so updating a whole class at once is a product of
single-flip Metropolis kernels.  Free boxes and even tori get their two
sublattices; odd tori such as the 3x3 get 3 classes.

Each site update reads one uniform u and flips iff u < 1/2 min(1, e^D), with
D the log weight change of the flip.  This is a proposal with probability 1/2
followed by the Metropolis test, folded into one draw: u < 1/2 is the
proposal, so acceptance diagnostics count flips per draw below 1/2.  Without
the thinning a deterministic scan at zero coupling would flip every spin in
lockstep and never decorrelate.

Every chain draws from its own Philox stream, `rng.spawn_generator(seed)`, in
blocks of BLOCK_SWEEPS sweeps with a fixed layout per sweep: one uniform per
site.  A chain's result is therefore a function of its seed and couplings
alone, whatever other chains share its batch.  When the process may run on
two or more CPUs and a kernel call spans two or more blocks, the process's
one helper thread (`exact._helper`) draws the next block's uniforms and
thresholds while the sweeps of this one run; the streams are read in the
same order, so the bytes do not change.  Otherwise they are drawn in line.

Error bars are blocked: the block length comes from the integrated
autocorrelation time of each measured series, unlike disorder averages where
realizations are independent.  `run_chains` (the kernel) and
`blocked_estimate` are composed by `TwoLevelInner`, the inner engine beyond
the enumeration cap, which answers one disorder chunk at a time.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng
from .exact import _cpus, _helper
from .lattice import Corridor, LatticeSpec, bond_endpoints, colour_classes
from .model import nishimori_couplings

MIN_INNER_ESS = 32  # two-level estimates are flagged below this
CHAIN_ENGINE = "metropolis-batched-4"  # recorded with two-level results; changes whenever their bytes do
BLOCK_SWEEPS = 32  # sweeps of uniforms drawn per stream call
CHAIN_BATCH = 256  # chains per kernel call, in whole realizations (at least one); bounds memory, not results


class PoorMixingWarning(UserWarning):
    """An inner chain's effective sample size fell below MIN_INNER_ESS."""


@dataclass(frozen=True)
class McmcConfig:
    sweeps: int
    burn_in: int
    seed: int
    measure_stride: int = 2

    def __post_init__(self):
        if not 0 <= self.burn_in < self.sweeps:
            raise ValueError("need 0 <= burn_in < sweeps")
        if self.measure_stride < 1:
            raise ValueError("measure_stride must be >= 1")
        if self.n_measurements < 2:
            raise ValueError("config yields fewer than 2 measurements")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")

    @property
    def n_measurements(self) -> int:
        return len(range(self.burn_in, self.sweeps, self.measure_stride))


def _outside_package_level() -> int:
    """warnings.warn stacklevel, for the function calling this one, that
    names the first stack frame outside the nlsurf package."""
    package = os.path.dirname(os.path.abspath(__file__))
    frame, level = sys._getframe(1), 1
    while frame is not None and os.path.dirname(os.path.abspath(frame.f_code.co_filename)) == package:
        frame, level = frame.f_back, level + 1
    return level


@functools.cache
def _neighbor_tables(lattice: LatticeSpec):
    """Padded (site, bond) neighbor arrays, cached per lattice; pad entries point at a zero coupling."""
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
    return site, bond


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


def _draw_threads(sweeps: int) -> int:
    """The threads a `run_chains` call of this many sweeps runs on: 2 when
    the process may run on two or more CPUs and the call spans two or more
    blocks, else 1.  The kernel runs no BLAS product, so no BLAS rule enters."""
    return 2 if sweeps > BLOCK_SWEEPS and _cpus() >= 2 else 1


def _ahead(fn, items):
    """map(fn, items), with fn of the next item computed on the process's one
    helper thread while the caller works on this one.  The calls run one at a
    time and in item order, so fn may read stateful generators; an error in
    fn is raised in the caller, and no call is left in flight when the
    iteration ends, raises or is closed."""
    helper, pending = _helper(), None  # the call in flight
    try:
        for item in items:
            if pending is None:
                pending = helper.submit(fn, item)
                continue
            value = pending.result()  # read before the next call is queued: one block in flight, none after an error
            pending = helper.submit(fn, item)
            yield value
        if pending is not None:
            yield pending.result()
    finally:
        if pending is not None:
            pending.exception()  # the join, also when the caller raised between two blocks


def run_chains(
    lattice: LatticeSpec,
    kvecs: np.ndarray,
    seeds,
    config: McmcConfig,
    track: tuple[int, ...],
    record_states: bool = False,
):
    """Advance one chain per row of kvecs, chain c on stream seeds[c].

    Spins are stored with the colour classes contiguous, so each class update
    works on a slice.  Each block of uniforms and thresholds is drawn one
    block ahead on the helper thread where _draw_threads allows, with the
    same bytes.  Returns (bond series (C, measurements, len(track)), encoded
    states (C, measurements) or None, flips (C,), proposals (C,)).
    """
    C, n = len(seeds), lattice.n_sites
    if np.shape(kvecs) != (C, lattice.n_bonds):
        raise ValueError("coupling field does not match the lattice, or not one per chain seed")
    nbr_site, nbr_bond = _neighbor_tables(lattice)
    classes = colour_classes(lattice)
    perm = np.array([s for cls in classes for s in cls], dtype=np.int64)
    pos = np.argsort(perm)  # site -> column
    kpad = np.concatenate([kvecs, np.zeros((C, 1))], axis=1)
    updates = []  # (first column, end column, neighbor columns (deg, m), couplings (C, deg, m))
    a = 0
    for cls in classes:
        idx = np.array(cls, dtype=np.int64)
        updates.append((a, a + len(cls), pos[nbr_site[idx].T], kpad[:, nbr_bond[idx].T]))
        a += len(cls)
    ea, eb = bond_endpoints(lattice)
    ta, tb = pos[ea[list(track)]], pos[eb[list(track)]]

    gens = [rng.spawn_generator(seed) for seed in seeds]
    S = np.stack([g.integers(0, 2, size=n) for g in gens])[:, perm] * 2.0 - 1.0

    n_meas = config.n_measurements
    series = np.empty((C, n_meas, len(track)))
    states = np.empty((C, n_meas), dtype=np.int64) if record_states else None
    pow2 = np.left_shift(1, perm) if record_states else None  # site bits of a state code
    flips = np.zeros((C, n), dtype=np.int64)
    proposals = np.zeros(C, dtype=np.int64)
    mi = 0

    def draw(start):  # one block's thresholds; numpy only, as it may run on a helper thread
        u = np.stack([g.random((min(BLOCK_SWEEPS, config.sweeps - start), n)) for g in gens], axis=1)[:, :, perm]
        proposed = u < 0.5  # (sweep, chain, column)
        # u < 1/2 min(1, e^D) with D = -2 s h  <=>  u < 1/2 and s h < -log(2u)/2; the thresholds
        # overwrite u: with a fresh array per step a 64-chain batch took about 3x the page faults
        with np.errstate(divide="ignore"):
            np.log(np.multiply(u, 2.0, out=u), out=u)
        np.multiply(u, -0.5, out=u)
        u[~proposed] = -np.inf
        return start, proposed.sum(axis=(0, 2)), u

    starts = range(0, config.sweeps, BLOCK_SWEEPS)
    for start, n_proposed, threshold in (_ahead if _draw_threads(config.sweeps) == 2 else map)(draw, starts):
        nb = len(threshold)
        proposals += n_proposed
        snap = np.empty((nb, C, n))  # measured states of this block
        k = 0
        for j in range(nb):
            thr = threshold[j]
            for lo, hi, nbr, kc in updates:
                s = S[:, lo:hi]
                flip = s * (kc * S[:, nbr]).sum(axis=1) < thr[:, lo:hi]
                np.negative(s, out=s, where=flip)
                flips[:, lo:hi] += flip
            sweep = start + j
            if sweep >= config.burn_in and (sweep - config.burn_in) % config.measure_stride == 0:
                snap[k] = S
                k += 1
        taken = snap[:k]
        series[:, mi : mi + k] = (taken[:, :, ta] * taken[:, :, tb]).transpose(1, 0, 2)
        if record_states:
            states[:, mi : mi + k] = ((taken < 0) * pow2).sum(axis=2).T
        mi += k
    return series, states, flips.sum(axis=1), proposals


class TwoLevelInner:
    """The inner engine of the two-level estimator, beside exact.batch_gibbs:
    one chain per (realization, variant) of each unweighted (bonds, rows) core
    chunk it is handed.  Realization s, counted across the chunks seen, runs
    variant i with couplings x (x + g), x = x_at[i], on stream
    rng.derive_seed(config.seed, s, i).  A kernel call takes max(1,
    CHAIN_BATCH // len(x_at)) whole realizations and is reduced to per-chain
    scalars before the next, which bounds memory, not results.
    """

    def __init__(self, lattice: LatticeSpec, x_at, *, corridor: Corridor, config: McmcConfig):
        self.lattice, self.x_at, self.track = lattice, np.asarray(x_at), corridor.sorted_indices()
        self.config = config
        self.realizations, self.chain_s = 0, 0.0
        self.ess, self.acceptance = [], []  # per chain, across chunks

    def means(self, core: np.ndarray) -> np.ndarray:
        """(variants, rows) chain means of the corridor average: blocked_estimate of each chain's series."""
        t0 = time.perf_counter()
        per_call = max(1, CHAIN_BATCH // len(self.x_at))  # realizations per kernel call
        values = []
        for lo in range(0, core.shape[1], per_call):
            K = nishimori_couplings(self.x_at, core[:, lo : lo + per_call])  # (variants, bonds, realizations)
            kvecs = K.transpose(2, 0, 1).reshape(-1, self.lattice.n_bonds)  # row s * len(x_at) + i
            s0 = self.realizations + lo  # stream index of the call's first realization
            seeds = [rng.derive_seed(self.config.seed, s0 + s, i) for s in range(K.shape[2]) for i in range(len(K))]
            series, _, flips, proposals = run_chains(self.lattice, kvecs, seeds, self.config, self.track)
            for c in range(len(seeds)):
                mean, _, _, chain_ess = blocked_estimate(series[c].mean(axis=1))
                values.append(mean)
                self.ess.append(chain_ess)
            self.acceptance += list(flips / np.maximum(proposals, 1))
        self.realizations += core.shape[1]
        self.chain_s += time.perf_counter() - t0
        return np.array(values).reshape(-1, len(self.x_at)).T

    def telemetry(self) -> dict:
        """After the last chunk: the chain telemetry for the manifest (count,
        site-sweeps, time in the chains, not the draws, threads, mean
        acceptance, worst ESS, warning count).  Warns PoorMixingWarning,
        attributed to the first caller outside this package, when the worst
        ESS falls below MIN_INNER_ESS."""
        min_ess = min(self.ess)
        poor = min_ess < MIN_INNER_ESS
        if poor:
            warnings.warn(
                f"inner chains reached an effective sample size of {min_ess:.0f} (< {MIN_INNER_ESS}); "
                "treat this estimate as under-resolved",
                PoorMixingWarning,
                stacklevel=_outside_package_level(),
            )
        site_sweeps = len(self.ess) * self.lattice.n_sites * self.config.sweeps
        return {
            "chains": len(self.ess),
            "site_sweeps": site_sweeps,
            "chain_s": self.chain_s,
            "ns_per_site_sweep": 1e9 * self.chain_s / site_sweeps,
            "threads": _draw_threads(self.config.sweeps),
            "mean_acceptance": float(np.mean(self.acceptance)),
            "min_ess": min_ess,
            "poor_mixing_warnings": int(poor),
        }
