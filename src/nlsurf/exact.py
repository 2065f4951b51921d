"""Exact Boltzmann-Gibbs computations at fixed disorder by full enumeration.

`enumerable` is the one size question: every module asks it before it draws
disorder, and a lattice beyond it raises `SizeCapExceeded`.  Two paths
share the bond-spin conventions:

* `gibbs_report` loops over the configurations of one coupling field in
  float64 with a streaming-max log-sum-exp, returning log Z and any
  requested bond and pair correlations.  This is the public single-field
  API and the reference engine the tests compare against;
* `batch_gibbs` is the one batch engine, vectorized over a batch of coupling
  fields: float64 for quadrature grids (precise=True), float32 for disorder
  Monte Carlo.  It enumerates every site outside an independent set A and
  sums the spins of A analytically: given the enumerated spins each s_a sees
  a local field h_a, contributes ln 2cosh h_a to the log weight, and averages
  to tanh h_a.  A is the largest class of `lattice.colour_classes` (on a tie
  the class without site 0) on lattices of 10 or more sites: one sublattice
  on bipartite lattices, one of three classes on odd rings, whose bonds
  between enumerated sites add K_b s s' to each configuration's energy.
  Site a only ever sees the few sign patterns of its neighbours, so ln 2cosh
  and tanh run once per pattern (64 fields on the 4x4 box, not 8 x 128);
  the energies are one product with the pattern indicator, and a bond with
  an analytic end is reduced over the pattern marginals of its own site.
  Below 10 sites A is empty and every site is enumerated, which keeps
  float32 connected correlations of tiny lattices at 0 where they vanish.
  Every lattice uses one layout: the couplings are bond-major (bonds, rows)
  and the energies configuration-major (n_cfg, rows), so the products, the
  max, exp and sums over the 2-2048 configurations run down contiguous rows.
  A batch whose row count is a multiple of 512 runs in cache-sized passes
  of row blocks with the bytes of one pass (see `batch_gibbs`); any other
  batch, and a 4096-row chunk on lattices of up to 16 configurations in
  float64 or 32 in float32, is one pass.

All exploit the global spin-flip symmetry: bond observables are invariant
under S -> -S, so configurations with one spin fixed up are enumerated and
log Z picks up an extra ln 2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import LatticeSpec, bond_endpoints, colour_classes

ENUMERATION_CAP = 24
_LN2 = math.log(2.0)
_EXP_FLOOR = -80.0  # keeps float32 exp() out of the subnormal range; e^-80 is far below float64 rounding
_CONFIG_CHUNK = 1 << 15
_ANALYTIC_MIN_SITES = 10  # smaller lattices enumerate every site
_PASS_BYTES = 1 << 19  # energy table per batch_gibbs pass: 512 KiB, a quarter of a 2 MiB L2
_PASS_ROWS = 512  # the fewest rows per pass (256 ran slower); only a multiple of it is split into passes
_BEYOND_CAP = "only the scaling sweep with an McmcConfig (CLI: scaling --method mc --mcmc-sweeps N) goes beyond it"


class SizeCapExceeded(ValueError):
    """Lattice too large for exact enumeration; remedy says what can go beyond it."""

    def __init__(self, n_sites: int, remedy: str = _BEYOND_CAP):
        self.n_sites = n_sites
        super().__init__(
            f"{n_sites} sites exceed the enumeration cap of {ENUMERATION_CAP}; exact enumeration needs {ENUMERATION_CAP} sites or fewer, and {remedy}"
        )


def enumerable(lattice: LatticeSpec) -> bool:
    """Whether exact enumeration covers the lattice: at most ENUMERATION_CAP sites."""
    return lattice.n_sites <= ENUMERATION_CAP


@dataclass(frozen=True)
class CouplingField:
    """Effective couplings K_b entering the potential sum_b K_b S_b."""

    K: np.ndarray

    def __post_init__(self):
        K = np.array(self.K, dtype=np.float64)
        if K.ndim != 1 or not np.all(np.isfinite(K)):
            raise ValueError("K must be a finite 1d array")
        K.setflags(write=False)
        object.__setattr__(self, "K", K)

    @property
    def n_bonds(self) -> int:
        return len(self.K)


@dataclass(frozen=True)
class GibbsReport:
    log_z: float
    correlations: dict = field(default_factory=dict)


def _check_lattice_K(lattice: LatticeSpec, K: CouplingField):
    if not enumerable(lattice):
        raise SizeCapExceeded(lattice.n_sites)
    if K.n_bonds != lattice.n_bonds:
        raise ValueError(f"coupling field has {K.n_bonds} bonds, lattice {lattice.n_bonds}")


def gibbs_report(
    lattice: LatticeSpec,
    K: CouplingField,
    *,
    bonds: tuple[int, ...] = (),
    pairs: tuple[tuple[int, int], ...] = (),
) -> GibbsReport:
    """log Z and requested correlations from one sweep over all configurations."""
    _check_lattice_K(lattice, K)
    _check_queries(lattice, bonds, pairs)

    ea, eb = bond_endpoints(lattice)
    kvec = K.K
    n_half = 1 << (lattice.n_sites - 1)
    nq = len(bonds) + len(pairs)
    m = -np.inf
    zsum = 0.0
    qsum = np.zeros(nq)
    for lo in range(0, n_half, _CONFIG_CHUNK):
        hi = min(lo + _CONFIG_CHUNK, n_half)
        idx = np.arange(lo, hi, dtype=np.int64)
        u = np.zeros(hi - lo)
        for b in range(lattice.n_bonds):
            if kvec[b] == 0.0:
                continue
            x = ((idx >> ea[b]) ^ (idx >> eb[b])) & 1
            u += kvec[b] * (1.0 - 2.0 * x)
        mc = float(u.max())
        if mc > m:
            scale = math.exp(m - mc) if np.isfinite(m) else 0.0
            zsum *= scale
            qsum *= scale
            m = mc
        w = np.exp(u - m)
        zsum += float(w.sum())
        for qi, b in enumerate(bonds):
            x = ((idx >> ea[b]) ^ (idx >> eb[b])) & 1
            qsum[qi] += float(w @ (1.0 - 2.0 * x))
        for qi, (b1, b2) in enumerate(pairs, start=len(bonds)):
            x = (((idx >> ea[b1]) ^ (idx >> eb[b1])) ^ ((idx >> ea[b2]) ^ (idx >> eb[b2]))) & 1
            qsum[qi] += float(w @ (1.0 - 2.0 * x))

    correlations: dict = {}
    for qi, b in enumerate(bonds):
        correlations[b] = qsum[qi] / zsum
    for qi, p in enumerate(pairs, start=len(bonds)):
        correlations[p] = qsum[qi] / zsum
    return GibbsReport(log_z=_LN2 + m + math.log(zsum), correlations=correlations)


# ---------------------------------------------------------------------------
# batch engine


@dataclass
class BatchGibbs:
    """Per-sample results for a batch of coupling fields on one lattice."""

    log_z: np.ndarray | None
    bond: dict
    pair: dict


def _analytic_sites(lattice: LatticeSpec) -> tuple[int, ...]:
    """The independent set A that `batch_gibbs` sums analytically."""
    if lattice.n_sites < _ANALYTIC_MIN_SITES:
        return ()
    return max(colour_classes(lattice), key=lambda c: (len(c), 0 not in c))


@functools.cache
def _engine_tables(lattice: LatticeSpec, dtype):
    """Spin and pattern tables of the batch engine, cached per lattice and dtype.

    The enumerated sites take the configurations of `n_cfg` bits, the first
    of them fixed up.  sign (bonds, n_cfg) is the product of a bond's
    enumerated end spins, and apos the position in A of its analytic end, -1
    if both ends are enumerated.  Each analytic site a owns one block of
    patterns, the distinct rows of its neighbours' enumerated spins, at
    columns start[a]:start[a + 1].  S_pat (bonds, P) holds each bond's
    enumerated end spin in every pattern of its analytic end, so K @ S_pat is
    the local field of every pattern; M (P, n_cfg) is the 0/1 indicator of
    the pattern each site shows in each configuration, and col (|A|, n_cfg)
    the column of that pattern.  lhs (n_cfg, P + inner bonds) is the product
    operand [M.T, sign.T of the bonds between enumerated sites] that turns
    the pattern terms and those couplings into configuration energies.
    """
    analytic = _analytic_sites(lattice)
    enum = tuple(s for s in range(lattice.n_sites) if s not in analytic)
    n_enum = len(enum)
    n_cfg = 1 << (n_enum - 1)
    enum_pos = {s: i for i, s in enumerate(enum)}
    analytic_pos = {s: i for i, s in enumerate(analytic)}

    cfg = np.arange(n_cfg, dtype=np.int64)
    # spin of enum site i: bit (i-1) of cfg for i >= 1, +1 for i == 0
    s_enum = np.ones((n_cfg, n_enum), dtype=dtype)
    for i in range(1, n_enum):
        s_enum[:, i] = 1.0 - 2.0 * ((cfg >> (i - 1)) & 1).astype(dtype)

    sign = np.empty((lattice.n_bonds, n_cfg), dtype=dtype)
    apos = np.full(lattice.n_bonds, -1, dtype=np.int64)
    own: list[list[int]] = [[] for _ in analytic]  # the bonds of each analytic site
    for b in lattice.bonds:
        a, e = (b.site_b, b.site_a) if b.site_b in analytic_pos else (b.site_a, b.site_b)
        if a in analytic_pos:
            apos[b.index] = analytic_pos[a]
            sign[b.index] = s_enum[:, enum_pos[e]]
            own[analytic_pos[a]].append(b.index)
        else:
            sign[b.index] = s_enum[:, enum_pos[a]] * s_enum[:, enum_pos[e]]

    start = [0]
    blocks, col = [], np.empty((len(analytic), n_cfg), dtype=np.int64)
    for i, bs in enumerate(own):
        patterns, which = np.unique(sign[bs].T, axis=0, return_inverse=True)
        blocks.append((bs, patterns.T))
        col[i] = start[-1] + which.reshape(-1)
        start.append(start[-1] + len(patterns))
    S_pat = np.zeros((lattice.n_bonds, start[-1]), dtype=dtype)
    for (bs, block), lo, hi in zip(blocks, start, start[1:]):
        S_pat[bs, lo:hi] = block
    M = np.zeros((start[-1], n_cfg), dtype=dtype)
    M[col, cfg] = 1.0
    lhs = np.concatenate([M.T, sign[apos < 0].T], axis=1)
    return sign, apos, S_pat, M, col, start, lhs


def _check_queries(lattice: LatticeSpec, bonds, pairs):
    for b in bonds:
        if not 0 <= b < lattice.n_bonds:
            raise ValueError(f"bond index {b} out of range")
    for b1, b2 in pairs:
        if b1 == b2:
            raise ValueError("pair correlation needs two distinct bonds")
        if not (0 <= b1 < lattice.n_bonds and 0 <= b2 < lattice.n_bonds):
            raise ValueError(f"pair ({b1}, {b2}) out of range")


def batch_gibbs(
    lattice: LatticeSpec,
    K_batch: np.ndarray,
    *,
    bonds: tuple[int, ...] = (),
    pairs: tuple[tuple[int, int], ...] = (),
    need_log_z: bool = False,
    precise: bool = True,
) -> BatchGibbs:
    """Fixed-disorder quantities for a (samples, bonds) batch of couplings.

    K_batch may come in either memory layout: callers holding bond-major
    couplings (bonds, samples) pass their transposed view, and len(K_batch)
    is the row count either way.  precise=True computes in float64
    (quadrature grids), otherwise in float32 (disorder Monte Carlo).  Which
    sites are summed analytically depends only on the lattice, never on the
    environment, so results are reproducible.

    Inside, the couplings are bond-major, K = K_batch.T made contiguous.
    ln 2cosh and tanh run once per pattern field Hp = S_pat.T @ K.  The
    weights are one configuration-major table, T = M.T @ ln 2cosh(Hp) plus
    K_b s s' of the bonds between enumerated sites, of shape (n_cfg, rows):
    the max, Z and every moment reduce over axis 0.  A bond with an analytic
    end a is reduced over a's pattern slice of Q = M @ P, so a row of any
    result does not depend on what else is requested.

    A batch of more than max(512, 2^19 / (n_cfg * itemsize)) rows whose row
    count is a multiple of 512 (every full 4096-row disorder chunk) runs in
    passes of that many rows, joined in row order.  A pass's table takes
    512 KiB where 512 rows allow it and 4-8 MiB at 2048 configurations,
    against 2-64 MiB for one pass over 4096 rows.  Every pass is a multiple
    of 512 rows wide, where the BLAS kernels and their thread splits run at
    full width, so the passes give the bytes of one pass over the batch.
    Any other batch runs as one pass: the last rows of a pass of another
    width come out of other BLAS edge kernels, and their last bits move.
    """
    if not enumerable(lattice):
        raise SizeCapExceeded(lattice.n_sites)
    K_batch = np.asarray(K_batch, dtype=np.float64)
    if K_batch.ndim != 2 or K_batch.shape[1] != lattice.n_bonds:
        raise ValueError(f"K_batch must have shape (samples, {lattice.n_bonds})")
    _check_queries(lattice, bonds, pairs)
    dtype = np.float64 if precise else np.float32
    tables = _engine_tables(lattice, dtype)
    lhs = tables[-1]  # (n_cfg, ...)
    step = max(_PASS_ROWS, _PASS_BYTES // (len(lhs) * lhs.itemsize))
    if len(K_batch) <= step or len(K_batch) % _PASS_ROWS:
        return _gibbs_pass(tables, K_batch, bonds, pairs, need_log_z, dtype)
    passes = [_gibbs_pass(tables, K_batch[lo : lo + step], bonds, pairs, need_log_z, dtype) for lo in range(0, len(K_batch), step)]
    return BatchGibbs(
        log_z=np.concatenate([g.log_z for g in passes]) if need_log_z else None,
        bond={b: np.concatenate([g.bond[b] for g in passes]) for b in bonds},
        pair={p: np.concatenate([g.pair[p] for g in passes]) for p in pairs},
    )


def _gibbs_pass(tables, K_batch, bonds, pairs, need_log_z, dtype) -> BatchGibbs:
    """One pass of `batch_gibbs` over all rows of a validated batch."""
    sign, apos, S_pat, M, col, start, lhs = tables
    inner = apos < 0  # bonds between two enumerated sites
    Kc = np.ascontiguousarray(K_batch.T, dtype=dtype)  # bond-major (bonds, rows)
    Hp = S_pat.T @ Kc  # pattern fields (n_pat, rows)
    aH = np.abs(Hp)
    # one product: sum_a ln(2 cosh h_a) through M, plus K_b s s' of the bonds between enumerated sites
    T = lhs @ np.concatenate([aH + np.log1p(np.exp(-2.0 * aH)), Kc[inner]])
    tH = np.tanh(Hp) if bonds or pairs else None
    m = T.max(axis=0)
    T -= m
    P = np.exp(np.maximum(T, _EXP_FLOOR, out=T), out=T)
    Z = P.sum(axis=0, dtype=np.float64)
    log_z = _LN2 + m.astype(np.float64) + np.log(Z) if need_log_z else None
    Q = M @ P if any(apos[b] >= 0 for b in bonds) else None
    P64 = None  # P in float64, cast on first use by a spins-only moment

    def moment(bs):
        """<prod_b S_b> over the bonds bs, with the spins of A averaged out."""
        nonlocal P64
        v = sign[list(bs)].prod(axis=0)
        ends = [a for a in apos[list(bs)] if a >= 0]
        if len(ends) == 2 and ends[0] == ends[1]:
            ends = []  # shared analytic end: S_a^2 = 1 drops out of the product
        if not ends:  # enumerated spins only: a vector-matrix product, summed in float64
            if P64 is None:
                P64 = P.astype(np.float64, copy=False)
            return v.astype(np.float64) @ P64 / Z
        w = v[:, None]
        for a in ends:
            w = tH[col[a]] * w
        return (P * w).sum(axis=0, dtype=np.float64) / Z

    bond = {}
    for b in bonds:
        a = apos[b]
        if a < 0:
            bond[b] = moment((b,))
        else:  # sum_p Q_p s_e(p) tanh Hp_p over a's own patterns
            sl = slice(start[a], start[a + 1])
            bond[b] = (Q[sl] * tH[sl] * S_pat[b, sl, None]).sum(axis=0, dtype=np.float64) / Z
    return BatchGibbs(log_z=log_z, bond=bond, pair={p: moment(p) for p in pairs})
