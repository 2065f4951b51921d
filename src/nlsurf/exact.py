"""Exact Boltzmann-Gibbs computations at fixed disorder by full enumeration.

Three paths share the bond-spin conventions:

* `gibbs_report` and the single-quantity wrappers (`log_partition`,
  `bond_correlation`, `pair_correlation`, `corridor_average`) loop over the
  configurations of one coupling field in float64 with a streaming-max
  log-sum-exp.  This is the reference engine the tests compare against, and
  it serves public single-field callers such as `quenched.t_integrand`;
* `batch_gibbs` with precise=True runs `_batch_dense` in float64, vectorized
  over a batch of coupling fields: every quadrature grid goes through it;
* `batch_gibbs` with precise=False serves disorder Monte Carlo in float32.
  On bipartite lattices of 10 or more sites `_batch_decimated` sums one
  sublattice analytically, so only half the spins are enumerated; on
  non-bipartite or smaller lattices it runs `_batch_dense` in float32.

All exploit the global spin-flip symmetry: bond observables are invariant
under S -> -S, so configurations with the last spin fixed up are enumerated
and log Z picks up an extra ln 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lattice import Corridor, LatticeSpec
from .model import DisorderRealization, NishimoriParams

ENUMERATION_CAP = 24
_LN2 = math.log(2.0)
_F32_EXP_FLOOR = -80.0  # keeps float32 exp() out of the subnormal range
_CONFIG_CHUNK = 1 << 15
_ELEM_BUDGET = 1 << 24  # max scratch elements per inner block


class SizeCapExceeded(ValueError):
    """Lattice too large for exact enumeration."""

    def __init__(self, n_sites: int, cap: int):
        self.n_sites = n_sites
        self.cap = cap
        super().__init__(
            f"{n_sites} sites exceed the enumeration cap of {cap}; "
            "use the Markov-chain estimator (nlsurf.mcmc) for larger systems"
        )


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


def effective_couplings(params: NishimoriParams, disorder: DisorderRealization) -> CouplingField:
    if params.n_bonds != disorder.n_bonds:
        raise ValueError("params and disorder disagree on bond count")
    return CouplingField(K=params.x * disorder.j)


@dataclass(frozen=True)
class GibbsReport:
    log_z: float
    correlations: dict = field(default_factory=dict)


def _check_lattice_K(lattice: LatticeSpec, K: CouplingField, cap: int):
    if lattice.n_sites > cap:
        raise SizeCapExceeded(lattice.n_sites, cap)
    if K.n_bonds != lattice.n_bonds:
        raise ValueError(f"coupling field has {K.n_bonds} bonds, lattice {lattice.n_bonds}")


_endpoint_cache: dict = {}


def _endpoints(lattice: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    key = lattice.cache_key()
    if key not in _endpoint_cache:
        a = np.fromiter((b.site_a for b in lattice.bonds), dtype=np.int64, count=lattice.n_bonds)
        b = np.fromiter((b.site_b for b in lattice.bonds), dtype=np.int64, count=lattice.n_bonds)
        _endpoint_cache[key] = (a, b)
    return _endpoint_cache[key]


def _bond_spin_chunk(lattice: LatticeSpec, which: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """(hi-lo, len(which)) array of S_b = +-1 over halved configs [lo, hi)."""
    ea, eb = _endpoints(lattice)
    idx = np.arange(lo, hi, dtype=np.int64)[:, None]
    x = ((idx >> ea[which][None, :]) ^ (idx >> eb[which][None, :])) & 1
    return 1.0 - 2.0 * x.astype(np.float64)


def gibbs_report(
    lattice: LatticeSpec,
    K: CouplingField,
    *,
    bonds: tuple[int, ...] = (),
    pairs: tuple[tuple[int, int], ...] = (),
    cap: int = ENUMERATION_CAP,
) -> GibbsReport:
    """log Z and requested correlations from one sweep over all configurations."""
    _check_lattice_K(lattice, K, cap)
    for b in bonds:
        if not 0 <= b < lattice.n_bonds:
            raise ValueError(f"bond index {b} out of range")
    for b1, b2 in pairs:
        if b1 == b2:
            raise ValueError("pair correlation needs two distinct bonds")
        if not (0 <= b1 < lattice.n_bonds and 0 <= b2 < lattice.n_bonds):
            raise ValueError(f"pair ({b1}, {b2}) out of range")

    ea, eb = _endpoints(lattice)
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


def log_partition(lattice: LatticeSpec, K: CouplingField, cap: int = ENUMERATION_CAP) -> float:
    return gibbs_report(lattice, K, cap=cap).log_z


def bond_correlation(lattice: LatticeSpec, K: CouplingField, b: int, cap: int = ENUMERATION_CAP) -> float:
    return gibbs_report(lattice, K, bonds=(b,), cap=cap).correlations[b]


def pair_correlation(lattice: LatticeSpec, K: CouplingField, b1: int, b2: int, cap: int = ENUMERATION_CAP) -> float:
    return gibbs_report(lattice, K, pairs=((b1, b2),), cap=cap).correlations[(b1, b2)]


def corridor_average(lattice: LatticeSpec, K: CouplingField, corridor: Corridor, cap: int = ENUMERATION_CAP) -> float:
    if corridor.cardinality == 0:
        raise ValueError("corridor is empty")
    idx = corridor.sorted_indices()
    rep = gibbs_report(lattice, K, bonds=idx, cap=cap)
    return sum(rep.correlations[b] for b in idx) / len(idx)


# ---------------------------------------------------------------------------
# batch engine


@dataclass
class BatchGibbs:
    """Per-sample results for a batch of coupling fields on one lattice."""

    log_z: np.ndarray | None
    bond: dict
    pair: dict


_bipartite_cache: dict = {}


def bipartite_classes(lattice: LatticeSpec) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(enumerated sites, analytically summed sites) or None if not bipartite.

    Coloring is by coordinate parity; valid whenever every bond joins the two
    colors, which holds for all free boxes and for even-sided tori.
    """
    key = lattice.cache_key()
    if key in _bipartite_cache:
        return _bipartite_cache[key]
    parity = np.array([sum(lattice.site_coords(s)) % 2 for s in range(lattice.n_sites)])
    ok = all(parity[b.site_a] != parity[b.site_b] for b in lattice.bonds)
    result = None
    if ok:
        class0 = tuple(int(s) for s in np.flatnonzero(parity == 0))
        class1 = tuple(int(s) for s in np.flatnonzero(parity == 1))
        enum, analytic = (class1, class0) if len(class1) < len(class0) else (class0, class1)
        result = (enum, analytic)
    _bipartite_cache[key] = result
    return result


_decim_cache: dict = {}


def _decimation_tables(lattice: LatticeSpec):
    """Sign matrix and config bookkeeping for the half-lattice summation."""
    key = lattice.cache_key()
    if key in _decim_cache:
        return _decim_cache[key]
    enum, analytic = bipartite_classes(lattice)
    n_enum, n_analytic = len(enum), len(analytic)
    n_cfg = 1 << (n_enum - 1)  # first enumerated spin fixed to +1
    enum_pos = {s: i for i, s in enumerate(enum)}
    analytic_pos = {s: i for i, s in enumerate(analytic)}

    cfg = np.arange(n_cfg, dtype=np.int64)
    # spin of enum site i: bit (i-1) of cfg for i >= 1, +1 for i == 0
    s_enum = np.ones((n_cfg, n_enum), dtype=np.float32)
    for i in range(1, n_enum):
        s_enum[:, i] = 1.0 - 2.0 * ((cfg >> (i - 1)) & 1).astype(np.float32)

    W = np.zeros((lattice.n_bonds, n_cfg * n_analytic), dtype=np.float32)
    bond_apos = np.empty(lattice.n_bonds, dtype=np.int64)
    bond_epos = np.empty(lattice.n_bonds, dtype=np.int64)
    for b in lattice.bonds:
        if b.site_a in analytic_pos:
            a_pos, e_pos = analytic_pos[b.site_a], enum_pos[b.site_b]
        else:
            a_pos, e_pos = analytic_pos[b.site_b], enum_pos[b.site_a]
        bond_apos[b.index] = a_pos
        bond_epos[b.index] = e_pos
        W[b.index, a_pos::n_analytic] = s_enum[:, e_pos]
    tables = (W, s_enum, bond_apos, bond_epos, n_cfg, n_analytic)
    _decim_cache[key] = tables
    return tables


def _batch_decimated(lattice, K_batch, bonds, pairs, need_log_z):
    W, s_enum, bond_apos, bond_epos, n_cfg, n_analytic = _decimation_tables(lattice)
    G = K_batch.shape[0]
    out_log_z = np.empty(G) if need_log_z else None
    out_bond = {b: np.empty(G) for b in bonds}
    out_pair = {p: np.empty(G) for p in pairs}

    rows = max(16, _ELEM_BUDGET // (n_cfg * n_analytic))
    for lo in range(0, G, rows):
        hi = min(lo + rows, G)
        H = (K_batch[lo:hi].astype(np.float32) @ W).reshape(hi - lo, n_cfg, n_analytic)
        aH = np.abs(H)
        T = (aH + np.log1p(np.exp(-2.0 * aH))).sum(axis=2)  # sum_a ln(2 cosh h_a)
        m = T.max(axis=1)
        P = np.exp(np.maximum(T - m[:, None], _F32_EXP_FLOOR))
        Z = P.sum(axis=1, dtype=np.float64)
        if need_log_z:
            out_log_z[lo:hi] = _LN2 + m.astype(np.float64) + np.log(Z)
        tanh_cache: dict = {}

        def tanh_col(a_pos):
            if a_pos not in tanh_cache:
                tanh_cache[a_pos] = np.tanh(H[:, :, a_pos])
            return tanh_cache[a_pos]

        for b in bonds:
            v = tanh_col(bond_apos[b]) * s_enum[:, bond_epos[b]][None, :]
            out_bond[b][lo:hi] = (P * v).sum(axis=1, dtype=np.float64) / Z
        for b1, b2 in pairs:
            se = s_enum[:, bond_epos[b1]] * s_enum[:, bond_epos[b2]]
            if bond_apos[b1] == bond_apos[b2]:
                # shared analytic endpoint: S_a^2 = 1 drops out of the product
                num = (P * se[None, :]).sum(axis=1, dtype=np.float64)
            else:
                v = tanh_col(bond_apos[b1]) * tanh_col(bond_apos[b2]) * se[None, :]
                num = (P * v).sum(axis=1, dtype=np.float64)
            out_pair[(b1, b2)][lo:hi] = num / Z
    return BatchGibbs(log_z=out_log_z, bond=out_bond, pair=out_pair)


def _batch_dense(lattice, K_batch, bonds, pairs, need_log_z, dtype):
    ea, eb = _endpoints(lattice)
    G = K_batch.shape[0]
    n_half = 1 << (lattice.n_sites - 1)
    out_log_z = np.empty(G) if need_log_z else None
    out_bond = {b: np.empty(G) for b in bonds}
    out_pair = {p: np.empty(G) for p in pairs}

    cchunk = min(n_half, _CONFIG_CHUNK)
    rows = max(16, _ELEM_BUDGET // cchunk)
    floor = _F32_EXP_FLOOR if dtype == np.float32 else -700.0
    all_bonds = np.arange(lattice.n_bonds)
    for lo in range(0, G, rows):
        hi = min(lo + rows, G)
        Kc = np.ascontiguousarray(K_batch[lo:hi], dtype=dtype)
        m = np.full(hi - lo, -np.inf)
        zs = np.zeros(hi - lo)
        qs = {b: np.zeros(hi - lo) for b in bonds}
        ps = {p: np.zeros(hi - lo) for p in pairs}
        for clo in range(0, n_half, cchunk):
            chi = min(clo + cchunk, n_half)
            S = _bond_spin_chunk(lattice, all_bonds, clo, chi).astype(dtype)  # (C, B)
            U = Kc @ S.T
            mc = U.max(axis=1).astype(np.float64)
            newm = np.maximum(m, mc)
            scale = np.where(np.isfinite(m), np.exp(m - newm), 0.0)
            zs *= scale
            for d in (*qs.values(), *ps.values()):
                d *= scale
            w = np.exp(np.maximum(U - newm[:, None].astype(dtype), floor))
            zs += w.sum(axis=1, dtype=np.float64)
            for b in bonds:
                qs[b] += (w @ S[:, b]).astype(np.float64)
            for b1, b2 in pairs:
                ps[(b1, b2)] += (w @ (S[:, b1] * S[:, b2])).astype(np.float64)
            m = newm
        if need_log_z:
            out_log_z[lo:hi] = _LN2 + m + np.log(zs)
        for b in bonds:
            out_bond[b][lo:hi] = qs[b] / zs
        for p in pairs:
            out_pair[p][lo:hi] = ps[p] / zs
    return BatchGibbs(log_z=out_log_z, bond=out_bond, pair=out_pair)


def batch_gibbs(
    lattice: LatticeSpec,
    K_batch: np.ndarray,
    *,
    bonds: tuple[int, ...] = (),
    pairs: tuple[tuple[int, int], ...] = (),
    need_log_z: bool = False,
    precise: bool = True,
    cap: int = ENUMERATION_CAP,
) -> BatchGibbs:
    """Fixed-disorder quantities for a (samples, bonds) batch of couplings.

    precise=True runs the float64 dense engine (quadrature grids); otherwise
    a float32 engine is used, decimated over one sublattice when the lattice
    is bipartite.  The engine choice depends only on the lattice, never on
    the environment, so results are reproducible.
    """
    if lattice.n_sites > cap:
        raise SizeCapExceeded(lattice.n_sites, cap)
    K_batch = np.asarray(K_batch, dtype=np.float64)
    if K_batch.ndim != 2 or K_batch.shape[1] != lattice.n_bonds:
        raise ValueError(f"K_batch must have shape (samples, {lattice.n_bonds})")
    if precise:
        return _batch_dense(lattice, K_batch, tuple(bonds), tuple(pairs), need_log_z, np.float64)
    if bipartite_classes(lattice) is not None and lattice.n_sites >= 10:
        return _batch_decimated(lattice, K_batch, tuple(bonds), tuple(pairs), need_log_z)
    return _batch_dense(lattice, K_batch, tuple(bonds), tuple(pairs), need_log_z, np.float32)
