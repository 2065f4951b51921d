"""The three surface terms, each by direct pressure difference and by its
integral representation along the interpolation path.

Every term is an instance of one primitive: pick a corridor, scale its x_b by
sqrt(t), and either difference the endpoint pressures (t=1 minus t=0) or
integrate the quenched corridor bond-spin average over t.  The sqrt(t)
singularity of dx_b/dt cancels against x_b analytically, so the integrand is
implemented in the cancelled form |C| x^2/2 (1 + [<S_C>_t]) only; 1/sqrt(t)
is never evaluated.

Direct and integral routes share the disorder cores (common random numbers),
and the Monte Carlo error of the t-integral is computed from the per-sample
quadrature combination, never from independently-averaged nodes.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import rng
from .exact import ENUMERATION_CAP, batch_gibbs
from .lattice import Boundary, Corridor, LatticeSpec, build_lattice, decompose_box, tiling_interfaces, torus_cut
from .mcmc import MIN_INNER_ESS, McmcConfig, PoorMixingWarning, estimate_correlations_batch
from .model import uniform_params
from .quenched import (
    AveragingMethod,
    DisorderMC,
    Estimate,
    Quadrature,
    disorder_cores,
    legendre_nodes_01,
    quenched_pressure,
)

DEFAULT_T_NODES = 16


class SurfaceTermKind(Enum):
    ADJACENCY_TC = "adjacency_tc"
    ADJACENCY_TL = "adjacency_tl"
    PERIODIC_MINUS_FREE = "periodic_minus_free"
    SURFACE_PRESSURE_FREE = "surface_pressure_free"
    SURFACE_PRESSURE_PERIODIC = "surface_pressure_periodic"


@dataclass(frozen=True)
class IntegrandPoint:
    t: float
    value: float
    std_error: float


@dataclass(frozen=True)
class Geometry:
    dim: int
    L: int
    k: int | None
    corridor_size: int


@dataclass(frozen=True)
class SurfaceTermResult:
    kind: SurfaceTermKind
    direct: Estimate | None
    integral: Estimate
    per_unit_surface: Estimate
    geometry: Geometry
    x: float
    t_nodes: int
    integrand_tables: dict
    chain_telemetry: dict | None = field(default=None, compare=False)  # manifest only, never the result


@dataclass
class _TermData:
    """Raw pieces of one corridor interpolation: endpoints and t-curve."""

    direct: Estimate | None
    curve: tuple[IntegrandPoint, ...]
    curve_integral: Estimate | None
    center_curve: tuple[IntegrandPoint, ...] | None


def _mean_std(count, total, sq_total, shift, method, lattice) -> Estimate:
    mean_c = total / count
    var = max(sq_total - count * mean_c * mean_c, 0.0) / max(count - 1, 1)
    return Estimate(
        value=shift + mean_c,
        std_error=math.sqrt(var / count),
        method=method,
        n_bonds=lattice.n_bonds,
        n_sites=lattice.n_sites,
    )


def _exact_estimate(value, method, lattice) -> Estimate:
    return Estimate(value=value, std_error=0.0, method=method, n_bonds=lattice.n_bonds, n_sites=lattice.n_sites)


def _interpolation_term(
    lattice: LatticeSpec,
    corridor: Corridor,
    x: float,
    method: AveragingMethod,
    t_nodes: int,
    *,
    need_direct: bool = True,
    need_integral: bool = True,
    center_bond: int | None = None,
    cap: int = ENUMERATION_CAP,
) -> _TermData:
    corr_idx = corridor.sorted_indices()
    if not corr_idx:
        raise ValueError("corridor is empty")
    x_uniform = np.full(lattice.n_bonds, float(x))
    x_zero = x_uniform.copy()
    x_zero[list(corr_idx)] = 0.0
    tn, tw = legendre_nodes_01(t_nodes) if need_integral else (np.empty(0), np.empty(0))
    x_at = []
    for t in tn:
        xt = x_uniform.copy()
        xt[list(corr_idx)] = x * math.sqrt(t)
        x_at.append(xt)

    precise = isinstance(method, Quadrature)
    query = corr_idx if center_bond is None or center_bond in corr_idx else corr_idx + (center_bond,)
    active = x_uniform > 0

    count = 0
    wsum = 0.0
    d_sum = d_sq = 0.0
    f_sum = f_sq = 0.0
    node_sum = np.zeros(t_nodes)
    node_sq = np.zeros(t_nodes)
    cb_sum = np.zeros(t_nodes)
    cb_sq = np.zeros(t_nodes)
    d_shift = f_shift = None
    node_shift = np.zeros(t_nodes)
    cb_shift = np.zeros(t_nodes)
    first = True
    for core, weights in disorder_cores(lattice, method, active, x_uniform):
        if need_direct:
            k1 = x_uniform[None, :] * (x_uniform[None, :] + core)
            k0 = x_zero[None, :] * (x_zero[None, :] + core)
            lz1 = batch_gibbs(lattice, k1, need_log_z=True, precise=precise, cap=cap).log_z
            lz0 = batch_gibbs(lattice, k0, need_log_z=True, precise=precise, cap=cap).log_z
            d = lz1 - lz0
            if weights is None:
                if d_shift is None:
                    d_shift = float(d[0])
                c = d - d_shift
                d_sum += float(c.sum())
                d_sq += float(c @ c)
            else:
                d_sum += float(weights @ d)
        if need_integral:
            f_chunk = np.zeros(len(core))
            for i, t in enumerate(tn):
                xt = x_at[i]
                kt = xt[None, :] * (xt[None, :] + core)
                bg = batch_gibbs(lattice, kt, bonds=query, precise=precise, cap=cap)
                sc = np.mean([bg.bond[b] for b in corr_idx], axis=0)
                f_chunk += tw[i] * sc
                if weights is None:
                    if first:
                        node_shift[i] = float(sc[0])
                    cn = sc - node_shift[i]
                    node_sum[i] += float(cn.sum())
                    node_sq[i] += float(cn @ cn)
                else:
                    node_sum[i] += float(weights @ sc)
                if center_bond is not None:
                    cb = bg.bond[center_bond]
                    if weights is None:
                        if first:
                            cb_shift[i] = float(cb[0])
                        cc = cb - cb_shift[i]
                        cb_sum[i] += float(cc.sum())
                        cb_sq[i] += float(cc @ cc)
                    else:
                        cb_sum[i] += float(weights @ cb)
            if weights is None:
                if f_shift is None:
                    f_shift = float(f_chunk[0])
                c = f_chunk - f_shift
                f_sum += float(c.sum())
                f_sq += float(c @ c)
            else:
                f_sum += float(weights @ f_chunk)
        count += len(core)
        if weights is not None:
            wsum += float(weights.sum())
        first = False

    mc = isinstance(method, DisorderMC)
    direct = None
    if need_direct:
        direct = (
            _mean_std(count, d_sum, d_sq, d_shift, method, lattice)
            if mc
            else _exact_estimate(d_sum / wsum, method, lattice)
        )
    curve: tuple[IntegrandPoint, ...] = ()
    center_curve = None
    curve_integral = None
    if need_integral:
        pts = []
        for i, t in enumerate(tn):
            if mc:
                e = _mean_std(count, node_sum[i], node_sq[i], node_shift[i], method, lattice)
            else:
                e = _exact_estimate(node_sum[i] / wsum, method, lattice)
            pts.append(IntegrandPoint(t=float(t), value=e.value, std_error=e.std_error))
        curve = tuple(pts)
        curve_integral = (
            _mean_std(count, f_sum, f_sq, f_shift, method, lattice)
            if mc
            else _exact_estimate(f_sum / wsum, method, lattice)
        )
        if center_bond is not None:
            pts = []
            for i, t in enumerate(tn):
                if mc:
                    e = _mean_std(count, cb_sum[i], cb_sq[i], cb_shift[i], method, lattice)
                else:
                    e = _exact_estimate(cb_sum[i] / wsum, method, lattice)
                pts.append(IntegrandPoint(t=float(t), value=e.value, std_error=e.std_error))
            center_curve = tuple(pts)
    return _TermData(direct=direct, curve=curve, curve_integral=curve_integral, center_curve=center_curve)


def _scaled(e: Estimate, factor: float, offset: float = 0.0) -> Estimate:
    return replace(e, value=offset + factor * e.value, std_error=abs(factor) * e.std_error)


def _center_corridor_bond(lattice: LatticeSpec, corridor: Corridor) -> int:
    """Corridor bond whose midpoint is closest to the lattice center."""
    center = (lattice.side - 1) / 2.0
    best, best_d2 = None, None
    for b in corridor.sorted_indices():
        bond = lattice.bonds[b]
        ca = lattice.site_coords(bond.site_a)
        cb = lattice.site_coords(bond.site_b)
        d2 = sum(((a + bb) / 2.0 - center) ** 2 for a, bb in zip(ca, cb))
        if best_d2 is None or d2 < best_d2:
            best, best_d2 = b, d2
    return best


def _adjacency_setup(d: int, L: int):
    lattice = build_lattice(d, 2 * L, Boundary.FREE)
    decomp = decompose_box(lattice)
    return lattice, decomp.corridor


def adjacency_direct(d: int, L: int, x: float, method: AveragingMethod, cap: int = ENUMERATION_CAP) -> Estimate:
    """Pressure of the free 2L-box minus the sum over its 2^d free L-boxes.

    Computed as the endpoint difference of the interpolation on one lattice:
    zeroing the corridor couplings factorizes the box exactly, and the shared
    disorder core makes the difference variance-reduced.
    """
    lattice, corridor = _adjacency_setup(d, L)
    term = _interpolation_term(lattice, corridor, x, method, 2, need_integral=False, cap=cap)
    return term.direct


def adjacency_integral(
    d: int, L: int, x: float, method: AveragingMethod, t_nodes: int = DEFAULT_T_NODES, cap: int = ENUMERATION_CAP
) -> Estimate:
    """|C| x^2/2 (1 + integral of the quenched corridor average over t)."""
    lattice, corridor = _adjacency_setup(d, L)
    term = _interpolation_term(lattice, corridor, x, method, t_nodes, need_direct=False, cap=cap)
    pref = corridor.cardinality * x * x / 2.0
    return _scaled(term.curve_integral, pref, offset=pref)


def adjacency_term(
    d: int, L: int, x: float, method: AveragingMethod, t_nodes: int = DEFAULT_T_NODES, cap: int = ENUMERATION_CAP
) -> SurfaceTermResult:
    """Both routes for the adjacency term, plus the center-bond integrand.

    The corridor average and the center-bond correlation are reported as
    separate tables: at accessible sizes no bond is far from the outer
    boundary, so the two are kept distinct rather than conflated.
    """
    lattice, corridor = _adjacency_setup(d, L)
    center = _center_corridor_bond(lattice, corridor)
    term = _interpolation_term(lattice, corridor, x, method, t_nodes, center_bond=center, cap=cap)
    pref = corridor.cardinality * x * x / 2.0
    integral = _scaled(term.curve_integral, pref, offset=pref)
    per_unit = _scaled(integral, 1.0 / L ** (d - 1))
    return SurfaceTermResult(
        kind=SurfaceTermKind.ADJACENCY_TL,
        direct=term.direct,
        integral=integral,
        per_unit_surface=per_unit,
        geometry=Geometry(dim=d, L=L, k=None, corridor_size=corridor.cardinality),
        x=x,
        t_nodes=t_nodes,
        integrand_tables={"corridor": term.curve, "center_bond": term.center_curve},
    )


def periodic_minus_free(
    d: int, L: int, x: float, method: AveragingMethod, t_nodes: int = DEFAULT_T_NODES, cap: int = ENUMERATION_CAP
) -> SurfaceTermResult:
    """Torus pressure minus free-box pressure via the standard cut of the torus."""
    lattice = build_lattice(d, L, Boundary.PERIODIC, allow_side2=True)
    corridor = torus_cut(lattice)
    term = _interpolation_term(lattice, corridor, x, method, t_nodes, cap=cap)
    pref = corridor.cardinality * x * x / 2.0
    integral = _scaled(term.curve_integral, pref, offset=pref)
    per_unit = _scaled(integral, 1.0 / L ** (d - 1))
    return SurfaceTermResult(
        kind=SurfaceTermKind.PERIODIC_MINUS_FREE,
        direct=term.direct,
        integral=integral,
        per_unit_surface=per_unit,
        geometry=Geometry(dim=d, L=L, k=None, corridor_size=corridor.cardinality),
        x=x,
        t_nodes=t_nodes,
        integrand_tables={"torus_cut": term.curve},
    )


def surface_pressure_free(
    d: int, L: int, x: float, k: int, method: AveragingMethod, t_nodes: int = DEFAULT_T_NODES, cap: int = ENUMERATION_CAP
) -> SurfaceTermResult:
    """Finite-k surface pressure for free boundaries (nonpositive by structure).

    Direct route: k^{-d} [k^d ln Z(free L-box) - ln Z(torus kL)], realized as
    -k^{-d} times the endpoint difference of the tiling interpolation on the
    torus of side kL.  Integral route: -(d/2) x^2 L^{d-1} (1 + t-integral of
    the quenched tiling-corridor average).  k is reported with the result; no
    extrapolation in k is performed.
    """
    lattice, decomp = tiling_interfaces(d, L, k)
    corridor = decomp.corridor
    term = _interpolation_term(lattice, corridor, x, method, t_nodes, cap=cap)
    scale = k ** (-d)
    direct = _scaled(term.direct, -scale)
    pref = scale * corridor.cardinality * x * x / 2.0  # = (d/2) x^2 L^(d-1)
    integral = _scaled(term.curve_integral, -pref, offset=-pref)
    per_unit = _scaled(integral, 1.0 / L ** (d - 1))
    return SurfaceTermResult(
        kind=SurfaceTermKind.SURFACE_PRESSURE_FREE,
        direct=direct,
        integral=integral,
        per_unit_surface=per_unit,
        geometry=Geometry(dim=d, L=L, k=k, corridor_size=corridor.cardinality),
        x=x,
        t_nodes=t_nodes,
        integrand_tables={"tiling": term.curve},
    )


def surface_pressure_periodic(
    d: int, L: int, x: float, k: int, method: AveragingMethod, t_nodes: int = DEFAULT_T_NODES, cap: int = ENUMERATION_CAP
) -> SurfaceTermResult:
    """Finite-k surface pressure for periodic boundaries.

    Integral route: (d/2) x^2 L^{d-1} (cut integral on the L-torus minus
    tiling integral on the kL-torus).  Direct route: P(torus L) minus
    k^{-d} P(torus kL), from two independent quenched pressures.
    """
    small = build_lattice(d, L, Boundary.PERIODIC, allow_side2=True)
    cut = torus_cut(small)
    cut_term = _interpolation_term(small, cut, x, method, t_nodes, need_direct=False, cap=cap)
    big, decomp = tiling_interfaces(d, L, k)
    tile_term = _interpolation_term(big, decomp.corridor, x, method, t_nodes, need_direct=False, cap=cap)

    pref = d * x * x * L ** (d - 1) / 2.0
    ci = cut_term.curve_integral
    ti = tile_term.curve_integral
    integral = Estimate(
        value=pref * (ci.value - ti.value),
        std_error=pref * math.hypot(ci.std_error, ti.std_error),
        method=method,
        n_bonds=big.n_bonds,
        n_sites=big.n_sites,
    )
    p_small = quenched_pressure(small, uniform_params(small, x), method, cap=cap)
    p_big = quenched_pressure(big, uniform_params(big, x), method, cap=cap)
    scale = k ** (-d)
    direct = Estimate(
        value=p_small.value - scale * p_big.value,
        std_error=math.hypot(p_small.std_error, scale * p_big.std_error),
        method=method,
        n_bonds=big.n_bonds,
        n_sites=big.n_sites,
    )
    per_unit = _scaled(integral, 1.0 / L ** (d - 1))
    return SurfaceTermResult(
        kind=SurfaceTermKind.SURFACE_PRESSURE_PERIODIC,
        direct=direct,
        integral=integral,
        per_unit_surface=per_unit,
        geometry=Geometry(dim=d, L=L, k=k, corridor_size=decomp.corridor.cardinality),
        x=x,
        t_nodes=t_nodes,
        integrand_tables={"torus_cut": cut_term.curve, "tiling": tile_term.curve},
    )


def _adjacency_term_mcmc(
    d: int, L: int, x: float, method: DisorderMC, t_nodes: int, mcmc: McmcConfig
) -> SurfaceTermResult:
    """Two-level estimator of the adjacency integral beyond the enumeration cap.

    Outer: disorder realizations from the counter-based stream.  Inner: one
    Markov chain per (realization, t-node) estimating the corridor average,
    all of them advanced together in this process as one batch.  The
    t-quadrature is combined per realization, so the reported error is the
    spread of complete per-realization integrals (inner noise included).
    Every chain is keyed by derive_seed(mcmc.seed, realization, t-node) and
    its result does not depend on the rest of the batch.  Chain telemetry
    (count, site-sweeps, time, acceptance, worst ESS, warnings) rides on the
    result for the manifest.
    """
    lattice, corridor = _adjacency_setup(d, L)
    corr_idx = corridor.sorted_indices()
    tn, tw = legendre_nodes_01(t_nodes)
    x_at = []
    for t in tn:
        xt = np.full(lattice.n_bonds, float(x))
        xt[list(corr_idx)] = x * math.sqrt(t)
        x_at.append(xt)

    bond_idx = np.arange(lattice.n_bonds, dtype=np.uint64)
    kvecs, seeds = [], []
    for s in range(method.samples):
        g = rng.standard_normals(method.seed, bond_idx, s)
        for i, xt in enumerate(x_at):
            kvecs.append(xt * (xt + g))
            seeds.append(rng.derive_seed(mcmc.seed, s, i))
    t0 = time.perf_counter()
    chains = estimate_correlations_batch(lattice, np.stack(kvecs), seeds, corridor=corridor, config=mcmc)
    chain_s = time.perf_counter() - t0
    node_vals = np.array([est["corridor_mean"].value for est, _ in chains]).reshape(method.samples, t_nodes)
    min_ess = min(diag.ess for _, diag in chains)
    poor = min_ess < MIN_INNER_ESS
    if poor:
        warnings.warn(
            f"inner chains reached an effective sample size of {min_ess:.0f} (< {MIN_INNER_ESS}); "
            "treat this sweep point as under-resolved",
            PoorMixingWarning,
            stacklevel=2,
        )
    site_sweeps = len(chains) * lattice.n_sites * mcmc.sweeps * mcmc.replicas
    telemetry = {
        "chains": len(chains),
        "site_sweeps": site_sweeps,
        "chain_s": chain_s,
        "ns_per_site_sweep": 1e9 * chain_s / site_sweeps,
        "mean_acceptance": float(np.mean([diag.acceptance[-1] for _, diag in chains])),
        "min_ess": min_ess,
        "poor_mixing_warnings": int(poor),
    }
    f_vals = node_vals @ tw

    pref = corridor.cardinality * x * x / 2.0
    f_mean = float(f_vals.mean())
    f_se = float(f_vals.std(ddof=1) / math.sqrt(method.samples))
    integral = Estimate(
        value=pref * (1.0 + f_mean),
        std_error=pref * f_se,
        method=method,
        n_bonds=lattice.n_bonds,
        n_sites=lattice.n_sites,
    )
    curve = tuple(
        IntegrandPoint(
            t=float(tn[i]),
            value=float(node_vals[:, i].mean()),
            std_error=float(node_vals[:, i].std(ddof=1) / math.sqrt(method.samples)),
        )
        for i in range(t_nodes)
    )
    per_unit = _scaled(integral, 1.0 / L ** (d - 1))
    return SurfaceTermResult(
        kind=SurfaceTermKind.ADJACENCY_TL,
        direct=None,
        integral=integral,
        per_unit_surface=per_unit,
        geometry=Geometry(dim=d, L=L, k=None, corridor_size=corridor.cardinality),
        x=x,
        t_nodes=t_nodes,
        integrand_tables={"corridor": curve},
        chain_telemetry=telemetry,
    )


def scaling_sweep(
    d: int,
    x: float,
    L_list,
    k: int = 2,
    method: AveragingMethod | None = None,
    *,
    t_nodes: int = DEFAULT_T_NODES,
    mcmc: McmcConfig | None = None,
    workers: int = 1,
    cap: int = ENUMERATION_CAP,
) -> list[SurfaceTermResult]:
    """Adjacency term per unit surface, T_L / L^(d-1), across box sizes.

    Sizes within the enumeration cap run the exact inner engine; larger sizes
    need a DisorderMC method plus an McmcConfig for the two-level estimator.
    Finite-L values only; no thermodynamic limit is claimed.  `workers` is
    accepted for compatibility and starts no processes: the chains of a
    sweep point run batched in this process, so results never depend on it.
    """
    L_list = list(L_list)
    if not L_list:
        raise ValueError("L_list is empty")
    if method is None:
        raise ValueError("an averaging method is required")
    results = []
    for L in L_list:
        n_sites = (2 * L) ** d
        if n_sites <= cap:
            results.append(adjacency_term(d, L, x, method, t_nodes=t_nodes, cap=cap))
        else:
            if not isinstance(method, DisorderMC) or mcmc is None:
                raise SizeCapExceededForSweep(L, n_sites, cap)
            results.append(_adjacency_term_mcmc(d, L, x, method, t_nodes, mcmc))
    return results


class SizeCapExceededForSweep(ValueError):
    def __init__(self, L: int, n_sites: int, cap: int):
        super().__init__(
            f"L={L} gives {n_sites} sites (cap {cap}); pass a DisorderMC method "
            "and an McmcConfig to use the two-level Markov-chain estimator"
        )
