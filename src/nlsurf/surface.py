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
quadrature combination, never from independently-averaged nodes.  The inner
engine is exact enumeration within the cap, or one Markov chain per
(realization, t-node) beyond it (adjacency term only); either way the rows
reduce through one quenched.Moments, and one builder turns the t-integral
into the term |C| x^2/2 (1 + ...) and its value per unit surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import rng
from .exact import ENUMERATION_CAP, batch_gibbs
from .lattice import Boundary, Corridor, LatticeSpec, build_lattice, decompose_box, tiling_interfaces, torus_cut
from .mcmc import McmcConfig, two_level_inner
from .model import interpolated_params, interpolation_schedule, uniform_params
from .quenched import (
    AveragingMethod,
    DisorderMC,
    Estimate,
    Moments,
    Quadrature,
    disorder_cores,
    legendre_nodes_01,
    quenched_pressure,
)

DEFAULT_T_NODES = 16


class SurfaceTermKind(Enum):
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
    chain_telemetry: dict | None = None


def _corridor_x(lattice: LatticeSpec, corridor: Corridor, x: float, t: float) -> np.ndarray:
    """x_b(t): x sqrt(t) on the corridor and x elsewhere (the model's schedule)."""
    return interpolated_params(interpolation_schedule(lattice, corridor, x, t)).x


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
    mcmc: McmcConfig | None = None,
) -> _TermData:
    """Endpoint difference and t-curve of one corridor interpolation.

    Per disorder chunk the accumulator gets the rows [direct], the corridor
    mean at each t-node, their t-quadrature combination per sample, and
    [the center bond at each t-node].  With an McmcConfig (two-level
    estimator, DisorderMC only) the corridor means come from one Markov chain
    per (realization, t-node) on stream derive_seed(mcmc.seed, s, i) and go
    in as one chunk; that path has no direct route and no center bond.
    """
    corr_idx = corridor.sorted_indices()
    if not corr_idx:
        raise ValueError("corridor is empty")
    x_one = _corridor_x(lattice, corridor, x, 1.0)
    x_zero = _corridor_x(lattice, corridor, x, 0.0)
    tn, tw = legendre_nodes_01(t_nodes) if need_integral else (np.empty(0), np.empty(0))
    x_at = [_corridor_x(lattice, corridor, x, t) for t in tn]
    precise = isinstance(method, Quadrature)
    query = corr_idx if center_bond is None or center_bond in corr_idx else corr_idx + (center_bond,)

    moments = Moments()
    telemetry = None
    if mcmc is not None:
        seeds = [rng.derive_seed(mcmc.seed, s, i) for s in range(method.samples) for i in range(t_nodes)]
        node_vals, telemetry = two_level_inner(lattice, x_at, method, seeds, corridor=corridor, config=mcmc)
        moments.add(list(node_vals.T) + [node_vals @ tw], None)
    else:
        for core, weights in disorder_cores(lattice, method, x_one > 0, x_one):
            rows = []
            if need_direct:
                lz1 = batch_gibbs(lattice, x_one[None, :] * (x_one[None, :] + core), need_log_z=True, precise=precise).log_z
                lz0 = batch_gibbs(lattice, x_zero[None, :] * (x_zero[None, :] + core), need_log_z=True, precise=precise).log_z
                rows.append(lz1 - lz0)
            if need_integral:
                node_rows, center_rows = [], []
                f_chunk = np.zeros(len(core))
                for xt, w in zip(x_at, tw):
                    bg = batch_gibbs(lattice, xt[None, :] * (xt[None, :] + core), bonds=query, precise=precise)
                    sc = np.mean([bg.bond[b] for b in corr_idx], axis=0)
                    f_chunk += w * sc
                    node_rows.append(sc)
                    if center_bond is not None:
                        center_rows.append(bg.bond[center_bond])
                rows += node_rows + [f_chunk] + center_rows
            moments.add(rows, weights)

    est = moments.estimates()
    direct = est.pop(0) if need_direct else None
    n = len(tn)
    return _TermData(
        direct=direct,
        curve=_curve(tn, est[:n]),
        curve_integral=est[n] if need_integral else None,
        center_curve=_curve(tn, est[n + 1 :]) if center_bond is not None else None,
        chain_telemetry=telemetry,
    )


def _curve(tn: np.ndarray, estimates: list[Estimate]) -> tuple[IntegrandPoint, ...]:
    return tuple(IntegrandPoint(t=float(t), value=e.value, std_error=e.std_error) for t, e in zip(tn, estimates))


def _scaled(e: Estimate, factor: float, offset: float = 0.0) -> Estimate:
    return Estimate(value=offset + factor * e.value, std_error=abs(factor) * e.std_error)


def _term_result(
    kind: SurfaceTermKind, term: _TermData, geometry: Geometry, x: float, t_nodes: int, tables: dict, scale: float = 1.0
) -> SurfaceTermResult:
    """Integral route scale |C| x^2/2 (1 + t-integral), direct route times
    scale, and the integral per unit surface L^(d-1)."""
    pref = scale * geometry.corridor_size * x * x / 2.0
    integral = _scaled(term.curve_integral, pref, offset=pref)
    direct = term.direct
    if direct is not None and scale != 1.0:
        direct = _scaled(direct, scale)
    return SurfaceTermResult(
        kind=kind,
        direct=direct,
        integral=integral,
        per_unit_surface=_scaled(integral, 1.0 / geometry.L ** (geometry.dim - 1)),
        geometry=geometry,
        x=x,
        t_nodes=t_nodes,
        integrand_tables=tables,
        chain_telemetry=term.chain_telemetry,
    )


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


def adjacency_direct(d: int, L: int, x: float, method: AveragingMethod) -> Estimate:
    """Pressure of the free 2L-box minus the sum over its 2^d free L-boxes.

    Computed as the endpoint difference of the interpolation on one lattice:
    zeroing the corridor couplings factorizes the box exactly, and the shared
    disorder core makes the difference variance-reduced.
    """
    lattice, corridor = _adjacency_setup(d, L)
    term = _interpolation_term(lattice, corridor, x, method, 2, need_integral=False)
    return term.direct


def adjacency_integral(
    d: int, L: int, x: float, method: AveragingMethod, t_nodes: int = DEFAULT_T_NODES
) -> Estimate:
    """|C| x^2/2 (1 + integral of the quenched corridor average over t)."""
    lattice, corridor = _adjacency_setup(d, L)
    term = _interpolation_term(lattice, corridor, x, method, t_nodes, need_direct=False)
    geometry = Geometry(dim=d, L=L, k=None, corridor_size=corridor.cardinality)
    return _term_result(SurfaceTermKind.ADJACENCY_TL, term, geometry, x, t_nodes, {}).integral


def adjacency_term(
    d: int,
    L: int,
    x: float,
    method: AveragingMethod,
    t_nodes: int = DEFAULT_T_NODES,
    mcmc: McmcConfig | None = None,
) -> SurfaceTermResult:
    """Both routes for the adjacency term, plus the center-bond integrand.

    The corridor average and the center-bond correlation are reported as
    separate tables: at accessible sizes no bond is far from the outer
    boundary, so the two are kept distinct rather than conflated.  Beyond the
    enumeration cap a DisorderMC method plus an McmcConfig run the two-level
    estimator instead: the integral route and the corridor table only, with
    the chain telemetry on the result for the manifest.
    """
    lattice, corridor = _adjacency_setup(d, L)
    geometry = Geometry(dim=d, L=L, k=None, corridor_size=corridor.cardinality)
    if lattice.n_sites <= ENUMERATION_CAP:
        center = _center_corridor_bond(lattice, corridor)
        term = _interpolation_term(lattice, corridor, x, method, t_nodes, center_bond=center)
        tables = {"corridor": term.curve, "center_bond": term.center_curve}
    else:
        if not isinstance(method, DisorderMC) or mcmc is None:
            raise SizeCapExceededForSweep(L, lattice.n_sites, ENUMERATION_CAP)
        term = _interpolation_term(lattice, corridor, x, method, t_nodes, need_direct=False, mcmc=mcmc)
        tables = {"corridor": term.curve}
    return _term_result(SurfaceTermKind.ADJACENCY_TL, term, geometry, x, t_nodes, tables)


def periodic_minus_free(
    d: int, L: int, x: float, method: AveragingMethod, t_nodes: int = DEFAULT_T_NODES
) -> SurfaceTermResult:
    """Torus pressure minus free-box pressure via the standard cut of the torus."""
    lattice = build_lattice(d, L, Boundary.PERIODIC, allow_side2=True)
    corridor = torus_cut(lattice)
    term = _interpolation_term(lattice, corridor, x, method, t_nodes)
    geometry = Geometry(dim=d, L=L, k=None, corridor_size=corridor.cardinality)
    return _term_result(SurfaceTermKind.PERIODIC_MINUS_FREE, term, geometry, x, t_nodes, {"torus_cut": term.curve})


def surface_pressure_free(
    d: int, L: int, x: float, k: int, method: AveragingMethod, t_nodes: int = DEFAULT_T_NODES
) -> SurfaceTermResult:
    """Finite-k surface pressure for free boundaries (nonpositive by structure).

    Direct route: k^{-d} [k^d ln Z(free L-box) - ln Z(torus kL)], realized as
    -k^{-d} times the endpoint difference of the tiling interpolation on the
    torus of side kL.  Integral route: -(d/2) x^2 L^{d-1} (1 + t-integral of
    the quenched tiling-corridor average), i.e. -k^{-d} |C| x^2/2 (...).  k is
    reported with the result; no extrapolation in k is performed.
    """
    lattice, decomp = tiling_interfaces(d, L, k)
    corridor = decomp.corridor
    term = _interpolation_term(lattice, corridor, x, method, t_nodes)
    geometry = Geometry(dim=d, L=L, k=k, corridor_size=corridor.cardinality)
    return _term_result(
        SurfaceTermKind.SURFACE_PRESSURE_FREE, term, geometry, x, t_nodes, {"tiling": term.curve}, scale=-(k ** (-d))
    )


def surface_pressure_periodic(
    d: int, L: int, x: float, k: int, method: AveragingMethod, t_nodes: int = DEFAULT_T_NODES
) -> SurfaceTermResult:
    """Finite-k surface pressure for periodic boundaries.

    Integral route: (d/2) x^2 L^{d-1} (cut integral on the L-torus minus
    tiling integral on the kL-torus).  Direct route: P(torus L) minus
    k^{-d} P(torus kL), from two independent quenched pressures.
    """
    small = build_lattice(d, L, Boundary.PERIODIC, allow_side2=True)
    cut = torus_cut(small)
    cut_term = _interpolation_term(small, cut, x, method, t_nodes, need_direct=False)
    big, decomp = tiling_interfaces(d, L, k)
    tile_term = _interpolation_term(big, decomp.corridor, x, method, t_nodes, need_direct=False)

    pref = d * x * x * L ** (d - 1) / 2.0
    ci = cut_term.curve_integral
    ti = tile_term.curve_integral
    integral = Estimate(value=pref * (ci.value - ti.value), std_error=pref * math.hypot(ci.std_error, ti.std_error))
    p_small = quenched_pressure(small, uniform_params(small, x), method)
    p_big = quenched_pressure(big, uniform_params(big, x), method)
    scale = k ** (-d)
    direct = Estimate(
        value=p_small.value - scale * p_big.value,
        std_error=math.hypot(p_small.std_error, scale * p_big.std_error),
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
) -> list[SurfaceTermResult]:
    """Adjacency term per unit surface, T_L / L^(d-1), across box sizes.

    Each size runs `adjacency_term`: the exact inner engine within the
    enumeration cap, the two-level estimator (DisorderMC plus McmcConfig)
    beyond it.  Finite-L values only; no thermodynamic limit is claimed.
    `workers` is accepted for compatibility and starts no processes: the
    chains of a sweep point run batched in this process, so results never
    depend on it.
    """
    L_list = list(L_list)
    if not L_list:
        raise ValueError("L_list is empty")
    if method is None:
        raise ValueError("an averaging method is required")
    return [adjacency_term(d, L, x, method, t_nodes, mcmc) for L in L_list]


class SizeCapExceededForSweep(ValueError):
    def __init__(self, L: int, n_sites: int, cap: int):
        super().__init__(
            f"L={L} gives {n_sites} sites (cap {cap}); pass a DisorderMC method and an McmcConfig "
            "(CLI: scaling --method mc --mcmc-sweeps N) to use the two-level Markov-chain estimator"
        )
