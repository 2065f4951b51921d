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
(realization, t-node) beyond it (adjacency term only); either answers one
chunk of the term's one disorder stream at a time, and one chunk loop forms
the t-quadrature row and feeds one quenched.Moments.

One function, `_interpolation_term`, builds every corridor term and runs
only the routes asked for: each term function takes routes="direct",
"integral" or "both", and a route not asked for is None on the result and
costs no enumeration.  The periodic surface pressure adds the integral
routes of the torus-cut and tiling terms and keeps its own two-pressure
direct route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .exact import SizeCapExceeded, batch_gibbs, enumerable
from .lattice import Boundary, Corridor, LatticeSpec, build_lattice, decompose_box, tiling_interfaces, torus_cut
from .mcmc import McmcConfig, TwoLevelInner
from .model import interpolated_params, nishimori_couplings, uniform_params
from .quenched import (
    AveragingMethod,
    DisorderMC,
    Estimate,
    Moments,
    Quadrature,
    combined_std_error,
    disorder_cores,
    legendre_nodes_01,
    quenched_pressure,
)

DEFAULT_T_NODES = 16
ROUTES = ("direct", "integral", "both")


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
    """One surface term; a route that was not asked for is None.

    per_unit_surface is the integral route divided by L^(d-1)."""

    kind: SurfaceTermKind
    direct: Estimate | None
    integral: Estimate | None
    geometry: Geometry
    x: float
    t_nodes: int
    integrand_tables: dict
    chain_telemetry: dict | None = field(default=None, compare=False)  # manifest only, never the result
    passes: tuple[dict, ...] = field(default=(), compare=False)  # the disorder pass records, manifest only
    per_unit_surface: Estimate | None = field(init=False)

    def __post_init__(self):
        g = self.geometry
        per_unit = None if self.integral is None else _scaled(self.integral, 1.0 / g.L ** (g.dim - 1))
        object.__setattr__(self, "per_unit_surface", per_unit)


def _route_flags(routes: str) -> tuple[bool, bool]:
    """(need_direct, need_integral) for routes "direct", "integral" or "both"."""
    if routes not in ROUTES:
        raise ValueError(f"routes must be one of {ROUTES}, got {routes!r}")
    return routes != "integral", routes != "direct"


def _interpolation_term(
    kind: SurfaceTermKind,
    geometry: Geometry,
    lattice: LatticeSpec,
    corridor: Corridor,
    x: float,
    method: AveragingMethod,
    t_nodes: int,
    table: str,
    *,
    scale: float = 1.0,
    routes: str = "both",
    center_bond: int | None = None,
    mcmc: McmcConfig | None = None,
) -> SurfaceTermResult:
    """One corridor interpolation, computing only the routes asked for.

    Direct route: scale times the endpoint difference ln Z(t=1) - ln Z(t=0).
    Integral route: scale |C| x^2/2 (1 + t-integral of the corridor mean),
    with the corridor mean at each t-node as table `table` and, given a
    center bond, that bond's mean as table "center_bond".  Per disorder chunk
    the accumulator gets the rows [direct], the corridor mean at each t-node,
    their t-quadrature combination per sample, and [the center bond at each
    t-node].  With an McmcConfig (two-level estimator) the chunk's corridor
    means come from mcmc.TwoLevelInner in place of batch_gibbs; that path
    takes routes="integral", no center bond and DisorderMC only (else
    ValueError, before any draw).

    The record `disorder_cores` fills goes on the result's passes, with
    source_variants (per chunk: 2 for the direct route, one per t-node on
    the exact integral route, none for chains) and engine_rows, the rows
    batch_gibbs enumerated.
    """
    need_direct, need_integral = _route_flags(routes)
    if mcmc is not None:  # the chain path's contract, checked before any disorder is drawn
        if routes != "integral" or center_bond is not None:
            raise ValueError(f"Markov chains give the corridor integral alone, got routes={routes!r}, center_bond={center_bond}")
        if not isinstance(method, DisorderMC):
            raise ValueError(f"Markov chains need an unweighted (DisorderMC) disorder stream, got method={method!r}")
    elif not enumerable(lattice):  # before any disorder is drawn
        raise SizeCapExceeded(lattice.n_sites)
    corr_idx = corridor.sorted_indices()
    if not corr_idx:
        raise ValueError("corridor is empty")
    x_one = interpolated_params(lattice, corridor, x).x
    x_zero = interpolated_params(lattice, corridor, x, 0.0).x
    tn, tw = legendre_nodes_01(t_nodes) if need_integral else (np.empty(0), np.empty(0))
    x_at = [interpolated_params(lattice, corridor, x, t).x for t in tn]
    precise = isinstance(method, Quadrature)

    chains = None if mcmc is None else TwoLevelInner(lattice, x_at, corridor=corridor, config=mcmc)
    moments = Moments()
    record = {"source_variants": 2 * need_direct + (len(x_at) if chains is None else 0), "engine_rows": 0}
    for core, weights in disorder_cores(lattice, method, x_one > 0, x_one, record=record):
        rows = []
        if need_direct:
            lz1 = batch_gibbs(lattice, nishimori_couplings(x_one, core).T, need_log_z=True, precise=precise).log_z
            lz0 = batch_gibbs(lattice, nishimori_couplings(x_zero, core).T, need_log_z=True, precise=precise).log_z
            rows.append(lz1 - lz0)
            record["engine_rows"] += 2 * core.shape[1]
        if need_integral:
            node_rows, center_rows = [], []
            if chains is not None:
                node_rows = list(chains.means(core))
            else:
                for xt in x_at:
                    bg = batch_gibbs(lattice, nishimori_couplings(xt, core).T, bonds=corr_idx, precise=precise)
                    record["engine_rows"] += core.shape[1]
                    node_rows.append(np.mean([bg.bond[b] for b in corr_idx], axis=0))
                    if center_bond is not None:
                        center_rows.append(bg.bond[center_bond])
            f_chunk = sum((w * sc for w, sc in zip(tw, node_rows)), np.zeros(core.shape[1]))  # t-quadrature per sample
            rows += node_rows + [f_chunk] + center_rows
        moments.add(rows, weights)

    est = moments.estimates()
    direct = _scaled(est.pop(0), scale) if need_direct else None
    integral, tables = None, {}
    if need_integral:
        n = len(tn)
        pref = scale * geometry.corridor_size * x * x / 2.0
        integral = _scaled(est[n], pref, offset=pref)
        tables[table] = _curve(tn, est[:n])
        if center_bond is not None:
            tables["center_bond"] = _curve(tn, est[n + 1 :])
    telemetry = None if chains is None else chains.telemetry()
    return SurfaceTermResult(kind, direct, integral, geometry, x, t_nodes, tables, chain_telemetry=telemetry, passes=(record,))


def _curve(tn: np.ndarray, estimates: list[Estimate]) -> tuple[IntegrandPoint, ...]:
    return tuple(IntegrandPoint(t=float(t), value=e.value, std_error=e.std_error) for t, e in zip(tn, estimates))


def _scaled(e: Estimate, factor: float, offset: float = 0.0) -> Estimate:
    return Estimate(value=offset + factor * e.value, std_error=abs(factor) * e.std_error)


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


def adjacency_term(
    d: int,
    L: int,
    x: float,
    method: AveragingMethod,
    t_nodes: int = DEFAULT_T_NODES,
    mcmc: McmcConfig | None = None,
    *,
    routes: str = "both",
) -> SurfaceTermResult:
    """The adjacency term, plus the center-bond integrand.

    Direct route: the endpoint difference of the interpolation on the free
    2L-box; zeroing the corridor couplings factorizes the box exactly into
    its 2^d free L-boxes, and the shared disorder core makes the difference
    variance-reduced.  The corridor average and the center-bond correlation
    are reported as separate tables: at accessible sizes no bond is far from
    the outer boundary, so the two are kept distinct rather than conflated.
    Beyond the enumeration cap a DisorderMC method plus an McmcConfig run the
    two-level estimator instead: the integral route and the corridor table
    only, with the chain telemetry on the result for the manifest.
    """
    lattice, corridor = _adjacency_setup(d, L)
    geometry = Geometry(dim=d, L=L, k=None, corridor_size=corridor.cardinality)
    term = (SurfaceTermKind.ADJACENCY_TL, geometry, lattice, corridor, x, method, t_nodes, "corridor")
    if enumerable(lattice):
        return _interpolation_term(*term, routes=routes, center_bond=_center_corridor_bond(lattice, corridor))
    if routes == "direct":
        raise SizeCapExceeded(lattice.n_sites, f"at L={L} Markov chains give the integral route only")
    if not isinstance(method, DisorderMC) or mcmc is None:
        raise SizeCapExceeded(
            lattice.n_sites,
            f"at L={L} the two-level Markov-chain estimator needs a DisorderMC method and an McmcConfig "
            "(CLI: scaling --method mc --mcmc-sweeps N)",
        )
    return _interpolation_term(*term, routes="integral", mcmc=mcmc)


def periodic_minus_free(
    d: int, L: int, x: float, method: AveragingMethod, t_nodes: int = DEFAULT_T_NODES, *, routes: str = "both"
) -> SurfaceTermResult:
    """Torus pressure minus free-box pressure via the standard cut of the torus."""
    lattice = build_lattice(d, L, Boundary.PERIODIC, allow_side2=True)
    corridor = torus_cut(lattice)
    geometry = Geometry(dim=d, L=L, k=None, corridor_size=corridor.cardinality)
    kind = SurfaceTermKind.PERIODIC_MINUS_FREE
    return _interpolation_term(kind, geometry, lattice, corridor, x, method, t_nodes, "torus_cut", routes=routes)


def surface_pressure_free(
    d: int, L: int, x: float, k: int, method: AveragingMethod, t_nodes: int = DEFAULT_T_NODES, *, routes: str = "both"
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
    geometry = Geometry(dim=d, L=L, k=k, corridor_size=corridor.cardinality)
    kind = SurfaceTermKind.SURFACE_PRESSURE_FREE
    return _interpolation_term(
        kind, geometry, lattice, corridor, x, method, t_nodes, "tiling", scale=-(k ** (-d)), routes=routes
    )


def surface_pressure_periodic(
    d: int, L: int, x: float, k: int, method: AveragingMethod, t_nodes: int = DEFAULT_T_NODES, *, routes: str = "both"
) -> SurfaceTermResult:
    """Finite-k surface pressure for periodic boundaries.

    Integral route: T_sp = T_pf + T_sf, the integral routes of
    periodic_minus_free and surface_pressure_free added, i.e. (d/2) x^2
    L^{d-1} (cut integral on the L-torus minus tiling integral on the
    kL-torus); its tables are theirs.  Direct route: P(torus L) minus
    k^{-d} P(torus kL), from two independent quenched pressures.
    """
    need_direct, need_integral = _route_flags(routes)
    big, decomp = tiling_interfaces(d, L, k)
    if not enumerable(big):  # the kL-torus is the larger lattice of both routes
        raise SizeCapExceeded(big.n_sites)
    direct = integral = None
    tables: dict = {}
    passes: list[dict] = []
    if need_integral:
        pmf = periodic_minus_free(d, L, x, method, t_nodes, routes="integral")
        spf = surface_pressure_free(d, L, x, k, method, t_nodes, routes="integral")
        integral = Estimate(pmf.integral.value + spf.integral.value, combined_std_error(pmf.integral, spf.integral))
        tables = {**pmf.integrand_tables, **spf.integrand_tables}
        passes += pmf.passes + spf.passes
    if need_direct:
        small = build_lattice(d, L, Boundary.PERIODIC, allow_side2=True)
        p_small = quenched_pressure(small, uniform_params(small, x), method, telemetry=passes)
        p_big = _scaled(quenched_pressure(big, uniform_params(big, x), method, telemetry=passes), k ** (-d))
        direct = Estimate(p_small.value - p_big.value, combined_std_error(p_small, p_big))
    geometry = Geometry(dim=d, L=L, k=k, corridor_size=decomp.corridor.cardinality)
    kind = SurfaceTermKind.SURFACE_PRESSURE_PERIODIC
    return SurfaceTermResult(kind, direct, integral, geometry, x, t_nodes, tables, passes=tuple(passes))


def scaling_sweep(
    d: int,
    x: float,
    L_list,
    method: AveragingMethod,
    *,
    t_nodes: int = DEFAULT_T_NODES,
    mcmc: McmcConfig | None = None,
) -> list[SurfaceTermResult]:
    """Adjacency term per unit surface, T_L / L^(d-1), across box sizes.

    Each size runs `adjacency_term`: the exact inner engine within the
    enumeration cap, the two-level estimator (DisorderMC plus McmcConfig)
    beyond it.  Finite-L values only; no thermodynamic limit is claimed.
    """
    L_list = list(L_list)
    if not L_list or len(set(L_list)) < len(L_list):
        raise ValueError(f"L_list must name at least one size, each once, got {L_list}")
    return [adjacency_term(d, L, x, method, t_nodes, mcmc) for L in L_list]

