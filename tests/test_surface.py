"""Surface terms: frozen oracles, route equality, signs, sweeps."""

import math
import re

import pytest

from nlsurf.exact import SizeCapExceeded
from nlsurf.lattice import Boundary, build_lattice
from nlsurf.mcmc import McmcConfig
from nlsurf.model import uniform_params
from nlsurf.quenched import DisorderMC, Quadrature, combined_std_error, quenched_pressure
from nlsurf.surface import (
    Geometry,
    SurfaceTermKind,
    _adjacency_setup,
    _interpolation_term,
    adjacency_term,
    periodic_minus_free,
    scaling_sweep,
    surface_pressure_free,
    surface_pressure_periodic,
)

from nlsurf.verify import check_le, run_checks

from oracles import FROZEN

Q20 = Quadrature(20)
BOX5 = build_lattice(2, 5, Boundary.FREE)


def test_all_terms_vanish_at_zero_x():
    assert adjacency_term(1, 2, 0.0, Q20, routes="direct").direct.value == pytest.approx(0.0, abs=1e-13)
    assert adjacency_term(1, 2, 0.0, Q20, t_nodes=4, routes="integral").integral.value == 0.0
    r = periodic_minus_free(1, 4, 0.0, Q20, t_nodes=4)
    assert r.direct.value == pytest.approx(0.0, abs=1e-13) and r.integral.value == 0.0
    r = surface_pressure_free(1, 2, 0.0, 2, Q20, t_nodes=4)
    assert r.direct.value == pytest.approx(0.0, abs=1e-13) and r.integral.value == 0.0
    r = surface_pressure_periodic(1, 2, 0.0, 2, Q20, t_nodes=4)
    assert r.direct.value == pytest.approx(0.0, abs=1e-13) and r.integral.value == 0.0


def test_adjacency_oracle_and_route_equality():
    d = adjacency_term(1, 2, 0.8, Q20, routes="direct").direct
    i = adjacency_term(1, 2, 0.8, Q20, t_nodes=16, routes="integral").integral
    assert d.value == pytest.approx(FROZEN["adjacency_d1_L2_x08"], abs=1e-6)
    assert i.value == pytest.approx(FROZEN["adjacency_d1_L2_x08"], abs=1e-6)
    assert abs(d.value - i.value) <= 1e-6


def test_adjacency_term_result_shape():
    r = adjacency_term(1, 2, 0.8, Q20, t_nodes=8)
    assert r.kind is SurfaceTermKind.ADJACENCY_TL
    assert r.geometry.corridor_size == 1
    assert r.per_unit_surface.value == pytest.approx(r.integral.value, abs=1e-15)  # L^(d-1) = 1
    assert len(r.integrand_tables["corridor"]) == 8
    assert r.integrand_tables["center_bond"] is not None
    # d=1 midplane corridor is the center bond itself
    for a, b in zip(r.integrand_tables["corridor"], r.integrand_tables["center_bond"]):
        assert a.value == pytest.approx(b.value, abs=1e-15)


def test_periodic_minus_free_oracle():
    r = periodic_minus_free(1, 4, 0.7, Q20, t_nodes=16)
    assert r.direct.value == pytest.approx(FROZEN["pmf_d1_L4_x07"], abs=1e-6)
    assert r.integral.value == pytest.approx(FROZEN["pmf_d1_L4_x07"], abs=1e-6)
    assert abs(r.direct.value - r.integral.value) <= 1e-6
    assert r.geometry.corridor_size == 1  # d L^(d-1) = 1


def test_surface_pressure_free_oracle_sign():
    r = surface_pressure_free(1, 2, 0.8, 2, Q20, t_nodes=16)
    assert r.direct.value == pytest.approx(FROZEN["spf_d1_L2_k2_x08"], abs=1e-6)
    assert r.integral.value == pytest.approx(FROZEN["spf_d1_L2_k2_x08"], abs=1e-6)
    assert abs(r.direct.value - r.integral.value) <= 1e-6
    assert r.direct.value <= 0.0 and r.integral.value <= 0.0
    assert r.geometry.k == 2 and r.geometry.corridor_size == 2


def test_surface_pressure_periodic_oracle_and_composition():
    spp = surface_pressure_periodic(1, 2, 0.8, 2, Q20, t_nodes=16)
    assert spp.direct.value == pytest.approx(FROZEN["spp_d1_L2_k2_x08"], abs=1e-6)
    assert spp.integral.value == pytest.approx(FROZEN["spp_d1_L2_k2_x08"], abs=1e-6)
    spf = surface_pressure_free(1, 2, 0.8, 2, Q20, t_nodes=16)
    pmf = periodic_minus_free(1, 2, 0.8, Q20, t_nodes=16)
    # T_pf = T_sp - T_sf, each term from its own route
    assert pmf.integral.value == pytest.approx(spp.integral.value - spf.integral.value, abs=1e-6)
    assert pmf.direct.value == pytest.approx(spp.direct.value - spf.direct.value, abs=1e-9)


def test_small_x_prefactor_structure_1d():
    # integrand is O(x^2), so integral / (|C| x^2 / 2) -> 1 as x -> 0
    x = 0.05
    r = adjacency_term(1, 2, x, Quadrature(16), t_nodes=8, routes="integral").integral
    ratio = r.value / (1 * x * x / 2.0)
    assert 0.99 <= ratio <= 1.01


def test_mc_route_equality_and_determinism():
    m = DisorderMC(4000, seed=314)
    d = adjacency_term(2, 2, 0.8, m, routes="direct").direct
    i = adjacency_term(2, 2, 0.8, m, t_nodes=8, routes="integral").integral
    assert abs(d.value - i.value) <= 3.0 * combined_std_error(d, i)
    d2 = adjacency_term(2, 2, 0.8, m, routes="direct").direct
    assert d.value == d2.value and d.std_error == d2.std_error


def test_scaling_sweep_zero_x():
    for r in scaling_sweep(1, 0.0, [2, 4], method=Quadrature(12), t_nodes=4):
        assert r.integral.value == 0.0 and r.per_unit_surface.value == 0.0


def test_scaling_sweep_1d_constancy():
    # the 1d corridor is one bond for every L, so T_L/L^0 is nearly L-independent
    m = DisorderMC(4000, seed=2718)
    rs = scaling_sweep(1, 0.5, [2, 4, 8], method=m, t_nodes=8)
    vals = [r.per_unit_surface for r in rs]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            diff = abs(vals[i].value - vals[j].value)
            assert diff <= 3.0 * combined_std_error(vals[i], vals[j])


def test_scaling_sweep_errors():
    with pytest.raises(ValueError):
        scaling_sweep(1, 0.5, [], method=Q20)
    with pytest.raises(ValueError):
        scaling_sweep(2, 0.5, [4], method=Q20)  # beyond cap without an McmcConfig


def test_scaling_sweep_mcmc_route_smoke():
    cfg = McmcConfig(sweeps=300, burn_in=100, seed=7, measure_stride=2)
    rs = scaling_sweep(2, 0.5, [4], method=DisorderMC(4, seed=11), t_nodes=3, mcmc=cfg)
    r = rs[0]
    assert r.direct is None
    assert r.integral.std_error > 0
    assert r.per_unit_surface.value == pytest.approx(r.integral.value / 4.0, abs=1e-12)
    rs2 = scaling_sweep(2, 0.5, [4], method=DisorderMC(4, seed=11), t_nodes=3, mcmc=cfg)
    assert rs2[0].integral.value == r.integral.value


TERMS = {
    "adjacency": lambda routes: adjacency_term(1, 2, 0.8, Quadrature(8), 4, routes=routes),
    "torus-diff": lambda routes: periodic_minus_free(1, 4, 0.7, Quadrature(8), 4, routes=routes),
    "surface-free": lambda routes: surface_pressure_free(1, 2, 0.8, 2, Quadrature(8), 4, routes=routes),
    "surface-periodic": lambda routes: surface_pressure_periodic(1, 2, 0.8, 2, Quadrature(8), 4, routes=routes),
}


@pytest.mark.parametrize("name", sorted(TERMS))
def test_routes_compute_only_what_is_asked(name, monkeypatch):
    import nlsurf.quenched
    import nlsurf.surface
    from nlsurf.exact import batch_gibbs

    calls, pressures = [], []

    def counting_gibbs(lattice, K, *, bonds=(), need_log_z=False, **kwargs):
        calls.append((tuple(bonds), need_log_z))
        return batch_gibbs(lattice, K, bonds=bonds, need_log_z=need_log_z, **kwargs)

    def counting_pressure(*args):
        pressures.append(args)
        return nlsurf.quenched.quenched_pressure(*args)

    monkeypatch.setattr(nlsurf.surface, "batch_gibbs", counting_gibbs)
    monkeypatch.setattr(nlsurf.quenched, "batch_gibbs", counting_gibbs)
    monkeypatch.setattr(nlsurf.surface, "quenched_pressure", counting_pressure)
    both = TERMS[name]("both")
    del calls[:], pressures[:]

    direct = TERMS[name]("direct")
    assert calls and not any(bonds for bonds, _ in calls)
    assert direct.integral is None and direct.per_unit_surface is None and direct.integrand_tables == {}
    assert direct.direct == both.direct

    del calls[:], pressures[:]
    integral = TERMS[name]("integral")
    assert calls and not any(log_z for _, log_z in calls) and not pressures
    assert integral.direct is None and integral.integrand_tables == both.integrand_tables
    if name == "surface-periodic":  # a sum of two terms, rounded in a different order
        assert integral.integral.value == pytest.approx(both.integral.value, rel=1e-15)
    else:
        assert integral.integral == both.integral and integral.per_unit_surface == both.per_unit_surface


def test_routes_rejected():
    with pytest.raises(ValueError):
        adjacency_term(1, 2, 0.8, Q20, 4, routes="neither")
    cfg = McmcConfig(sweeps=40, burn_in=10, seed=1)
    with pytest.raises(ValueError, match="integral route only"):
        adjacency_term(2, 4, 0.5, DisorderMC(2, seed=1), 2, cfg, routes="direct")


@pytest.mark.parametrize(
    "term",
    [
        lambda m: periodic_minus_free(2, 5, 0.5, m, 2),
        lambda m: surface_pressure_free(2, 2, 0.5, 20, m, 2),
        lambda m: surface_pressure_periodic(2, 2, 0.5, 20, m, 2),
        lambda m: quenched_pressure(BOX5, uniform_params(BOX5, 0.5), m),
        lambda m: run_checks([check_le(BOX5, uniform_params(BOX5, 0.5), 0, m)]),
        lambda m: adjacency_term(2, 4, 0.5, Quadrature(6), 2),  # quadrature, and no McmcConfig to go beyond the cap
    ],
    ids=["torus-diff", "surface-free", "surface-periodic", "pressure", "run-checks", "adjacency-quadrature"],
)
def test_size_cap_checked_before_any_draw(term, monkeypatch):
    # beyond the cap a term must fail before it draws a disorder chunk
    import nlsurf.quenched
    import nlsurf.surface

    def no_draw(*args, **kwargs):
        raise AssertionError("disorder drawn for a lattice beyond the enumeration cap")

    monkeypatch.setattr(nlsurf.surface, "disorder_cores", no_draw)
    monkeypatch.setattr(nlsurf.quenched, "disorder_cores", no_draw)
    with pytest.raises(SizeCapExceeded):
        term(DisorderMC(4096, seed=1))


@pytest.mark.parametrize(
    "kwargs, offender",
    [
        ({"routes": "both"}, "routes='both'"),
        ({"routes": "direct"}, "routes='direct'"),
        ({"routes": "integral", "center_bond": 1}, "center_bond=1"),
        ({"routes": "integral", "method": Quadrature(4)}, "method=Quadrature"),
    ],
    ids=["both", "direct", "center-bond", "quadrature"],
)
def test_chain_contract_checked_before_any_draw(kwargs, offender, monkeypatch):
    # the chain path gives the integral route alone, no center bond, and
    # averages unweighted realizations: anything else is refused by name
    # before the term's disorder stream is opened
    import nlsurf.surface

    opened = []
    monkeypatch.setattr(nlsurf.surface, "disorder_cores", lambda *a, **k: opened.append(a))
    lattice, corridor = _adjacency_setup(1, 2)
    geometry = Geometry(dim=1, L=2, k=None, corridor_size=corridor.cardinality)
    method = kwargs.pop("method", DisorderMC(8, seed=1))
    cfg = McmcConfig(sweeps=20, burn_in=4, seed=1)
    term = (SurfaceTermKind.ADJACENCY_TL, geometry, lattice, corridor, 0.8, method, 2, "corridor")
    with pytest.raises(ValueError, match=re.escape(offender)):
        _interpolation_term(*term, mcmc=cfg, **kwargs)
    assert opened == []
