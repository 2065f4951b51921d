"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Quadrature checks are absolute; Monte Carlo checks use three combined
standard errors; stochastic gates are seed-pinned.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from nlsurf.cli import EXIT_OK, run
from nlsurf.exact import CouplingField, gibbs_report
from nlsurf.lattice import Boundary, build_lattice
from nlsurf.mcmc import McmcConfig, blocked_estimate, run_chains
from nlsurf.model import NishimoriParams, uniform_params
from nlsurf.quenched import DisorderMC, JointJob, Quadrature, combined_std_error, disorder_cores, quenched_joint_many
from nlsurf.surface import (
    adjacency_term,
    periodic_minus_free,
    scaling_sweep,
    surface_pressure_free,
    surface_pressure_periodic,
)
from nlsurf.verify import CheckId, run_standard_suite


def _announce(num: int, label: str):
    print(f"ACCEPTANCE {num} [{label}]: PASS")


def test_acceptance_01_le_identity():
    t0 = time.perf_counter()
    reports = run_standard_suite(checks=(CheckId.LE,))
    elapsed = time.perf_counter() - t0
    assert all(r.passed for r in reports)
    assert max(r.discrepancy for r in reports) <= 1e-7
    assert elapsed < 10.0, f"LE suite took {elapsed:.1f}s (budget 10s)"
    _announce(1, f"[<j_b S_b>] = x_b on the standard suite, <=1e-7, {elapsed:.1f}s")


def test_acceptance_02_mq_and_identity_group():
    reports = run_standard_suite(
        checks=(CheckId.LE, CheckId.MQ, CheckId.IDSET_A, CheckId.IDSET_B, CheckId.IDSET_C)
    )
    assert all(r.passed for r in reports)
    assert max(r.discrepancy for r in reports) <= 1e-7
    # seven equality checks per (instance, x, pair): LE, MQ, A, three B pairs, C
    by_kind = {k: sum(r.check_id is k for r in reports) for k in CheckId}
    assert by_kind[CheckId.IDSET_B] == 3 * by_kind[CheckId.IDSET_A]
    _announce(2, "mq and the identity group (seven equalities), <=1e-7")


def test_acceptance_03_g1():
    reports = run_standard_suite(checks=(CheckId.G1,))
    assert all(r.passed for r in reports)
    assert max(r.discrepancy for r in reports) <= 1e-5
    assert all(r.rhs.value >= -1e-12 for r in reports)
    _announce(3, "dP/dx_b = x_b[<S_b+1>] >= 0, finite difference <=1e-5")


def test_acceptance_04_g2():
    reports = run_standard_suite(checks=(CheckId.G2,))
    assert all(r.passed for r in reports)
    assert max(r.discrepancy for r in reports) <= 1e-5
    assert all(r.rhs.value >= 0.0 for r in reports)
    # tree instances: analytic side exactly zero; plaquette: strictly positive
    trees = [r for r in reports if "1d" in r.instance]
    boxes = [r for r in reports if "2d" in r.instance]
    assert trees and all(abs(r.rhs.value) <= 1e-12 for r in trees)
    assert boxes and all(r.rhs.value > 1e-4 for r in boxes)
    # monotonicity corollary along an x_b' grid
    lat = build_lattice(2, 2, Boundary.FREE)
    vals = []
    for xb2 in np.arange(0.0, 1.501, 0.25):
        x = np.full(4, 0.6)
        x[2] = xb2
        [res] = quenched_joint_many([JointJob(lat, [NishimoriParams(x=x)], Quadrature(40), {"s": lambda v: v[0].bond[0]}, bonds=(0,))])
        vals.append(res["s"].value)
    assert np.all(np.diff(vals) >= -1e-9)
    _announce(4, "d[<S_b>]/dx_b' identity, sign, tree zero, monotone grid")


def test_acceptance_05_adjacency_route_equality():
    t0 = time.perf_counter()
    for x in (0.4, 0.8):
        d = adjacency_term(1, 2, x, Quadrature(20), routes="direct").direct
        i = adjacency_term(1, 2, x, Quadrature(20), t_nodes=16, routes="integral").integral
        assert abs(d.value - i.value) <= 1e-6, f"d=1 x={x}: {abs(d.value - i.value):.2e}"
    for x in (0.4, 0.8):
        m = DisorderMC(100_000, seed=1001)
        d = adjacency_term(2, 2, x, m, routes="direct").direct
        i = adjacency_term(2, 2, x, m, t_nodes=12, routes="integral").integral
        bound = 3.0 * combined_std_error(d, i)
        assert abs(d.value - i.value) <= bound, f"d=2 x={x}: {abs(d.value - i.value):.2e} > {bound:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"adjacency routes took {elapsed:.0f}s (budget 5 min)"
    _announce(5, f"adjacency direct = integral (1e-6 quad / 3 sigma at 1e5 samples), {elapsed:.0f}s")


def test_acceptance_06_torus_route_equality():
    r = periodic_minus_free(1, 4, 0.4, Quadrature(20), t_nodes=16)
    assert abs(r.direct.value - r.integral.value) <= 1e-6
    r = periodic_minus_free(1, 4, 0.8, Quadrature(20), t_nodes=16)
    assert abs(r.direct.value - r.integral.value) <= 1e-6
    for x in (0.4, 0.8):
        r = periodic_minus_free(2, 3, x, DisorderMC(100_000, seed=1002), t_nodes=12)
        bound = 3.0 * combined_std_error(r.direct, r.integral)
        assert abs(r.direct.value - r.integral.value) <= bound
    _announce(6, "torus minus free box: direct = integral on d=1 L=4 and d=2 L=3")


def test_acceptance_07_surface_pressure_sign_and_composition():
    # d = 1, quadrature: exact tolerances
    q = Quadrature(20)
    spf = surface_pressure_free(1, 2, 0.8, 2, q, t_nodes=16)
    spp = surface_pressure_periodic(1, 2, 0.8, 2, q, t_nodes=16)
    pmf = periodic_minus_free(1, 2, 0.8, q, t_nodes=16)
    assert abs(spf.direct.value - spf.integral.value) <= 1e-6
    assert abs(spp.direct.value - spp.integral.value) <= 1e-6
    assert spf.direct.value < 0 and spf.integral.value < 0
    assert abs(pmf.integral.value - (spp.integral.value - spf.integral.value)) <= 1e-6
    assert abs(pmf.direct.value - (spp.direct.value - spf.direct.value)) <= 1e-6

    # d = 2, disorder MC at 1e5 samples
    m = DisorderMC(100_000, seed=1003)
    spf = surface_pressure_free(2, 2, 0.6, 2, m, t_nodes=12)
    spp = surface_pressure_periodic(2, 2, 0.6, 2, m, t_nodes=12)
    pmf = periodic_minus_free(2, 2, 0.6, m, t_nodes=12)
    assert abs(spf.direct.value - spf.integral.value) <= 3.0 * combined_std_error(spf.direct, spf.integral)
    assert abs(spp.direct.value - spp.integral.value) <= 3.0 * combined_std_error(spp.direct, spp.integral)
    # sign resolved at >= 3 sigma
    assert spf.integral.value + 3.0 * spf.integral.std_error < 0.0
    assert spf.direct.value + 3.0 * spf.direct.std_error < 0.0
    # composition, both routes
    comp = spp.direct.value - spf.direct.value
    se = math.hypot(pmf.direct.std_error, math.hypot(spp.direct.std_error, spf.direct.std_error))
    assert abs(pmf.direct.value - comp) <= 3.0 * se
    assert abs(pmf.integral.value - (spp.integral.value - spf.integral.value)) <= 3.0 * math.hypot(
        pmf.integral.std_error, math.hypot(spp.integral.std_error, spf.integral.std_error)
    )
    _announce(7, "surface pressures: routes agree, T_free <= 0 at 3 sigma, composition holds")


def test_acceptance_08_small_x_prefactor():
    x = 0.05
    est = adjacency_term(2, 2, x, DisorderMC(20_000, seed=1004), t_nodes=8, routes="integral").integral
    ratio = est.value / (8 * x * x / 2.0)
    assert 0.99 <= ratio <= 1.01, f"ratio {ratio:.5f}"
    _announce(8, f"small-x structure: integral / (|C| x^2/2) = {ratio:.4f} in [0.99, 1.01]")


def test_acceptance_09_mcmc_vs_exact():
    lat = build_lattice(2, 3, Boundary.PERIODIC)
    params = uniform_params(lat, 0.5)
    bonds = tuple(range(lat.n_bonds))
    worst = 0.0
    cores, _ = next(disorder_cores(lat, DisorderMC(5, seed=888)))  # realizations 0..4
    for s in range(5):
        K = params.x * (params.x + cores[:, s])
        cfg = McmcConfig(sweeps=60_000, burn_in=2_000, seed=5000 + s, measure_stride=2)
        series = run_chains(lat, K[None, :], [cfg.seed], cfg, bonds)[0]
        est = [blocked_estimate(series[0, :, b])[:2] for b in bonds]  # (mean, blocked std error)
        exact = gibbs_report(lat, CouplingField(K), bonds=bonds)
        for b, (mean, se) in zip(bonds, est):
            z = abs(mean - exact.correlations[b]) / se
            worst = max(worst, z)
        assert all(
            abs(mean - exact.correlations[b]) <= 3.0 * se for b, (mean, se) in zip(bonds, est)
        ), f"draw {s}: a bond misses 3 blocked sigma"
        if s == 0:
            series2 = run_chains(lat, K[None, :], [cfg.seed], cfg, bonds)[0]
            assert [blocked_estimate(series2[0, :, b])[:2] for b in bonds] == est
    _announce(9, f"chain vs exact on 3x3 torus, 5 draws, worst z = {worst:.2f} <= 3; reruns bit-identical")


def test_acceptance_10_scaling_evidence():
    t0 = time.perf_counter()
    cfg = McmcConfig(sweeps=1500, burn_in=500, seed=77, measure_stride=2)
    rs = scaling_sweep(2, 0.5, [4, 6, 8], method=DisorderMC(24, seed=909), t_nodes=8, mcmc=cfg)
    vals = [r.per_unit_surface for r in rs]
    assert all(v.std_error > 0 for v in vals)  # error bars reported
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            rel = abs(vals[i].value - vals[j].value) / max(abs(vals[i].value), abs(vals[j].value))
            assert rel <= 0.25, f"L={rs[i].geometry.L} vs L={rs[j].geometry.L}: {rel:.2%}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 7200.0
    per_unit = ", ".join(f"L={r.geometry.L}: {r.per_unit_surface.value:.4f}+-{r.per_unit_surface.std_error:.4f}" for r in rs)
    _announce(10, f"finite-size evidence (no limit claimed): {per_unit}, {elapsed:.0f}s")


def test_acceptance_11_determinism(tmp_path, monkeypatch):
    # quadrature-backed number reproduces byte-exactly from its manifest
    out = tmp_path / "quad.json"
    argv = ["adjacency", "--dim", "1", "--L", "2", "--x", "0.8", "--method", "quadrature",
            "--t-nodes", "16", "--out", str(out)]
    assert run(argv) == EXIT_OK
    first = out.read_bytes()
    assert run(["rerun", "--manifest", str(tmp_path / "quad.manifest.json"), "--out", str(tmp_path / "quad2.json")]) == EXIT_OK
    assert (tmp_path / "quad2.json").read_bytes() == first

    # seeded MC number reproduces byte-exactly
    out = tmp_path / "mc.json"
    argv = ["torus-diff", "--dim", "2", "--L", "3", "--x", "0.5", "--method", "mc",
            "--samples", "5000", "--seed", "31", "--t-nodes", "6", "--out", str(out)]
    assert run(argv) == EXIT_OK
    first = out.read_bytes()
    assert run(["rerun", "--manifest", str(tmp_path / "mc.manifest.json"), "--out", str(tmp_path / "mc2.json")]) == EXIT_OK
    assert (tmp_path / "mc2.json").read_bytes() == first

    # the thread count cannot change the two-level estimator: at one CPU the
    # chains draw in line, at two on the helper thread
    cfg = McmcConfig(sweeps=400, burn_in=100, seed=5, measure_stride=2)
    a, b = [], []
    for cpus, runs in ((1, a), (2, b)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        runs += scaling_sweep(2, 0.5, [4], method=DisorderMC(4, seed=3), t_nodes=3, mcmc=cfg)
        assert runs[0].chain_telemetry["threads"] == cpus
    assert a[0].integral.value == b[0].integral.value
    assert a[0].integral.std_error == b[0].integral.std_error
    _announce(11, "bit-exact reruns from manifests; thread-count independent")
