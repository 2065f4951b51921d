"""Quenched averaging: quadrature vs oracles, MC error behavior, CRN structure."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from nlsurf.cli import RESULT_SCHEMA
from nlsurf.exact import CouplingField, gibbs_report
from nlsurf.lattice import Boundary, build_lattice, decompose_box
from nlsurf import quenched
from nlsurf.model import NishimoriParams, interpolated_params, uniform_params
from nlsurf.quenched import (
    DisorderMC,
    GridTooLarge,
    JointJob,
    Moments,
    Quadrature,
    combined_std_error,
    disorder_cores,
    quenched_joint_many,
    quenched_pressure,
)
from nlsurf.rng import standard_normals
from nlsurf.verify import run_standard_suite, suite_report

from oracles import FROZEN

LN2 = math.log(2.0)


def test_pressure_zero_x_exact_both_methods():
    lat = build_lattice(2, 3, Boundary.PERIODIC)
    p = uniform_params(lat, 0.0)
    q = quenched_pressure(lat, p, Quadrature(20))
    assert q.value == pytest.approx(9 * LN2, abs=1e-12) and q.std_error == 0.0
    m = quenched_pressure(lat, p, DisorderMC(500, seed=1))
    # the integrand is exactly constant, so the MC spread vanishes
    assert m.value == pytest.approx(9 * LN2, abs=1e-12) and m.std_error == pytest.approx(0.0, abs=1e-13)


def test_single_bond_pressure_oracle():
    lat = build_lattice(1, 2, Boundary.FREE)
    p = uniform_params(lat, 1.0)
    got = quenched_pressure(lat, p, Quadrature(200))
    assert got.value == pytest.approx(FROZEN["pressure_1bond_x1"], abs=1e-10)
    assert got.std_error == 0.0


def test_2x2_pressure_oracle_and_mc_cross():
    lat = build_lattice(2, 2, Boundary.FREE)
    p = uniform_params(lat, 0.6)
    q = quenched_pressure(lat, p, Quadrature(20))
    assert q.value == pytest.approx(FROZEN["pressure_2x2_x06"], abs=5e-9)
    m = quenched_pressure(lat, p, DisorderMC(100_000, seed=99))
    assert abs(m.value - q.value) <= 3.0 * combined_std_error(m, q)


def test_quenched_correlation_single_bond_oracles():
    lat = build_lattice(1, 2, Boundary.FREE)
    p = uniform_params(lat, 1.0)
    job = JointJob(
        lat,
        [p],
        Quadrature(200),
        {"s": lambda v: v[0].bond[0], "s2": lambda v: v[0].bond[0] ** 2, "js": lambda v: v[0].j(0) * v[0].bond[0]},
        bonds=(0,),
    )
    [res] = quenched_joint_many([job])
    assert res["s"].value == pytest.approx(FROZEN["mean_tanh_x1"], abs=1e-10)
    assert res["s2"].value == pytest.approx(FROZEN["mean_tanh_sq_x1"], abs=1e-10)
    assert res["js"].value == pytest.approx(FROZEN["mean_j_tanh_x1"], abs=1e-8)


def test_quenched_correlation_zero_x():
    lat = build_lattice(2, 2, Boundary.FREE)
    p = uniform_params(lat, 0.0)
    functionals = {b: lambda v, b=b: v[0].bond[b] for b in range(4)}
    [res] = quenched_joint_many([JointJob(lat, [p], Quadrature(10), functionals, bonds=(0, 1, 2, 3))])
    assert all(abs(e.value) < 1e-14 for e in res.values())


def test_nishimori_identity_engine_invariant():
    # [<S_b>] = [<S_b>^2] within 1e-8 under quadrature on small instances
    for dim, side, x, nodes in [(1, 2, 0.3, 64), (1, 2, 0.7, 64), (2, 2, 0.3, 24), (2, 2, 0.7, 32)]:
        lat = build_lattice(dim, side, Boundary.FREE)
        p = uniform_params(lat, x)
        functionals = {"s": lambda v: v[0].bond[0], "s2": lambda v: v[0].bond[0] ** 2}
        [res] = quenched_joint_many([JointJob(lat, [p], Quadrature(nodes), functionals, bonds=(0,))])
        assert abs(res["s"].value - res["s2"].value) <= 1e-8


def test_pair_query():
    lat = build_lattice(1, 3, Boundary.FREE)
    p = uniform_params(lat, 0.5)
    functionals = {"pair": lambda v: v[0].pair[(0, 1)], "s": lambda v: v[0].bond[0]}
    [res] = quenched_joint_many([JointJob(lat, [p], Quadrature(40), functionals, bonds=(0,), pairs=((0, 1),))])
    # tree: <S_0 S_1> = <S_0><S_1> at fixed disorder, both bonds i.i.d.
    b = res["s"].value
    assert res["pair"].value == pytest.approx(b * b, abs=1e-9)


@pytest.mark.parametrize(
    "query,message",
    [(("bond", -1), "out of range"), (("bond", 4), "out of range"), (("j_bond", 4), "out of range"), (("pair", 1, 1), "distinct")],
)
@pytest.mark.parametrize("method", [Quadrature(6), DisorderMC(64, seed=1)])
def test_correlation_rejects_bad_bond_queries(query, message, method):
    # the same errors as the reference engine, not bond 3's value for bond -1
    lat = build_lattice(2, 2, Boundary.FREE)
    kind, *idx = query
    if kind == "pair":
        request = {"functionals": {"q": lambda v: v[0].pair[tuple(idx)]}, "pairs": (tuple(idx),)}
    else:
        request = {"functionals": {"q": lambda v: v[0].bond[idx[0]]}, "bonds": (idx[0],)}
    with pytest.raises(ValueError, match=message):
        quenched_joint_many([JointJob(lat, [uniform_params(lat, 0.8)], method, **request)])


def test_quadrature_convergence_profile():
    # Stated contract: refining 10 -> 20 -> 40 nodes moves the single-bond
    # pressure by < 1e-10; that holds at x = 0.3.  At larger x the pole
    # scaling still converges, reaching the same plateau by 80 -> 160 nodes
    # (see the decisions ledger for the measured table).
    lat = build_lattice(1, 2, Boundary.FREE)

    def pval(x, n):
        return quenched_pressure(lat, uniform_params(lat, x), Quadrature(n)).value

    assert abs(pval(0.3, 10) - pval(0.3, 20)) < 1e-10
    assert abs(pval(0.3, 20) - pval(0.3, 40)) < 1e-10
    for x in (0.7, 1.0, 2.0):
        d1, d2, d3 = (
            abs(pval(x, 10) - pval(x, 20)),
            abs(pval(x, 20) - pval(x, 40)),
            abs(pval(x, 40) - pval(x, 80)),
        )
        assert d2 < d1 and d3 < d2  # monotone refinement
        assert abs(pval(x, 80) - pval(x, 160)) < 1e-10


def test_mc_error_scaling():
    # doubling the sample count shrinks the std error by ~sqrt(2) on average
    lat = build_lattice(1, 2, Boundary.FREE)
    p = uniform_params(lat, 0.8)
    ratios = []
    for rep in range(20):
        a = quenched_pressure(lat, p, DisorderMC(600, seed=5000 + rep))
        b = quenched_pressure(lat, p, DisorderMC(1200, seed=6000 + rep))
        ratios.append(a.std_error / b.std_error)
    assert 1.30 <= np.mean(ratios) <= 1.55


def test_mc_determinism():
    lat = build_lattice(2, 2, Boundary.FREE)
    p = uniform_params(lat, 0.6)
    a = quenched_pressure(lat, p, DisorderMC(3000, seed=42))
    b = quenched_pressure(lat, p, DisorderMC(3000, seed=42))
    assert a.value == b.value and a.std_error == b.std_error


def test_moments_shifted_and_weighted():
    # a mean of 1e6 against a spread of 1: unshifted sums of squares would
    # lose the variance to cancellation
    gen = np.random.default_rng(5)
    rows = 1e6 + gen.standard_normal((2, 1000))
    w = gen.uniform(0.1, 1.0, 1000)
    chunks = ((0, 137), (137, 700), (700, 1000))
    mc, quad = Moments(), Moments()
    for lo, hi in chunks:
        mc.add([rows[0, lo:hi], rows[1, lo:hi]], None)
        quad.add([rows[0, lo:hi]], w[lo:hi])
    for est, r in zip(mc.estimates(), rows, strict=True):
        assert est.value == pytest.approx(r.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(r.std(ddof=1) / math.sqrt(len(r)), rel=1e-12)
    (est,) = quad.estimates()
    assert est.value == pytest.approx(np.average(rows[0], weights=w), rel=1e-12)
    assert est.std_error == 0.0


def test_grid_cap():
    lat = build_lattice(2, 4, Boundary.FREE)  # 24 bonds
    with pytest.raises(GridTooLarge):
        quenched_pressure(lat, uniform_params(lat, 0.5), Quadrature(20))


def _corridor_integrand(lat, corridor, x, t, g):
    """<S_C> at fixed normal core g and interpolation time t: couplings x_t (x_t + g)."""
    x_t = interpolated_params(lat, corridor, x, t).x
    idx = corridor.sorted_indices()
    rep = gibbs_report(lat, CouplingField(x_t * (x_t + g)), bonds=idx)
    return sum(rep.correlations[b] for b in idx) / len(idx)


def _first_core(lat, seed):
    """Realization 0 of the seeded disorder stream: column 0 of the first chunk."""
    core, _ = next(disorder_cores(lat, DisorderMC(2, seed)))
    return core[:, 0]


def _chain_core(seed):
    lat = build_lattice(1, 4, Boundary.FREE)
    return lat, decompose_box(lat).corridor, _first_core(lat, seed)


def test_corridor_integrand_zero_cases():
    lat, corridor, g = _chain_core(13)
    # t = 0 decouples the sub-chains; each factor is a zero-field single box
    assert _corridor_integrand(lat, corridor, 0.8, 0.0, g) == pytest.approx(0.0, abs=1e-14)
    lat2d = build_lattice(2, 4, Boundary.FREE)
    corridor2d = decompose_box(lat2d).corridor
    assert _corridor_integrand(lat2d, corridor2d, 0.8, 0.0, _first_core(lat2d, 14)) == pytest.approx(0.0, abs=1e-12)

    lat0, corridor0, g0 = _chain_core(2)
    for t in (0.0, 0.3, 1.0):
        assert _corridor_integrand(lat0, corridor0, 0.0, t, g0) == pytest.approx(0.0, abs=1e-14)


def test_crn_smoothness_in_t():
    # for fixed g the integrand moves slowly in t: |f(t + 1e-4) - f(t)| <= 1e-2
    lat, corridor, g = _chain_core(33)
    for t in np.linspace(1e-4, 1.0 - 1e-4, 23):
        a = _corridor_integrand(lat, corridor, 1.0, float(t), g)
        b = _corridor_integrand(lat, corridor, 1.0, float(t) + 1e-4, g)
        assert abs(b - a) <= 1e-2


def test_disorder_cores_rows_are_keyed_draws():
    # the Monte Carlo cores are bond-major (bonds, samples); column s is
    # standard_normals(seed, bonds, s) whatever chunk it falls in, so a
    # realization can be regenerated from (seed, s) alone
    lat = build_lattice(2, 2, Boundary.FREE)
    bonds = np.arange(lat.n_bonds)
    drawn = list(disorder_cores(lat, DisorderMC(5000, seed=1234)))
    assert [core.shape for core, _ in drawn] == [(lat.n_bonds, 4096), (lat.n_bonds, 904)]
    assert all(core.flags.c_contiguous and w is None for core, w in drawn)
    cores = np.concatenate([core for core, _ in drawn], axis=1)
    for s in (0, 1, 4094, 4095, 4096, 4097, 4999):
        assert cores[:, s].tobytes() == standard_normals(1234, bonds, s).tobytes()
    assert cores.tobytes() == standard_normals(1234, bonds[:, None], np.arange(5000)[None, :]).tobytes()


def test_disorder_cores_peak_memory_is_cache_sized():
    # 8192 samples on the 4x4 box, consumed chunk by chunk: Philox over a
    # whole (24, 4096) chunk held 9 MiB of temporaries, in blocks of
    # rng._BLOCK counters the draw stays under 6 MiB
    lat = build_lattice(2, 4, Boundary.FREE)
    tracemalloc.start()
    try:
        for _ in disorder_cores(lat, DisorderMC(8192, seed=1)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def _unravel_walk(lat, nodes, active, x_ref):
    """Quadrature (core, weights) chunks from one np.unravel_index per chunk: the reference digit walk."""
    eps, w = hermegauss(nodes)
    wnorm = w / math.sqrt(2.0 * math.pi)
    act = np.flatnonzero(active)
    grids = []
    for b in act:
        s = quenched.gh_scale(float(x_ref[b]))
        grids.append((eps, wnorm) if s == 1.0 else (s * eps, wnorm * s * np.exp((1.0 - s * s) * eps * eps / 2.0)))
    total = nodes ** len(act)
    for lo in range(0, total, quenched._CHUNK):
        hi = min(lo + quenched._CHUNK, total)
        digits = np.unravel_index(np.arange(lo, hi), (nodes,) * len(act)) if len(act) else ()
        core, weights = np.zeros((lat.n_bonds, hi - lo)), np.ones(hi - lo)
        for b, (nd, wt), digit in zip(act, grids, digits):
            core[b] = nd[digit]
            weights *= wt[digit]
        yield core, weights


@pytest.mark.parametrize(
    "nodes, n_active",
    [
        (2, 0), (2, 1), (2, 2), (2, 4),
        (2, 12),  # 4096 rows: one full chunk, bond 0's period exactly a chunk
        (3, 0), (3, 1), (3, 2), (3, 4),
        (3, 8),  # 6561 rows: a short last chunk, bond 0's period longer than a chunk
        (24, 1), (24, 2),
        (24, 4),  # periods 24 and 576 tiled, 13,824 and 331,776 in runs of 576 and 13,824
        (40, 1), (40, 2),
        (40, 3),  # 64,000 rows: a short last chunk, bond 0 in runs of 1600 across chunk ends
        (40, 4),
        (200, 1),
        (200, 2),  # 40,000 rows: runs of 200 rows, about 20 a chunk
    ],
)
def test_grid_walk_matches_unravel_index(nodes, n_active):
    # every second bond of the 4x4 box is active, so inactive bonds sit
    # between active ones; node scales mix 1 (x 0.5) and two pole-scaled ones
    lat = build_lattice(2, 4, Boundary.FREE)
    active = np.zeros(lat.n_bonds, dtype=bool)
    active[2 * np.arange(n_active) + 1] = True
    x_ref = np.resize([0.5, 1.2, 2.0], lat.n_bonds)
    walked = list(disorder_cores(lat, Quadrature(nodes), active, x_ref))
    reference = list(_unravel_walk(lat, nodes, active, x_ref))
    assert len(walked) == len(reference) == -(-nodes**n_active // quenched._CHUNK)
    for (core, weights), (ref_core, ref_weights) in zip(walked, reference):
        assert core.tobytes() == ref_core.tobytes() and weights.tobytes() == ref_weights.tobytes()


def _count_passes(monkeypatch, first_chunk_only=False):
    """Record every disorder_cores call; optionally cut each pass to one chunk."""
    calls = []
    real = quenched.disorder_cores

    def counting(*args, **kwargs):
        calls.append(args)
        for n, item in enumerate(real(*args, **kwargs)):
            if first_chunk_only and n:
                return
            yield item

    monkeypatch.setattr(quenched, "disorder_cores", counting)
    return calls


def _jobs(lat, xs, method=Quadrature(6), lat2=None):
    """Two jobs with different requests: the first asks for bond moments of
    variant xs[0], the second (on lat2, default lat) for log Z and a pair of
    variants xs[1], xs[2]."""
    p = [NishimoriParams(x=np.asarray(x, dtype=float)) for x in xs]
    return [
        JointJob(lat, [p[0]], method, {"s": lambda v: v[0].bond[0], "js": lambda v: v[0].j(0) * v[0].bond[0]}, bonds=(0,)),
        JointJob(
            lat2 or lat, [p[1], p[2]], method,
            {"dz": lambda v: v[0].log_z - v[1].log_z, "pp": lambda v: v[1].pair[(0, 2)] * v[0].bond[2]},
            bonds=(2,), pairs=((0, 2),), need_log_z=True,
        ),
    ]


X3, X12 = [0.3] * 4, [1.2] * 4


@pytest.mark.parametrize(
    "xs, passes, twin",
    [
        ([X12, [1.2001] + X12[1:], X12], 2, False),  # the bump is the second job's reference point: its node scale moves
        ([X3, [0.3001] + X3[1:], X3], 1, False),  # node scale 1 either way: one grid, X3 enumerated once
        ([X3, X3[:3] + [0.0], X3[:3] + [0.0]], 2, False),  # a zero-x bond is inactive: another grid
        ([X12, X12, [1.2001] + X12[1:]], 1, False),  # a bump after the reference point keeps its grid
        ([X3, [0.3001] + X3[1:], X3], 1, True),  # the second job on a separate but equal lattice object: still one grid
    ],
    ids=["xs0-2", "xs1-1", "xs2-2", "xs3-1", "twin-lattice-1"],
)
def test_joint_many_one_pass_per_grid(monkeypatch, xs, passes, twin):
    lat = build_lattice(2, 2, Boundary.FREE)
    jobs = _jobs(lat, xs, lat2=build_lattice(2, 2, Boundary.FREE) if twin else None)
    lone = [quenched_joint_many([j])[0] for j in jobs]
    calls = _count_passes(monkeypatch)
    assert quenched_joint_many(jobs) == lone  # Estimate fields compared with ==, bit for bit
    assert len(calls) == passes


def test_joint_many_mc_groups_by_seed(monkeypatch):
    lat = build_lattice(2, 2, Boundary.FREE)
    xs = [X3, [0.3001] + X3[1:], X3]
    jobs = _jobs(lat, xs, DisorderMC(300, seed=4)) + _jobs(lat, xs, DisorderMC(300, seed=5))
    lone = [quenched_joint_many([j])[0] for j in jobs]
    calls = _count_passes(monkeypatch)
    assert quenched_joint_many(jobs) == lone
    assert len(calls) == 2


def _suite_digest(reports):
    return hashlib.sha256(json.dumps(suite_report(reports), sort_keys=True).encode()).hexdigest()[:16]


def test_standard_suite_passes(monkeypatch):
    # 81 checks (99 jobs) share 8 grids (each finite-difference family the
    # grid of its unperturbed point); cutting each pass to its first chunk
    # keeps the count and makes the test cheap.  The digest pins the
    # quadrature digits, node scales, product weights and orbit
    # representatives of those chunks; when it moves on purpose,
    # RESULT_SCHEMA moves with it
    calls = _count_passes(monkeypatch, first_chunk_only=True)
    reports = run_standard_suite()
    assert len(reports) == 117
    assert len(calls) == 8
    assert (RESULT_SCHEMA, _suite_digest(reports)) == ("nlsurf.result.v11", "136f1cf21f170e63")


def test_standard_suite_mc_bytes_pinned_to_schema():
    # the Monte Carlo core path: keyed draws, float32 engine and shifted sums
    reports = run_standard_suite(DisorderMC(2000, 1))
    assert (RESULT_SCHEMA, _suite_digest(reports)) == ("nlsurf.result.v11", "916b8e6b00215d08")


def _orbit_count(lat, nodes, active, group):
    """Orbits of the grid under the group, by brute force: distinct lowest image indices."""
    act = np.flatnonzero(active)
    digits = np.array(np.unravel_index(np.arange(nodes ** len(act)), (nodes,) * len(act)))
    position = np.zeros(lat.n_bonds, dtype=int)
    position[act] = np.arange(len(act))
    lowest = np.full(digits.shape[1], np.iinfo(np.int64).max)
    for pi in group:  # the image has p[pi^-1(b)] on bond b: digit j lands at position pos(pi(act[j]))
        image = np.zeros_like(digits)
        image[position[pi[act]]] = digits
        lowest = np.minimum(lowest, np.ravel_multi_index(tuple(image), (nodes,) * len(act)))
    return len(np.unique(lowest))


def _bump(x, b, h):
    x = np.array(x, dtype=float)
    x[b] += h
    return NishimoriParams(x=x)


def _orbit_jobs(lat, x, family, method):
    """A finite-difference family that the group maps onto itself, or a lone perturbed variant."""
    base = uniform_params(lat, x)
    if family == "fd":
        variants = [base] + [_bump(base.x, b, s * 1e-3) for b in range(lat.n_bonds) for s in (1, -1)]
    else:
        variants = [_bump(base.x, 0, 1e-3)]  # x <= 0.9: node scale 1, so the whole group keeps the grid
    pairs = ((0, 1), (lat.n_bonds - 1, 0))
    functionals = {
        "dz": lambda v: sum((-1) ** i * vc.log_z for i, vc in enumerate(v)),
        "z": lambda v: v[-1].log_z,
        "s": lambda v: v[0].bond[0] * v[-1].bond[1],
        "js": lambda v: v[-1].j(1) * v[-1].bond[1] + v[0].j(0),
        "pp": lambda v: v[0].pair[pairs[0]] - v[-1].pair[pairs[1]] ** 2,
    }
    return [JointJob(lat, variants, method, functionals, bonds=(0, 1), pairs=pairs, need_log_z=True)]


_ORBIT_CASES = {  # grids of more than one chunk, the smallest that _grid reduces by the group
    "box-2x2": (2, 2, Boundary.FREE, 9, 8),
    "chain-4": (1, 4, Boundary.FREE, 17, 2),
    "ring-5": (1, 5, Boundary.PERIODIC, 6, 10),
    "torus-3x3": (2, 3, Boundary.PERIODIC, 2, 72),
}


@pytest.mark.parametrize(
    "case, family, x",
    [(case, family, x) for case in _ORBIT_CASES for family, x in (("fd", 1.3), ("lone", 0.6)) if case != "torus-3x3" or family == "lone"],
)
def test_orbit_sums_match_full_grid(monkeypatch, case, family, x):
    # x = 1.3 is pole-scaled (node scale below 1); the lone bumped variant is
    # not invariant, so its closure under the group adds source variants
    dim, side, boundary, nodes, order = _ORBIT_CASES[case]
    lat = build_lattice(dim, side, boundary)
    jobs = _orbit_jobs(lat, x, family, Quadrature(nodes))
    rows = []
    real = quenched.batch_gibbs

    def counting(lattice, K_batch, **kwargs):
        rows.append(len(K_batch))
        return real(lattice, K_batch, **kwargs)

    monkeypatch.setattr(quenched, "batch_gibbs", counting)
    telemetry = []
    [orbit] = quenched_joint_many(jobs, telemetry=telemetry)
    group = quenched._grid(jobs[0])[3]
    assert len(group) == order
    reps = _orbit_count(lat, nodes, np.ones(lat.n_bonds, dtype=bool), group)
    sources = {v.x[pi].tobytes() for v in jobs[0].variants for pi in group}
    assert family == "fd" or len(sources) > len(jobs[0].variants)
    assert sum(rows) == reps * len(sources)
    [record] = telemetry
    assert (record["group_order"], record["representatives"], record["source_variants"]) == (len(group), reps, len(sources))
    assert (record["grid_points"], record["engine_rows"]) == (nodes**lat.n_bonds, sum(rows))

    identity = np.arange(lat.n_bonds)[None, :]
    monkeypatch.setattr(quenched, "bond_automorphisms", lambda lattice: identity)
    rows.clear()
    [full] = quenched_joint_many(jobs)
    assert sum(rows) == nodes**lat.n_bonds * len(jobs[0].variants)
    for name, est in full.items():
        assert orbit[name].value == pytest.approx(est.value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("nodes, order", [(8, 1), (9, 8)])
def test_grid_of_one_chunk_uses_no_symmetries(nodes, order):
    # 8**4 points fit one chunk: the 2x2 box's symmetries would only repeat
    # the functionals, so the grid keeps the identity alone
    lat = build_lattice(2, 2, Boundary.FREE)
    job = JointJob(lat, [uniform_params(lat, 0.5)], Quadrature(nodes), {"z": lambda v: v[0].log_z}, need_log_z=True)
    group = quenched._grid(job)[3]
    assert len(group) == order and (group[0] == np.arange(lat.n_bonds)).all()


@pytest.mark.parametrize("method", [Quadrature(8), DisorderMC(100, 1)], ids=["quadrature", "mc"])
def test_job_sees_only_its_own_requests(method):
    # a functional that reads bond 1 while its job requests bond 0 fails
    # alone, and still fails when a job on the same variant requests bond 1
    lat = build_lattice(1, 3, Boundary.FREE)
    p = uniform_params(lat, 0.5)
    greedy = JointJob(lat, [p], method, {"s": lambda v: v[0].bond[1]}, bonds=(0,))
    neighbour = JointJob(lat, [p], method, {"s": lambda v: v[0].bond[1], "z": lambda v: v[0].log_z}, bonds=(1,), need_log_z=True)
    for jobs in ([greedy], [greedy, neighbour], [neighbour, greedy]):
        with pytest.raises(KeyError):
            quenched_joint_many(jobs)
    # log Z is a request too: a job without need_log_z reads None beside one with it
    blind = JointJob(lat, [p], method, {"none": lambda v: np.full(v[0].core.shape[1], float(v[0].log_z is None))}, bonds=(0,))
    assert quenched_joint_many([blind, neighbour])[0]["none"].value == pytest.approx(1.0)


@pytest.mark.parametrize("method", [Quadrature(8), DisorderMC(100, 1)], ids=["quadrature", "mc"])
@pytest.mark.parametrize(
    "functional", [lambda v: v[0].log_z, lambda v: 0.5], ids=["log-z-not-requested", "float"]
)
def test_functional_without_one_value_per_row_is_named(method, functional):
    # None (log Z that the job did not request) or a scalar is not a row of
    # per-sample values: the error names the functional
    lat = build_lattice(1, 3, Boundary.FREE)
    job = JointJob(lat, [uniform_params(lat, 0.5)], method, {"bad": functional}, bonds=(0,))
    with pytest.raises(ValueError, match="functional 'bad' returned"):
        quenched_joint_many([job])


def test_node_count_is_capped():
    # numpy's Hermite rule returns non-finite weights from 372 nodes
    with pytest.raises(ValueError, match="nodes_per_bond"):
        Quadrature(400)
    with pytest.raises(ValueError, match="nodes_per_bond"):
        Quadrature(quenched.QUADRATURE_NODE_CAP + 1)
    eps, w = quenched._hermite_rule(quenched.QUADRATURE_NODE_CAP)
    assert np.isfinite(eps).all() and np.isfinite(w).all() and (w > 0).all()
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("nodes, n_active", [(3, 8), (40, 3), (24, 4)])
def test_identity_group_walks_the_full_grid(nodes, n_active):
    # the identity alone leaves every point its own representative: the same
    # chunks, byte for byte, as the walk without a group
    lat = build_lattice(2, 4, Boundary.FREE)
    active = np.zeros(lat.n_bonds, dtype=bool)
    active[2 * np.arange(n_active) + 1] = True
    x_ref = np.resize([0.5, 1.2, 2.0], lat.n_bonds)
    walked = list(disorder_cores(lat, Quadrature(nodes), active, x_ref, np.arange(lat.n_bonds)[None, :]))
    reference = list(_unravel_walk(lat, nodes, active, x_ref))
    assert len(walked) == len(reference)
    for (core, weights), (ref_core, ref_weights) in zip(walked, reference):
        assert core.tobytes() == ref_core.tobytes() and weights.tobytes() == ref_weights.tobytes()


def test_orbit_pass_never_writes_into_engine_output(monkeypatch):
    # a functional may hand back the engine's own array; every image of a
    # representative reaches Moments as it is, so read-only engine output
    # runs through an orbit-reduced pass and gives the same estimate
    lat = build_lattice(2, 2, Boundary.FREE)
    job = JointJob(lat, [uniform_params(lat, 0.5)], Quadrature(9), {"s0": lambda v: v[0].bond[0]}, bonds=(0,))
    expected = quenched_joint_many([job])
    engine = quenched.batch_gibbs

    def read_only(*args, **kwargs):
        bg = engine(*args, **kwargs)
        for a in [bg.log_z, *bg.bond.values(), *bg.pair.values()]:
            if a is not None:
                a.setflags(write=False)
        return bg

    monkeypatch.setattr(quenched, "batch_gibbs", read_only)
    telemetry = []
    assert quenched_joint_many([job], telemetry=telemetry) == expected
    assert telemetry[0]["group_order"] == 8
