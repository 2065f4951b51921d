"""Identity and inequality checks: trivial cases, oracles, MC failure rates."""

import json

import numpy as np
import pytest

from nlsurf import rng
from nlsurf.lattice import Boundary, build_lattice
from nlsurf.model import NishimoriParams, uniform_params
from nlsurf.quenched import DisorderMC, JointJob, Quadrature, quenched_joint_many
from nlsurf.verify import (
    STANDARD_X_VALUES,
    CheckId,
    check_g1,
    check_g2,
    check_idset,
    check_le,
    check_mq,
    run_checks,
    run_standard_suite,
    standard_instances,
    suite_report,
)

LAT1 = build_lattice(1, 2, Boundary.FREE)
LAT3 = build_lattice(1, 3, Boundary.FREE)
LAT4 = build_lattice(2, 2, Boundary.FREE)


def test_le_trivial_and_oracle():
    [r] = run_checks([check_le(LAT1, uniform_params(LAT1, 0.0), 0, Quadrature(20))])
    assert r.passed and abs(r.lhs.value) < 1e-14 and r.rhs.value == 0.0
    [r] = run_checks([check_le(LAT1, uniform_params(LAT1, 1.0), 0, Quadrature(200), tol=1e-8)])
    assert r.passed and r.discrepancy <= 1e-8
    for b in (0, 2):
        [r] = run_checks([check_le(LAT4, uniform_params(LAT4, 0.7), b, Quadrature(32))])
        assert r.passed and r.rhs.value == pytest.approx(0.7)


def test_mq_examples():
    [r] = run_checks([check_mq(LAT1, uniform_params(LAT1, 1.0), 0, Quadrature(200), tol=1e-8)])
    assert r.passed
    [r] = run_checks([check_mq(LAT4, uniform_params(LAT4, 0.5), 1, Quadrature(24))])
    assert r.passed


def test_g1_cases():
    [r] = run_checks([check_g1(LAT1, uniform_params(LAT1, 0.0), 0, Quadrature(40))])
    assert r.passed and abs(r.lhs.value) <= 1e-5 and r.rhs.value == 0.0
    [r] = run_checks([check_g1(LAT1, uniform_params(LAT1, 1.0), 0, Quadrature(200), tol=1e-6)])
    assert r.passed
    for b in range(4):
        [r] = run_checks([check_g1(LAT4, uniform_params(LAT4, 0.6), b, Quadrature(24))])
        assert r.passed
        assert 0.0 <= r.rhs.value <= 2 * 0.6


def test_g2_tree_and_plaquette():
    [r] = run_checks([check_g2(LAT3, uniform_params(LAT3, 0.9), 0, 1, Quadrature(64))])
    assert r.passed
    assert abs(r.rhs.value) <= 1e-12  # tree: connected correlation vanishes
    assert abs(r.lhs.value) <= 1e-6

    [r] = run_checks([check_g2(LAT4, uniform_params(LAT4, 0.0), 0, 2, Quadrature(16))])
    assert r.passed and r.rhs.value == 0.0

    [r] = run_checks([check_g2(LAT4, uniform_params(LAT4, 0.6), 0, 2, Quadrature(24))])
    assert r.passed and r.rhs.value > 1e-3
    for check in (check_g2, check_idset):
        with pytest.raises(ValueError):
            check(LAT4, uniform_params(LAT4, 0.6), 1, 1, Quadrature(16))


def test_idset_cases():
    for r in run_checks([check_idset(LAT4, uniform_params(LAT4, 0.0), 0, 2, Quadrature(12))]):
        assert r.passed and abs(r.lhs.value) < 1e-14 and abs(r.rhs.value) < 1e-14
    rs = run_checks([check_idset(LAT3, uniform_params(LAT3, 1.0), 0, 1, Quadrature(128), tol=1e-8)])
    assert len(rs) == 5
    assert all(r.passed for r in rs)
    rs = run_checks([check_idset(LAT4, uniform_params(LAT4, 0.8), 0, 2, Quadrature(32))])
    assert all(r.passed for r in rs)
    ids = [r.check_id for r in rs]
    assert ids.count(CheckId.IDSET_B) == 3


def test_g2_monotonicity_grid():
    # [<S_b>] is nondecreasing in x_b2 along {0, 0.25, ..., 1.5}
    vals = []
    for xb2 in np.arange(0.0, 1.501, 0.25):
        x = np.full(4, 0.6)
        x[2] = xb2
        [res] = quenched_joint_many([JointJob(LAT4, [NishimoriParams(x=x)], Quadrature(40), {"s": lambda v: v[0].bond[0]}, bonds=(0,))])
        vals.append(res["s"].value)
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-9)


def test_report_serialization():
    [r] = run_checks([check_le(LAT1, uniform_params(LAT1, 0.3), 0, Quadrature(40))])
    d = r.to_dict()
    json.dumps(d)
    assert d["check"] == "le" and d["passed"] is True
    rep = suite_report([r])
    assert rep["passed"] and rep["n_checks"] == 1


def test_mc_mode_and_failure_rate():
    # under DisorderMC the 3-sigma checks fail rarely: <= 2% over 50 seeds
    total = failed = 0
    for seed in range(50):
        reports = run_standard_suite(
            DisorderMC(2000, seed=seed),
            checks=(CheckId.LE, CheckId.MQ, CheckId.IDSET_A, CheckId.IDSET_B, CheckId.IDSET_C),
        )
        total += len(reports)
        failed += sum(not r.passed for r in reports)
    assert failed <= 0.02 * total


def test_mc_mode_derivative_checks():
    reports = run_standard_suite(DisorderMC(4000, seed=77), checks=(CheckId.G1, CheckId.G2))
    failed = sum(not r.passed for r in reports)
    assert failed <= max(1, int(0.05 * len(reports)))


def _one_check_suite(method_at):
    """The standard suite as one-check `run_checks` calls; method_at(k) is check k's method."""
    reports, k = [], 0
    for _, lattice, bonds, pairs in standard_instances():
        for x in STANDARD_X_VALUES:
            params = uniform_params(lattice, x)
            for b in bonds:
                for check in (check_le, check_mq, check_g1):
                    k += 1
                    reports.extend(run_checks([check(lattice, params, b, method_at(k))]))
            for b, b2 in pairs:
                for check in (check_g2, check_idset):
                    k += 1
                    reports.extend(run_checks([check(lattice, params, b, b2, method_at(k))]))
    return reports


@pytest.mark.parametrize(
    "method, method_at",
    [
        (Quadrature(6), lambda k: Quadrature(6)),
        (DisorderMC(300, seed=5), lambda k: DisorderMC(300, seed=rng.derive_seed(5, k))),
    ],
)
def test_fused_suite_matches_one_check_calls(method, method_at):
    fused = run_standard_suite(method)
    lone = _one_check_suite(method_at)
    assert len(fused) == len(lone) == 117
    for f, o in zip(fused, lone):
        assert (f.check_id, f.bonds, f.instance) == (o.check_id, o.bonds, o.instance)
        # exact equality: the fused pass must reproduce every bit
        assert f.lhs.value == o.lhs.value and f.rhs.value == o.rhs.value
        assert f.lhs.std_error == o.lhs.std_error and f.rhs.std_error == o.rhs.std_error
        assert f.discrepancy == o.discrepancy
