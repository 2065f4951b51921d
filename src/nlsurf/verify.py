"""Executable checks of the gauge identities and correlation inequalities.

Each check evaluates its left and right sides on shared disorder (common
random numbers) and reports the discrepancy against a tolerance: an absolute
one under deterministic quadrature, three combined standard errors under
disorder Monte Carlo.  A check (`check_le` ... `check_idset`) is one
`JointJob`, or two on one grid for a derivative, plus a finisher.
`run_checks` runs checks together, one disorder pass per grid
(`quenched.quenched_joint_many`), and each check's reports equal, bit for
bit, those it gives when run alone.

Derivatives with respect to x_b are total: the bump moves the Gaussian mean
and the coupling strength together, i.e. it stays inside the one-parameter
family the identities hold on.  Perturbing mu_b or beta_b separately is not
representable here by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import rng
from .lattice import Boundary, LatticeSpec, build_lattice
from .model import NishimoriParams, uniform_params
from .quenched import AveragingMethod, DisorderMC, Estimate, JointJob, Quadrature, combined_std_error, quenched_joint_many

DEFAULT_TOL = 1e-7
DERIVATIVE_TOL = 1e-5
FD_STEP = 1e-4


class CheckId(Enum):
    LE = "le"
    MQ = "mq"
    G1 = "g1"
    G2 = "g2"
    IDSET_A = "idset_a"
    IDSET_B = "idset_b"
    IDSET_C = "idset_c"


@dataclass(frozen=True)
class VerificationReport:
    check_id: CheckId
    instance: str
    bonds: tuple[int, ...]
    lhs: Estimate
    rhs: Estimate
    discrepancy: float
    tolerance: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.check_id.value,
            "instance": self.instance,
            "bonds": list(self.bonds),
            "lhs": self.lhs.value,
            "rhs": self.rhs.value,
            "lhs_std_error": self.lhs.std_error,
            "rhs_std_error": self.rhs.std_error,
            "discrepancy": self.discrepancy,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "note": self.note,
        }


def _describe(lattice: LatticeSpec, params: NishimoriParams) -> str:
    xs = np.unique(params.x)
    xdesc = f"x={xs[0]:g}" if len(xs) == 1 else "x=per-bond"
    return f"{lattice.dim}d side{lattice.side} {lattice.boundary.value} {xdesc}"


def _finish(check_id, lattice, params, bonds, lhs, rhs, method, tol, extra_ok=True, note="") -> VerificationReport:
    disc = abs(lhs.value - rhs.value)
    if isinstance(method, Quadrature):
        bound = tol
    else:
        bound = 3.0 * combined_std_error(lhs, rhs)
    return VerificationReport(
        check_id=check_id,
        instance=_describe(lattice, params),
        bonds=tuple(bonds),
        lhs=lhs,
        rhs=rhs,
        discrepancy=disc,
        tolerance=bound,
        passed=bool(disc <= bound and extra_ok),
        note=note,
    )


# A check is a (jobs, finisher) pair: the jobs say what to average over
# disorder, the finisher turns their estimates, merged into one dict, into
# reports.  A derivative check has two jobs on one grid, its finite-difference
# side and its analytic side, so each parameter variant is enumerated for
# what its own side reads.
Check = tuple[tuple[JointJob, ...], Callable[[dict[str, Estimate]], list[VerificationReport]]]


def run_checks(checks: list[Check], telemetry: list[dict] | None = None) -> list[VerificationReport]:
    """Evaluate the checks' jobs together, one disorder pass per grid, and
    finish the reports in check order; telemetry as in `quenched_joint_many`."""
    results = iter(quenched_joint_many([job for jobs, _ in checks for job in jobs], telemetry=telemetry))
    reports = []
    for jobs, finish in checks:
        merged: dict[str, Estimate] = {}
        for _ in jobs:
            merged.update(next(results))
        reports += finish(merged)
    return reports


def check_le(lattice: LatticeSpec, params: NishimoriParams, b: int, method: AveragingMethod, tol: float = DEFAULT_TOL) -> Check:
    """[<j_b S_b>] equals x_b."""
    job = JointJob(lattice, [params], method, {"lhs": lambda v: v[0].j(b) * v[0].bond[b]}, bonds=(b,))

    def finish(res):
        rhs = Estimate(value=float(params.x[b]), std_error=0.0)
        return [_finish(CheckId.LE, lattice, params, (b,), res["lhs"], rhs, method, tol)]

    return (job,), finish


def check_mq(lattice: LatticeSpec, params: NishimoriParams, b: int, method: AveragingMethod, tol: float = DEFAULT_TOL) -> Check:
    """[<S_b>] equals [<S_b>^2]."""
    job = JointJob(
        lattice, [params], method,
        {"lhs": lambda v: v[0].bond[b], "rhs": lambda v: v[0].bond[b] ** 2},
        bonds=(b,),
    )
    return (job,), lambda res: [_finish(CheckId.MQ, lattice, params, (b,), res["lhs"], res["rhs"], method, tol)]


def _bumped(params: NishimoriParams, b: int, delta: float) -> NishimoriParams:
    x = params.x.copy()
    x[b] += delta
    return NishimoriParams(x=x)


def _fd_variants(params: NishimoriParams, b: int):
    """Central difference with step h = FD_STEP when x_b - h stays
    nonnegative, else one-sided O(h^2).

    Returns (variants, coefficients) so that sum(coef * value(variant)) is the
    derivative estimate; variants[0] is always the unperturbed point, and it
    sets the quadrature grid (node scales) that the bumped variants share.
    """
    h = FD_STEP
    if params.x[b] - h >= 0.0:
        variants = [params, _bumped(params, b, +h), _bumped(params, b, -h)]
        coef = np.array([0.0, 0.5 / h, -0.5 / h])
    else:
        variants = [params, _bumped(params, b, +h), _bumped(params, b, +2.0 * h)]
        coef = np.array([-1.5 / h, 2.0 / h, -0.5 / h])
    return variants, coef


def check_g1(lattice: LatticeSpec, params: NishimoriParams, b: int, method: AveragingMethod, tol: float = DERIVATIVE_TOL) -> Check:
    """dP/dx_b (finite difference) equals x_b [<S_b + 1>], which is >= 0."""
    variants, coef = _fd_variants(params, b)
    xb = float(params.x[b])
    jobs = (
        JointJob(lattice, variants, method, {"lhs": lambda v: sum(c * vc.log_z for c, vc in zip(coef, v))}, need_log_z=True),
        JointJob(lattice, [params], method, {"rhs": lambda v: xb * (1.0 + v[0].bond[b])}, bonds=(b,)),
    )

    def finish(res):
        lhs, rhs = res["lhs"], res["rhs"]
        slack = tol if isinstance(method, Quadrature) else 3.0 * rhs.std_error
        ok = rhs.value >= -slack
        note = "" if ok else f"analytic side negative: {rhs.value:.3e}"
        return [_finish(CheckId.G1, lattice, params, (b,), lhs, rhs, method, tol, extra_ok=ok, note=note)]

    return jobs, finish


def check_g2(
    lattice: LatticeSpec, params: NishimoriParams, b: int, b2: int, method: AveragingMethod, tol: float = DERIVATIVE_TOL
) -> Check:
    """d[<S_b>]/dx_b2 equals 2 x_b2 [(<S_b S_b2> - <S_b><S_b2>)^2] >= 0."""
    if b == b2:
        raise ValueError("g2 needs two distinct bonds")
    variants, coef = _fd_variants(params, b2)
    xb2 = float(params.x[b2])

    def rhs_fn(v):
        conn = v[0].pair[(b, b2)] - v[0].bond[b] * v[0].bond[b2]
        return 2.0 * xb2 * conn**2

    jobs = (
        JointJob(lattice, variants, method, {"lhs": lambda v: sum(c * vc.bond[b] for c, vc in zip(coef, v))}, bonds=(b,)),
        JointJob(lattice, [params], method, {"rhs": rhs_fn}, bonds=(b, b2), pairs=((b, b2),)),
    )

    def finish(res):
        lhs, rhs = res["lhs"], res["rhs"]
        ok = rhs.value >= 0.0  # an average of squares
        return [_finish(CheckId.G2, lattice, params, (b, b2), lhs, rhs, method, tol, extra_ok=ok)]

    return jobs, finish


def check_idset(
    lattice: LatticeSpec, params: NishimoriParams, b: int, b2: int, method: AveragingMethod, tol: float = DEFAULT_TOL
) -> Check:
    """The auxiliary identity group for a bond pair, one disorder pass.

    IDSET_A: [<S_b S_b2>] = [<S_b S_b2>^2]
    IDSET_B: [<S_b><S_b2>] = [<S_b S_b2><S_b2>] = [<S_b><S_b2><S_b S_b2>]
             (all three pairwise equalities of the chain are reported)
    IDSET_C: [<S_b><S_b2>^2] = [<S_b>^2<S_b2>^2]
    """
    if b == b2:
        raise ValueError("idset needs two distinct bonds")
    p = (b, b2)
    job = JointJob(
        lattice, [params], method,
        {
            "a_l": lambda v: v[0].pair[p],
            "a_r": lambda v: v[0].pair[p] ** 2,
            "b_l": lambda v: v[0].bond[b] * v[0].bond[b2],
            "b_r1": lambda v: v[0].pair[p] * v[0].bond[b2],
            "b_r2": lambda v: v[0].bond[b] * v[0].bond[b2] * v[0].pair[p],
            "c_l": lambda v: v[0].bond[b] * v[0].bond[b2] ** 2,
            "c_r": lambda v: v[0].bond[b] ** 2 * v[0].bond[b2] ** 2,
        },
        bonds=(b, b2), pairs=(p,),
    )

    def finish(res):
        return [
            _finish(CheckId.IDSET_A, lattice, params, p, res["a_l"], res["a_r"], method, tol),
            _finish(CheckId.IDSET_B, lattice, params, p, res["b_l"], res["b_r1"], method, tol),
            _finish(CheckId.IDSET_B, lattice, params, p, res["b_l"], res["b_r2"], method, tol),
            _finish(CheckId.IDSET_B, lattice, params, p, res["b_r1"], res["b_r2"], method, tol),
            _finish(CheckId.IDSET_C, lattice, params, p, res["c_l"], res["c_r"], method, tol),
        ]

    return (job,), finish


STANDARD_X_VALUES = (0.3, 0.7, 1.2)


def standard_instances() -> list[tuple[str, LatticeSpec, tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """(name, lattice, bonds for single-bond checks, pairs for two-bond checks)."""
    return [
        ("single-bond", build_lattice(1, 2, Boundary.FREE), (0,), ()),
        ("chain-3", build_lattice(1, 3, Boundary.FREE), (0, 1), ((0, 1),)),
        ("box-2x2", build_lattice(2, 2, Boundary.FREE), (0, 1, 2, 3), ((0, 2), (0, 1))),
    ]


def auto_quadrature(n_bonds: int, x: float, derivative: bool) -> Quadrature:
    """Node counts sized to the instance: cheap small grids, denser where the
    pole scaling still leaves slower convergence (large x on 4-bond grids)."""
    if n_bonds <= 1:
        return Quadrature(200)
    if n_bonds <= 2:
        return Quadrature(128)
    if derivative:
        return Quadrature(24 if x <= 0.9 else 32)
    if x <= 0.5:
        return Quadrature(24)
    if x <= 0.9:
        return Quadrature(32)
    return Quadrature(40)


def run_standard_suite(
    method: AveragingMethod | None = None,
    *,
    tol: float = DEFAULT_TOL,
    checks: tuple[CheckId, ...] | None = None,
    telemetry: list[dict] | None = None,
) -> list[VerificationReport]:
    """All identity and inequality checks over the standard small-instance suite.

    With method=None each check gets an instance-sized quadrature.  Under
    DisorderMC the per-check seed is derived from the method seed and the
    check position, so the whole suite is reproducible from one seed.

    All checks go to one `quenched_joint_many` call: with method=None the 81
    checks (99 jobs) share 8 quadrature grids, one disorder pass each (a
    finite-difference family shares the grid of its unperturbed point), while
    under DisorderMC every check has its own seed and so its own pass.  tol
    bounds the non-derivative quadrature checks and must be finite and >= 0.
    telemetry is as in `quenched_joint_many`.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be a finite number >= 0, got {tol}")
    wanted = set(checks) if checks is not None else set(CheckId)
    pending: list[Check] = []
    counter = 0

    def mth(lattice: LatticeSpec, x: float, derivative: bool = False):
        nonlocal counter
        counter += 1
        if isinstance(method, DisorderMC):
            return DisorderMC(samples=method.samples, seed=rng.derive_seed(method.seed, counter))
        if method is None:
            return auto_quadrature(lattice.n_bonds, x, derivative)
        return method

    for name, lattice, bonds, pairs in standard_instances():
        for x in STANDARD_X_VALUES:
            params = uniform_params(lattice, x)
            for b in bonds:
                if CheckId.LE in wanted:
                    pending.append(check_le(lattice, params, b, mth(lattice, x), tol))
                if CheckId.MQ in wanted:
                    pending.append(check_mq(lattice, params, b, mth(lattice, x), tol))
                if CheckId.G1 in wanted:
                    pending.append(check_g1(lattice, params, b, mth(lattice, x, True)))
            for b, b2 in pairs:
                if CheckId.G2 in wanted:
                    pending.append(check_g2(lattice, params, b, b2, mth(lattice, x, True)))
                if wanted & {CheckId.IDSET_A, CheckId.IDSET_B, CheckId.IDSET_C}:
                    pending.append(check_idset(lattice, params, b, b2, mth(lattice, x), tol))
    return run_checks(pending, telemetry)


def suite_report(reports: list[VerificationReport]) -> dict:
    return {
        "n_checks": len(reports),
        "n_failed": sum(not r.passed for r in reports),
        "passed": all(r.passed for r in reports),
        "checks": [r.to_dict() for r in reports],
    }
