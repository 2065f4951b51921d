"""The four benchmark workloads: CLI commands and the checks on their results.

The commands are the traffic the README and the acceptance gates describe.
Together they put each fixed-disorder engine on one side of every planned
optimisation: `adj-mc` is float32 enumeration, `verify-quad` is many tiny
float64 enumerations, `verify-mc` is where the counter-based normals show,
and `sweep-mcmc` is the Markov chains beyond the enumeration cap, run through
the process pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

N_CHECKS = 117  # size of the standard verification suite
SIGMA_MISS = 0.0027  # two-sided P(|z| > 3) for one check under disorder MC
FALSE_ALARM = 1e-3
SWEEP_AGREEMENT = 0.25  # per-L agreement demanded by acceptance gate 10


def miss_bound(n: int = N_CHECKS, p: float = SIGMA_MISS, alpha: float = FALSE_ALARM) -> int:
    """Smallest k with P(Binomial(n, p) > k) < alpha.

    A correct program misses a 3-sigma check now and then; a verify-mc run
    counts as failed only when it misses more checks than chance explains.
    """
    tail, k = 1.0, -1
    while tail >= alpha:
        k += 1
        tail -= math.comb(n, k) * p**k * (1 - p) ** (n - k)
    return k


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def _check_adjacency(result: dict, csv_text: str | None, rc: int) -> tuple[list[str], dict]:
    d, i = result["routes"]["direct"], result["routes"]["integral"]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if not _finite(d["value"], d["std_error"], i["value"], i["std_error"]):
        problems.append("non-finite route value")
    elif abs(d["value"] - i["value"]) > 3.0 * math.hypot(d["std_error"], i["std_error"]):
        problems.append(f"direct {d['value']} and integral {i['value']} differ by more than 3 combined std errors")
    return problems, {"headline": i}


def _check_verify(mc: bool) -> Callable:
    def check(result: dict, csv_text: str | None, rc: int) -> tuple[list[str], dict]:
        problems = []
        checks = result["checks"]
        misses = sum(not c["passed"] for c in checks)
        if len(checks) != N_CHECKS:
            problems.append(f"{len(checks)} checks, expected {N_CHECKS}")
        values = [c[k] for c in checks for k in ("lhs", "rhs", "lhs_std_error", "rhs_std_error")]
        if not _finite(*values):
            problems.append("non-finite check value")
        if not mc:
            if rc != 0 or misses:
                problems.append(f"exit code {rc}, {misses} failed checks")
            return problems, {"misses": misses}
        if rc not in (0, 1) or (rc == 0) != (misses == 0):
            problems.append(f"exit code {rc} with {misses} misses")
        if misses > miss_bound():
            problems.append(f"{misses} checks missed 3 sigma, more than the bound {miss_bound()}")
        return problems, {"misses": misses, "miss_bound": miss_bound()}

    return check


def _check_sweep(result: dict, csv_text: str | None, rc: int) -> tuple[list[str], dict]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    per_unit = [t["routes"]["per_unit_surface"] for t in result["terms"]]
    if not all(_finite(v["value"], v["std_error"]) and v["std_error"] > 0 for v in per_unit):
        problems.append("a per-L value lacks a positive finite std error")
    else:
        for a in range(len(per_unit)):
            for b in range(a + 1, len(per_unit)):
                va, vb = per_unit[a]["value"], per_unit[b]["value"]
                if abs(va - vb) > SWEEP_AGREEMENT * max(abs(va), abs(vb)):
                    problems.append(f"per-L values {va} and {vb} differ by more than {SWEEP_AGREEMENT:.0%}")
    rows = (csv_text or "").strip().splitlines()[1:]
    if len(rows) != len(per_unit):
        problems.append(f"csv has {len(rows)} rows for {len(per_unit)} terms")
    return problems, {"headline": per_unit[-1]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: Callable[[int, int], list[str]]  # (seed, workers) -> argv
    setup_command: Callable[[int], list[str]]  # (workers) -> the command at its smallest legal size
    check: Callable


def _adj_mc(seed: int, workers: int) -> list[str]:
    return ("adjacency --dim 2 --L 2 --x 0.8 --method mc --t-nodes 16 --samples 8192 --seed %d" % seed).split()


def _verify_quad(seed: int, workers: int) -> list[str]:
    # quadrature is deterministic: the seed has nothing to act on
    return "verify --suite standard --method quadrature".split()


def _verify_mc(seed: int, workers: int) -> list[str]:
    return ("verify --suite standard --method mc --samples 20000 --seed %d" % seed).split()


def _sweep_mcmc(seed: int, workers: int) -> list[str]:
    return (
        "scaling --dim 2 --L-list 4,6 --x 0.5 --method mc --t-nodes 8 --mcmc-sweeps 1500 "
        "--mcmc-burn-in 500 --samples 8 --seed %d --workers %d" % (seed, workers)
    ).split()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "adj-mc",
            "16-site box by disorder MC: the float32 decimated engine at its largest enumeration",
            _adj_mc,
            lambda workers: "adjacency --dim 2 --L 2 --x 0.8 --method mc --t-nodes 2 --samples 2 --seed 1".split(),
            _check_adjacency,
        ),
        Workload(
            "verify-quad",
            "117 identity checks on Gauss-Hermite grids: thousands of tiny float64 enumerations",
            _verify_quad,
            lambda workers: "verify --suite standard --method quadrature --nodes 2".split(),
            _check_verify(mc=False),
        ),
        Workload(
            "verify-mc",
            "the same 117 checks on seeded disorder MC: the only traffic where Philox normals show",
            _verify_mc,
            lambda workers: "verify --suite standard --method mc --samples 2 --seed 1".split(),
            _check_verify(mc=True),
        ),
        Workload(
            "sweep-mcmc",
            "8x8 and 12x12 boxes beyond the enumeration cap: Markov chains through a 2-worker pool",
            _sweep_mcmc,
            lambda workers: (
                "scaling --dim 2 --L-list 4,6 --x 0.5 --method mc --t-nodes 2 --mcmc-sweeps 4 "
                "--mcmc-burn-in 0 --samples 2 --seed 1 --workers %d" % workers
            ).split(),
            _check_sweep,
        ),
    )
}
