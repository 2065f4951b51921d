"""Quenched (disorder) averages: tensor Gauss-Hermite quadrature or seeded MC.

Both methods are driven through one chunked "disorder core" generator.  A core
is the standard-normal part of the couplings, laid out bond-major
(bonds, rows) from the draw to the engine: Monte Carlo draws it from the
counter-based stream, quadrature walks a tensor grid of Hermite nodes with
product weights.  The coupling mean x_b is added on top per parameter variant,
so several nearby parameter sets (interpolation nodes, finite-difference
bumps) share the same core - common random numbers by construction.

`quenched_joint_many` runs many such joint averages (`JointJob`s) at once:
jobs whose cores coincide share one pass over them, and each distinct variant
is enumerated once per chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from . import rng
from .exact import SizeCapExceeded, batch_gibbs, enumerable
from .lattice import LatticeSpec
from .model import NishimoriParams

QUADRATURE_GRID_CAP = 10**7
_CHUNK = 4096  # rows per disorder chunk, a multiple of 512, so batch_gibbs runs a full chunk in cache-sized passes


class GridTooLarge(ValueError):
    """Tensor quadrature grid beyond the feasibility bound."""


@dataclass(frozen=True)
class Quadrature:
    nodes_per_bond: int = 20

    def __post_init__(self):
        if self.nodes_per_bond < 2:
            raise ValueError("nodes_per_bond must be >= 2")


@dataclass(frozen=True)
class DisorderMC:
    samples: int
    seed: int

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("DisorderMC needs samples >= 2")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


AveragingMethod = Quadrature | DisorderMC


@dataclass(frozen=True)
class Estimate:
    value: float
    std_error: float


def combined_std_error(a: Estimate, b: Estimate) -> float:
    return math.hypot(a.std_error, b.std_error)


def legendre_nodes_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    if n < 2:
        raise ValueError("need at least 2 quadrature nodes")
    xs, ws = leggauss(n)
    return 0.5 * (xs + 1.0), 0.5 * ws


_POLE_CLEARANCE = 1.75


def gh_scale(x: float) -> float:
    """Node-scaling factor for the Hermite rule at coupling strength x.

    The fixed-disorder observables have singularities at Im(j) = pi/(2x),
    which stalls plain Gauss-Hermite once x grows past ~0.9.  Substituting
    j = x + s*u with s < 1 pushes the singularity away from the node range;
    the Jacobian and the Gaussian mismatch fold into the weights, so the rule
    still integrates the exact N(x, 1) measure.
    """
    if x <= 0.9:
        return 1.0
    return max(0.45, math.pi / (2.0 * x * _POLE_CLEARANCE))


def disorder_cores(
    lattice: LatticeSpec,
    method: AveragingMethod,
    active: np.ndarray | None = None,
    x_ref: np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """Yield (core, weights) chunks; couplings are j = x + core per variant.

    A core is bond-major, (bonds, rows): row b holds bond b's offsets for
    every sample of the chunk.  Monte Carlo cores are N(0,1) draws keyed by
    (seed, bond, sample) and weights is None (uniform).  Quadrature cores hold
    (scaled) Hermite node offsets on the active bonds (zero rows elsewhere)
    with the matching product weights; the grid is feasible only while
    nodes_per_bond ** n_active stays within QUADRATURE_GRID_CAP.  x_ref gives
    the per-bond coupling scale used to pick the node scaling: the job's
    reference point, so a small bump of x around it keeps its grid.

    Grid row r takes active bond i's node (r // nodes**(k-1-i)) % nodes, the
    C-order digits of r: each node repeated nodes**(k-1-i) times, with period
    nodes**(k-i).  A bond whose period fits in a chunk is tiled once per grid
    and sliced per chunk; a longer period spans a few runs per chunk.  The
    weights multiply in bond order, as a per-chunk digit walk would.
    """
    n_bonds = lattice.n_bonds
    if isinstance(method, DisorderMC):
        bond_idx = np.arange(n_bonds, dtype=np.uint64)
        for lo in range(0, method.samples, _CHUNK):
            hi = min(lo + _CHUNK, method.samples)
            samples = np.arange(lo, hi, dtype=np.uint64)
            core = rng.standard_normals(method.seed, bond_idx[:, None], samples[None, :])
            yield core, None
        return

    if active is None:
        active = np.ones(n_bonds, dtype=bool)
    act = np.flatnonzero(active)
    n_active = len(act)
    nodes = method.nodes_per_bond
    if n_active > 0 and nodes**n_active > QUADRATURE_GRID_CAP:
        raise GridTooLarge(
            f"{nodes} nodes on {n_active} active bonds gives {nodes**n_active} grid points "
            f"(cap {QUADRATURE_GRID_CAP}); use DisorderMC for this instance"
        )
    eps, w = hermegauss(nodes)
    wnorm = w / math.sqrt(2.0 * math.pi)
    scaled: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    total = nodes**n_active
    walk = []  # (bond, run, period, nodes, weights) of each active bond; nodes and weights tiled for short periods
    for i, b in enumerate(act):
        s = gh_scale(float(x_ref[b])) if x_ref is not None else 1.0
        if s not in scaled:
            scaled[s] = (s * eps, wnorm * s * np.exp((1.0 - s * s) * eps * eps / 2.0)) if s != 1.0 else (eps, wnorm)
        nd, wt = scaled[s]
        run = nodes ** (n_active - 1 - i)
        period = run * nodes
        if period <= _CHUNK:
            # a chunk starting at lo reads [lo % period, lo % period + rows), never past min(period - 1 + _CHUNK, total)
            size = min(period - 1 + _CHUNK, total)
            nd, wt = np.resize(np.repeat(nd, run), size), np.resize(np.repeat(wt, run), size)
        walk.append((b, run, period, nd, wt))
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        core = np.zeros((n_bonds, hi - lo))
        weights = np.ones(hi - lo)
        for b, run, period, nd, wt in walk:
            if period <= _CHUNK:
                start = lo % period
                core[b] = nd[start : start + hi - lo]
                weights *= wt[start : start + hi - lo]
            else:
                first, last = lo // run, (hi - 1) // run
                digit = np.arange(first, last + 1) % nodes
                counts = np.full(last + 1 - first, run)
                counts[0] -= lo - first * run
                counts[-1] -= (last + 1) * run - hi
                core[b] = np.repeat(nd[digit], counts)
                weights *= np.repeat(wt[digit], counts)
        yield core, weights


def nishimori_couplings(x: np.ndarray, core: np.ndarray) -> np.ndarray:
    """Nishimori-line couplings K = beta J = x (x + core): beta = x / sigma, J = sigma (x + core).

    x holds per-bond means on its last axis and core is bond-major
    (bonds, rows), so K has x's shape followed by rows, formed on contiguous
    rows of the core.
    """
    x = x[..., None]
    return x * (x + core)


class Moments:
    """Streaming per-row means of per-sample values, fed one chunk at a time.

    Row r of every chunk holds that chunk's samples of quantity r.  Weighted
    chunks (quadrature) accumulate weighted sums and give the weighted mean
    with std_error 0.  Unweighted chunks (Monte Carlo) accumulate sums and
    squares shifted by the row's first sample, so the variance does not
    cancel when a mean is large against its spread, and give the sample mean
    with its std error (realizations are i.i.d., so no batching is needed).
    Each row is reduced on its own, in chunk order.
    """

    def __init__(self):
        self.count = 0
        self.wsum = 0.0
        self.weighted = False
        self.shifts: list[float] = []
        self.sums: list[float] = []
        self.sqsums: list[float] = []

    def add(self, rows: Sequence[np.ndarray], weights: np.ndarray | None) -> None:
        if not rows:
            return
        rows = [np.asarray(r, dtype=np.float64) for r in rows]
        if not self.sums:
            self.weighted = weights is not None
            self.shifts = [float(r[0]) for r in rows]
            self.sums = [0.0] * len(rows)
            self.sqsums = [0.0] * len(rows)
        for i, r in enumerate(rows):
            if weights is None:
                c = r - self.shifts[i]
                self.sums[i] += float(c.sum())
                self.sqsums[i] += float(c @ c)
            else:
                self.sums[i] += float(weights @ r)
        self.count += len(rows[0])
        if weights is not None:
            self.wsum += float(weights.sum())

    def estimates(self) -> list[Estimate]:
        """One Estimate per row, in row order."""
        out = []
        for shift, total, sq in zip(self.shifts, self.sums, self.sqsums):
            if self.weighted:
                value, se = total / self.wsum, 0.0
            else:
                mean_c = total / self.count
                var = max(sq - self.count * mean_c * mean_c, 0.0) / max(self.count - 1, 1)
                value, se = shift + mean_c, math.sqrt(var / self.count)
            out.append(Estimate(value=value, std_error=se))
        return out


@dataclass
class VariantChunk:
    """Fixed-disorder values for one parameter variant over one chunk.

    j(b) forms bond b's couplings x_b + core[b] on access, so a pass holds
    one core per chunk rather than one coupling array per variant.
    """

    log_z: np.ndarray | None
    bond: dict
    pair: dict
    x: np.ndarray
    core: np.ndarray

    def j(self, b: int) -> np.ndarray:
        return self.x[b] + self.core[b]


@dataclass(frozen=True)
class JointJob:
    """One joint disorder average, every variant on the same cores, for `quenched_joint_many`."""

    lattice: LatticeSpec
    variants: Sequence[NishimoriParams]
    method: AveragingMethod
    functionals: Mapping[str, Callable[[list[VariantChunk]], np.ndarray]]
    bonds: tuple[int, ...] = ()
    pairs: tuple[tuple[int, int], ...] = ()
    need_log_z: bool = False


def _grid(job: JointJob) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(key, active, x_ref) of a job: jobs with equal keys get equal cores.

    Monte Carlo cores depend on the lattice and the method (its seed) only.
    Quadrature cores also depend on which bonds are active (any variant's
    x_b > 0) and on each active bond's node scale, not on x itself.  The
    scale comes from the job's reference point x_ref = variants[0].x, so a
    finite-difference family (its unperturbed point first) shares one grid
    with the lone job at that point.
    """
    lattice = job.lattice
    if not enumerable(lattice):
        raise SizeCapExceeded(lattice.n_sites)
    for v in job.variants:
        if v.n_bonds != lattice.n_bonds:
            raise ValueError("variant bond count does not match the lattice")
    active = np.zeros(lattice.n_bonds, dtype=bool)
    for v in job.variants:
        active |= v.x > 0
    x_ref = job.variants[0].x
    key: tuple = (lattice, job.method)
    if isinstance(job.method, Quadrature):
        key += (active.tobytes(), tuple(gh_scale(float(x_ref[b])) for b in np.flatnonzero(active)))
    return key, active, x_ref


def quenched_joint_many(jobs: Sequence[JointJob]) -> list[dict[str, Estimate]]:
    """Run several joint averages with one disorder pass per grid.

    Jobs whose disorder cores coincide (see `_grid`: under quadrature the
    node scales come from each job's reference point variants[0], not from
    the largest x over its variants) share one
    `disorder_cores` stream, and a parameter variant common to several of
    them (equal x bytes) is enumerated once per chunk, for the union of the
    bonds, pairs and log Z its jobs ask for.  Each job keeps its own Moments,
    and a batch_gibbs row does not depend on what else is requested, so every
    result equals the job's lone `quenched_joint_many([job])` result bit for bit.
    """
    groups: dict[tuple, tuple[list[int], np.ndarray, np.ndarray]] = {}
    for i, job in enumerate(jobs):
        key, active, x_ref = _grid(job)
        groups.setdefault(key, ([], active, x_ref))[0].append(i)
    results: list[dict[str, Estimate]] = [{} for _ in jobs]
    for members, active, x_ref in groups.values():
        for i, res in zip(members, _joint_pass([jobs[i] for i in members], active, x_ref)):
            results[i] = res
    return results


def _joint_pass(jobs: list[JointJob], active: np.ndarray, x_ref: np.ndarray) -> list[dict[str, Estimate]]:
    """One disorder pass for jobs that share their grid.

    Within a chunk the jobs run sorted by their variants, so jobs that share
    variants run back to back, and a variant's chunk is released once the
    last job using it has read it.  The order cannot change a result: each
    job's Moments sees its own rows in chunk order.
    """
    lattice, method = jobs[0].lattice, jobs[0].method
    precise = isinstance(method, Quadrature)
    # each variant once, by x bytes: (x, bonds, pairs, need_log_z), the union of its jobs' requests
    requests: dict[bytes, tuple] = {}
    uses = [[v.x.tobytes() for v in job.variants] for job in jobs]
    for job, used in zip(jobs, uses):
        for v, vk in zip(job.variants, used):
            _, bs, ps, lz = requests.get(vk, (v.x, (), (), False))
            requests[vk] = (v.x, tuple(sorted({*bs, *job.bonds})), tuple(sorted({*ps, *job.pairs})), lz or job.need_log_z)
    users = {vk: sum(vk in used for used in uses) for vk in requests}
    order = sorted(range(len(jobs)), key=lambda k: uses[k])
    moments = [Moments() for _ in jobs]

    for core, weights in disorder_cores(lattice, method, active, x_ref):
        left = dict(users)
        chunk: dict[bytes, VariantChunk] = {}
        for k in order:
            for vk in uses[k]:
                if vk not in chunk:
                    chunk[vk] = _variant_chunk(lattice, core, *requests[vk], precise)
            vals = [chunk[vk] for vk in uses[k]]
            moments[k].add([f(vals) for f in jobs[k].functionals.values()], weights)
            for vk in set(uses[k]):
                left[vk] -= 1
                if not left[vk]:
                    del chunk[vk]
    return [dict(zip(job.functionals, mom.estimates())) for job, mom in zip(jobs, moments)]


def _variant_chunk(
    lattice: LatticeSpec, core: np.ndarray, x: np.ndarray, bonds: tuple, pairs: tuple, need_log_z: bool, precise: bool
) -> VariantChunk:
    bg = batch_gibbs(lattice, nishimori_couplings(x, core).T, bonds=bonds, pairs=pairs, need_log_z=need_log_z, precise=precise)
    return VariantChunk(log_z=bg.log_z, bond=bg.bond, pair=bg.pair, x=x, core=core)


def quenched_pressure(lattice: LatticeSpec, params: NishimoriParams, method: AveragingMethod) -> Estimate:
    """[ln Z] under the product Gaussian with means x_b."""
    job = JointJob(lattice, [params], method, {"pressure": lambda v: v[0].log_z}, need_log_z=True)
    return quenched_joint_many([job])[0]["pressure"]
