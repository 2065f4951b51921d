"""Quenched (disorder) averages: tensor Gauss-Hermite quadrature or seeded MC.

Both methods are driven through one chunked "disorder core" generator.  A core
is the standard-normal part of the couplings, laid out bond-major
(bonds, rows) from the draw to the engine: Monte Carlo draws it from the
counter-based stream, quadrature walks a tensor grid of Hermite nodes with
product weights.  The coupling mean x_b is added on top per parameter variant,
so several nearby parameter sets (interpolation nodes, finite-difference
bumps) share the same core - common random numbers by construction.

`quenched_joint_many` runs many such joint averages (`JointJob`s) at once:
jobs whose cores coincide share one pass over them, and each distinct source
(a variant's x, relabelled by a grid symmetry) is enumerated once per chunk.
A functional sees only what its own job requests, so a job's result does
not depend on the jobs that share its pass.

A quadrature grid is invariant under the lattice symmetries that keep its
active bonds and node scales, so a pass walks one representative point per
orbit, weighted by w(r) / |Stab r|, and reads every other point of the orbit
from the engine's results at the representative with the bonds relabelled
(symmetric cubature, Genz, SIAM J. Numer. Anal. 23, 1273 (1986), over the
orbits of a finite group).  On the 2x2 box that is 8 points per engine row.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from . import rng
from .exact import BatchGibbs, SizeCapExceeded, _check_queries, batch_gibbs, enumerable
from .lattice import LatticeSpec, bond_automorphisms
from .model import NishimoriParams, nishimori_couplings

QUADRATURE_GRID_CAP = 10**7
QUADRATURE_NODE_CAP = 256  # numpy's Hermite rule loses its weights past ~370 nodes; the suite uses at most 200
_CHUNK = 4096  # rows per disorder chunk, a multiple of 512, so batch_gibbs runs a full chunk in cache-sized passes


class GridTooLarge(ValueError):
    """Tensor quadrature grid beyond the feasibility bound."""


@dataclass(frozen=True)
class Quadrature:
    nodes_per_bond: int = 20

    def __post_init__(self):
        if not 2 <= self.nodes_per_bond <= QUADRATURE_NODE_CAP:
            raise ValueError(f"nodes_per_bond must be in [2, {QUADRATURE_NODE_CAP}], got {self.nodes_per_bond}")


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
    group: np.ndarray | None = None,
    record: dict | None = None,
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
    nodes**(k-i).  A bond whose period fits in a chunk has its digits tiled
    once per grid and sliced per chunk; a longer period spans a few runs per
    chunk.  Nodes and weights are read through the digits, and the weights
    multiply in bond order, as a per-chunk digit walk would.

    group holds bond permutations (rows of `lattice.bond_automorphisms`,
    the identity first) that map the active bonds and their node scales onto
    themselves; point p's image under pi has p[pi^-1(b)] on bond b.  The walk
    then yields only the orbit representatives, the point of lowest grid
    index in each orbit, in grid order and in chunks of _CHUNK rows, with
    weight w(r) / |Stab r|: summing a function over the images of every
    representative under the whole group gives its full-grid sum.  Without
    a group (or with the identity alone) every point is its own
    representative, and the chunks are the grid's in order.

    record, if given, is filled as the chunks go out: method, nodes (None
    under Monte Carlo), active_bonds, group_order (1 without a group),
    grid_points (the sample count under Monte Carlo), chunks,
    representatives (the rows yielded) and cores_s, the seconds from each
    resume to its yield (the draws, or the grid walk and its orbit filter).
    """
    mc = isinstance(method, DisorderMC)
    active = np.ones(lattice.n_bonds, dtype=bool) if active is None else active
    n_active = int(np.count_nonzero(active))
    record = {} if record is None else record
    record.update(
        method="disorder_mc" if mc else "quadrature",
        nodes=None if mc else method.nodes_per_bond,
        active_bonds=n_active,
        group_order=1 if group is None else len(group),
        grid_points=method.samples if mc else method.nodes_per_bond**n_active,
        chunks=0, representatives=0, cores_s=0.0,
    )
    start = time.perf_counter()
    for core, weights in _mc_cores(lattice, method) if mc else _grid_cores(lattice, method, active, x_ref, group):
        record["chunks"] += 1
        record["representatives"] += core.shape[1]
        record["cores_s"] += time.perf_counter() - start
        yield core, weights
        start = time.perf_counter()


def _mc_cores(lattice: LatticeSpec, method: DisorderMC) -> Iterator[tuple[np.ndarray, None]]:
    """The Monte Carlo chunks of `disorder_cores`."""
    bond_idx = np.arange(lattice.n_bonds, dtype=np.uint64)
    for lo in range(0, method.samples, _CHUNK):
        samples = np.arange(lo, min(lo + _CHUNK, method.samples), dtype=np.uint64)
        yield rng.standard_normals(method.seed, bond_idx[:, None], samples[None, :]), None


def _grid_cores(
    lattice: LatticeSpec, method: Quadrature, active: np.ndarray, x_ref: np.ndarray | None, group: np.ndarray | None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The quadrature chunks of `disorder_cores`: the grid walk and its orbit filter."""
    n_bonds = lattice.n_bonds
    act = np.flatnonzero(active)
    n_active = len(act)
    nodes = method.nodes_per_bond
    if n_active > 0 and nodes**n_active > QUADRATURE_GRID_CAP:
        raise GridTooLarge(
            f"{nodes} nodes on {n_active} active bonds gives {nodes**n_active} grid points "
            f"(cap {QUADRATURE_GRID_CAP}); use DisorderMC for this instance"
        )
    eps, wnorm = _hermite_rule(nodes)
    scaled: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    total = nodes**n_active
    walk = []  # (bond, run, period, digits, nodes, weights) of each active bond; digits tiled for short periods
    for i, b in enumerate(act):
        s = gh_scale(float(x_ref[b])) if x_ref is not None else 1.0
        if s not in scaled:
            scaled[s] = (s * eps, wnorm * s * np.exp((1.0 - s * s) * eps * eps / 2.0)) if s != 1.0 else (eps, wnorm)
        run = nodes ** (n_active - 1 - i)
        period = run * nodes
        digits = np.arange(nodes)
        if period <= _CHUNK:
            # a chunk starting at lo reads [lo % period, lo % period + rows), never past min(period - 1 + _CHUNK, total)
            digits = np.resize(np.repeat(digits, run), min(period - 1 + _CHUNK, total))
        walk.append((b, run, period, digits, *scaled[s]))
    # row g of `power` turns a point's digits into the grid index of its image under group[g + 1]
    perms = group[1:] if group is not None else np.empty((0, n_bonds), dtype=np.intp)
    position = np.zeros(n_bonds, dtype=np.intp)
    position[act] = np.arange(n_active)
    power = float(nodes) ** (n_active - 1 - position[perms[:, act]])
    # representatives not yet yielded: their digits and stabilizer orders.  They
    # go out in full chunks of _CHUNK rows, as the grid does: a narrower chunk
    # holds less engine output at once, but repeats the per-chunk work of every
    # job and group element more often (2048 rows took about 1.25x the time on
    # the standard quadrature suite)
    digit, stab = np.empty((n_active, 0), dtype=np.intp), np.empty(0, dtype=np.intp)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        new, new_stab = _grid_digits(walk, nodes, lo, hi), np.ones(hi - lo, dtype=np.intp)
        if len(power):
            new, new_stab = _representatives(new, lo, power)
        digit, stab = np.concatenate([digit, new], axis=1), np.concatenate([stab, new_stab])
        while digit.shape[1] >= _CHUNK or (hi == total and digit.shape[1]):
            out = digit[:, :_CHUNK]
            core = np.zeros((n_bonds, out.shape[1]))
            weights = np.ones(out.shape[1])
            for d, (b, _, _, _, nd, wt) in zip(out, walk):
                core[b] = nd[d]
                weights *= wt[d]
            weights /= stab[:_CHUNK]  # w / 1 is exact: a point that no symmetry fixes keeps its weight's bytes
            digit, stab = digit[:, _CHUNK:], stab[_CHUNK:]
            yield core, weights


@functools.cache
def _hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for the N(0, 1) measure, read-only and
    cached per node count: the rule's eigenvalue solve takes milliseconds at
    a few hundred nodes, more than a small grid's whole pass."""
    eps, w = hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    eps.setflags(write=False)
    w.setflags(write=False)
    return eps, w


def _grid_digits(walk: list[tuple], nodes: int, lo: int, hi: int) -> np.ndarray:
    """The C-order digits (active bonds, rows) of grid rows [lo, hi), from the walk of `disorder_cores`."""
    digit = np.empty((len(walk), hi - lo), dtype=np.intp)
    for i, (_, run, period, digits, _, _) in enumerate(walk):
        if period <= _CHUNK:
            start = lo % period
            digit[i] = digits[start : start + hi - lo]
        else:
            first, last = lo // run, (hi - 1) // run
            counts = np.full(last + 1 - first, run)
            counts[0] -= lo - first * run
            counts[-1] -= (last + 1) * run - hi
            digit[i] = np.repeat(np.arange(first, last + 1) % nodes, counts)
    return digit


def _representatives(digit: np.ndarray, lo: int, power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orbit representatives among grid rows lo, lo + 1, ... (columns of digit) and their stabilizer orders.

    A row represents its orbit when no image has a lower grid index.  The
    indices come from one product with `power`, exact in float64: they stay
    below QUADRATURE_GRID_CAP < 2**53.
    """
    images = power @ digit
    index = np.arange(lo, lo + digit.shape[1], dtype=np.float64)
    keep = np.flatnonzero(images.min(axis=0) >= index)
    return digit[:, keep], 1 + (images[:, keep] == index[keep]).sum(axis=0)


class Moments:
    """Streaming per-row means of per-sample values, fed one chunk at a time.

    Row r of every chunk holds that chunk's samples of quantity r.  Weighted
    chunks (quadrature) accumulate weighted sums and give the weighted mean
    with std_error 0.  Unweighted chunks (Monte Carlo) accumulate sums and
    squares shifted by the row's first sample, so the variance does not
    cancel when a mean is large against its spread, and give the sample mean
    with its std error (realizations are i.i.d., so no batching is needed).
    Each row is reduced on its own, in chunk order and group order; a chunk's
    arrays are only read.
    """

    def __init__(self):
        self.count = 0
        self.wsum = 0.0
        self.weighted = False
        self._weights: tuple = (None, 0.0)  # the last weights added and their sum
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
        self.count += len(rows[0])
        if weights is not None:
            self.sums = [total + float(weights.dot(r)) for total, r in zip(self.sums, rows)]
            if weights is not self._weights[0]:  # an orbit pass adds a chunk's weights once per group element
                self._weights = (weights, float(weights.sum()))
            self.wsum += self._weights[1]
            return
        for i, r in enumerate(rows):
            c = r - self.shifts[i]
            self.sums[i] += float(c.sum())
            self.sqsums[i] += float(c @ c)

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
    """Fixed-disorder values for one parameter variant over one chunk, as one job sees them.

    log_z, bond and pair hold the job's own requests only (log_z is None
    without need_log_z), keyed as the job asked for them.  j(b) forms bond
    b's couplings x_b + core[rows[b]] on access, so a pass holds one core
    per chunk rather than one coupling array per variant; rows relabels the
    core's bonds for a view at an image of the chunk's points.
    """

    log_z: np.ndarray | None
    bond: dict
    pair: dict
    x: np.ndarray
    core: np.ndarray
    rows: Sequence[int]

    def j(self, b: int) -> np.ndarray:
        return self.x[b] + self.core[self.rows[b]]


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


def _grid(job: JointJob) -> tuple[tuple, np.ndarray, np.ndarray, np.ndarray]:
    """(key, active, x_ref, group) of a job: jobs with equal keys get equal cores.

    Monte Carlo cores depend on the lattice and the method (its seed) only.
    Quadrature cores also depend on which bonds are active (any variant's
    x_b > 0) and on each active bond's node scale, not on x itself.  The
    scale comes from the job's reference point x_ref = variants[0].x, so a
    finite-difference family (its unperturbed point first) shares one grid
    with the lone job at that point.  group holds the lattice's bond
    automorphisms that keep the active bonds and their node scales, under
    which the grid's weights are invariant; it depends on the key alone.  It
    is the identity alone under Monte Carlo, and on a grid of at most one
    chunk, where fewer rows save nothing: each variant takes one engine call
    either way, while every functional would run once per group element.
    """
    lattice = job.lattice
    if not enumerable(lattice):
        raise SizeCapExceeded(lattice.n_sites)
    for v in job.variants:
        if v.n_bonds != lattice.n_bonds:
            raise ValueError("variant bond count does not match the lattice")
    _check_queries(lattice, job.bonds, job.pairs)  # before the requests are relabelled by the group
    active = np.zeros(lattice.n_bonds, dtype=bool)
    for v in job.variants:
        active |= v.x > 0
    x_ref = job.variants[0].x
    key: tuple = (lattice, job.method)
    group = np.arange(lattice.n_bonds)[None]  # the identity alone
    if isinstance(job.method, Quadrature):
        scales = tuple(gh_scale(float(x_ref[b])) for b in np.flatnonzero(active))
        key += (active.tobytes(), scales)
        if job.method.nodes_per_bond ** len(scales) > _CHUNK:
            label = np.full(lattice.n_bonds, -1.0)  # node scale of an active bond, -1 elsewhere
            label[active] = scales
            perms = bond_automorphisms(lattice)
            group = perms[(label[perms] == label).all(axis=1)]
    return key, active, x_ref, group


def quenched_joint_many(jobs: Sequence[JointJob], telemetry: list[dict] | None = None) -> list[dict[str, Estimate]]:
    """Run several joint averages with one disorder pass per grid.

    Jobs whose disorder cores coincide (see `_grid`: under quadrature the
    node scales come from each job's reference point variants[0], not from
    the largest x over its variants) share one `disorder_cores` stream, and
    a source common to several of them (equal x bytes, see `_joint_pass`) is
    enumerated once per chunk, for the union of the bonds, pairs and log Z
    its readers ask for.  A functional sees only its own job's bonds, pairs
    and log Z (log_z is None unless the job sets need_log_z; reading an
    unrequested bond or pair raises KeyError, alone or joint).  Each job
    keeps its own Moments, and a batch_gibbs row does not depend on what
    else is requested, so every result equals the job's lone
    `quenched_joint_many([job])` result bit for bit.

    A quadrature grid with symmetries is walked over its orbit
    representatives only (see `_joint_pass`).  With telemetry, one record
    per pass is appended to it: the record `disorder_cores` fills, plus
    source_variants, the sources enumerated per chunk, and engine_rows, the
    rows that batch_gibbs enumerated.
    """
    groups: dict[tuple, tuple[list[int], np.ndarray, np.ndarray, np.ndarray]] = {}
    for i, job in enumerate(jobs):
        key, *grid = _grid(job)
        groups.setdefault(key, ([], *grid))[0].append(i)
    results: list[dict[str, Estimate]] = [{} for _ in jobs]
    for members, active, x_ref, group in groups.values():
        record: dict = {}
        for i, res in zip(members, _joint_pass([jobs[i] for i in members], active, x_ref, group, record)):
            results[i] = res
        if telemetry is not None:
            telemetry.append(record)
    return results


def _joint_pass(
    jobs: list[JointJob], active: np.ndarray, x_ref: np.ndarray, group: np.ndarray, record: dict
) -> list[dict[str, Estimate]]:
    """One disorder pass for jobs that share their grid, over the orbit
    representatives of its group; fills record (see `quenched_joint_many`).

    Variant x at the image g.r of a representative r is read from the
    engine's source x o pi at r: bond b there is the source's bond pi^-1(b),
    and j(b) reads core row pi^-1(b).  A source is keyed by its x bytes and
    asks the engine, once per chunk, for the relabelled union of what its
    readers request.  Every job's functionals run once per group element
    (the identity first) on views built from the engine's results, holding
    only the job's own bonds, pairs and log Z: a functional sees nothing its
    job did not request, whatever shares its pass.  An image g.r is one more
    grid point: its values go straight to the job's Moments with weight
    w(r) / |Stab r|, which over the group gives each orbit point its w(r).

    Within a chunk the jobs run sorted by their variants, so jobs that share
    sources run back to back, and a source's results are released after the
    last job in that order that reads them.  The order cannot change a result:
    each job's Moments sees its own rows in chunk order and group order.
    """
    lattice, method = jobs[0].lattice, jobs[0].method
    precise = isinstance(method, Quadrature)
    inverse = np.argsort(group, axis=1).tolist()  # pi^-1 of each group element, as ints
    # each source x o pi once, by its bytes: [x o pi, bonds, pairs, need_log_z], its readers' requests relabelled
    wanted: dict[bytes, list] = {}
    reads = [[] for _ in jobs]  # reads[k][g]: the source of each of job k's variants under group element g
    for job, job_reads in zip(jobs, reads):
        for pi, inv in zip(group, inverse):
            keys = []
            for v in job.variants:
                xs = v.x[pi]
                keys.append(xs.tobytes())
                request = wanted.setdefault(keys[-1], [xs, set(), set(), False])
                request[1].update(inv[b] for b in job.bonds)
                request[2].update(_pair(inv, p) for p in job.pairs)
                request[3] |= job.need_log_z
            job_reads.append(keys)
    sources = {sk: (xs, tuple(sorted(bs)), tuple(sorted(ps)), lz) for sk, (xs, bs, ps, lz) in wanted.items()}
    order = sorted(range(len(jobs)), key=lambda k: reads[k][0])
    last = {sk: k for k in order for keys in reads[k] for sk in keys}  # the last job in order that reads each source
    moments = [Moments() for _ in jobs]
    record.update(source_variants=len(sources), engine_rows=0)
    for core, weights in disorder_cores(lattice, method, active, x_ref, group, record):
        chunk: dict[bytes, BatchGibbs] = {}
        for k in order:
            job = jobs[k]
            for keys, inv in zip(reads[k], inverse):
                views = []
                for v, sk in zip(job.variants, keys):
                    if sk not in chunk:
                        xs, bs, ps, lz = sources[sk]
                        chunk[sk] = batch_gibbs(lattice, nishimori_couplings(xs, core).T, bonds=bs, pairs=ps, need_log_z=lz, precise=precise)
                        record["engine_rows"] += core.shape[1]
                    bg = chunk[sk]
                    bond = {b: bg.bond[inv[b]] for b in job.bonds}
                    pair = {p: bg.pair[_pair(inv, p)] for p in job.pairs}
                    views.append(VariantChunk(bg.log_z if job.need_log_z else None, bond, pair, v.x, core, inv))
                values = [f(views) for f in job.functionals.values()]
                for key, v in zip(job.functionals, values):
                    if not (isinstance(v, np.ndarray) and v.shape == (core.shape[1],)):
                        raise ValueError(
                            f"functional {key!r} returned {type(v).__name__} of shape {np.shape(v)}, "
                            f"not a 1-d array with one value per row ({core.shape[1]})"
                        )
                moments[k].add(values, weights)
            for sk in [sk for sk in chunk if last[sk] == k]:
                del chunk[sk]
    return [dict(zip(job.functionals, mom.estimates())) for job, mom in zip(jobs, moments)]


def _pair(inv: list[int], p: tuple[int, int]) -> tuple[int, int]:
    """Pair p at an image under pi, as its source requests it: (pi^-1(a), pi^-1(b)) in increasing order.

    A pair correlation is symmetric, and the engine gives both orders the
    same bytes, so each pair is requested in one order only.
    """
    a, b = inv[p[0]], inv[p[1]]
    return (a, b) if a < b else (b, a)


def quenched_pressure(
    lattice: LatticeSpec, params: NishimoriParams, method: AveragingMethod, telemetry: list[dict] | None = None
) -> Estimate:
    """[ln Z] under the product Gaussian with means x_b; telemetry as in `quenched_joint_many`."""
    job = JointJob(lattice, [params], method, {"pressure": lambda v: v[0].log_z}, need_log_z=True)
    return quenched_joint_many([job], telemetry=telemetry)[0]["pressure"]
