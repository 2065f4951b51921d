"""Hypercubic lattice geometry: bonds, corridors, box decompositions, and the
site colouring that the batch enumeration engine and the Markov chains share.

Sites of a d-dimensional box of side s are indexed row-major over their
coordinates (axis 0 most significant).  Bonds are ordered lexicographically
by (direction, emitting site index), where the emitting site is the one from
which the bond points in the +direction; this fixes a deterministic bond
indexing that all coupling and disorder vectors refer to.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

MAX_SITES = 2**22  # guards the site-index range before any enumeration cap


class Boundary(Enum):
    FREE = "free"
    PERIODIC = "periodic"


@dataclass(frozen=True)
class Bond:
    index: int
    site_a: int
    site_b: int
    direction: int


@dataclass(frozen=True)
class Corridor:
    bond_indices: frozenset[int]

    @property
    def cardinality(self) -> int:
        return len(self.bond_indices)

    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.bond_indices))


@dataclass(frozen=True)
class LatticeSpec:
    dim: int
    side: int
    boundary: Boundary
    n_sites: int
    bonds: tuple[Bond, ...]

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    def site_coords(self, site: int) -> tuple[int, ...]:
        coords = []
        for _ in range(self.dim):
            coords.append(site % self.side)
            site //= self.side
        return tuple(reversed(coords))

    def site_index(self, coords: Iterable[int]) -> int:
        idx = 0
        for c in coords:
            idx = idx * self.side + (c % self.side)
        return idx

    def __hash__(self) -> int:
        # dim, side and boundary fix the bonds: equal lattices hash alike and share one entry of each per-lattice cache
        return hash((self.dim, self.side, self.boundary))


@dataclass(frozen=True)
class Decomposition:
    sub_boxes: tuple[frozenset[int], ...]
    corridor: Corridor


def build_lattice(dim: int, side: int, boundary: Boundary, *, allow_side2: bool = False) -> LatticeSpec:
    """Construct the d-dimensional box or torus with deterministic bond order.

    Free boxes need side >= 2, tori side >= 3.  A side-2 torus has two
    parallel bonds between each neighboring pair (the direct one and the
    wrap-around one); it is rejected unless allow_side2 is set, which the
    surface-pressure routines use for the smallest magnification geometries.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if boundary is Boundary.FREE:
        if side < 2:
            raise ValueError(f"free boundary needs side >= 2, got {side}")
    elif boundary is Boundary.PERIODIC:
        minimum = 2 if allow_side2 else 3
        if side < minimum:
            raise ValueError(f"periodic boundary needs side >= {minimum}, got {side}")
    else:
        raise ValueError(f"unknown boundary {boundary!r}")
    n_sites = side**dim
    if n_sites > MAX_SITES:
        raise ValueError(f"{dim}d side {side} has {n_sites} sites, beyond the index range {MAX_SITES}")

    stride = [side ** (dim - 1 - ax) for ax in range(dim)]
    bonds: list[Bond] = []
    for direction in range(dim):
        for site in range(n_sites):
            coord = (site // stride[direction]) % side
            if coord == side - 1:
                if boundary is Boundary.FREE:
                    continue
                nbr = site - (side - 1) * stride[direction]
            else:
                nbr = site + stride[direction]
            a, b = (site, nbr) if site < nbr else (nbr, site)
            bonds.append(Bond(index=len(bonds), site_a=a, site_b=b, direction=direction))
    return LatticeSpec(dim=dim, side=side, boundary=boundary, n_sites=n_sites, bonds=tuple(bonds))


@functools.cache
def bond_endpoints(lattice: LatticeSpec) -> tuple[np.ndarray, np.ndarray]:
    """(site_a, site_b) of every bond as int64 arrays in bond order; cached per lattice."""
    a = np.fromiter((b.site_a for b in lattice.bonds), dtype=np.int64, count=lattice.n_bonds)
    b = np.fromiter((b.site_b for b in lattice.bonds), dtype=np.int64, count=lattice.n_bonds)
    return a, b


@functools.cache
def colour_classes(lattice: LatticeSpec) -> tuple[tuple[int, ...], ...]:
    """Sites split into independent sets by a greedy DSatur colouring.

    The next site coloured is the one whose neighbors already show the most
    distinct colours (ties: more neighbors, then lower index); it takes the
    smallest colour its neighbors lack.  DSatur is exact on bipartite graphs,
    so free boxes and even tori get two classes.  Cached per lattice.
    """
    n = lattice.n_sites
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for b in lattice.bonds:
        nbrs[b.site_a].add(b.site_b)
        nbrs[b.site_b].add(b.site_a)
    colour = [-1] * n
    seen: list[set[int]] = [set() for _ in range(n)]  # colours among coloured neighbors
    heap = [(0, -len(nbrs[s]), s) for s in range(n)]
    heapq.heapify(heap)
    while heap:
        neg_sat, _, s = heapq.heappop(heap)
        if colour[s] >= 0 or -neg_sat != len(seen[s]):
            continue  # stale entry: coloured already, or saturation has grown
        c = 0
        while c in seen[s]:
            c += 1
        colour[s] = c
        for t in nbrs[s]:
            if colour[t] < 0 and c not in seen[t]:
                seen[t].add(c)
                heapq.heappush(heap, (-len(seen[t]), -len(nbrs[t]), t))
    return tuple(tuple(s for s in range(n) if colour[s] == c) for c in range(max(colour) + 1))


@functools.cache
def bond_automorphisms(lattice: LatticeSpec) -> np.ndarray:
    """Bond permutations of the lattice's symmetries, one row each: row g maps bond b to pi_g[b].

    The site maps are the signed axis permutations of the box (coordinate
    axis i takes c_s or side - 1 - c_s of an axis s), on a torus composed
    with every translation; pi_g[b] is the bond whose end sites are the
    images of b's.  A side-2 torus has two parallel bonds between each
    neighbouring pair, which their end sites do not tell apart, so it gets
    the identity alone.  Rows are distinct and sorted, the identity first.
    Read-only; cached per lattice.
    """
    dim, side, n = lattice.dim, lattice.side, lattice.n_sites
    if lattice.boundary is Boundary.PERIODIC and side == 2:
        perms = np.arange(lattice.n_bonds)[None, :]
    else:
        ea, eb = bond_endpoints(lattice)
        keys = ea * n + eb
        order = np.argsort(keys)
        coords = np.array([lattice.site_coords(s) for s in range(n)])
        stride = side ** np.arange(dim - 1, -1, -1)
        shifts = [(0,) * dim]
        if lattice.boundary is Boundary.PERIODIC:
            shifts = list(itertools.product(range(side), repeat=dim))
        found = []
        for axes in itertools.permutations(range(dim)):
            for flips in itertools.product((False, True), repeat=dim):
                c = np.where(flips, side - 1 - coords[:, axes], coords[:, axes])
                for shift in shifts:
                    site = ((c + shift) % side) @ stride
                    a, b = site[ea], site[eb]
                    image = np.minimum(a, b) * n + np.maximum(a, b)
                    found.append(order[np.searchsorted(keys, image, sorter=order)])
        perms = np.unique(np.array(found), axis=0)
    perms.setflags(write=False)
    return perms


def _box_id(lattice: LatticeSpec, site: int, box_side: int) -> tuple[int, ...]:
    return tuple(c // box_side for c in lattice.site_coords(site))


def _partition_corridor(lattice: LatticeSpec, box_side: int) -> Decomposition:
    ids = [_box_id(lattice, s, box_side) for s in range(lattice.n_sites)]
    boxes: dict[tuple[int, ...], set[int]] = {}
    for site, bid in enumerate(ids):
        boxes.setdefault(bid, set()).add(site)
    crossing = frozenset(b.index for b in lattice.bonds if ids[b.site_a] != ids[b.site_b])
    sub = tuple(frozenset(boxes[bid]) for bid in sorted(boxes))
    return Decomposition(sub_boxes=sub, corridor=Corridor(bond_indices=crossing))


def decompose_box(lattice: LatticeSpec) -> Decomposition:
    """Split a free box of even side 2L into its 2^d sub-boxes of side L.

    The corridor collects the bonds crossing the d cutting hyperplanes; its
    cardinality comes from the construction and equals d*(2L)^(d-1) for this
    geometry (asserted by the test suite, never assumed here).
    """
    if lattice.boundary is not Boundary.FREE:
        raise ValueError("decompose_box needs a free-boundary box")
    if lattice.side % 2 != 0 or lattice.side < 4:
        raise ValueError(f"decompose_box needs an even side >= 4, got {lattice.side}")
    return _partition_corridor(lattice, lattice.side // 2)


def torus_cut(lattice: LatticeSpec) -> Corridor:
    """The wrap-around bonds of a torus, one hyperplane per direction.

    Setting these couplings to zero leaves the Gibbs measure of the free box
    of the same side (bond-for-bond on the remaining couplings).
    """
    if lattice.boundary is not Boundary.PERIODIC:
        raise ValueError("torus_cut needs periodic boundaries")
    stride = [lattice.side ** (lattice.dim - 1 - ax) for ax in range(lattice.dim)]
    wrap = []
    if lattice.side == 2:
        # Parallel-bond geometry: each neighboring pair carries the direct bond
        # (emitted by the coordinate-0 site, lower index) and the wrap bond.
        seen: set[tuple[int, int, int]] = set()
        for b in lattice.bonds:
            sig = (b.site_a, b.site_b, b.direction)
            if sig in seen:
                wrap.append(b.index)
            else:
                seen.add(sig)
    else:
        for b in lattice.bonds:
            if b.site_b - b.site_a == (lattice.side - 1) * stride[b.direction]:
                wrap.append(b.index)
    return Corridor(bond_indices=frozenset(wrap))


def tiling_interfaces(dim: int, box_side: int, k: int) -> tuple[LatticeSpec, Decomposition]:
    """Tile the torus of side k*L by k^d boxes of side L.

    The corridor holds every bond joining two different tiles; zeroing those
    couplings factorizes the torus into k^d independent free boxes of side L.
    """
    if k < 2:
        raise ValueError(f"magnification k must be >= 2, got {k}")
    if box_side < 2:
        raise ValueError(f"box side must be >= 2, got {box_side}")
    lattice = build_lattice(dim, k * box_side, Boundary.PERIODIC)
    return lattice, _partition_corridor(lattice, box_side)
