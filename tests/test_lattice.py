"""Lattice construction, corridors, decompositions, and their closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsurf.exact import CouplingField, gibbs_report
from nlsurf.lattice import (
    Boundary,
    bond_automorphisms,
    build_lattice,
    decompose_box,
    tiling_interfaces,
    torus_cut,
)

from oracles import brute_gibbs


def test_counts_examples():
    assert (build_lattice(1, 4, Boundary.FREE).n_sites, build_lattice(1, 4, Boundary.FREE).n_bonds) == (4, 3)
    assert (build_lattice(2, 4, Boundary.FREE).n_sites, build_lattice(2, 4, Boundary.FREE).n_bonds) == (16, 24)
    assert (build_lattice(2, 3, Boundary.PERIODIC).n_sites, build_lattice(2, 3, Boundary.PERIODIC).n_bonds) == (9, 18)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("side", [2, 3, 4, 5, 6, 7, 8])
def test_closed_form_bond_counts(dim, side):
    if side**dim > 600:
        pytest.skip("construction sweep capped to keep the suite quick")
    free = build_lattice(dim, side, Boundary.FREE)
    assert free.n_bonds == dim * side ** (dim - 1) * (side - 1)
    if side >= 3:
        per = build_lattice(dim, side, Boundary.PERIODIC)
        assert per.n_bonds == dim * side**dim
        assert torus_cut(per).cardinality == dim * side ** (dim - 1)
    if side % 2 == 0 and side >= 4:
        dec = decompose_box(free)
        assert len(dec.sub_boxes) == 2**dim
        assert dec.corridor.cardinality == dim * side ** (dim - 1)


def test_side2_torus_optin_multigraph():
    with pytest.raises(ValueError):
        build_lattice(2, 2, Boundary.PERIODIC)
    lat = build_lattice(2, 2, Boundary.PERIODIC, allow_side2=True)
    assert lat.n_bonds == 2 * 2**2  # d * s^d still holds with parallel bonds
    cut = torus_cut(lat)
    assert cut.cardinality == 2 * 2  # d * L^(d-1)
    # zeroing the cut leaves exactly the free 2x2 bond multiset
    rest = [lat.bonds[i] for i in range(lat.n_bonds) if i not in cut.bond_indices]
    free = build_lattice(2, 2, Boundary.FREE)
    assert sorted((b.site_a, b.site_b, b.direction) for b in rest) == sorted(
        (b.site_a, b.site_b, b.direction) for b in free.bonds
    )


def test_build_errors():
    with pytest.raises(ValueError):
        build_lattice(0, 4, Boundary.FREE)
    with pytest.raises(ValueError):
        build_lattice(1, 1, Boundary.FREE)
    with pytest.raises(ValueError):
        build_lattice(8, 8, Boundary.FREE)  # beyond the site-index guard


@settings(deadline=None, max_examples=40)
@given(dim=st.integers(1, 3), side=st.integers(2, 5), per=st.booleans())
def test_bond_invariants(dim, side, per):
    if per and side < 3:
        return
    lat = build_lattice(dim, side, Boundary.PERIODIC if per else Boundary.FREE)
    seen = []
    for i, b in enumerate(lat.bonds):
        assert b.index == i
        assert b.site_a < b.site_b
        ca, cb = lat.site_coords(b.site_a), lat.site_coords(b.site_b)
        diffs = [(cb[ax] - ca[ax]) % side for ax in range(dim)]
        assert sorted(diffs)[:-1] == [0] * (dim - 1)
        assert diffs[b.direction] in (1, side - 1)
        seen.append((b.direction, b.site_a, b.site_b))
    # rebuilt lattice gives the identical ordering
    again = build_lattice(dim, side, Boundary.PERIODIC if per else Boundary.FREE)
    assert [(b.direction, b.site_a, b.site_b) for b in again.bonds] == seen
    assert sorted(seen, key=lambda t: t[0]) == seen  # direction-major ordering


def test_decompose_examples():
    d2 = decompose_box(build_lattice(2, 4, Boundary.FREE))
    assert len(d2.sub_boxes) == 4 and all(len(s) == 4 for s in d2.sub_boxes)
    assert d2.corridor.cardinality == 8

    d1 = decompose_box(build_lattice(1, 4, Boundary.FREE))
    assert len(d1.sub_boxes) == 2 and d1.corridor.cardinality == 1

    d3 = decompose_box(build_lattice(3, 4, Boundary.FREE))
    assert len(d3.sub_boxes) == 8 and d3.corridor.cardinality == 48


def test_decompose_partition_and_midplanes():
    lat = build_lattice(2, 6, Boundary.FREE)
    dec = decompose_box(lat)
    all_sites = set()
    for s in dec.sub_boxes:
        assert not (all_sites & s)
        all_sites |= s
    assert all_sites == set(range(lat.n_sites))
    box_of = {}
    for i, s in enumerate(dec.sub_boxes):
        for site in s:
            box_of[site] = i
    half = lat.side // 2
    for b in lat.bonds:
        crossing = box_of[b.site_a] != box_of[b.site_b]
        assert crossing == (b.index in dec.corridor.bond_indices)
        if crossing:
            # a midplane bond straddles exactly one cutting hyperplane
            ca, cb = lat.site_coords(b.site_a), lat.site_coords(b.site_b)
            n_cross = sum((ca[ax] < half) != (cb[ax] < half) for ax in range(lat.dim))
            assert n_cross == 1


def test_decompose_errors():
    with pytest.raises(ValueError):
        decompose_box(build_lattice(1, 5, Boundary.FREE))
    with pytest.raises(ValueError):
        decompose_box(build_lattice(2, 4, Boundary.PERIODIC))
    with pytest.raises(ValueError):
        decompose_box(build_lattice(1, 2, Boundary.FREE))


def test_torus_cut_examples():
    assert torus_cut(build_lattice(2, 3, Boundary.PERIODIC)).cardinality == 6
    assert torus_cut(build_lattice(1, 5, Boundary.PERIODIC)).cardinality == 1
    assert torus_cut(build_lattice(3, 3, Boundary.PERIODIC)).cardinality == 27
    with pytest.raises(ValueError):
        torus_cut(build_lattice(2, 3, Boundary.FREE))


def test_tiling_examples():
    lat, dec = tiling_interfaces(2, 2, 2)
    assert lat.side == 4 and dec.corridor.cardinality == 16
    lat, dec = tiling_interfaces(1, 2, 3)
    assert lat.side == 6 and dec.corridor.cardinality == 3
    lat, dec = tiling_interfaces(2, 3, 2)
    assert lat.side == 6 and dec.corridor.cardinality == 24
    with pytest.raises(ValueError):
        tiling_interfaces(2, 2, 1)
    with pytest.raises(ValueError):
        tiling_interfaces(2, 1, 2)


@pytest.mark.parametrize("dim,L,k", [(1, 2, 2), (1, 3, 2), (2, 2, 2), (1, 2, 4), (2, 2, 3)])
def test_tiling_closed_form(dim, L, k):
    if (k * L) ** dim > 600:
        pytest.skip("size capped")
    _, dec = tiling_interfaces(dim, L, k)
    assert dec.corridor.cardinality == dim * L ** (dim - 1) * k**dim
    assert len(dec.sub_boxes) == k**dim


def _components_after_removal(lattice, removed):
    parent = list(range(lattice.n_sites))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for b in lattice.bonds:
        if b.index in removed:
            continue
        ra, rb = find(b.site_a), find(b.site_b)
        if ra != rb:
            parent[ra] = rb
    return {find(i) for i in range(lattice.n_sites)}


def test_corridor_removal_disconnects():
    lat = build_lattice(2, 4, Boundary.FREE)
    dec = decompose_box(lat)
    comps = _components_after_removal(lat, dec.corridor.bond_indices)
    assert len(comps) == len(dec.sub_boxes)

    lat, dec = tiling_interfaces(2, 2, 2)
    comps = _components_after_removal(lat, dec.corridor.bond_indices)
    assert len(comps) == len(dec.sub_boxes)


def _sub_box_lattice_and_couplings(lattice, sites, K):
    """Free box on an axis-aligned site set, couplings carried over."""
    coords = [lattice.site_coords(s) for s in sorted(sites)]
    lo = [min(c[ax] for c in coords) for ax in range(lattice.dim)]
    hi = [max(c[ax] for c in coords) for ax in range(lattice.dim)]
    side = hi[0] - lo[0] + 1
    sub = build_lattice(lattice.dim, side, Boundary.FREE)
    to_local = {}
    for s in sites:
        c = lattice.site_coords(s)
        to_local[s] = sub.site_index([c[ax] - lo[ax] for ax in range(lattice.dim)])
    locK = np.zeros(sub.n_bonds)
    local_bond = {(b.site_a, b.site_b, b.direction): b.index for b in sub.bonds}
    for b in lattice.bonds:
        if b.site_a in sites and b.site_b in sites:
            la, lb = to_local[b.site_a], to_local[b.site_b]
            locK[local_bond[(min(la, lb), max(la, lb), b.direction)]] = K[b.index]
    return sub, locK


def test_factorization_of_zeroed_corridor():
    # log Z of the box with corridor couplings zeroed equals the sum over sub-boxes
    rng = np.random.default_rng(11)
    lat = build_lattice(2, 4, Boundary.FREE)
    dec = decompose_box(lat)
    K = rng.normal(0.0, 0.7, lat.n_bonds)
    K[list(dec.corridor.bond_indices)] = 0.0
    total = gibbs_report(lat, CouplingField(K)).log_z
    parts = 0.0
    for sites in dec.sub_boxes:
        sub, locK = _sub_box_lattice_and_couplings(lat, sites, K)
        parts += gibbs_report(sub, CouplingField(locK)).log_z
    assert total == pytest.approx(parts, abs=1e-11)


@pytest.mark.parametrize("dim,side", [(1, 5), (2, 3), (2, 4)])
def test_torus_cut_unfolds_to_free_box(dim, side):
    rng = np.random.default_rng(7)
    torus = build_lattice(dim, side, Boundary.PERIODIC)
    cut = torus_cut(torus)
    K = rng.normal(0.0, 0.8, torus.n_bonds)
    K[list(cut.bond_indices)] = 0.0
    free = build_lattice(dim, side, Boundary.FREE)
    free_bond = {(b.site_a, b.site_b, b.direction): b.index for b in free.bonds}
    freeK = np.zeros(free.n_bonds)
    for b in torus.bonds:
        if b.index in cut.bond_indices:
            continue
        freeK[free_bond[(b.site_a, b.site_b, b.direction)]] = K[b.index]
    assert gibbs_report(torus, CouplingField(K)).log_z == pytest.approx(
        gibbs_report(free, CouplingField(freeK)).log_z, abs=1e-11
    )


def test_tiling_zeroed_factorizes_into_free_boxes():
    rng = np.random.default_rng(3)
    lat, dec = tiling_interfaces(2, 2, 2)
    K = rng.normal(0.0, 0.6, lat.n_bonds)
    K[list(dec.corridor.bond_indices)] = 0.0
    total = gibbs_report(lat, CouplingField(K)).log_z
    parts = 0.0
    for sites in dec.sub_boxes:
        sub, locK = _sub_box_lattice_and_couplings(lat, sites, K)
        parts += gibbs_report(sub, CouplingField(locK)).log_z
    assert total == pytest.approx(parts, abs=1e-11)


def test_factorization_against_brute_force():
    # same factorization instance cross-checked by plain enumeration
    rng = np.random.default_rng(5)
    lat = build_lattice(1, 4, Boundary.FREE)
    dec = decompose_box(lat)
    K = rng.normal(0.0, 1.0, lat.n_bonds)
    K[list(dec.corridor.bond_indices)] = 0.0
    bonds = [(b.site_a, b.site_b) for b in lat.bonds]
    assert gibbs_report(lat, CouplingField(K)).log_z == pytest.approx(
        brute_gibbs(lat.n_sites, bonds, K)["log_z"], abs=1e-12
    )


def _small_lattices():
    """Every free box and torus of up to 16 sites (side-2 tori with their parallel bonds)."""
    for dim in (1, 2, 3, 4):
        for side in range(2, 17):
            if side**dim > 16:
                break
            yield build_lattice(dim, side, Boundary.FREE)
            yield build_lattice(dim, side, Boundary.PERIODIC, allow_side2=True)


@pytest.mark.parametrize("lat", list(_small_lattices()), ids=lambda lat: f"{lat.dim}d-{lat.side}-{lat.boundary.value}")
def test_bond_automorphisms_are_symmetries(lat):
    perms = bond_automorphisms(lat)
    assert perms.shape[1] == lat.n_bonds and not perms.flags.writeable
    assert (perms[0] == np.arange(lat.n_bonds)).all() and len({p.tobytes() for p in perms}) == len(perms)
    assert (np.sort(perms, axis=1) == np.arange(lat.n_bonds)).all()  # each a bijection of the bonds
    gen = np.random.default_rng(lat.n_bonds * 31 + lat.dim)
    K = gen.normal(0.3, 1.0, lat.n_bonds)
    ref = gibbs_report(lat, CouplingField(K), bonds=tuple(range(lat.n_bonds)))
    for pi in perms[gen.choice(len(perms), size=min(len(perms), 8), replace=False)]:
        inv = np.argsort(pi)
        assert gibbs_report(lat, CouplingField(K[pi])).log_z == pytest.approx(ref.log_z, rel=1e-12, abs=1e-12)
        moved = gibbs_report(lat, CouplingField(K[inv]), bonds=tuple(range(lat.n_bonds)))
        for b in range(lat.n_bonds):  # <S_pi(b)> at K o pi^-1 is <S_b> at K
            assert moved.correlations[int(pi[b])] == pytest.approx(ref.correlations[b], abs=1e-12)


@pytest.mark.parametrize(
    "dim, side, boundary, order",
    [
        (2, 2, Boundary.FREE, 8),
        (1, 2, Boundary.FREE, 1),  # a single bond
        (1, 3, Boundary.FREE, 2),
        (1, 7, Boundary.FREE, 2),
        (1, 5, Boundary.PERIODIC, 10),
        (1, 12, Boundary.PERIODIC, 24),
        (2, 3, Boundary.PERIODIC, 72),
        (2, 4, Boundary.FREE, 8),
        (2, 4, Boundary.PERIODIC, 128),
        (2, 2, Boundary.PERIODIC, 1),  # parallel bonds: the identity alone
    ],
)
def test_bond_automorphism_group_orders(dim, side, boundary, order):
    assert len(bond_automorphisms(build_lattice(dim, side, boundary, allow_side2=True))) == order
