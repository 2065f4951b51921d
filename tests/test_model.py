"""Nishimori-line parametrization, keyed disorder draws, interpolation schedule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlsurf.lattice import Boundary, build_lattice, decompose_box
from nlsurf.model import (
    GaussianBondModel,
    NishimoriParams,
    OffNishimoriError,
    interpolated_params,
    nl_from_physical,
    uniform_params,
)
from nlsurf.quenched import DisorderMC, disorder_cores
from nlsurf.rng import standard_normals


def test_nl_from_physical_examples():
    m = GaussianBondModel(beta=np.ones(3), mu=np.ones(3), sigma=np.ones(3))
    assert np.allclose(nl_from_physical(m).x, 1.0)

    m = GaussianBondModel(beta=np.full(2, 0.5), mu=np.full(2, 2.0), sigma=np.full(2, 2.0))
    assert np.allclose(nl_from_physical(m).x, 1.0)

    m = GaussianBondModel(beta=np.ones(2), mu=np.array([1.0, 0.5]), sigma=np.ones(2))
    with pytest.raises(OffNishimoriError) as exc:
        nl_from_physical(m)
    assert exc.value.bad_bonds == [1]


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12))
def test_nl_round_trip_sigma_one(xs):
    x = np.array(xs)
    m = GaussianBondModel(beta=x, mu=x, sigma=np.ones_like(x))
    assert np.allclose(nl_from_physical(m).x, x, atol=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        NishimoriParams(x=np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        NishimoriParams(x=np.array([np.inf]))


def _chain_corridor():
    lat = build_lattice(1, 4, Boundary.FREE)
    return lat, decompose_box(lat).corridor


def test_interpolated_params_endpoints():
    lat, corridor = _chain_corridor()
    full = interpolated_params(lat, corridor, 0.8)  # t defaults to 1
    assert np.allclose(full.x, 0.8)
    x0 = interpolated_params(lat, corridor, 0.8, t=0.0).x
    assert x0[1] == 0.0 and x0[0] == 0.8 and x0[2] == 0.8
    assert interpolated_params(lat, corridor, 0.8, t=0.25).x[1] == pytest.approx(0.4, abs=1e-15)
    with pytest.raises(ValueError):
        interpolated_params(lat, corridor, 0.8, t=1.5)
    with pytest.raises(ValueError):
        interpolated_params(lat, corridor, 0.8, t=-0.1)
    with pytest.raises(ValueError):
        interpolated_params(lat, corridor, -0.1)
    with pytest.raises(ValueError):  # a corridor of a larger lattice
        interpolated_params(build_lattice(1, 2, Boundary.FREE), corridor, 0.8)


@settings(deadline=None, max_examples=60)
@given(t1=st.floats(0.0, 1.0), t2=st.floats(0.0, 1.0))
def test_schedule_monotone_on_corridor(t1, t2):
    lat, corridor = _chain_corridor()
    lo, hi = sorted((t1, t2))
    xa = interpolated_params(lat, corridor, 0.8, t=lo).x
    xb = interpolated_params(lat, corridor, 0.8, t=hi).x
    assert xa[1] <= xb[1] + 1e-15          # nondecreasing on the corridor
    assert xa[0] == xb[0] == 0.8           # constant off it


def _cores(lat, seed, samples):
    """The bond-major normal cores g (bonds, samples) of realizations 0..samples-1; couplings are j = x + g."""
    return np.concatenate([core for core, _ in disorder_cores(lat, DisorderMC(samples, seed))], axis=1)


def test_sample_disorder_deterministic():
    lat = build_lattice(2, 3, Boundary.PERIODIC)
    g1 = _cores(lat, 42, 2)
    g2 = _cores(lat, 42, 2)
    assert np.array_equal(g1, g2)
    assert not np.array_equal(g1[:, 0], _cores(lat, 43, 2)[:, 0])
    assert not np.array_equal(g1[:, 0], g1[:, 1])


def test_sample_disorder_statistics():
    # x = 2 on every bond: empirical mean within 4 sigma of 2, variance within 5%
    lat = build_lattice(1, 2, Boundary.FREE)
    p = uniform_params(lat, 2.0)
    vals = p.x[0] + _cores(lat, 123, 2000)[0]
    # vectorized equivalent across sample indices for the bulk of the statistics
    j = 2.0 + standard_normals(123, 0, np.arange(100_000))
    assert np.array_equal(vals, j[:2000])
    assert abs(j.mean() - 2.0) <= 4.0 / math.sqrt(100_000)
    assert abs(j.var() - 1.0) <= 0.05


def test_realization_regeneration_hash():
    # realization 9 regenerates from (seed, 9) alone, without its neighbours
    lat = build_lattice(2, 2, Boundary.FREE)
    a = _cores(lat, 1234, 10)[:, 9]
    b = standard_normals(1234, np.arange(lat.n_bonds), 9)
    assert hash(a.tobytes()) == hash(b.tobytes())
