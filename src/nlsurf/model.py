"""Nishimori-line parametrization and the interpolation law.

On the line beta_b = x_b / sigma_b, mu_b = sigma_b * x_b the quenched pressure
depends on the couplings only through the nonnegative numbers x_b, so the
public API works in x throughout.  Physical (beta, mu, sigma) triples enter
only at the boundary via nl_from_physical.  The disorder itself, j_b = x_b + g_b
with a standard-normal core g, is drawn by `quenched.disorder_cores`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Corridor, LatticeSpec

NL_RTOL = 1e-12


class OffNishimoriError(ValueError):
    """Raised when a physical model violates beta_b * sigma_b^2 = mu_b."""

    def __init__(self, bad_bonds: list[int], residuals: list[float]):
        self.bad_bonds = bad_bonds
        self.residuals = residuals
        detail = ", ".join(f"bond {b}: residual {r:.3e}" for b, r in zip(bad_bonds[:5], residuals[:5]))
        more = "" if len(bad_bonds) <= 5 else f" (+{len(bad_bonds) - 5} more)"
        super().__init__(f"model is off the Nishimori line on {len(bad_bonds)} bond(s): {detail}{more}")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GaussianBondModel:
    """Per-bond inverse temperatures and Gaussian coupling moments."""

    beta: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        beta = _readonly(self.beta)
        mu = _readonly(self.mu)
        sigma = _readonly(self.sigma)
        if not (beta.shape == mu.shape == sigma.shape) or beta.ndim != 1:
            raise ValueError("beta, mu, sigma must be 1d arrays of equal length")
        if np.any(beta < 0) or np.any(mu < 0):
            raise ValueError("beta and mu must be nonnegative")
        if np.any(sigma <= 0):
            raise ValueError("sigma must be positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_bonds(self) -> int:
        return len(self.beta)


@dataclass(frozen=True)
class NishimoriParams:
    """The map bond index -> x_b >= 0."""

    x: np.ndarray

    def __post_init__(self):
        x = _readonly(self.x)
        if x.ndim != 1:
            raise ValueError("x must be a 1d array")
        if np.any(x < 0) or not np.all(np.isfinite(x)):
            raise ValueError("x must be finite and nonnegative")
        object.__setattr__(self, "x", x)

    @property
    def n_bonds(self) -> int:
        return len(self.x)


def uniform_params(lattice: LatticeSpec, x: float) -> NishimoriParams:
    if x < 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    return NishimoriParams(x=np.full(lattice.n_bonds, float(x)))


def nl_from_physical(model: GaussianBondModel, rtol: float = NL_RTOL) -> NishimoriParams:
    """Check beta_b * sigma_b^2 = mu_b per bond and return x_b = beta_b * sigma_b."""
    lhs = model.beta * model.sigma**2
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(model.mu)), 1e-300)
    residual = np.abs(lhs - model.mu) / scale
    on_line = (residual <= rtol) | ((lhs == 0.0) & (model.mu == 0.0))
    if not np.all(on_line):
        bad = np.flatnonzero(~on_line)
        raise OffNishimoriError(list(map(int, bad)), [float(residual[b]) for b in bad])
    return NishimoriParams(x=model.beta * model.sigma)


def interpolated_params(lattice: LatticeSpec, corridor: Corridor, base_x: float, t: float = 1.0) -> NishimoriParams:
    """x_b(t) = base_x * sqrt(t) on the corridor and base_x elsewhere."""
    if base_x < 0:
        raise ValueError(f"base_x must be nonnegative, got {base_x}")
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    idx = list(corridor.bond_indices)
    for b in idx:
        if not 0 <= b < lattice.n_bonds:
            raise ValueError(f"corridor bond {b} outside the {lattice.n_bonds}-bond lattice")
    x = np.full(lattice.n_bonds, float(base_x))
    x[idx] = float(base_x) * math.sqrt(t)
    return NishimoriParams(x=x)
