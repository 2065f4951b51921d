"""Gaussian Edwards-Anderson model on the Nishimori line: surface terms,
exact engines, quenched averaging, and executable identity checks."""

from .exact import (
    ENUMERATION_CAP,
    CouplingField,
    GibbsReport,
    SizeCapExceeded,
)
from .lattice import (
    Bond,
    Boundary,
    Corridor,
    CorridorKind,
    Decomposition,
    LatticeSpec,
    build_lattice,
    decompose_box,
    tiling_interfaces,
    torus_cut,
)
from .mcmc import McmcConfig, PoorMixingWarning
from .model import (
    GaussianBondModel,
    NishimoriParams,
    OffNishimoriError,
    interpolated_params,
    nl_from_physical,
    uniform_params,
)
from .quenched import (
    AveragingMethod,
    DisorderMC,
    Estimate,
    GridTooLarge,
    Quadrature,
    combined_std_error,
    quenched_pressure,
)
from .surface import (
    SurfaceTermKind,
    SurfaceTermResult,
    adjacency_term,
    periodic_minus_free,
    scaling_sweep,
    surface_pressure_free,
    surface_pressure_periodic,
)
from .cli import RunManifest
from .verify import CheckId, VerificationReport, run_standard_suite, suite_report

__version__ = "0.1.0"
