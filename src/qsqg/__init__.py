"""Pseudospectral toolkit for the dissipative surface quasi-geostrophic
equation on the periodic square: Fourier multiplier operators, Carleson-box
norm estimators, a Picard mild-solution solver, and an experiment harness.
"""
from .errors import DivergenceError, GridMismatchError, NonFiniteError
from .fields import (
    GridSpec,
    RealField,
    SpaceParams,
    Trajectory,
    field_from_function,
    read_field,
    write_field,
)
from .operators import (
    block_levels,
    fractional_laplacian,
    kernel_fields,
    partial_derivative,
    riesz_transform,
)
from .sweep import BoxSweepConfig, CarlesonBox
from .norms import (
    NormReport,
    caloric_minus1_norm,
    carleson_l1_functional,
    morrey_norm,
    q_norm_semigroup,
    x_k_norm,
    x_norm,
)
from .corpus import band_limited_corpus, half_lattice_modes
from .solver import (
    PicardReport,
    SolverConfig,
    TimeGrid,
    duhamel_bilinear,
    linear_flow,
    load_trajectory,
    nonlinear_density,
    picard_solve,
    reference_solve,
    save_trajectory,
    scaling_transform,
)
from .experiments import ExperimentConfig, ExperimentReport, persist

__version__ = "0.1.0"

__all__ = [
    "BoxSweepConfig",
    "CarlesonBox",
    "DivergenceError",
    "ExperimentConfig",
    "ExperimentReport",
    "GridMismatchError",
    "GridSpec",
    "NonFiniteError",
    "NormReport",
    "PicardReport",
    "RealField",
    "SolverConfig",
    "SpaceParams",
    "TimeGrid",
    "Trajectory",
    "band_limited_corpus",
    "block_levels",
    "caloric_minus1_norm",
    "carleson_l1_functional",
    "duhamel_bilinear",
    "field_from_function",
    "fractional_laplacian",
    "half_lattice_modes",
    "kernel_fields",
    "linear_flow",
    "load_trajectory",
    "morrey_norm",
    "nonlinear_density",
    "partial_derivative",
    "persist",
    "picard_solve",
    "q_norm_semigroup",
    "read_field",
    "reference_solve",
    "riesz_transform",
    "save_trajectory",
    "scaling_transform",
    "write_field",
    "x_k_norm",
    "x_norm",
]
