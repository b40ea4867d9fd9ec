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
    dealias_field,
    fractional_laplacian,
    heat_semigroup,
    kernel_fields,
    partial_derivative,
    riesz_transform,
    sqg_velocity,
)
from .sweep import BoxSweepConfig, CarlesonBox
from .norms import (
    NormReport,
    besov_sum_norm,
    besov_sup_norm,
    caloric_minus1_norm,
    carleson_l1_functional,
    morrey_norm,
    morrey_semigroup_functional,
    q_norm_direct,
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
    "besov_sum_norm",
    "besov_sup_norm",
    "block_levels",
    "caloric_minus1_norm",
    "carleson_l1_functional",
    "dealias_field",
    "duhamel_bilinear",
    "field_from_function",
    "fractional_laplacian",
    "half_lattice_modes",
    "heat_semigroup",
    "kernel_fields",
    "linear_flow",
    "load_trajectory",
    "morrey_norm",
    "morrey_semigroup_functional",
    "nonlinear_density",
    "partial_derivative",
    "persist",
    "picard_solve",
    "q_norm_direct",
    "q_norm_semigroup",
    "read_field",
    "reference_solve",
    "riesz_transform",
    "save_trajectory",
    "scaling_transform",
    "sqg_velocity",
    "write_field",
    "x_k_norm",
    "x_norm",
]
