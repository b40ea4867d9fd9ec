"""Fourier-multiplier operators on torus fields.

Every operator here is diagonal in frequency: transform to the half spectrum,
multiply by the half view of a lattice symbol, transform back with the real
inverse.  Lattice symbols are passed through ``GridSpec.hermitian_part`` once
at build time, which zeroes the unpaired odd content on Nyquist rows; without
that step odd symbols such as i*xi_1 would leave a spurious real term on the
k1 = N/2 row (see ``qsqg.spectral``).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import SymmetryError
from .fields import GridSpec, MultiplierSymbol, RealField, SpaceParams
from . import spectral

__all__ = [
    "apply_multiplier",
    "fractional_laplacian",
    "riesz_transform",
    "heat_semigroup",
    "sqg_velocity",
    "littlewood_paley_block",
    "block_levels",
    "kernel_fields",
    "partial_derivative",
    "mixed_derivative",
    "dealias_field",
]


def apply_lattice_symbol(f: RealField, symbol: np.ndarray) -> RealField:
    """Multiply the spectrum of f by a prebuilt (Hermitian) lattice symbol."""
    out = spectral.inverse(spectral.half(symbol) * spectral.forward(f.values), f.grid.n)
    return RealField(f.grid, out)


# -- cached symbol builders --------------------------------------------------

@lru_cache(maxsize=128)
def dissipation_symbol(grid: GridSpec, power: float) -> np.ndarray:
    """|xi|^power with the zero mode set to 0 (homogeneous convention)."""
    with np.errstate(divide="ignore"):
        s = grid.xi_norm ** power
    s[0, 0] = 0.0
    s.setflags(write=False)
    return s


@lru_cache(maxsize=64)
def derivative_symbol(grid: GridSpec, axis: int, order: int = 1) -> np.ndarray:
    s = (1j * grid.xi[axis - 1]) ** order
    s = grid.hermitian_part(s)
    s.setflags(write=False)
    return s


@lru_cache(maxsize=64)
def mixed_derivative_symbol(grid: GridSpec, order1: int, order2: int) -> np.ndarray:
    s = (1j * grid.xi[0]) ** order1 * (1j * grid.xi[1]) ** order2
    s = grid.hermitian_part(s)
    s.setflags(write=False)
    return s


@lru_cache(maxsize=16)
def riesz_symbol(grid: GridSpec, axis: int) -> np.ndarray:
    """i xi_j / |xi| with zero mode 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        s = 1j * grid.xi[axis - 1] / grid.xi_norm
    s[0, 0] = 0.0
    s = grid.hermitian_part(s)
    s.setflags(write=False)
    return s


def heat_symbol(grid: GridSpec, beta: float, t: float) -> np.ndarray:
    """exp(-t |xi|^(2 beta)); zero mode stays 1, so the mean is conserved."""
    return np.exp(-t * dissipation_symbol(grid, 2.0 * beta))


# -- public operators --------------------------------------------------------

def apply_multiplier(f: RealField, m: MultiplierSymbol) -> RealField:
    """Apply a user-supplied Fourier multiplier to a real field.

    The zero mode of the output is ``m.zero_mode_value`` times the zero mode
    of the input.  The evaluator must be finite on every nonzero lattice
    frequency and conjugate-symmetric, m(-xi) = conj(m(xi)); violations raise
    ValueError / SymmetryError respectively.
    """
    grid = f.grid
    xi1, xi2 = grid.xi
    shape = xi1.shape
    with np.errstate(all="ignore"):
        s = np.broadcast_to(np.asarray(m.evaluator(xi1, xi2), dtype=complex), shape).copy()
        s_neg = np.broadcast_to(np.asarray(m.evaluator(-xi1, -xi2), dtype=complex), shape).copy()
    s[0, 0] = complex(m.zero_mode_value)
    s_neg[0, 0] = np.conj(complex(m.zero_mode_value))
    if not np.isfinite(s.view(float)).all():
        raise ValueError("multiplier symbol is not finite on a nonzero lattice frequency")
    scale = max(1.0, float(np.abs(s).max()))
    defect = float(np.abs(s_neg - np.conj(s)).max())
    if defect > 1e-12 * scale:
        raise SymmetryError(
            f"symbol violates m(-xi) = conj(m(xi)) (defect {defect:.3e}); "
            "the physical result would not be real"
        )
    return apply_lattice_symbol(f, grid.hermitian_part(s))


def fractional_laplacian(f: RealField, gamma: float) -> RealField:
    """(-Laplace)^gamma via the symbol |xi|^(2 gamma).

    gamma = 0 is the identity.  For gamma != 0 the zero mode is sent to 0;
    negative powers additionally require mean-zero input.
    """
    if gamma == 0:
        return f
    if gamma < 0:
        f.require_mean_zero("fractional_laplacian with negative power")
    return apply_lattice_symbol(f, dissipation_symbol(f.grid, 2.0 * gamma))


def riesz_transform(f: RealField, axis: int) -> RealField:
    """Riesz transform R_j = d_j (-Laplace)^(-1/2), symbol i xi_j / |xi|."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    f.require_mean_zero("riesz_transform")
    return apply_lattice_symbol(f, riesz_symbol(f.grid, axis))


def heat_semigroup(f: RealField, t: float, params: SpaceParams) -> RealField:
    """Fractional heat flow exp(-t (-Laplace)^beta); t must be >= 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    if t == 0:
        return f
    return apply_lattice_symbol(f, heat_symbol(f.grid, params.beta, t))


def sqg_velocity(theta: RealField) -> tuple[RealField, RealField]:
    """Velocity u = (-R2 theta, R1 theta), the divergence-free transport field."""
    theta.require_mean_zero("sqg_velocity")
    u1 = apply_lattice_symbol(theta, riesz_symbol(theta.grid, 2))
    u2 = apply_lattice_symbol(theta, riesz_symbol(theta.grid, 1))
    return -u1, u2


def partial_derivative(f: RealField, axis: int, order: int = 1) -> RealField:
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    if order == 0:
        return f
    return apply_lattice_symbol(f, derivative_symbol(f.grid, axis, order))


def mixed_derivative(f: RealField, order1: int, order2: int) -> RealField:
    """d^(order1)/dx1 d^(order2)/dx2 applied spectrally."""
    if order1 == order2 == 0:
        return f
    return apply_lattice_symbol(f, mixed_derivative_symbol(f.grid, order1, order2))


def dealias_field(f: RealField) -> RealField:
    """Zero all modes with |k_j| beyond the grid's dealias fraction."""
    spec = spectral.forward(f.values)
    spec[~spectral.half(f.grid.dealias_mask)] = 0.0
    return RealField(f.grid, spectral.inverse(spec, f.grid.n))


# -- Littlewood-Paley blocks -------------------------------------------------

def block_levels(grid: GridSpec) -> range:
    """Dyadic levels l whose annulus 2^l <= |xi| < 2^(l+1) meets the lattice."""
    lo = 2 * np.pi / grid.length                      # smallest nonzero |xi|
    hi = lo * math.hypot(grid.n / 2, grid.n / 2)      # corner mode
    return range(math.floor(math.log2(lo)), math.floor(math.log2(hi)) + 1)


@lru_cache(maxsize=256)
def _annulus_mask(grid: GridSpec, level: int) -> np.ndarray:
    mag = grid.xi_norm
    m = (mag >= 2.0 ** level) & (mag < 2.0 ** (level + 1))
    m.setflags(write=False)
    return m


def littlewood_paley_block(f: RealField, level: int) -> RealField:
    """Restrict f to the sharp frequency annulus 2^level <= |xi| < 2^(level+1)."""
    spec = spectral.forward(f.values)
    out = np.where(spectral.half(_annulus_mask(f.grid, level)), spec, 0.0)
    return RealField(f.grid, spectral.inverse(out, f.grid.n))


# -- convolution kernels of the named operators -------------------------------

def kernel_fields(
    t: float, params: SpaceParams, grid: GridSpec, axis: int = 1
) -> tuple[RealField, tuple[RealField, RealField], RealField]:
    """Physical kernels at time t: the heat kernel K_t (unit mass), its
    gradient (d1 K_t, d2 K_t), and the Riesz-smoothed kernel with symbol
    (i xi_axis / |xi|) exp(-t |xi|^(2 beta)).
    """
    if t <= 0:
        raise ValueError(f"kernel time must be positive, got {t}")
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    decay = heat_symbol(grid, params.beta, t)
    area = grid.cell_area

    def render(symbol: np.ndarray) -> RealField:
        return RealField(grid, spectral.inverse(spectral.half(symbol), grid.n) / area)

    heat = render(decay)
    grad = (
        render(derivative_symbol(grid, 1) * decay),
        render(derivative_symbol(grid, 2) * decay),
    )
    riesz_kernel = render(riesz_symbol(grid, axis) * decay)
    return heat, grad, riesz_kernel
