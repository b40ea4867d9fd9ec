"""Fourier-multiplier operators on torus fields.

Every operator here is diagonal in frequency: transform to the half spectrum,
multiply by a half-layout symbol, transform back with the real inverse, all
in ``_apply_half`` on ``fields.scaled_values`` of the field, so no finite
field overflows a transform.  The builders make symbols in the full FFT
layout and keep none; ``_half_symbol``, the package's one symbol cache, keeps
the contiguous half copy that the operators, the solver and the norms
multiply by.  Lattice symbols are passed through ``GridSpec.hermitian_part``
once at build time, which zeroes the unpaired odd content on Nyquist rows;
without that step odd symbols such as i*xi_1 would leave a spurious real
term on the k1 = N/2 row (see ``qsqg.spectral``).
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .fields import GridSpec, RealField, SpaceParams, scaled_values, unscaled
from . import spectral

__all__ = [
    "fractional_laplacian",
    "riesz_transform",
    "block_levels",
    "kernel_fields",
    "partial_derivative",
]


def _apply_half(f: RealField, half_symbol: np.ndarray) -> RealField:
    """Multiply the half spectrum of f by a half-layout (Hermitian) symbol."""
    v, e = scaled_values(f)
    out = spectral.inverse(half_symbol * spectral.forward(v), f.grid.n)
    return RealField(f.grid, unscaled(out, e))


# -- symbol builders, full layout, not kept ----------------------------------

def dissipation_symbol(grid: GridSpec, power: float) -> np.ndarray:
    """|xi|^power with the zero mode set to 0 (homogeneous convention)."""
    with np.errstate(divide="ignore"):
        s = grid.xi_norm ** power
    s[0, 0] = 0.0
    return s


def derivative_symbol(grid: GridSpec, axis: int) -> np.ndarray:
    s = 1j * grid.xi[axis - 1]
    return grid.hermitian_part(s)


def mixed_derivative_symbol(grid: GridSpec, order1: int, order2: int) -> np.ndarray:
    s = (1j * grid.xi[0]) ** order1 * (1j * grid.xi[1]) ** order2
    return grid.hermitian_part(s)


def riesz_symbol(grid: GridSpec, axis: int) -> np.ndarray:
    """i xi_j / |xi| with zero mode 0."""
    with np.errstate(invalid="ignore", divide="ignore"):
        s = 1j * grid.xi[axis - 1] / grid.xi_norm
    s[0, 0] = 0.0
    return grid.hermitian_part(s)


@lru_cache(maxsize=64)
def _half_symbol(builder, grid: GridSpec, *args) -> np.ndarray:
    """Contiguous, read-only copy of the half layout of the lattice symbol
    ``builder(grid, *args)``: the package's one symbol cache, which every
    operator, the solver and the norms multiply by.  The full symbol is
    built for the copy and dropped, so only N x (N/2 + 1) symbols are held.
    The copy is the half view bit for bit, signed zeros included, so each
    product keeps its doubles; a product with the strided half view took
    43 us per N = 256 plane against 19 us with the copy."""
    s = spectral.half(builder(grid, *args)).copy()
    s.setflags(write=False)
    return s


# -- semigroup core ------------------------------------------------------------

@lru_cache(maxsize=16)
def _rate_levels(grid: GridSpec, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The ascending distinct values ``levels`` of the half dissipation symbol
    lam = |xi|^(2 beta), and each mode's index ``level_of`` into them in the
    smallest unsigned integer dtype that holds it, so that
    ``levels[level_of]`` is lam exactly.  lam depends on |k|^2 alone in exact
    arithmetic, and in floating point when 2 pi / L is a power of two (L = 2 pi
    counts): 457 levels for 2,112 modes at N = 64 and 1,621 for 8,320 at
    N = 128.  Otherwise (c k1)^2 + (c k2)^2, c = 2 pi / L, rounds apart on
    modes of equal |k|^2: 489 levels at N = 64 for L = 1.  Both arrays are
    read-only, and are cut from a full lam built for them and dropped."""
    lam = spectral.half(dissipation_symbol(grid, 2 * beta))
    levels, level_of = np.unique(lam, return_inverse=True)
    level_of = level_of.reshape(lam.shape).astype(np.min_scalar_type(levels.size - 1))
    levels.setflags(write=False)
    level_of.setflags(write=False)
    return levels, level_of


def _decays(grid: GridSpec, beta: float, times):
    """Yield the half-spectrum decay plane e^(-t lam), lam = |xi|^(2 beta),
    for each t of ``times`` in turn.

    Each plane is exp over the rate levels gathered onto the modes: every
    mode's entry is exp of the same product -t * lam of the same doubles as
    in a full-plane exp(-t |xi|^(2 beta)), so the plane is that exp's half
    bit for bit.
    Planes are made one at a time; no (times x levels) table is held."""
    levels, level_of = _rate_levels(grid, beta)
    for t in times:
        # take, not row[level_of]: indexing converts the narrow index first
        yield np.exp(-t * levels).take(level_of)


def _propagators(grid: GridSpec, beta: float, steps):
    """Per cell of length h in ``steps``, the pair (E, phi1) with
    E = e^(-h lam) and phi1 = (1 - E)/lam exact per mode (h where lam = 0).
    1 - E is taken from expm1, so short cells on low modes keep full
    relative precision.  Both come from the rate levels, as in ``_decays``."""
    levels, level_of = _rate_levels(grid, beta)
    positive = levels > 0
    safe = np.where(positive, levels, 1.0)
    for h, decay in zip(steps, _decays(grid, beta, steps)):
        yield decay, np.where(positive, -np.expm1(-h * levels) / safe, h).take(level_of)


# -- public operators --------------------------------------------------------

def fractional_laplacian(f: RealField, gamma: float) -> RealField:
    """(-Laplace)^gamma via the symbol |xi|^(2 gamma).

    gamma = 0 is the identity.  For gamma != 0 the zero mode is sent to 0;
    negative powers additionally require mean-zero input.
    """
    if gamma == 0:
        return f
    if gamma < 0:
        f.require_mean_zero("fractional_laplacian with negative power")
    return _apply_half(f, _half_symbol(dissipation_symbol, f.grid, 2.0 * gamma))


def riesz_transform(f: RealField, axis: int) -> RealField:
    """Riesz transform R_j = d_j (-Laplace)^(-1/2), symbol i xi_j / |xi|."""
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    f.require_mean_zero("riesz_transform")
    return _apply_half(f, _half_symbol(riesz_symbol, f.grid, axis))


def partial_derivative(f: RealField, axis: int) -> RealField:
    if axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis}")
    return _apply_half(f, _half_symbol(derivative_symbol, f.grid, axis))


def _dealias(spec: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Zero in place, and return, the modes of half spectra ``spec`` outside
    ``grid.dealias_mask``: the rows |k1| > c and the columns k2 > c, with
    c = ``grid.dealias_cutoff``.  Two slice writes give the doubles of
    np.where(mask, spec, 0.0) without its copy, and a non-finite value on a
    dropped mode is overwritten without being read."""
    c = grid.dealias_cutoff
    spec[..., c + 1:grid.n - c, :] = 0.0
    spec[..., c + 1:] = 0.0
    return spec


# -- Littlewood-Paley blocks -------------------------------------------------

def block_levels(grid: GridSpec) -> range:
    """Dyadic levels l whose annulus 2^l <= |xi| < 2^(l+1) meets the lattice."""
    lo = 2 * np.pi / grid.length                      # smallest nonzero |xi|
    hi = lo * math.hypot(grid.n / 2, grid.n / 2)      # corner mode
    return range(math.floor(math.log2(lo)), math.floor(math.log2(hi)) + 1)


def _annulus_mask(mag: np.ndarray, level: int) -> np.ndarray:
    """Read-only mask 2^l <= |xi| < 2^(l+1) of l = ``level`` over the |xi|
    plane ``mag``, in ``mag``'s layout."""
    m = (mag >= 2.0 ** level) & (mag < 2.0 ** (level + 1))
    m.setflags(write=False)
    return m


# -- convolution kernels of the named operators -------------------------------

def kernel_fields(
    t: float, params: SpaceParams, grid: GridSpec
) -> tuple[RealField, tuple[RealField, RealField], RealField]:
    """Physical kernels at time t: the heat kernel K_t (unit mass), its
    gradient (d1 K_t, d2 K_t), and the Riesz-smoothed kernel with symbol
    (i xi_1 / |xi|) exp(-t |xi|^(2 beta)).
    """
    if t <= 0:
        raise ValueError(f"kernel time must be positive, got {t}")
    decay = next(_decays(grid, params.beta, (t,)))
    area = grid.cell_area

    def render(half_symbol: np.ndarray) -> RealField:
        return RealField(grid, spectral.inverse(half_symbol, grid.n) / area)

    heat = render(decay)
    grad = (
        render(_half_symbol(derivative_symbol, grid, 1) * decay),
        render(_half_symbol(derivative_symbol, grid, 2) * decay),
    )
    riesz_kernel = render(_half_symbol(riesz_symbol, grid, 1) * decay)
    return heat, grad, riesz_kernel
