"""Independent references that the tests check package code against.

The package runs none of these: each is a second route to a quantity the
package computes another way (the full-layout multiplier
``apply_lattice_symbol`` against the operators' cached half symbols, a
full-plane heat symbol against the rate-level semigroup core, the
double-difference Q norm against its semigroup characterization,
per-radius ladders against the shared-node sweep,
full-width block inverses against the column-pruned ones), or an
operator the tests need to build their data (the SQG velocity, 2/3-rule
dealiasing), or the allocating form of a solver loop that the package runs
on held buffers.
"""
import math
from functools import lru_cache

import numpy as np

from qsqg import spectral
from qsqg.fields import GridSpec, RealField, SpaceParams, Trajectory, scaled_values, unscaled
from qsqg.norms import NormReport, _sweep_for
from qsqg.operators import (_annulus_mask, _propagators, block_levels, derivative_symbol,
                            dissipation_symbol, riesz_symbol)
from qsqg.solver import _density, _density_scratch, _half_planes
from qsqg.sweep import (BoxSweepConfig, CarlesonBox, _RadiusSweep, best_center, box_sums,
                        geometric_ladder, power_weight)


# -- operators -----------------------------------------------------------------

def apply_lattice_symbol(f: RealField, symbol: np.ndarray) -> RealField:
    """Multiply the spectrum of f by a (Hermitian) lattice symbol in the full
    FFT layout, through the strided half view of the symbol."""
    v, e = scaled_values(f)
    out = spectral.inverse(spectral.half(symbol) * spectral.forward(v), f.grid.n)
    return RealField(f.grid, unscaled(out, e))


def heat_symbol(grid: GridSpec, beta: float, t: float) -> np.ndarray:
    """exp(-t |xi|^(2 beta)) on the full plane; zero mode stays 1, so the
    mean is conserved.  The full-plane form of ``operators._decays``."""
    return np.exp(-t * dissipation_symbol(grid, 2.0 * beta))


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


def dealias_field(f: RealField) -> RealField:
    """Zero all modes outside the grid's 2/3-rule ``dealias_mask``."""
    return apply_lattice_symbol(f, f.grid.dealias_mask)


# -- solver --------------------------------------------------------------------

def fresh_density(spec_u: np.ndarray, spec_v: np.ndarray, grid: GridSpec) -> np.ndarray:
    """``solver._density`` on a scratch and output made for this call."""
    return _density(spec_u, spec_v, grid, _density_scratch(grid), _half_planes(grid, 2))


def reference_oracle(theta0: RealField, params: SpaceParams, config) -> Trajectory:
    """``solver.reference_solve`` with a fresh array for every density and
    every term of a substep, in its operation order:
    pred = E theta + phi1 N(theta) and
    theta' = E theta + (phi1 * 0.5) (N(theta) + N(pred))."""
    grid = theta0.grid
    times = config.timegrid.times
    steps = np.diff(times, prepend=0.0) / config.reference_refine
    spec = spectral.forward(theta0.values)
    snapshots = []
    for decay, phi1 in _propagators(grid, params.beta, steps):
        for _ in range(config.reference_refine):
            n0 = fresh_density(spec, spec, grid)
            decayed = decay * spec
            pred = decayed + phi1 * n0
            spec = decayed + phi1 * 0.5 * (n0 + fresh_density(pred, pred, grid))
        snapshots.append(RealField(grid, spectral.inverse(spec, grid.n)))
    return Trajectory(times, snapshots)


# -- dyadic block norm ---------------------------------------------------------

def block_sups(values: np.ndarray, grid: GridSpec) -> tuple[list[int], np.ndarray]:
    """Sup norm of every dyadic frequency block: one forward transform, and
    each block cut from the full annulus mask and inverted on all columns."""
    spec = spectral.forward(values)
    levels = list(block_levels(grid))
    mag = grid.xi_norm
    sups = np.array([np.abs(spectral.inverse(np.where(spectral.half(_annulus_mask(mag, level)),
                                                      spec, 0.0), grid.n)).max()
                     for level in levels])
    return levels, sups


def besov_sup_norm(f: RealField, s: float) -> NormReport:
    """Weighted block supremum sup_l 2^(l s) * sup |block_l f|."""
    v, scale = scaled_values(f, centered=True)
    levels, sups = block_sups(v, f.grid)
    weighted = sups * np.power(2.0, s * np.asarray(levels, dtype=float))
    return NormReport(value=unscaled(float(weighted.max()), scale))


# -- double-difference cube norm -----------------------------------------------

@lru_cache(maxsize=64)
def _difference_kernel_spectrum(grid: GridSpec, exponent: float) -> np.ndarray:
    """FFT of the torus kernel |d|^(-exponent) with the diagonal cell zeroed."""
    d = grid.signed_coords
    d1, d2 = np.meshgrid(d, d, indexing="ij")
    dist = np.hypot(d1, d2)
    with np.errstate(divide="ignore"):
        kern = dist ** (-exponent)
    kern[dist < grid.spacing / 2] = 0.0
    spec = spectral.forward(kern)
    spec.setflags(write=False)
    return spec


def q_norm_direct(f: RealField, params: SpaceParams,
                  sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """Square root of the swept supremum of

        l(I)^(2a+2b-4) * iint_{I x I} |f(x)-f(y)|^2 / |x-y|^(2a-2b+4) dx dy

    over cubes I of edge l(I) = 2r, distances on the torus, diagonal cells
    excluded (a = alpha, b = beta, two space dimensions)."""
    grid = f.grid
    sweep = _sweep_for(grid, sweep)
    a, b = params.alpha, params.beta
    v, scale = scaled_values(f, centered=True)
    kernel_spec = _difference_kernel_spectrum(grid, 2 * a - 2 * b + 4)
    h4 = grid.cell_area ** 2

    search = _RadiusSweep(grid, sweep)
    for i, (r, stride) in enumerate(zip(search.radii, search.strides)):
        half = int(round(r / grid.spacing))
        offs = np.arange(-(half - 1), half)
        mask0 = np.zeros((grid.n, grid.n))
        mask0[np.ix_(offs % grid.n, offs % grid.n)] = 1.0
        conv_mask = spectral.inverse(spectral.forward(mask0) * kernel_spec, grid.n)
        double_sums = np.zeros((grid.n, grid.n))
        for ci in range(0, grid.n, stride):
            for cj in range(0, grid.n, stride):
                g = np.roll(v, (-ci, -cj), axis=(0, 1)) * mask0
                conv_g = spectral.inverse(spectral.forward(g) * kernel_spec, grid.n)
                double_sums[ci, cj] = 2.0 * float((g * g * conv_mask).sum() - (g * conv_g).sum())
        edge_factor = (2.0 * r) ** (2 * a + 2 * b - 4)
        search.offer(i, edge_factor * h4 * np.maximum(double_sums, 0.0))
    return NormReport(
        value=unscaled(math.sqrt(max(search.best, 0.0)), scale),
        attaining_box=search.box,
    )


# -- semigroup ladders -----------------------------------------------------------

def q_ladder(params, sweep, r):
    """(decay times, weights, prefactor) of radius r, as ``q_norm_semigroup``
    builds them."""
    a, b = params.alpha, params.beta
    lows, highs, mids = geometric_ladder(r ** (2 * b), sweep.time_nodes)
    return mids, power_weight(lows, highs, a / b), r ** (2 * a + 2 * b - 4)


def ladder_oracle(f, params, sweep, kind, gamma=0.5):
    """Per-radius semigroup sweep: a fresh ladder for every radius, each
    node's gradient from a full complex inverse FFT, energies added in
    ascending time order.  Kind "q" is q_norm_semigroup; kind "morrey" is
    the box functional

        r^(2 gamma - 2) * int_0^r int_{|y-x|<r} |grad e^(-t^(2b) (-Lap)^b) f|^2 t dy dt

    equivalent to the cube oscillation norm of index lam = 2 - 2 gamma."""
    grid = f.grid
    b = params.beta
    spec = np.fft.fft2(f.values - f.values.mean())
    lam = dissipation_symbol(grid, 2 * b)
    d1, d2 = derivative_symbol(grid, 1), derivative_symbol(grid, 2)
    best = -1.0
    for m, r in enumerate(sweep.radii(grid), start=1):
        if kind == "q":
            times, weights, prefactor = q_ladder(params, sweep, r)
        else:
            lows, highs, mids = geometric_ladder(r, sweep.time_nodes)
            times, weights = mids ** (2 * b), 0.5 * (highs ** 2 - lows ** 2)
            prefactor = r ** (2 * gamma - 2)
        density = np.zeros((grid.n, grid.n))
        for s, w in zip(times, weights):
            decayed = np.exp(-s * lam) * spec
            gx = np.fft.ifft2(d1 * decayed).real
            gy = np.fft.ifft2(d2 * decayed).real
            density += w * (gx * gx + gy * gy)
        vals = prefactor * grid.cell_area * box_sums(density, grid, r, "ball")
        best = max(best, best_center(vals, grid, sweep.stride(grid, m))[0])
    return math.sqrt(max(best, 0.0))


def shared_ladder_oracle(f, params, sweep):
    """(value, box) of the exhaustive shared-node sweep of q_norm_semigroup:
    nodes of all radii merged at 1e-12 relative and timed by the largest
    radius holding them, every node's gradient planes made, one inverse per
    plane, every radius box-summed, and the radii compared in order so the
    larger keeps a tie."""
    grid = f.grid
    v = f.values - f.values.mean()
    scale = int(np.frexp(np.abs(v).max())[1])
    spec = spectral.forward(np.ldexp(v, -scale))
    radii = sweep.radii(grid)
    ladders = [q_ladder(params, sweep, r) for r in radii]
    nodes = []
    for s, k, w in sorted((s, k, w) for k, (times, weights, _) in enumerate(ladders)
                          for s, w in zip(times, weights)):
        if not nodes or s - nodes[-1][0] > 1e-12 * s:
            nodes.append([s, k, []])
        elif k < nodes[-1][1]:
            nodes[-1][:2] = s, k
        nodes[-1][2].append((k, w))
    lam = spectral.half(dissipation_symbol(grid, 2 * params.beta))
    d1 = spectral.half(derivative_symbol(grid, 1))
    d2 = spectral.half(derivative_symbol(grid, 2))
    densities = [None] * len(radii)
    for s, _, users in nodes:
        decayed = np.exp(-s * lam) * spec
        gx, gy = spectral.inverse(d1 * decayed, grid.n), spectral.inverse(d2 * decayed, grid.n)
        energy = gx * gx + gy * gy
        for k, w in users:
            if densities[k] is None:
                densities[k] = w * energy
            else:
                densities[k] += w * energy
    best, box = -1.0, None
    for m, (r, (_, _, prefactor), density) in enumerate(zip(radii, ladders, densities), start=1):
        vals = prefactor * grid.cell_area * box_sums(density, grid, r, "ball")
        val, center = best_center(vals, grid, sweep.stride(grid, m))
        if val > best:
            best, box = val, CarlesonBox(center, r)
    return math.ldexp(math.sqrt(max(best, 0.0)), scale), box
