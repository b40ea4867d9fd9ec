"""Norm estimators: cube oscillation norms, double-difference and semigroup
Carleson characterizations, dyadic-block norms, and the solution-space norms
built from trajectories.

All estimators here are seminorms modulo constants: the spatial mean is
subtracted on ingestion (except the L1 Carleson functional, which is defined
for arbitrary integrands).  Suprema over boxes are taken over the finite
family described by a BoxSweepConfig and are therefore certified lower bounds
of the continuum quantities; enlarging the sweep never decreases a report.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .fields import GridSpec, RealField, SpaceParams, Trajectory, check_times
from . import operators as ops
from . import spectral
from .sweep import (
    BoxSweepConfig,
    CarlesonBox,
    best_center,
    box_sums,
    geometric_ladder,
    linear_weight,
    mask_point_count,
    power_weight,
    trajectory_weights,
)

__all__ = [
    "NormReport",
    "morrey_norm",
    "q_norm_direct",
    "q_norm_semigroup",
    "morrey_semigroup_functional",
    "besov_sum_norm",
    "besov_sup_norm",
    "caloric_minus1_norm",
    "x_norm",
    "x_k_norm",
    "carleson_l1_functional",
]


@dataclass(frozen=True)
class NormReport:
    """Value of one estimator plus where and how it was attained."""

    value: float
    config_hash: str
    attaining_box: "CarlesonBox | None" = None
    attaining_level: "int | None" = None
    attaining_time: "float | None" = None
    partial_coverage: bool = False
    seed: "int | None" = None
    parts: dict = dataclass_field(default_factory=dict)

    def to_json_line(self) -> str:
        box = self.attaining_box
        record = {
            "value": self.value,
            "center": list(box.center) if box else None,
            "radius": box.radius if box else None,
            "level": self.attaining_level,
            "time": self.attaining_time,
            "partial": self.partial_coverage,
            "config": self.config_hash,
            "seed": self.seed,
            "parts": self.parts,
        }
        return json.dumps(record, sort_keys=True)


def _hash(grid: GridSpec, sweep: "BoxSweepConfig | None", tag: str) -> str:
    text = f"{grid.n};{grid.length!r};{grid.dealias_fraction!r};" \
           f"{sweep.label() if sweep else 'nosweep'};{tag}"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _sweep_for(grid: GridSpec, sweep: "BoxSweepConfig | None") -> BoxSweepConfig:
    sweep = sweep if sweep is not None else BoxSweepConfig()
    sweep.validate_for(grid)
    return sweep


def _centered(f: RealField) -> np.ndarray:
    v = f.values
    return v - v.mean()


# -- dyadic block norms -------------------------------------------------------

def _block_masks(grid: GridSpec) -> list[np.ndarray]:
    """Half-spectrum annulus masks of the dyadic levels, in level order."""
    return [spectral.half(ops._annulus_mask(grid, level)) for level in ops.block_levels(grid)]


def _block_sups(values: np.ndarray, grid: GridSpec) -> tuple[list[int], np.ndarray]:
    """Sup norm of every dyadic frequency block (one forward transform, the
    block inverses batched)."""
    spec = spectral.forward(values)
    blocks = (np.where(mask, spec, 0.0) for mask in _block_masks(grid))
    sups = np.array([np.abs(p).max() for p in spectral.inverse_chunks(blocks, grid.n)])
    return list(ops.block_levels(grid)), sups


def besov_sum_norm(f: RealField) -> NormReport:
    """Sum over dyadic blocks of the block sup norm (regularity-0, summed)."""
    levels, sups = _block_sups(_centered(f), f.grid)
    i = int(np.argmax(sups))
    return NormReport(
        value=float(sups.sum()),
        config_hash=_hash(f.grid, None, "besov_sum"),
        attaining_level=levels[i],
    )


def besov_sup_norm(f: RealField, s: float) -> NormReport:
    """Weighted block supremum sup_l 2^(l s) * sup |block_l f|."""
    levels, sups = _block_sups(_centered(f), f.grid)
    weighted = sups * np.power(2.0, s * np.asarray(levels, dtype=float))
    i = int(np.argmax(weighted))
    return NormReport(
        value=float(weighted[i]),
        config_hash=_hash(f.grid, None, f"besov_sup;s={s!r}"),
        attaining_level=levels[i],
    )


# -- cube oscillation (Morrey) norm -------------------------------------------

def morrey_norm(f: RealField, p: float, lam: float,
                sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """sup over swept cubes I of ( l(I)^(-lam) * integral_I |f - f_I|^p )^(1/p)
    with l(I) = 2r and f_I the cube average."""
    if p < 1:
        raise ValueError(f"integrability exponent p must be >= 1, got {p}")
    grid = f.grid
    sweep = _sweep_for(grid, sweep)
    v = _centered(f)
    area = grid.cell_area

    best = -1.0
    best_box = None
    for m, r in enumerate(sweep.radii(grid), start=1):
        stride = sweep.stride(grid, m)
        edge = 2.0 * r
        if p == 2:
            count = mask_point_count(grid, r, "cube")
            s1 = box_sums(v, grid, r, "cube")
            s2 = box_sums(v * v, grid, r, "cube")
            osc = np.maximum(s2 - s1 * s1 / count, 0.0)
            vals = edge ** (-lam) * area * osc
            val, center = best_center(vals, grid, stride)
            if val > best:
                best, best_box = val, CarlesonBox(center, r)
        else:
            half = int(round(r / grid.spacing))
            offs = np.arange(-(half - 1), half)
            for ci in range(0, grid.n, stride):
                rows = (ci + offs) % grid.n
                for cj in range(0, grid.n, stride):
                    cols = (cj + offs) % grid.n
                    block = v[np.ix_(rows, cols)]
                    val = edge ** (-lam) * area * float(
                        (np.abs(block - block.mean()) ** p).sum()
                    )
                    if val > best:
                        best = val
                        best_box = CarlesonBox((float(grid.coords[ci]), float(grid.coords[cj])), r)
    return NormReport(
        value=float(best) ** (1.0 / p),
        config_hash=_hash(grid, sweep, f"morrey;p={p!r};lam={lam!r}"),
        attaining_box=best_box,
    )


# -- double-difference cube norm ----------------------------------------------

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
    v = _centered(f)
    kernel_spec = _difference_kernel_spectrum(grid, 2 * a - 2 * b + 4)
    h4 = grid.cell_area ** 2

    best = -1.0
    best_box = None
    for m, r in enumerate(sweep.radii(grid), start=1):
        stride = sweep.stride(grid, m)
        half = int(round(r / grid.spacing))
        offs = np.arange(-(half - 1), half)
        mask0 = np.zeros((grid.n, grid.n))
        mask0[np.ix_(offs % grid.n, offs % grid.n)] = 1.0
        conv_mask = spectral.inverse(spectral.forward(mask0) * kernel_spec, grid.n)
        edge_factor = (2.0 * r) ** (2 * a + 2 * b - 4)
        for ci in range(0, grid.n, stride):
            for cj in range(0, grid.n, stride):
                g = np.roll(v, (-ci, -cj), axis=(0, 1)) * mask0
                conv_g = spectral.inverse(spectral.forward(g) * kernel_spec, grid.n)
                double_sum = 2.0 * float((g * g * conv_mask).sum() - (g * conv_g).sum())
                val = edge_factor * h4 * max(double_sum, 0.0)
                if val > best:
                    best = val
                    best_box = CarlesonBox((float(grid.coords[ci]), float(grid.coords[cj])), r)
    return NormReport(
        value=math.sqrt(max(best, 0.0)),
        config_hash=_hash(grid, sweep, f"q_direct;a={a!r};b={b!r}"),
        attaining_box=best_box,
    )


# -- semigroup characterizations ----------------------------------------------

def _gradient_density(spec: np.ndarray, grid: GridSpec, beta: float,
                      decay_times, weights) -> np.ndarray:
    """sum_i w_i |grad e^(-s_i (-Lap)^beta) f|^2 from the half spectrum of f,
    with the gradient planes of all ladder nodes batched through the chunked
    inverse and reduced as they arrive."""
    lam = spectral.half(ops.dissipation_symbol(grid, 2 * beta))
    d1 = spectral.half(ops.derivative_symbol(grid, 1))
    d2 = spectral.half(ops.derivative_symbol(grid, 2))

    def gradients():
        for s in decay_times:
            decayed = np.exp(-s * lam) * spec
            yield d1 * decayed
            yield d2 * decayed

    planes = spectral.inverse_chunks(gradients(), grid.n)
    density = np.zeros((grid.n, grid.n))
    for w in weights:
        gx, gy = next(planes), next(planes)
        density += w * (gx * gx + gy * gy)
    return density


def q_norm_semigroup(f: RealField, params: SpaceParams,
                     sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """Square root of the swept supremum of

        r^(2a+2b-4) * int_0^(r^(2b)) int_{|y-x|<r}
            |grad e^(-t(-Lap)^b) f|^2 t^(-a/b) dy dt

    with the time integral on the top-anchored geometric ladder."""
    grid = f.grid
    sweep = _sweep_for(grid, sweep)
    a, b = params.alpha, params.beta
    spec = spectral.forward(_centered(f))

    best = -1.0
    best_box = None
    for m, r in enumerate(sweep.radii(grid), start=1):
        stride = sweep.stride(grid, m)
        lows, highs, mids = geometric_ladder(r ** (2 * b), sweep.time_nodes, sweep.time_ratio)
        weights = power_weight(lows, highs, a / b)
        density = _gradient_density(spec, grid, b, mids, weights)
        vals = r ** (2 * a + 2 * b - 4) * grid.cell_area * box_sums(density, grid, r, "ball")
        val, center = best_center(vals, grid, stride)
        if val > best:
            best, best_box = val, CarlesonBox(center, r)
    return NormReport(
        value=math.sqrt(max(best, 0.0)),
        config_hash=_hash(grid, sweep, f"q_semigroup;a={a!r};b={b!r}"),
        attaining_box=best_box,
    )


def morrey_semigroup_functional(f: RealField, gamma: float, params: SpaceParams,
                                sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """Square root of the swept supremum of

        r^(2 gamma - 2) * int_0^r int_{|y-x|<r}
            |grad e^(-t^(2b) (-Lap)^b) f|^2 t dy dt

    the box functional equivalent to the cube oscillation norm of index
    lam = 2 - 2 gamma (0 < gamma < 1)."""
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    grid = f.grid
    sweep = _sweep_for(grid, sweep)
    b = params.beta
    spec = spectral.forward(_centered(f))

    best = -1.0
    best_box = None
    for m, r in enumerate(sweep.radii(grid), start=1):
        stride = sweep.stride(grid, m)
        lows, highs, mids = geometric_ladder(r, sweep.time_nodes, sweep.time_ratio)
        weights = linear_weight(lows, highs)
        density = _gradient_density(spec, grid, b, [t ** (2 * b) for t in mids], weights)
        vals = r ** (2 * gamma - 2) * grid.cell_area * box_sums(density, grid, r, "ball")
        val, center = best_center(vals, grid, stride)
        if val > best:
            best, best_box = val, CarlesonBox(center, r)
    return NormReport(
        value=math.sqrt(max(best, 0.0)),
        config_hash=_hash(grid, sweep, f"morrey_semigroup;g={gamma!r};b={params.beta!r}"),
        attaining_box=best_box,
    )


# -- trajectory norms ----------------------------------------------------------

def _solution_parts(
    times: np.ndarray,
    spectra,
    snapshots,
    grid: GridSpec,
    params: SpaceParams,
    k: int,
    sweep: BoxSweepConfig,
) -> dict:
    """Block-sup part plus Carleson part of the trajectory whose centered
    snapshot at times[m] has half spectrum spectra[m].

    ``snapshots`` yields the matching physical values, or is None, in which
    case each snapshot comes out of the batched inverse as well (an identity
    row ahead of its blocks).  Both may be generators: every plane is reduced
    as it arrives, so neither the planes nor the per-node Riesz energies
    |f|^2 + |R1 f|^2 + |R2 f|^2 are ever held for the whole trajectory; the
    energies go straight into one Carleson density per swept radius, with
    exact trajectory-cell weights for t^(-alpha/beta)."""
    a, b = params.alpha, params.beta
    sup_weight = (2 * b - 1 + k) / (2 * b)
    carleson_weight = k / b          # (t^(k/(2b)))^2 inside the square
    masks = _block_masks(grid)
    r1 = spectral.half(ops.riesz_symbol(grid, 1))
    r2 = spectral.half(ops.riesz_symbol(grid, 2))

    def rows():
        for spec in spectra:
            if snapshots is None:
                yield spec
            for mask in masks:
                yield np.where(mask, spec, 0.0)
            yield r1 * spec
            yield r2 * spec

    planes = spectral.inverse_chunks(rows(), grid.n)
    values = iter(snapshots) if snapshots is not None else planes
    radii = sweep.radii(grid)
    cells = [trajectory_weights(times, r ** (2 * b), a / b) for r in radii]
    densities = [np.zeros((grid.n, grid.n)) for _ in radii]

    besov_best = -1.0
    besov_time = None
    for m, t in enumerate(times):
        v = next(values)
        sups = np.array([np.abs(next(planes)).max() for _ in masks])
        bval = t ** sup_weight * float(sups.sum())
        if bval > besov_best:
            besov_best, besov_time = bval, float(t)
        energy = v * v                      # then + |R1 f|^2 + |R2 f|^2
        for _ in range(2):
            riesz = next(planes)
            energy += riesz * riesz
        energy *= t ** carleson_weight
        for (weights, _), density in zip(cells, densities):
            if weights[m] > 0:
                density += weights[m] * energy

    best = -1.0
    best_box = None
    for m, (r, density) in enumerate(zip(radii, densities), start=1):
        vals = r ** (2 * a + 2 * b - 4) * grid.cell_area * box_sums(density, grid, r, "ball")
        val, center = best_center(vals, grid, sweep.stride(grid, m))
        if val > best:
            best, best_box = val, CarlesonBox(center, r)
    return {
        "besov": besov_best,
        "carleson": math.sqrt(max(best, 0.0)),
        "time": besov_time,
        "box": best_box,
        "partial": any(partial for _, partial in cells),
    }


def _xk_component(
    traj: Trajectory,
    params: SpaceParams,
    k: int,
    orders: tuple[int, int],
    sweep: BoxSweepConfig,
) -> dict:
    """Block-sup part plus Carleson part for one derivative multi-index."""
    grid = traj.grid
    centered = (_centered(s) for s in traj.snapshots)
    if orders == (0, 0):
        spectra = (spectral.forward(_centered(s)) for s in traj.snapshots)
        return _solution_parts(traj.times, spectra, centered, grid, params, k, sweep)
    symbol = spectral.half(ops.mixed_derivative_symbol(grid, *orders))
    spectra = (symbol * spectral.forward(d) for d in centered)
    return _solution_parts(traj.times, spectra, None, grid, params, k, sweep)


def _solution_report(comp: dict, config_hash: str) -> NormReport:
    return NormReport(
        value=comp["besov"] + comp["carleson"],
        config_hash=config_hash,
        attaining_box=comp["box"],
        attaining_time=comp["time"],
        partial_coverage=comp["partial"],
        parts={"besov": comp["besov"], "carleson": comp["carleson"]},
    )


def x_norm(traj: Trajectory, params: SpaceParams,
           sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """Solution-space norm of a trajectory:

        sup_t t^(1-1/(2b)) ||f(t)||_blocksum
      + sqrt( sup over boxes of r^(2a+2b-4) *
              iint (|f|^2 + |R1 f|^2 + |R2 f|^2) t^(-a/b) dy dt )
    """
    sweep = _sweep_for(traj.grid, sweep)
    comp = _xk_component(traj, params, 0, (0, 0), sweep)
    return _solution_report(
        comp, _hash(traj.grid, sweep, f"x;a={params.alpha!r};b={params.beta!r}"))


def x_k_norm(traj: Trajectory, params: SpaceParams, k: int,
             sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """Derivative-weighted solution norm: the x_norm structure applied to
    t^(k/(2b)) d^a u for every multi-index |a| = k, block part weighted by
    t^((2b-1+k)/(2b)), maximum over the k+1 multi-indices reported.

    k = 0 reduces exactly to x_norm."""
    if k < 0:
        raise ValueError(f"derivative order k must be >= 0, got {k}")
    sweep = _sweep_for(traj.grid, sweep)
    best = None
    best_orders = None
    for a1 in range(k, -1, -1):
        comp = _xk_component(traj, params, k, (a1, k - a1), sweep)
        comp["value"] = comp["besov"] + comp["carleson"]
        if best is None or comp["value"] > best["value"]:
            best, best_orders = comp, (a1, k - a1)
    return NormReport(
        value=best["value"],
        config_hash=_hash(traj.grid, sweep,
                          f"xk;k={k};a={params.alpha!r};b={params.beta!r}"),
        attaining_box=best["box"],
        attaining_time=best["time"],
        partial_coverage=best["partial"],
        parts={
            "besov": best["besov"],
            "carleson": best["carleson"],
            "orders": list(best_orders),
        },
    )


def carleson_l1_functional(traj: Trajectory, params: SpaceParams,
                           sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """Swept supremum of r^(2a+2b-4) * iint_box |f(t,y)| t^(-a/b) dy dt,
    degree-1 homogeneous in the trajectory; no mean subtraction."""
    grid = traj.grid
    sweep = _sweep_for(grid, sweep)
    a, b = params.alpha, params.beta
    magnitudes = [np.abs(s.values) for s in traj.snapshots]

    best = -1.0
    best_box = None
    partial = False
    for m, r in enumerate(sweep.radii(grid), start=1):
        stride = sweep.stride(grid, m)
        weights, was_partial = trajectory_weights(traj.times, r ** (2 * b), a / b)
        partial = partial or was_partial
        density = np.zeros((grid.n, grid.n))
        for w, g in zip(weights, magnitudes):
            if w > 0:
                density += w * g
        vals = r ** (2 * a + 2 * b - 4) * grid.cell_area * box_sums(density, grid, r, "ball")
        val, center = best_center(vals, grid, stride)
        if val > best:
            best, best_box = val, CarlesonBox(center, r)
    return NormReport(
        value=float(max(best, 0.0)),
        config_hash=_hash(grid, sweep, f"carleson_l1;a={a!r};b={b!r}"),
        attaining_box=best_box,
        partial_coverage=partial,
    )


def caloric_coverage_times(grid: GridSpec, params: SpaceParams,
                           num_nodes: int = 48) -> np.ndarray:
    """Graded times covering (0, r_max^(2 beta)] for the sweep's largest box."""
    horizon = (grid.length / 2) ** (2 * params.beta)
    steps = np.arange(1, num_nodes + 1, dtype=float) / num_nodes
    return horizon * steps ** 2


def caloric_minus1_norm(u0: RealField, params: SpaceParams,
                        sweep: "BoxSweepConfig | None" = None,
                        times: "np.ndarray | None" = None) -> NormReport:
    """x_norm of the caloric extension t -> exp(-t(-Lap)^beta) u0, sampled on
    a graded grid covering the largest swept box by default.

    This is the data-size functional of the well-posedness theory: finite
    smallness of it is what the contraction argument consumes.  The
    extension never leaves spectral space: each node's half spectrum is
    made on the fly and its snapshot, blocks and Riesz planes come out of
    the same batched inverse."""
    grid = u0.grid
    sweep = _sweep_for(grid, sweep)
    if times is None:
        times = caloric_coverage_times(grid, params)
    times = np.asarray(times, dtype=float)
    check_times(times)
    spec = spectral.forward(_centered(u0))
    lam = spectral.half(ops.dissipation_symbol(grid, 2 * params.beta))
    spectra = (np.exp(-t * lam) * spec for t in times)
    comp = _solution_parts(times, spectra, None, grid, params, 0, sweep)
    return _solution_report(comp, _hash(
        grid, sweep, f"caloric;a={params.alpha!r};b={params.beta!r};M={len(times)}"))
