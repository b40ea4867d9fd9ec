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

from .errors import NonFiniteError
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


def _binary_scaled(v: np.ndarray, what: str) -> tuple[np.ndarray, int]:
    """v times 2^-e and e, the binary exponent of v's largest magnitude.

    Power-of-two scaling is exact, so a value computed from the scaled array
    and multiplied back by 2^e (``_unscaled``) is the value of v itself,
    while squares of the scaled entries neither overflow nor underflow.
    Raises NonFiniteError when v is not finite."""
    if not np.isfinite(v).all():
        raise NonFiniteError(f"{what} is not finite")
    scale = int(np.frexp(np.abs(v).max())[1])
    return np.ldexp(v, -scale), scale


def _unscaled(value: float, scale: int) -> float:
    """value * 2^scale, or NonFiniteError when that is not a finite float."""
    try:
        value = math.ldexp(value, scale)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise NonFiniteError("value overflows")
    return value


# -- dyadic block norms -------------------------------------------------------

def _block_masks(grid: GridSpec) -> list[np.ndarray]:
    """Half-spectrum annulus masks of the dyadic levels, in level order."""
    return [spectral.half(ops._annulus_mask(grid, level)) for level in ops.block_levels(grid)]


def _spectrum_block_sups(spec: np.ndarray, masks: list[np.ndarray], n: int) -> np.ndarray:
    """Sup norm of every dyadic block of a half spectrum, in level order (the
    block inverses batched)."""
    blocks = (np.where(mask, spec, 0.0) for mask in masks)
    return np.array([np.abs(p).max() for p in spectral.inverse_chunks(blocks, n)])


def _block_sups(values: np.ndarray, grid: GridSpec) -> tuple[list[int], np.ndarray]:
    """Sup norm of every dyadic frequency block (one forward transform, the
    block inverses batched)."""
    sups = _spectrum_block_sups(spectral.forward(values), _block_masks(grid), grid.n)
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
    with l(I) = 2r and f_I the cube average.

    For p = 2 the centered field is scaled by a power of two before its box
    sums are squared, so the value is finite and homogeneous at any finite
    amplitude, or NonFiniteError is raised."""
    if p < 1:
        raise ValueError(f"integrability exponent p must be >= 1, got {p}")
    grid = f.grid
    sweep = _sweep_for(grid, sweep)
    v = _centered(f)
    if p == 2:
        v, scale = _binary_scaled(v, "centered field")
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
    value = float(best) ** (1.0 / p)
    return NormReport(
        value=_unscaled(value, scale) if p == 2 else value,
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

# Two ladder nodes are one node when their decay times agree to this relative
# tolerance.  Nodes shared by dyadic-radius ladders agree to ~1e-15 and
# distinct nodes differ by percents.
_MERGE_RTOL = 1e-12


def _ladder_sweep(f: RealField, beta: float, sweep: BoxSweepConfig,
                  ladder) -> tuple[float, CarlesonBox]:
    """Square root of the swept supremum over the radii r of ``sweep`` of

        p_r * h^2 * sum_{|y-x|<r} sum_i w_ri |grad e^(-s_ri (-Lap)^beta) f(y)|^2

    and the box attaining it, where ``ladder(r)`` gives the ascending decay
    times s_r, the weights w_r and the prefactor p_r of radius r, and h^2 is
    the cell area.

    The ladders of dyadic radii overlap.  Nodes whose decay times agree to
    _MERGE_RTOL are one node, timed by the largest radius holding it.  Each
    distinct node's gradient pair is made once, in ascending time order
    through one chunked inverse, and its energy goes into the density of
    every radius holding it with that radius's weight.  A radius is
    box-summed, and its density dropped, once its last node is in.

    The centered field is scaled by 2^-e, e the binary exponent of its
    largest magnitude, and the value by 2^e.  Both are exact, so the squared
    energies neither overflow nor underflow at any finite amplitude.  Raises
    NonFiniteError on a non-finite centered field, density or value."""
    grid = f.grid
    v, scale = _binary_scaled(_centered(f), "centered field")
    spec = spectral.forward(v)
    radii = sweep.radii(grid)
    ladders = [ladder(r) for r in radii]

    nodes = []          # ascending [decay time, owner radius, [(radius, weight)]]
    for s, k, w in sorted((s, k, w) for k, (times, weights, _) in enumerate(ladders)
                          for s, w in zip(times, weights)):
        if not nodes or s - nodes[-1][0] > _MERGE_RTOL * s:
            nodes.append([s, k, []])
        elif k < nodes[-1][1]:
            nodes[-1][:2] = s, k
        nodes[-1][2].append((k, w))
    last = {k: g for g, (_, _, users) in enumerate(nodes) for k, _ in users}

    lam = spectral.half(ops.dissipation_symbol(grid, 2 * beta))
    d1 = spectral.half(ops.derivative_symbol(grid, 1))
    d2 = spectral.half(ops.derivative_symbol(grid, 2))

    def gradients():
        for s, _, _ in nodes:
            decayed = np.exp(-s * lam) * spec
            yield d1 * decayed
            yield d2 * decayed

    planes = spectral.inverse_chunks(gradients(), grid.n)
    densities = {}
    found = [None] * len(radii)
    for g, (_, _, users) in enumerate(nodes):
        gx, gy = next(planes), next(planes)
        energy = gx * gx + gy * gy
        for k, w in users:
            if k in densities:
                densities[k] += w * energy
            else:
                densities[k] = w * energy
            if last[k] == g:
                density = densities.pop(k)
                if not np.isfinite(density).all():
                    raise NonFiniteError(f"density at radius {radii[k]!r} is not finite")
                vals = ladders[k][2] * grid.cell_area * box_sums(density, grid, radii[k], "ball")
                val, center = best_center(vals, grid, sweep.stride(grid, k + 1))
                found[k] = val, CarlesonBox(center, radii[k])

    best, box = max(found, key=lambda item: item[0])   # first (largest) radius on ties
    return _unscaled(math.sqrt(max(best, 0.0)), scale), box


def q_norm_semigroup(f: RealField, params: SpaceParams,
                     sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """Square root of the swept supremum of

        r^(2a+2b-4) * int_0^(r^(2b)) int_{|y-x|<r}
            |grad e^(-t(-Lap)^b) f|^2 t^(-a/b) dy dt

    with the time integral on the top-anchored geometric ladder.  Ladders of
    successive radii are the same nodes shifted by 2b log 2 / log(ratio)
    steps; when that is an integer (b = 3/4 at the default ratio 2^(1/4))
    the shared nodes are made once (see ``_ladder_sweep``).  Finite and
    homogeneous at any finite amplitude, or NonFiniteError."""
    grid = f.grid
    sweep = _sweep_for(grid, sweep)
    a, b = params.alpha, params.beta

    def ladder(r):
        lows, highs, mids = geometric_ladder(r ** (2 * b), sweep.time_nodes, sweep.time_ratio)
        return mids, power_weight(lows, highs, a / b), r ** (2 * a + 2 * b - 4)

    value, box = _ladder_sweep(f, b, sweep, ladder)
    return NormReport(
        value=value,
        config_hash=_hash(grid, sweep, f"q_semigroup;a={a!r};b={b!r}"),
        attaining_box=box,
    )


def morrey_semigroup_functional(f: RealField, gamma: float, params: SpaceParams,
                                sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """Square root of the swept supremum of

        r^(2 gamma - 2) * int_0^r int_{|y-x|<r}
            |grad e^(-t^(2b) (-Lap)^b) f|^2 t dy dt

    the box functional equivalent to the cube oscillation norm of index
    lam = 2 - 2 gamma (0 < gamma < 1).  The ladder in t of radius r/2 is that
    of radius r shifted by log 2 / log(ratio) steps, 4 at the default ratio
    for every b, and shared nodes are made once (see ``_ladder_sweep``).
    Finite and homogeneous at any finite amplitude, or NonFiniteError."""
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    grid = f.grid
    sweep = _sweep_for(grid, sweep)
    b = params.beta

    def ladder(r):
        lows, highs, mids = geometric_ladder(r, sweep.time_nodes, sweep.time_ratio)
        return [t ** (2 * b) for t in mids], linear_weight(lows, highs), r ** (2 * gamma - 2)

    value, box = _ladder_sweep(f, b, sweep, ladder)
    return NormReport(
        value=value,
        config_hash=_hash(grid, sweep, f"morrey_semigroup;g={gamma!r};b={params.beta!r}"),
        attaining_box=box,
    )


# -- trajectory norms ----------------------------------------------------------

# The Besov pass skips a node whose l1 bound, widened by this relative margin,
# is below the running maximum.  The bound holds in exact arithmetic; what it
# must dominate is a computed block sum.  The real inverse FFT errs by about
# eps * log2(N) times the l1 norm of a block's coefficients and the bound's
# pairwise sum by about eps * log2(N^2), so a computed sum can exceed the
# computed bound by ~1e-15 relative: fields with all phases aligned exceed it
# by up to 2.5e-16 at N = 16, 64 and 256, and a delta, which attains it, by
# 0.0.  1e-9 covers that with six orders of magnitude to spare.
_BOUND_MARGIN = 1e-9


def _block_sum_bound(spec: np.ndarray, n: int) -> float:
    """sum_half colw |spec| / N^2, an upper bound on sum_l sup |P_l f| for the
    N x N field f with half spectrum ``spec``.

    colw is 2 on columns 1 .. N/2-1, which stand for their conjugate columns
    too, and 1 on columns 0 and N/2.  The bound holds because the dyadic
    annuli partition the nonzero modes and |sum c_j e^(i j x)| <= sum |c_j|."""
    colw = np.full(spec.shape[-1], 2.0)
    colw[[0, -1]] = 1.0
    return float(np.abs(spec).sum(axis=0) @ colw) / (n * n)


def _carleson_pass(times, spectrum, snapshots, grid, params, k, sweep):
    """Carleson part, its box, the partial-coverage flag and every node's
    ``_block_sum_bound``.

    Each node's snapshot and Riesz planes are streamed through one chunked
    inverse and reduced as they arrive: the energies |f|^2 + |R1 f|^2 +
    |R2 f|^2 go straight into one Carleson density per swept radius, with
    exact trajectory-cell weights for t^(-alpha/beta).  The densities and
    the stream's buffers are freed when this returns, so the Besov pass
    does not hold them."""
    a, b = params.alpha, params.beta
    n = grid.n
    carleson_weight = k / b          # (t^(k/(2b)))^2 inside the square
    r1 = spectral.half(ops.riesz_symbol(grid, 1))
    r2 = spectral.half(ops.riesz_symbol(grid, 2))
    l1 = np.empty(len(times))

    def rows():
        for m in range(len(times)):
            spec = spectrum(m)
            l1[m] = _block_sum_bound(spec, n)
            if snapshots is None:
                yield spec
            yield r1 * spec
            yield r2 * spec

    planes = spectral.inverse_chunks(rows(), n)
    values = iter(snapshots) if snapshots is not None else planes
    radii = sweep.radii(grid)
    cells = [trajectory_weights(times, r ** (2 * b), a / b) for r in radii]
    densities = [np.zeros((n, n)) for _ in radii]
    for m, t in enumerate(times):
        v = next(values)
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
    partial = any(flag for _, flag in cells)
    return math.sqrt(max(best, 0.0)), best_box, partial, l1


def _solution_parts(
    times: np.ndarray,
    spectrum,
    snapshots,
    grid: GridSpec,
    params: SpaceParams,
    k: int,
    sweep: BoxSweepConfig,
) -> dict:
    """Block-sup part plus Carleson part of the trajectory whose centered
    snapshot at times[m] has half spectrum ``spectrum(m)``.

    ``snapshots`` yields the matching physical values, or is None, in which
    case each snapshot comes out of the batched inverse as well (an identity
    row ahead of its Riesz rows).  Two passes:

    * Carleson pass (``_carleson_pass``): every node's snapshot and Riesz
      planes, streamed and reduced as they arrive.  It also records each
      node's Wiener bound t^w * ``_block_sum_bound`` >= t^w * sum_l
      sup |P_l f|, with w = (2b - 1 + k)/(2b).  A non-finite bound raises
      NonFiniteError.
    * Besov pass.  Nodes are visited by descending bound, ties in ascending
      index, and a node's block planes are made (``spectrum(m)`` is called
      again) only while bound * (1 + _BOUND_MARGIN) >= the running maximum.
      A node whose block sum reaches the maximum has a bound at least that
      large, so it is always evaluated; with equal sums the earliest node
      wins.  The value and its first attaining time are therefore those of
      the exhaustive loop over all nodes, bit for bit.

    Neither the spectra nor the planes are held for the whole trajectory."""
    b = params.beta
    sup_weight = (2 * b - 1 + k) / (2 * b)
    carleson, box, partial, l1 = _carleson_pass(
        times, spectrum, snapshots, grid, params, k, sweep)
    bounds = times ** sup_weight * l1
    if not np.isfinite(bounds).all():
        raise NonFiniteError("block-sum bound of a trajectory node is not finite")

    masks = _block_masks(grid)
    besov = -1.0
    best_m = None
    for m in np.argsort(-bounds, kind="stable"):
        if bounds[m] * (1 + _BOUND_MARGIN) < besov:
            break
        sups = _spectrum_block_sups(spectrum(m), masks, grid.n)
        bval = times[m] ** sup_weight * float(sups.sum())
        if bval > besov or (bval == besov and m < best_m):
            besov, best_m = bval, m
    return {
        "besov": besov,
        "carleson": carleson,
        "time": float(times[best_m]),
        "box": box,
        "partial": partial,
    }


def _xk_component(
    traj: Trajectory,
    params: SpaceParams,
    k: int,
    orders: tuple[int, int],
    sweep: BoxSweepConfig,
) -> dict:
    """Block-sup part plus Carleson part for one derivative multi-index.
    Node m's spectrum is the forward transform of centered snapshot m, times
    the derivative symbol."""
    grid = traj.grid
    symbol = None
    if orders != (0, 0):
        symbol = spectral.half(ops.mixed_derivative_symbol(grid, *orders))

    def spectrum(m):
        spec = spectral.forward(_centered(traj.snapshots[m]))
        return spec if symbol is None else symbol * spec

    centered = (_centered(s) for s in traj.snapshots) if symbol is None else None
    return _solution_parts(traj.times, spectrum, centered, grid, params, k, sweep)


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

    Computed in two passes (see ``_solution_parts``): the Carleson pass
    streams every snapshot's Riesz planes and records an l1 bound on each
    node's block sum; the Besov pass makes block planes only at nodes, taken
    by descending bound (ties: earliest first), whose bound widened by a
    1e-9 roundoff margin still reaches the running maximum.  The sup and its
    first attaining time equal those of an exhaustive loop bit for bit.
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
    extension never leaves spectral space: node m's half spectrum
    exp(-t_m (-Lap)^beta) u0^ is made when ``_solution_parts`` asks for it,
    once for the Carleson pass and again only at the nodes whose block-sum
    bound can still set the sup.

    The centered data is scaled by 2^-e, e the binary exponent of its
    largest magnitude, and both parts by 2^e; both steps are exact, so the
    value is homogeneous at any finite amplitude.  Raises NonFiniteError on
    non-finite data or a value that overflows."""
    grid = u0.grid
    sweep = _sweep_for(grid, sweep)
    if times is None:
        times = caloric_coverage_times(grid, params)
    times = np.asarray(times, dtype=float)
    check_times(times)
    v, scale = _binary_scaled(_centered(u0), "centered data")
    spec = spectral.forward(v)
    lam = spectral.half(ops.dissipation_symbol(grid, 2 * params.beta))
    comp = _solution_parts(times, lambda m: np.exp(-times[m] * lam) * spec, None,
                           grid, params, 0, sweep)
    comp["besov"] = _unscaled(comp["besov"], scale)
    comp["carleson"] = _unscaled(comp["carleson"], scale)
    report = _solution_report(comp, _hash(
        grid, sweep, f"caloric;a={params.alpha!r};b={params.beta!r};M={len(times)}"))
    if not math.isfinite(report.value):
        raise NonFiniteError("value overflows")
    return report
