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

import math
from collections import deque
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import NonFiniteError
from .fields import GridSpec, RealField, SpaceParams, Trajectory
from . import operators as ops
from . import spectral
from .operators import _rate_levels
from .sweep import (
    TIME_RATIO,
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
    attaining_box: "CarlesonBox | None" = None
    attaining_level: "int | None" = None
    attaining_time: "float | None" = None
    partial_coverage: bool = False
    parts: dict = dataclass_field(default_factory=dict)


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


def _binary_exponent(x: float) -> int:
    """The binary exponent e of x (|x| < 2^e), clamped to [-1022, 1000], so
    that |x| 2^-e < 2^24 and 2^-e is a normal float whose products with the
    Riesz symbols (nonzero entries above 2^-22 for N up to 2^21) are normal
    too.  Multiplying by 2^-e, or by a symbol scaled by it, is then exact,
    as ``np.ldexp`` would be, and as fast as any product."""
    return min(max(int(np.frexp(x)[1]), -1022), 1000)


# -- radius sweeps -------------------------------------------------------------

# Bound pruning skips work only when an upper bound, widened by this relative
# margin, is below the running maximum.  The bounds hold in exact arithmetic;
# what they must dominate are computed values.
# * Besov pass: the real inverse FFT errs by about eps * log2(N) times the l1
#   norm of a block's coefficients and the bound's pairwise sum by about
#   eps * log2(N^2), so a computed block sum can exceed the computed bound by
#   ~1e-15 relative: fields with all phases aligned exceed it by up to
#   2.5e-16 at N = 16, 64 and 256, and a delta, which attains it, by 0.0.
# * Carleson radii: an FFT box sum errs by about eps * log2(N^2) times the
#   mass (the total) of its nonnegative density, and the Parseval masses and
#   their sums by about eps * log2(N^2) of themselves.  The balls of radius
#   L/2^m about the 4^(m+1) centers of its sublattice cover the torus, so a
#   radius's bound is at least its density's mass over 4^(m+1), and relative
#   to the bound the error is at most about eps * log2(N^2) * 4^(m+1):
#   1.1e-11 at the deepest radius of N = 64 (m = 5), 2.3e-10 at N = 256
#   (m = 7).
# 1e-9 covers both.
_BOUND_MARGIN = 1e-9


def _beaten(bound: float, best: float) -> bool:
    """Whether ``bound`` widened by _BOUND_MARGIN is below ``best``; False
    whenever either is NaN, so a NaN never prunes."""
    return bound * (1 + _BOUND_MARGIN) < best


class _RadiusSweep:
    """Running supremum over the radii of a sweep with the exhaustive loop's
    answer: radius i's value is the maximum over its center sublattice, the
    box its first attaining center in row-major order, and the largest value
    wins, the larger radius (lower index) on an exact tie.

    ``offer`` takes a radius's values on the grid, ``finish`` a radius's
    density (``factors[i]`` times its ball sums), and ``stream`` streams the
    nodes of per-radius densities and prunes radii that can no longer win."""

    def __init__(self, grid: GridSpec, sweep: BoxSweepConfig, prefactors=None):
        self.grid = grid
        self.radii = sweep.radii(grid)
        self.strides = [sweep.stride(grid, i) for i in range(1, len(self.radii) + 1)]
        self.factors = [p * grid.cell_area for p in prefactors] if prefactors else None
        self.best, self.box, self.index = -1.0, None, len(self.radii)

    def offer(self, i: int, vals: np.ndarray) -> None:
        val, center = best_center(vals, self.grid, self.strides[i])
        if not math.isfinite(val):
            raise NonFiniteError(f"box value at radius {self.radii[i]!r} is not finite")
        if val > self.best or (val == self.best and i < self.index):
            self.best, self.box, self.index = val, CarlesonBox(center, self.radii[i]), i

    def finish(self, i: int, density: np.ndarray) -> None:
        if not np.isfinite(density).all():
            raise NonFiniteError(f"density at radius {self.radii[i]!r} is not finite")
        self.offer(i, self.factors[i] * box_sums(density, self.grid, self.radii[i], "ball"))

    def stream(self, weights: np.ndarray, masses, rows, energy, per_node: int) -> None:
        """Sup over the radii of the densities sum_g weights[i, g] * energy_g.

        Nodes g go in ascending order.  Node g's ``per_node`` half spectra
        ``rows(g)`` go through one chunked inverse, and ``energy(g, *planes)``
        reduces its planes to its nonnegative energy.  A radius is finished,
        and its density dropped, once its last node (nonzero weight) is in.
        When every radius weighs each node before its last as the largest
        radius does (trajectory cells clip only at a radius's horizon), the
        unfinished radii hold one partial density instead of one each.

        ``masses[g]`` bounds the total of energy_g.  Each time a radius
        finishes, an unfinished radius i is dropped when ``_beaten`` holds for

            factors[i] * (max over i's centers of the ball sums of its
                          partial density + sum over its later nodes of
                          weight * mass)

        which bounds its value, since the densities are nonnegative and a
        ball holds at most the whole torus.  The transform-free bound with
        the partial density's mass in place of its ball sums is tried first.
        A dropped radius is strictly below the final maximum, so the value and
        box are those of the exhaustive sweep bit for bit.

        A node is streamed only while an unfinished radius holds it, and the
        stream stops when every radius is finished or dropped.  The producer
        records each node it hands to the inverse, so the consumer reads
        exactly those planes; read-ahead that a later drop makes moot costs
        at most one batch."""
        count = weights.shape[1]
        last = [int(np.flatnonzero(row)[-1]) for row in weights]
        shared = all((row[:end] == weights[0, :end]).all() for row, end in zip(weights, last))
        table = weights.tolist()
        unfinished = list(range(len(self.radii)))
        after = np.cumsum((weights * np.asarray(masses))[:, ::-1], axis=1)[:, ::-1]
        tails = np.concatenate([after[:, 1:], np.zeros((len(last), 1))], axis=1)
        totals = after[:, 0]
        densities = {}      # radius -> partial density (not shared)
        common = np.zeros((self.grid.n,) * 2) if shared else None
        need = []           # need[g]: an unfinished radius holds node g

        def hold():
            need[:] = [any(table[i][g] > 0 for i in unfinished) for g in range(count)]

        sent = deque()

        def produce():
            for g in range(count):
                if need[g]:
                    sent.append(g)
                    yield from rows(g)

        hold()
        planes = spectral.inverse_chunks(produce(), self.grid.n)
        while unfinished:
            node = [next(planes) for _ in range(per_node)]
            g = sent.popleft()
            if not need[g]:
                continue
            e = energy(g, *node)
            del node
            ending = [i for i in unfinished if last[i] == g]
            if shared:
                for i in ending:
                    final = table[i][g] * e
                    final += common
                    self.finish(i, final)
            else:
                for i in unfinished:
                    w = table[i][g]
                    if w > 0:
                        if i in densities:
                            densities[i] += w * e
                        else:
                            densities[i] = w * e
                for i in ending:
                    self.finish(i, densities.pop(i))
            unfinished = [i for i in unfinished if last[i] != g]
            if shared and unfinished:
                common += table[unfinished[0]][g] * e
            if ending:
                for i in list(unfinished):
                    partial = common if shared else densities.get(i)
                    if self._beaten_at(i, partial, totals[i], tails[i, g]):
                        unfinished.remove(i)
                        densities.pop(i, None)
                hold()

    def _beaten_at(self, i, partial, total, tail) -> bool:
        """Whether radius i, with partial density ``partial`` (None before
        its first node) and ``tail`` still to come, can no longer win."""
        if _beaten(self.factors[i] * total, self.best):
            return True
        if partial is None:
            return False
        reach = best_center(box_sums(partial, self.grid, self.radii[i], "ball"),
                            self.grid, self.strides[i])[0]
        return _beaten(self.factors[i] * (reach + tail), self.best)


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
        attaining_level=levels[i],
    )


def besov_sup_norm(f: RealField, s: float) -> NormReport:
    """Weighted block supremum sup_l 2^(l s) * sup |block_l f|."""
    levels, sups = _block_sups(_centered(f), f.grid)
    weighted = sups * np.power(2.0, s * np.asarray(levels, dtype=float))
    i = int(np.argmax(weighted))
    return NormReport(
        value=float(weighted[i]),
        attaining_level=levels[i],
    )


# -- cube oscillation (Morrey) norm -------------------------------------------

def morrey_norm(f: RealField, p: float, lam: float,
                sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """sup over swept cubes I of ( l(I)^(-lam) * integral_I |f - f_I|^p )^(1/p)
    with l(I) = 2r and f_I the cube average, for p = 2, the paper's L^(2,lam)
    Morrey spaces; any other p raises ValueError.

    The centered field is scaled by a power of two before its box sums are
    squared, so the value is finite and homogeneous at any finite amplitude,
    or NonFiniteError is raised."""
    if p != 2:
        raise ValueError(f"only the integrability exponent p = 2 is computed, got {p}")
    grid = f.grid
    sweep = _sweep_for(grid, sweep)
    v, scale = _binary_scaled(_centered(f), "centered field")
    area = grid.cell_area
    search = _RadiusSweep(grid, sweep)
    for i, r in enumerate(sweep.radii(grid)):
        count = mask_point_count(grid, r, "cube")
        s1 = box_sums(v, grid, r, "cube")
        s2 = box_sums(v * v, grid, r, "cube")
        osc = np.maximum(s2 - s1 * s1 / count, 0.0)
        search.offer(i, (2.0 * r) ** (-lam) * area * osc)
    return NormReport(
        value=_unscaled(float(search.best) ** (1.0 / p), scale),
        attaining_box=search.box,
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
    excluded (a = alpha, b = beta, two space dimensions).

    The centered field is scaled by 2^-e, e the binary exponent of its
    largest magnitude, and the value by 2^e, both exact, so the squared
    differences neither overflow nor underflow at any finite amplitude.
    Raises NonFiniteError on a non-finite centered field or box value."""
    grid = f.grid
    sweep = _sweep_for(grid, sweep)
    a, b = params.alpha, params.beta
    v, scale = _binary_scaled(_centered(f), "centered field")
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
        value=_unscaled(math.sqrt(max(search.best, 0.0)), scale),
        attaining_box=search.box,
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
    every radius holding it with that radius's weight (``_RadiusSweep``).
    A radius is box-summed, and its density dropped, once its last node is
    in.  Node s's energy totals sum_half colw e^(-2 s lam) |grad f^|^2 / N^2
    (Parseval, ``_caloric_measures``), so once a radius is in, a radius
    whose bound cannot beat it is dropped, and nodes that only dropped radii
    hold are never made; the value and box are the exhaustive sweep's.

    The decay plane e^(-s lam) of node g is row g of the node table of
    ``_caloric_measures``, over the rate levels of
    ``operators._rate_levels``, gathered onto the modes.  The gather is exact:
    each mode's entry is exp of the same product -s * lam of the same
    doubles as in a full-plane exp.  The derivative symbols are i times real
    arrays (``_gradient_symbols``), so node g's rows (decay_g * (i f^)) *
    Im d_j are d_j * (decay_g * f^) entry for entry, up to the sign of a
    zero, and the energies are the same doubles.

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
    weights = np.zeros((len(radii), len(nodes)))
    for g, (_, _, users) in enumerate(nodes):
        for k, w in users:
            weights[k, g] = w

    im1, im2, magnitude = _gradient_symbols(grid)
    decay, measures = _caloric_measures(magnitude * np.abs(spec), grid, beta,
                                        [s for s, _, _ in nodes])
    masses = [math.ldexp(q, 2 * e) for _, e, q in measures]
    ispec = 1j * spec

    def gradients(g):
        decayed = decay(g) * ispec
        yield decayed * im1
        yield decayed * im2

    def energy(g, gx, gy):
        # the planes are views of a batch that nothing reads again
        e = np.square(gx, out=gx)
        e += np.square(gy, out=gy)
        return e

    search = _RadiusSweep(grid, sweep, [p for _, _, p in ladders])
    search.stream(weights, masses, gradients, energy, 2)
    return _unscaled(math.sqrt(max(search.best, 0.0)), scale), search.box


def q_norm_semigroup(f: RealField, params: SpaceParams,
                     sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """Square root of the swept supremum of

        r^(2a+2b-4) * int_0^(r^(2b)) int_{|y-x|<r}
            |grad e^(-t(-Lap)^b) f|^2 t^(-a/b) dy dt

    with the time integral on the top-anchored geometric ladder.  Ladders of
    successive radii are the same nodes shifted by 2b log 2 / log(TIME_RATIO)
    steps; when that is an integer (b = 3/4) the shared nodes are made once
    (see ``_ladder_sweep``).  Once a radius is finished, radii whose energy
    bound cannot beat it are dropped and the nodes only they hold never
    made; the value and box are the exhaustive sweep's, bit for bit.  Finite
    and homogeneous at any finite amplitude, or NonFiniteError."""
    grid = f.grid
    sweep = _sweep_for(grid, sweep)
    a, b = params.alpha, params.beta

    def ladder(r):
        lows, highs, mids = geometric_ladder(r ** (2 * b), sweep.time_nodes, TIME_RATIO)
        return mids, power_weight(lows, highs, a / b), r ** (2 * a + 2 * b - 4)

    value, box = _ladder_sweep(f, b, sweep, ladder)
    return NormReport(
        value=value,
        attaining_box=box,
    )


def morrey_semigroup_functional(f: RealField, gamma: float, params: SpaceParams,
                                sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """Square root of the swept supremum of

        r^(2 gamma - 2) * int_0^r int_{|y-x|<r}
            |grad e^(-t^(2b) (-Lap)^b) f|^2 t dy dt

    the box functional equivalent to the cube oscillation norm of index
    lam = 2 - 2 gamma (0 < gamma < 1).  The ladder in t of radius r/2 is that
    of radius r shifted by log 2 / log(TIME_RATIO) = 4 steps for every b,
    and shared nodes are made once (see ``_ladder_sweep``).
    Radii that cannot beat a finished one are dropped, as in
    ``q_norm_semigroup``, with the exhaustive sweep's value and box.
    Finite and homogeneous at any finite amplitude, or NonFiniteError."""
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    grid = f.grid
    sweep = _sweep_for(grid, sweep)
    b = params.beta

    def ladder(r):
        lows, highs, mids = geometric_ladder(r, sweep.time_nodes, TIME_RATIO)
        return [t ** (2 * b) for t in mids], linear_weight(lows, highs), r ** (2 * gamma - 2)

    value, box = _ladder_sweep(f, b, sweep, ladder)
    return NormReport(
        value=value,
        attaining_box=box,
    )


# -- trajectory norms ----------------------------------------------------------

@lru_cache(maxsize=16)
def _column_weights(n: int) -> np.ndarray:
    """colw: 2 on the half-spectrum columns 1 .. N/2-1, which stand for their
    conjugate columns too, and 1 on columns 0 and N/2, so that a sum over
    the full spectrum is the colw-weighted sum over the half."""
    colw = np.full(spectral.half_width(n), 2.0)
    colw[[0, -1]] = 1.0
    colw.setflags(write=False)
    return colw


def _half_sum(values: np.ndarray, n: int) -> float:
    """sum_half colw * values / N^2."""
    return float(values.sum(axis=0) @ _column_weights(n)) / (n * n)


def _spectrum_measures(spec: np.ndarray, n: int) -> tuple[float, int, float]:
    """(W, e, q) for the field f with half spectrum ``spec``, from one |spec|
    pass: W = sum_half colw |spec| / N^2 its Wiener sum, e the binary
    exponent of W, and q * 4^e its sum of squares sum_half colw |spec|^2 / N^2
    (Parseval).  Scaling by 2^-e first keeps q clear of overflow and
    underflow.

    W bounds sum_l sup |P_l f|, max |f| and max |R_j f|, because the dyadic
    annuli partition the nonzero modes and |sum c_j e^(i j x)| <= sum |c_j|."""
    mags = np.abs(spec)
    bound = _half_sum(mags, n)
    scale = _binary_exponent(bound)
    mags *= math.ldexp(1.0, -scale)
    return bound, scale, _half_sum(np.square(mags, out=mags), n)


@lru_cache(maxsize=16)
def _gradient_symbols(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Im d1, Im d2 and |grad| = hypot(|d1|, |d2|) on the half spectrum, with
    d_j the derivative symbols, which are purely imaginary; read-only.
    Im d_j are contiguous copies: with strided views of the complex symbols
    the corpus-q benchmark pass ran 8-10% slower."""
    d1 = spectral.half(ops.derivative_symbol(grid, 1))
    d2 = spectral.half(ops.derivative_symbol(grid, 2))
    parts = (d1.imag.copy(), d2.imag.copy(), np.hypot(np.abs(d1), np.abs(d2)))
    for part in parts:
        part.setflags(write=False)
    return parts


def _caloric_measures(spec: np.ndarray, grid: GridSpec, beta: float, times
                      ) -> tuple[Callable[[int], np.ndarray], list[tuple[float, int, float]]]:
    """``decay(m)``, the half-spectrum decay plane exp(-times[m] lam) with
    lam = |xi|^(2 beta), and the ``_spectrum_measures`` of every node
    exp(-t_m lam) spec of a caloric extension, with one exponent e for all
    nodes, that of max |spec|: decay only shrinks the modes, so no square
    overflows.

    Both come from one node table, table[m] = exp(-times[m] * levels) over
    the rate levels of ``operators._rate_levels``: 28 x 1,621 doubles
    (363 KB) for the N = 128 Q-norm ladder.  Modes with equal lam decay
    alike, so colw |spec| and colw |spec|^2 are first summed per level, and
    the Wiener bounds and sums of squares of all nodes are two matrix-vector
    products, table @ first and table^2 @ second, not a pass over each node's
    spectrum.  Those products need every row at once, so this is the one
    place that holds a (nodes x levels) table; everywhere else the planes
    come row by row from ``operators._decays``.  ``decay(m)`` gathers row m
    onto the modes, exactly as ``_decays`` does."""
    levels, level_of = _rate_levels(grid, beta)
    n = grid.n
    mags = np.abs(spec)
    scale = _binary_exponent(mags.max())
    mags *= math.ldexp(1.0, -scale)
    weighted = _column_weights(n) * mags / (n * n)
    first = np.bincount(level_of.ravel(), weighted.ravel(), levels.size)
    second = np.bincount(level_of.ravel(), (weighted * mags).ravel(), levels.size)
    table = np.exp(-np.outer(times, levels))
    bounds = (table @ first).tolist()
    sums = (np.square(table) @ second).tolist()

    def decay(m):
        # take, not table[m][level_of]: indexing converts the narrow index
        # first, which at N = 128 costs more than the full-plane exp
        return table[m].take(level_of)

    return decay, [(math.ldexp(w, scale), scale, q) for w, q in zip(bounds, sums)]


def _carleson_pass(times, spectrum, grid, params, k, sweep, scale, masses):
    """Carleson part, its box and the partial-coverage flag, from planes
    scaled by 2^-scale: the Riesz symbols carry the factor, so each Riesz
    row is one product, and each snapshot plane is scaled in place.

    Each streamed node's snapshot and two Riesz planes go through one
    chunked inverse and are reduced as they arrive: the energies
    |f|^2 + |R1 f|^2 + |R2 f|^2, times t^(k/b), go into one Carleson density
    per swept radius, with exact trajectory-cell weights for t^(-alpha/beta).
    Cells clip only at a radius's last node, so the unfinished radii share
    one partial density.  ``masses[m]`` bounds node m's energy total in the
    same scaled units; radii that can no longer win are dropped, and nodes
    that only they hold are not streamed (``_RadiusSweep.stream``)."""
    a, b = params.alpha, params.beta
    carleson_weight = k / b          # (t^(k/(2b)))^2 inside the square
    factor = math.ldexp(1.0, -scale)
    r1 = factor * spectral.half(ops.riesz_symbol(grid, 1))
    r2 = factor * spectral.half(ops.riesz_symbol(grid, 2))
    radii = sweep.radii(grid)
    cells = [trajectory_weights(times, r ** (2 * b), a / b) for r in radii]

    def rows(m):
        spec = spectrum(m)
        yield spec
        yield r1 * spec
        yield r2 * spec

    def energy(m, v, p1, p2):
        # e is a fresh array: a view would keep the planes' whole batch alive
        v *= factor
        e = v * v
        e += np.square(p1, out=p1)
        e += np.square(p2, out=p2)
        e *= times[m] ** carleson_weight
        return e

    search = _RadiusSweep(grid, sweep, [r ** (2 * a + 2 * b - 4) for r in radii])
    search.stream(np.array([w for w, _ in cells]), masses, rows, energy, 3)
    carleson = _unscaled(math.sqrt(max(search.best, 0.0)), scale)
    return carleson, search.box, any(flag for _, flag in cells)


def _solution_parts(
    times: np.ndarray,
    spectrum,
    grid: GridSpec,
    params: SpaceParams,
    k: int,
    sweep: BoxSweepConfig,
    measures=None,
) -> dict:
    """Block-sup part plus Carleson part of the trajectory whose centered
    snapshot at times[m] has half spectrum ``spectrum(m)``.  Three steps:

    * Measures, before any plane.  One |f^| pass per node gives its Wiener
      bound W and its sum of squares (``_spectrum_measures``), unless the
      caller passes them as ``measures``.  The energy total of node m is at
      most 2 t_m^(k/b) times its sum of squares, since |R1|^2 + |R2|^2 <= 1.
      One binary exponent e (``_binary_exponent``) of the largest W is fixed
      here: the Carleson planes are scaled by 2^-e and the Carleson part by
      2^e, both exact, so its squares neither overflow nor underflow at any
      finite amplitude.  A non-finite node raises NonFiniteError.
    * Carleson pass (``_carleson_pass``): streamed nodes in ascending time,
      each an identity row and two Riesz rows of one chunked inverse,
      reduced as they arrive; radii whose bound cannot beat the best
      finished one are dropped, and streaming stops once no unfinished
      radius holds the next node.  The value and box are those of the
      exhaustive sweep, bit for bit.
    * Besov pass.  With w = (2b - 1 + k)/(2b), nodes are visited by
      descending bound t^w W >= t^w sum_l sup |P_l f|, ties in ascending
      index, and a node's block planes are made (``spectrum(m)`` is called
      again) only while bound * (1 + _BOUND_MARGIN) >= the running maximum.
      A node whose block sum reaches the maximum has a bound at least that
      large, so it is always evaluated; with equal sums the earliest node
      wins.  The value and its first attaining time are therefore those of
      the exhaustive loop over all nodes, bit for bit.

    No plane is held for the whole trajectory."""
    b = params.beta
    if measures is None:
        measures = [_spectrum_measures(spectrum(m), grid.n) for m in range(len(times))]
    l1 = np.array([bound for bound, _, _ in measures])
    if not np.isfinite(l1).all():
        raise NonFiniteError("a trajectory node is not finite")
    scale = _binary_exponent(l1.max())
    masses = 2 * times ** (k / b) * np.array(
        [math.ldexp(q, 2 * (e - scale)) for _, e, q in measures])
    carleson, box, partial = _carleson_pass(
        times, spectrum, grid, params, k, sweep, scale, masses)
    sup_weight = (2 * b - 1 + k) / (2 * b)
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


def _x_k_parts(traj: Trajectory, params: SpaceParams, k: int,
               sweep: BoxSweepConfig) -> tuple[dict, tuple[int, int]]:
    """The largest ``_solution_parts`` value over the multi-indices |a| = k
    of t^(k/(2b)) d^a f, with its parts and orders (a1, a2); on an exact tie
    the larger a1 wins.  Every centered snapshot is forward-transformed once
    and its half spectrum held (1 MiB at N = 64, M = 32); each multi-index
    applies its symbol, exactly 1 when k = 0, to those spectra."""
    grid = traj.grid
    spectra = [spectral.forward(_centered(s)) for s in traj.snapshots]
    best, best_value, orders = None, None, None
    for a1 in range(k, -1, -1):
        symbol = spectral.half(ops.mixed_derivative_symbol(grid, a1, k - a1))
        comp = _solution_parts(traj.times, lambda m: symbol * spectra[m],
                               grid, params, k, sweep)
        value = comp["besov"] + comp["carleson"]
        if best is None or value > best_value:
            best, best_value, orders = comp, value, (a1, k - a1)
    return best, orders


def _solution_report(comp: dict) -> NormReport:
    return NormReport(
        value=comp["besov"] + comp["carleson"],
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

    ``x_k_norm``'s k = 0 case without orders:
    each centered snapshot is forward-transformed once, and the pruned
    Carleson and Besov passes of ``_solution_parts`` read the held half
    spectra.  The value, box, coverage flag and first attaining time equal
    those of an exhaustive loop bit for bit; the value is finite and
    homogeneous at any finite amplitude, or NonFiniteError is raised.
    """
    sweep = _sweep_for(traj.grid, sweep)
    comp, _ = _x_k_parts(traj, params, 0, sweep)
    return _solution_report(comp)


def x_k_norm(traj: Trajectory, params: SpaceParams, k: int,
             sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """Derivative-weighted solution norm: the x_norm structure applied to
    t^(k/(2b)) d^a u for every multi-index |a| = k, block part weighted by
    t^((2b-1+k)/(2b)), maximum over the k+1 multi-indices reported with its
    orders in ``parts["orders"]``.

    Every snapshot is forward-transformed once and its half spectrum held;
    each multi-index applies its symbol to those spectra (``_x_k_parts``).
    k = 0 has x_norm's value, box and time."""
    if k < 0:
        raise ValueError(f"derivative order k must be >= 0, got {k}")
    sweep = _sweep_for(traj.grid, sweep)
    comp, orders = _x_k_parts(traj, params, k, sweep)
    report = _solution_report(comp)
    report.parts["orders"] = list(orders)
    return report


def carleson_l1_functional(traj: Trajectory, params: SpaceParams,
                           sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """Swept supremum of r^(2a+2b-4) * iint_box |f(t,y)| t^(-a/b) dy dt,
    degree-1 homogeneous in the trajectory; no mean subtraction.  Raises
    NonFiniteError when a radius's density is not finite."""
    grid = traj.grid
    sweep = _sweep_for(grid, sweep)
    a, b = params.alpha, params.beta
    magnitudes = [np.abs(s.values) for s in traj.snapshots]
    radii = sweep.radii(grid)

    search = _RadiusSweep(grid, sweep, [r ** (2 * a + 2 * b - 4) for r in radii])
    partial = False
    for i, r in enumerate(radii):
        weights, was_partial = trajectory_weights(traj.times, r ** (2 * b), a / b)
        partial = partial or was_partial
        density = np.zeros((grid.n, grid.n))
        for w, g in zip(weights, magnitudes):
            if w > 0:
                density += w * g
        search.finish(i, density)
    return NormReport(
        value=float(max(search.best, 0.0)),
        attaining_box=search.box,
        partial_coverage=partial,
    )


def caloric_coverage_times(grid: GridSpec, params: SpaceParams,
                           num_nodes: int = 48) -> np.ndarray:
    """Graded times covering (0, r_max^(2 beta)] for the sweep's largest box."""
    horizon = (grid.length / 2) ** (2 * params.beta)
    steps = np.arange(1, num_nodes + 1, dtype=float) / num_nodes
    return horizon * steps ** 2


def caloric_minus1_norm(u0: RealField, params: SpaceParams,
                        sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """x_norm of the caloric extension t -> exp(-t(-Lap)^beta) u0, sampled on
    the graded grid ``caloric_coverage_times`` covering the largest swept box.

    This is the data-size functional of the well-posedness theory: finite
    smallness of it is what the contraction argument consumes.  The
    extension never leaves spectral space: node m's half spectrum
    exp(-t_m (-Lap)^beta) u0^ is made when ``_solution_parts`` asks for it:
    at the nodes the Carleson pass streams, and again at the nodes whose
    block-sum bound can still set the sup.  Its decay plane and every node's
    Wiener bound and energy come from one node table (``_caloric_measures``).

    The centered data is scaled by 2^-e, e the binary exponent of its
    largest magnitude, and both parts by 2^e; both steps are exact, so the
    value is homogeneous at any finite amplitude.  Raises NonFiniteError on
    non-finite data or a value that overflows."""
    grid = u0.grid
    sweep = _sweep_for(grid, sweep)
    times = caloric_coverage_times(grid, params)
    v, scale = _binary_scaled(_centered(u0), "centered data")
    spec = spectral.forward(v)
    decay, measures = _caloric_measures(spec, grid, params.beta, times)
    comp = _solution_parts(times, lambda m: decay(m) * spec,
                           grid, params, 0, sweep, measures)
    comp["besov"] = _unscaled(comp["besov"], scale)
    comp["carleson"] = _unscaled(comp["carleson"], scale)
    report = _solution_report(comp)
    if not math.isfinite(report.value):
        raise NonFiniteError("value overflows")
    return report
