"""Carleson-box sweeps: box families, indicator sums, the one sweep driver
(``_RadiusSweep``), and time quadrature.

A box is the parabolic region (0, r^(2 beta)) x B(x0, r) with the ball taken
in torus distance; the same (x0, r) also names the axis-aligned cube of edge
2r used by the cube-based estimators.  Sweeps run over a dyadic radius ladder
r_m = L 2^(-m) with centers on a coarse sublattice of spacing r_m / 2, so
enlarging a sweep only ever adds boxes and a reported supremum is a certified
lower bound that never decreases under enlargement.

Spatial box sums are circular convolutions with the (even) indicator of the
ball or cube, evaluated by real FFT once per radius and read off at every
center at once.

Time integrals use exact weights: each cell contributes the closed-form
integral of the weight times the non-singular factor frozen at one point.
Ladder-based estimators anchor a geometric ladder at the top of the time
interval and integrate above the lowest node only, so adding ladder nodes
adds cells below without touching existing cells (monotone in the node
count); trajectory-based estimators take their cells from the data's time
grid, head cell (0, t_1] included, with the integrand frozen at the right
node of each cell.

The ladders of dyadic radii overlap.  Halving r lowers a ladder's top
r^(2 beta) by a factor 2^(2 beta); when that factor is a whole number of
ratio steps, the smaller radius's ladder is the larger one shifted down by
that many steps, so its upper nodes are the larger one's lower nodes.  The
semigroup estimator of the Q norm makes each shared node once
(``norms._ladder_sweep``).  Nodes whose times agree to 1e-12 relative are
one node, timed by the largest radius holding it, and each radius adds its
own weighted energies in ascending time order.  So the largest radius's
density is the one its lone ladder gives, and adding a smaller radius
leaves the density of every existing radius unchanged, bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteError
from .fields import GridSpec
from . import spectral


@dataclass(frozen=True)
class CarlesonBox:
    """Center (on the torus) and spatial radius of one parabolic box."""

    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("box radius must be positive")


# Ratio of successive nodes of the Q-norm semigroup estimator's time ladders.
# A radius halving is 8 beta ladder steps, a whole number (6) at beta = 3/4,
# where dyadic radii share nodes.
TIME_RATIO = 2.0 ** 0.25


@dataclass(frozen=True)
class BoxSweepConfig:
    """Sweep sizes: dyadic radii L/2 .. L/2^num_radii, geometric time ladder.

    ``time_nodes`` nodes of ratio ``TIME_RATIO`` make the ladder used by the
    semigroup characterization of the Q norm; trajectory-based estimators take
    their time resolution from the data instead.
    """

    num_radii: int = 3
    time_nodes: int = 16

    def __post_init__(self):
        if self.num_radii < 3:
            raise ValueError("need at least three sweep radii")
        if self.time_nodes < 16:
            raise ValueError("need at least 16 time nodes")

    def validate_for(self, grid: GridSpec) -> None:
        for m in range(1, self.num_radii + 1):
            if grid.n % (2 ** (m + 1)):
                raise ValueError(
                    f"grid with N={grid.n} cannot center boxes of radius "
                    f"L/2^{m} on a sublattice of spacing L/2^{m + 1}"
                )

    def radii(self, grid: GridSpec) -> list[float]:
        return [grid.length / 2 ** m for m in range(1, self.num_radii + 1)]

    def stride(self, grid: GridSpec, m: int) -> int:
        """Center sublattice stride (in grid points) for radius L/2^m."""
        return grid.n // 2 ** (m + 1)


# -- indicator masks and box sums ---------------------------------------------

def _mask(grid: GridSpec, radius: float, kind: str) -> np.ndarray:
    """Boolean indicator of the ball/cube centered at the origin."""
    d = grid.signed_coords
    d1, d2 = np.meshgrid(d, d, indexing="ij")
    if kind == "ball":
        return (d1 * d1 + d2 * d2) < radius * radius
    if kind == "cube":
        return (np.abs(d1) < radius) & (np.abs(d2) < radius)
    raise ValueError(f"unknown mask kind {kind!r}")


@lru_cache(maxsize=256)
def _mask_spectrum(grid: GridSpec, radius: float, kind: str) -> np.ndarray:
    """Half spectrum of the ball/cube indicator centered at the origin."""
    spec = spectral.forward(_mask(grid, radius, kind).astype(float))
    spec.setflags(write=False)
    return spec


@lru_cache(maxsize=256)
def mask_point_count(grid: GridSpec, radius: float, kind: str) -> int:
    """Lattice points of the ball/cube that ``box_sums`` sums over, counted
    on the indicator itself, so no spectrum is made or cached."""
    return int(np.count_nonzero(_mask(grid, radius, kind)))


def box_sums(values: np.ndarray, grid: GridSpec, radius: float, kind: str) -> np.ndarray:
    """Circular convolution of ``values`` with the indicator of the ball/cube:
    entry (i, j) is the plain sum of ``values`` over the box centered there."""
    return spectrum_box_sums(spectral.forward(values), grid, radius, kind)


def spectrum_box_sums(spec: np.ndarray, grid: GridSpec, radius: float,
                      kind: str) -> np.ndarray:
    """``box_sums`` of the plane whose half spectrum is ``spec``, which is
    left unchanged, so one forward transform serves several radii."""
    return spectral.inverse(spec * _mask_spectrum(grid, radius, kind), grid.n)


def best_center(vals: np.ndarray, grid: GridSpec, stride: int) -> tuple[float, tuple[float, float]]:
    """Max over the center sublattice, first attaining center in row-major
    (lexicographic) order for deterministic reports."""
    sub = vals[::stride, ::stride]
    flat = int(np.argmax(sub))
    i, j = np.unravel_index(flat, sub.shape)
    c = grid.coords
    return float(sub[i, j]), (float(c[i * stride]), float(c[j * stride]))


# -- radius sweeps -------------------------------------------------------------

# Bound pruning skips work only when an upper bound, widened by this relative
# margin, is below the running maximum.  The bounds hold in exact arithmetic;
# what they must dominate are computed values.  An FFT box sum errs by about
# eps * log2(N^2) times the mass (the total) of its nonnegative density, and
# the Parseval masses, the pointwise caps and their sums by about
# eps * log2(N^2) of themselves.  The balls of radius L/2^m about the
# 4^(m+1) centers of its sublattice cover the torus, so a ball's lattice
# point count c satisfies c * 4^(m+1) >= N^2.  A node's charge is its mass
# or c times its peak, and its mass is at most N^2 times its peak, so either
# is at least its mass over 4^(m+1); so is the max ball sum of a partial
# density.  A radius's bound is therefore at least its density's mass over
# 4^(m+1), and relative to the bound the error is at most about
# eps * log2(N^2) * 4^(m+1): 1.1e-11 at the deepest radius of N = 64
# (m = 5), 2.3e-10 at N = 256 (m = 7).  1e-9 covers it, and the Besov
# pass's ~1e-15 (``norms._block_sups_below``).
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
    density (``factors[i]`` times its ball sums), ``charges`` bounds what
    each node adds to a ball, and ``stream`` streams the nodes of per-radius
    densities and prunes radii that can no longer win.

    The stream skips work that cannot change its answer.  Nodes go in
    ascending time, and each time a radius is finished, a radius whose upper
    bound falls below the best finished value is dropped: the ball sums of
    its partial density plus, for each node still to come, the smaller of
    its total energy and the ball's lattice point count
    (``mask_point_count``) times its energy's pointwise bound.  Nodes that
    only dropped radii hold are never made.  A dropped radius lies strictly
    below the reported supremum, so pruning keeps the certified lower bound
    and the supremum, value and box, bit for bit."""

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

    def charges(self, masses, peaks) -> np.ndarray:
        """The (radii x nodes) bounds on what node g's nonnegative energy
        adds to any ball of radius i: the smaller of its total ``masses[g]``
        and the ball's lattice point count times ``peaks[g]``, a bound on
        the energy at every point.  The count is ``mask_point_count`` of the
        mask that ``box_sums`` sums over, so the bound holds for every
        lattice ball; a box sum with a real-valued kernel in place of the
        indicator would need the kernel's l1 norm in place of the count.  A
        NaN mass or peak gives a NaN charge, which never prunes."""
        counts = [mask_point_count(self.grid, r, "ball") for r in self.radii]
        return np.minimum(masses, np.multiply.outer(counts, peaks))

    def stream(self, weights: np.ndarray, masses, rows, energy, per_node: int) -> None:
        """Sup over the radii of the densities sum_g weights[i, g] * energy_g.

        Nodes g go in ascending order, one at a time: ``rows(g, out)``
        writes node g's ``per_node`` half spectra into ``out``, they are
        inverted in place (``spectral.inverse_into``), and
        ``energy(g, planes)`` reduces node g's planes, in place, to its
        nonnegative energy.  A radius is finished, and its density dropped,
        once its last node (nonzero weight) is in.  When every radius weighs
        each node before its last as the largest radius does (trajectory
        cells clip only at a radius's horizon), the unfinished radii hold
        one partial density instead of one each.

        ``masses[i, g]`` bounds the sum of energy_g over any ball of radius
        i (``charges``); a 1-D ``masses[g]``, the total of energy_g, serves
        every radius.  Each time a radius finishes, an unfinished radius i
        is dropped when ``_beaten`` holds for

            factors[i] * (max over i's centers of the ball sums of its
                          partial density + sum over its later nodes of
                          weight * masses[i, g])

        which bounds its value, since the densities are nonnegative.  The
        transform-free bound with the sum over all of i's nodes in place of
        the ball sums is tried first.  When the unfinished radii share one
        partial density, it is forward-transformed at most once per round,
        and each ball-sum bound multiplies and inverts that spectrum.  A
        dropped radius is strictly below the final maximum, so the value and
        box are those of the exhaustive sweep bit for bit.

        A node is made only if an unfinished radius holds it, and the stream
        stops once every radius is finished or dropped.  The spectrum and
        plane buffers of one node and the one scratch plane that takes each
        weight * energy are allocated once per call."""
        n = self.grid.n
        last = [int(np.flatnonzero(row)[-1]) for row in weights]
        shared = all((row[:end] == weights[0, :end]).all() for row, end in zip(weights, last))
        table = weights.tolist()
        unfinished = list(range(len(self.radii)))
        after = np.cumsum((weights * np.asarray(masses))[:, ::-1], axis=1)[:, ::-1]
        tails = np.concatenate([after[:, 1:], np.zeros((len(last), 1))], axis=1)
        totals = after[:, 0]
        densities = {}      # radius -> partial density (not shared)
        common = np.zeros((n, n)) if shared else None
        specs = np.empty((per_node, n, spectral.half_width(n)), dtype=complex)
        planes = np.empty((per_node, n, n))
        scratch = np.empty((n, n))
        for g in range(weights.shape[1]):
            if not unfinished:
                break
            if not any(table[i][g] > 0 for i in unfinished):
                continue
            rows(g, specs)
            e = energy(g, spectral.inverse_into(specs, planes))
            ending = [i for i in unfinished if last[i] == g]
            if shared:
                for i in ending:
                    final = np.multiply(e, table[i][g], out=scratch)
                    final += common
                    self.finish(i, final)
            else:
                for i in unfinished:
                    w = table[i][g]
                    if w > 0:
                        if i in densities:
                            densities[i] += np.multiply(e, w, out=scratch)
                        else:
                            densities[i] = e * w
                for i in ending:
                    self.finish(i, densities.pop(i))
            unfinished = [i for i in unfinished if last[i] != g]
            if shared and unfinished:
                common += np.multiply(e, table[unfinished[0]][g], out=scratch)
            if ending:
                made = []       # the shared partial density's spectrum, this round

                def spectrum(i):
                    if not shared:
                        return spectral.forward(densities[i]) if i in densities else None
                    if not made:
                        made.append(spectral.forward(common))
                    return made[0]

                for i in list(unfinished):
                    if self._beaten_at(i, spectrum, totals[i], tails[i, g]):
                        unfinished.remove(i)
                        densities.pop(i, None)

    def _beaten_at(self, i, spectrum, total, tail) -> bool:
        """Whether radius i can no longer win, with ``total`` bounding the
        ball sums of its whole density and ``tail`` those of its nodes still
        to come.  ``spectrum(i)``, asked only when ``total`` does not drop
        the radius, is the half spectrum of its partial density, or None
        before its first node."""
        if _beaten(self.factors[i] * total, self.best):
            return True
        spec = spectrum(i)
        if spec is None:
            return False
        reach = best_center(spectrum_box_sums(spec, self.grid, self.radii[i], "ball"),
                            self.grid, self.strides[i])[0]
        return _beaten(self.factors[i] * (reach + tail), self.best)


# -- time quadrature ----------------------------------------------------------

# Exponent q of the graded time nodes t_m = T (m/M)^q of the solver's time
# grid and of the caloric norm: nodes cluster near t = 0, where the path
# norms' time weights t^(-alpha/beta) are singular.
GRADING = 2.0


def graded_times(horizon: float, num_nodes: int) -> np.ndarray:
    """Graded nodes t_m = horizon (m/M)^GRADING, m = 1..M, M = num_nodes."""
    m = np.arange(1, num_nodes + 1, dtype=float)
    return horizon * (m / num_nodes) ** GRADING


def geometric_ladder(upper: float, nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending cell bounds and midpoints of the top-anchored geometric
    ladder upper * TIME_RATIO^-(nodes-1) < ... < upper (nodes-1 cells)."""
    pts = upper * TIME_RATIO ** -np.arange(nodes - 1, -1, -1, dtype=float)
    lows, highs = pts[:-1], pts[1:]
    return lows, highs, 0.5 * (lows + highs)


def power_weight(lo: np.ndarray, hi: np.ndarray, exponent: float) -> np.ndarray:
    """Exact integral of t^(-exponent) over [lo, hi], for exponent < 1."""
    if exponent >= 1:
        raise ValueError("weight exponent must be < 1 for an integrable head")
    p = 1.0 - exponent
    return (np.asarray(hi) ** p - np.asarray(lo) ** p) / p


def trajectory_weights(times: np.ndarray, upper: float, exponent: float) -> tuple[np.ndarray, bool]:
    """Per-node exact weights for a right-node rule on the data's time cells.

    Cell m is (t_{m-1}, t_m] with t_0 = 0, clipped to (0, upper]; the weight
    t^(-exponent) is integrated in closed form over the clipped cell and
    attributed to the snapshot at t_m.  Returns (weights, partial) where
    ``partial`` flags trajectories that stop short of ``upper``.
    """
    t = np.asarray(times, dtype=float)
    lows = np.concatenate([[0.0], t[:-1]])
    lo = np.minimum(lows, upper)
    hi = np.minimum(t, upper)
    w = np.where(hi > lo, power_weight(lo, np.maximum(hi, lo), exponent), 0.0)
    return w, bool(t[-1] < upper * (1 - 1e-12))
