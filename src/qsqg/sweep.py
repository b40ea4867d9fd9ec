"""Carleson-box sweeps: box families, indicator sums, and time quadrature.

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

The ladders of dyadic radii overlap.  Halving r lowers a ladder's top by a
factor 2^(2 beta) (top r^(2 beta)) or 2 (top r); when that factor is a
whole number of ratio steps, the smaller radius's ladder is the larger one
shifted down by that many steps, so its upper nodes are the larger one's
lower nodes.  The semigroup estimators make each shared node once
(``norms._ladder_sweep``).  Nodes whose times agree to 1e-12 relative are
one node, timed by the largest radius holding it, and each radius adds its
own weighted energies in ascending time order.  So the largest radius's
density is the one its lone ladder gives, and adding a smaller radius
leaves the density of every existing radius unchanged, bit for bit.

Sweeps skip work that cannot change their answer (``norms._RadiusSweep``).
Nodes go in ascending time, and each time a radius is finished, a radius
whose upper bound (the ball sums of its partial density plus the total
energy of its nodes still to come) falls below the best finished value is
dropped; nodes that only dropped radii hold are never made.  A dropped
radius lies strictly below the reported supremum, so pruning keeps the
certified lower bound and the supremum, value and box, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


# Ratio of successive nodes of the semigroup estimators' time ladders.  A
# radius halving is then a whole number of ladder steps (4 for the Morrey
# functional; 8 beta for the Q-norm, 6 at beta = 3/4), so dyadic radii share
# nodes.
TIME_RATIO = 2.0 ** 0.25


@dataclass(frozen=True)
class BoxSweepConfig:
    """Sweep sizes: dyadic radii L/2 .. L/2^num_radii, geometric time ladder.

    ``time_nodes`` nodes of ratio ``TIME_RATIO`` make the ladder used by the
    semigroup-characterization estimators; trajectory-based estimators take
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

@lru_cache(maxsize=256)
def _mask_spectrum(grid: GridSpec, radius: float, kind: str) -> np.ndarray:
    """Half spectrum of the ball/cube indicator centered at the origin."""
    d = grid.signed_coords
    d1, d2 = np.meshgrid(d, d, indexing="ij")
    if kind == "ball":
        mask = (d1 * d1 + d2 * d2) < radius * radius
    elif kind == "cube":
        mask = (np.abs(d1) < radius) & (np.abs(d2) < radius)
    else:
        raise ValueError(f"unknown mask kind {kind!r}")
    spec = spectral.forward(mask.astype(float))
    spec.setflags(write=False)
    return spec


@lru_cache(maxsize=256)
def mask_point_count(grid: GridSpec, radius: float, kind: str) -> int:
    spec = _mask_spectrum(grid, radius, kind)
    return int(round(spec[0, 0].real))


def box_sums(values: np.ndarray, grid: GridSpec, radius: float, kind: str) -> np.ndarray:
    """Circular convolution of ``values`` with the indicator of the ball/cube:
    entry (i, j) is the plain sum of ``values`` over the box centered there."""
    spec = spectral.forward(values) * _mask_spectrum(grid, radius, kind)
    return spectral.inverse(spec, grid.n)


def best_center(vals: np.ndarray, grid: GridSpec, stride: int) -> tuple[float, tuple[float, float]]:
    """Max over the center sublattice, first attaining center in row-major
    (lexicographic) order for deterministic reports."""
    sub = vals[::stride, ::stride]
    flat = int(np.argmax(sub))
    i, j = np.unravel_index(flat, sub.shape)
    c = grid.coords
    return float(sub[i, j]), (float(c[i * stride]), float(c[j * stride]))


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


def linear_weight(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact integral of t over [lo, hi]."""
    return 0.5 * (np.asarray(hi) ** 2 - np.asarray(lo) ** 2)


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
