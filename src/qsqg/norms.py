"""Norm estimators: the cube oscillation (Morrey) norm, the semigroup
(Carleson) characterization of the Q norm, and the solution-space norms
built from trajectories, whose block part is a dyadic-block sup norm.

All estimators here are seminorms modulo constants: the spatial mean is
subtracted on ingestion (except the L1 Carleson functional, which is defined
for arbitrary integrands).  Suprema over boxes are taken over the finite
family described by a BoxSweepConfig and are therefore certified lower bounds
of the continuum quantities; enlarging the sweep never decreases a report.

Every estimator runs on ``fields.scaled_values`` (one exponent per
trajectory) and scales its value back with ``fields.unscaled``, so it is
finite and homogeneous at any finite amplitude, or raises NonFiniteError, as
a non-finite value smuggled past RealField's constructor does downstream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .errors import NonFiniteError
from .fields import (GridSpec, RealField, SpaceParams, Trajectory, binary_exponent,
                     scaled_values, unscaled)
from . import operators as ops
from . import spectral
from .operators import _rate_levels
from .sweep import (
    BoxSweepConfig,
    CarlesonBox,
    best_center,
    box_sums,
    geometric_ladder,
    graded_times,
    mask_point_count,
    power_weight,
    trajectory_weights,
)

__all__ = [
    "NormReport",
    "morrey_norm",
    "q_norm_semigroup",
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
    attaining_time: "float | None" = None
    partial_coverage: bool = False
    parts: dict = dataclass_field(default_factory=dict)


def _sweep_for(grid: GridSpec, sweep: "BoxSweepConfig | None") -> BoxSweepConfig:
    sweep = sweep if sweep is not None else BoxSweepConfig()
    sweep.validate_for(grid)
    return sweep


# -- radius sweeps -------------------------------------------------------------

# Bound pruning skips work only when an upper bound, widened by this relative
# margin, is below the running maximum.  The bounds hold in exact arithmetic;
# what they must dominate are computed values.
# * Besov pass: block l's Wiener sum W_l, the colw-weighted l1 norm of its
#   coefficients over N^2, bounds its sup, and the W_l of a node sum to its
#   bound W.  The real inverse FFT errs by about eps * log2(N) times W_l and
#   the sums by about eps * log2(N^2), so a computed block sup, or a node's
#   sups so far plus its remaining W_l, can exceed the exact bound by ~1e-15
#   relative: fields with all phases aligned exceed W by up to 2.5e-16 at
#   N = 16, 64 and 256, and a delta, which attains every W_l, by 0.0.
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

        Nodes g go in ascending order, in batches of whole nodes holding at
        most ``spectral.CHUNK_BYTES`` of half spectra (at least one node).
        ``rows(g, out)`` writes node g's ``per_node`` half spectra into
        ``out``, the batch is inverted in place (``spectral.inverse_into``),
        and ``energy(g, planes)`` reduces node g's planes, in place, to its
        nonnegative energy.  A radius is finished, and its density dropped,
        once its last node (nonzero weight) is in.  When every radius weighs
        each node before its last as the largest radius does (trajectory
        cells clip only at a radius's horizon), the unfinished radii hold
        one partial density instead of one each.

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

        A batch takes the next nodes that an unfinished radius holds, and the
        stream stops when every radius is finished or dropped.  A node of
        the batch that a drop has made moot is skipped, so read-ahead costs
        at most one batch.  The batch buffers and the one scratch plane that
        takes each weight * energy are allocated once per call."""
        n, count = self.grid.n, weights.shape[1]
        last = [int(np.flatnonzero(row)[-1]) for row in weights]
        shared = all((row[:end] == weights[0, :end]).all() for row, end in zip(weights, last))
        table = weights.tolist()
        unfinished = list(range(len(self.radii)))
        after = np.cumsum((weights * np.asarray(masses))[:, ::-1], axis=1)[:, ::-1]
        tails = np.concatenate([after[:, 1:], np.zeros((len(last), 1))], axis=1)
        totals = after[:, 0]
        densities = {}      # radius -> partial density (not shared)
        common = np.zeros((n, n)) if shared else None
        need = []           # need[g]: an unfinished radius holds node g

        def hold():
            need[:] = (weights[unfinished] > 0).any(axis=0).tolist()

        per = min(spectral.batch_count(n, per_node), count)
        specs = np.empty((per, per_node, n, spectral.half_width(n)), dtype=complex)
        planes = np.empty((per, per_node, n, n))
        scratch = np.empty((n, n))
        hold()
        ahead = 0           # the first node not yet batched
        while unfinished:
            batch = []
            while len(batch) < per and ahead < count:
                if need[ahead]:
                    rows(ahead, specs[len(batch)])
                    batch.append(ahead)
                ahead += 1
            spectral.inverse_into(specs[:len(batch)], planes[:len(batch)])
            for g, node in zip(batch, planes):
                if not need[g]:
                    continue
                e = energy(g, node)
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
    """Sup norm of the block of a half spectrum under each of ``masks``, in
    order, the blocks inverted in place in batches of at most CHUNK_BYTES."""
    per = min(spectral.batch_count(n), len(masks))
    blocks = np.empty((per, n, spectral.half_width(n)), dtype=complex)
    planes = np.empty((per, n, n))
    sups = np.empty(len(masks))
    for start in range(0, len(masks), per):
        chunk = masks[start:start + per]
        for block, mask in zip(blocks, chunk):
            block.fill(0.0)
            np.copyto(block, spec, where=mask)
        done = spectral.inverse_into(blocks[:len(chunk)], planes[:len(chunk)])
        sups[start:start + len(chunk)] = np.abs(done, out=done).max(axis=(1, 2))
    return sups


@lru_cache(maxsize=16)
def _block_index(grid: GridSpec) -> np.ndarray:
    """Half-spectrum map from each mode to its block's position in level
    order, and to len(block_levels) on the zero mode, which no annulus
    holds; read-only.  A ``np.bincount`` over it sums a plane per block."""
    masks = _block_masks(grid)
    index = np.full(masks[0].shape, len(masks), dtype=np.intp)
    for j, mask in enumerate(masks):
        index[mask] = j
    index.setflags(write=False)
    return index


def _block_sups_below(spec: np.ndarray, grid: GridSpec, masks: list[np.ndarray],
                      weight: float, best: float) -> "np.ndarray | None":
    """``_spectrum_block_sups`` of ``spec``, or None once ``weight`` times
    its block sum can no longer reach ``best``.

    Block l's Wiener sum W_l = sum over block l of colw |spec| / N^2 bounds
    sup |P_l f|, and the W_l of all blocks are one ``np.bincount`` over
    ``_block_index``.  Blocks are inverted one per call, largest W_l first,
    and before each the node is abandoned when ``_beaten`` holds for
    weight * (sum of the sups made + sum of the W_l still to come).  Once
    weight times the sups made alone is not beaten, no later check can
    abandon the node, and its remaining blocks are inverted together (one
    call at N = 64); when that holds before any block, as for the first
    node visited, no W_l is summed.  The sups of a node not abandoned are
    the batched call's doubles."""
    n = grid.n
    if not _beaten(0.0, best):
        return _spectrum_block_sups(spec, masks, n)
    mags = np.abs(spec)
    mags *= _column_weights(n) / (n * n)
    wiener = np.bincount(_block_index(grid).ravel(), mags.ravel(), len(masks) + 1)[:-1]
    order = np.argsort(-wiener, kind="stable").tolist()
    to_come = np.cumsum(wiener[order[::-1]])[::-1].tolist()
    sups = np.empty(len(masks))
    reached = 0.0
    for j, (l, rest) in enumerate(zip(order, to_come)):
        if _beaten(weight * (reached + rest), best):
            return None
        if not _beaten(weight * reached, best):
            left = order[j:]
            sups[left] = _spectrum_block_sups(spec, [masks[i] for i in left], n)
            return sups
        sups[l] = _spectrum_block_sups(spec, [masks[l]], n)[0]
        reached += sups[l]
    return sups


# -- cube oscillation (Morrey) norm -------------------------------------------

def morrey_norm(f: RealField, p: float, lam: float,
                sweep: "BoxSweepConfig | None" = None) -> NormReport:
    """sup over swept cubes I of ( l(I)^(-lam) * integral_I |f - f_I|^p )^(1/p)
    with l(I) = 2r and f_I the cube average, for p = 2, the paper's L^(2,lam)
    Morrey spaces; any other p raises ValueError."""
    if p != 2:
        raise ValueError(f"only the integrability exponent p = 2 is computed, got {p}")
    grid = f.grid
    sweep = _sweep_for(grid, sweep)
    v, scale = scaled_values(f, centered=True)
    area = grid.cell_area
    search = _RadiusSweep(grid, sweep)
    for i, r in enumerate(sweep.radii(grid)):
        count = mask_point_count(grid, r, "cube")
        s1 = box_sums(v, grid, r, "cube")
        s2 = box_sums(v * v, grid, r, "cube")
        osc = np.maximum(s2 - s1 * s1 / count, 0.0)
        search.offer(i, (2.0 * r) ** (-lam) * area * osc)
    return NormReport(
        value=unscaled(float(search.best) ** (1.0 / p), scale),
        attaining_box=search.box,
    )


# -- semigroup (Carleson) characterization of the Q norm ----------------------

# Two ladder nodes are one node when their decay times agree to this relative
# tolerance.  Nodes shared by dyadic-radius ladders agree to ~1e-15 and
# distinct nodes differ by percents.
_MERGE_RTOL = 1e-12


def _q_ladder(r: float, time_nodes: int, a: float, b: float):
    """Ladder of ``q_norm_semigroup``'s radius r: times t on the ladder
    below r^(2b), the exact integrals of t^(-a/b) over their cells, and the
    prefactor r^(2a+2b-4)."""
    lows, highs, mids = geometric_ladder(r ** (2 * b), time_nodes)
    return mids, power_weight(lows, highs, a / b), r ** (2 * a + 2 * b - 4)


@lru_cache(maxsize=16)
def _ladder_plan(grid: GridSpec, sweep: BoxSweepConfig, alpha: float, beta: float):
    """The part of ``_ladder_sweep`` that does not depend on the field, read-
    only: the weights (radii x merged nodes), the radii's prefactors, the
    node table exp(-s_g lam) over the rate levels and its square, and the
    modes' level indices as intp (``take`` then converts nothing).

    ``_q_ladder`` gives each radius's ascending decay times, weights and
    prefactor.  Nodes of different radii whose decay times agree to
    _MERGE_RTOL are one node, timed by the largest radius holding it."""
    ladders = [_q_ladder(r, sweep.time_nodes, alpha, beta) for r in sweep.radii(grid)]
    nodes = []          # ascending [decay time, owner radius, [(radius, weight)]]
    for s, k, w in sorted((s, k, w) for k, (times, weights, _) in enumerate(ladders)
                          for s, w in zip(times, weights)):
        if not nodes or s - nodes[-1][0] > _MERGE_RTOL * s:
            nodes.append([s, k, []])
        elif k < nodes[-1][1]:
            nodes[-1][:2] = s, k
        nodes[-1][2].append((k, w))
    weights = np.zeros((len(ladders), len(nodes)))
    for g, (_, _, users) in enumerate(nodes):
        for k, w in users:
            weights[k, g] = w
    table, squares = _node_tables(grid, beta, [s for s, _, _ in nodes])
    index = _rate_levels(grid, beta)[1].astype(np.intp)
    for part in (weights, table, squares, index):
        part.setflags(write=False)
    return weights, tuple(p for _, _, p in ladders), table, squares, index


def _ladder_sweep(f: RealField, sweep: BoxSweepConfig, alpha: float,
                  beta: float) -> tuple[float, CarlesonBox]:
    """Square root of the swept supremum over the radii r of ``sweep`` of

        p_r * h^2 * sum_{|y-x|<r} sum_i w_ri |grad e^(-s_ri (-Lap)^beta) f(y)|^2

    and the box attaining it, where ``_q_ladder`` gives the ascending decay
    times s_r, the weights w_r and the prefactor p_r of radius r, and h^2 is
    the cell area.

    The ladders of dyadic radii overlap, and their merged nodes, weights,
    prefactors and node table are built once per grid (``_ladder_plan``).
    Each distinct node's gradient pair is made once, in ascending time
    order, in batches inverted in place, and its energy goes into the
    density of every radius holding it with that radius's weight
    (``_RadiusSweep``).  A radius is box-summed, and its density dropped,
    once its last node is in.  Node s's energy totals
    sum_half colw e^(-2 s lam) |grad f^|^2 / N^2 (Parseval,
    ``_caloric_measures``), so once a radius is in, a radius whose bound
    cannot beat it is dropped, and nodes that only dropped radii hold are
    never made; the value and box are the exhaustive sweep's.

    The decay plane e^(-s lam) of node g is row g of the node table, over
    the rate levels of ``operators._rate_levels``, gathered onto the modes
    into one held plane.  The gather is exact: each mode's entry is exp of
    the same product -s * lam of the same doubles as in a full-plane exp.
    The derivative symbols are i times real arrays (``_gradient_symbols``),
    so node g's rows (decay_g * (i f^)) * Im d_j are d_j * (decay_g * f^)
    entry for entry, up to the sign of a zero, and the energies are the
    same doubles."""
    grid = f.grid
    v, scale = scaled_values(f, centered=True)
    spec = spectral.forward(v)
    weights, prefactors, table, squares, index = _ladder_plan(grid, sweep, alpha, beta)
    im1, im2, magnitude = _gradient_symbols(grid)
    measures = _caloric_measures(magnitude * np.abs(spec), grid, beta, table, squares)
    masses = [math.ldexp(q, 2 * e) for _, e, q in measures]
    ispec = 1j * spec
    decay = np.empty(index.shape)

    def gradients(g, out):
        # clip: the indices are in range, and the default mode buffers ``out``
        table[g].take(index, out=decay, mode="clip")
        np.multiply(decay, ispec, out=out[0])
        np.multiply(out[0], im2, out=out[1])
        np.multiply(out[0], im1, out=out[0])

    def energy(g, planes):
        e = np.square(planes[0], out=planes[0])
        e += np.square(planes[1], out=planes[1])
        return e

    search = _RadiusSweep(grid, sweep, prefactors)
    search.stream(weights, masses, gradients, energy, 2)
    return unscaled(math.sqrt(max(search.best, 0.0)), scale), search.box


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
    made; the value and box are the exhaustive sweep's, bit for bit."""
    sweep = _sweep_for(f.grid, sweep)
    value, box = _ladder_sweep(f, sweep, params.alpha, params.beta)
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
    pass: W = sum_half colw |spec| / N^2 its Wiener sum and q * 4^e its sum
    of squares sum_half colw |spec|^2 / N^2 (Parseval), with e the binary
    exponent of max |spec|.  Both sums run on |spec| scaled by 2^-e, which
    is exact, so they neither overflow nor underflow, and W is the sum
    scaled back (``fields.unscaled``: NonFiniteError when W is not finite).

    W bounds sum_l sup |P_l f|, max |f| and max |R_j f|, because the dyadic
    annuli partition the nonzero modes and |sum c_j e^(i j x)| <= sum |c_j|."""
    mags = np.abs(spec)
    scale = binary_exponent(mags.max())
    mags *= math.ldexp(1.0, -scale)
    bound = unscaled(_half_sum(mags, n), scale)
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


def _node_tables(grid: GridSpec, beta: float, times) -> tuple[np.ndarray, np.ndarray]:
    """The node table exp(-times[m] * levels) over the rate levels of
    ``operators._rate_levels`` (28 x 1,621 doubles, 363 KB, for the N = 128
    Q-norm ladder) and its square."""
    table = np.exp(-np.outer(times, _rate_levels(grid, beta)[0]))
    return table, np.square(table)


def _caloric_measures(spec: np.ndarray, grid: GridSpec, beta: float, table: np.ndarray,
                      squares: np.ndarray) -> list[tuple[float, int, float]]:
    """The ``_spectrum_measures`` of every node exp(-t_m lam) spec of a
    caloric extension, lam = |xi|^(2 beta), from its node table and the
    table's square (``_node_tables``), with one exponent e for all nodes,
    that of max |spec|: decay only shrinks the modes, so no square
    overflows.

    Modes with equal lam decay alike, so colw |spec| and colw |spec|^2 are
    first summed per rate level, and the Wiener bounds and sums of squares
    of all nodes are two matrix-vector products, table @ first and
    squares @ second, not a pass over each node's spectrum.  Those products
    need every row at once, so the (nodes x levels) table is the one plane
    stack held; a node's decay plane is its row gathered onto the modes,
    exactly as ``operators._decays`` makes it."""
    levels, level_of = _rate_levels(grid, beta)
    n = grid.n
    mags = np.abs(spec)
    scale = binary_exponent(mags.max())
    mags *= math.ldexp(1.0, -scale)
    weighted = _column_weights(n) * mags / (n * n)
    first = np.bincount(level_of.ravel(), weighted.ravel(), levels.size)
    second = np.bincount(level_of.ravel(), (weighted * mags).ravel(), levels.size)
    bounds = (table @ first).tolist()
    sums = (squares @ second).tolist()
    return [(math.ldexp(w, scale), scale, q) for w, q in zip(bounds, sums)]


def _carleson_pass(times, spectrum, grid, params, k, sweep, scale, masses):
    """Carleson part times 2^-scale, its box and the partial-coverage flag,
    from planes scaled by 2^-scale: each node's snapshot row is scaled as it
    is copied into the batch, and its Riesz rows are products of that row.

    Each streamed node's three rows are inverted in place with their batch,
    and its planes are reduced in place: the energies
    |f|^2 + |R1 f|^2 + |R2 f|^2, times t^(k/b) when k >= 1, go into one
    Carleson density per swept radius, with exact trajectory-cell weights
    for t^(-alpha/beta).  Cells clip only at a radius's last node, so the
    unfinished radii share one partial density.  ``masses[m]`` bounds node
    m's energy total in the same scaled units; radii that can no longer win
    are dropped, and nodes that only they hold are not streamed
    (``_RadiusSweep.stream``)."""
    a, b = params.alpha, params.beta
    carleson_weight = k / b          # (t^(k/(2b)))^2 inside the square
    factor = math.ldexp(1.0, -scale)
    r1 = ops._half_symbol(ops.riesz_symbol, grid, 1)
    r2 = ops._half_symbol(ops.riesz_symbol, grid, 2)
    radii = sweep.radii(grid)
    cells = [trajectory_weights(times, r ** (2 * b), a / b) for r in radii]

    def rows(m, out):
        np.multiply(spectrum(m), factor, out=out[0])
        np.multiply(r1, out[0], out=out[1])
        np.multiply(r2, out[0], out=out[2])

    def energy(m, planes):
        v, p1, p2 = planes
        e = np.square(v, out=v)
        e += np.square(p1, out=p1)
        e += np.square(p2, out=p2)
        if carleson_weight:
            e *= times[m] ** carleson_weight
        return e

    search = _RadiusSweep(grid, sweep, [r ** (2 * a + 2 * b - 4) for r in radii])
    search.stream(np.array([w for w, _ in cells]), masses, rows, energy, 3)
    return math.sqrt(max(search.best, 0.0)), search.box, any(flag for _, flag in cells)


def _solution_parts(
    times: np.ndarray,
    spectrum,
    grid: GridSpec,
    params: SpaceParams,
    k: int,
    sweep: BoxSweepConfig,
    measures=None,
    outer: int = 0,
) -> dict:
    """Block-sup part plus Carleson part of the trajectory whose centered
    snapshot at times[m] has half spectrum 2^outer ``spectrum(m)``, outer
    the exponent of the caller's ``fields.scaled_values``.  Three steps:

    * Measures, before any plane.  One |f^| pass per node gives its Wiener
      bound W and its sum of squares (``_spectrum_measures``), unless the
      caller passes them as ``measures``.  The energy total of node m is at
      most 2 t_m^(k/b) times its sum of squares, since |R1|^2 + |R2|^2 <= 1.
      One binary exponent e (``fields.binary_exponent``) of the largest W is
      fixed here: both passes run on spectra scaled by 2^-e and both parts
      are scaled back by 2^(e + outer), all exact, so neither the squares
      of the Carleson pass nor the block inverses of the Besov pass
      overflow or underflow at any finite amplitude.  A non-finite node
      raises NonFiniteError.
    * Carleson pass (``_carleson_pass``): streamed nodes in ascending time,
      each an identity row and two Riesz rows of a batch inverted in
      place, reduced as they arrive; radii whose bound cannot beat the best
      finished one are dropped, and streaming stops once no unfinished
      radius holds the next node.  The value and box are those of the
      exhaustive sweep, bit for bit.
    * Besov pass.  With w = (2b - 1 + k)/(2b), nodes are visited by
      descending bound t^w W >= t^w sum_l sup |P_l f|, ties in ascending
      index, and the pass stops at the first node whose bound is beaten
      (``_beaten``) by the running maximum.  A visited node's half spectrum
      is made again (``spectrum(m)``) and scaled by 2^-e in one product,
      1.3 us at N = 64, where scaling each block as it is copied in (a
      masked multiply in place of ``np.copyto``) adds about 4 us per
      block.  A node's blocks go one per call, largest Wiener sum W_l first,
      and it is abandoned once t^w times its sups so far plus its remaining
      W_l is beaten, or its remaining blocks go through one batched call
      once it can no longer be abandoned, as the first node (maximum -1)
      cannot (``_block_sups_below``).
      A node that is not abandoned has every block made and sums its sups
      in level order, so its value is the batched pass's double.  A node
      whose block sum reaches the maximum is never abandoned, and with
      equal sums the earliest node wins.  The value and its first attaining
      time are therefore those of the exhaustive loop over all nodes and
      blocks, bit for bit.

    No plane is held for the whole trajectory."""
    b = params.beta
    if measures is None:
        measures = [_spectrum_measures(spectrum(m), grid.n) for m in range(len(times))]
    l1 = np.array([bound for bound, _, _ in measures])
    if not np.isfinite(l1).all():
        raise NonFiniteError("a trajectory node is not finite")
    scale = binary_exponent(l1.max())
    factor = math.ldexp(1.0, -scale)
    masses = 2 * times ** (k / b) * np.array(
        [math.ldexp(q, 2 * (e - scale)) for _, e, q in measures])
    carleson, box, partial = _carleson_pass(
        times, spectrum, grid, params, k, sweep, scale, masses)
    sup_weight = (2 * b - 1 + k) / (2 * b)
    masks = _block_masks(grid)
    besov = -1.0
    best_m = None
    bounds = times ** sup_weight * (l1 * factor)
    for m in np.argsort(-bounds, kind="stable"):
        if _beaten(bounds[m], besov):
            break
        weight = times[m] ** sup_weight
        spec = np.multiply(spectrum(m), factor)
        sups = _block_sups_below(spec, grid, masks, weight, besov)
        if sups is None:
            continue
        bval = weight * float(sups.sum())
        if not math.isfinite(bval):
            raise NonFiniteError("block sum of a trajectory node is not finite")
        if bval > besov or (bval == besov and m < best_m):
            besov, best_m = bval, m
    return {
        "besov": unscaled(besov, scale + outer),
        "carleson": unscaled(carleson, scale + outer),
        "time": float(times[best_m]),
        "box": box,
        "partial": partial,
    }


def _x_k_parts(traj: Trajectory, params: SpaceParams, k: int,
               sweep: BoxSweepConfig) -> tuple[dict, tuple[int, int]]:
    """The largest ``_solution_parts`` value over the multi-indices |a| = k
    of t^(k/(2b)) d^a f, with its parts and orders (a1, a2); on an exact tie
    the larger a1 wins.  No snapshot spectrum is held: a centered snapshot,
    scaled by 2^-e with one e for the trajectory (``fields.scaled_values``),
    is forward-transformed whenever ``_solution_parts`` asks for its node
    (for its measures, again if the Carleson stream reaches it, and again
    if the Besov pass visits it), and the multi-index's half symbol
    (``operators._half_symbol``) is applied to it when k >= 1; at k = 0 it is
    exactly 1, and neither made nor applied.
    Holding the M spectra instead took 16 MiB at N = 256, M = 32."""
    grid = traj.grid
    e = binary_exponent(max(s.max_abs() for s in traj.snapshots))

    def snapshot_spectrum(m):
        return spectral.forward(scaled_values(traj.snapshots[m], centered=True, exponent=e)[0])

    best, best_value, orders = None, None, None
    for a1 in range(k, -1, -1):
        spectrum = snapshot_spectrum
        if k:
            symbol = ops._half_symbol(ops.mixed_derivative_symbol, grid, a1, k - a1)
            spectrum = lambda m: symbol * snapshot_spectrum(m)
        comp = _solution_parts(traj.times, spectrum, grid, params, k, sweep, outer=e)
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

    ``x_k_norm``'s k = 0 case without orders: the pruned Carleson and Besov
    passes of ``_solution_parts`` read each centered snapshot's half
    spectrum, forward-transformed each time a pass reads it and not held
    (``_x_k_parts``).  The value, box, coverage flag and first attaining
    time equal those of an exhaustive loop bit for bit; the value is finite and
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

    Each multi-index runs both passes, and a snapshot is forward-transformed
    each time a pass reads it, with no spectrum held (``_x_k_parts``).
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
    degree-1 homogeneous in the trajectory; no mean subtraction."""
    grid = traj.grid
    sweep = _sweep_for(grid, sweep)
    a, b = params.alpha, params.beta
    e = binary_exponent(max(s.max_abs() for s in traj.snapshots))
    magnitudes = [np.abs(scaled_values(s, exponent=e)[0]) for s in traj.snapshots]
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
        value=unscaled(max(search.best, 0.0), e),
        attaining_box=search.box,
        partial_coverage=partial,
    )


def caloric_coverage_times(grid: GridSpec, params: SpaceParams,
                           num_nodes: int = 48) -> np.ndarray:
    """Graded times covering (0, r_max^(2 beta)] for the sweep's largest box."""
    return graded_times((grid.length / 2) ** (2 * params.beta), num_nodes)


@lru_cache(maxsize=16)
def _caloric_plan(grid: GridSpec, params: SpaceParams) -> tuple[np.ndarray, ...]:
    """``caloric_minus1_norm``'s node times and their ``_node_tables``,
    which do not depend on the data; read-only."""
    times = caloric_coverage_times(grid, params)
    plan = (times, *_node_tables(grid, params.beta, times))
    for part in plan:
        part.setflags(write=False)
    return plan


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
    Wiener bound and energy come from one node table, built once per grid
    (``_caloric_plan``, ``_caloric_measures``).  The sum of the two parts
    can still overflow, and raises NonFiniteError."""
    grid = u0.grid
    sweep = _sweep_for(grid, sweep)
    times, table, squares = _caloric_plan(grid, params)
    v, scale = scaled_values(u0, centered=True)
    spec = spectral.forward(v)
    measures = _caloric_measures(spec, grid, params.beta, table, squares)
    level_of = _rate_levels(grid, params.beta)[1]
    comp = _solution_parts(times, lambda m: table[m].take(level_of) * spec,
                           grid, params, 0, sweep, measures, scale)
    report = _solution_report(comp)
    if not math.isfinite(report.value):
        raise NonFiniteError("value overflows")
    return report
