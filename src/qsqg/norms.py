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
    _RadiusSweep,
    _beaten,
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


# -- dyadic block norms -------------------------------------------------------

@lru_cache(maxsize=16)
def _block_plan(grid: GridSpec) -> tuple[tuple[np.ndarray, ...], tuple[int, ...]]:
    """The dyadic blocks of the half spectrum, in level order: their annulus
    masks, read-only, and the columns k2 < width each lives in, at L = 2 pi
    2^(l+1) for level l, up to N/2 + 1 (2, 4, 8, 16, 32 and 33 at N = 64).
    A block's column stage runs on its width only, since the other columns
    are zero: a pruned inverse, whose planes are the full inverse's doubles
    (``spectral``)."""
    masks = tuple(spectral.half(ops._annulus_mask(grid, level))
                  for level in ops.block_levels(grid))
    widths = tuple(int(np.flatnonzero(mask.any(axis=0))[-1]) + 1 for mask in masks)
    return masks, widths


@lru_cache(maxsize=16)
def _block_index(grid: GridSpec) -> np.ndarray:
    """Half-spectrum map from each mode to its block's position in level
    order, and to len(block_levels) on the zero mode, which no annulus
    holds; read-only.  A ``np.bincount`` over it sums a plane per block."""
    masks = _block_plan(grid)[0]
    index = np.full(masks[0].shape, len(masks), dtype=np.intp)
    for j, mask in enumerate(masks):
        index[mask] = j
    index.setflags(write=False)
    return index


def _block_sups_below(spec: np.ndarray, grid: GridSpec,
                      weight: float, best: float) -> "np.ndarray | None":
    """Sup norm of each dyadic block of the half spectrum ``spec``, in level
    order, or None once ``weight`` times its block sum can no longer reach
    ``best``.  Each block is copied into one held block/plane pair and
    inverted in place on its ``_block_plan`` columns.

    Block l's Wiener sum W_l = sum over block l of colw |spec| / N^2 bounds
    sup |P_l f|, and the W_l of all blocks are one ``np.bincount`` over
    ``_block_index``.  Blocks are inverted largest W_l first, and before
    each the node is abandoned when ``_beaten`` holds for
    weight * (sum of the sups made + sum of the W_l still to come).  A
    block's sup is the same double in either order.

    The W_l of a node sum to its bound W.  The real inverse FFT errs by
    about eps * log2(N) times W_l and the sums by about eps * log2(N^2), so
    a computed block sup, or a node's sups so far plus its remaining W_l,
    can exceed the exact bound by ~1e-15 relative: fields with all phases
    aligned exceed W by up to 2.5e-16 at N = 16, 64 and 256, and a delta,
    which attains every W_l, by 0.0.  The margin of ``_beaten`` covers it."""
    n = grid.n
    masks, widths = _block_plan(grid)
    order, to_come = range(len(masks)), [0.0] * len(masks)
    # Only a positive best can be beaten.  Below one (the first node
    # visited), blocks go in level order and no W_l is summed, so the block
    # index is built only once a block can be pruned.  The picard-fine
    # benchmark never prunes one (no ``_block_index`` is built in its
    # N = 256 solve and x_norm), and building the index on every call moved
    # its peak RSS from 95.5 to 95.8 MiB (3 runs each).
    if _beaten(0.0, best):
        mags = np.abs(spec)
        mags *= _column_weights(n) / (n * n)
        wiener = np.bincount(_block_index(grid).ravel(), mags.ravel(), len(masks) + 1)[:-1]
        order = np.argsort(-wiener, kind="stable").tolist()
        to_come = np.cumsum(wiener[order[::-1]])[::-1].tolist()
    block = np.empty((n, spectral.half_width(n)), dtype=complex)
    plane = np.empty((n, n))
    sups = np.empty(len(masks))
    reached = 0.0
    for l, rest in zip(order, to_come):
        if _beaten(weight * (reached + rest), best):
            return None
        block.fill(0.0)
        np.copyto(block, spec, where=masks[l])
        done = spectral.inverse_into(block, plane, widths[l])
        sups[l] = np.abs(done, out=done).max()
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
    order, and inverted in place, and its energy goes into the density of
    every radius holding it with that radius's weight (``_RadiusSweep``).
    A radius is box-summed, and its density dropped, once its last node is
    in.  Node s's energy totals sum_half colw e^(-2 s lam) |grad f^|^2 / N^2
    (Parseval), and at each point it is at most W_s^2, with
    W_s = sum_half colw e^(-s lam) |grad| |f^| / N^2 its gradient's Wiener
    sum (both from ``_caloric_measures``), so a ball of c lattice points
    holds at most the smaller of the total and c W_s^2
    (``_RadiusSweep.charges``).  Once a radius is in, a radius whose bound
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
    peaks = [w * w for w, _, _ in measures]
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
    search.stream(weights, search.charges(masses, peaks), gradients, energy, 2)
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


def _carleson_pass(times, spectrum, grid, params, k, sweep, scale, masses, peaks):
    """Carleson part times 2^-scale, its box and the partial-coverage flag,
    from planes scaled by 2^-scale: each node's snapshot row is scaled as it
    is copied into the held spectrum buffer, and its Riesz rows are products
    of that row.

    Each streamed node's three rows are inverted in place, and its planes
    are reduced in place: the energies
    |f|^2 + |R1 f|^2 + |R2 f|^2, times t^(k/b) when k >= 1, go into one
    Carleson density per swept radius, with exact trajectory-cell weights
    for t^(-alpha/beta).  Cells clip only at a radius's last node, so the
    unfinished radii share one partial density.  ``masses[m]`` bounds node
    m's energy total and ``peaks[m]`` its energy at each point, in the same
    scaled units; radii that can no longer win are dropped, and nodes that
    only they hold are not streamed (``_RadiusSweep.stream``)."""
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
    search.stream(np.array([w for w, _ in cells]), search.charges(masses, peaks),
                  rows, energy, 3)
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
      most 2 t_m^(k/b) times its sum of squares, since |R1|^2 + |R2|^2 <= 1,
      and its energy at each point at most 2 t_m^(k/b) W^2, since |f| <= W
      and |(R1 f, R2 f)| <= W, the Riesz symbol pair having length <= 1.
      One binary exponent e (``fields.binary_exponent``) of the largest W is
      fixed here: both passes run on spectra scaled by 2^-e and both parts
      are scaled back by 2^(e + outer), all exact, so neither the squares
      of the Carleson pass nor the block inverses of the Besov pass
      overflow or underflow at any finite amplitude.  A non-finite node
      raises NonFiniteError.
    * Carleson pass (``_carleson_pass``): streamed nodes in ascending time,
      each an identity row and two Riesz rows inverted in place, reduced
      as they arrive; radii whose bound cannot beat the best finished one
      are dropped, and streaming stops once no radius is unfinished.  A
      node's share of a radius's bound is the smaller of its energy total
      and the radius's ball point count times its pointwise cap.  The
      value and box are those of the exhaustive sweep, bit for bit.
    * Besov pass.  With w = (2b - 1 + k)/(2b), nodes are visited by
      descending bound t^w W >= t^w sum_l sup |P_l f|, ties in ascending
      index, and the pass stops at the first node whose bound is beaten
      (``_beaten``) by the running maximum.  A visited node's half spectrum
      is made again (``spectrum(m)``) and scaled by 2^-e in one product,
      1.3 us at N = 64, where scaling each block as it is copied in (a
      masked multiply in place of ``np.copyto``) adds about 4 us per
      block.  A node's blocks are made largest Wiener sum W_l first, and it
      is abandoned once t^w times its sups so far plus its remaining W_l is
      beaten (``_block_sups_below``).  A node that is not abandoned has
      every block made and sums its sups in level order, so its value is
      the exhaustive pass's double.  A node whose block sum reaches the
      maximum is never abandoned, and with equal sums the earliest node
      wins.  The value and its first attaining time are therefore those of
      the exhaustive loop over all nodes and blocks, bit for bit.

    No plane is held for the whole trajectory."""
    b = params.beta
    if measures is None:
        measures = [_spectrum_measures(spectrum(m), grid.n) for m in range(len(times))]
    l1 = np.array([bound for bound, _, _ in measures])
    if not np.isfinite(l1).all():
        raise NonFiniteError("a trajectory node is not finite")
    scale = binary_exponent(l1.max())
    factor = math.ldexp(1.0, -scale)
    growth = 2 * times ** (k / b)
    masses = growth * np.array([math.ldexp(q, 2 * (e - scale)) for _, e, q in measures])
    peaks = growth * np.square(l1 * factor)
    carleson, box, partial = _carleson_pass(
        times, spectrum, grid, params, k, sweep, scale, masses, peaks)
    sup_weight = (2 * b - 1 + k) / (2 * b)
    besov = -1.0
    best_m = None
    bounds = times ** sup_weight * (l1 * factor)
    for m in np.argsort(-bounds, kind="stable"):
        if _beaten(bounds[m], besov):
            break
        weight = times[m] ** sup_weight
        spec = np.multiply(spectrum(m), factor)
        sups = _block_sups_below(spec, grid, weight, besov)
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
    the larger a1 wins.  A snapshot's spectrum is its centered values,
    scaled by 2^-e with one e for the trajectory (``fields.scaled_values``),
    forward-transformed.

    At k = 0 no spectrum is held: a snapshot is transformed whenever
    ``_solution_parts`` asks for its node (for its measures, again if the
    Carleson stream reaches it, and again if the Besov pass visits it), as
    holding the M spectra would take 16 MiB at N = 256, M = 32.  At k >= 1
    the k + 1 multi-indices read every node, so the M spectra are made once
    and held, and each read is the multi-index's half symbol
    (``operators._half_symbol``) times the held spectrum: M transforms in
    place of several per node and multi-index, with the same doubles."""
    grid = traj.grid
    e = binary_exponent(max(s.max_abs() for s in traj.snapshots))

    def snapshot_spectrum(m):
        return spectral.forward(scaled_values(traj.snapshots[m], centered=True, exponent=e)[0])

    if k:
        held = [snapshot_spectrum(m) for m in range(len(traj))]
    best, best_value, orders = None, None, None
    for a1 in range(k, -1, -1):
        spectrum = snapshot_spectrum
        if k:
            symbol = ops._half_symbol(ops.mixed_derivative_symbol, grid, a1, k - a1)
            spectrum = lambda m: symbol * held[m]
        comp = _solution_parts(traj.times, spectrum, grid, params, k, sweep, outer=e)
        value = comp["besov"] + comp["carleson"]
        if best is None or value > best_value:
            best, best_value, orders = comp, value, (a1, k - a1)
    return best, orders


def _solution_report(comp: dict) -> NormReport:
    """The report of ``_solution_parts``'s parts: their sum, which raises
    NonFiniteError where it overflows although both parts are finite."""
    value = comp["besov"] + comp["carleson"]
    if not math.isfinite(value):
        raise NonFiniteError("value overflows")
    return NormReport(
        value=value,
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

    Each multi-index runs both passes.  At k >= 1 each snapshot is
    forward-transformed once and its spectrum held for all of them; at
    k = 0 none is held, as in ``x_norm`` (``_x_k_parts``).
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
    (``_caloric_plan``, ``_caloric_measures``)."""
    grid = u0.grid
    sweep = _sweep_for(grid, sweep)
    times, table, squares = _caloric_plan(grid, params)
    v, scale = scaled_values(u0, centered=True)
    spec = spectral.forward(v)
    measures = _caloric_measures(spec, grid, params.beta, table, squares)
    level_of = _rate_levels(grid, params.beta)[1]
    comp = _solution_parts(times, lambda m: table[m].take(level_of) * spec,
                           grid, params, 0, sweep, measures, scale)
    return _solution_report(comp)
