"""Mild-solution machinery for the dissipative transport equation

    d/dt theta + u . grad theta + (-Lap)^beta theta = 0,
    u = (-R2 theta, R1 theta),

in divergence form d/dt theta = -(-Lap)^beta theta - [d1(theta R2 theta)
- d2(theta R1 theta)].  The mild formulation iterated here is

    theta = e^(-t(-Lap)^beta) theta0 + B(theta, theta),
    B(u, v)(t) = int_0^t e^(-(t-s)(-Lap)^beta)
                   [d1(v R2 u) - d2(v R1 u)](s) ds,

with the Duhamel integral evaluated exactly per Fourier mode on each time
cell, the nonlinear density frozen at the cell's left node.

Picard iterates, Duhamel sums and the reference integrator's state are
(M, N, N/2+1) half-spectrum stacks (``qsqg.spectral``); each density takes
one batched inverse and one batched forward transform, and the Duhamel sum
runs as an O(M) recursion over the cells.  Physical snapshots are made once,
for the returned Trajectory.  Blow-up is found by an explicit finiteness
check on each Picard iterate and each reference substep, which raises
DivergenceError; no other exception is read as divergence.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DivergenceError, GridMismatchError, NonFiniteError
from .fields import GridSpec, RealField, SpaceParams, Trajectory, read_field, write_field
from . import operators as ops
from . import spectral
from . import norms
from .sweep import BoxSweepConfig

__all__ = [
    "TimeGrid",
    "SolverConfig",
    "PicardReport",
    "nonlinear_density",
    "linear_flow",
    "duhamel_bilinear",
    "picard_solve",
    "reference_solve",
    "scaling_transform",
    "save_trajectory",
    "load_trajectory",
]


# Exponent q of the solver's graded time nodes t_m = T (m/M)^q: nodes
# cluster near t = 0, where the mild solution's weights are singular.
GRADING = 2.0


@dataclass(frozen=True)
class TimeGrid:
    """Graded time nodes t_m = T (m/M)^GRADING, m = 1..M, plus t_0 = 0."""

    horizon: float
    num_nodes: int = 32

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.num_nodes < 16:
            raise ValueError("need at least 16 time nodes")

    @cached_property
    def times(self) -> np.ndarray:
        m = np.arange(1, self.num_nodes + 1, dtype=float)
        t = self.horizon * (m / self.num_nodes) ** GRADING
        t.setflags(write=False)
        return t

    def refined(self, factor: int) -> "TimeGrid":
        """Grid with factor-times more nodes; contains every node of self."""
        return TimeGrid(self.horizon, self.num_nodes * int(factor))


@dataclass(frozen=True)
class SolverConfig:
    timegrid: TimeGrid
    picard_tol: float = 1e-8
    max_iter: int = 40
    reference_refine: int = 4
    sweep: BoxSweepConfig = BoxSweepConfig()

    def __post_init__(self):
        if not self.picard_tol > 0:
            raise ValueError("picard_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.reference_refine < 1:
            raise ValueError("reference_refine must be >= 1")


@dataclass(frozen=True)
class PicardReport:
    iterate_norms: tuple[float, ...]
    increments: tuple[float, ...]
    converged: bool
    contraction_ratio: float
    iterations: int

    def to_csv(self) -> str:
        lines = ["iteration,norm,increment"]
        for i, norm in enumerate(self.iterate_norms):
            inc = self.increments[i - 1] if 1 <= i <= len(self.increments) else ""
            lines.append(f"{i},{norm:.17g},{inc if inc == '' else format(inc, '.17g')}")
        return "\n".join(lines) + "\n"


# -- nonlinearity --------------------------------------------------------------

def _density(spec_u: np.ndarray, spec_v: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Half spectrum of d1(v R2 u) - d2(v R1 u) from the half spectra of u
    and v, factors and products dealiased: one batched inverse of
    (v, R2 u, R1 u), one batched forward of the two products."""
    keep = spectral.half(grid.dealias_mask)
    spec_u = np.where(keep, spec_u, 0.0)
    spec_v = np.where(keep, spec_v, 0.0)
    r1 = spectral.half(ops.riesz_symbol(grid, 1))
    r2 = spectral.half(ops.riesz_symbol(grid, 2))
    v, r2u, r1u = spectral.inverse(np.stack([spec_v, r2 * spec_u, r1 * spec_u]), grid.n)
    flux = np.where(keep, spectral.forward(np.stack([v * r2u, v * r1u])), 0.0)
    return (spectral.half(ops.derivative_symbol(grid, 1)) * flux[0]
            - spectral.half(ops.derivative_symbol(grid, 2)) * flux[1])


def nonlinear_density(u: RealField, v: RealField) -> RealField:
    """Divergence-form density d1(v R2 u) - d2(v R1 u) with 2/3-rule products.

    Factors are truncated to ``GridSpec.dealias_mask`` before the pointwise
    products and the products truncated again, so retained modes are free of
    quadratic aliasing.  The derivative symbols annihilate the zero mode, so
    the output mean vanishes to roundoff."""
    if u.grid != v.grid:
        raise GridMismatchError("density factors live on different grids")
    grid = u.grid
    u.require_mean_zero("nonlinear_density")
    if v is u:
        spec_u = spec_v = spectral.forward(u.values)
    else:
        spec_u, spec_v = spectral.forward(np.stack([u.values, v.values]))
    return RealField(grid, spectral.inverse(_density(spec_u, spec_v, grid), grid.n))


# -- flows ---------------------------------------------------------------------

def _trajectory(times: np.ndarray, spectra, grid: GridSpec) -> Trajectory:
    """Trajectory of physical snapshots from per-node half spectra."""
    planes = spectral.inverse_chunks(spectra, grid.n)
    return Trajectory(times, tuple(RealField(grid, p) for p in planes))


def linear_flow(theta0: RealField, grid: TimeGrid, params: SpaceParams) -> Trajectory:
    """Caloric trajectory e^(-t(-Lap)^beta) theta0 on the grid's nodes."""
    theta0.require_mean_zero("linear_flow")
    g = theta0.grid
    spec = spectral.forward(theta0.values)
    decays = ops._decays(g, params.beta, grid.times)
    return _trajectory(grid.times, (decay * spec for decay in decays), g)


def _duhamel(density_at, times: np.ndarray, grid: GridSpec, beta: float):
    """Yield the half spectrum of B at each node of ``times`` in turn, by the
    recursion of ``duhamel_bilinear`` for the dissipation |xi|^(2 beta).

    ``density_at(j)`` gives the density's half spectrum at times[j].  Each
    density is made when the first cell that needs it is reached, and only
    the current one is held.  Each cell's (E, phi1) comes from
    ``operators._propagators`` as the cell is reached."""
    acc = np.zeros((grid.n, spectral.half_width(grid.n)), dtype=complex)
    g, made = None, -1
    steps = np.diff(times, prepend=0.0)
    for k, (decay, phi1) in enumerate(ops._propagators(grid, beta, steps)):
        j = max(k - 1, 0)
        if j != made:
            g, made = density_at(j), j
        acc = decay * acc + phi1 * g
        acc[0, 0] = 0.0  # modes do not mix, so this only zeroes the output mean
        yield acc


def duhamel_bilinear(
    U: Trajectory,
    V: Trajectory,
    params: SpaceParams,
) -> Trajectory:
    """B(U, V) on the common time grid of U and V.

    The integral runs over cells [s_(m-1), s_m], s_0 = 0, s_m = t_m, with the
    density g frozen at the cell's left node (the first cell uses the t_1
    snapshot for the 0+ value) and the semigroup integrated exactly per mode.
    On half spectra, with h_m = s_m - s_(m-1) and E_m = e^(-h_m |xi|^(2b)),

        acc_m = E_m acc_(m-1) + phi1(h_m) g(s_(m-1)),
        phi1(h) = (1 - e^(-h |xi|^(2b))) / |xi|^(2b),

    which equals the cell-by-cell sum of ghat (e^(-(t_m - s_i)|xi|^(2b))
    - e^(-(t_m - s_(i-1))|xi|^(2b))) / |xi|^(2b) in O(M) exponentials instead
    of O(M^2).  Each snapshot pair is transformed when its density is made,
    and each node's sum goes through the chunked inverse as it is reached.
    """
    U._check(V)
    grid = U.grid

    def density_at(j):
        u, v = U.snapshots[j], V.snapshots[j]
        u.require_mean_zero("duhamel_bilinear")
        spec_u = spectral.forward(u.values)
        spec_v = spec_u if v is u else spectral.forward(v.values)
        return _density(spec_u, spec_v, grid)

    return _trajectory(U.times, _duhamel(density_at, U.times, grid, params.beta), grid)


def picard_solve(
    theta0: RealField, params: SpaceParams, config: SolverConfig
) -> tuple[Trajectory, PicardReport]:
    """Iterate theta^(k+1) = e^(-t(-Lap)^beta) theta0 + B(theta^k, theta^k),
    measuring iterates and increments in the trajectory norm.

    Iterates stay (M, N, N/2+1) half-spectrum stacks: B is summed on them
    directly, and each norm is ``x_norm``'s two passes
    (``norms._solution_parts``) read node by node from the stack, with no
    forward transform: the increment's node m is nxt[m] - cur[m], made once
    for its Wiener bound and energy, again if the Carleson stream reaches
    it, and again only at the few nodes whose block-sum bound can still set
    the sup.  The only way back to physical space is the returned
    trajectory.  Stops when the increment drops below
    picard_tol * (norm + 1) or after max_iter sweeps; non-convergence is
    reported.  An iterate with a non-finite value, or whose norm is not
    finite, raises DivergenceError with the iteration index."""
    theta0.require_mean_zero("picard_solve")
    grid = theta0.grid
    sweep = norms._sweep_for(grid, config.sweep)
    times = config.timegrid.times
    spec0 = spectral.forward(theta0.values)
    spec0[0, 0] = 0.0  # the norms measure the mean-zero part
    base = np.empty((len(times),) + spec0.shape, dtype=complex)
    for plane, decay in zip(base, ops._decays(grid, params.beta, times)):
        np.multiply(decay, spec0, out=plane)

    def measure(spectrum, it: int) -> float:
        """x_norm value of the trajectory whose node m has the mean-zero half
        spectrum spectrum(m)."""
        try:
            comp = norms._solution_parts(times, spectrum, grid, params, 0, sweep)
        except NonFiniteError as err:
            raise DivergenceError(f"picard iterate {it} has a non-finite norm",
                                  iteration=it) from err
        return comp["besov"] + comp["carleson"]

    current = base
    iterate_norms = [measure(lambda m: current[m], 0)]
    increments: list[float] = []
    converged = False
    iterations = 0
    for it in range(1, config.max_iter + 1):
        iterations = it
        nxt = np.empty_like(base)
        duhamel = _duhamel(lambda j: _density(current[j], current[j], grid),
                           times, grid, params.beta)
        for out, b, acc in zip(nxt, base, duhamel):
            np.add(b, acc, out=out)
        if not np.isfinite(nxt).all():
            raise DivergenceError(f"picard iterate {it} has NaN/overflow", iteration=it)
        increments.append(measure(lambda m: nxt[m] - current[m], it))
        current = nxt
        iterate_norms.append(measure(lambda m: current[m], it))
        if not (math.isfinite(increments[-1]) and math.isfinite(iterate_norms[-1])):
            raise DivergenceError(f"picard iterate {it} has a non-finite norm", iteration=it)
        if increments[-1] <= config.picard_tol * (iterate_norms[-1] + 1.0):
            converged = True
            break
    ratios = [
        increments[i + 1] / increments[i]
        for i in range(len(increments) - 1)
        if increments[i] > 0
    ]
    return _trajectory(times, current, grid), PicardReport(
        iterate_norms=tuple(iterate_norms),
        increments=tuple(increments),
        converged=converged,
        contraction_ratio=max(ratios) if ratios else float("nan"),
        iterations=iterations,
    )


def reference_solve(
    theta0: RealField,
    params: SpaceParams,
    config: SolverConfig,
    include_nonlinearity: bool = True,
) -> Trajectory:
    """Two-stage exponential predictor-corrector on the uniformly refined grid.

    Each graded cell is split into ``reference_refine`` equal substeps; one
    substep of size h maps theta to

        predictor   theta* = E theta + phi1 N(theta)
        corrector   theta' = E theta + phi1 (N(theta) + N(theta*)) / 2

    with E = e^(-h |xi|^(2b)) and phi1 = (1 - E)/|xi|^(2b) exact per mode.
    The state stays a half spectrum throughout; a substep that leaves a
    non-finite value raises DivergenceError with the node time reached.
    ``include_nonlinearity=False`` drops N, reducing to the exact linear flow.
    """
    theta0.require_mean_zero("reference_solve")
    grid = theta0.grid
    times = config.timegrid.times
    steps = np.diff(times, prepend=0.0) / config.reference_refine

    def at_nodes():
        spec = spectral.forward(theta0.values)
        for t, (decay, phi1) in zip(times, ops._propagators(grid, params.beta, steps)):
            for _ in range(config.reference_refine):
                if include_nonlinearity:
                    n0 = _density(spec, spec, grid)
                    pred = decay * spec + phi1 * n0
                    spec = decay * spec + phi1 * 0.5 * (n0 + _density(pred, pred, grid))
                else:
                    spec = decay * spec
                if not np.isfinite(spec).all():
                    raise DivergenceError(
                        f"reference solution blew up by t = {t:.6g}", time=float(t)
                    )
            yield spec

    return _trajectory(times, at_nodes(), grid)

# -- symmetry ------------------------------------------------------------------

def scaling_transform(theta0: RealField, lam: int, params: SpaceParams) -> RealField:
    """Critical rescaling theta -> lam^(2 beta - 1) theta(lam x) on the lattice.

    lam must be a positive integer dividing N so that lam x stays on the grid."""
    if lam < 1 or theta0.grid.n % lam:
        raise ValueError(f"scaling factor must divide N={theta0.grid.n}, got {lam}")
    idx = (lam * np.arange(theta0.grid.n)) % theta0.grid.n
    vals = theta0.values[np.ix_(idx, idx)] * float(lam) ** (2 * params.beta - 1)
    return RealField(theta0.grid, vals)


# -- trajectory persistence ------------------------------------------------------

def save_trajectory(traj: Trajectory, directory: "str | Path",
                    params: SpaceParams, report: "PicardReport | None" = None) -> None:
    """Write one field file per node plus a manifest; optionally the iteration
    log as CSV alongside."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for i, snap in enumerate(traj.snapshots):
        name = f"node_{i:04d}.qsf"
        write_field(snap, directory / name)
        names.append(name)
    manifest = {
        "format": "qsqg-trajectory-1",
        "times": [float(t) for t in traj.times],
        "files": names,
        "alpha": params.alpha,
        "beta": params.beta,
        "side_points": traj.grid.n,
        "domain_length": traj.grid.length,
    }
    (directory / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    if report is not None:
        (directory / "picard.csv").write_text(report.to_csv())


def load_trajectory(directory: "str | Path") -> tuple[Trajectory, SpaceParams]:
    """Read what ``save_trajectory`` wrote.  Raises ValueError on a foreign
    manifest or on field files whose grid is not the manifest's."""
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if manifest.get("format") != "qsqg-trajectory-1":
        raise ValueError(f"{directory} does not hold a trajectory manifest")
    snaps = tuple(read_field(directory / name) for name in manifest["files"])
    grid = GridSpec(manifest["side_points"], manifest["domain_length"])
    if any(s.grid != grid for s in snaps):
        raise ValueError(f"{directory}: field grids differ from the manifest's {grid}")
    params = SpaceParams(manifest["alpha"], manifest["beta"])
    return Trajectory(np.asarray(manifest["times"]), snaps), params
