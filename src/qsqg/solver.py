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
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import DivergenceError, GridMismatchError
from .fields import GridSpec, RealField, SpaceParams, Trajectory, read_field, write_field
from . import operators as ops
from . import spectral
from .norms import x_norm
from .sweep import BoxSweepConfig

__all__ = [
    "TimeGrid",
    "SolverConfig",
    "PicardReport",
    "nonlinear_density",
    "nonlinearity",
    "linear_flow",
    "duhamel_bilinear",
    "picard_solve",
    "reference_solve",
    "scaling_transform",
    "scale_trajectory",
    "save_trajectory",
    "load_trajectory",
]


@dataclass(frozen=True)
class TimeGrid:
    """Graded time nodes t_m = T (m/M)^grading, m = 1..M, plus t_0 = 0."""

    horizon: float
    num_nodes: int = 32
    grading: float = 2.0

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        if self.num_nodes < 16:
            raise ValueError("need at least 16 time nodes")
        if self.grading < 1:
            raise ValueError("grading exponent must be >= 1")

    @cached_property
    def times(self) -> np.ndarray:
        m = np.arange(1, self.num_nodes + 1, dtype=float)
        t = self.horizon * (m / self.num_nodes) ** self.grading
        t.setflags(write=False)
        return t

    def refined(self, factor: int) -> "TimeGrid":
        """Grid with factor-times more nodes; contains every node of self."""
        return TimeGrid(self.horizon, self.num_nodes * int(factor), self.grading)


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

def nonlinear_density(u: RealField, v: RealField, dealiased: bool = True) -> RealField:
    """Divergence-form density d1(v R2 u) - d2(v R1 u) with 2/3-rule products.

    Factors are truncated to the grid's dealias band before the pointwise
    products and the products truncated again, so retained modes are free of
    quadratic aliasing.  The derivative symbols annihilate the zero mode, so
    the output mean vanishes to roundoff."""
    if u.grid != v.grid:
        raise GridMismatchError("density factors live on different grids")
    grid = u.grid
    u.require_mean_zero("nonlinear_density")
    keep = spectral.half(grid.dealias_mask) if dealiased else None

    def banded(f: RealField) -> np.ndarray:
        spec = spectral.forward(f.values)
        return spec if keep is None else np.where(keep, spec, 0.0)

    spec_u = banded(u)
    spec_v = spec_u if v is u else banded(v)
    v_phys = spectral.inverse(spec_v, grid.n)
    flux = []
    for axis in (2, 1):
        r = spectral.inverse(spectral.half(ops.riesz_symbol(grid, axis)) * spec_u, grid.n)
        prod = spectral.forward(v_phys * r)
        if keep is not None:
            prod = np.where(keep, prod, 0.0)
        flux.append(prod)
    out_spec = (
        spectral.half(ops.derivative_symbol(grid, 1)) * flux[0]
        - spectral.half(ops.derivative_symbol(grid, 2)) * flux[1]
    )
    return RealField(grid, spectral.inverse(out_spec, grid.n))


def nonlinearity(theta: RealField, dealiased: bool = True) -> RealField:
    """Quadratic transport term of the evolution, nonlinear_density(theta, theta)."""
    return nonlinear_density(theta, theta, dealiased)


# -- flows ---------------------------------------------------------------------

def linear_flow(theta0: RealField, grid: TimeGrid, params: SpaceParams) -> Trajectory:
    """Caloric trajectory e^(-t(-Lap)^beta) theta0 on the grid's nodes."""
    theta0.require_mean_zero("linear_flow")
    g = theta0.grid
    spec = spectral.forward(theta0.values)
    lam = spectral.half(ops.dissipation_symbol(g, 2 * params.beta))
    planes = spectral.inverse_chunks((np.exp(-t * lam) * spec for t in grid.times), g.n)
    return Trajectory(grid.times, tuple(RealField(g, p) for p in planes))


def duhamel_bilinear(
    U: Trajectory,
    V: Trajectory,
    params: SpaceParams,
    density_fn=None,
    dealiased: bool = True,
) -> Trajectory:
    """B(U, V) on the common time grid of U and V.

    Per target node t_m the integral is summed over cells [s_i, s_{i+1}],
    s_0 = 0, with the density frozen at the left node (the first cell uses the
    t_1 snapshot for the 0+ value) and the semigroup factor integrated exactly
    per mode:  ghat * (e^(-(t-s_{i+1})|xi|^(2b)) - e^(-(t-s_i)|xi|^(2b))) / |xi|^(2b).

    ``density_fn(u_snap, v_snap) -> RealField`` replaces the transport density;
    it exists so tests can isolate the quadrature from the nonlinearity.
    """
    U._check(V)
    grid = U.grid
    times = U.times
    if density_fn is None:
        density_fn = lambda u, v: nonlinear_density(u, v, dealiased)

    lam = spectral.half(ops.dissipation_symbol(grid, 2 * params.beta))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_lam = np.where(lam > 0, 1.0 / np.where(lam > 0, lam, 1.0), 0.0)

    m_total = len(times)
    # index i holds ghat at the left node s_i; s_0 = 0 reuses the t_1 density
    at_nodes = [
        spectral.forward(density_fn(U.snapshots[i], V.snapshots[i]).values)
        for i in range(max(m_total - 1, 1))
    ]
    densities = ([at_nodes[0]] + at_nodes)[:m_total]

    nodes = np.concatenate([[0.0], times])
    snaps = []
    for m in range(1, m_total + 1):
        t = nodes[m]
        acc = np.zeros_like(densities[0])
        decay_lo = np.exp(-(t - nodes[0]) * lam)
        for i in range(m):
            decay_hi = np.exp(-(t - nodes[i + 1]) * lam)
            acc += densities[i] * (decay_hi - decay_lo)
            decay_lo = decay_hi
        acc *= inv_lam
        acc[0, 0] = 0.0
        snaps.append(RealField(grid, spectral.inverse(acc, grid.n)))
    return Trajectory(times, tuple(snaps))


def picard_solve(
    theta0: RealField, params: SpaceParams, config: SolverConfig
) -> tuple[Trajectory, PicardReport]:
    """Iterate theta^(k+1) = e^(-t(-Lap)^beta) theta0 + B(theta^k, theta^k),
    measuring iterates and increments in the trajectory norm.

    Stops when the increment drops below picard_tol * (norm + 1) or after
    max_iter sweeps; non-convergence is reported, NaN blow-up raises
    DivergenceError with the iteration index."""
    theta0.require_mean_zero("picard_solve")
    sweep = config.sweep
    base = linear_flow(theta0, config.timegrid, params)
    current = base
    norms = [x_norm(current, params, sweep).value]
    increments: list[float] = []
    converged = False
    iterations = 0
    for it in range(1, config.max_iter + 1):
        iterations = it
        # field construction rejects non-finite values, so an overflowing
        # iterate surfaces as ValueError inside the bilinear evaluation
        try:
            nxt = base + duhamel_bilinear(current, current, params)
        except (ValueError, FloatingPointError) as exc:
            raise DivergenceError(
                f"picard iterate {it} has NaN/overflow", iteration=it
            ) from exc
        increments.append(x_norm(nxt - current, params, sweep).value)
        current = nxt
        norms.append(x_norm(current, params, sweep).value)
        if increments[-1] <= config.picard_tol * (norms[-1] + 1.0):
            converged = True
            break
    ratios = [
        increments[i + 1] / increments[i]
        for i in range(len(increments) - 1)
        if increments[i] > 0
    ]
    return current, PicardReport(
        iterate_norms=tuple(norms),
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
    ``include_nonlinearity=False`` drops N, reducing to the exact linear flow.
    """
    theta0.require_mean_zero("reference_solve")
    grid = theta0.grid
    lam = spectral.half(ops.dissipation_symbol(grid, 2 * params.beta))
    tg = config.timegrid
    nodes = np.concatenate([[0.0], tg.times])
    spec = spectral.forward(theta0.values)
    snaps = []
    for m in range(1, len(nodes)):
        h = (nodes[m] - nodes[m - 1]) / config.reference_refine
        decay = np.exp(-h * lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi1 = np.where(lam > 0, (1.0 - decay) / np.where(lam > 0, lam, 1.0), h)
        try:
            for _ in range(config.reference_refine):
                if include_nonlinearity:
                    theta = RealField(grid, spectral.inverse(spec, grid.n))
                    n0 = spectral.forward(nonlinearity(theta).values)
                    pred = decay * spec + phi1 * n0
                    theta_star = RealField(grid, spectral.inverse(pred, grid.n))
                    n1 = spectral.forward(nonlinearity(theta_star).values)
                    spec = decay * spec + phi1 * 0.5 * (n0 + n1)
                else:
                    spec = decay * spec
        except (ValueError, FloatingPointError) as exc:
            raise DivergenceError(
                f"reference solution blew up by t = {nodes[m]:.6g}",
                time=float(nodes[m]),
            ) from exc
        values = spectral.inverse(spec, grid.n)
        if not np.isfinite(values).all():
            raise DivergenceError(
                f"reference solution blew up by t = {nodes[m]:.6g}", time=float(nodes[m])
            )
        snaps.append(RealField(grid, values))
    return Trajectory(tg.times, tuple(snaps))


# -- symmetry ------------------------------------------------------------------

def scaling_transform(theta0: RealField, lam: int, params: SpaceParams) -> RealField:
    """Critical rescaling theta -> lam^(2 beta - 1) theta(lam x) on the lattice.

    lam must be a positive integer dividing N so that lam x stays on the grid."""
    if lam < 1 or theta0.grid.n % lam:
        raise ValueError(f"scaling factor must divide N={theta0.grid.n}, got {lam}")
    idx = (lam * np.arange(theta0.grid.n)) % theta0.grid.n
    vals = theta0.values[np.ix_(idx, idx)] * float(lam) ** (2 * params.beta - 1)
    return RealField(theta0.grid, vals)


def scale_trajectory(traj: Trajectory, lam: int, params: SpaceParams) -> Trajectory:
    """Critical rescaling of a trajectory onto its own time grid:
    snapshot(t) = lam^(2b-1) theta(lam^(2b) t, lam x), the time lookup linear
    between nodes and clamped to the recorded range at either end."""
    grid = traj.grid
    if lam < 1 or grid.n % lam:
        raise ValueError(f"scaling factor must divide N={grid.n}, got {lam}")
    idx = (lam * np.arange(grid.n)) % grid.n
    amp = float(lam) ** (2 * params.beta - 1)
    t_src = traj.times
    snaps = []
    for t in traj.times:
        tau = lam ** (2 * params.beta) * t
        if tau <= t_src[0]:
            vals = traj.snapshots[0].values
        elif tau >= t_src[-1]:
            vals = traj.snapshots[-1].values
        else:
            j = int(np.searchsorted(t_src, tau))
            w = (tau - t_src[j - 1]) / (t_src[j] - t_src[j - 1])
            vals = (1 - w) * traj.snapshots[j - 1].values + w * traj.snapshots[j].values
        snaps.append(RealField(grid, amp * vals[np.ix_(idx, idx)]))
    return Trajectory(traj.times, tuple(snaps))


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
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    if manifest.get("format") != "qsqg-trajectory-1":
        raise ValueError(f"{directory} does not hold a trajectory manifest")
    snaps = tuple(read_field(directory / name) for name in manifest["files"])
    params = SpaceParams(manifest["alpha"], manifest["beta"])
    return Trajectory(np.asarray(manifest["times"]), snaps), params
