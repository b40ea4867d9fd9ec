"""Numerical experiments wiring operators, norms, and the solver together.

Each ``run_*`` function takes an ExperimentConfig and returns an
ExperimentReport with per-case rows, summary statistics, hard failures
(violated exact checks), and warnings (soft drift thresholds).  ``persist``
writes a deterministic set of artifacts: rerunning with the same config and
seed reproduces every output byte for byte, so no timestamps or wall-clock
readings are ever written to disk.

Constants the theory leaves implicit (equivalence-interval endpoints,
empirical lemma ratios) are measured outputs, reported and tracked for drift;
they are never pass/fail targets.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .corpus import DEFAULT_SEED, _render_corpus
from .errors import DivergenceError
from .fields import GridSpec, RealField, SpaceParams, Trajectory, field_from_function
from . import operators as ops
from . import spectral
from .norms import (
    caloric_minus1_norm,
    carleson_l1_functional,
    morrey_norm,
    q_norm_semigroup,
    x_norm,
    x_k_norm,
)
from .solver import (
    PicardReport,
    SolverConfig,
    TimeGrid,
    fixed_point_residual,
    linear_flow,
    picard_solve,
    reference_solve,
    scaling_transform,
    _duhamel,
)
from .sweep import BoxSweepConfig, trajectory_weights

UNDEFINED = "undefined"


@dataclass(frozen=True)
class ExperimentConfig:
    params: SpaceParams = SpaceParams(0.25, 0.75)
    grid: GridSpec = GridSpec(64, 2 * np.pi)
    sweep: BoxSweepConfig = BoxSweepConfig()
    horizon: float = 1.0
    seed: int = DEFAULT_SEED
    corpus_size: int = 50
    solver_nodes: int = 32

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            TimeGrid(self.horizon, self.solver_nodes), sweep=self.sweep
        )


@dataclass
class ExperimentReport:
    name: str
    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: list[tuple]
    summary: dict
    plot_data: dict[str, list[tuple[float, float]]] = dataclass_field(default_factory=dict)
    hard_failures: list[str] = dataclass_field(default_factory=list)
    warnings: list[str] = dataclass_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.hard_failures


def _fmt(x) -> str:
    if x is None:
        return UNDEFINED
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def persist(report: ExperimentReport, out_dir: "str | Path") -> Path:
    """Write config.json, rows.csv, summary.txt, and plots/*.csv under
    out_dir/<experiment name>; deterministic bytes for a given config."""
    base = Path(out_dir) / report.name
    base.mkdir(parents=True, exist_ok=True)
    (base / "config.json").write_text(
        json.dumps(dataclasses.asdict(report.config), indent=2, sort_keys=True) + "\n"
    )
    lines = [",".join(report.columns)]
    lines += [",".join(_fmt(v) for v in row) for row in report.rows]
    (base / "rows.csv").write_text("\n".join(lines) + "\n")

    out = [f"experiment: {report.name}"]
    for key in report.summary:
        out.append(f"{key} = {_fmt(report.summary[key])}")
    for w in report.warnings:
        out.append(f"warning: {w}")
    for h in report.hard_failures:
        out.append(f"FAILED: {h}")
    out.append(f"result: {'pass' if report.passed else 'FAIL'}")
    (base / "summary.txt").write_text("\n".join(out) + "\n")

    plot_dir = base / "plots"
    plot_dir.mkdir(exist_ok=True)
    for key, pairs in report.plot_data.items():
        rows = ["x,y"] + [f"{_fmt(float(a))},{_fmt(float(b))}" for a, b in pairs]
        (plot_dir / f"{key}.csv").write_text("\n".join(rows) + "\n")
    return base


def _ratio(num: float, den: float) -> "float | None":
    return num / den if den > 0 else None


# -- experiment 1: Riesz transform boundedness ---------------------------------

class RieszRow(NamedTuple):
    """One (field, component) case of the Riesz study (a rows.csv line)."""

    grid_n: int
    field_id: int
    component: int
    norm_f: float
    norm_riesz_f: float
    ratio: "float | None"


def run_riesz_boundedness(cfg: ExperimentConfig) -> ExperimentReport:
    """Semigroup-characterization norm of R_j f against that of f over the
    corpus, at the base grid and its refinement; drift of the max ratio is a
    soft threshold."""
    rows = []
    max_ratio: dict[tuple[int, int], float] = {}
    grids = [cfg.grid, GridSpec(2 * cfg.grid.n, cfg.grid.length)]
    band = cfg.grid.n // 6
    for grid in grids:
        for fid, f in enumerate(_render_corpus(grid, cfg.corpus_size, band, cfg.seed)):
            norm_f = q_norm_semigroup(f, cfg.params, cfg.sweep).value
            for j in (1, 2):
                rj = ops.riesz_transform(f, j)
                norm_rj = q_norm_semigroup(rj, cfg.params, cfg.sweep).value
                row = RieszRow(grid.n, fid, j, norm_f, norm_rj, _ratio(norm_rj, norm_f))
                rows.append(row)
                if row.ratio is not None:
                    key = (grid.n, j)
                    max_ratio[key] = max(max_ratio.get(key, 0.0), row.ratio)

    summary: dict = {"corpus_size": cfg.corpus_size, "band": band, "seed": cfg.seed}
    hard, warn = [], []
    for j in (1, 2):
        base = max_ratio.get((cfg.grid.n, j))
        fine = max_ratio.get((2 * cfg.grid.n, j))
        summary[f"max_ratio_j{j}_N{cfg.grid.n}"] = base
        summary[f"max_ratio_j{j}_N{2 * cfg.grid.n}"] = fine
        if base is None or fine is None:
            summary[f"drift_j{j}"] = None
            continue
        if not (math.isfinite(base) and math.isfinite(fine)):
            hard.append(f"riesz ratio not finite for j={j}")
            continue
        growth = max(fine / base - 1.0, 0.0)
        summary[f"drift_j{j}"] = growth
        if growth >= 0.10:
            warn.append(f"max ratio for j={j} grew {growth:.1%} under refinement")

    plot = {
        f"ratio_j{j}": [
            (float(r.field_id), float(r.ratio)) for r in rows
            if r.component == j and r.grid_n == cfg.grid.n and r.ratio is not None
        ]
        for j in (1, 2)
    }
    return ExperimentReport("riesz", cfg, RieszRow._fields, rows, summary, plot, hard, warn)


# -- experiment 2: space identity and norm equivalences -------------------------

IDENTITY_PAIRS = ((0.25, 0.75), (0.3, 0.8), (0.4, 0.7), (0.45, 0.9), (0.2, 0.85))


class IdentityRow(NamedTuple):
    """A lifting-constant case ("constant": a, b, quadrature, closed form,
    error) or a corpus case ("equivalence": N, field id, Morrey norm,
    semigroup norm, ratio); a rows.csv line."""

    case: str
    a_or_n: float
    b_or_id: float
    value_or_morrey: float
    closed_or_semigroup: float
    err_or_ratio: "float | None"


def gamma_constant_quadrature(params: SpaceParams) -> tuple[float, float]:
    """The lifting constant int_0^inf u^(p-1) e^(-2u) du, p = (a-b+3)/(2b),
    by the 129-node exp-sinh rule (Takahasi & Mori, Publ. RIMS 9, 1974): the
    trapezoid rule in s for u = exp(pi/2 sinh s); and Gamma(p) / 2^p."""
    p = (params.alpha - params.beta + 3) / (2 * params.beta)
    s = np.arange(-64, 65) / 16
    u = np.exp(np.pi / 2 * np.sinh(s))
    value = np.pi / 32 * float(np.sum(u ** p * np.exp(-2 * u) * np.cosh(s)))
    return value, math.gamma(p) / 2.0 ** p


def run_space_identity(cfg: ExperimentConfig) -> ExperimentReport:
    """(a) quadrature vs closed form of the lifting constant on five
    admissible pairs (hard at 1e-8); (b) equivalence interval between the
    cube-oscillation norm of the lifted field and the semigroup norm over the
    corpus at N and 2N (soft: width <= 20x, drift < 15%)."""
    rows = []
    hard, warn = [], []
    summary: dict = {"seed": cfg.seed}

    for a, b in IDENTITY_PAIRS:
        pair = SpaceParams(a, b)
        value, closed = gamma_constant_quadrature(pair)
        err = abs(value - closed)
        rows.append(IdentityRow("constant", a, b, value, closed, err))
        if err > 1e-8:
            hard.append(f"lifting constant quadrature off by {err:.2e} at ({a},{b})")
    summary["constant_default_pair"] = gamma_constant_quadrature(cfg.params)[1]

    a, b = cfg.params.alpha, cfg.params.beta
    lift = (a - b + 1) / 2
    morrey_index = 2 - 2 * (a + b - 1)
    band = cfg.grid.n // 6
    intervals = {}
    for grid in (cfg.grid, GridSpec(2 * cfg.grid.n, cfg.grid.length)):
        ratios = []
        for fid, f in enumerate(_render_corpus(grid, cfg.corpus_size, band, cfg.seed)):
            lifted = ops.fractional_laplacian(f, lift)
            m = morrey_norm(lifted, 2, morrey_index, cfg.sweep).value
            q = q_norm_semigroup(f, cfg.params, cfg.sweep).value
            ratio = _ratio(m, q)
            rows.append(IdentityRow("equivalence", grid.n, fid, m, q, ratio))
            if ratio is not None:
                ratios.append(ratio)
        intervals[grid.n] = (min(ratios), max(ratios)) if ratios else (None, None)

    for n_, (lo, hi) in intervals.items():
        summary[f"ratio_lo_N{n_}"] = lo
        summary[f"ratio_hi_N{n_}"] = hi
        if lo and hi:
            summary[f"ratio_width_N{n_}"] = hi / lo
            if hi / lo > 20:
                warn.append(f"equivalence interval wider than 20x at N={n_}")
    lo0, hi0 = intervals[cfg.grid.n]
    lo1, hi1 = intervals[2 * cfg.grid.n]
    if all(v is not None for v in (lo0, hi0, lo1, hi1)):
        drift = max(abs(lo1 - lo0) / lo0, abs(hi1 - hi0) / hi0)
        summary["interval_drift"] = drift
        if drift >= 0.15:
            warn.append(f"equivalence interval drifted {drift:.1%} under refinement")

    plot = {"equivalence_ratio": [
        (float(r.value_or_morrey), float(r.err_or_ratio)) for r in rows
        if r.case == "equivalence" and r.a_or_n == cfg.grid.n and r.err_or_ratio is not None
    ]}
    return ExperimentReport("identity", cfg, IdentityRow._fields, rows, summary, plot, hard, warn)


# -- experiment 3: scaling invariance -------------------------------------------

def deepest_sweep(grid: GridSpec, like: BoxSweepConfig) -> BoxSweepConfig:
    """Widest dyadic radius ladder the grid admits, at least 3 radii; at
    power-of-two N it reaches the 2-cell radius."""
    m = 3
    while grid.n % 2 ** (m + 2) == 0:
        m += 1
    return BoxSweepConfig(m, like.time_nodes)


class ScalingRow(NamedTuple):
    """One rescaled field of the scaling study (a rows.csv line)."""

    field_id: int
    lam: int
    kind: str
    norm_f: float
    norm_scaled: float
    ratio: "float | None"


def run_scaling_invariance(cfg: ExperimentConfig) -> ExperimentReport:
    """Data-norm invariance under the critical rescaling for lam in {2, 4},
    with wrong-exponent (lam^1) control rows that must break the symmetry.
    Corpus band N/8 - 1 keeps lam = 4 below Nyquist.  The sweep is deepened
    to the grid's limit so the attaining box of a rescaled field stays
    inside the scanned radius range for lam = 2."""
    band = max(2, cfg.grid.n // 8 - 1)
    sweep = deepest_sweep(cfg.grid, cfg.sweep)
    b = cfg.params.beta
    rows = []
    for fid, f in enumerate(_render_corpus(cfg.grid, cfg.corpus_size, band, cfg.seed)):
        base = caloric_minus1_norm(f, cfg.params, sweep).value
        identity = caloric_minus1_norm(
            scaling_transform(f, 1, cfg.params), cfg.params, sweep
        ).value
        rows.append(ScalingRow(fid, 1, "critical", base, identity, _ratio(identity, base)))
        for lam in (2, 4):
            proper = scaling_transform(f, lam, cfg.params)
            control = RealField(f.grid, proper.values * float(lam) ** (2 - 2 * b))
            for kind, g in (("critical", proper), ("control", control)):
                val = caloric_minus1_norm(g, cfg.params, sweep).value
                rows.append(ScalingRow(fid, lam, kind, base, val, _ratio(val, base)))

    lo, hi = 0.8, 1.25
    crit2 = [r.ratio for r in rows if r.kind == "critical" and r.lam == 2 and r.ratio is not None]
    ctrl = [r.ratio for r in rows if r.kind == "control" and r.lam == 4 and r.ratio is not None]
    in_band = sum(lo <= r <= hi for r in crit2) / len(crit2) if crit2 else 0.0
    out_band = sum(not lo <= r <= hi for r in ctrl) / len(ctrl) if ctrl else 0.0

    hard, warn = [], []
    summary = {
        "corpus_size": cfg.corpus_size, "band": band, "seed": cfg.seed,
        "fraction_critical_lam2_in_band": in_band,
        "fraction_control_outside_band": out_band,
    }
    if in_band < 0.9:
        hard.append(f"only {in_band:.0%} of lam=2 critical ratios inside [{lo},{hi}]")
    if out_band < 0.9:
        hard.append(f"only {out_band:.0%} of control ratios outside [{lo},{hi}]")
    if any(r.lam == 1 and r.ratio != 1.0 for r in rows):
        hard.append("lam=1 rescaling did not reproduce the data norm exactly")

    plot = {"critical_ratio_lam2": [(float(r.field_id), float(r.ratio)) for r in rows
                                    if r.kind == "critical" and r.lam == 2 and r.ratio is not None]}
    return ExperimentReport("scaling", cfg, ScalingRow._fields, rows, summary, plot, hard, warn)


# -- experiment 4: well-posedness sweep ------------------------------------------

# A converged wellposed row whose largest node-wise relative distance to the
# reference integrator exceeds this is warned about.  Picard's first-order
# Duhamel quadrature errs about linearly in eps: 6.2e-3 at eps = 1 and 0.31
# at eps = 10 at the default config, so only the eps = 10 row trips it.
REFERENCE_ERR_WARN = 1e-2


def wellposedness_data(grid: GridSpec) -> RealField:
    return field_from_function(grid, lambda x1, x2: np.sin(x1) + np.cos(2 * x2))


class WellposedRow(NamedTuple):
    """One amplitude of the well-posedness ladder (a rows.csv line)."""

    epsilon: float
    data_norm: float
    converged: bool
    iterations: int
    contraction_ratio: "float | None"
    residual: "float | None"
    reference_rel_err: "float | None"
    status: str


def _wellposed_amplitude(eps: float, shape: RealField, cfg: ExperimentConfig,
                         solver_cfg: SolverConfig) -> tuple[WellposedRow, "PicardReport | None"]:
    """One rung of the ladder: the data norm, the Picard solve, the x_norm of
    its fixed-point residual and, when converged, the node-wise agreement with
    the reference integrator.  Returns the row and the Picard report, or no
    report when Picard diverged; the rung's trajectories die with this call,
    so no later solve runs beside them."""
    data = eps * shape
    data_norm = caloric_minus1_norm(data, cfg.params, cfg.sweep).value
    rep = residual = ref_err = None
    status = "ok"
    try:
        traj, rep = picard_solve(data, cfg.params, solver_cfg)
        residual = x_norm(fixed_point_residual(traj, data, cfg.params),
                          cfg.params, cfg.sweep).value
        if rep.converged:
            ref = reference_solve(data, cfg.params, solver_cfg)
            errs = [
                np.abs(p.values - r.values).max() / max(np.abs(r.values).max(), 1e-300)
                for p, r in zip(traj.snapshots, ref.snapshots)
            ]
            ref_err = float(max(errs))
    except DivergenceError as exc:
        status = f"diverged(iteration={exc.iteration})"
    if rep is None:
        return WellposedRow(eps, data_norm, False, 0, None, None, None, status), None
    contraction = rep.contraction_ratio if math.isfinite(rep.contraction_ratio) else None
    return WellposedRow(eps, data_norm, rep.converged, rep.iterations, contraction,
                        residual, ref_err, status), rep


def run_wellposedness_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Picard iteration across a geometric amplitude ladder; per amplitude the
    contraction ratio, the fixed-point residual, and the node-wise agreement
    with the reference integrator.  Non-convergence and blow-up are recorded
    as data, not errors; a run reported converged with a contraction ratio
    >= 1 is warned about, since the fixed point it found is not certified,
    and so is one whose reference_rel_err exceeds REFERENCE_ERR_WARN.

    One amplitude is held at a time (``_wellposed_amplitude``): the peak is
    one amplitude's, not the ladder's.  Besides contraction_vs_eps, every
    amplitude Picard did not diverge on keeps its trace as two plot series
    keyed by format(eps, "g"): picard_norm_eps<eps> (iterate norm against
    iteration, from 0) and picard_increment_eps<eps> (increment against
    iteration, from 1)."""
    shape = wellposedness_data(cfg.grid)
    solver_cfg = cfg.solver_config()
    ladder = [_wellposed_amplitude(10.0 ** k, shape, cfg, solver_cfg) for k in range(-4, 2)]
    rows = [row for row, _ in ladder]
    largest = max((r.epsilon for r in rows if r.converged), default=None)

    hard, warn = [], []
    summary: dict = {"largest_converging_eps": largest}
    if not any(r.converged for r in rows if r.epsilon <= 1e-3):
        hard.append("no amplitude <= 1e-3 converged")
    # quasi-monotonicity of the contraction ratio along the ladder
    conv = [(r.epsilon, r.contraction_ratio) for r in rows
            if r.converged and r.contraction_ratio is not None]
    for (e1, c1), (e2, c2) in zip(conv, conv[1:]):
        if c1 > c2 + 0.1:
            warn.append(f"contraction ratio fell from {c1:.3g} at eps={e1:g} "
                        f"to {c2:.3g} at eps={e2:g}")
    for e, c in conv:
        if c >= 1:
            warn.append(f"eps={e:g} is reported converged with contraction ratio "
                        f"{c:.3g} >= 1")
    for r in rows:
        if r.converged and r.reference_rel_err is not None \
                and r.reference_rel_err > REFERENCE_ERR_WARN:
            warn.append(f"eps={r.epsilon:g} is reported converged but differs from the "
                        f"reference integrator by {r.reference_rel_err:.3g} relative "
                        f"> {REFERENCE_ERR_WARN:g}")
    plot = {"contraction_vs_eps": [(r.epsilon, r.contraction_ratio) for r in rows
                                   if r.contraction_ratio is not None]}
    for row, rep in ladder:
        if rep is not None:
            key = format(row.epsilon, "g")
            plot[f"picard_norm_eps{key}"] = list(enumerate(rep.iterate_norms))
            plot[f"picard_increment_eps{key}"] = list(enumerate(rep.increments, 1))
    return ExperimentReport(
        "wellposed", cfg, WellposedRow._fields, rows, summary, plot, hard, warn,
    )


# -- experiment 5: higher-order regularity ----------------------------------------

def run_regularity_decay(cfg: ExperimentConfig) -> ExperimentReport:
    """Derivative-weighted solution norms k = 0, 1, 2 of a converged small
    solution (hard: finite; soft: growth factor per extra derivative < 50),
    plus the closed-form single-mode block check (hard at 1e-3)."""
    rows = []
    hard, warn = [], []

    eps = 1e-3
    data = eps * wellposedness_data(cfg.grid)
    traj, rep = picard_solve(data, cfg.params, cfg.solver_config())
    if not rep.converged:
        hard.append("picard did not converge on the eps=1e-3 data")
    values = []
    for k in (0, 1, 2):
        report = x_k_norm(traj, cfg.params, k, cfg.sweep)
        growth = report.value / values[-1] if values and values[-1] > 0 else None
        values.append(report.value)
        rows.append(("solution", k, report.value, report.parts["besov"],
                     report.parts["carleson"], growth))
        if not math.isfinite(report.value):
            hard.append(f"x_k norm not finite for k={k}")
        if growth is not None and growth >= 50:
            warn.append(f"norm grew by {growth:.3g}x from k={k - 1} to k={k}")

    single = field_from_function(cfg.grid, lambda x1, x2: np.sin(x1))
    caloric = linear_flow(single, TimeGrid(cfg.horizon, cfg.solver_nodes), cfg.params)
    report = x_k_norm(caloric, cfg.params, 1, cfg.sweep)
    target = float(np.max(caloric.times * np.exp(-caloric.times)))
    err = abs(report.parts["besov"] - target)
    rows.append(("single_mode_k1", 1, report.value, report.parts["besov"], target, err))
    if err > 1e-3:
        hard.append(f"single-mode block part off closed form by {err:.2e}")

    summary = {
        "x_k_values": [float(v) for v in values],
        "single_mode_target": target,
        "single_mode_err": err,
    }
    plot = {"xk_vs_k": [(float(k), float(v)) for k, v in enumerate(values)]}
    return ExperimentReport(
        "regularity", cfg,
        ("case", "k", "value", "besov_part", "carleson_or_target", "growth_or_err"),
        rows, summary, plot, hard, warn,
    )


# -- experiment 6: lemma-level inequality checks -----------------------------------

# Random smooth trajectories per lemma check, each made on both time grids.
LEMMA_TRAJECTORIES = 20


def _random_trajectories(cfg: ExperimentConfig, timegrids) -> Iterator[tuple[Trajectory, ...]]:
    """Smooth deterministic test trajectories g1 phi(t) + g2 psi(t), one per
    consecutive corpus pair (g1, g2), each sampled on every grid of
    ``timegrids``; made one pair at a time, as they are asked for."""
    corpus = _render_corpus(cfg.grid, 2 * LEMMA_TRAJECTORIES, cfg.grid.n // 6, cfg.seed + 1)

    def trajectory(g1, g2, timegrid):
        T = timegrid.horizon
        return Trajectory(timegrid.times, tuple(
            RealField(cfg.grid, g1 / (1.0 + 3.0 * s / T) + g2 * (s / T) * np.exp(-s / T))
            for s in timegrid.times
        ))

    return (tuple(trajectory(g1.values, g2.values, tg) for tg in timegrids)
            for g1, g2 in zip(corpus, corpus))


def _l2_sq(spec: np.ndarray, grid: GridSpec) -> float:
    """Squared L2 norm from an unnormalized half spectrum (Parseval).  The
    interior columns 1 .. N/2-1 also stand for their conjugate partners, so
    they count twice."""
    power = np.abs(spec) ** 2
    total = power.sum() + power[:, 1:-1].sum()
    return float(total) * grid.cell_area ** 2 / grid.length ** 2


def _lemma_constants(traj: Trajectory, params: SpaceParams,
                     sweep: BoxSweepConfig) -> tuple[float, float, float]:
    """The memory ratio and the smoothing constants b(0), b(1) of ``traj``,
    from one stacked forward transform, one box functional and one mass.

    The memory ratio is the weighted-in-time L2 ratio of
    A(t) = int_0^t e^(-(t-s)(-Lap)^b) (-Lap)^b f(s) ds against f itself, both
    with weight t^(-a/b).  b(k) is the empirical constant in the smoothing
    bound for the time-cumulative density: weighted L2 of
    t^(k/2) (-Lap)^((k b + 1)/2) e^(-(t/2)(-Lap)^b) int_0^t f ds (decay
    e^(-t(-Lap)^b) at k = 0) against the box functional, swept over
    ``sweep``'s radii, times the plain weighted mass."""
    grid = traj.grid
    a, b = params.alpha, params.beta
    lam = ops._half_symbol(ops.dissipation_symbol, grid, 2 * b)
    specs = spectral.forward(np.stack([s.values for s in traj.snapshots]))
    weights, _ = trajectory_weights(traj.times, traj.times[-1], a / b)
    # A is the solver's Duhamel recursion with density (-Lap)^b f, frozen at
    # each cell's left node (the first cell reuses t_1)
    lhs = rhs = 0.0
    for m, acc in enumerate(_duhamel(lambda j: lam * specs[j], traj.times, grid, b)):
        lhs += weights[m] * _l2_sq(acc, grid)
        rhs += weights[m] * _l2_sq(specs[m], grid)
    memory = lhs / rhs if rhs > 0 else float("nan")

    smooth = [ops._half_symbol(ops.dissipation_symbol, grid, k * b + 1) for k in (0, 1)]
    smoothing = [0.0, 0.0]
    mass = 0.0
    cum = np.zeros_like(specs[0])
    steps = np.diff(traj.times, prepend=0.0)
    # the smoothing decay is e^(-t lam) at k = 0 and e^(-(t/2) lam) at k = 1
    decays = zip(ops._decays(grid, b, traj.times), ops._decays(grid, b, 0.5 * traj.times))
    for m, (t, decay) in enumerate(zip(traj.times, decays)):
        cum = cum + specs[m] * steps[m]
        for k in (0, 1):
            smoothing[k] += weights[m] * t ** k * _l2_sq(smooth[k] * decay[k] * cum, grid)
        mass += weights[m] * float(np.abs(traj.snapshots[m].values).sum()) * grid.cell_area
    rhs = carleson_l1_functional(traj, params, sweep).value * mass
    b0, b1 = (v / rhs if rhs > 0 else float("nan") for v in smoothing)
    return memory, b0, b1


def run_lemma_checks(cfg: ExperimentConfig) -> ExperimentReport:
    """(a) dissipative-memory L2 ratios over random smooth trajectories, with
    drift under time refinement (hard < 10%); (b) empirical smoothing
    constants b(k), k in {0,1} (measured outputs); (c) kernel decay maxima at
    N and 2N (soft drift < 20% here, hard in the acceptance suite)."""
    rows = []
    hard, warn = [], []
    tg = TimeGrid(cfg.horizon, cfg.solver_nodes)
    constants = [
        (_lemma_constants(traj, cfg.params, cfg.sweep),
         _lemma_constants(fine, cfg.params, cfg.sweep))
        for traj, fine in _random_trajectories(cfg, (tg, tg.refined(2)))
    ]

    ratios, drifts = [], []
    for i, ((r_coarse, _, _), (r_fine, _, _)) in enumerate(constants):
        drift = abs(r_fine - r_coarse) / r_coarse
        ratios.append(r_fine)
        drifts.append(drift)
        rows.append(("memory_ratio", i, r_coarse, r_fine, drift, None))
    if max(drifts) >= 0.10:
        hard.append(f"memory ratio drifted {max(drifts):.1%} under time refinement")

    bks = {}
    bk_drifts = {}
    for k in (0, 1):
        vals, deltas = [], []
        for i, (coarse, fine) in enumerate(constants):
            bk, bk_fine = coarse[1 + k], fine[1 + k]
            vals.append(bk_fine)
            deltas.append(abs(bk_fine - bk) / bk)
            rows.append(("smoothing_bk", i, k, bk, bk_fine, deltas[-1]))
        bks[k] = max(vals)
        bk_drifts[k] = max(deltas)
        if not all(math.isfinite(v) for v in vals):
            hard.append(f"smoothing constant b({k}) not finite")
        if bk_drifts[k] >= 0.10:
            hard.append(
                f"smoothing constant b({k}) drifted {bk_drifts[k]:.1%} "
                "under time refinement"
            )

    decay_rows, decay_hard = kernel_decay_study(cfg)
    rows.extend(decay_rows)
    for name, drift in decay_hard:
        if drift >= 0.20:
            warn.append(f"kernel decay maximum {name} drifted {drift:.1%}")

    summary = {
        "memory_ratio_max": max(ratios),
        "memory_ratio_drift_max": max(drifts),
        "empirical_b0": bks[0],
        "empirical_b1": bks[1],
        "b0_drift_max": bk_drifts[0],
        "b1_drift_max": bk_drifts[1],
    }
    plot = {"memory_ratios": [(float(i), float(r)) for i, r in enumerate(ratios)]}
    return ExperimentReport(
        "lemmas", cfg,
        ("case", "index", "v1", "v2", "v3", "v4"),
        rows, summary, plot, hard, warn,
    )


def kernel_decay_study(cfg: ExperimentConfig, t: float = 1.0):
    """Max over the grid of (t^(1/(2b)) + |x|)^3 |grad K_t| and of
    (1 + |x|)^(2+|a|) |d^a K_j| for |a| in {0, 1}, at N and 2N."""
    rows = []
    drifts = []
    maxima: dict[str, dict[int, float]] = {}
    for grid in (cfg.grid, GridSpec(2 * cfg.grid.n, cfg.grid.length)):
        d = grid.signed_coords
        radius = np.hypot(*np.meshgrid(d, d, indexing="ij"))
        heat, grad, riesz_kernel = ops.kernel_fields(t, cfg.params, grid)
        shift = t ** (1 / (2 * cfg.params.beta))
        grad_mag = np.hypot(grad[0].values, grad[1].values)
        entries = {"heat_grad": float(((shift + radius) ** 3 * grad_mag).max())}
        entries["riesz_kernel"] = float(((1 + radius) ** 2 * np.abs(riesz_kernel.values)).max())
        for axis in (1, 2):
            dk = ops.partial_derivative(riesz_kernel, axis)
            entries[f"riesz_kernel_d{axis}"] = float(
                ((1 + radius) ** 3 * np.abs(dk.values)).max()
            )
        for name, value in entries.items():
            maxima.setdefault(name, {})[grid.n] = value
            rows.append(("kernel_decay", name, grid.n, value, None, None))
    for name, by_n in maxima.items():
        coarse, fine = by_n[cfg.grid.n], by_n[2 * cfg.grid.n]
        drift = abs(fine - coarse) / coarse
        rows.append(("kernel_drift", name, None, coarse, fine, drift))
        drifts.append((name, drift))
    return rows, drifts


RUNNERS = {
    "riesz": run_riesz_boundedness,
    "identity": run_space_identity,
    "scaling": run_scaling_invariance,
    "wellposed": run_wellposedness_sweep,
    "regularity": run_regularity_decay,
    "lemmas": run_lemma_checks,
}
