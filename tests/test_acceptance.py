"""Acceptance gate: one test per shipped guarantee.

Each test asserts the guarantee at its stated tolerance together with its
wall-clock budget, so ``pytest -v tests/test_acceptance.py`` prints exactly
one pass/fail line per criterion.  Experiment-level criteria run the full
harness entry points at production scale (N=64 base grid, 50-field corpus);
operator criteria drive the library directly at N=128.
"""
import math
import time

import numpy as np
import pytest

from qsqg import spectral
from qsqg.fields import (
    GridSpec,
    RealField,
    SpaceParams,
    Trajectory,
    field_from_function,
)
from qsqg.operators import (
    fractional_laplacian,
    partial_derivative,
    riesz_transform,
)
from qsqg.norms import (
    caloric_minus1_norm,
    carleson_l1_functional,
    morrey_norm,
    q_norm_semigroup,
    x_k_norm,
    x_norm,
)
from qsqg.solver import (
    SolverConfig,
    TimeGrid,
    duhamel_bilinear,
    linear_flow,
    picard_solve,
    reference_solve,
)
from qsqg.sweep import BoxSweepConfig
from qsqg.experiments import (
    ExperimentConfig,
    kernel_decay_study,
    persist,
    run_lemma_checks,
    run_regularity_decay,
    run_riesz_boundedness,
    run_scaling_invariance,
    run_space_identity,
    run_wellposedness_sweep,
    wellposedness_data,
)

from oracles import besov_sup_norm, heat_semigroup, q_norm_direct, sqg_velocity

L = 2 * math.pi


@pytest.fixture(scope="module")
def cfg():
    """Production-scale experiment configuration."""
    return ExperimentConfig()


@pytest.fixture(scope="module")
def grid64():
    return GridSpec(64, L)


def test_criterion_01_operator_algebra(params):
    t0 = time.monotonic()
    grid = GridSpec(128, L)
    f = field_from_function(
        grid, lambda x1, x2: np.sin(x1) * np.cos(2 * x2) + 0.5 * np.cos(3 * x1 + x2)
    )

    back = spectral.inverse(spectral.forward(f.values), grid.n)
    assert np.abs(back - f.values).max() <= 1e-13

    squares = riesz_transform(riesz_transform(f, 1), 1) + riesz_transform(
        riesz_transform(f, 2), 2
    )
    assert np.abs(squares.values + f.values).max() <= 1e-12

    composed = heat_semigroup(heat_semigroup(f, 0.3, params), 0.45, params)
    direct = heat_semigroup(f, 0.75, params)
    assert np.abs(composed.values - direct.values).max() <= 1e-12

    additive = fractional_laplacian(fractional_laplacian(f, 0.35), 0.4)
    assert np.abs(additive.values - fractional_laplacian(f, 0.75).values).max() <= 1e-12

    u1, u2 = sqg_velocity(f)
    div = partial_derivative(u1, 1) + partial_derivative(u2, 2)
    assert div.max_abs() <= 1e-12 * f.max_abs()

    assert time.monotonic() - t0 < 5.0


def test_criterion_02_kernel_decay(cfg):
    t0 = time.monotonic()
    rows, drifts = kernel_decay_study(cfg, t=1.0)
    maxima = [r[3] for r in rows if r[0] == "kernel_decay"]
    assert maxima and all(math.isfinite(v) and v > 0 for v in maxima)
    assert drifts
    for name, drift in drifts:
        assert drift < 0.20, f"{name} drifted {drift:.1%} from N=64 to N=128"
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_norm_axioms(params):
    t0 = time.monotonic()
    grid = GridSpec(64, L)
    f = field_from_function(
        grid, lambda x1, x2: np.sin(x1) * np.cos(2 * x2) + 0.5 * np.cos(3 * x1 + x2)
    )
    tg = TimeGrid(1.0, 16)
    traj = linear_flow(f, tg, params)
    zero_field = RealField(grid, np.zeros((64, 64)))
    zero_traj = Trajectory(tg.times, tuple(zero_field for _ in tg.times))
    c = -2.5

    field_cases = [
        lambda g, sweep=None: besov_sup_norm(g, -0.5),
        lambda g, sweep=None: morrey_norm(g, 2, 1.0, sweep),
        lambda g, sweep=None: q_norm_direct(g, params, sweep),
        lambda g, sweep=None: q_norm_semigroup(g, params, sweep),
        lambda g, sweep=None: caloric_minus1_norm(g, params, sweep),
    ]
    traj_cases = [
        lambda tr, sweep=None: x_norm(tr, params, sweep),
        lambda tr, sweep=None: x_k_norm(tr, params, 1, sweep),
        lambda tr, sweep=None: carleson_l1_functional(tr, params, sweep),
    ]

    for est in field_cases:
        assert est(zero_field).value == 0.0
        base = est(f).value
        scaled = est(c * f).value
        assert abs(scaled - abs(c) * base) <= 1e-12 * abs(c) * base

    scaled_traj = Trajectory(traj.times, tuple(c * s for s in traj.snapshots))
    for est in traj_cases:
        assert est(zero_traj).value == 0.0
        base = est(traj).value
        assert abs(est(scaled_traj).value - abs(c) * base) <= 1e-12 * abs(c) * base

    # enlarging the sweep never decreases a reported supremum
    narrow, wide = BoxSweepConfig(3, 16), BoxSweepConfig(4, 16)
    for est in field_cases[1:]:
        assert est(f, wide).value >= est(f, narrow).value
    for est in traj_cases:
        assert est(traj, wide).value >= est(traj, narrow).value
    short, tall = BoxSweepConfig(3, 16), BoxSweepConfig(3, 24)
    q_semigroup = field_cases[3]
    assert q_semigroup(f, tall).value >= q_semigroup(f, short).value

    assert time.monotonic() - t0 < 30.0


def test_criterion_04_riesz_boundedness(cfg):
    t0 = time.monotonic()
    report = run_riesz_boundedness(cfg)
    assert report.passed, report.hard_failures
    for j in (1, 2):
        base = report.summary[f"max_ratio_j{j}_N64"]
        fine = report.summary[f"max_ratio_j{j}_N128"]
        assert math.isfinite(base) and math.isfinite(fine)
        assert report.summary[f"drift_j{j}"] < 0.10
    assert time.monotonic() - t0 < 300.0


def test_criterion_05_identity_constant_and_equivalence(cfg):
    t0 = time.monotonic()
    report = run_space_identity(cfg)
    assert report.passed, report.hard_failures
    constant_errs = [r[5] for r in report.rows if r[0] == "constant"]
    assert len(constant_errs) == 5 and max(constant_errs) <= 1e-8
    assert report.summary["ratio_width_N64"] <= 20
    assert report.summary["ratio_width_N128"] <= 20
    assert report.summary["interval_drift"] < 0.15
    assert time.monotonic() - t0 < 300.0


def test_criterion_06_scaling_criticality(cfg):
    t0 = time.monotonic()
    report = run_scaling_invariance(cfg)
    assert report.passed, report.hard_failures
    assert report.summary["fraction_critical_lam2_in_band"] >= 0.90
    assert report.summary["fraction_control_outside_band"] >= 0.90
    assert time.monotonic() - t0 < 180.0


def test_criterion_07_small_data_wellposedness(params, grid64):
    t0 = time.monotonic()
    data = 1e-3 * wellposedness_data(grid64)
    solver_cfg = SolverConfig(TimeGrid(1.0, 32))
    traj, report = picard_solve(data, params, solver_cfg)
    assert report.converged
    assert report.contraction_ratio < 0.5

    base = linear_flow(data, solver_cfg.timegrid, params)
    residual = x_norm(
        traj - (base + duhamel_bilinear(traj, traj, params)), params
    ).value
    assert residual <= 2 * solver_cfg.picard_tol * (1 + x_norm(traj, params).value)

    ref = reference_solve(data, params, solver_cfg)
    for ours, oracle in zip(traj.snapshots, ref.snapshots):
        rel = np.abs(ours.values - oracle.values).max() / np.abs(oracle.values).max()
        assert rel <= 1e-3
    assert time.monotonic() - t0 < 180.0


def test_criterion_08_reference_self_convergence(params):
    t0 = time.monotonic()
    grid = GridSpec(32, L)
    data = 0.05 * field_from_function(grid, lambda x1, x2: np.sin(x1) + np.cos(2 * x2))
    tg = TimeGrid(0.5, 16)
    golden = reference_solve(data, params, SolverConfig(tg, reference_refine=16))
    errs = {}
    for refine in (2, 4):
        sol = reference_solve(data, params, SolverConfig(tg, reference_refine=refine))
        errs[refine] = max(
            np.abs(a.values - b.values).max()
            for a, b in zip(sol.snapshots, golden.snapshots)
        )
    order = math.log2(errs[2] / errs[4])
    assert order >= 1.8
    assert time.monotonic() - t0 < 120.0


def test_criterion_09_regularity_ladder(cfg):
    t0 = time.monotonic()
    report = run_regularity_decay(cfg)
    assert report.passed, report.hard_failures
    values = report.summary["x_k_values"]
    assert len(values) == 3 and all(math.isfinite(v) for v in values)
    assert report.summary["single_mode_err"] <= 1e-3
    assert time.monotonic() - t0 < 180.0


def test_criterion_10_inequality_constants(cfg):
    t0 = time.monotonic()
    report = run_lemma_checks(cfg)
    assert report.passed, report.hard_failures
    assert math.isfinite(report.summary["memory_ratio_max"])
    assert math.isfinite(report.summary["empirical_b0"])
    assert math.isfinite(report.summary["empirical_b1"])
    assert report.summary["memory_ratio_drift_max"] < 0.10
    assert report.summary["b0_drift_max"] < 0.10
    assert report.summary["b1_drift_max"] < 0.10
    assert time.monotonic() - t0 < 180.0


def test_criterion_11_determinism(cfg, tmp_path):
    first = persist(run_space_identity(cfg), tmp_path / "first")
    second = persist(run_space_identity(cfg), tmp_path / "second")
    files_a = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
