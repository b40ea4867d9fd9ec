"""Experiment harness and CLI tests at smoke scale (N=32, small corpus)."""
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from qsqg import cli, experiments
from qsqg.errors import DivergenceError
from qsqg.fields import GridSpec, RealField, SpaceParams
from qsqg.norms import caloric_minus1_norm, x_norm
from qsqg.solver import fixed_point_residual, picard_solve, reference_solve
from qsqg.sweep import BoxSweepConfig
from qsqg.experiments import (
    IDENTITY_PAIRS,
    REFERENCE_ERR_WARN,
    RUNNERS,
    UNDEFINED,
    ExperimentConfig,
    ExperimentReport,
    deepest_sweep,
    gamma_constant_quadrature,
    persist,
    run_riesz_boundedness,
    run_scaling_invariance,
    run_space_identity,
    run_wellposedness_sweep,
    wellposedness_data,
)


@pytest.fixture(scope="module")
def cfg32(grid32):
    return ExperimentConfig(grid=grid32, corpus_size=4, solver_nodes=16)


def traced_peak(run):
    """Traced peak of run() above what was allocated before it, measured on
    a second call so that the per-grid caches are already filled."""
    run()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestHelpers:
    def test_deepest_sweep_widens_to_grid_limit(self):
        like = BoxSweepConfig()
        assert deepest_sweep(GridSpec(32, 2 * math.pi), like).num_radii == 4
        assert deepest_sweep(GridSpec(64, 2 * math.pi), like).num_radii == 5
        assert deepest_sweep(GridSpec(48, 2 * math.pi), like).num_radii == 3
        # power-of-two grids reach their 2-cell radius L/(N/2)
        assert deepest_sweep(GridSpec(128, 2 * math.pi), like).num_radii == 6
        assert deepest_sweep(GridSpec(256, 2 * math.pi), like).num_radii == 7

    def test_deepest_sweep_keeps_time_ladder(self):
        like = BoxSweepConfig(3, 24)
        assert deepest_sweep(GridSpec(64, 2 * math.pi), like).time_nodes == 24

    @pytest.mark.parametrize("a,b", IDENTITY_PAIRS)
    def test_lifting_constant_quadrature(self, a, b):
        value, closed = gamma_constant_quadrature(SpaceParams(a, b))
        assert abs(value - closed) <= 1e-8

    def test_lifting_constant_rule_over_admissible_range(self):
        # p = (a - b + 3)/(2b) fills (1, 3) over the admissible pairs; each p
        # is met at the b midway in its admissible interval
        # (2/(p + 1), min(3/(2p), 1)), with a = 2bp + b - 3
        worst = 0.0
        for i in range(1, 401):
            p = 1 + 2 * i / 401
            b = (2 / (p + 1) + min(3 / (2 * p), 1.0)) / 2
            value, closed = gamma_constant_quadrature(SpaceParams(2 * b * p + b - 3, b))
            worst = max(worst, abs(value - closed) / closed)
        assert worst <= 1e-14

    def test_wellposedness_data_is_mean_zero(self, grid32):
        wellposedness_data(grid32).require_mean_zero("test")

    def test_wellposed_warns_on_converged_non_contraction(self):
        # default config: the eps = 10 run stops on a small increment although
        # its contraction ratio is about 1.64 and it is 31% off the reference
        # integrator, and it is the only such row
        report = run_wellposedness_sweep(ExperimentConfig())
        flagged = [r for r in report.rows if r.converged
                   and r.contraction_ratio is not None and r.contraction_ratio >= 1]
        assert [r.epsilon for r in flagged] == [10.0]
        far = [r for r in report.rows if r.converged
               and r.reference_rel_err > REFERENCE_ERR_WARN]
        assert [r.epsilon for r in far] == [10.0]
        assert report.warnings == [
            "eps=10 is reported converged with contraction ratio 1.64 >= 1",
            "eps=10 is reported converged but differs from the reference integrator "
            "by 0.31 relative > 0.01",
        ]
        assert report.columns == type(report.rows[0])._fields


class TestRunners:
    @pytest.mark.parametrize("name", sorted(RUNNERS))
    def test_passes_and_persists(self, name, cfg32, tmp_path):
        report = RUNNERS[name](cfg32)
        assert report.name == name
        assert report.passed, report.hard_failures
        assert report.rows
        assert all(len(r) == len(report.columns) for r in report.rows)

        base = persist(report, tmp_path)
        for artifact in ("config.json", "rows.csv", "summary.txt"):
            assert (base / artifact).exists()
        cfg_on_disk = json.loads((base / "config.json").read_text())
        assert cfg_on_disk["seed"] == cfg32.seed
        assert cfg_on_disk["corpus_size"] == 4
        lines = (base / "summary.txt").read_text().strip().splitlines()
        assert lines[0] == f"experiment: {name}"
        assert lines[-1] == "result: pass"

    def test_persist_is_byte_deterministic(self, cfg32, tmp_path):
        for name in ("riesz", "scaling"):
            ta = tree_bytes(persist(RUNNERS[name](cfg32), tmp_path / name / "a"))
            tb = tree_bytes(persist(RUNNERS[name](cfg32), tmp_path / name / "b"))
            assert {"config.json", "rows.csv", "summary.txt"} < set(ta), name
            assert any(k.startswith("plots/") for k in ta), name
            assert ta == tb, name

    def test_lemma_checks_sweep_the_configured_radii(self, cfg32, monkeypatch):
        seen = []
        l1 = experiments.carleson_l1_functional

        def spy(traj, params, sweep=None):
            seen.append(sweep)
            return l1(traj, params, sweep)

        monkeypatch.setattr(experiments, "carleson_l1_functional", spy)
        cfg = dataclasses.replace(cfg32, sweep=BoxSweepConfig(4))
        experiments.run_lemma_checks(cfg)
        assert seen and all(sweep == cfg.sweep for sweep in seen)

    def test_zero_field_ratio_is_undefined(self, cfg32, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "_render_corpus",
                            lambda grid, *args: [RealField.zero(grid)])
        report = run_riesz_boundedness(cfg32)
        assert report.passed
        # norm of the zero field is 0, so the ratio has no value
        assert any(row[-1] is None for row in report.rows)
        base = persist(report, tmp_path)
        assert UNDEFINED in (base / "rows.csv").read_text()
        assert UNDEFINED in (base / "summary.txt").read_text()

    @pytest.mark.parametrize("runner", [run_riesz_boundedness, run_space_identity,
                                        run_scaling_invariance])
    def test_peak_does_not_grow_with_corpus_size(self, grid32, runner):
        # each corpus field is rendered as its case runs and dropped after
        # it, so from 2 fields to 10 the traced peak grows by the rows
        # alone, less than one field of the refined grid; holding a grid's
        # corpus grows it by 8 fields
        def corpus_peak(size):
            return traced_peak(lambda: runner(ExperimentConfig(grid=grid32, corpus_size=size)))

        fine_field = (2 * grid32.n) ** 2 * np.dtype(float).itemsize
        assert corpus_peak(10) - corpus_peak(2) < fine_field

    def test_wellposed_peak_is_one_amplitudes(self, cfg32):
        # each amplitude's Picard solution, residual and reference solution
        # are dropped before the next amplitude is solved, so the ladder's
        # traced peak is its costliest amplitude's (eps = 10) plus less than
        # one trajectory; holding the previous amplitude's three trajectories
        # beside the next Picard solve adds about three
        params, sweep, solver_cfg = cfg32.params, cfg32.sweep, cfg32.solver_config()

        def lone_amplitude():
            data = 10.0 * wellposedness_data(cfg32.grid)
            caloric_minus1_norm(data, params, sweep)
            traj, rep = picard_solve(data, params, solver_cfg)
            x_norm(fixed_point_residual(traj, data, params), params, sweep)
            assert rep.converged
            ref = reference_solve(data, params, solver_cfg)
            max(np.abs(p.values - r.values).max()
                for p, r in zip(traj.snapshots, ref.snapshots))

        trajectory = cfg32.solver_nodes * cfg32.grid.n ** 2 * np.dtype(float).itemsize
        excess = traced_peak(lambda: run_wellposedness_sweep(cfg32)) \
            - traced_peak(lone_amplitude)
        assert excess < trajectory

    def test_wellposed_keeps_picard_trace(self, cfg32, monkeypatch, tmp_path):
        # every amplitude Picard finishes on keeps its iterate norms and
        # increments as two plot series; the one it diverges on keeps none
        solve, reports = experiments.picard_solve, []

        def diverge_last(data, params, config):
            if len(reports) == 5:
                raise DivergenceError("picard iterate 3 diverged", iteration=3)
            traj, rep = solve(data, params, config)
            reports.append(rep)
            return traj, rep

        monkeypatch.setattr(experiments, "picard_solve", diverge_last)
        report = run_wellposedness_sweep(cfg32)
        assert [r.status for r in report.rows] == ["ok"] * 5 + ["diverged(iteration=3)"]
        keys = ["0.0001", "0.001", "0.01", "0.1", "1"]
        assert set(report.plot_data) == {"contraction_vs_eps"} | {
            f"picard_{series}_eps{key}" for series in ("norm", "increment") for key in keys}
        for key, rep in zip(keys, reports):
            assert report.plot_data[f"picard_norm_eps{key}"] == list(enumerate(rep.iterate_norms))
            assert report.plot_data[f"picard_increment_eps{key}"] == \
                list(enumerate(rep.increments, 1))
        lines = (persist(report, tmp_path) / "plots" / "picard_increment_eps1.csv") \
            .read_text().splitlines()
        assert lines[0] == "x,y"
        assert lines[1:] == [f"{i},{inc:.17g}" for i, inc in enumerate(reports[-1].increments, 1)]


class TestCli:
    FAST = ["--grid", "32", "--corpus-size", "2", "--solver-nodes", "16"]

    def test_single_experiment(self, tmp_path, capsys):
        rc = cli.main(["riesz", *self.FAST, "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "riesz" / "rows.csv").exists()
        out = capsys.readouterr().out
        assert "[riesz] pass" in out
        assert "wall time" in out

    def test_all_experiments(self, tmp_path):
        rc = cli.main(["all", *self.FAST, "--out", str(tmp_path)])
        assert rc == 0
        assert {p.name for p in tmp_path.iterdir()} == set(RUNNERS)

    def test_config_file_overrides_flags(self, tmp_path):
        cfg_file = tmp_path / "override.json"
        cfg_file.write_text(json.dumps({"corpus_size": 3, "seed": 99, "horizon": 1,
                                        "grid": {"side_points": 32.0},
                                        "params": {"alpha": 0.3}, "sweep": {"num_radii": 4}}))
        rc = cli.main(["riesz", *self.FAST, "--beta", "0.8", "--time-nodes", "20",
                       "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == 0
        on_disk = json.loads((tmp_path / "o" / "riesz" / "config.json").read_text())
        assert on_disk["corpus_size"] == 3
        assert on_disk["seed"] == 99
        # an object overrides only the keys it gives; the rest keep the flags
        assert on_disk["params"] == {"alpha": 0.3, "beta": 0.8}
        assert on_disk["sweep"] == {"num_radii": 4, "time_nodes": 20}
        # values are cast to the field types, as the flags are
        assert type(on_disk["grid"]["side_points"]) is int
        assert type(on_disk["horizon"]) is float

    def test_config_json_replays_run(self, tmp_path):
        rc = cli.main(["regularity", *self.FAST, "--alpha", "0.3", "--time-nodes", "20",
                       "--out", str(tmp_path / "a")])
        assert rc == 0
        first = tmp_path / "a" / "regularity"
        rc = cli.main(["regularity", "--config", str(first / "config.json"),
                       "--out", str(tmp_path / "b")])
        assert rc == 0
        assert tree_bytes(first) == tree_bytes(tmp_path / "b" / "regularity")

    def test_unknown_config_key_rejected(self, tmp_path):
        # nested keys are checked too, and the old flat names are unknown
        cases = [({"corpus": 2}, "corpus"), ({"params": {"gamma": 1.0}}, "params.gamma"),
                 ({"alpha": 0.3}, "alpha"), ({"time_nodes": 20}, "time_nodes")]
        cfg_file = tmp_path / "bad.json"
        for raw, key in cases:
            cfg_file.write_text(json.dumps(raw))
            with pytest.raises(SystemExit, match=rf"unknown config keys: \['{key}'\]"):
                cli.main(["riesz", "--config", str(cfg_file), "--out", str(tmp_path)])

    def test_config_value_changed_by_its_cast_rejected(self, tmp_path):
        # a fraction or a bool for an int would run another config silently
        cases = [({"seed": 8191.9}, "seed"), ({"corpus_size": True}, "corpus_size"),
                 ({"grid": {"side_points": 64.7}}, "grid.side_points")]
        cfg_file = tmp_path / "cast.json"
        for raw, key in cases:
            cfg_file.write_text(json.dumps(raw))
            with pytest.raises(SystemExit, match=rf"config {key}: expected int, got "):
                cli.main(["riesz", "--config", str(cfg_file), "--out", str(tmp_path)])
        assert not (tmp_path / "riesz").exists()

    def test_flat_grid_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "old.json"
        cfg_file.write_text(json.dumps({"grid": 32}))
        with pytest.raises(SystemExit, match="config grid must be a JSON object"):
            cli.main(["riesz", "--config", str(cfg_file), "--out", str(tmp_path)])

    def test_hard_failure_sets_exit_code(self, tmp_path, monkeypatch, capsys):
        def broken(cfg):
            return ExperimentReport(
                "riesz", cfg, ("value",), [(1.0,)], {},
                hard_failures=["synthetic failure"],
            )

        monkeypatch.setitem(cli.RUNNERS, "riesz", broken)
        rc = cli.main(["riesz", *self.FAST, "--out", str(tmp_path)])
        assert rc == 1
        assert "FAILED: synthetic failure" in capsys.readouterr().out
        text = (tmp_path / "riesz" / "summary.txt").read_text()
        assert "result: FAIL" in text

    @pytest.mark.parametrize("name", sorted(RUNNERS) + ["all"])
    def test_flag_defaults_are_config_defaults(self, name):
        args = cli.build_parser().parse_args([name])
        assert cli.config_from_args(args) == ExperimentConfig()

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            cli.main([])
