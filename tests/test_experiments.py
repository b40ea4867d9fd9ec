"""Experiment harness and CLI tests at smoke scale (N=32, small corpus)."""
import json
import math

import numpy as np
import pytest

from qsqg import cli
from qsqg.fields import GridSpec, RealField, SpaceParams
from qsqg.sweep import BoxSweepConfig
from qsqg.experiments import (
    IDENTITY_PAIRS,
    RUNNERS,
    UNDEFINED,
    ExperimentConfig,
    ExperimentReport,
    deepest_sweep,
    gamma_constant_quadrature,
    persist,
    run_riesz_boundedness,
    thread_budget,
    wellposedness_data,
)


@pytest.fixture(scope="module")
def cfg32(grid32):
    return ExperimentConfig(grid=grid32, corpus_size=4, solver_nodes=16)


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestHelpers:
    def test_thread_budget_default(self, monkeypatch):
        monkeypatch.delenv("QSQG_THREADS", raising=False)
        assert thread_budget() == 1

    @pytest.mark.parametrize("raw,expect", [("7", 7), ("1", 1), ("0", 1),
                                            ("-3", 1), ("x", 1)])
    def test_thread_budget_env(self, monkeypatch, raw, expect):
        monkeypatch.setenv("QSQG_THREADS", raw)
        assert thread_budget() == expect

    def test_deepest_sweep_widens_to_grid_limit(self):
        like = BoxSweepConfig()
        assert deepest_sweep(GridSpec(32, 2 * math.pi), like).num_radii == 4
        assert deepest_sweep(GridSpec(64, 2 * math.pi), like).num_radii == 5
        assert deepest_sweep(GridSpec(48, 2 * math.pi), like).num_radii == 3
        assert deepest_sweep(GridSpec(64, 2 * math.pi), like, cap=3).num_radii == 3

    def test_deepest_sweep_keeps_time_ladder(self):
        like = BoxSweepConfig(3, 24)
        assert deepest_sweep(GridSpec(64, 2 * math.pi), like).time_nodes == 24

    @pytest.mark.parametrize("a,b", IDENTITY_PAIRS)
    def test_lifting_constant_quadrature(self, a, b):
        value, closed = gamma_constant_quadrature(SpaceParams(a, b))
        assert abs(value - closed) <= 1e-8

    def test_wellposedness_data_is_mean_zero(self, grid32):
        wellposedness_data(grid32).require_mean_zero("test")


class TestRunners:
    @pytest.mark.parametrize("name", sorted(RUNNERS))
    def test_passes_and_persists(self, name, cfg32, tmp_path):
        report = RUNNERS[name](cfg32)
        assert report.name == name
        assert report.passed, report.hard_failures
        assert report.rows
        assert all(len(r) == len(report.columns) for r in report.rows)
        assert report.wall_seconds > 0

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
        a = persist(run_riesz_boundedness(cfg32), tmp_path / "a")
        b = persist(run_riesz_boundedness(cfg32), tmp_path / "b")
        ta, tb = tree_bytes(a), tree_bytes(b)
        assert set(ta) == set(tb)
        assert all(ta[k] == tb[k] for k in ta)

    @pytest.mark.parametrize("name", ["riesz", "scaling"])
    def test_artifacts_independent_of_thread_count(self, name, cfg32, tmp_path, monkeypatch):
        trees = []
        for threads in ("1", "2"):
            monkeypatch.setenv("QSQG_THREADS", threads)
            tree = tree_bytes(persist(RUNNERS[name](cfg32), tmp_path / threads))
            # config.json records threads_cap, so it differs by design
            del tree["config.json"]
            trees.append(tree)
        assert {"rows.csv", "summary.txt"} < set(trees[0])
        assert any(k.startswith("plots/") for k in trees[0])
        assert trees[0] == trees[1]

    def test_zero_field_ratio_is_undefined(self, cfg32, grid32, tmp_path):
        zero = RealField(grid32, np.zeros((32, 32)))
        report = run_riesz_boundedness(cfg32, fields=[zero])
        assert report.passed
        # norm of the zero field is 0, so the ratio has no value
        assert any(row[-1] is None for row in report.rows)
        base = persist(report, tmp_path)
        assert UNDEFINED in (base / "rows.csv").read_text()
        assert UNDEFINED in (base / "summary.txt").read_text()


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
        cfg_file.write_text(json.dumps({"corpus_size": 3, "seed": 99}))
        rc = cli.main(["riesz", *self.FAST,
                       "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == 0
        on_disk = json.loads((tmp_path / "o" / "riesz" / "config.json").read_text())
        assert on_disk["corpus_size"] == 3
        assert on_disk["seed"] == 99

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"corpus": 2}))
        with pytest.raises(SystemExit, match="unknown config keys"):
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

    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            cli.main([])
