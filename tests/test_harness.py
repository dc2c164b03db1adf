"""Harness, campaign, and CLI tests."""

import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import avalanche
from avalanche import bounds as bc
from avalanche import harness
from avalanche import meanfield as mf
from avalanche.cli import COMMANDS, build_parser, config_from_args, main
from avalanche.exact import (build_q_float, expected_duration_float,
                             expected_size_float, q_powers)
from avalanche.model import ModelParams, kernel_row, run_block
from avalanche.rng import replicate_rng


class TestExperimentConfig:
    def test_rejects_p_and_c_together(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(p=0.1, c=1.0)

    def test_model_requires_intensity(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig().model()
        assert harness.ExperimentConfig(c=1.2).model().c \
            == pytest.approx(1.2)

    def test_from_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[experiment]\nn = 40\nc = 0.9\nreplicates = 7\n"
                       "c_list = 0.5, 1.0\n")
        loaded = harness.ExperimentConfig.from_file(str(cfg), i0=3)
        assert loaded.n == 40
        assert loaded.c == 0.9
        assert loaded.replicates == 7
        assert loaded.c_list == (0.5, 1.0)
        assert loaded.i0 == 3
        # explicit override beats the file
        again = harness.ExperimentConfig.from_file(str(cfg), n=60)
        assert again.n == 60


class TestEstimate:
    def test_from_samples(self):
        est = harness.Estimate.from_samples(np.array([0.0, 1.0,
                                                            1.0, 0.0]))
        assert est.point == 0.5
        assert est.replicates == 4


@pytest.fixture
def built(monkeypatch):
    """The (key, generator) pairs harness builds, in order."""
    built = []
    replicate_rng = harness.replicate_rng

    def recording_rng(*key):
        built.append((key, replicate_rng(*key)))
        return built[-1][1]

    monkeypatch.setattr(harness, "replicate_rng", recording_rng)
    return built


class TestTrajectories:
    def test_worker_count_does_not_change_results(self):
        params = ModelParams.from_intensity(50, 1.0)
        reps = 2 * harness.BLOCK_SIZE + 40  # two full blocks and a partial
        a = harness.run_trajectories(params, 2, reps, 77, workers=1)
        for workers in (2, 3):
            b = harness.run_trajectories(params, 2, reps, 77, workers=workers)
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("reps,workers,pools", [
        (2 * harness.BLOCK_SIZE + 1, 500, [3]),   # 3 blocks: 3 processes
        (2 * harness.BLOCK_SIZE, 2, [2]),
        (harness.BLOCK_SIZE, 500, [])])           # 1 block: no pool
    def test_pool_never_outnumbers_blocks(self, reps, workers, pools,
                                          monkeypatch):
        started = []

        class InProcess:   # records the pool size; starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness.concurrent.futures,
                            "ProcessPoolExecutor", InProcess)
        params = ModelParams.from_intensity(50, 1.0)
        rows = harness.run_trajectories(params, 2, reps, 77, workers=workers)
        assert started == pools
        np.testing.assert_array_equal(
            rows, harness.run_trajectories(params, 2, reps, 77))

    def test_rows_keyed_by_block(self):
        params = ModelParams.from_intensity(50, 1.0)
        size = harness.BLOCK_SIZE
        direct = run_block(params, 2, size, replicate_rng(77, 1), 10 ** 6)
        for reps in (2 * size, 2 * size + 10):
            stats = harness.run_trajectories(params, 2, reps, 77)
            np.testing.assert_array_equal(stats[size: 2 * size], direct)

    # sha256 of the int64 rows, first 16 hex digits, recorded when the
    # tail began to draw from state pools: a change that moves a draw
    # must say why; the last rows never draw in the tail
    @pytest.mark.parametrize("n,c,i0,reps,seed,max_steps,digest", [
        (50, 1.0, 2, 8232, 77, 10 ** 6, "aa11041f5e2c628a"),
        (30, 2.0, 1, 25, 1, 10 ** 6, "9bdb534a658a82b4"),
        (10 ** 4, 0.8, 1, 2000, 3, 10 ** 6, "c279533688af43e6"),
        (100, 5.0, 50, 200, 4, 3, "d3b2b15df444924c")])
    def test_rows_are_pinned(self, n, c, i0, reps, seed, max_steps, digest):
        stats = harness.run_trajectories(ModelParams.from_intensity(n, c),
                                         i0, reps, seed, max_steps=max_steps)
        assert stats.dtype == np.int64
        assert hashlib.sha256(stats.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("replicates, workers, named", [
        (0, 1, "replicates=0"), (-3, 1, "replicates=-3"),
        (10, 0, "workers=0"), (10, -2, "workers=-2")])
    def test_rejects_replicates_or_workers_below_one(
            self, replicates, workers, named, built):
        params = ModelParams.from_intensity(50, 1.0)
        with pytest.raises(ValueError, match=f"{named}$"):
            harness.run_trajectories(params, 2, replicates, 77,
                                     workers=workers)
        assert not built

    @pytest.mark.parametrize("max_steps", [0, -4])
    def test_rejects_max_steps_below_one(self, max_steps, built):
        # a row of T = 0 would break T >= 1
        params = ModelParams.from_intensity(50, 1.0)
        with pytest.raises(ValueError, match=f"max_steps={max_steps}$"):
            harness.run_trajectories(params, 2, 10, 77, max_steps=max_steps)
        assert not built

    def test_cap_truncates_every_row(self):
        params = ModelParams.from_intensity(100, 5.0)
        stats = harness.run_trajectories(params, 50, 200, 4, max_steps=3)
        assert (stats[:, 0] == 3).all()
        assert (stats[:, 3] == 1).all()
        # S and max run over x_0..x_3, all of them positive
        assert (stats[:, 2] >= 50).all()
        assert (stats[:, 1] >= stats[:, 2] + 3).all()

    @pytest.mark.parametrize("n,c,reps", [(30, 2.0, 40),       # pooled tail
                                          (50, 0.9, 20000)])   # lockstep
    def test_means_match_float_solves(self, n, c, reps):
        params = ModelParams.from_intensity(n, c)
        stats = harness.run_trajectories(params, 1, reps, 13)
        assert not stats[:, 3].any()
        for column, ref in ((0, expected_duration_float(params)[0]),
                            (1, expected_size_float(params)[0])):
            est = harness.Estimate.from_samples(stats[:, column])
            assert abs(est.point - ref) < 5 * est.stderr

    def test_size_pmf_normalized(self):
        params = ModelParams.from_intensity(50, 0.8)
        stats = harness.run_trajectories(params, 1, 500, 3)
        pmf = harness.mc_size_pmf(stats, 30)
        assert pmf.sum() == pytest.approx(1.0)

    def test_size_pmf_refuses_a_negative_j_max(self):
        params = ModelParams.from_intensity(50, 0.8)
        stats = harness.run_trajectories(params, 1, 50, 3)
        with pytest.raises(ValueError, match="j_max=-1"):
            harness.mc_size_pmf(stats, -1)
        # refused before the rows are read: all-truncated rows too
        with pytest.raises(ValueError, match="j_max=-1"):
            harness.mc_size_pmf(np.ones((3, 4), dtype=np.int64), -1)
        assert harness.mc_size_pmf(stats, 0).tolist() == [1.0]

    def test_size_pmf_refuses_rows_all_truncated(self):
        params = ModelParams.from_intensity(100, 5.0)
        stats = harness.run_trajectories(params, 50, 20, 4, max_steps=3)
        with pytest.raises(ValueError, match="no finished replicate"):
            harness.mc_size_pmf(stats, 30)

    def test_survival_and_reach_fractions(self):
        params = ModelParams.from_intensity(60, 1.0)
        stats = harness.run_trajectories(params, 1, 2000, 5, max_steps=3)
        surv = harness.Estimate.from_samples(stats[:, 0] > 2)
        ref = q_powers(build_q_float(params), np.ones(59), 2)[2][0]
        assert abs(surv.point - ref) < 4 * surv.stderr + 1e-9
        reach = harness.first_passage_fraction(params, 1, 5, 2000, 5)
        ref = harness.reach_probability_float(params, 5)[0]
        assert abs(reach.point - ref) < 4 * reach.stderr + 1e-9

    def test_reach_probability_float_stays_in_unit_interval(self):
        params = ModelParams.from_intensity(1000, 1.5)
        h = harness.reach_probability_float(params, 100)
        assert ((h >= 0) & (h <= 1)).all()

    def test_first_passage_counts_a_start_at_the_level(self):
        params = ModelParams.from_intensity(100, 0.5)
        for i0 in (3, 5):  # at and above the level
            est = harness.first_passage_fraction(params, i0, 3, 1000, 7)
            assert est.point == 1.0

    def test_first_passage_refuses_undecided_replicates(self):
        # level 99 is out of reach (h(2) = 2.5e-168), so a replicate is
        # undecided iff it lives past the cap: (Q^1000 1)(2) = 0.9556 over
        # states 1..98, or 955.6 +- 6.5 of 1000
        params = ModelParams.from_intensity(100, 2.0)
        with pytest.raises(ArithmeticError, match="963 replicates undecided "
                                                  "after 1000 steps"):
            harness.first_passage_fraction(params, 2, 99, 1000, 1)
        q = build_q_float(params, 98)[:, :98]
        alive = (np.linalg.matrix_power(q, 1000) @ np.ones(98))[1]
        assert abs(963 - 1000 * alive) < 5 * math.sqrt(1000 * alive
                                                       * (1 - alive))

    @pytest.mark.parametrize("level", [0, -5, 101])
    def test_first_passage_refuses_level_outside_range(self, level,
                                                       monkeypatch):
        params = ModelParams.from_intensity(100, 2.0)

        def no_draw(*args):
            raise AssertionError("the level must be refused before any draw")

        monkeypatch.setattr(harness, "run_occupation", no_draw)
        with pytest.raises(ValueError, match="level must lie in"):
            harness.first_passage_fraction(params, 2, level, 1000, 1)

    def test_first_passage_refuses_absorbed_start(self):
        params = ModelParams.from_intensity(100, 2.0)
        with pytest.raises(ValueError):
            harness.first_passage_fraction(params, 0, 5, 100, 0)

    def test_first_passage_matches_exact_reach(self):
        # supercritical case, where full-absorption simulation is not an
        # option because surviving paths settle into quasi-equilibrium
        params = ModelParams.from_intensity(200, 1.5)
        level = 40
        est = harness.first_passage_fraction(params, 2, level, 4000, 11)
        ref = harness.reach_probability_float(params, level)[1]
        assert abs(est.point - ref) < 4 * est.stderr + 1e-9


class TestScaledChain:
    def test_shape_and_lln(self):
        params = ModelParams.from_intensity(2000, 2.0)
        path = harness.simulate_scaled_chain(params, 200, 6, 400, 9)
        assert path.shape == (400, 7)
        from avalanche import meanfield as mf
        psi = mf.iterate_mean_field(params.alpha, 0.1, steps=6).psi
        # ensemble mean tracks the mean-field path at n = 2000
        assert np.max(np.abs(path.mean(axis=0) - psi)) < 0.02

    @pytest.mark.parametrize("x0_count, steps, named", [
        (-1, 3, "x0_count=-1"), (51, 3, "x0_count=51"), (5, -1, "steps=-1")])
    def test_rejects_bad_start_or_steps(self, x0_count, steps, named, built):
        params = ModelParams.from_intensity(50, 1.2)
        with pytest.raises(ValueError, match=named):
            harness.simulate_scaled_chain(params, x0_count, steps, 10, 4)
        # refused before any draw: no generator has left its start
        assert all(rng.random() == replicate_rng(*key).random()
                   for key, rng in built)

    @pytest.mark.parametrize("replicates", [0, -1])
    @pytest.mark.parametrize("sampler, args", [
        ("simulate_scaled_chain", (5, 3)), ("first_passage_fraction", (2, 10))])
    def test_rejects_replicates_below_one(self, sampler, args, replicates,
                                          built):
        params = ModelParams.from_intensity(50, 1.2)
        with pytest.raises(ValueError, match=f"replicates={replicates}$"):
            getattr(harness, sampler)(params, *args, replicates, 4)
        assert not built


class TestExactCommands:
    def test_cmd_exact_writes_csv(self, tmp_path):
        out = tmp_path / "exact.csv"
        config = harness.ExperimentConfig(n=12, c=0.9, digits=60,
                                          out=str(out))
        result = harness.cmd_exact(config)
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["i", "expected_duration", "expected_size"]
        assert len(rows) == 12  # header + 11 transient states
        ref = expected_duration_float(config.model())
        assert float(rows[1][1]) == pytest.approx(ref[0], rel=1e-10)
        assert len(result["expected_duration"]) == 11

    def test_cmd_simulate_summary(self, tmp_path):
        out = tmp_path / "sim.csv"
        config = harness.ExperimentConfig(n=40, c=0.9, replicates=200,
                                          out=str(out))
        summary = harness.cmd_simulate(config)
        assert summary["truncated"] == 0
        assert summary["duration"].point > 1.0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["replicate", "T", "S", "max", "truncated"]
        assert len(rows) == 1 + 200 + 4  # header, rows, summary lines

    def test_cmd_simulate_csv_bytes(self, tmp_path):
        out = tmp_path / "sim.csv"
        config = harness.ExperimentConfig(n=40, c=0.9, replicates=300,
                                          max_steps=3, out=str(out))
        summary = harness.cmd_simulate(config)
        assert summary["truncated"] > 0
        stats = harness.run_trajectories(config.model(), 1, 300,
                                         config.master_seed, max_steps=3)
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["replicate", "T", "S", "max", "truncated"])
        writer.writerows([r, *map(int, stats[r])] for r in range(300))
        for name in ("duration", "size", "max"):
            est = summary[name]
            writer.writerow([f"summary_{name}", est.point, est.stderr,
                             est.replicates, ""])
        writer.writerow(["summary_truncated", summary["truncated"], "", "",
                         ""])
        assert out.read_bytes() == ref.getvalue().encode()


class TestFigure:
    def test_curves_and_shape_checks(self):
        curves = harness.figure_curves(40, (0.8, 1.3), 20, digits=60)
        assert set(curves) == {0.8, 1.3}
        assert len(curves[0.8]) == 20
        assert not harness.check_figure_shape(curves)

    def test_shape_check_flags_bad_curves(self):
        bad = {0.8: [5.0, 4.0, 3.0, 2.0, 1.0, 1.0],
               1.3: [1.0, 9.0, 1.0, 9.0, 1.0, 9.0]}
        assert harness.check_figure_shape(bad)

    def test_i0_max_clamped(self):
        curves = harness.figure_curves(10, (1.0,), 50, digits=60)
        assert len(curves[1.0]) == 9


class TestCampaign:
    def test_small_campaign_has_no_violations(self):
        reports = harness.verify_campaign(n_grid=(40,), c_grid=(0.8, 1.0),
                                          i0_grid=(1,))
        assert reports
        assert all(r.satisfied != bc.VIOLATED for r in reports)
        names = {r.name for r in reports}
        assert "agresti_sandwich" in names
        assert "supermartingale_drift" in names
        assert "mean_decay" in names

    def test_default_campaign_counts(self):
        reports = harness.verify_campaign()
        verdicts = [r.satisfied for r in reports]
        assert len(reports) == 341
        assert verdicts.count(bc.HOLDS) == 318
        assert verdicts.count(bc.INCONCLUSIVE) == 23
        assert verdicts.count(bc.VIOLATED) == 0

    def test_each_report_is_judged_once(self, monkeypatch):
        calls = []
        judge = bc.BoundReport.judge

        def counted(self):
            calls.append(self.name)
            return judge(self)

        monkeypatch.setattr(bc.BoundReport, "judge", counted)
        reports = harness.verify_campaign(n_grid=(30,), c_grid=(0.8, 1.0),
                                          i0_grid=(1, 2))
        assert sorted(calls) == sorted(r.name for r in reports)

    def test_q_derivations_match_row_loop(self):
        n, c = 30, 1.1
        params = ModelParams.from_intensity(n, c)
        rows = np.array([kernel_row(params, i) for i in range(n + 1)])
        j = np.arange(n + 1, dtype=float)
        v = j  # E(X_k | X_0 = i) over i = 0..n, one row product per step
        for k in range(6):
            for i0 in range(n + 1):
                assert harness.kernel_power_mean(params, i0, k) \
                    == pytest.approx(v[i0], rel=1e-12, abs=1e-12)
            v = np.array([row @ v for row in rows])
        worst_mean = max(rows[i] @ j - c * i for i in range(1, n))
        worst_het = max(rows[i] @ (j * (n - j)) - c * i * (n - i)
                        for i in range(1, n))
        drift = harness._drift_reports(params, build_q_float(params))
        assert [r.reference_value for r in drift] == pytest.approx(
            [worst_mean, worst_het], rel=1e-12, abs=1e-12)

    def test_kernel_power_mean_one_step(self):
        params = ModelParams.from_intensity(30, 1.1)
        j = np.arange(31, dtype=float)
        for i0 in (1, 4):
            ref = float(kernel_row(params, i0) @ j)
            assert harness.kernel_power_mean(params, i0, 1) \
                == pytest.approx(ref)

    def test_drift_reports_hold(self):
        params = ModelParams.from_intensity(60, 1.7)
        reports = harness._drift_reports(params, build_q_float(params))
        assert all(r.satisfied == bc.HOLDS for r in reports)


class TestDeterministicAndCouple:
    def test_cmd_deterministic_supercritical(self):
        config = harness.ExperimentConfig(n=100, i0=10, lam=2.0)
        out = harness.cmd_deterministic(config)
        assert out["limit"] == pytest.approx(mf.fixed_point_zeta(2.0))
        assert "stability" in out
        assert out["rows"][0][1] == pytest.approx(0.1)

    def test_cmd_deterministic_subcritical(self):
        config = harness.ExperimentConfig(n=100, i0=5, lam=0.7)
        out = harness.cmd_deterministic(config)
        assert out["limit"] == 0.0
        assert "stability" not in out

    def test_cmd_deterministic_without_excited_node(self):
        # psi0 = 0 is a fixed point of the mean-field map
        config = harness.ExperimentConfig(n=100, i0=0, lam=1.5)
        out = harness.cmd_deterministic(config)
        assert out["limit"] == 0.0
        assert all(row[1] == 0.0 and row[2] == 0.0 for row in out["rows"])

    @staticmethod
    def _reference_rows(lam, psi0):
        # reference: the variances from a second iteration of the path
        # (the fluctuation model), every entry read one index at a time
        path = mf.iterate_mean_field(lam, psi0)
        model = mf.FluctuationModel.from_initial(lam, psi0,
                                                 len(path.psi) - 1)
        return [[k, path.psi[k], path.phi[k], path.branching_factor[k],
                 model.variances[k]] for k in range(len(path.psi))]

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.8, 40.0])
    @pytest.mark.parametrize("n, i0", [(100, 1), (100, 10), (100, 0)])
    def test_cmd_deterministic_rows_match_reference(self, lam, n, i0):
        config = harness.ExperimentConfig(n=n, i0=i0, lam=lam)
        rows = harness.cmd_deterministic(config)["rows"]
        ref = self._reference_rows(lam, i0 / n)
        assert len(rows) == len(ref)
        assert all(len(row) == 5 and type(row[0]) is int for row in rows)
        assert all(a == b for row, want in zip(rows, ref)
                   for a, b in zip(row, want))

    def test_cmd_deterministic_csv_matches_reference(self, tmp_path):
        # lam = 1 never meets the stopping test: 1e5 + 1 rows
        out, ref = tmp_path / "table.csv", tmp_path / "ref.csv"
        assert main(["deterministic", "--n", "100", "--i0", "1",
                     "--lambda", "1", "--out", str(out)]) == 0
        harness.write_csv(str(ref), ["k", "psi", "phi", "branching_factor",
                                     "innovation_variance"],
                          self._reference_rows(1.0, 0.01))
        assert out.read_bytes() == ref.read_bytes()
        assert len(out.read_text().splitlines()) == 2 + 10 ** 5

    def test_cmd_couple_reports(self):
        config = harness.ExperimentConfig(n=60, c=0.9, i0=2,
                                          replicates=300, master_seed=5)
        out = harness.cmd_couple(config)
        assert out["dominance_violations"] == 0
        assert out["size_z"].point >= out["size_x"].point
        assert out["divergence_tv"] <= out["divergence_envelope"] + 1e-12
        # the exact TV is reported once, with no sampled re-estimate
        assert "divergence_rate" not in out
        assert out["coupling_c"] == 0.9

    def test_cmd_couple_sizes_skip_truncated_paths(self):
        # above criticality the size estimates average only the paths
        # whose Z died out; the rest are counted as truncated
        config = harness.ExperimentConfig(n=60, c=1.3, i0=2,
                                          replicates=100, master_seed=5)
        out = harness.cmd_couple(config)
        assert 0 < out["truncated"] < config.replicates
        for key in ("size_x", "size_z"):
            assert out[key].replicates + out["truncated"] \
                == config.replicates

    def test_cmd_couple_above_admissible_intensity(self):
        # n*p = 2 is not an admissible coupling constant at n = 100, so
        # the campaign falls back to -n*log(1-p)
        config = harness.ExperimentConfig(n=100, c=2.0, i0=2, replicates=3)
        out = harness.cmd_couple(config)
        assert out["coupling_c"] == config.model().alpha
        assert out["dominance_violations"] == 0


class TestCli:
    def test_simulate_json(self, capsys):
        code = main(["simulate", "--n", "30", "--c", "0.9",
                     "--reps", "50", "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["truncated"] == 0
        assert payload["duration"]["replicates"] == 50

    @pytest.mark.parametrize("argv, keys, names", [
        (["couple", "--n", "100", "--c", "1.9", "--i0", "2", "--reps", "3"],
         "", ("size_x", "size_z")),
        (["simulate", "--n", "100", "--c", "5", "--i0", "50", "--reps", "5"],
         "max_steps = 3\n", ("duration", "size", "max"))],
        ids=["couple", "simulate"])
    def test_no_finished_replicate_reports_null(self, argv, keys, names,
                                                tmp_path, capsys):
        # every coupled path passes z_cap; every trajectory hits max_steps
        cfg = tmp_path / "run.ini"
        cfg.write_text("[experiment]\n" + keys)
        assert main([*argv, "--config", str(cfg)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["truncated"] == int(argv[-1])
        assert all(payload[name] is None for name in names)

    def test_simulate_csv_without_finished_replicate(self, tmp_path):
        out = tmp_path / "sim.csv"
        config = harness.ExperimentConfig(n=100, c=5.0, i0=50, replicates=5,
                                          max_steps=3, out=str(out))
        harness.cmd_simulate(config)
        rows = list(csv.reader(out.open()))
        assert rows[-4] == ["summary_duration", "", "", "0", ""]
        assert rows[-1] == ["summary_truncated", "5", "", "", ""]

    @pytest.mark.parametrize("command", ["exact", "figure"])
    @pytest.mark.parametrize("in_file", [False, True])
    def test_refuses_too_few_digits(self, command, in_file, tmp_path,
                                    capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[experiment]\ndigits = 40\n")
        with pytest.raises(SystemExit) as exc:
            main([command, *(["--config", str(cfg)] if in_file
                             else ["--digits", "40"])])
        assert exc.value.code == 2
        assert "need at least 50 digits, got 40" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--c", "1.0", "--i0", "0"],
        ["simulate", "--c", "1.0", "--i0", "200"],
        ["couple", "--c", "1.0", "--i0", "0"],
        ["couple", "--c", "1.0", "--i0", "100"],
        ["deterministic", "--i0", "101"]])
    def test_refuses_i0_outside_range(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--n", "100"])
        assert exc.value.code == 2
        assert f"i0={argv[-1]} outside" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, reason", [
        (["simulate", "--n", "2", "--c", "0.5"], "need n >= 3, got n=2"),
        (["couple", "--n", "100", "--c", "0", "--i0", "2"],
         "need 0 < p < 1, got p=0.0"),
        (["exact", "--n", "100", "--c", "150"], "need 0 < p < 1, got p=1.5"),
        (["exact", "--n", "2500", "--c", "1.0", "--digits", "50"],
         "exact solves are capped at n=2000, got 2500"),
        (["figure", "--n", "2"], "need n >= 3, got n=2"),
        (["simulate", "--n", "100"], "one of p or c must be set")],
        ids=["n_below_3", "p_zero", "p_above_1", "n_above_exact_cap",
             "figure_n_below_3", "no_intensity"])
    def test_refuses_bad_model_parameters(self, argv, reason, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"{argv[0]}: {reason}" in capsys.readouterr().err

    def test_refuses_max_steps_below_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[experiment]\nmax_steps = 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--c", "0.8", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "need max_steps >= 1, got 0" in capsys.readouterr().err

    def test_deterministic_from_zero_prints_limit_zero(self, capsys):
        code = main(["deterministic", "--n", "100", "--i0", "0",
                     "--lambda", "1.5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["limit"] == 0.0

    def test_exact_prints_rows(self, capsys):
        code = main(["exact", "--n", "8", "--c", "1.0", "--digits", "60"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("1,")

    def test_deterministic_json(self, capsys):
        code = main(["deterministic", "--n", "50", "--i0", "5",
                     "--lambda", "1.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "stability" in payload

    @pytest.mark.parametrize("lam", ["40", "100"])
    def test_deterministic_at_large_intensity(self, lam, capsys):
        code = main(["deterministic", "--lambda", lam])
        assert code == 0
        gamma = json.loads(capsys.readouterr().out)["stability"]["gamma"]
        assert math.isfinite(gamma) and gamma > 0.0

    @pytest.mark.parametrize("lam", ["400", "1000"])
    def test_deterministic_refuses_lambda_whose_gamma_overflows(self, lam,
                                                                capsys):
        with pytest.raises(SystemExit) as exc:
            main(["deterministic", "--lambda", lam])
        assert exc.value.code == 2
        assert "deterministic: requires lam <= 355.931077" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("given, reason", [
        ({"n": 0, "i0": 0, "lam": 1.5}, "need n >= 1, got n=0"),
        ({"n": -4, "i0": -2, "lam": 1.5}, "need n >= 1, got n=-4"),
        ({"n": 100, "i0": 1, "lam": -1}, "need lambda > 0, got lambda=-1.0"),
        ({"n": 100, "i0": 1, "lam": 0}, "need lambda > 0, got lambda=0.0")],
        ids=["n_zero", "n_negative", "lambda_negative", "lambda_zero"])
    @pytest.mark.parametrize("in_file", [False, True], ids=["flag", "file"])
    def test_deterministic_refuses_bad_inputs(self, given, reason, in_file,
                                              tmp_path, capsys):
        # psi0 = i0/n needs n >= 1; at lam = -1 the path would alternate
        # in sign and the innovation variances would be negative
        out = tmp_path / "table.csv"
        if in_file:
            cfg = tmp_path / "run.ini"
            cfg.write_text("[experiment]\n" + "".join(
                f"{key} = {text}\n" for key, text in given.items()))
            argv = ["--config", str(cfg)]
        else:
            argv = [f"{harness.SETTINGS[key][0]}={text}"
                    for key, text in given.items()]
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["deterministic", *argv, "--out", str(out)])
        assert time.perf_counter() - start < 1.0   # before any work
        assert exc.value.code == 2
        assert f"deterministic: {reason}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_help_exits_zero(self, command, capsys):
        # an empty p/c group used to end verify, figure and deterministic
        # --help in "ValueError: empty group"
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert f"usage: avalanche {command}" in capsys.readouterr().out

    def test_couple_json(self, capsys):
        code = main(["couple", "--n", "40", "--c", "0.8", "--i0", "1",
                     "--reps", "100", "--seed", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dominance_violations"] == 0

    def test_verify_bundle(self, tmp_path, capsys):
        out = tmp_path / "reports.json"
        code = main(["verify", "--out", str(out)])
        assert code == 0
        counts = {"holds": 318, "violated": 0, "inconclusive": 23}
        assert json.loads(capsys.readouterr().out) == counts
        bundle = json.loads(out.read_text())
        assert bundle["schema_version"] == harness.SCHEMA_VERSION
        assert bundle["counts"] == counts
        assert len(bundle["reports"]) == 341
        assert [r["satisfied"] for r in bundle["reports"]].count(
            "holds") == 318

    def test_figure_csv(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        code = main(["figure", "--n", "60", "--digits", "60",
                     "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["c", "i0", "expected_duration"]

    def test_config_file_flow(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[experiment]\nn = 30\nc = 0.9\nreplicates = 20\n")
        code = main(["simulate", "--config", str(cfg), "--seed", "1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["duration"]["replicates"] == 20

    def test_p_runs_as_its_intensity(self, tmp_path, capsys):
        # 0.02 * 50 == 1.0, so --p, --c and a file's p build one chain
        cfg = tmp_path / "run.ini"
        cfg.write_text("[experiment]\np = 0.02\n")
        outputs = []
        for model in (["--p", "0.02"], ["--c", "1.0"], ["--config", str(cfg)]):
            assert main(["simulate", "--n", "50", *model, "--reps", "20",
                         "--seed", "1"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_rejects_p_and_c(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--p", "0.1", "--c", "1.0"])

    @pytest.mark.parametrize("argv", [
        ["figure", "--c", "2.0"], ["deterministic", "--c", "1.8"],
        ["verify", "--n", "50"], ["couple", "--workers", "2"],
        ["exact", "--reps", "5"], ["couple", "--out", "x.json"],
        ["simulate", "--rep", "5"]])
    def test_refuses_unread_flags(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["reps = 10", "seed = 42", "bogus = 1",
                                      "digits = 60"])
    def test_refuses_unread_file_keys(self, line, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[experiment]\nn = 30\nc = 0.9\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert repr(line.split()[0]) in err
        assert "accepted keys: n, p, c, i0, replicates" in err

    def test_refuses_other_sections(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[Experiment]\nn = 30\nc = 0.9\n")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "[experiment]" in capsys.readouterr().err

    def test_refuses_bad_file_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[experiment]\nn = many\n")
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "'n'" in capsys.readouterr().err

    def test_accepted_settings_are_the_ones_read(self, tmp_path):
        # each cmd_* must read exactly the settings its subcommand accepts
        class Reads:
            def __init__(self, config):
                self.config, self.names = config, set()

            def __getattr__(self, name):
                self.names |= {"n", "p", "c"} if name == "model" else {name}
                return getattr(self.config, name)

        out = str(tmp_path / "out")
        configs = {
            "simulate": dict(n=20, c=0.9, replicates=5),
            "exact": dict(n=8, c=1.0, digits=50),
            "figure": dict(n=20, digits=50, c_list=(0.9, 1.3), i0_max=5),
            "verify": {},
            "deterministic": dict(n=50, i0=5, lam=1.5),
            "couple": dict(n=20, c=0.8, replicates=5),
        }
        assert set(configs) == set(COMMANDS)
        for name, kwargs in configs.items():
            reads = Reads(harness.ExperimentConfig(out=out, **kwargs))
            try:
                getattr(harness, f"cmd_{name}")(reads)
            except AssertionError:  # a failed figure shape check
                pass
            assert reads.names == set(COMMANDS[name][1]), name

    @pytest.mark.parametrize("lines, reason", [
        ("i0_max = 1", "i0_max=1, capped at n-1=99, is below 3"),
        ("i0_max = 2", "i0_max=2, capped at n-1=99, is below 3"),
        ("c_list = 1.2", "c_list (1.2,) needs two distinct intensities"),
        ("c_list = 1.2,1.2",
         "c_list (1.2, 1.2) needs two distinct intensities")])
    def test_figure_refuses_inputs_its_check_cannot_judge(
            self, lines, reason, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[experiment]\n{lines}\n")
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["figure", "--n", "100", "--digits", "50",
                  "--config", str(cfg)])
        assert time.perf_counter() - start < 1.0   # before any solve
        assert exc.value.code == 2
        assert f"figure: {reason}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "50", "--c", "0.5"],
        ["exact", "--n", "40", "--c", "1.0", "--digits", "50"],
        ["figure", "--n", "30", "--digits", "50"],
        ["verify"],
        ["deterministic", "--n", "50", "--i0", "5"]],
        ids=lambda argv: argv[0])
    @pytest.mark.parametrize("missing", [True, False],
                             ids=["missing_dir", "dir"])
    def test_refuses_out_it_cannot_write(self, argv, missing, tmp_path,
                                         capsys):
        out = tmp_path / "gone" / "x.csv" if missing else tmp_path
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert time.perf_counter() - start < 1.0   # before any work
        assert exc.value.code == 2
        reason = (f": no directory {out.parent}" if missing
                  else " is a directory")
        assert f"{argv[0]}: --out {out}{reason}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, reason", [
        # each refuses at 50 digits and again at 100
        ("exact --n 100 --c 99", "residual above tolerance even after "
         "raising precision to 100 digits"),
        ("exact --n 100 --c 8", "residual above tolerance even after "
         "raising precision to 100 digits"),
        ("exact --n 40 --c 16", "residual above tolerance even after "
         "raising precision to 100 digits"),
        ("figure --n 40", "residual above tolerance even after "
         "raising precision to 100 digits"),
        ("exact --n 30 --c 14", "residual above tolerance even after "
         "raising precision to 100 digits")],
        ids=["c99", "c8", "c16", "figure", "residual"])
    def test_exact_tier_refusal_is_one_line(self, argv, reason, tmp_path):
        # a fresh interpreter, so an escaping exception would show its
        # traceback on stderr
        cfg = tmp_path / "run.ini"
        cfg.write_text("[experiment]\nc_list = 0.9,1.3,16\n")
        argv = [*argv.split(), "--digits", "50"]
        if argv[0] == "figure":
            argv += ["--config", str(cfg)]
        src = str(Path(avalanche.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "avalanche.cli", *argv],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 1
        assert run.stdout == ""
        [line] = run.stderr.splitlines()
        assert line.startswith(f"avalanche: {argv[0]}: {reason}")

    def test_arithmetic_error_subclasses_still_raise(self, monkeypatch):
        # ZeroDivisionError and OverflowError signal bugs, not refusals
        def broken(config):
            raise ZeroDivisionError("a bug")

        monkeypatch.setattr(harness, "cmd_exact", broken)
        with pytest.raises(ZeroDivisionError):
            main(["exact", "--n", "20", "--c", "0.5", "--digits", "50"])

    def test_figure_shape_failure_exits_1(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        code = main(["figure", "--n", "30", "--digits", "50",
                     "--out", str(out)])
        assert code == 1
        assert "flattening failed" in capsys.readouterr().err
        assert len(list(csv.reader(out.open()))) == 1 + 4 * 29


def test_readme_cli_examples(tmp_path):
    text = (Path(__file__).parents[1] / "README.md").read_text()
    cli_block = text.split("## CLI")[1].split("```")[1]
    lines = [shlex.split(line, comments=True)
             for line in cli_block.splitlines() if line.strip()]
    assert [argv[:2] for argv in lines] == [["avalanche", name]
                                            for name in COMMANDS]
    for argv in lines:
        build_parser().parse_args(argv[1:])
    ini = text.split("```ini")[1].split("```")[0]
    cfg = tmp_path / "readme.ini"
    cfg.write_text(ini)
    config = config_from_args(
        build_parser().parse_args(["simulate", "--config", str(cfg)]))
    keys = dict(line.split(" = ") for line in ini.strip().splitlines()[1:])
    assert keys
    for key, text in keys.items():
        assert getattr(config, key) == harness.SETTINGS[key][1](text)


def test_cli_runs_without_scipy():
    # a fresh interpreter: the import, a table whose stability interval
    # solves with brentq, a simulation and the refined exact solves of
    # exact and figure load no scipy module
    code = """
import sys
from avalanche.cli import main
main(["deterministic", "--lambda", "1.8", "--n", "100", "--i0", "5"])
main(["simulate", "--n", "100", "--c", "0.8", "--reps", "50", "--seed", "1"])
main(["exact", "--n", "40", "--c", "1.0", "--digits", "60"])
main(["figure", "--n", "60", "--digits", "60"])
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""
    src = str(Path(avalanche.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert '"stability"' in lines[0] and '"duration"' in lines[1]
    assert lines[2].startswith("1,4.35") and lines[11].startswith("10,")
    assert [line[:6] for line in lines[12:16]] == [
        "c=0.9:", "c=1.0:", "c=1.1:", "c=1.3:"]
    assert lines[-1] == "[]"
