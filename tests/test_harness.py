"""Harness, campaign, and CLI tests."""

import csv
import json
import math

import numpy as np
import pytest

from avalanche import bounds as bc
from avalanche import harness
from avalanche.cli import main
from avalanche.exact import expected_duration_float, expected_size_float
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
        est = harness.EstimateWithCI.from_samples(np.array([0.0, 1.0,
                                                            1.0, 0.0]))
        assert est.point == 0.5
        assert est.replicates == 4
        lo, hi = est.interval()
        assert lo < 0.5 < hi


class TestTrajectories:
    def test_worker_count_does_not_change_results(self):
        params = ModelParams.from_intensity(50, 1.0)
        reps = 2 * harness.BLOCK_SIZE + 40  # two full blocks and a partial
        a = harness.run_trajectories(params, 2, reps, 77, workers=1)
        for workers in (2, 3):
            b = harness.run_trajectories(params, 2, reps, 77, workers=workers)
            np.testing.assert_array_equal(a, b)

    def test_rows_keyed_by_block(self):
        params = ModelParams.from_intensity(50, 1.0)
        size = harness.BLOCK_SIZE
        direct = run_block(params, 2, size, replicate_rng(77, 1), 10 ** 6)
        for reps in (2 * size, 2 * size + 10):
            stats = harness.run_trajectories(params, 2, reps, 77)
            np.testing.assert_array_equal(stats[size: 2 * size], direct)

    def test_cap_truncates_every_row(self):
        params = ModelParams.from_intensity(100, 5.0)
        stats = harness.run_trajectories(params, 50, 200, 4, max_steps=3)
        assert (stats[:, 0] == 3).all()
        assert (stats[:, 3] == 1).all()
        # S and max run over x_0..x_3, all of them positive
        assert (stats[:, 2] >= 50).all()
        assert (stats[:, 1] >= stats[:, 2] + 3).all()

    @pytest.mark.parametrize("n,c,reps", [(30, 2.0, 40),       # scalar tail
                                          (50, 0.9, 20000)])   # lockstep
    def test_means_match_float_solves(self, n, c, reps):
        params = ModelParams.from_intensity(n, c)
        stats = harness.run_trajectories(params, 1, reps, 13)
        assert not stats[:, 3].any()
        for column, ref in ((0, expected_duration_float(params)[0]),
                            (1, expected_size_float(params)[0])):
            est = harness.EstimateWithCI.from_samples(stats[:, column])
            assert abs(est.point - ref) < 5 * est.stderr

    def test_size_pmf_normalized(self):
        params = ModelParams.from_intensity(50, 0.8)
        stats = harness.run_trajectories(params, 1, 500, 3)
        pmf = harness.mc_size_pmf(stats, 30)
        assert pmf.sum() == pytest.approx(1.0)

    def test_survival_and_reach_fractions(self):
        params = ModelParams.from_intensity(60, 1.0)
        surv = harness.survival_fraction(params, 1, 2000, 5, m=2)
        ref = harness._float_survival(params, 2)[2][0]
        assert abs(surv.point - ref) < 4 * surv.stderr + 1e-9
        reach = harness.reach_fraction(params, 1, 5, 2000, 5)
        ref = harness.reach_probability_float(params, 5)[0]
        assert abs(reach.point - ref) < 4 * reach.stderr + 1e-9

    def test_reach_probability_float_stays_in_unit_interval(self):
        params = ModelParams.from_intensity(1000, 1.5)
        h = harness.reach_probability_float(params, 100)
        assert ((h >= 0) & (h <= 1)).all()

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


class TestFigure:
    def test_curves_and_shape_checks(self):
        curves = harness.figure_curves(40, (0.8, 1.3), 20, digits=60)
        assert set(curves) == {0.8, 1.3}
        assert len(curves[0.8]) == 20
        assert not harness.check_figure_shape(curves, 40)

    def test_shape_check_flags_bad_curves(self):
        bad = {0.8: [5.0, 4.0, 3.0, 2.0, 1.0, 1.0],
               1.3: [1.0, 9.0, 1.0, 9.0, 1.0, 9.0]}
        assert harness.check_figure_shape(bad, 40)

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

    def test_kernel_power_mean_one_step(self):
        params = ModelParams.from_intensity(30, 1.1)
        j = np.arange(31, dtype=float)
        for i0 in (1, 4):
            ref = float(kernel_row(params, i0) @ j)
            assert harness.kernel_power_mean(params, i0, 1) \
                == pytest.approx(ref)

    def test_drift_reports_hold(self):
        reports = harness._drift_reports(ModelParams.from_intensity(60, 1.7))
        assert all(r.satisfied == bc.HOLDS for r in reports)


class TestDeterministicAndCouple:
    def test_cmd_deterministic_supercritical(self):
        config = harness.ExperimentConfig(n=100, i0=10, lam=2.0)
        out = harness.cmd_deterministic(config)
        from avalanche import meanfield as mf
        assert out["limit"] == pytest.approx(mf.fixed_point_zeta(2.0))
        assert "stability" in out
        assert out["rows"][0][1] == pytest.approx(0.1)

    def test_cmd_deterministic_subcritical(self):
        config = harness.ExperimentConfig(n=100, i0=5, lam=0.7)
        out = harness.cmd_deterministic(config)
        assert out["limit"] == 0.0
        assert "stability" not in out

    def test_cmd_couple_reports(self):
        config = harness.ExperimentConfig(n=60, c=0.9, i0=2,
                                          replicates=300, master_seed=5)
        out = harness.cmd_couple(config)
        assert out["dominance_violations"] == 0
        assert out["size_z"].point >= out["size_x"].point
        assert out["divergence_tv"] <= out["divergence_envelope"] + 1e-12
        assert abs(out["divergence_rate"].point - out["divergence_tv"]) \
            < 5 * out["divergence_rate"].stderr + 1e-3


class TestCli:
    def test_simulate_json(self, capsys):
        code = main(["simulate", "--n", "30", "--c", "0.9",
                     "--reps", "50", "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["truncated"] == 0
        assert payload["duration"]["replicates"] == 50

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

    def test_couple_json(self, capsys):
        code = main(["couple", "--n", "40", "--c", "0.8", "--i0", "1",
                     "--reps", "100", "--seed", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["dominance_violations"] == 0

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

    def test_rejects_p_and_c(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--p", "0.1", "--c", "1.0"])
