import dataclasses
import json

import numpy as np
import pytest

import output_digest
from recurjoint.cli import main
from recurjoint.io import (
    load_config,
    load_dataset,
    parse_config,
    read_chain_trace,
    read_json,
    write_chain_trace,
    write_dataset,
)
from recurjoint.model import BASELINE_VARIANTS, VARIANTS, Hyperparams
from recurjoint.sampler import McmcConfig, run_chain
from recurjoint.simulate import simulate_dataset
from recurjoint.study import build_summary, fit_manifest, run_replicate_study
from conftest import make_dataset, make_record


class TestEventsFile:
    def test_round_trip_bit_exact(self, tmp_path):
        dataset, _ = simulate_dataset(60, 4, seed=14)
        path = tmp_path / "events.csv"
        write_dataset(dataset, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(dataset)
        assert loaded.num_clusters == dataset.num_clusters
        for column in ("cluster_index", "participant_index", "followup_time", "event_indicator",
                       "event_times", "event_offsets", "covariates_x", "covariates_z",
                       "covariates_u"):
            assert np.array_equal(getattr(loaded, column), getattr(dataset, column)), column
        for a, b in zip(dataset.records, loaded.records):
            assert a.cluster_index == b.cluster_index
            assert a.participant_index == b.participant_index
            assert a.followup_time == b.followup_time
            assert a.event_indicator == b.event_indicator
            assert np.array_equal(a.recurrent_times, b.recurrent_times)
            assert np.array_equal(a.covariates_x, b.covariates_x)
            assert np.array_equal(a.covariates_z, b.covariates_z)
            assert np.array_equal(a.covariates_u, b.covariates_u)

    def test_well_formed_three_rows(self, tmp_path):
        records = tuple(make_record(participant=i, times=(0.25, 0.5)) for i in range(3))
        path = tmp_path / "e.csv"
        write_dataset(make_dataset(records, 1), path)
        assert len(load_dataset(path)) == 3

    def test_zero_events_and_no_covariates_round_trip(self, tmp_path):
        path = tmp_path / "e.csv"
        text = ("cluster_id,participant_id,followup_time,event_indicator,event_times\n"
                "5,0,1.5,1,\n5,1,2,0,0.5;1.25\n7,0,0.75,0,\n")
        path.write_text(text)
        loaded = load_dataset(path)
        assert (loaded.dim_x, loaded.dim_z, loaded.dim_u) == (0, 0, 0)
        assert loaded.covariates_x.shape == (3, 0)
        assert loaded.event_offsets.tolist() == [0, 0, 2, 2]
        assert loaded.cluster_index.tolist() == [0, 0, 1] and loaded.num_clusters == 2
        assert loaded.records[0].num_events == 0
        write_dataset(loaded, tmp_path / "back.csv")
        assert load_dataset(tmp_path / "back.csv").event_times.tolist() == [0.5, 1.25]

    @pytest.mark.parametrize("rows, match", [
        ("a,0,1.0,0,\n", r"row 2, column 1 \(cluster_id\): not a 64-bit integer: 'a'"),
        ("0,0,1.0,0,\n0,1.5,1.0,0,\n", r"row 3, column 2 \(participant_id\): not a 64-bit"),
        ("0,0,1.0,0,\n9223372036854775808,0,1.0,0,\n", r"row 3, column 1 \(cluster_id\)"),
        ("0,0,1.0,0,\n0,1,nan,0,\n", r"row 3, column 3 \(followup_time\): must be finite"),
        ("0,0,inf,0,\n", r"row 2, column 3 \(followup_time\): must be finite"),
        ("0,9,1.0,0,0.5\n0,1,1.0,0,0.25;nan\n",
         r"row 3, column 5 \(event_times\): times must be finite"),
        ("0,0,1.0,0,0.5;x\n", r"row 2, column 5 \(event_times\): not a number: 'x'"),
    ])
    def test_bad_cell_names_row_and_column(self, tmp_path, rows, match):
        path = tmp_path / "e.csv"
        path.write_text("cluster_id,participant_id,followup_time,event_indicator,event_times\n"
                        + rows)
        with pytest.raises(ValueError, match=match):
            load_dataset(path)

    def test_event_beyond_followup_names_row(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(
            "cluster_id,participant_id,followup_time,event_indicator,event_times\n"
            "0,0,1.0,0,0.5\n"
            "0,1,1.0,0,0.5;1.5\n")
        with pytest.raises(ValueError, match="row 3"):
            load_dataset(path)

    def test_unsorted_times_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(
            "cluster_id,participant_id,followup_time,event_indicator,event_times\n"
            "0,0,1.0,0,0.5;0.25\n")
        with pytest.raises(ValueError, match="strictly increasing"):
            load_dataset(path)

    def test_bad_indicator_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(
            "cluster_id,participant_id,followup_time,event_indicator,event_times\n"
            "0,0,1.0,2,\n")
        with pytest.raises(ValueError, match="event_indicator"):
            load_dataset(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(
            "cluster_id,participant_id,followup_time,event_indicator,event_times\n"
            "0,0,1.0,0,\n0,0,2.0,1,\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_dataset(path)

    def test_missing_covariate_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(
            "cluster_id,participant_id,followup_time,event_indicator,event_times,x_1\n"
            "0,0,1.0,0,\n")
        with pytest.raises(ValueError, match="columns"):
            load_dataset(path)


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        dataset, _ = simulate_dataset(30, 3, seed=5)
        config = McmcConfig(iterations=40, burn_in=20, seed=3, adapt_window=10)
        trace = run_chain(dataset, config, Hyperparams(), chain_index=1)
        write_chain_trace(trace, tmp_path / "chain01")
        manifest = json.loads(json.dumps(fit_manifest([trace, trace], config, Hyperparams())))
        back = read_chain_trace(tmp_path / "chain01", manifest, 1)
        assert back.columns == trace.columns
        assert np.array_equal(back.draws, trace.draws)
        assert np.array_equal(back.total_loglik, trace.total_loglik)
        assert np.array_equal(back.neg_loglik_lse, trace.neg_loglik_lse)
        assert back.neg_loglik_lse.shape == (30,)
        assert back.acceptance == trace.acceptance
        assert back.final_scales == trace.final_scales
        assert np.array_equal(back.grid, trace.grid)
        assert back.chain_index == 1

    def test_summary_rejects_columns_unlike_the_manifest(self, tmp_path):
        dataset, _ = simulate_dataset(30, 3, seed=5)
        config = McmcConfig(iterations=20, burn_in=10, seed=3, adapt_window=10)
        trace = run_chain(dataset, config, Hyperparams())
        manifest = fit_manifest([trace], config, Hyperparams())
        manifest["columns"] = manifest["columns"][::-1]
        with pytest.raises(ValueError, match="chain 0: trace columns differ"):
            build_summary([trace], manifest)

    def test_summary_rejects_chains_of_unequal_length(self):
        dataset, _ = simulate_dataset(30, 3, seed=5)
        config = McmcConfig(iterations=20, burn_in=10, seed=3, adapt_window=10, chains=2)
        trace = run_chain(dataset, config, Hyperparams())
        traces = [dataclasses.replace(trace, neg_loglik_lse=np.zeros(5)),
                  dataclasses.replace(trace, neg_loglik_lse=np.zeros(6), chain_index=1)]
        manifest = fit_manifest(traces, config, Hyperparams())
        with pytest.raises(ValueError, match="chain 1: 6 per-participant CPO sums, "
                                             "but chain 0 has 5"):
            build_summary(traces, manifest)


class TestConfigDocuments:
    def test_parse_round_trip(self, tmp_path):
        doc = {"model": {"variant": "BMZ", "baseline_variant": "powerlaw",
                         "fixed_p": 0.5},
               "hyper": {"a0": 2.0, "b0": 1.5},
               "mcmc": {"iterations": 100, "burn_in": 50, "seed": 7}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        config, hyper, scales = load_config(path)
        assert config.variant == "BMZ"
        assert config.baseline_variant == "powerlaw"
        assert hyper.fixed_p == 0.5
        assert hyper.a0 == 2.0
        assert config.iterations == 100

    def test_defaults(self):
        config, hyper, _ = parse_config({})
        assert config.iterations == 10_000 and config.burn_in == 5_000
        assert config.variant == "BMZ-DP"
        assert hyper.fixed_p is None


class TestCliCommands:
    def _simulate(self, tmp_path, n=40, j=4, seed=5):
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--n", str(n), "--j", str(j),
                     "--seed", str(seed)]) == 0
        return out

    def test_simulate_writes_events_and_truth(self, tmp_path):
        out = self._simulate(tmp_path)
        assert (out / "events.csv").exists()
        truth = read_json(out / "truth.json")
        assert truth["beta"] == [0.4, 0.3, 0.2]
        assert len(truth["latents"]["gamma"]) == 40

    def test_fit_smoke_and_summary_blocks(self, tmp_path):
        out = self._simulate(tmp_path)
        fit_dir = tmp_path / "fit"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mcmc": {"iterations": 20, "burn_in": 10, "seed": 1,
                                               "adapt_window": 5}}))
        assert main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
                     "--out", str(fit_dir)]) == 0
        summary = read_json(fit_dir / "summary.json")
        names = set(summary["parameters"])
        for required in ("beta_1", "alpha_1", "alpha0", "xi1", "xi2", "zeta_1",
                         "lambda_01", "phi_kappa"):
            assert required in names
        assert summary["lpml"] is not None
        assert summary["config"]["model"]["variant"] == "BMZ-DP"

    def test_fit_variant_contracts(self, tmp_path):
        out = self._simulate(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mcmc": {"iterations": 20, "burn_in": 10,
                                               "adapt_window": 5}}))
        bz_dir = tmp_path / "bz"
        main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
              "--out", str(bz_dir), "--variant", "BZ-DP"])
        bz = read_json(bz_dir / "summary.json")
        assert not any(name.startswith("mu_") for name in bz["parameters"])
        bm_dir = tmp_path / "bm"
        main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
              "--out", str(bm_dir), "--variant", "BM-DP"])
        bm = read_json(bm_dir / "summary.json")
        assert not any(name.startswith("zeta_") for name in bm["parameters"])
        assert bm["parameters"]["n_unsusceptible"]["mean"] == 0.0

    def test_fit_empty_covariate_dataset(self, tmp_path):
        path = tmp_path / "bare.csv"
        rows = ["cluster_id,participant_id,followup_time,event_indicator,event_times"]
        rng = np.random.default_rng(3)
        for i in range(12):
            t = float(rng.uniform(0.5, 1.5))
            rows.append(f"0,{i},{t!r},{int(rng.integers(0, 2))},")
        path.write_text("\n".join(rows) + "\n")
        fit_dir = tmp_path / "fit0"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"mcmc": {"iterations": 10, "burn_in": 5,
                                               "adapt_window": 5}}))
        assert main(["fit", "--data", str(path), "--config", str(config),
                     "--out", str(fit_dir)]) == 0
        summary = read_json(fit_dir / "summary.json")
        assert "alpha0" in summary["parameters"]

    def test_summarize_round_trips_byte_identical(self, tmp_path):
        out = self._simulate(tmp_path)
        fit_dir = tmp_path / "fit"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mcmc": {"iterations": 20, "burn_in": 10, "seed": 4,
                                               "adapt_window": 5, "chains": 2}}))
        main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
              "--out", str(fit_dir)])
        target = tmp_path / "summary2.json"
        assert main(["summarize", "--fit-dir", str(fit_dir), "--out", str(target)]) == 0
        assert target.read_bytes() == (fit_dir / "summary.json").read_bytes()

    def test_summarize_rejects_draws_by_participants_loglik(self, tmp_path, capsys):
        out = self._simulate(tmp_path)
        fit_dir = tmp_path / "fit"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mcmc": {"iterations": 20, "burn_in": 10, "seed": 4,
                                               "adapt_window": 5}}))
        assert main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
                     "--out", str(fit_dir)]) == 0
        # the per-draw matrix an older version wrote under the same name
        np.save(fit_dir / "chain00_loglik.npy", np.zeros((10, 40)))
        assert main(["summarize", "--fit-dir", str(fit_dir),
                     "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert "chain00_loglik.npy: expected one value per participant" in err
        assert "(10, 40)" in err and "older version" in err

    def test_summarize_rejects_truncated_chain_loglik(self, tmp_path, capsys):
        out = self._simulate(tmp_path)
        fit_dir = tmp_path / "fit"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mcmc": {"iterations": 20, "burn_in": 10, "seed": 4,
                                               "adapt_window": 5, "chains": 2}}))
        assert main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
                     "--out", str(fit_dir)]) == 0
        path = fit_dir / "chain01_loglik.npy"
        np.save(path, np.load(path)[:-1])
        assert main(["summarize", "--fit-dir", str(fit_dir),
                     "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert "chain 1: 39 per-participant CPO sums, but chain 0 has 40" in err

    def test_fit_determinism_byte_identical(self, tmp_path):
        out = self._simulate(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mcmc": {"iterations": 30, "burn_in": 10, "seed": 11,
                                               "adapt_window": 10}}))
        dirs = []
        for name in ("fit_a", "fit_b"):
            fit_dir = tmp_path / name
            main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
                  "--out", str(fit_dir)])
            dirs.append(fit_dir)
        a, b = dirs
        assert (a / "chain00.csv").read_bytes() == (b / "chain00.csv").read_bytes()
        assert (a / "chain00_loglik.npy").read_bytes() == (b / "chain00_loglik.npy").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_replicate_study_smoke_and_determinism(self, tmp_path):
        study = {"n": 20, "j": 2, "replicates": 1, "variants": ["BMZ-DP"],
                 "seed": 3, "mcmc": {"iterations": 50, "burn_in": 30, "adapt_window": 10}}
        config = tmp_path / "study.json"
        config.write_text(json.dumps(study))
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert main(["replicate-study", "--config", str(config),
                         "--out", str(out)]) == 0
            outs.append(out)
        report = read_json(outs[0] / "report.json")
        agg = report["variants"]["BMZ-DP"]["aggregate"]
        for p in ("beta_1", "alpha_1", "alpha0", "xi1", "xi2", "zeta_1"):
            assert "avg_mean" in agg[p]
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
        assert (outs[0] / "timing.json").exists()

    def test_replicate_study_failure_keeps_traceback(self):
        study = {"n": 20, "j": 2, "replicates": 1, "variants": ["BMZ-DP", "BMZ"], "seed": 3,
                 "hyper": {"a0": -1}, "mcmc": {"iterations": 20, "burn_in": 10}}
        report, _ = run_replicate_study(study)
        failures = report["failures"]
        assert [(f["replicate"], f["variant"]) for f in failures] == [(0, "BMZ-DP"), (0, "BMZ")]
        for failure in failures:
            assert failure["error"] == "ValueError: a0 must be strictly positive"
            assert failure["traceback"].startswith("Traceback (most recent call last)")
            assert "in __post_init__" in failure["traceback"]
            assert "in _study_task" in failure["traceback"]
        assert report["variants"]["BMZ"]["failures"] == 1

    def test_error_exit_code(self, tmp_path, capsys):
        assert main(["fit", "--data", str(tmp_path / "missing.csv"),
                     "--out", str(tmp_path / "x")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_output_digest_is_deterministic(self, tmp_path):
        first, second = (output_digest.digest(tmp_path / name) for name in ("a", "b"))
        assert first == second
        paths = [line.split("  ", 1)[1] for line in first]
        assert all(len(line.split("  ", 1)[0]) == 64 for line in first)
        for variant in VARIANTS:
            for baseline in BASELINE_VARIANTS:
                assert f"fit/{variant}_{baseline}_corrected/chain00.csv" in paths
        assert "fit/BMZ-DP_piecewise_literal/chain00.csv" in paths
        assert "fit/BMZ-DP_piecewise_corrected/chain01.csv" in paths
        assert {"summarize.json", "study/report.json", "data/powerlaw/events.csv"} <= set(paths)
        assert not any(path.endswith("timing.json") for path in paths)
