import csv
import dataclasses
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import output_digest
from recurjoint.cli import main
from recurjoint.io import (
    config_to_dict,
    load_dataset,
    parse_config,
    read_chain_trace,
    read_json,
    write_chain_trace,
    write_dataset,
    write_json,
)
from recurjoint.model import BASELINE_VARIANTS, VARIANTS, Dataset, Hyperparams
from recurjoint.sampler import ChainTrace, McmcConfig, ProposalScales, run_chain
from recurjoint.simulate import simulate_dataset
from recurjoint.study import build_summary, fit_manifest, run_replicate_study
from conftest import make_dataset, make_record

_HEADER = "cluster_id,participant_id,followup_time,event_indicator,event_times"
_COLUMNS = ("cluster_index", "participant_index", "followup_time", "event_indicator",
            "event_times", "event_offsets", "covariates_x", "covariates_z", "covariates_u")


def _row_loop_load(path):
    """An events file read one cell at a time through ``csv.reader`` and
    Python's ``int`` and ``float``: the reference the loader matches bit for
    bit on well-formed files."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        p, q = (sum(h.startswith(prefix) for h in header) for prefix in ("x_", "z_"))
        cluster, participant, followup, event, counts, times, covariates = ([] for _ in range(7))
        for row in reader:
            cluster.append(int(row[0]))
            participant.append(int(row[1]))
            followup.append(float(row[2]))
            event.append(int(row[3]))
            row_times = row[4].split(";") if row[4] else []
            times.extend(map(float, row_times))
            counts.append(len(row_times))
            covariates.extend(map(float, row[5:]))
    cluster_ids, cluster_index = np.unique(np.array(cluster, dtype=np.int64), return_inverse=True)
    covariates = np.array(covariates, dtype=float).reshape(len(followup), len(header) - 5)
    return Dataset(
        cluster_index=cluster_index, participant_index=participant, followup_time=followup,
        event_indicator=event, event_times=times,
        event_offsets=np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
        covariates_x=covariates[:, :p], covariates_z=covariates[:, p:p + q],
        covariates_u=covariates[:, p + q:], num_clusters=cluster_ids.size)


def assert_loads_like_row_loop(path):
    loaded, reference = load_dataset(path), _row_loop_load(path)
    assert loaded.num_clusters == reference.num_clusters
    for name in _COLUMNS:
        a, b = getattr(loaded, name), getattr(reference, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


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

    def test_matches_row_loop_on_simulated_header_only_and_bare_files(self, tmp_path):
        path = tmp_path / "e.csv"
        write_dataset(simulate_dataset(20000, 500, seed=801)[0], path)
        assert_loads_like_row_loop(path)
        for text in (_HEADER + "\n", _HEADER + ",x_1,z_1,u_1,u_2", _HEADER + "\n5,0,1.5,1,\n"
                     "5,1,2,0,0.5;1.25\n7,0,0.75,0,\n"):
            path.write_text(text)
            assert_loads_like_row_loop(path)
        assert len(load_dataset(path)) == 3

    @pytest.mark.parametrize("text", [
        _HEADER + ',x_1\n"5","0","1.5","1","0.5;1.25","-2"\n"6",0,2,0,"",3\n',
        _HEADER + "\r\n5,0,1.5,1,0.5\r\n6,0,2,0,\r\n",
        _HEADER + "\r5,0,1.5,1,0.5\r6,0,2,0,",
        _HEADER + ",z_1\n 5 , 0 , 1.5 ,\t1 , 0.5 ; 1.0 , 3 \n",
        _HEADER + ",u_1\n+3,+0,+1.5,+1,+0.5,+2e-3\n",
        _HEADER + ",x_1\n-9223372036854775808,9223372036854775807,1,0,,-inf\n"
                  "9223372036854775807,-9223372036854775808,1,0,,nan\n",
        _HEADER + ",x_age,x_1,z_dose,u_1\n0,0,1.0,0,,1,2,3,4\n",
    ], ids=["quoted", "crlf", "cr", "spaces", "plus", "int64 limits", "descriptive suffixes"])
    def test_accepted_spellings_match_row_loop(self, tmp_path, text):
        path = tmp_path / "e.csv"
        path.write_text(text, newline="")
        assert_loads_like_row_loop(path)

    @pytest.mark.parametrize("rows, match", [
        ("0,9223372036854775808,1.0,0,\n",
         r"row 2, column 2 \(participant_id\): not a 64-bit integer: '9223372036854775808'"),
        ("0,0,1.0,0,\n\n0,1,1.0,0,\n", r"row 3: expected 5 columns, got 0"),
        ("\n", r"row 2: expected 5 columns, got 0"),
        ("0,0,1.0,0,\n0,1_000,1.0,0,\n", r"e\.csv: numpy's reader rejects a cell"),
        # numpy's reader joins the lines of a quoted cell; the joined cell
        # parses, so the record itself is named
        ('0,0,1.0,0,\n0,1,1.0,0,"0.5\n;0.75"\n0,2,1.0,0,\n',
         r"e\.csv: row 3, column 5 \(event_times\): a quoted cell spans lines 3 to 4$"),
        ('0,0,"1.\n5",0,\n', r"row 2, column 3 \(followup_time\): not a number: '1\.\\n5'"),
        # a bad cell is named before a spanning record, by its own file line
        ('0,0,1.0,0,"0.5\n"\n0,x,1.0,0,\n',
         r"row 4, column 2 \(participant_id\): not a 64-bit integer: 'x'"),
    ], ids=["2^63", "blank line", "blank body", "digit separator", "quoted cell spans lines",
            "quoted number spans lines", "bad cell after a spanning record"])
    def test_rejected_spellings_are_named(self, tmp_path, rows, match):
        path = tmp_path / "e.csv"
        path.write_text(_HEADER + "\n" + rows)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(ValueError, match=match):
            warnings.simplefilter("always")
            load_dataset(path)
        assert not caught, [str(w.message) for w in caught]

    def test_load_peak_memory_is_a_small_multiple_of_the_columns(self, tmp_path):
        # the file is handed to numpy a line at a time, with no list of its
        # lines (holding every line peaked at 5.7 times the columns, a line
        # at a time at 3.1)
        path = tmp_path / "e.csv"
        write_dataset(simulate_dataset(5000, 125, seed=803)[0], path)
        tracemalloc.start()
        try:
            loaded = load_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        columns = sum(getattr(loaded, name).nbytes for name in _COLUMNS)
        assert peak < 4 * columns, (peak, columns)

    @pytest.mark.parametrize("rows, match", [
        ("a,0,1.0,0,\n", r"row 2, column 1 \(cluster_id\): not a 64-bit integer: 'a'"),
        ("0,0,1.0,0,\n0,1.5,1.0,0,\n", r"row 3, column 2 \(participant_id\): not a 64-bit"),
        ("0,0,1.0,0,\n9223372036854775808,0,1.0,0,\n", r"row 3, column 1 \(cluster_id\)"),
        ("0,0,1.0,0,\n0,1,nan,0,\n", r"row 3, column 3 \(followup_time\): must be finite"),
        ("0,0,inf,0,\n", r"row 2, column 3 \(followup_time\): must be finite"),
        ("0,9,1.0,0,0.5\n0,1,1.0,0,0.25;nan\n",
         r"row 3, column 5 \(event_times\): times must be finite"),
        ("0,0,1.0,0,0.5;x\n", r"row 2, column 5 \(event_times\): not a number: 'x'"),
        pytest.param("".join(f"0,{i},1.0,0,0.5\n" for i in range(4998)) + "0,4998,1.0,0,0.5;x\n",
                     r"row 5000, column 5 \(event_times\): not a number: 'x'",
                     id="row 5000 of a large file"),
        # both readers end a quoted cell left open at the end of the file there
        pytest.param('0,0,1.0,0,\n0,1,1.0,0,"0.5',
                     r"row 3, column 5 \(event_times\): a quoted cell is not closed before the "
                     r"end of the file$", id="unterminated quote at the end"),
        pytest.param('0,0,1.0,0,"0.5\n',
                     r"row 2, column 5 \(event_times\): a quoted cell is not closed before the "
                     r"end of the file$", id="unterminated quote before the last line end"),
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

    @pytest.mark.parametrize("columns, match", [
        ("z_1,x_1,u_1", r"column 7 \(x_1\) follows a z_ column; the covariate columns must be "
                        r"the x_ columns, then the z_, then the u_$"),
        ("x_1,u_1,z_1", r"column 8 \(z_1\) follows a u_ column"),
        ("x_1,z_1,x_2", r"column 8 \(x_2\) follows a z_ column"),
        ("x_1,age", r"unrecognized column 7 \(age\) in header; covariate columns start with "
                    r"x_, z_ or u_$"),
    ])
    def test_covariate_columns_out_of_order_are_named(self, tmp_path, columns, match):
        # the groups are read by position, so an interleaved header would
        # load one group's values as another's
        path = tmp_path / "e.csv"
        path.write_text(f"{_HEADER},{columns}\n0,0,1.0,0,,7,3,5\n0,1,1.0,0,,8,4,6\n")
        with pytest.raises(ValueError, match=match):
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

    def test_extreme_values_write_17g_text_and_read_back_bit_for_bit(self, tmp_path):
        values = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1.0 / 3.0,
                  -1.2345678901234567e-300, 9007199254740993.0, 2.0 ** 0.5]
        draws = np.array([values[:5], values[5:]])
        total = np.array([-12.345678901234567, -0.0])
        trace = ChainTrace(columns=[f"c{k}" for k in range(5)], draws=draws,
                           neg_loglik_lse=np.zeros(3), total_loglik=total, acceptance={},
                           final_scales={}, chain_index=0, grid=None)
        write_chain_trace(trace, tmp_path / "chain00")
        expected = "c0,c1,c2,c3,c4,total_loglik\n" + "".join(
            ",".join(format(v, ".17g") for v in [*row, t]) + "\n" for row, t in zip(draws, total))
        assert (tmp_path / "chain00.csv").read_text() == expected
        manifest = {"grid": None, "acceptance": [{}], "final_scales": [{}]}
        back = read_chain_trace(tmp_path / "chain00", manifest, 0)
        assert back.draws.view(np.int64).tolist() == draws.view(np.int64).tolist()
        assert back.total_loglik.view(np.int64).tolist() == total.view(np.int64).tolist()

    @staticmethod
    def _read_trace_text(tmp_path, text):
        (tmp_path / "chain00.csv").write_text(text, newline="")
        np.save(tmp_path / "chain00_loglik.npy", np.zeros(3))
        manifest = {"grid": None, "acceptance": [{}], "final_scales": [{}]}
        return read_chain_trace(tmp_path / "chain00", manifest, 0)

    @pytest.mark.parametrize("text", [
        'c0,c1,total_loglik\n"1.5"," -2 ",3\n',
        "c0,c1,total_loglik\r\n1,2,3\r\n4,5,6\r\n",
        "c0,c1,total_loglik\r1,2,3\r4,5,6",
        "c0,c1,total_loglik\n +1e-3 ,\t-0,NaN\n-Infinity,inf,+.5\n",
    ], ids=["quoted", "crlf", "cr", "spaces, signs and non-finite"])
    def test_accepted_trace_spellings_match_float(self, tmp_path, text):
        back = self._read_trace_text(tmp_path, text)
        expected = np.array([[float(v) for v in row] for row in csv.reader(text.splitlines()[1:])])
        assert back.draws.tobytes() == expected[:, :-1].tobytes()
        assert back.total_loglik.tobytes() == expected[:, -1].tobytes()

    def test_header_only_trace_reads_as_zero_draws(self, tmp_path):
        back = self._read_trace_text(tmp_path, "c0,c1,total_loglik\n")
        assert back.columns == ["c0", "c1"]
        assert back.draws.shape == (0, 2) and back.total_loglik.shape == (0,)

    @pytest.mark.parametrize("text, match", [
        ("c0,c1,total_loglik\n1,2,3\n\n4,5,6\n",
         r"chain00\.csv: row 3, column 1 \(c0\): missing; the row has 0 cells, the header 3"),
        ("c0,c1,total_loglik\n1,2,3\n4,5,6\n\n",
         r"chain00\.csv: row 4, column 1 \(c0\): missing; the row has 0 cells"),
        ("c0,c1,total_loglik\n1,2,3\n4,5,6,7\n",
         r"chain00\.csv: row 3, column 4: not in the header; the row has 4 cells, the header 3"),
        ("c0,c1,total_loglik\n1,2,3,4\n5,6,7,8\n",
         r"chain00\.csv: row 2, column 4: not in the header; the row has 4 cells"),
        ("c0,c1,total_loglik\n1,2\n3,4\n",
         r"chain00\.csv: row 2, column 3 \(total_loglik\): missing; the row has 2 cells"),
        ('c0,c1,total_loglik\n1,2,3\n4,"5\r\n",6\n',
         r"chain00\.csv: row 3, column 2 \(c1\): a quoted cell spans lines 3 to 4$"),
        ('c0,c1,total_loglik\n"1\n",2,3\n4,x,6\n',
         r"chain00\.csv: row 4, column 2 \(c1\): not a number: 'x'"),
        ('c0,c1,total_loglik\n1,2,3\n5,6,"4',
         r"chain00\.csv: row 3, column 3 \(total_loglik\): a quoted cell is not closed before "
         r"the end of the file$"),
    ], ids=["blank line", "blank last line", "long row", "every row long", "every row short",
            "quoted cell spans lines", "bad cell after a spanning record",
            "unterminated quote at the end"])
    def test_bad_trace_rows_are_named(self, tmp_path, text, match):
        with pytest.raises(ValueError, match=match):
            self._read_trace_text(tmp_path, text)

    def test_read_peak_memory_is_a_small_multiple_of_the_draws(self, tmp_path):
        # no Python float per cell (those peaked at 5.2 times the draws
        # array, numpy's reader at 1.1)
        rng = np.random.default_rng(9)
        draws = rng.standard_normal((2000, 133))
        trace = ChainTrace(columns=[f"c{k}" for k in range(133)], draws=draws,
                           neg_loglik_lse=np.zeros(3), total_loglik=rng.standard_normal(2000),
                           acceptance={}, final_scales={}, chain_index=0, grid=None)
        write_chain_trace(trace, tmp_path / "chain00")
        manifest = {"grid": None, "acceptance": [{}], "final_scales": [{}]}
        tracemalloc.start()
        try:
            back = read_chain_trace(tmp_path / "chain00", manifest, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.draws.tobytes() == draws.tobytes()
        assert peak < 2 * (draws.nbytes + trace.total_loglik.nbytes), (peak, draws.nbytes)

    def test_empty_trace_file_is_named(self, tmp_path):
        (tmp_path / "chain00.csv").write_text("")
        with pytest.raises(ValueError, match=r"chain00\.csv: empty trace file"):
            read_chain_trace(tmp_path / "chain00", {}, 0)

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
        config, hyper, scales = parse_config(read_json(path))
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

    @pytest.mark.parametrize("doc,message", [
        ({"mcmc": {"iteration": 100}}, "unknown key 'iteration' in the config's mcmc section"),
        ({"model": {"varient": "BMZ"}}, "unknown key 'varient' in the config's model section"),
        ({"hyper": {"a_0": 2.0}}, "unknown key 'a_0' in the config's hyper section"),
        # the scale of the piecewise levels, which are now drawn exactly
        ({"scales": {"rho_lambda": 0.3}},
         "unknown key 'rho_lambda' in the config's scales section; known keys: rho_alpha, "
         "rho_alpha0, rho_beta, rho_eta, rho_gamma, rho_psi, rho_theta, rho_xi1, rho_xi2, "
         "rho_zeta"),
        ({"mcmc": {"iterations": 100}, "mcmcc": {}}, "unknown key 'mcmcc' in the config;"),
    ])
    def test_unknown_keys_are_named(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(doc)

    @pytest.mark.parametrize("doc,message", [
        ({"model": {"fixed_p": 0.5}, "hyper": {"fixed_p": 0.3}},
         "fixed_p is set in both the config's model and hyper sections"),
        ({"mcmc": {"iterations": 100.9}},
         "iterations in the config's mcmc section must be an integer, got 100.9"),
        ({"mcmc": {"seed": "abc"}},
         "seed in the config's mcmc section must be an integer, got 'abc'"),
        ({"mcmc": {"chains": True}},
         "chains in the config's mcmc section must be an integer, got True"),
        ({"hyper": {"update_concentrations": "false"}},
         "update_concentrations must be true or false, got 'false'"),
        ({"hyper": {"resample_coef_variances": 0}},
         "resample_coef_variances must be true or false, got 0"),
        ({"hyper": {"a0": "1.0"}}, "a0 must be a number, got '1.0'"),
        ({"hyper": {"fixed_p": "0.3"}}, "fixed_p must be a number, got '0.3'"),
        ({"scales": {"rho_beta": "0.1"}},
         "rho_beta must be a strictly positive number, got '0.1'"),
        # the hyper section's integers, by their annotations
        ({"hyper": {"grid_count": 40.5}},
         "grid_count in the config's hyper section must be an integer, got 40.5"),
        ({"hyper": {"truncation_mu": True}},
         "truncation_mu in the config's hyper section must be an integer, got True"),
        ({"hyper": {"truncation_kappa": "4"}},
         "truncation_kappa in the config's hyper section must be an integer, got '4'"),
        # a document or section that is not a JSON object
        ([1], "the config must be a JSON object, got [1]"),
        ({"hyper": 5}, "hyper in the config must be a JSON object, got 5"),
        ({"model": [1]}, "model in the config must be a JSON object, got [1]"),
        ({"mcmc": "fast"}, "mcmc in the config must be a JSON object, got 'fast'"),
    ])
    def test_bad_values_are_named(self, doc, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_config(doc)

    def test_integral_floats_are_integers(self):
        config, _, _ = parse_config({"mcmc": {"iterations": 100.0, "burn_in": 50.0, "seed": 7}})
        assert (config.iterations, config.burn_in, config.seed) == (100, 50, 7)
        assert type(config.iterations) is int and type(config.burn_in) is int

    def test_hyper_integral_floats_are_integers(self):
        # int and int | None fields alike, recorded as integers
        config, hyper, _ = parse_config({"hyper": {"grid_count": 40.0, "truncation_mu": 4.0,
                                                   "truncation_kappa": None}})
        assert (hyper.grid_count, hyper.truncation_mu, hyper.truncation_kappa) == (40, 4, None)
        assert type(hyper.grid_count) is int and type(hyper.truncation_mu) is int
        recorded = json.dumps(config_to_dict(config, hyper)["hyper"], sort_keys=True)
        assert '"grid_count": 40,' in recorded and '"truncation_mu": 4,' in recorded

    @pytest.mark.parametrize("baseline,grid,section", [
        ("piecewise", (0.0, 0.25, 1.5), "hyper"),
        ("powerlaw", None, "model"),
    ])
    def test_config_to_dict_reads_back_to_the_same_objects(self, baseline, grid, section):
        # every McmcConfig field but one is set away from its default (the
        # piecewise baseline is the default one; the grid is only for it),
        # and so are fixed_p and every scale
        config = McmcConfig(iterations=40, burn_in=10, thin=3, chains=2, seed=9, variant="BZ-DP",
                            baseline_variant=baseline, likelihood_mode="literal",
                            adapt_window=7, grid=grid)
        changed = {f.name for f in dataclasses.fields(config)
                   if getattr(config, f.name) != f.default}
        assert len(changed) == len(dataclasses.fields(config)) - 1
        hyper = Hyperparams(a0=2.0, fixed_p=0.25, update_concentrations=False, truncation_mu=4)
        scales = ProposalScales(**{f.name: 0.05 * (k + 1)
                                   for k, f in enumerate(dataclasses.fields(ProposalScales))})
        doc = json.loads(json.dumps(config_to_dict(config, hyper, scales)))
        assert parse_config(doc) == (config, hyper, scales)
        # fixed_p read from the model section instead of the hyper section
        doc[section]["fixed_p"] = doc["hyper"].pop("fixed_p")
        assert parse_config(doc) == (config, hyper, scales)

    def test_fit_refuses_an_unknown_key_before_reading_the_data(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scales": {"rho_lambda": 0.3}}))
        # the events file does not exist: the config is refused first
        assert main(["fit", "--data", str(tmp_path / "missing.csv"), "--config", str(config),
                     "--out", str(tmp_path / "fit")]) == 1
        err = capsys.readouterr().err
        assert "rho_lambda" in err and "missing.csv" not in err
        assert not (tmp_path / "fit").exists()

    def test_fit_refuses_a_non_finite_grid_before_reading_the_data(self, tmp_path, capsys):
        # JSON's NaN, which Python's reader takes, in the explicit grid
        config = tmp_path / "config.json"
        config.write_text('{"model": {"grid": [0, NaN, 2]}}')
        assert main(["fit", "--data", str(tmp_path / "missing.csv"), "--config", str(config),
                     "--out", str(tmp_path / "fit")]) == 1
        assert capsys.readouterr().err == "error: grid[1] must be finite, got nan\n"
        assert not (tmp_path / "fit").exists()


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

    @pytest.mark.parametrize("baseline", BASELINE_VARIANTS)
    def test_truth_json_holds_every_simtruth_field(self, tmp_path, baseline):
        # truth.json is written field by field from SimTruth, so a field
        # added to the dataclass cannot be left out of the file
        out = tmp_path / "sim"
        assert main(["simulate", "--out", str(out), "--n", "40", "--j", "4", "--seed", "5",
                     "--baseline", baseline]) == 0
        doc = read_json(out / "truth.json")
        _, truth = simulate_dataset(40, 4, baseline, seed=5)
        latent = {f.name for f in dataclasses.fields(truth) if f.metadata.get("latent")}
        assert latent == {"gamma", "kappa", "unsusceptible", "cluster_mu", "uncensored_time",
                          "susceptibility_prob"}
        assert doc.keys() == {f.name for f in dataclasses.fields(truth)} - latent | {"latents"}
        assert doc["latents"].keys() == latent
        for name in latent:
            assert doc["latents"][name] == getattr(truth, name).tolist()
        for name in doc.keys() - {"latents", "baseline"}:
            assert doc[name] == np.asarray(getattr(truth, name)).tolist()
        expected = ({"variant": "powerlaw", "shape": 1.5} if baseline == "powerlaw" else
                    {"variant": "piecewise", "grid": truth.baseline.grid.tolist(),
                     "levels": truth.baseline.levels.tolist()})
        assert doc["baseline"] == expected

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

    def test_fit_flags_override_the_config(self, tmp_path):
        out = self._simulate(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "model": {"variant": "BMZ", "baseline_variant": "piecewise"},
            "mcmc": {"iterations": 12, "burn_in": 6, "chains": 1, "seed": 1}}))
        fit = ["fit", "--data", str(out / "events.csv"), "--config", str(config)]
        assert main([*fit, "--out", str(tmp_path / "plain")]) == 0
        assert main([*fit, "--out", str(tmp_path / "flags"), "--variant", "BZ-DP",
                     "--baseline", "powerlaw", "--chains", "2", "--seed", "5"]) == 0
        settings = {}
        for name in ("plain", "flags"):
            doc = read_json(tmp_path / name / "manifest.json")["config"]
            model, mcmc = doc["model"], doc["mcmc"]
            settings[name] = (model["variant"], model["baseline_variant"], mcmc["chains"],
                              mcmc["seed"], mcmc["iterations"])
        assert settings == {"plain": ("BMZ", "piecewise", 1, 1, 12),
                            "flags": ("BZ-DP", "powerlaw", 2, 5, 12)}

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

    def _fit_with_edited_trace(self, tmp_path, edit):
        """A one-chain fit whose chain00.csv lines pass through ``edit``."""
        out = self._simulate(tmp_path)
        fit_dir = tmp_path / "fit"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mcmc": {"iterations": 20, "burn_in": 10, "seed": 4,
                                               "adapt_window": 5}}))
        assert main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
                     "--out", str(fit_dir)]) == 0
        path = fit_dir / "chain00.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(edit(lines)) + "\n")
        return fit_dir, lines[0].split(",")

    def test_summarize_names_a_short_trace_row(self, tmp_path, capsys):
        fit_dir, header = self._fit_with_edited_trace(
            tmp_path, lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:])
        assert main(["summarize", "--fit-dir", str(fit_dir),
                     "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert (f"chain00.csv: row 5, column {len(header)} (total_loglik): missing; the row has "
                f"{len(header) - 1} cells, the header {len(header)} columns") in err

    def test_summarize_names_a_non_numeric_trace_cell(self, tmp_path, capsys):
        def edit(lines):
            cells = lines[3].split(",")
            cells[2] = "abc"
            return lines[:3] + [",".join(cells)] + lines[4:]

        fit_dir, header = self._fit_with_edited_trace(tmp_path, edit)
        assert main(["summarize", "--fit-dir", str(fit_dir),
                     "--out", str(tmp_path / "s.json")]) == 1
        err = capsys.readouterr().err
        assert f"chain00.csv: row 4, column 3 ({header[2]}): not a number: 'abc'" in err

    def test_summarize_reads_a_fit_that_traced_the_mixture_atoms(self, tmp_path):
        # a fit written while the trace still held the raw atoms theta_* and
        # eta_*: the summary reads the columns its manifest lists, so the
        # fit summarizes, atom entries and all, and every other entry is the
        # one the fit itself wrote
        out = self._simulate(tmp_path)
        fit_dir = tmp_path / "fit"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mcmc": {"iterations": 20, "burn_in": 10, "seed": 4,
                                               "adapt_window": 5}}))
        assert main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
                     "--out", str(fit_dir)]) == 0
        fit_summary = read_json(fit_dir / "summary.json")
        path = fit_dir / "chain00.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        # the old order: eta_* after phi_mu, theta_* after phi_kappa
        for name, after, value in (("eta_1", "phi_mu", lambda k: -0.5 + 0.125 * k),
                                   ("theta_1", "phi_kappa", lambda k: 0.5 * k)):
            at = rows[0].index(after) + 1
            for k, row in enumerate(rows):
                row.insert(at, name if k == 0 else repr(value(k)))
        path.write_text("\n".join(",".join(row) for row in rows) + "\n")
        manifest = read_json(fit_dir / "manifest.json")
        manifest["columns"] = rows[0][:-1]
        write_json(manifest, fit_dir / "manifest.json")

        target = tmp_path / "old.json"
        assert main(["summarize", "--fit-dir", str(fit_dir), "--out", str(target)]) == 0
        summary = read_json(target)
        assert list(summary["parameters"]) == sorted(rows[0][:-1])
        assert summary["parameters"].pop("eta_1")["mean"] == pytest.approx(-0.5 + 0.125 * 5.5)
        assert summary["parameters"].pop("theta_1")["mean"] == pytest.approx(0.5 * 5.5)
        assert json.dumps(summary, sort_keys=True) == json.dumps(fit_summary, sort_keys=True)

    def test_fit_names_an_unallocatable_trace_and_leaves_no_directory(self, tmp_path, capsys):
        # numpy refuses a matrix of this size before allocating any of it,
        # so the fit fails as soon as its engine is built
        out = self._simulate(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mcmc": {"iterations": 1e18, "burn_in": 10}}))
        fit_dir = tmp_path / "fit"
        assert main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
                     "--out", str(fit_dir)]) == 1
        assert capsys.readouterr().err == (
            "error: the trace of 999999999999999990 kept draws by 31 columns cannot be "
            "allocated: lower mcmc iterations, or raise burn_in or thin\n")
        assert not fit_dir.exists()

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

    def test_recorded_config_reproduces_the_fit(self, tmp_path):
        # the proposal scales change the chain, so the recorded config holds
        # them; a fit directory recorded without them still summarizes
        out = self._simulate(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mcmc": {"iterations": 30, "burn_in": 10, "seed": 11,
                                               "adapt_window": 10},
                                      "scales": {"rho_gamma": 0.8, "rho_theta": 0.05}}))
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
                     "--out", str(first)]) == 0
        recorded = read_json(first / "summary.json")["config"]
        assert recorded["scales"]["rho_gamma"] == 0.8 and recorded["scales"]["rho_beta"] == 0.1
        config.write_text(json.dumps(recorded))
        assert main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
                     "--out", str(again)]) == 0
        for name in ("chain00.csv", "summary.json"):
            assert (first / name).read_bytes() == (again / name).read_bytes()
        manifest = read_json(first / "manifest.json")
        del manifest["config"]["scales"]
        write_json(manifest, first / "manifest.json")
        assert main(["summarize", "--fit-dir", str(first), "--out",
                     str(tmp_path / "old.json")]) == 0
        assert "scales" not in read_json(tmp_path / "old.json")["config"]

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

    def test_replicate_study_report_is_independent_of_threads(self, tmp_path):
        # the report is fixed by the study config and seed, whether the
        # cells run in this process or on a pool of two workers
        config = tmp_path / "study.json"
        config.write_text(json.dumps({
            "n": 20, "j": 2, "replicates": 2, "variants": ["BMZ-DP", "BMZ"], "seed": 4,
            "mcmc": {"iterations": 20, "burn_in": 10, "adapt_window": 5}}))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert main(["replicate-study", "--config", str(config), "--out", str(out),
                         "--threads", threads]) == 0
            reports.append((out / "report.json").read_bytes())
        assert not json.loads(reports[0])["failures"]
        assert reports[0] == reports[1]

    def test_fit_outputs_are_independent_of_threads(self, tmp_path):
        out = self._simulate(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mcmc": {"iterations": 20, "burn_in": 10, "seed": 6,
                                               "chains": 2, "adapt_window": 5}}))
        files = []
        for threads in ("1", "2"):
            fit_dir = tmp_path / f"threads{threads}"
            assert main(["fit", "--data", str(out / "events.csv"), "--config", str(config),
                         "--out", str(fit_dir), "--threads", threads]) == 0
            files.append({p.name: p.read_bytes() for p in sorted(fit_dir.iterdir())})
        assert {"chain00.csv", "chain01.csv", "summary.json"} <= set(files[0])
        assert files[0] == files[1]

    @pytest.mark.parametrize("command", ["fit", "replicate-study"])
    def test_pool_has_no_more_workers_than_tasks(self, tmp_path, monkeypatch, command):
        # a recorder stands in for the pool: it maps in this process and
        # records the workers asked for, so no process is started
        import concurrent.futures

        asked = []

        class Recorder:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        mcmc = {"iterations": 20, "burn_in": 10, "adapt_window": 5}
        config = tmp_path / "config.json"
        if command == "fit":
            out = self._simulate(tmp_path)
            config.write_text(json.dumps({"mcmc": {**mcmc, "chains": 2}}))
            argv = ["fit", "--data", str(out / "events.csv")]
        else:
            config.write_text(json.dumps({"n": 20, "j": 2, "replicates": 1,
                                          "variants": ["BMZ-DP", "BMZ", "BZ-DP"], "mcmc": mcmc}))
            argv = ["replicate-study"]
        for threads in ("2", "64"):
            assert main([*argv, "--config", str(config), "--out", str(tmp_path / threads),
                         "--threads", threads]) == 0
        tasks = 2 if command == "fit" else 3
        assert asked == [2, tasks]

    @pytest.mark.parametrize("variants,threads,workers", [
        (["BMZ"], "8", 1), (["BMZ-DP", "BMZ", "BZ-DP"], "2", 2),
        (["BMZ-DP", "BMZ", "BZ-DP"], "64", 3)])
    def test_timing_records_the_workers_that_ran(self, tmp_path, monkeypatch, variants, threads,
                                                 workers):
        # timing.json counts the worker processes, not the --threads asked
        # for: one cell runs in this process.  A recorder stands in for the
        # pool, so no process is started
        import concurrent.futures

        pools = []

        class Recorder:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"n": 20, "j": 2, "replicates": 1, "variants": variants,
                                      "mcmc": {"iterations": 20, "burn_in": 10}}))
        out = tmp_path / "out"
        assert main(["replicate-study", "--config", str(config), "--out", str(out),
                     "--threads", threads]) == 0
        assert read_json(out / "timing.json")["threads"] == workers
        assert pools == ([] if workers == 1 else [workers])

    @pytest.mark.parametrize("command", ["fit", "replicate-study"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_are_refused(self, tmp_path, capsys, command, threads):
        config = tmp_path / "config.json"
        if command == "fit":
            out = self._simulate(tmp_path)
            config.write_text(json.dumps({"mcmc": {"iterations": 20, "burn_in": 10}}))
            argv = ["fit", "--data", str(out / "events.csv")]
        else:
            config.write_text(json.dumps({"n": 20, "j": 2, "replicates": 1,
                                          "mcmc": {"iterations": 20, "burn_in": 10}}))
            argv = ["replicate-study"]
        assert main([*argv, "--config", str(config), "--out", str(tmp_path / "out"),
                     "--threads", threads]) == 1
        assert capsys.readouterr().err == f"error: threads must be at least 1, got {threads}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("baseline", BASELINE_VARIANTS)
    def test_replicate_study_truth_is_every_cells_simulated_truth(self, monkeypatch, baseline):
        # the report scores against the SimTruth each cell simulates from,
        # named by trace column; every cell's truth is the same
        import recurjoint.study as study_module

        truths = []
        simulate = study_module.sim.simulate_dataset

        def recording_simulate(*args, **kwargs):
            dataset, truth = simulate(*args, **kwargs)
            truths.append(truth)
            return dataset, truth

        monkeypatch.setattr(study_module.sim, "simulate_dataset", recording_simulate)
        study = {"n": 20, "j": 2, "replicates": 2, "variants": ["BZ-DP", "BMZ"], "seed": 8,
                 "baseline_variant": baseline,
                 "mcmc": {"iterations": 12, "burn_in": 6, "adapt_window": 3}}
        report, _ = run_replicate_study(study)
        assert not report["failures"] and len(truths) == 4
        for truth in truths:
            scored = {f"{name}_{i + 1}": float(v) for name in ("beta", "alpha", "zeta")
                      for i, v in enumerate(getattr(truth, name))}
            scored.update(alpha0=truth.alpha0, xi1=truth.xi1, xi2=truth.xi2)
            if baseline == "powerlaw":
                scored["psi"] = truth.baseline.shape
            assert report["truth"] == scored
        # every parameter the cells score has a truth to be scored against
        for variant in study["variants"]:
            assert report["variants"][variant]["replicate_means"].keys() <= scored.keys()

    def test_scored_parameters_are_vector_elements_then_scalars(self):
        from recurjoint.study import scored_parameters

        columns = ["beta_1", "beta_2", "alpha_1", "alpha0", "xi1", "xi2", "zeta_1", "sigma2_beta",
                   "psi", "lambda_01", "tau2_1", "mu_1", "theta_1", "n_unsusceptible"]
        assert scored_parameters(columns) == ["beta_1", "beta_2", "alpha_1", "zeta_1", "alpha0",
                                              "xi1", "xi2", "psi"]

    def test_replicate_study_failure_keeps_traceback(self, monkeypatch):
        # a config is checked before any cell runs, so the cells fail in
        # the fit itself
        import recurjoint.study as study_module

        def failing_fit(dataset, config, hyper, scales=None):
            raise ValueError(f"no fit of {config.variant}")

        monkeypatch.setattr(study_module, "run_fit", failing_fit)
        study = {"n": 20, "j": 2, "replicates": 1, "variants": ["BMZ-DP", "BMZ"], "seed": 3,
                 "mcmc": {"iterations": 20, "burn_in": 10}}
        report, _ = run_replicate_study(study)
        failures = report["failures"]
        assert [(f["replicate"], f["variant"]) for f in failures] == [(0, "BMZ-DP"), (0, "BMZ")]
        for failure in failures:
            assert failure["error"] == f"ValueError: no fit of {failure['variant']}"
            assert failure["traceback"].startswith("Traceback (most recent call last)")
            assert "in failing_fit" in failure["traceback"]
            assert "in _study_task" in failure["traceback"]
        assert report["variants"]["BMZ"]["failures"] == 1
        # no cell simulated and fitted, so there is no truth to score against
        assert report["truth"] == {}
        assert all(v["aggregate"] == {} for v in report["variants"].values())

    @pytest.mark.parametrize("fields,message", [
        ({"replicate": 2}, "unknown key 'replicate' in the study config;"),
        ({"mcmc": {"iteration": 20}}, "unknown key 'iteration' in the study config's mcmc "
                                      "section"),
        ({"hyper": {"a_0": 1.0}}, "unknown key 'a_0' in the study config's hyper section"),
        ({"scales": {"rho_lambda": 0.3}}, "unknown key 'rho_lambda' in the study config's "
                                          "scales section"),
        ({"hyper": {"a0": -1}}, "a0 must be strictly positive"),
        ({"mcmc": {"iterations": 20, "burn_in": 20}}, "burn_in must satisfy"),
        ({"variants": ["BMZ", "BOGUS"]}, "unknown variant 'BOGUS'"),
        ({"variants": ["BMZ", "BMZ"]}, "variants in the study config names 'BMZ' twice"),
        ({"variants": []}, "variants in the study config is empty"),
        ({"replicates": 0}, "replicates in the study config must be at least 1, got 0"),
        ({"n": 20.5}, "n in the study config must be an integer, got 20.5"),
        ({"seed": "abc"}, "seed in the study config must be an integer, got 'abc'"),
        ({"replicates": True}, "replicates in the study config must be an integer, got True"),
        ({"mcmc": {"iterations": 20.9, "burn_in": 10}},
         "iterations in the study config's mcmc section must be an integer, got 20.9"),
        ({"hyper": {"update_concentrations": "false"}},
         "update_concentrations must be true or false, got 'false'"),
        ({"hyper": {"truncation_mu": 2.5}},
         "truncation_mu in the study config's hyper section must be an integer, got 2.5"),
        ({"variants": "BMZ"},
         "variants in the study config must be a list of variant names, got 'BMZ'"),
        ({"variants": ["BMZ", 1]},
         "variants in the study config must be a list of variant names, got ['BMZ', 1]"),
        ({"hyper": 5}, "hyper in the study config must be a JSON object, got 5"),
        ({"mcmc": [20]}, "mcmc in the study config must be a JSON object, got [20]"),
        ({"scales": None}, "scales in the study config must be a JSON object, got None"),
    ])
    def test_replicate_study_rejects_a_bad_config_before_any_cell(self, tmp_path, capsys,
                                                                  monkeypatch, fields, message):
        import recurjoint.study as study_module

        monkeypatch.setattr(study_module, "_study_task",
                            lambda task: pytest.fail("a study cell ran"))
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"n": 20, "j": 2, "replicates": 1,
                                      "mcmc": {"iterations": 20, "burn_in": 10}, **fields}))
        assert main(["replicate-study", "--config", str(config),
                     "--out", str(tmp_path / "study")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "study").exists()

    @pytest.mark.parametrize("study", [
        {},
        # the study configs of the tests above and of output_digest.py
        {"n": 20, "j": 2, "replicates": 1, "variants": ["BMZ-DP"], "seed": 3,
         "mcmc": {"iterations": 50, "burn_in": 30, "adapt_window": 10}},
        {"n": 20, "j": 2, "replicates": 2, "variants": ["BMZ-DP", "BMZ"], "seed": 4,
         "mcmc": {"iterations": 20, "burn_in": 10, "adapt_window": 5}},
        {"n": 20, "j": 2, "replicates": 2, "variants": ["BZ-DP", "BMZ"], "seed": 8,
         "baseline_variant": "powerlaw",
         "mcmc": {"iterations": 12, "burn_in": 6, "adapt_window": 3}},
        {"n": 20, "j": 2, "replicates": 1, "variants": ["BMZ-DP", "BMZ"], "seed": 3,
         "mcmc": {"iterations": 20, "burn_in": 10}},
        {"n": 60, "j": 4, "replicates": 2, "variants": list(VARIANTS),
         "baseline_variant": "powerlaw", "seed": 7,
         "mcmc": {"iterations": 20, "burn_in": 10, "adapt_window": 10}},
        {"hyper": {"a0": 2.0}, "scales": {"rho_beta": 0.2},
         "mcmc": {"likelihood_mode": "literal", "thin": 5, "chains": 2}},
    ])
    def test_report_records_the_study_config_with_its_defaults(self, study):
        import recurjoint.study as study_module

        expected = {"n": 600, "j": 20, "replicates": 25, "variants": ["BMZ-DP"],
                    "baseline_variant": "piecewise", "seed": 0, "hyper": {}, "scales": {},
                    **study, "mcmc": {"iterations": 10_000, "burn_in": 5_000,
                                      **study.get("mcmc", {})}}
        resolved = study_module._resolve_study(json.loads(json.dumps(study)))[0]
        assert json.dumps(resolved, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_replicate_study_refuses_a_document_that_is_not_an_object(self, tmp_path, capsys):
        config = tmp_path / "study.json"
        config.write_text("[1]")
        assert main(["replicate-study", "--config", str(config),
                     "--out", str(tmp_path / "study")]) == 1
        assert capsys.readouterr().err == "error: the study config must be a JSON object, got [1]\n"
        assert not (tmp_path / "study").exists()

    def test_study_hyper_integral_floats_are_recorded_as_integers(self):
        import recurjoint.study as study_module

        resolved, _, hyper, _ = study_module._resolve_study(
            {"n": 20, "j": 2, "hyper": {"grid_count": 40.0, "truncation_mu": 3.0, "a0": 2.0}})
        assert (hyper.grid_count, hyper.truncation_mu) == (40, 3)
        assert json.dumps(resolved["hyper"], sort_keys=True) == \
            '{"a0": 2.0, "grid_count": 40, "truncation_mu": 3}'

    def test_study_integral_floats_are_recorded_as_integers(self):
        import recurjoint.study as study_module

        resolved, configs, _, _ = study_module._resolve_study(
            {"n": 20.0, "j": 2, "replicates": 1.0, "mcmc": {"iterations": 20.0, "burn_in": 10}})
        assert json.dumps(resolved["mcmc"], sort_keys=True) == '{"burn_in": 10, "iterations": 20}'
        assert (resolved["n"], resolved["replicates"]) == (20, 1)
        assert type(configs["BMZ-DP"].iterations) is int

    @pytest.mark.parametrize("n,j,message", [
        (40, 0, "j (clusters) must be at least 1, got 0"),
        (0, 4, "n (participants) must be at least 1, got 0"),
        (-6, 2, "n (participants) must be at least 1, got -6"),
        (10, 3, "n (10 participants) must divide evenly into j (3 clusters)"),
    ])
    def test_simulate_names_a_bad_size(self, tmp_path, capsys, n, j, message):
        assert main(["simulate", "--out", str(tmp_path / "sim"), "--n", str(n),
                     "--j", str(j)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("n,j,message", [
        (20, 0, "j (clusters) must be at least 1, got 0"),
        (0, 2, "n (participants) must be at least 1, got 0"),
        (-6, 2, "n (participants) must be at least 1, got -6"),
    ])
    def test_replicate_study_rejects_a_bad_size_before_any_cell(self, tmp_path, capsys,
                                                                monkeypatch, n, j, message):
        # the config is refused once, not recorded as a failure per cell
        import recurjoint.study as study_module

        monkeypatch.setattr(study_module, "_study_task",
                            lambda task: pytest.fail("a study cell ran"))
        config = tmp_path / "study.json"
        config.write_text(json.dumps({"n": n, "j": j, "replicates": 2,
                                      "variants": ["BMZ-DP", "BMZ"]}))
        assert main(["replicate-study", "--config", str(config),
                     "--out", str(tmp_path / "study")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "study").exists()

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
