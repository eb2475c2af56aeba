"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list_prints_every_figure(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for figure_id in ("fig8", "fig15", "fig17", "sec5.2"):
            assert figure_id in output

    def test_trace_command_reports_accuracy(self, capsys):
        code = main(
            [
                "trace",
                "--clients",
                "15",
                "--runtime",
                "3",
                "--window",
                "0.01",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "path accuracy" in output
        assert "100.00 %" in output
        assert "latency percentages" in output

    def test_trace_command_with_fault_and_noise(self, capsys):
        code = main(
            [
                "trace",
                "--clients",
                "10",
                "--runtime",
                "3",
                "--fault",
                "ejb_delay",
                "--noise",
                "--seed",
                "6",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "causal paths" in output

    def test_stream_command_correlates_incrementally(self, capsys):
        code = main(
            [
                "stream",
                "--clients",
                "12",
                "--runtime",
                "3",
                "--seed",
                "9",
                "--horizon",
                "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "incremental correlation" in output
        assert "finished paths" in output
        assert "100.00 %" in output

    def test_stream_command_sharded_mode(self, capsys):
        code = main(
            ["stream", "--clients", "10", "--runtime", "3", "--seed", "9", "--shards", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sharded correlation" in output
        assert "100.00 %" in output

    def test_stream_command_reads_a_log_file(self, tmp_path, capsys, tiny_run):
        from repro.core.log_format import format_record

        path = tmp_path / "trace.log"
        records = sorted(tiny_run.all_records(), key=lambda r: r.timestamp)
        path.write_text(
            "\n".join(format_record(record) for record in records) + "\n",
            encoding="utf-8",
        )
        code = main(
            ["stream", "--input", str(path), "--frontend", "10.0.0.1:80"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "finished paths" in output

    def test_stream_input_requires_frontend(self, capsys):
        code = main(["stream", "--input", "/tmp/nope.log"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--input requires --frontend" in err

    def test_stream_bad_frontend_exits_2_with_one_line(self, capsys):
        code = main(["stream", "--input", "/tmp/nope.log", "--frontend", "oops"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "bad --frontend" in err

    def test_stream_input_rejects_simulation_flags(self, tmp_path, capsys):
        path = tmp_path / "trace.log"
        path.write_text("", encoding="utf-8")
        code = main(
            ["stream", "--input", str(path), "--frontend", "10.0.0.1:80", "--noise"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "cannot be combined with --input" in err

    def test_stream_bad_chunk_size_exits_2_with_one_line(self, capsys):
        code = main(["stream", "--chunk-size", "0", "--runtime", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--chunk-size" in err

    def test_stream_missing_input_file_exits_2_with_one_line(self, capsys):
        code = main(["stream", "--input", "/tmp/definitely-not-here.log",
                     "--frontend", "10.0.0.1:80"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--input file not found" in err

    def test_stream_unknown_scenario_exits_2_with_one_line(self, capsys):
        code = main(["stream", "--scenario", "warehouse", "--runtime", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown scenario 'warehouse'" in err
        assert "fanout_aggregator" in err

    def test_stream_runs_a_library_scenario(self, capsys):
        code = main(
            ["stream", "--scenario", "cache_aside", "--clients", "15",
             "--runtime", "3", "--seed", "9"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "scenario cache_aside" in output
        assert "100.00 %" in output

    def test_stream_sample_rate_reports_sampled_out(self, capsys):
        code = main(
            ["stream", "--clients", "20", "--runtime", "3", "--seed", "7",
             "--sample-rate", "0.3"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "requests sampled out" in output
        # a sampled run is meant to miss requests: no oracle accuracy line
        assert "path accuracy" not in output

    def test_trace_sample_rate_reports_fidelity_not_accuracy(self, capsys):
        code = main(
            ["trace", "--clients", "15", "--runtime", "3", "--seed", "5",
             "--sample-rate", "0.5"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "sample fraction" in output
        assert "pattern coverage" in output
        assert "path accuracy" not in output

    def test_simulate_sample_budget_runs(self, capsys):
        code = main(
            ["simulate", "--scenario", "cache_aside", "--clients", "15",
             "--runtime", "3", "--seed", "9", "--sample-budget", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "requests sampled out" in output

    def test_sample_rate_out_of_range_exits_2_with_one_line(self, capsys):
        code = main(["trace", "--clients", "5", "--sample-rate", "1.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--sample-rate must be in (0, 1]" in err

    def test_sample_budget_non_positive_exits_2_with_one_line(self, capsys):
        code = main(["stream", "--runtime", "2", "--sample-budget", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--sample-budget must be positive" in err

    def test_sample_flags_are_mutually_exclusive(self, capsys):
        code = main(
            ["simulate", "--sample-rate", "0.5", "--sample-budget", "10"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "mutually exclusive" in err

    def test_stream_sampled_json_document(self, capsys):
        import json

        code = main(
            ["stream", "--clients", "20", "--runtime", "3", "--seed", "7",
             "--sample-rate", "0.3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sampling"] == "uniform (rate=0.3)"
        assert payload["sampled_out_requests"] > 0
        assert "accuracy" not in payload

    def test_trace_json_output_is_a_trace_summary(self, capsys):
        import json

        code = main(
            ["trace", "--clients", "15", "--runtime", "3", "--seed", "5", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "trace"
        assert payload["accuracy"] == 1.0
        assert payload["requests"] > 0
        assert payload["backend"].startswith("batch")
        assert payload["patterns"]  # trace_summary's ranked pattern rows
        # where the drive's wall clock went; no store, so no hook
        assert 0 < payload["first_cag_s"] < payload["wall_clock_s"]
        assert payload["correlation_time_s"] < payload["wall_clock_s"]
        assert payload["hook_time_s"] == 0.0

    def test_batch_store_ingest_starts_before_the_drain_ends(
        self, capsys, tmp_path, monkeypatch
    ):
        import gc
        import json

        # the 941-activity run is shorter than one production slice
        monkeypatch.setattr("repro.core.correlator.FLUSH_SLICE_SAMPLES", 1)
        # The drive takes ~25 ms; a full collection of the garbage earlier
        # tests left behind (~45 ms) landing inside it would decide the
        # ratio below, so it is paid here, before the clock starts.
        gc.collect()
        code = main(
            ["simulate", "--scenario", "rubis", "--clients", "40", "--runtime", "4",
             "--seed", "17", "--store", str(tmp_path / "t.sqlite"), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["incomplete_paths"] == 0
        assert 0 < payload["hook_time_s"] < payload["wall_clock_s"]
        # the first row is stored while most of the drive is still ahead
        assert payload["first_cag_s"] < 0.8 * payload["wall_clock_s"]

    def test_simulate_json_output(self, capsys):
        import json

        code = main(
            ["simulate", "--scenario", "cache_aside", "--runtime", "3",
             "--seed", "9", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "simulate"
        assert payload["scenario"] == "cache_aside"
        assert payload["accuracy"] == 1.0

    def test_stream_json_output_sharded(self, capsys):
        import json

        code = main(
            ["stream", "--clients", "10", "--runtime", "3", "--seed", "9",
             "--shards", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "stream"
        assert payload["backend"].startswith("sharded")
        assert payload["shards"] >= 1
        assert payload["accuracy"] == 1.0
        # the merged CAG list only exists after the pass
        assert payload["correlation_time_s"] < payload["first_cag_s"]
        assert payload["first_cag_s"] <= payload["wall_clock_s"]

    def test_simulate_json_with_list_exits_2_with_one_line(self, capsys):
        code = main(["simulate", "--list", "--json"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--json cannot be combined with --list" in err

    def test_simulate_lists_scenarios(self, capsys):
        assert main(["simulate", "--list"]) == 0
        output = capsys.readouterr().out
        for name in ("rubis", "five_tier_chain", "fanout_aggregator",
                     "cache_aside", "replicated_lb"):
            assert name in output

    def test_simulate_unknown_scenario_exits_2_with_one_line(self, capsys):
        code = main(["simulate", "--scenario", "bogus"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown scenario 'bogus'" in err

    def test_simulate_runs_a_scenario_and_reports_accuracy(self, capsys):
        code = main(
            ["simulate", "--scenario", "fanout_aggregator", "--runtime", "3",
             "--seed", "7"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "scenario                : fanout_aggregator" in output
        assert "path accuracy           : 100.00 %" in output
        assert "aggd2listingd" in output  # fan-out branch segment present

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "--window", "0"], "window must be positive"),
            (["trace", "--window", "-1"], "window must be positive"),
            (["simulate", "--runtime", "-1"], "runtime must be positive"),
            (["trace", "--runtime", "0"], "runtime must be positive"),
            (["stream", "--runtime", "-1"], "runtime must be positive"),
            (["stream", "--horizon", "-1"], "--horizon must be non-negative"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_bad_run_flags_exit_2_with_one_line(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert message in captured.err

    def test_fuzz_command_runs_and_writes_the_report(self, capsys, tmp_path):
        import json

        out = tmp_path / "fuzz_report.json"
        code = main(["fuzz", "--seeds", "2", "--output", str(out)])
        assert code == 0
        output = capsys.readouterr().out
        assert "fuzz: 2/2 seeds run, 0 failing" in output
        assert f"fuzz report written to {out}" in output
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["ok"] is True
        assert payload["seeds_run"] == 2
        assert payload["failures"] == []

    def test_fuzz_budget_bounds_the_sweep(self, capsys):
        code = main(["fuzz", "--seeds", "50", "--budget", "0.000001"])
        assert code == 0
        output = capsys.readouterr().out
        assert "budget exhausted" in output

    def test_fuzz_bad_flags_exit_2_with_one_line(self, capsys):
        for argv, message in [
            (["fuzz", "--seeds", "0"], "--seeds"),
            (["fuzz", "--sample-rate", "1.5"], "--sample-rate"),
            (["fuzz", "--budget", "-1"], "--budget"),
            (["fuzz", "--window", "0"], "--window"),
        ]:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert message in err

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])


@pytest.fixture(scope="module")
def query_store(tmp_path_factory):
    """A store with two identical finalized runs, written through the CLI."""
    path = tmp_path_factory.mktemp("querystore") / "store.sqlite"
    base = ["simulate", "--scenario", "cache_aside", "--clients", "10",
            "--runtime", "2", "--seed", "3", "--store", str(path)]
    assert main(base + ["--run-id", "day1"]) == 0
    assert main(base + ["--run-id", "day2"]) == 0
    return str(path)


class TestQueryCli:
    def test_simulate_store_reports_the_run(self, tmp_path, capsys):
        import json

        path = tmp_path / "s.sqlite"
        code = main(
            ["simulate", "--scenario", "cache_aside", "--runtime", "2",
             "--seed", "3", "--store", str(path), "--run-id", "r1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["store"] == str(path)
        assert payload["store_run_id"] == "r1"
        assert path.exists()

    def test_stream_store_ingests_live(self, tmp_path, capsys):
        path = tmp_path / "s.sqlite"
        code = main(
            ["stream", "--scenario", "cache_aside", "--clients", "10",
             "--runtime", "2", "--seed", "3", "--store", str(path),
             "--run-id", "live"]
        )
        assert code == 0
        assert "stored as run" in capsys.readouterr().out
        assert main(["query", "runs", "--store", str(path)]) == 0
        output = capsys.readouterr().out
        assert "live" in output and "finalized" in output
        assert "streaming" in output

    def test_query_runs_lists_both_runs(self, query_store, capsys):
        assert main(["query", "runs", "--store", query_store]) == 0
        output = capsys.readouterr().out
        assert "day1" in output and "day2" in output
        assert output.count("finalized") == 2

    def test_query_latency_json_has_percentiles(self, query_store, capsys):
        import json

        code = main(
            ["query", "latency", "--store", query_store, "--run", "day1",
             "--json"]
        )
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)
        assert row["count"] > 0
        assert row["p50_s"] <= row["p95_s"] <= row["p99_s"] <= row["max_s"]

    def test_query_latency_bucketed(self, query_store, capsys):
        code = main(
            ["query", "latency", "--store", query_store, "--run", "day1",
             "--bucket", "1.0"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "t=" in output and "p50=" in output

    def test_query_patterns_and_drift(self, query_store, capsys):
        assert main(
            ["query", "patterns", "--store", query_store, "--run", "day1"]
        ) == 0
        output = capsys.readouterr().out
        assert "paths" in output and "%" in output
        assert main(
            ["query", "patterns", "--store", query_store, "--run", "day1",
             "--against", "day2"]
        ) == 0
        drift = capsys.readouterr().out
        # Identical runs: every pattern is common with zero share movement.
        assert "common" in drift
        assert "new" not in drift.replace("\n", " ").split()
        assert "+0.0 pp" in drift

    def test_query_diff_identical_runs_passes(self, query_store, capsys):
        code = main(["query", "diff", "day1", "day2", "--store", query_store])
        assert code == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_query_diff_flags_injected_regression(
        self, query_store, tmp_path, capsys
    ):
        import json

        out = tmp_path / "day1.json"
        assert main(
            ["query", "export", "--store", query_store, "--run", "day1",
             "--output", str(out)]
        ) == 0
        capsys.readouterr()
        golden = json.loads(out.read_text(encoding="utf-8"))
        for row in golden["patterns"]:
            for key in ("mean_s", "max_s", "p50_s", "p90_s", "p95_s", "p99_s"):
                row[key] = row[key] / 2  # baseline twice as fast => regression
        perturbed = tmp_path / "perturbed.json"
        perturbed.write_text(json.dumps(golden), encoding="utf-8")

        code = main(
            ["query", "diff", str(perturbed), "day1", "--store", query_store]
        )
        assert code == 1
        output = capsys.readouterr().out
        assert "verdict: FAIL" in output
        assert "REGRESSED" in output

    def test_query_diff_exported_file_against_its_own_run(
        self, query_store, tmp_path, capsys
    ):
        out = tmp_path / "day1.json"
        assert main(
            ["query", "export", "--store", query_store, "--run", "day1",
             "--output", str(out)]
        ) == 0
        code = main(["query", "diff", str(out), "day1", "--store", query_store])
        assert code == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_query_diff_json_payload(self, query_store, capsys):
        import json

        code = main(
            ["query", "diff", "day1", "day2", "--store", query_store, "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["regressions"] == 0
        assert all(row["status"] == "common" for row in payload["rows"])

    def test_query_without_store_exits_2_with_one_line(self, capsys):
        code = main(["query", "latency", "--run", "day1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--store FILE is required" in err

    def test_query_missing_store_file_exits_2_with_one_line(self, capsys):
        code = main(["query", "runs", "--store", "/tmp/definitely-absent.sqlite"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "store file not found" in err

    def test_query_unknown_run_id_exits_2_with_one_line(self, query_store, capsys):
        code = main(
            ["query", "latency", "--store", query_store, "--run", "nope"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown run id 'nope'" in err
        assert "day1" in err  # the known ids are listed

    def test_query_unknown_pattern_exits_2_with_one_line(self, query_store, capsys):
        code = main(
            ["query", "latency", "--store", query_store, "--run", "day1",
             "--pattern", "bogus-pattern"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no pattern matches" in err

    def test_query_diff_needs_two_runs(self, query_store, capsys):
        for runs in ([], ["day1"], ["day1", "day2", "day1"]):
            code = main(["query", "diff", *runs, "--store", query_store])
            assert code == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "diff needs exactly two runs" in err

    def test_query_diff_run_ids_without_store_exit_2(self, capsys):
        code = main(["query", "diff", "day1", "day2"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--store FILE is required" in err

    def test_query_diff_non_summary_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "other"}', encoding="utf-8")
        code = main(["query", "diff", str(bad), str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "not an exported run summary" in err

    def test_query_bad_bucket_and_tolerance_exit_2(self, query_store, capsys):
        for argv, message in [
            (["query", "latency", "--store", query_store, "--run", "day1",
              "--bucket", "0"], "--bucket must be positive"),
            (["query", "diff", "day1", "day2", "--store", query_store,
              "--tolerance", "-0.5"], "--tolerance must be positive"),
        ]:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert message in err

    def test_run_id_without_store_exits_2_with_one_line(self, capsys):
        code = main(["simulate", "--runtime", "2", "--run-id", "r1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--run-id requires --store" in err

    def test_reusing_a_finalized_run_id_exits_2(self, query_store, capsys):
        code = main(
            ["simulate", "--scenario", "cache_aside", "--runtime", "2",
             "--seed", "3", "--store", query_store, "--run-id", "day1"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "already exists (finalized)" in err
