"""Every command-line refusal of a value is its owner's refusal.

The CLI holds no range checks of its own (``--horizon``'s is the one
exception: 0 is its spelling of "never evict").  Each exit-2 case below
is raised by the library object that owns the field -- the same input
to that constructor or function raises ``ValueError`` -- and ``main()``
turns it into one line on stderr, spelling the field as its flag.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.core.log_format import FrontendSpec
from repro.fuzz import run_fuzz
from repro.pipeline import BackendSpec, SamplingSpec, StoreSink
from repro.store import (
    TraceStore,
    diff_summaries,
    latency_over_windows,
    load_run_summary,
)
from repro.topology import ScenarioConfig
from repro.topology.workload import WorkloadStages


def _latency(paths, **filters):
    with TraceStore.open(paths["store"]) as store:
        return latency_over_windows(store, **filters)


# (argv, what stderr must contain, the owner's refusal of the same input)
CASES = [
    (["trace", "--window", "0"], "--window must be positive",
     lambda p: BackendSpec.batch(window=0.0)),
    (["simulate", "--window", "-1"], "--window must be positive",
     lambda p: BackendSpec.batch(window=-1.0)),
    (["stream", "--window", "0"], "--window must be positive",
     lambda p: BackendSpec.streaming(window=0.0)),
    (["stream", "--chunk-size", "0"], "--chunk-size must be positive",
     lambda p: BackendSpec.streaming(chunk_size=0)),
    (["stream", "--skew-bound", "-1"], "--skew-bound must be non-negative",
     lambda p: BackendSpec.streaming(skew_bound=-1.0)),
    (["stream", "--shards", "-1"], "--shards must be",
     lambda p: BackendSpec.sharded(max_shards=-1)),
    (["stream", "--checkpoint", "{ck}"], "must be set together",
     lambda p: BackendSpec.streaming(checkpoint_path=p["ck"])),
    (["stream", "--checkpoint", "{ck}", "--checkpoint-every", "0"],
     "--checkpoint-every must be positive",
     lambda p: BackendSpec.streaming(checkpoint_path=p["ck"], checkpoint_every=0)),
    (["stream", "--shards", "2", "--checkpoint", "{ck}", "--checkpoint-every", "5"],
     "streaming-backend features",
     lambda p: BackendSpec(
         kind="sharded", max_shards=2, checkpoint_path=p["ck"], checkpoint_every=5
     )),
    (["stream", "--shards", "2", "--resume", "{ck}"], "streaming-backend features",
     lambda p: BackendSpec(kind="sharded", max_shards=2, resume_from=p["ck"])),
    (["stream", "--shards", "2", "--sample-adaptive", "5"], "adaptive sampling",
     lambda p: BackendSpec.sharded(max_shards=2, sampling=SamplingSpec.adaptive(5))),
    (["trace", "--sample-rate", "1.5"], "--sample-rate must be in (0, 1]",
     lambda p: SamplingSpec.uniform(1.5)),
    (["stream", "--sample-rate", "0"], "--sample-rate must be in (0, 1]",
     lambda p: SamplingSpec.uniform(0.0)),
    (["simulate", "--sample-budget", "0"], "--sample-budget must be positive",
     lambda p: SamplingSpec.budget(0)),
    (["stream", "--sample-adaptive", "0"], "--sample-adaptive must be positive",
     lambda p: SamplingSpec.adaptive(target_open_cags=0)),
    (["trace", "--runtime", "0"], "--runtime must be positive",
     lambda p: WorkloadStages(runtime=0.0)),
    (["simulate", "--runtime", "-1"], "--runtime must be positive",
     lambda p: WorkloadStages(runtime=-1.0)),
    (["trace", "--clock-skew", "-1"], "--clock-skew must be non-negative",
     lambda p: ScenarioConfig("rubis", clock_skew=-1.0)),
    (["trace", "--clients", "0"], "clients > 0",
     lambda p: ScenarioConfig("rubis", clients=0)),
    (["trace", "--max-threads", "0"], "workers must be positive",
     lambda p: ScenarioConfig("rubis", workers=(("app", 0),))),
    (["simulate", "--scenario", "bogus"], "unknown scenario 'bogus'",
     lambda p: ScenarioConfig("bogus")),
    (["simulate", "--workload-kind", "open", "--arrival-rate", "-1"],
     "arrival_rate > 0",
     lambda p: ScenarioConfig("rubis", workload_kind="open", arrival_rate=-1.0)),
    (["stream", "--input", "{log}", "--frontend", "oops"], "bad --frontend",
     lambda p: FrontendSpec.parse("oops")),
    (["stream", "--input", "{log}", "--frontend", "10.0.0.1:http"],
     "port must be an integer",
     lambda p: FrontendSpec.parse("10.0.0.1:http")),
    (["stream", "--input", "{log}", "--frontend", "10.0.0.1:99999"],
     "port must be in 1..65535",
     lambda p: FrontendSpec.parse("10.0.0.1:99999")),
    (["simulate", "--store", "{nodir}"], "store directory does not exist",
     lambda p: StoreSink(p["nodir"])),
    (["query", "latency", "--store", "{store}", "--bucket", "0"],
     "--bucket must be positive",
     lambda p: _latency(p, bucket_s=0.0)),
    (["query", "latency", "--store", "{store}", "--run", "nope"],
     "unknown run id 'nope'",
     lambda p: _latency(p, run_id="nope")),
    (["query", "runs", "--store", "{missing}"], "store file not found",
     lambda p: TraceStore.open(p["missing"])),
    (["query", "diff", "{golden}", "{golden}", "--tolerance", "0"],
     "--tolerance must be positive",
     lambda p: diff_summaries(
         load_run_summary(p["golden"]), load_run_summary(p["golden"]), tolerance=0.0
     )),
    (["query", "diff", "{log}", "{log}"], "not valid JSON",
     lambda p: load_run_summary(p["log"])),
    (["fuzz", "--seeds", "0"], "--seeds must be positive",
     lambda p: run_fuzz(seeds=0)),
    (["fuzz", "--budget", "-1"], "--budget must be positive",
     lambda p: run_fuzz(budget=-1.0)),
    (["fuzz", "--window", "0"], "--window must be positive",
     lambda p: run_fuzz(window=0.0)),
    (["fuzz", "--sample-rate", "1.5"], "--sample-rate must be in (0, 1]",
     lambda p: run_fuzz(sampling_rate=1.5)),
]


@pytest.fixture
def paths(tmp_path):
    log = tmp_path / "trace.log"
    log.write_text("", encoding="utf-8")
    store = tmp_path / "store.sqlite"
    TraceStore(store).close()
    return {
        "golden": str(Path(__file__).parent / "golden_store_run.json"),
        "ck": str(tmp_path / "ck.bin"),
        "log": str(log),
        "store": str(store),
        "missing": str(tmp_path / "absent.sqlite"),
        "nodir": str(tmp_path / "absent" / "store.sqlite"),
    }


@pytest.mark.parametrize(
    "argv, message, owner",
    CASES,
    ids=[" ".join(argv) for argv, _message, _owner in CASES],
)
def test_cli_refusal_is_the_owners_refusal(argv, message, owner, paths, capsys):
    argv = [arg.format(**paths) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before any work
    assert captured.err.count("\n") == 1
    assert message in captured.err
    with pytest.raises(ValueError):
        owner(paths)


class TestOutputPathsAreRefusedUpFront:
    def _refused(self, argv, capsys) -> str:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        return captured.err

    def test_fuzz_output_into_a_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "absent" / "fuzz.json"
        err = self._refused(["fuzz", "--seeds", "1", "--output", str(target)], capsys)
        assert f"output directory does not exist: {target.parent}" in err

    def test_report_output_into_a_missing_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_figure(scale):
            raise AssertionError("a figure ran before the output path was checked")

        monkeypatch.setattr("repro.cli.ALL_FIGURES", {"fig8": no_figure})
        target = tmp_path / "absent" / "report.txt"
        err = self._refused(["report", "--output", str(target)], capsys)
        assert f"output directory does not exist: {target.parent}" in err

    def test_query_export_output_into_a_missing_directory(
        self, paths, tmp_path, capsys
    ):
        # The run id is unknown too: the output path is refused before the
        # store is even read.
        target = tmp_path / "absent" / "run.json"
        err = self._refused(
            ["query", "export", "--store", paths["store"], "--run", "nope",
             "--output", str(target)],
            capsys,
        )
        assert f"output directory does not exist: {target.parent}" in err
