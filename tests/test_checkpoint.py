"""Checkpoint/resume tests for the streaming correlator.

The contract under test: a streaming run killed at any point past a
checkpoint and resumed from that checkpoint produces a final
``result_digest`` byte-identical to the uninterrupted run -- for every
library scenario, at kill points early, middle and late in the trace.
One test performs a real ``SIGKILL`` mid-run in a subprocess and resumes
in a *fresh* interpreter, which is the actual crash-recovery story
(interner state and engine ids must survive the process boundary, not
just a pickle round-trip inside one process).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.cag import CAG
from repro.core.interning import INTERNER, ActivityTable
from repro.pipeline import result_digest
from repro.stream import StreamingCorrelator, load_checkpoint, save_checkpoint
from repro.stream.checkpoint import MAGIC, VERSION
from repro.topology.library import run_scenario, scenario_names

WINDOW = 0.010


def _scenario_table(name: str) -> ActivityTable:
    return ActivityTable.from_activities(run_scenario(name, seed=5).activities())


def _run_until_checkpoint(correlator: StreamingCorrelator, table: ActivityTable):
    """Drive a checkpointing run and abandon it as soon as a checkpoint
    lands on disk -- the in-process stand-in for a crash.  (Abandoning at
    a *yield* suspends the generator mid-chunk, exactly like a process
    dying between two chunk boundaries.)"""
    path = correlator.checkpoint_path
    iterator = correlator.correlate_iter(table)
    for _cag in iterator:
        if os.path.exists(path):
            break
    iterator.close()


class TestKillAndResumeAllScenarios:
    @pytest.mark.parametrize("scenario", sorted(scenario_names()))
    def test_resume_digest_equals_uninterrupted(self, scenario, tmp_path):
        table = _scenario_table(scenario)
        total = len(table)
        uninterrupted = result_digest(StreamingCorrelator(window=WINDOW).correlate(table))
        for fraction in (0.25, 0.50, 0.75):
            target = max(1, int(total * fraction))
            ckpt = str(tmp_path / f"{scenario}-{fraction}.ckpt")
            crashed = StreamingCorrelator(
                window=WINDOW, checkpoint_path=ckpt, checkpoint_every=target
            )
            _run_until_checkpoint(crashed, table)
            assert os.path.exists(ckpt), (scenario, fraction)
            resumed = StreamingCorrelator(window=WINDOW, resume_from=ckpt)
            digest = result_digest(resumed.correlate(table))
            assert digest == uninterrupted, (scenario, fraction)
            # The resumed engine really skipped a prefix: it still saw
            # every activity exactly once in total.
            assert resumed.last_engine.total_ingested == total


class TestCrashKillSubprocess:
    def test_sigkill_mid_run_then_resume_in_fresh_interpreter(self, tmp_path):
        """A real crash: the checkpointing process dies with SIGKILL the
        moment its first checkpoint lands; a brand-new interpreter
        resumes from the file and must reproduce the uninterrupted
        digest byte for byte."""
        ckpt = str(tmp_path / "crash.ckpt")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))

        crasher = textwrap.dedent(
            f"""
            import os, signal
            from repro.core.interning import ActivityTable
            from repro.stream import StreamingCorrelator
            from repro.topology.library import run_scenario

            table = ActivityTable.from_activities(
                run_scenario("five_tier_chain", seed=5).activities()
            )
            correlator = StreamingCorrelator(
                window={WINDOW}, checkpoint_path={ckpt!r},
                checkpoint_every=len(table) // 2,
            )
            for _cag in correlator.correlate_iter(table):
                if os.path.exists({ckpt!r}):
                    os.kill(os.getpid(), signal.SIGKILL)
            raise SystemExit("run finished without checkpointing")
            """
        )
        crashed = subprocess.run(
            [sys.executable, "-c", crasher], env=env, capture_output=True, text=True
        )
        assert crashed.returncode == -signal.SIGKILL, crashed.stderr
        assert os.path.exists(ckpt)

        driver = textwrap.dedent(
            f"""
            import sys
            from repro.core.interning import ActivityTable
            from repro.pipeline import result_digest
            from repro.stream import StreamingCorrelator
            from repro.topology.library import run_scenario

            table = ActivityTable.from_activities(
                run_scenario("five_tier_chain", seed=5).activities()
            )
            resume_from = sys.argv[1] if len(sys.argv) > 1 else None
            correlator = StreamingCorrelator(window={WINDOW}, resume_from=resume_from)
            print(result_digest(correlator.correlate(table)))
            """
        )

        def digest_of(*argv: str) -> str:
            proc = subprocess.run(
                [sys.executable, "-c", driver, *argv],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip()

        assert digest_of(ckpt) == digest_of()


class TestCheckpointFileContract:
    def test_round_trip_preserves_counts_and_config(self, tmp_path):
        table = _scenario_table("cache_aside")
        ckpt = str(tmp_path / "rt.ckpt")
        correlator = StreamingCorrelator(
            window=WINDOW, checkpoint_path=ckpt, checkpoint_every=len(table) // 3
        )
        _run_until_checkpoint(correlator, table)
        loaded = load_checkpoint(ckpt)
        assert loaded.ingested_count == loaded.engine.total_ingested
        assert loaded.config["window"] == WINDOW
        assert loaded.config["chunk_size"] == correlator.chunk_size

    def test_config_mismatch_is_rejected(self, tmp_path):
        table = _scenario_table("cache_aside")
        ckpt = str(tmp_path / "mismatch.ckpt")
        correlator = StreamingCorrelator(
            window=WINDOW, checkpoint_path=ckpt, checkpoint_every=len(table) // 3
        )
        _run_until_checkpoint(correlator, table)
        resumed = StreamingCorrelator(window=0.002, resume_from=ckpt)
        with pytest.raises(ValueError, match="window"):
            resumed.correlate(table)

    def test_not_a_checkpoint_is_rejected(self, tmp_path):
        path = tmp_path / "garbage.ckpt"
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(ValueError, match="not a PreciseTracer"):
            load_checkpoint(str(path))

    def test_version_1_file_fails_typed_before_its_blob_is_unpickled(self, tmp_path):
        """A version-1 blob names classes that no longer exist; the only
        way such a file may fail is the version check, not an import
        error from inside ``pickle.loads``."""
        blob = b"crepro.stream.ranker\nStreamingRanker\n."
        with pytest.raises(ModuleNotFoundError):
            pickle.loads(blob)
        path = tmp_path / "v1.ckpt"
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": MAGIC,
                    "version": 1,
                    "ingested_count": 0,
                    "config": {"window": WINDOW, "sample_interval": 256},
                    "interner": None,
                    "engine_blob": blob,
                    "engine_sha256": hashlib.sha256(blob).hexdigest(),
                }
            )
        )
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_checkpoint(str(path))

    def test_version_2_file_fails_typed_not_with_a_keyerror_from_setstate(self, tmp_path):
        """Version 2 pickled each CAG as edge objects and a positional
        parents map; the columnar ``CAG.__setstate__`` cannot read that
        state, so the version check has to refuse the file first."""
        root = Activity(
            type=ActivityType.BEGIN,
            timestamp=1.0,
            context=ContextId("web", "httpd", 1, 1),
            message=MessageId("10.0.0.9", 999, "10.0.0.1", 80, 100),
        )
        version_2_state = {
            "cag_id": 0,
            "root": root,
            "vertices": [root],
            "edges": [],
            "parents": {0: []},
            "finished": False,
            "newest_timestamp": 1.0,
        }

        class Version2CAG:
            def __reduce__(self):
                return (object.__new__, (CAG,), version_2_state)

        blob = pickle.dumps(Version2CAG())
        with pytest.raises(KeyError):
            pickle.loads(blob)
        path = tmp_path / "v2.ckpt"
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": MAGIC,
                    "version": 2,
                    "ingested_count": 0,
                    "config": {"window": WINDOW},
                    "interner": INTERNER.snapshot(),
                    "engine_blob": blob,
                    "engine_sha256": hashlib.sha256(blob).hexdigest(),
                }
            )
        )
        with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
            load_checkpoint(str(path))

    def test_version_3_file_is_refused_not_revived_into_a_ranker_without_cursors(
        self, tmp_path
    ):
        """Version 3 pickled the ranker's window as per-node deques beside
        the sources, with a buffered-send index and per-source future
        counters.  ``Ranker.__setstate__`` takes any dict, so such a blob
        would revive without complaint and fail at its first ``rank()``;
        the version check has to refuse the file first."""
        from collections import Counter, deque

        from repro.core.ranker import Ranker

        assert VERSION > 3
        version_3_state = {
            "_window": WINDOW,
            "_slack": WINDOW + 1e-9,
            "_sealed": False,
            "ceiling": float("-inf"),
            "_future_send_keys": Counter(),
            "_sources": {},
            "_queues": {0: deque()},
            "_slot_of": {0: 0},
            "_slot_nodes": [0],
            "_slot_queues": [deque()],
            "_head_ts": [float("inf")],
            "_head_pri": [9],
            "_head_seq": [0],
            "_head_keys": [None],
            "_blocked_out": [0],
            "_discard_out": [0],
            "_buffered_send_index": {},
            "_low_cache": None,
            "_low_node": None,
            "_low_dirty": True,
            "_source_low_cache": None,
            "_source_low_dirty": True,
            "_buffered_total": 0,
            "_select": None,
            "_kernel": None,
        }

        class Version3Ranker:
            def __reduce__(self):
                return (object.__new__, (Ranker,), version_3_state)

        blob = pickle.dumps(Version3Ranker())
        revived = pickle.loads(blob)  # no error here: that is the problem
        with pytest.raises(AttributeError):
            revived.rank()
        path = tmp_path / "v3.ckpt"
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": MAGIC,
                    "version": 3,
                    "ingested_count": 0,
                    "config": {"window": WINDOW},
                    "interner": INTERNER.snapshot(),
                    "engine_blob": blob,
                    "engine_sha256": hashlib.sha256(blob).hexdigest(),
                }
            )
        )
        with pytest.raises(ValueError, match="unsupported checkpoint version 3"):
            load_checkpoint(str(path))

    def test_version_4_file_is_refused_not_revived_into_a_source_without_a_table(
        self, tmp_path
    ):
        """Version 4 pickled each source's rows as an activity list with a
        timestamp list and a send-key list beside it.  A source is
        revived by plain attribute assignment, so such a blob comes back
        without complaint and fails at its first fetch (there is no
        table to read); the version check has to refuse the file first."""
        from repro.core.ranker import ActivitySource

        assert VERSION > 4
        row = Activity(
            type=ActivityType.SEND,
            timestamp=1.0,
            context=ContextId("web", "httpd", 1, 1),
            message=MessageId("10.0.0.1", 999, "10.0.0.2", 80, 100),
        )
        version_4_state = {
            "node": row.node_key,
            "_activities": [row],
            "_ts": [1.0],
            "_send_keys": [row.message_key],
            "head": 0,
            "fence": 0,
            "_base": 0,
            "_send_positions": None,
            "_registry": None,
            "next_timestamp": 1.0,
            "frontier": 1.0,
        }

        class Version4Source:
            def __reduce__(self):
                return (object.__new__, (ActivitySource,), version_4_state)

        blob = pickle.dumps(Version4Source())
        revived = pickle.loads(blob)  # no error here: that is the problem
        assert revived.fetch_until(2.0) == 1  # the bisect still finds its list ...
        with pytest.raises(AttributeError):
            revived.buffered()  # ... and nothing can say what was fetched
        path = tmp_path / "v4.ckpt"
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": MAGIC,
                    "version": 4,
                    "ingested_count": 0,
                    "config": {"window": WINDOW},
                    "interner": INTERNER.snapshot(),
                    "engine_blob": blob,
                    "engine_sha256": hashlib.sha256(blob).hexdigest(),
                }
            )
        )
        with pytest.raises(ValueError, match="unsupported checkpoint version 4"):
            load_checkpoint(str(path))

    def test_version_5_file_is_refused_before_its_object_column_is_unpickled(
        self, tmp_path, monkeypatch
    ):
        """Version 5 pickled each source's table with an object column
        (and a view cache) beside the packed ones.  The table has no slot
        for either any more, so unpickling such a blob fails inside
        ``pickle``; the version check has to refuse the file before the
        blob is touched at all."""
        import repro.stream.checkpoint as checkpoint

        version_5_state = (
            None,
            {
                "_types": ActivityTable()._types,
                "_objects": [],
                "_cache": {},
            },
        )

        class Version5Table:
            def __reduce__(self):
                return (object.__new__, (ActivityTable,), version_5_state)

        blob = pickle.dumps(Version5Table())
        with pytest.raises(AttributeError):
            pickle.loads(blob)
        path = tmp_path / "v5.ckpt"
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": MAGIC,
                    "version": 5,
                    "ingested_count": 0,
                    "config": {"window": WINDOW},
                    "interner": INTERNER.snapshot(),
                    "engine_blob": blob,
                    "engine_sha256": hashlib.sha256(blob).hexdigest(),
                }
            )
        )
        unpickled = []
        real_loads = pickle.loads

        def watching_loads(data, *args, **kwargs):
            unpickled.append(data)
            return real_loads(data, *args, **kwargs)

        monkeypatch.setattr(checkpoint.pickle, "loads", watching_loads)
        with pytest.raises(ValueError, match="unsupported checkpoint version 5"):
            load_checkpoint(str(path))
        assert blob not in unpickled

    def test_corrupted_engine_blob_is_rejected(self, tmp_path):
        table = _scenario_table("cache_aside")
        ckpt = tmp_path / "corrupt.ckpt"
        correlator = StreamingCorrelator(
            window=WINDOW,
            checkpoint_path=str(ckpt),
            checkpoint_every=len(table) // 3,
        )
        _run_until_checkpoint(correlator, table)
        payload = pickle.loads(ckpt.read_bytes())
        assert payload["magic"] == MAGIC
        payload["engine_blob"] = payload["engine_blob"][:-8] + b"deadbeef"
        ckpt.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="checksum"):
            load_checkpoint(str(ckpt))

    def test_checkpoint_past_the_trace_is_rejected(self, tmp_path):
        table = _scenario_table("cache_aside")
        ckpt = str(tmp_path / "long.ckpt")
        correlator = StreamingCorrelator(
            window=WINDOW, checkpoint_path=ckpt, checkpoint_every=len(table) // 2
        )
        _run_until_checkpoint(correlator, table)
        short = table[: len(table) // 4]
        resumed = StreamingCorrelator(window=WINDOW, resume_from=ckpt)
        with pytest.raises(ValueError, match="only has"):
            resumed.correlate(short)

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        table = _scenario_table("cache_aside")
        ckpt = tmp_path / "atomic.ckpt"
        engine = StreamingCorrelator(window=WINDOW).make_engine()
        save_checkpoint(str(ckpt), engine, ingested_count=0, config={})
        assert ckpt.exists()
        assert not (tmp_path / "atomic.ckpt.tmp").exists()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="together"):
            StreamingCorrelator(checkpoint_path="x.ckpt")
        with pytest.raises(ValueError, match="together"):
            StreamingCorrelator(checkpoint_every=100)
        with pytest.raises(ValueError, match="positive"):
            StreamingCorrelator(checkpoint_path="x.ckpt", checkpoint_every=0)


class TestEngineStateSurvivesPickling:
    def test_new_cags_after_resume_do_not_collide_with_revived_ids(self, tmp_path):
        """The engine's CAG id counter is module-global and restarts at
        zero in a fresh process; ``__setstate__`` must advance it past
        every revived id so a new CAG can never silently replace a live
        open CAG in the id-keyed bookkeeping."""
        table = _scenario_table("replicated_lb")
        ckpt = str(tmp_path / "ids.ckpt")
        crashed = StreamingCorrelator(
            window=WINDOW, checkpoint_path=ckpt, checkpoint_every=len(table) // 2
        )
        _run_until_checkpoint(crashed, table)
        resumed = StreamingCorrelator(window=WINDOW, resume_from=ckpt)
        result = resumed.correlate(table)
        ids = [cag.cag_id for cag in result.cags] + [
            cag.cag_id for cag in result.incomplete_cags
        ]
        assert len(ids) == len(set(ids))
