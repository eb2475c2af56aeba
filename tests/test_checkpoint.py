"""Checkpoint/resume tests for the streaming backend.

The contract under test: a streaming run killed at any point past a
checkpoint and resumed from that checkpoint produces a final
``result_digest`` byte-identical to the uninterrupted run -- for every
library scenario, at kill points early, middle and late in the trace.
One test performs a real ``SIGKILL`` mid-run in a subprocess and resumes
in a *fresh* interpreter, which is the actual crash-recovery story
(the engine's key space and ids must survive the process boundary, not
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
from repro.core.correlator import IncrementalEngine
from repro.core.interning import ActivityTable, KeySpace
from repro.pipeline import BackendSpec, Pipeline, RunSource, StoreSink, result_digest
from repro.store import TraceStore
from repro.stream import load_checkpoint, save_checkpoint
from repro.stream.checkpoint import MAGIC, VERSION, config_fingerprint, resume_checkpoint
from repro.stream.reader import arrival_chunks
from repro.topology.library import run_scenario, scenario_names

WINDOW = 0.010
#: The process-wide interner snapshot files before version 7 carried.
OLD_INTERNER = {"contexts": [], "messages": [], "nodes": []}


def _scenario_table(name: str) -> ActivityTable:
    return ActivityTable.from_activities(run_scenario(name, seed=5).activities())


class _Crash(Exception):
    """The in-process stand-in for the process dying."""


def _run_until_checkpoint(backend: BackendSpec, table: ActivityTable):
    """Drive a checkpointing run and abandon it as soon as a checkpoint
    lands on disk -- the in-process stand-in for a crash.  (The hook
    raises at the first CAG handed out after the write, mid-chunk,
    exactly like a process dying between two chunk boundaries.)"""
    path = backend.checkpoint_path

    def crash_once_checkpointed(_cag):
        if os.path.exists(path):
            raise _Crash

    try:
        backend.correlate(table, on_cag=crash_once_checkpointed)
    except _Crash:
        pass


class TestKillAndResumeAllScenarios:
    @pytest.mark.parametrize("scenario", sorted(scenario_names()))
    def test_resume_digest_equals_uninterrupted(self, scenario, tmp_path):
        table = _scenario_table(scenario)
        total = len(table)
        uninterrupted = result_digest(BackendSpec.streaming(window=WINDOW).correlate(table))
        for fraction in (0.25, 0.50, 0.75):
            target = max(1, int(total * fraction))
            ckpt = str(tmp_path / f"{scenario}-{fraction}.ckpt")
            crashed = BackendSpec.streaming(
                window=WINDOW, checkpoint_path=ckpt, checkpoint_every=target
            )
            _run_until_checkpoint(crashed, table)
            assert os.path.exists(ckpt), (scenario, fraction)
            resumed = BackendSpec.streaming(window=WINDOW, resume_from=ckpt)
            result = resumed.correlate(table)
            assert result_digest(result) == uninterrupted, (scenario, fraction)
            # The resumed engine really skipped a prefix: it still saw
            # every activity exactly once in total.
            assert result.total_activities == total


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
            from repro.pipeline import BackendSpec
            from repro.topology.library import run_scenario

            table = ActivityTable.from_activities(
                run_scenario("five_tier_chain", seed=5).activities()
            )

            def die_once_checkpointed(_cag):
                if os.path.exists({ckpt!r}):
                    os.kill(os.getpid(), signal.SIGKILL)

            BackendSpec.streaming(
                window={WINDOW}, checkpoint_path={ckpt!r},
                checkpoint_every=len(table) // 2,
            ).correlate(table, on_cag=die_once_checkpointed)
            raise SystemExit("run finished without checkpointing")
            """
        )
        crashed = subprocess.run(
            [sys.executable, "-c", crasher], env=env, capture_output=True, text=True
        )
        assert crashed.returncode == -signal.SIGKILL, crashed.stderr
        assert os.path.exists(ckpt)
        # the engine carries its key space: nothing beside it to restore
        with open(ckpt, "rb") as handle:
            assert "interner" not in pickle.load(handle)

        driver = textwrap.dedent(
            f"""
            import sys
            from repro.core.interning import ActivityTable
            from repro.pipeline import BackendSpec, result_digest
            from repro.topology.library import run_scenario

            table = ActivityTable.from_activities(
                run_scenario("five_tier_chain", seed=5).activities()
            )
            resume_from = sys.argv[1] if len(sys.argv) > 1 else None
            backend = BackendSpec.streaming(window={WINDOW}, resume_from=resume_from)
            print(result_digest(backend.correlate(table)))
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
        backend = BackendSpec.streaming(
            window=WINDOW, checkpoint_path=ckpt, checkpoint_every=len(table) // 3
        )
        _run_until_checkpoint(backend, table)
        loaded = load_checkpoint(ckpt)
        assert loaded.ingested_count == loaded.engine.total_ingested
        assert loaded.config["window"] == WINDOW
        assert loaded.config["chunk_size"] == backend.chunk_size

    def test_config_mismatch_is_rejected(self, tmp_path):
        table = _scenario_table("cache_aside")
        ckpt = str(tmp_path / "mismatch.ckpt")
        backend = BackendSpec.streaming(
            window=WINDOW, checkpoint_path=ckpt, checkpoint_every=len(table) // 3
        )
        _run_until_checkpoint(backend, table)
        resumed = BackendSpec.streaming(window=0.002, resume_from=ckpt)
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
                    "interner": OLD_INTERNER,
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
        fails with a bare ``AttributeError`` (binding the selector over
        attributes it never had) that names no version; the version
        check has to refuse the file first."""
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
        with pytest.raises(AttributeError):
            pickle.loads(blob)
        path = tmp_path / "v3.ckpt"
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": MAGIC,
                    "version": 3,
                    "ingested_count": 0,
                    "config": {"window": WINDOW},
                    "interner": OLD_INTERNER,
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
                    "interner": OLD_INTERNER,
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
                    "interner": OLD_INTERNER,
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

    def test_version_6_file_is_refused_before_its_keyless_cags_are_unpickled(
        self, tmp_path, monkeypatch
    ):
        """Version 6 stored a snapshot of a process-wide interner beside
        the engine, whose tables and CAGs carried no key space of their
        own.  A CAG of that layout has no ``keys`` entry, so unpickling
        such a blob fails inside ``pickle``; the version check has to
        refuse the file before the blob is touched at all."""
        import repro.stream.checkpoint as checkpoint

        assert VERSION > 6
        root = Activity(
            type=ActivityType.BEGIN,
            timestamp=1.0,
            context=ContextId("web", "httpd", 1, 1),
            message=MessageId("10.0.0.9", 999, "10.0.0.1", 80, 100),
        )
        version_6_state = {
            key: value
            for key, value in CAG(root, KeySpace()).__getstate__().items()
            if key != "keys"
        }

        class Version6CAG:
            def __reduce__(self):
                return (object.__new__, (CAG,), version_6_state)

        blob = pickle.dumps(Version6CAG())
        with pytest.raises(KeyError):
            pickle.loads(blob)
        path = tmp_path / "v6.ckpt"
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": MAGIC,
                    "version": 6,
                    "ingested_count": 0,
                    "config": {"window": WINDOW},
                    "interner": OLD_INTERNER,
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
        with pytest.raises(ValueError, match="unsupported checkpoint version 6"):
            load_checkpoint(str(path))
        assert blob not in unpickled

    def test_version_7_file_is_refused_before_its_object_cags_are_unpickled(
        self, tmp_path, monkeypatch
    ):
        """Version 7 pickled every finished CAG as a list of vertex
        objects; a version-8 CAG is packed rows plus its root and END, and
        its state always says which (the ``rows`` entry).  A CAG of the
        old layout lacks that entry, so unpickling such a blob fails
        inside ``pickle``; the version check has to refuse the file,
        naming its version, before the blob is touched at all."""
        import repro.stream.checkpoint as checkpoint

        assert VERSION > 7
        root = Activity(
            type=ActivityType.BEGIN,
            timestamp=1.0,
            context=ContextId("web", "httpd", 1, 1),
            message=MessageId("10.0.0.9", 999, "10.0.0.1", 80, 100),
        )
        version_7_state = {
            key: value
            for key, value in CAG(root, KeySpace()).__getstate__().items()
            if key != "rows"
        }
        version_7_state["finished"] = True

        class Version7CAG:
            def __reduce__(self):
                return (object.__new__, (CAG,), version_7_state)

        blob = pickle.dumps(Version7CAG())
        with pytest.raises(KeyError):
            pickle.loads(blob)
        path = tmp_path / "v7.ckpt"
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": MAGIC,
                    "version": 7,
                    "ingested_count": 0,
                    "config": {"window": WINDOW},
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
        with pytest.raises(ValueError, match="unsupported checkpoint version 7"):
            load_checkpoint(str(path))
        assert blob not in unpickled

    def test_version_8_file_is_refused_before_its_index_map_objects_are_unpickled(
        self, tmp_path, monkeypatch
    ):
        """Version 8 pickled the engine's ``mmap`` and ``cmap`` as objects
        of wrapper classes in ``repro.core.index_maps``; a version-9
        engine holds plain dicts, and that module is gone, so unpickling
        such a blob fails inside ``pickle``.  The version check has to
        refuse the file, naming its version, before the blob is touched
        at all."""
        import types

        import repro.stream.checkpoint as checkpoint

        assert VERSION > 8
        module = types.ModuleType("repro.core.index_maps")

        class MessageMap:
            def __init__(self):
                self._pending = {}

        MessageMap.__module__, MessageMap.__qualname__ = module.__name__, "MessageMap"
        module.MessageMap = MessageMap
        monkeypatch.setitem(sys.modules, module.__name__, module)
        blob = pickle.dumps({"mmap": MessageMap()})
        monkeypatch.delitem(sys.modules, module.__name__)
        with pytest.raises(ModuleNotFoundError):
            pickle.loads(blob)
        path = tmp_path / "v8.ckpt"
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": MAGIC,
                    "version": 8,
                    "ingested_count": 0,
                    "config": {"window": WINDOW},
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
        with pytest.raises(ValueError, match="unsupported checkpoint version 8"):
            load_checkpoint(str(path))
        assert blob not in unpickled

    def test_version_9_file_is_refused_before_its_array_columns_are_unpickled(
        self, tmp_path, monkeypatch
    ):
        """Version 9 pickled the ranker's head columns in the container
        the active kernel wanted: ``array('d')``/``array('q')`` under the
        compiled kernel.  A version-10 ranker binds its selector as it is
        revived, and the compiled kernel takes lists only, so such a blob
        fails with a ``TypeError`` inside ``pickle`` wherever the
        compiled kernel is active.  The version check has to refuse the
        file, naming its version, before the blob is touched at all."""
        from array import array

        import repro.core.kernel as kernel
        import repro.stream.checkpoint as checkpoint
        from repro.core.ranker import Ranker

        assert VERSION > 9
        version_9_state = Ranker(None, {}, window=WINDOW).__getstate__()
        for name, typecode in (
            ("_head_ts", "d"),
            ("_head_pri", "q"),
            ("_head_seq", "q"),
            ("_blocked_out", "q"),
            ("_discard_out", "q"),
        ):
            version_9_state[name] = array(typecode, version_9_state[name])

        class Version9Ranker:
            def __reduce__(self):
                return (object.__new__, (Ranker,), version_9_state)

        blob = pickle.dumps(Version9Ranker())
        if kernel.kernel_info("auto").name == "native":
            monkeypatch.setenv(kernel.ENV_VAR, "auto")
            with pytest.raises(TypeError):
                pickle.loads(blob)
        path = tmp_path / "v9.ckpt"
        path.write_bytes(
            pickle.dumps(
                {
                    "magic": MAGIC,
                    "version": 9,
                    "ingested_count": 0,
                    "config": {"window": WINDOW},
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
        with pytest.raises(ValueError, match="unsupported checkpoint version 9"):
            load_checkpoint(str(path))
        assert blob not in unpickled

    def test_corrupted_engine_blob_is_rejected(self, tmp_path):
        table = _scenario_table("cache_aside")
        ckpt = tmp_path / "corrupt.ckpt"
        backend = BackendSpec.streaming(
            window=WINDOW,
            checkpoint_path=str(ckpt),
            checkpoint_every=len(table) // 3,
        )
        _run_until_checkpoint(backend, table)
        payload = pickle.loads(ckpt.read_bytes())
        assert payload["magic"] == MAGIC
        payload["engine_blob"] = payload["engine_blob"][:-8] + b"deadbeef"
        ckpt.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="checksum"):
            load_checkpoint(str(ckpt))

    def test_checkpoint_past_the_trace_is_rejected(self, tmp_path):
        table = _scenario_table("cache_aside")
        ckpt = str(tmp_path / "long.ckpt")
        backend = BackendSpec.streaming(
            window=WINDOW, checkpoint_path=ckpt, checkpoint_every=len(table) // 2
        )
        _run_until_checkpoint(backend, table)
        short = table[: len(table) // 4]
        resumed = BackendSpec.streaming(window=WINDOW, resume_from=ckpt)
        with pytest.raises(ValueError, match="only has"):
            resumed.correlate(short)

    def test_atomic_write_leaves_no_temp_file(self, tmp_path):
        table = _scenario_table("cache_aside")
        ckpt = tmp_path / "atomic.ckpt"
        engine = IncrementalEngine(window=WINDOW)
        save_checkpoint(str(ckpt), engine, ingested_count=0, config={})
        assert ckpt.exists()
        assert not (tmp_path / "atomic.ckpt.tmp").exists()

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="together"):
            BackendSpec.streaming(checkpoint_path="x.ckpt")
        with pytest.raises(ValueError, match="together"):
            BackendSpec.streaming(checkpoint_every=100)
        with pytest.raises(ValueError, match="positive"):
            BackendSpec.streaming(checkpoint_path="x.ckpt", checkpoint_every=0)


class TestEngineStateSurvivesPickling:
    def test_resume_from_packed_finished_cags_reaches_the_uninterrupted_store(self, tmp_path):
        """A checkpoint taken mid-run holds the CAGs finished so far as
        packed rows (plus root and END); a resume that stores them beside
        the CAGs it finishes itself stores exactly the uninterrupted
        run's requests."""
        source = RunSource(run=run_scenario("rubis", seed=5))
        store = tmp_path / "store.sqlite"

        def stored(run_id, backend):
            Pipeline(source, backend, stages=[], sinks=[StoreSink(store, run_id=run_id)]).run()

        stored("full", BackendSpec.streaming(window=WINDOW))
        ckpt = str(tmp_path / "mid.ckpt")
        crashing = BackendSpec.streaming(
            window=WINDOW, checkpoint_path=ckpt, checkpoint_every=len(source.activities()) // 2
        )

        def crash_once_checkpointed(_cag):
            if os.path.exists(ckpt):
                raise _Crash

        with pytest.raises(_Crash):
            Pipeline(source, crashing, stages=[]).run(on_cag=crash_once_checkpointed)
        revived = load_checkpoint(ckpt).engine.engine.finished_cags
        assert revived and all(cag.__getstate__()["rows"] is not None for cag in revived)
        stored("resumed", BackendSpec.streaming(window=WINDOW, resume_from=ckpt))
        with TraceStore.open(store) as opened:
            full, resumed = opened.run_digest("full"), opened.run_digest("resumed")
            assert opened.run_row("resumed")["requests"] == opened.run_row("full")["requests"]
        assert resumed == full

    def test_a_resumed_ranker_reads_the_engines_own_mmap(self, tmp_path):
        """The ranker probes the engine's ``mmap`` dict itself (Rule 1,
        ``is_noise``); both pickle into one checkpoint, and a resumed run
        must still share the one dict -- a copy would let the ranker read
        stale pending SENDs -- and reach the uninterrupted digest."""
        table = _scenario_table("cache_aside")
        backend = BackendSpec.streaming(window=WINDOW)
        uninterrupted = result_digest(backend.correlate(table))
        ckpt = str(tmp_path / "shared.ckpt")
        _run_until_checkpoint(
            BackendSpec.streaming(
                window=WINDOW, checkpoint_path=ckpt, checkpoint_every=len(table) // 2
            ),
            table,
        )
        engine, rest = resume_checkpoint(
            ckpt, config_fingerprint(backend), arrival_chunks(table, backend.chunk_size)
        )
        assert 0 < engine.total_ingested < len(table)
        assert type(engine.engine.mmap) is dict and type(engine.engine.cmap) is dict
        assert engine.ranker._mmap_pending is engine.engine.mmap
        for chunk in rest:
            engine.ingest(chunk)
            assert engine.ranker._mmap_pending is engine.engine.mmap
        engine.flush()
        assert result_digest(engine.result()) == uninterrupted

    def test_new_cags_after_resume_do_not_collide_with_revived_ids(self, tmp_path):
        """The engine's CAG id counter is module-global and restarts at
        zero in a fresh process; ``__setstate__`` must advance it past
        every revived id so a new CAG can never silently replace a live
        open CAG in the id-keyed bookkeeping."""
        table = _scenario_table("replicated_lb")
        ckpt = str(tmp_path / "ids.ckpt")
        crashed = BackendSpec.streaming(
            window=WINDOW, checkpoint_path=ckpt, checkpoint_every=len(table) // 2
        )
        _run_until_checkpoint(crashed, table)
        resumed = BackendSpec.streaming(window=WINDOW, resume_from=ckpt)
        result = resumed.correlate(table)
        ids = [cag.cag_id for cag in result.cags] + [
            cag.cag_id for cag in result.incomplete_cags
        ]
        assert len(ids) == len(set(ids))
