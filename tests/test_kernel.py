"""The swappable rank-kernel: selection policy, parity, and plumbing.

The kernel seam (``repro.core.kernel``) provides the candidate-selection
sweep in two forms: the pure-Python reference (the semantic definition,
from which every golden digest is generated) and an optional compiled
CPython extension.  These tests pin three things:

* **selection policy** -- ``REPRO_KERNEL=python`` pins the reference,
  ``auto`` prefers the extension and falls back silently without a
  toolchain, and nothing else is a mode;
* **parity** -- over the very same lists, the compiled kernel returns
  bit-identical decisions to the reference on a randomized battery of
  head-column states, and end-to-end correlation digests agree under
  both backends (the full golden matrices run under both kernels on the
  two CI legs);
* **binding** -- a ranker binds its selector once: streaming ingest
  grows the head lists under it, each call reads their length and the
  compiled kernel refuses (never reads past) a list shorter than
  ``head_ts``; pickling (checkpoint/resume) drops the bound selector and
  binds a new one in the restoring process.
"""

import math
import pickle
import random

import pytest

from helpers import tiny_config, use_kernel
import repro.core.kernel as kernel
from repro.core.interning import ActivityTable
from repro.core.kernel import (
    BLOCKED,
    DISCARD,
    EMPTY,
    RULE1,
    RULE2,
    STALL,
    kernel_info,
    kernel_provenance,
    reference,
)
from repro.core.kernel import _native


def native_module_or_none():
    try:
        _native.build()  # a no-op once built; retries a failed build
        return _native.load()
    except _native.KernelBuildError:
        return None


NATIVE = native_module_or_none()
needs_native = pytest.mark.skipif(
    NATIVE is None, reason="no C toolchain: compiled kernel unavailable"
)


@pytest.fixture
def fresh_cache():
    """Run with an empty kernel-resolution cache, restore it afterwards."""
    kernel._reset_cache()
    yield
    kernel._reset_cache()


class TestSelectionPolicy:
    def test_python_mode_pins_the_reference(self, fresh_cache):
        info = kernel_info("python")
        assert info.name == "python"
        assert info.make_selector is reference.make_selector

    def test_unknown_mode_raises(self, fresh_cache):
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            kernel_info("typo")

    def test_native_is_not_a_mode(self, fresh_cache):
        # ``auto`` picks the compiled kernel whenever it is built, so no
        # mode demands it
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            kernel_info("native")

    def test_env_var_drives_the_default(self, fresh_cache, monkeypatch):
        monkeypatch.setenv(kernel.ENV_VAR, "python")
        assert kernel_info().requested == "python"

    def test_auto_falls_back_silently_without_a_toolchain(
        self, fresh_cache, monkeypatch
    ):
        def refuse(**kwargs):
            raise _native.KernelBuildError("no C compiler found (test)")

        monkeypatch.setattr(_native, "load", refuse)
        info = kernel_info("auto")
        assert info.name == "python"
        assert "fallback" in info.reason
        assert info.make_selector is reference.make_selector

    @needs_native
    def test_auto_prefers_a_built_extension(self, fresh_cache):
        info = kernel_info("auto")
        assert info.name == "native"
        assert info.make_selector is NATIVE.make_selector

    def test_provenance_columns(self, fresh_cache):
        provenance = kernel_provenance("python")
        assert provenance == {
            "kernel": "python",
            "kernel_requested": "python",
            "kernel_reason": provenance["kernel_reason"],
        }
        assert provenance["kernel_reason"]


@needs_native
class TestDecisionParity:
    def test_decision_codes_agree(self):
        for name in ("RULE1", "RULE2", "EMPTY", "DISCARD", "BLOCKED", "STALL"):
            assert getattr(NATIVE, name) == getattr(reference, name), name

    def _random_state(self, rng, n):
        """A random-but-plausible head-column state plus the two dicts
        (pending sends, undelivered-send registry)."""
        head_ts, head_pri, head_seq, head_keys = [], [], [], []
        mmap_pending = {}
        undelivered = {}
        for slot in range(n):
            if rng.random() < 0.2:  # empty slot
                head_ts.append(math.inf)
                head_pri.append(9)
                head_seq.append(0)
                head_keys.append(None)
                continue
            # duplicate timestamps exercise the tie-breaks
            head_ts.append(rng.choice([0.5, 1.0, 1.5, rng.random() * 2]))
            pri = rng.choice([0, 1, 2, 3, 3])  # receives overrepresented
            head_pri.append(pri)
            head_seq.append(rng.randrange(100))
            if pri == 3:
                key = rng.randrange(5)
                head_keys.append(key)
                state = rng.random()
                if state < 0.35:
                    mmap_pending[key] = ["sentinel send"]  # Rule-1 eligible
                elif state < 0.7:
                    # blocked while a SEND is buffered or awaits fetch; a
                    # count of 0 (never stored by the ranker) reads as none
                    undelivered[key] = rng.choice([0, 1, 1, 2])
                # else: noise (no matching SEND anywhere)
            else:
                head_keys.append(None)
        return head_ts, head_pri, head_seq, head_keys, mmap_pending, undelivered

    def test_randomized_battery_matches_the_reference(self):
        """Both kernels bound over the very same lists, scratch included."""
        rng = random.Random(20260807)
        for case in range(400):
            n = rng.randrange(1, 7)
            columns = self._random_state(rng, n)
            blocked, discard = [0] * n, [0] * n
            ref = reference.make_selector(*columns, blocked, discard)
            nat = NATIVE.make_selector(*columns, blocked, discard)
            ceiling = rng.choice([math.inf, 0.75, 1.25, 2.5])
            ref_decision = ref(ceiling)
            ref_blocked, ref_discard = blocked[:], discard[:]
            blocked[:], discard[:] = [-1] * n, [-1] * n
            nat_decision = nat(ceiling)
            assert ref_decision == nat_decision, (case, ceiling, columns)
            code, value = ref_decision & 7, ref_decision >> 3
            if code == BLOCKED:
                assert blocked[:value] == ref_blocked[:value], (case, ceiling, columns)
            if code == DISCARD:
                assert discard[:value] == ref_discard[:value], (case, ceiling, columns)

    @staticmethod
    def _columns():
        """Two RECEIVE heads: slot 0 waits on an undelivered SEND, slot 1
        is noise."""
        from collections import Counter

        return [1.0, 2.0], [3, 3], [0, 1], [7, 8], {}, Counter({7: 1}), [0, 0], [0, 0]

    @pytest.mark.parametrize(
        "short", ["head_pri", "head_seq", "head_keys", "blocked_out", "discard_out"]
    )
    def test_a_list_shorter_than_head_ts_is_refused_at_call_time(self, short):
        """One binding, lists growing under it: a call finds the slot count
        in ``head_ts`` and refuses any other list that does not cover it,
        instead of reading past its end."""
        columns = self._columns()
        select = NATIVE.make_selector(*columns)
        assert select(math.inf) == DISCARD | 1 << 3
        names = ["head_ts", "head_pri", "head_seq", "head_keys"]
        lists = dict(zip(names, columns))
        lists.update(blocked_out=columns[6], discard_out=columns[7])
        for name, column in lists.items():  # every list but ``short`` grows
            if name != short:
                column.append(column[-1])
        with pytest.raises(ValueError, match="slot count"):
            select(math.inf)
        lists[short].append(lists[short][-1])
        assert select(math.inf) == DISCARD | 2 << 3  # the new slot is noise too
        assert lists["discard_out"][:2] == [1, 2]

    def test_a_list_shrunk_mid_sweep_is_refused(self):
        """A dict probe may run Python code; a list it shrinks is caught
        before the next read, never read past."""
        head_ts, head_pri, head_seq, head_keys = [1.0, 2.0], [3, 3], [0, 1], [7, 8]

        class Shrinking:
            def __bool__(self):
                del head_pri[:], head_keys[:]
                return False

        select = NATIVE.make_selector(
            head_ts, head_pri, head_seq, head_keys, {7: Shrinking()}, {}, [0, 0], [0, 0]
        )
        with pytest.raises(ValueError, match="slot count"):
            select(math.inf)

    def test_both_factories_take_the_one_registry_signature(self):
        """Eight positional arguments on both sides -- no separate
        buffered-send index -- and a Counter for the registry."""
        for factory in (reference.make_selector, NATIVE.make_selector):
            assert factory(*self._columns())(math.inf) == DISCARD | 1 << 3
            with pytest.raises(TypeError):
                factory(*self._columns(), {})
            with pytest.raises(TypeError):
                factory(*self._columns()[:-1])

    def test_the_compiled_kernel_takes_lists_only(self):
        from array import array

        columns = list(self._columns())
        columns[0] = array("d", columns[0])
        with pytest.raises(TypeError):
            NATIVE.make_selector(*columns)


class TestEndToEndParity:
    @pytest.fixture(scope="class")
    def tiny_deployment(self):
        from repro.topology import run_scenario

        return run_scenario(tiny_config())

    def _digest(self, activities):
        from repro.pipeline.backends import BackendSpec
        from repro.pipeline.equivalence import result_digest

        return result_digest(
            BackendSpec.batch(window=0.010).correlate(activities)
        )

    @needs_native
    def test_correlation_digest_identical_under_both_kernels(
        self, tiny_deployment, monkeypatch
    ):
        # correlation mutates activities in place (byte balances), so
        # each backend run classifies its own fresh activity objects
        use_kernel(monkeypatch, "python")
        python_digest = self._digest(tiny_deployment.activities())
        use_kernel(monkeypatch, "native")
        native_digest = self._digest(tiny_deployment.activities())
        assert python_digest == native_digest

    @pytest.mark.parametrize("mode", ["python", "native"])
    def test_fuzz_smoke_is_green(self, mode, monkeypatch):
        use_kernel(monkeypatch, mode)
        from repro.fuzz.harness import run_fuzz

        report = run_fuzz(seeds=5)
        assert report.failures == []


class TestRankerPlumbing:
    def _ranker(self, activities_by_node):
        from helpers import packed
        from repro.core.ranker import Ranker

        return Ranker(packed(activities_by_node), {}, window=0.010)

    def _drain(self, ranker):
        out = []
        while True:
            candidate = ranker.rank()
            if candidate is None:
                break
            out.append((candidate.node_key, candidate.seq))
        return out

    @staticmethod
    def _bound_kernel(ranker):
        """Which backend made the ranker's selector: the reference binds a
        closure, the compiled kernel a ``Selector``."""
        return "native" if type(ranker._select).__name__ == "Selector" else "python"

    @pytest.mark.parametrize("mode", ["python", "native"])
    def test_pickle_roundtrip_preserves_the_stream(self, mode, monkeypatch):
        use_kernel(monkeypatch, mode)
        from helpers import SyntheticTrace

        script = SyntheticTrace()
        script.three_tier_request(1, 0.001)
        script.three_tier_request(2, 0.050)
        by_node = script.by_node()

        uninterrupted = self._drain(self._ranker(by_node))
        ranker = self._ranker(by_node)
        prefix = [ranker.rank() for _ in range(3)]
        restored = pickle.loads(pickle.dumps(ranker))
        assert self._bound_kernel(restored) == kernel_info().name
        resumed = [(p.node_key, p.seq) for p in prefix] + self._drain(restored)
        assert resumed == uninterrupted

    @pytest.mark.parametrize("mode", ["python", "native"])
    def test_pickle_roundtrip_of_an_open_ranker_mid_stream(self, mode, monkeypatch):
        """An *unsealed* ranker pickled between two chunks: a selector
        bound over the restored lists, and the rest of the stream --
        later chunks, seal, tail -- continues exactly as if never
        interrupted."""
        use_kernel(monkeypatch, mode)
        from helpers import SyntheticTrace
        from repro.core.activity import sort_key
        from repro.core.ranker import Ranker

        script = SyntheticTrace()
        for index in range(6):
            script.three_tier_request(index + 1, 0.001 + index * 0.030)
        ordered = sorted(script.activities, key=sort_key)
        chunks = [ordered[i : i + 12] for i in range(0, len(ordered), 12)]
        cut = len(chunks) // 2

        def run(interrupt):
            ranker = Ranker(None, {}, window=0.010, skew_bound=0.005)
            out = []
            for index, chunk in enumerate(chunks):
                if interrupt and index == cut:
                    assert not ranker.sealed
                    bound = ranker._select
                    ranker = pickle.loads(pickle.dumps(ranker))
                    assert self._bound_kernel(ranker) == kernel_info().name
                    assert ranker._select is not None and ranker._select is not bound
                ranker.ingest(ActivityTable.from_activities(chunk))
                out += self._drain(ranker)
            ranker.seal()
            out += self._drain(ranker)
            assert ranker.exhausted()
            return out, ranker.stats

        straight, straight_stats = run(interrupt=False)
        resumed, resumed_stats = run(interrupt=True)
        # no engine feeds the mmap here, so RECEIVEs leave as noise
        assert len(straight) + straight_stats.noise_discarded == len(ordered)
        assert resumed == straight
        assert resumed_stats == straight_stats

    def _grow_node_by_node(self, by_node):
        """An open ranker fed ``by_node`` one node at a time (each ingest
        registers a new slot), drained after every ingest and after the
        seal: the delivered stream, the stats, and whether every step ran
        on the selector bound at construction."""
        from repro.core.ranker import Ranker

        ranker = Ranker(None, {}, window=0.010, skew_bound=0.005)
        bound = ranker._select
        same = [bound is not None]
        out = []
        for node in by_node:
            ranker.ingest(ActivityTable.from_activities(by_node[node]))
            out += self._drain(ranker)
            same.append(ranker._select is bound)
        ranker.seal()
        out += self._drain(ranker)
        assert ranker.exhausted() and len(ranker._head_ts) == len(by_node)
        return out, ranker.stats, all(same)

    @pytest.mark.parametrize("mode", ["python", "native"])
    def test_streaming_ingest_keeps_the_one_selector(self, mode, monkeypatch):
        from helpers import SyntheticTrace

        script = SyntheticTrace()
        script.three_tier_request(1, 0.001)
        script.three_tier_request(2, 0.040)
        by_node = script.by_node()
        use_kernel(monkeypatch, "python")
        reference_out, reference_stats, _ = self._grow_node_by_node(by_node)
        use_kernel(monkeypatch, mode)
        out, stats, one_selector = self._grow_node_by_node(by_node)
        assert one_selector
        assert out == reference_out
        assert stats == reference_stats
