"""The swappable rank-kernel: selection policy, parity, and plumbing.

The kernel seam (``repro.core.kernel``) provides the candidate-selection
sweep in two forms: the pure-Python reference (the semantic definition,
from which every golden digest is generated) and an optional compiled
CPython extension.  These tests pin three things:

* **selection policy** -- ``REPRO_KERNEL=python`` pins the reference,
  ``native`` is required-or-error (never a silent fallback), ``auto``
  prefers the extension and falls back silently without a toolchain;
* **parity** -- the compiled kernel returns bit-identical decisions to
  the reference on a randomized battery of head-column states, and
  end-to-end correlation digests agree under both backends (the full
  golden matrices run under both kernels on the two CI legs);
* **plumbing** -- the ranker re-binds its selector when streaming
  ingest grows the head columns, and pickling (checkpoint/resume) drops
  the bound selector and re-resolves the kernel in the restoring
  process.
"""

import math
import pickle
import random

import pytest

from helpers import tiny_config
import repro.core.kernel as kernel
from repro.core.interning import ActivityTable
from repro.core.kernel import (
    BLOCKED,
    DISCARD,
    EMPTY,
    RULE1,
    RULE2,
    STALL,
    KernelUnavailableError,
    kernel_info,
    kernel_provenance,
    reference,
)
from repro.core.kernel import _native


def native_module_or_none():
    try:
        return _native.load(allow_build=True, retry_failed=True)
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
        assert info.float_column is list and info.int_column is list

    def test_unknown_mode_raises(self, fresh_cache):
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            kernel_info("typo")

    def test_env_var_drives_the_default(self, fresh_cache, monkeypatch):
        monkeypatch.setenv(kernel.ENV_VAR, "python")
        assert kernel_info().requested == "python"

    def test_native_unavailable_is_a_clear_error(self, fresh_cache, monkeypatch):
        def refuse(**kwargs):
            raise _native.KernelBuildError("no C compiler found (test)")

        monkeypatch.setattr(_native, "load", refuse)
        with pytest.raises(KernelUnavailableError, match="REPRO_KERNEL=native"):
            kernel_info("native")

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
        from array import array

        head_ts = array("d")
        head_pri = array("q")
        head_seq = array("q")
        head_keys = []
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
        from array import array

        rng = random.Random(20260807)
        for case in range(400):
            n = rng.randrange(1, 7)
            columns = self._random_state(rng, n)
            ceiling = rng.choice([math.inf, 0.75, 1.25, 2.5])
            ref_blocked, ref_discard = [0] * n, [0] * n
            nat_blocked, nat_discard = array("q", [0] * n), array("q", [0] * n)
            ref = reference.make_selector(*columns, ref_blocked, ref_discard)
            nat = NATIVE.make_selector(*columns, nat_blocked, nat_discard)
            ref_decision = ref(ceiling)
            nat_decision = nat(ceiling)
            assert ref_decision == nat_decision, (case, ceiling, columns)
            code, value = ref_decision & 7, ref_decision >> 3
            if code in (BLOCKED, DISCARD):
                assert list(nat_blocked[:value] if code == BLOCKED else nat_discard[:value]) == (
                    ref_blocked[:value] if code == BLOCKED else ref_discard[:value]
                ), (case, ceiling, columns)

    def test_mismatched_column_lengths_are_rejected(self):
        from array import array

        with pytest.raises(ValueError, match="slot count"):
            NATIVE.make_selector(
                array("d", [1.0, 2.0]),
                array("q", [0]),  # shorter than head_ts
                array("q", [0, 0]),
                [None, None],
                {},
                {},
                array("q", [0, 0]),
                array("q", [0, 0]),
            )

    def test_both_factories_take_the_one_registry_signature(self):
        """Eight positional arguments on both sides -- no separate
        buffered-send index -- and a Counter for the registry."""
        from array import array
        from collections import Counter

        def columns(n=2):
            return (
                array("d", [1.0, 2.0]),
                array("q", [3, 3]),
                array("q", [0, 1]),
                [7, 8],
                {},
                Counter({7: 1}),
                array("q", [0] * n),
                array("q", [0] * n),
            )

        for factory in (reference.make_selector, NATIVE.make_selector):
            # slot 0 waits on an undelivered SEND, slot 1 is noise
            assert factory(*columns())(math.inf) == DISCARD | 1 << 3
            with pytest.raises(TypeError):
                factory(*columns(), {})
            with pytest.raises(TypeError):
                factory(*columns()[:-1])


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
        monkeypatch.setenv(kernel.ENV_VAR, "python")
        python_digest = self._digest(tiny_deployment.activities())
        monkeypatch.setenv(kernel.ENV_VAR, "native")
        native_digest = self._digest(tiny_deployment.activities())
        assert python_digest == native_digest

    @pytest.mark.parametrize("mode", ["python", "native"])
    def test_fuzz_smoke_is_green(self, mode, monkeypatch):
        if mode == "native" and NATIVE is None:
            pytest.skip("no C toolchain: compiled kernel unavailable")
        from repro.fuzz.harness import run_fuzz

        monkeypatch.setenv(kernel.ENV_VAR, mode)
        report = run_fuzz(seeds=5)
        assert report.failures == []


class TestRankerPlumbing:
    def _ranker(self, mode, activities_by_node):
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

    @pytest.mark.parametrize("mode", ["python", "native"])
    def test_pickle_roundtrip_preserves_the_stream(self, mode, monkeypatch):
        if mode == "native" and NATIVE is None:
            pytest.skip("no C toolchain: compiled kernel unavailable")
        monkeypatch.setenv(kernel.ENV_VAR, mode)
        from helpers import SyntheticTrace

        script = SyntheticTrace()
        script.three_tier_request(1, 0.001)
        script.three_tier_request(2, 0.050)
        by_node = script.by_node()

        uninterrupted = self._drain(self._ranker(mode, by_node))
        ranker = self._ranker(mode, by_node)
        prefix = [ranker.rank() for _ in range(3)]
        restored = pickle.loads(pickle.dumps(ranker))
        assert restored.kernel_name == kernel_info().name
        resumed = [(p.node_key, p.seq) for p in prefix] + self._drain(restored)
        assert resumed == uninterrupted

    @pytest.mark.parametrize("mode", ["python", "native"])
    def test_pickle_roundtrip_of_an_open_ranker_mid_stream(self, mode, monkeypatch):
        """An *unsealed* ranker pickled between two chunks: head columns
        re-homed, selector re-bound, and the rest of the stream -- later
        chunks, seal, tail -- continues exactly as if never interrupted."""
        if mode == "native" and NATIVE is None:
            pytest.skip("no C toolchain: compiled kernel unavailable")
        monkeypatch.setenv(kernel.ENV_VAR, mode)
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
                    assert not ranker.sealed and ranker._select is not None
                    ranker = pickle.loads(pickle.dumps(ranker))
                    assert ranker.kernel_name == kernel_info().name
                    assert type(ranker._head_ts) is type(kernel_info().float_column())
                    assert ranker._select is None  # re-bound lazily by rank()
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

    def test_streaming_ingest_rebinds_the_selector(self, monkeypatch):
        monkeypatch.setenv(kernel.ENV_VAR, "python")
        from repro.core.ranker import Ranker
        from helpers import SyntheticTrace

        script = SyntheticTrace()
        script.three_tier_request(1, 0.001)
        ranker = Ranker(None, {}, window=0.010, skew_bound=0.005)
        by_node = script.by_node()
        nodes = list(by_node)
        ranker.ingest(ActivityTable.from_activities(by_node[nodes[0]]))
        ranker.rank()  # binds a selector over the current slot count
        bound = ranker._select
        assert bound is not None
        for node in nodes[1:]:
            ranker.ingest(ActivityTable.from_activities(by_node[node]))
        # growing the head columns must invalidate the bound selector
        assert ranker._select is None
        ranker.seal()
        while ranker.rank() is not None:
            pass
        assert ranker.exhausted()
