"""The Correlator: ranker + engine wired together (Fig. 2).

The Correlator takes the activity logs gathered on every node (already
transformed into typed activities), performs the three steps of
Section 4:

1. sort each node's activities by its local timestamps,
2. let the *ranker* choose candidate activities through the sliding
   time window,
3. let the *engine* correlate candidates into CAGs,

and reports the resulting CAGs together with runtime statistics
(correlation time, memory consumption, noise counters) that the
evaluation section of the paper measures.

There is one ``rank()`` -> ``process()`` loop, in
:class:`IncrementalEngine`: activities are ingested chunk by chunk, a
watermark advances, and each finished CAG is emitted the moment its root
request's END activity is correlated -- which is what makes request
tracing usable as a *monitoring* tool against a live service rather than
a post-mortem one.  The offline :class:`Correlator` is the degenerate
use of it: buffer everything, seal, drain.  It holds every activity
before the first CAG comes out, so its working set grows with the
trace -- but the drain itself runs a slice (``FLUSH_SLICE_SAMPLES``
sampling periods) at a time and hands each slice's CAGs to the caller
before the next one starts (:meth:`Correlator.correlate_iter`), so a
consumer stores the first requests while the later ones are still
being correlated.  The drivers in :mod:`repro.stream`
(:class:`~repro.stream.StreamingCorrelator`,
:class:`~repro.stream.ShardedCorrelator`) feed the same engine in chunks
or per shard.

Two knobs control the online memory/latency/accuracy triangle:

``skew_bound``
    How far node clocks may disagree.  It only delays emission (candidates
    wait until every node's log has progressed past them by ``window +
    2 * skew_bound``); it never changes the output.

``horizon`` (seconds, ``None`` = disabled)
    Watermark-based eviction of stale engine state.  Index-map entries and
    open CAGs untouched for longer than the horizon are dropped and
    counted in :class:`repro.core.engine.EngineStats` (fields
    ``evicted_mmap_entries`` / ``evicted_cmap_entries`` /
    ``evicted_open_cags``).  This bounds memory under abandoned flows and
    noise, at an accuracy cost *only* for requests that stay idle longer
    than the horizon: their state is gone when the late activities
    finally arrive, so they surface as deformed/incomplete paths instead
    of completed ones.  With ``horizon=None`` (or any horizon above the
    service's worst-case response time) the chunked output is
    *identical* to the offline output -- the equivalence is asserted by
    ``tests/test_stream.py``.

Typical online use::

    engine = IncrementalEngine(window=0.010, horizon=30.0)
    for chunk in activity_chunks:                # any iterable of batches
        for cag in engine.ingest(chunk):         # CAGs finish mid-stream
            handle_finished_request(cag)
    for cag in engine.flush():                   # drain the tail
        handle_finished_request(cag)
    result = engine.result()                     # CorrelationResult
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from .activity import Activity
from .cag import CAG
from .engine import CorrelationEngine, EngineStats
from .interning import ActivityTable, as_table
from .ranker import Ranker, RankerStats

#: How often (in delivered candidates) the drain loop samples the engine's
#: live-entry count for the memory accounting; sampling keeps the
#: bookkeeping overhead negligible for large traces.
PEAK_SAMPLE_EVERY = 256

#: How many sampling periods one slice of :meth:`IncrementalEngine.flush_slices`
#: runs before it hands its finished CAGs out.  A slice ends *on* a sample
#: point, so slicing adds none and moves none.  Chosen by measurement: every
#: hand-over swaps the loop's working set for the consumer's and back, and
#: on the 80k-line RUBiS trace with a store sink behind it slices of 1 or
#: 4 periods cost ~5 % of the job's CPU time over one unsliced drain, of 16
#: or 32 nothing measurable, for the same median time-to-row (a CAG waits
#: half a slice, ~10 ms, and the job ends sooner).
FLUSH_SLICE_SAMPLES = 16

#: Approximate in-memory footprint of one buffered activity, used by the
#: memory accounting below.  Measured once on CPython for the Activity
#: dataclass plus its identifiers; the precise constant does not matter,
#: only proportionality to the number of live objects (Fig. 11).
_ACTIVITY_FOOTPRINT_BYTES = 480


@dataclass
class CorrelationResult:
    """Everything the Correlator produced for one trace."""

    cags: List[CAG]
    incomplete_cags: List[CAG]
    correlation_time: float
    peak_buffered_activities: int
    peak_state_entries: int
    ranker_stats: RankerStats
    engine_stats: EngineStats
    window: float
    total_activities: int
    #: per-shard activity counts when the sharded driver produced this
    #: result (``None`` for the batch and streaming drivers)
    shard_sizes: Optional[List[int]] = None
    #: live bookkeeping entries (index maps, owners, open CAGs) left in
    #: the engine after the drain -- the leak-sanity figure the fuzz
    #: harness compares between sampled and unsampled runs
    final_state_entries: int = 0
    #: sampled-out tombstones still open after the drain; a drained batch
    #: run must satisfy ``sampled_out_roots == sampled_out_finished +
    #: final_open_tombstones`` (nothing leaked, nothing double-counted)
    final_open_tombstones: int = 0
    #: ``Activity`` objects the run built from its rows: one per delivered
    #: row, none for a row discarded as noise
    materialised_activities: int = 0

    @property
    def completed_requests(self) -> int:
        return len(self.cags)

    @property
    def peak_memory_bytes(self) -> int:
        """Estimated peak working-set of the Correlator.

        The dominant term is the ranker buffer (it grows with the sliding
        window, which is exactly the effect Fig. 11 demonstrates); the
        engine's index maps and open CAGs contribute the rest.
        """
        live_entries = self.peak_buffered_activities + self.peak_state_entries
        return live_entries * _ACTIVITY_FOOTPRINT_BYTES

    def summary(self) -> Dict[str, float]:
        """Compact dictionary used by reports and benchmarks."""
        return {
            "completed_requests": float(self.completed_requests),
            "incomplete_cags": float(len(self.incomplete_cags)),
            "correlation_time_s": self.correlation_time,
            "peak_memory_bytes": float(self.peak_memory_bytes),
            "total_activities": float(self.total_activities),
            "noise_discarded": float(self.ranker_stats.noise_discarded),
            "window_s": self.window,
        }


class IncrementalEngine:
    """The correlation loop behind a push interface.

    Parameters
    ----------
    window:
        Sliding-time-window size in seconds (any positive value).
    horizon:
        Eviction horizon in seconds, or ``None`` to never evict (see the
        module docstring for the trade-off).
    skew_bound:
        Upper bound on absolute node clock skew in seconds; part of the
        reorder slack that gates candidate delivery.
    sampling:
        Optional :class:`repro.sampling.SamplingSpec`: trace only a
        deterministic subset of the requests.  This is where the
        *adaptive* policy lives naturally -- its controller observes the
        engine's open-CAG count (tombstones included) and steers the
        admission rate toward the configured budget, which is the
        overhead-control loop a live deployment runs.
    sampling_decisions:
        Pre-frozen decision set for the budget policy.  The push
        interface has no whole-trace pre-pass, so without one the
        budget is applied in arrival order -- exact when the stream is
        fed in global timestamp order (as
        :class:`~repro.stream.StreamingCorrelator` feeds it).
    """

    def __init__(
        self,
        window: float = 0.010,
        horizon: Optional[float] = None,
        skew_bound: float = 0.005,
        sampling=None,
        sampling_decisions=None,
    ) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if horizon is not None and horizon <= 0:
            raise ValueError("horizon must be positive (or None to disable)")
        self.window = window
        self.horizon = horizon
        self.sampling = sampling
        self.sampler = (
            sampling.make_sampler(sampling_decisions) if sampling is not None else None
        )
        self.engine = CorrelationEngine(sampler=self.sampler)
        self.ranker = Ranker(
            None, mmap=self.engine.mmap, window=window, skew_bound=skew_bound
        )
        self.total_ingested = 0
        self.peak_state = 0
        self.processing_time = 0.0
        # One countdown for the engine's whole life: the sampling cadence
        # carries across drains, so the peaks do not depend on chunking.
        self._until_sample = PEAK_SAMPLE_EVERY
        self._flushed = False
        self._last_evict_watermark = -math.inf

    # -- push interface ------------------------------------------------------

    def buffer(self, rows: ActivityTable) -> None:
        """Accept one chunk of packed rows (an
        :class:`~repro.core.interning.ActivityTable`) without correlating
        anything yet (``ingest`` is ``buffer`` + drain)."""
        if self._flushed:
            raise RuntimeError("cannot ingest after flush()")
        self.total_ingested += self.ranker.ingest(rows)

    def ingest(self, rows: ActivityTable) -> List[CAG]:
        """Feed one chunk of packed rows; return the CAGs finished by it.

        Ordering contract -- both parts matter:

        * within one node, activities must arrive in that node's log
          order (nondecreasing local timestamps);
        * across nodes, streams must be interleaved roughly in real time
          (as a live multi-node feed naturally is).  The watermark is the
          *slowest seen node's* frontier, so feeding whole per-node logs
          one after another (``cat web.log app.log``) starves it: the
          first node's RECEIVEs would be judged before their SENDs from
          the not-yet-seen node arrive, and get misdiscarded as noise.

        For data at rest, feed it in global timestamp order.  Per-node
        log files need no whole-trace sort for that: a time-sliced merge
        that holds a read block per file produces the same sequence
        (:meth:`repro.pipeline.LogSource.chunks`, what
        :class:`~repro.stream.StreamingCorrelator` and the CLI ``stream``
        command consume); a trace already in memory is sorted once
        (:func:`repro.stream.reader.arrival_chunks`).  Or :meth:`buffer`
        all of it and :meth:`flush` once, as :class:`Correlator` does.
        """
        self.buffer(rows)
        return self._drain()

    def flush(self) -> List[CAG]:
        """End of stream: deliver everything still gated by the watermark."""
        self.ranker.seal()
        return self._drain()

    def flush_slices(self) -> Iterator[List[CAG]]:
        """:meth:`flush` a slice at a time: yield the CAGs each
        ``FLUSH_SLICE_SAMPLES`` sampling periods finished (possibly none).

        Between two slices the caller's code runs outside the
        ``correlation_time`` clock and with the cycle collector in its own
        state, as it does between two :meth:`ingest` calls.  A slice ends
        *on* a sample point, so the slices together take exactly the
        decisions, and sample ``peak_state`` at exactly the points, of one
        :meth:`flush`.
        """
        self.ranker.seal()
        while not self._flushed:
            finished = self._drain(FLUSH_SLICE_SAMPLES)
            # A sealed ranker never grows again, and growing is what lets
            # go of delivered rows: do it here, or the run ends holding
            # every row it was ever fed.
            self.ranker.release()
            yield finished

    def pending_state_size(self) -> int:
        """Live bookkeeping entries: engine maps + ranker buffer."""
        return self.engine.pending_state_size() + self.ranker.buffered_count()

    def watermark(self) -> float:
        """Current delivery watermark (local-time ceiling), -inf initially."""
        return self.ranker.watermark

    def result(self) -> CorrelationResult:
        """Everything correlated so far, with the aggregate accounting.

        ``incomplete_cags`` includes both the still-open CAGs and any
        evicted ones.
        """
        engine = self.engine
        return CorrelationResult(
            cags=list(engine.finished_cags),
            incomplete_cags=engine.open_cags + engine.evicted_cags,
            correlation_time=self.processing_time,
            # The ranker tracks its own exact maximum at every fetch.
            peak_buffered_activities=self.ranker.stats.max_buffered,
            peak_state_entries=self.peak_state,
            ranker_stats=self.ranker.stats,
            engine_stats=engine.stats,
            window=self.window,
            total_activities=self.total_ingested,
            final_state_entries=self.pending_state_size(),
            final_open_tombstones=engine.open_tombstone_count,
            # rank() builds a row's object exactly when it delivers it
            materialised_activities=self.ranker.stats.delivered,
        )

    # -- internals ----------------------------------------------------------

    def _drain(self, samples: float = math.inf) -> List[CAG]:
        """Correlate every candidate the ranker can decide right now -- or
        stop early, on the ``samples``-th sample point from here."""
        engine = self.engine
        finished = engine.finished_cags
        already_finished = len(finished)
        # Hoist the per-candidate lookups out of the loop: the body runs
        # once per activity, so even attribute resolution shows up on the
        # Fig. 9 benchmark.
        rank = self.ranker.rank
        process = engine.process
        until_sample = self._until_sample
        # The loop runs only internal code and allocates no reference
        # cycles (activities, CAGs and edges form an acyclic object graph
        # that plain reference counting reclaims), so the cycle collector
        # can only add full-heap scan pauses that grow with the trace.
        # Pause it for the duration of the loop; user code between chunks
        # still runs with the collector in its original state.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            while True:
                candidate = rank()
                if candidate is None:
                    # A sealed ranker that has nothing left to decide is
                    # drained for good.
                    self._flushed = self.ranker.sealed
                    break
                process(candidate)
                until_sample -= 1
                if not until_sample:
                    until_sample = PEAK_SAMPLE_EVERY
                    self.peak_state = max(self.peak_state, engine.pending_state_size())
                    samples -= 1
                    if not samples:
                        break
            self._maybe_evict()
        finally:
            if gc_was_enabled:
                gc.enable()
        self._until_sample = until_sample
        # Every drain ends on a sample, so ``peak_state`` always covers
        # the engine's current size.  It sits inside the clock on purpose:
        # its first allocation gives the re-enabled collector the pass the
        # loop deferred, and that pass is a cost of this drain.
        self.peak_state = max(self.peak_state, engine.pending_state_size())
        self.processing_time += time.perf_counter() - start
        # ``process`` returns a CAG exactly when it appends one here.
        return finished[already_finished:]

    def _maybe_evict(self) -> None:
        """Run watermark eviction when it can pay for itself.

        Eviction scans the live state, so running it on every chunk would
        make ingestion O(chunks x live entries); instead it fires only
        once the watermark has advanced by a quarter horizon since the
        last sweep.  After ``seal()`` the watermark is +inf -- end-of-
        stream cleanup is *not* eviction (the remaining open CAGs are
        legitimately in flight and are reported as incomplete), so no
        sweep runs then.
        """
        if self.horizon is None or self.ranker.sealed:
            return
        watermark = self.ranker.watermark
        if math.isinf(watermark):  # nothing ingested yet
            return
        if watermark - self._last_evict_watermark < self.horizon / 4.0:
            return
        self._last_evict_watermark = watermark
        self.engine.evict_stale(watermark - self.horizon)


class Correlator:
    """Offline correlator: one sealed :class:`IncrementalEngine` run.

    Entry points: :meth:`correlate` for a flat activity collection (any
    order: packed rows, or objects, which are packed once on the way in)
    and :meth:`correlate_streams` for per-node lists -- the shape
    gathered log files naturally have.  Both return a
    :class:`CorrelationResult`, as every other driver does, so downstream
    analysis code never needs to know which path produced it.
    """

    def __init__(
        self,
        window: float = 0.010,
        sampling=None,
        sampling_decisions=None,
    ) -> None:
        """
        Parameters
        ----------
        window:
            Sliding-time-window size in seconds (any positive value).
        sampling:
            Optional :class:`repro.sampling.SamplingSpec`: trace only a
            deterministic subset of the requests, decided at each causal
            root.  Sampled-out requests cost index-map bookkeeping but
            build no CAG and surface nowhere in the result.
        sampling_decisions:
            Pre-frozen decision set (see
            :func:`repro.sampling.precompute_decisions`); when absent and
            the policy needs one (the per-second budget), the pre-pass
            runs here.  The sharded driver passes shards a shared set so
            every shard agrees with the whole-trace decision order.
        """
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.sampling = sampling
        self.sampling_decisions = sampling_decisions
        #: The engine the last ``correlate_iter``/``correlate`` call drove.
        self.last_engine: Optional[IncrementalEngine] = None

    def correlate(
        self,
        activities: Union[Iterable[Activity], ActivityTable] = (),
        *,
        chunks: Optional[Iterable[ActivityTable]] = None,
    ) -> CorrelationResult:
        """Correlate a flat activity collection (any node order)."""
        for _cag in self.correlate_iter(activities, chunks=chunks):
            pass
        assert self.last_engine is not None
        return self.last_engine.result()

    def correlate_iter(
        self,
        activities: Union[Iterable[Activity], ActivityTable] = (),
        *,
        chunks: Optional[Iterable[ActivityTable]] = None,
    ) -> Iterator[CAG]:
        """Yield finished CAGs while the sealed engine drains.

        The trace comes as one flat collection -- an
        :class:`~repro.core.interning.ActivityTable`, or activities,
        which are packed into one here -- or, with ``chunks=``, as an
        iterator of tables in any order, each buffered as it is produced
        (:meth:`repro.pipeline.Source.blocks` yields a log a read block
        at a time).  Everything is buffered first (the first CAG still
        waits for the last activity to be *read*), then the drain runs a slice at a time and each
        slice's CAGs are handed out before the next one starts.  Nothing
        here keeps the input once it is buffered, and the ranker lets go
        of a row once it is delivered, so what the drain holds is the
        rows still to come and the CAGs built so far.  The engine is
        left on :attr:`last_engine`; read ``last_engine.result()`` after
        the iterator is exhausted.
        """
        if chunks is None:
            chunks = (as_table(activities),)
        decisions = self.sampling_decisions
        if self.sampling is not None and decisions is None:
            # The pre-pass reads the whole trace: hold it, and show the
            # policy objects built from the rows.
            chunks = list(chunks)
            decisions = self.sampling.freeze(chain.from_iterable(chunks))
        engine = IncrementalEngine(
            window=self.window, sampling=self.sampling, sampling_decisions=decisions
        )
        self.last_engine = engine
        # Everything first, nothing delivered: the watermark gates no
        # decision when the ranker is sealed before its first ``rank()``.
        for chunk in chunks:
            engine.buffer(chunk)
        chunk = chunks = activities = None
        for finished in engine.flush_slices():
            yield from finished

    def correlate_streams(
        self, streams: Dict[str, Sequence[Activity]]
    ) -> CorrelationResult:
        """Correlate per-node streams (the natural shape of gathered logs)."""
        return self.correlate(chain.from_iterable(streams.values()))
