"""Edge-case tests for the correlation engine and ranker working together.

These cover the trickier interleavings a loaded multi-tier service
produces: pipelined requests on persistent connections, interleaved
concurrent requests, noise traffic mixed into the same connections, and
bookkeeping across finished CAGs.
"""

import pytest

from helpers import APP, SyntheticTrace, in_space, keyed_engine
from repro.core.accuracy import path_accuracy
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.interning import KeySpace
from repro.pipeline import BackendSpec


def correlate(trace, window=0.01):
    return BackendSpec.batch(window=window).correlate(trace.activities)


class TestPersistentConnections:
    def test_sequential_requests_share_every_connection(self):
        """All requests flow over the same worker/thread identities and the
        same ports -- message matching must still pair the right messages."""
        trace = SyntheticTrace()
        for index in range(6):
            trace.three_tier_request(
                request_id=index + 1,
                start=index * 0.5,
                web_pid=100,
                app_tid=200,
                db_tid=300,
                db_queries=2,
            )
        result = correlate(trace)
        assert result.completed_requests == 6
        report = path_accuracy(result.cags, trace.ground_truth)
        assert report.accuracy == 1.0

    def test_interleaved_concurrent_requests_on_distinct_workers(self):
        trace = SyntheticTrace()
        for index in range(10):
            trace.three_tier_request(
                request_id=index + 1,
                start=1.0 + index * 0.0007,
                web_pid=100 + index,
                app_tid=200 + index,
                db_tid=300 + index,
                db_queries=2,
                step=0.003,
            )
        result = correlate(trace)
        report = path_accuracy(result.cags, trace.ground_truth)
        assert report.accuracy == 1.0
        assert report.false_positives == 0

    def test_thread_reuse_across_back_to_back_requests(self):
        """The same app thread serves request 2 right after request 1; its
        first activity for request 2 must not be spliced into request 1."""
        trace = SyntheticTrace()
        trace.three_tier_request(request_id=1, start=1.0, app_tid=200, db_tid=300)
        trace.three_tier_request(request_id=2, start=1.02, app_tid=200, db_tid=300)
        result = correlate(trace)
        assert result.completed_requests == 2
        for cag in result.cags:
            assert len(cag.request_ids()) == 1


class TestNoiseRobustness:
    def test_noise_receives_interleaved_with_real_traffic(self):
        trace = SyntheticTrace()
        trace.three_tier_request(request_id=1, start=1.0)
        for index in range(20):
            trace.noise_receive(1.0 + index * 0.001)
        trace.three_tier_request(request_id=2, start=1.05)
        result = correlate(trace, window=0.002)
        assert result.completed_requests == 2
        assert result.ranker_stats.noise_discarded == 20
        assert path_accuracy(result.cags, trace.ground_truth).accuracy == 1.0

    def test_unmatched_send_like_noise_is_harmless(self):
        """A stray SEND with no context parent must not enter the mmap and
        must not capture later receives on the same connection key."""
        keys = KeySpace()
        engine = keyed_engine(keys)
        (stray,) = in_space(
            keys,
            Activity(
                type=ActivityType.SEND,
                timestamp=0.5,
                context=ContextId("db", "mysqld", 9, 9),
                message=MessageId("10.1.0.3", 3306, "10.9.0.7", 41000, 640),
            ),
        )
        engine.process(stray)
        assert engine.stats.unmatched_sends == 1
        assert engine.mmap == {}


class TestStateHygiene:
    def test_mmap_entries_of_finished_requests_are_dropped(self):
        trace = SyntheticTrace()
        for index in range(4):
            trace.three_tier_request(request_id=index + 1, start=index * 0.3)
        result = correlate(trace)
        assert result.completed_requests == 4
        # peak state is bounded by in-flight requests, not total requests
        assert result.peak_state_entries < 400

    def test_open_cags_remain_for_requests_without_end(self):
        trace = SyntheticTrace()
        trace.three_tier_request(request_id=1, start=1.0)
        # request 2 loses every activity after the app receive
        trace.three_tier_request(request_id=2, start=2.0)
        cut = [
            a
            for a in trace.activities
            if not (a.request_id == 2 and a.timestamp > trace.local(APP[0], 2.003))
        ]
        result = BackendSpec.batch(window=0.01).correlate(cut)
        assert result.completed_requests == 1
        assert len(result.incomplete_cags) == 1

    def test_duplicate_delivery_of_equal_sized_messages_matches_in_order(self):
        """Two identical-size messages on one connection (request 1's and
        request 2's queries) must match their own sends in FIFO order."""
        trace = SyntheticTrace()
        trace.three_tier_request(request_id=1, start=1.0, db_queries=1)
        trace.three_tier_request(request_id=2, start=1.01, db_queries=1)
        result = correlate(trace)
        for cag in result.cags:
            assert len(cag.request_ids()) == 1

    def test_zero_byte_messages_do_not_wedge_the_engine(self):
        keys = KeySpace()
        engine = keyed_engine(keys)
        begin, send = in_space(
            keys,
            Activity(
                type=ActivityType.BEGIN,
                timestamp=1.0,
                context=ContextId("web", "httpd", 1, 1),
                message=MessageId("9.9.9.9", 555, "10.1.0.1", 80, 0),
                request_id=1,
            ),
            Activity(
                type=ActivityType.SEND,
                timestamp=1.1,
                context=ContextId("web", "httpd", 1, 1),
                message=MessageId("10.1.0.1", 4000, "10.1.0.2", 8080, 0),
                request_id=1,
            ),
        )
        engine.process(begin)
        engine.process(send)
        assert len(engine.open_cags) == 1


class TestMixedSegmentationAndSkew:
    @pytest.mark.parametrize("skew", [0.0, 0.05, 0.3])
    @pytest.mark.parametrize("seg", [None, 512, 350])
    def test_accuracy_under_combined_stressors(self, skew, seg):
        trace = SyntheticTrace(
            skews={"app": skew, "db": -skew},
            sender_max=seg,
            receiver_max=int(seg * 0.8) if seg else None,
        )
        for index in range(5):
            trace.three_tier_request(
                request_id=index + 1,
                start=0.5 + index * 0.05,
                web_pid=100 + index % 2,
                app_tid=200 + index % 3,
                db_tid=300 + index % 3,
                db_queries=1 + index % 3,
            )
        result = correlate(trace, window=0.004)
        report = path_accuracy(result.cags, trace.ground_truth)
        assert report.accuracy == 1.0, report.judgements
