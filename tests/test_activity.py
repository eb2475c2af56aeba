"""Unit tests for the activity model (types, identifiers, ordering)."""

from repro.core.activity import (
    Activity,
    ActivityType,
    ContextId,
    MessageId,
    RULE2_PRIORITY,
    sort_key,
)
from repro.core.interning import INTERNER, ActivityTable


def make_activity(activity_type=ActivityType.SEND, timestamp=1.0, size=100, port=5000):
    return Activity(
        type=activity_type,
        timestamp=timestamp,
        context=ContextId("node1", "httpd", 10, 11),
        message=MessageId("10.0.0.1", port, "10.0.0.2", 80, size),
    )


class TestActivityType:
    def test_priority_order_matches_paper_rule2(self):
        # BEGIN < SEND < END < RECEIVE < MAX
        assert ActivityType.BEGIN < ActivityType.SEND
        assert ActivityType.SEND < ActivityType.END
        assert ActivityType.END < ActivityType.RECEIVE
        assert ActivityType.RECEIVE < ActivityType.MAX

    def test_rule2_priority_tuple_is_sorted(self):
        values = [int(t) for t in RULE2_PRIORITY]
        assert values == sorted(values)
        assert len(RULE2_PRIORITY) == 5

    def test_send_like_classification(self):
        assert ActivityType.SEND.is_send_like
        assert ActivityType.END.is_send_like
        assert not ActivityType.RECEIVE.is_send_like
        assert not ActivityType.BEGIN.is_send_like

    def test_receive_like_classification(self):
        assert ActivityType.RECEIVE.is_receive_like
        assert ActivityType.BEGIN.is_receive_like
        assert not ActivityType.SEND.is_receive_like
        assert not ActivityType.END.is_receive_like


class TestContextId:
    def test_as_tuple_round_trip(self):
        ctx = ContextId("host", "prog", 1, 2)
        assert ctx.as_tuple() == ("host", "prog", 1, 2)
        assert ctx.entity == ctx.as_tuple()

    def test_component_ignores_pid_and_tid(self):
        a = ContextId("host", "prog", 1, 2)
        b = ContextId("host", "prog", 99, 77)
        assert a.component == b.component == ("host", "prog")

    def test_is_hashable_and_comparable(self):
        a = ContextId("host", "prog", 1, 2)
        b = ContextId("host", "prog", 1, 2)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_ordering_is_defined(self):
        a = ContextId("a", "prog", 1, 1)
        b = ContextId("b", "prog", 1, 1)
        assert a < b


class TestMessageId:
    def test_connection_key_strips_size(self):
        small = MessageId("1.1.1.1", 10, "2.2.2.2", 20, 100)
        large = MessageId("1.1.1.1", 10, "2.2.2.2", 20, 9999)
        assert small.connection_key() == large.connection_key()

    def test_reversed_key_swaps_direction(self):
        message = MessageId("1.1.1.1", 10, "2.2.2.2", 20, 100)
        assert message.reversed_key() == ("2.2.2.2", 20, "1.1.1.1", 10)

    def test_undirected_key_is_direction_independent(self):
        forward = MessageId("1.1.1.1", 10, "2.2.2.2", 20, 100)
        backward = MessageId("2.2.2.2", 20, "1.1.1.1", 10, 55)
        assert forward.undirected_key() == backward.undirected_key()

    def test_with_size_copies_other_fields(self):
        message = MessageId("1.1.1.1", 10, "2.2.2.2", 20, 100)
        resized = message.with_size(500)
        assert resized.size == 500
        assert resized.connection_key() == message.connection_key()


class TestActivity:
    def test_size_defaults_to_message_size(self):
        activity = make_activity(size=321)
        assert activity.size == 321

    def test_explicit_size_overrides_message_size(self):
        activity = Activity(
            type=ActivityType.SEND,
            timestamp=0.0,
            context=ContextId("n", "p", 1, 1),
            message=MessageId("a", 1, "b", 2, 100),
            size=42,
        )
        assert activity.size == 42

    def test_message_key_is_interned_connection_key(self):
        activity = make_activity()
        assert isinstance(activity.message_key, int)
        resolved = INTERNER.resolve_message_key(activity.message_key)
        assert resolved == activity.message.connection_key()

    def test_context_key_and_component(self):
        activity = make_activity()
        assert isinstance(activity.context_key, int)
        resolved = INTERNER.resolve_context_key(activity.context_key)
        assert resolved == ("node1", "httpd", 10, 11)
        assert activity.component == ("node1", "httpd")

    def test_node_key_is_interned_hostname(self):
        activity = make_activity()
        assert isinstance(activity.node_key, int)
        assert INTERNER.resolve_node(activity.node_key) == "node1"

    def test_equal_identities_share_interned_keys(self):
        first = make_activity()
        second = make_activity()
        assert first.context_key == second.context_key
        assert first.message_key == second.message_key
        assert first.node_key == second.node_key

    def test_priority_follows_type(self):
        assert make_activity(ActivityType.BEGIN).priority == 0
        assert make_activity(ActivityType.SEND).priority == 1
        assert make_activity(ActivityType.END).priority == 2
        assert make_activity(ActivityType.RECEIVE).priority == 3

    def test_only_receive_can_be_noise_candidate(self):
        assert make_activity(ActivityType.RECEIVE).is_noise_candidate()
        assert not make_activity(ActivityType.BEGIN).is_noise_candidate()
        assert not make_activity(ActivityType.SEND).is_noise_candidate()

    def test_each_build_of_a_row_is_independent(self):
        table = ActivityTable.from_activities([make_activity()])
        first, second = table.activity(0), table.activity(0)
        first.size = 1
        assert second.size != 1 and table.activity(0).size != 1
        assert first is not second and first.context is second.context

    def test_sequence_numbers_increase(self):
        first = make_activity()
        second = make_activity()
        assert second.seq > first.seq


class TestSortKey:
    def test_orders_by_timestamp_first(self):
        early = make_activity(ActivityType.RECEIVE, timestamp=1.0)
        late = make_activity(ActivityType.BEGIN, timestamp=2.0)
        assert sort_key(early) < sort_key(late)

    def test_breaks_timestamp_ties_by_priority(self):
        send = make_activity(ActivityType.SEND, timestamp=1.0)
        receive = make_activity(ActivityType.RECEIVE, timestamp=1.0)
        assert sort_key(send)[:2] < sort_key(receive)[:2]

    def test_breaks_full_ties_by_sequence(self):
        a = make_activity(ActivityType.SEND, timestamp=1.0)
        b = make_activity(ActivityType.SEND, timestamp=1.0)
        assert sort_key(a) < sort_key(b)

    def test_sorting_a_log_is_stable_per_node(self):
        activities = [
            make_activity(ActivityType.RECEIVE, timestamp=3.0),
            make_activity(ActivityType.SEND, timestamp=1.0),
            make_activity(ActivityType.BEGIN, timestamp=2.0),
        ]
        ordered = sorted(activities, key=sort_key)
        assert [a.timestamp for a in ordered] == [1.0, 2.0, 3.0]
