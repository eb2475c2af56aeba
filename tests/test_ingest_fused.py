"""The log front end: ``ActivityClassifier.classify_lines`` against its definition.

``parse_record`` + ``ActivityClassifier.classify`` define what a TCP_TRACE
line means; ``classify_lines`` is the memoised loop every text entry point
runs instead, and ``pack_lines`` the same loop emitting packed
``ActivityTable`` rows.  The differential test draws well-formed lines,
mutates them the way a live log gets mutated (and a few ways only an
adversary would), and holds the loop -- with either sink -- to the
definition field for field and count for count.
The nightly workflow runs it with ``--hypothesis-profile nightly``.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import log_format
from repro.core.accuracy import path_accuracy
from repro.core.activity import Activity, ActivityType, ContextId, MessageId
from repro.core.log_format import (
    ActivityClassifier,
    FrontendSpec,
    LogFormatError,
    RawRecord,
    format_record,
    load_activities,
    parse_record,
)
from repro.pipeline import BackendSpec, LogSource, result_digest
from repro.stream import ActivityStream
from repro.topology.library import ScenarioConfig, run_scenario, scenario_names
from repro.topology.workload import WorkloadStages

from helpers import lines_conserved, write_node_logs

FRONTEND = FrontendSpec(
    ip="10.0.0.1", port=80, internal_ips=frozenset({"10.0.0.1", "10.0.0.2"})
)
SLOTS = [f.name for f in dataclasses.fields(Activity)]


def make_classifier() -> ActivityClassifier:
    return ActivityClassifier(
        frontends=[FRONTEND],
        ignore_programs={"sshd"},
        ignore_ports={22},
        ignore_ips={"10.0.0.9"},
    )


def reference(lines, classifier, strict):
    """The definition: strip, skip blank/comment, parse_record, classify."""
    activities, malformed, skipped = [], 0, 0
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            skipped += 1
            continue
        try:
            record = parse_record(stripped)
        except LogFormatError:
            if strict:
                raise
            malformed += 1
            continue
        activity = classifier.classify(record)
        if activity is not None:
            activities.append(activity)
    return activities, malformed, skipped


def slots(activity, first_seq, keys=None):
    """Every slot, the three keys as the identities they stand for: a
    row's ids resolved in its table's key space ``keys``, the keys of an
    object built by the constructor as they are (the identities)."""
    values = {name: getattr(activity, name) for name in SLOTS}
    values["seq"] -= first_seq  # one global counter: compare the order
    if keys is not None:
        context = keys.contexts[values["context_key"]]
        assert keys.node_of[values["context_key"]] == values["node_key"]
        assert keys.node_ids[context.hostname] == values["node_key"]
        values["context_key"] = context.as_tuple()
        values["message_key"] = keys.connections[values["message_key"]]
        values["node_key"] = context.hostname
    return values


#: The loop's two emit sites: ``classify_lines`` builds objects,
#: ``pack_lines`` packs rows (read back here as the objects they become).
SINKS = ["objects", "packed"]


def run_loop(classifier, lines, sink, strict=False):
    if sink == "objects":
        return classifier.classify_lines(lines, strict=strict)
    table = classifier.pack_lines(lines, strict=strict)
    assert {len(column) for column in table._columns()} == {len(table)}
    return list(table)


def assert_same_activities(fused, expected, keys=None, expected_keys=None):
    """Slot for slot (see :func:`slots`; ``keys`` / ``expected_keys``: the
    key space each side's rows were built over, None for objects)."""
    assert len(fused) == len(expected)
    if fused:
        assert [slots(a, fused[0].seq, keys) for a in fused] == [
            slots(a, expected[0].seq, expected_keys) for a in expected
        ]
        assert all(type(a.type) is ActivityType for a in fused)


# -- line generation -----------------------------------------------------------

# Small pools, so contexts and channels repeat (memo hits) and every rule
# of the classifier is reached often.
CHANNELS = [
    ("10.9.0.1", 41000, "10.0.0.1", 80),  # client to frontend: a RECEIVE is BEGIN
    ("10.0.0.1", 80, "10.9.0.1", 41000),  # frontend to client: a SEND is END
    ("10.0.0.2", 41000, "10.0.0.1", 80),  # internal peer at the frontend port
    ("10.0.0.1", 5000, "10.0.0.2", 8080),  # tier to tier
    ("10.0.0.1", 5001, "10.0.0.2", 22),  # ignored port
    ("10.0.0.9", 5000, "10.0.0.2", 8080),  # ignored ip
]
record_strategy = st.builds(
    lambda timestamp, hostname, program, pid, tid, direction, channel, size: RawRecord(
        timestamp, hostname, program, pid, tid, direction, *channel, size
    ),
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    hostname=st.sampled_from(["www", "app"]),
    program=st.sampled_from(["httpd", "httpd", "java", "sshd"]),
    pid=st.integers(1, 2),
    tid=st.integers(1, 2),
    direction=st.sampled_from(["SEND", "RECEIVE"]),
    channel=st.sampled_from(CHANNELS),
    # a few sizes over and over (a connection's size table answers), and
    # the whole range (it does not)
    size=st.one_of(st.sampled_from([0, 7, 7, 420, 1460]), st.integers(0, 10**6)),
)

ODD_NUMBERS = [
    "+5", "5_0", "٥", "²", "007", "-0", "-7", "0x10", "1e3", "5.0",
    "nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "1_0.5", "",
]  # fmt: skip
ODD_CHANNELS = [
    "a:-80-b:1", "10.0.0.1:80", "10.0.0.1:80+10.9.0.1:41000", "10.0.0.1-10.9.0.1:1",
    "10.0.0.1:80-10.9.0.1", "10.9.0.1:+41000-10.0.0.1:+80", "10.9.0.1:4_1-10.0.0.1:080",
    "::1:80-::2:90", "a:1-b:2-c:3", "10.0.0.1:٨٠-10.9.0.1:41000", "-", ":-:",
]  # fmt: skip
RID_TAILS = [
    "", "", " #rid=7", " #rid=7", "  #rid=7", "\t#rid=7", "\t#rid=12", " #rid=7 #rid=8",
    # ids at and past the edges of the packed int64 column
    " #rid=-1", " #rid=9223372036854775807", " #rid=9223372036854775808",
    " #rid=-9223372036854775808", " #rid=-9223372036854775809",
    " #rid=7\t#rid=8", " #rid=abc", " #rid=#rid=5", " #rid=+5", " #rid=5_0",
    " #rid=٥", " #rid=²", " #rid=", " #rid= 5", " #rid=-3", " #rid=5 6",
    " # rid=5", " #RID=5",
]  # fmt: skip
#: One size spelled five ways, one of them a different size after all:
#: the table is keyed by the token, the ``MessageId`` carries the int.
SIZE_SPELLINGS = ["7", "007", "+7", "0_7", "7_0"]
NOT_RECORDS = ["", "   ", "\t", "# comment", "  # indented comment", "#rid=5", " #rid=5"]
NUMERIC_FIELDS = [0, 3, 4, 7]  # timestamp, pid, tid, size


@st.composite
def log_line(draw):
    fields = format_record(draw(record_strategy)).split(" ")
    mutation = draw(
        st.sampled_from(
            ["none", "none", "none", "torn", "duplicate", "drop", "direction",
             "negative-size", "non-finite", "number", "number", "channel", "rid-token",
             "size-spelling", "size-spelling", "not-a-record"]
        )  # fmt: skip
    )
    if mutation == "not-a-record":
        return draw(st.sampled_from(NOT_RECORDS))
    if mutation == "duplicate":
        index = draw(st.integers(0, 7))
        fields.insert(index, fields[index])
    elif mutation == "drop":
        del fields[draw(st.integers(0, 7))]
    elif mutation == "direction":
        fields[5] = draw(st.sampled_from(["RECV", "send", "SEND|RECEIVE", "BEGIN"]))
    elif mutation == "negative-size":
        fields[7] = "-" + fields[7]  # "-0" is still a size
    elif mutation == "non-finite":
        fields[0] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e400"]))
    elif mutation == "number":
        fields[draw(st.sampled_from(NUMERIC_FIELDS))] = draw(st.sampled_from(ODD_NUMBERS))
    elif mutation == "size-spelling":
        fields[7] = draw(st.sampled_from(SIZE_SPELLINGS))
    elif mutation == "channel":
        fields[6] = draw(st.sampled_from(ODD_CHANNELS))
    elif mutation == "rid-token":
        # a "#rid=" token where a field belongs
        fields[draw(st.integers(0, 7))] = draw(st.sampled_from(["#rid=5", "#rid=", "x#rid=5"]))
    separator = draw(st.sampled_from([" ", " ", " ", "\t", "  ", " \t"]))
    line = (
        draw(st.sampled_from(["", "", " ", "\t"]))
        + separator.join(fields)
        + draw(st.sampled_from(RID_TAILS))
        + draw(st.sampled_from(["", "", "\r", "\r\n", "\n", " "]))
    )
    if mutation == "torn":
        line = line[: draw(st.integers(0, len(line)))]
    return line


class TestFusedLoopEqualsReference:
    @pytest.mark.parametrize("sink", SINKS)
    @given(lines=st.lists(log_line(), min_size=10, max_size=60))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tolerant_mode(self, sink, lines):
        fused, definition = make_classifier(), make_classifier()
        expected, malformed, skipped = reference(lines, definition, strict=False)
        assert_same_activities(run_loop(fused, lines, sink), expected, fused.keys)
        # The loop interns what its rows carry, and nothing else.
        assert fused.keys.sizes() == {
            "contexts": len({a.context for a in expected}),
            "messages": len({a.message.connection_key() for a in expected}),
            "nodes": len({a.context.hostname for a in expected}),
            "plans": 0,
            "signatures": 0,
        }
        assert fused.filtered_count == definition.filtered_count
        assert fused.malformed_count == malformed
        assert fused.skipped_count == skipped
        assert len(lines) == (
            len(expected) + fused.filtered_count + malformed + skipped
        )

    @pytest.mark.parametrize("sink", SINKS)
    @given(
        lines=st.lists(log_line(), min_size=10, max_size=60),
        bound=st.integers(0, 2),
    )
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_tolerant_mode_with_size_tables_that_fill_up(self, sink, lines, bound):
        # Past the bound a MessageId is built per line, as before the memo
        # (and a packed row carries that line's own).
        fused, definition = make_classifier(), make_classifier()
        expected, malformed, _ = reference(lines, definition, strict=False)
        with mock.patch.object(log_format, "_SIZES_PER_CONNECTION", bound):
            assert_same_activities(run_loop(fused, lines, sink), expected, fused.keys)
        assert fused.malformed_count == malformed
        assert fused.filtered_count == definition.filtered_count
        tables = [entry[8] for entry in fused._channel_memo.values()]
        assert all(len(table) <= bound for table in tables)

    @pytest.mark.parametrize("sink", SINKS)
    @given(lines=st.lists(log_line(), min_size=1, max_size=12))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_strict_mode(self, sink, lines):
        fused, definition = make_classifier(), make_classifier()
        try:
            expected, _, skipped = reference(lines, definition, strict=True)
        except LogFormatError as error:
            with pytest.raises(LogFormatError) as raised:
                run_loop(fused, lines, sink, strict=True)
            assert str(raised.value) == str(error)
            assert fused.malformed_count == 0
        else:
            assert_same_activities(run_loop(fused, lines, sink, strict=True), expected, fused.keys)
            assert fused.skipped_count == skipped
        assert fused.filtered_count == definition.filtered_count

    def test_second_pass_over_a_warm_memo_equals_the_first(self):
        # A memo entry is final once its first activity is built.
        records = [
            RawRecord(1.0 + i, "www", "httpd", 1 + i % 2, 1, direction, *ends, 10 * i, i)
            for i, (direction, ends) in enumerate(
                [
                    ("RECEIVE", ("10.9.0.1", 41000, "10.0.0.1", 80)),
                    ("SEND", ("10.0.0.1", 41000, "10.0.0.2", 8080)),
                    ("SEND", ("10.0.0.1", 80, "10.9.0.1", 41000)),
                ]
                * 3
            )
        ]
        lines = [format_record(record) for record in records]
        classifier = make_classifier()
        first = classifier.classify_lines(lines)
        keys = classifier.keys
        assert_same_activities(classifier.classify_lines(lines), first, keys, keys)
        assert_same_activities(first, make_classifier().classify_all(records), keys)


#: Request ids the int64 column cannot carry: past either end, and the
#: one int64 that is the column's ``None``.
OUTSIDE_INT64 = [1 << 63, -(1 << 63), -(1 << 63) - 1, 10**30]


class TestRequestIdsOutsideInt64AreMalformed:
    @pytest.mark.parametrize("rid", OUTSIDE_INT64)
    def test_reference_path_rejects_the_line(self, rid):
        text = line("SEND", "10.0.0.1:80-10.9.0.1:41000") + f" #rid={rid}"
        with pytest.raises(LogFormatError, match="outside int64"):
            parse_record(text)
        edge = (1 << 63) - 1 if rid > 0 else -(1 << 63) + 1
        assert parse_record(text.replace(str(rid), str(edge))).request_id == edge

    @pytest.mark.parametrize("rid", OUTSIDE_INT64)
    def test_fused_loop_counts_the_line_and_packs_the_rest(self, rid):
        channel = "10.0.0.1:80-10.9.0.1:41000"
        lines = [
            line("SEND", channel, ts=1.0) + " #rid=5",
            line("SEND", channel, ts=2.0) + f" #rid={rid}",
            line("SEND", channel, ts=3.0),
        ]
        classifier = make_classifier()
        table = classifier.pack_lines(lines)
        assert classifier.malformed_count == 1
        assert [a.request_id for a in table] == [5, None]
        with pytest.raises(LogFormatError, match="outside int64"):
            make_classifier().pack_lines(lines, strict=True)


# -- units ---------------------------------------------------------------------


def line(direction, channel, program="httpd", pid=7, ts=1.0, size=100, host="www"):
    return f"{ts:.6f} {host} {program} {pid} {pid} {direction} {channel} {size}"


class TestMemoTables:
    def test_channel_seen_as_send_then_receive_still_begins_and_ends(self):
        inbound, outbound = "10.9.0.1:41000-10.0.0.1:80", "10.0.0.1:80-10.9.0.1:41000"
        # The client side of each channel first (logged if the client host
        # is traced too), then the frontend side of the same raw token.
        lines = [
            line("SEND", inbound, host="client"),
            line("RECEIVE", inbound),
            line("RECEIVE", outbound, host="client"),
            line("SEND", outbound),
            line("RECEIVE", inbound),
        ]
        activities = make_classifier().classify_lines(lines)
        assert [a.type for a in activities] == [
            ActivityType.SEND,
            ActivityType.BEGIN,
            ActivityType.RECEIVE,
            ActivityType.END,
            ActivityType.BEGIN,
        ]
        assert [a.priority for a in activities] == [1, 0, 3, 2, 0]
        assert [a.type.is_send_like for a in activities] == [True, False, False, True, False]

    def test_a_port_spelled_differently_is_the_same_connection(self):
        plain, odd = "10.9.0.1:41000-10.0.0.1:80", "10.9.0.1:+41000-10.0.0.1:080"
        first, second = make_classifier().classify_lines(
            [line("RECEIVE", plain), line("RECEIVE", odd, pid="+7")]
        )
        assert second.type is ActivityType.BEGIN
        assert second.message_key == first.message_key
        assert second.message == first.message
        assert second.context is first.context

    @pytest.mark.parametrize(
        "filtered",
        [
            line("SEND", "10.0.0.1:5000-10.0.0.2:8080", program="sshd"),
            line("SEND", "10.0.0.1:5000-10.0.0.2:22"),
            line("RECEIVE", "10.0.0.9:5000-10.0.0.2:8080"),
        ],
        ids=["program", "port", "ip"],
    )
    def test_filtered_on_the_first_line_and_on_the_nth(self, filtered):
        kept = line("SEND", "10.0.0.1:5000-10.0.0.2:8080")
        classifier = make_classifier()
        activities = classifier.classify_lines([filtered, kept] * 5)
        assert len(activities) == 5
        assert classifier.filtered_count == 5
        # across calls too: the live tail classifies poll by poll
        assert classifier.classify_lines([filtered]) == []
        assert classifier.filtered_count == 6

    def test_a_parse_error_outranks_the_filter(self):
        classifier = make_classifier()
        good = line("SEND", "10.0.0.1:5000-10.0.0.2:8080", program="sshd")
        bad_size = line("SEND", "10.0.0.1:5000-10.0.0.2:8080", program="sshd", size=-1)
        assert classifier.classify_lines([good, bad_size, good]) == []
        assert (classifier.filtered_count, classifier.malformed_count) == (2, 1)

    def test_dropped_and_malformed_lines_leave_the_key_space_alone(self):
        # Section 4.3's noise is ephemeral: every line a new pid and port.
        def noise(i):
            fresh = f"10.7.{i}.1:{20000 + i}"
            return [
                line("SEND", f"{fresh}-10.7.0.2:8080", program="sshd", pid=9000 + i),
                line("SEND", f"{fresh}-10.7.0.2:22", pid=9000 + i, host="ghost"),
                line("RECEIVE", f"10.0.0.9:{20000 + i}-{fresh}", pid=9000 + i),
            ]

        def broken(i):
            fresh = f"10.8.{i}.1:{20000 + i}-10.8.0.2:8080"
            return [
                line("SENT", fresh, pid=8000 + i),
                line("SEND", fresh, pid=8000 + i, size=-1),
                line("SEND", fresh, pid=8000 + i, ts=float("nan")),
                line("SEND", fresh, pid=f"{8000 + i}x"),
                line("SEND", fresh.replace("-", "+"), pid=7000 + i),
            ]

        classifier = make_classifier()
        before = classifier.keys.sizes()
        for make, counter in [(noise, "filtered_count"), (broken, "malformed_count")]:
            lines = [text for i in range(50) for text in make(i)]
            assert classifier.classify_lines(lines * 2) == []
            assert getattr(classifier, counter) == 2 * len(lines)
        assert classifier.keys.sizes() == before
        # What the filter dropped is remembered (noise stays on the fast
        # path, one slot each); a line rejected for its direction, size,
        # timestamp or pid never reached the tables.  (The pid-7000 lines
        # did: their context was sound, their channel was not.)
        assert not any(key[2].startswith("8") for key in classifier._context_memo)
        assert not any(key.startswith("10.8.") for key in classifier._channel_memo)

    def test_the_key_space_hears_of_a_context_at_its_first_activity(self):
        classifier = make_classifier()
        keys = classifier.keys
        dropped = line("SEND", "10.6.0.1:5000-10.6.0.2:22", pid=6001, host="late")
        kept = line("SEND", "10.6.0.1:5000-10.6.0.2:8080", pid=6001, host="late")
        before = keys.sizes()
        assert classifier.classify_lines([dropped] * 3) == []
        assert keys.sizes() == before
        first, second = classifier.classify_lines([kept, dropped, kept])
        grown = {"contexts": 1, "messages": 1, "nodes": 1, "plans": 0, "signatures": 0}
        assert keys.sizes() == {kind: size + grown[kind] for kind, size in before.items()}
        assert first.context is second.context
        assert first.context is keys.contexts[first.context_key]
        assert keys.contexts[first.context_key].as_tuple() == ("late", "httpd", 6001, 6001)
        assert keys.connections[first.message_key] == (
            "10.6.0.1", 5000, "10.6.0.2", 8080,
        )  # fmt: skip
        assert keys.node_ids["late"] == first.node_key

    def test_one_context_object_per_context_and_it_is_the_key_spaces(self):
        lines = [
            line("SEND", f"10.0.0.1:{5000 + i}-10.0.0.2:8080", pid=1 + i % 2, ts=i)
            for i in range(6)
        ]
        classifier = make_classifier()
        activities = classifier.classify_lines(lines)
        even, odd = activities[0::2], activities[1::2]
        assert all(a.context is even[0].context for a in even)
        assert all(a.context is odd[0].context for a in odd)
        assert even[0].context is not odd[0].context
        for activity in activities:
            assert activity.context is classifier.keys.contexts[activity.context_key]
            pid = activity.context.pid
            assert activity.context == ContextId("www", "httpd", pid, pid)
        # ip strings are shared across the channel's activities
        assert all(a.message.src_ip is activities[0].message.src_ip for a in activities)
        # a second stream over the same deployment is another run: its own
        # key space, equal objects and not the same ones
        again = make_classifier().classify_lines(lines)
        assert again[0].context == activities[0].context
        assert again[0].context is not activities[0].context

    def test_one_message_id_per_connection_and_size_token(self):
        channel, other = "10.0.0.1:5000-10.0.0.2:8080", "10.0.0.1:5001-10.0.0.2:8080"
        sizes = ["7", "420", "7", "007", "+7", "420", "7_0"]
        lines = [line("SEND", channel, ts=i, size=size) for i, size in enumerate(sizes)]
        lines.append(line("SEND", other, ts=9.0, size="7"))
        classifier = make_classifier()
        activities = classifier.classify_lines(lines)
        assert [a.message.size for a in activities] == [7, 420, 7, 7, 7, 420, 70, 7]
        first, big, again, padded, signed, big_again, seventy, elsewhere = (
            a.message for a in activities
        )
        assert again is first and big_again is big  # the token repeated
        assert padded is not first and signed is not first  # another token
        assert padded == first == signed  # ... of the same size
        assert elsewhere is not first and elsewhere != first  # another connection
        remembered = classifier._channel_memo[channel][8]
        assert set(remembered) == {"7", "420", "007", "+7", "7_0"}
        assert all(a.size == a.message.size for a in activities)

    def test_a_connection_first_seen_filtered_shares_from_its_first_kept_line(self):
        # The program filter drops the first line, so the connection's
        # entry exists before the key space hears of it; the entry re-made
        # at the first kept line is the one whose table is written.
        channel = "10.0.0.1:5000-10.0.0.2:8080"
        classifier = make_classifier()
        assert classifier.classify_lines([line("SEND", channel, program="sshd")]) == []
        placeholder = classifier._channel_memo[channel]
        assert placeholder[5] == -1 and placeholder[8] == {}
        first, second = classifier.classify_lines([line("SEND", channel)] * 2)
        assert first.message is second.message
        entry = classifier._channel_memo[channel]
        assert entry[5] == first.message_key and entry[8] == {"100": first.message}
        assert placeholder[8] == {}
        # a dropped line leaves the table as it is
        classifier.classify_lines([line("SEND", channel, program="sshd", size=5)])
        assert list(entry[8]) == ["100"]

    def test_a_new_connection_is_split_and_classified_once(self, monkeypatch):
        """A kept line's connection is interned at first sight: N distinct
        connections cost N channel splits (and type classifications), not
        a split with the key left unset and a second one to intern it."""
        calls = []
        split = log_format._split_channel

        def counting_split(channel):
            calls.append(channel)
            return split(channel)

        monkeypatch.setattr(log_format, "_split_channel", counting_split)
        channels = [f"10.0.0.1:{5000 + i}-10.0.0.2:8080" for i in range(20)]
        classifier = make_classifier()
        table = classifier.pack_lines(
            [line("SEND", channel, ts=i) for i, channel in enumerate(channels)]
        )
        assert len(table) == len(channels)
        assert calls == channels
        # the ids are given in log order, as when interning waited for a row
        assert list(table._mkeys) == list(range(len(channels)))

    def test_a_full_size_table_builds_per_line_and_stays_full(self, monkeypatch):
        monkeypatch.setattr(log_format, "_SIZES_PER_CONNECTION", 2)
        channel = "10.0.0.1:5000-10.0.0.2:8080"
        classifier = make_classifier()
        sizes = [1, 2, 3, 3, 1]
        activities = classifier.classify_lines(
            [line("SEND", channel, ts=i, size=size) for i, size in enumerate(sizes)]
        )
        one, two, three, three_again, one_again = (a.message for a in activities)
        assert one_again is one
        assert three_again is not three and three_again == three
        assert list(classifier._channel_memo[channel][8]) == ["1", "2"]

    def test_a_full_size_table_still_packs_each_lines_own_message(self, monkeypatch):
        monkeypatch.setattr(log_format, "_SIZES_PER_CONNECTION", 2)
        channel = "10.0.0.1:5000-10.0.0.2:8080"
        sizes = [1, 2, 3, 3, 1, 4]
        table = make_classifier().pack_lines(
            [line("SEND", channel, ts=i, size=size) for i, size in enumerate(sizes)]
        )
        one, two, three, three_again, one_again, four = table._messages
        assert one_again is one  # remembered
        assert three_again is not three and three_again == three  # built per line
        assert [message.size for message in table._messages] == sizes
        built = list(table)
        assert [a.message for a in built] == table._messages
        assert [a.size for a in built] == sizes
        assert len({a.message_key for a in built}) == 1

    def test_a_line_only_the_reference_path_reads_keeps_its_log_position(self, monkeypatch):
        """Whatever ``_classify_odd_line`` returns an activity for packs
        its values where its line stood, like any other row, with the
        ``seq`` of its position -- the rows in front of it draw theirs
        first."""
        reference_path = ActivityClassifier._classify_odd_line

        def odd_line(self, text, strict):
            if text.startswith("!"):  # a shape only the reference path reads
                return self.classify(parse_record(text[1:]))
            return reference_path(self, text, strict)

        monkeypatch.setattr(ActivityClassifier, "_classify_odd_line", odd_line)
        channel = "10.0.0.1:5000-10.0.0.2:8080"
        plain = [line("SEND", channel, ts=i, size=10 + i) for i in range(7)]
        lines = list(plain)
        for index in (0, 3, 6):
            lines[index] = "!" + lines[index]
        lines[5:5] = ["", "torn li"]
        other = make_classifier()
        objects = other.classify_lines(lines)
        classifier = make_classifier()
        table = classifier.pack_lines(lines)
        assert (classifier.skipped_count, classifier.malformed_count) == (1, 1)
        rows = list(table)
        assert_same_activities(rows, objects, table.keys, other.keys)
        third = make_classifier()
        assert_same_activities(rows, third.classify_lines(plain), table.keys, third.keys)
        for row in (0, 3, 6):  # the odd lines' rows are plain rows
            assert table.activity(row) is not table.activity(row)
            assert slots(rows[row], 0) == slots(table.activity(row), 0)
        seqs = list(table._seqs)
        assert seqs == list(range(seqs[0], seqs[0] + 7))

    def test_keyed_constructor_equals_the_dataclass_constructor(self):
        context = ContextId("www", "httpd", 3, 4)
        for kind in ActivityType:
            message = MessageId("10.9.0.1", 41000, "10.0.0.1", 80, 420)
            plain = Activity(kind, 12.5, context, message, request_id=9)
            keyed = Activity.keyed(
                kind, 12.5, context, message, 9,
                plain.context_key, plain.message_key, plain.node_key,
            )  # fmt: skip
            assert keyed.seq == plain.seq + 1
            assert slots(keyed, keyed.seq) == slots(plain, plain.seq)

    def test_load_activities_is_strict_and_skips_blanks(self):
        good = line("RECEIVE", "10.9.0.1:41000-10.0.0.1:80")
        classifier = make_classifier()
        assert len(load_activities(["", "# header", good, "  "], classifier)) == 1
        assert classifier.skipped_count == 3
        with pytest.raises(LogFormatError):
            load_activities([good, "torn li"], make_classifier())


class TestChannelMemoGenerations:
    """The channel memo ages in two generations: 3x the bound of one-off
    connections pass through it, 4 a ``pack_lines`` call, beside three
    connections that recur in every call."""

    BOUND = 8
    RECURRING = [f"10.0.0.2:{6000 + i}-10.0.0.3:3306" for i in range(3)]
    ONE_OFF = [f"10.0.0.1:{5000 + i}-10.0.0.2:8080" for i in range(3 * BOUND)]
    #: distinct channels one call brings
    BLOCK = 4 + len(RECURRING)

    def calls(self):
        calls, ts = [], 0.0
        for start in range(0, len(self.ONE_OFF), 4):
            lines = []
            for channel in self.ONE_OFF[start : start + 4] + self.RECURRING:
                for size in (100, 7, 100):
                    lines.append(line("SEND", channel, ts=ts, size=size))
                    ts += 1.0
            calls.append(lines)
        return calls

    def run(self, monkeypatch, bound):
        """The tables of every call, the memo's size after each, and every
        channel token derived, in order."""
        monkeypatch.setattr(log_format, "_CHANNELS_PER_GENERATION", bound)
        derived = []
        split = log_format._split_channel

        def counting_split(channel):
            derived.append(channel)
            return split(channel)

        monkeypatch.setattr(log_format, "_split_channel", counting_split)
        classifier = make_classifier()
        tables, held = [], []
        for lines in self.calls():
            tables.append(classifier.pack_lines(lines))
            held.append(len(classifier._channel_memo) + len(classifier._old_channel_memo))
        return tables, held, derived

    def test_the_memo_holds_two_generations_at_most(self, monkeypatch):
        _tables, held, _derived = self.run(monkeypatch, self.BOUND)
        assert max(held) <= 2 * self.BOUND + self.BLOCK
        assert held[-1] < len(self.ONE_OFF) + len(self.RECURRING)  # some went

    def test_recurring_tokens_are_derived_once(self, monkeypatch):
        _tables, _held, derived = self.run(monkeypatch, self.BOUND)
        assert sorted(derived) == sorted(self.ONE_OFF + self.RECURRING)

    def test_rows_and_shared_message_ids_match_an_unbounded_memo(self, monkeypatch):
        tables, _held, _derived = self.run(monkeypatch, self.BOUND)
        unbounded, held, _derived = self.run(monkeypatch, 10**9)
        assert held[-1] == len(self.ONE_OFF) + len(self.RECURRING)  # nothing went
        columns = ("_types", "_timestamps", "_ckeys", "_mkeys", "_request_ids", "_messages")
        for table, expected in zip(tables, unbounded):
            for name in columns:
                assert list(getattr(table, name)) == list(getattr(expected, name)), name

        def sharing(tables):
            # each row's message as the first row holding that very object
            first = {}
            return [
                first.setdefault(id(message), index)
                for index, message in enumerate(
                    message for table in tables for message in table._messages
                )
            ]

        assert sharing(tables) == sharing(unbounded)
        assert len(set(sharing(tables))) < sum(map(len, tables))  # shared at all


# -- whole traces ----------------------------------------------------------------

STAGES = WorkloadStages(up_ramp=0.5, runtime=4.0, down_ramp=0.5)


def scenario_run(name, **overrides):
    if name == "rubis":
        overrides.setdefault("clients", 40)
    return run_scenario(ScenarioConfig(scenario=name, stages=STAGES, seed=11, **overrides))


@pytest.fixture(scope="module")
def rubis_run():
    return scenario_run("rubis")


class TestWholeTraces:
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_line_lands_in_exactly_one_counter(self, name, tmp_path):
        run = scenario_run(name)
        paths = write_node_logs(run, tmp_path)
        ignored = set(run.topology.ignore_programs)
        source = LogSource(paths, run.frontend_spec(), ignore_programs=ignored)
        blocks = list(source.blocks())
        activities = [activity for block in blocks for activity in block]
        assert source.lines_read == sum(map(len, run.records_by_node.values()))
        assert source.malformed_lines == source.skipped_lines == 0
        assert lines_conserved(source, activities)
        # and the loop is the definition on generator-drawn traces too
        definition = ActivityClassifier(
            frontends=[run.frontend_spec()], ignore_programs=ignored
        )
        lines = [text for path in paths for text in path.read_text().splitlines()]
        expected, _, _ = reference(lines, definition, strict=True)
        assert_same_activities(activities, expected, blocks[0].keys)
        assert source.filtered_records == definition.filtered_count

    def test_message_ids_are_shared_and_sizes_stay_per_activity(self, rubis_run):
        lines = [format_record(record) for record in rubis_run.all_records()]
        stream = ActivityStream(frontends=[rubis_run.frontend_spec()])
        activities = list(stream.classify_lines(lines))
        assert len(activities) == len(lines)
        tokens = {tuple(text.split(" #rid=")[0].split()[6:8]) for text in lines}
        objects = {id(activity.message) for activity in activities}
        # one frozen identity object per (connection, size token) ...
        assert len(objects) <= len(tokens) < len(activities)
        logged = [activity.message.size for activity in activities]
        assert [activity.size for activity in activities] == logged
        # ... while the byte counter the engine merges into is the one of
        # the object the run built, never the caller's
        result = BackendSpec.batch().correlate(activities)
        assert len(result.cags) == rubis_run.completed_requests
        assert [activity.size for activity in activities] == logged
        rows = [
            row
            for cag in result.cags
            for row in zip(
                cag.column("message_key"), cag.column("message_size"), cag.column("size")
            )
        ]
        merged = [row for row in rows if row[2] != row[1]]
        assert merged, "the engine balances SENDs to 0 and merges parts"
        sharing = {}
        for connection, logged, size in rows:
            sharing.setdefault((connection, logged), []).append(size)
        assert any(len(set(sizes)) > 1 for sizes in sharing.values())

    def test_conservation_holds_on_a_mutated_log(self, rubis_run, tmp_path):
        lines = [format_record(r) for r in rubis_run.all_records()]
        lines[3] = lines[3][: len(lines[3]) // 2]  # torn
        lines[10] = lines[10].replace(" SEND ", " SNED ").replace(" RECEIVE ", " RECV ")
        lines[20:20] = ["", "# rotated", lines[19], "   "]  # blank, comment, duplicate
        lines[40] = "nan " + lines[40].split(" ", 1)[1]
        lines.append(lines[-1][:17])  # unterminated torn tail
        path = tmp_path / "mutated.log"
        path.write_text("\n".join(lines))
        source = LogSource(path, rubis_run.frontend_spec(), ignore_programs={"java"})
        activities = source.activities()
        assert source.lines_read == len(lines)
        assert source.malformed_lines == 4
        assert source.skipped_lines == 3
        assert source.filtered_records > 0
        assert lines_conserved(source, activities)

    def test_nan_timestamps_are_counted_and_cost_at_most_their_own_requests(self):
        # A non-finite timestamp used to parse, sort nowhere, break
        # fetch_until's bisect and take every other path with it at this
        # concurrency -- with malformed_lines == 0 and no error.
        run = scenario_run("rubis", clients=300)
        records = sorted(run.all_records(), key=lambda r: r.timestamp)
        lines = [format_record(record) for record in records]
        hit = range(500, len(lines), 1000)  # 0.1 % of the lines
        assert len(hit) >= 5
        for index, bad in zip(hit, ["nan", "inf", "-inf", "1e400", "NaN"] * len(hit)):
            lines[index] = bad + " " + lines[index].split(" ", 1)[1]
        stream = ActivityStream(frontends=[run.frontend_spec()])
        activities = stream.classify_lines(lines)
        assert stream.malformed_lines == len(hit)
        assert len(activities) == len(lines) - len(hit)
        for backend in (BackendSpec.batch(), BackendSpec.streaming(horizon=5.0)):
            cags = backend.correlate(activities).cags
            report = path_accuracy(cags, run.ground_truth, time_tolerance=1e-5)
            assert report.total_requests - report.correct_paths <= len(hit)

    def test_sharded_run_over_fused_activities_matches_batch(self, rubis_run):
        lines = [format_record(record) for record in rubis_run.all_records()]
        stream = ActivityStream(frontends=[rubis_run.frontend_spec()])
        batch = BackendSpec.batch().correlate(stream.classify_lines(lines))
        sharded = BackendSpec.sharded().correlate(stream.classify_lines(lines))
        assert len(batch.cags) == rubis_run.completed_requests
        assert result_digest(sharded) == result_digest(batch)
