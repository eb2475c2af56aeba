"""Unit tests for TCP_TRACE record parsing and BEGIN/END classification."""

import pytest

from repro.core.activity import ActivityType
from repro.core.log_format import (
    ActivityClassifier,
    FrontendSpec,
    LogFormatError,
    RawRecord,
    format_record,
    load_activities,
    parse_log,
    parse_record,
)


def sample_record(**overrides) -> RawRecord:
    values = dict(
        timestamp=12.345678,
        hostname="www",
        program="httpd",
        pid=101,
        tid=101,
        direction="RECEIVE",
        src_ip="10.9.0.1",
        src_port=41000,
        dst_ip="10.0.0.1",
        dst_port=80,
        size=420,
        request_id=None,
    )
    values.update(overrides)
    return RawRecord(**values)


class TestParseFormat:
    def test_round_trip_without_request_id(self):
        record = sample_record()
        assert parse_record(format_record(record)) == record

    def test_round_trip_with_request_id(self):
        record = sample_record(request_id=77)
        assert parse_record(format_record(record)) == record

    def test_format_matches_paper_layout(self):
        line = format_record(sample_record(direction="SEND"))
        fields = line.split()
        assert fields[1] == "www"
        assert fields[5] == "SEND"
        assert fields[6] == "10.9.0.1:41000-10.0.0.1:80"
        assert fields[7] == "420"

    def test_parse_rejects_wrong_field_count(self):
        with pytest.raises(LogFormatError):
            parse_record("1.0 host prog 1 2 SEND 1.1.1.1:1-2.2.2.2:2")

    def test_parse_rejects_bad_direction(self):
        line = format_record(sample_record()).replace("RECEIVE", "RECV")
        with pytest.raises(LogFormatError):
            parse_record(line)

    def test_parse_rejects_bad_numbers(self):
        with pytest.raises(LogFormatError):
            parse_record("x www httpd 1 1 SEND 1.1.1.1:1-2.2.2.2:2 10")
        with pytest.raises(LogFormatError):
            parse_record("1.0 www httpd one 1 SEND 1.1.1.1:1-2.2.2.2:2 10")

    @pytest.mark.parametrize("bad", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400"])
    def test_parse_rejects_non_finite_timestamps(self, bad):
        # float() takes all of these; a NaN timestamp then breaks every
        # sort and bisect downstream without raising anything.
        with pytest.raises(LogFormatError, match="non-finite"):
            parse_record(f"{bad} www httpd 1 1 SEND 1.1.1.1:1-2.2.2.2:2 10")

    def test_parse_rejects_negative_size(self):
        with pytest.raises(LogFormatError):
            parse_record("1.0 www httpd 1 1 SEND 1.1.1.1:1-2.2.2.2:2 -5")

    def test_parse_rejects_malformed_channel(self):
        with pytest.raises(LogFormatError):
            parse_record("1.0 www httpd 1 1 SEND 1.1.1.1:1+2.2.2.2:2 10")

    def test_parse_rejects_blank_and_comment(self):
        with pytest.raises(LogFormatError):
            parse_record("")
        with pytest.raises(LogFormatError):
            parse_record("# comment")

    def test_parse_rejects_bad_request_id(self):
        line = format_record(sample_record()) + " #rid=abc"
        with pytest.raises(LogFormatError):
            parse_record(line)

    def test_parse_log_skips_blank_and_comment_lines(self):
        lines = ["", "# header", format_record(sample_record()), "  "]
        records = list(parse_log(lines))
        assert len(records) == 1

    def test_record_helpers_build_identifiers(self):
        record = sample_record()
        assert record.context().as_tuple() == ("www", "httpd", 101, 101)
        assert record.message().connection_key() == ("10.9.0.1", 41000, "10.0.0.1", 80)


class TestFrontendSpec:
    def test_endpoint_match(self):
        spec = FrontendSpec(ip="10.0.0.1", port=80)
        assert spec.is_frontend_endpoint("10.0.0.1", 80)
        assert not spec.is_frontend_endpoint("10.0.0.1", 8080)
        assert not spec.is_frontend_endpoint("10.0.0.2", 80)

    def test_external_defaults_to_true_without_internal_list(self):
        spec = FrontendSpec(ip="10.0.0.1", port=80)
        assert spec.is_external("1.2.3.4")

    def test_external_uses_internal_list_when_given(self):
        spec = FrontendSpec(ip="10.0.0.1", port=80, internal_ips=frozenset({"10.0.0.2"}))
        assert spec.is_external("9.9.9.9")
        assert not spec.is_external("10.0.0.2")

    def test_parse_reads_ip_colon_port(self):
        assert FrontendSpec.parse("10.0.0.1:80") == FrontendSpec(ip="10.0.0.1", port=80)

    def test_parse_refuses_a_missing_colon(self):
        with pytest.raises(ValueError, match="expected IP:PORT, got 'oops'"):
            FrontendSpec.parse("oops")
        with pytest.raises(ValueError, match="expected IP:PORT"):
            FrontendSpec.parse(":80")

    def test_parse_refuses_a_non_integer_port(self):
        with pytest.raises(ValueError, match="port must be an integer, got 'http'"):
            FrontendSpec.parse("10.0.0.1:http")

    @pytest.mark.parametrize("port", [0, -1, 65536, 99999])
    def test_port_outside_the_tcp_range_is_refused(self, port):
        with pytest.raises(ValueError, match=f"port must be in 1..65535, got {port}"):
            FrontendSpec.parse(f"10.0.0.1:{port}")
        with pytest.raises(ValueError, match="port must be in 1..65535"):
            FrontendSpec(ip="10.0.0.1", port=port)


class TestActivityClassifier:
    def make_classifier(self, **kwargs):
        frontend = FrontendSpec(
            ip="10.0.0.1", port=80, internal_ips=frozenset({"10.0.0.1", "10.0.0.2"})
        )
        return ActivityClassifier(frontends=[frontend], **kwargs)

    def test_receive_at_frontend_from_external_becomes_begin(self):
        classifier = self.make_classifier()
        activity = classifier.classify(sample_record())
        assert activity.type is ActivityType.BEGIN

    def test_send_from_frontend_to_external_becomes_end(self):
        classifier = self.make_classifier()
        record = sample_record(
            direction="SEND",
            src_ip="10.0.0.1",
            src_port=80,
            dst_ip="10.9.0.1",
            dst_port=41000,
        )
        assert classifier.classify(record).type is ActivityType.END

    def test_internal_traffic_keeps_send_receive_types(self):
        classifier = self.make_classifier()
        send = sample_record(
            direction="SEND", src_ip="10.0.0.1", src_port=33000, dst_ip="10.0.0.2", dst_port=8080
        )
        receive = sample_record(
            direction="RECEIVE", src_ip="10.0.0.1", src_port=33000, dst_ip="10.0.0.2", dst_port=8080
        )
        assert classifier.classify(send).type is ActivityType.SEND
        assert classifier.classify(receive).type is ActivityType.RECEIVE

    def test_receive_at_frontend_from_internal_is_not_begin(self):
        classifier = self.make_classifier()
        record = sample_record(src_ip="10.0.0.2", src_port=50000)
        assert classifier.classify(record).type is ActivityType.RECEIVE

    def test_program_name_filter_drops_record(self):
        classifier = self.make_classifier(ignore_programs={"sshd"})
        assert classifier.classify(sample_record(program="sshd")) is None
        assert classifier.filtered_count == 1

    def test_port_filter_drops_record(self):
        classifier = self.make_classifier(ignore_ports={22})
        record = sample_record(dst_port=22)
        assert classifier.classify(record) is None

    def test_ip_filter_drops_record(self):
        classifier = self.make_classifier(ignore_ips={"10.9.0.1"})
        assert classifier.classify(sample_record()) is None

    def test_classify_all_skips_filtered(self):
        classifier = self.make_classifier(ignore_programs={"sshd"})
        records = [sample_record(), sample_record(program="sshd")]
        activities = classifier.classify_all(records)
        assert len(activities) == 1
        assert classifier.filtered_count == 1

    def test_ground_truth_id_carried_but_not_required(self):
        classifier = self.make_classifier()
        tagged = classifier.classify(sample_record(request_id=5))
        untagged = classifier.classify(sample_record())
        assert tagged.request_id == 5
        assert untagged.request_id is None

    def test_load_activities_end_to_end(self):
        classifier = self.make_classifier()
        lines = [format_record(sample_record()), format_record(sample_record(request_id=3))]
        activities = load_activities(lines, classifier)
        assert len(activities) == 2
        assert activities[0].type is ActivityType.BEGIN
