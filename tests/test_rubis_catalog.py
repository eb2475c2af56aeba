"""Tests for the RUBiS request catalogue and workload mixes."""

import pytest

from repro.topology.requests import (
    BROWSE_ONLY_MIX,
    CATALOG,
    DEFAULT_MIX,
    VIEW_ITEM,
    expected_query_count,
    expected_thread_holding_time,
    mix_by_name,
)


class TestCatalog:
    def test_catalog_has_many_interaction_types(self):
        assert len(CATALOG) >= 12

    def test_every_type_touches_the_database(self):
        for request_type in CATALOG.values():
            assert request_type.query_count >= 1

    def test_every_type_has_positive_demands_and_sizes(self):
        for request_type in CATALOG.values():
            assert request_type.httpd_cpu > 0
            assert request_type.app_cpu > 0
            assert request_type.request_bytes > 0
            assert request_type.reply_bytes > 0
            for query in request_type.queries:
                assert query.engine_delay > 0
                assert query.reply_bytes > 0

    def test_view_item_is_a_heavy_read(self):
        assert VIEW_ITEM.query_count >= 5
        assert not VIEW_ITEM.writes
        assert any(query.touches_items for query in VIEW_ITEM.queries)

    def test_write_types_only_in_default_mix(self):
        browse_types = {rt.name for rt, _w in BROWSE_ONLY_MIX}
        default_types = {rt.name for rt, _w in DEFAULT_MIX}
        writers = {name for name, rt in CATALOG.items() if rt.writes}
        assert not (writers & browse_types)
        assert writers & default_types


class TestMixes:
    def test_weights_sum_to_one(self):
        for mix in (BROWSE_ONLY_MIX, DEFAULT_MIX):
            assert sum(weight for _rt, weight in mix) == pytest.approx(1.0, abs=0.01)

    def test_view_item_is_the_most_frequent_interaction(self):
        for mix in (BROWSE_ONLY_MIX, DEFAULT_MIX):
            top = max(mix, key=lambda item: item[1])[0]
            assert top.name == "ViewItem"

    def test_mix_by_name(self):
        assert mix_by_name("browse_only") is BROWSE_ONLY_MIX
        assert mix_by_name("default") is DEFAULT_MIX
        with pytest.raises(KeyError):
            mix_by_name("bogus")

    def test_expected_query_count_in_plausible_range(self):
        count = expected_query_count(BROWSE_ONLY_MIX)
        assert 3.0 < count < 6.0

    def test_thread_holding_time_supports_the_maxthreads_story(self):
        """With MaxThreads=40, the thread pool must saturate around
        40/holding ~ 120-180 requests/s so the paper's knee appears within
        the evaluated client range."""
        holding = expected_thread_holding_time(BROWSE_ONLY_MIX)
        capacity = 40 / holding
        assert 100 <= capacity <= 220

    def test_empty_mix_edge_cases(self):
        assert expected_query_count([]) == 0.0
        assert expected_thread_holding_time([]) == 0.0
