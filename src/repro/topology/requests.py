"""Request catalogue and workload mixes of the RUBiS-like service.

RUBiS is a three-tier auction site (eBay-like): browse categories and
regions, search items, view items/users/bid histories, and -- in the
read-write ("Default") mix -- place bids, comments and new items.  Each
interaction touches the web tier, the application tier and a
request-type-specific number of database queries, which is what gives the
different causal-path patterns their distinctive shapes.

The service-time parameters below are calibrated so the *shape* of the
paper's evaluation reappears on the simulated cluster:

* the application-server thread pool (``MaxThreads = 40``) is the binding
  resource: a thread is held for roughly 0.3 s per request (mostly waiting
  on database round trips), so throughput saturates around 130-150
  requests/s, i.e. around 700-850 emulated clients with the default think
  time -- the knee of Fig. 8/12/13;
* raising ``MaxThreads`` to 250 moves the bottleneck to the database
  engine (about 160 requests/s), reproducing Fig. 16;
* ViewItem is the most frequent causal-path pattern, the natural target of
  the latency-percentage analysis of Fig. 15.

Absolute latencies are not meant to match the 2009 testbed; relative
behaviour is.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

# The operation dataclasses are topology-neutral cost models shared by
# every scenario catalogue.
from .operations import QuerySpec, RequestType


def _query(
    name: str,
    engine_delay: float = 0.025,
    dispatch_delay: float = 0.040,
    reply_bytes: int = 8_000,
    touches_items: bool = False,
    db_cpu: float = 0.0012,
) -> QuerySpec:
    return QuerySpec(
        name=name,
        db_cpu=db_cpu,
        dispatch_delay=dispatch_delay,
        engine_delay=engine_delay,
        reply_bytes=reply_bytes,
        touches_items=touches_items,
    )


# -- read-only interactions ----------------------------------------------------------

HOME = RequestType(
    name="Home",
    app_cpu=0.003,
    queries=(_query("load_categories", engine_delay=0.015, reply_bytes=3_000),),
    reply_bytes=9_000,
    app_reply_bytes=7_000,
)

BROWSE_CATEGORIES = RequestType(
    name="BrowseCategories",
    app_cpu=0.004,
    queries=(
        _query("list_categories", engine_delay=0.018, reply_bytes=4_000),
        _query("count_items", engine_delay=0.020, reply_bytes=1_500, touches_items=True),
    ),
    reply_bytes=12_000,
    app_reply_bytes=9_000,
)

BROWSE_REGIONS = RequestType(
    name="BrowseRegions",
    app_cpu=0.004,
    queries=(
        _query("list_regions", engine_delay=0.018, reply_bytes=3_500),
        _query("count_users", engine_delay=0.020, reply_bytes=1_500),
    ),
    reply_bytes=11_000,
    app_reply_bytes=8_500,
)

SEARCH_ITEMS_IN_CATEGORY = RequestType(
    name="SearchItemsInCategory",
    app_cpu=0.006,
    queries=(
        _query("select_category", engine_delay=0.016, reply_bytes=1_200),
        _query("search_items_page", engine_delay=0.030, reply_bytes=14_000, touches_items=True),
        _query("item_thumbnails", engine_delay=0.022, reply_bytes=9_000, touches_items=True),
        _query("max_bids", engine_delay=0.024, reply_bytes=4_000),
        _query("bid_counts", engine_delay=0.022, reply_bytes=3_000),
    ),
    reply_bytes=30_000,
    app_reply_bytes=24_000,
)

SEARCH_ITEMS_IN_REGION = RequestType(
    name="SearchItemsInRegion",
    app_cpu=0.006,
    queries=(
        _query("select_region", engine_delay=0.016, reply_bytes=1_200),
        _query("users_in_region", engine_delay=0.024, reply_bytes=6_000),
        _query("search_items_region", engine_delay=0.030, reply_bytes=13_000, touches_items=True),
        _query("max_bids", engine_delay=0.024, reply_bytes=4_000),
        _query("bid_counts", engine_delay=0.022, reply_bytes=3_000),
    ),
    reply_bytes=28_000,
    app_reply_bytes=22_000,
)

VIEW_ITEM = RequestType(
    name="ViewItem",
    app_cpu=0.006,
    queries=(
        _query("select_item", engine_delay=0.026, reply_bytes=6_000, touches_items=True),
        _query("select_seller", engine_delay=0.020, reply_bytes=2_500),
        _query("max_bid", engine_delay=0.024, reply_bytes=1_500),
        _query("bid_history_head", engine_delay=0.026, reply_bytes=5_000),
        _query("related_items", engine_delay=0.028, reply_bytes=9_000, touches_items=True),
        _query("item_comments", engine_delay=0.024, reply_bytes=6_000),
    ),
    reply_bytes=26_000,
    app_reply_bytes=20_000,
)

VIEW_USER_INFO = RequestType(
    name="ViewUserInfo",
    app_cpu=0.005,
    queries=(
        _query("select_user", engine_delay=0.020, reply_bytes=2_500),
        _query("user_comments", engine_delay=0.026, reply_bytes=7_000),
        _query("user_rating", engine_delay=0.020, reply_bytes=1_200),
        _query("user_items", engine_delay=0.026, reply_bytes=8_000, touches_items=True),
    ),
    reply_bytes=18_000,
    app_reply_bytes=14_000,
)

VIEW_BID_HISTORY = RequestType(
    name="ViewBidHistory",
    app_cpu=0.005,
    queries=(
        _query("select_item", engine_delay=0.024, reply_bytes=5_000, touches_items=True),
        _query("bids_for_item", engine_delay=0.028, reply_bytes=9_000),
        _query("bidders", engine_delay=0.024, reply_bytes=5_000),
    ),
    reply_bytes=16_000,
    app_reply_bytes=12_000,
)

ABOUT_ME = RequestType(
    name="AboutMe",
    app_cpu=0.007,
    queries=(
        _query("select_user", engine_delay=0.020, reply_bytes=2_500),
        _query("user_bids", engine_delay=0.026, reply_bytes=7_000),
        _query("user_items", engine_delay=0.026, reply_bytes=8_000, touches_items=True),
        _query("won_items", engine_delay=0.024, reply_bytes=5_000, touches_items=True),
        _query("user_comments", engine_delay=0.024, reply_bytes=6_000),
    ),
    reply_bytes=24_000,
    app_reply_bytes=19_000,
)

# -- read-write interactions (Default mix only) ----------------------------------------

PUT_BID = RequestType(
    name="PutBid",
    app_cpu=0.005,
    queries=(
        _query("select_item", engine_delay=0.024, reply_bytes=5_000, touches_items=True),
        _query("max_bid", engine_delay=0.022, reply_bytes=1_500),
        _query("select_user", engine_delay=0.018, reply_bytes=2_500),
    ),
    reply_bytes=14_000,
    app_reply_bytes=11_000,
    writes=False,
)

STORE_BID = RequestType(
    name="StoreBid",
    app_cpu=0.006,
    queries=(
        _query("select_item_for_update", engine_delay=0.026, reply_bytes=4_000, touches_items=True),
        _query("insert_bid", engine_delay=0.030, reply_bytes=600),
        _query("update_item_maxbid", engine_delay=0.028, reply_bytes=600, touches_items=True),
        _query("commit", engine_delay=0.018, reply_bytes=400),
    ),
    reply_bytes=9_000,
    app_reply_bytes=7_000,
    writes=True,
)

PUT_COMMENT = RequestType(
    name="PutComment",
    app_cpu=0.004,
    queries=(
        _query("select_user", engine_delay=0.018, reply_bytes=2_500),
        _query("select_item", engine_delay=0.022, reply_bytes=4_500, touches_items=True),
    ),
    reply_bytes=11_000,
    app_reply_bytes=9_000,
)

STORE_COMMENT = RequestType(
    name="StoreComment",
    app_cpu=0.005,
    queries=(
        _query("insert_comment", engine_delay=0.028, reply_bytes=600),
        _query("update_rating", engine_delay=0.024, reply_bytes=600),
        _query("commit", engine_delay=0.016, reply_bytes=400),
    ),
    reply_bytes=8_000,
    app_reply_bytes=6_500,
    writes=True,
)

REGISTER_ITEM = RequestType(
    name="RegisterItem",
    app_cpu=0.006,
    queries=(
        _query("insert_item", engine_delay=0.032, reply_bytes=700, touches_items=True),
        _query("select_category", engine_delay=0.016, reply_bytes=1_200),
        _query("update_seller_stats", engine_delay=0.024, reply_bytes=600),
        _query("commit", engine_delay=0.018, reply_bytes=400),
    ),
    reply_bytes=10_000,
    app_reply_bytes=8_000,
    writes=True,
)

REGISTER_USER = RequestType(
    name="RegisterUser",
    app_cpu=0.005,
    queries=(
        _query("check_nickname", engine_delay=0.020, reply_bytes=800),
        _query("insert_user", engine_delay=0.026, reply_bytes=600),
        _query("commit", engine_delay=0.016, reply_bytes=400),
    ),
    reply_bytes=9_000,
    app_reply_bytes=7_000,
    writes=True,
)


#: Every interaction, by name.
CATALOG: Dict[str, RequestType] = {
    request_type.name: request_type
    for request_type in (
        HOME,
        BROWSE_CATEGORIES,
        BROWSE_REGIONS,
        SEARCH_ITEMS_IN_CATEGORY,
        SEARCH_ITEMS_IN_REGION,
        VIEW_ITEM,
        VIEW_USER_INFO,
        VIEW_BID_HISTORY,
        ABOUT_ME,
        PUT_BID,
        STORE_BID,
        PUT_COMMENT,
        STORE_COMMENT,
        REGISTER_ITEM,
        REGISTER_USER,
    )
}


#: The read-only ("Browse_Only") workload mix: (request type, probability weight).
BROWSE_ONLY_MIX: Tuple[Tuple[RequestType, float], ...] = (
    (HOME, 0.05),
    (BROWSE_CATEGORIES, 0.09),
    (BROWSE_REGIONS, 0.06),
    (SEARCH_ITEMS_IN_CATEGORY, 0.18),
    (SEARCH_ITEMS_IN_REGION, 0.10),
    (VIEW_ITEM, 0.32),
    (VIEW_USER_INFO, 0.08),
    (VIEW_BID_HISTORY, 0.07),
    (ABOUT_ME, 0.05),
)

#: The read-write ("Default") workload mix (about 15 % writes, like RUBiS').
DEFAULT_MIX: Tuple[Tuple[RequestType, float], ...] = (
    (HOME, 0.04),
    (BROWSE_CATEGORIES, 0.07),
    (BROWSE_REGIONS, 0.05),
    (SEARCH_ITEMS_IN_CATEGORY, 0.14),
    (SEARCH_ITEMS_IN_REGION, 0.08),
    (VIEW_ITEM, 0.26),
    (VIEW_USER_INFO, 0.07),
    (VIEW_BID_HISTORY, 0.05),
    (ABOUT_ME, 0.05),
    (PUT_BID, 0.06),
    (STORE_BID, 0.05),
    (PUT_COMMENT, 0.03),
    (STORE_COMMENT, 0.02),
    (REGISTER_ITEM, 0.02),
    (REGISTER_USER, 0.01),
)

#: Workload mixes by name, as used by the experiment configuration.
WORKLOAD_MIXES: Dict[str, Tuple[Tuple[RequestType, float], ...]] = {
    "browse_only": BROWSE_ONLY_MIX,
    "default": DEFAULT_MIX,
}


def mix_by_name(name: str) -> Tuple[Tuple[RequestType, float], ...]:
    """Look up a workload mix, raising a helpful error for typos."""
    try:
        return WORKLOAD_MIXES[name]
    except KeyError as exc:
        known = ", ".join(sorted(WORKLOAD_MIXES))
        raise KeyError(f"unknown workload {name!r}; known workloads: {known}") from exc


def expected_query_count(mix: Sequence[Tuple[RequestType, float]]) -> float:
    """Average number of database queries per request under a mix."""
    total_weight = sum(weight for _rt, weight in mix)
    if total_weight <= 0:
        return 0.0
    return sum(rt.query_count * weight for rt, weight in mix) / total_weight


def expected_thread_holding_time(mix: Sequence[Tuple[RequestType, float]]) -> float:
    """Rough mean time an application-server thread is held per request.

    Used by capacity planning in tests and docs; it ignores queueing so it
    is only the *light load* holding time.
    """
    total_weight = sum(weight for _rt, weight in mix)
    if total_weight <= 0:
        return 0.0
    holding = 0.0
    for request_type, weight in mix:
        per_request = request_type.app_cpu + request_type.app_reply_cpu
        for query in request_type.queries:
            per_request += (
                query.dispatch_delay
                + query.engine_delay
                + query.db_cpu
                + request_type.app_per_query_cpu
            )
        holding += weight * per_request
    return holding / total_weight
