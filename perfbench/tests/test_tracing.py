"""Self-time and residual arithmetic on hand-built span trees."""

from __future__ import annotations

import asyncio

import pytest

from perfbench import tracing


def span(sid, name, start, end, parent=0, rid=1, amount=1):
    return (sid, name, start, end, parent, rid, amount)


# root [0, 10] -> a [1, 4] -> grandchild [2, 3]
#              -> b [3, 6]   (overlaps a: the children cover [1, 6])
TREE = [
    span(1, "service.ingest", 0.0, 10.0),
    span(2, "kernels.advance", 1.0, 4.0, parent=1),
    span(3, "kernels.select", 3.0, 6.0, parent=1),
    span(4, "core.update", 2.0, 3.0, parent=2),
]


def test_self_time_subtracts_the_union_of_children():
    selfs = tracing.self_times(TREE, 0.0, 10.0)
    assert selfs == {1: pytest.approx(5.0), 2: pytest.approx(2.0),
                     3: pytest.approx(3.0), 4: pytest.approx(1.0)}


def test_self_times_of_nested_calls_partition_the_root():
    tree = [
        span(1, "service.ingest", 0.0, 10.0),
        span(2, "kernels.advance", 1.0, 4.0, parent=1),
        span(3, "kernels.select", 5.0, 9.0, parent=1),
        span(4, "core.update", 2.0, 3.0, parent=2),
    ]
    selfs = tracing.self_times(tree, 0.0, 10.0)
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert tracing.layer_totals([tree], 0.0, 10.0)["unattributed_s"] == pytest.approx(0.0)


def test_self_time_is_clipped_to_the_window():
    selfs = tracing.self_times(TREE, 2.5, 8.0)
    # root [2.5, 8] minus children [2.5, 6]; a [2.5, 4] minus [2.5, 3].
    assert selfs == {1: pytest.approx(2.0), 2: pytest.approx(1.0),
                     3: pytest.approx(3.0), 4: pytest.approx(0.5)}


def test_union_length_merges_overlaps_and_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.75)]) == pytest.approx(3.0)


def test_residual_counts_wall_time_no_busy_span_covers():
    client = [
        span(1, "client.request", 0.0, 10.0),  # waiting: not attributed
        span(2, "protocol.encode", 0.0, 1.0, parent=1, amount=100),
    ]
    daemon = [
        span(1, "service.ingest", 2.0, 5.0, amount=7),  # same id, other process
        span(2, "kernels.advance", 3.0, 4.0, parent=1),
    ]
    totals = tracing.layer_totals([client, daemon], 0.0, 10.0)
    names = totals["names"]
    assert totals["unattributed_s"] == pytest.approx(10.0 - 1.0 - 3.0)
    assert names["client.request"]["self_s"] == pytest.approx(9.0)
    assert names["service.ingest"]["self_s"] == pytest.approx(2.0)
    assert names["kernels.advance"]["self_s"] == pytest.approx(1.0)
    assert names["protocol.encode"]["amount"] == 100
    assert names["service.ingest"]["calls"] == 1


def test_calls_count_spans_started_inside_the_window():
    spans = [span(1, "core.update", 0.0, 2.0), span(2, "core.update", 3.0, 4.0)]
    names = tracing.layer_totals([spans], 1.0, 5.0)["names"]
    assert names["core.update"]["calls"] == 1
    assert names["core.update"]["self_s"] == pytest.approx(2.0)


def test_recorder_links_parents_and_request_ids():
    rec = tracing.Recorder()

    def inner(x):
        return [x] * 3

    inner_w = rec.wrap(inner, "inner", amount=lambda a, k, r: len(r))
    outer_w = rec.wrap(lambda: inner_w(1) + inner_w(2), "outer")
    outer_w()
    outer_w()
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s[1], []).append(s)
    outer_ids = {s[0]: s[5] for s in by_name["outer"]}
    assert len(outer_ids) == 2 and len(set(outer_ids.values())) == 2
    for s in by_name["inner"]:
        assert s[4] in outer_ids  # parent is an outer span
        assert s[5] == outer_ids[s[4]]  # and shares its request id
        assert s[6] == 3


def test_recorder_tracks_asyncio_tasks_separately():
    rec = tracing.Recorder()

    async def leaf():
        await asyncio.sleep(0.01)

    leaf_w = rec.wrap(leaf, "leaf")

    async def request():
        await leaf_w()

    request_w = rec.wrap(request, "request")

    async def main():
        await asyncio.gather(request_w(), request_w())

    asyncio.run(main())
    requests = {s[0] for s in rec.spans if s[1] == "request"}
    leaves = [s for s in rec.spans if s[1] == "leaf"]
    # Interleaved tasks: each leaf belongs to its own task's request.
    assert len(requests) == 2
    assert {s[4] for s in leaves} == requests


def test_patch_and_restore():
    class Owner:
        def method(self):
            return 42

    rec = tracing.Recorder()
    original = Owner.__dict__["method"]
    rec.patch(Owner, "method", "owner.method")
    assert Owner().method() == 42
    assert [s[1] for s in rec.spans] == ["owner.method"]
    rec.restore()
    assert Owner.__dict__["method"] is original
