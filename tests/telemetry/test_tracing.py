"""Tracing: nesting, cross-thread propagation, sessions, the null twins."""

import sys
import threading

from repro import telemetry
from repro.telemetry import (
    NULL_SPAN,
    NULL_TRACER,
    SpanContext,
    Tracer,
)


def test_spans_nest_implicitly_within_a_thread():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id
    spans = tracer.finished_spans()
    assert [span["name"] for span in spans] == ["inner", "outer"]


def test_span_records_both_clocks_and_duration():
    tracer = Tracer()
    with tracer.span("op") as span:
        pass
    record = tracer.finished_spans()[0]
    assert record["duration"] >= 0
    assert record["end_wall"] >= record["start_wall"]
    assert record["start_wall_iso"].endswith("+00:00")
    assert span.ended


def test_explicit_parent_crosses_threads_via_dict():
    tracer = Tracer()
    carried = {}

    with tracer.span("submitter") as parent:
        wire = tracer.current_context_dict()

    def worker():
        with tracer.span("remote", parent=wire) as span:
            carried["parent_id"] = span.parent_id
            carried["trace_id"] = span.trace_id

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert carried["parent_id"] == parent.span_id
    assert carried["trace_id"] == parent.trace_id


def test_activate_reparents_without_extra_span():
    tracer = Tracer()
    with tracer.span("root") as root:
        wire = tracer.current_context_dict()
    result = {}

    def worker():
        with tracer.activate(wire):
            with tracer.span("child") as child:
                result["parent_id"] = child.parent_id

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert result["parent_id"] == root.span_id
    # No span named for the activation itself.
    assert {s["name"] for s in tracer.finished_spans()} == {
        "root",
        "child",
    }


def test_subtree_collects_descendants_only():
    tracer = Tracer()
    with tracer.span("a") as a:
        with tracer.span("b") as b:
            with tracer.span("c"):
                pass
    with tracer.span("unrelated"):
        pass
    names = {s["name"] for s in tracer.subtree(a.span_id)}
    assert names == {"a", "b", "c"}
    assert {s["name"] for s in tracer.subtree(b.span_id)} == {"b", "c"}


def _names(records):
    return [record["name"] for record in records]


def _deep_tree_ended_out_of_start_order():
    """root -> {a -> {a1, a2}, b -> b1 -> b11}, ended leaves first with
    siblings ended in reverse start order."""
    tracer = Tracer()
    root = tracer.span("root")
    a = tracer.span("a", parent=root)
    b = tracer.span("b", parent=root)
    a1 = tracer.span("a1", parent=a)
    a2 = tracer.span("a2", parent=a)
    b1 = tracer.span("b1", parent=b)
    b11 = tracer.span("b11", parent=b1)
    for span in (b11, a2, b1, a1, b, a, root):
        span.end()
    return tracer, root, b


def test_finished_spans_are_in_completion_order():
    tracer, _, _ = _deep_tree_ended_out_of_start_order()
    assert _names(tracer.finished_spans()) == [
        "b11", "a2", "b1", "a1", "b", "a", "root",
    ]


def test_subtree_is_root_first_breadth_first_in_completion_order():
    tracer, root, b = _deep_tree_ended_out_of_start_order()
    assert _names(tracer.subtree(root.span_id)) == [
        "root", "b", "a", "b1", "a2", "a1", "b11",
    ]
    assert _names(tracer.subtree(b.span_id)) == ["b", "b1", "b11"]


def test_subtree_records_equal_finished_span_records():
    tracer, root, _ = _deep_tree_ended_out_of_start_order()
    by_name = {record["name"]: record for record in tracer.finished_spans()}
    subtree = tracer.subtree(root.span_id)
    assert subtree == [by_name[record["name"]] for record in subtree]


def test_subtree_follows_children_parented_across_threads():
    tracer = Tracer()
    parent = tracer.span("parent")
    wire = parent.context.to_dict()

    def worker():
        with tracer.span("via-dict", parent=wire):
            with tracer.span("grandchild"):
                pass
        with tracer.span("via-context", parent=SpanContext.from_dict(wire)):
            pass

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    parent.end()
    assert _names(tracer.subtree(parent.span_id)) == [
        "parent", "via-dict", "via-context", "grandchild",
    ]


def test_subtree_of_open_span_holds_its_finished_descendants():
    tracer = Tracer()
    with tracer.span("open") as open_span:
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("sibling"):
            pass
        assert _names(tracer.subtree(open_span.span_id)) == [
            "child", "sibling", "grandchild",
        ]
    assert tracer.subtree("unknown-span-id") == []


def test_concurrent_finishes_lose_no_span_from_the_indexes():
    tracer = Tracer()
    parent = tracer.span("parent")
    wire = parent.context.to_dict()
    threads_n, spans_per_thread = 8, 200

    def worker():
        for _ in range(spans_per_thread):
            with tracer.span("child", parent=wire):
                with tracer.span("leaf"):
                    pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    parent.end()
    total = 1 + 2 * threads_n * spans_per_thread
    assert len(tracer.finished_spans()) == total
    subtree = tracer.subtree(parent.span_id)
    assert len(subtree) == total
    assert _names(subtree[: 1 + threads_n * spans_per_thread]) == [
        "parent"
    ] + ["child"] * (threads_n * spans_per_thread)


def test_exception_marks_span_and_still_finishes():
    tracer = Tracer()
    try:
        with tracer.span("boom"):
            raise RuntimeError("x")
    except RuntimeError:
        pass
    record = tracer.finished_spans()[0]
    assert record["attributes"]["error"] == "RuntimeError"
    assert record["duration"] is not None


def test_span_context_round_trips():
    ctx = SpanContext("t", "s")
    assert SpanContext.from_dict(ctx.to_dict()).span_id == "s"
    assert SpanContext.from_dict(None) is None


def test_null_tracer_is_inert():
    with NULL_TRACER.span("x", attributes={"a": 1}) as span:
        assert span is NULL_SPAN
        span.set_attribute("k", "v")
    with NULL_TRACER.activate({"trace_id": "t", "span_id": "s"}):
        pass
    assert NULL_TRACER.finished_spans() == []
    assert NULL_TRACER.subtree("anything") == []
    assert NULL_TRACER.current_context_dict() is None


def test_global_session_enable_disable():
    assert not telemetry.enabled()
    assert telemetry.get_tracer() is NULL_TRACER
    session = telemetry.enable()
    try:
        assert telemetry.enabled()
        assert telemetry.get_tracer() is session.tracer
        assert telemetry.get_metrics() is session.metrics
        assert telemetry.get_event_log() is session.events
    finally:
        telemetry.disable()
    assert telemetry.get_tracer() is NULL_TRACER


def test_session_context_manager_restores_previous_state():
    with telemetry.session() as session:
        assert telemetry.current_session() is session
        with telemetry.session() as nested:
            assert telemetry.current_session() is nested
        assert telemetry.current_session() is session
    assert telemetry.current_session() is None


def test_session_snapshot_bundles_all_three():
    with telemetry.session() as session:
        with session.tracer.span("op"):
            pass
        session.metrics.counter("c").inc()
        session.events.emit("e", detail=1)
        snap = session.snapshot()
    assert len(snap["spans"]) == 1
    assert snap["metrics"][0]["name"] == "c"
    assert snap["events"][0]["kind"] == "e"
    assert snap["version"] == 1
