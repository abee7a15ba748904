"""Span self-time arithmetic: rows plus residual add up to the wall."""

import math

from spans import Span, Tracer, layer_table, load_spans, self_times


def span(span_id, name, start, end, parent=None):
    return Span(span_id, name, start, end, parent, "run")


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "service.feed", 0.0, 10.0),
        span(1, "inference.infer", 1.0, 4.0, parent=0),
        span(2, "replay.emulate", 4.0, 9.0, parent=0),
        span(3, "replay.postprocess", 5.0, 6.0, parent=2),
    ]
    own = self_times(spans)
    assert own == {0: 2.0, 1: 3.0, 2: 4.0, 3: 1.0}


def test_rows_plus_residual_equal_wall():
    spans = [
        span(0, "trace_io.parse", 0.5, 2.0),
        span(1, "service.feed", 2.0, 7.0),
        span(2, "inference.infer", 2.5, 4.0, parent=1),
        span(3, "inference.infer", 4.0, 4.5, parent=1),
        span(4, "trace_writers.write", 7.5, 9.0),
    ]
    rows, residual = layer_table(spans, wall_s=10.0)
    assert rows == {
        "trace_io.parse": 1.5,
        "service.feed": 3.0,
        "inference.infer": 2.0,
        "trace_writers.write": 1.5,
    }
    assert residual == 2.0
    assert math.isclose(sum(rows.values()) + residual, 10.0)


def test_same_layer_nesting_counts_time_once():
    spans = [span(0, "trace_io.parse", 0.0, 4.0), span(1, "trace_io.parse", 1.0, 3.0, 0)]
    rows, residual = layer_table(spans, wall_s=5.0)
    assert rows == {"trace_io.parse": 4.0}
    assert residual == 1.0


class _Owner:
    @staticmethod
    def leaf(x):
        return [x] * x

    @staticmethod
    def outer(x):
        return _Owner.leaf(x)


def test_tracer_wraps_nests_counts_and_restores(tmp_path):
    original = _Owner.leaf
    tracer = Tracer("r1")
    tracer.wrap(_Owner, "leaf", "inner", lambda t, r: t.count("items", len(r)))
    tracer.wrap(_Owner, "outer", "outer")
    assert _Owner.outer(3) == [3, 3, 3]
    tracer.restore()
    assert _Owner.leaf is original
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["outer"].parent is None
    assert tracer.counts == {"items": 3}

    path = tmp_path / "spans.json"
    tracer.dump(path, wall_s=1.0)
    spans, counts, wall = load_spans(path)
    assert spans == tracer.spans and counts == {"items": 3} and wall == 1.0


def test_wrap_patches_dict_entries():
    table = {"internal": lambda text: text.upper()}
    tracer = Tracer("r3")
    tracer.wrap(table, "internal", "trace_io.parse")
    assert table["internal"]("ab") == "AB"
    tracer.restore()
    assert table["internal"]("ab") == "AB"
    assert [s.name for s in tracer.spans] == ["trace_io.parse"]
