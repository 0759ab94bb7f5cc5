import types

import pytest

from spans import Span, Tracer, self_times, totals


def test_self_time_with_nested_spans():
    spans = [
        Span("a", -1, 0, 0.0, 10.0),
        Span("b", 0, 0, 1.0, 5.0),
        Span("c", 1, 0, 2.0, 3.0),
        Span("d", 0, 0, 6.0, 8.0),
        Span("a", -1, 1, 10.0, 11.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 3.0, 1.0, 2.0, 1.0])
    t = totals(spans)
    assert t["a"] == pytest.approx((2, 11.0, 5.0))
    assert t["b"] == pytest.approx((1, 4.0, 3.0))


class Problem:
    def value(self, x):
        return helpers.square(x) + 1


helpers = types.SimpleNamespace(square=lambda x: x * x)


def outer(x):
    return Problem().value(x) + Problem().value(x + 1)


def test_tracer_records_parents_steps_and_restores():
    original_value, original_square = Problem.value, helpers.square
    with Tracer("top") as tracer:
        tracer.wrap(Problem, "value", "problem.value", observe=lambda a, k, r: r)
        tracer.wrap(helpers, "square", "helpers.square")
        assert tracer.call("top", outer, 2) == 5 + 10
        assert tracer.call("top", outer, 0) == 1 + 2
    assert Problem.value is original_value and helpers.square is original_square

    spans = tracer.spans
    assert [s.name for s in spans[:5]] == [
        "top", "problem.value", "helpers.square", "problem.value", "helpers.square"]
    assert [s.parent for s in spans[:5]] == [-1, 0, 1, 0, 3]
    assert [s.step for s in spans] == [0] * 5 + [1] * 5
    assert [s.info for s in spans if s.name == "problem.value"] == [5, 10, 1, 2]
    assert all(s.end >= s.start for s in spans)
    own = self_times(spans)
    assert all(v >= 0.0 for v in own)


def test_tracer_closes_span_when_call_raises():
    def boom():
        raise RuntimeError("x")

    tracer = Tracer("none")
    with pytest.raises(RuntimeError):
        tracer.call("boom", boom)
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.call("after", lambda: 1) == 1
    assert tracer.spans[1].parent == -1
