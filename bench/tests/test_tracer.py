import types

import pytest

from tracer import Span, Target, Tracer, self_times


def test_self_time_subtracts_children_on_a_synthetic_trace():
    spans = [
        Span("root", 0.0, None, 1, end=10.0),
        Span("a", 1.0, 0, 1, end=4.0),
        Span("a.inner", 2.0, 1, 1, end=3.0),
        Span("b", 5.0, 0, 1, end=9.0),
        Span("b.one", 5.0, 3, 1, end=6.0),
        Span("b.two", 7.0, 3, 1, end=9.0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 1.0, 2.0])
    # Every instant of the root interval is owned by exactly one span.
    assert sum(self_times(spans)) == pytest.approx(spans[0].duration)


def test_overlapping_children_are_counted_once():
    spans = [
        Span("root", 0.0, None, 1, end=10.0),
        Span("x", 1.0, 0, 1, end=6.0),
        Span("y", 4.0, 0, 1, end=8.0),
    ]
    assert self_times(spans)[0] == pytest.approx(3.0)


def _fake_module():
    module = types.SimpleNamespace()
    module.leaf = lambda x: x + 1
    module.outer = lambda x: module.leaf(x) * 2
    module.boom = lambda: 1 / 0
    return module


def test_tracer_nests_spans_notes_calls_and_restores():
    module = _fake_module()
    originals = dict(vars(module))
    ticks = iter(range(100))
    targets = [
        Target(module, "outer", "m.outer", note=lambda args, kwargs, result: {"result": result}),
        Target(module, "leaf", "m.leaf"),
        Target(module, "boom", "m.boom"),
    ]
    with Tracer(targets, clock=lambda: float(next(ticks))) as tracer:
        tracer.begin(7)
        assert module.outer(1) == 4
        with pytest.raises(ZeroDivisionError):
            module.boom()
        spans = tracer.spans
    assert vars(module) == originals
    assert [(s.name, s.parent, s.trace_id) for s in spans] == [
        ("m.outer", None, 7),
        ("m.leaf", 0, 7),
        ("m.boom", None, 7),
    ]
    assert [(s.start, s.end) for s in spans] == [(0.0, 3.0), (1.0, 2.0), (4.0, 5.0)]
    assert spans[0].info == {"result": 4}
    assert spans[2].error == "ZeroDivisionError"
    assert self_times(spans) == [2.0, 1.0, 1.0]


def test_tracer_restores_attributes_when_a_target_is_missing():
    module = _fake_module()
    originals = dict(vars(module))
    with pytest.raises(AttributeError):
        with Tracer([Target(module, "leaf", "m.leaf"), Target(module, "absent", "m.absent")]):
            pass
    assert vars(module) == originals
