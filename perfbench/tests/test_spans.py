"""Span arithmetic on synthetic trees."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import probes  # noqa: E402
import spans as sp  # noqa: E402


def tree():
    """root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]."""
    return [
        sp.Span("x.root", 0.0, 10.0, None),
        sp.Span("y.a", 1.0, 4.0, 0),
        sp.Span("y.a", 2.0, 3.0, 1),
        sp.Span("z.b", 5.0, 9.0, 0),
    ]


def test_self_time_subtracts_children():
    assert sp.self_times(tree()) == [3.0, 2.0, 1.0, 4.0]


def test_self_times_sum_to_root_duration():
    spans = tree()
    assert sum(sp.self_times(spans)) == pytest.approx(spans[0].duration)


def test_overlapping_children_are_not_double_counted():
    spans = [
        sp.Span("p", 0.0, 10.0, None),
        sp.Span("c", 1.0, 6.0, 0),
        sp.Span("c", 4.0, 8.0, 0),
    ]
    assert sp.self_times(spans)[0] == pytest.approx(3.0)


def test_union_length_merges_and_skips_empty():
    assert sp.union_length([(0, 2), (1, 3), (5, 6), (7, 7)]) == 4.0
    assert sp.union_length([]) == 0.0


def test_unattributed_fraction():
    spans = [sp.Span("a", 1.0, 3.0, None), sp.Span("b", 6.0, 8.0, None)]
    assert sp.unattributed_frac(spans, 0.0, 10.0) == pytest.approx(0.6)
    # spans poking outside the wall window are clipped
    assert sp.unattributed_frac(spans, 2.0, 7.0) == pytest.approx(0.6)


def test_unattributed_rejects_empty_window():
    with pytest.raises(ValueError):
        sp.unattributed_frac([], 1.0, 1.0)


def test_inclusive_counts_outermost_seconds_and_every_call():
    assert sp.inclusive(tree(), "y.a") == (3.0, 2)
    assert sp.inclusive(tree(), "z.b", under="x.root") == (4.0, 1)
    assert sp.inclusive(tree(), "z.b", not_under="x.root") == (0.0, 0)


def test_layer_self_times_partition_the_covered_wall():
    by_layer = sp.self_by_layer(tree())
    assert by_layer == {"x": 3.0, "y": 3.0, "z": 4.0}
    assert sum(by_layer.values()) == pytest.approx(sp.covered(tree(), 0.0, 10.0))


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = sp.Tracer(clock=lambda: float(next(ticks)))

    def hook(counts, result):
        counts["calls"] += result

    inner = tracer.wrap("l.inner", lambda: 1, hook)
    outer = tracer.wrap("l.outer", lambda: inner() + inner())
    assert outer() == 2
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("l.outer", None), ("l.inner", 0), ("l.inner", 0)]
    assert tracer.counts["calls"] == 2
    assert sp.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_tracer_closes_span_when_call_raises():
    tracer = sp.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("l.boom", boom)()
    assert tracer.spans[0].end >= tracer.spans[0].start
    assert tracer.wrap("l.ok", lambda: 3)() == 3
    assert tracer.spans[1].parent is None


def test_layer_metrics_on_synthetic_flow():
    spans = [
        sp.Span("startup.import", 0.0, 1.0, None),
        sp.Span("core.rd", 1.0, 9.0, None),
        sp.Span("place.converge", 1.0, 5.0, 1),
        sp.Span("place.gp_run", 1.0, 4.0, 2),
        sp.Span("optim.step", 1.0, 3.0, 3),
        sp.Span("place.gp_run", 6.0, 8.0, 1),
        sp.Span("optim.step", 6.0, 7.0, 5),
    ]
    m = probes.layer_metrics(spans, {"core.rd_rounds": 2}, 0.0, 10.0)
    assert m["place.initial_gp_s"] == 4.0
    assert m["place.initial_gp_self_s"] == 1.0
    assert m["place.rd_gp_s"] == 2.0
    assert m["optim.steps"] == 2
    assert m["place.iter_ms"] == pytest.approx(3000.0)
    assert m["share.core"] == pytest.approx(0.2)
    assert m["share.place"] == pytest.approx(0.3)
    assert m["share.optim"] == pytest.approx(0.3)
    assert m["trace.unattributed_frac"] == pytest.approx(0.1)
    assert m["core.best_round"] == -1


class _Round:
    def __init__(self, c, ovf):
        self.c_value, self.total_overflow = c, ovf


def test_c_overflow_disagreements():
    rounds = [_Round(469, 61.5), _Round(592, 46.5), _Round(500, 40), _Round(510, 45)]
    assert probes.c_overflow_disagreements(rounds) == 1
