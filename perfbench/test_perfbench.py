"""Unit tests of the benchmark's own helpers (no program code needed).

Run with ``python3 -m pytest perfbench``.
"""

import time

import pytest

from tracing import Tracer, install, percentile, self_times, tag_requests, validate_name


def test_percentile_reports_value_and_samples_beyond():
    values = list(range(1, 1001))  # 1..1000
    assert percentile(values, 50) == (500, 1000, 500)
    assert percentile(values, 99) == (990, 1000, 10)
    # Order does not matter; the value is always an observed sample.
    assert percentile(list(reversed(values)), 99)[0] == 990


def test_percentile_small_samples_and_bounds():
    assert percentile([7], 99) == (7, 1, 0)
    assert percentile([3, 1, 2], 0) == (1, 3, 2)
    assert percentile([3, 1, 2], 100) == (3, 3, 0)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 40] > b [15, 25]; root > c [50, 90]
    spans = [
        ["root", 0, 100, -1, None],
        ["a", 10, 40, 0, None],
        ["b", 15, 25, 1, None],
        ["c", 50, 90, 0, None],
    ]
    selfs, calls = self_times(spans)
    ns = {name: round(value * 1e9) for name, value in selfs.items()}
    assert ns == {"root": 30, "a": 20, "b": 10, "c": 40}
    assert calls == {"root": 1, "a": 1, "b": 1, "c": 1}
    # Self times partition the root span.
    assert sum(ns.values()) == 100


def test_self_time_sums_repeated_names():
    spans = [
        ["load", 0, 10, -1, None],
        ["decode", 2, 8, 0, None],
        ["load", 20, 25, -1, None],
    ]
    selfs, calls = self_times(spans)
    assert round(selfs["load"] * 1e9) == 4 + 5
    assert calls["load"] == 2


def test_tag_requests_marks_spans_inside_request_windows():
    spans = [
        ["replay", 5, 50, -1, None],
        ["load", 12, 18, 0, None],
        ["decode", 13, 17, 1, None],
        ["unload", 31, 39, 0, None],
        ["tail", 41, 45, 0, None],
    ]
    tag_requests(spans, [("0:100", 10, 20), ("0:200", 30, 40)])
    assert [s[4] for s in spans] == [None, "0:100", "0:100", "0:200", None]


def test_tracer_records_nesting_and_undo():
    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            time.sleep(0.001)
            return x

        @classmethod
        def make(cls):
            return cls

    plain_outer = Owner.__dict__["outer"]
    tracer = Tracer()
    undo = install(tracer, [
        (Owner, "outer", "layer.outer"),
        (Owner, "inner", "layer.inner"),
        (Owner, "make", "layer.make"),
    ])
    try:
        assert Owner.outer(1) == 2
        assert Owner.make() is Owner
    finally:
        undo()
    assert Owner.__dict__["outer"] is plain_outer
    assert [s[0] for s in tracer.spans] == ["layer.outer", "layer.inner", "layer.make"]
    assert [s[3] for s in tracer.spans] == [-1, 0, -1]
    selfs, _calls = self_times(tracer.spans)
    assert selfs["layer.inner"] >= 0.001 > selfs["layer.outer"]


@pytest.mark.parametrize("name", ["setup_s", "cad.place.s", "a-b_c.9", "9lives", "x" * 64])
def test_valid_metric_names(name):
    assert validate_name(name) == name


@pytest.mark.parametrize(
    "name", ["", "_lead", ".lead", "has space", "p99%", "x" * 65, "ümlaut", None]
)
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        validate_name(name)
