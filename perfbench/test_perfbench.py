"""Tests of the benchmark's own parts: tracer, input stream and checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gzip
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from perfbench import checks, streams  # noqa: E402
from perfbench.tracer import NO_PARENT, Target, Tracer  # noqa: E402


class FakeClock:
    """The tracer's clock; traced functions advance it."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def fake_modules(clock):
    """``fakepkg.low`` defines leaf() and walk(); ``fakepkg.high`` binds
    leaf under an alias and calls both from outer()."""
    low = types.ModuleType("fakepkg.low")
    high = types.ModuleType("fakepkg.high")

    def leaf(g):
        clock.spend(1.0)
        return g

    def walk(depth):
        clock.spend(0.5)
        if depth:
            low.walk(depth - 1)  # through the module, as recursion does

    def outer(g):
        clock.spend(2.0)
        high._leaf(g)
        clock.spend(3.0)
        high.leaf(g)
        low.walk(2)
        return "done"

    low.leaf, low.walk = leaf, walk
    high.leaf = high._leaf = leaf
    high.outer = outer
    sys.modules["fakepkg.low"], sys.modules["fakepkg.high"] = low, high
    yield low, high
    del sys.modules["fakepkg.low"], sys.modules["fakepkg.high"]


def test_nested_spans_give_self_time(fake_modules, clock):
    low, high = fake_modules
    original_leaf = low.leaf
    tr = Tracer(clock)
    tr.install([
        Target("high", "fakepkg.high", "outer", graph_arg=True),
        Target("low", "fakepkg.low", "leaf"),
    ])
    # every module that bound leaf, under any name, now holds the wrapper
    assert low.leaf is high.leaf is high._leaf is not original_leaf
    assert high.outer("g1") == "done"
    tr.uninstall()
    assert low.leaf is high.leaf is high._leaf is original_leaf

    # outer: 2 + 3 + 1.5 (walk is not traced) of its own, 2 s in leaf
    assert tr.self_s["high"] == pytest.approx(6.5)
    assert tr.self_s["low"] == pytest.approx(2.0)
    assert tr.calls["low.leaf"] == 2
    assert tr.inclusive_s["high.outer"] == pytest.approx(8.5)
    assert tr.span_count == 3
    # both leaf spans hang off the outer span and inherit its graph id
    outer_ix = tr.spans_of("high.outer")[0]
    for i in tr.spans_of("low.leaf"):
        assert tr.parent[i] == tr.span_id[outer_ix]
        assert tr.graph[i] == tr.graph[outer_ix] == tr.graph_id("g1")


def self_times(spans):
    """Reference reduction over written ``(id, parent, start, end)`` rows:
    a span's duration minus the part of it its child spans cover."""
    covered = {}
    for _sid, parent, start, end in spans:
        if parent != NO_PARENT:
            covered[parent] = covered.get(parent, 0.0) + end - start
    return {sid: (end - start) - covered.get(sid, 0.0)
            for sid, _parent, start, end in spans}


def test_offline_reduction_matches_online(fake_modules, clock, tmp_path):
    low, high = fake_modules
    tr = Tracer(clock)
    tr.install([Target("high", "fakepkg.high", "outer"),
                Target("low", "fakepkg.low", "leaf")])
    high.outer("g")
    high.outer("g")
    tr.uninstall()
    path = tmp_path / "spans.tsv.gz"
    tr.write_spans(path)
    with gzip.open(path, "rt") as f:
        header, *rows = f.read().splitlines()
    assert header.split("\t") == ["span", "parent", "name", "graph",
                                  "start", "end"]
    assert len(rows) == tr.span_count == 6
    parsed = []
    layer_of = {}
    for row in rows:
        sid, parent, name, _graph, start, end = row.split("\t")
        parsed.append((int(sid), int(parent), float(start), float(end)))
        layer_of[int(sid)] = name.split(".")[0]
    offline = {}
    for sid, s in self_times(parsed).items():
        offline[layer_of[sid]] = offline.get(layer_of[sid], 0.0) + s
    assert offline == pytest.approx(dict(tr.self_s))


def test_recursive_function_spans_outermost_frame_only(fake_modules, clock):
    low, _high = fake_modules
    tr = Tracer(clock)
    tr.install([Target("low", "fakepkg.low", "walk", recursive=True)])
    low.walk(3)
    tr.uninstall()
    assert tr.calls["low.walk"] == 4
    assert tr.span_count == 1
    assert tr.inclusive_s["low.walk"] == pytest.approx(2.0)
    assert tr.self_s["low"] == pytest.approx(2.0)


def test_count_target_counts_without_spans(fake_modules, clock):
    low, high = fake_modules
    tr = Tracer(clock)
    tr.install([Target("low", "fakepkg.low", "leaf", span=False)])
    high.outer("g")
    tr.uninstall()
    assert tr.calls["low.leaf"] == 2
    assert tr.span_count == 0


def test_errors_are_counted_and_reraised(fake_modules, clock):
    low, _high = fake_modules

    def boom(g):
        raise ValueError("no")

    low.boom = boom
    tr = Tracer(clock)
    tr.install([Target("low", "fakepkg.low", "boom")])
    with pytest.raises(ValueError):
        low.boom("g")
    tr.uninstall()
    assert tr.errors["low.boom"] == 1
    assert tr.span_count == 1
    assert not tr._stack


def test_identical_seeds_give_byte_identical_streams():
    first = "\n".join(f"{gid} {line}" for gid, line, _ in
                      streams.build_stream(7))
    again = "\n".join(f"{gid} {line}" for gid, line, _ in
                      streams.build_stream(7))
    other = "\n".join(f"{gid} {line}" for gid, line, _ in
                      streams.build_stream(8))
    assert first.encode() == again.encode()
    assert first != other


def test_stream_graphs_are_2_connected_cubic():
    stream = streams.build_stream(1)
    assert len(stream) >= 200
    orders = set()
    for gid, line, traceable in stream:
        adj = streams.parse_graph6(line)
        assert streams.write_graph6(adj) == line
        assert all(a.bit_count() == 3 for a in adj), gid
        assert streams.is_biconnected(adj), gid
        assert traceable is (False if not gid.startswith("random") else None)
        orders.add(len(adj))
    assert min(orders) == streams.ORDERS[0]
    assert max(orders) == streams.ORDERS[-1]


def test_graph6_agrees_with_the_package():
    from cubicml.graph import parse_graph6

    for _gid, line, _ in streams.build_stream(2)[::25]:
        assert tuple(streams.parse_graph6(line)) == parse_graph6(line).adj


def test_checks_catch_bad_witnesses():
    # the 4-cycle 0-1-2-3-0 plus the chord 0-2
    adj = [0] * 4
    for u, v in ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    assert checks.path_problems(adj, (0, 1, 2, 3)) == []
    assert checks.path_problems(adj, (1, 3, 0, 2))  # 1-3 is no edge
    assert checks.path_problems(adj, (0, 1, 2))
    assert checks.cover_problems(adj, ((0, 1), (2, 3)), 2) == []
    assert checks.cover_problems(adj, ((0, 1), (2, 3)), 1)
    assert checks.cover_problems(adj, ((0, 3), (1, 2, 0)), 2)
    # parent arrays rooted at 0: the star, then the path 0-1-2-3
    assert checks.tree_leaves(adj, (0, 0, 0, 0)) == (3, [])
    assert checks.tree_leaves(adj, (0, 0, 1, 2)) == (2, [])
    assert checks.tree_leaves(adj, (0, 2, 1, 0))[0] is None  # 1-2 cycle
    assert checks.tree_leaves(adj, (0, 3, 0, 0))[0] is None  # 1-3 no edge


def test_benchmark_json_matches_the_code():
    import json

    from perfbench import harness, layers
    from perfbench.workloads import WORKLOADS

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == layers.PER_LAYER
