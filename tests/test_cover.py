"""The constructive cover pipeline: peel, exchange, reroute, assemble, audit."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubicml.cover as cover
import oracles
from cubicml.graph import Graph, is_cubic, parse_graph6
from cubicml.cover import (
    SHORT_THRESHOLD,
    CoverError,
    LongPathError,
    VdpCover,
    _merge_once,
    cover_to_tree,
    initial_vdp_cover,
    optimize_cover,
    reroute_short_path,
    run_cover_procedure,
)
from cubicml.exact import min_leaf_number, path_cover_number
from conftest import random_connected_graph, random_cubic_graph
from oracles import (filtered_reroute, has_exchange_join,
                     retrying_cover_to_tree, tree_edges)


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_empty_leg_is_not_a_cover():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    c = VdpCover(((0, 1, 2), ()))
    assert not c.validate(g)
    # cover_to_tree once validated it and then raised IndexError
    with pytest.raises(CoverError):
        cover_to_tree(g, c)
    with pytest.raises(CoverError):
        optimize_cover(g, c)


def test_vdp_cover_counts():
    c = VdpCover((tuple(range(20)), (20, 21)))
    assert c.long_count == 1 and c.short_count == 1
    assert c.sum_squares == 400 + 4
    assert SHORT_THRESHOLD == 18


def test_vdp_cover_validate():
    g = cycle(4)
    assert VdpCover(((0, 1), (2, 3)),).validate(g)
    assert not VdpCover(((0, 1), (1, 2, 3)),).validate(g)  # overlap
    assert not VdpCover(((0, 1),),).validate(g)  # not covering
    assert not VdpCover(((0, 2), (1, 3)),).validate(g)  # non-edges


def test_initial_cover_is_valid():
    rng = random.Random(31)
    for n in (8, 12, 16):
        g = random_cubic_graph(rng, n)
        c = initial_vdp_cover(g)
        assert c.validate(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30), st.floats(0.15, 0.6),
       st.randoms(use_true_random=False))
def test_initial_cover_leaves_nothing_to_merge(n, p, rng):
    # a finished path's ends have no uncovered neighbour, so no later path
    # touches them: the greedy peel leaves no end-to-end join
    g = random_connected_graph(rng, n, p)
    assert not _merge_once(g, list(initial_vdp_cover(g).paths))


def test_initial_cover_rejects_disconnected():
    with pytest.raises(CoverError):
        initial_vdp_cover(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_optimize_never_increases_size_and_grows_sum_squares():
    rng = random.Random(32)
    for _ in range(15):
        g = random_cubic_graph(rng, 14)
        c = initial_vdp_cover(g)
        opt = optimize_cover(g, c)
        assert opt.validate(g)
        assert len(opt.paths) <= len(c.paths)
        # the quadratic exchange is exhausted at a fixpoint
        assert not has_exchange_join(g, opt)


def test_optimize_with_exact_target_reaches_minimum():
    rng = random.Random(33)
    for _ in range(10):
        g = random_cubic_graph(rng, 12)
        mu = path_cover_number(g).value
        opt = optimize_cover(g, initial_vdp_cover(g), exact_mu=mu)
        assert len(opt.paths) == mu


def test_reroute_short_path_on_cubic_host():
    # take a cubic graph with a 2-path cover; the shorter path is short
    rng = random.Random(34)
    for _ in range(20):
        g = random_cubic_graph(rng, 12)
        mu = path_cover_number(g).value
        if mu != 1:
            continue
        # split the hamiltonian path into a short head and a tail
        ham = path_cover_number(g).paths[0]
        c = VdpCover((ham[:4], ham[4:]))
        plan = reroute_short_path(g, c, 0)
        assert sorted(plan.path) == sorted(ham[:4])
        u, v = plan.anchor
        assert u == plan.path[0] and g.has_edge(u, v)
        assert v in ham[4:]


def test_reroute_rejects_long_path():
    g = random_cubic_graph(random.Random(35), 20)
    mu = path_cover_number(g)
    if mu.value == 1:
        c = VdpCover((mu.paths[0],))
        with pytest.raises(LongPathError):
            reroute_short_path(g, c, 0)


def test_cover_to_tree_produces_valid_tree():
    rng = random.Random(36)
    for _ in range(15):
        g = random_cubic_graph(rng, 14)
        report = run_cover_procedure(g)
        assert report.tree.validate(g)
        assert report.final_size <= report.initial_size
        assert report.bound_s_plus_2l >= report.final_size
        assert isinstance(report.bound_13_85, Fraction)


def test_certified_report_honours_bounds():
    rng = random.Random(37)
    certified_seen = 0
    for _ in range(20):
        g = random_cubic_graph(rng, 18)
        mu = path_cover_number(g).value
        report = run_cover_procedure(g, exact_mu=mu)
        assert report.tree.validate(g)
        if report.certified:
            certified_seen += 1
            assert report.attachment_failures == 0
            assert report.leaf_count <= report.bound_s_plus_2l
            assert report.bound_s_plus_2l <= Fraction(13 * g.n, 85)
        ml = min_leaf_number(g).value
        assert report.leaf_count >= ml
    assert certified_seen > 0


def test_leaf_budget_accounting():
    # s short paths + l long paths admit at most s + 2l leaves when certified
    rng = random.Random(38)
    g = random_cubic_graph(rng, 20)
    report = run_cover_procedure(g, exact_mu=path_cover_number(g).value)
    assert report.bound_s_plus_2l >= report.final_size
    assert report.bound_s_plus_2l <= 2 * report.final_size


def test_procedure_requires_cubic_like_host():
    # the reroute argument relies on outside neighbours, so the pipeline is
    # exercised on cubic hosts; non-cubic connected graphs still assemble a tree
    g = cycle(6)
    report = run_cover_procedure(g)
    assert report.tree.validate(g)
    assert not is_cubic(g)


def test_reroute_keeping_old_edges_gives_a_tree():
    # A relabeled cycle_of_edge_deleted_petersen(3): one reroute shares
    # edges with the path it replaces, which were once added twice.
    g = parse_graph6("]?_e???????EA?K?A???A?B?OO?G@`?@?BA?QO????O?C?`?C?A?A_"
                     "?G_?????a@?I??a@??@?")
    report = run_cover_procedure(g, exact_mu=2)
    assert report.tree.validate(g)
    assert report.certified and report.tree.leaf_count == 3


def test_reroute_avoid_ranks_last_what_the_filter_drops():
    # an avoided anchor loses to every other one: with an allowed anchor the
    # plan is the filtered one, and without one it is the unfiltered one
    rng = random.Random(40)
    seen = {True: 0, False: 0}
    for _ in range(30):
        g = random_cubic_graph(rng, rng.choice((12, 16, 20)), 1)
        c = optimize_cover(g, initial_vdp_cover(g))
        for i, p in enumerate(c.paths):
            if len(p) >= SHORT_THRESHOLD or len(c.paths) == 1:
                continue
            avoided = set(rng.sample(range(g.n), rng.randrange(g.n)))
            plan = reroute_short_path(g, c, i, avoid=avoided.__contains__)
            try:
                want = filtered_reroute(
                    g, c, i, target_ok=lambda v: v not in avoided)
            except CoverError:
                want = filtered_reroute(g, c, i)
            assert plan == want
            seen[plan.anchor[1] in avoided] += 1
    assert min(seen.values()) > 0


def _counting(monkeypatch, module, name: str) -> list[int]:
    """Count the calls of ``module.name`` from now on."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_cover_to_tree_matches_retrying_oracle(monkeypatch):
    # One reroute search per short path, anchors kept apart and one join
    # pass give the same report, parent array included, as a second
    # unfiltered search for blocked paths and restarted joins.
    ours = _counting(monkeypatch, cover, "reroute_short_path")
    theirs = _counting(monkeypatch, oracles, "filtered_reroute")
    rng = random.Random(39)
    cases = rerouted = 0
    for n in range(10, 23, 2):
        for min_conn in (1, 2, 3) * 4:
            g = random_cubic_graph(rng, n, min_conn)
            first = initial_vdp_cover(g)
            for mu in (None, path_cover_number(g).value):
                c = optimize_cover(g, first, exact_mu=mu)
                size = len(first.paths)
                report = cover_to_tree(g, c, initial_size=size)
                assert report == retrying_cover_to_tree(g, c, initial_size=size)
                cases += 1
                tree = set(tree_edges(report.tree))
                rerouted += any((min(e), max(e)) not in tree
                                for q in c.paths for e in zip(q, q[1:]))
    assert cases == 168
    # the corpus replaces some path by its reroute, and reaches the blocked
    # paths that the oracle searches twice
    assert rerouted > 0
    assert theirs[0] > ours[0] > 0


def test_pinned_reroute_calls_on_ten_vertices(monkeypatch):
    calls = _counting(monkeypatch, cover, "reroute_short_path")
    report = run_cover_procedure(parse_graph6("I@YEQISKO"))
    assert calls[0] == 2
    assert (report.leaf_count, report.final_size) == (3, 2)
    assert report.attachment_failures == 0 and not report.certified


def test_cover_to_tree_of_disjoint_paths_raises():
    # each path has no outside neighbour, so neither anchors, and no edge
    # of the graph joins the two parts
    h = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    with pytest.raises(CoverError):
        cover_to_tree(h, VdpCover(((0, 1, 2), (3, 4, 5))))
