"""The constructive cover pipeline: peel, exchange, reroute, assemble, audit."""

import random
from fractions import Fraction

import pytest

from cubicml.graph import Graph, is_cubic, parse_graph6
from cubicml.cover import (
    SHORT_THRESHOLD,
    CoverError,
    LongPathError,
    VdpCover,
    initial_vdp_cover,
    optimize_cover,
    reroute_short_path,
    run_cover_procedure,
)
from cubicml.exact import min_leaf_number, path_cover_number
from conftest import random_cubic_graph
from oracles import has_exchange_join


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


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
