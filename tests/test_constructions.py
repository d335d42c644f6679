"""Gadget loading and the deterministic construction families."""

import hashlib

import pytest

from cubicml.graph import (
    GraphError,
    is_connected,
    is_cubic,
    vertex_connectivity_capped,
    write_graph6,
)
from cubicml.constructions import (
    GADGET_NAMES,
    MultiGraph,
    complete_bipartite,
    complete_graph,
    cycle_of_edge_deleted_petersen,
    edge_expansion,
    jcell_ring,
    named_graph,
    substitute_p_star,
    theta_multigraph,
)
from cubicml.isomorphism import are_isomorphic
from jcell import is_jcell
from oracles import is_bipartite


def test_complete_graphs():
    assert is_cubic(complete_graph(4))
    assert complete_graph(5).edge_count == 10
    k33 = complete_bipartite(3, 3)
    assert is_cubic(k33) and is_bipartite(k33)


def test_multigraph_basics():
    theta = theta_multigraph()
    assert theta.n == 2 and theta.is_cubic()
    assert theta.degree(0) == 3
    mg = MultiGraph.from_graph(complete_graph(4))
    assert mg.is_cubic() and len(mg.edges) == 6


def test_named_gadgets_load_and_have_expected_shape():
    expected = {
        "petersen_minus_edge": (10, 14, 2),
        "k4_minus_edge": (4, 5, 2),
        "k33_minus_edge": (6, 8, 2),
        "cube_minus_edge": (8, 11, 2),
        "petersen_minus_vertex": (9, 12, 3),
        "smallest_jcell": (8, 10, 4),
    }
    assert set(GADGET_NAMES) == set(expected)
    for name, (n, m, attach_count) in expected.items():
        gadget = named_graph(name)
        g = gadget.graph
        assert (g.n, g.edge_count, len(gadget.attach)) == (n, m, attach_count)
        assert is_connected(g)
        # attach vertices are exactly those of degree below 3
        assert all(g.degree(v) < 3 for v in gadget.attach)


def test_gadget_labellings_pinned():
    # every construction pastes the gadgets as numbered, so a relabelled
    # gadget would change the output of construct
    data = b"".join(write_graph6(named_graph(name).graph) + b"\n"
                    for name in GADGET_NAMES)
    assert hashlib.sha256(data).hexdigest() == (
        "37c956eb434e1a97436d0638392e83b3431bdc0af518550d27051a0774bf3d34")


def test_named_graph_unknown():
    with pytest.raises(GraphError):
        named_graph("no_such_gadget")


def test_smallest_jcell_is_petersen_minus_two_adjacent_vertices():
    gadget = named_graph("smallest_jcell")
    a, b, c, d = gadget.attach
    assert is_jcell(gadget.graph, a, b, c, d) == 0

    from cubicml.graph import Graph, induced_subgraph

    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    petersen = Graph.from_edges(10, outer + inner + spokes)
    sub, _ = induced_subgraph(petersen, [v for v in range(10) if v not in (0, 5)])
    assert are_isomorphic(sub, gadget.graph)


def test_cycle_of_edge_deleted_petersen():
    for k in (3, 4, 5):
        g = cycle_of_edge_deleted_petersen(k)
        assert g.n == 10 * k
        assert is_cubic(g) and is_connected(g)
        assert vertex_connectivity_capped(g, 2) == 2
    with pytest.raises(GraphError):
        cycle_of_edge_deleted_petersen(2)


def test_substitute_p_star_orders():
    k4 = complete_graph(4)
    assert substitute_p_star(k4, [0]).n == 12  # 4 - 1 + 9
    g28 = substitute_p_star(k4, [0, 1, 2])
    assert g28.n == 28
    assert is_cubic(g28)
    assert vertex_connectivity_capped(g28, 3) == 3


def test_jcell_ring():
    for m in (2, 3, 5):
        g = jcell_ring(m)
        assert g.n == 8 * m
        assert is_cubic(g) and is_connected(g)
    with pytest.raises(GraphError):
        jcell_ring(1)


def test_edge_expansion_orders_and_classes():
    k4_host = MultiGraph.from_graph(complete_graph(4))
    g = edge_expansion(k4_host, named_graph("k4_minus_edge"))
    assert g.n == 4 + 4 * 6 == 28
    assert is_cubic(g) and is_connected(g)
    assert vertex_connectivity_capped(g, 2) == 2

    theta = theta_multigraph()
    g = edge_expansion(theta, named_graph("k4_minus_edge"))
    assert g.n == 2 + 4 * 3 == 14 and is_cubic(g)

    # bipartite gadgets on bipartite hosts stay bipartite
    k33_host = MultiGraph.from_graph(complete_bipartite(3, 3))
    g = edge_expansion(k33_host, named_graph("k33_minus_edge"))
    assert g.n == 6 + 6 * 9 == 60 and is_cubic(g) and is_bipartite(g)
    g = edge_expansion(theta, named_graph("cube_minus_edge"))
    assert g.n == 26 and is_bipartite(g)


def test_edge_expansion_rejects_wrong_attach_count():
    with pytest.raises(GraphError):
        edge_expansion(theta_multigraph(), named_graph("petersen_minus_vertex"))


def test_construction_determinism():
    a = write_graph6(jcell_ring(4))
    b = write_graph6(jcell_ring(4))
    assert a == b
    assert write_graph6(substitute_p_star(complete_graph(4), [0, 1, 2])) == \
        write_graph6(substitute_p_star(complete_graph(4), [0, 1, 2]))


def test_substitution_instances_nonisomorphic_across_counts():
    k4 = complete_graph(4)
    g1 = substitute_p_star(k4, [0])
    g2 = substitute_p_star(k4, [1])
    assert are_isomorphic(g1, g2)  # symmetric choices coincide
