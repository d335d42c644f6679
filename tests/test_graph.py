"""Graph core: construction, predicates, connectivity, graph6 round trips."""

import dataclasses
import inspect
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicml.graph import (
    Graph,
    Graph6Error,
    GraphError,
    bits,
    cut_vertices,
    induced_subgraph,
    is_connected,
    is_cubic,
    mask_of,
    parse_graph6,
    pieces,
    read_adjacency_file,
    vertex_connectivity_capped,
    write_graph6,
)
from cubicml.generate import generate_cubic, generate_degree23
from conftest import bridged_prisms, prism, random_graph
from oracles import (
    bitwise_parse_graph6,
    bitwise_write_graph6,
    components,
    components_after_deletion,
    is_bipartite,
)


def k4() -> Graph:
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_bits_and_mask_roundtrip():
    assert list(bits(0)) == []
    assert list(bits(0b101101)) == [0, 2, 3, 5]
    assert mask_of([0, 2, 3, 5]) == 0b101101


def test_from_edges_basics():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.edge_count == 2
    assert g.edges == [(0, 1), (1, 2)]
    assert g.degrees() == (1, 2, 1)
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    assert list(g.neighbors(1)) == [0, 2]


def test_from_edges_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(GraphError):
        Graph.from_edges(-1, [])


def test_parallel_edges_collapse():
    g = Graph.from_edges(2, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_connectivity_predicates():
    assert is_connected(Graph.from_edges(0, []))
    assert is_connected(k4())
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not is_connected(two)
    assert pieces(two.adj, 0b1111, 0b1111) == 2
    assert pieces(two.adj, 0b0011, 0b1111) == 1
    assert pieces(path(5).adj, 0b11111, 0b10101) == 3
    assert pieces(path(5).adj, 0b10001, 0b11111) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.floats(0.05, 0.6),
       st.randoms(use_true_random=False))
def test_connected_matches_pieces(n, p, rng):
    g = random_graph(rng, n, p)
    assert g.connected is (pieces(g.adj, g.full_mask(), g.full_mask()) <= 1)
    assert is_connected(g) is g.connected


def test_connected_is_kept_but_not_a_field():
    assert str(inspect.signature(is_connected)) == "(g: 'Graph') -> 'bool'"
    assert "connected" not in {f.name for f in dataclasses.fields(Graph)}
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    for g, want in ((Graph.from_edges(0, []), True),
                    (Graph.from_edges(1, []), True), (k4(), True),
                    (two, False)):
        fresh = Graph(g.n, g.adj)
        assert g.connected is want and "connected" in vars(g)
        assert g == fresh and hash(g) == hash(fresh)
        assert repr(g) == repr(fresh)
        back = pickle.loads(pickle.dumps(g))
        assert back == fresh and back.connected is want
        assert pickle.loads(pickle.dumps(fresh)) == g


def test_pieces_matches_oracle_components():
    # random graphs, sparse ones mostly disconnected; seeds carry bits
    # outside allowed, and both masks are sometimes empty
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randrange(13)
        g = random_graph(rng, n, rng.choice([0.1, 0.25, 0.5]))
        full = g.full_mask()
        for allowed in (full, 0, rng.getrandbits(n), rng.getrandbits(n)):
            comps = components(g, allowed)
            for seeds in (full, 0, rng.getrandbits(n), rng.getrandbits(n)):
                count = pieces(g.adj, seeds, allowed)
                assert count == sum(1 for c in comps if c & seeds)
                assert (count == 0) == (seeds & allowed == 0)


def test_degree_profile_and_cubic():
    assert k4().degrees() == (3, 3, 3, 3) and is_cubic(k4())
    assert cycle(4).degrees() == (2, 2, 2, 2) and not is_cubic(cycle(4))
    assert is_cubic(k4()) and not is_cubic(cycle(5))
    assert not is_cubic(Graph.from_edges(0, []))


def test_bipartite():
    assert is_bipartite(cycle(6))
    assert not is_bipartite(cycle(5))
    assert is_bipartite(Graph.from_edges(3, []))


def test_components_after_deletion():
    assert components_after_deletion(path(5), [2]) == 2
    assert components_after_deletion(path(5), []) == 1
    assert components_after_deletion(path(5), range(5)) == 0
    with pytest.raises(GraphError):
        components_after_deletion(path(5), [7])


def test_vertex_connectivity_capped():
    assert vertex_connectivity_capped(k4(), 3) == 3
    assert vertex_connectivity_capped(cycle(5), 3) == 2
    assert vertex_connectivity_capped(path(5), 3) == 1
    two = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert vertex_connectivity_capped(two, 3) == 0
    # two triangles sharing a vertex: the shared vertex is a cut vertex
    bowtie = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert vertex_connectivity_capped(bowtie, 3) == 1
    with pytest.raises(GraphError):
        vertex_connectivity_capped(k4(), 4)


def _assert_matches_deletion_oracle(g: Graph) -> None:
    # oracle: smallest k whose deletion disconnects g, capped; K_n gives n-1
    n = g.n
    oracle = min(n - 1, 3)
    for k in range(0, min(n - 1, 3)):
        if any(components_after_deletion(g, cut) > 1
               for cut in combinations(range(n), k)):
            oracle = k
            break
    for cap in (1, 2, 3):
        assert vertex_connectivity_capped(g, cap) == min(oracle, cap), (
            g.n, g.edges, cap)
    if is_connected(g):
        cuts = mask_of(v for v in range(n)
                       if components_after_deletion(g, [v]) > 1)
        assert cut_vertices(g.adj, g.full_mask()) == cuts


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10), st.floats(0.1, 0.9), st.randoms(use_true_random=False))
def _random_graphs_match_deletion_oracle(n, p, rng):
    _assert_matches_deletion_oracle(random_graph(rng, n, p))


def test_vertex_connectivity_matches_deletion_oracle():
    """Random draws mostly have a vertex of degree >= 4 (the deletion
    branch); every graph on <= 6 vertices and the generators' outputs
    cover the cycle-space label branch for maximum degree <= 3."""
    _random_graphs_match_deletion_oracle()
    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            _assert_matches_deletion_oracle(Graph.from_edges(
                n, [e for i, e in enumerate(pairs) if chosen >> i & 1]))
    for n in range(3, 10):
        generate_degree23(n, _assert_matches_deletion_oracle)
    for n in range(4, 13, 2):
        generate_cubic(n, sink=_assert_matches_deletion_oracle)


def _two_prisms_joined_by_two_edges() -> Graph:
    """Two prism(500)s, one missing the edge (250, 251) and the other
    (0, 1), joined by two edges at those ends: cubic, n = 2,000, κ = 2,
    with the 2-edge cut about 250 steps from vertex 0."""
    edges = prism(500).edges
    far = [e for e in edges if e != (250, 251)]
    near = [(1000 + a, 1000 + b) for a, b in edges if (a, b) != (0, 1)]
    return Graph.from_edges(2000, far + near + [(250, 1000), (251, 1001)])


def test_vertex_connectivity_at_large_order():
    assert vertex_connectivity_capped(_two_prisms_joined_by_two_edges(), 3) == 2
    assert vertex_connectivity_capped(bridged_prisms(), 3) == 1
    assert vertex_connectivity_capped(prism(1000), 3) == 3


def test_induced_subgraph():
    sub, mapping = induced_subgraph(k4(), [1, 3])
    assert mapping == [1, 3]
    assert sub.n == 2 and sub.edge_count == 1
    with pytest.raises(GraphError):
        induced_subgraph(k4(), [])
    with pytest.raises(GraphError):
        induced_subgraph(k4(), [5])


def test_read_adjacency_file(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("3 2\n0 1\n1 2\n")
    g = read_adjacency_file(f)
    assert g.edges == [(0, 1), (1, 2)]
    f.write_text("3 5\n0 1\n")
    with pytest.raises(GraphError):
        read_adjacency_file(f)
    for bad in ("3 2\n0 1\n0 x\n", "3 2\n0 1\n1 2 0\n"):
        f.write_text(bad)
        with pytest.raises(GraphError, match="line 3"):
            read_adjacency_file(f)


def test_graph6_known_values():
    # K4 in graph6 is 'C~': n=4, all six upper-triangle bits set
    assert write_graph6(k4()) == b"C~"
    assert parse_graph6("C~").edges == k4().edges
    # the 5-cycle
    assert parse_graph6(write_graph6(cycle(5))).edges == cycle(5).edges


def test_graph6_header_tolerated_never_emitted():
    g = parse_graph6(b">>graph6<<C~")
    assert g.edges == k4().edges
    assert not write_graph6(k4()).startswith(b">>")


def test_graph6_extended_form():
    g = random_graph(random.Random(5), 70, 0.1)
    enc = write_graph6(g)
    assert enc[0] == 126 and len(enc) > 4
    assert parse_graph6(enc).adj == g.adj


def test_graph6_rejects_malformed():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error):
        parse_graph6(b"\x01abc")
    with pytest.raises(Graph6Error):
        parse_graph6("C~~~~")  # over-long body
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # truncated body
    with pytest.raises(Graph6Error):
        parse_graph6(b"~~AAAA")  # 8-byte order form
    with pytest.raises(Graph6Error):
        parse_graph6("B~")  # nonzero padding bits for n=3


def _g6_outcome(parse, data: bytes):
    """The adjacency ``parse`` reads from ``data``, or its error's text and
    byte offset."""
    try:
        return parse(data).adj
    except Graph6Error as exc:
        return str(exc), exc.offset


def test_graph6_matches_bitwise_reference():
    """Column slices read and write what one bit at a time does, on both
    sides of the switch from the 1-byte to the 4-byte order form."""
    rng = random.Random(26)
    for n in list(range(71)) * 3:
        g = random_graph(rng, n, rng.choice((0.0, 0.05, 0.3, 0.7, 1.0)))
        enc = write_graph6(g)
        assert enc == bitwise_write_graph6(g)
        assert (enc[0] == 126) == (n > 62)
        assert parse_graph6(enc).adj == bitwise_parse_graph6(enc).adj == g.adj


def test_graph6_errors_match_bitwise_reference():
    """Malformed bodies give the per-bit reader's message and byte offset:
    bad characters anywhere, nonzero padding bits, both in the last byte,
    and bodies one byte short or long."""
    rng = random.Random(27)
    bad_bytes = [*range(33, 63), 127]
    kinds = ("body bytes", "out of graph6 range", "nonzero padding bits")
    seen = set()
    for n in list(range(2, 71)) * 2:
        enc = bytearray(write_graph6(random_graph(rng, n, 0.3)))
        base = 4 if n > 62 else 1
        pad = -(n * (n - 1) // 2) % 6
        variants = [enc[:-1], enc + b"?", enc + enc[-1:]]
        i = rng.randrange(base, len(enc))
        variants.append(enc[:i] + bytes([rng.choice(bad_bytes)]) + enc[i + 1:])
        if pad:
            last = (enc[-1] - 63 | 1 << rng.randrange(pad)) + 63
            padded = enc[:-1] + bytes([last])
            variants.append(padded)
            variants.append(padded[:-1] + bytes([127]))
            if len(enc) - base > 1:
                j = rng.randrange(base, len(enc) - 1)
                variants.append(padded[:j] + bytes([rng.choice(bad_bytes)])
                                + padded[j + 1:])
        for data in map(bytes, variants):
            want = _g6_outcome(bitwise_parse_graph6, data)
            assert isinstance(want, tuple), data
            assert _g6_outcome(parse_graph6, data) == want
            seen.update(k for k in kinds if k in want[0])
    assert seen == set(kinds)


def test_graph6_rejects_non_ascii_with_offset():
    for text in ("C\u00e9", "C\u00e9".encode("utf-8")):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(text)
        assert exc.value.offset == 1 and "non-ASCII" in str(exc.value)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.randoms(use_true_random=False))
def test_graph6_roundtrip_property(n, rng):
    g = random_graph(rng, n, 0.4)
    assert parse_graph6(write_graph6(g)).adj == g.adj
