"""Deterministic builders for the sharpness-example graph families.

All gadgets carry a fixed labeling, committed as the graph6 lines of
``data/gadgets.g6`` in the order of ``GADGET_NAMES``, so every
builder is byte-for-byte reproducible: same parameters, same edge list,
same graph6 line.  Attach vertices are the vertices whose degree falls
short of 3, listed in ascending index.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .graph import Graph, GraphError, is_cubic, parse_graph6

GADGET_NAMES = (
    "petersen_minus_edge",
    "k4_minus_edge",
    "k33_minus_edge",
    "cube_minus_edge",
    "petersen_minus_vertex",
    "smallest_jcell",
)


@dataclass(frozen=True)
class MultiGraph:
    """Loop-free multigraph: parallel edges allowed, kept as a plain list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range")
            if u == v:
                raise GraphError(f"loop at vertex {u}")

    def degree(self, v: int) -> int:
        return sum((u == v) + (w == v) for u, w in self.edges)

    def is_cubic(self) -> bool:
        return self.n > 0 and all(self.degree(v) == 3 for v in range(self.n))

    @classmethod
    def from_graph(cls, g: Graph) -> "MultiGraph":
        return cls(g.n, tuple(g.edges))


def theta_multigraph() -> MultiGraph:
    """Two vertices joined by three parallel edges."""
    return MultiGraph(2, ((0, 1), (0, 1), (0, 1)))


@dataclass(frozen=True)
class NamedGadget:
    name: str
    graph: Graph
    attach: tuple[int, ...]  # degree-deficient vertices, ascending


def named_graph(name: str) -> NamedGadget:
    """Load a gadget by name from its line of ``data/gadgets.g6``."""
    if name not in GADGET_NAMES:
        raise GraphError(
            f"unknown gadget {name!r}; choose from {', '.join(GADGET_NAMES)}")
    lines = resources.files("cubicml").joinpath(
        "data/gadgets.g6").read_bytes().splitlines()
    g = parse_graph6(lines[GADGET_NAMES.index(name)])
    attach = tuple(v for v in range(g.n) if g.degree(v) < 3)
    return NamedGadget(name, g, attach)


def _paste(edges: list[tuple[int, int]], g: Graph, offset: int) -> None:
    edges.extend((u + offset, v + offset) for u, v in g.edges)


def cycle_of_edge_deleted_petersen(k: int) -> Graph:
    """Ring of k edge-deleted Petersen copies, consecutive copies bridged.

    Copy i occupies vertices 10i..10i+9; its second attach vertex feeds the
    first attach vertex of copy i+1 around the cycle.
    """
    if k < 3:
        raise GraphError("cycle construction needs at least 3 copies")
    gadget = named_graph("petersen_minus_edge")
    a, b = gadget.attach
    edges: list[tuple[int, int]] = []
    for i in range(k):
        _paste(edges, gadget.graph, 10 * i)
        edges.append((10 * i + b, 10 * ((i + 1) % k) + a))
    g = Graph.from_edges(10 * k, edges)
    assert is_cubic(g)
    return g


def substitute_p_star(h: Graph, s) -> Graph:
    """Replace each vertex in ``s`` by a vertex-deleted Petersen copy.

    A substituted vertex's three former edges land on the three degree-2
    vertices of its copy, ascending neighbour index to ascending attach
    index.  Kept vertices come first (ascending), then one 9-vertex block
    per substituted vertex (ascending).
    """
    if not is_cubic(h):
        raise GraphError("substitution host must be cubic")
    sset = sorted(set(s))
    if not sset:
        raise GraphError("substitution set must be non-empty")
    if sset[0] < 0 or sset[-1] >= h.n:
        raise GraphError("substitution set out of range")
    gadget = named_graph("petersen_minus_vertex")
    kept = [v for v in range(h.n) if v not in set(sset)]
    pos_kept = {v: i for i, v in enumerate(kept)}
    block = {v: len(kept) + 9 * i for i, v in enumerate(sset)}

    def port(v: int, other: int) -> int:
        """New endpoint replacing h-vertex ``v`` on the edge toward ``other``."""
        if v in pos_kept:
            return pos_kept[v]
        rank = sorted(h.neighbors(v)).index(other)
        return block[v] + gadget.attach[rank]

    edges: list[tuple[int, int]] = []
    for v in sset:
        _paste(edges, gadget.graph, block[v])
    for u, v in h.edges:
        edges.append((port(u, v), port(v, u)))
    g = Graph.from_edges(len(kept) + 9 * len(sset), edges)
    assert is_cubic(g)
    return g


def jcell_ring(m: int) -> Graph:
    """Ring of m smallest-J-cell copies.

    Copy i occupies 8i..8i+7 with terminals a,b,c,d at 8i..8i+3; the ring
    edges are (b_i, a_{i+1}) and (c_i, d_{i+1}), indices mod m.
    """
    if m < 2:
        raise GraphError("J-cell ring needs at least 2 cells")
    gadget = named_graph("smallest_jcell")
    edges: list[tuple[int, int]] = []
    for i in range(m):
        _paste(edges, gadget.graph, 8 * i)
        nxt = 8 * ((i + 1) % m)
        edges.append((8 * i + 1, nxt))      # (b_i, a_{i+1})
        edges.append((8 * i + 2, nxt + 3))  # (c_i, d_{i+1})
    g = Graph.from_edges(8 * m, edges)
    assert is_cubic(g)
    return g


def edge_expansion(h: MultiGraph, gadget: NamedGadget) -> Graph:
    """Replace every edge of the cubic multigraph ``h`` by a gadget copy.

    The copy for edge (u, v) joins its first attach vertex to u and its
    second to v.  Gadgets insert at least two internal vertices per edge,
    so the output is simple even when ``h`` has parallel edges.
    """
    if len(gadget.attach) != 2:
        raise GraphError(
            f"edge expansion needs a 2-attachment gadget, "
            f"{gadget.name} has {len(gadget.attach)}")
    if not h.is_cubic():
        raise GraphError("edge expansion host must be cubic")
    gn = gadget.graph.n
    a, b = gadget.attach
    edges: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(h.edges):
        offset = h.n + gn * i
        _paste(edges, gadget.graph, offset)
        edges.append((u, offset + a))
        edges.append((v, offset + b))
    g = Graph.from_edges(h.n + gn * len(h.edges), edges)
    assert is_cubic(g)
    return g


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(
        n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(
        a + b, [(u, a + v) for u in range(a) for v in range(b)])
