"""Immutable simple undirected graphs with bitset adjacency, plus graph6 I/O.

Vertices are integers 0..n-1.  Each vertex's neighbourhood is stored as a
Python int used as a bitmask, which makes the set operations in the search
hot loops (intersection, popcount, component spreading) cheap.  ``pieces``
is the one connectivity helper, and ``Graph.connected`` is computed from it
at most once per graph; ``cut_vertices`` and ``_edge_cuts_capped`` stay
apart as linear-time answers to other questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    pass


class Graph6Error(GraphError):
    """Malformed graph6 input; carries the offending byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class WitnessError(RuntimeError):
    """A computed witness failed its re-validation: a bug, never bad input."""


def require_witness(ok: bool, what: str) -> None:
    """Raise ``WitnessError`` unless ``ok``; unlike ``assert``, kept by -O."""
    if not ok:
        raise WitnessError(f"invalid witness: {what}")


GRAPH6_HEADER = b">>graph6<<"
GRAPH6_MAX_N = 258047  # largest order expressible in the 4-byte length form


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, no parallel edges.

    ``adj[v]`` is the neighbourhood of ``v`` as a bitmask.  Instances are
    immutable and safe to share between concurrent workers.
    """

    n: int
    adj: tuple[int, ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @property
    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> tuple[int, ...]:
        return tuple(a.bit_count() for a in self.adj)

    def neighbors(self, v: int) -> Iterator[int]:
        return bits(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def connected(self) -> bool:  # kept, not a field: ==, hash, repr skip it
        return pieces(self.adj, self.full_mask(), self.full_mask()) <= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.edge_count})"


def pieces(adj: Sequence[int], seeds: int, allowed: int) -> int:
    """Number of components of the subgraph induced on ``allowed`` that
    meet ``seeds``.  ``adj`` is any sequence of neighbourhood masks.  Each
    spread starts at the lowest seed left and stops once it has reached
    every remaining seed, so it need not fill a large component.
    """
    seeds &= allowed
    count = 0
    while seeds:
        count += 1
        frontier = seeds & -seeds
        unseen = allowed ^ frontier
        while frontier and seeds & unseen:
            grow = 0
            while frontier:
                b = frontier & -frontier
                grow |= adj[b.bit_length() - 1]
                frontier ^= b
            frontier = grow & unseen
            unseen ^= frontier
        seeds &= unseen
    return count


def is_connected(g: Graph) -> bool:
    return g.connected


def is_cubic(g: Graph) -> bool:
    return g.n > 0 and all(a.bit_count() == 3 for a in g.adj)


def cut_vertices(adj: Sequence[int], allowed: int) -> int:
    """Mask of the cut vertices of the connected graph induced on the
    non-empty vertex set ``allowed``.

    One iterative depth-first search with low points (Hopcroft-Tarjan), so
    deep graphs need no recursion.  The edge back to a vertex's parent may
    count towards its low point: it can lower it only to the parent's
    discovery time, which still passes the ``>=`` test below.
    """
    root = (allowed & -allowed).bit_length() - 1
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    disc[root] = 0
    count = 1
    stack = [(root, adj[root] & allowed)]
    root_children = 0
    cuts = 0
    while stack:
        v, todo = stack[-1]
        if todo:
            b = todo & -todo
            stack[-1] = (v, todo ^ b)
            w = b.bit_length() - 1
            if disc[w] < 0:
                disc[w] = low[w] = count
                count += 1
                stack.append((w, adj[w] & allowed))
            elif disc[w] < low[v]:
                low[v] = disc[w]
            continue
        stack.pop()
        if not stack:
            break
        p = stack[-1][0]
        if p == root:
            root_children += 1
        elif low[v] >= disc[p]:
            cuts |= 1 << p
        if low[v] < low[p]:
            low[p] = low[v]
    if root_children > 1:
        cuts |= 1 << root
    return cuts


def vertex_connectivity_capped(g: Graph, cap: int) -> int:
    """min(vertex connectivity, cap) for cap in {1, 2, 3}; disconnected -> 0.

    With maximum degree at most 3 the answer is the edge connectivity λ,
    read from cycle-space labels in linear time (``_edge_cuts_capped``).
    κ = λ there (West, *Introduction to Graph Theory*, §4.1).  κ ≤ λ
    always, and only κ ≤ 2 lies below the cap: then a minimum separating
    set S splits G - S into a component H and the non-empty rest R.  Each
    s in S has a neighbour in H and one in R (else S - s separates), so
    with degree ≤ 3 it has exactly one on some side; cut that edge and put
    s on the other side.  If S = {s, t} is an edge and s, t land on
    opposite sides, s has exactly one neighbour in each of H and R, so
    move s to t's side instead.  The |S| cut edges then separate H's side
    from R's, so λ ≤ κ.

    Graphs with a vertex of degree ≥ 4 fall back to deletion: a cut vertex
    is found by one depth-first search, a separating pair {u, w} as a cut
    vertex w of G - u.  Complete graphs need no case of their own: K2, K3
    and K4 take the label pass (κ = λ = n - 1), and a larger one has
    κ = n - 1 ≥ 4, so the deletion finds no cut.
    """
    if cap not in (1, 2, 3):
        raise GraphError(f"cap must be 1, 2 or 3, got {cap}")
    if g.n <= 1 or not g.connected:
        return 0
    if cap == 1:
        return 1
    if all(a.bit_count() <= 3 for a in g.adj):
        return _edge_cuts_capped(g, cap)
    full = g.full_mask()
    if cut_vertices(g.adj, full):
        return 1
    if cap > 2 and any(cut_vertices(g.adj, full & ~(1 << u))
                       for u in range(g.n)):
        return 2
    return cap


def _edge_cuts_capped(g: Graph, cap: int) -> int:
    """min(edge connectivity, cap) of a connected graph on >= 2 vertices,
    for cap in {2, 3}, by one spanning-tree pass (Pritchard & Thurimella,
    *Fast computation of small cuts via cycle space sampling*, 2011).

    Each non-tree edge gets its own bit; a tree edge's label is the XOR of
    the bits of the non-tree edges whose fundamental cycle passes through
    it, which is the XOR over the tree edge's lower subtree of each
    vertex's incident non-tree bits (an edge with both ends below cancels).
    The fundamental cycles span the cycle space, so an edge set F meets
    every cycle an even number of times, that is F is a cut δ(X), exactly
    when the labels of F XOR to zero.  Hence:

    - e is a bridge iff its label is zero; a non-tree edge's never is;
    - two non-bridges e, f form a cut iff their labels are equal: either
      two tree edges, or a tree edge whose label is the single bit of the
      non-tree edge f (two non-tree bits always differ).

    Removing two edges disconnects G only if they contain a bridge or are a
    cut δ(X), so the labels decide λ ≤ 1, λ = 2 and λ ≥ 3 exactly.
    """
    parent, kids = [0] * g.n, [0] * g.n  # kids: tree children, as masks
    order, found = [0], 1
    for v in order:  # breadth-first: the tree needs no recursion
        m = kids[v] = g.adj[v] & ~found
        found |= m
        while m:
            w = (m & -m).bit_length() - 1
            parent[w] = v
            order.append(w)
            m &= m - 1
    label, bit = [0] * g.n, 1  # own non-tree bits, then the subtree XOR
    for u in range(g.n):  # non-tree edges uv, v < u, in ascending order
        m = g.adj[u] & ((1 << u) - 1) & ~(kids[u] | 1 << parent[u])
        while m:
            label[u] ^= bit
            label[(m & -m).bit_length() - 1] ^= bit
            bit <<= 1
            m &= m - 1
    seen = set()
    two_cut = False
    for v in reversed(order[1:]):  # children before parents
        x = label[v]
        if not x:
            return 1
        if x & (x - 1) == 0 or x in seen:
            two_cut = True
        seen.add(x)
        label[parent[v]] ^= x
    return 2 if two_cut else cap


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, list[int]]:
    """Subgraph induced on ``vertices``, relabelled 0..k-1 in ascending order.

    Returns the subgraph and the list mapping new index -> original vertex.
    """
    vs = sorted(set(vertices))
    if not vs:
        raise GraphError("induced subgraph of empty vertex set")
    if vs[0] < 0 or vs[-1] >= g.n:
        raise GraphError("vertex set out of range")
    index = {v: i for i, v in enumerate(vs)}
    edges = [
        (index[u], index[v])
        for u in vs
        for v in bits(g.adj[u])
        if u < v and v in index
    ]
    return Graph.from_edges(len(vs), edges), vs


def read_adjacency_file(path) -> Graph:
    """Load the plain-text adjacency format: header "n m", then "u v" lines."""
    def pair(line: str, lineno: int) -> tuple[int, int]:
        tokens = line.split()
        try:
            if len(tokens) == 2:
                return int(tokens[0]), int(tokens[1])
        except ValueError:
            pass
        raise GraphError(f"{path}: line {lineno}: expected two integers, "
                         f"got {line.strip()!r}")

    with open(path) as f:
        n, m = pair(f.readline(), 1)
        edges = [pair(line, lineno)
                 for lineno, line in enumerate(f, start=2) if line.strip()]
    if len(edges) != m:
        raise GraphError(f"{path}: header says {m} edges, file has {len(edges)}")
    return Graph.from_edges(n, edges)


# --- graph6 ---------------------------------------------------------------


def _g6_n_and_body(data: bytes) -> tuple[int, bytes, int]:
    """Split a graph6 line into (n, bit bytes, offset of first bit byte)."""
    if not data:
        raise Graph6Error("empty graph6 string", 0)
    first = data[0] - 63
    if first < 0 or first > 63:
        raise Graph6Error(f"character {data[0]!r} out of graph6 range", 0)
    if first != 63:
        return first, data[1:], 1
    if len(data) >= 2 and data[1] == 126:
        raise Graph6Error("8-byte graph6 order form is not supported", 1)
    if len(data) < 4:
        raise Graph6Error("truncated extended graph6 length prefix", len(data))
    n = 0
    for i in (1, 2, 3):
        c = data[i] - 63
        if c < 0 or c > 63:
            raise Graph6Error(f"character {data[i]!r} out of graph6 range", i)
        n = n << 6 | c
    return n, data[4:], 4


def parse_graph6(text: bytes | str) -> Graph:
    """Parse a single graph6 line (optional '>>graph6<<' header tolerated)."""
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    data = data.strip()
    if data.startswith(GRAPH6_HEADER):
        data = data[len(GRAPH6_HEADER):]
    if not data.isascii():
        i = next(i for i, byte in enumerate(data) if byte > 127)
        raise Graph6Error(f"non-ASCII byte 0x{data[i]:02x}", i)
    n, body, base = _g6_n_and_body(data)
    if n > GRAPH6_MAX_N:
        raise Graph6Error(f"order {n} exceeds supported graph6 range", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"expected {need} body bytes for n={n}, "
                          f"got {len(body)}", base + len(body))
    if body and not 63 <= min(body) <= max(body) <= 126:
        i = next(i for i, byte in enumerate(body) if not 63 <= byte <= 126)
        raise Graph6Error(f"character {body[i]!r} out of graph6 range", base + i)
    if body and (body[-1] - 63) & ((1 << -nbits % 6) - 1):
        raise Graph6Error("nonzero padding bits", base + len(body) - 1)
    # bit k is bit 5 - k % 6 of byte k // 6; column v holds bits [top - v, top)
    adj = [0] * n
    v = top = 1
    for i, byte in enumerate(body):
        c = byte - 63
        while c:  # the set bits, lowest stream index first
            k = 6 * i + 6 - c.bit_length()
            c ^= 32 >> k - 6 * i
            while k >= top:
                v += 1
                top += v
            u = k - top + v  # u < v, the column's lower end first
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def write_graph6(g: Graph) -> bytes:
    """Canonical minimal-length graph6 encoding (short or 4-byte form)."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise GraphError(f"order {n} exceeds supported graph6 range")
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    flat = "".join([format(g.adj[v] & ((1 << v) - 1), f"0{v}b")[::-1]
                    for v in range(1, n)])
    flat += "0" * (-len(flat) % 6)
    return head + bytes([int(flat[i:i + 6], 2) + 63
                         for i in range(0, len(flat), 6)])
