"""Seeded graph6 input stream for the ``analyze-stream`` workload.

Everything here is benchmark-side code that imports nothing from the
package, so a change to the package cannot change the inputs it is
measured on.  The same seed gives a byte-identical stream.

The stream has two parts:

* bulk: random cubic graphs from the pairing model, kept only when simple
  and 2-connected, ``PER_ORDER`` graphs at each even order in ``ORDERS``;
* seeded relabelings of three cheap non-traceable constructions, frozen
  here as graph6 so that a change to the package's builders leaves the
  inputs alone.  They are the only inputs on which the cover pipeline's
  reroute and assembly steps do real work.
"""

from __future__ import annotations

import random

ORDERS = tuple(range(20, 46, 2))
PER_ORDER = 45

# graph6 of cycle_of_edge_deleted_petersen(3),
# substitute_p_star(complete_graph(4), [0, 1, 2]) and
# edge_expansion(K4, k4_minus_edge), as the package built them when this
# benchmark was defined.  All three are non-traceable.
CONSTRUCTIONS = (
    ("cycle_petersen_3",
     "]HeA@GUAq????@??_@G?O?@??AO?Ao?@W?C?_??????_??@???H???G???A????Q???@W???Ao"),
    ("p_star_k4_012",
     "[HDI@AQAo??@?@??_`G?O?@A?AO?Ao?????@???G???_G?H???O??AGO??AO???U"),
    ("expansion_k4_k4me",
     "[?`?W]?G?@_F_?C???W?FO??_????W??\\???C?????@_??FG???C???????W???F"),
)
RELABELINGS = 3  # seeded relabelings of each construction


def parse_graph6(line: str) -> list[int]:
    """Adjacency bitmasks of a short-form graph6 line (n <= 62)."""
    data = line.strip().encode("ascii")
    n = data[0] - 63
    if not 0 <= n <= 62:
        raise ValueError(f"not a short-form graph6 line: {line!r}")
    nbits = n * (n - 1) // 2
    if len(data) - 1 != (nbits + 5) // 6:
        raise ValueError(f"graph6 body has the wrong length: {line!r}")
    adj = [0] * n
    k = 0
    for byte in data[1:]:
        c = byte - 63
        for shift in range(5, -1, -1):
            if c >> shift & 1:
                if k >= nbits:
                    raise ValueError(f"graph6 padding bits set: {line!r}")
                # bit k of the column-major upper triangle is (u, v), u < v
                v = 1
                while v * (v + 1) // 2 <= k:
                    v += 1
                u = k - v * (v - 1) // 2
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            k += 1
    return adj


def write_graph6(adj: list[int]) -> str:
    n = len(adj)
    if n > 62:
        raise ValueError("short-form graph6 holds at most 62 vertices")
    out = [chr(n + 63)]
    acc = nacc = 0
    for v in range(n):
        for u in range(v):
            acc = acc << 1 | (adj[v] >> u & 1)
            nacc += 1
            if nacc == 6:
                out.append(chr(acc + 63))
                acc = nacc = 0
    if nacc:
        out.append(chr((acc << (6 - nacc)) + 63))
    return "".join(out)


def reach(adj: list[int], region: int) -> int:
    """Vertices of ``region`` reachable inside it from its lowest vertex."""
    seen = frontier = region & -region
    while frontier:
        grow = 0
        while frontier:
            low = frontier & -frontier
            grow |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = grow & region & ~seen
        seen |= frontier
    return seen


def is_biconnected(adj: list[int]) -> bool:
    """Connected, and no single vertex deletion disconnects the graph."""
    full = (1 << len(adj)) - 1
    regions = [full] + [full & ~(1 << v) for v in range(len(adj))]
    return all(reach(adj, region) == region for region in regions)


def random_cubic(rng: random.Random, n: int) -> list[int]:
    """A 2-connected simple cubic graph on ``n`` vertices (pairing model,
    rejection sampling)."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        adj = [0] * n
        for i in range(0, 3 * n, 2):
            u, v = points[i], points[i + 1]
            if u == v or adj[u] >> v & 1:
                break
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        else:
            if is_biconnected(adj):
                return adj


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    """Image of the graph under the vertex map v -> perm[v]."""
    out = [0] * len(adj)
    for u, a in enumerate(adj):
        while a:
            low = a & -a
            out[perm[u]] |= 1 << perm[low.bit_length() - 1]
            a ^= low
    return out


def build_stream(seed: int) -> list[tuple[str, str, bool | None]]:
    """``(graph id, graph6 line, traceable)`` triples, all fixed by
    ``seed``; ``traceable`` is the known answer, or None when unknown."""
    rng = random.Random(seed)
    stream: list[tuple[str, str, bool | None]] = []
    for n in ORDERS:
        for i in range(PER_ORDER):
            stream.append((f"random_n{n}_{i:02d}",
                           write_graph6(random_cubic(rng, n)), None))
    for name, line in CONSTRUCTIONS:
        base = parse_graph6(line)
        for r in range(RELABELINGS):
            perm = list(range(len(base)))
            rng.shuffle(perm)
            stream.append((f"{name}_r{r}",
                           write_graph6(relabel(base, perm)), False))
    return stream
