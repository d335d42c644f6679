"""Isomorph-free generation against an independent generate-and-dedup oracle."""

import functools
import hashlib
from itertools import combinations, product

import pytest

from cubicml import generate
from cubicml.graph import Graph, GraphError, cut_vertices, is_connected, \
    is_cubic, vertex_connectivity_capped, write_graph6
from cubicml.isomorphism import canonical_form, pair_seeds
from cubicml.generate import _feasible, generate_cubic, generate_degree23


def oracle_maxdeg3_classes(n: int) -> list[Graph]:
    """All connected graphs with maximum degree <= 3 on exactly n vertices,
    one per isomorphism class, by level growth with canonical-form dedup.

    Independent of the generator's canonical-augmentation acceptance rule:
    duplicates are removed with a plain seen-set of canonical forms.
    """
    level = [Graph.from_edges(1, [])]
    for k in range(1, n):
        forms: set[bytes] = set()
        nxt: list[Graph] = []
        for g in level:
            low = [v for v in range(k) if g.degree(v) < 3]
            for size in range(1, min(3, len(low)) + 1):
                for combo in combinations(low, size):
                    adj = list(g.adj) + [0]
                    for v in combo:
                        adj[v] |= 1 << k
                        adj[k] |= 1 << v
                    child = Graph(k + 1, tuple(adj))
                    f = canonical_form(child)
                    if f not in forms:
                        forms.add(f)
                        nxt.append(child)
        level = nxt
    return level


@pytest.mark.parametrize("n,expected", [(4, 1), (6, 2), (8, 5), (10, 19)])
def test_cubic_counts_match_dedup_oracle(n, expected):
    oracle = [g for g in oracle_maxdeg3_classes(n) if is_cubic(g)]
    assert len(oracle) == expected
    assert generate_cubic(n) == expected


def test_cubic_odd_orders_empty():
    assert generate_cubic(5) == 0
    assert generate_cubic(7) == 0


def test_cubic_range_and_argument_checks():
    with pytest.raises(GraphError):
        generate_cubic(2)
    with pytest.raises(GraphError):
        generate_cubic(22)
    with pytest.raises(GraphError):
        generate_cubic(8, min_conn=4)


def test_cubic_outputs_are_valid_and_pairwise_distinct():
    for n in (6, 8, 10):
        out: list[Graph] = []
        generate_cubic(n, sink=out.append)
        forms = set()
        for g in out:
            assert g.n == n and is_cubic(g) and is_connected(g)
            forms.add(canonical_form(g))
        assert len(forms) == len(out)


def test_cubic_connectivity_filter():
    counts = {c: generate_cubic(10, min_conn=c) for c in (1, 2, 3)}
    assert counts[1] == 19 and counts[1] > counts[2] >= counts[3]
    out: list[Graph] = []
    generate_cubic(10, min_conn=3, sink=out.append)
    assert all(vertex_connectivity_capped(g, 3) == 3 for g in out)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_degree23_counts_match_dedup_oracle(n):
    oracle = [
        g for g in oracle_maxdeg3_classes(n)
        if all(d in (2, 3) for d in g.degrees())
    ]
    assert generate_degree23(n) == len(oracle)


def test_degree23_outputs_are_valid_and_pairwise_distinct():
    out: list[Graph] = []
    generate_degree23(7, sink=out.append)
    forms = set()
    for g in out:
        assert g.n == 7 and is_connected(g)
        assert all(d in (2, 3) for d in g.degrees())
        forms.add(canonical_form(g))
    assert len(forms) == len(out)


def test_degree23_range_checks():
    with pytest.raises(GraphError):
        generate_degree23(2)
    with pytest.raises(GraphError):
        generate_degree23(14)


@pytest.mark.slow
def test_cubic_count_n12_matches_dedup_oracle():
    oracle = [g for g in oracle_maxdeg3_classes(12) if is_cubic(g)]
    assert generate_cubic(12) == len(oracle) == 85


def _graph6_digest(run) -> str:
    out: list[Graph] = []
    run(out.append)
    return hashlib.sha256(
        b"".join(write_graph6(g) + b"\n" for g in out)).hexdigest()


# sha256 of the emitted graph6 lines, one per line, as first pinned: a
# change of representative or of order changes the digest
_PINNED_CUBIC_12 = {
    1: "08f46463a8d3aedb5a9ed0f9c38acfdab44260e31cde26590b82b7310c674304",
    2: "5a42dac19b20a4c199505e8a384224f488818f973eff66287965cf27894f3366",
    3: "7605fdd5c05302ab491b5d2d8964ccc24d8adda3faf925625e7291d5af10717f",
}
_PINNED_DEGREE23 = {
    3: "8e71b38f493557683524eb45ca8f814efe19aa3c9d7e946c42a25658f532618e",
    4: "9b52d9474eccb7cde09c9157dfdada328151fc00d6b4706cd118eaefd318b387",
    5: "576d0c341cd6ab04cb2618de2ccb7701aeb61403cbde72f91c3d4528ab38b720",
    6: "5edf08acf4e373a21ef2d6c7ae1059dde24b1dcec771d3da4e85f58ee0948bd4",
    7: "4f225714a33bba7bc893c3c89f5586f8e270c67d1e1d2978f277c50558aaeb57",
    8: "b564a61d67d5993e1f9eb4cdf49e89853324a2bf4f1dff4e03bcbf45f453610e",
    9: "5b0effbf8b65bfacb2ed6ef46ea3b7a08a0b65c6adb8cb249ed49210bc0d4607",
    10: "b0661e3f863e32fc963aa093eafa1f70b08fc5e679145ce2657838f1a2da946e",
}


@pytest.mark.parametrize("min_conn", sorted(_PINNED_CUBIC_12))
def test_cubic_output_pinned(min_conn):
    digest = _graph6_digest(lambda sink: generate_cubic(12, min_conn, sink))
    assert digest == _PINNED_CUBIC_12[min_conn]


@pytest.mark.slow
def test_cubic_output_pinned_n14():
    # the graph6 stream that the benchmark's census workload reads
    digest = _graph6_digest(lambda sink: generate_cubic(14, sink=sink))
    assert digest == ("75a851b4c66405eff745456a244815791d628a02aff2e9a67aa549"
                      "3bcf5e4bb1")


@pytest.mark.slow
def test_cubic_count_and_digest_n18():
    # A002851 counts the connected cubic graphs on 18 vertices; the name
    # leaves this run of several minutes out of CI's "pinned" selection
    counts = []
    digest = _graph6_digest(
        lambda sink: counts.append(generate_cubic(18, sink=sink)))
    assert counts == [41_301]
    assert digest == ("8d4066027c2fb18ad4657e198aad1c212262b5f3f8432e78e9aaab"
                      "3e23bc33a7")


def test_degree23_output_pinned():
    digests = {n: _graph6_digest(lambda sink: generate_degree23(n, sink))
               for n in _PINNED_DEGREE23}
    assert digests == _PINNED_DEGREE23


@pytest.mark.slow
def test_degree23_count_and_digest_pinned_n13():
    # the largest order ``lemma-short`` scans
    counts = []
    digest = _graph6_digest(
        lambda sink: counts.append(generate_degree23(13, sink)))
    assert counts == [15_530]
    assert digest == ("4f193d9368b53fa5a6eef320c572c7b41e12563c6a8672faa558"
                      "83be16c7d342")


def test_child_seeds_match_pair_seeds(monkeypatch):
    """Every child whose seeds the generator derives from its parent's gets
    the seeds ``pair_seeds`` computes from scratch, and so does every
    parent it derives them from."""
    child_seeds = generate._child_seeds
    tried = 0

    def checked(g, seeds, combo):
        nonlocal tried
        tried += 1
        assert seeds == pair_seeds(g)
        got = child_seeds(g, seeds, combo)
        adj = list(g.adj) + [0]
        for v in combo:
            adj[v] |= 1 << g.n
            adj[g.n] |= 1 << v
        assert got == pair_seeds(Graph(g.n + 1, tuple(adj)))
        return got

    monkeypatch.setattr(generate, "_child_seeds", checked)
    for n in range(4, 13, 2):
        generate_cubic(n)
    for n in range(3, 10):
        generate_degree23(n)
    assert tried > 0


def test_states_pairwise_non_isomorphic(monkeypatch):
    """Each run passes ``_grow`` one state per isomorphism class it keeps:
    a dedup of attachment sets that let an image of an accepted set
    through would pass two isomorphic states, even where the emitted
    graphs happened to stay distinct."""
    grow = generate._grow
    states: list[Graph] = []

    def recorded(g, *args):
        states.append(g)
        return grow(g, *args)

    monkeypatch.setattr(generate, "_grow", recorded)
    runs = [(generate_cubic, n) for n in range(4, 13, 2)]
    runs += [(generate_degree23, n) for n in range(3, 10)]
    total = 0
    for run, n in runs:
        states.clear()
        run(n)
        forms = {(g.n, canonical_form(g)) for g in states}
        assert len(forms) == len(states), (run.__name__, n)
        total += len(states)
    # 3,415 before the forced last vertex was tested ahead, 3,015 before
    # the degree game (``_live``) dropped dead cubic states
    assert total == 2_076


def _generator_work(monkeypatch, n):
    """Number of graphs ``generate_cubic(n)`` emits, and the labelings,
    refinements and states it asks for on the way."""
    calls = dict.fromkeys(("canonical_data", "_seeded_colors", "_grow"), 0)
    for name in calls:
        def counted(*args, _real=getattr(generate, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(generate, name, counted)
    return generate_cubic(n), calls


def test_generator_work_pinned(monkeypatch):
    # before the lookahead and the lazy attachment orbits they were
    # 1,318 / 2,540 / 2,301, before the degree game (``_live``)
    # 734 / 1,578 / 1,946, and before the first refinement round decided
    # the colour test 469 / 963 / 1,109
    assert _generator_work(monkeypatch, 12) == (85, {
        "canonical_data": 469, "_seeded_colors": 600, "_grow": 1_109})


@pytest.mark.slow
def test_generator_work_pinned_n14(monkeypatch):
    # 2,473 / 8,721 / 8,992 before the first refinement round decided the
    # colour test
    assert _generator_work(monkeypatch, 14) == (509, {
        "canonical_data": 2_473, "_seeded_colors": 4_812, "_grow": 8_992})


def test_inherited_cut_mask_matches_dfs(monkeypatch):
    """Every child that reaches the cut test gets the mask a fresh DFS
    computes, whether it was inherited from the parent or not."""
    deletable = generate._deletable
    tried = 0

    def checked(g, cuts, combo):
        nonlocal tried
        tried += 1
        got = deletable(g, cuts, combo)
        fresh = cut_vertices(g.adj, g.full_mask())
        assert got == (fresh, [v for v in range(g.n) if not fresh >> v & 1])
        return got

    monkeypatch.setattr(generate, "_deletable", checked)
    assert generate_cubic(10) == 19
    assert generate_degree23(8) == 60
    assert tried > 0


def _unpruned_cubic(monkeypatch, n):
    """``generate_cubic(n)`` with ``_live`` recording its arguments and
    returning True.  Returns the graphs emitted and, for each grown state
    that ``_live`` was asked about, its arguments, the state and its cut
    mask, and the number of graphs its subtree emitted."""
    grow = generate._grow
    asked = None
    out: list[Graph] = []
    states: list[tuple[tuple[int, ...], Graph, int, int]] = []

    def recorded(*counts):
        nonlocal asked
        asked = counts
        return True

    def counted(g, nbrs, cuts, *args):
        # a grown child's question is the last one before its growth:
        # nothing between a child's ``_live`` test and its ``_grow`` asks
        # again, and a child with no slots left is never asked
        nonlocal asked
        mine, asked = asked, None
        before = len(out)
        grow(g, nbrs, cuts, *args)
        if mine is not None:
            states.append((mine, g, cuts, len(out) - before))

    monkeypatch.setattr(generate, "_live", recorded)
    monkeypatch.setattr(generate, "_grow", counted)
    generate_cubic(n, sink=out.append)
    monkeypatch.undo()
    return out, states


def _assert_live_sound(monkeypatch, n):
    """Each grown state's counts are exact for its leaves and degree-2
    vertices and claim no cut vertex as ``free2``; no state that ``_live``
    judges dead emits a graph when grown anyway; pruning changes no byte
    of the output.  Returns the number of grown states judged dead."""
    pruned: list[Graph] = []
    generate_cubic(n, sink=pruned.append)
    out, states = _unpruned_cubic(monkeypatch, n)
    dead = 0
    for counts, g, cuts, emitted in states:
        leaves, free2, other2, slots = counts
        degs = [g.degree(v) for v in range(g.n)]
        assert (leaves, free2 + other2, slots) == (
            degs.count(1), degs.count(2), n - g.n), counts
        assert free2 <= sum(1 for v, x in enumerate(degs)
                            if x == 2 and not cuts >> v & 1), counts
        # judged after the run: the recursion inside ``_live`` must not
        # meet the recording stand-in
        if not generate._live(*counts):
            dead += 1
            assert emitted == 0, counts
    assert out == pruned
    return dead


def test_live_never_drops_an_emitting_state(monkeypatch):
    dead = {n: _assert_live_sound(monkeypatch, n) for n in range(4, 13, 2)}
    assert dead[12] > 0


@pytest.mark.slow
def test_live_never_drops_an_emitting_state_n14(monkeypatch):
    assert _assert_live_sound(monkeypatch, 14) > 0


@functools.cache
def _game_on_vertices(tags, slots):
    """Reference for ``_live``, move by move on labelled vertices: ``tags``
    is the sorted tuple of (degree, surely non-cut) over the deficient
    vertices, and a move joins a new vertex to any d of them."""
    if not slots:
        return not tags
    for d in range(1, min(3, len(tags)) + 1):
        for combo in combinations(range(len(tags)), d):
            after = [(d, True)] if d < 3 else []
            for i, (deg, safe) in enumerate(tags):
                if i in combo:
                    # a joined leaf stays non-cut unless k is its pendant
                    deg, safe = deg + 1, d > 1
                if deg < 3:
                    after.append((deg, safe))
            if not any(safe and deg < d for deg, safe in after) and \
                    _game_on_vertices(tuple(sorted(after)), slots - 1):
                return True
    return False


def test_live_matches_the_game_on_vertices():
    for counts in product(range(4), range(4), range(5), range(7)):
        leaves, free2, other2, slots = counts
        tags = tuple(sorted([(1, True)] * leaves + [(2, True)] * free2
                            + [(2, False)] * other2))
        assert generate._live(*counts) == _game_on_vertices(tags, slots), \
            counts


def test_live_refines_feasible():
    # a winning game is a simple-graph completion, which ``_feasible``
    # decides exactly for a cubic target
    for counts in product(range(7), range(7), range(7), range(9)):
        leaves, free2, other2, slots = counts
        if generate._live(*counts):
            assert _feasible(2 * leaves + free2 + other2, slots, 3), counts


def _has_completion(degs, slots, min_final_deg):
    """Brute force: can ``slots`` new vertices, joined to the existing ones
    and to each other by simple edges (none between two existing vertices),
    bring every degree into [min_final_deg, 3]?"""
    futures = range(slots)
    subsets = [s for k in range(slots + 1) for s in combinations(futures, k)]
    pairs = list(combinations(futures, 2))
    for k in range(len(pairs) + 1):
        for inner in combinations(pairs, k):
            loads = {tuple(sum(f in p for p in inner) for f in futures)}
            for d in degs:
                loads = {tuple(x + (f in s) for f, x in enumerate(load))
                         for load in loads for s in subsets
                         if min_final_deg <= d + len(s) <= 3}
            if any(all(min_final_deg <= x <= 3 for x in load)
                   for load in loads):
                return True
    return False


def _fits(degs, slots, min_final_deg):
    """The generator's degree tests: the least degree, then ``_feasible``
    on the total deficit."""
    need = sum(min_final_deg - x for x in degs if x < min_final_deg)
    return (min_final_deg - min(degs) <= slots
            and _feasible(need, slots, min_final_deg))


def test_feasible_matches_brute_force_completion():
    # every state of the generator has at least one vertex; a cubic target
    # is decided exactly, a {2,3} one never rejects a completable state
    for size in range(1, 6):
        for degs in product(range(4), repeat=size):
            for slots in range(4):
                cubic = _has_completion(degs, slots, 3)
                assert _fits(degs, slots, 3) == cubic, (degs, slots)
                if _has_completion(degs, slots, 2):
                    assert _fits(degs, slots, 2), (degs, slots)
