"""The layers the traced run measures, and their per-layer metrics.

A layer is a module of the package.  ``targets`` lists the functions the
tracer wraps, and ``per_layer_metrics`` reduces a finished trace to the
named metrics of ``PER_LAYER`` (name -> unit, better).  Private helpers
are counted, never spanned: their time belongs to the layer that calls
them.  Helpers that are not wrapped at all (``graph.bits``,
``graph.is_connected``) are charged to their caller's layer.
"""

from __future__ import annotations

from collections import Counter

from .tracer import Target, Tracer

PER_LAYER: dict[str, tuple[str, str]] = {
    "hamsearch.calls": ("count", "lower"),
    "hamsearch.self_s": ("s", "lower"),
    "hamsearch.nodes": ("count", "lower"),
    "hamsearch.nodes_per_s": ("1/s", "higher"),
    "hamsearch.yes": ("count", "higher"),
    "hamsearch.no": ("count", "higher"),
    "hamsearch.indeterminate": ("count", "lower"),
    "hamsearch.nodes_per_no": ("count", "lower"),
    "hamsearch.path_calls_per_graph": ("calls/graph", "lower"),
    "exact.self_s": ("s", "lower"),
    "exact.ml_calls": ("count", "lower"),
    "exact.mu_calls": ("count", "lower"),
    "exact.rungs": ("count", "lower"),
    "exact.rungs_per_graph": ("calls/graph", "lower"),
    "exact.tree_search_calls": ("count", "lower"),
    "cover.calls": ("count", "lower"),
    "cover.self_s": ("s", "lower"),
    "cover.reroute_calls": ("count", "lower"),
    "cover.certified_frac": ("fraction", "higher"),
    "cover.errors": ("count", "lower"),
    "isomorphism.self_s": ("s", "lower"),
    "isomorphism.canonical_calls": ("count", "lower"),
    "isomorphism.canonical_s": ("s", "lower"),
    "isomorphism.pair_seeds_calls": ("count", "lower"),
    "isomorphism.pair_seeds_s": ("s", "lower"),
    "isomorphism.are_isomorphic_calls": ("count", "lower"),
    "generate.self_s": ("s", "lower"),
    "generate.children_tried": ("count", "lower"),
    "generate.states": ("count", "lower"),
    "generate.accept_ratio": ("fraction", "higher"),
    "generate.emitted": ("count", "higher"),
    "graph.self_s": ("s", "lower"),
    "graph.parse_calls": ("count", "lower"),
    "graph.parse_s": ("s", "lower"),
    "graph.connectivity_calls": ("count", "lower"),
    "graph.connectivity_s": ("s", "lower"),
    "census.self_s": ("s", "lower"),
    "census.graphs": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.spans": ("count", "lower"),
}


def _search_result(tracer: Tracer, result, args) -> None:
    """Verdict and node count of a hamsearch query entered from outside."""
    v = tracer.values
    v["hamsearch.calls"] += 1
    v["hamsearch.nodes"] += result.nodes
    v[f"hamsearch.{result.status.value}"] += 1
    if result.status.value == "no":
        v["hamsearch.no_nodes"] += result.nodes


def _cover_report(tracer: Tracer, report, args) -> None:
    tracer.values["cover.certified"] += bool(report.certified)


def _emitted(tracer: Tracer, count, args) -> None:
    tracer.values["generate.emitted"] += count


def targets() -> list[Target]:
    def t(layer, attr, **kw):
        return Target(layer, f"cubicml.{layer}", attr, **kw)

    search = dict(graph_arg=True, hook=_search_result)
    return [
        t("graph", "parse_graph6"),
        t("graph", "write_graph6", graph_arg=True),
        t("graph", "read_adjacency_file"),
        t("graph", "vertex_connectivity_capped", graph_arg=True),
        t("graph", "induced_subgraph", graph_arg=True),
        t("hamsearch", "has_ham_path", **search),
        t("hamsearch", "has_ham_path_from", **search),
        t("hamsearch", "has_ham_cycle", **search),
        t("exact", "min_leaf_number", graph_arg=True),
        t("exact", "path_cover_number", graph_arg=True),
        t("exact", "has_tree_le_k_leaves", graph_arg=True),
        t("exact", "has_path_cover_le_k", graph_arg=True),
        t("exact", "_tree_search_le_k", span=False),
        t("cover", "run_cover_procedure", graph_arg=True, hook=_cover_report),
        t("cover", "reroute_short_path", graph_arg=True),
        t("isomorphism", "are_isomorphic", graph_arg=True),
        t("isomorphism", "canonical_data"),
        t("isomorphism", "canonical_form"),
        t("isomorphism", "pair_seeds"),
        t("isomorphism", "seeded_colors"),
        t("generate", "generate_cubic", hook=_emitted),
        t("generate", "_grow", recursive=True),
        t("generate", "_deletable", span=False),
        t("census", "verify_paper_artifacts"),
        t("census", "load_fixtures"),
        t("census", "lemma_short_scan"),
        t("census", "lemma_short_hypotheses", graph_arg=True),
        t("census", "nontraceable_census"),
        t("census", "census_graph", graph_arg=True),
        t("cli", "main"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _distinct_graphs(tracer: Tracer, *names: str) -> int:
    ids = set()
    for name in names:
        ids.update(tracer.graph[i] for i in tracer.spans_of(name))
    return len(ids)


def per_layer_metrics(tracer: Tracer, factor: float, traced_wall_s: float,
                      untraced_wall_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of a finished trace.  Span times are
    multiplied by ``factor``, the traced job's speed factor; the two wall
    times come already scaled."""
    calls, v = tracer.calls, tracer.values
    incl = Counter({k: t * factor for k, t in tracer.inclusive_s.items()})
    self_s = Counter({k: t * factor for k, t in tracer.self_s.items()})
    rung_names = ("exact.has_tree_le_k_leaves", "exact.has_path_cover_le_k")
    rungs = sum(calls[n] for n in rung_names)
    overhead = traced_wall_s - untraced_wall_s
    m = {
        "hamsearch.calls": v["hamsearch.calls"],
        "hamsearch.self_s": self_s["hamsearch"],
        "hamsearch.nodes": v["hamsearch.nodes"],
        "hamsearch.nodes_per_s": _ratio(v["hamsearch.nodes"],
                                        self_s["hamsearch"]),
        "hamsearch.yes": v["hamsearch.yes"],
        "hamsearch.no": v["hamsearch.no"],
        "hamsearch.indeterminate": v["hamsearch.indeterminate"],
        "hamsearch.nodes_per_no": _ratio(v["hamsearch.no_nodes"],
                                         v["hamsearch.no"]),
        "hamsearch.path_calls_per_graph": _ratio(
            calls["hamsearch.has_ham_path"],
            _distinct_graphs(tracer, "hamsearch.has_ham_path")),
        "exact.self_s": self_s["exact"],
        "exact.ml_calls": calls["exact.min_leaf_number"],
        "exact.mu_calls": calls["exact.path_cover_number"],
        "exact.rungs": rungs,
        "exact.rungs_per_graph": _ratio(
            rungs, _distinct_graphs(tracer, *rung_names)),
        "exact.tree_search_calls": calls["exact._tree_search_le_k"],
        "cover.calls": calls["cover.run_cover_procedure"],
        "cover.self_s": self_s["cover"],
        "cover.reroute_calls": calls["cover.reroute_short_path"],
        "cover.certified_frac": _ratio(v["cover.certified"],
                                       calls["cover.run_cover_procedure"]),
        "cover.errors": tracer.errors["cover.run_cover_procedure"],
        "isomorphism.self_s": self_s["isomorphism"],
        "isomorphism.canonical_calls": calls["isomorphism.canonical_data"],
        "isomorphism.canonical_s": incl["isomorphism.canonical_data"],
        "isomorphism.pair_seeds_calls": calls["isomorphism.pair_seeds"],
        "isomorphism.pair_seeds_s": incl["isomorphism.pair_seeds"],
        "isomorphism.are_isomorphic_calls":
            calls["isomorphism.are_isomorphic"],
        "generate.self_s": self_s["generate"],
        "generate.children_tried": calls["generate._deletable"],
        "generate.states": calls["generate._grow"],
        "generate.accept_ratio": _ratio(calls["generate._grow"],
                                        calls["generate._deletable"]),
        "generate.emitted": v["generate.emitted"],
        "graph.self_s": self_s["graph"],
        "graph.parse_calls": calls["graph.parse_graph6"],
        "graph.parse_s": incl["graph.parse_graph6"],
        "graph.connectivity_calls": calls["graph.vertex_connectivity_capped"],
        "graph.connectivity_s": incl["graph.vertex_connectivity_capped"],
        "census.self_s": self_s["census"],
        "census.graphs": calls["census.census_graph"],
        "cli.self_s": self_s["cli"],
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": overhead,
        "trace.overhead_frac": _ratio(overhead, untraced_wall_s),
        "trace.spans": tracer.span_count,
    }
    if m.keys() != PER_LAYER.keys():
        raise RuntimeError("per-layer metrics out of step with PER_LAYER")
    return m
