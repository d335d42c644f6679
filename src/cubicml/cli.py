"""Command-line surface for the toolkit.

Subcommands:

  analyze      per-graph verdicts (connectivity, traceability, optionally
               ml and the path cover number) for a graph6 stream
  census       non-traceable counts by order and connectivity class
  lemma-short  scan for counterexamples to the degree-2-start guarantee
  construct    emit a named construction family member as graph6
  generate     isomorph-free generation of connected cubic graphs
  verify-paper re-verify every embedded fixture from scratch

Graphs travel as graph6, one per line; reports are line-delimited JSON.
Exit codes: 0 all checks pass, 1 a verification mismatch or an input line
left undecided, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import BinaryIO, Iterator, TextIO

from .census import (
    lemma_short_scan,
    nontraceable_census,
    verify_paper_artifacts,
)
from .constructions import (
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
from .exact import analyze
from .generate import GENERATOR_MAX_DEG23, generate_cubic, generate_degree23
from .graph import (
    Graph,
    Graph6Error,
    GraphError,
    read_graph6_lines,
    unparsable,
    write_graph6,
)
from .hamsearch import SearchBudget, Status, UNLIMITED


def _g6(g: Graph) -> str:
    return write_graph6(g).decode("ascii")


def _budget(max_nodes: int | None) -> SearchBudget:
    return UNLIMITED if max_nodes is None else SearchBudget(max_nodes)


def _max_nodes(text: str) -> int:
    """argparse type of ``--max-nodes``: a budget below one node would
    leave every non-trivial query INDETERMINATE."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _open_stream(source: str) -> BinaryIO | TextIO:
    """The graph6 stream as bytes, so that a non-ASCII byte reaches the
    parser as one malformed line; a stdin without a byte layer (an
    ``io.StringIO``) is read as text."""
    if source == "-":
        return getattr(sys.stdin, "buffer", sys.stdin)
    return open(source, "rb")


def _parsed(stream: BinaryIO | TextIO,
            bad: list[int]) -> Iterator[tuple[int, Graph]]:
    """The well-formed graphs of ``stream`` with their line numbers; each
    malformed line is reported on stderr and its number added to ``bad``."""
    for lineno, g in read_graph6_lines(stream):
        if isinstance(g, Graph6Error):
            print(unparsable(lineno, g), file=sys.stderr)
            bad.append(lineno)
        else:
            yield lineno, g


def _cmd_analyze(args: argparse.Namespace) -> int:
    budget = _budget(args.max_nodes)
    bad: list[int] = []
    status = 0
    with _open_stream(args.input) as stream:
        for lineno, g in _parsed(stream, bad):
            a = analyze(g, budget, ml=args.ml, mu=args.mu)
            record: dict[str, object] = {
                "id": lineno, "n": g.n, "connectivity": a.connectivity,
                "traceable": a.traceable}
            undecided = a.traceable is None
            for key, res in (("ml", a.ml), ("mu", a.mu)):
                if isinstance(res, GraphError):
                    # e.g. ml of a disconnected graph, mu of the empty one
                    print(f"line {lineno}: {res}", file=sys.stderr)
                    record[key] = None
                    status = 1
                elif res is not None:
                    undecided |= res.status is Status.INDETERMINATE
                    record[key] = res.value
            record["timings"] = {key: round(a.seconds[key], 6) for key in
                                 ("connectivity", "traceable", "ml", "mu")
                                 if key in a.seconds}
            print(json.dumps(record), flush=True)
            if undecided:
                status = 1
    return 1 if bad else status


def _cmd_census(args: argparse.Namespace) -> int:
    budget = _budget(args.max_nodes)
    with _open_stream(args.input) as stream:
        records, diagnostics = nontraceable_census(stream, budget)
    for msg in diagnostics:
        print(msg, file=sys.stderr)
    for rec in records:
        print(json.dumps({
            "n": rec.n, "conn2": rec.conn2, "conn3": rec.conn3,
            "total": rec.total, "indeterminate": rec.indeterminate,
        }))
    # a line left unclassified (malformed, not cubic, or indeterminate
    # under the budget) fails the run
    return 1 if diagnostics or any(r.indeterminate for r in records) else 0


def _generated_degree23(nmax: int) -> Iterator[Graph]:
    for n in range(3, nmax + 1):
        batch: list[Graph] = []
        generate_degree23(n, batch.append)
        yield from batch


def _cmd_lemma_short(args: argparse.Namespace) -> int:
    budget = _budget(args.max_nodes)
    bad: list[int] = []
    if args.nmax is not None:
        # checked up front, not after the scan of every smaller order
        if not 3 <= args.nmax <= GENERATOR_MAX_DEG23:
            print(f"lemma-short: in-repo scan supports 3 <= nmax <= "
                  f"{GENERATOR_MAX_DEG23}", file=sys.stderr)
            return 2
        result = lemma_short_scan(_generated_degree23(args.nmax),
                                  budget=budget)
    else:
        with _open_stream(args.input) as stream:
            result = lemma_short_scan((g for _, g in _parsed(stream, bad)),
                                      budget=budget)
    print(json.dumps({
        "scanned": result.scanned,
        "hypotheses_failed": result.hypotheses_failed,
        "counterexamples": [
            _g6(g) for g in result.counterexamples],
        "indeterminate": [
            _g6(g) for g in result.indeterminate],
    }))
    # a malformed line fails the run, as in ``census``
    return 1 if bad or result.counterexamples or result.indeterminate else 0


_EXPANSION_HOSTS = {
    "k4": lambda: MultiGraph.from_graph(complete_graph(4)),
    "k33": lambda: MultiGraph.from_graph(complete_bipartite(3, 3)),
    "theta": theta_multigraph,
}


def _construct(family: str, params: list[str]) -> Graph:
    def one_int() -> int:
        if len(params) != 1:
            raise GraphError(f"{family} takes exactly one integer parameter")
        text = params[0]
        try:
            return int(text)
        except ValueError:
            raise GraphError(
                f"{family} takes one integer, got {text!r}") from None

    if family == "cycle_petersen":
        return cycle_of_edge_deleted_petersen(one_int())
    if family == "jcell_ring":
        return jcell_ring(one_int())
    if family == "p_star_k4":
        count = one_int()
        if not 1 <= count <= 4:
            raise GraphError("p_star_k4 substitutes 1 to 4 vertices of K4")
        return substitute_p_star(complete_graph(4), list(range(count)))
    if family == "edge_expansion":
        if len(params) != 2:
            raise GraphError("edge_expansion takes <gadget> <host>")
        gadget, host = params
        if host not in _EXPANSION_HOSTS:
            raise GraphError(
                f"unknown host {host!r}; choose from "
                f"{sorted(_EXPANSION_HOSTS)}")
        return edge_expansion(_EXPANSION_HOSTS[host](), named_graph(gadget))
    if family == "gadget":
        if len(params) != 1:
            raise GraphError("gadget takes exactly one name parameter")
        return named_graph(params[0]).graph
    raise GraphError(f"unknown construction family {family!r}")


def _cmd_construct(args: argparse.Namespace) -> int:
    try:
        g = _construct(args.family, args.params)
    except GraphError as exc:
        print(f"construct: {exc}", file=sys.stderr)
        return 2
    line = _g6(g)
    if args.output is None:
        print(line)
    else:
        with open(args.output, "w", encoding="ascii") as out:
            out.write(line + "\n")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    def sink(g: Graph) -> None:
        print(_g6(g))

    try:
        count = generate_cubic(args.n, args.min_conn, sink)
    except GraphError as exc:
        print(f"generate: {exc}", file=sys.stderr)
        return 2
    print(f"{count} graphs", file=sys.stderr)
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    checks = verify_paper_artifacts(_budget(args.max_nodes))
    failed = 0
    for c in checks:
        if c.ok:
            print(f"ok   {c.fixture}: {c.name}")
        else:
            failed += 1
            print(f"FAIL {c.fixture}: {c.name} "
                  f"(expected {c.expected!r}, got {c.actual!r})")
    print(f"{len(checks)} checks, {failed} failed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicml",
        description="minimum leaf number and path cover toolkit "
                    "for cubic graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-graph verdicts for a "
                                       "graph6 stream ('-' for stdin)")
    p.add_argument("input", help="graph6 file, or - for stdin")
    p.add_argument("--ml", action="store_true",
                   help="also compute the minimum leaf number")
    p.add_argument("--mu", action="store_true",
                   help="also compute the path cover number")
    p.add_argument("--max-nodes", type=_max_nodes, default=None,
                   help="search node budget per query (default unlimited)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("census", help="non-traceable census of a "
                                      "graph6 stream")
    p.add_argument("input", help="graph6 file, or - for stdin")
    p.add_argument("--max-nodes", type=_max_nodes, default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("lemma-short",
                       help="scan for graphs meeting the degree-2-start "
                            "hypotheses with no such hamiltonian path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--nmax", type=int, default=None,
                       help="scan all in-repo generated graphs up to "
                            "this order")
    group.add_argument("input", nargs="?", default=None,
                       help="graph6 file, or - for stdin")
    p.add_argument("--max-nodes", type=_max_nodes, default=None)
    p.set_defaults(func=_cmd_lemma_short)

    p = sub.add_parser("construct", help="emit a construction as graph6")
    p.add_argument("family",
                   choices=["cycle_petersen", "jcell_ring", "p_star_k4",
                            "edge_expansion", "gadget"])
    p.add_argument("params", nargs="*",
                   help="family parameters, e.g. a ring length, or "
                        f"a gadget name from {sorted(GADGET_NAMES)}")
    p.add_argument("-o", "--output", default=None,
                   help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("generate", help="emit all connected cubic graphs "
                                        "on n vertices, one per class")
    p.add_argument("n", type=int)
    p.add_argument("--min-conn", type=int, choices=[1, 2, 3], default=1)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify-paper",
                       help="re-verify every embedded fixture")
    p.add_argument("--max-nodes", type=_max_nodes, default=None)
    p.set_defaults(func=_cmd_verify_paper)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except OSError as exc:
        # a missing file, a directory, a file we may not read or write
        print(f"cubicml: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
