"""The three workloads: inputs, one timed job, and the checks on its output.

Each workload has ``prepare(seed)``, which builds the inputs before any
timing or tracing starts, and ``run(inputs, clock)``, which makes one job's
calls back to back (a closed loop with one client), times them with
``clock`` and returns an ``Outcome``.  The checks run after the timed
region.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from cubicml import cli, cover, exact, graph, hamsearch

from . import checks, streams

# --- outcome ----------------------------------------------------------------


@dataclass
class Outcome:
    """What one job did.

    ``attempted`` counts the job's units (checks, or stream graphs), and
    ``failed`` the units with at least one failure.  A failure is an
    exception, an INDETERMINATE verdict, a wrong answer or a failed check;
    ``wrong`` counts only the units with a wrong answer or failed check.
    """

    wall_s: float
    attempted: int
    latencies_s: list[float] = field(default_factory=list)
    phases_s: dict[str, float] = field(default_factory=dict)
    failures: list[tuple[str, str, str]] = field(default_factory=list)

    def fail(self, unit: str, kind: str, message: str) -> None:
        """Record a failure: ``kind`` is error, indeterminate or wrong."""
        self.failures.append((unit, kind, message))

    @property
    def failed(self) -> int:
        return len({unit for unit, _, _ in self.failures})

    @property
    def wrong(self) -> int:
        return len({unit for unit, kind, _ in self.failures
                    if kind == "wrong"})


def _run_cli(argv: list[str], stdin_text: str | None = None
             ) -> tuple[int | str, str, str]:
    """Run the command line in process; returns (exit code or the
    exception it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code: int | str = cli.main(argv)
    except Exception as exc:  # a crash is a failed job, not a dead benchmark
        code = f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


# --- verify-paper -------------------------------------------------------------

VERIFY_CHECKS = 101  # checks verify-paper makes over the 23 embedded fixtures


def prepare_verify_paper(seed: int) -> None:
    """The inputs are the embedded fixtures; the seed does not apply."""
    return None


def run_verify_paper(_inputs: None, clock) -> Outcome:
    start = clock()
    code, out, err = _run_cli(["verify-paper"])
    outcome = Outcome(clock() - start, VERIFY_CHECKS)
    lines = out.splitlines()
    check_lines, summary = lines[:-1], (lines[-1] if lines else "")
    for line in check_lines:
        if not line.startswith("ok   "):
            outcome.fail(line, "wrong", "check failed")
    if len(check_lines) != VERIFY_CHECKS:
        outcome.fail("verify-paper", "wrong",
                     f"{len(check_lines)} checks, expected {VERIFY_CHECKS}")
    expected_summary = f"{len(check_lines)} checks, 0 failed"
    if summary != expected_summary:
        outcome.fail("verify-paper", "wrong",
                     f"summary {summary!r}, expected {expected_summary!r}")
    if code != 0 or err:
        outcome.fail("verify-paper", "wrong", f"exit {code}, stderr {err!r}")
    return outcome


# --- generate-census ------------------------------------------------------------

GENERATE_ORDER = 14
CUBIC_GRAPHS_14 = 509  # connected cubic graphs on 14 vertices, OEIS A002851


def prepare_generate_census(seed: int) -> None:
    """The input is the order 14; the seed does not apply."""
    return None


def run_generate_census(_inputs: None, clock) -> Outcome:
    start = clock()
    gen_code, g6, gen_err = _run_cli(["generate", str(GENERATE_ORDER)])
    mid = clock()
    census_code, census_out, census_err = _run_cli(["census", "-"], g6)
    end = clock()
    lines = g6.splitlines()
    # units: each graph line, the generate summary, the census record
    outcome = Outcome(end - start, max(len(lines), CUBIC_GRAPHS_14) + 2,
                      phases_s={"generate_s": mid - start,
                                "census_s": end - mid})
    for i, line in enumerate(lines, start=1):
        try:
            adj = streams.parse_graph6(line)
        except ValueError as exc:
            outcome.fail(f"graph {i}", "wrong", str(exc))
            continue
        full = (1 << len(adj)) - 1
        if len(adj) != GENERATE_ORDER or any(
                a.bit_count() != 3 for a in adj) or \
                streams.reach(adj, full) != full:
            outcome.fail(f"graph {i}", "wrong",
                         f"{line} is not a connected cubic graph on "
                         f"{GENERATE_ORDER} vertices")
    if len(lines) != CUBIC_GRAPHS_14 or len(set(lines)) != len(lines):
        outcome.fail("generate", "wrong",
                     f"{len(set(lines))} distinct graphs in {len(lines)} "
                     f"lines, expected {CUBIC_GRAPHS_14}")
    if gen_code != 0 or gen_err != f"{CUBIC_GRAPHS_14} graphs\n":
        outcome.fail("generate", "wrong",
                     f"exit {gen_code}, stderr {gen_err!r}")
    try:
        records = [json.loads(r) for r in census_out.splitlines()]
    except ValueError:
        records = []
    expected = {"n": GENERATE_ORDER, "conn2": 0, "conn3": 0,
                "total": CUBIC_GRAPHS_14, "indeterminate": 0}
    if records != [expected]:
        outcome.fail("census", "wrong",
                     f"census printed {census_out!r}, expected {expected}")
    if census_code != 0 or census_err:
        outcome.fail("census", "wrong",
                     f"exit {census_code}, stderr {census_err!r}")
    return outcome


# --- analyze-stream -------------------------------------------------------------

BUDGET = hamsearch.SearchBudget(max_nodes=200_000)  # per query


@dataclass
class StreamGraph:
    gid: str
    line: str
    adj: list[int]              # parsed by the benchmark, for the checks
    traceable: bool | None      # known answer, None when not known


def prepare_analyze_stream(seed: int) -> list[StreamGraph]:
    return [StreamGraph(gid, line, streams.parse_graph6(line), traceable)
            for gid, line, traceable in streams.build_stream(seed)]


def _analyze(line: str) -> dict[str, object]:
    """What ``cubicml analyze --ml --mu`` computes, then the cover
    pipeline with the exact path cover number.  An exception ends the
    step it came from, and is kept as that step's answer."""
    answers: dict[str, object] = {}

    def step(name, fn, *args, **kwargs):
        try:
            answers[name] = fn(*args, **kwargs)
        except Exception as exc:  # a failed query, recorded and checked
            answers[name] = exc
        return answers[name]

    g = step("parse", graph.parse_graph6, line)
    if isinstance(g, Exception):
        return answers
    step("connectivity", graph.vertex_connectivity_capped, g, 3)
    step("traceable", hamsearch.has_ham_path, g, BUDGET)
    step("ml", exact.min_leaf_number, g, BUDGET)
    mu = step("mu", exact.path_cover_number, g, BUDGET)
    exact_mu = getattr(mu, "value", None)
    step("cover", cover.run_cover_procedure, g, exact_mu=exact_mu,
         budget=BUDGET)
    return answers


def run_analyze_stream(inputs: list[StreamGraph], clock) -> Outcome:
    answers = []
    latencies = []
    start = clock()
    for item in inputs:
        t = clock()
        answers.append(_analyze(item.line))
        latencies.append(clock() - t)
    outcome = Outcome(clock() - start, len(inputs), latencies)
    for item, a in zip(inputs, answers):
        for kind, message in _stream_problems(item, a):
            outcome.fail(item.gid, kind, message)
    return outcome


def _status(answer) -> str | None:
    status = getattr(answer, "status", None)
    return getattr(status, "value", None)


def _stream_problems(item: StreamGraph, a: dict[str, object]):
    """(kind, message) for every failure on one stream graph."""
    for name, value in a.items():
        if isinstance(value, Exception):
            yield "error", f"{name}: {type(value).__name__}: {value}"
        elif _status(value) == "indeterminate":
            yield "indeterminate", f"{name}: INDETERMINATE under {BUDGET}"
    adj = item.adj
    conn = a.get("connectivity", 2)
    if not isinstance(conn, Exception) and conn not in (2, 3):
        yield "wrong", f"connectivity {conn!r} of a 2-connected cubic graph"

    traceable = None
    r = a.get("traceable")
    if _status(r) == "yes":
        traceable = True
        for p in checks.path_problems(adj, r.witness):
            yield "wrong", f"traceable: {p}"
    elif _status(r) == "no":
        traceable = False
    if traceable is not None and item.traceable is not None \
            and traceable != item.traceable:
        yield "wrong", f"traceable {traceable}, known {item.traceable}"

    ml = None
    r = a.get("ml")
    if _status(r) == "yes":
        ml = r.value
        leaves, problems = checks.tree_leaves(
            adj, getattr(r.tree, "parent", None))
        for p in problems:
            yield "wrong", f"ml: {p}"
        if leaves is not None and leaves != ml:
            yield "wrong", f"ml {ml} but its witness tree has {leaves} leaves"

    mu = None
    r = a.get("mu")
    if _status(r) == "yes":
        mu = r.value
        for p in checks.cover_problems(adj, r.paths, mu):
            yield "wrong", f"mu: {p}"

    for what, holds in (("ml = 2", ml == 2 if ml is not None else None),
                        ("mu = 1", mu == 1 if mu is not None else None)):
        if holds is not None and traceable is not None \
                and holds != traceable:
            yield "wrong", f"{what} is {holds} but traceable is {traceable}"
    if ml is not None and mu is not None and (ml == 2) != (mu == 1):
        yield "wrong", f"ml {ml} and mu {mu} disagree on traceability"
    if ml is not None and mu is not None and ml > 2 \
            and not mu + 1 <= ml <= 2 * mu:
        yield "wrong", f"mu + 1 <= ml <= 2 mu fails for ml {ml}, mu {mu}"

    report = a.get("cover")
    if report is not None and not isinstance(report, Exception):
        leaves, problems = checks.tree_leaves(
            adj, getattr(report.tree, "parent", None))
        for p in problems:
            yield "wrong", f"cover: {p}"
        if leaves is not None and ml is not None and leaves < ml:
            yield "wrong", f"cover tree has {leaves} leaves, below ml {ml}"
        if leaves is not None and leaves != report.leaf_count:
            yield "wrong", (f"cover reports {report.leaf_count} leaves, "
                            f"its tree has {leaves}")


# --- registry -------------------------------------------------------------------

WORKLOADS = {
    "verify-paper": (prepare_verify_paper, run_verify_paper),
    "generate-census": (prepare_generate_census, run_generate_census),
    "analyze-stream": (prepare_analyze_stream, run_analyze_stream),
}
