"""Timed and traced runs of one workload, and the report they print.

Every time reported is in reference seconds: the measured time multiplied
by the speed factor that ``calibrate.SpeedSampler`` measured while it ran
(for the set-up, which runs in child processes, the factor of the kernel
run just before and after), which cancels the drift of a shared machine's
speed between runs.  The measured times are printed beside them.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from . import calibrate, layers
from .tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# What every command-line call pays before its first graph: a fresh
# interpreter importing the command line, plus the embedded fixtures and
# gadgets loaded from package data.
SETUP_CODE = """\
import cubicml.cli
from cubicml.census import load_fixtures
from cubicml.constructions import GADGET_NAMES, named_graph
load_fixtures()
for name in GADGET_NAMES:
    named_graph(name)
"""
SETUP_REPEATS = 7
CALIBRATE_S = 0.25  # kernel time before and after the set-up runs

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def measure_setup_s() -> float:
    """Median wall time of fresh interpreters running ``SETUP_CODE``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                       cwd=ROOT, check=True)
        if i:  # the first run compiles the byte code; users pay that once
            times.append(perf_counter() - start)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def report(name: str, value: float, unit: str, note: str = "") -> None:
    shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
    print(f"{name:<34} {shown} {unit:<11} {note}".rstrip())


def report_failures(outcomes) -> None:
    seen = set()
    for outcome in outcomes:
        for unit, kind, message in outcome.failures:
            if (unit, message) not in seen:
                seen.add((unit, message))
                print(f"FAILED {unit}: [{kind}] {message}")


def result_line(outcomes, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": all(o.wrong == 0 for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })


def run_untraced(workload, prepare, run, seed: int, seconds: float) -> str:
    before = calibrate.measure_factor(CALIBRATE_S)
    setup_raw = measure_setup_s()
    setup_s = setup_raw * (before + calibrate.measure_factor(CALIBRATE_S)) / 2
    inputs = prepare(seed)
    outcomes, factors = [], []
    begin = perf_counter()
    while True:
        with calibrate.SpeedSampler() as sampler:
            outcomes.append(run(inputs, sampler.clock))
        factors.append(sampler.factor)
        used = perf_counter() - begin
        if used + outcomes[-1].wall_s > seconds:
            break
    raw = [o.wall_s for o in outcomes]
    wall_s = statistics.median(w * f for w, f in zip(raw, factors))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"workload {workload}, seed {seed}: {len(outcomes)} job(s) in "
          f"{used:.1f} s, closed loop, one client; times in reference "
          f"seconds, speed factor {statistics.median(factors):.4f}")
    report("wall_s", wall_s, "s", f"median of {len(raw)} job(s), "
           f"measured {statistics.median(raw):.4f} s")
    for phase in outcomes[0].phases_s:
        report(f"  {phase}", statistics.median(
            o.phases_s[phase] * f for o, f in zip(outcomes, factors)), "s")
    latencies = [x * f for o, f in zip(outcomes, factors)
                 for x in o.latencies_s]
    if latencies:
        cuts = statistics.quantiles(latencies, n=20)
        beyond = sum(1 for x in latencies if x > cuts[18])
        report("graph_p50_ms", cuts[9] * 1e3, "ms",
               f"{len(latencies)} graphs")
        report("graph_p95_ms", cuts[18] * 1e3, "ms",
               f"{len(latencies)} graphs, {beyond} beyond")
    report("failed_frac", failed / attempted, "fraction",
           f"{failed} failed of {attempted} attempted")
    rss = peak_rss_mb()
    report("peak_rss_mb", rss, "MB")
    report("setup_s", setup_s, "s",
           f"median of {SETUP_REPEATS} fresh interpreters, "
           f"measured {setup_raw:.4f} s")
    report_failures(outcomes)
    values = {"wall_s": wall_s, "peak_rss_mb": rss, "setup_s": setup_s}
    return result_line(outcomes, {k: (values[k], u)
                                  for k, u in END_TO_END.items()})


def run_traced(workload, prepare, run, seed: int) -> str:
    inputs = prepare(seed)  # built before the wrappers go in
    with calibrate.SpeedSampler() as sampler:
        untraced = run(inputs, sampler.clock)
    untraced_s = untraced.wall_s * sampler.factor
    with calibrate.SpeedSampler() as sampler:
        tracer = Tracer(sampler.clock)
        tracer.install(layers.targets())
        try:
            traced = run(inputs, sampler.clock)
        finally:
            tracer.uninstall()
    metrics = layers.per_layer_metrics(tracer, sampler.factor,
                                       traced.wall_s * sampler.factor,
                                       untraced_s)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write_spans(spans_path)
    print(f"workload {workload}, seed {seed}: traced run, "
          f"{tracer.span_count} spans in {spans_path.relative_to(ROOT)}")
    for name, (unit, _better) in layers.PER_LAYER.items():
        report(name, metrics[name], unit)
    report_failures([untraced, traced])
    return result_line([untraced, traced],
                       {k: (metrics[k], u)
                        for k, (u, _b) in layers.PER_LAYER.items()})


