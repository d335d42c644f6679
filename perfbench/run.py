"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload analyze-stream --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the workload's job runs back to back (one
process, one thread, a closed loop with one client) for as many whole jobs
as fit in ``--seconds``, at least one, and the end-to-end metrics are
reported.  With ``--trace 1`` one untraced job runs, then one job with the
outside-in tracer installed, and the per-layer metrics are reported, with
the tracing overhead.  The spans go to ``.perfbench/`` in the checkout.

Times are in reference seconds; see ``perfbench/harness.py``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cubicml" / "cli.py").is_file():
        print(f"run.py: no package source under {SRC}; run it from a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    prepare, run = WORKLOADS[args.workload]
    if args.trace:
        line = harness.run_traced(args.workload, prepare, run, args.seed)
    else:
        line = harness.run_untraced(args.workload, prepare, run,
                                    args.seed, args.seconds)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
