"""Benchmark of the cubicml package: workloads, checks and tracer.

Run ``python3 perfbench/run.py --help`` from the root of a source
checkout.  The package itself is imported from ``src/`` and never changed.
"""
