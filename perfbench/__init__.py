"""Benchmark of the flowmoe CLI stages with traced per-layer timings.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads and metrics.
"""
