"""End-to-end benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python3 benchmarks/e2e/run.py`` from the repository root; see
``benchmarks/e2e/README.md`` for the workloads, metrics and bounds.
"""
