"""Seeded end-to-end and per-layer benchmark for the ldme package.

Run it from the repository root:

    python3 perfbench/run.py --workload line_deep --seed 0 --seconds 24 --trace 0

See README.md in this directory for the workloads and metrics.
"""
