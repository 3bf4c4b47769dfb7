"""Benchmark of the hingedplate CLI: seeded workloads, correctness gate, layer traces.

Run one workload with ``python3 perfbench/run.py --workload guide-scan --seed 1``;
see ``perfbench/README.md`` for the workloads and metrics.
"""
