"""Benchmark of nqsim: four workloads, end-to-end metrics and a traced per-layer run."""
