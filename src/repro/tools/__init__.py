"""Operator command-line tools.

- ``garnet-bench-report`` (:mod:`repro.tools.bench_report`) — render the
  committed ``BENCH_*.json`` baselines as one markdown report.
"""
