"""Experiment drivers: load/run workloads against the stores and emit the
rows that every paper table/figure reports.  :mod:`repro.bench.experiments`
holds them in one artifact table, which ``python -m repro exp`` runs."""

from repro.bench.runner import WorkloadResult, load_store, run_requests, run_workload

__all__ = ["WorkloadResult", "load_store", "run_requests", "run_workload"]
