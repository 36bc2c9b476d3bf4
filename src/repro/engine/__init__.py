"""Concurrent discrete-event engine (see docs/INTERNALS.md, "engine").

Promotes the repo's per-op analytic cost models into a loaded system: N
closed-loop clients drive store operations -- decomposed into per-station
stage demands -- through FIFO service stations behind a proxy admission
gate, with log-node buffer occupancy exerting backpressure and chaos fault
schedules opening windows mid-run.  ``python -m repro load`` is the CLI
front end; :func:`repro.engine.load.run_load` the programmatic one.
"""

from repro.engine.admission import AdmissionConfig, AdmissionGate
from repro.engine.backpressure import LogBufferModel
from repro.engine.core import Engine, EngineConfig, EngineResult, exact_quantile
from repro.engine.jobs import JobSpec, JobTrace, Stage, derive_jobs, job_from_span
from repro.engine.load import build_jobs, knee_summary, render_load, run_load, run_point
from repro.engine.stations import Station

__all__ = [
    "AdmissionConfig",
    "AdmissionGate",
    "Engine",
    "EngineConfig",
    "EngineResult",
    "JobSpec",
    "JobTrace",
    "LogBufferModel",
    "Stage",
    "Station",
    "build_jobs",
    "derive_jobs",
    "exact_quantile",
    "job_from_span",
    "knee_summary",
    "render_load",
    "run_load",
    "run_point",
]
