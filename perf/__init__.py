"""Host-time + sim-time benchmark of the LogECMem reproduction (see perf/README.md)."""
