"""Every closed signal vocabulary, declared in one module.

The names a run's signals may carry -- journal event kinds, counter names,
engine station names, heal incident and action kinds -- are closed sets.
The runtime rejects an undeclared name where one is made
(:meth:`repro.obs.events.EventJournal.emit`, ``Incident`` and ``Action``),
and simlint rejects an undeclared string literal at lint time: SIM004 for
events and counters, SIM008 for incidents, actions and stations.  simlint
parses this module's assignments out of its source (it never imports repo
code), so each set stays a literal display.
"""

#: the closed event taxonomy -- emit() rejects anything else, so a typo in
#: an emitter is a test failure, not a silently-new kind
EVENT_KINDS = frozenset(
    {
        "log_flush",
        "lazy_merge",
        "buffer_merge",
        "buffer_drop",
        "gc_pass",
        "scrub_pass",
        "repair_start",
        "repair_done",
        "fault_inject",
        "fault_heal",
        "stale_mark",
        "stale_recover",
        "retry",
        "backoff",
        # self-healing control plane (repro.heal): one event per pipeline
        # stage, so a journal slice shows detect -> propose -> verify ->
        # execute (-> rollback) brackets for every remediation action
        "heal_detect",
        "heal_propose",
        "heal_verify",
        "heal_execute",
        "heal_rollback",
        "scheme_switch",
        # concurrent engine (repro.engine): run brackets, admission rejects,
        # flush completions and the backpressure on/off edges -- the same
        # journal form the timeline attribution joins against
        "engine_run_start",
        "engine_run_end",
        "engine_reject",
        "engine_flush",
        "engine_backpressure_on",
        "engine_backpressure_off",
        # sim-time telemetry (repro.obs.timeseries): SLO burn-rate threshold
        # crossings, edge-detected per episode -- the heal plane consumes
        # these as slo_burn incidents
        "telemetry_slo_burn",
        "telemetry_slo_ok",
        # determinism sanitizer (repro.devtools.simsan): one event per
        # slice/fixture comparison plus one per order-sensitivity hazard and
        # per runtime access violation, journaled into the sanitize report
        "sanitize_slice",
        "sanitize_fixture",
        "sanitize_hazard",
        "sanitize_violation",
    }
)

#: The declared counter registry.  Every *literal* counter name passed to
#: :meth:`Counters.add` anywhere in the tree must appear here (or match a
#: prefix below) -- enforced statically by simlint rule SIM004, which parses
#: this assignment out of the module source.  Keeping the names declared in
#: one place is what lets profile snapshots, the Prometheus exporter and the
#: profile golden agree on the metric namespace.
COUNTER_NAMES = frozenset(
    {
        "chunk_reads",
        "chunk_writes",
        "coalesce_flushes",
        "coalesced_updates",
        "corrupt_chunks_detected",
        # concurrent engine (repro.engine): job outcomes, accumulated wait
        # seconds by cause, and the flush/backpressure tallies
        "engine_admission_wait_s",
        "engine_backpressure_stalls",
        "engine_backpressure_wait_s",
        "engine_flush_bytes",
        "engine_flush_deferrals",
        "engine_flushes",
        "engine_jobs_completed",
        "engine_jobs_rejected",
        "engine_station_busy_s",
        "engine_station_wait_s",
        "gc_passes",
        "gc_stripes",
        "gc_stripes_collected",
        "heal_actions_deferred",
        "heal_actions_executed",
        "heal_escalations",
        "heal_incidents",
        "heal_incidents_suppressed",
        "heal_rollbacks",
        "log_appended_bytes",
        "log_buffer_appends",
        "log_buffer_drops",
        "log_buffer_merges",
        "log_flush_bytes",
        "log_flush_records",
        "log_lazy_merge_bytes",
        "log_lazy_merges",
        "log_node_recoveries",
        "log_random_writes",
        "log_scheme_switches",
        "log_sync_stalls",
        "log_region_reads",
        "log_region_spill_extents",
        "logged_parity_disk_reads",
        "logged_parity_reads",
        "multi_failure_repairs",
        "net_bytes",
        "net_messages",
        "net_rpcs",
        "node_repair_chunks",
        "node_repairs",
        "op_degraded_read",
        "op_delete",
        "op_read",
        "op_update",
        "op_write",
        "parity_chunk_reads",
        "parity_deltas_sent",
        "parity_deltas_skipped",
        # determinism sanitizer (repro.devtools.simsan): comparisons run,
        # fingerprint components that diverged, runtime checks that fired
        "sanitize_runs",
        "sanitize_hazards",
        "sanitize_violations",
        "stripes_sealed",
        # sim-time telemetry (repro.obs.timeseries)
        "telemetry_samples",
        "telemetry_slo_burns",
    }
)

#: Dynamic counter families (name built with an f-string at runtime): the
#: journal's per-kind event totals and the per-scheme flush tallies.
COUNTER_PREFIXES = ("events_", "log_flushes_")

#: The declared station-name registry.  Every *literal* station name passed
#: to ``Station(...)`` / ``Stage(...)`` anywhere in the tree must appear here
#: or match a prefix below -- enforced statically by simlint rule SIM008,
#: which parses these assignments out of the module source (the same
#: mechanism SIM004 uses for event kinds and counter names).
STATION_NAMES = frozenset({"delay", "proxy_cpu", "proxy_nic"})

#: Per-node station families (name built with an f-string at runtime).
STATION_PREFIXES = ("disk:", "nic:")

#: every degradation the plane can classify, one per fault family the
#: chaos schedule can produce (plus counter-derived buffer overruns)
INCIDENT_KINDS = (
    "buffer_overrun",   # log node hit sync-flush backpressure stalls
    "disk_stall",       # injected disk stall window on a log node
    "node_blip",        # transient DRAM node unavailability
    "node_crash",       # DRAM node down, contents unavailable
    "partition",        # node link unreachable
    "slo_burn",         # telemetry: latency SLO error budget burning
    "stale_parity",     # logged parity stale (log crash/blip or missed delta)
    "straggler",        # node exchanges slowed by a factor
)

#: every remediation step the playbook can emit
ACTION_KINDS = (
    "flush_logs",       # settle a log node's buffer + lazy merges
    "observe",          # wait out a grace period, escalate if still down
    "recover_log",      # rebuild stale logged parities from DRAM state
    "release_backoff",  # undo traffic_backoff once the fault healed
    "repair_node",      # rebuild a failed DRAM node's chunks
    "scheme_switch",    # migrate a log node's on-disk layout
    "traffic_backoff",  # widen proxy retry/timeout knobs (reversible)
)
