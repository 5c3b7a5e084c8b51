//! The elephant benchmark: four workloads across the packet-level,
//! learned-oracle and PDES paths, measured end to end with tracing off and
//! layer by layer in a separate traced run. Every number is taken from the
//! outside: the benchmark assembles each run from the program's public
//! constructors, wraps the world and the oracles it builds, and reads the
//! public result structs. It never reads the process-global metrics
//! registry, which is not scoped to one run.
//!
//! Run it through `perfbench/run.py` (see `perfbench/WORKLOADS.md`).

pub mod host;
pub mod probe;
pub mod spans;
pub mod workload;

/// Every per-layer metric a traced invocation reports, with its unit.
/// Layers a workload does not run report zero.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("scenario.compile_s", "s"),
    ("trace.flows", "count"),
    ("trace.flows_elided", "count"),
    ("core.train.capture_s", "s"),
    ("core.train.capture_events", "count"),
    ("core.train.fit_s", "s"),
    ("core.train.samples", "count"),
    ("des.sched.events", "count"),
    ("des.sched.events_per_s", "1/s"),
    ("des.sched.pop_s", "s"),
    ("des.sched.scheduled", "count"),
    ("des.sched.cancelled", "count"),
    ("des.sched.cancel_ratio", "ratio"),
    ("des.sched.pending_peak", "count"),
    ("des.sched.fel_bytes_peak", "count"),
    ("des.checkpoint.count", "count"),
    ("des.checkpoint.clone_s", "s"),
    ("des.pdes.epochs", "count"),
    ("des.pdes.epochs_jumped", "count"),
    ("des.pdes.jump_ratio", "ratio"),
    ("des.pdes.work_s", "s"),
    ("des.pdes.barrier_wait_s", "s"),
    ("des.pdes.marshal_s", "s"),
    ("des.pdes.barrier_share", "ratio"),
    ("des.pdes.remote_messages", "count"),
    ("des.pdes.bytes_marshalled", "count"),
    ("des.pdes.msgs_per_event", "ratio"),
    ("des.pdes.imbalance", "ratio"),
    ("net.flow_start.count", "count"),
    ("net.flow_start.self_s", "s"),
    ("net.arrive_host.count", "count"),
    ("net.arrive_host.self_s", "s"),
    ("net.timer.count", "count"),
    ("net.timer.self_s", "s"),
    ("net.arrive_switch.count", "count"),
    ("net.arrive_switch.self_s", "s"),
    ("net.port_free.count", "count"),
    ("net.port_free.self_s", "s"),
    ("net.tcp.retransmit_ratio", "ratio"),
    ("net.tcp.timeouts", "count"),
    ("net.port.offered", "count"),
    ("net.port.drops", "count"),
    ("net.flows_completed", "count"),
    ("net.guard.self_s", "s"),
    ("net.guard.trips", "count"),
    ("net.guard.fallback_verdicts", "count"),
    ("core.learned.verdicts", "count"),
    ("core.learned.self_s", "s"),
    ("core.learned.ns_per_verdict", "ns"),
    ("core.learned.drop_verdicts", "count"),
    ("core.learned.miss_ns", "ns"),
    ("core.learned.hit_ns", "ns"),
    ("core.cache.lookups", "count"),
    ("core.cache.hit_rate", "ratio"),
    ("core.cache.evictions", "count"),
    ("core.cache.invalidations", "count"),
    ("bench.coverage", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.host_probe_s", "s"),
    ("bench.sim_s_per_wall_s", "ratio"),
];
