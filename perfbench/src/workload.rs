//! The four workloads and one attempt at each: set up from the scenario
//! file and the seed, run, check the outputs, and (traced) read the layers.
//!
//! Every run is assembled here from the program's public constructors,
//! the same way the library's drivers assemble it (`Compiled::run_*`,
//! `run_hybrid_supervised`, `run_pdes_full`), so that the benchmark can
//! time the gap between setup and the first event and slip its wrappers
//! in. The wrapper test checks that the runs stay bit-identical to the
//! library drivers'.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use elephant_core::{
    capture_records, run_audit, run_ground_truth, train_cluster_model, AuditHooks,
    CacheStatsHandle, ClusterModel, DropPolicy, LearnedOracle, TrainingOptions,
};
use elephant_des::{
    EpochMode, PartitionSim, PartitionWorld, PdesConfig, PdesReport, PdesRunner, SimDuration,
    SimTime, Simulator, World,
};
use elephant_net::{
    ClosParams, ClusterOracle, FixedLatencyOracle, FlowSpec, GuardStatsHandle, GuardedOracle,
    NetConfig, NetEvent, NetPartition, Network, RttScope, Topology,
};
use elephant_scenario::{compile, load, run_fingerprint, CompileOverrides, Compiled, HybridSpec};
use elephant_trace::{generate, WorkloadConfig};

use crate::probe::{NetProbe, OracleProbe, TimedOracle, Traced, GUARD, KIND_NAMES, LEARNED};
use crate::spans::Spans;

/// How a workload is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// Sequential full fidelity (`Compiled::run_sequential`).
    Sequential,
    /// Sequential hybrid (`Compiled::run_hybrid`).
    Hybrid,
    /// Sequential hybrid with checkpoints (`Compiled::run_hybrid_supervised`).
    HybridSupervised,
    /// Conservative PDES, full fidelity (`Compiled::run_pdes`).
    Pdes,
}

impl Driver {
    fn hybrid(self) -> bool {
        matches!(self, Driver::Hybrid | Driver::HybridSupervised)
    }
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Scenario file (under the scenario directory) of the timed runs.
    pub scenario: &'static str,
    /// Scenario file of the accuracy audit; it must have >= 2 clusters.
    pub audit: &'static str,
    /// The driver.
    pub driver: Driver,
}

/// The workloads; `perfbench/WORKLOADS.md` says why each was chosen.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "truth-4c",
        scenario: "truth-4c.toml",
        audit: "truth-4c.toml",
        driver: Driver::Sequential,
    },
    Workload {
        name: "hybrid-16c",
        scenario: "hybrid-16c.toml",
        audit: "hybrid-16c.toml",
        driver: Driver::Hybrid,
    },
    Workload {
        name: "hybrid-16c-cached",
        scenario: "hybrid-16c-cached.toml",
        audit: "hybrid-16c-cached.toml",
        driver: Driver::HybridSupervised,
    },
    Workload {
        name: "pdes-bursty-2p",
        scenario: "pdes-bursty-2p.toml",
        audit: "pdes-bursty-audit.toml",
        driver: Driver::Pdes,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Seed of the accuracy audit. The audit's figures depend on the code
/// alone, not on `--seed`, so a change in accuracy shows without seed
/// noise.
pub const AUDIT_SEED: u64 = 42;

/// What an attempt produced that later attempts must reproduce.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// `run_fingerprint` over every network of the run.
    pub run: u64,
    /// `run_fingerprint` of each PDES partition (empty when sequential).
    pub partitions: Vec<u64>,
    /// Events the kernel executed.
    pub events: u64,
    /// Flows completed.
    pub flows_completed: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fingerprint={:#018x} events={} flows_completed={}",
            self.run, self.events, self.flows_completed
        )?;
        for (p, fp) in self.partitions.iter().enumerate() {
            write!(f, " p{p}={fp:#018x}")?;
        }
        Ok(())
    }
}

/// One run of an attempt.
pub struct Run {
    /// Seed of the run's traffic.
    pub seed: u64,
    /// Seconds of the run phase.
    pub run_s: f64,
    /// The outputs a repeat of the run must match.
    pub fingerprint: Fingerprint,
}

/// One attempt's results.
pub struct Outcome {
    /// Seconds from the start of the attempt to the first event.
    pub setup_s: f64,
    /// Simulated seconds covered by each run.
    pub sim_s: f64,
    /// The runs, in order.
    pub runs: Vec<Run>,
    /// Per-layer metrics of the last run (traced attempts only), by name.
    pub layers: BTreeMap<String, f64>,
}

/// Model-training facts of a hybrid setup.
#[derive(Clone, Copy, Default)]
pub struct TrainFacts {
    /// Wall seconds of the capture run.
    pub capture_s: f64,
    /// Events of the capture run.
    pub capture_events: u64,
    /// Wall seconds of model fitting.
    pub fit_s: f64,
    /// Training samples, both directions.
    pub samples: usize,
}

/// Trains the hybrid model from `seed` with the recipe the CLI uses when
/// no artifact is bound (`train_fallback`): a 30 ms two-cluster capture of
/// the web-search mix around cluster 1, then a 1x16 LSTM for 4 epochs.
pub fn train_model(seed: u64, spans: &mut Spans) -> (ClusterModel, TrainFacts) {
    let params = ClosParams::paper_cluster(2);
    let horizon = SimTime::from_millis(30);
    let flows = generate(&params, &WorkloadConfig::paper_default(horizon, seed));
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    spans.begin("core.train.capture");
    let (net, meta) = run_ground_truth(params, cfg, Some(1), &flows, horizon);
    let capture_s = spans.end();
    let records = capture_records(net).expect("the capture run records cluster 1");
    let opts = TrainingOptions {
        hidden: 16,
        layers: 1,
        epochs: 4,
        ..Default::default()
    };
    spans.begin("core.train.fit");
    let (model, report) = train_cluster_model(&records, &params, &opts);
    let fit_s = spans.end();
    let facts = TrainFacts {
        capture_s,
        capture_events: meta.events,
        fit_s,
        samples: report.up.train_samples + report.down.train_samples,
    };
    (model, facts)
}

/// The oracle stack of a hybrid run, as the CLI's scenario path builds it:
/// the learned oracle (with the `[oracle]` cache when enabled) under the
/// `[guard]`, whose drift band centres on the model's training drop rate
/// and whose fallback delivers at the training median latency. With
/// `probe`, each layer is wrapped in a [`TimedOracle`].
pub struct OracleStack {
    /// The outermost oracle, to install in the network.
    pub oracle: Box<dyn ClusterOracle + Send>,
    /// The guard's counters.
    pub guard: Option<GuardStatsHandle>,
    /// The cache's counters.
    pub cache: Option<CacheStatsHandle>,
}

/// Builds the [`OracleStack`] for `spec`.
pub fn oracle_stack(
    model: ClusterModel,
    spec: &HybridSpec,
    params: ClosParams,
    seed: u64,
    probe: Option<&Arc<OracleProbe>>,
) -> OracleStack {
    let meta = model.meta;
    let learned = if spec.cache {
        LearnedOracle::with_cache(
            model,
            params,
            DropPolicy::Sample,
            seed ^ 0xE1E,
            spec.cache_cap,
        )
    } else {
        LearnedOracle::new(model, params, DropPolicy::Sample, seed ^ 0xE1E)
    };
    let cache = learned.cache_stats_handle();
    let wrap = |o: Box<dyn ClusterOracle + Send>, layer, cache| match probe {
        Some(p) => Box::new(TimedOracle::new(o, Arc::clone(p), layer, cache)) as Box<_>,
        None => o,
    };
    let primary = wrap(Box::new(learned), LEARNED, cache.clone());
    let Some(guard_cfg) = &spec.guard else {
        return OracleStack {
            oracle: primary,
            guard: None,
            cache,
        };
    };
    let mut guard_cfg = guard_cfg.clone();
    guard_cfg.expected_drop_rate = (meta.train_records > 0).then_some(meta.train_drop_rate);
    let fallback_latency = if meta.train_latency_p50 > 0.0 {
        SimDuration::from_secs_f64(meta.train_latency_p50)
    } else {
        SimDuration::from_micros(50)
    };
    let guarded = GuardedOracle::new(
        primary,
        Box::new(FixedLatencyOracle(fallback_latency)),
        guard_cfg,
    );
    let guard = Some(guarded.stats_handle());
    OracleStack {
        oracle: wrap(Box::new(guarded), GUARD, None),
        guard,
        cache,
    }
}

/// A sequential world the benchmark can drive: the bare network, or the
/// network under a [`Traced`] wrapper.
pub trait SeqWorld: World<Event = NetEvent> + Clone + Sized {
    /// Whether this world is traced.
    const TRACED: bool;
    /// Wraps a built network.
    fn wrap(net: Network, oracle: Option<Arc<OracleProbe>>) -> Self;
    /// The network.
    fn net(&self) -> &Network;
    /// The network, mutably.
    fn net_mut(&mut self) -> &mut Network;
    /// The probe, when traced.
    fn probe(&mut self) -> Option<&mut NetProbe>;
}

impl SeqWorld for Network {
    const TRACED: bool = false;
    fn wrap(net: Network, _: Option<Arc<OracleProbe>>) -> Self {
        net
    }
    fn net(&self) -> &Network {
        self
    }
    fn net_mut(&mut self) -> &mut Network {
        self
    }
    fn probe(&mut self) -> Option<&mut NetProbe> {
        None
    }
}

impl SeqWorld for Traced<Network> {
    const TRACED: bool = true;
    fn wrap(net: Network, oracle: Option<Arc<OracleProbe>>) -> Self {
        Traced::sequential(net, oracle)
    }
    fn net(&self) -> &Network {
        &self.inner
    }
    fn net_mut(&mut self) -> &mut Network {
        &mut self.inner
    }
    fn probe(&mut self) -> Option<&mut NetProbe> {
        Some(&mut self.probe)
    }
}

/// A PDES partition world the benchmark can drive.
pub trait ParWorld: PartitionWorld<Event = NetEvent> + Sized {
    /// Whether this world is traced.
    const TRACED: bool;
    /// Wraps a built partition.
    fn wrap(part: NetPartition) -> Self;
    /// The partition's network.
    fn net(&self) -> &Network;
    /// The probe, when traced.
    fn probe(&self) -> Option<&NetProbe>;
    /// Unwraps the partition's network.
    fn into_net(self) -> Network;
}

impl ParWorld for NetPartition {
    const TRACED: bool = false;
    fn wrap(part: NetPartition) -> Self {
        part
    }
    fn net(&self) -> &Network {
        &self.net
    }
    fn probe(&self) -> Option<&NetProbe> {
        None
    }
    fn into_net(self) -> Network {
        self.net
    }
}

impl ParWorld for Traced<NetPartition> {
    const TRACED: bool = true;
    fn wrap(part: NetPartition) -> Self {
        Traced::partition(part)
    }
    fn net(&self) -> &Network {
        &self.inner.net
    }
    fn probe(&self) -> Option<&NetProbe> {
        Some(&self.probe)
    }
    fn into_net(self) -> Network {
        self.inner.net
    }
}

/// Builds the sequential simulator: full fidelity, or the hybrid with
/// `stack` installed, constructed like `run_ground_truth_observed` and
/// `run_hybrid_observed`.
pub fn build_sequential<W: SeqWorld>(
    compiled: &Compiled,
    stack: Option<Box<dyn ClusterOracle + Send>>,
    probe: Option<Arc<OracleProbe>>,
) -> Simulator<W> {
    let mut cfg = compiled.net_config();
    let (net, flows) = match stack {
        None => {
            let topo = Arc::new(Topology::clos(compiled.params));
            (Network::new(topo, cfg), compiled.flows.clone())
        }
        Some(oracle) => {
            let full = compiled.hybrid.full_cluster;
            let stubs: Vec<u16> = (0..compiled.params.clusters)
                .filter(|&c| c != full)
                .collect();
            cfg.capture_cluster = None;
            cfg.rtt_scope = RttScope::Cluster(full);
            let topo = Arc::new(Topology::clos_with_stubs(compiled.params, &stubs));
            let mut net = Network::new(topo, cfg);
            net.set_oracle(oracle);
            (net, compiled.hybrid_flows())
        }
    };
    let mut sim = Simulator::new(W::wrap(net, probe));
    schedule(sim.scheduler_mut(), &flows);
    sim
}

fn schedule(sched: &mut elephant_des::Scheduler<NetEvent>, flows: &[FlowSpec]) {
    for f in flows {
        sched.schedule_at(f.start, NetEvent::FlowStart(*f));
    }
}

/// Builds the rack-partitioned PDES runner, constructed like
/// `run_pdes_full` (adaptive epochs, the scenario's machines and envelope).
pub fn build_pdes<W: ParWorld>(compiled: &Compiled) -> PdesRunner<W> {
    let topo = Arc::new(Topology::clos(compiled.params));
    let map = Arc::new(topo.partition_by_rack(compiled.partitions));
    let lookahead = topo
        .min_cut_latency(&map)
        .unwrap_or(SimDuration::from_micros(1));
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let mut parts: Vec<PartitionSim<W>> = (0..compiled.partitions)
        .map(|p| {
            let mut net = Network::new(Arc::clone(&topo), cfg);
            net.set_partition(p, Arc::clone(&map));
            PartitionSim::new(W::wrap(NetPartition { net }))
        })
        .collect();
    for f in &compiled.flows {
        let owner = map[topo.host_node(f.src).idx()] as usize;
        parts[owner]
            .scheduler_mut()
            .schedule_at(f.start, NetEvent::FlowStart(*f));
    }
    let mut pdes = PdesConfig::round_robin(
        compiled.partitions,
        compiled.machines,
        lookahead,
        compiled.envelope_bytes,
    )
    .with_epoch_mode(EpochMode::Adaptive);
    if let Some(plan) = compiled.faults.clone() {
        pdes = pdes.with_faults(plan);
    }
    PdesRunner::new(parts, pdes)
}

/// Checkpoint activity of a supervised run.
#[derive(Default)]
struct Checkpoints {
    count: u64,
    clone_s: f64,
}

/// Runs a sequential simulator to `horizon`. With `checkpoint_every` it
/// mirrors the supervised driver: a checkpoint at time zero and after
/// every chunk that leaves work to do, each replacing the previous one.
fn run_sequential<W: SeqWorld>(
    sim: &mut Simulator<W>,
    horizon: SimTime,
    checkpoint_every: Option<SimDuration>,
    spans: &mut Spans,
) -> Checkpoints {
    let mut ck = Checkpoints::default();
    let Some(every) = checkpoint_every else {
        sim.run_until(horizon);
        return ck;
    };
    let mut take = |sim: &Simulator<W>, spans: &mut Spans| {
        spans.begin("des.checkpoint");
        let snapshot = sim.checkpoint();
        ck.clone_s += spans.end();
        ck.count += 1;
        snapshot
    };
    let mut _latest = take(sim, spans);
    let every = every.max(SimDuration::from_nanos(1));
    let mut cursor = SimTime::ZERO;
    loop {
        let next = (cursor + every).min(horizon);
        let stop = spans.time("supervise.chunk", || sim.run_until(next));
        cursor = next;
        if let Some(p) = sim.world_mut().probe() {
            p.break_gap();
        }
        if cursor >= horizon || stop == elephant_des::StopReason::Exhausted {
            break;
        }
        _latest = take(sim, spans);
    }
    ck
}

fn fingerprint_of(nets: &[&Network], events: u64, partitioned: bool) -> Fingerprint {
    Fingerprint {
        run: run_fingerprint(nets.iter().copied()),
        partitions: if partitioned {
            nets.iter().map(|n| run_fingerprint([*n])).collect()
        } else {
            Vec::new()
        },
        events,
        flows_completed: nets.iter().map(|n| n.stats.flows_completed).sum(),
    }
}

/// Checks what a correct run must satisfy whatever its timing: flows
/// complete, completion records agree with the counters and lie inside the
/// run, and nothing completes that never started.
fn check_outputs(
    nets: &[&Network],
    scheduled: usize,
    horizon: SimTime,
    events: u64,
) -> Result<(), String> {
    if events == 0 {
        return Err("the run executed no events".into());
    }
    let mut started = 0;
    let mut completed = 0;
    for net in nets {
        let s = &net.stats;
        if s.fct.len() as u64 != s.flows_completed {
            return Err(format!(
                "{} completion records for {} completed flows",
                s.fct.len(),
                s.flows_completed
            ));
        }
        if let Some(r) = s
            .fct
            .iter()
            .find(|r| r.completed < r.started || r.completed > horizon)
        {
            return Err(format!(
                "flow {} completed at {} (started {}, horizon {horizon})",
                r.flow.0, r.completed, r.started
            ));
        }
        started += s.flows_started;
        completed += s.flows_completed;
    }
    if completed == 0 || completed > started || started > scheduled as u64 {
        return Err(format!(
            "{completed} flows completed, {started} started, {scheduled} scheduled"
        ));
    }
    Ok(())
}

/// Per-layer metric table of a traced attempt; units are in
/// [`crate::PER_LAYER`].
struct Layers(BTreeMap<String, f64>);

impl Layers {
    fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
    fn count(&mut self, name: impl Into<String>, value: u64) {
        self.put(name, value as f64);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Port and TCP counters summed over `nets`, after folding still-open
/// connections into the TCP totals.
fn net_counters(nets: &mut [&mut Network], layers: &mut Layers) {
    let (mut offered, mut drops, mut segments, mut retx, mut timeouts, mut completed) =
        (0, 0, 0, 0, 0, 0);
    for net in nets.iter_mut() {
        net.absorb_live_connections();
        for (_, _, c) in net.port_counters() {
            offered += c.offered;
            drops += c.drops;
        }
        segments += net.stats.segments_sent;
        retx += net.stats.retransmissions;
        timeouts += net.stats.timeouts;
        completed += net.stats.flows_completed;
    }
    layers.put(
        "net.tcp.retransmit_ratio",
        ratio(retx as f64, segments as f64),
    );
    layers.count("net.tcp.timeouts", timeouts);
    layers.count("net.port.offered", offered);
    layers.count("net.port.drops", drops);
    layers.count("net.flows_completed", completed);
}

/// Per-kind counts and self times, plus the kernel time between handler
/// calls; returns the attributed seconds.
fn kind_layers(probe: &NetProbe, layers: &mut Layers) -> f64 {
    let self_s = probe.self_s();
    for (k, name) in KIND_NAMES.iter().enumerate() {
        layers.count(format!("net.{name}.count"), probe.counts[k]);
        layers.put(format!("net.{name}.self_s"), self_s[k]);
    }
    layers.count("des.sched.pending_peak", probe.pending_peak as u64);
    self_s.iter().sum()
}

fn pdes_layers(report: &PdesReport, run_s: f64, handle_s: f64, layers: &mut Layers) -> f64 {
    let parts = &report.partitions;
    let work: f64 = parts.iter().map(|p| p.work_seconds).sum();
    let wait: f64 = parts.iter().map(|p| p.barrier_wait_seconds).sum();
    let marshal: f64 = parts.iter().map(|p| p.marshal_seconds).sum();
    let (lo, hi) = parts.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), p| {
        (lo.min(p.work_seconds), hi.max(p.work_seconds))
    });
    layers.count("des.pdes.epochs", report.epochs);
    layers.count("des.pdes.epochs_jumped", report.epochs_jumped);
    layers.put(
        "des.pdes.jump_ratio",
        ratio(report.epochs_jumped as f64, report.epochs as f64),
    );
    layers.put("des.pdes.work_s", work);
    layers.put("des.pdes.barrier_wait_s", wait);
    layers.put("des.pdes.marshal_s", marshal);
    layers.put("des.pdes.barrier_share", ratio(wait, work + wait + marshal));
    layers.count("des.pdes.remote_messages", report.remote_messages);
    layers.count("des.pdes.bytes_marshalled", report.bytes_marshalled);
    layers.put(
        "des.pdes.msgs_per_event",
        ratio(report.remote_messages as f64, report.events_executed as f64),
    );
    layers.put("des.pdes.imbalance", ratio(hi, lo));
    layers.count(
        "des.sched.fel_bytes_peak",
        parts.iter().map(|p| p.fel_bytes_peak).max().unwrap_or(0),
    );
    layers.put("des.sched.pop_s", (work - handle_s).max(0.0));
    ratio(work + wait + marshal, run_s * parts.len() as f64)
}

/// Fills the metrics of layers a workload does not run with zeros, so
/// every traced invocation reports the same names.
fn zero_absent(layers: &mut Layers) {
    for (name, _) in crate::PER_LAYER {
        layers.0.entry(name.to_string()).or_insert(0.0);
    }
}

/// Runs one attempt of `w`: setup, then `runs` runs, each with its output
/// checks and (traced) the per-layer read-out. The scenario file is read
/// from `dir` and compiled with `overrides` (the seed, and a shorter
/// horizon in tests). Run `r` draws its traffic from the seed plus `r`;
/// setup covers the first run's inputs and, on the hybrids, the model,
/// which is trained once from the first seed and serves every run, as a
/// trained model serves new traffic.
pub fn attempt(
    w: &Workload,
    dir: &Path,
    overrides: &CompileOverrides,
    traced: bool,
    runs: usize,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let start = Instant::now();
    spans.begin("setup");
    spans.begin("scenario.compile");
    let path = dir.join(w.scenario);
    let scenario = load(&path.to_string_lossy()).map_err(|e| e.to_string())?;
    let compiled = compile(&scenario, overrides);
    let compile_s = spans.end();
    let mut layers = Layers(BTreeMap::new());
    layers.put("scenario.compile_s", compile_s);
    let model = w.driver.hybrid().then(|| {
        let (model, facts) = train_model(compiled.seed, spans);
        layers.put("core.train.capture_s", facts.capture_s);
        layers.count("core.train.capture_events", facts.capture_events);
        layers.put("core.train.fit_s", facts.fit_s);
        layers.count("core.train.samples", facts.samples as u64);
        model
    });

    let mut setup_s = None;
    let mut done = Vec::with_capacity(runs);
    for r in 0..runs.max(1) {
        let later;
        let draw = if r == 0 {
            &compiled
        } else {
            let seed = compiled.seed.wrapping_add(r as u64);
            later = spans.time("scenario.compile", || {
                compile(
                    &scenario,
                    &CompileOverrides {
                        seed: Some(seed),
                        ..*overrides
                    },
                )
            });
            &later
        };
        layers.count("trace.flows", draw.flows.len() as u64);
        let ready = Ready {
            start,
            setup_s: &mut setup_s,
        };
        let model = model.as_ref();
        let (run_s, fingerprint) = match (w.driver, traced) {
            (Driver::Pdes, false) => run_pdes::<NetPartition>(draw, ready, spans, &mut layers),
            (Driver::Pdes, true) => {
                run_pdes::<Traced<NetPartition>>(draw, ready, spans, &mut layers)
            }
            (d, false) => run_seq::<Network>(d, draw, model, ready, spans, &mut layers),
            (d, true) => run_seq::<Traced<Network>>(d, draw, model, ready, spans, &mut layers),
        }?;
        done.push(Run {
            seed: draw.seed,
            run_s,
            fingerprint,
        });
    }
    if traced {
        zero_absent(&mut layers);
    }
    Ok(Outcome {
        setup_s: setup_s.unwrap_or_default(),
        sim_s: compiled.horizon.as_secs_f64(),
        runs: done,
        layers: if traced { layers.0 } else { BTreeMap::new() },
    })
}

/// Seconds of one run and its fingerprint.
type RunResult = Result<(f64, Fingerprint), String>;

/// Marks the end of setup when the first run's world is built: records the
/// setup time and closes the `setup` span. Later runs leave both alone.
struct Ready<'a> {
    start: Instant,
    setup_s: &'a mut Option<f64>,
}

impl Ready<'_> {
    fn mark(self, spans: &mut Spans) {
        if self.setup_s.is_none() {
            *self.setup_s = Some(self.start.elapsed().as_secs_f64());
            spans.end();
        }
    }
}

fn run_seq<W: SeqWorld>(
    driver: Driver,
    compiled: &Compiled,
    model: Option<&ClusterModel>,
    ready: Ready,
    spans: &mut Spans,
    layers: &mut Layers,
) -> RunResult {
    let every = match driver {
        Driver::HybridSupervised => Some(
            compiled
                .recovery
                .ok_or("the supervised workload's scenario has no [recovery]")?
                .checkpoint_every,
        ),
        _ => None,
    };
    let mut hooks = None;
    let mut probe = None;
    let mut stack = None;
    if let Some(model) = model {
        let outer = if compiled.hybrid.guard.is_some() {
            GUARD
        } else {
            LEARNED
        };
        probe = W::TRACED.then(|| Arc::new(OracleProbe::new(outer)));
        let s = oracle_stack(
            model.clone(),
            &compiled.hybrid,
            compiled.params,
            compiled.seed,
            probe.as_ref(),
        );
        hooks = Some((s.guard, s.cache));
        stack = Some(s.oracle);
    }
    let scheduled = if driver.hybrid() {
        compiled.hybrid_flows().len()
    } else {
        compiled.flows.len()
    };
    layers.count(
        "trace.flows_elided",
        (compiled.flows.len() - scheduled) as u64,
    );
    let mut sim: Simulator<W> = spans.time("world.build", || {
        build_sequential(compiled, stack, probe.clone())
    });
    ready.mark(spans);

    spans.begin("run");
    let t0 = Instant::now();
    let ck = run_sequential(&mut sim, compiled.horizon, every, spans);
    let run_s = t0.elapsed().as_secs_f64();
    spans.end();

    let events = sim.scheduler().executed_total();
    let fp = fingerprint_of(&[sim.world().net()], events, false);
    check_outputs(&[sim.world().net()], scheduled, compiled.horizon, events)?;
    if !W::TRACED {
        return Ok((run_s, fp));
    }

    let sched = sim.scheduler();
    layers.count("des.sched.events", events);
    layers.put("des.sched.events_per_s", events as f64 / run_s);
    layers.count("des.sched.scheduled", sched.scheduled_total());
    layers.count("des.sched.cancelled", sched.cancelled_total());
    layers.put(
        "des.sched.cancel_ratio",
        ratio(
            sched.cancelled_total() as f64,
            sched.scheduled_total() as f64,
        ),
    );
    layers.count("des.checkpoint.count", ck.count);
    layers.put("des.checkpoint.clone_s", ck.clone_s);
    let net_probe = sim.world_mut().probe().expect("traced world").clone();
    if net_probe.events() != events {
        return Err(format!(
            "the probe saw {} events, the kernel ran {events}",
            net_probe.events()
        ));
    }
    layers.count("des.sched.fel_bytes_peak", net_probe.fel_bytes_peak as u64);
    let pop_s = net_probe.gap_s();
    layers.put("des.sched.pop_s", pop_s);
    let mut attributed = kind_layers(&net_probe, layers) + pop_s + ck.clone_s;
    if let (Some(p), Some((guard, cache))) = (&probe, hooks) {
        let learned = p.layers[LEARNED].times();
        let oracle_s = if guard.is_some() {
            p.layers[GUARD].times().total_s
        } else {
            learned.total_s
        };
        attributed += oracle_s;
        layers.put("net.guard.self_s", oracle_s - learned.total_s);
        if let Some(g) = guard {
            let snap = g.snapshot();
            layers.count("net.guard.trips", snap.trips());
            layers.count("net.guard.fallback_verdicts", snap.fallback_verdicts);
        }
        layers.count("core.learned.verdicts", learned.calls);
        layers.put("core.learned.self_s", learned.total_s);
        layers.put(
            "core.learned.ns_per_verdict",
            ratio(learned.total_s * 1e9, learned.calls as f64),
        );
        layers.count("core.learned.drop_verdicts", learned.drops);
        layers.put("core.learned.miss_ns", learned.miss_ns);
        layers.put("core.learned.hit_ns", learned.hit_ns);
        if let Some(c) = cache {
            let snap = c.snapshot();
            layers.count("core.cache.lookups", snap.lookups());
            layers.put("core.cache.hit_rate", snap.hit_rate());
            layers.count("core.cache.evictions", snap.evictions);
            layers.count("core.cache.invalidations", snap.invalidations);
        }
    }
    layers.put("bench.coverage", attributed / run_s);
    net_counters(&mut [sim.world_mut().net_mut()], layers);
    Ok((run_s, fp))
}

fn run_pdes<W: ParWorld>(
    compiled: &Compiled,
    ready: Ready,
    spans: &mut Spans,
    layers: &mut Layers,
) -> RunResult {
    layers.count("trace.flows_elided", 0);
    let mut runner: PdesRunner<W> = spans.time("world.build", || build_pdes(compiled));
    ready.mark(spans);

    spans.begin("run");
    let t0 = Instant::now();
    let report = runner
        .run_until(compiled.horizon)
        .map_err(|e| format!("PDES run failed: {e}"))?;
    let run_s = t0.elapsed().as_secs_f64();
    spans.end();

    let parts = runner.partitions();
    let nets: Vec<&Network> = parts.iter().map(|p| p.world().net()).collect();
    let fp = fingerprint_of(&nets, report.events_executed, true);
    check_outputs(
        &nets,
        compiled.flows.len(),
        compiled.horizon,
        report.events_executed,
    )?;
    let part_events: u64 = report.partitions.iter().map(|p| p.events).sum();
    if part_events != report.events_executed {
        return Err(format!(
            "partition rows sum to {part_events} events, the report says {}",
            report.events_executed
        ));
    }
    if !W::TRACED {
        return Ok((run_s, fp));
    }

    let mut probe = NetProbe::default();
    for p in parts {
        probe.absorb(p.world().probe().expect("traced partition"));
    }
    if probe.events() != report.events_executed {
        return Err(format!(
            "the probes saw {} events, the kernel ran {}",
            probe.events(),
            report.events_executed
        ));
    }
    let (scheduled, cancelled) = parts.iter().fold((0, 0), |(s, c), p| {
        (
            s + p.scheduler().scheduled_total(),
            c + p.scheduler().cancelled_total(),
        )
    });
    layers.count("des.sched.events", report.events_executed);
    layers.put(
        "des.sched.events_per_s",
        report.events_executed as f64 / run_s,
    );
    layers.count("des.sched.scheduled", scheduled);
    layers.count("des.sched.cancelled", cancelled);
    layers.put(
        "des.sched.cancel_ratio",
        ratio(cancelled as f64, scheduled as f64),
    );
    let handle_s = kind_layers(&probe, layers);
    let coverage = pdes_layers(&report, run_s, handle_s, layers);
    layers.put("bench.coverage", coverage);
    let mut nets: Vec<Network> = runner
        .into_partitions()
        .into_iter()
        .map(|p| p.into_world().into_net())
        .collect();
    net_counters(&mut nets.iter_mut().collect::<Vec<_>>(), layers);
    Ok((run_s, fp))
}

/// Accuracy of the hybrid against ground truth on `w`'s audit scenario at
/// [`AUDIT_SEED`]: absolute drop-rate error, FCT KS distance and
/// mean-normalized FCT W1, from `elephant_core::run_audit`.
pub fn audit(w: &Workload, dir: &Path) -> Result<[f64; 3], String> {
    let path = dir.join(w.audit);
    let scenario = load(&path.to_string_lossy()).map_err(|e| e.to_string())?;
    let overrides = CompileOverrides {
        seed: Some(AUDIT_SEED),
        ..Default::default()
    };
    let compiled = compile(&scenario, &overrides);
    let (model, _) = train_model(AUDIT_SEED, &mut Spans::default());
    let stack = oracle_stack(model, &compiled.hybrid, compiled.params, AUDIT_SEED, None);
    let run = run_audit(
        compiled.params,
        compiled.hybrid.full_cluster,
        stack.oracle,
        compiled.net_config(),
        &compiled.hybrid_flows(),
        compiled.horizon,
        compiled.audit_bounds.unwrap_or_default(),
        SimDuration::from_micros(200),
        AuditHooks {
            cache: stack.cache,
            guard: stack.guard,
        },
    );
    let d = &run.divergence;
    Ok([d.drop_rate_error(), d.fct_ks, d.w1_ratio()])
}
