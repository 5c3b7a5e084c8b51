//! One run path: a [`RunPlan`] names the run, [`execute`] runs it.
//!
//! A run is chosen from {truth, hybrid} × {sequential, PDES} ×
//! {plain, supervised}, plus optional observers. The plan spells that
//! choice out as data — [`WorldSpec`], [`Exec`], an optional
//! [`RecoveryPolicy`] and [`Observe`] — next to the topology, the
//! [`NetConfig`], the flows and the horizon, so "the same scenario" is
//! the same run whichever way it is started.
//!
//! The paper's §3 workflow keeps its two plain-sequential shorthands:
//!
//! 1. [`run_ground_truth`] — full-fidelity simulation with boundary
//!    capture around the cluster to be learned;
//! 2. [`train_cluster_model`](crate::train_cluster_model) — fit the macro
//!    + micro models from the capture (in `train`);
//! 3. [`run_hybrid`] — assemble the large simulation in which every
//!    cluster but one is replaced by the learned oracle (Figure 3) and
//!    only traffic touching the full cluster is scheduled (§6.2's
//!    elision).
//!
//! Every run reports wall-clock time, events executed, and simulated
//! seconds, the currencies of Figures 1 and 5.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::ElephantError;
use crate::supervise::{supervise_pdes, supervise_sequential, RecoveryLog, RecoveryPolicy};

use elephant_des::{
    EpochMode, FaultPlan, PartitionSim, PdesConfig, PdesError, PdesReport, PdesRunner, SimDuration,
    SimTime, Simulator,
};
use elephant_net::{
    run_sampled, schedule_flows, ClosParams, ClusterOracle, FlowSpec, NetConfig, NetEvent,
    NetPartition, NetSampler, Network, RttScope, Topology, TraceLog,
};

/// Performance facts about one run.
#[derive(Clone, Copy, Debug)]
pub struct RunMeta {
    /// Wall-clock time spent simulating.
    pub wall: Duration,
    /// Events the kernel executed.
    pub events: u64,
    /// Simulated horizon reached, in seconds.
    pub sim_seconds: f64,
}

impl RunMeta {
    /// The paper's Figure-1 y-axis: simulated seconds per wall second.
    pub fn sim_seconds_per_second(&self) -> f64 {
        self.sim_seconds / self.wall.as_secs_f64().max(1e-12)
    }

    /// One zero-wait run-report partition row covering the whole run.
    pub fn partition_row(&self) -> elephant_obs::PartitionRow {
        elephant_obs::PartitionRow {
            partition: 0,
            events: self.events,
            work_seconds: self.wall.as_secs_f64(),
            ..Default::default()
        }
        .finish()
    }
}

/// Builds the hybrid's oracle for one world: `None` is the sequential
/// world, `Some(p)` is PDES partition `p` (each partition needs its own
/// instance). Callers choose the seed derivation per key.
pub type OracleFactory<'a> = Box<dyn FnMut(Option<usize>) -> Box<dyn ClusterOracle + Send> + 'a>;

/// A factory for sequential plans that hands out `oracle` once.
pub fn single_oracle<'a>(oracle: Box<dyn ClusterOracle + Send>) -> OracleFactory<'a> {
    let mut slot = Some(oracle);
    Box::new(move |_| slot.take().expect("a sequential world asks for one oracle"))
}

/// What is simulated.
pub enum WorldSpec<'a> {
    /// Every cluster at packet fidelity; `capture` records the boundary
    /// traversals of that cluster (sequential runs only).
    Truth {
        /// Cluster whose boundary traffic is captured for training.
        capture: Option<u16>,
    },
    /// `full_cluster` plus the core layer at packet fidelity, every other
    /// cluster's fabric served by an oracle from `oracle`.
    Hybrid {
        /// The cluster kept at packet fidelity.
        full_cluster: u16,
        /// Oracle factory, keyed by partition.
        oracle: OracleFactory<'a>,
    },
}

impl WorldSpec<'_> {
    fn label(&self) -> &'static str {
        match self {
            WorldSpec::Truth { .. } => "ground_truth",
            WorldSpec::Hybrid { .. } => "hybrid",
        }
    }
}

/// Conservative-PDES settings. Full-fidelity runs split the racks into
/// `partitions` logical processes; hybrid runs always use one partition
/// per cluster. Partitions are dealt round-robin over `machines` emulated
/// machines, and cross-machine messages carry `envelope_bytes` of
/// MPI-style envelope.
#[derive(Clone, Debug)]
pub struct PdesSpec {
    /// Rack partitions (full-fidelity runs only).
    pub partitions: usize,
    /// Emulated machines.
    pub machines: usize,
    /// Marshalling envelope bytes per cross-machine message.
    pub envelope_bytes: usize,
    /// Epoch planner.
    pub mode: EpochMode,
    /// Exchange-layer fault plan for resilience drills.
    pub faults: Option<FaultPlan>,
}

/// How a plan is executed.
#[derive(Clone, Debug)]
pub enum Exec {
    /// The sequential engine.
    Sequential,
    /// Conservative PDES.
    Pdes(PdesSpec),
}

impl PdesSpec {
    /// Adaptive-epoch PDES without faults.
    pub fn new(partitions: usize, machines: usize, envelope_bytes: usize) -> Self {
        PdesSpec {
            partitions,
            machines,
            envelope_bytes,
            mode: EpochMode::Adaptive,
            faults: None,
        }
    }
}

/// Observers. Both preserve bit-identity: the run executes the exact
/// same events with or without them.
#[derive(Default)]
pub struct Observe<'a> {
    /// Event trace installed on the network (sequential runs only).
    pub trace: Option<TraceLog>,
    /// Drives the run in sampling-period chunks and records time series
    /// between them (unsupervised runs only: a sampler observes a single
    /// timeline and cannot follow a checkpoint restore).
    pub sampler: Option<&'a mut NetSampler>,
}

/// One run, fully specified.
pub struct RunPlan<'a> {
    /// Topology.
    pub params: ClosParams,
    /// Network config. The RTT scope is honoured by sequential truth
    /// runs; hybrid runs scope RTTs to the full cluster and PDES runs
    /// record none.
    pub net: NetConfig,
    /// Flows to schedule (already elided for hybrid worlds).
    pub flows: Cow<'a, [FlowSpec]>,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// What is simulated.
    pub world: WorldSpec<'a>,
    /// How it is executed.
    pub exec: Exec,
    /// Checkpoint/retry supervision.
    pub recovery: Option<RecoveryPolicy>,
    /// Observers.
    pub observe: Observe<'a>,
}

impl<'a> RunPlan<'a> {
    /// A plain sequential, unobserved plan.
    pub fn new(
        params: ClosParams,
        net: NetConfig,
        flows: impl Into<Cow<'a, [FlowSpec]>>,
        horizon: SimTime,
        world: WorldSpec<'a>,
    ) -> Self {
        RunPlan {
            params,
            net,
            flows: flows.into(),
            horizon,
            world,
            exec: Exec::Sequential,
            recovery: None,
            observe: Observe::default(),
        }
    }

    /// Replaces the execution mode.
    pub fn with_exec(mut self, exec: Exec) -> Self {
        self.exec = exec;
        self
    }

    /// Replaces the supervision policy.
    pub fn with_recovery(mut self, recovery: Option<RecoveryPolicy>) -> Self {
        self.recovery = recovery;
        self
    }
}

/// A finished run.
pub struct RunOutcome {
    /// Final networks: one per PDES partition, else a single one.
    pub nets: Vec<Network>,
    /// Wall time, events and simulated seconds. Under supervision the
    /// wall time includes construction, failed attempts and restores, and
    /// events count the successful path only.
    pub meta: RunMeta,
    /// Merged kernel report of a run that finished under PDES.
    pub report: Option<PdesReport>,
    /// What the supervisor did, for supervised runs.
    pub recovery: Option<RecoveryLog>,
}

impl RunOutcome {
    /// Events executed.
    pub fn events(&self) -> u64 {
        self.meta.events
    }

    /// Flows completed across every network.
    pub fn flows_completed(&self) -> u64 {
        self.nets.iter().map(|n| n.stats.flows_completed).sum()
    }

    /// Oracle deliveries across every network (0 for full fidelity).
    pub fn oracle_deliveries(&self) -> u64 {
        self.nets.iter().map(|n| n.stats.oracle_deliveries).sum()
    }

    /// The single network of a sequential run, with its facts.
    pub fn into_sequential(mut self) -> (Network, RunMeta) {
        assert_eq!(
            self.nets.len(),
            1,
            "a partitioned run has no single network"
        );
        (self.nets.pop().expect("one network"), self.meta)
    }

    /// Run-report partition rows: the kernel's per-partition breakdown
    /// under PDES, else one zero-wait row covering the whole run.
    pub fn partition_rows(&self) -> Vec<elephant_obs::PartitionRow> {
        let Some(report) = &self.report else {
            return vec![self.meta.partition_row()];
        };
        report
            .partitions
            .iter()
            .map(|p| {
                elephant_obs::PartitionRow {
                    partition: p.partition,
                    events: p.events,
                    work_seconds: p.work_seconds,
                    barrier_wait_seconds: p.barrier_wait_seconds,
                    barrier_wait_share: 0.0,
                    marshal_seconds: p.marshal_seconds,
                    remote_events_sent: p.remote_events_sent,
                    remote_bytes_sent: p.remote_bytes_sent,
                }
                .finish()
            })
            .collect()
    }
}

/// Runs `plan`. Plain sequential runs cannot fail; unsupervised PDES runs
/// fail with [`ElephantError::Pdes`]; supervised runs fail only when the
/// recovery ladder is exhausted.
pub fn execute(plan: RunPlan<'_>) -> Result<RunOutcome, ElephantError> {
    let _span = elephant_obs::span(plan.world.label());
    let t0 = Instant::now();
    let pdes = matches!(plan.exec, Exec::Pdes(_));
    match (pdes, plan.recovery) {
        (false, None) => Ok(run_sequential(plan)),
        (false, Some(policy)) => {
            let horizon = plan.horizon;
            let sim = sequential_sim(plan);
            supervise_sequential(sim, horizon, &policy, t0)
        }
        (true, None) => run_pdes(plan),
        (true, Some(policy)) => supervise_pdes(plan, &policy, t0),
    }
}

/// Runs a fully simulated network over `flows` until `horizon`.
///
/// Set `capture_cluster` to harvest training records; set
/// `cfg.rtt_scope` to restrict accuracy measurements (Figure 4 restricts
/// both runs to the observed cluster).
pub fn run_ground_truth(
    params: ClosParams,
    cfg: NetConfig,
    capture_cluster: Option<u16>,
    flows: &[FlowSpec],
    horizon: SimTime,
) -> (Network, RunMeta) {
    let world = WorldSpec::Truth {
        capture: capture_cluster,
    };
    run_plain(RunPlan::new(params, cfg, flows, horizon, world))
}

/// Runs the hybrid simulation: `full_cluster` plus the core layer at
/// packet fidelity, every other cluster's fabric served by `oracle`.
///
/// `flows` should already be elided to traffic touching `full_cluster`
/// (see `elephant_trace::filter_touching_cluster`); the engine tolerates
/// other traffic but the paper's speedups assume the elision.
pub fn run_hybrid(
    params: ClosParams,
    full_cluster: u16,
    oracle: Box<dyn ClusterOracle + Send>,
    cfg: NetConfig,
    flows: &[FlowSpec],
    horizon: SimTime,
) -> (Network, RunMeta) {
    let world = WorldSpec::Hybrid {
        full_cluster,
        oracle: single_oracle(oracle),
    };
    run_plain(RunPlan::new(params, cfg, flows, horizon, world))
}

/// Executes a plain sequential plan, which cannot fail.
pub(crate) fn run_plain(plan: RunPlan<'_>) -> (Network, RunMeta) {
    debug_assert!(matches!(plan.exec, Exec::Sequential) && plan.recovery.is_none());
    execute(plan)
        .expect("a plain sequential run cannot fail")
        .into_sequential()
}

/// Extracts the boundary capture from a finished network, or a typed
/// [`ElephantError::CaptureMissing`] if the run was not configured to
/// record one — the fallible replacement for `into_capture().expect(…)`.
pub fn capture_records(net: Network) -> Result<Vec<elephant_net::BoundaryRecord>, ElephantError> {
    net.into_capture()
        .map(|c| c.into_records())
        .ok_or(ElephantError::CaptureMissing)
}

fn stubs(params: ClosParams, full_cluster: u16) -> Vec<u16> {
    assert!(
        params.clusters >= 2,
        "hybrid simulation needs clusters to approximate"
    );
    (0..params.clusters)
        .filter(|&c| c != full_cluster)
        .collect()
}

/// Builds the sequential simulator for `plan`, flows scheduled and the
/// trace installed.
pub(crate) fn sequential_sim(plan: RunPlan<'_>) -> Simulator<Network> {
    let RunPlan {
        params,
        mut net,
        flows,
        mut world,
        observe,
        ..
    } = plan;
    let mut network = match &mut world {
        WorldSpec::Truth { capture } => {
            net.capture_cluster = *capture;
            Network::new(Arc::new(Topology::clos(params)), net)
        }
        WorldSpec::Hybrid {
            full_cluster,
            oracle,
        } => {
            let topo = Arc::new(Topology::clos_with_stubs(
                params,
                &stubs(params, *full_cluster),
            ));
            net.capture_cluster = None;
            // Accuracy is only drawn from the full-fidelity region (§3: "a
            // portion of the network can be left un-approximated so that
            // we can continue to draw full-fidelity statistics").
            net.rtt_scope = RttScope::Cluster(*full_cluster);
            let mut network = Network::new(topo, net);
            network.set_oracle(oracle(None));
            network
        }
    };
    if let Some(log) = observe.trace {
        network.install_trace(log);
    }
    let mut sim = Simulator::new(network);
    schedule_flows(&mut sim, &flows);
    sim
}

fn run_sequential(mut plan: RunPlan<'_>) -> RunOutcome {
    let horizon = plan.horizon;
    let sampler = plan.observe.sampler.take();
    let mut sim = sequential_sim(plan);
    let _span = elephant_obs::span("run");
    let start = Instant::now();
    match sampler {
        Some(s) => {
            run_sampled(&mut sim, horizon, s);
        }
        None => {
            sim.run_until(horizon);
        }
    }
    let meta = RunMeta {
        wall: start.elapsed(),
        events: sim.scheduler().executed_total(),
        sim_seconds: horizon.as_secs_f64(),
    };
    RunOutcome {
        nets: vec![sim.into_world()],
        meta,
        report: None,
        recovery: None,
    }
}

/// The network config every PDES partition runs with: the plan's, minus
/// the capture and the RTT samples.
pub(crate) fn pdes_net_config(net: NetConfig) -> NetConfig {
    NetConfig {
        rtt_scope: RttScope::None,
        capture_cluster: None,
        ..net
    }
}

/// Builds the PDES runner for a plan's world: rack partitions for full
/// fidelity, one partition per cluster for the hybrid (the full cluster
/// plus the core layer is one logical process, every stub cluster with
/// its own oracle another — the paper's §6.2 observation that
/// approximation removes the fabric interdependence that made PDES
/// unprofitable). Each partition's scheduler is seeded with the flows
/// its hosts send.
pub(crate) fn pdes_runner(
    params: ClosParams,
    net: NetConfig,
    world: &mut WorldSpec<'_>,
    flows: &[FlowSpec],
    spec: &PdesSpec,
) -> PdesRunner<NetPartition> {
    let cfg = pdes_net_config(net);
    let (topo, map, partitions, lookahead) = match world {
        WorldSpec::Truth { .. } => {
            let topo = Topology::clos(params);
            let map = topo.partition_by_rack(spec.partitions);
            let lookahead = topo
                .min_cut_latency(&map)
                .unwrap_or(SimDuration::from_micros(1));
            (topo, map, spec.partitions, lookahead)
        }
        WorldSpec::Hybrid { full_cluster, .. } => {
            let topo = Topology::clos_with_stubs(params, &stubs(params, *full_cluster));
            let (map, partitions) = topo.partition_by_cluster();
            let lookahead = topo
                .min_cut_latency(&map)
                .expect("multi-cluster hybrid has cut links");
            (topo, map, partitions, lookahead)
        }
    };
    let (topo, map) = (Arc::new(topo), Arc::new(map));
    let mut parts: Vec<PartitionSim<NetPartition>> = (0..partitions)
        .map(|p| {
            let mut net = Network::new(Arc::clone(&topo), cfg);
            net.set_partition(p, Arc::clone(&map));
            if let WorldSpec::Hybrid { oracle, .. } = world {
                net.set_oracle(oracle(Some(p)));
            }
            PartitionSim::new(NetPartition { net })
        })
        .collect();
    for f in flows {
        let owner = map[topo.host_node(f.src).idx()] as usize;
        parts[owner]
            .scheduler_mut()
            .schedule_at(f.start, NetEvent::FlowStart(*f));
    }
    let mut pdes_cfg =
        PdesConfig::round_robin(partitions, spec.machines, lookahead, spec.envelope_bytes)
            .with_epoch_mode(spec.mode);
    if let Some(plan) = spec.faults.clone() {
        pdes_cfg = pdes_cfg.with_faults(plan);
    }
    PdesRunner::new(parts, pdes_cfg)
}

/// The partitions' networks, in partition order.
pub(crate) fn partition_nets(runner: PdesRunner<NetPartition>) -> Vec<Network> {
    runner
        .into_partitions()
        .into_iter()
        .map(|p| p.into_world().net)
        .collect()
}

fn run_pdes(plan: RunPlan<'_>) -> Result<RunOutcome, ElephantError> {
    let RunPlan {
        params,
        net,
        flows,
        horizon,
        mut world,
        exec: Exec::Pdes(spec),
        observe,
        ..
    } = plan
    else {
        unreachable!("run_pdes runs PDES plans")
    };
    let mut runner = pdes_runner(params, net, &mut world, &flows, &spec);
    let (report, wall) =
        drive_pdes(&mut runner, horizon, observe.sampler).map_err(ElephantError::Pdes)?;
    Ok(RunOutcome {
        meta: RunMeta {
            wall,
            events: report.events_executed,
            sim_seconds: horizon.as_secs_f64(),
        },
        nets: partition_nets(runner),
        report: Some(report),
        recovery: None,
    })
}

/// Drives a [`PdesRunner`] to `horizon`, optionally pausing at every
/// sampler tick to record time series across all partitions. Chunked
/// driving is exact: each `run_until` chunk resumes the per-partition
/// schedulers where the previous one parked them, and the per-chunk
/// reports are disjoint, so the merged report equals a single-call run's.
fn drive_pdes(
    runner: &mut PdesRunner<NetPartition>,
    horizon: SimTime,
    sampler: Option<&mut NetSampler>,
) -> Result<(PdesReport, Duration), PdesError> {
    let t0 = Instant::now();
    let report = match sampler {
        None => runner.run_until(horizon)?,
        Some(s) => {
            let mut total: Option<PdesReport> = None;
            loop {
                let next = s.next_due().min(horizon);
                let chunk = runner.run_until(next)?;
                let exhausted = chunk.partitions.iter().all(|p| p.next_time.is_none());
                match &mut total {
                    None => total = Some(chunk),
                    Some(t) => t.merge(&chunk),
                }
                let at = if exhausted && next < horizon {
                    horizon
                } else {
                    next
                };
                let nets: Vec<&Network> =
                    runner.partitions().iter().map(|p| &p.world().net).collect();
                s.sample(at, &nets);
                if at >= horizon {
                    break;
                }
            }
            total.expect("loop samples at least once")
        }
    };
    Ok((report, t0.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learned::{DropPolicy, LearnedOracle};
    use crate::train::{train_cluster_model, TrainingOptions};
    use elephant_net::IdealOracle;
    use elephant_nn::TrainConfig;
    use elephant_trace::{filter_touching_cluster, generate, WorkloadConfig};

    /// The complete §3 workflow, end to end, at miniature scale: simulate
    /// two clusters fully, train on the capture, deploy the learned model
    /// in a four-cluster hybrid, and check the books balance.
    #[test]
    fn full_workflow_smoke() {
        let params = ClosParams::paper_cluster(2);
        let horizon = SimTime::from_millis(30);
        let wl = WorkloadConfig::paper_default(horizon, 7);
        let flows = generate(&params, &wl);
        assert!(!flows.is_empty());

        // Step 1: ground truth with capture around cluster 1.
        let (net, meta) = run_ground_truth(params, NetConfig::default(), Some(1), &flows, horizon);
        assert!(meta.events > 1000, "events {}", meta.events);
        let records = capture_records(net).expect("capture enabled");
        assert!(records.len() > 100, "records {}", records.len());

        // Step 2: train (tiny settings; this is a smoke test).
        let opts = TrainingOptions {
            hidden: 8,
            layers: 1,
            epochs: 2,
            window: 16,
            train: TrainConfig {
                lr: 0.1,
                momentum: 0.9,
                batch: 8,
                clip: 5.0,
            },
            ..Default::default()
        };
        let (model, report) = train_cluster_model(&records, &params, &opts);
        assert!(report.up.train_samples + report.down.train_samples > 0);

        // Step 3: hybrid at 4 clusters with elided traffic.
        let big = ClosParams::paper_cluster(4);
        let big_flows = filter_touching_cluster(&generate(&big, &wl), 0);
        assert!(!big_flows.is_empty());
        let oracle = LearnedOracle::new(model, big, DropPolicy::Sample, 3);
        let (hnet, hmeta) = run_hybrid(
            big,
            0,
            Box::new(oracle),
            NetConfig::default(),
            &big_flows,
            horizon,
        );
        assert!(hnet.stats.oracle_deliveries > 0, "oracle was exercised");
        assert!(hnet.stats.flows_completed > 0, "hybrid completes flows");
        assert!(hmeta.events > 0);
    }

    #[test]
    fn hybrid_executes_fewer_events_than_full() {
        let params = ClosParams::paper_cluster(4);
        let horizon = SimTime::from_millis(20);
        let wl = WorkloadConfig::paper_default(horizon, 11);
        let flows = generate(&params, &wl);

        let (_, full_meta) = run_ground_truth(params, NetConfig::default(), None, &flows, horizon);
        let elided = filter_touching_cluster(&flows, 0);
        let (_, hybrid_meta) = run_hybrid(
            params,
            0,
            Box::new(IdealOracle),
            NetConfig::default(),
            &elided,
            horizon,
        );
        assert!(
            hybrid_meta.events * 2 < full_meta.events,
            "hybrid {} vs full {} events",
            hybrid_meta.events,
            full_meta.events
        );
    }

    #[test]
    fn meta_math() {
        let m = RunMeta {
            wall: Duration::from_millis(500),
            events: 10,
            sim_seconds: 2.0,
        };
        assert!((m.sim_seconds_per_second() - 4.0).abs() < 1e-9);
    }
}
