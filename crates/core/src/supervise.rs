//! Supervised runs: checkpoint-backed retry with a deterministic
//! degradation ladder.
//!
//! An unsupervised [`execute`](crate::execute) throws the whole run away
//! on the first [`PdesError`]; at hour-long, 100k-host scale that is
//! untenable. A plan with a [`RecoveryPolicy`] instead takes a checkpoint
//! ([`elephant_des::PdesCheckpoint`] / [`elephant_des::SimCheckpoint`])
//! every [`RecoveryPolicy::checkpoint_every`] of simulated time — at an
//! epoch barrier under PDES, between `run_until` chunks sequentially —
//! and reacts to failures by climbing down a *ladder*:
//!
//! 1. **Retry**: restore the latest checkpoint and re-run the failed
//!    chunk, up to [`RecoveryPolicy::max_retries`] times per rung.
//! 2. **Adaptive → fixed epochs**: restore and switch the epoch planner
//!    to [`EpochMode::Fixed`] — the conservative planner with no frontier
//!    jumping — then retry the chunk with a fresh retry budget.
//! 3. **PDES → sequential**: abandon parallel execution and re-run the
//!    whole scenario on the sequential engine from time zero. Remote
//!    delivery uses plan-independent `(time, sender, seq)` keys, so a
//!    healthy sequential run is bit-identical to the PDES run it
//!    replaces — degrading preserves the fingerprint. Exchange-layer
//!    fault injection does not exist sequentially, so scripted stalls
//!    (and drop/dup fault plans) cannot follow the run down this rung.
//!
//! Every transition is observable: a `recovery/*` counter and a
//! [`elephant_obs::PID_RECOVERY`] timeline instant per checkpoint,
//! restore, and degradation. The [`RecoveryLog`] records the same
//! transitions as plain data, so tests can assert that identical failure
//! sequences produce identical ladders.
//!
//! Determinism: restoring a checkpoint rewinds *everything that shapes
//! the simulation* (FEL, per-flow TCP state, fault-plan RNG position,
//! epoch counters), so a run that failed and recovered produces the same
//! fingerprint as one that never failed. Global observability (metrics
//! registry, timeline) is deliberately outside checkpoint scope: counters
//! are monotonic telemetry and keep the failed attempts' contributions.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::error::ElephantError;
use crate::experiment::{
    execute, partition_nets, pdes_net_config, pdes_runner, Exec, Observe, RunMeta, RunOutcome,
    RunPlan,
};

use elephant_des::{EpochMode, PdesError, PdesReport, SimDuration, SimTime, Simulator, StopReason};
use elephant_net::Network;
use elephant_obs::{TraceRecord, PID_RECOVERY};

/// Default checkpoint interval: 10 simulated milliseconds.
pub const DEFAULT_CHECKPOINT_EVERY: SimDuration = SimDuration::from_millis(10);
/// Default retry budget per ladder rung.
pub const DEFAULT_MAX_RETRIES: u32 = 2;

/// Knobs for a supervised run.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryPolicy {
    /// Simulated time between checkpoints (also the granularity of lost
    /// work on a restore). Clamped to at least one nanosecond.
    pub checkpoint_every: SimDuration,
    /// Restores attempted per ladder rung before degrading to the next.
    pub max_retries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            max_retries: DEFAULT_MAX_RETRIES,
        }
    }
}

impl RecoveryPolicy {
    fn interval(&self) -> SimDuration {
        self.checkpoint_every.max(SimDuration::from_nanos(1))
    }
}

/// A rung of the degradation ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// PDES with the adaptive epoch planner.
    Adaptive,
    /// PDES with fixed-increment epochs.
    Fixed,
    /// The sequential engine (terminal rung).
    Sequential,
}

impl Rung {
    /// Short label for metrics and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            Rung::Adaptive => "pdes-adaptive",
            Rung::Fixed => "pdes-fixed",
            Rung::Sequential => "sequential",
        }
    }
}

/// One ladder transition, as plain comparable data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A checkpoint restore followed by a retry on the same rung.
    Restored {
        /// Simulated time of the failure that triggered the restore.
        at: SimTime,
        /// The rung the retry runs on.
        rung: Rung,
        /// Failure family ("stalled", "corrupt", "panicked").
        cause: &'static str,
    },
    /// A step down the ladder after the retry budget ran out.
    Degraded {
        /// Simulated time of the exhausting failure.
        at: SimTime,
        /// The abandoned rung.
        from: Rung,
        /// The rung the run continues on.
        to: Rung,
    },
}

/// What the supervisor did, as plain data: counters plus the ordered
/// transition list. Two supervised runs over identical failure sequences
/// produce equal logs — the determinism contract tests assert.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryLog {
    /// Checkpoints captured (including the time-zero baseline).
    pub checkpoints_taken: u64,
    /// Checkpoint restores performed (retries and degradations alike).
    pub restores: u64,
    /// Ladder steps taken.
    pub degradations: u64,
    /// Every restore and degradation, in order.
    pub transitions: Vec<RecoveryEvent>,
    /// The rung the run finished on.
    pub final_rung: Rung,
}

impl RecoveryLog {
    fn new(rung: Rung) -> Self {
        RecoveryLog {
            checkpoints_taken: 0,
            restores: 0,
            degradations: 0,
            transitions: Vec::new(),
            final_rung: rung,
        }
    }

    /// One-line summary for run reports (greppable by CI).
    pub fn summary(&self) -> String {
        format!(
            "recovery: checkpoints={} restores={} degradations={} final_rung={}",
            self.checkpoints_taken,
            self.restores,
            self.degradations,
            self.final_rung.label()
        )
    }

    fn note_checkpoint(&mut self, at: SimTime) {
        self.checkpoints_taken += 1;
        if elephant_obs::enabled() {
            elephant_obs::counter("recovery/checkpoints", "").inc();
        }
        instant("checkpoint", at);
    }

    fn note_restore(&mut self, at: SimTime, rung: Rung, cause: &'static str) {
        self.restores += 1;
        self.transitions
            .push(RecoveryEvent::Restored { at, rung, cause });
        if elephant_obs::enabled() {
            elephant_obs::counter("recovery/restores", cause).inc();
        }
        instant("restore", at);
    }

    fn note_degrade(&mut self, at: SimTime, from: Rung, to: Rung) {
        self.degradations += 1;
        self.transitions
            .push(RecoveryEvent::Degraded { at, from, to });
        self.final_rung = to;
        if elephant_obs::enabled() {
            elephant_obs::counter(
                "recovery/degradations",
                format!("{}->{}", from.label(), to.label()),
            )
            .inc();
        }
        instant("degrade", at);
    }

    /// Folds a nested run's log (the sequential rung re-runs under its own
    /// supervisor) into this one.
    fn absorb(&mut self, inner: RecoveryLog) {
        self.checkpoints_taken += inner.checkpoints_taken;
        self.restores += inner.restores;
        self.degradations += inner.degradations;
        self.transitions.extend(inner.transitions);
        self.final_rung = inner.final_rung;
    }
}

fn instant(name: &'static str, at: SimTime) {
    if elephant_obs::timeline_enabled() {
        elephant_obs::timeline().record(TraceRecord::instant(
            PID_RECOVERY,
            0,
            name,
            at.as_secs_f64() * 1e6,
        ));
    }
}

/// A supervised run's networks, events and recovery log — the shape
/// `Compiled::run_hybrid_supervised` projects a [`RunOutcome`] onto.
pub struct SupervisedRun {
    /// Final networks (one per partition, or a single sequential one).
    pub nets: Vec<Network>,
    /// Events executed on the successful path.
    pub events: u64,
    /// What the supervisor did.
    pub log: RecoveryLog,
}

impl From<RunOutcome> for SupervisedRun {
    fn from(run: RunOutcome) -> Self {
        SupervisedRun {
            events: run.meta.events,
            nets: run.nets,
            log: run
                .recovery
                .expect("a supervised plan records its recovery log"),
        }
    }
}

fn cause_label(e: &PdesError) -> &'static str {
    match e {
        PdesError::Stalled { .. } => "stalled",
        PdesError::Corrupt { .. } => "corrupt",
        PdesError::Panicked { .. } => "panicked",
    }
}

fn failure_time(e: &PdesError) -> SimTime {
    match e {
        PdesError::Stalled { at, .. }
        | PdesError::Corrupt { at, .. }
        | PdesError::Panicked { at, .. } => *at,
    }
}

/// The supervised PDES loop, for both worlds: checkpoint every interval
/// at an epoch barrier, restore and retry on engine faults, and walk the
/// ladder when a rung's retries run out. Constructed exactly like the
/// unsupervised PDES run, so a supervised run that never fails produces
/// the same fingerprint. The terminal rung re-executes the plan on the
/// sequential engine from time zero, with the oracle factory's
/// sequential-world oracle for hybrids.
pub(crate) fn supervise_pdes(
    plan: RunPlan<'_>,
    policy: &RecoveryPolicy,
    t0: Instant,
) -> Result<RunOutcome, ElephantError> {
    let RunPlan {
        params,
        net,
        flows,
        horizon,
        mut world,
        exec: Exec::Pdes(spec),
        ..
    } = plan
    else {
        unreachable!("supervise_pdes runs PDES plans")
    };
    let _span = elephant_obs::span("supervised");
    let mut runner = pdes_runner(params, net, &mut world, &flows, &spec);

    let mut rung = match spec.mode {
        EpochMode::Adaptive => Rung::Adaptive,
        EpochMode::Fixed => Rung::Fixed,
    };
    let mut log = RecoveryLog::new(rung);
    let mut checkpoint = runner.checkpoint();
    log.note_checkpoint(SimTime::ZERO);

    let interval = policy.interval();
    let mut cursor = SimTime::ZERO;
    let mut retries = 0u32;
    let mut total: Option<PdesReport> = None;

    loop {
        let next = (cursor + interval).min(horizon);
        match runner.run_until(next) {
            Ok(chunk) => {
                match &mut total {
                    None => total = Some(chunk),
                    Some(t) => t.merge(&chunk),
                }
                cursor = next;
                if cursor >= horizon {
                    break;
                }
                checkpoint = runner.checkpoint();
                log.note_checkpoint(cursor);
            }
            Err(e) => {
                let at = failure_time(&e);
                if retries < policy.max_retries {
                    retries += 1;
                    runner.restore(&checkpoint);
                    log.note_restore(at, rung, cause_label(&e));
                    // `total` covers exactly [0, last checkpoint]; the
                    // failed attempt's partial report is discarded along
                    // with its state.
                } else {
                    match rung {
                        Rung::Adaptive => {
                            runner.restore(&checkpoint);
                            runner.set_epoch_mode(EpochMode::Fixed);
                            log.note_degrade(at, Rung::Adaptive, Rung::Fixed);
                            rung = Rung::Fixed;
                            retries = 0;
                        }
                        Rung::Fixed => {
                            // Terminal rung: restart sequentially from time
                            // zero with the partitions' network config
                            // (fingerprint-preserving for fault-free
                            // dynamics).
                            log.note_degrade(at, Rung::Fixed, Rung::Sequential);
                            let inner = execute(RunPlan {
                                params,
                                net: pdes_net_config(net),
                                flows,
                                horizon,
                                world,
                                exec: Exec::Sequential,
                                recovery: Some(*policy),
                                observe: Observe::default(),
                            })?;
                            log.absorb(inner.recovery.expect("supervised sequential run"));
                            return Ok(RunOutcome {
                                nets: inner.nets,
                                meta: RunMeta {
                                    wall: t0.elapsed(),
                                    ..inner.meta
                                },
                                report: None,
                                recovery: Some(log),
                            });
                        }
                        Rung::Sequential => unreachable!("sequential runs have no PDES errors"),
                    }
                }
            }
        }
    }

    log.final_rung = rung;
    let report = total.expect("supervised run executes at least one chunk");
    Ok(RunOutcome {
        meta: RunMeta {
            wall: t0.elapsed(),
            events: report.events_executed,
            sim_seconds: horizon.as_secs_f64(),
        },
        nets: partition_nets(runner),
        report: Some(report),
        recovery: Some(log),
    })
}

/// The sequential supervision loop, for both worlds: checkpoint every
/// interval, catch model panics at chunk boundaries, restore and retry.
/// The sequential engine has no barrier to stall and no exchange to
/// corrupt; a failure that persists past
/// [`RecoveryPolicy::max_retries`] is
/// [`ElephantError::RecoveryExhausted`] — there is no rung below
/// sequential. Checkpoints deep-copy the installed oracle stack via
/// `ClusterOracle::clone_box`, so guard state and cached verdicts rewind
/// with the network.
pub(crate) fn supervise_sequential(
    mut sim: Simulator<Network>,
    horizon: SimTime,
    policy: &RecoveryPolicy,
    t0: Instant,
) -> Result<RunOutcome, ElephantError> {
    let _span = elephant_obs::span("supervised");
    let mut log = RecoveryLog::new(Rung::Sequential);
    let mut checkpoint = sim.checkpoint();
    log.note_checkpoint(SimTime::ZERO);

    let interval = policy.interval();
    let mut cursor = SimTime::ZERO;
    let mut retries = 0u32;

    loop {
        let next = (cursor + interval).min(horizon);
        match catch_unwind(AssertUnwindSafe(|| sim.run_until(next))) {
            Ok(stop) => {
                cursor = next;
                if cursor >= horizon || stop == StopReason::Exhausted {
                    break;
                }
                checkpoint = sim.checkpoint();
                log.note_checkpoint(cursor);
            }
            Err(payload) => {
                if retries >= policy.max_retries {
                    return Err(ElephantError::RecoveryExhausted {
                        detail: format!(
                            "sequential model panic persisted through {} retries \
                             of the chunk ending at {next}: {}",
                            policy.max_retries,
                            panic_message(payload.as_ref()),
                        ),
                    });
                }
                retries += 1;
                sim.restore(&checkpoint);
                log.note_restore(cursor, Rung::Sequential, "panicked");
            }
        }
    }

    Ok(RunOutcome {
        meta: RunMeta {
            wall: t0.elapsed(),
            events: sim.scheduler().executed_total(),
            sim_seconds: horizon.as_secs_f64(),
        },
        nets: vec![sim.into_world()],
        report: None,
        recovery: Some(log),
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{PdesSpec, WorldSpec};
    use elephant_des::FaultPlan;
    use elephant_net::{ClosParams, FlowSpec, NetConfig, RttScope};
    use elephant_trace::{generate, WorkloadConfig};

    fn drill_flows(params: &ClosParams, horizon: SimTime) -> Vec<FlowSpec> {
        generate(params, &WorkloadConfig::paper_default(horizon, 17))
    }

    fn pdes_plan<'a>(
        params: ClosParams,
        flows: &'a [FlowSpec],
        horizon: SimTime,
        faults: Option<FaultPlan>,
    ) -> RunPlan<'a> {
        let exec = Exec::Pdes(PdesSpec {
            faults,
            ..PdesSpec::new(4, 2, 0)
        });
        RunPlan::new(
            params,
            NetConfig::default(),
            flows,
            horizon,
            WorldSpec::Truth { capture: None },
        )
        .with_exec(exec)
    }

    #[test]
    fn supervised_without_failures_matches_unsupervised() {
        let params = ClosParams::paper_cluster(2);
        let horizon = SimTime::from_millis(8);
        let flows = drill_flows(&params, horizon);

        let clean = execute(pdes_plan(params, &flows, horizon, None)).expect("clean run");
        let policy = RecoveryPolicy {
            checkpoint_every: SimDuration::from_millis(2),
            max_retries: 2,
        };
        let sup = execute(pdes_plan(params, &flows, horizon, None).with_recovery(Some(policy)))
            .expect("supervised run");
        let log = sup.recovery.as_ref().expect("supervised");
        assert_eq!(log.restores, 0);
        assert_eq!(log.degradations, 0);
        assert!(log.checkpoints_taken >= 2, "{}", log.summary());
        assert_eq!(sup.events(), clean.events());
        assert_eq!(sup.flows_completed(), clean.flows_completed());
    }

    #[test]
    fn scripted_stall_restores_and_degrades_deterministically() {
        let params = ClosParams::paper_cluster(2);
        let horizon = SimTime::from_millis(8);
        let flows = drill_flows(&params, horizon);
        // A stall that re-arms every restore (epoch progress is part of
        // the checkpoint, so the stall re-fires deterministically): the
        // ladder must walk adaptive → fixed → sequential and complete.
        let faults = FaultPlan {
            stall_partition: Some((1, 8)),
            ..Default::default()
        };
        let policy = RecoveryPolicy {
            checkpoint_every: SimDuration::from_millis(2),
            max_retries: 1,
        };
        let run_once = || {
            let plan = pdes_plan(params, &flows, horizon, Some(faults.clone()));
            execute(plan.with_recovery(Some(policy))).expect("ladder bottoms out sequentially")
        };
        let a = run_once();
        let log = a.recovery.as_ref().expect("supervised");
        assert_eq!(log.final_rung, Rung::Sequential);
        assert!(log.restores >= 2, "{}", log.summary());
        assert_eq!(log.degradations, 2, "{}", log.summary());
        assert!(
            a.report.is_none(),
            "sequential completion has no PDES report"
        );

        // Identical failure sequence → identical ladder.
        let b = run_once();
        assert_eq!(a.recovery, b.recovery);

        // The degraded run's outcome matches a clean sequential run.
        let cfg = NetConfig {
            rtt_scope: RttScope::None,
            ..Default::default()
        };
        let truth = WorldSpec::Truth { capture: None };
        let clean =
            execute(RunPlan::new(params, cfg, &flows, horizon, truth).with_recovery(Some(policy)))
                .expect("clean sequential");
        assert_eq!(
            a.nets[0].stats.flows_completed,
            clean.nets[0].stats.flows_completed
        );
        assert_eq!(
            a.nets[0].stats.delivered_bytes,
            clean.nets[0].stats.delivered_bytes
        );
    }
}
