//! The sequential simulation engine.
//!
//! A simulation is a [`World`] (all model state plus an event-handling
//! function) driven by a [`Simulator`], which owns the world and its
//! [`Scheduler`] and runs the classic DES loop: pop the earliest event,
//! advance the clock, dispatch to the world, repeat.

use elephant_obs::{Counter, Gauge};

use crate::sched::Scheduler;
use crate::time::SimTime;

/// A simulation model: the state of every simulated component plus the
/// event dispatch function.
///
/// Implementations define a closed event enum as `Self::Event`; the engine
/// never inspects events, it only orders them.
pub trait World {
    /// The event alphabet of this model.
    type Event;

    /// Handles one event at the scheduler's current time. The handler may
    /// schedule any number of future events.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Why a call to [`Simulator::run`] (or a relative) returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// The future event list drained completely.
    Exhausted,
    /// The configured time horizon was reached.
    HorizonReached,
    /// The configured event budget was spent.
    BudgetSpent,
}

/// Cached handles into the global metrics registry, plus local batch
/// accumulators. The simulator is single-threaded, so per-event bookkeeping
/// stays in plain integers; the shared atomics are only touched once per
/// `METRICS_FLUSH_EVERY` events and at run-loop exits, keeping the hot-path
/// cost to a relaxed flag load and two register ops.
#[derive(Debug)]
struct KernelMetrics {
    events: Counter,
    fel_depth: Gauge,
    fel_bytes: Gauge,
    batched_events: u64,
    batched_depth: i64,
}

const METRICS_FLUSH_EVERY: u64 = 4096;

impl KernelMetrics {
    fn new() -> Self {
        KernelMetrics {
            events: elephant_obs::counter("des/kernel/events_executed", ""),
            fel_depth: elephant_obs::gauge("des/kernel/fel_depth_peak", ""),
            fel_bytes: elephant_obs::gauge("des/kernel/fel_bytes_peak", ""),
            batched_events: 0,
            batched_depth: 0,
        }
    }

    /// Notes one executed event and the queue depth at the moment it
    /// popped. Returns `true` when the batch flushed to the registry —
    /// the caller's cue to sample expensive gauges (FEL bytes) at the
    /// same cadence.
    #[inline]
    fn note(&mut self, depth_at_pop: usize) -> bool {
        if !elephant_obs::enabled() {
            return false;
        }
        self.batched_events += 1;
        self.batched_depth = self.batched_depth.max(depth_at_pop as i64);
        if self.batched_events >= METRICS_FLUSH_EVERY {
            self.flush();
            return true;
        }
        false
    }

    /// Records a high-water mark of the FEL's resident bytes (the
    /// `bytes/host` memory-accounting substrate; see
    /// [`crate::Scheduler::fel_bytes`]).
    fn record_fel_bytes(&mut self, bytes: usize) {
        if elephant_obs::enabled() {
            self.fel_bytes.record_max(bytes as i64);
        }
    }

    /// Publishes the accumulated batch to the shared registry.
    fn flush(&mut self) {
        if self.batched_events > 0 {
            self.events.add(self.batched_events);
            self.fel_depth.record_max(self.batched_depth);
            self.batched_events = 0;
            self.batched_depth = 0;
        }
    }
}

/// Drives a [`World`] through simulated time.
#[derive(Debug)]
pub struct Simulator<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    metrics: KernelMetrics,
}

impl<W: World> Simulator<W> {
    /// Wraps a world with a fresh scheduler at time zero.
    pub fn new(world: W) -> Self {
        Simulator {
            world,
            sched: Scheduler::new(),
            metrics: KernelMetrics::new(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Immutable access to the model.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the model (e.g. to read out statistics or inject
    /// configuration between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Mutable access to the scheduler, for seeding initial events.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<W::Event> {
        &mut self.sched
    }

    /// Immutable access to the scheduler (event counters etc.).
    pub fn scheduler(&self) -> &Scheduler<W::Event> {
        &self.sched
    }

    /// Executes a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.step_until(SimTime::MAX)
    }

    /// Executes the earliest event if it is stamped at or before `limit`.
    /// Returns `false`, leaving the queue untouched, otherwise.
    fn step_until(&mut self, limit: SimTime) -> bool {
        let Some((_, ev)) = self.sched.pop_until(limit) else {
            return false;
        };
        if self.metrics.note(self.sched.pending() + 1) {
            self.metrics.record_fel_bytes(self.sched.fel_bytes());
        }
        self.world.handle(ev, &mut self.sched);
        true
    }

    /// Publishes the run loop's metrics on its way out.
    fn stop(&mut self, reason: StopReason) -> StopReason {
        self.metrics.flush();
        self.metrics.record_fel_bytes(self.sched.fel_bytes());
        reason
    }

    /// Runs until the event list drains.
    pub fn run(&mut self) -> StopReason {
        while self.step() {}
        self.stop(StopReason::Exhausted)
    }

    /// Runs until the event list drains or the clock passes `horizon`.
    ///
    /// Events stamped exactly at `horizon` still execute; the first event
    /// strictly after it stays queued and the clock is left parked at
    /// `horizon` so a subsequent call can resume seamlessly.
    pub fn run_until(&mut self, horizon: SimTime) -> StopReason {
        while self.step_until(horizon) {}
        if self.sched.is_empty() {
            return self.stop(StopReason::Exhausted);
        }
        self.sched.advance_clock(horizon.max(self.sched.now()));
        self.stop(StopReason::HorizonReached)
    }

    /// Runs until the event list drains or `budget` events have executed,
    /// whichever comes first. Useful for watchdogs around possibly-livelocked
    /// models.
    pub fn run_events(&mut self, budget: u64) -> StopReason {
        for _ in 0..budget {
            if !self.step() {
                return self.stop(StopReason::Exhausted);
            }
        }
        self.stop(StopReason::BudgetSpent)
    }

    /// Consumes the simulator and returns the world, e.g. to extract final
    /// statistics.
    pub fn into_world(self) -> W {
        self.world
    }
}

impl<W: World + Clone> Simulator<W>
where
    W::Event: Clone,
{
    /// Deep-copies the world and scheduler into a resumable snapshot.
    ///
    /// Call between `run_until` chunks (the engine is parked there);
    /// restoring the snapshot and running on is bit-identical to never
    /// having stopped. Global observability (metrics registry, timeline)
    /// is deliberately outside the snapshot: counters are monotonic
    /// telemetry and keep the aborted attempt's contribution.
    pub fn checkpoint(&self) -> crate::checkpoint::SimCheckpoint<W> {
        crate::checkpoint::SimCheckpoint {
            world: self.world.clone(),
            sched: self.sched.clone(),
        }
    }

    /// Rewinds the simulator to a previously captured snapshot.
    pub fn restore(&mut self, checkpoint: &crate::checkpoint::SimCheckpoint<W>) {
        self.world = checkpoint.world.clone();
        self.sched = checkpoint.sched.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A world that counts down: each Tick schedules the next until zero.
    struct Countdown {
        remaining: u32,
        fired_at: Vec<SimTime>,
    }

    struct Tick;

    impl World for Countdown {
        type Event = Tick;
        fn handle(&mut self, _ev: Tick, sched: &mut Scheduler<Tick>) {
            self.fired_at.push(sched.now());
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.schedule_in(SimDuration::from_nanos(10), Tick);
            }
        }
    }

    fn countdown(n: u32) -> Simulator<Countdown> {
        let mut sim = Simulator::new(Countdown {
            remaining: n,
            fired_at: vec![],
        });
        sim.scheduler_mut().schedule_at(SimTime::ZERO, Tick);
        sim
    }

    #[test]
    fn run_drains_queue() {
        let mut sim = countdown(4);
        assert_eq!(sim.run(), StopReason::Exhausted);
        assert_eq!(sim.world().fired_at.len(), 5);
        assert_eq!(sim.now(), SimTime::from_nanos(40));
    }

    #[test]
    fn run_until_stops_at_horizon_inclusive() {
        let mut sim = countdown(100);
        let r = sim.run_until(SimTime::from_nanos(30));
        assert_eq!(r, StopReason::HorizonReached);
        // Ticks at 0,10,20,30 have fired; the one at 40 is pending.
        assert_eq!(sim.world().fired_at.len(), 4);
        assert_eq!(sim.now(), SimTime::from_nanos(30));
        // Resuming picks up where we left off.
        let r = sim.run_until(SimTime::from_nanos(50));
        assert_eq!(r, StopReason::HorizonReached);
        assert_eq!(sim.world().fired_at.len(), 6);
    }

    #[test]
    fn run_until_reports_exhaustion() {
        let mut sim = countdown(2);
        assert_eq!(sim.run_until(SimTime::from_secs(1)), StopReason::Exhausted);
    }

    #[test]
    fn run_events_respects_budget() {
        let mut sim = countdown(100);
        assert_eq!(sim.run_events(10), StopReason::BudgetSpent);
        assert_eq!(sim.world().fired_at.len(), 10);
        assert_eq!(sim.scheduler().executed_total(), 10);
    }

    #[test]
    fn empty_horizon_run_parks_clock() {
        let mut sim = Simulator::new(Countdown {
            remaining: 0,
            fired_at: vec![],
        });
        assert_eq!(sim.run_until(SimTime::from_secs(1)), StopReason::Exhausted);
    }
}
