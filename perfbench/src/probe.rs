//! The benchmark's wrappers: they time the calls the simulator makes into
//! each layer from the outside, without any tracing inside the program.
//!
//! * [`Traced`] wraps the network world (sequential [`Network`] or PDES
//!   [`NetPartition`]) and counts every event by kind. One event in
//!   [`SAMPLE_EVERY`] is timed; its self time excludes the oracle calls it
//!   made. On the sequential engine the gap between two handler calls is
//!   the kernel's own work (FEL peek and pop), so it is timed too.
//! * [`TimedOracle`] wraps a [`ClusterOracle`] (the guard, or the learned
//!   oracle under it) and times the calls made during a sampled event, so
//!   the guard's self time is its time minus the learned oracle's.
//!
//! Counts are exact; times are scaled up from the samples per kind. Each
//! timed interval also contains the cost of reading the clock, once for
//! its own pair of reads and twice for every timed wrapper nested inside
//! it; [`clock_cost_ns`] measures that cost once per process and it is
//! taken out of every interval.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use elephant_core::CacheStatsHandle;
use elephant_des::{PartitionWorld, RemoteSink, Scheduler, SimTime, World};
use elephant_net::{
    ClusterOracle, NetEvent, NetPartition, Network, NodeKind, OracleCtx, OracleVerdict, Packet,
    RawVerdict, Topology,
};

/// One event in this many is timed.
pub const SAMPLE_EVERY: u64 = 8;

/// The FEL's resident bytes are read once per this many events: the read
/// walks every calendar bucket. It happens at an event that is neither
/// timed nor just before a timed one, so it lands in no measured interval.
const FEL_BYTES_EVERY: u64 = 4096;
const FEL_BYTES_AT: u64 = SAMPLE_EVERY / 2;

/// Event kinds, in the order of [`KIND_NAMES`].
pub const KINDS: usize = 5;

/// Metric names of the event kinds: TCP endpoint work (`flow_start`,
/// `arrive_host`, `timer`) and forwarding/queueing (`arrive_switch`, which
/// includes arrivals at stub boundaries, and `port_free`).
pub const KIND_NAMES: [&str; KINDS] = [
    "flow_start",
    "arrive_host",
    "timer",
    "arrive_switch",
    "port_free",
];

/// The measured length of an empty interval: what one `Instant::now()`
/// adds to any interval it bounds (median of back-to-back reads).
pub fn clock_cost_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut v: Vec<u64> = (0..2001)
            .map(|_| {
                let a = Instant::now();
                Instant::now().duration_since(a).as_nanos() as u64
            })
            .collect();
        v.sort_unstable();
        v[v.len() / 2]
    })
}

fn kind_of(ev: &NetEvent, topo: &Topology) -> usize {
    match ev {
        NetEvent::FlowStart(_) => 0,
        NetEvent::Arrive { node, .. } => match topo.node(*node).kind {
            NodeKind::Host { .. } => 1,
            _ => 3,
        },
        NetEvent::Timer { .. } => 2,
        NetEvent::PortFree { .. } => 4,
    }
}

/// Time accumulated by one oracle layer during sampled events.
#[derive(Default)]
pub struct LayerClock {
    /// Calls made during sampled events.
    sampled_calls: AtomicU64,
    /// Their summed wall time, children included, clock reads excluded.
    sampled_ns: AtomicU64,
    /// Every call, sampled or not.
    calls: AtomicU64,
    /// Drop verdicts among all calls.
    drops: AtomicU64,
    /// Sampled calls the verdict cache answered, and their time.
    hit_calls: AtomicU64,
    hit_ns: AtomicU64,
}

/// Index of the guard's clock in [`OracleProbe::layers`].
pub const GUARD: usize = 0;
/// Index of the learned oracle's clock in [`OracleProbe::layers`].
pub const LEARNED: usize = 1;

/// The clocks of one run's oracle stack.
///
/// Shared between the oracle wrappers (the writers, inside the network)
/// and the world wrapper, which raises `sampling` while it times an event
/// and subtracts the outermost layer's time from the handler's. A run
/// drives it from one thread, so relaxed load/store pairs suffice; the
/// values publish nothing else.
pub struct OracleProbe {
    sampling: AtomicBool,
    outer: usize,
    /// Clock-read time the wrappers have spent inside sampled events.
    overhead_ns: AtomicU64,
    /// Guard and learned-oracle clocks.
    pub layers: [LayerClock; 2],
}

impl OracleProbe {
    /// Clocks for a stack whose outermost timed layer is `outer`.
    pub fn new(outer: usize) -> Self {
        OracleProbe {
            sampling: AtomicBool::new(false),
            outer,
            overhead_ns: AtomicU64::new(0),
            layers: Default::default(),
        }
    }

    /// Time in the outermost layer plus the wrappers' clock reads, which
    /// together are what oracle calls add to an enclosing interval.
    fn oracle_ns(&self) -> u64 {
        self.layers[self.outer].sampled_ns.load(Ordering::Relaxed)
            + self.overhead_ns.load(Ordering::Relaxed)
    }
}

fn bump(cell: &AtomicU64, by: u64) {
    cell.store(cell.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// A read-out of a [`LayerClock`].
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleTimes {
    /// Calls into the layer.
    pub calls: u64,
    /// Drop verdicts the layer returned.
    pub drops: u64,
    /// Estimated total wall time in the layer (children included).
    pub total_s: f64,
    /// Mean time of a sampled call the cache answered, in ns.
    pub hit_ns: f64,
    /// Mean time of a sampled call that ran inference, in ns.
    pub miss_ns: f64,
}

impl LayerClock {
    /// Scales the sampled calls up to all calls.
    pub fn times(&self) -> OracleTimes {
        let calls = self.calls.load(Ordering::Relaxed);
        let sampled = self.sampled_calls.load(Ordering::Relaxed);
        let ns = self.sampled_ns.load(Ordering::Relaxed);
        let hits = self.hit_calls.load(Ordering::Relaxed);
        let hit_ns = self.hit_ns.load(Ordering::Relaxed);
        let mean = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
        OracleTimes {
            calls,
            drops: self.drops.load(Ordering::Relaxed),
            total_s: mean(ns, sampled) * calls as f64 / 1e9,
            hit_ns: mean(hit_ns, hits),
            miss_ns: mean(ns - hit_ns, sampled - hits),
        }
    }
}

/// Times the calls into one oracle layer. With a cache handle, each
/// sampled call is classed as a hit or a miss by the change in the cache's
/// hit counter across the call.
pub struct TimedOracle {
    inner: Box<dyn ClusterOracle + Send>,
    probe: Arc<OracleProbe>,
    layer: usize,
    cache: Option<CacheStatsHandle>,
}

impl TimedOracle {
    /// Wraps `inner`, recording into `probe.layers[layer]`.
    pub fn new(
        inner: Box<dyn ClusterOracle + Send>,
        probe: Arc<OracleProbe>,
        layer: usize,
        cache: Option<CacheStatsHandle>,
    ) -> Self {
        TimedOracle {
            inner,
            probe,
            layer,
            cache,
        }
    }

    fn timed<V>(
        &mut self,
        call: impl FnOnce(&mut dyn ClusterOracle) -> V,
        dropped: fn(&V) -> bool,
    ) -> V {
        let clock = &self.probe.layers[self.layer];
        bump(&clock.calls, 1);
        let v = if self.probe.sampling.load(Ordering::Relaxed) {
            let hits = self.cache.as_ref().map(|c| c.snapshot().hits);
            let nested = self.probe.overhead_ns.load(Ordering::Relaxed);
            let t0 = Instant::now();
            let v = call(self.inner.as_mut());
            let raw = t0.elapsed().as_nanos() as u64;
            let cost = clock_cost_ns();
            let nested = self.probe.overhead_ns.load(Ordering::Relaxed) - nested;
            let ns = raw.saturating_sub(cost + nested);
            bump(&self.probe.overhead_ns, 2 * cost);
            bump(&clock.sampled_calls, 1);
            bump(&clock.sampled_ns, ns);
            if let (Some(c), Some(before)) = (&self.cache, hits) {
                if c.snapshot().hits > before {
                    bump(&clock.hit_calls, 1);
                    bump(&clock.hit_ns, ns);
                }
            }
            v
        } else {
            call(self.inner.as_mut())
        };
        if dropped(&v) {
            bump(&clock.drops, 1);
        }
        v
    }
}

impl ClusterOracle for TimedOracle {
    fn classify(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> OracleVerdict {
        self.timed(
            |o| o.classify(ctx, pkt, now),
            |v| matches!(v, OracleVerdict::Drop),
        )
    }

    fn classify_raw(&mut self, ctx: &OracleCtx<'_>, pkt: &Packet, now: SimTime) -> RawVerdict {
        self.timed(
            |o| o.classify_raw(ctx, pkt, now),
            |v| matches!(v, RawVerdict::Drop),
        )
    }

    fn macro_state_of(&self, cluster: u16) -> Option<u8> {
        self.inner.macro_state_of(cluster)
    }

    fn clone_box(&self) -> Option<Box<dyn ClusterOracle + Send>> {
        let inner = self.inner.clone_box()?;
        Some(Box::new(TimedOracle::new(
            inner,
            Arc::clone(&self.probe),
            self.layer,
            self.cache.clone(),
        )))
    }
}

/// Per-kind event counts and sampled self times of one world.
#[derive(Clone, Default)]
pub struct NetProbe {
    /// Events handled, by kind (exact).
    pub counts: [u64; KINDS],
    sampled: [u64; KINDS],
    sampled_ns: [u64; KINDS],
    gap_samples: u64,
    gap_ns: u64,
    /// Highest number of pending events seen when an event was handled.
    pub pending_peak: usize,
    /// Highest FEL resident bytes seen (read every `FEL_BYTES_EVERY` events).
    pub fel_bytes_peak: usize,
    tick: u64,
    last_end: Option<Instant>,
    /// Time the gap between handler calls (sequential engine only: under
    /// PDES a gap can span an epoch barrier).
    measure_gaps: bool,
    oracle: Option<Arc<OracleProbe>>,
}

impl NetProbe {
    fn new(measure_gaps: bool, oracle: Option<Arc<OracleProbe>>) -> Self {
        clock_cost_ns();
        NetProbe {
            measure_gaps,
            oracle,
            ..Default::default()
        }
    }

    #[inline]
    fn enter<E>(&mut self, kind: usize, sched: &Scheduler<E>) -> Option<(Instant, u64)> {
        self.counts[kind] += 1;
        self.pending_peak = self.pending_peak.max(sched.pending());
        self.tick += 1;
        if self.tick % FEL_BYTES_EVERY == FEL_BYTES_AT {
            self.fel_bytes_peak = self.fel_bytes_peak.max(sched.fel_bytes());
        }
        if !self.tick.is_multiple_of(SAMPLE_EVERY) {
            return None;
        }
        let t0 = Instant::now();
        if let Some(end) = self.last_end.take() {
            self.gap_samples += 1;
            self.gap_ns +=
                (t0.duration_since(end).as_nanos() as u64).saturating_sub(clock_cost_ns());
        }
        let oracle_ns = match &self.oracle {
            Some(o) => {
                o.sampling.store(true, Ordering::Relaxed);
                o.oracle_ns()
            }
            None => 0,
        };
        Some((t0, oracle_ns))
    }

    #[inline]
    fn exit(&mut self, kind: usize, start: Option<(Instant, u64)>) {
        if let Some((t0, oracle_before)) = start {
            let mut ns = (t0.elapsed().as_nanos() as u64).saturating_sub(clock_cost_ns());
            if let Some(o) = &self.oracle {
                o.sampling.store(false, Ordering::Relaxed);
                ns = ns.saturating_sub(o.oracle_ns() - oracle_before);
            }
            self.sampled[kind] += 1;
            self.sampled_ns[kind] += ns;
        } else if self.measure_gaps && self.tick % SAMPLE_EVERY == SAMPLE_EVERY - 1 {
            self.last_end = Some(Instant::now());
        }
    }

    /// Forgets the pending gap measurement, so time the driver spends
    /// between two `run_until` calls (a checkpoint) is not taken for
    /// kernel work.
    pub fn break_gap(&mut self) {
        self.last_end = None;
    }

    /// Events handled, all kinds.
    pub fn events(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimated self time of each kind, in seconds.
    pub fn self_s(&self) -> [f64; KINDS] {
        std::array::from_fn(|k| {
            if self.sampled[k] == 0 {
                0.0
            } else {
                self.sampled_ns[k] as f64 / self.sampled[k] as f64 * self.counts[k] as f64 / 1e9
            }
        })
    }

    /// Estimated kernel time between handler calls, in seconds (zero when
    /// gaps are not measured).
    pub fn gap_s(&self) -> f64 {
        if self.gap_samples == 0 {
            0.0
        } else {
            self.gap_ns as f64 / self.gap_samples as f64 * self.events() as f64 / 1e9
        }
    }

    /// Adds another probe's counts and times (PDES partitions).
    pub fn absorb(&mut self, other: &NetProbe) {
        for k in 0..KINDS {
            self.counts[k] += other.counts[k];
            self.sampled[k] += other.sampled[k];
            self.sampled_ns[k] += other.sampled_ns[k];
        }
        self.gap_samples += other.gap_samples;
        self.gap_ns += other.gap_ns;
        self.pending_peak = self.pending_peak.max(other.pending_peak);
        self.fel_bytes_peak = self.fel_bytes_peak.max(other.fel_bytes_peak);
    }
}

/// A world wrapped with a [`NetProbe`]. Cloning (for checkpoints) copies
/// the probe along with the world.
#[derive(Clone)]
pub struct Traced<W> {
    /// The wrapped world.
    pub inner: W,
    /// Its counts and times.
    pub probe: NetProbe,
}

impl Traced<Network> {
    /// Wraps a sequential network; `oracle` holds the clocks of its
    /// oracle stack, whose time is taken out of the handler's.
    pub fn sequential(inner: Network, oracle: Option<Arc<OracleProbe>>) -> Self {
        Traced {
            inner,
            probe: NetProbe::new(true, oracle),
        }
    }
}

impl Traced<NetPartition> {
    /// Wraps one PDES partition.
    pub fn partition(inner: NetPartition) -> Self {
        Traced {
            inner,
            probe: NetProbe::new(false, None),
        }
    }
}

impl World for Traced<Network> {
    type Event = NetEvent;

    fn handle(&mut self, ev: NetEvent, sched: &mut Scheduler<NetEvent>) {
        let kind = kind_of(&ev, self.inner.topo());
        let start = self.probe.enter(kind, sched);
        self.inner.handle(ev, sched);
        self.probe.exit(kind, start);
    }
}

impl PartitionWorld for Traced<NetPartition> {
    type Event = NetEvent;

    fn handle(
        &mut self,
        ev: NetEvent,
        sched: &mut Scheduler<NetEvent>,
        remote: &mut RemoteSink<NetEvent>,
    ) {
        let kind = kind_of(&ev, self.inner.net.topo());
        let start = self.probe.enter(kind, sched);
        self.inner.handle(ev, sched, remote);
        self.probe.exit(kind, start);
    }
}
