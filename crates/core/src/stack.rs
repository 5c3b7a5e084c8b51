//! The hybrid's oracle stack: the learned oracle, its optional verdict
//! cache, and an optional guard around both, assembled in one place.
//!
//! The cache lives *inside* the learned oracle, under the guard, so guard
//! validation sees every served verdict. The guard's drift band centres
//! on the model's training-time drop rate, and its fallback delivers at
//! the training-time median latency — both read from the artifact's
//! metadata, so legacy artifacts (zeroed metadata) disable the drift
//! check and fall back to a generic fabric traversal.

use elephant_des::SimDuration;
use elephant_net::{
    ClosParams, ClusterOracle, FixedLatencyOracle, GuardConfig, GuardStatsHandle, GuardedOracle,
};

use crate::cache::CacheStatsHandle;
use crate::learned::{ClusterModel, DropPolicy, LearnedOracle};

/// How the stack around a learned model is assembled.
#[derive(Clone, Debug, Default)]
pub struct StackSpec {
    /// Verdict-cache capacity; `None` runs uncached.
    pub cache_cap: Option<usize>,
    /// Guard settings; `None` runs unguarded. `expected_drop_rate` is
    /// replaced by the model's training drop rate.
    pub guard: Option<GuardConfig>,
}

/// An assembled stack plus the handles its observers read after the run.
pub struct OracleStack {
    /// The outermost oracle, ready to install.
    pub oracle: Box<dyn ClusterOracle + Send>,
    /// Guard trip counters, when guarded.
    pub guard: Option<GuardStatsHandle>,
    /// Verdict-cache counters, when cached.
    pub cache: Option<CacheStatsHandle>,
}

/// Assembles learned oracle → optional cache → optional guard.
/// `seed` seeds the learned oracle's drop sampling. `primary` replaces
/// the learned oracle (fault drills); the guard still wraps it.
pub fn oracle_stack(
    model: ClusterModel,
    params: ClosParams,
    seed: u64,
    spec: &StackSpec,
    primary: Option<Box<dyn ClusterOracle + Send>>,
) -> OracleStack {
    let meta = model.meta;
    let mut cache = None;
    let primary = primary.unwrap_or_else(|| {
        let learned = match spec.cache_cap {
            Some(cap) => LearnedOracle::with_cache(model, params, DropPolicy::Sample, seed, cap),
            None => LearnedOracle::new(model, params, DropPolicy::Sample, seed),
        };
        cache = learned.cache_stats_handle();
        Box::new(learned)
    });
    let Some(guard_cfg) = &spec.guard else {
        return OracleStack {
            oracle: primary,
            guard: None,
            cache,
        };
    };
    let guard_cfg = GuardConfig {
        expected_drop_rate: (meta.train_records > 0).then_some(meta.train_drop_rate),
        ..guard_cfg.clone()
    };
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
        oracle: Box::new(guarded),
        guard,
        cache,
    }
}
