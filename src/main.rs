//! `elephant` — command-line driver for the simulator.
//!
//! Four subcommands cover the workflows a user reaches for before writing
//! code against the library API:
//!
//! ```text
//! elephant run     --clusters 4 --horizon-ms 50          # full-fidelity simulation
//! elephant train   --horizon-ms 100 --out model.json     # capture + train a cluster model
//! elephant hybrid  --model model.json --clusters 16      # deploy it at scale
//! elephant compare --model model.json --clusters 4       # truth vs hybrid accuracy table
//! ```
//!
//! Every simulating command builds one `RunPlan` and runs it through
//! `elephant_core::execute`; one summary printer and one ledger epilogue
//! serve them all. Every command is a pure function of its `--seed`.

use std::cell::RefCell;
use std::process::exit;

use elephant::core::{
    capture_records, compare_cdfs, compare_ledgers, execute, oracle_stack, run_audit,
    run_ground_truth, run_hybrid, train_cluster_model, AuditHooks, CacheStats, CacheStatsHandle,
    ClusterModel, ElephantError, Exec, OracleFactory, PdesSpec, RunLedger, RunMeta, RunOutcome,
    RunPlan, StackSpec, TrainingOptions, WorldSpec, LEDGER_SCHEMA_VERSION,
};
use elephant::des::{EpochMode, FaultCounts, FaultPlan, SimDuration, SimTime};
use elephant::net::{
    ClosParams, ClusterOracle, FaultyOracle, FlowSpec, GuardConfig, GuardStatsHandle, NetConfig,
    NetSampler, Network, OracleFaultMode, RttScope, TcpConfig, TraceLog, MAX_FLOW_TRACKS,
    SAMPLE_CSV_HEADER,
};
use elephant::nn::RnnKind;
use elephant::obs::{
    DivergenceReport, PartitionRow, RunReport, TimelineWriter, TraceRecord, PID_FLOWS,
};
use elephant::scenario::{run_fingerprint, Compiled, HybridSpec};
use elephant::trace::{filter_touching_cluster, generate, write_csv, WorkloadConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    if cmd == "run-scenario" {
        // Takes a positional scenario file, which Opts::parse rejects.
        return cmd_run_scenario(&args[1..]);
    }
    if cmd == "audit" {
        return cmd_audit(&args[1..]);
    }
    if cmd == "compare" && args.len() >= 2 && !args[1].starts_with('-') {
        // `compare A.json B.json` diffs two run-ledger artifacts; the
        // legacy accuracy table always leads with --model.
        return cmd_compare_ledgers(&args[1..]);
    }
    let opts = Opts::parse(&args[1..]);
    if opts.observing() {
        elephant::obs::set_enabled(true);
    }
    if opts.trace_out.is_some() {
        elephant::obs::set_timeline_enabled(true);
    }
    match cmd.as_str() {
        "run" => cmd_run(&opts),
        "train" => cmd_train(&opts),
        "hybrid" => cmd_hybrid(&opts),
        "compare" => cmd_compare(&opts),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command: {other}\n");
            usage()
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "elephant — fast network simulation through approximation\n\
         \n\
         USAGE: elephant <command> [options]\n\
         \n\
         COMMANDS\n\
         run      full-fidelity packet simulation; prints summary statistics\n\
         train    ground-truth capture + model training; writes a model JSON\n\
         hybrid   hybrid simulation with a trained model serving stub fabrics\n\
         compare  run truth and hybrid side by side; print the accuracy table\n\
         compare A.json B.json  diff two run-ledger artifacts; exit 8 on drift\n\
         run-scenario FILE  run a declarative TOML scenario (see scenarios/)\n\
         audit FILE         paired truth+hybrid run of a scenario; print the\n\
         \u{20}                  divergence table and gate on its [audit] bounds\n\
         \n\
         AUDIT (see DESIGN.md \"Accuracy observatory\")\n\
         --model PATH      trained model for the hybrid side (default: capture\n\
         \u{20}                and quick-train a small one first)\n\
         --seed N          override the scenario's run.seed\n\
         --horizon-ms N    override the scenario's run.horizon_ms\n\
         --sample-every T  macro-regime timeline granularity in us (200)\n\
         --ledger-out P    write the hybrid-side run ledger (with divergence\n\
         \u{20}                block) to P and the truth-side ledger to\n\
         \u{20}                P-minus-.json + .truth.json\n\
         --oracle-cache / --oracle-cache-cap N / --no-guard  as for hybrid\n\
         \n\
         COMPARE LEDGERS\n\
         --tolerance F     relative drift tolerance for events/scalars (0.05)\n\
         \n\
         RUN-SCENARIO (see DESIGN.md \"Scenario subsystem\")\n\
         --validate        load, validate, and compile only; print a summary\n\
         --list-scenarios [DIR]  list scenario files under DIR (scenarios)\n\
         --seed N          override the scenario's run.seed\n\
         --horizon-ms N    override the scenario's run.horizon_ms\n\
         --repeat N        override every traffic group's repeat count\n\
         --model PATH      model artifact for hybrid runs; overrides the\n\
         \u{20}                scenario's [model] path (a [model] section alone\n\
         \u{20}                also routes the run through the hybrid drivers)\n\
         --audit           paired truth+hybrid run gated on the scenario's\n\
         \u{20}                [audit] bounds; exit 8 on divergence\n\
         --pdes            run under PDES with the scenario's [topology.pdes]\n\
         --partitions N    override the partition count (implies --pdes)\n\
         --checkpoint-every-ms F  checkpoint interval; enables supervision and\n\
         \u{20}                overrides the scenario's [recovery] interval\n\
         --max-retries N   restores per degradation-ladder rung; enables\n\
         \u{20}                supervision and overrides [recovery] (2)\n\
         --profile         print the metrics report (recovery/*, fault/*)\n\
         --metrics-out P   write a schema-v1 run-ledger JSON to P\n\
         \n\
         OPTIONS (defaults in parentheses)\n\
         --clusters N      cluster count (4; train always uses 2)\n\
         --horizon-ms N    simulated horizon (50)\n\
         --load F          per-host offered load fraction (0.3)\n\
         --seed N          experiment seed (42)\n\
         --dctcp           DCTCP + ECN-marking switches instead of New Reno\n\
         --model PATH      model file (hybrid/compare input, train output via --out)\n\
         --out PATH        where train writes the model (model.json)\n\
         --full-cluster N  the cluster kept at packet fidelity (0)\n\
         --hidden N        LSTM width for train (32)\n\
         --layers N        LSTM depth for train (2)\n\
         --epochs N        training epochs (8)\n\
         --gru             GRU trunk instead of LSTM\n\
         --trace N         retain the first N raw events and print a sample\n\
         --profile         collect metrics + span timings; print the report\n\
         --metrics-out P   write a schema-v1 run-ledger JSON to P (implies\n\
         \u{20}                collection; `elephant compare` diffs two of them)\n\
         \n\
         TIMELINES (run/hybrid; see DESIGN.md \"Observability\")\n\
         --trace-out P     write a Chrome-trace JSON timeline to P (open in\n\
         \u{20}                https://ui.perfetto.dev): per-flow spans, drop and\n\
         \u{20}                oracle-verdict instants, sampler counter tracks, and\n\
         \u{20}                per-partition compute/barrier slices under --pdes\n\
         --sample-every T  sample queue depths, offered/realized load, macro\n\
         \u{20}                state, and oracle drop rate every T us of sim time;\n\
         \u{20}                writes <trace-out>.samples.csv (or samples.csv)\n\
         --pdes N          run under conservative PDES: N rack partitions for\n\
         \u{20}                `run`, one partition per cluster for `hybrid`\n\
         --machines M      emulated machines for --pdes marshalling (1)\n\
         --adaptive-epochs plan PDES epochs from observed event frontiers,\n\
         \u{20}                jumping idle stretches (default)\n\
         --fixed-epochs    step PDES epochs by a fixed lookahead increment\n\
         \u{20}                (escape hatch / A-B baseline for the planner)\n\
         \n\
         ORACLE FAST PATH (hybrid/compare; see DESIGN.md \"Oracle fast path\")\n\
         --oracle-cache         memoize verdicts for quantized feature keys\n\
         --oracle-cache-cap N   cache capacity in verdicts (65536)\n\
         \n\
         GUARDRAILS (hybrid/compare; see DESIGN.md \"Robustness\")\n\
         --no-guard             run the oracle unguarded (faults panic the run)\n\
         --guard-ceiling-ms F   latency ceiling before clamping (100)\n\
         --guard-trip-limit N   trips before permanent fallback (64)\n\
         --guard-tolerance F    drop-rate drift band around training rate (0.10)\n\
         --fault-oracle MODE    fault drill: replace the oracle with one that\n\
         \u{20}                      emits nan|negative|huge latencies\n\
         --fault-every N        poison one verdict in N during the drill (97)\n\
         \n\
         EXIT CODES\n\
         0 success | 1 generic failure | 2 usage | 3 I/O error\n\
         4 invalid model artifact | 5 simulation/pipeline fault\n\
         6 scenario schema/validation error | 7 recovery ladder exhausted\n\
         8 audit/compare divergence outside bounds"
    );
    exit(2)
}

/// Prints a typed pipeline error and exits with its family's code.
fn die(e: ElephantError) -> ! {
    eprintln!("elephant: {e}");
    exit(e.exit_code())
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("invalid value for {flag}: {s}");
        exit(2)
    })
}

#[derive(Debug)]
struct Opts {
    clusters: u16,
    horizon: SimTime,
    load: f64,
    seed: u64,
    dctcp: bool,
    model: Option<String>,
    out: String,
    full_cluster: u16,
    hidden: usize,
    layers: usize,
    epochs: usize,
    gru: bool,
    trace: Option<usize>,
    trace_out: Option<String>,
    sample_every: Option<SimDuration>,
    pdes: Option<usize>,
    machines: usize,
    epoch_mode: EpochMode,
    profile: bool,
    metrics_out: Option<String>,
    oracle_cache: bool,
    oracle_cache_cap: usize,
    no_guard: bool,
    guard_ceiling_ms: f64,
    guard_trip_limit: u64,
    guard_tolerance: f64,
    fault_oracle: Option<OracleFaultMode>,
    fault_every: u64,
}

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let mut o = Opts {
            clusters: 4,
            horizon: SimTime::from_millis(50),
            load: 0.3,
            seed: 42,
            dctcp: false,
            model: None,
            out: "model.json".into(),
            full_cluster: 0,
            hidden: 32,
            layers: 2,
            epochs: 8,
            gru: false,
            trace: None,
            trace_out: None,
            sample_every: None,
            pdes: None,
            machines: 1,
            epoch_mode: EpochMode::Adaptive,
            profile: false,
            metrics_out: None,
            oracle_cache: false,
            oracle_cache_cap: 65_536,
            no_guard: false,
            guard_ceiling_ms: 100.0,
            guard_trip_limit: 64,
            guard_tolerance: 0.10,
            fault_oracle: None,
            fault_every: 97,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut val = || {
                it.next().map(|s| s.to_string()).unwrap_or_else(|| {
                    eprintln!("{a} needs a value");
                    exit(2)
                })
            };
            match a.as_str() {
                "--clusters" => o.clusters = parse(&val(), a),
                "--horizon-ms" => o.horizon = SimTime::from_millis(parse(&val(), a)),
                "--load" => o.load = parse(&val(), a),
                "--seed" => o.seed = parse(&val(), a),
                "--dctcp" => o.dctcp = true,
                "--model" => o.model = Some(val()),
                "--out" => o.out = val(),
                "--full-cluster" => o.full_cluster = parse(&val(), a),
                "--hidden" => o.hidden = parse(&val(), a),
                "--layers" => o.layers = parse(&val(), a),
                "--epochs" => o.epochs = parse(&val(), a),
                "--gru" => o.gru = true,
                "--trace" => o.trace = Some(parse(&val(), a)),
                "--trace-out" => o.trace_out = Some(val()),
                "--sample-every" => {
                    o.sample_every = Some(SimDuration::from_micros(parse(&val(), a)))
                }
                "--pdes" => o.pdes = Some(parse(&val(), a)),
                "--machines" => o.machines = parse(&val(), a),
                "--adaptive-epochs" => o.epoch_mode = EpochMode::Adaptive,
                "--fixed-epochs" => o.epoch_mode = EpochMode::Fixed,
                "--profile" => o.profile = true,
                "--metrics-out" => o.metrics_out = Some(val()),
                "--oracle-cache" => o.oracle_cache = true,
                "--oracle-cache-cap" => o.oracle_cache_cap = parse(&val(), a),
                "--no-guard" => o.no_guard = true,
                "--guard-ceiling-ms" => o.guard_ceiling_ms = parse(&val(), a),
                "--guard-trip-limit" => o.guard_trip_limit = parse(&val(), a),
                "--guard-tolerance" => o.guard_tolerance = parse(&val(), a),
                "--fault-oracle" => {
                    o.fault_oracle = Some(match val().as_str() {
                        "nan" => OracleFaultMode::Nan,
                        "negative" => OracleFaultMode::Negative,
                        "huge" => OracleFaultMode::Huge,
                        other => {
                            eprintln!("--fault-oracle must be nan|negative|huge, got {other}\n");
                            usage()
                        }
                    })
                }
                "--fault-every" => o.fault_every = parse(&val(), a),
                other => {
                    eprintln!("unknown option: {other}\n");
                    usage()
                }
            }
        }
        o
    }

    fn params(&self) -> ClosParams {
        self.params_at(self.clusters)
    }

    /// The paper topology at `clusters`, ECN-marking under `--dctcp`.
    fn params_at(&self, clusters: u16) -> ClosParams {
        let mut p = ClosParams::paper_cluster(clusters);
        if self.dctcp {
            p.host_link = p.host_link.with_ecn(30_000);
            p.fabric_link = p.fabric_link.with_ecn(30_000);
            p.core_link = p.core_link.with_ecn(30_000);
        }
        p
    }

    fn net_config(&self, scope: RttScope) -> NetConfig {
        net_config(self.dctcp, scope)
    }

    fn workload(&self, params: &ClosParams, seed: u64) -> Vec<FlowSpec> {
        let mut wl = WorkloadConfig::paper_default(self.horizon, seed);
        wl.load = self.load;
        generate(params, &wl)
    }

    fn observing(&self) -> bool {
        self.profile || self.metrics_out.is_some()
    }

    fn outputs(&self, name: &str, scenario: String) -> Outputs {
        Outputs {
            name: name.to_string(),
            scenario,
            seed: self.seed,
            profile: self.profile,
            metrics_out: self.metrics_out.clone(),
            // Next to the timeline when `--trace-out` is set, else in the
            // working directory.
            samples_out: match &self.trace_out {
                Some(p) => format!("{}.samples.csv", p.trim_end_matches(".json")),
                None => "samples.csv".into(),
            },
            trace_out: self.trace_out.clone(),
        }
    }

    /// The plan every hand-flag run shares: `world` over `flows`, on PDES
    /// under `--pdes`, with the event trace on sequential runs.
    fn plan<'a>(
        &self,
        flows: &'a [FlowSpec],
        world: WorldSpec<'a>,
        scope: RttScope,
    ) -> RunPlan<'a> {
        let plan = RunPlan::new(
            self.params(),
            self.net_config(scope),
            flows,
            self.horizon,
            world,
        );
        match self.pdes {
            Some(partitions) => {
                if self.trace.is_some() || self.trace_out.is_some() {
                    println!("note: --pdes runs record no raw event trace; the timeline still gets partition, flow, and sampler tracks");
                }
                plan.with_exec(Exec::Pdes(PdesSpec {
                    mode: self.epoch_mode,
                    ..PdesSpec::new(partitions, self.machines, 64)
                }))
            }
            None => {
                let mut plan = plan;
                plan.observe.trace = self.build_trace(flows);
                plan
            }
        }
    }

    /// The event trace to install, if any: `--trace N` keeps the first N;
    /// `--trace-out` alone installs a strided trace sized from a packet
    /// estimate of the workload, so drop/oracle instants span the run.
    fn build_trace(&self, flows: &[FlowSpec]) -> Option<TraceLog> {
        if let Some(n) = self.trace {
            return Some(TraceLog::new(n));
        }
        if self.trace_out.is_some() {
            // ~1 data packet per MSS plus handshake/ack overhead, and a
            // handful of trace events per packet — a coverage hint, not a
            // promise (TraceLog::strided tolerates both error directions).
            let pkts: u64 = flows.iter().map(|f| f.bytes / 1448 + 2).sum();
            return Some(TraceLog::strided(50_000, pkts.saturating_mul(6)));
        }
        None
    }

    fn build_sampler(&self, flows: &[FlowSpec]) -> Option<NetSampler> {
        self.sample_every.map(|d| NetSampler::new(d, flows))
    }

    /// The oracle stack the flags ask for: `--oracle-cache[-cap]`, and a
    /// guard from the `--guard-*` knobs unless `--no-guard`.
    fn stack_spec(&self) -> StackSpec {
        StackSpec {
            cache_cap: self.oracle_cache.then_some(self.oracle_cache_cap),
            guard: (!self.no_guard).then(|| GuardConfig {
                latency_ceiling: SimDuration::from_secs_f64(self.guard_ceiling_ms / 1e3),
                drop_rate_tolerance: self.guard_tolerance,
                trip_limit: self.guard_trip_limit,
                ..Default::default()
            }),
        }
    }

    /// `--fault-oracle`'s deliberately faulty primary, which the guard
    /// (unless `--no-guard`) wraps in place of the learned oracle.
    fn fault_primary(&self) -> Option<Box<dyn ClusterOracle + Send>> {
        let mode = self.fault_oracle?;
        println!(
            "fault drill: oracle emits {mode:?} latency every {} verdicts",
            self.fault_every
        );
        Some(Box::new(FaultyOracle::new(
            mode,
            self.fault_every,
            SimDuration::from_micros(5),
        )))
    }
}

fn net_config(dctcp: bool, scope: RttScope) -> NetConfig {
    NetConfig {
        tcp: if dctcp {
            TcpConfig::dctcp()
        } else {
            TcpConfig::default()
        },
        rtt_scope: scope,
        ..Default::default()
    }
}

/// Where a hybrid's model comes from: a `--model` flag (exit 3/4 on
/// failure), else a scenario's `[model] path` binding (exit 6 naming the
/// binding's `file:line`), else — when `fallback` allows — a quick-trained
/// default model.
struct ModelSource<'a> {
    flag: Option<&'a str>,
    binding: Option<(&'a str, &'a HybridSpec)>,
    fallback: bool,
}

/// Resolves a hybrid's model, then resets the metrics registry and the
/// span profile: the fallback's capture and training are not part of the
/// run that follows.
fn resolve_model(src: ModelSource<'_>, seed: u64, dctcp: bool, load: f64) -> ClusterModel {
    let model = load_model(&src).unwrap_or_else(|| quick_default_model(seed, dctcp, load));
    elephant::obs::registry().reset();
    elephant::obs::profiler().reset();
    model
}

/// Loads the artifact `src` names, or `None` when the fallback should
/// train one.
fn load_model(src: &ModelSource<'_>) -> Option<ClusterModel> {
    if let Some(p) = src.flag {
        let json = std::fs::read_to_string(p).unwrap_or_else(|e| {
            die(ElephantError::Io {
                path: p.to_string(),
                source: e,
            })
        });
        return Some(ClusterModel::load_json(&json).unwrap_or_else(|e| die(e)));
    }
    let scenario_err = |detail: String| -> ElephantError {
        let (path, spec) = src.binding.expect("scenario errors need a binding");
        ElephantError::Scenario {
            path: path.to_string(),
            line: spec.model_line,
            detail,
        }
    };
    match src.binding.and_then(|(_, spec)| spec.model_path.as_deref()) {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(json) => Some(
                ClusterModel::load_json(&json)
                    .unwrap_or_else(|e| die(scenario_err(format!("model artifact `{p}`: {e}")))),
            ),
            Err(e) if src.fallback && e.kind() == std::io::ErrorKind::NotFound => {
                println!(
                    "model artifact `{p}` does not exist; capturing + training a small \
                     default model (train_fallback) ..."
                );
                None
            }
            Err(e) => die(scenario_err(format!("model artifact `{p}`: {e}"))),
        },
        None if src.fallback => {
            println!(
                "no model artifact given; capturing + training a small default model first ..."
            );
            None
        }
        None if src.binding.is_some() => die(scenario_err(
            "[model] names no `path` and `train_fallback` is false; \
             pass --model or bind an artifact"
                .into(),
        )),
        None => {
            eprintln!("--model PATH is required for this command");
            exit(2)
        }
    }
}

/// Captures a short two-cluster ground truth and trains a deliberately
/// small model — the hybrid fallback when no artifact is bound.
fn quick_default_model(seed: u64, dctcp: bool, load: f64) -> ClusterModel {
    let params = ClosParams::paper_cluster(2);
    let horizon = SimTime::from_millis(30);
    let mut wl = WorkloadConfig::paper_default(horizon, seed);
    wl.load = load;
    let flows = generate(&params, &wl);
    let cfg = net_config(dctcp, RttScope::None);
    let (net, _) = run_ground_truth(params, cfg, Some(1), &flows, horizon);
    let records = capture_records(net).unwrap_or_else(|e| die(e));
    let opts = TrainingOptions {
        hidden: 16,
        layers: 1,
        epochs: 4,
        ..Default::default()
    };
    let (model, _) = train_cluster_model(&records, &params, &opts);
    model
}

/// Observer handles of the oracles a factory built.
#[derive(Default)]
struct Handles {
    /// The sequential world's guard.
    guard: Option<GuardStatsHandle>,
    /// The verdict caches: the sequential world's, or every PDES
    /// partition's.
    caches: Vec<CacheStatsHandle>,
}

/// The hybrid's oracle factory. The sequential world gets the full stack
/// seeded `seed ^ 0xE1E`, with `primary` (a fault drill) under the guard
/// when given; PDES partition `p` gets an unguarded learned oracle seeded
/// `(seed ^ 0xE1E) + p` (per-partition guard stats are not aggregated).
fn oracles<'a>(
    model: ClusterModel,
    params: ClosParams,
    seed: u64,
    spec: StackSpec,
    mut primary: Option<Box<dyn ClusterOracle + Send>>,
    handles: &'a RefCell<Handles>,
) -> OracleFactory<'a> {
    let seed = seed ^ 0xE1E;
    Box::new(move |partition| {
        let mut h = handles.borrow_mut();
        match partition {
            None => {
                let stack = oracle_stack(model.clone(), params, seed, &spec, primary.take());
                h.guard = stack.guard;
                h.caches.extend(stack.cache);
                stack.oracle
            }
            Some(p) => {
                let unguarded = StackSpec {
                    guard: None,
                    ..spec.clone()
                };
                let seed = seed.wrapping_add(p as u64);
                let stack = oracle_stack(model.clone(), params, seed, &unguarded, None);
                h.caches.extend(stack.cache);
                stack.oracle
            }
        }
    })
}

/// How a command's report and ledger name its run, and where its run
/// artifacts go.
struct Outputs {
    /// Run-report name.
    name: String,
    /// Run-report scenario description.
    scenario: String,
    /// The run's seed.
    seed: u64,
    /// Print the metrics report.
    profile: bool,
    /// Seal a run ledger here.
    metrics_out: Option<String>,
    /// Where a sampler's CSV goes.
    samples_out: String,
    /// Write a Chrome-trace timeline here.
    trace_out: Option<String>,
}

/// What a ledger records besides the run report.
struct LedgerTags<'a> {
    driver: &'a str,
    mode: &'a str,
    fingerprint: u64,
    recovery: Vec<String>,
    divergence: Option<DivergenceReport>,
}

/// The one run path every simulating command shares: executes `plan`
/// (driving `sampler` when given), prints the summary, the oracle and
/// fault reports and the fingerprint, then writes the samples CSV, the
/// timeline and the report/ledger.
fn run_and_report(
    plan: RunPlan<'_>,
    mut sampler: Option<NetSampler>,
    handles: &RefCell<Handles>,
    out: &Outputs,
    print_trace: bool,
) {
    let horizon = plan.horizon;
    let hybrid = matches!(plan.world, WorldSpec::Hybrid { .. });
    let (faults, mode) = match &plan.exec {
        Exec::Pdes(spec) => (
            spec.faults.clone(),
            format!("{:?}", spec.mode).to_lowercase(),
        ),
        Exec::Sequential => (None, "sequential".to_string()),
    };
    let driver = match (hybrid, &plan.exec, plan.recovery.is_some()) {
        (false, _, true) => "supervised",
        (false, Exec::Pdes(_), false) => "pdes",
        (false, Exec::Sequential, false) => "sequential",
        (true, _, true) => "hybrid-supervised",
        (true, Exec::Pdes(_), false) => "hybrid-pdes",
        (true, Exec::Sequential, false) => "hybrid",
    };
    let mut plan = plan;
    plan.observe.sampler = sampler.as_mut();
    let run = execute(plan).unwrap_or_else(|e| die(e));

    print_outcome(&run, horizon);
    if print_trace {
        print_trace_sample(&run.nets[0]);
    }
    let h = handles.borrow();
    // Handles would outlive checkpoint restores (a restored net carries a
    // deep-copied oracle stack), so supervised runs report recovery state
    // instead of guard/cache stats.
    let supervised = run.recovery.is_some();
    let guard = if supervised { &None } else { &h.guard };
    if !supervised {
        report_guard(guard);
        report_caches(&h.caches);
    }
    report_fault_counts(faults.as_ref(), run.report.as_ref().map(|r| r.faults));
    let fingerprint = run_fingerprint(run.nets.iter());
    println!("  fingerprint: {fingerprint:#018x}");
    let nets: Vec<&Network> = run.nets.iter().collect();
    finish_observability(out, &nets, guard, sampler.as_ref());
    let recovery = run.recovery.as_ref().map_or_else(Vec::new, |log| {
        let mut lines = vec![log.summary()];
        lines.extend(log.transitions.iter().map(|t| format!("{t:?}")));
        lines
    });
    let tags = LedgerTags {
        driver,
        mode: &mode,
        fingerprint,
        recovery,
        divergence: None,
    };
    emit_report(out, &run.meta, run.partition_rows(), tags);
}

/// The post-run summary. Sequential runs print the network's statistics;
/// PDES and supervised runs print the kernel report (with a per-partition
/// wall-time breakdown — the timeline has the per-epoch view) and the
/// recovery log.
fn print_outcome(run: &RunOutcome, horizon: SimTime) {
    if run.report.is_none() && run.recovery.is_none() {
        return print_summary(&run.nets[0], &run.meta);
    }
    let engine = match &run.report {
        Some(r) => format!(
            "{} epochs ({} jumped), {} partitions",
            r.epochs,
            r.epochs_jumped,
            r.partitions.len()
        ),
        None => "sequential".to_string(),
    };
    println!(
        "\nsimulated {:.3}s {} in {:.2}s wall ({} events, {engine})",
        horizon.as_secs_f64(),
        if run.recovery.is_some() {
            "supervised"
        } else {
            "under PDES"
        },
        run.meta.wall.as_secs_f64(),
        run.events(),
    );
    println!("  flows     : {} completed", run.flows_completed());
    if run.oracle_deliveries() > 0 {
        println!(
            "  oracle    : {} packets teleported",
            run.oracle_deliveries()
        );
    }
    if let Some(report) = &run.report {
        for p in &report.partitions {
            println!(
                "  partition {:>2}: {:>9} events | work {:.3}s | barrier {:.3}s | marshal {:.3}s",
                p.partition, p.events, p.work_seconds, p.barrier_wait_seconds, p.marshal_seconds
            );
        }
        let f = &report.faults;
        if f.total() > 0 {
            println!(
                "  faults    : {} injected (dropped {}, duplicated {}, corrupted {})",
                f.total(),
                f.dropped,
                f.duplicated,
                f.corrupted
            );
        }
    }
    if let Some(log) = &run.recovery {
        println!("  {}", log.summary());
    }
}

fn print_summary(net: &Network, meta: &RunMeta) {
    let s = &net.stats;
    println!(
        "\nsimulated {:.3}s in {:.2}s wall ({} events)",
        meta.sim_seconds,
        meta.wall.as_secs_f64(),
        meta.events
    );
    println!(
        "  flows     : {}/{} completed",
        s.flows_completed, s.flows_started
    );
    println!(
        "  goodput   : {:.3} GB delivered",
        s.delivered_bytes as f64 / 1e9
    );
    println!(
        "  drops     : {} (host {}, tor {}, agg {}, core {}, oracle {})",
        s.drops.total(),
        s.drops.host,
        s.drops.tor,
        s.drops.agg,
        s.drops.core,
        s.drops.oracle
    );
    if s.rtt_hist.count() > 0 {
        println!(
            "  RTT       : p50 {:.1}us  p90 {:.1}us  p99 {:.1}us  ({} samples)",
            s.rtt_hist.quantile(0.5) * 1e6,
            s.rtt_hist.quantile(0.9) * 1e6,
            s.rtt_hist.quantile(0.99) * 1e6,
            s.rtt_hist.count()
        );
    }
    if let Some(fct) = s.mean_fct() {
        println!("  mean FCT  : {fct}");
    }
    if s.oracle_deliveries > 0 {
        println!("  oracle    : {} packets teleported", s.oracle_deliveries);
    }
}

fn print_trace_sample(net: &Network) {
    if let Some(trace) = net.trace() {
        println!(
            "\nfirst events of the raw trace ({} retained, {} observed{}):",
            trace.entries().len(),
            trace.observed(),
            if trace.truncated() { ", truncated" } else { "" }
        );
        println!(
            "  {:>12}  {:<14} {:>6} {:>8} {:>8} {:>10}",
            "time", "kind", "node", "packet", "flow", "seq"
        );
        for e in trace.entries().iter().take(20) {
            println!(
                "  {:>12}  {:<14} {:>6} {:>8} {:>8} {:>10}",
                format!("{}", e.time),
                e.kind.name(),
                e.node.0,
                e.packet,
                e.flow.0,
                e.seq
            );
        }
    }
}

/// Prints the post-run verdict-cache summary — one cache, or the total
/// over a PDES fleet — and mirrors each cache into the metrics registry
/// (so `--metrics-out` reports carry `hybrid/cache/*`).
fn report_caches(handles: &[CacheStatsHandle]) {
    if handles.is_empty() {
        return;
    }
    let mut total = CacheStats::default();
    for h in handles {
        h.publish_metrics();
        let s = h.snapshot();
        total.hits += s.hits;
        total.misses += s.misses;
        total.evictions += s.evictions;
        total.invalidations += s.invalidations;
    }
    println!(
        "  cache     : {} lookups{}, {:.1}% hit rate ({} evictions, {} invalidations)",
        total.lookups(),
        match handles.len() {
            1 => String::new(),
            n => format!(" across {n} partitions"),
        },
        total.hit_rate() * 100.0,
        total.evictions,
        total.invalidations
    );
}

/// Prints the post-run guardrail summary and mirrors it into the metrics
/// registry (so `--metrics-out` reports carry `hybrid/guard/*`).
fn report_guard(handle: &Option<GuardStatsHandle>) {
    let Some(h) = handle else { return };
    h.publish_metrics();
    let s = h.snapshot();
    if s.trips() == 0 {
        println!(
            "  guardrail : {} verdicts, no trips (bit-identical to unguarded)",
            s.verdicts
        );
    } else {
        println!(
            "  guardrail : {} trips in {} verdicts (non-finite {}, negative {}, \
             ceiling {}, drop-drift {}); {} fallback verdicts{}",
            s.trips(),
            s.verdicts,
            s.non_finite,
            s.negative,
            s.ceiling,
            s.drop_drift,
            s.fallback_verdicts,
            if s.fallback_active {
                "; primary ABANDONED (trip limit)"
            } else {
                ""
            }
        );
    }
}

/// Mirrors `FaultCounts` into `fault/*` metrics and warns when a plan with
/// probabilistic message faults fired none of them (horizon too short, or
/// too little cross-machine traffic for the configured probabilities).
/// Scripted stalls/slowdowns are excluded: they manifest through the
/// watchdog and the recovery ladder, not through injection counts.
fn report_fault_counts(plan: Option<&FaultPlan>, counts: Option<FaultCounts>) {
    let (Some(p), Some(counts)) = (plan, counts) else {
        return;
    };
    elephant::obs::counter("fault/dropped", "").add(counts.dropped);
    elephant::obs::counter("fault/duplicated", "").add(counts.duplicated);
    elephant::obs::counter("fault/corrupted", "").add(counts.corrupted);
    let probabilistic = p.drop_prob > 0.0 || p.dup_prob > 0.0 || p.corrupt_prob > 0.0;
    if probabilistic && counts.total() == 0 {
        eprintln!(
            "warning: the [faults] plan was active but injected zero faults; \
             the run exercised no failure paths (extend the horizon, raise the \
             probabilities, or add cross-machine traffic)"
        );
        elephant::obs::counter("fault/zero_injected", "").inc();
    }
}

/// Post-run observability export: the samples CSV (when sampling) and the
/// Chrome-trace timeline (when `--trace-out` is set), with flow tracks,
/// drop/oracle instants from the nets' traces, and guard-trip instants
/// from the guard's log.
fn finish_observability(
    out: &Outputs,
    nets: &[&Network],
    guard: &Option<GuardStatsHandle>,
    sampler: Option<&NetSampler>,
) {
    if let Some(s) = sampler {
        let path = &out.samples_out;
        match write_csv(path, &SAMPLE_CSV_HEADER, s.rows()) {
            Ok(()) => println!("wrote {path} ({} samples)", s.rows().len()),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                exit(3)
            }
        }
    }
    let Some(path) = &out.trace_out else { return };
    elephant::net::export_flow_timeline_multi(nets, MAX_FLOW_TRACKS);
    let tl = elephant::obs::timeline();
    if let Some(h) = guard {
        for (t, v) in h.trip_events() {
            tl.record(
                TraceRecord::instant(PID_FLOWS, 0, "guard_trip", t.as_nanos() as f64 / 1e3)
                    .category("guard")
                    .arg("kind", format!("{v:?}")),
            );
        }
    }
    let writer = TimelineWriter::from_timeline(tl);
    match writer.save(std::path::Path::new(path)) {
        Ok(()) => {
            let dropped = tl.dropped();
            println!(
                "wrote {path} ({} trace records{}) — open in https://ui.perfetto.dev or chrome://tracing",
                tl.len(),
                if dropped > 0 {
                    format!(", {dropped} dropped at capacity")
                } else {
                    String::new()
                }
            );
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            exit(3)
        }
    }
}

/// The one ledger epilogue: builds the run report from the registry and
/// profiler, prints it under `--profile`, and seals it as a run ledger
/// under `--metrics-out`.
fn emit_report(out: &Outputs, meta: &RunMeta, partitions: Vec<PartitionRow>, tags: LedgerTags<'_>) {
    if !out.profile && out.metrics_out.is_none() {
        return;
    }
    let mut report = RunReport::new(&out.name, out.scenario.clone());
    report.set_run(meta.wall.as_secs_f64(), meta.events, meta.sim_seconds);
    report.partitions = partitions;
    report.gather();
    if out.profile {
        println!("\n{}", report.to_table());
    }
    if let Some(path) = &out.metrics_out {
        write_ledger(path, out.seed, tags, report);
    }
}

/// Seals and writes a schema-v1 [`RunLedger`] wrapping `report` — the one
/// artifact shape every driver's `--metrics-out`/`--ledger-out` emits, and
/// the input `elephant compare A.json B.json` diffs.
fn write_ledger(path: &str, seed: u64, tags: LedgerTags<'_>, report: RunReport) {
    let mut ledger = RunLedger::new(tags.driver, report);
    ledger.scenario = ledger.report.scenario.clone();
    ledger.seed = seed;
    ledger.fingerprint = tags.fingerprint;
    ledger.mode = tags.mode.to_string();
    ledger.recovery = tags.recovery;
    ledger.divergence = tags.divergence;
    match ledger.save(std::path::Path::new(path)) {
        Ok(()) => println!("wrote {path} (schema-v{LEDGER_SCHEMA_VERSION} run ledger)"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            exit(3)
        }
    }
}

fn cmd_run(o: &Opts) {
    let params = o.params();
    let flows = o.workload(&params, o.seed);
    println!(
        "full-fidelity run: {} clusters, {} hosts, {} flows, horizon {}",
        params.clusters,
        params.total_hosts(),
        flows.len(),
        o.horizon
    );
    let plan = o.plan(&flows, WorldSpec::Truth { capture: None }, RttScope::All);
    let out = match o.pdes {
        Some(partitions) => o.outputs(
            "run-pdes",
            format!(
                "full fidelity, {} clusters, {partitions} partitions, seed {}",
                o.clusters, o.seed
            ),
        ),
        None => o.outputs(
            "run",
            format!("full fidelity, {} clusters, seed {}", o.clusters, o.seed),
        ),
    };
    let sampler = o.build_sampler(&flows);
    run_and_report(plan, sampler, &RefCell::default(), &out, o.trace.is_some());
}

fn cmd_train(o: &Opts) {
    let params = o.params_at(2);
    let flows = o.workload(&params, o.seed);
    println!(
        "capturing ground truth: 2 clusters, {} flows, horizon {} ...",
        flows.len(),
        o.horizon
    );
    let (net, meta) = run_ground_truth(
        params,
        o.net_config(RttScope::None),
        Some(1),
        &flows,
        o.horizon,
    );
    let records = capture_records(net).unwrap_or_else(|e| die(e));
    println!(
        "  {} events, {} boundary records",
        meta.events,
        records.len()
    );

    let opts = TrainingOptions {
        hidden: o.hidden,
        layers: o.layers,
        epochs: o.epochs,
        rnn: if o.gru { RnnKind::Gru } else { RnnKind::Lstm },
        ..Default::default()
    };
    let trunk = if o.gru { "GRU" } else { "LSTM" };
    println!(
        "training {}x{} {trunk} for {} epochs ...",
        o.layers, o.hidden, o.epochs
    );
    let (model, report) = train_cluster_model(&records, &params, &opts);
    println!(
        "  up:   {} samples | drop accuracy {:.3} | latency rmse {:.3}",
        report.up.train_samples, report.up.eval.drop_accuracy, report.up.eval.latency_rmse
    );
    println!(
        "  down: {} samples | drop accuracy {:.3} | latency rmse {:.3}",
        report.down.train_samples, report.down.eval.drop_accuracy, report.down.eval.latency_rmse
    );
    std::fs::write(&o.out, model.to_file_json()).unwrap_or_else(|e| {
        die(ElephantError::Io {
            path: o.out.clone(),
            source: e,
        })
    });
    println!(
        "wrote {} (format v{}, checksum {:#018x})",
        o.out,
        elephant::core::MODEL_VERSION,
        model.weight_checksum()
    );
    let out = o.outputs(
        "train",
        format!(
            "capture + {}x{} {trunk} training, seed {}",
            o.layers, o.hidden, o.seed
        ),
    );
    // The captured net was consumed by training; no fingerprint.
    let tags = LedgerTags {
        driver: "train",
        mode: "",
        fingerprint: 0,
        recovery: Vec::new(),
        divergence: None,
    };
    emit_report(&out, &meta, vec![meta.partition_row()], tags);
}

fn cmd_hybrid(o: &Opts) {
    let src = ModelSource {
        flag: o.model.as_deref(),
        binding: None,
        fallback: true,
    };
    let model = resolve_model(src, o.seed, o.dctcp, o.load);
    let params = o.params();
    assert!(o.full_cluster < o.clusters, "--full-cluster out of range");
    let flows = filter_touching_cluster(&o.workload(&params, o.seed), o.full_cluster);
    println!(
        "hybrid run: {} clusters ({} approximated), {} flows after elision, horizon {}",
        params.clusters,
        params.clusters - 1,
        flows.len(),
        o.horizon
    );
    let primary = match o.pdes {
        Some(_) => {
            if !o.no_guard || o.fault_oracle.is_some() {
                println!("note: --pdes runs the learned oracle unguarded (per-partition guard stats are not aggregated); --no-guard/--fault-oracle flags are ignored");
            }
            None
        }
        None => o.fault_primary(),
    };
    let handles = RefCell::default();
    let oracle = oracles(model, params, o.seed, o.stack_spec(), primary, &handles);
    let world = WorldSpec::Hybrid {
        full_cluster: o.full_cluster,
        oracle,
    };
    let plan = o.plan(&flows, world, RttScope::Cluster(o.full_cluster));
    let approximated = format!("{} clusters ({} approximated)", o.clusters, o.clusters - 1);
    let out = match o.pdes {
        Some(_) => o.outputs(
            "hybrid-pdes",
            format!("{approximated}, one partition per cluster, seed {}", o.seed),
        ),
        None => o.outputs("hybrid", format!("{approximated}, seed {}", o.seed)),
    };
    let sampler = o.build_sampler(&flows);
    run_and_report(plan, sampler, &handles, &out, o.trace.is_some());
}

fn cmd_compare(o: &Opts) {
    let src = ModelSource {
        flag: o.model.as_deref(),
        binding: None,
        fallback: false,
    };
    let model = resolve_model(src, o.seed, o.dctcp, o.load);
    let params = o.params();
    let flows = o.workload(&params, o.seed.wrapping_add(1));
    let cfg = o.net_config(RttScope::Cluster(o.full_cluster));

    println!("ground truth ({} flows) ...", flows.len());
    let (truth, tmeta) = run_ground_truth(params, cfg, None, &flows, o.horizon);
    let elided = filter_touching_cluster(&flows, o.full_cluster);
    println!("hybrid ({} flows after elision) ...", elided.len());
    let handles = RefCell::default();
    let oracle = oracles(
        model,
        params,
        o.seed,
        o.stack_spec(),
        o.fault_primary(),
        &handles,
    )(None);
    let (hybrid, hmeta) = run_hybrid(params, o.full_cluster, oracle, cfg, &elided, o.horizon);
    let h = handles.into_inner();
    report_guard(&h.guard);
    report_caches(&h.caches);

    let cmp = compare_cdfs(&truth.stats.rtt_cdf(), &hybrid.stats.rtt_cdf());
    println!("\n  quantile   truth       hybrid      error");
    for r in &cmp.rows {
        println!(
            "  p{:<8} {:>9.1}us {:>9.1}us {:>+8.1}%",
            r.q * 100.0,
            r.truth * 1e6,
            r.approx * 1e6,
            r.rel_error() * 100.0
        );
    }
    println!(
        "\n  KS distance {:.4} | wall {:.2}s truth vs {:.2}s hybrid ({:.2}x) | events {:.1}x fewer",
        cmp.ks,
        tmeta.wall.as_secs_f64(),
        hmeta.wall.as_secs_f64(),
        tmeta.wall.as_secs_f64() / hmeta.wall.as_secs_f64().max(1e-9),
        tmeta.events as f64 / hmeta.events.max(1) as f64,
    );
    let out = o.outputs(
        "compare",
        format!("truth vs hybrid, {} clusters, seed {}", o.clusters, o.seed),
    );
    let tags = LedgerTags {
        driver: "compare",
        mode: "",
        fingerprint: run_fingerprint([&hybrid]),
        recovery: Vec::new(),
        divergence: None,
    };
    emit_report(&out, &hmeta, vec![hmeta.partition_row()], tags);
}

/// The scenario commands' flags. `audit FILE` is `run-scenario FILE
/// --audit` with its own spelling of the ledger flag (`--ledger-out`) and
/// three oracle-stack overrides of its own (`--oracle-cache`,
/// `--oracle-cache-cap`, `--no-guard`).
struct ScenarioArgs {
    file: Option<String>,
    over: elephant::scenario::CompileOverrides,
    validate: bool,
    list_dir: Option<String>,
    pdes: bool,
    partitions: Option<usize>,
    epoch_mode: EpochMode,
    sample_every: Option<SimDuration>,
    samples_out: Option<String>,
    checkpoint_every_ms: Option<f64>,
    max_retries: Option<u32>,
    profile: bool,
    metrics_out: Option<String>,
    model: Option<String>,
    audit: bool,
    oracle_cache: bool,
    oracle_cache_cap: Option<usize>,
    no_guard: bool,
}

fn parse_scenario_args(args: &[String], cmd: &str) -> ScenarioArgs {
    let audit = cmd == "audit";
    let mut s = ScenarioArgs {
        file: None,
        over: Default::default(),
        validate: false,
        list_dir: None,
        pdes: false,
        partitions: None,
        epoch_mode: EpochMode::Adaptive,
        sample_every: None,
        samples_out: None,
        checkpoint_every_ms: None,
        max_retries: None,
        profile: false,
        metrics_out: None,
        model: None,
        audit,
        oracle_cache: false,
        oracle_cache_cap: None,
        no_guard: false,
    };
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        let mut val = || {
            it.next().map(|s| s.to_string()).unwrap_or_else(|| {
                eprintln!("{a} needs a value");
                exit(2)
            })
        };
        match a.as_str() {
            "--seed" => s.over.seed = Some(parse(&val(), a)),
            "--horizon-ms" => s.over.horizon_ms = Some(parse(&val(), a)),
            "--repeat" => s.over.repeat = Some(parse(&val(), a)),
            "--model" => s.model = Some(val()),
            "--sample-every" => s.sample_every = Some(SimDuration::from_micros(parse(&val(), a))),
            "--ledger-out" if audit => s.metrics_out = Some(val()),
            "--oracle-cache" if audit => s.oracle_cache = true,
            "--oracle-cache-cap" if audit => s.oracle_cache_cap = Some(parse(&val(), a)),
            "--no-guard" if audit => s.no_guard = true,
            "--validate" if !audit => s.validate = true,
            "--pdes" if !audit => s.pdes = true,
            "--partitions" if !audit => {
                s.partitions = Some(parse(&val(), a));
                s.pdes = true;
            }
            "--adaptive-epochs" if !audit => s.epoch_mode = EpochMode::Adaptive,
            "--fixed-epochs" if !audit => s.epoch_mode = EpochMode::Fixed,
            "--samples-out" if !audit => s.samples_out = Some(val()),
            "--checkpoint-every-ms" if !audit => {
                let ms: f64 = parse(&val(), a);
                if ms <= 0.0 {
                    eprintln!("--checkpoint-every-ms must be > 0, got {ms}");
                    exit(2)
                }
                s.checkpoint_every_ms = Some(ms);
            }
            "--max-retries" if !audit => {
                let n: u32 = parse(&val(), a);
                if n == 0 {
                    eprintln!("--max-retries must be >= 1");
                    exit(2)
                }
                s.max_retries = Some(n);
            }
            "--profile" if !audit => s.profile = true,
            "--metrics-out" if !audit => s.metrics_out = Some(val()),
            "--audit" if !audit => s.audit = true,
            "--list-scenarios" if !audit => {
                // DIR is optional; the next token is a directory unless it
                // looks like a flag. `val` is unused on this path, so its
                // borrow of the iterator has already ended.
                let dir = match it.peek() {
                    Some(next) if !next.starts_with('-') => it.next().expect("peeked").clone(),
                    _ => "scenarios".to_string(),
                };
                s.list_dir = Some(dir);
            }
            other if other.starts_with('-') => {
                eprintln!("unknown {cmd} option: {other}\n");
                usage()
            }
            path => {
                if s.file.replace(path.to_string()).is_some() {
                    eprintln!("{cmd} takes one scenario file\n");
                    usage()
                }
            }
        }
    }
    s
}

/// `run-scenario FILE`: load, validate, compile, and run a declarative
/// scenario. Scenario errors exit with code 6 and name the offending
/// `file:line`; missing files exit 3.
fn cmd_run_scenario(args: &[String]) {
    run_scenario(parse_scenario_args(args, "run-scenario"))
}

/// `audit FILE`: the paired truth+hybrid run of `run-scenario FILE
/// --audit`, with `--model`, `--oracle-cache[-cap]`, `--no-guard`,
/// `--sample-every` and `--ledger-out` as overrides.
fn cmd_audit(args: &[String]) {
    run_scenario(parse_scenario_args(args, "audit"))
}

fn run_scenario(a: ScenarioArgs) {
    use elephant::scenario::{compile, list_scenarios, load};

    if let Some(dir) = a.list_dir {
        let files = list_scenarios(std::path::Path::new(&dir)).unwrap_or_else(|e| {
            die(ElephantError::Io {
                path: dir.clone(),
                source: e,
            })
        });
        if files.is_empty() {
            println!("no scenario files under {dir}/");
            return;
        }
        for f in files {
            match load(&f.display().to_string()) {
                Ok(s) => println!("{}  {} — {}", f.display(), s.name, s.description),
                Err(e) => println!("{}  INVALID: {e}", f.display()),
            }
        }
        return;
    }

    let Some(path) = a.file else {
        eprintln!("a scenario file is required (or run-scenario --list-scenarios)\n");
        usage()
    };
    let scenario = load(&path).unwrap_or_else(|e| die(e));
    let compiled = compile(&scenario, &a.over);
    // A [model] section (or --model / --audit) routes the scenario
    // through the hybrid drivers: the selected cluster stays at packet
    // fidelity while the learned oracle serves every other fabric,
    // guarded and cached per the [guard]/[oracle] sections.
    let hybrid_mode = a.audit || a.model.is_some() || compiled.hybrid.model_declared;

    if a.validate {
        println!(
            "{path}: ok — scenario `{}`: {} clusters, {} hosts, {} flows, horizon {}, \
             {} PDES partitions",
            compiled.name,
            compiled.params.clusters,
            compiled.params.total_hosts(),
            compiled.flows.len(),
            compiled.horizon,
            compiled.partitions,
        );
        if compiled.hybrid.model_declared {
            println!(
                "  [model]: {} — full cluster {}, cache {}, guard {}",
                compiled
                    .hybrid
                    .model_path
                    .as_deref()
                    .unwrap_or("(train_fallback)"),
                compiled.hybrid.full_cluster,
                if compiled.hybrid.cache { "on" } else { "off" },
                if compiled.hybrid.guard.is_some() {
                    "on"
                } else {
                    "off"
                },
            );
        }
        return;
    }

    println!(
        "scenario `{}` ({path}): {} clusters, {} hosts, {} flows, horizon {}, seed {}{}",
        compiled.name,
        compiled.params.clusters,
        compiled.params.total_hosts(),
        compiled.flows.len(),
        compiled.horizon,
        compiled.seed,
        if a.pdes {
            // Hybrid PDES always partitions one cluster per partition.
            let n = if hybrid_mode {
                compiled.params.clusters as usize
            } else {
                a.partitions.unwrap_or(compiled.partitions)
            };
            format!(", PDES x{n}")
        } else {
            String::new()
        }
    );
    if compiled.faults.is_some() && !a.pdes {
        println!("note: the scenario's [faults] plan applies only under --pdes");
    }

    if a.profile || a.metrics_out.is_some() {
        elephant::obs::set_enabled(true);
    }
    let out = Outputs {
        name: "run-scenario".into(),
        scenario: format!("scenario `{}`, seed {}", compiled.name, compiled.seed),
        seed: compiled.seed,
        profile: a.profile,
        metrics_out: a.metrics_out,
        samples_out: a.samples_out.unwrap_or_else(|| "samples.csv".into()),
        trace_out: None,
    };
    let sample_every = a.sample_every.or(compiled.sample_every);

    // CLI flags enable supervision even without a [recovery] section and
    // override the section's knobs when present.
    let mut recovery = compiled.recovery;
    if a.checkpoint_every_ms.is_some() || a.max_retries.is_some() {
        let mut p = recovery.unwrap_or_default();
        if let Some(ms) = a.checkpoint_every_ms {
            p.checkpoint_every = SimDuration::from_secs_f64(ms / 1e3);
        }
        if let Some(n) = a.max_retries {
            p.max_retries = n;
        }
        recovery = Some(p);
    }

    if a.audit {
        if recovery.is_some() {
            println!(
                "note: --audit runs both sides unsupervised; the [recovery] ladder is ignored"
            );
        }
        if a.pdes {
            println!("note: --audit runs both sides sequentially; --pdes is ignored");
        }
        let mut spec = compiled.stack_spec();
        if a.oracle_cache || a.oracle_cache_cap.is_some() {
            let cap = a.oracle_cache_cap.unwrap_or(compiled.hybrid.cache_cap);
            spec.cache_cap = (a.oracle_cache || compiled.hybrid.cache).then_some(cap);
        }
        if a.no_guard {
            spec.guard = None;
        }
        let model = hybrid_model(&path, &compiled, a.model.as_deref(), true);
        return audit_scenario(&path, &compiled, model, spec, sample_every, &out);
    }

    let handles = RefCell::default();
    let plan = if hybrid_mode {
        let fallback = compiled.hybrid.train_fallback;
        let model = hybrid_model(&path, &compiled, a.model.as_deref(), fallback);
        if a.pdes && a.partitions.is_some() {
            println!(
                "note: hybrid PDES partitions one cluster per partition; --partitions is ignored"
            );
        }
        let (params, seed) = (compiled.params, compiled.seed);
        let oracle = oracles(model, params, seed, compiled.stack_spec(), None, &handles);
        compiled.plan(Some(oracle))
    } else {
        compiled.plan(None)
    };
    let mut plan = plan.with_recovery(recovery);
    if a.pdes {
        plan = plan.with_exec(compiled.pdes(a.partitions, a.epoch_mode));
    }
    let mut sampler = sample_every.map(|d| NetSampler::new(d, &plan.flows));
    if recovery.is_some() && sampler.is_some() {
        println!(
            "note: samplers observe a single timeline and cannot follow checkpoint \
             restores; sampling is disabled under [recovery] supervision"
        );
        sampler = None;
    }
    run_and_report(plan, sampler, &handles, &out, false);
}

/// A hybrid scenario's model (see [`ModelSource`]), after checking the
/// scenario has clusters to approximate and announcing the elision.
fn hybrid_model(
    path: &str,
    compiled: &Compiled,
    flag: Option<&str>,
    fallback: bool,
) -> ClusterModel {
    let spec = &compiled.hybrid;
    if compiled.params.clusters < 2 {
        die(ElephantError::Scenario {
            path: path.to_string(),
            line: spec.model_line,
            detail: "hybrid simulation needs >= 2 clusters (the oracle approximates \
                     every cluster but the full-fidelity one)"
                .into(),
        });
    }
    let src = ModelSource {
        flag,
        binding: Some((path, spec)),
        fallback,
    };
    let model = resolve_model(src, compiled.seed, compiled.dctcp, 0.3);
    println!(
        "  hybrid: cluster {} at packet fidelity ({} approximated), {} flows after elision",
        spec.full_cluster,
        compiled.params.clusters - 1,
        compiled.hybrid_flows().len()
    );
    model
}

/// The paired audit of a scenario, shared by `audit FILE` and
/// `run-scenario FILE --audit`: ground truth and hybrid over the same
/// elided flows and seed, the divergence table attributed by regime,
/// layer and oracle, both sides' ledgers under `--metrics-out`
/// (`--ledger-out`), and a gate on the `[audit]` bounds — exit 8 when the
/// hybrid diverges beyond them.
fn audit_scenario(
    path: &str,
    compiled: &Compiled,
    model: ClusterModel,
    spec: StackSpec,
    sample_every: Option<SimDuration>,
    out: &Outputs,
) {
    let bounds = compiled.audit_bounds.unwrap_or_default();
    let handles = RefCell::default();
    let (params, seed) = (compiled.params, compiled.seed);
    let oracle = oracles(model, params, seed, spec, None, &handles)(None);
    let Handles { guard, caches } = handles.into_inner();
    let run = run_audit(
        params,
        compiled.hybrid.full_cluster,
        oracle,
        compiled.net_config(),
        &compiled.hybrid_flows(),
        compiled.horizon,
        bounds,
        sample_every.unwrap_or_else(|| SimDuration::from_micros(200)),
        AuditHooks {
            cache: caches.into_iter().next(),
            guard,
        },
    );
    println!("\n{}", run.divergence.to_table());
    println!(
        "  truth : {} events in {:.2}s wall | hybrid: {} events in {:.2}s wall \
         ({:.1}x fewer events)",
        run.truth_meta.events,
        run.truth_meta.wall.as_secs_f64(),
        run.hybrid_meta.events,
        run.hybrid_meta.wall.as_secs_f64(),
        run.truth_meta.events as f64 / run.hybrid_meta.events.max(1) as f64
    );
    let fingerprint = run_fingerprint([&run.hybrid_net]);
    println!("  fingerprint: {fingerprint:#018x}");
    if let Some(base) = &out.metrics_out {
        let sides = [
            ("audit-hybrid", base.clone(), &run.hybrid_meta, fingerprint),
            (
                "audit-truth",
                format!("{}.truth.json", base.trim_end_matches(".json")),
                &run.truth_meta,
                run_fingerprint([&run.truth_net]),
            ),
        ];
        for (driver, ledger_path, meta, fingerprint) in sides {
            let mut report = RunReport::new(driver, path.to_string());
            report.set_run(meta.wall.as_secs_f64(), meta.events, meta.sim_seconds);
            let tags = LedgerTags {
                driver,
                mode: "paired",
                fingerprint,
                recovery: Vec::new(),
                divergence: (driver == "audit-hybrid").then(|| run.divergence.clone()),
            };
            write_ledger(&ledger_path, seed, tags, report);
        }
    }
    let breaches = run.divergence.breaches();
    if !breaches.is_empty() {
        eprintln!("\naudit FAILED: hybrid diverges outside the [audit] bounds");
        for b in &breaches {
            eprintln!("  - {b}");
        }
        exit(8)
    }
    println!(
        "\naudit OK: drop-rate err {:.4} <= {}, FCT KS {:.3} <= {}, W1/mean {:.3} <= {}",
        run.divergence.drop_rate_error(),
        bounds.max_drop_rate_error,
        run.divergence.fct_ks,
        bounds.max_ks,
        run.divergence.w1_ratio(),
        bounds.max_w1_ratio
    );
}

/// `compare A.json B.json`: validate and diff two run-ledger artifacts.
/// Exit 8 when they drift outside tolerance, 3 when either artifact is
/// missing or fails schema/checksum validation.
fn cmd_compare_ledgers(args: &[String]) {
    let mut files: Vec<String> = Vec::new();
    let mut tolerance = 0.05f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--tolerance needs a value");
                    exit(2)
                });
                tolerance = parse(v, a);
            }
            other if other.starts_with('-') => {
                eprintln!("unknown compare option: {other}\n");
                usage()
            }
            path => files.push(path.to_string()),
        }
    }
    if files.len() != 2 {
        eprintln!("compare takes exactly two ledger files (or --model for the accuracy table)\n");
        usage()
    }
    let load = |p: &String| {
        RunLedger::load(std::path::Path::new(p)).unwrap_or_else(|e| {
            die(ElephantError::Io {
                path: p.clone(),
                source: e,
            })
        })
    };
    let a = load(&files[0]);
    let b = load(&files[1]);
    println!(
        "comparing run ledgers (tolerance {tolerance}):\n  \
         A: {} — driver {}, seed {}, fingerprint {:#018x}\n  \
         B: {} — driver {}, seed {}, fingerprint {:#018x}",
        files[0], a.driver, a.seed, a.fingerprint, files[1], b.driver, b.seed, b.fingerprint
    );
    let breaches = compare_ledgers(&a, &b, tolerance);
    if breaches.is_empty() {
        println!("ledgers agree within tolerance");
        return;
    }
    eprintln!("\n{} drift breach(es):", breaches.len());
    for l in &breaches {
        eprintln!("  - {l}");
    }
    exit(8)
}
