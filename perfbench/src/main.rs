//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Repeats attempts (setup, then [`RUNS`] runs, each on its own traffic
//! draw and with its output checks) of one workload for at most `S`
//! seconds, each in a fresh child process so that its peak RSS and its
//! setup are its own, as when a user runs the simulator once. Attempts
//! cycle over [`INSTANCES`] instances derived from `N`, so that one
//! invocation averages over ten draws of the heavy-tailed traffic instead
//! of timing one draw many times. Then it runs the accuracy audit and
//! prints each attempt and run and, as the last line of standard output,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! With `--trace 0` the metrics are the end-to-end ones, from untraced
//! attempts. With `--trace 1` traced and untraced attempts of one run each
//! alternate, the metrics are the per-layer ones, and there is no audit.
//! Spans go to `.bench_out/spans-<workload>-seed<N>-trace<T>.json`.
//!
//! Exit codes: 0 with a result (even when attempts failed), 2 on bad usage
//! or a missing scenario file.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{exit, Command, Stdio};
use std::time::{Duration, Instant};

use elephant_scenario::CompileOverrides;
use perfbench::host::{HostProbe, NOMINAL_S};
use perfbench::spans::Spans;
use perfbench::workload::{attempt, audit, workload, Fingerprint, Run, Workload, WORKLOADS};
use perfbench::PER_LAYER;

/// Instances (attempts with their own seeds) per invocation: the runs of
/// instance `i` of seed `N` draw their traffic from seeds
/// `(N * INSTANCES + i) * RUNS` onwards.
const INSTANCES: u64 = 5;

/// Runs per untraced attempt. Setup (on the hybrids, mostly training) is
/// paid once per attempt, so a second run on a second draw doubles the
/// draws an invocation averages over for a fraction of an attempt's cost.
const RUNS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    scenarios: PathBuf,
    /// Run one attempt with exactly `seed` and print its record (the
    /// child-process mode).
    attempt: bool,
    /// Runs of the child's attempt.
    runs: usize,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        scenarios: PathBuf::from("perfbench/scenarios"),
        attempt: false,
        runs: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value `{val}` for {flag}");
        let bit = |v: &str| match v {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad.clone()),
        };
        match flag.as_str() {
            "--workload" => args.workload = val,
            "--seed" => args.seed = val.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = val.parse().map_err(|_| bad)?,
            "--trace" => args.trace = bit(&val)?,
            "--attempt" => args.attempt = bit(&val)?,
            "--runs" => args.runs = val.parse().map_err(|_| bad)?,
            "--scenarios" => args.scenarios = PathBuf::from(&val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The process's peak resident set, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Child mode: one attempt, reported as lines the parent parses.
fn run_attempt(w: &Workload, args: &Args) -> ! {
    let mut spans = Spans::default();
    let overrides = CompileOverrides {
        seed: Some(args.seed),
        ..Default::default()
    };
    match attempt(
        w,
        &args.scenarios,
        &overrides,
        args.trace,
        args.runs,
        &mut spans,
    ) {
        Ok(o) => {
            println!("outcome {} {} {}", o.setup_s, o.sim_s, peak_rss_mb());
            for r in &o.runs {
                let fp = &r.fingerprint;
                let parts: Vec<String> = fp.partitions.iter().map(u64::to_string).collect();
                println!(
                    "run {} {} {} {} {} {}",
                    r.seed,
                    r.run_s,
                    fp.run,
                    fp.events,
                    fp.flows_completed,
                    parts.join(" ")
                );
            }
            for (name, value) in &o.layers {
                println!("layer {name} {value}");
            }
            println!("spans {}", spans.to_json());
            exit(0)
        }
        Err(e) => {
            println!("error {e}");
            exit(1)
        }
    }
}

/// What a child reported.
struct Record {
    setup_s: f64,
    sim_s: f64,
    rss_mb: f64,
    runs: Vec<Run>,
    layers: BTreeMap<String, f64>,
    spans: String,
}

fn parse_record(out: &str) -> Result<Record, String> {
    let mut rec = Record {
        setup_s: 0.0,
        sim_s: 0.0,
        rss_mb: 0.0,
        runs: Vec::new(),
        layers: BTreeMap::new(),
        spans: "[]".into(),
    };
    let mut seen = 0;
    for line in out.lines() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        let f: Vec<&str> = rest.split_whitespace().collect();
        let bad = || format!("bad line `{line}`");
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).ok_or_else(bad);
        let int = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).ok_or_else(bad);
        match tag {
            "outcome" => {
                (rec.setup_s, rec.sim_s, rec.rss_mb) = (num(0)?, num(1)?, num(2)?);
                seen += 1;
            }
            "run" => rec.runs.push(Run {
                seed: int(0)?,
                run_s: num(1)?,
                fingerprint: Fingerprint {
                    run: int(2)?,
                    events: int(3)?,
                    flows_completed: int(4)?,
                    partitions: (5..f.len()).map(int).collect::<Result<_, _>>()?,
                },
            }),
            "layer" => {
                rec.layers
                    .insert(f.first().ok_or_else(bad)?.to_string(), num(1)?);
            }
            "spans" => rec.spans = rest.to_string(),
            "error" => return Err(rest.to_string()),
            _ => {}
        }
    }
    if seen == 1 && !rec.runs.is_empty() {
        Ok(rec)
    } else {
        Err("the attempt reported no outcome".into())
    }
}

/// Runs one attempt in a child process and waits for it.
fn spawn_attempt(args: &Args, seed: u64, traced: bool, runs: usize) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }, "--attempt", "1"])
        .args(["--runs", &runs.to_string()])
        .arg("--scenarios")
        .arg(&args.scenarios)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start the attempt: {e}"))?;
    let rec = parse_record(&String::from_utf8_lossy(&out.stdout))?;
    if out.status.success() {
        Ok(rec)
    } else {
        Err(format!("the attempt exited with {}", out.status))
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median of `f` over each instance's attempts, averaged over the
/// instances that have any (0 when none has).
fn per_instance(records: &[(u64, Record)], f: impl Fn(&Record) -> f64) -> f64 {
    let medians: Vec<f64> = (0..INSTANCES)
        .map(|i| -> Vec<f64> {
            records
                .iter()
                .filter(|(j, _)| *j == i)
                .map(|(_, r)| f(r))
                .collect()
        })
        .filter(|v| !v.is_empty())
        .map(median)
        .collect();
    if medians.is_empty() {
        0.0
    } else {
        medians.iter().sum::<f64>() / medians.len() as f64
    }
}

/// Simulated seconds per wall second over every run of `records`: what
/// they simulated together over the wall time their runs took.
fn sim_speed(records: &[(u64, Record)]) -> f64 {
    let (mut sim, mut wall) = (0.0, 0.0);
    for (_, rec) in records {
        for run in &rec.runs {
            sim += rec.sim_s;
            wall += run.run_s;
        }
    }
    if wall > 0.0 {
        sim / wall
    } else {
        0.0
    }
}

/// Mean run seconds of an attempt.
fn run_s(rec: &Record) -> f64 {
    mean(&rec.runs.iter().map(|r| r.run_s).collect::<Vec<_>>())
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

fn main() {
    let args = parse().unwrap_or_else(|e| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "{e}\nusage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
            names.join("|")
        );
        exit(2)
    });
    let Some(w) = workload(&args.workload) else {
        eprintln!("unknown workload `{}`", args.workload);
        exit(2)
    };
    if !args.scenarios.join(w.scenario).is_file() {
        eprintln!(
            "scenario {} not found (run from the repository root)",
            args.scenarios.join(w.scenario).display()
        );
        exit(2)
    }
    if args.attempt {
        run_attempt(&w, &args);
    }

    let budget = Duration::from_secs(args.seconds);
    // Every instance at least once; traced, every instance both ways, so
    // that each instance's first draw repeats across processes. Past that,
    // an attempt starts only if one as long as the longest so far still
    // ends within the budget.
    let (min_attempts, runs) = if args.trace {
        (2 * INSTANCES, 1)
    } else {
        (INSTANCES, RUNS)
    };
    let mut spans = Spans::default();
    let mut child_spans: Vec<String> = Vec::new();
    // The host's speed, measured before every attempt and after the last.
    let host = HostProbe::new();
    let mut probes: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut reference: BTreeMap<u64, Fingerprint> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut plain: Vec<(u64, Record)> = Vec::new();
    let mut traced: Vec<(u64, Record)> = Vec::new();
    while attempted < min_attempts || start.elapsed() + longest <= budget {
        // Traced runs pair each untraced attempt on the same instance.
        let (trace_this, instance) = if args.trace {
            (attempted % 2 == 1, attempted / 2 % INSTANCES)
        } else {
            (false, attempted % INSTANCES)
        };
        let seed = args
            .seed
            .wrapping_mul(INSTANCES)
            .wrapping_add(instance)
            .wrapping_mul(RUNS as u64);
        attempted += 1;
        let label = format!(
            "{}, seed {seed}",
            if trace_this { "traced" } else { "untraced" }
        );
        probes.push(spans.time("host_probe", || host.measure()));
        let began = Instant::now();
        let rec = spans.time("attempt", || spawn_attempt(&args, seed, trace_this, runs));
        longest = longest.max(began.elapsed());
        let rec = match rec {
            Ok(r) => r,
            Err(e) => {
                failed += 1;
                println!("attempt {attempted} ({label}) FAILED: {e}");
                continue;
            }
        };
        println!(
            "attempt {attempted} ({label}) setup_s={:.4} rss_mb={:.1}",
            rec.setup_s, rec.rss_mb
        );
        child_spans.push(format!(
            "{{\"seed\":{seed},\"traced\":{trace_this},\"spans\":{}}}",
            rec.spans
        ));
        let mut matched = true;
        for run in &rec.runs {
            println!(
                "  run seed {} run_s={:.4} {}",
                run.seed, run.run_s, run.fingerprint
            );
            let first = reference
                .entry(run.seed)
                .or_insert_with(|| run.fingerprint.clone());
            if *first != run.fingerprint {
                println!("  MISMATCH: the first run of this seed had {first}");
                matched = false;
            }
        }
        if !matched {
            failed += 1;
        } else if trace_this {
            traced.push((instance, rec));
        } else {
            plain.push((instance, rec));
        }
    }

    probes.push(spans.time("host_probe", || host.measure()));
    let host_s = median(probes.clone());
    let probe_list: Vec<String> = probes.iter().map(|p| format!("{p:.4}")).collect();
    let wall_speed = sim_speed(&plain);
    println!(
        "host probe: median {host_s:.4} s of nominal {NOMINAL_S} s ({}); sim_s_per_wall_s={wall_speed}",
        probe_list.join(",")
    );

    let mut metrics: BTreeMap<String, (f64, &str)> = BTreeMap::new();
    if args.trace {
        for (name, unit) in PER_LAYER {
            let v = per_instance(&traced, |r| r.layers.get(name).copied().unwrap_or(0.0));
            metrics.insert(name.to_string(), (v, unit));
        }
        let overhead = if plain.is_empty() || traced.is_empty() {
            0.0
        } else {
            per_instance(&traced, run_s) / per_instance(&plain, run_s) - 1.0
        };
        metrics.insert("bench.trace_overhead".into(), (overhead, "ratio"));
        metrics.insert("bench.host_probe_s".into(), (host_s, "s"));
        metrics.insert("bench.sim_s_per_wall_s".into(), (wall_speed, "ratio"));
    } else {
        // Deterministic, so computed once, outside every timed region.
        attempted += 1;
        spans.begin("audit");
        let accuracy = catch_unwind(AssertUnwindSafe(|| audit(&w, &args.scenarios)))
            .unwrap_or_else(|_| Err("panicked".into()));
        spans.end();
        let accuracy = accuracy.unwrap_or_else(|e| {
            failed += 1;
            println!("audit FAILED: {e}");
            [0.0; 3]
        });
        println!(
            "audit: drop_rate_err={} fct_ks={} fct_w1_ratio={}",
            accuracy[0], accuracy[1], accuracy[2]
        );
        let ok = attempted - failed;
        metrics.insert(
            "sim_s_per_ref_s".into(),
            (wall_speed * host_s / NOMINAL_S, "ratio"),
        );
        metrics.insert("setup_s".into(), (per_instance(&plain, |r| r.setup_s), "s"));
        metrics.insert(
            "peak_rss_mb".into(),
            (per_instance(&plain, |r| r.rss_mb), "MiB"),
        );
        metrics.insert(
            "success_rate".into(),
            (ok as f64 / attempted as f64, "ratio"),
        );
        metrics.insert("drop_rate_err".into(), (accuracy[0], "ratio"));
        metrics.insert("fct_ks".into(), (accuracy[1], "ratio"));
        metrics.insert("fct_w1_ratio".into(), (accuracy[2], "ratio"));
    }

    let out = PathBuf::from(".bench_out");
    let spans_path = out.join(format!(
        "spans-{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    let spans_json = format!(
        "{{\"invocation\":{},\"attempts\":[{}]}}\n",
        spans.to_json(),
        child_spans.join(",")
    );
    if let Err(e) =
        std::fs::create_dir_all(&out).and_then(|_| std::fs::write(&spans_path, spans_json))
    {
        eprintln!("could not write {}: {e}", spans_path.display());
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(k, (v, unit))| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}
