//! The benchmark assembles every run itself so that it can time setup and
//! slip its wrappers in. On a short horizon, its bare and its wrapped runs
//! must reproduce the library drivers' fingerprints and event counts for
//! all four driver shapes, on an attempt's first run and on a later run,
//! which draws new traffic and reuses the model trained for the first.

use std::path::PathBuf;

use elephant_des::EpochMode;
use elephant_scenario::{compile, load, run_fingerprint, CompileOverrides, Compiled};
use perfbench::spans::Spans;
use perfbench::workload::{attempt, oracle_stack, train_model, Driver, Fingerprint, WORKLOADS};

const SEED: u64 = 5;

fn overrides() -> CompileOverrides {
    CompileOverrides {
        seed: Some(SEED),
        horizon_ms: Some(12.0),
        ..Default::default()
    }
}

fn scenarios() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios")
}

/// The same run through the library's own driver for `driver`, with the
/// hybrid model trained from `model_seed`.
fn library_run(driver: Driver, compiled: &Compiled, model_seed: u64) -> Fingerprint {
    let fp = |nets: &[&elephant_net::Network], events, partitioned: bool| Fingerprint {
        run: run_fingerprint(nets.iter().copied()),
        partitions: if partitioned {
            nets.iter().map(|n| run_fingerprint([*n])).collect()
        } else {
            Vec::new()
        },
        events,
        flows_completed: nets.iter().map(|n| n.stats.flows_completed).sum(),
    };
    let stack = || {
        let (model, _) = train_model(model_seed, &mut Spans::default());
        oracle_stack(
            model,
            &compiled.hybrid,
            compiled.params,
            compiled.seed,
            None,
        )
        .oracle
    };
    match driver {
        Driver::Sequential => {
            let (net, meta) = compiled.run_sequential(None);
            fp(&[&net], meta.events, false)
        }
        Driver::Hybrid => {
            let (net, meta) = compiled.run_hybrid(stack(), None);
            fp(&[&net], meta.events, false)
        }
        Driver::HybridSupervised => {
            let policy = compiled.recovery.expect("[recovery] declared");
            let run = compiled
                .run_hybrid_supervised(stack(), &policy)
                .expect("supervised run");
            assert_eq!(run.log.checkpoints_taken, 3, "{}", run.log.summary());
            fp(&run.nets.iter().collect::<Vec<_>>(), run.events, false)
        }
        Driver::Pdes => {
            let run = compiled
                .run_pdes(None, EpochMode::Adaptive, None)
                .expect("PDES run");
            fp(&run.nets.iter().collect::<Vec<_>>(), run.events(), true)
        }
    }
}

#[test]
fn wrapped_and_bare_runs_match_the_library_drivers() {
    let dir = scenarios();
    for w in WORKLOADS {
        let scenario = load(&dir.join(w.scenario).to_string_lossy()).expect("scenario loads");
        let expected: Vec<Fingerprint> = [SEED, SEED + 1]
            .into_iter()
            .map(|seed| {
                let compiled = compile(
                    &scenario,
                    &CompileOverrides {
                        seed: Some(seed),
                        ..overrides()
                    },
                );
                library_run(w.driver, &compiled, SEED)
            })
            .collect();
        assert!(
            expected[0].events > 0 && expected[0].flows_completed > 0,
            "{}",
            w.name
        );
        assert_ne!(expected[0], expected[1], "{}: the draws differ", w.name);
        for traced in [false, true] {
            let out = attempt(&w, &dir, &overrides(), traced, 2, &mut Spans::default())
                .unwrap_or_else(|e| panic!("{} (traced {traced}): {e}", w.name));
            let seeds: Vec<u64> = out.runs.iter().map(|r| r.seed).collect();
            assert_eq!(seeds, [SEED, SEED + 1], "{}", w.name);
            for (run, expected) in out.runs.iter().zip(&expected) {
                assert_eq!(
                    run.fingerprint, *expected,
                    "{} (traced {traced}, seed {})",
                    w.name, run.seed
                );
            }
            assert_eq!(out.layers.is_empty(), !traced, "{}", w.name);
            if traced && w.driver == Driver::HybridSupervised {
                assert_eq!(out.layers["des.checkpoint.count"], 3.0, "{}", w.name);
            }
        }
    }
}

#[test]
fn traced_attempts_report_every_per_layer_metric() {
    let dir = scenarios();
    let w = WORKLOADS[0];
    let out = attempt(&w, &dir, &overrides(), true, 1, &mut Spans::default()).expect("attempt");
    for (name, _) in perfbench::PER_LAYER {
        let value = out
            .layers
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert!(value.is_finite(), "{name} = {value}");
    }
    assert_eq!(
        out.layers.len(),
        perfbench::PER_LAYER.len(),
        "no unlisted metric"
    );
    let events = out.layers["des.sched.events"];
    assert_eq!(events, out.runs[0].fingerprint.events as f64);
    let by_kind: f64 = perfbench::probe::KIND_NAMES
        .iter()
        .map(|k| out.layers[&format!("net.{k}.count")])
        .sum();
    assert_eq!(by_kind, events, "per-kind counts cover every event");
}
