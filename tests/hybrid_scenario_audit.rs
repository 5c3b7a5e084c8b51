//! Lockdown for scenario-driven hybrid audits: `run-scenario --audit`
//! must run the paired truth+hybrid comparison inside the scenario's
//! committed `[audit]` budget, gate on those bounds with exit 8, and be
//! deterministic end to end — repeating the audit reproduces the sealed
//! ledger pair's fingerprints and divergence verdict exactly.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use elephant::core::{
    capture_records, run_ground_truth, train_cluster_model, RunLedger, TrainingOptions,
};
use elephant::des::SimTime;
use elephant::net::{ClosParams, NetConfig, RttScope};
use elephant::trace::{generate, WorkloadConfig};

const SCENARIO: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/hybrid_smoke.toml");

fn elephant_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_elephant"))
}

fn tmp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("elephant_hybrid_scenario_audit");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Trains a model on the reference two-cluster capture and writes the
/// artifact. `epochs = 0` leaves the nets at their random initialization —
/// the "deliberately loosened" model the breach test deploys.
fn train_model_artifact(epochs: usize, name: &str) -> PathBuf {
    let params = ClosParams::paper_cluster(2);
    let horizon = SimTime::from_millis(12);
    let flows = generate(&params, &WorkloadConfig::paper_default(horizon, 9));
    let cfg = NetConfig {
        rtt_scope: RttScope::None,
        ..Default::default()
    };
    let (net, _) = run_ground_truth(params, cfg, Some(1), &flows, horizon);
    let records = capture_records(net).expect("capture was enabled");
    let (model, _) = train_cluster_model(
        &records,
        &params,
        &TrainingOptions {
            hidden: 8,
            layers: 1,
            epochs,
            ..Default::default()
        },
    );
    let path = tmp_dir().join(name);
    std::fs::write(&path, model.to_file_json()).unwrap();
    path
}

/// Both tests that want a competent model share one training run.
fn trained_model() -> PathBuf {
    static PATH: OnceLock<PathBuf> = OnceLock::new();
    PATH.get_or_init(|| train_model_artifact(2, "trained.json"))
        .clone()
}

/// The committed scenario with its `[audit]` KS bound tightened to 0.2 —
/// a budget the trained model meets with 2x margin and the untrained one
/// (KS ~0.33 on this workload) breaches.
fn tight_ks_scenario() -> PathBuf {
    let doc = std::fs::read_to_string(SCENARIO).expect("committed scenario reads");
    assert!(doc.contains("max_ks = 0.35"));
    let doc = doc.replace("max_ks = 0.35", "max_ks = 0.2");
    let path = tmp_dir().join("tight_ks.toml");
    std::fs::write(&path, doc).unwrap();
    path
}

/// The scenario's committed `[audit]` bounds hold for a trained model:
/// the paired run completes and gates clean (exit 0, "audit OK").
#[test]
fn hybrid_scenario_audit_within_committed_budget() {
    let model = trained_model().display().to_string();
    let out = elephant_bin()
        .args(["run-scenario", SCENARIO, "--model", &model, "--audit"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "audit must pass the committed budget\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("audit OK"),
        "verdict line missing: {stdout}"
    );
    assert!(
        stdout.contains("fingerprint:"),
        "hybrid-side fingerprint missing: {stdout}"
    );
}

/// Deploying a deliberately loosened (untrained) model breaches bounds a
/// trained model meets, and the breach exits 8 naming the failed axis.
#[test]
fn loosened_model_breaches_bounds_and_exits_8() {
    let scenario = tight_ks_scenario().display().to_string();

    let good = trained_model().display().to_string();
    let out = elephant_bin()
        .args(["run-scenario", &scenario, "--model", &good, "--audit"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "trained model must meet the tightened budget:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let loose = train_model_artifact(0, "untrained.json")
        .display()
        .to_string();
    let out = elephant_bin()
        .args(["run-scenario", &scenario, "--model", &loose, "--audit"])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(8),
        "untrained model must breach\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("audit FAILED"),
        "breach verdict missing: {stderr}"
    );
    assert!(stderr.contains("KS"), "failed axis not named: {stderr}");
}

/// Repeating the audit reproduces the sealed ledger pair: identical
/// fingerprints on both sides and a byte-identical divergence verdict.
/// (Wall-clock timings are the only fields allowed to differ.)
#[test]
fn repeat_audit_reproduces_the_sealed_ledger_pair() {
    let model = trained_model().display().to_string();
    let run = |tag: &str| -> (RunLedger, RunLedger) {
        let base = tmp_dir().join(format!("audit_{tag}.json"));
        let base_s = base.display().to_string();
        let out = elephant_bin()
            .args([
                "run-scenario",
                SCENARIO,
                "--model",
                &model,
                "--audit",
                "--metrics-out",
                &base_s,
            ])
            .output()
            .expect("binary runs");
        assert!(
            matches!(out.status.code(), Some(0) | Some(8)),
            "audit must run to verdict:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let hybrid = RunLedger::load(&base).expect("hybrid ledger validates");
        let truth_path = tmp_dir().join(format!("audit_{tag}.truth.json"));
        let truth = RunLedger::load(&truth_path).expect("truth ledger validates");
        (hybrid, truth)
    };
    let (h1, t1) = run("first");
    let (h2, t2) = run("second");

    assert!(h1.verify() && t1.verify(), "checksums seal the pair");
    assert_eq!(&h1.driver, "audit-hybrid");
    assert_eq!(&t1.driver, "audit-truth");
    assert_eq!(h1.fingerprint, h2.fingerprint, "hybrid side reproducible");
    assert_eq!(t1.fingerprint, t2.fingerprint, "truth side reproducible");
    let d1 = h1.divergence.expect("divergence block embedded");
    let d2 = h2.divergence.expect("divergence block embedded");
    assert_eq!(
        serde_json::to_string(&d1).unwrap(),
        serde_json::to_string(&d2).unwrap(),
        "divergence verdict must serialize to identical bytes"
    );
    assert!(t1.divergence.is_none(), "truth side carries no verdict");
}

/// `audit FILE` and `run-scenario FILE --audit` are one plan: the same
/// full cluster, the same `[guard]` choice, the same model fallback. On a
/// scenario whose `[model]` keeps cluster 1 and sheds the guard, both
/// commands seal equal fingerprints and equal divergence blocks, and
/// neither side carries guard rows.
#[test]
fn audit_command_and_run_scenario_audit_are_the_same_run() {
    let scenario = tmp_dir().join("audit_same_run.toml");
    std::fs::write(
        &scenario,
        "schema = 1\n\
         [scenario]\nname = \"audit-same-run\"\n\
         [topology]\nclusters = 2\n\
         [run]\nhorizon_ms = 6.0\nseed = 42\n\
         [[traffic]]\nkind = \"poisson\"\nload = 0.3\n\
         [model]\nfull_cluster = 1\ntrain_fallback = true\n\
         [guard]\nenabled = false\n\
         [audit]\nenabled = true\nmax_drop_rate_error = 1.0\nmax_ks = 1.0\nmax_w1_ratio = 100.0\n",
    )
    .unwrap();
    let scenario = scenario.display().to_string();
    let ledger = |args: &[&str], name: &str| {
        let path = tmp_dir().join(name);
        let path_s = path.display().to_string();
        let mut full = args.to_vec();
        full.push(&path_s);
        let out = elephant_bin().args(&full).output().expect("binary runs");
        assert!(
            out.status.success(),
            "elephant {full:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        RunLedger::load(&path).expect("ledger validates")
    };
    let a = ledger(&["audit", &scenario, "--ledger-out"], "same_run_a.json");
    let b = ledger(
        &["run-scenario", &scenario, "--audit", "--metrics-out"],
        "same_run_b.json",
    );
    assert_eq!(a.fingerprint, b.fingerprint, "the hybrid sides differ");
    let (da, db) = (a.divergence.expect("block"), b.divergence.expect("block"));
    assert_eq!(
        serde_json::to_string(&da).unwrap(),
        serde_json::to_string(&db).unwrap(),
        "the divergence blocks differ"
    );
    assert!(
        !da.slices.iter().any(|s| s.key.starts_with("guard_")),
        "[guard] enabled = false must shed the guard"
    );
}
