//! Self-test of the benchmark: every workload, briefly, in both modes. Each
//! run must exit 0, answer correctly, and print every metric that
//! `BENCHMARK.json` declares for that mode, with the declared unit.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use serde::{Deserialize, Serialize};

#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Benchmark {
    workloads: Vec<Workload>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Deserialize)]
struct Workload {
    name: String,
}

#[derive(Deserialize)]
struct Reported {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Reported>,
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn benchmark() -> Benchmark {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("parse BENCHMARK.json")
}

fn svcbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_svcbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("run svcbench")
}

fn run_workload(name: &str, trace: bool) -> ResultLine {
    let spans = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("spans-{name}.jsonl"));
    let out = svcbench(&[
        "--workload",
        name,
        "--seed",
        "7",
        "--seconds",
        "0.3",
        "--trace",
        if trace { "1" } else { "0" },
        "--span-file",
        spans.to_str().expect("a UTF-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{name} (trace {trace}) exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: ResultLine = serde_json::from_str(last).expect("the last line is the JSON result");
    if trace {
        let text = std::fs::read_to_string(&spans).expect("the traced run writes its span file");
        for name in [
            "\"span\":\"job\"",
            "\"span\":\"svc.wait\"",
            "\"span\":\"sim.attempt\"",
            "\"base\":",
        ] {
            assert!(text.contains(name), "span file lacks {name}");
        }
    }
    result
}

fn check_workload(name: &str) {
    let bench = benchmark();
    assert!(
        bench.workloads.iter().any(|w| w.name == name),
        "{name} is declared"
    );
    for (trace, declared) in [(false, &bench.end_to_end), (true, &bench.per_layer)] {
        let result = run_workload(name, trace);
        assert!(result.correct, "{name}: wrong answers");
        assert!(result.attempted >= 1, "{name}: no job attempted");
        assert_eq!(result.failed, 0, "{name}: jobs failed");
        assert_eq!(
            result.metrics.len(),
            declared.len(),
            "{name} (trace {trace}) prints exactly the declared metrics"
        );
        for d in declared {
            let m = result
                .metrics
                .get(&d.name)
                .unwrap_or_else(|| panic!("{name} (trace {trace}) lacks {}", d.name));
            assert_eq!(m.unit, d.unit, "{name}: unit of {}", d.name);
            assert!(m.value.is_finite(), "{name}: {} = {}", d.name, m.value);
        }
    }
}

#[test]
fn small_inproc_prints_every_metric() {
    check_workload("small-inproc");
}

#[test]
fn large_inproc_prints_every_metric() {
    check_workload("large-inproc");
}

#[test]
fn small_mux_prints_every_metric() {
    check_workload("small-mux");
}

#[test]
fn faulted_prints_every_metric() {
    check_workload("faulted");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = svcbench(&[
        "--workload",
        "no-such-workload",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[derive(Serialize)]
struct Host {
    nproc: u64,
    cpu: String,
    rustc: String,
    profile: String,
    git_sha: String,
}

#[derive(Serialize)]
struct SavedRun {
    host: Host,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    correct: bool,
    metrics: BTreeMap<String, SavedMetric>,
}

#[derive(Serialize)]
struct SavedMetric {
    value: f64,
    unit: String,
    base: String,
}

#[test]
fn compare_refuses_results_from_different_hosts() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let saved = |nproc: u64| SavedRun {
        host: Host {
            nproc,
            cpu: "cpu".into(),
            rustc: "rustc".into(),
            profile: "release".into(),
            git_sha: "sha".into(),
        },
        workload: "small-inproc".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        correct: true,
        metrics: BTreeMap::from([(
            "latency_p50_ms".to_string(),
            SavedMetric {
                value: 1.0,
                unit: "ms".into(),
                base: "one sample".into(),
            },
        )]),
    };
    let write = |file: &str, run: &SavedRun| {
        let path = dir.join(file);
        std::fs::write(&path, serde_json::to_string(run).expect("serialize")).expect("write");
        path.to_str().expect("a UTF-8 path").to_string()
    };
    let one = write("one-core.json", &saved(1));
    let two = write("two-core.json", &saved(2));
    let same = svcbench(&["--compare", &two, &two]);
    assert_eq!(same.status.code(), Some(0));
    let mixed = svcbench(&["--compare", &one, &two]);
    assert_eq!(
        mixed.status.code(),
        Some(2),
        "mismatched hosts must be refused"
    );
    assert!(String::from_utf8_lossy(&mixed.stderr).contains("REFUSING"));
}
