//! Host fingerprint, process counters read from procfs, and the saved-result
//! comparison that refuses to compare results from different hosts.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// What a timing depends on besides the code: a result is only comparable
/// with another taken on an equal fingerprint (the git SHA aside).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    pub nproc: u64,
    pub cpu: String,
    pub rustc: String,
    pub profile: String,
    /// The commit measured, or `unknown` outside a git checkout.
    pub git_sha: String,
}

impl Host {
    pub fn detect() -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu: cpu_model(),
            rustc: env!("SVCBENCH_RUSTC").to_string(),
            profile: env!("SVCBENCH_PROFILE").to_string(),
            git_sha: git_sha(Path::new(".")),
        }
    }

    /// The fields that must match for two results to be comparable.
    fn mismatches(&self, other: &Host) -> Vec<String> {
        let mut out = Vec::new();
        let mut check = |field: &str, a: String, b: String| {
            if a != b {
                out.push(format!("{field}: {a:?} vs {b:?}"));
            }
        };
        check("nproc", self.nproc.to_string(), other.nproc.to_string());
        check("cpu", self.cpu.clone(), other.cpu.clone());
        check("rustc", self.rustc.clone(), other.rustc.clone());
        check("profile", self.profile.clone(), other.profile.clone());
        out
    }
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Reads `HEAD` out of `root/.git` directly, so the benchmark never looks
/// outside its checkout for a repository.
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&git.join(reference)) {
        return sha;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// User plus system CPU time of the whole process, every thread included
/// (exited threads too), from `/proc/self/stat`. Linux reports it in clock
/// ticks of `USER_HZ`, which is 100 on every mainstream architecture.
pub fn process_cpu() -> Duration {
    const USER_HZ: u64 = 100;
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 1000 / USER_HZ)
}

/// Steal time of the whole machine in `USER_HZ` clock ticks, summed over
/// CPUs: time the hypervisor gave to someone else while a CPU of this
/// machine wanted to run (the eighth counter of the `cpu` line of
/// `/proc/stat`; 0 where the kernel does not report it).
pub fn steal_ticks() -> u64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Peak resident set size (`VmHWM`) of the process, in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// One metric as saved with `--save`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Saved {
    pub value: f64,
    pub unit: String,
    pub base: String,
}

/// A whole run as saved with `--save`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedRun {
    pub host: Host,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub correct: bool,
    pub metrics: BTreeMap<String, Saved>,
}

/// Compares two saved runs metric by metric. Returns the exit code: 2 when
/// the hosts, workloads or modes differ (a loud refusal, not a verdict),
/// 0 otherwise.
pub fn compare(a_path: &str, b_path: &str) -> i32 {
    let load = |path: &str| -> Result<SavedRun, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("svcbench: {e}");
            return 2;
        }
    };
    let mut refusals = a.host.mismatches(&b.host);
    if a.workload != b.workload || a.trace != b.trace {
        refusals.push(format!(
            "workload: {} (trace {}) vs {} (trace {})",
            a.workload, a.trace, b.workload, b.trace
        ));
    }
    if !refusals.is_empty() {
        eprintln!("svcbench: REFUSING TO COMPARE {a_path} with {b_path}: the runs differ in");
        for r in &refusals {
            eprintln!("  {r}");
        }
        return 2;
    }
    println!(
        "{} ({} vs {}) on {} x {}",
        a.workload, a.host.git_sha, b.host.git_sha, a.host.nproc, a.host.cpu
    );
    for (name, before) in &a.metrics {
        match b.metrics.get(name) {
            Some(after) => {
                let change = if before.value != 0.0 {
                    format!("{:+.1}%", (after.value / before.value - 1.0) * 100.0)
                } else {
                    "n/a".to_string()
                };
                println!(
                    "  {name:<32} {:>14.4} -> {:>14.4} {:<12} {change}",
                    before.value, after.value, before.unit
                );
            }
            None => println!("  {name:<32} missing from {b_path}"),
        }
    }
    0
}
