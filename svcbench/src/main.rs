//! `svcbench`: end-to-end benchmark of the AOFT sort service.
//!
//! ```text
//! svcbench --workload NAME --seed N --seconds S --trace 0|1
//!          [--span-file PATH] [--save PATH]
//! svcbench --compare SAVED_A SAVED_B
//! ```
//!
//! One process runs one workload (`small-inproc`, `large-inproc`,
//! `small-mux`, `faulted`): it drives several fresh service instances in
//! turn from closed-loop clients for about `S` seconds in all and checks
//! every answer against `sort_unstable` of its input. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` alternates plain and traced
//! sub-windows, runs the per-layer probes, reports the per-layer metrics and
//! writes the spans.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A wrong answer is reported as silent corruption and the exit code is 1.
//! See `README.md` beside this file for the workloads and metrics.

mod drive;
mod host;
mod probes;
mod spans;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use aoft_net::{InProc, MuxTransport};
use serde::Serialize;

use crate::drive::{median, percentile, Window};
use crate::host::{Host, Saved, SavedRun};
use crate::spans::Recorder;
use crate::workload::{Medium, Net, Shape, NODES};

struct Options {
    shape: &'static Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
    span_file: Option<PathBuf>,
    save: Option<PathBuf>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => std::process::exit(host::compare(a, b)),
            _ => usage("--compare needs two saved results"),
        }
    }
    let options = parse(&args).unwrap_or_else(|e| usage(&e));
    let code = match options.shape.medium {
        Medium::InProc => bench::<InProc>(&options),
        Medium::Mux => bench::<MuxTransport>(&options),
    };
    std::process::exit(code);
}

fn usage(problem: &str) -> ! {
    eprintln!("svcbench: {problem}");
    eprintln!(
        "usage: svcbench --workload NAME --seed N --seconds S --trace 0|1 \
         [--span-file PATH] [--save PATH]"
    );
    eprintln!("       svcbench --compare SAVED_A SAVED_B");
    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(", "));
    std::process::exit(2);
}

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let required = |flag: &str| value(flag).ok_or_else(|| format!("missing {flag}"));
    let name = required("--workload")?;
    let shape = Shape::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = required("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_string())?;
    let seconds: f64 = required("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    Ok(Options {
        shape,
        seed,
        seconds,
        trace,
        span_file: value("--span-file").map(PathBuf::from),
        save: value("--save").map(PathBuf::from),
    })
}

/// One metric of the run, with the base its value was computed from.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    base: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64, base: String) -> Metric {
    Metric {
        name,
        unit,
        value,
        base,
    }
}

#[derive(Serialize)]
struct Reported {
    value: f64,
    unit: String,
}

#[derive(Serialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Reported>,
}

fn bench<N: Net>(options: &Options) -> i32 {
    let shape = options.shape;
    let host = Host::detect();
    println!(
        "svcbench {} seed {} seconds {} trace {}: {} keys per job, d=3, {} worker(s), {} closed-loop client(s)",
        shape.name,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        shape.keys_per_job,
        shape.workers,
        shape.clients
    );
    println!(
        "host nproc={} cpu={:?} rustc={:?} profile={} git={}",
        host.nproc, host.cpu, host.rustc, host.profile, host.git_sha
    );

    let inputs = workload::inputs(shape, options.seed);
    let secs = Duration::from_secs_f64;
    let mut tally = Tally::default();
    let outcome = if options.trace {
        // Plain and traced sub-windows alternate, so drift on the host
        // moves both sides of the tracing-overhead comparison alike.
        let slots = ((options.seconds * 0.8).round() as usize).clamp(3, 48);
        let length = secs(options.seconds * 0.4 / slots as f64);
        let (mut plain, mut traced, mut pairs) = (Vec::new(), Vec::new(), Vec::new());
        let mut delta = Counters::default();
        segmented::<N>(shape, &inputs, slots, &mut tally, |service, next| {
            let p = drive::window(service, shape, &inputs, *next, length, false);
            *next += p.attempted as usize;
            let before = Counters::read();
            let t = drive::window(service, shape, &inputs, *next, length, true);
            delta.add(&Counters::read().minus(&before));
            *next += t.attempted as usize;
            pairs.push((median(&p.latencies_ms()), median(&t.latencies_ms())));
            plain.push(p);
            traced.push(t);
            true
        })
        .map(|_| {
            let (plain, traced) = (Window::merge(plain), Window::merge(traced));
            let mut rec = Recorder::new();
            let layers = probes::run::<N>(shape, &inputs, secs(options.seconds * 0.2), &mut rec);
            tally.add(&plain);
            tally.add(&traced);
            tally.wrong.extend(layers.wrong.iter().cloned());
            let latencies = traced.latencies_ms();
            let p99 = format!(
                "{:.4} ms (diagnostic: traced windows, {} samples)",
                percentile(&latencies, 99.0),
                latencies.len()
            );
            diagnostics(&tally, &p99);
            let metrics = per_layer(&pairs, &traced, &layers, &delta);
            let path = options.span_file.clone().unwrap_or_else(|| {
                let target =
                    std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
                target
                    .join("svcbench")
                    .join(format!("spans-{}-{}.jsonl", shape.name, options.seed))
            });
            let mut all = traced.spans;
            all.extend(rec.spans);
            write_spans(&path, options, &host, &all, &metrics);
            metrics
        })
    } else {
        // Sub-windows of half a second, each reduced to its summary as it
        // ends (so memory does not grow with the jobs done); the end-to-end
        // metrics are medians over the summaries. A sub-window in which the
        // host stole CPU time does not count, and up to as many again run
        // in its place.
        let slots = ((options.seconds * 2.0).round() as usize).clamp(3, 120);
        let length = secs(options.seconds / slots as f64);
        let mut parts = Vec::with_capacity(slots);
        let mut windows = Tally::default();
        segmented::<N>(shape, &inputs, slots, &mut tally, |service, next| {
            let part = drive::window(service, shape, &inputs, *next, length, false);
            *next += part.attempted as usize;
            windows.add(&part);
            let summary = Summary::of(&part, host.nproc);
            let calm = summary.steal <= CALM_STEAL;
            parts.push(summary);
            calm
        })
        .map(|setups| {
            tally.merge(windows);
            let p99 = median(&parts.iter().map(|p| p.p99).collect::<Vec<_>>());
            let jobs: usize = parts.iter().map(|p| p.jobs).sum();
            diagnostics(
                &tally,
                &format!(
                    "{p99:.4} ms (diagnostic: median over {} sub-windows of {jobs} samples in all)",
                    parts.len()
                ),
            );
            end_to_end(&parts, &setups)
        })
    };
    let metrics = match outcome {
        Ok(metrics) => metrics,
        Err(problem) => {
            eprintln!("svcbench: set-up failed: {problem}");
            return 1;
        }
    };
    let Tally {
        attempted,
        failed,
        wrong,
        ..
    } = tally;

    println!("{:<32} {:>14} {:<14} base", "metric", "value", "unit");
    for m in &metrics {
        println!("{:<32} {:>14.4} {:<14} {}", m.name, m.value, m.unit, m.base);
    }
    for problem in &wrong {
        println!("SILENT CORRUPTION: {problem}");
        eprintln!("svcbench: SILENT CORRUPTION: {problem}");
    }
    let correct = wrong.is_empty();
    if let Some(path) = &options.save {
        save(path, options, &host, correct, &metrics);
    }
    let line = ResultLine {
        correct,
        attempted,
        // A wrong answer is a failed job too.
        failed: failed + wrong.len() as u64,
        metrics: metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not a finite number", m.name);
                (
                    m.name.to_string(),
                    Reported {
                        value: m.value,
                        unit: m.unit.to_string(),
                    },
                )
            })
            .collect(),
    };
    println!(
        "{}",
        serde_json::to_string(&line).expect("the result serializes")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Service instances per run. A service instance settles into its own
/// speed (which sessions share a servicer, where its threads land), and
/// that level differs between instances by up to 10% on mux; measuring
/// across several fresh instances averages it out.
const SEGMENTS: usize = 10;

/// Timed fresh set-ups per instance; `setup_s` is the median over all.
const SETUPS_PER_SEGMENT: usize = 2;

/// A sub-window is calm when the hypervisor stole at most this share of
/// the machine's CPU time during it.
const CALM_STEAL: f64 = 0.02;

/// Runs `slots` measurement slots spread over up to [`SEGMENTS`] fresh
/// service instances. Each instance is set up [`SETUPS_PER_SEGMENT`] times
/// (timed; the last is kept) and warmed for 0.1 s before its slots run.
/// `slot` gets the instance and the next input index and says whether the
/// slot counts; an instance runs slots until its share of them counts, or
/// twice its share has run. Returns every set-up time in seconds; warm-up
/// answers are checked into `tally`.
fn segmented<N: Net>(
    shape: &Shape,
    inputs: &[workload::Job],
    slots: usize,
    tally: &mut Tally,
    mut slot: impl FnMut(&aoft_svc::SortService<N>, &mut usize) -> bool,
) -> Result<Vec<f64>, String> {
    let segments = slots.min(SEGMENTS);
    let mut setups = Vec::new();
    let mut next = 0;
    for segment in 0..segments {
        let (service, times) = drive::set_up::<N>(shape, inputs, SETUPS_PER_SEGMENT)?;
        setups.extend(times);
        let warm = drive::window(
            &service,
            shape,
            inputs,
            next,
            Duration::from_millis(100),
            false,
        );
        next += warm.attempted as usize;
        tally.wrong.extend(warm.wrong);
        let share = (segment + 1) * slots / segments - segment * slots / segments;
        let (mut counted, mut run) = (0, 0);
        while counted < share && run < 2 * share {
            counted += usize::from(slot(&service, &mut next));
            run += 1;
        }
    }
    Ok(setups)
}

/// Counts over every measured window of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: Vec<String>,
    faulted: usize,
    undetected: usize,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong.extend(other.wrong);
        self.faulted += other.faulted;
        self.undetected += other.undetected;
    }

    fn add(&mut self, window: &Window) {
        self.attempted += window.attempted;
        self.failed += window.failed;
        self.wrong.extend(window.wrong.iter().cloned());
        self.faulted += window.records.iter().filter(|r| r.faulted).count();
        self.undetected += window.faults_undetected();
    }
}

/// One end-to-end sub-window, reduced to what the metrics need.
struct Summary {
    /// Share of the machine's CPU time the hypervisor stole.
    steal: f64,
    jobs: usize,
    p50: f64,
    p90: f64,
    p99: f64,
    jobs_per_s: f64,
    cpu_ms_per_job: f64,
}

impl Summary {
    fn of(window: &Window, nproc: u64) -> Self {
        let latencies = window.latencies_ms();
        let jobs = latencies.len();
        let seconds = window.elapsed.as_secs_f64();
        Self {
            steal: window.steal as f64 / (seconds * 100.0 * nproc as f64),
            jobs,
            p50: percentile(&latencies, 50.0),
            p90: percentile(&latencies, 90.0),
            p99: percentile(&latencies, 99.0),
            jobs_per_s: jobs as f64 / seconds,
            cpu_ms_per_job: window.cpu.as_secs_f64() * 1e3 / jobs.max(1) as f64,
        }
    }
}

/// Diagnostics printed with every run but not gated: the failure share, the
/// p99 with its sample count, and faults that went undetected.
fn diagnostics(tally: &Tally, p99: &str) {
    let share = if tally.attempted == 0 {
        0.0
    } else {
        (tally.failed + tally.wrong.len() as u64) as f64 / tally.attempted as f64
    };
    println!(
        "failed_share {share:.6} share ({} failed or refused, {} wrong, of {} attempted)",
        tally.failed,
        tally.wrong.len(),
        tally.attempted
    );
    println!("latency_p99_ms {p99}");
    println!(
        "faults_undetected {} of {} faulted jobs finished in one attempt",
        tally.undetected, tally.faulted
    );
}

/// The end-to-end metrics: medians over the calm sub-windows, since time
/// the hypervisor gave to other machines is no cost of this program. When
/// fewer than a third are calm, the least stolen third.
fn end_to_end(parts: &[Summary], setups: &[f64]) -> Vec<Metric> {
    let mut order: Vec<&Summary> = parts.iter().collect();
    order.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let calm = order.iter().filter(|p| p.steal <= CALM_STEAL).count();
    let (kept, dropped) = order.split_at(calm.max(parts.len().div_ceil(3)));
    let jobs: usize = kept.iter().map(|p| p.jobs).sum();
    let of = |f: fn(&Summary) -> f64| median(&kept.iter().map(|p| f(p)).collect::<Vec<_>>());
    let fastest = setups.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = setups.iter().copied().fold(0.0, f64::max);
    let pct = |p: Option<&&Summary>| p.map_or(0.0, |p| p.steal * 100.0);
    println!(
        "host steal: kept {} sub-windows at {:.1}..{:.1}% stolen, dropped {} at {:.1}..{:.1}%",
        kept.len(),
        pct(kept.first()),
        pct(kept.last()),
        dropped.len(),
        pct(dropped.first()),
        pct(dropped.last()),
    );
    let per_part = format!(
        "median over the {} least stolen of {} sub-windows, {jobs} verified jobs",
        kept.len(),
        parts.len()
    );
    vec![
        metric(
            "setup_s",
            "s",
            median(setups),
            format!(
                "median of {} fresh set-ups ({:.2}..{:.2} ms)",
                setups.len(),
                fastest * 1e3,
                slowest * 1e3
            ),
        ),
        metric(
            "latency_p50_ms",
            "ms",
            of(|p| p.p50),
            format!("{per_part}, submit to verified answer"),
        ),
        metric(
            "latency_p90_ms",
            "ms",
            of(|p| p.p90),
            format!("{per_part}, submit to verified answer"),
        ),
        metric(
            "jobs_per_s",
            "1/s",
            of(|p| p.jobs_per_s),
            format!("{per_part}, verified jobs / sub-window seconds"),
        ),
        metric(
            "cpu_ms_per_job",
            "ms",
            of(|p| p.cpu_ms_per_job),
            format!("{per_part}, process user+sys CPU / verified jobs"),
        ),
        metric(
            "rss_peak_mb",
            "MB",
            host::rss_peak_mb(),
            "VmHWM of this workload's process".to_string(),
        ),
    ]
}

/// Process-global counters read around the traced window.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    predicate_checks: u64,
    mux_bytes_sent: u64,
    mux_writes: u64,
    mux_frames: u64,
    pool_leases: u64,
}

impl Counters {
    fn read() -> Self {
        let obs = aoft_obs::global();
        Self {
            predicate_checks: obs.predicate_checks.total(),
            mux_bytes_sent: obs.mux_bytes_sent.total(),
            mux_writes: obs.mux_frames_per_write.count(),
            // Count-valued histogram: the sum is recorded in the
            // microsecond field.
            mux_frames: obs.mux_frames_per_write.sum().as_micros() as u64,
            pool_leases: obs.buf_pool_leases.get(),
        }
    }

    fn add(&mut self, other: &Self) {
        self.predicate_checks += other.predicate_checks;
        self.mux_bytes_sent += other.mux_bytes_sent;
        self.mux_writes += other.mux_writes;
        self.mux_frames += other.mux_frames;
        self.pool_leases += other.pool_leases;
    }

    fn minus(&self, earlier: &Self) -> Self {
        Self {
            predicate_checks: self.predicate_checks - earlier.predicate_checks,
            mux_bytes_sent: self.mux_bytes_sent - earlier.mux_bytes_sent,
            mux_writes: self.mux_writes - earlier.mux_writes,
            mux_frames: self.mux_frames - earlier.mux_frames,
            pool_leases: self.pool_leases - earlier.pool_leases,
        }
    }
}

/// `pairs` holds the (plain, traced) p50 of each pair of alternating
/// sub-windows.
fn per_layer(
    pairs: &[(f64, f64)],
    traced: &Window,
    l: &probes::Layers,
    delta: &Counters,
) -> Vec<Metric> {
    let records = &traced.records;
    let jobs = records.len().max(1) as f64;
    let n = records.len();
    let attempts: u64 = records.iter().map(|r| u64::from(r.attempts)).sum();
    let recovered = records.iter().filter(|r| r.recovered).count() as u64;
    let service_ms: Vec<f64> = records.iter().map(|r| r.service_ms).collect();
    let job_ms = median(&service_ms);
    // Attempt time a job spends inside the cube: a recovered job's first two
    // attempts are a detected attempt and a subcube retry, every other
    // attempt is a full clean one.
    let modeled = (recovered as f64 * (l.detect_ms.median + l.retry_ms.median)
        + (attempts - 2 * recovered) as f64 * l.attempt_ms.median)
        / jobs;
    let per_job = |total: f64| total / jobs;
    let probe = |p: &probes::Probe, what: &str| format!("median of {} {what}", p.samples);
    let overheads: Vec<f64> = pairs.iter().map(|(p, t)| (t / p - 1.0) * 100.0).collect();
    vec![
        metric(
            "svc.job_ms",
            "ms",
            job_ms,
            format!("median JobReport.latency (submit to completion) of {n} traced jobs"),
        ),
        metric(
            "svc.attempts_per_job",
            "attempts/job",
            attempts as f64 / jobs,
            format!("{attempts} attempts / {n} jobs"),
        ),
        metric(
            "svc.overhead_ms",
            "ms",
            job_ms - modeled,
            format!(
                "svc.job_ms - ({recovered} recovered x (core.detect_ms + core.retry_ms) + {} x sim.attempt_ms) / {n} jobs",
                attempts - 2 * recovered
            ),
        ),
        metric(
            "svc.effort_ticks_per_job",
            "ticks/job",
            per_job(records.iter().map(|r| r.effort as f64).sum()),
            format!("JobReport.effort summed over {n} jobs, every attempt billed"),
        ),
        metric(
            "svc.recovered_share",
            "share",
            recovered as f64 / jobs,
            format!("{recovered} recovered / {n} jobs"),
        ),
        metric(
            "sim.attempt_ms",
            "ms",
            l.attempt_ms.median,
            probe(&l.attempt_ms, "S_FT run_on attempts, warm LinkCache + MappedTransport"),
        ),
        metric(
            "sim.snr_attempt_ms",
            "ms",
            l.snr_attempt_ms.median,
            probe(&l.snr_attempt_ms, "S_NR run_on attempts, same cache"),
        ),
        metric(
            "sim.spawn_ms",
            "ms",
            l.spawn_ms.median,
            probe(&l.spawn_ms, &format!("spawn+join of {} bare threads", NODES + 1)),
        ),
        metric(
            "sim.msgs_per_job",
            "msgs/job",
            per_job(records.iter().map(|r| r.msgs as f64).sum()),
            format!("messages sent in the successful attempt, over {n} jobs"),
        ),
        metric(
            "sim.words_per_job",
            "words/job",
            per_job(records.iter().map(|r| r.words as f64).sum()),
            format!("words sent in the successful attempt, over {n} jobs"),
        ),
        metric(
            "core.check_ms",
            "ms",
            l.attempt_ms.median - l.snr_attempt_ms.median,
            "sim.attempt_ms - sim.snr_attempt_ms (S_FT minus S_NR)".to_string(),
        ),
        metric(
            "core.predicate_us",
            "us",
            l.predicate_us.median,
            probe(&l.predicate_us, "batches of bit_compare_stage_with at the last stage"),
        ),
        metric(
            "core.merge_us",
            "us",
            l.merge_us.median,
            probe(&l.merge_us, "batches of merge_split_reuse (inputs restored per call)"),
        ),
        metric(
            "core.host_sort_ms",
            "ms",
            l.host_sort_ms.median,
            probe(&l.host_sort_ms, "batches of copy + sort_unstable of one job"),
        ),
        metric(
            "core.predicate_checks_per_job",
            "checks/job",
            per_job(delta.predicate_checks as f64),
            format!(
                "delta aoft_predicate_checks_total {} / {n} jobs ({attempts} attempts)",
                delta.predicate_checks
            ),
        ),
        metric(
            "core.detect_ms",
            "ms",
            l.detect_ms.median,
            format!(
                "median of {} CorruptValue attempts to fail-stop ({} undetected)",
                l.detect_ms.samples, l.detect_misses
            ),
        ),
        metric(
            "core.retry_ms",
            "ms",
            l.retry_ms.median,
            probe(&l.retry_ms, "diagnoses + subcube retries"),
        ),
        metric(
            "net.rtt_us",
            "us",
            l.rtt_us.median,
            probe(&l.rtt_us, "round trips of a last-stage frame"),
        ),
        metric(
            "net.encode_us",
            "us",
            l.encode_us.median,
            probe(&l.encode_us, "batches of stage-frame encodes"),
        ),
        metric(
            "net.decode_us",
            "us",
            l.decode_us.median,
            probe(&l.decode_us, "batches of stage-frame decodes"),
        ),
        metric(
            "net.session_setup_ms",
            "ms",
            l.session_setup_ms.median,
            probe(&l.session_setup_ms, "fresh transports to first frame delivered"),
        ),
        metric(
            "net.bytes_per_job",
            "B/job",
            per_job(delta.mux_bytes_sent as f64),
            format!(
                "delta aoft_mux_bytes_sent_total {} / {n} jobs (0 without a wire)",
                delta.mux_bytes_sent
            ),
        ),
        metric(
            "net.frames_per_write",
            "frames/write",
            if delta.mux_writes == 0 {
                0.0
            } else {
                delta.mux_frames as f64 / delta.mux_writes as f64
            },
            format!(
                "{} frames / {} mux session writes",
                delta.mux_frames, delta.mux_writes
            ),
        ),
        metric(
            "net.pool_leases_per_job",
            "leases/job",
            per_job(delta.pool_leases as f64),
            format!("delta aoft_buf_pool_leases_total {} / {n} jobs", delta.pool_leases),
        ),
        metric(
            "trace.overhead_pct",
            "%",
            median(&overheads),
            format!(
                "median over {} alternating sub-window pairs of (traced p50 / plain p50 - 1), {n} traced jobs",
                pairs.len()
            ),
        ),
    ]
}

#[derive(Serialize)]
struct SpanHeader {
    svcbench: String,
    seed: u64,
    seconds: f64,
    host: Host,
}

#[derive(Serialize)]
struct SpanTrailer {
    metric: String,
    value: f64,
    unit: String,
    base: String,
}

fn write_spans(
    path: &Path,
    options: &Options,
    host: &Host,
    all: &[spans::Span],
    metrics: &[Metric],
) {
    let header = SpanHeader {
        svcbench: options.shape.name.to_string(),
        seed: options.seed,
        seconds: options.seconds,
        host: host.clone(),
    };
    let trailer: Vec<String> = metrics
        .iter()
        .map(|m| {
            serde_json::to_string(&SpanTrailer {
                metric: m.name.to_string(),
                value: m.value,
                unit: m.unit.to_string(),
                base: m.base.clone(),
            })
            .expect("a summary line serializes")
        })
        .collect();
    let header = serde_json::to_string(&header).expect("the span header serializes");
    match spans::write_file(path, &header, all, &trailer) {
        Ok(()) => println!("spans: {} written to {}", all.len(), path.display()),
        Err(e) => eprintln!("svcbench: cannot write spans to {}: {e}", path.display()),
    }
}

fn save(path: &Path, options: &Options, host: &Host, correct: bool, metrics: &[Metric]) {
    let run = SavedRun {
        host: host.clone(),
        workload: options.shape.name.to_string(),
        seed: options.seed,
        seconds: options.seconds,
        trace: options.trace,
        correct,
        metrics: metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Saved {
                        value: m.value,
                        unit: m.unit.to_string(),
                        base: m.base.clone(),
                    },
                )
            })
            .collect(),
    };
    let text = serde_json::to_string_pretty(&run).expect("the saved run serializes");
    if let Err(e) = std::fs::write(path, format!("{text}\n")) {
        eprintln!("svcbench: cannot save to {}: {e}", path.display());
    }
}
