//! The load generator: timed service set-ups and closed-loop windows of
//! verified jobs.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use aoft_svc::{JobReport, SortService};

use crate::host::{process_cpu, steal_ticks};
use crate::spans::{Recorder, Span};
use crate::workload::{Job, Net, Shape, NODES};

/// What one completed, verified job tells the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    /// Client-side: `submit` to verified answer.
    pub latency_ms: f64,
    /// Service-side `JobReport::latency`: submit to completion.
    pub service_ms: f64,
    pub attempts: u32,
    pub effort: u64,
    pub recovered: bool,
    /// The job carried a fault plan.
    pub faulted: bool,
    pub msgs: u64,
    pub words: u64,
}

/// Everything one window measured.
#[derive(Debug, Default)]
pub struct Window {
    pub records: Vec<JobRecord>,
    pub attempted: u64,
    pub failed: u64,
    /// Silent corruption: answers that differ from `sort_unstable`.
    pub wrong: Vec<String>,
    pub elapsed: Duration,
    pub cpu: Duration,
    /// Clock ticks the hypervisor ran something else while this machine's
    /// CPUs wanted to run, summed over CPUs (`steal` in `/proc/stat`).
    pub steal: u64,
    pub spans: Vec<Span>,
}

impl Window {
    /// One window holding every part's jobs, counts and spans, spanning
    /// their summed time.
    pub fn merge(parts: Vec<Window>) -> Window {
        let mut out = Window::default();
        for part in parts {
            out.records.extend(part.records);
            out.attempted += part.attempted;
            out.failed += part.failed;
            out.wrong.extend(part.wrong);
            out.elapsed += part.elapsed;
            out.cpu += part.cpu;
            out.steal += part.steal;
            out.spans.extend(part.spans);
        }
        out
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.latency_ms).collect()
    }

    /// Faulted jobs that finished in one attempt: the fault went unseen.
    pub fn faults_undetected(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.faulted && r.attempts == 1)
            .count()
    }
}

/// Sets the service up `count` times from scratch and returns the last
/// instance with every set-up's duration in seconds. One set-up binds the
/// transport, starts the service and pushes one job through each worker
/// slot (submitted together, so every slot wires its links in the service's
/// link cache). Earlier instances are torn down outside the timing.
pub fn set_up<N: Net>(
    shape: &Shape,
    inputs: &[Job],
    count: usize,
) -> Result<(SortService<N>, Vec<f64>), String> {
    let mut times = Vec::with_capacity(count);
    let mut service = None;
    for _ in 0..count {
        drop(service.take());
        let start = Instant::now();
        let svc = SortService::start(shape.config(), N::open(NODES as u32))
            .map_err(|e| format!("service refused to start: {e}"))?;
        let handles: Vec<_> = inputs
            .iter()
            .take(shape.workers)
            .map(|job| {
                let spec = aoft_svc::JobSpec::new(job.keys.clone());
                svc.submit(spec).map(|h| (h, job))
            })
            .collect::<Result<_, _>>()
            .map_err(|e| format!("set-up job refused: {e}"))?;
        for (handle, job) in handles {
            let report = handle
                .wait()
                .map_err(|e| format!("set-up job failed: {e}"))?;
            check(&report, job).map_err(|e| format!("SILENT CORRUPTION: {e}"))?;
        }
        times.push(start.elapsed().as_secs_f64());
        service = Some(svc);
    }
    Ok((service.expect("at least one set-up"), times))
}

/// Compares an answer with the precomputed `sort_unstable` of its input.
fn check(report: &JobReport, job: &Job) -> Result<(), String> {
    if report.output == job.sorted {
        return Ok(());
    }
    let at = report
        .output
        .iter()
        .zip(&job.sorted)
        .position(|(a, b)| a != b)
        .unwrap_or(report.output.len().min(job.sorted.len()));
    Err(format!(
        "{}: answer differs from sort_unstable at index {at} ({} keys returned, {} expected, {} attempt(s))",
        report.id,
        report.output.len(),
        job.sorted.len(),
        report.attempts
    ))
}

/// Runs `shape.clients` closed-loop clients against `service` for `length`:
/// each submits a job, blocks on `JobHandle::wait`, checks the answer and
/// only then submits the next. Client `c` walks the input pool from index
/// `c` in steps of the client count, starting at `offset`. With a
/// `Recorder` per client (`traced`), each job gets a `job` span with
/// `svc.submit`, `svc.wait` and `bench.verify` children.
pub fn window<N: Net>(
    service: &SortService<N>,
    shape: &Shape,
    inputs: &[Job],
    offset: usize,
    length: Duration,
    traced: bool,
) -> Window {
    let clients = shape.clients;
    let barrier = Barrier::new(clients + 1);
    let (cpu_before, steal_before, start, parts) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let deadline = Instant::now() + length;
                    client_loop(service, inputs, offset + client, clients, deadline, traced)
                })
            })
            .collect();
        let cpu_before = process_cpu();
        let steal_before = steal_ticks();
        let start = Instant::now();
        barrier.wait();
        let parts: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (cpu_before, steal_before, start, parts)
    });
    let mut out = Window::merge(parts);
    out.elapsed = start.elapsed();
    out.cpu = process_cpu().saturating_sub(cpu_before);
    out.steal = steal_ticks().saturating_sub(steal_before);
    out
}

fn client_loop<N: Net>(
    service: &SortService<N>,
    inputs: &[Job],
    first: usize,
    stride: usize,
    deadline: Instant,
    traced: bool,
) -> Window {
    let mut out = Window::default();
    let mut rec = traced.then(Recorder::new);
    let mut index = first;
    while Instant::now() < deadline {
        let job = &inputs[index % inputs.len()];
        index += stride;
        let spec = job.spec();
        out.attempted += 1;
        let start = Instant::now();
        let root = rec.as_mut().map_or(0, |r| r.open("job", 0, 0));
        let span = rec.as_mut().map_or(0, |r| r.open("svc.submit", root, 0));
        let submitted = service.submit(spec);
        let id = submitted.as_ref().map_or(0, |h| h.id().0);
        if let Some(r) = rec.as_mut() {
            r.close(span, id);
        }
        let Ok(handle) = submitted else {
            if let Some(r) = rec.as_mut() {
                r.close(root, 0);
            }
            out.failed += 1;
            continue;
        };
        let span = rec.as_mut().map_or(0, |r| r.open("svc.wait", root, id));
        let result = handle.wait();
        if let Some(r) = rec.as_mut() {
            r.close(span, id);
        }
        let Ok(report) = result else {
            if let Some(r) = rec.as_mut() {
                r.close(root, id);
            }
            out.failed += 1;
            continue;
        };
        let span = rec.as_mut().map_or(0, |r| r.open("bench.verify", root, id));
        let verdict = check(&report, job);
        let latency = start.elapsed();
        if let Some(r) = rec.as_mut() {
            r.close(span, id);
            r.close(root, id);
        }
        if let Err(wrong) = verdict {
            out.wrong.push(wrong);
            continue;
        }
        out.records.push(JobRecord {
            latency_ms: latency.as_secs_f64() * 1e3,
            service_ms: report.latency.as_secs_f64() * 1e3,
            attempts: report.attempts as u32,
            effort: report.effort,
            recovered: report.recovered(),
            faulted: job.fault.is_some(),
            msgs: report.metrics.msgs_sent,
            words: report.metrics.words_sent,
        });
    }
    if let Some(r) = rec {
        out.spans = r.spans;
    }
    out
}

/// Nearest-rank percentile of `values` (`pct` in 0..=100); 0 when empty.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((sorted.len() as f64 * pct / 100.0).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}
