//! Per-layer probes for the traced run: the benchmark's own calls into each
//! module's public functions, at the workload's shape and over a fresh
//! transport of the workload's type. Every sample is recorded as a span.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use aoft_faults::FaultPlan;
use aoft_hypercube::NodeId;
use aoft_net::frame::{decode_frame_body, encode_frame, frame_header, FrameKind};
use aoft_net::wire::from_bytes;
use aoft_net::{pool, CancelToken, LinkCache, LinkId, MappedTransport, Transport, Wire};
use aoft_sort::diagnosis::diagnose;
use aoft_sort::predicates::{bit_compare_stage_with, PredicateScratch};
use aoft_sort::{Algorithm, Block, LbsBuffer, LbsWire, MergeScratch, Msg, SortBuilder, SortError};

use crate::drive::median;
use crate::spans::Recorder;
use crate::workload::{fault_plan, Job, Net, Shape, DIM, NODES};

/// The service's default receive timeout, so a probe attempt runs exactly
/// as a service attempt does.
const RECV_TIMEOUT: Duration = Duration::from_millis(800);

/// The median of one probe's samples, in the probe's unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub median: f64,
    pub samples: usize,
}

impl Probe {
    fn of(values: &[f64]) -> Self {
        Self {
            median: median(values),
            samples: values.len(),
        }
    }
}

/// Every probe's result.
#[derive(Debug, Default)]
pub struct Layers {
    /// One S_FT attempt over a warm link cache, ms.
    pub attempt_ms: Probe,
    /// One S_NR attempt over the same cache, ms.
    pub snr_attempt_ms: Probe,
    /// Spawning and joining 2^d + 1 bare threads, ms.
    pub spawn_ms: Probe,
    /// `bit_compare_stage_with` at the last stage, µs.
    pub predicate_us: Probe,
    /// `merge_split_reuse` of two blocks of the job's block size, µs.
    pub merge_us: Probe,
    /// Copy and `sort_unstable` of one job's keys, ms.
    pub host_sort_ms: Probe,
    /// A faulted attempt until it fail-stops, ms.
    pub detect_ms: Probe,
    /// Diagnosis of those reports plus the attempt on the surviving
    /// subcube, ms.
    pub retry_ms: Probe,
    /// Faulted probe attempts that finished without a detection.
    pub detect_misses: usize,
    /// One stage-sized frame there and back, µs.
    pub rtt_us: Probe,
    /// Stage message encode into a pooled buffer plus frame header, µs.
    pub encode_us: Probe,
    /// Frame body decode back into a stage message, µs.
    pub decode_us: Probe,
    /// Fresh transport to the first frame delivered on a new link, ms.
    pub session_setup_ms: Probe,
    /// Probe answers that differ from `sort_unstable`.
    pub wrong: Vec<String>,
}

/// Runs every probe, each within its share of `budget` (but at least a few
/// samples).
pub fn run<N: Net>(shape: &Shape, inputs: &[Job], budget: Duration, rec: &mut Recorder) -> Layers {
    let slice = budget / 10;
    let root = rec.open("probes", 0, 0);
    let mut out = Layers::default();
    let mut cube = Cube::<N>::new();
    let identity: Vec<u32> = (0..NODES as u32).collect();

    // Warm the cache: the service's links are wired before any job is
    // timed, so the probe's must be too.
    for job in inputs.iter().take(2) {
        let _ = cube.attempt(Algorithm::FaultTolerant, job, &identity, None);
    }
    for (algorithm, name, slot) in [
        (Algorithm::FaultTolerant, "sim.attempt", &mut out.attempt_ms),
        (
            Algorithm::NonRedundant,
            "sim.snr_attempt",
            &mut out.snr_attempt_ms,
        ),
    ] {
        let mut values = Vec::new();
        repeat(slice, |i| {
            let job = &inputs[i % inputs.len()];
            let span = rec.open(name, root, 0);
            let start = Instant::now();
            let result = cube.attempt(algorithm, job, &identity, None);
            values.push(ms(start.elapsed()));
            rec.close(span, 0);
            match result {
                Ok(output) if output == job.sorted => {}
                Ok(_) => out.wrong.push(format!("{name} probe: wrong answer")),
                Err(e) => out
                    .wrong
                    .push(format!("{name} probe: clean attempt failed: {e}")),
            }
        });
        *slot = Probe::of(&values);
    }

    let mut values = Vec::new();
    repeat(slice, |_| {
        let span = rec.open("sim.spawn", root, 0);
        let start = Instant::now();
        std::thread::scope(|s| {
            for node in 0..=NODES {
                s.spawn(move || std::hint::black_box(node));
            }
        });
        values.push(ms(start.elapsed()));
        rec.close(span, 0);
    });
    out.spawn_ms = Probe::of(&values);

    let (detect, retry) = detect_and_retry(&mut cube, inputs, slice * 2, rec, root, &mut out);
    out.detect_ms = detect;
    out.retry_ms = retry;

    let m = shape.block_len();
    let (lbs, llbs) = honest_buffers(DIM - 1, m);
    let mut scratch = PredicateScratch::for_machine(NODES, m as u32);
    out.predicate_us = micro(rec, root, "core.predicate", slice / 2, || {
        bit_compare_stage_with(&lbs, &llbs, NodeId::new(0), DIM - 1, &mut scratch)
            .expect("honest buffers pass the predicate");
    });
    let keys = &inputs[0].keys;
    let (lo, hi) = (
        Block::from_unsorted(keys[..m].to_vec()),
        Block::from_unsorted(keys[m..2 * m].to_vec()),
    );
    let mut merge = MergeScratch::for_block_len(m);
    out.merge_us = micro(rec, root, "core.merge", slice / 2, || {
        let (mut a, mut b) = (lo.clone(), hi.clone());
        a.merge_split_reuse(&mut b, &mut merge);
        std::hint::black_box((a, b));
    });
    let sort = micro(rec, root, "core.host_sort", slice / 2, || {
        let mut copy = keys.clone();
        copy.sort_unstable();
        std::hint::black_box(copy);
    });
    out.host_sort_ms = Probe {
        median: sort.median / 1e3,
        samples: sort.samples,
    };

    let msg = stage_msg(&inputs[0].keys, m);
    out.encode_us = micro(rec, root, "net.encode", slice / 4, || {
        let mut buf = pool::global().lease();
        msg.encode(&mut buf);
        std::hint::black_box(frame_header(FrameKind::Data, &buf));
    });
    let mut payload = Vec::new();
    msg.encode(&mut payload);
    let frame = encode_frame(FrameKind::Data, &payload);
    out.decode_us = micro(rec, root, "net.decode", slice / 4, || {
        let (_, body) = decode_frame_body(&frame[4..]).expect("a frame this probe encoded");
        std::hint::black_box(from_bytes::<Msg>(body).expect("a payload this probe encoded"));
    });
    out.rtt_us = rtt::<N>(&msg, slice, rec, root);
    out.session_setup_ms = session_setup::<N>(&msg, slice, rec, root);
    rec.close(root, 0);
    out
}

/// A warm link cache over a fresh transport, driven the way a service
/// worker drives it: every attempt through a `MappedTransport` under a new
/// run id.
struct Cube<N: Net> {
    cache: Arc<LinkCache<N>>,
    run: u64,
}

impl<N: Net> Cube<N> {
    fn new() -> Self {
        Self {
            cache: Arc::new(LinkCache::new(N::open(NODES as u32))),
            run: 0,
        }
    }

    fn attempt(
        &mut self,
        algorithm: Algorithm,
        job: &Job,
        map: &[u32],
        fault: Option<FaultPlan>,
    ) -> Result<Vec<i32>, SortError> {
        self.run += 1;
        let transport = MappedTransport::new(Arc::clone(&self.cache), map.to_vec());
        let mut builder = SortBuilder::new(algorithm)
            .keys(job.keys.clone())
            .nodes(map.len())
            .recv_timeout(RECV_TIMEOUT)
            .job(self.run);
        if let Some(plan) = fault {
            builder = builder.fault_plan(plan);
        }
        builder
            .run_on(transport)
            .map(|report| report.output().to_vec())
    }
}

/// The faulted workload's recovery path, one step at a time: an attempt
/// with a rotating `CorruptValue` node until Φ fail-stops it, then the
/// service's recovery step — diagnose the reports, drop every implicated
/// node, rerun on the largest surviving subcube.
fn detect_and_retry<N: Net>(
    cube: &mut Cube<N>,
    inputs: &[Job],
    budget: Duration,
    rec: &mut Recorder,
    root: u64,
    out: &mut Layers,
) -> (Probe, Probe) {
    let identity: Vec<u32> = (0..NODES as u32).collect();
    let (mut detects, mut retries) = (Vec::new(), Vec::new());
    repeat(budget, |i| {
        let job = &inputs[i % inputs.len()];
        let span = rec.open("core.detect", root, 0);
        let start = Instant::now();
        let result = cube.attempt(
            Algorithm::FaultTolerant,
            job,
            &identity,
            Some(fault_plan(i, i as u64)),
        );
        let detect = start.elapsed();
        rec.close(span, 0);
        let reports = match result {
            Err(SortError::Detected { reports, .. }) => reports,
            Ok(output) => {
                out.detect_misses += 1;
                if output != job.sorted {
                    out.wrong
                        .push("core.detect probe: undetected wrong answer".into());
                }
                return;
            }
            Err(e) => {
                out.wrong.push(format!("core.detect probe: {e}"));
                return;
            }
        };
        detects.push(ms(detect));
        let span = rec.open("core.retry", root, 0);
        let start = Instant::now();
        let diagnosis = diagnose(&reports, DIM);
        let mut avoid: BTreeSet<u32> = reports
            .iter()
            .filter_map(|r| r.suspect.map(|s| s.index() as u32))
            .collect();
        if diagnosis.is_consistent() && diagnosis.suspects().len() <= 2 {
            avoid.extend(diagnosis.suspects().iter().map(|n| n.index() as u32));
        }
        let healthy: Vec<u32> = (0..NODES as u32).filter(|n| !avoid.contains(n)).collect();
        if healthy.len() < 2 {
            out.wrong.push(format!(
                "core.retry probe: {} node(s) implicated",
                avoid.len()
            ));
            rec.close(span, 0);
            return;
        }
        let map = &healthy[..1 << healthy.len().ilog2()];
        let result = cube.attempt(Algorithm::FaultTolerant, job, map, None);
        retries.push(ms(start.elapsed()));
        rec.close(span, 0);
        match result {
            Ok(output) if output == job.sorted => {}
            Ok(_) => out.wrong.push("core.retry probe: wrong answer".into()),
            Err(e) => out
                .wrong
                .push(format!("core.retry probe: retry failed: {e}")),
        }
    });
    (Probe::of(&detects), Probe::of(&retries))
}

/// One stage-sized frame from node 0 to node 1 and echoed back, over a
/// fresh transport of the workload's type.
fn rtt<N: Net>(msg: &Msg, budget: Duration, rec: &mut Recorder, root: u64) -> Probe {
    let net = N::open(2);
    let deadline = Duration::from_secs(5);
    let ping = LinkId {
        from: 0,
        to: 1,
        tag: 0,
    };
    let pong = LinkId {
        from: 1,
        to: 0,
        tag: 0,
    };
    let tx = Transport::<Msg>::connect_tx(&net, ping, deadline).expect("dial the ping link");
    let echo_rx = Transport::<Msg>::connect_rx(&net, ping, deadline).expect("claim the ping link");
    let echo_tx = Transport::<Msg>::connect_tx(&net, pong, deadline).expect("dial the pong link");
    let rx = Transport::<Msg>::connect_rx(&net, pong, deadline).expect("claim the pong link");
    let cancel = CancelToken::new();
    let mut values = Vec::new();
    let echo_cancel = cancel.clone();
    std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(msg) = echo_rx.recv_deadline(deadline, &echo_cancel) {
                if echo_tx.send(msg).is_err() {
                    break;
                }
            }
        });
        for _ in 0..3 {
            tx.send(msg.clone()).expect("send the warm-up ping");
            rx.recv_deadline(deadline, &cancel)
                .expect("the warm-up echo returns");
        }
        repeat(budget, |_| {
            let span = rec.open("net.rtt", root, 0);
            let start = Instant::now();
            tx.send(msg.clone()).expect("send the ping");
            std::hint::black_box(
                rx.recv_deadline(deadline, &cancel)
                    .expect("the echo returns"),
            );
            values.push(start.elapsed().as_secs_f64() * 1e6);
            rec.close(span, 0);
        });
        cancel.cancel();
    });
    Probe::of(&values)
}

/// A fresh transport of the workload's type until the first frame arrives
/// on a new link (for mux: bind, dial, session handshake, first frame).
fn session_setup<N: Net>(msg: &Msg, budget: Duration, rec: &mut Recorder, root: u64) -> Probe {
    let deadline = Duration::from_secs(5);
    let link = LinkId {
        from: 0,
        to: 1,
        tag: 0,
    };
    let cancel = CancelToken::new();
    let mut values = Vec::new();
    repeat(budget, |_| {
        let span = rec.open("net.session_setup", root, 0);
        let start = Instant::now();
        let net = N::open(2);
        let tx = Transport::<Msg>::connect_tx(&net, link, deadline).expect("dial a fresh link");
        let rx = Transport::<Msg>::connect_rx(&net, link, deadline).expect("claim a fresh link");
        tx.send(msg.clone()).expect("send the first frame");
        std::hint::black_box(
            rx.recv_deadline(deadline, &cancel)
                .expect("the first frame arrives"),
        );
        values.push(ms(start.elapsed()));
        rec.close(span, 0);
        drop((tx, rx, net));
    });
    Probe::of(&values)
}

/// Calls `body(i)` for i = 0, 1, … until `budget` is spent, at least 5 and
/// at most 5000 times.
fn repeat(budget: Duration, mut body: impl FnMut(usize)) {
    let start = Instant::now();
    for i in 0..5000 {
        if i >= 5 && start.elapsed() >= budget {
            break;
        }
        body(i);
    }
}

/// Times a sub-millisecond call: each sample (one span) runs a batch sized
/// to take about 50 µs, and the probe reports µs per call.
fn micro(
    rec: &mut Recorder,
    root: u64,
    name: &'static str,
    budget: Duration,
    mut f: impl FnMut(),
) -> Probe {
    let start = Instant::now();
    f();
    let once = start.elapsed().as_secs_f64();
    let batch = ((50e-6 / once.max(1e-9)) as usize).clamp(1, 10_000);
    let mut values = Vec::new();
    repeat(budget, |_| {
        let span = rec.open(name, root, 0);
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        values.push(start.elapsed().as_secs_f64() * 1e6 / batch as f64);
        rec.close(span, 0);
    });
    Probe::of(&values)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The largest message of a d-dimensional S_FT run: the last stage's data
/// block plus an LBS spanning the whole cube, every slot filled.
fn stage_msg(keys: &[i32], m: usize) -> Msg {
    let block = Block::from_unsorted(keys[..m].to_vec());
    Msg::Tagged {
        data: block.clone(),
        lbs: LbsWire {
            span_start: 0,
            block_len: m as u32,
            slots: vec![Some(block); NODES],
        },
    }
}

/// (LBS, LLBS) buffers as an honest cube holds them at the end of `stage`,
/// with `m` keys per block. Node value `v` stands for the ascending block
/// `[v·m, (v+1)·m)`, which keeps every comparison between blocks.
fn honest_buffers(stage: u32, m: usize) -> (LbsBuffer, LbsBuffer) {
    let block = |v: usize| Block::new(((v * m) as i32..((v + 1) * m) as i32).collect());
    let span = 1usize << (stage + 1);
    let half = span / 2;
    let mut lbs = LbsBuffer::new(NODES, m as u32);
    let mut llbs = LbsBuffer::new(NODES, m as u32);
    for start in (0..NODES).step_by(span) {
        // After the stage: a bitonic arrangement (ascending, then descending).
        let mut values: Vec<usize> = (0..span).collect();
        values[half..].reverse();
        for (offset, &v) in values.iter().enumerate() {
            lbs.set(NodeId::new((start + offset) as u32), block(v));
        }
        // Before it: each half bitonic on its own.
        for lo in [0, half] {
            let mut part = values[lo..lo + half].to_vec();
            part.sort_unstable();
            part[half / 2..].reverse();
            for (offset, &v) in part.iter().enumerate() {
                llbs.set(NodeId::new((start + lo + offset) as u32), block(v));
            }
        }
    }
    (lbs, llbs)
}
