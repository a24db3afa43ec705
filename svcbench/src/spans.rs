//! In-memory spans for the traced run, written out when the run ends.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public API; nothing inside the service is instrumented. Each
//! recording thread owns a [`Recorder`], so the hot path is a `Vec::push`
//! with no shared state.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The service job id, or 0 for probe spans.
    pub job: u64,
    /// Microseconds since the process's span epoch.
    pub start_us: f64,
    pub end_us: f64,
}

/// Microseconds since the first span of the process.
pub fn now_us() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// One thread's span buffer. Ids carry the recorder's number, unique in
/// the process, in their top bits, so ids from different recorders never
/// collide.
pub struct Recorder {
    prefix: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        static RECORDERS: AtomicU64 = AtomicU64::new(1);
        Self {
            prefix: RECORDERS.fetch_add(1, Ordering::Relaxed) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its id; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: u64, job: u64) -> u64 {
        self.next += 1;
        let id = self.prefix | self.next;
        self.spans.push(Span {
            name,
            id,
            parent,
            job,
            start_us: now_us(),
            end_us: f64::NAN,
        });
        id
    }

    /// Closes the most recent open span with `id`, setting its job id when
    /// it became known only after the span opened.
    pub fn close(&mut self, id: u64, job: u64) {
        let end = now_us();
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end_us = end;
            if job != 0 {
                span.job = job;
            }
        }
    }
}

/// Writes `spans` as JSON lines after a `header` line and before the
/// `trailer` lines (the per-layer summary with the base of each ratio).
pub fn write_file(path: &Path, header: &str, spans: &[Span], trailer: &[String]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"job\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.name, s.id, s.parent, s.job, s.start_us, s.end_us
        )?;
    }
    for line in trailer {
        writeln!(out, "{line}")?;
    }
    out.flush()
}
