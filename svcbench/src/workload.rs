//! The four workloads: their shapes, the service configuration each one
//! runs, and the seeded job inputs the load generator submits.

use std::time::Duration;

use aoft_faults::{FaultKind, FaultPlan, Trigger};
use aoft_hypercube::NodeId;
use aoft_net::{InProc, MuxConfig, MuxTransport, Transport};
use aoft_sim::Packet;
use aoft_sort::Msg;
use aoft_svc::{JobSpec, SvcConfig};

/// Cube dimension of every workload: 8 nodes.
pub const DIM: u32 = 3;

/// Nodes in the cube.
pub const NODES: usize = 1 << DIM;

/// Which transport carries the cube's compare-exchange traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Medium {
    /// In-process channels.
    InProc,
    /// One loopback TCP session per peer pair (`net::mux`).
    Mux,
}

/// One workload: the job shape and the load that drives it.
#[derive(Debug)]
pub struct Shape {
    pub name: &'static str,
    pub keys_per_job: usize,
    pub medium: Medium,
    /// Service worker slots.
    pub workers: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Every job carries a transient `CorruptValue` fault plan.
    pub faulted: bool,
}

pub const WORKLOADS: [Shape; 4] = [
    Shape {
        name: "small-inproc",
        keys_per_job: 64,
        medium: Medium::InProc,
        workers: 2,
        clients: 2,
        faulted: false,
    },
    Shape {
        name: "large-inproc",
        keys_per_job: 32_768,
        medium: Medium::InProc,
        workers: 1,
        clients: 1,
        faulted: false,
    },
    Shape {
        name: "small-mux",
        keys_per_job: 64,
        medium: Medium::Mux,
        workers: 2,
        clients: 2,
        faulted: false,
    },
    Shape {
        name: "faulted",
        keys_per_job: 64,
        medium: Medium::InProc,
        workers: 2,
        clients: 2,
        faulted: true,
    },
];

impl Shape {
    pub fn by_name(name: &str) -> Option<&'static Shape> {
        WORKLOADS.iter().find(|shape| shape.name == name)
    }

    /// Keys each node holds.
    pub fn block_len(&self) -> usize {
        self.keys_per_job / NODES
    }

    /// The service configuration: d = 3, batching off. The faulted
    /// workload rotates its fault through every node, so quarantine is off
    /// (the documented `u32::MAX` sentinel) and retries do not back off:
    /// every job is one detected attempt, diagnosis, and one retry.
    pub fn config(&self) -> SvcConfig {
        let config = SvcConfig::new(DIM).workers(self.workers).batch_max(1);
        if self.faulted {
            config
                .quarantine_after(u32::MAX)
                .backoff(Duration::ZERO, Duration::ZERO)
        } else {
            config
        }
    }
}

/// One job input and its expected answer.
pub struct Job {
    pub keys: Vec<i32>,
    /// `sort_unstable` of `keys`, computed before any timing starts.
    pub sorted: Vec<i32>,
    pub fault: Option<FaultPlan>,
}

impl Job {
    pub fn spec(&self) -> JobSpec {
        let spec = JobSpec::new(self.keys.clone());
        match &self.fault {
            Some(plan) => spec.fault_plan(plan.clone()),
            None => spec,
        }
    }
}

/// The pool of job inputs a run cycles through, generated from `seed`.
/// Faulted inputs put the corrupting node at `index % 8`, so the fault
/// rotates through the cube as the clients walk the pool.
pub fn inputs(shape: &Shape, seed: u64) -> Vec<Job> {
    let pool = if shape.keys_per_job >= 4096 { 16 } else { 256 };
    let mut rng = SplitMix64(seed);
    (0..pool)
        .map(|index| {
            let keys: Vec<i32> = (0..shape.keys_per_job)
                .map(|_| (rng.next() >> 32) as u32 as i32)
                .collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            let fault = shape.faulted.then(|| fault_plan(index, rng.next()));
            Job {
                keys,
                sorted,
                fault,
            }
        })
        .collect()
}

/// A `CorruptValue` fault on node `index % 8`, armed from the node's second
/// send, so Φ detects it inside the attempt instead of a receive timeout.
pub fn fault_plan(index: usize, seed: u64) -> FaultPlan {
    let node = NodeId::new((index % NODES) as u32);
    FaultPlan::new().with_fault(node, FaultKind::CorruptValue, Trigger::from_seq(1), seed)
}

/// A transport the benchmark can open fresh: the service's medium and the
/// per-layer probes' medium are always the same type.
pub trait Net: Transport<Packet<Msg>> + Transport<Msg> + Send + Sync + 'static {
    /// A fresh transport addressing `labels` node labels.
    fn open(labels: u32) -> Self;
}

impl Net for InProc {
    fn open(_labels: u32) -> Self {
        InProc::new()
    }
}

impl Net for MuxTransport {
    fn open(labels: u32) -> Self {
        let transport = MuxTransport::bind(MuxConfig::default()).expect("bind a loopback mux");
        let addr = transport.local_addr();
        for label in 0..labels {
            transport.set_peer(label, addr);
        }
        transport
    }
}

/// SplitMix64: a small, fixed generator, so a seed names the same inputs
/// on every build.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
