//! Acceptance tests for the nonblocking reactor transport: the same `S_FT`
//! schedule and service recovery as the threaded TCP backend, but with
//! transport threads O(reactors) instead of O(links) — asserted against
//! `/proc/self/task`, not taken on faith.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aoft::faults::{FaultyTransport, LinkFault};
use aoft::net::CancelToken;
use aoft::sim::{Packet, ReactorConfig, ReactorTransport, TcpConfig, TcpTransport, Transport};
use aoft::sort::{Algorithm, Msg, SortBuilder, SortError};
use aoft::svc::{JobSpec, SortService, SvcConfig};

fn reactor(nodes: u32) -> ReactorTransport {
    reactor_with(nodes, ReactorConfig::default())
}

fn reactor_with(nodes: u32, config: ReactorConfig) -> ReactorTransport {
    let transport = ReactorTransport::bind(config).expect("bind loopback reactor");
    let addr = transport.local_addr();
    for label in 0..nodes {
        transport.set_peer(label, addr);
    }
    transport
}

fn builder(keys: Vec<i32>, nodes: usize) -> SortBuilder {
    SortBuilder::new(Algorithm::FaultTolerant)
        .keys(keys)
        .nodes(nodes)
        .recv_timeout(Duration::from_millis(800))
}

/// Live threads in this process, via the kernel's own ledger.
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(|dir| dir.count())
}

/// `S_FT` sorts over the reactor backend exactly as over the threaded one.
#[test]
fn sft_sorts_d3_cube_over_reactor_tcp() {
    let keys: Vec<i32> = (0..32i32).map(|x| x.wrapping_mul(-97) % 50).collect();
    let report = builder(keys.clone(), 8)
        .run_on(reactor(8))
        .expect("clean reactor run");
    assert_eq!(report.output(), common::sorted(&keys).as_slice());
    assert_eq!(report.blocks().len(), 8, "d=3 cube has 8 nodes");
}

/// The tentpole claim, measured: a d=6 cube has 384 directed links, which
/// costs the threaded backend 768 dedicated transport threads. The reactor
/// multiplexes all of them onto its fixed pool, so the process peak stays
/// around nodes + reactors — an order of magnitude below thread-per-link.
#[test]
fn d6_cube_runs_on_a_bounded_thread_pool() {
    let Some(base) = live_threads() else {
        eprintln!("no /proc/self/task on this platform; skipping");
        return;
    };

    // Generous liveness margins: 64 compute threads on a small CI box can
    // stall a reactor pass long enough for the default 500 ms silence
    // window to fire spuriously. The thread-count claim needs an honest
    // run, not a tight failure detector.
    let config = ReactorConfig {
        connect_timeout: Duration::from_secs(10),
        heartbeat_interval: Duration::from_millis(100),
        heartbeat_timeout: Duration::from_secs(30),
        ..ReactorConfig::default()
    };
    let reactors = config.reactors;
    let transport = reactor_with(64, config);

    // Sample the task count while the sort runs; keep the peak.
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = 0usize;
            while !stop.load(Ordering::Relaxed) {
                peak = peak.max(live_threads().unwrap_or(0));
                std::thread::sleep(Duration::from_millis(5));
            }
            peak
        })
    };

    let keys: Vec<i32> = (0..128i32).map(|x| x.wrapping_mul(-61) % 400).collect();
    let report = builder(keys.clone(), 64)
        .recv_timeout(Duration::from_secs(10))
        .run_on(transport)
        .expect("clean d=6 reactor run");
    stop.store(true, Ordering::Relaxed);
    let peak = sampler.join().expect("sampler joins");

    assert_eq!(report.output(), common::sorted(&keys).as_slice());
    assert_eq!(report.blocks().len(), 64, "d=6 cube has 64 nodes");

    // Peak extra threads ≈ 64 node threads + the reactor pool + harness
    // slack. The threaded backend's *transport alone* would add 768.
    let extra = peak.saturating_sub(base);
    let budget = 64 + reactors + 32;
    assert!(
        extra <= budget,
        "thread peak {peak} (base {base}, extra {extra}) exceeds {budget}; \
         transport threads are not O(reactors)"
    );
    assert!(
        extra < 2 * 64 * 6,
        "extra {extra} is in thread-per-link territory (2·384 = 768)"
    );
}

/// A machine-wide cancel interrupts a receive blocked on a reactor link
/// promptly, even while the reactor's timer wheel keeps heartbeats and
/// dead-checks live on the same thread.
#[test]
fn cancel_interrupts_reactor_recv_under_live_timers() {
    let transport = reactor(2);
    let link = aoft::net::LinkId {
        from: 0,
        to: 1,
        tag: 0,
    };
    let _tx = Transport::<Packet<Msg>>::connect_tx(&transport, link, Duration::from_secs(2))
        .expect("dial");
    let rx = Transport::<Packet<Msg>>::connect_rx(&transport, link, Duration::from_secs(2))
        .expect("claim");

    let cancel = CancelToken::new();
    let trip = cancel.clone();
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        trip.cancel();
    });
    let start = Instant::now();
    let err = rx
        .recv_deadline(Duration::from_secs(30), &cancel)
        .expect_err("nothing was sent");
    assert!(
        matches!(err, aoft::net::NetError::Cancelled),
        "expected Cancelled, got {err:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "cancel took {:?}; the fail-stop did not wake the blocked receive",
        start.elapsed()
    );
}

/// Parity with `tcp_transport.rs`: a fail-silent peer over the reactor
/// backend fail-stops with receiver-side missing-message diagnostics — the
/// identical contract the threaded backend honours.
#[test]
fn killed_peer_fail_stops_with_error_report_over_reactor() {
    let keys: Vec<i32> = (0..32).collect();
    let kill = LinkFault {
        kill_after: Some(2),
        ..LinkFault::default()
    };
    let faulty = FaultyTransport::new(reactor(8), 3).fault_sender(5, kill);
    match builder(keys, 8).run_on(faulty) {
        Ok(_) => panic!("a silenced peer must not produce a sorted result"),
        Err(SortError::Detected { reports, .. }) => {
            assert!(!reports.is_empty(), "fail-stop must carry diagnostics");
            assert!(
                reports.iter().any(|r| r.detail.contains("no message")),
                "reports should name the starved receive: {reports:?}"
            );
        }
        Err(other) => panic!("expected Detected, got {other:?}"),
    }
}

/// Full recovery parity, both backends side by side: the same node-5 kill
/// under a resident service recovers on each — quarantine plus degraded
/// retry — and both deliver the same verified output.
#[test]
fn service_recovery_parity_between_reactor_and_threaded_backends() {
    fn recover<T>(transport: T) -> (Vec<i32>, Vec<u32>)
    where
        T: Transport<Packet<Msg>> + Send + Sync + 'static,
    {
        let kill = LinkFault {
            kill_after: Some(0),
            ..LinkFault::default()
        };
        let faulty = FaultyTransport::new(transport, 0xDEAD5).fault_sender(5, kill);
        let config = SvcConfig::new(3)
            .max_attempts(4)
            .quarantine_after(1)
            .backoff(Duration::from_millis(1), Duration::from_millis(20))
            .recv_timeout(Duration::from_millis(800));
        let service = SortService::start(config, faulty).expect("service starts");
        let keys: Vec<i32> = (0..32i32).map(|x| x.wrapping_mul(-73) % 40).collect();
        let report = service
            .submit(JobSpec::new(keys.clone()))
            .expect("admitted")
            .wait()
            .expect("recovers loudly, never silently wrong");
        assert_eq!(report.output, common::sorted(&keys));
        assert!(
            report.recovered(),
            "a dead-from-first-send node must cost at least one retry"
        );
        let metrics = service.metrics();
        assert!(
            !metrics.quarantined.is_empty(),
            "diagnosis must quarantine into the blast region"
        );
        let quarantined = metrics.quarantined.clone();
        service.shutdown();
        (report.output, quarantined)
    }

    let (reactor_out, reactor_quarantine) = recover(reactor(8));
    let threaded = {
        let transport = TcpTransport::bind(TcpConfig::default()).expect("bind threaded loopback");
        let addr = transport.local_addr();
        for label in 0..8 {
            transport.set_peer(label, addr);
        }
        transport
    };
    let (tcp_out, tcp_quarantine) = recover(threaded);

    assert_eq!(reactor_out, tcp_out, "backends must agree on the output");
    // Node 5 is dead from its very first send, so diagnosis is
    // deterministic on both media: the quarantined set names it.
    assert_eq!(reactor_quarantine, tcp_quarantine);
    assert!(reactor_quarantine.contains(&5));
}
