//! [`LinkTx`]/[`LinkRx`] endpoints over in-process crossbeam channels.
//!
//! The threaded engine's host links use these adapters so that [`NodeCtx`]
//! and [`HostCtx`] speak only the `aoft-net` link traits on every blocking
//! path — the seam the deterministic scheduler ([`crate::DetEngine`]) plugs
//! into. Semantics match the raw channels they wrap: an unbounded queue,
//! [`NetError::Closed`] once the peer endpoint is dropped, and the shared
//! [`recv_deadline`] that a fail-stop wakes at once.
//!
//! [`NodeCtx`]: crate::NodeCtx
//! [`HostCtx`]: crate::HostCtx

use std::time::Duration;

use aoft_net::{recv_deadline, CancelToken, LinkRx, LinkTx, NetError};
use crossbeam_channel::{Receiver, Sender};

/// Sending half of an in-process host link.
pub(crate) struct ChannelTx<T>(pub(crate) Sender<T>);

impl<T: Send> LinkTx<T> for ChannelTx<T> {
    fn send(&self, msg: T) -> Result<(), NetError> {
        self.0.send(msg).map_err(|_| NetError::Closed)
    }
}

/// Receiving half of an in-process host link.
pub(crate) struct ChannelRx<T>(pub(crate) Receiver<T>);

impl<T: Send> LinkRx<T> for ChannelRx<T> {
    fn recv_deadline(&self, timeout: Duration, cancel: &CancelToken) -> Result<T, NetError> {
        recv_deadline(&self.0, timeout, cancel)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use aoft_net::{
        InProc, LinkId, MuxConfig, MuxTransport, ReactorConfig, ReactorTransport, TcpConfig,
        TcpTransport, Transport,
    };
    use crossbeam_channel::unbounded;

    use super::*;

    const TRIALS: usize = 20;
    const LINK_DEADLINE: Duration = Duration::from_secs(5);

    type Endpoints = (Box<dyn LinkTx<Vec<u32>>>, Box<dyn LinkRx<Vec<u32>>>);

    fn open<T: Transport<Vec<u32>>>(transport: &T) -> Endpoints {
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let tx = transport.connect_tx(link, LINK_DEADLINE).expect("tx end");
        let rx = transport.connect_rx(link, LINK_DEADLINE).expect("rx end");
        (tx, rx)
    }

    /// One loopback link per backend, plus the socket transports, which
    /// must outlive their endpoints.
    struct Backends {
        links: Vec<(&'static str, Endpoints)>,
        _transports: (MuxTransport, TcpTransport, ReactorTransport),
    }

    fn backends() -> Backends {
        let mux = MuxTransport::bind(MuxConfig::default()).expect("bind mux");
        let tcp = TcpTransport::bind(TcpConfig::default()).expect("bind tcp");
        let reactor = ReactorTransport::bind(ReactorConfig::default()).expect("bind reactor");
        for label in 0..2 {
            mux.set_peer(label, mux.local_addr());
            tcp.set_peer(label, tcp.local_addr());
            reactor.set_peer(label, reactor.local_addr());
        }
        let (tx, rx) = unbounded();
        let host: Endpoints = (Box::new(ChannelTx(tx)), Box::new(ChannelRx(rx)));
        Backends {
            links: vec![
                ("inproc", open(&InProc::new())),
                ("mux", open(&mux)),
                ("tcp", open(&tcp)),
                ("reactor", open(&reactor)),
                ("host link", host),
            ],
            _transports: (mux, tcp, reactor),
        }
    }

    /// A fail-stop wakes a receiver blocked with a long deadline on every
    /// backend, and does so as an event: the median wake latency is well
    /// under the 1 ms a poll slice would have cost.
    #[test]
    fn cancel_wakes_a_blocked_receiver_on_every_backend() {
        for (name, (_tx, rx)) in &backends().links {
            let mut wakes: Vec<Duration> = (0..TRIALS)
                .map(|_| {
                    let cancel = CancelToken::new();
                    let remote = cancel.clone();
                    let canceller = std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(5));
                        let cancelled_at = Instant::now();
                        remote.cancel();
                        cancelled_at
                    });
                    let result = rx.recv_deadline(Duration::from_secs(30), &cancel);
                    let woke_at = Instant::now();
                    let cancelled_at = canceller.join().expect("canceller thread");
                    assert_eq!(result.unwrap_err(), NetError::Cancelled, "{name}");
                    woke_at.saturating_duration_since(cancelled_at)
                })
                .collect();
            wakes.sort();
            let median = wakes[TRIALS / 2];
            assert!(
                median < Duration::from_millis(1),
                "{name}: median wake latency {median:?} over {TRIALS} cancels ({wakes:?})"
            );
        }
    }

    #[test]
    fn cancel_before_the_receive_blocks_wins_on_every_backend() {
        for (name, (tx, rx)) in &backends().links {
            let cancel = CancelToken::new();
            cancel.cancel();
            let err = rx
                .recv_deadline(Duration::from_secs(30), &cancel)
                .unwrap_err();
            assert_eq!(err, NetError::Cancelled, "{name}: cancel before blocking");

            // A message delivered together with the cancel is not consumed:
            // the fail-stop is checked before each receive.
            let cancel = CancelToken::new();
            tx.send(vec![7]).expect("send");
            let fresh = CancelToken::new();
            assert_eq!(
                rx.recv_deadline(Duration::from_secs(5), &fresh),
                Ok(vec![7]),
                "{name}: healthy delivery"
            );
            tx.send(vec![8]).expect("send");
            cancel.cancel();
            // Give socket backends time to land the frame in the queue.
            std::thread::sleep(Duration::from_millis(20));
            let err = rx
                .recv_deadline(Duration::from_secs(30), &cancel)
                .unwrap_err();
            assert_eq!(err, NetError::Cancelled, "{name}: queued message + cancel");
        }
    }
}
