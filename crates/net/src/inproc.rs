//! In-process transport: the simulator's original channel medium behind
//! the [`Transport`] trait.

use std::any::Any;
use std::collections::HashMap;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::{recv_deadline, CancelToken, LinkId, LinkRx, LinkTx, NetError, Transport};

/// Channel-pair registry: each `LinkId` lazily materializes one unbounded
/// channel whose two endpoints are each claimable exactly once.
///
/// Both endpoints are *moved out* on claim — the registry retains nothing —
/// so dropping the claimed `LinkTx` disconnects the channel and the peer's
/// blocked receive observes `Closed`, exactly as when a node fail-stops.
///
/// Message values cross threads by move — no serialization, no loss, no
/// reordering — which makes this backend the reference medium: a program
/// correct over `InProc` that fail-stops over a faulty medium demonstrates
/// *detection*, not a transport artifact.
#[derive(Default)]
pub struct InProc {
    // Typed per message type: the same registry serves runs with different
    // `M` without collision because the boxed entries are downcast by the
    // concrete channel type.
    links: Mutex<HashMap<LinkId, ChannelEntry>>,
}

struct ChannelEntry {
    tx: Option<Box<dyn Any + Send>>,
    rx: Option<Box<dyn Any + Send>>,
}

impl InProc {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn entry_with<M: Send + 'static, R>(
        &self,
        link: LinkId,
        f: impl FnOnce(&mut ChannelEntry) -> R,
    ) -> R {
        let mut links = self.links.lock();
        let entry = links.entry(link).or_insert_with(|| {
            let (tx, rx) = unbounded::<M>();
            ChannelEntry {
                tx: Some(Box::new(tx)),
                rx: Some(Box::new(rx)),
            }
        });
        let result = f(entry);
        if entry.tx.is_none() && entry.rx.is_none() {
            links.remove(&link);
        }
        result
    }
}

impl std::fmt::Debug for InProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProc")
            .field("links", &self.links.lock().len())
            .finish()
    }
}

impl<M: Send + 'static> Transport<M> for InProc {
    fn connect_tx(
        &self,
        link: LinkId,
        _deadline: Duration,
    ) -> Result<Box<dyn LinkTx<M>>, NetError> {
        self.entry_with::<M, _>(link, |entry| {
            let boxed = entry
                .tx
                .take()
                .ok_or_else(|| NetError::Io(format!("sender for link {link} already claimed")))?;
            let tx = boxed.downcast::<Sender<M>>().map_err(|boxed| {
                entry.tx = Some(boxed);
                NetError::Io(format!(
                    "link {link} already open with another message type"
                ))
            })?;
            Ok(Box::new(InProcTx(*tx)) as Box<dyn LinkTx<M>>)
        })
    }

    fn connect_rx(
        &self,
        link: LinkId,
        _deadline: Duration,
    ) -> Result<Box<dyn LinkRx<M>>, NetError> {
        self.entry_with::<M, _>(link, |entry| {
            let boxed = entry
                .rx
                .take()
                .ok_or_else(|| NetError::Io(format!("receiver for link {link} already claimed")))?;
            let rx = boxed.downcast::<Receiver<M>>().map_err(|boxed| {
                entry.rx = Some(boxed);
                NetError::Io(format!(
                    "link {link} already open with another message type"
                ))
            })?;
            Ok(Box::new(InProcRx(*rx)) as Box<dyn LinkRx<M>>)
        })
    }
}

struct InProcTx<M>(Sender<M>);

impl<M: Send> LinkTx<M> for InProcTx<M> {
    fn send(&self, msg: M) -> Result<(), NetError> {
        self.0.send(msg).map_err(|_| NetError::Closed)
    }
}

struct InProcRx<M>(Receiver<M>);

impl<M: Send> LinkRx<M> for InProcRx<M> {
    fn recv_deadline(&self, timeout: Duration, cancel: &CancelToken) -> Result<M, NetError> {
        recv_deadline(&self.0, timeout, cancel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn open_pair(transport: &InProc, link: LinkId) -> (Box<dyn LinkTx<u32>>, Box<dyn LinkRx<u32>>) {
        let tx = transport.connect_tx(link, Duration::from_secs(1)).unwrap();
        let rx = transport.connect_rx(link, Duration::from_secs(1)).unwrap();
        (tx, rx)
    }

    #[test]
    fn delivers_in_order() {
        let transport = InProc::new();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let (tx, rx) = open_pair(&transport, link);
        let cancel = CancelToken::new();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(
            rx.recv_deadline(Duration::from_secs(1), &cancel).unwrap(),
            1
        );
        assert_eq!(
            rx.recv_deadline(Duration::from_secs(1), &cancel).unwrap(),
            2
        );
    }

    #[test]
    fn timeout_when_silent() {
        let transport = InProc::new();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let (_tx, rx) = open_pair(&transport, link);
        let cancel = CancelToken::new();
        let err = rx
            .recv_deadline(Duration::from_millis(20), &cancel)
            .unwrap_err();
        assert!(matches!(err, NetError::Timeout { .. }), "{err:?}");
    }

    #[test]
    fn closed_when_sender_dropped() {
        let transport = InProc::new();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let (tx, rx) = open_pair(&transport, link);
        drop(tx);
        let cancel = CancelToken::new();
        let err = rx
            .recv_deadline(Duration::from_secs(1), &cancel)
            .unwrap_err();
        assert_eq!(err, NetError::Closed);
    }

    #[test]
    fn endpoints_claimed_once_and_registry_empties() {
        let transport = InProc::new();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let _pair = open_pair(&transport, link);
        assert!(transport.links.lock().is_empty(), "both ends claimed");
        let tx2: Result<Box<dyn LinkTx<u32>>, _> =
            transport.connect_tx(link, Duration::from_secs(1));
        // Re-opening the same LinkId after both ends were claimed creates a
        // *fresh* channel — the engine never does this within one run.
        assert!(tx2.is_ok());
    }

    #[test]
    fn cancel_interrupts_blocked_recv_quickly() {
        let transport = InProc::new();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let (_tx, rx) = open_pair(&transport, link);
        let cancel = CancelToken::new();
        let observer = cancel.clone();
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                observer.cancel();
            });
            let err = rx
                .recv_deadline(Duration::from_secs(30), &cancel)
                .unwrap_err();
            assert_eq!(err, NetError::Cancelled);
        });
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cancel took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn receiver_claimed_once() {
        let transport = InProc::new();
        let link = LinkId {
            from: 0,
            to: 1,
            tag: 0,
        };
        let _rx: Box<dyn LinkRx<u32>> = transport.connect_rx(link, Duration::from_secs(1)).unwrap();
        // The sender end is still registered, so the entry persists and a
        // second receiver claim must fail rather than mint a new channel.
        let second: Result<Box<dyn LinkRx<u32>>, _> =
            transport.connect_rx(link, Duration::from_secs(1));
        assert!(second.is_err());
    }
}
