//! Cooperative fail-stop token and the cancellable channel receive every
//! backend blocks in.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, Select, Sender, TryRecvError};
use parking_lot::Mutex;

use crate::NetError;

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    /// One tripwire per thread that has blocked under this token. Nothing is
    /// ever sent on them: `cancel()` drops every sender, and the disconnect
    /// makes each thread's [`Select`] ready.
    tripwires: Mutex<Vec<Sender<()>>>,
}

/// Shared fail-stop flag for one run.
///
/// The paper's fail-stop discipline halts the whole machine when any node
/// signals ERROR. All endpoints of a run clone one token; `cancel()` is
/// idempotent and never blocks, and it wakes every receiver blocked in
/// [`recv_deadline`] at once, so cancellation reaches transport-blocked
/// threads as an event rather than at a poll.
///
/// Each thread that blocks under a token gets its own tripwire channel,
/// registered once (one lock on the token per thread per run), so the
/// receivers of a run never contend on a shared lock per receive.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<Inner>);

thread_local! {
    /// This thread's tripwire: the token it belongs to and the receiving end.
    static TRIPWIRE: RefCell<Option<(Weak<Inner>, Receiver<()>)>> = const { RefCell::new(None) };
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Signals fail-stop to every holder of this token.
    pub fn cancel(&self) {
        // Set before the tripwires drop (Release, paired with the Acquire in
        // `is_cancelled`), so a receiver woken by the disconnect sees it.
        self.0.cancelled.store(true, Ordering::Release);
        self.0.tripwires.lock().clear();
    }

    /// `true` once any holder has cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::Acquire)
    }

    /// Blocks until `rx` is ready (a message or a disconnect), this token is
    /// cancelled, or `timeout` elapses — whichever comes first. The caller
    /// re-checks all three.
    fn wait<T>(&self, rx: &Receiver<T>, timeout: Duration) {
        TRIPWIRE.with(|slot| {
            let mut slot = slot.borrow_mut();
            let current =
                matches!(&*slot, Some((token, _)) if std::ptr::eq(token.as_ptr(), Arc::as_ptr(&self.0)));
            if !current {
                let (tx, tripwire) = unbounded();
                let mut tripwires = self.0.tripwires.lock();
                // Checked under the lock `cancel()` clears: a token cancelled
                // before this thread registered gets a tripwire already
                // disconnected.
                if !self.is_cancelled() {
                    tripwires.push(tx);
                }
                drop(tripwires);
                *slot = Some((Arc::downgrade(&self.0), tripwire));
            }
            let (_, tripwire) = slot.as_ref().expect("tripwire just installed");
            let mut select = Select::new();
            select.recv(rx);
            select.recv(tripwire);
            let _ = select.ready_timeout(timeout);
        });
    }
}

/// Receives from `rx` for at most `timeout`, unless `cancel` fires first —
/// the one blocking receive behind every [`LinkRx`](crate::LinkRx) backend.
///
/// The contract, in check order:
///
/// * a cancelled token wins, even over a message already queued
///   ([`NetError::Cancelled`]);
/// * past the deadline, [`NetError::Timeout`] (waited = `timeout`);
/// * a queued message is returned without blocking;
/// * a disconnected, drained channel is [`NetError::Closed`].
///
/// Otherwise the thread blocks on the channel and on the token together and
/// re-checks when either becomes ready or the deadline passes; no other
/// timer wakes it. Only a thread's first blocked receive under a token
/// allocates (its tripwire); later ones allocate nothing.
///
/// # Errors
///
/// As listed above.
pub fn recv_deadline<T>(
    rx: &Receiver<T>,
    timeout: Duration,
    cancel: &CancelToken,
) -> Result<T, NetError> {
    let mut now = Instant::now();
    let deadline = now + timeout;
    loop {
        if cancel.is_cancelled() {
            return Err(NetError::Cancelled);
        }
        if now >= deadline {
            return Err(NetError::Timeout { waited: timeout });
        }
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(TryRecvError::Disconnected) => return Err(NetError::Closed),
            Err(TryRecvError::Empty) => cancel.wait(rx, deadline - now),
        }
        now = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        // Idempotent.
        b.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn cancel_before_blocking_returns_cancelled() {
        let (_tx, rx) = unbounded::<u8>();
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = recv_deadline(&rx, Duration::from_secs(30), &cancel).unwrap_err();
        assert_eq!(err, NetError::Cancelled);
    }

    #[test]
    fn cancel_wins_over_a_queued_message() {
        let (tx, rx) = unbounded();
        let cancel = CancelToken::new();
        tx.send(1u8).unwrap();
        cancel.cancel();
        let err = recv_deadline(&rx, Duration::from_secs(30), &cancel).unwrap_err();
        assert_eq!(err, NetError::Cancelled);
    }

    #[test]
    fn timeout_and_closed_keep_their_meaning() {
        let cancel = CancelToken::new();
        let (tx, rx) = unbounded::<u8>();
        let start = Instant::now();
        let err = recv_deadline(&rx, Duration::from_millis(30), &cancel).unwrap_err();
        assert_eq!(
            err,
            NetError::Timeout {
                waited: Duration::from_millis(30)
            }
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        tx.send(4).unwrap();
        drop(tx);
        // Queued messages drain before the disconnect shows.
        assert_eq!(recv_deadline(&rx, Duration::from_secs(1), &cancel), Ok(4));
        let err = recv_deadline(&rx, Duration::from_secs(1), &cancel).unwrap_err();
        assert_eq!(err, NetError::Closed);
    }

    #[test]
    fn one_thread_follows_successive_tokens() {
        // A resident host thread blocks under a new token every run; a stale
        // tripwire from the previous run must neither fire nor be missed.
        let (_tx, rx) = unbounded::<u8>();
        let old = CancelToken::new();
        assert!(matches!(
            recv_deadline(&rx, Duration::from_millis(5), &old),
            Err(NetError::Timeout { .. })
        ));
        old.cancel();
        drop(old);
        let fresh = CancelToken::new();
        assert!(matches!(
            recv_deadline(&rx, Duration::from_millis(5), &fresh),
            Err(NetError::Timeout { .. })
        ));
        let remote = fresh.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            remote.cancel();
        });
        let err = recv_deadline(&rx, Duration::from_secs(30), &fresh).unwrap_err();
        assert_eq!(err, NetError::Cancelled);
        canceller.join().unwrap();
    }
}
