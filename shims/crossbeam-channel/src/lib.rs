//! Offline shim for `crossbeam-channel`: an MPMC channel built on
//! `Mutex` + `Condvar`.
//!
//! Provides the subset this workspace uses — `unbounded`, cloneable
//! `Sender`/`Receiver`, blocking/timed/non-blocking receives, disconnection
//! semantics (a channel is disconnected for receivers when every `Sender` is
//! dropped, and for senders when every `Receiver` is dropped), and the
//! receive half of the dynamic [`Select`] (`new`, `recv`, `ready_timeout`),
//! which `aoft-net` uses to block on a link and on a run's fail-stop
//! tripwire at once. The `select!` macro is not provided.

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, Thread, ThreadId};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
    /// Receivers blocked on the condvar in `recv`/`recv_timeout`; senders
    /// skip the notify syscall when there are none.
    waiting: usize,
    /// Threads parked in [`Select::ready_timeout`] on this channel; each is
    /// unparked when a message arrives or the channel disconnects.
    selectors: Vec<Thread>,
}

impl<T> State<T> {
    fn is_ready(&self) -> bool {
        !self.queue.is_empty() || self.senders == 0
    }

    /// The selector to unpark once the lock is released — a thread woken
    /// while the sender still holds the lock would only block on it again.
    /// The rare extra selectors are unparked here and now.
    fn selector_to_wake(&self) -> Option<Thread> {
        let (first, rest) = self.selectors.split_first()?;
        for thread in rest {
            thread.unpark();
        }
        Some(first.clone())
    }
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Creates an unbounded MPMC channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
            waiting: 0,
            selectors: Vec::new(),
        }),
        ready: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// Creates a channel with a capacity hint.
///
/// The shim does not implement backpressure: the capacity is accepted for
/// API compatibility and the channel behaves as unbounded.
pub fn bounded<T>(_cap: usize) -> (Sender<T>, Receiver<T>) {
    unbounded()
}

/// The sending half of a channel.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a channel.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Sends a message, failing if every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.lock();
        if state.receivers == 0 {
            return Err(SendError(value));
        }
        state.queue.push_back(value);
        let selector = state.selector_to_wake();
        let waiting = state.waiting > 0;
        drop(state);
        if let Some(thread) = selector {
            thread.unpark();
        }
        if waiting {
            self.shared.ready.notify_one();
        }
        Ok(())
    }

    /// `true` if the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.shared.lock().queue.is_empty()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.lock();
        state.senders -= 1;
        let disconnected = state.senders == 0;
        if !disconnected {
            return;
        }
        // Wake all blocked receivers and selectors so they observe the
        // disconnect.
        let selector = state.selector_to_wake();
        let waiting = state.waiting > 0;
        drop(state);
        if let Some(thread) = selector {
            thread.unpark();
        }
        if waiting {
            self.shared.ready.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sender").finish_non_exhaustive()
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives or the channel disconnects.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut state = self.shared.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvError);
            }
            state.waiting += 1;
            state = self
                .shared
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
    }

    /// Blocks up to `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.lock();
        loop {
            if let Some(v) = state.queue.pop_front() {
                return Ok(v);
            }
            if state.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            state.waiting += 1;
            let (s, _r) = self
                .shared
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = s;
            state.waiting -= 1;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut state = self.shared.lock();
        if let Some(v) = state.queue.pop_front() {
            return Ok(v);
        }
        if state.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Drains currently queued messages without blocking.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }

    /// Blocking iterator: yields until the channel disconnects.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }

    /// `true` if the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.shared.lock().queue.is_empty()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receivers -= 1;
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Receiver").finish_non_exhaustive()
    }
}

/// Non-blocking drain iterator (see [`Receiver::try_iter`]).
#[derive(Debug)]
pub struct TryIter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

/// Blocking iterator (see [`Receiver::iter`]).
#[derive(Debug)]
pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

/// A receive operation [`Select`] can wait on, erased over the message type.
trait SelectHandle {
    /// Registers `thread` to be unparked when the channel becomes ready,
    /// unless it already is; returns readiness without registering.
    fn register(&self, thread: &Thread) -> bool;
    /// Removes one registration of `thread` and reports readiness.
    fn unregister(&self, thread: ThreadId) -> bool;
}

impl<T> SelectHandle for Receiver<T> {
    fn register(&self, thread: &Thread) -> bool {
        let mut state = self.shared.lock();
        if state.is_ready() {
            return true;
        }
        state.selectors.push(thread.clone());
        false
    }

    fn unregister(&self, thread: ThreadId) -> bool {
        let mut state = self.shared.lock();
        if let Some(at) = state.selectors.iter().position(|t| t.id() == thread) {
            state.selectors.swap_remove(at);
        }
        state.is_ready()
    }
}

/// Operations a [`Select`] holds without allocating; more spill to the heap.
const SELECT_INLINE: usize = 4;

/// Waits on several receive operations at once.
///
/// As in crossbeam-channel 0.5, an operation is *ready* when a message is
/// queued on its channel or the channel is disconnected; `ready_timeout`
/// reports the index of a ready operation and the caller then performs it
/// (e.g. with [`Receiver::try_recv`], which may still find the queue empty
/// if another receiver raced it). Where several operations are ready the
/// shim picks the one added first — one of the choices the real crate's
/// unspecified pick may make.
///
/// Blocking parks the thread and registers it with each channel; a send or
/// a disconnect unparks it. Nothing is allocated for up to four operations.
pub struct Select<'a> {
    inline: [Option<&'a dyn SelectHandle>; SELECT_INLINE],
    spill: Vec<&'a dyn SelectHandle>,
    len: usize,
}

impl<'a> Select<'a> {
    /// An empty selector.
    pub fn new() -> Self {
        Select {
            inline: [None; SELECT_INLINE],
            spill: Vec::new(),
            len: 0,
        }
    }

    /// Adds a receive operation on `receiver`; returns its index.
    pub fn recv<T>(&mut self, receiver: &'a Receiver<T>) -> usize {
        let index = self.len;
        if index < SELECT_INLINE {
            self.inline[index] = Some(receiver);
        } else {
            self.spill.push(receiver);
        }
        self.len += 1;
        index
    }

    fn handle(&self, index: usize) -> &'a dyn SelectHandle {
        if index < SELECT_INLINE {
            self.inline[index].expect("operation below len")
        } else {
            self.spill[index - SELECT_INLINE]
        }
    }

    /// Blocks until one of the operations is ready, for at most `timeout`;
    /// returns that operation's index.
    ///
    /// # Errors
    ///
    /// [`ReadyTimeoutError`] if no operation became ready in time.
    pub fn ready_timeout(&mut self, timeout: Duration) -> Result<usize, ReadyTimeoutError> {
        let deadline = Instant::now().checked_add(timeout);
        let me = thread::current();
        loop {
            let mut ready = None;
            let mut registered = 0;
            while registered < self.len {
                registered += 1;
                if self.handle(registered - 1).register(&me) {
                    ready = Some(registered - 1);
                    break;
                }
            }
            if ready.is_none() {
                match deadline {
                    Some(deadline) => {
                        let now = Instant::now();
                        if now < deadline {
                            thread::park_timeout(deadline - now);
                        }
                    }
                    None => thread::park(),
                }
            }
            for index in 0..registered {
                if self.handle(index).unregister(me.id()) && ready.is_none() {
                    ready = Some(index);
                }
            }
            if let Some(index) = ready {
                return Ok(index);
            }
            if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                return Err(ReadyTimeoutError);
            }
        }
    }
}

impl Default for Select<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Select<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Select").finish_non_exhaustive()
    }
}

/// The message could not be sent: every receiver was dropped.
#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> Error for SendError<T> {}

/// The channel is empty and every sender was dropped.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl Error for RecvError {}

/// Why a timed receive returned without a message.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    /// The timeout elapsed first.
    Timeout,
    /// The channel is empty and every sender was dropped.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
            RecvTimeoutError::Disconnected => f.write_str("channel disconnected"),
        }
    }
}

impl Error for RecvTimeoutError {}

/// Why a non-blocking receive returned without a message.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    /// No message was queued.
    Empty,
    /// The channel is empty and every sender was dropped.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("channel empty"),
            TryRecvError::Disconnected => f.write_str("channel disconnected"),
        }
    }
}

impl Error for TryRecvError {}

/// No operation of a [`Select`] became ready before the timeout.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct ReadyTimeoutError;

impl fmt::Display for ReadyTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("timed out waiting on ready")
    }
}

impl Error for ReadyTimeoutError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn send_recv_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn disconnect_on_sender_drop() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn timeout_expires() {
        let (_tx, rx) = unbounded::<u8>();
        let err = rx.recv_timeout(Duration::from_millis(20)).unwrap_err();
        assert_eq!(err, RecvTimeoutError::Timeout);
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(10));
            tx.send(42u32).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(42));
        t.join().unwrap();
    }

    #[test]
    fn try_iter_drains() {
        let (tx, rx) = unbounded();
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        let got: Vec<i32> = rx.try_iter().collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn clone_senders_count() {
        let (tx, rx) = unbounded::<u8>();
        let tx2 = tx.clone();
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn select_sees_queued_message() {
        let (_idle_tx, idle) = unbounded::<u8>();
        let (tx, rx) = unbounded();
        tx.send(5u8).unwrap();
        let mut sel = Select::new();
        sel.recv(&idle);
        let ready = sel.recv(&rx);
        assert_eq!(sel.ready_timeout(Duration::from_secs(5)), Ok(ready));
        assert_eq!(rx.try_recv(), Ok(5));
    }

    #[test]
    fn select_sees_disconnect() {
        let (_tx, rx) = unbounded::<u8>();
        let (gone_tx, gone) = unbounded::<()>();
        drop(gone_tx);
        let mut sel = Select::new();
        sel.recv(&rx);
        let ready = sel.recv(&gone);
        assert_eq!(sel.ready_timeout(Duration::from_secs(5)), Ok(ready));
        assert_eq!(gone.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn select_times_out() {
        let (_a_tx, a) = unbounded::<u8>();
        let (_b_tx, b) = unbounded::<u8>();
        let mut sel = Select::new();
        sel.recv(&a);
        sel.recv(&b);
        let start = Instant::now();
        assert_eq!(
            sel.ready_timeout(Duration::from_millis(30)),
            Err(ReadyTimeoutError)
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        // Registrations are withdrawn once the wait ends.
        assert!(a.shared.lock().selectors.is_empty());
        assert!(b.shared.lock().selectors.is_empty());
    }

    #[test]
    fn select_wakes_from_another_thread_on_either_channel() {
        for wake in 0..2 {
            let (a_tx, a) = unbounded::<u8>();
            let (b_tx, b) = unbounded::<u8>();
            let waker = thread::spawn(move || {
                thread::sleep(Duration::from_millis(20));
                if wake == 0 {
                    a_tx.send(1).unwrap();
                    b_tx
                } else {
                    // A disconnect wakes the selector just like a message.
                    drop(b_tx);
                    a_tx
                }
            });
            let mut sel = Select::new();
            let ops = [sel.recv(&a), sel.recv(&b)];
            let start = Instant::now();
            assert_eq!(sel.ready_timeout(Duration::from_secs(30)), Ok(ops[wake]));
            assert!(start.elapsed() < Duration::from_secs(10));
            let _keep = waker.join().unwrap();
        }
    }

    #[test]
    fn select_spills_beyond_inline_capacity() {
        let channels: Vec<_> = (0..SELECT_INLINE + 2)
            .map(|_| unbounded::<usize>())
            .collect();
        let last = channels.len() - 1;
        channels[last].0.send(9).unwrap();
        let mut sel = Select::new();
        for (_, rx) in &channels {
            sel.recv(rx);
        }
        assert_eq!(sel.ready_timeout(Duration::from_secs(5)), Ok(last));
    }
}
