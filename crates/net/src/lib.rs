//! Transport layer for AOFT message exchange.
//!
//! The simulator (`aoft-sim`) executes the paper's node programs over
//! directed point-to-point links. This crate makes the link *medium*
//! pluggable: a [`Transport`] hands out typed unidirectional endpoints
//! ([`LinkTx`]/[`LinkRx`]) per [`LinkId`], and two backends implement it —
//!
//! * [`InProc`]: in-process channels, the original simulator medium;
//! * [`TcpTransport`]: real TCP over loopback (or any reachable address),
//!   with a length-prefixed, checksummed frame codec ([`frame`]), per-link
//!   writer/reader threads, send retry with capped exponential
//!   [`Backoff`], and a heartbeat-based failure detector that surfaces a
//!   silent peer as [`NetError::PeerDead`];
//! * [`ReactorTransport`]: the same wire format and failure detector over
//!   nonblocking sockets, multiplexed by a fixed pool of reactor threads —
//!   `O(reactors)` transport threads instead of two per link.
//!
//! The failure-detection contract matches the paper's fail-stop model
//! (assumption 4: *a missing message is detectable*): every receive takes a
//! deadline, and a dead or silent peer yields an error the caller converts
//! into an executable-assertion violation — never a silent wrong answer.
//!
//! Cancellation uses [`CancelToken`]: every backend blocks in
//! [`recv_deadline`], which waits on the link's queue and on the token
//! together, so when one node fail-stops the whole machine, every peer
//! blocked in `recv` wakes at once regardless of the transport in use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod cache;
mod cancel;
mod error;
pub mod frame;
mod inproc;
mod link;
mod mux;
pub mod pool;
mod reactor;
mod remap;
mod tcp;
mod timer;
pub mod wire;

pub use backoff::Backoff;
pub use cache::LinkCache;
pub use cancel::{recv_deadline, CancelToken};
pub use error::NetError;
pub use frame::{FrameKind, FRAME_VERSION, MAX_FRAME_LEN};
pub use inproc::InProc;
pub use link::{LinkId, LinkRx, LinkTx, Transport};
pub use mux::{MuxConfig, MuxTransport};
pub use pool::BufPool;
pub use reactor::{ReactorConfig, ReactorTransport};
pub use remap::MappedTransport;
pub use tcp::{TcpConfig, TcpTransport};
pub use timer::TimerWheel;
pub use wire::{CodecError, Wire};
