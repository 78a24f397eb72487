//! Overload-safe network front for the resident spatial engine.
//!
//! `msj-serve` puts a [`msj_core::SpatialEngine`] behind a TCP listener
//! speaking the length-prefixed protocol of [`protocol`], over blocking
//! `std::net` sockets and plain threads — no external dependencies and
//! no `unsafe`: one thread accepts, each connection has a reader and a
//! writer thread, and a worker pool runs the joins. The design goal is
//! the robustness story of the paper's §5 engineering: a server that
//! **refuses load it cannot carry** instead of degrading for everyone.
//!
//! - **Bounded queues, wire backpressure.** Joins land in bounded
//!   per-dataset-pair queues. A full queue, a connection at its
//!   in-flight cap, or a §5 cost estimate over the admission limit
//!   answers an immediate 429-style [`protocol::WireStatus::Shed`] whose
//!   `retry_after_ms` is derived from the same cost model. A
//!   connection's replies wait in a bounded outbox; while it is full the
//!   server stops reading that connection, so TCP pushes back on a
//!   client that does not read, and no other connection waits for it.
//! - **Client deadlines.** A nonzero `deadline_ms` in the request
//!   header arms the engine's one and only cancellation mechanism
//!   ([`msj_core::CancelToken::with_deadline`]) at admission, so queue
//!   wait spends the budget too; an over-deadline request answers a
//!   503-style [`protocol::WireStatus::DeadlineExceeded`] carrying the
//!   partial-work accounting.
//! - **Hostile frames.** Every request frame is decoded bounds-checked;
//!   a truncated frame, an unknown kind or a NaN / ∞ coordinate answers
//!   [`protocol::WireStatus::BadRequest`] and never reaches the engine.
//! - **Connection hardening.** Idle, stalled-read and stalled-write
//!   timeouts; a per-connection in-flight cap; a max-frame guard that
//!   rejects oversized requests before buffering them.
//! - **Graceful drain.** [`Server::shutdown`] closes the listener,
//!   lets queued and in-flight requests complete, answers anything new
//!   with [`protocol::WireStatus::Draining`], and exits within the
//!   configured drain deadline (cancelling still-running work through
//!   the same token path when the deadline passes).
//! - **Selections on the reader, batched.** A connection's reader
//!   answers the point and window probes of each read itself, same-kind
//!   runs through the engine's shared-descent batch path, and writes the
//!   replies when its writer is idle: a µs probe never waits on a
//!   thread hand-off, and every completed response stays
//!   **byte-identical** to its in-process equivalent. The writer sleeps
//!   until a worker's reply, the end of input or a close gives it work;
//!   a reply the reader writes itself wakes no one.
//! - **A buffered client.** [`Client::recv`] takes as many whole replies
//!   per `read` as the socket holds; one that times out mid-frame keeps
//!   the bytes it read, and the next call finishes that frame.
//!
//! ```no_run
//! use std::sync::Arc;
//! use msj_core::{JoinConfig, SpatialEngine};
//! use msj_serve::{Client, ServeConfig, Server, WireRequest};
//!
//! let engine = Arc::new(SpatialEngine::new(JoinConfig::default()));
//! // ... engine.register(...) datasets ...
//! let server = Server::start(engine, ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let reply = client.call(&WireRequest::point(1, 0, 0.5, 0.5)).unwrap();
//! assert!(reply.body.is_ok());
//! server.shutdown();
//! server.join();
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
mod queue;
pub mod server;

pub use client::{Client, WireReply};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, error_body,
    response_body_for, retry_after_ms, wire_status_for_kind, JoinWireStats, ResponseBody,
    SelectionWireStats, ShedReason, WireRequest, WireRequestBody, WireStatus,
};
pub use server::{DrainReport, ServeConfig, Server};
