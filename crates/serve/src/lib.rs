//! Localization-as-a-service: a long-lived server for the resilient
//! localization stack.
//!
//! The paper's pipeline solves one problem and exits; a deployed
//! positioning service answers a *stream* of localization queries
//! against a fixed set of instantiated deployments. This crate provides
//! that serving layer, std-only (no async runtime, no network crates —
//! `std::net` and threads), with four production behaviors:
//!
//! * **Concurrency** — every request runs on its own connection's
//!   thread; a FIFO gate bounds the batch solves running at once
//!   ([`server`]).
//! * **Batching** — concurrent identical requests coalesce into one
//!   shared solve whose result fans out to every waiter.
//! * **Caching** — completed solutions land in an LRU keyed by a
//!   problem/config fingerprint ([`cache`]), and a cached response is
//!   **bit-identical** to the cold one.
//! * **Sessions** — the protocol's `stream` namespace puts the tracking
//!   layer behind the wire: server-owned
//!   [`StreamingTracker`](rl_core::tracking::StreamingTracker) sessions
//!   ([`session`]) fed by client-pushed observation deltas, with TTL
//!   eviction and a session capacity. A push ticks on its own
//!   connection's thread and takes no turn, so batch solves holding
//!   every turn never stall a session.
//!
//! Modules:
//!
//! * [`protocol`] — the wire protocol: length-prefixed JSON frames, the
//!   `batch`/`stream` namespaces, versioning, typed errors,
//! * [`server`] — [`Server`], the solve gate, coalescing, and the
//!   graceful lifecycle,
//! * [`session`] — [`SessionManager`], the
//!   injectable [`Clock`], and TTL eviction,
//! * [`client`] — [`Client`], a blocking handshaken client, and its
//!   typed [`StreamSession`] handle,
//! * [`cache`] — the LRU solution cache.
//!
//! # Example
//!
//! Serve on an ephemeral port, localize the paper's parking lot, and
//! shut the server down:
//!
//! ```
//! use rl_serve::{Client, ServeConfig, Server};
//!
//! let (addr, handle) = Server::spawn(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(addr).unwrap();
//!
//! let reply = client.localize("parking-lot", "multilateration", 7).unwrap();
//! assert_eq!(reply.positions.len(), 15);
//! assert!(reply.localized > 0);
//!
//! // Bit-identical to the in-process solve of the same triple.
//! let direct = rl_serve::server::solve_direct("parking-lot", "multilateration", 7).unwrap();
//! assert_eq!(reply, direct);
//!
//! client.shutdown().unwrap();
//! handle.join().unwrap().unwrap();
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, StreamSession};
pub use protocol::{
    ErrorCode, LocalizeReply, Request, Response, ServerStats, WireError, PROTOCOL_VERSION,
};
pub use server::{ServeConfig, Server};
pub use session::{Clock, ManualClock, SessionManager, SystemClock};
