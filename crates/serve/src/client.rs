//! A blocking client for the `rl-serve` wire protocol.
//!
//! [`Client::connect`] opens the TCP connection and performs the
//! version handshake ([`Request::Hello`]); after that the connection is
//! a strict request/response loop, so one `Client` serves one thread.
//! Open several clients for concurrency — the server coalesces and
//! caches across connections, not per connection.
//!
//! ```no_run
//! use rl_serve::client::Client;
//!
//! let mut client = Client::connect("127.0.0.1:4105")?;
//! let reply = client.localize("town", "lss", 7)?;
//! println!("localized {} of {} nodes", reply.localized, reply.positions.len());
//! # Ok::<(), rl_serve::client::ClientError>(())
//! ```
//!
//! # Streaming sessions
//!
//! [`Client::open_stream`] returns a typed [`StreamSession`] handle for
//! the protocol's session vocabulary: push observation deltas, read the
//! evolving solution (full or per-node), and close. The handle closes
//! its session on drop (best effort); call [`StreamSession::close`] to
//! observe the result.
//!
//! ```no_run
//! use rl_serve::client::Client;
//! use rl_serve::protocol::stream::{StreamSource, TrackerSpec};
//!
//! let mut client = Client::connect("127.0.0.1:4105")?;
//! let mut session = client.open_stream(
//!     StreamSource::Preset { name: "town-mobile".into() },
//!     TrackerSpec::default(),
//!     7,
//! )?;
//! // ... session.push(&observations)?; session.read()? ...
//! session.close()?;
//! # Ok::<(), rl_serve::client::ClientError>(())
//! ```

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use rl_core::tracking::TickObservation;
use serde::Serialize;

use crate::protocol::{
    self, batch, stream, FrameError, LocalizeReply, Request, Response, ServerStats, WireError,
    PROTOCOL_VERSION,
};

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, or a frame the client
    /// refused to send/accept because it exceeded the size limit).
    Io(io::Error),
    /// The server replied with something the protocol does not allow at
    /// this point in the conversation (e.g. a `Status` response to a
    /// `Localize` request), or with bytes that do not decode.
    Protocol(String),
    /// The server replied with a typed [`WireError`].
    Server(WireError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            FrameError::TooLarge { declared, max } => ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{declared}-byte frame exceeds the {max}-byte limit"),
            )),
        }
    }
}

/// The error for a reply other than the `expected` one: the server's
/// typed error, or a protocol violation.
fn unexpected(reply: Response, expected: &str) -> ClientError {
    match reply {
        Response::Error(e) => ClientError::Server(e),
        other => ClientError::Protocol(format!("expected {expected}, got {other:?}")),
    }
}

/// A connected, handshaken client. See the module docs.
pub struct Client {
    stream: TcpStream,
    max_frame: usize,
    /// The server identification string from the handshake, e.g.
    /// `"rl-serve/0.1.0"`.
    pub server: String,
}

impl Client {
    /// Connects and performs the protocol-version handshake.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`ClientError::Server`] when the server
    /// rejects this client's protocol version.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // Strict request/response with small frames: Nagle only adds
        // latency here.
        stream.set_nodelay(true)?;
        let mut client = Client {
            stream,
            max_frame: protocol::DEFAULT_MAX_FRAME,
            server: String::new(),
        };
        match client.roundtrip(&Request::Hello {
            protocol: PROTOCOL_VERSION,
        })? {
            Response::Hello { server, .. } => {
                client.server = server;
                Ok(client)
            }
            other => Err(unexpected(other, "Hello")),
        }
    }

    /// Sets a read timeout for replies (`None` blocks indefinitely,
    /// the default).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_reply_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one request and reads the raw response payload bytes (the
    /// JSON inside the frame, undecoded). The integration tests use
    /// this to assert cached responses are **byte-identical** to cold
    /// ones.
    ///
    /// # Errors
    ///
    /// Transport failures, or a clean server-side close before the
    /// reply.
    pub fn request_raw<T: Serialize>(&mut self, request: &T) -> Result<Vec<u8>, ClientError> {
        protocol::send(&mut self.stream, request, self.max_frame)?;
        match protocol::read_frame(&mut self.stream, self.max_frame)? {
            Some(payload) => Ok(payload),
            None => Err(ClientError::Protocol(
                "server closed the connection before replying".into(),
            )),
        }
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let payload = self.request_raw(request)?;
        protocol::decode(&payload).map_err(ClientError::Protocol)
    }

    /// Localizes `deployment` with `solver` under `seed`. Deterministic:
    /// the reply is bit-identical to [`crate::server::solve_direct`] for
    /// the same triple, whether it was solved, coalesced, or cached.
    ///
    /// # Errors
    ///
    /// Transport failures, typed server errors (unknown deployment or
    /// solver, failed solve, shutdown), or protocol violations.
    pub fn localize(
        &mut self,
        deployment: &str,
        solver: &str,
        seed: u64,
    ) -> Result<LocalizeReply, ClientError> {
        match self.roundtrip(&Request::localize(deployment, solver, seed))? {
            Response::Batch(batch::Response::Localized(reply)) => Ok(reply),
            other => Err(unexpected(other, "Localized")),
        }
    }

    /// Localizes like [`Client::localize`] but asks only for `nodes`.
    /// The reply is **byte-identical** to slicing the full frame with
    /// [`Projection::slice`](crate::protocol::batch::Projection::slice),
    /// and is served against the same cache as full frames.
    ///
    /// # Errors
    ///
    /// Transport failures, typed server errors
    /// ([`crate::protocol::ErrorCode::UnknownNode`] for out-of-universe
    /// ids), or protocol violations.
    pub fn localize_nodes(
        &mut self,
        deployment: &str,
        solver: &str,
        seed: u64,
        nodes: &[u64],
    ) -> Result<batch::Projection, ClientError> {
        let request = Request::Batch(batch::Request::Localize {
            deployment: deployment.to_string(),
            solver: solver.to_string(),
            seed,
            nodes: Some(nodes.to_vec()),
        });
        match self.roundtrip(&request)? {
            Response::Batch(batch::Response::Projected(projection)) => Ok(projection),
            other => Err(unexpected(other, "Projected")),
        }
    }

    /// Fetches the server's counters and registry snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures, typed server errors, or protocol violations.
    pub fn status(&mut self) -> Result<ServerStats, ClientError> {
        match self.roundtrip(&Request::Batch(batch::Request::Status))? {
            Response::Batch(batch::Response::Status(stats)) => Ok(stats),
            other => Err(unexpected(other, "Status")),
        }
    }

    /// Asks the server to shut down gracefully (finish running requests,
    /// then exit its accept loop). Returns once the server acknowledges.
    ///
    /// # Errors
    ///
    /// Transport failures, typed server errors, or protocol violations.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Batch(batch::Request::Shutdown))? {
            Response::Batch(batch::Response::ShuttingDown) => Ok(()),
            other => Err(unexpected(other, "ShuttingDown")),
        }
    }

    /// Opens a server-owned streaming session and returns
    /// its typed handle. The handle borrows this client — the protocol
    /// is strict request/response, so session traffic and other requests
    /// share the connection sequentially.
    ///
    /// # Errors
    ///
    /// Transport failures, typed server errors (unknown source or
    /// tracker preset, session capacity), or protocol violations.
    pub fn open_stream(
        &mut self,
        source: stream::StreamSource,
        tracker: stream::TrackerSpec,
        seed: u64,
    ) -> Result<StreamSession<'_>, ClientError> {
        let request = Request::Stream(stream::Request::OpenStream {
            source,
            tracker,
            seed,
        });
        match self.roundtrip(&request)? {
            Response::Stream(stream::Response::StreamOpened { session, universe }) => {
                Ok(StreamSession {
                    client: self,
                    session,
                    universe,
                    open: true,
                })
            }
            other => Err(unexpected(other, "StreamOpened")),
        }
    }
}

/// A typed handle over one streaming session (see [`Client::open_stream`]).
///
/// The handle sends `CloseStream` when dropped (best effort, result
/// discarded); call [`StreamSession::close`] to observe the close.
/// Sessions are server-owned and survive the handle: keep
/// [`StreamSession::token`] to re-adopt one later with
/// [`StreamSession::adopt`].
pub struct StreamSession<'a> {
    client: &'a mut Client,
    session: u64,
    universe: u64,
    open: bool,
}

impl std::fmt::Debug for StreamSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("session", &self.session)
            .field("universe", &self.universe)
            .field("open", &self.open)
            .finish_non_exhaustive()
    }
}

impl<'a> StreamSession<'a> {
    /// Re-adopts an already-open session by token (e.g. after
    /// reconnecting): the server keeps session state across connections.
    /// No request is sent — the first push/read validates the token.
    pub fn adopt(client: &'a mut Client, token: u64, universe: u64) -> StreamSession<'a> {
        StreamSession {
            client,
            session: token,
            universe,
            open: true,
        }
    }

    /// The session's capability token.
    pub fn token(&self) -> u64 {
        self.session
    }

    /// The session's node-universe size; every pushed observation must
    /// declare exactly this universe.
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// Pushes observation deltas through the session's tracker, in
    /// order. The reply's fingerprint is deterministic: identical to
    /// driving a [`StreamingTracker`](rl_core::tracking::StreamingTracker)
    /// with the same configuration over the same stream, in process.
    ///
    /// # Errors
    ///
    /// Transport failures, typed server errors (unknown/evicted session,
    /// invalid observation, failed tick), or protocol
    /// violations.
    pub fn push(
        &mut self,
        observations: &[TickObservation],
    ) -> Result<stream::PushReply, ClientError> {
        let wire = observations
            .iter()
            .map(stream::WireObservation::from_observation)
            .collect::<Vec<_>>();
        self.push_wire(&wire)
    }

    /// Pushes already-encoded observations (the zero-copy path for
    /// callers that hold wire form).
    ///
    /// # Errors
    ///
    /// As [`StreamSession::push`].
    pub fn push_wire(
        &mut self,
        observations: &[stream::WireObservation],
    ) -> Result<stream::PushReply, ClientError> {
        let request = Request::Stream(stream::Request::PushTicks {
            session: self.session,
            observations: observations.to_vec(),
        });
        match self.client.roundtrip(&request)? {
            Response::Stream(stream::Response::TicksPushed(reply)) => Ok(reply),
            other => Err(unexpected(other, "TicksPushed")),
        }
    }

    /// Reads the session's latest full-frame solution.
    ///
    /// # Errors
    ///
    /// Transport failures, typed server errors (unknown/evicted session,
    /// no solution yet), or protocol violations.
    pub fn read(&mut self) -> Result<stream::SolutionReply, ClientError> {
        self.read_request(None)
    }

    /// Reads only `nodes` from the session's latest solution. The reply
    /// is byte-identical to slicing the full frame, and carries the
    /// full solution's fingerprint.
    ///
    /// # Errors
    ///
    /// As [`StreamSession::read`], plus
    /// [`crate::protocol::ErrorCode::UnknownNode`] for out-of-universe
    /// ids.
    pub fn read_nodes(&mut self, nodes: &[u64]) -> Result<stream::SolutionReply, ClientError> {
        self.read_request(Some(nodes.to_vec()))
    }

    fn read_request(
        &mut self,
        nodes: Option<Vec<u64>>,
    ) -> Result<stream::SolutionReply, ClientError> {
        let request = Request::Stream(stream::Request::ReadSolution {
            session: self.session,
            nodes,
        });
        match self.client.roundtrip(&request)? {
            Response::Stream(stream::Response::Solution(reply)) => Ok(reply),
            other => Err(unexpected(other, "Solution")),
        }
    }

    /// Closes the session and returns the ticks it consumed. After
    /// this, the handle is spent (drop does nothing more).
    ///
    /// # Errors
    ///
    /// Transport failures, typed server errors, or protocol violations.
    pub fn close(mut self) -> Result<u64, ClientError> {
        self.open = false;
        let request = Request::Stream(stream::Request::CloseStream {
            session: self.session,
        });
        match self.client.roundtrip(&request)? {
            Response::Stream(stream::Response::StreamClosed { ticks, .. }) => Ok(ticks),
            other => Err(unexpected(other, "StreamClosed")),
        }
    }

    /// Releases the handle *without* closing the server-side session
    /// (for handing the token to another connection).
    pub fn leak(mut self) -> u64 {
        self.open = false;
        self.session
    }
}

impl Drop for StreamSession<'_> {
    fn drop(&mut self) {
        if self.open {
            // Best effort: a dead connection just leaves the session to
            // the server's TTL.
            let request = Request::Stream(stream::Request::CloseStream {
                session: self.session,
            });
            let _ = self.client.roundtrip(&request);
        }
    }
}
