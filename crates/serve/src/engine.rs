//! The connection engine behind `gcond`: one accept loop and one
//! fail-closed session shape. The single-store [`Server`](crate::Server)
//! and the fleet's [`ShardWorker`](crate::ShardWorker) are two
//! [`Handler`]s on it.
//!
//! # Session contract
//!
//! * **Thread-per-connection on `std::net`.** Every accepted connection
//!   gets its own scoped thread, the configured read/write timeouts
//!   (an idle or stuck peer frees its thread instead of leaking it),
//!   `TCP_NODELAY` and a buffered writer flushed after every request.
//! * **Handshake.** `Health` is answered before and after `Hello`; `Bye`
//!   closes. A `Hello` with [`PROTO_VERSION`] mints a per-connection
//!   session token and answers `HelloAck` with the handler's
//!   [`ServerInfo`]. A wrong version, a duplicate `Hello`, or any other
//!   request before `Hello` is answered `BadHandshake` and closes.
//! * **Token check.** Every later request must carry the session token; a
//!   mismatch is answered `BadToken` and closes. Requests that pass go to
//!   [`Handler::handle`].
//! * **Fail-closed framing.** All parsing happens in [`crate::wire`]. An
//!   oversized frame header is answered `TooLarge` and an undecodable body
//!   `BadFrame`; both close, since the stream may be desynced. A hostile
//!   client can never panic the server.
//!
//! The accept loop blocks in `accept`, so a new connection's thread starts
//! as soon as the kernel hands it over; [`ServerHandle::stop`] wakes it
//! with one loopback connection of its own. Connection threads are joined
//! by scope exit, so [`Engine::run`] returns only after every one of them
//! finished.

use crate::model::ServingModel;
use crate::server::ServerConfig;
use crate::wire::{
    read_frame, write_frame, ErrorCode, Request, Response, ServerInfo, WireError, WireStats,
    PROTO_VERSION,
};
use std::io::{BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Clonable remote control for a running [`Server`](crate::Server) or
/// [`ShardWorker`](crate::ShardWorker): lets another thread (signal
/// handler, test harness) stop the accept loop.
#[derive(Clone, Debug)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    /// Where a loopback connection reaches the listener.
    wake: SocketAddr,
}

impl ServerHandle {
    /// Asks the server to stop accepting and return from its `run` once
    /// in-flight connections drain (their sockets still honour the read
    /// timeout, so drain is bounded). Sets the stop flag, then opens one
    /// loopback connection so a `run` blocked in `accept` wakes and sees
    /// it.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A failure needs no retry: refused means the listener is gone, and
        // a timeout means a full backlog, whose next accept sees the flag.
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }
}

/// What a daemon mode answers once a session is established.
pub(crate) trait Handler: Sync {
    /// The store description `HelloAck` announces.
    fn info(&self) -> ServerInfo;

    /// The `Health` answer.
    fn healthy(&self) -> bool;

    /// Answers one authenticated request — never `Hello`, `Health` or
    /// `Bye`, which the engine handles. `Err` closes the connection.
    fn handle(&self, session: &mut Session<'_>, request: Request) -> Result<(), WireError>;
}

/// A bound listener plus the counters every daemon mode shares.
pub(crate) struct Engine {
    listener: TcpListener,
    local_addr: SocketAddr,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    connections: AtomicU64,
    /// Node rows answered (bulk counts each node).
    requests: AtomicU64,
    token_seq: AtomicU64,
}

impl Engine {
    /// Binds `addr` (port 0 for ephemeral). Session tokens are minted from
    /// `token_seed`.
    ///
    /// # Panics
    /// Panics if `config.max_frame < 64` (a handshake must always fit).
    pub(crate) fn bind(
        config: ServerConfig,
        addr: impl ToSocketAddrs,
        token_seed: u64,
    ) -> std::io::Result<Self> {
        assert!(config.max_frame >= 64, "ServerConfig::max_frame must be ≥ 64 bytes");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(Self {
            listener,
            local_addr,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            token_seq: AtomicU64::new(token_seed),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A clonable handle that stops [`Engine::run`] from another thread.
    pub(crate) fn handle(&self) -> ServerHandle {
        let mut wake = self.local_addr;
        // A wildcard bind is reachable over the same family's loopback.
        match wake.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        ServerHandle { shutdown: self.shutdown.clone(), wake }
    }

    /// Counts `rows` answered node rows.
    pub(crate) fn answered(&self, rows: usize) {
        self.requests.fetch_add(rows as u64, Ordering::Relaxed);
    }

    /// The engine's counters (connections, answered rows); every other
    /// field is zero for the handler to fill in.
    pub(crate) fn stats(&self) -> WireStats {
        WireStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            ..WireStats::default()
        }
    }

    /// Accepts and serves connections with `handler` until
    /// [`ServerHandle::stop`], then joins every connection thread.
    pub(crate) fn run(&self, handler: &impl Handler) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            while !self.shutdown.load(Ordering::SeqCst) {
                let accepted = self.listener.accept();
                // Checked again once `accept` returns: `stop` sets the
                // flag before its wake-up connection arrives, so that
                // connection is dropped unserved.
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match accepted {
                    Ok((stream, _peer)) => {
                        self.connections.fetch_add(1, Ordering::Relaxed);
                        scope.spawn(move || self.serve_connection(handler, stream));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })
    }

    /// One connection's whole lifecycle; all errors end in a close, never
    /// a propagated panic.
    fn serve_connection(&self, handler: &impl Handler, stream: TcpStream) {
        // A connection we cannot even configure is not worth serving.
        if stream.set_read_timeout(Some(self.config.read_timeout)).is_err()
            || stream.set_write_timeout(Some(self.config.write_timeout)).is_err()
            || stream.set_nodelay(true).is_err()
        {
            return;
        }
        let Ok(mut reader) = stream.try_clone() else {
            return;
        };
        let mut session = Session { writer: BufWriter::new(stream), engine: self };
        let _ = self.session_loop(handler, &mut reader, &mut session);
        let _ = session.writer.flush();
    }

    /// Reads frames until goodbye/disconnect/error. `Err` means "stop
    /// serving this connection" — the error itself was already reported to
    /// the peer where possible.
    fn session_loop(
        &self,
        handler: &impl Handler,
        reader: &mut TcpStream,
        session: &mut Session<'_>,
    ) -> Result<(), WireError> {
        let mut token: Option<u64> = None;
        loop {
            let body = match read_frame(reader, self.config.max_frame) {
                Ok(Some(body)) => body,
                Ok(None) => return Ok(()), // clean disconnect
                Err(WireError::FrameTooLarge { .. }) => {
                    // The body was never read, so the stream is desynced:
                    // report and close.
                    return session.reply_error(ErrorCode::TooLarge, "frame exceeds server bound");
                }
                Err(e) => return Err(e),
            };
            let Ok(request) = Request::decode(&body) else {
                return session.reply_error(ErrorCode::BadFrame, "undecodable request frame");
            };
            match (request, token) {
                (Request::Health, _) => {
                    session.reply(&Response::HealthReply { ok: handler.healthy() })?;
                }
                (Request::Bye, _) => return Ok(()),
                (Request::Hello { proto }, None) => {
                    if proto != PROTO_VERSION {
                        return session
                            .reply_error(ErrorCode::BadHandshake, "unsupported protocol version");
                    }
                    // Session token: a cheap per-connection nonce (counter
                    // diffused by the splitmix64 multiplier), not a
                    // credential — it catches desynced/replayed frames.
                    let t = self
                        .token_seq
                        .fetch_add(1, Ordering::Relaxed)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    token = Some(t);
                    session.reply(&Response::HelloAck { token: t, info: handler.info() })?;
                }
                (Request::Hello { .. }, Some(_)) => {
                    return session.reply_error(ErrorCode::BadHandshake, "duplicate hello");
                }
                (request, Some(t)) => {
                    if presented_token(&request) != t {
                        session.reply_error(ErrorCode::BadToken, "wrong session token")?;
                        return Err(WireError::Malformed("token mismatch"));
                    }
                    handler.handle(session, request)?;
                }
                (_, None) => {
                    return session.reply_error(ErrorCode::BadHandshake, "hello required first");
                }
            }
            session.writer.flush()?;
        }
    }
}

/// The `HelloAck` description of a handler serving `model`.
pub(crate) fn store_info(model: &ServingModel) -> ServerInfo {
    ServerInfo {
        proto: PROTO_VERSION,
        mode: model.mode(),
        dtype: model.store_dtype(),
        nodes: model.num_nodes() as u64,
        feature_dim: model.feature_dim() as u32,
        classes: model.num_classes() as u32,
    }
}

/// The session token an authenticated request carries.
fn presented_token(request: &Request) -> u64 {
    match request {
        Request::Query { token, .. }
        | Request::Bulk { token, .. }
        | Request::Stats { token }
        | Request::ShardAssign { token, .. }
        | Request::ShardQuery { token, .. }
        | Request::ShardFingerprint { token, .. } => *token,
        Request::Hello { .. } | Request::Health | Request::Bye => {
            unreachable!("the session loop answers Hello/Health/Bye itself")
        }
    }
}

/// The reply side of one connection, handed to [`Handler::handle`].
pub(crate) struct Session<'e> {
    writer: BufWriter<TcpStream>,
    engine: &'e Engine,
}

impl Session<'_> {
    /// Writes one response frame.
    pub(crate) fn reply(&mut self, response: &Response) -> Result<(), WireError> {
        write_frame(&mut self.writer, &response.encode())
    }

    /// Writes a typed `Error` frame.
    pub(crate) fn reply_error(&mut self, code: ErrorCode, message: &str) -> Result<(), WireError> {
        self.reply(&Response::Error { code, message: message.to_string() })
    }

    /// Answers `nodes` (rows of `model`) as a stream of bounded-size
    /// chunk frames built by `chunk` from `(start, cols, values)`, then
    /// `BulkDone`. Each chunk runs as **one** gathered head forward on a
    /// connection-local [`crate::ServingSession`] — bitwise the
    /// batch-composition-invariant store logits — and counts its rows as
    /// answered.
    pub(crate) fn stream_logits(
        &mut self,
        model: &ServingModel,
        nodes: &[usize],
        chunk: fn(u64, u32, Vec<f64>) -> Response,
    ) -> Result<(), WireError> {
        let cols = model.num_classes();
        // Rows per chunk so a chunk frame stays under max_frame (32 bytes
        // of header slack); ≥ 1 so progress is always made.
        let rows_per_chunk = ((self.engine.config.max_frame - 32) / (cols * 8).max(1)).max(1);
        let mut session = model.session();
        for (i, rows) in nodes.chunks(rows_per_chunk).enumerate() {
            let logits = session.logits_batch(rows);
            self.engine.answered(rows.len());
            let start = (i * rows_per_chunk) as u64;
            self.reply(&chunk(start, cols as u32, logits.as_slice().to_vec()))?;
        }
        self.reply(&Response::BulkDone { total_rows: nodes.len() as u64 })
    }
}
