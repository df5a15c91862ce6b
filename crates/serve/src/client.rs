//! `GconClient`: the library client for a running `gcond` server.
//!
//! One client = one TCP connection = one session token. The client is a
//! thin, blocking wrapper over [`crate::wire`]: it performs the handshake
//! on connect, stamps the session token on every request, reassembles
//! `BulkChunk` streams, and turns `Error` frames into
//! [`WireError::Server`]. It is deliberately `&mut self` (one in-flight
//! request per connection); open several clients for concurrency — the
//! server answers each connection on its own thread.
//!
//! # Reconnect / retry
//!
//! By default a client is zero-retry: any socket failure (read timeout,
//! reset, server restart) surfaces immediately. Enabling
//! [`GconClient::with_retries`] turns every request method into a bounded
//! retry loop: on a **connection-level** failure (I/O error, or the server
//! closing the stream — e.g. its read timeout reclaimed an idle session)
//! the client reconnects to the original address, performs a **fresh
//! `Hello` handshake** (new session token), and replays the request. Typed
//! `Error` frames are never retried — the server answered; retrying would
//! not change the answer. Every request the protocol defines is an
//! idempotent read (queries, stats, fingerprints) or an idempotent
//! overwrite (`ShardAssign` replaces the worker's whole assignment), so
//! replaying a request that may or may not have executed is safe. This is
//! the same retry path the fleet [`crate::fleet::Coordinator`] relies on
//! for coordinator → shard calls.

use crate::wire::{
    read_frame, write_frame, Request, Response, ServerInfo, WireError, WireStats,
    DEFAULT_MAX_FRAME, PROTO_VERSION,
};
use gcon_linalg::Mat;
use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected, handshaken `gcond` session.
#[derive(Debug)]
pub struct GconClient {
    reader: TcpStream,
    writer: std::io::BufWriter<TcpStream>,
    token: u64,
    info: ServerInfo,
    max_frame: usize,
    /// Resolved peer addresses, kept for reconnects.
    peers: Vec<SocketAddr>,
    read_timeout: Duration,
    write_timeout: Duration,
    /// Maximum reconnect-and-replay attempts after the initial try.
    retries: u32,
}

impl GconClient {
    /// Connects with 30 s read / 10 s write timeouts and the default frame
    /// bound, and performs the `Hello` handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        Self::connect_with(
            addr,
            Duration::from_secs(30),
            Duration::from_secs(10),
            DEFAULT_MAX_FRAME,
        )
    }

    /// [`GconClient::connect`] with explicit socket timeouts and maximum
    /// accepted response-frame size.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        read_timeout: Duration,
        write_timeout: Duration,
        max_frame: usize,
    ) -> Result<Self, WireError> {
        let peers: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if peers.is_empty() {
            return Err(WireError::Malformed("address resolved to no socket addresses"));
        }
        let (reader, writer, token, info) =
            Self::open_session(&peers, read_timeout, write_timeout, max_frame)?;
        Ok(Self {
            reader,
            writer,
            token,
            info,
            max_frame,
            peers,
            read_timeout,
            write_timeout,
            retries: 0,
        })
    }

    /// Enables bounded reconnect-and-replay: after a connection-level
    /// failure, up to `retries` fresh-handshake attempts are made before
    /// the error is surfaced (see the module docs for what is — and is
    /// not — retried).
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Dials the peers in order, handshakes, and returns the session parts.
    fn open_session(
        peers: &[SocketAddr],
        read_timeout: Duration,
        write_timeout: Duration,
        max_frame: usize,
    ) -> Result<(TcpStream, std::io::BufWriter<TcpStream>, u64, ServerInfo), WireError> {
        let stream = TcpStream::connect(peers)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_write_timeout(Some(write_timeout))?;
        stream.set_nodelay(true)?;
        let mut reader = stream.try_clone()?;
        let mut writer = std::io::BufWriter::new(stream);
        write_frame(&mut writer, &Request::Hello { proto: PROTO_VERSION }.encode())?;
        writer.flush()?;
        let body = read_frame(&mut reader, max_frame)?
            .ok_or(WireError::Malformed("server closed the connection"))?;
        match Response::decode(&body)? {
            Response::HelloAck { token, info } => Ok((reader, writer, token, info)),
            Response::Error { code, message } => Err(WireError::Server { code, message }),
            _ => Err(WireError::Malformed("unexpected response opcode for this request")),
        }
    }

    /// Replaces the dead connection with a freshly handshaken one (new
    /// session token; the announced [`ServerInfo`] is refreshed too).
    fn reconnect(&mut self) -> Result<(), WireError> {
        let (reader, writer, token, info) =
            Self::open_session(&self.peers, self.read_timeout, self.write_timeout, self.max_frame)?;
        self.reader = reader;
        self.writer = writer;
        self.token = token;
        self.info = info;
        Ok(())
    }

    /// Is `e` a connection-level failure a fresh session could cure?
    fn is_retryable(e: &WireError) -> bool {
        match e {
            WireError::Io(_) => true,
            // The two shapes a server-side close takes at a frame boundary
            // (`read_frame` EOF) and inside a header.
            WireError::Malformed(m) => {
                *m == "server closed the connection" || *m == "connection closed mid-header"
            }
            _ => false,
        }
    }

    /// Runs `op` with the bounded reconnect-and-replay policy. `op` must
    /// read `self.token` at call time — the token changes on reconnect.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut attempt = 0u32;
        loop {
            match op(self) {
                Err(e) if Self::is_retryable(&e) && attempt < self.retries => {
                    attempt += 1;
                    // A failed reconnect leaves the dead streams in place;
                    // the next `op` fails fast and burns the next attempt,
                    // so the loop stays bounded by `retries` either way.
                    let _ = self.reconnect();
                }
                other => return other,
            }
        }
    }

    /// The store handshake the server announced (shape, mode, dtype).
    pub fn info(&self) -> &ServerInfo {
        &self.info
    }

    /// Logits of one node (a `classes`-length row, bitwise what the
    /// server-side store computes).
    pub fn logits(&mut self, node: u64) -> Result<Vec<f64>, WireError> {
        self.with_retry(|c| {
            let token = c.token;
            match c.call(&Request::Query { token, node })? {
                Response::Logits { values } => Ok(values),
                other => Err(unexpected(other)),
            }
        })
    }

    /// Logits of many nodes: one request, a reassembled
    /// `nodes.len() × classes` matrix back (row `i` answers `nodes[i]`).
    pub fn logits_bulk(&mut self, nodes: &[u64]) -> Result<Mat, WireError> {
        self.with_retry(|c| {
            let token = c.token;
            c.send(&Request::Bulk { token, nodes: nodes.to_vec() })?;
            let cols = c.info.classes as usize;
            c.read_chunk_stream(nodes.len(), cols, /* shard */ false)
        })
    }

    /// Hard class prediction of one node (argmax of [`Self::logits`]).
    pub fn predict(&mut self, node: u64) -> Result<usize, WireError> {
        Ok(gcon_linalg::vecops::argmax(&self.logits(node)?))
    }

    /// Server counter snapshot.
    pub fn stats(&mut self) -> Result<WireStats, WireError> {
        self.with_retry(|c| {
            let token = c.token;
            match c.call(&Request::Stats { token })? {
                Response::StatsReply(stats) => Ok(stats),
                other => Err(unexpected(other)),
            }
        })
    }

    /// Liveness probe; `Ok(true)` means healthy (not degraded).
    pub fn health(&mut self) -> Result<bool, WireError> {
        self.with_retry(|c| match c.call(&Request::Health)? {
            Response::HealthReply { ok } => Ok(ok),
            other => Err(unexpected(other)),
        })
    }

    /// Says goodbye and closes the connection.
    pub fn bye(mut self) -> Result<(), WireError> {
        self.send(&Request::Bye)
    }

    // -------------------------------------------------------- fleet calls
    //
    // The coordinator → shard-worker side of the protocol. These target a
    // `gcond --shard` worker ([`crate::fleet::ShardWorker`]); a plain
    // single-store daemon answers them with `ErrorCode::NotAssigned`.

    /// Hands a shard worker its row range: `artifact` is an encoded
    /// store-slice artifact ([`crate::ServingModel::slice_bytes`]) whose
    /// first row is global row `row_start`. Returns the row count the
    /// worker adopted. Replaces any previous assignment on the worker, so
    /// replaying after a reconnect is safe.
    pub fn shard_assign(
        &mut self,
        shard_id: u32,
        row_start: u64,
        artifact: &[u8],
    ) -> Result<u64, WireError> {
        self.with_retry(|c| {
            let token = c.token;
            let req =
                Request::ShardAssign { token, shard_id, row_start, artifact: artifact.to_vec() };
            match c.call(&req)? {
                Response::ShardReady { shard_id: echoed, rows } => {
                    if echoed != shard_id {
                        return Err(WireError::Malformed("worker echoed a different shard id"));
                    }
                    Ok(rows)
                }
                other => Err(unexpected(other)),
            }
        })
    }

    /// Logits for **global** node ids inside the worker's assigned range,
    /// reassembled from the `ShardLogits` chunk stream into a
    /// `nodes.len() × classes` matrix (row `i` answers `nodes[i]`).
    /// `classes` comes from the coordinator's own store knowledge — a
    /// worker contacted before assignment announces zero classes.
    pub fn shard_query(&mut self, nodes: &[u64], classes: usize) -> Result<Mat, WireError> {
        self.with_retry(|c| {
            let token = c.token;
            c.send(&Request::ShardQuery { token, nodes: nodes.to_vec() })?;
            c.read_chunk_stream(nodes.len(), classes, /* shard */ true)
        })
    }

    /// The worker's per-chunk store fingerprints at `chunk_rows`
    /// granularity — the consensus payload the coordinator cross-checks
    /// (see [`crate::ServingModel::chunk_fingerprints`]).
    pub fn shard_fingerprints(&mut self, chunk_rows: u64) -> Result<Vec<u64>, WireError> {
        self.with_retry(|c| {
            let token = c.token;
            match c.call(&Request::ShardFingerprint { token, chunk_rows })? {
                Response::ShardFingerprintReply { chunk_rows: echoed, fingerprints } => {
                    if echoed != chunk_rows {
                        return Err(WireError::Malformed("worker echoed a different chunk size"));
                    }
                    Ok(fingerprints)
                }
                other => Err(unexpected(other)),
            }
        })
    }

    /// Reassembles a `BulkChunk`/`ShardLogits` stream terminated by
    /// `BulkDone` into a `rows × cols` matrix (chunk `start` offsets index
    /// the request's node list).
    fn read_chunk_stream(
        &mut self,
        rows: usize,
        cols: usize,
        shard: bool,
    ) -> Result<Mat, WireError> {
        let mut out = Mat::zeros(rows, cols);
        let mut rows_seen = 0u64;
        loop {
            let (start, chunk_cols, values) = match (self.receive()?, shard) {
                (Response::BulkChunk { start, cols, values }, false)
                | (Response::ShardLogits { start, cols, values }, true) => (start, cols, values),
                (Response::BulkDone { total_rows }, _) => {
                    if total_rows != rows as u64 || rows_seen != total_rows {
                        return Err(WireError::Malformed("bulk stream incomplete"));
                    }
                    return Ok(out);
                }
                (Response::Error { code, message }, _) => {
                    return Err(WireError::Server { code, message });
                }
                (other, _) => return Err(unexpected(other)),
            };
            if chunk_cols as usize != cols {
                return Err(WireError::Malformed("chunk column count mismatch"));
            }
            let chunk_rows = values.len().checked_div(cols).unwrap_or(0);
            let start = usize::try_from(start)
                .map_err(|_| WireError::Malformed("chunk start out of range"))?;
            if start + chunk_rows > rows {
                return Err(WireError::Malformed("chunk rows exceed request"));
            }
            out.as_mut_slice()[start * cols..(start + chunk_rows) * cols].copy_from_slice(&values);
            rows_seen += chunk_rows as u64;
        }
    }

    fn send(&mut self, request: &Request) -> Result<(), WireError> {
        write_frame(&mut self.writer, &request.encode())?;
        self.writer.flush()?;
        Ok(())
    }

    fn receive(&mut self) -> Result<Response, WireError> {
        match read_frame(&mut self.reader, self.max_frame)? {
            Some(body) => Response::decode(&body),
            None => Err(WireError::Malformed("server closed the connection")),
        }
    }

    /// One request → one response, surfacing `Error` frames as
    /// [`WireError::Server`].
    fn call(&mut self, request: &Request) -> Result<Response, WireError> {
        self.send(request)?;
        match self.receive()? {
            Response::Error { code, message } => Err(WireError::Server { code, message }),
            response => Ok(response),
        }
    }
}

fn unexpected(response: Response) -> WireError {
    let _ = response;
    WireError::Malformed("unexpected response opcode for this request")
}
