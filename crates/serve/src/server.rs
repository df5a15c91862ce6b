//! The `gcond` serving daemon: the single-store [`Handler`] on the shared
//! connection engine (`crate::engine`), answering every query on the
//! connection's own thread.
//!
//! # Design
//!
//! * **One engine, this handler** — accept loop, socket timeouts,
//!   handshake, token check and fail-closed framing are the engine's (see
//!   its session contract); this module answers `Query`, `Bulk` and
//!   `Stats`, and refuses fleet frames with a typed error.
//! * **Queries on the connection thread** — a `Query` is one dense head
//!   forward on a fresh [`ServingSession`](crate::ServingSession) (a few
//!   hundred nanoseconds), so it is answered where it arrives instead of
//!   waiting in a shared batching window; a `Bulk` streams gathered
//!   forwards the same way. Both are bitwise the store's logits
//!   (batch-composition invariance).
//! * **Bounded-inflight gate** — at most
//!   [`ServerConfig::max_inflight`] `Query`/`Bulk` requests may be in
//!   service at once. The gate **rejects** rather than queues: an
//!   over-limit request is answered immediately with
//!   [`ErrorCode::Overloaded`] so the client can back off, instead of
//!   silently growing an unbounded queue of work in front of the store.

use crate::engine::{store_info, Engine, Handler, ServerHandle, Session};
use crate::model::ServingModel;
use crate::wire::{
    ErrorCode, Request, Response, ServerInfo, WireError, WireStats, DEFAULT_MAX_FRAME,
};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tuning knobs of a [`Server`], all overridable via `GCON_SERVER_*`
/// environment variables (see [`ServerConfig::from_env`]).
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Maximum `Query`/`Bulk` requests in service concurrently; excess
    /// requests are rejected with [`ErrorCode::Overloaded`].
    /// Must be ≥ 1.
    pub max_inflight: usize,
    /// Per-connection socket read timeout (idle clients are disconnected).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Maximum accepted frame-body length, bytes (also bounds response
    /// chunks). Must be ≥ 64 so a handshake always fits.
    pub max_frame: usize,
}

impl Default for ServerConfig {
    /// 64 in-flight requests, 30 s read / 10 s write timeouts,
    /// [`DEFAULT_MAX_FRAME`].
    fn default() -> Self {
        Self {
            max_inflight: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }
}

impl ServerConfig {
    /// [`Default`] overridden by `GCON_SERVER_MAX_INFLIGHT` (requests),
    /// `GCON_SERVER_READ_TIMEOUT_MS` / `GCON_SERVER_WRITE_TIMEOUT_MS`
    /// (milliseconds, ≥ 1 — a zero timeout would mean "never time out" on
    /// `std::net` and is rejected) and `GCON_SERVER_MAX_FRAME` (bytes,
    /// ≥ 64). Unparsable values fall back to the default with a warning
    /// (via [`gcon_runtime::envknob`]).
    pub fn from_env() -> Self {
        use gcon_runtime::envknob::env_knob;
        let d = Self::default();
        Self {
            max_inflight: env_knob(
                "gcon-serve",
                "GCON_SERVER_MAX_INFLIGHT",
                d.max_inflight,
                "an integer ≥ 1",
                "64",
                |v| v.parse::<usize>().ok().filter(|&n| n >= 1),
            ),
            read_timeout: env_knob(
                "gcon-serve",
                "GCON_SERVER_READ_TIMEOUT_MS",
                d.read_timeout,
                "milliseconds ≥ 1",
                "30s",
                |v| v.parse::<u64>().ok().filter(|&ms| ms >= 1).map(Duration::from_millis),
            ),
            write_timeout: env_knob(
                "gcon-serve",
                "GCON_SERVER_WRITE_TIMEOUT_MS",
                d.write_timeout,
                "milliseconds ≥ 1",
                "10s",
                |v| v.parse::<u64>().ok().filter(|&ms| ms >= 1).map(Duration::from_millis),
            ),
            max_frame: env_knob(
                "gcon-serve",
                "GCON_SERVER_MAX_FRAME",
                d.max_frame,
                "bytes ≥ 64",
                "8 MiB",
                |v| v.parse::<usize>().ok().filter(|&b| b >= 64),
            ),
        }
    }
}

/// Counting gate bounding how many requests may be in service at once.
/// Reject-on-full (no wait queue): backpressure is surfaced to the client
/// as [`ErrorCode::Overloaded`].
#[derive(Debug)]
struct InflightGate {
    permits: Mutex<usize>,
}

impl InflightGate {
    fn new(permits: usize) -> Self {
        Self { permits: Mutex::new(permits) }
    }

    /// Takes a permit if one is free.
    fn try_acquire(&self) -> bool {
        let mut p = self.permits.lock().unwrap();
        if *p > 0 {
            *p -= 1;
            true
        } else {
            false
        }
    }

    fn release(&self) {
        *self.permits.lock().unwrap() += 1;
    }
}

/// RAII permit so early returns and panics release the gate.
struct Permit<'g>(&'g InflightGate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// A bound `gcond` server: the listener plus the shared serving state.
/// Construct with [`Server::bind`], then block on [`Server::run`].
pub struct Server<'m> {
    engine: Engine,
    model: &'m ServingModel,
    gate: InflightGate,
    /// Answered `Query` frames — one head forward each.
    forwards: AtomicU64,
    degraded: Arc<AtomicBool>,
    rejected: AtomicU64,
}

impl<'m> Server<'m> {
    /// Binds `addr` (use port 0 for an ephemeral port; see
    /// [`Server::local_addr`]) over a frozen store. The store stays
    /// borrowed for the server's lifetime; every connection answers from it
    /// on its own thread.
    pub fn bind(
        model: &'m ServingModel,
        config: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<Self> {
        assert!(config.max_inflight >= 1, "ServerConfig::max_inflight must be ≥ 1");
        // Token seed: "gcond".
        let engine = Engine::bind(config, addr, 0x6763_6F6E_6400_0001)?;
        Ok(Self {
            engine,
            model,
            gate: InflightGate::new(config.max_inflight),
            forwards: AtomicU64::new(0),
            degraded: Arc::new(AtomicBool::new(false)),
            rejected: AtomicU64::new(0),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.engine.local_addr()
    }

    /// A clonable handle that can stop this server from another thread.
    pub fn handle(&self) -> ServerHandle {
        self.engine.handle()
    }

    /// The degraded-health flag surfaced in `Stats`/`Health` frames. A
    /// static store never sets it; an embedder serving a
    /// [`crate::DynamicServingModel`] bridges
    /// [`is_degraded`](crate::DynamicServingModel::is_degraded) into this
    /// flag so remote operators see panic recovery.
    pub fn degraded_flag(&self) -> Arc<AtomicBool> {
        self.degraded.clone()
    }

    /// Counter snapshot (the same numbers a `Stats` frame carries). Each
    /// answered `Query` is one single-row head forward, so `batches`
    /// counts them and `largest_batch` is 1 once any query has run.
    pub fn stats(&self) -> WireStats {
        let forwards = self.forwards.load(Ordering::Relaxed);
        WireStats {
            batches: forwards,
            largest_batch: forwards.min(1),
            rejected_overload: self.rejected.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            ..self.engine.stats()
        }
    }

    /// Accepts and serves connections until [`ServerHandle::stop`] is
    /// called, then joins every connection thread and returns. Run this on
    /// a dedicated thread (it blocks).
    pub fn run(&self) -> std::io::Result<()> {
        self.engine.run(self)
    }

    fn acquire_permit(&self) -> Option<Permit<'_>> {
        if self.gate.try_acquire() {
            Some(Permit(&self.gate))
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Rejects out-of-range node ids and takes an inflight permit; `None`
    /// means the typed refusal was already sent.
    fn admit(
        &self,
        session: &mut Session<'_>,
        nodes: &[u64],
    ) -> Result<Option<Permit<'_>>, WireError> {
        let n = self.model.num_nodes() as u64;
        if nodes.iter().any(|&node| node >= n) {
            session.reply_error(ErrorCode::NodeOutOfRange, "node id too large")?;
            return Ok(None);
        }
        let permit = self.acquire_permit();
        if permit.is_none() {
            session.reply_error(ErrorCode::Overloaded, "inflight limit reached; retry")?;
        }
        Ok(permit)
    }
}

impl Handler for Server<'_> {
    fn info(&self) -> ServerInfo {
        store_info(self.model)
    }

    fn healthy(&self) -> bool {
        !self.degraded.load(Ordering::Relaxed)
    }

    fn handle(&self, session: &mut Session<'_>, request: Request) -> Result<(), WireError> {
        match request {
            Request::Query { node, .. } => {
                let Some(_permit) = self.admit(session, &[node])? else {
                    return Ok(());
                };
                let mut values = Vec::new();
                self.model.session().logits_into(node as usize, &mut values);
                self.forwards.fetch_add(1, Ordering::Relaxed);
                self.engine.answered(1);
                session.reply(&Response::Logits { values })
            }
            // A bulk request streams gathered forwards from a
            // connection-local session; the permit bounds concurrent bulk
            // work as it does single queries.
            Request::Bulk { nodes, .. } => {
                let Some(_permit) = self.admit(session, &nodes)? else {
                    return Ok(());
                };
                let nodes: Vec<usize> = nodes.iter().map(|&n| n as usize).collect();
                session.stream_logits(self.model, &nodes, |start, cols, values| {
                    Response::BulkChunk { start, cols, values }
                })
            }
            Request::Stats { .. } => session.reply(&Response::StatsReply(self.stats())),
            // Fleet frames belong to shard workers (`crate::ShardWorker`);
            // a plain single-store daemon answers them with a typed error
            // instead of dropping the connection.
            Request::ShardAssign { .. }
            | Request::ShardQuery { .. }
            | Request::ShardFingerprint { .. } => session.reply_error(
                ErrorCode::NotAssigned,
                "shard frames are served by gcond --shard workers",
            ),
            Request::Hello { .. } | Request::Health | Request::Bye => {
                unreachable!("the engine answers Hello/Health/Bye itself")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_counts_and_releases() {
        let gate = InflightGate::new(2);
        assert!(gate.try_acquire());
        assert!(gate.try_acquire());
        assert!(!gate.try_acquire(), "both permits taken");
        {
            let _p = Permit(&gate); // adopts one of the taken permits
        }
        // Permit dropped → one free again.
        assert!(gate.try_acquire());
        gate.release();
        gate.release();
    }

    #[test]
    fn config_env_parsers_accept_and_reject() {
        // Pure parser behaviour via the shared resolver — no env mutation
        // (the workspace's tests run in parallel threads).
        use gcon_runtime::envknob::resolve;
        let d = ServerConfig::default();
        let r = resolve(
            "t",
            "GCON_SERVER_READ_TIMEOUT_MS",
            Some("0"),
            d.read_timeout,
            "ms",
            "30s",
            |v| v.parse::<u64>().ok().filter(|&ms| ms >= 1).map(Duration::from_millis),
        );
        assert_eq!(r.value, d.read_timeout, "0 ms would disable the timeout; rejected");
        assert!(r.warning.is_some());
        let r =
            resolve("t", "GCON_SERVER_MAX_INFLIGHT", Some("3"), d.max_inflight, "n", "64", |v| {
                v.parse::<usize>().ok().filter(|&n| n >= 1)
            });
        assert_eq!((r.value, r.warning), (3, None));
    }
}
