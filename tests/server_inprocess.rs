//! In-process `Server` / `ShardWorker` checks that need the handler's own
//! counters or its lifecycle, not a spawned daemon:
//!
//! - single-node queries are answered on the connection's own session:
//!   bitwise the store's logits, one single-row forward each in `Stats`;
//! - the bounded-inflight gate rejects with `Overloaded` while another
//!   connection provably holds the only permit;
//! - `ServerHandle::stop` ends `run` promptly even when no client ever
//!   connected.

use gcon::core::train::train_gcon;
use gcon::core::GconConfig;
use gcon::serve::wire::{
    read_frame, write_frame, ErrorCode, Request, Response, WireError, DEFAULT_MAX_FRAME,
    PROTO_VERSION,
};
use gcon::serve::{
    GconClient, Server, ServerConfig, ServerHandle, ServingMode, ServingModel, ShardWorker,
    StoreDtype,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A small public-mode `f64` store, built once per test binary.
fn store() -> &'static ServingModel {
    static STORE: OnceLock<ServingModel> = OnceLock::new();
    STORE.get_or_init(|| {
        let dataset = gcon::datasets::two_moons_graph(7);
        let mut rng = StdRng::seed_from_u64(3);
        let mut config = GconConfig::default();
        config.encoder.epochs = 5;
        config.optimizer.max_iters = 30;
        let model = train_gcon(
            &config,
            &dataset.graph,
            &dataset.features,
            &dataset.labels,
            &dataset.split.train,
            dataset.num_classes,
            2.0,
            dataset.default_delta(),
            &mut rng,
        );
        ServingModel::build_with_dtype(
            &model,
            &dataset.graph,
            &dataset.features,
            ServingMode::Public,
            StoreDtype::F64,
        )
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Stops the server when dropped, so a failed assertion unwinds into a
/// joined `run` instead of a hung test.
struct StopOnDrop(ServerHandle);

impl Drop for StopOnDrop {
    fn drop(&mut self) {
        self.0.stop();
    }
}

/// Runs `body` against `server` while it serves on a scoped thread, then
/// stops it and checks `run` returned cleanly.
fn serving(server: &Server<'_>, body: impl FnOnce(SocketAddr)) {
    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run());
        {
            let _stop = StopOnDrop(server.handle());
            body(server.local_addr());
        }
        running.join().unwrap().unwrap();
    });
}

#[test]
fn sequential_queries_count_one_single_row_forward_each() {
    let store = store();
    let server = Server::bind(store, ServerConfig::default(), "127.0.0.1:0").unwrap();
    serving(&server, |addr| {
        let mut client = GconClient::connect(addr).expect("connect");
        let before = client.stats().expect("stats");
        assert_eq!((before.batches, before.largest_batch), (0, 0), "no query has run yet");

        const N: u64 = 25;
        let n = store.num_nodes() as u64;
        for q in 0..N {
            let node = (q * 37) % n;
            let logits = client.logits(node).expect("query");
            assert_eq!(
                bits(&logits),
                bits(&store.logits(node as usize)),
                "node {node}: remote answer must be bitwise the store's logits"
            );
        }
        let stats = client.stats().expect("stats");
        assert_eq!(stats.batches, N, "one head forward per answered query: {stats:?}");
        assert_eq!(stats.largest_batch, 1, "every query is a single-row forward: {stats:?}");
        assert_eq!(stats.rejected_overload, 0, "{stats:?}");
        assert_eq!(stats.requests, N, "{stats:?}");
        client.bye().expect("bye");
    });
}

/// One raw connection holds the only permit with a `Bulk` whose answer
/// (about 16 MB) cannot fit in the loopback socket buffers of a reader
/// that never reads, so its stream stays blocked in `write`. A query from
/// a second connection must then be refused — whatever the query costs.
#[test]
fn overloaded_while_a_stalled_bulk_holds_the_only_permit() {
    let store = store();
    let config = ServerConfig { max_inflight: 1, ..Default::default() };
    let server = Server::bind(store, config, "127.0.0.1:0").unwrap();
    serving(&server, |addr| {
        let mut hog = TcpStream::connect(addr).expect("connect");
        hog.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut hog, &Request::Hello { proto: PROTO_VERSION }.encode()).unwrap();
        let ack = read_frame(&mut hog, DEFAULT_MAX_FRAME).unwrap().expect("hello ack");
        let Response::HelloAck { token, .. } = Response::decode(&ack).unwrap() else {
            panic!("expected HelloAck");
        };
        // 10⁶ node ids: an 8 MB request, just under the default frame bound.
        let n = store.num_nodes() as u64;
        let nodes: Vec<u64> = (0..1_000_000u64).map(|i| i % n).collect();
        write_frame(&mut hog, &Request::Bulk { token, nodes }.encode()).unwrap();

        // The permit is taken before the first chunk's rows are counted.
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.stats().requests == 0 {
            assert!(Instant::now() < deadline, "the bulk never started streaming");
            std::thread::sleep(Duration::from_millis(1));
        }

        let mut client = GconClient::connect(addr).expect("connect");
        match client.logits(0) {
            Err(WireError::Server { code: ErrorCode::Overloaded, .. }) => {}
            other => panic!("expected Overloaded while the permit is held, got {other:?}"),
        }
        assert_eq!(server.stats().rejected_overload, 1);
        assert_eq!(server.stats().batches, 0, "the refused query ran no forward");

        // Closing the stalled reader fails the bulk's write and frees the
        // permit; the next query is answered.
        drop(hog);
        let deadline = Instant::now() + Duration::from_secs(20);
        let logits = loop {
            match client.logits(0) {
                Ok(logits) => break logits,
                Err(WireError::Server { code: ErrorCode::Overloaded, .. }) => {
                    assert!(Instant::now() < deadline, "the permit was never released");
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(other) => panic!("unexpected failure: {other:?}"),
            }
        };
        assert_eq!(bits(&logits), bits(&store.logits(0)));
        client.bye().expect("bye");
    });
}

/// Runs `run` on its own thread, lets it block in `accept` with no client
/// at all, stops it, and checks it returned well inside a second.
fn assert_stop_is_prompt(
    target: &str,
    handle: ServerHandle,
    run: impl FnOnce() -> std::io::Result<()> + Send + 'static,
) {
    let (done_tx, done_rx) = mpsc::channel();
    // Detached, so a `run` that never returns fails this test instead of
    // hanging it.
    std::thread::spawn(move || done_tx.send(run()));
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    handle.stop();
    let result = done_rx
        .recv_timeout(Duration::from_secs(5))
        .unwrap_or_else(|_| panic!("{target}: run() did not return after stop()"));
    result.unwrap_or_else(|e| panic!("{target}: run() failed: {e}"));
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "{target}: stop() took {took:?}");
}

#[test]
fn stop_returns_promptly_when_no_client_ever_connected() {
    // A wildcard bind: the wake-up connection goes to 127.0.0.1.
    let server = Server::bind(store(), ServerConfig::default(), "0.0.0.0:0").unwrap();
    let handle = server.handle();
    assert_stop_is_prompt("Server on 0.0.0.0", handle, move || server.run());

    let worker = ShardWorker::bind(ServerConfig::default(), "127.0.0.1:0").unwrap();
    let handle = worker.handle();
    assert_stop_is_prompt("ShardWorker on 127.0.0.1", handle, move || worker.run());

    // The IPv6 wildcard wakes over ::1, where the host has IPv6 loopback.
    if std::net::TcpListener::bind("[::1]:0").is_ok() {
        let worker = ShardWorker::bind(ServerConfig::default(), "[::]:0").unwrap();
        let handle = worker.handle();
        assert_stop_is_prompt("ShardWorker on [::]", handle, move || worker.run());
    }
}
