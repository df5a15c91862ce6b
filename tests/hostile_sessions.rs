//! Table-driven hostile-session suite: the same sequence of malformed,
//! out-of-order and forged frames runs against an in-process `Server`
//! and an in-process `ShardWorker`, and both must answer each case with
//! the same typed reply — then close the connection where the session
//! contract says so, or keep serving where it does not.

use gcon::core::train::train_gcon;
use gcon::core::GconConfig;
use gcon::serve::wire::{
    read_frame, write_frame, ErrorCode, Request, Response, DEFAULT_MAX_FRAME, PROTO_VERSION,
};
use gcon::serve::{
    Server, ServerConfig, ServerHandle, ServingMode, ServingModel, ShardWorker, StoreDtype,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One client action; each one draws exactly one reply frame.
enum Step {
    /// A well-formed request, built from the session token (0 before the
    /// handshake was acknowledged).
    Request(fn(u64) -> Request),
    /// A framed body that is not a valid request.
    Body(&'static [u8]),
    /// Bytes written to the socket as they are (no length prefix added).
    Raw(&'static [u8]),
}

/// The reply a step must draw.
#[derive(Clone, Copy, Debug)]
enum Reply {
    Ack,
    Health,
    Stats,
    Error(ErrorCode),
}

struct Case {
    name: &'static str,
    steps: &'static [(Step, Reply)],
    /// Whether the target must close the connection after the last reply.
    closes: bool,
}

/// 64 MiB announced against the 8 MiB default frame bound.
const OVERSIZED_HEADER: [u8; 4] = (64u32 << 20).to_le_bytes();

const CASES: &[Case] = &[
    Case {
        name: "request before hello",
        steps: &[(
            Step::Request(|t| Request::Stats { token: t }),
            Reply::Error(ErrorCode::BadHandshake),
        )],
        closes: true,
    },
    Case {
        name: "duplicate hello",
        steps: &[
            (Step::Request(|_| Request::Hello { proto: PROTO_VERSION }), Reply::Ack),
            (
                Step::Request(|_| Request::Hello { proto: PROTO_VERSION }),
                Reply::Error(ErrorCode::BadHandshake),
            ),
        ],
        closes: true,
    },
    Case {
        name: "wrong protocol version",
        steps: &[(
            Step::Request(|_| Request::Hello { proto: PROTO_VERSION + 1 }),
            Reply::Error(ErrorCode::BadHandshake),
        )],
        closes: true,
    },
    Case {
        name: "wrong token",
        steps: &[
            (Step::Request(|_| Request::Hello { proto: PROTO_VERSION }), Reply::Ack),
            (Step::Request(|t| Request::Stats { token: t ^ 1 }), Reply::Error(ErrorCode::BadToken)),
        ],
        closes: true,
    },
    Case {
        name: "oversized frame header",
        steps: &[(Step::Raw(&OVERSIZED_HEADER), Reply::Error(ErrorCode::TooLarge))],
        closes: true,
    },
    Case {
        name: "undecodable body",
        steps: &[(Step::Body(&[0xEE, 1, 2, 3]), Reply::Error(ErrorCode::BadFrame))],
        closes: true,
    },
    Case {
        name: "health before hello",
        steps: &[
            (Step::Request(|_| Request::Health), Reply::Health),
            // The session survives: the handshake still works afterwards.
            (Step::Request(|_| Request::Hello { proto: PROTO_VERSION }), Reply::Ack),
            (Step::Request(|t| Request::Stats { token: t }), Reply::Stats),
        ],
        closes: false,
    },
];

/// Runs one case on a fresh connection to `addr`.
fn run_case(target: &str, addr: SocketAddr, case: &Case) {
    let ctx = format!("{target}, case `{}`", case.name);
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut token = 0;
    for (step, want) in case.steps {
        match step {
            Step::Request(build) => write_frame(&mut conn, &build(token).encode()).unwrap(),
            Step::Body(body) => write_frame(&mut conn, body).unwrap(),
            Step::Raw(bytes) => conn.write_all(bytes).unwrap(),
        }
        let body = read_frame(&mut conn, DEFAULT_MAX_FRAME)
            .unwrap_or_else(|e| panic!("{ctx}: reading the reply: {e}"))
            .unwrap_or_else(|| panic!("{ctx}: closed before replying"));
        let got = Response::decode(&body).unwrap_or_else(|e| panic!("{ctx}: bad reply: {e}"));
        match (want, &got) {
            (Reply::Ack, Response::HelloAck { token: t, .. }) => token = *t,
            (Reply::Health, Response::HealthReply { ok: true }) => {}
            (Reply::Stats, Response::StatsReply(_)) => {}
            (Reply::Error(code), Response::Error { code: c, .. }) if c == code => {}
            _ => panic!("{ctx}: expected {want:?}, got {got:?}"),
        }
    }
    if case.closes {
        // No further frame: a clean EOF or a reset both mean "closed".
        if let Ok(Some(body)) = read_frame(&mut conn, DEFAULT_MAX_FRAME) {
            panic!("{ctx}: expected a close, got {:?}", Response::decode(&body));
        }
    } else {
        write_frame(&mut conn, &Request::Bye.encode()).unwrap();
    }
}

fn run_table(target: &str, addr: SocketAddr, handle: ServerHandle) {
    for case in CASES {
        run_case(target, addr, case);
    }
    // Still serving a well-behaved client after the whole table.
    let mut conn = TcpStream::connect(addr).expect("connect after the table");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_frame(&mut conn, &Request::Health.encode()).unwrap();
    let body = read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap().expect("health reply");
    assert!(matches!(Response::decode(&body).unwrap(), Response::HealthReply { ok: true }));
    drop(conn);
    handle.stop();
}

fn config() -> ServerConfig {
    // A short read timeout bounds how long a connection thread the table
    // left half-open can delay shutdown.
    ServerConfig { read_timeout: Duration::from_secs(2), ..Default::default() }
}

fn store() -> ServingModel {
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
}

#[test]
fn hostile_sessions_against_server() {
    let store = store();
    let server = Server::bind(&store, config(), "127.0.0.1:0").unwrap();
    std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run());
        run_table("Server", server.local_addr(), server.handle());
        running.join().unwrap().unwrap();
    });
}

#[test]
fn hostile_sessions_against_shard_worker() {
    let worker = ShardWorker::bind(config(), "127.0.0.1:0").unwrap();
    std::thread::scope(|scope| {
        let running = scope.spawn(|| worker.run());
        run_table("ShardWorker", worker.local_addr(), worker.handle());
        running.join().unwrap().unwrap();
    });
}
