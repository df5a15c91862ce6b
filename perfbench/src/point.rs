//! `point`: open-loop single-node `Query` frames against `gcond --store`.
//!
//! Two connections, each driven by its own generator thread on its own
//! Poisson stream at [`RATE_PER_CONN`]; node ids are Zipf(1.0) over a
//! seeded permutation. Latency runs from each query's due time to its
//! reply, so a stall is charged to every query it delays.

use crate::env::{same_bits, Env};
use crate::loadgen::{derive, pace_until, poisson_offsets, us, SplitMix64, Zipf};
use crate::report::Pass;
use crate::stats::{median, Summary};
use gcon_linalg::Mat;
use gcon_serve::wire::{Request, Response, DEFAULT_MAX_FRAME};
use gcon_serve::{BatchConfig, BatchQueue, GconClient};
use std::time::{Duration, Instant};

/// Offered rate per connection, queries per second (1000/s in total).
const RATE_PER_CONN: f64 = 500.0;
/// Client connections, one generator thread each.
const CONNECTIONS: usize = 2;
/// Closed-loop queries per connection before the schedule starts.
const WARMUP: usize = 50;
/// Pause between two rounds of the traced half's probes.
const PROBE_GAP: Duration = Duration::from_millis(2);
/// The traced half sends one `Health` round trip per this many probe rounds.
const HEALTH_EVERY: usize = 4;
/// Client socket timeout: a reply slower than this is a failed query.
const TIMEOUT: Duration = Duration::from_secs(2);

/// What one generator thread saw.
#[derive(Default)]
struct Conn {
    latency_us: Vec<f64>,
    lag_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn connect(addr: &str) -> Option<GconClient> {
    GconClient::connect_with(addr, TIMEOUT, TIMEOUT, DEFAULT_MAX_FRAME).ok()
}

/// One generator thread: its arrivals and keys come from `tag`'s streams.
fn drive(
    env: &Env,
    reference: &Mat,
    zipf: &Zipf,
    seed: u64,
    tag: &str,
    start: Instant,
    span: Duration,
) -> Conn {
    let offsets = poisson_offsets(derive(seed, &format!("{tag}-arrivals")), RATE_PER_CONN, span);
    let mut keys = SplitMix64::new(derive(seed, &format!("{tag}-keys")));
    let nodes: Vec<usize> = offsets.iter().map(|_| zipf.sample(&mut keys)).collect();
    let mut c = Conn::default();
    let mut client = connect(&env.daemon.addr);
    for &node in nodes.iter().take(WARMUP) {
        let _ = client.as_mut().map(|cl| cl.logits(node as u64));
    }
    for (&offset, &node) in offsets.iter().zip(&nodes) {
        let due = start + offset;
        c.lag_us.extend(pace_until(due).map(us));
        let answer = client.as_mut().and_then(|cl| cl.logits(node as u64).ok());
        c.latency_us.push(us(due.elapsed()));
        let ok = answer.as_deref().is_some_and(|v| same_bits(v, reference.row(node)));
        c.attempted += 1;
        c.failed += u64::from(!ok);
        if answer.is_none() {
            client = connect(&env.daemon.addr);
        }
    }
    c
}

/// What the traced half's probe thread timed.
#[derive(Default)]
struct Probes {
    batch_us: Vec<f64>,
    forward_ns: Vec<f64>,
    codec_ns: Vec<f64>,
    health_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// The traced half's probe thread: times each layer's public call on the
/// generators' key distribution until `deadline`. It runs beside the
/// generators rather than on them, so their schedule is not disturbed;
/// `Health` goes over the idle stats connection.
fn probe(
    env: &Env,
    reference: &Mat,
    zipf: &Zipf,
    seed: u64,
    deadline: Instant,
    client: &mut Option<GconClient>,
) -> Probes {
    let queue = BatchQueue::new(&env.store, BatchConfig::default());
    let mut session = env.store.session();
    let mut keys = SplitMix64::new(derive(seed, "point-probe-keys"));
    let (mut p, mut out) = (Probes::default(), Vec::new());
    for round in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let node = zipf.sample(&mut keys);
        let expected = reference.row(node);
        let t = Instant::now();
        queue.query_into(node, &mut out);
        p.batch_us.push(us(t.elapsed()));
        let mut ok = same_bits(&out, expected);
        let t = Instant::now();
        session.logits_into(node, &mut out);
        p.forward_ns.push(t.elapsed().as_secs_f64() * 1e9);
        ok &= same_bits(&out, expected);
        let t = Instant::now();
        let request = Request::Query { token: 7, node: node as u64 };
        let decoded_request = Request::decode(&request.encode());
        let decoded_reply = Response::decode(&Response::Logits { values: out.clone() }.encode());
        p.codec_ns.push(t.elapsed().as_secs_f64() * 1e9);
        ok &= decoded_request.is_ok_and(|r| r == request)
            && matches!(decoded_reply, Ok(Response::Logits { values }) if same_bits(&values, expected));
        if round % HEALTH_EVERY == 0 {
            let t = Instant::now();
            let healthy = client.as_mut().map(|cl| cl.health());
            p.health_us.push(us(t.elapsed()));
            ok &= matches!(healthy, Some(Ok(true)));
        }
        p.attempted += 1;
        p.failed += u64::from(!ok);
        std::thread::sleep(PROBE_GAP);
    }
    p
}

/// Runs the schedule for `span`; `traced` adds the per-layer probe thread.
pub fn run(
    env: &Env,
    reference: &Mat,
    seed: u64,
    label: &str,
    span: Duration,
    traced: bool,
) -> Pass {
    let mut pass = Pass::default();
    let zipf = Zipf::new(env.store.num_nodes(), 1.0, derive(seed, "point-permutation"));
    let mut stats_client = connect(&env.daemon.addr);
    let before = stats_client.as_mut().and_then(|c| c.stats().ok());
    // Leaves time for every thread to connect and warm up first.
    let start = Instant::now() + Duration::from_millis(300);
    let (conns, probes) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|k| {
                let (zipf, tag) = (&zipf, format!("point-{label}-{k}"));
                s.spawn(move || drive(env, reference, zipf, seed, &tag, start, span))
            })
            .collect();
        let probes =
            traced.then(|| probe(env, reference, &zipf, seed, start + span, &mut stats_client));
        let conns: Vec<Conn> =
            handles.into_iter().map(|h| h.join().expect("point generator panicked")).collect();
        (conns, probes)
    });
    let after = stats_client.as_mut().and_then(|c| c.stats().ok());
    pass.check(before.is_some() && after.is_some(), "point: daemon Stats frame");

    let cat = |f: fn(&Conn) -> &Vec<f64>| {
        conns.iter().flat_map(|c| f(c).iter().copied()).collect::<Vec<_>>()
    };
    for c in &conns {
        pass.attempted += c.attempted;
        pass.failed += c.failed;
    }
    let latency = Summary::new(cat(|c| &c.latency_us));
    let lag = Summary::new(cat(|c| &c.lag_us));
    pass.set("query_p50_us", latency.p50());
    pass.set("query_p99_us", latency.tail(9900).1);
    pass.set("loadgen.point_lag_p99_us", lag.tail(9900).1);
    pass.note(format!("point {label}: query latency {}", latency.describe("us")));
    pass.note(format!("point {label}: generator lag {}", lag.describe("us")));
    if let (Some(b), Some(a)) = (before, after) {
        let (requests, batches) = (a.requests - b.requests, a.batches - b.batches);
        let rejected = a.rejected_overload - b.rejected_overload;
        pass.check(rejected == 0, "point: no query was rejected as Overloaded");
        pass.set("batch.mean_size", requests as f64 / batches.max(1) as f64);
        pass.note(format!(
            "point {label}: daemon answered {requests} queries in {batches} batches"
        ));
    }
    if let Some(p) = probes {
        pass.attempted += p.attempted;
        pass.failed += p.failed;
        pass.set("batch.query_us", median(&p.batch_us));
        pass.set("model.forward_ns", median(&p.forward_ns));
        pass.set("wire.codec_ns", median(&p.codec_ns));
        pass.set("wire.health_rtt_us", median(&p.health_us));
    }
    pass
}
