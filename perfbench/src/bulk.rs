//! `bulk`: closed-loop `Coordinator::bulk` calls of [`BULK_NODES`] Zipf
//! node ids against the 2-shard fleet of `gcond --shard` processes.

use crate::env::{same_bits, Env};
use crate::loadgen::{derive, us, SplitMix64, Zipf};
use crate::report::Pass;
use crate::stats::{median, Summary};
use gcon_linalg::Mat;
use gcon_serve::wire::{Request, Response};
use gcon_serve::GconClient;
use std::time::{Duration, Instant};

/// Node ids per `bulk` call.
const BULK_NODES: usize = 1024;
/// Distinct node sets a pass cycles through (generated before timing).
const SETS: usize = 64;
/// Untimed calls before the pass starts.
const WARMUP: usize = 20;

/// Whether every row of `got` equals the reference row of its node.
fn rows_match(got: &Mat, nodes: &[u64], reference: &Mat) -> bool {
    got.rows() == nodes.len()
        && nodes.iter().enumerate().all(|(r, &n)| same_bits(got.row(r), reference.row(n as usize)))
}

/// Wire bytes of one shard call: the `ShardQuery` frame, one
/// `ShardLogits` frame (a share fits one chunk under the default frame
/// bound) and `BulkDone`, each with its 4-byte length header.
fn shard_call_bytes(nodes: &[u64], classes: usize) -> usize {
    let query = Request::ShardQuery { token: 0, nodes: nodes.to_vec() }.encode().len();
    let logits = Response::ShardLogits {
        start: 0,
        cols: classes as u32,
        values: vec![0.0; nodes.len() * classes],
    }
    .encode()
    .len();
    let done = Response::BulkDone { total_rows: nodes.len() as u64 }.encode().len();
    12 + query + logits + done
}

/// Runs closed-loop calls for `span`; `traced` adds the per-layer probes.
pub fn run(
    env: &Env,
    reference: &Mat,
    seed: u64,
    label: &str,
    span: Duration,
    traced: bool,
) -> Pass {
    let mut pass = Pass::default();
    let n = env.store.num_nodes();
    let classes = env.store.num_classes();
    let zipf = Zipf::new(n, 1.0, derive(seed, "bulk-permutation"));
    let mut keys = SplitMix64::new(derive(seed, &format!("bulk-{label}-keys")));
    let sets: Vec<Vec<u64>> = (0..SETS)
        .map(|_| (0..BULK_NODES).map(|_| zipf.sample(&mut keys) as u64).collect())
        .collect();
    // Shard s owns rows [s·n/k, (s+1)·n/k), the coordinator's partition.
    let k = env.shards.len();
    let owner =
        |node: u64| (0..k).find(|&s| (node as usize) < (s + 1) * n / k).expect("node in range");
    let mut direct: Vec<Option<GconClient>> = if traced {
        env.shards.iter().map(|d| GconClient::connect(d.addr.as_str()).ok()).collect()
    } else {
        Vec::new()
    };
    let mut session = env.store.session();

    for nodes in sets.iter().cycle().take(WARMUP) {
        let _ = env.fleet.bulk(nodes);
    }
    let (mut latency_us, mut shard_us, mut self_us, mut forward_us, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rows = 0usize;
    let end = Instant::now() + span;
    for nodes in sets.iter().cycle() {
        if Instant::now() >= end {
            break;
        }
        let t = Instant::now();
        let answer = env.fleet.bulk(nodes);
        let call_us = us(t.elapsed());
        latency_us.push(call_us);
        let ok = answer.as_ref().is_ok_and(|m| rows_match(m, nodes, reference));
        pass.op(ok);
        rows += if ok { nodes.len() } else { 0 };
        if !traced {
            continue;
        }
        // Traced: each shard's share straight to its worker, the in-process
        // forward of the largest share, and the frame bytes.
        let shares: Vec<Vec<u64>> =
            (0..k).map(|s| nodes.iter().copied().filter(|&v| owner(v) == s).collect()).collect();
        let mut slowest = 0.0_f64;
        let mut probes_ok = true;
        for (share, client) in shares.iter().zip(direct.iter_mut()) {
            let t = Instant::now();
            let got = client.as_mut().map(|c| c.shard_query(share, classes));
            slowest = slowest.max(us(t.elapsed()));
            probes_ok &= matches!(got, Some(Ok(m)) if rows_match(&m, share, reference));
        }
        shard_us.push(slowest);
        self_us.push(call_us - slowest);
        let largest: Vec<usize> = shares
            .iter()
            .max_by_key(|s| s.len())
            .expect("k ≥ 1")
            .iter()
            .map(|&v| v as usize)
            .collect();
        let t = Instant::now();
        let m = session.logits_batch(&largest);
        forward_us.push(us(t.elapsed()));
        probes_ok &=
            largest.iter().enumerate().all(|(r, &v)| same_bits(m.row(r), reference.row(v)));
        bytes.push(shares.iter().map(|s| shard_call_bytes(s, classes)).sum::<usize>() as f64);
        pass.op(probes_ok);
    }
    let stats = env.fleet.stats();
    pass.check(
        stats.failovers == 0 && stats.quarantined == 0 && stats.dead == 0,
        "bulk: no failover, quarantine or dead replica",
    );
    pass.set("fleet.failovers", stats.failovers as f64);
    pass.set("fleet.quarantined", stats.quarantined as f64);

    let busy_s = latency_us.iter().sum::<f64>() / 1e6;
    let latency = Summary::new(latency_us);
    // Rows per second of time spent inside `bulk` (the check is not timed).
    pass.set("bulk_nodes_per_s", rows as f64 / busy_s.max(1e-9));
    pass.set("bulk_p50_us", latency.p50());
    pass.set("bulk_p99_us", latency.tail(9900).1);
    pass.note(format!(
        "bulk {label}: call latency {}, {rows} rows answered",
        latency.describe("us")
    ));
    if traced {
        pass.set("fleet.shard_query_us", median(&shard_us));
        pass.set("fleet.coord_self_us", median(&self_us));
        pass.set("model.batch_forward_us", median(&forward_us));
        pass.set("wire.bulk_bytes", median(&bytes));
    }
    pass
}
