//! `update`: single-edge toggles through `DeltaCoalescer::submit` beside
//! open-loop point reads on `DynamicServingModel::snapshot()` sessions.
//!
//! One closed-loop writer toggles one edge per submit (insert if absent,
//! remove if present); one endpoint is uniform, the other drawn with
//! probability ∝ degree + 1. One reader thread issues Poisson reads at
//! [`READ_RATE`] with Zipf(1.0) node ids.

use crate::env::{same_bits, Env};
use crate::loadgen::{derive, pace_until, poisson_offsets, us, SplitMix64, Zipf};
use crate::report::Pass;
use crate::stats::{median, Summary};
use gcon_core::{ApprChain, InfRefreshKind, PropagationStep};
use gcon_graph::normalize::row_stochastic;
use gcon_graph::{Csr, CsrDelta, Graph};
use gcon_linalg::Mat;
use gcon_serve::{
    CoalesceConfig, DeltaCoalescer, DeltaOutcome, DynamicServingModel, ServingMode, StoreDtype,
};
use std::time::{Duration, Instant};

/// Offered read rate, reads per second.
const READ_RATE: f64 = 1000.0;

/// The writer's state, carried across passes: its copy of the live graph
/// and its key stream.
#[derive(Debug)]
pub struct State {
    mirror: Graph,
    /// Upper bound on every degree, for rejection sampling.
    degree_bound: usize,
    rng: SplitMix64,
    generation: u64,
    cumulative_bound: f64,
}

impl State {
    /// The writer state for `env`'s freshly built dynamic store.
    pub fn new(env: &Env, seed: u64) -> Self {
        let mirror = env.served.graph.clone();
        let degree_bound = mirror.max_degree();
        let initial = env.dynamic.snapshot();
        let (generation, cumulative_bound) = (initial.generation(), initial.staleness_bound());
        Self {
            mirror,
            degree_bound,
            rng: SplitMix64::new(derive(seed, "update-edges")),
            generation,
            cumulative_bound,
        }
    }

    /// The next toggle `(u, v)`: `u` uniform, `v ≠ u` with probability
    /// ∝ degree + 1 (rejection against the running degree bound).
    fn next_pair(&mut self) -> (u32, u32) {
        let n = self.mirror.num_nodes();
        let u = self.rng.below(n) as u32;
        loop {
            let v = self.rng.below(n) as u32;
            if v != u && self.rng.below(self.degree_bound + 1) <= self.mirror.degree(v) {
                return (u, v);
            }
        }
    }

    /// The single-edge delta toggling `(u, v)` against the mirror.
    fn toggle(&self, u: u32, v: u32) -> CsrDelta {
        let mut delta = CsrDelta::new();
        if self.mirror.has_edge(u, v) {
            delta.remove_edge(u, v);
        } else {
            delta.insert_edge(u, v);
        }
        delta
    }

    /// Applies the toggle to the mirror once the program has.
    fn commit(&mut self, u: u32, v: u32) {
        if !self.mirror.remove_edge(u, v) {
            self.mirror.add_edge(u, v);
        }
        self.degree_bound = self.degree_bound.max(self.mirror.degree(u)).max(self.mirror.degree(v));
    }
}

/// The traced pass's replicas, built from the mirror before it starts:
/// a second dynamic store (for `apply_delta`'s own time) and a bare
/// `(Graph, Ã, ApprChain)` (for `CsrDelta::apply` and `refresh`).
struct Replica {
    dynamic: DynamicServingModel,
    graph: Graph,
    a_tilde: Csr,
    x_enc: Mat,
    chain: ApprChain,
    clip_p: f64,
}

impl Replica {
    fn new(env: &Env, mirror: &Graph) -> Self {
        let model = &env.model;
        let dynamic = DynamicServingModel::build_with_dtype(
            model,
            mirror.clone(),
            &env.served.features,
            ServingMode::Public,
            StoreDtype::F64,
        );
        let mut x_enc = model.encoder.encode(&env.served.features);
        x_enc.normalize_rows_l2();
        let clip_p = model.config.clip_p;
        let a_tilde = row_stochastic(mirror, clip_p);
        let chain = ApprChain::build(
            &a_tilde,
            &x_enc,
            model.config.alpha,
            &model.config.steps,
            model.config.ppr_solver,
        );
        Self { dynamic, graph: mirror.clone(), a_tilde, x_enc, chain, clip_p }
    }

    /// `(apply_delta, CsrDelta::apply, ApprChain::refresh)` times, µs.
    fn time(&mut self, delta: &CsrDelta) -> (f64, f64, f64) {
        let t = Instant::now();
        self.dynamic.apply_delta(delta, None);
        let whole = us(t.elapsed());
        let t = Instant::now();
        let result = delta.apply(&mut self.graph, &self.a_tilde, self.clip_p);
        let apply = us(t.elapsed());
        let t = Instant::now();
        self.chain.refresh(&result.a_tilde, &self.x_enc, &result.touched);
        let refresh = us(t.elapsed());
        self.a_tilde = result.a_tilde;
        (whole, apply, refresh)
    }
}

/// What the reader thread saw.
struct Reads {
    latency_us: Vec<f64>,
    lag_us: Vec<f64>,
    failed: u64,
}

fn read(env: &Env, offsets: &[Duration], nodes: &[usize], start: Instant) -> Reads {
    let classes = env.model.num_classes;
    let mut r =
        Reads { latency_us: Vec::with_capacity(offsets.len()), lag_us: Vec::new(), failed: 0 };
    let mut out = Vec::new();
    for (&offset, &node) in offsets.iter().zip(nodes) {
        let due = start + offset;
        r.lag_us.extend(pace_until(due).map(us));
        let generation = env.dynamic.snapshot();
        generation.model().session().logits_into(node, &mut out);
        r.latency_us.push(us(due.elapsed()));
        r.failed += u64::from(out.len() != classes || !out.iter().all(|v| v.is_finite()));
    }
    r
}

/// The end-of-pass check: the dynamic store's finite block is bitwise a
/// rebuild on the final graph, and its ∞ block lies within the summed
/// staleness certificates of the two.
fn store_matches_rebuild(env: &Env, state: &State) -> bool {
    let rebuilt = DynamicServingModel::build_with_dtype(
        &env.model,
        state.mirror.clone(),
        &env.served.features,
        ServingMode::Public,
        StoreDtype::F64,
    );
    let (live, fresh) = (env.dynamic.snapshot(), rebuilt.snapshot());
    let (Some(got), Some(want)) = (live.model().store_f64(), fresh.model().store_f64()) else {
        return false;
    };
    let steps = &env.model.config.steps;
    let width = got.cols() / steps.len();
    // Store entries are features scaled by 1/s; compare features.
    let budget = state.cumulative_bound + fresh.staleness_bound();
    let s = steps.len() as f64;
    got.shape() == want.shape()
        && steps.iter().enumerate().all(|(i, step)| {
            (0..got.rows()).all(|r| {
                let (a, b) = (
                    &got.row(r)[i * width..(i + 1) * width],
                    &want.row(r)[i * width..(i + 1) * width],
                );
                match step {
                    PropagationStep::Finite(_) => same_bits(a, b),
                    PropagationStep::Infinite => a
                        .iter()
                        .zip(b)
                        .all(|(x, y)| (x - y).abs() * s <= budget * (1.0 + 1e-9) + 1e-15),
                }
            })
        })
}

/// Runs the writer and the reader for `span`; `traced` adds the replica
/// timings.
pub fn run(
    env: &Env,
    state: &mut State,
    seed: u64,
    label: &str,
    span: Duration,
    traced: bool,
) -> Pass {
    let mut pass = Pass::default();
    let coalescer = DeltaCoalescer::new(&env.dynamic, CoalesceConfig::default());
    let mut replica = traced.then(|| Replica::new(env, &state.mirror));
    let zipf = Zipf::new(env.store.num_nodes(), 1.0, derive(seed, "update-permutation"));
    let offsets =
        poisson_offsets(derive(seed, &format!("update-{label}-arrivals")), READ_RATE, span);
    let mut keys = SplitMix64::new(derive(seed, &format!("update-{label}-keys")));
    let nodes: Vec<usize> = offsets.iter().map(|_| zipf.sample(&mut keys)).collect();

    let mut visible_us = Vec::new();
    let mut outcomes: Vec<DeltaOutcome> = Vec::new();
    let (mut whole_us, mut apply_us, mut refresh_us) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + span;
    let (reads, writer_time) = std::thread::scope(|s| {
        let reader = s.spawn(|| read(env, &offsets, &nodes, start));
        pace_until(start);
        while Instant::now() < end {
            let (u, v) = state.next_pair();
            let delta = state.toggle(u, v);
            let t = Instant::now();
            let outcome = coalescer.submit(delta.clone(), None);
            visible_us.push(us(t.elapsed()));
            let ok = outcome.generation == state.generation + 1;
            state.generation = outcome.generation;
            state.cumulative_bound = outcome.cumulative_staleness_bound;
            state.commit(u, v);
            pass.op(ok);
            if let Some(replica) = replica.as_mut() {
                let (whole, apply, refresh) = replica.time(&delta);
                whole_us.push(whole);
                apply_us.push(apply);
                refresh_us.push(refresh);
            }
            outcomes.push(outcome);
        }
        let writer_time = start.elapsed();
        (reader.join().expect("update reader panicked"), writer_time)
    });
    pass.attempted += reads.latency_us.len() as u64;
    pass.failed += reads.failed;
    pass.check(
        store_matches_rebuild(env, state),
        "update: store equals a rebuild on the final graph",
    );

    let visible = Summary::new(visible_us.iter().map(|v| v / 1e3).collect());
    let read_latency = Summary::new(reads.latency_us);
    let lag = Summary::new(reads.lag_us);
    pass.set("updates_per_s", outcomes.len() as f64 / writer_time.as_secs_f64());
    pass.set("visible_p50_ms", visible.p50());
    pass.set("visible_p99_ms", visible.tail(9900).1);
    pass.set("read_p99_us", read_latency.tail(9900).1);
    pass.set("loadgen.update_lag_p99_us", lag.tail(9900).1);
    pass.note(format!("update {label}: visible latency {}", visible.describe("ms")));
    pass.note(format!("update {label}: read latency {}", read_latency.describe("us")));
    pass.note(format!("update {label}: generator lag {}", lag.describe("us")));

    let count = outcomes.len().max(1) as f64;
    pass.set(
        "refresh.rows_recomputed",
        outcomes.iter().map(|o| o.rows_recomputed as f64).sum::<f64>() / count,
    );
    pass.set(
        "refresh.inf_iterations",
        outcomes.iter().map(|o| o.inf_iterations as f64).sum::<f64>() / count,
    );
    let pushed = outcomes.iter().filter(|o| o.inf_solver == Some(InfRefreshKind::Push)).count();
    pass.set("refresh.push_share", pushed as f64 / count);
    pass.set(
        "refresh.staleness_max",
        outcomes.iter().map(|o| o.staleness_bound).fold(0.0, f64::max),
    );
    let stats = coalescer.stats();
    pass.set("coalesce.mean_window", stats.edits as f64 / stats.windows.max(1) as f64);
    if traced {
        let per_op =
            |f: &dyn Fn(usize) -> f64| median(&(0..whole_us.len()).map(f).collect::<Vec<_>>());
        pass.set("coalesce.wait_us", per_op(&|i| visible_us[i] - whole_us[i]));
        pass.set("delta.apply_us", median(&apply_us));
        pass.set("refresh.us", median(&refresh_us));
        pass.set("dynamic.publish_us", per_op(&|i| whole_us[i] - apply_us[i] - refresh_us[i]));
    }
    pass
}
