//! Dynamic micro-batching: coalesce concurrent single-node queries into one
//! head forward per batch window.
//!
//! Queries ride the shared generation window (`crate::window`): the first
//! query of a window leads it, waits until the window fills
//! ([`BatchConfig::max_batch`]) or its budget ([`BatchConfig::max_wait`])
//! elapses, then runs **one** gathered head forward for the whole window on
//! the shared workspace — the GEMM itself parallelizes across
//! `gcon_runtime::pool()` like every other kernel in the workspace — and
//! writes each result row into the output buffer its submitter moved into
//! the window. Each submitter gets its own buffer back once the window is
//! published.
//!
//! # Steady-state allocation
//!
//! None per batch: the window recycles its item vectors, the
//! gathered-batch/logits buffers live in one `gcon_nn::HeadWorkspace`
//! (in the model's store dtype — see `ServingModel::store_dtype`), and
//! results land in caller-owned `Vec`s via the `_into` convention. The
//! queue allocates only while growing to its high-water batch size.

use crate::model::{ServingModel, SessionWs};
use crate::window::Window;
use gcon_linalg::Mat;
use std::sync::Mutex;
use std::time::Duration;

/// Window bounds for [`BatchQueue`].
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    /// Hard upper bound on requests per batch; a window closes immediately
    /// when it fills. Must be ≥ 1.
    pub max_batch: usize,
    /// Latency budget of a non-full window: how long its leader waits for
    /// more requests before closing it. `ZERO` disables coalescing-by-time
    /// (each window still batches whatever arrived while the previous one
    /// executed). A budget too large to represent as a deadline (e.g.
    /// [`Duration::MAX`]) means wait until the window **fills** — only safe
    /// when the request flow is guaranteed to produce `max_batch`
    /// concurrent queries.
    pub max_wait: Duration,
}

impl Default for BatchConfig {
    /// 64-request windows with a 500 µs budget — the bench's sweet spot on
    /// the dev box; tune per deployment.
    fn default() -> Self {
        Self { max_batch: 64, max_wait: Duration::from_micros(500) }
    }
}

/// Counters exposed by [`BatchQueue::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches executed so far.
    pub batches: u64,
    /// Requests answered so far (`requests / batches` = mean batch size).
    pub requests: u64,
    /// Largest batch executed so far.
    pub largest_batch: usize,
}

/// One windowed query: the node and the submitter's output buffer, moved
/// into the window and handed back filled.
#[derive(Default)]
struct Request {
    node: usize,
    out: Vec<f64>,
}

/// Shared buffers of the (single, in-order) executing leader: the head
/// workspace in the model's store dtype plus the widened `f64` logit block
/// the result rows are scattered from.
struct Exec {
    ws: SessionWs,
    nodes: Vec<usize>,
    logits64: Mat,
}

/// A dynamic micro-batcher over a [`ServingModel`] — see the module docs
/// for the protocol. Share one instance (`&BatchQueue` under
/// `std::thread::scope`, or wrap queue + model in `Arc`s) between all
/// serving threads; every public method takes `&self`.
pub struct BatchQueue<'m> {
    model: &'m ServingModel,
    window: Window<Request>,
    /// Uncontended (the window admits one executing leader at a time); it
    /// exists to hand out `&mut` to the shared workspace.
    exec: Mutex<Exec>,
}

impl<'m> BatchQueue<'m> {
    /// Creates a queue over `model` with the given window bounds.
    ///
    /// # Panics
    /// Panics if `config.max_batch == 0`.
    pub fn new(model: &'m ServingModel, config: BatchConfig) -> Self {
        assert!(config.max_batch >= 1, "BatchQueue: max_batch must be ≥ 1");
        Self {
            model,
            window: Window::new(config.max_batch, config.max_wait),
            exec: Mutex::new(Exec {
                ws: model.session_ws(),
                nodes: Vec::new(),
                logits64: Mat::default(),
            }),
        }
    }

    /// The model this queue serves.
    pub fn model(&self) -> &ServingModel {
        self.model
    }

    /// Execution counters so far (batches, requests, largest batch).
    pub fn stats(&self) -> BatchStats {
        let w = self.window.stats();
        BatchStats { batches: w.windows, requests: w.items, largest_batch: w.largest }
    }

    /// Queries one node's logits, blocking until the batch window the
    /// request lands in has executed. `out` is cleared and refilled (caller
    /// allocation reused across calls — the zero-alloc steady-state path).
    ///
    /// Logits are bitwise identical to [`ServingModel`]'s direct paths —
    /// and therefore to `gcon-core::infer` — regardless of which requests
    /// share the window.
    ///
    /// # Panics
    /// Panics if `node` is out of bounds for the model's store (checked on
    /// entry, before the request can join a window).
    pub fn query_into(&self, node: usize, out: &mut Vec<f64>) {
        assert!(
            node < self.model.num_nodes(),
            "BatchQueue: query for node {node} but the store has {} nodes",
            self.model.num_nodes()
        );
        let request = Request { node, out: std::mem::take(out) };
        *out = self.window.submit(request, |_, batch| self.execute(batch)).out;
    }

    /// Allocating convenience for [`BatchQueue::query_into`].
    pub fn query(&self, node: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.query_into(node, &mut out);
        out
    }

    /// Hard class prediction of one node through the micro-batcher.
    pub fn predict(&self, node: usize) -> usize {
        let mut out = Vec::new();
        self.query_into(node, &mut out);
        gcon_linalg::vecops::argmax(&out)
    }

    /// Leader work: one gathered head forward for the whole window, then
    /// scatter the rows into the submitters' buffers.
    fn execute(&self, batch: &mut [Request]) {
        let mut exec = self.exec.lock().expect("BatchQueue: poisoned exec");
        let exec = &mut *exec;
        exec.nodes.clear();
        exec.nodes.extend(batch.iter().map(|r| r.node));
        self.model.forward_widen_into(&exec.nodes, &mut exec.ws, &mut exec.logits64);
        for (row, request) in batch.iter_mut().enumerate() {
            request.out.clear();
            request.out.extend_from_slice(exec.logits64.row(row));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ServingMode, ServingModel};
    use crate::testutil::tiny_trained;

    fn serving() -> ServingModel {
        let (model, graph, x) = tiny_trained();
        ServingModel::build(model, graph, x, ServingMode::Public)
    }

    #[test]
    fn sequential_queries_match_direct_path_bitwise() {
        let serving = serving();
        let queue = BatchQueue::new(&serving, BatchConfig::default());
        let mut out = Vec::new();
        for node in 0..serving.num_nodes() {
            queue.query_into(node, &mut out);
            assert_eq!(out, serving.logits(node), "node {node}");
            assert_eq!(queue.predict(node), serving.predict(node));
            assert_eq!(queue.query(node), out);
        }
        let stats = queue.stats();
        assert!(stats.requests >= serving.num_nodes() as u64 * 3);
        assert!(stats.batches >= 1);
    }

    #[test]
    fn concurrent_queries_coalesce_and_match_bitwise() {
        let serving = serving();
        let n = serving.num_nodes();
        // A generous window so concurrent requests actually coalesce.
        let config = BatchConfig { max_batch: 16, max_wait: Duration::from_millis(5) };
        let queue = BatchQueue::new(&serving, config);
        let threads = 8;
        let per_thread = 24;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let queue = &queue;
                let serving = &serving;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for q in 0..per_thread {
                        let node = (t * 31 + q * 7) % n;
                        queue.query_into(node, &mut out);
                        assert_eq!(out, serving.logits(node), "thread {t} query {q} node {node}");
                    }
                });
            }
        });
        let stats = queue.stats();
        assert_eq!(stats.requests, (threads * per_thread) as u64);
        assert!(stats.largest_batch <= config.max_batch, "window bound violated: {stats:?}");
        assert!(
            stats.batches < stats.requests,
            "no coalescing ever happened under concurrency: {stats:?}"
        );
    }

    #[test]
    fn max_batch_one_serves_every_request_alone() {
        let serving = serving();
        let config = BatchConfig { max_batch: 1, max_wait: Duration::from_millis(50) };
        let queue = BatchQueue::new(&serving, config);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let queue = &queue;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for q in 0..8 {
                        queue.query_into((t + q * 3) % queue.model().num_nodes(), &mut out);
                    }
                });
            }
        });
        let stats = queue.stats();
        assert_eq!(stats.largest_batch, 1);
        assert_eq!(stats.batches, stats.requests);
    }

    #[test]
    fn zero_wait_still_answers_correctly() {
        let serving = serving();
        let queue =
            BatchQueue::new(&serving, BatchConfig { max_batch: 64, max_wait: Duration::ZERO });
        std::thread::scope(|scope| {
            for t in 0..4 {
                let queue = &queue;
                let serving = &serving;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for q in 0..16 {
                        let node = (t * 13 + q) % serving.num_nodes();
                        queue.query_into(node, &mut out);
                        assert_eq!(out, serving.logits(node));
                    }
                });
            }
        });
    }

    /// Regression: `Duration::MAX` must mean wait-until-full, not an
    /// `Instant` overflow panic under the queue mutex (which would poison
    /// the queue for every later caller).
    #[test]
    fn unrepresentable_budget_waits_until_the_window_fills() {
        let serving = serving();
        let config = BatchConfig { max_batch: 4, max_wait: Duration::MAX };
        let queue = BatchQueue::new(&serving, config);
        // Exactly max_batch concurrent queries: the window can only close
        // by filling, so completion proves the wait-until-full path works.
        std::thread::scope(|scope| {
            for t in 0..4 {
                let queue = &queue;
                let serving = &serving;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    queue.query_into(t, &mut out);
                    assert_eq!(out, serving.logits(t));
                });
            }
        });
        let stats = queue.stats();
        assert_eq!((stats.batches, stats.requests, stats.largest_batch), (1, 4, 4));
    }

    #[test]
    #[should_panic(expected = "the store has")]
    fn out_of_bounds_query_is_rejected_before_joining_a_window() {
        let serving = serving();
        let queue = BatchQueue::new(&serving, BatchConfig::default());
        let _ = queue.query(serving.num_nodes());
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_is_rejected() {
        let serving = serving();
        let _ = BatchQueue::new(&serving, BatchConfig { max_batch: 0, max_wait: Duration::ZERO });
    }
}
