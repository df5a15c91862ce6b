//! Delta-burst coalescing: merge concurrent graph edits into one refresh
//! per window.
//!
//! A refresh is the expensive half of dynamic serving — even an O(affected)
//! incremental one pays the store patch, the generation clone, and (with an
//! `∞` scale) a certified solve. Under an edit burst, running one refresh
//! per edit also publishes one generation per edit, most of them obsolete
//! the moment they appear. [`DeltaCoalescer`] amortizes the burst: edits
//! enqueue, the window's **leader** merges every pending
//! [`CsrDelta`](gcon_graph::CsrDelta) into one
//! ([`CsrDelta::merge`](gcon_graph::CsrDelta::merge) — last-op-wins
//! netting, so an insert chased by a remove of the same edge cancels
//! inside the window), vertically stacks the onboard feature rows in the
//! same FIFO order the node ids were assigned in, and runs **one**
//! [`DynamicServingModel::apply_delta`] for the whole window — one refresh,
//! one published generation per burst.
//!
//! # Protocol
//!
//! Edits ride the shared generation window (`crate::window`), the same one
//! [`BatchQueue`](crate::BatchQueue) queries ride: the first edit of a
//! window leads it, waits until [`CoalesceConfig::max_pending`] edits
//! arrive or [`CoalesceConfig::max_delay`] elapses, merges and refreshes
//! once behind the window's in-order gate, and hands every submitter the
//! window's outcome. Windows execute in order, so the merged application
//! is exactly the sequential application of the window's deltas in
//! arrival order — pinned by `CsrDelta::merge`'s equivalence proptest and
//! the coalescing test below.
//!
//! # Equivalence contract
//!
//! For finite scales a coalesced window is **bitwise identical** to
//! applying the same deltas one by one (both equal a from-scratch rebuild
//! on the final graph). The `∞` scale of the coalesced store and the
//! sequentially-refreshed store each certify their own staleness bound
//! against the same exact fixed point, so the two differ by at most the
//! sum of the final bounds — and the coalesced path compounds *fewer*
//! refreshes, so its cumulative bound
//! ([`DeltaOutcome::cumulative_staleness_bound`]) is the smaller one.
//!
//! A window whose operations fully net out (insert + remove of the same
//! edge, nothing onboarded) cancels inside [`apply_delta`]
//! ([`DynamicServingModel::apply_delta`]'s ineffective-delta early-out):
//! no refresh, no generation burned; counted in
//! [`CoalesceStats::cancelled_windows`].
//!
//! # Onboarding ids
//!
//! `merge` concatenates onboard counts in window order, and windows apply
//! in submission order, so node ids land exactly where a sequence of
//! individual `apply_delta` calls would put them. As with direct
//! `apply_delta`, submitters that onboard nodes must compute the new ids
//! against a consistent view of the node count (e.g. from a single writer
//! thread per id range).

use crate::dynamic::{DeltaOutcome, DynamicServingModel};
use crate::window::Window;
use gcon_graph::CsrDelta;
use gcon_linalg::Mat;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Window bounds for [`DeltaCoalescer`] — the mutation-side analogue of
/// [`BatchConfig`](crate::BatchConfig).
#[derive(Clone, Copy, Debug)]
pub struct CoalesceConfig {
    /// Hard upper bound on edits per window; a window closes immediately
    /// when it fills. Must be ≥ 1.
    pub max_pending: usize,
    /// Latency budget of a non-full window: how long its leader waits for
    /// more edits before refreshing. `ZERO` disables coalescing-by-time
    /// (each window still merges whatever arrived while the previous one
    /// refreshed). A budget too large to represent as a deadline (e.g.
    /// [`Duration::MAX`]) means wait until the window **fills**.
    pub max_delay: Duration,
}

impl Default for CoalesceConfig {
    /// 32-edit windows with a 2 ms budget — refreshes are orders of
    /// magnitude heavier than batched queries, so the window is held open
    /// longer than [`BatchConfig`](crate::BatchConfig)'s default.
    fn default() -> Self {
        Self { max_pending: 32, max_delay: Duration::from_millis(2) }
    }
}

impl CoalesceConfig {
    /// [`Default`] overridden by `GCON_COALESCE_MAX_PENDING` (edits per
    /// window) and `GCON_COALESCE_MAX_DELAY_US` (budget in microseconds).
    /// Unparsable values fall back to the default with a warning (via
    /// [`gcon_runtime::envknob`]).
    ///
    /// `GCON_COALESCE_MAX_DELAY_US=0` is a **valid, intentional** setting,
    /// not an error: it disables coalescing-by-time, so a window closes as
    /// soon as its leader can take it — edits are then only merged when
    /// they pile up behind an in-flight refresh (see
    /// [`CoalesceConfig::max_delay`]). It trades coalescing factor for the
    /// lowest possible edit-visibility latency.
    pub fn from_env() -> Self {
        let default = Self::default();
        Self {
            max_pending: gcon_runtime::envknob::env_knob(
                "gcon-serve",
                "GCON_COALESCE_MAX_PENDING",
                default.max_pending,
                "an integer ≥ 1",
                "32",
                |v| v.parse::<usize>().ok().filter(|&n| n >= 1),
            ),
            max_delay: gcon_runtime::envknob::env_knob(
                "gcon-serve",
                "GCON_COALESCE_MAX_DELAY_US",
                default.max_delay,
                "microseconds; 0 disables coalescing-by-time",
                "2ms",
                |v| v.parse::<u64>().ok().map(Duration::from_micros),
            ),
        }
    }
}

/// Counters exposed by [`DeltaCoalescer::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Windows executed so far (= refresh attempts; `edits / windows` is
    /// the mean coalescing factor).
    pub windows: u64,
    /// Edits submitted so far.
    pub edits: u64,
    /// Largest window executed so far.
    pub largest_window: usize,
    /// Windows whose merged delta fully netted out — no refresh ran, no
    /// generation was published.
    pub cancelled_windows: u64,
}

/// One windowed edit: the delta and its onboard feature rows, moved into
/// the window, and the outcome slot handed back filled.
#[derive(Default)]
struct Edit {
    delta: CsrDelta,
    feats: Option<Mat>,
    outcome: Option<DeltaOutcome>,
}

/// A delta-burst coalescing scheduler over a [`DynamicServingModel`] — see
/// the module docs for the protocol and equivalence contract. Share one
/// instance between all mutating threads (`&DeltaCoalescer` under
/// `std::thread::scope`, or wrap scheduler + model in `Arc`s); every public
/// method takes `&self`. Queries bypass the coalescer entirely — they
/// snapshot the model as usual.
pub struct DeltaCoalescer<'m> {
    model: &'m DynamicServingModel,
    window: Window<Edit>,
    cancelled_windows: AtomicU64,
}

impl<'m> DeltaCoalescer<'m> {
    /// Creates a coalescer over `model` with the given window bounds.
    ///
    /// # Panics
    /// Panics if `config.max_pending == 0`.
    pub fn new(model: &'m DynamicServingModel, config: CoalesceConfig) -> Self {
        assert!(config.max_pending >= 1, "DeltaCoalescer: max_pending must be ≥ 1");
        Self {
            model,
            window: Window::new(config.max_pending, config.max_delay),
            cancelled_windows: AtomicU64::new(0),
        }
    }

    /// The model this coalescer mutates.
    pub fn model(&self) -> &DynamicServingModel {
        self.model
    }

    /// Execution counters so far.
    pub fn stats(&self) -> CoalesceStats {
        let w = self.window.stats();
        CoalesceStats {
            windows: w.windows,
            edits: w.items,
            largest_window: w.largest,
            cancelled_windows: self.cancelled_windows.load(Ordering::Relaxed),
        }
    }

    /// Submits one edit and blocks until the window it lands in has
    /// refreshed, returning the **window's** outcome (every edit of a
    /// window shares the one published generation). `onboard_features`
    /// carries one raw feature row per node `delta` onboards, exactly as
    /// in [`DynamicServingModel::apply_delta`].
    ///
    /// # Panics
    /// Panics if the feature row count does not match the delta's onboard
    /// count (checked on entry, before the edit can join a window).
    pub fn submit(&self, delta: CsrDelta, onboard_features: Option<Mat>) -> DeltaOutcome {
        let num_new = delta.num_new_nodes();
        let provided = onboard_features.as_ref().map_or(0, Mat::rows);
        assert_eq!(
            provided, num_new,
            "DeltaCoalescer::submit: delta onboards {num_new} nodes but {provided} feature rows \
             were given"
        );
        let edit = Edit { delta, feats: onboard_features, outcome: None };
        self.window
            .submit(edit, |_, window| self.execute(window))
            .outcome
            .expect("window leader writes every outcome before publishing")
    }

    /// Leader work: merge the window FIFO, refresh once, and give every
    /// edit the window's outcome. The window admits one leader at a time,
    /// so `apply_delta`'s internal serialization is uncontended here.
    fn execute(&self, window: &mut [Edit]) {
        let (first, rest) = window.split_first_mut().expect("a window has at least its leader");
        let mut merged = std::mem::take(&mut first.delta);
        let mut feat_blocks: Vec<Mat> = first.feats.take().into_iter().collect();
        for edit in rest.iter_mut() {
            merged.merge(&edit.delta);
            feat_blocks.extend(edit.feats.take());
        }
        let feats = vstack(&feat_blocks);
        let outcome = self.model.apply_delta(&merged, feats.as_ref());
        if outcome.affected_rows == 0 && outcome.onboarded.is_empty() {
            self.cancelled_windows.fetch_add(1, Ordering::Relaxed);
        }
        for edit in window.iter_mut() {
            edit.outcome = Some(outcome.clone());
        }
    }
}

/// Vertically stacks the window's onboard feature blocks in FIFO order —
/// the order `CsrDelta::merge` concatenated the onboard counts in.
fn vstack(blocks: &[Mat]) -> Option<Mat> {
    let total: usize = blocks.iter().map(Mat::rows).sum();
    if total == 0 {
        return None;
    }
    let d = blocks.iter().find(|b| b.rows() > 0).expect("total > 0").cols();
    let mut out = Mat::zeros(total, d);
    let mut at = 0;
    for b in blocks.iter().filter(|b| b.rows() > 0) {
        assert_eq!(b.cols(), d, "DeltaCoalescer: ragged onboard feature widths in one window");
        out.as_mut_slice()[at * d..(at + b.rows()) * d].copy_from_slice(b.as_slice());
        at += b.rows();
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ServingMode, StoreDtype};
    use crate::testutil::tiny_trained;
    use gcon_graph::Graph;

    fn fresh() -> (DynamicServingModel, Graph) {
        let (model, graph, x) = tiny_trained();
        let dynamic = DynamicServingModel::build_with_dtype(
            model,
            graph.clone(),
            x,
            ServingMode::Public,
            StoreDtype::F64,
        );
        (dynamic, graph.clone())
    }

    /// Deterministic toggle edits on pairwise-distinct edges (computed
    /// against the initial graph — distinct edges never interact, so each
    /// toggle stays effective in any application order).
    fn toggle(graph: &Graph, i: usize) -> CsrDelta {
        let n = graph.num_nodes() as u32;
        let (u, v) = ((i as u32 * 7) % n, (i as u32 * 13 + 5) % n);
        let (u, v) = if u == v { (u, (v + 1) % n) } else { (u, v) };
        let mut d = CsrDelta::new();
        if graph.has_edge(u, v) {
            d.remove_edge(u, v);
        } else {
            d.insert_edge(u, v);
        }
        d
    }

    #[test]
    fn concurrent_burst_coalesces_into_one_generation() {
        let (dynamic, graph) = fresh();
        // A generous window so the burst actually coalesces.
        let config = CoalesceConfig { max_pending: 16, max_delay: Duration::from_millis(50) };
        let coalescer = DeltaCoalescer::new(&dynamic, config);
        let edits = 8;
        std::thread::scope(|scope| {
            for i in 0..edits {
                let coalescer = &coalescer;
                let graph = &graph;
                scope.spawn(move || {
                    let outcome = coalescer.submit(toggle(graph, i), None);
                    assert!(outcome.generation >= 1);
                });
            }
        });
        let stats = coalescer.stats();
        assert_eq!(stats.edits, edits as u64);
        assert!(
            stats.windows < stats.edits,
            "no coalescing ever happened under concurrency: {stats:?}"
        );
        // Strictly fewer generations than edits were published.
        assert!(dynamic.snapshot().generation() < edits as u64);
    }

    #[test]
    fn coalesced_burst_matches_sequential_application_bitwise() {
        // Submit a burst through one forced window, then replay the same
        // deltas one by one on a second model: finite-only stores must
        // agree bitwise (both equal the rebuild on the final graph).
        let (coalesced, graph) = fresh();
        let (sequential, _) = fresh();
        let k = 6;
        let config = CoalesceConfig { max_pending: k, max_delay: Duration::MAX };
        let coalescer = DeltaCoalescer::new(&coalesced, config);
        std::thread::scope(|scope| {
            for i in 0..k {
                let coalescer = &coalescer;
                let graph = &graph;
                scope.spawn(move || coalescer.submit(toggle(graph, i), None));
            }
        });
        for i in 0..k {
            sequential.apply_delta(&toggle(&graph, i), None);
        }
        assert_eq!(coalescer.stats().windows, 1);
        assert_eq!(coalesced.snapshot().generation(), 1, "one burst, one generation");
        assert_eq!(sequential.snapshot().generation(), k as u64);
        assert_eq!(
            coalesced.snapshot().model().store_f64().unwrap().as_slice(),
            sequential.snapshot().model().store_f64().unwrap().as_slice(),
            "coalesced burst must equal sequential application bitwise (finite scales)"
        );
    }

    #[test]
    fn netted_out_window_is_cancelled() {
        let (dynamic, graph) = fresh();
        let config = CoalesceConfig { max_pending: 2, max_delay: Duration::MAX };
        let coalescer = DeltaCoalescer::new(&dynamic, config);
        let absent = (0..graph.num_nodes() as u32)
            .flat_map(|u| (u + 1..graph.num_nodes() as u32).map(move |v| (u, v)))
            .find(|&(u, v)| !graph.has_edge(u, v))
            .expect("tiny graph is not complete");
        let mut insert = CsrDelta::new();
        insert.insert_edge(absent.0, absent.1);
        let mut remove = CsrDelta::new();
        remove.remove_edge(absent.0, absent.1);
        std::thread::scope(|scope| {
            let c = &coalescer;
            scope.spawn(move || {
                let outcome = c.submit(insert, None);
                assert_eq!(outcome.generation, 0, "netted window must not publish");
            });
            // Ensure the insert leads the window so the remove nets it out.
            while c.window.pending() == 0 {
                std::thread::yield_now();
            }
            scope.spawn(move || {
                let outcome = c.submit(remove, None);
                assert_eq!(outcome.generation, 0);
            });
        });
        let stats = coalescer.stats();
        assert_eq!((stats.windows, stats.edits, stats.cancelled_windows), (1, 2, 1));
        assert_eq!(dynamic.snapshot().generation(), 0);
    }

    #[test]
    fn onboarding_burst_stacks_features_in_window_order() {
        let (dynamic, graph) = fresh();
        let n0 = graph.num_nodes() as u32;
        let d0 = {
            let (_, _, x) = tiny_trained();
            x.cols()
        };
        let row = |seed: usize| -> Vec<f64> {
            (0..d0).map(|j| (((seed * 31 + j * 7) % 23) as f64 / 23.0) - 0.4).collect()
        };
        // Two onboarding edits submitted from one thread into a forced
        // window of two: ids are assigned in submission order.
        let config = CoalesceConfig { max_pending: 2, max_delay: Duration::MAX };
        let coalescer = DeltaCoalescer::new(&dynamic, config);
        let mut d1 = CsrDelta::new();
        d1.add_nodes(1).insert_edge(n0, 3);
        let f1 = Mat::from_fn(1, d0, |_, c| row(1)[c]);
        let mut d2 = CsrDelta::new();
        d2.add_nodes(1).insert_edge(n0 + 1, n0);
        let f2 = Mat::from_fn(1, d0, |_, c| row(2)[c]);
        std::thread::scope(|scope| {
            let c = &coalescer;
            scope.spawn(move || {
                let outcome = c.submit(d1, Some(f1));
                assert_eq!(outcome.onboarded, n0..n0 + 2, "window outcome covers the burst");
            });
            while c.window.pending() == 0 {
                std::thread::yield_now();
            }
            scope.spawn(move || c.submit(d2, Some(f2)));
        });
        assert_eq!(dynamic.snapshot().model().num_nodes(), n0 as usize + 2);

        // Reference: the same two deltas applied sequentially elsewhere.
        let (sequential, _) = fresh();
        let mut d1 = CsrDelta::new();
        d1.add_nodes(1).insert_edge(n0, 3);
        let mut d2 = CsrDelta::new();
        d2.add_nodes(1).insert_edge(n0 + 1, n0);
        sequential.apply_delta(&d1, Some(&Mat::from_fn(1, d0, |_, c| row(1)[c])));
        sequential.apply_delta(&d2, Some(&Mat::from_fn(1, d0, |_, c| row(2)[c])));
        assert_eq!(
            dynamic.snapshot().model().store_f64().unwrap().as_slice(),
            sequential.snapshot().model().store_f64().unwrap().as_slice(),
            "coalesced onboarding must equal sequential onboarding bitwise"
        );
    }

    #[test]
    fn max_pending_one_refreshes_every_edit_alone() {
        let (dynamic, graph) = fresh();
        let config = CoalesceConfig { max_pending: 1, max_delay: Duration::from_millis(50) };
        let coalescer = DeltaCoalescer::new(&dynamic, config);
        for i in 0..4 {
            coalescer.submit(toggle(&graph, i), None);
        }
        let stats = coalescer.stats();
        assert_eq!(stats.largest_window, 1);
        assert_eq!(stats.windows, stats.edits);
        assert_eq!(dynamic.snapshot().generation(), 4);
    }

    #[test]
    #[should_panic(expected = "max_pending")]
    fn zero_max_pending_is_rejected() {
        let (dynamic, _) = fresh();
        let _ =
            DeltaCoalescer::new(&dynamic, CoalesceConfig { max_pending: 0, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn mismatched_onboard_features_are_rejected_before_joining() {
        let (dynamic, _) = fresh();
        let coalescer = DeltaCoalescer::new(&dynamic, CoalesceConfig::default());
        let mut delta = CsrDelta::new();
        delta.add_nodes(2);
        let _ = coalescer.submit(delta, None);
    }

    #[test]
    fn default_config_is_valid() {
        // `from_env` falls back to this default; the parse arms are
        // exercised by the CI env-matrix legs (env vars are process-global,
        // so they are not toggled inside parallel unit tests).
        let config = CoalesceConfig::default();
        assert!(config.max_pending >= 1);
        assert!(config.max_delay > Duration::ZERO);
    }
}
