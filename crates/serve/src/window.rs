//! The generation-window protocol behind both batchers:
//! [`BatchQueue`](crate::BatchQueue) windows single-node queries into one
//! head forward, [`DeltaCoalescer`](crate::DeltaCoalescer) windows graph
//! edits into one refresh.
//!
//! # Protocol
//!
//! Submissions join the currently *open* window, named by a generation
//! counter (the first window is 1). The first submitter of a window
//! becomes its **leader**: it waits until the window fills (`max` items)
//! or its latency budget (`wait`) elapses, closes the window, waits until
//! every earlier window has executed (the in-order gate), runs the
//! caller's executor **once** over the whole window, publishes the
//! generation, and wakes the followers. Followers block until their
//! generation is published. A submitter that finds the open window full
//! waits for it to turn over.
//!
//! `wait == ZERO` closes a window as soon as its leader can take it (it
//! still batches whatever arrived while the previous window executed). A
//! budget too large to represent as a deadline (e.g. [`Duration::MAX`])
//! means wait until the window **fills** — only safe when the submission
//! flow is guaranteed to produce `max` concurrent items.
//!
//! Windows close in generation order and execute in generation order, so
//! the executor sees every window after all earlier ones, and a window's
//! results are complete before its generation is published.
//!
//! # Owned slots
//!
//! Each submitter moves its item into the window and gets that same item
//! back after the window executed: the executor works on the items in
//! place (e.g. fills an output buffer the item carries), and the leader
//! parks the executed items under the window mutex until each submitter
//! has taken its own. No submitter shares memory with the leader, so no
//! pointers cross threads. Item vectors are recycled, so the steady state
//! allocates nothing per window.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Execution counters of a [`Window`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct WindowStats {
    /// Windows executed so far.
    pub(crate) windows: u64,
    /// Items submitted through executed windows.
    pub(crate) items: u64,
    /// Largest window executed so far.
    pub(crate) largest: usize,
}

/// An executed window whose items are not all taken back yet.
struct Done<T> {
    generation: u64,
    items: Vec<T>,
    /// Submitters that have not taken their item yet.
    left: usize,
}

/// Mutex-guarded window state.
struct State<T> {
    /// Items of the open window, in arrival order.
    pending: Vec<T>,
    /// Generation currently accepting items.
    open_gen: u64,
    /// Highest generation executed and published (starts at 0).
    completed_gen: u64,
    /// Executed windows with items still to hand back.
    done: VecDeque<Done<T>>,
    /// Recycled item vectors (cleared before reuse).
    spare: Vec<Vec<T>>,
    stats: WindowStats,
}

/// A leader/follower batching window over items of type `T` — see the
/// module docs for the protocol. Every method takes `&self`; share one
/// window between all submitting threads.
pub(crate) struct Window<T> {
    max: usize,
    wait: Duration,
    state: Mutex<State<T>>,
    /// Wakes leaders (window fills), prospective joiners (window turns
    /// over), the in-order gate, and followers (generation published).
    /// One condvar, four predicates.
    cv: Condvar,
}

impl<T: Default> Window<T> {
    /// A window of at most `max` items held open for at most `wait`.
    /// `max` must be ≥ 1 (the owners check it with their own message).
    pub(crate) fn new(max: usize, wait: Duration) -> Self {
        debug_assert!(max >= 1);
        Self {
            max,
            wait,
            state: Mutex::new(State {
                pending: Vec::new(),
                open_gen: 1,
                completed_gen: 0,
                done: VecDeque::new(),
                spare: Vec::new(),
                stats: WindowStats::default(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Execution counters so far.
    pub(crate) fn stats(&self) -> WindowStats {
        self.lock().stats
    }

    /// Items in the open window (not yet closed by its leader).
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.lock().pending.len()
    }

    /// Submits `item` and blocks until its window executed, then returns
    /// the item as the executor left it. `execute(generation, items)` runs
    /// only if this submitter leads its window, once, over every item of
    /// the window in arrival order.
    pub(crate) fn submit(&self, item: T, execute: impl FnOnce(u64, &mut [T])) -> T {
        let mut state = self.lock();
        // Join the open window, waiting out a turnover if it is full.
        while state.pending.len() >= self.max {
            state = self.wait(state);
        }
        let generation = state.open_gen;
        let slot = state.pending.len();
        state.pending.push(item);
        if state.pending.len() >= self.max {
            // Window full: wake its (possibly sleeping) leader.
            self.cv.notify_all();
        }
        if slot == 0 {
            state = self.lead(state, generation, execute);
        } else {
            while state.completed_gen < generation {
                state = self.wait(state);
            }
        }
        take_back(&mut state, generation, slot)
    }

    /// Leader path: hold the window open, close it, pass the in-order
    /// gate, execute, publish.
    fn lead<'a>(
        &'a self,
        mut state: MutexGuard<'a, State<T>>,
        generation: u64,
        execute: impl FnOnce(u64, &mut [T]),
    ) -> MutexGuard<'a, State<T>> {
        // 1. Hold the window open until it fills or the budget elapses.
        let deadline = Instant::now().checked_add(self.wait);
        while state.pending.len() < self.max {
            state = match deadline {
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    self.cv.wait_timeout(state, deadline - now).expect("window: poisoned state").0
                }
                None => self.wait(state),
            };
        }

        // 2. Close the window: later items open generation + 1.
        let fresh = state.spare.pop().unwrap_or_default();
        let mut items = std::mem::replace(&mut state.pending, fresh);
        state.open_gen += 1;
        self.cv.notify_all(); // joiners blocked on a full window

        // 3. In-order gate: generations close in order, and executing them
        //    in the same order keeps `completed_gen` exact even if a later
        //    leader overtakes this one on the OS scheduler.
        while state.completed_gen != generation - 1 {
            state = self.wait(state);
        }
        drop(state);

        // 4. Execute outside the lock; the gate admits one leader at a time.
        execute(generation, &mut items);

        // 5. Publish: park the executed items for their submitters.
        let mut state = self.lock();
        state.completed_gen = generation;
        let stats = &mut state.stats;
        stats.windows += 1;
        stats.items += items.len() as u64;
        stats.largest = stats.largest.max(items.len());
        let left = items.len();
        state.done.push_back(Done { generation, items, left });
        self.cv.notify_all();
        state
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("window: poisoned state")
    }

    fn wait<'a>(&self, state: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        self.cv.wait(state).expect("window: poisoned state")
    }
}

/// Takes item `slot` of executed window `generation` back out of the
/// parked results, recycling the window's vector once it is empty.
fn take_back<T: Default>(state: &mut State<T>, generation: u64, slot: usize) -> T {
    let at = state
        .done
        .iter()
        .position(|d| d.generation == generation)
        .expect("a published window keeps its items until every submitter took one");
    let done = &mut state.done[at];
    let item = std::mem::take(&mut done.items[slot]);
    done.left -= 1;
    if done.left == 0 {
        let mut items = state.done.remove(at).expect("index found above").items;
        items.clear();
        state.spare.push(items);
    }
    item
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `threads × per_thread` distinct submissions through `window`
    /// with an identity executor that records each window's generation and
    /// size; every submitter must get its own item back.
    fn run_concurrently(window: &Window<u64>, threads: u64, per_thread: u64) -> Vec<(u64, usize)> {
        let executed = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (window, executed) = (window, &executed);
                scope.spawn(move || {
                    for q in 0..per_thread {
                        let input = t * 1000 + q;
                        let got = window.submit(input, |generation, items| {
                            executed.lock().unwrap().push((generation, items.len()));
                        });
                        assert_eq!(got, input, "submitter {t} got another submitter's item");
                    }
                });
            }
        });
        executed.into_inner().unwrap()
    }

    #[test]
    fn each_submitter_gets_its_own_item_and_windows_run_in_order() {
        let window = Window::new(8, Duration::from_millis(2));
        let executed = run_concurrently(&window, 6, 40);
        let generations: Vec<u64> = executed.iter().map(|&(g, _)| g).collect();
        let expected: Vec<u64> = (1..=executed.len() as u64).collect();
        assert_eq!(generations, expected, "windows must execute in generation order");
        assert!(executed.iter().all(|&(_, size)| (1..=8).contains(&size)), "{executed:?}");
        let stats = window.stats();
        assert_eq!(stats.items, 6 * 40);
        assert_eq!(stats.windows, executed.len() as u64);
        assert_eq!(stats.items, executed.iter().map(|&(_, s)| s as u64).sum::<u64>());
        assert!(stats.windows < stats.items, "no window ever batched: {stats:?}");
        // Every parked item was taken back and every vector recycled.
        assert!(window.lock().done.is_empty());
    }

    #[test]
    fn max_one_runs_every_item_alone() {
        let window = Window::new(1, Duration::from_millis(50));
        let executed = run_concurrently(&window, 4, 10);
        assert!(executed.iter().all(|&(_, size)| size == 1));
        let stats = window.stats();
        assert_eq!((stats.windows, stats.items, stats.largest), (40, 40, 1));
    }

    #[test]
    fn zero_wait_never_holds_a_lone_submitter() {
        // One thread, a window of 64 and no budget: each submission must
        // close its own window at once instead of waiting to fill.
        let window = Window::new(64, Duration::ZERO);
        for input in 0..20u64 {
            assert_eq!(window.submit(input, |_, _| {}), input);
        }
        let stats = window.stats();
        assert_eq!((stats.windows, stats.items, stats.largest), (20, 20, 1));
        run_concurrently(&window, 4, 25);
        assert_eq!(window.stats().items, 120);
    }

    #[test]
    fn unrepresentable_budget_waits_until_the_window_fills() {
        // Exactly `max` concurrent submitters: the window can only close
        // by filling, so completion proves the wait-until-full path.
        let window = Window::new(4, Duration::MAX);
        let executed = run_concurrently(&window, 4, 1);
        assert_eq!(executed, vec![(1, 4)]);
        let stats = window.stats();
        assert_eq!((stats.windows, stats.items, stats.largest), (1, 4, 4));
    }

    #[test]
    fn executor_changes_travel_back_to_their_submitter() {
        let window = Window::new(4, Duration::MAX);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let window = &window;
                scope.spawn(move || {
                    let got = window.submit(t, |_, items| {
                        for item in items.iter_mut() {
                            *item = *item * 10 + 1;
                        }
                    });
                    assert_eq!(got, t * 10 + 1);
                });
            }
        });
    }
}
