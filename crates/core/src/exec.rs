//! Shard-partitioned parallel execution over sealed columnar runs.
//!
//! The consistency pipeline (bag joins → marginals → flow-network
//! construction) is embarrassingly parallel over **key ranges**: a sealed
//! value's lexicographic run partitions into contiguous shards whose
//! boundaries fall on join-key-group edges, so no group straddles a shard
//! and per-shard outputs concatenate into exactly the sequential result.
//! This module provides the pieces every sharded operator shares:
//!
//! * [`ExecConfig`] — thread count and the sequential-fallback threshold.
//!   `threads = 1` (or a support below [`ExecConfig::min_parallel_support`])
//!   plans one shard, which the executor runs inline on the caller.
//! * [`shard_ranges`] — the shard plan: split `0..n` into contiguous
//!   ranges, moving every boundary forward to the next key-group edge.
//!   Plans are **oversubscribed** ([`ExecConfig::shards_for`] asks for
//!   [`ExecConfig::CHUNKS_PER_WORKER`] chunks per worker), so a skewed
//!   plan leaves chunks for idle workers to steal.
//! * [`try_run_tasks`] — a dependency-free **work-stealing executor** on
//!   [`std::thread::scope`] (the build environment is offline; no
//!   rayon): an atomic cursor walks the shard descriptors and each
//!   worker claims the next unclaimed chunk whenever it finishes one, so
//!   one expensive shard no longer idles every other worker. Results are
//!   tagged with their task index and returned in task order regardless
//!   of completion order. Every run is governed: the deadline is polled
//!   at each chunk claim and a worker panic comes back as a typed error.
//!   One task runs inline on the calling thread, under the same deadline
//!   poll and panic containment — that is the sequential case of every
//!   sharded operator.
//!
//! The sharded operators (joins, prefix marginals and projections, the
//! delta reseal's merge, the witness fill) have one body that runs per
//! shard. A shard returns a plain row-major arena with its multiplicity
//! column (the reseal merge returns an id order for the shared copy
//! routine instead); the caller joins the outputs end to end and adopts
//! them into a [`crate::RowStore`] with the dedup table unbuilt (only a
//! bag a delta just resealed builds it at once, since the next delta
//! probes it). The seal and [`crate::Bag::from_arena`] do not shard:
//! one sort and one row copy on the calling thread beat any chunked
//! plan at every size measured.

use crate::cancel::Deadline;
use crate::{CoreError, Value};
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::Mutex;

/// Configuration for shard-parallel execution.
///
/// Constructed through [`ExecConfig::builder`] (which validates
/// `threads >= 1` and `min_parallel_support >= 1` once, at build time) or
/// the const shorthands [`ExecConfig::sequential`] /
/// [`ExecConfig::with_threads`]. The fields are private so every value in
/// circulation satisfies those invariants; benchmarks and property tests
/// force sharding on tiny inputs via
/// `ExecConfig::builder().threads(4).min_parallel_support(1).build()`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Maximum worker threads (and shards) per parallel operation.
    /// `1` disables parallelism entirely. Invariant: `>= 1`.
    pub(crate) threads: usize,
    /// Inputs with fewer items than this run sequentially even when
    /// `threads > 1`: below it, thread spawn + output-join overhead outweighs
    /// the per-shard work. Invariant: `>= 1`.
    pub(crate) min_parallel_support: usize,
    /// Cooperative abort condition, polled by [`try_run_tasks`] at every
    /// chunk claim (and by the phase/node/pair-granular poll sites
    /// downstream). [`Deadline::NONE`] — the default — never fires and
    /// costs one `Option` test per poll.
    pub(crate) deadline: Deadline,
}

impl ExecConfig {
    /// Default sequential-fallback threshold (items per operation).
    pub const DEFAULT_MIN_PARALLEL_SUPPORT: usize = 2048;

    /// Shard-plan oversubscription: how many chunks each worker's share
    /// of the input is split into. More chunks give the work-stealing
    /// executor room to rebalance a skewed plan (one giant key group
    /// next to many tiny ones) at the cost of slightly more output
    /// bookkeeping; 4 keeps the per-chunk work large enough that the
    /// atomic-cursor claim is noise.
    pub const CHUNKS_PER_WORKER: usize = 4;

    /// The largest accepted thread count. The executor spawns up to
    /// `threads` scoped workers per operation, and a failed spawn would
    /// panic outside any containment, so the count is bounded where a
    /// configuration is built rather than where threads start.
    pub const MAX_THREADS: usize = 256;

    /// Starts building a configuration; unset knobs take the defaults of
    /// [`ExecConfig::default`].
    pub fn builder() -> ExecConfigBuilder {
        ExecConfigBuilder::new()
    }

    /// Maximum worker threads (and shards) per parallel operation.
    pub const fn threads(&self) -> usize {
        self.threads
    }

    /// The sequential-fallback threshold: inputs with fewer items run
    /// sequentially even when `threads() > 1`.
    pub const fn min_parallel_support(&self) -> usize {
        self.min_parallel_support
    }

    /// The abort condition governing operations run under this
    /// configuration ([`Deadline::NONE`] unless set).
    pub const fn deadline(&self) -> &Deadline {
        &self.deadline
    }

    /// Returns the configuration with `deadline` as its abort condition
    /// — the one way a [`Deadline`] reaches the `*_with` entry points (a
    /// session arms each operation's copy this way). The sizing knobs
    /// are untouched.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// A strictly sequential configuration: every `*_with` entry point
    /// runs its bulk work as one inline task on the calling thread.
    pub const fn sequential() -> Self {
        ExecConfig {
            threads: 1,
            min_parallel_support: Self::DEFAULT_MIN_PARALLEL_SUPPORT,
            deadline: Deadline::NONE,
        }
    }

    /// `threads` workers with the default sequential-fallback threshold.
    ///
    /// # Panics
    ///
    /// Panics on `threads == 0` or `threads > MAX_THREADS` — the same
    /// invariants [`ExecConfigBuilder::build`] reports as
    /// [`CoreError::InvalidConfig`]; use the builder when the count is
    /// untrusted.
    pub const fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "threads must be >= 1");
        assert!(
            threads <= Self::MAX_THREADS,
            "threads must be <= ExecConfig::MAX_THREADS"
        );
        ExecConfig {
            threads,
            min_parallel_support: Self::DEFAULT_MIN_PARALLEL_SUPPORT,
            deadline: Deadline::NONE,
        }
    }

    /// How many shards an input of `items` rows should split into: `1`
    /// (sequential) below the parallel threshold or at `threads = 1`,
    /// otherwise [`ExecConfig::CHUNKS_PER_WORKER`] chunks per configured
    /// worker — oversubscribed so the work-stealing executor can
    /// rebalance skewed plans. (A 0/1-row input never shards, whatever
    /// the threshold; [`shard_ranges`] caps the plan at one shard per
    /// item, so tiny inputs cannot produce empty shards.)
    pub fn shards_for(&self, items: usize) -> usize {
        if self.threads <= 1 || items < self.min_parallel_support.max(2) {
            1
        } else {
            self.threads.saturating_mul(Self::CHUNKS_PER_WORKER)
        }
    }
}

impl Default for ExecConfig {
    /// One worker per available hardware thread (capped at 8 — the hot
    /// paths are memory-bound well before that on current parts).
    fn default() -> Self {
        ExecConfig::builder()
            .build()
            .expect("default ExecConfig is valid")
    }
}

impl fmt::Display for ExecConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.threads == 1 {
            write!(f, "sequential")
        } else {
            write!(
                f,
                "{} threads (sequential below {} rows)",
                self.threads, self.min_parallel_support
            )
        }
    }
}

/// Builder for [`ExecConfig`]; see [`ExecConfig::builder`].
///
/// Validation happens once in [`ExecConfigBuilder::build`] — the
/// executors and shard planners downstream can rely on
/// `1 <= threads <= ExecConfig::MAX_THREADS` and
/// `min_parallel_support >= 1` instead of re-checking per call.
#[derive(Clone, Debug)]
pub struct ExecConfigBuilder {
    threads: Option<usize>,
    min_parallel_support: usize,
}

impl ExecConfigBuilder {
    fn new() -> Self {
        ExecConfigBuilder {
            threads: None,
            min_parallel_support: ExecConfig::DEFAULT_MIN_PARALLEL_SUPPORT,
        }
    }

    /// Sets the worker-thread cap. Unset, it defaults to one worker per
    /// available hardware thread (capped at 8).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Sets the sequential-fallback threshold
    /// ([`ExecConfig::DEFAULT_MIN_PARALLEL_SUPPORT`] when unset).
    pub fn min_parallel_support(mut self, items: usize) -> Self {
        self.min_parallel_support = items;
        self
    }

    /// Validates and builds: `1 <= threads <= ExecConfig::MAX_THREADS`,
    /// `min_parallel_support >= 1`.
    pub fn build(self) -> Result<ExecConfig, CoreError> {
        let threads = self.threads.unwrap_or_else(default_threads);
        if threads == 0 {
            return Err(CoreError::InvalidConfig("threads must be >= 1"));
        }
        if threads > ExecConfig::MAX_THREADS {
            return Err(CoreError::InvalidConfig(
                "threads must be <= ExecConfig::MAX_THREADS",
            ));
        }
        if self.min_parallel_support == 0 {
            return Err(CoreError::InvalidConfig(
                "min_parallel_support must be >= 1",
            ));
        }
        Ok(ExecConfig {
            threads,
            min_parallel_support: self.min_parallel_support,
            deadline: Deadline::NONE,
        })
    }
}

/// Hardware thread count used by [`ExecConfig::default`], cached so the
/// legacy convenience entry points can construct default configs in tight
/// loops without re-querying the OS.
fn default_threads() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    })
}

/// Splits `0..n` into at most `shards` contiguous, non-empty ranges whose
/// boundaries never split a key group.
///
/// `same_group(p)` reports whether position `p` belongs to the same key
/// group as position `p - 1` (callers compare adjacent keys; `p` is always
/// in `1..n`). Each tentative boundary `n·i/shards` moves **forward** to
/// the next group edge, so a single giant group simply collapses the
/// shards it swallows (possibly down to one), and duplicate boundaries
/// (empty shards) are dropped rather than handed to workers.
pub fn shard_ranges(
    n: usize,
    shards: usize,
    mut same_group: impl FnMut(usize) -> bool,
) -> Vec<Range<usize>> {
    if n == 0 {
        return Vec::new();
    }
    let shards = shards.max(1).min(n);
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0usize;
    for i in 1..shards {
        let mut b = (n * i) / shards;
        while b < n && b > 0 && same_group(b) {
            b += 1;
        }
        if b > start && b < n {
            ranges.push(start..b);
            start = b;
        }
    }
    ranges.push(start..n);
    ranges
}

/// The shard plan for a merge over two key-sorted sides: shards
/// `0..left_len` at key-group boundaries ([`shard_ranges`] semantics for
/// `same_group`) and aligns each left range with its matching right
/// range. `right_lower_bound(p)` must return the first right position
/// whose key is `>=` the key at left position `p` (`p < left_len`); with
/// that, every matching pair lands in exactly one task and task outputs
/// concatenate in ascending key order.
pub fn aligned_shard_tasks(
    left_len: usize,
    right_len: usize,
    shards: usize,
    same_group: impl FnMut(usize) -> bool,
    right_lower_bound: impl Fn(usize) -> usize,
) -> Vec<(Range<usize>, Range<usize>)> {
    shard_ranges(left_len, shards, same_group)
        .into_iter()
        .map(|lr| {
            let r_lo = right_lower_bound(lr.start);
            let r_hi = if lr.end == left_len {
                right_len
            } else {
                right_lower_bound(lr.end)
            };
            (lr, r_lo..r_hi)
        })
        .collect()
}

/// First position in `0..n` where the monotone predicate `is_less`
/// (true, then false) turns false — the lower-bound binary search shared
/// by the shard aligners.
pub fn lower_bound_by(n: usize, is_less: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if is_less(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Ok(s) = payload.downcast::<String>() {
        *s
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `work` over each task on `cfg`'s workers with **governance**:
/// the executor polls `cfg`'s [`Deadline`] at every chunk claim and
/// contains worker panics, so the call either returns every output in
/// task order or a typed error — it never hangs past a poll site and
/// never unwinds through the caller.
///
/// The tasks form a **self-scheduling work queue**: an atomic cursor
/// indexes the task list, and each worker claims the next unclaimed
/// task whenever it finishes one. No task-to-worker assignment is fixed
/// up front, so a skewed plan (one chunk much more expensive than the
/// rest) keeps every worker busy until the queue drains. Each output is
/// written into the slot of its task index, so the returned vector is
/// in task order regardless of which worker finished which task when;
/// output-order invariants downstream are unaffected by scheduling.
///
/// With one task (or `threads <= 1`) the work runs inline on the
/// calling thread — the sequential fallback spawns nothing, but is
/// governed all the same (deadline poll around every task, panic
/// caught).
///
/// # Errors
///
/// * [`CoreError::Aborted`] — the deadline fired at a chunk boundary;
///   remaining chunks were abandoned (in-flight chunks finish first).
/// * [`CoreError::WorkerPanicked`] — a task body panicked; the panic was
///   caught on the worker, sibling chunks were cancelled, and the error
///   names the failing task. Callers own their state: nothing is adopted
///   on the error path, so operands stay untouched.
pub fn try_run_tasks<I: Send, T: Send>(
    cfg: &ExecConfig,
    tasks: Vec<I>,
    work: impl Fn(I) -> T + Sync,
) -> Result<Vec<T>, CoreError> {
    let (threads, deadline) = (cfg.threads, &cfg.deadline);
    if threads <= 1 || tasks.len() <= 1 {
        let mut out = Vec::with_capacity(tasks.len());
        for (i, task) in tasks.into_iter().enumerate() {
            if let Some(reason) = deadline.poll() {
                return Err(CoreError::Aborted(reason));
            }
            match catch_unwind(AssertUnwindSafe(|| work(task))) {
                Ok(v) => out.push(v),
                Err(payload) => {
                    return Err(CoreError::WorkerPanicked {
                        task: i,
                        message: panic_message(payload),
                    })
                }
            }
        }
        // A worker polls once more before it finds the queue empty, so a
        // deadline that fires during the last task aborts either way.
        if let Some(reason) = deadline.poll() {
            return Err(CoreError::Aborted(reason));
        }
        return Ok(out);
    }
    let n = tasks.len();
    let workers = threads.min(n);
    // Slot-per-task queue and result stores. The mutexes are touched
    // exactly once per slot (claim on the way in, write on the way
    // out); cross-task contention lives only on the atomic cursor.
    let queue: Vec<Mutex<Option<I>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Containment state: `halt` tells sibling workers to stop claiming
    // chunks; `failure` records what went wrong (a panic beats an abort
    // — it is the more specific diagnosis, and an abort may only be the
    // injected side effect of the panic's cleanup).
    let halt = AtomicBool::new(false);
    let failure: Mutex<Option<CoreError>> = Mutex::new(None);
    let record = |err: CoreError| {
        halt.store(true, AtomicOrdering::Relaxed);
        if let Ok(mut slot) = failure.lock() {
            let replace = matches!(
                (&*slot, &err),
                (None, _)
                    | (
                        Some(CoreError::Aborted(_)),
                        CoreError::WorkerPanicked { .. }
                    )
            );
            if replace {
                *slot = Some(err);
            }
        }
    };
    let (queue_ref, slots_ref, cursor_ref, work_ref) = (&queue, &slots, &cursor, &work);
    let (halt_ref, record_ref) = (&halt, &record);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (queue, slots, cursor, work) = (queue_ref, slots_ref, cursor_ref, work_ref);
                let (halt, record) = (halt_ref, record_ref);
                scope.spawn(move || {
                    loop {
                        if halt.load(AtomicOrdering::Relaxed) {
                            break;
                        }
                        if let Some(reason) = deadline.poll() {
                            record(CoreError::Aborted(reason));
                            break;
                        }
                        let i = cursor.fetch_add(1, AtomicOrdering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // The cursor hands each index to exactly one
                        // worker, so the take always finds the task.
                        let task = queue[i]
                            .lock()
                            .expect("claiming worker cannot observe a poisoned task slot")
                            .take()
                            .expect("task claimed twice");
                        match catch_unwind(AssertUnwindSafe(|| work(task))) {
                            Ok(out) => {
                                *slots[i].lock().expect(
                                    "finishing worker cannot observe a poisoned result slot",
                                ) = Some(out);
                            }
                            Err(payload) => {
                                record(CoreError::WorkerPanicked {
                                    task: i,
                                    message: panic_message(payload),
                                });
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join()
                .expect("worker panics are contained by catch_unwind");
        }
    });
    if let Ok(mut slot) = failure.lock() {
        if let Some(err) = slot.take() {
            return Err(err);
        }
    }
    Ok(slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result mutexes are uncontended after the join")
                .expect("every task completed on the success path")
        })
        .collect())
}

/// Length-ratio threshold above which the merge hot loops switch from
/// linear stepping to galloping (exponential search): when one side is
/// at least this many times longer than the other, long stretches of the
/// long side sort consecutively and a gallop finds each stretch's end in
/// `O(log run)` compares instead of `O(run)`.
pub const GALLOP_RATIO: usize = 8;

/// First position in `lo..hi` where the monotone predicate `keep`
/// (true, then false) turns false, found by exponential probing from
/// `lo` followed by a binary search of the last doubling window — the
/// gallop step shared by the skewed-merge hot loops. `O(log d)` compares
/// for an answer `d` past `lo`, against `O(d)` for a linear scan, and
/// **exactly** the same answer: callers swap it in without changing
/// emission order.
pub fn gallop_bound(lo: usize, hi: usize, keep: impl Fn(usize) -> bool) -> usize {
    if lo >= hi || !keep(lo) {
        return lo;
    }
    let mut step = 1usize;
    let mut last = lo;
    while last + step < hi && keep(last + step) {
        last += step;
        step <<= 1;
    }
    // keep(last) is true and keep(last + step) is false (or out of
    // range); binary-search the remaining open window.
    let upper = last.saturating_add(step).min(hi);
    last + 1 + lower_bound_by(upper - last - 1, |off| keep(last + 1 + off))
}

/// Joins per-shard outputs — row-major rows with their multiplicity
/// column — end to end in shard order. A single shard's output is
/// returned as it is, without a copy.
pub(crate) fn concat_runs(mut runs: Vec<(Vec<Value>, Vec<u64>)>) -> (Vec<Value>, Vec<u64>) {
    if runs.len() == 1 {
        return runs.pop().expect("one run");
    }
    let values = runs.iter().map(|(rows, _)| rows.len()).sum();
    let rows = runs.iter().map(|(_, mults)| mults.len()).sum();
    let (mut data, mut mults) = (Vec::with_capacity(values), Vec::with_capacity(rows));
    for (d, m) in runs {
        data.extend_from_slice(&d);
        mults.extend_from_slice(&m);
    }
    (data, mults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RowStore;

    fn v(xs: &[u64]) -> Vec<Value> {
        xs.iter().copied().map(Value::new).collect()
    }

    /// Checks the three shard-plan invariants: ranges tile `0..n`, are
    /// non-empty, and never split a key group.
    fn check_ranges(n: usize, ranges: &[Range<usize>], mut same_group: impl FnMut(usize) -> bool) {
        if n == 0 {
            assert!(ranges.is_empty());
            return;
        }
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, n);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must tile contiguously");
        }
        for r in ranges {
            assert!(r.start < r.end, "no empty shards");
            if r.start > 0 {
                assert!(!same_group(r.start), "boundary splits a key group");
            }
        }
    }

    /// `threads` workers that shard every input of two or more items.
    fn workers(threads: usize) -> ExecConfig {
        ExecConfig {
            threads,
            min_parallel_support: 1,
            deadline: Deadline::NONE,
        }
    }

    /// Silences the default panic-to-stderr hook for the duration of a
    /// test that panics on purpose (worker containment tests).
    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn try_run_tasks_reports_panicking_task_index() {
        for threads in [1, 4] {
            let cfg = ExecConfig {
                threads,
                min_parallel_support: 1,
                deadline: Deadline::NONE,
            };
            let tasks: Vec<usize> = (0..16).collect();
            let err = with_quiet_panics(|| {
                try_run_tasks(&cfg, tasks, |i| {
                    if i == 7 {
                        panic!("boom at {i}");
                    }
                    i * 2
                })
                .unwrap_err()
            });
            match err {
                CoreError::WorkerPanicked { task, message } => {
                    assert_eq!(task, 7, "threads={threads}");
                    assert!(message.contains("boom at 7"), "message = {message:?}");
                }
                other => panic!("expected WorkerPanicked, got {other}"),
            }
        }
    }

    #[test]
    fn try_run_tasks_aborts_on_expired_deadline() {
        use crate::cancel::AbortReason;
        for threads in [1, 4] {
            let cfg = ExecConfig {
                threads,
                min_parallel_support: 1,
                deadline: Deadline::at(std::time::Instant::now()),
            };
            let err = try_run_tasks(&cfg, (0..64).collect::<Vec<usize>>(), |i| i).unwrap_err();
            assert_eq!(err, CoreError::Aborted(AbortReason::DeadlineExceeded));
        }
    }

    #[test]
    fn try_run_tasks_succeeds_in_task_order() {
        let cfg = ExecConfig {
            threads: 4,
            min_parallel_support: 1,
            deadline: Deadline::NONE,
        };
        let out = try_run_tasks(&cfg, (0..100usize).collect(), |i| i * 3).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn panic_beats_abort_when_both_fire() {
        // A panicking worker sets `halt`; siblings then see the halt (or
        // an expired deadline) — the panic must still win the report.
        let cfg = ExecConfig {
            threads: 4,
            min_parallel_support: 1,
            deadline: Deadline::after(std::time::Duration::from_millis(1)),
        };
        let err = with_quiet_panics(|| {
            try_run_tasks(&cfg, (0..4usize).collect(), |i| {
                if i == 0 {
                    panic!("first chunk dies");
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
                i
            })
            .unwrap_err()
        });
        match err {
            CoreError::WorkerPanicked { task: 0, .. } => {}
            CoreError::Aborted(_) => {
                // Legal when the deadline fired before any worker claimed
                // chunk 0; rare but not a containment failure.
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn shard_ranges_tile_and_respect_groups() {
        // groups of 3: positions 0..30, group = p / 3
        let same = |p: usize| (p / 3) == ((p - 1) / 3);
        for shards in 1..=8 {
            let ranges = shard_ranges(30, shards, same);
            check_ranges(30, &ranges, same);
            assert!(ranges.len() <= shards);
        }
    }

    #[test]
    fn giant_group_collapses_to_one_shard() {
        // everything is one group: no interior boundary is legal
        let ranges = shard_ranges(100, 4, |_| true);
        assert_eq!(ranges, vec![0..100]);
    }

    #[test]
    fn empty_input_has_no_shards() {
        assert!(shard_ranges(0, 4, |_| false).is_empty());
    }

    #[test]
    fn more_shards_than_items() {
        let ranges = shard_ranges(3, 16, |_| false);
        check_ranges(3, &ranges, |_| false);
    }

    #[test]
    fn skewed_groups_drop_empty_shards() {
        // one giant group covering 0..90 followed by singletons
        let same = |p: usize| p < 90;
        let ranges = shard_ranges(100, 4, same);
        check_ranges(100, &ranges, same);
        // the first three tentative boundaries all land inside the giant
        // group and slide forward to 90
        assert_eq!(ranges[0], 0..90);
    }

    #[test]
    fn run_tasks_preserves_order() {
        let ranges = shard_ranges(16, 4, |_| false);
        let sums = try_run_tasks(&workers(4), ranges.clone(), |r| r.sum::<usize>()).unwrap();
        let expected: Vec<usize> = ranges.into_iter().map(|r| r.sum()).collect();
        assert_eq!(sums, expected);
    }

    #[test]
    fn run_tasks_caps_workers_and_keeps_order() {
        // 16 single-item ranges over 2 threads: outputs must still come
        // back in range order despite chunked distribution.
        let ranges: Vec<std::ops::Range<usize>> = (0..16).map(|i| i..i + 1).collect();
        let out = try_run_tasks(&workers(2), ranges, |r| r.start).unwrap();
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn run_tasks_sequential_fallback_matches() {
        let ranges = shard_ranges(16, 4, |_| false);
        let par = try_run_tasks(&workers(4), ranges.clone(), |r| r.len()).unwrap();
        let seq = try_run_tasks(&workers(1), ranges, |r| r.len()).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn thread_count_is_bounded_at_build_time() {
        let build = |threads| ExecConfig::builder().threads(threads).build();
        assert_eq!(
            build(ExecConfig::MAX_THREADS).map(|c| c.threads()),
            Ok(ExecConfig::MAX_THREADS)
        );
        for threads in [0, ExecConfig::MAX_THREADS + 1, usize::MAX] {
            assert!(
                matches!(build(threads), Err(CoreError::InvalidConfig(_))),
                "threads = {threads}"
            );
        }
        assert_eq!(
            ExecConfig::with_threads(ExecConfig::MAX_THREADS).threads(),
            ExecConfig::MAX_THREADS
        );
        let over = with_quiet_panics(|| {
            std::panic::catch_unwind(|| ExecConfig::with_threads(ExecConfig::MAX_THREADS + 1))
        });
        assert!(over.is_err(), "with_threads must refuse MAX_THREADS + 1");
    }

    #[test]
    fn config_fallback_thresholds() {
        let cfg = ExecConfig::with_threads(4);
        // plans oversubscribe: CHUNKS_PER_WORKER chunks per worker leave
        // stealable work when shard costs are skewed
        assert_eq!(
            cfg.shards_for(ExecConfig::DEFAULT_MIN_PARALLEL_SUPPORT),
            4 * ExecConfig::CHUNKS_PER_WORKER
        );
        assert_eq!(
            cfg.shards_for(ExecConfig::DEFAULT_MIN_PARALLEL_SUPPORT - 1),
            1
        );
        assert_eq!(ExecConfig::sequential().shards_for(1 << 20), 1);
        // forcing shards on tiny inputs for tests: threshold 1 still
        // refuses to shard a 0/1-row input
        let tiny = ExecConfig {
            threads: 4,
            min_parallel_support: 1,
            deadline: Deadline::NONE,
        };
        assert_eq!(tiny.shards_for(0), 1);
        assert_eq!(tiny.shards_for(1), 1);
        assert_eq!(tiny.shards_for(2), 4 * ExecConfig::CHUNKS_PER_WORKER);
    }

    /// Regression: a plan asked for more shards than there are items
    /// (threads > supports after the oversubscribed `shards_for`) must
    /// produce only non-empty shards — no empty trailing ranges handed
    /// to workers.
    #[test]
    fn more_shards_than_items_yields_no_empty_shards() {
        for n in [1usize, 2, 3, 5] {
            for shards in [4usize, 16, 64] {
                let ranges = shard_ranges(n, shards, |_| false);
                check_ranges(n, &ranges, |_| false);
                assert!(ranges.len() <= n, "n = {n}, shards = {shards}");
                assert!(
                    ranges.iter().all(|r| !r.is_empty()),
                    "empty shard in plan for n = {n}, shards = {shards}"
                );
            }
        }
        // The aligned two-sided planner inherits the guarantee on its
        // left ranges (right ranges may legitimately be empty — a shard
        // whose keys have no partners).
        let tasks = aligned_shard_tasks(3, 2, 16, |_| false, |_| 0);
        assert!(tasks.iter().all(|(l, _)| !l.is_empty()));
        assert_eq!(tasks.last().unwrap().0.end, 3);
    }

    /// The work-stealing queue returns outputs in task order even when
    /// task costs are wildly skewed (the first task is the most
    /// expensive, so it finishes last on a multicore host).
    #[test]
    fn work_stealing_keeps_task_order_under_skew() {
        let tasks: Vec<usize> = (0..32).collect();
        let out = try_run_tasks(&workers(4), tasks.clone(), |i| {
            // First task spins longest; later tasks return immediately.
            let spin = if i == 0 { 200_000 } else { 10 };
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(std::hint::black_box(k));
            }
            std::hint::black_box(acc);
            (i, i as u64)
        })
        .unwrap();
        let expected: Vec<(usize, u64)> = tasks.into_iter().map(|i| (i, i as u64)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn gallop_bound_matches_linear_scan() {
        // Monotone predicates over every (lo, boundary, hi) shape.
        for hi in 0usize..40 {
            for lo in 0..=hi {
                for boundary in lo..=hi {
                    let keep = |p: usize| p < boundary;
                    assert_eq!(
                        gallop_bound(lo, hi, keep),
                        boundary.max(lo),
                        "lo={lo} hi={hi} boundary={boundary}"
                    );
                }
            }
        }
    }

    #[test]
    fn joined_shard_outputs_adopt_in_shard_order() {
        let runs = vec![
            (v(&[1, 1, 1, 2]), vec![2, 3]),
            (vec![], vec![]),
            (v(&[2, 1]), vec![5]),
        ];
        let (data, mults) = concat_runs(runs);
        assert_eq!(mults, vec![2, 3, 5]);
        let store = RowStore::from_sorted_rows(2, mults.len(), data).unwrap();
        // rows land in shard order and stay individually addressable
        assert_eq!(store.lookup(&v(&[1, 2])).map(|id| id.index()), Some(1));
        assert_eq!(store.lookup(&v(&[2, 1])).map(|id| id.index()), Some(2));
        // a lone shard's output is adopted as it is
        let (data, _) = concat_runs(vec![(v(&[7]), vec![1])]);
        assert_eq!(data, v(&[7]));
    }
}
