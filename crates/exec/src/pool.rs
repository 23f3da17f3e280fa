//! Ordered parallel maps over slices, with chunked work stealing.
//!
//! The execution model: the input is cut into fixed-size chunks; scoped
//! worker threads claim chunks from a shared atomic cursor (cheap work
//! stealing — an idle worker simply claims the next chunk, whoever its
//! round-robin "owner" was); each worker computes its chunks into private
//! per-chunk `Vec`s and hands them back through its join handle. The
//! caller sorts the chunks by start offset and concatenates. No result
//! ever crosses a channel, so collection cannot bottleneck on a single
//! drain thread, and output order is input order by construction.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use nbhd_obs::MetricsRegistry;

use crate::{stats, Parallelism};

/// One worker closure panicked. The pool isolates the panic with
/// `catch_unwind`, stops claiming new chunks, joins every worker cleanly,
/// and surfaces the *input index* of the poisoned item — instead of the
/// old behavior, where the unwinding worker tore down the whole
/// `thread::scope` with a contextless "worker panicked" abort.
///
/// When several items panic concurrently, the lowest observed input index
/// is reported.
#[derive(Debug)]
pub(crate) struct TaskPanicked {
    /// Input index of the item whose closure panicked.
    index: usize,
    /// The panic payload, when it was a string (the common case).
    message: String,
}

impl fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

/// Extracts a printable message from a panic payload.
///
/// `&'static str` and `String` payloads (the overwhelmingly common cases:
/// `panic!("...")`, `assert!`, `unwrap`/`expect`) come through verbatim;
/// anything else — `panic_any` with a non-string value — is reported as an
/// opaque payload rather than dropped. Public so supervisors that run their
/// own `catch_unwind` (e.g. per-unit quarantine in `nbhd-core`) produce
/// causes identical to the ones the pool's maps re-panic with.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Runs one item under `catch_unwind`, mapping a panic to [`TaskPanicked`].
fn run_item<T, R, F>(f: &F, index: usize, item: &T) -> Result<R, TaskPanicked>
where
    F: Fn(usize, &T) -> R + Sync,
{
    catch_unwind(AssertUnwindSafe(|| f(index, item))).map_err(|payload| TaskPanicked {
        index,
        message: panic_message(payload.as_ref()),
    })
}

/// Inputs smaller than this run sequentially: thread spawn costs more
/// than the work saved.
const MIN_PARALLEL_ITEMS: usize = 4;

/// Target chunks per worker. More than one so a slow chunk (or a slow
/// core) rebalances; not so many that cursor contention dominates.
const CHUNKS_PER_WORKER: usize = 4;

/// The core primitive: maps `f(index, &item)` over `items` on `workers`
/// threads claiming chunks of `chunk` items, preserving order.
///
/// Exposed (rather than private) so the determinism suite can drive it
/// with arbitrary chunk sizes and worker counts; production callers use
/// [`ScopedPool::map`], which picks a chunk size.
///
/// # Panics
///
/// Re-panics with the poisoned item's input index when a closure panics.
pub fn par_map_chunked<T, R, F>(workers: usize, chunk: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_par_map_chunked(workers, chunk, items, f, None, true) {
        Ok(out) => out,
        Err(panicked) => panic!("exec {panicked}"),
    }
}

/// The fallible core under every map: one panicking closure aborts the
/// map cleanly with [`TaskPanicked`] naming the input index, instead of
/// unwinding through the pool. Workers stop claiming chunks as soon as a
/// panic is observed; already-claimed chunks finish normally. Records
/// into `registry` when one is attached; the items count as tasks only
/// when `tasks` is set.
fn try_par_map_chunked<T, R, F>(
    workers: usize,
    chunk: usize,
    items: &[T],
    f: F,
    registry: Option<&MetricsRegistry>,
    tasks: bool,
) -> Result<Vec<R>, TaskPanicked>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    let workers = workers.max(1).min(n_chunks.max(1));
    if workers <= 1 || n == 0 {
        stats::record_serial(if tasks { n } else { 0 }, registry);
        let mut out = Vec::with_capacity(n);
        for (i, item) in items.iter().enumerate() {
            out.push(run_item(&f, i, item)?);
        }
        return Ok(out);
    }

    let started = Instant::now();
    let cursor = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    let mut pieces: Vec<(usize, Vec<R>)> = Vec::with_capacity(n_chunks);
    let mut steals = 0u64;
    let mut first_panic: Option<TaskPanicked> = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let cursor = &cursor;
                let poisoned = &poisoned;
                let f = &f;
                scope.spawn(move || {
                    let mut local: Vec<(usize, Vec<R>)> = Vec::new();
                    let mut stolen = 0u64;
                    let mut panicked: Option<TaskPanicked> = None;
                    loop {
                        if poisoned.load(Ordering::Relaxed) {
                            break;
                        }
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        if c % workers != worker {
                            stolen += 1;
                        }
                        let start = c * chunk;
                        let end = (start + chunk).min(n);
                        let mut out = Vec::with_capacity(end - start);
                        let mut failed = false;
                        for (offset, item) in items[start..end].iter().enumerate() {
                            match run_item(f, start + offset, item) {
                                Ok(r) => out.push(r),
                                Err(p) => {
                                    panicked = Some(p);
                                    poisoned.store(true, Ordering::Relaxed);
                                    failed = true;
                                    break;
                                }
                            }
                        }
                        if failed {
                            break;
                        }
                        local.push((start, out));
                    }
                    (local, stolen, panicked)
                })
            })
            .collect();
        for handle in handles {
            let (local, stolen, panicked) = handle
                .join()
                .expect("exec worker died outside catch_unwind");
            steals += stolen;
            pieces.extend(local);
            if let Some(p) = panicked {
                if first_panic.as_ref().is_none_or(|e| p.index < e.index) {
                    first_panic = Some(p);
                }
            }
        }
    });
    if let Some(panicked) = first_panic {
        return Err(panicked);
    }
    pieces.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, mut piece) in pieces {
        out.append(&mut piece);
    }
    stats::record_parallel(
        n as u64,
        tasks,
        chunk as u64,
        n_chunks as u64,
        steals,
        started.elapsed(),
        registry,
    );
    Ok(out)
}

/// A reusable handle over the substrate: holds a [`Parallelism`] setting
/// and runs ordered maps under it. Layers that fan out repeatedly (the
/// batch executor, the trainer) construct one and reuse it per region.
///
/// Attach a run-scoped [`MetricsRegistry`] with
/// [`ScopedPool::with_metrics`] and every map records its task, chunk,
/// steal, and busy counters there, isolated from every other run in the
/// process.
///
/// ```
/// use nbhd_exec::{Parallelism, ScopedPool};
/// let pool = ScopedPool::new(Parallelism::fixed(2));
/// let doubled = pool.map(&[1, 2, 3, 4, 5], |&x: &i32| x * 2);
/// assert_eq!(doubled, vec![2, 4, 6, 8, 10]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScopedPool {
    parallelism: Parallelism,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl ScopedPool {
    /// Creates a pool handle with the given parallelism.
    pub fn new(parallelism: Parallelism) -> ScopedPool {
        ScopedPool {
            parallelism,
            metrics: None,
        }
    }

    /// Attaches a run-scoped metrics registry; every subsequent map
    /// records its counters there.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> ScopedPool {
        self.metrics = Some(registry);
        self
    }

    /// The pool's parallelism setting.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Maps `f` over `items` under the pool's parallelism, preserving
    /// order: the output equals `items.iter().map(f).collect()`, bit for
    /// bit, at any worker count.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.parallelism.workers_for(n);
        if workers <= 1 || n < MIN_PARALLEL_ITEMS {
            stats::record_serial(n, self.metrics.as_deref());
            return items.iter().map(f).collect();
        }
        self.fan_out(workers, items, |_, item| f(item), true)
    }

    /// A two-level ordered map: maps `f(item, inner)` over `items`, where
    /// `inner` is the pool `f`'s own maps should use. The outer items go to
    /// the workers under the rule [`ScopedPool::map`] uses. When they do,
    /// `inner` is a serial handle on the same registry, so each worker runs
    /// its items' inner maps on its own thread; when the outer level runs
    /// on the caller (one worker, or too few items), `inner` is this pool
    /// and the inner maps fan out as usual. Either way the output equals
    /// `items.iter().map(|item| f(item, self)).collect()`, bit for bit.
    ///
    /// The outer level records its parallel call, chunks, steals and busy
    /// time but counts no task, so the registry's task count is the inner
    /// maps' items at any worker count.
    ///
    /// ```
    /// use nbhd_exec::{Parallelism, ScopedPool};
    /// let pool = ScopedPool::new(Parallelism::fixed(2));
    /// let rows = [vec![1, 2], vec![3], vec![4, 5], vec![6]];
    /// let sums = pool.map_nested(&rows, |row, inner| {
    ///     inner.map(row, |&x: &i32| x * 10).iter().sum::<i32>()
    /// });
    /// assert_eq!(sums, vec![30, 30, 90, 60]);
    /// ```
    pub fn map_nested<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, &ScopedPool) -> R + Sync,
    {
        let n = items.len();
        let workers = self.parallelism.workers_for(n);
        if workers <= 1 || n < MIN_PARALLEL_ITEMS {
            return items.iter().map(|item| f(item, self)).collect();
        }
        let inner = ScopedPool {
            parallelism: Parallelism::serial(),
            metrics: self.metrics.clone(),
        };
        self.fan_out(workers, items, |_, item| f(item, &inner), false)
    }

    /// Maps `f` over `items` on `workers` threads in chunks of about a
    /// quarter of a worker's share, re-panicking with the task's context;
    /// the items count as tasks when `tasks` is set.
    fn fan_out<T, R, F>(&self, workers: usize, items: &[T], f: F, tasks: bool) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let chunk = items.len().div_ceil(workers * CHUNKS_PER_WORKER).max(1);
        match try_par_map_chunked(workers, chunk, items, f, self.metrics.as_deref(), tasks) {
            Ok(out) => out,
            Err(panicked) => panic!("exec {panicked}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..1000).collect();
        let out = ScopedPool::default().map(&items, |&x| x * 3 + 1);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, items[i] * 3 + 1);
        }
    }

    #[test]
    fn handles_tiny_and_empty_inputs() {
        let pool = ScopedPool::default();
        assert!(pool.map::<u32, u32, _>(&[], |&x| x).is_empty());
        assert_eq!(pool.map(&[7], |&x: &u32| x + 1), vec![8]);
    }

    #[test]
    fn matches_sequential_for_every_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xabc).collect();
        for workers in 1..=8 {
            let par = ScopedPool::new(Parallelism::fixed(workers))
                .map(&items, |&x| x.wrapping_mul(x) ^ 0xabc);
            assert_eq!(seq, par, "workers={workers}");
        }
    }

    #[test]
    fn chunked_handles_ragged_tails() {
        let items: Vec<u32> = (0..103).collect();
        for chunk in [1, 2, 7, 50, 103, 1000] {
            let out = par_map_chunked(3, chunk, &items, |i, &x| (i as u32, x + 1));
            assert_eq!(out.len(), items.len());
            for (i, (idx, v)) in out.iter().enumerate() {
                assert_eq!(*idx as usize, i);
                assert_eq!(*v, items[i] + 1);
            }
        }
    }

    #[test]
    fn pool_reuses_its_setting() {
        let pool = ScopedPool::new(Parallelism::fixed(2));
        assert_eq!(pool.parallelism(), Parallelism::fixed(2));
        let a = pool.map(&[1u8, 2, 3, 4, 5, 6], |&x| x as u16 * 10);
        assert_eq!(a, vec![10, 20, 30, 40, 50, 60]);
    }

    /// The fallible core on `workers` threads over chunks of `chunk`,
    /// unobserved.
    fn try_map<T: Sync, R: Send>(
        workers: usize,
        chunk: usize,
        items: &[T],
        f: impl Fn(&T) -> R + Sync,
    ) -> Result<Vec<R>, TaskPanicked> {
        try_par_map_chunked(workers, chunk, items, |_, item| f(item), None, true)
    }

    #[test]
    fn panic_surfaces_as_task_panicked_with_input_index() {
        let items: Vec<u32> = (0..100).collect();
        for (workers, chunk) in [(1, 100), (4, 7)] {
            let err = try_map(workers, chunk, &items, |&x| {
                assert!(x != 63, "item 63 is poisoned");
                x * 2
            })
            .unwrap_err();
            assert_eq!(err.index, 63, "{workers} workers");
            assert!(err.message.contains("poisoned"), "{}", err.message);
        }
    }

    #[test]
    fn panic_message_preserves_string_payloads() {
        // &'static str payload (plain panic!)
        let err = try_map(1, 1, &[0u8], |&x| {
            if x == 0 {
                panic!("static poison");
            }
            x
        })
        .unwrap_err();
        assert_eq!(err.message, "static poison");

        // String payload (formatted panic!)
        let err = try_map(1, 1, &[7u8], |&x| {
            if x == 7 {
                panic!("formatted poison at {x}");
            }
            x
        })
        .unwrap_err();
        assert_eq!(err.message, "formatted poison at 7");
    }

    #[test]
    fn panic_message_reports_non_string_payloads_as_opaque() {
        let err = try_map(1, 1, &[0u8], |&x| {
            if x == 0 {
                std::panic::panic_any(42usize);
            }
            x
        })
        .unwrap_err();
        assert_eq!(err.message, "opaque panic payload");
        // the helper itself is part of the public contract
        assert_eq!(panic_message(&42usize), "opaque panic payload");
        assert_eq!(panic_message(&String::from("s")), "s");
    }

    #[test]
    fn lowest_index_wins_when_several_items_panic() {
        let items: Vec<u32> = (0..256).collect();
        let err = try_map(4, 16, &items, |&x| {
            assert!(x % 2 == 0, "odd item");
            x
        })
        .unwrap_err();
        // item 1 panics inside the first chunk, so no racing worker can
        // observe a lower poisoned index
        assert_eq!(err.index, 1);
    }

    #[test]
    fn poisoned_pool_still_returns_everything_on_retry() {
        // a panic must not wedge any shared state: the same inputs map
        // cleanly right after a poisoned run
        let items: Vec<u32> = (0..64).collect();
        let pool = ScopedPool::new(Parallelism::fixed(3));
        let poisoned = std::panic::catch_unwind(|| pool.map(&items, |&x| assert!(x != 10)));
        assert!(poisoned.is_err());
        let out = pool.map(&items, |&x| x + 1);
        assert_eq!(out.len(), 64);
        assert_eq!(out[63], 64);
    }

    #[test]
    fn map_repanics_with_task_context() {
        let items: Vec<u32> = (0..40).collect();
        let caught = std::panic::catch_unwind(|| {
            ScopedPool::new(Parallelism::fixed(4)).map(&items, |&x| {
                assert!(x != 5, "boom at five");
                x
            })
        })
        .unwrap_err();
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("task 5"), "got: {message}");
        assert!(message.contains("boom at five"), "got: {message}");
    }

    #[test]
    fn fallible_core_matches_map_on_clean_inputs() {
        let items: Vec<u64> = (0..257).collect();
        let ok = try_map(3, 10, &items, |&x| x.wrapping_mul(7)).unwrap();
        let plain = ScopedPool::default().map(&items, |&x| x.wrapping_mul(7));
        assert_eq!(ok, plain);
    }

    #[test]
    fn attached_registry_sees_this_pools_work_only() {
        let registry = Arc::new(MetricsRegistry::new());
        let pool = ScopedPool::new(Parallelism::fixed(3)).with_metrics(Arc::clone(&registry));
        let items: Vec<u64> = (0..64).collect();
        let _ = pool.map(&items, |&x| x + 1);
        let _ = pool.map(&items, |&x| x + 2);
        let snapshot = crate::ExecSnapshot::from_metrics(&registry.snapshot());
        assert_eq!(snapshot.tasks, 128);
        assert_eq!(snapshot.parallel_calls + snapshot.serial_calls, 2);
    }

    #[test]
    fn registry_task_counts_are_worker_count_invariant() {
        let items: Vec<u64> = (0..257).collect();
        let count_tasks = |parallelism: Parallelism| {
            let registry = Arc::new(MetricsRegistry::new());
            let pool = ScopedPool::new(parallelism).with_metrics(Arc::clone(&registry));
            let _ = pool.map(&items, |&x| x + 1);
            registry.snapshot().counters[crate::stats::TASKS_METRIC]
        };
        assert_eq!(
            count_tasks(Parallelism::serial()),
            count_tasks(Parallelism::fixed(4))
        );
    }

    /// Rows of uneven length: the nested maps' inputs.
    fn rows() -> Vec<Vec<u64>> {
        (0..11u64).map(|i| (0..(i * 7) % 23).collect()).collect()
    }

    #[test]
    fn map_nested_equals_a_plain_map_at_every_worker_count() {
        let rows = rows();
        let cell = |&x: &u64| x.wrapping_mul(x) ^ 0x5a;
        let plain: Vec<Vec<u64>> = rows
            .iter()
            .map(|row| row.iter().map(cell).collect())
            .collect();
        for workers in 1..=8 {
            let pool = ScopedPool::new(Parallelism::fixed(workers));
            let nested = pool.map_nested(&rows, |row, inner| inner.map(row, cell));
            assert_eq!(nested, plain, "workers={workers}");
        }
    }

    #[test]
    fn map_nested_inner_pool_is_serial_exactly_when_the_outer_level_went_parallel() {
        for (workers, items) in [(1, 8), (2, 8), (4, 8), (8, 3), (4, 4), (2, 1)] {
            let registry = Arc::new(MetricsRegistry::new());
            let pool =
                ScopedPool::new(Parallelism::fixed(workers)).with_metrics(Arc::clone(&registry));
            let inner = pool.map_nested(&vec![(); items], |_, inner| inner.parallelism());
            let snapshot = crate::ExecSnapshot::from_metrics(&registry.snapshot());
            let parallel = snapshot.parallel_calls == 1;
            let case = format!("{workers} workers, {items} items");
            assert_eq!(
                parallel,
                workers > 1 && items >= MIN_PARALLEL_ITEMS,
                "{case}"
            );
            let want = if parallel {
                Parallelism::serial()
            } else {
                pool.parallelism()
            };
            assert!(inner.iter().all(|&p| p == want), "{case}");
            assert_eq!(snapshot.tasks, 0, "{case}: the outer level counts no task");
        }
    }

    #[test]
    fn map_nested_counts_only_inner_tasks_at_every_worker_count() {
        let rows = rows();
        let inner_items: usize = rows.iter().map(Vec::len).sum();
        for workers in 1..=8 {
            let registry = Arc::new(MetricsRegistry::new());
            let pool =
                ScopedPool::new(Parallelism::fixed(workers)).with_metrics(Arc::clone(&registry));
            let _ = pool.map_nested(&rows, |row, inner| inner.map(row, |&x| x + 1));
            let snapshot = crate::ExecSnapshot::from_metrics(&registry.snapshot());
            assert_eq!(snapshot.tasks, inner_items as u64, "workers={workers}");
        }
    }

    #[test]
    fn map_nested_repanics_with_task_context() {
        let items: Vec<u32> = (0..40).collect();
        let caught = std::panic::catch_unwind(|| {
            ScopedPool::new(Parallelism::fixed(4)).map_nested(&items, |&x, _| {
                assert!(x != 5, "boom at five");
                x
            })
        })
        .unwrap_err();
        let message = caught.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("task 5"), "got: {message}");
        assert!(message.contains("boom at five"), "got: {message}");
    }

    #[test]
    fn seeded_work_is_thread_count_invariant() {
        use nbhd_types::rng::rng_from;
        use rand::Rng;
        let indices: Vec<u64> = (0..64).collect();
        let draw = |&i: &u64| -> f64 {
            let mut rng = rng_from(crate::child_seed(9, i));
            rng.random()
        };
        let serial = ScopedPool::new(Parallelism::serial()).map(&indices, draw);
        let parallel = ScopedPool::new(Parallelism::fixed(7)).map(&indices, draw);
        assert_eq!(serial, parallel);
    }
}
