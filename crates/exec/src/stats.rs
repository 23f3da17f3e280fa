//! Substrate execution counters.
//!
//! Counters live in a run-scoped [`MetricsRegistry`] attached via
//! [`crate::ScopedPool::with_metrics`]: isolated per run, safe under
//! parallel tests, and rolled into the run's unified summary alongside
//! every other subsystem's metrics. [`ExecSnapshot::from_metrics`] reads
//! them back out of a published [`MetricsSnapshot`] for reporting.
//!
//! Counters are observability only — no behavior reads them — so their
//! scheduling-dependent parts (steals, busy time, chunk sizes) never
//! threaten determinism. Task counts are deterministic at any worker
//! count (registry namespace `counters`); call/chunk/steal/busy counts
//! and the chunk-size histogram are scheduling-dependent (registry
//! namespaces `wall_counters` / `wall_histograms`).

use std::time::Duration;

use nbhd_obs::{MetricsRegistry, MetricsSnapshot};

/// Registry name for items executed (deterministic counter).
pub const TASKS_METRIC: &str = "exec.tasks";
/// Registry name for parallel regions executed (wall counter).
pub const PARALLEL_CALLS_METRIC: &str = "exec.parallel_calls";
/// Registry name for sequential-fallback regions (wall counter).
pub const SERIAL_CALLS_METRIC: &str = "exec.serial_calls";
/// Registry name for chunks claimed (wall counter).
pub const CHUNKS_METRIC: &str = "exec.chunks";
/// Registry name for stolen chunks (wall counter).
pub const STEALS_METRIC: &str = "exec.steals";
/// Registry name for wall-clock microseconds inside parallel regions
/// (wall counter).
pub const BUSY_US_METRIC: &str = "exec.busy_us";
/// Registry name for the items-per-chunk distribution (wall histogram —
/// chunk sizes depend on the worker count, so they stay off the
/// deterministic surface).
pub const CHUNK_ITEMS_HIST: &str = "exec.chunk_items";

/// A point-in-time snapshot of the substrate's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecSnapshot {
    /// Parallel regions executed (fan-outs that actually spawned workers).
    pub parallel_calls: u64,
    /// Regions that fell back to a sequential loop (one worker, or too few
    /// items to be worth spawning for).
    pub serial_calls: u64,
    /// Individual work items executed across all regions.
    pub tasks: u64,
    /// Work chunks claimed across all parallel regions.
    pub chunks: u64,
    /// Chunks executed by a worker other than their round-robin owner —
    /// a measure of how much work-stealing rebalanced the load.
    pub steals: u64,
    /// Total wall-clock spent inside parallel regions, microseconds.
    pub busy_us: u64,
}

impl ExecSnapshot {
    /// Wall-clock spent inside parallel regions, in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.busy_us as f64 / 1_000.0
    }

    /// Reads the substrate's counters back out of a [`MetricsSnapshot`]
    /// published by a pool with an attached registry.
    pub fn from_metrics(metrics: &MetricsSnapshot) -> ExecSnapshot {
        let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0);
        let wall = |name: &str| metrics.wall_counters.get(name).copied().unwrap_or(0);
        ExecSnapshot {
            parallel_calls: wall(PARALLEL_CALLS_METRIC),
            serial_calls: wall(SERIAL_CALLS_METRIC),
            tasks: counter(TASKS_METRIC),
            chunks: wall(CHUNKS_METRIC),
            steals: wall(STEALS_METRIC),
            busy_us: wall(BUSY_US_METRIC),
        }
    }
}

pub(crate) fn record_serial(tasks: usize, registry: Option<&MetricsRegistry>) {
    if let Some(registry) = registry {
        registry.add(TASKS_METRIC, tasks as u64);
        registry.add_wall(SERIAL_CALLS_METRIC, 1);
    }
}

/// Records one parallel region over `items` items, which count as tasks
/// only when `tasks` is set (the outer level of a nested map counts none).
pub(crate) fn record_parallel(
    items: u64,
    tasks: bool,
    chunk: u64,
    chunks: u64,
    steals: u64,
    busy: Duration,
    registry: Option<&MetricsRegistry>,
) {
    if let Some(registry) = registry {
        if tasks {
            registry.add(TASKS_METRIC, items);
        }
        registry.add_wall(PARALLEL_CALLS_METRIC, 1);
        registry.add_wall(CHUNKS_METRIC, chunks);
        registry.add_wall(STEALS_METRIC, steals);
        registry.add_wall(BUSY_US_METRIC, busy.as_micros() as u64);
        // chunk-size distribution: `items / chunk` full chunks plus one
        // ragged tail when the chunk size does not divide the input
        if let Some(full) = items.checked_div(chunk) {
            let tail = items % chunk;
            if full > 0 {
                registry.record_wall_hist_n(CHUNK_ITEMS_HIST, chunk, full);
            }
            if tail > 0 {
                registry.record_wall_hist(CHUNK_ITEMS_HIST, tail);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_counters_are_isolation_safe() {
        // a run-scoped registry sees exactly this test's recordings, no
        // matter what other tests in the process are doing
        let registry = MetricsRegistry::new();
        record_serial(5, Some(&registry));
        record_parallel(
            10,
            true,
            3,
            4,
            1,
            Duration::from_micros(250),
            Some(&registry),
        );
        let snapshot = ExecSnapshot::from_metrics(&registry.snapshot());
        assert_eq!(snapshot.tasks, 15);
        assert_eq!(snapshot.serial_calls, 1);
        assert_eq!(snapshot.parallel_calls, 1);
        assert_eq!(snapshot.chunks, 4);
        assert_eq!(snapshot.steals, 1);
        assert_eq!(snapshot.busy_us, 250);
    }

    #[test]
    fn task_counts_are_deterministic_metrics_the_rest_are_wall() {
        let registry = MetricsRegistry::new();
        record_parallel(8, true, 4, 2, 1, Duration::from_micros(99), Some(&registry));
        let metrics = registry.snapshot();
        assert_eq!(metrics.counters.get(TASKS_METRIC), Some(&8));
        assert!(!metrics.counters.contains_key(STEALS_METRIC));
        assert_eq!(metrics.wall_counters.get(STEALS_METRIC), Some(&1));
        assert_eq!(metrics.wall_counters.get(BUSY_US_METRIC), Some(&99));
    }

    #[test]
    fn chunk_sizes_land_in_the_wall_histogram() {
        let registry = MetricsRegistry::new();
        // 10 tasks in chunks of 3: three full chunks plus a tail of 1
        record_parallel(10, true, 3, 4, 0, Duration::ZERO, Some(&registry));
        let metrics = registry.snapshot();
        assert!(
            !metrics.histograms.contains_key(CHUNK_ITEMS_HIST),
            "chunk sizes are scheduling-dependent and must stay off the \
             deterministic surface"
        );
        let hist = &metrics.wall_histograms[CHUNK_ITEMS_HIST];
        assert_eq!(hist.count(), 4);
        assert_eq!(hist.sum(), 10);
        assert_eq!(hist.min(), 1);
        assert_eq!(hist.max(), 3);
    }

    #[test]
    fn recording_without_a_registry_is_a_no_op() {
        record_serial(5, None);
        record_parallel(10, true, 3, 4, 1, Duration::from_micros(250), None);
    }
}
