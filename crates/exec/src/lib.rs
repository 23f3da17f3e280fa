//! Deterministic, order-preserving parallel execution substrate.
//!
//! Every compute-heavy crate in the workspace — the survey pipeline, the
//! detector trainer, the batch executor, bootstrap resampling, the paper
//! benches — fans out through this one layer instead of carrying a private
//! worker pool. The substrate guarantees the property the whole repository
//! stands on: **parallel execution is bit-identical to serial execution**.
//!
//! Two rules make that hold:
//!
//! 1. **Order preservation.** [`par_map`] / [`par_map_indexed`] write each
//!    chunk's results into its own pre-sized slot and join the slots in
//!    input order, so `par_map(items, f)` equals `items.iter().map(f)`
//!    element-for-element, at any worker count. No single-channel drain: a
//!    worker never funnels another worker's results.
//! 2. **Seed-per-item.** Stochastic work derives its randomness from
//!    [`child_seed`]`(seed, index)` — never from a shared RNG advanced in
//!    iteration order — so the draw an item sees does not depend on which
//!    thread ran it or when.
//!
//! The [`Parallelism`] knob is plumbed through `SurveyConfig`,
//! `TrainConfig`, and `ExecutorConfig`. Execution counters (tasks,
//! chunks, steals, busy wall-time, and an items-per-chunk histogram)
//! record into a run-scoped `nbhd-obs`
//! [`MetricsRegistry`](nbhd_obs::MetricsRegistry) attached via
//! [`ScopedPool::with_metrics`] and are read back with
//! [`ExecSnapshot::from_metrics`].
//!
//! # Examples
//!
//! ```
//! use nbhd_exec::{par_map, par_map_with, Parallelism};
//!
//! let items: Vec<u64> = (0..100).collect();
//! let serial = par_map_with(Parallelism::serial(), &items, |&x| x * x);
//! let parallel = par_map_with(Parallelism::fixed(4), &items, |&x| x * x);
//! assert_eq!(serial, parallel);
//! assert_eq!(par_map(&items, |&x| x * x), serial);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parallelism;
mod pool;
mod stats;

pub use parallelism::Parallelism;
pub use pool::{
    panic_message, par_map, par_map_chunked, par_map_indexed, par_map_indexed_with, par_map_with,
    ScopedPool, TaskPanicked,
};
pub use stats::{
    ExecSnapshot, BUSY_US_METRIC, CHUNKS_METRIC, CHUNK_ITEMS_HIST, PARALLEL_CALLS_METRIC,
    SERIAL_CALLS_METRIC, STEALS_METRIC, TASKS_METRIC,
};

/// Derives the seed for one work item from a parent seed and the item's
/// input index.
///
/// This is the substrate's determinism contract for stochastic work: an
/// item's randomness depends only on `(parent, index)`, never on thread
/// scheduling or iteration order.
///
/// ```
/// use nbhd_exec::child_seed;
/// assert_eq!(child_seed(7, 3), child_seed(7, 3));
/// assert_ne!(child_seed(7, 3), child_seed(7, 4));
/// ```
pub fn child_seed(parent: u64, index: u64) -> u64 {
    nbhd_types::rng::child_seed_n(parent, "exec-item", index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_seeds_are_unique_per_index() {
        let mut seeds: Vec<u64> = (0..1000).map(|i| child_seed(11, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000);
    }
}
