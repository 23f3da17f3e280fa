//! Bootstrap confidence intervals over per-image statistics.
//!
//! Resamples fan out over the shared execution substrate: each resample
//! draws from its own [`nbhd_exec::child_seed`]-derived RNG, so the
//! interval is identical at any worker count (and identical to a
//! sequential loop over the same per-resample seeds).

use nbhd_exec::ScopedPool;
use nbhd_types::rng::{child_seed, rng_from};
use rand::Rng;

/// A two-sided bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (mean of the observed values).
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

/// Bootstraps a confidence interval for the mean of `values` (e.g. per-image
/// correctness indicators) at the given confidence `level` (e.g. 0.95),
/// fanning the resamples out on `pool`. Each resample draws from its own
/// `(seed, index)` RNG, so the interval is identical at any pool setting;
/// when the pool carries a run-scoped metrics registry, its execution
/// counters land there. Nothing is journaled: a resample is cheaper to
/// redraw than to read back.
///
/// # Panics
///
/// Panics when `values` is empty, `resamples` is zero, or `level` is not in
/// `(0, 1)`.
///
/// # Examples
///
/// ```
/// use nbhd_eval::bootstrap_mean;
/// use nbhd_exec::ScopedPool;
/// let correct: Vec<f64> = (0..200).map(|i| if i % 5 == 0 { 0.0 } else { 1.0 }).collect();
/// let ci = bootstrap_mean(&correct, 500, 0.95, 42, &ScopedPool::default());
/// assert!((ci.estimate - 0.8).abs() < 1e-9);
/// assert!(ci.lo < 0.8 && 0.8 < ci.hi);
/// assert!(ci.hi - ci.lo < 0.2);
/// ```
pub fn bootstrap_mean(
    values: &[f64],
    resamples: usize,
    level: f64,
    seed: u64,
    pool: &ScopedPool,
) -> ConfidenceInterval {
    assert!(!values.is_empty(), "bootstrap requires observations");
    assert!(resamples > 0, "bootstrap requires at least one resample");
    assert!(
        (0.0..1.0).contains(&level) && level > 0.0,
        "level must be in (0, 1)"
    );
    let root = child_seed(seed, "bootstrap");
    let order: Vec<u64> = (0..resamples as u64).collect();
    let mut means = pool.map(&order, |&resample| resample_mean(values, root, resample));
    let estimate = values.iter().sum::<f64>() / values.len() as f64;
    means.sort_by(|a, b| a.partial_cmp(b).expect("finite means"));
    let alpha = (1.0 - level) / 2.0;
    let lo_idx = ((resamples as f64 * alpha) as usize).min(resamples - 1);
    let hi_idx = ((resamples as f64 * (1.0 - alpha)) as usize).min(resamples - 1);
    ConfidenceInterval {
        estimate,
        lo: means[lo_idx],
        hi: means[hi_idx],
    }
}

/// One bootstrap resample's mean, drawn from its own `(root, index)` seed.
fn resample_mean(values: &[f64], root: u64, resample: u64) -> f64 {
    let n = values.len();
    let mut rng = rng_from(nbhd_exec::child_seed(root, resample));
    let mut sum = 0.0;
    for _ in 0..n {
        sum += values[rng.random_range(0..n)];
    }
    sum / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_contains_estimate() {
        let vals: Vec<f64> = (0..100).map(|i| (i % 2) as f64).collect();
        let ci = bootstrap_mean(&vals, 300, 0.9, 1, &ScopedPool::default());
        assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
    }

    #[test]
    fn constant_values_give_degenerate_interval() {
        let vals = vec![0.7; 50];
        let ci = bootstrap_mean(&vals, 200, 0.95, 2, &ScopedPool::default());
        assert!((ci.lo - 0.7).abs() < 1e-12);
        assert!((ci.hi - 0.7).abs() < 1e-12);
    }

    #[test]
    fn more_data_narrows_the_interval() {
        let small: Vec<f64> = (0..30).map(|i| ((i * 7) % 10) as f64 / 10.0).collect();
        let big: Vec<f64> = (0..3000).map(|i| ((i * 7) % 10) as f64 / 10.0).collect();
        let ci_small = bootstrap_mean(&small, 400, 0.95, 3, &ScopedPool::default());
        let ci_big = bootstrap_mean(&big, 400, 0.95, 3, &ScopedPool::default());
        assert!(ci_big.hi - ci_big.lo < ci_small.hi - ci_small.lo);
    }

    #[test]
    fn deterministic_per_seed() {
        let vals: Vec<f64> = (0..64).map(|i| (i % 3) as f64).collect();
        let a = bootstrap_mean(&vals, 100, 0.95, 9, &ScopedPool::default());
        let b = bootstrap_mean(&vals, 100, 0.95, 9, &ScopedPool::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "observations")]
    fn empty_input_panics() {
        let _ = bootstrap_mean(&[], 10, 0.95, 1, &ScopedPool::default());
    }

    #[test]
    fn interval_is_bit_identical_at_one_and_four_workers_and_counts_its_tasks() {
        use nbhd_exec::Parallelism;
        use nbhd_obs::MetricsRegistry;
        use std::sync::Arc;
        let vals: Vec<f64> = (0..80).map(|i| ((i * 13) % 7) as f64 / 7.0).collect();
        let serial = bootstrap_mean(
            &vals,
            120,
            0.95,
            17,
            &ScopedPool::new(Parallelism::serial()),
        );
        let registry = Arc::new(MetricsRegistry::new());
        let pool = ScopedPool::new(Parallelism::fixed(4)).with_metrics(Arc::clone(&registry));
        let pooled = bootstrap_mean(&vals, 120, 0.95, 17, &pool);
        let bits = |ci: ConfidenceInterval| [ci.estimate, ci.lo, ci.hi].map(f64::to_bits);
        assert_eq!(
            bits(serial),
            bits(pooled),
            "workers must not change the interval"
        );
        assert_eq!(
            registry.snapshot().counters[nbhd_exec::TASKS_METRIC],
            120,
            "one task per resample"
        );
    }
}
