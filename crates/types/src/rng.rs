//! Deterministic seed-splitting and small sampling helpers.
//!
//! Every stochastic component in the workspace derives its randomness from a
//! single experiment seed via [`child_seed`], so reruns are exactly
//! reproducible and independent subsystems never share RNG streams.
//!
//! # Examples
//!
//! ```
//! use nbhd_types::rng::{child_seed, rng_from};
//! use rand::Rng;
//!
//! let root = 42u64;
//! let mut scene_rng = rng_from(child_seed(root, "scene"));
//! let mut label_rng = rng_from(child_seed(root, "labels"));
//! let a: f64 = scene_rng.random();
//! let b: f64 = label_rng.random();
//! assert_ne!(a, b); // independent streams
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives a child seed from a parent seed and a domain tag.
///
/// Implemented as FNV-1a over the tag, mixed with the parent via a
/// SplitMix64 finalizer. Deterministic across platforms and releases.
pub fn child_seed(parent: u64, tag: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    splitmix64(parent ^ h)
}

/// Derives a child seed indexed by an integer (e.g. per image, per worker).
pub fn child_seed_n(parent: u64, tag: &str, n: u64) -> u64 {
    indexed_seed(child_seed(parent, tag), n)
}

/// [`child_seed_n`] with the tag already folded in:
/// `indexed_seed(child_seed(parent, tag), n) == child_seed_n(parent, tag, n)`.
/// Hot loops that index one tagged seed many times hash the tag once.
pub fn indexed_seed(tagged: u64, n: u64) -> u64 {
    splitmix64(tagged ^ splitmix64(n.wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

/// A SplitMix64 finalization step: a cheap, well-mixed 64-bit permutation.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Constructs the workspace-standard RNG from a seed.
pub fn rng_from(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples a standard normal variate via Box–Muller.
///
/// Kept here so the workspace does not need the `rand_distr` crate.
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the open interval.
    let u1: f64 = loop {
        let u: f64 = rng.random();
        if u > f64::EPSILON {
            break u;
        }
    };
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples `N(mean, std_dev^2)`.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    mean + std_dev * sample_standard_normal(rng)
}

/// The standard normal cumulative distribution function.
///
/// Used by the VLM simulator's Gaussian copula to keep per-class error rates
/// exactly calibrated while correlating errors across models. Max absolute
/// error of the underlying `erf` approximation is below 1.5e-7.
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Abramowitz–Stegun 7.1.26 rational approximation of `erf`.
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Logistic sigmoid.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Logit (inverse sigmoid), with inputs clamped to `(eps, 1-eps)`.
pub fn logit(p: f64) -> f64 {
    let p = p.clamp(1e-9, 1.0 - 1e-9);
    (p / (1.0 - p)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_seeds_differ_by_tag_and_parent() {
        assert_ne!(child_seed(1, "a"), child_seed(1, "b"));
        assert_ne!(child_seed(1, "a"), child_seed(2, "a"));
        assert_eq!(child_seed(7, "scene"), child_seed(7, "scene"));
    }

    #[test]
    fn indexed_seed_folds_the_tag_like_child_seed_n() {
        for (parent, n) in [(0, 0), (7, 3), (u64::MAX, u64::MAX), (42, 1 << 61)] {
            let tagged = child_seed(parent, "class");
            assert_eq!(indexed_seed(tagged, n), child_seed_n(parent, "class", n));
        }
    }

    #[test]
    fn child_seed_n_varies_by_index() {
        let s: Vec<u64> = (0..100).map(|n| child_seed_n(3, "img", n)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len());
    }

    #[test]
    fn normal_sampler_has_right_moments() {
        let mut rng = rng_from(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn cdf_matches_known_values() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((std_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((std_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn sigmoid_logit_inverse() {
        for p in [0.01, 0.2, 0.5, 0.9, 0.999] {
            assert!((sigmoid(logit(p)) - p).abs() < 1e-9);
        }
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(800.0) <= 1.0);
    }
}
