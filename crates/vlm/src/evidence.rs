//! Per-image evidence and the Gaussian-copula error correlation.
//!
//! Each (image, class) carries a *shared difficulty* draw that every model
//! sees, plus a per-model idiosyncratic draw. Mixing them through a Gaussian
//! copula keeps every model's marginal error rate exactly at its calibrated
//! value while making errors correlate across models — which is what
//! determines how much majority voting can help (DESIGN.md §5, knob 2).

use nbhd_scene::{scene_evidence, IndicatorEvidence, SceneSpec};
use nbhd_types::rng::{child_seed, indexed_seed, rng_from, sample_standard_normal, std_normal_cdf};
use nbhd_types::{ImageId, Indicator, IndicatorMap, IndicatorSet};

/// Fraction of difficulty variance shared across models (the correlation
/// knob). The paper's modest voting gain (88.5% vs best single 88%) implies
/// strongly correlated errors.
pub const DEFAULT_SHARED_FRACTION: f64 = 0.55;

/// Everything a simulated model may "see" about one image.
///
/// The shared difficulty draws are made once, when the context is built
/// from `image` and `survey_seed`, so every model that answers about the
/// image reads them instead of redrawing them. Editing either field
/// afterwards does not redraw them: build a new context instead.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageContext {
    /// The image identity.
    pub image: ImageId,
    /// Ground-truth presence (the simulator's hidden state, never exposed
    /// to evaluation code as a prediction).
    pub presence: IndicatorSet,
    /// Per-class visual evidence from the scene.
    pub evidence: IndicatorMap<IndicatorEvidence>,
    /// The survey-level seed anchoring the shared difficulty draws.
    pub survey_seed: u64,
    /// The shared standard-normal difficulty draw per class.
    shared: IndicatorMap<f64>,
}

impl ImageContext {
    /// Builds the context from a scene's ground truth.
    pub fn from_scene(spec: &SceneSpec, survey_seed: u64) -> ImageContext {
        let class_seed = child_seed(child_seed(survey_seed, "difficulty"), "class");
        ImageContext {
            image: spec.image,
            presence: spec.presence(),
            evidence: scene_evidence(spec),
            survey_seed,
            shared: IndicatorMap::from_fn(|ind| {
                sample_standard_normal(&mut rng_from(indexed_seed(
                    class_seed,
                    class_key(spec.image, ind),
                )))
            }),
        }
    }

    /// The shared standard-normal difficulty draw for a class of this image.
    pub fn shared_difficulty(&self, ind: Indicator) -> f64 {
        self.shared[ind]
    }
}

/// The per-(image, class) index of every difficulty draw. It wraps
/// instead of overflowing for image keys near the top of the range.
fn class_key(image: ImageId, ind: Indicator) -> u64 {
    image.key().wrapping_mul(7).wrapping_add(ind.index() as u64)
}

/// One model's half of the Gaussian copula, with everything that does not
/// depend on the image computed once: the model's per-class seed and the
/// two mixing weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Copula {
    class_seed: u64,
    shared_weight: f64,
    own_weight: f64,
}

impl Copula {
    /// The copula of the model seeded by `model_seed` at a shared fraction.
    pub(crate) fn new(model_seed: u64, shared_fraction: f64) -> Copula {
        let alpha = shared_fraction.clamp(0.0, 1.0);
        Copula {
            class_seed: child_seed(child_seed(model_seed, "idiosyncratic"), "class"),
            shared_weight: alpha.sqrt(),
            own_weight: (1.0 - alpha).sqrt(),
        }
    }

    /// The uniform difficulty of one class of one image for this model.
    pub(crate) fn draw(&self, ctx: &ImageContext, ind: Indicator) -> f64 {
        let z_shared = ctx.shared_difficulty(ind);
        let seed = indexed_seed(self.class_seed, class_key(ctx.image, ind));
        let z_model = sample_standard_normal(&mut rng_from(seed));
        std_normal_cdf(self.shared_weight * z_shared + self.own_weight * z_model)
    }
}

/// Draws the uniform difficulty for `(model, image, class)` by mixing the
/// shared draw with a model-specific draw through a Gaussian copula:
/// `u = Φ(√α·z_shared + √(1−α)·z_model)` — exactly uniform marginally, with
/// cross-model correlation `α`.
pub fn mixed_difficulty(
    ctx: &ImageContext,
    model_seed: u64,
    ind: Indicator,
    shared_fraction: f64,
) -> f64 {
    Copula::new(model_seed, shared_fraction).draw(ctx, ind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbhd_geo::{RoadClass, Zoning};
    use nbhd_scene::{SceneGenerator, ViewKind};
    use nbhd_types::{Heading, LocationId};

    fn ctx(loc: u64) -> ImageContext {
        let spec = SceneGenerator::new(9).compose_raw(
            ImageId::new(LocationId(loc), Heading::North),
            Zoning::Suburban,
            RoadClass::SingleLane,
            ViewKind::AlongRoad,
        );
        ImageContext::from_scene(&spec, 9)
    }

    #[test]
    fn difficulty_marginal_is_uniform() {
        let mut values = Vec::new();
        for loc in 0..2000 {
            values.push(mixed_difficulty(&ctx(loc), 1, Indicator::Sidewalk, 0.55));
        }
        let mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        assert!((mean - 0.5).abs() < 0.03, "mean {mean}");
        let below_01 = values.iter().filter(|&&v| v < 0.1).count() as f64 / values.len() as f64;
        assert!((below_01 - 0.1).abs() < 0.03, "P(u<0.1) = {below_01}");
    }

    #[test]
    fn full_sharing_makes_models_agree() {
        for loc in 0..50 {
            let c = ctx(loc);
            let a = mixed_difficulty(&c, 1, Indicator::Powerline, 1.0);
            let b = mixed_difficulty(&c, 2, Indicator::Powerline, 1.0);
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_sharing_makes_models_independent() {
        let mut same = 0usize;
        for loc in 0..200 {
            let c = ctx(loc);
            let a = mixed_difficulty(&c, 1, Indicator::Powerline, 0.0) < 0.5;
            let b = mixed_difficulty(&c, 2, Indicator::Powerline, 0.0) < 0.5;
            same += usize::from(a == b);
        }
        let frac = same as f64 / 200.0;
        assert!((frac - 0.5).abs() < 0.12, "agreement {frac} should be ~0.5");
    }

    #[test]
    fn partial_sharing_correlates_without_duplicating() {
        let mut same = 0usize;
        for loc in 0..400 {
            let c = ctx(loc);
            let a = mixed_difficulty(&c, 1, Indicator::Sidewalk, 0.55) < 0.5;
            let b = mixed_difficulty(&c, 2, Indicator::Sidewalk, 0.55) < 0.5;
            same += usize::from(a == b);
        }
        let frac = same as f64 / 400.0;
        assert!(frac > 0.6 && frac < 0.95, "agreement {frac}");
    }

    #[test]
    fn difficulty_is_defined_for_image_keys_near_the_top_of_the_range() {
        // the per-class seed keys wrap instead of overflowing
        let c = ctx(1 << 61);
        for ind in Indicator::ALL {
            assert!(c.shared_difficulty(ind).is_finite());
            let u = mixed_difficulty(&c, 1, ind, 0.55);
            assert!((0.0..=1.0).contains(&u), "{ind:?}: {u}");
        }
    }

    #[test]
    fn hoisted_draws_equal_the_per_call_formulas() {
        use nbhd_types::rng::child_seed_n;
        for loc in [0, 7, 1 << 61] {
            let c = ctx(loc);
            for ind in Indicator::ALL {
                let key = c
                    .image
                    .key()
                    .wrapping_mul(7)
                    .wrapping_add(ind.index() as u64);
                let shared_seed = child_seed_n(child_seed(9, "difficulty"), "class", key);
                let z_shared = sample_standard_normal(&mut rng_from(shared_seed));
                assert_eq!(c.shared_difficulty(ind).to_bits(), z_shared.to_bits());
                for (model_seed, alpha) in [(1, 0.55), (2, 0.0), (3, 1.0), (4, 1.7)] {
                    let own_seed =
                        child_seed_n(child_seed(model_seed, "idiosyncratic"), "class", key);
                    let z_model = sample_standard_normal(&mut rng_from(own_seed));
                    let a: f64 = f64::clamp(alpha, 0.0, 1.0);
                    let u = std_normal_cdf(a.sqrt() * z_shared + (1.0 - a).sqrt() * z_model);
                    let got = mixed_difficulty(&c, model_seed, ind, alpha);
                    assert_eq!(got.to_bits(), u.to_bits(), "{loc} {ind:?} {alpha}");
                }
            }
        }
    }

    #[test]
    fn context_is_deterministic() {
        let a = ctx(5);
        let b = ctx(5);
        assert_eq!(a, b);
        assert_eq!(
            a.shared_difficulty(Indicator::Apartment),
            b.shared_difficulty(Indicator::Apartment)
        );
    }

    #[test]
    fn difficulty_differs_by_class_and_image() {
        let c = ctx(1);
        let d1 = c.shared_difficulty(Indicator::Sidewalk);
        let d2 = c.shared_difficulty(Indicator::Powerline);
        assert_ne!(d1, d2);
        let other = ctx(2);
        assert_ne!(d1, other.shared_difficulty(Indicator::Sidewalk));
    }
}
