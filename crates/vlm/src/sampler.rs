//! Token-level answer sampling with temperature and top-p (nucleus)
//! controls — the mechanism behind the paper's parameter-tuning study.
//!
//! Each answer is produced by sampling one token from a small vocabulary:
//! the intended yes/no word, the opposite word, and a bucket of junk tokens
//! (hedges, refusals, format drift). Temperature rescales log-probabilities;
//! top-p truncates the tail. Two mechanisms produce the paper's observed
//! U-shape (defaults best, extremes slightly worse):
//!
//! * **High temperature / diffuse sampling** gives junk tokens real mass, so
//!   answers occasionally fail to parse (a recall loss).
//! * **Very low temperature / aggressive truncation** triggers *format
//!   rigidity*: the model sometimes emits the instruction's literal format
//!   example instead of its own answers — a documented failure of
//!   instruction-following models asked for rigid output formats.

use nbhd_types::rng::sigmoid;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Sampler controls, mirroring the vendor APIs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplerParams {
    /// Softmax temperature; vendor default 1.0.
    pub temperature: f64,
    /// Nucleus truncation mass; vendor default 0.95.
    pub top_p: f64,
}

impl Default for SamplerParams {
    fn default() -> Self {
        SamplerParams {
            temperature: 1.0,
            top_p: 0.95,
        }
    }
}

impl SamplerParams {
    /// Creates validated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`nbhd_types::Error::Config`] for temperature outside
    /// `(0, 2]` or top-p outside `(0, 1]`.
    pub fn new(temperature: f64, top_p: f64) -> nbhd_types::Result<SamplerParams> {
        if !(temperature > 0.0 && temperature <= 2.0) {
            return Err(nbhd_types::Error::config(format!(
                "temperature {temperature} outside (0, 2]"
            )));
        }
        if !(top_p > 0.0 && top_p <= 1.0) {
            return Err(nbhd_types::Error::config(format!(
                "top_p {top_p} outside (0, 1]"
            )));
        }
        Ok(SamplerParams { temperature, top_p })
    }

    /// How strongly the parameters trigger format rigidity, in `[0, 1]`:
    /// zero at the defaults, growing as temperature or top-p drop.
    pub fn rigidity_drive(&self) -> f64 {
        let from_temp = (1.0 - self.temperature).clamp(0.0, 1.0);
        let from_top_p = ((0.95 - self.top_p) / 0.95).clamp(0.0, 1.0);
        from_temp.max(from_top_p)
    }
}

/// One sampled answer token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerToken {
    /// The model's intended answer.
    Intent,
    /// The opposite of the intended answer.
    Flip,
    /// A non-answer token (hedge/refusal/drift); fails to parse.
    Junk,
}

/// Samples one answer token.
///
/// `confidence` in `[0, 1]` sharpens the intent logit; `junk_mass` is the
/// profile's junk share at default settings.
pub fn sample_answer<R: Rng + ?Sized>(
    rng: &mut R,
    confidence: f64,
    junk_mass: f64,
    params: &SamplerParams,
) -> AnswerToken {
    TokenSampler::new(junk_mass, params).sample(rng, confidence)
}

/// [`sample_answer`] with what the model's junk mass and the sampler
/// settings fix computed once: the inverse temperature and the tempered
/// junk weight. Only the intent and flip weights depend on the question.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TokenSampler {
    junk_mass: f64,
    inv_temperature: f64,
    w_junk: f64,
    top_p: f64,
}

impl TokenSampler {
    pub(crate) fn new(junk_mass: f64, params: &SamplerParams) -> TokenSampler {
        // Temperature rescaling: p^(1/T), renormalized.
        let t = params.temperature.clamp(0.05, 2.0);
        TokenSampler {
            junk_mass,
            inv_temperature: 1.0 / t,
            w_junk: junk_mass.max(1e-9).powf(1.0 / t),
            top_p: params.top_p,
        }
    }

    /// Samples one answer token at a confidence (see [`sample_answer`]).
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R, confidence: f64) -> AnswerToken {
        // Base (T=1) probabilities.
        let conf = confidence.clamp(0.0, 1.0);
        let q = 0.5 + 0.5 * conf; // belief assigned to the intent token
        let p_intent = q * (1.0 - self.junk_mass);
        let p_flip = (1.0 - q) * (1.0 - self.junk_mass);
        let w_intent = p_intent.max(1e-12).powf(self.inv_temperature);
        let w_flip = p_flip.max(1e-12).powf(self.inv_temperature);

        // Nucleus truncation over the three buckets, largest first.
        let mut buckets = [
            (AnswerToken::Intent, w_intent),
            (AnswerToken::Flip, w_flip),
            (AnswerToken::Junk, self.w_junk),
        ];
        buckets.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite weights"));
        let total: f64 = buckets.iter().map(|b| b.1).sum();
        let mut kept = 0usize;
        let mut mass = 0.0;
        for (i, b) in buckets.iter().enumerate() {
            mass += b.1 / total;
            kept = i + 1;
            if mass >= self.top_p {
                break;
            }
        }
        let kept_total: f64 = buckets[..kept].iter().map(|b| b.1).sum();
        let mut draw: f64 = rng.random::<f64>() * kept_total;
        for b in &buckets[..kept] {
            if draw < b.1 {
                return b.0;
            }
            draw -= b.1;
        }
        buckets[kept - 1].0
    }
}

/// Converts a calibrated correctness margin into a confidence value for the
/// sampler (larger margins → sharper answers).
pub fn margin_confidence(margin: f64) -> f64 {
    // A steep sigmoid: answers are confident except within a hair of the
    // decision boundary, so default-temperature sampling follows the
    // calibrated intent almost always (residual flip rate ~1%).
    (2.0 * sigmoid(30.0 * margin.abs()) - 1.0).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbhd_types::rng::rng_from;

    fn frequency(confidence: f64, junk: f64, params: SamplerParams, n: usize) -> (f64, f64, f64) {
        let mut rng = rng_from(42);
        let mut counts = [0usize; 3];
        for _ in 0..n {
            match sample_answer(&mut rng, confidence, junk, &params) {
                AnswerToken::Intent => counts[0] += 1,
                AnswerToken::Flip => counts[1] += 1,
                AnswerToken::Junk => counts[2] += 1,
            }
        }
        (
            counts[0] as f64 / n as f64,
            counts[1] as f64 / n as f64,
            counts[2] as f64 / n as f64,
        )
    }

    #[test]
    fn confident_answers_mostly_follow_intent() {
        let (intent, _, junk) = frequency(0.95, 0.01, SamplerParams::default(), 5000);
        assert!(intent > 0.93, "intent rate {intent}");
        assert!(junk < 0.03, "junk rate {junk}");
    }

    #[test]
    fn low_temperature_is_nearly_deterministic() {
        let params = SamplerParams {
            temperature: 0.1,
            top_p: 0.95,
        };
        let (intent, flip, junk) = frequency(0.6, 0.02, params, 5000);
        assert!(intent > 0.995, "intent {intent} flip {flip} junk {junk}");
    }

    #[test]
    fn high_temperature_increases_junk_and_flips() {
        let default = frequency(0.8, 0.02, SamplerParams::default(), 8000);
        let hot = frequency(
            0.8,
            0.02,
            SamplerParams {
                temperature: 1.8,
                top_p: 0.95,
            },
            8000,
        );
        assert!(
            hot.2 > default.2,
            "junk: hot {} vs default {}",
            hot.2,
            default.2
        );
        assert!(
            hot.1 > default.1,
            "flips: hot {} vs default {}",
            hot.1,
            default.1
        );
    }

    #[test]
    fn tight_top_p_truncates_junk_entirely() {
        let params = SamplerParams {
            temperature: 1.0,
            top_p: 0.5,
        };
        let (_, _, junk) = frequency(0.7, 0.05, params, 4000);
        assert_eq!(junk, 0.0);
    }

    #[test]
    fn rigidity_drive_is_zero_at_defaults() {
        assert_eq!(SamplerParams::default().rigidity_drive(), 0.0);
        let cold = SamplerParams {
            temperature: 0.1,
            top_p: 0.95,
        };
        assert!(cold.rigidity_drive() > 0.85);
        let narrow = SamplerParams {
            temperature: 1.0,
            top_p: 0.5,
        };
        assert!(narrow.rigidity_drive() > 0.4);
    }

    #[test]
    fn params_validate() {
        assert!(SamplerParams::new(0.0, 0.95).is_err());
        assert!(SamplerParams::new(2.5, 0.95).is_err());
        assert!(SamplerParams::new(1.0, 0.0).is_err());
        assert!(SamplerParams::new(1.5, 0.95).is_ok());
    }

    #[test]
    fn margin_confidence_monotone() {
        assert!(margin_confidence(0.0) < 0.05);
        assert!(margin_confidence(0.1) < margin_confidence(0.3));
        assert!(margin_confidence(1.0) > 0.95);
    }
}
