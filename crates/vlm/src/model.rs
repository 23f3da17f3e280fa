//! The simulated vision-language model: profile + evidence + sampler.

use std::sync::OnceLock;

use nbhd_prompt::{Language, Prompt, PromptMessage, PromptMode};
use nbhd_types::rng::{child_seed, indexed_seed, rng_from};
use nbhd_types::{Indicator, IndicatorMap};
use rand::rngs::StdRng;
use rand::Rng;

use crate::evidence::Copula;
use crate::sampler::TokenSampler;
use crate::{
    margin_confidence, AnswerToken, ImageContext, ModelProfile, SamplerParams,
    DEFAULT_SHARED_FRACTION,
};

/// Coupling strength between scene visibility and effective sensitivity.
const VISIBILITY_COUPLING: f64 = 0.15;
/// Centering constant: measured mean visibility of present indicators
/// across survey scenes (see `nbhd-scene`'s evidence probe).
const VISIBILITY_MEAN: f64 = 0.64;
/// Coupling strength between distractor evidence and effective specificity.
const DISTRACTOR_COUPLING: f64 = 0.15;
/// Centering constant: measured mean distractor evidence of absent
/// indicators across survey scenes.
const DISTRACTOR_MEAN: f64 = 0.15;
/// Compensation for residual sampler losses at default settings. Junk
/// tokens parse as "No", which only costs *sensitivity* (a junk answer to
/// an absent question is correct), so the present side is compensated more.
const SENSITIVITY_COMPENSATION: f64 = 0.012;
const SPECIFICITY_COMPENSATION: f64 = 0.002;

/// The prompt modes, in plan-slot order.
const MODES: [PromptMode; 2] = [PromptMode::Parallel, PromptMode::Sequential];

/// One plan per (language, mode) pair.
const PLANS: usize = Language::ALL.len() * MODES.len();

/// A runnable simulated model.
///
/// A request pays only for what depends on its image. Everything that
/// depends on the model, the prompt's language and mode, and the sampler
/// settings alone is computed once and shared by every request and every
/// executor worker:
///
/// - at construction, the model's copula seed and mixing weights, and per
///   (language, mode) the clamped sensitivity and specificity of each
///   class;
/// - on the first request with a new (language, mode, temperature,
///   top-p), the seed its messages draw from, its format-echo probability
///   and its tempered junk-token weight. They are memoized in a list that
///   workers read without taking a lock.
///
/// Each value is the one the per-request path used to recompute, from the
/// same inputs in the same floating-point order, so every response is
/// byte-identical to recomputing it.
///
/// # Examples
///
/// ```
/// use nbhd_geo::{RoadClass, Zoning};
/// use nbhd_prompt::{Language, Prompt, PromptMode};
/// use nbhd_scene::{SceneGenerator, ViewKind};
/// use nbhd_types::{Heading, ImageId, LocationId};
/// use nbhd_vlm::{gemini_15_pro, ImageContext, SamplerParams, VisionModel};
///
/// let spec = SceneGenerator::new(3).compose_raw(
///     ImageId::new(LocationId(0), Heading::North),
///     Zoning::Urban,
///     RoadClass::Multilane,
///     ViewKind::AlongRoad,
/// );
/// let ctx = ImageContext::from_scene(&spec, 3);
/// let model = VisionModel::new(gemini_15_pro(), 3);
/// let prompt = Prompt::build(Language::English, PromptMode::Parallel);
/// let responses = model.respond(&ctx, &prompt, &SamplerParams::default());
/// assert_eq!(responses.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct VisionModel {
    profile: ModelProfile,
    survey_seed: u64,
    copula: Copula,
    plans: [Plan; PLANS],
}

/// What one (language, mode) pair fixes for every request.
#[derive(Debug, Clone)]
struct Plan {
    /// Per class: the clamped language sensitivity times the prompt-mode
    /// structure factor.
    sensitivity: IndicatorMap<f64>,
    /// Per class: the clamped language specificity.
    specificity: IndicatorMap<f64>,
    /// What each sampler setting fixes, memoized.
    settings: SettingMemo,
}

impl Plan {
    fn new(profile: &ModelProfile, language: Language, mode: PromptMode) -> Plan {
        let structure = if mode == PromptMode::Sequential {
            profile.sequential_factor
        } else {
            1.0
        };
        Plan {
            sensitivity: IndicatorMap::from_fn(|ind| {
                profile.sensitivity(ind, language) * structure
            }),
            specificity: IndicatorMap::from_fn(|ind| profile.specificity(ind, language)),
            settings: SettingMemo::default(),
        }
    }

    /// The calibrated decision for one question (see [`VisionModel::decide`]).
    fn decide(&self, copula: &Copula, ctx: &ImageContext, ind: Indicator) -> (bool, f64) {
        let ev = ctx.evidence[ind];
        let u = copula.draw(ctx, ind);
        if ctx.presence.contains(ind) {
            let s_eff = (self.sensitivity[ind]
                + VISIBILITY_COUPLING * (ev.visibility as f64 - VISIBILITY_MEAN)
                + SENSITIVITY_COMPENSATION)
                .clamp(0.01, 0.995);
            (u < s_eff, s_eff - u)
        } else {
            let f_eff = (self.specificity[ind]
                - DISTRACTOR_COUPLING * (ev.distractor as f64 - DISTRACTOR_MEAN)
                + SPECIFICITY_COMPENSATION)
                .clamp(0.01, 0.995);
            (u > f_eff, u - f_eff)
        }
    }
}

/// What one sampler setting fixes for every request of a (language,
/// mode) pair.
#[derive(Debug, Clone, Copy)]
struct Setting {
    /// The seed every message draws its RNG from.
    message_seed: u64,
    /// The probability of echoing the instruction's example pattern.
    rigidity: f64,
    sampler: TokenSampler,
}

/// An append-only list from sampler settings, as `(temperature, top_p)`
/// bits, to their [`Setting`]. Each node is published once through a
/// `OnceLock`, and readers only load, so workers never wait on each other
/// once a setting has been seen. Every caller walks the same list from the
/// head and appends only at its end, so a setting is computed at most once.
#[derive(Debug, Clone, Default)]
struct SettingMemo {
    head: OnceLock<Box<SettingNode>>,
}

#[derive(Debug, Clone)]
struct SettingNode {
    key: (u64, u64),
    setting: Setting,
    next: OnceLock<Box<SettingNode>>,
}

impl SettingMemo {
    fn get_or_insert(&self, key: (u64, u64), compute: impl Fn() -> Setting) -> &Setting {
        let mut link = &self.head;
        loop {
            let node = link.get_or_init(|| {
                Box::new(SettingNode {
                    key,
                    setting: compute(),
                    next: OnceLock::new(),
                })
            });
            if node.key == key {
                return &node.setting;
            }
            link = &node.next;
        }
    }
}

/// The plan slot of a (language, mode) pair.
fn slot(language: Language, mode: PromptMode) -> usize {
    let lang = Language::ALL
        .iter()
        .position(|&l| l == language)
        .expect("Language::ALL lists every language");
    let mode = MODES
        .iter()
        .position(|&m| m == mode)
        .expect("MODES lists every prompt mode");
    lang * MODES.len() + mode
}

impl VisionModel {
    /// Creates a model bound to a survey seed.
    pub fn new(profile: ModelProfile, survey_seed: u64) -> VisionModel {
        let plans = std::array::from_fn(|i| {
            Plan::new(
                &profile,
                Language::ALL[i / MODES.len()],
                MODES[i % MODES.len()],
            )
        });
        VisionModel {
            copula: Copula::new(
                child_seed(survey_seed, &profile.name),
                DEFAULT_SHARED_FRACTION,
            ),
            profile,
            survey_seed,
            plans,
        }
    }

    /// Overrides the cross-model error-correlation fraction (for the
    /// voting-gain ablation).
    #[must_use]
    pub fn with_shared_fraction(mut self, alpha: f64) -> VisionModel {
        self.copula = Copula::new(child_seed(self.survey_seed, &self.profile.name), alpha);
        self
    }

    /// The model's profile.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// The model's display name.
    pub fn name(&self) -> &str {
        &self.profile.name
    }

    /// Produces one raw text response per prompt message.
    pub fn respond(
        &self,
        ctx: &ImageContext,
        prompt: &Prompt,
        params: &SamplerParams,
    ) -> Vec<String> {
        let plan = &self.plans[slot(prompt.language, prompt.mode)];
        let key = (params.temperature.to_bits(), params.top_p.to_bits());
        let setting = plan
            .settings
            .get_or_insert(key, || self.setting(prompt, params));
        prompt
            .messages
            .iter()
            .enumerate()
            .map(|(msg_idx, message)| {
                let mut rng = rng_from(indexed_seed(
                    setting.message_seed,
                    ctx.image
                        .key()
                        .wrapping_mul(31)
                        .wrapping_add(msg_idx as u64),
                ));
                self.render_message(plan, setting, ctx, prompt.language, message, &mut rng)
            })
            .collect()
    }

    /// What a (language, mode, sampler setting) fixes. Settings that print
    /// alike at three decimals share a message seed.
    fn setting(&self, prompt: &Prompt, params: &SamplerParams) -> Setting {
        let model_seed = child_seed(
            child_seed(self.survey_seed, "vlm"),
            &format!(
                "{}/{}/{:?}/t{:.3}/p{:.3}",
                self.profile.name,
                prompt.language.tag(),
                prompt.mode,
                params.temperature,
                params.top_p
            ),
        );
        Setting {
            message_seed: child_seed(model_seed, "message"),
            rigidity: self.profile.rigidity * params.rigidity_drive(),
            sampler: TokenSampler::new(self.profile.junk_mass, params),
        }
    }

    fn render_message(
        &self,
        plan: &Plan,
        setting: &Setting,
        ctx: &ImageContext,
        language: Language,
        message: &PromptMessage,
        rng: &mut StdRng,
    ) -> String {
        // Format rigidity: at aggressive decoding settings the model may
        // echo the instruction's example answer pattern verbatim.
        if setting.rigidity > 0.0 && rng.random_bool(setting.rigidity.min(1.0)) {
            return format_echo(language, message.questions.len());
        }

        let mut text = String::with_capacity(12 * message.questions.len());
        for (i, &ind) in message.questions.iter().enumerate() {
            let (intent_yes, margin) = plan.decide(&self.copula, ctx, ind);
            let token = setting.sampler.sample(rng, margin_confidence(margin));
            let part = match token {
                AnswerToken::Intent => answer_word(language, intent_yes),
                AnswerToken::Flip => answer_word(language, !intent_yes),
                AnswerToken::Junk => junk_phrase(language, rng),
            };
            if i > 0 {
                text.push_str(", ");
            }
            text.push_str(part);
            // occasional verbose English phrasing
            if language == Language::English
                && token != AnswerToken::Junk
                && rng.random_bool(self.profile.verbosity)
            {
                let polarity = if part == "Yes" { "is" } else { "is not" };
                for piece in [" — there ", polarity, " a ", noun(ind), " visible"] {
                    text.push_str(piece);
                }
            }
        }
        text
    }

    /// The calibrated yes/no decision for one question: the latent intent
    /// and the (signed) correctness margin driving answer confidence.
    pub fn decide(
        &self,
        ctx: &ImageContext,
        ind: Indicator,
        language: Language,
        mode: PromptMode,
    ) -> (bool, f64) {
        self.plans[slot(language, mode)].decide(&self.copula, ctx, ind)
    }
}

/// The canonical answer word for a language.
fn answer_word(language: Language, yes: bool) -> &'static str {
    if yes {
        language.yes_word()
    } else {
        language.no_word()
    }
}

/// A non-answer the parser cannot map to yes/no.
fn junk_phrase<R: Rng + ?Sized>(language: Language, rng: &mut R) -> &'static str {
    let options: &[&str] = match language {
        Language::English => &[
            "unclear from this angle",
            "I cannot determine that",
            "possibly",
        ],
        Language::Spanish => &["posiblemente", "incierto"],
        Language::Chinese => &["不确定", "难以判断"],
        Language::Bengali => &["অনিশ্চিত", "বলা কঠিন"],
    };
    options[rng.random_range(0..options.len())]
}

/// The instruction's literal example pattern (Yes, No, No, Yes, No, Yes),
/// truncated/extended to the expected answer count.
fn format_echo(language: Language, n: usize) -> String {
    const PATTERN: [bool; 6] = [true, false, false, true, false, true];
    (0..n)
        .map(|i| answer_word(language, PATTERN[i % PATTERN.len()]))
        .collect::<Vec<_>>()
        .join(", ")
}

/// A short English noun for verbose answers.
fn noun(ind: Indicator) -> &'static str {
    match ind {
        Indicator::Streetlight => "streetlight",
        Indicator::Sidewalk => "sidewalk",
        Indicator::SingleLaneRoad => "single-lane road",
        Indicator::MultilaneRoad => "multi-lane road",
        Indicator::Powerline => "power line",
        Indicator::Apartment => "apartment building",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gemini_15_pro, paper_models};
    use nbhd_geo::{RoadClass, Zoning};
    use nbhd_prompt::parse_response;
    use nbhd_scene::{SceneGenerator, ViewKind};
    use nbhd_types::{Heading, ImageId, IndicatorSet, LocationId};

    fn ctx(loc: u64) -> ImageContext {
        let zone = [Zoning::Urban, Zoning::Suburban, Zoning::Rural][(loc % 3) as usize];
        let class = if loc.is_multiple_of(2) {
            RoadClass::Multilane
        } else {
            RoadClass::SingleLane
        };
        let view = if loc.is_multiple_of(4) {
            ViewKind::AcrossRoad
        } else {
            ViewKind::AlongRoad
        };
        let spec = SceneGenerator::new(7).compose_raw(
            ImageId::new(LocationId(loc), Heading::North),
            zone,
            class,
            view,
        );
        ImageContext::from_scene(&spec, 7)
    }

    #[test]
    fn each_setting_is_computed_once_even_from_racing_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let memo = SettingMemo::default();
        let computed = AtomicUsize::new(0);
        let setting = |seed: u64| Setting {
            message_seed: seed,
            rigidity: 0.0,
            sampler: TokenSampler::new(0.01, &SamplerParams::default()),
        };
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let (memo, computed) = (&memo, &computed);
                scope.spawn(move || {
                    for k in 0..64u64 {
                        let key = ((k + t * 3) % 8, 0);
                        let got = memo.get_or_insert(key, || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            setting(key.0 * 10)
                        });
                        assert_eq!(got.message_seed, key.0 * 10);
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn settings_that_print_alike_share_a_message_seed() {
        let model = VisionModel::new(gemini_15_pro(), 7);
        let prompt = Prompt::build(Language::Spanish, PromptMode::Sequential);
        let a = SamplerParams {
            temperature: 0.7,
            top_p: 0.9,
        };
        let b = SamplerParams {
            temperature: 0.700_000_1,
            top_p: 0.899_999_9,
        };
        assert_ne!(a, b);
        let seed = |p: &SamplerParams| model.setting(&prompt, p).message_seed;
        assert_eq!(seed(&a), seed(&b));
        let c = SamplerParams {
            temperature: 0.701,
            top_p: 0.9,
        };
        assert_ne!(seed(&a), seed(&c));
    }

    #[test]
    fn responses_are_deterministic() {
        let model = VisionModel::new(gemini_15_pro(), 7);
        let prompt = Prompt::build(Language::English, PromptMode::Parallel);
        let c = ctx(1);
        let a = model.respond(&c, &prompt, &SamplerParams::default());
        let b = model.respond(&c, &prompt, &SamplerParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn responds_for_image_keys_near_the_top_of_the_range() {
        // the per-message seed key wraps instead of overflowing
        let model = VisionModel::new(gemini_15_pro(), 7);
        let prompt = Prompt::build(Language::Bengali, PromptMode::Sequential);
        let c = ctx(1 << 61);
        let a = model.respond(&c, &prompt, &SamplerParams::default());
        assert_eq!(a.len(), prompt.messages.len());
        assert_eq!(a, model.respond(&c, &prompt, &SamplerParams::default()));
    }

    #[test]
    fn parallel_responses_usually_parse_completely() {
        let model = VisionModel::new(gemini_15_pro(), 7);
        let prompt = Prompt::build(Language::English, PromptMode::Parallel);
        let mut complete = 0usize;
        for loc in 0..100 {
            let responses = model.respond(&ctx(loc), &prompt, &SamplerParams::default());
            let parsed = parse_response(&responses[0], Language::English, 6);
            complete += usize::from(parsed.is_complete());
        }
        assert!(complete >= 85, "only {complete}/100 parsed completely");
    }

    #[test]
    fn accuracy_is_near_calibration_target() {
        // Gemini's paper-average accuracy is 0.88; the simulated model
        // should land within a few points over a decent sample.
        let model = VisionModel::new(gemini_15_pro(), 7);
        let prompt = Prompt::build(Language::English, PromptMode::Parallel);
        let mut correct = 0usize;
        let mut total = 0usize;
        for loc in 0..400 {
            let c = ctx(loc);
            let responses = model.respond(&c, &prompt, &SamplerParams::default());
            let parsed = parse_response(&responses[0], Language::English, 6);
            let predicted = parsed.to_presence(&prompt.question_order());
            for ind in Indicator::ALL {
                total += 1;
                correct += usize::from(predicted.contains(ind) == c.presence.contains(ind));
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(
            (acc - 0.88).abs() < 0.05,
            "accuracy {acc:.3} vs target 0.88"
        );
    }

    #[test]
    fn sequential_mode_loses_recall() {
        let model = VisionModel::new(gemini_15_pro(), 7);
        let count_hits = |mode: PromptMode| {
            let prompt = Prompt::build(Language::English, mode);
            let mut hits = 0usize;
            let mut positives = 0usize;
            for loc in 0..300 {
                let c = ctx(loc);
                let responses = model.respond(&c, &prompt, &SamplerParams::default());
                let mut answers = Vec::new();
                for (r, m) in responses.iter().zip(&prompt.messages) {
                    answers.extend(parse_response(r, Language::English, m.questions.len()).answers);
                }
                for (ind, ans) in prompt.question_order().iter().zip(answers) {
                    if c.presence.contains(*ind) {
                        positives += 1;
                        hits += usize::from(ans == Some(true));
                    }
                }
            }
            hits as f64 / positives as f64
        };
        let parallel = count_hits(PromptMode::Parallel);
        let sequential = count_hits(PromptMode::Sequential);
        assert!(
            parallel > sequential + 0.04,
            "parallel recall {parallel:.3} should clearly beat sequential {sequential:.3}"
        );
    }

    #[test]
    fn chinese_prompts_miss_sidewalks() {
        let model = VisionModel::new(gemini_15_pro(), 7);
        let prompt = Prompt::build(Language::Chinese, PromptMode::Parallel);
        let mut hits = 0usize;
        let mut positives = 0usize;
        for loc in 0..600 {
            let c = ctx(loc);
            if !c.presence.contains(Indicator::Sidewalk) {
                continue;
            }
            positives += 1;
            let responses = model.respond(&c, &prompt, &SamplerParams::default());
            let parsed = parse_response(&responses[0], Language::Chinese, 6);
            let predicted = parsed.to_presence(&prompt.question_order());
            hits += usize::from(predicted.contains(Indicator::Sidewalk));
        }
        assert!(
            positives > 50,
            "need sidewalk-positive scenes, got {positives}"
        );
        let recall = hits as f64 / positives as f64;
        assert!(
            recall < 0.10,
            "zh sidewalk recall {recall:.3} should collapse"
        );
    }

    #[test]
    fn low_temperature_triggers_format_echo() {
        let model = VisionModel::new(crate::grok_2(), 7);
        let prompt = Prompt::build(Language::English, PromptMode::Parallel);
        let cold = SamplerParams {
            temperature: 0.1,
            top_p: 0.95,
        };
        let echo = format_echo(Language::English, 6);
        let mut echoes = 0usize;
        for loc in 0..400 {
            let responses = model.respond(&ctx(loc), &prompt, &cold);
            echoes += usize::from(responses[0] == echo);
        }
        // grok rigidity 0.12 at full drive ~0.9 -> ~10% of responses
        assert!(
            (15..=80).contains(&echoes),
            "expected ~40/400 echoes, got {echoes}"
        );
        // and none at the default settings
        let mut at_default = 0usize;
        for loc in 0..200 {
            let responses = model.respond(&ctx(loc), &prompt, &SamplerParams::default());
            at_default += usize::from(responses[0] == echo);
        }
        assert!(at_default <= 2, "format echo at defaults: {at_default}");
    }

    #[test]
    fn models_disagree_but_not_always() {
        let models: Vec<VisionModel> = paper_models()
            .into_iter()
            .map(|p| VisionModel::new(p, 7))
            .collect();
        let prompt = Prompt::build(Language::English, PromptMode::Parallel);
        let mut identical = 0usize;
        for loc in 0..100 {
            let c = ctx(loc);
            let sets: Vec<IndicatorSet> = models
                .iter()
                .map(|m| {
                    let r = m.respond(&c, &prompt, &SamplerParams::default());
                    parse_response(&r[0], Language::English, 6)
                        .to_presence(&prompt.question_order())
                })
                .collect();
            if sets.windows(2).all(|w| w[0] == w[1]) {
                identical += 1;
            }
        }
        assert!(
            identical > 5,
            "correlated errors should align models sometimes"
        );
        assert!(identical < 95, "models must not be clones");
    }
}
