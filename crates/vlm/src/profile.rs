//! Model profiles: per-class reliabilities calibrated to the paper's
//! published confusion tables.
//!
//! For each (model, class) the paper reports recall `r` and accuracy `a`
//! (Tables III–VI). Given the synthetic per-image prevalence `π` of the
//! class, sensitivity and specificity follow directly:
//! `s = r`, `f = (a − s·π) / (1 − π)` — see DESIGN.md §6. Everything else a
//! profile carries (language proficiency, prompt-structure penalty, token
//! habits, pricing) parameterizes *how* those error rates express
//! themselves, not how large they are.

use nbhd_prompt::Language;
use nbhd_types::{Indicator, IndicatorMap};
use serde::{Deserialize, Serialize};

/// The synthetic per-image presence prevalence (canonical order): the
/// measured ground-truth rates of the scene sampler, which track the
/// paper's class balance. The profile calibration inverts the paper's
/// (recall, accuracy) pairs at these rates.
pub const PREVALENCE: [f64; 6] = [0.175, 0.325, 0.305, 0.37, 0.26, 0.10];

/// Sensitivity/specificity for one class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reliability {
    /// P(answer yes | class present).
    pub sensitivity: f64,
    /// P(answer no | class absent).
    pub specificity: f64,
}

impl Reliability {
    /// Derives the reliability from a paper-reported (recall, accuracy)
    /// pair at the given prevalence, clamping to sane probability bounds.
    pub fn from_paper(recall: f64, accuracy: f64, prevalence: f64) -> Reliability {
        let specificity =
            ((accuracy - recall * prevalence) / (1.0 - prevalence)).clamp(0.02, 0.995);
        Reliability {
            sensitivity: recall.clamp(0.02, 0.995),
            specificity,
        }
    }

    /// The accuracy this reliability implies at a prevalence.
    pub fn implied_accuracy(&self, prevalence: f64) -> f64 {
        self.sensitivity * prevalence + self.specificity * (1.0 - prevalence)
    }
}

/// Per-language behaviour modifiers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LanguageSkill {
    /// Multiplier on sensitivity (1.0 = native-level).
    pub sensitivity_factor: f64,
    /// Per-class absolute sensitivity overrides (e.g. the catastrophic
    /// Chinese-sidewalk term-association failure).
    pub overrides: Vec<(Indicator, f64)>,
}

impl LanguageSkill {
    /// Native-level skill.
    pub fn native() -> LanguageSkill {
        LanguageSkill {
            sensitivity_factor: 1.0,
            overrides: Vec::new(),
        }
    }
}

/// A complete simulated vision-language model profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    /// Display name (e.g. `"gemini-1.5-pro"`).
    pub name: String,
    /// Per-class reliabilities under the default (English, parallel) setup.
    pub reliability: IndicatorMap<Reliability>,
    /// Skill per prompt language.
    pub languages: Vec<(Language, LanguageSkill)>,
    /// Multiplier on sensitivity under sequential prompting (< 1: the
    /// model loses recall when questions arrive as follow-ups).
    pub sequential_factor: f64,
    /// Probability mass the sampler reserves for junk tokens at default
    /// temperature (drives parse failures at high temperature).
    pub junk_mass: f64,
    /// Tendency to echo the instruction's literal format example at very
    /// low temperature / top-p (format rigidity).
    pub rigidity: f64,
    /// Probability of a verbose (full-sentence) answer in English.
    pub verbosity: f64,
    /// USD per 1k input tokens (for the cost meter).
    pub usd_per_1k_input: f64,
    /// USD per 1k output tokens.
    pub usd_per_1k_output: f64,
    /// Mean simulated latency per request, milliseconds.
    pub latency_ms: f64,
}

impl ModelProfile {
    /// Looks up the skill for a language (native when unlisted).
    pub fn language_skill(&self, language: Language) -> LanguageSkill {
        self.listed_skill(language)
            .cloned()
            .unwrap_or_else(LanguageSkill::native)
    }

    /// The listed skill for a language, borrowed; `None` means native.
    fn listed_skill(&self, language: Language) -> Option<&LanguageSkill> {
        self.languages
            .iter()
            .find(|(l, _)| *l == language)
            .map(|(_, s)| s)
    }

    /// The effective sensitivity for a class under a language, before
    /// per-image evidence adjustment.
    pub fn sensitivity(&self, ind: Indicator, language: Language) -> f64 {
        let skill = self.listed_skill(language);
        if let Some((_, s)) = skill.and_then(|s| s.overrides.iter().find(|(i, _)| *i == ind)) {
            return *s;
        }
        let factor = skill.map_or(1.0, |s| s.sensitivity_factor);
        (self.reliability[ind].sensitivity * factor).clamp(0.01, 0.995)
    }

    /// The effective specificity for a class under a language. Non-native
    /// languages lose a milder amount of specificity (square-root of the
    /// sensitivity factor).
    pub fn specificity(&self, ind: Indicator, language: Language) -> f64 {
        let factor = self
            .listed_skill(language)
            .map_or(1.0, |s| s.sensitivity_factor);
        (self.reliability[ind].specificity * factor.sqrt()).clamp(0.01, 0.995)
    }
}

/// Builds a reliability map from paper-table `(recall, accuracy)` rows in
/// canonical indicator order.
fn reliability_from_rows(rows: [(f64, f64); 6]) -> IndicatorMap<Reliability> {
    IndicatorMap::from_fn(|ind| {
        let (recall, accuracy) = rows[ind.index()];
        Reliability::from_paper(recall, accuracy, PREVALENCE[ind.index()])
    })
}

/// Generic non-English skills applied to models the paper did not probe
/// multilingually (only Gemini was, see [`gemini_15_pro`]).
fn default_language_table() -> Vec<(Language, LanguageSkill)> {
    vec![
        (Language::English, LanguageSkill::native()),
        (
            Language::Bengali,
            LanguageSkill {
                sensitivity_factor: 0.95,
                overrides: Vec::new(),
            },
        ),
        (
            Language::Spanish,
            LanguageSkill {
                sensitivity_factor: 0.86,
                overrides: Vec::new(),
            },
        ),
        (
            Language::Chinese,
            LanguageSkill {
                sensitivity_factor: 0.78,
                overrides: Vec::new(),
            },
        ),
    ]
}

/// ChatGPT 4o mini, calibrated to Table III (rows: SL, SW, SR, MR, PL, AP).
pub fn chatgpt_4o_mini() -> ModelProfile {
    ModelProfile {
        name: "chatgpt-4o-mini".to_owned(),
        reliability: reliability_from_rows([
            (0.84, 0.85),
            (0.82, 0.82),
            (0.98, 0.67),
            (0.87, 0.94),
            (0.94, 0.91),
            (1.00, 0.84),
        ]),
        languages: default_language_table(),
        sequential_factor: 0.868,
        junk_mass: 0.012,
        rigidity: 0.10,
        verbosity: 0.12,
        usd_per_1k_input: 0.00015,
        usd_per_1k_output: 0.0006,
        latency_ms: 900.0,
    }
}

/// Gemini 1.5 Pro, calibrated to Table IV; its language table reproduces
/// Fig. 6 (en 89.7 > bn 86 > es 76 > zh 69, with the Chinese-sidewalk and
/// Spanish-single-lane collapses).
pub fn gemini_15_pro() -> ModelProfile {
    ModelProfile {
        name: "gemini-1.5-pro".to_owned(),
        reliability: reliability_from_rows([
            (0.96, 0.92),
            (0.59, 0.81),
            (0.89, 0.73),
            (0.98, 0.94),
            (0.96, 0.97),
            (1.00, 0.94),
        ]),
        languages: vec![
            (Language::English, LanguageSkill::native()),
            (
                Language::Bengali,
                LanguageSkill {
                    sensitivity_factor: 0.959,
                    overrides: Vec::new(),
                },
            ),
            (
                Language::Spanish,
                LanguageSkill {
                    sensitivity_factor: 0.93,
                    overrides: vec![(Indicator::SingleLaneRoad, 0.18)],
                },
            ),
            (
                Language::Chinese,
                LanguageSkill {
                    sensitivity_factor: 0.90,
                    overrides: vec![(Indicator::Sidewalk, 0.01)],
                },
            ),
        ],
        sequential_factor: 0.889,
        junk_mass: 0.010,
        rigidity: 0.08,
        verbosity: 0.08,
        usd_per_1k_input: 0.00125,
        usd_per_1k_output: 0.005,
        latency_ms: 1100.0,
    }
}

/// Claude 3.7, calibrated to Table VI.
pub fn claude_37() -> ModelProfile {
    ModelProfile {
        name: "claude-3.7".to_owned(),
        reliability: reliability_from_rows([
            (0.76, 0.91),
            (0.80, 0.80),
            (0.99, 0.70),
            (0.85, 0.93),
            (0.99, 0.89),
            (1.00, 0.93),
        ]),
        languages: default_language_table(),
        sequential_factor: 0.90,
        junk_mass: 0.008,
        rigidity: 0.06,
        verbosity: 0.18,
        usd_per_1k_input: 0.003,
        usd_per_1k_output: 0.015,
        latency_ms: 1300.0,
    }
}

/// Grok 2, calibrated to Table V.
pub fn grok_2() -> ModelProfile {
    ModelProfile {
        name: "grok-2".to_owned(),
        reliability: reliability_from_rows([
            (0.91, 0.91),
            (0.92, 0.87),
            (0.99, 0.55),
            (0.56, 0.82),
            (1.00, 0.94),
            (1.00, 0.96),
        ]),
        languages: default_language_table(),
        sequential_factor: 0.88,
        junk_mass: 0.015,
        rigidity: 0.12,
        verbosity: 0.10,
        usd_per_1k_input: 0.002,
        usd_per_1k_output: 0.01,
        latency_ms: 1000.0,
    }
}

/// The paper's model lineup in the paper's order, each with whether it
/// votes: all four are queried, the top three (Gemini, Claude, Grok)
/// majority-vote.
pub fn paper_lineup() -> Vec<(ModelProfile, bool)> {
    vec![
        (chatgpt_4o_mini(), false),
        (gemini_15_pro(), true),
        (claude_37(), true),
        (grok_2(), true),
    ]
}

/// The four studied models, in the paper's order.
pub fn paper_models() -> Vec<ModelProfile> {
    paper_lineup()
        .into_iter()
        .map(|(profile, _)| profile)
        .collect()
}

/// The top-three models the paper majority-votes (Gemini, Claude, Grok).
pub fn voting_models() -> Vec<ModelProfile> {
    paper_lineup()
        .into_iter()
        .filter_map(|(profile, votes)| votes.then_some(profile))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_inverts_to_paper_accuracy() {
        // spot-check: Gemini sidewalk (recall .59, acc .81, prevalence .34)
        let r = Reliability::from_paper(0.59, 0.81, 0.34);
        assert!((r.implied_accuracy(0.34) - 0.81).abs() < 1e-9);
        assert!((r.sensitivity - 0.59).abs() < 1e-9);
    }

    #[test]
    fn all_profiles_have_sane_reliabilities() {
        for p in paper_models() {
            for ind in Indicator::ALL {
                let r = p.reliability[ind];
                assert!((0.0..=1.0).contains(&r.sensitivity), "{} {ind}", p.name);
                assert!((0.0..=1.0).contains(&r.specificity), "{} {ind}", p.name);
            }
        }
    }

    #[test]
    fn single_lane_specificity_is_everyones_weakness() {
        // the paper's headline LLM failure: everything looks single-lane
        for p in paper_models() {
            let sr = p.reliability[Indicator::SingleLaneRoad].specificity;
            for ind in [
                Indicator::MultilaneRoad,
                Indicator::Powerline,
                Indicator::Apartment,
            ] {
                assert!(
                    sr < p.reliability[ind].specificity,
                    "{}: SR specificity {sr} should be the weakest",
                    p.name
                );
            }
        }
    }

    #[test]
    fn gemini_chinese_sidewalk_collapses() {
        let g = gemini_15_pro();
        let s = g.sensitivity(Indicator::Sidewalk, Language::Chinese);
        assert!(s <= 0.02, "zh sidewalk sensitivity {s}");
        let e = g.sensitivity(Indicator::Sidewalk, Language::English);
        assert!(e > 0.5);
        let sr = g.sensitivity(Indicator::SingleLaneRoad, Language::Spanish);
        assert!((sr - 0.18).abs() < 1e-9);
    }

    #[test]
    fn unlisted_language_is_native() {
        let mut g = gemini_15_pro();
        g.languages.clear();
        assert_eq!(
            g.sensitivity(Indicator::Sidewalk, Language::Chinese),
            g.reliability[Indicator::Sidewalk].sensitivity
        );
    }

    #[test]
    fn voting_models_are_the_papers_top_three() {
        let names: Vec<String> = voting_models().into_iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["gemini-1.5-pro", "claude-3.7", "grok-2"]);
    }

    #[test]
    fn sequential_factor_reduces_recall() {
        for p in paper_models() {
            assert!(p.sequential_factor < 1.0 && p.sequential_factor > 0.5);
        }
    }
}
