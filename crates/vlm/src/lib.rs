//! Mechanistic simulated vision-language models — the workspace's stand-in
//! for ChatGPT 4o mini, Gemini 1.5 Pro, Claude 3.7, and Grok 2 (see
//! DESIGN.md §2 and §6 for the substitution and calibration arguments).
//!
//! Each [`ModelProfile`] carries per-class sensitivities/specificities
//! derived from the paper's Tables III–VI, language proficiency tables,
//! a sequential-prompting penalty, and token habits. A [`VisionModel`]
//! combines a profile with the per-image evidence model ([`ImageContext`],
//! Gaussian-copula correlated across models) and a token sampler with
//! real temperature / top-p semantics, producing *raw text responses* that
//! downstream code must parse like any real API output.
//!
//! # Examples
//!
//! ```
//! use nbhd_geo::{RoadClass, Zoning};
//! use nbhd_prompt::{parse_response, Language, Prompt, PromptMode};
//! use nbhd_scene::{SceneGenerator, ViewKind};
//! use nbhd_types::{Heading, ImageId, LocationId};
//! use nbhd_vlm::{paper_models, ImageContext, SamplerParams, VisionModel};
//!
//! let spec = SceneGenerator::new(1).compose_raw(
//!     ImageId::new(LocationId(0), Heading::North),
//!     Zoning::Urban,
//!     RoadClass::Multilane,
//!     ViewKind::AlongRoad,
//! );
//! let ctx = ImageContext::from_scene(&spec, 1);
//! let prompt = Prompt::build(Language::English, PromptMode::Parallel);
//! for profile in paper_models() {
//!     let model = VisionModel::new(profile, 1);
//!     let responses = model.respond(&ctx, &prompt, &SamplerParams::default());
//!     let parsed = parse_response(&responses[0], prompt.language, 6);
//!     println!("{}: {:?}", model.name(), parsed.answers);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod evidence;
mod finetune;
mod model;
mod profile;
mod sampler;

pub use evidence::{mixed_difficulty, ImageContext, DEFAULT_SHARED_FRACTION};
pub use finetune::{adapt_profile, CalibrationExample, PRIOR_STRENGTH};
pub use model::VisionModel;
pub use profile::{
    chatgpt_4o_mini, claude_37, gemini_15_pro, grok_2, paper_models, voting_models, LanguageSkill,
    ModelProfile, Reliability, PREVALENCE,
};
pub use sampler::{margin_confidence, sample_answer, AnswerToken, SamplerParams};
