//! Golden hashes of the LLM request path: every simulated response string,
//! and a whole fault-injected, breaker-guarded, hedged ensemble survey.
//!
//! The expected values were recorded before the request path's per-batch
//! constants (model seeds, calibrated reliabilities, shared difficulty
//! draws) were hoisted out of the per-request work; any change to a
//! response byte, a vote, a cost bit or a virtual millisecond moves them.

use nbhd::client::{
    BreakerConfig, ExecutorConfig, FaultProfile, FaultRegime, FaultSchedule, HedgePolicy,
    ResilienceConfig,
};
use nbhd::geo::{RoadClass, Zoning};
use nbhd::prelude::*;
use nbhd::scene::ViewKind;
use nbhd_core::{paper_lineup, run_llm_survey, LlmSurveyConfig};

/// FNV-1a, fed field by field with a separator so that concatenations of
/// different splits never collide.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }
}

/// About 40 scene contexts spanning every zoning, road class and view.
fn contexts(seed: u64) -> Vec<ImageContext> {
    let generator = SceneGenerator::new(seed);
    (0..40u64)
        .map(|loc| {
            let zone = [Zoning::Urban, Zoning::Suburban, Zoning::Rural][(loc % 3) as usize];
            let class = [RoadClass::Multilane, RoadClass::SingleLane][(loc / 3 % 2) as usize];
            let view = [ViewKind::AlongRoad, ViewKind::AcrossRoad][(loc / 6 % 2) as usize];
            let heading = Heading::ALL[(loc % 4) as usize];
            let spec = generator.compose_raw(
                ImageId::new(LocationId(loc * 13 + 1), heading),
                zone,
                class,
                view,
            );
            ImageContext::from_scene(&spec, seed)
        })
        .collect()
}

/// The default, a cold and narrow setting (format echoes), a hot one (junk
/// tokens), and one that shares its temperature with the first and its
/// top-p with the second, so a setting is told apart by both values.
const SETTINGS: [SamplerParams; 4] = [
    SamplerParams {
        temperature: 1.0,
        top_p: 0.95,
    },
    SamplerParams {
        temperature: 0.1,
        top_p: 0.5,
    },
    SamplerParams {
        temperature: 1.8,
        top_p: 1.0,
    },
    SamplerParams {
        temperature: 1.0,
        top_p: 0.5,
    },
];

/// Hashes every response of one model over the whole grid.
fn respond_hash(model: &VisionModel, contexts: &[ImageContext]) -> u64 {
    let mut h = Fnv::new();
    for language in Language::ALL {
        for mode in [PromptMode::Parallel, PromptMode::Sequential] {
            let prompt = Prompt::build(language, mode);
            for params in &SETTINGS {
                for ctx in contexts {
                    for text in model.respond(ctx, &prompt, params) {
                        h.bytes(text.as_bytes());
                    }
                }
            }
        }
    }
    h.0
}

const RESPOND_GOLDEN: [(&str, u64); 4] = [
    ("chatgpt-4o-mini", 1_985_839_343_156_896_032),
    ("gemini-1.5-pro", 13_177_881_679_155_148_026),
    ("claude-3.7", 1_410_102_303_701_780_953),
    ("grok-2", 16_693_788_113_635_787_348),
];

#[test]
fn every_response_string_matches_its_golden_hash() {
    let contexts = contexts(2024);
    let got: Vec<(String, u64)> = paper_models()
        .into_iter()
        .map(|profile| {
            let model = VisionModel::new(profile, 2024);
            (model.name().to_owned(), respond_hash(&model, &contexts))
        })
        .collect();
    let want: Vec<(String, u64)> = RESPOND_GOLDEN
        .iter()
        .map(|&(name, hash)| (name.to_owned(), hash))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn a_model_shared_by_four_threads_answers_as_it_does_serially() {
    let contexts = contexts(99);
    let model = VisionModel::new(nbhd::vlm::claude_37(), 99);
    let prompts: Vec<Prompt> = Language::ALL
        .into_iter()
        .flat_map(|l| [PromptMode::Parallel, PromptMode::Sequential].map(|m| Prompt::build(l, m)))
        .collect();
    let tasks: Vec<(usize, usize, usize)> = (0..prompts.len())
        .flat_map(|p| (0..SETTINGS.len()).map(move |s| (p, s)))
        .flat_map(|(p, s)| (0..contexts.len()).map(move |c| (p, s, c)))
        .collect();
    // each caller walks the task list from its own starting point, so the
    // threads ask for different languages, modes and settings at once
    let answer_all = |offset: usize| -> Vec<Vec<String>> {
        let mut out = vec![Vec::new(); tasks.len()];
        for k in 0..tasks.len() {
            let i = (k + offset) % tasks.len();
            let (p, s, c) = tasks[i];
            out[i] = model.respond(&contexts[c], &prompts[p], &SETTINGS[s]);
        }
        out
    };
    let serial = answer_all(0);
    let (answer_all, quarter) = (&answer_all, tasks.len() / 4);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| scope.spawn(move || answer_all(t * quarter)))
            .collect();
        for handle in handles {
            assert!(handle.join().unwrap() == serial, "threaded answers differ");
        }
    });
}

/// A 60-location survey voted under flaky transports, per-model breakers,
/// a 1.8 s hedge, a rate-limit storm on Claude and an outage of Grok.
fn survey_fingerprint() -> (u64, String) {
    let survey = SurveyPipeline::new(SurveyConfig {
        locations: 60,
        image_size: 64,
        parallelism: Parallelism::serial(),
        ..SurveyConfig::smoke(2025)
    })
    .run()
    .expect("survey pipeline");
    let ids: Vec<ImageId> = survey.images().to_vec();
    let config = LlmSurveyConfig {
        faults: FaultProfile::FLAKY,
        executor: ExecutorConfig {
            hedge: Some(HedgePolicy::after_ms(1_800)),
            parallelism: Parallelism::serial(),
            ..ExecutorConfig::default()
        },
        resilience: ResilienceConfig {
            breaker: Some(BreakerConfig::default()),
            schedule: FaultSchedule::new()
                .with(
                    FaultRegime::rate_limit_storm(660_000, 700_000, 0.5, 800)
                        .for_models(&["claude-3.7"]),
                )
                .with(FaultRegime::outage(810_000, 840_000).for_models(&["grok-2"])),
            ..ResilienceConfig::default()
        },
        ..LlmSurveyConfig::default()
    };
    let outcome = run_llm_survey(&survey, paper_lineup(), &ids, &config).expect("llm survey");
    let mut h = Fnv::new();
    for set in &outcome.ensemble.voted {
        h.u64(u64::from(set.bits()));
    }
    for (name, answers) in &outcome.ensemble.per_model {
        h.bytes(name.as_bytes());
        for (set, responded) in answers.presence.iter().zip(&answers.responded) {
            h.u64(u64::from(set.bits()) | u64::from(*responded) << 8);
        }
    }
    h.u64(outcome.total_usd.to_bits());
    h.u64(outcome.virtual_ms);
    h.bytes(outcome.cost_report.as_bytes());
    h.bytes(format!("{:?}", outcome.health).as_bytes());
    let summary = format!(
        "{} images, virtual {} ms, usd {}, health {:?}",
        ids.len(),
        outcome.virtual_ms,
        outcome.total_usd,
        outcome
            .health
            .models
            .iter()
            .map(|m| (m.model.clone(), m.breaker.edges))
            .collect::<Vec<_>>()
    );
    (h.0, summary)
}

/// Recorded with 240 images, 829,322 virtual ms, and the Claude and Grok
/// breakers each opened once.
const SURVEY_GOLDEN: u64 = 6_555_474_873_602_208_844;

#[test]
fn a_faulted_hedged_survey_matches_its_golden_hash() {
    let (hash, summary) = survey_fingerprint();
    assert_eq!(hash, SURVEY_GOLDEN, "{summary}");
}
