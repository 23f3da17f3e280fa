//! The LLM-side survey: query the (simulated) model ensemble about every
//! labeled image and score against ground truth.

use std::collections::BTreeMap;

use nbhd_client::{Ensemble, EnsembleOutcome, ExecutorConfig, FaultProfile, ResilienceConfig};
use nbhd_eval::{MetricsTable, PresenceEvaluator};
use nbhd_prompt::{Language, Prompt, PromptMode};
use nbhd_types::{ImageId, IndicatorSet, Result};
use nbhd_vlm::{ModelProfile, SamplerParams};

use crate::SurveyDataset;

/// Configuration of one LLM survey run.
#[derive(Debug, Clone)]
pub struct LlmSurveyConfig {
    /// Prompt language.
    pub language: Language,
    /// Parallel or sequential prompting.
    pub mode: PromptMode,
    /// Sampler parameters.
    pub params: SamplerParams,
    /// Transport fault injection.
    pub faults: FaultProfile,
    /// Executor settings (workers, rate limits, retries, hedging).
    pub executor: ExecutorConfig,
    /// Resilience stack: chaos schedule, circuit breakers, and degraded
    /// voting policy.
    pub resilience: ResilienceConfig,
}

impl Default for LlmSurveyConfig {
    fn default() -> Self {
        LlmSurveyConfig {
            language: Language::English,
            mode: PromptMode::Parallel,
            params: SamplerParams::default(),
            faults: FaultProfile::NONE,
            executor: ExecutorConfig::default(),
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Results of an LLM survey.
#[derive(Debug, Clone)]
pub struct LlmSurveyOutcome {
    /// Ground-truth presence per image, aligned with the batch order.
    pub truth: Vec<IndicatorSet>,
    /// Raw ensemble answers.
    pub ensemble: EnsembleOutcome,
    /// Per-model metric tables (the paper's Tables III–VI shape).
    pub tables: BTreeMap<String, MetricsTable>,
    /// The majority-vote metric table.
    pub voted_table: MetricsTable,
    /// Cost/usage report text.
    pub cost_report: String,
    /// Total simulated dollars spent.
    pub total_usd: f64,
    /// Virtual wall-clock this survey consumed, milliseconds: the
    /// ensemble clock's advance over the survey, whatever it read before.
    pub virtual_ms: u64,
    /// Per-model health (availability, breaker activity, resilience
    /// counters).
    pub health: nbhd_client::HealthReport,
}

/// Runs an LLM survey over a set of images.
///
/// `models` pairs each profile with whether it participates in the vote.
///
/// # Errors
///
/// Propagates imagery-service failures while building contexts.
pub fn run_llm_survey(
    survey: &SurveyDataset,
    models: Vec<(ModelProfile, bool)>,
    ids: &[ImageId],
    config: &LlmSurveyConfig,
) -> Result<LlmSurveyOutcome> {
    run_llm_survey_observed(survey, models, ids, config, &nbhd_obs::Obs::new())
}

/// [`run_llm_survey`] under a caller-supplied observability bundle: the
/// ensemble adopts the bundle's virtual clock, opens a `vote-<model>`
/// span per member batch, and publishes per-model accounting — counters,
/// gauges, and the latency/token histograms — into the bundle's
/// registry. The [`LlmSurveyOutcome`] is identical to a run on a fresh
/// bundle, also when `obs` has run surveys before.
///
/// # Errors
///
/// Propagates imagery-service failures while building contexts.
pub fn run_llm_survey_observed(
    survey: &SurveyDataset,
    models: Vec<(ModelProfile, bool)>,
    ids: &[ImageId],
    config: &LlmSurveyConfig,
    obs: &nbhd_obs::Obs,
) -> Result<LlmSurveyOutcome> {
    let contexts = survey.contexts(ids)?;
    let truth: Vec<IndicatorSet> = contexts.iter().map(|c| c.presence).collect();
    let ensemble = Ensemble::new(
        models,
        survey.config().seed,
        config.faults,
        config.executor.clone(),
    )
    .with_resilience(config.resilience.clone())
    .with_obs(obs.clone());
    let prompt = Prompt::build(config.language, config.mode);
    let started_ms = ensemble.clock().now_ms();
    let outcome = ensemble.survey(&contexts, &prompt, &config.params);

    let mut tables = BTreeMap::new();
    for (name, answers) in &outcome.per_model {
        let mut eval = PresenceEvaluator::new();
        for (pred, t) in answers.presence.iter().zip(&truth) {
            eval.observe(*t, *pred);
        }
        tables.insert(name.clone(), eval.table());
    }
    let mut voted_eval = PresenceEvaluator::new();
    for (pred, t) in outcome.voted.iter().zip(&truth) {
        voted_eval.observe(*t, *pred);
    }

    Ok(LlmSurveyOutcome {
        truth,
        tables,
        voted_table: voted_eval.table(),
        cost_report: ensemble.meter().report(),
        total_usd: ensemble.meter().total_usd(),
        virtual_ms: ensemble.clock().now_ms() - started_ms,
        health: ensemble.health_report(),
        ensemble: outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_lineup, SurveyConfig, SurveyPipeline};
    use nbhd_types::Indicator;

    #[test]
    fn survey_produces_tables_for_every_model() {
        let survey = SurveyPipeline::new(SurveyConfig::smoke(31)).run().unwrap();
        let ids: Vec<ImageId> = survey.images().to_vec();
        let outcome =
            run_llm_survey(&survey, paper_lineup(), &ids, &LlmSurveyConfig::default()).unwrap();
        assert_eq!(outcome.tables.len(), 4);
        assert_eq!(outcome.truth.len(), ids.len());
        assert!(outcome.total_usd > 0.0);
        assert!(outcome.virtual_ms > 0);
        assert!(outcome.cost_report.contains("gemini-1.5-pro"));
        // every table has bounded metrics
        for t in outcome.tables.values() {
            assert!(t.average.accuracy > 0.4 && t.average.accuracy <= 1.0);
        }
        let v = outcome.voted_table.average.accuracy;
        assert!(v > 0.5, "voted accuracy {v}");
    }

    #[test]
    fn observed_survey_matches_plain_and_publishes_latency_hists() {
        let survey = SurveyPipeline::new(SurveyConfig::smoke(31)).run().unwrap();
        let ids: Vec<ImageId> = survey.images().iter().take(10).copied().collect();
        let config = LlmSurveyConfig::default();
        let plain = run_llm_survey(&survey, paper_lineup(), &ids, &config).unwrap();
        let obs = nbhd_obs::Obs::new();
        let observed =
            run_llm_survey_observed(&survey, paper_lineup(), &ids, &config, &obs).unwrap();
        assert_eq!(plain.ensemble.voted, observed.ensemble.voted);
        assert_eq!(plain.truth, observed.truth);
        assert_eq!(plain.virtual_ms, observed.virtual_ms);
        let snap = obs.registry().snapshot();
        let lat = &snap.histograms["client.gemini-1.5-pro.latency_ms"];
        assert_eq!(lat.count(), ids.len() as u64);
        assert!(lat.p50() <= lat.p99());
        assert!(lat.p99() <= lat.max());
        // spans were opened per member batch on the obs tracer
        assert!(obs
            .tracer()
            .spans()
            .iter()
            .any(|s| s.name.starts_with("vote-")));
        // a second survey on the same bundle reports its own virtual time,
        // not the clock's running total
        let again = run_llm_survey_observed(&survey, paper_lineup(), &ids, &config, &obs).unwrap();
        assert_eq!(plain.ensemble.voted, again.ensemble.voted);
        assert_eq!(plain.virtual_ms, again.virtual_ms);
    }

    #[test]
    fn resilience_config_threads_through_to_health() {
        let survey = SurveyPipeline::new(SurveyConfig::smoke(33)).run().unwrap();
        let ids: Vec<ImageId> = survey.images().iter().take(10).copied().collect();
        let config = LlmSurveyConfig {
            resilience: ResilienceConfig {
                breaker: Some(nbhd_client::BreakerConfig::default()),
                ..ResilienceConfig::default()
            },
            ..LlmSurveyConfig::default()
        };
        let outcome = run_llm_survey(
            &survey,
            vec![(nbhd_vlm::gemini_15_pro(), true)],
            &ids,
            &config,
        )
        .unwrap();
        assert_eq!(outcome.health.models.len(), 1);
        // clean transports: fully available, breaker quiet
        assert!((outcome.health.min_availability() - 1.0).abs() < 1e-12);
        assert_eq!(outcome.health.models[0].breaker.transitions, 0);
        assert!(outcome.health.render("Health").contains("gemini-1.5-pro"));
        // the quorum default records provenance for every image
        assert_eq!(outcome.ensemble.provenance.len(), ids.len());
    }

    #[test]
    fn sequential_survey_runs_six_messages() {
        let survey = SurveyPipeline::new(SurveyConfig::smoke(32)).run().unwrap();
        let ids: Vec<ImageId> = survey.images().iter().take(8).copied().collect();
        let config = LlmSurveyConfig {
            mode: PromptMode::Sequential,
            ..LlmSurveyConfig::default()
        };
        let outcome = run_llm_survey(
            &survey,
            vec![(nbhd_vlm::gemini_15_pro(), true)],
            &ids,
            &config,
        )
        .unwrap();
        assert_eq!(outcome.tables.len(), 1);
        // six separate questions per image still produce presence sets
        for p in &outcome.ensemble.per_model["gemini-1.5-pro"].presence {
            for ind in Indicator::ALL {
                let _ = p.contains(ind);
            }
        }
    }
}
