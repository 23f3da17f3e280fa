//! End-to-end integration: the whole reproduction pipeline at smoke scale.

use nbhd::prelude::*;
use nbhd_core::{train_baseline, AugmentationPolicy, LlmSurveyConfig};

#[test]
fn survey_to_detector_to_llms() {
    // 1. data collection
    let survey = SurveyPipeline::new(SurveyConfig::smoke(1001))
        .run()
        .unwrap();
    let n = survey.images().len();
    assert!(n >= 80, "smoke survey too small: {n}");
    let split = survey.dataset().split();
    assert!(!split.train.is_empty() && !split.val.is_empty() && !split.test.is_empty());

    // 2. supervised baseline
    let trainer = Trainer::new(
        TrainConfig {
            epochs: 6,
            hard_negative_rounds: 1,
            ..TrainConfig::default()
        },
        DetectorConfig {
            shrink: 4,
            ..DetectorConfig::default()
        },
    );
    let outcome = train_baseline(&survey, &trainer, AugmentationPolicy::None).unwrap();
    assert!(
        outcome.report.map50 > 0.05,
        "mAP50 {:.3}",
        outcome.report.map50
    );

    // 3. LLM survey over the same images
    let ids: Vec<ImageId> = survey.images().to_vec();
    let llm = nbhd_core::run_llm_survey(
        &survey,
        nbhd_core::paper_lineup(),
        &ids,
        &LlmSurveyConfig::default(),
    )
    .unwrap();
    assert_eq!(llm.truth.len(), n);
    // every simulated model lands in a plausible accuracy band
    for (name, table) in &llm.tables {
        let acc = table.average.accuracy;
        assert!((0.70..=0.99).contains(&acc), "{name} accuracy {acc:.3}");
    }
    // voting is at least competitive with the single models it aggregates
    let vote = llm.voted_table.average.accuracy;
    let best_single = llm
        .tables
        .values()
        .map(|t| t.average.accuracy)
        .fold(0.0f64, f64::max);
    assert!(
        vote > best_single - 0.06,
        "vote {vote:.3} vs best {best_single:.3}"
    );
}

#[test]
fn survey_images_are_reproducible_and_billed() {
    let survey = SurveyPipeline::new(SurveyConfig::smoke(1002))
        .run()
        .unwrap();
    let after_run = survey.imagery_usage();
    assert_eq!(
        after_run.billed_images as usize,
        survey.images().len(),
        "each scene renders and bills exactly once during the survey"
    );
    let id = survey.images()[7];
    let a = survey.image(id).unwrap();
    let b = survey.image(id).unwrap();
    assert_eq!(a, b);
    let usage = survey.imagery_usage();
    assert_eq!(
        usage.billed_images, after_run.billed_images,
        "fetches come from cache"
    );
    assert_eq!(usage.cache_hits, after_run.cache_hits + 2);
    assert!(usage.fees_usd > 0.0);
}

#[test]
fn ground_truth_labels_and_llm_contexts_agree() {
    let survey = SurveyPipeline::new(SurveyConfig::smoke(1003))
        .run()
        .unwrap();
    for &id in survey.images().iter().take(20) {
        let spec = survey.ground_truth(id).unwrap();
        let ctx = survey.context(id).unwrap();
        assert_eq!(spec.presence(), ctx.presence);
        // rendered labels match the spec's presence
        let (_, objects) = nbhd::scene::render(&spec, survey.config().image_size);
        let rendered: IndicatorSet = objects.iter().map(|o| o.indicator).collect();
        assert_eq!(rendered, spec.presence());
    }
}

#[test]
fn different_seeds_give_different_surveys() {
    let a = SurveyPipeline::new(SurveyConfig::smoke(1)).run().unwrap();
    let b = SurveyPipeline::new(SurveyConfig::smoke(2)).run().unwrap();
    assert_ne!(a.dataset(), b.dataset());
}
