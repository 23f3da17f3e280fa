//! Cross-crate determinism: every parallel code path in the workspace must
//! produce results bit-identical to its serial counterpart, because all
//! randomness is keyed by item identity (per-item seeds) rather than by
//! scheduling order.

use nbhd::prelude::*;
use nbhd_core::{train_baseline, AugmentationPolicy, LlmSurveyConfig};
use proptest::prelude::*;

fn smoke_survey(parallelism: Parallelism) -> SurveyDataset {
    let config = SurveyConfig {
        parallelism,
        ..SurveyConfig::smoke(77)
    };
    SurveyPipeline::new(config).run().expect("survey pipeline")
}

#[test]
fn survey_dataset_is_worker_count_invariant() {
    let serial = smoke_survey(Parallelism::serial());
    let parallel = smoke_survey(Parallelism::fixed(4));
    assert_eq!(serial.dataset(), parallel.dataset());
    assert_eq!(serial.dataset().split(), parallel.dataset().split());
    // byte-identical canonical form: per-image labels serialized in the
    // dataset's image order
    let canon = |s: &SurveyDataset| -> String {
        s.images()
            .iter()
            .map(|&id| serde_json::to_string(s.dataset().labels(id).unwrap()).unwrap())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(canon(&serial), canon(&parallel));
}

#[test]
fn sharded_serial_run_matches_unsharded_parallel_run() {
    // the strongest cross-path pin: four shards driven serially must merge
    // to the byte-identical dataset an unsharded four-worker pipeline
    // produces — shard membership, capture seeding, and the merge are all
    // functions of item identity, never of scheduling
    let config = SurveyConfig {
        parallelism: Parallelism::serial(),
        ..SurveyConfig::smoke(77)
    };
    let plan = ShardPlan::new(4).unwrap();
    let sharded = run_supervised(&config, plan, SupervisePolicy::default(), None, None, None)
        .expect("sharded run");
    let unsharded = smoke_survey(Parallelism::fixed(4));
    assert_eq!(sharded.survey().dataset(), unsharded.dataset());
    assert_eq!(
        sharded.survey().dataset().split(),
        unsharded.dataset().split()
    );
    assert_eq!(
        sharded.billed_images(),
        unsharded.imagery_usage().billed_images
    );
    assert_eq!(
        sharded.fees_usd().to_bits(),
        unsharded.imagery_usage().fees_usd.to_bits(),
        "fees must fold to the same bits across path and worker count"
    );
}

#[test]
fn trained_detector_is_worker_count_invariant() {
    let survey = smoke_survey(Parallelism::serial());
    let train = |parallelism| {
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 4,
                hard_negative_rounds: 1,
                parallelism,
                ..TrainConfig::default()
            },
            DetectorConfig {
                shrink: 4,
                ..DetectorConfig::default()
            },
        );
        train_baseline(&survey, &trainer, AugmentationPolicy::None).expect("training")
    };
    let serial = train(Parallelism::serial());
    let parallel = train(Parallelism::fixed(4));
    // weights are serialized before comparing so the check is bitwise, not
    // within-epsilon
    assert_eq!(
        serial.detector.to_json().unwrap(),
        parallel.detector.to_json().unwrap()
    );
    assert_eq!(serial.report, parallel.report);
}

#[test]
fn llm_vote_tallies_are_worker_count_invariant() {
    let survey = smoke_survey(Parallelism::serial());
    let ids: Vec<ImageId> = survey.images().iter().take(24).copied().collect();
    let run = |parallelism| {
        nbhd_core::run_llm_survey(
            &survey,
            nbhd_core::paper_lineup(),
            &ids,
            &LlmSurveyConfig {
                executor: ExecutorConfig {
                    parallelism,
                    ..ExecutorConfig::default()
                },
                ..LlmSurveyConfig::default()
            },
        )
        .expect("llm survey")
    };
    let serial = run(Parallelism::serial());
    let parallel = run(Parallelism::fixed(4));
    assert_eq!(serial.ensemble.voted, parallel.ensemble.voted);
    assert_eq!(serial.voted_table, parallel.voted_table);
    assert_eq!(serial.tables, parallel.tables);
}

#[test]
fn run_summary_deterministic_surface_is_worker_count_invariant() {
    use std::sync::Arc;

    // the full checkpointed study, observed end to end: the virtual-time
    // span tree and every deterministic counter must be byte-identical at
    // any worker count (wall-clock timings are excluded from the surface)
    let observe = |parallelism| {
        let plan = RunPlan {
            survey: SurveyConfig {
                parallelism,
                ..RunPlan::smoke(88).survey
            },
            ..RunPlan::smoke(88)
        };
        let obs = Obs::default();
        let report = nbhd_core::run_observed(&plan, Arc::new(MemoryStore::new()), &obs)
            .expect("observed run");
        (report, obs.summary())
    };
    let (serial_report, serial) = observe(Parallelism::serial());
    let (parallel_report, parallel) = observe(Parallelism::fixed(4));
    assert_eq!(serial_report, parallel_report);
    assert_eq!(
        serial.deterministic_text(),
        parallel.deterministic_text(),
        "span tree + counters must not depend on scheduling"
    );
    // the surface is non-trivial: spans from every stage, counters from
    // exec, client accounting, and imagery billing
    let text = serial.deterministic_text();
    for needle in [
        "run/survey/shard-0",
        "run/detector",
        "run/ensemble",
        "run/bootstrap",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
    assert!(text.contains("exec.tasks"));
    assert!(text.contains("gsv.billed_images"));
    // histograms ride the deterministic surface: the sample multisets
    // (latency draws, stage virtual durations) are scheduling-invariant
    // even though per-worker arrival order is not
    assert_eq!(serial.metrics.histograms, parallel.metrics.histograms);
    assert!(text.contains("hist core.stage_virtual_ms"));
    assert!(text.contains(".latency_ms"));
    // wall-clock metrics stay out of the deterministic surface
    assert!(!text.contains("exec.steals"));
    assert!(!text.contains("exec.chunk_items"));
    assert!(!text.contains("usd"));
}

#[test]
fn budget_reports_are_worker_count_invariant() {
    use std::sync::Arc;

    use nbhd_obs::BudgetSpec;

    // the budget gate must never depend on scheduling: a report computed
    // over a 4-worker run is the same typed object, byte for byte, as one
    // computed over the serial run
    let artifact = |parallelism| {
        let plan = RunPlan {
            survey: SurveyConfig {
                parallelism,
                ..RunPlan::smoke(88).survey
            },
            ..RunPlan::smoke(88)
        };
        let obs = Obs::default();
        nbhd_core::run_observed(&plan, Arc::new(MemoryStore::new()), &obs).expect("observed run");
        RunArtifact::from_obs("budget-determinism", &obs)
    };
    let serial = artifact(Parallelism::serial());
    let parallel = artifact(Parallelism::fixed(4));

    let spec = BudgetSpec::from_artifact("determinism-budget", &serial, 1.0);
    assert!(
        spec.rules.len() > 10,
        "a full observed run must yield a substantial derived spec, got {}",
        spec.rules.len()
    );
    let serial_report = spec.evaluate(&serial);
    let parallel_report = spec.evaluate(&parallel);
    assert!(serial_report.is_pass(), "{:?}", serial_report.violations);
    assert_eq!(
        serde_json::to_string(&serial_report).unwrap(),
        serde_json::to_string(&parallel_report).unwrap(),
        "every verdict and observed value must be worker-count-invariant"
    );
}

#[test]
fn trace_journal_survives_kill_and_resume_without_duplicate_spans() {
    use std::collections::HashSet;
    use std::fs;
    use std::sync::Arc;

    use nbhd_journal::{journal_path, scan_file, KillSchedule};
    use nbhd_obs::{Obs, SPAN_RECORD_KIND};

    let mut plan = RunPlan::smoke(91);
    plan.survey.locations = 3;
    plan.epochs = 1;
    plan.resamples = 4;
    let manifest = plan.manifest("obs-torture").unwrap();
    let dir = std::env::temp_dir().join("nbhd-obs-kill");
    let _ = fs::remove_dir_all(&dir);

    // first process dies mid-run (some spans may already be journaled)
    let journal = Journal::create(&dir, &manifest)
        .unwrap()
        .with_kill(KillSchedule::at(55));
    let first = nbhd_core::run_observed(&plan, Arc::new(journal), &Obs::default());
    assert!(first.is_err(), "kill schedule must abort the first process");

    // second process resumes from the same directory and completes
    let journal = Journal::open(&dir, &manifest).unwrap();
    let obs = Obs::default();
    let report = nbhd_core::run_observed(&plan, Arc::new(journal), &obs).unwrap();
    assert_eq!(
        report,
        nbhd_core::run_observed(&plan, Arc::new(MemoryStore::new()), &Obs::default()).unwrap(),
        "resumed observed run must match an uninterrupted one"
    );

    // the raw on-disk frames never repeat a span key, across both processes
    let scan = scan_file(&journal_path(&dir)).unwrap();
    let span_keys: Vec<&str> = scan
        .records
        .iter()
        .filter(|r| r.kind == SPAN_RECORD_KIND)
        .map(|r| r.key.as_str())
        .collect();
    let unique: HashSet<&str> = span_keys.iter().copied().collect();
    assert_eq!(
        span_keys.len(),
        unique.len(),
        "a span key was journaled twice across kill/resume"
    );
    assert!(
        span_keys.contains(&"run"),
        "the resumed process journals its root span"
    );
    fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // the substrate's core contract: output order matches input order for
    // any worker count and any chunk size, including ragged tails
    #[test]
    fn par_map_preserves_input_order_for_any_chunking(
        len in 0usize..200,
        workers in 1usize..9,
        chunk in 1usize..33,
    ) {
        let items: Vec<u64> = (0..len as u64).collect();
        let out = nbhd_core::exec::par_map_chunked(workers, chunk, &items, |i, &x| {
            (i as u64, x * 3 + 1)
        });
        prop_assert_eq!(out.len(), items.len());
        for (i, (idx, val)) in out.iter().enumerate() {
            prop_assert_eq!(*idx, i as u64);
            prop_assert_eq!(*val, items[i] * 3 + 1);
        }
    }
}
