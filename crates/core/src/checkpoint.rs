//! Crash-safe end-to-end runs: a [`RunPlan`] bound to a journal via its
//! config hash, driven through every checkpointed layer of the workspace.
//!
//! [`run_observed`] executes the full study — capture+annotate,
//! detector training, the LLM ensemble vote, and the bootstrap CI — with
//! every completed unit that costs to redo journaled through one
//! [`CheckpointStore`]: a scene fee, a capture's labels, a finished shard,
//! the trained detector, an LLM vote. A fit's per-image harvest and a
//! bootstrap resample are pure functions of their seeds, cheaper to redo
//! than to read back, so they are recomputed instead. Kill
//! the process anywhere (see `tests/crash_resume.rs`, which kills it at
//! *every record boundary*, including mid-record torn writes) and rerun
//! with the same plan and store: the resumed [`RunReport`] is
//! byte-identical to an uninterrupted run, and no scene is ever billed
//! twice.
//!
//! What makes the replay exact:
//!
//! * every stochastic unit draws from a seed keyed by its identity, never
//!   from a shared RNG, so redone and replayed units interleave freely;
//! * `f32`/`f64` payloads roundtrip through JSON bit-exactly (shortest
//!   decimal representation), so replayed weights are the same bytes the
//!   original process computed;
//! * fees are restored by repeated addition in the same fold order the
//!   uninterrupted run used, so totals match to the last bit.

use std::collections::BTreeMap;
use std::sync::Arc;

use nbhd_client::{Ensemble, ExecutorConfig, FaultProfile};
use nbhd_detect::{Detector, DetectorConfig, TrainConfig, Trainer};
use nbhd_eval::bootstrap_mean;
use nbhd_exec::{Parallelism, ScopedPool};
use nbhd_journal::{CheckpointStore, Replayable, RunManifest};
use nbhd_obs::Obs;
use nbhd_prompt::{Language, Prompt, PromptMode};
use nbhd_types::{Error, ImageId, Indicator, Result};
use nbhd_vlm::SamplerParams;

use crate::{paper_lineup, SurveyConfig, SurveyDataset, SurveyPipeline};

use serde::{Deserialize, Serialize};

/// Journal record kind for completed pipeline stages (whole-stage outputs,
/// e.g. the trained detector's weights).
pub const STAGE_RECORD_KIND: &str = "stage";

/// Stage key under which the trained detector's weights are journaled.
pub const DETECTOR_STAGE_KEY: &str = "detector";

/// A [`STAGE_RECORD_KIND`] record: the trained detector's JSON text, keyed
/// [`DETECTOR_STAGE_KEY`], which is also the report's
/// [`RunReport::detector_json`]. Reading the detector applies
/// [`Detector::from_json`]'s field rules; that its cell fits the study's
/// images is checked where it replays, since only the study knows its
/// image size.
#[derive(Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DetectorStage(String);

impl Replayable for DetectorStage {
    const KIND: &'static str = STAGE_RECORD_KIND;
}

impl DetectorStage {
    /// The journaled detector.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] naming the record when the text is not a
    /// valid detector.
    pub fn detector(&self) -> Result<Detector> {
        Detector::from_json(&self.0).map_err(|e| match e {
            Error::Parse(detail) => DetectorStage::invalid(DETECTOR_STAGE_KEY, detail),
            other => other,
        })
    }
}

/// Deterministic histogram of per-stage virtual durations (ms), one
/// sample per span recorded by [`run_observed`].
pub const STAGE_VIRTUAL_MS_HIST: &str = "core.stage_virtual_ms";

/// Everything that determines a checkpointed run's output. The journal
/// manifest hashes this plan, so resuming under a *different* plan is
/// refused instead of silently replaying records from another experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunPlan {
    /// Survey (data-collection) configuration.
    pub survey: SurveyConfig,
    /// Detector SGD epochs.
    pub epochs: u32,
    /// Hard-negative-mining rounds.
    pub hard_negative_rounds: u32,
    /// Ensemble size: how many models of the paper lineup to query.
    pub models: usize,
    /// Bootstrap resamples for the vote-correctness CI.
    pub resamples: usize,
    /// Bootstrap confidence level.
    pub level: f64,
}

impl RunPlan {
    /// A tiny plan for tests and examples: 5 locations at 64 px, 2 SGD
    /// epochs, 2 models, 8 resamples.
    pub fn smoke(seed: u64) -> RunPlan {
        RunPlan {
            survey: SurveyConfig {
                locations: 5,
                image_size: 64,
                verification_passes: 1,
                ..SurveyConfig::smoke(seed)
            },
            epochs: 2,
            hard_negative_rounds: 1,
            models: 2,
            resamples: 8,
            level: 0.9,
        }
    }

    /// The journal manifest for this plan: its config hash over canonical
    /// JSON, with the worker count normalized out — results are
    /// bit-identical at any parallelism, so a run journaled serially may be
    /// resumed with 4 workers (and vice versa) without a
    /// [`nbhd_journal::JournalError::ConfigMismatch`].
    ///
    /// # Errors
    ///
    /// Returns an error when the plan cannot be serialized.
    pub fn manifest(&self, label: &str) -> Result<RunManifest> {
        let mut canon = self.clone();
        canon.survey.parallelism = Parallelism::auto();
        Ok(RunManifest::for_config(label, &canon)?)
    }

    /// Validates the plan.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] for invalid survey configs or degenerate
    /// bootstrap settings.
    pub fn validate(&self) -> Result<()> {
        self.survey.validate()?;
        if self.models == 0 || self.models > paper_lineup().len() {
            return Err(Error::config(format!(
                "models {} outside 1..={}",
                self.models,
                paper_lineup().len()
            )));
        }
        if self.resamples == 0 {
            return Err(Error::config("bootstrap needs at least one resample"));
        }
        if !(self.level > 0.0 && self.level < 1.0) {
            return Err(Error::config("confidence level must be in (0, 1)"));
        }
        Ok(())
    }
}

/// The byte-comparable outcome of a checkpointed run. Two reports from the
/// same [`RunPlan`] compare equal iff the runs produced identical datasets,
/// weights, votes, intervals, and fee totals — the torture suite's
/// definition of "resume happened correctly".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Canonical dataset JSON: one line per image, in dataset image order.
    pub dataset_json: String,
    /// The trained detector's weights as canonical JSON.
    pub detector_json: String,
    /// Canonical JSON of voted presence bits keyed by image id.
    pub votes_json: String,
    /// Mean per-image vote correctness against scene ground truth.
    pub voted_accuracy: f64,
    /// Bootstrap point estimate of the vote correctness.
    pub ci_estimate: f64,
    /// Bootstrap CI lower bound.
    pub ci_lo: f64,
    /// Bootstrap CI upper bound.
    pub ci_hi: f64,
    /// Scenes billed across every process of the run.
    pub billed_images: u64,
    /// Total imagery fees (USD) across every process of the run.
    pub fees_usd: f64,
    /// The survey's location-coverage fraction: below `1.0` when the
    /// survey quarantined or skipped locations.
    pub coverage: f64,
}

/// Runs the full study under a checkpoint store: survey capture, detector
/// training, LLM ensemble vote, and bootstrap CI. The survey journals its
/// fees, captures and shards, the detector its finished weights, and the
/// ensemble its votes; the fit's harvest and the bootstrap redraw from
/// their seeds. Rerunning with the same plan and store resumes from
/// wherever the previous process died and lands on a byte-identical
/// [`RunReport`].
///
/// Every stage runs under a virtual-time span (`run`, `survey/shard-0`,
/// `detector/harvest…`, `ensemble/vote-*`, `bootstrap`), execution and
/// accounting counters land in the bundle's [`nbhd_obs::MetricsRegistry`],
/// and completed spans are journaled through `store` (kind
/// [`nbhd_obs::SPAN_RECORD_KIND`]) so a resumed run never duplicates a span
/// key. Pass `&Obs::default()` when nothing reads the bundle: the
/// [`RunReport`] is identical to an observed run, and the bundle's
/// deterministic surface (virtual-time span tree + deterministic counters)
/// is byte-identical at any worker count.
///
/// # Errors
///
/// Propagates plan-validation, pipeline, training, ensemble, and store
/// failures — including [`nbhd_journal::JournalError::Killed`] (mapped to
/// [`Error::Service`]) when a torture-test kill schedule fires.
pub fn run_observed(
    plan: &RunPlan,
    store: Arc<dyn CheckpointStore>,
    obs: &Obs,
) -> Result<RunReport> {
    plan.validate()?;
    obs.tracer().attach_sink(Arc::clone(&store));
    // Snapshot the span count so the stage-duration histogram below only
    // sees this run's spans, even on an Obs reused across runs.
    let span_base = obs.tracer().spans().len();
    let run_stage = obs.tracer().enter("run");

    let survey_stage = obs.tracer().enter("survey");
    let survey = SurveyPipeline::new(plan.survey.clone())
        .with_obs(obs.clone())
        .run_with_store(Some(Arc::clone(&store)))?;
    survey_stage.record();
    let dataset_json = canonical_dataset_json(&survey)?;

    // Stage 2: the detector. The finished weights are journaled as one
    // stage record whose text is the report's detector JSON, so a resumed
    // run skips training and serializes nothing; a run that died *during*
    // training trains again, which bills no scene and no token.
    let detector_stage = obs.tracer().enter("detector");
    let stage = match nbhd_journal::load::<DetectorStage>(store.as_ref(), DETECTOR_STAGE_KEY)? {
        Some(stage) => {
            let detector = stage.detector()?;
            // a cell larger than the image would panic the first scan
            let (shrink, size) = (detector.config.shrink, plan.survey.image_size);
            if shrink > size {
                return Err(DetectorStage::invalid(
                    DETECTOR_STAGE_KEY,
                    format!("config.shrink {shrink} is larger than the study's image_size {size}"),
                ));
            }
            stage
        }
        None => {
            let trainer = Trainer::new(
                TrainConfig {
                    epochs: plan.epochs,
                    hard_negative_rounds: plan.hard_negative_rounds,
                    seed: plan.survey.seed,
                    parallelism: plan.survey.parallelism,
                    ..TrainConfig::default()
                },
                DetectorConfig {
                    shrink: 4,
                    ..DetectorConfig::default()
                },
            )
            .with_obs(obs.clone());
            let detector = trainer.fit(survey.dataset(), &survey.provider())?;
            let stage = DetectorStage(detector.to_json()?);
            nbhd_journal::save(store.as_ref(), DETECTOR_STAGE_KEY, &stage)?;
            stage
        }
    };
    detector_stage.record();
    let DetectorStage(detector_json) = stage;

    // Stage 3: the LLM ensemble vote, with each (model, image) query
    // journaled under an idempotency key.
    let ids: Vec<ImageId> = survey.images().to_vec();
    if ids.is_empty() {
        return Err(Error::config("survey produced no images"));
    }
    let contexts = survey.contexts(&ids)?;
    let ensemble_stage = obs.tracer().enter("ensemble");
    let ensemble = Ensemble::new(
        paper_lineup().into_iter().take(plan.models).collect(),
        plan.survey.seed,
        FaultProfile::NONE,
        ExecutorConfig {
            parallelism: plan.survey.parallelism,
            ..ExecutorConfig::default()
        },
    )
    .with_obs(obs.clone())
    .with_checkpoint(Arc::clone(&store));
    let prompt = Prompt::build(Language::English, PromptMode::Parallel);
    let outcome = ensemble.try_survey(&contexts, &prompt, &SamplerParams::default())?;
    ensemble_stage.record();

    let mut votes: BTreeMap<String, u8> = BTreeMap::new();
    for (id, set) in ids.iter().zip(&outcome.voted) {
        votes.insert(id.to_string(), set.bits());
    }
    let votes_json =
        serde_json::to_string(&votes).map_err(|e| Error::parse(format!("votes: {e}")))?;

    // Stage 4: bootstrap CI over per-image vote correctness, redrawn from
    // the plan's seed on every run.
    let correctness: Vec<f64> = contexts
        .iter()
        .zip(&outcome.voted)
        .map(|(ctx, voted)| {
            let agree = Indicator::ALL
                .iter()
                .filter(|&&ind| voted.contains(ind) == ctx.presence.contains(ind))
                .count();
            agree as f64 / Indicator::ALL.len() as f64
        })
        .collect();
    let voted_accuracy = correctness.iter().sum::<f64>() / correctness.len() as f64;
    let bootstrap_stage = obs.tracer().enter("bootstrap");
    let pool = ScopedPool::new(plan.survey.parallelism).with_metrics(Arc::clone(obs.registry()));
    let ci = bootstrap_mean(
        &correctness,
        plan.resamples,
        plan.level,
        plan.survey.seed,
        &pool,
    );
    bootstrap_stage.record();

    let usage = survey.imagery_usage();
    usage.publish(obs.registry());
    run_stage.record();
    // Per-stage virtual durations as one deterministic histogram: spans
    // are entered on the orchestrating thread and stamped in virtual
    // time, so the distribution is worker-count invariant.
    for span in &obs.tracer().spans()[span_base..] {
        obs.registry()
            .record_hist(STAGE_VIRTUAL_MS_HIST, span.virtual_ms());
    }
    Ok(RunReport {
        dataset_json,
        detector_json,
        votes_json,
        voted_accuracy,
        ci_estimate: ci.estimate,
        ci_lo: ci.lo,
        ci_hi: ci.hi,
        billed_images: usage.billed_images,
        fees_usd: usage.fees_usd,
        coverage: survey.coverage_fraction(),
    })
}

/// The dataset in canonical form: one labels line per image, in the
/// dataset's image order.
pub(crate) fn canonical_dataset_json(survey: &SurveyDataset) -> Result<String> {
    let mut lines = Vec::with_capacity(survey.images().len());
    for &id in survey.images() {
        lines.push(
            serde_json::to_string(survey.dataset().labels(id)?)
                .map_err(|e| Error::parse(format!("labels {id}: {e}")))?,
        );
    }
    Ok(lines.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbhd_journal::MemoryStore;

    #[test]
    fn checkpointed_run_is_deterministic_and_resumable() {
        let plan = RunPlan::smoke(41);
        let run = |store: Arc<MemoryStore>| run_observed(&plan, store, &Obs::default()).unwrap();
        let a = run(Arc::new(MemoryStore::new()));
        let b = run(Arc::new(MemoryStore::new()));
        assert_eq!(a, b, "two fresh runs of the same plan must agree");

        // a completed store replays everything: same report again
        let store = Arc::new(MemoryStore::new());
        let first = run(store.clone());
        assert_eq!(first, a);
        let resumed = run(store);
        assert_eq!(resumed, a);
        assert!(a.billed_images > 0);
        assert!(a.fees_usd > 0.0);
        assert!(a.ci_lo <= a.ci_estimate && a.ci_estimate <= a.ci_hi);
    }

    #[test]
    fn a_detector_record_with_a_cell_larger_than_the_images_is_a_parse_error() {
        let plan = RunPlan::smoke(41);
        let mut detector = Detector::untrained(DetectorConfig::default());
        detector.config.shrink = 1000;
        let store = Arc::new(MemoryStore::new());
        store
            .save(
                STAGE_RECORD_KIND,
                DETECTOR_STAGE_KEY,
                serde_json::Value::String(detector.to_json().unwrap()),
            )
            .unwrap();
        match run_observed(&plan, store, &Obs::default()) {
            Err(Error::Parse(msg)) => {
                let size = plan.survey.image_size;
                let want =
                    format!("config.shrink 1000 is larger than the study's image_size {size}");
                assert!(msg.starts_with("stage record detector: "), "{msg}");
                assert!(msg.contains(&want), "{msg}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn observed_run_matches_plain_and_journals_its_spans() {
        let plan = RunPlan::smoke(43);
        let plain = run_observed(&plan, Arc::new(MemoryStore::new()), &Obs::default()).unwrap();

        let obs = Obs::default();
        let store = Arc::new(MemoryStore::new());
        let observed = run_observed(&plan, store.clone(), &obs).unwrap();
        assert_eq!(plain, observed, "observability must not change the report");

        let summary = obs.summary();
        let keys: Vec<&str> = summary.spans.iter().map(|s| s.key.as_str()).collect();
        for expected in [
            "run",
            "run/survey",
            "run/survey/shard-0",
            "run/detector",
            "run/detector/harvest",
            "run/ensemble",
            "run/bootstrap",
        ] {
            assert!(
                keys.contains(&expected),
                "missing span {expected}: {keys:?}"
            );
        }
        // the root span closes last and spans the whole virtual timeline
        let root = summary.spans.iter().find(|s| s.key == "run").unwrap();
        assert_eq!(root.depth, 0);
        assert!(root.virtual_ms() > 0, "LLM latency advances the clock");

        // spans were journaled through the run's store, one per key
        let journaled = store.load_kind(nbhd_obs::SPAN_RECORD_KIND);
        assert_eq!(journaled.len(), summary.spans.len());

        // counters carry the unified rollup: exec tasks, per-model client
        // accounting, and imagery billing
        let counters = &summary.metrics.counters;
        assert!(counters[nbhd_exec::TASKS_METRIC] > 0);
        assert!(counters["gsv.billed_images"] > 0);
        assert!(counters.keys().any(|k| k.starts_with("client.")));

        // the flight recorder's histograms: one stage-duration sample per
        // span, per-model request latency, and wall-side chunk sizes
        let stage_hist = &summary.metrics.histograms[STAGE_VIRTUAL_MS_HIST];
        assert_eq!(stage_hist.count(), summary.spans.len() as u64);
        assert!(stage_hist.max() >= root.virtual_ms());
        assert!(summary
            .metrics
            .histograms
            .keys()
            .any(|k| k.starts_with("client.") && k.ends_with(".latency_ms")));

        // a resumed run replays every unit and never duplicates a span key
        let again = run_observed(&plan, store.clone(), &Obs::default()).unwrap();
        assert_eq!(again, plain);
        assert_eq!(
            store.load_kind(nbhd_obs::SPAN_RECORD_KIND).len(),
            journaled.len(),
            "resume must not duplicate span records"
        );
    }

    #[test]
    fn the_stage_text_is_the_reports_detector_json() {
        let plan = RunPlan::smoke(45);
        let store = Arc::new(MemoryStore::new());
        let report = run_observed(&plan, store.clone(), &Obs::default()).unwrap();
        let DetectorStage(text) = nbhd_journal::load(store.as_ref(), DETECTOR_STAGE_KEY)
            .unwrap()
            .expect("a fresh run journals its detector");
        assert_eq!(text, report.detector_json);
        assert_eq!(Detector::from_json(&text).unwrap().to_json().unwrap(), text);
    }

    #[test]
    fn a_kill_mid_fit_resumes_to_the_uninterrupted_report() {
        use nbhd_journal::{journal_path, scan_file, Journal, KillSchedule};
        let plan = RunPlan::smoke(47);
        let run = |store: Arc<dyn CheckpointStore>| run_observed(&plan, store, &Obs::default());
        let expected = run(Arc::new(MemoryStore::new())).unwrap();
        let manifest = plan.manifest("kill-mid-fit").unwrap();
        let dir = std::env::temp_dir().join(format!("nbhd-kill-mid-fit-{}", std::process::id()));
        let stage_frames = |dir: &std::path::Path| {
            let scan = scan_file(&journal_path(dir)).unwrap();
            scan.records
                .iter()
                .filter(|r| r.kind == STAGE_RECORD_KIND)
                .count()
        };

        // a complete journal locates the stage record among the appends
        let _ = std::fs::remove_dir_all(&dir);
        run(Arc::new(Journal::create(&dir, &manifest).unwrap())).unwrap();
        let scan = scan_file(&journal_path(&dir)).unwrap();
        let position = scan
            .records
            .iter()
            .position(|r| r.kind == STAGE_RECORD_KIND)
            .expect("a stage record");
        std::fs::remove_dir_all(&dir).unwrap();

        // die as the fit ends, tearing the stage record's frame
        let journal = Journal::create(&dir, &manifest)
            .unwrap()
            .with_kill(KillSchedule::torn(position as u64, 7));
        assert!(run(Arc::new(journal)).is_err(), "the kill must end the run");
        assert_eq!(stage_frames(&dir), 0, "the torn stage frame must not scan");

        // restart: recover the torn tail, train again and finish
        let journal = Journal::open(&dir, &manifest).unwrap();
        assert!(
            journal.recovery_note().is_some(),
            "torn tail must be reported"
        );
        assert_eq!(run(Arc::new(journal)).unwrap(), expected);
        assert_eq!(stage_frames(&dir), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifests_ignore_parallelism_but_not_the_rest() {
        let plan = RunPlan::smoke(41);
        let mut reworked = plan.clone();
        reworked.survey.parallelism = Parallelism::fixed(4);
        assert_eq!(
            plan.manifest("run").unwrap().config_hash,
            reworked.manifest("run").unwrap().config_hash,
            "worker count is not part of the run identity"
        );
        let mut different = plan.clone();
        different.survey.seed = 42;
        assert_ne!(
            plan.manifest("run").unwrap().config_hash,
            different.manifest("run").unwrap().config_hash
        );
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let mut plan = RunPlan::smoke(1);
        plan.models = 0;
        assert!(plan.validate().is_err());
        let mut plan = RunPlan::smoke(1);
        plan.resamples = 0;
        assert!(plan.validate().is_err());
        let mut plan = RunPlan::smoke(1);
        plan.level = 1.0;
        assert!(plan.validate().is_err());
    }
}
