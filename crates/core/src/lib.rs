//! End-to-end reproduction of *"Decoding Neighborhood Environments with
//! Large Language Models"* (DSN 2025) over fully synthetic substrates.
//!
//! The crate wires the workspace together:
//!
//! * [`run_supervised`] is the one survey driver: the paper's data
//!   collection — county sampling, (simulated) street-view imagery,
//!   (simulated) human annotation, and the 70/20/10 split — streamed
//!   shard by shard with bounded memory, failing locations quarantined
//!   and reported in a [`CoverageReport`], producing a [`SurveyDataset`]
//!   whose imagery meter is the run's bill. [`SurveyPipeline`] runs its
//!   one-shard case, and [`run_shard_distributed`] one shard per process.
//! * [`run_observed`] drives the whole study (survey, detector, ensemble
//!   vote, bootstrap) under a journal, resuming byte-identically.
//! * [`train_baseline`] / [`evaluate_with_noise`] train and ablate the
//!   supervised detector baseline (paper Sec. IV-B).
//! * [`run_llm_survey`] queries the simulated model ensemble with real
//!   prompt construction, transport, retries, and cost metering, scoring
//!   against ground truth (paper Sec. IV-C).
//! * [`PaperExperiments`] regenerates every table and figure with
//!   paper-vs-measured comparison rows.
//!
//! # Examples
//!
//! ```
//! use nbhd_core::prelude::*;
//!
//! let survey = SurveyPipeline::new(SurveyConfig::smoke(7)).run()?;
//! let ids: Vec<_> = survey.images().iter().take(10).copied().collect();
//! let outcome = run_llm_survey(&survey, paper_lineup(), &ids, &LlmSurveyConfig::default())?;
//! println!("voted accuracy: {:.3}", outcome.voted_table.average.accuracy);
//! # Ok::<(), nbhd_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod checkpoint;
mod config;
mod distributed;
mod experiments;
mod llm_survey;
mod panorama;
mod pipeline;
mod shard;
mod supervise;
mod transfer;

pub use baseline::{
    evaluate_on, evaluate_with_noise, survey_split, train_baseline, AugmentationPolicy,
    AugmentedProvider, BaselineOutcome,
};
pub use checkpoint::{
    run_observed, DetectorStage, RunPlan, RunReport, DETECTOR_STAGE_KEY, STAGE_RECORD_KIND,
    STAGE_VIRTUAL_MS_HIST,
};
pub use config::SurveyConfig;
pub use distributed::{
    distributed_config_hash, run_shard_distributed, run_supervised_artifact, DistributedShardRun,
};
pub use experiments::{ExperimentReport, PaperExperiments};
pub use llm_survey::{run_llm_survey, run_llm_survey_observed, LlmSurveyConfig, LlmSurveyOutcome};
pub use nbhd_vlm::paper_lineup;
pub use panorama::{run_panorama_survey, FusionRule, PanoramaOutcome};
pub use pipeline::{SurveyDataset, SurveyImageProvider, SurveyPipeline};
pub use shard::{
    merge_shard_annotations, ShardedOutcome, SurveyShardSource, SHARD_COUNT_METRIC,
    SHARD_PEAK_GAUGE, SHARD_WALL_MS_HIST,
};
pub use supervise::{
    run_supervised, AttemptRecord, CaptureRecord, CompletedShard, CoverageReport, QuarantineCause,
    QuarantineRecord, QuarantineStage, ShardCoverage, ShardOutcome, SupervisePolicy,
    ATTEMPT_RECORD_KIND, CAPTURE_RECORD_KIND, CLASS_IMAGE_PREFIX, COVERAGE_FRACTION_GAUGE,
    QUARANTINE_CAUSE_PREFIX, QUARANTINE_COUNT_METRIC, QUARANTINE_RECORD_KIND,
    QUARANTINE_RETRY_METRIC, SHARD_OUTCOME_COMPLETED_METRIC, SHARD_OUTCOME_TIMED_OUT_METRIC,
};
pub use transfer::{run_transfer, TransferOutcome};

/// Convenient re-exports of the most used items across the workspace.
pub mod prelude {
    pub use crate::{
        distributed_config_hash, paper_lineup, run_llm_survey, run_llm_survey_observed,
        run_observed, run_shard_distributed, run_supervised, run_supervised_artifact, run_transfer,
        train_baseline, AugmentationPolicy, CoverageReport, DistributedShardRun, LlmSurveyConfig,
        PaperExperiments, QuarantineCause, QuarantineRecord, RunPlan, RunReport, ShardOutcome,
        ShardedOutcome, SupervisePolicy, SurveyConfig, SurveyDataset, SurveyPipeline,
        TransferOutcome,
    };
    pub use nbhd_annotate::{LabeledDataset, SplitRatios};
    pub use nbhd_client::{Ensemble, ExecutorConfig, FaultProfile};
    pub use nbhd_detect::{Detector, DetectorConfig, TrainConfig, Trainer};
    pub use nbhd_eval::{majority_vote, PresenceEvaluator, TiePolicy};
    pub use nbhd_exec::{Parallelism, ScopedPool};
    pub use nbhd_geo::{County, RegionSet, RegionSpec, ShardPlan, SurveySample};
    pub use nbhd_gsv::{PoisonKind, PoisonSchedule};
    pub use nbhd_journal::{CheckpointStore, Journal, KillSchedule, MemoryStore, RunManifest};
    pub use nbhd_obs::{diff as run_diff, Obs, RunArtifact, RunSummary};
    pub use nbhd_prompt::{Language, Prompt, PromptMode};
    pub use nbhd_scene::{render, SceneGenerator};
    pub use nbhd_types::{Heading, ImageId, Indicator, IndicatorSet, LocationId};
    pub use nbhd_vlm::{paper_models, ImageContext, SamplerParams, VisionModel};
}

// re-export the component crates for downstream users of the façade
pub use nbhd_annotate as annotate;
pub use nbhd_client as client;
pub use nbhd_detect as detect;
pub use nbhd_eval as eval;
pub use nbhd_exec as exec;
pub use nbhd_geo as geo;
pub use nbhd_gsv as gsv;
pub use nbhd_journal as journal;
pub use nbhd_obs as obs;
pub use nbhd_prompt as prompt;
pub use nbhd_raster as raster;
pub use nbhd_scene as scene;
pub use nbhd_types as types;
pub use nbhd_vlm as vlm;
