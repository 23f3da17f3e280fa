//! The end-to-end survey pipeline: geography → imagery → annotation.
//!
//! Mirrors the paper's data-collection methodology: sample locations across
//! the two study counties, fetch four headings per location from the
//! (simulated) street-view service, have the (simulated) student annotator
//! label every image, verify, and split 70/20/10. [`SurveyPipeline`] runs
//! it as the one-shard case of the survey driver, [`crate::run_supervised`].

use std::sync::Arc;

use nbhd_annotate::LabeledDataset;
use nbhd_geo::ShardPlan;
use nbhd_gsv::{ImageRequest, StreetViewService, UsageMeter};
use nbhd_journal::CheckpointStore;
use nbhd_obs::Obs;
use nbhd_raster::RasterImage;
use nbhd_scene::SceneSpec;
use nbhd_types::{ImageId, Result};
use nbhd_vlm::ImageContext;

use crate::{run_supervised, CoverageReport, SupervisePolicy, SurveyConfig};

/// Builds a [`SurveyDataset`] from a [`SurveyConfig`].
#[derive(Debug, Clone)]
pub struct SurveyPipeline {
    config: SurveyConfig,
    obs: Option<Obs>,
}

impl SurveyPipeline {
    /// Creates the pipeline.
    pub fn new(config: SurveyConfig) -> SurveyPipeline {
        SurveyPipeline { config, obs: None }
    }

    /// Attaches the run's observability bundle: the survey records its
    /// `shard-0` span, execution counters and shard metrics, and the
    /// imagery usage meter publishes into the bundle's registry when the
    /// pass completes. Does not affect the dataset.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> SurveyPipeline {
        self.obs = Some(obs);
        self
    }

    /// Runs the full data-collection pass.
    ///
    /// # Errors
    ///
    /// Returns configuration errors, geography-sampling failures, or
    /// dataset-assembly failures.
    pub fn run(&self) -> Result<SurveyDataset> {
        self.run_with_store(None)
    }

    /// [`SurveyPipeline::run`] with crash-safe checkpointing: the survey
    /// runs as one supervised shard of [`crate::run_supervised`] with the
    /// default policy, so each completed `(location, heading)` capture is
    /// journaled (annotation as the payload, scene fee journaled first by
    /// the billing-wrapped service) and a resumed run replays completed
    /// units instead of re-capturing — and never bills a scene twice. A
    /// failing location is retried, then quarantined, and the survey's
    /// [`SurveyDataset::coverage`] says so.
    ///
    /// # Errors
    ///
    /// Returns configuration errors, geography-sampling failures, store
    /// failures, or dataset-assembly failures.
    pub fn run_with_store(&self, store: Option<Arc<dyn CheckpointStore>>) -> Result<SurveyDataset> {
        let survey = run_supervised(
            &self.config,
            ShardPlan::one(),
            SupervisePolicy::default(),
            None,
            store,
            self.obs.as_ref(),
        )?
        .into_survey();
        if let Some(obs) = &self.obs {
            survey.imagery_usage().publish(obs.registry());
        }
        Ok(survey)
    }
}

/// A completed survey: the imagery service, the human-labeled dataset, and
/// accessors for images, ground truth, and VLM contexts.
#[derive(Debug, Clone)]
pub struct SurveyDataset {
    config: SurveyConfig,
    service: Arc<StreetViewService>,
    dataset: LabeledDataset,
    coverage: CoverageReport,
}

impl SurveyDataset {
    /// Assembles a survey from parts the survey driver built itself.
    pub(crate) fn from_parts(
        config: SurveyConfig,
        service: Arc<StreetViewService>,
        dataset: LabeledDataset,
        coverage: CoverageReport,
    ) -> SurveyDataset {
        SurveyDataset {
            config,
            service,
            dataset,
            coverage,
        }
    }

    /// The survey configuration.
    pub fn config(&self) -> &SurveyConfig {
        &self.config
    }

    /// The coverage report: what the survey planned, completed,
    /// quarantined and skipped, per shard and per region.
    pub fn coverage(&self) -> &CoverageReport {
        &self.coverage
    }

    /// The honest location-coverage fraction: `1.0` unless the run
    /// quarantined or skipped locations.
    pub fn coverage_fraction(&self) -> f64 {
        self.coverage.fraction()
    }

    /// The human-labeled dataset (annotations + split).
    pub fn dataset(&self) -> &LabeledDataset {
        &self.dataset
    }

    /// All captured image ids.
    pub fn images(&self) -> &[ImageId] {
        self.dataset.images()
    }

    /// Fetches one image's pixels through the service (cached, billed):
    /// what [`SurveyDataset::provider`] serves.
    ///
    /// # Errors
    ///
    /// Propagates service failures.
    pub fn image(&self, id: ImageId) -> Result<RasterImage> {
        nbhd_detect::ImageProvider::image(&self.provider(), id)
    }

    /// The scene ground truth for an image (harness-only oracle).
    ///
    /// # Errors
    ///
    /// Propagates service failures.
    pub fn ground_truth(&self, id: ImageId) -> Result<SceneSpec> {
        self.service.ground_truth(id)
    }

    /// The VLM context for an image.
    ///
    /// # Errors
    ///
    /// Propagates service failures.
    pub fn context(&self, id: ImageId) -> Result<ImageContext> {
        Ok(ImageContext::from_scene(
            &self.ground_truth(id)?,
            self.config.seed,
        ))
    }

    /// VLM contexts for a set of images.
    ///
    /// # Errors
    ///
    /// Propagates service failures.
    pub fn contexts(&self, ids: &[ImageId]) -> Result<Vec<ImageContext>> {
        ids.iter().map(|&id| self.context(id)).collect()
    }

    /// Imagery-service usage so far (requests, fees, cache hits): the
    /// survey run's bill, plus any pixel fetches since.
    pub fn imagery_usage(&self) -> UsageMeter {
        self.service.usage()
    }

    /// An [`nbhd_detect::ImageProvider`] view over this survey.
    pub fn provider(&self) -> SurveyImageProvider {
        SurveyImageProvider {
            service: Arc::clone(&self.service),
            image_size: self.config.image_size,
        }
    }
}

/// Image provider backed by a street-view service: the survey's own, or a
/// shard-scoped one rebuilt by [`crate::SurveyShardSource`]. Every pixel
/// consumer fetches through it, so only they pay for rasterization.
#[derive(Debug, Clone)]
pub struct SurveyImageProvider {
    pub(crate) service: Arc<StreetViewService>,
    pub(crate) image_size: u32,
}

impl nbhd_detect::ImageProvider for SurveyImageProvider {
    fn image(&self, id: ImageId) -> Result<RasterImage> {
        let request = ImageRequest::builder(id.location, id.heading)
            .size(self.image_size)
            .build()?;
        Ok(self.service.fetch(&request)?.image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbhd_detect::ImageProvider;

    #[test]
    fn smoke_pipeline_builds_a_dataset() {
        let survey = SurveyPipeline::new(SurveyConfig::smoke(11)).run().unwrap();
        // 24 locations x 4 headings, minus ~1% coverage gaps
        let n = survey.images().len();
        assert!((88..=96).contains(&n), "images {n}");
        assert!(survey.dataset().total_objects() > 30);
        // labels derive from scene ground truth (modulo labeler noise)
        let id = survey.images()[0];
        let truth = survey.ground_truth(id).unwrap().presence();
        let labeled = survey.dataset().labels(id).unwrap().presence();
        assert!(
            truth.hamming(labeled) <= 2,
            "truth {truth} labeled {labeled}"
        );
    }

    #[test]
    fn provider_and_image_agree() {
        let survey = SurveyPipeline::new(SurveyConfig::smoke(12)).run().unwrap();
        let id = survey.images()[3];
        let a = survey.image(id).unwrap();
        let b = survey.provider().image(id).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.size(), (128, 128));
    }

    #[test]
    fn imagery_usage_accumulates_fees() {
        let survey = SurveyPipeline::new(SurveyConfig::smoke(13)).run().unwrap();
        // the collection pass labels (and bills) each image exactly once
        let after_run = survey.imagery_usage();
        assert_eq!(after_run.billed_images as usize, survey.images().len());
        assert!(
            (after_run.fees_usd - after_run.billed_images as f64 * nbhd_gsv::FEE_PER_IMAGE_USD)
                .abs()
                < 1e-9
        );
        // pixel fetches afterwards are hits that render: fees frozen
        let _ = survey.image(survey.images()[0]).unwrap();
        let _ = survey.image(survey.images()[0]).unwrap();
        let usage = survey.imagery_usage();
        assert_eq!(
            usage.billed_images, after_run.billed_images,
            "no second fee"
        );
        assert_eq!(usage.cache_hits, after_run.cache_hits + 2);
        assert!((usage.fees_usd - after_run.fees_usd).abs() < 1e-12);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = SurveyPipeline::new(SurveyConfig::smoke(14)).run().unwrap();
        let b = SurveyPipeline::new(SurveyConfig::smoke(14)).run().unwrap();
        assert_eq!(a.dataset(), b.dataset());
    }

    #[test]
    fn worker_count_does_not_change_the_dataset() {
        let serial = SurveyPipeline::new(SurveyConfig {
            parallelism: nbhd_exec::Parallelism::serial(),
            ..SurveyConfig::smoke(16)
        })
        .run()
        .unwrap();
        let parallel = SurveyPipeline::new(SurveyConfig {
            parallelism: nbhd_exec::Parallelism::fixed(4),
            ..SurveyConfig::smoke(16)
        })
        .run()
        .unwrap();
        assert_eq!(serial.dataset(), parallel.dataset());
        // billing is schedule-independent for distinct scenes
        assert_eq!(
            serial.imagery_usage().billed_images,
            parallel.imagery_usage().billed_images
        );
    }

    #[test]
    fn obs_records_shard_span_and_publishes_imagery_usage() {
        let obs = Obs::default();
        let survey = SurveyPipeline::new(SurveyConfig::smoke(17))
            .with_obs(obs.clone())
            .run()
            .unwrap();
        let summary = obs.summary();
        assert!(summary.spans.iter().any(|s| s.key == "shard-0"));
        let counters = &summary.metrics.counters;
        assert_eq!(
            counters.get(nbhd_exec::TASKS_METRIC).copied().unwrap_or(0) as usize,
            survey.images().len(),
            "one exec task per captured image"
        );
        assert_eq!(
            counters.get("gsv.billed_images").copied(),
            Some(survey.imagery_usage().billed_images)
        );
        // observing must not perturb the dataset
        let plain = SurveyPipeline::new(SurveyConfig::smoke(17)).run().unwrap();
        assert_eq!(plain.dataset(), survey.dataset());
    }

    #[test]
    fn contexts_carry_ground_truth_presence() {
        let survey = SurveyPipeline::new(SurveyConfig::smoke(15)).run().unwrap();
        let ids: Vec<_> = survey.images().iter().take(5).copied().collect();
        let ctxs = survey.contexts(&ids).unwrap();
        for (ctx, id) in ctxs.iter().zip(&ids) {
            assert_eq!(ctx.presence, survey.ground_truth(*id).unwrap().presence());
        }
    }
}
