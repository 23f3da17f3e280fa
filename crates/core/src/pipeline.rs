//! The end-to-end survey pipeline: geography → imagery → annotation.
//!
//! Mirrors the paper's data-collection methodology: sample locations across
//! the two study counties, fetch four headings per location from the
//! (simulated) street-view service, have the (simulated) student annotator
//! label every image, verify, and split 70/20/10.

use std::sync::Arc;

use nbhd_annotate::{HumanLabeler, LabeledDataset};
use nbhd_exec::ScopedPool;
use nbhd_geo::SurveySample;
use nbhd_gsv::{ImageRequest, StreetViewService, UsageMeter};
use nbhd_journal::CheckpointStore;
use nbhd_obs::Obs;
use nbhd_raster::RasterImage;
use nbhd_scene::SceneSpec;
use nbhd_types::rng::child_seed;
use nbhd_types::{Error, Heading, ImageId, ImageLabels, LocationId, Result};
use nbhd_vlm::ImageContext;

use crate::SurveyConfig;

/// Journal record kind for completed `(location, heading)` captures: the
/// payload is the verified human annotation for that image.
pub const CAPTURE_RECORD_KIND: &str = "capture";

/// Journal record kind for worker panics (forensic only — a panic record
/// is never replayed; the poisoned item is simply retried on resume).
pub const PANIC_RECORD_KIND: &str = "panic";

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

    /// Attaches the run's observability bundle: the capture fan-out
    /// records a `capture` stage span and its execution counters, and the
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
    /// imagery-service failures.
    pub fn run(&self) -> Result<SurveyDataset> {
        self.run_with_store(None)
    }

    /// [`SurveyPipeline::run`] with crash-safe checkpointing: each
    /// completed `(location, heading)` capture is journaled (annotation as
    /// the payload, scene fee journaled first by the billing-wrapped
    /// service), so a resumed run replays completed units instead of
    /// re-capturing — and never bills a scene twice. A worker panic is
    /// journaled forensically and surfaced as a clean error naming the
    /// poisoned input index, instead of unwinding through the pool.
    ///
    /// # Errors
    ///
    /// Returns configuration errors, geography-sampling failures,
    /// imagery-service failures, store failures, or [`Error::Service`]
    /// when a capture worker panics.
    pub fn run_with_store(&self, store: Option<Arc<dyn CheckpointStore>>) -> Result<SurveyDataset> {
        self.config.validate()?;
        let sample = SurveySample::draw_regions(
            &self.config.regions,
            self.config.locations,
            self.config.network_scale,
            self.config.seed,
        )?;
        // borrowed slice: the service indexes the points itself; no
        // second owned copy of the sample is materialized here
        let mut service = StreetViewService::new(self.config.seed, sample.points());
        if let Some(store) = &store {
            service = service.with_billing_store(Arc::clone(store))?;
        }
        let service = Arc::new(service);
        let labeler = HumanLabeler::new(
            self.config.labeler_profile(),
            child_seed(self.config.seed, "labeler"),
        );

        // One task per (location, heading) pair, fanned out over the
        // execution substrate. The labeler is seeded per image id, so the
        // output is bit-identical at any worker count; captures go through
        // the service so each scene is labeled (and billed) exactly once
        // without being painted, and later pixel fetches for the same
        // image are cache hits that render the scene without a second fee.
        let pairs: Vec<(LocationId, Heading)> = service
            .covered_locations()
            .into_iter()
            .flat_map(|location| Heading::ALL.iter().map(move |&heading| (location, heading)))
            .collect();
        let mut pool = ScopedPool::new(self.config.parallelism);
        if let Some(obs) = &self.obs {
            pool = pool.with_metrics(Arc::clone(obs.registry()));
        }
        let capture_stage = self.obs.as_ref().map(|obs| obs.tracer().enter("capture"));
        let mapped = pool.try_map(&pairs, |&(location, heading)| -> Result<ImageLabels> {
            capture_unit(
                &service,
                &labeler,
                store.as_ref(),
                self.config.image_size,
                location,
                heading,
            )
        });
        if let Some(stage) = capture_stage {
            stage.record();
        }
        let annotations: Vec<ImageLabels> = match mapped {
            Ok(items) => items.into_iter().collect::<Result<_>>()?,
            Err(panicked) => {
                if let Some(store) = &store {
                    // forensic only — best-effort, since the journal itself
                    // may be the thing that is dying
                    let _ = store.save(
                        PANIC_RECORD_KIND,
                        &panicked.index.to_string(),
                        serde_json::json!({ "message": panicked.message }),
                    );
                }
                return Err(Error::service(format!("survey capture {panicked}")));
            }
        };
        let dataset = LabeledDataset::build(
            annotations,
            self.config.image_size,
            self.config.split,
            child_seed(self.config.seed, "split"),
        )?;
        if let Some(obs) = &self.obs {
            service.usage().publish(obs.registry());
        }
        Ok(SurveyDataset {
            config: self.config.clone(),
            service,
            dataset,
            coverage: None,
        })
    }
}

/// One capture-annotate unit: replay the journaled annotation when the
/// store has it, otherwise capture through the service (billing the scene
/// fee via the billing store first), annotate, and journal the result —
/// save-before-act end to end. Shared by the eager pipeline fan-out and the
/// sharded streaming path so both produce bit-identical records.
pub(crate) fn capture_unit(
    service: &StreetViewService,
    labeler: &HumanLabeler,
    store: Option<&Arc<dyn CheckpointStore>>,
    image_size: u32,
    location: LocationId,
    heading: Heading,
) -> Result<ImageLabels> {
    let id = ImageId::new(location, heading);
    if let Some(store) = store {
        // replay: the annotation was journaled after its scene fee,
        // so a journaled capture implies a journaled (restored,
        // prepaid) fee — the unit is skipped whole
        if let Some(value) = store.load(CAPTURE_RECORD_KIND, &id.to_string()) {
            let record = format!("capture record {id}");
            let labels: ImageLabels = serde_json::from_value(value)
                .map_err(|e| Error::parse(format!("{record}: {e}")))?;
            check_replayed_labels(&labels, |image| image == id, &record)?;
            return Ok(labels);
        }
    }
    let request = ImageRequest::builder(location, heading)
        .size(image_size)
        .build()?;
    let capture = service.capture(&request)?;
    let truth = ImageLabels::with_objects(id, capture.objects);
    let labels = labeler.annotate(&truth, image_size);
    if let Some(store) = store {
        store.save(
            CAPTURE_RECORD_KIND,
            &id.to_string(),
            serde_json::to_value(&labels)
                .map_err(|e| Error::parse(format!("capture record {id}: {e}")))?,
        )?;
    }
    Ok(labels)
}

/// Checks journaled labels before they can reach the dataset: a replayed
/// record is input from outside the process, so labels for an image the
/// record does not `cover`, or a box that is non-finite or has a negative
/// size, is an [`Error::Parse`] naming `record`, never a silent misparse.
/// Shared by the capture-record and shard-record replays.
pub(crate) fn check_replayed_labels(
    labels: &ImageLabels,
    covers: impl Fn(ImageId) -> bool,
    record: &str,
) -> Result<()> {
    let bad = |what: String| Error::parse(format!("{record}: {what}"));
    if !covers(labels.image) {
        return Err(bad(format!("labels are for {}", labels.image)));
    }
    for (i, object) in labels.objects.iter().enumerate() {
        let b = object.bbox;
        if ![b.x, b.y, b.w, b.h].iter().all(|v| v.is_finite()) || b.w < 0.0 || b.h < 0.0 {
            return Err(bad(format!(
                "{}: object {i}: non-finite or negative-size box",
                labels.image
            )));
        }
    }
    Ok(())
}

/// A completed survey: the imagery service, the human-labeled dataset, and
/// accessors for images, ground truth, and VLM contexts.
#[derive(Debug, Clone)]
pub struct SurveyDataset {
    config: SurveyConfig,
    service: Arc<StreetViewService>,
    dataset: LabeledDataset,
    coverage: Option<crate::CoverageReport>,
}

impl SurveyDataset {
    /// Assembles a survey from parts the sharded runner built itself.
    pub(crate) fn from_parts(
        config: SurveyConfig,
        service: Arc<StreetViewService>,
        dataset: LabeledDataset,
        coverage: crate::CoverageReport,
    ) -> SurveyDataset {
        SurveyDataset {
            config,
            service,
            dataset,
            coverage: Some(coverage),
        }
    }

    /// The survey configuration.
    pub fn config(&self) -> &SurveyConfig {
        &self.config
    }

    /// The coverage report, when this survey came from the shard driver
    /// ([`crate::run_supervised`]). The eager [`SurveyPipeline`] runs to
    /// full coverage or aborts, so it carries `None`.
    pub fn coverage(&self) -> Option<&crate::CoverageReport> {
        self.coverage.as_ref()
    }

    /// The honest location-coverage fraction: `1.0` unless a supervised
    /// run quarantined or skipped locations.
    pub fn coverage_fraction(&self) -> f64 {
        self.coverage.as_ref().map_or(1.0, |c| c.fraction())
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

    /// Imagery-service usage so far (requests, fees, cache hits).
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
    fn obs_records_capture_span_and_publishes_imagery_usage() {
        let obs = Obs::default();
        let survey = SurveyPipeline::new(SurveyConfig::smoke(17))
            .with_obs(obs.clone())
            .run()
            .unwrap();
        let summary = obs.summary();
        assert!(summary.spans.iter().any(|s| s.key == "capture"));
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

    /// Runs one capture unit for `id` over a store that already holds
    /// `record` for it, so the unit replays instead of capturing.
    fn replay(id: ImageId, record: &str) -> Result<ImageLabels> {
        let store: Arc<dyn CheckpointStore> = Arc::new(nbhd_journal::MemoryStore::new());
        let value = serde_json::from_str(record).unwrap();
        store
            .save(CAPTURE_RECORD_KIND, &id.to_string(), value)
            .unwrap();
        let config = SurveyConfig::smoke(19);
        let labeler = HumanLabeler::new(config.labeler_profile(), 19);
        let service = StreetViewService::new(19, &[]);
        capture_unit(
            &service,
            &labeler,
            Some(&store),
            128,
            id.location,
            id.heading,
        )
    }

    /// A capture record of one sidewalk box of width `w`.
    fn record(image: ImageId, w: f32) -> String {
        let bbox = nbhd_types::BBox::new(1.0, 2.0, w, 4.0);
        let object = nbhd_types::ObjectLabel::new(nbhd_types::Indicator::Sidewalk, bbox);
        serde_json::to_string(&ImageLabels::with_objects(image, vec![object])).unwrap()
    }

    fn assert_parse_error(out: Result<ImageLabels>, id: ImageId) {
        let prefix = format!("capture record {id}: ");
        assert!(
            matches!(&out, Err(Error::Parse(m)) if m.starts_with(&prefix)),
            "{out:?}"
        );
    }

    #[test]
    fn replayed_capture_record_for_another_image_is_a_parse_error() {
        let id = ImageId::new(LocationId(3), Heading::North);
        assert_eq!(replay(id, &record(id, 3.0)).unwrap().image, id);
        let other = ImageId::new(LocationId(4), Heading::North);
        assert_parse_error(replay(id, &record(other, 3.0)), id);
    }

    #[test]
    fn replayed_capture_record_with_a_bad_box_is_a_parse_error() {
        let id = ImageId::new(LocationId(3), Heading::East);
        assert_parse_error(replay(id, &record(id, -3.0)), id);
        // 1e39 overflows f32 to infinity on decode
        let infinite = record(id, 7.25).replace("7.25", "1e39");
        assert_ne!(infinite, record(id, 7.25));
        assert_parse_error(replay(id, &infinite), id);
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
