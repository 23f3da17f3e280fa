//! The streaming sharded data path: generate → capture → label, one shard
//! of the survey at a time.
//!
//! [`crate::run_supervised`] never registers more than one shard's points
//! at once: each shard gets its own [`StreetViewService`] registered over
//! just that shard's points, the shard is captured and labeled, its
//! annotations are folded out, and the service (with its cache of billed
//! scene keys) is dropped before the next shard loads. No service keeps
//! pixels, and a capture paints none: it labels the scene for its unit to
//! annotate, and a later pixel fetch renders the scene. On clean data the
//! merged [`crate::SurveyDataset`] is **byte-identical** at any shard count
//! and any worker count — shard membership is a pure function of the
//! location id ([`ShardPlan::assign`]), every capture unit is seeded by its
//! image id, and [`merge_shard_annotations`] folds the batches back into
//! one canonical order.
//!
//! This module holds what the stream yields — the [`ShardedOutcome`], the
//! merge, and the [`SurveyShardSource`] that trains over the shards — and
//! the stream's metric names. With a [`nbhd_journal::CheckpointStore`]
//! attached the stream is crash-safe at two granularities: a completed
//! shard replays from its one shard record, and a shard that died midway
//! re-runs with its completed capture units (and their scene fees) replayed
//! from their capture records, which do not depend on the shard count, so a
//! run journaled at one shard count resumes at another.

use std::collections::HashMap;
use std::sync::Arc;

use nbhd_detect::{Detector, DetectorConfig, ShardData, ShardSource, TrainConfig, Trainer};
use nbhd_geo::{ShardPlan, SurveyPoint, SurveySample};
use nbhd_gsv::StreetViewService;
use nbhd_obs::Obs;
use nbhd_types::{ImageId, ImageLabels, Result};

use crate::{SurveyDataset, SurveyImageProvider};

/// Gauge: the run's peak cached scene keys — the maximum, over shards, of
/// each shard service's cache high-water mark. It counts billed scenes a
/// service remembers, not pixels it holds: services hold none. It is
/// deterministic for a fresh run at any worker count (the cache only grows
/// below its eviction cap, so the high-water mark is the shard's distinct
/// scene count). The
/// `.peak` suffix opts it into `RunArtifact::merge_shards`' max-folding
/// gauge convention, so it survives distributed merges.
pub const SHARD_PEAK_GAUGE: &str = "core.shard.resident_scenes.peak";

/// Wall-clock histogram: one sample per shard, milliseconds spent in that
/// shard's generate→capture→label pass. Scheduling-dependent by nature, so
/// it lands in the wall (non-deterministic) histogram surface.
pub const SHARD_WALL_MS_HIST: &str = "core.shard.wall_ms";

/// Counter: how many shards the run was split into.
pub const SHARD_COUNT_METRIC: &str = "core.shard.count";

/// The outcome of a sharded run: the merged survey plus the memory
/// accounting the streaming pass observed.
#[derive(Debug)]
pub struct ShardedOutcome {
    pub(crate) survey: SurveyDataset,
    pub(crate) sample: SurveySample,
    pub(crate) plan: ShardPlan,
    pub(crate) obs: Obs,
    pub(crate) peak_resident_scenes: usize,
    pub(crate) shard_images: Vec<usize>,
}

impl ShardedOutcome {
    /// The merged survey — byte-identical at any shard count.
    pub fn survey(&self) -> &SurveyDataset {
        &self.survey
    }

    /// Consumes the outcome, keeping only the survey.
    pub fn into_survey(self) -> SurveyDataset {
        self.survey
    }

    /// The run's coverage report. Always `Some`: every run is supervised,
    /// so a capture failure quarantines and shows here.
    pub fn coverage(&self) -> Option<&crate::CoverageReport> {
        Some(self.survey.coverage())
    }

    /// Peak scene keys cached at once across the whole run: the maximum of
    /// the per-shard service high-water marks, never the study total.
    pub fn peak_resident_scenes(&self) -> usize {
        self.peak_resident_scenes
    }

    /// Images captured per shard, in shard order.
    pub fn shard_images(&self) -> &[usize] {
        &self.shard_images
    }

    /// Scenes billed across the run (all shards, all processes when
    /// journaled), as the survey's meter reads them.
    pub fn billed_images(&self) -> u64 {
        self.survey.imagery_usage().billed_images
    }

    /// Total imagery fees in USD, as the survey's meter reads them: folded
    /// by repeated addition, so the bits do not depend on the shard count.
    pub fn fees_usd(&self) -> f64 {
        self.survey.imagery_usage().fees_usd
    }

    /// A [`ShardSource`] over this survey: each `load` rebuilds a
    /// shard-scoped service with the shard's labeled scenes prepaid, so
    /// training streams pixels shard by shard too and bills no scene.
    pub fn shard_source(&self) -> SurveyShardSource {
        let labels = self
            .survey
            .images()
            .iter()
            .map(|&id| {
                let labels = self
                    .survey
                    .dataset()
                    .labels(id)
                    .expect("dataset images all have labels")
                    .clone();
                (id, labels)
            })
            .collect();
        SurveyShardSource {
            seed: self.survey.config().seed,
            image_size: self.survey.config().image_size,
            plan: self.plan,
            points: self.sample.points().to_vec(),
            labels,
        }
    }

    /// Trains a detector over the shard stream, never materializing the
    /// whole training set's pixels. [`Trainer::fit`] over the merged
    /// dataset is the one-shard case of the same fit, so the weights do not
    /// depend on the shard count. The fit and the coverage gauge record into
    /// the run's bundle.
    ///
    /// # Errors
    ///
    /// Propagates training failures.
    pub fn train_sharded(&self, train: TrainConfig, detector: DetectorConfig) -> Result<Detector> {
        let trainer = Trainer::new(train, detector).with_obs(self.obs.clone());
        // a partial survey trains on what it has; the gauge makes the
        // shortfall part of the training run's observable identity
        self.obs.registry().set_gauge(
            crate::COVERAGE_FRACTION_GAUGE,
            self.survey.coverage_fraction(),
        );
        let source = self.shard_source();
        let split = self.survey.dataset().split();
        let size = self.survey.dataset().image_size();
        trainer.fit_sharded(split, size, &source)
    }
}

/// Folds per-shard annotation batches into the canonical survey order:
/// ascending image id, which is exactly what the unsharded pipeline emits
/// (sorted covered locations × the four headings in `Heading::ALL` order).
///
/// Pure and order-independent: image ids are unique across shards, so any
/// permutation of the batches — and any order within a batch — folds to
/// the same vector.
pub fn merge_shard_annotations(batches: Vec<Vec<ImageLabels>>) -> Vec<ImageLabels> {
    let mut all: Vec<ImageLabels> = batches.into_iter().flatten().collect();
    all.sort_by_key(|labels| labels.image);
    all
}

/// A [`ShardSource`] over a sharded survey: `load(i)` rebuilds shard `i`'s
/// scoped street-view service and hands back that shard's annotations.
/// The service renders every pixel fetch, so the trainer holds no scene
/// cache of pixels, and the billed keys it remembers are bounded by the
/// largest shard. Every labeled image was captured, so the run paid for
/// its scene: the service starts with the shard's labeled scenes on its
/// ledger, and a training fetch is a cache hit, never a fee.
#[derive(Debug)]
pub struct SurveyShardSource {
    seed: u64,
    image_size: u32,
    plan: ShardPlan,
    points: Vec<SurveyPoint>,
    labels: HashMap<ImageId, ImageLabels>,
}

impl ShardSource for SurveyShardSource {
    type Provider = SurveyImageProvider;

    fn shards(&self) -> usize {
        self.plan.shards()
    }

    fn load(&self, shard: usize) -> Result<ShardData<SurveyImageProvider>> {
        let points: Vec<SurveyPoint> = self
            .points
            .iter()
            .filter(|p| self.plan.assign(p.id) == shard)
            .cloned()
            .collect();
        let labels: HashMap<ImageId, ImageLabels> = self
            .labels
            .iter()
            .filter(|(id, _)| self.plan.assign(id.location) == shard)
            .map(|(id, labels)| (*id, labels.clone()))
            .collect();
        let paid = labels.keys().map(|&id| (id, self.image_size));
        let service = StreetViewService::new(self.seed, &points).with_ledger(paid, 0, 0);
        Ok(ShardData {
            labels,
            provider: SurveyImageProvider {
                service: Arc::new(service),
                image_size: self.image_size,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_supervised, SupervisePolicy, SurveyConfig, SurveyPipeline};
    use nbhd_journal::{CheckpointStore, MemoryStore};

    /// The plain stream: default policy, no poison, on a fresh bundle.
    fn stream(
        config: &SurveyConfig,
        shards: usize,
        store: Option<Arc<dyn CheckpointStore>>,
    ) -> ShardedOutcome {
        observed_stream(config, shards, store, &Obs::new())
    }

    /// The plain stream on the caller's bundle.
    fn observed_stream(
        config: &SurveyConfig,
        shards: usize,
        store: Option<Arc<dyn CheckpointStore>>,
        obs: &Obs,
    ) -> ShardedOutcome {
        let plan = ShardPlan::new(shards).unwrap();
        run_supervised(
            config,
            plan,
            SupervisePolicy::default(),
            None,
            store,
            Some(obs),
        )
        .unwrap()
    }

    #[test]
    fn sharded_run_is_byte_identical_to_the_pipeline() {
        let config = SurveyConfig::smoke(51);
        let unsharded = SurveyPipeline::new(config.clone()).run().unwrap();
        for shards in [1usize, 2, 4] {
            let outcome = stream(&config, shards, None);
            assert_eq!(
                outcome.survey().dataset(),
                unsharded.dataset(),
                "{shards} shards must merge to the pipeline's dataset"
            );
            assert_eq!(
                outcome.billed_images(),
                unsharded.imagery_usage().billed_images
            );
            assert_eq!(
                outcome.fees_usd().to_bits(),
                unsharded.imagery_usage().fees_usd.to_bits(),
                "fees must fold to the same bits"
            );
            let report = outcome.coverage().expect("coverage stamped");
            assert_eq!(report.fraction(), 1.0);
            assert_eq!(report.quarantined_count(), 0);
            assert_eq!(report.skipped_count(), 0);
            assert_eq!(report.timed_out_shards(), 0);
        }
    }

    #[test]
    fn sharding_bounds_peak_resident_scenes() {
        let config = SurveyConfig::smoke(52);
        let outcome = stream(&config, 4, None);
        let total = outcome.survey().images().len();
        let largest = *outcome.shard_images().iter().max().unwrap();
        assert!(largest < total, "four shards must each be a strict subset");
        assert!(
            outcome.peak_resident_scenes() <= largest,
            "peak {} exceeds largest shard {largest}",
            outcome.peak_resident_scenes()
        );
        assert!(outcome.peak_resident_scenes() > 0);
    }

    #[test]
    fn sharded_run_publishes_shard_metrics() {
        let config = SurveyConfig::smoke(52);
        let obs = Obs::default();
        let plain = stream(&config, 3, None);
        let observed = observed_stream(&config, 3, None, &obs);
        assert_eq!(
            plain.survey().dataset(),
            observed.survey().dataset(),
            "observability must not change the merge"
        );
        let summary = obs.summary();
        assert_eq!(summary.metrics.counters[SHARD_COUNT_METRIC], 3);
        assert_eq!(
            summary.metrics.gauges[SHARD_PEAK_GAUGE],
            observed.peak_resident_scenes() as f64
        );
        assert_eq!(
            summary.metrics.wall_histograms[SHARD_WALL_MS_HIST].count(),
            3,
            "one wall sample per shard"
        );
        for shard in 0..3 {
            let key = format!("shard-{shard}");
            assert!(
                summary.spans.iter().any(|s| s.name == key),
                "missing span {key}"
            );
        }
    }

    #[test]
    fn journaled_shards_replay_on_resume() {
        let config = SurveyConfig::smoke(53);
        let fresh = stream(&config, 3, None);

        let store: Arc<dyn CheckpointStore> = Arc::new(MemoryStore::new());
        let first = stream(&config, 3, Some(Arc::clone(&store)));
        assert_eq!(first.survey().dataset(), fresh.survey().dataset());
        assert_eq!(first.billed_images(), fresh.billed_images());

        // a resumed run replays every shard record: same dataset, same
        // whole-run billing, no new fees
        let resumed = stream(&config, 3, Some(store));
        assert_eq!(resumed.survey().dataset(), fresh.survey().dataset());
        assert_eq!(resumed.billed_images(), fresh.billed_images());
        assert_eq!(
            resumed.fees_usd().to_bits(),
            fresh.fees_usd().to_bits(),
            "restored fees must be byte-identical"
        );
        assert_eq!(
            resumed.peak_resident_scenes(),
            fresh.peak_resident_scenes(),
            "replayed shards keep the journaled high-water mark"
        );
    }

    #[test]
    fn sharded_run_resumes_a_journal_written_unsharded() {
        // kill/resume mid-shard: the pipeline journaled every capture unit
        // (but no shard records), so the sharded run finds each shard
        // "partially complete" and replays unit by unit — no re-renders,
        // no new fees, identical merge
        let config = SurveyConfig::smoke(54);
        let store: Arc<dyn CheckpointStore> = Arc::new(MemoryStore::new());
        let unsharded = SurveyPipeline::new(config.clone())
            .run_with_store(Some(Arc::clone(&store)))
            .unwrap();

        let resumed = stream(&config, 4, Some(store));
        assert_eq!(resumed.survey().dataset(), unsharded.dataset());
        assert_eq!(
            resumed.billed_images(),
            unsharded.imagery_usage().billed_images,
            "replayed units must not re-bill"
        );
        assert_eq!(
            resumed.peak_resident_scenes(),
            0,
            "every scene replayed from the journal; nothing rendered"
        );
    }

    #[test]
    fn shard_training_services_bill_no_fresh_scene() {
        use nbhd_detect::ImageProvider;
        let config = SurveyConfig::smoke(56);
        let journaled: Arc<dyn CheckpointStore> = Arc::new(MemoryStore::new());
        for store in [None, Some(journaled)] {
            let outcome = stream(&config, 3, store);
            let source = outcome.shard_source();
            for shard in 0..source.shards() {
                let data = source.load(shard).unwrap();
                for &id in data.labels.keys() {
                    data.provider.image(id).unwrap();
                }
                let service = &data.provider.service;
                assert!(service.billed_scenes().is_empty(), "shard {shard} billed");
                assert_eq!(service.usage().cache_hits, data.labels.len() as u64);
            }
        }
    }

    #[test]
    fn sharded_training_matches_eager_training() {
        let config = SurveyConfig::smoke(55);
        let outcome = stream(&config, 3, None);
        let train = TrainConfig {
            epochs: 2,
            hard_negative_rounds: 1,
            seed: config.seed,
            ..TrainConfig::default()
        };
        let detector = DetectorConfig {
            shrink: 4,
            ..DetectorConfig::default()
        };
        let eager = Trainer::new(train.clone(), detector.clone())
            .fit(outcome.survey().dataset(), &outcome.survey().provider())
            .unwrap();
        let sharded = outcome.train_sharded(train, detector).unwrap();
        assert_eq!(eager, sharded, "shard streaming must not change weights");
    }
}
