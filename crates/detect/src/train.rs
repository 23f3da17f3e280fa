//! Training: SGD over window features with hard-negative mining, plus
//! validation-split threshold calibration.
//!
//! Mirrors the study's baseline recipe: "trained the model in 20 epochs with
//! a batch size of 16" on the 70% training split, with the 20% validation
//! split used for operating-point selection.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use nbhd_annotate::{DatasetSplit, LabeledDataset};
use nbhd_obs::Obs;
use nbhd_raster::RasterImage;
use nbhd_types::rng::{child_seed, child_seed_n, rng_from};
use nbhd_types::{BBox, Error, ImageId, ImageLabels, Indicator, IndicatorMap, Result};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use nbhd_exec::{Parallelism, ScopedPool};

use crate::detector::{ScanCount, ScanPlan};
use crate::eval::scored_matches;
use crate::{AnchorRun, AnchorWindow, ClassScorer, Detector, DetectorConfig, IntegralChannels};

/// Counter of the windows a fit's mining and calibration scans covered.
pub const SCAN_WINDOWS_METRIC: &str = "detect.scan.windows";

/// Counter of those windows the exact kernel scored: the rest were skipped
/// by the scan's score-bound gate.
pub const SCAN_EXACT_METRIC: &str = "detect.scan.windows_exact";

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// SGD epochs (the study used 20).
    pub epochs: u32,
    /// Mini-batch size (the study used 16).
    pub batch_size: usize,
    /// Initial learning rate, decayed linearly per epoch.
    pub learning_rate: f32,
    /// L2 regularization strength.
    pub l2: f32,
    /// Random negative windows sampled per image per class.
    pub negatives_per_image: usize,
    /// Hard-negative-mining rounds after the initial fit.
    pub hard_negative_rounds: u32,
    /// Maximum hard negatives harvested per image per round.
    pub hard_negatives_per_image: usize,
    /// Extra jittered copies per positive window.
    pub positive_jitter: usize,
    /// Root seed for sampling and shuffling.
    pub seed: u64,
    /// Worker-thread budget for the per-image harvest, mining and
    /// calibration passes and for SGD, which trains the mixture components
    /// side by side.
    /// Trained weights are bit-identical at any setting.
    pub parallelism: Parallelism,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 16,
            learning_rate: 0.3,
            l2: 1e-5,
            negatives_per_image: 8,
            hard_negative_rounds: 3,
            hard_negatives_per_image: 15,
            positive_jitter: 2,
            seed: 0,
            parallelism: Parallelism::auto(),
        }
    }
}

/// One image's harvested window examples: `(class, mixture component,
/// feature, label)` tuples, in harvest order.
type Examples = Vec<(Indicator, usize, Vec<f32>, f32)>;

/// One shard of a streamed training set: the annotations for every image
/// the shard holds, plus a pixel source scoped to those images.
///
/// A shard is materialized, consumed, and dropped before the next shard
/// loads, so the trainer's resident pixel/integral footprint is one
/// shard's worth regardless of how large the full study is.
pub struct ShardData<P> {
    /// Annotations for each image in this shard.
    pub labels: HashMap<ImageId, ImageLabels>,
    /// Pixel source for exactly this shard's images.
    pub provider: P,
}

/// A streamed training set: `shards()` disjoint [`ShardData`] pieces,
/// materialized one at a time by [`Trainer::fit_sharded`].
///
/// `load` must be deterministic (same shard → same labels and pixels) and
/// the shards must partition the dataset: every train/val image appears in
/// exactly one shard.
pub trait ShardSource {
    /// The pixel source a loaded shard exposes.
    type Provider: ImageProvider + Sync;

    /// Number of shards.
    fn shards(&self) -> usize;

    /// Materializes one shard.
    ///
    /// # Errors
    ///
    /// Implementations return an error when the shard cannot be produced.
    fn load(&self, shard: usize) -> Result<ShardData<Self::Provider>>;
}

/// Provides pixels for an image id (the trainer is storage-agnostic).
pub trait ImageProvider {
    /// Fetches the image.
    ///
    /// # Errors
    ///
    /// Implementations return an error when the image cannot be produced.
    fn image(&self, id: ImageId) -> Result<RasterImage>;
}

impl<F> ImageProvider for F
where
    F: Fn(ImageId) -> Result<RasterImage>,
{
    fn image(&self, id: ImageId) -> Result<RasterImage> {
        self(id)
    }
}

/// Trains [`Detector`]s from a [`LabeledDataset`].
///
/// Harvest, mining, SGD and calibration all run on one worker pool sized
/// by [`TrainConfig::parallelism`]. Harvest draws from per-image seeds and
/// SGD gives each mixture component its own slice of the trainer RNG
/// stream, so the trained detector does not depend on the worker count.
#[derive(Debug, Clone, Default)]
pub struct Trainer {
    /// Training hyperparameters.
    pub train: TrainConfig,
    /// Detector (inference-side) configuration.
    pub detector: DetectorConfig,
    obs: Obs,
}

/// One mixture component's training pool.
#[derive(Default)]
struct ClassPool {
    features: Vec<Vec<f32>>,
    labels: Vec<f32>,
}

impl Trainer {
    /// Creates a trainer from configs, with its own fresh observability
    /// bundle; see [`Trainer::with_obs`].
    pub fn new(train: TrainConfig, detector: DetectorConfig) -> Self {
        Trainer {
            train,
            detector,
            obs: Obs::new(),
        }
    }

    /// Swaps the trainer's own fresh bundle for the run's: the harvest,
    /// each mining round, each SGD pass (`sgd-0` for the initial fit,
    /// `sgd-{round+1}` after each mining round), and calibration record
    /// stage spans there, and the fan-outs record execution counters into
    /// its registry. Does not affect the trained weights. A clone of the
    /// trainer shares its bundle, so it must not fit while the original
    /// does: one bundle has one span stack.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Trainer {
        self.obs = obs;
        self
    }

    /// The worker pool this trainer fits on: [`TrainConfig::parallelism`]
    /// workers, recording execution counters into the trainer's bundle's
    /// registry. Callers evaluate a fitted detector on it too, so a fit
    /// and its evaluation share one worker budget.
    pub fn pool(&self) -> ScopedPool {
        ScopedPool::new(self.train.parallelism).with_metrics(Arc::clone(self.obs.registry()))
    }

    /// Trains on the dataset's train split, then calibrates per-class
    /// thresholds on the validation split.
    ///
    /// The dataset is the one-shard case of [`Trainer::fit_sharded`]:
    /// pixels come from `provider` image by image, and mining fetches them
    /// again each round instead of keeping every image's integral channels.
    ///
    /// # Errors
    ///
    /// Propagates provider failures; returns [`Error::Config`] when the
    /// train split is empty.
    pub fn fit<P: ImageProvider + Sync>(
        &self,
        dataset: &LabeledDataset,
        provider: &P,
    ) -> Result<Detector> {
        let source = OneShard { dataset, provider };
        self.fit_sharded(dataset.split(), dataset.image_size(), &source)
    }

    /// Trains over a sharded stream: the training set is consumed one
    /// [`ShardData`] at a time — harvest, each mining round, and
    /// calibration re-materialize shards instead of holding every image's
    /// integral channels at once — so peak resident pixel/integral memory
    /// is one shard's worth, not the study's. [`Trainer::fit`] is the
    /// one-shard case.
    ///
    /// Per-image harvests are keyed by image id (not arrival order),
    /// harvested chunks are re-folded into the canonical `split.train`
    /// order before pooling, and threshold calibration counts are
    /// multiset-invariant, so neither shard count nor shard arrival order
    /// can reach the weights.
    ///
    /// # Errors
    ///
    /// Propagates shard-source failures; returns
    /// [`Error::Config`] when the train split is empty or a split image
    /// appears in no shard.
    pub fn fit_sharded<S: ShardSource>(
        &self,
        split: &DatasetSplit,
        image_size: u32,
        source: &S,
    ) -> Result<Detector> {
        let train_ids = &split.train;
        if train_ids.is_empty() {
            return Err(Error::config("training split is empty"));
        }
        let mut detector = Detector::untrained(self.detector.clone());
        let mut rng = rng_from(child_seed(self.train.seed, "trainer"));
        let pool = self.pool();

        // Pass 1: harvest positive and random-negative windows, featurized
        // and routed to the mixture component of their generating template.
        // Each image draws from its own seed and the chunks are pooled in
        // split.train order, so neither the worker count nor the shards
        // reach the SGD input. Integrals are dropped image by image.
        let harvest_stage = self.obs.tracer().enter("harvest");
        let harvested = map_train(&pool, train_ids, source, |id, labels, provider| {
            let img = provider.image(id)?;
            let integral = detector.integral(&img);
            Ok(self.harvest_image(&detector, labels, &integral, img.width(), id))
        })?;
        let mut pools: IndicatorMap<Vec<ClassPool>> = IndicatorMap::from_fn(|i| {
            (0..detector.anchors[i].templates.len())
                .map(|_| ClassPool::default())
                .collect()
        });
        for (ind, template, feature, label) in harvested.into_iter().flatten() {
            let pool = &mut pools[ind][template];
            pool.features.push(feature);
            pool.labels.push(label);
        }
        harvest_stage.record();

        self.sgd(0, &mut detector, &pools, &mut rng, &pool);

        // The anchors and cell size never change during a fit, so mining
        // and calibration share one scan plan.
        let plan = OnceLock::new();
        let mut scanned = ScanCount::default();

        // Hard-negative mining rounds: collect confident mistakes, extend
        // the pools, refit. Each round re-fetches pixels and rebuilds the
        // integrals (compute is cheap to redo; memory is what we bound).
        for round in 0..self.train.hard_negative_rounds {
            let mine_stage = self.obs.tracer().enter(&format!("mine-{round}"));
            let mined = map_train(&pool, train_ids, source, |id, labels, provider| {
                let integral = detector.integral(&provider.image(id)?);
                Ok(self.mine_image(&detector, &plan, &integral, labels, image_size))
            })?;
            let mut added = 0usize;
            for (negatives, count) in mined {
                scanned += count;
                for (ind, template, feature) in negatives {
                    let pool = &mut pools[ind][template];
                    pool.features.push(feature);
                    pool.labels.push(0.0);
                    added += 1;
                }
            }
            mine_stage.record();
            if added == 0 {
                break;
            }
            self.sgd(round + 1, &mut detector, &pools, &mut rng, &pool);
        }

        // Threshold calibration, shard by shard: the sweep consumes only
        // per-class (score, matched) multisets and positive counts, both
        // order-independent, so per-shard accumulation lands on the same
        // thresholds at any shard count.
        if !split.val.is_empty() {
            let stage = self.obs.tracer().enter("calibrate");
            let mut scored: IndicatorMap<Vec<(f32, bool)>> = IndicatorMap::from_fn(|_| Vec::new());
            let mut positives = IndicatorMap::fill(0usize);
            let mut covered = 0usize;
            for s in 0..source.shards() {
                let data = source.load(s)?;
                let items: Vec<(ImageId, ImageLabels)> = split
                    .val
                    .iter()
                    .filter_map(|id| data.labels.get(id).map(|l| (*id, l.clone())))
                    .collect();
                if items.is_empty() {
                    continue;
                }
                covered += items.len();
                let ((shard_scored, shard_positives), count) =
                    scored_matches(&detector, &items, &data.provider, &pool, &plan)?;
                scanned += count;
                for (idx, local) in shard_scored.into_array().into_iter().enumerate() {
                    let ind = Indicator::from_index(idx).expect("index < 6");
                    scored[ind].extend(local);
                    positives[ind] += shard_positives[ind];
                }
            }
            if covered != split.val.len() {
                return Err(Error::config(format!(
                    "validation images missing from shards: {covered} of {}",
                    split.val.len()
                )));
            }
            self.sweep_thresholds(&mut detector, &scored, &positives);
            stage.record();
        }
        self.obs
            .registry()
            .add(SCAN_WINDOWS_METRIC, scanned.windows);
        self.obs.registry().add(SCAN_EXACT_METRIC, scanned.exact);
        Ok(detector)
    }

    /// Harvests one image's positive and negative windows and featurizes
    /// each on `integral`. Every random draw comes from a seed keyed by the
    /// image id, so the result depends only on `(config, detector anchors,
    /// labels, pixels)`, whatever the shard or worker that harvests it.
    fn harvest_image(
        &self,
        detector: &Detector,
        labels: &ImageLabels,
        integral: &IntegralChannels,
        size: u32,
        id: ImageId,
    ) -> Examples {
        let mut rng = rng_from(child_seed_n(self.train.seed, "harvest", id.key()));
        let mut windows: Vec<(Indicator, usize, BBox, f32)> = Vec::new();
        for ind in Indicator::ALL {
            let gt: Vec<BBox> = labels.of_class(ind).map(|o| o.bbox).collect();
            // positives: snapped anchors + jitter
            for &b in &gt {
                let (template, snapped, iou) = detector.anchors[ind].snap(b, size);
                let window = if iou >= 0.3 { snapped } else { b };
                windows.push((ind, template, window, 1.0));
                for _ in 0..self.train.positive_jitter {
                    let dx = rng.random_range(-1.0..1.0) * self.detector.shrink as f32;
                    let dy = rng.random_range(-1.0..1.0) * self.detector.shrink as f32;
                    windows.push((ind, template, window.translate(dx, dy), 1.0));
                }
            }
            // cross-class negatives: the confusable class's objects,
            // snapped to this class's anchors, labeled negative so the
            // scorer learns the distinction (single vs. multilane road,
            // streetlight vs. utility pole)
            if let Some(confusable) = confusable_class(ind) {
                for o in labels.of_class(confusable) {
                    let (template, snapped, iou) = detector.anchors[ind].snap(o.bbox, size);
                    if iou >= 0.3 {
                        windows.push((ind, template, snapped, 0.0));
                    }
                }
            }
            // random negatives with low IoU against this class's truth,
            // spread across every component
            let runs = detector.anchors[ind].runs(size, self.detector.shrink);
            // runs come template by template, each template's scales in order
            for of_template in runs.chunk_by(|a, b| a.template == b.template) {
                let total: usize = of_template.iter().map(AnchorRun::len).sum();
                let mut taken = 0usize;
                let mut attempts = 0usize;
                while taken < self.train.negatives_per_image && attempts < 200 {
                    attempts += 1;
                    let w = nth_window(of_template, rng.random_range(0..total));
                    if gt.iter().all(|g| g.iou(w.bbox) < 0.3) {
                        windows.push((ind, w.template, w.bbox, 0.0));
                        taken += 1;
                    }
                }
            }
        }
        windows
            .into_iter()
            .map(|(ind, template, window, label)| {
                (ind, template, integral.window_feature(window), label)
            })
            .collect()
    }

    /// Mines one image's confident false positives against the current
    /// detector: a low-threshold scan, keeping detections with no matching
    /// ground truth, capped per class. Also returns the scan's counts.
    fn mine_image(
        &self,
        detector: &Detector,
        plan: &OnceLock<ScanPlan>,
        integral: &IntegralChannels,
        labels: &ImageLabels,
        size: u32,
    ) -> (Vec<(Indicator, usize, Vec<f32>)>, ScanCount) {
        // scan low so marginal false positives are mined too
        let (dets, count) = detector.scan_planned(plan, integral, size, 0.3);
        let mut taken = IndicatorMap::fill(0usize);
        let mut out: Vec<(Indicator, usize, Vec<f32>)> = Vec::new();
        for det in dets {
            if taken[det.indicator] >= self.train.hard_negatives_per_image {
                continue;
            }
            let gt_iou = labels
                .of_class(det.indicator)
                .map(|o| o.bbox.iou(det.bbox))
                .fold(0.0f32, f32::max);
            if gt_iou < 0.25 {
                let template = detector.anchors[det.indicator].nearest_template(det.bbox, size);
                out.push((det.indicator, template, integral.window_feature(det.bbox)));
                taken[det.indicator] += 1;
            }
        }
        (out, count)
    }

    /// SGD over every mixture component's pool, one component per job on
    /// `workers`. Recorded as span `sgd-{call}`.
    ///
    /// The trainer RNG feeds only the per-epoch shuffles, component by
    /// component in (indicator, template) order, and components share no
    /// other state. So a serial pass walks the components in that order,
    /// hands each trainable one a clone of the RNG as it stands, and then
    /// moves the RNG past that component's shuffles. Every job replays
    /// exactly the draws the serial loop would make, so the weights and
    /// the RNG's final state are bit-identical at any worker count.
    fn sgd(
        &self,
        call: u32,
        detector: &mut Detector,
        pools: &IndicatorMap<Vec<ClassPool>>,
        rng: &mut StdRng,
        workers: &ScopedPool,
    ) {
        let stage = self.obs.tracer().enter(&format!("sgd-{call}"));
        let mut jobs: Vec<(Indicator, usize, StdRng, f32)> = Vec::new();
        let mut scratch: Vec<usize> = Vec::new();
        for ind in Indicator::ALL {
            for (t_idx, pool) in pools[ind].iter().enumerate() {
                if pool.features.is_empty() {
                    continue;
                }
                // components with no positive examples stay strongly negative
                if pool.labels.iter().all(|&l| l < 0.5) {
                    detector.scorers[ind].components[t_idx] = ClassScorer {
                        bias: -6.0,
                        ..ClassScorer::zeros()
                    };
                    continue;
                }
                // class rebalancing: weight positives when they are scarce
                let n_pos = pool.labels.iter().filter(|&&l| l > 0.5).count().max(1);
                let n_neg = (pool.labels.len() - n_pos).max(1);
                let pos_weight = (n_neg as f32 / n_pos as f32).clamp(0.5, 4.0);
                jobs.push((ind, t_idx, rng.clone(), pos_weight));
                // a shuffle's draws depend on the slice length only
                scratch.clear();
                scratch.extend(0..pool.features.len());
                for _ in 0..self.train.epochs {
                    scratch.shuffle(rng);
                }
            }
        }
        let trained = workers.map(&jobs, |(ind, t_idx, job_rng, pos_weight)| {
            self.sgd_component(&pools[*ind][*t_idx], job_rng.clone(), *pos_weight)
        });
        for ((ind, t_idx, _, _), scorer) in jobs.iter().zip(trained) {
            detector.scorers[*ind].components[*t_idx] = scorer;
        }
        stage.record();
    }

    /// One component's epochs of shuffled SGD from a zeroed scorer.
    fn sgd_component(&self, pool: &ClassPool, mut rng: StdRng, pos_weight: f32) -> ClassScorer {
        let mut scorer = ClassScorer::zeros();
        let mut order: Vec<usize> = (0..pool.features.len()).collect();
        for epoch in 0..self.train.epochs {
            let lr = self.train.learning_rate
                * (1.0 - epoch as f32 / self.train.epochs.max(1) as f32).max(0.1);
            order.shuffle(&mut rng);
            for batch in order.chunks(self.train.batch_size) {
                for &i in batch {
                    let label = pool.labels[i];
                    let w = if label > 0.5 { pos_weight } else { 1.0 };
                    scorer.sgd_step(&pool.features[i], label, lr * w, self.train.l2);
                }
            }
        }
        scorer
    }

    /// Picks per-class thresholds maximizing *object-level* F1 on the
    /// validation split: each class's threshold comes from its
    /// `(score, matched)` multiset of scan detections matched against
    /// ground truth at IoU 0.5, and its ground-truth positive count.
    /// (Presence-level classification inherits the same operating points.)
    /// Pure counting — invariant to the order the scores were accumulated
    /// in, which is what lets calibration run shard by shard.
    fn sweep_thresholds(
        &self,
        detector: &mut Detector,
        scored: &IndicatorMap<Vec<(f32, bool)>>,
        positives: &IndicatorMap<usize>,
    ) {
        for ind in Indicator::ALL {
            let mut best_t = detector.thresholds[ind];
            let mut best_f1 = -1.0f64;
            for t20 in 2..=19 {
                let t = t20 as f32 / 20.0;
                let tp = scored[ind].iter().filter(|(s, c)| *s >= t && *c).count() as u64;
                let fp = scored[ind].iter().filter(|(s, c)| *s >= t && !*c).count() as u64;
                let fn_ = positives[ind] as u64 - tp.min(positives[ind] as u64);
                let c = nbhd_eval::BinaryConfusion { tp, fp, tn: 0, fn_ };
                let f1 = c.f1();
                if f1 > best_f1 {
                    best_f1 = f1;
                    best_t = t;
                }
            }
            detector.thresholds[ind] = best_t;
        }
    }
}

/// The eager fit's dataset and provider as a [`ShardSource`] of one shard.
struct OneShard<'a, P> {
    dataset: &'a LabeledDataset,
    provider: &'a P,
}

/// A borrowed provider, so [`OneShard`] can lend its provider to a shard.
struct Borrowed<'a, P>(&'a P);

impl<P: ImageProvider> ImageProvider for Borrowed<'_, P> {
    fn image(&self, id: ImageId) -> Result<RasterImage> {
        self.0.image(id)
    }
}

impl<'a, P: ImageProvider + Sync> ShardSource for OneShard<'a, P> {
    type Provider = Borrowed<'a, P>;

    fn shards(&self) -> usize {
        1
    }

    fn load(&self, _shard: usize) -> Result<ShardData<Borrowed<'a, P>>> {
        let labels = self
            .dataset
            .images()
            .iter()
            .map(|&id| Ok((id, self.dataset.labels(id)?.clone())))
            .collect::<Result<_>>()?;
        Ok(ShardData {
            labels,
            provider: Borrowed(self.provider),
        })
    }
}

/// Runs `f` on every train image, shard by shard on `pool`, and returns
/// the results in `train_ids` order, whatever shard each image came from.
fn map_train<S, T, F>(pool: &ScopedPool, train_ids: &[ImageId], source: &S, f: F) -> Result<Vec<T>>
where
    S: ShardSource,
    T: Send,
    F: Fn(ImageId, &ImageLabels, &S::Provider) -> Result<T> + Sync,
{
    let mut by_id: HashMap<ImageId, T> = HashMap::new();
    for s in 0..source.shards() {
        let data = source.load(s)?;
        let ids: Vec<ImageId> = train_ids
            .iter()
            .copied()
            .filter(|id| data.labels.contains_key(id))
            .collect();
        let results = pool.map(&ids, |&id| f(id, &data.labels[&id], &data.provider));
        for (id, result) in ids.into_iter().zip(results) {
            by_id.insert(id, result?);
        }
    }
    train_ids
        .iter()
        .map(|id| {
            by_id
                .remove(id)
                .ok_or_else(|| Error::config(format!("train image {id} missing from every shard")))
        })
        .collect()
}

/// The `i`-th window of a list of runs, taken run by run.
fn nth_window(runs: &[AnchorRun], mut i: usize) -> AnchorWindow {
    for run in runs {
        if i < run.len() {
            return run.window(i);
        }
        i -= run.len();
    }
    panic!("window index past the end of the runs")
}

/// The class a detector most plausibly confuses a given class with.
fn confusable_class(ind: Indicator) -> Option<Indicator> {
    match ind {
        Indicator::SingleLaneRoad => Some(Indicator::MultilaneRoad),
        Indicator::MultilaneRoad => Some(Indicator::SingleLaneRoad),
        Indicator::Streetlight => Some(Indicator::Powerline),
        Indicator::Powerline => Some(Indicator::Streetlight),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbhd_annotate::SplitRatios;
    use nbhd_geo::{RoadClass, Zoning};
    use nbhd_scene::{render, SceneGenerator, ViewKind};
    use nbhd_types::{Heading, ImageLabels, LocationId};

    /// Builds a small synthetic dataset with an in-memory provider.
    fn small_dataset(n: u64, size: u32) -> (LabeledDataset, HashMap<ImageId, RasterImage>) {
        let generator = SceneGenerator::new(31);
        let mut labels = Vec::new();
        let mut images = HashMap::new();
        for loc in 0..n {
            let id = ImageId::new(LocationId(loc), Heading::North);
            let zone = if loc % 2 == 0 {
                Zoning::Urban
            } else {
                Zoning::Rural
            };
            let class = if loc % 3 == 0 {
                RoadClass::Multilane
            } else {
                RoadClass::SingleLane
            };
            let view = if loc % 4 == 0 {
                ViewKind::AcrossRoad
            } else {
                ViewKind::AlongRoad
            };
            let spec = generator.compose_raw(id, zone, class, view);
            let (img, objs) = render(&spec, size);
            labels.push(ImageLabels::with_objects(id, objs));
            images.insert(id, img);
        }
        let ds = LabeledDataset::build(labels, size, SplitRatios::STUDY, 31).unwrap();
        (ds, images)
    }

    fn provider(images: HashMap<ImageId, RasterImage>) -> impl ImageProvider {
        move |id: ImageId| {
            images
                .get(&id)
                .cloned()
                .ok_or_else(|| Error::not_found(format!("{id}")))
        }
    }

    #[test]
    fn training_beats_chance_on_held_out_images() {
        let (ds, images) = small_dataset(90, 160);
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 10,
                hard_negative_rounds: 1,
                ..TrainConfig::default()
            },
            DetectorConfig {
                shrink: 4,
                ..DetectorConfig::default()
            },
        );
        let p = provider(images.clone());
        let detector = trainer.fit(&ds, &p).unwrap();

        // On held-out images the detector's best per-class score must be
        // higher when the class is present than when it is absent, for a
        // clear majority of classes (a small-sample-robust AUC-style check).
        let mut separated = 0usize;
        let mut evaluated = 0usize;
        for ind in Indicator::ALL {
            let mut present_scores = Vec::new();
            let mut absent_scores = Vec::new();
            for &id in ds.split().test.iter().chain(&ds.split().val) {
                let truth = ds.labels(id).unwrap().presence();
                let integral = detector.integral(&images[&id]);
                let score = detector.class_scores(&integral, 160)[ind];
                if truth.contains(ind) {
                    present_scores.push(score);
                } else {
                    absent_scores.push(score);
                }
            }
            if present_scores.len() < 2 || absent_scores.len() < 2 {
                continue;
            }
            evaluated += 1;
            let mean = |v: &Vec<f32>| v.iter().sum::<f32>() / v.len() as f32;
            if mean(&present_scores) > mean(&absent_scores) {
                separated += 1;
            }
        }
        assert!(evaluated >= 3, "too few classes evaluable ({evaluated})");
        assert!(
            separated * 3 >= evaluated * 2,
            "only {separated}/{evaluated} classes separate present from absent"
        );
    }

    #[test]
    fn fit_rejects_empty_split() {
        let (ds, images) = small_dataset(3, 64);
        // 3 images: stratified split may leave train non-empty; force empty
        // by building a dataset whose every image lands in test
        let trainer = Trainer::default();
        let p = provider(images);
        // the real assertion: an empty-train dataset errors
        let empty = LabeledDataset::build(
            vec![ImageLabels::new(ImageId::new(
                LocationId(0),
                Heading::North,
            ))],
            64,
            SplitRatios {
                train: 0.0,
                val: 0.0,
                test: 1.0,
            },
            1,
        )
        .unwrap();
        assert!(trainer.fit(&empty, &p).is_err());
        drop(ds);
    }

    #[test]
    fn obs_records_stage_spans_and_exec_counters_without_changing_weights() {
        let (ds, images) = small_dataset(20, 96);
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 3,
                hard_negative_rounds: 1,
                parallelism: Parallelism::fixed(1),
                ..TrainConfig::default()
            },
            DetectorConfig::default(),
        );
        let p = provider(images);
        let plain = trainer.fit(&ds, &p).unwrap();

        let obs = Obs::new();
        let observed = trainer.clone().with_obs(obs.clone()).fit(&ds, &p).unwrap();
        assert_eq!(plain, observed, "observability must not change training");

        let summary = obs.summary();
        let names: Vec<&str> = summary.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"harvest"), "spans: {names:?}");
        assert!(names.contains(&"mine-0"), "spans: {names:?}");
        assert!(names.contains(&"sgd-0"), "spans: {names:?}");
        assert!(names.contains(&"sgd-1"), "spans: {names:?}");
        assert!(names.contains(&"calibrate"), "spans: {names:?}");
        // every fan-out ran on the trainer's one-worker pool and recorded
        // into the run's registry: harvest, sgd-0, mine-0, sgd-1 and
        // calibration
        let exec = nbhd_exec::ExecSnapshot::from_metrics(&summary.metrics);
        assert_eq!((exec.parallel_calls, exec.serial_calls), (0, 5), "{exec:?}");
        let split = ds.split();
        assert!(
            exec.tasks >= (2 * split.train.len() + split.val.len()) as u64,
            "harvest, mining and calibration tasks expected, got {}",
            exec.tasks
        );
    }

    /// The serial SGD loop that trained every component one after another
    /// on the shared trainer RNG, kept as the reference the component jobs
    /// must reproduce bit for bit.
    fn reference_sgd(
        trainer: &Trainer,
        detector: &mut Detector,
        pools: &IndicatorMap<Vec<ClassPool>>,
        rng: &mut StdRng,
    ) {
        let train = &trainer.train;
        for ind in Indicator::ALL {
            for (t_idx, pool) in pools[ind].iter().enumerate() {
                if pool.features.is_empty() {
                    continue;
                }
                let scorer = &mut detector.scorers[ind].components[t_idx];
                *scorer = ClassScorer::zeros();
                let mut order: Vec<usize> = (0..pool.features.len()).collect();
                let n_pos = pool.labels.iter().filter(|&&l| l > 0.5).count().max(1);
                let n_neg = (pool.labels.len() - n_pos).max(1);
                let pos_weight = (n_neg as f32 / n_pos as f32).clamp(0.5, 4.0);
                if pool.labels.iter().all(|&l| l < 0.5) {
                    scorer.bias = -6.0;
                    continue;
                }
                for epoch in 0..train.epochs {
                    let lr = train.learning_rate
                        * (1.0 - epoch as f32 / train.epochs.max(1) as f32).max(0.1);
                    order.shuffle(rng);
                    for batch in order.chunks(train.batch_size) {
                        for &i in batch {
                            let label = pool.labels[i];
                            let w = if label > 0.5 { pos_weight } else { 1.0 };
                            scorer.sgd_step(&pool.features[i], label, lr * w, train.l2);
                        }
                    }
                }
            }
        }
    }

    /// Seeded pools of uneven sizes for every component, with one empty
    /// component and one component without positives among them.
    fn synthetic_pools(detector: &Detector) -> IndicatorMap<Vec<ClassPool>> {
        let mut rng = rng_from(5);
        let mut k = 0usize;
        IndicatorMap::from_fn(|ind| {
            (0..detector.anchors[ind].templates.len())
                .map(|_| {
                    k += 1;
                    let n = if k == 2 { 0 } else { 10 + 7 * k };
                    let mut pool = ClassPool::default();
                    for i in 0..n {
                        pool.features.push(
                            (0..crate::FEATURE_DIM)
                                .map(|_| rng.random_range(0.0..1.0))
                                .collect(),
                        );
                        let positive = k != 5 && i % 4 == 0;
                        pool.labels.push(if positive { 1.0 } else { 0.0 });
                    }
                    pool
                })
                .collect()
        })
    }

    /// Asserts every weight, bias and threshold of two detectors is equal
    /// by bit pattern.
    fn assert_same_bits(a: &Detector, b: &Detector, what: &str) {
        for ind in Indicator::ALL {
            let (ca, cb) = (&a.scorers[ind].components, &b.scorers[ind].components);
            assert_eq!(ca.len(), cb.len());
            for (t, (sa, sb)) in ca.iter().zip(cb).enumerate() {
                assert_eq!(
                    sa.bias.to_bits(),
                    sb.bias.to_bits(),
                    "{what}: {ind:?}/{t} bias"
                );
                for (k, (wa, wb)) in sa.weights.iter().zip(&sb.weights).enumerate() {
                    assert_eq!(wa.to_bits(), wb.to_bits(), "{what}: {ind:?}/{t} weight {k}");
                }
            }
            assert_eq!(
                a.thresholds[ind].to_bits(),
                b.thresholds[ind].to_bits(),
                "{what}: {ind:?} threshold"
            );
        }
    }

    #[test]
    fn sgd_matches_the_serial_reference_bit_for_bit_at_any_worker_count() {
        use rand::RngCore;
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 3,
                batch_size: 4,
                ..TrainConfig::default()
            },
            DetectorConfig::default(),
        );
        // a marker scorer everywhere, so a component SGD must skip (empty
        // pool) visibly keeps its previous weights
        let mut start = Detector::untrained(DetectorConfig::default());
        for ind in Indicator::ALL {
            for scorer in &mut start.scorers[ind].components {
                scorer.weights.fill(0.25);
                scorer.bias = 1.5;
            }
        }
        let pools = synthetic_pools(&start);

        let mut expected = start.clone();
        let mut expected_rng = rng_from(9);
        reference_sgd(&trainer, &mut expected, &pools, &mut expected_rng);
        let biases: Vec<f32> = Indicator::ALL
            .iter()
            .flat_map(|&ind| expected.scorers[ind].components.iter().map(|s| s.bias))
            .collect();
        assert!(biases.contains(&1.5), "an empty component keeps its scorer");
        assert!(
            biases.contains(&-6.0),
            "a component without positives is reset"
        );
        let expected_next = expected_rng.next_u64();

        for parallelism in [
            Parallelism::serial(),
            Parallelism::fixed(2),
            Parallelism::fixed(4),
        ] {
            let mut got = start.clone();
            let mut rng = rng_from(9);
            trainer.sgd(0, &mut got, &pools, &mut rng, &ScopedPool::new(parallelism));
            let what = format!("{parallelism:?}");
            assert_same_bits(&expected, &got, &what);
            assert_eq!(rng.next_u64(), expected_next, "{what}: trainer RNG state");
        }
    }

    #[test]
    fn fit_is_bit_identical_serial_and_on_four_workers() {
        let (ds, images) = small_dataset(20, 96);
        let p = provider(images);
        let fit_at = |parallelism| {
            let mut trainer = small_trainer();
            trainer.train.parallelism = parallelism;
            trainer.fit(&ds, &p).unwrap()
        };
        let serial = fit_at(Parallelism::serial());
        let parallel = fit_at(Parallelism::fixed(4));
        assert_same_bits(&serial, &parallel, "serial vs fixed(4)");
    }

    #[test]
    fn scan_counters_are_the_same_serial_and_on_four_workers() {
        let (ds, images) = small_dataset(20, 96);
        let p = provider(images);
        let counted_at = |parallelism| {
            let mut trainer = small_trainer();
            trainer.train.parallelism = parallelism;
            let obs = Obs::new();
            trainer.with_obs(obs.clone()).fit(&ds, &p).unwrap();
            let registry = obs.registry();
            (
                registry.counter(SCAN_WINDOWS_METRIC),
                registry.counter(SCAN_EXACT_METRIC),
            )
        };
        let (windows, exact) = counted_at(Parallelism::serial());
        assert_eq!(
            counted_at(Parallelism::fixed(4)),
            (windows, exact),
            "serial vs fixed(4)"
        );
        // the gate scores some windows and skips others
        assert!(0 < exact && exact < windows, "{exact} of {windows}");
    }

    /// A nameable in-memory provider for [`ShardSource`] tests.
    #[derive(Clone)]
    struct MapProvider(HashMap<ImageId, RasterImage>);

    impl ImageProvider for MapProvider {
        fn image(&self, id: ImageId) -> Result<RasterImage> {
            self.0
                .get(&id)
                .cloned()
                .ok_or_else(|| Error::not_found(format!("{id}")))
        }
    }

    struct MapShards(Vec<(HashMap<ImageId, ImageLabels>, HashMap<ImageId, RasterImage>)>);

    impl ShardSource for MapShards {
        type Provider = MapProvider;

        fn shards(&self) -> usize {
            self.0.len()
        }

        fn load(&self, shard: usize) -> Result<ShardData<MapProvider>> {
            let (labels, images) = self.0[shard].clone();
            Ok(ShardData {
                labels,
                provider: MapProvider(images),
            })
        }
    }

    /// Splits a dataset into `n` shards by stable image-id hash.
    fn shard_source(
        ds: &LabeledDataset,
        images: &HashMap<ImageId, RasterImage>,
        n: usize,
    ) -> MapShards {
        let mut parts = vec![(HashMap::new(), HashMap::new()); n];
        for &id in ds.images() {
            let s = (id.key() % n as u64) as usize;
            parts[s].0.insert(id, ds.labels(id).unwrap().clone());
            parts[s].1.insert(id, images[&id].clone());
        }
        MapShards(parts)
    }

    fn small_trainer() -> Trainer {
        Trainer::new(
            TrainConfig {
                epochs: 3,
                hard_negative_rounds: 1,
                ..TrainConfig::default()
            },
            DetectorConfig::default(),
        )
    }

    #[test]
    fn sharded_fit_matches_plain_fit_at_any_shard_count() {
        let (ds, images) = small_dataset(20, 96);
        let trainer = small_trainer();
        let p = provider(images.clone());
        let plain = trainer.fit(&ds, &p).unwrap();
        for n in [1usize, 3] {
            let source = shard_source(&ds, &images, n);
            let sharded = trainer
                .fit_sharded(ds.split(), ds.image_size(), &source)
                .unwrap();
            assert_eq!(plain, sharded, "{n} shards must not change the weights");
        }
    }

    #[test]
    fn sharded_fit_rejects_shards_that_drop_an_image() {
        let (ds, images) = small_dataset(20, 96);
        let mut source = shard_source(&ds, &images, 2);
        let victim = ds.split().train[0];
        for (labels, imgs) in &mut source.0 {
            labels.remove(&victim);
            imgs.remove(&victim);
        }
        let err = small_trainer()
            .fit_sharded(ds.split(), ds.image_size(), &source)
            .unwrap_err();
        assert!(
            err.to_string().contains("missing from every shard"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn a_provider_failing_for_one_train_image_fails_the_fit() {
        let (ds, mut images) = small_dataset(20, 96);
        let victim = ds.split().train[3];
        let mut source = shard_source(&ds, &images, 3);
        for (_, imgs) in &mut source.0 {
            imgs.remove(&victim);
        }
        images.remove(&victim);
        let trainer = small_trainer();
        let errors = [
            trainer.fit(&ds, &provider(images)).unwrap_err(),
            trainer
                .fit_sharded(ds.split(), ds.image_size(), &source)
                .unwrap_err(),
        ];
        for err in errors {
            assert!(
                matches!(&err, Error::NotFound(m) if *m == victim.to_string()),
                "unexpected error: {err}"
            );
        }
    }

    #[test]
    fn trained_detector_serializes() {
        let (ds, images) = small_dataset(20, 96);
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 3,
                hard_negative_rounds: 0,
                ..TrainConfig::default()
            },
            DetectorConfig::default(),
        );
        let p = provider(images);
        let det = trainer.fit(&ds, &p).unwrap();
        let json = det.to_json().unwrap();
        assert_eq!(Detector::from_json(&json).unwrap(), det);
    }
}
