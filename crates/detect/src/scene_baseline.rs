//! Whole-image scene-classification baseline (the VGG-16/19 analog).
//!
//! Prior work the paper compares against ([22], [23]) classifies whole
//! street-view images per indicator rather than detecting objects. This
//! module implements that family's analog on the same feature substrate —
//! one logistic classifier per indicator over the full-image pooled feature
//! vector — so experiment C1 can measure how much object detection buys.

use nbhd_annotate::LabeledDataset;
use nbhd_exec::ScopedPool;
use nbhd_types::rng::{child_seed, rng_from};
use nbhd_types::{BBox, Error, Indicator, IndicatorMap, IndicatorSet, Result};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

use crate::{ClassScorer, FeatureMap, ImageProvider, IntegralChannels};

/// Per-indicator whole-image presence classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SceneClassifier {
    /// Feature-map cell size in pixels.
    pub shrink: u32,
    /// Per-class logistic scorers over the full-image feature vector.
    pub scorers: IndicatorMap<ClassScorer>,
    /// Per-class decision thresholds.
    pub thresholds: IndicatorMap<f32>,
}

impl SceneClassifier {
    /// Trains the baseline on a dataset's train split (20 epochs of SGD,
    /// mirroring the detector's budget), calibrating thresholds on val.
    /// The train images' features are computed on `pool`; the classifier
    /// is the same at any worker count.
    ///
    /// # Errors
    ///
    /// Propagates provider failures; errors on an empty train split.
    pub fn fit<P: ImageProvider + Sync>(
        dataset: &LabeledDataset,
        provider: &P,
        epochs: u32,
        seed: u64,
        pool: &ScopedPool,
    ) -> Result<SceneClassifier> {
        let train = &dataset.split().train;
        if train.is_empty() {
            return Err(Error::config("training split is empty"));
        }
        let harvested = pool.map(train, |&id| -> Result<_> {
            let img = provider.image(id)?;
            Ok((whole_image_feature(&img, 8), dataset.labels(id)?.presence()))
        });
        let mut features = Vec::with_capacity(train.len());
        let mut truths = Vec::with_capacity(train.len());
        for item in harvested {
            let (f, t) = item?;
            features.push(f);
            truths.push(t);
        }
        let mut scorers = IndicatorMap::from_fn(|_| ClassScorer::zeros());
        let mut rng = rng_from(child_seed(seed, "scene-baseline"));
        let mut order: Vec<usize> = (0..features.len()).collect();
        for epoch in 0..epochs {
            let lr = 0.5 * (1.0 - epoch as f32 / epochs.max(1) as f32).max(0.1);
            order.shuffle(&mut rng);
            for &i in &order {
                for ind in Indicator::ALL {
                    let label = f32::from(truths[i].contains(ind));
                    scorers[ind].sgd_step(&features[i], label, lr, 1e-5);
                }
            }
        }
        let mut clf = SceneClassifier {
            shrink: 8,
            scorers,
            thresholds: IndicatorMap::fill(0.5),
        };
        // calibrate thresholds on val
        let val = &dataset.split().val;
        if !val.is_empty() {
            let mut scores = Vec::with_capacity(val.len());
            for &id in val {
                let img = provider.image(id)?;
                scores.push((clf.scores(&img), dataset.labels(id)?.presence()));
            }
            for ind in Indicator::ALL {
                let mut best = (0.5f32, -1.0f64);
                for t10 in 1..=19 {
                    let t = t10 as f32 / 20.0;
                    let mut c = nbhd_eval::BinaryConfusion::new();
                    for (s, truth) in &scores {
                        c.observe(truth.contains(ind), s[ind] >= t);
                    }
                    if c.f1() > best.1 {
                        best = (t, c.f1());
                    }
                }
                clf.thresholds[ind] = best.0;
            }
        }
        Ok(clf)
    }

    /// Per-class presence probabilities for an image.
    pub fn scores(&self, img: &nbhd_raster::RasterImage) -> IndicatorMap<f32> {
        let f = whole_image_feature(img, self.shrink);
        self.scorers.map(|_, s| s.score(&f))
    }

    /// Predicted presence set.
    pub fn presence(&self, img: &nbhd_raster::RasterImage) -> IndicatorSet {
        let scores = self.scores(img);
        Indicator::ALL
            .into_iter()
            .filter(|&i| scores[i] >= self.thresholds[i])
            .collect()
    }
}

/// The whole-image pooled feature vector (same pooling as one detector
/// window spanning the full frame).
pub fn whole_image_feature(img: &nbhd_raster::RasterImage, shrink: u32) -> Vec<f32> {
    let integral = IntegralChannels::new(&FeatureMap::compute(img, shrink));
    integral.window_feature(BBox::new(0.0, 0.0, img.width() as f32, img.height() as f32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FEATURE_DIM;
    use nbhd_annotate::SplitRatios;
    use nbhd_geo::{RoadClass, Zoning};
    use nbhd_scene::{render, SceneGenerator, ViewKind};
    use nbhd_types::{Heading, ImageId, ImageLabels, LocationId};
    use std::collections::HashMap;

    #[test]
    fn baseline_learns_coarse_presence() {
        let generator = SceneGenerator::new(55);
        let mut labels = Vec::new();
        let mut images = HashMap::new();
        for loc in 0..60u64 {
            let id = ImageId::new(LocationId(loc), Heading::North);
            let zone = if loc % 2 == 0 {
                Zoning::Urban
            } else {
                Zoning::Rural
            };
            let spec = generator.compose_raw(id, zone, RoadClass::SingleLane, ViewKind::AlongRoad);
            let (img, objs) = render(&spec, 96);
            labels.push(ImageLabels::with_objects(id, objs));
            images.insert(id, img);
        }
        let ds = LabeledDataset::build(labels, 96, SplitRatios::STUDY, 55).unwrap();
        let provider = move |id: ImageId| {
            images
                .get(&id)
                .cloned()
                .ok_or_else(|| Error::not_found(format!("{id}")))
        };
        let clf = SceneClassifier::fit(&ds, &provider, 10, 55, &ScopedPool::default()).unwrap();
        let mut correct = 0usize;
        let mut total = 0usize;
        for &id in &ds.split().test {
            let truth = ds.labels(id).unwrap().presence();
            let pred = clf.presence(&provider.image(id).unwrap());
            for ind in Indicator::ALL {
                total += 1;
                correct += usize::from(pred.contains(ind) == truth.contains(ind));
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.5, "baseline presence accuracy {acc:.3}");
    }

    #[test]
    fn whole_image_feature_has_fixed_dim() {
        let img = nbhd_raster::RasterImage::filled(64, 64, nbhd_raster::Rgb::gray(100));
        assert_eq!(whole_image_feature(&img, 8).len(), FEATURE_DIM);
    }

    #[test]
    fn empty_train_split_errors() {
        let ds = LabeledDataset::build(
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
        let provider = |_: ImageId| -> Result<nbhd_raster::RasterImage> {
            Ok(nbhd_raster::RasterImage::new(64, 64))
        };
        assert!(SceneClassifier::fit(&ds, &provider, 3, 1, &ScopedPool::default()).is_err());
    }
}
