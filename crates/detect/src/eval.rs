//! Detection evaluation: mAP50 and the Table-I style metric rows.

use std::sync::OnceLock;

use nbhd_eval::{average_precision, BinaryConfusion, ClassMetrics, MetricsTable};
use nbhd_exec::ScopedPool;
use nbhd_types::{ImageId, ImageLabels, Indicator, IndicatorMap, Result};

use crate::detector::{ScanCount, ScanPlan};
use crate::{Detector, ImageProvider};

/// The IoU threshold used for matching (the paper reports mAP50).
pub const MATCH_IOU: f32 = 0.5;

/// Evaluation output: per-class AP and operating-point metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Per-class average precision at IoU 0.5.
    pub ap50: IndicatorMap<f64>,
    /// Mean AP50 across the six classes.
    pub map50: f64,
    /// Object-level precision/recall/F1 at the operating thresholds.
    pub table: MetricsTable,
    /// Images evaluated.
    pub images: usize,
}

/// Per class, each detection's `(score, matched_ground_truth)` pair, plus
/// the ground-truth positive count per class.
pub(crate) type ScoredMatches = (IndicatorMap<Vec<(f32, bool)>>, IndicatorMap<usize>);

/// Scored, matched detections over a set of labeled images: for every
/// class, each detection's `(score, matched_ground_truth)` pair plus the
/// ground-truth positive count, and the scans' summed window counts.
/// Shared by AP evaluation and the trainer's object-level threshold
/// calibration. Images fan out on `pool` and are scanned with the stage's
/// `plan`.
pub(crate) fn scored_matches<P: ImageProvider + Sync>(
    detector: &Detector,
    items: &[(ImageId, ImageLabels)],
    provider: &P,
    pool: &ScopedPool,
    plan: &OnceLock<ScanPlan>,
) -> Result<(ScoredMatches, ScanCount)> {
    let mut scored: IndicatorMap<Vec<(f32, bool)>> = IndicatorMap::from_fn(|_| Vec::new());
    let mut positives = IndicatorMap::fill(0usize);

    let per_image = pool.map(items, |(id, labels)| -> Result<_> {
        let img = provider.image(*id)?;
        let integral = detector.integral(&img);
        let (dets, count) = detector.scan_planned(plan, &integral, img.width(), 0.08);
        let mut scored_local: IndicatorMap<Vec<(f32, bool)>> =
            IndicatorMap::from_fn(|_| Vec::new());
        let mut positives_local = IndicatorMap::fill(0usize);
        for ind in Indicator::ALL {
            let gt: Vec<_> = labels.of_class(ind).map(|o| o.bbox).collect();
            positives_local[ind] += gt.len();
            let mut matched = vec![false; gt.len()];
            // detections arrive NMS-sorted by descending score
            for det in dets.iter().filter(|d| d.indicator == ind) {
                let mut best = (0usize, 0.0f32);
                for (i, g) in gt.iter().enumerate() {
                    if !matched[i] {
                        let iou = det.bbox.iou(*g);
                        if iou > best.1 {
                            best = (i, iou);
                        }
                    }
                }
                let correct = best.1 >= MATCH_IOU;
                if correct {
                    matched[best.0] = true;
                }
                scored_local[ind].push((det.score, correct));
            }
        }
        Ok((scored_local, positives_local, count))
    });
    let mut count = ScanCount::default();
    for item in per_image {
        let (scored_local, positives_local, image_count) = item?;
        count += image_count;
        for (ind, local) in scored_local.into_array().into_iter().enumerate() {
            let ind = Indicator::from_index(ind).expect("index < 6");
            scored[ind].extend(local);
            positives[ind] += positives_local[ind];
        }
    }
    Ok(((scored, positives), count))
}

/// Evaluates a detector over labeled images.
///
/// For every class: detections across all images are matched greedily
/// (score-descending) to unmatched ground truth at IoU >= 0.5; AP is
/// computed over the full score range, while the metric table reflects the
/// detector's operating thresholds. Images fan out on `pool`; the report
/// is the same at any worker count.
///
/// # Errors
///
/// Propagates image-provider failures.
pub fn evaluate_detector<P: ImageProvider + Sync>(
    detector: &Detector,
    items: &[(ImageId, ImageLabels)],
    provider: &P,
    pool: &ScopedPool,
) -> Result<DetectionReport> {
    let ((scored, positives), _) =
        scored_matches(detector, items, provider, pool, &OnceLock::new())?;

    // Operating-point confusion: TP/FP from matched scored detections above
    // threshold, FN from unmatched positives.
    let mut table_rows: IndicatorMap<ClassMetrics> = IndicatorMap::fill(ClassMetrics::default());
    let mut ap50 = IndicatorMap::fill(0.0f64);
    for ind in Indicator::ALL {
        ap50[ind] = average_precision(&scored[ind], positives[ind]);
        let threshold = detector.thresholds[ind];
        let tp = scored[ind]
            .iter()
            .filter(|(s, c)| *s >= threshold && *c)
            .count() as u64;
        let fp = scored[ind]
            .iter()
            .filter(|(s, c)| *s >= threshold && !*c)
            .count() as u64;
        let fn_ = positives[ind] as u64 - tp.min(positives[ind] as u64);
        let c = BinaryConfusion { tp, fp, tn: 0, fn_ };
        table_rows[ind] = ClassMetrics {
            precision: c.precision(),
            recall: c.recall(),
            f1: c.f1(),
            accuracy: ap50[ind], // object tasks have no TN; report AP here
        };
    }
    let map50 = ap50.values().sum::<f64>() / Indicator::COUNT as f64;
    Ok(DetectionReport {
        ap50,
        map50,
        table: MetricsTable::from_per_class(table_rows),
        images: items.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetectorConfig, TrainConfig, Trainer};
    use nbhd_annotate::{LabeledDataset, SplitRatios};
    use nbhd_exec::Parallelism;
    use nbhd_geo::{RoadClass, Zoning};
    use nbhd_obs::MetricsRegistry;
    use nbhd_raster::RasterImage;
    use nbhd_scene::{render, SceneGenerator, ViewKind};
    use nbhd_types::{Error, Heading, LocationId};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn build(n: u64, size: u32) -> (LabeledDataset, HashMap<ImageId, RasterImage>) {
        let generator = SceneGenerator::new(77);
        let mut labels = Vec::new();
        let mut images = HashMap::new();
        for loc in 0..n {
            let id = ImageId::new(LocationId(loc), Heading::North);
            let zone = [Zoning::Urban, Zoning::Suburban, Zoning::Rural][(loc % 3) as usize];
            let class = if loc % 2 == 0 {
                RoadClass::Multilane
            } else {
                RoadClass::SingleLane
            };
            let spec = generator.compose_raw(id, zone, class, ViewKind::AlongRoad);
            let (img, objs) = render(&spec, size);
            labels.push(nbhd_types::ImageLabels::with_objects(id, objs));
            images.insert(id, img);
        }
        (
            LabeledDataset::build(labels, size, SplitRatios::STUDY, 77).unwrap(),
            images,
        )
    }

    #[test]
    fn trained_detector_has_nontrivial_map() {
        let (ds, images) = build(50, 128);
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 8,
                ..TrainConfig::default()
            },
            DetectorConfig::default(),
        );
        let images2 = images.clone();
        let provider = move |id: ImageId| {
            images2
                .get(&id)
                .cloned()
                .ok_or_else(|| Error::not_found(format!("{id}")))
        };
        let det = trainer.fit(&ds, &provider).unwrap();
        let items: Vec<(ImageId, nbhd_types::ImageLabels)> = ds
            .split()
            .test
            .iter()
            .map(|&id| (id, ds.labels(id).unwrap().clone()))
            .collect();
        let report = evaluate_detector(&det, &items, &provider, &ScopedPool::default()).unwrap();
        assert!(
            report.map50 > 0.3,
            "trained mAP50 {:.3} should be far above chance",
            report.map50
        );
        assert_eq!(report.images, items.len());
    }

    #[test]
    fn untrained_detector_has_low_precision() {
        let (ds, images) = build(12, 96);
        let det = crate::Detector::untrained(DetectorConfig::default());
        let provider = move |id: ImageId| {
            images
                .get(&id)
                .cloned()
                .ok_or_else(|| Error::not_found(format!("{id}")))
        };
        let items: Vec<(ImageId, nbhd_types::ImageLabels)> = ds
            .images()
            .iter()
            .map(|&id| (id, ds.labels(id).unwrap().clone()))
            .collect();
        let report = evaluate_detector(&det, &items, &provider, &ScopedPool::default()).unwrap();
        // with all scores at 0.5 everything fires; precision collapses
        assert!(report.table.average.precision < 0.6);
    }

    #[test]
    fn evaluation_runs_on_the_pool_it_is_given() {
        let (ds, images) = build(16, 96);
        let trainer = Trainer::new(
            TrainConfig {
                epochs: 2,
                hard_negative_rounds: 0,
                ..TrainConfig::default()
            },
            DetectorConfig::default(),
        );
        let provider = move |id: ImageId| {
            images
                .get(&id)
                .cloned()
                .ok_or_else(|| Error::not_found(format!("{id}")))
        };
        let det = trainer.fit(&ds, &provider).unwrap();
        let items: Vec<(ImageId, nbhd_types::ImageLabels)> = ds
            .images()
            .iter()
            .map(|&id| (id, ds.labels(id).unwrap().clone()))
            .collect();
        let serial = ScopedPool::new(Parallelism::serial());
        let registry = Arc::new(MetricsRegistry::new());
        let parallel = ScopedPool::new(Parallelism::fixed(4)).with_metrics(Arc::clone(&registry));
        let a = evaluate_detector(&det, &items, &provider, &serial).unwrap();
        let b = evaluate_detector(&det, &items, &provider, &parallel).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.map50.to_bits(), b.map50.to_bits());
        assert_eq!(
            registry.snapshot().counters[nbhd_exec::TASKS_METRIC],
            items.len() as u64
        );
    }
}
