//! Detector integration tests: training invariants, serialization,
//! noise degradation, and scene-classifier comparison on shared data.

use std::collections::HashMap;

use nbhd_annotate::{LabeledDataset, SplitRatios};
use nbhd_detect::{evaluate_detector, DetectorConfig, SceneClassifier, TrainConfig, Trainer};
use nbhd_geo::{RoadClass, Zoning};
use nbhd_raster::{add_gaussian_snr, RasterImage};
use nbhd_scene::{render, SceneGenerator, ViewKind};
use nbhd_types::rng::rng_from;
use nbhd_types::{Error, Heading, ImageId, ImageLabels, LocationId, Result};

fn build(n: u64, size: u32, seed: u64) -> (LabeledDataset, HashMap<ImageId, RasterImage>) {
    let generator = SceneGenerator::new(seed);
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
    (
        LabeledDataset::build(labels, size, SplitRatios::STUDY, seed).unwrap(),
        images,
    )
}

fn provider(
    images: HashMap<ImageId, RasterImage>,
) -> impl Fn(ImageId) -> Result<RasterImage> + Sync {
    move |id: ImageId| {
        images
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::not_found(format!("{id}")))
    }
}

fn quick_trainer(seed: u64) -> Trainer {
    Trainer::new(
        TrainConfig {
            epochs: 8,
            hard_negative_rounds: 1,
            seed,
            ..TrainConfig::default()
        },
        DetectorConfig {
            shrink: 4,
            ..DetectorConfig::default()
        },
    )
}

#[test]
fn training_is_deterministic() {
    let (ds, images) = build(40, 128, 5);
    let p = provider(images);
    let a = quick_trainer(5).fit(&ds, &p).unwrap();
    let b = quick_trainer(5).fit(&ds, &p).unwrap();
    assert_eq!(a, b, "same seed must give identical detectors");
    let c = quick_trainer(6).fit(&ds, &p).unwrap();
    assert_ne!(a, c, "different seeds must explore different negatives");
}

#[test]
fn json_round_trip_preserves_behaviour() {
    let (ds, images) = build(30, 96, 7);
    let p = provider(images.clone());
    let det = quick_trainer(7).fit(&ds, &p).unwrap();
    let restored = nbhd_detect::Detector::from_json(&det.to_json().unwrap()).unwrap();
    let id = ds.images()[0];
    assert_eq!(det.detect(&images[&id]), restored.detect(&images[&id]));
}

#[test]
fn noise_monotonically_degrades_detection() {
    let (ds, images) = build(60, 128, 9);
    let p = provider(images.clone());
    let det = quick_trainer(9).fit(&ds, &p).unwrap();
    let items: Vec<(ImageId, ImageLabels)> = ds
        .split()
        .test
        .iter()
        .map(|&id| (id, ds.labels(id).unwrap().clone()))
        .collect();
    let map_at = |snr: Option<f32>| {
        let images = images.clone();
        let noisy = move |id: ImageId| -> Result<RasterImage> {
            let img = images
                .get(&id)
                .cloned()
                .ok_or_else(|| Error::not_found(format!("{id}")))?;
            Ok(match snr {
                Some(db) => add_gaussian_snr(&mut rng_from(id.key()), &img, db),
                None => img,
            })
        };
        evaluate_detector(&det, &items, &noisy, &quick_trainer(9).pool())
            .unwrap()
            .map50
    };
    let clean = map_at(None);
    let mild = map_at(Some(30.0));
    let severe = map_at(Some(5.0));
    assert!(
        severe <= mild + 0.05,
        "severe noise ({severe:.3}) must not beat mild ({mild:.3})"
    );
    assert!(
        severe <= clean + 0.02,
        "severe noise ({severe:.3}) must not beat clean ({clean:.3})"
    );
}

#[test]
fn detector_and_classifier_agree_on_easy_scenes() {
    let (ds, images) = build(60, 128, 11);
    let p = provider(images.clone());
    let trainer = quick_trainer(11);
    let det = trainer.fit(&ds, &p).unwrap();
    let clf = SceneClassifier::fit(&ds, &p, 8, 11, &trainer.pool()).unwrap();
    // both models, on the test images, agree with ground truth more often
    // than they disagree for road presence (the easiest signal)
    let mut det_correct = 0usize;
    let mut clf_correct = 0usize;
    let mut total = 0usize;
    for &id in &ds.split().test {
        let truth = ds.labels(id).unwrap().presence();
        let img = &images[&id];
        let road_truth = truth.contains(nbhd_types::Indicator::SingleLaneRoad)
            || truth.contains(nbhd_types::Indicator::MultilaneRoad);
        let det_road = {
            let pres = det.presence(img);
            pres.contains(nbhd_types::Indicator::SingleLaneRoad)
                || pres.contains(nbhd_types::Indicator::MultilaneRoad)
        };
        let clf_road = {
            let pres = clf.presence(img);
            pres.contains(nbhd_types::Indicator::SingleLaneRoad)
                || pres.contains(nbhd_types::Indicator::MultilaneRoad)
        };
        det_correct += usize::from(det_road == road_truth);
        clf_correct += usize::from(clf_road == road_truth);
        total += 1;
    }
    assert!(
        det_correct * 2 > total,
        "detector road accuracy {det_correct}/{total}"
    );
    assert!(
        clf_correct * 2 > total,
        "classifier road accuracy {clf_correct}/{total}"
    );
}

#[test]
fn mixture_components_are_independent() {
    // zeroing one component must not change windows scored by another
    let (ds, images) = build(24, 96, 13);
    let p = provider(images.clone());
    let mut det = quick_trainer(13).fit(&ds, &p).unwrap();
    let ind = nbhd_types::Indicator::Sidewalk;
    if det.scorers[ind].components.len() < 2 {
        return; // nothing to test on this configuration
    }
    let img = &images[&ds.images()[0]];
    let integral = det.integral(img);
    // score a wedge-shaped window (template 0's shape)
    let wedge = nbhd_types::BBox::new(10.0, 40.0, 41.0, 48.0);
    let before = det.score_window(&integral, ind, wedge);
    // nuke the across-view band component (last template)
    let last = det.scorers[ind].components.len() - 1;
    det.scorers[ind].components[last] = nbhd_detect::ClassScorer::zeros();
    let after = det.score_window(&integral, ind, wedge);
    assert!(
        (before - after).abs() < 1e-6,
        "wedge window must route to the wedge component"
    );
}
