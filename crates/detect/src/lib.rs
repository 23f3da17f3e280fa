//! A trainable sliding-window object detector — the workspace's stand-in
//! for the study's YOLOv11-Nano baseline (see DESIGN.md §2).
//!
//! Pipeline: [`FeatureMap`] computes gradient-orientation channel features;
//! [`IntegralChannels`] makes window pooling O(1); [`AnchorSet`]s enumerate
//! class-shaped candidate windows as [`AnchorRun`] grids, one per
//! (template, scale); [`ClassScorer`]s (logistic, trained by SGD with
//! hard-negative mining in [`Trainer`]) score them. The scan pools each
//! run's distinct cell rectangles once and scores eight windows at a time,
//! bit-identical to scoring each window's
//! [`IntegralChannels::window_feature`] (DESIGN.md §4); [`nms`] prunes
//! overlaps; [`evaluate_detector`] reports per-class AP50/mAP50 and the
//! Table-I style metric rows. [`SceneClassifier`] is the whole-image
//! baseline used for the detection-vs-classification comparison (C1).
//!
//! # Examples
//!
//! Train on a handful of rendered scenes and detect on one of them:
//!
//! ```
//! use nbhd_annotate::{LabeledDataset, SplitRatios};
//! use nbhd_detect::{DetectorConfig, TrainConfig, Trainer};
//! use nbhd_geo::{RoadClass, Zoning};
//! use nbhd_scene::{render, SceneGenerator, ViewKind};
//! use nbhd_types::{Error, Heading, ImageId, ImageLabels, LocationId};
//! use std::collections::HashMap;
//!
//! let generator = SceneGenerator::new(1);
//! let mut labels = Vec::new();
//! let mut images = HashMap::new();
//! for loc in 0..20u64 {
//!     let id = ImageId::new(LocationId(loc), Heading::North);
//!     let spec = generator.compose_raw(id, Zoning::Urban, RoadClass::Multilane, ViewKind::AlongRoad);
//!     let (img, objs) = render(&spec, 96);
//!     labels.push(ImageLabels::with_objects(id, objs));
//!     images.insert(id, img);
//! }
//! let dataset = LabeledDataset::build(labels, 96, SplitRatios::STUDY, 1)?;
//! let provider = move |id: ImageId| {
//!     images.get(&id).cloned().ok_or_else(|| Error::not_found(format!("{id}")))
//! };
//! let trainer = Trainer::new(
//!     TrainConfig { epochs: 2, hard_negative_rounds: 0, ..TrainConfig::default() },
//!     DetectorConfig::default(),
//! );
//! let detector = trainer.fit(&dataset, &provider)?;
//! let detections = detector.detect(&provider(dataset.images()[0])?);
//! println!("{} detections", detections.len());
//! # Ok::<(), nbhd_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anchors;
mod detector;
mod eval;
mod features;
mod nms;
mod scene_baseline;
mod train;

pub use anchors::{Anchor, AnchorRun, AnchorSet, AnchorWindow};
pub use detector::{ClassScorer, Detector, DetectorConfig};
pub use eval::{evaluate_detector, DetectionReport, MATCH_IOU};
pub use features::{FeatureMap, IntegralChannels, FEATURE_DIM, GRID, NUM_CHANNELS};
pub use nms::{nms, Detection};
pub use scene_baseline::{whole_image_feature, SceneClassifier};
pub use train::{
    ImageProvider, ShardData, ShardSource, TrainConfig, Trainer, SCAN_EXACT_METRIC,
    SCAN_WINDOWS_METRIC,
};
