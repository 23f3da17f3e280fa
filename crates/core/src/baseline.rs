//! The supervised baseline: train, evaluate, and ablate the detector.

use nbhd_annotate::{DatasetSplit, LabeledDataset};
use nbhd_detect::{evaluate_detector, DetectionReport, Detector, ImageProvider, Trainer};
use nbhd_exec::ScopedPool;
use nbhd_raster::{add_gaussian_snr, random_crop, Augmentation, RasterImage};
use nbhd_types::rng::{child_seed, child_seed_n, rng_from};
use nbhd_types::{ImageId, ImageLabels, LocationId, Result};

use crate::SurveyDataset;

/// Which training-set augmentation the baseline uses (the Fig. 2 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AugmentationPolicy {
    /// Train on the raw images only.
    None,
    /// Add 90/180/270-degree rotated copies of every training image.
    Rotations,
    /// Rotations plus a random 30%-area crop per training image.
    RotationsAndCrops,
}

/// A trained baseline plus its test-split evaluation.
#[derive(Debug, Clone)]
pub struct BaselineOutcome {
    /// The trained detector.
    pub detector: Detector,
    /// Test-split detection report (per-class AP50, mAP50, metric rows).
    pub report: DetectionReport,
}

/// Location-id offsets for derived (augmented) images, far outside the
/// range real surveys use.
const AUG_OFFSET: u64 = 1 << 40;

/// Trains the detector on the survey's train split and evaluates on test,
/// both on [`Trainer::pool`]: the trainer's worker count and, when it is
/// observed, its registry.
///
/// # Errors
///
/// Propagates provider and training failures.
pub fn train_baseline(
    survey: &SurveyDataset,
    trainer: &Trainer,
    augmentation: AugmentationPolicy,
) -> Result<BaselineOutcome> {
    let base_provider = survey.provider();
    let dataset = survey.dataset();

    // build the (possibly augmented) training dataset + provider
    let (aug_dataset, provider) =
        augmented_view(dataset, &base_provider, augmentation, survey.config().seed)?;

    let fitted = trainer.fit(&aug_dataset, &provider)?;
    let report = evaluate_detector(
        &fitted,
        &labeled(dataset, &dataset.split().test)?,
        &provider,
        &trainer.pool(),
    )?;
    Ok(BaselineOutcome {
        detector: fitted,
        report,
    })
}

/// Each of `ids` with its labels from `dataset`.
pub(crate) fn labeled(
    dataset: &LabeledDataset,
    ids: &[ImageId],
) -> Result<Vec<(ImageId, ImageLabels)>> {
    ids.iter()
        .map(|&id| Ok((id, dataset.labels(id)?.clone())))
        .collect()
}

/// Evaluates a detector over a set of image ids from a dataset, on a
/// default pool (every core).
///
/// Every evaluation inside the workspace passes its run's pool to
/// [`evaluate_detector`]; this four-argument form remains only for the
/// benchmark harness's `detector_train` workload, and goes once that
/// workload passes its own pool.
///
/// # Errors
///
/// Propagates provider failures.
pub fn evaluate_on<P: ImageProvider + Sync>(
    detector: &Detector,
    dataset: &LabeledDataset,
    provider: &P,
    ids: &[ImageId],
) -> Result<DetectionReport> {
    evaluate_detector(
        detector,
        &labeled(dataset, ids)?,
        provider,
        &ScopedPool::default(),
    )
}

/// Evaluates a detector on the survey's test split on `pool`, with
/// Gaussian noise injected at the given SNR (the Fig. 3 ablation).
///
/// # Errors
///
/// Propagates provider failures.
pub fn evaluate_with_noise(
    detector: &Detector,
    survey: &SurveyDataset,
    snr_db: f32,
    pool: &ScopedPool,
) -> Result<DetectionReport> {
    let base = survey.provider();
    let seed = child_seed(survey.config().seed, "noise-eval");
    let noisy = move |id: ImageId| -> Result<RasterImage> {
        let img = nbhd_detect::ImageProvider::image(&base, id)?;
        let mut rng = rng_from(child_seed_n(seed, "image", id.key()));
        Ok(add_gaussian_snr(&mut rng, &img, snr_db))
    };
    let dataset = survey.dataset();
    evaluate_detector(
        detector,
        &labeled(dataset, &dataset.split().test)?,
        &noisy,
        pool,
    )
}

/// A provider that understands augmented image ids.
#[derive(Clone)]
pub struct AugmentedProvider<P> {
    base: P,
    crop_seed: u64,
}

impl<P: ImageProvider> ImageProvider for AugmentedProvider<P> {
    fn image(&self, id: ImageId) -> Result<RasterImage> {
        let (base_id, variant) = decode_aug(id);
        let img = self.base.image(base_id)?;
        Ok(match variant {
            0 => img,
            1..=3 => {
                let aug = [
                    Augmentation::Rotate90,
                    Augmentation::Rotate180,
                    Augmentation::Rotate270,
                ][variant as usize - 1];
                aug.apply(&img, &[]).0
            }
            _ => {
                let mut rng = rng_from(child_seed_n(self.crop_seed, "crop", base_id.key()));
                random_crop(&mut rng, &img, &[], 0.3).0
            }
        })
    }
}

fn encode_aug(id: ImageId, variant: u64) -> ImageId {
    ImageId::new(LocationId(id.location.0 + AUG_OFFSET * variant), id.heading)
}

fn decode_aug(id: ImageId) -> (ImageId, u64) {
    let variant = id.location.0 / AUG_OFFSET;
    (
        ImageId::new(LocationId(id.location.0 % AUG_OFFSET), id.heading),
        variant,
    )
}

/// Builds the augmented dataset view: train split gains derived images with
/// transformed labels; val/test stay untouched.
fn augmented_view<P: ImageProvider + Clone>(
    dataset: &LabeledDataset,
    provider: &P,
    policy: AugmentationPolicy,
    seed: u64,
) -> Result<(LabeledDataset, AugmentedProvider<P>)> {
    let crop_seed = child_seed(seed, "aug-crop");
    let aug_provider = AugmentedProvider {
        base: provider.clone(),
        crop_seed,
    };
    if policy == AugmentationPolicy::None {
        return Ok((dataset.clone(), aug_provider));
    }
    let size = dataset.image_size();
    let mut labels: Vec<ImageLabels> = dataset
        .images()
        .iter()
        .map(|&id| dataset.labels(id).cloned())
        .collect::<Result<_>>()?;
    let mut split = dataset.split().clone();
    for &id in &dataset.split().train.clone() {
        let base = dataset.labels(id)?;
        for (variant, aug) in [
            (1u64, Augmentation::Rotate90),
            (2, Augmentation::Rotate180),
            (3, Augmentation::Rotate270),
        ] {
            let derived_id = encode_aug(id, variant);
            let objects = base
                .objects
                .iter()
                .map(|o| {
                    let bbox = match aug {
                        Augmentation::Rotate90 => o.bbox.rotate90_cw(size, size),
                        Augmentation::Rotate180 => o.bbox.rotate180(size, size),
                        Augmentation::Rotate270 => o.bbox.rotate270_cw(size, size),
                        Augmentation::HFlip => o.bbox.hflip(size),
                    };
                    nbhd_types::ObjectLabel::new(o.indicator, bbox)
                })
                .collect();
            labels.push(ImageLabels::with_objects(derived_id, objects));
            split.train.push(derived_id);
        }
        if policy == AugmentationPolicy::RotationsAndCrops {
            let derived_id = encode_aug(id, 4);
            let img = provider.image(id)?;
            let mut rng = rng_from(child_seed_n(crop_seed, "crop", id.key()));
            let (_, objects) = random_crop(&mut rng, &img, &base.objects, 0.3);
            labels.push(ImageLabels::with_objects(derived_id, objects));
            split.train.push(derived_id);
        }
    }
    let augmented = LabeledDataset::with_split(labels, size, split)?;
    Ok((augmented, aug_provider))
}

/// Returns the split of a survey (convenience for experiments).
pub fn survey_split(survey: &SurveyDataset) -> &DatasetSplit {
    survey.dataset().split()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SurveyConfig, SurveyPipeline};
    use nbhd_detect::{DetectorConfig, TrainConfig};

    fn smoke_survey() -> SurveyDataset {
        SurveyPipeline::new(SurveyConfig::smoke(21)).run().unwrap()
    }

    fn quick_trainer() -> Trainer {
        Trainer::new(
            TrainConfig {
                epochs: 4,
                hard_negative_rounds: 0,
                ..TrainConfig::default()
            },
            DetectorConfig {
                shrink: 4,
                ..DetectorConfig::default()
            },
        )
    }

    #[test]
    fn baseline_trains_and_reports() {
        let survey = smoke_survey();
        let out = train_baseline(&survey, &quick_trainer(), AugmentationPolicy::None).unwrap();
        assert!(out.report.map50 >= 0.0);
        assert!(out.report.images > 0);
    }

    #[test]
    fn augmentation_enlarges_only_the_train_split() {
        let survey = smoke_survey();
        let dataset = survey.dataset();
        let provider = survey.provider();
        let (augmented, _) = augmented_view(
            dataset,
            &provider,
            AugmentationPolicy::Rotations,
            survey.config().seed,
        )
        .unwrap();
        assert_eq!(
            augmented.split().train.len(),
            dataset.split().train.len() * 4
        );
        assert_eq!(augmented.split().test, dataset.split().test);
        assert_eq!(augmented.split().val, dataset.split().val);
    }

    #[test]
    fn augmented_provider_rotates_pixels() {
        let survey = smoke_survey();
        let provider = survey.provider();
        let aug = AugmentedProvider {
            base: provider.clone(),
            crop_seed: 1,
        };
        let id = survey.images()[0];
        let base_img = nbhd_detect::ImageProvider::image(&provider, id).unwrap();
        let rot_id = encode_aug(id, 2);
        let rot = nbhd_detect::ImageProvider::image(&aug, rot_id).unwrap();
        assert_ne!(base_img, rot);
        assert_eq!(
            Augmentation::Rotate180.apply(&base_img, &[]).0,
            rot,
            "variant 2 must be the 180-degree rotation"
        );
    }

    #[test]
    fn aug_ids_round_trip() {
        let id = ImageId::new(LocationId(1234), nbhd_types::Heading::West);
        for variant in 0..5u64 {
            let enc = encode_aug(id, variant);
            assert_eq!(decode_aug(enc), (id, variant));
        }
    }

    #[test]
    fn noise_eval_degrades_gracefully() {
        let survey = smoke_survey();
        let out = train_baseline(&survey, &quick_trainer(), AugmentationPolicy::None).unwrap();
        let clean = out.report.map50;
        let noisy =
            evaluate_with_noise(&out.detector, &survey, 5.0, &quick_trainer().pool()).unwrap();
        // at 5 dB performance must not exceed clean by a wide margin
        assert!(
            noisy.map50 <= clean + 0.15,
            "noisy {} clean {clean}",
            noisy.map50
        );
    }
}
