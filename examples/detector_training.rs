//! Detector training: the supervised baseline end to end — train with hard
//! negative mining, evaluate mAP50, stress with Gaussian noise, and save
//! the model to JSON.
//!
//! ```text
//! cargo run --release --example detector_training
//! ```

use nbhd::prelude::*;
use nbhd_core::{evaluate_with_noise, train_baseline, AugmentationPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = SurveyConfig::smoke(17);
    config.locations = 60;
    config.image_size = 160;
    let survey = SurveyPipeline::new(config).run()?;
    println!("training data: {}", survey.dataset().summary());

    let train = TrainConfig {
        epochs: 10,
        hard_negative_rounds: 1,
        seed: 17,
        ..TrainConfig::default()
    };
    let detector_cfg = DetectorConfig {
        shrink: 4,
        ..DetectorConfig::default()
    };
    let trainer = Trainer::new(train, detector_cfg);
    let outcome = train_baseline(&survey, &trainer, AugmentationPolicy::None)?;

    println!("\nper-class AP50 on the test split:");
    for ind in Indicator::ALL {
        println!(
            "  {:<18} {:.3} (threshold {:.2})",
            ind.name(),
            outcome.report.ap50[ind],
            outcome.detector.thresholds[ind]
        );
    }
    println!("mAP50 = {:.3}", outcome.report.map50);

    println!("\nnoise stress (paper Fig. 3 protocol):");
    for snr in [30.0f32, 20.0, 10.0, 5.0] {
        let noisy = evaluate_with_noise(&outcome.detector, &survey, snr, &trainer.pool())?;
        println!("  SNR {snr:>4} dB -> mAP50 {:.3}", noisy.map50);
    }

    // Detect on one test image and show what the model sees.
    let id = survey.dataset().split().test[0];
    let img = survey.image(id)?;
    let detections = outcome.detector.detect(&img);
    println!(
        "\ndetections on {id} (truth: {}):",
        survey.ground_truth(id)?.presence()
    );
    for d in detections.iter().take(8) {
        println!(
            "  {:<18} score {:.2} at ({:.0},{:.0}) {:.0}x{:.0}",
            d.indicator.name(),
            d.score,
            d.bbox.x,
            d.bbox.y,
            d.bbox.w,
            d.bbox.h
        );
    }

    // Round-trip the trained model through JSON.
    let json = outcome.detector.to_json()?;
    let restored = Detector::from_json(&json)?;
    assert_eq!(restored, outcome.detector);
    println!(
        "\nmodel serialized to {} KiB of JSON and restored",
        json.len() / 1024
    );
    Ok(())
}
