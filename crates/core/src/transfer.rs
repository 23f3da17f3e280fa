//! Cross-region transfer: train on one region set, test on another.
//!
//! The paper surveys two Texas counties and leaves open how well a detector
//! trained there generalizes elsewhere. With [`RegionSet`](nbhd_geo::RegionSet)
//! replacing the hardcoded study pair, that question becomes runnable: train
//! on region set A through the sharded stream, evaluate on A's held-out test
//! split (in-domain) and on region set B's test split (transfer), and render
//! both as [`TransferRow`]s via `nbhd_eval::render_transfer_table`.

use nbhd_detect::{evaluate_detector, Detector, DetectorConfig, TrainConfig, Trainer};
use nbhd_eval::TransferRow;
use nbhd_exec::ScopedPool;
use nbhd_geo::ShardPlan;
use nbhd_types::Result;

use crate::baseline::labeled;
use crate::config::SurveyConfig;
use crate::pipeline::SurveyDataset;
use crate::supervise::{run_supervised, SupervisePolicy};

/// The outcome of a cross-region transfer experiment: one detector, two
/// evaluations.
#[derive(Debug)]
pub struct TransferOutcome {
    /// The detector trained on the source region set.
    pub detector: Detector,
    /// The source survey the detector was trained on.
    pub source: SurveyDataset,
    /// The target survey used only for evaluation.
    pub target: SurveyDataset,
    /// Trained on A, tested on A's test split.
    pub in_domain: TransferRow,
    /// Trained on A, tested on B's test split.
    pub transfer: TransferRow,
}

impl TransferOutcome {
    /// Both rows, in-domain first, ready for
    /// `nbhd_eval::render_transfer_table`.
    pub fn rows(&self) -> Vec<TransferRow> {
        vec![self.in_domain.clone(), self.transfer.clone()]
    }

    /// Fraction of in-domain mAP50 retained under transfer; `0.0` when the
    /// in-domain score is itself zero.
    pub fn retention(&self) -> f64 {
        if self.in_domain.map50 <= 0.0 {
            0.0
        } else {
            self.transfer.map50 / self.in_domain.map50
        }
    }
}

/// A stable label for a survey's region set: region names joined by `+`.
fn region_label(config: &SurveyConfig) -> String {
    config
        .regions
        .regions()
        .iter()
        .map(|r| r.name())
        .collect::<Vec<_>>()
        .join("+")
}

fn row_for(
    detector: &Detector,
    survey: &SurveyDataset,
    train_region: &str,
    eval_region: &str,
    pool: &ScopedPool,
) -> Result<TransferRow> {
    let dataset = survey.dataset();
    let items = labeled(dataset, &dataset.split().test)?;
    let report = evaluate_detector(detector, &items, &survey.provider(), pool)?;
    Ok(TransferRow {
        train_region: train_region.to_string(),
        eval_region: eval_region.to_string(),
        map50: report.map50,
        f1: report.table.average.f1,
        images: report.images,
        coverage: survey.coverage_fraction(),
    })
}

/// Trains a detector on `source`'s regions through the sharded stream and
/// evaluates it twice: in-domain on `source`'s test split and out-of-domain
/// on `target`'s test split.
///
/// Both surveys run through [`run_supervised`] with the default policy and
/// the same `plan`, so the whole experiment stays bounded-memory regardless
/// of how many regions either config names. Determinism is inherited from
/// the sharded path: the same configs, plan, and training knobs reproduce
/// the same rows. A capture failure quarantines its location rather than
/// aborting; each row's coverage column reports it. Both evaluations run
/// on the trainer's pool, so `train.parallelism` bounds the whole fit.
///
/// Returns configuration, sampling, imagery, or training errors from the
/// underlying survey and fit stages.
pub fn run_transfer(
    source: &SurveyConfig,
    target: &SurveyConfig,
    train: TrainConfig,
    detector: DetectorConfig,
    plan: ShardPlan,
) -> Result<TransferOutcome> {
    let policy = SupervisePolicy::default();
    let source_run = run_supervised(source, plan, policy, None, None, None)?;
    let pool = Trainer::new(train.clone(), detector.clone()).pool();
    let fitted = source_run.train_sharded(train, detector)?;
    let source_survey = source_run.into_survey();

    let target_survey = run_supervised(target, plan, policy, None, None, None)?.into_survey();

    let source_label = region_label(source);
    let target_label = region_label(target);
    let in_domain = row_for(&fitted, &source_survey, &source_label, &source_label, &pool)?;
    let transfer = row_for(&fitted, &target_survey, &source_label, &target_label, &pool)?;

    Ok(TransferOutcome {
        detector: fitted,
        source: source_survey,
        target: target_survey,
        in_domain,
        transfer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbhd_eval::render_transfer_table;
    use nbhd_geo::RegionSet;

    fn quick_train() -> TrainConfig {
        TrainConfig {
            epochs: 2,
            hard_negative_rounds: 0,
            ..TrainConfig::default()
        }
    }

    fn quick_detector() -> DetectorConfig {
        DetectorConfig {
            shrink: 4,
            ..DetectorConfig::default()
        }
    }

    #[test]
    fn transfer_evaluates_both_regions_with_one_detector() {
        let source = SurveyConfig::smoke(91);
        let target = SurveyConfig::smoke(91).with_regions(RegionSet::synthetic_grid(2, 91));
        let out = run_transfer(
            &source,
            &target,
            quick_train(),
            quick_detector(),
            ShardPlan::new(2).unwrap(),
        )
        .expect("transfer run");

        assert!(out.in_domain.in_domain());
        assert!(!out.transfer.in_domain());
        assert_eq!(out.in_domain.train_region, out.transfer.train_region);
        assert_ne!(out.in_domain.eval_region, out.transfer.eval_region);
        assert_eq!(
            out.in_domain.images,
            out.source.dataset().split().test.len()
        );
        assert!(out.transfer.images > 0);
        assert!(out.retention().is_finite());

        let text = render_transfer_table("Cross-region transfer", &out.rows());
        assert!(text.contains("in-dom"), "{text}");
        assert!(text.contains("transfer"), "{text}");
    }

    #[test]
    fn transfer_rows_are_deterministic() {
        let source = SurveyConfig::smoke(17);
        let target = SurveyConfig::smoke(17).with_regions(RegionSet::synthetic_grid(2, 17));
        let plan = ShardPlan::new(2).unwrap();
        let a = run_transfer(&source, &target, quick_train(), quick_detector(), plan)
            .expect("first run");
        let b = run_transfer(&source, &target, quick_train(), quick_detector(), plan)
            .expect("second run");
        assert_eq!(a.in_domain, b.in_domain);
        assert_eq!(a.transfer, b.transfer);
    }
}
