//! The trained detector: per-class linear scorers over channel features.

use std::borrow::Cow;
use std::cell::Cell;
use std::ops::AddAssign;
use std::sync::OnceLock;

use nbhd_raster::RasterImage;
use nbhd_types::rng::sigmoid;
use nbhd_types::{BBox, Error, Indicator, IndicatorMap, IndicatorSet, Result};
use serde::{Deserialize, Serialize};

use crate::features::{cell_major, CellMajor, PlannedRun, RunPool, LANES};
use crate::{nms, AnchorSet, Detection, FeatureMap, IntegralChannels, FEATURE_DIM};

/// A per-class mixture of linear scorers, one per anchor template, so that
/// visually distinct appearance modes (e.g. an along-road sidewalk wedge vs.
/// an across-road sidewalk band) each get their own component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassModel {
    /// One scorer per anchor template.
    pub components: Vec<ClassScorer>,
}

impl ClassModel {
    /// A zeroed model with one component per template.
    pub fn zeros(n_templates: usize) -> ClassModel {
        ClassModel {
            components: (0..n_templates.max(1))
                .map(|_| ClassScorer::zeros())
                .collect(),
        }
    }

    /// Scores features through the given component (clamped to range).
    pub fn score(&self, template: usize, features: &[f32]) -> f32 {
        self.component(template).score(features)
    }

    /// The component for a template (clamped to range).
    fn component(&self, template: usize) -> &ClassScorer {
        &self.components[template.min(self.components.len() - 1)]
    }
}

/// Detector hyperparameters shared between training and inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorConfig {
    /// Feature-map cell size in pixels.
    pub shrink: u32,
    /// Score threshold for emitting a detection.
    pub score_threshold: f32,
    /// IoU threshold for NMS.
    pub nms_iou: f32,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            shrink: 8,
            score_threshold: 0.5,
            nms_iou: 0.45,
        }
    }
}

/// A linear logistic scorer for one class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassScorer {
    /// Feature weights (`FEATURE_DIM` long).
    pub weights: Vec<f32>,
    /// Bias term.
    pub bias: f32,
}

impl ClassScorer {
    /// A zero-initialized scorer.
    pub fn zeros() -> Self {
        ClassScorer {
            weights: vec![0.0; FEATURE_DIM],
            bias: 0.0,
        }
    }

    /// Raw margin for a feature vector.
    pub fn margin(&self, features: &[f32]) -> f32 {
        debug_assert_eq!(features.len(), self.weights.len());
        let mut m = self.bias;
        for (w, f) in self.weights.iter().zip(features) {
            m += w * f;
        }
        m
    }

    /// Probability (sigmoid of the margin).
    pub fn score(&self, features: &[f32]) -> f32 {
        sigmoid(self.margin(features) as f64) as f32
    }

    /// One SGD step on a logistic-loss example: every weight moves by
    /// `lr * (g * f + l2 * w)` with `g = p - label`.
    ///
    /// A subnormal `g` (a confidently right example) makes every `g * f` a
    /// slow subnormal product, yet most of them cannot reach the sum: with
    /// `|g| < 2^-126` and `|f| <= 32`, `|g * f| < 2^-121`, under a quarter
    /// ulp of any `l2 * w` with `|l2 * w| >= 2^-90`, so the sum rounds to
    /// `l2 * w` exactly; and `f == 0` makes the product a zero whose sign
    /// is that of `g` times that of `f`. Those lanes take a zero of `g`'s
    /// sign times `f` instead, which gives the same bits. Every other lane
    /// keeps the exact product.
    pub fn sgd_step(&mut self, features: &[f32], label: f32, lr: f32, l2: f32) {
        let p = self.score(features);
        let g = p - label;
        if g.is_subnormal() {
            let zero = 0.0f32.copysign(g);
            for (w, &f) in self.weights.iter_mut().zip(features) {
                let decay = l2 * *w;
                let cannot_reach = f == 0.0 || (decay.abs() >= L2W_FLOOR && f.abs() <= 32.0);
                let step = if cannot_reach { zero * f } else { g * f };
                *w -= lr * (step + decay);
            }
        } else {
            for (w, f) in self.weights.iter_mut().zip(features) {
                *w -= lr * (g * f + l2 * *w);
            }
        }
        self.bias -= lr * g;
    }
}

/// `2^-90`: the least `|l2 * w|` whose quarter ulp (`2^-115`) exceeds any
/// `|g * f|` with a subnormal `g` and `|f| <= 32` (`< 2^-121`).
const L2W_FLOOR: f32 = 1.0 / (1u128 << 90) as f32;

/// Windows a scan covered, and how many of them the exact kernel scored
/// (the rest the [`Gate`] skipped).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScanCount {
    /// Windows of every planned run.
    pub(crate) windows: u64,
    /// Windows scored by the lane kernel.
    pub(crate) exact: u64,
}

impl AddAssign for ScanCount {
    fn add_assign(&mut self, other: ScanCount) {
        self.windows += other.windows;
        self.exact += other.exact;
    }
}

/// The scan's exact-bound gate for one run's scorer on one image: it skips
/// a window only when its exact score is sure to be below the floor.
///
/// The exact margin is `bias + sum(w * (mean / norm))` in f32, feature
/// order. The gate computes `bias + sum(w * mean) / norm` from the same
/// pooled means, with no per-feature division and in cell-major order.
/// Both are the same real sum rounded two ways, each off by at most about
/// `327 * 2^-24` of `B = |bias| + ||w||_1 * cell_max / norm` (324 products,
/// adds and divisions; every mean is non-negative and at most `cell_max`).
/// The slack `1e-3 * B + 1e-6` is 25 times their combined error, so a
/// window with `gate + slack < t` has an exact margin below `t` by at
/// least `1e-6`, and [`margin_floor`] makes `t` score below the floor. A
/// NaN anywhere fails the comparison and sends the window to the kernel.
#[derive(Debug)]
struct Gate {
    weights: CellMajor,
    bias: f32,
    /// `||w||_1 * cell_max`: bounds `sum(|w * mean|)`.
    reach: f32,
    /// The last floor seen and its [`margin_floor`].
    floor: (f32, Option<f32>),
}

impl Gate {
    /// The gate of `scorer` on an image whose cells are at most `cell_max`.
    fn new(scorer: &ClassScorer, cell_max: f32) -> Gate {
        Gate {
            weights: cell_major(&scorer.weights),
            bias: scorer.bias,
            reach: scorer.weights.iter().map(|w| w.abs()).sum::<f32>() * cell_max,
            floor: (f32::NAN, None),
        }
    }

    /// Whether the pooled run's window at y-major index `window` is sure to
    /// score below `floor`. A floor not in `(0, 1)` skips nothing.
    fn skips(&mut self, pool: &RunPool, run: &PlannedRun, window: usize, floor: f32) -> bool {
        if floor.to_bits() != self.floor.0.to_bits() {
            self.floor = (floor, margin_floor(floor));
        }
        let Some(t) = self.floor.1 else {
            return false;
        };
        let norm = pool.norm(window);
        let slack = 1e-3 * (self.bias.abs() + self.reach / norm) + 1e-6;
        self.bias + pool.weighted_sum(run, window, &self.weights) / norm + slack < t
    }
}

/// A margin `t` with `sigmoid(t as f64) as f32 < floor`, so every margin
/// below `t` scores below `floor`; `None` when `floor` is not in `(0, 1)`
/// (or is NaN), which turns the gate off.
fn margin_floor(floor: f32) -> Option<f32> {
    if !(floor > 0.0 && floor < 1.0) {
        return None;
    }
    // the logit of the next float down; stepped down while it rounds up
    let p = f64::from(floor.next_down());
    let mut t = (p / (1.0 - p)).ln() as f32;
    while sigmoid(f64::from(t)) as f32 >= floor {
        t = t.next_down();
    }
    Some(t)
}

/// The full object detector: one scorer and one anchor set per class.
///
/// Constructed by [`crate::Trainer`]; see the crate docs for the end-to-end
/// flow. Serializable so trained models can be saved and reloaded.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Detector {
    /// Shared configuration.
    pub config: DetectorConfig,
    /// Per-class mixture models (one component per anchor template).
    pub scorers: IndicatorMap<ClassModel>,
    /// Per-class anchor sets.
    pub anchors: IndicatorMap<AnchorSet>,
    /// Per-class operating thresholds (initialized from
    /// [`DetectorConfig::score_threshold`], recalibrated on the validation
    /// split by the trainer).
    pub thresholds: IndicatorMap<f32>,
}

impl Detector {
    /// A fresh untrained detector (all scores 0.5).
    pub fn untrained(config: DetectorConfig) -> Detector {
        let t = config.score_threshold;
        let anchors = IndicatorMap::from_fn(AnchorSet::for_class);
        Detector {
            config,
            scorers: IndicatorMap::from_fn(|i| ClassModel::zeros(anchors[i].templates.len())),
            anchors,
            thresholds: IndicatorMap::fill(t),
        }
    }

    /// Runs detection on an image: sliding-window scoring + per-class NMS.
    pub fn detect(&self, img: &RasterImage) -> Vec<Detection> {
        let integral = self.integral(img);
        self.detect_on(&integral, img.width())
    }

    /// Precomputes the integral channels for an image (exposed so callers
    /// evaluating many thresholds can reuse the expensive part).
    pub fn integral(&self, img: &RasterImage) -> IntegralChannels {
        IntegralChannels::new(&FeatureMap::compute(img, self.config.shrink))
    }

    /// Raw sliding-window scan: every window of every class scoring at
    /// least `min_score`, after per-class NMS. Evaluation uses a low
    /// `min_score` to trace the full precision-recall curve.
    pub fn scan(
        &self,
        integral: &IntegralChannels,
        image_size: u32,
        min_score: f32,
    ) -> Vec<Detection> {
        self.scan_planned(&OnceLock::new(), integral, image_size, min_score)
            .0
    }

    /// [`Self::scan`] with a stage's plan: `plan` holds the first plan the
    /// stage built, and each image of the stage's size reuses it. Also
    /// returns the scan's window counts.
    pub(crate) fn scan_planned(
        &self,
        plan: &OnceLock<ScanPlan>,
        integral: &IntegralChannels,
        image_size: u32,
        min_score: f32,
    ) -> (Vec<Detection>, ScanCount) {
        let plan = self.plan(plan, integral, image_size);
        let mut raw = Vec::new();
        let count = self.score_windows(
            &plan,
            integral,
            |_| min_score,
            |indicator, bbox, score| {
                if score >= min_score {
                    raw.push(Detection {
                        indicator,
                        bbox,
                        score,
                    });
                }
            },
        );
        (nms(raw, self.config.nms_iou), count)
    }

    /// The stage's plan in `cell` when it fits `integral` at `image_size`
    /// (building it from this image when the stage has none yet), else a
    /// plan of this image's own.
    fn plan<'a>(
        &self,
        cell: &'a OnceLock<ScanPlan>,
        integral: &IntegralChannels,
        image_size: u32,
    ) -> Cow<'a, ScanPlan> {
        let plan = cell.get_or_init(|| ScanPlan::new(self, integral, image_size));
        if plan.fits(integral, image_size) {
            Cow::Borrowed(plan)
        } else {
            Cow::Owned(ScanPlan::new(self, integral, image_size))
        }
    }

    /// The sliding-window loop behind [`Self::scan`] and
    /// [`Self::class_scores`]: scores the anchor windows of every class
    /// and hands each `(class, window, score)` to `visit`, in
    /// [`AnchorSet::windows`] order, except windows whose score is sure to
    /// fall below `floor(class)`. `plan` must fit `integral`.
    ///
    /// Each planned anchor run is pooled once ([`RunPool`]). A [`Gate`]
    /// then skips every window whose margin bound cannot reach the floor,
    /// and the rest are scored [`LANES`] windows at a time. Every lane
    /// repeats [`ClassScorer::score`]'s operations on its own window in the
    /// same order, so each visited score is bit-identical to scoring that
    /// window's [`IntegralChannels::window_feature`].
    fn score_windows(
        &self,
        plan: &ScanPlan,
        integral: &IntegralChannels,
        floor: impl Fn(Indicator) -> f32,
        mut visit: impl FnMut(Indicator, BBox, f32),
    ) -> ScanCount {
        let mut pool = RunPool::default();
        let mut means = Box::new([[0f32; LANES]; FEATURE_DIM]);
        let mut norms = [1f32; LANES];
        let mut batch = [0usize; LANES];
        let mut count = ScanCount::default();
        for (ind, planned) in &plan.runs {
            let (ind, run) = (*ind, &planned.run);
            let scorer = self.scorers[ind].component(run.template);
            pool.pool(integral, planned);
            let mut gate = Gate::new(scorer, integral.cell_max());
            count.windows += run.len() as u64;
            let mut next = 0;
            while next < run.len() {
                // the next LANES windows the gate lets through
                let mut filled = 0;
                while filled < LANES && next < run.len() {
                    if !gate.skips(&pool, planned, next, floor(ind)) {
                        batch[filled] = next;
                        filled += 1;
                    }
                    next += 1;
                }
                if filled == 0 {
                    break;
                }
                let batch = &batch[..filled];
                pool.gather(planned, batch, &mut means, &mut norms);
                let mut m = [scorer.bias; LANES];
                for (w, lanes) in scorer.weights.iter().zip(means.iter()) {
                    for l in 0..LANES {
                        m[l] += w * (lanes[l] / norms[l]);
                    }
                }
                for (&window, &margin) in batch.iter().zip(&m) {
                    let score = sigmoid(margin as f64) as f32;
                    visit(ind, run.window(window).bbox, score);
                }
                count.exact += filled as u64;
            }
        }
        count
    }

    /// Detection over precomputed integral channels at the per-class
    /// operating thresholds.
    pub fn detect_on(&self, integral: &IntegralChannels, image_size: u32) -> Vec<Detection> {
        let min = self
            .thresholds
            .values()
            .fold(f32::INFINITY, |a, &b| a.min(b));
        self.scan(integral, image_size, min)
            .into_iter()
            .filter(|d| d.score >= self.thresholds[d.indicator])
            .collect()
    }

    /// Best score per class over the whole scan (useful for presence
    /// classification and threshold calibration), regardless of threshold.
    /// A window that cannot beat its class's best so far cannot change the
    /// max, so the best is the scan's floor.
    pub fn class_scores(&self, integral: &IntegralChannels, image_size: u32) -> IndicatorMap<f32> {
        let best = IndicatorMap::fill(Cell::new(0f32));
        let plan = ScanPlan::new(self, integral, image_size);
        self.score_windows(
            &plan,
            integral,
            |ind| best[ind].get(),
            |ind, _, score| best[ind].set(best[ind].get().max(score)),
        );
        best.map(|_, b| b.get())
    }

    /// Image-level presence: classes whose best score clears their
    /// operating threshold.
    pub fn presence(&self, img: &RasterImage) -> IndicatorSet {
        let integral = self.integral(img);
        let scores = self.class_scores(&integral, img.width());
        Indicator::ALL
            .into_iter()
            .filter(|&i| scores[i] >= self.thresholds[i])
            .collect()
    }

    /// Scores one specific window for one class, routed to the component
    /// whose template shape best matches the window.
    pub fn score_window(&self, integral: &IntegralChannels, ind: Indicator, window: BBox) -> f32 {
        let mut buf = vec![0f32; FEATURE_DIM];
        integral.window_feature_into(window, &mut buf);
        let template = self.anchors[ind]
            .nearest_template(window, (integral.width() as u32) * integral.shrink());
        self.scorers[ind].score(template, &buf)
    }

    /// Serializes the detector to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] on serialization failure.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| Error::parse(e.to_string()))
    }

    /// Loads a detector from JSON, checking everything the scan and the
    /// feature map rely on.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`] on malformed input, and naming the field
    /// when: a component's weights are not [`FEATURE_DIM`] long; a weight,
    /// bias, threshold or `nms_iou` is not finite (a literal past `f32`'s
    /// range parses to infinity); a class has a component count other than
    /// its template count; the cell size or a stride is zero; or a class
    /// has no templates or scales, or one that is not finite and positive.
    pub fn from_json(json: &str) -> Result<Detector> {
        let detector: Detector =
            serde_json::from_str(json).map_err(|e| Error::parse(e.to_string()))?;
        detector.validate()?;
        Ok(detector)
    }

    /// The checks behind [`Self::from_json`].
    fn validate(&self) -> Result<()> {
        let fail = |what: String| Err(Error::parse(format!("detector {what}")));
        let positive = |v: f32| v.is_finite() && v > 0.0;
        let config = &self.config;
        if config.shrink == 0 {
            return fail("config.shrink is 0".into());
        }
        for (name, v) in [
            ("score_threshold", config.score_threshold),
            ("nms_iou", config.nms_iou),
        ] {
            if !v.is_finite() {
                return fail(format!("config.{name} is not finite"));
            }
        }
        for ind in Indicator::ALL {
            let anchors = &self.anchors[ind];
            if anchors.stride_cells == 0 {
                return fail(format!("anchors.{ind}.stride_cells is 0"));
            }
            if anchors.templates.is_empty() || anchors.scales.is_empty() {
                return fail(format!("anchors.{ind} has no templates or no scales"));
            }
            if !anchors
                .templates
                .iter()
                .all(|t| positive(t.w) && positive(t.h))
            {
                return fail(format!(
                    "anchors.{ind}.templates has a size that is not finite and positive"
                ));
            }
            if !anchors.scales.iter().copied().all(positive) {
                return fail(format!(
                    "anchors.{ind}.scales has one that is not finite and positive"
                ));
            }
            if !self.thresholds[ind].is_finite() {
                return fail(format!("thresholds.{ind} is not finite"));
            }
            let components = &self.scorers[ind].components;
            if components.len() != anchors.templates.len() {
                return fail(format!(
                    "scorers.{ind}.components has {} components for {} templates",
                    components.len(),
                    anchors.templates.len()
                ));
            }
            for (k, c) in components.iter().enumerate() {
                if c.weights.len() != FEATURE_DIM {
                    return fail(format!(
                        "scorers.{ind}.components[{k}].weights has {} weights, not {FEATURE_DIM}",
                        c.weights.len()
                    ));
                }
                if let Some(j) = c.weights.iter().position(|w| !w.is_finite()) {
                    return fail(format!(
                        "scorers.{ind}.components[{k}].weights[{j}] is not finite"
                    ));
                }
                if !c.bias.is_finite() {
                    return fail(format!("scorers.{ind}.components[{k}].bias is not finite"));
                }
            }
        }
        Ok(())
    }
}

/// The image-independent half of a scan: every anchor run of every class,
/// in scan order, planned over one cell grid. It depends on the detector's
/// anchors and cell size, the image size and the grid, not on the pixels or
/// the weights, so a stage that scans many same-sized images builds it once.
#[derive(Debug, Clone)]
pub(crate) struct ScanPlan {
    image_size: u32,
    /// The planned grid: cells per row and column, and pixels per cell.
    grid: (usize, usize, u32),
    runs: Vec<(Indicator, PlannedRun)>,
}

impl ScanPlan {
    /// Plans the detector's scan of `integral`'s grid at `image_size`.
    pub(crate) fn new(
        detector: &Detector,
        integral: &IntegralChannels,
        image_size: u32,
    ) -> ScanPlan {
        let runs = Indicator::ALL
            .into_iter()
            .flat_map(|ind| {
                detector.anchors[ind]
                    .runs(image_size, detector.config.shrink)
                    .into_iter()
                    .map(move |run| (ind, PlannedRun::new(run, integral)))
            })
            .collect();
        ScanPlan {
            image_size,
            grid: Self::grid(integral),
            runs,
        }
    }

    fn grid(integral: &IntegralChannels) -> (usize, usize, u32) {
        (integral.width(), integral.height(), integral.shrink())
    }

    /// Whether the plan was made for `integral`'s grid at `image_size`.
    fn fits(&self, integral: &IntegralChannels, image_size: u32) -> bool {
        self.image_size == image_size && self.grid == Self::grid(integral)
    }

    /// Distinct pooling rectangles over every run.
    #[cfg(test)]
    pub(crate) fn rects(&self) -> usize {
        self.runs.iter().map(|(_, run)| run.rects()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::tests::textured_image;
    use nbhd_geo::{RoadClass, Zoning};
    use nbhd_raster::Rgb;
    use nbhd_scene::{render, SceneGenerator, ViewKind};
    use nbhd_types::rng::rng_from;
    use nbhd_types::{Heading, ImageId, LocationId};
    use rand::Rng;

    #[test]
    fn scorer_sgd_learns_a_separable_problem() {
        let mut scorer = ClassScorer::zeros();
        // feature 0 high => positive
        let pos = {
            let mut f = vec![0.0; FEATURE_DIM];
            f[0] = 1.0;
            f
        };
        let neg = {
            let mut f = vec![0.0; FEATURE_DIM];
            f[1] = 1.0;
            f
        };
        for _ in 0..200 {
            scorer.sgd_step(&pos, 1.0, 0.5, 1e-4);
            scorer.sgd_step(&neg, 0.0, 0.5, 1e-4);
        }
        assert!(scorer.score(&pos) > 0.9);
        assert!(scorer.score(&neg) < 0.1);
    }

    /// The SGD step with the exact product in every lane, kept as the
    /// reference the subnormal fast path must match bit for bit.
    fn reference_sgd_step(
        scorer: &mut ClassScorer,
        features: &[f32],
        label: f32,
        lr: f32,
        l2: f32,
    ) {
        let p = scorer.score(features);
        let g = p - label;
        for (w, f) in scorer.weights.iter_mut().zip(features) {
            *w -= lr * (g * f + l2 * *w);
        }
        scorer.bias -= lr * g;
    }

    #[test]
    fn sgd_steps_with_a_subnormal_gradient_are_bit_identical_to_the_reference() {
        // signed zeros, |f| past 32 and at it, and ordinary features
        let features = [
            0.0f32, -0.0, 40.0, -33.0, 1e3, 32.0, -32.0, 0.5, -2.0, 1e-3, 1e-40,
        ];
        // zero weights, weights whose decay falls under 2^-90 (with l2 =
        // 1e-5: 1e-35, 1e-30, 5e-28) or just over it (1e-27), ordinary ones
        let weights = [0.0f32, -0.0, 1e-30, -1e-25, 5e-23, -1e-22, 0.3, -1.7];
        // label 0 gives a positive subnormal g, a tiny positive label a
        // negative one
        for (label, l2) in [(0.0f32, 1e-5f32), (1e-40, 1e-5), (0.0, 0.0), (1e-40, 1e-4)] {
            let mut fast = ClassScorer::zeros();
            let mut f: Vec<f32> = (0..FEATURE_DIM)
                .map(|i| features[i % features.len()])
                .collect();
            for (i, w) in fast.weights.iter_mut().enumerate() {
                *w = weights[i % weights.len()];
            }
            // features large enough that g * f does reach a decay over
            // 2^-90, on weights too small to move the margin
            for (i, big) in [1e12f32, -1e12].into_iter().enumerate() {
                f[i] = big;
                fast.weights[i] = 1e-22;
            }
            // a margin near -95 puts the sigmoid in the subnormal range
            fast.bias = -95.0 - fast.margin(&f);
            let mut slow = fast.clone();
            for step in 0..4 {
                let g = fast.score(&f) - label;
                assert!(g.is_subnormal(), "label {label}, step {step}: g {g:e}");
                fast.sgd_step(&f, label, 0.3, l2);
                reference_sgd_step(&mut slow, &f, label, 0.3, l2);
                let bits = |s: &ClassScorer| -> Vec<u32> {
                    s.weights
                        .iter()
                        .chain([&s.bias])
                        .map(|v| v.to_bits())
                        .collect()
                };
                assert_eq!(
                    bits(&fast),
                    bits(&slow),
                    "label {label}, l2 {l2}, step {step}"
                );
            }
        }
    }

    /// A detector whose every component has seeded nonzero weights and
    /// bias, so each score depends on every feature of its window.
    fn seeded_detector(shrink: u32) -> Detector {
        let mut det = Detector::untrained(DetectorConfig {
            shrink,
            ..DetectorConfig::default()
        });
        let mut rng = rng_from(7);
        for ind in Indicator::ALL {
            for c in &mut det.scorers[ind].components {
                c.weights = (0..FEATURE_DIM)
                    .map(|_| rng.random_range(-0.5f32..0.5))
                    .collect();
                c.bias = rng.random_range(-1.0f32..1.0);
            }
        }
        det
    }

    fn rendered_scene(size: u32) -> RasterImage {
        let id = ImageId::new(LocationId(3), Heading::East);
        let spec = SceneGenerator::new(11).compose_raw(
            id,
            Zoning::Urban,
            RoadClass::Multilane,
            ViewKind::AlongRoad,
        );
        render(&spec, size).0
    }

    fn bits(d: &Detection) -> (Indicator, [u32; 5]) {
        let b = d.bbox;
        (d.indicator, [b.x, b.y, b.w, b.h, d.score].map(f32::to_bits))
    }

    #[test]
    fn run_scan_is_bit_identical_to_scoring_each_window_feature() {
        // one stage plan across every image: made at 96 px, shrink 4, it
        // serves that grid's second image and no other grid
        let stage = OnceLock::new();
        for size in [96u32, 160, 640] {
            for shrink in [4u32, 8] {
                let det = seeded_detector(shrink);
                for (name, img) in [
                    ("textured", textured_image(size)),
                    ("scene", rendered_scene(size)),
                ] {
                    let integral = det.integral(&img);
                    let mut reference = Vec::new();
                    for ind in Indicator::ALL {
                        for w in det.anchors[ind].windows(size, shrink) {
                            let features = integral.window_feature(w.bbox);
                            reference.push(Detection {
                                indicator: ind,
                                bbox: w.bbox,
                                score: det.scorers[ind].score(w.template, &features),
                            });
                        }
                    }
                    let mut visited = Vec::new();
                    let plan = ScanPlan::new(&det, &integral, size);
                    det.score_windows(
                        &plan,
                        &integral,
                        |_| 0.0,
                        |indicator, bbox, score| {
                            visited.push(Detection {
                                indicator,
                                bbox,
                                score,
                            })
                        },
                    );
                    let at = format!("{name} {size} px, shrink {shrink}");
                    assert_eq!(visited.len(), reference.len(), "{at}");
                    for (i, (v, r)) in visited.iter().zip(&reference).enumerate() {
                        assert_eq!(bits(v), bits(r), "{at}, window {i}: {v:?} vs {r:?}");
                    }

                    let scan: Vec<_> = det.scan(&integral, size, 0.0).iter().map(bits).collect();
                    let want: Vec<_> = nms(reference.clone(), det.config.nms_iou)
                        .iter()
                        .map(bits)
                        .collect();
                    assert_eq!(scan, want, "{at}: scan");
                    let staged: Vec<_> = det
                        .scan_planned(&stage, &integral, size, 0.0)
                        .0
                        .iter()
                        .map(bits)
                        .collect();
                    assert_eq!(staged, want, "{at}: scan on the stage plan");

                    let mut best = IndicatorMap::fill(0f32);
                    for r in &reference {
                        best[r.indicator] = best[r.indicator].max(r.score);
                    }
                    let scores = det.class_scores(&integral, size);
                    for ind in Indicator::ALL {
                        assert_eq!(scores[ind].to_bits(), best[ind].to_bits(), "{at}: {ind}");
                    }
                }
            }
        }
    }

    /// Every visit of a scan of `det` on `integral` whose gate uses
    /// `floor`, in visit order, with the scan's counts.
    fn visits(
        det: &Detector,
        integral: &IntegralChannels,
        size: u32,
        floor: impl Fn(Indicator) -> f32,
    ) -> (Vec<Detection>, ScanCount) {
        let plan = ScanPlan::new(det, integral, size);
        let mut visited = Vec::new();
        let count = det.score_windows(&plan, integral, floor, |indicator, bbox, score| {
            visited.push(Detection {
                indicator,
                bbox,
                score,
            })
        });
        (visited, count)
    }

    /// `det` with every weight and bias scaled by `by`.
    fn scaled(mut det: Detector, by: f32) -> Detector {
        for ind in Indicator::ALL {
            for c in &mut det.scorers[ind].components {
                c.weights.iter_mut().for_each(|w| *w *= by);
                c.bias *= by;
            }
        }
        det
    }

    #[test]
    fn gated_scan_is_bit_identical_to_the_ungated_lane_kernel() {
        let mut skipped = 0;
        for size in [96u32, 160, 640] {
            for by in [1.0f32, 1e4, 1e-4] {
                let mut det = scaled(seeded_detector(8), by);
                for (k, ind) in Indicator::ALL.into_iter().enumerate() {
                    det.thresholds[ind] = 0.35 + 0.1 * k as f32;
                }
                for (name, img) in [
                    ("textured", textured_image(size)),
                    ("scene", rendered_scene(size)),
                ] {
                    let integral = det.integral(&img);
                    let at = format!("{name} {size} px, weights x{by}");
                    // a floor of 0 turns the gate off: every window visited
                    let (all, ungated) = visits(&det, &integral, size, |_| 0.0);
                    assert_eq!(ungated.exact, ungated.windows, "{at}");
                    assert_eq!(all.len() as u64, ungated.windows, "{at}");
                    let mut sorted: Vec<f32> = all.iter().map(|d| d.score).collect();
                    sorted.sort_by(f32::total_cmp);
                    let mut floors = vec![0.08f32, 0.3, 1.0, f32::NAN];
                    floors.extend(det.thresholds.values());
                    // scores the ungated scan gave: the boundary cases
                    floors.extend([sorted[sorted.len() / 2], sorted[sorted.len() * 9 / 10]]);
                    for floor in floors {
                        let want: Vec<_> =
                            all.iter().filter(|d| d.score >= floor).map(bits).collect();
                        let (gated, count) = visits(&det, &integral, size, |_| floor);
                        let got: Vec<_> = gated
                            .iter()
                            .filter(|d| d.score >= floor)
                            .map(bits)
                            .collect();
                        assert_eq!(got, want, "{at}, floor {floor}");
                        assert_eq!(count.windows, ungated.windows, "{at}, floor {floor}");
                        assert_eq!(count.exact, gated.len() as u64, "{at}, floor {floor}");
                        skipped += count.windows - count.exact;
                    }
                    // per-class floors, as detect_on's thresholds filter
                    let (gated, _) = visits(&det, &integral, size, |ind| det.thresholds[ind]);
                    let keep = |d: &&Detection| d.score >= det.thresholds[d.indicator];
                    let got: Vec<_> = gated.iter().filter(keep).map(bits).collect();
                    let want: Vec<_> = all.iter().filter(keep).map(bits).collect();
                    assert_eq!(got, want, "{at}, per-class thresholds");
                    let mut best = IndicatorMap::fill(0f32);
                    for d in &all {
                        best[d.indicator] = best[d.indicator].max(d.score);
                    }
                    let scores = det.class_scores(&integral, size);
                    for ind in Indicator::ALL {
                        assert_eq!(scores[ind].to_bits(), best[ind].to_bits(), "{at}: {ind}");
                    }
                }
            }
        }
        assert!(skipped > 0, "the gate never skipped a window");
    }

    #[test]
    fn margin_floor_scores_below_its_floor() {
        for floor in [0.0f32, -0.0, -0.3, 1.0, 1.5, f32::NAN, f32::INFINITY] {
            assert_eq!(margin_floor(floor), None, "{floor}");
        }
        // a stride over every float in (0, 1), and the ends of that range
        let mut floors: Vec<f32> = (1..0x3f80_0000u32)
            .step_by(9_973)
            .map(f32::from_bits)
            .collect();
        floors.extend([
            f32::from_bits(1),
            f32::MIN_POSITIVE,
            1e-30,
            1.0f32.next_down(),
            0.5,
            0.5f32.next_up(),
        ]);
        floors.extend((1..1000).map(|k| k as f32 / 1000.0));
        for floor in floors {
            let t = margin_floor(floor).expect("a floor in (0, 1)");
            assert!(
                (sigmoid(f64::from(t)) as f32) < floor,
                "floor {floor:e}: t {t}"
            );
            if (1e-3..=0.999).contains(&floor) {
                let logit = (f64::from(floor) / (1.0 - f64::from(floor))).ln();
                assert!((f64::from(t) - logit).abs() < 1e-3, "floor {floor}: t {t}");
            }
        }
    }

    #[test]
    fn untrained_detector_scores_half_everywhere() {
        let det = Detector::untrained(DetectorConfig::default());
        let img = RasterImage::filled(64, 64, Rgb::gray(100));
        let integral = det.integral(&img);
        let scores = det.class_scores(&integral, 64);
        for (_, s) in scores.iter() {
            assert!((s - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn detector_json_round_trip() {
        let mut det = Detector::untrained(DetectorConfig::default());
        det.scorers[Indicator::Sidewalk].components[0].bias = 1.5;
        det.scorers[Indicator::Sidewalk].components[0].weights[3] = -0.25;
        let json = det.to_json().unwrap();
        let back = Detector::from_json(&json).unwrap();
        assert_eq!(det, back);
        assert!(Detector::from_json("{bad").is_err());
    }

    #[test]
    fn from_json_names_the_field_it_rejects() {
        // 1234.5 marks the field a case sets to a literal past f32's range
        type Break = fn(&mut Detector);
        let cases: [(&str, Break); 12] = [
            ("weights has 322", |d| {
                d.scorers[Indicator::Sidewalk].components[1]
                    .weights
                    .truncate(322)
            }),
            ("Apartment.components[2].weights[7] is not finite", |d| {
                d.scorers[Indicator::Apartment].components[2].weights[7] = 1234.5
            }),
            ("Streetlight.components[0].bias is not finite", |d| {
                d.scorers[Indicator::Streetlight].components[0].bias = 1234.5
            }),
            ("thresholds.Powerline", |d| {
                d.thresholds[Indicator::Powerline] = 1234.5
            }),
            ("config.nms_iou is not finite", |d| {
                d.config.nms_iou = 1234.5
            }),
            ("2 components for 3 templates", |d| {
                d.scorers[Indicator::Apartment].components.pop();
            }),
            ("config.shrink is 0", |d| d.config.shrink = 0),
            ("anchors.Sidewalk.stride_cells is 0", |d| {
                d.anchors[Indicator::Sidewalk].stride_cells = 0
            }),
            ("anchors.Streetlight has no templates", |d| {
                d.anchors[Indicator::Streetlight].templates.clear();
                d.scorers[Indicator::Streetlight].components.clear();
            }),
            ("anchors.Powerline.templates", |d| {
                d.anchors[Indicator::Powerline].templates[3].h = 1234.5
            }),
            ("anchors.Powerline.templates", |d| {
                d.anchors[Indicator::Powerline].templates[0].w = 0.0
            }),
            ("anchors.Apartment.scales", |d| {
                d.anchors[Indicator::Apartment].scales[1] = 1234.5
            }),
        ];
        let good = Detector::untrained(DetectorConfig::default());
        assert_eq!(Detector::from_json(&good.to_json().unwrap()).unwrap(), good);
        for (want, break_it) in cases {
            let mut det = good.clone();
            break_it(&mut det);
            let json = det.to_json().unwrap().replace("1234.5", "1e39");
            match Detector::from_json(&json) {
                Err(Error::Parse(msg)) => assert!(msg.contains(want), "{want}: {msg}"),
                other => panic!("{want}: {other:?}"),
            }
        }
    }

    #[test]
    fn threshold_gates_detections() {
        let mut det = Detector::untrained(DetectorConfig {
            score_threshold: 0.6,
            ..DetectorConfig::default()
        });
        let img = RasterImage::filled(64, 64, Rgb::gray(100));
        assert!(
            det.detect(&img).is_empty(),
            "0.5 scores below 0.6 threshold"
        );
        det.thresholds = nbhd_types::IndicatorMap::fill(0.4);
        assert!(
            !det.detect(&img).is_empty(),
            "0.5 scores above 0.4 threshold"
        );
    }

    #[test]
    fn presence_follows_biases() {
        let mut det = Detector::untrained(DetectorConfig::default());
        for c in &mut det.scorers[Indicator::Powerline].components {
            c.bias = 3.0;
        }
        for c in &mut det.scorers[Indicator::Sidewalk].components {
            c.bias = -3.0;
        }
        let img = RasterImage::filled(64, 64, Rgb::gray(100));
        let p = det.presence(&img);
        assert!(p.contains(Indicator::Powerline));
        assert!(!p.contains(Indicator::Sidewalk));
    }
}
