//! Per-class anchor templates and the sliding-window scan.

use nbhd_types::{BBox, Indicator};
use serde::{Deserialize, Serialize};

/// An anchor template: a window shape relative to the image side.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Anchor {
    /// Width as a fraction of the image side.
    pub w: f32,
    /// Height as a fraction of the image side.
    pub h: f32,
}

impl Anchor {
    /// Creates an anchor.
    pub const fn new(w: f32, h: f32) -> Self {
        Anchor { w, h }
    }

    /// The pixel-space box for this anchor at a scale, anchored at `(x, y)`.
    pub fn at(self, x: f32, y: f32, scale: f32, image_size: u32) -> BBox {
        let s = image_size as f32;
        BBox::new(x, y, self.w * scale * s, self.h * scale * s)
    }
}

/// A candidate window tagged with the template (mixture component) that
/// generated it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorWindow {
    /// Index into [`AnchorSet::templates`].
    pub template: usize,
    /// The window in pixel coordinates.
    pub bbox: BBox,
}

/// The windows of one (template, scale) pair: every window has the same
/// size, and the origins are every `(x, y)` in `xs` × `ys`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnchorRun {
    /// Index into [`AnchorSet::templates`].
    pub template: usize,
    /// Window width in pixels.
    pub w: f32,
    /// Window height in pixels.
    pub h: f32,
    /// Window left edges, ascending.
    pub xs: Vec<f32>,
    /// Window top edges, ascending.
    pub ys: Vec<f32>,
}

impl AnchorRun {
    /// Number of windows in the run.
    pub fn len(&self) -> usize {
        self.xs.len() * self.ys.len()
    }

    /// Whether the run has no windows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th window in y-major order (rows of `xs`, one per `ys`).
    ///
    /// # Panics
    ///
    /// Panics when `i >= self.len()`.
    pub fn window(&self, i: usize) -> AnchorWindow {
        let (x, y) = (self.xs[i % self.xs.len()], self.ys[i / self.xs.len()]);
        AnchorWindow {
            template: self.template,
            bbox: BBox::new(x, y, self.w, self.h),
        }
    }

    /// The run's windows in y-major order.
    pub fn windows(&self) -> impl Iterator<Item = AnchorWindow> + '_ {
        (0..self.len()).map(|i| self.window(i))
    }
}

/// The anchor templates and scales scanned for one class.
///
/// Shapes reflect how each indicator appears in street-level views: tall
/// thin streetlights, wide flat sidewalk strips / road bands, large road
/// trapezoids, wide powerline spans, and blocky apartments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnchorSet {
    /// Shape templates.
    pub templates: Vec<Anchor>,
    /// Multiplicative scales applied to each template.
    pub scales: Vec<f32>,
    /// Scan stride in feature-map cells.
    pub stride_cells: usize,
}

impl AnchorSet {
    /// The default anchor set for a class.
    ///
    /// Template shapes are fit to the ground-truth box statistics of
    /// rendered scenes (along-road and across-road views both covered);
    /// thin classes scan at a finer stride because stride quantization
    /// costs them disproportionate IoU.
    pub fn for_class(ind: Indicator) -> AnchorSet {
        let (templates, scales, stride_cells) = match ind {
            Indicator::Streetlight => (
                vec![Anchor::new(0.06, 0.40)],
                vec![0.6, 0.85, 1.15, 1.45],
                1,
            ),
            Indicator::Sidewalk => (
                // along-view wedge plus across-view bands of varying reach
                vec![
                    Anchor::new(0.43, 0.50),
                    Anchor::new(0.60, 0.062),
                    Anchor::new(0.82, 0.062),
                    Anchor::new(0.95, 0.062),
                ],
                vec![0.9, 1.0, 1.15],
                2,
            ),
            Indicator::SingleLaneRoad | Indicator::MultilaneRoad => (
                // along-view trapezoid and across-view bands
                vec![
                    Anchor::new(0.92, 0.56),
                    Anchor::new(1.0, 0.075),
                    Anchor::new(1.0, 0.115),
                ],
                vec![0.8, 1.0, 1.2],
                2,
            ),
            Indicator::Powerline => (
                // along-view pole runs and the full-width across-view span
                vec![
                    Anchor::new(0.20, 0.52),
                    Anchor::new(0.30, 0.52),
                    Anchor::new(0.40, 0.52),
                    Anchor::new(1.0, 0.70),
                ],
                vec![0.9, 1.0, 1.1],
                2,
            ),
            Indicator::Apartment => (
                vec![
                    Anchor::new(0.13, 0.31),
                    Anchor::new(0.42, 0.46),
                    Anchor::new(0.58, 0.52),
                ],
                vec![0.8, 1.0, 1.25],
                2,
            ),
        };
        AnchorSet {
            templates,
            scales,
            stride_cells,
        }
    }

    /// Enumerates candidate windows over an image, clamped to fit, each
    /// tagged with its generating template: the y-major windows of every
    /// run of [`Self::runs`], in order.
    ///
    /// `shrink` is the feature-map cell size in pixels.
    pub fn windows(&self, image_size: u32, shrink: u32) -> Vec<AnchorWindow> {
        self.runs(image_size, shrink)
            .iter()
            .flat_map(AnchorRun::windows)
            .collect()
    }

    /// The window grids of every (template, scale) pair, templates outer
    /// and scales inner. Each window is clamped to fit the image.
    ///
    /// `shrink` is the feature-map cell size in pixels.
    pub fn runs(&self, image_size: u32, shrink: u32) -> Vec<AnchorRun> {
        let s = image_size as f32;
        let step = (self.stride_cells as u32 * shrink) as f32;
        // origins 0, step, 2 step, ..., with the last one clamped so the
        // window ends at the image edge
        let origins = |extent: f32| {
            let mut out = vec![0.0f32];
            let mut at = 0.0f32;
            while at + extent < s {
                at = (at + step).min(s - extent);
                out.push(at);
            }
            out
        };
        let mut out = Vec::with_capacity(self.templates.len() * self.scales.len());
        for (t_idx, template) in self.templates.iter().enumerate() {
            for &scale in &self.scales {
                let w = (template.w * scale * s).min(s);
                let h = (template.h * scale * s).min(s);
                out.push(AnchorRun {
                    template: t_idx,
                    w,
                    h,
                    xs: origins(w),
                    ys: origins(h),
                });
            }
        }
        out
    }

    /// Finds the anchor box (centered on `target`'s center) with the best
    /// IoU against `target`, for snapping training positives. Returns the
    /// template index, the snapped box, and the achieved IoU.
    pub fn snap(&self, target: BBox, image_size: u32) -> (usize, BBox, f32) {
        let s = image_size as f32;
        let c = target.center();
        let mut best = (0usize, target, 0.0f32);
        for (t_idx, template) in self.templates.iter().enumerate() {
            for &scale in &self.scales {
                let w = (template.w * scale * s).min(s);
                let h = (template.h * scale * s).min(s);
                let snapped = BBox::new(
                    (c.x - w / 2.0).clamp(0.0, s - w),
                    (c.y - h / 2.0).clamp(0.0, s - h),
                    w,
                    h,
                );
                let iou = snapped.iou(target);
                if iou > best.2 {
                    best = (t_idx, snapped, iou);
                }
            }
        }
        best
    }

    /// The template whose shape (over all scales) best matches a box —
    /// used to route arbitrary windows to the right mixture component.
    pub fn nearest_template(&self, bbox: BBox, image_size: u32) -> usize {
        let s = image_size as f32;
        let mut best = (0usize, f32::NEG_INFINITY);
        for (t_idx, template) in self.templates.iter().enumerate() {
            for &scale in &self.scales {
                let w = (template.w * scale * s).min(s);
                let h = (template.h * scale * s).min(s);
                let proto = BBox::new(bbox.x, bbox.y, w, h);
                let iou = proto.iou(BBox::new(bbox.x, bbox.y, bbox.w, bbox.h));
                if iou > best.1 {
                    best = (t_idx, iou);
                }
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::ScanPlan;
    use crate::{Detector, DetectorConfig, FeatureMap, IntegralChannels};

    #[test]
    fn every_class_has_anchors() {
        for ind in Indicator::ALL {
            let a = AnchorSet::for_class(ind);
            assert!(!a.templates.is_empty());
            assert!(!a.scales.is_empty());
            assert!(a.stride_cells > 0);
        }
    }

    #[test]
    fn windows_stay_inside_the_image() {
        for ind in Indicator::ALL {
            let a = AnchorSet::for_class(ind);
            for w in a.windows(160, 8) {
                assert!(w.template < a.templates.len());
                let b = w.bbox;
                assert!(b.x >= 0.0 && b.y >= 0.0, "{ind}: {b:?}");
                assert!(b.right() <= 160.0 + 1e-3, "{ind}: {b:?}");
                assert!(b.bottom() <= 160.0 + 1e-3, "{ind}: {b:?}");
            }
        }
    }

    #[test]
    fn streetlight_windows_are_tall_and_thin() {
        let a = AnchorSet::for_class(Indicator::Streetlight);
        for w in a.windows(320, 8) {
            assert!(
                w.bbox.h > w.bbox.w,
                "streetlight anchor must be portrait: {w:?}"
            );
        }
    }

    #[test]
    fn window_count_is_tractable() {
        for ind in Indicator::ALL {
            let a = AnchorSet::for_class(ind);
            let n = a.windows(640, 8).len();
            assert!(n > 10, "{ind}: too few windows ({n})");
            assert!(n < 20_000, "{ind}: scan blowup ({n})");
        }
    }

    /// The window enumeration before runs existed: one nested loop per
    /// (template, scale), x inner.
    fn reference_windows(a: &AnchorSet, image_size: u32, shrink: u32) -> Vec<AnchorWindow> {
        let s = image_size as f32;
        let step = (a.stride_cells as u32 * shrink) as f32;
        let mut out = Vec::new();
        for (t_idx, template) in a.templates.iter().enumerate() {
            for &scale in &a.scales {
                let w = (template.w * scale * s).min(s);
                let h = (template.h * scale * s).min(s);
                let mut y = 0.0f32;
                loop {
                    let mut x = 0.0f32;
                    loop {
                        out.push(AnchorWindow {
                            template: t_idx,
                            bbox: BBox::new(x, y, w, h),
                        });
                        if x + w >= s {
                            break;
                        }
                        x = (x + step).min(s - w);
                    }
                    if y + h >= s {
                        break;
                    }
                    y = (y + step).min(s - h);
                }
            }
        }
        out
    }

    fn bits(windows: &[AnchorWindow]) -> Vec<(usize, [u32; 4])> {
        windows
            .iter()
            .map(|w| {
                let b = w.bbox;
                (w.template, [b.x, b.y, b.w, b.h].map(f32::to_bits))
            })
            .collect()
    }

    #[test]
    fn windows_are_the_flattened_runs_in_reference_order() {
        for ind in Indicator::ALL {
            let a = AnchorSet::for_class(ind);
            for (size, shrink) in [96u32, 160, 640]
                .into_iter()
                .flat_map(|n| [(n, 4u32), (n, 8)])
            {
                let runs = a.runs(size, shrink);
                assert_eq!(runs.len(), a.templates.len() * a.scales.len());
                let flattened: Vec<AnchorWindow> =
                    runs.iter().flat_map(AnchorRun::windows).collect();
                let reference = bits(&reference_windows(&a, size, shrink));
                assert_eq!(bits(&flattened), reference, "{ind} {size} px / {shrink}");
                assert_eq!(
                    bits(&a.windows(size, shrink)),
                    reference,
                    "{ind} {size} px / {shrink}"
                );
                for run in &runs {
                    assert!(run.xs.windows(2).all(|p| p[0] < p[1]), "{run:?}");
                    assert!(run.ys.windows(2).all(|p| p[0] < p[1]), "{run:?}");
                }
            }
        }
    }

    /// The scan's work: windows scored per image, and the distinct pooling
    /// rectangles the run tables hold. A scan that pooled every window's
    /// 36 cells again would still score bit-identically, but it would pool
    /// 339,012 rectangles at 160 px instead of 93,672.
    #[test]
    fn scan_work_counts_are_pinned() {
        let total = |size: u32, shrink: u32| -> usize {
            Indicator::ALL
                .into_iter()
                .map(|ind| AnchorSet::for_class(ind).windows(size, shrink).len())
                .sum()
        };
        assert_eq!(total(160, 4), 9_417);
        assert_eq!(total(640, 8), 34_096);

        let rects = |size: u32, shrink: u32| {
            let img = nbhd_raster::RasterImage::filled(size, size, nbhd_raster::Rgb::gray(90));
            let integral = IntegralChannels::new(&FeatureMap::compute(&img, shrink));
            let detector = Detector::untrained(DetectorConfig {
                shrink,
                ..DetectorConfig::default()
            });
            ScanPlan::new(&detector, &integral, size).rects()
        };
        assert_eq!(rects(160, 4), 93_672);
        assert_eq!(rects(640, 8), 305_199);
    }

    #[test]
    fn snap_improves_iou_for_typical_boxes() {
        let a = AnchorSet::for_class(Indicator::Streetlight);
        // a typical streetlight box
        let gt = BBox::new(100.0, 120.0, 40.0, 180.0);
        let (_, snapped, iou) = a.snap(gt, 640);
        assert!(iou > 0.5, "snap IoU {iou}");
        assert!((snapped.center().x - gt.center().x).abs() < 2.0);
    }

    #[test]
    fn snap_handles_degenerate_targets() {
        let a = AnchorSet::for_class(Indicator::Apartment);
        let (tmpl, snapped, iou) = a.snap(BBox::new(0.0, 0.0, 1.0, 1.0), 640);
        assert!(iou >= 0.0);
        assert!(tmpl < a.templates.len());
        assert!(snapped.is_valid());
    }
}
