//! Gradient-orientation channel features over integral images.
//!
//! The detector's feature representation follows the aggregated-channel-
//! features family: a grayscale channel, gradient magnitude, and four
//! orientation-binned gradient channels, mean-pooled into square cells.
//! Integral images over the cell grid make arbitrary-window pooling O(1),
//! which is what lets a sliding-window scan over thousands of anchors per
//! image stay fast without a GPU.
//!
//! [`IntegralChannels::window_feature_into`] pools one window. The scan
//! pools a whole [`AnchorRun`] at once instead (`RunPool`): the windows of
//! a run share their x-spans column by column and their y-spans row by row,
//! so each distinct clamped rectangle is pooled once into a table, and
//! each window's features are read back from it. Both paths take their
//! spans from one helper and do the same arithmetic, so their features are
//! bit-identical.

use nbhd_raster::RasterImage;

use crate::AnchorRun;

/// Number of feature channels (gray, |grad|, 4 orientation bins, R, G, B).
pub const NUM_CHANNELS: usize = 9;

/// Pooling grid per window side: each window is divided into a
/// `GRID x GRID` array of pooled subcells.
pub const GRID: usize = 6;

/// Dimensionality of one window's feature vector.
pub const FEATURE_DIM: usize = NUM_CHANNELS * GRID * GRID;

/// Cell-aggregated feature channels for one image.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureMap {
    /// Cells per row.
    pub width: usize,
    /// Cells per column.
    pub height: usize,
    /// Pixels per cell side.
    pub shrink: u32,
    /// Channel-major data: `data[c][y * width + x]`.
    channels: Vec<Vec<f32>>,
}

impl FeatureMap {
    /// Computes the channel features of an image with the given cell size.
    ///
    /// Each row is featurized in one pass (gradients, magnitude, gray and
    /// orientation bin per pixel), then added into its cells' sums in
    /// raster order, so every cell sum sees its pixels in the same order
    /// as a per-pixel loop over the image and gets the same bits.
    ///
    /// # Panics
    ///
    /// Panics when `shrink` is zero or larger than the image.
    pub fn compute(img: &RasterImage, shrink: u32) -> FeatureMap {
        assert!(shrink > 0, "shrink must be positive");
        let (w, h) = img.size();
        assert!(shrink <= w && shrink <= h, "shrink larger than image");
        let gray = img.to_gray();
        let (wi, hi, s) = (w as usize, h as usize, shrink as usize);
        let (cw, ch) = (wi / s, hi / s);
        // the last cell of a row or column takes the remainder pixels
        let cell_len = |cell: usize, cells: usize, len: usize| {
            if cell + 1 == cells {
                len - cell * s
            } else {
                s
            }
        };
        let unit: [f32; 256] = std::array::from_fn(|v| v as f32 / 255.0);
        let mut cells = vec![[0f32; NUM_CHANNELS]; cw * ch];
        // one row's gray / 255, |grad| / 255 and orientation channel
        let mut gray_row = vec![0f32; wi];
        let mut mag_row = vec![0f32; wi];
        let mut bin_row = vec![0u8; wi];
        for y in 0..hi {
            // central differences, clamped borders
            let row = &gray[y * wi..][..wi];
            let above = &gray[y.saturating_sub(1) * wi..][..wi];
            let below = &gray[(y + 1).min(hi - 1) * wi..][..wi];
            for x in 0..wi {
                let gx = row[(x + 1).min(wi - 1)] - row[x.saturating_sub(1)];
                let gy = below[x] - above[x];
                mag_row[x] = (gx * gx + gy * gy).sqrt() / 255.0;
                bin_row[x] = 2 + orientation_bin(gx, gy);
                gray_row[x] = row[x] / 255.0;
            }
            let pixels = &img.pixels()[y * wi..][..wi];
            let cy = (y / s).min(ch - 1);
            for (cx, cell) in cells[cy * cw..][..cw].iter_mut().enumerate() {
                let xs = cx * s..cx * s + cell_len(cx, cw, wi);
                for (x, p) in xs.clone().zip(&pixels[xs]) {
                    cell[0] += gray_row[x];
                    cell[1] += mag_row[x];
                    cell[bin_row[x] as usize] += mag_row[x];
                    cell[6] += unit[p.r as usize];
                    cell[7] += unit[p.g as usize];
                    cell[8] += unit[p.b as usize];
                }
            }
        }
        let mut channels = vec![vec![0f32; cw * ch]; NUM_CHANNELS];
        for (i, cell) in cells.iter().enumerate() {
            let pixels = cell_len(i / cw, ch, hi) * cell_len(i % cw, cw, wi);
            // the count a `+= 1.0` per pixel reaches: f32 stops at 2^24
            let n = pixels.min(1 << 24) as f32;
            for (plane, &sum) in channels.iter_mut().zip(cell) {
                plane[i] = sum / n;
            }
        }
        FeatureMap {
            width: cw,
            height: ch,
            shrink,
            channels,
        }
    }

    /// One channel's cell plane.
    pub fn channel(&self, c: usize) -> &[f32] {
        &self.channels[c]
    }
}

/// The orientation bin of a gradient: `atan2(gy, gx)` folded into `[0, pi)`
/// and cut into four equal bins, as `atan2_bin` computes it.
///
/// Away from the bin edges the bin follows from signs and a magnitude
/// comparison: folding makes `gy` positive, so the sign of `gx * gy` picks
/// the quadrant and `|gy| < |gx|` the half of it. Within 1e-3 relative of
/// an edge (`|gx| == |gy|`, `gx == 0` or `gy == 0`) the rounding of `atan2`
/// decides, so that band takes `atan2_bin` itself; its exact zeros are
/// settled first (`gy == 0` is bin 0 and `gx == 0` bin 2 for every signed
/// zero, as `atan2_bin` gives them).
fn orientation_bin(gx: f32, gy: f32) -> u8 {
    if gy == 0.0 {
        return 0;
    }
    if gx == 0.0 {
        return 2;
    }
    let (a, b) = (gx.abs(), gy.abs());
    let margin = 1e-3 * a.max(b);
    if (a - b).abs() <= margin || a.min(b) <= margin {
        return atan2_bin(gx, gy);
    }
    match ((gx > 0.0) == (gy > 0.0), b < a) {
        (true, true) => 0,
        (true, false) => 1,
        (false, false) => 2,
        (false, true) => 3,
    }
}

/// The orientation bin by its definition: the angle folded into `[0, pi)`,
/// scaled to `[0, 4)` and truncated (a fold that rounds up to `pi` lands in
/// bin 3).
fn atan2_bin(gx: f32, gy: f32) -> u8 {
    let theta = gy.atan2(gx).rem_euclid(std::f32::consts::PI);
    ((theta / std::f32::consts::PI * 4.0) as u8).min(3)
}

/// Integral images over a [`FeatureMap`], enabling O(1) box sums.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegralChannels {
    width: usize,
    height: usize,
    shrink: u32,
    /// `(width+1) x (height+1)` summed-area tables, channel-interleaved:
    /// channel `c` at point `(x, y)` is at `(y * (width+1) + x) * NUM_CHANNELS + c`,
    /// so one corner offset serves every channel.
    tables: Vec<f64>,
    /// The largest cell value of any channel. Every channel is a mean of
    /// non-negative values, so no pooled rectangle mean exceeds it.
    cell_max: f32,
}

/// A half-open cell interval `[lo, hi)` along one axis.
type Span = (usize, usize);

/// Clamps a span to an axis of `limit` cells (empty when it starts past
/// the end or is inverted).
fn clamp((lo, hi): Span, limit: usize) -> Span {
    let lo = lo.min(limit);
    (lo, hi.clamp(lo, limit))
}

/// A cell rectangle clamped to the grid: the table offsets of its four
/// corners (in [`IntegralChannels::mean`]'s sum order) and its area in cells.
#[derive(Clone, Copy)]
struct CellRect {
    corners: [usize; 4],
    area: f64,
}

impl IntegralChannels {
    /// Builds summed-area tables from a feature map.
    pub fn new(map: &FeatureMap) -> IntegralChannels {
        let (w, h) = (map.width, map.height);
        let mut tables = vec![0f64; (w + 1) * (h + 1) * NUM_CHANNELS];
        for c in 0..NUM_CHANNELS {
            let plane = map.channel(c);
            for y in 0..h {
                let mut row = 0f64;
                for x in 0..w {
                    row += plane[y * w + x] as f64;
                    tables[((y + 1) * (w + 1) + x + 1) * NUM_CHANNELS + c] =
                        tables[(y * (w + 1) + x + 1) * NUM_CHANNELS + c] + row;
                }
            }
        }
        let cell_max = map.channels.iter().flatten().fold(0f32, |a, &b| a.max(b));
        IntegralChannels {
            width: w,
            height: h,
            shrink: map.shrink,
            tables,
            cell_max,
        }
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Cells per column.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixels per cell side.
    pub fn shrink(&self) -> u32 {
        self.shrink
    }

    /// The largest cell value of any channel: a bound on every pooled mean.
    pub(crate) fn cell_max(&self) -> f32 {
        self.cell_max
    }

    /// Mean of channel `c` over the half-open cell rectangle
    /// `[x0, x1) x [y0, y1)` (cell coordinates, clamped to the grid).
    pub fn mean(&self, c: usize, x0: usize, y0: usize, x1: usize, y1: usize) -> f32 {
        let rect = self.rect(clamp((x0, x1), self.width), clamp((y0, y1), self.height));
        self.rect_mean(rect, c)
    }

    /// The rectangle of two spans already clamped to the grid.
    fn rect(&self, (x0, x1): Span, (y0, y1): Span) -> CellRect {
        let at = |x: usize, y: usize| (y * (self.width + 1) + x) * NUM_CHANNELS;
        CellRect {
            corners: [at(x1, y1), at(x1, y0), at(x0, y1), at(x0, y0)],
            area: ((x1 - x0) * (y1 - y0)) as f64,
        }
    }

    /// Channel `c`'s mean over a clamped rectangle (0 when it is empty).
    fn rect_mean(&self, rect: CellRect, c: usize) -> f32 {
        if rect.area == 0.0 {
            return 0.0;
        }
        let [a, b, d, e] = rect.corners.map(|o| self.tables[o + c]);
        ((a - b - d + e) / rect.area) as f32
    }

    /// Every channel's mean over a clamped rectangle (all 0 when it is
    /// empty), with [`Self::rect_mean`]'s arithmetic.
    fn rect_means(&self, rect: CellRect) -> [f32; NUM_CHANNELS] {
        if rect.area == 0.0 {
            return [0.0; NUM_CHANNELS];
        }
        let corner = |o: usize| -> &[f64; NUM_CHANNELS] {
            self.tables[o..o + NUM_CHANNELS]
                .try_into()
                .expect("a corner holds every channel")
        };
        let [a, b, d, e] = rect.corners.map(corner);
        let mut means = [0f32; NUM_CHANNELS];
        for (c, mean) in means.iter_mut().enumerate() {
            *mean = ((a[c] - b[c] - d[c] + e[c]) / rect.area) as f32;
        }
        means
    }

    /// Lighting normalization: the window's mean luminance (channel 0 over
    /// its whole span) cancels the scene's global brightness factor, so
    /// features describe *pattern*.
    fn norm(&self, xs: Span, ys: Span) -> f32 {
        self.rect_mean(self.rect(xs, ys), 0).max(0.05)
    }

    /// One axis of a pixel-space window starting at `pos` and `len` long:
    /// the whole-window cell span the norm pools, and the `GRID` pooling
    /// spans, all clamped to an axis of `limit` cells.
    fn axis_spans(&self, pos: f32, len: f32, limit: usize) -> (Span, [Span; GRID]) {
        let s = self.shrink as f32;
        let c0 = (pos / s).max(0.0);
        let extent = (len / s).max(1.0);
        // cells [lo, ceil(hi)), at least one cell wide
        let span = |lo: f32, hi: f32| {
            clamp(
                (
                    lo as usize,
                    (hi.ceil() as usize).max((lo as usize).saturating_add(1)),
                ),
                limit,
            )
        };
        let edge = |g: usize| c0 + extent * g as f32 / GRID as f32;
        (
            span(c0, c0 + extent),
            std::array::from_fn(|g| span(edge(g), edge(g + 1))),
        )
    }

    /// Extracts the pooled `GRID x GRID x NUM_CHANNELS` feature vector for a
    /// pixel-space window, writing into `out` (must be `FEATURE_DIM` long).
    ///
    /// Each pooling cell's rectangle is clamped once and read for all
    /// channels at once. The arithmetic is that of a per-channel
    /// [`Self::mean`] loop, so the features are bit-identical to one.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != FEATURE_DIM`.
    pub fn window_feature_into(&self, window: nbhd_types::BBox, out: &mut [f32]) {
        assert_eq!(out.len(), FEATURE_DIM, "output buffer must be FEATURE_DIM");
        let (window_x, xs) = self.axis_spans(window.x, window.w, self.width);
        let (window_y, ys) = self.axis_spans(window.y, window.h, self.height);
        let norm = self.norm(window_x, window_y);
        for (gy, &y_span) in ys.iter().enumerate() {
            for (gx, &x_span) in xs.iter().enumerate() {
                let means = self.rect_means(self.rect(x_span, y_span));
                // channel-major output: feature order is unchanged
                let cell = gy * GRID + gx;
                for (c, mean) in means.into_iter().enumerate() {
                    out[c * GRID * GRID + cell] = mean / norm;
                }
            }
        }
    }

    /// Allocating variant of [`IntegralChannels::window_feature_into`].
    pub fn window_feature(&self, window: nbhd_types::BBox) -> Vec<f32> {
        let mut out = vec![0f32; FEATURE_DIM];
        self.window_feature_into(window, &mut out);
        out
    }
}

/// Windows scored together by the run scan: [`RunPool::gather`] hands out
/// this many windows' features at a time, lane-major.
pub(crate) const LANES: usize = 8;

/// Floats per rectangle in the [`RunPool`] table: the `NUM_CHANNELS` means,
/// padded with zeros so [`RunPool::weighted_sum`]'s dot product vectorizes.
const STRIDE: usize = 12;

/// One padded row of the [`RunPool`] table, or one cell's weights.
type Padded = [f32; STRIDE];

/// A scorer's weights cell-major, for [`RunPool::weighted_sum`]: cell `g`'s
/// channel weights in row `g`, zero padding.
pub(crate) type CellMajor = [Padded; GRID * GRID];

/// A scorer's channel-major `weights` (`FEATURE_DIM` long), cell-major.
pub(crate) fn cell_major(weights: &[f32]) -> CellMajor {
    let mut out = [[0.0; STRIDE]; GRID * GRID];
    for (c, plane) in weights.chunks_exact(GRID * GRID).enumerate() {
        for (row, &w) in out.iter_mut().zip(plane) {
            row[c] = w;
        }
    }
    out
}

/// One axis of an anchor run, pooled once for every origin on it.
#[derive(Debug, Clone)]
struct RunAxis {
    /// The distinct clamped pooling spans, sorted.
    distinct: Vec<Span>,
    /// Each origin's `GRID` pooling spans as indices into `distinct`:
    /// `cells[origin * GRID + g]`.
    cells: Vec<usize>,
    /// Each origin's whole-window span, for the norm.
    windows: Vec<Span>,
}

impl RunAxis {
    /// Computes the spans of every origin and dedups them.
    fn new(integral: &IntegralChannels, origins: &[f32], len: f32, limit: usize) -> RunAxis {
        let mut spans = Vec::with_capacity(origins.len() * GRID);
        let mut windows = Vec::with_capacity(origins.len());
        for &pos in origins {
            let (window, cells) = integral.axis_spans(pos, len, limit);
            windows.push(window);
            spans.extend(cells);
        }
        let mut distinct = spans.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let cells = spans
            .iter()
            .map(|span| {
                distinct
                    .binary_search(span)
                    .expect("every span is among the distinct ones")
            })
            .collect();
        RunAxis {
            distinct,
            cells,
            windows,
        }
    }
}

/// An anchor run with both axes' pooling spans worked out. The spans depend
/// on the run, the cell size and the grid's extent, not on the pixels, so
/// one planned run serves every image with that grid.
#[derive(Debug, Clone)]
pub(crate) struct PlannedRun {
    /// The run's windows.
    pub(crate) run: AnchorRun,
    x: RunAxis,
    y: RunAxis,
}

impl PlannedRun {
    /// Plans `run` over the grid of `integral` (its cell size and extent).
    pub(crate) fn new(run: AnchorRun, integral: &IntegralChannels) -> PlannedRun {
        PlannedRun {
            x: RunAxis::new(integral, &run.xs, run.w, integral.width),
            y: RunAxis::new(integral, &run.ys, run.h, integral.height),
            run,
        }
    }

    /// Distinct rectangles in the run's pooling table.
    pub(crate) fn rects(&self) -> usize {
        self.x.distinct.len() * self.y.distinct.len()
    }
}

/// Scratch for the run scan: one anchor run's pooled rectangle means and
/// window norms. Reused across runs, so a scan allocates only while its
/// largest run grows the buffers.
#[derive(Debug, Default)]
pub(crate) struct RunPool {
    /// Every channel's mean over every distinct (x span, y span) rectangle,
    /// zero-padded: `means[yi * x.distinct.len() + xi][c]`.
    means: Vec<Padded>,
    /// Each window's norm, y-major.
    norms: Vec<f32>,
}

impl RunPool {
    /// Pools `run` over `integral`, whose grid it was planned on: each
    /// distinct rectangle once, each window's norm once.
    pub(crate) fn pool(&mut self, integral: &IntegralChannels, run: &PlannedRun) {
        self.means.clear();
        // exact, so the scratch is the largest run's table and no more
        self.means.reserve_exact(run.rects());
        for &y_span in &run.y.distinct {
            for &x_span in &run.x.distinct {
                let mut row = [0.0; STRIDE];
                row[..NUM_CHANNELS]
                    .copy_from_slice(&integral.rect_means(integral.rect(x_span, y_span)));
                self.means.push(row);
            }
        }
        self.norms.clear();
        for &y_span in &run.y.windows {
            for &x_span in &run.x.windows {
                self.norms.push(integral.norm(x_span, y_span));
            }
        }
    }

    /// The norm of the pooled run's window at y-major index `window`.
    pub(crate) fn norm(&self, window: usize) -> f32 {
        self.norms[window]
    }

    /// The pooling rectangles of the run's window at y-major index
    /// `window`: the table row of each of its `GRID` rows of cells, and the
    /// index in those rows of each of its `GRID` columns.
    fn window_rows<'a>(
        &'a self,
        run: &'a PlannedRun,
        window: usize,
    ) -> ([&'a [Padded]; GRID], &'a [usize; GRID]) {
        let nx = run.x.windows.len();
        let (xo, yo) = (window % nx, window / nx);
        let row_len = run.x.distinct.len();
        let y_cells = &run.y.cells[yo * GRID..(yo + 1) * GRID];
        (
            std::array::from_fn(|gy| &self.means[y_cells[gy] * row_len..][..row_len]),
            run.x.cells[xo * GRID..(xo + 1) * GRID]
                .try_into()
                .expect("GRID spans per origin"),
        )
    }

    /// `sum(w * mean)` over the window at y-major index `window`, with the
    /// cell-major `weights` of [`cell_major`]: the window's margin before
    /// the bias and the division by its norm, in no fixed summation order
    /// (four-wide partial sums, so it vectorizes).
    pub(crate) fn weighted_sum(&self, run: &PlannedRun, window: usize, weights: &CellMajor) -> f32 {
        let (rows, x_cells) = self.window_rows(run, window);
        let mut acc = [[0f32; 4]; STRIDE / 4];
        for (row, w_row) in rows.iter().zip(weights.as_chunks::<GRID>().0) {
            for (&xi, w) in x_cells.iter().zip(w_row) {
                let means = &row[xi];
                for (v, acc) in acc.iter_mut().enumerate() {
                    for (j, a) in acc.iter_mut().enumerate() {
                        *a += w[4 * v + j] * means[4 * v + j];
                    }
                }
            }
        }
        acc.iter().flatten().sum()
    }

    /// Writes the features of up to [`LANES`] windows of the pooled `run`,
    /// given by y-major index, as lane-major undivided means (feature `k`
    /// of lane `l` at `means[k][l]`) with each lane's norm. A window's
    /// feature `k` is `means[k][l] / norms[l]`, the value
    /// [`IntegralChannels::window_feature_into`] writes.
    pub(crate) fn gather(
        &self,
        run: &PlannedRun,
        windows: &[usize],
        means: &mut [[f32; LANES]; FEATURE_DIM],
        norms: &mut [f32; LANES],
    ) {
        for (l, &window) in windows.iter().take(LANES).enumerate() {
            norms[l] = self.norms[window];
            let (rows, x_cells) = self.window_rows(run, window);
            for (gy, row) in rows.iter().enumerate() {
                for (gx, &xi) in x_cells.iter().enumerate() {
                    let cell = gy * GRID + gx;
                    for (c, &mean) in row[xi][..NUM_CHANNELS].iter().enumerate() {
                        means[c * GRID * GRID + cell][l] = mean;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::AnchorSet;
    use nbhd_raster::{draw, Rgb};
    use nbhd_types::{BBox, Indicator};

    fn test_image() -> RasterImage {
        let mut img = RasterImage::filled(64, 64, Rgb::gray(100));
        // a bright vertical bar: strong horizontal gradient (bin for
        // vertical edges), bright gray channel on the left half
        draw::fill_rect(&mut img, 10, 5, 6, 50, Rgb::WHITE);
        img
    }

    #[test]
    fn feature_map_dimensions() {
        let map = FeatureMap::compute(&test_image(), 4);
        assert_eq!(map.width, 16);
        assert_eq!(map.height, 16);
        assert_eq!(map.channel(0).len(), 256);
    }

    #[test]
    fn gray_channel_tracks_luminance() {
        let map = FeatureMap::compute(&test_image(), 4);
        // cell containing the white bar is brighter than a background cell
        let bar_cell = map.channel(0)[4 * 16 + 3]; // around (12, 16)
        let bg_cell = map.channel(0)[4 * 16 + 12];
        assert!(bar_cell > bg_cell, "bar {bar_cell} bg {bg_cell}");
    }

    #[test]
    fn integral_mean_matches_direct_mean() {
        let map = FeatureMap::compute(&test_image(), 4);
        let integral = IntegralChannels::new(&map);
        for c in 0..NUM_CHANNELS {
            let direct: f32 = {
                let plane = map.channel(c);
                let mut sum = 0.0;
                for y in 2..10 {
                    for x in 1..7 {
                        sum += plane[y * 16 + x];
                    }
                }
                sum / (8.0 * 6.0)
            };
            let fast = integral.mean(c, 1, 2, 7, 10);
            assert!(
                (direct - fast).abs() < 1e-4,
                "channel {c}: {direct} vs {fast}"
            );
        }
    }

    #[test]
    fn window_features_distinguish_content() {
        let map = FeatureMap::compute(&test_image(), 4);
        let integral = IntegralChannels::new(&map);
        let on_bar = integral.window_feature(BBox::new(6.0, 4.0, 16.0, 52.0));
        let off_bar = integral.window_feature(BBox::new(40.0, 4.0, 16.0, 52.0));
        let dist: f32 = on_bar
            .iter()
            .zip(&off_bar)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 0.1, "features should differ, distance {dist}");
    }

    #[test]
    fn empty_or_outside_windows_are_zero() {
        let map = FeatureMap::compute(&test_image(), 4);
        let integral = IntegralChannels::new(&map);
        assert_eq!(integral.mean(0, 20, 20, 20, 25), 0.0);
        let f = integral.window_feature(BBox::new(1000.0, 1000.0, 10.0, 10.0));
        assert!(f.iter().all(|&v| v == 0.0));
        // the largest finite box cannot overflow the cell arithmetic
        let f = integral.window_feature(BBox::new(f32::MAX, f32::MAX, f32::MAX, f32::MAX));
        assert!(f.iter().all(|&v| v == 0.0));
    }

    /// The original pooling kernel, kept as the reference the interleaved
    /// one must match bit for bit: one channel-major summed-area table per
    /// channel, and every cell rectangle clamped again for every channel.
    struct Reference {
        width: usize,
        height: usize,
        shrink: u32,
        tables: Vec<Vec<f64>>,
    }

    impl Reference {
        fn new(map: &FeatureMap) -> Reference {
            let (w, h) = (map.width, map.height);
            let tables = (0..NUM_CHANNELS)
                .map(|c| {
                    let plane = map.channel(c);
                    let mut t = vec![0f64; (w + 1) * (h + 1)];
                    for y in 0..h {
                        let mut row = 0f64;
                        for x in 0..w {
                            row += plane[y * w + x] as f64;
                            t[(y + 1) * (w + 1) + (x + 1)] = t[y * (w + 1) + (x + 1)] + row;
                        }
                    }
                    t
                })
                .collect();
            Reference {
                width: w,
                height: h,
                shrink: map.shrink,
                tables,
            }
        }

        fn mean(&self, c: usize, x0: usize, y0: usize, x1: usize, y1: usize) -> f32 {
            let x0 = x0.min(self.width);
            let x1 = x1.clamp(x0, self.width);
            let y0 = y0.min(self.height);
            let y1 = y1.clamp(y0, self.height);
            let area = ((x1 - x0) * (y1 - y0)) as f64;
            if area == 0.0 {
                return 0.0;
            }
            let t = &self.tables[c];
            let w1 = self.width + 1;
            let sum = t[y1 * w1 + x1] - t[y0 * w1 + x1] - t[y1 * w1 + x0] + t[y0 * w1 + x0];
            (sum / area) as f32
        }

        fn window_feature(&self, window: BBox) -> Vec<f32> {
            let mut out = vec![0f32; FEATURE_DIM];
            let s = self.shrink as f32;
            let cx0 = (window.x / s).max(0.0);
            let cy0 = (window.y / s).max(0.0);
            let cw = (window.w / s).max(1.0);
            let chh = (window.h / s).max(1.0);
            let norm = self
                .mean(
                    0,
                    cx0 as usize,
                    cy0 as usize,
                    ((cx0 + cw).ceil() as usize).max(cx0 as usize + 1),
                    ((cy0 + chh).ceil() as usize).max(cy0 as usize + 1),
                )
                .max(0.05);
            let mut k = 0usize;
            for c in 0..NUM_CHANNELS {
                for gy in 0..GRID {
                    for gx in 0..GRID {
                        let x0 = cx0 + cw * gx as f32 / GRID as f32;
                        let x1 = cx0 + cw * (gx + 1) as f32 / GRID as f32;
                        let y0 = cy0 + chh * gy as f32 / GRID as f32;
                        let y1 = cy0 + chh * (gy + 1) as f32 / GRID as f32;
                        out[k] = self.mean(
                            c,
                            x0 as usize,
                            y0 as usize,
                            (x1.ceil() as usize).max(x0 as usize + 1),
                            (y1.ceil() as usize).max(y0 as usize + 1),
                        ) / norm;
                        k += 1;
                    }
                }
            }
            out
        }
    }

    /// A busy image: every channel and orientation bin is non-trivial.
    pub(crate) fn textured_image(size: u32) -> RasterImage {
        let mut img = RasterImage::new(size, size);
        for y in 0..size {
            for x in 0..size {
                let color = Rgb::new(
                    (x * 7 + y * 3) as u8,
                    (x * y % 251) as u8,
                    ((x ^ y) * 5) as u8,
                );
                img.put(x, y, color);
            }
        }
        draw::fill_rect(&mut img, 10, 5, 6, 50, Rgb::WHITE);
        img
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn window_features_are_bit_identical_to_the_per_channel_kernel() {
        for size in [96u32, 160, 640] {
            for shrink in [4u32, 8] {
                let map = FeatureMap::compute(&textured_image(size), shrink);
                let integral = IntegralChannels::new(&map);
                let reference = Reference::new(&map);
                let s = size as f32;
                // off-image, zero-area, sub-cell, negative-origin and
                // right/bottom-clamped windows beside every anchor window
                let mut windows = vec![
                    BBox::new(1000.0, 1000.0, 10.0, 10.0),
                    BBox::new(s, 0.0, 16.0, 16.0),
                    BBox::new(0.0, s, 16.0, 16.0),
                    BBox::new(8.0, 8.0, 0.0, 0.0),
                    BBox::new(3.3, 5.7, 2.0, 1.0),
                    BBox::new(-30.0, -12.5, 20.0, 40.0),
                    BBox::new(13.7, 2.2, 51.3, 77.9),
                    BBox::new(s - 8.0, 4.0, 40.0, 24.0),
                    BBox::new(4.0, s - 8.0, 24.0, 40.0),
                    BBox::new(s - 20.5, s - 30.25, 64.0, 64.0),
                    BBox::new(0.0, 0.0, s, s),
                ];
                for ind in Indicator::ALL {
                    let anchors = AnchorSet::for_class(ind).windows(size, shrink);
                    windows.extend(anchors.into_iter().map(|w| w.bbox));
                }
                let mut buf = vec![0f32; FEATURE_DIM];
                for window in windows {
                    integral.window_feature_into(window, &mut buf);
                    assert_eq!(
                        bits(&buf),
                        bits(&reference.window_feature(window)),
                        "{size} px, shrink {shrink}, {window:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mean_is_bit_identical_to_the_per_channel_kernel() {
        let map = FeatureMap::compute(&textured_image(96), 8);
        let integral = IntegralChannels::new(&map);
        let reference = Reference::new(&map);
        // 12 x 12 cells: rectangles run past the grid, empty and invert
        let spans: Vec<(usize, usize)> =
            (0..15).flat_map(|a| (0..15).map(move |b| (a, b))).collect();
        for c in 0..NUM_CHANNELS {
            for &(x0, x1) in &spans {
                for &(y0, y1) in &spans {
                    assert_eq!(
                        integral.mean(c, x0, y0, x1, y1).to_bits(),
                        reference.mean(c, x0, y0, x1, y1).to_bits(),
                        "channel {c} [{x0}, {x1}) x [{y0}, {y1})"
                    );
                }
            }
        }
    }

    /// The per-pixel feature kernel, kept as the reference the row-pass
    /// one must match bit for bit: `atan2` for every pixel's bin and
    /// `+= 1.0` cell counts.
    fn reference_compute(img: &RasterImage, shrink: u32) -> FeatureMap {
        let (w, h) = img.size();
        let gray = img.to_gray();
        let pixels = img.pixels();
        let wi = w as usize;
        let hi = h as usize;
        let at = |x: usize, y: usize| gray[y * wi + x];
        let cw = (w / shrink) as usize;
        let ch = (h / shrink) as usize;
        let mut channels = vec![vec![0f32; cw * ch]; NUM_CHANNELS];
        let mut counts = vec![0f32; cw * ch];
        for y in 0..hi {
            let cy = (y / shrink as usize).min(ch - 1);
            for x in 0..wi {
                let cx = (x / shrink as usize).min(cw - 1);
                let idx = cy * cw + cx;
                let gx = at((x + 1).min(wi - 1), y) - at(x.saturating_sub(1), y);
                let gy = at(x, (y + 1).min(hi - 1)) - at(x, y.saturating_sub(1));
                let mag = (gx * gx + gy * gy).sqrt();
                let theta = gy.atan2(gx).rem_euclid(std::f32::consts::PI);
                let bin = ((theta / std::f32::consts::PI * 4.0) as usize).min(3);
                channels[0][idx] += at(x, y) / 255.0;
                channels[1][idx] += mag / 255.0;
                channels[2 + bin][idx] += mag / 255.0;
                let p = pixels[y * wi + x];
                channels[6][idx] += p.r as f32 / 255.0;
                channels[7][idx] += p.g as f32 / 255.0;
                channels[8][idx] += p.b as f32 / 255.0;
                counts[idx] += 1.0;
            }
        }
        for c in &mut channels {
            for (v, n) in c.iter_mut().zip(&counts) {
                if *n > 0.0 {
                    *v /= *n;
                }
            }
        }
        FeatureMap {
            width: cw,
            height: ch,
            shrink,
            channels,
        }
    }

    fn assert_same_map(img: &RasterImage, shrink: u32, what: &str) {
        let (fast, slow) = (
            FeatureMap::compute(img, shrink),
            reference_compute(img, shrink),
        );
        assert_eq!(
            (fast.width, fast.height),
            (slow.width, slow.height),
            "{what}"
        );
        for c in 0..NUM_CHANNELS {
            assert_eq!(
                bits(fast.channel(c)),
                bits(slow.channel(c)),
                "{what}, channel {c}"
            );
        }
    }

    /// A rendered street scene: flat regions, hard edges and diagonals.
    fn scene_image(size: u32, view: nbhd_scene::ViewKind) -> RasterImage {
        let id = nbhd_types::ImageId::new(nbhd_types::LocationId(5), nbhd_types::Heading::West);
        let spec = nbhd_scene::SceneGenerator::new(3).compose_raw(
            id,
            nbhd_geo::Zoning::Suburban,
            nbhd_geo::RoadClass::SingleLane,
            view,
        );
        nbhd_scene::render(&spec, size).0
    }

    #[test]
    fn feature_map_is_bit_identical_to_the_per_pixel_kernel() {
        for size in [96u32, 160, 640] {
            for shrink in [4u32, 8] {
                assert_same_map(
                    &textured_image(size),
                    shrink,
                    &format!("textured {size}/{shrink}"),
                );
                for view in [
                    nbhd_scene::ViewKind::AlongRoad,
                    nbhd_scene::ViewKind::AcrossRoad,
                ] {
                    let what = format!("scene {view:?} {size}/{shrink}");
                    assert_same_map(&scene_image(size, view), shrink, &what);
                }
            }
        }
        // remainder cells, a one-cell grid, and a one-pixel-wide image
        assert_same_map(&textured_image(101), 7, "101 px / 7");
        assert_same_map(&textured_image(37), 37, "37 px / 37");
        assert_same_map(&RasterImage::filled(1, 9, Rgb::new(3, 200, 77)), 1, "1 x 9");
    }

    /// The bin the per-pixel kernel gives a gradient.
    fn reference_bin(gx: f32, gy: f32) -> u8 {
        let theta = gy.atan2(gx).rem_euclid(std::f32::consts::PI);
        ((theta / std::f32::consts::PI * 4.0) as usize).min(3) as u8
    }

    #[test]
    fn orientation_bins_match_atan2_around_every_bin_edge() {
        // +-2,000 urad around 0, pi/4, ..., 2 pi in 1 urad steps, at
        // gradient magnitudes from a pixel step to a full swing
        for edge in 0..=8 {
            let center = edge as f64 * std::f64::consts::FRAC_PI_4;
            for step in -2_000i32..=2_000 {
                let angle = center + f64::from(step) * 1e-6;
                for r in [0.299f64, 1.0, 37.5, 255.0] {
                    let (gx, gy) = ((r * angle.cos()) as f32, (r * angle.sin()) as f32);
                    assert_eq!(
                        orientation_bin(gx, gy),
                        reference_bin(gx, gy),
                        "({gx:e}, {gy:e}) at edge {edge}, step {step}"
                    );
                }
            }
        }
        // the exact diagonals, axis-aligned gradients and one-ulp neighbours
        for v in [0.114f32, 0.587, 1.0, 3.0, 254.9] {
            for (gx, gy) in [
                (v, v),
                (v, v.next_up()),
                (v.next_up(), v),
                (v, v.next_down()),
            ] {
                for (sx, sy) in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)] {
                    let (gx, gy) = (gx * sx, gy * sy);
                    assert_eq!(
                        orientation_bin(gx, gy),
                        reference_bin(gx, gy),
                        "({gx}, {gy})"
                    );
                    assert_eq!(
                        orientation_bin(gy, gx),
                        reference_bin(gy, gx),
                        "({gy}, {gx})"
                    );
                }
            }
        }
    }

    #[test]
    fn orientation_bins_of_signed_zero_gradients_match_atan2() {
        let values = [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            1e-30,
            -1e-30,
            f32::MIN_POSITIVE,
            255.0,
        ];
        for gx in values {
            for gy in values {
                assert_eq!(
                    orientation_bin(gx, gy),
                    reference_bin(gx, gy),
                    "({gx:e}, {gy:e}), signs {} {}",
                    gx.is_sign_negative(),
                    gy.is_sign_negative()
                );
            }
        }
    }

    #[test]
    fn vertical_bar_excites_vertical_edge_bin() {
        // vertical edges have horizontal gradients: theta ~ 0 -> bin 0
        let map = FeatureMap::compute(&test_image(), 4);
        let integral = IntegralChannels::new(&map);
        let around_bar = |c: usize| integral.mean(c, 1, 1, 6, 14);
        assert!(
            around_bar(2) > around_bar(4),
            "bin0 {} should beat bin2 {}",
            around_bar(2),
            around_bar(4)
        );
    }

    #[test]
    fn flat_image_has_zero_gradients() {
        let img = RasterImage::filled(32, 32, Rgb::gray(77));
        let map = FeatureMap::compute(&img, 4);
        assert!(map.channel(1).iter().all(|&v| v.abs() < 1e-6));
    }
}
