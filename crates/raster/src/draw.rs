//! Software rasterization primitives used by the scene renderer.
//!
//! Every fill clamps its shape to the image and writes whole row spans
//! through one span fill, never pixel by pixel: a rectangle fills its first
//! row and copies it into the rows below, a disc or polygon fills one span
//! per row, and a line stamps a square brush with [`fill_rect`]. The tests
//! pin each primitive's output, pixel for pixel, to the per-pixel loops it
//! replaced.

use std::ops::Range;

use nbhd_types::Point;

use crate::image::fill_span;
use crate::{RasterImage, Rgb};

/// The part of `start..start + len` that lies inside `0..limit`, if any.
fn clamp_span(start: i64, len: i64, limit: u32) -> Option<Range<usize>> {
    let lo = start.max(0);
    let hi = start.saturating_add(len).min(i64::from(limit));
    (lo < hi).then_some(lo as usize..hi as usize)
}

/// Fills an axis-aligned rectangle given by corner `(x, y)` and size.
///
/// The rectangle is clamped to the image once, so any corner and size are
/// safe; the first row's span is filled and then copied into each later row.
pub fn fill_rect(img: &mut RasterImage, x: i64, y: i64, w: i64, h: i64, color: Rgb) {
    let (Some(cols), Some(rows)) = (
        clamp_span(x, w, img.width()),
        clamp_span(y, h, img.height()),
    ) else {
        return;
    };
    let width = img.width() as usize;
    let pixels = img.pixels_mut();
    let first = rows.start * width + cols.start..rows.start * width + cols.end;
    fill_span(&mut pixels[first.clone()], color);
    for row in rows.start + 1..rows.end {
        pixels.copy_within(first.clone(), row * width + cols.start);
    }
}

/// Draws a line of the given thickness between two points (Bresenham with a
/// square brush).
///
/// The endpoints round to integers as they always have (an `f32` past the
/// `i64` range saturates), and the pixels are those of stepping the whole
/// path, but only the steps whose brush can reach the image are taken: the
/// first of them is found in closed form. So any endpoints, however far off,
/// cost at most the image's width or height plus the brush in steps. A
/// rounded endpoint more than 2^40 pixels out is first clipped to that
/// bound along the segment, in `f64`, so no step overflows.
pub fn line(img: &mut RasterImage, a: Point, b: Point, thickness: u32, color: Rgb) {
    let mut ends = [a.x, a.y, b.x, b.y].map(|v| v.round() as i64);
    if ends.iter().any(|v| v.unsigned_abs() > FAR as u64) {
        let [x0, y0, x1, y1] = ends.map(|v| v as f64);
        let far = FAR as f64;
        match clip_segment([x0, y0], [x1 - x0, y1 - y0], [(-far, far); 2]) {
            Some((enter, exit)) => {
                ends = [enter.1[0], enter.1[1], exit.1[0], exit.1[1]].map(|v| v.round() as i64);
            }
            None => return,
        }
    }
    let [x0, y0, x1, y1] = ends;
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let t = i64::from(thickness.max(1));
    let half = t / 2;
    // The path takes one step along its major axis per pixel. The brush at
    // coordinate c of that axis touches the image when c lies in
    // `half + 1 - t ..= limit - 1 + half`.
    let x_major = dx >= -dy;
    let (start, step, len, minor_len, limit) = if x_major {
        (x0, sx, dx, -dy, img.width())
    } else {
        (y0, sy, -dy, dx, img.height())
    };
    let (lo, hi) = (half + 1 - t, i64::from(limit) - 1 + half);
    let (first, last) = if step > 0 {
        (lo - start, hi - start)
    } else {
        (start - hi, start - lo)
    };
    let (first, last) = (first.max(0), last.min(len));
    if first > last {
        return;
    }
    // The state after `first` steps: the minor-axis offset and the error
    // term `dx * (minor + 1) + dy * (major + 1)` of Bresenham's loop.
    let (minor, slack) = minor_at(len, minor_len, first);
    let (mut x, mut y, mut err) = if x_major {
        (x0 + sx * first, y0 + sy * minor, dx + dy + slack)
    } else {
        (x0 + sx * minor, y0 + sy * first, dx + dy - slack)
    };
    for _ in first..last + 1 {
        fill_rect(img, x - half, y - half, t, t, color);
        let e2 = 2 * err;
        if e2 >= dy {
            err += dy;
            x += sx;
        }
        if e2 <= dx {
            err += dx;
            y += sy;
        }
    }
}

/// Rounded line endpoints farther out than this many pixels are clipped to
/// it first: far beyond any image, and near enough that no difference or
/// error term of the path overflows `i64`.
const FAR: i64 = 1 << 40;

/// Where Bresenham's path stands after `k` steps along a major axis of
/// length `major`, when the minor axis has length `minor_len`: the minor
/// offset `round_half_up(k * minor_len / major)`, and `major * offset - k *
/// minor_len`, the part of the error term that is not constant.
fn minor_at(major: i64, minor_len: i64, k: i64) -> (i64, i64) {
    if k == 0 {
        return (0, 0);
    }
    let product = i128::from(k) * i128::from(minor_len);
    let (q, r) = (product / i128::from(major), product % i128::from(major));
    let up = i128::from(2 * r >= i128::from(major));
    ((q + up) as i64, (i128::from(major) * up - r) as i64)
}

/// One end of a clipped segment: its fraction of the whole segment, and
/// its point.
type ClipEnd = (f64, [f64; 2]);

/// Clips the segment `start .. start + delta` to the box `bounds` (one
/// `(lo, hi)` per axis) by Liang–Barsky, or `None` when it misses the box.
/// Each clipped end is the point where the segment crosses a side of the
/// box: for a far-off segment, its fraction has lost the pixels that the
/// crossing point keeps.
fn clip_segment(
    start: [f64; 2],
    delta: [f64; 2],
    bounds: [(f64, f64); 2],
) -> Option<(ClipEnd, ClipEnd)> {
    let (mut enter, mut exit) = (
        (0.0, start),
        (1.0, [start[0] + delta[0], start[1] + delta[1]]),
    );
    for (axis, (lo, hi)) in bounds.into_iter().enumerate() {
        if delta[axis] == 0.0 {
            if !(lo..=hi).contains(&start[axis]) {
                return None;
            }
            continue;
        }
        let cross = |side: f64| {
            let mut point = [side; 2];
            let other = 1 - axis;
            point[other] = start[other] + (side - start[axis]) * (delta[other] / delta[axis]);
            ((side - start[axis]) / delta[axis], point)
        };
        let (first, last) = if delta[axis] > 0.0 {
            (cross(lo), cross(hi))
        } else {
            (cross(hi), cross(lo))
        };
        if first.0 > enter.0 {
            enter = first;
        }
        if last.0 < exit.0 {
            exit = last;
        }
    }
    // rounding at a far-off start can push a crossing just off the box
    let clamp = |(t, p): ClipEnd| {
        (
            t,
            [0, 1].map(|axis| p[axis].clamp(bounds[axis].0, bounds[axis].1)),
        )
    };
    (enter.0 <= exit.0).then(|| (clamp(enter), clamp(exit)))
}

/// Segments whose endpoints both lie within this many image sides of the
/// image dash exactly as they always have; one reaching farther is clipped
/// to that margin in `f64` first.
const NEAR_SIDES: f32 = 4.0;

/// Draws a dashed line: `dash_len` pixels on, `gap_len` pixels off.
///
/// Used for lane markings, which are the detector's main cue for telling
/// single-lane from multilane roads. A segment reaching more than four image
/// sides out only dashes the part near the image, so a far-off or huge
/// one costs what a near one does; one with a non-finite endpoint draws
/// nothing.
pub fn dashed_line(
    img: &mut RasterImage,
    a: Point,
    b: Point,
    thickness: u32,
    dash_len: f32,
    gap_len: f32,
    color: Rgb,
) {
    let total = a.distance(b);
    if total < 1.0 {
        return;
    }
    let period = (dash_len + gap_len).max(1.0);
    let (w, h) = (img.width() as f32, img.height() as f32);
    let near = |p: Point| {
        (-NEAR_SIDES * w..=(NEAR_SIDES + 1.0) * w).contains(&p.x)
            && (-NEAR_SIDES * h..=(NEAR_SIDES + 1.0) * h).contains(&p.y)
    };
    if !(near(a) && near(b)) {
        far_dashed_line(img, a, b, thickness, dash_len, period, color);
        return;
    }
    let dir = Point::new((b.x - a.x) / total, (b.y - a.y) / total);
    let mut s = 0.0f32;
    while s < total {
        let e = (s + dash_len).min(total);
        let p0 = Point::new(a.x + dir.x * s, a.y + dir.y * s);
        let p1 = Point::new(a.x + dir.x * e, a.y + dir.y * e);
        line(img, p0, p1, thickness, color);
        s += period;
    }
}

/// [`dashed_line`] for a segment that reaches past the near margin: in
/// `f64`, the segment is clipped to the margin (widened by the brush), and
/// the dashes are laid along the clipped part with the phase they have
/// there. A dash longer than its period overlaps the next, so at most one
/// period of it is drawn.
fn far_dashed_line(
    img: &mut RasterImage,
    a: Point,
    b: Point,
    thickness: u32,
    dash_len: f32,
    period: f32,
    color: Rgb,
) {
    let start = [f64::from(a.x), f64::from(a.y)];
    let delta = [f64::from(b.x) - start[0], f64::from(b.y) - start[1]];
    let total = delta[0].hypot(delta[1]);
    if !total.is_finite() {
        return;
    }
    let (pad, sides) = (f64::from(thickness), f64::from(NEAR_SIDES));
    let bounds = [img.width(), img.height()].map(|side| {
        let side = f64::from(side);
        (-sides * side - pad, (sides + 1.0) * side + pad)
    });
    let Some(((t0, c0), (_, c1))) = clip_segment(start, delta, bounds) else {
        return;
    };
    let len = (c1[0] - c0[0]).hypot(c1[1] - c0[1]);
    let dir = delta.map(|d| d / total);
    let at = |s: f64| Point::new((c0[0] + dir[0] * s) as f32, (c0[1] + dir[1] * s) as f32);
    let period = f64::from(period);
    let dash = f64::from(dash_len).clamp(-period, period);
    // the last dash to start at or before the clipped start
    let mut s = -(t0 * total).rem_euclid(period);
    while s < len {
        line(img, at(s), at((s + dash).min(len)), thickness, color);
        s += period;
    }
}

/// Fills a disc centered at `c` with the given radius.
///
/// A pixel is painted when its center lies within the radius. Only the rows
/// and columns inside the image are visited and each row is filled as one
/// span, so a huge or infinite radius costs no more than the image does.
pub fn fill_disc(img: &mut RasterImage, c: Point, radius: f32, color: Rgb) {
    let r = radius.max(0.5);
    let r2 = r * r;
    let x0 = ((c.x - r).floor() as i64).max(0);
    let x1 = ((c.x + r).ceil() as i64).min(i64::from(img.width()) - 1);
    let y0 = ((c.y - r).floor() as i64).max(0);
    let y1 = ((c.y + r).ceil() as i64).min(i64::from(img.height()) - 1);
    if x0 > x1 {
        return;
    }
    let dx = |x: i64| x as f32 + 0.5 - c.x;
    // f32 rounding is monotone, so `dx` never falls as x grows: `dx * dx`
    // is least at `mid`, the first column with `dx >= 0` or the one before
    // it, and never grows toward it from either side. A row's painted
    // columns are therefore one span around `mid`, or none when `mid` is
    // unpainted.
    let mid = {
        let (mut lo, mut hi) = (x0, x1 + 1);
        while lo < hi {
            let m = lo + (hi - lo) / 2;
            if dx(m) >= 0.0 {
                hi = m;
            } else {
                lo = m + 1;
            }
        }
        if lo > x0 && (lo > x1 || dx(lo - 1).abs() < dx(lo).abs()) {
            lo - 1
        } else {
            lo
        }
    };
    for y in y0..=y1 {
        let dy = y as f32 + 0.5 - c.y;
        let dy2 = dy * dy;
        let inside = |x: i64| {
            let d = dx(x);
            d * d + dy2 <= r2
        };
        if !inside(mid) {
            continue;
        }
        // Start each end at the analytic edge and step to the exact one.
        let half = (r2 - dy2).max(0.0).sqrt();
        let mut lo = ((c.x - 0.5 - half).ceil() as i64).clamp(x0, mid);
        if inside(lo) {
            while lo > x0 && inside(lo - 1) {
                lo -= 1;
            }
        } else {
            while !inside(lo) {
                lo += 1;
            }
        }
        let mut hi = ((c.x - 0.5 + half).floor() as i64).clamp(mid, x1);
        if inside(hi) {
            while hi < x1 && inside(hi + 1) {
                hi += 1;
            }
        } else {
            while !inside(hi) {
                hi -= 1;
            }
        }
        fill_rect(img, lo, y, hi - lo + 1, 1, color);
    }
}

/// Fills a convex polygon via scanline (vertices in any winding order).
///
/// Non-convex inputs produce the scanline between the leftmost and rightmost
/// crossing per row, which is adequate for the renderer's road trapezoids.
pub fn fill_convex_polygon(img: &mut RasterImage, vertices: &[Point], color: Rgb) {
    if vertices.len() < 3 {
        return;
    }
    let y_min = vertices
        .iter()
        .map(|p| p.y)
        .fold(f32::INFINITY, f32::min)
        .floor() as i64;
    let y_max = vertices
        .iter()
        .map(|p| p.y)
        .fold(f32::NEG_INFINITY, f32::max)
        .ceil() as i64;
    for y in y_min.max(0)..=y_max.min(img.height() as i64 - 1) {
        let yc = y as f32 + 0.5;
        let (mut crossings, mut lo, mut hi) = (0, f32::INFINITY, f32::NEG_INFINITY);
        let n = vertices.len();
        for i in 0..n {
            let p = vertices[i];
            let q = vertices[(i + 1) % n];
            let (a, b) = if p.y <= q.y { (p, q) } else { (q, p) };
            if yc >= a.y && yc < b.y && (b.y - a.y).abs() > 1e-6 {
                let t = (yc - a.y) / (b.y - a.y);
                let x = a.x + t * (b.x - a.x);
                crossings += 1;
                lo = lo.min(x);
                hi = hi.max(x);
            }
        }
        if crossings >= 2 {
            fill_rect(
                img,
                lo.round() as i64,
                y,
                (hi - lo).round() as i64 + 1,
                1,
                color,
            );
        }
    }
}

/// Fills the whole image with a vertical gradient from `top` to `bottom`.
pub fn vertical_gradient(img: &mut RasterImage, top: Rgb, bottom: Rgb) {
    let h = img.height();
    for y in 0..h {
        let t = y as f32 / (h.saturating_sub(1)).max(1) as f32;
        let c = top.lerp(bottom, t);
        fill_rect(img, 0, i64::from(y), i64::from(img.width()), 1, c);
    }
}

/// Draws a regular grid of small rectangles inside a bounding region —
/// the window pattern of apartment facades.
#[allow(clippy::too_many_arguments)]
pub fn window_grid(
    img: &mut RasterImage,
    x: i64,
    y: i64,
    w: i64,
    h: i64,
    cols: u32,
    rows: u32,
    window: Rgb,
) {
    if cols == 0 || rows == 0 || w < 4 || h < 4 {
        return;
    }
    let cell_w = w as f32 / cols as f32;
    let cell_h = h as f32 / rows as f32;
    let win_w = (cell_w * 0.5).max(1.0) as i64;
    let win_h = (cell_h * 0.55).max(1.0) as i64;
    for r in 0..rows {
        for c in 0..cols {
            let wx = x + (c as f32 * cell_w + cell_w * 0.25) as i64;
            let wy = y + (r as f32 * cell_h + cell_h * 0.2) as i64;
            fill_rect(img, wx, wy, win_w, win_h, window);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::time::Duration;

    /// The per-pixel loops the span fills replaced, kept to pin their output.
    ///
    /// They are today's code except that the rectangle and disc loops stop
    /// at the image edge, where `put_i` dropped every write anyway, and the
    /// rectangle's far edge is summed in `i128`: so they finish, and cannot
    /// overflow, on hostile geometry too.
    mod per_pixel {
        use super::*;

        pub fn fill_rect(img: &mut RasterImage, x: i64, y: i64, w: i64, h: i64, color: Rgb) {
            let end = |start: i64, len: i64, limit: u32| {
                (i128::from(start) + i128::from(len)).clamp(0, i128::from(limit)) as i64
            };
            for yy in y.max(0)..end(y, h, img.height()) {
                for xx in x.max(0)..end(x, w, img.width()) {
                    img.put_i(xx, yy, color);
                }
            }
        }

        pub fn line(img: &mut RasterImage, a: Point, b: Point, thickness: u32, color: Rgb) {
            let (mut x0, mut y0) = (a.x.round() as i64, a.y.round() as i64);
            let (x1, y1) = (b.x.round() as i64, b.y.round() as i64);
            let dx = (x1 - x0).abs();
            let dy = -(y1 - y0).abs();
            let sx = if x0 < x1 { 1 } else { -1 };
            let sy = if y0 < y1 { 1 } else { -1 };
            let mut err = dx + dy;
            let t = thickness.max(1) as i64;
            let half = t / 2;
            loop {
                fill_rect(img, x0 - half, y0 - half, t, t, color);
                if x0 == x1 && y0 == y1 {
                    break;
                }
                let e2 = 2 * err;
                if e2 >= dy {
                    err += dy;
                    x0 += sx;
                }
                if e2 <= dx {
                    err += dx;
                    y0 += sy;
                }
            }
        }

        pub fn dashed_line(
            img: &mut RasterImage,
            a: Point,
            b: Point,
            thickness: u32,
            dash_len: f32,
            gap_len: f32,
            color: Rgb,
        ) {
            let total = a.distance(b);
            if total < 1.0 {
                return;
            }
            let period = (dash_len + gap_len).max(1.0);
            let dir = Point::new((b.x - a.x) / total, (b.y - a.y) / total);
            let mut s = 0.0f32;
            while s < total {
                let e = (s + dash_len).min(total);
                let p0 = Point::new(a.x + dir.x * s, a.y + dir.y * s);
                let p1 = Point::new(a.x + dir.x * e, a.y + dir.y * e);
                line(img, p0, p1, thickness, color);
                s += period;
            }
        }

        pub fn fill_disc(img: &mut RasterImage, c: Point, radius: f32, color: Rgb) {
            let r = radius.max(0.5);
            let x0 = (c.x - r).floor() as i64;
            let x1 = (c.x + r).ceil() as i64;
            let y0 = (c.y - r).floor() as i64;
            let y1 = (c.y + r).ceil() as i64;
            for y in y0.max(0)..=y1.min(img.height() as i64 - 1) {
                for x in x0.max(0)..=x1.min(img.width() as i64 - 1) {
                    let dx = x as f32 + 0.5 - c.x;
                    let dy = y as f32 + 0.5 - c.y;
                    if dx * dx + dy * dy <= r * r {
                        img.put_i(x, y, color);
                    }
                }
            }
        }

        pub fn fill_convex_polygon(img: &mut RasterImage, vertices: &[Point], color: Rgb) {
            if vertices.len() < 3 {
                return;
            }
            let y_min = vertices
                .iter()
                .map(|p| p.y)
                .fold(f32::INFINITY, f32::min)
                .floor() as i64;
            let y_max = vertices
                .iter()
                .map(|p| p.y)
                .fold(f32::NEG_INFINITY, f32::max)
                .ceil() as i64;
            for y in y_min.max(0)..=y_max.min(img.height() as i64 - 1) {
                let yc = y as f32 + 0.5;
                let mut xs: Vec<f32> = Vec::with_capacity(4);
                let n = vertices.len();
                for i in 0..n {
                    let p = vertices[i];
                    let q = vertices[(i + 1) % n];
                    let (lo, hi) = if p.y <= q.y { (p, q) } else { (q, p) };
                    if yc >= lo.y && yc < hi.y && (hi.y - lo.y).abs() > 1e-6 {
                        let t = (yc - lo.y) / (hi.y - lo.y);
                        xs.push(lo.x + t * (hi.x - lo.x));
                    }
                }
                if xs.len() >= 2 {
                    let lo = xs.iter().copied().fold(f32::INFINITY, f32::min);
                    let hi = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    fill_rect(
                        img,
                        lo.round() as i64,
                        y,
                        (hi - lo).round() as i64 + 1,
                        1,
                        color,
                    );
                }
            }
        }

        pub fn vertical_gradient(img: &mut RasterImage, top: Rgb, bottom: Rgb) {
            let h = img.height();
            for y in 0..h {
                let t = y as f32 / (h.saturating_sub(1)).max(1) as f32;
                let c = top.lerp(bottom, t);
                for x in 0..img.width() {
                    img.put(x, y, c);
                }
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub fn window_grid(
            img: &mut RasterImage,
            x: i64,
            y: i64,
            w: i64,
            h: i64,
            cols: u32,
            rows: u32,
            window: Rgb,
        ) {
            if cols == 0 || rows == 0 || w < 4 || h < 4 {
                return;
            }
            let cell_w = w as f32 / cols as f32;
            let cell_h = h as f32 / rows as f32;
            let win_w = (cell_w * 0.5).max(1.0) as i64;
            let win_h = (cell_h * 0.55).max(1.0) as i64;
            for r in 0..rows {
                for c in 0..cols {
                    let wx = x + (c as f32 * cell_w + cell_w * 0.25) as i64;
                    let wy = y + (r as f32 * cell_h + cell_h * 0.2) as i64;
                    fill_rect(img, wx, wy, win_w, win_h, window);
                }
            }
        }
    }

    /// One shape, drawn by a span primitive and by its per-pixel reference.
    #[derive(Debug, Clone)]
    enum Shape {
        Rect(i64, i64, i64, i64),
        Disc(Point, f32),
        Polygon(Vec<Point>),
        Line(Point, Point, u32),
        Dashed(Point, Point, u32, f32, f32),
        Gradient(Rgb),
        Windows(i64, i64, i64, i64, u32, u32),
    }

    impl Shape {
        fn draw(&self, img: &mut RasterImage, color: Rgb) {
            match *self {
                Shape::Rect(x, y, w, h) => fill_rect(img, x, y, w, h, color),
                Shape::Disc(c, r) => fill_disc(img, c, r, color),
                Shape::Polygon(ref v) => fill_convex_polygon(img, v, color),
                Shape::Line(a, b, t) => line(img, a, b, t, color),
                Shape::Dashed(a, b, t, on, off) => dashed_line(img, a, b, t, on, off, color),
                Shape::Gradient(bottom) => vertical_gradient(img, color, bottom),
                Shape::Windows(x, y, w, h, c, r) => window_grid(img, x, y, w, h, c, r, color),
            }
        }

        fn draw_per_pixel(&self, img: &mut RasterImage, color: Rgb) {
            match *self {
                Shape::Rect(x, y, w, h) => per_pixel::fill_rect(img, x, y, w, h, color),
                Shape::Disc(c, r) => per_pixel::fill_disc(img, c, r, color),
                Shape::Polygon(ref v) => per_pixel::fill_convex_polygon(img, v, color),
                Shape::Line(a, b, t) => per_pixel::line(img, a, b, t, color),
                Shape::Dashed(a, b, t, on, off) => {
                    per_pixel::dashed_line(img, a, b, t, on, off, color)
                }
                Shape::Gradient(bottom) => per_pixel::vertical_gradient(img, color, bottom),
                Shape::Windows(x, y, w, h, c, r) => {
                    per_pixel::window_grid(img, x, y, w, h, c, r, color)
                }
            }
        }
    }

    /// Draws `shape` both ways on a `w x h` image and compares whole images.
    fn assert_pixel_identical(w: u32, h: u32, shape: &Shape) {
        let color = Rgb::new(200, 40, 90);
        let mut spans = RasterImage::filled(w, h, Rgb::gray(17));
        let mut pixels = spans.clone();
        shape.draw(&mut spans, color);
        shape.draw_per_pixel(&mut pixels, color);
        assert_eq!(spans, pixels, "{w}x{h} {shape:?}");
    }

    fn random_color(rng: &mut StdRng) -> Rgb {
        Rgb::new(
            rng.random_range(0..=255u8),
            rng.random_range(0..=255u8),
            rng.random_range(0..=255u8),
        )
    }

    fn random_point(rng: &mut StdRng) -> Point {
        Point::new(
            rng.random_range(-20.0..60.0f32),
            rng.random_range(-20.0..60.0f32),
        )
    }

    #[test]
    fn span_fills_match_the_per_pixel_loops_on_random_shapes() {
        let mut rng = StdRng::seed_from_u64(20);
        for case in 0..3000 {
            let (w, h) = (rng.random_range(1..=40u32), rng.random_range(1..=40u32));
            let shape = match case % 7 {
                0 => Shape::Rect(
                    rng.random_range(-20..60),
                    rng.random_range(-20..60),
                    rng.random_range(-5..50),
                    rng.random_range(-5..50),
                ),
                1 => Shape::Disc(random_point(&mut rng), rng.random_range(-2.0..30.0f32)),
                2 => {
                    let n = rng.random_range(3..=6usize);
                    Shape::Polygon((0..n).map(|_| random_point(&mut rng)).collect())
                }
                3 => Shape::Line(
                    random_point(&mut rng),
                    random_point(&mut rng),
                    rng.random_range(1..=5),
                ),
                4 => Shape::Gradient(random_color(&mut rng)),
                5 => {
                    // a far-off center whose rim crosses the image, where
                    // f32 rounding makes several columns share one `dx`
                    let c = Point::new(
                        rng.random_range(-1e7..1e7f32),
                        rng.random_range(-1e7..1e7f32),
                    );
                    let rim = c.distance(Point::new(w as f32 / 2.0, h as f32 / 2.0));
                    Shape::Disc(c, rim + rng.random_range(-30.0..30.0f32))
                }
                _ => Shape::Windows(
                    rng.random_range(-20..40),
                    rng.random_range(-20..40),
                    rng.random_range(0..60),
                    rng.random_range(0..60),
                    rng.random_range(0..6),
                    rng.random_range(0..6),
                ),
            };
            assert_pixel_identical(w, h, &shape);
        }
    }

    #[test]
    fn span_fills_match_the_per_pixel_loops_on_edge_cases() {
        let p = Point::new;
        let shapes = [
            // off-image, negative, empty and one-pixel rectangles
            Shape::Rect(-5, -5, 8, 8),
            Shape::Rect(30, 2, 5, 5),
            Shape::Rect(2, -9, 5, 5),
            Shape::Rect(4, 4, -3, 6),
            Shape::Rect(4, 4, 0, 6),
            Shape::Rect(4, 4, 6, 0),
            Shape::Rect(5, 5, 1, 1),
            Shape::Rect(0, 0, 20, 12),
            Shape::Rect(19, 11, 1, 1),
            // discs: below the minimum radius, negative, off-image, clipped
            Shape::Disc(p(5.0, 5.0), 0.0),
            Shape::Disc(p(5.5, 5.5), -3.0),
            Shape::Disc(p(-4.0, 6.0), 4.5),
            Shape::Disc(p(25.0, 6.0), 6.0),
            Shape::Disc(p(10.0, -6.0), 5.0),
            Shape::Disc(p(100.0, 100.0), 5.0),
            Shape::Disc(p(10.0, 6.0), 40.0),
            Shape::Disc(p(0.0, 0.0), 0.5),
            // polygons: degenerate, off-image, sub-pixel, clipped
            Shape::Polygon(vec![p(1.0, 1.0), p(5.0, 1.0)]),
            Shape::Polygon(vec![p(1.0, 1.0), p(5.0, 5.0), p(9.0, 9.0)]),
            Shape::Polygon(vec![p(30.0, 1.0), p(40.0, 1.0), p(35.0, 9.0)]),
            Shape::Polygon(vec![p(3.2, 3.2), p(3.6, 3.4), p(3.3, 3.8)]),
            Shape::Polygon(vec![
                p(-5.0, -5.0),
                p(30.0, -2.0),
                p(25.0, 20.0),
                p(-3.0, 15.0),
            ]),
            // lines: a point, off-image, steep, thickness 0 and 5
            Shape::Line(p(3.0, 3.0), p(3.0, 3.0), 1),
            Shape::Line(p(-10.0, -10.0), p(-2.0, 30.0), 3),
            Shape::Line(p(-10.0, 5.0), p(40.0, 6.0), 0),
            Shape::Line(p(2.0, 0.0), p(3.0, 11.0), 5),
            Shape::Line(p(19.0, 11.0), p(19.0, 11.0), 4),
            // dashes: shorter than a pixel, a gap-free period, a negative
            // gap, one dash past the end, reversed, off-image
            Shape::Dashed(p(3.0, 3.0), p(3.5, 3.2), 1, 2.0, 2.0),
            Shape::Dashed(p(0.0, 5.0), p(19.0, 5.0), 1, 3.0, 0.0),
            Shape::Dashed(p(0.0, 5.0), p(19.0, 9.0), 2, 4.0, -2.0),
            Shape::Dashed(p(-8.0, -3.0), p(25.0, 14.0), 3, 40.0, 5.0),
            Shape::Dashed(p(19.0, 11.0), p(0.0, 0.0), 1, 2.5, 1.5),
            Shape::Dashed(p(-30.0, 40.0), p(60.0, 30.0), 2, 4.0, 4.0),
            // window grids: no columns, too small, clipped
            Shape::Windows(0, 0, 20, 12, 0, 3),
            Shape::Windows(0, 0, 3, 12, 2, 2),
            Shape::Windows(-6, -4, 30, 20, 4, 3),
            Shape::Gradient(Rgb::WHITE),
        ];
        for shape in &shapes {
            for (w, h) in [(20, 12), (1, 1), (1, 12), (20, 1)] {
                assert_pixel_identical(w, h, shape);
            }
        }
    }

    /// Lines and dashes that reach far past the image keep every pixel of
    /// the loops that step the whole path, whose cost here is still modest.
    #[test]
    fn lines_and_dashes_with_far_endpoints_match_the_per_pixel_loops() {
        let mut rng = StdRng::seed_from_u64(22);
        for case in 0..1500 {
            let (w, h) = (rng.random_range(1..=40u32), rng.random_range(1..=40u32));
            let reach = [60.0, 2e3, 3e4][case % 3];
            let mut far = || {
                Point::new(
                    rng.random_range(-reach..reach + 40.0f32),
                    rng.random_range(-reach..reach + 40.0f32),
                )
            };
            let (a, b) = (far(), far());
            let t = rng.random_range(1..=6);
            assert_pixel_identical(w, h, &Shape::Line(a, b, t));
            // dashes keep their pixels while both ends are near the image
            let near = |p: Point| {
                let (w, h) = (w as f32, h as f32);
                p.x >= -4.0 * w && p.x <= 5.0 * w && p.y >= -4.0 * h && p.y <= 5.0 * h
            };
            if near(a) && near(b) {
                let on = rng.random_range(0.5..12.0f32);
                let off = rng.random_range(-2.0..12.0f32);
                assert_pixel_identical(w, h, &Shape::Dashed(a, b, t, on, off));
            }
        }
        // a million pixels out, on each side and through the image
        let p = Point::new;
        for (a, b) in [
            (p(-1e6, -1e6 + 3.0), p(1e6, 1e6 - 7.0)),
            (p(12.0, -1e6), p(5.0, 1e6)),
            (p(-1e6, 4.0), p(3e5, 9.0)),
        ] {
            for t in [1, 3] {
                assert_pixel_identical(24, 18, &Shape::Line(a, b, t));
                assert_pixel_identical(24, 18, &Shape::Line(b, a, t));
            }
        }
    }

    #[test]
    fn filled_matches_a_per_pixel_fill() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..200 {
            let (w, h) = (rng.random_range(1..=70u32), rng.random_range(1..=70u32));
            let color = random_color(&mut rng);
            let img = RasterImage::filled(w, h, color);
            assert_eq!(img.pixels(), &vec![color; (w * h) as usize][..], "{w}x{h}");
        }
    }

    /// Runs `f` on its own thread and fails unless it finishes promptly.
    fn finishes_promptly(f: impl FnOnce() + Send + 'static) {
        const LIMIT: Duration = Duration::from_secs(20);
        let (done, finished) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            f();
            let _ = done.send(());
        });
        match finished.recv_timeout(LIMIT) {
            Err(RecvTimeoutError::Timeout) => panic!("still running after {LIMIT:?}"),
            _ => handle.join().expect("the fill panicked"),
        }
    }

    #[test]
    fn hostile_geometry_returns_at_once_and_paints_only_the_image() {
        let p = Point::new;
        let shapes = vec![
            Shape::Disc(p(12.0, 9.0), 1e6),
            Shape::Disc(p(12.0, 9.0), f32::INFINITY),
            Shape::Disc(p(-1e7, 9.0), 1e7 + 3.0),
            Shape::Disc(p(1e30, 1e30), 1e30),
            Shape::Disc(p(f32::INFINITY, 9.0), f32::INFINITY),
            Shape::Disc(p(f32::NAN, 9.0), 5.0),
            Shape::Disc(p(12.0, 9.0), f32::NAN),
            Shape::Rect(i64::MAX - 1, 0, 10, 5),
            Shape::Rect(0, i64::MAX, 5, 10),
            Shape::Rect(-5, -5, i64::MAX, i64::MAX),
            Shape::Rect(i64::MIN, i64::MIN, i64::MAX, i64::MAX),
            Shape::Rect(i64::MAX, i64::MAX, i64::MAX, i64::MAX),
            Shape::Rect(i64::MIN, 0, i64::MIN, 5),
        ];
        finishes_promptly(move || {
            for shape in &shapes {
                assert_pixel_identical(24, 18, shape);
            }
            let row = |y: u32| (0..24).map(|x| (x, y)).collect::<Vec<_>>();
            let column = |x: u32| (0..18).map(|y| (x, y)).collect::<Vec<_>>();
            // endpoints that saturate i64, whose differences overflow it
            assert_eq!(
                painted(&Shape::Line(p(-1e30, 9.0), p(1e30, 9.0), 1)),
                row(9)
            );
            assert_eq!(
                painted(&Shape::Line(p(5.0, 1e30), p(5.0, -1e30), 1)),
                column(5)
            );
            assert_eq!(
                painted(&Shape::Line(p(-f32::MAX, 2.0), p(f32::INFINITY, 2.0), 1)),
                row(2)
            );
            assert!(painted(&Shape::Line(p(-1e30, -1e30), p(1e30, 1e30), 2)).len() > 18);
            assert!(painted(&Shape::Line(p(-1e30, 3.0), p(1e30, 1e20), 1)).len() <= 24);
            let _ = painted(&Shape::Line(
                p(f32::NAN, 3.0),
                p(f32::NEG_INFINITY, f32::NAN),
                3,
            ));
            // a dash period past 2^24 of total length, where `s + period`
            // no longer moves in f32, and one far longer still
            for (a, b) in [
                (p(-2e8, 7.0), p(2e8, 7.0)),
                (p(-1e30, 7.0), p(1e30, 7.0)),
                (p(3e9, 7.0), p(-3e9, 7.0)),
            ] {
                let dashes = painted(&Shape::Dashed(a, b, 1, 4.0, 4.0));
                assert!(dashes.iter().all(|&(_, y)| y == 7), "{dashes:?}");
                assert!((8..24).contains(&dashes.len()), "{a:?} {dashes:?}");
            }
            // huge dashes and periods, far off the image, or never near it
            let _ = painted(&Shape::Dashed(p(-1e30, 7.0), p(1e30, 9.0), 2, 1e30, -1e30));
            let _ = painted(&Shape::Dashed(
                p(-1e30, 7.0),
                p(1e30, 9.0),
                2,
                f32::NAN,
                1.0,
            ));
            assert!(painted(&Shape::Dashed(p(-1e9, -5e3), p(1e9, -5e3), 4, 2.0, 1.0)).is_empty());
            // a non-finite endpoint draws nothing
            for (a, b) in [
                (p(f32::NEG_INFINITY, 7.0), p(f32::INFINITY, 7.0)),
                (p(0.0, 7.0), p(f32::INFINITY, 7.0)),
                (p(f32::NAN, 7.0), p(20.0, 7.0)),
            ] {
                assert!(painted(&Shape::Dashed(a, b, 1, 4.0, 4.0)).is_empty());
            }
        });
    }

    /// Draws `shape` on a blank 24x18 image and returns the painted pixels.
    fn painted(shape: &Shape) -> Vec<(u32, u32)> {
        let mut img = RasterImage::new(24, 18);
        shape.draw(&mut img, Rgb::WHITE);
        (0..18)
            .flat_map(|y| (0..24).map(move |x| (x, y)))
            .filter(|&(x, y)| img.get(x, y) == Rgb::WHITE)
            .collect()
    }

    fn count_color(img: &RasterImage, c: Rgb) -> usize {
        img.pixels().iter().filter(|&&p| p == c).count()
    }

    #[test]
    fn fill_rect_clips() {
        let mut img = RasterImage::new(10, 10);
        fill_rect(&mut img, -5, -5, 8, 8, Rgb::WHITE);
        assert_eq!(count_color(&img, Rgb::WHITE), 9);
    }

    #[test]
    fn line_endpoints_are_painted() {
        let mut img = RasterImage::new(20, 20);
        line(
            &mut img,
            Point::new(2.0, 3.0),
            Point::new(15.0, 12.0),
            1,
            Rgb::WHITE,
        );
        assert_eq!(img.get(2, 3), Rgb::WHITE);
        assert_eq!(img.get(15, 12), Rgb::WHITE);
    }

    #[test]
    fn thick_line_covers_more_pixels() {
        let mut thin = RasterImage::new(30, 30);
        let mut thick = RasterImage::new(30, 30);
        line(
            &mut thin,
            Point::new(0.0, 0.0),
            Point::new(29.0, 29.0),
            1,
            Rgb::WHITE,
        );
        line(
            &mut thick,
            Point::new(0.0, 0.0),
            Point::new(29.0, 29.0),
            3,
            Rgb::WHITE,
        );
        assert!(count_color(&thick, Rgb::WHITE) > count_color(&thin, Rgb::WHITE));
    }

    #[test]
    fn dashed_line_has_gaps() {
        let mut dashed = RasterImage::new(60, 10);
        let mut solid = RasterImage::new(60, 10);
        dashed_line(
            &mut dashed,
            Point::new(0.0, 5.0),
            Point::new(59.0, 5.0),
            1,
            5.0,
            5.0,
            Rgb::WHITE,
        );
        line(
            &mut solid,
            Point::new(0.0, 5.0),
            Point::new(59.0, 5.0),
            1,
            Rgb::WHITE,
        );
        let d = count_color(&dashed, Rgb::WHITE);
        let s = count_color(&solid, Rgb::WHITE);
        assert!(d > 0 && d < s, "dashed={d} solid={s}");
    }

    #[test]
    fn disc_is_roughly_circular() {
        let mut img = RasterImage::new(40, 40);
        fill_disc(&mut img, Point::new(20.0, 20.0), 10.0, Rgb::WHITE);
        let n = count_color(&img, Rgb::WHITE) as f32;
        let expected = std::f32::consts::PI * 100.0;
        assert!(
            (n - expected).abs() / expected < 0.15,
            "area {n} vs {expected}"
        );
        assert_eq!(img.get(20, 20), Rgb::WHITE);
        assert_eq!(img.get(0, 0), Rgb::BLACK);
    }

    #[test]
    fn polygon_fills_triangle() {
        let mut img = RasterImage::new(20, 20);
        fill_convex_polygon(
            &mut img,
            &[
                Point::new(10.0, 2.0),
                Point::new(18.0, 18.0),
                Point::new(2.0, 18.0),
            ],
            Rgb::WHITE,
        );
        assert_eq!(img.get(10, 10), Rgb::WHITE);
        assert_eq!(img.get(1, 1), Rgb::BLACK);
        let n = count_color(&img, Rgb::WHITE) as f32;
        assert!((n - 128.0).abs() / 128.0 < 0.25, "triangle area {n}");
    }

    #[test]
    fn gradient_is_monotone() {
        let mut img = RasterImage::new(4, 50);
        vertical_gradient(&mut img, Rgb::gray(10), Rgb::gray(240));
        let top = img.get(0, 0).luminance();
        let mid = img.get(0, 25).luminance();
        let bot = img.get(0, 49).luminance();
        assert!(top < mid && mid < bot);
    }

    #[test]
    fn window_grid_paints_expected_count() {
        let mut img = RasterImage::new(100, 100);
        window_grid(&mut img, 10, 10, 80, 80, 4, 3, Rgb::WHITE);
        // 12 windows, each 10x14-ish; just assert a plausible coverage band.
        let n = count_color(&img, Rgb::WHITE);
        assert!(n > 500 && n < 3000, "painted {n}");
    }
}
