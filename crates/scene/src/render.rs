//! Rasterizes a [`SceneSpec`] into pixels plus exact object boxes.
//!
//! The renderer is a pure function of the spec: a painter's-algorithm pass
//! over sky, ground, road, sidewalk, buildings, trees, powerlines,
//! streetlights, and vehicles, with a simple linear perspective model for
//! along-road views. Every indicator object it draws is also emitted as a
//! ground-truth [`ObjectLabel`], which is what makes the synthetic imagery a
//! drop-in replacement for hand-labeled street view data.

use nbhd_geo::{RoadClass, Zoning};
use nbhd_raster::{draw, RasterImage, Rgb};
use nbhd_types::{BBox, Indicator, ObjectLabel, Point};

use crate::spec::{
    BuildingKind, BuildingView, PowerlineView, SceneSpec, Side, StreetlightView, TreeView,
    VehicleView, ViewKind,
};

/// Default capture resolution, matching the study's GSV requests.
pub const DEFAULT_SIZE: u32 = 640;

/// Normalized y of the horizon line.
const HORIZON: f32 = 0.45;
/// Along-view road half-width at the bottom edge (normalized).
const ROAD_EDGE: f32 = 0.05;

/// Renders the scene at `size x size` pixels.
///
/// Returns the image and the ground-truth object labels (boxes smaller than
/// 3 px in either dimension after clamping are dropped, mirroring how tiny
/// slivers go unlabeled by human annotators). The labels are exactly
/// [`labels`] of the same spec and size.
///
/// # Examples
///
/// ```
/// use nbhd_geo::{RoadClass, Zoning};
/// use nbhd_scene::{render, SceneGenerator, ViewKind};
/// use nbhd_types::{Heading, ImageId, LocationId};
///
/// let generator = SceneGenerator::new(1);
/// let spec = generator.compose_raw(
///     ImageId::new(LocationId(0), Heading::North),
///     Zoning::Urban,
///     RoadClass::Multilane,
///     ViewKind::AlongRoad,
/// );
/// let (img, labels) = render(&spec, 160);
/// assert_eq!(img.size(), (160, 160));
/// assert_eq!(
///     labels.iter().map(|l| l.indicator).collect::<nbhd_types::IndicatorSet>(),
///     spec.presence(),
/// );
/// ```
pub fn render(spec: &SceneSpec, size: u32) -> (RasterImage, Vec<ObjectLabel>) {
    let mut img = RasterImage::new(size, size);
    let labels = draw_scene(spec, size, Some(&mut img));
    (img, labels)
}

/// The ground-truth object labels of [`render`] at `size x size` pixels,
/// without painting a pixel.
///
/// It runs the renderer's own pass with no image to paint into, so the
/// boxes are bit-identical to `render(spec, size).1` and cost a small
/// fraction of a render: billing and labeling a scene never rasterize it.
///
/// # Examples
///
/// ```
/// use nbhd_geo::{RoadClass, Zoning};
/// use nbhd_scene::{labels, render, SceneGenerator, ViewKind};
/// use nbhd_types::{Heading, ImageId, LocationId};
///
/// let spec = SceneGenerator::new(1).compose_raw(
///     ImageId::new(LocationId(0), Heading::North),
///     Zoning::Urban,
///     RoadClass::Multilane,
///     ViewKind::AlongRoad,
/// );
/// assert_eq!(labels(&spec, 160), render(&spec, 160).1);
/// ```
pub fn labels(spec: &SceneSpec, size: u32) -> Vec<ObjectLabel> {
    draw_scene(spec, size, None)
}

/// The one painter's pass behind [`render`] and [`labels`]: it emits every
/// label and paints only when handed an image.
fn draw_scene(spec: &SceneSpec, size: u32, img: Option<&mut RasterImage>) -> Vec<ObjectLabel> {
    let g = Geom {
        s: size as f32,
        lighting: spec.lighting,
        haze: spec.haze,
    };
    let mut canvas = Canvas {
        img,
        labels: Vec::new(),
        g,
    };
    canvas.paint(|img| {
        sky(img, g);
        ground(img, g, spec.zone);
    });
    match spec.view {
        ViewKind::AlongRoad => canvas.along_view(spec),
        ViewKind::AcrossRoad => canvas.across_view(spec),
    }
    canvas.finish_labels(size)
}

/// Fills the sky band with its vertical gradient.
fn sky(img: &mut RasterImage, g: Geom) {
    let top = g.lit(Rgb::new(140, 180, 228));
    let low = g.lit(Rgb::new(200, 216, 235));
    let h = (g.s * HORIZON) as u32;
    let width = i64::from(img.width());
    for y in 0..h.min(img.height()) {
        let t = y as f32 / h.max(1) as f32;
        let c = top.lerp(low, t);
        draw::fill_rect(img, 0, i64::from(y), width, 1, c);
    }
}

/// Fills everything below the horizon with the zone's ground colour.
fn ground(img: &mut RasterImage, g: Geom, zone: Zoning) {
    let base = match zone {
        Zoning::Urban => Rgb::new(126, 130, 116),
        Zoning::Suburban => Rgb::new(108, 136, 92),
        Zoning::Rural => Rgb::new(96, 142, 82),
    };
    let c = g.lit(base);
    let y0 = i64::from((g.s * HORIZON) as u32);
    let (w, h) = (i64::from(img.width()), i64::from(img.height()));
    draw::fill_rect(img, 0, y0, w, h - y0, c);
}

/// The painter's state: the labels emitted so far, and the image to paint
/// into, if any.
struct Canvas<'a> {
    img: Option<&'a mut RasterImage>,
    labels: Vec<ObjectLabel>,
    g: Geom,
}

/// View geometry and tone mapping, separate from the mutable canvas so the
/// borrow checker allows inline use while drawing.
#[derive(Debug, Clone, Copy)]
struct Geom {
    s: f32,
    lighting: f32,
    haze: f32,
}

impl Geom {
    /// Applies global lighting to a base color.
    fn lit(&self, c: Rgb) -> Rgb {
        c.scaled(self.lighting)
    }

    /// Applies lighting plus depth haze (fading toward the sky tone).
    fn shade(&self, c: Rgb, depth: f32) -> Rgb {
        let sky = self.lit(Rgb::new(168, 196, 230));
        self.lit(c).lerp(sky, self.haze * depth)
    }

    /// Left road edge x at depth `t`.
    fn road_left(&self, t: f32) -> f32 {
        (ROAD_EDGE + (0.47 - ROAD_EDGE) * t) * self.s
    }

    /// Right road edge x at depth `t`.
    fn road_right(&self, t: f32) -> f32 {
        ((1.0 - ROAD_EDGE) + (0.53 - (1.0 - ROAD_EDGE)) * t) * self.s
    }

    /// Ground y at depth `t`.
    fn ground_y(&self, t: f32) -> f32 {
        (1.0 + (HORIZON + 0.01 - 1.0) * t) * self.s
    }

    /// Apparent size multiplier at depth `t`.
    fn persp(&self, t: f32) -> f32 {
        1.0 - 0.90 * t
    }

    /// Roadside anchor x for an object at `depth` with a margin off the edge.
    fn side_anchor_x(&self, side: Side, depth: f32, margin: f32) -> f32 {
        match side {
            Side::Left => self.road_left(depth) - margin * self.s * self.persp(depth),
            Side::Right => self.road_right(depth) + margin * self.s * self.persp(depth),
        }
    }
}

impl Canvas<'_> {
    /// Runs `draw` on the image when the canvas holds one; a label-only
    /// pass skips it, and with it every primitive's clamping and fill. The
    /// painter draws only through this and the primitives below.
    fn paint(&mut self, draw: impl FnOnce(&mut RasterImage)) {
        if let Some(img) = self.img.as_deref_mut() {
            draw(img);
        }
    }

    fn fill_rect(&mut self, x: i64, y: i64, w: i64, h: i64, color: Rgb) {
        self.paint(|img| draw::fill_rect(img, x, y, w, h, color));
    }

    fn fill_polygon(&mut self, vertices: &[Point], color: Rgb) {
        self.paint(|img| draw::fill_convex_polygon(img, vertices, color));
    }

    fn fill_disc(&mut self, c: Point, radius: f32, color: Rgb) {
        self.paint(|img| draw::fill_disc(img, c, radius, color));
    }

    fn line(&mut self, a: Point, b: Point, thickness: u32, color: Rgb) {
        self.paint(|img| draw::line(img, a, b, thickness, color));
    }

    fn dashed_line(&mut self, a: Point, b: Point, thickness: u32, dash: f32, gap: f32, color: Rgb) {
        self.paint(|img| draw::dashed_line(img, a, b, thickness, dash, gap, color));
    }

    fn label(&mut self, indicator: Indicator, bbox: BBox) {
        self.labels.push(ObjectLabel::new(indicator, bbox));
    }

    fn finish_labels(&mut self, size: u32) -> Vec<ObjectLabel> {
        self.labels
            .drain(..)
            .filter_map(|l| {
                let clamped = l.bbox.clamp_to(size, size)?;
                if clamped.w < 3.0 || clamped.h < 3.0 {
                    return None;
                }
                Some(ObjectLabel::new(l.indicator, clamped))
            })
            .collect()
    }

    fn along_view(&mut self, spec: &SceneSpec) {
        if let Some(road) = &spec.road {
            self.along_road(road.class);
        }
        if let Some(sw) = &spec.sidewalk {
            self.along_sidewalk(sw.side);
        }
        for b in &spec.buildings {
            self.along_building(b);
        }
        for t in &spec.trees {
            self.along_tree(t);
        }
        if let Some(pl) = &spec.powerline {
            self.along_powerline(pl);
        }
        for sl in &spec.streetlights {
            self.along_streetlight(sl);
        }
        for v in &spec.vehicles {
            self.along_vehicle(v);
        }
    }

    fn along_road(&mut self, class: RoadClass) {
        let g = self.g;
        let asphalt = g.lit(Rgb::gray(74));
        let t_far = 0.985;
        let quad = [
            Point::new(g.road_left(0.0), g.ground_y(0.0)),
            Point::new(g.road_right(0.0), g.ground_y(0.0)),
            Point::new(g.road_right(t_far), g.ground_y(t_far)),
            Point::new(g.road_left(t_far), g.ground_y(t_far)),
        ];
        self.fill_polygon(&quad, asphalt);

        // Edge lines.
        let white = g.lit(Rgb::gray(225));
        let yellow = g.lit(Rgb::new(214, 186, 64));
        let edge_t = (g.s / 320.0).max(1.0) as u32;
        self.line(
            Point::new(g.road_left(0.0) + 2.0, g.ground_y(0.0)),
            Point::new(g.road_left(t_far) + 1.0, g.ground_y(t_far)),
            edge_t,
            white,
        );
        self.line(
            Point::new(g.road_right(0.0) - 2.0, g.ground_y(0.0)),
            Point::new(g.road_right(t_far) - 1.0, g.ground_y(t_far)),
            edge_t,
            white,
        );

        // Center markings: yellow divider; multilane adds white lane dashes.
        let center0 = (g.road_left(0.0) + g.road_right(0.0)) / 2.0;
        let center1 = (g.road_left(t_far) + g.road_right(t_far)) / 2.0;
        match class {
            RoadClass::SingleLane => {
                self.dashed_line(
                    Point::new(center0, g.ground_y(0.0)),
                    Point::new(center1, g.ground_y(t_far)),
                    edge_t,
                    g.s * 0.05,
                    g.s * 0.04,
                    yellow,
                );
            }
            RoadClass::Multilane => {
                // double yellow divider
                self.line(
                    Point::new(center0 - 2.0, g.ground_y(0.0)),
                    Point::new(center1 - 1.0, g.ground_y(t_far)),
                    edge_t,
                    yellow,
                );
                self.line(
                    Point::new(center0 + 2.0, g.ground_y(0.0)),
                    Point::new(center1 + 1.0, g.ground_y(t_far)),
                    edge_t,
                    yellow,
                );
                // white dashes splitting each direction into two lanes
                for frac in [0.25f32, 0.75] {
                    let x0 = g.road_left(0.0) + frac * (g.road_right(0.0) - g.road_left(0.0));
                    let x1 = g.road_left(t_far) + frac * (g.road_right(t_far) - g.road_left(t_far));
                    self.dashed_line(
                        Point::new(x0, g.ground_y(0.0)),
                        Point::new(x1, g.ground_y(t_far)),
                        edge_t,
                        g.s * 0.045,
                        g.s * 0.045,
                        white,
                    );
                }
            }
        }

        let ind = match class {
            RoadClass::SingleLane => Indicator::SingleLaneRoad,
            RoadClass::Multilane => Indicator::MultilaneRoad,
        };
        self.label(
            ind,
            BBox::from_corners(
                Point::new(g.road_left(0.0), g.ground_y(t_far)),
                Point::new(g.road_right(0.0), g.ground_y(0.0)),
            ),
        );
    }

    fn along_sidewalk(&mut self, side: Side) {
        let g = self.g;
        let c = g.lit(Rgb::gray(176));
        let t_far = 0.92;
        let quad = match side {
            Side::Right => [
                Point::new(g.road_right(0.0) + 0.012 * g.s, g.ground_y(0.0)),
                Point::new(g.road_right(0.0) + 0.115 * g.s, g.ground_y(0.0)),
                Point::new(g.road_right(t_far) + 0.018 * g.s, g.ground_y(t_far)),
                Point::new(g.road_right(t_far) + 0.004 * g.s, g.ground_y(t_far)),
            ],
            Side::Left => [
                Point::new(g.road_left(0.0) - 0.115 * g.s, g.ground_y(0.0)),
                Point::new(g.road_left(0.0) - 0.012 * g.s, g.ground_y(0.0)),
                Point::new(g.road_left(t_far) - 0.004 * g.s, g.ground_y(t_far)),
                Point::new(g.road_left(t_far) - 0.018 * g.s, g.ground_y(t_far)),
            ],
        };
        self.fill_polygon(&quad, c);
        // expansion-joint ticks give the strip a texture signature
        let tick = g.lit(Rgb::gray(140));
        for i in 0..10 {
            let t = i as f32 / 10.0 * t_far;
            let (x0, x1) = match side {
                Side::Right => (
                    g.road_right(t) + 0.012 * g.s * g.persp(t),
                    g.road_right(t) + 0.115 * g.s * g.persp(t),
                ),
                Side::Left => (
                    g.road_left(t) - 0.115 * g.s * g.persp(t),
                    g.road_left(t) - 0.012 * g.s * g.persp(t),
                ),
            };
            let y = g.ground_y(t);
            self.line(Point::new(x0, y), Point::new(x1, y), 1, tick);
        }
        let xs = quad.map(|p| p.x);
        let ys = quad.map(|p| p.y);
        self.label(
            Indicator::Sidewalk,
            BBox::from_corners(
                Point::new(
                    xs.iter().copied().fold(f32::INFINITY, f32::min),
                    ys.iter().copied().fold(f32::INFINITY, f32::min),
                ),
                Point::new(
                    xs.iter().copied().fold(f32::NEG_INFINITY, f32::max),
                    ys.iter().copied().fold(f32::NEG_INFINITY, f32::max),
                ),
            ),
        );
    }

    fn along_building(&mut self, b: &BuildingView) {
        let g = self.g;
        let scale = g.persp(b.depth);
        let w = b.width * scale * g.s;
        let story_h = 0.085 * scale * g.s;
        let h = story_h * b.stories as f32 + 0.02 * scale * g.s;
        let base_y = g.ground_y(b.depth);
        let x = match b.side {
            Side::Left => g.side_anchor_x(Side::Left, b.depth, 0.03) - w,
            Side::Right => g.side_anchor_x(Side::Right, b.depth, 0.03),
        };
        self.building_common(b, x, base_y, w, h, story_h);
    }

    fn building_common(
        &mut self,
        b: &BuildingView,
        x: f32,
        base_y: f32,
        w: f32,
        h: f32,
        story_h: f32,
    ) {
        let g = self.g;
        let facade = g.shade(palette_color(b.palette), b.depth);
        let window = g.shade(Rgb::new(58, 70, 92), b.depth);
        let top_y = base_y - h;
        self.fill_rect(x as i64, top_y as i64, w as i64, h as i64, facade);
        match b.kind {
            BuildingKind::Apartment => {
                let cols = ((w / story_h).round() as u32).clamp(3, 8);
                self.paint(|img| {
                    draw::window_grid(
                        img,
                        x as i64,
                        top_y as i64,
                        w as i64,
                        h as i64,
                        cols,
                        b.stories as u32,
                        window,
                    )
                });
                // flat parapet line
                self.fill_rect(
                    x as i64 - 1,
                    top_y as i64 - 2,
                    w as i64 + 2,
                    3,
                    facade.scaled(0.7),
                );
                self.label(Indicator::Apartment, BBox::new(x, top_y - 2.0, w, h + 2.0));
            }
            BuildingKind::House => {
                // pitched roof
                let roof = g.shade(Rgb::new(96, 70, 58), b.depth);
                self.fill_polygon(
                    &[
                        Point::new(x - w * 0.08, top_y),
                        Point::new(x + w / 2.0, top_y - h * 0.45),
                        Point::new(x + w * 1.08, top_y),
                    ],
                    roof,
                );
                // door and one or two windows
                self.fill_rect(
                    (x + w * 0.42) as i64,
                    (base_y - h * 0.55) as i64,
                    (w * 0.16).max(1.0) as i64,
                    (h * 0.55) as i64,
                    g.shade(Rgb::new(80, 56, 40), b.depth),
                );
                self.fill_rect(
                    (x + w * 0.12) as i64,
                    (base_y - h * 0.65) as i64,
                    (w * 0.18).max(1.0) as i64,
                    (h * 0.3).max(1.0) as i64,
                    window,
                );
            }
            BuildingKind::Shop => {
                // storefront band along the bottom story
                self.fill_rect(
                    x as i64,
                    (base_y - story_h) as i64,
                    w as i64,
                    story_h as i64,
                    g.shade(Rgb::new(70, 84, 110), b.depth),
                );
                self.fill_rect(
                    x as i64,
                    (base_y - h) as i64 - 2,
                    w as i64,
                    3,
                    facade.scaled(0.65),
                );
            }
        }
    }

    fn along_tree(&mut self, t: &TreeView) {
        let g = self.g;
        let scale = g.persp(t.depth);
        let x = g.side_anchor_x(t.side, t.depth, 0.06);
        let base_y = g.ground_y(t.depth);
        self.tree_common(t, x, base_y, scale);
    }

    fn tree_common(&mut self, t: &TreeView, x: f32, base_y: f32, scale: f32) {
        let g = self.g;
        let trunk = g.shade(Rgb::new(84, 62, 44), t.depth);
        let canopy = g.shade(Rgb::new(56, 108, 52), t.depth);
        let h = t.size * scale * g.s;
        self.line(
            Point::new(x, base_y),
            Point::new(x, base_y - h * 0.55),
            ((0.012 * scale * g.s) as u32).max(1),
            trunk,
        );
        self.fill_disc(Point::new(x, base_y - h * 0.70), h * 0.34, canopy);
        self.fill_disc(
            Point::new(x - h * 0.18, base_y - h * 0.58),
            h * 0.22,
            canopy,
        );
        self.fill_disc(
            Point::new(x + h * 0.18, base_y - h * 0.60),
            h * 0.24,
            canopy,
        );
    }

    fn along_powerline(&mut self, pl: &PowerlineView) {
        let g = self.g;
        let wire = g.lit(Rgb::gray(46));
        let pole_c = g.shade(Rgb::new(92, 72, 52), 0.2);
        let mut pole_tops: Vec<Point> = Vec::new();
        let mut min_x = f32::INFINITY;
        let mut max_x = f32::NEG_INFINITY;
        for &depth in &pl.pole_depths {
            let scale = g.persp(depth);
            let x = g.side_anchor_x(pl.side, depth, 0.02);
            let base_y = g.ground_y(depth);
            let top_y = base_y - 0.52 * scale * g.s;
            let thickness = ((0.010 * scale * g.s) as u32).max(1);
            self.line(
                Point::new(x, base_y),
                Point::new(x, top_y),
                thickness,
                pole_c,
            );
            // crossarm
            let arm = 0.05 * scale * g.s;
            self.line(
                Point::new(x - arm, top_y + 0.02 * scale * g.s),
                Point::new(x + arm, top_y + 0.02 * scale * g.s),
                thickness,
                pole_c,
            );
            pole_tops.push(Point::new(x, top_y));
            min_x = min_x.min(x - arm);
            max_x = max_x.max(x + arm);
        }
        // wires between consecutive poles, with slight sag
        let mut min_y = f32::INFINITY;
        let mut max_y = f32::NEG_INFINITY;
        for w in pole_tops.windows(2) {
            for k in 0..pl.wires {
                let off = k as f32 * 0.012 * g.s;
                let a = Point::new(w[0].x, w[0].y + off);
                let b = Point::new(w[1].x, w[1].y + off);
                let mid = Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0 + 0.012 * g.s);
                self.line(a, mid, 1, wire);
                self.line(mid, b, 1, wire);
                min_y = min_y.min(a.y.min(b.y));
                max_y = max_y.max(mid.y);
            }
        }
        for p in &pole_tops {
            min_y = min_y.min(p.y);
        }
        let base_y = g.ground_y(pl.pole_depths.first().copied().unwrap_or(0.1));
        if pole_tops.is_empty() {
            return;
        }
        self.label(
            Indicator::Powerline,
            BBox::from_corners(
                Point::new(min_x, min_y.min(base_y - 1.0)),
                Point::new(max_x, base_y),
            ),
        );
    }

    fn along_streetlight(&mut self, sl: &StreetlightView) {
        let g = self.g;
        let scale = g.persp(sl.depth);
        let x = g.side_anchor_x(sl.side, sl.depth, 0.015);
        let base_y = g.ground_y(sl.depth);
        self.streetlight_common(sl, x, base_y, scale);
    }

    fn streetlight_common(&mut self, sl: &StreetlightView, x: f32, base_y: f32, scale: f32) {
        let g = self.g;
        let pole = g.lit(Rgb::gray(58));
        let lamp = g.lit(Rgb::new(252, 240, 178));
        let h = sl.height * scale * g.s;
        let top_y = base_y - h;
        let thickness = ((0.008 * scale * g.s) as u32).max(1);
        self.line(Point::new(x, base_y), Point::new(x, top_y), thickness, pole);
        // mast arm curving over the road
        let arm_dx = match sl.side {
            Side::Left => 0.055 * scale * g.s,
            Side::Right => -0.055 * scale * g.s,
        };
        self.line(
            Point::new(x, top_y),
            Point::new(x + arm_dx, top_y - 0.012 * scale * g.s),
            thickness,
            pole,
        );
        let lamp_r = (0.011 * scale * g.s).max(1.2);
        let lamp_c = Point::new(x + arm_dx, top_y - 0.012 * scale * g.s + lamp_r);
        self.fill_disc(lamp_c, lamp_r, lamp);
        let left = (x.min(x + arm_dx)) - lamp_r;
        let right = (x.max(x + arm_dx)) + lamp_r;
        self.label(
            Indicator::Streetlight,
            BBox::from_corners(
                Point::new(left, top_y - 0.03 * scale * g.s),
                Point::new(right, base_y),
            ),
        );
    }

    fn along_vehicle(&mut self, v: &VehicleView) {
        let g = self.g;
        let scale = g.persp(v.depth);
        let road_l = g.road_left(v.depth);
        let road_r = g.road_right(v.depth);
        let cx = (road_l + road_r) / 2.0 + v.lane_offset * (road_r - road_l) * 0.42;
        let base_y = g.ground_y(v.depth);
        self.vehicle_common(v, cx, base_y, scale);
    }

    fn vehicle_common(&mut self, v: &VehicleView, cx: f32, base_y: f32, scale: f32) {
        let g = self.g;
        let body = g.shade(vehicle_color(v.palette), v.depth);
        let dark = g.lit(Rgb::gray(30));
        let w = 0.085 * scale * g.s;
        let h = 0.055 * scale * g.s;
        self.fill_rect(
            (cx - w / 2.0) as i64,
            (base_y - h) as i64,
            w as i64,
            (h * 0.72) as i64,
            body,
        );
        // cabin
        self.fill_rect(
            (cx - w * 0.28) as i64,
            (base_y - h * 1.25) as i64,
            (w * 0.56) as i64,
            (h * 0.55) as i64,
            body.scaled(0.8),
        );
        // wheels
        self.fill_disc(Point::new(cx - w * 0.3, base_y - h * 0.12), h * 0.17, dark);
        self.fill_disc(Point::new(cx + w * 0.3, base_y - h * 0.12), h * 0.17, dark);
    }

    // ---- across-road view ----------------------------------------------

    fn across_view(&mut self, spec: &SceneSpec) {
        let g = self.g;
        // Buildings first (back plane), then greenery, then street furniture.
        for b in &spec.buildings {
            self.across_building(b);
        }
        for t in &spec.trees {
            let x = (0.08 + 0.84 * t.depth) * g.s;
            self.tree_common(t, x, 0.82 * g.s, 0.85);
        }
        if let Some(sw) = &spec.sidewalk {
            self.across_sidewalk(sw.clear_frac);
        }
        if let Some(road) = &spec.road {
            self.across_road(road.class, road.visible_frac);
        }
        if let Some(pl) = &spec.powerline {
            self.across_powerline(pl);
        }
        for sl in &spec.streetlights {
            let x = (0.12 + 0.76 * sl.depth) * g.s;
            self.streetlight_common(sl, x, 0.86 * g.s, 0.9);
        }
        for v in &spec.vehicles {
            if spec.road.is_some() {
                let cx = (0.1 + 0.8 * v.depth) * g.s;
                self.vehicle_common(v, cx, 0.97 * g.s, 0.8);
            }
        }
    }

    fn across_road(&mut self, class: RoadClass, visible_frac: f32) {
        let g = self.g;
        let asphalt = g.lit(Rgb::gray(74));
        let band_h = (0.30 * visible_frac.clamp(0.1, 1.0)) * g.s;
        let top = g.s - band_h;
        self.fill_rect(0, top as i64, g.s as i64, band_h as i64 + 1, asphalt);
        let yellow = g.lit(Rgb::new(214, 186, 64));
        let white = g.lit(Rgb::gray(225));
        let mid = top + band_h * 0.45;
        match class {
            RoadClass::SingleLane => {
                self.dashed_line(
                    Point::new(0.0, mid),
                    Point::new(g.s, mid),
                    ((g.s / 300.0) as u32).max(1),
                    g.s * 0.06,
                    g.s * 0.05,
                    yellow,
                );
            }
            RoadClass::Multilane => {
                self.line(
                    Point::new(0.0, mid - 2.0),
                    Point::new(g.s, mid - 2.0),
                    1,
                    yellow,
                );
                self.line(
                    Point::new(0.0, mid + 2.0),
                    Point::new(g.s, mid + 2.0),
                    1,
                    yellow,
                );
                self.dashed_line(
                    Point::new(0.0, top + band_h * 0.72),
                    Point::new(g.s, top + band_h * 0.72),
                    1,
                    g.s * 0.05,
                    g.s * 0.05,
                    white,
                );
            }
        }
        let ind = match class {
            RoadClass::SingleLane => Indicator::SingleLaneRoad,
            RoadClass::Multilane => Indicator::MultilaneRoad,
        };
        self.label(ind, BBox::new(0.0, top, g.s, band_h));
    }

    fn across_sidewalk(&mut self, clear_frac: f32) {
        let g = self.g;
        let c = g.lit(Rgb::gray(176));
        let h = 0.055 * g.s;
        let top = g.s * 0.70;
        let w = g.s * clear_frac.clamp(0.3, 1.0);
        self.fill_rect(0, top as i64, w as i64, h as i64, c);
        let tick = g.lit(Rgb::gray(140));
        let mut x = 0.0f32;
        while x < w {
            self.line(Point::new(x, top), Point::new(x, top + h), 1, tick);
            x += g.s * 0.07;
        }
        self.label(Indicator::Sidewalk, BBox::new(0.0, top, w, h));
    }

    fn across_building(&mut self, b: &BuildingView) {
        let g = self.g;
        let w = b.width * 1.4 * g.s;
        let story_h = 0.10 * g.s;
        let h = story_h * b.stories as f32 + 0.03 * g.s;
        let base_y = 0.72 * g.s;
        let x = (0.05 + 0.75 * b.depth) * g.s - w / 2.0;
        self.building_common(b, x.max(-w * 0.4), base_y, w, h, story_h);
    }

    fn across_powerline(&mut self, pl: &PowerlineView) {
        let g = self.g;
        let wire = g.lit(Rgb::gray(46));
        let pole_c = g.shade(Rgb::new(92, 72, 52), 0.2);
        let wire_y = pl.wire_height * g.s;
        let base_y = 0.88 * g.s;
        let mut min_y = f32::INFINITY;
        for (i, &d) in pl.pole_depths.iter().enumerate() {
            let x = (0.15 + 0.7 * d) * g.s + i as f32 * 0.02 * g.s;
            self.line(
                Point::new(x, base_y),
                Point::new(x, wire_y),
                ((0.010 * g.s) as u32).max(1),
                pole_c,
            );
            let arm = 0.06 * g.s;
            self.line(
                Point::new(x - arm, wire_y + 0.015 * g.s),
                Point::new(x + arm, wire_y + 0.015 * g.s),
                ((0.008 * g.s) as u32).max(1),
                pole_c,
            );
        }
        for k in 0..pl.wires {
            let y = wire_y + k as f32 * 0.016 * g.s;
            let sag = 0.018 * g.s;
            let mid = Point::new(g.s / 2.0, y + sag);
            self.line(Point::new(0.0, y), mid, 1, wire);
            self.line(mid, Point::new(g.s, y), 1, wire);
            min_y = min_y.min(y);
        }
        self.label(
            Indicator::Powerline,
            BBox::from_corners(Point::new(0.0, min_y - 2.0), Point::new(g.s, base_y)),
        );
    }
}

/// Facade palette (8 entries), stable across renders.
fn palette_color(idx: u8) -> Rgb {
    const PALETTE: [Rgb; 8] = [
        Rgb::new(152, 82, 70),   // brick
        Rgb::new(192, 172, 142), // tan
        Rgb::new(142, 142, 148), // gray
        Rgb::new(212, 206, 198), // white
        Rgb::new(120, 132, 152), // blue-gray
        Rgb::new(132, 152, 122), // sage
        Rgb::new(202, 186, 152), // beige
        Rgb::new(122, 92, 72),   // brown
    ];
    PALETTE[idx as usize % PALETTE.len()]
}

/// Vehicle body palette (8 entries).
fn vehicle_color(idx: u8) -> Rgb {
    const PALETTE: [Rgb; 8] = [
        Rgb::new(180, 40, 40),
        Rgb::new(40, 60, 150),
        Rgb::new(220, 220, 220),
        Rgb::new(30, 30, 30),
        Rgb::new(90, 90, 95),
        Rgb::new(170, 140, 60),
        Rgb::new(50, 110, 70),
        Rgb::new(130, 130, 170),
    ];
    PALETTE[idx as usize % PALETTE.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SceneGenerator;
    use nbhd_types::{Heading, ImageId, IndicatorSet, LocationId};

    fn spec(loc: u64, zone: Zoning, class: RoadClass, view: ViewKind) -> SceneSpec {
        SceneGenerator::new(99).compose_raw(
            ImageId::new(LocationId(loc), Heading::North),
            zone,
            class,
            view,
        )
    }

    #[test]
    fn render_is_deterministic() {
        let s = spec(1, Zoning::Urban, RoadClass::Multilane, ViewKind::AlongRoad);
        let (a, la) = render(&s, 128);
        let (b, lb) = render(&s, 128);
        assert_eq!(a, b);
        assert_eq!(la, lb);
    }

    #[test]
    fn labels_match_presence_for_many_scenes() {
        for loc in 0..60u64 {
            for (zone, class, view) in [
                (Zoning::Urban, RoadClass::Multilane, ViewKind::AlongRoad),
                (
                    Zoning::Suburban,
                    RoadClass::SingleLane,
                    ViewKind::AcrossRoad,
                ),
                (Zoning::Rural, RoadClass::SingleLane, ViewKind::AlongRoad),
            ] {
                let s = spec(loc, zone, class, view);
                let (_, labels) = render(&s, 160);
                let label_set: IndicatorSet = labels.iter().map(|l| l.indicator).collect();
                assert_eq!(
                    label_set,
                    s.presence(),
                    "loc {loc} {zone:?} {class:?} {view:?}"
                );
            }
        }
    }

    #[test]
    fn boxes_are_inside_the_image() {
        for loc in 0..40u64 {
            let s = spec(
                loc,
                Zoning::Urban,
                RoadClass::Multilane,
                ViewKind::AcrossRoad,
            );
            let (_, labels) = render(&s, 160);
            for l in labels {
                assert!(l.bbox.x >= 0.0 && l.bbox.y >= 0.0);
                assert!(l.bbox.right() <= 160.0 + 1e-3);
                assert!(l.bbox.bottom() <= 160.0 + 1e-3);
                assert!(l.bbox.w >= 3.0 && l.bbox.h >= 3.0);
            }
        }
    }

    #[test]
    fn along_road_fills_bottom_center() {
        let mut s = spec(2, Zoning::Rural, RoadClass::SingleLane, ViewKind::AlongRoad);
        s.vehicles.clear();
        let (img, _) = render(&s, 160);
        // a lane-interior pixel (left of the center markings, right of the
        // edge line) should be asphalt-gray (lighting-scaled gray 74)
        let p = img.get(45, 152);
        let max_chan = p.r.max(p.g).max(p.b);
        let min_chan = p.r.min(p.g).min(p.b);
        assert!(
            max_chan - min_chan < 12,
            "asphalt should be neutral, got {p:?}"
        );
        assert!(p.luminance() < 110.0, "asphalt should be dark, got {p:?}");
    }

    #[test]
    fn streetlight_lamp_is_drawn_inside_its_box() {
        let mut s = spec(3, Zoning::Urban, RoadClass::Multilane, ViewKind::AlongRoad);
        s.streetlights = vec![StreetlightView {
            side: Side::Right,
            depth: 0.1,
            height: 0.5,
        }];
        let (img, labels) = render(&s, 320);
        let b = labels
            .iter()
            .find(|l| l.indicator == Indicator::Streetlight)
            .expect("streetlight labeled")
            .bbox;
        // find a bright lamp-colored pixel inside the box
        let mut found = false;
        for y in b.y as u32..b.bottom() as u32 {
            for x in b.x as u32..b.right() as u32 {
                let p = img.get(x.min(319), y.min(319));
                if p.r > 200 && p.g > 190 && p.b < 210 && p.b > 120 {
                    found = true;
                }
            }
        }
        assert!(found, "no lamp pixel found inside {b:?}");
    }

    #[test]
    fn different_sizes_scale_geometry() {
        let s = spec(
            4,
            Zoning::Suburban,
            RoadClass::SingleLane,
            ViewKind::AlongRoad,
        );
        let (img_small, labels_small) = render(&s, 80);
        let (img_big, labels_big) = render(&s, 320);
        assert_eq!(img_small.size(), (80, 80));
        assert_eq!(img_big.size(), (320, 320));
        // label boxes scale roughly 4x (allowing clamp/min-size differences)
        if let (Some(a), Some(b)) = (labels_small.first(), labels_big.first()) {
            assert_eq!(a.indicator, b.indicator);
            assert!((b.bbox.w / a.bbox.w - 4.0).abs() < 1.0);
        }
    }

    /// FNV-1a over every pixel's channels and every label's class and box
    /// bits: a hash that, unlike `DefaultHasher`, is the same on every
    /// toolchain and platform.
    fn fnv1a(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The 24 scenes of the golden hashes: every zoning, road class, view
    /// and two headings.
    fn golden_specs() -> Vec<SceneSpec> {
        let generator = SceneGenerator::new(2025);
        let mut specs = Vec::new();
        let zones = [Zoning::Urban, Zoning::Suburban, Zoning::Rural];
        for (loc, zone) in zones.into_iter().enumerate() {
            for class in [RoadClass::SingleLane, RoadClass::Multilane] {
                for view in [ViewKind::AlongRoad, ViewKind::AcrossRoad] {
                    for heading in [Heading::North, Heading::South] {
                        let id = ImageId::new(LocationId(7 * loc as u64 + 3), heading);
                        specs.push(generator.compose_raw(id, zone, class, view));
                    }
                }
            }
        }
        specs
    }

    /// Compares label boxes bit for bit, so `-0.0` and `0.0` differ.
    fn label_bits(labels: &[ObjectLabel]) -> Vec<(Indicator, [u32; 4])> {
        labels
            .iter()
            .map(|l| {
                let b = l.bbox;
                (l.indicator, [b.x, b.y, b.w, b.h].map(f32::to_bits))
            })
            .collect()
    }

    #[test]
    fn labels_are_the_render_labels_on_the_golden_scenes() {
        let specs = golden_specs();
        assert_eq!(specs.len(), 24);
        for size in [64, 160, 640] {
            for s in &specs {
                assert_eq!(
                    label_bits(&labels(s, size)),
                    label_bits(&render(s, size).1),
                    "{:?} at {size} px",
                    s.image
                );
            }
        }
    }

    #[test]
    fn labels_are_the_render_labels_on_corrupted_scenes() {
        // `corrupt_spec` breaks lighting, haze, road or powerline fields;
        // the service rejects all of them before either pass runs, but the
        // two passes must still agree on whatever they are handed
        for (i, clean) in golden_specs().iter().enumerate() {
            for seed in 0..8u64 {
                let mut s = clean.clone();
                crate::corrupt_spec(&mut s, 100 * i as u64 + seed);
                assert_eq!(
                    label_bits(&labels(&s, 96)),
                    label_bits(&render(&s, 96).1),
                    "{:?} corrupted with seed {seed}",
                    s.image
                );
            }
        }
    }

    /// Pins the renderer's output, pixel for pixel and label for label, to
    /// the per-pixel rasterizer it replaced: one hash per size over a fixed
    /// list of scenes that crosses every zoning, road class and view.
    #[test]
    fn golden_renders_are_pixel_identical() {
        // recorded with the per-pixel rasterizer
        const GOLDEN: [(u32, u64); 3] = [
            (64, 0x1d57_f906_fd3d_0834),
            (160, 0x9192_abf5_7695_83f7),
            (640, 0x9e82_dabb_d433_f553),
        ];
        for (size, expected) in GOLDEN {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for s in &golden_specs() {
                let (img, labels) = render(s, size);
                for p in img.pixels() {
                    fnv1a(&mut hash, &[p.r, p.g, p.b]);
                }
                for l in &labels {
                    let class = Indicator::ALL.iter().position(|&i| i == l.indicator);
                    fnv1a(&mut hash, &[class.expect("a declared indicator") as u8]);
                    for v in [l.bbox.x, l.bbox.y, l.bbox.w, l.bbox.h] {
                        fnv1a(&mut hash, &v.to_bits().to_le_bytes());
                    }
                }
            }
            assert_eq!(hash, expected, "render hash at {size} px: {hash:#018x}");
        }
    }

    #[test]
    fn sky_is_brighter_than_road() {
        let s = spec(5, Zoning::Rural, RoadClass::SingleLane, ViewKind::AlongRoad);
        let (img, _) = render(&s, 160);
        let sky = img.get(80, 10).luminance();
        let road = img.get(80, 150).luminance();
        assert!(sky > road + 30.0, "sky {sky} road {road}");
    }
}
