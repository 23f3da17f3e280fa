//! Synthetic county road networks.
//!
//! The study segments "all roadways with an interval of 50 feet across two
//! counties". We synthesize a road network per county: gridded streets in
//! urban tracts, winding connector roads in rural tracts, each edge carrying
//! its zoning and lane count.

use nbhd_types::rng::{child_seed, rng_from};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::{GeoBounds, LatLon, Zoning};

/// Lanes per direction of a road edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoadClass {
    /// One lane per direction.
    SingleLane,
    /// More than one lane per direction.
    Multilane,
}

impl RoadClass {
    /// Lanes per direction (single = 1, multilane = 2).
    pub const fn lanes_per_direction(self) -> u8 {
        match self {
            RoadClass::SingleLane => 1,
            RoadClass::Multilane => 2,
        }
    }
}

/// One road edge: a polyline with zoning and lane count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoadEdge {
    /// Polyline vertices from start to end.
    pub path: Vec<LatLon>,
    /// Lane configuration.
    pub class: RoadClass,
    /// Zoning of the neighborhood the edge runs through.
    pub zone: Zoning,
}

impl RoadEdge {
    /// Total length of the polyline in feet.
    pub fn length_feet(&self) -> f64 {
        self.path.windows(2).map(|w| w[0].distance_feet(w[1])).sum()
    }

    /// The point and local bearing at `dist` feet along the polyline.
    ///
    /// Returns `None` when `dist` exceeds the edge length.
    pub fn point_at(&self, dist: f64) -> Option<(LatLon, f64)> {
        if dist < 0.0 {
            return None;
        }
        let mut remaining = dist;
        for w in self.path.windows(2) {
            let seg = w[0].distance_feet(w[1]);
            if remaining <= seg && seg > 0.0 {
                let t = remaining / seg;
                return Some((w[0].lerp(w[1], t), w[0].bearing_to(w[1])));
            }
            remaining -= seg;
        }
        None
    }
}

/// A county's synthesized road network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoadNetwork {
    edges: Vec<RoadEdge>,
}

impl RoadNetwork {
    /// The edges of the network.
    pub fn edges(&self) -> &[RoadEdge] {
        &self.edges
    }

    /// Synthesizes a network inside `bounds`.
    ///
    /// `zone_mix` gives the fraction of tracts that are urban / suburban /
    /// rural (must sum to ~1). `scale` controls how many edges are
    /// generated; 1.0 yields on the order of 120 edges.
    pub fn synthesize(bounds: GeoBounds, zone_mix: [f64; 3], scale: f64, seed: u64) -> Self {
        let mut rng = rng_from(child_seed(seed, "road-network"));
        let mut edges = Vec::new();
        let n_tracts = ((12.0 * scale).round() as usize).max(1);
        for t in 0..n_tracts {
            // Assign each tract a zone according to the mix, round-robin
            // deterministic so small networks still hit every zone.
            let zone = pick_zone(&mut rng, zone_mix);
            let fx = (t % 4) as f64 / 4.0 + rng.random_range(0.0..0.12);
            let fy = (t / 4) as f64 / ((n_tracts / 4).max(1)) as f64 + rng.random_range(0.0..0.12);
            let origin = bounds.at(fx.min(0.92), fy.min(0.92));
            match zone {
                Zoning::Urban | Zoning::Suburban => {
                    grid_tract(&mut rng, &mut edges, origin, zone);
                }
                Zoning::Rural => {
                    winding_tract(&mut rng, &mut edges, origin, zone);
                }
            }
        }
        RoadNetwork { edges }
    }
}

fn pick_zone<R: Rng + ?Sized>(rng: &mut R, mix: [f64; 3]) -> Zoning {
    let total: f64 = mix.iter().sum();
    let mut u: f64 = rng.random_range(0.0..total.max(1e-9));
    for (i, m) in mix.iter().enumerate() {
        if u < *m {
            return Zoning::ALL[i];
        }
        u -= m;
    }
    Zoning::Rural
}

/// Grid streets: a small Manhattan block pattern, ~500 ft blocks.
fn grid_tract<R: Rng + ?Sized>(
    rng: &mut R,
    edges: &mut Vec<RoadEdge>,
    origin: LatLon,
    zone: Zoning,
) {
    let block_deg = 500.0 / crate::FEET_PER_DEGREE_LAT;
    let cells = 3usize;
    let priors = zone.priors();
    for i in 0..=cells {
        // east-west street
        let lat = origin.lat + i as f64 * block_deg;
        edges.push(RoadEdge {
            path: vec![
                LatLon::new(lat, origin.lon),
                LatLon::new(lat, origin.lon + cells as f64 * block_deg * 1.3),
            ],
            class: road_class(rng, priors.multilane),
            zone,
        });
        // north-south street
        let lon = origin.lon + i as f64 * block_deg * 1.3;
        edges.push(RoadEdge {
            path: vec![
                LatLon::new(origin.lat, lon),
                LatLon::new(origin.lat + cells as f64 * block_deg, lon),
            ],
            class: road_class(rng, priors.multilane),
            zone,
        });
    }
}

/// A winding rural connector: a polyline with gentle random heading drift.
fn winding_tract<R: Rng + ?Sized>(
    rng: &mut R,
    edges: &mut Vec<RoadEdge>,
    origin: LatLon,
    zone: Zoning,
) {
    let priors = zone.priors();
    let step_deg = 800.0 / crate::FEET_PER_DEGREE_LAT;
    let mut heading: f64 = rng.random_range(0.0..std::f64::consts::TAU);
    let mut p = origin;
    let mut path = vec![p];
    for _ in 0..rng.random_range(4..9) {
        heading += rng.random_range(-0.5..0.5);
        p = LatLon::new(
            p.lat + step_deg * heading.cos(),
            p.lon + step_deg * heading.sin(),
        );
        path.push(p);
    }
    edges.push(RoadEdge {
        path,
        class: road_class(rng, priors.multilane),
        zone,
    });
}

fn road_class<R: Rng + ?Sized>(rng: &mut R, p_multilane: f64) -> RoadClass {
    if rng.random_bool(p_multilane) {
        RoadClass::Multilane
    } else {
        RoadClass::SingleLane
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> GeoBounds {
        GeoBounds::new(LatLon::new(35.0, -79.5), LatLon::new(35.5, -79.0))
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = RoadNetwork::synthesize(bounds(), [0.3, 0.3, 0.4], 1.0, 7);
        let b = RoadNetwork::synthesize(bounds(), [0.3, 0.3, 0.4], 1.0, 7);
        assert_eq!(a, b);
        let c = RoadNetwork::synthesize(bounds(), [0.3, 0.3, 0.4], 1.0, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn network_has_mixed_zones_and_classes() {
        let n = RoadNetwork::synthesize(bounds(), [0.34, 0.33, 0.33], 2.0, 3);
        assert!(n.edges().len() > 20);
        let zones: std::collections::HashSet<_> = n.edges().iter().map(|e| e.zone).collect();
        assert!(zones.len() >= 2, "want multiple zones, got {zones:?}");
        let has_single = n.edges().iter().any(|e| e.class == RoadClass::SingleLane);
        let has_multi = n.edges().iter().any(|e| e.class == RoadClass::Multilane);
        assert!(has_single && has_multi);
    }

    #[test]
    fn edge_point_at_walks_the_polyline() {
        let e = RoadEdge {
            path: vec![LatLon::new(35.0, -79.0), LatLon::new(35.01, -79.0)],
            class: RoadClass::SingleLane,
            zone: Zoning::Rural,
        };
        let len = e.length_feet();
        assert!((len - 3640.0).abs() < 5.0);
        let (mid, bearing) = e.point_at(len / 2.0).unwrap();
        assert!((mid.lat - 35.005).abs() < 1e-6);
        assert!(bearing.abs() < 0.5, "northbound, got {bearing}");
        assert!(e.point_at(len + 1.0).is_none());
        assert!(e.point_at(-1.0).is_none());
    }
}
