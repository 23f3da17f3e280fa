//! Procedural street scenes: the synthetic replacement for Google Street
//! View imagery (see DESIGN.md §2).
//!
//! The crate is split along the randomness boundary:
//!
//! * [`SceneGenerator`] (in `compose`) samples a concrete [`SceneSpec`] —
//!   which objects exist and where — from the zoning priors, seeded per
//!   image.
//! * [`render`] is a pure function from spec to pixels plus exact
//!   ground-truth [`nbhd_types::ObjectLabel`]s.
//! * [`scene_evidence`] is a pure function from spec to the per-indicator
//!   visual evidence the simulated VLMs consume.
//!
//! # Examples
//!
//! ```
//! use nbhd_geo::{County, SurveySample};
//! use nbhd_scene::{render, SceneGenerator};
//! use nbhd_types::Heading;
//!
//! let sample = SurveySample::draw(&County::study_pair(), 2, 0.5, 3)?;
//! let generator = SceneGenerator::new(3);
//! for point in sample.points() {
//!     for heading in Heading::ALL {
//!         let spec = generator.compose(point, heading);
//!         let (image, labels) = render(&spec, 160);
//!         assert_eq!(image.size(), (160, 160));
//!         let labeled: nbhd_types::IndicatorSet =
//!             labels.iter().map(|l| l.indicator).collect();
//!         assert_eq!(labeled, spec.presence());
//!     }
//! }
//! # Ok::<(), nbhd_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compose;
mod render;
mod spec;
mod visibility;

pub use compose::{view_kind, SceneGenerator};
pub use render::{labels, render, DEFAULT_SIZE};
pub use spec::{
    corrupt_spec, BuildingKind, BuildingView, PowerlineView, RoadView, SceneSpec, Side,
    SidewalkView, StreetlightView, TreeView, VehicleView, ViewKind,
};
pub use visibility::{scene_evidence, IndicatorEvidence};
