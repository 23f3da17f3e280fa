//! A simulated Google-Street-View-style imagery service (see DESIGN.md §2).
//!
//! The study "obtained the coordinates for each location and request\[ed\]
//! images with a resolution of 640x640 pixels from all four directions",
//! paying an API fee per image. This crate reproduces that interface over
//! the synthetic scene substrate: validated [`ImageRequest`]s, deterministic
//! imagery per `(location, heading)`, coverage gaps, request quotas, a FIFO
//! cache of billed scenes (keys, not pixels), and per-image fee accounting
//! via [`UsageMeter`].
//!
//! # Examples
//!
//! ```
//! use nbhd_geo::{County, SurveySample};
//! use nbhd_gsv::StreetViewService;
//!
//! let sample = SurveySample::draw(&County::study_pair(), 4, 0.5, 9)?;
//! let service = StreetViewService::new(9, sample.points());
//! let location = service.covered_locations()[0];
//! let panorama = service.fetch_panorama(location, 64)?;
//! assert_eq!(panorama.len(), 4);
//! println!("fees so far: ${:.3}", service.usage().fees_usd);
//! # Ok::<(), nbhd_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod poison;
mod request;
mod service;
mod usage;

/// The study's capture resolution.
pub const DEFAULT_IMAGE_SIZE: u32 = 640;

pub use poison::{quiet_injected_panics, PoisonKind, PoisonSchedule};
pub use request::{ImageRequest, ImageRequestBuilder};
pub use service::{
    journaled_scenes, Capture, CoverageStatus, FeeRecord, ImageResponse, StreetViewService,
    FEE_PER_IMAGE_USD, FEE_RECORD_KIND,
};
pub use usage::UsageMeter;
