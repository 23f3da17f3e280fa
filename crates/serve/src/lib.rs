//! Overload-safe multi-tenant survey serving.
//!
//! The study pipeline batches a fixed dataset through the ensemble once;
//! this crate turns that pipeline into a *service*: a long-running
//! request/response loop where several tenants submit survey requests
//! concurrently, quotas and budgets are enforced per tenant, and the
//! service degrades gracefully instead of collapsing when the simulated
//! model APIs melt down. The pieces:
//!
//! * [`AdmissionController`] — bounded per-tenant queues, token-bucket
//!   quotas (reusing `nbhd-client`'s [`nbhd_client::TokenBucket`]), a
//!   global queue cap, and hard per-tenant budget cutoffs, rejecting with
//!   a typed [`Rejected`];
//! * [`ServiceTier`] / [`DegradePolicy`] — load shedding and graceful
//!   degradation driven by live signals (queue depth, circuit-breaker
//!   state, deadline headroom): full ensemble → quorum-degraded vote →
//!   detector-only answer, with per-response [`ServiceProvenance`];
//! * [`EvidenceDetector`] — the cheap transport-free bottom tier,
//!   thresholding scene evidence;
//! * [`SurveyService`] — the serial admission loop with cross-tenant
//!   batching into `nbhd-client`'s [`nbhd_client::BatchExecutor`],
//!   per-tenant [`nbhd_client::CostMeter`] metering, and crash-safe
//!   journaling of every response and rejection through any
//!   [`nbhd_journal::CheckpointStore`];
//! * [`StormBuilder`] — the overload chaos harness: traffic-storm
//!   workloads (bursts, steady streams) plus fault regimes (429 storms,
//!   breaker flaps) over the shared virtual clock;
//! * [`SloSpec`] — per-tenant service-level objectives (p99 wait,
//!   rejection fraction, degraded-tier fraction, spend) compiled to
//!   `nbhd-obs` budget rules and evaluated against
//!   [`SurveyService::tenant_artifact`]'s per-tenant metric export.
//!
//! Everything on the decision surface — who is admitted, which tier
//! serves each request, what every response says, and what every tenant
//! is billed — is deterministic at any worker count; see DESIGN.md §13
//! for the invariants and how the clock is paced.
//!
//! # Examples
//!
//! ```
//! use nbhd_serve::{ServiceConfig, StormBuilder, SurveyService, TenantConfig};
//!
//! let (workload, schedule) = StormBuilder::new(7)
//!     .steady("acme", 0, 12, 250)
//!     .burst("blitz", 1_000, 6)
//!     .build();
//! let config = ServiceConfig {
//!     schedule,
//!     ..ServiceConfig::default()
//! };
//! let tenants = vec![TenantConfig::new("acme"), TenantConfig::new("blitz")];
//! let mut service = SurveyService::new(config, tenants);
//! let report = service.run(workload).unwrap();
//! assert_eq!(report.responses.len() + report.rejections.len(), 18);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod detector;
mod service;
mod slo;
mod storm;
mod tenant;
mod tiers;

pub use admission::{AdmissionController, Rejected, TenantGate};
pub use detector::EvidenceDetector;
pub use service::{
    Rejection, RejectionRecord, ResponseRecord, RunReport, ServiceConfig, ServiceResponse,
    SurveyService, REJECTION_RECORD_KIND, RESPONSE_RECORD_KIND,
};
pub use slo::SloSpec;
pub use storm::{Arrival, StormBuilder, Workload};
pub use tenant::{TenantBill, TenantConfig};
pub use tiers::{tier_ceiling, DegradePolicy, ServiceProvenance, ServiceTier};
