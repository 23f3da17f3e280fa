//! Concurrent model-query orchestration: the layer between the survey
//! pipeline and the (simulated) vision-model APIs.
//!
//! The study's discussion section flags "computational costs and API
//! latency" as the practical barrier to majority-voting LLM ensembles; this
//! crate makes those costs first-class. It provides:
//!
//! * [`Transport`] — the API boundary, with [`SimulatedTransport`] wrapping
//!   a [`nbhd_vlm::VisionModel`] plus latency modeling and fault injection;
//! * [`TokenBucket`] rate limiting over a [`VirtualClock`] (no real
//!   sleeping: deterministic, instantaneous tests);
//! * [`send_with_retry`] / [`send_resilient`] — exponential backoff with
//!   jitter, a backoff cap, deadline budgets, and tail-latency hedging;
//! * [`FaultSchedule`] — scripted chaos regimes (outages, brownouts,
//!   rate-limit storms) over the virtual clock, via [`ScheduledTransport`];
//! * [`CircuitBreaker`] / [`BreakerTransport`] — per-model fail-fast when
//!   a backend is observably down;
//! * [`CostMeter`] — per-model token/dollar/latency/resilience accounting;
//! * [`BatchExecutor`] — an order-preserving request fan-out on the shared
//!   [`nbhd_exec`] worker pool;
//! * [`Ensemble`] — the multi-model survey runner with quorum-aware
//!   voting and [`HealthReport`] observability.
//!
//! # Examples
//!
//! ```
//! use nbhd_client::Ensemble;
//! use nbhd_geo::{RoadClass, Zoning};
//! use nbhd_prompt::{Language, Prompt, PromptMode};
//! use nbhd_scene::{SceneGenerator, ViewKind};
//! use nbhd_types::{Heading, ImageId, LocationId};
//! use nbhd_vlm::{ImageContext, SamplerParams};
//!
//! let spec = SceneGenerator::new(1).compose_raw(
//!     ImageId::new(LocationId(0), Heading::North),
//!     Zoning::Urban,
//!     RoadClass::Multilane,
//!     ViewKind::AlongRoad,
//! );
//! let contexts = vec![ImageContext::from_scene(&spec, 1)];
//! let ensemble = Ensemble::paper_setup(1);
//! let prompt = Prompt::build(Language::English, PromptMode::Parallel);
//! let outcome = ensemble.survey(&contexts, &prompt, &SamplerParams::default());
//! println!("voted: {}", outcome.voted[0]);
//! println!("{}", ensemble.meter().report());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod cost;
mod ensemble;
mod executor;
mod health;
mod hedge;
mod ratelimit;
mod retry;
mod schedule;
mod transport;

pub use breaker::{
    BreakerConfig, BreakerSnapshot, BreakerState, BreakerTransitions, BreakerTransport,
    CircuitBreaker,
};
pub use cost::{token_cost_usd, CostMeter, ModelUsage};
pub use ensemble::{
    Ensemble, EnsembleOutcome, ModelAnswers, ResilienceConfig, VoteRecord, VOTE_RECORD_KIND,
};
pub use executor::{BatchExecutor, ExecutorConfig};
pub use health::{HealthReport, ModelHealth};
pub use hedge::HedgePolicy;
pub use nbhd_exec::Parallelism;
pub use ratelimit::{TokenBucket, VirtualClock};
pub use retry::{
    send_resilient, send_with_retry, RetriedResponse, RetryFailure, RetryPolicy, ERROR_RTT_MS,
};
pub use schedule::{DrawKeying, FaultRegime, FaultSchedule, RegimeKind, ScheduledTransport};
pub use transport::{
    FaultProfile, ModelRequest, ModelResponse, SimulatedTransport, Transport, TransportError,
};
