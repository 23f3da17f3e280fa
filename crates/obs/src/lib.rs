//! Unified run observability for the nbhd workspace.
//!
//! One run, one [`Obs`] bundle, three pieces:
//!
//! * [`VirtualClock`] — the shared virtual time source (moved here from
//!   `nbhd-client` so every layer, not just the API client, can stamp
//!   spans with it).
//! * [`MetricsRegistry`] — the unified counter surface that absorbs the
//!   previously scattered tallies (`nbhd-exec` global atomics,
//!   `CostMeter`, gsv `UsageMeter`, breaker transitions), split into a
//!   deterministic namespace and an observability-only wall namespace.
//! * [`Tracer`] / [`Stage`] — nested virtual-time stage spans with an
//!   optional crash-safe journal sink (`"obs-span"` records through
//!   `nbhd-journal`'s length+FNV framing, deduplicated across resume).
//!
//! The determinism contract: [`RunSummary::deterministic_text`]
//! (virtual-time spans + deterministic counters + deterministic
//! histograms) is byte-identical at any worker count for the same plan
//! and seed; wall-clock durations, scheduling counters, and
//! completion-order float sums live outside that surface.
//!
//! On top of the live bundle sits the **flight recorder**: a
//! [`Histogram`] namespace in the registry for latency/size
//! distributions, [`RunArtifact`] to freeze a finished run as versioned
//! JSON (with a Chrome-trace/Perfetto view of the span tree), and one
//! gate over artifacts: [`BudgetSpec`], declarative per-stage/percentile/
//! counter/coverage/cost ceilings evaluated against a single artifact
//! into a typed [`BudgetReport`]. The committed `BUDGETS.json` spec and
//! the `budget_gate` binary build on it, and [`diff`] — the run-vs-run
//! regression gate that the `run_diff` binary applies in
//! `scripts/check.sh` — is the budget derived from the baseline artifact,
//! evaluated on the current one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod clock;
mod coverage;
mod export;
mod hist;
mod metrics;
mod summary;
mod trace;

pub use budget::{
    diff, BudgetReport, BudgetRule, BudgetSpec, BudgetViolation, BudgetViolationKind, RuleVerdict,
};
pub use clock::VirtualClock;
pub use coverage::{RegionCoverageRow, RunCoverage, ShardCoverageRow};
pub use export::{ExportError, MergeError, RunArtifact, ShardIdentity, ARTIFACT_SCHEMA_VERSION};
pub use hist::Histogram;
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use summary::{Obs, RunSummary};
pub use trace::{sanitize_span_name, SpanRecord, Stage, Tracer, SPAN_RECORD_KIND};
