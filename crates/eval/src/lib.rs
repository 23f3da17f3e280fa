//! Evaluation toolkit: binary confusions, per-class metric tables in the
//! paper's format, majority voting, average precision, bootstrap confidence
//! intervals, and text report rendering.
//!
//! # Examples
//!
//! ```
//! use nbhd_eval::{majority_vote, PresenceEvaluator, TiePolicy};
//! use nbhd_types::{Indicator, IndicatorSet};
//!
//! let truth = IndicatorSet::new().with(Indicator::Powerline);
//! let votes = [
//!     IndicatorSet::new().with(Indicator::Powerline),
//!     IndicatorSet::new(),
//!     IndicatorSet::new().with(Indicator::Powerline).with(Indicator::Sidewalk),
//! ];
//! let voted = majority_vote(&votes, TiePolicy::No);
//! let mut eval = PresenceEvaluator::new();
//! eval.observe(truth, voted);
//! assert_eq!(eval.table().per_class[Indicator::Powerline].recall, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bootstrap;
mod chart;
mod confusion;
mod curve;
mod html;
mod metrics;
mod report;
mod vote;

pub use bootstrap::{bootstrap_mean, ConfidenceInterval};
pub use chart::{bar_chart, line_chart};
pub use confusion::BinaryConfusion;
pub use curve::{average_precision, precision_recall_at, ScoredPrediction};
pub use html::{render_html_report, render_html_report_with_budget};
pub use metrics::{ClassMetrics, MetricsTable, PresenceEvaluator};
pub use report::{
    render_budget_table, render_comparison, render_coverage_table, render_exec_table,
    render_hist_table, render_metrics_table, render_run_summary, render_transfer_table,
    ComparisonRow, ExecRow, TransferRow,
};
pub use vote::{
    agreement, majority_vote, quorum_vote, QuorumPolicy, TiePolicy, VoteFallback, VoteProvenance,
};
