//! Graceful degradation tiers and per-response provenance.

use std::fmt;

use nbhd_eval::VoteFallback;
use serde::{Deserialize, Serialize};

/// How much machinery a request is served with. Variants are declared in
/// degradation order, so `Ord::max` combines independent signals into the
/// most-degraded applicable tier.
/// Journal records name a tier by its [`ServiceTier::as_str`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ServiceTier {
    /// Every ensemble member is queried and the voters vote.
    #[serde(rename = "full")]
    FullEnsemble,
    /// Only breaker-healthy voters are queried; the vote degrades per
    /// [`nbhd_eval::quorum_vote`].
    #[serde(rename = "quorum")]
    DegradedQuorum,
    /// No model is queried: the [`crate::EvidenceDetector`] answers from
    /// scene evidence alone.
    #[serde(rename = "detector")]
    DetectorOnly,
}

impl ServiceTier {
    /// Stable short name, used in logs and journal records.
    pub fn as_str(&self) -> &'static str {
        match self {
            ServiceTier::FullEnsemble => "full",
            ServiceTier::DegradedQuorum => "quorum",
            ServiceTier::DetectorOnly => "detector",
        }
    }
}

impl fmt::Display for ServiceTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Queue-depth thresholds driving load shedding: deeper backlogs buy
/// cheaper tiers so the service burns down the queue instead of queueing
/// unboundedly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Total queued requests at or above this cap the batch at
    /// [`ServiceTier::DegradedQuorum`].
    pub quorum_depth: usize,
    /// Total queued requests at or above this cap the batch at
    /// [`ServiceTier::DetectorOnly`].
    pub detector_depth: usize,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            quorum_depth: 16,
            detector_depth: 32,
        }
    }
}

/// The most expensive tier a queue depth permits.
pub fn tier_ceiling(policy: &DegradePolicy, queue_depth: usize) -> ServiceTier {
    if queue_depth >= policy.detector_depth {
        ServiceTier::DetectorOnly
    } else if queue_depth >= policy.quorum_depth {
        ServiceTier::DegradedQuorum
    } else {
        ServiceTier::FullEnsemble
    }
}

/// How one response was produced: the tier, who was asked, how the vote
/// fell back, and what the request went through to get served.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceProvenance {
    /// The tier that produced the answer.
    pub tier: ServiceTier,
    /// The batch the request was served in (1-based; 0 for replays).
    pub batch: u64,
    /// Model names actually queried (empty for detector-tier answers).
    pub queried: Vec<String>,
    /// Vote fallback, when a vote was held.
    pub fallback: Option<VoteFallback>,
    /// Whether the response was replayed from the journal instead of
    /// executed.
    pub replayed: bool,
    /// Virtual milliseconds between arrival and batch execution.
    pub wait_ms: u64,
    /// Whether the request's deadline headroom forced a detector-tier
    /// demotion.
    pub deadline_blown: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_combines_signals_toward_degradation() {
        assert_eq!(
            ServiceTier::FullEnsemble.max(ServiceTier::DegradedQuorum),
            ServiceTier::DegradedQuorum
        );
        assert_eq!(
            ServiceTier::DegradedQuorum.max(ServiceTier::DetectorOnly),
            ServiceTier::DetectorOnly
        );
        assert_eq!(
            ServiceTier::FullEnsemble.max(ServiceTier::FullEnsemble),
            ServiceTier::FullEnsemble
        );
    }

    #[test]
    fn ceiling_follows_queue_depth() {
        let policy = DegradePolicy::default();
        assert_eq!(tier_ceiling(&policy, 0), ServiceTier::FullEnsemble);
        assert_eq!(tier_ceiling(&policy, 15), ServiceTier::FullEnsemble);
        assert_eq!(tier_ceiling(&policy, 16), ServiceTier::DegradedQuorum);
        assert_eq!(tier_ceiling(&policy, 31), ServiceTier::DegradedQuorum);
        assert_eq!(tier_ceiling(&policy, 32), ServiceTier::DetectorOnly);
        assert_eq!(tier_ceiling(&policy, 1_000), ServiceTier::DetectorOnly);
    }

    #[test]
    fn names_round_trip() {
        for tier in [
            ServiceTier::FullEnsemble,
            ServiceTier::DegradedQuorum,
            ServiceTier::DetectorOnly,
        ] {
            let name = serde_json::to_value(&tier).unwrap();
            assert_eq!(name.as_str(), Some(tier.as_str()));
            assert_eq!(serde_json::from_value::<ServiceTier>(name).unwrap(), tier);
            assert_eq!(tier.to_string(), tier.as_str());
        }
        assert!(serde_json::from_value::<ServiceTier>(serde_json::json!("turbo")).is_err());
    }
}
