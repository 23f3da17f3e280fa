//! Request hedging: fire a backup attempt when the primary is slow.
//!
//! Tail-latency hedging issues a second, identical request once the first
//! has been outstanding longer than a latency threshold, and takes
//! whichever completes first. Under the virtual clock this is modeled
//! exactly: the backup "starts" at the threshold, so its completion time is
//! `after_ms + backup_latency`, and the winner is whichever finishes
//! earlier in virtual time.

use crate::{ModelRequest, ModelResponse, RetryPolicy, Transport, TransportError};

/// When and whether to hedge a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Fire the backup once the primary has been outstanding this long
    /// (virtual ms). Pick a high latency percentile of the target model so
    /// hedges stay rare in the healthy case.
    pub after_ms: u64,
}

impl HedgePolicy {
    /// A policy firing after a fixed threshold.
    pub fn after_ms(after_ms: u64) -> HedgePolicy {
        HedgePolicy { after_ms }
    }

    /// Derives the threshold from a model profile's latency distribution.
    ///
    /// The simulated transport draws latency uniformly in
    /// `[0.6, 1.4] x profile mean` (plus a small per-message cost), so
    /// `quantile` maps linearly onto that band; `0.95` hedges only the
    /// slowest ~5% of requests.
    pub fn for_profile(profile: &nbhd_vlm::ModelProfile, quantile: f64) -> HedgePolicy {
        let q = quantile.clamp(0.0, 1.0);
        HedgePolicy {
            after_ms: (profile.latency_ms * (0.6 + 0.8 * q) + 40.0) as u64,
        }
    }
}

/// The outcome of one (possibly hedged) attempt.
#[derive(Debug)]
pub(crate) struct HedgedAttempt {
    /// The winning result.
    pub result: Result<ModelResponse, TransportError>,
    /// Virtual milliseconds the attempt consumed end-to-end.
    pub elapsed_ms: u64,
    /// Whether the backup fired.
    pub fired: bool,
    /// Whether the backup's answer won.
    pub won: bool,
}

/// Runs one attempt through the transport, firing a hedge when the primary
/// is slower than the policy threshold (or fails retryably).
pub(crate) fn hedged_attempt(
    transport: &dyn Transport,
    request: &ModelRequest,
    hedge: Option<&HedgePolicy>,
    policy: &RetryPolicy,
) -> HedgedAttempt {
    let primary = transport.send(request);
    let primary_ms = completion_ms(&primary, policy);
    let Some(hedge) = hedge else {
        return HedgedAttempt {
            result: primary,
            elapsed_ms: primary_ms,
            fired: false,
            won: false,
        };
    };
    // No hedge when the primary beat the threshold, failed so fast there
    // was nothing to race (fail-fast breaker rejections), or failed in a
    // way a second identical request cannot fix.
    let hopeless = matches!(&primary, Err(err) if !err.is_retryable());
    if primary_ms <= hedge.after_ms || hopeless {
        return HedgedAttempt {
            result: primary,
            elapsed_ms: primary_ms,
            fired: false,
            won: false,
        };
    }
    let backup = transport.send(request);
    let backup_ms = hedge.after_ms + completion_ms(&backup, policy);
    match (primary, backup) {
        (Ok(primary), Ok(mut backup)) => {
            if backup_ms < primary_ms {
                backup.latency_ms = backup_ms as f64;
                HedgedAttempt {
                    result: Ok(backup),
                    elapsed_ms: backup_ms,
                    fired: true,
                    won: true,
                }
            } else {
                HedgedAttempt {
                    result: Ok(primary),
                    elapsed_ms: primary_ms,
                    fired: true,
                    won: false,
                }
            }
        }
        (Ok(primary), Err(_)) => HedgedAttempt {
            result: Ok(primary),
            elapsed_ms: primary_ms,
            fired: true,
            won: false,
        },
        (Err(_), Ok(mut backup)) => {
            backup.latency_ms = backup_ms as f64;
            HedgedAttempt {
                result: Ok(backup),
                elapsed_ms: backup_ms,
                fired: true,
                won: true,
            }
        }
        (Err(primary), Err(_)) => HedgedAttempt {
            // both lanes failed: report the primary's error, but the caller
            // waited for the slower of the two
            elapsed_ms: primary_ms.max(backup_ms),
            result: Err(primary),
            fired: true,
            won: false,
        },
    }
}

/// How long an attempt takes to resolve, in virtual milliseconds: the
/// response latency on success, or an honest failure charge — the timeout
/// budget for timeouts, a server round-trip for 4xx/5xx/429, and nothing
/// for breaker fail-fasts (they never leave the client).
fn completion_ms(result: &Result<ModelResponse, TransportError>, policy: &RetryPolicy) -> u64 {
    match result {
        Ok(response) => response.latency_ms as u64,
        Err(err) => policy.failure_charge_ms(err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// A scripted transport with per-call latencies and failures.
    struct Scripted {
        outcomes: Vec<Result<f64, TransportError>>,
        calls: AtomicU32,
    }

    impl Transport for Scripted {
        fn model_name(&self) -> &str {
            "scripted"
        }
        fn send(&self, _request: &ModelRequest) -> Result<ModelResponse, TransportError> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst) as usize;
            match &self.outcomes[n.min(self.outcomes.len() - 1)] {
                Ok(latency_ms) => Ok(ModelResponse {
                    texts: vec![format!("call-{n}")],
                    latency_ms: *latency_ms,
                    input_tokens: 10,
                    output_tokens: 1,
                }),
                Err(err) => Err(err.clone()),
            }
        }
    }

    fn request() -> ModelRequest {
        use nbhd_geo::{RoadClass, Zoning};
        use nbhd_prompt::{Language, Prompt, PromptMode};
        use nbhd_scene::{SceneGenerator, ViewKind};
        use nbhd_types::{Heading, ImageId, LocationId};
        let spec = SceneGenerator::new(5).compose_raw(
            ImageId::new(LocationId(0), Heading::North),
            Zoning::Urban,
            RoadClass::Multilane,
            ViewKind::AlongRoad,
        );
        ModelRequest {
            context: nbhd_vlm::ImageContext::from_scene(&spec, 5),
            prompt: Arc::new(Prompt::build(Language::English, PromptMode::Parallel)),
            params: nbhd_vlm::SamplerParams::default(),
        }
    }

    fn run(
        outcomes: Vec<Result<f64, TransportError>>,
        hedge: Option<HedgePolicy>,
    ) -> (HedgedAttempt, u32) {
        let t = Scripted {
            outcomes,
            calls: AtomicU32::new(0),
        };
        let attempt = hedged_attempt(&t, &request(), hedge.as_ref(), &RetryPolicy::default());
        (attempt, t.calls.load(Ordering::SeqCst))
    }

    #[test]
    fn fast_primary_never_hedges() {
        let (attempt, calls) = run(vec![Ok(100.0)], Some(HedgePolicy::after_ms(500)));
        assert!(!attempt.fired);
        assert_eq!(attempt.elapsed_ms, 100);
        assert_eq!(calls, 1);
    }

    #[test]
    fn slow_primary_fires_backup_that_wins() {
        // primary 2000ms; backup starts at 500 and takes 300 -> done at 800
        let (attempt, calls) = run(
            vec![Ok(2000.0), Ok(300.0)],
            Some(HedgePolicy::after_ms(500)),
        );
        assert!(attempt.fired && attempt.won);
        assert_eq!(attempt.elapsed_ms, 800);
        assert_eq!(attempt.result.unwrap().texts[0], "call-1");
        assert_eq!(calls, 2);
    }

    #[test]
    fn slow_backup_loses_to_primary() {
        // primary 900ms; backup starts at 500 and takes 800 -> done at 1300
        let (attempt, _) = run(vec![Ok(900.0), Ok(800.0)], Some(HedgePolicy::after_ms(500)));
        assert!(attempt.fired && !attempt.won);
        assert_eq!(attempt.elapsed_ms, 900);
        assert_eq!(attempt.result.unwrap().texts[0], "call-0");
    }

    #[test]
    fn failed_primary_is_rescued_by_hedge() {
        let (attempt, _) = run(
            vec![Err(TransportError::Timeout), Ok(200.0)],
            Some(HedgePolicy::after_ms(500)),
        );
        assert!(attempt.fired && attempt.won);
        assert_eq!(attempt.elapsed_ms, 500 + 200);
        assert!(attempt.result.is_ok());
    }

    #[test]
    fn bad_request_is_not_hedged() {
        let (attempt, calls) = run(
            vec![Err(TransportError::BadRequest("nope".into()))],
            Some(HedgePolicy::after_ms(1)),
        );
        assert!(!attempt.fired);
        assert_eq!(calls, 1);
        assert!(attempt.result.is_err());
    }

    #[test]
    fn no_policy_means_no_hedge() {
        let (attempt, calls) = run(vec![Ok(10_000.0)], None);
        assert!(!attempt.fired);
        assert_eq!(calls, 1);
        assert_eq!(attempt.elapsed_ms, 10_000);
    }

    #[test]
    fn profile_quantile_maps_to_latency_band() {
        let profile = nbhd_vlm::gemini_15_pro();
        let p50 = HedgePolicy::for_profile(&profile, 0.5);
        let p95 = HedgePolicy::for_profile(&profile, 0.95);
        assert!(p95.after_ms > p50.after_ms);
        assert_eq!(p50.after_ms, (profile.latency_ms + 40.0) as u64);
    }
}
