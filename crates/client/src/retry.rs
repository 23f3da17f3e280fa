//! Retry with exponential backoff, jitter, a backoff cap, deadline
//! budgets, and optional hedging — all accounted against the virtual clock.

use std::sync::Arc;

use nbhd_types::rng::{child_seed_n, rng_from};
use rand::Rng;

use crate::hedge::hedged_attempt;
use crate::{HedgePolicy, ModelRequest, ModelResponse, Transport, TransportError, VirtualClock};

/// Virtual milliseconds a failed (non-timeout) attempt costs: one server
/// round-trip to learn about the 4xx/5xx/429.
pub const ERROR_RTT_MS: u64 = 50;

/// Retry policy: exponential backoff with full jitter, capped, under an
/// optional total deadline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts (1 = no retries).
    pub max_attempts: u32,
    /// First backoff delay, milliseconds.
    pub base_ms: u64,
    /// Backoff multiplier per attempt.
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1]`: the delay is scaled by a uniform draw
    /// from `[1 - jitter, 1]`.
    pub jitter: f64,
    /// Cap on any single backoff delay, milliseconds. Without a cap a
    /// large `max_attempts` compounds into multi-minute virtual waits.
    /// Server-provided `retry_after_ms` hints still override the cap.
    pub max_ms: u64,
    /// Virtual milliseconds a timed-out attempt costs before the client
    /// gives up on it (the request's timeout budget).
    pub timeout_ms: u64,
    /// Optional total per-request deadline, virtual milliseconds, covering
    /// attempt latency, failure charges, and backoff. Once the budget
    /// cannot cover the next backoff, the request gives up.
    pub deadline_ms: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_ms: 250,
            multiplier: 2.0,
            jitter: 0.5,
            max_ms: 30_000,
            timeout_ms: 8_000,
            deadline_ms: None,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (1-based), honoring any
    /// server-provided `retry_after_ms` and the [`RetryPolicy::max_ms`]
    /// cap (the server hint wins over the cap).
    pub fn backoff_ms<R: Rng + ?Sized>(
        &self,
        attempt: u32,
        server_hint_ms: Option<u64>,
        rng: &mut R,
    ) -> u64 {
        let exp = self.base_ms as f64 * self.multiplier.powi(attempt.saturating_sub(1) as i32);
        let capped = exp.min(self.max_ms as f64);
        let jittered = capped * (1.0 - self.jitter * rng.random::<f64>());
        (jittered as u64).max(server_hint_ms.unwrap_or(0)).max(1)
    }

    /// Virtual milliseconds a failed attempt consumes: the timeout budget
    /// for [`TransportError::Timeout`], nothing for breaker fail-fasts
    /// (they never leave the client), and a server round-trip otherwise.
    pub fn failure_charge_ms(&self, err: &TransportError) -> u64 {
        match err {
            TransportError::Timeout => self.timeout_ms,
            TransportError::CircuitOpen { .. } => 0,
            _ => ERROR_RTT_MS,
        }
    }
}

/// Outcome of a retried request, with attempt accounting.
#[derive(Debug, Clone)]
pub struct RetriedResponse {
    /// The final response.
    pub response: ModelResponse,
    /// Attempts used (1 = first try succeeded). Hedge backups are counted
    /// separately in [`RetriedResponse::hedges_fired`].
    pub attempts: u32,
    /// Total virtual milliseconds spent in backoff waits.
    pub backoff_ms: u64,
    /// Hedge backups fired across the attempts.
    pub hedges_fired: u32,
    /// Hedge backups whose answer won.
    pub hedges_won: u32,
}

/// A request that gave up, with honest accounting of what it burned.
#[derive(Debug, Clone)]
pub struct RetryFailure {
    /// The final error.
    pub error: TransportError,
    /// Attempts actually made — a non-retryable `BadRequest` fails after
    /// exactly 1, not `max_attempts`.
    pub attempts: u32,
    /// Total virtual milliseconds spent in backoff waits.
    pub backoff_ms: u64,
    /// Hedge backups fired across the attempts.
    pub hedges_fired: u32,
    /// Hedge backups whose answer won.
    pub hedges_won: u32,
    /// Whether the request gave up because the deadline budget could not
    /// cover another backoff (rather than exhausting `max_attempts`).
    pub deadline_exceeded: bool,
}

impl RetryFailure {
    /// Whether the request was rejected by an open circuit breaker without
    /// reaching the API.
    pub fn failed_fast(&self) -> bool {
        matches!(self.error, TransportError::CircuitOpen { .. })
    }
}

/// Sends a request through a transport with retries, advancing the virtual
/// clock through attempt latency, failure charges, and backoff.
///
/// # Errors
///
/// Returns a [`RetryFailure`] carrying the last [`TransportError`] once
/// attempts (or the deadline budget) are exhausted, or immediately for
/// non-retryable errors.
pub fn send_with_retry(
    transport: &dyn Transport,
    request: &ModelRequest,
    policy: &RetryPolicy,
    clock: &Arc<VirtualClock>,
    seed: u64,
) -> Result<RetriedResponse, RetryFailure> {
    send_resilient(transport, request, policy, None, clock, seed)
}

/// [`send_with_retry`] plus optional tail-latency hedging: each attempt may
/// fire a backup request per the [`HedgePolicy`], taking the first success.
///
/// # Errors
///
/// Returns a [`RetryFailure`] carrying the last [`TransportError`] once
/// attempts (or the deadline budget) are exhausted, or immediately for
/// non-retryable errors.
pub fn send_resilient(
    transport: &dyn Transport,
    request: &ModelRequest,
    policy: &RetryPolicy,
    hedge: Option<&HedgePolicy>,
    clock: &Arc<VirtualClock>,
    seed: u64,
) -> Result<RetriedResponse, RetryFailure> {
    let mut rng = rng_from(child_seed_n(seed, "retry", request.context.image.key()));
    let mut backoff_total = 0u64;
    let mut spent_ms = 0u64;
    let mut hedges_fired = 0u32;
    let mut hedges_won = 0u32;
    let mut attempt = 1u32;
    loop {
        let outcome = hedged_attempt(transport, request, hedge, policy);
        clock.advance_ms(outcome.elapsed_ms);
        spent_ms += outcome.elapsed_ms;
        hedges_fired += u32::from(outcome.fired);
        hedges_won += u32::from(outcome.won);
        match outcome.result {
            Ok(response) => {
                return Ok(RetriedResponse {
                    response,
                    attempts: attempt,
                    backoff_ms: backoff_total,
                    hedges_fired,
                    hedges_won,
                });
            }
            Err(error) => {
                if !error.is_retryable() || attempt >= policy.max_attempts {
                    return Err(RetryFailure {
                        error,
                        attempts: attempt,
                        backoff_ms: backoff_total,
                        hedges_fired,
                        hedges_won,
                        deadline_exceeded: false,
                    });
                }
                let hint = match &error {
                    TransportError::RateLimited { retry_after_ms } => Some(*retry_after_ms),
                    _ => None,
                };
                let wait = policy.backoff_ms(attempt, hint, &mut rng);
                if let Some(deadline) = policy.deadline_ms {
                    if spent_ms.saturating_add(wait) > deadline {
                        return Err(RetryFailure {
                            error,
                            attempts: attempt,
                            backoff_ms: backoff_total,
                            hedges_fired,
                            hedges_won,
                            deadline_exceeded: true,
                        });
                    }
                }
                clock.advance_ms(wait);
                spent_ms += wait;
                backoff_total += wait;
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbhd_types::rng::rng_from;

    /// A scripted transport failing a fixed number of times.
    struct Flaky {
        fail_first: u32,
        err: TransportError,
        calls: std::sync::atomic::AtomicU32,
    }

    impl Transport for Flaky {
        fn model_name(&self) -> &str {
            "flaky"
        }
        fn send(&self, _request: &ModelRequest) -> Result<ModelResponse, TransportError> {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n < self.fail_first {
                Err(self.err.clone())
            } else {
                Ok(ModelResponse {
                    texts: vec!["Yes".into()],
                    latency_ms: 100.0,
                    input_tokens: 10,
                    output_tokens: 1,
                })
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

    #[test]
    fn retries_until_success() {
        let t = Flaky {
            fail_first: 2,
            err: TransportError::ServerError,
            calls: Default::default(),
        };
        let clock = Arc::new(VirtualClock::new());
        let out = send_with_retry(&t, &request(), &RetryPolicy::default(), &clock, 1).unwrap();
        assert_eq!(out.attempts, 3);
        assert!(out.backoff_ms > 0);
        assert!(clock.now_ms() >= out.backoff_ms + 100);
    }

    #[test]
    fn gives_up_after_max_attempts_with_honest_accounting() {
        let t = Flaky {
            fail_first: 100,
            err: TransportError::Timeout,
            calls: Default::default(),
        };
        let clock = Arc::new(VirtualClock::new());
        let fail = send_with_retry(&t, &request(), &RetryPolicy::default(), &clock, 1).unwrap_err();
        assert_eq!(fail.error, TransportError::Timeout);
        assert_eq!(fail.attempts, 4);
        assert!(!fail.deadline_exceeded);
        assert_eq!(t.calls.load(std::sync::atomic::Ordering::SeqCst), 4);
        // each timed-out attempt charges the timeout budget to the clock
        let policy = RetryPolicy::default();
        assert!(clock.now_ms() >= 4 * policy.timeout_ms + fail.backoff_ms);
    }

    #[test]
    fn bad_requests_fail_after_exactly_one_attempt() {
        let t = Flaky {
            fail_first: 100,
            err: TransportError::BadRequest("bad".into()),
            calls: Default::default(),
        };
        let clock = Arc::new(VirtualClock::new());
        let fail = send_with_retry(&t, &request(), &RetryPolicy::default(), &clock, 1).unwrap_err();
        assert_eq!(fail.attempts, 1, "non-retryable errors burn one attempt");
        assert_eq!(fail.backoff_ms, 0);
        assert_eq!(t.calls.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn failed_attempts_charge_virtual_time() {
        let t = Flaky {
            fail_first: 100,
            err: TransportError::ServerError,
            calls: Default::default(),
        };
        let clock = Arc::new(VirtualClock::new());
        let fail = send_with_retry(&t, &request(), &RetryPolicy::default(), &clock, 1).unwrap_err();
        // 4 failed round-trips plus the backoff waits
        assert_eq!(clock.now_ms(), 4 * ERROR_RTT_MS + fail.backoff_ms);
    }

    #[test]
    fn deadline_budget_caps_retry_spend() {
        let t = Flaky {
            fail_first: 100,
            err: TransportError::ServerError,
            calls: Default::default(),
        };
        let clock = Arc::new(VirtualClock::new());
        let policy = RetryPolicy {
            max_attempts: 50,
            deadline_ms: Some(2_000),
            ..RetryPolicy::default()
        };
        let fail = send_with_retry(&t, &request(), &policy, &clock, 1).unwrap_err();
        assert!(fail.deadline_exceeded);
        assert!(fail.attempts < 50, "deadline must cut attempts short");
        // the clock never runs past the deadline (the rejected backoff is
        // not taken)
        assert!(clock.now_ms() <= 2_000 + policy.timeout_ms);
    }

    #[test]
    fn backoff_grows_capped_and_respects_server_hint() {
        let p = RetryPolicy {
            jitter: 0.0,
            max_ms: 800,
            ..RetryPolicy::default()
        };
        let mut rng = rng_from(1);
        assert_eq!(p.backoff_ms(1, None, &mut rng), 250);
        assert_eq!(p.backoff_ms(2, None, &mut rng), 500);
        assert_eq!(p.backoff_ms(3, None, &mut rng), 800, "capped at max_ms");
        assert_eq!(p.backoff_ms(8, None, &mut rng), 800, "stays capped");
        assert_eq!(
            p.backoff_ms(1, Some(5000), &mut rng),
            5000,
            "hint beats cap"
        );
    }

    #[test]
    fn jitter_spreads_delays() {
        let p = RetryPolicy::default();
        let mut rng = rng_from(2);
        let delays: Vec<u64> = (0..50).map(|_| p.backoff_ms(2, None, &mut rng)).collect();
        let min = *delays.iter().min().unwrap();
        let max = *delays.iter().max().unwrap();
        assert!(max > min, "jitter must vary delays");
        assert!(min >= 250 && max <= 500, "range [{min}, {max}]");
    }

    #[test]
    fn hedging_rescues_a_failing_primary() {
        // fails once, then succeeds: with a hedge the backup answers inside
        // the first attempt, so no retry/backoff happens at all
        let t = Flaky {
            fail_first: 1,
            err: TransportError::ServerError,
            calls: Default::default(),
        };
        let clock = Arc::new(VirtualClock::new());
        let out = send_resilient(
            &t,
            &request(),
            &RetryPolicy::default(),
            Some(&HedgePolicy::after_ms(10)),
            &clock,
            1,
        )
        .unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(out.hedges_fired, 1);
        assert_eq!(out.hedges_won, 1);
        assert_eq!(out.backoff_ms, 0);
    }
}
