//! The concurrent batch executor: an ordered fan-out over the shared
//! execution substrate, with rate limiting, retries, and cost metering
//! over a shared virtual clock.

use std::sync::Arc;

use nbhd_exec::{Parallelism, ScopedPool};
use nbhd_obs::Obs;

use crate::{
    send_resilient, CostMeter, HedgePolicy, ModelRequest, ModelResponse, RetryPolicy, TokenBucket,
    Transport, TransportError, VirtualClock,
};

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Worker-thread budget for the request fan-out.
    pub parallelism: Parallelism,
    /// Optional rate limit as `(burst_capacity, requests_per_second)`.
    pub rate_limit: Option<(u32, f64)>,
    /// Retry policy per request.
    pub retry: RetryPolicy,
    /// Optional tail-latency hedging policy per attempt.
    pub hedge: Option<HedgePolicy>,
    /// Seed for retry jitter.
    pub seed: u64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            parallelism: Parallelism::fixed(4),
            rate_limit: Some((8, 10.0)),
            retry: RetryPolicy::default(),
            hedge: None,
            seed: 0,
        }
    }
}

/// Runs batches of requests against one transport.
///
/// ```no_run
/// use std::sync::Arc;
/// use nbhd_client::{BatchExecutor, ExecutorConfig, SimulatedTransport};
/// use nbhd_vlm::{gemini_15_pro, VisionModel};
///
/// let transport = Arc::new(SimulatedTransport::new(VisionModel::new(gemini_15_pro(), 1), 1));
/// let executor = BatchExecutor::new(transport, ExecutorConfig::default());
/// let responses = executor.run(Vec::new());
/// assert!(responses.is_empty());
/// ```
pub struct BatchExecutor {
    transport: Arc<dyn Transport>,
    config: ExecutorConfig,
    clock: Arc<VirtualClock>,
    meter: Arc<CostMeter>,
    pricing: (f64, f64),
    obs: Obs,
}

impl BatchExecutor {
    /// Creates an executor with its own clock, meter and fresh
    /// observability bundle.
    pub fn new(transport: Arc<dyn Transport>, config: ExecutorConfig) -> BatchExecutor {
        BatchExecutor {
            transport,
            config,
            clock: Arc::new(VirtualClock::new()),
            meter: Arc::new(CostMeter::new()),
            pricing: (0.0, 0.0),
            obs: Obs::new(),
        }
    }

    /// Shares an existing clock and meter (e.g. across ensemble members).
    #[must_use]
    pub fn with_accounting(mut self, clock: Arc<VirtualClock>, meter: Arc<CostMeter>) -> Self {
        self.clock = clock;
        self.meter = meter;
        self
    }

    /// Swaps the executor's own fresh bundle for the run's: every batch
    /// records a `batch-<model>` stage span and the fan-out's execution
    /// counters land in the bundle's registry. Does not touch the
    /// accounting clock — share that via [`BatchExecutor::with_accounting`]
    /// (callers that want spans stamped in batch time pass an `Obs`
    /// built over the same clock).
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Sets billing rates as `(usd_per_1k_input, usd_per_1k_output)`.
    #[must_use]
    pub fn with_pricing(mut self, usd_per_1k_input: f64, usd_per_1k_output: f64) -> Self {
        self.pricing = (usd_per_1k_input, usd_per_1k_output);
        self
    }

    /// The executor's virtual clock.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The executor's cost meter.
    pub fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }

    /// Runs all requests, preserving order in the output.
    ///
    /// The fan-out rides the shared execution substrate (`nbhd-exec`), so
    /// output slot `i` always holds request `i`'s result; the token bucket,
    /// retry policy, hedging, and breaker state behave exactly as they do
    /// under the sequential path.
    pub fn run(&self, requests: Vec<ModelRequest>) -> Vec<Result<ModelResponse, TransportError>> {
        if requests.is_empty() {
            return Vec::new();
        }
        let bucket = self
            .config
            .rate_limit
            .map(|(cap, rate)| TokenBucket::new(cap, rate, self.clock.clone()));

        let stage = self
            .obs
            .tracer()
            .enter(&format!("batch-{}", self.transport.model_name()));
        let pool =
            ScopedPool::new(self.config.parallelism).with_metrics(Arc::clone(self.obs.registry()));
        let results = pool.map(&requests, |request| {
            if let Some(bucket) = &bucket {
                bucket.acquire_blocking();
            }
            let outcome = send_resilient(
                self.transport.as_ref(),
                request,
                &self.config.retry,
                self.config.hedge.as_ref(),
                &self.clock,
                self.config.seed,
            );
            match outcome {
                Ok(retried) => {
                    self.meter.record_success(
                        self.transport.model_name(),
                        retried.response.input_tokens,
                        retried.response.output_tokens,
                        self.pricing.0,
                        self.pricing.1,
                        retried.response.latency_ms,
                        retried.attempts,
                    );
                    self.meter.record_resilience(
                        self.transport.model_name(),
                        retried.hedges_fired,
                        retried.hedges_won,
                        retried.backoff_ms,
                    );
                    Ok(retried.response)
                }
                Err(failure) => {
                    // charge the attempts the request really made — a
                    // fail-fast breaker rejection burns one, not
                    // `retry.max_attempts`
                    if failure.failed_fast() {
                        self.meter.record_fail_fast(self.transport.model_name());
                    } else {
                        self.meter
                            .record_failure(self.transport.model_name(), failure.attempts);
                    }
                    self.meter.record_resilience(
                        self.transport.model_name(),
                        failure.hedges_fired,
                        failure.hedges_won,
                        failure.backoff_ms,
                    );
                    Err(failure.error)
                }
            }
        });
        stage.record();
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultProfile, SimulatedTransport};
    use nbhd_geo::{RoadClass, Zoning};
    use nbhd_prompt::{Language, Prompt, PromptMode};
    use nbhd_scene::{SceneGenerator, ViewKind};
    use nbhd_types::{Heading, ImageId, LocationId};
    use nbhd_vlm::{gemini_15_pro, ImageContext, SamplerParams, VisionModel};

    fn requests(n: u64) -> Vec<ModelRequest> {
        let generator = SceneGenerator::new(5);
        (0..n)
            .map(|loc| {
                let spec = generator.compose_raw(
                    ImageId::new(LocationId(loc), Heading::North),
                    Zoning::Urban,
                    RoadClass::Multilane,
                    ViewKind::AlongRoad,
                );
                ModelRequest {
                    context: ImageContext::from_scene(&spec, 5),
                    prompt: Arc::new(Prompt::build(Language::English, PromptMode::Parallel)),
                    params: SamplerParams::default(),
                }
            })
            .collect()
    }

    fn executor(faults: FaultProfile, config: ExecutorConfig) -> BatchExecutor {
        let transport = Arc::new(
            SimulatedTransport::new(VisionModel::new(gemini_15_pro(), 5), 9).with_faults(faults),
        );
        BatchExecutor::new(transport, config).with_pricing(0.001, 0.005)
    }

    #[test]
    fn results_preserve_request_order() {
        let e = executor(FaultProfile::NONE, ExecutorConfig::default());
        let reqs = requests(30);
        let expected: Vec<String> = reqs
            .iter()
            .map(|r| {
                VisionModel::new(gemini_15_pro(), 5).respond(&r.context, &r.prompt, &r.params)[0]
                    .clone()
            })
            .collect();
        let results = e.run(reqs);
        assert_eq!(results.len(), 30);
        for (res, exp) in results.iter().zip(expected) {
            assert_eq!(res.as_ref().unwrap().texts[0], exp);
        }
    }

    #[test]
    fn meter_records_all_successes() {
        let e = executor(FaultProfile::NONE, ExecutorConfig::default());
        let _ = e.run(requests(25));
        let usage = e.meter().usage("gemini-1.5-pro").unwrap();
        assert_eq!(usage.requests, 25);
        assert!(usage.usd > 0.0);
        assert!(usage.input_tokens > 25 * 768);
    }

    #[test]
    fn flaky_transport_mostly_recovers_via_retries() {
        let e = executor(
            FaultProfile {
                rate_limit: 0.15,
                timeout: 0.10,
                server_error: 0.05,
            },
            ExecutorConfig::default(),
        );
        let results = e.run(requests(60));
        let ok = results.iter().filter(|r| r.is_ok()).count();
        assert!(ok >= 55, "only {ok}/60 succeeded despite retries");
        let usage = e.meter().usage("gemini-1.5-pro").unwrap();
        assert!(usage.retries > 0, "retries should have occurred");
    }

    #[test]
    fn rate_limit_stretches_virtual_time() {
        let slow = executor(
            FaultProfile::NONE,
            ExecutorConfig {
                rate_limit: Some((1, 2.0)),
                ..ExecutorConfig::default()
            },
        );
        let _ = slow.run(requests(40));
        // 40 requests at 2/sec is at least ~19.5 virtual seconds of throttle
        assert!(
            slow.clock().now_ms() > 19_000,
            "virtual time {} ms",
            slow.clock().now_ms()
        );
    }

    #[test]
    fn failures_record_real_attempt_counts() {
        /// Always rejects with a non-retryable error: each request burns
        /// exactly one attempt, so zero retries must be recorded.
        struct Rejecting;
        impl Transport for Rejecting {
            fn model_name(&self) -> &str {
                "rejecting"
            }
            fn send(&self, _r: &ModelRequest) -> Result<ModelResponse, TransportError> {
                Err(TransportError::BadRequest("no".into()))
            }
        }
        let e = BatchExecutor::new(Arc::new(Rejecting), ExecutorConfig::default());
        let results = e.run(requests(12));
        assert!(results.iter().all(Result::is_err));
        let usage = e.meter().usage("rejecting").unwrap();
        assert_eq!(usage.failures, 12);
        assert_eq!(
            usage.retries, 0,
            "non-retryable failures must not be billed max_attempts retries"
        );
    }

    #[test]
    fn hedging_recovers_requests_within_one_attempt() {
        use std::sync::atomic::{AtomicU64, Ordering};
        /// Fails every odd call; hedge backups (the next call) succeed.
        struct Alternating(AtomicU64);
        impl Transport for Alternating {
            fn model_name(&self) -> &str {
                "alternating"
            }
            fn send(&self, _r: &ModelRequest) -> Result<ModelResponse, TransportError> {
                if self.0.fetch_add(1, Ordering::SeqCst).is_multiple_of(2) {
                    Err(TransportError::ServerError)
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
        let e = BatchExecutor::new(
            Arc::new(Alternating(AtomicU64::new(0))),
            ExecutorConfig {
                parallelism: Parallelism::serial(),
                rate_limit: None,
                hedge: Some(HedgePolicy::after_ms(10)),
                ..ExecutorConfig::default()
            },
        );
        let results = e.run(requests(8));
        assert!(results.iter().all(Result::is_ok));
        let usage = e.meter().usage("alternating").unwrap();
        assert_eq!(usage.requests, 8);
        assert_eq!(usage.retries, 0, "hedges rescue inside the first attempt");
        assert_eq!(usage.hedges_fired, 8);
        assert_eq!(usage.hedges_won, 8);
    }

    #[test]
    fn single_worker_still_completes() {
        let e = executor(
            FaultProfile::NONE,
            ExecutorConfig {
                parallelism: Parallelism::serial(),
                rate_limit: None,
                ..ExecutorConfig::default()
            },
        );
        let results = e.run(requests(10));
        assert!(results.iter().all(Result::is_ok));
    }
}
