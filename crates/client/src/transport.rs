//! The model-API transport abstraction and its simulated implementation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nbhd_prompt::Prompt;
use nbhd_types::rng::{child_seed_n, rng_from};
use nbhd_vlm::{ImageContext, SamplerParams, VisionModel};
use rand::Rng;

/// One vision-model request: an image context, a prompt plan, and sampler
/// parameters.
#[derive(Debug, Clone)]
pub struct ModelRequest {
    /// The image being asked about.
    pub context: ImageContext,
    /// The prompt plan (parallel or sequential, any language), shared by
    /// every request of a batch.
    pub prompt: Arc<Prompt>,
    /// Sampler parameters.
    pub params: SamplerParams,
}

/// A successful response.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelResponse {
    /// One raw text per prompt message.
    pub texts: Vec<String>,
    /// Simulated latency of the request, milliseconds.
    pub latency_ms: f64,
    /// Input tokens consumed (prompt + image).
    pub input_tokens: u64,
    /// Output tokens produced.
    pub output_tokens: u64,
}

/// Transport-level failures, mirroring real API error classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// 429: back off and retry.
    RateLimited {
        /// Suggested backoff from the server, milliseconds.
        retry_after_ms: u64,
    },
    /// The request timed out.
    Timeout,
    /// 5xx: transient server failure.
    ServerError,
    /// 4xx: the request itself is invalid; retrying cannot help.
    BadRequest(String),
    /// The per-model circuit breaker is open: the request failed fast
    /// without reaching the API. Retrying immediately cannot help — the
    /// breaker will keep rejecting until its cool-down elapses.
    CircuitOpen {
        /// Remaining cool-down, virtual milliseconds.
        retry_after_ms: u64,
    },
}

impl TransportError {
    /// Whether a retry can plausibly succeed.
    ///
    /// [`TransportError::CircuitOpen`] is deliberately non-retryable: the
    /// whole point of failing fast is not to burn the retry budget against
    /// a tripped breaker.
    pub fn is_retryable(&self) -> bool {
        !matches!(
            self,
            TransportError::BadRequest(_) | TransportError::CircuitOpen { .. }
        )
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::RateLimited { retry_after_ms } => {
                write!(f, "rate limited (retry after {retry_after_ms} ms)")
            }
            TransportError::Timeout => write!(f, "request timed out"),
            TransportError::ServerError => write!(f, "server error"),
            TransportError::BadRequest(m) => write!(f, "bad request: {m}"),
            TransportError::CircuitOpen { retry_after_ms } => {
                write!(f, "circuit open (cool-down {retry_after_ms} ms)")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Something that can answer model requests.
///
/// Object-safe so executors can hold heterogeneous transports.
pub trait Transport: Send + Sync {
    /// The model name this transport reaches.
    fn model_name(&self) -> &str;

    /// Sends one request.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportError`] on simulated (or real) API failure.
    fn send(&self, request: &ModelRequest) -> Result<ModelResponse, TransportError>;
}

/// Transient-failure injection rates for the simulated transport.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Fraction of attempts rejected with 429.
    pub rate_limit: f64,
    /// Fraction of attempts timing out.
    pub timeout: f64,
    /// Fraction of attempts failing with 5xx.
    pub server_error: f64,
}

impl FaultProfile {
    /// No injected faults.
    pub const NONE: FaultProfile = FaultProfile {
        rate_limit: 0.0,
        timeout: 0.0,
        server_error: 0.0,
    };

    /// A mildly flaky public API (~3% transient failures).
    pub const FLAKY: FaultProfile = FaultProfile {
        rate_limit: 0.015,
        timeout: 0.008,
        server_error: 0.007,
    };
}

/// A [`Transport`] backed by a simulated [`VisionModel`], with latency
/// modeling, token accounting, and fault injection. Distinct attempts see
/// distinct fault draws, so retries genuinely recover.
#[derive(Debug)]
pub struct SimulatedTransport {
    model: VisionModel,
    faults: FaultProfile,
    seed: u64,
    attempts: AtomicU64,
}

impl SimulatedTransport {
    /// Wraps a model with no fault injection.
    pub fn new(model: VisionModel, seed: u64) -> SimulatedTransport {
        SimulatedTransport {
            model,
            faults: FaultProfile::NONE,
            seed,
            attempts: AtomicU64::new(0),
        }
    }

    /// Sets the fault profile.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultProfile) -> SimulatedTransport {
        self.faults = faults;
        self
    }

    /// Total attempts observed (including failed ones).
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// Estimates token counts the way API billing does (~4 chars/token,
    /// plus a per-image vision surcharge).
    fn tokens(request: &ModelRequest, texts: &[String]) -> (u64, u64) {
        let prompt_chars: usize = request.prompt.messages.iter().map(|m| m.text.len()).sum();
        let image_tokens = 768u64; // vision models bill a fixed tile cost
        let input = image_tokens + (prompt_chars as u64).div_ceil(4);
        let output = (texts.iter().map(String::len).sum::<usize>() as u64).div_ceil(4);
        (input, output)
    }
}

impl Transport for SimulatedTransport {
    fn model_name(&self) -> &str {
        self.model.name()
    }

    fn send(&self, request: &ModelRequest) -> Result<ModelResponse, TransportError> {
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
        let mut rng = rng_from(child_seed_n(self.seed, "transport", attempt));

        // fault injection
        let roll: f64 = rng.random();
        if roll < self.faults.rate_limit {
            return Err(TransportError::RateLimited {
                retry_after_ms: rng.random_range(200..1500),
            });
        }
        if roll < self.faults.rate_limit + self.faults.timeout {
            return Err(TransportError::Timeout);
        }
        if roll < self.faults.rate_limit + self.faults.timeout + self.faults.server_error {
            return Err(TransportError::ServerError);
        }

        let texts = self
            .model
            .respond(&request.context, &request.prompt, &request.params);
        let base = self.model.profile().latency_ms;
        // latency: log-normal-ish around the profile mean
        let latency_ms = base * (0.6 + 0.8 * rng.random::<f64>()) + 40.0 * texts.len() as f64;
        let (input_tokens, output_tokens) = Self::tokens(request, &texts);
        Ok(ModelResponse {
            texts,
            latency_ms,
            input_tokens,
            output_tokens,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbhd_geo::{RoadClass, Zoning};
    use nbhd_prompt::{Language, PromptMode};
    use nbhd_scene::{SceneGenerator, ViewKind};
    use nbhd_types::{Heading, ImageId, LocationId};
    use nbhd_vlm::gemini_15_pro;

    fn request(loc: u64) -> ModelRequest {
        let spec = SceneGenerator::new(5).compose_raw(
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
    }

    #[test]
    fn clean_transport_always_succeeds() {
        let t = SimulatedTransport::new(VisionModel::new(gemini_15_pro(), 5), 1);
        for loc in 0..20 {
            let resp = t.send(&request(loc)).unwrap();
            assert_eq!(resp.texts.len(), 1);
            assert!(resp.latency_ms > 0.0);
            assert!(resp.input_tokens > 768);
            assert!(resp.output_tokens > 0);
        }
        assert_eq!(t.attempts(), 20);
    }

    #[test]
    fn faults_inject_at_roughly_configured_rate() {
        let t = SimulatedTransport::new(VisionModel::new(gemini_15_pro(), 5), 2).with_faults(
            FaultProfile {
                rate_limit: 0.2,
                timeout: 0.1,
                server_error: 0.1,
            },
        );
        let mut failures = 0usize;
        for loc in 0..300 {
            if t.send(&request(loc % 10)).is_err() {
                failures += 1;
            }
        }
        assert!(
            (80..=160).contains(&failures),
            "~40% of 300 should fail, got {failures}"
        );
    }

    #[test]
    fn retryability_classification() {
        assert!(TransportError::Timeout.is_retryable());
        assert!(TransportError::ServerError.is_retryable());
        assert!(TransportError::RateLimited { retry_after_ms: 1 }.is_retryable());
        assert!(!TransportError::BadRequest("nope".into()).is_retryable());
        assert!(!TransportError::CircuitOpen { retry_after_ms: 9 }.is_retryable());
    }

    #[test]
    fn retries_see_fresh_fault_draws() {
        let t = SimulatedTransport::new(VisionModel::new(gemini_15_pro(), 5), 3).with_faults(
            FaultProfile {
                rate_limit: 0.5,
                timeout: 0.0,
                server_error: 0.0,
            },
        );
        let req = request(1);
        let mut succeeded = false;
        for _ in 0..20 {
            if t.send(&req).is_ok() {
                succeeded = true;
                break;
            }
        }
        assert!(succeeded, "a retry should eventually get through");
    }
}
