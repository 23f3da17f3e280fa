//! Scripted chaos fault schedules driven by the virtual clock.
//!
//! Where [`crate::FaultProfile`] models i.i.d. per-attempt faults, a
//! [`FaultSchedule`] scripts *regimes*: windows of virtual time during which
//! a model (or a correlated set of models) is fully down, browned out with
//! elevated 5xx rates and latency inflation, or drowning in 429s. A
//! [`ScheduledTransport`] applies the schedule on top of any inner
//! transport, so regimes compose with the base fault profile and all
//! existing behavior is preserved outside the scripted windows.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nbhd_types::rng::{child_seed_n, rng_from};
use rand::Rng;

use crate::{ModelRequest, ModelResponse, Transport, TransportError, VirtualClock};

/// What a scripted fault window does to requests inside it.
#[derive(Debug, Clone, PartialEq)]
pub enum RegimeKind {
    /// The model is fully down: every request fails with a 5xx.
    Outage,
    /// Sustained brownout: an elevated 5xx rate and inflated latency.
    Brownout {
        /// Probability a request fails with a 5xx.
        server_error: f64,
        /// Multiplier applied to successful responses' latency.
        latency_factor: f64,
    },
    /// A rate-limit storm: a fraction of requests bounce with 429.
    RateLimitStorm {
        /// Probability a request is rejected with 429.
        reject: f64,
        /// The `retry_after_ms` hint attached to rejections.
        retry_after_ms: u64,
    },
}

/// One timed fault regime: a half-open window `[start_ms, end_ms)` of
/// virtual time, the fault behavior inside it, and which models it hits.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRegime {
    /// Window start, virtual ms (inclusive).
    pub start_ms: u64,
    /// Window end, virtual ms (exclusive).
    pub end_ms: u64,
    /// Fault behavior inside the window.
    pub kind: RegimeKind,
    /// Model names the regime applies to; `None` hits every model, which
    /// scripts a cross-model correlated failure window.
    pub models: Option<Vec<String>>,
}

impl FaultRegime {
    /// A full outage window for every model.
    pub fn outage(start_ms: u64, end_ms: u64) -> FaultRegime {
        FaultRegime {
            start_ms,
            end_ms,
            kind: RegimeKind::Outage,
            models: None,
        }
    }

    /// A brownout window for every model.
    pub fn brownout(
        start_ms: u64,
        end_ms: u64,
        server_error: f64,
        latency_factor: f64,
    ) -> FaultRegime {
        FaultRegime {
            start_ms,
            end_ms,
            kind: RegimeKind::Brownout {
                server_error,
                latency_factor,
            },
            models: None,
        }
    }

    /// A rate-limit storm window for every model.
    pub fn rate_limit_storm(
        start_ms: u64,
        end_ms: u64,
        reject: f64,
        retry_after_ms: u64,
    ) -> FaultRegime {
        FaultRegime {
            start_ms,
            end_ms,
            kind: RegimeKind::RateLimitStorm {
                reject,
                retry_after_ms,
            },
            models: None,
        }
    }

    /// Restricts the regime to the named models.
    #[must_use]
    pub fn for_models(mut self, models: &[&str]) -> FaultRegime {
        self.models = Some(models.iter().map(|m| (*m).to_owned()).collect());
        self
    }

    /// Whether this regime is active for a model at a virtual time.
    pub fn applies_to(&self, model: &str, now_ms: u64) -> bool {
        if now_ms < self.start_ms || now_ms >= self.end_ms {
            return false;
        }
        match &self.models {
            None => true,
            Some(names) => names.iter().any(|n| n == model),
        }
    }
}

/// An ordered list of timed fault regimes.
///
/// When several regimes overlap for the same model, the first one listed
/// wins — schedules read top-down like a script.
///
/// ```
/// use nbhd_client::{FaultRegime, FaultSchedule, RegimeKind};
///
/// let schedule = FaultSchedule::new()
///     .with(FaultRegime::outage(10_000, 40_000).for_models(&["grok-2"]))
///     .with(FaultRegime::brownout(20_000, 30_000, 0.3, 2.5));
/// assert!(schedule.active_at("grok-2", 15_000).is_some());
/// assert!(schedule.active_at("claude-3.7", 15_000).is_none());
/// // inside the correlated brownout every model is hit
/// assert!(matches!(
///     schedule.active_at("claude-3.7", 25_000).unwrap().kind,
///     RegimeKind::Brownout { .. }
/// ));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    regimes: Vec<FaultRegime>,
}

impl FaultSchedule {
    /// An empty schedule (no scripted faults).
    pub fn new() -> FaultSchedule {
        FaultSchedule::default()
    }

    /// Appends a regime.
    #[must_use]
    pub fn with(mut self, regime: FaultRegime) -> FaultSchedule {
        self.regimes.push(regime);
        self
    }

    /// Whether the schedule scripts any regimes at all.
    pub fn is_empty(&self) -> bool {
        self.regimes.is_empty()
    }

    /// The scripted regimes, in priority order.
    pub fn regimes(&self) -> &[FaultRegime] {
        &self.regimes
    }

    /// The first regime active for `model` at `now_ms`, if any.
    pub fn active_at(&self, model: &str, now_ms: u64) -> Option<&FaultRegime> {
        self.regimes.iter().find(|r| r.applies_to(model, now_ms))
    }
}

/// How a [`ScheduledTransport`] keys its stochastic regime draws
/// (brownout 5xx, storm rejects).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DrawKeying {
    /// Key draws on a per-transport attempt counter (the default):
    /// retries of the same request see fresh i.i.d. draws, but the
    /// counter races under a parallel fan-out, so *which* request a
    /// fault lands on depends on scheduling.
    #[default]
    PerAttempt,
    /// Key draws on the request's image identity and the active regime's
    /// window start: a request's fault outcome is a pure function of
    /// `(seed, image, window)`, invariant under worker count and send
    /// order. Single-attempt callers that need fault outcomes on the
    /// deterministic surface (e.g. a serving layer that owns admission
    /// and retries itself) opt in via
    /// [`ScheduledTransport::with_image_keyed_draws`].
    PerImage,
}

/// A [`Transport`] decorator applying a [`FaultSchedule`] on top of an
/// inner transport, reading the shared virtual clock to decide which
/// regime (if any) governs each attempt.
///
/// Stochastic regime draws (brownout 5xx, storm rejects) derive from the
/// `u64` seed and, per [`DrawKeying`], either a per-attempt counter or
/// the request's image identity.
pub struct ScheduledTransport {
    inner: Arc<dyn Transport>,
    schedule: FaultSchedule,
    clock: Arc<VirtualClock>,
    seed: u64,
    keying: DrawKeying,
    attempts: AtomicU64,
}

impl ScheduledTransport {
    /// Wraps a transport with a schedule.
    pub fn new(
        inner: Arc<dyn Transport>,
        schedule: FaultSchedule,
        clock: Arc<VirtualClock>,
        seed: u64,
    ) -> ScheduledTransport {
        ScheduledTransport {
            inner,
            schedule,
            clock,
            seed,
            keying: DrawKeying::default(),
            attempts: AtomicU64::new(0),
        }
    }

    /// Switches regime draws to [`DrawKeying::PerImage`]: fault outcomes
    /// become a pure function of `(seed, image, regime window)`, so they
    /// stay identical at any worker count.
    #[must_use]
    pub fn with_image_keyed_draws(mut self) -> ScheduledTransport {
        self.keying = DrawKeying::PerImage;
        self
    }

    /// The seed governing one stochastic regime draw.
    fn draw_seed(&self, request: &ModelRequest, regime: &FaultRegime, attempt: u64) -> u64 {
        match self.keying {
            DrawKeying::PerAttempt => child_seed_n(self.seed, "schedule", attempt),
            DrawKeying::PerImage => child_seed_n(
                child_seed_n(self.seed, "schedule-image", request.context.image.key()),
                "window",
                regime.start_ms,
            ),
        }
    }

    /// Attempts that reached this layer — i.e. traffic that would have hit
    /// the real API, whether a regime shed it or the inner transport
    /// answered. This is the "wasted attempts against a dead model" number
    /// the circuit breaker is meant to cut.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }
}

impl Transport for ScheduledTransport {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn send(&self, request: &ModelRequest) -> Result<ModelResponse, TransportError> {
        let attempt = self.attempts.fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now_ms();
        let Some(regime) = self.schedule.active_at(self.inner.model_name(), now) else {
            return self.inner.send(request);
        };
        match &regime.kind {
            RegimeKind::Outage => Err(TransportError::ServerError),
            RegimeKind::RateLimitStorm {
                reject,
                retry_after_ms,
            } => {
                let mut rng = rng_from(self.draw_seed(request, regime, attempt));
                if rng.random::<f64>() < *reject {
                    Err(TransportError::RateLimited {
                        retry_after_ms: *retry_after_ms,
                    })
                } else {
                    self.inner.send(request)
                }
            }
            RegimeKind::Brownout {
                server_error,
                latency_factor,
            } => {
                let mut rng = rng_from(self.draw_seed(request, regime, attempt));
                if rng.random::<f64>() < *server_error {
                    Err(TransportError::ServerError)
                } else {
                    self.inner.send(request).map(|mut response| {
                        response.latency_ms *= latency_factor;
                        response
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimulatedTransport;
    use nbhd_geo::{RoadClass, Zoning};
    use nbhd_prompt::{Language, Prompt, PromptMode};
    use nbhd_scene::{SceneGenerator, ViewKind};
    use nbhd_types::{Heading, ImageId, LocationId};
    use nbhd_vlm::{gemini_15_pro, ImageContext, SamplerParams, VisionModel};

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

    fn scheduled(schedule: FaultSchedule, clock: &Arc<VirtualClock>) -> ScheduledTransport {
        let inner = Arc::new(SimulatedTransport::new(
            VisionModel::new(gemini_15_pro(), 5),
            7,
        ));
        ScheduledTransport::new(inner, schedule, Arc::clone(clock), 11)
    }

    #[test]
    fn outage_window_fails_everything_then_recovers() {
        let clock = Arc::new(VirtualClock::new());
        let t = scheduled(
            FaultSchedule::new().with(FaultRegime::outage(0, 10_000)),
            &clock,
        );
        for loc in 0..5 {
            assert_eq!(t.send(&request(loc)), Err(TransportError::ServerError));
        }
        clock.advance_ms(10_000);
        for loc in 0..5 {
            assert!(t.send(&request(loc)).is_ok(), "after the window");
        }
        assert_eq!(t.attempts(), 10);
    }

    #[test]
    fn outage_targets_only_named_models() {
        let clock = Arc::new(VirtualClock::new());
        let t = scheduled(
            FaultSchedule::new().with(FaultRegime::outage(0, u64::MAX).for_models(&["grok-2"])),
            &clock,
        );
        // the wrapped transport is gemini, so the grok regime never applies
        assert!(t.send(&request(0)).is_ok());
    }

    #[test]
    fn brownout_inflates_latency_and_injects_errors() {
        let clock = Arc::new(VirtualClock::new());
        let clean = scheduled(FaultSchedule::new(), &clock);
        let browned = scheduled(
            FaultSchedule::new().with(FaultRegime::brownout(0, u64::MAX, 0.4, 3.0)),
            &clock,
        );
        let mut failures = 0usize;
        let mut clean_latency = 0.0f64;
        let mut brown_latency = 0.0f64;
        let mut brown_ok = 0usize;
        for loc in 0..200 {
            clean_latency += clean.send(&request(loc % 10)).unwrap().latency_ms;
            match browned.send(&request(loc % 10)) {
                Ok(r) => {
                    brown_latency += r.latency_ms;
                    brown_ok += 1;
                }
                Err(e) => {
                    assert_eq!(e, TransportError::ServerError);
                    failures += 1;
                }
            }
        }
        assert!(
            (50..=110).contains(&failures),
            "~40% of 200 should fail, got {failures}"
        );
        let clean_mean = clean_latency / 200.0;
        let brown_mean = brown_latency / brown_ok as f64;
        assert!(
            brown_mean > clean_mean * 2.0,
            "brownout latency {brown_mean:.0} vs clean {clean_mean:.0}"
        );
    }

    #[test]
    fn storm_rejects_with_the_configured_hint() {
        let clock = Arc::new(VirtualClock::new());
        let t = scheduled(
            FaultSchedule::new().with(FaultRegime::rate_limit_storm(0, u64::MAX, 0.5, 1234)),
            &clock,
        );
        let mut rejected = 0usize;
        for loc in 0..200 {
            if let Err(e) = t.send(&request(loc % 10)) {
                assert_eq!(
                    e,
                    TransportError::RateLimited {
                        retry_after_ms: 1234
                    }
                );
                rejected += 1;
            }
        }
        assert!(
            (70..=130).contains(&rejected),
            "~50% of 200, got {rejected}"
        );
    }

    #[test]
    fn image_keyed_draws_are_send_order_invariant() {
        let clock = Arc::new(VirtualClock::new());
        let storm =
            || FaultSchedule::new().with(FaultRegime::rate_limit_storm(0, u64::MAX, 0.5, 500));
        let forward = scheduled(storm(), &clock).with_image_keyed_draws();
        let backward = scheduled(storm(), &clock).with_image_keyed_draws();
        let locs: Vec<u64> = (0..40).collect();
        let mut by_loc_forward = std::collections::BTreeMap::new();
        for &loc in &locs {
            by_loc_forward.insert(loc, forward.send(&request(loc)).is_ok());
        }
        // the same seed sees the same per-image outcomes in any send
        // order — this is what keeps scheduled faults on the
        // deterministic surface for single-attempt callers
        for &loc in locs.iter().rev() {
            assert_eq!(
                backward.send(&request(loc)).is_ok(),
                by_loc_forward[&loc],
                "image {loc} outcome must not depend on send order"
            );
        }
        let rejected = by_loc_forward.values().filter(|ok| !**ok).count();
        assert!(
            (10..=30).contains(&rejected),
            "~50% of 40 should bounce, got {rejected}"
        );
        // per-attempt keying keeps its historical racing behavior
        assert_eq!(scheduled(storm(), &clock).keying, DrawKeying::PerAttempt);
    }

    #[test]
    fn first_listed_regime_wins_overlaps() {
        let schedule = FaultSchedule::new()
            .with(FaultRegime::outage(0, 1_000))
            .with(FaultRegime::brownout(0, 1_000, 0.1, 2.0));
        assert_eq!(
            schedule.active_at("any", 500).unwrap().kind,
            RegimeKind::Outage
        );
        assert!(schedule.active_at("any", 1_000).is_none(), "end exclusive");
    }
}
