//! Per-model circuit breaking over the virtual clock.
//!
//! A [`CircuitBreaker`] tracks a rolling success/failure window and trips
//! Open when the observed failure rate crosses a threshold, so callers fail
//! fast with [`TransportError::CircuitOpen`] instead of burning retries
//! against a dead API. After a cool-down the breaker admits half-open
//! probes; a run of probe successes re-closes it, a probe failure re-opens
//! it. All timing is in virtual milliseconds, so tests are instantaneous
//! and deterministic.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{ModelRequest, ModelResponse, Transport, TransportError, VirtualClock};

/// Circuit-breaker tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Rolling window over which the failure rate is computed, virtual ms.
    pub window_ms: u64,
    /// Minimum events inside the window before the breaker may trip.
    pub min_samples: u32,
    /// Failure-rate threshold in `[0, 1]` that trips the breaker.
    pub failure_rate: f64,
    /// How long the breaker stays Open before admitting probes, virtual ms.
    pub cooldown_ms: u64,
    /// Consecutive half-open probe successes required to re-close.
    pub probe_count: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            window_ms: 30_000,
            min_samples: 8,
            failure_rate: 0.5,
            cooldown_ms: 15_000,
            probe_count: 3,
        }
    }
}

/// The breaker's coarse state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Serving normally; failures are being tallied.
    Closed,
    /// Failing fast; no requests reach the transport until cool-down.
    Open,
    /// Cool-down elapsed; probe requests are being admitted.
    HalfOpen,
}

impl std::fmt::Display for BreakerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BreakerState::Closed => write!(f, "closed"),
            BreakerState::Open => write!(f, "open"),
            BreakerState::HalfOpen => write!(f, "half-open"),
        }
    }
}

/// Per-edge state-transition counts: how often the breaker crossed each
/// edge of its state machine. `opened` alone says a backend failed;
/// `opened` climbing in lock-step with `reclosed` says it is *flapping* —
/// recovering just long enough to re-close, then tripping again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerTransitions {
    /// Closed → Open trips (the failure window crossed the threshold).
    pub opened: u64,
    /// Open → HalfOpen moves (cool-down elapsed, probes admitted).
    pub probed: u64,
    /// HalfOpen → Closed recoveries (enough probes succeeded).
    pub reclosed: u64,
    /// HalfOpen → Open re-trips (a probe failed).
    pub reopened: u64,
}

impl BreakerTransitions {
    /// Total transitions across all edges.
    pub fn total(&self) -> u64 {
        self.opened + self.probed + self.reclosed + self.reopened
    }

    /// Completed open→closed→open cycles — the flap count. A breaker
    /// that tripped once and stayed open has `opened == 1, flaps == 0`;
    /// one that keeps bouncing has `flaps ≈ opened`.
    pub fn flaps(&self) -> u64 {
        self.reclosed.min(self.opened.saturating_sub(1)) + self.reopened
    }
}

/// A point-in-time copy of the breaker's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// Current state.
    pub state: BreakerState,
    /// Virtual time at which the breaker last opened (0 if never).
    pub opened_at_ms: u64,
    /// Consecutive probe successes while half-open.
    pub probe_successes: u32,
    /// Total state transitions since construction.
    pub transitions: u64,
    /// Per-edge transition counts (which edges make up `transitions`).
    pub edges: BreakerTransitions,
    /// Requests rejected without reaching the transport.
    pub fail_fast: u64,
}

impl BreakerSnapshot {
    /// The counters a breaker publishes, as `(metric suffix, value)` pairs:
    /// total transitions, fail-fast rejections, each edge, and flaps.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        [
            ("transitions", self.transitions),
            ("fail_fast", self.fail_fast),
            ("opened", self.edges.opened),
            ("probed", self.edges.probed),
            ("reclosed", self.edges.reclosed),
            ("reopened", self.edges.reopened),
            ("flaps", self.edges.flaps()),
        ]
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    opened_at_ms: u64,
    probe_successes: u32,
    events: VecDeque<(u64, bool)>,
    transitions: u64,
    edges: BreakerTransitions,
    fail_fast: u64,
}

/// A Closed/Open/HalfOpen state machine over a rolling failure window.
///
/// ```
/// use std::sync::Arc;
/// use nbhd_client::{BreakerConfig, BreakerState, CircuitBreaker, VirtualClock};
///
/// let clock = Arc::new(VirtualClock::new());
/// let config = BreakerConfig { min_samples: 2, probe_count: 1, ..BreakerConfig::default() };
/// let breaker = CircuitBreaker::new(config, clock.clone());
/// breaker.try_acquire().unwrap();
/// breaker.record(false);
/// breaker.try_acquire().unwrap();
/// breaker.record(false);
/// assert_eq!(breaker.snapshot().state, BreakerState::Open);
/// let wait = breaker.try_acquire().unwrap_err(); // failing fast
/// clock.advance_ms(wait);
/// breaker.try_acquire().unwrap(); // half-open probe admitted
/// breaker.record(true);
/// assert_eq!(breaker.snapshot().state, BreakerState::Closed);
/// ```
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    clock: Arc<VirtualClock>,
    inner: Mutex<BreakerInner>,
}

impl CircuitBreaker {
    /// Creates a closed breaker.
    pub fn new(config: BreakerConfig, clock: Arc<VirtualClock>) -> CircuitBreaker {
        CircuitBreaker {
            config,
            clock,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                opened_at_ms: 0,
                probe_successes: 0,
                events: VecDeque::new(),
                transitions: 0,
                edges: BreakerTransitions::default(),
                fail_fast: 0,
            }),
        }
    }

    /// Asks permission to send one request.
    ///
    /// While Open and inside the cool-down this fails fast. Once the
    /// cool-down elapses the breaker moves to HalfOpen and admits probes.
    ///
    /// # Errors
    ///
    /// Returns the remaining cool-down in virtual milliseconds.
    pub fn try_acquire(&self) -> Result<(), u64> {
        let now = self.clock.now_ms();
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open => {
                let reopen_at = inner.opened_at_ms.saturating_add(self.config.cooldown_ms);
                if now >= reopen_at {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_successes = 0;
                    inner.transitions += 1;
                    inner.edges.probed += 1;
                    Ok(())
                } else {
                    inner.fail_fast += 1;
                    Err(reopen_at - now)
                }
            }
        }
    }

    /// Reports the outcome of an admitted request.
    pub fn record(&self, ok: bool) {
        let now = self.clock.now_ms();
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.events.push_back((now, ok));
                let horizon = now.saturating_sub(self.config.window_ms);
                while inner.events.front().is_some_and(|(t, _)| *t < horizon) {
                    inner.events.pop_front();
                }
                let total = inner.events.len() as u32;
                let failures = inner.events.iter().filter(|(_, ok)| !ok).count();
                if total >= self.config.min_samples.max(1)
                    && failures as f64 / f64::from(total) >= self.config.failure_rate
                {
                    inner.state = BreakerState::Open;
                    inner.opened_at_ms = now;
                    inner.transitions += 1;
                    inner.edges.opened += 1;
                    inner.events.clear();
                }
            }
            BreakerState::HalfOpen => {
                if ok {
                    inner.probe_successes += 1;
                    if inner.probe_successes >= self.config.probe_count.max(1) {
                        inner.state = BreakerState::Closed;
                        inner.transitions += 1;
                        inner.edges.reclosed += 1;
                        inner.events.clear();
                    }
                } else {
                    inner.state = BreakerState::Open;
                    inner.opened_at_ms = now;
                    inner.transitions += 1;
                    inner.edges.reopened += 1;
                }
            }
            // A late result from a request admitted before the trip: the
            // breaker already decided, so it carries no information.
            BreakerState::Open => {}
        }
    }

    /// The breaker's current state.
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// A full bookkeeping snapshot (state, transitions, fail-fast count).
    pub fn snapshot(&self) -> BreakerSnapshot {
        let inner = self.inner.lock();
        BreakerSnapshot {
            state: inner.state,
            opened_at_ms: inner.opened_at_ms,
            probe_successes: inner.probe_successes,
            transitions: inner.transitions,
            edges: inner.edges,
            fail_fast: inner.fail_fast,
        }
    }
}

/// A [`Transport`] decorator that runs every request through a
/// [`CircuitBreaker`].
///
/// While the breaker is Open, requests fail fast with
/// [`TransportError::CircuitOpen`] without touching the wrapped transport.
/// [`TransportError::BadRequest`] does not count against the breaker: a
/// malformed request says nothing about the service's health.
pub struct BreakerTransport {
    inner: Arc<dyn Transport>,
    breaker: CircuitBreaker,
}

impl BreakerTransport {
    /// Wraps a transport with a fresh breaker.
    pub fn new(
        inner: Arc<dyn Transport>,
        config: BreakerConfig,
        clock: Arc<VirtualClock>,
    ) -> BreakerTransport {
        BreakerTransport {
            inner,
            breaker: CircuitBreaker::new(config, clock),
        }
    }

    /// The wrapped breaker, for state inspection and health reporting.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }
}

impl Transport for BreakerTransport {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn send(&self, request: &ModelRequest) -> Result<ModelResponse, TransportError> {
        if let Err(retry_after_ms) = self.breaker.try_acquire() {
            return Err(TransportError::CircuitOpen { retry_after_ms });
        }
        let result = self.inner.send(request);
        match &result {
            Ok(_) => self.breaker.record(true),
            Err(TransportError::BadRequest(_)) => {}
            Err(_) => self.breaker.record(false),
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breaker(clock: &Arc<VirtualClock>) -> CircuitBreaker {
        CircuitBreaker::new(
            BreakerConfig {
                window_ms: 10_000,
                min_samples: 4,
                failure_rate: 0.5,
                cooldown_ms: 5_000,
                probe_count: 2,
            },
            Arc::clone(clock),
        )
    }

    #[test]
    fn trips_at_failure_rate_threshold() {
        let clock = Arc::new(VirtualClock::new());
        let b = breaker(&clock);
        for _ in 0..3 {
            b.record(false);
            assert_eq!(b.state(), BreakerState::Closed, "below min samples");
        }
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.try_acquire().is_err());
        assert_eq!(b.snapshot().fail_fast, 1);
    }

    #[test]
    fn successes_keep_it_closed() {
        let clock = Arc::new(VirtualClock::new());
        let b = breaker(&clock);
        for i in 0..40 {
            b.record(i % 4 == 0); // 75% failures... inverted: 25% success
        }
        // 75% failure rate trips it
        assert_eq!(b.state(), BreakerState::Open);

        let healthy = breaker(&clock);
        for i in 0..40 {
            healthy.record(i % 4 != 0); // 25% failures: below the 50% bar
        }
        assert_eq!(healthy.state(), BreakerState::Closed);
    }

    #[test]
    fn cooldown_then_probes_reclose() {
        let clock = Arc::new(VirtualClock::new());
        let b = breaker(&clock);
        for _ in 0..4 {
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let wait = b.try_acquire().unwrap_err();
        assert_eq!(wait, 5_000);
        clock.advance_ms(wait);
        b.try_acquire().unwrap();
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record(true);
        assert_eq!(b.state(), BreakerState::HalfOpen, "one probe is not enough");
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn probe_failure_reopens() {
        let clock = Arc::new(VirtualClock::new());
        let b = breaker(&clock);
        for _ in 0..4 {
            b.record(false);
        }
        clock.advance_ms(5_000);
        b.try_acquire().unwrap();
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        // the cool-down restarts from the re-open
        assert!(b.try_acquire().is_err());
    }

    #[test]
    fn edge_counts_decompose_transitions_and_expose_flapping() {
        let clock = Arc::new(VirtualClock::new());
        let b = breaker(&clock);
        // Two full flap cycles: trip, cool down, probe back to closed.
        for _ in 0..2 {
            for _ in 0..4 {
                b.record(false);
            }
            assert_eq!(b.state(), BreakerState::Open);
            clock.advance_ms(5_000);
            b.try_acquire().unwrap();
            b.record(true);
            b.record(true);
            assert_eq!(b.state(), BreakerState::Closed);
        }
        // Third trip ends with a failed probe: HalfOpen → Open.
        for _ in 0..4 {
            b.record(false);
        }
        clock.advance_ms(5_000);
        b.try_acquire().unwrap();
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);

        let snap = b.snapshot();
        let edges = snap.edges;
        assert_eq!(edges.opened, 3);
        assert_eq!(edges.probed, 3);
        assert_eq!(edges.reclosed, 2);
        assert_eq!(edges.reopened, 1);
        assert_eq!(edges.total(), snap.transitions);
        // Two completed open→closed cycles plus one failed probe.
        assert_eq!(edges.flaps(), 3);

        // A breaker that tripped once and stayed open is not flapping.
        let once = breaker(&clock);
        for _ in 0..4 {
            once.record(false);
        }
        assert_eq!(once.snapshot().edges.opened, 1);
        assert_eq!(once.snapshot().edges.flaps(), 0);
    }

    #[test]
    fn old_events_age_out_of_the_window() {
        let clock = Arc::new(VirtualClock::new());
        let b = breaker(&clock);
        for _ in 0..3 {
            b.record(false);
        }
        // let the failures age out, then a mixed recent history stays closed
        clock.advance_ms(20_000);
        for _ in 0..3 {
            b.record(true);
        }
        b.record(false);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_transport_fails_fast_when_open() {
        use crate::FaultProfile;
        use nbhd_geo::{RoadClass, Zoning};
        use nbhd_prompt::{Language, Prompt, PromptMode};
        use nbhd_scene::{SceneGenerator, ViewKind};
        use nbhd_types::{Heading, ImageId, LocationId};
        use nbhd_vlm::{gemini_15_pro, ImageContext, SamplerParams, VisionModel};

        let clock = Arc::new(VirtualClock::new());
        let dead = Arc::new(
            crate::SimulatedTransport::new(VisionModel::new(gemini_15_pro(), 1), 1).with_faults(
                FaultProfile {
                    rate_limit: 0.0,
                    timeout: 0.0,
                    server_error: 1.0,
                },
            ),
        );
        let wrapped = BreakerTransport::new(
            dead.clone(),
            BreakerConfig {
                min_samples: 3,
                cooldown_ms: 60_000,
                ..BreakerConfig::default()
            },
            Arc::clone(&clock),
        );
        let spec = SceneGenerator::new(1).compose_raw(
            ImageId::new(LocationId(0), Heading::North),
            Zoning::Urban,
            RoadClass::Multilane,
            ViewKind::AlongRoad,
        );
        let request = ModelRequest {
            context: ImageContext::from_scene(&spec, 1),
            prompt: Arc::new(Prompt::build(Language::English, PromptMode::Parallel)),
            params: SamplerParams::default(),
        };
        for _ in 0..20 {
            let _ = wrapped.send(&request);
        }
        assert_eq!(wrapped.breaker().state(), BreakerState::Open);
        // only the pre-trip attempts reached the dead API
        assert_eq!(dead.attempts(), 3);
        assert!(matches!(
            wrapped.send(&request),
            Err(TransportError::CircuitOpen { .. })
        ));
    }
}
