//! Deterministic fault injection for the simulated street-view service.
//!
//! A [`PoisonSchedule`] marks a seeded fraction of locations as *poison*:
//! their captures panic, compose corrupt scenes, or stall the shard. The
//! draw is keyed by [`LocationId`] — the same location is poisoned the same
//! way in every process, at any worker count, and across kill/resume — so
//! the shard supervisor's quarantine decisions are reproducible facts about
//! the run, not accidents of scheduling.
//!
//! # Examples
//!
//! ```
//! use nbhd_gsv::{PoisonKind, PoisonSchedule};
//! use nbhd_types::LocationId;
//!
//! let schedule = PoisonSchedule::new(7).with_panic_rate(0.5);
//! let a = schedule.draw(LocationId(3));
//! let b = schedule.draw(LocationId(3));
//! assert_eq!(a, b, "poison is a property of the location");
//! assert!(a.is_none() || a == Some(PoisonKind::Panic));
//! ```

use std::any::Any;

use nbhd_types::rng::{child_seed_n, splitmix64};
use nbhd_types::LocationId;
use serde::{Deserialize, Serialize};

/// What kind of fault a poisoned location injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoisonKind {
    /// The capture panics mid-flight, as a labeling/render bug would.
    Panic,
    /// The composed scene is corrupted and fails spec validation.
    Corrupt,
}

/// A seeded schedule of injected faults, keyed per location.
///
/// Rates are fractions in `[0, 1]`; panic and corrupt draws share one
/// uniform stream with disjoint ranges (a location is never both), while
/// stalls come from an independent stream and can coincide with either.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoisonSchedule {
    seed: u64,
    panic_rate: f64,
    corrupt_rate: f64,
    stall_rate: f64,
    stall_ms: u64,
}

impl PoisonSchedule {
    /// A schedule with all rates zero: injects nothing until configured.
    pub fn new(seed: u64) -> PoisonSchedule {
        PoisonSchedule {
            seed,
            panic_rate: 0.0,
            corrupt_rate: 0.0,
            stall_rate: 0.0,
            stall_ms: 0,
        }
    }

    /// Sets the fraction of locations whose captures panic.
    #[must_use]
    pub fn with_panic_rate(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the fraction of locations whose scenes compose corrupt.
    #[must_use]
    pub fn with_corrupt_rate(mut self, rate: f64) -> Self {
        self.corrupt_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the fraction of locations that stall for `stall_ms` of virtual
    /// time when captured.
    ///
    /// The service itself never advances any clock — the supervisor reads
    /// [`PoisonSchedule::stall_ms`] and charges the stall on its own
    /// virtual clock, so timing stays replay-invariant.
    #[must_use]
    pub fn with_stalls(mut self, rate: f64, stall_ms: u64) -> Self {
        self.stall_rate = rate.clamp(0.0, 1.0);
        self.stall_ms = stall_ms;
        self
    }

    /// The fault injected at this location, if any.
    pub fn draw(&self, location: LocationId) -> Option<PoisonKind> {
        let frac = unit_frac(self.seed, "poison", location);
        if frac < self.panic_rate {
            Some(PoisonKind::Panic)
        } else if frac < self.panic_rate + self.corrupt_rate {
            Some(PoisonKind::Corrupt)
        } else {
            None
        }
    }

    /// Virtual milliseconds this location's capture stalls for (0 for
    /// unstalled locations). Drawn from a stream independent of
    /// [`PoisonSchedule::draw`].
    pub fn stall_ms(&self, location: LocationId) -> u64 {
        if unit_frac(self.seed, "stall", location) < self.stall_rate {
            self.stall_ms
        } else {
            0
        }
    }

    /// The deterministic panic message for a poisoned location, so
    /// quarantine causes are stable strings across runs.
    pub fn panic_message(location: LocationId) -> String {
        format!("{INJECTED_PANIC_PREFIX}{}", location.0)
    }

    /// Whether a panic payload is one a poison schedule injected, i.e. a
    /// [`PoisonSchedule::panic_message`].
    pub fn is_injected_panic(payload: &(dyn Any + Send)) -> bool {
        payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .is_some_and(|message| message.starts_with(INJECTED_PANIC_PREFIX))
    }
}

/// The start of every [`PoisonSchedule::panic_message`].
const INJECTED_PANIC_PREFIX: &str = "injected poison at location ";

/// Installs a panic hook that prints nothing for injected poison panics
/// ([`PoisonSchedule::is_injected_panic`]) and passes every other panic to
/// the hook installed before it. Drills that inject panics on purpose call
/// it first, so their logs carry no message or backtrace per poisoned
/// capture; the supervisor still catches, retries and quarantines each one.
pub fn quiet_injected_panics() {
    let fallback = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !PoisonSchedule::is_injected_panic(info.payload()) {
            fallback(info);
        }
    }));
}

/// A uniform draw in `[0, 1)` keyed by `(seed, stream, location)`, using the
/// same construction as the service's coverage-gap draw.
fn unit_frac(seed: u64, stream: &str, location: LocationId) -> f64 {
    let h = splitmix64(child_seed_n(seed, stream, location.0));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_panics_are_told_from_other_panics() {
        let injected = PoisonSchedule::panic_message(LocationId(42));
        assert!(PoisonSchedule::is_injected_panic(&injected));
        assert!(PoisonSchedule::is_injected_panic(
            &"injected poison at location 7"
        ));
        for other in ["index out of bounds", "poison at location 7", ""] {
            assert!(!PoisonSchedule::is_injected_panic(&other));
            assert!(!PoisonSchedule::is_injected_panic(&other.to_owned()));
        }
        assert!(!PoisonSchedule::is_injected_panic(&42u64));
        // the payload of a real injected panic
        let payload =
            std::panic::catch_unwind(|| panic!("{}", PoisonSchedule::panic_message(LocationId(3))))
                .unwrap_err();
        assert!(PoisonSchedule::is_injected_panic(payload.as_ref()));
    }

    #[test]
    fn rates_partition_locations() {
        let schedule = PoisonSchedule::new(11)
            .with_panic_rate(0.05)
            .with_corrupt_rate(0.05);
        let mut panics = 0;
        let mut corrupt = 0;
        for i in 0..2_000u64 {
            match schedule.draw(LocationId(i)) {
                Some(PoisonKind::Panic) => panics += 1,
                Some(PoisonKind::Corrupt) => corrupt += 1,
                None => {}
            }
        }
        assert!((50..=150).contains(&panics), "~5% panics, got {panics}");
        assert!((50..=150).contains(&corrupt), "~5% corrupt, got {corrupt}");
    }

    #[test]
    fn draw_is_deterministic_per_location() {
        let a = PoisonSchedule::new(3)
            .with_panic_rate(0.3)
            .with_corrupt_rate(0.3);
        let b = PoisonSchedule::new(3)
            .with_panic_rate(0.3)
            .with_corrupt_rate(0.3);
        for i in 0..500u64 {
            assert_eq!(a.draw(LocationId(i)), b.draw(LocationId(i)));
            assert_eq!(a.stall_ms(LocationId(i)), b.stall_ms(LocationId(i)));
        }
    }

    #[test]
    fn stalls_are_independent_of_poison() {
        let schedule = PoisonSchedule::new(5).with_stalls(0.1, 250);
        let stalled = (0..2_000u64)
            .filter(|&i| schedule.stall_ms(LocationId(i)) > 0)
            .count();
        assert!(
            (120..=280).contains(&stalled),
            "~10% stalled, got {stalled}"
        );
        // no poison configured: stalls alone never fail a capture
        assert!((0..2_000u64).all(|i| schedule.draw(LocationId(i)).is_none()));
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let schedule = PoisonSchedule::new(9);
        for i in 0..200u64 {
            assert_eq!(schedule.draw(LocationId(i)), None);
            assert_eq!(schedule.stall_ms(LocationId(i)), 0);
        }
    }
}
