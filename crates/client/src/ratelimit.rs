//! Token-bucket rate limiting over a virtual clock.
//!
//! The executor accounts for time virtually (no real sleeping), so tests
//! and benchmarks of the rate limiter are instantaneous and deterministic.
//!
//! The clock itself lives in `nbhd-obs` (it is the run-wide time source
//! for span tracing too); it is re-exported here so client callers keep
//! their `nbhd_client::VirtualClock` spelling.

use std::sync::Arc;

use parking_lot::Mutex;

pub use nbhd_obs::VirtualClock;

/// A token bucket: `capacity` burst, refilled at `refill_per_sec`.
///
/// ```
/// use std::sync::Arc;
/// use nbhd_client::{TokenBucket, VirtualClock};
///
/// let clock = Arc::new(VirtualClock::new());
/// let bucket = TokenBucket::new(2, 1.0, clock.clone());
/// assert_eq!(bucket.try_acquire(), Ok(()));
/// assert_eq!(bucket.try_acquire(), Ok(()));
/// assert!(bucket.try_acquire().is_err()); // burst exhausted
/// clock.advance_ms(1000);
/// assert_eq!(bucket.try_acquire(), Ok(())); // one token refilled
/// ```
#[derive(Debug)]
pub struct TokenBucket {
    capacity: f64,
    refill_per_sec: f64,
    clock: Arc<VirtualClock>,
    state: Mutex<BucketState>,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last_ms: u64,
}

impl TokenBucket {
    /// Creates a full bucket.
    ///
    /// # Panics
    ///
    /// Panics when capacity is zero or the refill rate is non-positive.
    pub fn new(capacity: u32, refill_per_sec: f64, clock: Arc<VirtualClock>) -> TokenBucket {
        assert!(capacity > 0, "capacity must be positive");
        assert!(refill_per_sec > 0.0, "refill rate must be positive");
        TokenBucket {
            capacity: capacity as f64,
            refill_per_sec,
            state: Mutex::new(BucketState {
                tokens: capacity as f64,
                last_ms: clock.now_ms(),
            }),
            clock,
        }
    }

    /// Credits the tokens accrued since `last_ms`. Reads the clock
    /// *under the state lock* so a credit can never miss an advance paid
    /// by another thread holding the lock.
    fn refill(&self, state: &mut BucketState) {
        let now = self.clock.now_ms();
        if now > state.last_ms {
            let elapsed = (now - state.last_ms) as f64 / 1000.0;
            state.tokens = (state.tokens + elapsed * self.refill_per_sec).min(self.capacity);
            state.last_ms = now;
        }
    }

    /// Attempts to take one token.
    ///
    /// # Errors
    ///
    /// Returns the number of milliseconds until a token will be available.
    pub fn try_acquire(&self) -> Result<(), u64> {
        let mut state = self.state.lock();
        self.refill(&mut state);
        if state.tokens >= 1.0 {
            state.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - state.tokens;
            Err((deficit / self.refill_per_sec * 1000.0).ceil() as u64)
        }
    }

    /// Acquires a token, advancing the virtual clock through any waits.
    ///
    /// The wait is serialized through the bucket state: the whole
    /// refill-or-pay loop runs under the state lock, so exactly one
    /// waiter advances the clock for each token deficit while the
    /// others block on the lock and then re-check a refilled bucket.
    /// (Previously every concurrent waiter charged its own full wait to
    /// the shared clock, so N waiters paid ~N× the virtual time a
    /// serial run pays for the same acquisitions.)
    pub fn acquire_blocking(&self) {
        let mut state = self.state.lock();
        loop {
            self.refill(&mut state);
            if state.tokens >= 1.0 {
                state.tokens -= 1.0;
                return;
            }
            let deficit = 1.0 - state.tokens;
            let wait_ms = ((deficit / self.refill_per_sec * 1000.0).ceil() as u64).max(1);
            self.clock.advance_ms(wait_ms);
            // looping refills from the advanced clock; concurrent
            // advances by other clock users are credited too
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_rate_is_bounded_by_refill() {
        let clock = Arc::new(VirtualClock::new());
        let bucket = TokenBucket::new(5, 10.0, clock.clone());
        // drain 100 tokens via blocking acquire; virtual time must cover
        // (100 - burst) / rate = 9.5 seconds
        for _ in 0..100 {
            bucket.acquire_blocking();
        }
        let elapsed = clock.now_ms();
        assert!(elapsed >= 9_400, "elapsed {elapsed} ms");
        assert!(elapsed <= 11_000, "elapsed {elapsed} ms");
    }

    #[test]
    fn concurrent_waiters_pay_each_deficit_once() {
        // the multi-worker twin of sustained_rate_is_bounded_by_refill:
        // 100 acquisitions spread over 4 workers must charge exactly the
        // serial bound of virtual time, not ~4x it (the old bug: every
        // waiter advanced the shared clock by its own wait)
        let serial_elapsed = {
            let clock = Arc::new(VirtualClock::new());
            let bucket = TokenBucket::new(5, 10.0, clock.clone());
            for _ in 0..100 {
                bucket.acquire_blocking();
            }
            clock.now_ms()
        };
        let parallel_elapsed = {
            let clock = Arc::new(VirtualClock::new());
            let bucket = TokenBucket::new(5, 10.0, clock.clone());
            let items: Vec<u32> = (0..100).collect();
            let pool = nbhd_exec::ScopedPool::new(nbhd_exec::Parallelism::fixed(4));
            let _ = pool.map(&items, |_| bucket.acquire_blocking());
            clock.now_ms()
        };
        assert_eq!(
            parallel_elapsed, serial_elapsed,
            "4 workers must charge the serial virtual-time bound"
        );
        assert!(serial_elapsed >= 9_400, "elapsed {serial_elapsed} ms");
        assert!(serial_elapsed <= 11_000, "elapsed {serial_elapsed} ms");
    }

    #[test]
    fn wait_hint_is_accurate() {
        let clock = Arc::new(VirtualClock::new());
        let bucket = TokenBucket::new(1, 2.0, clock.clone());
        bucket.try_acquire().unwrap();
        let wait = bucket.try_acquire().unwrap_err();
        assert!((450..=550).contains(&wait), "wait {wait} ms for 2/sec");
        clock.advance_ms(wait);
        assert!(bucket.try_acquire().is_ok());
    }

    #[test]
    fn bucket_never_exceeds_capacity() {
        let clock = Arc::new(VirtualClock::new());
        let bucket = TokenBucket::new(3, 100.0, clock.clone());
        clock.advance_ms(60_000);
        // after a long idle period, only `capacity` tokens are available
        assert!(bucket.try_acquire().is_ok());
        assert!(bucket.try_acquire().is_ok());
        assert!(bucket.try_acquire().is_ok());
        assert!(bucket.try_acquire().is_err());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = TokenBucket::new(0, 1.0, Arc::new(VirtualClock::new()));
    }
}
