//! Usage accounting for the imagery service.

use nbhd_obs::MetricsRegistry;

/// Counters for imagery-service usage: requests, billed fetches, cache hits,
/// and accumulated fees.
///
/// ```
/// use nbhd_gsv::UsageMeter;
/// let m = UsageMeter::default();
/// assert_eq!(m.requests, 0);
/// assert_eq!(m.fees_usd, 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageMeter {
    /// Total requests received (including cache hits and failures).
    pub requests: u64,
    /// Requests that rendered fresh imagery and were billed.
    pub billed_images: u64,
    /// Requests for an already-billed scene: served again, not billed.
    pub cache_hits: u64,
    /// Accumulated fees in USD.
    pub fees_usd: f64,
}

impl UsageMeter {
    /// Fraction of requests served from cache, 0 when no requests were made.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }

    /// Publishes the meter into a run-scoped metrics registry under the
    /// `gsv.` namespace. Request/billing/cache counts are deterministic
    /// counters; accumulated fees are a gauge (floating point stays off
    /// the byte-compared surface). Absolute `set` semantics: idempotent.
    pub fn publish(&self, registry: &MetricsRegistry) {
        registry.set("gsv.requests", self.requests);
        registry.set("gsv.billed_images", self.billed_images);
        registry.set("gsv.cache_hits", self.cache_hits);
        registry.set_gauge("gsv.fees_usd", self.fees_usd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_splits_counters_from_fee_gauge() {
        let m = UsageMeter {
            requests: 10,
            billed_images: 6,
            cache_hits: 4,
            fees_usd: 0.042,
        };
        let registry = MetricsRegistry::new();
        m.publish(&registry);
        m.publish(&registry); // idempotent: absolute set, no double count
        let snap = registry.snapshot();
        assert_eq!(snap.counters["gsv.requests"], 10);
        assert_eq!(snap.counters["gsv.billed_images"], 6);
        assert_eq!(snap.counters["gsv.cache_hits"], 4);
        assert!(!snap.counters.contains_key("gsv.fees_usd"));
        assert!((snap.gauges["gsv.fees_usd"] - 0.042).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_handles_zero() {
        assert_eq!(UsageMeter::default().cache_hit_rate(), 0.0);
        let m = UsageMeter {
            requests: 4,
            cache_hits: 1,
            ..Default::default()
        };
        assert!((m.cache_hit_rate() - 0.25).abs() < 1e-12);
    }
}
