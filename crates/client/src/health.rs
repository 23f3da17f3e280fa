//! Per-model health aggregation: availability, breaker activity, and
//! resilience counters, rendered as an aligned text table.

use crate::{BreakerSnapshot, ModelUsage};

/// One model's health over a run, combining cost-meter usage with the
/// member's circuit-breaker bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelHealth {
    /// Model name.
    pub model: String,
    /// Usage counters from the [`crate::CostMeter`].
    pub usage: ModelUsage,
    /// The member's breaker snapshot.
    pub breaker: BreakerSnapshot,
}

impl ModelHealth {
    /// Fraction of requests answered, in `[0, 1]`; `1.0` with no traffic.
    pub fn availability(&self) -> f64 {
        let total = self.usage.requests + self.usage.failures;
        if total == 0 {
            1.0
        } else {
            self.usage.requests as f64 / total as f64
        }
    }
}

/// A whole-ensemble health report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// Per-model health, in ensemble member order.
    pub models: Vec<ModelHealth>,
}

impl HealthReport {
    /// Renders the report as an aligned text table, one line per model:
    /// availability, final breaker state, transitions, flaps (completed
    /// trip/recover cycles), retries, fail-fast rejections, hedges fired
    /// over won, and retry backoff.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("{title}\n");
        out.push_str(&format!(
            "{:<22} {:>7} {:>10} {:>6} {:>6} {:>8} {:>9} {:>9} {:>11}\n",
            "Model",
            "Avail",
            "Breaker",
            "Trans",
            "Flaps",
            "Retries",
            "FailFast",
            "Hedges",
            "Backoff"
        ));
        for m in &self.models {
            out.push_str(&format!(
                "{:<22} {:>6.1}% {:>10} {:>6} {:>6} {:>8} {:>9} {:>5}/{:<3} {:>8} ms\n",
                m.model,
                m.availability() * 100.0,
                m.breaker.state.to_string(),
                m.breaker.transitions,
                m.breaker.edges.flaps(),
                m.usage.retries,
                m.usage.fail_fast,
                m.usage.hedges_fired,
                m.usage.hedges_won,
                m.usage.backoff_ms
            ));
        }
        out
    }

    /// The worst availability across models; `1.0` when empty.
    pub fn min_availability(&self) -> f64 {
        self.models
            .iter()
            .map(ModelHealth::availability)
            .fold(1.0, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BreakerState;

    fn health(model: &str, requests: u64, failures: u64) -> ModelHealth {
        ModelHealth {
            model: model.into(),
            usage: ModelUsage {
                requests,
                failures,
                ..ModelUsage::default()
            },
            breaker: BreakerSnapshot {
                state: BreakerState::Closed,
                opened_at_ms: 0,
                probe_successes: 0,
                transitions: 0,
                edges: crate::BreakerTransitions::default(),
                fail_fast: 0,
            },
        }
    }

    #[test]
    fn availability_is_answered_fraction() {
        assert!((health("a", 90, 10).availability() - 0.9).abs() < 1e-12);
        assert_eq!(health("b", 0, 0).availability(), 1.0, "no traffic");
        assert_eq!(health("c", 0, 5).availability(), 0.0);
    }

    #[test]
    fn report_renders_every_model() {
        let report = HealthReport {
            models: vec![health("gemini", 100, 0), health("grok", 5, 95)],
        };
        let text = report.render("Ensemble health");
        assert!(text.contains("Ensemble health"));
        assert!(text.contains("gemini"));
        assert!(text.contains("grok"));
        assert!((report.min_availability() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn health_table_lists_every_model() {
        let mut grok = health("grok-2", 35, 245);
        grok.usage.retries = 40;
        grok.usage.fail_fast = 120;
        grok.usage.hedges_fired = 5;
        grok.usage.hedges_won = 1;
        grok.usage.backoff_ms = 90_000;
        grok.breaker.state = BreakerState::Open;
        grok.breaker.transitions = 5;
        grok.breaker.edges = crate::BreakerTransitions {
            opened: 2,
            probed: 2,
            reclosed: 1,
            reopened: 0,
        };
        let report = HealthReport {
            models: vec![health("gemini-1.5-pro", 280, 0), grok],
        };
        let text = report.render("Health");
        assert_eq!(
            text,
            "Health\n\
             Model                    Avail    Breaker  Trans  Flaps  Retries  FailFast    Hedges     Backoff\n\
             gemini-1.5-pro          100.0%     closed      0      0        0         0     0/0          0 ms\n\
             grok-2                   12.5%       open      5      1       40       120     5/1      90000 ms\n"
        );
    }
}
