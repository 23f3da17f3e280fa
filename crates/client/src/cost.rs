//! Cost and usage metering across models.

use std::collections::BTreeMap;

use nbhd_obs::{Histogram, MetricsRegistry};
use parking_lot::Mutex;

/// The one token-to-USD pricing rule for the whole workspace: tokens are
/// billed per thousand, input and output at their own rates, in this exact
/// floating-point fold order. Every biller — [`CostMeter::record_success`],
/// per-line tenant billing in `nbhd-serve` — must route through this
/// function so a future price-model change can never diverge tenant bills
/// from the meter.
pub fn token_cost_usd(
    input_tokens: u64,
    output_tokens: u64,
    usd_per_1k_input: f64,
    usd_per_1k_output: f64,
) -> f64 {
    input_tokens as f64 / 1000.0 * usd_per_1k_input
        + output_tokens as f64 / 1000.0 * usd_per_1k_output
}

/// Usage counters for one model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelUsage {
    /// Successful requests.
    pub requests: u64,
    /// Attempts beyond the first (retries).
    pub retries: u64,
    /// Requests that exhausted retries.
    pub failures: u64,
    /// Input tokens billed.
    pub input_tokens: u64,
    /// Output tokens billed.
    pub output_tokens: u64,
    /// Dollars spent.
    pub usd: f64,
    /// Summed request latency, milliseconds.
    pub latency_ms: f64,
    /// Requests rejected instantly by an open circuit breaker (a subset of
    /// [`ModelUsage::failures`]).
    pub fail_fast: u64,
    /// Hedge backup requests fired.
    pub hedges_fired: u64,
    /// Hedge backups whose answer won the race.
    pub hedges_won: u64,
    /// Total virtual milliseconds spent waiting in retry backoff.
    pub backoff_ms: u64,
}

impl ModelUsage {
    /// Mean latency per successful request; 0 when none.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.latency_ms / self.requests as f64
        }
    }
}

/// Thread-safe usage ledger keyed by model name.
///
/// A record takes the ledger lock (and, for a success, the histogram
/// lock) once, and finds its model by `&str`; only a model's first record
/// allocates its key.
///
/// ```
/// use nbhd_client::CostMeter;
/// let meter = CostMeter::new();
/// meter.record_success("gemini-1.5-pro", 1000, 50, 0.00125, 0.005, 900.0, 1);
/// let usage = meter.usage("gemini-1.5-pro").unwrap();
/// assert_eq!(usage.requests, 1);
/// assert!(usage.usd > 0.0);
/// assert!(meter.total_usd() > 0.0);
/// ```
#[derive(Debug, Default)]
pub struct CostMeter {
    ledger: Mutex<BTreeMap<String, ModelUsage>>,
    hists: Mutex<BTreeMap<String, ModelHists>>,
}

/// Per-model latency and token distributions, kept beside the ledger
/// (not inside [`ModelUsage`], which stays a `Copy` scalar bundle).
///
/// The latency histogram is deterministic even though request completion
/// order races: a histogram is order-independent, and for a fixed plan
/// and seed the *multiset* of simulated latency draws is worker-count
/// invariant — each draw is keyed by a global attempt index that every
/// schedule consumes exactly once per batch.
#[derive(Debug, Clone, Default, PartialEq)]
struct ModelHists {
    latency_ms: Histogram,
    input_tokens: Histogram,
    output_tokens: Histogram,
}

/// The entry for `model`, created on its first record. The model name is
/// copied into the map only then: every later record looks it up by
/// `&str` and allocates nothing.
fn slot<'a, T: Default>(map: &'a mut BTreeMap<String, T>, model: &str) -> &'a mut T {
    if !map.contains_key(model) {
        map.insert(model.to_owned(), T::default());
    }
    map.get_mut(model).expect("inserted above")
}

impl CostMeter {
    /// An empty meter.
    pub fn new() -> CostMeter {
        CostMeter::default()
    }

    /// Records a successful request.
    #[allow(clippy::too_many_arguments)]
    pub fn record_success(
        &self,
        model: &str,
        input_tokens: u64,
        output_tokens: u64,
        usd_per_1k_input: f64,
        usd_per_1k_output: f64,
        latency_ms: f64,
        attempts: u32,
    ) {
        {
            let mut ledger = self.ledger.lock();
            let u = slot(&mut ledger, model);
            u.requests += 1;
            u.retries += u64::from(attempts.saturating_sub(1));
            u.input_tokens += input_tokens;
            u.output_tokens += output_tokens;
            u.usd += token_cost_usd(
                input_tokens,
                output_tokens,
                usd_per_1k_input,
                usd_per_1k_output,
            );
            u.latency_ms += latency_ms;
        }
        let mut hists = self.hists.lock();
        let h = slot(&mut hists, model);
        h.latency_ms.record(latency_ms.round().max(0.0) as u64);
        h.input_tokens.record(input_tokens);
        h.output_tokens.record(output_tokens);
    }

    /// The per-request latency distribution for one model, or `None`
    /// when it has no successful requests yet.
    pub fn latency_hist(&self, model: &str) -> Option<Histogram> {
        self.hists.lock().get(model).map(|h| h.latency_ms.clone())
    }

    /// Records a request that exhausted its retries.
    pub fn record_failure(&self, model: &str, attempts: u32) {
        let mut ledger = self.ledger.lock();
        let u = slot(&mut ledger, model);
        u.failures += 1;
        u.retries += u64::from(attempts.saturating_sub(1));
    }

    /// Records a request rejected instantly by an open circuit breaker.
    /// Counts as a failure, but burns no retries and no server time.
    pub fn record_fail_fast(&self, model: &str) {
        let mut ledger = self.ledger.lock();
        let u = slot(&mut ledger, model);
        u.failures += 1;
        u.fail_fast += 1;
    }

    /// Adds hedging and backoff accounting for one request, successful or
    /// not. Kept separate from [`CostMeter::record_success`] so its widely
    /// used signature stays stable.
    pub fn record_resilience(
        &self,
        model: &str,
        hedges_fired: u32,
        hedges_won: u32,
        backoff_ms: u64,
    ) {
        if hedges_fired == 0 && hedges_won == 0 && backoff_ms == 0 {
            return;
        }
        let mut ledger = self.ledger.lock();
        let u = slot(&mut ledger, model);
        u.hedges_fired += u64::from(hedges_fired);
        u.hedges_won += u64::from(hedges_won);
        u.backoff_ms += backoff_ms;
    }

    /// Usage snapshot for one model.
    pub fn usage(&self, model: &str) -> Option<ModelUsage> {
        self.ledger.lock().get(model).copied()
    }

    /// Snapshot of all models' usage.
    pub fn snapshot(&self) -> BTreeMap<String, ModelUsage> {
        self.ledger.lock().clone()
    }

    /// Total dollars across models.
    pub fn total_usd(&self) -> f64 {
        self.ledger.lock().values().map(|u| u.usd).sum()
    }

    /// A one-line-per-model text report.
    ///
    /// Column widths are computed from the content, so long model names
    /// and 7+ digit token counts stay aligned instead of overflowing a
    /// fixed-width template.
    pub fn report(&self) -> String {
        const COLUMNS: usize = 9;
        const HEADERS: [&str; COLUMNS] = [
            "model",
            "requests",
            "retries",
            "failures",
            "fastfail",
            "hedges",
            "tokens(in/out)",
            "usd",
            "mean-latency",
        ];
        let ledger = self.ledger.lock();
        let rows: Vec<[String; COLUMNS]> = ledger
            .iter()
            .map(|(name, u)| {
                [
                    name.clone(),
                    u.requests.to_string(),
                    u.retries.to_string(),
                    u.failures.to_string(),
                    u.fail_fast.to_string(),
                    format!("{}/{}", u.hedges_fired, u.hedges_won),
                    format!("{}/{}", u.input_tokens, u.output_tokens),
                    format!("{:.4}", u.usd),
                    format!("{:.0} ms", u.mean_latency_ms()),
                ]
            })
            .collect();
        let mut widths: [usize; COLUMNS] = HEADERS.map(str::len);
        for row in &rows {
            for (width, cell) in widths.iter_mut().zip(row.iter()) {
                *width = (*width).max(cell.len());
            }
        }
        let render = |cells: &[String; COLUMNS]| -> String {
            let mut line = format!("{:<width$}", cells[0], width = widths[0]);
            for (cell, width) in cells.iter().zip(widths.iter()).skip(1) {
                line.push_str(&format!("  {cell:>width$}"));
            }
            line.push('\n');
            line
        };
        let mut out = render(&HEADERS.map(str::to_string));
        for row in &rows {
            out.push_str(&render(row));
        }
        out
    }

    /// Publishes the ledger into a run-scoped metrics registry.
    ///
    /// Integer counters land in the deterministic namespace as
    /// `client.<model>.<field>`; dollar and latency sums accumulate in
    /// completion order, so they land in the gauge namespace, outside
    /// the deterministic surface. Latency and token *distributions* land
    /// in the deterministic histogram namespace under the same
    /// `client.<model>.<field>` names (histograms are order-independent,
    /// so the racing completion order does not reach them). Publishing
    /// uses absolute `set` semantics and is idempotent.
    pub fn publish(&self, registry: &MetricsRegistry) {
        {
            let ledger = self.ledger.lock();
            for (name, u) in ledger.iter() {
                let key = |field: &str| format!("client.{name}.{field}");
                registry.set(&key("requests"), u.requests);
                registry.set(&key("retries"), u.retries);
                registry.set(&key("failures"), u.failures);
                registry.set(&key("fail_fast"), u.fail_fast);
                registry.set(&key("input_tokens"), u.input_tokens);
                registry.set(&key("output_tokens"), u.output_tokens);
                registry.set(&key("hedges_fired"), u.hedges_fired);
                registry.set(&key("hedges_won"), u.hedges_won);
                registry.set(&key("backoff_ms"), u.backoff_ms);
                registry.set_gauge(&key("usd"), u.usd);
                registry.set_gauge(&key("latency_ms"), u.latency_ms);
            }
        }
        let hists = self.hists.lock();
        for (name, h) in hists.iter() {
            let key = |field: &str| format!("client.{name}.{field}");
            registry.set_hist(&key("latency_ms"), h.latency_ms.clone());
            registry.set_hist(&key("input_tokens"), h.input_tokens.clone());
            registry.set_hist(&key("output_tokens"), h.output_tokens.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_model() {
        let m = CostMeter::new();
        m.record_success("a", 1000, 100, 0.001, 0.002, 500.0, 1);
        m.record_success("a", 1000, 100, 0.001, 0.002, 700.0, 3);
        m.record_success("b", 2000, 0, 0.01, 0.02, 100.0, 1);
        let a = m.usage("a").unwrap();
        assert_eq!(a.requests, 2);
        assert_eq!(a.retries, 2);
        assert!((a.usd - 2.0 * (0.001 + 0.0002)).abs() < 1e-12);
        assert!((a.mean_latency_ms() - 600.0).abs() < 1e-9);
        assert!((m.total_usd() - (a.usd + 0.02)).abs() < 1e-12);
    }

    #[test]
    fn failures_do_not_bill() {
        let m = CostMeter::new();
        m.record_failure("a", 4);
        let a = m.usage("a").unwrap();
        assert_eq!(a.failures, 1);
        assert_eq!(a.retries, 3);
        assert_eq!(a.usd, 0.0);
        assert_eq!(a.requests, 0);
        assert_eq!(a.mean_latency_ms(), 0.0);
    }

    #[test]
    fn report_lists_models() {
        let m = CostMeter::new();
        m.record_success("gemini", 10, 5, 0.1, 0.1, 1.0, 1);
        m.record_success("claude", 10, 5, 0.1, 0.1, 1.0, 1);
        let r = m.report();
        assert!(r.contains("gemini"));
        assert!(r.contains("claude"));
    }

    #[test]
    fn report_golden_output_for_long_names_and_wide_tokens() {
        let m = CostMeter::new();
        m.record_success(
            "a-very-long-model-name-v2.5-experimental", // 40 chars
            1_234_567,
            7_654_321,
            0.001,
            0.002,
            500.0,
            2,
        );
        m.record_failure("tiny", 3);
        m.record_fail_fast("tiny");
        m.record_resilience("tiny", 2, 1, 750);
        let report = m.report();
        // widths derived by hand from the content above: model 40,
        // requests 8, retries 7, failures 8, fastfail 8, hedges 6,
        // tokens(in/out) 15, usd 7, mean-latency 12
        let expected = format!(
            "{:<40}  {:>8}  {:>7}  {:>8}  {:>8}  {:>6}  {:>15}  {:>7}  {:>12}\n\
             {:<40}  {:>8}  {:>7}  {:>8}  {:>8}  {:>6}  {:>15}  {:>7}  {:>12}\n\
             {:<40}  {:>8}  {:>7}  {:>8}  {:>8}  {:>6}  {:>15}  {:>7}  {:>12}\n",
            "model",
            "requests",
            "retries",
            "failures",
            "fastfail",
            "hedges",
            "tokens(in/out)",
            "usd",
            "mean-latency",
            "a-very-long-model-name-v2.5-experimental",
            1,
            1,
            0,
            0,
            "0/0",
            "1234567/7654321",
            "16.5432",
            "500 ms",
            "tiny",
            0,
            2,
            2,
            1,
            "2/1",
            "0/0",
            "0.0000",
            "0 ms",
        );
        assert_eq!(report, expected);
        // the report is one aligned grid: every line has equal length
        let lens: Vec<usize> = report.lines().map(str::len).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{lens:?}");
    }

    #[test]
    fn publish_is_idempotent_and_splits_namespaces() {
        let m = CostMeter::new();
        m.record_success("gemini", 1000, 50, 0.00125, 0.005, 900.0, 2);
        m.record_resilience("gemini", 1, 1, 300);
        let registry = MetricsRegistry::new();
        m.publish(&registry);
        m.publish(&registry); // absolute set semantics: no double count
        let snap = registry.snapshot();
        assert_eq!(snap.counters["client.gemini.requests"], 1);
        assert_eq!(snap.counters["client.gemini.retries"], 1);
        assert_eq!(snap.counters["client.gemini.input_tokens"], 1000);
        assert_eq!(snap.counters["client.gemini.backoff_ms"], 300);
        assert!(!snap.counters.contains_key("client.gemini.usd"));
        let usd = snap.gauges["client.gemini.usd"];
        assert!((usd - 0.0015).abs() < 1e-9); // 1000/1k*0.00125 + 50/1k*0.005
        assert!(snap.gauges.contains_key("client.gemini.latency_ms"));
    }

    #[test]
    fn unknown_model_is_none() {
        let m = CostMeter::new();
        assert!(m.usage("nope").is_none());
        assert!(m.latency_hist("nope").is_none());
    }

    #[test]
    fn latency_and_token_hists_track_per_request_distributions() {
        let m = CostMeter::new();
        m.record_success("a", 1000, 100, 0.001, 0.002, 500.4, 1);
        m.record_success("a", 2000, 200, 0.001, 0.002, 699.6, 1);
        let lat = m.latency_hist("a").unwrap();
        assert_eq!(lat.count(), 2);
        assert_eq!(lat.min(), 500); // 500.4 rounds down
        assert_eq!(lat.max(), 700); // 699.6 rounds up
        let registry = MetricsRegistry::new();
        m.publish(&registry);
        m.publish(&registry); // set_hist semantics: no double count
        let snap = registry.snapshot();
        assert_eq!(snap.histograms["client.a.latency_ms"], lat);
        assert_eq!(snap.histograms["client.a.input_tokens"].sum(), 3000);
        assert_eq!(snap.histograms["client.a.output_tokens"].max(), 200);
        // same names exist as counters; the namespaces are independent
        assert_eq!(snap.counters["client.a.input_tokens"], 3000);
    }

    #[test]
    fn fail_fast_counts_as_failure_without_retries() {
        let m = CostMeter::new();
        m.record_fail_fast("a");
        m.record_fail_fast("a");
        let a = m.usage("a").unwrap();
        assert_eq!(a.failures, 2);
        assert_eq!(a.fail_fast, 2);
        assert_eq!(a.retries, 0);
        assert_eq!(a.usd, 0.0);
    }

    #[test]
    fn resilience_counters_accumulate() {
        let m = CostMeter::new();
        m.record_resilience("a", 2, 1, 750);
        m.record_resilience("a", 1, 0, 250);
        m.record_resilience("a", 0, 0, 0); // no-op
        let a = m.usage("a").unwrap();
        assert_eq!(a.hedges_fired, 3);
        assert_eq!(a.hedges_won, 1);
        assert_eq!(a.backoff_ms, 1000);
    }
}
