//! Declarative perf budgets: the one gate over a [`RunArtifact`].
//!
//! A [`BudgetSpec`] is a serde-able list of ceilings and floors
//! (per-stage virtual duration, histogram p50/p99, counter min/max,
//! coverage fraction, gauge and USD cost ceilings) that
//! [`BudgetSpec::evaluate`] checks against any single artifact,
//! producing a typed [`BudgetReport`] of per-rule [`RuleVerdict`]s and
//! the subset that failed as [`BudgetViolation`]s. The run-vs-run gate
//! is the same engine: [`diff`] evaluates the current artifact against
//! the spec derived from the baseline at `1.0`× headroom.
//!
//! Three contracts:
//!
//! * **Unmatched rules are violations.** A rule naming a stage, counter,
//!   histogram, or gauge the artifact does not carry fails with
//!   [`BudgetViolationKind::Unmatched`] — so renaming a span can never
//!   silently pass its budget. Likewise [`BudgetRule::CoverageMin`]
//!   against an artifact with no coverage section is unmatched: absent
//!   coverage is "not recorded", never `1.0`.
//! * **Deterministic.** Evaluation reads only artifact state and the
//!   spec, in spec order; the same spec against byte-identical artifacts
//!   yields byte-identical reports at any worker count, including over
//!   [`RunArtifact::merge_shards`] outputs (stage rules then name the
//!   namespaced `shard-i/...` keys).
//! * **Derivable.** [`BudgetSpec::from_artifact`] turns a clean run into
//!   a spec with `headroom`× ceilings over every stage, deterministic
//!   histogram, and counter (plus a coverage floor when recorded).
//!   `headroom = 1.0` yields a spec the producing artifact passes
//!   exactly; `2.0` is the conventional seed for committed budgets.
//!   Gauge and USD rules are never derived — gauges sit outside the
//!   deterministic surface (completion-order float sums), so those
//!   ceilings are written by hand where the value is known stable.

use serde::{Deserialize, Serialize};

use crate::export::{ExportError, RunArtifact};

/// One ceiling or floor inside a [`BudgetSpec`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "rule", rename_all = "snake_case")]
pub enum BudgetRule {
    /// Total virtual milliseconds for one span key (summed over resume
    /// re-entries) must not exceed `max_ms`.
    StageMs {
        /// Span key, e.g. `run/survey` (or `shard-0/run/survey` in a
        /// merged distributed artifact).
        key: String,
        /// Inclusive ceiling in virtual milliseconds.
        max_ms: u64,
    },
    /// A deterministic histogram's p50 must not exceed `max`.
    HistP50 {
        /// Histogram name.
        name: String,
        /// Inclusive p50 ceiling.
        max: u64,
    },
    /// A deterministic histogram's p99 must not exceed `max`.
    HistP99 {
        /// Histogram name.
        name: String,
        /// Inclusive p99 ceiling.
        max: u64,
    },
    /// A deterministic counter must not exceed `max` (e.g. retries,
    /// rejections, quarantines).
    CounterMax {
        /// Counter name.
        name: String,
        /// Inclusive ceiling.
        max: u64,
    },
    /// A deterministic counter must reach at least `min` (e.g. captures,
    /// admitted requests — lost work is a regression, not a win).
    CounterMin {
        /// Counter name.
        name: String,
        /// Inclusive floor.
        min: u64,
    },
    /// A gauge must not exceed `max` (e.g. a `.peak` resident gauge).
    /// Gauges are outside the deterministic surface; use only where the
    /// producing code computes the value deterministically.
    GaugeMax {
        /// Gauge name.
        name: String,
        /// Inclusive ceiling.
        max: f64,
    },
    /// The run's total USD cost — the sum of every gauge named `*.usd`
    /// (the publish convention of `nbhd-client`'s `CostMeter`) — must not
    /// exceed `max_usd`.
    UsdMax {
        /// Inclusive ceiling in dollars.
        max_usd: f64,
    },
    /// The artifact's coverage fraction must reach at least
    /// `min_fraction`. Unmatched when the artifact carries no coverage
    /// section (absent coverage is "not recorded", never full).
    CoverageMin {
        /// Inclusive floor in `0.0..=1.0`.
        min_fraction: f64,
    },
    /// `sum(numerator counters) / sum(denominator counters)` must not
    /// exceed `max` — e.g. rejected/(admitted+rejected) for a rejection
    /// SLO. Counters absent from the artifact contribute 0 to their
    /// side; the rule is unmatched only when *every* named counter is
    /// absent. A zero denominator evaluates to `0.0` (no traffic, no
    /// violation).
    RatioMax {
        /// Rule name, for the verdict table (e.g. `rejected_fraction`).
        name: String,
        /// Counters summed into the numerator.
        numerator: Vec<String>,
        /// Counters summed into the denominator.
        denominator: Vec<String>,
        /// Inclusive ceiling on the ratio.
        max: f64,
    },
}

impl BudgetRule {
    /// Stable label naming this rule in verdicts and violations, e.g.
    /// `stage run/survey` or `counter.max serve.rejected.shed`.
    pub fn label(&self) -> String {
        match self {
            BudgetRule::StageMs { key, .. } => format!("stage {key}"),
            BudgetRule::HistP50 { name, .. } => format!("hist.p50 {name}"),
            BudgetRule::HistP99 { name, .. } => format!("hist.p99 {name}"),
            BudgetRule::CounterMax { name, .. } => format!("counter.max {name}"),
            BudgetRule::CounterMin { name, .. } => format!("counter.min {name}"),
            BudgetRule::GaugeMax { name, .. } => format!("gauge.max {name}"),
            BudgetRule::UsdMax { .. } => "usd.max".to_string(),
            BudgetRule::CoverageMin { .. } => "coverage.min".to_string(),
            BudgetRule::RatioMax { name, .. } => format!("ratio.max {name}"),
        }
    }
}

/// A named list of [`BudgetRule`]s, evaluated in order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetSpec {
    /// Spec name (file label in gate output).
    pub name: String,
    /// Rules, evaluated in this order.
    pub rules: Vec<BudgetRule>,
}

/// Which way a [`BudgetViolation`] failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BudgetViolationKind {
    /// A stage's total virtual duration exceeded its ceiling.
    StageOver,
    /// A histogram percentile exceeded its ceiling.
    HistOver,
    /// A counter exceeded its ceiling.
    CounterOver,
    /// A counter fell short of its floor.
    CounterUnder,
    /// A gauge exceeded its ceiling.
    GaugeOver,
    /// Total USD cost exceeded its ceiling.
    UsdOver,
    /// Coverage fraction fell short of its floor.
    CoverageUnder,
    /// A counter ratio exceeded its ceiling.
    RatioOver,
    /// The rule matched nothing in the artifact — a renamed span,
    /// dropped counter, or missing coverage section — or, in [`diff`],
    /// names a metric only the current run records. Always a failure.
    Unmatched,
}

impl BudgetViolationKind {
    /// Short lowercase label for table rendering.
    pub fn label(&self) -> &'static str {
        match self {
            BudgetViolationKind::StageOver => "stage-over",
            BudgetViolationKind::HistOver => "hist-over",
            BudgetViolationKind::CounterOver => "counter-over",
            BudgetViolationKind::CounterUnder => "counter-under",
            BudgetViolationKind::GaugeOver => "gauge-over",
            BudgetViolationKind::UsdOver => "usd-over",
            BudgetViolationKind::CoverageUnder => "coverage-under",
            BudgetViolationKind::RatioOver => "ratio-over",
            BudgetViolationKind::Unmatched => "unmatched",
        }
    }
}

/// One failed rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetViolation {
    /// Failure direction.
    pub kind: BudgetViolationKind,
    /// The failing rule's [`BudgetRule::label`].
    pub rule: String,
    /// Observed value (0 when the rule was unmatched).
    pub observed: f64,
    /// The configured ceiling or floor.
    pub limit: f64,
    /// Human-readable explanation.
    pub detail: String,
}

/// One rule's outcome, pass or fail, with observed-vs-limit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleVerdict {
    /// The rule's [`BudgetRule::label`].
    pub rule: String,
    /// Observed value (0 when the rule was unmatched).
    pub observed: f64,
    /// The configured ceiling or floor.
    pub limit: f64,
    /// `true` when the rule held.
    pub pass: bool,
}

/// Everything [`BudgetSpec::evaluate`] found: one verdict per rule in
/// spec order, plus the failures as typed violations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetReport {
    /// The evaluated spec's name.
    pub spec_name: String,
    /// The evaluated artifact's name.
    pub artifact_name: String,
    /// One verdict per spec rule, in spec order.
    pub verdicts: Vec<RuleVerdict>,
    /// The failing subset; empty means the budget holds.
    pub violations: Vec<BudgetViolation>,
}

impl BudgetReport {
    /// `true` when every rule held.
    pub fn is_pass(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Total virtual duration per span key (summed over resume re-entries).
fn stage_totals(artifact: &RunArtifact) -> std::collections::BTreeMap<String, u64> {
    let mut totals = std::collections::BTreeMap::new();
    for span in &artifact.spans {
        *totals.entry(span.key.clone()).or_insert(0) += span.virtual_ms();
    }
    totals
}

/// `observed <= limit`, or the typed over-violation.
fn ceiling(
    kind: BudgetViolationKind,
    rule: &BudgetRule,
    observed: f64,
    limit: f64,
    unit: &str,
) -> (RuleVerdict, Option<BudgetViolation>) {
    let pass = observed <= limit;
    let verdict = RuleVerdict {
        rule: rule.label(),
        observed,
        limit,
        pass,
    };
    let violation = (!pass).then(|| BudgetViolation {
        kind,
        rule: rule.label(),
        observed,
        limit,
        detail: format!("observed {observed}{unit} exceeds ceiling {limit}{unit}"),
    });
    (verdict, violation)
}

/// `observed >= limit`, or the typed under-violation.
fn floor(
    kind: BudgetViolationKind,
    rule: &BudgetRule,
    observed: f64,
    limit: f64,
) -> (RuleVerdict, Option<BudgetViolation>) {
    let pass = observed >= limit;
    let verdict = RuleVerdict {
        rule: rule.label(),
        observed,
        limit,
        pass,
    };
    let violation = (!pass).then(|| BudgetViolation {
        kind,
        rule: rule.label(),
        observed,
        limit,
        detail: format!("observed {observed} below floor {limit}"),
    });
    (verdict, violation)
}

/// The rule matched nothing on `side`: verdict fails, violation is
/// `Unmatched`.
fn unmatched(
    rule: &BudgetRule,
    limit: f64,
    what: &str,
    side: &str,
) -> (RuleVerdict, Option<BudgetViolation>) {
    (
        RuleVerdict {
            rule: rule.label(),
            observed: 0.0,
            limit,
            pass: false,
        },
        Some(BudgetViolation {
            kind: BudgetViolationKind::Unmatched,
            rule: rule.label(),
            observed: 0.0,
            limit,
            detail: format!("{what} not present in {side} (unmatched rules never pass)"),
        }),
    )
}

impl BudgetSpec {
    /// Evaluates every rule against `artifact`; see the module docs for
    /// the unmatched-rule and determinism contracts.
    pub fn evaluate(&self, artifact: &RunArtifact) -> BudgetReport {
        let stages = stage_totals(artifact);
        let mut verdicts = Vec::with_capacity(self.rules.len());
        let mut violations = Vec::new();
        for rule in &self.rules {
            let (verdict, violation) = match rule {
                BudgetRule::StageMs { key, max_ms } => match stages.get(key) {
                    Some(&vms) => ceiling(
                        BudgetViolationKind::StageOver,
                        rule,
                        vms as f64,
                        *max_ms as f64,
                        "vms",
                    ),
                    None => unmatched(rule, *max_ms as f64, "stage", "artifact"),
                },
                BudgetRule::HistP50 { name, max } => match artifact.metrics.histograms.get(name) {
                    Some(hist) => ceiling(
                        BudgetViolationKind::HistOver,
                        rule,
                        hist.p50() as f64,
                        *max as f64,
                        "",
                    ),
                    None => unmatched(rule, *max as f64, "histogram", "artifact"),
                },
                BudgetRule::HistP99 { name, max } => match artifact.metrics.histograms.get(name) {
                    Some(hist) => ceiling(
                        BudgetViolationKind::HistOver,
                        rule,
                        hist.p99() as f64,
                        *max as f64,
                        "",
                    ),
                    None => unmatched(rule, *max as f64, "histogram", "artifact"),
                },
                BudgetRule::CounterMax { name, max } => match artifact.metrics.counters.get(name) {
                    Some(&value) => ceiling(
                        BudgetViolationKind::CounterOver,
                        rule,
                        value as f64,
                        *max as f64,
                        "",
                    ),
                    None => unmatched(rule, *max as f64, "counter", "artifact"),
                },
                BudgetRule::CounterMin { name, min } => match artifact.metrics.counters.get(name) {
                    Some(&value) => floor(
                        BudgetViolationKind::CounterUnder,
                        rule,
                        value as f64,
                        *min as f64,
                    ),
                    None => unmatched(rule, *min as f64, "counter", "artifact"),
                },
                BudgetRule::GaugeMax { name, max } => match artifact.metrics.gauges.get(name) {
                    Some(&value) => ceiling(BudgetViolationKind::GaugeOver, rule, value, *max, ""),
                    None => unmatched(rule, *max, "gauge", "artifact"),
                },
                BudgetRule::UsdMax { max_usd } => {
                    let usd: Vec<f64> = artifact
                        .metrics
                        .gauges
                        .iter()
                        .filter(|(name, _)| name.ends_with(".usd"))
                        .map(|(_, &value)| value)
                        .collect();
                    if usd.is_empty() {
                        unmatched(rule, *max_usd, "no *.usd gauge", "artifact")
                    } else {
                        ceiling(
                            BudgetViolationKind::UsdOver,
                            rule,
                            usd.iter().sum(),
                            *max_usd,
                            "$",
                        )
                    }
                }
                BudgetRule::CoverageMin { min_fraction } => match &artifact.coverage {
                    Some(coverage) => floor(
                        BudgetViolationKind::CoverageUnder,
                        rule,
                        coverage.fraction(),
                        *min_fraction,
                    ),
                    None => unmatched(rule, *min_fraction, "coverage section", "artifact"),
                },
                BudgetRule::RatioMax {
                    numerator,
                    denominator,
                    max,
                    ..
                } => {
                    let lookup = |names: &[String]| -> (u64, usize) {
                        let mut sum = 0u64;
                        let mut present = 0usize;
                        for name in names {
                            if let Some(&value) = artifact.metrics.counters.get(name) {
                                sum += value;
                                present += 1;
                            }
                        }
                        (sum, present)
                    };
                    let (num, num_present) = lookup(numerator);
                    let (den, den_present) = lookup(denominator);
                    if num_present + den_present == 0 {
                        unmatched(rule, *max, "every named counter", "artifact")
                    } else {
                        let observed = if den == 0 {
                            0.0
                        } else {
                            num as f64 / den as f64
                        };
                        ceiling(BudgetViolationKind::RatioOver, rule, observed, *max, "")
                    }
                }
            };
            verdicts.push(verdict);
            violations.extend(violation);
        }
        BudgetReport {
            spec_name: self.name.clone(),
            artifact_name: artifact.name.clone(),
            verdicts,
            violations,
        }
    }

    /// Derives a spec from an observed artifact: a [`BudgetRule::StageMs`]
    /// per span key, p50/p99 ceilings per deterministic histogram,
    /// max *and* min bounds per counter, and a coverage floor when the
    /// artifact carries a coverage section — each scaled by `headroom`
    /// (ceilings up, floors down).
    ///
    /// `headroom = 1.0` pins every limit at the observed value, so the
    /// producing artifact passes exactly; `headroom <= 0.0` produces a
    /// spec the artifact is guaranteed to violate wherever it recorded
    /// nonzero work (the deliberate-failure check in `scripts/check.sh`).
    /// Gauges are never derived; see the module docs.
    pub fn from_artifact(name: &str, artifact: &RunArtifact, headroom: f64) -> BudgetSpec {
        let up = |value: u64| -> u64 {
            if headroom <= 0.0 {
                0
            } else {
                (value as f64 * headroom).ceil() as u64
            }
        };
        let down = |value: u64| -> u64 {
            if headroom <= 0.0 {
                value.saturating_add(1)
            } else {
                (value as f64 / headroom).floor() as u64
            }
        };
        let mut rules = Vec::new();
        for (key, &vms) in &stage_totals(artifact) {
            rules.push(BudgetRule::StageMs {
                key: key.clone(),
                max_ms: up(vms),
            });
        }
        for (hist_name, hist) in &artifact.metrics.histograms {
            rules.push(BudgetRule::HistP50 {
                name: hist_name.clone(),
                max: up(hist.p50()),
            });
            rules.push(BudgetRule::HistP99 {
                name: hist_name.clone(),
                max: up(hist.p99()),
            });
        }
        for (counter, &value) in &artifact.metrics.counters {
            rules.push(BudgetRule::CounterMax {
                name: counter.clone(),
                max: up(value),
            });
            rules.push(BudgetRule::CounterMin {
                name: counter.clone(),
                min: down(value),
            });
        }
        if let Some(coverage) = &artifact.coverage {
            rules.push(BudgetRule::CoverageMin {
                min_fraction: if headroom <= 0.0 {
                    coverage.fraction() + 1.0
                } else {
                    coverage.fraction() / headroom
                },
            });
        }
        BudgetSpec {
            name: name.to_string(),
            rules,
        }
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> Result<String, ExportError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses a spec previously written by [`BudgetSpec::to_json`].
    pub fn from_json(json: &str) -> Result<BudgetSpec, ExportError> {
        Ok(serde_json::from_str(json)?)
    }

    /// Writes the spec as JSON to `path`, creating parent directories.
    pub fn write_file(&self, path: &std::path::Path) -> Result<(), ExportError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Reads a spec previously written by [`BudgetSpec::write_file`].
    pub fn read_file(path: &std::path::Path) -> Result<BudgetSpec, ExportError> {
        BudgetSpec::from_json(&std::fs::read_to_string(path)?)
    }
}

/// The run-vs-run gate: evaluates `current` against the spec derived from
/// `baseline` at `1.0`× headroom, so counters must match exactly, and no
/// stage or histogram percentile may exceed the baseline's (a faster run
/// passes). A stage, counter, histogram or coverage section that
/// `baseline` lacks but `current` records is one `Unmatched` violation per
/// rule it would derive. Wall counters, gauges and wall histograms are
/// never compared. `diff(a, a)` always passes.
pub fn diff(baseline: &RunArtifact, current: &RunArtifact) -> BudgetReport {
    let spec = BudgetSpec::from_artifact(&baseline.name, baseline, 1.0);
    let mut report = spec.evaluate(current);
    let known: std::collections::BTreeSet<String> =
        spec.rules.iter().map(BudgetRule::label).collect();
    for rule in BudgetSpec::from_artifact(&current.name, current, 1.0).rules {
        if !known.contains(&rule.label()) {
            let (verdict, violation) = unmatched(&rule, 0.0, "metric", "baseline");
            report.verdicts.push(verdict);
            report.violations.extend(violation);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Obs;

    fn artifact(name: &str, slow: bool) -> RunArtifact {
        let obs = Obs::new();
        let run = obs.tracer().enter("run");
        let survey = obs.tracer().enter("survey");
        obs.clock().advance_ms(if slow { 200 } else { 100 });
        survey.record();
        let vote = obs.tracer().enter("ensemble");
        obs.clock().advance_ms(50);
        vote.record();
        obs.registry().add("survey.captures", 10);
        obs.registry().add("serve.rejected", 1);
        obs.registry().add("serve.admitted", 9);
        obs.registry()
            .record_hist("lat.ms", if slow { 400 } else { 40 });
        obs.registry()
            .record_hist("lat.ms", if slow { 500 } else { 50 });
        obs.registry().set_gauge("client.gpt.usd", 1.25);
        obs.registry().set_gauge("core.peak", 7.0);
        run.record();
        RunArtifact::from_obs(name, &obs)
    }

    #[test]
    fn derived_spec_at_unit_headroom_passes_exactly() {
        let clean = artifact("clean", false);
        let spec = BudgetSpec::from_artifact("budget", &clean, 1.0);
        let report = spec.evaluate(&clean);
        assert!(report.is_pass(), "{:?}", report.violations);
        assert_eq!(report.verdicts.len(), spec.rules.len());
        assert!(report.verdicts.iter().all(|v| v.pass));
    }

    #[test]
    fn injected_2x_slowdown_fails_spec_derived_from_clean_run() {
        // the acceptance drill: a spec derived from the clean run (even
        // with 1.5x headroom) must flag an injected 2x stage slowdown, and
        // so must the run diff against the clean run
        let clean = artifact("clean", false);
        let slow = artifact("slow", true);
        let spec = BudgetSpec::from_artifact("budget", &clean, 1.5);
        for report in [spec.evaluate(&slow), diff(&clean, &slow)] {
            assert!(!report.is_pass());
            assert!(
                report.violations.iter().any(|v| {
                    v.kind == BudgetViolationKind::StageOver && v.rule == "stage run/survey"
                }),
                "{:?}",
                report.violations
            );
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| v.kind == BudgetViolationKind::HistOver),
                "{:?}",
                report.violations
            );
            // the unchanged ensemble stage still passes
            assert!(report
                .violations
                .iter()
                .all(|v| !v.rule.contains("ensemble")));
        }
    }

    #[test]
    fn diff_passes_itself_and_flags_drift_and_one_sided_structure() {
        use crate::coverage::{RunCoverage, ShardCoverageRow};
        use BudgetViolationKind::{CounterOver, CounterUnder, Unmatched};

        let base = artifact("base", false);
        let self_diff = diff(&base, &base);
        assert!(self_diff.is_pass(), "{:?}", self_diff.violations);
        assert_eq!(
            self_diff.verdicts.len(),
            BudgetSpec::from_artifact("base", &base, 1.0).rules.len()
        );

        let with_counter = |value: u64| {
            let mut a = base.clone();
            a.metrics.counters.insert("survey.captures".into(), value);
            a
        };
        let (up, down) = (with_counter(12), with_counter(8));
        let mut no_counter = base.clone();
        no_counter.metrics.counters.remove("survey.captures");
        let mut no_hist = base.clone();
        no_hist.metrics.histograms.clear();
        let mut no_stage = base.clone();
        no_stage.spans.retain(|s| s.key != "run/ensemble");
        let covered = base.clone().with_coverage(RunCoverage {
            shards: vec![ShardCoverageRow {
                shard: 0,
                planned: 4,
                completed: 3,
                quarantined: 1,
                skipped: 0,
                timed_out: false,
            }],
            regions: Vec::new(),
        });
        assert!(diff(&covered, &covered).is_pass());

        let counter = ["counter.max survey.captures", "counter.min survey.captures"];
        let hist = ["hist.p50 lat.ms", "hist.p99 lat.ms"];
        let (stage, coverage) = (["stage run/ensemble"], ["coverage.min"]);
        // "-x": x dropped from the current run; "+x": x only in the current run
        type Case<'a> = (
            &'a str,
            &'a RunArtifact,
            &'a RunArtifact,
            BudgetViolationKind,
            &'a [&'a str],
        );
        let cases: [Case; 9] = [
            ("counter up", &base, &up, CounterOver, &counter[..1]),
            ("counter down", &base, &down, CounterUnder, &counter[1..]),
            ("-counter", &base, &no_counter, Unmatched, &counter),
            ("-hist", &base, &no_hist, Unmatched, &hist),
            ("+counter", &no_counter, &base, Unmatched, &counter),
            ("+hist", &no_hist, &base, Unmatched, &hist),
            ("+stage", &no_stage, &base, Unmatched, &stage),
            ("-coverage", &covered, &base, Unmatched, &coverage),
            ("+coverage", &base, &covered, Unmatched, &coverage),
        ];
        for (case, baseline, current, kind, rules) in cases {
            let report = diff(baseline, current);
            let found: Vec<(BudgetViolationKind, &str)> = report
                .violations
                .iter()
                .map(|v| (v.kind, v.rule.as_str()))
                .collect();
            let expected: Vec<(BudgetViolationKind, &str)> =
                rules.iter().map(|&rule| (kind, rule)).collect();
            assert_eq!(found, expected, "{case}");
        }
    }

    #[test]
    fn nonpositive_headroom_guarantees_violations() {
        let clean = artifact("clean", false);
        let spec = BudgetSpec::from_artifact("impossible", &clean, 0.0);
        assert!(!spec.evaluate(&clean).is_pass());
    }

    #[test]
    fn unmatched_rules_never_pass() {
        let clean = artifact("clean", false);
        let spec = BudgetSpec {
            name: "renamed".into(),
            rules: vec![
                BudgetRule::StageMs {
                    key: "run/surveyy".into(),
                    max_ms: 1_000_000,
                },
                BudgetRule::CounterMax {
                    name: "gone".into(),
                    max: u64::MAX,
                },
                BudgetRule::HistP99 {
                    name: "gone.ms".into(),
                    max: u64::MAX,
                },
                BudgetRule::GaugeMax {
                    name: "gone.peak".into(),
                    max: f64::MAX,
                },
                // no coverage section on this artifact: absent coverage
                // is "not recorded", never a passing 1.0
                BudgetRule::CoverageMin { min_fraction: 0.0 },
            ],
        };
        let report = spec.evaluate(&clean);
        assert_eq!(report.violations.len(), 5, "{:?}", report.violations);
        assert!(report
            .violations
            .iter()
            .all(|v| v.kind == BudgetViolationKind::Unmatched));
    }

    #[test]
    fn ratio_rule_gates_rejection_fraction() {
        let clean = artifact("clean", false);
        let ratio = |max: f64| BudgetRule::RatioMax {
            name: "rejected_fraction".into(),
            numerator: vec!["serve.rejected".into()],
            denominator: vec!["serve.admitted".into(), "serve.rejected".into()],
            max,
        };
        let spec = |rule: BudgetRule| BudgetSpec {
            name: "slo".into(),
            rules: vec![rule],
        };
        // 1 rejected of 10 total = 0.1
        assert!(spec(ratio(0.1)).evaluate(&clean).is_pass());
        let report = spec(ratio(0.05)).evaluate(&clean);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, BudgetViolationKind::RatioOver);
        // counters absent on one side count 0; all-absent is unmatched
        let zero_traffic = BudgetRule::RatioMax {
            name: "r".into(),
            numerator: vec!["absent.num".into()],
            denominator: vec!["serve.admitted".into()],
            max: 0.0,
        };
        assert!(spec(zero_traffic).evaluate(&clean).is_pass());
        let all_absent = BudgetRule::RatioMax {
            name: "r".into(),
            numerator: vec!["absent.num".into()],
            denominator: vec!["absent.den".into()],
            max: 1.0,
        };
        let report = spec(all_absent).evaluate(&clean);
        assert_eq!(report.violations[0].kind, BudgetViolationKind::Unmatched);
    }

    #[test]
    fn usd_ceiling_sums_every_usd_gauge() {
        let clean = artifact("clean", false);
        let spec = |max_usd: f64| BudgetSpec {
            name: "cost".into(),
            rules: vec![BudgetRule::UsdMax { max_usd }],
        };
        assert!(spec(1.25).evaluate(&clean).is_pass());
        let report = spec(1.0).evaluate(&clean);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].kind, BudgetViolationKind::UsdOver);
        assert_eq!(report.violations[0].observed, 1.25);
        // an artifact with no *.usd gauge at all: unmatched, not $0
        let mut bare = clean.clone();
        bare.metrics.gauges.clear();
        let report = spec(100.0).evaluate(&bare);
        assert_eq!(report.violations[0].kind, BudgetViolationKind::Unmatched);
    }

    #[test]
    fn spec_and_report_roundtrip_through_json() {
        let clean = artifact("clean", false);
        let spec = BudgetSpec::from_artifact("budget", &clean, 2.0);
        let back = BudgetSpec::from_json(&spec.to_json().unwrap()).unwrap();
        assert_eq!(spec, back);
        let report = spec.evaluate(&clean);
        let json = serde_json::to_string(&report).unwrap();
        let back: BudgetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn spec_file_roundtrip_creates_parents() {
        let dir = std::env::temp_dir().join("nbhd-obs-budget-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/budget.json");
        let spec = BudgetSpec::from_artifact("budget", &artifact("clean", false), 2.0);
        spec.write_file(&path).unwrap();
        assert_eq!(BudgetSpec::read_file(&path).unwrap(), spec);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn evaluation_of_merged_artifact_sees_namespaced_stages() {
        use crate::export::ShardIdentity;
        let shard = |index: usize| {
            let obs = Obs::new();
            let survey = obs.tracer().enter("survey");
            obs.clock().advance_ms(40);
            survey.record();
            obs.registry().add("survey.captures", 3);
            RunArtifact::from_obs(&format!("part-{index}"), &obs).with_shard(ShardIdentity {
                index,
                count: 2,
                config_hash: 0xfeed,
            })
        };
        let merged = RunArtifact::merge_shards("whole", &[shard(0), shard(1)]).unwrap();
        let spec = BudgetSpec::from_artifact("dist", &merged, 1.0);
        assert!(spec
            .rules
            .iter()
            .any(|r| matches!(r, BudgetRule::StageMs { key, .. } if key == "shard-0/survey")));
        assert!(spec.evaluate(&merged).is_pass());
    }
}
