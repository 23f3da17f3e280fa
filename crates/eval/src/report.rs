//! Text rendering of metric tables and paper-vs-measured comparisons.

use nbhd_obs::{BudgetReport, Histogram, RunCoverage, RunSummary};
use nbhd_types::Indicator;

use crate::MetricsTable;

/// Renders a per-class metrics table in the paper's row order, with a final
/// `Average` row — the same layout as Tables I and III–VI.
///
/// ```
/// use nbhd_eval::{render_metrics_table, PresenceEvaluator};
/// use nbhd_types::{Indicator, IndicatorSet};
///
/// let mut e = PresenceEvaluator::new();
/// let s = IndicatorSet::new().with(Indicator::Sidewalk);
/// e.observe(s, s);
/// let text = render_metrics_table("Demo", &e.table());
/// assert!(text.contains("Sidewalk"));
/// assert!(text.contains("Average"));
/// ```
pub fn render_metrics_table(title: &str, table: &MetricsTable) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<18} {:>9} {:>9} {:>9} {:>9}\n",
        "Label", "Precision", "Recall", "F1", "Accuracy"
    ));
    for ind in Indicator::ALL {
        let m = table.per_class[ind];
        out.push_str(&format!(
            "{:<18} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
            ind.name(),
            m.precision,
            m.recall,
            m.f1,
            m.accuracy
        ));
    }
    let a = table.average;
    out.push_str(&format!(
        "{:<18} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
        "Average", a.precision, a.recall, a.f1, a.accuracy
    ));
    out
}

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// What the row measures (e.g. `"Gemini avg recall"`).
    pub name: String,
    /// The value the paper reports.
    pub paper: f64,
    /// The value this reproduction measured.
    pub measured: f64,
}

impl ComparisonRow {
    /// Creates a row.
    pub fn new(name: impl Into<String>, paper: f64, measured: f64) -> Self {
        ComparisonRow {
            name: name.into(),
            paper,
            measured,
        }
    }

    /// Absolute deviation from the paper's value.
    pub fn delta(&self) -> f64 {
        (self.measured - self.paper).abs()
    }
}

/// Renders a paper-vs-measured table used by the experiment harness and
/// EXPERIMENTS.md.
pub fn render_comparison(title: &str, rows: &[ComparisonRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<34} {:>8} {:>9} {:>7}\n",
        "Quantity", "Paper", "Measured", "Delta"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<34} {:>8.3} {:>9.3} {:>7.3}\n",
            r.name,
            r.paper,
            r.measured,
            r.delta()
        ));
    }
    out
}

/// One cross-region generalization row for [`render_transfer_table`]: a
/// detector trained on one region set, evaluated on (possibly another)
/// region's held-out test split.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferRow {
    /// The region set the detector was trained on.
    pub train_region: String,
    /// The region set the detector was evaluated on.
    pub eval_region: String,
    /// Detection mAP50 on the evaluation region's test split.
    pub map50: f64,
    /// Average presence-level F1 at the calibrated thresholds.
    pub f1: f64,
    /// Number of test images evaluated.
    pub images: usize,
    /// Location-coverage fraction of the evaluated survey (`1.0` for a
    /// full run; below for supervised partial runs).
    pub coverage: f64,
}

impl TransferRow {
    /// Whether the row measures in-domain performance (train == eval region).
    pub fn in_domain(&self) -> bool {
        self.train_region == self.eval_region
    }
}

/// Renders cross-region transfer rows as an aligned text table, in the same
/// report style as [`render_metrics_table`].
///
/// ```
/// use nbhd_eval::{render_transfer_table, TransferRow};
///
/// let rows = vec![TransferRow {
///     train_region: "hidalgo+dallas".into(),
///     eval_region: "grid-0".into(),
///     map50: 0.41,
///     f1: 0.62,
///     images: 12,
///     coverage: 1.0,
/// }];
/// let text = render_transfer_table("Cross-region transfer", &rows);
/// assert!(text.contains("hidalgo+dallas"));
/// assert!(text.contains("transfer"));
/// ```
pub fn render_transfer_table(title: &str, rows: &[TransferRow]) -> String {
    let train_w = rows
        .iter()
        .map(|r| r.train_region.len())
        .chain(["Trained on".len()])
        .max()
        .unwrap_or(10);
    let eval_w = rows
        .iter()
        .map(|r| r.eval_region.len())
        .chain(["Tested on".len()])
        .max()
        .unwrap_or(9);
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<train_w$} {:<eval_w$} {:>9} {:>7} {:>7} {:>7} {:>6}\n",
        "Trained on", "Tested on", "Kind", "mAP50", "F1", "Images", "Cov"
    ));
    for r in rows {
        let kind = if r.in_domain() { "in-dom" } else { "transfer" };
        out.push_str(&format!(
            "{:<train_w$} {:<eval_w$} {:>9} {:>7.3} {:>7.3} {:>7} {:>6.3}\n",
            r.train_region, r.eval_region, kind, r.map50, r.f1, r.images, r.coverage
        ));
    }
    out
}

/// Renders a run's coverage as an aligned text table, in the same report
/// style as [`render_transfer_table`]: one line per shard (`shard {i}`,
/// `completed` or `timed-out`), then one per region (`complete` when every
/// planned location completed, else `partial`).
///
/// ```
/// use nbhd_eval::render_coverage_table;
/// use nbhd_obs::{RunCoverage, ShardCoverageRow};
///
/// let coverage = RunCoverage {
///     shards: vec![ShardCoverageRow {
///         shard: 0,
///         planned: 12,
///         completed: 10,
///         quarantined: 1,
///         skipped: 1,
///         timed_out: true,
///     }],
///     regions: Vec::new(),
/// };
/// let text = render_coverage_table("Survey coverage", &coverage);
/// assert!(text.contains("shard 0"));
/// assert!(text.contains("83.3%"));
/// assert!(text.contains("timed-out"));
/// ```
pub fn render_coverage_table(title: &str, coverage: &RunCoverage) -> String {
    let shards = coverage.shards.iter().map(|s| {
        let outcome = if s.timed_out {
            "timed-out"
        } else {
            "completed"
        };
        let counts = [s.planned, s.completed, s.quarantined, s.skipped];
        (format!("shard {}", s.shard), counts, outcome)
    });
    let regions = coverage.regions.iter().map(|r| {
        let outcome = if r.completed == r.planned {
            "complete"
        } else {
            "partial"
        };
        let counts = [r.planned, r.completed, r.quarantined, r.skipped];
        (r.region.clone(), counts, outcome)
    });
    let rows: Vec<_> = shards.chain(regions).collect();
    let label_w = rows
        .iter()
        .map(|r| r.0.len())
        .chain(["Unit".len()])
        .max()
        .unwrap_or(4);
    let outcome_w = rows
        .iter()
        .map(|r| r.2.len())
        .chain(["Outcome".len()])
        .max()
        .unwrap_or(7);
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<label_w$} {:>8} {:>10} {:>12} {:>8} {:>9} {:>outcome_w$}\n",
        "Unit", "Planned", "Completed", "Quarantined", "Skipped", "Coverage", "Outcome"
    ));
    for (label, [planned, completed, quarantined, skipped], outcome) in rows {
        let fraction = if planned == 0 {
            1.0
        } else {
            completed as f64 / planned as f64
        };
        out.push_str(&format!(
            "{label:<label_w$} {planned:>8} {completed:>10} {quarantined:>12} {skipped:>8} {:>8.1}% {outcome:>outcome_w$}\n",
            fraction * 100.0,
        ));
    }
    out
}

/// One labeled execution-substrate snapshot for [`render_exec_table`]:
/// typically one row per pipeline stage or bench section, built from
/// [`nbhd_exec::ExecSnapshot::from_metrics`] deltas over a run-scoped
/// registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecRow<'a> {
    /// What the snapshot covers (e.g. `"survey build"`).
    pub label: &'a str,
    /// The substrate counters for that span.
    pub snapshot: nbhd_exec::ExecSnapshot,
}

/// Renders execution-substrate counters as an aligned text table, in the
/// same report style as [`render_metrics_table`].
///
/// ```
/// use nbhd_eval::{render_exec_table, ExecRow};
///
/// let rows = vec![ExecRow {
///     label: "survey build",
///     snapshot: nbhd_exec::ExecSnapshot {
///         parallel_calls: 3,
///         serial_calls: 1,
///         tasks: 96,
///         chunks: 24,
///         steals: 5,
///         busy_us: 120_000,
///     },
/// }];
/// let text = render_exec_table("Execution substrate", &rows);
/// assert!(text.contains("survey build"));
/// assert!(text.contains("96"));
/// ```
pub fn render_exec_table(title: &str, rows: &[ExecRow<'_>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<22} {:>9} {:>8} {:>8} {:>8} {:>8} {:>11}\n",
        "Span", "Parallel", "Serial", "Tasks", "Chunks", "Steals", "Busy"
    ));
    for r in rows {
        let s = r.snapshot;
        out.push_str(&format!(
            "{:<22} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8.1} ms\n",
            r.label,
            s.parallel_calls,
            s.serial_calls,
            s.tasks,
            s.chunks,
            s.steals,
            s.busy_ms()
        ));
    }
    out
}

/// Renders a [`RunSummary`] as a per-stage timing tree followed by the
/// unified counter rollup, in the same aligned-text style as the other
/// report tables. Spans indent by nesting depth and show both time
/// scales; wall counters and gauges are marked so readers know they are
/// off the deterministic surface.
///
/// ```
/// use nbhd_eval::render_run_summary;
/// use nbhd_obs::Obs;
///
/// let obs = Obs::new();
/// let stage = obs.tracer().enter("survey");
/// obs.clock().advance_ms(40);
/// obs.registry().add("survey.captures", 20);
/// stage.record();
/// let text = render_run_summary("Run summary", &obs.summary());
/// assert!(text.contains("survey"));
/// assert!(text.contains("survey.captures"));
/// ```
pub fn render_run_summary(title: &str, summary: &RunSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    let labels: Vec<String> = summary
        .spans
        .iter()
        .map(|s| format!("{:indent$}{}", "", s.name, indent = 2 * s.depth))
        .collect();
    let stage_w = labels
        .iter()
        .map(String::len)
        .max()
        .unwrap_or(0)
        .max("Stage".len());
    out.push_str(&format!(
        "{:<stage_w$} {:>12} {:>12}\n",
        "Stage", "Virtual", "Wall"
    ));
    for (label, span) in labels.iter().zip(&summary.spans) {
        out.push_str(&format!(
            "{:<stage_w$} {:>9} ms {:>9.1} ms\n",
            label,
            span.virtual_ms(),
            span.wall_us as f64 / 1000.0
        ));
    }
    let m = &summary.metrics;
    let name_w = m
        .counters
        .keys()
        .chain(m.wall_counters.keys())
        .chain(m.gauges.keys())
        .map(String::len)
        .max()
        .unwrap_or(0)
        .max("Counter".len());
    out.push_str(&format!("{:<name_w$} {:>14}\n", "Counter", "Value"));
    for (name, value) in &m.counters {
        out.push_str(&format!("{name:<name_w$} {value:>14}\n"));
    }
    for (name, value) in &m.wall_counters {
        out.push_str(&format!("{name:<name_w$} {value:>14} (wall)\n"));
    }
    for (name, value) in &m.gauges {
        out.push_str(&format!("{name:<name_w$} {value:>14.4} (gauge)\n"));
    }
    if !m.histograms.is_empty() || !m.wall_histograms.is_empty() {
        let hist_rows: Vec<(&String, &Histogram, bool)> = m
            .histograms
            .iter()
            .map(|(n, h)| (n, h, false))
            .chain(m.wall_histograms.iter().map(|(n, h)| (n, h, true)))
            .collect();
        let hist_w = hist_rows
            .iter()
            .map(|(n, _, _)| n.len())
            .max()
            .unwrap_or(0)
            .max("Histogram".len());
        out.push_str(&format!(
            "{:<hist_w$} {:>8} {:>8} {:>8} {:>8}\n",
            "Histogram", "Count", "P50", "P99", "Max"
        ));
        for (name, h, wall) in hist_rows {
            out.push_str(&format!(
                "{:<hist_w$} {:>8} {:>8} {:>8} {:>8}{}\n",
                name,
                h.count(),
                h.p50(),
                h.p99(),
                h.max(),
                if wall { " (wall)" } else { "" }
            ));
        }
    }
    out
}

/// Renders named histograms as an aligned percentile table, in the same
/// report style as [`render_exec_table`] — the per-model latency view
/// printed by `examples/quickstart.rs`.
///
/// ```
/// use nbhd_eval::render_hist_table;
/// use nbhd_obs::Histogram;
///
/// let mut h = Histogram::new();
/// for ms in [220, 450, 900] {
///     h.record(ms);
/// }
/// let text = render_hist_table("Latency (ms)", &[("gemini-1.5-pro".into(), h)]);
/// assert!(text.contains("gemini-1.5-pro"));
/// assert!(text.contains("900"));
/// ```
pub fn render_hist_table(title: &str, rows: &[(String, Histogram)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    let name_w = rows
        .iter()
        .map(|(name, _)| name.len())
        .max()
        .unwrap_or(0)
        .max("Name".len());
    out.push_str(&format!(
        "{:<name_w$} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
        "Name", "Count", "Min", "P50", "P90", "P99", "Max"
    ));
    for (name, h) in rows {
        out.push_str(&format!(
            "{:<name_w$} {:>8} {:>8} {:>8} {:>8} {:>8} {:>10}\n",
            name,
            h.count(),
            h.min(),
            h.p50(),
            h.p90(),
            h.p99(),
            h.max()
        ));
    }
    out
}

/// Formats a budget value: integral limits and counts print without a
/// fractional part, ratios and fractions keep four places.
pub(crate) fn budget_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value:.4}")
    }
}

/// Renders a [`BudgetReport`] as an aligned per-rule verdict table —
/// observed vs limit, `ok`/`FAIL` per rule — followed by the typed
/// violation findings and a final `PASS`/`FAIL` verdict line. This is
/// the human-readable face of the `obs::budget` gate, for a committed
/// spec and for a run diff (the budget derived from a baseline) alike.
pub fn render_budget_table(title: &str, report: &BudgetReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{title}\nspec: {}  artifact: {}\n",
        report.spec_name, report.artifact_name
    ));
    if !report.verdicts.is_empty() {
        let rule_w = report
            .verdicts
            .iter()
            .map(|v| v.rule.len())
            .max()
            .unwrap_or(0)
            .max("Rule".len());
        out.push_str(&format!(
            "{:<rule_w$} {:>12} {:>12} {:>7}\n",
            "Rule", "Observed", "Limit", "Verdict"
        ));
        for v in &report.verdicts {
            out.push_str(&format!(
                "{:<rule_w$} {:>12} {:>12} {:>7}\n",
                v.rule,
                budget_value(v.observed),
                budget_value(v.limit),
                if v.pass { "ok" } else { "FAIL" }
            ));
        }
    }
    for v in &report.violations {
        out.push_str(&format!(
            "VIOLATION [{}] {}: {} ({} vs limit {})\n",
            v.kind.label(),
            v.rule,
            v.detail,
            budget_value(v.observed),
            budget_value(v.limit)
        ));
    }
    if report.is_pass() {
        out.push_str("PASS: budget holds\n");
    } else {
        out.push_str(&format!("FAIL: {} violation(s)\n", report.violations.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClassMetrics;
    use nbhd_types::IndicatorMap;

    #[test]
    fn table_lists_classes_in_paper_order() {
        let t = MetricsTable::from_per_class(IndicatorMap::fill(ClassMetrics::default()));
        let text = render_metrics_table("T", &t);
        let sl = text.find("Streetlight").unwrap();
        let sw = text.find("Sidewalk").unwrap();
        let ap = text.find("Apartment").unwrap();
        assert!(sl < sw && sw < ap);
    }

    #[test]
    fn comparison_rows_show_delta() {
        let rows = vec![ComparisonRow::new("avg accuracy", 0.885, 0.87)];
        let text = render_comparison("F5", &rows);
        assert!(text.contains("0.885"));
        assert!(text.contains("0.015"));
        assert!((rows[0].delta() - 0.015).abs() < 1e-12);
    }

    #[test]
    fn exec_table_renders_counters() {
        let rows = vec![
            ExecRow {
                label: "survey",
                snapshot: nbhd_exec::ExecSnapshot {
                    parallel_calls: 2,
                    serial_calls: 0,
                    tasks: 96,
                    chunks: 16,
                    steals: 4,
                    busy_us: 2_500,
                },
            },
            ExecRow {
                label: "train",
                snapshot: nbhd_exec::ExecSnapshot::default(),
            },
        ];
        let text = render_exec_table("Exec", &rows);
        assert!(text.contains("survey"));
        assert!(text.contains("train"));
        assert!(text.contains("96"));
        assert!(text.contains("2.5 ms"));
    }

    #[test]
    fn run_summary_indents_nested_stages_and_marks_wall_metrics() {
        use nbhd_obs::Obs;
        let obs = Obs::new();
        let run = obs.tracer().enter("run");
        obs.clock().advance_ms(10);
        let survey = obs.tracer().enter("survey");
        obs.clock().advance_ms(30);
        survey.record();
        run.record();
        obs.registry().add("survey.captures", 12);
        obs.registry().add_wall("exec.steals", 4);
        obs.registry().add_gauge("client.gemini.usd", 0.5);

        let text = render_run_summary("Run summary", &obs.summary());
        assert!(text.contains("Run summary"), "{text}");
        // nested stage indents by depth under its parent
        let run_line = text.lines().find(|l| l.starts_with("run ")).unwrap();
        let survey_line = text.lines().find(|l| l.starts_with("  survey")).unwrap();
        assert!(run_line.contains("40 ms"), "{run_line}");
        assert!(survey_line.contains("30 ms"), "{survey_line}");
        // counters render; off-surface metrics are marked
        assert!(text.contains("survey.captures"), "{text}");
        let steals = text.lines().find(|l| l.contains("exec.steals")).unwrap();
        assert!(steals.ends_with("(wall)"), "{steals}");
        let usd = text
            .lines()
            .find(|l| l.contains("client.gemini.usd"))
            .unwrap();
        assert!(usd.ends_with("(gauge)"), "{usd}");
    }

    #[test]
    fn run_summary_renders_histograms_with_wall_marker() {
        use nbhd_obs::Obs;
        let obs = Obs::new();
        let span = obs.tracer().enter("run");
        obs.clock().advance_ms(5);
        span.record();
        obs.registry().record_hist("client.gemini.latency_ms", 420);
        obs.registry().record_hist("client.gemini.latency_ms", 900);
        obs.registry().record_wall_hist("exec.chunk_items", 8);

        let text = render_run_summary("Run summary", &obs.summary());
        let lat = text
            .lines()
            .find(|l| l.contains("client.gemini.latency_ms"))
            .unwrap();
        assert!(lat.contains('2'), "{lat}"); // count column
        assert!(!lat.ends_with("(wall)"), "{lat}");
        let chunk = text
            .lines()
            .find(|l| l.contains("exec.chunk_items"))
            .unwrap();
        assert!(chunk.ends_with("(wall)"), "{chunk}");
    }

    #[test]
    fn hist_table_lists_percentile_columns() {
        let mut h = Histogram::new();
        for ms in [220, 450, 900] {
            h.record(ms);
        }
        let text = render_hist_table("Latency (ms)", &[("gemini-1.5-pro".into(), h)]);
        assert!(text.contains("Latency (ms)"));
        assert!(text.contains("P50"));
        assert!(text.contains("P99"));
        let row = text.lines().find(|l| l.contains("gemini-1.5-pro")).unwrap();
        assert!(row.contains("900"), "{row}"); // max is exact
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    fn budget_table_renders_verdicts_violations_and_footer() {
        use nbhd_obs::{BudgetReport, BudgetViolation, BudgetViolationKind, RuleVerdict};
        let pass = BudgetReport {
            spec_name: "budget".into(),
            artifact_name: "run".into(),
            verdicts: vec![RuleVerdict {
                rule: "stage run/survey".into(),
                observed: 120.0,
                limit: 180.0,
                pass: true,
            }],
            violations: vec![],
        };
        let text = render_budget_table("Budget", &pass);
        assert!(text.contains("spec: budget  artifact: run"), "{text}");
        assert!(text.contains("PASS: budget holds"), "{text}");
        assert!(!text.contains("VIOLATION"), "{text}");
        // integral values print without a fractional tail
        let row = text.lines().find(|l| l.starts_with("stage ")).unwrap();
        assert!(row.contains("120") && !row.contains("120.0"), "{row}");

        let fail = BudgetReport {
            spec_name: "budget".into(),
            artifact_name: "run".into(),
            verdicts: vec![RuleVerdict {
                rule: "ratio.max rejected".into(),
                observed: 0.75,
                limit: 0.5,
                pass: false,
            }],
            violations: vec![BudgetViolation {
                kind: BudgetViolationKind::RatioOver,
                rule: "ratio.max rejected".into(),
                observed: 0.75,
                limit: 0.5,
                detail: "rejected fraction over ceiling".into(),
            }],
        };
        let text = render_budget_table("Budget", &fail);
        assert!(text.contains("FAIL: 1 violation(s)"), "{text}");
        assert!(
            text.contains(
                "VIOLATION [ratio-over] ratio.max rejected: rejected fraction over ceiling"
            ),
            "{text}"
        );
        assert!(text.contains("0.7500") && text.contains("0.5000"), "{text}");
    }

    #[test]
    fn transfer_rows_align_and_classify_kind() {
        let rows = vec![
            TransferRow {
                train_region: "hidalgo+dallas".into(),
                eval_region: "hidalgo+dallas".into(),
                map50: 0.512,
                f1: 0.701,
                images: 18,
                coverage: 1.0,
            },
            TransferRow {
                train_region: "hidalgo+dallas".into(),
                eval_region: "grid-3".into(),
                map50: 0.388,
                f1: 0.6,
                images: 9,
                coverage: 0.917,
            },
        ];
        assert!(rows[0].in_domain());
        assert!(!rows[1].in_domain());
        let text = render_transfer_table("Transfer", &rows);
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("in-dom"), "{text}");
        assert!(lines[2].contains("transfer"), "{text}");
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "ragged table:\n{text}"
        );
    }

    #[test]
    fn coverage_table_lists_shards_then_regions() {
        use nbhd_obs::{RegionCoverageRow, ShardCoverageRow};
        let shard = |shard, completed, quarantined, skipped, timed_out| ShardCoverageRow {
            shard,
            planned: 12,
            completed,
            quarantined,
            skipped,
            timed_out,
        };
        let region = |name: &str, planned, completed, quarantined, skipped| RegionCoverageRow {
            region: name.to_owned(),
            planned,
            completed,
            quarantined,
            skipped,
        };
        let coverage = RunCoverage {
            shards: vec![shard(0, 12, 0, 0, false), shard(1, 6, 2, 4, true)],
            regions: vec![
                region("durham", 10, 10, 0, 0),
                region("robeson", 14, 8, 2, 4),
            ],
        };
        let text = render_coverage_table("Coverage", &coverage);
        assert_eq!(
            text,
            "Coverage\n\
             Unit     Planned  Completed  Quarantined  Skipped  Coverage   Outcome\n\
             shard 0       12         12            0        0    100.0% completed\n\
             shard 1       12          6            2        4     50.0% timed-out\n\
             durham        10         10            0        0    100.0%  complete\n\
             robeson       14          8            2        4     57.1%   partial\n"
        );
    }

    #[test]
    fn rows_align_in_columns() {
        let t = MetricsTable::from_per_class(IndicatorMap::fill(ClassMetrics {
            precision: 0.5,
            recall: 0.5,
            f1: 0.5,
            accuracy: 0.5,
        }));
        let text = render_metrics_table("T", &t);
        let lines: Vec<&str> = text.lines().skip(1).collect();
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "ragged table:\n{text}"
        );
    }
}
