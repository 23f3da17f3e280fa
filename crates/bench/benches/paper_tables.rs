//! The paper-table regeneration harness: re-runs every experiment (tables
//! and figures) and prints paper-vs-measured comparisons.
//!
//! Independent experiments fan out over the shared `nbhd-exec` worker pool;
//! reports still print in the paper's order, and the run ends with the
//! substrate's counter table (parallel regions, tasks, steals, busy time).
//!
//! Run everything at the default benchmark scale:
//!
//! ```text
//! cargo bench -p nbhd-bench --bench paper_tables
//! ```
//!
//! Select experiments or change scale:
//!
//! ```text
//! cargo bench -p nbhd-bench --bench paper_tables -- t1 f5
//! NBHD_SCALE=smoke cargo bench -p nbhd-bench --bench paper_tables
//! NBHD_SCALE=full  cargo bench -p nbhd-bench --bench paper_tables
//! ```
//!
//! The run artifact goes to `NBHD_ARTIFACT`, or by default to
//! `target/BENCH_paper_tables.json` at the workspace root. The harness
//! exits nonzero when it cannot write it.

use std::sync::Arc;
use std::time::Instant;

use nbhd_bench::paper_tables_artifact_path;
use nbhd_core::eval::{render_exec_table, render_run_summary, ExecRow};
use nbhd_core::exec::{ExecSnapshot, ScopedPool};
use nbhd_core::obs::{Obs, RunArtifact};
use nbhd_core::types::Result;
use nbhd_core::{ExperimentReport, PaperExperiments, SurveyConfig, SurveyPipeline};

/// Counter delta between two snapshots of the same run-scoped registry —
/// the per-section view the old (racy, process-global) `reset_stats`
/// dance used to provide.
fn exec_delta(after: &ExecSnapshot, before: &ExecSnapshot) -> ExecSnapshot {
    ExecSnapshot {
        parallel_calls: after.parallel_calls - before.parallel_calls,
        serial_calls: after.serial_calls - before.serial_calls,
        tasks: after.tasks - before.tasks,
        chunks: after.chunks - before.chunks,
        steals: after.steals - before.steals,
        busy_us: after.busy_us - before.busy_us,
    }
}

/// A selectable experiment: its id plus a closure yielding its report(s).
type Job<'a> = (
    &'static str,
    Box<dyn Fn() -> Result<Vec<ExperimentReport>> + Sync + 'a>,
);

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let scale = std::env::var("NBHD_SCALE").unwrap_or_else(|_| "bench".to_owned());
    let seed = std::env::var("NBHD_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2025u64);
    let config = match scale.as_str() {
        "smoke" => SurveyConfig::smoke(seed),
        "full" => SurveyConfig::paper_full(seed),
        _ => SurveyConfig::bench(seed),
    };
    println!(
        "# nbhd paper-table harness | scale={scale} seed={seed} locations={} size={}px",
        config.locations, config.image_size
    );

    let obs = Obs::default();
    let t0 = Instant::now();
    let survey_stage = obs.tracer().enter("survey");
    let survey = SurveyPipeline::new(config)
        .with_obs(obs.clone())
        .run()
        .expect("survey pipeline");
    survey_stage.record();
    println!(
        "# survey built in {:.1}s: {}",
        t0.elapsed().as_secs_f64(),
        survey.dataset().summary()
    );
    let survey_span = ExecSnapshot::from_metrics(&obs.registry().snapshot());
    let harness = PaperExperiments::new(survey);

    let selected = |id: &str| args.is_empty() || args.iter().any(|a| a == id);

    // Warm the harness's shared caches serially: the fan-out below runs
    // experiments concurrently, and racing OnceLock initializers would
    // train the baseline (or run the default LLM survey) more than once.
    // Warmup errors are ignored here — each experiment re-hits them and
    // reports its own FAILED line.
    let tw = Instant::now();
    if ["t1", "f3", "c1"].iter().any(|id| selected(id)) {
        let _ = harness.baseline();
    }
    if ["f5", "t3", "t4", "t5", "t6"].iter().any(|id| selected(id)) {
        let _ = harness.default_llm();
    }
    println!(
        "# shared caches warmed in {:.1}s",
        tw.elapsed().as_secs_f64()
    );

    // LLM experiments listed first (no rendering required), detector
    // experiments after (they render + train) — this is the print order;
    // execution interleaves across the worker pool.
    let mut jobs: Vec<Job> = Vec::new();
    if selected("t2") {
        jobs.push(("t2", Box::new(|| Ok(vec![harness.t2_example()?]))));
    }
    if selected("f5") {
        jobs.push(("f5", Box::new(|| Ok(vec![harness.f5_voting()?]))));
    }
    if ["t3", "t4", "t5", "t6"].iter().any(|id| selected(id)) {
        jobs.push((
            "t3-t6",
            Box::new(|| {
                Ok(harness
                    .t3_to_t6_model_tables()?
                    .into_iter()
                    .filter(|report| selected(report.id))
                    .collect())
            }),
        ));
    }
    if selected("f4") {
        jobs.push(("f4", Box::new(|| Ok(vec![harness.f4_prompt_modes()?]))));
    }
    if selected("f6") {
        jobs.push(("f6", Box::new(|| Ok(vec![harness.f6_languages()?]))));
    }
    if selected("p1") {
        jobs.push(("p1", Box::new(|| Ok(vec![harness.p1_temperature()?]))));
    }
    if selected("p2") {
        jobs.push(("p2", Box::new(|| Ok(vec![harness.p2_top_p()?]))));
    }
    if selected("t1") {
        jobs.push(("t1", Box::new(|| Ok(vec![harness.t1_baseline()?]))));
    }
    if selected("f2") {
        jobs.push(("f2", Box::new(|| Ok(vec![harness.f2_augmentation()?]))));
    }
    if selected("f3") {
        jobs.push(("f3", Box::new(|| Ok(vec![harness.f3_noise()?]))));
    }
    if selected("c1") {
        jobs.push(("c1", Box::new(|| Ok(vec![harness.c1_scene_baseline()?]))));
    }
    if selected("a1") {
        jobs.push(("a1", Box::new(|| Ok(vec![harness.a1_correlation()?]))));
    }
    if selected("e1") {
        jobs.push(("e1", Box::new(|| Ok(vec![harness.e1_panorama()?]))));
    }

    // each experiment is deterministic in isolation (own seeds, cached
    // shared state), so the fan-out changes wall-clock, not results
    let experiments_stage = obs.tracer().enter("experiments");
    let pool = ScopedPool::default().with_metrics(Arc::clone(obs.registry()));
    let results: Vec<(Result<Vec<ExperimentReport>>, f64)> = pool.map(&jobs, |(_, f)| {
        let t = Instant::now();
        (f(), t.elapsed().as_secs_f64())
    });
    experiments_stage.record();

    let mut reports: Vec<ExperimentReport> = Vec::new();
    for ((name, _), (result, secs)) in jobs.iter().zip(results) {
        match result {
            Ok(batch) => {
                for report in batch {
                    println!("\n{}", report.render());
                    reports.push(report);
                }
                println!("# {name} took {secs:.1}s");
            }
            Err(err) => println!("\n== {name}: FAILED: {err}"),
        }
    }
    let experiments_span = exec_delta(
        &ExecSnapshot::from_metrics(&obs.registry().snapshot()),
        &survey_span,
    );

    // summary
    println!("\n# ============ summary ============");
    let mut rows = 0usize;
    let mut within_05 = 0usize;
    let mut within_10 = 0usize;
    for report in &reports {
        for c in &report.comparisons {
            rows += 1;
            if c.delta() <= 0.05 {
                within_05 += 1;
            }
            if c.delta() <= 0.10 {
                within_10 += 1;
            }
        }
    }
    println!(
        "# {} experiments, {rows} paper-vs-measured rows: {within_05} within 0.05, {within_10} within 0.10",
        reports.len()
    );
    println!(
        "\n{}",
        render_exec_table(
            "# execution substrate",
            &[
                ExecRow {
                    label: "survey build",
                    snapshot: survey_span,
                },
                ExecRow {
                    label: "experiments",
                    snapshot: experiments_span,
                },
            ],
        )
    );
    println!("\n{}", render_run_summary("# run summary", &obs.summary()));

    // Flight-recorder artifact: the run's deterministic surface (spans,
    // counters, histograms), diffable against a committed baseline via
    // the `run_diff` bin — see scripts/check.sh.
    let artifact_path = paper_tables_artifact_path(std::env::var_os("NBHD_ARTIFACT"));
    let artifact = RunArtifact::from_obs("paper_tables", &obs);
    let written = artifact.write_file(&artifact_path);
    match &written {
        Ok(()) => println!("# run artifact written to {}", artifact_path.display()),
        Err(err) => eprintln!("# run artifact FAILED ({}): {err}", artifact_path.display()),
    }
    println!("# total wall-clock {:.1}s", t0.elapsed().as_secs_f64());
    if written.is_err() {
        std::process::exit(1);
    }
}
