//! Surviving bad data: poison quarantine, watchdog timeouts, and honest
//! coverage accounting under kill/resume.
//!
//! ```text
//! cargo run --release --example poison_drill
//! ```
//!
//! Three acts:
//!
//! 1. A survey where some locations are poison — captures panic or produce
//!    corrupt scenes. The supervised runner retries each with backoff,
//!    quarantines the persistent failures, and finishes with a partial
//!    dataset plus a coverage report that says exactly what was lost.
//! 2. A shard whose every capture stalls. The virtual-time watchdog demotes
//!    it to timed-out, keeps everything captured before the deadline, and
//!    the skipped tail is listed — never silently dropped.
//! 3. The same poisoned run, journaled, killed mid-flight, and resumed:
//!    quarantine decisions replay from the journal without re-executing a
//!    single poisoned capture, and the final coverage report is
//!    byte-identical to an uninterrupted run.
//!
//! The run is observed: quarantine counters, shard-outcome counters, and
//! the coverage gauge land in `target/poison_drill_artifact.json` (override
//! with `NBHD_ARTIFACT` — `scripts/check.sh` self-diffs two runs
//! to pin the failure-handling surface).

use std::fs;
use std::path::Path;
use std::sync::Arc;

use nbhd::eval::render_coverage_table;
use nbhd::journal::{journal_path, scan_file, verify_file};
use nbhd::prelude::*;
use nbhd_core::{
    COVERAGE_FRACTION_GAUGE, QUARANTINE_COUNT_METRIC, QUARANTINE_RECORD_KIND,
    QUARANTINE_RETRY_METRIC,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Poisoned captures panic on purpose; say nothing for those, and let
    // any other panic print as usual.
    nbhd::gsv::quiet_injected_panics();

    // 1. Poisoned locations: retries, quarantine, honest partial coverage.
    let obs = Obs::default();
    let config = SurveyConfig {
        locations: 24,
        ..SurveyConfig::smoke(2027)
    };
    let plan = ShardPlan::new(3).unwrap();
    let poison = PoisonSchedule::new(config.seed)
        .with_panic_rate(0.2)
        .with_corrupt_rate(0.2);
    let outcome = run_supervised(
        &config,
        plan,
        SupervisePolicy::default(),
        Some(poison),
        None,
        Some(&obs),
    )?;
    let report = outcome.survey().coverage().clone();
    println!(
        "poisoned survey: {} of {} locations completed ({:.1}% coverage), \
         {} quarantined after {} retries",
        report.completed_locations(),
        report.planned_locations(),
        report.fraction() * 100.0,
        report.quarantined_count(),
        report.retries(),
    );
    for (cause, count) in report.cause_counts() {
        println!("  cause {cause}: {count} locations");
    }
    println!();
    print!(
        "{}",
        render_coverage_table("Survey coverage", &report.run_coverage())
    );
    let summary = obs.summary();
    println!(
        "\nmetrics: {QUARANTINE_COUNT_METRIC} = {}, {QUARANTINE_RETRY_METRIC} = {}, \
         {COVERAGE_FRACTION_GAUGE} = {:.3}",
        summary.metrics.counters[QUARANTINE_COUNT_METRIC],
        summary.metrics.counters[QUARANTINE_RETRY_METRIC],
        summary.metrics.gauges[COVERAGE_FRACTION_GAUGE],
    );

    // 2. A stuck shard: every capture stalls, the watchdog fires, and the
    //    partial work survives.
    let stuck_cfg = SurveyConfig {
        locations: 12,
        ..SurveyConfig::smoke(2028)
    };
    let stalls = PoisonSchedule::new(stuck_cfg.seed).with_stalls(1.0, 1_000);
    let policy = SupervisePolicy {
        shard_deadline_ms: Some(2_500),
        batch_locations: 2,
        ..SupervisePolicy::default()
    };
    let stuck = run_supervised(
        &stuck_cfg,
        ShardPlan::one(),
        policy,
        Some(stalls),
        None,
        None,
    )?;
    let stuck_report = stuck.survey().coverage();
    println!(
        "\nstuck shard: watchdog fired after 2500 virtual ms — {} locations \
         captured, {} skipped, {} images preserved",
        stuck_report.completed_locations(),
        stuck_report.skipped_count(),
        stuck.survey().images().len(),
    );
    print!(
        "{}",
        render_coverage_table("Watchdog demotion", &stuck_report.run_coverage())
    );

    // 3. Kill mid-run, resume, and replay quarantine from the journal.
    let manifest = RunManifest::for_config("poison-drill", &config)?;
    let ref_dir = std::env::temp_dir().join("nbhd-poison-drill-ref");
    let kill_dir = std::env::temp_dir().join("nbhd-poison-drill-kill");
    let _ = fs::remove_dir_all(&ref_dir);
    let _ = fs::remove_dir_all(&kill_dir);

    let journal = Journal::create(&ref_dir, &manifest)?;
    let uninterrupted = run_supervised(
        &config,
        plan,
        SupervisePolicy::default(),
        Some(poison),
        Some(Arc::new(journal)),
        None,
    )?;
    let total_records = scan_file(&journal_path(&ref_dir))?.records.len() as u64;

    let journal =
        Journal::create(&kill_dir, &manifest)?.with_kill(KillSchedule::at(total_records / 3));
    let interrupted = run_supervised(
        &config,
        plan,
        SupervisePolicy::default(),
        Some(poison),
        Some(Arc::new(journal)),
        None,
    );
    assert!(interrupted.is_err(), "the kill must interrupt the run");
    println!(
        "\nkilled the journaled run at record {} of {total_records}; resuming...",
        total_records / 3
    );

    let journal = Journal::open(&kill_dir, &manifest)?;
    println!(
        "journal restored {} records ({} quarantine decisions replay, 0 re-executions)",
        journal.restored_records(),
        scan_file(&journal_path(&kill_dir))?
            .records
            .iter()
            .filter(|r| r.kind == QUARANTINE_RECORD_KIND)
            .count(),
    );
    let resumed = run_supervised(
        &config,
        plan,
        SupervisePolicy::default(),
        Some(poison),
        Some(Arc::new(journal)),
        None,
    )?;
    assert_eq!(
        serde_json::to_vec(resumed.survey().coverage())?,
        serde_json::to_vec(uninterrupted.survey().coverage())?,
        "resumed coverage must be byte-identical"
    );
    assert_eq!(resumed.survey().dataset(), uninterrupted.survey().dataset());
    assert_eq!(
        serde_json::to_vec(resumed.survey().coverage())?,
        serde_json::to_vec(&report)?,
        "journaled and unjournaled runs must agree on coverage"
    );
    println!("resumed run matches the uninterrupted run byte for byte");

    // deep-scan the resumed journal: every frame re-checksummed
    let audit = verify_file(&journal_path(&kill_dir))?;
    println!(
        "journal_fsck: {} records, {} bytes, clean = {}",
        audit.records,
        audit.file_len,
        audit.is_clean()
    );
    assert!(audit.is_clean());
    fs::remove_dir_all(&ref_dir).ok();
    fs::remove_dir_all(&kill_dir).ok();

    // 4. Export the flight-recorder artifact for later diffing.
    let artifact = RunArtifact::from_obs("poison_drill", &obs);
    let path = std::env::var("NBHD_ARTIFACT")
        .unwrap_or_else(|_| "target/poison_drill_artifact.json".to_string());
    artifact.write_file(Path::new(&path))?;
    println!("\nrun artifact written to {path}");
    Ok(())
}
