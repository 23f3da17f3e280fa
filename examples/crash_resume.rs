//! Crash-safe survey runs: start a journaled run, optionally crash it
//! partway through, and resume it from the same run directory.
//!
//! ```text
//! cargo run --release --example crash_resume -- ./my-run --kill 25
//! cargo run --release --example crash_resume -- ./my-run            # resumes
//! ```
//!
//! The first command journals every completed unit that costs to redo
//! (scene fees, captures, the survey's shard, the trained detector, LLM
//! votes) into `./my-run` and dies after 25 appends, leaving a
//! half-written frame behind — the mess a real power cut makes. The second
//! command validates the run manifest, truncates the torn tail, replays
//! the surviving records, and finishes the run with a report
//! byte-identical to one that never crashed. No scene fee is ever paid
//! twice.

use std::path::PathBuf;
use std::sync::Arc;

use nbhd::eval::render_run_summary;
use nbhd::journal::{journal_path, manifest_path, scan_file, Journal, KillSchedule};
use nbhd::obs::{Obs, RunArtifact};
use nbhd::{run_observed, RunPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let dir = PathBuf::from(args.next().unwrap_or_else(|| "nbhd-run".to_owned()));
    let kill: Option<u64> = match (args.next(), args.next()) {
        (Some(flag), Some(n)) if flag == "--kill" => Some(n.parse()?),
        (None, _) => None,
        _ => {
            eprintln!("usage: crash_resume <run-dir> [--kill <appends>]");
            std::process::exit(2);
        }
    };

    // The plan is the run's identity: its hash is stamped into the run
    // directory's manifest, and resuming under a different plan is refused.
    let plan = RunPlan::smoke(2025);
    let manifest = plan.manifest("crash-resume-demo")?;

    let resuming = manifest_path(&dir).exists();
    let journal = Journal::open_or_create(&dir, &manifest)?;
    if resuming {
        print!(
            "resuming {} with {} journaled records",
            dir.display(),
            journal.restored_records()
        );
        match journal.recovery_note() {
            Some(note) => println!(" (recovered from a crash: {note})"),
            None => println!(" (clean journal)"),
        }
    } else {
        println!("starting a fresh run in {}", dir.display());
    }

    let journal = match kill {
        Some(n) => {
            println!("simulated crash armed: dying after {n} more appends (torn write included)");
            journal.with_kill(KillSchedule::torn(n, 7))
        }
        None => journal,
    };

    let obs = Obs::default();
    match run_observed(&plan, Arc::new(journal), &obs) {
        Ok(report) => {
            println!("run complete:");
            println!("  images labeled : {}", report.dataset_json.lines().count());
            println!("  voted accuracy : {:.3}", report.voted_accuracy);
            println!(
                "  {:.0}% CI        : [{:.3}, {:.3}]",
                plan.level * 100.0,
                report.ci_lo,
                report.ci_hi
            );
            println!(
                "  imagery billed : {} scenes, ${:.3}",
                report.billed_images, report.fees_usd
            );
            println!("rerun with the same directory: everything replays, nothing is re-billed.");
            println!("\n{}", render_run_summary("Run summary", &obs.summary()));

            // Flight-recorder artifact: the run's deterministic surface,
            // ready to gate a later run against this one:
            //   cargo run -p nbhd-bench --bin run_diff -- \
            //       <run-dir>/artifact.json <other-run>/artifact.json
            let artifact_path = dir.join("artifact.json");
            RunArtifact::from_obs("crash-resume-demo", &obs).write_file(&artifact_path)?;
            println!("run artifact written to {}", artifact_path.display());
        }
        Err(err) => {
            println!("process died: {err}");
            let scan = scan_file(&journal_path(&dir))?;
            println!(
                "the journal preserved {} completed records; rerun with the same \
                 directory to resume from them.",
                scan.records.len()
            );
        }
    }
    Ok(())
}
