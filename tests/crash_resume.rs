//! Crash/resume torture harness for the run journal.
//!
//! The contract under test: kill the process at *any* point — after any
//! number of journal appends, with or without a torn half-written frame on
//! disk — resume from the run directory, and the final [`RunReport`]
//! (dataset JSON, detector weights, vote tallies, bootstrap interval, fee
//! totals) is byte-identical to an uninterrupted run. And no scene is ever
//! billed twice, under any kill point, at any parallelism.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nbhd_core::exec::Parallelism;
use nbhd_core::gsv::FEE_RECORD_KIND;
use nbhd_core::obs::Obs;
use nbhd_core::types::Result;
use nbhd_core::{run_observed, RunPlan, RunReport};
use nbhd_journal::{
    journal_path, scan_file, CheckpointStore, Journal, JournalError, KillSchedule, MemoryStore,
};

// the torture plan: small enough that the full pipeline runs in tens of
// milliseconds, large enough that the journal spans every record kind a
// study writes (fees, captures, the survey's shard record, the detector
// stage, votes, spans)
fn plan_with(parallelism: Parallelism) -> RunPlan {
    let mut plan = RunPlan::smoke(99);
    plan.survey.locations = 3;
    plan.survey.parallelism = parallelism;
    plan.epochs = 1;
    plan.resamples = 4;
    plan
}

/// One process of the study: the full run against `store`, unobserved.
fn run(plan: &RunPlan, store: Arc<dyn CheckpointStore>) -> Result<RunReport> {
    run_observed(plan, store, &Obs::default())
}

fn uninterrupted(plan: &RunPlan) -> RunReport {
    run(plan, Arc::new(MemoryStore::new())).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nbhd-crash-{name}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Every fee in the journal file names a distinct scene, and the report's
/// billed-image count equals the number of fee records — the
/// "no scene billed twice across restarts" invariant, checked against the
/// raw on-disk frames (not the keyed replay map, which would hide dupes).
fn assert_fees_unique(dir: &Path, report: &RunReport) {
    let scan = scan_file(&journal_path(dir)).unwrap();
    let fee_keys: Vec<&str> = scan
        .records
        .iter()
        .filter(|r| r.kind == FEE_RECORD_KIND)
        .map(|r| r.key.as_str())
        .collect();
    let unique: HashSet<&str> = fee_keys.iter().copied().collect();
    assert_eq!(
        fee_keys.len(),
        unique.len(),
        "a scene fee was journaled twice"
    );
    assert_eq!(
        unique.len() as u64,
        report.billed_images,
        "fee records must match billed scenes one-to-one"
    );
}

#[test]
fn parallel_and_serial_reports_agree() {
    let serial = uninterrupted(&plan_with(Parallelism::serial()));
    let par = uninterrupted(&plan_with(Parallelism::fixed(4)));
    assert_eq!(serial, par, "worker count must not change the run output");
    assert!(serial.billed_images > 0);
    assert!(serial.fees_usd > 0.0);
}

#[test]
fn every_record_kind_loads_the_same_value_live_and_reopened() {
    let plan = plan_with(Parallelism::fixed(4));
    let manifest = plan.manifest("roundtrip").unwrap();
    let dir = temp_dir("roundtrip");
    let live = Arc::new(Journal::create(&dir, &manifest).unwrap());
    run(&plan, Arc::clone(&live) as Arc<dyn CheckpointStore>).unwrap();
    let reopened = Journal::open(&dir, &manifest).unwrap();
    assert!(reopened.recovery_note().is_none());

    // the deep scan parses every frame; the last frame of a key wins
    let scan = scan_file(&journal_path(&dir)).unwrap();
    let records = scan.strict().unwrap().records;
    let kinds: BTreeSet<&str> = records.iter().map(|r| r.kind.as_str()).collect();
    assert_eq!(
        kinds,
        BTreeSet::from([
            "capture",
            "gsv-fee",
            "llm-vote",
            "obs-span",
            "stage",
            "supervised-shard"
        ])
    );
    let scanned: HashMap<(&str, &str), &serde_json::Value> = records
        .iter()
        .map(|r| ((r.kind.as_str(), r.key.as_str()), &r.payload))
        .collect();
    for ((kind, key), payload) in &scanned {
        let loaded = live.load(kind, key);
        assert_eq!(loaded.as_ref(), Some(*payload), "{kind} {key}: live");
        assert_eq!(reopened.load(kind, key), loaded, "{kind} {key}: reopened");
    }
    for kind in kinds {
        let loaded = live.load_kind(kind);
        let keys = scanned.keys().filter(|(k, _)| *k == kind).count();
        assert_eq!(loaded.len(), keys, "{kind}");
        assert_eq!(reopened.load_kind(kind), loaded, "{kind}");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_schedule_sweep_resumes_byte_identically() {
    for (pname, parallelism) in [
        ("serial", Parallelism::serial()),
        ("par4", Parallelism::fixed(4)),
    ] {
        let plan = plan_with(parallelism);
        let expected = uninterrupted(&plan);
        let manifest = plan.manifest("torture").unwrap();
        for &after in &[0u64, 1, 5, 17, 43, 100_000] {
            for &torn in &[0usize, 3, 9] {
                let dir = temp_dir(&format!("kill-{pname}-{after}-{torn}"));
                let journal = Journal::create(&dir, &manifest)
                    .unwrap()
                    .with_kill(KillSchedule::torn(after, torn));
                let first = run(&plan, Arc::new(journal));
                if let Ok(report) = &first {
                    // the kill point was beyond the journal's total record
                    // count: the run completes normally
                    assert_eq!(report, &expected, "{pname} after={after} torn={torn}");
                }

                // "restart the process": reopen the run directory and rerun
                let journal = Journal::open(&dir, &manifest).unwrap();
                if torn > 0 && first.is_err() {
                    assert!(
                        journal.recovery_note().is_some(),
                        "{pname} after={after} torn={torn}: torn tail must be reported"
                    );
                }
                let resumed = run(&plan, Arc::new(journal)).unwrap();
                assert_eq!(resumed, expected, "{pname} after={after} torn={torn}");
                assert_fees_unique(&dir, &resumed);
                fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}

#[test]
fn every_record_boundary_truncation_resumes_byte_identically() {
    let plan = plan_with(Parallelism::serial());
    let expected = uninterrupted(&plan);
    let manifest = plan.manifest("boundary").unwrap();

    // one full journaled run produces the reference journal bytes
    let full_dir = temp_dir("boundary-full");
    let journal = Journal::create(&full_dir, &manifest).unwrap();
    let report = run(&plan, Arc::new(journal)).unwrap();
    assert_eq!(report, expected, "journaling must not change the output");

    let bytes = fs::read(journal_path(&full_dir)).unwrap();
    let scan = scan_file(&journal_path(&full_dir)).unwrap();
    assert!(scan.corruption.is_none());
    let total = scan.records.len();
    assert!(
        total >= 20,
        "expected a substantive journal, got {total} records"
    );

    // plan identity ignores parallelism, so a serially journaled run may
    // be resumed with 4 workers: alternate to prove keyed replay is
    // schedule-independent
    let par4 = {
        let mut p = plan.clone();
        p.survey.parallelism = Parallelism::fixed(4);
        p
    };

    // cut the journal at every record boundary; every third cut leaves a
    // torn fragment of the next frame behind (5 bytes = inside the frame
    // prefix, 13 = inside the record body)
    for (i, &offset) in scan.offsets.iter().enumerate() {
        let torn = [0usize, 5, 13][i % 3];
        let cut = (offset as usize + torn).min(bytes.len());
        let dir = temp_dir(&format!("boundary-{i}"));
        fs::create_dir_all(&dir).unwrap();
        fs::copy(full_dir.join("manifest.json"), dir.join("manifest.json")).unwrap();
        fs::write(journal_path(&dir), &bytes[..cut]).unwrap();

        let journal = Journal::open(&dir, &manifest).unwrap();
        assert_eq!(
            journal.restored_records(),
            i as u64,
            "cut {i}: exactly the records before the cut survive"
        );
        assert_eq!(journal.recovery_note().is_some(), torn > 0, "cut {i}");
        let resume_plan = if i % 2 == 0 { &plan } else { &par4 };
        let resumed = run(resume_plan, Arc::new(journal)).unwrap();
        assert_eq!(resumed, expected, "cut {i} (torn {torn})");
        assert_fees_unique(&dir, &resumed);
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::remove_dir_all(&full_dir).unwrap();
}

#[test]
fn resume_with_a_different_plan_is_refused() {
    let plan = plan_with(Parallelism::serial());
    let manifest = plan.manifest("mismatch").unwrap();
    let dir = temp_dir("mismatch");
    let journal = Journal::create(&dir, &manifest)
        .unwrap()
        .with_kill(KillSchedule::at(4));
    assert!(run(&plan, Arc::new(journal)).is_err());

    // a different seed is a different run: resume is refused, the journal
    // is untouched
    let mut reseeded = plan.clone();
    reseeded.survey.seed = 100;
    assert!(matches!(
        Journal::open(&dir, &reseeded.manifest("mismatch").unwrap()),
        Err(JournalError::ConfigMismatch { .. })
    ));

    // but a different worker count is the *same* run, and resuming with it
    // still lands on the uninterrupted report
    let mut reparallel = plan.clone();
    reparallel.survey.parallelism = Parallelism::fixed(4);
    let journal = Journal::open(&dir, &reparallel.manifest("mismatch").unwrap()).unwrap();
    let resumed = run(&reparallel, Arc::new(journal)).unwrap();
    assert_eq!(resumed, uninterrupted(&plan));
    fs::remove_dir_all(&dir).unwrap();
}
