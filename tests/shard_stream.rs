//! The streaming sharded data path, exercised across crate boundaries:
//! bounded peak-resident scenes over many regions, order-independent shard
//! merges, and kill/resume at every record with byte-identical output.

use std::fs;
use std::sync::Arc;

use nbhd::prelude::*;
use nbhd_core::types::ImageLabels;
use nbhd_core::{
    merge_shard_annotations, QuarantineStage, ShardCoverage, ATTEMPT_RECORD_KIND,
    QUARANTINE_RECORD_KIND,
};
use nbhd_journal::journal_path;
use proptest::prelude::*;

#[test]
fn eight_region_survey_streams_with_bounded_memory() {
    // eight synthetic regions through eight shards: the whole survey
    // completes while no more scenes are ever resident than one shard holds
    let config = SurveyConfig {
        locations: 48,
        ..SurveyConfig::smoke(31)
    }
    .with_regions(RegionSet::synthetic_grid(8, 31));
    let plan = ShardPlan::new(8).unwrap();
    let outcome = run_supervised(&config, plan, SupervisePolicy::default(), None, None, None)
        .expect("8-region run");

    let total = outcome.survey().images().len();
    let largest = *outcome.shard_images().iter().max().unwrap();
    assert!(total > 0, "the survey must produce images");
    assert!(
        largest < total,
        "eight shards must each hold a strict subset ({largest} of {total})"
    );
    assert!(
        outcome.peak_resident_scenes() <= largest,
        "peak resident {} exceeds the largest shard's {largest} scenes",
        outcome.peak_resident_scenes()
    );
    // every region contributed points: the sample the run drew from spans
    // all eight, and the shards partition it completely
    let sample = SurveySample::draw_regions(
        &config.regions,
        config.locations,
        config.network_scale,
        config.seed,
    )
    .unwrap();
    let counties: std::collections::HashSet<&str> =
        sample.points().iter().map(|p| p.county.as_str()).collect();
    assert_eq!(
        counties.len(),
        8,
        "all eight regions must appear in the drawn sample: {counties:?}"
    );
    let sharded_points: usize = (0..8)
        .map(|s| sample.shard_points(&ShardPlan::new(8).unwrap(), s).len())
        .sum();
    assert_eq!(sharded_points, sample.points().len());
}

#[test]
fn the_surveys_meter_is_the_runs_bill() {
    // the merged survey's imagery meter reads what the run billed, and
    // every dataset image is prepaid: fetching one after the run is a
    // cache hit, never a second fee
    let config = SurveyConfig::smoke(32);
    for shards in [1usize, 3] {
        for journaled in [false, true] {
            let store: Option<Arc<dyn CheckpointStore>> =
                journaled.then(|| Arc::new(MemoryStore::new()) as Arc<dyn CheckpointStore>);
            let outcome = run_supervised(
                &config,
                ShardPlan::new(shards).unwrap(),
                SupervisePolicy::default(),
                None,
                store,
                None,
            )
            .unwrap();
            let survey = outcome.survey();
            let case = format!("{shards} shards, journaled {journaled}");
            let images = survey.images().len() as u64;
            let mut fees = 0.0f64;
            for _ in 0..images {
                fees += nbhd::gsv::FEE_PER_IMAGE_USD;
            }
            let billed = survey.imagery_usage();
            assert_eq!(billed.billed_images, images, "{case}");
            assert_eq!(billed.billed_images, outcome.billed_images(), "{case}");
            assert_eq!(billed.fees_usd.to_bits(), fees.to_bits(), "{case}");
            assert_eq!(
                billed.fees_usd.to_bits(),
                outcome.fees_usd().to_bits(),
                "{case}"
            );
            assert_eq!((billed.requests, billed.cache_hits), (images, 0), "{case}");

            survey.image(survey.images()[0]).unwrap();
            let after = survey.imagery_usage();
            assert_eq!(after.billed_images, billed.billed_images, "{case}");
            assert_eq!(
                after.fees_usd.to_bits(),
                billed.fees_usd.to_bits(),
                "{case}"
            );
            assert_eq!(after.cache_hits, billed.cache_hits + 1, "{case}");
            assert_eq!(after.requests, billed.requests + 1, "{case}");
        }
    }
}

#[test]
fn supervised_poison_run_has_schedule_independent_coverage() {
    // the same poison under serial and 4-worker execution must produce the
    // same partial dataset and a byte-identical coverage report: what got
    // covered is a property of the data, never of the schedule
    let config = SurveyConfig {
        locations: 16,
        ..SurveyConfig::smoke(73)
    };
    let plan = ShardPlan::new(3).unwrap();
    let poison = PoisonSchedule::new(config.seed)
        .with_panic_rate(0.25)
        .with_corrupt_rate(0.25);
    let policy = SupervisePolicy::default();

    let serial_cfg = SurveyConfig {
        parallelism: Parallelism::serial(),
        ..config.clone()
    };
    let par_cfg = SurveyConfig {
        parallelism: Parallelism::fixed(4),
        ..config.clone()
    };
    let serial = run_supervised(&serial_cfg, plan, policy, Some(poison), None, None).unwrap();
    let par = run_supervised(&par_cfg, plan, policy, Some(poison), None, None).unwrap();

    let report = serial.survey().coverage();
    assert!(report.quarantined_count() > 0, "poison must bite");
    assert!(report.fraction() < 1.0);
    assert_eq!(
        serde_json::to_vec(report).unwrap(),
        serde_json::to_vec(par.survey().coverage()).unwrap(),
        "coverage reports must be byte-identical across schedules"
    );
    assert_eq!(serial.survey().dataset(), par.survey().dataset());
}

#[test]
fn supervised_kill_resume_replays_quarantine_at_every_record() {
    // kill the supervised journaled run at every record boundary and resume:
    // the dataset, billing, coverage report, and the quarantine journal
    // itself must come out identical to an uninterrupted run, and no
    // quarantined location may ever be re-attempted
    let config = SurveyConfig {
        locations: 12,
        ..SurveyConfig::smoke(74)
    };
    kill_resume_at_every_record("nbhd-supervise", config, 2, false);
}

#[test]
fn side_by_side_shards_kill_resume_replays_quarantine_at_every_record() {
    // eight shards on four workers run side by side, so their records
    // interleave in the journal in a schedule-dependent order: the same
    // kill/resume guarantees hold, with the quarantine records compared by
    // key
    let config = SurveyConfig {
        locations: 12,
        parallelism: Parallelism::fixed(4),
        ..SurveyConfig::smoke(74)
    };
    kill_resume_at_every_record("nbhd-supervise-8", config, 8, true);
}

/// Kills a journaled, poisoned supervised run of `config` over `shards`
/// shards after every record in turn, resumes it, and checks the resumed
/// run against an uninterrupted one. With `by_key`, quarantine records are
/// compared in key order instead of journal order. Scratch journals live
/// under the temp directory, named from `prefix`.
fn kill_resume_at_every_record(prefix: &str, config: SurveyConfig, shards: usize, by_key: bool) {
    let plan = ShardPlan::new(shards).unwrap();
    let poison = PoisonSchedule::new(config.seed)
        .with_panic_rate(0.3)
        .with_corrupt_rate(0.2);
    let policy = SupervisePolicy::default();
    let manifest = RunManifest::for_config("supervised-stream", &config).unwrap();

    // the uninterrupted journaled run is the reference
    let ref_dir = std::env::temp_dir().join(format!("{prefix}-ref"));
    let _ = fs::remove_dir_all(&ref_dir);
    let journal = Journal::create(&ref_dir, &manifest).unwrap();
    let fresh = run_supervised(
        &config,
        plan,
        policy,
        Some(poison),
        Some(Arc::new(journal)),
        None,
    )
    .unwrap();
    let ref_scan = nbhd_journal::scan_file(&journal_path(&ref_dir)).unwrap();
    let total = ref_scan.records.len() as u64;
    let quarantine_journal = |scan: &nbhd_journal::JournalScan| -> Vec<(String, String)> {
        let mut records: Vec<(String, String)> = scan
            .records
            .iter()
            .filter(|r| r.kind == QUARANTINE_RECORD_KIND)
            .map(|r| (r.key.clone(), r.payload.to_string()))
            .collect();
        if by_key {
            records.sort();
        }
        records
    };
    let ref_quarantine = quarantine_journal(&ref_scan);
    let report = fresh.survey().coverage();
    assert!(!ref_quarantine.is_empty(), "poison must bite");
    assert_eq!(ref_quarantine.len(), report.quarantined_count());

    // attempt-ledger honesty: the raw journal holds exactly `attempts`
    // attempt records for every quarantined location
    for record in report.quarantine_records() {
        let key = record.location.0.to_string();
        let logged = ref_scan
            .records
            .iter()
            .filter(|r| r.kind == ATTEMPT_RECORD_KIND && r.key == key)
            .count();
        assert_eq!(
            logged as u32, record.attempts,
            "location {}",
            record.location
        );
    }
    fs::remove_dir_all(&ref_dir).unwrap();

    for after in 0..total {
        let dir = std::env::temp_dir().join(format!("{prefix}-kill-{after}"));
        let _ = fs::remove_dir_all(&dir);
        let journal = Journal::create(&dir, &manifest)
            .unwrap()
            .with_kill(KillSchedule::at(after));
        let _ = run_supervised(
            &config,
            plan,
            policy,
            Some(poison),
            Some(Arc::new(journal)),
            None,
        );

        let journal = Journal::open(&dir, &manifest).unwrap();
        let resumed = run_supervised(
            &config,
            plan,
            policy,
            Some(poison),
            Some(Arc::new(journal)),
            None,
        )
        .unwrap();
        assert_eq!(
            resumed.survey().dataset(),
            fresh.survey().dataset(),
            "kill at {after}: resumed dataset must be byte-identical"
        );
        assert_eq!(
            serde_json::to_vec(resumed.survey().coverage()).unwrap(),
            serde_json::to_vec(report).unwrap(),
            "kill at {after}: resumed coverage must be byte-identical"
        );
        assert_eq!(
            resumed.billed_images(),
            fresh.billed_images(),
            "kill at {after}"
        );
        assert_eq!(
            resumed.fees_usd().to_bits(),
            fresh.fees_usd().to_bits(),
            "kill at {after}"
        );

        // the quarantine journal across both processes is the reference
        // sequence: each poison location decided once, in the same order
        let scan = nbhd_journal::scan_file(&journal_path(&dir)).unwrap();
        assert_eq!(
            quarantine_journal(&scan),
            ref_quarantine,
            "kill at {after}: quarantine journal must replay, not re-execute"
        );
        // and the attempt ledger never exceeds the budget for any location
        for record in report.quarantine_records() {
            let key = record.location.0.to_string();
            let logged = scan
                .records
                .iter()
                .filter(|r| r.kind == ATTEMPT_RECORD_KIND && r.key == key)
                .count();
            assert_eq!(
                logged as u32, record.attempts,
                "kill at {after}: location {} was re-attempted",
                record.location
            );
        }
        // no capture was journaled twice across the two processes
        let capture_keys: Vec<&str> = scan
            .records
            .iter()
            .filter(|r| r.kind == nbhd_core::CAPTURE_RECORD_KIND)
            .map(|r| r.key.as_str())
            .collect();
        let unique: std::collections::HashSet<&str> = capture_keys.iter().copied().collect();
        assert_eq!(
            capture_keys.len(),
            unique.len(),
            "kill at {after}: a capture was journaled twice"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Builds a deterministic batch of labels from `(location, heading index)`
/// pairs, for exercising the merge in isolation.
fn labels_from(pairs: &[(u64, usize)]) -> Vec<ImageLabels> {
    pairs
        .iter()
        .map(|&(loc, h)| {
            ImageLabels::with_objects(
                ImageId::new(LocationId(loc), Heading::ALL[h % Heading::ALL.len()]),
                Vec::new(),
            )
        })
        .collect()
}

/// Strategy for a quarantine cause with a small deterministic payload.
fn cause_strategy() -> impl Strategy<Value = QuarantineCause> {
    prop_oneof![
        "[a-z]{0,8}".prop_map(QuarantineCause::Panic),
        "[a-z]{0,8}".prop_map(QuarantineCause::Corrupt),
        "[a-z]{0,8}".prop_map(QuarantineCause::Service),
    ]
}

/// Strategy for one internally-consistent shard coverage: planned is the
/// sum of completed, quarantined, and skipped.
fn shard_coverage_strategy() -> impl Strategy<Value = ShardCoverage> {
    (
        0usize..30,
        proptest::collection::vec((0u64..1000, 1u32..5, cause_strategy()), 0..5),
        proptest::collection::vec(0u64..1000, 0..4),
        proptest::bool::ANY,
    )
        .prop_map(|(completed, quars, skipped, timed_out)| {
            let quarantined: Vec<QuarantineRecord> = quars
                .into_iter()
                .map(|(loc, attempts, cause)| QuarantineRecord {
                    location: LocationId(loc),
                    stage: QuarantineStage::Capture,
                    attempts,
                    cause,
                })
                .collect();
            let skipped: Vec<LocationId> = skipped.into_iter().map(LocationId).collect();
            ShardCoverage {
                shard: 0,
                planned_locations: completed + quarantined.len() + skipped.len(),
                completed_locations: completed,
                completed_units: completed * 4,
                quarantined,
                skipped,
                outcome: if timed_out {
                    ShardOutcome::TimedOut
                } else {
                    ShardOutcome::Completed
                },
                regions: Vec::new(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // coverage aggregation algebra: report totals are exactly the per-shard
    // sums, the fraction is honest, and none of it depends on the order
    // shards arrive in
    #[test]
    fn coverage_report_totals_are_sums_and_shard_order_invariant(
        mut shards in proptest::collection::vec(shard_coverage_strategy(), 0..8),
        rotate in 0usize..8,
    ) {
        for (i, s) in shards.iter_mut().enumerate() {
            s.shard = i;
        }
        let report = CoverageReport { shards: shards.clone(), regions: Vec::new() };

        let planned: usize = shards.iter().map(|s| s.planned_locations).sum();
        let completed: usize = shards.iter().map(|s| s.completed_locations).sum();
        let quarantined: usize = shards.iter().map(|s| s.quarantined.len()).sum();
        let skipped: usize = shards.iter().map(|s| s.skipped.len()).sum();
        let retries: u64 = shards
            .iter()
            .flat_map(|s| s.quarantined.iter())
            .map(|r| u64::from(r.attempts - 1))
            .sum();
        prop_assert_eq!(report.planned_locations(), planned);
        prop_assert_eq!(report.completed_locations(), completed);
        prop_assert_eq!(report.quarantined_count(), quarantined);
        prop_assert_eq!(report.skipped_count(), skipped);
        prop_assert_eq!(report.retries(), retries);
        prop_assert_eq!(planned, completed + quarantined + skipped);

        // the fraction is honest: completed over planned, 1.0 on empty
        if planned == 0 {
            prop_assert_eq!(report.fraction(), 1.0);
        } else {
            let expect = completed as f64 / planned as f64;
            prop_assert!((report.fraction() - expect).abs() < 1e-12);
        }

        // every quarantine lands in exactly one cause bucket
        prop_assert_eq!(report.cause_counts().values().sum::<usize>(), quarantined);

        // shard arrival order must not change any aggregate
        let mut rotated = shards.clone();
        if !rotated.is_empty() {
            let len = rotated.len();
            rotated.rotate_left(rotate % len);
        }
        let shuffled = CoverageReport { shards: rotated, regions: Vec::new() };
        prop_assert_eq!(shuffled.planned_locations(), planned);
        prop_assert_eq!(shuffled.completed_locations(), completed);
        prop_assert_eq!(shuffled.quarantined_count(), quarantined);
        prop_assert_eq!(shuffled.skipped_count(), skipped);
        prop_assert_eq!(shuffled.retries(), retries);
        prop_assert_eq!(shuffled.cause_counts(), report.cause_counts());
        prop_assert_eq!(shuffled.timed_out_shards(), report.timed_out_shards());
        prop_assert!((shuffled.fraction() - report.fraction()).abs() < 1e-12);

        // the artifact projection has one row per shard
        prop_assert_eq!(report.run_coverage().shards.len(), shards.len());
    }

    // merge algebra: the merged dataset is a pure function of the multiset
    // of shard annotations — invariant to batch order and to how the units
    // are partitioned into batches
    #[test]
    fn shard_merge_is_invariant_to_batch_order_and_partitioning(
        pairs in proptest::collection::btree_set((0u64..500, 0usize..4), 0..60),
        cuts in proptest::collection::vec(0usize..60, 0..5),
        rotate in 0usize..5,
    ) {
        let pairs: Vec<(u64, usize)> = pairs.into_iter().collect();
        let units = labels_from(&pairs);

        // partition A: contiguous slices at the drawn cut points
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(units.len())).collect();
        bounds.sort_unstable();
        let mut batches_a: Vec<Vec<ImageLabels>> = Vec::new();
        let mut start = 0;
        for &b in &bounds {
            batches_a.push(units[start..b].to_vec());
            start = b;
        }
        batches_a.push(units[start..].to_vec());

        // partition B: the same batches, rotated (different arrival order)
        let mut batches_b = batches_a.clone();
        if !batches_b.is_empty() {
            let len = batches_b.len();
            batches_b.rotate_left(rotate % len);
        }

        // partition C: round-robin — an entirely different partitioning of
        // the same multiset
        let lanes = bounds.len() + 1;
        let mut batches_c: Vec<Vec<ImageLabels>> = vec![Vec::new(); lanes];
        for (i, unit) in units.iter().cloned().enumerate() {
            batches_c[i % lanes].push(unit);
        }

        let merged_a = merge_shard_annotations(batches_a);
        let merged_b = merge_shard_annotations(batches_b);
        let merged_c = merge_shard_annotations(batches_c);
        prop_assert_eq!(&merged_a, &merged_b);
        prop_assert_eq!(&merged_a, &merged_c);

        // the merge is sorted by image id and loses nothing
        prop_assert_eq!(merged_a.len(), units.len());
        prop_assert!(merged_a.windows(2).all(|w| w[0].image <= w[1].image));
    }

    // shard assignment is a pure function of location: every plan covers
    // every location exactly once, so shards partition any point set
    #[test]
    fn shard_assignment_partitions_locations(
        locs in proptest::collection::btree_set(0u64..10_000, 1..100),
        shards in 1usize..9,
    ) {
        let plan = ShardPlan::new(shards).unwrap();
        for &loc in &locs {
            let shard = plan.assign(LocationId(loc));
            prop_assert!(shard < shards);
            prop_assert_eq!(shard, plan.assign(LocationId(loc)), "assignment must be stable");
        }
    }
}
