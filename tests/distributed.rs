//! The distributed-run contract, exercised across crate boundaries:
//! N per-process shard artifacts merge into an artifact byte-identical on
//! the deterministic surface to the single-process run, at any shard and
//! worker count; the merge algebra is order-invariant and refuses
//! mismatched runs with typed errors; and the coverage report's region
//! rows sum to its shard rows under every poison mix.

use nbhd::prelude::*;
use nbhd_obs::MergeError;
use proptest::prelude::*;

fn dist_config(seed: u64, parallelism: Parallelism) -> SurveyConfig {
    SurveyConfig {
        parallelism,
        ..SurveyConfig::smoke(seed)
    }
}

/// Runs every shard as its own fresh-Obs process would and merges.
fn merged_run(
    name: &str,
    config: &SurveyConfig,
    shards: usize,
    poison: Option<PoisonSchedule>,
) -> RunArtifact {
    let parts: Vec<RunArtifact> = (0..shards)
        .map(|index| {
            run_shard_distributed(
                name,
                config,
                shards,
                index,
                SupervisePolicy::default(),
                poison,
                None,
            )
            .expect("shard run")
            .artifact()
            .clone()
        })
        .collect();
    RunArtifact::merge_shards(name, &parts).expect("merge")
}

fn single_run(
    name: &str,
    config: &SurveyConfig,
    shards: usize,
    poison: Option<PoisonSchedule>,
) -> RunArtifact {
    run_supervised_artifact(
        name,
        config,
        shards,
        SupervisePolicy::default(),
        poison,
        None,
    )
    .expect("single-process run")
    .0
}

#[test]
fn merged_shards_byte_match_the_single_process_run() {
    for shards in [1usize, 2, 4, 8] {
        for parallelism in [Parallelism::serial(), Parallelism::fixed(4)] {
            let config = dist_config(41, parallelism);
            let single = single_run("dist", &config, shards, None);
            let merged = merged_run("dist", &config, shards, None);
            assert_eq!(
                merged.deterministic_text(),
                single.deterministic_text(),
                "deterministic surface must byte-match at {shards} shards, {parallelism:?}"
            );
            assert_eq!(
                merged.coverage, single.coverage,
                "coverage must fold to the single-process report at {shards} shards"
            );
            assert!(merged.shard.is_none(), "a merged artifact is a whole run");
            // the `.peak` gauge convention: the per-process high-water
            // marks max-fold to exactly the single-process value
            assert_eq!(
                merged.metrics.gauges.get(nbhd_core::SHARD_PEAK_GAUGE),
                single.metrics.gauges.get(nbhd_core::SHARD_PEAK_GAUGE),
                "peak-resident gauge must survive the merge at {shards} shards"
            );
            assert!(
                merged
                    .metrics
                    .gauges
                    .contains_key(nbhd_core::SHARD_PEAK_GAUGE),
                "both sides must actually publish the gauge"
            );
        }
    }
}

#[test]
fn merged_shards_byte_match_under_poison() {
    let poison = Some(
        PoisonSchedule::new(41)
            .with_panic_rate(0.2)
            .with_corrupt_rate(0.1),
    );
    let config = dist_config(41, Parallelism::serial());
    let single = single_run("poisoned", &config, 4, poison);
    let merged = merged_run("poisoned", &config, 4, poison);
    assert_eq!(merged.deterministic_text(), single.deterministic_text());
    assert_eq!(merged.coverage, single.coverage);
    let coverage = merged.coverage.as_ref().expect("coverage recorded");
    assert!(
        coverage.quarantined() > 0,
        "the poison mix must actually quarantine something for this test to bite"
    );
}

#[test]
fn merge_is_invariant_to_shard_arrival_order() {
    let config = dist_config(43, Parallelism::serial());
    let parts: Vec<RunArtifact> = (0..4)
        .map(|index| {
            run_shard_distributed(
                "order",
                &config,
                4,
                index,
                SupervisePolicy::default(),
                None,
                None,
            )
            .expect("shard run")
            .artifact()
            .clone()
        })
        .collect();
    let forward = RunArtifact::merge_shards("order", &parts).expect("merge");
    let mut scrambled: Vec<RunArtifact> = parts.clone();
    scrambled.reverse();
    scrambled.swap(1, 2);
    let backward = RunArtifact::merge_shards("order", &scrambled).expect("merge");
    assert_eq!(forward.deterministic_text(), backward.deterministic_text());
    assert_eq!(forward.coverage, backward.coverage);
}

#[test]
fn merge_refuses_mismatched_runs_with_typed_errors() {
    let config = dist_config(47, Parallelism::serial());
    let shard = |index: usize| {
        run_shard_distributed(
            "neg",
            &config,
            2,
            index,
            SupervisePolicy::default(),
            None,
            None,
        )
        .expect("shard run")
        .artifact()
        .clone()
    };
    let (zero, one) = (shard(0), shard(1));

    assert!(matches!(
        RunArtifact::merge_shards("neg", &[]),
        Err(MergeError::Empty)
    ));
    assert!(matches!(
        RunArtifact::merge_shards("neg", &[zero.clone(), zero.clone()]),
        Err(MergeError::DuplicateShard { index: 0 })
    ));
    assert!(matches!(
        RunArtifact::merge_shards("neg", std::slice::from_ref(&zero)),
        Err(MergeError::MissingShard { index: 1, count: 2 })
    ));

    // a shard from a different configuration: tampered identity hash
    let mut foreign = one.clone();
    let mut identity = foreign.shard.expect("stamped");
    identity.config_hash ^= 1;
    foreign.shard = Some(identity);
    assert!(matches!(
        RunArtifact::merge_shards("neg", &[zero.clone(), foreign]),
        Err(MergeError::ConfigHashMismatch { shard: 1, .. })
    ));

    // a shard from a different partitioning
    let mut repartitioned = one.clone();
    let mut identity = repartitioned.shard.expect("stamped");
    identity.count = 4;
    repartitioned.shard = Some(identity);
    assert!(matches!(
        RunArtifact::merge_shards("neg", &[zero.clone(), repartitioned]),
        Err(MergeError::ShardCountMismatch { .. })
    ));

    // an artifact that never was a shard
    let mut unstamped = one.clone();
    unstamped.shard = None;
    assert!(matches!(
        RunArtifact::merge_shards("neg", &[zero.clone(), unstamped]),
        Err(MergeError::MissingIdentity { .. })
    ));

    // a shard that recorded no coverage while its peers did: the merge
    // refuses rather than inventing full coverage for the silent shard
    let mut silent = one.clone();
    silent.coverage = None;
    assert!(matches!(
        RunArtifact::merge_shards("neg", &[zero, silent]),
        Err(MergeError::CoverageMissing { shard: 1 })
    ));
}

#[test]
fn rendered_html_report_is_self_contained() {
    let config = dist_config(53, Parallelism::serial());
    let merged = merged_run("report", &config, 2, None);
    let html = nbhd_core::eval::render_html_report(&merged);
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.trim_end().ends_with("</html>"));
    assert!(html.contains("id=\"chrome-trace\""));
    for needle in ["href=", "src="] {
        assert!(!html.contains(needle), "external reference via {needle}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite regression pin: the coverage report's per-region rows must
    /// account for exactly the locations the shard plan assigned — so the
    /// region totals equal the shard totals column for column, under every
    /// poison mix (the original bug derived `planned` from completions,
    /// undercounting regions whose locations quarantined).
    #[test]
    fn region_rows_sum_to_shard_rows_under_every_poison_mix(
        seed in 1u64..2000,
        panic_rate in 0.0f64..0.6,
        corrupt_rate in 0.0f64..0.4,
        shards in 1usize..5,
    ) {
        let config = SurveyConfig {
            locations: 12,
            ..SurveyConfig::smoke(seed)
        };
        let poison = Some(
            PoisonSchedule::new(seed)
                .with_panic_rate(panic_rate)
                .with_corrupt_rate(corrupt_rate),
        );
        let outcome = run_supervised(
            &config,
            ShardPlan::new(shards).unwrap(),
            SupervisePolicy::default(),
            poison,
            None,
            None,
        )
        .expect("supervised run");
        let report = outcome.coverage().expect("supervised runs report coverage");

        let shard_planned = report.planned_locations() as u64;
        let shard_completed = report.completed_locations() as u64;
        let shard_quarantined = report.quarantined_count() as u64;
        let shard_skipped = report.skipped_count() as u64;

        let region_planned: u64 = report.regions.iter().map(|r| r.planned).sum();
        let region_completed: u64 = report.regions.iter().map(|r| r.completed).sum();
        let region_quarantined: u64 = report.regions.iter().map(|r| r.quarantined).sum();
        let region_skipped: u64 = report.regions.iter().map(|r| r.skipped).sum();

        prop_assert_eq!(region_planned, shard_planned, "planned");
        prop_assert_eq!(region_completed, shard_completed, "completed");
        prop_assert_eq!(region_quarantined, shard_quarantined, "quarantined");
        prop_assert_eq!(region_skipped, shard_skipped, "skipped");
        // and the partition invariant inside every region row
        for row in &report.regions {
            prop_assert_eq!(
                row.completed + row.quarantined + row.skipped,
                row.planned,
                "region {} must partition planned into completed/quarantined/skipped",
                row.region.clone()
            );
        }
    }
}
