//! Distributed shard runs: one process executes one shard of a supervised
//! survey and exports a mergeable per-shard [`RunArtifact`].
//!
//! [`run_shard_distributed`] runs shard `i` of `N` through the very shard
//! loop [`crate::run_supervised`] runs in process, and publishes through
//! the same function: same plan assignment, same quarantine/retry/watchdog
//! decisions, same virtual-time charges — but only shard `i`, against its
//! own fresh [`Obs`] bundle whose clock starts at zero. The exported
//! artifact is stamped with a [`ShardIdentity`] whose `config_hash` is
//! computed by [`distributed_config_hash`]: the hash of the survey config
//! (worker count normalized out, exactly as [`nbhd_journal::RunManifest`] does),
//! the supervise policy, and the poison schedule. The shard *count* is
//! deliberately not hashed — like the worker count, how a run is
//! partitioned must not change what it computes — so the merge refuses
//! mismatched partitionings through [`ShardIdentity::count`] instead.
//!
//! # The cross-process determinism contract
//!
//! `RunArtifact::merge_shards` over the N per-shard artifacts is
//! **byte-identical on the deterministic surface** to the artifact
//! [`run_supervised_artifact`] records for the same run in one process,
//! at any shard count and any worker count:
//!
//! * each per-shard process roots its spans at `shard-i` on a clock
//!   starting at zero; the merge re-bases shard `i` by the summed extents
//!   of shards `0..i`, reproducing the single shared clock;
//! * counters are published from a one-shard [`crate::CoverageReport`]
//!   (this shard ran `1` shard, quarantined *its* locations, counted *its*
//!   class prevalence), so summation reproduces the single-process totals;
//! * coverage folds with the same region-sum algebra
//!   [`crate::CoverageReport`] pins in-process.

use std::sync::Arc;

use nbhd_exec::Parallelism;
use nbhd_geo::ShardPlan;
use nbhd_gsv::PoisonSchedule;
use nbhd_journal::CheckpointStore;
use nbhd_obs::{Obs, RunArtifact, ShardIdentity};
use nbhd_types::{Error, ImageLabels, Result};
use serde::Serialize;

use crate::shard::ShardedOutcome;
use crate::supervise::{build_report, drive_shards, publish};
use crate::{run_supervised, CoverageReport, ShardCoverage, SupervisePolicy, SurveyConfig};

/// The identity hash stamped into every shard's [`ShardIdentity`]: the
/// survey config with the worker count normalized to [`Parallelism::auto`]
/// (results are bit-identical at any setting, so it is not identity),
/// plus the supervise policy and poison schedule (which *do* change what
/// the run computes). The shard count is deliberately excluded — see the
/// module docs.
///
/// # Errors
///
/// Returns [`Error::Config`] when the identity cannot be serialized.
pub fn distributed_config_hash(
    config: &SurveyConfig,
    policy: &SupervisePolicy,
    poison: Option<PoisonSchedule>,
) -> Result<u64> {
    #[derive(Serialize)]
    struct Identity<'a> {
        survey: SurveyConfig,
        policy: &'a SupervisePolicy,
        poison: Option<PoisonSchedule>,
    }
    let identity = Identity {
        survey: SurveyConfig {
            parallelism: Parallelism::auto(),
            ..config.clone()
        },
        policy,
        poison,
    };
    nbhd_journal::config_hash(&identity)
        .map_err(|e| Error::config(format!("distributed identity: {e}")))
}

/// What one distributed shard process produced.
#[derive(Debug)]
pub struct DistributedShardRun {
    artifact: RunArtifact,
    report: CoverageReport,
    annotations: Vec<ImageLabels>,
    peak_resident_scenes: usize,
    billed_images: u64,
}

impl DistributedShardRun {
    /// The exported per-shard artifact (stamped and coverage-carrying).
    pub fn artifact(&self) -> &RunArtifact {
        &self.artifact
    }

    /// The shard's coverage facts.
    pub fn coverage(&self) -> &ShardCoverage {
        &self.report.shards[0]
    }

    /// The shard's merged-in annotations.
    pub fn annotations(&self) -> &[ImageLabels] {
        &self.annotations
    }

    /// The shard service's scene high-water mark.
    pub fn peak_resident_scenes(&self) -> usize {
        self.peak_resident_scenes
    }

    /// Scenes billed fresh by this process.
    pub fn billed_images(&self) -> u64 {
        self.billed_images
    }
}

/// Executes shard `index` of `shards` as its own process would: the shard
/// loop of [`run_supervised`] over shard `index` alone, against a fresh
/// [`Obs`] bundle (clock at zero, `shard-{index}` root span), publishing the
/// shard's one-shard coverage report so that summing N shards reproduces
/// the single-process run exactly.
///
/// With a `store`, the shard journals through it like the in-process
/// supervisor (quarantine facts, attempt ledger, completed-shard replay).
///
/// # Errors
///
/// Returns configuration errors (including `index >= shards`), sampling
/// failures, and store failures. Capture failures quarantine, never abort.
pub fn run_shard_distributed(
    name: &str,
    config: &SurveyConfig,
    shards: usize,
    index: usize,
    policy: SupervisePolicy,
    poison: Option<PoisonSchedule>,
    store: Option<Arc<dyn CheckpointStore>>,
) -> Result<DistributedShardRun> {
    let plan = ShardPlan::new(shards)?;
    if index >= shards {
        return Err(Error::config(format!(
            "shard index {index} outside 0..{shards}"
        )));
    }
    let config_hash = distributed_config_hash(config, &policy, poison)?;
    let obs = Obs::new();
    let (_, mut passes, _) = drive_shards(
        config,
        plan,
        index..index + 1,
        policy,
        poison,
        store.as_ref(),
        &obs,
    )?;
    let pass = passes.remove(0);
    let report = build_report(vec![pass.coverage]);
    publish(
        obs.registry(),
        &report,
        pass.peak_resident_scenes,
        &pass.annotations,
    );
    let artifact = RunArtifact::from_obs(name, &obs)
        .with_shard(ShardIdentity {
            index,
            count: shards,
            config_hash,
        })
        .with_coverage(report.run_coverage());
    Ok(DistributedShardRun {
        artifact,
        report,
        annotations: pass.annotations,
        peak_resident_scenes: pass.peak_resident_scenes,
        billed_images: pass.billed.len() as u64,
    })
}

/// Runs the whole supervised survey in this process against a fresh
/// [`Obs`] bundle and freezes it as the reference artifact (coverage
/// section attached) that a merged N-shard artifact must byte-match on
/// the deterministic surface.
///
/// # Errors
///
/// Propagates [`run_supervised`] errors and shard-plan validation.
pub fn run_supervised_artifact(
    name: &str,
    config: &SurveyConfig,
    shards: usize,
    policy: SupervisePolicy,
    poison: Option<PoisonSchedule>,
    store: Option<Arc<dyn CheckpointStore>>,
) -> Result<(RunArtifact, ShardedOutcome)> {
    let plan = ShardPlan::new(shards)?;
    let obs = Obs::new();
    let outcome = run_supervised(config, plan, policy, poison, store, Some(&obs))?;
    let coverage = outcome
        .coverage()
        .expect("run_supervised stamps coverage")
        .run_coverage();
    let artifact = RunArtifact::from_obs(name, &obs).with_coverage(coverage);
    Ok((artifact, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_hash_normalizes_workers_and_ignores_shard_count() {
        let config = SurveyConfig::smoke(31);
        let policy = SupervisePolicy::default();
        let serial = SurveyConfig {
            parallelism: Parallelism::serial(),
            ..config.clone()
        };
        let par = SurveyConfig {
            parallelism: Parallelism::fixed(4),
            ..config.clone()
        };
        let a = distributed_config_hash(&serial, &policy, None).unwrap();
        let b = distributed_config_hash(&par, &policy, None).unwrap();
        assert_eq!(a, b, "worker count is not identity");
        // there is no shard-count input at all: the hash cannot depend on it
        let seeded = SurveyConfig::smoke(32);
        assert_ne!(
            distributed_config_hash(&seeded, &policy, None).unwrap(),
            a,
            "the seed is identity"
        );
        let poisoned = distributed_config_hash(
            &config,
            &policy,
            Some(PoisonSchedule::new(31).with_panic_rate(0.1)),
        )
        .unwrap();
        assert_ne!(poisoned, a, "the poison schedule is identity");
        let retried = SupervisePolicy {
            max_attempts: 5,
            ..policy
        };
        assert_ne!(
            distributed_config_hash(&config, &retried, None).unwrap(),
            a,
            "the supervise policy is identity"
        );
    }

    #[test]
    fn out_of_range_shard_index_is_rejected() {
        let config = SurveyConfig::smoke(33);
        let err = run_shard_distributed("s", &config, 2, 2, SupervisePolicy::default(), None, None)
            .unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
    }

    #[test]
    fn shard_artifact_is_stamped_and_covered() {
        let config = SurveyConfig::smoke(34);
        let run = run_shard_distributed(
            "shard-0-of-2",
            &config,
            2,
            0,
            SupervisePolicy::default(),
            None,
            None,
        )
        .unwrap();
        let artifact = run.artifact();
        let identity = artifact.shard.expect("stamped");
        assert_eq!(identity.index, 0);
        assert_eq!(identity.count, 2);
        assert_eq!(
            identity.config_hash,
            distributed_config_hash(&config, &SupervisePolicy::default(), None).unwrap()
        );
        let coverage = artifact.coverage.as_ref().expect("coverage attached");
        assert_eq!(coverage.shards.len(), 1);
        assert_eq!(coverage.shards[0].shard, 0);
        assert_eq!(coverage.planned(), run.coverage().planned_locations as u64);
        assert!(
            artifact.spans.iter().all(|s| s.key.starts_with("shard-0")),
            "all spans rooted at the shard"
        );
    }
}
