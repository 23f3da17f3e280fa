//! The shard driver: the streaming shard pass under supervision — poison
//! quarantine, bounded retries, and honest partial-run coverage.
//!
//! [`run_supervised`] is the one survey driver ([`crate::SurveyPipeline`]
//! runs its one-shard case). It streams the survey shard by shard (the
//! `shard` module holds the stream's outcome and the merge), and survives
//! bad data instead of aborting on it. One private loop runs the shard
//! pass for every caller: `run_supervised` runs all shards in process, and
//! [`crate::run_shard_distributed`] runs one shard in its own process; one
//! private publish function turns either run's [`CoverageReport`] into
//! metrics, so the two agree by summation.
//!
//! Each capture-annotate unit runs under a panic catcher; a location whose
//! units fail is retried up to [`SupervisePolicy::max_attempts`] times with
//! deterministic virtual-clock backoff, then **quarantined** with a typed
//! [`QuarantineRecord`] journaled save-before-act — so a killed and resumed
//! run never re-executes known poison. A per-shard virtual-time watchdog
//! demotes a stuck shard to [`ShardOutcome::TimedOut`], preserving the
//! captures it completed. The merged survey carries a [`CoverageReport`]
//! stating exactly what was planned, completed, quarantined, and skipped —
//! per shard and per region — so partial runs are honest, never silent.
//!
//! # Determinism contract
//!
//! Every supervision decision is a pure function of the configuration, the
//! poison schedule, and the attempt ledger — never of thread scheduling or
//! wall time. Stall charges are made by the orchestrator over the *planned*
//! location set (whether or not a location executes this process), and
//! backoff is charged for ledger-replayed attempts exactly as for executed
//! ones, so serial and parallel runs, and a fresh run versus any
//! kill/resume interleaving, produce byte-identical coverage reports and
//! quarantine journals.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use nbhd_annotate::{HumanLabeler, LabeledDataset};
use nbhd_exec::{panic_message, ScopedPool};
use nbhd_geo::{ShardPlan, SurveySample};
use nbhd_gsv::{journaled_scenes, ImageRequest, PoisonSchedule, StreetViewService};
use nbhd_journal::{CheckpointStore, Replayable};
use nbhd_obs::{MetricsRegistry, Obs, VirtualClock};
use nbhd_types::rng::child_seed;
use nbhd_types::{Error, Heading, ImageId, ImageLabels, IndicatorMap, LocationId, Result};
use serde::{Deserialize, Serialize};

use crate::shard::{merge_shard_annotations, ShardedOutcome};
use crate::{
    SurveyConfig, SurveyDataset, SHARD_COUNT_METRIC, SHARD_PEAK_GAUGE, SHARD_WALL_MS_HIST,
};

/// Journal record kind for completed `(location, heading)` captures: the
/// payload is the verified human annotation for that image.
pub const CAPTURE_RECORD_KIND: &str = "capture";

/// Journal record kind for a completed shard, keyed `{shard}of{shards}`:
/// annotations plus the shard's coverage facts, so a resumed run replays
/// outcome and honesty together.
const SHARD_KIND: &str = "supervised-shard";

/// Journal record kind for quarantined locations. Key is the location id;
/// payload is the [`QuarantineRecord`]. Written save-before-act: once a
/// location's record exists, no process will ever capture it again.
pub const QUARANTINE_RECORD_KIND: &str = "quarantine";

/// Journal record kind for the per-location attempt ledger. One record is
/// appended after every *failed* attempt (cumulative count in the payload,
/// last-record-wins on replay), so the raw journal shows exactly as many
/// ledger entries for a poison location as capture attempts were made.
pub const ATTEMPT_RECORD_KIND: &str = "quarantine-attempt";

/// Counter: locations quarantined across the run.
pub const QUARANTINE_COUNT_METRIC: &str = "core.quarantine.count";

/// Counter: retry attempts spent on quarantined locations (attempts beyond
/// each location's first).
pub const QUARANTINE_RETRY_METRIC: &str = "core.quarantine.retries";

/// Counter prefix for the per-cause quarantine breakdown; the full metric
/// name is the prefix plus a [`QuarantineCause::slug`].
pub const QUARANTINE_CAUSE_PREFIX: &str = "core.quarantine.cause.";

/// Counter: shards that ran to completion.
pub const SHARD_OUTCOME_COMPLETED_METRIC: &str = "core.shard.outcome.completed";

/// Counter: shards the watchdog demoted to [`ShardOutcome::TimedOut`].
pub const SHARD_OUTCOME_TIMED_OUT_METRIC: &str = "core.shard.outcome.timed_out";

/// Gauge: the run's location coverage fraction (completed / planned).
pub const COVERAGE_FRACTION_GAUGE: &str = "core.coverage.fraction";

/// Counter prefix for per-class prevalence: the full metric name is the
/// prefix plus an [`nbhd_types::Indicator::label_key`] plus `.images`,
/// counting the annotated images in which that indicator appears at least
/// once. The counters are additive so a distributed run's shard values sum to the
/// single-process totals.
pub const CLASS_IMAGE_PREFIX: &str = "core.class.";

/// How the supervisor retries, backs off, and times out.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisePolicy {
    /// Capture attempts per location before quarantine (first try included).
    pub max_attempts: u32,
    /// Virtual milliseconds charged before each retry attempt.
    pub backoff_ms: u64,
    /// Virtual-time budget per shard; `None` disables the watchdog.
    pub shard_deadline_ms: Option<u64>,
    /// Locations dispatched per supervised batch under a
    /// `shard_deadline_ms`: the watchdog checks its deadline between
    /// batches. Without a deadline each shard is dispatched as one batch.
    pub batch_locations: usize,
}

impl Default for SupervisePolicy {
    fn default() -> SupervisePolicy {
        SupervisePolicy {
            max_attempts: 3,
            backoff_ms: 50,
            shard_deadline_ms: None,
            batch_locations: 8,
        }
    }
}

impl SupervisePolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when `max_attempts` or `batch_locations`
    /// is zero.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(Error::config("supervise: max_attempts must be >= 1"));
        }
        if self.batch_locations == 0 {
            return Err(Error::config("supervise: batch_locations must be >= 1"));
        }
        Ok(())
    }
}

/// Which pipeline stage a quarantine was charged to.
///
/// The supervised capture-annotate unit spans capture and labeling and is
/// charged to [`QuarantineStage::Capture`]; the other variants name the
/// pipeline's remaining failure domains so downstream supervised passes
/// (label audit, harvest/merge) stamp typed records of the same shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuarantineStage {
    /// The capture-annotate unit: scene compose, label pass, fee, annotation.
    Capture,
    /// A post-capture labeling or verification pass.
    Label,
    /// Folding shard outputs into the merged dataset.
    Harvest,
}

/// Why a location was quarantined. The payload strings are deterministic
/// (panic messages and error displays are pure functions of the input), so
/// quarantine journals are byte-comparable across runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuarantineCause {
    /// A worker panicked; the payload is the preserved panic message.
    Panic(String),
    /// The scene failed validation (corrupt data).
    Corrupt(String),
    /// The imagery service or journal refused the unit.
    Service(String),
}

impl QuarantineCause {
    /// Classifies a pipeline error: parse failures are corrupt data,
    /// everything else is charged to the service.
    pub fn from_error(error: &Error) -> QuarantineCause {
        match error {
            Error::Parse(message) => QuarantineCause::Corrupt(message.clone()),
            other => QuarantineCause::Service(other.to_string()),
        }
    }

    /// A stable metric-name suffix for this cause.
    pub fn slug(&self) -> &'static str {
        match self {
            QuarantineCause::Panic(_) => "panic",
            QuarantineCause::Corrupt(_) => "corrupt",
            QuarantineCause::Service(_) => "service",
        }
    }
}

/// The journaled fact that a location is poison: it was attempted
/// `attempts` times and will never be captured again.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// The quarantined location.
    pub location: LocationId,
    /// The stage the failures occurred in.
    pub stage: QuarantineStage,
    /// Total capture attempts made (first try included).
    pub attempts: u32,
    /// The final attempt's failure.
    pub cause: QuarantineCause,
}

impl Replayable for QuarantineRecord {
    const KIND: &'static str = QUARANTINE_RECORD_KIND;

    fn validate(&self, key: &str) -> std::result::Result<(), String> {
        check_ledger_entry(key, self.location, self.attempts)
    }
}

/// The rules a quarantine or attempt record shares: it is keyed by its
/// location's number and counts at least one attempt.
fn check_ledger_entry(
    key: &str,
    location: LocationId,
    attempts: u32,
) -> std::result::Result<(), String> {
    if location.0.to_string() != key {
        return Err(format!("the record is for {location}"));
    }
    if attempts == 0 {
        return Err("0 attempts".to_owned());
    }
    Ok(())
}

/// How a supervised shard ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardOutcome {
    /// Every planned location was completed, quarantined, or already
    /// journaled.
    Completed,
    /// The watchdog expired the shard's virtual-time budget; unvisited
    /// locations were skipped, completed captures preserved.
    TimedOut,
}

/// One shard's coverage facts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardCoverage {
    /// The shard index.
    pub shard: usize,
    /// Locations the plan assigned to this shard (coverage gaps excluded).
    pub planned_locations: usize,
    /// Locations whose four units all completed.
    pub completed_locations: usize,
    /// Capture-annotate units contributed to the merge.
    pub completed_units: usize,
    /// Locations quarantined, in ascending location order.
    pub quarantined: Vec<QuarantineRecord>,
    /// Locations never resolved before the watchdog fired, ascending.
    pub skipped: Vec<LocationId>,
    /// How the shard ended.
    pub outcome: ShardOutcome,
    /// Per-region rows for this shard, derived from the shard plan at run
    /// time (so a region whose locations were all quarantined or skipped
    /// still gets an honest row).
    pub regions: Vec<RegionCoverage>,
}

/// One region's coverage facts, aggregated over shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionCoverage {
    /// The region (county) name.
    pub region: String,
    /// Planned locations in the region.
    pub planned: usize,
    /// Completed locations in the region.
    pub completed: usize,
    /// Quarantined locations in the region.
    pub quarantined: usize,
    /// Skipped locations in the region.
    pub skipped: usize,
}

/// What a supervised run actually covered: per-shard and per-region counts,
/// typed quarantine causes, and the honest coverage fraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Per-shard coverage, in shard order.
    pub shards: Vec<ShardCoverage>,
    /// Per-region coverage, sorted by region name.
    pub regions: Vec<RegionCoverage>,
}

impl CoverageReport {
    /// Locations planned across all shards.
    pub fn planned_locations(&self) -> usize {
        self.shards.iter().map(|s| s.planned_locations).sum()
    }

    /// Locations fully completed across all shards.
    pub fn completed_locations(&self) -> usize {
        self.shards.iter().map(|s| s.completed_locations).sum()
    }

    /// Locations quarantined across all shards.
    pub fn quarantined_count(&self) -> usize {
        self.shards.iter().map(|s| s.quarantined.len()).sum()
    }

    /// Locations skipped by watchdog timeouts across all shards.
    pub fn skipped_count(&self) -> usize {
        self.shards.iter().map(|s| s.skipped.len()).sum()
    }

    /// Shards the watchdog demoted.
    pub fn timed_out_shards(&self) -> usize {
        self.shards
            .iter()
            .filter(|s| s.outcome == ShardOutcome::TimedOut)
            .count()
    }

    /// Retry attempts spent on quarantined locations (attempts beyond each
    /// location's first).
    pub fn retries(&self) -> u64 {
        self.quarantine_records()
            .map(|r| u64::from(r.attempts.saturating_sub(1)))
            .sum()
    }

    /// The honest coverage fraction: completed / planned locations (`1.0`
    /// for an empty plan).
    pub fn fraction(&self) -> f64 {
        let planned = self.planned_locations();
        if planned == 0 {
            return 1.0;
        }
        self.completed_locations() as f64 / planned as f64
    }

    /// Quarantine counts per cause slug, sorted by slug.
    pub fn cause_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for record in self.quarantine_records() {
            *counts.entry(record.cause.slug()).or_insert(0) += 1;
        }
        counts
    }

    /// Every quarantine record, in shard order then location order.
    pub fn quarantine_records(&self) -> impl Iterator<Item = &QuarantineRecord> {
        self.shards.iter().flat_map(|s| s.quarantined.iter())
    }

    /// Per-shard rows for [`nbhd_eval::render_coverage_table`].
    pub fn rows(&self) -> Vec<nbhd_eval::CoverageRow> {
        self.shards
            .iter()
            .map(|s| nbhd_eval::CoverageRow {
                label: format!("shard {}", s.shard),
                planned: s.planned_locations,
                completed: s.completed_locations,
                quarantined: s.quarantined.len(),
                skipped: s.skipped.len(),
                outcome: match s.outcome {
                    ShardOutcome::Completed => "completed".to_owned(),
                    ShardOutcome::TimedOut => "timed-out".to_owned(),
                },
            })
            .collect()
    }

    /// The artifact-side projection of this report: the coverage section
    /// a [`nbhd_obs::RunArtifact`] carries, built so that merging N
    /// per-shard projections reproduces the whole-run projection exactly
    /// (shard rows in index order, region rows summed by name).
    pub fn run_coverage(&self) -> nbhd_obs::RunCoverage {
        nbhd_obs::RunCoverage {
            shards: self
                .shards
                .iter()
                .map(|s| nbhd_obs::ShardCoverageRow {
                    shard: s.shard,
                    planned: s.planned_locations as u64,
                    completed: s.completed_locations as u64,
                    quarantined: s.quarantined.len() as u64,
                    skipped: s.skipped.len() as u64,
                    timed_out: s.outcome == ShardOutcome::TimedOut,
                })
                .collect(),
            regions: self
                .regions
                .iter()
                .map(|r| nbhd_obs::RegionCoverageRow {
                    region: r.region.clone(),
                    planned: r.planned as u64,
                    completed: r.completed as u64,
                    quarantined: r.quarantined as u64,
                    skipped: r.skipped as u64,
                })
                .collect(),
        }
    }

    /// Per-region rows for [`nbhd_eval::render_coverage_table`].
    pub fn region_rows(&self) -> Vec<nbhd_eval::CoverageRow> {
        self.regions
            .iter()
            .map(|r| nbhd_eval::CoverageRow {
                label: r.region.clone(),
                planned: r.planned,
                completed: r.completed,
                quarantined: r.quarantined,
                skipped: r.skipped,
                outcome: if r.completed == r.planned {
                    "complete".to_owned()
                } else {
                    "partial".to_owned()
                },
            })
            .collect()
    }
}

/// Journal payload for one completed shard. Its key names the shard and
/// the shard count, and every annotation must belong to that shard.
#[derive(Debug, Serialize, Deserialize)]
pub struct CompletedShard {
    annotations: Vec<ImageLabels>,
    peak_resident_scenes: usize,
    coverage: ShardCoverage,
}

impl Replayable for CompletedShard {
    const KIND: &'static str = SHARD_KIND;

    fn validate(&self, key: &str) -> std::result::Result<(), String> {
        let parsed = key
            .split_once("of")
            .and_then(|(i, n)| Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?)));
        let Some((shard, shards)) = parsed.filter(|&(i, n)| i < n) else {
            return Err("the key is not `{i}of{n}` with i < n".to_owned());
        };
        let plan = ShardPlan::new(shards).map_err(|e| e.to_string())?;
        if self.coverage.shard != shard {
            return Err(format!("the coverage is shard {}'s", self.coverage.shard));
        }
        for labels in &self.annotations {
            if plan.assign(labels.image.location) != shard {
                return Err(format!("labels are for {}", labels.image));
            }
            labels.check_boxes()?;
        }
        Ok(())
    }
}

/// Journal payload for one capture-annotate unit, keyed by its image id:
/// the verified human annotation of that image.
#[derive(Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct CaptureRecord(ImageLabels);

impl Replayable for CaptureRecord {
    const KIND: &'static str = CAPTURE_RECORD_KIND;

    fn validate(&self, key: &str) -> std::result::Result<(), String> {
        if self.0.image.to_string() != key {
            return Err(format!("labels are for {}", self.0.image));
        }
        self.0.check_boxes()
    }
}

/// Journal payload for one failed attempt: the cumulative attempt count and
/// the latest cause, so a resume after a crash mid-retry quarantines with
/// the recorded cause instead of re-executing known poison.
#[derive(Debug, Serialize, Deserialize)]
pub struct AttemptRecord {
    location: LocationId,
    attempts: u32,
    cause: QuarantineCause,
}

impl Replayable for AttemptRecord {
    const KIND: &'static str = ATTEMPT_RECORD_KIND;

    fn validate(&self, key: &str) -> std::result::Result<(), String> {
        check_ledger_entry(key, self.location, self.attempts)
    }
}

/// A phase-2 work item: either still pending retries or already a
/// journaled quarantine fact.
enum RetryEntry {
    Pending {
        attempts: u32,
        cause: QuarantineCause,
    },
    Quarantined(QuarantineRecord),
}

/// One capture-annotate unit: replay the journaled annotation when the
/// store has it, otherwise capture through the service (billing the scene
/// fee via the billing store first), annotate, and journal the result —
/// save-before-act end to end. Capture records are keyed by image id, so
/// they replay at any shard count.
fn capture_unit(
    service: &StreetViewService,
    labeler: &HumanLabeler,
    store: Option<&dyn CheckpointStore>,
    image_size: u32,
    location: LocationId,
    heading: Heading,
) -> Result<ImageLabels> {
    let id = ImageId::new(location, heading);
    // replay: the annotation was journaled after its scene fee, so a
    // journaled capture implies a journaled (restored, prepaid) fee — the
    // unit is skipped whole
    let CaptureRecord(labels) = nbhd_journal::replay_or(store, id, || {
        let request = ImageRequest::builder(location, heading)
            .size(image_size)
            .build()?;
        let capture = service.capture(&request)?;
        let truth = ImageLabels::with_objects(id, capture.objects);
        Ok(CaptureRecord(labeler.annotate(&truth, image_size)))
    })?;
    Ok(labels)
}

/// One capture-annotate unit under the panic catcher: a total function from
/// the unit to an annotation or a typed cause — never an unwind.
fn run_unit(
    service: &StreetViewService,
    labeler: &HumanLabeler,
    store: Option<&Arc<dyn CheckpointStore>>,
    image_size: u32,
    location: LocationId,
    heading: Heading,
) -> std::result::Result<ImageLabels, QuarantineCause> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let store = store.map(|s| s.as_ref());
        capture_unit(service, labeler, store, image_size, location, heading)
    }));
    match outcome {
        Ok(Ok(labels)) => Ok(labels),
        Ok(Err(error)) => Err(QuarantineCause::from_error(&error)),
        Err(payload) => Err(QuarantineCause::Panic(panic_message(payload.as_ref()))),
    }
}

/// Journals one failed attempt (cumulative count, latest cause).
fn save_attempt(
    store: Option<&Arc<dyn CheckpointStore>>,
    location: LocationId,
    attempts: u32,
    cause: &QuarantineCause,
) -> Result<()> {
    if let Some(store) = store {
        let record = AttemptRecord {
            location,
            attempts,
            cause: cause.clone(),
        };
        nbhd_journal::save(store.as_ref(), &location.0.to_string(), &record)?;
    }
    Ok(())
}

/// Runs the survey as a sharded stream: capture and label shard `0..n`,
/// each over its own shard-scoped service, then merge into one
/// [`SurveyDataset`] carrying an honest [`CoverageReport`]. This is the
/// only survey driver: [`crate::SurveyPipeline`] is its one-shard case
/// with `SupervisePolicy::default()` and no poison, and the merged dataset
/// does not depend on the shard count.
///
/// The survey's imagery meter is the run's bill: it starts at the scenes
/// billed (across every process, when journaled), their fees folded by
/// repeated addition, and the requests and cache hits this process's
/// shard services counted. Every scene the run billed or replayed is
/// prepaid, so a later pixel fetch of a dataset image is a cache hit.
///
/// Every capture-annotate unit runs under a panic catcher, so a failing
/// location is retried, then quarantined — it never aborts the run.
/// With `poison`, the given fault schedule is injected through the shard
/// services (the post-merge service is clean — quarantined locations are
/// excluded from the dataset, never re-fetched). With a `store`, completed
/// shards and units replay on resume and quarantined locations are **never
/// re-executed**. Each shard runs under a `shard-{i}` span with one
/// [`crate::SHARD_WALL_MS_HIST`] sample, the run publishes the shard,
/// quarantine and outcome counters, the peak and coverage gauges and the
/// class counts, and watchdog time runs on the bundle's clock: `obs`'s, or
/// a fresh one the outcome keeps when `obs` is `None`.
///
/// # Errors
///
/// Returns configuration errors, geography-sampling failures, store
/// failures (a journal kill included), or dataset-assembly failures.
/// Capture failures never abort the run — they quarantine.
pub fn run_supervised(
    config: &SurveyConfig,
    plan: ShardPlan,
    policy: SupervisePolicy,
    poison: Option<PoisonSchedule>,
    store: Option<Arc<dyn CheckpointStore>>,
    obs: Option<&Obs>,
) -> Result<ShardedOutcome> {
    let obs = obs.cloned().unwrap_or_default();
    let (sample, passes, paid) = drive_shards(
        config,
        plan,
        0..plan.shards(),
        policy,
        poison,
        store.as_ref(),
        &obs,
    )?;
    let peak = passes
        .iter()
        .map(|p| p.peak_resident_scenes)
        .max()
        .unwrap_or(0);
    let shard_images = passes.iter().map(|p| p.annotations.len()).collect();

    // The post-merge service is clean (quarantined locations are excluded
    // from the dataset, never re-fetched) and is the run's ledger: it
    // restores every fee journaled before this process began, including
    // fees for units of locations later quarantined, and each shard hands
    // over the scenes it billed fresh and the traffic it counted.
    let mut service = StreetViewService::new(config.seed, sample.points());
    if let Some(store) = &store {
        service = service.with_billing_store(Arc::clone(store), paid);
    }
    let mut batches = Vec::with_capacity(passes.len());
    let mut coverages = Vec::with_capacity(passes.len());
    for pass in passes {
        service = service.with_ledger(pass.billed, pass.requests, pass.cache_hits);
        batches.push(pass.annotations);
        coverages.push(pass.coverage);
    }
    let annotations = merge_shard_annotations(batches);
    let report = build_report(coverages);
    publish(obs.registry(), &report, peak, &annotations);
    let dataset = LabeledDataset::build(
        annotations,
        config.image_size,
        config.split,
        child_seed(config.seed, "split"),
    )?;

    let survey = SurveyDataset::from_parts(config.clone(), Arc::new(service), dataset, report);
    Ok(ShardedOutcome {
        survey,
        sample,
        plan,
        obs,
        peak_resident_scenes: peak,
        shard_images,
    })
}

/// Billing keys `(ImageId, size)` of scenes, as a service bills them.
type Scenes = Vec<(ImageId, u32)>;

/// What one shard pass produced.
pub(crate) struct ShardPass {
    /// The shard's merged-in annotations.
    pub(crate) annotations: Vec<ImageLabels>,
    /// The shard service's scene high-water mark.
    pub(crate) peak_resident_scenes: usize,
    /// Scenes billed fresh by this process, in billing order.
    pub(crate) billed: Scenes,
    /// Requests the shard service counted in this process.
    pub(crate) requests: u64,
    /// Cache hits the shard service counted in this process.
    pub(crate) cache_hits: u64,
    /// The shard's coverage facts.
    pub(crate) coverage: ShardCoverage,
}

/// A shard's share of what earlier processes journaled: its locations'
/// billed scenes, quarantine facts and attempt ledger.
#[derive(Default)]
struct Journaled {
    scenes: Scenes,
    quarantined: Vec<QuarantineRecord>,
    attempts: Vec<AttemptRecord>,
}

/// The one shard loop behind [`run_supervised`] (every shard) and
/// [`crate::run_shard_distributed`] (one shard in its own process).
/// Validates the config and policy, draws the sample, decodes the store's
/// journaled fees, quarantine facts and attempt ledger, and builds the
/// labeler and the pool (counting into `obs`) once; then runs each shard in
/// `shards` under its `shard-{i}` span with one wall-time sample per shard
/// and watchdog time on `obs`'s clock, handing it the journaled records of
/// its own locations. Returns the sample, the passes and every journaled
/// scene.
pub(crate) fn drive_shards(
    config: &SurveyConfig,
    plan: ShardPlan,
    shards: Range<usize>,
    policy: SupervisePolicy,
    poison: Option<PoisonSchedule>,
    store: Option<&Arc<dyn CheckpointStore>>,
    obs: &Obs,
) -> Result<(SurveySample, Vec<ShardPass>, Scenes)> {
    config.validate()?;
    policy.validate()?;
    let sample = SurveySample::draw_regions(
        &config.regions,
        config.locations,
        config.network_scale,
        config.seed,
    )?;
    let labeler = HumanLabeler::new(config.labeler_profile(), child_seed(config.seed, "labeler"));
    let pool = ScopedPool::new(config.parallelism).with_metrics(Arc::clone(obs.registry()));
    let paid = match store {
        Some(store) => journaled_scenes(store.as_ref())?,
        None => Vec::new(),
    };
    let mut journaled: Vec<Journaled> = (0..plan.shards()).map(|_| Journaled::default()).collect();
    for &scene in &paid {
        journaled[plan.assign(scene.0.location)].scenes.push(scene);
    }
    if let Some(store) = store {
        for (_, record) in nbhd_journal::load_all::<QuarantineRecord>(store.as_ref())? {
            journaled[plan.assign(record.location)]
                .quarantined
                .push(record);
        }
        for (_, record) in nbhd_journal::load_all::<AttemptRecord>(store.as_ref())? {
            journaled[plan.assign(record.location)]
                .attempts
                .push(record);
        }
    }

    let mut passes = Vec::with_capacity(shards.len());
    for shard in shards {
        let started = Instant::now();
        let stage = obs.tracer().enter(&format!("shard-{shard}"));
        let own = std::mem::take(&mut journaled[shard]);
        passes.push(run_shard_supervised(
            config,
            &sample,
            plan,
            shard,
            policy,
            poison,
            &labeler,
            &pool,
            obs.clock(),
            store,
            own,
        )?);
        stage.record();
        obs.registry()
            .record_wall_hist(SHARD_WALL_MS_HIST, started.elapsed().as_millis() as u64);
    }
    Ok((sample, passes, paid))
}

/// Publishes a shard run's metrics: the shard count, quarantine, cause and
/// outcome counters and the coverage gauge, all read from `report`; the
/// `peak` cached-scene-keys gauge; and the per-class prevalence counters over
/// `annotations`. Every counter is a per-report value, so N per-shard
/// processes publishing their own one-shard report sum to exactly what one
/// process publishes for the whole run.
pub(crate) fn publish(
    registry: &MetricsRegistry,
    report: &CoverageReport,
    peak: usize,
    annotations: &[ImageLabels],
) {
    registry.set(SHARD_COUNT_METRIC, report.shards.len() as u64);
    registry.set_gauge(SHARD_PEAK_GAUGE, peak as f64);
    registry.set(QUARANTINE_COUNT_METRIC, report.quarantined_count() as u64);
    registry.set(QUARANTINE_RETRY_METRIC, report.retries());
    for (slug, count) in report.cause_counts() {
        registry.set(&format!("{QUARANTINE_CAUSE_PREFIX}{slug}"), count as u64);
    }
    let timed_out = report.timed_out_shards();
    registry.set(
        SHARD_OUTCOME_COMPLETED_METRIC,
        (report.shards.len() - timed_out) as u64,
    );
    registry.set(SHARD_OUTCOME_TIMED_OUT_METRIC, timed_out as u64);
    registry.set_gauge(COVERAGE_FRACTION_GAUGE, report.fraction());
    // one walk over the labels: every pass publishes, and six walks over
    // a paper-scale survey cost more than the rest of the publish
    let mut images = IndicatorMap::fill(0u64);
    for labels in annotations {
        for indicator in labels.presence() {
            images[indicator] += 1;
        }
    }
    for (indicator, &count) in images.iter() {
        registry.add(
            &format!("{CLASS_IMAGE_PREFIX}{}.images", indicator.label_key()),
            count,
        );
    }
}

/// One supervised shard pass: the shard's merged-in annotations, its
/// service's scene high-water mark, freshly billed scenes, and its coverage
/// facts. `journaled` holds the journal's records of the shard's locations.
#[allow(clippy::too_many_arguments)]
fn run_shard_supervised(
    config: &SurveyConfig,
    sample: &SurveySample,
    plan: ShardPlan,
    shard: usize,
    policy: SupervisePolicy,
    poison: Option<PoisonSchedule>,
    labeler: &HumanLabeler,
    pool: &ScopedPool,
    clock: &Arc<VirtualClock>,
    store: Option<&Arc<dyn CheckpointStore>>,
    journaled: Journaled,
) -> Result<ShardPass> {
    let key = format!("{shard}of{}", plan.shards());
    if let Some(store) = store {
        // a completed supervised shard replays whole — annotations,
        // high-water mark, and coverage facts together, with no virtual
        // time charged (later shards' deadlines are relative, so replay
        // does not skew them)
        if let Some(record) = nbhd_journal::load::<CompletedShard>(store.as_ref(), &key)? {
            return Ok(ShardPass {
                annotations: record.annotations,
                peak_resident_scenes: record.peak_resident_scenes,
                billed: Vec::new(),
                requests: 0,
                cache_hits: 0,
                coverage: record.coverage,
            });
        }
    }

    let points = sample.shard_points(&plan, shard);
    let mut service = StreetViewService::new(config.seed, &points);
    if let Some(schedule) = poison {
        service = service.with_poison(schedule);
    }
    if let Some(store) = store {
        service = service.with_billing_store(Arc::clone(store), journaled.scenes);
    }
    let planned = service.covered_locations();
    let planned_set: HashSet<LocationId> = planned.iter().copied().collect();

    // Resume state: journaled quarantine facts are never re-executed, and
    // the attempt ledger resumes each failed location at its recorded count
    // with its recorded cause.
    let mut prior_quarantine: HashMap<LocationId, QuarantineRecord> = HashMap::new();
    let mut ledgered: BTreeMap<LocationId, (u32, QuarantineCause)> = BTreeMap::new();
    for record in journaled.quarantined {
        if planned_set.contains(&record.location) {
            prior_quarantine.insert(record.location, record);
        }
    }
    for record in journaled.attempts {
        if planned_set.contains(&record.location)
            && !prior_quarantine.contains_key(&record.location)
        {
            ledgered.insert(record.location, (record.attempts, record.cause));
        }
    }

    // The deadline is relative to shard entry on the shared virtual clock,
    // so watchdog decisions are invariant across resume and replay.
    let deadline = policy
        .shard_deadline_ms
        .map(|ms| clock.now_ms().saturating_add(ms));
    let expired =
        |timed_out: bool| -> bool { timed_out || deadline.is_some_and(|d| clock.now_ms() >= d) };

    let mut annotations: Vec<ImageLabels> = Vec::new();
    let mut completed_locations = 0usize;
    let mut failed: Vec<(LocationId, QuarantineCause)> = Vec::new();
    let mut skipped: Vec<LocationId> = Vec::new();
    let mut timed_out = false;

    // Phase 1: dispatch planned locations in batches through the pool.
    // Stall charges cover every planned location in the batch — executed,
    // ledgered, or quarantined — so virtual time is a function of the plan,
    // not of this process's history. Batches only give the watchdog its
    // granularity: without a deadline the shard is one batch.
    let batch = match policy.shard_deadline_ms {
        Some(_) => policy.batch_locations,
        None => planned.len(),
    }
    .max(1);
    let mut idx = 0usize;
    while idx < planned.len() {
        if expired(timed_out) {
            timed_out = true;
            break;
        }
        let chunk = &planned[idx..(idx + batch).min(planned.len())];
        if let Some(schedule) = poison {
            for &location in chunk {
                let stall = schedule.stall_ms(location);
                if stall > 0 {
                    clock.advance_ms(stall);
                }
            }
        }
        let exec: Vec<LocationId> = chunk
            .iter()
            .copied()
            .filter(|l| !prior_quarantine.contains_key(l) && !ledgered.contains_key(l))
            .collect();
        let pairs: Vec<(LocationId, Heading)> = exec
            .iter()
            .flat_map(|&location| Heading::ALL.iter().map(move |&heading| (location, heading)))
            .collect();
        let results = pool.map(&pairs, |&(location, heading)| {
            run_unit(
                &service,
                labeler,
                store,
                config.image_size,
                location,
                heading,
            )
        });
        let mut units = results.into_iter();
        for &location in &exec {
            let unit_results: Vec<_> = units.by_ref().take(Heading::ALL.len()).collect();
            match unit_results.iter().find_map(|r| r.as_ref().err()).cloned() {
                None => {
                    completed_locations += 1;
                    annotations.extend(
                        unit_results
                            .into_iter()
                            .map(|r| r.unwrap_or_else(|_| unreachable!("checked: no unit failed"))),
                    );
                }
                Some(cause) => {
                    save_attempt(store, location, 1, &cause)?;
                    failed.push((location, cause));
                }
            }
        }
        idx += chunk.len();
    }

    // Everything unreached by a timed-out phase 1 that has no recorded
    // history is skipped, honestly.
    let mut queue: BTreeMap<LocationId, RetryEntry> = BTreeMap::new();
    for (location, record) in prior_quarantine {
        queue.insert(location, RetryEntry::Quarantined(record));
    }
    for (location, (attempts, cause)) in ledgered {
        queue.insert(location, RetryEntry::Pending { attempts, cause });
    }
    for (location, cause) in failed {
        queue.insert(location, RetryEntry::Pending { attempts: 1, cause });
    }
    if timed_out {
        for &location in &planned[idx..] {
            if !queue.contains_key(&location) {
                skipped.push(location);
            }
        }
    }

    // Phase 2: retries and quarantine, serial on the orchestrator so the
    // quarantine/attempt record stream is written in one deterministic
    // order (ascending location).
    let mut quarantined: Vec<QuarantineRecord> = Vec::new();
    for (location, entry) in queue {
        if expired(timed_out) {
            timed_out = true;
            match entry {
                RetryEntry::Quarantined(record) => quarantined.push(record),
                RetryEntry::Pending { .. } => skipped.push(location),
            }
            continue;
        }
        match entry {
            RetryEntry::Quarantined(record) => {
                // charge the backoff its original retries cost, so resumed
                // virtual time matches the run that wrote the record
                clock.advance_ms(u64::from(record.attempts.saturating_sub(1)) * policy.backoff_ms);
                quarantined.push(record);
            }
            RetryEntry::Pending {
                attempts: prior,
                mut cause,
            } => {
                // ledger-consumed attempts charge exactly as executed ones
                clock.advance_ms(u64::from(prior.saturating_sub(1)) * policy.backoff_ms);
                let mut attempts = prior;
                let mut recovered = false;
                while attempts < policy.max_attempts {
                    attempts += 1;
                    clock.advance_ms(policy.backoff_ms);
                    let mut units: Vec<ImageLabels> = Vec::with_capacity(Heading::ALL.len());
                    let mut failure: Option<QuarantineCause> = None;
                    for &heading in &Heading::ALL {
                        match run_unit(
                            &service,
                            labeler,
                            store,
                            config.image_size,
                            location,
                            heading,
                        ) {
                            Ok(labels) => units.push(labels),
                            Err(c) => {
                                failure = Some(c);
                                break;
                            }
                        }
                    }
                    match failure {
                        None => {
                            completed_locations += 1;
                            annotations.extend(units);
                            recovered = true;
                            break;
                        }
                        Some(c) => {
                            cause = c;
                            save_attempt(store, location, attempts, &cause)?;
                        }
                    }
                }
                if !recovered {
                    let record = QuarantineRecord {
                        location,
                        stage: QuarantineStage::Capture,
                        attempts,
                        cause,
                    };
                    if let Some(store) = store {
                        // save-before-act: once journaled, no process will
                        // ever capture this location again
                        nbhd_journal::save(store.as_ref(), &location.0.to_string(), &record)?;
                    }
                    quarantined.push(record);
                }
            }
        }
    }
    skipped.sort_unstable();

    let regions = region_rows_for_shard(sample, &planned, &quarantined, &skipped);
    let coverage = ShardCoverage {
        shard,
        planned_locations: planned.len(),
        completed_locations,
        completed_units: annotations.len(),
        quarantined,
        skipped,
        outcome: if timed_out {
            ShardOutcome::TimedOut
        } else {
            ShardOutcome::Completed
        },
        regions,
    };
    let peak = service.peak_resident_scenes();
    if let Some(store) = store {
        let record = CompletedShard {
            annotations: annotations.clone(),
            peak_resident_scenes: peak,
            coverage: coverage.clone(),
        };
        nbhd_journal::save(store.as_ref(), &key, &record)?;
    }
    let usage = service.usage();
    Ok(ShardPass {
        annotations,
        peak_resident_scenes: peak,
        billed: service.billed_scenes(),
        requests: usage.requests,
        cache_hits: usage.cache_hits,
        coverage,
    })
}

/// One shard's per-region rows, derived from the shard *plan* — every
/// planned location contributes a `planned` count whether it completed,
/// quarantined, or was skipped. The supervised pass resolves each planned
/// location to exactly one of those three fates, so per-region `completed`
/// is the exact remainder `planned - quarantined - skipped`; deriving
/// `planned` from completed captures instead (the old `build_report` bug)
/// erased regions whose locations all failed.
fn region_rows_for_shard(
    sample: &SurveySample,
    planned: &[LocationId],
    quarantined: &[QuarantineRecord],
    skipped: &[LocationId],
) -> Vec<RegionCoverage> {
    let county_of: HashMap<LocationId, &str> = sample
        .points()
        .iter()
        .map(|p| (p.id, p.county.as_str()))
        .collect();
    let mut regions: BTreeMap<&str, RegionCoverage> = BTreeMap::new();
    for location in planned {
        let county = county_of.get(location).copied().unwrap_or("unknown");
        let entry = regions.entry(county).or_insert_with(|| RegionCoverage {
            region: county.to_owned(),
            planned: 0,
            completed: 0,
            quarantined: 0,
            skipped: 0,
        });
        entry.planned += 1;
    }
    for record in quarantined {
        let county = county_of
            .get(&record.location)
            .copied()
            .unwrap_or("unknown");
        if let Some(entry) = regions.get_mut(county) {
            entry.quarantined += 1;
        }
    }
    for location in skipped {
        let county = county_of.get(location).copied().unwrap_or("unknown");
        if let Some(entry) = regions.get_mut(county) {
            entry.skipped += 1;
        }
    }
    for entry in regions.values_mut() {
        entry.completed = entry
            .planned
            .saturating_sub(entry.quarantined)
            .saturating_sub(entry.skipped);
    }
    regions.into_values().collect()
}

/// Folds per-shard coverage into the run report. Region rows are computed
/// by each shard from its own plan ([`region_rows_for_shard`]); this fold
/// only sums them by region name — the same algebra
/// `nbhd_obs::RunCoverage::merge` applies across processes, so region
/// totals equal shard totals by construction.
pub(crate) fn build_report(shards: Vec<ShardCoverage>) -> CoverageReport {
    let mut regions: BTreeMap<String, RegionCoverage> = BTreeMap::new();
    for shard in &shards {
        for row in &shard.regions {
            let entry = regions
                .entry(row.region.clone())
                .or_insert_with(|| RegionCoverage {
                    region: row.region.clone(),
                    planned: 0,
                    completed: 0,
                    quarantined: 0,
                    skipped: 0,
                });
            entry.planned += row.planned;
            entry.completed += row.completed;
            entry.quarantined += row.quarantined;
            entry.skipped += row.skipped;
        }
    }
    CoverageReport {
        shards,
        regions: regions.into_values().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbhd_journal::MemoryStore;

    fn report_bytes(report: &CoverageReport) -> Vec<u8> {
        serde_json::to_vec(report).unwrap()
    }

    #[test]
    fn poisoned_run_is_partial_and_schedule_independent() {
        let config = SurveyConfig::smoke(62);
        let plan = ShardPlan::new(2).unwrap();
        let poison = PoisonSchedule::new(config.seed)
            .with_panic_rate(0.25)
            .with_corrupt_rate(0.25);
        let policy = SupervisePolicy::default();
        let serial = run_supervised(
            &SurveyConfig {
                parallelism: nbhd_exec::Parallelism::serial(),
                ..config.clone()
            },
            plan,
            policy,
            Some(poison),
            None,
            None,
        )
        .unwrap();
        let parallel = run_supervised(
            &SurveyConfig {
                parallelism: nbhd_exec::Parallelism::fixed(4),
                ..config.clone()
            },
            plan,
            policy,
            Some(poison),
            None,
            None,
        )
        .unwrap();
        let report = serial.survey().coverage();
        assert!(report.fraction() < 1.0, "poison must cost coverage");
        assert!(report.quarantined_count() > 0);
        assert!(
            report
                .quarantine_records()
                .all(|r| r.attempts == policy.max_attempts),
            "injected poison never recovers early"
        );
        let causes = report.cause_counts();
        assert!(causes.contains_key("panic") && causes.contains_key("corrupt"));
        assert_eq!(
            report_bytes(report),
            report_bytes(parallel.survey().coverage()),
            "coverage must be byte-identical at any worker count"
        );
        assert_eq!(serial.survey().dataset(), parallel.survey().dataset());
    }

    #[test]
    fn watchdog_demotes_a_stuck_shard_and_keeps_partial_captures() {
        let config = SurveyConfig::smoke(63);
        let plan = ShardPlan::one();
        let poison = PoisonSchedule::new(config.seed).with_stalls(1.0, 1_000);
        let policy = SupervisePolicy {
            shard_deadline_ms: Some(2_500),
            batch_locations: 2,
            ..SupervisePolicy::default()
        };
        let outcome = run_supervised(&config, plan, policy, Some(poison), None, None).unwrap();
        let report = outcome.survey().coverage();
        assert_eq!(report.timed_out_shards(), 1);
        assert_eq!(report.shards[0].outcome, ShardOutcome::TimedOut);
        assert!(report.skipped_count() > 0, "timeout must skip the tail");
        assert!(
            report.completed_locations() > 0,
            "completed captures are preserved"
        );
        assert!(report.fraction() < 1.0);
        assert_eq!(
            outcome.survey().dataset().images().len(),
            report.completed_locations() * Heading::ALL.len(),
            "dataset still builds from the partial captures"
        );
    }

    /// A store that counts how often each record kind is decoded whole.
    #[derive(Debug, Default)]
    struct CountingStore {
        inner: MemoryStore,
        decodes: std::sync::Mutex<BTreeMap<String, usize>>,
    }

    impl CheckpointStore for CountingStore {
        fn load(&self, kind: &str, key: &str) -> Option<serde_json::Value> {
            self.inner.load(kind, key)
        }

        fn load_kind(&self, kind: &str) -> Vec<(String, serde_json::Value)> {
            *self
                .decodes
                .lock()
                .unwrap()
                .entry(kind.to_owned())
                .or_default() += 1;
            self.inner.load_kind(kind)
        }

        fn save(
            &self,
            kind: &str,
            key: &str,
            payload: serde_json::Value,
        ) -> std::result::Result<(), nbhd_journal::JournalError> {
            self.inner.save(kind, key, payload)
        }
    }

    #[test]
    fn a_journaled_run_decodes_its_fees_once_at_any_shard_state() {
        let config = SurveyConfig::smoke(65);
        let plan = ShardPlan::new(4).unwrap();
        // fees, quarantine facts and the attempt ledger, once each per run
        let once: BTreeMap<String, usize> = [
            nbhd_gsv::FEE_RECORD_KIND,
            QUARANTINE_RECORD_KIND,
            ATTEMPT_RECORD_KIND,
        ]
        .into_iter()
        .map(|kind| (kind.to_owned(), 1))
        .collect();
        let run = |store: &Arc<CountingStore>| {
            let outcome = run_supervised(
                &config,
                plan,
                SupervisePolicy::default(),
                None,
                Some(Arc::clone(store) as Arc<dyn CheckpointStore>),
                None,
            )
            .unwrap();
            let decodes = std::mem::take(&mut *store.decodes.lock().unwrap());
            (outcome, decodes)
        };
        let usage = |outcome: &ShardedOutcome| {
            let usage = outcome.survey().imagery_usage();
            (usage.billed_images, usage.fees_usd.to_bits())
        };

        // fresh: every shard runs and bills
        let store = Arc::new(CountingStore::default());
        let (fresh, decodes) = run(&store);
        assert_eq!(decodes, once, "a fresh run");
        assert!(usage(&fresh).0 > 0);

        // resumed with every shard complete: every shard replays whole
        let (replayed, decodes) = run(&store);
        assert_eq!(decodes, once, "a run whose shards all replay");
        assert_eq!(usage(&replayed), usage(&fresh));

        // resumed with fees and captures but no shard record: every shard
        // runs again with its own scenes prepaid and bills nothing new
        let partial = Arc::new(CountingStore::default());
        for kind in [nbhd_gsv::FEE_RECORD_KIND, CAPTURE_RECORD_KIND] {
            for (key, payload) in store.inner.load_kind(kind) {
                partial.inner.save(kind, &key, payload).unwrap();
            }
        }
        let fees = partial.inner.load_kind(nbhd_gsv::FEE_RECORD_KIND).len();
        let (rerun, decodes) = run(&partial);
        assert_eq!(decodes, once, "a run whose shards all run again");
        assert_eq!(usage(&rerun), usage(&fresh));
        assert_eq!(rerun.survey().dataset(), fresh.survey().dataset());
        assert_eq!(
            partial.inner.load_kind(nbhd_gsv::FEE_RECORD_KIND).len(),
            fees,
            "a prepaid scene is never billed again"
        );
    }

    #[test]
    fn resume_replays_quarantine_without_reexecution() {
        let config = SurveyConfig::smoke(64);
        let plan = ShardPlan::new(2).unwrap();
        let poison = PoisonSchedule::new(config.seed).with_panic_rate(0.3);
        let policy = SupervisePolicy::default();
        let store: Arc<dyn CheckpointStore> = Arc::new(MemoryStore::new());
        let first = run_supervised(
            &config,
            plan,
            policy,
            Some(poison),
            Some(Arc::clone(&store)),
            None,
        )
        .unwrap();
        let fresh = run_supervised(&config, plan, policy, Some(poison), None, None).unwrap();
        assert_eq!(
            report_bytes(first.survey().coverage()),
            report_bytes(fresh.survey().coverage()),
            "journaling must not change coverage"
        );
        let resumed = run_supervised(
            &config,
            plan,
            policy,
            Some(poison),
            Some(Arc::clone(&store)),
            None,
        )
        .unwrap();
        assert_eq!(
            report_bytes(resumed.survey().coverage()),
            report_bytes(first.survey().coverage()),
            "resume must replay identical coverage"
        );
        assert_eq!(resumed.survey().dataset(), first.survey().dataset());
        assert_eq!(resumed.billed_images(), first.billed_images());
        assert_eq!(
            resumed.fees_usd().to_bits(),
            first.fees_usd().to_bits(),
            "quarantined locations must not be re-executed or re-billed"
        );
    }

    #[test]
    fn supervised_run_publishes_quarantine_metrics() {
        let config = SurveyConfig::smoke(65);
        let plan = ShardPlan::new(2).unwrap();
        let poison = PoisonSchedule::new(config.seed).with_corrupt_rate(0.3);
        let policy = SupervisePolicy::default();
        let obs = Obs::default();
        let outcome =
            run_supervised(&config, plan, policy, Some(poison), None, Some(&obs)).unwrap();
        let report = outcome.survey().coverage();
        assert!(report.quarantined_count() > 0);
        let summary = obs.summary();
        let counters = &summary.metrics.counters;
        assert_eq!(
            counters[QUARANTINE_COUNT_METRIC],
            report.quarantined_count() as u64
        );
        assert_eq!(counters[QUARANTINE_RETRY_METRIC], report.retries());
        assert_eq!(
            counters["core.quarantine.cause.corrupt"],
            report.cause_counts()["corrupt"] as u64
        );
        assert_eq!(counters[SHARD_OUTCOME_COMPLETED_METRIC], 2);
        assert_eq!(counters[SHARD_OUTCOME_TIMED_OUT_METRIC], 0);
        assert!(
            (summary.metrics.gauges[COVERAGE_FRACTION_GAUGE] - report.fraction()).abs() < 1e-12
        );
    }

    #[test]
    fn region_coverage_sums_match_shard_totals() {
        let config = SurveyConfig::smoke(66);
        let plan = ShardPlan::new(3).unwrap();
        let poison = PoisonSchedule::new(config.seed)
            .with_panic_rate(0.1)
            .with_corrupt_rate(0.1);
        let outcome = run_supervised(
            &config,
            plan,
            SupervisePolicy::default(),
            Some(poison),
            None,
            None,
        )
        .unwrap();
        let report = outcome.survey().coverage();
        assert_eq!(
            report.regions.iter().map(|r| r.planned).sum::<usize>(),
            report.planned_locations()
        );
        assert_eq!(
            report.regions.iter().map(|r| r.completed).sum::<usize>(),
            report.completed_locations()
        );
        assert_eq!(
            report.regions.iter().map(|r| r.quarantined).sum::<usize>(),
            report.quarantined_count()
        );
        assert_eq!(
            report.regions.iter().map(|r| r.skipped).sum::<usize>(),
            report.skipped_count()
        );
        let rows = report.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].label, "shard 0");
    }

    #[test]
    fn policy_validation_rejects_zero_knobs() {
        let config = SurveyConfig::smoke(67);
        let bad = SupervisePolicy {
            max_attempts: 0,
            ..SupervisePolicy::default()
        };
        assert!(run_supervised(&config, ShardPlan::one(), bad, None, None, None).is_err());
        let bad = SupervisePolicy {
            batch_locations: 0,
            ..SupervisePolicy::default()
        };
        assert!(bad.validate().is_err());
    }

    /// Runs one capture unit for `id` over a store that already holds
    /// `record` for it, so the unit replays instead of capturing.
    fn replay(id: ImageId, record: &str) -> Result<ImageLabels> {
        let store: Arc<dyn CheckpointStore> = Arc::new(nbhd_journal::MemoryStore::new());
        let value = serde_json::from_str(record).unwrap();
        store
            .save(CAPTURE_RECORD_KIND, &id.to_string(), value)
            .unwrap();
        let config = SurveyConfig::smoke(19);
        let labeler = HumanLabeler::new(config.labeler_profile(), 19);
        let service = StreetViewService::new(19, &[]);
        capture_unit(
            &service,
            &labeler,
            Some(store.as_ref()),
            128,
            id.location,
            id.heading,
        )
    }

    /// A capture record of one sidewalk box of width `w`.
    fn record(image: ImageId, w: f32) -> String {
        let bbox = nbhd_types::BBox::new(1.0, 2.0, w, 4.0);
        let object = nbhd_types::ObjectLabel::new(nbhd_types::Indicator::Sidewalk, bbox);
        serde_json::to_string(&ImageLabels::with_objects(image, vec![object])).unwrap()
    }

    fn assert_parse_error(out: Result<ImageLabels>, id: ImageId) {
        let prefix = format!("capture record {id}: ");
        assert!(
            matches!(&out, Err(Error::Parse(m)) if m.starts_with(&prefix)),
            "{out:?}"
        );
    }

    #[test]
    fn replayed_capture_record_for_another_image_is_a_parse_error() {
        let id = ImageId::new(LocationId(3), Heading::North);
        assert_eq!(replay(id, &record(id, 3.0)).unwrap().image, id);
        let other = ImageId::new(LocationId(4), Heading::North);
        assert_parse_error(replay(id, &record(other, 3.0)), id);
    }

    #[test]
    fn replayed_capture_record_with_a_bad_box_is_a_parse_error() {
        let id = ImageId::new(LocationId(3), Heading::East);
        assert_parse_error(replay(id, &record(id, -3.0)), id);
        // 1e39 overflows f32 to infinity on decode
        let infinite = record(id, 7.25).replace("7.25", "1e39");
        assert_ne!(infinite, record(id, 7.25));
        assert_parse_error(replay(id, &infinite), id);
    }

    #[test]
    fn a_shard_record_key_must_name_a_shard_of_its_plan() {
        let record = CompletedShard {
            annotations: Vec::new(),
            peak_resident_scenes: 0,
            coverage: ShardCoverage {
                shard: 0,
                planned_locations: 0,
                completed_locations: 0,
                completed_units: 0,
                quarantined: Vec::new(),
                skipped: Vec::new(),
                outcome: ShardOutcome::Completed,
                regions: Vec::new(),
            },
        };
        assert_eq!(record.validate("0of2"), Ok(()));
        for key in ["2of2", "0of0", "0of", "of2", "shard-0", "1of2"] {
            assert!(record.validate(key).is_err(), "{key}");
        }
    }

    #[test]
    fn a_replayed_shard_record_with_bad_labels_is_a_parse_error() {
        let config = SurveyConfig::smoke(68);
        let plan = ShardPlan::new(2).unwrap();
        let policy = SupervisePolicy::default();
        let store: Arc<dyn CheckpointStore> = Arc::new(MemoryStore::new());
        let first = run_supervised(&config, plan, policy, None, Some(store.clone()), None).unwrap();
        let journaled = store.load(SHARD_KIND, "0of2").unwrap();
        // resume over a journal holding only shard 0's (edited) record
        let resume = |edit: &dyn Fn(&mut ImageLabels)| {
            let mut record: CompletedShard = serde_json::from_value(journaled.clone()).unwrap();
            let labels = record
                .annotations
                .iter_mut()
                .find(|l| !l.objects.is_empty());
            edit(labels.expect("shard 0 labeled some object"));
            let store: Arc<dyn CheckpointStore> = Arc::new(MemoryStore::new());
            store
                .save(SHARD_KIND, "0of2", serde_json::to_value(&record).unwrap())
                .unwrap();
            run_supervised(&config, plan, policy, None, Some(store), None)
        };
        let replayed = resume(&|_| {}).unwrap();
        assert_eq!(replayed.survey().dataset(), first.survey().dataset());

        let elsewhere = (0..)
            .map(LocationId)
            .find(|&l| plan.assign(l) == 1)
            .unwrap();
        let keyed_elsewhere = resume(&|l| l.image.location = elsewhere).err().unwrap();
        let negative_box = resume(&|l| l.objects[0].bbox.w = -1.0).err().unwrap();
        for err in [keyed_elsewhere, negative_box] {
            assert!(
                matches!(&err, Error::Parse(m) if m.starts_with("supervised-shard record 0of2: ")),
                "{err:?}"
            );
        }
    }
}
