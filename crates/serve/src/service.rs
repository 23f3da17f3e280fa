//! The serving loop: serial admission, cross-tenant batching, tiered
//! execution, billing, and crash-safe journaling of every response and
//! rejection.
//!
//! # Determinism
//!
//! The whole decision surface — admissions, tiers, answers, bills, the
//! decision log — is identical at any [`Parallelism`]. The invariants
//! that make it so:
//!
//! * arrivals are processed in the total order of
//!   [`crate::Workload::into_sorted`], and every admission/shed decision
//!   happens in that serial loop;
//! * batches execute against a *frozen* service clock. The executor's
//!   accounting clock (which [`nbhd_client::send_resilient`] advances by
//!   per-attempt latency) is a private scratch clock; the service paces
//!   its own clock explicitly — up to each arrival time, then by a fixed
//!   service time per batch — so fault regimes and breaker cooldowns see
//!   the same timestamps regardless of worker interleaving;
//! * fault draws inside a batch are keyed by image and regime window
//!   ([`nbhd_client::DrawKeying::PerImage`]), not by a racing attempt
//!   counter;
//! * circuit breakers are probed once per batch and fed results in
//!   request order, after the (order-preserving) executor returns.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use nbhd_client::{
    BatchExecutor, BreakerConfig, CircuitBreaker, CostMeter, ExecutorConfig, FaultSchedule,
    HealthReport, ModelHealth, ModelRequest, ModelResponse, Parallelism, RetryPolicy,
    ScheduledTransport, SimulatedTransport, TokenBucket, Transport, TransportError, VirtualClock,
};
use nbhd_eval::{quorum_vote, QuorumPolicy, VoteFallback};
use nbhd_journal::{CheckpointStore, Replayable};
use nbhd_obs::{MetricsRegistry, MetricsSnapshot, Obs, RunArtifact, ARTIFACT_SCHEMA_VERSION};
use nbhd_prompt::{Language, Prompt, PromptMode};
use nbhd_types::rng::child_seed_n;
use nbhd_types::{Error, IndicatorSet, Result};
use nbhd_vlm::{paper_lineup, ImageContext, ModelProfile, SamplerParams, VisionModel};
use serde::{Deserialize, Serialize};

use crate::admission::{AdmissionController, Rejected, TenantGate};
use crate::detector::EvidenceDetector;
use crate::storm::{Arrival, Workload};
use crate::tenant::{TenantBill, TenantConfig};
use crate::tiers::{tier_ceiling, DegradePolicy, ServiceProvenance, ServiceTier};

/// Journal record kind for served responses.
pub const RESPONSE_RECORD_KIND: &str = "serve-response";

/// The durable record of one served response: enough to replay the
/// answer *and* the bill on resume without re-querying any model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseRecord {
    bits: u8,
    tier: ServiceTier,
    input_tokens: u64,
    output_tokens: u64,
    usd: f64,
    wait_ms: u64,
}

impl Replayable for ResponseRecord {
    const KIND: &'static str = RESPONSE_RECORD_KIND;

    fn validate(&self, _key: &str) -> std::result::Result<(), String> {
        if self.bits > IndicatorSet::FULL.bits() {
            return Err(format!("bits {:#b} name no indicator set", self.bits));
        }
        if !(self.usd.is_finite() && self.usd >= 0.0) {
            return Err(format!(
                "usd {} is not a finite amount of at least 0",
                self.usd
            ));
        }
        Ok(())
    }
}

/// Journal record kind for rejected arrivals.
pub const REJECTION_RECORD_KIND: &str = "serve-rejection";

/// The durable record of one rejection: its reason, so a resumed run
/// rejects the same arrival again without consulting quota, queue or
/// budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RejectionRecord {
    reason: Rejected,
}

impl Replayable for RejectionRecord {
    const KIND: &'static str = REJECTION_RECORD_KIND;
}

/// The idempotency key for one tenant request.
fn request_key(tenant: &str, request_id: u64) -> String {
    format!("{tenant}#{request_id}")
}

/// Service-wide configuration: the model panel, resilience knobs, batch
/// shape, and degradation policy.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The model panel as `(profile, voting)` pairs, preference order
    /// first (ties in ranked votes side with earlier voters).
    pub models: Vec<(ModelProfile, bool)>,
    /// Seed for scene ground truth, model behavior, and fault draws.
    pub survey_seed: u64,
    /// Vote policy for ensemble-tier answers.
    pub quorum: QuorumPolicy,
    /// Per-member circuit-breaker configuration.
    pub breaker: BreakerConfig,
    /// Fault regimes raging during the run; empty for a calm service.
    pub schedule: FaultSchedule,
    /// Worker threads per batch fan-out. Changes wall-clock only: the
    /// decision surface is identical at any value.
    pub parallelism: Parallelism,
    /// Requests per batch; a batch fires whenever this many are queued
    /// (and at drain time for the remainder).
    pub batch_size: usize,
    /// Global cap on queued requests across all tenants; beyond it the
    /// admission controller sheds with [`Rejected::Degraded`].
    pub global_queue_capacity: usize,
    /// Queue-depth thresholds for tier degradation.
    pub degrade: DegradePolicy,
    /// The detector answering bottom-tier requests.
    pub detector: EvidenceDetector,
    /// Virtual milliseconds one ensemble batch occupies the service.
    pub batch_service_ms: u64,
    /// Virtual milliseconds one detector-only batch occupies the service.
    pub detector_service_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            models: paper_lineup(),
            survey_seed: 0,
            quorum: QuorumPolicy::default(),
            breaker: BreakerConfig::default(),
            schedule: FaultSchedule::new(),
            parallelism: Parallelism::fixed(4),
            batch_size: 8,
            global_queue_capacity: 48,
            degrade: DegradePolicy::default(),
            detector: EvidenceDetector::default(),
            batch_service_ms: 1_500,
            detector_service_ms: 100,
        }
    }
}

/// One panel member: its transport stack and service-level breaker.
struct ServeMember {
    profile: ModelProfile,
    transport: Arc<dyn Transport>,
    base: Arc<SimulatedTransport>,
    breaker: CircuitBreaker,
    voting: bool,
}

// `dyn Transport` has no `Debug`, so the transport stack stays out of it.
impl std::fmt::Debug for ServeMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMember")
            .field("profile", &self.profile)
            .field("voting", &self.voting)
            .finish_non_exhaustive()
    }
}

/// An admitted request waiting for a batch.
#[derive(Debug, Clone)]
struct QueuedRequest {
    tenant: String,
    request_id: u64,
    arrival_ms: u64,
    deadline_ms: u64,
    context: ImageContext,
}

/// One tenant's live state: quota bucket, bounded queue, ledger.
#[derive(Debug)]
struct TenantState {
    config: TenantConfig,
    bucket: TokenBucket,
    queue: VecDeque<QueuedRequest>,
    bill: TenantBill,
    meter: Arc<CostMeter>,
    /// High-water mark of this tenant's queue, maintained in the serial
    /// admission loop and published as the end-of-run gauge
    /// `serve.tenant.<name>.queue_depth.peak`.
    peak_queue_depth: usize,
}

/// One served answer with full provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResponse {
    /// The tenant that submitted the request.
    pub tenant: String,
    /// The tenant-scoped request id.
    pub request_id: u64,
    /// The predicted indicator presence.
    pub presence: IndicatorSet,
    /// How the answer was produced.
    pub provenance: ServiceProvenance,
}

/// One rejected request with its typed reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// The tenant that submitted the request.
    pub tenant: String,
    /// The tenant-scoped request id.
    pub request_id: u64,
    /// Why the request was turned away.
    pub reason: Rejected,
}

/// Everything one service run produced: responses, typed rejections, the
/// serial decision log, per-tenant bills, and ensemble health.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Served responses, in serving order (replays at arrival order).
    pub responses: Vec<ServiceResponse>,
    /// Rejected requests, in arrival order.
    pub rejections: Vec<Rejection>,
    /// One line per admission/batch/serve decision, in decision order.
    pub decision_log: Vec<String>,
    /// Per-tenant ledgers, keyed by tenant name.
    pub bills: BTreeMap<String, TenantBill>,
    /// Per-model health at end of run.
    pub health: HealthReport,
}

impl RunReport {
    /// The decision log as one newline-terminated text blob — the
    /// deterministic surface pinned by the overload drill.
    pub fn decision_text(&self) -> String {
        let mut text = self.decision_log.join("\n");
        if !text.is_empty() {
            text.push('\n');
        }
        text
    }

    /// How many responses each tier served.
    pub fn tier_counts(&self) -> BTreeMap<ServiceTier, usize> {
        let mut counts = BTreeMap::new();
        for response in &self.responses {
            *counts.entry(response.provenance.tier).or_insert(0) += 1;
        }
        counts
    }
}

/// What one batch slot resolved to, before billing.
struct Served {
    presence: IndicatorSet,
    tier: ServiceTier,
    fallback: Option<VoteFallback>,
    deadline_blown: bool,
    input_tokens: u64,
    output_tokens: u64,
    usd: f64,
    lines: Vec<BillingLine>,
}

/// One queried model's contribution to a response's bill.
struct BillingLine {
    model: String,
    input: u64,
    output: u64,
    p_in: f64,
    p_out: f64,
    latency: f64,
}

/// Mutable run-scoped output being accumulated.
struct RunState {
    responses: Vec<ServiceResponse>,
    rejections: Vec<Rejection>,
    log: Vec<String>,
}

impl RunState {
    /// Reports one rejection: its cause counters, its decision-log line
    /// and the typed rejection. The caller bills it.
    fn reject(
        &mut self,
        registry: &MetricsRegistry,
        now: u64,
        tenant: String,
        request_id: u64,
        reason: Rejected,
        replayed: bool,
    ) {
        let cause = match &reason {
            Rejected::QueueFull { .. } => "queue_full",
            Rejected::QuotaExhausted { .. } => "quota",
            Rejected::BudgetExhausted => "budget",
            Rejected::Degraded { .. } => "shed",
        };
        registry.add(&format!("serve.rejected.{cause}"), 1);
        registry.add(&format!("serve.tenant.{tenant}.rejected.{cause}"), 1);
        let how = if replayed {
            "rejected (replayed)"
        } else {
            "rejected"
        };
        self.log
            .push(format!("[t={now}ms] {tenant}#{request_id} {how}: {reason}"));
        self.rejections.push(Rejection {
            tenant,
            request_id,
            reason,
        });
    }
}

/// The long-running multi-tenant survey service.
///
/// Drive it with [`SurveyService::run`] over a [`Workload`]; every
/// arrival is either served through some [`ServiceTier`] or rejected with
/// a typed [`Rejected`] — the service never queues unboundedly and never
/// drops a request silently.
#[derive(Debug)]
pub struct SurveyService {
    config: ServiceConfig,
    admission: AdmissionController,
    members: Vec<ServeMember>,
    tenants: BTreeMap<String, TenantState>,
    obs: Obs,
    /// Private clock fed to executors so per-attempt latency accounting
    /// never advances the service's own (frozen-during-batch) clock.
    scratch: Arc<VirtualClock>,
    meter: Arc<CostMeter>,
    checkpoint: Option<Arc<dyn CheckpointStore>>,
    prompt: Arc<Prompt>,
    params: SamplerParams,
    batches: u64,
}

impl SurveyService {
    /// A service with a fresh, unattached [`Obs`] bundle.
    pub fn new(config: ServiceConfig, tenants: Vec<TenantConfig>) -> SurveyService {
        SurveyService::assemble(config, tenants, Obs::new())
    }

    /// Rebuilds the service around a shared observability bundle (clock,
    /// metrics, tracer). Call before [`SurveyService::run`]: member
    /// transports and quota buckets are rebound to the new clock.
    #[must_use]
    pub fn with_obs(self, obs: Obs) -> SurveyService {
        let checkpoint = self.checkpoint.clone();
        let tenants = self.tenants.into_values().map(|t| t.config).collect();
        let mut service = SurveyService::assemble(self.config, tenants, obs);
        service.checkpoint = checkpoint;
        service
    }

    /// Journals served responses through `store` (save-before-act), so a
    /// killed run resumes without re-querying or double-billing.
    #[must_use]
    pub fn with_checkpoint(mut self, store: Arc<dyn CheckpointStore>) -> SurveyService {
        self.checkpoint = Some(store);
        self
    }

    fn assemble(config: ServiceConfig, tenants: Vec<TenantConfig>, obs: Obs) -> SurveyService {
        let clock = Arc::clone(obs.clock());
        let members = config
            .models
            .iter()
            .enumerate()
            .map(|(index, (profile, voting))| {
                let model = VisionModel::new(profile.clone(), config.survey_seed);
                let base = Arc::new(SimulatedTransport::new(
                    model,
                    config.survey_seed ^ (index as u64 + 1),
                ));
                let transport: Arc<dyn Transport> = if config.schedule.regimes().is_empty() {
                    Arc::clone(&base) as Arc<dyn Transport>
                } else {
                    Arc::new(
                        ScheduledTransport::new(
                            Arc::clone(&base) as Arc<dyn Transport>,
                            config.schedule.clone(),
                            Arc::clone(&clock),
                            child_seed_n(config.survey_seed, "serve-schedule", index as u64),
                        )
                        .with_image_keyed_draws(),
                    )
                };
                ServeMember {
                    profile: profile.clone(),
                    transport,
                    base,
                    breaker: CircuitBreaker::new(config.breaker, Arc::clone(&clock)),
                    voting: *voting,
                }
            })
            .collect();
        let tenants = tenants
            .into_iter()
            .map(|t| {
                let bucket = TokenBucket::new(t.quota_burst, t.quota_per_sec, Arc::clone(&clock));
                (
                    t.name.clone(),
                    TenantState {
                        bucket,
                        queue: VecDeque::new(),
                        bill: TenantBill::default(),
                        meter: Arc::new(CostMeter::new()),
                        peak_queue_depth: 0,
                        config: t,
                    },
                )
            })
            .collect();
        SurveyService {
            admission: AdmissionController::new(config.global_queue_capacity),
            members,
            tenants,
            obs,
            scratch: Arc::new(VirtualClock::new()),
            meter: Arc::new(CostMeter::new()),
            checkpoint: None,
            prompt: Arc::new(Prompt::build(Language::English, PromptMode::Parallel)),
            params: SamplerParams::default(),
            batches: 0,
            config,
        }
    }

    /// The service's observability bundle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The service-wide cost meter (every queried model, all tenants).
    pub fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }

    /// One tenant's own cost meter — the per-model ledger fed by exactly
    /// the billing lines on that tenant's bill — or `None` for an unknown
    /// tenant. Both sides price through
    /// [`nbhd_client::token_cost_usd`], so the meter's total matches the
    /// bill's USD (up to float summation order).
    pub fn tenant_meter(&self, tenant: &str) -> Option<Arc<CostMeter>> {
        self.tenants.get(tenant).map(|t| Arc::clone(&t.meter))
    }

    /// Exports one tenant's slice of the service observability as a
    /// standalone [`RunArtifact`] named `serve-tenant-<name>`, or `None`
    /// for an unknown tenant.
    ///
    /// The artifact carries every metric in the tenant's namespace —
    /// `serve.tenant.<name>.{admitted, rejected.*, replayed, tier.*}`
    /// counters, the `serve.tenant.<name>.wait_ms` histogram, and (after
    /// [`SurveyService::run`] returns) the `.queue_depth.peak` and
    /// `.usd` gauges — under their full names, so a per-tenant
    /// [`crate::SloSpec`] evaluates against it with the same budget
    /// engine that gates whole runs. Every value is maintained in the
    /// serial admission/finalize loop, so the artifact is byte-identical
    /// at any worker count.
    pub fn tenant_artifact(&self, tenant: &str) -> Option<RunArtifact> {
        if !self.tenants.contains_key(tenant) {
            return None;
        }
        fn scoped<V: Clone>(map: &BTreeMap<String, V>, prefix: &str) -> BTreeMap<String, V> {
            map.iter()
                .filter(|(name, _)| name.starts_with(prefix))
                .map(|(name, value)| (name.clone(), value.clone()))
                .collect()
        }
        let prefix = format!("serve.tenant.{tenant}.");
        let snapshot = self.obs.registry().snapshot();
        Some(RunArtifact {
            schema_version: ARTIFACT_SCHEMA_VERSION,
            name: format!("serve-tenant-{tenant}"),
            spans: Vec::new(),
            metrics: MetricsSnapshot {
                counters: scoped(&snapshot.counters, &prefix),
                wall_counters: scoped(&snapshot.wall_counters, &prefix),
                gauges: scoped(&snapshot.gauges, &prefix),
                histograms: scoped(&snapshot.histograms, &prefix),
                wall_histograms: scoped(&snapshot.wall_histograms, &prefix),
            },
            shard: None,
            coverage: None,
        })
    }

    /// Raw attempts that reached a model's base transport — zero when
    /// every response was replayed from the journal.
    pub fn api_attempts(&self, model: &str) -> u64 {
        self.members
            .iter()
            .filter(|m| m.profile.name == model)
            .map(|m| m.base.attempts())
            .sum()
    }

    /// Per-model health: usage counters plus breaker snapshots.
    pub fn health_report(&self) -> HealthReport {
        HealthReport {
            models: self
                .members
                .iter()
                .map(|m| ModelHealth {
                    model: m.profile.name.clone(),
                    usage: self.meter.usage(&m.profile.name).unwrap_or_default(),
                    breaker: m.breaker.snapshot(),
                })
                .collect(),
        }
    }

    fn total_queued(&self) -> usize {
        self.tenants.values().map(|t| t.queue.len()).sum()
    }

    /// Runs the workload to completion: every arrival is admitted and
    /// eventually served through some tier, or rejected with a typed
    /// reason. Batches fire whenever [`ServiceConfig::batch_size`]
    /// requests are queued, and the queue is drained at the end.
    ///
    /// # Errors
    ///
    /// Returns an error on journal I/O failure (including scheduled
    /// crash points), corrupt journal payloads, or a workload naming an
    /// unknown tenant.
    pub fn run(&mut self, workload: Workload) -> Result<RunReport> {
        let obs = self.obs.clone();
        let stage = obs.tracer().enter("serve");
        let batch_size = self.config.batch_size.max(1);
        let mut state = RunState {
            responses: Vec::new(),
            rejections: Vec::new(),
            log: Vec::new(),
        };
        for arrival in workload.into_sorted() {
            let now = obs.clock().now_ms();
            if arrival.at_ms > now {
                obs.clock().advance_ms(arrival.at_ms - now);
            }
            self.handle_arrival(arrival, &mut state)?;
            while self.total_queued() >= batch_size {
                self.run_batch(&mut state)?;
            }
        }
        while self.total_queued() > 0 {
            self.run_batch(&mut state)?;
        }
        stage.record();
        self.meter.publish(obs.registry());
        self.publish_breakers(obs.registry());
        self.publish_tenants(obs.registry());
        Ok(RunReport {
            responses: state.responses,
            rejections: state.rejections,
            decision_log: state.log,
            bills: self
                .tenants
                .iter()
                .map(|(name, t)| (name.clone(), t.bill))
                .collect(),
            health: self.health_report(),
        })
    }

    /// Decides one arrival: journal replay, admission, or typed
    /// rejection.
    fn handle_arrival(&mut self, arrival: Arrival, state: &mut RunState) -> Result<()> {
        let registry = Arc::clone(self.obs.registry());
        let now = self.obs.clock().now_ms();
        let Arrival {
            tenant,
            request_id,
            context,
            ..
        } = arrival;

        // Replay check runs before admission: a journaled response burns
        // no quota and bills exactly once, from the record; a journaled
        // rejection rejects again for its recorded reason.
        let key = request_key(&tenant, request_id);
        if let Some(store) = &self.checkpoint {
            if let Some(record) = nbhd_journal::load::<RejectionRecord>(store.as_ref(), &key)? {
                self.tenants
                    .get_mut(&tenant)
                    .ok_or_else(|| Error::config(format!("unknown tenant {tenant}")))?
                    .bill
                    .rejected += 1;
                state.reject(&registry, now, tenant, request_id, record.reason, true);
                return Ok(());
            }
            if let Some(record) = nbhd_journal::load::<ResponseRecord>(store.as_ref(), &key)? {
                let tier = record.tier;
                let t = self
                    .tenants
                    .get_mut(&tenant)
                    .ok_or_else(|| Error::config(format!("unknown tenant {tenant}")))?;
                t.bill.served += 1;
                t.bill.replayed += 1;
                t.bill.input_tokens += record.input_tokens;
                t.bill.output_tokens += record.output_tokens;
                t.bill.usd += record.usd;
                t.meter.record_success(
                    "replayed",
                    record.input_tokens,
                    record.output_tokens,
                    0.0,
                    0.0,
                    0.0,
                    1,
                );
                registry.add("serve.replayed", 1);
                registry.add(&format!("serve.tenant.{tenant}.replayed"), 1);
                state.log.push(format!(
                    "[t={now}ms] {tenant}#{request_id} replayed tier={tier}"
                ));
                state.responses.push(ServiceResponse {
                    tenant,
                    request_id,
                    presence: IndicatorSet::from_bits(record.bits),
                    provenance: ServiceProvenance {
                        tier,
                        batch: 0,
                        queried: Vec::new(),
                        fallback: None,
                        replayed: true,
                        wait_ms: record.wait_ms,
                        deadline_blown: false,
                    },
                });
                return Ok(());
            }
        }

        let total = self.total_queued();
        registry.record_hist("serve.queue_depth", total as u64);
        let admission = self.admission;
        let tenant_state = self
            .tenants
            .get_mut(&tenant)
            .ok_or_else(|| Error::config(format!("unknown tenant {tenant}")))?;
        let gate = TenantGate {
            queue_depth: tenant_state.queue.len(),
            queue_capacity: tenant_state.config.queue_capacity,
            spent_usd: tenant_state.bill.usd,
            budget_usd: tenant_state.config.budget_usd,
        };
        match admission.admit(&gate, &tenant_state.bucket, total) {
            Ok(()) => {
                tenant_state.bill.admitted += 1;
                let deadline_ms = now.saturating_add(tenant_state.config.deadline_ms);
                let depth = tenant_state.queue.len() + 1;
                let capacity = tenant_state.config.queue_capacity;
                tenant_state.queue.push_back(QueuedRequest {
                    tenant: tenant.clone(),
                    request_id,
                    arrival_ms: now,
                    deadline_ms,
                    context,
                });
                tenant_state.peak_queue_depth = tenant_state.peak_queue_depth.max(depth);
                registry.add("serve.admitted", 1);
                registry.add(&format!("serve.tenant.{tenant}.admitted"), 1);
                state.log.push(format!(
                    "[t={now}ms] {tenant}#{request_id} admitted (queue {depth}/{capacity}, global {}/{})",
                    total + 1,
                    admission.global_capacity()
                ));
            }
            Err(reason) => {
                // save-before-act: the rejection is journaled before it
                // is reported
                if let Some(store) = &self.checkpoint {
                    let record = RejectionRecord {
                        reason: reason.clone(),
                    };
                    nbhd_journal::save(store.as_ref(), &key, &record)?;
                }
                tenant_state.bill.rejected += 1;
                state.reject(&registry, now, tenant, request_id, reason, false);
            }
        }
        Ok(())
    }

    /// Executes one batch: picks requests round-robin across tenants,
    /// chooses the tier from live signals, fans out, votes, bills.
    fn run_batch(&mut self, state: &mut RunState) -> Result<()> {
        let obs = self.obs.clone();
        let registry = Arc::clone(obs.registry());
        let depth_before = self.total_queued();
        if depth_before == 0 {
            return Ok(());
        }
        let batch_size = self.config.batch_size.max(1);

        // Round-robin across tenants (name order) so one noisy tenant
        // cannot starve the rest out of a batch.
        let mut picked: Vec<QueuedRequest> = Vec::new();
        loop {
            let before = picked.len();
            for t in self.tenants.values_mut() {
                if picked.len() >= batch_size {
                    break;
                }
                if let Some(request) = t.queue.pop_front() {
                    picked.push(request);
                }
            }
            if picked.len() == before || picked.len() >= batch_size {
                break;
            }
        }
        if picked.is_empty() {
            return Ok(());
        }
        self.batches += 1;
        let batch = self.batches;
        let span_name = format!("serve-batch-{batch}");
        let stage = obs.tracer().enter(&span_name);
        let now = obs.clock().now_ms();

        // Tier choice: queue depth caps it, breaker health may degrade it
        // further. Breakers are only probed when models might be queried,
        // so a saturated (detector-only) batch never consumes half-open
        // probe allowance.
        let depth_tier = tier_ceiling(&self.config.degrade, depth_before);
        let mut healthy = vec![false; self.members.len()];
        if depth_tier != ServiceTier::DetectorOnly {
            for (i, member) in self.members.iter().enumerate() {
                healthy[i] = member.breaker.try_acquire().is_ok();
            }
        }
        let voters = self.members.iter().filter(|m| m.voting).count();
        let healthy_voters = self
            .members
            .iter()
            .zip(&healthy)
            .filter(|(m, &h)| m.voting && h)
            .count();
        let breaker_tier = if depth_tier == ServiceTier::DetectorOnly {
            ServiceTier::DetectorOnly
        } else if healthy.iter().all(|&h| h) {
            ServiceTier::FullEnsemble
        } else if healthy_voters >= 1 {
            ServiceTier::DegradedQuorum
        } else {
            ServiceTier::DetectorOnly
        };
        let batch_tier = depth_tier.max(breaker_tier);

        let queried: Vec<usize> = match batch_tier {
            ServiceTier::FullEnsemble => (0..self.members.len()).collect(),
            ServiceTier::DegradedQuorum => self
                .members
                .iter()
                .enumerate()
                .filter(|(i, m)| m.voting && healthy[*i])
                .map(|(i, _)| i)
                .collect(),
            ServiceTier::DetectorOnly => Vec::new(),
        };
        let queried_names: Vec<String> = queried
            .iter()
            .map(|&i| self.members[i].profile.name.clone())
            .collect();

        // Deadline headroom demotes individual requests to the detector
        // tier: an answer now beats an ensemble answer past the deadline.
        let ensemble_slot: Vec<bool> = picked
            .iter()
            .map(|request| {
                batch_tier != ServiceTier::DetectorOnly
                    && now.saturating_add(self.config.batch_service_ms) <= request.deadline_ms
            })
            .collect();
        let ensemble_count = ensemble_slot.iter().filter(|&&s| s).count();
        state.log.push(format!(
            "[t={now}ms] batch {batch}: tier={batch_tier} size={} ensemble={ensemble_count} detector={} healthy_voters={healthy_voters}/{voters} queried=[{}]",
            picked.len(),
            picked.len() - ensemble_count,
            queried_names.join(", ")
        ));

        let requests: Vec<ModelRequest> = picked
            .iter()
            .zip(&ensemble_slot)
            .filter(|(_, &slot)| slot)
            .map(|(request, _)| ModelRequest {
                context: request.context.clone(),
                prompt: Arc::clone(&self.prompt),
                params: self.params,
            })
            .collect();

        // Fan out per queried member. The executor gets the scratch
        // clock, so the service clock stays frozen; breakers are fed in
        // request order after the order-preserving run returns.
        type MemberResults = Vec<std::result::Result<ModelResponse, TransportError>>;
        let mut member_results: BTreeMap<usize, MemberResults> = BTreeMap::new();
        if !requests.is_empty() {
            for &m in &queried {
                let member = &self.members[m];
                let exec_config = ExecutorConfig {
                    parallelism: self.config.parallelism,
                    rate_limit: None,
                    retry: RetryPolicy {
                        max_attempts: 1,
                        ..RetryPolicy::default()
                    },
                    hedge: None,
                    seed: child_seed_n(self.config.survey_seed, "serve-exec", m as u64),
                };
                let results = BatchExecutor::new(Arc::clone(&member.transport), exec_config)
                    .with_accounting(Arc::clone(&self.scratch), Arc::clone(&self.meter))
                    .with_pricing(
                        member.profile.usd_per_1k_input,
                        member.profile.usd_per_1k_output,
                    )
                    .with_obs(obs.clone())
                    .run(requests.clone());
                for result in &results {
                    member.breaker.record(result.is_ok());
                }
                member_results.insert(m, results);
            }
        }

        // Resolve each slot: parse, vote, or fall through to the
        // detector. Serial, in picked order.
        let mut fresh: BTreeMap<usize, std::vec::IntoIter<_>> = member_results
            .into_iter()
            .map(|(m, results)| (m, results.into_iter()))
            .collect();
        let mut outcomes: Vec<Served> = Vec::with_capacity(picked.len());
        for (request, &slot) in picked.iter().zip(&ensemble_slot) {
            if !slot {
                outcomes.push(Served {
                    presence: self.config.detector.detect(&request.context),
                    tier: ServiceTier::DetectorOnly,
                    fallback: None,
                    deadline_blown: batch_tier != ServiceTier::DetectorOnly,
                    input_tokens: 0,
                    output_tokens: 0,
                    usd: 0.0,
                    lines: Vec::new(),
                });
                continue;
            }
            let mut votes: Vec<Option<IndicatorSet>> = Vec::new();
            let mut input_tokens = 0u64;
            let mut output_tokens = 0u64;
            let mut usd = 0.0f64;
            let mut lines: Vec<BillingLine> = Vec::new();
            for &m in &queried {
                let member = &self.members[m];
                let result = fresh
                    .get_mut(&m)
                    .expect("results for every queried member")
                    .next()
                    .expect("one executor result per ensemble slot");
                match result {
                    Ok(response) => {
                        let (set, complete) = self.prompt.read_presence(&response.texts);
                        if !complete {
                            registry.add("serve.parse_failures", 1);
                        }
                        if member.voting {
                            votes.push(Some(set));
                        }
                        // shared pricing rule: per-line tenant bills must be
                        // computed exactly as the CostMeter computes them
                        let line_usd = nbhd_client::token_cost_usd(
                            response.input_tokens,
                            response.output_tokens,
                            member.profile.usd_per_1k_input,
                            member.profile.usd_per_1k_output,
                        );
                        input_tokens += response.input_tokens;
                        output_tokens += response.output_tokens;
                        usd += line_usd;
                        lines.push(BillingLine {
                            model: member.profile.name.clone(),
                            input: response.input_tokens,
                            output: response.output_tokens,
                            p_in: member.profile.usd_per_1k_input,
                            p_out: member.profile.usd_per_1k_output,
                            latency: response.latency_ms,
                        });
                    }
                    Err(_) => {
                        // Transport failures are not journaled: a resumed
                        // run re-executes them rather than replaying the
                        // failure.
                        if member.voting {
                            votes.push(None);
                        }
                        registry.add("serve.transport_failures", 1);
                    }
                }
            }
            let (set, prov) = quorum_vote(&votes, &self.config.quorum);
            if prov.fallback == VoteFallback::NoResponders {
                // Nobody answered: the queried models are still billed,
                // but the detector supplies the answer.
                outcomes.push(Served {
                    presence: self.config.detector.detect(&request.context),
                    tier: ServiceTier::DetectorOnly,
                    fallback: Some(VoteFallback::NoResponders),
                    deadline_blown: false,
                    input_tokens,
                    output_tokens,
                    usd,
                    lines,
                });
            } else {
                outcomes.push(Served {
                    presence: set,
                    tier: batch_tier,
                    fallback: Some(prov.fallback),
                    deadline_blown: false,
                    input_tokens,
                    output_tokens,
                    usd,
                    lines,
                });
            }
        }

        // Finalize serially: journal (save-before-act), bill, log.
        for (request, served) in picked.iter().zip(outcomes) {
            let wait_ms = now.saturating_sub(request.arrival_ms);
            let record = ResponseRecord {
                bits: served.presence.bits(),
                tier: served.tier,
                input_tokens: served.input_tokens,
                output_tokens: served.output_tokens,
                usd: served.usd,
                wait_ms,
            };
            if let Some(store) = &self.checkpoint {
                let key = request_key(&request.tenant, request.request_id);
                nbhd_journal::save(store.as_ref(), &key, &record)?;
            }
            let tenant = self
                .tenants
                .get_mut(&request.tenant)
                .ok_or_else(|| Error::config(format!("unknown tenant {}", request.tenant)))?;
            tenant.bill.served += 1;
            tenant.bill.input_tokens += served.input_tokens;
            tenant.bill.output_tokens += served.output_tokens;
            tenant.bill.usd += served.usd;
            if served.lines.is_empty() {
                tenant
                    .meter
                    .record_success("detector", 0, 0, 0.0, 0.0, 0.0, 1);
            } else {
                for line in &served.lines {
                    tenant.meter.record_success(
                        &line.model,
                        line.input,
                        line.output,
                        line.p_in,
                        line.p_out,
                        line.latency,
                        1,
                    );
                }
            }
            registry.record_hist("serve.admission_wait_ms", wait_ms);
            registry.record_hist(&format!("serve.tenant.{}.wait_ms", request.tenant), wait_ms);
            let tier = match served.tier {
                ServiceTier::FullEnsemble => "full",
                ServiceTier::DegradedQuorum => "quorum",
                ServiceTier::DetectorOnly => "detector",
            };
            registry.add(&format!("serve.tier.{tier}"), 1);
            registry.add(&format!("serve.tenant.{}.tier.{tier}", request.tenant), 1);
            state.log.push(format!(
                "[t={now}ms] {}#{} served tier={} presence={} wait={wait_ms}ms",
                request.tenant, request.request_id, served.tier, served.presence
            ));
            state.responses.push(ServiceResponse {
                tenant: request.tenant.clone(),
                request_id: request.request_id,
                presence: served.presence,
                provenance: ServiceProvenance {
                    tier: served.tier,
                    batch,
                    queried: if served.tier == ServiceTier::DetectorOnly {
                        Vec::new()
                    } else {
                        queried_names.clone()
                    },
                    fallback: served.fallback,
                    replayed: false,
                    wait_ms,
                    deadline_blown: served.deadline_blown,
                },
            });
        }

        // Pace the service clock by how long the batch occupied it.
        let advance = if requests.is_empty() {
            self.config.detector_service_ms
        } else {
            self.config.batch_service_ms
        };
        obs.clock().advance_ms(advance);
        stage.record();
        Ok(())
    }

    /// Publishes breaker evolution as deterministic counters: the serve
    /// breakers advance only in the serial loop, so their counts are
    /// worker-count invariant (unlike wall-side executor metrics).
    fn publish_breakers(&self, registry: &MetricsRegistry) {
        for member in &self.members {
            let name = &member.profile.name;
            for (suffix, value) in member.breaker.snapshot().counters() {
                registry.set(&format!("serve.breaker.{name}.{suffix}"), value);
            }
        }
    }

    /// Publishes per-tenant end-of-run gauges: the queue high-water mark
    /// (`.peak`-suffixed, so it survives `RunArtifact::merge_shards`'
    /// max-folding convention) and the tenant's billed USD (`.usd`-
    /// suffixed, so `BudgetRule::UsdMax` sees it on tenant artifacts).
    /// Both values accumulate in the serial loop and are deterministic.
    fn publish_tenants(&self, registry: &MetricsRegistry) {
        for (name, tenant) in &self.tenants {
            registry.set_gauge(
                &format!("serve.tenant.{name}.queue_depth.peak"),
                tenant.peak_queue_depth as f64,
            );
            registry.set_gauge(&format!("serve.tenant.{name}.usd"), tenant.bill.usd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StormBuilder;
    use nbhd_client::{BreakerState, FaultRegime};
    use nbhd_journal::MemoryStore;

    #[test]
    fn calm_run_serves_everything_at_full_tier() {
        let (workload, _) = StormBuilder::new(42)
            .steady("acme", 0, 10, 250)
            .steady("beta", 0, 10, 250)
            .build();
        let mut service = SurveyService::new(
            ServiceConfig::default(),
            vec![TenantConfig::new("acme"), TenantConfig::new("beta")],
        );
        let report = service.run(workload).unwrap();
        assert_eq!(report.responses.len(), 20);
        assert!(report.rejections.is_empty());
        assert!(report
            .responses
            .iter()
            .all(|r| r.provenance.tier == ServiceTier::FullEnsemble && !r.provenance.replayed));
        assert_eq!(report.tier_counts()[&ServiceTier::FullEnsemble], 20);
        let bill = &report.bills["acme"];
        assert_eq!(bill.admitted, 10);
        assert_eq!(bill.served, 10);
        assert_eq!(bill.rejected, 0);
        assert!(bill.usd > 0.0 && bill.input_tokens > 0);
        assert!(!report.decision_log.is_empty());
        // every response carries the full queried panel
        assert!(report
            .responses
            .iter()
            .all(|r| r.provenance.queried.len() == 4));
    }

    #[test]
    fn per_line_billing_matches_the_tenant_meter_pricing() {
        // golden pricing test: every billing line is priced by the shared
        // nbhd_client::token_cost_usd rule, so the serially-summed bill
        // equals the tenant meter's per-model total (same line values,
        // different float summation order), and token counts match exactly.
        let (workload, _) = StormBuilder::new(11)
            .steady("acme", 0, 8, 250)
            .steady("beta", 0, 6, 300)
            .build();
        let mut service = SurveyService::new(
            ServiceConfig::default(),
            vec![TenantConfig::new("acme"), TenantConfig::new("beta")],
        );
        let report = service.run(workload).unwrap();
        for tenant in ["acme", "beta"] {
            let bill = &report.bills[tenant];
            assert!(bill.usd > 0.0, "tenant {tenant} billed nothing");
            let meter = service.tenant_meter(tenant).expect("known tenant");
            assert!(
                (bill.usd - meter.total_usd()).abs() < 1e-9,
                "tenant {tenant}: bill {} vs meter {}",
                bill.usd,
                meter.total_usd()
            );
            let snapshot = meter.snapshot();
            let metered_in: u64 = snapshot.values().map(|u| u.input_tokens).sum();
            let metered_out: u64 = snapshot.values().map(|u| u.output_tokens).sum();
            assert_eq!(metered_in, bill.input_tokens, "tenant {tenant}");
            assert_eq!(metered_out, bill.output_tokens, "tenant {tenant}");
        }
        assert!(service.tenant_meter("nobody").is_none());
    }

    #[test]
    fn total_outage_degrades_to_detector_and_opens_breakers() {
        let (workload, schedule) = StormBuilder::new(7)
            .steady("acme", 0, 12, 100)
            .with_regime(FaultRegime::outage(0, u64::MAX))
            .build();
        let config = ServiceConfig {
            schedule,
            breaker: BreakerConfig {
                min_samples: 4,
                cooldown_ms: 600_000,
                ..BreakerConfig::default()
            },
            ..ServiceConfig::default()
        };
        let mut service = SurveyService::new(config, vec![TenantConfig::new("acme")]);
        let report = service.run(workload).unwrap();
        assert_eq!(report.responses.len(), 12);
        assert!(report.rejections.is_empty());
        // every answer came from the detector; early ones via vote
        // fallback, later ones via open breakers
        assert!(report
            .responses
            .iter()
            .all(|r| r.provenance.tier == ServiceTier::DetectorOnly));
        assert!(report
            .responses
            .iter()
            .any(|r| r.provenance.fallback == Some(VoteFallback::NoResponders)));
        assert!(report
            .health
            .models
            .iter()
            .all(|m| m.breaker.state == BreakerState::Open));
        // the detector itself never bills tokens, but failed queries were
        // attempted (zero tokens since nothing responded)
        assert_eq!(report.bills["acme"].input_tokens, 0);
    }

    #[test]
    fn journaled_rejections_replay_with_their_recorded_reasons() {
        let storm = || StormBuilder::new(3).burst("acme", 0, 20).build().0;
        let tenants = || {
            vec![TenantConfig::new("acme")
                .with_queue_capacity(4)
                .with_quota(32, 1.0)]
        };
        let store = Arc::new(MemoryStore::new());
        let mut first = SurveyService::new(ServiceConfig::default(), tenants())
            .with_checkpoint(Arc::clone(&store) as Arc<dyn CheckpointStore>);
        let before = first.run(storm()).unwrap();
        assert_eq!(store.load_kind(REJECTION_RECORD_KIND).len(), 16);

        // on resume the queue is empty, yet every rejection comes back
        // with its recorded reason, and nothing is admitted
        let mut second = SurveyService::new(ServiceConfig::default(), tenants())
            .with_checkpoint(Arc::clone(&store) as Arc<dyn CheckpointStore>);
        let after = second.run(storm()).unwrap();
        assert_eq!(after.rejections, before.rejections);
        let bill = &after.bills["acme"];
        assert_eq!((bill.rejected, bill.replayed, bill.admitted), (16, 4, 0));
        let replayed = |line: &&String| line.contains("rejected (replayed): queue full (4/4)");
        assert_eq!(after.decision_log.iter().filter(replayed).count(), 16);
    }

    #[test]
    fn full_queue_rejects_typed_and_bounded() {
        let (workload, _) = StormBuilder::new(3).burst("acme", 0, 20).build();
        let mut service = SurveyService::new(
            ServiceConfig::default(),
            vec![TenantConfig::new("acme")
                .with_queue_capacity(4)
                .with_quota(32, 1.0)],
        );
        let report = service.run(workload).unwrap();
        assert_eq!(report.responses.len(), 4);
        assert_eq!(report.rejections.len(), 16);
        assert!(report.rejections.iter().all(|r| matches!(
            r.reason,
            Rejected::QueueFull {
                depth: 4,
                capacity: 4
            }
        )));
        assert_eq!(report.bills["acme"].rejected, 16);
    }

    #[test]
    fn global_saturation_sheds_and_depth_degrades_the_tier() {
        let (workload, _) = StormBuilder::new(5)
            .burst("acme", 0, 8)
            .burst("beta", 0, 8)
            .build();
        let config = ServiceConfig {
            batch_size: 32,
            global_queue_capacity: 10,
            degrade: DegradePolicy {
                quorum_depth: 8,
                detector_depth: 32,
            },
            ..ServiceConfig::default()
        };
        let mut service = SurveyService::new(
            config,
            vec![TenantConfig::new("acme"), TenantConfig::new("beta")],
        );
        let report = service.run(workload).unwrap();
        let shed: Vec<_> = report
            .rejections
            .iter()
            .filter(
                |r| matches!(&r.reason, Rejected::Degraded { reason } if reason.contains("10/10")),
            )
            .collect();
        assert_eq!(shed.len(), 6, "beta's overflow is shed globally");
        assert_eq!(report.responses.len(), 10);
        // depth 10 >= quorum_depth 8: the drain batch runs degraded, only
        // the three voters are queried
        assert!(report
            .responses
            .iter()
            .all(|r| r.provenance.tier == ServiceTier::DegradedQuorum
                && r.provenance.queried.len() == 3));
    }

    #[test]
    fn quota_exhaustion_rejects_with_refill_hint() {
        let (workload, _) = StormBuilder::new(9).burst("acme", 0, 6).build();
        let mut service = SurveyService::new(
            ServiceConfig::default(),
            vec![TenantConfig::new("acme").with_quota(2, 0.5)],
        );
        let report = service.run(workload).unwrap();
        assert_eq!(report.responses.len(), 2);
        assert_eq!(report.rejections.len(), 4);
        assert!(report
            .rejections
            .iter()
            .all(|r| matches!(r.reason, Rejected::QuotaExhausted { retry_after_ms } if retry_after_ms > 0)));
    }

    #[test]
    fn budget_cutoff_stops_admitting_after_spend() {
        let (workload, _) = StormBuilder::new(11).steady("acme", 0, 4, 10).build();
        let config = ServiceConfig {
            batch_size: 1,
            ..ServiceConfig::default()
        };
        let mut service = SurveyService::new(
            config,
            vec![TenantConfig::new("acme").with_budget_usd(1e-9)],
        );
        let report = service.run(workload).unwrap();
        assert_eq!(
            report.responses.len(),
            1,
            "first request lands under budget"
        );
        assert_eq!(report.rejections.len(), 3);
        assert!(report
            .rejections
            .iter()
            .all(|r| r.reason == Rejected::BudgetExhausted));
        assert!(report.bills["acme"].usd > 1e-9);
    }

    #[test]
    fn blown_deadlines_demote_to_detector_instead_of_dropping() {
        let (workload, _) = StormBuilder::new(13).steady("acme", 0, 6, 50).build();
        let mut service = SurveyService::new(
            ServiceConfig::default(),
            vec![TenantConfig::new("acme").with_deadline_ms(0)],
        );
        let report = service.run(workload).unwrap();
        assert_eq!(report.responses.len(), 6);
        assert!(report.responses.iter().all(|r| {
            r.provenance.tier == ServiceTier::DetectorOnly && r.provenance.deadline_blown
        }));
        assert_eq!(
            report.bills["acme"].usd, 0.0,
            "detector answers bill nothing"
        );
        assert_eq!(service.api_attempts("gemini-1.5-pro"), 0);
    }

    #[test]
    fn journaled_responses_replay_without_requerying_or_double_billing() {
        let storm = || {
            StormBuilder::new(17)
                .steady("acme", 0, 6, 200)
                .burst("beta", 300, 4)
                .build()
        };
        let store = Arc::new(MemoryStore::new());
        let tenants = || vec![TenantConfig::new("acme"), TenantConfig::new("beta")];
        let mut first = SurveyService::new(ServiceConfig::default(), tenants())
            .with_checkpoint(Arc::clone(&store) as Arc<dyn CheckpointStore>);
        let (workload, _) = storm();
        let before = first.run(workload).unwrap();
        assert_eq!(store.load_kind(RESPONSE_RECORD_KIND).len(), 10);

        let mut second = SurveyService::new(ServiceConfig::default(), tenants())
            .with_checkpoint(Arc::clone(&store) as Arc<dyn CheckpointStore>);
        let (workload, _) = storm();
        let after = second.run(workload).unwrap();
        assert!(after.responses.iter().all(|r| r.provenance.replayed));
        assert_eq!(
            second.api_attempts("gemini-1.5-pro"),
            0,
            "no model requeried"
        );
        // answers identical per request; bills identical to float tolerance
        let key = |r: &ServiceResponse| (r.tenant.clone(), r.request_id);
        let answers = |report: &RunReport| -> BTreeMap<_, _> {
            report
                .responses
                .iter()
                .map(|r| (key(r), r.presence))
                .collect()
        };
        assert_eq!(answers(&before), answers(&after));
        for (name, b) in &before.bills {
            let a = &after.bills[name];
            assert_eq!(
                (a.served, a.input_tokens, a.output_tokens),
                (b.served, b.input_tokens, b.output_tokens)
            );
            assert!((a.usd - b.usd).abs() < 1e-9);
            assert_eq!(a.replayed, b.served, "every response replayed");
        }
    }

    #[test]
    fn decision_surface_is_worker_count_invariant_under_storm() {
        let run = |parallelism: Parallelism| {
            let (workload, schedule) = StormBuilder::new(99)
                .steady("acme", 0, 10, 120)
                .burst("beta", 300, 12)
                .storm_429(0, 4_000, 0.5, 300)
                .breaker_flap("grok-2", 0, 1_000, 2)
                .build();
            let config = ServiceConfig {
                schedule,
                parallelism,
                breaker: BreakerConfig {
                    min_samples: 3,
                    ..BreakerConfig::default()
                },
                ..ServiceConfig::default()
            };
            let mut service = SurveyService::new(
                config,
                vec![
                    TenantConfig::new("acme"),
                    TenantConfig::new("beta")
                        .with_quota(4, 1.0)
                        .with_queue_capacity(8),
                ],
            );
            let report = service.run(workload).unwrap();
            let text = service.obs().summary().deterministic_text();
            (report, text)
        };
        let (serial, serial_text) = run(Parallelism::serial());
        let (parallel, parallel_text) = run(Parallelism::fixed(8));
        assert_eq!(serial.responses, parallel.responses);
        assert_eq!(serial.rejections, parallel.rejections);
        assert_eq!(serial.decision_text(), parallel.decision_text());
        assert_eq!(serial_text, parallel_text);
        assert!(
            !serial.rejections.is_empty(),
            "the storm must actually bite"
        );
    }
}
