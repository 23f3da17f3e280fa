//! The multi-model ensemble runner: queries every model about every image
//! and votes the designated voters (the paper's Sec. IV-C2 setup), with an
//! optional resilience stack — chaos schedules, per-model circuit breakers,
//! and quorum-aware degraded voting.

use std::collections::BTreeMap;
use std::sync::Arc;

use nbhd_eval::{quorum_vote, QuorumPolicy, VoteProvenance};
use nbhd_journal::{CheckpointStore, Replayable};
use nbhd_obs::Obs;
use nbhd_prompt::Prompt;
use nbhd_types::rng::child_seed_n;
use nbhd_types::{IndicatorSet, Result};
use nbhd_vlm::{ImageContext, ModelProfile, SamplerParams, VisionModel};
use serde::{Deserialize, Serialize};

use crate::{
    BatchExecutor, BreakerConfig, BreakerSnapshot, BreakerState, BreakerTransport, CostMeter,
    ExecutorConfig, FaultProfile, FaultSchedule, HealthReport, ModelHealth, ModelRequest,
    ScheduledTransport, SimulatedTransport, Transport, VirtualClock,
};

/// Journal record kind for completed LLM votes.
pub const VOTE_RECORD_KIND: &str = "llm-vote";

/// Journal payload for one completed `(model, image)` query: the parsed
/// presence bits plus whether the parse was complete. Only *successful*
/// responses are journaled — a transport failure is retried on resume.
#[derive(Debug, Serialize, Deserialize)]
pub struct VoteRecord {
    bits: u8,
    complete: bool,
}

impl Replayable for VoteRecord {
    const KIND: &'static str = VOTE_RECORD_KIND;

    fn validate(&self, _key: &str) -> std::result::Result<(), String> {
        if self.bits > IndicatorSet::FULL.bits() {
            return Err(format!("bits {:#b} name no indicator set", self.bits));
        }
        Ok(())
    }
}

/// The idempotency key for one `(model, image)` query. The prompt and
/// sampler are part of the run config (hashed into the manifest), so they
/// need not appear in the key.
fn vote_key(model: &str, context: &ImageContext) -> String {
    format!("{}#{}", model, context.image)
}

/// The ensemble's failure-handling stack: what chaos to script, whether to
/// circuit-break each member, and how to vote when members are down.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceConfig {
    /// Wrap each member's transport in a per-model circuit breaker.
    pub breaker: Option<BreakerConfig>,
    /// Scripted chaos fault regimes applied on top of the base faults.
    pub schedule: FaultSchedule,
    /// How degraded votes are held when some voters fail.
    pub quorum: QuorumPolicy,
}

/// One model's answers across a batch of images.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelAnswers {
    /// Presence predictions per image (order matches the input batch);
    /// failed images hold an empty set — consult
    /// [`ModelAnswers::responded`] to tell absence from failure.
    pub presence: Vec<IndicatorSet>,
    /// Whether each image actually got an answer from this model.
    pub responded: Vec<bool>,
    /// Images whose response failed to parse completely.
    pub parse_failures: usize,
    /// Images whose request failed at the transport level.
    pub transport_failures: usize,
}

/// The ensemble's batch outcome.
#[derive(Debug, Clone)]
pub struct EnsembleOutcome {
    /// Per-model answers keyed by model name.
    pub per_model: BTreeMap<String, ModelAnswers>,
    /// Voted presence per image (voters only).
    pub voted: Vec<IndicatorSet>,
    /// Per-image vote provenance (who responded, which fallback applied).
    pub provenance: Vec<VoteProvenance>,
}

/// Queries a set of simulated models and votes the designated subset.
pub struct Ensemble {
    members: Vec<Member>,
    config: ExecutorConfig,
    resilience: ResilienceConfig,
    survey_seed: u64,
    faults: FaultProfile,
    meter: Arc<CostMeter>,
    checkpoint: Option<Arc<dyn CheckpointStore>>,
    obs: Obs,
}

struct Member {
    profile: ModelProfile,
    /// The base simulated API (bottom of the decorator stack).
    base: Arc<SimulatedTransport>,
    /// Chaos-schedule layer, when a schedule is installed.
    scheduled: Option<Arc<ScheduledTransport>>,
    /// Circuit-breaker layer, when breaking is enabled.
    breaker: Option<Arc<BreakerTransport>>,
    /// Top of the stack — what the executor actually sends through.
    transport: Arc<dyn Transport>,
    voting: bool,
}

impl Member {
    /// Builds the decorator stack `base -> schedule -> breaker` for one
    /// model. Layer seeds derive from the survey seed and member index.
    fn build(
        index: usize,
        profile: ModelProfile,
        voting: bool,
        survey_seed: u64,
        faults: FaultProfile,
        resilience: &ResilienceConfig,
        clock: &Arc<VirtualClock>,
    ) -> Member {
        let base = Arc::new(
            SimulatedTransport::new(
                VisionModel::new(profile.clone(), survey_seed),
                survey_seed ^ (index as u64 + 1),
            )
            .with_faults(faults),
        );
        let mut transport: Arc<dyn Transport> = Arc::clone(&base) as Arc<dyn Transport>;
        let scheduled = if resilience.schedule.is_empty() {
            None
        } else {
            let layer = Arc::new(ScheduledTransport::new(
                Arc::clone(&transport),
                resilience.schedule.clone(),
                Arc::clone(clock),
                child_seed_n(survey_seed, "schedule", index as u64),
            ));
            transport = Arc::clone(&layer) as Arc<dyn Transport>;
            Some(layer)
        };
        let breaker = resilience.breaker.map(|config| {
            let layer = Arc::new(BreakerTransport::new(
                Arc::clone(&transport),
                config,
                Arc::clone(clock),
            ));
            transport = Arc::clone(&layer) as Arc<dyn Transport>;
            layer
        });
        Member {
            profile,
            base,
            scheduled,
            breaker,
            transport,
            voting,
        }
    }
}

impl Ensemble {
    /// Builds an ensemble over model profiles; `voting` selects which
    /// members participate in the vote (the paper votes Gemini, Claude,
    /// and Grok). No chaos schedule or breaker is installed — see
    /// [`Ensemble::with_resilience`]. The ensemble owns a fresh
    /// observability bundle, whose clock is its accounting clock; see
    /// [`Ensemble::with_obs`].
    pub fn new(
        profiles: Vec<(ModelProfile, bool)>,
        survey_seed: u64,
        faults: FaultProfile,
        config: ExecutorConfig,
    ) -> Ensemble {
        Ensemble {
            members: Vec::new(),
            config,
            resilience: ResilienceConfig::default(),
            survey_seed,
            faults,
            meter: Arc::new(CostMeter::new()),
            checkpoint: None,
            obs: Obs::new(),
        }
        .rebuild(profiles)
    }

    /// Builds one member per profile, in order, each with its decorator
    /// stack over the ensemble's seed, faults, resilience and its bundle's
    /// clock.
    fn rebuild(mut self, profiles: impl IntoIterator<Item = (ModelProfile, bool)>) -> Ensemble {
        self.members = profiles
            .into_iter()
            .enumerate()
            .map(|(i, (profile, voting))| {
                Member::build(
                    i,
                    profile,
                    voting,
                    self.survey_seed,
                    self.faults,
                    &self.resilience,
                    self.obs.clock(),
                )
            })
            .collect();
        self
    }

    /// Attaches a checkpoint store: every successful `(model, image)` query
    /// is journaled under an idempotency key, and [`Ensemble::try_survey`]
    /// replays journaled votes instead of re-querying — a resumed ensemble
    /// never re-queries a journaled `(image, model, question)` triple, and
    /// never re-pays its token cost.
    #[must_use]
    pub fn with_checkpoint(mut self, store: Arc<dyn CheckpointStore>) -> Ensemble {
        self.checkpoint = Some(store);
        self
    }

    /// Installs a resilience stack, rebuilding each member's transport
    /// decorators. Call before [`Ensemble::survey`]; attempt counters reset.
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Ensemble {
        self.resilience = resilience;
        let profiles: Vec<_> = self
            .members
            .drain(..)
            .map(|m| (m.profile, m.voting))
            .collect();
        self.rebuild(profiles)
    }

    /// Swaps the ensemble's own fresh bundle for the run's. The ensemble
    /// adopts the bundle's virtual clock as its accounting clock
    /// (rebuilding each member's transport decorators, which capture the
    /// clock), opens a `vote-<model>` span per member batch, and publishes
    /// cost-meter and breaker counters into the bundle's registry after
    /// each survey. A clone of the bundle is the same bundle: the ensemble
    /// must not survey while another user of it opens spans.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Ensemble {
        self.obs = obs;
        let profiles: Vec<_> = self
            .members
            .drain(..)
            .map(|m| (m.profile, m.voting))
            .collect();
        self.rebuild(profiles)
    }

    /// Publishes the cost meter and per-member breaker bookkeeping into
    /// the bundle's registry. Breaker counters are wall metrics: whether
    /// and when a breaker trips depends on request scheduling.
    fn publish_metrics(&self) {
        let registry = self.obs.registry();
        self.meter.publish(registry);
        for member in &self.members {
            if let Some(breaker) = &member.breaker {
                let name = &member.profile.name;
                for (suffix, value) in breaker.breaker().snapshot().counters() {
                    registry.set_wall(&format!("breaker.{name}.{suffix}"), value);
                }
            }
        }
    }

    /// The paper's four models with its top-three voting set.
    pub fn paper_setup(survey_seed: u64) -> Ensemble {
        Ensemble::new(
            nbhd_vlm::paper_lineup(),
            survey_seed,
            FaultProfile::NONE,
            ExecutorConfig::default(),
        )
    }

    /// The shared cost meter.
    pub fn meter(&self) -> &Arc<CostMeter> {
        &self.meter
    }

    /// The accounting clock: the bundle's virtual clock, which every
    /// member's decorators and executor read. It is shared with whatever
    /// else uses the bundle, so a run's virtual time is the difference of
    /// two readings, not one reading.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        self.obs.clock()
    }

    /// Attempts that would have hit the real API for `model`: counted at
    /// the chaos-schedule layer when one is installed (so shed traffic is
    /// included), else at the base transport. `None` for unknown models.
    pub fn api_attempts(&self, model: &str) -> Option<u64> {
        self.members
            .iter()
            .find(|m| m.profile.name == model)
            .map(|m| match &m.scheduled {
                Some(layer) => layer.attempts(),
                None => m.base.attempts(),
            })
    }

    /// Per-model health: availability and resilience counters from the
    /// cost meter plus each member's breaker bookkeeping. Members without
    /// a breaker report a quiet closed one.
    pub fn health_report(&self) -> HealthReport {
        let closed = BreakerSnapshot {
            state: BreakerState::Closed,
            opened_at_ms: 0,
            probe_successes: 0,
            transitions: 0,
            edges: crate::BreakerTransitions::default(),
            fail_fast: 0,
        };
        let models = self
            .members
            .iter()
            .map(|m| ModelHealth {
                model: m.profile.name.clone(),
                usage: self.meter.usage(&m.profile.name).unwrap_or_default(),
                breaker: m
                    .breaker
                    .as_ref()
                    .map_or(closed, |b| b.breaker().snapshot()),
            })
            .collect();
        HealthReport { models }
    }

    /// Runs the full survey: every member answers every image, then the
    /// voters decide presence per image, in a vote held over the voters
    /// that responded ([`quorum_vote`]).
    ///
    /// # Panics
    ///
    /// Panics if a checkpoint store attached via
    /// [`Ensemble::with_checkpoint`] fails; use [`Ensemble::try_survey`]
    /// for checkpointed runs.
    pub fn survey(
        &self,
        contexts: &[ImageContext],
        prompt: &Prompt,
        params: &SamplerParams,
    ) -> EnsembleOutcome {
        self.try_survey(contexts, prompt, params)
            .expect("survey without a checkpoint store is infallible")
    }

    /// [`Ensemble::survey`], surfacing checkpoint-store failures.
    ///
    /// With a store attached, each member's journaled votes are replayed
    /// without touching the transport, and only the remaining contexts are
    /// queried; each fresh successful response is journaled *before* it is
    /// counted, so a crash mid-batch loses at most in-flight queries.
    ///
    /// # Errors
    ///
    /// Returns an error when the checkpoint store fails to persist a vote
    /// or holds a malformed vote record.
    pub fn try_survey(
        &self,
        contexts: &[ImageContext],
        prompt: &Prompt,
        params: &SamplerParams,
    ) -> Result<EnsembleOutcome> {
        let mut per_model = BTreeMap::new();
        let mut voter_answers: Vec<Vec<Option<IndicatorSet>>> = Vec::new();
        let shared_prompt = Arc::new(prompt.clone());
        for member in &self.members {
            let vote_stage = self
                .obs
                .tracer()
                .enter(&format!("vote-{}", member.profile.name));
            // replay journaled votes; only the rest go to the transport
            let replayed = contexts
                .iter()
                .map(|ctx| match &self.checkpoint {
                    Some(store) => nbhd_journal::load::<VoteRecord>(
                        store.as_ref(),
                        &vote_key(&member.profile.name, ctx),
                    ),
                    None => Ok(None),
                })
                .collect::<Result<Vec<_>>>()?;
            let pending: Vec<ModelRequest> = contexts
                .iter()
                .zip(&replayed)
                .filter(|(_, record)| record.is_none())
                .map(|(ctx, _)| ModelRequest {
                    context: ctx.clone(),
                    prompt: Arc::clone(&shared_prompt),
                    params: *params,
                })
                .collect();
            let results = if pending.is_empty() {
                Vec::new()
            } else {
                BatchExecutor::new(Arc::clone(&member.transport), self.config.clone())
                    .with_accounting(Arc::clone(self.obs.clock()), Arc::clone(&self.meter))
                    .with_pricing(
                        member.profile.usd_per_1k_input,
                        member.profile.usd_per_1k_output,
                    )
                    .with_obs(self.obs.clone())
                    .run(pending)
            };
            let mut fresh = results.into_iter();

            let mut presence = Vec::with_capacity(contexts.len());
            let mut answered = Vec::with_capacity(contexts.len());
            let mut responded = Vec::with_capacity(contexts.len());
            let mut parse_failures = 0usize;
            let mut transport_failures = 0usize;
            for (ctx, record) in contexts.iter().zip(replayed) {
                let answer = match record {
                    Some(record) => Some((IndicatorSet::from_bits(record.bits), record.complete)),
                    None => match fresh
                        .next()
                        .expect("one executor result per pending context")
                    {
                        Ok(response) => {
                            let (set, complete) = prompt.read_presence(&response.texts);
                            if let Some(store) = &self.checkpoint {
                                // save-before-act: the vote is durable before
                                // it counts toward any tally
                                let record = VoteRecord {
                                    bits: set.bits(),
                                    complete,
                                };
                                let key = vote_key(&member.profile.name, ctx);
                                nbhd_journal::save(store.as_ref(), &key, &record)?;
                            }
                            Some((set, complete))
                        }
                        // transport failures are NOT journaled: a resumed
                        // run retries them instead of replaying the failure
                        Err(_) => None,
                    },
                };
                match answer {
                    Some((set, complete)) => {
                        if !complete {
                            parse_failures += 1;
                        }
                        presence.push(set);
                        answered.push(Some(set));
                        responded.push(true);
                    }
                    None => {
                        transport_failures += 1;
                        presence.push(IndicatorSet::new());
                        answered.push(None);
                        responded.push(false);
                    }
                }
            }
            if member.voting {
                voter_answers.push(answered);
            }
            per_model.insert(
                member.profile.name.clone(),
                ModelAnswers {
                    presence,
                    responded,
                    parse_failures,
                    transport_failures,
                },
            );
            vote_stage.record();
        }
        self.publish_metrics();

        let mut voted = Vec::with_capacity(contexts.len());
        let mut provenance = Vec::new();
        for i in 0..contexts.len() {
            let votes: Vec<Option<IndicatorSet>> = voter_answers.iter().map(|v| v[i]).collect();
            if votes.is_empty() {
                voted.push(IndicatorSet::new());
            } else {
                let (set, prov) = quorum_vote(&votes, &self.resilience.quorum);
                voted.push(set);
                provenance.push(prov);
            }
        }

        Ok(EnsembleOutcome {
            per_model,
            voted,
            provenance,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultRegime, RetryPolicy};
    use nbhd_eval::VoteFallback;
    use nbhd_geo::{RoadClass, Zoning};
    use nbhd_prompt::{Language, PromptMode};
    use nbhd_scene::{SceneGenerator, ViewKind};
    use nbhd_types::{Heading, ImageId, Indicator, LocationId};

    fn contexts(n: u64) -> Vec<ImageContext> {
        let generator = SceneGenerator::new(5);
        (0..n)
            .map(|loc| {
                let zone = [Zoning::Urban, Zoning::Suburban, Zoning::Rural][(loc % 3) as usize];
                let class = if loc % 2 == 0 {
                    RoadClass::Multilane
                } else {
                    RoadClass::SingleLane
                };
                let view = if loc % 4 == 0 {
                    ViewKind::AcrossRoad
                } else {
                    ViewKind::AlongRoad
                };
                let spec = generator.compose_raw(
                    ImageId::new(LocationId(loc), Heading::North),
                    zone,
                    class,
                    view,
                );
                ImageContext::from_scene(&spec, 5)
            })
            .collect()
    }

    #[test]
    fn paper_setup_surveys_all_models() {
        let ensemble = Ensemble::paper_setup(5);
        let ctxs = contexts(20);
        let prompt = Prompt::build(Language::English, PromptMode::Parallel);
        let outcome = ensemble.survey(&ctxs, &prompt, &SamplerParams::default());
        assert_eq!(outcome.per_model.len(), 4);
        assert_eq!(outcome.voted.len(), 20);
        for answers in outcome.per_model.values() {
            assert_eq!(answers.presence.len(), 20);
            assert_eq!(answers.transport_failures, 0);
            assert!(answers.responded.iter().all(|r| *r));
        }
        // a clean run is a full panel for every image
        assert_eq!(outcome.provenance.len(), 20);
        assert!(outcome.provenance.iter().all(VoteProvenance::is_full_panel));
        // cost accrued for every model
        assert!(ensemble.meter().total_usd() > 0.0);
        assert_eq!(ensemble.meter().snapshot().len(), 4);
    }

    #[test]
    fn checkpointed_survey_replays_votes_without_requerying() {
        use nbhd_journal::MemoryStore;
        let store = Arc::new(MemoryStore::new());
        let ctxs = contexts(12);
        let prompt = Prompt::build(Language::English, PromptMode::Parallel);
        let params = SamplerParams::default();

        let first = Ensemble::paper_setup(5).with_checkpoint(store.clone());
        let a = first.try_survey(&ctxs, &prompt, &params).unwrap();
        assert!(first.api_attempts("gemini-1.5-pro").unwrap() > 0);
        assert_eq!(
            store.load_kind(VOTE_RECORD_KIND).len(),
            4 * 12,
            "every (model, image) vote journaled"
        );

        // a "restarted process": same config, same journal — every vote
        // replays, no model is queried again
        let second = Ensemble::paper_setup(5).with_checkpoint(store.clone());
        let b = second.try_survey(&ctxs, &prompt, &params).unwrap();
        for model in a.per_model.keys() {
            assert_eq!(second.api_attempts(model), Some(0), "{model} re-queried");
        }
        assert_eq!(a.voted, b.voted);
        assert_eq!(a.per_model, b.per_model);
        assert_eq!(a.provenance.len(), b.provenance.len());

        // an unjournaled ensemble still answers identically
        let plain = Ensemble::paper_setup(5);
        let c = plain.survey(&ctxs, &prompt, &params);
        assert_eq!(a.voted, c.voted);
        assert_eq!(a.per_model, c.per_model);
    }

    #[test]
    fn obs_collects_vote_spans_and_publishes_the_meter() {
        let obs = Obs::new();
        let ensemble = Ensemble::paper_setup(5).with_obs(obs.clone());
        let ctxs = contexts(8);
        let prompt = Prompt::build(Language::English, PromptMode::Parallel);
        let outcome = ensemble.survey(&ctxs, &prompt, &SamplerParams::default());
        assert_eq!(outcome.voted.len(), 8);

        let summary = obs.summary();
        let vote_spans = summary
            .spans
            .iter()
            .filter(|s| s.name.starts_with("vote-"))
            .count();
        assert_eq!(vote_spans, 4, "one vote span per member");
        // each member's batch span nests inside its vote span
        assert!(summary
            .spans
            .iter()
            .any(|s| s.key == "vote-gemini-1.5-pro/batch-gemini-1.5-pro" && s.depth == 1));
        // the cost meter published per-model counters into the registry
        assert_eq!(
            summary
                .metrics
                .counters
                .get("client.gemini-1.5-pro.requests"),
            Some(&8)
        );
        assert!(summary.metrics.gauges.contains_key("client.grok-2.usd"));
        // accounting and span timing share the obs clock
        assert!(obs.clock().now_ms() > 0);
        assert!(summary.spans.iter().any(|s| s.virtual_ms() > 0));
    }

    #[test]
    fn voting_uses_only_voters() {
        // two voters that always agree beat one non-voter
        let always_yes = {
            let mut p = nbhd_vlm::gemini_15_pro();
            p.name = "always".into();
            for ind in Indicator::ALL {
                p.reliability[ind] = nbhd_vlm::Reliability {
                    sensitivity: 0.995,
                    specificity: 0.005,
                };
            }
            p
        };
        let never_yes = {
            let mut p = nbhd_vlm::gemini_15_pro();
            p.name = "never".into();
            for ind in Indicator::ALL {
                p.reliability[ind] = nbhd_vlm::Reliability {
                    sensitivity: 0.005,
                    specificity: 0.995,
                };
            }
            p
        };
        let ensemble = Ensemble::new(
            vec![
                (always_yes.clone(), true),
                (always_yes, true),
                (never_yes, false),
            ],
            5,
            FaultProfile::NONE,
            ExecutorConfig::default(),
        );
        let ctxs = contexts(10);
        let prompt = Prompt::build(Language::English, PromptMode::Parallel);
        let outcome = ensemble.survey(&ctxs, &prompt, &SamplerParams::default());
        // voted answers follow the two always-yes voters
        let yes_fraction: f64 = outcome
            .voted
            .iter()
            .map(|s| s.len() as f64 / 6.0)
            .sum::<f64>()
            / 10.0;
        assert!(yes_fraction > 0.9, "voted yes fraction {yes_fraction}");
    }

    #[test]
    fn majority_vote_beats_voters_average_on_accuracy() {
        let ensemble = Ensemble::paper_setup(5);
        let ctxs = contexts(150);
        let prompt = Prompt::build(Language::English, PromptMode::Parallel);
        let outcome = ensemble.survey(&ctxs, &prompt, &SamplerParams::default());
        let accuracy = |pred: &[IndicatorSet]| {
            let mut correct = 0usize;
            let mut total = 0usize;
            for (p, c) in pred.iter().zip(&ctxs) {
                for ind in Indicator::ALL {
                    total += 1;
                    correct += usize::from(p.contains(ind) == c.presence.contains(ind));
                }
            }
            correct as f64 / total as f64
        };
        let voted_acc = accuracy(&outcome.voted);
        let voters = ["gemini-1.5-pro", "claude-3.7", "grok-2"];
        let mean_single: f64 = voters
            .iter()
            .map(|name| accuracy(&outcome.per_model[*name].presence))
            .sum::<f64>()
            / 3.0;
        assert!(
            voted_acc >= mean_single - 0.01,
            "voted {voted_acc:.3} vs mean single {mean_single:.3}"
        );
    }

    fn degraded_ensemble() -> Ensemble {
        let profiles = vec![
            (nbhd_vlm::gemini_15_pro(), true),
            (nbhd_vlm::claude_37(), true),
            (nbhd_vlm::grok_2(), true),
        ];
        Ensemble::new(
            profiles,
            5,
            FaultProfile::NONE,
            ExecutorConfig {
                rate_limit: None,
                retry: RetryPolicy {
                    max_attempts: 2,
                    ..RetryPolicy::default()
                },
                ..ExecutorConfig::default()
            },
        )
        .with_resilience(ResilienceConfig {
            schedule: FaultSchedule::new()
                .with(FaultRegime::outage(0, u64::MAX).for_models(&["grok-2"])),
            ..ResilienceConfig::default()
        })
    }

    #[test]
    fn one_member_down_degrades_to_a_two_voter_quorum() {
        let ensemble = degraded_ensemble();
        let ctxs = contexts(15);
        let prompt = Prompt::build(Language::English, PromptMode::Parallel);
        let outcome = ensemble.survey(&ctxs, &prompt, &SamplerParams::default());
        assert_eq!(outcome.per_model["grok-2"].transport_failures, 15);
        assert_eq!(outcome.provenance.len(), 15);
        for prov in &outcome.provenance {
            assert_eq!(
                prov.fallback,
                VoteFallback::DegradedQuorum { responders: 2 }
            );
            assert_eq!(prov.skipped, vec![2], "grok is voter index 2");
        }
        // the two healthy voters still produce substantive answers
        assert!(outcome.voted.iter().any(|s| !s.is_empty()));
    }

    #[test]
    fn breaker_trips_on_a_dead_member_and_reports_health() {
        let profiles = vec![
            (nbhd_vlm::gemini_15_pro(), true),
            (nbhd_vlm::claude_37(), true),
            (nbhd_vlm::grok_2(), true),
        ];
        let ensemble = Ensemble::new(profiles, 7, FaultProfile::NONE, ExecutorConfig::default())
            .with_resilience(ResilienceConfig {
                breaker: Some(BreakerConfig::default()),
                schedule: FaultSchedule::new()
                    .with(FaultRegime::outage(0, u64::MAX).for_models(&["grok-2"])),
                ..ResilienceConfig::default()
            });
        let ctxs = contexts(30);
        let prompt = Prompt::build(Language::English, PromptMode::Parallel);
        let outcome = ensemble.survey(&ctxs, &prompt, &SamplerParams::default());
        assert_eq!(outcome.per_model["grok-2"].transport_failures, 30);

        let health = ensemble.health_report();
        assert_eq!(health.models.len(), 3);
        let by_name: BTreeMap<&str, &ModelHealth> = health
            .models
            .iter()
            .map(|m| (m.model.as_str(), m))
            .collect();
        assert_eq!(by_name["gemini-1.5-pro"].availability(), 1.0);
        assert_eq!(by_name["grok-2"].availability(), 0.0);
        let grok = by_name["grok-2"];
        assert!(grok.breaker.transitions >= 1, "breaker must have tripped");
        assert!(grok.breaker.fail_fast > 0, "later requests must fail fast");
        // fail-fast saves API traffic: far fewer than 30 * max_attempts
        // requests reached the (dead) API
        let wasted = ensemble.api_attempts("grok-2").unwrap();
        let retry_only = 30 * u64::from(ExecutorConfig::default().retry.max_attempts);
        assert!(
            wasted * 2 <= retry_only,
            "breaker should cut wasted attempts at least in half: {wasted} vs {retry_only}"
        );
        // the rendered table mentions every model
        let text = health.render("Ensemble health");
        assert!(text.contains("grok-2") && text.contains("gemini-1.5-pro"));
    }
}
