//! Golden hashes of the survey's capture path: the labels, split, usage
//! counters and fees of a smoke survey, the journal records a journaled
//! survey writes, and the coverage report and quarantine records of a
//! poisoned, supervised two-shard run.
//!
//! The expected values were recorded while every capture still painted its
//! scene; any change to a label box bit, a split, a counter, a fee bit, a
//! journal payload or a quarantine decision moves them.

use std::sync::Arc;

use nbhd::gsv::FEE_RECORD_KIND;
use nbhd::prelude::*;
use nbhd_core::{CAPTURE_RECORD_KIND, QUARANTINE_RECORD_KIND};

/// FNV-1a, fed field by field with a separator so that concatenations of
/// different splits never collide.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    fn ids(&mut self, ids: &[ImageId]) -> &mut Fnv {
        for id in ids {
            self.bytes(id.to_string().as_bytes());
        }
        self.u64(ids.len() as u64)
    }
}

/// Every label box's bits, the split, the usage counters and the fee bits.
fn survey_hash(survey: &SurveyDataset) -> u64 {
    let mut h = Fnv::new();
    for &id in survey.images() {
        h.bytes(id.to_string().as_bytes());
        for object in &survey.dataset().labels(id).expect("labeled").objects {
            h.bytes(object.indicator.label_key().as_bytes());
            for v in [object.bbox.x, object.bbox.y, object.bbox.w, object.bbox.h] {
                h.u64(u64::from(v.to_bits()));
            }
        }
    }
    let split = survey.dataset().split();
    h.ids(&split.train).ids(&split.val).ids(&split.test);
    let usage = survey.imagery_usage();
    h.u64(usage.requests)
        .u64(usage.billed_images)
        .u64(usage.cache_hits)
        .u64(usage.fees_usd.to_bits());
    h.0
}

/// Every `(key, payload)` of `kind` in key order.
fn records_hash(h: &mut Fnv, store: &dyn CheckpointStore, kind: &str) {
    let records = store.load_kind(kind);
    h.bytes(kind.as_bytes()).u64(records.len() as u64);
    for (key, payload) in records {
        h.bytes(key.as_bytes());
        h.bytes(serde_json::to_string(&payload).expect("json").as_bytes());
    }
}

/// Recorded with 96 requests, 96 billed images and no cache hits.
const SMOKE_GOLDEN: u64 = 9_197_465_000_638_851_771;
/// Recorded with 192 records: 96 captures and 96 fees.
const JOURNAL_GOLDEN: u64 = 4_956_779_224_373_043_983;
/// Recorded with 4 locations quarantined and the run's bill on the merged
/// survey's meter: 104 requests, 80 billed images and no cache hits.
const SUPERVISED_GOLDEN: u64 = 15_231_792_354_641_347_226;

#[test]
fn a_smoke_survey_matches_its_golden_hash() {
    let survey = SurveyPipeline::new(SurveyConfig::smoke(2025))
        .run()
        .expect("smoke survey");
    let usage = survey.imagery_usage();
    assert_eq!(survey_hash(&survey), SMOKE_GOLDEN, "{usage:?}");
}

#[test]
fn a_journaled_survey_writes_its_golden_records() {
    let store = Arc::new(MemoryStore::new());
    let survey = SurveyPipeline::new(SurveyConfig::smoke(2026))
        .run_with_store(Some(store.clone()))
        .expect("journaled survey");
    let mut h = Fnv::new();
    records_hash(&mut h, store.as_ref(), CAPTURE_RECORD_KIND);
    records_hash(&mut h, store.as_ref(), FEE_RECORD_KIND);
    h.u64(survey_hash(&survey));
    assert_eq!(h.0, JOURNAL_GOLDEN, "{} records", store.len());
}

#[test]
fn a_poisoned_supervised_run_matches_its_golden_hash() {
    nbhd::gsv::quiet_injected_panics();
    let config = SurveyConfig::smoke(2027);
    let poison = PoisonSchedule::new(config.seed)
        .with_panic_rate(0.1)
        .with_corrupt_rate(0.1);
    let store = Arc::new(MemoryStore::new());
    let outcome = run_supervised(
        &config,
        ShardPlan::new(2).expect("plan"),
        SupervisePolicy::default(),
        Some(poison),
        Some(store.clone()),
        None,
    )
    .expect("supervised run");
    let report = outcome.coverage().expect("coverage report");
    assert!(report.quarantined_count() > 0, "the poison must bite");
    let mut h = Fnv::new();
    h.bytes(&serde_json::to_vec(report).expect("json"));
    for record in report.quarantine_records() {
        h.bytes(&serde_json::to_vec(record).expect("json"));
    }
    for kind in [QUARANTINE_RECORD_KIND, CAPTURE_RECORD_KIND, FEE_RECORD_KIND] {
        records_hash(&mut h, store.as_ref(), kind);
    }
    h.u64(survey_hash(outcome.survey()))
        .u64(outcome.billed_images())
        .u64(outcome.fees_usd().to_bits());
    assert_eq!(
        h.0,
        SUPERVISED_GOLDEN,
        "{} quarantined",
        report.quarantined_count()
    );
}
