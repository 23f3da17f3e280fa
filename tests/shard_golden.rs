//! Golden hashes of an eight-shard poisoned supervised run at 1, 2 and 4
//! workers: its coverage report, its quarantine, attempt, capture and fee
//! records, every span's virtual interval, and the run summary's
//! deterministic text. A second case sets a shard deadline so the watchdog
//! demotes at least one shard.
//!
//! At 2 and 4 workers eight shards run side by side, and at 1 worker one
//! after another, so one hash pins both paths; any change to a supervision
//! decision, a record, a span's virtual time or a deterministic counter
//! moves it.

use std::sync::Arc;

use nbhd::gsv::FEE_RECORD_KIND;
use nbhd::prelude::*;
use nbhd_core::{ATTEMPT_RECORD_KIND, CAPTURE_RECORD_KIND, QUARANTINE_RECORD_KIND};

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
}

/// Runs the eight-shard survey at `workers` and hashes its deterministic
/// surface. Returns the hash and a one-line description of the run.
fn run_hash(workers: usize, policy: SupervisePolicy, poison: PoisonSchedule) -> (u64, String) {
    nbhd::gsv::quiet_injected_panics();
    let config = SurveyConfig {
        locations: 48,
        parallelism: Parallelism::fixed(workers),
        ..SurveyConfig::smoke(2037)
    };
    let store = Arc::new(MemoryStore::new());
    let obs = Obs::new();
    let outcome = run_supervised(
        &config,
        ShardPlan::new(8).expect("plan"),
        policy,
        Some(poison),
        Some(store.clone()),
        Some(&obs),
    )
    .expect("supervised run");
    let report = outcome.coverage().expect("coverage report");
    assert!(report.quarantined_count() > 0, "the poison must bite");

    let mut h = Fnv::new();
    h.bytes(&serde_json::to_vec(report).expect("json"));
    for kind in [
        QUARANTINE_RECORD_KIND,
        ATTEMPT_RECORD_KIND,
        CAPTURE_RECORD_KIND,
        FEE_RECORD_KIND,
    ] {
        let records = store.load_kind(kind);
        h.bytes(kind.as_bytes()).u64(records.len() as u64);
        for (key, payload) in records {
            h.bytes(key.as_bytes());
            h.bytes(serde_json::to_string(&payload).expect("json").as_bytes());
        }
    }
    let summary = obs.summary();
    for span in &summary.spans {
        h.bytes(span.key.as_bytes())
            .u64(span.start_vms)
            .u64(span.end_vms);
    }
    h.bytes(summary.deterministic_text().as_bytes());
    let described = format!(
        "{} quarantined, {} skipped, {} timed out, {} spans",
        report.quarantined_count(),
        report.skipped_count(),
        report.timed_out_shards(),
        summary.spans.len()
    );
    (h.0, described)
}

/// Recorded with 9 locations quarantined and no shard timed out.
const POISONED_GOLDEN: u64 = 16_548_091_064_598_163_911;
/// Recorded with 3 locations quarantined, 8 skipped and 4 of the 8 shards
/// demoted by their watchdog.
const DEADLINE_GOLDEN: u64 = 12_906_717_542_667_167_527;

fn poison() -> PoisonSchedule {
    PoisonSchedule::new(2037)
        .with_panic_rate(0.1)
        .with_corrupt_rate(0.1)
}

#[test]
fn an_eight_shard_poisoned_run_matches_its_golden_hash_at_1_2_and_4_workers() {
    for workers in [1, 2, 4] {
        let (hash, described) = run_hash(workers, SupervisePolicy::default(), poison());
        assert_eq!(hash, POISONED_GOLDEN, "{workers} workers: {described}");
    }
}

#[test]
fn an_eight_shard_run_with_a_shard_deadline_matches_its_golden_hash_at_1_2_and_4_workers() {
    let policy = SupervisePolicy {
        shard_deadline_ms: Some(500),
        batch_locations: 2,
        ..SupervisePolicy::default()
    };
    let poison = poison().with_stalls(0.3, 400);
    for workers in [1, 2, 4] {
        let (hash, described) = run_hash(workers, policy, poison);
        assert_eq!(hash, DEADLINE_GOLDEN, "{workers} workers: {described}");
    }
}
