//! Every journal record kind against hostile payloads: for each of the
//! ten kinds, a valid payload loads, and a truncated, a wrong-typed and
//! an out-of-range payload is an `Error::Parse` whose message starts with
//! `"{KIND} record {key}: "`, never a panic and never a silent misparse.

use std::collections::BTreeSet;

use nbhd::client::VoteRecord;
use nbhd::detect::{Detector, DetectorConfig};
use nbhd::geo::ShardPlan;
use nbhd::gsv::FeeRecord;
use nbhd::journal::{CheckpointStore, MemoryStore, Replayable};
use nbhd::obs::SpanRecord;
use nbhd::serve::{RejectionRecord, ResponseRecord};
use nbhd::types::{Error, LocationId, Result};
use nbhd::{AttemptRecord, CaptureRecord, CompletedShard, DetectorStage, QuarantineRecord};
use serde_json::{json, Value};

/// Loads the record of kind `R` under `key`, which the store must hold.
fn load<R: Replayable>(store: &dyn CheckpointStore, key: &str) -> Result<()> {
    let record = nbhd::journal::load::<R>(store, key)?;
    assert!(record.is_some(), "{} record {key} is missing", R::KIND);
    Ok(())
}

/// A stage record is only read through [`DetectorStage::detector`].
fn load_stage(store: &dyn CheckpointStore, key: &str) -> Result<()> {
    let stage = nbhd::journal::load::<DetectorStage>(store, key)?;
    stage.expect("stage record present").detector().map(drop)
}

struct Row {
    kind: &'static str,
    key: String,
    load: fn(&dyn CheckpointStore, &str) -> Result<()>,
    valid: Value,
    truncated: Value,
    /// Payloads of the wrong type; an enum variant the kind does not
    /// name counts as one.
    wrong_typed: Vec<Value>,
    /// The out-of-range payload, or why the kind's payload has no range
    /// rule.
    out_of_range: std::result::Result<Value, &'static str>,
}

fn rows() -> Vec<Row> {
    let bbox = json!({ "x": 1.0, "y": 2.0, "w": 3.0, "h": 4.0 });
    let image = json!({ "location": 7, "heading": "East" });
    let object = json!({ "indicator": "Sidewalk", "bbox": bbox });
    // a shard-0-of-2 location for the shard record
    let plan = ShardPlan::new(2).unwrap();
    let home = (0..).find(|&l| plan.assign(LocationId(l)) == 0).unwrap();
    let away = (0..).find(|&l| plan.assign(LocationId(l)) == 1).unwrap();
    let shard = |location: u64, shard: u64| {
        json!({
            "annotations": [{
                "image": { "location": location, "heading": "North" },
                "objects": [object.clone()],
            }],
            "peak_resident_scenes": 4,
            "coverage": {
                "shard": shard,
                "planned_locations": 1,
                "completed_locations": 1,
                "completed_units": 1,
                "quarantined": [],
                "skipped": [],
                "outcome": "Completed",
                "regions": [],
            },
        })
    };
    let detector = |shrink: u32| {
        let mut detector = Detector::untrained(DetectorConfig::default());
        detector.config.shrink = shrink;
        Value::String(detector.to_json().unwrap())
    };
    let detector_json = detector(4);
    let cut = &detector_json.as_str().unwrap()[..40];
    let response = |bits: u64, tier: Value, usd: f64| {
        json!({
            "bits": bits,
            "tier": tier,
            "input_tokens": 10,
            "output_tokens": 5,
            "usd": usd,
            "wait_ms": 4,
        })
    };
    let span = |key: &str, start: u64, end: u64| {
        json!({
            "key": key,
            "name": "survey",
            "depth": 1,
            "seq": 1,
            "start_vms": start,
            "end_vms": end,
            "wall_us": 9,
        })
    };
    vec![
        Row {
            kind: "gsv-fee",
            key: "loc-000007@90/160".to_owned(),
            load: load::<FeeRecord>,
            valid: json!({ "location": 7, "heading": 1, "size": 160 }),
            truncated: json!({ "location": 7, "heading": 1 }),
            wrong_typed: vec![json!({ "location": "7", "heading": 1, "size": 160 })],
            // the payload bills location 5, not the keyed location 7
            out_of_range: Ok(json!({ "location": 5, "heading": 1, "size": 160 })),
        },
        Row {
            kind: "capture",
            key: "loc-000007@90".to_owned(),
            load: load::<CaptureRecord>,
            valid: json!({ "image": image, "objects": [object.clone()] }),
            truncated: json!({ "image": image }),
            wrong_typed: vec![json!({ "image": image, "objects": "none" })],
            out_of_range: Ok(json!({
                "image": image,
                "objects": [{ "indicator": "Sidewalk", "bbox": { "x": 1.0, "y": 2.0, "w": -3.0, "h": 4.0 } }],
            })),
        },
        Row {
            kind: "supervised-shard",
            key: "0of2".to_owned(),
            load: load::<CompletedShard>,
            valid: shard(home, 0),
            truncated: json!({ "annotations": [], "peak_resident_scenes": 4 }),
            wrong_typed: vec![
                json!({ "annotations": [], "peak_resident_scenes": "many", "coverage": {} }),
            ],
            // labels of a location that shard 1 of 2 owns
            out_of_range: Ok(shard(away, 0)),
        },
        Row {
            kind: "quarantine",
            key: "7".to_owned(),
            load: load::<QuarantineRecord>,
            valid: json!({ "location": 7, "stage": "Capture", "attempts": 3, "cause": { "Panic": "boom" } }),
            truncated: json!({ "location": 7, "stage": "Capture", "attempts": 3 }),
            wrong_typed: vec![
                json!({ "location": 7, "stage": "Capture", "attempts": "three", "cause": { "Panic": "boom" } }),
                // no pass quarantines at the label stage
                json!({ "location": 7, "stage": "Label", "attempts": 3, "cause": { "Panic": "boom" } }),
            ],
            // a record keyed 7 that quarantines location 5
            out_of_range: Ok(
                json!({ "location": 5, "stage": "Capture", "attempts": 3, "cause": { "Panic": "boom" } }),
            ),
        },
        Row {
            kind: "quarantine-attempt",
            key: "7".to_owned(),
            load: load::<AttemptRecord>,
            valid: json!({ "location": 7, "attempts": 2, "cause": { "Corrupt": "bad scene" } }),
            truncated: json!({ "location": 7, "attempts": 2 }),
            wrong_typed: vec![json!({ "location": 7, "attempts": 2, "cause": 11 })],
            out_of_range: Ok(
                json!({ "location": 7, "attempts": 0, "cause": { "Corrupt": "bad scene" } }),
            ),
        },
        Row {
            kind: "stage",
            key: "detector".to_owned(),
            load: load_stage,
            valid: detector_json.clone(),
            truncated: Value::String(cut.to_owned()),
            wrong_typed: vec![json!(7)],
            out_of_range: Ok(detector(0)),
        },
        Row {
            kind: "llm-vote",
            key: "gemini#loc-000007@90".to_owned(),
            load: load::<VoteRecord>,
            valid: json!({ "bits": 3, "complete": true }),
            truncated: json!({ "bits": 3 }),
            wrong_typed: vec![json!({ "bits": "3", "complete": true })],
            out_of_range: Ok(json!({ "bits": 64, "complete": true })),
        },
        Row {
            kind: "serve-response",
            key: "tenant-a#1".to_owned(),
            load: load::<ResponseRecord>,
            valid: response(3, json!("full"), 0.01),
            truncated: json!({ "bits": 3, "tier": "full" }),
            wrong_typed: vec![response(3, json!("turbo"), 0.01)],
            out_of_range: Ok(response(3, json!("full"), -0.01)),
        },
        Row {
            kind: "serve-rejection",
            key: "tenant-a#1".to_owned(),
            load: load::<RejectionRecord>,
            valid: json!({ "reason": "BudgetExhausted" }),
            truncated: json!({}),
            wrong_typed: vec![json!({ "reason": 7 })],
            out_of_range: Err("every reason the enum names is a rejection"),
        },
        Row {
            kind: "obs-span",
            key: "run/survey".to_owned(),
            load: load::<SpanRecord>,
            valid: span("run/survey", 2, 5),
            truncated: json!({ "key": "run/survey", "name": "survey", "depth": 1 }),
            wrong_typed: vec![json!({ "key": "run/survey", "name": "survey", "depth": "deep" })],
            out_of_range: Ok(span("run/survey", 5, 2)),
        },
    ]
}

#[test]
fn every_kind_rejects_truncated_wrong_typed_and_out_of_range_payloads() {
    let rows = rows();
    let kinds: BTreeSet<&str> = rows.iter().map(|row| row.kind).collect();
    assert_eq!(kinds.len(), 10, "one row per record kind");
    for row in rows {
        let store = MemoryStore::new();
        let check = |payload: Value| {
            store.save(row.kind, &row.key, payload).unwrap();
            (row.load)(&store, &row.key)
        };
        if let Err(err) = check(row.valid.clone()) {
            panic!(
                "{} record {}: the valid payload failed: {err}",
                row.kind, row.key
            );
        }
        let prefix = format!("{} record {}: ", row.kind, row.key);
        let mut hostile = vec![("truncated", row.truncated)];
        hostile.extend(row.wrong_typed.into_iter().map(|p| ("wrong-typed", p)));
        match row.out_of_range {
            Ok(payload) => hostile.push(("out-of-range", payload)),
            Err(reason) => assert!(!reason.is_empty()),
        }
        for (what, payload) in hostile {
            match check(payload) {
                Err(Error::Parse(m)) if m.starts_with(&prefix) => {}
                other => panic!("{prefix}{what} payload gave {other:?}"),
            }
        }
    }
}
