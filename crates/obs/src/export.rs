//! Exportable run artifacts: the flight recorder's on-disk format.
//!
//! A [`RunArtifact`] freezes one completed run — the full span tree plus
//! the final [`MetricsSnapshot`] — behind a schema-versioned JSON header
//! so two runs recorded by different builds can still be compared by
//! [`crate::diff`]. The same artifact renders two ways:
//!
//! * [`RunArtifact::deterministic_text`] — the byte-comparable surface
//!   (virtual-time spans, deterministic counters, deterministic
//!   histograms), identical at any worker count.
//! * [`RunArtifact::chrome_trace`] — a `chrome://tracing` / Perfetto
//!   `traceEvents` document on the virtual timeline, for eyeballing
//!   where a run spent its (virtual) time.
//!
//! Artifacts travel through plain files ([`RunArtifact::write_file`]).

use std::fmt;
use std::path::Path;

use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use crate::coverage::RunCoverage;
use crate::hist::Histogram;
use crate::metrics::MetricsSnapshot;
use crate::summary::{Obs, RunSummary};
use crate::trace::SpanRecord;

/// Current artifact schema version. Bump on any breaking change to the
/// [`RunArtifact`] layout; readers reject artifacts from the future.
pub const ARTIFACT_SCHEMA_VERSION: u32 = 1;

/// Which shard of a distributed run an artifact records.
///
/// `config_hash` is the run's identity hash with the worker count *and*
/// the shard count normalized out: how a run is partitioned across
/// processes must not change what it computes, so two shards are
/// mergeable iff they hash the same underlying run — not the same
/// partitioning of it. The shard count still travels here (`count`) so
/// the merge can refuse incomplete or mixed sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardIdentity {
    /// This shard's index in `0..count`.
    pub index: usize,
    /// Total shards in the distributed run.
    pub count: usize,
    /// Identity hash of the underlying run configuration.
    pub config_hash: u64,
}

/// Typed refusals raised by [`RunArtifact::merge_shards`]. A merge either
/// succeeds completely or fails with one of these — never a silent
/// partial merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No artifacts were given.
    Empty,
    /// An artifact carries no [`ShardIdentity`] stamp.
    MissingIdentity {
        /// The unstamped artifact's name.
        name: String,
    },
    /// Artifacts disagree on the total shard count.
    ShardCountMismatch {
        /// Count claimed by the first artifact.
        expected: usize,
        /// Conflicting count.
        found: usize,
    },
    /// Artifacts disagree on the run's config hash: they record different
    /// runs and must not be folded together.
    ConfigHashMismatch {
        /// Hash claimed by the first artifact.
        expected: u64,
        /// Conflicting hash.
        found: u64,
        /// The shard index carrying the conflicting hash.
        shard: usize,
    },
    /// Two artifacts claim the same shard index.
    DuplicateShard {
        /// The doubly-claimed index.
        index: usize,
    },
    /// A shard index in `0..count` has no artifact.
    MissingShard {
        /// The absent index.
        index: usize,
        /// The expected shard count.
        count: usize,
    },
    /// A shard index is outside `0..count`.
    IndexOutOfRange {
        /// The out-of-range index.
        index: usize,
        /// The expected shard count.
        count: usize,
    },
    /// Some shards carry a coverage section and this one does not — e.g.
    /// it was exported from a pre-coverage journal. Refusing is the
    /// honest move: silently merging would let the coverage-less shard's
    /// losses vanish from the folded report (the "absent coverage is not
    /// `1.0`" rule).
    CoverageMissing {
        /// The shard index with no coverage section.
        shard: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Empty => write!(f, "merge: no shard artifacts given"),
            MergeError::MissingIdentity { name } => {
                write!(f, "merge: artifact {name:?} has no shard identity")
            }
            MergeError::ShardCountMismatch { expected, found } => {
                write!(f, "merge: shard counts disagree ({expected} vs {found})")
            }
            MergeError::ConfigHashMismatch {
                expected,
                found,
                shard,
            } => write!(
                f,
                "merge: shard {shard} hashes config {found:016x}, expected {expected:016x}"
            ),
            MergeError::DuplicateShard { index } => {
                write!(f, "merge: shard index {index} appears twice")
            }
            MergeError::MissingShard { index, count } => {
                write!(f, "merge: shard {index} of {count} is missing")
            }
            MergeError::IndexOutOfRange { index, count } => {
                write!(f, "merge: shard index {index} outside 0..{count}")
            }
            MergeError::CoverageMissing { shard } => write!(
                f,
                "merge: shard {shard} has no coverage section while others do \
                 (absent coverage is \"not recorded\", never full)"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// A completed run frozen as a versioned, comparable artifact.
///
/// ```
/// use nbhd_obs::{Obs, RunArtifact};
/// let obs = Obs::new();
/// let stage = obs.tracer().enter("survey");
/// obs.clock().advance_ms(12);
/// obs.registry().add("survey.captures", 5);
/// stage.record();
/// let artifact = RunArtifact::from_obs("smoke", &obs);
/// let json = artifact.to_json().unwrap();
/// let back = RunArtifact::from_json(&json).unwrap();
/// assert_eq!(artifact, back);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunArtifact {
    /// Schema version this artifact was written with.
    pub schema_version: u32,
    /// Caller-chosen run name (journal key, diff label).
    pub name: String,
    /// Stage spans in enter (`seq`) order.
    pub spans: Vec<SpanRecord>,
    /// Final metrics snapshot (all namespaces).
    pub metrics: MetricsSnapshot,
    /// Which shard of a distributed run this artifact records; `None`
    /// for whole runs (including merged ones).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub shard: Option<ShardIdentity>,
    /// Coverage facts, when the producing run recorded them. Absent
    /// means "not recorded" — never full coverage.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub coverage: Option<RunCoverage>,
}

/// Errors raised while exporting or importing a [`RunArtifact`].
#[derive(Debug)]
pub enum ExportError {
    /// Filesystem read/write failed.
    Io(std::io::Error),
    /// The payload was not valid artifact JSON.
    Json(serde_json::Error),
    /// The artifact was written by a newer schema than this reader.
    SchemaVersion {
        /// Version found in the artifact header.
        found: u32,
        /// Newest version this reader understands.
        supported: u32,
    },
}

impl fmt::Display for ExportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExportError::Io(err) => write!(f, "artifact io: {err}"),
            ExportError::Json(err) => write!(f, "artifact json: {err}"),
            ExportError::SchemaVersion { found, supported } => write!(
                f,
                "artifact schema version {found} is newer than supported {supported}"
            ),
        }
    }
}

impl std::error::Error for ExportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExportError::Io(err) => Some(err),
            ExportError::Json(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ExportError {
    fn from(err: std::io::Error) -> Self {
        ExportError::Io(err)
    }
}

impl From<serde_json::Error> for ExportError {
    fn from(err: serde_json::Error) -> Self {
        ExportError::Json(err)
    }
}

impl RunArtifact {
    /// Freezes the current state of an [`Obs`] bundle.
    pub fn from_obs(name: &str, obs: &Obs) -> RunArtifact {
        RunArtifact::from_summary(name, obs.summary())
    }

    /// Wraps an already-collected [`RunSummary`].
    pub fn from_summary(name: &str, summary: RunSummary) -> RunArtifact {
        RunArtifact {
            schema_version: ARTIFACT_SCHEMA_VERSION,
            name: name.to_string(),
            spans: summary.spans,
            metrics: summary.metrics,
            shard: None,
            coverage: None,
        }
    }

    /// Stamps the artifact as one shard of a distributed run.
    #[must_use]
    pub fn with_shard(mut self, identity: ShardIdentity) -> RunArtifact {
        self.shard = Some(identity);
        self
    }

    /// Attaches the producing run's coverage facts.
    #[must_use]
    pub fn with_coverage(mut self, coverage: RunCoverage) -> RunArtifact {
        self.coverage = Some(coverage);
        self
    }

    /// Folds N per-shard artifacts into one run artifact.
    ///
    /// The merge reconstructs, on the deterministic surface, exactly what
    /// a single process running every shard in index order would have
    /// recorded:
    ///
    /// * **spans** are namespaced under `shard-i/...` (spans already
    ///   rooted at `shard-i` keep their keys), re-based onto one virtual
    ///   timeline (each shard's clock starts where the previous shard's
    ///   extent ended, matching the in-process driver's shared clock),
    ///   and re-numbered sequentially;
    /// * **counters** (deterministic and wall) are summed — per-shard
    ///   runs publish per-process values for exactly this reason;
    /// * **histograms** fold via the proven-commutative
    ///   [`Histogram::merge`];
    /// * **gauges fold by max when named `*.peak`, else drop**: a
    ///   high-water mark (e.g. `core.shard.resident_scenes.peak`) has an
    ///   honest cross-process algebra — the distributed peak is the max
    ///   of per-process peaks — so `.peak`-suffixed gauges survive the
    ///   merge. Every other gauge (fractions, completion-order float
    ///   sums) obeys no fold algebra and is dropped; the honest global
    ///   coverage fraction lives in the merged coverage section instead;
    /// * **coverage** folds with the [`RunCoverage::merge`] algebra. All
    ///   shards must agree on having a section; a mixed set refuses with
    ///   [`MergeError::CoverageMissing`], and a uniformly absent one
    ///   yields an artifact that makes no coverage claim.
    ///
    /// # Errors
    ///
    /// Returns a typed [`MergeError`] on an empty input, an unstamped
    /// artifact, disagreeing shard counts or config hashes, duplicate,
    /// missing, or out-of-range shard indices, or a mixed coverage set.
    /// There is never a silent partial merge.
    pub fn merge_shards(name: &str, parts: &[RunArtifact]) -> Result<RunArtifact, MergeError> {
        let Some(first) = parts.first() else {
            return Err(MergeError::Empty);
        };
        let mut sorted: Vec<(&RunArtifact, ShardIdentity)> = Vec::with_capacity(parts.len());
        for part in parts {
            let identity = part.shard.ok_or_else(|| MergeError::MissingIdentity {
                name: part.name.clone(),
            })?;
            sorted.push((part, identity));
        }
        let expected = sorted[0].1;
        for (_, identity) in &sorted {
            if identity.count != expected.count {
                return Err(MergeError::ShardCountMismatch {
                    expected: expected.count,
                    found: identity.count,
                });
            }
            if identity.config_hash != expected.config_hash {
                return Err(MergeError::ConfigHashMismatch {
                    expected: expected.config_hash,
                    found: identity.config_hash,
                    shard: identity.index,
                });
            }
            if identity.index >= identity.count {
                return Err(MergeError::IndexOutOfRange {
                    index: identity.index,
                    count: identity.count,
                });
            }
        }
        sorted.sort_by_key(|(_, identity)| identity.index);
        for pair in sorted.windows(2) {
            if pair[0].1.index == pair[1].1.index {
                return Err(MergeError::DuplicateShard {
                    index: pair[0].1.index,
                });
            }
        }
        for (position, (_, identity)) in sorted.iter().enumerate() {
            if identity.index != position {
                return Err(MergeError::MissingShard {
                    index: position,
                    count: expected.count,
                });
            }
        }
        if sorted.len() < expected.count {
            return Err(MergeError::MissingShard {
                index: sorted.len(),
                count: expected.count,
            });
        }
        let with_coverage = sorted.iter().filter(|(p, _)| p.coverage.is_some()).count();
        if with_coverage != 0 && with_coverage != sorted.len() {
            let (_, identity) = sorted
                .iter()
                .find(|(p, _)| p.coverage.is_none())
                .unwrap_or_else(|| unreachable!("checked: some shard lacks coverage"));
            return Err(MergeError::CoverageMissing {
                shard: identity.index,
            });
        }

        let mut spans: Vec<SpanRecord> = Vec::new();
        let mut seq = 0u64;
        let mut offset = 0u64;
        let mut counters = std::collections::BTreeMap::new();
        let mut wall_counters = std::collections::BTreeMap::new();
        let mut gauges: std::collections::BTreeMap<String, f64> = std::collections::BTreeMap::new();
        let mut histograms: std::collections::BTreeMap<String, Histogram> =
            std::collections::BTreeMap::new();
        let mut wall_histograms: std::collections::BTreeMap<String, Histogram> =
            std::collections::BTreeMap::new();
        for (part, identity) in &sorted {
            let root = format!("shard-{}", identity.index);
            let child_prefix = format!("{root}/");
            for span in &part.spans {
                let (key, depth) = if span.key == root || span.key.starts_with(&child_prefix) {
                    (span.key.clone(), span.depth)
                } else {
                    (format!("{child_prefix}{}", span.key), span.depth + 1)
                };
                spans.push(SpanRecord {
                    key,
                    name: span.name.clone(),
                    depth,
                    seq,
                    start_vms: span.start_vms + offset,
                    end_vms: span.end_vms + offset,
                    wall_us: span.wall_us,
                });
                seq += 1;
            }
            offset += part.spans.iter().map(|s| s.end_vms).max().unwrap_or(0);
            for (metric, value) in &part.metrics.counters {
                *counters.entry(metric.clone()).or_insert(0u64) += value;
            }
            for (metric, value) in &part.metrics.wall_counters {
                *wall_counters.entry(metric.clone()).or_insert(0u64) += value;
            }
            for (metric, &value) in &part.metrics.gauges {
                if metric.ends_with(".peak") {
                    gauges
                        .entry(metric.clone())
                        .and_modify(|peak| *peak = peak.max(value))
                        .or_insert(value);
                }
            }
            for (metric, hist) in &part.metrics.histograms {
                histograms.entry(metric.clone()).or_default().merge(hist);
            }
            for (metric, hist) in &part.metrics.wall_histograms {
                wall_histograms
                    .entry(metric.clone())
                    .or_default()
                    .merge(hist);
            }
        }
        let coverage = if with_coverage == sorted.len() {
            Some(RunCoverage::merge(
                sorted.iter().filter_map(|(p, _)| p.coverage.clone()),
            ))
        } else {
            None
        };
        Ok(RunArtifact {
            schema_version: first.schema_version,
            name: name.to_string(),
            spans,
            metrics: MetricsSnapshot {
                counters,
                wall_counters,
                gauges,
                histograms,
                wall_histograms,
            },
            shard: None,
            coverage,
        })
    }

    /// The deterministic surface as text: spans, counters, histograms.
    /// Byte-identical at any worker count for the same plan and seed
    /// (wall counters, gauges, wall histograms, and `wall_us` excluded).
    pub fn deterministic_text(&self) -> String {
        RunSummary {
            spans: self.spans.clone(),
            metrics: self.metrics.clone(),
        }
        .deterministic_text()
    }

    /// The span tree as a Chrome-trace / Perfetto `traceEvents`
    /// document on the **virtual** timeline: each span is one complete
    /// (`"ph": "X"`) event with `ts`/`dur` in microseconds derived from
    /// virtual milliseconds, so the rendered trace is as deterministic
    /// as the spans themselves. Wall-clock duration rides along in
    /// `args.wall_us` for reference.
    pub fn chrome_trace(&self) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|span| {
                json!({
                    "name": span.name,
                    "cat": "nbhd",
                    "ph": "X",
                    "ts": span.start_vms * 1000,
                    "dur": span.virtual_ms() * 1000,
                    "pid": 1,
                    "tid": 1,
                    "args": {
                        "key": span.key,
                        "seq": span.seq,
                        "depth": span.depth,
                        "wall_us": span.wall_us,
                    },
                })
            })
            .collect();
        json!({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "run": self.name,
                "schema_version": self.schema_version,
                "timeline": "virtual-ms",
            },
        })
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> Result<String, ExportError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses an artifact, rejecting schema versions newer than
    /// [`ARTIFACT_SCHEMA_VERSION`].
    pub fn from_json(json: &str) -> Result<RunArtifact, ExportError> {
        let artifact: RunArtifact = serde_json::from_str(json)?;
        if artifact.schema_version > ARTIFACT_SCHEMA_VERSION {
            return Err(ExportError::SchemaVersion {
                found: artifact.schema_version,
                supported: ARTIFACT_SCHEMA_VERSION,
            });
        }
        Ok(artifact)
    }

    /// Writes the artifact as JSON to `path`, creating parent
    /// directories as needed.
    pub fn write_file(&self, path: &Path) -> Result<(), ExportError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Reads an artifact previously written by
    /// [`RunArtifact::write_file`].
    pub fn read_file(path: &Path) -> Result<RunArtifact, ExportError> {
        RunArtifact::from_json(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_obs() -> Obs {
        let obs = Obs::new();
        let run = obs.tracer().enter("run");
        obs.clock().advance_ms(5);
        let survey = obs.tracer().enter("survey");
        obs.clock().advance_ms(20);
        survey.record();
        obs.registry().add("survey.captures", 10);
        obs.registry().add_wall("exec.steals", 2);
        obs.registry().record_hist("lat.ms", 30);
        obs.registry().record_hist("lat.ms", 70);
        run.record();
        obs
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let artifact = RunArtifact::from_obs("t", &sample_obs());
        let back = RunArtifact::from_json(&artifact.to_json().unwrap()).unwrap();
        assert_eq!(artifact, back);
    }

    #[test]
    fn future_schema_versions_are_rejected() {
        let mut artifact = RunArtifact::from_obs("t", &sample_obs());
        artifact.schema_version = ARTIFACT_SCHEMA_VERSION + 1;
        let err = RunArtifact::from_json(&artifact.to_json().unwrap()).unwrap_err();
        assert!(matches!(err, ExportError::SchemaVersion { .. }), "{err}");
    }

    #[test]
    fn artifacts_missing_histograms_or_span_wall_time_are_json_errors() {
        let span = r#"{"key":"run","name":"run","depth":0,"seq":0,"start_vms":0,"end_vms":5}"#;
        let metrics = r#"{"counters":{"a":1},"wall_counters":{},"gauges":{}"#;
        for json in [
            format!(r#"{{"schema_version":1,"name":"t","spans":[],"metrics":{metrics}}}}}"#),
            format!(
                r#"{{"schema_version":1,"name":"t","spans":[{span}],"metrics":{metrics},"histograms":{{}},"wall_histograms":{{}}}}}}"#
            ),
        ] {
            let err = RunArtifact::from_json(&json).unwrap_err();
            assert!(matches!(err, ExportError::Json(_)), "{err}");
        }
    }

    #[test]
    fn chrome_trace_has_wellformed_complete_events() {
        let artifact = RunArtifact::from_obs("t", &sample_obs());
        let trace = artifact.chrome_trace();
        let events = trace["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 2);
        for event in events {
            assert_eq!(event["ph"].as_str(), Some("X"));
            assert!(event["name"].is_string());
            assert!(event["ts"].is_u64());
            assert!(event["dur"].is_u64());
        }
        // run: [0..25]vms -> ts 0us dur 25000us; survey: [5..25]vms
        let survey = events
            .iter()
            .find(|e| e["name"].as_str() == Some("survey"))
            .expect("survey event");
        assert_eq!(survey["ts"].as_u64(), Some(5000));
        assert_eq!(survey["dur"].as_u64(), Some(20_000));
    }

    #[test]
    fn deterministic_text_matches_summary_surface() {
        let obs = sample_obs();
        let artifact = RunArtifact::from_obs("t", &obs);
        assert_eq!(
            artifact.deterministic_text(),
            obs.summary().deterministic_text()
        );
        assert!(artifact.deterministic_text().contains("hist lat.ms"));
        assert!(!artifact.deterministic_text().contains("steals"));
    }

    #[test]
    fn file_roundtrip_creates_parents() {
        let dir = std::env::temp_dir().join("nbhd-obs-export-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/artifact.json");
        let artifact = RunArtifact::from_obs("t", &sample_obs());
        artifact.write_file(&path).unwrap();
        let back = RunArtifact::read_file(&path).unwrap();
        assert_eq!(artifact, back);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn shard_artifact(index: usize, count: usize) -> RunArtifact {
        let obs = Obs::new();
        let root = obs.tracer().enter(&format!("shard-{index}"));
        let survey = obs.tracer().enter("survey");
        obs.clock().advance_ms(10 * (index as u64 + 1));
        survey.record();
        root.record();
        obs.registry().add("survey.captures", 3);
        obs.registry().add_wall("exec.steals", 1);
        obs.registry()
            .set_gauge("core.shard.resident_scenes.peak", 4.0 + index as f64);
        obs.registry().set_gauge("core.coverage.fraction", 0.5);
        obs.registry()
            .record_hist("lat.ms", 10 * (index as u64 + 1));
        RunArtifact::from_obs(&format!("part-{index}"), &obs).with_shard(ShardIdentity {
            index,
            count,
            config_hash: 0xfeed,
        })
    }

    #[test]
    fn merge_rebases_spans_sums_counters_and_max_folds_peak_gauges() {
        let parts = [shard_artifact(0, 2), shard_artifact(1, 2)];
        let merged = RunArtifact::merge_shards("whole", &parts).unwrap();
        assert_eq!(merged.name, "whole");
        assert_eq!(merged.shard, None, "a merged artifact is a whole run");
        // shard-0 spans sit at [0..10], shard-1 re-bases onto [10..30].
        assert_eq!(merged.spans.len(), 4);
        assert_eq!(merged.spans[0].key, "shard-0");
        assert_eq!(merged.spans[1].key, "shard-0/survey");
        assert_eq!(merged.spans[2].key, "shard-1");
        assert_eq!(merged.spans[3].key, "shard-1/survey");
        assert_eq!(merged.spans[2].start_vms, 10);
        assert_eq!(merged.spans[2].end_vms, 30);
        let seqs: Vec<u64> = merged.spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(merged.metrics.counters["survey.captures"], 6);
        assert_eq!(merged.metrics.wall_counters["exec.steals"], 2);
        // `.peak` gauges are high-water marks: the distributed peak is
        // the max of per-process peaks (shard-1 recorded 5.0).
        assert_eq!(
            merged.metrics.gauges["core.shard.resident_scenes.peak"],
            5.0
        );
        assert_eq!(
            merged.metrics.gauges.len(),
            1,
            "non-peak gauges have no fold algebra and must be dropped: {:?}",
            merged.metrics.gauges
        );
        assert_eq!(merged.metrics.histograms["lat.ms"].count(), 2);
        assert_eq!(merged.metrics.histograms["lat.ms"].sum(), 30);
    }

    #[test]
    fn merge_namespaces_unrooted_spans_under_their_shard() {
        let obs = Obs::new();
        let survey = obs.tracer().enter("survey");
        obs.clock().advance_ms(7);
        survey.record();
        let part = RunArtifact::from_obs("bare", &obs).with_shard(ShardIdentity {
            index: 0,
            count: 1,
            config_hash: 1,
        });
        let merged = RunArtifact::merge_shards("whole", &[part]).unwrap();
        assert_eq!(merged.spans[0].key, "shard-0/survey");
        assert_eq!(merged.spans[0].depth, 1);
    }

    #[test]
    fn merge_refuses_bad_shard_sets_with_typed_errors() {
        assert_eq!(
            RunArtifact::merge_shards("w", &[]).unwrap_err(),
            MergeError::Empty
        );
        let unstamped = RunArtifact::from_obs("loose", &sample_obs());
        assert!(matches!(
            RunArtifact::merge_shards("w", &[unstamped]).unwrap_err(),
            MergeError::MissingIdentity { .. }
        ));
        let mut other_count = shard_artifact(1, 2);
        other_count.shard = Some(ShardIdentity {
            index: 1,
            count: 3,
            config_hash: 0xfeed,
        });
        assert_eq!(
            RunArtifact::merge_shards("w", &[shard_artifact(0, 2), other_count]).unwrap_err(),
            MergeError::ShardCountMismatch {
                expected: 2,
                found: 3
            }
        );
        let mut other_hash = shard_artifact(1, 2);
        other_hash.shard = Some(ShardIdentity {
            index: 1,
            count: 2,
            config_hash: 0xbeef,
        });
        assert_eq!(
            RunArtifact::merge_shards("w", &[shard_artifact(0, 2), other_hash]).unwrap_err(),
            MergeError::ConfigHashMismatch {
                expected: 0xfeed,
                found: 0xbeef,
                shard: 1
            }
        );
        assert_eq!(
            RunArtifact::merge_shards("w", &[shard_artifact(0, 2), shard_artifact(0, 2)])
                .unwrap_err(),
            MergeError::DuplicateShard { index: 0 }
        );
        assert_eq!(
            RunArtifact::merge_shards("w", &[shard_artifact(0, 2)]).unwrap_err(),
            MergeError::MissingShard { index: 1, count: 2 }
        );
        assert_eq!(
            RunArtifact::merge_shards("w", &[shard_artifact(1, 2), shard_artifact(0, 2)])
                .unwrap()
                .metrics
                .counters["survey.captures"],
            6,
            "input order must not matter"
        );
        let mut out_of_range = shard_artifact(0, 2);
        out_of_range.shard = Some(ShardIdentity {
            index: 5,
            count: 2,
            config_hash: 0xfeed,
        });
        assert_eq!(
            RunArtifact::merge_shards("w", &[shard_artifact(0, 2), out_of_range]).unwrap_err(),
            MergeError::IndexOutOfRange { index: 5, count: 2 }
        );
    }

    #[test]
    fn merge_refuses_mixed_coverage_and_folds_uniform_coverage() {
        use crate::coverage::{RunCoverage, ShardCoverageRow};
        let row = |shard: usize| ShardCoverageRow {
            shard,
            planned: 5,
            completed: 4,
            quarantined: 1,
            skipped: 0,
            timed_out: false,
        };
        let covered = |i: usize| {
            shard_artifact(i, 2).with_coverage(RunCoverage {
                shards: vec![row(i)],
                regions: Vec::new(),
            })
        };
        let err = RunArtifact::merge_shards("w", &[covered(0), shard_artifact(1, 2)]).unwrap_err();
        assert_eq!(err, MergeError::CoverageMissing { shard: 1 });

        let merged = RunArtifact::merge_shards("w", &[covered(0), covered(1)]).unwrap();
        let coverage = merged.coverage.expect("merged coverage");
        assert_eq!(coverage.planned(), 10);
        assert_eq!(coverage.completed(), 8);

        let bare =
            RunArtifact::merge_shards("w", &[shard_artifact(0, 2), shard_artifact(1, 2)]).unwrap();
        assert_eq!(
            bare.coverage, None,
            "no shard recorded coverage: the merge makes no claim"
        );
    }
}
