//! Coverage facts carried on a [`crate::RunArtifact`].
//!
//! A [`RunCoverage`] is the workspace's one coverage model: per-shard and
//! per-region counts of what a run planned, completed, quarantined, and
//! skipped. The core crate's shard coverage keeps its region counts as
//! [`RegionCoverageRow`]s and projects itself to a one-shard
//! `RunCoverage`; its run report and [`crate::RunArtifact::merge_shards`]
//! both fold those projections with [`RunCoverage::merge`], so an
//! in-process run and a merge of per-process shards sum regions through
//! one function. It lives here, not in the core crate, because `nbhd-obs`
//! sits below the core crate in the dependency graph.
//!
//! The fold is pure summation: shard rows concatenate (sorted by shard
//! index), region rows fold by region name with every count summed. Both
//! outputs are sorted, so [`RunCoverage::merge`] is invariant to input
//! order — the property the distributed-run tests pin.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// One shard's coverage counts on the artifact surface.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardCoverageRow {
    /// The shard index within the run's shard plan.
    pub shard: usize,
    /// Locations the plan assigned to this shard.
    pub planned: u64,
    /// Locations whose every unit completed.
    pub completed: u64,
    /// Locations quarantined as poison.
    pub quarantined: u64,
    /// Locations skipped by a watchdog timeout.
    pub skipped: u64,
    /// Whether the watchdog demoted the shard.
    pub timed_out: bool,
}

/// One region's coverage counts, aggregated over shards.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionCoverageRow {
    /// The region (county) name.
    pub region: String,
    /// Planned locations in the region.
    pub planned: u64,
    /// Completed locations in the region.
    pub completed: u64,
    /// Quarantined locations in the region.
    pub quarantined: u64,
    /// Skipped locations in the region.
    pub skipped: u64,
}

/// What a run actually covered, as carried on its artifact.
///
/// An artifact without a `RunCoverage` section makes *no* coverage claim —
/// readers must treat that as "not recorded", never as full coverage
/// (see [`crate::diff`], which flags a coverage section present on only
/// one side as a [`crate::BudgetViolationKind::Unmatched`] rule).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunCoverage {
    /// Per-shard rows, sorted by shard index.
    pub shards: Vec<ShardCoverageRow>,
    /// Per-region rows, sorted by region name.
    pub regions: Vec<RegionCoverageRow>,
}

impl RunCoverage {
    /// Locations planned across all shards.
    pub fn planned(&self) -> u64 {
        self.shards.iter().map(|s| s.planned).sum()
    }

    /// Locations completed across all shards.
    pub fn completed(&self) -> u64 {
        self.shards.iter().map(|s| s.completed).sum()
    }

    /// Locations quarantined across all shards.
    pub fn quarantined(&self) -> u64 {
        self.shards.iter().map(|s| s.quarantined).sum()
    }

    /// Locations skipped across all shards.
    pub fn skipped(&self) -> u64 {
        self.shards.iter().map(|s| s.skipped).sum()
    }

    /// The honest coverage fraction: completed / planned (`1.0` for an
    /// empty plan). Only meaningful on a *present* coverage section; an
    /// absent section is "not recorded", not `1.0`.
    pub fn fraction(&self) -> f64 {
        let planned = self.planned();
        if planned == 0 {
            return 1.0;
        }
        self.completed() as f64 / planned as f64
    }

    /// Folds several coverage sections into one: shard rows concatenated
    /// and sorted by shard index, region rows summed by region name.
    /// Input order never matters.
    pub fn merge<I: IntoIterator<Item = RunCoverage>>(parts: I) -> RunCoverage {
        let mut shards: Vec<ShardCoverageRow> = Vec::new();
        let mut regions: BTreeMap<String, RegionCoverageRow> = BTreeMap::new();
        for part in parts {
            shards.extend(part.shards);
            for row in part.regions {
                let entry =
                    regions
                        .entry(row.region.clone())
                        .or_insert_with(|| RegionCoverageRow {
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
        shards.sort_by_key(|s| s.shard);
        RunCoverage {
            shards,
            regions: regions.into_values().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(index: usize, planned: u64, completed: u64) -> RunCoverage {
        RunCoverage {
            shards: vec![ShardCoverageRow {
                shard: index,
                planned,
                completed,
                quarantined: planned - completed,
                skipped: 0,
                timed_out: false,
            }],
            regions: vec![
                RegionCoverageRow {
                    region: "durham".to_owned(),
                    planned: planned / 2,
                    completed: completed / 2,
                    quarantined: planned / 2 - completed / 2,
                    skipped: 0,
                },
                RegionCoverageRow {
                    region: "robeson".to_owned(),
                    planned: planned - planned / 2,
                    completed: completed - completed / 2,
                    quarantined: (planned - planned / 2) - (completed - completed / 2),
                    skipped: 0,
                },
            ],
        }
    }

    #[test]
    fn merge_is_order_invariant_and_sums() {
        let parts = [shard(0, 10, 8), shard(1, 6, 6), shard(2, 4, 1)];
        let forward = RunCoverage::merge(parts.clone());
        let backward = RunCoverage::merge(parts.iter().rev().cloned());
        assert_eq!(forward, backward);
        assert_eq!(forward.planned(), 20);
        assert_eq!(forward.completed(), 15);
        assert_eq!(forward.quarantined(), 5);
        assert_eq!(forward.shards[0].shard, 0);
        assert_eq!(forward.shards[2].shard, 2);
        assert_eq!(
            forward.regions.iter().map(|r| r.planned).sum::<u64>(),
            forward.planned(),
            "region totals must equal shard totals"
        );
        assert!((forward.fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_plan_reports_full_fraction() {
        let empty = RunCoverage {
            shards: Vec::new(),
            regions: Vec::new(),
        };
        assert_eq!(empty.fraction(), 1.0);
        assert_eq!(RunCoverage::merge([]).fraction(), 1.0);
    }
}
