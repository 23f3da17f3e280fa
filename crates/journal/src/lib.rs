//! Crash-safe run layer: an append-only, checksummed write-ahead journal
//! plus config-hash manifests, so a long fee-metered survey run survives
//! process death and resumes to **byte-identical** results.
//!
//! The model is save-before-act over keyed units of work:
//!
//! * every completed unit that costs to redo — a `(location, heading)`
//!   capture, a scene fee, a completed shard, the trained detector, an LLM
//!   vote — is appended as one checksummed [`Record`]; seeded work that is
//!   cheaper to recompute than to read back is redone instead;
//! * a [`RunManifest`] binds the journal directory to the FNV-1a hash of
//!   the run configuration, so resuming under a changed config is refused
//!   with [`JournalError::ConfigMismatch`] instead of silently replaying
//!   stale records;
//! * on reopen, recovery scans forward, truncates any torn or corrupt
//!   tail (the half-written frame a crash leaves behind), and replays the
//!   surviving records through the [`CheckpointStore`] trait — completed
//!   units are served from the journal, everything else is redone.
//!
//! Reopening checks framing and checksums only: a frame carries its kind
//! and key in front of its JSON payload, so [`Journal::open`] indexes
//! `(kind, key)` to payload bytes and each payload is parsed when it is
//! loaded. The deep audit ([`scan_bytes`], [`verify_file`]) walks the same
//! frames and parses every payload.
//!
//! Record order in the file is scheduling-dependent and deliberately
//! meaningless: replay is keyed by `(kind, key)`, which is what makes the
//! journal compatible with the deterministic parallel substrate in
//! `nbhd-exec`.
//!
//! Each record kind is a type implementing [`Replayable`]: its kind name,
//! its serde payload, and the checks the record and its key alone decide.
//! Every layer goes through [`load`], [`load_all`], [`save`] and
//! [`replay_or`], so a bad record is always
//! `Error::Parse("{KIND} record {key}: …")`.
//!
//! # Examples
//!
//! ```
//! use nbhd_journal::{replay_or, Journal, Replayable, RunManifest};
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Serialize, Deserialize)]
//! struct Fee {
//!     cents: u32,
//! }
//!
//! impl Replayable for Fee {
//!     const KIND: &'static str = "fee";
//!
//!     fn validate(&self, _key: &str) -> Result<(), String> {
//!         match self.cents {
//!             0 => Err("a fee of 0 cents".to_owned()),
//!             _ => Ok(()),
//!         }
//!     }
//! }
//!
//! let dir = std::env::temp_dir().join("nbhd-journal-doc");
//! let _ = std::fs::remove_dir_all(&dir);
//! let manifest = RunManifest::for_config("doc-run", &("seed", 7u64))?;
//! let journal = Journal::open_or_create(&dir, &manifest)?;
//! // computed, journaled, and only then returned
//! let fee = replay_or(Some(&journal), "12@N", || Ok(Fee { cents: 700 }))?;
//! drop(journal);
//!
//! // a "restarted process" replays the record instead of computing it
//! let journal = Journal::open_or_create(&dir, &manifest)?;
//! assert_eq!(journal.restored_records(), 1);
//! let replayed: Fee = replay_or(Some(&journal), "12@N", || unreachable!())?;
//! assert_eq!(replayed.cents, fee.cents);
//! std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), nbhd_types::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod journal;
mod manifest;
mod record;
mod replay;

pub use error::JournalError;
pub use journal::{
    journal_path, scan_file, verify_file, CheckpointStore, Journal, JournalAudit, KillSchedule,
    MemoryStore,
};
pub use manifest::{config_hash, manifest_path, read_manifest, write_manifest, RunManifest};
pub use record::{
    encode_record, fnv1a64, header_bytes, scan_bytes, JournalScan, Record, FORMAT_VERSION,
    HEADER_LEN, MAGIC,
};
pub use replay::{load, load_all, replay_or, save, Replayable};
