//! The journal itself: durable append, crash recovery, and replay.

use std::collections::{BTreeMap, HashMap};
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::record::{encode_frame, walk_frames};
use crate::{
    header_bytes, read_manifest, scan_bytes, write_manifest, JournalError, JournalScan,
    RunManifest, HEADER_LEN,
};

/// A simulated crash point for torture testing: the journal dies after
/// `after_records` successful appends, optionally writing the first
/// `torn_bytes` of the next record (a torn write) before dying. Every
/// append after the kill point fails with [`JournalError::Killed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSchedule {
    /// Appends that succeed before the crash.
    pub after_records: u64,
    /// Bytes of the next record's frame written before dying (0 = the
    /// crash lands exactly on a record boundary).
    pub torn_bytes: usize,
}

impl KillSchedule {
    /// Dies cleanly on the record boundary after `n` appends.
    pub fn at(n: u64) -> KillSchedule {
        KillSchedule {
            after_records: n,
            torn_bytes: 0,
        }
    }

    /// Dies after `n` appends, leaving `torn_bytes` of the next record on
    /// disk — the half-written page a real power cut leaves behind.
    pub fn torn(n: u64, torn_bytes: usize) -> KillSchedule {
        KillSchedule {
            after_records: n,
            torn_bytes,
        }
    }
}

/// Abstract checkpoint storage for completed units of work.
///
/// One trait serves every layer: the survey pipeline records captures and
/// completed shards, the imagery service records fees, the study records
/// its trained detector, the ensemble records votes. Implemented by
/// [`Journal`] (durable) and [`MemoryStore`] (tests).
///
/// Save-before-act is the contract that makes resume exact: a unit's
/// output is journaled *before* any externally visible effect depends on
/// it, so a crash leaves either no trace (redo) or a full record (replay)
/// — never a half-effect.
pub trait CheckpointStore: Send + Sync + std::fmt::Debug {
    /// The recorded payload for `(kind, key)`, if journaled.
    fn load(&self, kind: &str, key: &str) -> Option<serde_json::Value>;

    /// All recorded `(key, payload)` pairs of a kind, sorted by key.
    fn load_kind(&self, kind: &str) -> Vec<(String, serde_json::Value)>;

    /// Durably records a completed unit of work.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on write failure or
    /// [`JournalError::Killed`] past a [`KillSchedule`] crash point.
    fn save(&self, kind: &str, key: &str, payload: serde_json::Value) -> Result<(), JournalError>;
}

/// An append-only, checksummed write-ahead journal over one run directory.
///
/// Appends are flushed per record; recovery on [`Journal::open`] scans the
/// file, truncates any torn or corrupt tail, and exposes the surviving
/// records for replay through [`CheckpointStore`]. Replay is *keyed*, not
/// positional: record order in the file depends on worker scheduling and
/// is deliberately meaningless.
///
/// The journal keeps the file's bytes in memory with an index from
/// `(kind, key)` to each payload's byte range, and decodes a payload only
/// when it is loaded. A payload that is not JSON loads as `None`, so its
/// unit is redone.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    recovery: Option<String>,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    file: File,
    /// The file's trusted bytes, header included: what `index` points into.
    bytes: Vec<u8>,
    index: Index,
    restored: u64,
    appended: u64,
    kill: Option<KillSchedule>,
    dead: bool,
}

/// `kind → key → payload byte range` in the journal's bytes. The last
/// frame of a key wins; duplicates of a key record the same unit.
type Index = HashMap<String, BTreeMap<String, Range<usize>>>;

fn index_insert(index: &mut Index, kind: &str, key: &str, payload: Range<usize>) {
    index
        .entry(kind.to_owned())
        .or_default()
        .insert(key.to_owned(), payload);
}

/// Path of the journal file inside a run directory.
pub fn journal_path(dir: &Path) -> PathBuf {
    dir.join("journal.nbhd")
}

/// Scans a journal file from disk without opening it for writing — the
/// inspection entry point for tests and tooling.
///
/// # Errors
///
/// Returns [`JournalError::Io`] when the file cannot be read. Corruption is
/// *not* an error here; it is reported inside the scan.
pub fn scan_file(path: &Path) -> Result<JournalScan, JournalError> {
    Ok(scan_bytes(&fs::read(path)?))
}

/// The result of a deep integrity scan over a journal file: every frame
/// re-read from disk and re-checksummed, independent of any in-memory
/// replay state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalAudit {
    /// Frames that re-validated end to end (length, checksum, JSON parse).
    pub records: u64,
    /// Byte length of the trusted prefix.
    pub valid_len: u64,
    /// Total file length in bytes.
    pub file_len: u64,
    /// Byte offset of the first damage, when any was found.
    pub corrupt_offset: Option<u64>,
    /// Human-readable description of the first damage, when any.
    pub corruption: Option<String>,
}

impl JournalAudit {
    /// Whether the whole file re-validated: no corruption and no trailing
    /// bytes beyond the last valid frame.
    pub fn is_clean(&self) -> bool {
        self.corruption.is_none() && self.valid_len == self.file_len
    }
}

/// Deep-scans a journal file: re-reads every byte from disk, re-validates
/// every frame's length word and FNV-1a checksum, re-parses every payload,
/// and reports the first corrupt offset if the file is damaged.
///
/// Unlike recovery ([`Journal::open`]), this never truncates or rewrites
/// anything — it is a pure integrity check for tooling (`journal_fsck`)
/// and pre-flight gates.
///
/// # Errors
///
/// Returns [`JournalError::Io`] when the file cannot be read. Corruption
/// is reported inside the audit, not as an error.
pub fn verify_file(path: &Path) -> Result<JournalAudit, JournalError> {
    let bytes = fs::read(path)?;
    let scan = scan_bytes(&bytes);
    let corrupt_offset = match &scan.corruption {
        Some(JournalError::Corrupt { offset, .. }) => Some(*offset),
        Some(_) => Some(scan.valid_len),
        None => None,
    };
    Ok(JournalAudit {
        records: scan.records.len() as u64,
        valid_len: scan.valid_len,
        file_len: bytes.len() as u64,
        corrupt_offset,
        corruption: scan.corruption.as_ref().map(|c| c.to_string()),
    })
}

impl Journal {
    /// Creates a fresh run directory: manifest written, empty journal.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on filesystem failure.
    pub fn create(dir: &Path, manifest: &RunManifest) -> Result<Journal, JournalError> {
        fs::create_dir_all(dir)?;
        write_manifest(dir, manifest)?;
        let bytes = header_bytes();
        let mut file = File::create(journal_path(dir))?;
        file.write_all(&bytes)?;
        file.flush()?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            recovery: None,
            inner: Mutex::new(Inner {
                file,
                bytes,
                index: Index::new(),
                restored: 0,
                appended: 0,
                kill: None,
                dead: false,
            }),
        })
    }

    /// Opens an existing run directory for resume: validates the manifest
    /// against `expected`, walks the journal's frames checking framing and
    /// checksums, truncates any torn or corrupt tail, and indexes the
    /// surviving records for replay. No payload is parsed here; each is
    /// decoded when it is loaded.
    ///
    /// # Errors
    ///
    /// * [`JournalError::Manifest`] — manifest missing or unreadable.
    /// * [`JournalError::ConfigMismatch`] — manifest written by a
    ///   different configuration.
    /// * [`JournalError::Io`] — filesystem failure.
    ///
    /// Journal-body corruption is **not** an error: the damaged suffix is
    /// dropped (the work it recorded is simply redone) and described by
    /// [`Journal::recovery_note`].
    pub fn open(dir: &Path, expected: &RunManifest) -> Result<Journal, JournalError> {
        let found = read_manifest(dir)?;
        if found.config_hash != expected.config_hash {
            return Err(JournalError::ConfigMismatch {
                expected: expected.config_hash,
                found: found.config_hash,
            });
        }
        let path = journal_path(dir);
        let mut bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut index = Index::new();
        let mut restored = 0;
        let (valid_len, corruption) = walk_frames(&bytes, |frame| {
            index_insert(&mut index, frame.kind, frame.key, frame.payload);
            restored += 1;
            Ok(())
        });
        let recovery = corruption.map(|c| c.to_string());
        // no truncate on open: set_len below cuts the file to its trusted prefix
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if valid_len < HEADER_LEN {
            // header missing or damaged: no trustworthy records — restart
            // the file (the manifest, validated above, still names the run)
            bytes = header_bytes();
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&bytes)?;
        } else {
            bytes.truncate(valid_len as usize);
            file.set_len(valid_len)?;
            file.seek(SeekFrom::Start(valid_len))?;
        }
        file.flush()?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            recovery,
            inner: Mutex::new(Inner {
                file,
                bytes,
                index,
                restored,
                appended: 0,
                kill: None,
                dead: false,
            }),
        })
    }

    /// Opens the run directory when its manifest exists, creates it fresh
    /// otherwise — the one-call resume entry point.
    ///
    /// # Errors
    ///
    /// Propagates [`Journal::open`] / [`Journal::create`] failures,
    /// including [`JournalError::ConfigMismatch`].
    pub fn open_or_create(dir: &Path, manifest: &RunManifest) -> Result<Journal, JournalError> {
        if crate::manifest_path(dir).exists() {
            Journal::open(dir, manifest)
        } else {
            Journal::create(dir, manifest)
        }
    }

    /// Installs a [`KillSchedule`] (torture testing only).
    #[must_use]
    pub fn with_kill(self, kill: KillSchedule) -> Journal {
        self.inner.lock().kill = Some(kill);
        self
    }

    /// The run directory this journal lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records recovered from disk at open time.
    pub fn restored_records(&self) -> u64 {
        self.inner.lock().restored
    }

    /// Records appended by this process.
    pub fn appended_records(&self) -> u64 {
        self.inner.lock().appended
    }

    /// Human-readable description of any corruption dropped during
    /// recovery, or `None` for a clean open.
    pub fn recovery_note(&self) -> Option<&str> {
        self.recovery.as_deref()
    }
}

impl CheckpointStore for Journal {
    fn load(&self, kind: &str, key: &str) -> Option<serde_json::Value> {
        // copy the payload out so parallel replays decode outside the lock
        let payload = {
            let inner = self.inner.lock();
            let range = inner.index.get(kind)?.get(key)?;
            inner.bytes[range.clone()].to_vec()
        };
        serde_json::from_slice(&payload).ok()
    }

    fn load_kind(&self, kind: &str) -> Vec<(String, serde_json::Value)> {
        let inner = self.inner.lock();
        let Some(keys) = inner.index.get(kind) else {
            return Vec::new();
        };
        keys.iter()
            .filter_map(|(key, range)| {
                let payload = serde_json::from_slice(&inner.bytes[range.clone()]).ok()?;
                Some((key.clone(), payload))
            })
            .collect()
    }

    fn save(&self, kind: &str, key: &str, payload: serde_json::Value) -> Result<(), JournalError> {
        let (frame, payload_at) = encode_frame(kind, key, &payload)?;
        let mut inner = self.inner.lock();
        if inner.dead {
            return Err(JournalError::Killed);
        }
        if let Some(kill) = inner.kill {
            if inner.appended >= kill.after_records {
                let torn = kill.torn_bytes.min(frame.len());
                inner.file.write_all(&frame[..torn])?;
                inner.file.flush()?;
                inner.dead = true;
                return Err(JournalError::Killed);
            }
        }
        inner.file.write_all(&frame)?;
        inner.file.flush()?;
        inner.appended += 1;
        let start = inner.bytes.len();
        inner.bytes.extend_from_slice(&frame);
        index_insert(
            &mut inner.index,
            kind,
            key,
            start + payload_at..start + frame.len(),
        );
        Ok(())
    }
}

/// An in-memory [`CheckpointStore`] for unit tests: same keyed semantics
/// as [`Journal`], no filesystem.
#[derive(Debug, Default)]
pub struct MemoryStore {
    map: Mutex<HashMap<(String, String), serde_json::Value>>,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }

    /// Total records stored.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }
}

impl CheckpointStore for MemoryStore {
    fn load(&self, kind: &str, key: &str) -> Option<serde_json::Value> {
        self.map
            .lock()
            .get(&(kind.to_owned(), key.to_owned()))
            .cloned()
    }

    fn load_kind(&self, kind: &str) -> Vec<(String, serde_json::Value)> {
        let map = self.map.lock();
        let mut out: Vec<(String, serde_json::Value)> = map
            .iter()
            .filter(|((k, _), _)| k == kind)
            .map(|((_, key), payload)| (key.clone(), payload.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn save(&self, kind: &str, key: &str, payload: serde_json::Value) -> Result<(), JournalError> {
        self.map
            .lock()
            .insert((kind.to_owned(), key.to_owned()), payload);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nbhd-journal-{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn manifest() -> RunManifest {
        RunManifest::new("unit", 0xfeed)
    }

    #[test]
    fn append_then_reopen_replays() {
        let dir = temp_dir("reopen");
        let journal = Journal::create(&dir, &manifest()).unwrap();
        for i in 0..10u64 {
            journal
                .save("unit", &i.to_string(), serde_json::json!({ "i": i }))
                .unwrap();
        }
        assert_eq!(journal.appended_records(), 10);
        drop(journal);

        let journal = Journal::open(&dir, &manifest()).unwrap();
        assert_eq!(journal.restored_records(), 10);
        assert!(journal.recovery_note().is_none());
        assert_eq!(
            journal.load("unit", "7"),
            Some(serde_json::json!({ "i": 7 }))
        );
        assert_eq!(journal.load("unit", "11"), None);
        assert_eq!(journal.load_kind("unit").len(), 10);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_config_refuses_resume() {
        let dir = temp_dir("mismatch");
        Journal::create(&dir, &manifest()).unwrap();
        let other = RunManifest::new("unit", 0xbeef);
        assert!(matches!(
            Journal::open(&dir, &other),
            Err(JournalError::ConfigMismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_schedule_dies_and_stays_dead() {
        let dir = temp_dir("kill");
        let journal = Journal::create(&dir, &manifest())
            .unwrap()
            .with_kill(KillSchedule::torn(3, 5));
        for i in 0..3u64 {
            journal
                .save("unit", &i.to_string(), serde_json::json!(i))
                .unwrap();
        }
        assert!(matches!(
            journal.save("unit", "3", serde_json::json!(3)),
            Err(JournalError::Killed)
        ));
        assert!(matches!(
            journal.save("unit", "4", serde_json::json!(4)),
            Err(JournalError::Killed)
        ));
        drop(journal);

        // recovery drops the 5 torn bytes and replays the 3 full records
        let journal = Journal::open(&dir, &manifest()).unwrap();
        assert_eq!(journal.restored_records(), 3);
        assert!(journal.recovery_note().is_some());
        journal.save("unit", "3", serde_json::json!(3)).unwrap();
        drop(journal);
        let journal = Journal::open(&dir, &manifest()).unwrap();
        assert_eq!(journal.restored_records(), 4);
        assert!(journal.recovery_note().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn last_record_wins_on_duplicate_keys() {
        let dir = temp_dir("dupes");
        let journal = Journal::create(&dir, &manifest()).unwrap();
        journal.save("unit", "k", serde_json::json!(1)).unwrap();
        journal.save("unit", "k", serde_json::json!(2)).unwrap();
        drop(journal);
        let journal = Journal::open(&dir, &manifest()).unwrap();
        assert_eq!(journal.load("unit", "k"), Some(serde_json::json!(2)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_file_passes_on_a_clean_journal() {
        let dir = temp_dir("verify-clean");
        let journal = Journal::create(&dir, &manifest()).unwrap();
        for i in 0..6u64 {
            journal
                .save("unit", &i.to_string(), serde_json::json!({ "i": i }))
                .unwrap();
        }
        // appends flush per record, so the on-disk file is current
        let audit = verify_file(&journal_path(&dir)).unwrap();
        assert!(audit.is_clean(), "{audit:?}");
        assert_eq!(audit.records, 6);
        assert_eq!(audit.valid_len, audit.file_len);
        assert_eq!(audit.corrupt_offset, None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_file_pins_a_flipped_byte_to_its_frame() {
        let dir = temp_dir("verify-flip");
        let journal = Journal::create(&dir, &manifest()).unwrap();
        for i in 0..6u64 {
            journal
                .save("unit", &i.to_string(), serde_json::json!({ "i": i }))
                .unwrap();
        }
        drop(journal);

        let path = journal_path(&dir);
        let mut bytes = fs::read(&path).unwrap();
        let target = bytes.len() / 2;
        bytes[target] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let audit = verify_file(&path).unwrap();
        assert!(!audit.is_clean());
        assert!(audit.records < 6, "{audit:?}");
        let offset = audit.corrupt_offset.expect("corrupt offset");
        assert!(offset as usize <= target, "{offset} vs {target}");
        assert_eq!(
            offset, audit.valid_len,
            "frames before the damage stay trusted"
        );
        assert!(audit.corruption.is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_file_flags_a_torn_tail_recovery_would_drop() {
        let dir = temp_dir("verify-torn");
        let journal = Journal::create(&dir, &manifest())
            .unwrap()
            .with_kill(KillSchedule::torn(2, 5));
        journal.save("unit", "0", serde_json::json!(0)).unwrap();
        journal.save("unit", "1", serde_json::json!(1)).unwrap();
        let _ = journal.save("unit", "2", serde_json::json!(2));
        drop(journal);

        let audit = verify_file(&journal_path(&dir)).unwrap();
        assert!(!audit.is_clean());
        assert_eq!(audit.records, 2);
        assert!(audit.valid_len < audit.file_len);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_store_matches_journal_semantics() {
        let store = MemoryStore::new();
        assert!(store.is_empty());
        store.save("a", "1", serde_json::json!("x")).unwrap();
        store.save("a", "0", serde_json::json!("y")).unwrap();
        store.save("b", "9", serde_json::json!("z")).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.load("a", "1"), Some(serde_json::json!("x")));
        let kind_a = store.load_kind("a");
        assert_eq!(kind_a[0].0, "0", "load_kind sorts by key");
        assert_eq!(kind_a.len(), 2);
    }
}
