//! Journal integrity checker: deep-scan a write-ahead journal from disk.
//!
//! ```text
//! cargo run -p nbhd-bench --bin journal_fsck -- RUN_DIR_OR_JOURNAL_FILE
//! cargo run -p nbhd-bench --bin journal_fsck -- --self-test
//! ```
//!
//! Every frame is re-read, re-checksummed and its payload re-parsed via
//! [`nbhd_core::journal::verify_file`] — recovery-on-open only trusts the
//! prefix it happened to scan, while this audits the file as it exists now.
//! Exits 0 when the journal is clean, 1 when any frame is corrupt or the
//! file has a torn tail, and 2 on usage or I/O errors. A clean journal's
//! makeup follows, one line per record kind: its records, their frame
//! bytes, and that share of the file.
//!
//! `--self-test` exercises the detector end to end: it writes a small
//! journal file of two kinds in a temp directory, verifies it clean and
//! checks its per-kind counts, flips one byte in a record body, and asserts
//! the damage is found at a concrete offset.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use nbhd_core::journal::{journal_path, scan_file, verify_file, JournalAudit, JournalScan};

fn resolve(arg: &str) -> PathBuf {
    let path = Path::new(arg);
    if path.is_dir() {
        journal_path(path)
    } else {
        path.to_path_buf()
    }
}

/// Records and frame bytes per record kind, from the scan's frame offsets:
/// a frame runs to the next frame's offset, the last to the valid prefix's
/// end.
fn kinds(scan: &JournalScan) -> BTreeMap<&str, (u64, u64)> {
    let ends = scan.offsets.iter().skip(1).chain([&scan.valid_len]);
    let mut kinds: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for ((record, start), end) in scan.records.iter().zip(&scan.offsets).zip(ends) {
        let (records, bytes) = kinds.entry(&record.kind).or_default();
        *records += 1;
        *bytes += end - start;
    }
    kinds
}

fn report(path: &Path, audit: &JournalAudit) -> Result<ExitCode, String> {
    if audit.is_clean() {
        println!(
            "journal_fsck: {}: clean ({} records, {} bytes)",
            path.display(),
            audit.records,
            audit.file_len
        );
        let scan = scan_file(path).map_err(|e| e.to_string())?;
        for (kind, (records, bytes)) in kinds(&scan) {
            println!(
                "  {kind:<20} {records:>7} records {bytes:>10} bytes {:>5.1}%",
                100.0 * bytes as f64 / audit.file_len as f64
            );
        }
        Ok(ExitCode::SUCCESS)
    } else {
        let offset = audit.corrupt_offset.unwrap_or(audit.valid_len);
        let detail = audit.corruption.as_deref().unwrap_or("trailing bytes");
        println!(
            "journal_fsck: {}: CORRUPT at byte {} ({}); {} records / {} bytes trusted of {}",
            path.display(),
            offset,
            detail,
            audit.records,
            audit.valid_len,
            audit.file_len
        );
        Ok(ExitCode::from(1))
    }
}

fn self_test() -> Result<(), String> {
    use nbhd_core::journal::{encode_record, header_bytes, Record, HEADER_LEN};

    let dir = std::env::temp_dir().join(format!("nbhd-fsck-selftest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(fmt)?;
    let mut bytes = header_bytes();
    for key in 0..8u32 {
        bytes.extend(
            encode_record(&Record {
                kind: if key % 3 == 0 { "fsck-b" } else { "fsck-a" }.to_owned(),
                key: key.to_string(),
                payload: serde_json::json!({ "key": key, "payload": "abcdefgh" }),
            })
            .map_err(fmt)?,
        );
    }
    let path = journal_path(&dir);
    std::fs::write(&path, &bytes).map_err(fmt)?;
    let clean = verify_file(&path).map_err(fmt)?;
    if !clean.is_clean() || clean.records != 8 {
        return Err(format!("expected a clean 8-record journal, got {clean:?}"));
    }
    let scan = scan_file(&path).map_err(fmt)?;
    let makeup = kinds(&scan);
    let counts: Vec<(&str, u64)> = makeup.iter().map(|(k, (n, _))| (*k, *n)).collect();
    if counts != [("fsck-a", 5), ("fsck-b", 3)] {
        return Err(format!(
            "expected 5 fsck-a and 3 fsck-b records, got {counts:?}"
        ));
    }
    let framed: u64 = makeup.values().map(|(_, bytes)| bytes).sum();
    if framed + HEADER_LEN != clean.file_len {
        return Err(format!(
            "{framed} frame bytes and the header do not make the {}-byte file",
            clean.file_len
        ));
    }

    // flip one byte inside a record body, past the header and first frame
    let target = bytes.len() / 2;
    bytes[target] ^= 0xFF;
    std::fs::write(&path, &bytes).map_err(fmt)?;

    let damaged = verify_file(&path).map_err(fmt)?;
    if damaged.is_clean() {
        return Err("flipped a byte but the audit came back clean".to_string());
    }
    if damaged.corrupt_offset.is_none_or(|o| o as usize > target) {
        return Err(format!(
            "damage at byte {target} but audit reported {:?}",
            damaged.corrupt_offset
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "journal_fsck: self-test passed (clean scan, then corruption detected at byte {})",
        damaged.corrupt_offset.unwrap_or_default()
    );
    Ok(())
}

fn fmt<E: std::fmt::Display>(err: E) -> String {
    format!("journal_fsck: {err}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag] if flag == "--self-test" => match self_test() {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("{err}");
                ExitCode::from(1)
            }
        },
        [path] => {
            let path = resolve(path);
            match verify_file(&path)
                .map_err(|e| e.to_string())
                .and_then(|audit| report(&path, &audit))
            {
                Ok(code) => code,
                Err(err) => {
                    eprintln!("journal_fsck: {}: {err}", path.display());
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("usage: journal_fsck <run-dir-or-journal-file> | --self-test");
            ExitCode::from(2)
        }
    }
}
