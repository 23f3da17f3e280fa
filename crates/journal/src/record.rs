//! The on-disk journal format: a fixed file header followed by
//! length-prefixed, checksummed record frames.
//!
//! ```text
//! file   := MAGIC (8 bytes) VERSION (u32 LE) frame*
//! frame  := len (u32 LE) checksum (u64 LE, FNV-1a over body) body
//! body   := kind_len (u16 LE) kind (UTF-8) key_len (u16 LE) key (UTF-8) payload
//! payload:= the recorded output as JSON (at least one byte)
//! ```
//!
//! The frame layout makes recovery a single forward scan: a torn tail —
//! whether it cuts a length word, a checksum, or the body — fails
//! validation at the first damaged frame, and everything before it is
//! trusted verbatim. There is no footer or index to rebuild; the journal
//! is valid at *every* prefix that ends on a frame boundary.
//!
//! Kind and key sit in front of the payload, so a reader can index a
//! frame without parsing its JSON: [`Journal::open`](crate::Journal::open)
//! checks framing and checksums only, and decodes a payload when it is
//! loaded. The deep audit ([`scan_bytes`]) walks the same frames and also
//! parses every payload.

use std::ops::Range;

use crate::JournalError;

/// File magic: identifies a journal file.
pub const MAGIC: &[u8; 8] = b"NBHDJRNL";

/// On-disk format version.
pub const FORMAT_VERSION: u32 = 2;

/// Byte length of the file header (magic + version).
pub const HEADER_LEN: u64 = 12;

/// Per-frame prefix length (length word + checksum word).
const FRAME_PREFIX: usize = 12;

/// Upper bound on a single record body; anything larger is treated as a
/// corrupt length word rather than an allocation request.
const MAX_BODY_LEN: u32 = 1 << 28;

/// One journaled unit of completed work: a capture, a fee, a vote, a
/// trained detector — anything that costs to redo after a crash.
///
/// `kind` namespaces the record (each layer owns its kinds), `key`
/// identifies the unit within the kind, and `payload` is the unit's full
/// recorded output, replayed verbatim on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Record namespace, e.g. `"capture"`, `"gsv-fee"`, `"llm-vote"`.
    pub kind: String,
    /// Unit identity within the kind, e.g. an image id.
    pub key: String,
    /// The recorded output, replayed verbatim on resume.
    pub payload: serde_json::Value,
}

/// FNV-1a over a byte slice: tiny, dependency-free, and stable across
/// platforms — exactly what a torn-write detector needs (this is an
/// integrity check against crashes, not an adversary).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The 12-byte file header.
pub fn header_bytes() -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN as usize);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out
}

/// Encodes one record as a framed byte sequence.
///
/// # Errors
///
/// Returns [`JournalError::Corrupt`] when the payload cannot be serialized
/// (non-string map keys and similar serde_json refusals), or when the kind
/// or key is longer than a u16 length word can name.
pub fn encode_record(record: &Record) -> Result<Vec<u8>, JournalError> {
    encode_frame(&record.kind, &record.key, &record.payload).map(|(frame, _)| frame)
}

/// Encodes one frame, and returns it with the byte offset of its payload
/// within it.
pub(crate) fn encode_frame(
    kind: &str,
    key: &str,
    payload: &serde_json::Value,
) -> Result<(Vec<u8>, usize), JournalError> {
    let unframable = |detail: String| JournalError::Corrupt { offset: 0, detail };
    let json = serde_json::to_vec(payload)
        .map_err(|e| unframable(format!("unserializable record: {e}")))?;
    let mut frame = vec![0; FRAME_PREFIX];
    for (what, text) in [("kind", kind), ("key", key)] {
        let len = u16::try_from(text.len())
            .map_err(|_| unframable(format!("record {what} exceeds u16 length")))?;
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(text.as_bytes());
    }
    let payload_at = frame.len();
    frame.extend_from_slice(&json);
    let body_len = u32::try_from(frame.len() - FRAME_PREFIX)
        .map_err(|_| unframable("record body exceeds u32 length".to_owned()))?;
    let checksum = fnv1a64(&frame[FRAME_PREFIX..]);
    frame[..4].copy_from_slice(&body_len.to_le_bytes());
    frame[4..FRAME_PREFIX].copy_from_slice(&checksum.to_le_bytes());
    Ok((frame, payload_at))
}

/// One frame that passed its length, checksum and kind/key checks, as
/// [`walk_frames`] hands it out. Its payload is not parsed.
pub(crate) struct Frame<'a> {
    /// Byte offset of the frame start.
    pub offset: usize,
    /// The record kind.
    pub kind: &'a str,
    /// The record key.
    pub key: &'a str,
    /// Byte range of the JSON payload in the walked bytes.
    pub payload: Range<usize>,
}

/// Splits a u16-length-prefixed UTF-8 string off the front of `bytes`.
fn take_str<'a>(bytes: &'a [u8], what: &str) -> Result<(&'a str, &'a [u8]), String> {
    let (len, rest) = bytes
        .split_first_chunk::<2>()
        .ok_or_else(|| format!("record {what} length runs past the body"))?;
    let len = usize::from(u16::from_le_bytes(*len));
    if len > rest.len() {
        return Err(format!("record {what} of {len} bytes runs past the body"));
    }
    let (text, rest) = rest.split_at(len);
    let text = std::str::from_utf8(text).map_err(|_| format!("record {what} is not UTF-8"))?;
    Ok((text, rest))
}

/// Reads the frame that starts at `offset`, checking its length word,
/// checksum and kind/key prefix.
fn read_frame(bytes: &[u8], offset: usize) -> Result<Frame<'_>, String> {
    let (prefix, tail) = bytes[offset..]
        .split_first_chunk::<FRAME_PREFIX>()
        .ok_or("torn frame prefix")?;
    let len = u32::from_le_bytes([prefix[0], prefix[1], prefix[2], prefix[3]]);
    if len == 0 || len > MAX_BODY_LEN {
        return Err(format!("implausible body length {len}"));
    }
    let body = tail.get(..len as usize).ok_or("torn record body")?;
    let mut stored = [0; 8];
    stored.copy_from_slice(&prefix[4..]);
    if fnv1a64(body) != u64::from_le_bytes(stored) {
        return Err("checksum mismatch".to_owned());
    }
    let (kind, after) = take_str(body, "kind")?;
    let (key, payload) = take_str(after, "key")?;
    if payload.is_empty() {
        return Err("empty record payload".to_owned());
    }
    let end = offset + FRAME_PREFIX + body.len();
    Ok(Frame {
        offset,
        kind,
        key,
        payload: end - payload.len()..end,
    })
}

/// Walks journal bytes frame by frame, checking each frame's length word,
/// checksum and kind/key prefix, and hands every frame that passes to
/// `visit` in file order. `visit` may refuse a frame with a reason, which
/// ends the walk at that frame like any other damage.
///
/// Never panics. Returns the length of the trusted prefix (0 when the
/// header is missing or mangled) and the fault that ended the walk, or
/// `None` when it reached the end on a frame boundary.
pub(crate) fn walk_frames<'a>(
    bytes: &'a [u8],
    mut visit: impl FnMut(Frame<'a>) -> Result<(), String>,
) -> (u64, Option<JournalError>) {
    let corrupt = |offset: usize, detail: String| JournalError::Corrupt {
        offset: offset as u64,
        detail,
    };
    let Some(header) = bytes.first_chunk::<{ HEADER_LEN as usize }>() else {
        let fault = (!bytes.is_empty()).then(|| corrupt(0, "truncated file header".to_owned()));
        return (0, fault);
    };
    if &header[..8] != MAGIC {
        return (0, Some(corrupt(0, "bad magic".to_owned())));
    }
    let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if version != FORMAT_VERSION {
        let detail = format!("unsupported format version {version}");
        return (0, Some(corrupt(8, detail)));
    }
    let mut pos = HEADER_LEN as usize;
    while pos < bytes.len() {
        let visited = read_frame(bytes, pos).and_then(|frame| {
            let end = frame.payload.end;
            visit(frame).map(|()| end)
        });
        match visited {
            Ok(end) => pos = end,
            Err(detail) => return (pos as u64, Some(corrupt(pos, detail))),
        }
    }
    (pos as u64, None)
}

/// The result of scanning journal bytes: every record in the valid prefix,
/// each record's frame offset, the byte length of the valid prefix, and —
/// when the scan stopped early — what stopped it.
#[derive(Debug)]
pub struct JournalScan {
    /// All records in the valid prefix, in append order.
    pub records: Vec<Record>,
    /// Byte offset of each record's frame start (parallel to `records`).
    pub offsets: Vec<u64>,
    /// Length of the trusted prefix; recovery truncates the file to this.
    pub valid_len: u64,
    /// The validation failure that ended the scan, if any. `None` means the
    /// whole file parsed cleanly.
    pub corruption: Option<JournalError>,
}

impl JournalScan {
    /// Converts the scan into a hard error when any corruption was found.
    ///
    /// # Errors
    ///
    /// Returns the corruption that ended the scan.
    pub fn strict(self) -> Result<JournalScan, JournalError> {
        match self.corruption {
            Some(err) => Err(err),
            None => Ok(self),
        }
    }
}

/// Scans journal bytes, validating every frame in order and parsing every
/// payload: the deep audit behind [`crate::scan_file`] and
/// [`crate::verify_file`]. A payload that is not JSON ends the scan at its
/// frame.
///
/// Never panics and never fails: damage is reported in
/// [`JournalScan::corruption`] and everything before the damage is
/// returned. A missing or mangled header yields an empty scan with
/// `valid_len == 0` (recovery rewrites the header).
pub fn scan_bytes(bytes: &[u8]) -> JournalScan {
    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let (valid_len, corruption) = walk_frames(bytes, |frame| {
        let payload = serde_json::from_slice(&bytes[frame.payload])
            .map_err(|e| format!("unparseable record payload: {e}"))?;
        records.push(Record {
            kind: frame.kind.to_owned(),
            key: frame.key.to_owned(),
            payload,
        });
        offsets.push(frame.offset as u64);
        Ok(())
    });
    JournalScan {
        records,
        offsets,
        valid_len,
        corruption,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: u64) -> Record {
        Record {
            kind: "test".to_owned(),
            key: i.to_string(),
            payload: serde_json::json!({ "value": i }),
        }
    }

    fn journal_bytes(n: u64) -> Vec<u8> {
        let mut bytes = header_bytes();
        for i in 0..n {
            bytes.extend_from_slice(&encode_record(&sample(i)).unwrap());
        }
        bytes
    }

    #[test]
    fn roundtrips_records() {
        let bytes = journal_bytes(5);
        let scan = scan_bytes(&bytes);
        assert!(scan.corruption.is_none());
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.offsets.len(), 5);
        for (i, record) in scan.records.iter().enumerate() {
            assert_eq!(*record, sample(i as u64));
        }
    }

    #[test]
    fn every_truncation_recovers_a_frame_boundary_prefix() {
        let bytes = journal_bytes(4);
        let full = scan_bytes(&bytes);
        let boundaries: Vec<u64> = full
            .offsets
            .iter()
            .copied()
            .chain(std::iter::once(bytes.len() as u64))
            .collect();
        for cut in 0..bytes.len() {
            let scan = scan_bytes(&bytes[..cut]);
            // valid_len is always one of the true frame boundaries (or 0)
            assert!(
                scan.valid_len == 0 || boundaries.contains(&scan.valid_len),
                "cut {cut} -> valid_len {}",
                scan.valid_len
            );
            // records in the valid prefix are undamaged
            for (i, record) in scan.records.iter().enumerate() {
                assert_eq!(*record, sample(i as u64));
            }
            // only whole-file cuts on boundaries are corruption-free
            let on_boundary =
                cut as u64 == 0 || cut as u64 == HEADER_LEN || boundaries.contains(&(cut as u64));
            assert_eq!(scan.corruption.is_none(), on_boundary, "cut {cut}");
        }
    }

    #[test]
    fn flipped_byte_is_detected_not_propagated() {
        let bytes = journal_bytes(3);
        let clean = scan_bytes(&bytes);
        for flip in HEADER_LEN as usize..bytes.len() {
            let mut mangled = bytes.clone();
            mangled[flip] ^= 0x40;
            let scan = scan_bytes(&mangled);
            // never more records than the clean scan, and any record that
            // does survive is byte-identical to the original
            assert!(scan.records.len() <= clean.records.len());
            for (a, b) in scan.records.iter().zip(&clean.records) {
                assert_eq!(a, b, "flip at {flip} leaked damage into a record");
            }
        }
    }

    #[test]
    fn header_damage_yields_empty_scan() {
        let mut bytes = journal_bytes(2);
        bytes[0] ^= 0xff;
        let scan = scan_bytes(&bytes);
        assert_eq!(scan.valid_len, 0);
        assert!(scan.records.is_empty());
        assert!(matches!(
            scan.corruption,
            Some(JournalError::Corrupt { offset: 0, .. })
        ));
        assert!(scan_bytes(&[]).corruption.is_none());
    }

    #[test]
    fn strict_scan_surfaces_the_corruption() {
        let mut bytes = journal_bytes(2);
        bytes.truncate(bytes.len() - 3);
        let err = scan_bytes(&bytes).strict().unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }));
        assert!(scan_bytes(&journal_bytes(2)).strict().is_ok());
    }

    #[test]
    fn a_kind_or_key_past_u16_is_refused_not_truncated() {
        let long = "k".repeat(usize::from(u16::MAX) + 1);
        for (kind, key) in [(long.as_str(), "0"), ("test", long.as_str())] {
            let record = Record {
                kind: kind.to_owned(),
                key: key.to_owned(),
                payload: serde_json::json!(0),
            };
            assert!(matches!(
                encode_record(&record),
                Err(JournalError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn fnv_is_stable() {
        // pinned so on-disk journals stay readable across builds
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
