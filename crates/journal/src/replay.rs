//! The typed face of the journal: one trait every record kind implements,
//! and the four helpers every layer loads, replays and saves through. A
//! check that needs run state, not just the record and its key, stays at
//! its call site and reports through [`Replayable::invalid`] too. Error
//! text is built only on failure.

use std::fmt;

use nbhd_types::{Error, Result};
use serde::{Deserialize, Serialize};

use crate::CheckpointStore;

/// One journal record kind: its name, its serde payload (the implementing
/// type), and the checks that the record and its key alone decide.
pub trait Replayable: Serialize + Deserialize {
    /// The record kind, e.g. `"gsv-fee"`.
    const KIND: &'static str;

    /// Checks what the record and its key alone decide. The default
    /// accepts every record that decodes.
    ///
    /// # Errors
    ///
    /// Describes the first rule the record breaks.
    fn validate(&self, _key: &str) -> std::result::Result<(), String> {
        Ok(())
    }

    /// The error a bad record of this kind under `key` reports.
    fn invalid(key: impl fmt::Display, detail: impl fmt::Display) -> Error {
        Error::Parse(format!("{} record {key}: {detail}", Self::KIND))
    }
}

/// The record of kind `R` under `key`, decoded and validated, or `None`
/// when the store holds none.
///
/// # Errors
///
/// Returns [`Error::Parse`] when the record does not decode or validate.
pub fn load<R: Replayable>(store: &dyn CheckpointStore, key: &str) -> Result<Option<R>> {
    store
        .load(R::KIND, key)
        .map(|payload| decode(key, payload))
        .transpose()
}

/// Every record of kind `R`, sorted by key, each decoded and validated.
///
/// # Errors
///
/// Returns [`Error::Parse`] for the first record that does not decode or
/// validate.
pub fn load_all<R: Replayable>(store: &dyn CheckpointStore) -> Result<Vec<(String, R)>> {
    store
        .load_kind(R::KIND)
        .into_iter()
        .map(|(key, payload)| {
            let record = decode(&key, payload)?;
            Ok((key, record))
        })
        .collect()
}

/// Journals `record` under `key`.
///
/// # Errors
///
/// Returns [`Error::Parse`] when the record does not serialize, and the
/// store's failure (a journal kill included) otherwise.
pub fn save<R: Replayable>(store: &dyn CheckpointStore, key: &str, record: &R) -> Result<()> {
    let payload = serde_json::to_value(record).map_err(|e| R::invalid(key, e))?;
    Ok(store.save(R::KIND, key, payload)?)
}

/// Save-before-act in one call: replays the valid record under `key`, or
/// runs `compute`, journals its record, and only then returns it. Without
/// a store it just computes, and never formats the key.
///
/// # Errors
///
/// Returns [`load`]'s and [`save`]'s errors, and `compute`'s own.
pub fn replay_or<R: Replayable>(
    store: Option<&dyn CheckpointStore>,
    key: impl fmt::Display,
    compute: impl FnOnce() -> Result<R>,
) -> Result<R> {
    let Some(store) = store else {
        return compute();
    };
    let key = key.to_string();
    if let Some(record) = load(store, &key)? {
        return Ok(record);
    }
    let record = compute()?;
    save(store, &key, &record)?;
    Ok(record)
}

fn decode<R: Replayable>(key: &str, payload: serde_json::Value) -> Result<R> {
    let record: R = serde_json::from_value(payload).map_err(|e| R::invalid(key, e))?;
    record.validate(key).map_err(|e| R::invalid(key, e))?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryStore;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Fee {
        cents: u32,
    }

    impl Replayable for Fee {
        const KIND: &'static str = "fee";

        fn validate(&self, _key: &str) -> std::result::Result<(), String> {
            match self.cents {
                0 => Err("a fee of 0 cents".to_owned()),
                _ => Ok(()),
            }
        }
    }

    #[test]
    fn replay_or_computes_saves_then_replays() {
        let store = MemoryStore::new();
        let failed = replay_or::<Fee>(Some(&store), "a", || Err(Error::service("down")));
        assert!(matches!(failed, Err(Error::Service(_))));
        assert!(store.is_empty(), "a failed compute saves nothing");
        let fee = replay_or(Some(&store), "a", || Ok(Fee { cents: 7 })).unwrap();
        let again: Fee = replay_or(Some(&store), "a", || panic!("replayed")).unwrap();
        assert_eq!((store.len(), again), (1, fee));
        assert_eq!(
            replay_or(None, "a", || Ok(Fee { cents: 9 })).unwrap().cents,
            9
        );
    }

    #[test]
    fn a_bad_record_is_a_parse_error_naming_kind_and_key() {
        let store = MemoryStore::new();
        store
            .save("fee", "z", serde_json::json!({ "cents": 0 }))
            .unwrap();
        let err = load_all::<Fee>(&store).unwrap_err();
        assert!(matches!(&err, Error::Parse(m) if m == "fee record z: a fee of 0 cents"));
        assert_eq!(load::<Fee>(&store, "absent").unwrap(), None);
    }
}
