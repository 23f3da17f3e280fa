//! Bench-only crate: see `benches/` and `src/bin/`. The library holds what
//! the paper-tables harness shares with its tests.

use std::ffi::OsString;
use std::path::{Path, PathBuf};

/// Where the paper-tables harness writes its run artifact: the
/// `NBHD_ARTIFACT` value when one is given, else `BENCH_paper_tables.json`
/// in the workspace's `target/` directory. That is found from this crate's
/// manifest directory, so it is the same wherever the harness runs from
/// (`cargo bench` runs it in `crates/bench`).
pub fn paper_tables_artifact_path(nbhd_artifact: Option<OsString>) -> PathBuf {
    nbhd_artifact.map_or_else(
        || {
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .expect("crates/bench sits two levels below the workspace root")
                .join("target/BENCH_paper_tables.json")
        },
        PathBuf::from,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_artifact_lands_in_the_workspace_target_dir() {
        let path = paper_tables_artifact_path(None);
        assert!(path.is_absolute(), "{}", path.display());
        assert!(path.ends_with("target/BENCH_paper_tables.json"));
        let root = path.parent().and_then(Path::parent).unwrap();
        // the workspace root holds the lock file and the committed baseline
        assert!(root.join("Cargo.lock").is_file(), "{}", root.display());
        assert!(root.join("BENCH_paper_tables.json").is_file());
        assert!(!path.starts_with(Path::new(env!("CARGO_MANIFEST_DIR"))));
    }

    #[test]
    fn an_explicit_artifact_path_is_kept_as_given() {
        let path = paper_tables_artifact_path(Some("out/run.json".into()));
        assert_eq!(path, PathBuf::from("out/run.json"));
    }
}
