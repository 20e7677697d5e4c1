//! Machine-readable stats export: one JSON line per completed sweep cell.
//!
//! Point `BINGO_STATS` at a file (or a directory — the file is then named
//! after the running binary) and every bench binary writes each completed
//! cell's full [`SimResult`] — telemetry report included, when enabled —
//! as one self-contained JSON line, in the same format the crash-safe
//! checkpoint uses (floats as IEEE-754 bit patterns, see
//! [`crate::checkpoint`]). CI uploads the file as an artifact; offline
//! analysis parses it with any JSON reader.
//!
//! Unlike the checkpoint (an append-only resume log), the export is a
//! *report*: it is truncated on creation, written in deterministic order
//! (baselines first, then cells in grid order), and deduplicates keys so
//! repeated grids over the same harness cannot double-report a cell.

use std::collections::HashSet;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use bingo_sim::SimResult;

use crate::checkpoint::serialize_entry;

/// A deduplicating JSONL writer of completed cell results.
#[derive(Debug)]
pub struct StatsExport {
    path: PathBuf,
    writer: Mutex<File>,
    written: Mutex<HashSet<String>>,
}

impl StatsExport {
    /// Creates (truncating) the export file. A path that names an existing
    /// directory or ends in a separator is treated as a directory and the
    /// file inside it is named `<binary>.json` after the running
    /// executable, so one `BINGO_STATS=results/` serves every binary of a
    /// multi-figure run.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the file (parent directories
    /// are created as needed).
    pub fn create(path: impl AsRef<Path>) -> io::Result<StatsExport> {
        let path = resolve_path(path.as_ref());
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let writer = File::create(&path)?;
        Ok(StatsExport {
            path,
            writer: Mutex::new(writer),
            written: Mutex::new(HashSet::new()),
        })
    }

    /// The resolved output file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes one cell as a JSON line, flushed immediately. A key already
    /// written is skipped — repeated grids over one harness report each
    /// cell once.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from appending to the export file.
    pub fn record(&self, key: &str, result: &SimResult) -> io::Result<()> {
        if !lock(&self.written).insert(key.to_string()) {
            return Ok(());
        }
        let line = serialize_entry(key, result);
        let mut writer = lock(&self.writer);
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()
    }
}

/// Maps a directory-like path to `<dir>/<binary>.json`.
fn resolve_path(path: &Path) -> PathBuf {
    let dir_like = path.is_dir()
        || path
            .to_str()
            .is_some_and(|s| s.ends_with('/') || s.ends_with(std::path::MAIN_SEPARATOR));
    if dir_like {
        path.join(format!("{}.json", current_binary_name()))
    } else {
        path.to_path_buf()
    }
}

/// The running executable's stem, for directory-target file naming.
fn current_binary_name() -> String {
    std::env::current_exe()
        .ok()
        .as_deref()
        .and_then(Path::file_stem)
        .and_then(|s| s.to_str())
        // Test binaries carry a `-<hash>` suffix; strip it so reruns
        // overwrite instead of accumulating.
        .map(|s| s.rsplit_once('-').map_or(s, |(stem, _)| stem).to_string())
        .unwrap_or_else(|| "bench".to_string())
}

/// Locks a mutex, ignoring poisoning: the export state is a plain set and
/// file handle, consistent even if another thread panicked mid-sweep.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_sim::{CacheStats, CoreStats};

    fn sample(salt: u64) -> SimResult {
        SimResult {
            cores: vec![CoreStats {
                instructions: salt,
                cycles: 2 * salt,
                ..CoreStats::default()
            }],
            l1d: CacheStats::default(),
            llc: CacheStats::default(),
            dram_transfers: 1,
            total_cycles: 2 * salt,
            prefetcher_debug: vec![],
            prefetcher_metrics: vec![vec![]],
            telemetry: None,
            ingest: None,
            qos: None,
        }
    }

    fn tmp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bingo-stats-tests-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn writes_one_line_per_unique_key() {
        let path = tmp_dir().join("unique.json");
        let export = StatsExport::create(&path).expect("create");
        export.record("a", &sample(1)).expect("write a");
        export.record("b", &sample(2)).expect("write b");
        export.record("a", &sample(3)).expect("dup is a no-op");
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "duplicate key must not re-export");
        assert!(lines[0].contains("\"key\":\"a\""));
        assert!(lines[1].contains("\"key\":\"b\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn create_truncates_previous_report() {
        let path = tmp_dir().join("truncate.json");
        let export = StatsExport::create(&path).expect("create");
        export.record("stale", &sample(1)).expect("write");
        drop(export);
        let export = StatsExport::create(&path).expect("recreate");
        export.record("fresh", &sample(2)).expect("write");
        drop(export);
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(!text.contains("stale"), "report is truncated, not appended");
        assert!(text.contains("fresh"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn directory_target_names_file_after_binary() {
        let dir = tmp_dir().join("results");
        std::fs::create_dir_all(&dir).expect("dir");
        let export = StatsExport::create(&dir).expect("create in dir");
        assert_eq!(export.path().parent(), Some(dir.as_path()));
        assert!(export.path().extension().is_some_and(|e| e == "json"));
        let _ = std::fs::remove_file(export.path());
    }

    #[test]
    fn missing_parent_directories_are_created() {
        let path = tmp_dir().join("deep/nested/out.json");
        let export = StatsExport::create(&path).expect("create with parents");
        export.record("k", &sample(1)).expect("write");
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
    }
}
