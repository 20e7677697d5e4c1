//! Recorded-trace workloads: a directory of per-core `.btrc` files that
//! stands in for a synthetic generator.
//!
//! A captured workload is a directory holding one framed trace per core
//! (`core0.btrc`, `core1.btrc`, ...), as written by the `trace_capture`
//! tool. [`TraceWorkload`] adapts such a directory to the same
//! `sources(cores)` shape as [`crate::Workload::sources`], so the bench
//! harness can evaluate prefetchers on recorded streams exactly as it
//! does on live generators. Each per-core file gets its own
//! bounded-memory reader, so total residency is `cores × one chunk`.

use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use bingo_sim::InstrSource;
use bingo_trace::crc32::crc32_update;
use bingo_trace::{capture_source, Policy, ReadError, ReplaySource};

use crate::Workload;

/// A directory of per-core captured traces, usable as a workload.
#[derive(Clone, Debug)]
pub struct TraceWorkload {
    dir: PathBuf,
    name: String,
    policy: Policy,
    /// The content fingerprint of [`TraceWorkload::key`], computed on
    /// first use and shared by every clone of this handle.
    fingerprint: Arc<OnceLock<String>>,
}

impl TraceWorkload {
    /// Opens a capture directory under [`Policy::Strict`].
    ///
    /// Fails with the path and cause when the directory is missing or
    /// holds no `core0.btrc` — misconfiguration surfaces before any
    /// simulation time is spent.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::with_policy(dir, Policy::Strict)
    }

    /// Opens a capture directory with an explicit recovery policy.
    pub fn with_policy(dir: impl Into<PathBuf>, policy: Policy) -> io::Result<Self> {
        let dir = dir.into();
        let probe = core_path(&dir, 0);
        if !probe.is_file() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "trace workload {}: no {} (not a capture directory?)",
                    dir.display(),
                    probe.display()
                ),
            ));
        }
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| dir.display().to_string());
        Ok(TraceWorkload {
            dir,
            name,
            policy,
            fingerprint: Arc::default(),
        })
    }

    /// The capture directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Display name (the directory's file name, typically a workload slug).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The recovery policy replay sources will use.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Stable identifier for checkpoint cell keys: the capture
    /// directory path, the policy when non-default (so strict and lenient
    /// replays of the same file never share a checkpoint line), and a
    /// content fingerprint — the length and CRC-32 of every core file —
    /// so a capture replaced in place never resumes from the old
    /// capture's results. The fingerprint reads every core file once per
    /// handle (clones share it), on the first call.
    pub fn key(&self) -> String {
        let path = self.dir.display();
        let fingerprint = self.fingerprint.get_or_init(|| self.fingerprint());
        match self.policy {
            Policy::Strict => format!("{path}#{fingerprint}"),
            Policy::Lenient => format!("{path}?policy=lenient#{fingerprint}"),
        }
    }

    /// `len:crc` of each captured core file, comma-separated; a file
    /// that cannot be read contributes `unreadable` (its replay fails
    /// anyway).
    fn fingerprint(&self) -> String {
        let file = |path: PathBuf| -> io::Result<String> {
            let mut f = fs::File::open(path)?;
            let mut buf = vec![0u8; 1 << 16];
            let (mut len, mut crc) = (0u64, 0u32);
            loop {
                let n = f.read(&mut buf)?;
                if n == 0 {
                    return Ok(format!("{len}:{crc:08x}"));
                }
                len += n as u64;
                crc = crc32_update(crc, &buf[..n]);
            }
        };
        (0..self.captured_cores())
            .map(|core| file(self.core_path(core)).unwrap_or_else(|_| "unreadable".into()))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Path of core `core`'s trace file.
    pub fn core_path(&self, core: usize) -> PathBuf {
        core_path(&self.dir, core)
    }

    /// Builds one replay source per core.
    ///
    /// Cores beyond the captured count wrap around onto the captured
    /// files (matching how SPEC mixes cycle programs across cores).
    pub fn sources(&self, cores: usize) -> Result<Vec<Box<dyn InstrSource>>, ReadError> {
        let captured = self.captured_cores();
        assert!(captured > 0, "open() guarantees at least core0.btrc");
        (0..cores)
            .map(|core| {
                let path = self.core_path(core % captured);
                ReplaySource::open(path, self.policy)
                    .map(|source| Box::new(source) as Box<dyn InstrSource>)
            })
            .collect()
    }

    /// Number of consecutive `core{i}.btrc` files present.
    pub fn captured_cores(&self) -> usize {
        (0..).take_while(|&i| self.core_path(i).is_file()).count()
    }
}

fn core_path(dir: &Path, core: usize) -> PathBuf {
    dir.join(format!("core{core}.btrc"))
}

/// Captures `records_per_core` instructions from each of `workload`'s
/// per-core generators (seeded with `seed`) into `dir/core{i}.btrc`.
///
/// Replaying the capture with the same core count reproduces the live
/// generator streams bit for bit, provided `records_per_core` covers the
/// instructions the run will fetch (retired instructions plus a small
/// slack for in-flight fetches at the end).
pub fn capture_workload(
    workload: Workload,
    cores: usize,
    seed: u64,
    records_per_core: u64,
    chunk_records: u32,
    dir: &Path,
) -> io::Result<()> {
    fs::create_dir_all(dir).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("create capture dir {}: {e}", dir.display()),
        )
    })?;
    let sources = workload.sources(cores, seed);
    for (core, mut source) in sources.into_iter().enumerate() {
        let path = core_path(dir, core);
        let file = fs::File::create(&path).map_err(|e| {
            io::Error::new(e.kind(), format!("create trace {}: {e}", path.display()))
        })?;
        capture_source(
            &mut *source,
            records_per_core,
            chunk_records,
            io::BufWriter::new(file),
        )
        .map_err(|e| io::Error::new(e.kind(), format!("write trace {}: {e}", path.display())))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use bingo_trace::TraceWriter;

    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("bingo-trace-workload-tests")
            .join(format!("{name}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn captured_workload_replays_the_generator_stream() {
        let dir = scratch("replay");
        capture_workload(Workload::Streaming, 2, 42, 500, 64, &dir).expect("capture");

        let tw = TraceWorkload::open(&dir).expect("open");
        assert_eq!(tw.captured_cores(), 2);
        let mut replayed = tw.sources(2).expect("sources");
        let mut live = Workload::Streaming.sources(2, 42);
        for core in 0..2 {
            for i in 0..500 {
                assert_eq!(
                    replayed[core].next_instr(),
                    live[core].next_instr(),
                    "core {core} record {i}"
                );
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batched_capture_writes_the_bytes_of_an_elementwise_capture() {
        // Capture drains the generator's op runs in batches; the file
        // must be byte-identical to pushing one instruction at a time,
        // including with runs straddling 7-record chunk ends.
        for chunk in [7, 4096] {
            let dir = scratch(&format!("bytes-{chunk}"));
            capture_workload(Workload::Em3d, 1, 3, 5_000, chunk, &dir).expect("capture");
            let mut expected = io::Cursor::new(Vec::new());
            let mut writer = TraceWriter::new(&mut expected, chunk).expect("header");
            let mut live = Workload::Em3d.sources(1, 3);
            for _ in 0..5_000 {
                writer.push(live[0].next_instr()).expect("push");
            }
            writer.finish().expect("finish");
            let captured = fs::read(core_path(&dir, 0)).expect("read capture");
            assert_eq!(captured, expected.into_inner(), "chunk {chunk}");
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn extra_cores_wrap_onto_captured_files() {
        let dir = scratch("wrap");
        capture_workload(Workload::Em3d, 1, 7, 100, 32, &dir).expect("capture");
        let tw = TraceWorkload::open(&dir).expect("open");
        let mut sources = tw.sources(3).expect("sources");
        assert_eq!(sources.len(), 3);
        // One captured core: every extra core replays the same file.
        for _ in 0..50 {
            assert_eq!(sources[0].next_instr(), sources[1].next_instr());
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_fails_with_path() {
        let missing = scratch("gone").join("nope");
        let err = TraceWorkload::open(&missing).expect_err("must fail");
        assert!(err.to_string().contains("nope"), "error names the path");
    }

    #[test]
    fn keys_distinguish_policies() {
        let dir = scratch("keys");
        capture_workload(Workload::Zeus, 1, 1, 50, 16, &dir).expect("capture");
        let strict = TraceWorkload::open(&dir).expect("open");
        let lenient = TraceWorkload::with_policy(&dir, Policy::Lenient).expect("open");
        assert_ne!(strict.key(), lenient.key());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keys_follow_the_bytes_not_only_the_path() {
        let dir = scratch("fingerprint");
        capture_workload(Workload::Zeus, 1, 1, 50, 16, &dir).expect("capture");
        let before = TraceWorkload::open(&dir).expect("open");
        let key = before.key();
        let bytes = fs::read(core_path(&dir, 0)).expect("read");
        assert!(key.ends_with(&format!(
            "#{}:{:08x}",
            bytes.len(),
            bingo_trace::crc32::crc32(&bytes)
        )));
        // The fingerprint is fixed per handle, fresh per reopen.
        capture_workload(Workload::Em3d, 1, 2, 50, 16, &dir).expect("recapture");
        assert_eq!(before.clone().key(), key);
        let after = TraceWorkload::open(&dir).expect("reopen");
        assert_ne!(after.key(), key, "a replaced capture must change the key");
        fs::remove_dir_all(&dir).ok();
    }
}
