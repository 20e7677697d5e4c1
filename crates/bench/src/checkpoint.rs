//! Crash-safe sweep checkpoints: a JSONL file of completed cell results.
//!
//! A long sweep killed mid-run (OOM, ^C, node preemption) loses hours of
//! finished cells. The checkpoint makes each cell's [`SimResult`] durable
//! the moment it completes: one self-contained JSON line per cell, appended
//! and flushed immediately, keyed by everything that determines the result
//! (see [`crate::CellSpec::key`]). A resumed sweep pointed at the same file
//! replays the finished cells from disk and only simulates the missing
//! ones; because a cell's result is a pure function of its key (see the
//! determinism notes in [`crate::runner`]), the resumed sweep is
//! **bit-for-bit identical** to an uninterrupted one — test-locked by
//! `resume_from_checkpoint_is_bit_for_bit_identical`.
//!
//! Each line is `{"key":…,"result":{…}}`, the result an object keyed by
//! [`SimResult`]'s field names, its parts likewise (`CoreStats`,
//! `CacheStats`, `TelemetryReport`, …); the optional `telemetry`, `ingest`
//! and `qos` sections are absent when `None`. The crate's one JSON codec
//! (`json.rs`, around the [`Json`] value type) writes and reads it, and
//! the `codec!` list below names every field once.
//!
//! Robustness properties:
//!
//! * a torn final line (the process died mid-write) is skipped, not fatal;
//! * corrupt or hand-edited lines — a missing, unknown or wrongly typed
//!   field included — are skipped the same way, and counted in
//!   [`Checkpoint::skipped_lines`] so tampering is visible;
//! * lines in the positional-array encoding of earlier versions are never
//!   decoded: they are counted in [`Checkpoint::positional_lines`] and
//!   their cells re-run;
//! * prefetcher metrics are stored as IEEE-754 bit patterns
//!   (`f64::to_bits`), so a round trip through the file cannot lose
//!   precision — "resume equals fresh run" holds at the bit level, NaN
//!   included;
//! * only successful cells are recorded: a panicked or timed-out cell is
//!   retried on resume rather than replayed as a failure.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use bingo_sim::{
    CacheStats, CoreQos, CoreStats, IngestReport, QosReport, SimResult, SourceCounters,
    TelemetryReport,
};

use crate::json::{codec, Codec, Fields, Json, JsonError};

/// A durable map from cell key to completed [`SimResult`], backed by an
/// append-only JSONL file.
#[derive(Debug)]
pub struct Checkpoint {
    path: PathBuf,
    entries: Mutex<HashMap<String, SimResult>>,
    writer: Mutex<File>,
    skipped: usize,
    positional: usize,
}

impl Checkpoint {
    /// Opens (or creates) the checkpoint file, loading every decodable
    /// entry. Other lines — torn tails, hand-edits, bit rot, the positional
    /// encoding — are skipped and counted, never fatal.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from reading or opening the file itself.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
        let path = path.as_ref().to_path_buf();
        let mut entries = HashMap::new();
        let (mut skipped, mut positional) = (0, 0);
        match File::open(&path) {
            Ok(mut f) => {
                let mut text = String::new();
                f.read_to_string(&mut text)?;
                for line in text.lines() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match decode_entry(line) {
                        Ok((key, result)) => {
                            entries.insert(key, result);
                        }
                        Err(EntryError::Positional) => positional += 1,
                        Err(EntryError::Malformed) => skipped += 1,
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let writer = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Checkpoint {
            path,
            entries: Mutex::new(entries),
            writer: Mutex::new(writer),
            skipped,
            positional,
        })
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of loaded entries.
    pub fn len(&self) -> usize {
        lock(&self.entries).len()
    }

    /// Whether no entry was loaded or recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lines of the existing file that did not decode and were ignored.
    pub fn skipped_lines(&self) -> usize {
        self.skipped
    }

    /// Lines of the existing file in the positional encoding of earlier
    /// versions, ignored so that their cells re-run.
    pub fn positional_lines(&self) -> usize {
        self.positional
    }

    /// The recorded result for a cell key, if any.
    pub fn get(&self, key: &str) -> Option<SimResult> {
        lock(&self.entries).get(key).cloned()
    }

    /// Records a completed cell: inserted in memory and appended to the
    /// file with an immediate flush, so the entry survives a kill right
    /// after this call returns. Write errors are reported, not silently
    /// swallowed — but the in-memory entry stays either way, so the
    /// current sweep keeps its result.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from appending to the checkpoint file.
    pub fn record(&self, key: &str, result: &SimResult) -> io::Result<()> {
        let line = encode_entry(key, result);
        lock(&self.entries).insert(key.to_string(), result.clone());
        let mut writer = lock(&self.writer);
        writer.write_all(line.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()
    }
}

/// Locks a mutex, ignoring poisoning: checkpoint state is a plain map and
/// stays consistent even if another thread panicked mid-sweep.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// --- encoding --------------------------------------------------------------

codec! {
    CoreStats {
        instructions, cycles, loads, stores, dispatch_stall_cycles, dependency_stall_cycles,
    }
    CacheStats {
        demand_accesses, demand_hits, demand_hits_pending, demand_misses, demand_mshr_stalls,
        evictions, writebacks, pf_requested, pf_dropped_duplicate, pf_dropped_mshr,
        pf_dropped_queue, pf_issued, pf_useful, pf_late, pf_useless,
    }
    SourceCounters { issued, timely, late, unused, dropped }
    TelemetryReport {
        issued, dropped_duplicate, dropped_mshr, dropped_queue, timely, late, unused, fills,
        fill_latency_sum, in_flight_at_end, orphans, by_source, hot_pcs,
    }
    IngestReport { delivered_records, quarantined_records, quarantined_bytes, skipped_chunks }
    CoreQos {
        demand_accesses, pf_issued, pf_used, prefetch_reads, reads, epochs, degrades, upgrades,
        final_level,
    }
    QosReport { cores, watchdog_epochs, watchdog_starved_epochs, watchdog_clamps, watchdog_exempted }
    SimResult {
        cores, l1d, llc, dram_transfers, total_cycles, prefetcher_debug, prefetcher_metrics,
        telemetry, ingest, qos,
    }
}

/// One checkpoint or stats-export line (no trailing newline).
pub(crate) fn encode_entry(key: &str, result: &SimResult) -> String {
    Json::obj([("key", Json::str(key)), ("result", result.encode())]).to_string()
}

/// Why a line was not loaded.
#[derive(Debug)]
enum EntryError {
    /// The positional-array encoding of earlier versions (a top-level
    /// `l1d` array): never decoded, so its cell re-runs.
    Positional,
    /// A torn, corrupt or hand-edited line.
    Malformed,
}

fn decode_entry(line: &str) -> Result<(String, SimResult), EntryError> {
    let root = Json::parse(line).map_err(|_| EntryError::Malformed)?;
    let Json::Obj(top) = &root else {
        return Err(EntryError::Malformed);
    };
    if top
        .iter()
        .any(|(name, v)| name == "l1d" && matches!(v, Json::Arr(_)))
    {
        return Err(EntryError::Positional);
    }
    let decode = || -> Result<_, JsonError> {
        let mut fields = Fields::of(&root)?;
        let entry = (fields.take("key")?, fields.take("result")?);
        fields.finish()?;
        Ok(entry)
    };
    decode().map_err(|_| EntryError::Malformed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(salt: u64) -> SimResult {
        SimResult {
            cores: vec![
                CoreStats {
                    instructions: 100 + salt,
                    cycles: 250,
                    loads: 30,
                    stores: 10,
                    dispatch_stall_cycles: 5,
                    dependency_stall_cycles: 7,
                },
                CoreStats {
                    instructions: 90,
                    cycles: 260,
                    loads: 28,
                    stores: 12,
                    dispatch_stall_cycles: 6,
                    dependency_stall_cycles: 8,
                },
            ],
            l1d: CacheStats {
                demand_accesses: 40,
                demand_hits: 30,
                demand_misses: 10,
                ..CacheStats::default()
            },
            llc: CacheStats {
                demand_accesses: 10,
                demand_misses: 4,
                pf_issued: 3,
                pf_useful: 2,
                pf_dropped_queue: 1,
                ..CacheStats::default()
            },
            dram_transfers: 9,
            total_cycles: 260,
            prefetcher_debug: vec![
                "plain".to_string(),
                "quotes \" and \\ and\nnewline \u{1} unicode é".to_string(),
            ],
            prefetcher_metrics: vec![
                vec![
                    ("coverage", 0.1 + salt as f64 * 1e-3),
                    ("nan_metric", f64::NAN),
                ],
                vec![],
            ],
            telemetry: None,
            ingest: None,
            qos: None,
        }
    }

    fn sample_telemetry(salt: u64) -> TelemetryReport {
        let c = |base: u64| SourceCounters {
            issued: base,
            timely: base / 2,
            late: base / 4,
            unused: base / 8,
            dropped: base / 16,
        };
        TelemetryReport {
            issued: 100 + salt,
            dropped_duplicate: 3,
            dropped_mshr: 2,
            dropped_queue: 1,
            timely: 60,
            late: 20,
            unused: 20,
            fills: 95,
            fill_latency_sum: 40_000,
            in_flight_at_end: 0,
            orphans: 0,
            by_source: vec![("long".to_string(), c(64)), ("short".to_string(), c(32))],
            hot_pcs: vec![(0x400, c(48)), (0x1234, c(16))],
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bingo-checkpoint-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// Equality that also holds for NaN metrics (SimResult's PartialEq
    /// would reject NaN == NaN; the checkpoint must preserve even that).
    fn assert_bit_equal(a: &SimResult, b: &SimResult) {
        assert_eq!(a.cores, b.cores);
        assert_eq!(a.l1d, b.l1d);
        assert_eq!(a.llc, b.llc);
        assert_eq!(a.dram_transfers, b.dram_transfers);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.prefetcher_debug, b.prefetcher_debug);
        assert_eq!(a.prefetcher_metrics.len(), b.prefetcher_metrics.len());
        for (ca, cb) in a.prefetcher_metrics.iter().zip(&b.prefetcher_metrics) {
            assert_eq!(ca.len(), cb.len());
            for ((na, va), (nb, vb)) in ca.iter().zip(cb) {
                assert_eq!(na, nb);
                assert_eq!(va.to_bits(), vb.to_bits(), "metric {na} lost bits");
            }
        }
        assert_eq!(a.telemetry, b.telemetry);
    }

    #[test]
    fn round_trip_preserves_every_bit() {
        let r = sample_result(1);
        let line = encode_entry("42/1000/500/Em3d/Bingo", &r);
        let (key, parsed) = decode_entry(&line).expect("own output decodes");
        assert_eq!(key, "42/1000/500/Em3d/Bingo");
        assert_bit_equal(&r, &parsed);
        // Metric names are interned: a second decode leaks nothing new.
        let (_, again) = decode_entry(&line).expect("decodes again");
        let name = |r: &SimResult| r.prefetcher_metrics[0][0].0;
        assert!(std::ptr::eq(name(&parsed), name(&again)));
    }

    #[test]
    fn round_trip_preserves_telemetry() {
        let mut r = sample_result(2);
        r.telemetry = Some(sample_telemetry(7));
        let line = encode_entry("42/1000/500/Em3d/Bingo/telemetry=counts", &r);
        let (_, parsed) = decode_entry(&line).expect("own output decodes");
        assert_bit_equal(&r, &parsed);
        // Without telemetry the section is absent and decodes to None.
        let plain = encode_entry("k", &sample_result(2));
        assert!(!plain.contains("\"telemetry\""));
        let (_, parsed) = decode_entry(&plain).expect("decodes");
        assert!(parsed.telemetry.is_none());
    }

    #[test]
    fn round_trip_preserves_ingest_report() {
        let mut r = sample_result(9);
        r.ingest = Some(bingo_sim::IngestReport {
            delivered_records: 10_000,
            quarantined_records: 37,
            quarantined_bytes: 612,
            skipped_chunks: 3,
        });
        let line = encode_entry("trace:/tmp/t/10/5/Bingo", &r);
        let (key, parsed) = decode_entry(&line).expect("decodes");
        assert_eq!(key, "trace:/tmp/t/10/5/Bingo");
        assert_eq!(parsed.ingest, r.ingest);
        let plain = encode_entry("k", &sample_result(2));
        let (_, parsed) = decode_entry(&plain).expect("decodes");
        assert!(parsed.ingest.is_none());
        // A missing or an unknown counter rejects the line.
        let torn = line.replace(",\"skipped_chunks\":3", "");
        let grown = line.replace("\"skipped_chunks\":3", "\"skipped_chunks\":3,\"later\":8");
        for bad in [torn, grown] {
            assert_ne!(bad, line, "replacement must hit");
            assert!(matches!(decode_entry(&bad), Err(EntryError::Malformed)));
        }
    }

    #[test]
    fn round_trip_preserves_qos_report() {
        let mut r = sample_result(11);
        r.qos = Some(QosReport {
            cores: vec![
                CoreQos {
                    demand_accesses: 5_000,
                    pf_issued: 900,
                    pf_used: 700,
                    prefetch_reads: 850,
                    reads: 1_400,
                    epochs: 12,
                    degrades: 2,
                    upgrades: 1,
                    final_level: 1,
                },
                CoreQos::default(),
            ],
            watchdog_epochs: 6,
            watchdog_starved_epochs: 2,
            watchdog_clamps: 1,
            watchdog_exempted: 0,
        });
        let line = encode_entry("42/1000/500/mix/throttle=percore", &r);
        let (key, parsed) = decode_entry(&line).expect("own output decodes");
        assert_eq!(key, "42/1000/500/mix/throttle=percore");
        assert_eq!(parsed.qos, r.qos);
        // A qos-free result writes no section at all.
        let plain = encode_entry("k", &sample_result(11));
        assert!(!plain.contains("\"qos\""));
        assert!(decode_entry(&plain).expect("decodes").1.qos.is_none());
        // A wrongly typed counter is corrupt, never coerced.
        let bad = line.replace("\"final_level\":1", "\"final_level\":256");
        assert_ne!(bad, line, "replacement must hit");
        assert!(matches!(decode_entry(&bad), Err(EntryError::Malformed)));
    }

    /// Lines written in the positional-array encoding (any generation:
    /// 14- or 15-counter caches, with or without telemetry) are rejected
    /// by name, never decoded.
    #[test]
    fn positional_lines_are_rejected_by_name() {
        let line = concat!(
            "{\"key\":\"legacy\",\"cores\":[[1,2,3,4,5,6]],",
            "\"l1d\":[1,2,3,4,5,6,7,8,9,10,11,12,13,14],",
            "\"llc\":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15],",
            "\"dram_transfers\":9,\"total_cycles\":10,",
            "\"debug\":[\"d\"],\"metrics\":[[]],",
            "\"telemetry\":{\"counts\":[1,2,3,4,5,6,7,8,9,10],",
            "\"by_source\":[],\"hot_pcs\":[]}}"
        );
        assert!(matches!(decode_entry(line), Err(EntryError::Positional)));
        let path = tmp_path("positional");
        std::fs::write(
            &path,
            format!("{line}\n{}\n", encode_entry("new", &sample_result(1))),
        )
        .expect("seed");
        let cp = Checkpoint::open(&path).expect("open");
        assert_eq!(
            (cp.len(), cp.positional_lines(), cp.skipped_lines()),
            (1, 1, 0)
        );
        assert!(cp.get("legacy").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_record_reopen_restores_entries() {
        let path = tmp_path("reopen");
        let cp = Checkpoint::open(&path).expect("create");
        assert!(cp.is_empty());
        cp.record("a", &sample_result(1)).expect("write");
        cp.record("b", &sample_result(2)).expect("write");
        drop(cp);
        let cp = Checkpoint::open(&path).expect("reopen");
        assert_eq!(cp.len(), 2);
        assert_eq!(cp.skipped_lines(), 0);
        assert_bit_equal(&cp.get("a").expect("a"), &sample_result(1));
        assert_bit_equal(&cp.get("b").expect("b"), &sample_result(2));
        assert!(cp.get("c").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_and_tampered_lines_are_skipped_not_fatal() {
        let path = tmp_path("torn");
        let cp = Checkpoint::open(&path).expect("create");
        cp.record("good", &sample_result(3)).expect("write");
        drop(cp);
        // Simulate a mid-write kill plus hand tampering: a torn half line,
        // a valid-JSON-wrong-shape line, a misspelled field, and plain
        // garbage.
        let mut f = OpenOptions::new().append(true).open(&path).expect("open");
        let torn = encode_entry("torn", &sample_result(4));
        writeln!(f, "{}", &torn[..torn.len() / 2]).expect("torn write");
        writeln!(f, "{{\"key\":\"shapeless\"}}").expect("tamper write");
        let misspelled =
            encode_entry("misspelled", &sample_result(4)).replace("\"llc\"", "\"lcc\"");
        writeln!(f, "{misspelled}").expect("tamper write");
        writeln!(f, "not json at all").expect("garbage write");
        drop(f);
        let cp = Checkpoint::open(&path).expect("reopen survives corruption");
        assert_eq!(cp.len(), 1, "only the intact entry is loaded");
        assert_eq!(cp.skipped_lines(), 4);
        assert_eq!(cp.positional_lines(), 0);
        assert!(cp.get("torn").is_none());
        assert_bit_equal(&cp.get("good").expect("good"), &sample_result(3));
        // The file still accepts new entries after corruption.
        cp.record("after", &sample_result(5))
            .expect("append after skip");
        let cp = Checkpoint::open(&path).expect("third open");
        assert_eq!(cp.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn latest_entry_wins_on_duplicate_keys() {
        let path = tmp_path("dup");
        let cp = Checkpoint::open(&path).expect("create");
        cp.record("k", &sample_result(1)).expect("write");
        cp.record("k", &sample_result(9)).expect("write");
        assert_eq!(cp.len(), 1);
        drop(cp);
        let cp = Checkpoint::open(&path).expect("reopen");
        assert_bit_equal(&cp.get("k").expect("k"), &sample_result(9));
        let _ = std::fs::remove_file(&path);
    }
}
