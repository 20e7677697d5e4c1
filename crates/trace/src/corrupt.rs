//! Deterministic corruption operators for adversarial decoder testing.
//!
//! A corruption plan ([`plan_for_seed`]) is a seeded, reproducible list
//! of byte-level mutations — truncations, bit flips, chunk swaps, garbage
//! prefixes, mid-record amputations — applied to a well-formed trace
//! image. The fuzz driver asserts that every corrupted image either
//! decodes, yields a typed error (strict), or is quarantined (lenient); a
//! plan that provokes a panic is shrunk to a minimal reproducer with
//! `bingo_oracle`'s delta-debugging loop, which is why the plan is a
//! plain `Vec` of small self-describing ops.
//!
//! [`drain`] decodes an image to its end, element-wise or through a
//! seeded interleaving of the reader's op-run fast path, so a test can
//! require both routes to observe exactly the same thing.

use std::io::Cursor;

use bingo_rng::{Rng, SeedableRng, SmallRng};
use bingo_sim::{IngestReport, Instr};

use crate::error::ReadError;
use crate::format::{CHUNK_HEADER_BYTES, CHUNK_MAGIC, FILE_HEADER_BYTES};
use crate::reader::{Policy, TraceReader};

/// One byte-level mutation of a trace image.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CorruptionOp {
    /// Cut the image to `keep` bytes (mid-record and mid-header EOFs).
    Truncate {
        /// Bytes to keep from the front.
        keep: u64,
    },
    /// Flip bit `bit` of the byte at `offset` (offsets wrap modulo the
    /// image length, so shrunk plans stay applicable).
    BitFlip {
        /// Target byte offset.
        offset: u64,
        /// Bit index 0..8.
        bit: u8,
    },
    /// Swap chunk `a` with chunk `b` (indices into the chunk sequence;
    /// out-of-range indices are ignored). Reordering preserves every
    /// CRC, probing the reader's positional bookkeeping instead.
    SwapChunks {
        /// First chunk index.
        a: u32,
        /// Second chunk index.
        b: u32,
    },
    /// Overwrite the first `len` bytes with a pseudo-random pattern
    /// derived from `seed` (garbage file/chunk headers).
    GarbageHeader {
        /// Bytes to scramble from offset 0.
        len: u32,
        /// Pattern seed.
        seed: u64,
    },
}

/// Applies `ops` in order to a copy of `image`.
pub fn apply(image: &[u8], ops: &[CorruptionOp]) -> Vec<u8> {
    let mut bytes = image.to_vec();
    for &op in ops {
        match op {
            CorruptionOp::Truncate { keep } => {
                bytes.truncate(keep.min(bytes.len() as u64) as usize);
            }
            CorruptionOp::BitFlip { offset, bit } => {
                if !bytes.is_empty() {
                    let at = (offset % bytes.len() as u64) as usize;
                    bytes[at] ^= 1 << (bit % 8);
                }
            }
            CorruptionOp::SwapChunks { a, b } => {
                let chunks = chunk_spans(&bytes);
                let (a, b) = (a as usize, b as usize);
                if a < chunks.len() && b < chunks.len() && a != b {
                    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                    let (ls, le) = chunks[lo];
                    let (hs, he) = chunks[hi];
                    let mut rebuilt = Vec::with_capacity(bytes.len());
                    rebuilt.extend_from_slice(&bytes[..ls]);
                    rebuilt.extend_from_slice(&bytes[hs..he]);
                    rebuilt.extend_from_slice(&bytes[le..hs]);
                    rebuilt.extend_from_slice(&bytes[ls..le]);
                    rebuilt.extend_from_slice(&bytes[he..]);
                    bytes = rebuilt;
                }
            }
            CorruptionOp::GarbageHeader { len, seed } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                let end = (len as usize).min(bytes.len());
                for byte in &mut bytes[..end] {
                    *byte = rng.gen_range(0..=255u8);
                }
            }
        }
    }
    bytes
}

/// Everything one drain of an image observed.
#[derive(Debug)]
pub struct Drained {
    /// Records delivered, in order.
    pub records: Vec<Instr>,
    /// The reader's ingest report at the end (default if the file
    /// header was rejected).
    pub report: IngestReport,
    /// The error that ended the drain, if any.
    pub error: Option<ReadError>,
}

impl Drained {
    /// The first way `other` differs from `self` (records, report, or
    /// error variant, offset and fields), or `None` if they match.
    pub fn divergence(&self, other: &Drained) -> Option<String> {
        if self.records != other.records {
            let at = self
                .records
                .iter()
                .zip(&other.records)
                .position(|(a, b)| a != b)
                .unwrap_or(self.records.len().min(other.records.len()));
            return Some(format!(
                "records differ at #{at} ({} vs {} delivered)",
                self.records.len(),
                other.records.len()
            ));
        }
        if self.report != other.report {
            return Some(format!(
                "reports differ: {} vs {}",
                self.report, other.report
            ));
        }
        let (a, b) = (format!("{:?}", self.error), format!("{:?}", other.error));
        (a != b).then(|| format!("errors differ: {a} vs {b}"))
    }
}

/// Decodes `bytes` under `policy` until the end of the trace or the first
/// error. With `interleave: None` every record comes from
/// [`TraceReader::next_instr`]; with `Some(seed)` a seeded mix of
/// [`TraceReader::leading_ops`], [`TraceReader::take_ops`] and
/// `next_instr` drives the reader, which must observe the same stream.
pub fn drain(bytes: &[u8], policy: Policy, interleave: Option<u64>) -> Drained {
    let mut reader = match TraceReader::new(Cursor::new(bytes), policy) {
        Ok(reader) => reader,
        Err(error) => {
            return Drained {
                records: Vec::new(),
                report: IngestReport::default(),
                error: Some(error),
            }
        }
    };
    let mut rng = interleave.map(SmallRng::seed_from_u64);
    let mut records = Vec::new();
    let error = loop {
        if let Some(rng) = rng.as_mut() {
            match rng.gen_range(0..4u32) {
                0 => {
                    let run = reader.leading_ops();
                    assert_eq!(reader.leading_ops(), run, "a peek moved the stream");
                    continue;
                }
                1 | 2 => {
                    let max = rng.gen_range(0..64usize);
                    let run = reader.leading_ops();
                    let n = reader.take_ops(max);
                    assert_eq!(n, run.min(max), "take_ops strayed from the peeked run");
                    records.extend(std::iter::repeat_n(Instr::Op, n));
                    continue;
                }
                _ => {}
            }
        }
        match reader.next_instr() {
            Ok(Some(instr)) => records.push(instr),
            Ok(None) => break None,
            Err(error) => break Some(error),
        }
    };
    if rng.is_some() {
        assert_eq!(reader.take_ops(usize::MAX), 0, "ops taken past the end");
    }
    Drained {
        records,
        report: reader.report(),
        error,
    }
}

/// Byte spans `(start, end)` of each chunk in a well-formed image,
/// walked structurally (header sizes, not magic scanning). Stops at the
/// first span that doesn't parse, so partially corrupt images yield the
/// intact prefix.
fn chunk_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut at = FILE_HEADER_BYTES as usize;
    while at + CHUNK_HEADER_BYTES as usize <= bytes.len() {
        if bytes[at..at + 4] != CHUNK_MAGIC {
            break;
        }
        let payload_len =
            u32::from_le_bytes(bytes[at + 8..at + 12].try_into().expect("4 bytes")) as usize;
        let end = at + CHUNK_HEADER_BYTES as usize + payload_len;
        if end > bytes.len() {
            break;
        }
        spans.push((at, end));
        at = end;
    }
    spans
}

/// Draws a random corruption plan of 1–4 ops for `seed` against an
/// image of `image_len` bytes. Deterministic: the same seed and length
/// always produce the same plan.
pub fn plan_for_seed(seed: u64, image_len: u64) -> Vec<CorruptionOp> {
    // Domain-separation tag keeps this stream disjoint from other seeded
    // streams in the workspace that share small integer seeds.
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xB1B0_7ACE_5EED_C0DE);
    let ops = rng.gen_range(1..=4usize);
    (0..ops).map(|_| draw_op(&mut rng, image_len)).collect()
}

fn draw_op(rng: &mut SmallRng, image_len: u64) -> CorruptionOp {
    let len = image_len.max(1);
    match rng.gen_range(0..5u32) {
        0 => CorruptionOp::Truncate {
            keep: rng.gen_range(0..len),
        },
        1 => CorruptionOp::BitFlip {
            offset: rng.gen_range(0..len),
            bit: rng.gen_range(0..8u8),
        },
        2 => CorruptionOp::SwapChunks {
            a: rng.gen_range(0..32u32),
            b: rng.gen_range(0..32u32),
        },
        3 => CorruptionOp::GarbageHeader {
            len: rng.gen_range(1..=FILE_HEADER_BYTES as u32 + CHUNK_HEADER_BYTES as u32),
            seed: rng.next_u64(),
        },
        // Mid-record EOF: truncate just past a plausible record start.
        _ => CorruptionOp::Truncate {
            keep: rng
                .gen_range(0..len)
                .saturating_add(rng.gen_range(1..18u64))
                .min(len.saturating_sub(1)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;

    fn image() -> Vec<u8> {
        let mut file = Cursor::new(Vec::new());
        let mut w = TraceWriter::new(&mut file, 4).expect("header");
        for n in 0..16u64 {
            // Distinct addresses so distinct chunks have distinct bytes.
            w.push(Instr::Store {
                pc: bingo_sim::Pc::new(0x400 + n),
                addr: bingo_sim::Addr::new(n * 64),
            })
            .expect("push");
        }
        w.finish().expect("finish");
        file.into_inner()
    }

    #[test]
    fn plans_are_deterministic() {
        let img = image();
        for seed in 0..50 {
            let a = plan_for_seed(seed, img.len() as u64);
            let b = plan_for_seed(seed, img.len() as u64);
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(apply(&img, &a), apply(&img, &b), "seed {seed}");
        }
    }

    #[test]
    fn swap_preserves_length_and_content_multiset() {
        let img = image();
        let swapped = apply(&img, &[CorruptionOp::SwapChunks { a: 0, b: 3 }]);
        assert_eq!(swapped.len(), img.len());
        assert_ne!(swapped, img);
        let mut a = img.clone();
        let mut b = swapped.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "swap must only reorder bytes");
    }

    #[test]
    fn truncate_and_flip_do_what_they_say() {
        let img = image();
        assert_eq!(
            apply(&img, &[CorruptionOp::Truncate { keep: 10 }]).len(),
            10
        );
        let flipped = apply(&img, &[CorruptionOp::BitFlip { offset: 3, bit: 2 }]);
        assert_eq!(flipped[3], img[3] ^ 4);
        assert_eq!(&flipped[..3], &img[..3]);
        assert_eq!(&flipped[4..], &img[4..]);
    }

    #[test]
    fn out_of_range_swap_is_a_no_op() {
        let img = image();
        assert_eq!(
            apply(&img, &[CorruptionOp::SwapChunks { a: 0, b: 99 }]),
            img
        );
    }
}
