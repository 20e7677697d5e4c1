//! The memory system's queue of in-flight fills, ordered by ready cycle.
//!
//! A calendar: one bucket per cycle over a fixed horizon ahead of the last
//! landed cycle (the *base*), with a bitmap of the non-empty buckets, so
//! scheduling a fill is one push and landing one is an index. Fills
//! scheduled beyond the horizon, or before the base (callers may schedule
//! at any cycle), wait in a small overflow heap.
//!
//! Fills land in exactly (ready cycle, schedule order): the order of a
//! heap keyed by `(ready, seq)`. Within a bucket, entries sit in schedule
//! order. Across the two stores, an overflow entry for cycle `r` was
//! always scheduled before any bucket entry for `r`: a fill goes to a
//! bucket only once `r` is inside the window, the base never moves
//! backwards, and no bucket entry survives below the base. So on a tie the
//! overflow entries land first.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cycles the calendar covers from its base; a power of two.
///
/// A fill takes the O(1) path only if it is ready within `HORIZON` cycles
/// of the last landed fill. At the paper's machine that holds for about
/// 96 % of fills on the Fig. 8 grid, 93 % under the contention mixes and
/// 87 % on `.btrc` replay: DRAM queueing pushes the rest up to ~2,900
/// cycles out, into the overflow heap. Doubling the horizon brings the
/// overflow under 0.2 %, but measured no faster end to end and grew every
/// cell's host heap by ~0.24 MB (each bucket keeps its capacity).
const HORIZON: usize = 1024;
const MASK: usize = HORIZON - 1;
const WORDS: usize = HORIZON / 64;

/// In-flight fills carrying a payload `T`, landed in (ready, schedule)
/// order by [`FillQueue::pop_due`].
pub(crate) struct FillQueue<T> {
    /// `buckets[r % HORIZON]` holds the fills ready at cycle `r`, for `r`
    /// in `[base, base + HORIZON)`, in schedule order.
    buckets: Box<[Vec<T>]>,
    /// Bit `i` is set while `buckets[i]` holds unlanded fills.
    occupied: [u64; WORDS],
    /// The last landed cycle: no bucket entry is ready before it.
    base: u64,
    /// How many fills of the earliest bucket have already landed.
    cursor: usize,
    /// Fills outside the window, keyed by (ready, schedule sequence).
    overflow: BinaryHeap<Reverse<(u64, u64, T)>>,
    seq: u64,
    /// Ready cycle of the earliest fill (`u64::MAX` when empty).
    next_ready: u64,
    len: usize,
}

impl<T: Copy + Ord> FillQueue<T> {
    pub(crate) fn new() -> Self {
        FillQueue {
            buckets: std::iter::repeat_with(Vec::new).take(HORIZON).collect(),
            occupied: [0; WORDS],
            base: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            next_ready: u64::MAX,
            len: 0,
        }
    }

    /// Number of fills not yet landed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Ready cycle of the earliest fill, `u64::MAX` when none is queued.
    #[inline]
    pub(crate) fn next_ready(&self) -> u64 {
        self.next_ready
    }

    /// Schedules `item` to land at cycle `ready`.
    pub(crate) fn push(&mut self, ready: u64, item: T) {
        if ready >= self.base && ready - self.base < HORIZON as u64 {
            let i = ready as usize & MASK;
            self.buckets[i].push(item);
            self.occupied[i / 64] |= 1 << (i % 64);
        } else {
            self.seq += 1;
            self.overflow.push(Reverse((ready, self.seq, item)));
        }
        self.next_ready = self.next_ready.min(ready);
        self.len += 1;
    }

    /// Removes and returns the next fill ready at or before `now`, with its
    /// ready cycle.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<(u64, T)> {
        let ready = self.next_ready;
        if ready > now || self.len == 0 {
            return None;
        }
        self.len -= 1;
        self.base = self.base.max(ready);
        if let Some(&Reverse((r, _, item))) = self.overflow.peek() {
            if r == ready {
                self.overflow.pop();
                self.next_ready = self.earliest();
                return Some((ready, item));
            }
        }
        let i = ready as usize & MASK;
        let bucket = &mut self.buckets[i];
        let item = bucket[self.cursor];
        self.cursor += 1;
        if self.cursor == bucket.len() {
            bucket.clear();
            self.cursor = 0;
            self.occupied[i / 64] &= !(1 << (i % 64));
            self.next_ready = self.earliest();
        }
        Some((ready, item))
    }

    /// The earliest ready cycle over the overflow heap and the buckets.
    fn earliest(&self) -> u64 {
        let overflow = self
            .overflow
            .peek()
            .map_or(u64::MAX, |&Reverse((r, _, _))| r);
        let bucket = self.first_bucket().map_or(u64::MAX, |i| {
            let start = self.base as usize & MASK;
            self.base + (i.wrapping_sub(start) & MASK) as u64
        });
        overflow.min(bucket)
    }

    /// The first occupied bucket at or after the base's, cyclically.
    fn first_bucket(&self) -> Option<usize> {
        let start = self.base as usize & MASK;
        let (w0, b0) = (start / 64, start % 64);
        let head = self.occupied[w0] & (!0u64 << b0);
        if head != 0 {
            return Some(w0 * 64 + head.trailing_zeros() as usize);
        }
        for k in 1..=WORDS {
            let w = (w0 + k) % WORDS;
            let mut bits = self.occupied[w];
            if k == WORDS {
                // Back at the base's word: only the bits before the base.
                bits &= !(!0u64 << b0);
            }
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: a heap keyed by (ready, schedule sequence).
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        seq: u64,
    }

    impl HeapQueue {
        fn push(&mut self, ready: u64) -> u64 {
            self.seq += 1;
            self.heap.push(Reverse((ready, self.seq)));
            self.seq
        }

        fn pop_due(&mut self, now: u64) -> Option<(u64, u64)> {
            match self.heap.peek() {
                Some(&Reverse((ready, _))) if ready <= now => {
                    self.heap.pop().map(|Reverse(entry)| entry)
                }
                _ => None,
            }
        }

        fn next_ready(&self) -> u64 {
            self.heap.peek().map_or(u64::MAX, |&Reverse((r, _))| r)
        }
    }

    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// Random pushes (near, at the horizon's edge, far past it, before the
    /// base, and again at a cycle already scheduled, so overflow and bucket
    /// entries tie) interleaved with ticks at random, sometimes earlier,
    /// cycles: the calendar lands fills in the heap's order, and agrees on
    /// the earliest ready cycle after every operation.
    #[test]
    fn lands_in_the_order_of_a_ready_seq_heap() {
        let h = HORIZON as u64;
        for seed in 1..=40u64 {
            let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ seed.wrapping_mul(0x2545_f491));
            let mut queue = FillQueue::new();
            let mut reference = HeapQueue::default();
            let mut now = 0u64;
            let mut scheduled = vec![0u64];
            for _ in 0..4_000 {
                match rng.below(8) {
                    0..=4 => {
                        let ready = match rng.below(7) {
                            0 => now + rng.below(8),
                            1 => now + h - 4 + rng.below(8),
                            2 => now + h + rng.below(3 * h),
                            3 => now.saturating_sub(rng.below(2 * h)),
                            4 => scheduled[rng.below(scheduled.len() as u64) as usize],
                            _ => now + rng.below(h),
                        };
                        if scheduled.len() == 64 {
                            scheduled.swap_remove(rng.below(64) as usize);
                        }
                        scheduled.push(ready);
                        let seq = reference.push(ready);
                        queue.push(ready, seq);
                    }
                    5 => now = now.saturating_sub(rng.below(64)),
                    _ => {
                        now += rng.below(h / 2);
                        loop {
                            let got = queue.pop_due(now);
                            let want = reference.pop_due(now);
                            assert_eq!(got, want, "seed {seed} at cycle {now}");
                            if got.is_none() {
                                break;
                            }
                        }
                    }
                }
                assert_eq!(queue.next_ready(), reference.next_ready(), "seed {seed}");
                assert_eq!(queue.len(), reference.heap.len());
            }
            while let Some(want) = reference.pop_due(u64::MAX) {
                assert_eq!(queue.pop_due(u64::MAX), Some(want), "seed {seed} drain");
            }
            assert_eq!(queue.pop_due(u64::MAX), None);
            assert_eq!(queue.next_ready(), u64::MAX);
        }
    }

    /// A fill scheduled beyond the horizon and one scheduled for the same
    /// cycle once it is inside the window: the older (overflow) one lands
    /// first.
    #[test]
    fn overflow_entries_land_before_bucket_entries_on_a_tie() {
        let h = HORIZON as u64;
        let mut queue = FillQueue::new();
        queue.push(200, 0u64);
        queue.push(h + 100, 1);
        assert_eq!(queue.pop_due(200), Some((200, 0)));
        queue.push(h + 100, 2);
        queue.push(h + 100, 3);
        assert_eq!(queue.next_ready(), h + 100);
        assert_eq!(queue.pop_due(h + 100), Some((h + 100, 1)));
        assert_eq!(queue.pop_due(h + 100), Some((h + 100, 2)));
        assert_eq!(queue.pop_due(h + 100), Some((h + 100, 3)));
        assert_eq!(queue.pop_due(u64::MAX), None);
    }
}
