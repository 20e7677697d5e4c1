//! The core's reorder buffer, stored as run lengths.
//!
//! An op or a store dispatched at cycle `c` completes at `c + 1`, and
//! retirement at cycle `t` runs before dispatch, so it only sees entries
//! dispatched at `t - 1` or earlier: such an entry is always retirable
//! when retirement reaches it. Only a load needs its own completion cycle.
//! The buffer therefore keeps a ring of `(load completion cycle, ready
//! entries ahead of it)` plus a count of ready entries behind the last
//! load: dispatching a run of ops is one add, and retiring, or replaying
//! a window of retirements, costs O(loads) instead of O(entries).

/// The run-length reorder buffer (see the module docs).
#[derive(Debug)]
pub(crate) struct Rob {
    /// In-flight loads in program order, a power-of-two ring: each load's
    /// completion cycle and the ready entries between it and the previous
    /// load (or the head).
    loads: Box<[(u64, usize)]>,
    head: usize,
    count: usize,
    mask: usize,
    /// Ready entries behind the last load.
    tail: usize,
    /// Entries of either kind.
    len: usize,
}

/// In-order retirement pacing: at most `width` entries per cycle, each no
/// earlier than its completion cycle. `used` entries have retired in
/// `cycle` so far.
struct Pace {
    cycle: u64,
    used: usize,
    width: usize,
}

impl Pace {
    fn new(cycle: u64, width: usize) -> Self {
        Pace {
            cycle,
            used: 0,
            width,
        }
    }

    /// Retires `n` ready entries.
    fn ready_run(&mut self, n: usize) {
        if n > 0 {
            let t = self.used + n - 1;
            self.cycle += (t / self.width) as u64;
            self.used = t % self.width + 1;
        }
    }

    /// How many of `n` ready entries retire before cycle `wake`.
    fn ready_before(&self, n: usize, wake: u64) -> usize {
        if self.cycle >= wake {
            return 0;
        }
        let slots = (wake - self.cycle).saturating_mul(self.width as u64) - self.used as u64;
        n.min(usize::try_from(slots).unwrap_or(usize::MAX))
    }

    /// Moves to the cycle a load completing at `done` retires in, without
    /// counting it yet.
    fn reach_load(&mut self, done: u64) {
        if self.used == self.width {
            self.cycle += 1;
            self.used = 0;
        }
        if done > self.cycle {
            self.cycle = done;
            self.used = 0;
        }
    }
}

impl Rob {
    /// An empty buffer for up to `entries` in-flight instructions.
    pub(crate) fn new(entries: usize) -> Self {
        let slots = entries.max(1).next_power_of_two();
        Rob {
            loads: vec![(0, 0); slots].into_boxed_slice(),
            head: 0,
            count: 0,
            mask: slots - 1,
            tail: 0,
            len: 0,
        }
    }

    /// Number of in-flight entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Dispatches `n` ops or stores, each complete by the next cycle.
    #[inline]
    pub(crate) fn push_ready(&mut self, n: usize) {
        self.tail += n;
        self.len += n;
    }

    /// Dispatches a load that completes at cycle `done`.
    #[inline]
    pub(crate) fn push_load(&mut self, done: u64) {
        self.loads[(self.head + self.count) & self.mask] = (done, self.tail);
        self.count += 1;
        self.tail = 0;
        self.len += 1;
    }

    /// Whether no load is in flight: every entry retires when reached.
    #[inline]
    pub(crate) fn all_ready(&self) -> bool {
        self.count == 0
    }

    /// Number of ready entries ahead of the first in-flight load (all of
    /// them when no load is in flight).
    #[inline]
    pub(crate) fn head_run(&self) -> usize {
        if self.count == 0 {
            self.tail
        } else {
            self.loads[self.head].1
        }
    }

    /// Completion cycle of the head entry when it is a load; `None` when
    /// it is an op or a store, which retire as soon as they are reached.
    pub(crate) fn head_load(&self) -> Option<u64> {
        let (done, ahead) = self.loads[self.head];
        (self.count > 0 && ahead == 0).then_some(done)
    }

    /// Retires, in order, up to `max` entries complete by cycle `now`;
    /// returns how many.
    #[inline]
    pub(crate) fn retire(&mut self, now: u64, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            if self.count == 0 {
                let take = self.tail.min(max - n);
                self.tail -= take;
                n += take;
                break;
            }
            let (done, ahead) = &mut self.loads[self.head];
            let take = (*ahead).min(max - n);
            *ahead -= take;
            n += take;
            if n == max || *done > now {
                break;
            }
            self.head = (self.head + 1) & self.mask;
            self.count -= 1;
            n += 1;
        }
        self.len -= n;
        n
    }

    /// Cycle at which the `needed`-th entry from the head retires when
    /// retirement starts at cycle `next` with `width` retire slots per
    /// cycle and nothing new is dispatched; `u64::MAX` when fewer than
    /// `needed` entries are in flight.
    pub(crate) fn horizon(&self, next: u64, width: usize, needed: u64) -> u64 {
        if needed == 0 || (self.len as u64) < needed {
            return u64::MAX;
        }
        // `needed <= len`, so it fits a usize.
        let mut remaining = needed as usize;
        let mut pace = Pace::new(next, width);
        for k in 0..self.count {
            let (done, ahead) = self.loads[(self.head + k) & self.mask];
            if remaining <= ahead {
                pace.ready_run(remaining);
                return pace.cycle;
            }
            pace.ready_run(ahead);
            pace.reach_load(done);
            pace.used += 1;
            remaining -= ahead + 1;
            if remaining == 0 {
                return pace.cycle;
            }
        }
        pace.ready_run(remaining);
        pace.cycle
    }

    /// Retires everything that retires before cycle `wake` when
    /// retirement starts at cycle `next` with `width` retire slots per
    /// cycle and nothing new is dispatched; returns how many entries.
    pub(crate) fn retire_window(&mut self, next: u64, wake: u64, width: usize) -> usize {
        let mut pace = Pace::new(next, width);
        let mut n = 0;
        loop {
            if self.count == 0 {
                let take = pace.ready_before(self.tail, wake);
                self.tail -= take;
                n += take;
                break;
            }
            let (done, ahead) = &mut self.loads[self.head];
            let take = pace.ready_before(*ahead, wake);
            *ahead -= take;
            n += take;
            if *ahead > 0 {
                break;
            }
            pace.ready_run(take);
            pace.reach_load(*done);
            if pace.cycle >= wake {
                break;
            }
            pace.used += 1;
            self.head = (self.head + 1) & self.mask;
            self.count -= 1;
            n += 1;
        }
        self.len -= n;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference: one completion cycle per entry in a ring, retired
    /// entry by entry.
    struct EntryRob {
        ring: std::collections::VecDeque<u64>,
    }

    impl EntryRob {
        fn retire(&mut self, now: u64, max: usize) -> usize {
            let mut n = 0;
            while n < max && self.ring.front().is_some_and(|&done| done <= now) {
                self.ring.pop_front();
                n += 1;
            }
            n
        }

        fn horizon(&self, next: u64, width: usize, needed: u64) -> u64 {
            if (self.ring.len() as u64) < needed {
                return u64::MAX;
            }
            let mut cycle = next;
            let mut used = 0;
            for (j, &ready) in self.ring.iter().enumerate() {
                if used == width {
                    cycle += 1;
                    used = 0;
                }
                if ready > cycle {
                    cycle = ready;
                    used = 0;
                }
                used += 1;
                if (j as u64) + 1 == needed {
                    return cycle;
                }
            }
            u64::MAX
        }

        fn retire_window(&mut self, next: u64, wake: u64, width: usize) -> usize {
            let mut cycle = next;
            let mut used = 0;
            let mut n = 0;
            while let Some(&ready) = self.ring.front() {
                if used == width {
                    cycle += 1;
                    used = 0;
                }
                if ready > cycle {
                    cycle = ready;
                    used = 0;
                }
                if cycle >= wake {
                    break;
                }
                self.ring.pop_front();
                used += 1;
                n += 1;
            }
            n
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

    /// Random op runs, stores and loads with random completion cycles,
    /// dispatched by a core of random width and ROB size, with stalls
    /// whose retirements replay as windows split at random cycles: the
    /// run-length buffer retires exactly like the per-entry one, cycle by
    /// cycle, and agrees on every horizon and on the full-ROB wake.
    #[test]
    fn matches_a_per_entry_reorder_buffer() {
        for seed in 1..=60u64 {
            let mut rng = Rng(0x2545_f491_4f6c_dd1d ^ seed.wrapping_mul(0x9e37_79b9));
            let width = 1 + rng.below(8) as usize;
            let retire_width = 1 + rng.below(8) as usize;
            let entries = 1 + rng.below(300) as usize;
            let mut rob = Rob::new(entries);
            let mut reference = EntryRob {
                ring: Default::default(),
            };
            let mut cycle = 0u64;
            for _ in 0..2_000 {
                let next = cycle + 1;
                let needed = 1 + rng.below(entries as u64 + 2);
                assert_eq!(
                    rob.horizon(next, retire_width, needed),
                    reference.horizon(next, retire_width, needed),
                    "seed {seed}: horizon of {needed} at {next}"
                );
                if reference.ring.len() == entries {
                    match rob.head_load() {
                        Some(done) => assert_eq!(Some(&done), reference.ring.front()),
                        None => assert!(reference.ring.front().is_some_and(|&d| d <= next)),
                    }
                }
                if rng.below(8) == 0 {
                    // A stall: retirement alone over a window, replayed in
                    // random pieces against the reference's whole window.
                    let wake = next + rng.below(400);
                    let want = reference.retire_window(next, wake, retire_width);
                    let mut got = 0;
                    let mut from = next;
                    while from < wake {
                        let until = (from + 1 + rng.below(wake - from)).min(wake);
                        got += rob.retire_window(from, until, retire_width);
                        from = until;
                    }
                    assert_eq!(got, want, "seed {seed}: window {next}..{wake}");
                    assert_eq!(rob.len(), reference.ring.len());
                    cycle = wake.max(next);
                    continue;
                }
                cycle = next;
                let max = 1 + rng.below(retire_width as u64) as usize;
                assert_eq!(
                    rob.retire(cycle, max),
                    reference.retire(cycle, max),
                    "seed {seed}: retirement at {cycle}"
                );
                let mut dispatched = 0;
                while dispatched < width && rob.len() < entries {
                    match rng.below(4) {
                        0 => {
                            let done = cycle + rng.below(300);
                            rob.push_load(done);
                            reference.ring.push_back(done);
                            dispatched += 1;
                        }
                        1 => {
                            rob.push_ready(1);
                            reference.ring.push_back(cycle + 1);
                            dispatched += 1;
                        }
                        _ => {
                            let room = (width - dispatched).min(entries - rob.len());
                            let n = 1 + rng.below(room as u64) as usize;
                            rob.push_ready(n);
                            reference.ring.extend(std::iter::repeat_n(cycle + 1, n));
                            dispatched += n;
                        }
                    }
                }
                assert_eq!(rob.len(), reference.ring.len(), "seed {seed}");
            }
        }
    }
}
