//! Stable, deterministic event queue.
//!
//! The queue orders events by `(time, sequence)` where `sequence` is a
//! monotonically increasing insertion counter. Two events scheduled for the
//! same cycle therefore fire in the order they were scheduled, which makes
//! every simulation a total order of events — a property the integration
//! tests rely on to assert bit-identical metrics across repeated runs with
//! the same seed.
//!
//! # Implementation: a calendar queue
//!
//! Internally this is a bucketed *calendar queue* (Brown 1988) tuned to the
//! driver's cycle-delta distribution rather than a binary heap: virtual
//! time is divided into `DAY`-cycle "days", and each of the `NB` wheel
//! buckets holds every pending event of one day within the current
//! `NB × DAY`-cycle window. A push appends to its day's bucket in
//! O(1); the bucket is sorted only when the popping frontier first reaches
//! it, after which pops are O(1) `Vec::pop` calls from the sorted tail.
//! Events beyond the window sit in an overflow list that is migrated into
//! the wheel when the window advances past the wheel's last day. Bucket
//! storage is retained across drains, so after a brief warm-up a
//! simulation pushes and pops without allocating.
//!
//! The pop order is *bit-identical* to the old `BinaryHeap` implementation:
//! equal-time events share a day (hence a bucket), where the full
//! `(time, seq)` key — not just the time — decides both the lazy sort and
//! the sorted-insert path, so the FIFO tie-break and therefore every
//! committed golden trace hash is preserved exactly. `tests/queue_props.rs`
//! checks the pop order against a `BinaryHeap` reference; host cost is
//! measured on real cells by `benchmark/` (`DESIGN.md` §12).

use crate::Cycles;

/// Log2 of the cycles per calendar day (day = 4096 cycles): comfortably
/// above the typical event delta (transaction bodies and waits are tens to
/// thousands of cycles), so most pushes land in the current or a nearby
/// bucket.
const DAY_SHIFT: u32 = 12;

/// Cycles per calendar day.
const DAY: Cycles = 1 << DAY_SHIFT;

/// Buckets on the wheel (one per day; power of two so the day→bucket map
/// is a mask). The window spans `NB * DAY` = 2²⁰ cycles — wider than the
/// driver's longest single event delta, so overflow migration is rare.
const NB: usize = 256;

/// Words in the bucket-occupancy bitmap.
const WORDS: usize = NB / 64;

const fn day(time: Cycles) -> u64 {
    time / DAY
}

/// The `(time, seq)` order key packed into one integer: `time` in the high
/// 64 bits, `seq` in the low 64. Comparing packed keys is exactly the
/// lexicographic tuple comparison, in one compare.
#[inline]
fn key<E>(e: &EventEntry<E>) -> u128 {
    (u128::from(e.time) << 64) | u128::from(e.seq)
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `PRIME_POWERS[k]` is `FNV_PRIME` to the `k`-th power (wrapping).
const PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// FNV-1a over the eight little-endian bytes of `word`, continuing from
/// digest `h`. Byte `i` of the little-endian encoding is `(word >> 8i) &
/// 0xff`, so this folds the same bytes in the same order as iterating
/// `word.to_le_bytes()`, without materialising the array.
///
/// Folding a zero byte is `h ^ 0 = h` followed by one multiply, so the
/// `k` zero bytes above the highest nonzero one fold as a single multiply
/// by `FNV_PRIME^k`. Event times and sequence numbers have mostly zero
/// high bytes, which roughly halves the serial multiply chain per pop.
#[inline]
fn fnv1a_word(mut h: u64, word: u64) -> u64 {
    let significant = ((71 - word.leading_zeros()) / 8) as usize;
    for i in 0..significant {
        h = (h ^ ((word >> (8 * i)) & 0xff)).wrapping_mul(FNV_PRIME);
    }
    h.wrapping_mul(PRIME_POWERS[8 - significant])
}

/// A single scheduled event: payload plus its firing time and tie-break key.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// Virtual time at which the event fires.
    pub time: Cycles,
    /// Insertion sequence number; the tie-break for simultaneous events.
    pub seq: u64,
    /// The event payload, interpreted by the simulation driver.
    pub payload: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for EventEntry<E> {}

/// Deterministic priority queue of timestamped events.
///
/// ```
/// use seer_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(10, "b");
/// q.push(5, "a");
/// q.push(10, "c"); // same time as "b", inserted later -> fires after "b"
/// assert_eq!(q.pop().unwrap().1, "a");
/// assert_eq!(q.pop().unwrap().1, "b");
/// assert_eq!(q.pop().unwrap().1, "c");
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// One bucket per day of the current window; bucket `d % NB` holds the
    /// pending events of day `d` for `d` in `[wheel_base, wheel_base + NB)`.
    /// Only the bucket named by `cur` is sorted (descending by
    /// `(time, seq)`, so the minimum pops from the tail); the rest are in
    /// insertion order until the frontier reaches them. A fixed-size boxed
    /// array (not a `Vec`) so masked indexing needs no bounds checks.
    wheel: Box<[Vec<EventEntry<E>>; NB]>,
    /// Bit `i` set iff `wheel[i]` is non-empty.
    occupied: [u64; WORDS],
    /// First day covered by the wheel. Never exceeds `day(watermark)`
    /// outside `pop`, so every push lands in the window or in overflow.
    wheel_base: u64,
    /// Bucket currently being drained, if any: non-empty, and sorted when
    /// `cur_sorted` is set.
    cur: Option<usize>,
    /// Drain discipline of the `cur` bucket. Large buckets are sorted once
    /// (descending, tail pops); small ones are drained by selection scan —
    /// the scan's handful of compares hides under the trace-hash fold's
    /// serial multiply chain, where an up-front sort cannot.
    cur_sorted: bool,
    /// Events whose day lies beyond the window; migrated onto the wheel
    /// when everything nearer has been popped.
    overflow: Vec<EventEntry<E>>,
    /// Minimum day present in `overflow` (`u64::MAX` when it is empty).
    overflow_min_day: u64,
    /// Pending events across wheel and overflow.
    len: usize,
    seq: u64,
    /// Time of the most recently popped event; pushes earlier than this are
    /// causality violations and panic in debug builds.
    watermark: Cycles,
    /// Rolling FNV-1a digest of every popped `(time, seq)` pair: a compact
    /// fingerprint of the entire event schedule in execution order. Two
    /// runs pop the same events in the same order if and only if their
    /// trace hashes agree, which is what the deterministic-replay fixtures
    /// in `seer-conformance` compare.
    trace_hash: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            wheel: Box::new([const { Vec::new() }; NB]),
            occupied: [0; WORDS],
            wheel_base: 0,
            cur: None,
            cur_sorted: false,
            overflow: Vec::new(),
            overflow_min_day: u64::MAX,
            len: 0,
            seq: 0,
            watermark: 0,
            trace_hash: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
        }
    }

    /// Schedules `payload` to fire at `time`.
    ///
    /// Scheduling an event before the current watermark (the time of the
    /// last popped event) would break causality; debug builds and
    /// `check-invariants` builds assert against it, plain release builds
    /// clamp to the watermark.
    pub fn push(&mut self, time: Cycles, payload: E) {
        #[cfg(feature = "check-invariants")]
        assert!(
            time >= self.watermark,
            "causality violation: event scheduled at {} before watermark {}",
            time,
            self.watermark
        );
        debug_assert!(
            time >= self.watermark,
            "event scheduled at {} before watermark {}",
            time,
            self.watermark
        );
        let time = time.max(self.watermark);
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        // First event after the queue ran dry: nothing is pending, so no
        // bucket aliasing can occur and the window may snap forward to the
        // frontier. Without this, a long empty stretch (virtual time far
        // outstripping `wheel_base`) would shunt every later push through
        // the overflow list and double-handle it on migration.
        if self.len == 1 {
            let frontier = day(self.watermark);
            if frontier > self.wheel_base {
                self.wheel_base = frontier;
            }
        }
        let entry = EventEntry { time, seq, payload };

        let d = day(time);
        if d >= self.wheel_base + NB as u64 {
            self.overflow_min_day = self.overflow_min_day.min(d);
            self.overflow.push(entry);
            return;
        }
        let idx = (d as usize) & (NB - 1);
        if self.cur == Some(idx) && self.cur_sorted {
            // The frontier is inside this very bucket (same day: within the
            // window the day→bucket map is injective), which is already
            // sorted descending — insert at the position that keeps it so.
            // A new entry carries the largest seq yet, so among equal times
            // it lands nearest the front of the Vec, i.e. pops last: FIFO.
            // (A selection-drained `cur` bucket is unsorted; a plain append
            // is correct there, like any other bucket.)
            let bucket = &mut self.wheel[idx];
            let k = key(&entry);
            let pos = bucket.partition_point(|e| key(e) > k);
            bucket.insert(pos, entry);
        } else {
            self.wheel[idx].push(entry);
            self.occupied[idx >> 6] |= 1 << (idx & 63);
        }
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(Cycles, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            if let Some(b) = self.cur {
                let b = b & (NB - 1); // teach the optimizer b is in range
                let entry = if self.cur_sorted {
                    self.wheel[b].pop().expect("cur bucket is never empty")
                } else {
                    // Selection drain: scan the (small, unsorted) bucket
                    // for the minimal `(time, seq)` key. The key is unique,
                    // so this is exactly the order a sort would produce.
                    let bucket = &mut self.wheel[b];
                    let mut min = 0;
                    let mut min_key = key(&bucket[0]);
                    for (i, e) in bucket.iter().enumerate().skip(1) {
                        let k = key(e);
                        if k < min_key {
                            (min, min_key) = (i, k);
                        }
                    }
                    bucket.swap_remove(min)
                };
                if self.wheel[b].is_empty() {
                    self.occupied[b >> 6] &= !(1 << (b & 63));
                    self.cur = None;
                }
                self.len -= 1;
                debug_assert!(entry.time >= self.watermark);
                self.watermark = entry.time;
                // Fold the popped (time, seq) pair into the trace digest.
                // `seq` captures scheduling order, so the digest
                // distinguishes even same-time reorderings.
                self.trace_hash = fnv1a_word(fnv1a_word(self.trace_hash, entry.time), entry.seq);
                return Some((entry.time, entry.payload));
            }
            if let Some(idx) = self.first_occupied() {
                // The frontier reached a new bucket. Buckets are typically
                // a handful of events: those drain by selection scan (see
                // `cur_sorted`), whose per-pop compares overlap with the
                // trace-hash fold instead of paying a sort's up-front
                // spike. Genuinely large buckets are sorted once,
                // descending by the full (time, seq) key, so the minimum
                // sits at the tail and every later pop is O(1). The key is
                // unique (seq is), so both disciplines produce the exact
                // order the old binary heap did.
                let bucket = &mut self.wheel[idx & (NB - 1)];
                if bucket.len() <= 16 {
                    self.cur_sorted = false;
                } else {
                    bucket.sort_unstable_by_key(|e| std::cmp::Reverse(key(e)));
                    self.cur_sorted = true;
                }
                self.cur = Some(idx);
                continue;
            }
            // Wheel exhausted: advance the window to the nearest overflow
            // day and migrate everything that now fits.
            debug_assert!(!self.overflow.is_empty(), "len > 0 but no events anywhere");
            self.migrate_overflow();
        }
    }

    /// Advances `wheel_base` to the nearest overflow day and moves every
    /// overflow event inside the new window onto the wheel. Only called
    /// with an empty wheel, so bucket aliasing cannot mix days.
    fn migrate_overflow(&mut self) {
        self.wheel_base = self.overflow_min_day;
        let horizon = self.wheel_base + NB as u64;
        let mut next_min = u64::MAX;
        let mut i = 0;
        while i < self.overflow.len() {
            let d = day(self.overflow[i].time);
            if d < horizon {
                let entry = self.overflow.swap_remove(i);
                let idx = (d as usize) & (NB - 1);
                self.wheel[idx].push(entry);
                self.occupied[idx >> 6] |= 1 << (idx & 63);
            } else {
                next_min = next_min.min(d);
                i += 1;
            }
        }
        self.overflow_min_day = next_min;
    }

    /// Index of the first non-empty bucket at or after the popping
    /// frontier, scanning the occupancy bitmap cyclically. Buckets for
    /// days before the frontier are empty (their events already popped),
    /// so the first hit is the minimal pending day.
    fn first_occupied(&self) -> Option<usize> {
        let start_day = day(self.watermark).max(self.wheel_base);
        let start = (start_day as usize) & (NB - 1);
        let (sw, sb) = (start >> 6, start & 63);
        let w = self.occupied[sw] & (!0u64 << sb);
        if w != 0 {
            return Some((sw << 6) + w.trailing_zeros() as usize);
        }
        for i in 1..=WORDS {
            let wi = (sw + i) & (WORDS - 1);
            let mut w = self.occupied[wi];
            if i == WORDS {
                // Back at the start word: only the bits below the start
                // position remain unexamined.
                w &= !(!0u64 << sb);
            }
            if w != 0 {
                return Some((wi << 6) + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycles> {
        if let Some(b) = self.cur {
            return self.wheel[b].last().map(|e| e.time);
        }
        if let Some(idx) = self.first_occupied() {
            // Not yet sorted; a linear scan of one day's bucket. Wheel
            // events always precede overflow events (their days are all
            // smaller), so this is the global minimum.
            return self.wheel[idx].iter().map(|e| e.time).min();
        }
        self.overflow.iter().map(|e| e.time).min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards every pending event without firing it.
    ///
    /// The queue's causal identity survives: the watermark, the insertion
    /// sequence counter and the trace digest all keep their values, so a
    /// cleared queue refuses (debug) or clamps (release) pre-watermark
    /// pushes exactly like a drained one, and its `trace_hash` still
    /// fingerprints everything popped *before* the clear. Discarded events
    /// never contribute to the digest — only popped ones do. Bucket
    /// storage is retained, so clearing does not give back the warm-up
    /// allocations.
    pub fn clear(&mut self) {
        for bucket in self.wheel.iter_mut() {
            bucket.clear();
        }
        self.occupied = [0; WORDS];
        self.cur = None;
        self.overflow.clear();
        self.overflow_min_day = u64::MAX;
        self.len = 0;
    }

    /// Time of the most recently popped event.
    pub fn now(&self) -> Cycles {
        self.watermark
    }

    /// Digest of every event popped so far, in execution order.
    ///
    /// Two queues that popped identical `(time, seq)` schedules report the
    /// same hash; any divergence — an extra event, a missing event, a
    /// different time, a different tie-break order — changes it.
    pub fn trace_hash(&self) -> u64 {
        self.trace_hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_fold_equals_the_byte_wise_fold() {
        let byte_wise = |mut h: u64, word: u64| {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            h
        };
        // Words with 0..=8 significant bytes: 0, then for each width the
        // smallest, an interior and the largest word of that width.
        let mut words = vec![0u64, u64::MAX];
        for bytes in 1..=8u32 {
            let lo = 1u64 << (8 * (bytes - 1));
            let hi = if bytes == 8 {
                u64::MAX
            } else {
                (1u64 << (8 * bytes)) - 1
            };
            words.extend([lo, lo | 0x5a, hi, hi ^ (lo >> 1)]);
        }
        for h in [0xcbf2_9ce4_8422_2325, 0, u64::MAX, 0x0123_4567_89ab_cdef] {
            for &w in &words {
                assert_eq!(fnv1a_word(h, w), byte_wise(h, w), "h={h:#x} word={w:#x}");
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn ties_break_by_insertion_order_across_the_sort_frontier() {
        // Half the equal-time events are pushed before the first pop (and
        // get lazily sorted), half after (and take the sorted-insert
        // path); the FIFO order must hold across both.
        let mut q = EventQueue::new();
        q.push(1, -1);
        for i in 0..50 {
            q.push(42, i);
        }
        assert_eq!(q.pop(), Some((1, -1)));
        for i in 50..100 {
            q.push(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn watermark_tracks_pops() {
        let mut q = EventQueue::new();
        q.push(5, ());
        q.push(9, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 5);
        q.pop();
        assert_eq!(q.now(), 9);
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(7, "x");
        q.push(3, "y");
        assert_eq!(q.peek_time(), Some(3));
        q.pop();
        assert_eq!(q.peek_time(), Some(7));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, ());
        q.push(2, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn events_beyond_the_window_overflow_and_migrate_back() {
        // Days far outside the NB-day window park in overflow; they must
        // still pop in exact (time, seq) order once the window advances,
        // including several migrations in sequence.
        let mut q = EventQueue::new();
        let window = NB as Cycles * DAY;
        let times = [
            0,
            DAY - 1,
            window - 1,        // last covered day
            window,            // first overflow day
            window + DAY,      // second overflow day
            3 * window + 17,   // needs a second migration
            7 * window + 4096, // and a third
        ];
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_far_past_the_first_window() {
        // A long-running simulation shape: the frontier marches far past
        // the initial window while pushes trail just ahead of it.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        q.push(0, 0u64);
        let mut next = 1u64;
        for _ in 0..4_000 {
            let (t, _) = q.pop().expect("queue should not run dry");
            expect.push(t);
            // Two successors: one near (same or next day), one far.
            q.push(t + 1_500, next);
            next += 1;
            if next.is_multiple_of(7) {
                q.push(t + 3 * NB as Cycles * DAY, next);
                next += 1;
            }
            while q.len() > 8 {
                let (t, _) = q.pop().unwrap();
                expect.push(t);
            }
        }
        // Pops must have been non-decreasing in time throughout.
        assert!(expect.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn clear_discards_pending_events_but_keeps_identity() {
        let mut q = EventQueue::new();
        q.push(5, "a");
        q.push(10, "b");
        assert_eq!(q.pop(), Some((5, "a")));
        let hash_before = q.trace_hash();

        q.push(2 * NB as Cycles * DAY, "overflowed");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
        // Discarded events never reach the digest; the watermark (and the
        // causality clamp that rides on it) survives the clear.
        assert_eq!(q.trace_hash(), hash_before);
        assert_eq!(q.now(), 5);

        // The queue drains normally again after a clear.
        q.push(7, "c");
        q.push(7, "d");
        assert_eq!(q.pop(), Some((7, "c")));
        assert_eq!(q.pop(), Some((7, "d")));
        assert_eq!(q.pop(), None);
        assert_ne!(q.trace_hash(), hash_before);
    }

    #[cfg(not(any(debug_assertions, feature = "check-invariants")))]
    #[test]
    fn release_mode_clamps_to_watermark() {
        let mut q = EventQueue::new();
        q.push(10, "a");
        q.pop();
        q.push(5, "late"); // clamped to 10
        assert_eq!(q.pop(), Some((10, "late")));
    }

    #[test]
    fn trace_hash_tracks_the_popped_schedule() {
        let schedule = |times: &[Cycles]| {
            let mut q = EventQueue::new();
            for &t in times {
                q.push(t, ());
            }
            while q.pop().is_some() {}
            q.trace_hash()
        };
        // Identical schedules agree.
        assert_eq!(schedule(&[5, 1, 9]), schedule(&[5, 1, 9]));
        // Insertion order matters even for equal times (different seq).
        assert_ne!(schedule(&[5, 1, 9]), schedule(&[1, 5, 9]));
        // Different times differ.
        assert_ne!(schedule(&[5, 1, 9]), schedule(&[5, 1, 10]));
        // Unpopped events don't contribute.
        let mut q = EventQueue::new();
        let empty_hash = q.trace_hash();
        q.push(3, ());
        assert_eq!(q.trace_hash(), empty_hash);
        q.pop();
        assert_ne!(q.trace_hash(), empty_hash);
    }
}
