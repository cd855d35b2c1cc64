//! Drop-in equivalence of the calendar queue with a binary-heap model.
//!
//! The simulation-kernel fast path replaced the event queue's `BinaryHeap`
//! with a bucketed calendar queue. These properties pin the contract that
//! makes the swap safe: against a straightforward binary-heap model, the
//! calendar queue must be observationally indistinguishable — pop for pop,
//! FIFO among equal times, and bit-identical in the trace hash — across
//! random streams, interleavings, and time deltas large enough to exercise
//! the overflow list and its wheel migration (the calendar's window is
//! `256 × 2¹² = 2²⁰` cycles).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use seer_sim::{Cycles, EventQueue};

/// The pre-calendar-queue implementation, kept as an executable model. A
/// max-heap of `Reverse<(time, seq, payload)>` is exactly "pop the
/// earliest time, FIFO among ties": `seq` increments per push, so the
/// lexicographic key breaks time ties by insertion order and never
/// compares payloads.
struct HeapModel {
    heap: BinaryHeap<Reverse<(Cycles, u64, usize)>>,
    seq: u64,
    watermark: Cycles,
    hash: u64,
}

impl HeapModel {
    fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            watermark: 0,
            hash: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
        }
    }

    fn push(&mut self, time: Cycles, payload: usize) {
        self.heap.push(Reverse((time, self.seq, payload)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Cycles, usize)> {
        let Reverse((time, seq, payload)) = self.heap.pop()?;
        self.watermark = time;
        for word in [time, seq] {
            for byte in word.to_le_bytes() {
                self.hash ^= u64::from(byte);
                self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        Some((time, payload))
    }
}

/// Drains both queues and asserts identical pop sequences and hashes.
fn drain_and_compare(q: &mut EventQueue<usize>, model: &mut HeapModel) {
    loop {
        let (got, want) = (q.pop(), model.pop());
        assert_eq!(got, want);
        if got.is_none() {
            break;
        }
    }
    assert_eq!(q.trace_hash(), model.hash, "trace hashes diverged");
}

/// A value below `2^bits` (0 when `bits` is 0): the top `bits` bits of
/// `raw`, so drawing `bits` uniformly spreads values log-uniformly.
fn log_uniform(bits: u32, raw: u64) -> u64 {
    raw.checked_shr(64 - bits).unwrap_or(0)
}

proptest! {
    /// Random streams within one calendar window: identical pop order and
    /// trace hash.
    #[test]
    fn matches_heap_on_random_streams(times in prop::collection::vec(0u64..1 << 18, 0..300)) {
        let mut q = EventQueue::new();
        let mut model = HeapModel::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
            model.push(t, i);
        }
        drain_and_compare(&mut q, &mut model);
    }

    /// Heavy ties: times drawn from a tiny domain, so most events collide
    /// and the order is decided almost entirely by FIFO stability.
    #[test]
    fn matches_heap_under_heavy_ties(times in prop::collection::vec(0u64..4, 0..300)) {
        let mut q = EventQueue::new();
        let mut model = HeapModel::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
            model.push(t, i);
        }
        drain_and_compare(&mut q, &mut model);
    }

    /// Interleaved pushes and pops, with pushes anchored at the current
    /// watermark (the causality contract every DES caller obeys). The
    /// calendar's lazily sorted current bucket must accept mid-drain
    /// insertions without reordering.
    #[test]
    fn matches_heap_interleaved(ops in prop::collection::vec((0u64..5000, any::<bool>()), 1..400)) {
        let mut q = EventQueue::new();
        let mut model = HeapModel::new();
        let mut i = 0;
        for (dt, pop) in ops {
            if pop {
                prop_assert_eq!(q.pop(), model.pop());
            } else {
                let t = model.watermark + dt;
                q.push(t, i);
                model.push(t, i);
                i += 1;
            }
        }
        drain_and_compare(&mut q, &mut model);
    }

    /// Deltas past the 2²⁰-cycle wheel window: events land on the overflow
    /// list and must migrate back in the same order the heap would produce.
    #[test]
    fn matches_heap_across_window_overflow(
        ops in prop::collection::vec((0u64..1 << 22, 0u8..4), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut model = HeapModel::new();
        let mut i = 0;
        for (dt, kind) in ops {
            // kind 0: pop; otherwise push (biased towards pushes so the
            // queue builds depth spanning several windows).
            if kind == 0 {
                prop_assert_eq!(q.pop(), model.pop());
            } else {
                let t = model.watermark + dt;
                q.push(t, i);
                model.push(t, i);
                i += 1;
            }
        }
        drain_and_compare(&mut q, &mut model);
    }

    /// Times spread log-uniformly below 2⁵⁷, so every one of the eight
    /// byte lanes the trace-hash fold extracts from a time is non-zero in
    /// some events, not only the low three the streams above reach.
    #[test]
    fn matches_heap_on_every_byte_lane(
        times in prop::collection::vec((0u32..58, any::<u64>()), 0..300),
    ) {
        let mut q = EventQueue::new();
        let mut model = HeapModel::new();
        for (i, &(bits, raw)) in times.iter().enumerate() {
            let t = log_uniform(bits, raw);
            q.push(t, i);
            model.push(t, i);
        }
        drain_and_compare(&mut q, &mut model);
    }

    /// Interleaved pushes and pops far up the time axis: a start offset
    /// anywhere below 2⁶³ plus log-uniform deltas, so the high lanes stay
    /// set while the low ones churn.
    #[test]
    fn matches_heap_interleaved_at_high_times(
        base in 0u64..1 << 63,
        ops in prop::collection::vec((0u32..41, any::<u64>(), 0u8..3), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut model = HeapModel::new();
        q.push(base, 0);
        model.push(base, 0);
        for (i, (bits, raw, kind)) in ops.into_iter().enumerate() {
            if kind == 0 {
                prop_assert_eq!(q.pop(), model.pop());
            } else {
                let t = model.watermark.max(base) + log_uniform(bits, raw);
                q.push(t, i + 1);
                model.push(t, i + 1);
            }
        }
        drain_and_compare(&mut q, &mut model);
    }

    /// Draining to empty and refilling much later (virtual time jumped
    /// while the queue was idle) must not disturb equivalence — this is
    /// the empty-queue window-snap path of the calendar.
    #[test]
    fn matches_heap_across_idle_time_jumps(
        rounds in prop::collection::vec(
            (0u64..1 << 24, prop::collection::vec(0u64..1 << 16, 1..40)),
            1..10,
        ),
    ) {
        let mut q = EventQueue::new();
        let mut model = HeapModel::new();
        let mut i = 0;
        for (jump, deltas) in rounds {
            let base = model.watermark + jump;
            for &dt in &deltas {
                q.push(base + dt, i);
                model.push(base + dt, i);
                i += 1;
            }
            drain_and_compare(&mut q, &mut model);
        }
    }
}
