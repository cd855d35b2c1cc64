//! Persistence traits and the lossless `RunMetrics` shard codec.
//!
//! A type goes into the store by implementing two small traits:
//!
//! * [`StoreKey`] — the identity of a result: a shard *kind* namespace
//!   plus a stable textual id the store content-addresses on.
//! * [`Persist`] — a lossless JSON round-trip. "Lossless" is load-bearing:
//!   a disk-warmed executor must hand back values bit-identical to a
//!   fresh simulation, so every counter, histogram bucket and float must
//!   survive the trip exactly (floats do — the JSON module formats them
//!   shortest-round-trip).
//!
//! `RunMetrics` is implemented here (this crate depends on the runtime);
//! scenario outcomes implement [`Persist`] in `seer-scenario`, next to
//! the types they serialize.

use seer_runtime::{ConflictGroundTruth, ModeCounts, RunMetrics, TxMode};
use seer_sim::CycleHistogram;

use crate::json::{Json, ToJson};

/// FNV-1a 64-bit hash — the workspace's one content-hash primitive
/// (trace hashes, stats digests, and now shard names and checksums).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// The identity of a storable result.
pub trait StoreKey {
    /// Shard namespace (`"cell"`, `"scenario"`); keeps unrelated result
    /// types from ever colliding in one store directory.
    const KIND: &'static str;

    /// A stable, unique textual identity for this key. The store hashes
    /// `kind / key_id / fingerprint` into the shard filename, so two keys
    /// with equal ids *are* the same result.
    fn key_id(&self) -> String;

    /// The key as JSON, embedded in the shard for human inspection and
    /// load-time verification (a filename hash collision is detected by
    /// comparing this, not trusted to never happen).
    fn key_json(&self) -> Json;
}

/// Lossless JSON round-trip for stored values.
pub trait Persist: Sized {
    /// Serializes the value. Must be deterministic: the shard checksum is
    /// computed over the compact form of exactly this tree.
    fn to_store_json(&self) -> Json;

    /// Parses a value back, rejecting anything malformed with a
    /// diagnostic (the store turns errors into quarantine + recompute,
    /// never a panic).
    fn from_store_json(json: &Json) -> Result<Self, String>;
}

fn u64_array(json: &Json, name: &str) -> Result<Vec<u64>, String> {
    json.array_field(name)?
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| format!("{name:?} holds a non-u64")))
        .collect()
}

fn histogram_json(h: &CycleHistogram) -> Json {
    Json::object([
        ("buckets", Json::Array(h.buckets().iter().map(|&b| b.to_json()).collect())),
        ("count", h.count().to_json()),
        ("total", h.total().to_json()),
        ("max", h.max().to_json()),
    ])
}

fn histogram_from_json(json: &Json) -> Result<CycleHistogram, String> {
    let raw = u64_array(json, "buckets")?;
    let buckets: [u64; 65] = raw
        .try_into()
        .map_err(|v: Vec<u64>| format!("histogram has {} buckets, expected 65", v.len()))?;
    Ok(CycleHistogram::from_raw(
        buckets,
        json.u64_field("count")?,
        json.u64_field("total")?,
        json.u64_field("max")?,
    ))
}

impl Persist for RunMetrics {
    fn to_store_json(&self) -> Json {
        let mode_counts: Vec<Json> = TxMode::ALL
            .iter()
            .map(|&m| self.modes.get(m).to_json())
            .collect();
        Json::object([
            ("commits", self.commits.to_json()),
            ("modes", Json::Array(mode_counts)),
            (
                "aborts",
                Json::object([
                    ("conflict", self.aborts.conflict.to_json()),
                    ("capacity", self.aborts.capacity.to_json()),
                    ("explicit", self.aborts.explicit.to_json()),
                    ("other", self.aborts.other.to_json()),
                ]),
            ),
            ("htm_attempts", self.htm_attempts.to_json()),
            ("fallbacks", self.fallbacks.to_json()),
            (
                "attempts_histogram",
                Json::Array(self.attempts_histogram.iter().map(|&n| n.to_json()).collect()),
            ),
            ("wait_cycles", self.wait_cycles.to_json()),
            ("wait_histogram", histogram_json(&self.wait_histogram)),
            ("makespan", self.makespan.to_json()),
            ("sequential_cycles", self.sequential_cycles.to_json()),
            (
                "tx_lock_acquisitions",
                Json::Array(
                    self.tx_lock_acquisitions
                        .iter()
                        .map(|&n| u64::from(n).to_json())
                        .collect(),
                ),
            ),
            ("tx_locks_available", self.tx_locks_available.to_json()),
            (
                "ground_truth",
                Json::object([
                    ("blocks", self.ground_truth.blocks().to_json()),
                    (
                        "kills",
                        Json::Array(self.ground_truth.kills().iter().map(|&k| k.to_json()).collect()),
                    ),
                ]),
            ),
            ("truncated", self.truncated.to_json()),
            ("events", self.events.to_json()),
            ("trace_hash", self.trace_hash.to_json()),
        ])
    }

    fn from_store_json(json: &Json) -> Result<Self, String> {
        let mode_raw = u64_array(json, "modes")?;
        if mode_raw.len() != TxMode::ALL.len() {
            return Err(format!("modes has {} entries, expected 6", mode_raw.len()));
        }
        let mut mode_counts = [0u64; 6];
        mode_counts.copy_from_slice(&mode_raw);
        let modes = ModeCounts::from_counts(mode_counts);
        let aborts_json = json.field("aborts")?;
        let gt_json = json.field("ground_truth")?;
        let blocks = gt_json.u64_field("blocks")? as usize;
        let kills = u64_array(gt_json, "kills")?;
        let ground_truth = ConflictGroundTruth::from_raw(blocks, kills)
            .map_err(|e| format!("ground_truth: {e}"))?;
        let tx_lock_acquisitions = u64_array(json, "tx_lock_acquisitions")?
            .into_iter()
            .map(|n| u32::try_from(n).map_err(|_| "tx_lock_acquisitions overflow".to_string()))
            .collect::<Result<Vec<u32>, String>>()?;
        Ok(RunMetrics {
            commits: json.u64_field("commits")?,
            modes,
            aborts: seer_runtime::AbortCounts {
                conflict: aborts_json.u64_field("conflict")?,
                capacity: aborts_json.u64_field("capacity")?,
                explicit: aborts_json.u64_field("explicit")?,
                other: aborts_json.u64_field("other")?,
            },
            htm_attempts: json.u64_field("htm_attempts")?,
            fallbacks: json.u64_field("fallbacks")?,
            attempts_histogram: u64_array(json, "attempts_histogram")?,
            wait_cycles: json.u64_field("wait_cycles")?,
            wait_histogram: histogram_from_json(json.field("wait_histogram")?)?,
            makespan: json.u64_field("makespan")?,
            sequential_cycles: json.u64_field("sequential_cycles")?,
            tx_lock_acquisitions,
            tx_locks_available: json.u64_field("tx_locks_available")? as usize,
            ground_truth,
            truncated: json.bool_field("truncated")?,
            events: json.u64_field("events")?,
            trace_hash: json.u64_field("trace_hash")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn run_metrics_round_trip_is_lossless() {
        let mut m = RunMetrics::new(3, 5, 7);
        m.commits = 42;
        m.modes.record(TxMode::HtmNoLocks);
        m.modes.record(TxMode::SglFallback);
        m.aborts.conflict = 9;
        m.aborts.capacity = 1;
        m.htm_attempts = 50;
        m.fallbacks = 1;
        m.attempts_histogram = vec![30, 10, 1, 0, 0, 1];
        m.wait_cycles = 1234;
        m.wait_histogram.record(0);
        m.wait_histogram.record(700);
        m.wait_histogram.record(u64::MAX / 3);
        m.makespan = 99_999;
        m.sequential_cycles = 300_000;
        m.tx_lock_acquisitions = vec![1, 3, 2];
        m.ground_truth.record(0, 2);
        m.ground_truth.record(2, 1);
        m.events = 4096;
        m.trace_hash = 0xdead_beef_cafe_f00d;

        let json = m.to_store_json();
        let back = RunMetrics::from_store_json(&json).expect("round trip");
        assert_eq!(format!("{m:?}"), format!("{back:?}"));
        // And through the actual byte serialization too.
        let reparsed = Json::parse(&json.to_string_compact()).expect("parse");
        let back2 = RunMetrics::from_store_json(&reparsed).expect("round trip via bytes");
        assert_eq!(format!("{m:?}"), format!("{back2:?}"));
    }

    #[test]
    fn malformed_shard_is_an_error_not_a_panic() {
        let m = RunMetrics::new(1, 3, 0);
        let mut json = m.to_store_json();
        if let Json::Object(fields) = &mut json {
            fields.retain(|(k, _)| k != "makespan");
        }
        assert!(RunMetrics::from_store_json(&json).is_err());
        assert!(RunMetrics::from_store_json(&Json::Null).is_err());
        assert!(RunMetrics::from_store_json(&Json::parse("{\"modes\":[1,2]}").unwrap()).is_err());
    }
}
