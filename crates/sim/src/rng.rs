//! Seeded, splittable RNG plus the samplers the workload models need.
//!
//! Everything random in the reproduction flows through [`SimRng`] so that a
//! run is a pure function of `(config, seed)`. The paper averages 20
//! wall-clock runs on real hardware; we average over seeds instead
//! (`DESIGN.md` §2).
//!
//! The generator is a self-contained xoshiro256++ (seeded through
//! SplitMix64), so the simulation owns its entire entropy pipeline: no
//! external crate can silently change the stream between releases, which is
//! what the deterministic-replay fixtures in `seer-conformance` rely on.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::Cycles;

/// Deterministic simulation RNG.
///
/// A xoshiro256++ generator with domain helpers: integer ranges, Bernoulli
/// trials, bounded Zipf sampling (used by the STAMP workload models for
/// skewed data-structure access).
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

/// One step of SplitMix64 over `state`, returning the next output.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Expand the seed into the 256-bit state with SplitMix64, the
        // initialization the xoshiro authors recommend: it guarantees a
        // non-zero state and decorrelates adjacent seeds.
        let mut sm = seed;
        Self {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next 64 random bits (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Next 32 random bits (upper half of a 64-bit step).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// If `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's nearly-divisionless bounded sampling: widen, multiply,
        // reject the biased low slice.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range [{lo}, {hi}]");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Uniform cycle count in `[lo, hi]`, a convenience alias used by the
    /// workload trace generators.
    pub fn cycles_between(&mut self, lo: Cycles, hi: Cycles) -> Cycles {
        self.range_inclusive(lo, hi)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform float in `[0, 1)` (53 bits of precision).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples an index in `[0, n)` from a Zipf distribution with exponent
    /// `theta` via inverse-CDF over precomputed weights in [`ZipfTable`].
    ///
    /// The workload models take a [`ZipfTable`] from [`ZipfTable::shared`]
    /// and sample from it per access, so the O(n) normalization cost is
    /// paid once per process.
    pub fn zipf(&mut self, table: &ZipfTable) -> usize {
        table.sample(self.unit())
    }
}

/// Precomputed cumulative weights for bounded Zipf sampling.
///
/// Element `i` (0-based) has weight `1 / (i + 1)^theta`. `theta = 0` is
/// uniform; larger `theta` concentrates probability on low indices, which
/// the workload models use for hot-spot data structures (e.g. the intruder
/// work-queue head).
///
/// Sampling is an inverse-CDF lookup narrowed by a *guide index*: `K`
/// buckets, `K = min(next_pow2(n), 2¹⁷)`, where `guide[b]` (for
/// `b = 0..=K`) is the first index whose cdf value is `>= b/K`. A draw `u`
/// falls in bucket `b = ⌊u·K⌋` and only `cdf[guide[b]..guide[b + 1]]` is
/// binary-searched. See [`ZipfTable::sample`] for why this returns exactly
/// the index a search over the whole cdf would.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

/// Upper bound on the guide index's bucket count (a power of two). At
/// 2¹⁷ a guide is at most 512 KB, and every edge `b/K` is still an exact
/// `f64`.
const MAX_GUIDE_BUCKETS: usize = 1 << 17;

/// Process-wide cache behind [`ZipfTable::shared`], keyed by
/// `(n, theta.to_bits())`.
static SHARED: Mutex<BTreeMap<(usize, u64), Arc<ZipfTable>>> = Mutex::new(BTreeMap::new());

impl ZipfTable {
    /// The table over `n` elements with exponent `theta`, built once per
    /// process and shared by every later caller with the same key.
    ///
    /// A table is a pure function of `(n, theta)`, so handing one instance
    /// to every workload (and every executor thread) changes no sample. The
    /// key is `theta`'s bit pattern: exponents one ulp apart get distinct
    /// tables. Entries live for the rest of the process. Every key in use
    /// comes from a constant of a built-in workload model, so the cache
    /// stays a few tables large (the biggest, labyrinth's 2²⁰ lines, is
    /// ~8 MB).
    ///
    /// # Panics
    /// As [`ZipfTable::new`].
    pub fn shared(n: usize, theta: f64) -> Arc<ZipfTable> {
        let key = (n, theta.to_bits());
        if let Some(table) = Self::cache().get(&key) {
            return Arc::clone(table);
        }
        // Built outside the lock so a large table never stalls callers
        // wanting other keys. Threads racing on one key build equal
        // tables, and the first one inserted is the one everybody gets.
        let built = Arc::new(Self::new(n, theta));
        Arc::clone(Self::cache().entry(key).or_insert(built))
    }

    fn cache() -> MutexGuard<'static, BTreeMap<(usize, u64), Arc<ZipfTable>>> {
        SHARED
            .lock()
            .expect("no panic while holding the cache lock")
    }

    /// Builds a table over `n` elements with exponent `theta >= 0`.
    ///
    /// # Panics
    /// If `n == 0` or `n >= 2³²`, or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "ZipfTable over zero elements");
        assert!(u32::try_from(n).is_ok(), "ZipfTable over {n} elements");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "invalid Zipf exponent {theta}"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for w in &mut cdf {
            *w /= total;
        }
        // Guard against floating-point round-off at the tail.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        let buckets = n.next_power_of_two().min(MAX_GUIDE_BUCKETS);
        let mut guide = Vec::with_capacity(buckets + 1);
        let mut i = 0;
        for b in 0..=buckets {
            // Exact: b ≤ 2¹⁷ and the divisor is a power of two.
            let edge = b as f64 / buckets as f64;
            while cdf[i] < edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        Self { cdf, guide }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// The normalized cumulative weights: entry `i` is the probability of
    /// sampling an index `<= i`. Non-decreasing; the last entry is `1.0`.
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// Always false: a table covers at least one element.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Maps a uniform draw `u in [0, 1]` to an index: the first `i` with
    /// `cdf[i] >= u`, i.e. `cdf.partition_point(|c| c < u).min(n - 1)`.
    ///
    /// Only the guide bucket holding `u` is searched, and the result is
    /// still exactly that index. Write `P(u)` for the full partition point
    /// and `K` for the bucket count.
    ///
    /// 1. `u·K` is computed exactly. `K` is a power of two, and scaling by
    ///    a power of two only shifts the exponent. This holds for every
    ///    `u` in `[0, 1]`, not just the multiples of 2⁻⁵³ that
    ///    [`SimRng::unit`] returns. So `b = min(⌊u·K⌋, K - 1)` satisfies
    ///    `b/K <= u <= (b+1)/K` over the reals. The edges `b/K` are exact
    ///    `f64`s too, which is what `guide` was built against.
    /// 2. `P(u) >= guide[b]`. Every `i < guide[b]` has
    ///    `cdf[i] < b/K <= u`, so it counts towards `P(u)`.
    /// 3. `P(u) <= guide[b+1] <= n - 1`. `cdf[n-1] = 1.0 >= (b+1)/K`, so
    ///    `guide[b+1]` is a real index. Its value is `>= (b+1)/K >= u`,
    ///    and the cdf is non-decreasing, so the predicate `c < u` is false
    ///    from there on.
    /// 4. The predicate is monotone, so the partition point of the whole
    ///    cdf lies in `[lo, hi] = [guide[b], guide[b+1]]`, and equals
    ///    `lo` plus the partition point of `cdf[lo..hi]`. By 3 the
    ///    `min(n - 1)` clamp never binds.
    ///
    /// A draw therefore maps to the same index as the plain binary search,
    /// and seeded runs are unchanged.
    pub fn sample(&self, u: f64) -> usize {
        debug_assert!((0.0..=1.0).contains(&u));
        let buckets = self.guide.len() - 1;
        let b = ((u * buckets as f64) as usize).min(buckets - 1);
        let (lo, hi) = (self.guide[b] as usize, self.guide[b + 1] as usize);
        lo + self.cdf[lo..hi].partition_point(|&c| c < u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SimRng::new(13);
        let mut counts = [0usize; 8];
        for _ in 0..80_000 {
            counts[r.below(8) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        let mut r = SimRng::new(17);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u), "u = {u}");
        }
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut r = SimRng::new(19);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            match r.range_inclusive(5, 7) {
                5 => saw_lo = true,
                7 => saw_hi = true,
                6 => {}
                v => panic!("out of range: {v}"),
            }
        }
        assert!(saw_lo && saw_hi);
        assert_eq!(r.range_inclusive(9, 9), 9);
    }

    #[test]
    fn fill_bytes_varies() {
        let mut r = SimRng::new(23);
        let mut a = [0u8; 13];
        let mut b = [0u8; 13];
        r.fill_bytes(&mut a);
        r.fill_bytes(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_rough_frequency() {
        let mut r = SimRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let table = ZipfTable::new(4, 0.0);
        let mut r = SimRng::new(5);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[r.zipf(&table)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn zipf_skews_to_head() {
        let table = ZipfTable::new(100, 1.2);
        let mut r = SimRng::new(5);
        let mut head = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if r.zipf(&table) < 10 {
                head += 1;
            }
        }
        // With theta=1.2 the first 10 of 100 elements carry well over half
        // of the probability mass.
        assert!(head > n / 2, "head draws = {head}");
    }

    #[test]
    fn zipf_sample_boundaries() {
        let table = ZipfTable::new(3, 1.0);
        assert_eq!(table.sample(0.0), 0);
        assert!(table.sample(0.999_999) < 3);
        assert_eq!(table.len(), 3);
    }
}
