//! # dprep-rng
//!
//! The workspace's only source of randomness: a small, fully deterministic
//! PRNG with no external dependencies, so `cargo build` works offline.
//!
//! Every stochastic decision in the simulator, the dataset generators, and
//! the ML baselines is drawn from an [`Rng`] seeded either directly
//! ([`Rng::seed_from_u64`]) or from a stable content hash ([`rng_for`]) —
//! identical inputs always yield identical behaviour, and changing a single
//! character of the content reshuffles the noise (like resampling a real
//! API).
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna), seeded through a
//! splitmix64 expansion; both are public-domain algorithms with excellent
//! statistical quality for simulation workloads.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a hash of `bytes`, mixed with `seed`.
pub fn stable_hash(seed: u64, bytes: &[u8]) -> u64 {
    let mut hasher = StableHasher::new(seed);
    hasher.write(bytes);
    hasher.finish()
}

/// The streaming form of [`stable_hash`]: feeding the same bytes in any
/// number of [`write`](Self::write) calls yields the same value as one
/// `stable_hash` over their concatenation. It also implements
/// [`std::fmt::Write`], so `write!(hasher, …)` hashes formatted text
/// without building the string. `Clone` snapshots the state, letting a
/// caller hash a shared prefix once and finish many suffixes from it.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// A hasher seeded like `stable_hash(seed, …)`.
    pub fn new(seed: u64) -> Self {
        StableHasher {
            state: FNV_OFFSET ^ seed,
        }
    }

    /// Feeds `bytes` into the FNV-1a state.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.state;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.state = h;
    }

    /// The hash of everything written so far. Does not consume the state.
    pub fn finish(&self) -> u64 {
        // Final avalanche (splitmix64 finalizer) so similar strings diverge.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl std::fmt::Write for StableHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// splitmix64 step: expands a 64-bit seed into a stream of well-mixed words.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256\*\* generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator from a single 64-bit value (splitmix64 expansion,
    /// the standard recommendation for xoshiro seeding).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` (53 mantissa bits).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// A uniform `usize` in `[lo, hi)`. Panics when the range is empty, like
    /// an out-of-bounds index would.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.bounded((hi - lo) as u64) as usize
    }

    /// A uniform integer in the half-open range `[lo, hi)`. Panics when the
    /// range is empty.
    pub fn range<T: RangeInt>(&mut self, lo: T, hi: T) -> T {
        let (lo_w, hi_w) = (lo.to_i128(), hi.to_i128());
        assert!(lo_w < hi_w, "empty range {lo_w}..{hi_w}");
        T::from_i128(lo_w + self.bounded((hi_w - lo_w) as u64) as i128)
    }

    /// A uniform integer in the closed range `[lo, hi]`. Panics when
    /// `lo > hi`.
    pub fn range_incl<T: RangeInt>(&mut self, lo: T, hi: T) -> T {
        let (lo_w, hi_w) = (lo.to_i128(), hi.to_i128());
        assert!(lo_w <= hi_w, "empty range {lo_w}..={hi_w}");
        T::from_i128(lo_w + self.bounded((hi_w - lo_w + 1) as u64) as i128)
    }

    /// A uniform `u64` in `[0, bound)` via Lemire's multiply-shift with a
    /// rejection step (unbiased).
    fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(0, i + 1);
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` for an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.range_usize(0, slice.len())])
        }
    }

    /// A standard-normal sample via Box–Muller.
    pub fn gaussian(&mut self) -> f64 {
        let u1: f64 = self.range_f64(f64::EPSILON, 1.0);
        let u2: f64 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A random ASCII string of length `len` drawn from `alphabet`
    /// (test-data generation helper; panics on an empty alphabet).
    pub fn ascii_string(&mut self, alphabet: &[u8], len: usize) -> String {
        (0..len)
            .map(|_| *self.choose(alphabet).expect("nonempty alphabet") as char)
            .collect()
    }
}

/// Integer types usable with [`Rng::range`] / [`Rng::range_incl`]. All
/// in-tree ranges span far fewer than 2^64 values, which keeps the bounded
/// sampling exact.
pub trait RangeInt: Copy {
    /// Widens the value for range arithmetic.
    fn to_i128(self) -> i128;
    /// Narrows an in-range value back (the result of `lo + bounded(span)` is
    /// always representable).
    fn from_i128(v: i128) -> Self;
}

macro_rules! impl_range_int {
    ($($ty:ty),*) => {
        $(impl RangeInt for $ty {
            fn to_i128(self) -> i128 {
                self as i128
            }
            fn from_i128(v: i128) -> Self {
                v as $ty
            }
        })*
    };
}

impl_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// An RNG seeded from `(seed, content)`.
pub fn rng_for(seed: u64, content: &str) -> Rng {
    Rng::seed_from_u64(stable_hash(seed, content.as_bytes()))
}

/// A standard-normal sample (free-function form kept for call-site
/// compatibility with the original `dprep-llm::rng` module).
pub fn gaussian(rng: &mut Rng) -> f64 {
    rng.gaussian()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_hash_is_stable_and_sensitive() {
        assert_eq!(stable_hash(1, b"abc"), stable_hash(1, b"abc"));
        assert_ne!(stable_hash(1, b"abc"), stable_hash(1, b"abd"));
        assert_ne!(stable_hash(1, b"abc"), stable_hash(2, b"abc"));
    }

    /// Values pinned from the one-shot implementation: plan fingerprints,
    /// journal entries and cache keys are all built on this hash, so a
    /// change here breaks journal resume across versions.
    #[test]
    fn stable_hash_values_are_pinned() {
        const PINNED: [(u64, &[u8], u64); 4] = [
            (0, b"", 0xf52a_15e9_a9b5_e89b),
            (0, b"abc", 0x0dd4_9049_0804_b508),
            (0x00ca_c4e0, b"sim-gpt-4|0.65|0|", 0xc9f9_12f5_66d9_c930),
            (7, "prompt \u{e9}\u{2603}".as_bytes(), 0x8038_f7d4_b557_321d),
        ];
        for (seed, bytes, want) in PINNED {
            assert_eq!(
                stable_hash(seed, bytes),
                want,
                "stable_hash({seed}, {bytes:?}) changed: journals and caches \
                 written by earlier versions would no longer resume"
            );
        }
    }

    #[test]
    fn streaming_hasher_matches_one_shot_at_every_split() {
        use std::fmt::Write;
        let mut rng = Rng::seed_from_u64(11);
        for len in 0..64 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let want = stable_hash(len as u64, &bytes);
            for split in 0..=len {
                let mut h = StableHasher::new(len as u64);
                h.write(&bytes[..split]);
                let snapshot = h;
                h.write(&bytes[split..]);
                assert_eq!(h.finish(), want);
                // A cloned prefix state finishes independently.
                let mut again = snapshot;
                again.write(&bytes[split..]);
                assert_eq!(again.finish(), want);
            }
        }
        let mut h = StableHasher::new(3);
        let (model, temperature, salt) = ("m", 0.75, 9u64);
        write!(h, "{model}|{temperature}|{salt}").unwrap();
        assert_eq!(h.finish(), stable_hash(3, b"m|0.75|9"));
    }

    #[test]
    fn rng_reproducible() {
        let mut a = rng_for(7, "prompt");
        let mut b = rng_for(7, "prompt");
        assert_eq!(a.f64(), b.f64());
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x), "x = {x}");
        }
    }

    #[test]
    fn range_usize_covers_and_stays_in_bounds() {
        let mut rng = Rng::seed_from_u64(4);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.range_usize(0, 5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1_000 {
            let x = rng.range_usize(2, 4);
            assert!((2..4).contains(&x));
        }
    }

    #[test]
    fn bounded_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(5);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.range_usize(0, 10)] += 1;
        }
        for &c in &counts {
            let f = c as f64 / n as f64;
            assert!((f - 0.1).abs() < 0.01, "bucket fraction {f}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(6);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        // With 50 elements an identity shuffle is vanishingly unlikely.
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_none_on_empty() {
        let mut rng = Rng::seed_from_u64(7);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        assert!(rng.choose(&[42]).is_some());
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = rng_for(0, "gaussian-test");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.1, "var = {var}");
    }

    #[test]
    fn generic_ranges_respect_bounds() {
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..1_000 {
            let x = rng.range(17i64, 91);
            assert!((17..91).contains(&x));
            let y = rng.range_incl(0u8, 25);
            assert!(y <= 25);
            let z = rng.range_incl(-5i32, -5);
            assert_eq!(z, -5);
        }
    }

    #[test]
    fn bool_tracks_probability() {
        let mut rng = Rng::seed_from_u64(8);
        let hits = (0..100_000).filter(|_| rng.bool(0.3)).count();
        let f = hits as f64 / 100_000.0;
        assert!((f - 0.3).abs() < 0.01, "f = {f}");
    }
}
