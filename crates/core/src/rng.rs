//! A small deterministic PRNG shared by the whole workspace.
//!
//! The environment must run with **no network access** (the tier-1 verify
//! builds offline), so anything that needs randomness — the DECT channel
//! substitute, fault-plan sampling, the seeded equivalence tests, the
//! benchmark stimuli — uses this in-tree xorshift64* generator instead of
//! an external `rand` dependency. Determinism is a feature, not a
//! compromise: every burst, fault campaign and randomized test is exactly
//! reproducible from its seed, which is what a regression flow wants.

/// A xorshift64* pseudo-random generator (Vigna 2016).
///
/// Deterministic, seedable, `Copy`-cheap. Not cryptographic — it exists
/// for reproducible stimuli and fault sampling.
///
/// ```
/// use ocapi::rng::XorShift64;
///
/// let mut a = XorShift64::new(42);
/// let mut b = XorShift64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator from a seed. A zero seed is remapped (the
    /// all-zero state is a fixed point of xorshift).
    pub fn new(seed: u64) -> XorShift64 {
        XorShift64 {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A uniform value in `0..bound` (`bound` of 0 returns 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// A uniform `usize` index in `0..len` (for picking from a slice).
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// A uniform boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits, the standard bits-to-double recipe.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A decorrelated per-shard stream: generator number `index` of the
    /// family seeded by `base`.
    ///
    /// The sharded execution engine ([`crate::sim::par`]) gives every
    /// work item its own PRNG stream derived from `(base, index)` so
    /// that results never depend on which worker thread runs the item —
    /// the foundation of its bit-identical-for-any-thread-count
    /// contract. The derivation runs the seed material through two
    /// rounds of the splitmix64 finalizer, so neighbouring indices land
    /// on well-separated xorshift states.
    ///
    /// ```
    /// use ocapi::rng::XorShift64;
    ///
    /// let a = XorShift64::stream(42, 0).next_u64();
    /// let b = XorShift64::stream(42, 1).next_u64();
    /// assert_ne!(a, b);
    /// assert_eq!(a, XorShift64::stream(42, 0).next_u64());
    /// ```
    pub fn stream(base: u64, index: u64) -> XorShift64 {
        let mut z = base
            .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(0x9e37_79b9_7f4a_7c15);
        for _ in 0..2 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
        }
        XorShift64::new(z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShift64::new(7);
        let mut b = XorShift64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = XorShift64::new(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShift64::new(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, 0);
        assert_ne!(x, y);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = XorShift64::new(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        // Same (base, index) → same stream; different index or base →
        // different stream, including the adversarial base = 0 cases.
        for base in [0u64, 1, 42, u64::MAX] {
            let mut seen = std::collections::HashSet::new();
            for index in 0..64 {
                let mut a = XorShift64::stream(base, index);
                let mut b = XorShift64::stream(base, index);
                let first = a.next_u64();
                assert_eq!(first, b.next_u64());
                assert!(seen.insert(first), "stream collision at index {index}");
            }
        }
    }

    #[test]
    fn f64_in_unit_interval_and_balanced() {
        let mut r = XorShift64::new(5);
        let mut sum = 0.0;
        for _ in 0..4096 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 4096.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }
}
