//! A small deterministic PRNG.
//!
//! Every experiment in this repository must be reproducible from a seed, so
//! rather than depending on platform entropy we carry our own PCG-XSH-RR
//! 64/32 generator (O'Neill 2014).  It is fast, statistically solid for this
//! purpose, and — unlike `rand`'s `StdRng` — its output sequence is fixed by
//! this crate rather than by a dependency version.

const MULTIPLIER: u64 = 6364136223846793005;

/// PCG-XSH-RR 64/32: 64 bits of state, 32 bits of output per step.
///
/// ```
/// use cbi_sampler::Pcg32;
/// let mut a = Pcg32::new(7);
/// let mut b = Pcg32::new(7);
/// assert_eq!(a.next_u32(), b.next_u32()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

impl Pcg32 {
    /// Creates a generator from a seed, using the PCG default stream.
    pub fn new(seed: u64) -> Self {
        Self::with_stream(seed, 0xda3e_39cb_94b9_5bdb)
    }

    /// Creates a generator on an explicit stream; generators with different
    /// streams produce uncorrelated sequences even from the same seed.
    pub fn with_stream(seed: u64, stream: u64) -> Self {
        let inc = (stream << 1) | 1;
        let mut rng = Pcg32 { state: 0, inc };
        // Standard PCG initialization: advance once, add seed, advance again.
        rng.step();
        rng.state = rng.state.wrapping_add(seed);
        rng.step();
        rng
    }

    fn step(&mut self) {
        self.state = self.state.wrapping_mul(MULTIPLIER).wrapping_add(self.inc);
    }

    /// Returns the next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.step();
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        let hi = self.next_u32() as u64;
        let lo = self.next_u32() as u64;
        (hi << 32) | lo
    }

    /// Returns a uniform `f64` in the half-open interval `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random bits scaled into [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in the open interval `(0, 1]`, suitable as
    /// input to `ln` without risking `ln(0)`.
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Returns a uniform integer in `[0, n)`, like the paper's `rnd(n)`.
    ///
    /// Uses Lemire-style rejection to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Rejection sampling over the top 64 bits keeps the result unbiased.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Splits off an independent child generator, advancing `self`.
    #[cfg(test)]
    fn fork(&mut self) -> Pcg32 {
        let seed = self.next_u64();
        let stream = self.next_u64();
        Pcg32::with_stream(seed, stream)
    }

    /// Fills a byte buffer with random data, 4 bytes per generator step.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let bytes = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Pcg32::new(123);
        let mut b = Pcg32::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg32::new(1);
        let mut b = Pcg32::new(2);
        let av: Vec<u32> = (0..8).map(|_| a.next_u32()).collect();
        let bv: Vec<u32> = (0..8).map(|_| b.next_u32()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn different_streams_differ() {
        let mut a = Pcg32::with_stream(1, 10);
        let mut b = Pcg32::with_stream(1, 11);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg32::new(99);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_open_never_zero() {
        let mut rng = Pcg32::new(7);
        for _ in 0..10_000 {
            let x = rng.next_f64_open();
            assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    fn below_respects_bound_and_covers_range() {
        let mut rng = Pcg32::new(5);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Pcg32::new(2024);
        let n = 8u64;
        let trials = 80_000;
        let mut counts = vec![0u64; n as usize];
        for _ in 0..trials {
            counts[rng.below(n) as usize] += 1;
        }
        let expected = trials as f64 / n as f64;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket off by {dev}");
        }
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = Pcg32::new(42);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn fill_bytes_fills_unaligned_lengths() {
        let mut rng = Pcg32::new(3);
        let mut buf = [0u8; 7];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn below_zero_panics() {
        let mut rng = Pcg32::new(1);
        let _ = rng.below(0);
    }
}
