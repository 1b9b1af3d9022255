//! SplitMix64 ([`lb_engine::splitmix`]) — the crate's only randomness
//! source.
//!
//! Std-only, allocation-free, and fully determined by its seed: the same
//! seed always replays the same hostile instance, which is what makes every
//! fuzz failure a one-line reproducer (`lb-chaos --family sat --seed N`).

/// A seeded SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a stream from a seed. Distinct seeds give independent-looking
    /// streams; the zero seed is fine.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        lb_engine::splitmix(&mut self.state)
    }

    /// Uniform in `0..n`; returns 0 when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform in `lo..=hi` (inclusive).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        debug_assert!(!items.is_empty());
        let i = self.below(items.len() as u64) as usize;
        // In range: callers pass non-empty slices (debug-asserted above).
        &items[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = Rng::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn bounds_respected() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.range(3, 5);
            assert!((3..=5).contains(&v));
        }
        assert_eq!(r.below(0), 0);
        assert!(!r.chance(0));
        assert!(r.chance(100));
    }
}
