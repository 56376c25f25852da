//! The benchmark's own seeded generator (xoshiro256** seeded through
//! splitmix64), so streams do not depend on any crate outside `paths`.

/// Deterministic 64-bit generator: the same seed gives the same stream.
#[derive(Debug, Clone)]
pub struct Prng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// A generator for `seed`; `stream` separates independent uses of one
    /// seed (data load vs operation stream) without correlating them.
    pub fn new(seed: u64, stream: u64) -> Prng {
        let mut sm = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        Prng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// The next 64 random bits.
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

    /// Uniform in `0..n` (`n > 0`), by widening multiply.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + self.below((hi - lo) as u64 + 1) as i64
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::new(42, 1);
        let mut b = Prng::new(42, 1);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn seeds_and_streams_differ() {
        let first = |seed, stream| Prng::new(seed, stream).next_u64();
        assert_ne!(first(42, 1), first(43, 1));
        assert_ne!(first(42, 1), first(42, 2));
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut r = Prng::new(7, 0);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
            let v = r.range(-5, 5);
            assert!((-5..=5).contains(&v));
        }
        // Every value of a small range is reached.
        let mut seen = [false; 11];
        for _ in 0..1_000 {
            seen[(r.range(-5, 5) + 5) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }
}
