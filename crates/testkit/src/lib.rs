//! # setrules-testkit
//!
//! A deterministic pseudo-random generator ([`Rng`]) and a minimal
//! property-testing harness ([`check`]) used by the workspace's
//! randomized tests. It replaces the external `proptest`/`rand` crates,
//! which are unavailable in the offline build environment.
//!
//! Every case is derived from a fixed base seed, so failures are
//! reproducible byte-for-byte: the harness panics with the failing case
//! index and per-case seed, and [`check_seed`] reruns exactly one case.
//! There is no shrinking — generators here are kept small enough that a
//! raw counterexample is readable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A splitmix64-seeded xorshift64* generator: tiny, fast, and plenty
/// random for test-case generation. Not for cryptography.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Create a generator from a seed. Any seed (including 0) is fine;
    /// it is pre-mixed through splitmix64.
    pub fn new(seed: u64) -> Rng {
        // splitmix64 step guarantees a non-zero, well-mixed state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Rng { state: z | 1 }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`. `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "Rng::below requires a non-zero bound");
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi);
        let span = (hi as i128 - lo as i128 + 1) as u128;
        lo.wrapping_add((self.next_u64() as u128 % span) as i64)
    }

    /// `true` with probability `num/denom`.
    pub fn chance(&mut self, num: u32, denom: u32) -> bool {
        assert!(denom > 0);
        (self.next_u64() % denom as u64) < num as u64
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Pick a reference to a random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Clone a random element of a non-empty slice.
    pub fn pick_cloned<T: Clone>(&mut self, items: &[T]) -> T {
        self.pick(items).clone()
    }

    /// Fork an independent generator (for sub-structures that should not
    /// perturb the parent's stream).
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// Run `cases` instances of a property. Each case gets an [`Rng`] seeded
/// from `base_seed` and the case index; a panic inside the property is
/// re-raised wrapped with the case index and per-case seed so it can be
/// replayed via [`check_seed`].
pub fn check(name: &str, cases: u32, base_seed: u64, mut property: impl FnMut(&mut Rng)) {
    for case in 0..cases {
        let seed = case_seed(base_seed, case);
        let mut rng = Rng::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "property '{name}' failed at case {case}/{cases} \
                 (replay with check_seed(\"{name}\", {seed:#x}, ..)): {msg}"
            );
        }
    }
}

/// Replay a single property case with an exact seed (as printed by a
/// [`check`] failure).
pub fn check_seed(name: &str, seed: u64, mut property: impl FnMut(&mut Rng)) {
    let mut rng = Rng::new(seed);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        property(&mut rng);
    }));
    if result.is_err() {
        panic!("property '{name}' failed for seed {seed:#x}");
    }
}

fn case_seed(base: u64, case: u32) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(case as u64)
        .rotate_left(17)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = { let mut r = Rng::new(42); (0..8).map(|_| r.next_u64()).collect() };
        let b: Vec<u64> = { let mut r = Rng::new(42); (0..8).map(|_| r.next_u64()).collect() };
        let c: Vec<u64> = { let mut r = Rng::new(43); (0..8).map(|_| r.next_u64()).collect() };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_and_range_respect_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            assert!(r.below(10) < 10);
            let v = r.range_i64(-5, 5);
            assert!((-5..=5).contains(&v));
            let f = r.unit_f64();
            assert!((0.0..1.0).contains(&f));
        }
        // below(1) must always be 0.
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn below_covers_all_residues() {
        let mut r = Rng::new(1);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[r.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit: {seen:?}");
    }

    #[test]
    fn check_runs_all_cases() {
        let mut count = 0;
        check("counting", 25, 99, |_rng| {
            count += 1;
        });
        assert_eq!(count, 25);
    }

    #[test]
    fn check_reports_case_and_seed() {
        let result = std::panic::catch_unwind(|| {
            check("always_fails", 3, 1, |_rng| {
                panic!("boom");
            });
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("always_fails"), "{msg}");
        assert!(msg.contains("case 0/3"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn pick_only_returns_members() {
        let mut r = Rng::new(3);
        let items = ["a", "b", "c"];
        for _ in 0..100 {
            assert!(items.contains(r.pick(&items)));
        }
    }
}
