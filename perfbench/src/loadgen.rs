//! Seeded load generation: arrival schedules, key distributions and the
//! open-loop pacer.
//!
//! Everything here is a pure function of the workload seed, so the same
//! `--seed` replays the same arrivals and keys.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own generator for schedules and keys (kept
/// apart from the program's RNG so the program sees only generated inputs).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// An independent seed for the stream `tag` of workload seed `seed`.
pub fn derive(seed: u64, tag: &str) -> u64 {
    // FNV-1a over the tag, folded into the seed and diffused.
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    for b in tag.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
    }
    SplitMix64::new(seed ^ h).next_u64()
}

/// Poisson arrival offsets at `rate` per second over `span`: exponential
/// gaps, first arrival one gap after zero.
pub fn poisson_offsets(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity((rate * span.as_secs_f64() * 1.1) as usize + 8);
    let mut t = 0.0_f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Zipf(`s`) over `0..n`, ranked through a seeded permutation so the hot
/// keys are spread over the id space.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    /// Zipf with exponent `s` over `n ≥ 1` keys, permuted by `perm_seed`.
    pub fn new(n: usize, s: f64, perm_seed: u64) -> Self {
        assert!(n >= 1, "Zipf over an empty key space");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        cdf.iter_mut().for_each(|c| *c /= acc);
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut rng = SplitMix64::new(perm_seed);
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        Self { cdf, perm }
    }

    /// One key.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
        self.perm[rank] as usize
    }
}

/// How long before a due time the pacer stops sleeping and spins: covers
/// the kernel's timer slack on `thread::sleep`.
pub const SPIN: Duration = Duration::from_micros(100);

/// Waits until `due`: sleeps most of the way, then busy-spins over the
/// last [`SPIN`], so a send is not late by a sleep's overshoot. (Yielding
/// while spinning would hand the core to a busy thread for a whole time
/// slice.)
/// Returns how late the pacer itself made the send, or `None` when `due`
/// had already passed on entry (the caller was busy: that delay is the
/// system's, charged to the request's latency, not to the generator).
pub fn pace_until(due: Instant) -> Option<Duration> {
    let now = Instant::now();
    if now >= due {
        return None;
    }
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    Some(Instant::now().saturating_duration_since(due))
}

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_keys() {
        let span = Duration::from_secs(2);
        let a = poisson_offsets(derive(7, "point-0"), 500.0, span);
        let b = poisson_offsets(derive(7, "point-0"), 500.0, span);
        assert_eq!(a, b);
        assert_ne!(a, poisson_offsets(derive(8, "point-0"), 500.0, span));
        assert_ne!(a, poisson_offsets(derive(7, "point-1"), 500.0, span));
        // ~rate × span arrivals, sorted, inside the span.
        assert!((900..1100).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|&t| t < span));

        let z1 = Zipf::new(500, 1.0, derive(7, "perm"));
        let z2 = Zipf::new(500, 1.0, derive(7, "perm"));
        let keys = |z: &Zipf, seed| {
            let mut rng = SplitMix64::new(seed);
            (0..1000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(keys(&z1, 3), keys(&z2, 3));
        assert_ne!(keys(&z1, 3), keys(&z1, 4));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let n = 1000;
        let z = Zipf::new(n, 1.0, 1);
        let mut rng = SplitMix64::new(2);
        let mut counts = vec![0usize; n];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Rank 1 of Zipf(1) over 1000 keys has mass 1/H_1000 ≈ 13%.
        let top = *counts.iter().max().unwrap() as f64 / 100_000.0;
        assert!((0.11..0.15).contains(&top), "top key share {top}");
        assert_eq!(counts[z.perm[0] as usize], *counts.iter().max().unwrap());
    }

    #[test]
    fn below_and_unit_interval() {
        let mut rng = SplitMix64::new(9);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn pacer_is_not_early() {
        let due = Instant::now() + Duration::from_millis(2);
        let late = pace_until(due).expect("due was in the future");
        assert!(Instant::now() >= due);
        assert!(late < Duration::from_millis(50));
        assert_eq!(pace_until(due), None, "a past due time is not the pacer's lag");
    }
}
