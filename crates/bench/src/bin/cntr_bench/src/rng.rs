//! Seeded input generation: a SplitMix64 stream and a Zipf sampler.
//!
//! Every input the benchmark feeds the system comes from here, so one
//! `--seed` fixes the tree, the draws, the offsets and the file bytes.

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    /// An independent stream for one purpose (`tag`) under the same seed,
    /// so adding draws to one stream never shifts another.
    pub fn derive(seed: u64, tag: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Fisher-Yates, in place.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// An operation mix drawn without replacement: every `n` draws, where `n`
/// is the mix's total weight, hold each kind exactly its weight's times,
/// in seeded order. A run's mix is then exact, so runs under different
/// seeds differ in which inputs they touch, not in how many operations of
/// each kind they issue — the spread between seeds measures the system.
pub struct Deck<T> {
    cards: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    pub fn new(mix: &[(T, usize)]) -> Deck<T> {
        Deck {
            cards: mix
                .iter()
                .flat_map(|&(kind, weight)| std::iter::repeat_n(kind, weight))
                .collect(),
            next: 0,
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == 0 {
            rng.shuffle(&mut self.cards);
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % self.cards.len();
        card
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup: rank 0 is the hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::derive(7, 1).next_u64(), Rng::derive(7, 2).next_u64());
        assert_ne!(Rng::derive(7, 1).next_u64(), Rng::derive(8, 1).next_u64());
    }

    #[test]
    fn deck_deals_its_exact_mix_every_round() {
        let mut deck = Deck::new(&[('a', 3), ('b', 1)]);
        let mut rng = Rng::new(5);
        let mut rounds = Vec::new();
        for _ in 0..8 {
            let mut round: Vec<char> = (0..4).map(|_| deck.draw(&mut rng)).collect();
            rounds.push(round.clone());
            round.sort_unstable();
            assert_eq!(round, ['a', 'a', 'a', 'b']);
        }
        assert!(rounds.windows(2).any(|w| w[0] != w[1]), "order is seeded");
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 0.9);
        let mut rng = Rng::new(1);
        let mut hot = 0;
        for _ in 0..10_000 {
            if z.sample(&mut rng) < 10 {
                hot += 1;
            }
        }
        // Zipf(0.9) over 1000 ranks puts ~27% of the mass on the top 10.
        assert!((2000..3500).contains(&hot), "{hot}");
    }
}
