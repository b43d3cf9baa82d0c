//! Deterministic random-number plumbing.
//!
//! Every stochastic component in the workspace (weather process, random
//! benchmark generator, DBN weight initialisation, prediction noise) draws
//! from a [`rand_chacha::ChaCha8Rng`] seeded through this module, so that
//! every experiment is exactly reproducible across runs and platforms.

use std::fmt;

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The deterministic RNG used throughout the workspace.
pub type DetRng = ChaCha8Rng;

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Example
///
/// ```
/// use helio_common::rng::{seeded, DetRng};
/// use rand::Rng;
///
/// let mut a: DetRng = seeded(42);
/// let mut b: DetRng = seeded(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded(seed: u64) -> DetRng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// Derives an independent child RNG from a parent seed and a stream label.
///
/// Splitting by label keeps unrelated stochastic components (e.g. the
/// weather process vs. the forecast-noise process) statistically
/// independent while remaining reproducible, and insulates each stream
/// from changes in how many samples the others draw.
pub fn derive(seed: u64, label: &str) -> DetRng {
    let mut h = Fnv1a::default();
    h.eat(label);
    ChaCha8Rng::seed_from_u64(seed ^ h.0)
}

/// [`derive()`] with the label given as format arguments, for labels
/// built per draw: the label's bytes are hashed as they are formatted,
/// so no `String` is built. `derive_fmt(seed, format_args!(..))` is
/// `derive(seed, &format!(..))`, stream for stream.
pub fn derive_fmt(seed: u64, label: fmt::Arguments<'_>) -> DetRng {
    let mut h = Fnv1a::default();
    // The sink never fails. A `Display` impl that returns an error
    // makes `format!` panic; here it ends the label early instead.
    let _ = fmt::write(&mut h, label);
    ChaCha8Rng::seed_from_u64(seed ^ h.0)
}

/// FNV-1a over a label's bytes, mixed into the seed by the derivers.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn eat(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.eat(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn seeded_is_deterministic() {
        let xs: Vec<u32> = (0..8).map(|_| seeded(7).gen()).collect();
        assert!(xs.windows(2).all(|w| w[0] == w[1]));
        let mut rng = seeded(7);
        let a: u32 = rng.gen();
        let b: u32 = rng.gen();
        assert_ne!(a, b, "stream should advance");
    }

    #[test]
    fn derive_streams_differ_by_label() {
        let a: u64 = derive(1, "weather").gen();
        let b: u64 = derive(1, "forecast").gen();
        assert_ne!(a, b);
    }

    #[test]
    fn derive_streams_differ_by_seed() {
        let a: u64 = derive(1, "weather").gen();
        let b: u64 = derive(2, "weather").gen();
        assert_ne!(a, b);
    }

    /// `derive_fmt` on format arguments draws the stream `derive`
    /// draws on the formatted label, for every seed in the table.
    macro_rules! assert_same_stream {
        ($($fmt:tt)*) => {
            for seed in [0_u64, 5, 0x5eed, u64::MAX] {
                let label = format!($($fmt)*);
                let mut a = derive(seed, &label);
                let mut b = derive_fmt(seed, format_args!($($fmt)*));
                let xs: Vec<u64> = (0..40).map(|_| a.gen()).collect();
                let ys: Vec<u64> = (0..40).map(|_| b.gen()).collect();
                assert_eq!(xs, ys, "label {label:?}, seed {seed}");
            }
        };
    }

    #[test]
    fn derive_fmt_draws_derives_stream() {
        let (idx, day) = (17_usize, 3_usize);
        assert_same_stream!("oracle-{idx}-{day}");
        assert_same_stream!("oracle-{}-{}", 0, 0);
        assert_same_stream!("oracle-{}-{}", usize::MAX, 9);
        assert_same_stream!("");
        assert_same_stream!("weather");
        assert_same_stream!("{}-é-{:.3}-{:>6}", "mix", 1.5, idx);
    }

    #[test]
    fn derive_is_reproducible() {
        let a: u64 = derive(9, "bench").gen();
        let b: u64 = derive(9, "bench").gen();
        assert_eq!(a, b);
    }
}
