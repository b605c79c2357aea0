//! Deterministic RNG fan-out.
//!
//! Every randomized component of the workspace takes a single `u64`
//! seed; per-node / per-component RNGs are derived with SplitMix64 so
//! streams are statistically independent yet fully reproducible.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 step — the standard 64-bit mixer (Steele, Lea, Flood).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the `index`-th independent `u64` sub-seed from a master
/// seed.
///
/// This is the scalar half of the workspace's seed-forking contract:
/// anything that needs a reproducible, decorrelated seed for the
/// `index`-th of many components — per-node RNGs ([`fork_rng`]), or
/// per-cell seeds in a parallel sweep grid — derives it with this
/// function. The derivation depends only on `(seed, index)`, never on
/// evaluation order, which is what makes parallel sweeps bit-identical
/// to sequential ones.
///
/// # Examples
///
/// ```
/// use radio_model::fork_seed;
///
/// // Same (seed, index) → same sub-seed, regardless of call order.
/// assert_eq!(fork_seed(42, 3), fork_seed(42, 3));
/// // Different indices → decorrelated sub-seeds.
/// assert_ne!(fork_seed(42, 3), fork_seed(42, 4));
/// ```
pub fn fork_seed(seed: u64, index: u64) -> u64 {
    let mut state = seed ^ 0xA076_1D64_78BD_642F_u64.wrapping_mul(index.wrapping_add(1));
    let s0 = splitmix64(&mut state);
    let s1 = splitmix64(&mut state);
    s0 ^ s1.rotate_left(32)
}

/// Derives the `index`-th independent RNG from a master seed.
///
/// `fork_rng(seed, i)` and `fork_rng(seed, j)` for `i != j` produce
/// decorrelated streams; the same `(seed, index)` always produces the
/// same stream. The seed material is [`fork_seed`]`(seed, index)`.
///
/// # Example
///
/// ```
/// use radio_model::fork_rng;
/// use rand::Rng;
///
/// let mut a = fork_rng(42, 0);
/// let mut b = fork_rng(42, 0);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// let mut c = fork_rng(42, 1);
/// assert_ne!(fork_rng(42, 0).gen::<u64>(), c.gen::<u64>());
/// ```
pub fn fork_rng(seed: u64, index: u64) -> SmallRng {
    SmallRng::seed_from_u64(fork_seed(seed, index))
}

/// `⌈p · 2⁵³⌉`, the integer form of a loss probability `p` in `[0, 1]`
/// for [`kept_mask`].
pub(crate) fn loss_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// `gen_bool(p)` on the same single draw, as a mask: all ones if the
/// delivery survives, 0 if it is lost. The vendored `rand` loses iff
/// `(draw >> 11) · 2⁻⁵³ < p`, which for the integer `draw >> 11` holds
/// iff `draw >> 11 < ⌈p · 2⁵³⌉` (`threshold` from [`loss_threshold`]).
/// The mask comes from the sign of the difference rather than from a
/// `bool`: a `bool`-driven grant compiled to a branch on the draw,
/// which mispredicts for about half the listeners at `p = 1/2`.
#[inline]
pub(crate) fn kept_mask(draw: u64, threshold: u64) -> u64 {
    !(((draw >> 11).wrapping_sub(threshold) as i64 >> 63) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic() {
        let xs: Vec<u64> = (0..8).map(|i| fork_rng(7, i).gen()).collect();
        let ys: Vec<u64> = (0..8).map(|i| fork_rng(7, i).gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn distinct_indices_distinct_streams() {
        let a: u64 = fork_rng(7, 0).gen();
        let b: u64 = fork_rng(7, 1).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let a: u64 = fork_rng(1, 0).gen();
        let b: u64 = fork_rng(2, 0).gen();
        assert_ne!(a, b);
    }

    #[test]
    fn fork_seed_matches_fork_rng() {
        // The RNG fork must be exactly the scalar fork fed to SmallRng,
        // so sweep cells seeded with `fork_seed` replay identically.
        let from_seed: u64 = SmallRng::seed_from_u64(fork_seed(7, 3)).gen();
        let from_rng: u64 = fork_rng(7, 3).gen();
        assert_eq!(from_seed, from_rng);
    }

    #[test]
    fn kept_mask_matches_gen_bool() {
        use rand::RngCore;
        for p in [0.0, 1e-300, 0.1, 0.3, 0.5, 0.75, 1.0 - f64::EPSILON] {
            let mut a = SmallRng::seed_from_u64(p.to_bits());
            let mut b = a.clone();
            let threshold = loss_threshold(p);
            for _ in 0..2000 {
                let kept = kept_mask(a.next_u64(), threshold);
                let lost = b.gen_bool(p);
                assert_eq!(kept, if lost { 0 } else { u64::MAX }, "p = {p}");
            }
        }
        // The boundary draws themselves: exactly at the threshold the
        // delivery survives, one below it is lost.
        let threshold = loss_threshold(0.5);
        assert_eq!(kept_mask(threshold << 11, threshold), u64::MAX);
        assert_eq!(kept_mask((threshold - 1) << 11, threshold), 0);
        // At p = 0 the threshold is 0 and no draw is lost, not even
        // the smallest or the largest.
        assert_eq!(loss_threshold(0.0), 0);
        for draw in [0, (1 << 11) - 1, 1 << 11, u64::MAX] {
            assert_eq!(kept_mask(draw, 0), u64::MAX, "draw = {draw:#x}");
        }
    }

    #[test]
    fn splitmix_reference_values() {
        // Reference vector from the SplitMix64 paper implementation
        // with seed 0x0: first output.
        let mut s = 0u64;
        let v = splitmix64(&mut s);
        assert_eq!(v, 0xE220_A839_7B1D_CDAF);
    }
}
