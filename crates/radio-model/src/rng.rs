//! Deterministic RNG fan-out.
//!
//! Every randomized component of the workspace takes a single `u64`
//! seed; per-node / per-component RNGs are derived with SplitMix64 so
//! streams are statistically independent yet fully reproducible. The
//! routing runner holds its fault stream as a [`Stream`], the same
//! generator with a jump ahead over draws nobody reads.

use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

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

/// The xoshiro256++ stream of [`fork_rng`], with a jump ahead: the
/// adaptive-routing runner's shared fault stream.
///
/// `Stream::fork(seed, i)` yields word for word what `fork_rng(seed, i)`
/// yields, and [`Stream::discard`] skips draws whose values nobody
/// reads without computing them. The vendored `rand` keeps a
/// generator's state private, so the jump needs a type of its own.
pub(crate) struct Stream {
    s: [u64; 4],
}

impl Stream {
    /// The stream of `fork_rng(seed, index)`: SplitMix64 over
    /// [`fork_seed`], as `SmallRng::seed_from_u64` seeds it.
    pub(crate) fn fork(seed: u64, index: u64) -> Self {
        let mut state = fork_seed(seed, index);
        Stream {
            s: [
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
                splitmix64(&mut state),
            ],
        }
    }

    /// xoshiro256++'s state update `T`, which is linear over GF(2).
    #[inline]
    fn step(&mut self) {
        let s = &mut self.s;
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
    }

    /// Skips `n` draws, leaving the state that `n` calls of `next_u64`
    /// would leave: `n mod 64` single steps, then one multiply by
    /// `T^(64·2^j)` for each set bit `j` of `n / 64`.
    #[inline]
    pub(crate) fn discard(&mut self, n: u64) {
        for _ in 0..n % 64 {
            self.step();
        }
        if n >= 64 {
            self.s = Jump::blocks(self.s, n / 64);
        }
    }
}

impl RngCore for Stream {
    /// xoshiro256++'s output, as the vendored `SmallRng` computes it.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        self.step();
        result
    }
}

/// Levels of [`Jump`] tables: `n / 64 < 2⁵⁸` for every `u64` count.
const JUMP_LEVELS: usize = 58;

/// The jump tables, each built on first use from the level below it.
static JUMPS: [OnceLock<Box<Jump>>; JUMP_LEVELS] = [const { OnceLock::new() }; JUMP_LEVELS];

/// A power `M` of xoshiro256++'s update matrix, as 64 nibble slices of
/// 16 states each (32 KiB): `slices[i][v]` is `M` applied to the state
/// whose only set bits are `v` at nibble `i` (bits `4i..4i + 4`). By
/// linearity, `M · s` is the XOR of one entry per nibble of `s`.
struct Jump {
    slices: [[[u64; 4]; 16]; 64],
}

impl Jump {
    /// `T^(64·2^level)`: level 0 steps every basis state 64 times,
    /// and each level above squares the one below it.
    fn level(level: usize) -> &'static Jump {
        JUMPS[level].get_or_init(|| {
            let below = level.checked_sub(1).map(Jump::level);
            let columns: Vec<[u64; 4]> = (0..256)
                .map(|bit| {
                    let mut s = [0u64; 4];
                    s[bit / 64] = 1 << (bit % 64);
                    match below {
                        Some(m) => m.apply(&m.apply(&s)),
                        None => {
                            let mut stream = Stream { s };
                            for _ in 0..64 {
                                stream.step();
                            }
                            stream.s
                        }
                    }
                })
                .collect();
            Jump::from_columns(&columns)
        })
    }

    /// `T^(64·blocks) · s`: one multiply per set bit of `blocks`.
    // Out of line, with the state passed in and out by value, so that
    // a caller's stream never has its address taken and stays in
    // registers through its draw loops.
    #[inline(never)]
    fn blocks(mut s: [u64; 4], mut blocks: u64) -> [u64; 4] {
        while blocks != 0 {
            s = Jump::level(blocks.trailing_zeros() as usize).apply(&s);
            blocks &= blocks - 1;
        }
        s
    }

    /// The tables of the matrix whose column `b` (its image of the
    /// state with only bit `b` set) is `columns[b]`.
    fn from_columns(columns: &[[u64; 4]]) -> Box<Jump> {
        let mut jump = Box::new(Jump {
            slices: [[[0; 4]; 16]; 64],
        });
        for (slice, bits) in jump.slices.iter_mut().zip(columns.chunks_exact(4)) {
            for v in 1..16usize {
                let (rest, low) = (v & (v - 1), bits[v.trailing_zeros() as usize]);
                slice[v] = std::array::from_fn(|w| slice[rest][w] ^ low[w]);
            }
        }
        jump
    }

    /// `M · s`.
    // Each word's nibbles are shifted out in turn, so the loop unrolls
    // into loads at fixed offsets; indexing nibble `i` as
    // `s[i / 16] >> 4 * (i % 16)` made a multiply about 40% slower.
    fn apply(&self, s: &[u64; 4]) -> [u64; 4] {
        let mut out = [0u64; 4];
        for (&word, slices) in s.iter().zip(self.slices.chunks_exact(16)) {
            let mut nibbles = word;
            for slice in slices {
                let entry = &slice[(nibbles & 15) as usize];
                for (o, e) in out.iter_mut().zip(entry) {
                    *o ^= e;
                }
                nibbles >>= 4;
            }
        }
        out
    }
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
    fn stream_yields_the_words_of_fork_rng() {
        for seed in [0, 1, 42, u64::MAX] {
            for index in [0, 1, 7, 1 << 63] {
                let (mut stream, mut rng) = (Stream::fork(seed, index), fork_rng(seed, index));
                for draw in 0..5000 {
                    let want = rng.next_u64();
                    assert_eq!(stream.next_u64(), want, "({seed}, {index}), draw {draw}");
                }
            }
        }
    }

    /// The `n`s at and around each `64·2^j` up to 2²⁰, so that every
    /// table level up to 14 is used alone and beside the single steps.
    fn jump_points() -> Vec<u64> {
        let mut points: Vec<u64> = (0..=14)
            .map(|j| 64 << j)
            .flat_map(|n: u64| [n - 1, n, n + 1, n + 63, n + 64])
            .collect();
        // And a few counts that set many bits at once.
        let mut rng = SmallRng::seed_from_u64(5);
        points.extend((0..6).map(|_| rng.next_u64() % (1 << 20)));
        points.extend([0, 1, 63, (1 << 20) - 1, 1 << 20]);
        points.sort_unstable();
        points
    }

    #[test]
    fn discard_matches_stepping() {
        let points = jump_points();
        for (seed, index) in [(3, 1), (u64::MAX, 0)] {
            // One reference walks the whole way; each jump starts fresh.
            let mut reference = fork_rng(seed, index);
            let mut drawn = 0u64;
            for &n in &points {
                while drawn < n {
                    reference.next_u64();
                    drawn += 1;
                }
                let mut want = reference.clone();
                let mut stream = Stream::fork(seed, index);
                stream.discard(n);
                for draw in 0..3 {
                    assert_eq!(stream.next_u64(), want.next_u64(), "n = {n}, draw {draw}");
                }
            }
        }
    }

    #[test]
    fn discards_add_up() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut pairs: Vec<(u64, u64)> = vec![
            (0, 0),
            (64, 64),
            (1 << 40, 1 << 40),
            (u64::MAX / 2, u64::MAX / 2),
        ];
        pairs.extend((0..8).map(|_| (rng.next_u64() >> 1, rng.next_u64() >> 1)));
        pairs.extend((0..8).map(|_| (rng.next_u64() % 5000, rng.next_u64() % 5000)));
        for (a, b) in pairs {
            let (mut split, mut whole) = (Stream::fork(11, 1), Stream::fork(11, 1));
            split.discard(a);
            split.discard(b);
            whole.discard(a + b);
            assert_eq!(split.next_u64(), whole.next_u64(), "{a} + {b}");
        }
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
