//! The host-speed reference: a fixed radio-like sweep written in this
//! file alone, so no change to the workspace crates can alter its work.
//!
//! Decay-style flooding on a grid in CSR form: bitset scans of the
//! informed set, a coin per informed node, neighbour-hit counting and a
//! loss draw per hit listener. Its speed follows the host the way the
//! simulator's does, which is what a speed reference needs.

use std::hint::black_box;
use std::time::Instant;

const SIDE: usize = 96;
const ROUNDS: u64 = 100;

/// The reference graph, built once per run.
pub struct Reference {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        let mut offsets = vec![0u32];
        let mut targets = Vec::new();
        for v in 0..SIDE * SIDE {
            let (r, c) = (v / SIDE, v % SIDE);
            let neighbours = [
                (r > 0).then(|| v - SIDE),
                (c > 0).then(|| v - 1),
                (c + 1 < SIDE).then(|| v + 1),
                (r + 1 < SIDE).then(|| v + SIDE),
            ];
            targets.extend(neighbours.into_iter().flatten().map(|u| u as u32));
            offsets.push(targets.len() as u32);
        }
        Reference { offsets, targets }
    }
}

impl Reference {
    /// One fixed sweep; the checksum keeps the work from being elided.
    pub fn sweep(&self) -> u64 {
        let n = SIDE * SIDE;
        let mut informed = vec![0u64; n.div_ceil(64)];
        let mut hits = vec![0u8; n];
        let mut touched: Vec<u32> = Vec::with_capacity(n);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Half the nodes start active, and every successful reception
        // toggles its listener, so each round does about the same work.
        for word in informed.iter_mut() {
            *word = next();
        }
        let mut checksum = 0u64;
        for round in 0..ROUNDS {
            let level = round % 14 + 1;
            for (word, &bits) in informed.iter().enumerate() {
                let mut w = bits;
                while w != 0 {
                    let v = word * 64 + w.trailing_zeros() as usize;
                    w &= w - 1;
                    if next() >> (64 - level) == 0 {
                        let range = self.offsets[v] as usize..self.offsets[v + 1] as usize;
                        for &u in &self.targets[range] {
                            if hits[u as usize] == 0 {
                                touched.push(u);
                            }
                            hits[u as usize] = hits[u as usize].saturating_add(1);
                        }
                    }
                }
            }
            for u in touched.drain(..) {
                let u = u as usize;
                if hits[u] == 1 && next() % 10 >= 3 {
                    informed[u / 64] ^= 1 << (u % 64);
                    checksum = checksum.wrapping_mul(31).wrapping_add(u as u64 ^ round);
                }
                hits[u] = 0;
            }
        }
        checksum
    }

    /// Host milliseconds one sweep takes right now.
    pub fn time_ms(&self) -> f64 {
        let start = Instant::now();
        black_box(self.sweep());
        start.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_work_is_fixed() {
        // The reference must do the same work on every call and in every
        // version of the benchmark; a changed checksum means a changed
        // reference, and every normalised figure would move with it.
        let r = Reference::default();
        assert_eq!(r.sweep(), r.sweep());
        assert_eq!(r.sweep(), 6_969_269_307_202_140_112);
    }
}
