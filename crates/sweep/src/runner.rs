//! The deterministic parallel cell runner: grid → per-cell seeds →
//! scoped worker pool → ordered merge.

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use radio_model::fork_seed;

/// How a sweep runs: worker count and the master seed every cell seed
/// is forked from.
///
/// The master seed determines *what* is measured; `jobs` only
/// determines *how fast*. Two configs that differ only in `jobs`
/// produce byte-identical results by the §4b ordered-merge contract.
///
/// # Examples
///
/// ```
/// use radio_sweep::SweepConfig;
///
/// // Explicit worker count; seed 42.
/// let cfg = SweepConfig::new(Some(2), 42);
/// assert_eq!(cfg.jobs, 2);
///
/// // `None` resolves to the machine's available parallelism.
/// let auto = SweepConfig::new(None, 42);
/// assert!(auto.jobs >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConfig {
    /// Number of worker threads (≥ 1).
    pub jobs: usize,
    /// Master seed; every cell seed is [`fork_seed`]-derived from it.
    pub master_seed: u64,
}

impl SweepConfig {
    /// Creates a config; `jobs = None` resolves to
    /// [`available_jobs`](Self::available_jobs).
    pub fn new(jobs: Option<usize>, master_seed: u64) -> Self {
        SweepConfig {
            jobs: jobs.unwrap_or_else(Self::available_jobs).max(1),
            master_seed,
        }
    }

    /// The machine's available parallelism (≥ 1).
    pub fn available_jobs() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }

    /// Derives the base seed for a named scope (an experiment id such
    /// as `"E1"`, or a phase such as `"A2/rates"`).
    ///
    /// Distinct scope names get decorrelated seed streams, so two
    /// experiments sharing a master seed never replay each other's
    /// randomness. The derivation hashes only the scope string and the
    /// master seed — never time, thread ids, or evaluation order.
    ///
    /// # Examples
    ///
    /// ```
    /// use radio_sweep::SweepConfig;
    ///
    /// let cfg = SweepConfig::new(Some(1), 42);
    /// assert_eq!(cfg.scope_seed("E1"), cfg.scope_seed("E1"));
    /// assert_ne!(cfg.scope_seed("E1"), cfg.scope_seed("E2"));
    /// ```
    pub fn scope_seed(&self, scope: &str) -> u64 {
        // FNV-1a over the scope name, then one SplitMix64 fork to mix
        // in the master seed.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in scope.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        fork_seed(self.master_seed, hash)
    }
}

impl Default for SweepConfig {
    /// Available parallelism, master seed 42.
    fn default() -> Self {
        SweepConfig::new(None, 42)
    }
}

/// The most worker threads `--jobs` may ask for. [`run_cells`] starts
/// `min(jobs, cells)` scoped threads, and starting one panics when the
/// OS refuses it, so the binaries bound the flag instead.
pub const MAX_JOBS: usize = 1024;

/// Parses a `--jobs` value as the `cli` and `experiments` binaries
/// accept it: a worker count from 1 to [`MAX_JOBS`].
///
/// # Errors
///
/// A message naming the flag (and, above the bound, [`MAX_JOBS`]) for
/// anything else.
///
/// # Examples
///
/// ```
/// use radio_sweep::{parse_jobs, MAX_JOBS};
///
/// assert_eq!(parse_jobs("2"), Ok(2));
/// assert_eq!(parse_jobs(&MAX_JOBS.to_string()), Ok(MAX_JOBS));
/// assert!(parse_jobs("0").is_err());
/// assert!(parse_jobs("1025").unwrap_err().contains("1024"));
/// ```
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    let n: usize = value.parse().map_err(|e| format!("bad --jobs: {e}"))?;
    if n == 0 {
        return Err("--jobs must be ≥ 1".into());
    }
    if n > MAX_JOBS {
        return Err(format!("--jobs must be at most {MAX_JOBS}, got {n}"));
    }
    Ok(n)
}

/// What a cell knows about itself: its grid index and its forked seed.
///
/// The seed is `fork_seed(base_seed, index)` — a pure function of the
/// grid position, never of scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellCtx {
    /// Position of this cell in the flattened grid.
    pub index: u64,
    /// The cell's forked seed; pass it to simulator runs.
    pub seed: u64,
}

impl CellCtx {
    /// A fresh RNG seeded with this cell's seed, for cells that need
    /// randomness beyond what they pass into the simulator.
    pub fn rng(&self) -> SmallRng {
        SmallRng::seed_from_u64(self.seed)
    }
}

/// Evaluates `count` cells on `jobs` scoped worker threads and returns
/// their results **in cell-index order**.
///
/// Workers claim cell indices from a shared atomic counter, so load
/// balances dynamically; each cell's [`CellCtx::seed`] is forked from
/// `base_seed` by index, so the result vector is bit-identical for any
/// `jobs` value. A panic in any cell propagates to the caller after
/// the scope joins.
///
/// # Examples
///
/// ```
/// use radio_sweep::run_cells;
///
/// // Any cell computation whose output depends only on (index, seed)
/// // merges back in grid order, whatever the worker count.
/// let serial = run_cells(1, 42, 8, |ctx| ctx.index * 10 + ctx.seed % 7);
/// let parallel = run_cells(4, 42, 8, |ctx| ctx.index * 10 + ctx.seed % 7);
/// assert_eq!(serial, parallel);
/// assert_eq!(serial.len(), 8);
/// ```
pub fn run_cells<T, F>(jobs: usize, base_seed: u64, count: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(CellCtx) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, count);
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut local: Vec<(usize, T)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            let ctx = CellCtx {
                index: i as u64,
                seed: fork_seed(base_seed, i as u64),
            };
            local.push((i, f(ctx)));
        }
        local
    };
    let buckets: Vec<Vec<(usize, T)>> = if jobs == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs).map(|_| s.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(local) => local,
                    Err(panic) => std::panic::resume_unwind(panic),
                })
                .collect()
        })
    };
    // Ordered merge: every index was claimed exactly once.
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, value) in buckets.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "cell {i} computed twice");
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every cell claimed exactly once"))
        .collect()
}

/// As [`run_cells`], additionally returning each cell's wall-clock
/// duration in milliseconds (in cell-index order).
///
/// The *results* obey the determinism contract; the *timings* of
/// course do not — they are observability data (per-cell cost) and are
/// excluded from artifact diffing (`experiments --diff` ignores the
/// timing field).
///
/// # Examples
///
/// ```
/// use radio_sweep::run_cells_timed;
///
/// let (values, ms) = run_cells_timed(2, 42, 4, |ctx| ctx.index * 2);
/// assert_eq!(values, vec![0, 2, 4, 6]);
/// assert_eq!(ms.len(), 4);
/// assert!(ms.iter().all(|&m| m >= 0.0));
/// ```
pub fn run_cells_timed<T, F>(jobs: usize, base_seed: u64, count: usize, f: F) -> (Vec<T>, Vec<f64>)
where
    T: Send,
    F: Fn(CellCtx) -> T + Sync,
{
    run_cells(jobs, base_seed, count, |ctx| {
        let start = std::time::Instant::now();
        let value = f(ctx);
        (value, start.elapsed().as_secs_f64() * 1e3)
    })
    .into_iter()
    .unzip()
}

/// Emits per-cell wall-clock spans (as produced by [`run_cells_timed`])
/// into a telemetry sink.
///
/// Each cell becomes a span named `cell/{scope}/{index}` whose value is
/// the cell's duration in nanoseconds, plus one `cells/{scope}` counter
/// holding the cell count. A disabled sink returns immediately.
///
/// # Examples
///
/// ```
/// use radio_obs::CounterSink;
/// use radio_sweep::{emit_cell_spans, run_cells_timed};
///
/// let (_, ms) = run_cells_timed(2, 42, 3, |ctx| ctx.index);
/// let mut sink = CounterSink::new();
/// emit_cell_spans(&mut sink, "E8", &ms);
/// assert_eq!(sink.counter_total("cells/E8"), Some(3));
/// assert!(sink.span_nanos("cell/E8/0").is_some());
/// ```
pub fn emit_cell_spans<S: radio_obs::TelemetrySink>(sink: &mut S, scope: &str, cell_ms: &[f64]) {
    if !sink.enabled() {
        return;
    }
    for (i, &ms) in cell_ms.iter().enumerate() {
        let nanos = if ms.is_finite() && ms > 0.0 {
            (ms * 1e6) as u64
        } else {
            0
        };
        sink.span(&format!("cell/{scope}/{i}"), nanos);
    }
    sink.counter(&format!("cells/{scope}"), cell_ms.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_in_grid_order() {
        let out = run_cells(3, 0, 10, |ctx| ctx.index);
        assert_eq!(out, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn jobs_invariance_exact() {
        // The core determinism contract: identical output for any
        // worker count, including oversubscription (jobs > cells).
        let reference = run_cells(1, 99, 17, |ctx| ctx.rng().gen::<u64>());
        for jobs in [2, 4, 8, 32] {
            let parallel = run_cells(jobs, 99, 17, |ctx| ctx.rng().gen::<u64>());
            assert_eq!(reference, parallel, "jobs = {jobs}");
        }
    }

    #[test]
    fn cell_seeds_are_forked_by_index() {
        let seeds = run_cells(2, 7, 4, |ctx| ctx.seed);
        for (i, &s) in seeds.iter().enumerate() {
            assert_eq!(s, fork_seed(7, i as u64));
        }
    }

    #[test]
    fn empty_grid() {
        let out: Vec<u64> = run_cells(4, 0, 0, |ctx| ctx.index);
        assert!(out.is_empty());
    }

    #[test]
    fn scope_seeds_decorrelate_experiments() {
        let cfg = SweepConfig::new(Some(1), 42);
        let ids = ["E1", "E2", "A2/ref", "A2/rates"];
        let mut seeds: Vec<u64> = ids.iter().map(|id| cfg.scope_seed(id)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), ids.len(), "scope seeds must be distinct");
    }

    #[test]
    fn timed_cells_match_untimed_results() {
        let plain = run_cells(1, 5, 6, |ctx| ctx.seed);
        let (timed, ms) = run_cells_timed(3, 5, 6, |ctx| ctx.seed);
        assert_eq!(plain, timed);
        assert_eq!(ms.len(), 6);
        assert!(ms.iter().all(|&m| m.is_finite() && m >= 0.0));
    }

    #[test]
    fn emit_cell_spans_shapes_names_and_skips_disabled() {
        use radio_obs::{CounterSink, NullSink};
        let ms = [1.5, 0.0, 2.25];
        let mut sink = CounterSink::new();
        emit_cell_spans(&mut sink, "E8", &ms);
        assert_eq!(sink.span_nanos("cell/E8/0"), Some(1_500_000));
        assert_eq!(sink.span_nanos("cell/E8/1"), Some(0));
        assert_eq!(sink.span_nanos("cell/E8/2"), Some(2_250_000));
        assert_eq!(sink.counter_total("cells/E8"), Some(3));
        // A disabled sink is a no-op (and must not panic).
        emit_cell_spans(&mut NullSink, "E8", &ms);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            run_cells(2, 0, 4, |ctx| {
                if ctx.index == 3 {
                    panic!("cell failure");
                }
                ctx.index
            })
        });
        assert!(caught.is_err());
    }
}
