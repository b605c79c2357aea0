//! Experiment plans: grouped trial registration over the cell runner.
//!
//! An experiment driver registers its whole measurement grid up front —
//! each [`Plan::trials`] call adds one *group* of replicated cells —
//! then runs everything as one flat grid with [`Plan::run`] and reads
//! per-group statistics back from the [`Resolved`] results. Because
//! groups are flattened in registration order and cells are seeded by
//! grid index, the resolved statistics are bit-identical for any
//! worker count.

use radio_throughput::Summary;

use crate::runner::{run_cells_timed, CellCtx, SweepConfig};

/// One trial's outcome: a sample value plus a validity flag.
///
/// Most cells just produce a measurement (`ok = true`); cells that can
/// fail semantically — an RLNC decode mismatch, an undelivered
/// message — flag it so the driver can turn the failure into a
/// `[!!]` finding instead of a lost panic inside a worker thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// The measured sample (rounds, throughput, fraction, …).
    pub value: f64,
    /// Whether the trial was semantically valid.
    pub ok: bool,
}

impl TrialResult {
    /// A valid measurement.
    pub fn new(value: f64) -> Self {
        TrialResult { value, ok: true }
    }

    /// A measurement with an explicit validity flag.
    pub fn flagged(value: f64, ok: bool) -> Self {
        TrialResult { value, ok }
    }
}

impl From<f64> for TrialResult {
    fn from(value: f64) -> Self {
        TrialResult::new(value)
    }
}

impl From<u64> for TrialResult {
    fn from(value: u64) -> Self {
        TrialResult::new(value as f64)
    }
}

/// Identifies one registered trial group of a [`Plan`]; redeem it
/// against the [`Resolved`] results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handle(usize);

/// A deterministic parallel experiment plan: an ordered list of trial
/// groups, flattened into one cell grid.
///
/// # Examples
///
/// ```
/// use radio_sweep::{Plan, SweepConfig, TrialResult};
///
/// // Register two groups — a 4-trial measurement and a single check —
/// // then run the whole grid in parallel and read the stats back.
/// let mut plan = Plan::new();
/// let rounds = plan.trials(4, |ctx| TrialResult::new((ctx.seed % 100) as f64));
/// let check = plan.one(|_ctx| TrialResult::flagged(1.0, true));
///
/// let cfg = SweepConfig::new(Some(2), 42);
/// let res = plan.run(&cfg, "doc-example");
/// assert_eq!(res.summary(rounds).count, 4);
/// assert!(res.ok(check));
///
/// // Determinism: a single-worker run of the same plan is identical.
/// let mut replay = Plan::new();
/// let rounds1 = replay.trials(4, |ctx| TrialResult::new((ctx.seed % 100) as f64));
/// let res1 = replay.run(&SweepConfig::new(Some(1), 42), "doc-example");
/// assert_eq!(res.summary(rounds), res1.summary(rounds1));
/// ```
#[derive(Default)]
pub struct Plan<'a> {
    #[allow(clippy::type_complexity)]
    cells: Vec<Box<dyn Fn(CellCtx) -> TrialResult + Sync + 'a>>,
    /// `(offset, len)` of each group in `cells`.
    groups: Vec<(usize, usize)>,
}

impl<'a> Plan<'a> {
    /// An empty plan.
    pub fn new() -> Self {
        Plan {
            cells: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Registers a group of `trials` replicated cells. Each replica
    /// calls `measure` with its own [`CellCtx`] (distinct forked
    /// seeds).
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub fn trials<R, F>(&mut self, trials: u64, measure: F) -> Handle
    where
        R: Into<TrialResult>,
        F: Fn(CellCtx) -> R + Send + Sync + 'a,
    {
        assert!(trials > 0, "need at least one trial per group");
        let offset = self.cells.len();
        // All replicas share one closure (an `Arc` rather than a
        // per-replica box, so `measure` needn't be `Clone`).
        let shared = std::sync::Arc::new(measure);
        for _ in 0..trials {
            let f = std::sync::Arc::clone(&shared);
            self.cells.push(Box::new(move |ctx| f(ctx).into()));
        }
        self.groups.push((offset, trials as usize));
        Handle(self.groups.len() - 1)
    }

    /// Registers a single-cell group (one measurement, no
    /// replication).
    pub fn one<R, F>(&mut self, measure: F) -> Handle
    where
        R: Into<TrialResult>,
        F: Fn(CellCtx) -> R + Send + Sync + 'a,
    {
        self.trials(1, measure)
    }

    /// Runs every registered cell on `cfg.jobs` workers, seeding the
    /// grid from `cfg.scope_seed(scope)`, and returns the results.
    ///
    /// `scope` should name the experiment (and phase, if a driver runs
    /// several plans) so distinct experiments draw decorrelated seed
    /// streams from one master seed.
    pub fn run(self, cfg: &SweepConfig, scope: &str) -> Resolved {
        let base_seed = cfg.scope_seed(scope);
        let cells = &self.cells;
        let (results, cell_ms) = run_cells_timed(cfg.jobs, base_seed, cells.len(), |ctx| {
            cells[ctx.index as usize](ctx)
        });
        Resolved {
            results,
            cell_ms,
            groups: self.groups,
        }
    }
}

/// The results of a [`Plan`] run, indexed by the handles the plan
/// issued.
#[derive(Debug, Clone)]
pub struct Resolved {
    results: Vec<TrialResult>,
    /// Per-cell wall-clock milliseconds, in grid order (observability
    /// only — never part of the measured, determinism-gated results).
    cell_ms: Vec<f64>,
    groups: Vec<(usize, usize)>,
}

impl Resolved {
    fn group(&self, h: Handle) -> &[TrialResult] {
        let (offset, len) = self.groups[h.0];
        &self.results[offset..offset + len]
    }

    /// The raw sample values of a group, in trial order.
    pub fn values(&self, h: Handle) -> Vec<f64> {
        self.group(h).iter().map(|t| t.value).collect()
    }

    /// The single value of a one-cell group.
    ///
    /// # Panics
    ///
    /// Panics if the group has more than one cell.
    pub fn value(&self, h: Handle) -> f64 {
        let g = self.group(h);
        assert_eq!(g.len(), 1, "value() on a {}-trial group", g.len());
        g[0].value
    }

    /// Summary statistics over a group's samples.
    pub fn summary(&self, h: Handle) -> Summary {
        Summary::from_samples(&self.values(h))
    }

    /// The group's mean sample.
    pub fn mean(&self, h: Handle) -> f64 {
        self.summary(h).mean
    }

    /// Whether every trial in the group was semantically valid.
    pub fn ok(&self, h: Handle) -> bool {
        self.group(h).iter().all(|t| t.ok)
    }

    /// How many trials in the group were semantically valid.
    pub fn ok_count(&self, h: Handle) -> u64 {
        self.group(h).iter().filter(|t| t.ok).count() as u64
    }

    /// Per-cell wall-clock milliseconds, in grid order (see
    /// [`crate::run_cells_timed`]). Timing is observability data, not
    /// a measurement: artifact diffing ignores it.
    pub fn cell_ms(&self) -> &[f64] {
        &self.cell_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_resolve_in_order() {
        let mut plan = Plan::new();
        let a = plan.trials(3, |ctx| ctx.index as f64);
        let b = plan.trials(2, |ctx| ctx.index as f64);
        let res = plan.run(&SweepConfig::new(Some(2), 0), "t");
        assert_eq!(res.values(a), vec![0.0, 1.0, 2.0]);
        assert_eq!(res.values(b), vec![3.0, 4.0]);
    }

    #[test]
    fn jobs_invariance_through_plan() {
        let build = || {
            let mut plan = Plan::new();
            let h = plan.trials(16, |ctx| (ctx.seed % 1000) as f64);
            (plan, h)
        };
        let (p1, h1) = build();
        let r1 = p1.run(&SweepConfig::new(Some(1), 7), "inv");
        for jobs in [2, 8] {
            let (pn, hn) = build();
            let rn = pn.run(&SweepConfig::new(Some(jobs), 7), "inv");
            assert_eq!(r1.values(h1), rn.values(hn), "jobs = {jobs}");
        }
    }

    #[test]
    fn ok_flags_aggregate() {
        let mut plan = Plan::new();
        let h = plan.trials(4, |ctx| TrialResult::flagged(1.0, ctx.index != 2));
        let res = plan.run(&SweepConfig::new(Some(1), 0), "ok");
        assert!(!res.ok(h));
        assert_eq!(res.ok_count(h), 3);
    }

    #[test]
    fn cell_ms_covers_every_cell() {
        let mut plan = Plan::new();
        let a = plan.trials(3, |_| 1.0);
        let _b = plan.one(|_| 2.0);
        let res = plan.run(&SweepConfig::new(Some(2), 0), "ms");
        assert_eq!(res.cell_ms().len(), 4);
        assert!(res.cell_ms().iter().all(|&m| m >= 0.0));

        assert_eq!(res.values(a).len(), 3);
    }

    #[test]
    fn one_and_value() {
        let mut plan = Plan::new();
        let h = plan.one(|_| 5u64);
        let res = plan.run(&SweepConfig::new(Some(1), 0), "one");
        assert_eq!(res.value(h), 5.0);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn zero_trials_panics() {
        let mut plan = Plan::new();
        let _ = plan.trials(0, |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "value() on a 2-trial group")]
    fn value_on_multi_trial_group_panics() {
        let mut plan = Plan::new();
        let h = plan.trials(2, |_| 0.0);
        let res = plan.run(&SweepConfig::new(Some(1), 0), "v");
        let _ = res.value(h);
    }
}
