//! Per-cell evaluation budgets, and the campaign ledger that grants its
//! cap to the cells.

use crate::backend::{EvalBackend, EvalMetrics};
use crate::config::{AxConfig, SpaceDims};
use ax_vm::VmError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel stored in [`EvalBudget`]'s atomic cap for "unbounded".
const UNBOUNDED: u64 = u64::MAX;

/// A campaign cell's evaluation budget (see [`CellLedger`]).
///
/// The unit is **distinct designs resolved per run**: every configuration a
/// run's backend answers for the first time (execution or shared-cache hit
/// alike) charges one
/// unit, as measured by the growth of
/// [`EvalBackend::distinct_evaluations`]. Enforcement is *cooperative*:
/// [`MeteredBackend`] charges after the fact and the exploration loop polls
/// [`EvalBudget::exhausted`] between steps, so each run charging a budget
/// may overshoot its cap by at most one step's worth of evaluations.
/// [`EvalBudget::spent`] reports the raw (overshooting) total.
///
/// The cap is adjustable: the campaign scheduler grants a cell more
/// budget between passes via [`EvalBudget::raise_cap`].
#[derive(Debug)]
pub struct EvalBudget {
    /// The cap; [`UNBOUNDED`] means no cap.
    cap: AtomicU64,
    spent: AtomicU64,
}

impl EvalBudget {
    /// A budget with the given cap (`None` = unbounded, counting only).
    pub fn new(cap: Option<u64>) -> Arc<Self> {
        Arc::new(Self {
            cap: AtomicU64::new(cap.unwrap_or(UNBOUNDED)),
            spent: AtomicU64::new(0),
        })
    }

    /// The cap, if any.
    pub fn cap(&self) -> Option<u64> {
        let cap = self.cap.load(Ordering::Relaxed);
        (cap != UNBOUNDED).then_some(cap)
    }

    /// Raises the cap by `extra` units. No-op on an unbounded budget.
    pub fn raise_cap(&self, extra: u64) {
        let _ = self
            .cap
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cap| {
                (cap != UNBOUNDED).then(|| cap.saturating_add(extra).min(UNBOUNDED - 1))
            });
    }

    /// Units charged so far — the raw total, which may exceed the cap by
    /// the documented cooperative overshoot.
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// Charges `n` units.
    pub fn charge(&self, n: u64) {
        if n > 0 {
            self.spent.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// `true` once spending has reached the cap.
    pub fn exhausted(&self) -> bool {
        self.cap().is_some_and(|cap| self.spent() >= cap)
    }
}

/// Grants a campaign's evaluation cap to its cells.
///
/// A *cell* is one (benchmark, input seed, agent) triple of a campaign
/// grid. Each cell owns an [`EvalBudget`] whose cap starts at zero (when
/// the campaign has a cap) and grows by [`CellLedger::grant`] as the
/// scheduler allocates rungs. A run charges and polls its cell's budget
/// only, so a cell's runs never race another cell for budget. The
/// campaign cap binds when budget is granted: the scheduler cuts every
/// grant from [`CellLedger::remaining`], the cap minus what the cells
/// have spent, so the cells together spend at most the cap plus one
/// step's designs per run. When the campaign is unbounded, cells are
/// unbounded too and the ledger only counts.
///
/// Reallocation falls out of the accounting: a scheduler that grants each
/// rung from [`CellLedger::remaining`] automatically hands the unspent
/// allocation of eliminated (or naturally finished) cells to the
/// survivors of later rungs.
#[derive(Debug)]
pub struct CellLedger {
    cap: Option<u64>,
    cells: Vec<Arc<EvalBudget>>,
}

impl CellLedger {
    /// A ledger over `n_cells` cells granting the campaign cap `cap`
    /// (`None` = unbounded).
    ///
    /// # Panics
    ///
    /// Panics if `n_cells` is zero.
    pub fn new(cap: Option<u64>, n_cells: usize) -> Self {
        assert!(n_cells > 0, "a ledger needs at least one cell");
        let cell_cap = cap.map(|_| 0);
        let cells = (0..n_cells).map(|_| EvalBudget::new(cell_cap)).collect();
        Self { cap, cells }
    }

    /// The campaign cap, if any.
    pub fn cap(&self) -> Option<u64> {
        self.cap
    }

    /// The budget of cell `i`.
    pub fn cell(&self, i: usize) -> &Arc<EvalBudget> {
        &self.cells[i]
    }

    /// Grants cell `i` another `units` of budget.
    pub fn grant(&self, i: usize, units: u64) {
        self.cells[i].raise_cap(units);
    }

    /// What the cells have spent, summed: the campaign's raw spend,
    /// overshoot included. Every charge of a campaign run goes to
    /// exactly one cell.
    pub fn spent(&self) -> u64 {
        self.cells.iter().map(|c| c.spent()).sum()
    }

    /// The cap the cells have not spent yet: `cap − spent` (saturating;
    /// `None` when unbounded).
    pub fn remaining(&self) -> Option<u64> {
        self.cap.map(|cap| cap.saturating_sub(self.spent()))
    }

    /// `true` once the cells' spend has reached the campaign cap.
    pub fn exhausted(&self) -> bool {
        self.remaining() == Some(0)
    }

    /// Splits `total` into `n` near-equal integer grants; the first
    /// `total % n` grants take the remainder, one unit each.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn split_even(total: u64, n: usize) -> Vec<u64> {
        assert!(n > 0, "cannot split a budget over zero cells");
        let n64 = n as u64;
        let (base, rem) = (total / n64, total % n64);
        (0..n64).map(|i| base + u64::from(i < rem)).collect()
    }

    /// Splits `total` proportionally to `shares` using largest-remainder
    /// rounding (ties resolve to the earlier cell), so the grants sum to
    /// exactly `total`.
    ///
    /// # Panics
    ///
    /// Panics if `shares` is empty or contains a non-finite or
    /// non-positive share.
    pub fn split_weighted(total: u64, shares: &[f64]) -> Vec<u64> {
        assert!(!shares.is_empty(), "cannot split a budget over no shares");
        let sum: f64 = shares.iter().sum();
        assert!(
            shares.iter().all(|s| s.is_finite() && *s > 0.0),
            "budget shares must be finite and positive"
        );
        let exact: Vec<f64> = shares.iter().map(|s| total as f64 * s / sum).collect();
        let mut grants: Vec<u64> = exact.iter().map(|e| e.floor() as u64).collect();
        let mut leftover = total - grants.iter().sum::<u64>();
        // Largest fractional parts first; stable sort keeps earlier cells
        // ahead on ties.
        let mut order: Vec<usize> = (0..shares.len()).collect();
        order.sort_by(|&a, &b| {
            let (fa, fb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
            fb.total_cmp(&fa)
        });
        let mut next = 0usize;
        while leftover > 0 {
            grants[order[next % order.len()]] += 1;
            next += 1;
            leftover -= 1;
        }
        grants
    }
}

/// Per-rung score records of the campaign's rung engine, for every
/// budget policy.
///
/// A *rung* is one budget quantum of a cell's lifetime. When a cell
/// finishes a rung (its grant runs dry, or all its runs complete) the
/// scheduler [`RungLedger::record`]s the cell's best-design solution score
/// on that rung, then asks [`RungLedger::newly_promotable`] which cells
/// now rank in the top `keep_fraction` of everything that rung has seen
/// **so far**. Without a barrier (ASHA) the first cell to report on a
/// rung always promotes immediately, and a cell parked below the cut can
/// still be promoted later once enough slower peers have reported to
/// grow the keep-count. Promotion is sticky: a promoted cell stays
/// promoted even if later arrivals push its score below the cut (you
/// cannot un-spend a grant), which is exactly ASHA's optimistic-promotion
/// contract. With a barrier the scheduler asks once every live cell has
/// recorded, and eliminates the rest.
///
/// Ranking is deterministic: scores sort descending and ties resolve to
/// the earlier-recorded cell, so every schedule replays identically run
/// to run. Cells recorded with [`RungLedger::record_vector`] rank by
/// non-dominated order over their objective vectors instead (see
/// [`crate::pareto::rank_order`]) — the Pareto campaign path.
#[derive(Debug)]
pub struct RungLedger {
    keep_fraction: f64,
    rungs: Vec<RungRecords>,
}

/// One rung's arrivals: `(cell, score)` in record order plus a parallel
/// promoted flag and (for Pareto campaigns) the objective vector — empty
/// for scalar records.
#[derive(Debug, Default, Clone)]
struct RungRecords {
    records: Vec<(usize, f64)>,
    points: Vec<Vec<f64>>,
    promoted: Vec<bool>,
}

impl RungLedger {
    /// A ledger over `rungs` rungs promoting the top `keep_fraction`.
    ///
    /// # Panics
    ///
    /// Panics on zero rungs or a keep fraction outside (0, 1) — the
    /// configurations [`crate::campaign::BudgetPolicy::check`] rejects.
    pub fn new(rungs: usize, keep_fraction: f64) -> Self {
        assert!(rungs > 0, "a rung ledger needs at least one rung");
        assert!(
            keep_fraction.is_finite() && keep_fraction > 0.0 && keep_fraction < 1.0,
            "keep_fraction must lie in (0, 1), got {keep_fraction}"
        );
        Self {
            keep_fraction,
            rungs: vec![RungRecords::default(); rungs],
        }
    }

    /// Number of rungs.
    pub fn rungs(&self) -> usize {
        self.rungs.len()
    }

    /// Records `cell` finishing `rung` with the given best score.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range rung or a cell already recorded there —
    /// a cell passes each rung once.
    pub fn record(&mut self, rung: usize, cell: usize, score: f64) {
        self.record_vector(rung, cell, score, Vec::new());
    }

    /// Records `cell` finishing `rung` with an objective vector (and the
    /// legacy scalar, kept for reports). Once a rung holds vector records
    /// its promotion ranking switches from scalar-descending to
    /// non-dominated order with crowding tie-breaks; a campaign uses one
    /// form consistently, never mixed within a rung.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range rung or a cell already recorded there.
    pub fn record_vector(&mut self, rung: usize, cell: usize, score: f64, point: Vec<f64>) {
        let r = &mut self.rungs[rung];
        assert!(
            r.records.iter().all(|&(c, _)| c != cell),
            "cell {cell} already recorded on rung {rung}"
        );
        r.records.push((cell, score));
        r.points.push(point);
        r.promoted.push(false);
    }

    /// Scores recorded on `rung` so far.
    pub fn recorded(&self, rung: usize) -> usize {
        self.rungs[rung].records.len()
    }

    /// The score `cell` recorded on `rung`, if it has reported there.
    pub fn score(&self, rung: usize, cell: usize) -> Option<f64> {
        self.rungs[rung]
            .records
            .iter()
            .find(|&&(c, _)| c == cell)
            .map(|&(_, s)| s)
    }

    /// Record indices of `rung`, best first. Scalar rungs sort by score
    /// descending (the stable sort keeps earlier arrivals ahead on ties);
    /// vector rungs use non-dominated order with the same arrival-index
    /// tie-break baked into `rank_order`.
    fn order(&self, rung: usize) -> Vec<usize> {
        let r = &self.rungs[rung];
        if r.points.iter().all(|p| !p.is_empty()) {
            crate::pareto::rank_order(&r.points)
        } else {
            let mut order: Vec<usize> = (0..r.records.len()).collect();
            order.sort_by(|&a, &b| r.records[b].1.total_cmp(&r.records[a].1));
            order
        }
    }

    /// Every cell recorded on `rung`, best first.
    pub(crate) fn ranked(&self, rung: usize) -> Vec<usize> {
        let records = &self.rungs[rung].records;
        self.order(rung).into_iter().map(|i| records[i].0).collect()
    }

    /// Cells newly ranked into the top `keep_fraction` of `rung`'s records
    /// (best first), marked promoted as a side effect. The keep-count is
    /// `ceil(keep_fraction × recorded)` clamped to at least one, so the
    /// first arrival always promotes; as more cells record, the count
    /// grows and previously parked cells can surface here on later calls.
    pub fn newly_promotable(&mut self, rung: usize) -> Vec<usize> {
        let order = self.order(rung);
        let keep = (order.len() as f64 * self.keep_fraction).ceil() as usize;
        let r = &mut self.rungs[rung];
        let mut fresh = Vec::new();
        for &i in order.iter().take(keep.max(1)) {
            if !r.promoted[i] {
                r.promoted[i] = true;
                fresh.push(r.records[i].0);
            }
        }
        fresh
    }
}

/// An [`EvalBackend`] decorator that charges an [`EvalBudget`] for every
/// distinct design its inner backend resolves.
///
/// Results are bit-identical to the inner backend's — metering observes,
/// never intercepts — so wrapping an exact sweep in a `MeteredBackend`
/// with an unbounded budget changes nothing but the accounting.
#[derive(Debug)]
pub struct MeteredBackend<B: EvalBackend> {
    inner: B,
    budget: Arc<EvalBudget>,
    charged: u64,
}

impl<B: EvalBackend> MeteredBackend<B> {
    /// Wraps `inner`, charging `budget`.
    pub fn new(inner: B, budget: Arc<EvalBudget>) -> Self {
        Self {
            inner,
            budget,
            charged: 0,
        }
    }

    /// Units this backend has charged to its budget.
    pub fn charged(&self) -> u64 {
        self.charged
    }

    fn settle(&mut self, before: u64) {
        let delta = self.inner.distinct_evaluations().saturating_sub(before);
        self.charged += delta;
        self.budget.charge(delta);
    }
}

impl<B: EvalBackend> EvalBackend for MeteredBackend<B> {
    fn dims(&self) -> SpaceDims {
        self.inner.dims()
    }

    fn program(&self) -> &ax_vm::Program {
        self.inner.program()
    }

    fn precise_power(&self) -> f64 {
        self.inner.precise_power()
    }

    fn precise_time(&self) -> f64 {
        self.inner.precise_time()
    }

    fn mean_abs_output(&self) -> f64 {
        self.inner.mean_abs_output()
    }

    fn distinct_evaluations(&self) -> u64 {
        self.inner.distinct_evaluations()
    }

    fn telemetry_counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.telemetry_counters()
    }

    fn evaluate(&mut self, config: &AxConfig) -> Result<EvalMetrics, VmError> {
        let before = self.inner.distinct_evaluations();
        let result = self.inner.evaluate(config);
        self.settle(before);
        result
    }

    fn evaluate_batch(&mut self, configs: &[AxConfig]) -> Result<Vec<EvalMetrics>, VmError> {
        let before = self.inner.distinct_evaluations();
        let result = self.inner.evaluate_batch(configs);
        self.settle(before);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Evaluator;
    use ax_operators::OperatorLibrary;
    use ax_workloads::matmul::MatMul;

    fn exact() -> Evaluator {
        Evaluator::new(&MatMul::new(4), &OperatorLibrary::evoapprox(), 11).unwrap()
    }

    #[test]
    fn metering_preserves_results_and_counts_distinct_designs() {
        let budget = EvalBudget::new(None);
        let mut metered = MeteredBackend::new(exact(), Arc::clone(&budget));
        let mut reference = exact();
        let configs: Vec<AxConfig> = AxConfig::enumerate(reference.dims())
            .into_iter()
            .take(50)
            .collect();
        for c in &configs {
            assert_eq!(metered.evaluate(c).unwrap(), reference.evaluate(c).unwrap());
        }
        // Repeats are memo hits in the inner backend: no further charge.
        for c in configs.iter().take(10) {
            metered.evaluate(c).unwrap();
        }
        assert_eq!(budget.spent(), 50);
        assert_eq!(metered.charged(), 50);
        assert!(!budget.exhausted());
    }

    #[test]
    fn batch_evaluations_charge_once_per_distinct_design() {
        let budget = EvalBudget::new(Some(10));
        let mut metered = MeteredBackend::new(exact(), Arc::clone(&budget));
        let configs: Vec<AxConfig> = AxConfig::enumerate(metered.dims())
            .into_iter()
            .take(8)
            .collect();
        let mut doubled = configs.clone();
        doubled.extend_from_slice(&configs);
        metered.evaluate_batch(&doubled).unwrap();
        assert_eq!(budget.spent(), 8);
        assert!(!budget.exhausted());
        let more = AxConfig::enumerate(metered.dims());
        metered.evaluate_batch(&more[..16]).unwrap();
        assert!(budget.exhausted());
    }

    #[test]
    fn unbounded_budget_never_exhausts() {
        let budget = EvalBudget::new(None);
        budget.charge(u64::MAX / 2);
        assert!(!budget.exhausted());
        assert_eq!(budget.cap(), None);
        budget.raise_cap(10);
        assert_eq!(budget.cap(), None, "unbounded budgets stay unbounded");
    }

    #[test]
    fn raise_cap_extends_a_bounded_budget() {
        let budget = EvalBudget::new(Some(0));
        budget.charge(3);
        assert!(budget.exhausted());
        budget.raise_cap(10);
        assert_eq!(budget.cap(), Some(10));
        assert!(!budget.exhausted());
        assert_eq!(budget.spent(), 3);
    }

    #[test]
    fn concurrent_overshoot_is_bounded_by_one_step_per_worker() {
        // The documented contract: post-hoc charging with a poll between
        // steps lets every worker overshoot by at most one step's worth.
        // Workers charge only after observing a non-exhausted budget, so
        // the aggregate overshoot is <= workers x step_cost.
        const WORKERS: u64 = 8;
        const STEP_COST: u64 = 3;
        const CAP: u64 = 1_000;
        let budget = EvalBudget::new(Some(CAP));
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                s.spawn(|| {
                    while !budget.exhausted() {
                        budget.charge(STEP_COST);
                    }
                });
            }
        });
        let raw = budget.spent();
        assert!(raw >= CAP, "every worker runs until exhaustion");
        assert!(
            raw <= CAP + WORKERS * STEP_COST,
            "aggregate overshoot {raw} exceeds the {WORKERS} x {STEP_COST} bound"
        );
    }

    #[test]
    fn ledger_sums_what_its_cells_spend_across_threads() {
        // Each worker charges its own cell until the cell runs dry. The
        // ledger's spend is their sum, overshoot included: the total the
        // campaign report splits into `spent` and `overshoot`.
        const WORKERS: usize = 8;
        const STEP_COST: u64 = 3;
        let ledger = CellLedger::new(Some(800), WORKERS);
        for (i, units) in CellLedger::split_even(800, WORKERS).into_iter().enumerate() {
            ledger.grant(i, units);
        }
        std::thread::scope(|s| {
            for i in 0..WORKERS {
                let cell = ledger.cell(i);
                s.spawn(move || {
                    while !cell.exhausted() {
                        cell.charge(STEP_COST);
                    }
                });
            }
        });
        // 100 units a cell in steps of 3: each cell stops at 102.
        assert_eq!(ledger.spent(), WORKERS as u64 * 102);
        assert!(ledger.exhausted());
        assert_eq!(ledger.remaining(), Some(0));
    }

    #[test]
    fn ledger_grants_from_what_its_cells_have_not_spent() {
        let ledger = CellLedger::new(Some(100), 4);
        for (i, units) in CellLedger::split_even(100, 4).into_iter().enumerate() {
            ledger.grant(i, units);
        }
        for i in 0..4 {
            assert_eq!(ledger.cell(i).cap(), Some(25));
        }
        // A cell's spending counts against the campaign cap.
        ledger.cell(0).charge(25);
        assert!(ledger.cell(0).exhausted());
        assert_eq!(ledger.spent(), 25);
        assert_eq!(ledger.remaining(), Some(75));
        assert!(!ledger.exhausted());
    }

    #[test]
    fn unbounded_ledger_cells_are_unbounded() {
        let ledger = CellLedger::new(None, 3);
        assert_eq!(ledger.cell(1).cap(), None);
        assert_eq!(ledger.remaining(), None);
        ledger.grant(1, 10);
        assert_eq!(ledger.cell(1).cap(), None);
        ledger.cell(1).charge(10);
        assert!(!ledger.exhausted());
    }

    #[test]
    fn split_even_distributes_the_remainder_first() {
        assert_eq!(CellLedger::split_even(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(CellLedger::split_even(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(CellLedger::split_even(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(CellLedger::split_even(0, 3), vec![0, 0, 0]);
    }

    #[test]
    fn split_weighted_sums_exactly_and_follows_shares() {
        let grants = CellLedger::split_weighted(100, &[1.0, 1.0, 2.0]);
        assert_eq!(grants.iter().sum::<u64>(), 100);
        assert_eq!(grants, vec![25, 25, 50]);
        let uneven = CellLedger::split_weighted(10, &[1.0, 1.0, 1.0]);
        assert_eq!(uneven.iter().sum::<u64>(), 10);
        assert_eq!(uneven, vec![4, 3, 3], "largest remainders win, ties first");
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn split_weighted_rejects_bad_shares() {
        let _ = CellLedger::split_weighted(10, &[1.0, -2.0]);
    }

    #[test]
    fn rung_ledger_promotes_the_first_arrival_immediately() {
        let mut ledger = RungLedger::new(3, 0.5);
        assert_eq!(ledger.rungs(), 3);
        ledger.record(0, 2, 1.0);
        // One record seen: keep = ceil(0.5) = 1, so the lone cell goes up.
        assert_eq!(ledger.newly_promotable(0), vec![2]);
        assert_eq!(ledger.recorded(0), 1);
        assert_eq!(ledger.score(0, 2), Some(1.0));
        assert_eq!(ledger.score(0, 0), None);
        // Re-asking promotes nothing new.
        assert!(ledger.newly_promotable(0).is_empty());
    }

    #[test]
    fn rung_ledger_grows_the_cut_as_peers_arrive() {
        let mut ledger = RungLedger::new(2, 0.5);
        ledger.record(0, 0, 0.3);
        assert_eq!(ledger.newly_promotable(0), vec![0], "optimistic first cut");
        // A better cell arrives: keep stays ceil(0.5 * 2) = 1 and the
        // newcomer now holds rank 0, unpromoted, so it goes straight up
        // (cell 0's earlier promotion is sticky, not revoked).
        ledger.record(0, 1, 0.9);
        assert_eq!(ledger.newly_promotable(0), vec![1]);
        // Two weaker cells report: keep grows to ceil(0.5 * 4) = 2, but
        // both top-2 slots (0.9, 0.3) are already promoted — nothing new.
        ledger.record(0, 2, 0.1);
        ledger.record(0, 3, 0.2);
        assert!(ledger.newly_promotable(0).is_empty());
        // A fifth record lifts keep to ceil(2.5) = 3: the best unpromoted
        // cell (0.2, cell 3) finally surfaces.
        ledger.record(0, 4, 0.05);
        assert_eq!(ledger.newly_promotable(0), vec![3]);
    }

    #[test]
    fn rung_ledger_breaks_score_ties_by_arrival_order() {
        let mut ledger = RungLedger::new(1, 0.5);
        ledger.record(0, 7, 1.0);
        ledger.record(0, 3, 1.0);
        // keep = 1: the earlier-recorded cell wins the tie.
        assert_eq!(ledger.newly_promotable(0), vec![7]);
    }

    #[test]
    fn rung_ledger_vector_records_promote_the_front_first() {
        let mut ledger = RungLedger::new(1, 0.5);
        // A dominated cell arrives first and promotes optimistically.
        ledger.record_vector(0, 0, 9.0, vec![5.0, 5.0]);
        assert_eq!(ledger.newly_promotable(0), vec![0]);
        // Two non-dominated cells and one worse cell arrive; keep grows
        // to ceil(0.5 * 4) = 2 and the *front* cells surface — despite
        // cell 0 and cell 3 carrying the higher scalar scores.
        ledger.record_vector(0, 1, 0.5, vec![1.0, 4.0]);
        ledger.record_vector(0, 2, 0.4, vec![4.0, 1.0]);
        ledger.record_vector(0, 3, 8.0, vec![6.0, 6.0]);
        assert_eq!(ledger.newly_promotable(0), vec![1, 2]);
        // The scalar accessor still reports the recorded score.
        assert_eq!(ledger.score(0, 3), Some(8.0));
    }

    #[test]
    fn rung_ledger_vector_ties_break_by_arrival_order() {
        let mut ledger = RungLedger::new(1, 0.5);
        ledger.record_vector(0, 4, 1.0, vec![2.0, 2.0]);
        ledger.record_vector(0, 1, 1.0, vec![2.0, 2.0]);
        // keep = 1: identical vectors, the earlier record wins.
        assert_eq!(ledger.newly_promotable(0), vec![4]);
    }

    #[test]
    #[should_panic(expected = "already recorded")]
    fn rung_ledger_rejects_double_records() {
        let mut ledger = RungLedger::new(2, 0.5);
        ledger.record(1, 0, 1.0);
        ledger.record(1, 0, 2.0);
    }

    #[test]
    #[should_panic(expected = "keep_fraction")]
    fn rung_ledger_rejects_degenerate_keep() {
        let _ = RungLedger::new(2, 1.0);
    }
}
