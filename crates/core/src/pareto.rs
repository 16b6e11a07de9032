//! The multi-objective vocabulary behind campaign ranking: objective
//! vectors, non-dominated sorting, crowding distance and hypervolume.
//!
//! The campaign driver historically ranked cells by one scalar
//! [`crate::search_adapter::solution_score`]. This module supplies the
//! alternative: each cell carries an objective vector (QoR error, op
//! cost, evaluation count — all *minimised*), a [`Ranking`] picks how
//! survival decisions order those vectors, and [`rank_order`] implements
//! the NSGA-II-style ordering (non-dominated rank ascending, crowding
//! distance descending, arrival index as the deterministic tie-break)
//! used by the halving/ASHA/Hyperband schedulers when
//! [`Ranking::Pareto`] is selected. [`hypervolume`] measures front
//! quality against a reference point for reports and telemetry.
//!
//! Everything here is orientation-consistent: **smaller is better** in
//! every coordinate, and the reference point is the worst corner. A gain
//! to maximise (Δpower, Δtime) enters negated, with its reference negated
//! too.
//!
//! Determinism: every sort is stable and keyed with `total_cmp`, so rank
//! orders are reproducible bit-for-bit across runs and platforms.

/// One campaign-level objective, always minimised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Accuracy degradation of the best design found (Δaccuracy — the
    /// paper's QoR error).
    QorError,
    /// Power draw of the best design found (the op-cost/area proxy).
    OpCost,
    /// Distinct evaluations charged to the cell (the time proxy).
    Evals,
}

impl Objective {
    /// The stable spec/report name of this objective.
    pub fn name(self) -> &'static str {
        match self {
            Objective::QorError => "qor-error",
            Objective::OpCost => "op-cost",
            Objective::Evals => "evals",
        }
    }

    /// Parses a spec/report name back into an objective.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "qor-error" => Some(Objective::QorError),
            "op-cost" => Some(Objective::OpCost),
            "evals" => Some(Objective::Evals),
            _ => None,
        }
    }
}

/// One declared objective: which quantity, plus an optional explicit
/// reference-point coordinate for hypervolume.
///
/// When `reference` is `None` the campaign derives a deterministic
/// coordinate from the worst observed value (see
/// [`resolve_reference`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveDecl {
    /// The quantity to minimise.
    pub kind: Objective,
    /// Explicit hypervolume reference coordinate (worst acceptable
    /// value); must be finite when present.
    pub reference: Option<f64>,
}

impl ObjectiveDecl {
    /// An objective with no explicit reference coordinate.
    pub fn new(kind: Objective) -> Self {
        Self {
            kind,
            reference: None,
        }
    }

    /// The default objective set: QoR error, op cost, evaluation count —
    /// the vector the tentpole refactor threads through every layer.
    pub fn default_set() -> Vec<Self> {
        vec![
            Self::new(Objective::QorError),
            Self::new(Objective::OpCost),
            Self::new(Objective::Evals),
        ]
    }
}

/// How schedulers order cells when deciding survival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ranking {
    /// Today's behaviour: rank by the scalar solution score, descending.
    /// Byte-identical to the pre-objective-vector campaigns.
    #[default]
    Scalarised,
    /// Non-dominated sorting over the declared objective vector with
    /// crowding-distance tie-breaks (front 0 survives first).
    Pareto,
}

impl Ranking {
    /// The stable spec name of this ranking.
    pub fn name(self) -> &'static str {
        match self {
            Ranking::Scalarised => "scalarised",
            Ranking::Pareto => "pareto",
        }
    }

    /// Parses a spec name back into a ranking.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "scalarised" => Some(Ranking::Scalarised),
            "pareto" => Some(Ranking::Pareto),
            _ => None,
        }
    }
}

/// Per-objective values of the best design a run (or cell) has found,
/// tracked alongside the legacy scalar so scalarised campaigns stay
/// bit-identical while Pareto campaigns get real coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignObjectives {
    /// The legacy scalar solution score of the best design (maximised).
    pub score: f64,
    /// Δaccuracy of that same design (minimised).
    pub qor_error: f64,
    /// Power draw of that same design (minimised).
    pub op_cost: f64,
}

impl DesignObjectives {
    /// The empty tracker: no design seen yet.
    pub fn none() -> Self {
        Self {
            score: f64::NEG_INFINITY,
            qor_error: f64::INFINITY,
            op_cost: f64::INFINITY,
        }
    }

    /// Folds another tracker in, keeping whichever best design has the
    /// strictly greater scalar score (ties keep `self` — arrival order).
    pub fn fold(&mut self, other: Self) {
        if other.score > self.score {
            *self = other;
        }
    }
}

/// `true` if `a` weakly dominates `b`: no worse in every coordinate and
/// strictly better in at least one (minimisation).
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// Non-dominated rank of every point (0 = the Pareto front, 1 = the
/// front once rank 0 is removed, …). `O(n² · fronts)` — campaign grids
/// are tens of cells, not thousands.
pub fn non_dominated_ranks(points: &[Vec<f64>]) -> Vec<usize> {
    let n = points.len();
    let mut rank = vec![usize::MAX; n];
    let mut assigned = 0;
    let mut current = 0;
    while assigned < n {
        // Collect the whole peel before assigning any rank: a point
        // placed on this front must keep counting as a dominator for
        // the rest of the pass.
        let mut front = Vec::new();
        for i in 0..n {
            if rank[i] != usize::MAX {
                continue;
            }
            let dominated = (0..n)
                .any(|j| j != i && rank[j] == usize::MAX && dominates(&points[j], &points[i]));
            if !dominated {
                front.push(i);
            }
        }
        // Mutual NaN weirdness aside, every peel places at least one
        // point; guard against a stall anyway.
        if front.is_empty() {
            front.extend((0..n).filter(|&i| rank[i] == usize::MAX));
        }
        for &i in &front {
            rank[i] = current;
        }
        assigned += front.len();
        current += 1;
    }
    rank
}

/// NSGA-II crowding distance, computed within each rank. Boundary points
/// of a front get `f64::INFINITY`; an objective with zero spread
/// contributes nothing.
pub fn crowding_distances(points: &[Vec<f64>], ranks: &[usize]) -> Vec<f64> {
    let n = points.len();
    let mut dist = vec![0.0_f64; n];
    if n == 0 {
        return dist;
    }
    let dims = points[0].len();
    let max_rank = ranks.iter().copied().max().unwrap_or(0);
    for r in 0..=max_rank {
        let front: Vec<usize> = (0..n).filter(|&i| ranks[i] == r).collect();
        if front.len() <= 2 {
            for &i in &front {
                dist[i] = f64::INFINITY;
            }
            continue;
        }
        #[allow(clippy::needless_range_loop)] // m indexes a column across rows
        for m in 0..dims {
            let mut order = front.clone();
            order.sort_by(|&a, &b| points[a][m].total_cmp(&points[b][m]).then(a.cmp(&b)));
            let lo = points[order[0]][m];
            let hi = points[*order.last().expect("front is non-empty")][m];
            let span = hi - lo;
            // A degenerate objective (zero or non-finite spread) says
            // nothing about crowding — in particular it must not hand
            // arbitrary boundary-∞ to one of several identical vectors,
            // which would defeat the index tie-break.
            if span <= 0.0 || !span.is_finite() {
                continue;
            }
            dist[order[0]] = f64::INFINITY;
            dist[*order.last().expect("front is non-empty")] = f64::INFINITY;
            for w in order.windows(3) {
                let gap = (points[w[2]][m] - points[w[0]][m]) / span;
                if dist[w[1]].is_finite() {
                    dist[w[1]] += gap;
                }
            }
        }
    }
    dist
}

/// The survival order over `points`: indices sorted best-first by
/// (non-dominated rank ascending, crowding distance descending, index
/// ascending). The index tie-break makes elimination deterministic.
pub fn rank_order(points: &[Vec<f64>]) -> Vec<usize> {
    let ranks = non_dominated_ranks(points);
    let crowd = crowding_distances(points, &ranks);
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        ranks[a]
            .cmp(&ranks[b])
            .then(crowd[b].total_cmp(&crowd[a]))
            .then(a.cmp(&b))
    });
    order
}

/// Hypervolume (minimisation): the volume of the union of boxes
/// `[pᵢ, reference]` over points strictly inside the reference box.
/// Points with any coordinate at or beyond the reference (or non-finite)
/// contribute nothing. Exact recursive slicing — fine for the small
/// fronts campaigns produce.
pub fn hypervolume(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    let inside: Vec<Vec<f64>> = points
        .iter()
        .filter(|p| {
            p.len() == reference.len()
                && p.iter()
                    .zip(reference)
                    .all(|(&v, &r)| v.is_finite() && v < r)
        })
        .cloned()
        .collect();
    hv_recurse(&inside, reference)
}

fn hv_recurse(points: &[Vec<f64>], reference: &[f64]) -> f64 {
    if points.is_empty() || reference.is_empty() {
        return 0.0;
    }
    if reference.len() == 1 {
        let best = points.iter().map(|p| p[0]).fold(f64::INFINITY, f64::min);
        return (reference[0] - best).max(0.0);
    }
    // Slice the first axis into slabs; each slab's cross-section is the
    // hypervolume of the points already "active" at its left edge.
    let mut xs: Vec<f64> = points.iter().map(|p| p[0]).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();
    let mut total = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let next = xs.get(i + 1).copied().unwrap_or(reference[0]);
        let width = next - x;
        if width <= 0.0 {
            continue;
        }
        let slab: Vec<Vec<f64>> = points
            .iter()
            .filter(|p| p[0] <= x)
            .map(|p| p[1..].to_vec())
            .collect();
        total += width * hv_recurse(&slab, &reference[1..]);
    }
    total
}

/// Resolves one reference coordinate: the declared value if present,
/// otherwise the worst finite observed value nudged outward by 10 % of
/// its magnitude (at least `1e-6`) so boundary points keep a positive
/// box. Falls back to `1.0` when nothing finite was observed.
pub fn resolve_reference(declared: Option<f64>, observed: impl Iterator<Item = f64>) -> f64 {
    if let Some(r) = declared {
        return r;
    }
    let worst = observed
        .filter(|v| v.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    if worst.is_finite() {
        worst + (worst.abs() * 0.1).max(1e-6)
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominates_is_strict_somewhere() {
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(!dominates(&[0.0, 3.0], &[1.0, 2.0]));
    }

    #[test]
    fn ranks_peel_fronts() {
        let pts = vec![
            vec![1.0, 4.0], // front 0
            vec![4.0, 1.0], // front 0
            vec![2.0, 5.0], // dominated by [1,4]
            vec![5.0, 5.0], // dominated by everything
        ];
        assert_eq!(non_dominated_ranks(&pts), vec![0, 0, 1, 2]);
        // Three objectives, two of them negated gains: a point beaten on
        // all three leaves the front, trade-offs keep their place.
        let pts = vec![
            vec![-10.0, -10.0, 1.0],
            vec![-20.0, -20.0, 0.5],
            vec![-30.0, -5.0, 2.0],
            vec![-5.0, -30.0, 0.1],
        ];
        assert_eq!(non_dominated_ranks(&pts), vec![1, 0, 0, 0]);
        // Equal points never dominate each other: both stay on the front.
        let twins = vec![vec![1.0, 1.0, 1.0], vec![1.0, 1.0, 1.0]];
        assert_eq!(non_dominated_ranks(&twins), vec![0, 0]);
    }

    #[test]
    fn rank_order_prefers_front_then_spread() {
        let pts = vec![
            vec![1.0, 5.0],
            vec![3.0, 3.0],
            vec![5.0, 1.0],
            vec![2.9, 3.1], // barely off the front
        ];
        let order = rank_order(&pts);
        // All of front 0 precedes the dominated point; boundaries (inf
        // crowding) come before the interior point.
        assert_eq!(order[3], 3);
        assert!(order[..2].contains(&0) && order[..2].contains(&2));
        assert_eq!(order[2], 1);
    }

    #[test]
    fn rank_order_tie_breaks_by_index() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]];
        assert_eq!(rank_order(&pts), vec![0, 1, 2]);
    }

    #[test]
    fn hypervolume_matches_rectangles() {
        let r = [4.0, 4.0];
        assert!((hypervolume(&[vec![2.0, 1.0]], &r) - 6.0).abs() < 1e-12);
        // Union of two overlapping boxes: 2*3 + 3*2 - 2*2 = 8.
        let hv = hypervolume(&[vec![2.0, 1.0], vec![1.0, 2.0]], &r);
        assert!((hv - 8.0).abs() < 1e-12);
        // A dominated point adds nothing.
        let hv = hypervolume(&[vec![1.0, 1.0], vec![2.0, 2.0]], &r);
        assert!((hv - 9.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_three_dims() {
        let r = [2.0, 2.0, 2.0];
        let hv = hypervolume(&[vec![0.0, 0.0, 0.0]], &r);
        assert!((hv - 8.0).abs() < 1e-12);
        let hv2 = hypervolume(&[vec![0.0, 0.0, 0.0], vec![1.0, 1.0, 1.0]], &r);
        assert!((hv2 - 8.0).abs() < 1e-12, "dominated point adds nothing");
    }

    #[test]
    fn hypervolume_ignores_points_outside_the_box() {
        let r = [1.0, 1.0];
        assert_eq!(hypervolume(&[vec![1.0, 0.0]], &r), 0.0);
        assert_eq!(hypervolume(&[vec![2.0, -5.0]], &r), 0.0);
        assert_eq!(hypervolume(&[vec![f64::INFINITY, 0.0]], &r), 0.0);
        assert_eq!(hypervolume(&[vec![f64::NAN, 0.0]], &r), 0.0);
        assert_eq!(hypervolume(&[], &r), 0.0);
    }

    #[test]
    fn reference_resolution_is_deterministic() {
        assert_eq!(resolve_reference(Some(7.5), [1.0].into_iter()), 7.5);
        let derived = resolve_reference(None, [2.0, f64::INFINITY, 5.0].into_iter());
        assert!((derived - 5.5).abs() < 1e-9);
        assert_eq!(resolve_reference(None, std::iter::empty()), 1.0);
    }

    #[test]
    fn design_objectives_fold_keeps_strictly_better_scores() {
        let mut best = DesignObjectives::none();
        best.fold(DesignObjectives {
            score: 1.0,
            qor_error: 3.0,
            op_cost: 4.0,
        });
        best.fold(DesignObjectives {
            score: 1.0,
            qor_error: 0.0,
            op_cost: 0.0,
        });
        assert_eq!(best.qor_error, 3.0, "ties keep the earlier design");
        best.fold(DesignObjectives {
            score: 2.0,
            qor_error: 1.0,
            op_cost: 2.0,
        });
        assert_eq!(best.score, 2.0);
        assert_eq!(best.op_cost, 2.0);
    }

    #[test]
    fn names_round_trip() {
        for o in [Objective::QorError, Objective::OpCost, Objective::Evals] {
            assert_eq!(Objective::from_name(o.name()), Some(o));
        }
        for r in [Ranking::Scalarised, Ranking::Pareto] {
            assert_eq!(Ranking::from_name(r.name()), Some(r));
        }
        assert_eq!(Objective::from_name("nope"), None);
        assert_eq!(Ranking::from_name("nope"), None);
    }
}
