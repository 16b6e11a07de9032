//! The tabular action-value store.

/// A Q-table: maps states to per-action value rows, created lazily with
/// every value 0.
///
/// States are dense ordinals (`0, 1, 2, …`), as an environment that
/// numbers its finite state space hands them out. Rows live back to back
/// in one flat arena, addressed through a slot vector indexed by state, so
/// a lookup is two array reads and visiting a new state appends
/// `n_actions` values instead of allocating a row of its own. Row ids are
/// assigned in visit order and never move; the slot vector grows to the
/// largest state seen.
///
/// ```
/// use ax_agents::qtable::QTable;
///
/// let mut q = QTable::new(3);
/// q.update(4, 1, 0.5, |old, target| old + 0.1 * (target - old));
/// assert!(q.value(4, 1) > 0.0);
/// assert_eq!(q.value(4, 0), 0.0);
/// assert_eq!(q.best_action(4), 1);
/// ```
#[derive(Debug, Clone)]
pub struct QTable {
    n_actions: usize,
    /// `slots[s]` is state `s`'s row id, or [`VACANT`] before its first
    /// visit.
    slots: Vec<u32>,
    /// Row `r` occupies `values[r * n_actions..(r + 1) * n_actions]`.
    values: Vec<f64>,
}

/// The slot of a state with no row yet.
const VACANT: u32 = u32::MAX;

impl QTable {
    /// A table over `n_actions` actions.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions` is zero.
    pub fn new(n_actions: usize) -> Self {
        assert!(n_actions > 0, "Q-table needs at least one action");
        Self {
            n_actions,
            slots: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of actions per state.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Number of states visited so far.
    pub fn n_states(&self) -> usize {
        self.values.len() / self.n_actions
    }

    /// The row id of `state`, or `None` before its first visit.
    fn row_of(&self, state: usize) -> Option<usize> {
        match self.slots.get(state) {
            Some(&id) if id != VACANT => Some(id as usize),
            _ => None,
        }
    }

    /// The row id of `state`, appending an initialised row on the first
    /// visit.
    fn row_id(&mut self, state: usize) -> usize {
        if let Some(id) = self.row_of(state) {
            return id;
        }
        let id = self.n_states();
        let id32 = u32::try_from(id)
            .ok()
            .filter(|&id| id != VACANT)
            .expect("Q-table row ids fit in u32");
        if state >= self.slots.len() {
            self.slots.resize(state + 1, VACANT);
        }
        self.slots[state] = id32;
        self.values.resize(self.values.len() + self.n_actions, 0.0);
        id
    }

    /// The arena index of `(state, action)`, initialising the row lazily.
    /// Stable for the table's lifetime: [`QTable::cells_mut`]`()[i]` is
    /// that entry however many states are visited later.
    pub(crate) fn cell(&mut self, state: usize, action: usize) -> usize {
        assert!(action < self.n_actions, "action {action} out of range");
        self.row_id(state) * self.n_actions + action
    }

    /// Every entry of every visited state, indexed by [`QTable::cell`].
    pub(crate) fn cells_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The action values of `state` (initialising lazily).
    pub fn row(&mut self, state: usize) -> &mut [f64] {
        let start = self.row_id(state) * self.n_actions;
        &mut self.values[start..start + self.n_actions]
    }

    /// The action values of `state` without inserting; `None` if unvisited.
    pub fn row_ref(&self, state: usize) -> Option<&[f64]> {
        let start = self.row_of(state)? * self.n_actions;
        Some(&self.values[start..start + self.n_actions])
    }

    /// The value of `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn value(&self, state: usize, action: usize) -> f64 {
        assert!(action < self.n_actions, "action {action} out of range");
        self.row_ref(state).map_or(0.0, |row| row[action])
    }

    /// Greatest action value at `state`: [`row_max`] of its row, or 0 for
    /// an unvisited state.
    pub fn max_value(&self, state: usize) -> f64 {
        self.row_ref(state).map_or(0.0, row_max)
    }

    /// Lowest-index action attaining the maximum value at `state`.
    pub fn best_action(&self, state: usize) -> usize {
        self.row_ref(state).map_or(0, first_max)
    }

    /// Applies `f(old_value, target)` to `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn update(
        &mut self,
        state: usize,
        action: usize,
        target: f64,
        f: impl FnOnce(f64, f64) -> f64,
    ) {
        let cell = self.cell(state, action);
        self.values[cell] = f(self.values[cell], target);
    }

    /// Directly sets `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is out of range.
    pub fn set(&mut self, state: usize, action: usize, value: f64) {
        let cell = self.cell(state, action);
        self.values[cell] = value;
    }

    /// Forgets every row and moves the emptied slot vector and arena into
    /// `spare`, freeing what `spare` held; the table then holds no memory.
    pub(crate) fn release(&mut self, spare: &mut Buffers) {
        spare.slots = std::mem::take(&mut self.slots);
        spare.values = std::mem::take(&mut self.values);
        spare.slots.clear();
        spare.values.clear();
    }

    /// Takes `spare`'s buffers for a table that has no row yet, leaving
    /// the table's own empty ones in `spare`.
    pub(crate) fn adopt(&mut self, spare: &mut Buffers) {
        debug_assert!(self.values.is_empty() && spare.values.is_empty());
        std::mem::swap(&mut self.slots, &mut spare.slots);
        std::mem::swap(&mut self.values, &mut spare.values);
    }
}

/// The slot vector and arena of a [`QTable`] that holds no row: what
/// [`QTable::release`] leaves for a later table to adopt.
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    slots: Vec<u32>,
    values: Vec<f64>,
}

/// The greatest entry of `row`, or −∞ if none is comparable: the value of
/// a fold over `f64::max`, with the sign of a zero maximum unspecified.
///
/// Four running maxima over interleaved entries, each kept by a `>`
/// select, so no step of the scan waits on the one before or branches on
/// a value. NaN never compares greater and is never kept; `-0.0` and
/// `0.0` compare equal, so whichever comes first stays.
pub fn row_max(row: &[f64]) -> f64 {
    let keep = |max: f64, v: f64| if v > max { v } else { max };
    let mut lanes = [f64::NEG_INFINITY; 4];
    let mut chunks = row.chunks_exact(4);
    for chunk in &mut chunks {
        for (max, &v) in lanes.iter_mut().zip(chunk) {
            *max = keep(*max, v);
        }
    }
    for &v in chunks.remainder() {
        lanes[0] = keep(lanes[0], v);
    }
    keep(keep(lanes[0], lanes[1]), keep(lanes[2], lanes[3]))
}

/// The lowest index attaining the row's maximum (deterministic greedy
/// choice for reproducible evaluation).
pub(crate) fn first_max(row: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_initialisation() {
        let mut q = QTable::new(4);
        assert_eq!(q.value(7, 3), 0.0);
        assert_eq!(q.n_states(), 0);
        q.row(7);
        assert_eq!(q.n_states(), 1);
        assert_eq!(q.row_ref(7).unwrap(), &[0.0; 4]);
        assert!(q.row_ref(8).is_none());
        assert!(q.row_ref(3).is_none(), "a slot below a visited state");
    }

    #[test]
    fn row_ids_survive_arena_growth() {
        let mut q = QTable::new(3);
        let first = q.cell(10, 2);
        q.set(10, 2, 9.0);
        // Grow the arena well past its first allocation.
        for s in 0..1_000 {
            q.update(s + 100, s % 3, 1.0, |old, t| old + t);
        }
        assert_eq!(q.cell(10, 2), first, "row id moved");
        assert_eq!(q.cells_mut()[first], 9.0);
        assert_eq!(q.row_ref(10).unwrap(), &[0.0, 0.0, 9.0]);
        assert_eq!(q.row_ref(100).unwrap(), &[1.0, 0.0, 0.0]);
        assert_eq!(q.n_states(), 1_001);
        // Reading unvisited states neither allocates nor changes them.
        assert!(q.row_ref(5_000).is_none());
        assert_eq!(q.value(5_000, 1), 0.0);
        assert_eq!(q.max_value(5_000), 0.0);
        assert_eq!(q.best_action(5_000), 0);
        assert_eq!(q.n_states(), 1_001);
    }

    #[test]
    fn rows_are_appended_in_visit_order() {
        let mut q = QTable::new(2);
        for (visit, state) in [9, 2, 40, 0].into_iter().enumerate() {
            assert_eq!(q.cell(state, 1), visit * 2 + 1);
        }
        assert_eq!(q.cell(2, 0), 2, "a revisit keeps its row");
    }

    #[test]
    fn a_released_table_hands_its_buffers_to_an_adopting_one() {
        let mut q = QTable::new(3);
        for s in 0..100 {
            q.set(s * 7, s % 3, 1.0);
        }
        let mut spare = Buffers::default();
        q.release(&mut spare);
        assert_eq!(q.n_states(), 0);
        assert_eq!((q.slots.capacity(), q.values.capacity()), (0, 0));
        let grown = (spare.slots.capacity(), spare.values.capacity());
        assert!(grown.0 >= 694 && grown.1 >= 300, "{grown:?}");
        assert!(spare.slots.is_empty() && spare.values.is_empty());

        let mut next = QTable::new(5);
        next.adopt(&mut spare);
        assert_eq!((next.slots.capacity(), next.values.capacity()), grown);
        assert_eq!((spare.slots.capacity(), spare.values.capacity()), (0, 0));
        assert!(next.row_ref(0).is_none(), "an adopted table holds no row");
        next.set(2, 4, 3.0);
        assert_eq!(next.row_ref(2).unwrap(), &[0.0, 0.0, 0.0, 0.0, 3.0]);
        assert_eq!(next.n_states(), 1);
    }

    #[test]
    fn best_action_breaks_ties_low() {
        let mut q = QTable::new(3);
        q.set(1, 0, 5.0);
        q.set(1, 2, 5.0);
        assert_eq!(q.best_action(1), 0);
        q.set(1, 2, 6.0);
        assert_eq!(q.best_action(1), 2);
        assert_eq!(q.best_action(99), 0); // unvisited
    }

    #[test]
    fn update_applies_learning_rule() {
        let mut q = QTable::new(2);
        q.update(3, 1, 10.0, |old, t| old + 0.5 * (t - old));
        assert_eq!(q.value(3, 1), 5.0);
        q.update(3, 1, 10.0, |old, t| old + 0.5 * (t - old));
        assert_eq!(q.value(3, 1), 7.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn value_rejects_bad_action() {
        let q = QTable::new(2);
        q.value(0, 2);
    }

    #[test]
    #[should_panic(expected = "at least one action")]
    fn zero_actions_rejected() {
        let _ = QTable::new(0);
    }
}
