//! Exact integer feasibility search for `P(R₁,…,R_m)`.
//!
//! For cyclic fixed schemas, GCPB(H) is NP-complete (Theorem 4), so *some*
//! exponential-worst-case search is unavoidable unless P = NP. This module
//! provides that search, and it is *one* search: [`solve`],
//! [`solve_masked`], [`count_solutions`] and [`enumerate_solutions`] all
//! run the same fail-first DFS (Haralick & Elliott's principle: branch
//! where the program is tightest). Each node
//!
//! * **picks the row** with the fewest unassigned variables, ties broken
//!   by smallest residual (the row's remaining right-hand side), then by
//!   lowest row index. Rows sit in a bucket queue keyed by their
//!   unassigned count, so a pick scans only the lowest non-empty bucket;
//! * **picks the variable** of that row with the *largest* upper bound
//!   `ub(v)` = the minimum residual over the rows `v` hits (ties: lowest
//!   variable index), and tries its values from high to low. A variable
//!   that is the last unassigned one on some row is **forced** to that
//!   row's residual, and a row whose last variable is assigned must have
//!   residual 0;
//! * **checks the capacity bound** after each assignment: every open row
//!   whose capacity can have changed — the rows of the assigned variable
//!   and the rows sharing a variable with them — must still satisfy
//!   `residual ≤ Σ ub(u)` over its unassigned variables `u`. Any
//!   completion of the partial point satisfies it, so pruning by it never
//!   loses a solution, and counts and enumerations stay exact.
//!
//! The presolve refutes unequal bag totals (the `∅`-marginal condition)
//! and checks the capacity bound on every row before the first node. A
//! node is one value assignment tried; an optional **node budget** and a
//! polled [`Deadline`] bound the search.
//!
//! The search enumerates or counts *all* solutions, which is how the
//! `2^{n-1}`-witness family of Section 3 (experiment E1) is verified.

use crate::ConsistencyProgram;
use bagcons_core::{AbortReason, Deadline};

/// Knobs for the exact solver.
#[derive(Clone, Debug, Default)]
pub struct SolverConfig {
    /// Abort after this many search nodes (`None` = unlimited).
    pub node_limit: Option<u64>,
    /// Cooperative wall-clock/cancellation governance: polled every
    /// [`NODES_PER_POLL`] search nodes; an expired deadline aborts the
    /// search with [`IlpOutcome::Aborted`]. [`Deadline::NONE`] (the
    /// default) never fires.
    pub deadline: Deadline,
}

impl SolverConfig {
    /// Starts building a configuration (no node budget, no deadline).
    pub fn builder() -> SolverConfigBuilder {
        SolverConfigBuilder::default()
    }
}

/// Builder for [`SolverConfig`]; see [`SolverConfig::builder`].
#[derive(Clone, Debug, Default)]
pub struct SolverConfigBuilder {
    cfg: SolverConfig,
}

impl SolverConfigBuilder {
    /// Aborts the search after `nodes` search nodes (reported as
    /// [`IlpOutcome::Aborted`] with [`AbortReason::NodeBudget`]).
    pub fn node_limit(mut self, nodes: u64) -> Self {
        self.cfg.node_limit = Some(nodes);
        self
    }

    /// Aborts the search when `deadline` fires (polled every
    /// [`NODES_PER_POLL`] nodes; reported as [`IlpOutcome::Aborted`]).
    pub fn deadline(mut self, deadline: Deadline) -> Self {
        self.cfg.deadline = deadline;
        self
    }

    /// Removes any node budget (the default).
    pub fn unlimited(mut self) -> Self {
        self.cfg.node_limit = None;
        self
    }

    /// Builds the configuration (infallible — every knob combination is
    /// legal).
    pub fn build(self) -> SolverConfig {
        self.cfg
    }
}

/// Result of an exact feasibility search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IlpOutcome {
    /// A feasible integer point (a witness bag in vector form).
    Sat(Vec<u64>),
    /// Proven infeasible.
    Unsat,
    /// Search aborted before an answer — node budget exhausted, deadline
    /// expired, or cancelled; feasibility unknown. The reason travels to
    /// the decision layer, which surfaces it in reports and JSON.
    Aborted(AbortReason),
}

impl IlpOutcome {
    /// True iff the outcome is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, IlpOutcome::Sat(_))
    }
}

/// Statistics from a solver run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolveStats {
    /// Search nodes explored (value assignments tried).
    pub nodes: u64,
}

/// Search nodes between deadline polls: frequent enough that a 10 ms
/// deadline stops an adversarial search promptly, sparse enough that the
/// `Instant::now()` call vanishes against the per-node work.
pub const NODES_PER_POLL: u64 = 128;

struct Search<'a> {
    prog: &'a ConsistencyProgram,
    /// Remaining right-hand side of each row.
    residual: Vec<u64>,
    /// Unassigned variables of each row; banned variables never count.
    remaining: Vec<u32>,
    /// Banned variables are assigned (to 0) from the start.
    assigned: Vec<bool>,
    x: Vec<u64>,
    /// `buckets[k]` holds the rows with `remaining == k`, in no particular
    /// order; `slot[r]` is row `r`'s index inside its bucket.
    buckets: Vec<Vec<u32>>,
    slot: Vec<u32>,
    /// No row with `remaining ≥ 1` sits in a bucket below this key.
    lowest: usize,
    /// `seen[r] == epoch` marks rows already checked after this assignment.
    seen: Vec<u64>,
    epoch: u64,
    nodes: u64,
    node_limit: Option<u64>,
    deadline: Deadline,
}

enum Found {
    Yes,
    No,
    Aborted(AbortReason),
}

impl<'a> Search<'a> {
    /// Sets up the search, or `None` when the presolve refutes the
    /// program.
    fn new(prog: &'a ConsistencyProgram, banned: &[bool], cfg: &SolverConfig) -> Option<Self> {
        let n = prog.num_variables();
        let rows = prog.num_constraints();
        debug_assert_eq!(banned.len(), n);
        // Every bag must have the same total count (the ∅-marginal
        // condition): any witness `T` has `‖T‖u = ‖R_i‖u` for all `i`.
        let totals = prog.bag_totals();
        if totals.windows(2).any(|w| w[0] != w[1]) {
            return None;
        }
        let remaining: Vec<u32> = (0..rows)
            .map(|r| {
                prog.vars_of(r)
                    .iter()
                    .filter(|&&v| !banned[v as usize])
                    .count() as u32
            })
            .collect();
        let top = remaining.iter().copied().max().unwrap_or(0) as usize;
        let mut buckets = vec![Vec::new(); top + 1];
        let mut slot = vec![0u32; rows];
        for (r, &k) in remaining.iter().enumerate() {
            slot[r] = buckets[k as usize].len() as u32;
            buckets[k as usize].push(r as u32);
        }
        let search = Search {
            prog,
            residual: prog.rhs(),
            remaining,
            assigned: banned.to_vec(),
            x: vec![0; n],
            buckets,
            slot,
            lowest: 1,
            seen: vec![0; rows],
            epoch: 0,
            nodes: 0,
            node_limit: cfg.node_limit,
            deadline: cfg.deadline.clone(),
        };
        // The capacity bound on every row (a row no variable covers has
        // capacity 0, so it must already be satisfied).
        (0..rows).all(|r| search.has_capacity(r)).then_some(search)
    }

    /// `ub(v)`: the minimum residual over the rows `v` hits.
    fn ub(&self, v: usize) -> u64 {
        self.prog
            .rows_of(v)
            .iter()
            .map(|&r| self.residual[r as usize])
            .min()
            .unwrap_or(u64::MAX)
    }

    /// The capacity bound of row `r`: its residual does not exceed the
    /// sum of its unassigned variables' upper bounds.
    fn has_capacity(&self, r: usize) -> bool {
        let need = self.residual[r];
        let mut cap = 0u64;
        for &u in self.prog.vars_of(r) {
            if cap >= need {
                return true;
            }
            if !self.assigned[u as usize] {
                cap = cap.saturating_add(self.ub(u as usize));
            }
        }
        cap >= need
    }

    /// Checks the capacity bound on every open row whose capacity can
    /// have changed by assigning `v`: the rows of the unassigned
    /// variables that share a row with `v`. (A row of `v` with no
    /// unassigned variable left is closed; `assign` checks it.)
    fn capacity_ok_around(&mut self, v: usize) -> bool {
        let prog = self.prog;
        self.epoch += 1;
        for &row in prog.rows_of(v) {
            for &u in prog.vars_of(row as usize) {
                if self.assigned[u as usize] {
                    continue;
                }
                for &r in prog.rows_of(u as usize) {
                    let r = r as usize;
                    if self.seen[r] != self.epoch {
                        self.seen[r] = self.epoch;
                        if !self.has_capacity(r) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Moves row `r` to the bucket of its current `remaining` count, from
    /// bucket `from`.
    fn rebucket(&mut self, r: usize, from: usize) {
        let to = self.remaining[r] as usize;
        let at = self.slot[r] as usize;
        self.buckets[from].swap_remove(at);
        if let Some(&moved) = self.buckets[from].get(at) {
            self.slot[moved as usize] = at as u32;
        }
        self.slot[r] = self.buckets[to].len() as u32;
        self.buckets[to].push(r as u32);
        if to >= 1 && to < self.lowest {
            self.lowest = to;
        }
    }

    /// Assigns `x_v = val`; false when a row of `v` closes with a nonzero
    /// residual. The assignment is applied in full either way, so
    /// [`Search::unassign`] always undoes it.
    fn assign(&mut self, v: usize, val: u64) -> bool {
        let prog = self.prog;
        self.x[v] = val;
        self.assigned[v] = true;
        let mut ok = true;
        for &row in prog.rows_of(v) {
            let r = row as usize;
            self.residual[r] -= val;
            self.remaining[r] -= 1;
            self.rebucket(r, self.remaining[r] as usize + 1);
            ok &= self.remaining[r] > 0 || self.residual[r] == 0;
        }
        ok
    }

    fn unassign(&mut self, v: usize, val: u64) {
        let prog = self.prog;
        for &row in prog.rows_of(v) {
            let r = row as usize;
            self.residual[r] += val;
            self.remaining[r] += 1;
            self.rebucket(r, self.remaining[r] as usize - 1);
        }
        self.assigned[v] = false;
        self.x[v] = 0;
    }

    /// The open row with the fewest unassigned variables, then the
    /// smallest residual, then the lowest index; `None` once every row is
    /// closed.
    fn pick_row(&mut self) -> Option<usize> {
        let k = (self.lowest..self.buckets.len()).find(|&k| !self.buckets[k].is_empty())?;
        self.lowest = k;
        self.buckets[k]
            .iter()
            .map(|&r| (self.residual[r as usize], r as usize))
            .min()
            .map(|(_, r)| r)
    }

    /// The unassigned variable of row `r` with the largest upper bound
    /// (ties: lowest index), with that bound.
    fn pick_var(&self, r: usize) -> (usize, u64) {
        let mut best = None;
        for &u in self.prog.vars_of(r) {
            let u = u as usize;
            if !self.assigned[u] {
                let ub = self.ub(u);
                if best.is_none_or(|(_, b)| ub > b) {
                    best = Some((u, ub));
                }
            }
        }
        best.expect("an open row has an unassigned variable")
    }

    /// Counts one node, or reports why the search must stop first.
    fn tick(&mut self) -> Option<AbortReason> {
        if self.node_limit.is_some_and(|limit| self.nodes >= limit) {
            return Some(AbortReason::NodeBudget);
        }
        self.nodes += 1;
        if self.nodes % NODES_PER_POLL == 0 {
            return self.deadline.poll();
        }
        None
    }

    /// Searches the subtree below the current partial point; calls
    /// `on_solution` for each feasible point, which returns `true` to
    /// continue enumerating.
    fn search(&mut self, on_solution: &mut dyn FnMut(&[u64]) -> bool) -> Found {
        let Some(r) = self.pick_row() else {
            // Every row is closed, and each closed with residual 0. (With
            // m = 0 there are no rows: the all-zero point is the one
            // solution.)
            debug_assert!(self.residual.iter().all(|&r| r == 0));
            return if on_solution(&self.x) {
                Found::No
            } else {
                Found::Yes
            };
        };
        let (v, ub) = self.pick_var(r);
        let mut forced: Option<u64> = None;
        for &row in self.prog.rows_of(v) {
            let row = row as usize;
            if self.remaining[row] == 1 {
                match forced {
                    None => forced = Some(self.residual[row]),
                    Some(f) if f != self.residual[row] => return Found::No,
                    Some(_) => {}
                }
            }
        }
        let (lo, hi) = match forced {
            Some(f) if f > ub => return Found::No,
            Some(f) => (f, f),
            None => (0, ub),
        };
        for val in (lo..=hi).rev() {
            if let Some(reason) = self.tick() {
                return Found::Aborted(reason);
            }
            let found = if self.assign(v, val) && self.capacity_ok_around(v) {
                self.search(on_solution)
            } else {
                Found::No
            };
            self.unassign(v, val);
            if !matches!(found, Found::No) {
                return found;
            }
        }
        Found::No
    }
}

/// Decides feasibility of `prog` over the non-negative integers, with the
/// search statistics.
pub fn solve(prog: &ConsistencyProgram, cfg: &SolverConfig) -> (IlpOutcome, SolveStats) {
    solve_masked(prog, cfg, &vec![false; prog.num_variables()])
}

/// Feasibility with some variables banned (forced to 0) — the
/// self-reducibility hook used by support minimization.
pub fn solve_masked(
    prog: &ConsistencyProgram,
    cfg: &SolverConfig,
    banned: &[bool],
) -> (IlpOutcome, SolveStats) {
    // Entry poll: an already-expired deadline aborts before presolve
    // touches the program, so even instances that presolve would settle
    // respect the governance contract deterministically.
    if let Some(reason) = cfg.deadline.poll() {
        return (IlpOutcome::Aborted(reason), SolveStats::default());
    }
    let Some(mut search) = Search::new(prog, banned, cfg) else {
        return (IlpOutcome::Unsat, SolveStats::default());
    };
    let mut solution = None;
    let found = search.search(&mut |x| {
        solution = Some(x.to_vec());
        false // stop at first solution
    });
    let stats = SolveStats {
        nodes: search.nodes,
    };
    let outcome = match found {
        Found::Yes => IlpOutcome::Sat(solution.expect("solution recorded")),
        Found::No => IlpOutcome::Unsat,
        Found::Aborted(reason) => IlpOutcome::Aborted(reason),
    };
    (outcome, stats)
}

/// Counts feasible integer points, stopping at `limit`. Returns
/// `(count, complete)`; `complete = false` means the count hit the limit
/// (or the node budget) and is a lower bound.
pub fn count_solutions(prog: &ConsistencyProgram, cfg: &SolverConfig, limit: u64) -> (u64, bool) {
    let banned = vec![false; prog.num_variables()];
    let Some(mut search) = Search::new(prog, &banned, cfg) else {
        return (0, true);
    };
    let mut count = 0u64;
    let found = search.search(&mut |_| {
        count += 1;
        count < limit
    });
    (count, matches!(found, Found::No))
}

/// Enumerates all feasible points (up to `limit`); each is a witness bag
/// in vector form. Returns `(solutions, complete)`.
pub fn enumerate_solutions(
    prog: &ConsistencyProgram,
    cfg: &SolverConfig,
    limit: usize,
) -> (Vec<Vec<u64>>, bool) {
    let banned = vec![false; prog.num_variables()];
    let Some(mut search) = Search::new(prog, &banned, cfg) else {
        return (Vec::new(), true);
    };
    let mut out = Vec::new();
    let found = search.search(&mut |x| {
        out.push(x.to_vec());
        out.len() < limit
    });
    (out, matches!(found, Found::No))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::{Attr, Bag, Schema, Value};
    use proptest::prelude::*;

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    /// The static DFS the fail-first search replaced, kept as its slow
    /// oracle: variables in index order, values from high to low, forcing
    /// and the per-row prune — no presolve, no capacity bound, no budget.
    struct StaticDfs<'a> {
        prog: &'a ConsistencyProgram,
        banned: &'a [bool],
        residual: Vec<u64>,
        remaining: Vec<u32>,
        x: Vec<u64>,
    }

    impl StaticDfs<'_> {
        /// Visits the feasible points below variable `v` until
        /// `on_solution` returns false; true iff it stopped early.
        fn dfs(&mut self, v: usize, on_solution: &mut dyn FnMut(&[u64]) -> bool) -> bool {
            if v == self.prog.num_variables() {
                return self.residual.iter().all(|&r| r == 0) && !on_solution(&self.x);
            }
            let rows = self.prog.rows_of(v);
            if self.banned[v] || rows.is_empty() {
                // banned, or unconstrained (m = 0): canonically 0
                return self.dfs(v + 1, on_solution);
            }
            let mut ub = u64::MAX;
            let mut forced: Option<u64> = None;
            for &row in rows {
                let r = row as usize;
                ub = ub.min(self.residual[r]);
                if self.remaining[r] == 1 {
                    match forced {
                        None => forced = Some(self.residual[r]),
                        Some(f) if f != self.residual[r] => return false,
                        Some(_) => {}
                    }
                }
            }
            let (lo, hi) = match forced {
                Some(f) if f > ub => return false,
                Some(f) => (f, f),
                None => (0, ub),
            };
            for val in (lo..=hi).rev() {
                self.x[v] = val;
                let mut ok = true;
                for &row in rows {
                    let r = row as usize;
                    self.residual[r] -= val;
                    self.remaining[r] -= 1;
                    ok &= self.remaining[r] > 0 || self.residual[r] == 0;
                }
                let stop = ok && self.dfs(v + 1, on_solution);
                for &row in rows {
                    self.residual[row as usize] += val;
                    self.remaining[row as usize] += 1;
                }
                self.x[v] = 0;
                if stop {
                    return true;
                }
            }
            false
        }
    }

    /// Up to `limit` feasible points of `prog` under `banned`, found by
    /// the static DFS oracle.
    fn oracle_solutions(prog: &ConsistencyProgram, banned: &[bool], limit: usize) -> Vec<Vec<u64>> {
        let mut remaining = vec![0u32; prog.num_constraints()];
        for v in (0..prog.num_variables()).filter(|&v| !banned[v]) {
            for &row in prog.rows_of(v) {
                remaining[row as usize] += 1;
            }
        }
        let mut dfs = StaticDfs {
            prog,
            banned,
            residual: prog.rhs(),
            remaining,
            x: vec![0; prog.num_variables()],
        };
        let mut out = Vec::new();
        dfs.dfs(0, &mut |x| {
            out.push(x.to_vec());
            out.len() < limit
        });
        out
    }

    /// A tiny C3/C4 instance: the cycle marginals of the planted witness
    /// `rows` (values taken mod `domain`), then per `variant`:
    /// 0 = planted (consistent); 1 = one tuple of one bag bumped by one;
    /// 2 = one unit of bag 0 moved to a tuple with another first value
    /// (totals kept); 3 = overlap-Tseitin: the parity gadget of the cycle
    /// added on the same values `{0,1}`, scaled by `1 + pick % 3`
    /// (pairwise consistent, globally either way).
    fn tiny_cycle(
        k: u32,
        domain: u64,
        rows: &[(Vec<u64>, u64)],
        variant: u8,
        pick: usize,
    ) -> Vec<Bag> {
        let mut witness = Bag::new(Schema::range(0, k));
        for (row, m) in rows {
            let vals: Vec<Value> = row[..k as usize]
                .iter()
                .map(|&v| Value::new(v % domain))
                .collect();
            witness.insert(vals, *m).unwrap();
        }
        let edges: Vec<Schema> = (0..k).map(|i| schema(&[i, (i + 1) % k])).collect();
        let mut bags: Vec<Bag> = edges.iter().map(|e| witness.marginal(e).unwrap()).collect();
        match variant {
            1 | 2 => {
                let b = if variant == 1 { pick % bags.len() } else { 0 };
                let support = bags[b].sorted_rows();
                let (row, m) = support[pick % support.len()];
                let row = row.to_vec();
                if variant == 1 {
                    bags[b].insert(&row, 1).unwrap();
                } else {
                    let mut to = row.clone();
                    to[0] = Value::new((to[0].get() + 1) % (domain + 1));
                    bags[b].set(&row, m - 1).unwrap();
                    bags[b].insert(&to, 1).unwrap();
                }
            }
            3 => {
                let scale = 1 + pick as u64 % 3;
                for (i, bag) in bags.iter_mut().enumerate() {
                    let charge = u64::from(i as u32 + 1 == k);
                    for a in 0..2u64 {
                        let b = (charge + a) % 2;
                        bag.insert([Value::new(a), Value::new(b)], scale).unwrap();
                    }
                }
            }
            _ => {}
        }
        for bag in &mut bags {
            bag.seal();
        }
        bags
    }

    fn arb_tiny_cycle() -> impl Strategy<Value = Vec<Bag>> {
        (
            (3..=4u32, 2..=3u64),
            proptest::collection::vec((proptest::collection::vec(0..3u64, 4), 1..=3u64), 1..=6),
            0..=3u8,
            0..64usize,
        )
            .prop_map(|((k, domain), rows, variant, pick)| {
                tiny_cycle(k, domain, &rows, variant, pick)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]
        #[test]
        fn fail_first_matches_static_dfs_oracle(
            bags in arb_tiny_cycle(),
            ban_bits in 0..u64::MAX,
        ) {
            let refs: Vec<&Bag> = bags.iter().collect();
            let prog = ConsistencyProgram::build(&refs).unwrap();
            let n = prog.num_variables();
            let cfg = SolverConfig::default();
            let none = vec![false; n];

            // the complete solution sets agree, point for point
            let mut want = oracle_solutions(&prog, &none, usize::MAX);
            let (mut got, complete) = enumerate_solutions(&prog, &cfg, usize::MAX);
            prop_assert!(complete);
            want.sort();
            got.sort();
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(count_solutions(&prog, &cfg, u64::MAX), (want.len() as u64, true));

            // Sat/Unsat agree, and a Sat point is feasible
            let (outcome, _) = solve(&prog, &cfg);
            match &outcome {
                IlpOutcome::Sat(x) => prop_assert!(prog.is_feasible_point(x)),
                other => prop_assert_eq!(other, &IlpOutcome::Unsat),
            }
            prop_assert_eq!(outcome.is_sat(), !want.is_empty());

            // and they agree under random bans (about one variable in four)
            let banned: Vec<bool> = (0..n).map(|v| ban_bits >> (2 * v % 64) & 3 == 3).collect();
            let oracle_sat = !oracle_solutions(&prog, &banned, 1).is_empty();
            match solve_masked(&prog, &cfg, &banned).0 {
                IlpOutcome::Sat(x) => {
                    prop_assert!(oracle_sat);
                    prop_assert!(prog.is_feasible_point(&x));
                    prop_assert!((0..n).all(|v| !banned[v] || x[v] == 0));
                }
                other => {
                    prop_assert_eq!(other, IlpOutcome::Unsat);
                    prop_assert!(!oracle_sat);
                }
            }
        }
    }

    #[test]
    fn differential_family_covers_every_answer() {
        // The variants above reach both answers: a planted triangle is
        // Sat, its overlap-Tseitin sum with a lone diagonal tuple is Unsat.
        let rows = [(vec![0, 0, 0, 0], 1)];
        for (variant, sat) in [(0, true), (3, false)] {
            let bags = tiny_cycle(3, 3, &rows, variant, 0);
            let refs: Vec<&Bag> = bags.iter().collect();
            let prog = ConsistencyProgram::build(&refs).unwrap();
            assert_eq!(solve(&prog, &SolverConfig::default()).0.is_sat(), sat);
            assert_eq!(
                oracle_solutions(&prog, &vec![false; prog.num_variables()], 1).is_empty(),
                !sat
            );
        }
    }

    fn section3_pair() -> (Bag, Bag) {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 1), (&[2, 2][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 1), (&[2, 2][..], 1)]).unwrap();
        (r, s)
    }

    #[test]
    fn sat_on_consistent_pair() {
        let (r, s) = section3_pair();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        match solve(&prog, &SolverConfig::default()).0 {
            IlpOutcome::Sat(x) => assert!(prog.is_feasible_point(&x)),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn exactly_two_witnesses_for_section3_example() {
        // "their consistency is witnessed by the bags T1 and T2, but, as
        // one can easily verify, no other bag."
        let (r, s) = section3_pair();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let (sols, complete) = enumerate_solutions(&prog, &SolverConfig::default(), 100);
        assert!(complete);
        assert_eq!(sols.len(), 2);
        for x in &sols {
            assert!(prog.is_feasible_point(x));
        }
    }

    #[test]
    fn unsat_on_marginal_mismatch() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 1)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        assert_eq!(solve(&prog, &SolverConfig::default()).0, IlpOutcome::Unsat);
    }

    #[test]
    fn unsat_when_join_is_empty_but_rhs_nonzero() {
        // pairwise consistent triangle relations with empty join
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 1), (&[1, 1][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 1][..], 1), (&[1, 0][..], 1)]).unwrap();
        let t = Bag::from_u64s(schema(&[0, 2]), [(&[0u64, 0][..], 1), (&[1, 1][..], 1)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s, &t]).unwrap();
        assert_eq!(solve(&prog, &SolverConfig::default()).0, IlpOutcome::Unsat);
    }

    #[test]
    fn triangle_tseitin_like_unsat() {
        // parity-style triangle bags, pairwise consistent but globally not
        // (the d=2 Tseitin construction of Theorem 2 on C3):
        // R1, R2 supports = even-sum pairs; R3 = odd-sum pairs.
        let even: Vec<(&[u64], u64)> = vec![(&[0, 0], 1), (&[1, 1], 1)];
        let odd: Vec<(&[u64], u64)> = vec![(&[0, 1], 1), (&[1, 0], 1)];
        let r1 = Bag::from_u64s(schema(&[0, 1]), even.clone()).unwrap();
        let r2 = Bag::from_u64s(schema(&[1, 2]), even).unwrap();
        let r3 = Bag::from_u64s(schema(&[0, 2]), odd).unwrap();
        let prog = ConsistencyProgram::build(&[&r1, &r2, &r3]).unwrap();
        assert_eq!(solve(&prog, &SolverConfig::default()).0, IlpOutcome::Unsat);
    }

    #[test]
    fn node_limit_aborts() {
        // a loose instance with many solutions and a 1-node budget:
        let r = Bag::from_u64s(schema(&[0]), [(&[0u64][..], 10), (&[1][..], 10)]).unwrap();
        let s = Bag::from_u64s(schema(&[1]), [(&[0u64][..], 10), (&[1][..], 10)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let cfg = SolverConfig {
            node_limit: Some(1),
            ..Default::default()
        };
        // with 4 variables, one node cannot finish
        assert_eq!(
            solve(&prog, &cfg).0,
            IlpOutcome::Aborted(AbortReason::NodeBudget)
        );
    }

    #[test]
    fn expired_deadline_aborts_search() {
        // The entry poll sees the already-expired deadline before any
        // search node, so the abort is deterministic even on an instance
        // the search would finish inside its first poll window.
        let r = Bag::from_u64s(schema(&[0]), [(&[0u64][..], 200), (&[1][..], 200)]).unwrap();
        let s = Bag::from_u64s(schema(&[1]), [(&[0u64][..], 200), (&[1][..], 200)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let cfg = SolverConfig::builder()
            .deadline(Deadline::at(std::time::Instant::now()))
            .build();
        let (outcome, stats) = solve(&prog, &cfg);
        assert_eq!(outcome, IlpOutcome::Aborted(AbortReason::DeadlineExceeded));
        assert_eq!(stats.nodes, 0);
    }

    #[test]
    fn count_matches_enumerate() {
        let (r, s) = section3_pair();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let (count, complete) = count_solutions(&prog, &SolverConfig::default(), 1000);
        assert!(complete);
        assert_eq!(count, 2);
    }

    #[test]
    fn count_limit_caps() {
        let r = Bag::from_u64s(schema(&[0]), [(&[0u64][..], 5), (&[1][..], 5)]).unwrap();
        let s = Bag::from_u64s(schema(&[1]), [(&[0u64][..], 5), (&[1][..], 5)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let (count, complete) = count_solutions(&prog, &SolverConfig::default(), 3);
        assert_eq!(count, 3);
        assert!(!complete);
    }

    #[test]
    fn masked_solve_respects_bans() {
        let (r, s) = section3_pair();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        // ban everything: infeasible
        let all = vec![true; prog.num_variables()];
        let (o, _) = solve_masked(&prog, &SolverConfig::default(), &all);
        assert_eq!(o, IlpOutcome::Unsat);
        // ban one variable: the other witness remains
        let mut one = vec![false; prog.num_variables()];
        one[0] = true;
        let (o, _) = solve_masked(&prog, &SolverConfig::default(), &one);
        match o {
            IlpOutcome::Sat(x) => {
                assert_eq!(x[0], 0);
                assert!(prog.is_feasible_point(&x));
            }
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn single_bag_unique_solution() {
        let r = Bag::from_u64s(schema(&[0]), [(&[1u64][..], 4), (&[2][..], 2)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r]).unwrap();
        let (sols, complete) = enumerate_solutions(&prog, &SolverConfig::default(), 10);
        assert!(complete);
        assert_eq!(sols.len(), 1);
        assert_eq!(prog.bag_from_solution(&sols[0]).unwrap(), r);
    }

    #[test]
    fn presolve_refutes_total_mismatch_without_search() {
        // bag totals 5 vs 6: the ∅-marginal presolve answers before the
        // first search node
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 3), (&[1, 1][..], 2)]).unwrap();
        let bad = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 0][..], 4), (&[1, 1][..], 2)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &bad]).unwrap();
        let (outcome, stats) = solve(&prog, &SolverConfig::default());
        assert_eq!(outcome, IlpOutcome::Unsat);
        assert_eq!(stats.nodes, 0);
    }

    #[test]
    fn forced_variables_prune_search() {
        // chain where every variable is forced: stats.nodes stays linear
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 3)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 1][..], 3)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let (o, stats) = solve(&prog, &SolverConfig::default());
        assert!(o.is_sat());
        assert_eq!(stats.nodes, 1); // one variable, forced to 3
    }
}
