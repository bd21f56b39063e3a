//! Exact integer feasibility search for `P(R₁,…,R_m)`.
//!
//! For cyclic fixed schemas, GCPB(H) is NP-complete (Theorem 4), so *some*
//! exponential-worst-case search is unavoidable unless P = NP. This module
//! provides that search: a DFS over the variables of the program with
//!
//! * **residual propagation** — each constraint row keeps its remaining
//!   right-hand side; a variable's upper bound is the minimum residual of
//!   the rows it hits;
//! * **forced-variable detection** — when a variable is the last
//!   unassigned one on some row, its value is forced to that row's
//!   residual;
//! * an optional **node budget** so benchmarks can measure search effort
//!   and callers can bail out on adversarial instances.
//!
//! The same DFS enumerates or counts *all* solutions, which is how the
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
    /// Aborts the search after `nodes` DFS nodes (reported as
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
    /// DFS nodes explored (value assignments tried).
    pub nodes: u64,
}

/// Search nodes between deadline polls: frequent enough that a 10 ms
/// deadline stops an adversarial search promptly, sparse enough that the
/// `Instant::now()` call vanishes against the per-node work.
pub const NODES_PER_POLL: u64 = 128;

struct Search<'a> {
    prog: &'a ConsistencyProgram,
    banned: &'a [bool],
    residual: Vec<u64>,
    remaining: Vec<u32>,
    x: Vec<u64>,
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
    fn new(prog: &'a ConsistencyProgram, banned: &'a [bool], cfg: &SolverConfig) -> Option<Self> {
        let n = prog.num_variables();
        debug_assert_eq!(banned.len(), n);
        let residual = prog.rhs();
        let mut remaining = vec![0u32; prog.num_constraints()];
        for (v, &is_banned) in banned.iter().enumerate() {
            if !is_banned {
                for &row in prog.rows_of(v) {
                    remaining[row as usize] += 1;
                }
            }
        }
        // Presolve 1: every bag must have the same total count (the
        // ∅-marginal condition) — any witness `T` satisfies
        // `‖T‖u = ‖R_i‖u` for all `i`.
        let totals = prog.bag_totals();
        if let Some(first) = totals.first() {
            if totals.iter().any(|t| t != first) {
                return None;
            }
        }
        // Presolve 2: rows with no covering variable must already be
        // satisfied.
        if remaining
            .iter()
            .zip(residual.iter())
            .any(|(&rem, &res)| rem == 0 && res > 0)
        {
            return None;
        }
        Some(Search {
            prog,
            banned,
            residual,
            remaining,
            x: vec![0; n],
            nodes: 0,
            node_limit: cfg.node_limit,
            deadline: cfg.deadline.clone(),
        })
    }

    /// DFS from variable `v`; calls `on_solution` for each feasible point,
    /// which returns `true` to continue enumerating.
    fn dfs(&mut self, v: usize, on_solution: &mut dyn FnMut(&[u64]) -> bool) -> Found {
        if v == self.prog.num_variables() {
            debug_assert!(self.residual.iter().all(|&r| r == 0));
            return if on_solution(&self.x) {
                Found::No
            } else {
                Found::Yes
            };
        }
        if self.banned[v] {
            return self.dfs(v + 1, on_solution);
        }
        let rows = self.prog.rows_of(v);
        if rows.is_empty() {
            // Unconstrained variable (only possible for m = 0): any value
            // works; canonically assign 0.
            self.nodes += 1;
            return self.dfs(v + 1, on_solution);
        }
        // Upper bound: min residual over this variable's rows.
        let mut ub = u64::MAX;
        let mut forced: Option<u64> = None;
        for &row in rows {
            let r = row as usize;
            ub = ub.min(self.residual[r]);
            if self.remaining[r] == 1 {
                match forced {
                    None => forced = Some(self.residual[r]),
                    Some(f) if f != self.residual[r] => return Found::No,
                    Some(_) => {}
                }
            }
        }
        let (lo, hi) = match forced {
            Some(f) if f > ub => return Found::No,
            Some(f) => (f, f),
            None => (0, ub),
        };
        // Try larger values first: on satisfiable instances the greedy-max
        // branch usually completes rows early.
        let mut val = hi;
        loop {
            if let Some(limit) = self.node_limit {
                if self.nodes >= limit {
                    return Found::Aborted(AbortReason::NodeBudget);
                }
            }
            self.nodes += 1;
            if self.nodes % NODES_PER_POLL == 0 {
                if let Some(reason) = self.deadline.poll() {
                    return Found::Aborted(reason);
                }
            }
            // assign x_v = val
            self.x[v] = val;
            let mut ok = true;
            for &row in rows {
                let r = row as usize;
                self.residual[r] -= val;
                self.remaining[r] -= 1;
                if self.remaining[r] == 0 && self.residual[r] != 0 {
                    ok = false;
                }
            }
            if ok {
                match self.dfs(v + 1, on_solution) {
                    Found::No => {}
                    stop => {
                        // undo before returning so callers can reuse state
                        for &row in rows {
                            let r = row as usize;
                            self.residual[r] += val;
                            self.remaining[r] += 1;
                        }
                        self.x[v] = 0;
                        return stop;
                    }
                }
            }
            // undo
            for &row in rows {
                let r = row as usize;
                self.residual[r] += val;
                self.remaining[r] += 1;
            }
            self.x[v] = 0;
            if val == lo {
                break;
            }
            val -= 1;
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
    let found = search.dfs(0, &mut |x| {
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
    let found = search.dfs(0, &mut |_| {
        count += 1;
        count < limit
    });
    match found {
        Found::Yes => (count, false),        // stopped by limit
        Found::No => (count, true),          // exhausted the space
        Found::Aborted(_) => (count, false), // node budget / deadline
    }
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
    let found = search.dfs(0, &mut |x| {
        out.push(x.to_vec());
        out.len() < limit
    });
    let complete = matches!(found, Found::No);
    (out, complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::{Attr, Bag, Schema};

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
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
