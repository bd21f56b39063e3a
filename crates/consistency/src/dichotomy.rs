//! The complexity dichotomy for GCPB (Theorem 4).
//!
//! For a fixed schema hypergraph `H`:
//!
//! * if `H` is **acyclic**, GCPB(H) is solvable in polynomial time —
//!   global consistency coincides with pairwise consistency (Theorem 2),
//!   and a witness comes from the Theorem 6 chain;
//! * if `H` is **cyclic**, GCPB(H) is NP-complete — we fall back to the
//!   exact integer search over `P(R₁,…,R_m)` (Corollary 3's NP
//!   procedure), with an optional node budget.
//!
//! [`decide_global_consistency`] dispatches between the two paths and
//! reports which one ran, so the experiment harness can measure the
//! polynomial-vs-exponential shape the theorem predicts.

use crate::session::{check_impl, Branch, CheckOutcome, Decision};
use bagcons_core::{Bag, CoreError, ExecConfig};
use bagcons_lp::ilp::SolverConfig;

/// The decision (and witness, when one exists).
#[derive(Clone, Debug)]
pub enum GcpbOutcome {
    /// Globally consistent, with a witness bag.
    Consistent(Bag),
    /// Not globally consistent.
    Inconsistent,
    /// The exact search hit its node budget (cyclic path only).
    Unknown,
}

impl GcpbOutcome {
    /// True iff consistent.
    pub fn is_consistent(&self) -> bool {
        matches!(self, GcpbOutcome::Consistent(_))
    }
}

/// Outcome plus which path of the dichotomy ran.
#[derive(Clone, Debug)]
pub struct GcpbReport {
    /// The decision.
    pub outcome: GcpbOutcome,
    /// True iff the schema hypergraph was acyclic (polynomial path).
    pub acyclic: bool,
    /// Exact-search nodes (0 on the polynomial path).
    pub search_nodes: u64,
}

impl From<CheckOutcome> for GcpbReport {
    fn from(out: CheckOutcome) -> Self {
        let outcome = match (out.decision, out.witness) {
            (Decision::Consistent, Some(w)) => GcpbOutcome::Consistent(w),
            (Decision::Consistent, None) => {
                unreachable!("a Consistent check always carries a witness")
            }
            (Decision::Inconsistent, _) => GcpbOutcome::Inconsistent,
            (Decision::Unknown, _) => GcpbOutcome::Unknown,
        };
        GcpbReport {
            outcome,
            acyclic: out.branch == Branch::Acyclic,
            search_nodes: out.search_nodes,
        }
    }
}

/// Decides the global consistency problem for bags, following Theorem 4's
/// dichotomy: polynomial algorithm on acyclic schemas, exact exponential
/// search on cyclic ones.
///
/// Legacy shim (default execution config) — prefer
/// [`crate::session::Session::check`], which also reports per-stage
/// timings.
#[doc(hidden)]
pub fn decide_global_consistency(
    bags: &[&Bag],
    cfg: &SolverConfig,
) -> Result<GcpbReport, CoreError> {
    decide_global_consistency_exec(bags, cfg, &ExecConfig::default())
}

/// [`decide_global_consistency`] under an explicit execution
/// configuration: the polynomial path's pairwise checks and witness-chain
/// network builds shard across threads. Delegates to the canonical
/// dichotomy implementation behind [`crate::session::Session::check`].
pub fn decide_global_consistency_exec(
    bags: &[&Bag],
    cfg: &SolverConfig,
    exec: &ExecConfig,
) -> Result<GcpbReport, CoreError> {
    Ok(check_impl(bags, cfg, exec)?.into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::is_global_witness;
    use bagcons_core::{Attr, Schema};

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    #[test]
    fn acyclic_path_taken_for_path_schema() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 3][..], 2)]).unwrap();
        let rep = decide_global_consistency(&[&r, &s], &SolverConfig::default()).unwrap();
        assert!(rep.acyclic);
        assert_eq!(rep.search_nodes, 0);
        match rep.outcome {
            GcpbOutcome::Consistent(t) => {
                assert!(is_global_witness(&t, &[&r, &s]).unwrap())
            }
            other => panic!("expected Consistent, got {other:?}"),
        }
    }

    #[test]
    fn cyclic_path_taken_for_triangle() {
        let d: Vec<(&[u64], u64)> = vec![(&[0, 0], 1), (&[1, 1], 1)];
        let r = Bag::from_u64s(schema(&[0, 1]), d.clone()).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), d.clone()).unwrap();
        let t = Bag::from_u64s(schema(&[0, 2]), d).unwrap();
        let rep = decide_global_consistency(&[&r, &s, &t], &SolverConfig::default()).unwrap();
        assert!(!rep.acyclic);
        assert!(rep.outcome.is_consistent());
        assert!(rep.search_nodes > 0);
    }

    #[test]
    fn parity_triangle_is_inconsistent_via_search() {
        let even: Vec<(&[u64], u64)> = vec![(&[0, 0], 1), (&[1, 1], 1)];
        let odd: Vec<(&[u64], u64)> = vec![(&[0, 1], 1), (&[1, 0], 1)];
        let r = Bag::from_u64s(schema(&[0, 1]), even.clone()).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), even).unwrap();
        let t = Bag::from_u64s(schema(&[0, 2]), odd).unwrap();
        let rep = decide_global_consistency(&[&r, &s, &t], &SolverConfig::default()).unwrap();
        assert!(!rep.acyclic);
        assert!(matches!(rep.outcome, GcpbOutcome::Inconsistent));
    }

    #[test]
    fn pairwise_inconsistent_acyclic_collection() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 0][..], 2)]).unwrap();
        let rep = decide_global_consistency(&[&r, &s], &SolverConfig::default()).unwrap();
        assert!(rep.acyclic);
        assert!(matches!(rep.outcome, GcpbOutcome::Inconsistent));
    }

    #[test]
    fn node_budget_reports_unknown() {
        // a loose satisfiable triangle with a 1-node budget
        let wide: Vec<(&[u64], u64)> = vec![(&[0, 0], 3), (&[0, 1], 3), (&[1, 0], 3), (&[1, 1], 3)];
        let r = Bag::from_u64s(schema(&[0, 1]), wide.clone()).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), wide.clone()).unwrap();
        let t = Bag::from_u64s(schema(&[0, 2]), wide).unwrap();
        let cfg = SolverConfig {
            node_limit: Some(1),
            ..Default::default()
        };
        let rep = decide_global_consistency(&[&r, &s, &t], &cfg).unwrap();
        assert!(matches!(rep.outcome, GcpbOutcome::Unknown));
    }
}
