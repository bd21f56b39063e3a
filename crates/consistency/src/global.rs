//! Global consistency: definitions and the generic (NP) decision path.
//!
//! A collection `R₁(X₁),…,R_m(X_m)` is **globally consistent** when some
//! bag `T` over `X₁ ∪ ⋯ ∪ X_m` has `T[X_i] = R_i` for all `i` (Section 4).
//! This module provides the witness validity check and the
//! schema-oblivious decision procedure via the integer program
//! `P(R₁,…,R_m)` — the NP algorithm of Corollary 3. The polynomial path
//! for acyclic schemas lives in [`crate::acyclic`]; the dispatch between
//! the two is [`crate::session::Session::check`].

use bagcons_core::{Bag, ExecConfig, Result, Schema};
use bagcons_hypergraph::Hypergraph;
use bagcons_lp::ilp::{solve, IlpOutcome, SolveStats, SolverConfig};
use bagcons_lp::ConsistencyProgram;

/// True iff `t` witnesses the global consistency of `bags`:
/// `t` is over the union schema and `t[X_i] = R_i` for every `i`. Each
/// `t[X_i]` marginal shards across threads when `t` is sealed, its
/// schema-prefix marginals especially profiting on wide witnesses. The
/// public entry is [`crate::session::Session::is_global_witness`].
pub(crate) fn is_global_witness_with(t: &Bag, bags: &[&Bag], cfg: &ExecConfig) -> Result<bool> {
    let union = union_schema(bags);
    if t.schema() != &union {
        return Ok(false);
    }
    for bag in bags {
        if &t.marginal_with(bag.schema(), cfg)? != *bag {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The union schema `X₁ ∪ ⋯ ∪ X_m`.
pub fn union_schema(bags: &[&Bag]) -> Schema {
    bags.iter()
        .fold(Schema::empty(), |acc, b| acc.union(b.schema()))
}

/// The hypergraph whose hyperedges are the schemas of the bags
/// (the paper's identification of schemas with hypergraphs).
pub fn schema_hypergraph(bags: &[&Bag]) -> Hypergraph {
    Hypergraph::from_edges(bags.iter().map(|b| b.schema().clone()))
}

/// Outcome of the generic ILP decision, with search statistics and, on
/// `Sat`, the witness bag.
#[derive(Clone, Debug)]
pub struct IlpDecision {
    /// `Sat(x)` (the solution vector) / `Unsat` / `Aborted(reason)`.
    pub outcome: IlpOutcome,
    /// DFS nodes explored.
    pub stats: SolveStats,
    /// Number of variables `|J|` of the program.
    pub num_variables: usize,
    /// The witness bag of a `Sat` outcome; `None` on `Unsat`/`Aborted`.
    pub witness: Option<Bag>,
}

/// Decides global consistency through the integer program `P(R₁,…,R_m)`
/// regardless of the schema's structure — the NP procedure of
/// Corollary 3. Exponential in the worst case; callers wanting the
/// polynomial path on acyclic schemas should use
/// [`crate::session::Session::check`].
pub fn globally_consistent_via_ilp(bags: &[&Bag], cfg: &SolverConfig) -> Result<IlpDecision> {
    let prog = ConsistencyProgram::build(bags)?;
    let num_variables = prog.num_variables();
    let (outcome, stats) = solve(&prog, cfg);
    let witness = match &outcome {
        IlpOutcome::Sat(x) => {
            let witness = prog.bag_from_solution(x)?;
            debug_assert!(is_global_witness_with(
                &witness,
                bags,
                &ExecConfig::default()
            )?);
            Some(witness)
        }
        _ => None,
    };
    Ok(IlpDecision {
        outcome,
        stats,
        num_variables,
        witness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use bagcons_core::{AbortReason, Attr};
    use bagcons_hypergraph::is_acyclic;

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    #[test]
    fn witness_check_requires_union_schema_and_marginals() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 5][..], 2)]).unwrap();
        let t = Bag::from_u64s(schema(&[0, 1, 2]), [(&[1u64, 1, 5][..], 2)]).unwrap();
        assert!(Session::default().is_global_witness(&t, &[&r, &s]).unwrap());
        // wrong schema
        assert!(!Session::default().is_global_witness(&r, &[&r, &s]).unwrap());
        // wrong multiplicity
        let t_bad = Bag::from_u64s(schema(&[0, 1, 2]), [(&[1u64, 1, 5][..], 3)]).unwrap();
        assert!(!Session::default()
            .is_global_witness(&t_bad, &[&r, &s])
            .unwrap());
    }

    #[test]
    fn schema_hypergraph_identification() {
        let r = Bag::new(schema(&[0, 1]));
        let s = Bag::new(schema(&[1, 2]));
        let t = Bag::new(schema(&[0, 2]));
        let h = schema_hypergraph(&[&r, &s, &t]);
        assert_eq!(h, bagcons_hypergraph::triangle());
        assert!(!is_acyclic(&h));
        let h2 = schema_hypergraph(&[&r, &s]);
        assert!(is_acyclic(&h2));
    }

    #[test]
    fn ilp_path_decides_small_triangle() {
        // globally consistent triangle bags (all diagonal)
        let d: Vec<(&[u64], u64)> = vec![(&[0, 0], 1), (&[1, 1], 1)];
        let r = Bag::from_u64s(schema(&[0, 1]), d.clone()).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), d.clone()).unwrap();
        let t = Bag::from_u64s(schema(&[0, 2]), d).unwrap();
        let dec = globally_consistent_via_ilp(&[&r, &s, &t], &SolverConfig::default()).unwrap();
        assert!(dec.outcome.is_sat());
        let w = dec.witness.expect("Sat carries its witness");
        assert!(Session::default()
            .is_global_witness(&w, &[&r, &s, &t])
            .unwrap());

        // a 1-node budget cannot finish the search: no witness
        let cfg = SolverConfig::builder().node_limit(1).build();
        let dec = globally_consistent_via_ilp(&[&r, &s, &t], &cfg).unwrap();
        assert_eq!(dec.outcome, IlpOutcome::Aborted(AbortReason::NodeBudget));
        assert!(dec.witness.is_none());
    }

    #[test]
    fn ilp_path_refutes_parity_triangle() {
        let even: Vec<(&[u64], u64)> = vec![(&[0, 0], 1), (&[1, 1], 1)];
        let odd: Vec<(&[u64], u64)> = vec![(&[0, 1], 1), (&[1, 0], 1)];
        let r = Bag::from_u64s(schema(&[0, 1]), even.clone()).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), even).unwrap();
        let t = Bag::from_u64s(schema(&[0, 2]), odd).unwrap();
        let dec = globally_consistent_via_ilp(&[&r, &s, &t], &SolverConfig::default()).unwrap();
        assert_eq!(dec.outcome, IlpOutcome::Unsat);
        assert!(dec.witness.is_none());
    }

    #[test]
    fn union_schema_folds() {
        let r = Bag::new(schema(&[0, 1]));
        let s = Bag::new(schema(&[3]));
        assert_eq!(union_schema(&[&r, &s]), schema(&[0, 1, 3]));
        assert_eq!(union_schema(&[]), Schema::empty());
    }

    #[test]
    fn empty_collection_is_globally_consistent() {
        let dec = globally_consistent_via_ilp(&[], &SolverConfig::default()).unwrap();
        assert!(dec.outcome.is_sat());
    }
}
