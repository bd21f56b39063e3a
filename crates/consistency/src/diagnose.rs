//! Consistency diagnosis: *why* is a collection inconsistent?
//!
//! The decision procedures answer yes/no; a user repairing data wants the
//! offending evidence. [`Session::diagnose`](crate::session::Session::diagnose)
//! pinpoints, per Lemma 2:
//!
//! * which **pair** of bags disagrees,
//! * on which **shared tuple** their marginals differ and by how much, or
//! * for pairwise consistent but globally inconsistent collections, that
//!   the failure is a genuinely global (cyclic-schema) phenomenon —
//!   optionally with the schema's minimal obstruction attached.

use crate::global::schema_hypergraph;
use crate::pairwise::PairState;
use bagcons_core::{Bag, Result, Row, Schema};
use bagcons_hypergraph::{find_obstruction, is_acyclic, Obstruction};
use std::fmt;

/// One marginal discrepancy between two bags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MarginalMismatch {
    /// Index of the first bag.
    pub left: usize,
    /// Index of the second bag.
    pub right: usize,
    /// The shared schema `X_i ∩ X_j`.
    pub common: Schema,
    /// The tuple (over `common`) where the marginals differ.
    pub tuple: Row,
    /// Marginal of the left bag at `tuple`.
    pub left_count: u64,
    /// Marginal of the right bag at `tuple`.
    pub right_count: u64,
}

impl fmt::Display for MarginalMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cells: Vec<String> = self.tuple.iter().map(|v| v.to_string()).collect();
        write!(
            f,
            "bags {} and {} disagree on {} at ({}): {} vs {}",
            self.left,
            self.right,
            self.common,
            cells.join(", "),
            self.left_count,
            self.right_count
        )
    }
}

/// The diagnosis of a collection.
#[derive(Debug)]
pub enum Diagnosis {
    /// Every pair is consistent; if the schema is acyclic this implies
    /// global consistency (Theorem 2).
    PairwiseConsistent {
        /// Whether the schema hypergraph is acyclic.
        acyclic: bool,
        /// The schema's minimal obstruction when cyclic — the shape on
        /// which a global failure could live even though no pair fails.
        obstruction: Option<Obstruction>,
    },
    /// At least one pair of bags disagrees; all mismatches listed
    /// (capped at `max_mismatches`).
    PairwiseInconsistent(Vec<MarginalMismatch>),
}

impl Diagnosis {
    /// True iff no pairwise defect was found.
    pub fn is_pairwise_consistent(&self) -> bool {
        matches!(self, Diagnosis::PairwiseConsistent { .. })
    }
}

/// Diagnoses a collection, reporting up to `max_mismatches` marginal
/// discrepancies with their exact locations, read off each pair's keyed
/// marginal difference ([`PairState`]). The public entry is
/// [`crate::session::Session::diagnose`], which carries the mismatch
/// budget.
pub(crate) fn diagnose_bags(bags: &[&Bag], max_mismatches: usize) -> Result<Diagnosis> {
    let mut mismatches = Vec::new();
    'pairs: for i in 0..bags.len() {
        for j in (i + 1)..bags.len() {
            let pair = PairState::open(i, j, bags)?;
            if pair.consistent() {
                continue;
            }
            let common = bags[i].schema().intersection(bags[j].schema());
            for (tuple, left_count, right_count) in pair.mismatches(bags)? {
                mismatches.push(MarginalMismatch {
                    left: i,
                    right: j,
                    common: common.clone(),
                    tuple,
                    left_count,
                    right_count,
                });
                if mismatches.len() >= max_mismatches {
                    break 'pairs;
                }
            }
        }
    }
    if !mismatches.is_empty() {
        return Ok(Diagnosis::PairwiseInconsistent(mismatches));
    }
    let h = schema_hypergraph(bags);
    let acyclic = is_acyclic(&h);
    let obstruction = if acyclic { None } else { find_obstruction(&h) };
    Ok(Diagnosis::PairwiseConsistent {
        acyclic,
        obstruction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use crate::tseitin::tseitin_bags;
    use bagcons_core::{Attr, Value};
    use bagcons_hypergraph::triangle;

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    fn diagnose(bags: &[&Bag], max_mismatches: usize) -> Diagnosis {
        let session = Session::builder()
            .max_mismatches(max_mismatches)
            .build()
            .unwrap();
        session.diagnose(bags).unwrap().diagnosis
    }

    #[test]
    fn locates_the_exact_mismatch() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 5][..], 2), (&[2, 6][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[5u64, 9][..], 3), (&[6, 9][..], 1)]).unwrap();
        let d = diagnose(&[&r, &s], 10);
        let Diagnosis::PairwiseInconsistent(ms) = d else {
            panic!("expected mismatch");
        };
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].left, 0);
        assert_eq!(ms[0].right, 1);
        assert_eq!(&*ms[0].tuple, &[Value(5)]);
        assert_eq!((ms[0].left_count, ms[0].right_count), (2, 3));
        assert!(ms[0].to_string().contains("2 vs 3"));
    }

    #[test]
    fn reports_tuples_missing_on_one_side() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 5][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[6u64, 9][..], 2)]).unwrap();
        let d = diagnose(&[&r, &s], 10);
        let Diagnosis::PairwiseInconsistent(ms) = d else {
            panic!("expected mismatch");
        };
        // both B=5 (2 vs 0) and B=6 (0 vs 2) reported
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().any(|m| m.left_count == 2 && m.right_count == 0));
        assert!(ms.iter().any(|m| m.left_count == 0 && m.right_count == 2));
    }

    #[test]
    fn cap_is_respected() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 1), (&[1, 2][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[3u64, 1][..], 1), (&[4, 1][..], 1)]).unwrap();
        let d = diagnose(&[&r, &s], 1);
        let Diagnosis::PairwiseInconsistent(ms) = d else {
            panic!("expected mismatch");
        };
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn pairwise_consistent_cyclic_collection_gets_obstruction() {
        let bags = tseitin_bags(&triangle()).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        let d = diagnose(&refs, 10);
        let Diagnosis::PairwiseConsistent {
            acyclic,
            obstruction,
        } = d
        else {
            panic!("parity triangle is pairwise consistent");
        };
        assert!(!acyclic);
        assert!(obstruction.is_some());
    }

    #[test]
    fn acyclic_consistent_collection_is_clean() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 5][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[5u64, 9][..], 2)]).unwrap();
        let d = diagnose(&[&r, &s], 10);
        assert!(d.is_pairwise_consistent());
        let Diagnosis::PairwiseConsistent {
            acyclic,
            obstruction,
        } = d
        else {
            panic!("consistent");
        };
        assert!(acyclic);
        assert!(obstruction.is_none());
    }
}
