//! Witness construction over acyclic schemas (Theorem 2 Step 1, Theorem 6).
//!
//! Given an acyclic hypergraph and pairwise consistent bags, the paper
//! builds a global witness by induction along a **running intersection
//! ordering** `X₁,…,X_m`: `T₁ = R₁`, and `T_i` witnesses the consistency
//! of `T_{i-1}` and `R_i` (which Lemma 2 guarantees exists, because
//! `X_i ∩ (X₁∪⋯∪X_{i-1}) ⊆ X_j` for some earlier `j`). Theorem 6 runs the
//! **minimal** two-bag witness at every step (Corollary 4), giving the
//! support bound `‖T‖supp ≤ Σ ‖R_i‖supp`.

use crate::minimal::minimal_two_bag_witness;
use crate::pairwise::first_inconsistent_pair_with;
use bagcons_core::{Bag, CoreError, ExecConfig, FxHashMap, Schema};
use bagcons_flow::ConsistencyNetwork;
use bagcons_hypergraph::{rip_order, Hypergraph};
use std::fmt;

/// Why the acyclic construction could not run or produce a witness.
#[derive(Debug)]
pub enum AcyclicError {
    /// The schemas do not form an acyclic hypergraph — use
    /// [`crate::dichotomy`] instead.
    NotAcyclic(Hypergraph),
    /// Bags at these indices are inconsistent (hence no global witness).
    InconsistentPair(usize, usize),
    /// Two bags share a schema but differ (a special case of pairwise
    /// inconsistency reported separately for clarity).
    DuplicateSchemaMismatch(Schema),
    /// An underlying core operation failed.
    Core(CoreError),
}

impl fmt::Display for AcyclicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcyclicError::NotAcyclic(h) => write!(f, "schema hypergraph is cyclic: {h}"),
            AcyclicError::InconsistentPair(i, j) => {
                write!(f, "bags {i} and {j} are not consistent")
            }
            AcyclicError::DuplicateSchemaMismatch(s) => {
                write!(f, "two distinct bags share schema {s}")
            }
            AcyclicError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AcyclicError {}

impl From<CoreError> for AcyclicError {
    fn from(e: CoreError) -> Self {
        AcyclicError::Core(e)
    }
}

/// Strategy for the per-step two-bag witness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WitnessStrategy {
    /// Any saturated flow (one max-flow per step). Theorem 3 bounds apply.
    #[default]
    Saturated,
    /// The minimal witness of Corollary 4 (`|J|+1` max-flows per step);
    /// yields Theorem 6's bound `‖T‖supp ≤ Σ ‖R_i‖supp`.
    Minimal,
}

/// Theorem 6: decides global consistency of pairwise consistent bags over
/// an acyclic schema and constructs a witness, in polynomial time.
///
/// Returns the witness bag over the union schema. With
/// [`WitnessStrategy::Minimal`] the returned bag satisfies
/// `‖T‖supp ≤ Σ_i ‖R_i‖supp`.
///
/// ```
/// use bagcons::acyclic::acyclic_global_witness;
/// use bagcons_core::{Bag, Schema};
///
/// // a path schema A0–A1–A2–A3 (acyclic)
/// let r1 = Bag::from_u64s(Schema::range(0, 2), [(&[0u64, 0][..], 2), (&[1, 1][..], 1)])?;
/// let r2 = Bag::from_u64s(Schema::range(1, 3), [(&[0u64, 4][..], 2), (&[1, 5][..], 1)])?;
/// let r3 = Bag::from_u64s(Schema::range(2, 4), [(&[4u64, 9][..], 2), (&[5, 9][..], 1)])?;
/// let t = acyclic_global_witness(&[&r1, &r2, &r3]).expect("pairwise consistent + acyclic");
/// assert_eq!(t.marginal(r1.schema())?, r1);
/// assert_eq!(t.marginal(r3.schema())?, r3);
/// // Theorem 6 support bound
/// assert!(t.support_size() <= r1.support_size() + r2.support_size() + r3.support_size());
/// # Ok::<(), bagcons_core::CoreError>(())
/// ```
///
/// Legacy shim — prefer
/// [`crate::session::Session::acyclic_global_witness`].
#[doc(hidden)]
pub fn acyclic_global_witness(bags: &[&Bag]) -> Result<Bag, AcyclicError> {
    crate::session::Session::default().acyclic_global_witness(bags, WitnessStrategy::Minimal)
}

/// [`acyclic_global_witness`] with an explicit per-step strategy.
///
/// Legacy sequential shim — prefer
/// [`crate::session::Session::acyclic_global_witness`].
#[doc(hidden)]
pub fn acyclic_global_witness_with(
    bags: &[&Bag],
    strategy: WitnessStrategy,
) -> Result<Bag, AcyclicError> {
    acyclic_global_witness_exec(bags, strategy, &ExecConfig::sequential())
}

/// [`acyclic_global_witness_with`] under an explicit execution
/// configuration: the pairwise marginal checks and each saturated-flow
/// network build along the chain shard across threads.
pub fn acyclic_global_witness_exec(
    bags: &[&Bag],
    strategy: WitnessStrategy,
    exec: &ExecConfig,
) -> Result<Bag, AcyclicError> {
    // 1. Pairwise consistency (necessary; sufficient by Theorem 2).
    if let Some((i, j)) = first_inconsistent_pair_with(bags, exec)? {
        return Err(AcyclicError::InconsistentPair(i, j));
    }
    witness_chain(bags, strategy, exec)
}

/// The inductive chain of Theorem 6 *without* the pairwise pre-check:
/// callers (the session facade, which times the two phases separately)
/// must have already established pairwise consistency, or the chain's
/// per-step "a witness exists" invariant may not hold.
pub(crate) fn witness_chain(
    bags: &[&Bag],
    strategy: WitnessStrategy,
    exec: &ExecConfig,
) -> Result<Bag, AcyclicError> {
    // 2. Deduplicate by schema: pairwise consistent bags with equal
    //    schemas are equal, so one representative suffices.
    let mut by_schema: FxHashMap<Schema, &Bag> = FxHashMap::default();
    for bag in bags {
        if let Some(prev) = by_schema.insert(bag.schema().clone(), bag) {
            debug_assert_eq!(&prev, bag, "pairwise consistency implies equality");
        }
    }
    if by_schema.is_empty() {
        return Ok(Bag::new(Schema::empty()));
    }
    // 3. Running-intersection ordering from a join tree (Theorem 6's
    //    "rooted join-tree sorted in topological order").
    let h = Hypergraph::from_edges(by_schema.keys().cloned());
    let Some(order) = rip_order(&h) else {
        return Err(AcyclicError::NotAcyclic(h));
    };
    // 4. Inductive chain: T_i witnesses (T_{i-1}, R_{σ(i)}).
    let mut t: Bag = (*by_schema[&order[0]]).clone();
    for x in &order[1..] {
        let r = by_schema[x];
        let next = match strategy {
            WitnessStrategy::Saturated => {
                ConsistencyNetwork::build_with(&t, r, exec)?.solve_with(exec)?
            }
            WitnessStrategy::Minimal => minimal_two_bag_witness(&t, r)?,
        };
        t = next.expect(
            "Theorem 2 Step 1: T_{i-1} and R_i are consistent under RIP + pairwise consistency",
        );
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::is_global_witness;
    use bagcons_core::Attr;

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    /// Pairwise-consistent bags along the path A0–A1–A2–A3.
    fn path_bags() -> Vec<Bag> {
        let r1 = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 2), (&[1, 1][..], 2)]).unwrap();
        let r2 = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 0][..], 2), (&[1, 1][..], 2)]).unwrap();
        let r3 = Bag::from_u64s(schema(&[2, 3]), [(&[0u64, 7][..], 2), (&[1, 8][..], 2)]).unwrap();
        vec![r1, r2, r3]
    }

    #[test]
    fn builds_witness_on_path_schema() {
        let bags = path_bags();
        let refs: Vec<&Bag> = bags.iter().collect();
        for strategy in [WitnessStrategy::Saturated, WitnessStrategy::Minimal] {
            let t = acyclic_global_witness_with(&refs, strategy).unwrap();
            assert!(is_global_witness(&t, &refs).unwrap());
        }
    }

    #[test]
    fn theorem6_support_bound() {
        let bags = path_bags();
        let refs: Vec<&Bag> = bags.iter().collect();
        let t = acyclic_global_witness_with(&refs, WitnessStrategy::Minimal).unwrap();
        let bound: usize = refs.iter().map(|b| b.support_size()).sum();
        assert!(t.support_size() <= bound, "‖T‖supp ≤ Σ ‖R_i‖supp");
    }

    #[test]
    fn theorem3_multiplicity_bound_holds_too() {
        let bags = path_bags();
        let refs: Vec<&Bag> = bags.iter().collect();
        let t = acyclic_global_witness(&refs).unwrap();
        let max_mu = refs.iter().map(|b| b.multiplicity_bound()).max().unwrap();
        assert!(t.multiplicity_bound() <= max_mu);
    }

    #[test]
    fn rejects_cyclic_schema() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 0][..], 1)]).unwrap();
        let t = Bag::from_u64s(schema(&[0, 2]), [(&[0u64, 0][..], 1)]).unwrap();
        match acyclic_global_witness(&[&r, &s, &t]) {
            Err(AcyclicError::NotAcyclic(_)) => {}
            other => panic!("expected NotAcyclic, got {other:?}"),
        }
    }

    #[test]
    fn rejects_inconsistent_pair() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 0][..], 2)]).unwrap();
        match acyclic_global_witness(&[&r, &s]) {
            Err(AcyclicError::InconsistentPair(0, 1)) => {}
            other => panic!("expected InconsistentPair, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_schemas_are_merged() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 5][..], 1)]).unwrap();
        let t = acyclic_global_witness(&[&r, &r.clone(), &s]).unwrap();
        assert!(is_global_witness(&t, &[&r, &s]).unwrap());
    }

    #[test]
    fn star_schema_with_shared_center() {
        // star: {0,1}, {0,2}, {0,3}; center A0 must marginalize identically
        let r1 = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 1][..], 1), (&[1, 1][..], 3)]).unwrap();
        let r2 = Bag::from_u64s(schema(&[0, 2]), [(&[0u64, 4][..], 1), (&[1, 5][..], 3)]).unwrap();
        let r3 = Bag::from_u64s(
            schema(&[0, 3]),
            [(&[0u64, 9][..], 1), (&[1, 9][..], 2), (&[1, 8][..], 1)],
        )
        .unwrap();
        let refs = [&r1, &r2, &r3];
        let t = acyclic_global_witness(&refs).unwrap();
        assert!(is_global_witness(&t, &refs).unwrap());
    }

    #[test]
    fn single_bag_is_its_own_witness() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 5)]).unwrap();
        let t = acyclic_global_witness(&[&r]).unwrap();
        assert_eq!(t, r);
    }

    #[test]
    fn empty_collection() {
        let t = acyclic_global_witness(&[]).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn covered_schema_bags() {
        // {0,1,2} covers {1,2}: acyclic; smaller bag must equal marginal
        let big = Bag::from_u64s(
            schema(&[0, 1, 2]),
            [(&[0u64, 1, 1][..], 2), (&[1, 1, 2][..], 3)],
        )
        .unwrap();
        let small = big.marginal(&schema(&[1, 2])).unwrap();
        let t = acyclic_global_witness(&[&big, &small]).unwrap();
        assert!(is_global_witness(&t, &[&big, &small]).unwrap());
        assert_eq!(t, big);
    }
}
