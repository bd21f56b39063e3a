//! Witness-size bounds: Theorem 3, Theorem 5, and Lemma 5.
//!
//! Theorem 3: if `W` witnesses the global consistency of `R₁,…,R_m` then
//!
//! 1. `‖W‖mu ≤ max_i ‖R_i‖mu`,
//! 2. `‖W‖supp ≤ Σ_i ‖R_i‖u`, and
//! 3. if `W` is a **minimal** witness, `‖W‖supp ≤ Σ_i ‖R_i‖b`
//!    (via the Eisenbrand–Shmonin integer Carathéodory bound, Lemma 5).
//!
//! Theorem 5 sharpens (3) for `m = 2` using classical Carathéodory:
//! `‖W‖supp ≤ ‖R‖supp + ‖S‖supp`.

use bagcons_core::Bag;

/// The three bounds of Theorem 3 for a given input collection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WitnessBounds {
    /// `max_i ‖R_i‖mu` — bound on every witness multiplicity.
    pub multiplicity: u64,
    /// `Σ_i ‖R_i‖u` — bound on every witness support size.
    pub support_unary: u128,
    /// `Σ_i ‖R_i‖b` — bound on **minimal** witness support size.
    pub support_binary: u64,
}

/// Computes the Theorem 3 bounds from the input bags.
pub fn theorem3_bounds(bags: &[&Bag]) -> WitnessBounds {
    WitnessBounds {
        multiplicity: bags
            .iter()
            .map(|b| b.multiplicity_bound())
            .max()
            .unwrap_or(0),
        support_unary: bags.iter().map(|b| b.unary_size()).sum(),
        support_binary: bags.iter().map(|b| b.binary_size()).sum(),
    }
}

/// The Eisenbrand–Shmonin support bound `Σ_i Σ_r log₂(R_i(r)+1)` of
/// Lemma 5 / Theorem 3(3).
pub fn es_support_bound(bags: &[&Bag]) -> u64 {
    bags.iter().map(|b| b.binary_size()).sum()
}

/// Theorem 5's Carathéodory bound for two bags:
/// `‖W‖supp ≤ ‖R‖supp + ‖S‖supp` for minimal witnesses.
pub fn two_bag_support_bound(r: &Bag, s: &Bag) -> usize {
    r.support_size() + s.support_size()
}

/// Checks that a witness satisfies Theorem 3 parts (1) and (2).
pub fn witness_respects_theorem3(witness: &Bag, bags: &[&Bag]) -> bool {
    let b = theorem3_bounds(bags);
    witness.multiplicity_bound() <= b.multiplicity
        && (witness.support_size() as u128) <= b.support_unary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::{enumerate_solutions, SolverConfig};
    use crate::ConsistencyProgram;
    use bagcons_core::{Attr, Bag, Schema};

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    #[test]
    fn bounds_computed_from_norms() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 3), (&[2, 2][..], 5)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 1][..], 8)]).unwrap();
        let b = theorem3_bounds(&[&r, &s]);
        assert_eq!(b.multiplicity, 8);
        assert_eq!(b.support_unary, 3 + 5 + 8);
        assert_eq!(b.support_binary, 2 + 3 + 4); // bits(3)+bits(5)+bits(8)
        assert_eq!(es_support_bound(&[&r, &s]), b.support_binary);
        assert_eq!(two_bag_support_bound(&r, &s), 3);
    }

    #[test]
    fn every_witness_respects_parts_1_and_2() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 2), (&[2, 2][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 2), (&[2, 2][..], 2)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let (sols, complete) = enumerate_solutions(&prog, &SolverConfig::default(), 10_000);
        assert!(complete);
        assert!(!sols.is_empty());
        for x in sols {
            let w = prog.bag_from_solution(&x).unwrap();
            assert!(witness_respects_theorem3(&w, &[&r, &s]));
        }
    }

    /// The witnesses of `prog` whose support is inclusion-minimal, found
    /// by enumerating every feasible point (tiny instances only).
    fn minimal_witnesses(prog: &ConsistencyProgram) -> Vec<Vec<u64>> {
        let (sols, complete) = enumerate_solutions(prog, &SolverConfig::default(), 10_000);
        assert!(complete);
        let within = |a: &[u64], b: &[u64]| a.iter().zip(b).all(|(&x, &y)| x == 0 || y > 0);
        sols.iter()
            .filter(|x| !sols.iter().any(|y| within(y, x) && !within(x, y)))
            .cloned()
            .collect()
    }

    #[test]
    fn minimized_support_is_minimal_and_within_caratheodory() {
        // Two bags with plenty of slack: some witnesses have more support
        // than needed, and every inclusion-minimal one meets Theorem 5's
        // bound.
        let r = Bag::from_u64s(
            schema(&[0, 1]),
            [(&[1u64, 1][..], 2), (&[2, 1][..], 2), (&[3, 1][..], 2)],
        )
        .unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 1][..], 3), (&[1, 2][..], 3)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let (all, _) = enumerate_solutions(&prog, &SolverConfig::default(), 10_000);
        let minimal = minimal_witnesses(&prog);
        assert!(!minimal.is_empty() && minimal.len() < all.len());
        for x in minimal {
            assert!(prog.is_feasible_point(&x));
            let supp = x.iter().filter(|&&v| v > 0).count();
            assert!(supp <= two_bag_support_bound(&r, &s), "Theorem 5 bound");
        }
    }

    #[test]
    fn minimal_witness_obeys_binary_bound() {
        // Theorem 3(3): minimal witness support ≤ Σ‖R_i‖b, exercised with
        // larger multiplicities where the unary bound would be far looser.
        let r =
            Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 100), (&[2, 1][..], 28)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 1][..], 64), (&[1, 2][..], 64)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let minimal = minimal_witnesses(&prog);
        assert!(!minimal.is_empty());
        for x in minimal {
            let supp = x.iter().filter(|&&v| v > 0).count() as u64;
            assert!(supp <= es_support_bound(&[&r, &s]));
        }
    }
}
