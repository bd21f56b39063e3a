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
//!
//! [`minimize_support`] realizes minimal witnesses constructively by
//! self-reducibility over the ILP (ban a support tuple, re-solve, keep the
//! ban if still feasible) — the same shape as the paper's middle-edge
//! deletion loop in Section 5.3, but running on `P(R₁,…,R_m)` so it also
//! works for `m > 2` (at exponential worst-case cost, as Theorem 4 demands
//! on cyclic schemas).

use crate::ilp::{solve_masked, IlpOutcome, SolverConfig};
use crate::ConsistencyProgram;
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

/// Finds a feasible point of `prog` whose support is **inclusion-minimal**
/// (no witness has support strictly contained in it), by greedy banning.
///
/// Returns `None` if the program is infeasible, or if the node budget was
/// exhausted mid-way (in which case minimality could not be certified).
pub fn minimize_support(prog: &ConsistencyProgram, cfg: &SolverConfig) -> Option<Vec<u64>> {
    let n = prog.num_variables();
    let mut banned = vec![false; n];
    let (first, _) = solve_masked(prog, cfg, &banned);
    let mut current = match first {
        IlpOutcome::Sat(x) => x,
        _ => return None,
    };
    for v in 0..n {
        if banned[v] {
            continue;
        }
        if current[v] == 0 {
            // already unused — ban it so later feasibility checks can only
            // tighten, preserving the minimality argument
            banned[v] = true;
            continue;
        }
        banned[v] = true;
        match solve_masked(prog, cfg, &banned) {
            (IlpOutcome::Sat(x), _) => current = x,
            (IlpOutcome::Unsat, _) => banned[v] = false,
            (IlpOutcome::Aborted(_), _) => return None,
        }
    }
    Some(current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ilp::solve;
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
        let (sols, complete) =
            crate::ilp::enumerate_solutions(&prog, &SolverConfig::default(), 10_000);
        assert!(complete);
        assert!(!sols.is_empty());
        for x in sols {
            let w = prog.bag_from_solution(&x).unwrap();
            assert!(witness_respects_theorem3(&w, &[&r, &s]));
        }
    }

    #[test]
    fn minimized_support_is_minimal_and_within_caratheodory() {
        // Two bags with plenty of slack: support of the natural witness is
        // larger than necessary; after minimization Theorem 5's bound holds.
        let r = Bag::from_u64s(
            schema(&[0, 1]),
            [(&[1u64, 1][..], 2), (&[2, 1][..], 2), (&[3, 1][..], 2)],
        )
        .unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 1][..], 3), (&[1, 2][..], 3)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let x = minimize_support(&prog, &SolverConfig::default()).expect("consistent");
        assert!(prog.is_feasible_point(&x));
        let supp = x.iter().filter(|&&v| v > 0).count();
        assert!(supp <= two_bag_support_bound(&r, &s), "Theorem 5 bound");
        // minimality: banning any used variable makes it infeasible
        for v in 0..prog.num_variables() {
            if x[v] > 0 {
                let mut banned: Vec<bool> = x.iter().map(|&xv| xv == 0).collect();
                banned[v] = true;
                let (o, _) = solve_masked(&prog, &SolverConfig::default(), &banned);
                assert_eq!(o, IlpOutcome::Unsat, "support must be minimal");
            }
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
        let x = minimize_support(&prog, &SolverConfig::default()).expect("consistent");
        let supp = x.iter().filter(|&&v| v > 0).count() as u64;
        assert!(supp <= es_support_bound(&[&r, &s]));
    }

    #[test]
    fn minimize_support_on_infeasible_returns_none() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 1][..], 3)]).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        assert_eq!(solve(&prog, &SolverConfig::default()).0, IlpOutcome::Unsat);
        assert!(minimize_support(&prog, &SolverConfig::default()).is_none());
    }
}
