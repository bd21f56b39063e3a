//! `k`-wise consistency (Section 4, before Lemma 4).
//!
//! A collection `D` of bags over a hypergraph is **k-wise consistent** when
//! every subcollection of at most `k` bags is globally consistent.
//! Pairwise = 2-wise; globally consistent = `m`-wise. Lemma 4 shows safe-
//! deletion lifting preserves `k`-wise consistency for every `k`, which
//! the integration tests verify through this module.

use crate::global::globally_consistent_via_ilp;
use bagcons_core::{Bag, Result};
use bagcons_lp::ilp::{IlpOutcome, SolverConfig};

/// Decides `k`-wise consistency by checking every subset of size ≤ `k`
/// with the exact solver. Exponential in both the subset lattice and the
/// per-subset search — intended for the small collections in experiments
/// and tests, exactly where the paper uses the notion.
///
/// Returns `Ok(None)` if some subset's search hit the node limit.
pub fn k_wise_consistent(bags: &[&Bag], k: usize, cfg: &SolverConfig) -> Result<Option<bool>> {
    let m = bags.len();
    let k = k.min(m);
    // Enumerate subsets of size 2..=k (size 0/1 are trivially consistent).
    let mut indices: Vec<usize> = Vec::new();
    fn rec(
        bags: &[&Bag],
        cfg: &SolverConfig,
        start: usize,
        left: usize,
        indices: &mut Vec<usize>,
    ) -> Result<Option<bool>> {
        if indices.len() >= 2 {
            let subset: Vec<&Bag> = indices.iter().map(|&i| bags[i]).collect();
            match globally_consistent_via_ilp(&subset, cfg)?.outcome {
                IlpOutcome::Sat(_) => {}
                IlpOutcome::Unsat => return Ok(Some(false)),
                IlpOutcome::Aborted(_) => return Ok(None),
            }
        }
        if left == 0 {
            return Ok(Some(true));
        }
        for i in start..bags.len() {
            indices.push(i);
            match rec(bags, cfg, i + 1, left - 1, indices)? {
                Some(true) => {}
                other => {
                    indices.pop();
                    return Ok(other);
                }
            }
            indices.pop();
        }
        Ok(Some(true))
    }
    rec(bags, cfg, 0, k, &mut indices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::{Attr, Schema};

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    /// The parity triangle: pairwise consistent, not 3-wise consistent.
    fn parity_triangle() -> Vec<Bag> {
        let even: Vec<(&[u64], u64)> = vec![(&[0, 0], 1), (&[1, 1], 1)];
        let odd: Vec<(&[u64], u64)> = vec![(&[0, 1], 1), (&[1, 0], 1)];
        vec![
            Bag::from_u64s(schema(&[0, 1]), even.clone()).unwrap(),
            Bag::from_u64s(schema(&[1, 2]), even).unwrap(),
            Bag::from_u64s(schema(&[0, 2]), odd).unwrap(),
        ]
    }

    #[test]
    fn two_wise_equals_pairwise() {
        let bags = parity_triangle();
        let refs: Vec<&Bag> = bags.iter().collect();
        assert_eq!(
            k_wise_consistent(&refs, 2, &SolverConfig::default()).unwrap(),
            Some(true)
        );
        assert!(crate::session::Session::default()
            .pairwise_consistent(&refs)
            .unwrap());
    }

    #[test]
    fn three_wise_fails_on_parity_triangle() {
        let bags = parity_triangle();
        let refs: Vec<&Bag> = bags.iter().collect();
        assert_eq!(
            k_wise_consistent(&refs, 3, &SolverConfig::default()).unwrap(),
            Some(false)
        );
    }

    #[test]
    fn m_wise_equals_global_on_consistent_family() {
        let d: Vec<(&[u64], u64)> = vec![(&[0, 0], 1), (&[1, 1], 1)];
        let bags = [
            Bag::from_u64s(schema(&[0, 1]), d.clone()).unwrap(),
            Bag::from_u64s(schema(&[1, 2]), d.clone()).unwrap(),
            Bag::from_u64s(schema(&[0, 2]), d).unwrap(),
        ];
        let refs: Vec<&Bag> = bags.iter().collect();
        assert_eq!(
            k_wise_consistent(&refs, 3, &SolverConfig::default()).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn k_larger_than_m_is_clamped() {
        let bags = parity_triangle();
        let refs: Vec<&Bag> = bags.iter().collect();
        assert_eq!(
            k_wise_consistent(&refs, 99, &SolverConfig::default()).unwrap(),
            Some(false)
        );
    }

    #[test]
    fn trivial_sizes() {
        let bags = parity_triangle();
        let refs: Vec<&Bag> = bags.iter().collect();
        assert_eq!(
            k_wise_consistent(&refs, 1, &SolverConfig::default()).unwrap(),
            Some(true)
        );
        assert_eq!(
            k_wise_consistent(&[], 3, &SolverConfig::default()).unwrap(),
            Some(true)
        );
    }
}
