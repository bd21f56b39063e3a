//! Adversarial perturbations of consistent families.
//!
//! Starting from a consistent family, these helpers produce inputs with a
//! *known* defect, so decision procedures can be tested on both answers.

use bagcons_core::{Bag, Result, Value};
use rand::Rng;

/// Bumps the multiplicity of one random support tuple of one random bag
/// by 1, breaking (at least) every marginal that tuple participates in.
/// Returns the index of the perturbed bag. No-op (returns `None`) when
/// every bag is empty.
pub fn bump_one_tuple<R: Rng>(bags: &mut [Bag], rng: &mut R) -> Result<Option<usize>> {
    let candidates: Vec<usize> = (0..bags.len()).filter(|&i| !bags[i].is_empty()).collect();
    let Some(&i) = candidates.get(rng.gen_range(0..candidates.len().max(1))) else {
        return Ok(None);
    };
    let rows = bags[i].sorted_rows();
    let (row, _) = rows[rng.gen_range(0..rows.len())];
    let row: Vec<Value> = row.to_vec();
    bags[i].insert(row, 1)?;
    Ok(Some(i))
}

/// Scales one bag by `k ≥ 2`, preserving its internal structure but
/// breaking its shared marginals (all totals change).
pub fn scale_one(bags: &mut [Bag], index: usize, k: u64) -> Result<()> {
    bags[index] = bags[index].scale(k)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consistent::planted_family;
    use bagcons::session::Session;
    use bagcons_hypergraph::path;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bump_breaks_consistency() {
        let mut rng = StdRng::seed_from_u64(5);
        let (mut bags, _) = planted_family(&path(4), 3, 30, 5, &mut rng).unwrap();
        {
            let refs: Vec<&Bag> = bags.iter().collect();
            assert!(Session::default().pairwise_consistent(&refs).unwrap());
        }
        let idx = bump_one_tuple(&mut bags, &mut rng).unwrap();
        assert!(idx.is_some());
        let refs: Vec<&Bag> = bags.iter().collect();
        assert!(!Session::default().pairwise_consistent(&refs).unwrap());
    }

    #[test]
    fn scale_breaks_totals() {
        let mut rng = StdRng::seed_from_u64(6);
        let (mut bags, _) = planted_family(&path(3), 3, 20, 5, &mut rng).unwrap();
        scale_one(&mut bags, 0, 3).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        assert!(!Session::default().pairwise_consistent(&refs).unwrap());
    }

    #[test]
    fn bump_on_empty_collection_is_noop() {
        let mut bags: Vec<Bag> = vec![];
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(bump_one_tuple(&mut bags, &mut rng).unwrap(), None);
    }
}
