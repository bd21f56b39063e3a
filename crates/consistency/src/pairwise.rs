//! Two-bag and pairwise consistency (Section 3 of the paper).
//!
//! Lemma 2 gives the polynomial decision procedure: `R(X)` and `S(Y)` are
//! consistent iff `R[X∩Y] = S[X∩Y]`. Corollary 1 adds the
//! strongly-polynomial witness construction via a saturated max-flow of
//! `N(R,S)`.

use bagcons_core::{Bag, CoreError, ExecConfig, Result, Schema};
use bagcons_flow::ConsistencyNetwork;

/// Lemma 2 (1)⟺(2): decides consistency of two bags by comparing the
/// marginals on the common attributes, computed with shard-parallel
/// prefix sweeps when the bags are sealed and `cfg` permits. The public
/// entry is [`crate::session::Session::bags_consistent`].
pub(crate) fn bags_consistent_with(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<bool> {
    // ‖R‖u = ‖S‖u is the marginal equality on ∅ ⊆ Z: a free O(supp)
    // columnar reduction that rejects most inconsistent pairs before the
    // marginals are materialized.
    if r.unary_size() != s.unary_size() {
        return Ok(false);
    }
    let z: Schema = r.schema().intersection(s.schema());
    Ok(r.marginal_with(&z, cfg)? == s.marginal_with(&z, cfg)?)
}

/// Corollary 1: returns a bag `T(XY)` with `T[X] = R` and `T[Y] = S`
/// (constructed from an integral saturated flow of `N(R,S)`), or `None`
/// when the bags are inconsistent. The marginal pre-check, the `N(R,S)`
/// middle-edge build, and the witness's closing seal all run
/// shard-parallel when `cfg` permits. The public entry is
/// [`crate::session::Session::consistency_witness`].
pub(crate) fn consistency_witness_with(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<Option<Bag>> {
    // Cheap marginal pre-check avoids building the join for clearly
    // inconsistent inputs; the flow solve re-verifies via saturation.
    if !bags_consistent_with(r, s, cfg)? {
        return Ok(None);
    }
    let witness = ConsistencyNetwork::build_with(r, s, cfg)?.solve_with(cfg)?;
    debug_assert!(
        witness.is_some(),
        "Lemma 2: marginal equality implies a saturated flow"
    );
    Ok(witness)
}

/// Returns the first (lexicographic) inconsistent index pair, or `None`
/// when the collection is pairwise consistent. The public entry is
/// [`crate::session::Session::first_inconsistent_pair`].
///
/// Polls `cfg`'s [`bagcons_core::Deadline`] between pairs: an expiry or
/// cancellation surfaces as [`CoreError::Aborted`], which the session
/// layer converts into a graceful `Decision::Unknown`.
pub(crate) fn first_inconsistent_pair_with(
    bags: &[&Bag],
    cfg: &ExecConfig,
) -> Result<Option<(usize, usize)>> {
    for i in 0..bags.len() {
        for j in (i + 1)..bags.len() {
            if let Some(reason) = cfg.deadline().poll() {
                return Err(CoreError::Aborted(reason));
            }
            if !bags_consistent_with(bags[i], bags[j], cfg)? {
                return Ok(Some((i, j)));
            }
        }
    }
    Ok(None)
}

/// Verifies that `t` witnesses the consistency of `r` and `s`
/// (`T[X] = R` and `T[Y] = S`).
pub fn is_two_bag_witness(t: &Bag, r: &Bag, s: &Bag) -> Result<bool> {
    Ok(t.marginal(r.schema())? == *r && t.marginal(s.schema())? == *s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use bagcons_core::{Attr, Value};

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    fn section3_pair() -> (Bag, Bag) {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 1), (&[2, 2][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 1), (&[2, 2][..], 1)]).unwrap();
        (r, s)
    }

    #[test]
    fn marginal_test_decides_consistency() {
        let (r, s) = section3_pair();
        assert!(Session::default().bags_consistent(&r, &s).unwrap());
        // R[A1] = {2 : 2} but bad[A1] = {2 : 3}
        let bad = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 3)]).unwrap();
        assert!(!Session::default().bags_consistent(&r, &bad).unwrap());
    }

    #[test]
    fn witness_marginalizes_back() {
        let (r, s) = section3_pair();
        let t = Session::default()
            .consistency_witness(&r, &s)
            .unwrap()
            .expect("consistent");
        assert!(is_two_bag_witness(&t, &r, &s).unwrap());
    }

    #[test]
    fn witness_support_inside_join_support_lemma1() {
        let (r, s) = section3_pair();
        let t = Session::default()
            .consistency_witness(&r, &s)
            .unwrap()
            .unwrap();
        let join_supp = bagcons_core::join::relation_join(&r.support(), &s.support());
        assert!(t.support().subset_of(&join_supp));
    }

    #[test]
    fn inconsistent_yields_none() {
        let (r, _) = section3_pair();
        let bad = Bag::from_u64s(schema(&[1, 2]), [(&[9u64, 9][..], 7)]).unwrap();
        assert_eq!(
            Session::default().consistency_witness(&r, &bad).unwrap(),
            None
        );
    }

    #[test]
    fn bag_join_fails_as_witness_but_flow_succeeds() {
        // Section 3's headline: R1 ⋈ᵇ S1 does NOT witness consistency.
        let (r, s) = section3_pair();
        let join = bagcons_core::join::bag_join(&r, &s).unwrap();
        assert!(!is_two_bag_witness(&join, &r, &s).unwrap());
        assert!(Session::default()
            .consistency_witness(&r, &s)
            .unwrap()
            .is_some());
    }

    #[test]
    fn relations_joined_as_bags_differ_from_set_join() {
        // "the bags R_{n-1} and S_{n-1} are actually relations and their
        // join witnesses their consistency as relations, but not as bags"
        let (r, s) = section3_pair();
        let rel_join = bagcons_core::join::relation_join(&r.support(), &s.support());
        // as relations: projections match supports
        assert_eq!(rel_join.project(&schema(&[0, 1])).unwrap(), r.support());
        assert_eq!(rel_join.project(&schema(&[1, 2])).unwrap(), s.support());
        // as bags: marginals overshoot
        assert!(!is_two_bag_witness(&rel_join.to_bag(), &r, &s).unwrap());
    }

    #[test]
    fn pairwise_over_collection() {
        let (r, s) = section3_pair();
        let t = Bag::from_u64s(schema(&[0, 2]), [(&[1u64, 1][..], 1), (&[2, 2][..], 1)]).unwrap();
        assert!(Session::default()
            .pairwise_consistent(&[&r, &s, &t])
            .unwrap());
        let bad = Bag::from_u64s(schema(&[0, 2]), [(&[1u64, 1][..], 5)]).unwrap();
        assert_eq!(
            Session::default()
                .first_inconsistent_pair(&[&r, &s, &bad])
                .unwrap(),
            Some((0, 2))
        );
    }

    #[test]
    fn same_schema_bags_consistent_iff_equal() {
        let (r, _) = section3_pair();
        assert!(Session::default().bags_consistent(&r, &r.clone()).unwrap());
        let mut other = r.clone();
        other.insert(vec![Value(7), Value(7)], 1).unwrap();
        assert!(!Session::default().bags_consistent(&r, &other).unwrap());
    }

    #[test]
    fn empty_intersection_consistent_iff_equal_totals() {
        let r = Bag::from_u64s(schema(&[0]), [(&[1u64][..], 3)]).unwrap();
        let s = Bag::from_u64s(schema(&[1]), [(&[5u64][..], 3)]).unwrap();
        assert!(Session::default().bags_consistent(&r, &s).unwrap());
        let s4 = Bag::from_u64s(schema(&[1]), [(&[5u64][..], 4)]).unwrap();
        assert!(!Session::default().bags_consistent(&r, &s4).unwrap());
    }

    #[test]
    fn singleton_and_empty_collections_are_pairwise_consistent() {
        let (r, _) = section3_pair();
        assert!(Session::default().pairwise_consistent(&[&r]).unwrap());
        assert!(Session::default().pairwise_consistent(&[]).unwrap());
    }
}
