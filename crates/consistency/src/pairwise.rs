//! Two-bag and pairwise consistency (Section 3 of the paper).
//!
//! Lemma 2 gives the polynomial decision procedure: `R(X)` and `S(Y)` are
//! consistent iff `R[X∩Y] = S[X∩Y]`. Corollary 1 adds the
//! strongly-polynomial witness construction via a saturated max-flow of
//! `N(R,S)`.

use bagcons_core::{Bag, CoreError, ExecConfig, Result, Schema};
use bagcons_flow::ConsistencyNetwork;

/// Lemma 2 (1)⟺(2): decides consistency of two bags by comparing the
/// marginals on the common attributes.
///
/// ```
/// use bagcons_core::{Bag, Schema};
/// use bagcons::pairwise::bags_consistent;
///
/// let r = Bag::from_u64s(Schema::range(0, 2), [(&[1u64, 2][..], 1), (&[2, 2][..], 1)])?;
/// let s = Bag::from_u64s(Schema::range(1, 3), [(&[2u64, 1][..], 1), (&[2, 2][..], 1)])?;
/// assert!(bags_consistent(&r, &s)?);
///
/// // tripling one side breaks the shared marginal
/// assert!(!bags_consistent(&r, &s.scale(3)?)?);
/// # Ok::<(), bagcons_core::CoreError>(())
/// ```
///
/// Legacy shim — prefer [`crate::session::Session::bags_consistent`].
#[doc(hidden)]
pub fn bags_consistent(r: &Bag, s: &Bag) -> Result<bool> {
    crate::session::Session::default().bags_consistent(r, s)
}

/// [`bags_consistent`] under an explicit execution configuration: the
/// two marginals are computed with shard-parallel prefix sweeps when the
/// bags are sealed and `cfg` permits.
pub fn bags_consistent_with(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<bool> {
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
/// when the bags are inconsistent.
///
/// ```
/// use bagcons_core::{Bag, Schema};
/// use bagcons::pairwise::consistency_witness;
///
/// let r = Bag::from_u64s(Schema::range(0, 2), [(&[0u64, 0][..], 2), (&[1, 0][..], 1)])?;
/// let s = Bag::from_u64s(Schema::range(1, 3), [(&[0u64, 5][..], 1), (&[0, 6][..], 2)])?;
/// let t = consistency_witness(&r, &s)?.expect("consistent");
/// assert_eq!(t.marginal(r.schema())?, r);
/// assert_eq!(t.marginal(s.schema())?, s);
/// # Ok::<(), bagcons_core::CoreError>(())
/// ```
///
/// Legacy shim — prefer [`crate::session::Session::consistency_witness`].
#[doc(hidden)]
pub fn consistency_witness(r: &Bag, s: &Bag) -> Result<Option<Bag>> {
    crate::session::Session::default().consistency_witness(r, s)
}

/// [`consistency_witness`] under an explicit execution configuration:
/// the marginal pre-check, the `N(R,S)` middle-edge build, and the
/// witness's closing seal all run shard-parallel when `cfg` permits.
pub fn consistency_witness_with(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<Option<Bag>> {
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

/// True iff every two bags of the collection are consistent
/// (the paper's *pairwise consistency*).
///
/// Legacy shim — prefer [`crate::session::Session::pairwise_consistent`].
#[doc(hidden)]
pub fn pairwise_consistent(bags: &[&Bag]) -> Result<bool> {
    crate::session::Session::default().pairwise_consistent(bags)
}

/// [`pairwise_consistent`] under an explicit execution configuration.
pub fn pairwise_consistent_with(bags: &[&Bag], cfg: &ExecConfig) -> Result<bool> {
    Ok(first_inconsistent_pair_with(bags, cfg)?.is_none())
}

/// Returns the first (lexicographic) inconsistent index pair, or `None`
/// when the collection is pairwise consistent.
///
/// Legacy shim — prefer
/// [`crate::session::Session::first_inconsistent_pair`].
#[doc(hidden)]
pub fn first_inconsistent_pair(bags: &[&Bag]) -> Result<Option<(usize, usize)>> {
    crate::session::Session::default().first_inconsistent_pair(bags)
}

/// [`first_inconsistent_pair`] under an explicit execution configuration.
///
/// Polls `cfg`'s [`bagcons_core::Deadline`] between pairs: an expiry or
/// cancellation surfaces as [`CoreError::Aborted`], which the session
/// layer converts into a graceful `Decision::Unknown`.
pub fn first_inconsistent_pair_with(
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
        assert!(bags_consistent(&r, &s).unwrap());
        // R[A1] = {2 : 2} but bad[A1] = {2 : 3}
        let bad = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 3)]).unwrap();
        assert!(!bags_consistent(&r, &bad).unwrap());
    }

    #[test]
    fn witness_marginalizes_back() {
        let (r, s) = section3_pair();
        let t = consistency_witness(&r, &s).unwrap().expect("consistent");
        assert!(is_two_bag_witness(&t, &r, &s).unwrap());
    }

    #[test]
    fn witness_support_inside_join_support_lemma1() {
        let (r, s) = section3_pair();
        let t = consistency_witness(&r, &s).unwrap().unwrap();
        let join_supp = bagcons_core::join::relation_join(&r.support(), &s.support());
        assert!(t.support().subset_of(&join_supp));
    }

    #[test]
    fn inconsistent_yields_none() {
        let (r, _) = section3_pair();
        let bad = Bag::from_u64s(schema(&[1, 2]), [(&[9u64, 9][..], 7)]).unwrap();
        assert_eq!(consistency_witness(&r, &bad).unwrap(), None);
    }

    #[test]
    fn bag_join_fails_as_witness_but_flow_succeeds() {
        // Section 3's headline: R1 ⋈ᵇ S1 does NOT witness consistency.
        let (r, s) = section3_pair();
        let join = bagcons_core::join::bag_join(&r, &s).unwrap();
        assert!(!is_two_bag_witness(&join, &r, &s).unwrap());
        assert!(consistency_witness(&r, &s).unwrap().is_some());
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
        assert!(pairwise_consistent(&[&r, &s, &t]).unwrap());
        let bad = Bag::from_u64s(schema(&[0, 2]), [(&[1u64, 1][..], 5)]).unwrap();
        assert_eq!(
            first_inconsistent_pair(&[&r, &s, &bad]).unwrap(),
            Some((0, 2))
        );
    }

    #[test]
    fn same_schema_bags_consistent_iff_equal() {
        let (r, _) = section3_pair();
        assert!(bags_consistent(&r, &r.clone()).unwrap());
        let mut other = r.clone();
        other.insert(vec![Value(7), Value(7)], 1).unwrap();
        assert!(!bags_consistent(&r, &other).unwrap());
    }

    #[test]
    fn empty_intersection_consistent_iff_equal_totals() {
        let r = Bag::from_u64s(schema(&[0]), [(&[1u64][..], 3)]).unwrap();
        let s = Bag::from_u64s(schema(&[1]), [(&[5u64][..], 3)]).unwrap();
        assert!(bags_consistent(&r, &s).unwrap());
        let s4 = Bag::from_u64s(schema(&[1]), [(&[5u64][..], 4)]).unwrap();
        assert!(!bags_consistent(&r, &s4).unwrap());
    }

    #[test]
    fn singleton_and_empty_collections_are_pairwise_consistent() {
        let (r, _) = section3_pair();
        assert!(pairwise_consistent(&[&r]).unwrap());
        assert!(pairwise_consistent(&[]).unwrap());
    }
}
