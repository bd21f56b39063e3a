//! Slow oracles for Lemma 2's pair test and the dichotomy decision.
//!
//! The crate decides every bag pair through one keyed marginal
//! difference. Here that test is checked against the definition itself:
//! both marginals on `Z = X ∩ Y`, summed in `u128` into `BTreeMap`s and
//! compared. Random small pairs cover disjoint, nested, overlapping and
//! equal schemas, with multiplicities near `u64::MAX`, so a shared-key
//! mass of 2^64 and beyond is routine. Every session surface that rests
//! on the pair test (`bags_consistent`, `first_inconsistent_pair`,
//! `check`, `diagnose`, `open_stream`) must agree with the oracle.
//!
//! A second property pins the stream to the session: on planted and
//! bumped path and triangle families from `bagcons-gen`, opening a
//! stream decides exactly what `check` decides.

use bag_consistency::prelude::*;
use bagcons::diagnose::Diagnosis;
use bagcons_core::DeltaSet;
use bagcons_gen::consistent::planted_family;
use bagcons_gen::perturb::bump_one_tuple;
use bagcons_hypergraph::{path, triangle};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// `bag[Z]` by definition, summed in `u128` so it cannot overflow.
fn marginal_u128(bag: &Bag, z: &Schema) -> BTreeMap<Vec<Value>, u128> {
    let cols = bag.schema().projection_indices(z).unwrap();
    let mut out = BTreeMap::new();
    for (row, m) in bag.iter() {
        let key: Vec<Value> = cols.iter().map(|&c| row[c]).collect();
        *out.entry(key).or_insert(0) += u128::from(m);
    }
    out
}

/// The schema pair of each shape: disjoint, nested (`Y ⊂ X`),
/// overlapping, and equal.
fn shape(kind: u8) -> (Schema, Schema) {
    let attrs = |ids: &[u32]| Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)));
    match kind {
        0 => (attrs(&[0, 1]), attrs(&[2, 3])),
        1 => (attrs(&[0, 1, 2]), attrs(&[1, 2])),
        2 => (attrs(&[0, 1]), attrs(&[1, 2])),
        _ => (attrs(&[0, 1]), attrs(&[0, 1])),
    }
}

/// A multiplicity: small, or within 3 of `u64::MAX`.
fn mult((big, k): (u8, u64)) -> u64 {
    if big == 0 {
        u64::MAX - k
    } else {
        k + 1
    }
}

/// Inserts `m` at `row`, dropping an insert that would overflow the
/// row's `u64` multiplicity (such a bag is not legal input).
fn insert(bag: &mut Bag, row: &[Value], m: u64) {
    if let Err(e) = bag.insert_row(row, m) {
        assert!(matches!(e, CoreError::MultiplicityOverflow), "{e}");
    }
}

type Rows = Vec<(Vec<u64>, (u8, u64))>;

/// Raw rows for one side: values in `0..3`, one in three multiplicities
/// near `u64::MAX`.
fn arb_rows() -> impl Strategy<Value = Rows> {
    collection::vec((collection::vec(0..3u64, 3), (0..3u8, 0..4u64)), 0..=6)
}

/// Builds the pair. `mode` 0 draws `S` at random; mode 1 mirrors `R`
/// (each `R`-row becomes one `S`-row with the same `Z` values and
/// multiplicity), so the pair is consistent whenever `S` is legal;
/// mode 2 mirrors and then moves one unit of `S` to a fresh `Z`-key,
/// which keeps the totals equal but breaks the keyed marginal.
fn build(kind: u8, mode: u8, r_rows: &Rows, s_rows: &Rows) -> (Bag, Bag) {
    let (x, y) = shape(kind);
    let mut r = Bag::new(x.clone());
    for (vals, m) in r_rows {
        let row: Vec<Value> = vals[..x.arity()].iter().map(|&v| Value(v)).collect();
        insert(&mut r, &row, mult(*m));
    }
    let mut s = Bag::new(y.clone());
    if mode == 0 {
        for (vals, m) in s_rows {
            let row: Vec<Value> = vals[..y.arity()].iter().map(|&v| Value(v)).collect();
            insert(&mut s, &row, mult(*m));
        }
        return (r, s);
    }
    for (i, (row, m)) in r.iter().enumerate() {
        let mirrored: Vec<Value> = y
            .iter()
            .map(|a| match x.position(a) {
                Some(p) => row[p],
                None => Value(10 + i as u64),
            })
            .collect();
        insert(&mut s, &mirrored, m);
    }
    if mode == 2 {
        let first = s.iter().next().map(|(row, _)| row.to_vec());
        if let Some(row) = first {
            let fresh: Vec<Value> = y
                .iter()
                .zip(&row)
                .map(|(a, &v)| if x.contains(a) { Value(99) } else { v })
                .collect();
            let mut minus = DeltaSet::new(y);
            minus.bump(&row, -1).unwrap();
            s.apply_delta(&minus).unwrap();
            s.insert_row(&fresh, 1).unwrap();
        }
    }
    (r, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The pair test, and everything built on it, equals the `u128`
    /// marginal comparison.
    #[test]
    fn pair_test_matches_u128_marginals(
        kind in 0..4u8,
        mode in 0..3u8,
        r_rows in arb_rows(),
        s_rows in arb_rows(),
    ) {
        let (r, s) = build(kind, mode, &r_rows, &s_rows);
        let z = r.schema().intersection(s.schema());
        let (mr, ms) = (marginal_u128(&r, &z), marginal_u128(&s, &z));
        let consistent = mr == ms;

        let session = Session::default();
        prop_assert_eq!(session.bags_consistent(&r, &s).unwrap(), consistent);
        prop_assert_eq!(session.bags_consistent(&s, &r).unwrap(), consistent);
        let expected_pair = if consistent { None } else { Some((0, 1)) };
        prop_assert_eq!(session.first_inconsistent_pair(&[&r, &s]).unwrap(), expected_pair);

        let out = session.check(&[&r, &s]).unwrap();
        let decision = if consistent { Decision::Consistent } else { Decision::Inconsistent };
        prop_assert_eq!(out.decision, decision);
        prop_assert_eq!(out.inconsistent_pair, expected_pair);
        prop_assert!(out.witness.is_none());
        let stream = session.open_stream(vec![r.clone(), s.clone()]).unwrap();
        prop_assert_eq!(stream.decision(), decision);

        // Diagnose lists exactly the keys where the marginals differ,
        // with their counts; a count past u64 is a typed overflow.
        let fits = |m: &BTreeMap<Vec<Value>, u128>| m.values().all(|&c| c <= u128::from(u64::MAX));
        match session.diagnose(&[&r, &s]) {
            Ok(out) => match out.diagnosis {
                Diagnosis::PairwiseConsistent { acyclic, .. } => {
                    prop_assert!(consistent);
                    prop_assert!(acyclic);
                }
                Diagnosis::PairwiseInconsistent(ms_found) => {
                    prop_assert!(!consistent);
                    let differing: Vec<&Vec<Value>> = mr
                        .keys()
                        .chain(ms.keys())
                        .filter(|k| mr.get(*k) != ms.get(*k))
                        .collect::<std::collections::BTreeSet<_>>()
                        .into_iter()
                        .collect();
                    prop_assert_eq!(ms_found.len(), differing.len());
                    for (m, key) in ms_found.iter().zip(differing) {
                        prop_assert_eq!(&m.tuple[..], &key[..]);
                        let at = |side: &BTreeMap<Vec<Value>, u128>| side.get(key).copied();
                        prop_assert_eq!(u128::from(m.left_count), at(&mr).unwrap_or(0));
                        prop_assert_eq!(u128::from(m.right_count), at(&ms).unwrap_or(0));
                    }
                }
            },
            Err(SessionError::Core(CoreError::MultiplicityOverflow)) => {
                prop_assert!(!consistent);
                prop_assert!(!fits(&mr) || !fits(&ms));
            }
            Err(e) => panic!("diagnose failed: {e}"),
        }
    }

    /// A freshly opened stream decides what `check` decides, on planted
    /// and bumped path and triangle families.
    #[test]
    fn stream_decision_matches_check(seed in 0u64..1 << 48, cyclic in 0u8..2, bump in 0u8..2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = if cyclic == 1 { triangle() } else { path(5) };
        let (mut bags, _) = planted_family(&h, 3, 8, 4, &mut rng).unwrap();
        if bump == 1 {
            bump_one_tuple(&mut bags, &mut rng).unwrap();
        }
        let session = Session::default();
        let refs: Vec<&Bag> = bags.iter().collect();
        let out = session.check(&refs).unwrap();
        prop_assert!(out.witness.is_none());
        let stream = session.open_stream(bags.clone()).unwrap();
        prop_assert_eq!(stream.decision(), out.decision);
        prop_assert_eq!(stream.inconsistent_pair(), out.inconsistent_pair);
        prop_assert_eq!(stream.branch(), out.branch);
    }
}
