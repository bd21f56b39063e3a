//! Theorem 6's chain over row ids against its row-level oracle, and the
//! chain-first `Session::witness` against `Session::check`.
//!
//! The oracle is the chain as a fold of two-bag fills over materialized
//! bags: one bag per schema, listed in the join tree's running
//! intersection order (`rip_order`), `T ← fill(T, R_i)` at each step.
//! The id chain must return that fold's bag, bit for bit, at threads
//! 1, 2 and 4, on every shape whose steps order their rows differently:
//! paths rooted at either end (ascending and mirrored attribute ids),
//! stars, snowflakes, covered (nested) schemas, interleaved attribute
//! orders, two components, duplicate equal-schema bags, an empty-schema
//! bag, and unsealed bags.
//!
//! On inconsistent families `witness` runs the chain first and the
//! pairwise screen only when a step fails, and must still report the
//! decision and the lexicographically first inconsistent pair that
//! `check` reports.

use bag_consistency::prelude::*;
use bagcons::acyclic::{AcyclicError, WitnessStrategy};
use bagcons_gen::consistent::planted_family;
use bagcons_gen::perturb::bump_one_tuple;
use bagcons_hypergraph::{path, rip_order, star};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A session that shards everything it legally can at `threads` workers.
fn session(threads: usize) -> Session {
    Session::builder()
        .exec(
            ExecConfig::builder()
                .threads(threads)
                .min_parallel_support(1)
                .build()
                .unwrap(),
        )
        .build()
        .unwrap()
}

fn schema(ids: &[u32]) -> Schema {
    Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
}

/// The acyclic shapes: a path, a star, a snowflake, nested schemas, two
/// shapes whose chain has a step ordered by the new bag's rows (every
/// attribute the chain has and the bag lacks exceeds the bag's own: the
/// step `{0,1,2}`, after `{0,3,5}` or after a second component `{4,5}`),
/// each followed by a step keyed on other attributes, so a wrong order
/// within its groups changes the witness, and schemas whose attributes
/// interleave with the chain's union.
fn shape(kind: u8) -> Hypergraph {
    match kind {
        0 => path(5),
        1 => star(4),
        2 => Hypergraph::from_edges([
            schema(&[0, 1]),
            schema(&[1, 2]),
            schema(&[1, 3]),
            schema(&[3, 4]),
            schema(&[3, 5]),
            schema(&[5, 6, 7]),
        ]),
        3 => Hypergraph::from_edges([schema(&[0, 1, 2]), schema(&[1, 2]), schema(&[2, 3])]),
        4 => Hypergraph::from_edges([
            schema(&[0]),
            schema(&[0, 1]),
            schema(&[0, 3, 5]),
            schema(&[0, 1, 2]),
            schema(&[3, 4]),
        ]),
        5 => Hypergraph::from_edges([
            schema(&[0]),
            schema(&[0, 1]),
            schema(&[4, 5]),
            schema(&[0, 1, 2]),
            schema(&[0, 2, 3]),
        ]),
        _ => Hypergraph::from_edges([
            schema(&[0, 2]),
            schema(&[1, 2]),
            schema(&[2, 3, 5]),
            schema(&[4, 5]),
        ]),
    }
}

/// A planted family over `shape(kind)`. `mirror` reverses the attribute
/// ids, which roots a path at its other end and turns every major step
/// into its mirror image. `extra` appends nothing (0), a duplicate of the
/// second bag (1), or the witness's empty-schema marginal (2). The bags
/// are rotated by `rotate` so the input order differs from the chain's.
/// `unseal` leaves every bag unsealed with a tombstone: a row inserted
/// and set back to zero, so storage order is not sorted order.
fn family(seed: u64, kind: u8, mirror: bool, extra: u8, rotate: usize, unseal: bool) -> Vec<Bag> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut bags, witness) = planted_family(&shape(kind), 5, 40, 7, &mut rng).unwrap();
    match extra {
        1 => bags.push(bags[1].clone()),
        2 => bags.push(witness.marginal(&Schema::empty()).unwrap()),
        _ => {}
    }
    if mirror {
        bags = bags
            .iter()
            .map(|b| b.rename(|a| Attr::new(9 - a.id())).unwrap())
            .collect();
    }
    if unseal {
        // The empty schema has one row only, so it has no fresh row.
        for b in bags.iter_mut().filter(|b| b.schema().arity() > 0) {
            let fresh = vec![Value(99); b.schema().arity()];
            b.insert(&fresh, 1).unwrap();
            b.set(&fresh, 0).unwrap();
            assert!(!b.is_sealed());
        }
    }
    let at = rotate % bags.len();
    bags.rotate_left(at);
    bags
}

/// The row-level chain: a fold of two-bag fills in running intersection
/// order over one bag per schema.
fn fold_of_fills(bags: &[&Bag]) -> Bag {
    let fill = session(1);
    let of = |x: &Schema| *bags.iter().find(|b| b.schema() == x).unwrap();
    let h = Hypergraph::from_edges(bags.iter().map(|b| b.schema().clone()));
    let listing = rip_order(&h).expect("acyclic");
    let Some((first, rest)) = listing.split_first() else {
        return bags
            .first()
            .map_or(Bag::new(Schema::empty()), |b| (*b).clone());
    };
    let mut t = of(first).clone();
    for x in rest {
        t = fill
            .consistency_witness(&t, of(x))
            .unwrap()
            .expect("consistent");
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The id chain is the fold of fills, bit for bit, through both
    /// session entries and at every thread count.
    #[test]
    fn id_chain_matches_fold_of_fills(
        seed in 0u64..1 << 48,
        kind in 0u8..7,
        mirror in 0u8..2,
        extra in 0u8..3,
        rotate in 0usize..8,
        unseal in 0u8..2,
    ) {
        let bags = family(seed, kind, mirror == 1, extra, rotate, unseal == 1);
        let refs: Vec<&Bag> = bags.iter().collect();
        let oracle = fold_of_fills(&refs);
        prop_assert!(session(1).is_global_witness(&oracle, &refs).unwrap());
        for threads in [1, 2, 4] {
            let s = session(threads);
            let t = s.acyclic_global_witness(&refs, WitnessStrategy::Saturated).unwrap();
            prop_assert_eq!(&t, &oracle, "threads = {}", threads);
            prop_assert_eq!(t.sorted_rows(), oracle.sorted_rows());
            let out = s.witness(&refs).unwrap();
            prop_assert_eq!(out.check.decision, Decision::Consistent);
            prop_assert_eq!(out.witness(), Some(&oracle));
        }
    }

    /// With one tuple bumped, `witness` refuses with `check`'s decision
    /// and pair, after running the screen, at every thread count.
    #[test]
    fn witness_refutes_like_check(
        seed in 0u64..1 << 48,
        kind in 0u8..7,
        mirror in 0u8..2,
        rotate in 0usize..8,
    ) {
        let mut bags = family(seed, kind, mirror == 1, 0, rotate, false);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        bump_one_tuple(&mut bags, &mut rng).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        let checked = session(1).check(&refs).unwrap();
        prop_assert_eq!(checked.decision, Decision::Inconsistent);
        for threads in [1, 2, 4] {
            let s = session(threads);
            let out = s.witness(&refs).unwrap().check;
            prop_assert_eq!(out.decision, checked.decision);
            prop_assert_eq!(out.inconsistent_pair, checked.inconsistent_pair);
            prop_assert!(out.witness.is_none());
            let stages: Vec<&str> = out.stages.iter().map(|s| s.stage).collect();
            prop_assert_eq!(stages, ["schema", "witness", "pairwise"]);
            let (i, j) = checked.inconsistent_pair.unwrap();
            match s.acyclic_global_witness(&refs, WitnessStrategy::Saturated) {
                Err(AcyclicError::InconsistentPair(a, b)) => prop_assert_eq!((a, b), (i, j)),
                other => prop_assert!(false, "expected InconsistentPair, got {:?}", other),
            }
        }
    }
}

/// Two bags of one schema that differ are refused, though every other
/// pair agrees; the screen names them.
#[test]
fn equal_schema_bags_that_differ_are_refused() {
    let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 2), (&[1, 1][..], 1)]).unwrap();
    let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 5][..], 2), (&[1, 6][..], 1)]).unwrap();
    // Same schema, same marginal on A1, different rows.
    let r2 = Bag::from_u64s(schema(&[0, 1]), [(&[2u64, 0][..], 2), (&[1, 1][..], 1)]).unwrap();
    let refs = [&r, &s, &r2];
    for threads in [1, 2, 4] {
        let sess = session(threads);
        let checked = sess.check(&refs).unwrap();
        assert_eq!(checked.inconsistent_pair, Some((0, 2)));
        let out = sess.witness(&refs).unwrap().check;
        assert_eq!(out.decision, Decision::Inconsistent);
        assert_eq!(out.inconsistent_pair, Some((0, 2)));
        assert!(out.witness.is_none());
    }
}

/// The chain's first failing step tests the pair `(1, 2)`, but `(0, 1)`
/// is inconsistent too and comes first: `witness` reports `(0, 1)`, as
/// `check` does.
#[test]
fn witness_reports_the_first_pair_not_the_failing_step() {
    let mut rng = StdRng::seed_from_u64(7);
    let (bags, _) = planted_family(&path(4), 4, 20, 5, &mut rng).unwrap();
    // Input order {2,3}, {1,2}, {0,1}; the chain runs {0,1}, {1,2}, {2,3}.
    let mut bags: Vec<Bag> = bags.into_iter().rev().collect();
    assert_eq!(bags[0].schema(), &schema(&[2, 3]));
    let row = bags[1].sorted_rows()[0].0.to_vec();
    bags[1].insert(row, 1).unwrap();
    let refs: Vec<&Bag> = bags.iter().collect();
    let checked = Session::default().check(&refs).unwrap();
    assert_eq!(checked.inconsistent_pair, Some((0, 1)));
    let out = Session::default().witness(&refs).unwrap().check;
    assert_eq!(out.decision, Decision::Inconsistent);
    assert_eq!(out.inconsistent_pair, Some((0, 1)));
}

/// An expired deadline aborts the chain, consistent or not: `witness`
/// is `Unknown` with its reason, and runs no screen.
#[test]
fn expired_deadline_aborts_the_chain() {
    let mut rng = StdRng::seed_from_u64(11);
    let (mut bags, _) = planted_family(&path(4), 4, 20, 5, &mut rng).unwrap();
    let expired = Session::builder()
        .deadline(std::time::Duration::ZERO)
        .build()
        .unwrap();
    for bumped in [false, true] {
        if bumped {
            bump_one_tuple(&mut bags, &mut rng).unwrap();
        }
        let refs: Vec<&Bag> = bags.iter().collect();
        let out = expired.witness(&refs).unwrap().check;
        assert_eq!(out.decision, Decision::Unknown, "bumped = {bumped}");
        assert_eq!(
            out.abort_reason,
            Some(bagcons_core::AbortReason::DeadlineExceeded)
        );
        assert!(out.witness.is_none());
        let stages: Vec<&str> = out.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, ["schema", "witness"]);
    }
}
