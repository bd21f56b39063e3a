//! Integration: Lemma 2's five-way equivalence on generated workloads
//! (experiment E2 at test scale).

use bagcons::session::Session;
use bagcons_core::{Bag, Schema};
use bagcons_gen::consistent::planted_pair;
use bagcons_gen::perturb::bump_one_tuple;
use bagcons_gen::random::random_bag;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn five_way_equivalence_on_planted_consistent_pairs() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    // Keep instances small: the report runs the exact ILP search as one of
    // its five independent checks, and the search's value branching grows
    // with multiplicity × join size.
    for support in [1usize, 4, 10] {
        for _ in 0..8 {
            let (r, s) = planted_pair(&x, &y, 4, support, 8, &mut rng).unwrap();
            let rep = Session::default().pairwise_report(&r, &s).unwrap().report;
            assert!(rep.all_agree(), "disagreement on planted pair: {rep:?}");
            assert!(
                rep.consistent(),
                "planted pairs are consistent by construction"
            );
        }
    }
}

#[test]
fn five_way_equivalence_on_perturbed_pairs() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    for _ in 0..20 {
        let (r, s) = planted_pair(&x, &y, 3, 12, 16, &mut rng).unwrap();
        let mut bags = vec![r, s];
        bump_one_tuple(&mut bags, &mut rng).unwrap();
        let rep = Session::default()
            .pairwise_report(&bags[0], &bags[1])
            .unwrap()
            .report;
        assert!(rep.all_agree(), "disagreement on perturbed pair: {rep:?}");
        assert!(!rep.consistent(), "a bumped tuple must break consistency");
    }
}

#[test]
fn five_way_equivalence_on_unrelated_random_bags() {
    // Unrelated random bags are *usually* inconsistent but occasionally
    // consistent; either way the five statements must agree.
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let mut seen_consistent = 0u32;
    let mut seen_inconsistent = 0u32;
    for _ in 0..60 {
        let r = random_bag(&x, 2, 4, 3, &mut rng);
        let s = random_bag(&y, 2, 4, 3, &mut rng);
        let rep = Session::default().pairwise_report(&r, &s).unwrap().report;
        assert!(rep.all_agree(), "disagreement: {rep:?}");
        if rep.consistent() {
            seen_consistent += 1;
        } else {
            seen_inconsistent += 1;
        }
    }
    // the workload exercises both branches
    assert!(seen_inconsistent > 0);
    assert!(seen_consistent + seen_inconsistent == 60);
}

#[test]
fn disjoint_and_identical_schema_edge_cases() {
    let mut rng = StdRng::seed_from_u64(7);
    // disjoint schemas: consistent iff totals equal
    let a = Schema::range(0, 2);
    let b = Schema::range(5, 7);
    let r = random_bag(&a, 3, 6, 5, &mut rng);
    let total = u64::try_from(r.unary_size()).unwrap();
    let mut s = Bag::new(b.clone());
    s.insert(vec![bagcons_core::Value(0), bagcons_core::Value(0)], total)
        .unwrap();
    let rep = Session::default().pairwise_report(&r, &s).unwrap().report;
    assert!(rep.all_agree());
    assert!(rep.consistent());
    // identical schemas: consistent iff equal
    let rep = Session::default()
        .pairwise_report(&r, &r.clone())
        .unwrap()
        .report;
    assert!(rep.all_agree());
    assert!(rep.consistent());
}

#[test]
fn large_binary_multiplicities() {
    // Lemma 2 and the flow path must handle 2^40-scale multiplicities
    // (binary representation is the regime Theorem 3 cares about).
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let big = 1u64 << 40;
    let r = Bag::from_u64s(x, [(&[0u64, 0][..], big), (&[1, 0][..], big * 3)]).unwrap();
    let s = Bag::from_u64s(y, [(&[0u64, 0][..], big * 2), (&[0, 1][..], big * 2)]).unwrap();
    let rep = Session::default().pairwise_report(&r, &s).unwrap().report;
    assert!(rep.all_agree());
    assert!(rep.consistent());
    let w = rep.witness.unwrap();
    assert_eq!(w.unary_size(), (big * 4) as u128);
}
