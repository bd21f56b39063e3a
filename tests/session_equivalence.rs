//! Property tests: a `Session` answers identically at every thread count.
//!
//! A session pinned to one worker thread is the reference; sessions at
//! threads 2 and 4 (sharding everything they legally can) must be
//! bit-identical to it. Inputs come from the `bagcons-gen` family
//! generators (planted consistent families, Tseitin paradoxes, Section 3
//! pairs) driven by proptest-chosen seeds and perturbations, so both the
//! acyclic and cyclic dichotomy branches and both the consistent and
//! inconsistent answers are exercised.

use bag_consistency::prelude::*;
use bagcons::acyclic::WitnessStrategy;
use bagcons::diagnose::Diagnosis;
use bagcons_gen::consistent::{planted_family, planted_pair};
use bagcons_gen::families::section3_pair;
use bagcons_gen::perturb::bump_one_tuple;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Thread counts compared against the `session(1)` reference.
const THREADS: [usize; 2] = [2, 4];

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

/// A planted pair over {A0,A1} × {A1,A2}, optionally perturbed so the
/// inconsistent branch is exercised too.
fn gen_pair(seed: u64, support: usize, perturb: bool) -> (Bag, Bag) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let (mut r, s) = planted_pair(&x, &y, 6, support, 12, &mut rng).unwrap();
    if perturb {
        let mut bags = [r];
        bump_one_tuple(&mut bags, &mut rng).unwrap();
        [r] = bags;
    }
    (r, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two-bag consistency and witnesses agree with the one-thread
    /// reference at every thread count and under `Session::default()`.
    #[test]
    fn two_bag_paths_agree(seed in 0u64..1 << 48, support in 0usize..64, perturb in 0u8..2) {
        let (r, s) = gen_pair(seed, support, perturb == 1);
        let reference = session(1);
        let consistent = reference.bags_consistent(&r, &s).unwrap();
        let witness = reference.consistency_witness(&r, &s).unwrap();
        prop_assert_eq!(witness.is_some(), consistent);
        prop_assert_eq!(Session::default().bags_consistent(&r, &s).unwrap(), consistent);
        prop_assert_eq!(&Session::default().consistency_witness(&r, &s).unwrap(), &witness);
        for threads in THREADS {
            prop_assert_eq!(session(threads).bags_consistent(&r, &s).unwrap(), consistent);
            prop_assert_eq!(
                &session(threads).consistency_witness(&r, &s).unwrap(),
                &witness,
                "witness must be bit-identical at threads = {}", threads
            );
        }
    }

    /// `Session::check` on acyclic planted families (decision, branch,
    /// witness, node count) matches the one-thread dichotomy decision.
    #[test]
    fn check_matches_dichotomy_acyclic(seed in 0u64..1 << 48, perturb in 0u8..2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = Hypergraph::from_edges([
            Schema::range(0, 2),
            Schema::range(1, 3),
            Schema::range(2, 4),
        ]);
        let (mut bags, _) = planted_family(&h, 4, 24, 8, &mut rng).unwrap();
        if perturb == 1 {
            bump_one_tuple(&mut bags, &mut rng).unwrap();
        }
        let refs: Vec<&Bag> = bags.iter().collect();
        let reference = session(1).check(&refs).unwrap();
        prop_assert!(reference.branch.is_acyclic());
        prop_assert_eq!(reference.witness.is_some(), reference.decision == Decision::Consistent);
        for threads in THREADS {
            let out = session(threads).check(&refs).unwrap();
            prop_assert_eq!(out.branch, reference.branch);
            prop_assert_eq!(out.search_nodes, reference.search_nodes);
            prop_assert_eq!(out.decision, reference.decision);
            prop_assert_eq!(&out.witness, &reference.witness);
            prop_assert_eq!(out.inconsistent_pair, reference.inconsistent_pair);
        }
    }

    /// The same equivalence on the cyclic branch (triangle families).
    #[test]
    fn check_matches_dichotomy_cyclic(seed in 0u64..1 << 48, perturb in 0u8..2) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = bagcons_hypergraph::triangle();
        let (mut bags, _) = planted_family(&h, 2, 4, 2, &mut rng).unwrap();
        if perturb == 1 {
            bump_one_tuple(&mut bags, &mut rng).unwrap();
        }
        let refs: Vec<&Bag> = bags.iter().collect();
        let reference = session(1).check(&refs).unwrap();
        prop_assert!(!reference.branch.is_acyclic());
        for threads in THREADS {
            let out = session(threads).check(&refs).unwrap();
            prop_assert!(!out.branch.is_acyclic());
            prop_assert_eq!(out.search_nodes, reference.search_nodes);
            prop_assert_eq!(out.decision, reference.decision);
        }
    }

    /// `Session::diagnose` reports the same mismatches in the same order
    /// and the same schema verdict at every thread count.
    #[test]
    fn diagnose_agrees(seed in 0u64..1 << 48, perturb in 0u8..2) {
        let (r, s) = gen_pair(seed, 24, perturb == 1);
        let reference = session(1).diagnose(&[&r, &s]).unwrap().diagnosis;
        for threads in THREADS {
            let out = session(threads).diagnose(&[&r, &s]).unwrap();
            match (&reference, &out.diagnosis) {
                (
                    Diagnosis::PairwiseConsistent { acyclic: a, .. },
                    Diagnosis::PairwiseConsistent { acyclic: b, .. },
                ) => prop_assert_eq!(a, b),
                (Diagnosis::PairwiseInconsistent(a), Diagnosis::PairwiseInconsistent(b)) => {
                    prop_assert_eq!(a, b);
                }
                _ => prop_assert!(false, "diagnosis shape diverged"),
            }
        }
    }

    /// The acyclic witness chain is bit-identical at every thread count,
    /// for both strategies.
    #[test]
    fn acyclic_witness_agrees(seed in 0u64..1 << 48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let h = Hypergraph::from_edges([Schema::range(0, 2), Schema::range(1, 3)]);
        let (bags, _) = planted_family(&h, 4, 32, 6, &mut rng).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        for strategy in [WitnessStrategy::Minimal, WitnessStrategy::Saturated] {
            let reference = session(1).acyclic_global_witness(&refs, strategy).unwrap();
            for threads in THREADS {
                let t = session(threads).acyclic_global_witness(&refs, strategy).unwrap();
                prop_assert_eq!(&t, &reference, "threads = {}, {:?}", threads, strategy);
            }
        }
    }
}

#[test]
fn section3_family_agrees_at_all_scales() {
    for n in [2u64, 3, 5, 16] {
        let (r, s) = section3_pair(n).unwrap();
        let reference = session(1);
        let witness = reference.consistency_witness(&r, &s).unwrap().unwrap();
        assert!(reference.pairwise_consistent(&[&r, &s]).unwrap());
        assert_eq!(reference.first_inconsistent_pair(&[&r, &s]).unwrap(), None);
        for threads in THREADS {
            let sess = session(threads);
            assert_eq!(sess.consistency_witness(&r, &s).unwrap().unwrap(), witness);
            assert_eq!(sess.first_inconsistent_pair(&[&r, &s]).unwrap(), None);
        }
    }
}

#[test]
fn tseitin_paradox_agrees_across_threads() {
    let bags = bagcons::tseitin::tseitin_bags(&bagcons_hypergraph::cycle(4)).unwrap();
    let refs: Vec<&Bag> = bags.iter().collect();
    let reference = session(1);
    assert!(reference.pairwise_consistent(&refs).unwrap());
    let expected = reference.check(&refs).unwrap();
    assert_eq!(expected.decision, Decision::Inconsistent);
    for sess in [Session::default(), session(2), session(4)] {
        assert!(sess.pairwise_consistent(&refs).unwrap());
        let out = sess.check(&refs).unwrap();
        assert_eq!(out.decision, Decision::Inconsistent);
        assert_eq!(out.search_nodes, expected.search_nodes);
    }
}
