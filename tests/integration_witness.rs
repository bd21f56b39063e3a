//! Integration: witness sizes — Theorem 3, Theorem 5, Theorem 6, and
//! Example 1 (experiments E5, E9, E10 at test scale).

use bagcons::acyclic::WitnessStrategy;
use bagcons::session::Session;
use bagcons_core::{Bag, Schema};
use bagcons_gen::consistent::{planted_family, planted_pair};
use bagcons_gen::families::{example1_chain, example1_uniform_witness, section3_pair};
use bagcons_hypergraph::{path, star};
use bagcons_lp::bounds::{es_support_bound, theorem3_bounds, two_bag_support_bound};
use bagcons_lp::ilp::{enumerate_solutions, SolverConfig};
use bagcons_lp::ConsistencyProgram;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn example1_bag_join_witness_is_exponentially_bigger_than_input() {
    // the paper's Example 1: input size Θ(n²) in binary, uniform witness
    // J with 2ⁿ support tuples. The gap is asymptotic: 2ⁿ overtakes
    // 4(n−1)(n+1) from n = 8 onwards.
    for n in [8u32, 12, 16] {
        let bags = example1_chain(n).unwrap();
        let input_bits: u64 = bags.iter().map(|b| b.binary_size()).sum();
        let j = example1_uniform_witness(n).unwrap();
        assert_eq!(j.support_size() as u64, 1 << n);
        assert!(
            (j.support_size() as u64) > input_bits,
            "n = {n}: 2^n = {} must exceed input bits {input_bits}",
            j.support_size()
        );
        let refs: Vec<&Bag> = bags.iter().collect();
        assert!(Session::default().is_global_witness(&j, &refs).unwrap());
    }
}

#[test]
fn example1_minimal_witness_stays_polynomial() {
    // Theorem 3(3): a minimal witness has support ≤ Σ‖R_i‖b = 4(n−1)(n+1),
    // dramatically below 2ⁿ. We realize one via the Theorem 6 chain,
    // whose per-step group fill is already a minimal two-bag witness.
    for n in [6u32, 10, 14] {
        let bags = example1_chain(n).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        let t = Session::default()
            .acyclic_global_witness(&refs, WitnessStrategy::Saturated)
            .unwrap();
        assert!(Session::default().is_global_witness(&t, &refs).unwrap());
        let supp_bound: usize = refs.iter().map(|b| b.support_size()).sum();
        assert!(t.support_size() <= supp_bound, "Theorem 6 bound at n = {n}");
        assert!((t.support_size() as u64) <= es_support_bound(&refs));
        assert!(
            t.support_size() < (1usize << n),
            "exponentially below the uniform witness"
        );
    }
}

#[test]
fn section3_all_witnesses_are_incomparable_and_inside_join() {
    // "these witnesses are pairwise incomparable in the bag-containment
    // sense and their supports are properly contained in the support of
    // the bag join"
    for n in 2..=5u64 {
        let (r, s) = section3_pair(n).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let (sols, complete) = enumerate_solutions(&prog, &SolverConfig::default(), 1 << 12);
        assert!(complete);
        assert_eq!(sols.len(), 1 << (n - 1));
        let witnesses: Vec<Bag> = sols
            .iter()
            .map(|x| prog.bag_from_solution(x).unwrap())
            .collect();
        let join = bagcons_core::join::bag_join(&r, &s).unwrap();
        for (i, w) in witnesses.iter().enumerate() {
            // support strictly inside the join support
            assert!(w.support().subset_of(&join.support()));
            assert!(
                w.support_size() < join.support_size(),
                "proper containment at n={n}"
            );
            for (j, u) in witnesses.iter().enumerate() {
                if i != j {
                    assert!(!w.contained_in(u), "witnesses {i},{j} comparable at n={n}");
                }
            }
        }
    }
}

#[test]
fn theorem5_bound_is_tight_enough_on_random_pairs() {
    let mut rng = StdRng::seed_from_u64(99);
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let session = Session::default();
    for _ in 0..15 {
        let (r, s) = planted_pair(&x, &y, 5, 40, 50, &mut rng).unwrap();
        let w = session.consistency_witness(&r, &s).unwrap().unwrap();
        assert!(w.support_size() <= two_bag_support_bound(&r, &s));
        // and the generic Theorem 3 bounds hold as well
        let b = theorem3_bounds(&[&r, &s]);
        assert!(w.multiplicity_bound() <= b.multiplicity);
        assert!((w.support_size() as u128) <= b.support_unary);
    }
}

#[test]
fn theorem6_chain_bound_on_larger_acyclic_families() {
    let mut rng = StdRng::seed_from_u64(123);
    for h in [path(6), star(5)] {
        let (bags, _) = planted_family(&h, 4, 50, 12, &mut rng).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        let t = Session::default()
            .acyclic_global_witness(&refs, WitnessStrategy::Saturated)
            .unwrap();
        let bound: usize = refs.iter().map(|b| b.support_size()).sum();
        assert!(t.support_size() <= bound);
        assert!(Session::default().is_global_witness(&t, &refs).unwrap());
        // Theorem 3(1): multiplicities bounded by the inputs' maximum
        let mu = refs.iter().map(|b| b.multiplicity_bound()).max().unwrap();
        assert!(t.multiplicity_bound() <= mu);
    }
}

#[test]
fn saturated_vs_minimal_strategy_support_comparison() {
    // Along a planted path family, the group fill (the saturated flow
    // every `check` and chain step uses, and Corollary 4's minimal
    // witness) witnesses each adjacent pair and is a vertex of P(R,S):
    // support ≤ ‖R‖supp + ‖S‖supp − #groups.
    let mut rng = StdRng::seed_from_u64(321);
    let (bags, _) = planted_family(&path(5), 4, 40, 9, &mut rng).unwrap();
    let session = Session::default();
    for pair in bags.windows(2) {
        let (r, s) = (&pair[0], &pair[1]);
        let z = r.schema().intersection(s.schema());
        let bound = r.support_size() + s.support_size() - r.marginal(&z).unwrap().support_size();
        let fill = session.consistency_witness(r, s).unwrap().unwrap();
        assert!(session.is_global_witness(&fill, &[r, s]).unwrap());
        assert!(fill.support_size() <= bound);
    }
    let refs: Vec<&Bag> = bags.iter().collect();
    let chain = session
        .acyclic_global_witness(&refs, WitnessStrategy::Saturated)
        .unwrap();
    assert!(session.is_global_witness(&chain, &refs).unwrap());
    let bound: usize = refs.iter().map(|b| b.support_size()).sum();
    assert!(chain.support_size() <= bound);
}
