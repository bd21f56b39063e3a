//! Randomized cross-validation of the structural characterizations
//! (Theorems 1/2 (a)–(d)) and the obstruction pipeline on unstructured
//! hypergraphs.

use bagcons::global::globally_consistent_via_ilp;
use bagcons::lifting::pairwise_consistent_globally_inconsistent;
use bagcons::session::Session;
use bagcons_core::Bag;
use bagcons_gen::random::random_hypergraph;
use bagcons_hypergraph::{
    find_obstruction, is_acyclic, is_chordal, is_conformal, rip_order, JoinTree, ObstructionKind,
};
use bagcons_lp::ilp::{IlpOutcome, SolverConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn structural_equivalences_on_200_random_hypergraphs() {
    let mut rng = StdRng::seed_from_u64(2021);
    let mut acyclic_count = 0u32;
    let mut cyclic_count = 0u32;
    for round in 0..200 {
        let h = random_hypergraph(7, 6, 4, &mut rng);
        let a = is_acyclic(&h);
        let b = is_conformal(&h) && is_chordal(&h);
        let c = rip_order(&h).is_some();
        let d = JoinTree::build(&h).is_some();
        assert_eq!(a, b, "round {round}: GYO vs conformal∧chordal on {h}");
        assert_eq!(a, c, "round {round}: GYO vs RIP on {h}");
        assert_eq!(a, d, "round {round}: GYO vs join tree on {h}");
        // obstruction existence must coincide with cyclicity
        let ob = find_obstruction(&h);
        assert_eq!(
            ob.is_some(),
            !a,
            "round {round}: obstruction vs acyclicity on {h}"
        );
        if let Some(ob) = ob {
            match ob.kind {
                ObstructionKind::Cycle(n) => assert!(n >= 4),
                ObstructionKind::CliqueComplement(n) => assert!(n >= 3),
            }
        }
        if a {
            acyclic_count += 1;
        } else {
            cyclic_count += 1;
        }
    }
    // the workload must exercise both classes substantially
    assert!(
        acyclic_count >= 20,
        "too few acyclic samples: {acyclic_count}"
    );
    assert!(cyclic_count >= 20, "too few cyclic samples: {cyclic_count}");
}

#[test]
fn counterexample_pipeline_on_random_cyclic_hypergraphs() {
    // On a sample of random cyclic hypergraphs, the full Theorem 2 Step 2
    // pipeline must always deliver a valid counterexample.
    let mut rng = StdRng::seed_from_u64(77);
    let mut verified = 0u32;
    for _ in 0..60 {
        let h = random_hypergraph(6, 5, 3, &mut rng);
        if is_acyclic(&h) {
            continue;
        }
        let bags = pairwise_consistent_globally_inconsistent(&h)
            .unwrap()
            .expect("cyclic hypergraph must yield a counterexample");
        assert_eq!(bags.len(), h.num_edges());
        let refs: Vec<&Bag> = bags.iter().collect();
        assert!(
            Session::default().pairwise_consistent(&refs).unwrap(),
            "on {h}"
        );
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        assert_eq!(dec.outcome, IlpOutcome::Unsat, "on {h}");
        verified += 1;
        if verified >= 25 {
            break; // enough evidence; keep the test fast
        }
    }
    assert!(
        verified >= 10,
        "sample contained too few cyclic hypergraphs: {verified}"
    );
}
