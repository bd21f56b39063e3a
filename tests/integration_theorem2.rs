//! Integration: Theorem 2 — acyclicity ⟺ local-to-global consistency for
//! bags (experiment E4 at test scale), plus the structural equivalences
//! (a)–(d) of Theorems 1/2.

use bagcons::acyclic::WitnessStrategy;
use bagcons::global::globally_consistent_via_ilp;
use bagcons::lifting::pairwise_consistent_globally_inconsistent;
use bagcons::session::Session;
use bagcons_core::{Attr, Bag, Schema};
use bagcons_gen::consistent::planted_family;
use bagcons_hypergraph::{
    cycle, full_clique_complement, is_acyclic, is_chordal, is_conformal, path, rip_order, star,
    Hypergraph, JoinTree,
};
use bagcons_lp::ilp::{IlpOutcome, SolverConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn s(ids: &[u32]) -> Schema {
    Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
}

/// A zoo of hypergraphs mixing acyclic and cyclic shapes.
fn zoo() -> Vec<Hypergraph> {
    vec![
        path(2),
        path(5),
        star(4),
        cycle(3),
        cycle(4),
        cycle(6),
        full_clique_complement(3),
        full_clique_complement(4),
        Hypergraph::from_edges([s(&[0, 1, 2]), s(&[1, 2, 3]), s(&[2, 3, 4])]),
        Hypergraph::from_edges([s(&[0, 1]), s(&[1, 2]), s(&[0, 2]), s(&[0, 1, 2])]),
        Hypergraph::from_edges([s(&[0, 1]), s(&[2, 3])]),
        Hypergraph::from_edges([s(&[0, 1]), s(&[1, 2]), s(&[2, 3]), s(&[3, 0]), s(&[0, 5])]),
    ]
}

#[test]
fn structural_equivalences_a_to_d() {
    // (a) GYO-acyclic ⟺ (b) conformal ∧ chordal ⟺ (c) RIP ⟺ (d) join tree
    for h in zoo() {
        let a = is_acyclic(&h);
        let b = is_conformal(&h) && is_chordal(&h);
        let c = rip_order(&h).is_some();
        let d = JoinTree::build(&h).is_some();
        assert_eq!(a, b, "(a)≠(b) on {h}");
        assert_eq!(a, c, "(a)≠(c) on {h}");
        assert_eq!(a, d, "(a)≠(d) on {h}");
    }
}

#[test]
fn acyclic_direction_pairwise_implies_global() {
    // On acyclic schemas every planted pairwise-consistent family must be
    // globally consistent, with a constructible witness.
    let mut rng = StdRng::seed_from_u64(42);
    for h in zoo().into_iter().filter(is_acyclic_ref) {
        for _ in 0..5 {
            let (bags, _) = planted_family(&h, 3, 25, 8, &mut rng).unwrap();
            let refs: Vec<&Bag> = bags.iter().collect();
            assert!(Session::default().pairwise_consistent(&refs).unwrap());
            let t = Session::default()
                .acyclic_global_witness(&refs, WitnessStrategy::Saturated)
                .unwrap();
            assert!(
                Session::default().is_global_witness(&t, &refs).unwrap(),
                "on {h}"
            );
        }
    }
}

fn is_acyclic_ref(h: &Hypergraph) -> bool {
    is_acyclic(h)
}

#[test]
fn cyclic_direction_explicit_counterexamples() {
    // On every cyclic schema of the zoo, the Theorem 2 Step 2 pipeline
    // (obstruction → Tseitin → Lemma 4 lifting) must produce a pairwise
    // consistent but globally inconsistent family.
    for h in zoo().into_iter().filter(|h| !is_acyclic(h)) {
        let bags = pairwise_consistent_globally_inconsistent(&h)
            .unwrap()
            .unwrap_or_else(|| panic!("no counterexample on cyclic {h}"));
        assert_eq!(bags.len(), h.num_edges());
        for (bag, edge) in bags.iter().zip(h.edges()) {
            assert_eq!(bag.schema(), edge, "bag/edge alignment on {h}");
        }
        let refs: Vec<&Bag> = bags.iter().collect();
        assert!(
            Session::default().pairwise_consistent(&refs).unwrap(),
            "lift lost pairwise consistency on {h}"
        );
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        assert_eq!(
            dec.outcome,
            IlpOutcome::Unsat,
            "lift lost global inconsistency on {h}"
        );
    }
}

#[test]
fn acyclic_schemas_admit_no_counterexample() {
    for h in zoo().into_iter().filter(is_acyclic_ref) {
        assert!(
            pairwise_consistent_globally_inconsistent(&h)
                .unwrap()
                .is_none(),
            "acyclic {h} must have the local-to-global property"
        );
    }
}

#[test]
fn witness_found_for_every_planted_cyclic_family_too() {
    // Cyclic schemas CAN have consistent inputs; planted families over
    // cyclic hypergraphs are consistent, and the exact search finds them.
    let mut rng = StdRng::seed_from_u64(43);
    for h in [cycle(3), cycle(4), full_clique_complement(3)] {
        let (bags, _) = planted_family(&h, 2, 10, 4, &mut rng).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        match dec.outcome {
            IlpOutcome::Sat(_) => {}
            other => panic!("planted family over {h} must be satisfiable, got {other:?}"),
        }
    }
}
