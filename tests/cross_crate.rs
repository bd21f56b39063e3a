//! Cross-crate smoke tests: the facade prelude, Lemma 4 lifting driven by
//! obstruction sequences, and the set-vs-bag contrast end to end.

use bag_consistency::prelude::*;
use bagcons::acyclic::WitnessStrategy;
use bagcons::kwise::k_wise_consistent;
use bagcons::lifting::{apply_to_schemas, lift_through_sequence_with};
use bagcons::sets::{coloring_relations, relations_globally_consistent};
use bagcons_hypergraph::{find_obstruction, triangle, ObstructionKind, SafeDeletion};
use bagcons_lp::ilp::SolverConfig;

#[test]
fn prelude_covers_the_whole_headline_api() {
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let r = Bag::from_u64s(x, [(&[1u64, 2][..], 1), (&[2, 2][..], 1)]).unwrap();
    let s = Bag::from_u64s(y, [(&[2u64, 1][..], 1), (&[2, 2][..], 1)]).unwrap();
    let session = Session::default();
    assert!(session.bags_consistent(&r, &s).unwrap());
    let t = session.consistency_witness(&r, &s).unwrap().unwrap();
    assert!(session.is_global_witness(&t, &[&r, &s]).unwrap());
    let tm = minimal_two_bag_witness(&r, &s).unwrap().unwrap();
    assert!(tm.support_size() <= t.support_size());
    assert!(session.pairwise_consistent(&[&r, &s]).unwrap());
    let w = session
        .acyclic_global_witness(&[&r, &s], WitnessStrategy::Minimal)
        .unwrap();
    assert!(session.is_global_witness(&w, &[&r, &s]).unwrap());
    let out = session.check(&[&r, &s]).unwrap();
    assert_eq!(out.decision, Decision::Consistent);
    let ilp = globally_consistent_via_ilp(&[&r, &s], session.solver()).unwrap();
    assert!(ilp.outcome.is_sat());
    let tri = tseitin_bags(&triangle()).unwrap();
    assert_eq!(tri.len(), 3);
    let _h: Hypergraph = triangle();
}

#[test]
fn lemma4_lifting_preserves_kwise_consistency_both_ways() {
    // obstruct a decorated triangle, lift the Tseitin family, then check
    // 2-wise holds and 3-wise fails at BOTH ends (Lemma 4's biconditional
    // sampled at k = 2 and the inconsistency at full arity).
    let h = bagcons_hypergraph::Hypergraph::from_edges([
        Schema::range(0, 2),
        Schema::range(1, 3),
        Schema::from_attrs([bagcons_core::Attr(0), bagcons_core::Attr(2)]),
        Schema::from_attrs([bagcons_core::Attr(2), bagcons_core::Attr(7)]),
    ]);
    let ob = find_obstruction(&h).unwrap();
    assert_eq!(ob.kind, ObstructionKind::CliqueComplement(3));
    let seed = tseitin_bags(&ob.target).unwrap();

    // D0 (obstruction end): 2-wise yes, 3-wise no
    let seed_refs: Vec<&Bag> = seed.iter().collect();
    assert_eq!(
        k_wise_consistent(&seed_refs, 2, &SolverConfig::default()).unwrap(),
        Some(true)
    );
    assert_eq!(
        k_wise_consistent(&seed_refs, 3, &SolverConfig::default()).unwrap(),
        Some(false)
    );

    // lift to D1 (original end)
    let lifted = lift_through_sequence_with(
        h.edges(),
        &ob.deletions,
        &seed,
        bagcons_core::Value(0),
        &ExecConfig::default(),
    )
    .unwrap();
    let refs: Vec<&Bag> = lifted.iter().collect();
    assert_eq!(
        k_wise_consistent(&refs, 2, &SolverConfig::default()).unwrap(),
        Some(true)
    );
    assert_eq!(
        k_wise_consistent(&refs, refs.len(), &SolverConfig::default()).unwrap(),
        Some(false)
    );
}

#[test]
fn schema_walk_matches_hypergraph_walk_modulo_empty() {
    let h = bagcons_hypergraph::cycle(4);
    let ob = find_obstruction(&h).unwrap();
    let mut schemas: Vec<Schema> = h.edges().to_vec();
    for op in &ob.deletions {
        schemas = apply_to_schemas(&schemas, op);
    }
    let target_edges: Vec<Schema> = ob.target.edges().to_vec();
    let non_empty: Vec<Schema> = schemas.into_iter().filter(|s| !s.is_empty()).collect();
    assert_eq!(non_empty, target_edges);
    // sanity on the op types
    for op in &ob.deletions {
        match op {
            SafeDeletion::Vertex(_) | SafeDeletion::CoveredEdge { .. } => {}
        }
    }
}

#[test]
fn hly80_three_coloring_end_to_end() {
    // Petersen graph is 3-colorable; K4 is not. The universal-relation
    // reduction must reflect both through relation global consistency.
    let petersen: Vec<(u32, u32)> = vec![
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 0), // outer cycle
        (5, 7),
        (7, 9),
        (9, 6),
        (6, 8),
        (8, 5), // inner star
        (0, 5),
        (1, 6),
        (2, 7),
        (3, 8),
        (4, 9), // spokes
    ];
    let rels = coloring_relations(&petersen);
    let refs: Vec<&bagcons_core::Relation> = rels.iter().collect();
    let (ok, _) = relations_globally_consistent(&refs).unwrap();
    assert!(ok, "Petersen graph is 3-colorable");

    let k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    let rels = coloring_relations(&k4);
    let refs: Vec<&bagcons_core::Relation> = rels.iter().collect();
    let (ok, join) = relations_globally_consistent(&refs).unwrap();
    assert!(!ok);
    // the join still exists; it just fails to project back
    assert!(!join.is_empty() || join.is_empty());
}

#[test]
fn bag_and_set_semantics_disagree_exactly_as_the_paper_says() {
    // supports globally consistent as relations, multiplicities not as bags
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    // R[B] = {0:2}, S[B] = {0:2} — consistent as bags AND relations
    let r = Bag::from_u64s(x, [(&[0u64, 0][..], 1), (&[1, 0][..], 1)]).unwrap();
    let s = Bag::from_u64s(y, [(&[0u64, 0][..], 2)]).unwrap();
    let session = Session::default();
    assert!(session.bags_consistent(&r, &s).unwrap());
    // but scale one side: relations unchanged, bags now inconsistent
    let s3 = s.scale(3).unwrap();
    assert!(!session.bags_consistent(&r, &s3).unwrap());
    let (set_ok, _) = relations_globally_consistent(&[&r.support(), &s3.support()]).unwrap();
    assert!(set_ok, "set semantics ignores the multiplicity change");
}
