//! Integration: the Theorem 4 dichotomy and the hardness reductions
//! (experiments E6–E8 at test scale).

use bagcons::global::globally_consistent_via_ilp;
use bagcons::reductions::{
    lift_clique_complement_instance, lift_cycle_instance, project_cycle_witness,
};
use bagcons::session::{Decision, Session};
use bagcons::tseitin::tseitin_bags;
use bagcons_core::Bag;
use bagcons_gen::consistent::planted_family;
use bagcons_gen::tables::{planted_3dct, sparse_3dct, tseitin_3dct};
use bagcons_hypergraph::{cycle, full_clique_complement, path, star};
use bagcons_lp::ilp::{IlpOutcome, SolverConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn acyclic_instances_never_touch_the_search() {
    let mut rng = StdRng::seed_from_u64(1);
    for h in [path(4), path(8), star(5)] {
        let (bags, _) = planted_family(&h, 3, 30, 10, &mut rng).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        let out = Session::default().check(&refs).unwrap();
        assert!(out.branch.is_acyclic());
        assert_eq!(out.search_nodes, 0, "polynomial path must not search");
        assert_eq!(out.decision, Decision::Consistent);
    }
}

#[test]
fn cyclic_instances_search_and_decide_correctly() {
    let mut rng = StdRng::seed_from_u64(2);
    // satisfiable: planted margins
    let sat = planted_3dct(3, 3, &mut rng);
    let bags = sat.to_bags().unwrap();
    let refs: Vec<&Bag> = bags.iter().collect();
    let out = Session::default().check(&refs).unwrap();
    assert!(!out.branch.is_acyclic());
    assert_eq!(out.decision, Decision::Consistent);

    // unsatisfiable: Tseitin margins
    let unsat = tseitin_3dct(9).unwrap();
    let bags = unsat.to_bags().unwrap();
    let refs: Vec<&Bag> = bags.iter().collect();
    let out = Session::default().check(&refs).unwrap();
    assert!(!out.branch.is_acyclic());
    assert_eq!(out.decision, Decision::Inconsistent);
}

#[test]
fn sparse_tables_make_the_search_branch() {
    let mut rng = StdRng::seed_from_u64(3);
    let inst = sparse_3dct(4, 8, 4, &mut rng);
    let bags = inst.to_bags().unwrap();
    let refs: Vec<&Bag> = bags.iter().collect();
    let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
    assert!(dec.outcome.is_sat());
    assert!(dec.stats.nodes >= 1);
}

#[test]
fn lemma6_chain_preserves_both_answers_up_to_c6() {
    // unsat chain: parity C3 → C4 → C5 → C6
    let mut inst = tseitin_bags(&cycle(3)).unwrap();
    for target in 4u32..=6 {
        inst = lift_cycle_instance(&inst).unwrap();
        let refs: Vec<&Bag> = inst.iter().collect();
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        assert_eq!(dec.outcome, IlpOutcome::Unsat, "unsat lost at C{target}");
    }
    // sat chain: planted C3 instance upward, with witness projection back
    let mut rng = StdRng::seed_from_u64(4);
    let (bags, _) = planted_family(&cycle(3), 2, 6, 4, &mut rng).unwrap();
    let lifted = lift_cycle_instance(&bags).unwrap();
    let refs: Vec<&Bag> = lifted.iter().collect();
    let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
    let IlpOutcome::Sat(x) = &dec.outcome else {
        panic!("sat lost in Lemma 6 lift");
    };
    let prog = bagcons_lp::ConsistencyProgram::build(&refs).unwrap();
    let w = prog.bag_from_solution(x).unwrap();
    let back = project_cycle_witness(&w, 3).unwrap();
    let orig_refs: Vec<&Bag> = bags.iter().collect();
    assert!(Session::default()
        .is_global_witness(&back, &orig_refs)
        .unwrap());
}

#[test]
fn lemma7_chain_preserves_both_answers_h3_to_h4() {
    // unsat
    let unsat = tseitin_bags(&full_clique_complement(3)).unwrap();
    let lifted = lift_clique_complement_instance(&unsat).unwrap();
    let refs: Vec<&Bag> = lifted.iter().collect();
    let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
    assert_eq!(dec.outcome, IlpOutcome::Unsat);

    // sat (planted)
    let mut rng = StdRng::seed_from_u64(5);
    let (bags, _) = planted_family(&full_clique_complement(3), 2, 5, 3, &mut rng).unwrap();
    let lifted = lift_clique_complement_instance(&bags).unwrap();
    let refs: Vec<&Bag> = lifted.iter().collect();
    let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
    assert!(dec.outcome.is_sat());
}

#[test]
fn set_case_contrast_fixed_schema_polynomial() {
    // Section 5.1: on the SAME triangle schema, the set-semantics check is
    // join-then-project — decidable without search — even on instances
    // whose bag version requires branching.
    let mut rng = StdRng::seed_from_u64(6);
    let inst = sparse_3dct(3, 6, 3, &mut rng);
    let bags = inst.to_bags().unwrap();
    let rels: Vec<bagcons_core::Relation> = bags.iter().map(|b| b.support()).collect();
    let rel_refs: Vec<&bagcons_core::Relation> = rels.iter().collect();
    // the relational answer is computable directly
    let (set_ok, _join) = bagcons::sets::relations_globally_consistent(&rel_refs).unwrap();
    // the bag answer needs the exact search
    let refs: Vec<&Bag> = bags.iter().collect();
    let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
    // bags consistent ⇒ supports consistent (the witness support works)
    if dec.outcome.is_sat() {
        assert!(set_ok, "bag witness support must witness the relations");
    }
}

#[test]
fn node_budget_degrades_gracefully() {
    let mut rng = StdRng::seed_from_u64(7);
    let inst = planted_3dct(4, 6, &mut rng);
    let bags = inst.to_bags().unwrap();
    let refs: Vec<&Bag> = bags.iter().collect();
    let tiny = Session::builder().budget(2).build().unwrap();
    let out = tiny.check(&refs).unwrap();
    assert!(matches!(
        out.decision,
        Decision::Unknown | Decision::Consistent
    ));
}
