//! Integration: the cyclic branch of `check` — the pairwise screen in
//! front of the exact search, and the fail-first search on the
//! overlap-Tseitin guard instances that once defeated a static variable
//! order.

use bagcons::global::globally_consistent_via_ilp;
use bagcons::session::{Branch, Decision, Session};
use bagcons::tseitin::tseitin_bags;
use bagcons_core::{Bag, Value};
use bagcons_gen::consistent::planted_family;
use bagcons_hypergraph::cycle;
use bagcons_lp::ilp::{IlpOutcome, SolverConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The planted cycle instances of the cyclic benchmark suite: C3 at
/// domain 6 / witness support 45, C4 at domain 5 / support 80.
fn planted_cycle(k: u32, seed: u64) -> Vec<Bag> {
    let (domain, support) = if k == 3 { (6, 45) } else { (5, 80) };
    let mut rng = StdRng::seed_from_u64(seed);
    planted_family(&cycle(k), domain, support, 4, &mut rng)
        .unwrap()
        .0
}

/// The harness E7 guard family: planted cycle `1000 + seed` plus the
/// cycle's Tseitin bags on the *same* values, scaled by `1 + seed % 3`.
/// Pairwise consistent by construction; globally either way.
fn overlap_tseitin(k: u32, seed: u64) -> Vec<Bag> {
    let mut bags = planted_cycle(k, 1000 + seed);
    let gadget = tseitin_bags(&cycle(k)).unwrap();
    for (bag, g) in bags.iter_mut().zip(gadget) {
        for (row, m) in g.sorted_rows() {
            bag.insert(row, m * (1 + seed % 3)).unwrap();
        }
        bag.seal();
    }
    bags
}

#[test]
fn moved_unit_is_refuted_by_the_screen_without_search() {
    // Planted C4 seed 8 with one unit of bag 0 moved between two tuples
    // that differ on the attribute bag 0 shares with bag 1: totals are
    // unchanged, so only the pair (0,1) marginals tell.
    let mut bags = planted_cycle(4, 8);
    let shared = bags[0].schema().intersection(bags[1].schema());
    assert_eq!(shared.arity(), 1);
    let col = bags[0]
        .schema()
        .position(shared.iter().next().unwrap())
        .unwrap();
    let rows: Vec<(Vec<Value>, u64)> = bags[0]
        .sorted_rows()
        .into_iter()
        .map(|(r, m)| (r.to_vec(), m))
        .collect();
    let (from, m) = rows[0].clone();
    let (to, n) = rows
        .iter()
        .find(|(r, _)| r[col] != from[col])
        .cloned()
        .expect("bag 0 spans two values of the shared attribute");
    bags[0].set(&from, m - 1).unwrap();
    bags[0].set(&to, n + 1).unwrap();
    bags[0].seal();
    let refs: Vec<&Bag> = bags.iter().collect();

    // a budget turns a missing screen into a failure instead of a hang
    let session = Session::builder().budget(1_000_000).build().unwrap();
    let out = session.check(&refs).unwrap();
    assert_eq!(out.branch, Branch::CyclicSearch);
    assert_eq!(out.decision, Decision::Inconsistent);
    assert_eq!(out.inconsistent_pair, Some((0, 1)));
    assert_eq!(out.search_nodes, 0);
    let stages: Vec<&str> = out.stages.iter().map(|s| s.stage).collect();
    assert_eq!(stages, ["schema", "pairwise"]);
}

#[test]
fn pinned_guard_instances_decide_within_100k_nodes() {
    // (k, seed, satisfiable): answers from the static-order DFS oracle,
    // which needs up to 87M nodes on C4 seed 23.
    let pinned = [
        (4, 3, true),
        (4, 18, true),
        (4, 23, true),
        (4, 46, true),
        (3, 22, false),
        (3, 37, false),
    ];
    let cfg = SolverConfig {
        node_limit: Some(100_000),
        ..Default::default()
    };
    for (k, seed, sat) in pinned {
        let bags = overlap_tseitin(k, seed);
        let refs: Vec<&Bag> = bags.iter().collect();
        assert!(Session::default().pairwise_consistent(&refs).unwrap());
        let dec = globally_consistent_via_ilp(&refs, &cfg).unwrap();
        match dec.outcome {
            IlpOutcome::Sat(_) => {
                assert!(sat, "C{k} seed {seed}: expected unsat");
                let w = dec.witness.expect("Sat carries its witness");
                assert!(Session::default().is_global_witness(&w, &refs).unwrap());
            }
            IlpOutcome::Unsat => assert!(!sat, "C{k} seed {seed}: expected sat"),
            IlpOutcome::Aborted(r) => panic!("C{k} seed {seed}: undecided ({r:?})"),
        }
    }
}
