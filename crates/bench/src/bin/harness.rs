//! Experiment harness: E1–E10 reproduce the paper's claims with exact
//! asserts; E12–E18 measure the storage, execution, stream and snapshot
//! layers and write the `BENCH_e1*.json` grids into the current directory.
//!
//! ```sh
//! cargo run --release -p bagcons-bench --bin harness            # all
//! cargo run --release -p bagcons-bench --bin harness -- E1 E7   # some
//! ```
//!
//! Each experiment prints a table whose *shape* reproduces a claim of
//! Atserias & Kolaitis, PODS 2021; the doc comment on each `eN` function
//! names the claim it checks.
//! Output is deterministic (fixed RNG seeds); timings vary by machine but
//! the growth shapes do not.

use bagcons::acyclic::WitnessStrategy;
use bagcons::global::globally_consistent_via_ilp;
use bagcons::lifting::pairwise_consistent_globally_inconsistent;
use bagcons::reductions::{lift_clique_complement_instance, lift_cycle_instance};
use bagcons::session::{Branch, Decision, Session};
use bagcons::sets::relations_globally_consistent;
use bagcons::tseitin::tseitin_bags;
use bagcons_core::{Bag, Relation, Schema};
use bagcons_gen::consistent::{planted_family, planted_pair};
use bagcons_gen::families::{example1_chain, example1_uniform_witness, section3_pair};
use bagcons_gen::perturb::bump_one_tuple;
use bagcons_gen::tables::{planted_3dct, sparse_3dct, tseitin_3dct};
use bagcons_hypergraph::{cycle, full_clique_complement, is_acyclic, path, star, Hypergraph};
use bagcons_lp::bounds::es_support_bound;
use bagcons_lp::ilp::{count_solutions, enumerate_solutions, IlpOutcome, SolverConfig};
use bagcons_lp::ConsistencyProgram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = [
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E12", "E13", "E14", "E15",
        "E16", "E17", "E18",
    ];
    let selected: Vec<&str> = if args.is_empty() {
        all.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    for id in selected {
        match id {
            "E1" => e1(),
            "E2" => e2(),
            "E3" => e3(),
            "E4" => e4(),
            "E5" => e5(),
            "E6" => e6(),
            "E7" => e7(),
            "E8" => e8(),
            "E9" => e9(),
            "E10" => e10(),
            "E12" => e12(),
            "E13" => e13(),
            "E14" => e14(),
            "E15" => e15(),
            "E16" => e16(),
            "E17" => e17(),
            "E18" => e18(),
            other => eprintln!("unknown experiment {other}; known: {all:?}"),
        }
    }
}

fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// E1 — Section 3 family: exactly 2^{n-1} pairwise-incomparable witnesses.
fn e1() {
    header("E1", "Section 3 witness family R_{n-1}, S_{n-1}");
    println!(
        "{:>3} {:>10} {:>10} {:>12} {:>13} {:>12}",
        "n", "|J|", "witnesses", "expected", "incomparable", "supp ⊂ J'"
    );
    for n in 2..=10u64 {
        let (r, s) = section3_pair(n).unwrap();
        let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let (count, complete) = count_solutions(&prog, &SolverConfig::default(), 1 << 22);
        assert!(complete);
        // structural claims verified where enumeration is cheap
        let (incomparable, proper) = if n <= 7 {
            let (sols, _) = enumerate_solutions(&prog, &SolverConfig::default(), 1 << 22);
            let ws: Vec<Bag> = sols
                .iter()
                .map(|x| prog.bag_from_solution(x).unwrap())
                .collect();
            let join = bagcons_core::join::bag_join(&r, &s).unwrap();
            let inc = ws.iter().enumerate().all(|(i, w)| {
                ws.iter()
                    .enumerate()
                    .all(|(j, u)| i == j || !w.contained_in(u))
            });
            let prop = ws.iter().all(|w| w.support_size() < join.support_size());
            (inc.to_string(), prop.to_string())
        } else {
            ("-".into(), "-".into())
        };
        println!(
            "{:>3} {:>10} {:>10} {:>12} {:>13} {:>12}",
            n,
            prog.num_variables(),
            count,
            1u64 << (n - 1),
            incomparable,
            proper
        );
        assert_eq!(count, 1 << (n - 1), "paper: exactly 2^(n-1) witnesses");
    }
}

/// E2 — Lemma 2: the five characterizations agree on every instance.
fn e2() {
    header("E2", "Lemma 2 five-way equivalence");
    let mut rng = StdRng::seed_from_u64(2);
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let mut consistent = 0u32;
    let trials = 100;
    let session = Session::default();
    for i in 0..trials {
        let (r, s) = if i % 2 == 0 {
            planted_pair(&x, &y, 4, 12, 8, &mut rng).unwrap()
        } else {
            let (r, s) = planted_pair(&x, &y, 4, 12, 8, &mut rng).unwrap();
            let mut bags = vec![r, s];
            bump_one_tuple(&mut bags, &mut rng).unwrap();
            let s2 = bags.pop().unwrap();
            let r2 = bags.pop().unwrap();
            (r2, s2)
        };
        let rep = session.pairwise_report(&r, &s).unwrap().report;
        assert!(rep.all_agree(), "Lemma 2 equivalence violated");
        if rep.consistent() {
            consistent += 1;
        }
    }
    println!(
        "trials: {trials}   all-five-agree: {trials}   consistent: {consistent}   inconsistent: {}",
        trials - consistent
    );
}

/// E3 — Corollary 1: strongly-polynomial witness construction scaling.
fn e3() {
    header("E3", "Corollary 1 witness construction (flow) scaling");
    println!(
        "{:>9} {:>12} {:>12} {:>12}",
        "support", "|J|", "witness", "time(ms)"
    );
    let mut rng = StdRng::seed_from_u64(3);
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let session = Session::default();
    for exp in [4u32, 6, 8, 10, 12] {
        let support = 1usize << exp;
        let domain = (support as u64).max(4);
        let (r, s) = planted_pair(&x, &y, domain, support, 1 << 40, &mut rng).unwrap();
        let t0 = Instant::now();
        let w = session
            .consistency_witness(&r, &s)
            .unwrap()
            .expect("planted");
        let dt = ms(t0);
        let join = bagcons_core::join::relation_join(&r.support(), &s.support());
        println!(
            "{:>9} {:>12} {:>12} {:>12.2}",
            r.support_size() + s.support_size(),
            join.len(),
            w.support_size(),
            dt
        );
    }
}

/// E4 — Theorem 2: local-to-global iff acyclic.
fn e4() {
    header("E4", "Theorem 2: local-to-global consistency vs acyclicity");
    println!(
        "{:>8} {:>8} {:>16} {:>18}",
        "schema", "acyclic", "planted family", "counterexample"
    );
    let mut rng = StdRng::seed_from_u64(4);
    let cases: Vec<(&str, Hypergraph)> = vec![
        ("P4", path(4)),
        ("P8", path(8)),
        ("star5", star(5)),
        ("C3", cycle(3)),
        ("C5", cycle(5)),
        ("H4", full_clique_complement(4)),
    ];
    let session = Session::default();
    for (name, h) in cases {
        let acyclic = is_acyclic(&h);
        let (bags, _) = planted_family(&h, 3, 20, 6, &mut rng).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        assert!(session.pairwise_consistent(&refs).unwrap());
        let planted_ok = session.check(&refs).unwrap().decision == Decision::Consistent;
        let counter = pairwise_consistent_globally_inconsistent(&h).unwrap();
        let counter_desc = match counter {
            Some(bags) => {
                let refs: Vec<&Bag> = bags.iter().collect();
                assert!(session.pairwise_consistent(&refs).unwrap());
                let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
                assert_eq!(dec.outcome, IlpOutcome::Unsat);
                "pairwise✓ global✗"
            }
            None => "none (acyclic)",
        };
        println!(
            "{:>8} {:>8} {:>16} {:>18}",
            name, acyclic, planted_ok, counter_desc
        );
    }
}

/// E5 — Theorem 3 + Example 1: minimal witnesses are exponentially
/// smaller than the uniform witness.
fn e5() {
    header("E5", "Example 1: witness size vs Theorem 3(3) bound");
    println!(
        "{:>3} {:>12} {:>14} {:>16} {:>12}",
        "n", "input bits", "uniform 2^n", "minimal chain", "ES bound"
    );
    let session = Session::builder().threads(1).build().expect("valid");
    for n in [4u32, 6, 8, 10, 12, 14] {
        let bags = example1_chain(n).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        let bits: u64 = refs.iter().map(|b| b.binary_size()).sum();
        let uniform = if n <= 16 {
            example1_uniform_witness(n)
                .unwrap()
                .support_size()
                .to_string()
        } else {
            format!("2^{n}")
        };
        let t = session
            .acyclic_global_witness(&refs, WitnessStrategy::Saturated)
            .unwrap();
        assert!(session.is_global_witness(&t, &refs).unwrap());
        let bound = es_support_bound(&refs);
        assert!((t.support_size() as u64) <= bound);
        println!(
            "{:>3} {:>12} {:>14} {:>16} {:>12}",
            n,
            bits,
            uniform,
            t.support_size(),
            bound
        );
    }
}

/// E6 — Theorem 4(1): GCPB on acyclic schemas is polynomial.
fn e6() {
    header("E6", "GCPB on acyclic schemas (polynomial path)");
    println!(
        "{:>7} {:>9} {:>12} {:>12}",
        "edges", "support", "witness", "time(ms)"
    );
    let mut rng = StdRng::seed_from_u64(6);
    let session = Session::default();
    for m in [2u32, 4, 6, 8, 10, 12] {
        let h = path(m + 1); // m edges
        let (bags, _) = planted_family(&h, 4, 512, 32, &mut rng).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        let t0 = Instant::now();
        let out = session.witness(&refs).unwrap().check;
        let dt = ms(t0);
        assert_eq!(out.branch, Branch::Acyclic);
        assert_eq!(out.decision, Decision::Consistent);
        let w = out.witness.expect("consistent").support_size();
        println!(
            "{:>7} {:>9} {:>12} {:>12.2}",
            m,
            refs.iter().map(|b| b.support_size()).sum::<usize>(),
            w,
            dt
        );
    }
}

/// E7 — Theorem 4(2): GCPB on the triangle (3DCT) needs real search; the
/// overlap-Tseitin guard rows check that the search decides every one of
/// 120 pairwise-consistent C3/C4 instances.
fn e7() {
    header(
        "E7",
        "GCPB(C3) = 3DCT: exact search effort (NP-complete regime)",
    );
    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>12} {:>10}",
        "side", "kind", "|J|", "nodes", "time(ms)", "answer"
    );
    let mut rng = StdRng::seed_from_u64(7);
    for n in [2usize, 3, 4, 5, 6] {
        let inst = sparse_3dct(n, 2 * n, 4, &mut rng);
        let bags = inst.to_bags().unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        let t0 = Instant::now();
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        let dt = ms(t0);
        println!(
            "{:>6} {:>8} {:>10} {:>12} {:>12.2} {:>10}",
            n,
            "sparse",
            dec.num_variables,
            dec.stats.nodes,
            dt,
            if dec.outcome.is_sat() { "sat" } else { "unsat" }
        );
    }
    for n in [3usize, 4] {
        let inst = planted_3dct(n, 6, &mut rng);
        let bags = inst.to_bags().unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        let t0 = Instant::now();
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        let dt = ms(t0);
        println!(
            "{:>6} {:>8} {:>10} {:>12} {:>12.2} {:>10}",
            n,
            "dense",
            dec.num_variables,
            dec.stats.nodes,
            dt,
            if dec.outcome.is_sat() { "sat" } else { "unsat" }
        );
    }
    let inst = tseitin_3dct(1 << 30).unwrap();
    let bags = inst.to_bags().unwrap();
    let refs: Vec<&Bag> = bags.iter().collect();
    assert!(Session::default().pairwise_consistent(&refs).unwrap());
    let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
    assert_eq!(dec.outcome, IlpOutcome::Unsat);
    println!(
        "tseitin margins (scale 2^30): pairwise ✓ but globally unsat — \
         pairwise checks do not decide GCPB(C3)"
    );

    // Guard family, "overlap-Tseitin": a planted cycle plus the cycle's
    // Tseitin bags on the *same* values, scaled by 1 + seed % 3. Pairwise
    // consistent by construction, so only the search decides; a static
    // variable order leaves 15 of the 120 undecided at 2M nodes. Each must
    // decide inside the CLI's default budget, each Sat witness must
    // verify, and exactly 9 are Unsat (confirmed by the static DFS).
    println!(
        "{:>6} {:>5} {:>6} {:>10} {:>8}",
        "cycle", "seed", "|J|", "nodes", "answer"
    );
    let cfg = SolverConfig {
        node_limit: Some(CLI_DEFAULT_BUDGET),
        ..Default::default()
    };
    let (mut total, mut unsat, mut worst) = (0u64, 0u32, (0u64, 0u32, 0u64));
    for k in [3u32, 4] {
        let (domain, support) = if k == 3 { (6, 45) } else { (5, 80) };
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let (mut bags, _) = planted_family(&cycle(k), domain, support, 4, &mut rng).unwrap();
            for (bag, g) in bags.iter_mut().zip(tseitin_bags(&cycle(k)).unwrap()) {
                for (row, m) in g.sorted_rows() {
                    bag.insert(row, m * (1 + seed % 3)).unwrap();
                }
                bag.seal();
            }
            let refs: Vec<&Bag> = bags.iter().collect();
            assert!(Session::default().pairwise_consistent(&refs).unwrap());
            let dec = globally_consistent_via_ilp(&refs, &cfg).unwrap();
            let answer = match &dec.outcome {
                IlpOutcome::Sat(_) => {
                    let w = dec.witness.as_ref().expect("Sat carries its witness");
                    assert!(Session::default().is_global_witness(w, &refs).unwrap());
                    "sat"
                }
                IlpOutcome::Unsat => {
                    unsat += 1;
                    "unsat"
                }
                IlpOutcome::Aborted(r) => panic!("overlap-Tseitin C{k} seed {seed}: {r:?}"),
            };
            println!(
                "{:>6} {:>5} {:>6} {:>10} {:>8}",
                format!("C{k}"),
                seed,
                dec.num_variables,
                dec.stats.nodes,
                answer
            );
            total += dec.stats.nodes;
            worst = worst.max((dec.stats.nodes, k, seed));
        }
    }
    assert_eq!(unsat, 9, "overlap-Tseitin: 9 of the 120 are Unsat");
    println!(
        "overlap-Tseitin: 120 of 120 decided, {unsat} unsat, {total} nodes \
         (worst C{} seed {} at {} nodes)",
        worst.1, worst.2, worst.0
    );
}

/// The `bagcons` CLI's default `--budget` (search nodes per decision).
const CLI_DEFAULT_BUDGET: u64 = 50_000_000;

/// E8 — Lemmas 6 & 7: the hardness chain preserves answers.
fn e8() {
    header(
        "E8",
        "Chain reductions GCPB(C_{n-1})→GCPB(C_n), GCPB(H_{n-1})→GCPB(H_n)",
    );
    println!(
        "{:>10} {:>7} {:>10} {:>12}",
        "instance", "target", "answer", "nodes"
    );
    let mut inst = tseitin_bags(&cycle(3)).unwrap();
    for n in 4u32..=7 {
        inst = lift_cycle_instance(&inst).unwrap();
        let refs: Vec<&Bag> = inst.iter().collect();
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        assert_eq!(dec.outcome, IlpOutcome::Unsat);
        println!(
            "{:>10} {:>7} {:>10} {:>12}",
            "unsat C3",
            format!("C{n}"),
            "unsat",
            dec.stats.nodes
        );
    }
    let mut rng = StdRng::seed_from_u64(8);
    let (mut sat, _) = planted_family(&cycle(3), 2, 6, 4, &mut rng).unwrap();
    for n in 4u32..=7 {
        sat = lift_cycle_instance(&sat).unwrap();
        let refs: Vec<&Bag> = sat.iter().collect();
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        assert!(dec.outcome.is_sat());
        println!(
            "{:>10} {:>7} {:>10} {:>12}",
            "sat C3",
            format!("C{n}"),
            "sat",
            dec.stats.nodes
        );
    }
    let unsat_h = tseitin_bags(&full_clique_complement(3)).unwrap();
    let lifted = lift_clique_complement_instance(&unsat_h).unwrap();
    let refs: Vec<&Bag> = lifted.iter().collect();
    let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
    assert_eq!(dec.outcome, IlpOutcome::Unsat);
    println!(
        "{:>10} {:>7} {:>10} {:>12}",
        "unsat H3", "H4", "unsat", dec.stats.nodes
    );
    let (sat_h, _) = planted_family(&full_clique_complement(3), 2, 5, 3, &mut rng).unwrap();
    let lifted = lift_clique_complement_instance(&sat_h).unwrap();
    let refs: Vec<&Bag> = lifted.iter().collect();
    let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
    assert!(dec.outcome.is_sat());
    println!(
        "{:>10} {:>7} {:>10} {:>12}",
        "sat H3", "H4", "sat", dec.stats.nodes
    );
}

/// E9 — Theorem 5 / Corollary 4: minimal two-bag witnesses. The group
/// fill behind `consistency_witness` is a vertex of `P(R,S)`, so it is the
/// minimal witness; the paper's max-flow loop is kept only as a test
/// oracle (`tests/proptest_invariants.rs`).
fn e9() {
    header(
        "E9",
        "Minimal two-bag witnesses (the group fill) vs the Carathéodory bound",
    );
    println!(
        "{:>9} {:>10} {:>12} {:>12}",
        "bound", "fill W", "middle edges", "time(ms)"
    );
    let mut rng = StdRng::seed_from_u64(9);
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let session = Session::default();
    for exp in [3u32, 4, 5, 6, 7, 8] {
        let support = 1usize << exp;
        let (r, s) = planted_pair(&x, &y, (support as u64) / 2 + 2, support, 64, &mut rng).unwrap();
        let join = bagcons_core::join::relation_join(&r.support(), &s.support());
        let t0 = Instant::now();
        let fill_w = session.consistency_witness(&r, &s).unwrap().unwrap();
        let dt = ms(t0);
        assert!(session.is_global_witness(&fill_w, &[&r, &s]).unwrap());
        let bound = r.support_size() + s.support_size();
        // The fill is a vertex of each group's transportation polytope.
        let groups = r.marginal(&x.intersection(&y)).unwrap().support_size();
        assert!(fill_w.support_size() <= bound - groups);
        println!(
            "{:>9} {:>10} {:>12} {:>12.2}",
            bound,
            fill_w.support_size(),
            join.len(),
            dt
        );
    }
}

/// E10 — Theorem 6 + Section 5.1: acyclic witness chains; set-vs-bag
/// contrast on a fixed cyclic schema.
fn e10() {
    header(
        "E10",
        "Theorem 6 acyclic witness chain; set-vs-bag contrast",
    );
    println!(
        "{:>7} {:>10} {:>12} {:>10} {:>12}",
        "edges", "Σ‖Ri‖supp", "‖T‖supp", "ok", "time(ms)"
    );
    let mut rng = StdRng::seed_from_u64(10);
    let session = Session::builder().threads(1).build().expect("valid");
    for m in [2u32, 4, 6, 8, 10] {
        let h = path(m + 1);
        let (bags, _) = planted_family(&h, 4, 128, 16, &mut rng).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        let t0 = Instant::now();
        let t = session
            .acyclic_global_witness(&refs, WitnessStrategy::Saturated)
            .unwrap();
        let dt = ms(t0);
        let bound: usize = refs.iter().map(|b| b.support_size()).sum();
        assert!(t.support_size() <= bound);
        println!(
            "{:>7} {:>10} {:>12} {:>10} {:>12.2}",
            m,
            bound,
            t.support_size(),
            session.is_global_witness(&t, &refs).unwrap(),
            dt
        );
    }
    let mut rng = StdRng::seed_from_u64(11);
    let inst = sparse_3dct(4, 8, 4, &mut rng);
    let bags = inst.to_bags().unwrap();
    let rels: Vec<Relation> = bags.iter().map(|b| b.support()).collect();
    let rel_refs: Vec<&Relation> = rels.iter().collect();
    let t0 = Instant::now();
    let (set_ok, _) = relations_globally_consistent(&rel_refs).unwrap();
    let set_ms = ms(t0);
    let refs: Vec<&Bag> = bags.iter().collect();
    let t0 = Instant::now();
    let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
    let bag_ms = ms(t0);
    println!(
        "triangle contrast: relations → {} in {:.2} ms (0 search); \
         bags → {} in {:.2} ms ({} nodes)",
        set_ok,
        set_ms,
        if dec.outcome.is_sat() { "sat" } else { "unsat" },
        bag_ms,
        dec.stats.nodes
    );
}

/// E12 — storage layer: columnar sort-merge vs hash join (and the
/// network-build path) on the e02 two-bag workload. Writes the measured
/// baseline to `BENCH_e12.json` in the current directory.
fn e12() {
    use bagcons_core::join::{bag_join_hash, bag_join_merge};
    use bagcons_flow::ConsistencyNetwork;

    header(
        "E12",
        "columnar storage: sort-merge vs hash join (e02 workload)",
    );
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {host}");
    println!(
        "{:>9} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "support", "seed(ms)", "merge(ms)", "hash(ms)", "speedup", "net build(ms)"
    );
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let mut rng = StdRng::seed_from_u64(0xE2); // the e02 workload seed
    let mut rows = Vec::new();
    for exp in [6u32, 8, 10, 12] {
        let support = 1usize << exp;
        let (r, s) = planted_pair(&x, &y, support as u64, support, 1 << 20, &mut rng).unwrap();
        // median of `reps` timed runs, one warm-up each
        let reps = 7;
        let time_ms = |f: &dyn Fn() -> usize| -> f64 {
            let warm = f();
            assert!(warm > 0 || r.is_empty());
            let mut samples: Vec<f64> = (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(f());
                    ms(t0)
                })
                .collect();
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            samples[reps / 2]
        };
        let seed_ms = time_ms(&|| seed_boxed_hash_join(&r, &s));
        let merge_ms = time_ms(&|| bag_join_merge(&r, &s).unwrap().support_size());
        let hash_ms = time_ms(&|| bag_join_hash(&r, &s).unwrap().support_size());
        let build_ms = time_ms(&|| {
            ConsistencyNetwork::build(&r, &s)
                .unwrap()
                .num_middle_edges()
        });
        println!(
            "{support:>9} {seed_ms:>12.3} {merge_ms:>12.3} {hash_ms:>12.3} {:>11.2}x {build_ms:>14.3}",
            seed_ms / merge_ms
        );
        rows.push(format!(
            "    {{\"support\": {support}, \"seed_boxed_ms\": {seed_ms:.4}, \
             \"merge_ms\": {merge_ms:.4}, \"hash_ms\": {hash_ms:.4}, \
             \"network_build_ms\": {build_ms:.4}}}"
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"e12_storage\",\n  \"workload\": \
         \"planted_pair x={{A0,A1}} y={{A1,A2}} mult=2^20 seed=0xE2 (e02)\",\n  \
         \"unit\": \"milliseconds, median of 7\",\n  \
         \"host_parallelism\": {host},\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_e12.json", &json).expect("write BENCH_e12.json");
    println!("wrote BENCH_e12.json");
}

/// Reproduction of the **seed** bag join, E12's baseline: a hash join
/// that boxes one `Row` per probe key and one per output tuple, and
/// accumulates into a boxed-key hash map — exactly the allocation profile
/// the columnar store removed. Returns the output support size (the bag
/// itself lived in the hash map under seed semantics).
fn seed_boxed_hash_join(r: &Bag, s: &Bag) -> usize {
    use bagcons_core::tuple::project_row;
    use bagcons_core::{FxHashMap, Row, Value};

    let out_schema = r.schema().union(s.schema());
    let z = r.schema().intersection(s.schema());
    let z_r = r.schema().projection_indices(&z).expect("Z ⊆ X");
    let z_s = s.schema().projection_indices(&z).expect("Z ⊆ Y");
    let sources: Vec<(bool, usize)> = out_schema
        .iter()
        .map(|a| match r.schema().position(a) {
            Some(i) => (true, i),
            None => (false, s.schema().position(a).expect("attr of XY")),
        })
        .collect();

    let mut right_index: FxHashMap<Row, Vec<(&[Value], u64)>> = FxHashMap::default();
    for (row, m) in s.iter() {
        right_index
            .entry(project_row(row, &z_s))
            .or_default()
            .push((row, m));
    }
    let mut out: FxHashMap<Row, u64> = FxHashMap::default();
    for (lrow, lm) in r.iter() {
        let key = project_row(lrow, &z_r);
        if let Some(matches) = right_index.get(&key) {
            for &(rrow, rm) in matches {
                let combined: Row = sources
                    .iter()
                    .map(|&(left, i)| if left { lrow[i] } else { rrow[i] })
                    .collect();
                let m = lm.checked_mul(rm).expect("bench multiplicities fit u64");
                *out.entry(combined).or_insert(0) += m;
            }
        }
    }
    out.len()
}

/// E13 — the execution layer: shard-parallel merge join, prefix marginal
/// sweep, the two-bag witness fill, and `Session::witness` (Theorem 6's
/// chain) on a planted path(6) family across a threads × support grid.
/// `threads = 1` runs each operator as one inline task, the baseline;
/// writes the grid to `BENCH_e13.json` in the current directory.
fn e13() {
    use bagcons_core::join::bag_join_merge_with;
    use bagcons_core::ExecConfig;

    header(
        "E13",
        "sharded execution: threads × support scaling (e02 workload)",
    );
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {host} (speedups need threads <= cores)");
    println!(
        "{:>9} {:>8} {:>12} {:>14} {:>16} {:>17}",
        "support", "threads", "join(ms)", "marginal(ms)", "witness fill(ms)", "witness chain(ms)"
    );
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let z = Schema::range(1, 2); // prefix of y: the sharded sweep target
    let grid = || {
        [10u32, 12, 14]
            .into_iter()
            .flat_map(|exp| [1usize, 2, 4].map(|threads| (1usize << exp, threads)))
    };
    let exec = |threads: usize| {
        let cfg = ExecConfig::builder()
            .threads(threads)
            .min_parallel_support(1024)
            .build()
            .unwrap();
        let session = Session::builder().exec(cfg.clone()).build().unwrap();
        (cfg, session)
    };
    let reps = 7;
    let time_ms = |f: &dyn Fn() -> usize| -> f64 {
        // planted inputs are non-empty, so every measured operation must
        // produce output
        assert!(f() > 0, "warm-up produced an empty result");
        let mut samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(f());
                ms(t0)
            })
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        samples[reps / 2]
    };
    let mut rng = StdRng::seed_from_u64(0xE2); // the e02 workload seed
    let mut pair = None;
    let mut cols = Vec::new();
    for (support, threads) in grid() {
        if threads == 1 {
            pair = Some(planted_pair(&x, &y, support as u64, support, 1 << 20, &mut rng).unwrap());
        }
        let (r, s) = pair.as_ref().expect("drawn at threads = 1");
        let (cfg, session) = exec(threads);
        let join_ms = time_ms(&|| bag_join_merge_with(r, s, &cfg).unwrap().support_size());
        let marginal_ms = time_ms(&|| s.marginal_with(&z, &cfg).unwrap().support_size());
        let fill_ms = time_ms(&|| {
            session
                .consistency_witness(r, s)
                .unwrap()
                .expect("planted pairs are consistent")
                .support_size()
        });
        cols.push((join_ms, marginal_ms, fill_ms));
    }
    // The chain column runs after the whole pair grid, on families drawn
    // from their own stream, so the pair columns keep their inputs and
    // their place in the run.
    let mut chain_rng = StdRng::seed_from_u64(0xE13);
    let mut family = Vec::new();
    let mut rows = Vec::new();
    for ((support, threads), (join_ms, marginal_ms, fill_ms)) in grid().zip(cols) {
        if threads == 1 {
            let drawn = planted_family(&path(6), support as u64, support, 1 << 12, &mut chain_rng);
            family = drawn.unwrap().0;
        }
        let refs: Vec<&Bag> = family.iter().collect();
        let (_, session) = exec(threads);
        let chain_ms = time_ms(&|| {
            session
                .witness(&refs)
                .unwrap()
                .witness()
                .expect("planted families are consistent")
                .support_size()
        });
        println!(
            "{support:>9} {threads:>8} {join_ms:>12.3} {marginal_ms:>14.3} {fill_ms:>16.3} \
             {chain_ms:>17.3}"
        );
        rows.push(format!(
            "    {{\"support\": {support}, \"threads\": {threads}, \
             \"join_merge_ms\": {join_ms:.4}, \"marginal_ms\": {marginal_ms:.4}, \
             \"witness_fill_ms\": {fill_ms:.4}, \"witness_chain_ms\": {chain_ms:.4}}}"
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"e13_parallel\",\n  \"workload\": \
         \"planted_pair x={{A0,A1}} y={{A1,A2}} mult=2^20 seed=0xE2 (e02); \
         marginal = S[A1] prefix sweep; witness_chain = Session::witness on \
         planted_family(path(6)) domain=support mult=2^12 seed=0xE13, timed after \
         the pair columns\",\n  \
         \"unit\": \"milliseconds, median of 7\",\n  \
         \"host_parallelism\": {host},\n  \
         \"note\": \"threads = 1 is the sequential PR 1 path; parallel \
         speedup requires host_parallelism >= threads (a 1-core container \
         records scoped-thread overhead instead)\",\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_e13.json", &json).expect("write BENCH_e13.json");
    println!("wrote BENCH_e13.json");
}

/// E14 — the adaptive scheduler under skew: a workload with one giant
/// key group next to many tiny ones, across a threads × support grid.
/// Times the seal (one sort and one row copy on the calling thread, so
/// its column should not move with the thread count), the sharded hash
/// probe (giant probe chains in a few chunks), and the skew-sharded
/// merge join (the giant group collapses shards; work stealing
/// rebalances the rest). `threads = 1` is the sequential baseline;
/// writes the grid to `BENCH_e14.json` in the current directory.
fn e14() {
    use bagcons_core::join::{bag_join_hash_with, bag_join_merge_with};
    use bagcons_core::{Bag, ExecConfig, Value};

    header(
        "E14",
        "adaptive scheduling under skew: seal / hash probe / merge join",
    );
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {host} (speedups need threads <= cores)");
    println!(
        "{:>9} {:>8} {:>12} {:>14} {:>14}",
        "support", "threads", "seal(ms)", "hash join(ms)", "merge join(ms)"
    );
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let mut rows = Vec::new();
    for exp in [13u32, 15] {
        let support = 1usize << exp;
        // Probe side: 1/8 of the rows pile onto key 0 (the giant
        // group); the rest spread over ~1k tiny keys. Reverse insertion
        // order leaves the bag unsealed — the seal's worst case.
        let mut probe = Bag::new(x.clone());
        for i in (0..support as u64).rev() {
            let key = if i % 8 == 0 { 0 } else { i % 1023 + 1 };
            probe
                .insert(vec![Value(i), Value(key)], i % 5 + 1)
                .expect("arity matches");
        }
        assert!(!probe.is_sealed());
        // Build side: 32 rows behind the giant key, one behind each tiny
        // key — so giant-group probes emit 32 rows each and the rest one.
        let mut build = Bag::new(y.clone());
        for c in 0..32u64 {
            build
                .insert(vec![Value(0), Value(10_000 + c)], c % 3 + 1)
                .expect("arity matches");
        }
        for k in 1..1024u64 {
            build
                .insert(vec![Value(k), Value(20_000 + k)], k % 4 + 1)
                .expect("arity matches");
        }
        let mut probe_sealed = probe.clone();
        probe_sealed.seal();
        let mut build_sealed = build.clone();
        build_sealed.seal();

        for threads in [1usize, 2, 4] {
            let cfg = ExecConfig::builder()
                .threads(threads)
                .min_parallel_support(1024)
                .build()
                .unwrap();
            let reps = 7;
            let median = |mut samples: Vec<f64>| -> f64 {
                samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                samples[samples.len() / 2]
            };
            // Seal: each rep re-seals a fresh clone; the clone is
            // outside the timed region.
            let seal_ms = {
                let mut warm = probe.clone();
                warm.try_seal_with(&cfg).unwrap();
                assert!(warm.is_sealed() && warm.support_size() > 0);
                median(
                    (0..reps)
                        .map(|_| {
                            let mut b = probe.clone();
                            let t0 = Instant::now();
                            b.try_seal_with(&cfg).unwrap();
                            let dt = ms(t0);
                            std::hint::black_box(b.support_size());
                            dt
                        })
                        .collect(),
                )
            };
            let time_ms = |f: &dyn Fn() -> usize| -> f64 {
                assert!(f() > 0, "warm-up produced an empty result");
                median(
                    (0..reps)
                        .map(|_| {
                            let t0 = Instant::now();
                            std::hint::black_box(f());
                            ms(t0)
                        })
                        .collect(),
                )
            };
            let hash_ms = time_ms(&|| {
                bag_join_hash_with(&probe, &build, &cfg)
                    .unwrap()
                    .support_size()
            });
            let merge_ms = time_ms(&|| {
                bag_join_merge_with(&probe_sealed, &build_sealed, &cfg)
                    .unwrap()
                    .support_size()
            });
            println!("{support:>9} {threads:>8} {seal_ms:>12.3} {hash_ms:>14.3} {merge_ms:>14.3}");
            rows.push(format!(
                "    {{\"support\": {support}, \"threads\": {threads}, \
                 \"seal_ms\": {seal_ms:.4}, \"hash_join_ms\": {hash_ms:.4}, \
                 \"join_merge_ms\": {merge_ms:.4}}}"
            ));
        }
    }
    let json = format!(
        "{{\n  \"experiment\": \"e14_skew\",\n  \"workload\": \
         \"skewed keys: 1/8 of probe rows on one giant key (32 build \
         partners), rest on ~1k tiny keys (1 partner); seal re-lays-out \
         an unsealed reverse-inserted bag\",\n  \
         \"unit\": \"milliseconds, median of 7\",\n  \
         \"host_parallelism\": {host},\n  \
         \"note\": \"threads = 1 is the sequential path; the seal runs \
         on the calling thread at every thread count; parallel join \
         speedup requires host_parallelism >= threads (a 1-core container \
         records work-stealing overhead instead)\",\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_e14.json", &json).expect("write BENCH_e14.json");
    println!("wrote BENCH_e14.json");
}

/// E15 — the incremental layer: delta re-checks through
/// `Session::open_stream` and `update` vs a from-scratch per-pair flow
/// rebuild (network build and solve), across the e02 support grid. Three delta shapes: an in-place
/// bump of an existing row (+1 then a −1 revert; the bag's multiplicity
/// column and one key of the pair's marginal difference change), a
/// support-changing fresh-row delta (incremental bag reseal + the same
/// one-key difference update), and the flow construction a checker
/// without Lemma 2 marginals would redo per edit. Writes the grid to
/// `BENCH_e15.json` in the current directory.
fn e15() {
    use bagcons_core::DeltaSet;
    use bagcons_flow::ConsistencyNetwork;

    header("E15", "incremental delta re-check vs full flow rebuild");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {host}");
    println!(
        "{:>9} {:>15} {:>13} {:>13} {:>9}",
        "support", "in-place(ms)", "reseal(ms)", "rebuild(ms)", "speedup"
    );
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let mut rng = StdRng::seed_from_u64(0xE2); // the e02 workload seed
    let session = Session::builder().threads(1).build().expect("valid");
    let mut rows = Vec::new();
    for exp in [10u32, 12, 14] {
        let support = 1usize << exp;
        let (r, s) = planted_pair(&x, &y, support as u64, support, 1 << 20, &mut rng).unwrap();
        let mut stream = session
            .open_stream(vec![r.clone(), s.clone()])
            .expect("stream opens");
        // A *matched* bump: +1 on an R row and +1 on an S row sharing
        // its join key, so the pair flips inconsistent and back to
        // consistent through the same marginal-difference key; the
        // reverts flip it again.
        let r_target: Vec<u64> = r.sorted_rows()[0].0.iter().map(|v| v.get()).collect();
        let key = r_target[1]; // shared attribute A1: last column of R
        let s_target: Vec<u64> = s
            .sorted_rows()
            .iter()
            .find(|(row, _)| row[0].get() == key)
            .expect("marginal equality: some S row carries the key")
            .0
            .iter()
            .map(|v| v.get())
            .collect();
        let mut r_plus = DeltaSet::new(r.schema().clone());
        r_plus.bump_u64s(&r_target, 1).unwrap();
        let mut r_minus = DeltaSet::new(r.schema().clone());
        r_minus.bump_u64s(&r_target, -1).unwrap();
        let mut s_plus = DeltaSet::new(s.schema().clone());
        s_plus.bump_u64s(&s_target, 1).unwrap();
        let mut s_minus = DeltaSet::new(s.schema().clone());
        s_minus.bump_u64s(&s_target, -1).unwrap();

        let reps = 7;
        let median = |mut samples: Vec<f64>| -> f64 {
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            samples[samples.len() / 2]
        };
        // One cycle = 4 in-place updates (grow R, grow S back to
        // consistent, then the two cancelling reverts); the recorded
        // number is the per-update cost across the whole cycle.
        let inplace_ms = median(
            (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    let out = stream.update(0, &r_plus).unwrap();
                    assert!(!out.applied.support_changed());
                    assert_eq!(out.pairs_repaired, 1);
                    let out = stream.update(1, &s_plus).unwrap();
                    assert_eq!(
                        out.decision.as_str(),
                        "consistent",
                        "matched bump must cancel in the marginal difference"
                    );
                    stream.update(0, &r_minus).unwrap();
                    let out = stream.update(1, &s_minus).unwrap();
                    let dt = ms(t0);
                    assert_eq!(out.decision.as_str(), "consistent");
                    dt / 4.0
                })
                .collect(),
        );
        // Fresh-row delta: incremental reseal + difference update.
        let reseal_ms = median(
            (0..reps)
                .map(|rep| {
                    let fresh = [2 * support as u64 + rep, 2 * support as u64];
                    let mut add = DeltaSet::new(r.schema().clone());
                    add.bump_u64s(&fresh, 1).unwrap();
                    let mut del = DeltaSet::new(r.schema().clone());
                    del.bump_u64s(&fresh, -1).unwrap();
                    let t0 = Instant::now();
                    let out = stream.update(0, &add).unwrap();
                    let dt = ms(t0);
                    assert!(out.applied.support_changed());
                    stream.update(0, &del).unwrap();
                    dt
                })
                .collect(),
        );
        // Baseline: the per-pair flow construction, from scratch.
        let rebuild_ms = median(
            (0..reps)
                .map(|_| {
                    let t0 = Instant::now();
                    let witness = ConsistencyNetwork::build(&stream.bags()[0], &stream.bags()[1])
                        .unwrap()
                        .solve_with(session.exec())
                        .unwrap();
                    let dt = ms(t0);
                    assert!(std::hint::black_box(witness).is_some());
                    dt
                })
                .collect(),
        );
        println!(
            "{support:>9} {inplace_ms:>15.4} {reseal_ms:>13.4} {rebuild_ms:>13.4} {:>8.1}x",
            rebuild_ms / inplace_ms
        );
        rows.push(format!(
            "    {{\"support\": {support}, \"incremental_ms\": {inplace_ms:.4}, \
             \"reseal_ms\": {reseal_ms:.4}, \"rebuild_ms\": {rebuild_ms:.4}}}"
        ));
    }
    let json = format!(
        "{{\n  \"experiment\": \"e15_incremental\",\n  \"workload\": \
         \"planted_pair x={{A0,A1}} y={{A1,A2}} mult=2^20 seed=0xE2 (e02); \
         in-place = per-update cost of a matched +-1 bump cycle on both \
         sides sharing a join key (each update changes one key of the \
         pair's marginal difference); reseal = fresh-row delta; rebuild = \
         per-pair network build + solve from scratch\",\n  \
         \"unit\": \"milliseconds, median of 7\",\n  \
         \"host_parallelism\": {host},\n  \
         \"note\": \"incremental_ms must beat rebuild_ms: an update adds \
         each edit to one key of the pair's marginal difference while the \
         rebuild re-sorts, re-joins, and re-solves everything\",\n  \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_e15.json", &json).expect("write BENCH_e15.json");
    println!("wrote BENCH_e15.json");
}

/// E16 — the hot-loop layer: packed key codes, measured against the
/// slice-compare baseline *in the same run* so the regression tracker
/// sees both columns of one row. One grid: a merge join over a
/// 3-attribute join key (`x = {A0..A3}`, `y = {A1..A4}`), packed u64 key
/// compares with galloping advancement vs the slice-compare +
/// linear-advance baseline, single-threaded (the CI speedup gate reads
/// the largest-support row).
///
/// Writes the grid to `BENCH_e16.json` in the current directory.
fn e16() {
    use bagcons_core::join::{bag_join_merge_baseline_with, bag_join_merge_with};
    use bagcons_core::{Bag, ExecConfig, Value};

    header("E16", "hot loops: packed key codes");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {host}");
    let reps = 7;
    let median = |mut samples: Vec<f64>| -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        samples[samples.len() / 2]
    };
    let mut rows = Vec::new();

    // Packed vs slice merge join, 3-column join key.
    println!(
        "{:>9} {:>8} {:>12} {:>12} {:>9}",
        "support", "threads", "packed(ms)", "slice(ms)", "speedup"
    );
    let x = Schema::range(0, 4); // {A0, A1, A2, A3}
    let y = Schema::range(1, 5); // {A1, A2, A3, A4} -> 3 shared key attrs
    let cfg = ExecConfig::builder()
        .threads(1)
        .min_parallel_support(usize::MAX)
        .build()
        .unwrap();
    for exp in [12u32, 14, 15] {
        let support = 1usize << exp;
        // Compare-bound workload: join keys are the base-64 digits of a
        // counter, so neighbouring keys share long prefixes and a slice
        // compare must walk all three columns before deciding — exactly
        // the case one packed u64 compare collapses. R holds even
        // counters, S odd ones except every 16th row (the matches), so
        // the merge loop emits only n/16 output rows (advancement, not
        // materialisation, dominates). R's payload column A0 is a
        // scrambled counter, so R's sealed order is uncorrelated with
        // the {A1,A2,A3} join key and every join call pays the real
        // key sort — ~log n deep compares per row, the loop the packed
        // words collapse.
        let digits = |v: u64| -> [u64; 3] { [v >> 12, (v >> 6) & 63, v & 63] };
        let mut r = Bag::new(x.clone());
        for i in 0..support as u64 {
            let [d0, d1, d2] = digits(2 * i);
            let scrambled = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44;
            r.insert(vec![Value(scrambled), Value(d0), Value(d1), Value(d2)], 1)
                .expect("arity matches");
        }
        let mut s = Bag::new(y.clone());
        for j in 0..support as u64 {
            let v = if j % 16 == 0 { 2 * j } else { 2 * j + 1 };
            let [d0, d1, d2] = digits(v);
            s.insert(vec![Value(d0), Value(d1), Value(d2), Value(j)], 1)
                .expect("arity matches");
        }
        r.seal();
        s.seal();
        assert!(r.is_sealed() && s.is_sealed());
        // Warm-up doubles as the equivalence check: the packed loop must
        // be bit-identical to the slice baseline.
        let packed = bag_join_merge_with(&r, &s, &cfg).unwrap();
        let slice = bag_join_merge_baseline_with(&r, &s, &cfg).unwrap();
        assert!(packed.support_size() > 0, "planted pair must join");
        assert_eq!(
            packed.sorted_rows(),
            slice.sorted_rows(),
            "packed merge join must be bit-identical to the slice baseline"
        );
        let time_ms = |f: &dyn Fn() -> usize| -> f64 {
            assert!(f() > 0, "warm-up produced an empty result");
            median(
                (0..reps)
                    .map(|_| {
                        let t0 = Instant::now();
                        std::hint::black_box(f());
                        ms(t0)
                    })
                    .collect(),
            )
        };
        let packed_ms = time_ms(&|| bag_join_merge_with(&r, &s, &cfg).unwrap().support_size());
        let slice_ms = time_ms(&|| {
            bag_join_merge_baseline_with(&r, &s, &cfg)
                .unwrap()
                .support_size()
        });
        println!(
            "{support:>9} {:>8} {packed_ms:>12.3} {slice_ms:>12.3} {:>8.2}x",
            1,
            slice_ms / packed_ms
        );
        rows.push(format!(
            "    {{\"kind\": \"merge_join\", \"support\": {support}, \"threads\": 1, \
             \"packed_join_ms\": {packed_ms:.4}, \"slice_join_ms\": {slice_ms:.4}}}"
        ));
    }

    let json = format!(
        "{{\n  \"experiment\": \"e16_hotloop\",\n  \"workload\": \
         \"merge_join: x={{A0..A3}} y={{A1..A4}}, 3-attr join keys are \
         base-64 digits of even (R) / mostly-odd (S) counters — deep \
         shared prefixes, 1/16 match rate — packed u64 key codes vs \
         slice-compare baseline measured in the same run\",\n  \
         \"unit\": \"milliseconds, median of 7\",\n  \
         \"host_parallelism\": {host},\n  \
         \"note\": \"all rows are threads = 1: this experiment isolates \
         per-element compare/advance cost below the thread level; \
         each row carries the optimised and baseline columns from the \
         same binary so trend tracking compares like with like\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_e16.json", &json).expect("write BENCH_e16.json");
    println!("wrote BENCH_e16.json");
}

/// E17 — the serving layer: request latency for a read-mostly mixed
/// workload against a live loopback daemon, vs client count × dataset
/// size, warm (one session per client) vs cold (re-`open` before every
/// request). A re-`open` forks the stream the generation stored at its
/// first open, so the cold rows time a fork, not a stream build.
///
/// Writes the grid to `BENCH_e17.json` in the current directory.
fn e17() {
    use bagcons_serve::{ServeOptions, Server};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    header("E17", "serve: request latency vs clients × dataset size");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {host}");
    let mut rows = Vec::new();

    // A consistent two-bag path dataset (A0–A1 ⋈ A1–A2) of the given
    // support, written as bag files for the daemon's loader.
    let write_dataset = |dir: &std::path::Path, support: usize| -> Vec<String> {
        let mut r = String::from("A0 A1 #\n");
        let mut s = String::from("A1 A2 #\n");
        for i in 0..support {
            r.push_str(&format!("{i} {i} : 2\n"));
            s.push_str(&format!("{i} {i} : 2\n"));
        }
        let rp = dir.join(format!("r{support}.bag"));
        let sp = dir.join(format!("s{support}.bag"));
        std::fs::write(&rp, r).expect("write r");
        std::fs::write(&sp, s).expect("write s");
        vec![rp.display().to_string(), sp.display().to_string()]
    };

    let dir = std::env::temp_dir().join(format!("bagcons-e17-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    println!(
        "{:>8} {:>8} {:>6} {:>9} {:>9} {:>9} {:>10} {:>9}",
        "support", "clients", "mode", "requests", "p50(ms)", "p99(ms)", "total(ms)", "req/s"
    );
    for support in [256usize, 4096] {
        let files = write_dataset(&dir, support);
        let dataset = format!("d{support}");
        let server = Server::bind(ServeOptions::default()).expect("bind loopback");
        let addr = server.local_addr().expect("tcp");
        server.preload(&dataset, &files).expect("preload");
        let handle = server.handle();
        let server_thread = std::thread::spawn(move || server.run().expect("serve"));

        let median = |mut samples: Vec<f64>| -> f64 {
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            samples[samples.len() / 2]
        };
        for clients in [1usize, 2, 4, 8] {
            for (mode, requests) in [("warm", 200usize), ("cold", 50)] {
                // Per-cell repetitions with medianed percentiles: a
                // single burst's p99 is one scheduler hiccup away from a
                // 3x swing on a small core count, and the trend gate
                // compares these rows at 1.5x.
                let reps = 3;
                let mut p50s = Vec::with_capacity(reps);
                let mut p99s = Vec::with_capacity(reps);
                let mut totals = Vec::with_capacity(reps);
                let mut count = 0usize;
                for _ in 0..reps {
                    let t0 = Instant::now();
                    let workers: Vec<_> = (0..clients)
                        .map(|c| {
                            let dataset = dataset.clone();
                            std::thread::spawn(move || {
                                let stream = TcpStream::connect(addr).expect("connect");
                                stream.set_nodelay(true).expect("nodelay");
                                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                                let mut writer = stream;
                                let mut request = |line: &str| -> (String, f64) {
                                    let t = Instant::now();
                                    writer
                                        .write_all(format!("{line}\n").as_bytes())
                                        .expect("send");
                                    writer.flush().expect("flush");
                                    let mut resp = String::new();
                                    assert!(
                                        reader.read_line(&mut resp).expect("recv") > 0,
                                        "server closed connection"
                                    );
                                    (resp, ms(t))
                                };
                                let open = format!("open {dataset}");
                                let mut lat = Vec::with_capacity(requests);
                                if mode == "warm" {
                                    let (resp, _) = request(&open);
                                    assert!(resp.starts_with("ok open "), "{resp}");
                                }
                                // Read-mostly mix: 4 checks per delta toggle
                                // (the toggle alternates +1/-1 on a private
                                // COW copy, so every client's decisions stay
                                // deterministic regardless of interleaving).
                                let row = c % support;
                                for i in 0..requests {
                                    if mode == "cold" {
                                        let (resp, dt) = request(&open);
                                        assert!(resp.starts_with("ok open "), "{resp}");
                                        lat.push(dt);
                                        continue;
                                    }
                                    let line = match i % 5 {
                                        4 if i % 10 == 4 => format!("0 {row} {row} : 1"),
                                        4 => format!("0 {row} {row} : -1"),
                                        _ => "check".to_string(),
                                    };
                                    let (resp, dt) = request(&line);
                                    assert!(resp.starts_with("status="), "{resp}");
                                    lat.push(dt);
                                }
                                let (resp, _) = request("quit");
                                assert!(resp.starts_with("ok bye"), "{resp}");
                                lat
                            })
                        })
                        .collect();
                    let mut lat: Vec<f64> = workers
                        .into_iter()
                        .flat_map(|w| w.join().expect("client thread"))
                        .collect();
                    totals.push(ms(t0));
                    lat.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize];
                    p50s.push(pct(0.50));
                    p99s.push(pct(0.99));
                    count = lat.len();
                }
                let (p50, p99) = (median(p50s), median(p99s));
                let total_ms = median(totals);
                let rps = count as f64 / (total_ms / 1e3);
                println!(
                    "{support:>8} {clients:>8} {mode:>6} {count:>9} {p50:>9.3} {p99:>9.3} \
                     {total_ms:>10.1} {rps:>9.0}"
                );
                rows.push(format!(
                    "    {{\"kind\": \"serve\", \"support\": {support}, \
                     \"clients\": {clients}, \"mode\": \"{mode}\", \
                     \"requests\": {count}, \"p50_ms\": {p50:.4}, \"p99_ms\": {p99:.4}, \
                     \"total_ms\": {total_ms:.4}}}"
                ));
            }
        }
        handle.shutdown();
        server_thread.join().expect("server thread");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        "{{\n  \"experiment\": \"e17_serve\",\n  \"workload\": \
         \"serve: loopback daemon, path dataset A0-A1 x A1-A2 of the given \
         support, N concurrent clients each issuing a read-mostly mix \
         (4 checks per +-1 delta toggle on a private copy-on-write \
         session); warm = one open per client, cold = re-open before \
         every request (after the generation's first open, which builds \
         and stores its stream, each re-open forks that stream: it times \
         a fork, not a rebuild)\",\n  \
         \"unit\": \"milliseconds (client-observed per-request latency; \
         total is wall clock for the whole burst)\",\n  \
         \"host_parallelism\": {host},\n  \
         \"note\": \"p99 vs clients is the admission-control story: the \
         worker budget queues excess decisions instead of oversubscribing \
         the executor, so p50 should stay flat while p99 grows with the \
         queue\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_e17.json", &json).expect("write BENCH_e17.json");
    println!("wrote BENCH_e17.json");
}

/// E18 — the snapshot layer: zero-copy snapshot open vs text parse +
/// seal over a support grid, plus the cost of opening a stream over the
/// loaded pair. The dataset is a planted consistent pair written two
/// ways from one prep session: two text bag files with the rows
/// deliberately scrambled (so the parse path pays the real seal sort),
/// and one snapshot file carrying the sealed arenas. Writes the grid to
/// `BENCH_e18.json` in the current directory.
fn e18() {
    use std::sync::Arc;

    header("E18", "snapshot open vs parse+seal; stream open");
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host parallelism: {host}");
    println!(
        "{:>9} {:>12} {:>13} {:>13} {:>9} {:>11}",
        "support", "snap bytes", "parse+seal", "snap open", "speedup", "stream(ms)"
    );
    let dir = std::env::temp_dir().join(format!("bagcons-e18-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let mut rng = StdRng::seed_from_u64(0xE18);
    let reps = 7;
    let median = |mut samples: Vec<f64>| -> f64 {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        samples[samples.len() / 2]
    };
    let mut rows = Vec::new();
    for exp in [10u32, 12, 14, 16, 17] {
        let support = 1usize << exp;
        let (r, s) = planted_pair(&x, &y, support as u64, support, 1 << 20, &mut rng).unwrap();
        // Text files with the rows written back-to-front: a sorted file
        // would let the seal's run detection skip the sort, understating
        // the cost the snapshot path actually removes.
        let write_text = |bag: &Bag, attrs: [&str; 2], name: &str| -> std::path::PathBuf {
            let mut text = format!("{} {} #\n", attrs[0], attrs[1]);
            for (row, mult) in bag.sorted_rows().iter().rev() {
                text.push_str(&format!("{} {} : {mult}\n", row[0].get(), row[1].get()));
            }
            let path = dir.join(format!("{name}{support}.bag"));
            std::fs::write(&path, text).expect("write text bag");
            path
        };
        let rp = write_text(&r, ["A0", "A1"], "r");
        let sp = write_text(&s, ["A1", "A2"], "s");
        // Prep session: parse the text back (so the snapshot holds the
        // same symbolic attrs a text load produces) and persist it the
        // way `snapshot save` does.
        let snap_path = dir.join(format!("d{support}.snap"));
        {
            let mut prep = Session::builder().threads(1).build().expect("valid");
            let mut bags = prep.load_path(&rp).expect("parse r");
            bags.extend(prep.load_path(&sp).expect("parse s"));
            let refs: Vec<&Bag> = bags.iter().collect();
            prep.write_snapshot(&snap_path, &refs)
                .expect("write snapshot");
        }
        let snap_bytes = std::fs::metadata(&snap_path)
            .expect("snapshot written")
            .len();

        // Loading: text parse + seal vs snapshot open, each through the
        // same auto-detecting `Session::load_path` entry point.
        let load_ms = |paths: &[&std::path::Path]| -> f64 {
            median(
                (0..reps)
                    .map(|_| {
                        let mut sess = Session::builder().threads(1).build().expect("valid");
                        let t0 = Instant::now();
                        let mut bags = Vec::new();
                        for p in paths {
                            bags.extend(sess.load_path(p).expect("load"));
                        }
                        let dt = ms(t0);
                        assert_eq!(bags.len(), 2);
                        assert_eq!(
                            std::hint::black_box(&bags)[0].support_size(),
                            r.support_size()
                        );
                        dt
                    })
                    .collect(),
            )
        };
        let parse_ms = load_ms(&[&rp, &sp]);
        let snap_ms = load_ms(&[&snap_path]);

        // Stream opening from the snapshot-loaded bags: every pair's
        // keyed marginal difference accumulated from both sides.
        let session = Session::builder().threads(1).build().expect("valid");
        let arcs: Vec<Arc<Bag>> = {
            let mut loader = Session::builder().threads(1).build().expect("valid");
            let bags = loader.load_snapshot(&snap_path).expect("reload");
            bags.into_iter().map(Arc::new).collect()
        };
        let stream_ms = median(
            (0..reps)
                .map(|_| {
                    let pinned = arcs.clone();
                    let t0 = Instant::now();
                    let stream = session.open_stream_shared(pinned).expect("stream opens");
                    let dt = ms(t0);
                    assert_eq!(
                        std::hint::black_box(stream).decision().as_str(),
                        "consistent"
                    );
                    dt
                })
                .collect(),
        );
        println!(
            "{support:>9} {snap_bytes:>12} {parse_ms:>13.3} {snap_ms:>13.3} {:>8.1}x \
             {stream_ms:>11.3}",
            parse_ms / snap_ms
        );
        rows.push(format!(
            "    {{\"support\": {support}, \"snapshot_bytes\": {snap_bytes}, \
             \"parse_seal_ms\": {parse_ms:.4}, \"snap_open_ms\": {snap_ms:.4}, \
             \"cold_stream_ms\": {stream_ms:.4}}}"
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let json = format!(
        "{{\n  \"experiment\": \"e18_snapshot\",\n  \"workload\": \
         \"planted_pair x={{A0,A1}} y={{A1,A2}} mult=2^20 seed=0xE18, written \
         as scrambled text bag files and as one snapshot; parse_seal = \
         Session::load_path on the two text files (byte scan into one \
         arena + one sort/merge into a sealed bag), snap_open = \
         Session::load_path on the snapshot \
         (verify hashes + adopt sealed arenas); cold_stream = \
         open_stream_shared on the loaded pair (keyed marginal difference \
         accumulated from both sides)\",\n  \
         \"unit\": \"milliseconds, median of 7\",\n  \
         \"host_parallelism\": {host},\n  \
         \"note\": \"snap_open must beat parse_seal by >= 10x on the \
         largest row: the snapshot adopts the sealed sorted-run arena \
         after hash verification instead of re-scanning the text and \
         re-sorting\",\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write("BENCH_e18.json", &json).expect("write BENCH_e18.json");
    println!("wrote BENCH_e18.json");
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::join::bag_join;
    use bagcons_core::Value;

    #[test]
    fn seed_reproduction_matches_columnar_join() {
        let x = Schema::range(0, 2);
        let y = Schema::range(1, 3);
        let mut r = Bag::new(x);
        let mut s = Bag::new(y);
        for i in 0..50u64 {
            r.insert(vec![Value(i % 7), Value(i % 5)], i % 3 + 1)
                .unwrap();
            s.insert(vec![Value(i % 5), Value(i % 11)], i % 4 + 1)
                .unwrap();
        }
        assert_eq!(
            seed_boxed_hash_join(&r, &s),
            bag_join(&r, &s).unwrap().support_size()
        );
    }
}
