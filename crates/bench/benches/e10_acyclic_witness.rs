//! E10 — Theorem 6: the acyclic witness chain, and the set-vs-bag
//! contrast on the triangle.
//!
//! Shape reproduced: witness-chain cost polynomial in the number of
//! edges; set-semantics fixed-schema decision (join + project) is always
//! polynomial on the triangle, while the bag decision runs the exact
//! search.

use bagcons::acyclic::WitnessStrategy;
use bagcons::global::globally_consistent_via_ilp;
use bagcons::session::Session;
use bagcons::sets::relations_globally_consistent;
use bagcons_core::{Bag, Relation};
use bagcons_gen::consistent::planted_family;
use bagcons_gen::tables::sparse_3dct;
use bagcons_hypergraph::path;
use bagcons_lp::ilp::SolverConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_acyclic_witness");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(0xE10);
    let session = Session::builder().threads(1).build().unwrap();
    for m in [2u32, 6, 10] {
        let (bags, _) = planted_family(&path(m + 1), 4, 96, 12, &mut rng).unwrap();
        g.bench_with_input(BenchmarkId::new("theorem6_chain", m), &m, |b, _| {
            let refs: Vec<&Bag> = bags.iter().collect();
            b.iter(|| {
                session
                    .acyclic_global_witness(&refs, WitnessStrategy::Saturated)
                    .unwrap()
                    .support_size()
            })
        });
    }
    // set-vs-bag contrast on the triangle
    let inst = sparse_3dct(4, 8, 4, &mut rng);
    let bags = inst.to_bags().unwrap();
    let rels: Vec<Relation> = bags.iter().map(|b| b.support()).collect();
    g.bench_function("triangle_relations_join_project", |b| {
        let refs: Vec<&Relation> = rels.iter().collect();
        b.iter(|| relations_globally_consistent(&refs).unwrap().0)
    });
    g.bench_function("triangle_bags_exact_search", |b| {
        let refs: Vec<&Bag> = bags.iter().collect();
        b.iter(|| {
            globally_consistent_via_ilp(&refs, &SolverConfig::default())
                .unwrap()
                .outcome
                .is_sat()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
