//! E6 — Theorem 4(1): GCPB on acyclic schemas is polynomial.
//!
//! Shape reproduced: runtime grows polynomially (roughly linearly in the
//! number of edges × support) with zero exact-search nodes.

use bagcons::session::{Decision, Session};
use bagcons_core::Bag;
use bagcons_gen::consistent::planted_family;
use bagcons_hypergraph::{path, star};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e06_acyclic_gcpb");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(0xE6);
    let session = Session::default();
    for m in [2u32, 4, 8, 12] {
        let (bags, _) = planted_family(&path(m + 1), 4, 256, 16, &mut rng).unwrap();
        g.bench_with_input(BenchmarkId::new("path", m), &m, |b, _| {
            let refs: Vec<&Bag> = bags.iter().collect();
            b.iter(|| {
                let out = session.check(&refs).unwrap();
                assert!(out.branch.is_acyclic() && out.search_nodes == 0);
                out.decision == Decision::Consistent
            })
        });
    }
    for m in [4u32, 8] {
        let (bags, _) = planted_family(&star(m), 4, 256, 16, &mut rng).unwrap();
        g.bench_with_input(BenchmarkId::new("star", m), &m, |b, _| {
            let refs: Vec<&Bag> = bags.iter().collect();
            b.iter(|| session.check(&refs).unwrap().decision == Decision::Consistent)
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
