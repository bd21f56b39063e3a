//! E7 — Theorem 4(2): GCPB on the triangle = 3-D contingency tables.
//!
//! Shape reproduced: exact-search effort grows super-polynomially with
//! the table side on dense planted instances (the NP-complete regime);
//! pairwise checks on the same instances remain trivially cheap but do
//! not decide the problem.

use bagcons::global::globally_consistent_via_ilp;
use bagcons::session::Session;
use bagcons_core::Bag;
use bagcons_gen::tables::{planted_3dct, sparse_3dct, tseitin_3dct};
use bagcons_lp::ilp::{IlpOutcome, SolverConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e07_cyclic_gcpb");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(0xE7);
    let session = Session::default();
    for n in [2usize, 3, 4] {
        let inst = planted_3dct(n, 5, &mut rng);
        let bags = inst.to_bags().unwrap();
        g.bench_with_input(BenchmarkId::new("dense_exact_search", n), &n, |b, _| {
            let refs: Vec<&Bag> = bags.iter().collect();
            b.iter(|| {
                globally_consistent_via_ilp(&refs, &SolverConfig::default())
                    .unwrap()
                    .outcome
                    .is_sat()
            })
        });
        g.bench_with_input(BenchmarkId::new("pairwise_only", n), &n, |b, _| {
            let refs: Vec<&Bag> = bags.iter().collect();
            b.iter(|| session.pairwise_consistent(&refs).unwrap())
        });
    }
    for n in [4usize, 8] {
        let inst = sparse_3dct(n, 2 * n, 4, &mut rng);
        let bags = inst.to_bags().unwrap();
        g.bench_with_input(BenchmarkId::new("sparse_exact_search", n), &n, |b, _| {
            let refs: Vec<&Bag> = bags.iter().collect();
            b.iter(|| {
                globally_consistent_via_ilp(&refs, &SolverConfig::default())
                    .unwrap()
                    .outcome
                    .is_sat()
            })
        });
    }
    g.bench_function("tseitin_refutation", |b| {
        let inst = tseitin_3dct(1 << 20).unwrap();
        let bags = inst.to_bags().unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        b.iter(|| {
            let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
            assert_eq!(dec.outcome, IlpOutcome::Unsat);
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
