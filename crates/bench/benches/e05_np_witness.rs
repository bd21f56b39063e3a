//! E5 — Theorem 3 / Example 1: small-witness construction on the
//! exponential-join chain.
//!
//! Shape reproduced: building the uniform (bag-join-like) witness costs
//! `Θ(2ⁿ)`; the minimal chain witness stays polynomial in `n`.

use bagcons::acyclic::WitnessStrategy;
use bagcons::session::Session;
use bagcons_core::Bag;
use bagcons_gen::families::{example1_chain, example1_uniform_witness};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e05_np_witness");
    g.sample_size(10);
    let session = Session::builder().threads(1).build().unwrap();
    for n in [8u32, 12, 16] {
        g.bench_with_input(BenchmarkId::new("uniform_witness", n), &n, |b, &n| {
            b.iter(|| example1_uniform_witness(n).unwrap().support_size())
        });
        let bags = example1_chain(n).unwrap();
        g.bench_with_input(BenchmarkId::new("minimal_chain_witness", n), &n, |b, _| {
            let refs: Vec<&Bag> = bags.iter().collect();
            b.iter(|| {
                session
                    .acyclic_global_witness(&refs, WitnessStrategy::Saturated)
                    .unwrap()
                    .support_size()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
