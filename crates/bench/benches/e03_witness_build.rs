//! E3 — Corollary 1: strongly-polynomial two-bag witness construction.
//!
//! Shape reproduced: near-linear growth in the join size, including with
//! 2^40-scale (binary-encoded) multiplicities.

use bagcons::session::Session;
use bagcons_core::Schema;
use bagcons_gen::consistent::planted_pair;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e03_witness_build");
    g.sample_size(10);
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let mut rng = StdRng::seed_from_u64(0xE3);
    let session = Session::default();
    for exp in [6u32, 8, 10, 12] {
        let support = 1usize << exp;
        let (r, s) = planted_pair(&x, &y, support as u64, support, 1 << 40, &mut rng).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(support), &support, |b, _| {
            b.iter(|| {
                let w = session
                    .consistency_witness(&r, &s)
                    .unwrap()
                    .expect("planted");
                w.support_size()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
