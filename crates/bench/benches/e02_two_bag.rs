//! E2 — Lemma 2: the marginal test vs the flow test for two-bag
//! consistency.
//!
//! Shape reproduced: both are polynomial; the marginal test is the
//! cheapest decision procedure, the flow adds witness construction.

use bagcons::session::Session;
use bagcons_core::Schema;
use bagcons_flow::ConsistencyNetwork;
use bagcons_gen::consistent::planted_pair;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e02_two_bag");
    g.sample_size(20);
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let mut rng = StdRng::seed_from_u64(0xE2);
    let session = Session::default();
    for exp in [6u32, 8, 10] {
        let support = 1usize << exp;
        let (r, s) = planted_pair(&x, &y, support as u64, support, 1 << 20, &mut rng).unwrap();
        g.bench_with_input(
            BenchmarkId::new("marginal_test", support),
            &support,
            |b, _| b.iter(|| session.bags_consistent(&r, &s).unwrap()),
        );
        g.bench_with_input(
            BenchmarkId::new("flow_saturation", support),
            &support,
            |b, _| b.iter(|| ConsistencyNetwork::build(&r, &s).unwrap().solve().is_some()),
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
