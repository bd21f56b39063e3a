//! E13 — the sharded execution layer: merge join, prefix marginal sweep,
//! and the two-bag witness fill at thread counts 1/2/4 on the e02
//! two-bag workload.
//!
//! Shape expected: `threads = 1` matches the e12 sequential numbers
//! (same code path); higher thread counts scale the three sweeps with
//! available cores — on a single-core host they instead show the scoped
//! thread + splice overhead, which the `min_parallel_support` fallback
//! keeps off the default paths.

use bagcons::session::Session;
use bagcons_core::join::bag_join_merge_with;
use bagcons_core::{ExecConfig, Schema};
use bagcons_gen::consistent::planted_pair;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_parallel");
    g.sample_size(20);
    let x = Schema::range(0, 2);
    let y = Schema::range(1, 3);
    let z = Schema::range(1, 2); // prefix of y: the sharded sweep target
    let mut rng = StdRng::seed_from_u64(0xE2); // the e02 workload seed
    for exp in [10u32, 12] {
        let support = 1usize << exp;
        let (r, s) = planted_pair(&x, &y, support as u64, support, 1 << 20, &mut rng).unwrap();
        for threads in [1usize, 2, 4] {
            let cfg = ExecConfig::builder()
                .threads(threads)
                .min_parallel_support(1024)
                .build()
                .unwrap();
            let session = Session::builder().exec(cfg.clone()).build().unwrap();
            let tag = format!("s{support}_t{threads}");
            g.bench_with_input(BenchmarkId::new("join_merge", &tag), &support, |b, _| {
                b.iter(|| bag_join_merge_with(&r, &s, &cfg).unwrap().support_size())
            });
            g.bench_with_input(BenchmarkId::new("marginal", &tag), &support, |b, _| {
                b.iter(|| s.marginal_with(&z, &cfg).unwrap().support_size())
            });
            g.bench_with_input(BenchmarkId::new("witness_fill", &tag), &support, |b, _| {
                b.iter(|| {
                    session
                        .consistency_witness(&r, &s)
                        .unwrap()
                        .expect("planted pairs are consistent")
                        .support_size()
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
