//! E4 — Theorem 2: cost of certifying local-to-global consistency on
//! acyclic schemas vs refuting the Tseitin family on cyclic ones.
//!
//! Shape reproduced: acyclic certification is polynomial in the family
//! size; the cyclic counterexample construction + refutation stays cheap
//! because the Tseitin contradiction empties the join.

use bagcons::acyclic::WitnessStrategy;
use bagcons::global::globally_consistent_via_ilp;
use bagcons::lifting::pairwise_consistent_globally_inconsistent;
use bagcons::session::Session;
use bagcons::tseitin::tseitin_bags;
use bagcons_core::Bag;
use bagcons_gen::consistent::planted_family;
use bagcons_hypergraph::{cycle, path};
use bagcons_lp::ilp::{IlpOutcome, SolverConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e04_local_global");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(0xE4);
    let session = Session::builder().threads(1).build().unwrap();
    // acyclic: pairwise check + witness chain on paths
    for m in [4u32, 8] {
        let (bags, _) = planted_family(&path(m + 1), 3, 64, 8, &mut rng).unwrap();
        g.bench_with_input(BenchmarkId::new("acyclic_certify", m), &m, |b, _| {
            let refs: Vec<&Bag> = bags.iter().collect();
            b.iter(|| {
                session
                    .acyclic_global_witness(&refs, WitnessStrategy::Saturated)
                    .unwrap()
                    .support_size()
            })
        });
    }
    // cyclic: Tseitin construction + global refutation on C_n
    for n in [3u32, 5, 7] {
        g.bench_with_input(BenchmarkId::new("cyclic_refute_Cn", n), &n, |b, &n| {
            b.iter(|| {
                let bags = tseitin_bags(&cycle(n)).unwrap();
                let refs: Vec<&Bag> = bags.iter().collect();
                let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
                assert_eq!(dec.outcome, IlpOutcome::Unsat);
            })
        });
    }
    // the full Theorem 2 Step 2 pipeline on a decorated cycle
    g.bench_function("obstruction_lift_pipeline", |b| {
        let h = bagcons_hypergraph::Hypergraph::from_edges([
            bagcons_core::Schema::range(0, 2),
            bagcons_core::Schema::range(1, 3),
            bagcons_core::Schema::range(2, 4),
            bagcons_core::Schema::from_attrs([bagcons_core::Attr(3), bagcons_core::Attr(0)]),
            bagcons_core::Schema::from_attrs([bagcons_core::Attr(0), bagcons_core::Attr(9)]),
        ]);
        b.iter(|| {
            pairwise_consistent_globally_inconsistent(&h)
                .unwrap()
                .unwrap()
                .len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
