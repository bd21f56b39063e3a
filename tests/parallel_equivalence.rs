//! Property tests: shard-parallel execution is observationally identical
//! to sequential execution.
//!
//! Every `*_with` entry point of the execution layer (merge joins, the
//! sharded hash probe, prefix marginals, the governed seal, the witness
//! group fill, semijoin sweeps) must produce the same result at
//! every thread count — the shard plan never splits a key group,
//! per-shard outputs are tagged with their shard index, and the splice
//! reassembles them in ascending shard order regardless of which
//! work-stealing worker finished which chunk when. So the parallel paths
//! reproduce the sequential emission order *exactly*, not just up to
//! reordering. These tests pin that contract across thread counts
//! 1/2/4/8 with `min_parallel_support` forced to 1, so even tiny random
//! inputs exercise real shard boundaries (duplicate-heavy keys, giant
//! join groups, oversubscribed chunk queues, empty shards).

use bag_consistency::prelude::*;
use bagcons_core::join::{
    bag_join_hash, bag_join_hash_with, bag_join_merge, bag_join_merge_with, bag_join_with,
};
use bagcons_core::{DeltaSet, ExecConfig};
use bagcons_gen::consistent::planted_family;
use bagcons_gen::perturb::bump_one_tuple;
use bagcons_hypergraph::path;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Thread counts under test. `1` is the sequential fallback; the others
/// shard even on a single-core host (the executor is correctness-first:
/// scoped threads run regardless of the machine's parallelism). `8`
/// oversubscribes the work-stealing queue to 32 chunks.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A config that shards everything it legally can.
fn cfg(threads: usize) -> ExecConfig {
    ExecConfig::builder()
        .threads(threads)
        .min_parallel_support(1)
        .build()
        .unwrap()
}

/// A session running under [`cfg`].
fn session(threads: usize) -> Session {
    Session::builder().exec(cfg(threads)).build().unwrap()
}

/// Strategy: a bag over `{A_first..A_first+arity}` with a tiny domain, so
/// keys collide heavily and shard boundaries land inside group clusters.
fn arb_bag(first: u32, arity: u32, domain: u64, max_support: usize) -> impl Strategy<Value = Bag> {
    let schema = Schema::range(first, first + arity);
    arb_rows(arity as usize, domain, max_support).prop_map(move |rows| sealed_bag(&schema, &rows))
}

/// Strategy: up to `max_support` rows of `width` values below `domain`,
/// each with a multiplicity in `1..=16`.
fn arb_rows(
    width: usize,
    domain: u64,
    max_support: usize,
) -> impl Strategy<Value = Vec<(Vec<u64>, u64)>> {
    proptest::collection::vec(
        (proptest::collection::vec(0..domain, width), 1..=16u64),
        0..=max_support,
    )
}

/// The sealed bag over `schema` holding the first `schema.arity()`
/// values of each row; equal rows accumulate.
fn sealed_bag(schema: &Schema, rows: &[(Vec<u64>, u64)]) -> Bag {
    let mut bag = Bag::new(schema.clone());
    for (row, m) in rows {
        let vals: Vec<Value> = row[..schema.arity()]
            .iter()
            .copied()
            .map(Value::new)
            .collect();
        bag.insert(vals, *m).unwrap();
    }
    bag.seal();
    bag
}

/// Schema pairs `(X, Y)` in every orientation of the witness fill:
/// `Y∖X` above `X` (the e02 shape; the fill lists cells by `R`-row),
/// `X∖Y` above `Y` (by `S`-row), interleaved (the fill's rows are sorted),
/// nested both ways, disjoint, and one side empty.
const PAIR_SHAPES: [(&[u32], &[u32]); 8] = [
    (&[0, 1], &[1, 2]),
    (&[1, 2], &[0, 1]),
    (&[0, 2], &[1, 2]),
    (&[0, 1, 2], &[1, 2]),
    (&[0, 2], &[0, 1, 2]),
    (&[0, 1], &[2, 3]),
    (&[0, 2], &[1, 3]),
    (&[], &[0, 1]),
];

/// Attribute set of one side of a [`PAIR_SHAPES`] entry.
fn shape_schema(ids: &[u32]) -> Schema {
    Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
}

/// Two sealed bags over one of [`PAIR_SHAPES`].
fn arb_pair() -> impl Strategy<Value = (Bag, Bag)> {
    (0..PAIR_SHAPES.len(), arb_rows(3, 4, 48), arb_rows(3, 4, 48)).prop_map(|(shape, r, s)| {
        let (x, y) = PAIR_SHAPES[shape];
        (
            sealed_bag(&shape_schema(x), &r),
            sealed_bag(&shape_schema(y), &s),
        )
    })
}

/// An **unsealed** bag: rows inserted in arbitrary order (duplicates
/// accumulate), the greatest first, so the bag is unsealed whenever it
/// holds two distinct rows — everything `seal` has to repair. The tiny
/// domain makes rows collide, so chunk boundaries of the parallel sort
/// routinely land between equal-prefix rows (boundary-straddling
/// groups).
fn arb_unsealed_bag(
    first: u32,
    arity: u32,
    domain: u64,
    max_support: usize,
) -> impl Strategy<Value = Bag> {
    let schema = Schema::range(first, first + arity);
    proptest::collection::vec(
        (
            proptest::collection::vec(0..domain, arity as usize),
            1..=16u64,
        ),
        0..=max_support,
    )
    .prop_map(move |mut rows| {
        if let Some(top) = (0..rows.len()).max_by_key(|&i| &rows[i].0) {
            rows[..=top].rotate_right(1);
        }
        let mut bag = Bag::new(schema.clone());
        for (row, m) in &rows {
            let vals: Vec<Value> = row.iter().copied().map(Value::new).collect();
            bag.insert(vals, *m).unwrap();
        }
        bag
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Sharded merge join ≡ sequential merge join, at every thread count,
    /// including identical storage order of the output.
    #[test]
    fn join_parallel_matches_sequential((r, s) in arb_pair()) {
        let seq = bag_join_merge(&r, &s).unwrap();
        for threads in THREADS {
            let par = bag_join_merge_with(&r, &s, &cfg(threads)).unwrap();
            prop_assert_eq!(&par, &seq, "threads = {}", threads);
            let seq_rows: Vec<&[Value]> = seq.iter().map(|(row, _)| row).collect();
            let par_rows: Vec<&[Value]> = par.iter().map(|(row, _)| row).collect();
            prop_assert_eq!(par_rows, seq_rows, "emission order, threads = {}", threads);
        }
    }

    /// The sharding-aware dispatcher agrees with the plain one whatever
    /// physical strategy it picks.
    #[test]
    fn join_dispatch_strategy_is_observation_invariant((r, s) in arb_pair()) {
        let seq = bagcons_core::join::bag_join(&r, &s).unwrap();
        for threads in THREADS {
            let par = bag_join_with(&r, &s, &cfg(threads)).unwrap();
            prop_assert_eq!(&par, &seq, "threads = {}", threads);
        }
    }

    /// Parallel seal ≡ sequential seal at every thread count, down to
    /// the physical row layout (iteration order), on bags with duplicate
    /// rows and chunk-boundary-straddling key groups.
    #[test]
    fn seal_parallel_matches_sequential(bag in arb_unsealed_bag(0, 3, 3, 64)) {
        let mut seq = bag.clone();
        seq.seal();
        for threads in THREADS {
            let mut par = bag.clone();
            par.try_seal_with(&cfg(threads)).unwrap();
            prop_assert!(par.is_sealed());
            let seq_rows: Vec<(&[Value], u64)> = seq.iter().collect();
            let par_rows: Vec<(&[Value], u64)> = par.iter().collect();
            prop_assert_eq!(par_rows, seq_rows, "threads = {}", threads);
        }
    }

    /// Relation seal: same contract through the set-semantics path.
    /// `Relation` has one seal, so the governed bag seal of the same rows
    /// stands in at each thread count.
    #[test]
    fn relation_seal_parallel_matches_sequential(bag in arb_unsealed_bag(0, 2, 4, 64)) {
        let rel = bag.support();
        let mut seq = rel.clone();
        seq.seal();
        for threads in THREADS {
            let mut as_bag = rel.to_bag();
            as_bag.try_seal_with(&cfg(threads)).unwrap();
            let par = as_bag.support();
            prop_assert!(par.is_sealed());
            let seq_rows: Vec<&[Value]> = seq.iter().collect();
            let par_rows: Vec<&[Value]> = par.iter().collect();
            prop_assert_eq!(par_rows, seq_rows, "threads = {}", threads);
        }
    }

    /// Sharded hash probe ≡ sequential hash join, including identical
    /// emission order (the build side is broadcast, the probe side
    /// shards by id ranges).
    #[test]
    fn hash_join_parallel_matches_sequential((r, s) in arb_pair()) {
        let seq = bag_join_hash(&r, &s).unwrap();
        for threads in THREADS {
            let par = bag_join_hash_with(&r, &s, &cfg(threads)).unwrap();
            prop_assert_eq!(&par, &seq, "threads = {}", threads);
            let seq_rows: Vec<&[Value]> = seq.iter().map(|(row, _)| row).collect();
            let par_rows: Vec<&[Value]> = par.iter().map(|(row, _)| row).collect();
            prop_assert_eq!(par_rows, seq_rows, "emission order, threads = {}", threads);
        }
    }

    /// Sharded prefix marginal ≡ sequential marginal on every prefix
    /// (and on non-prefix schemas, where both take the generic scan).
    #[test]
    fn marginal_parallel_matches_sequential(bag in arb_bag(0, 3, 3, 64)) {
        for sub in [
            Schema::range(0, 1),
            Schema::range(0, 2),
            Schema::range(0, 3),
            Schema::range(1, 3), // not a prefix: generic path both ways
        ] {
            let seq = bag.marginal(&sub).unwrap();
            for threads in THREADS {
                let par = bag.marginal_with(&sub, &cfg(threads)).unwrap();
                prop_assert_eq!(&par, &seq, "Z = {}, threads = {}", sub, threads);
                prop_assert_eq!(par.is_sealed(), seq.is_sealed());
            }
        }
    }

    /// The flow-network witness is the same at every thread count: the
    /// build is sequential, and the closing seal of `solve_with` (the
    /// only sharded step) reproduces the sequential row layout.
    #[test]
    fn network_parallel_matches_sequential((r, s) in arb_pair()) {
        let seq = bagcons_flow::ConsistencyNetwork::build(&r, &s).unwrap();
        let seq_edges = seq.num_middle_edges();
        let seq_witness = seq.solve();
        let seq_rows: Option<Vec<(&[Value], u64)>> = seq_witness.as_ref().map(|w| w.iter().collect());
        for threads in THREADS {
            let par = bagcons_flow::ConsistencyNetwork::build(&r, &s).unwrap();
            prop_assert_eq!(par.num_middle_edges(), seq_edges, "edge count, threads = {}", threads);
            let par_witness = par.solve_with(&cfg(threads)).unwrap();
            let par_rows: Option<Vec<(&[Value], u64)>> = par_witness.as_ref().map(|w| w.iter().collect());
            prop_assert_eq!(&par_rows, &seq_rows, "witness, threads = {}", threads);
        }
    }

    /// Sharded semijoin sweep ≡ sequential semijoin.
    #[test]
    fn semijoin_parallel_matches_sequential((r, s) in arb_pair()) {
        let (r, s) = (r.support(), s.support());
        let seq = Session::default().semijoin(&r, &s).unwrap();
        for threads in THREADS {
            let par = session(threads).semijoin(&r, &s).unwrap();
            prop_assert_eq!(&par, &seq, "threads = {}", threads);
        }
    }

    /// Consistency decisions and witnesses agree across configurations
    /// end-to-end (marginal pre-check + group fill), down to the sealed
    /// row layout, and each witness is canonical: it equals the bag
    /// `Bag::from_rows` builds from its own rows. The second pair is two
    /// marginals of one random bag onto the first pair's schemas, so it
    /// is consistent and the fill runs over many shared-key groups split
    /// across shards.
    #[test]
    fn consistency_witness_parallel_matches_sequential((r0, s0) in arb_pair(), t in arb_bag(0, 4, 8, 96)) {
        let joint = (
            t.marginal(r0.schema()).unwrap(),
            t.marginal(s0.schema()).unwrap(),
        );
        for (r, s) in [(r0, s0), joint] {
            let seq = session(1).consistency_witness(&r, &s).unwrap();
            prop_assert_eq!(seq.is_some(), Session::default().bags_consistent(&r, &s).unwrap());
            if let Some(w) = &seq {
                let rebuilt = Bag::from_rows(w.schema().clone(), w.iter()).unwrap();
                prop_assert_eq!(rebuilt.store().values(), w.store().values());
                prop_assert_eq!(rebuilt.iter().collect::<Vec<_>>(), w.iter().collect::<Vec<_>>());
            }
            let seq_rows: Option<Vec<(&[Value], u64)>> = seq.as_ref().map(|w| w.iter().collect());
            for threads in THREADS {
                let par = session(threads).consistency_witness(&r, &s).unwrap();
                let par_rows: Option<Vec<(&[Value], u64)>> = par.as_ref().map(|w| w.iter().collect());
                prop_assert_eq!(&par_rows, &seq_rows, "threads = {}", threads);
            }
        }
    }
}

/// Adversarial shard boundaries the random strategies may miss.
mod adversarial {
    use super::*;

    fn schema(first: u32, len: u32) -> Schema {
        Schema::range(first, first + len)
    }

    /// One giant join group: every row shares the single join-key value,
    /// so no interior shard boundary is legal and the planner must
    /// collapse to one shard.
    #[test]
    fn single_giant_join_group() {
        let mut r = Bag::new(schema(0, 2));
        let mut s = Bag::new(schema(1, 2));
        for i in 0..300u64 {
            r.insert(vec![Value(i), Value(7)], i % 5 + 1).unwrap();
            s.insert(vec![Value(7), Value(i)], i % 3 + 1).unwrap();
        }
        r.seal();
        s.seal();
        let seq = bag_join_merge(&r, &s).unwrap();
        for threads in THREADS {
            let par = bag_join_merge_with(&r, &s, &cfg(threads)).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
        assert_eq!(seq.support_size(), 300 * 300);
    }

    /// Empty operands and empty shard plans.
    #[test]
    fn empty_inputs() {
        let empty_r = Bag::new(schema(0, 2));
        let mut s = Bag::new(schema(1, 2));
        for i in 0..64u64 {
            s.insert(vec![Value(i % 4), Value(i)], 1).unwrap();
        }
        s.seal();
        for threads in THREADS {
            let j = bag_join_merge_with(&empty_r, &s, &cfg(threads)).unwrap();
            assert!(j.is_empty(), "threads = {threads}");
            let m = empty_r.marginal_with(&schema(0, 1), &cfg(threads)).unwrap();
            assert!(m.is_empty());
            assert!(m.is_sealed());
        }
        // Non-empty sealed operands with disjoint join keys: the sharded
        // path produces an *empty* splice, which must come out sealed
        // exactly like the sequential empty output.
        let mut r2 = Bag::new(schema(0, 2));
        let mut s2 = Bag::new(schema(1, 2));
        for i in 0..64u64 {
            r2.insert(vec![Value(i), Value(i % 4)], 1).unwrap();
            s2.insert(vec![Value(100 + i % 4), Value(i)], 1).unwrap();
        }
        r2.seal();
        s2.seal();
        let seq = bag_join_merge(&r2, &s2).unwrap();
        assert!(seq.is_empty() && seq.is_sealed());
        for threads in THREADS {
            let par = bag_join_merge_with(&r2, &s2, &cfg(threads)).unwrap();
            assert!(par.is_empty(), "threads = {threads}");
            assert!(
                par.is_sealed(),
                "empty splice must seal, threads = {threads}"
            );
        }
    }

    /// Duplicate-heavy keys whose group sizes are wildly skewed: most
    /// tentative boundaries slide forward, some shards end up dropped.
    #[test]
    fn skewed_group_sizes() {
        let mut r = Bag::new(schema(0, 2));
        let mut s = Bag::new(schema(1, 2));
        for i in 0..400u64 {
            // 90% of rows share key 0; the rest are singletons
            let key = if i % 10 == 0 { i } else { 0 };
            r.insert(vec![Value(i), Value(key)], 1).unwrap();
            s.insert(vec![Value(key), Value(i)], 2).unwrap();
        }
        r.seal();
        s.seal();
        let seq = bag_join_merge(&r, &s).unwrap();
        let seq_marg = s.marginal(&schema(1, 1)).unwrap();
        for threads in THREADS {
            assert_eq!(bag_join_merge_with(&r, &s, &cfg(threads)).unwrap(), seq);
            assert_eq!(
                s.marginal_with(&schema(1, 1), &cfg(threads)).unwrap(),
                seq_marg
            );
        }
    }

    /// The work-stealing showcase, pinned for correctness: one giant key
    /// group plus many tiny ones, driven through the sharded hash probe
    /// (where the giant group is one enormous probe chain inside a few
    /// chunks) and the seal (one sort on the calling thread, whatever
    /// the thread count). Outputs must be bit-identical to
    /// sequential at every thread count — whichever worker stole which
    /// chunk.
    #[test]
    fn giant_group_skew_hash_probe_and_seal() {
        let mut probe = Bag::new(schema(0, 2));
        let mut build = Bag::new(schema(1, 2));
        for i in (0..900u64).rev() {
            // two thirds of the probe rows hit key 0 (the giant group);
            // the rest spread over 60 tiny keys
            let key = if i % 3 != 0 { 0 } else { i % 60 };
            probe.insert(vec![Value(i), Value(key)], i % 4 + 1).unwrap();
        }
        for k in 0..60u64 {
            build
                .insert(vec![Value(k), Value(k + 1000)], k % 3 + 1)
                .unwrap();
        }
        // probe stays unsealed on purpose: the hash path must not care
        let seq_join = bag_join_hash(&probe, &build).unwrap();
        let mut seq_sealed = probe.clone();
        seq_sealed.seal();
        for threads in THREADS {
            let par_join = bag_join_hash_with(&probe, &build, &cfg(threads)).unwrap();
            assert_eq!(par_join, seq_join, "hash probe, threads = {threads}");
            let par_rows: Vec<&[Value]> = par_join.iter().map(|(row, _)| row).collect();
            let seq_rows: Vec<&[Value]> = seq_join.iter().map(|(row, _)| row).collect();
            assert_eq!(par_rows, seq_rows, "emission order, threads = {threads}");

            let mut par_sealed = probe.clone();
            par_sealed.try_seal_with(&cfg(threads)).unwrap();
            assert!(par_sealed.is_sealed());
            let seq_layout: Vec<(&[Value], u64)> = seq_sealed.iter().collect();
            let par_layout: Vec<(&[Value], u64)> = par_sealed.iter().collect();
            assert_eq!(par_layout, seq_layout, "seal layout, threads = {threads}");
        }
    }

    /// Overflow is detected identically on every shard layout.
    #[test]
    fn overflow_detected_in_parallel() {
        let mut r = Bag::new(schema(0, 2));
        let mut s = Bag::new(schema(1, 2));
        for i in 0..100u64 {
            r.insert(vec![Value(i), Value(i % 3)], u64::MAX).unwrap();
            s.insert(vec![Value(i % 3), Value(i)], 2).unwrap();
        }
        r.seal();
        s.seal();
        for threads in THREADS {
            assert_eq!(
                bag_join_merge_with(&r, &s, &cfg(threads)),
                Err(bagcons_core::CoreError::MultiplicityOverflow),
                "threads = {threads}"
            );
        }
        // marginal overflow through the parallel prefix sweep
        let mut c = Bag::new(schema(0, 2));
        for i in 0..100u64 {
            c.insert(vec![Value(i / 2), Value(i % 2)], u64::MAX / 2 + 1)
                .unwrap();
        }
        c.seal();
        for threads in THREADS {
            assert_eq!(
                c.marginal_with(&schema(0, 1), &cfg(threads)),
                Err(bagcons_core::CoreError::MultiplicityOverflow),
                "threads = {threads}"
            );
        }
    }
}

// ---- delta streams (the incremental layer) -------------------------
//
// The incremental path (`Session::open_stream` + `update`) must be
// observationally identical to a full rebuild after EVERY edit of a
// `gen::perturb`-style stream, at every thread count — the bag state
// bit-identical across configurations (the incremental reseal splices
// shard runs), and the decision/inconsistent-pair reporting identical
// to `Session::check` on equal bags.

/// One stream-vs-rebuild harness step: drives incremental streams at
/// threads 1/2/4 through `edits` many random edits and full-checks
/// after each.
fn run_delta_stream(seed: u64, edits: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (bags, _) = planted_family(&path(4), 3, 24, 5, &mut rng).unwrap();
    let checker = Session::builder().threads(1).build().unwrap();
    let sessions: Vec<Session> = [1usize, 2, 4]
        .iter()
        .map(|&t| Session::builder().exec(cfg(t)).build().unwrap())
        .collect();
    let mut streams: Vec<_> = sessions
        .iter()
        .map(|s| s.open_stream(bags.clone()).unwrap())
        .collect();
    let mut reference = bags;
    assert_eq!(streams[0].decision(), Decision::Consistent);

    // Pinned flip: one bump makes the planted family inconsistent, the
    // revert restores it — through in-place (support-preserving) deltas.
    let flip_row: Vec<bagcons_core::Value> = reference[0].sorted_rows()[0].0.to_vec();
    let mut plus = DeltaSet::new(reference[0].schema().clone());
    plus.bump(&flip_row, 1).unwrap();
    reference[0].insert(flip_row.clone(), 1).unwrap();
    for stream in &mut streams {
        let out = stream.update(0, &plus).unwrap();
        assert_eq!(out.decision, Decision::Inconsistent, "bump must break");
        assert!(!out.applied.support_changed());
    }
    let mut minus = DeltaSet::new(reference[0].schema().clone());
    minus.bump(&flip_row, -1).unwrap();
    let m = reference[0].multiplicity(&flip_row);
    reference[0].set(flip_row.clone(), m - 1).unwrap();
    for stream in &mut streams {
        let out = stream.update(0, &minus).unwrap();
        assert_eq!(out.decision, Decision::Consistent, "revert must restore");
    }

    for step in 0..edits {
        // Choose an edit: mostly gen::perturb bumps (in-place), with
        // reverts (which may drop a row to zero — the reseal path) and
        // fresh-row insertions (reseal + pair rebuild) mixed in.
        let kind = rng.gen_range(0..10u64);
        let (bag_idx, row, delta) = if kind < 6 {
            let Some(i) = bump_one_tuple(&mut reference, &mut rng).unwrap() else {
                continue;
            };
            // bump_one_tuple bumped exactly one row by +1: recover it by
            // diffing against the (not yet updated) incremental state.
            let row: Vec<bagcons_core::Value> = reference[i]
                .iter()
                .find(|(row, m)| streams[0].bags()[i].multiplicity(row) != *m)
                .expect("one row changed")
                .0
                .to_vec();
            (i, row, 1i64)
        } else if kind < 9 {
            // revert: -1 on a random support row (may remove it)
            let i = rng.gen_range(0..reference.len());
            if reference[i].is_empty() {
                continue;
            }
            let (row, m) = {
                let rows = reference[i].sorted_rows();
                let (row, m) = rows[rng.gen_range(0..rows.len())];
                (row.to_vec(), m)
            };
            reference[i].set(row.clone(), m - 1).unwrap();
            (i, row, -1i64)
        } else {
            // fresh row, never seen by the planted witness (values are
            // < domain = 3; 100+step is fresh by construction)
            let i = rng.gen_range(0..reference.len());
            let arity = reference[i].schema().arity();
            let row: Vec<bagcons_core::Value> = (0..arity)
                .map(|c| bagcons_core::Value::new(100 + step as u64 + c as u64))
                .collect();
            reference[i].insert(row.clone(), 2).unwrap();
            (i, row, 2i64)
        };
        let mut d = DeltaSet::new(reference[bag_idx].schema().clone());
        d.bump(&row, delta).unwrap();
        for stream in &mut streams {
            stream.update(bag_idx, &d).unwrap();
        }

        // Full rebuild on the reference bags after every step.
        let refs: Vec<&Bag> = reference.iter().collect();
        let full = checker.check(&refs).unwrap();
        for (t, stream) in [1usize, 2, 4].iter().zip(&streams) {
            assert_eq!(
                stream.decision(),
                full.decision,
                "step {}: decision diverged at threads {}",
                step,
                t
            );
            assert_eq!(
                stream.inconsistent_pair(),
                full.inconsistent_pair,
                "step {}: pair reporting diverged at threads {}",
                step,
                t
            );
        }
        // Bag state bit-identical across thread counts (layout, not
        // just multiset equality), and equal to the reference as bags.
        for (b, reference_bag) in reference.iter().enumerate() {
            let base: Vec<(&[Value], u64)> = streams[0].bags()[b].iter().collect();
            for (t, stream) in [2usize, 4].iter().zip(&streams[1..]) {
                assert!(stream.bags()[b].is_sealed());
                let got: Vec<(&[Value], u64)> = stream.bags()[b].iter().collect();
                assert_eq!(
                    &got, &base,
                    "step {}: bag {} layout, threads {}",
                    step, b, t
                );
            }
            assert_eq!(
                &*streams[0].bags()[b],
                reference_bag,
                "step {}: bag {}",
                step,
                b
            );
        }
    }
}

/// A `gen::perturb`-style edit script over `bags`: mostly
/// `bump_one_tuple` bumps (in place), with `-1` reverts (which may drop
/// a row: the reseal path) and fresh rows mixed in. Every edit is legal
/// after the ones before it.
fn perturb_script(bags: &[Bag], edits: usize, rng: &mut StdRng) -> Vec<(usize, DeltaSet)> {
    let mut reference = bags.to_vec();
    let mut script = Vec::with_capacity(edits);
    for step in 0..edits {
        let kind = rng.gen_range(0..10u64);
        let (i, row, delta) = if kind < 6 {
            let before = reference.clone();
            let Some(i) = bump_one_tuple(&mut reference, rng).unwrap() else {
                continue;
            };
            let row: Vec<Value> = reference[i]
                .iter()
                .find(|(row, m)| before[i].multiplicity(row) != *m)
                .expect("one row changed")
                .0
                .to_vec();
            (i, row, 1i64)
        } else if kind < 9 {
            let i = rng.gen_range(0..reference.len());
            if reference[i].is_empty() {
                continue;
            }
            let (row, m) = {
                let rows = reference[i].sorted_rows();
                let (row, m) = rows[rng.gen_range(0..rows.len())];
                (row.to_vec(), m)
            };
            reference[i].set(row.clone(), m - 1).unwrap();
            (i, row, -1i64)
        } else {
            let i = rng.gen_range(0..reference.len());
            let row: Vec<Value> = (0..reference[i].schema().arity())
                .map(|c| Value::new(100 + step as u64 + c as u64))
                .collect();
            reference[i].insert(row.clone(), 2).unwrap();
            (i, row, 2i64)
        };
        let mut d = DeltaSet::new(reference[i].schema().clone());
        d.bump(&row, delta).unwrap();
        script.push((i, d));
    }
    script
}

/// An update outcome without its stage timings.
fn outcome_sans_timings(mut out: bagcons::stream::UpdateOutcome) -> String {
    out.stages.clear();
    format!("{out:?}")
}

/// Forks a stream after the first `k` edits of a perturb script, at
/// threads 1/2/4. On the remaining edits the fork answers exactly as a
/// stream freshly opened over the same bags. The fork's edits leave the
/// source as it was: its bags are the same allocations with the same
/// rows, its decision and reported pair are unchanged, and, replaying
/// the remaining edits itself, it answers as the fresh stream did (pair
/// states a fork had written through would answer differently).
fn run_forked_stream(seed: u64, edits: usize, k: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (bags, _) = planted_family(&path(4), 3, 24, 5, &mut rng).unwrap();
    let script = perturb_script(&bags, edits, &mut rng);
    let k = k.min(script.len());
    for threads in [1usize, 2, 4] {
        let session = Session::builder().exec(cfg(threads)).build().unwrap();
        let mut source = session.open_stream(bags.clone()).unwrap();
        for (i, d) in &script[..k] {
            source.update(*i, d).unwrap();
        }
        let pinned = source.share_bags();
        let copies: Vec<Bag> = pinned.iter().map(|b| (**b).clone()).collect();
        let (decision, pair) = (source.decision(), source.inconsistent_pair());

        let mut fork = source.clone();
        let mut fresh = session.open_stream_shared(pinned.clone()).unwrap();
        assert_eq!(fork.decision(), fresh.decision(), "threads {threads}");
        for (step, (i, d)) in script[k..].iter().enumerate() {
            let (a, b) = (fork.update(*i, d).unwrap(), fresh.update(*i, d).unwrap());
            assert_eq!(
                outcome_sans_timings(a),
                outcome_sans_timings(b),
                "threads {threads}, fork after {k}, step {step}"
            );
        }

        for (b, (bag, copy)) in source.bags().iter().zip(&copies).enumerate() {
            assert!(Arc::ptr_eq(bag, &pinned[b]), "threads {threads}, bag {b}");
            assert_eq!(**bag, *copy, "threads {threads}, bag {b}");
        }
        assert_eq!(source.decision(), decision, "threads {threads}");
        assert_eq!(source.inconsistent_pair(), pair, "threads {threads}");
        let mut replay = session.open_stream_shared(pinned).unwrap();
        for (step, (i, d)) in script[k..].iter().enumerate() {
            let (a, b) = (source.update(*i, d).unwrap(), replay.update(*i, d).unwrap());
            assert_eq!(
                outcome_sans_timings(a),
                outcome_sans_timings(b),
                "threads {threads}, source after {k}, step {step}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A 100-edit `gen::perturb` stream through the incremental path at
    /// threads 1/2/4 is bit-identical to full rebuilds after every step
    /// (the PR 5 acceptance pin).
    #[test]
    fn delta_stream_matches_full_rebuild_100_edits(seed in 0u64..1 << 32) {
        run_delta_stream(seed, 100);
    }

    /// A fork of a stream after `k` edits of a 60-edit perturb script
    /// answers the rest as a fresh stream over the same bags, at threads
    /// 1/2/4, and leaves the source unchanged.
    #[test]
    fn forked_stream_matches_a_fresh_open(seed in 0u64..1 << 32, k in 0usize..=60) {
        run_forked_stream(seed, 60, k);
    }
}
