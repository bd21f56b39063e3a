//! Property tests: the hot-loop layer (packed key codes, galloping
//! merges) is a pure re-encoding.
//!
//! Each optimisation must be observationally invisible: the packed,
//! galloping merge join reproduces the slice-compare baseline at every
//! thread count (in storage order on wide, skewed keys), a delta's
//! successor merge lands on the same bag a from-scratch build does (in
//! every width tier, and a failed batch leaves its source bags as they
//! were), and a `Session` reused
//! across a hundred checks reports exactly what a fresh `Session`
//! reports. The hash-free witness path is pinned the same way: the
//! packed key sort of `merge_matching_pairs` against a nested-loop
//! reference, `Bag::from_arena` against a `BTreeMap`, and the lazily
//! indexed output of every bulk operator against an insert-built bag.

use bag_consistency::prelude::*;
use bagcons_core::join::{
    bag_join_hash_with, bag_join_merge_baseline_with, bag_join_merge_with, merge_matching_pairs,
    relation_join_hash, relation_join_merge, try_merge_matching_pairs_sharded,
};
use bagcons_core::DeltaSet;
use proptest::prelude::*;
use std::sync::Arc;

/// Thread counts under test (the packed/gallop paths shard above 1).
const THREADS: [usize; 3] = [1, 2, 4];

/// A config that shards everything it legally can.
fn cfg(threads: usize) -> ExecConfig {
    ExecConfig::builder()
        .threads(threads)
        .min_parallel_support(1)
        .build()
        .unwrap()
}

/// Strategy: a random bag over `{A_first..A_first+arity}`.
fn arb_bag(first: u32, arity: u32, domain: u64, max_support: usize) -> impl Strategy<Value = Bag> {
    let schema = Schema::range(first, first + arity);
    proptest::collection::vec(
        (
            proptest::collection::vec(0..domain, arity as usize),
            1..=8u64,
        ),
        0..=max_support,
    )
    .prop_map(move |rows| {
        let mut bag = Bag::new(schema.clone());
        for (row, m) in rows {
            let vals: Vec<Value> = row.into_iter().map(Value::new).collect();
            bag.insert(vals, m).unwrap();
        }
        bag
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The packed + galloping merge join is bit-identical to the
    /// slice-compare, linear-advance baseline at threads 1/2/4 — on a
    /// 3-attribute join key, where the packed word covers a real prefix.
    #[test]
    fn packed_merge_join_matches_slice_baseline_wide_key(
        r in arb_bag(0, 4, 3, 24),
        s in arb_bag(1, 4, 3, 24),
    ) {
        let baseline = bag_join_merge_baseline_with(&r, &s, &ExecConfig::sequential()).unwrap();
        let mut rs = r.clone();
        let mut ss = s.clone();
        rs.seal();
        ss.seal();
        for threads in THREADS {
            let hot = bag_join_merge_with(&r, &s, &cfg(threads)).unwrap();
            prop_assert_eq!(hot.sorted_rows(), baseline.sorted_rows());
            // Sealed operands with a prefix key skip their sort.
            let hot_sealed = bag_join_merge_with(&rs, &ss, &cfg(threads)).unwrap();
            prop_assert_eq!(hot_sealed.sorted_rows(), baseline.sorted_rows());
        }
    }

    /// Same contract on the 2-attribute overlap the rest of the suite
    /// uses (single shared key column, heavy duplicate groups).
    #[test]
    fn packed_merge_join_matches_slice_baseline_narrow_key(
        r in arb_bag(0, 2, 3, 20),
        s in arb_bag(1, 2, 3, 20),
    ) {
        let baseline = bag_join_merge_baseline_with(&r, &s, &ExecConfig::sequential()).unwrap();
        for threads in THREADS {
            let hot = bag_join_merge_with(&r, &s, &cfg(threads)).unwrap();
            prop_assert_eq!(hot.sorted_rows(), baseline.sorted_rows());
        }
    }

    /// Delta repair on a sealed bag (binary search for the touched rows,
    /// one successor merge) lands on exactly the bag a from-scratch
    /// rebuild produces — at threads 1/2/4.
    #[test]
    fn delta_repair_matches_from_scratch_rebuild(
        base in arb_bag(0, 2, 5, 30),
        bumps in proptest::collection::vec(
            (proptest::collection::vec(0..5u64, 2), 1..=4u64), 0..12),
        drops in proptest::collection::vec(0..30usize, 0..6),
    ) {
        let mut sealed = base.clone();
        sealed.seal();
        let mut delta = DeltaSet::new(base.schema().clone());
        // Fresh or growing rows...
        for (row, d) in &bumps {
            delta.bump_u64s(row, *d as i64).unwrap();
        }
        // ...plus full removals of existing rows (never below zero).
        let rows: Vec<(Vec<Value>, u64)> = sealed
            .sorted_rows()
            .iter()
            .map(|(r, m)| (r.to_vec(), *m))
            .collect();
        let mut dropped = std::collections::BTreeSet::new();
        for &i in &drops {
            if i < rows.len() && dropped.insert(i) {
                let key: Vec<u64> = rows[i].0.iter().map(|v| v.get()).collect();
                delta.bump_u64s(&key, -(rows[i].1 as i64)).unwrap();
            }
        }
        // Model: replay base + delta into a fresh bag.
        let mut expected = Bag::new(base.schema().clone());
        for (i, (row, m)) in rows.iter().enumerate() {
            if !dropped.contains(&i) {
                expected.insert(row.clone(), *m).unwrap();
            }
        }
        for (row, d) in &bumps {
            let vals: Vec<Value> = row.iter().copied().map(Value::new).collect();
            expected.insert(vals, *d).unwrap();
        }
        for threads in THREADS {
            let mut repaired = sealed.clone();
            repaired.apply_delta_with(&delta, &cfg(threads)).unwrap();
            prop_assert!(repaired.is_sealed());
            prop_assert_eq!(&repaired, &expected);
            prop_assert_eq!(repaired.sorted_rows(), expected.sorted_rows());
        }
    }
}

/// Every `(i, j)` whose keys agree, ordered by key, then `i`, then `j` —
/// the nested-loop reference for [`merge_matching_pairs`].
fn nested_loop_pairs(
    left: &[(&[Value], u64)],
    left_key: &[usize],
    right: &[(&[Value], u64)],
    right_key: &[usize],
) -> Vec<(usize, usize)> {
    let key =
        |row: &[Value], cols: &[usize]| -> Vec<Value> { cols.iter().map(|&c| row[c]).collect() };
    let mut pairs = Vec::new();
    for (i, (l, _)) in left.iter().enumerate() {
        for (j, (r, _)) in right.iter().enumerate() {
            if key(l, left_key) == key(r, right_key) {
                pairs.push((key(l, left_key), i, j));
            }
        }
    }
    pairs.sort();
    pairs.into_iter().map(|(_, i, j)| (i, j)).collect()
}

/// Strategy: unsorted rows of width 3 (values in `0..4`, duplicates
/// allowed) with multiplicities.
fn arb_rows(max_rows: usize) -> impl Strategy<Value = Vec<(Vec<u64>, u64)>> {
    proptest::collection::vec(
        (proptest::collection::vec(0..4u64, 3), 1..=3u64),
        0..=max_rows,
    )
}

/// Rows in `(values, multiplicity)` form with the columns in `wide`
/// moved next to `u64::MAX`, where two of them no longer pack into 64
/// bits.
fn widen(rows: &[(Vec<u64>, u64)], wide: &[usize]) -> Vec<(Vec<Value>, u64)> {
    rows.iter()
        .map(|(row, m)| {
            let vals = row
                .iter()
                .enumerate()
                .map(|(c, &v)| Value::new(if wide.contains(&c) { u64::MAX - v } else { v }))
                .collect();
            (vals, *m)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The packed key sort and the slice fallback both emit exactly the
    /// nested-loop pair sequence, sequentially and concatenated over
    /// shards. Key width 1 or 2; `mode` 0 keeps keys small (packs),
    /// 1 widens the first key column (packs at 64 bits when it is the
    /// only one), 2 widens every key column (two columns need 128 bits,
    /// so the slice fallback runs).
    #[test]
    fn merge_matching_pairs_matches_nested_loop_reference(
        k in 1..=2usize,
        mode in 0..3u8,
        l in arb_rows(24),
        r in arb_rows(24),
    ) {
        let (left_key, right_key) = (&[2usize, 0][..k], &[1usize, 2][..k]);
        let (l_wide, r_wide): (&[usize], &[usize]) = match mode {
            0 => (&[], &[]),
            1 => (&left_key[..1], &right_key[..1]),
            _ => (left_key, right_key),
        };
        let (l_rows, r_rows) = (widen(&l, l_wide), widen(&r, r_wide));
        let left: Vec<(&[Value], u64)> = l_rows.iter().map(|(v, m)| (&v[..], *m)).collect();
        let right: Vec<(&[Value], u64)> = r_rows.iter().map(|(v, m)| (&v[..], *m)).collect();
        let expected = nested_loop_pairs(&left, left_key, &right, right_key);
        let mut seq = Vec::new();
        merge_matching_pairs(&left, left_key, &right, right_key, |i, j| seq.push((i, j)));
        prop_assert_eq!(&seq, &expected);
        for threads in THREADS {
            let shards = try_merge_matching_pairs_sharded(
                &left, left_key, &right, right_key, &cfg(threads),
                |sweep| {
                    let mut pairs = Vec::new();
                    sweep.for_each(|i, j| pairs.push((i, j)));
                    pairs
                },
            )
            .unwrap();
            let flat: Vec<(usize, usize)> = shards.into_iter().flatten().collect();
            prop_assert_eq!(&flat, &expected);
        }
    }

    /// The merge join on skewed sides and wide keys: one side is at
    /// least 8x longer than the other (the gallop ratio), and in the wide
    /// case both join-key columns sit next to `u64::MAX`, so the joint
    /// key needs 128 bits and the slice compares run. The folded merge
    /// join lays out the slice baseline's rows and multiplicities in the
    /// same storage order at threads 1/2/4, the relational merge join
    /// equals the hash join, and `merge_matching_pairs` on the same rows
    /// emits the nested-loop pair sequence.
    #[test]
    fn folded_merge_join_matches_baseline_on_wide_skewed_keys(
        long in proptest::collection::vec(
            (proptest::collection::vec(0..4u64, 3), 1..=3u64), 48..=96),
        short in proptest::collection::vec(
            (proptest::collection::vec(0..4u64, 3), 1..=3u64), 1..=6),
        long_left in 0..2u8,
        wide in 0..2u8,
    ) {
        // The long side's payload column is its row index, so its rows
        // stay distinct and its support stays 8x the short side's.
        let distinct = |payload: usize| -> Vec<(Vec<u64>, u64)> {
            long.iter()
                .enumerate()
                .map(|(i, (row, m))| {
                    let mut row = row.clone();
                    row[payload] = i as u64;
                    (row, *m)
                })
                .collect()
        };
        let (l, r) = match long_left {
            0 => (short.clone(), distinct(2)),
            _ => (distinct(0), short.clone()),
        };
        // R(A0,A1,A2) joins S(A1,A2,A3) on {A1,A2}.
        let (left_key, right_key) = (&[1usize, 2][..], &[0usize, 1][..]);
        let (l_wide, r_wide) = match wide {
            0 => (&[][..], &[][..]),
            _ => (left_key, right_key),
        };
        let (l_rows, r_rows) = (widen(&l, l_wide), widen(&r, r_wide));
        let rb = Bag::from_rows(Schema::range(0, 3), l_rows.iter().map(|(v, m)| (v, *m))).unwrap();
        let sb = Bag::from_rows(Schema::range(1, 4), r_rows.iter().map(|(v, m)| (v, *m))).unwrap();
        let storage = |b: &Bag| {
            (b.store().values().to_vec(), b.live_ids().map(|i| b.mult_of(i)).collect::<Vec<_>>())
        };
        let baseline = bag_join_merge_baseline_with(&rb, &sb, &ExecConfig::sequential()).unwrap();
        for threads in THREADS {
            let hot = bag_join_merge_with(&rb, &sb, &cfg(threads)).unwrap();
            prop_assert_eq!(storage(&hot), storage(&baseline), "threads = {}", threads);
            let base = bag_join_merge_baseline_with(&rb, &sb, &cfg(threads)).unwrap();
            prop_assert_eq!(storage(&base), storage(&baseline), "threads = {}", threads);
        }
        prop_assert_eq!(
            relation_join_merge(&rb.support(), &sb.support()),
            relation_join_hash(&rb.support(), &sb.support())
        );
        let left: Vec<(&[Value], u64)> = l_rows.iter().map(|(v, m)| (&v[..], *m)).collect();
        let right: Vec<(&[Value], u64)> = r_rows.iter().map(|(v, m)| (&v[..], *m)).collect();
        let mut pairs = Vec::new();
        merge_matching_pairs(&left, left_key, &right, right_key, |i, j| pairs.push((i, j)));
        prop_assert_eq!(pairs, nested_loop_pairs(&left, left_key, &right, right_key));
    }

    /// `Bag::from_arena` sums duplicate rows, drops rows whose copies sum
    /// to zero, matches a `BTreeMap` reference and an insert-built bag,
    /// and lays the arena out bit-identically at every thread count.
    /// Presorted arenas take the adopt path when they ascend strictly
    /// with no zero multiplicity and the sort path otherwise; each gives
    /// the reference bit for bit. The same rows, spread so that they
    /// pack into 4, 22 or 30 bits (tiled, these sort by radix once they
    /// pass the kernel's floor for one, two or three passes), exactly
    /// 63 or 64 bits, or past 64 (the slice compare), give the reference
    /// with every multiplicity times the tile count, and two copies of a
    /// row whose sum passes `u64` still overflow on every tier.
    #[test]
    fn from_arena_matches_btreemap_reference(
        rows in proptest::collection::vec(
            (proptest::collection::vec(0..4u64, 2), 0..=3u64),
            0..=64,
        ),
        tile in 1..=24u64,
    ) {
        let schema = Schema::range(0, 2);
        let mut reference: std::collections::BTreeMap<Vec<u64>, u64> = Default::default();
        let mut inserted = Bag::new(schema.clone());
        for (row, m) in &rows {
            *reference.entry(row.clone()).or_default() += m;
            let vals: Vec<Value> = row.iter().copied().map(Value::new).collect();
            inserted.insert(vals, *m).unwrap();
        }
        reference.retain(|_, m| *m > 0);
        let data: Vec<Value> = rows.iter().flat_map(|(row, _)| row.iter().copied().map(Value::new)).collect();
        let mults: Vec<u64> = rows.iter().map(|(_, m)| *m).collect();
        let one = Bag::from_arena(schema.clone(), data.clone(), mults.clone(), &cfg(1)).unwrap();
        prop_assert!(one.is_sealed());
        let got: Vec<(Vec<u64>, u64)> = one
            .iter_sorted()
            .map(|(row, m)| (row.iter().map(|v| v.get()).collect(), m))
            .collect();
        let want: Vec<(Vec<u64>, u64)> = reference.into_iter().collect();
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&one, &inserted);
        for threads in THREADS {
            let t = Bag::from_arena(schema.clone(), data.clone(), mults.clone(), &cfg(threads)).unwrap();
            prop_assert_eq!(t.store().values(), one.store().values());
            prop_assert_eq!(t.live_ids().map(|i| t.mult_of(i)).collect::<Vec<_>>(),
                one.live_ids().map(|i| one.mult_of(i)).collect::<Vec<_>>());
        }
        // The reference's own ascending rows; the same with a last row of
        // multiplicity zero; the same with one row's multiplicity split
        // over two adjacent copies.
        let ascending: Vec<(Vec<u64>, u64)> = want.clone();
        let mut zeroed = ascending.clone();
        zeroed.push((vec![9, 9], 0));
        let mut repeated = ascending.clone();
        if let Some(p) = repeated.iter().position(|(_, m)| *m > 1) {
            let half = repeated[p].1 / 2;
            repeated[p].1 -= half;
            repeated.insert(p + 1, (repeated[p].0.clone(), half));
        }
        let storage = |b: &Bag| {
            (b.store().values().to_vec(), b.live_ids().map(|i| b.mult_of(i)).collect::<Vec<_>>())
        };
        for arena in [ascending, zeroed, repeated] {
            let data: Vec<Value> = arena.iter().flat_map(|(row, _)| row.iter().copied().map(Value::new)).collect();
            let mults: Vec<u64> = arena.iter().map(|(_, m)| *m).collect();
            for threads in THREADS {
                let t = Bag::from_arena(schema.clone(), data.clone(), mults.clone(), &cfg(threads)).unwrap();
                prop_assert!(t.is_sealed());
                let got: Vec<(Vec<u64>, u64)> = t
                    .iter_sorted()
                    .map(|(row, m)| (row.iter().map(|v| v.get()).collect(), m))
                    .collect();
                prop_assert_eq!(&got, &want, "arena {:?}", arena);
                prop_assert_eq!(storage(&t), storage(&one), "arena {:?}", arena);
            }
        }
        // Column shifts for packed widths of 4, 22, 30, 63, 64 and 96
        // bits. A last row of multiplicity zero holds every column's top
        // value, so the widths are exact whatever the drawn rows hold.
        for (s0, s1) in [(0u32, 0u32), (9, 9), (13, 13), (30, 29), (30, 30), (62, 30)] {
            let spread = |row: &[u64]| [Value::new(row[0] << s0), Value::new(row[1] << s1)];
            let (mut data, mut mults) = (Vec::new(), Vec::new());
            for _ in 0..tile {
                for (row, m) in &rows {
                    data.extend(spread(row));
                    mults.push(*m);
                }
            }
            data.extend(spread(&[3, 3]));
            mults.push(0);
            let want: Vec<(Vec<u64>, u64)> = want
                .iter()
                .map(|(row, m)| (vec![row[0] << s0, row[1] << s1], m * tile))
                .collect();
            for threads in THREADS {
                let t = Bag::from_arena(schema.clone(), data.clone(), mults.clone(), &cfg(threads)).unwrap();
                prop_assert!(t.is_sealed());
                let got: Vec<(Vec<u64>, u64)> = t
                    .iter_sorted()
                    .map(|(row, m)| (row.iter().map(|v| v.get()).collect(), m))
                    .collect();
                prop_assert_eq!(&got, &want, "shifts {} {}, tile {}", s0, s1, tile);
                let mut over = (data.clone(), mults.clone());
                for _ in 0..2 {
                    over.0.extend(spread(&[1, 2]));
                    over.1.push(1 << 63);
                }
                prop_assert_eq!(
                    Bag::from_arena(schema.clone(), over.0, over.1, &cfg(threads)),
                    Err(CoreError::MultiplicityOverflow),
                    "shifts {} {}, tile {}", s0, s1, tile
                );
            }
        }
    }

    /// Every sealed run comes out of one row sort. `Bag::from_arena` of
    /// an arena with repeated rows and zero counts, `Bag::seal` of a bag
    /// whose rows went in out of order (the greatest first) and
    /// `Relation::seal` of its support all equal a `sort_unstable`
    /// oracle, bit for bit, with the rows spread so that they pack into
    /// 9 or 64 bits (radix words), 65 or 128 bits, or 192 bits (both the
    /// slice compare). A row of every column's top value is always in,
    /// so the widths are exact; up to 400 rows over 512 distinct ones
    /// take the seal past the radix kernel's floor.
    #[test]
    fn every_seal_matches_a_sort_unstable_oracle_in_every_width_tier(
        rows in proptest::collection::vec(
            (proptest::collection::vec(0..8u64, 3), 0..=3u64),
            0..=400,
        ),
    ) {
        let schema = Schema::range(0, 3);
        for shifts in [[0u32, 0, 0], [55, 0, 0], [56, 0, 0], [61, 58, 0], [61, 61, 61]] {
            let spread = |row: &[u64]| -> Vec<u64> {
                row.iter().zip(shifts).map(|(&v, s)| v << s).collect()
            };
            let mut all: Vec<(Vec<u64>, u64)> = vec![(spread(&[7, 7, 7]), 1)];
            all.extend(rows.iter().map(|(row, m)| (spread(row), *m)));
            let mut sorted = all.clone();
            sorted.sort_unstable();
            let mut want: Vec<(Vec<u64>, u64)> = Vec::new();
            for (row, m) in sorted {
                match want.last_mut() {
                    Some((last, sum)) if *last == row => *sum += m,
                    _ => want.push((row, m)),
                }
            }
            want.retain(|(_, m)| *m > 0);
            let bag_rows = |b: &Bag| -> Vec<(Vec<u64>, u64)> {
                b.iter().map(|(row, m)| (row.iter().map(|v| v.get()).collect(), m)).collect()
            };
            let vals = |row: &[u64]| -> Vec<Value> { row.iter().copied().map(Value::new).collect() };

            let data: Vec<Value> = all.iter().flat_map(|(row, _)| vals(row)).collect();
            let mults: Vec<u64> = all.iter().map(|(_, m)| *m).collect();
            let bulk = Bag::from_arena(schema.clone(), data, mults, &cfg(1)).unwrap();
            prop_assert!(bulk.is_sealed());
            prop_assert_eq!(bag_rows(&bulk), want.clone(), "from_arena, shifts {:?}", shifts);

            let mut bag = Bag::new(schema.clone());
            for (row, m) in &all {
                bag.insert(vals(row), *m).unwrap();
            }
            prop_assert_eq!(bag.is_sealed(), want.len() < 2);
            let mut rel = Relation::new(schema.clone());
            for (row, _) in bag.iter() {
                rel.insert_row(row).unwrap();
            }
            bag.seal();
            prop_assert!(bag.is_sealed());
            prop_assert_eq!(bag_rows(&bag), want.clone(), "Bag::seal, shifts {:?}", shifts);
            prop_assert_eq!(bag.store().values(), bulk.store().values());
            rel.seal();
            prop_assert!(rel.is_sealed());
            prop_assert_eq!(rel.store().values(), bulk.store().values(), "Relation::seal, shifts {:?}", shifts);
        }
    }

    /// A bag whose dedup index is still unbuilt answers point probes and
    /// mutations exactly as a bag built by inserts does. The lazy bags
    /// come from every bulk operator that adopts its output unindexed —
    /// the seal and `from_arena`, merge and hash joins at threads 1/2/4,
    /// prefix marginals, a support and a prefix projection turned into
    /// bags — plus a bag the delta reseal produced.
    #[test]
    fn lazily_indexed_bag_matches_insert_built_bag(
        rows in arb_rows(32),
        partner in arb_rows(32),
        edits in proptest::collection::vec(
            (proptest::collection::vec(0..5u64, 4), 0..=3u64, 0..3u8),
            0..=12,
        ),
    ) {
        let bag = Bag::from_u64s(Schema::range(0, 3), rows.iter().map(|(r, m)| (&r[..], *m))).unwrap();
        let right = Bag::from_u64s(Schema::range(1, 4), partner.iter().map(|(r, m)| (&r[..], *m))).unwrap();
        let mut lazies = vec![bag.clone()];
        for threads in THREADS {
            lazies.push(bag_join_merge_with(&bag, &right, &cfg(threads)).unwrap());
            lazies.push(bag_join_hash_with(&bag, &right, &cfg(threads)).unwrap());
            lazies.push(bag.marginal_with(&Schema::range(0, 2), &cfg(threads)).unwrap());
        }
        lazies.push(bag.marginal(&Schema::range(0, 1)).unwrap());
        lazies.push(bag.support().to_bag());
        lazies.push(bag.support().project(&Schema::range(0, 2)).unwrap().to_bag());
        let mut resealed = bag.clone();
        let mut fresh = DeltaSet::new(bag.schema().clone());
        // The second row sorts before the first, so its append breaks
        // the sorted run and the delta reseals.
        fresh.bump_u64s(&[4, 4, 4], 2).unwrap();
        fresh.bump_u64s(&[0, 4, 4], 1).unwrap();
        prop_assert!(resealed.apply_delta(&fresh).unwrap().resealed);
        lazies.push(resealed);
        for mut lazy in lazies {
            let schema = lazy.schema().clone();
            let mut eager = Bag::new(schema.clone());
            for (row, m) in lazy.iter() {
                eager.insert(row, m).unwrap();
            }
            for (row, m, op) in &edits {
                let row = &row[..schema.arity()];
                let vals: Vec<Value> = row.iter().copied().map(Value::new).collect();
                prop_assert_eq!(lazy.multiplicity(&vals), eager.multiplicity(&vals));
                match op {
                    0 => {
                        lazy.set(&vals, *m).unwrap();
                        eager.set(&vals, *m).unwrap();
                    }
                    1 => {
                        lazy.insert(&vals, *m).unwrap();
                        eager.insert(&vals, *m).unwrap();
                    }
                    _ => {
                        let mut delta = DeltaSet::new(schema.clone());
                        let cur = lazy.multiplicity(&vals) as i64;
                        delta.bump_u64s(row, *m as i64 - cur).unwrap();
                        let a = lazy.apply_delta(&delta).map(|d| d.support_changed());
                        let b = eager.apply_delta(&delta).map(|d| d.support_changed());
                        prop_assert_eq!(a, b);
                    }
                }
                prop_assert_eq!(&lazy, &eager);
                prop_assert_eq!(lazy.multiplicity(&vals), eager.multiplicity(&vals));
            }
        }
    }
}

/// Strips the volatile `"micros": <n>` timings out of a JSON report so
/// two runs of the same check compare equal.
fn strip_micros(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    while let Some(pos) = rest.find("\"micros\":") {
        let end = pos + "\"micros\":".len();
        out.push_str(&rest[..end]);
        rest = &rest[end..];
        out.push('0');
        rest = rest.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// A hundred checks against one reused `Session` report exactly what a
/// fresh per-check `Session` reports:
/// same decision, branch, search effort, witness bag (built by
/// `Session::witness`), and JSON report (timings normalised).
#[test]
fn warm_session_checks_match_fresh_sessions() {
    // A consistent chain, an inconsistent pair, and a cyclic triangle —
    // one workload per dichotomy branch and decision.
    let chain = |off: u64| -> Vec<Bag> {
        let r = Bag::from_u64s(
            Schema::range(0, 2),
            [(&[off, 1][..], 2), (&[off + 1, 2][..], 1)],
        )
        .unwrap();
        let s = Bag::from_u64s(
            Schema::range(1, 3),
            [(&[1u64, 5][..], 2), (&[2u64, 6][..], 1)],
        )
        .unwrap();
        vec![r, s]
    };
    let inconsistent = vec![
        Bag::from_u64s(Schema::range(0, 2), [(&[0u64, 0][..], 1)]).unwrap(),
        Bag::from_u64s(Schema::range(1, 3), [(&[0u64, 0][..], 2)]).unwrap(),
    ];
    let wide: Vec<(&[u64], u64)> = vec![(&[0, 0], 1), (&[1, 1], 1)];
    let triangle = vec![
        Bag::from_u64s(Schema::range(0, 2), wide.clone()).unwrap(),
        Bag::from_u64s(Schema::range(1, 3), wide.clone()).unwrap(),
        Bag::from_u64s(Schema::from_attrs([Attr::new(0), Attr::new(2)]), wide).unwrap(),
    ];
    let names = AttrNames::new();
    let warm = Session::builder().threads(2).build().unwrap();
    for round in 0..100u64 {
        let bags = match round % 3 {
            0 => chain(round % 7),
            1 => inconsistent.clone(),
            _ => triangle.clone(),
        };
        let refs: Vec<&Bag> = bags.iter().collect();
        let from_warm = warm.check(&refs).unwrap();
        let fresh = Session::builder().threads(2).build().unwrap();
        let from_fresh = fresh.check(&refs).unwrap();
        assert!(from_warm.witness.is_none() && from_fresh.witness.is_none());
        assert_eq!(from_warm.decision.as_str(), from_fresh.decision.as_str());
        assert_eq!(from_warm.branch, from_fresh.branch);
        assert_eq!(from_warm.search_nodes, from_fresh.search_nodes);
        assert_eq!(
            warm.witness(&refs).unwrap().check.witness,
            fresh.witness(&refs).unwrap().check.witness
        );
        assert_eq!(
            strip_micros(&from_warm.json(&names)),
            strip_micros(&from_fresh.json(&names)),
            "round {round}: warm and fresh sessions must render identically"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Above the radix kernel's floor the keyed sweep sorts its key
    /// positions by radix: `merge_matching_pairs` still emits the
    /// nested-loop pair sequence, and the packed merge join lays out the
    /// slice baseline's rows, with a narrow joint key (one pass, past
    /// its floor) or with the key column moved next to `u64::MAX` (a
    /// 64-bit key, sorted below its floor).
    #[test]
    fn keyed_sweep_above_the_radix_floor_matches_references(
        l in proptest::collection::vec((proptest::collection::vec(0..16u64, 3), 1..=3u64), 520..=640),
        r in proptest::collection::vec((proptest::collection::vec(0..16u64, 3), 1..=3u64), 520..=640),
        wide in 0..2u8,
    ) {
        // R(A0,A1,A2) joins S(A1,A2,A3) on {A1}.
        let (left_key, right_key) = (&[1usize][..], &[0usize][..]);
        let (l_wide, r_wide) = match wide {
            0 => (&[][..], &[][..]),
            _ => (left_key, right_key),
        };
        let (l_rows, r_rows) = (widen(&l, l_wide), widen(&r, r_wide));
        let left: Vec<(&[Value], u64)> = l_rows.iter().map(|(v, m)| (&v[..], *m)).collect();
        let right: Vec<(&[Value], u64)> = r_rows.iter().map(|(v, m)| (&v[..], *m)).collect();
        let mut pairs = Vec::new();
        merge_matching_pairs(&left, left_key, &right, right_key, |i, j| pairs.push((i, j)));
        prop_assert_eq!(pairs, nested_loop_pairs(&left, left_key, &right, right_key));
        let rb = Bag::from_rows(Schema::range(0, 3), l_rows.iter().map(|(v, m)| (v, *m))).unwrap();
        let sb = Bag::from_rows(Schema::range(1, 4), r_rows.iter().map(|(v, m)| (v, *m))).unwrap();
        let storage = |b: &Bag| {
            (b.store().values().to_vec(), b.live_ids().map(|i| b.mult_of(i)).collect::<Vec<_>>())
        };
        let baseline = bag_join_merge_baseline_with(&rb, &sb, &ExecConfig::sequential()).unwrap();
        for threads in THREADS {
            let hot = bag_join_merge_with(&rb, &sb, &cfg(threads)).unwrap();
            prop_assert_eq!(storage(&hot), storage(&baseline), "threads = {}", threads);
        }
    }
}

/// Column count and value bound of each width tier of the successor
/// oracle: rows that pack into at most 64 bits (two columns below
/// 2^20), into 65–128 bits (three below 2^40), and into none (three
/// below 2^60, the slice compare). The bound itself is the value of the
/// row that sorts after the whole run.
const SUCCESSOR_TIERS: [(usize, u64); 3] = [(2, 1 << 20), (3, 1 << 40), (3, 1 << 60)];

/// The physical layout of a bag: its arena and its multiplicity column.
fn layout(bag: &Bag) -> (Vec<Value>, Vec<u64>) {
    let ids = 0..bag.store().len() as u32;
    (
        bag.store().values().to_vec(),
        ids.map(|i| bag.mult_of(i)).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A batch builds each bag's successor in one merge from the shared
    /// source: at threads 1/2/4 and in every width tier, the arena and
    /// the multiplicity column equal `Bag::from_rows` of the expected
    /// multiset. The batch drops rows, bumps rows in place, adds fresh
    /// rows before, inside and after the run, adds and removes one fresh
    /// row within a delta, and edits bag 0 in two of its deltas. A batch
    /// that then fails, on a later underflow or (with failpoints) on an
    /// injected deadline in the merge, leaves every source bag `Arc` as
    /// it was.
    #[test]
    fn successor_merge_matches_from_rows(
        tier in 0..3usize,
        rows in proptest::collection::vec(
            (proptest::collection::vec(0..u64::MAX, 3), 1..=5u64), 0..=300),
        ops in proptest::collection::vec(
            ((0..6u8, 0..usize::MAX), 1..=4u64, proptest::collection::vec(0..u64::MAX, 3), 0..3usize),
            1..=24),
    ) {
        let (arity, bound) = SUCCESSOR_TIERS[tier];
        let value = |raw: &[u64]| -> Vec<u64> { raw[..arity].iter().map(|v| v % (bound - 1) + 1).collect() };
        let mut base: std::collections::BTreeMap<Vec<u64>, u64> = Default::default();
        for (raw, m) in &rows {
            *base.entry(value(raw)).or_default() += m;
        }
        // The widest row pins the tier.
        let top = vec![bound - 1; arity];
        base.insert(top.clone(), 3);
        let stored: Vec<Vec<u64>> = base.keys().cloned().collect();
        let schemas = [Schema::range(0, arity as u32), Schema::range(8, 8 + arity as u32)];
        let bag = |schema: &Schema, rows: &std::collections::BTreeMap<Vec<u64>, u64>| {
            let live = rows.iter().filter(|(_, &m)| m > 0);
            Bag::from_rows(schema.clone(), live.map(|(r, &m)| (r.iter().copied().map(Value).collect::<Vec<_>>(), m))).unwrap()
        };
        let sources = [bag(&schemas[0], &base), bag(&schemas[1], &base)];

        // Deltas 0 and 2 edit bag 0, delta 1 edits bag 1.
        let mut model = [base.clone(), base.clone()];
        let mut batch: Vec<(usize, DeltaSet)> =
            [0, 1, 0].iter().map(|&b| (b, DeltaSet::new(schemas[b].clone()))).collect();
        // In batch order, so each drop takes the count its delta sees.
        for ((kind, pick), m, raw, d) in (0..3).flat_map(|d| ops.iter().filter(move |op| op.3 == d)) {
            let (b, delta) = &mut batch[*d];
            let counts = &mut model[*b];
            let existing = &stored[pick % stored.len()];
            let current = counts.get(existing).copied().unwrap_or(0);
            let mut bump = |row: &[u64], by: i64| {
                delta.bump_u64s(row, by).unwrap();
                let c = counts.entry(row.to_vec()).or_default();
                *c = c.checked_add_signed(by).unwrap();
            };
            match kind {
                0 => {
                    if current > 0 {
                        bump(existing, -(current as i64));
                    }
                }
                1 => bump(existing, *m as i64),
                2 => bump(&vec![0; arity], *m as i64),
                3 => bump(&vec![bound; arity], *m as i64),
                4 => bump(&value(raw), *m as i64),
                _ => {
                    bump(&value(raw), *m as i64);
                    bump(&value(raw), -(*m as i64));
                }
            }
        }
        let expected = [bag(&schemas[0], &model[0]), bag(&schemas[1], &model[1])];

        for threads in THREADS {
            let session = Session::builder().exec(cfg(threads)).build().unwrap();
            let mut stream = session.open_stream(sources.to_vec()).unwrap();
            stream.update_batch(&batch).unwrap();
            for (got, want) in stream.bags().iter().zip(&expected) {
                prop_assert!(got.is_sealed());
                prop_assert_eq!(layout(got), layout(want), "threads = {}", threads);
            }

            // Fresh rows on both bags (no edit above makes a row that
            // mixes 0 or `bound` with other values), then an underflow:
            // the batch fails at its last delta and changes nothing.
            let held = stream.share_bags();
            let (mut low, mut high) = (vec![0; arity], vec![bound; arity]);
            low[arity - 1] = 1;
            high[arity - 1] = 0;
            let mut failing: Vec<(usize, DeltaSet)> = Vec::new();
            for (b, schema) in schemas.iter().enumerate() {
                let mut fresh = DeltaSet::new(schema.clone());
                fresh.bump_u64s(&high, 1).unwrap();
                fresh.bump_u64s(&low, 2).unwrap();
                failing.push((b, fresh));
            }
            let mut underflow = DeltaSet::new(schemas[1].clone());
            underflow.bump_u64s(&top, i64::MIN).unwrap();
            failing.push((1, underflow));
            prop_assert!(stream.update_batch(&failing).is_err());
            for (now, then) in stream.bags().iter().zip(&held) {
                prop_assert!(Arc::ptr_eq(now, then));
            }
            for (got, want) in stream.bags().iter().zip(&expected) {
                prop_assert_eq!(layout(got), layout(want));
            }

            #[cfg(feature = "fault-injection")]
            {
                use bagcons_core::fault::{self, FaultAction};
                let _serial = fault::test_lock();
                // An injected expiry needs a real deadline to bite; an hour
                // never fires on its own.
                stream.set_time_budget(Some(std::time::Duration::from_secs(3600)));
                failing.pop();
                // The second merge trips it: bag 0's successor is built
                // by then, and the batch must drop it.
                fault::arm("bag::reseal_delta::merge", FaultAction::InjectDeadline, 2);
                let out = stream.update_batch(&failing);
                fault::reset();
                prop_assert!(
                    matches!(out, Err(SessionError::Core(CoreError::Aborted(_)))),
                    "threads = {}: {:?}", threads, out.map(|o| o.decision)
                );
                for (now, then) in stream.bags().iter().zip(&held) {
                    prop_assert!(Arc::ptr_eq(now, then));
                    prop_assert_eq!(layout(now), layout(then));
                }
            }
        }
    }
}
