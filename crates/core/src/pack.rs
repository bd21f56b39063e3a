//! Packed key codes: order-preserving integer encodings of rows.
//!
//! The sort/merge/join hot loops compare rows constantly, and a row
//! compare is a `&[Value]` slice walk — a loop with a branch per column.
//! This module collapses those walks into **single integer compares**:
//! each column's code *is* its value, truncated to the column's observed
//! bit width (`⌈log₂(max+1)⌉` bits), the codes concatenate high-to-low
//! into one `u64`/`u128` word per row, and lexicographic row order
//! becomes plain integer order on the words. Building a [`PackSpec`]
//! costs one max-scan, and words from *different* row sets compare
//! correctly as long as both were packed under one shared spec — the
//! merge join and the witness fill rely on that for their joint keys.
//!
//! The encoding preserves lexicographic order and is injective on the
//! rows it covers: `word(a) < word(b) ⟺ row(a) < row(b)` and
//! `word(a) == word(b) ⟺ row(a) == row(b)`. When the widths sum past 128
//! bits there is no encoding and the callers keep the slice compare.
//!
//! Keys are packed only inside the sort or sweep that compares them:
//! `sort_row_ids` packs the rows of one seal or delta reseal sort,
//! `sorted_pairs` those of one `Bag::from_arena` sort, `RowOrd`
//! those of one delta reseal merge (and of the wider tiers' comparator
//! sorts), and the keyed sort-and-sweep of [`crate::join`] packs one
//! pair's join keys. No bag or relation keeps words past the operation
//! that built them.
//!
//! # The radix kernel
//!
//! Every sort of words that fit 64 bits — the seal's and the delta
//! reseal's row ids, `Bag::from_arena`'s rows, the keyed sweep's key
//! positions — runs one kernel, `sort_pairs`: an LSD radix sort of
//! `(word, id)` pairs by word, with no comparator. It makes one read
//! pass that counts every digit, then one scatter pass per 11-bit digit
//! up to the top set bit of the largest word (`⌈bits(max)/11⌉` passes,
//! at most six), skipping a digit that every word shares. Each scatter
//! walks its source in order and appends to its digit's bucket, so it
//! is stable; by induction over the digits, pairs with equal words keep
//! their input order. Callers hand in pairs with ascending ids (row or
//! key positions in order), so the result is the `(word, id)` order
//! that `sort_unstable` on the tuples gives.
//!
//! **Floor.** Below `RADIX_MIN_LEN[passes]` pairs the kernel runs
//! exactly that `sort_unstable`: each pass costs a scatter over all
//! pairs plus an 8 KiB bucket table, so the more passes the words need,
//! the more pairs it takes before the passes beat the comparisons. The
//! table holds the crossovers measured on random words with the top bit
//! of their width set (a 2-core x86-64 host, min of 7 rounds): about
//! 256 pairs at one pass, 512 at two, 1024 at three (28-bit words, the
//! packing of a path bag over a domain of 2^14, win from 512), 4096 at
//! four, 8192 at five and 16384 at six.
//!
//! **Ceiling.** Above `RADIX_MAX_LEN[passes]` pairs the kernel runs
//! `sort_unstable` again: past a few hundred thousand pairs each
//! scatter's destination (16 bytes a pair) leaves the cache, and words
//! of four or more passes lose to the comparisons. The measured
//! crossovers (same host and method) are about 524288 pairs at four
//! passes, 393216 at five and 131072 at six; words of three passes or
//! fewer still won at a million pairs, so they have no ceiling.
//!
//! **Presorted rows.** The row sorts (`sorted_pairs`, behind the seal,
//! the delta reseal and `Bag::from_arena`) return ascending words as
//! they are and reverse strictly descending ones, as `sort_unstable`
//! detects such runs too: a text file written in reverse order would
//! otherwise pay every pass where the comparator sort paid one scan.
//! The keyed sweep checks its own keys for ascent before it builds
//! pairs, so the kernel itself never scans for runs.

use crate::Value;
use std::cmp::Ordering;

/// Below this row count packing is not worth it for a transient sort:
/// the slice compares on a handful of rows are cheaper than one max-scan
/// plus the word column.
pub(crate) const PACK_MIN_ROWS: usize = 16;

/// Digit width of [`sort_pairs`]'s passes.
const RADIX_BITS: u32 = 11;

/// Buckets per digit of [`sort_pairs`].
const RADIX_BUCKETS: usize = 1 << RADIX_BITS;

/// Below `RADIX_MIN_LEN[p]` pairs whose words need `p` passes,
/// [`sort_pairs`] runs `sort_unstable`: the measured crossovers of the
/// two (see the module doc).
pub(crate) const RADIX_MIN_LEN: [usize; 7] = [256, 256, 512, 1024, 4096, 8192, 16384];

/// Above `RADIX_MAX_LEN[p]` pairs whose words need `p` passes,
/// [`sort_pairs`] runs `sort_unstable`: the measured crossovers of the
/// two on large inputs (see the module doc).
pub(crate) const RADIX_MAX_LEN: [usize; 7] = [
    usize::MAX,
    usize::MAX,
    usize::MAX,
    usize::MAX,
    524_288,
    393_216,
    131_072,
];

/// Digit `pass` of `word`: bits `11·pass ..` (the shift is at most 55).
#[inline(always)]
fn digit(word: u64, pass: usize) -> usize {
    (word >> (pass as u32 * RADIX_BITS)) as usize & (RADIX_BUCKETS - 1)
}

/// Passes [`sort_pairs`] makes over words whose bitwise OR is `top`.
fn radix_passes(top: u64) -> usize {
    crate::bag::bits(top).div_ceil(RADIX_BITS) as usize
}

/// Sorts `(word, id)` pairs by word, stably: the crate's one sort of
/// packed words of at most 64 bits (see the module doc). `pairs` must
/// enter with ascending ids; the result is then the ascending
/// `(word, id)` order.
pub(crate) fn sort_pairs(pairs: &mut Vec<(u64, u32)>) {
    debug_assert!(
        pairs.windows(2).all(|w| w[0].1 < w[1].1),
        "sort_pairs takes ascending ids"
    );
    let n = pairs.len();
    let passes = radix_passes(pairs.iter().fold(0, |acc, &(w, _)| acc | w));
    if n < RADIX_MIN_LEN[passes] || n > RADIX_MAX_LEN[passes] {
        pairs.sort_unstable();
        return;
    }
    let mut counts = vec![[0u32; RADIX_BUCKETS]; passes];
    for &(w, _) in pairs.iter() {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[digit(w, pass)] += 1;
        }
    }
    let mut src = std::mem::take(pairs);
    let mut dst = Vec::new();
    for (pass, count) in counts.iter_mut().enumerate() {
        // A digit every word shares leaves the order as it is.
        if count[digit(src[0].0, pass)] as usize == n {
            continue;
        }
        let mut at = 0;
        for c in count.iter_mut() {
            (*c, at) = (at, at + *c);
        }
        dst.resize(n, (0, 0));
        for &pair in &src {
            let slot = &mut count[digit(pair.0, pass)];
            dst[*slot as usize] = pair;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    *pairs = src;
}

/// How row values map to one packed word: per-column code widths, each
/// code the value itself.
#[derive(Clone, Debug)]
pub struct PackSpec {
    /// Per-column code width in bits.
    widths: Vec<u32>,
    /// Sum of `widths` (≤ 128 by construction).
    total: u32,
}

impl PackSpec {
    /// Spec for columns whose maximum values are `maxes`. `None` when the
    /// widths sum past 128 bits or there are no columns.
    pub fn raw(maxes: &[u64]) -> Option<PackSpec> {
        if maxes.is_empty() {
            return None;
        }
        let widths: Vec<u32> = maxes.iter().map(|&m| crate::bag::bits(m)).collect();
        let total: u32 = widths.iter().sum();
        if total > 128 {
            return None;
        }
        Some(PackSpec { widths, total })
    }

    /// Total packed width in bits (≤ 128).
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.total
    }

    /// Packs one row into a single word, columns concatenated high-to-low
    /// so that word order equals lexicographic row order. `None` when a
    /// value exceeds its column's width.
    pub fn pack_row(&self, row: &[Value]) -> Option<u128> {
        debug_assert_eq!(row.len(), self.widths.len());
        let mut word: u128 = 0;
        for (&w, v) in self.widths.iter().zip(row) {
            let code = v.get() as u128;
            if code >> w != 0 {
                return None;
            }
            word = (word << w) | code;
        }
        Some(word)
    }

    /// Writes the row that packed to `word` into `out`: the inverse of
    /// [`PackSpec::pack_row`] for a spec of at most 64 bits.
    #[inline]
    pub(crate) fn unpack_row(&self, word: u64, out: &mut [Value]) {
        debug_assert!(self.total <= 64 && out.len() == self.widths.len());
        // In `u128`, a shift by a whole 64-bit column stays defined.
        let mut word = word as u128;
        for (&w, v) in self.widths.iter().zip(out).rev() {
            *v = Value((word & ((1u128 << w) - 1)) as u64);
            word >>= w;
        }
    }
}

/// The raw spec of the column maxes of the `arity`-wide rows of `data`,
/// the spec every row sort of one arena packs under. `None` below
/// [`PACK_MIN_ROWS`] compared rows, at arity 0, or past 128 bits.
pub(crate) fn arena_spec(arity: usize, data: &[Value], expected_rows: usize) -> Option<PackSpec> {
    if expected_rows < PACK_MIN_ROWS || arity == 0 {
        return None;
    }
    let mut maxes = vec![0u64; arity];
    for row in data.chunks_exact(arity) {
        for (m, v) in maxes.iter_mut().zip(row) {
            *m = (*m).max(v.get());
        }
    }
    PackSpec::raw(&maxes)
}

/// The rows `ids` (ascending) of the row-major arena `data` packed under
/// `spec` (at most 64 bits, covering every row) as `(word, id)` pairs in
/// ascending `(word, id)` order: presorted words cost one scan (see the
/// module doc), anything else goes through [`sort_pairs`]. Equal rows
/// get equal words and stay in id order.
pub(crate) fn sorted_pairs(
    spec: &PackSpec,
    arity: usize,
    data: &[Value],
    ids: impl Iterator<Item = u32>,
) -> Vec<(u64, u32)> {
    let mut pairs: Vec<(u64, u32)> = ids
        .map(|i| {
            let row = &data[i as usize * arity..(i as usize + 1) * arity];
            (
                spec.pack_row(row).expect("the maxes cover every row") as u64,
                i,
            )
        })
        .collect();
    if pairs.windows(2).any(|w| w[0].0 > w[1].0) {
        // Strictly descending words are distinct, so reversing them
        // gives the `(word, id)` order.
        if pairs.windows(2).all(|w| w[0].0 > w[1].0) {
            pairs.reverse();
        } else {
            sort_pairs(&mut pairs);
        }
    }
    pairs
}

/// Sorts `ids`, ascending on entry, by the lexicographic order of their
/// rows in the row-major arena `data`, packed under `spec` (the
/// [`arena_spec`] of `data`) — the sort half of every seal, of the delta
/// reseal's fresh tail and of [`crate::Bag::from_arena`]'s wider tiers,
/// on the calling thread. When the rows pack into 64 bits they sort
/// through [`sorted_pairs`], with no comparator; otherwise
/// `sort_unstable_by` runs [`RowOrd::cmp`]. Either way the order is
/// bit-identical to the slice compare's. On distinct rows (an interned
/// store) the order is total; equal rows of a bulk arena come out
/// adjacent.
pub(crate) fn sort_row_ids(
    arity: usize,
    data: &[Value],
    spec: Option<&PackSpec>,
    ids: &mut Vec<u32>,
) {
    match spec {
        Some(spec) if spec.total_bits() <= 64 => {
            let pairs = sorted_pairs(spec, arity, data, ids.iter().copied());
            ids.clear();
            ids.extend(pairs.iter().map(|&(_, i)| i));
        }
        spec => {
            let ord = RowOrd::new(arity, data, spec);
            ids.sort_unstable_by(|&a, &b| ord.cmp(a, b));
        }
    }
}

/// One packed word per row, sized to the spec's total width.
enum Words {
    W64(Vec<u64>),
    W128(Vec<u128>),
}

/// Row-id ordering over one row-major arena, through packed words when
/// they fit and the slice compare otherwise: the compare of the delta
/// reseal's merge and of the 128-bit and slice tiers' sorts, so their
/// hot loops are integer compares whenever possible while staying
/// bit-identical to the slice path.
pub(crate) struct RowOrd<'a> {
    arity: usize,
    data: &'a [Value],
    words: Option<Words>,
}

impl<'a> RowOrd<'a> {
    /// Builds the ordering for the `arity`-wide rows of `data` (a store's
    /// [`crate::store::RowStore::values`], or a bulk arena whose rows may
    /// repeat; equal rows get equal words) under `spec`, the
    /// [`arena_spec`] of `data`: words when it is given, slice compares
    /// when it is `None`.
    pub(crate) fn new(arity: usize, data: &'a [Value], spec: Option<&PackSpec>) -> Self {
        let words = spec.map(|spec| {
            let rows = data
                .chunks_exact(arity)
                .map(|r| spec.pack_row(r).expect("the maxes cover every row"));
            if spec.total_bits() <= 64 {
                Words::W64(rows.map(|w| w as u64).collect())
            } else {
                Words::W128(rows.collect())
            }
        });
        RowOrd { arity, data, words }
    }

    /// Compares rows `a` and `b` lexicographically.
    #[inline]
    pub(crate) fn cmp(&self, a: u32, b: u32) -> Ordering {
        let (a, b) = (a as usize, b as usize);
        match &self.words {
            Some(Words::W64(w)) => w[a].cmp(&w[b]),
            Some(Words::W128(w)) => w[a].cmp(&w[b]),
            None => {
                let k = self.arity;
                self.data[a * k..(a + 1) * k].cmp(&self.data[b * k..(b + 1) * k])
            }
        }
    }

    /// `row(a) < row(b)`.
    #[inline]
    pub(crate) fn less(&self, a: u32, b: u32) -> bool {
        self.cmp(a, b) == Ordering::Less
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Which words a [`RowOrd`] built: 0 = none, 64 or 128.
    fn tier(ord: &RowOrd<'_>) -> u32 {
        match ord.words {
            None => 0,
            Some(Words::W64(_)) => 64,
            Some(Words::W128(_)) => 128,
        }
    }

    /// Rows drawn from `pool` by `picks` (so rows repeat), each column
    /// masked to `bits[c]` low bits; `forced` is OR-ed into the first
    /// row so every column reaches the top of its width.
    fn arena(pool: &[Vec<u64>], picks: &[usize], bits: &[u32]) -> Vec<Value> {
        let mask = |b: u32| if b >= 64 { u64::MAX } else { (1u64 << b) - 1 };
        let mut data = Vec::with_capacity(picks.len() * bits.len());
        for (n, &p) in picks.iter().enumerate() {
            for (c, &b) in bits.iter().enumerate() {
                let forced = if n == 0 && b > 0 { 1u64 << (b - 1) } else { 0 };
                data.push(Value((pool[p][c] & mask(b)) | forced));
            }
        }
        data
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `RowOrd::cmp` equals the slice compare on every pair of rows,
        /// with the raw widths summing to at most 64 bits, to 65–128 bits
        /// and past 128 bits (no words). Every case builds all three
        /// tiers and checks that each one was the tier it aimed at.
        #[test]
        fn row_ord_matches_slice_compare_in_every_width_tier(
            arity in 0..=4usize,
            pool in collection::vec(collection::vec(0..=u64::MAX, 4), 12),
            picks in collection::vec(0..12usize, PACK_MIN_ROWS..64),
        ) {
            // Per tier: the column widths and the tier they must give.
            let narrow = 64 / arity.max(1) as u32;
            let tiers: [(Vec<u32>, u32); 3] = [
                (vec![narrow; arity.max(1)], 64),
                ([64].into_iter().chain(vec![64 / arity.max(2) as u32; arity.max(2) - 1]).collect(), 128),
                (vec![64; arity.max(3)], 0),
            ];
            for (bits, want) in tiers {
                let k = bits.len();
                let data = arena(&pool, &picks, &bits);
                let spec = arena_spec(k, &data, picks.len());
                let ord = RowOrd::new(k, &data, spec.as_ref());
                prop_assert_eq!(tier(&ord), want, "widths {:?}", bits);
                // The sort gives the `(row, id)` order on every tier.
                let row = |i: u32| &data[i as usize * k..(i as usize + 1) * k];
                let mut want_ids: Vec<u32> = (0..picks.len() as u32).collect();
                want_ids.sort_by(|&a, &b| row(a).cmp(row(b)));
                let by_row = |ids: &[u32]| ids.iter().map(|&i| row(i).to_vec()).collect::<Vec<_>>();
                let mut ids: Vec<u32> = (0..picks.len() as u32).collect();
                sort_row_ids(k, &data, spec.as_ref(), &mut ids);
                prop_assert_eq!(by_row(&ids), by_row(&want_ids), "widths {:?}", bits);
                if want == 64 {
                    prop_assert_eq!(&ids, &want_ids, "widths {:?}", bits);
                }
                for a in 0..picks.len() {
                    for b in 0..picks.len() {
                        prop_assert_eq!(
                            ord.cmp(a as u32, b as u32),
                            data[a * k..(a + 1) * k].cmp(&data[b * k..(b + 1) * k]),
                            "widths {:?}, rows {} vs {}", bits, a, b
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The radix kernel gives the order `sort_unstable` gives on
        /// `(word, id)` pairs that enter with ascending ids, and so do
        /// the row sort's presorted shortcuts ([`sorted_pairs`] on a
        /// one-column arena of the words): words masked to every width
        /// from 0 to 64 bits (the top bit of the width set in one word),
        /// drawn from a small pool so that words repeat, all-equal words,
        /// lengths on both sides of the width's [`RADIX_MIN_LEN`] (up to
        /// twice the 16384-pair floor of 64-bit words), and presorted
        /// input: ascending, descending with ties, and strictly
        /// descending.
        #[test]
        fn sort_pairs_matches_sort_unstable(
            bits in 0..=64u32,
            pool in collection::vec(0..=u64::MAX, 1..40),
            seed in 0..=u64::MAX,
            len_kind in 0..4u8,
            len_off in 0..64usize,
            all_equal in 0..4u8,
            shape in 0..5u8,
        ) {
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let top = if bits == 0 { 0 } else { 1u64 << (bits - 1) };
            let floor = RADIX_MIN_LEN[radix_passes(top)];
            let len = match len_kind {
                0 => len_off,
                1 => floor + len_off - 32,
                2 => floor - 1,
                _ => floor + (seed as usize % floor),
            };
            let word = |i: usize| match all_equal {
                0 => pool[0] & mask | top,
                _ => {
                    let mix = (seed ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    pool[(mix >> 32) as usize % pool.len()] & mask
                }
            };
            let mut words: Vec<u64> = (0..len).map(word).collect();
            if let Some(first) = words.first_mut() {
                *first |= top;
            }
            match shape {
                1 => words.sort_unstable(),
                2 => words.sort_unstable_by(|a, b| b.cmp(a)),
                3 => words = (0..len as u64).rev().map(|i| (i << 20 | pool[0] >> 44) & mask | top).collect(),
                _ => {}
            }
            let mut pairs: Vec<(u64, u32)> = words.iter().copied().zip(0..).collect();
            let mut want = pairs.clone();
            want.sort_unstable();
            sort_pairs(&mut pairs);
            prop_assert_eq!(&pairs, &want, "{} bits, {} pairs", bits, len);
            let data: Vec<Value> = words.into_iter().map(Value).collect();
            if let Some(spec) = arena_spec(1, &data, len) {
                let pairs = sorted_pairs(&spec, 1, &data, 0..len as u32);
                prop_assert_eq!(&pairs, &want, "{} bits, {} rows", bits, len);
            }
        }
    }

    #[test]
    fn sort_pairs_at_each_floor_and_on_full_width_words() {
        for (passes, &floor) in RADIX_MIN_LEN.iter().enumerate().skip(1) {
            let bits = (passes as u32 * RADIX_BITS).min(64);
            let mask = u64::MAX >> (64 - bits);
            for len in [floor - 1, floor, floor + 1] {
                // Descending words that differ only in their top digit, a
                // digit every lower pass must carry through unchanged.
                let mut pairs: Vec<(u64, u32)> = (0..len as u64)
                    .map(|i| mask - ((i % 7) << (bits - 3)))
                    .zip(0..)
                    .collect();
                let mut want = pairs.clone();
                want.sort_unstable();
                sort_pairs(&mut pairs);
                assert_eq!(pairs, want, "{bits} bits, {len} pairs");
            }
        }
    }

    /// At four to six passes, lengths just below, at and just above the
    /// ceiling (where the kernel hands over to `sort_unstable`) give
    /// `sort_unstable`'s order, on random words with the width's top
    /// bit set and on words with repeats.
    #[test]
    fn sort_pairs_at_each_ceiling() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for passes in 4..=6 {
            let bits = (passes as u32 * RADIX_BITS).min(64);
            let mask = u64::MAX >> (64 - bits);
            let ceiling = RADIX_MAX_LEN[passes];
            assert!(ceiling > RADIX_MIN_LEN[passes]);
            for len in [ceiling - 1, ceiling, ceiling + 1] {
                let mut pairs: Vec<(u64, u32)> = (0..len as u32)
                    .map(|i| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let word = if i % 3 == 0 { x % 97 } else { x };
                        (word & mask | 1 << (bits - 1), i)
                    })
                    .collect();
                let mut want = pairs.clone();
                want.sort_unstable();
                sort_pairs(&mut pairs);
                assert!(pairs == want, "{bits} bits, {len} pairs");
            }
        }
    }

    #[test]
    fn unpack_row_inverts_pack_row_at_every_width() {
        for maxes in [
            vec![u64::MAX],
            vec![0, u64::MAX],
            vec![u64::MAX >> 1, 1],
            vec![0, 0, 0],
            vec![5, 0, 1 << 40, 3],
        ] {
            let spec = PackSpec::raw(&maxes).unwrap();
            assert!(spec.total_bits() <= 64);
            for row in [
                maxes.clone(),
                vec![0; maxes.len()],
                maxes.iter().map(|m| m / 2).collect(),
            ] {
                let row: Vec<Value> = row.into_iter().map(Value).collect();
                let word = spec.pack_row(&row).unwrap() as u64;
                let mut back = vec![Value(7); row.len()];
                spec.unpack_row(word, &mut back);
                assert_eq!(back, row, "maxes {maxes:?}");
            }
        }
    }

    /// A row-major arena of `rows`.
    fn flat(rows: &[&[u64]]) -> Vec<Value> {
        rows.iter()
            .flat_map(|r| r.iter().copied().map(Value))
            .collect()
    }

    #[test]
    fn raw_view_orders_like_slices() {
        let rows: &[&[u64]] = &[&[3, 1, 4], &[1, 5, 9], &[2, 6, 5], &[3, 1, 5], &[0, 0, 0]];
        let data = flat(rows);
        let ord = RowOrd::new(3, &data, arena_spec(3, &data, PACK_MIN_ROWS).as_ref());
        assert_eq!(tier(&ord), 64, "small values fit one u64 word");
        for a in 0..rows.len() {
            for b in 0..rows.len() {
                assert_eq!(ord.cmp(a as u32, b as u32), rows[a].cmp(rows[b]));
            }
        }
    }

    #[test]
    fn arity_zero_has_no_view() {
        assert!(arena_spec(0, &[], PACK_MIN_ROWS).is_none());
        // Below the row floor the slice compare runs without packing.
        let short = flat(&[&[2], &[1]]);
        let ord = RowOrd::new(1, &short, arena_spec(1, &short, 2).as_ref());
        assert_eq!(tier(&ord), 0);
        assert_eq!(ord.cmp(0, 1), Ordering::Greater);
    }

    #[test]
    fn packing_is_injective_on_distinct_rows() {
        let data = flat(&[&[1, 2], &[2, 1], &[1, 3], &[3, 1], &[2, 3]]);
        let ord = RowOrd::new(2, &data, arena_spec(2, &data, PACK_MIN_ROWS).as_ref());
        assert_eq!(tier(&ord), 64);
        for a in 0..5u32 {
            for b in 0..5u32 {
                assert_eq!(ord.cmp(a, b) == Ordering::Equal, a == b);
            }
        }
    }

    #[test]
    fn shared_raw_spec_compares_across_stores() {
        // The merge join packs both sides' keys under one spec built from
        // the joint column maxes; words must then compare across sides.
        let left = [[1u64, 7], [5, 2]];
        let right = [[3u64, 9], [5, 1]];
        let spec = PackSpec::raw(&[5, 9]).unwrap();
        let pack = |r: &[u64; 2]| spec.pack_row(&[Value(r[0]), Value(r[1])]).unwrap();
        for l in &left {
            for r in &right {
                assert_eq!(pack(l).cmp(&pack(r)), l.cmp(r));
            }
        }
    }

    #[test]
    fn pack_row_rejects_out_of_spec_values() {
        let spec = PackSpec::raw(&[3, 3]).unwrap(); // 2 bits per column
        assert!(spec.pack_row(&[Value(3), Value(3)]).is_some());
        assert!(spec.pack_row(&[Value(4), Value(0)]).is_none());
    }
}
