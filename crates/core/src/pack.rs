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
//! `RowOrd` packs the rows of one seal, `Bag::from_arena` or delta
//! reseal sort, and the keyed sort-and-sweep of [`crate::join`] packs
//! one pair's join keys. No bag or relation keeps words past the
//! operation that built them.

use crate::Value;
use std::cmp::Ordering;

/// Below this row count packing is not worth it for a transient sort:
/// the slice compares on a handful of rows are cheaper than one max-scan
/// plus the word column.
pub(crate) const PACK_MIN_ROWS: usize = 16;

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
}

/// One packed word per row, sized to the spec's total width.
enum Words {
    W64(Vec<u64>),
    W128(Vec<u128>),
}

/// Row-id ordering over one row-major arena, through packed words when
/// they fit and the slice compare otherwise. The seal, the delta-repair
/// and the [`crate::Bag::from_arena`] sorts go through this so their hot
/// loops are integer compares whenever possible while staying
/// bit-identical to the slice path.
pub(crate) struct RowOrd<'a> {
    arity: usize,
    data: &'a [Value],
    words: Option<Words>,
}

impl<'a> RowOrd<'a> {
    /// Builds the ordering for the `arity`-wide rows of `data` (a store's
    /// [`crate::store::RowStore::values`], or a bulk arena whose rows may
    /// repeat; equal rows get equal words). `expected_rows` is the number
    /// of rows the caller will actually compare — below
    /// [`PACK_MIN_ROWS`] the words are skipped outright.
    pub(crate) fn new(arity: usize, data: &'a [Value], expected_rows: usize) -> Self {
        let words = if expected_rows >= PACK_MIN_ROWS && arity > 0 {
            let mut maxes = vec![0u64; arity];
            for row in data.chunks_exact(arity) {
                for (m, v) in maxes.iter_mut().zip(row) {
                    *m = (*m).max(v.get());
                }
            }
            PackSpec::raw(&maxes).map(|spec| {
                let rows = data
                    .chunks_exact(arity)
                    .map(|r| spec.pack_row(r).expect("the maxes cover every row"));
                if spec.total_bits() <= 64 {
                    Words::W64(rows.map(|w| w as u64).collect())
                } else {
                    Words::W128(rows.collect())
                }
            })
        } else {
            None
        };
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
                let ord = RowOrd::new(k, &data, picks.len());
                prop_assert_eq!(tier(&ord), want, "widths {:?}", bits);
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
        let ord = RowOrd::new(3, &data, PACK_MIN_ROWS);
        assert_eq!(tier(&ord), 64, "small values fit one u64 word");
        for a in 0..rows.len() {
            for b in 0..rows.len() {
                assert_eq!(ord.cmp(a as u32, b as u32), rows[a].cmp(rows[b]));
            }
        }
    }

    #[test]
    fn arity_zero_has_no_view() {
        assert_eq!(tier(&RowOrd::new(0, &[], PACK_MIN_ROWS)), 0);
        // Below the row floor the slice compare runs without packing.
        let short = flat(&[&[2], &[1]]);
        let ord = RowOrd::new(1, &short, 2);
        assert_eq!(tier(&ord), 0);
        assert_eq!(ord.cmp(0, 1), Ordering::Greater);
    }

    #[test]
    fn packing_is_injective_on_distinct_rows() {
        let data = flat(&[&[1, 2], &[2, 1], &[1, 3], &[3, 1], &[2, 3]]);
        let ord = RowOrd::new(2, &data, PACK_MIN_ROWS);
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
