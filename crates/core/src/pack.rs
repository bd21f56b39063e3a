//! Packed key codes: order-preserving integer encodings of rows.
//!
//! The sort/merge/join hot loops compare rows constantly, and a row
//! compare is a `&[Value]` slice walk — a loop with a branch per column.
//! This module collapses those walks into **single integer compares**:
//! each column gets a dense code, the codes concatenate high-to-low into
//! one `u64`/`u128` word per row, and lexicographic row order becomes
//! plain integer order on the words.
//!
//! Two encoding tiers, chosen per store by [`PackSpec`]:
//!
//! * **raw** — each column's code *is* its value, truncated to the
//!   column's observed bit width (`⌈log₂(max+1)⌉` bits). Zero-cost to
//!   build beyond one max-scan, and — crucially for merge joins — words
//!   from *different* stores compare correctly as long as both were
//!   packed under one shared spec.
//! * **dictionary** — when raw widths overflow 128 bits, each column's
//!   distinct values are collected into a sorted-unique dictionary and
//!   the code is the value's rank. Ranks need only
//!   `⌈log₂(distinct)⌉` bits, so wide-value stores still often fit; the
//!   price is that codes are **store-local** (two stores' ranks are not
//!   comparable) and packing a foreign row can fail.
//!
//! Both tiers preserve lexicographic order and are injective on the rows
//! they were built from: `word(a) < word(b) ⟺ row(a) < row(b)` and
//! `word(a) == word(b) ⟺ row(a) == row(b)`. The equivalence is pinned by
//! unit tests here and property tests in the workspace suite.
//!
//! Who holds a view: sealed [`crate::Bag`]s and [`crate::Relation`]s
//! cache a [`PackedView`] (rebuilt by `seal`/`seal_with`, invalidated
//! whenever the row arena changes), the seal and delta-repair paths
//! build **transient raw views** for their sorts, and the merge join
//! packs its materialized key columns under a shared raw spec.

use crate::store::RowStore;
use crate::Value;
use std::cmp::Ordering;

/// Below this row count a packed view is not worth building for a
/// transient sort: the slice compares on a handful of rows are cheaper
/// than one max-scan plus the word column.
pub(crate) const PACK_MIN_ROWS: usize = 16;

/// How row values map to per-column codes; see the module docs for the
/// raw/dictionary tier distinction.
#[derive(Clone, Debug)]
pub struct PackSpec {
    /// Per-column code width in bits.
    widths: Vec<u32>,
    /// Sum of `widths` (≤ 128 by construction).
    total: u32,
    /// `Some` = dictionary tier: per-column sorted-unique dictionaries,
    /// codes are ranks. `None` = raw tier: codes are the values.
    dicts: Option<Vec<Vec<Value>>>,
}

impl PackSpec {
    /// Raw-tier spec for columns whose maximum values are `maxes`.
    /// `None` when the widths sum past 128 bits or there are no columns.
    pub fn raw(maxes: &[u64]) -> Option<PackSpec> {
        if maxes.is_empty() {
            return None;
        }
        let widths: Vec<u32> = maxes.iter().map(|&m| crate::bag::bits(m)).collect();
        let total: u32 = widths.iter().sum();
        if total > 128 {
            return None;
        }
        Some(PackSpec {
            widths,
            total,
            dicts: None,
        })
    }

    /// Dictionary-tier spec for a store: per-column sorted-unique value
    /// dictionaries, rank-coded. `None` when even rank widths overflow
    /// 128 bits or the store has no columns.
    pub fn dictionary(store: &RowStore) -> Option<PackSpec> {
        let arity = store.arity();
        if arity == 0 {
            return None;
        }
        let data = store.values();
        let mut dicts: Vec<Vec<Value>> = Vec::with_capacity(arity);
        for c in 0..arity {
            let mut col: Vec<Value> = data.iter().skip(c).step_by(arity).copied().collect();
            col.sort_unstable();
            col.dedup();
            dicts.push(col);
        }
        let widths: Vec<u32> = dicts
            .iter()
            .map(|d| crate::bag::bits(d.len().saturating_sub(1) as u64))
            .collect();
        let total: u32 = widths.iter().sum();
        if total > 128 {
            return None;
        }
        Some(PackSpec {
            widths,
            total,
            dicts: Some(dicts),
        })
    }

    /// Total packed width in bits (≤ 128).
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.total
    }

    /// Packs one row into a single word, columns concatenated high-to-low
    /// so that word order equals lexicographic row order. `None` when a
    /// value exceeds its column's width (raw tier) or is absent from its
    /// column's dictionary (dictionary tier).
    pub fn pack_row(&self, row: &[Value]) -> Option<u128> {
        debug_assert_eq!(row.len(), self.widths.len());
        let mut word: u128 = 0;
        match &self.dicts {
            None => {
                for (&w, v) in self.widths.iter().zip(row) {
                    let code = v.get() as u128;
                    if code >> w != 0 {
                        return None;
                    }
                    word = (word << w) | code;
                }
            }
            Some(dicts) => {
                for ((&w, dict), v) in self.widths.iter().zip(dicts).zip(row) {
                    let code = dict.binary_search(v).ok()? as u128;
                    word = (word << w) | code;
                }
            }
        }
        Some(word)
    }
}

/// The packed word column, sized to the spec's total width.
#[derive(Clone, Debug)]
enum PackedWords {
    W64(Vec<u64>),
    W128(Vec<u128>),
}

/// An order-preserving packed-word column over a store's rows: row `i`'s
/// word is at index `i`, and comparing two words is exactly comparing
/// the two rows lexicographically.
#[derive(Clone, Debug)]
pub struct PackedView {
    spec: PackSpec,
    words: PackedWords,
}

impl PackedView {
    /// Builds a view over every row of `store`, preferring the raw tier
    /// and falling back to the dictionary tier. `None` when neither tier
    /// fits 128 bits (or the store has no columns).
    pub fn build(store: &RowStore) -> Option<PackedView> {
        Self::build_raw(store).or_else(|| {
            let spec = PackSpec::dictionary(store)?;
            Self::from_spec(store.arity(), store.values(), spec)
        })
    }

    /// Raw-tier-only [`PackedView::build`]: one max-scan plus one packing
    /// pass, cheap enough for transient sort-time views. `None` when the
    /// raw widths overflow 128 bits.
    pub fn build_raw(store: &RowStore) -> Option<PackedView> {
        Self::build_raw_arena(store.arity(), store.values())
    }

    /// [`PackedView::build_raw`] over a bare row-major arena of
    /// `arity`-wide rows, which may repeat (equal rows get equal words).
    pub(crate) fn build_raw_arena(arity: usize, data: &[Value]) -> Option<PackedView> {
        if arity == 0 {
            return None;
        }
        let mut maxes = vec![0u64; arity];
        for row in data.chunks_exact(arity) {
            for (m, v) in maxes.iter_mut().zip(row) {
                *m = (*m).max(v.get());
            }
        }
        let spec = PackSpec::raw(&maxes)?;
        Self::from_spec(arity, data, spec)
    }

    fn from_spec(arity: usize, data: &[Value], spec: PackSpec) -> Option<PackedView> {
        let rows = data.chunks_exact(arity);
        let words = if spec.total_bits() <= 64 {
            let w: Option<Vec<u64>> = rows.map(|r| spec.pack_row(r).map(|w| w as u64)).collect();
            PackedWords::W64(w?)
        } else {
            let w: Option<Vec<u128>> = rows.map(|r| spec.pack_row(r)).collect();
            PackedWords::W128(w?)
        };
        Some(PackedView { spec, words })
    }

    /// The spec the words were packed under.
    #[inline]
    pub fn spec(&self) -> &PackSpec {
        &self.spec
    }

    /// Number of packed rows.
    pub fn len(&self) -> usize {
        match &self.words {
            PackedWords::W64(w) => w.len(),
            PackedWords::W128(w) => w.len(),
        }
    }

    /// True iff the view covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`'s packed word (zero-extended to `u128`).
    #[inline]
    pub fn word(&self, i: u32) -> u128 {
        match &self.words {
            PackedWords::W64(w) => w[i as usize] as u128,
            PackedWords::W128(w) => w[i as usize],
        }
    }

    /// Compares rows `a` and `b` — a single integer compare, equal to the
    /// lexicographic compare of the underlying rows.
    #[inline]
    pub fn cmp(&self, a: u32, b: u32) -> Ordering {
        match &self.words {
            PackedWords::W64(w) => w[a as usize].cmp(&w[b as usize]),
            PackedWords::W128(w) => w[a as usize].cmp(&w[b as usize]),
        }
    }
}

/// Row-id ordering over one row-major arena, through a packed view when
/// one fits and the slice compare otherwise. The seal, the delta-repair
/// and the [`crate::Bag::from_arena`] sorts go through this so their hot
/// loops are integer compares whenever possible while staying
/// bit-identical to the slice path.
pub(crate) struct RowOrd<'a> {
    arity: usize,
    data: &'a [Value],
    view: Option<PackedView>,
}

impl<'a> RowOrd<'a> {
    /// Builds a transient raw-tier ordering for the `arity`-wide rows of
    /// `data` (a store's [`RowStore::values`], or a bulk arena whose rows
    /// may repeat). `expected_rows` is the number of rows the caller
    /// will actually compare — below [`PACK_MIN_ROWS`] the view is
    /// skipped outright.
    pub(crate) fn new(arity: usize, data: &'a [Value], expected_rows: usize) -> Self {
        let view = if expected_rows >= PACK_MIN_ROWS {
            PackedView::build_raw_arena(arity, data)
        } else {
            None
        };
        RowOrd { arity, data, view }
    }

    /// Compares rows `a` and `b` lexicographically.
    #[inline]
    pub(crate) fn cmp(&self, a: u32, b: u32) -> Ordering {
        match &self.view {
            Some(v) => v.cmp(a, b),
            None => {
                let (a, b, k) = (a as usize, b as usize, self.arity);
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
    use crate::store::RowId;

    fn store_of(rows: &[&[u64]]) -> RowStore {
        let mut s = RowStore::new(rows[0].len());
        for r in rows {
            let vals: Vec<Value> = r.iter().copied().map(Value::new).collect();
            s.intern(&vals);
        }
        s
    }

    fn assert_view_matches_slices(store: &RowStore, view: &PackedView) {
        let n = store.len() as u32;
        for a in 0..n {
            for b in 0..n {
                assert_eq!(
                    view.cmp(a, b),
                    store.row(RowId(a)).cmp(store.row(RowId(b))),
                    "rows {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn raw_view_orders_like_slices() {
        let s = store_of(&[&[3, 1, 4], &[1, 5, 9], &[2, 6, 5], &[3, 1, 5], &[0, 0, 0]]);
        let view = PackedView::build_raw(&s).expect("small values fit raw");
        assert_eq!(view.len(), 5);
        assert_view_matches_slices(&s, &view);
    }

    #[test]
    fn raw_view_with_wide_values_uses_w128_or_dict() {
        // Two u64-wide columns: raw needs 128 bits — still fits (W128).
        let s = store_of(&[&[u64::MAX, 1], &[1, u64::MAX], &[u64::MAX, u64::MAX]]);
        let view = PackedView::build_raw(&s).expect("128 bits exactly");
        assert!(view.spec().total_bits() > 64);
        assert_view_matches_slices(&s, &view);
        // Three wide columns: raw overflows, dictionary tier takes over.
        let s3 = store_of(&[
            &[u64::MAX, 1, u64::MAX - 7],
            &[1, u64::MAX, 2],
            &[u64::MAX - 1, 3, u64::MAX],
        ]);
        assert!(PackedView::build_raw(&s3).is_none());
        let view = PackedView::build(&s3).expect("3 distinct values rank-code in 2 bits");
        assert_view_matches_slices(&s3, &view);
    }

    #[test]
    fn arity_zero_has_no_view() {
        let mut s = RowStore::new(0);
        s.intern(&[]);
        assert!(PackedView::build(&s).is_none());
    }

    #[test]
    fn packing_is_injective_on_distinct_rows() {
        let s = store_of(&[&[1, 2], &[2, 1], &[1, 3], &[3, 1], &[2, 3]]);
        let view = PackedView::build_raw(&s).unwrap();
        for a in 0..s.len() as u32 {
            for b in 0..s.len() as u32 {
                assert_eq!(view.word(a) == view.word(b), a == b);
            }
        }
    }

    #[test]
    fn shared_raw_spec_compares_across_stores() {
        // The merge join packs both sides' keys under one spec built from
        // the joint column maxes; words must then compare cross-store.
        let left = store_of(&[&[1, 7], &[5, 2]]);
        let right = store_of(&[&[3, 9], &[5, 1]]);
        let spec = PackSpec::raw(&[5, 9]).unwrap();
        for lrow in left.iter() {
            for rrow in right.iter() {
                let lw = spec.pack_row(lrow).unwrap();
                let rw = spec.pack_row(rrow).unwrap();
                assert_eq!(lw.cmp(&rw), lrow.cmp(rrow));
            }
        }
    }

    #[test]
    fn pack_row_rejects_out_of_spec_values() {
        let spec = PackSpec::raw(&[3, 3]).unwrap(); // 2 bits per column
        assert!(spec.pack_row(&[Value(3), Value(3)]).is_some());
        assert!(spec.pack_row(&[Value(4), Value(0)]).is_none());
    }

    #[test]
    fn dictionary_tier_rejects_foreign_values() {
        let s = store_of(&[
            &[u64::MAX, 1, u64::MAX - 7],
            &[1, u64::MAX, 2],
            &[u64::MAX - 1, 3, u64::MAX],
        ]);
        let view = PackedView::build(&s).unwrap();
        assert!(view
            .spec()
            .pack_row(&[Value(2), Value(1), Value(2)])
            .is_none());
    }
}
