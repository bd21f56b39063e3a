//! Columnar, arena-backed row storage.
//!
//! A [`RowStore`] owns every row of one schema in a single contiguous
//! `Vec<Value>` (row-major), hands out compact [`RowId`] handles, and
//! **interns** rows: equal rows share one id, so the arena holds each
//! distinct tuple exactly once. This is the storage layer under
//! [`crate::Bag`] and [`crate::Relation`]; the paper's hot paths — joins,
//! marginals, flow-network construction — operate on `RowId`s and slices
//! into the arena instead of per-tuple `Box<[Value]>` allocations.
//!
//! Deduplication uses an open-addressing hash table (`u32` slots, linear
//! probing) whose entries point back into the arena, so the whole store
//! is at most three flat allocations regardless of row count: no per-row
//! boxes, no per-bucket vectors. The table is **lazy**: every bulk
//! output is adopted wholesale — in sorted order through
//! [`RowStore::from_sorted_rows`] (seals, [`crate::Bag::from_arena`],
//! marginals, delta successors, snapshot loading), whose order is its
//! distinctness certificate, or as join rows distinct by construction —
//! and only pays for the hash table on the first content probe (lookup,
//! intern). A delta finds its rows in a sealed bag by binary search, so
//! it probes no table.
//!
//! Invariants:
//!
//! * every stored row has length [`RowStore::arity`];
//! * `row(a) == row(b)` implies `a == b` (interning is injective on
//!   content) unless rows were pushed through
//!   [`RowStore::push_unique_unchecked`] or adopted as distinct rows,
//!   whose callers guarantee freshness;
//! * ids are dense: `0..len()` in insertion order, which lets callers
//!   keep parallel columns (multiplicities, flow capacities) as plain
//!   vectors indexed by `RowId`.

use crate::Value;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::OnceLock;

/// Compact handle to an interned row within one [`RowStore`].
///
/// Ids are dense (`0..store.len()`); parallel per-row data can live in a
/// plain vector indexed by [`RowId::index`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId(pub u32);

impl RowId {
    /// The id as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Sentinel for an empty hash slot.
const EMPTY: u32 = u32::MAX;

/// The open-addressing dedup table: row ids probed by row-content hash.
/// Split out of [`RowStore`] so the whole table can sit behind a
/// `OnceLock` and build lazily — a sealed or snapshot-adopted store whose
/// rows are certified distinct by their sorted order defers the build
/// until the first content probe actually needs it.
#[derive(Clone, Debug)]
struct SlotTable {
    /// Open-addressing table of row ids (EMPTY = vacant), linear probing.
    slots: Vec<u32>,
    /// `slots.len() - 1`; slot count is a power of two.
    mask: usize,
}

impl SlotTable {
    /// An empty table sized for `rows` rows at the 7/8 load ceiling.
    fn with_capacity(rows: usize) -> SlotTable {
        let cap = slot_count_for(rows);
        SlotTable {
            slots: vec![EMPTY; cap],
            mask: cap - 1,
        }
    }

    /// Builds the table from an interned arena's rows (all distinct).
    fn build(arity: usize, data: &[Value], len: u32) -> SlotTable {
        let mut table = SlotTable::with_capacity(len as usize);
        if arity == 0 {
            if len > 0 {
                let hash = hash_row(&[]);
                table.slots[hash as usize & table.mask] = 0;
            }
            return table;
        }
        for (id, row) in data.chunks_exact(arity).enumerate() {
            let hash = hash_row(row);
            let mut i = hash as usize & table.mask;
            while table.slots[i] != EMPTY {
                i = (i + 1) & table.mask;
            }
            table.slots[i] = id as u32;
        }
        table
    }
}

/// A per-schema arena of interned rows.
#[derive(Clone, Debug)]
pub struct RowStore {
    arity: usize,
    /// All row data, row-major: row `i` is `data[i*arity .. (i+1)*arity]`.
    data: Vec<Value>,
    /// Number of rows (tracked separately: `arity` may be 0).
    len: u32,
    /// The dedup table, built on first probe (see [`SlotTable`]).
    index: OnceLock<SlotTable>,
}

impl Default for RowStore {
    /// An empty arity-0 store.
    fn default() -> Self {
        RowStore::new(0)
    }
}

impl RowStore {
    /// An empty store for rows of length `arity`.
    pub fn new(arity: usize) -> Self {
        Self::with_capacity(arity, 0)
    }

    /// An empty store with room for `rows` rows before reallocating.
    pub fn with_capacity(arity: usize, rows: usize) -> Self {
        // Pre-set a right-sized table: the caller told us the row count,
        // so there is nothing to gain from laziness here and an eager
        // table avoids doubling rehashes during the fill.
        let index = OnceLock::new();
        let _ = index.set(SlotTable::with_capacity(rows));
        RowStore {
            arity,
            data: Vec::with_capacity(arity * rows),
            len: 0,
            index,
        }
    }

    /// Adopts a pre-sorted, pre-deduplicated columnar arena wholesale —
    /// the bulk-move half of every seal, of [`crate::Bag::from_arena`],
    /// and of snapshot loading. `data` must hold exactly `rows * arity`
    /// values laid out row-major in **strictly increasing** lexicographic
    /// row order; strictness doubles as the distinctness certificate, so
    /// no content comparisons are needed beyond one adjacent-pair pass.
    /// The dedup table is left **unbuilt**: sorted strict order already
    /// certifies distinctness, so hashing every row up front would be
    /// pure overhead for the many sealed values nobody probes (witnesses,
    /// marginal inputs, opened snapshots) — the table materializes on the
    /// first content probe instead.
    /// Returns `None` if the shape or the ordering certificate fails —
    /// never adopts a half-checked arena.
    pub fn from_sorted_rows(arity: usize, rows: usize, data: Vec<Value>) -> Option<RowStore> {
        RowStore::try_from_sorted_rows(arity, rows, data).ok()
    }

    /// [`RowStore::from_sorted_rows`] that hands the arena back when the
    /// shape or the ordering certificate fails, so a caller can sort it
    /// instead ([`crate::Bag::from_arena`] adopts an ascending arena and
    /// sorts any other).
    pub(crate) fn try_from_sorted_rows(
        arity: usize,
        rows: usize,
        data: Vec<Value>,
    ) -> Result<RowStore, Vec<Value>> {
        let shaped = Some(data.len()) == rows.checked_mul(arity) && rows <= (u32::MAX - 1) as usize;
        // Arity-0 rows are all equal; at most one can be distinct. The
        // common narrow widths get their own constant-width copy of the
        // fold, which the compiler unrolls.
        let ascending = shaped
            && (arity > 0 || rows <= 1)
            && match arity {
                1 => strictly_ascending(1, &data),
                2 => strictly_ascending(2, &data),
                3 => strictly_ascending(3, &data),
                k => strictly_ascending(k, &data),
            };
        if !ascending {
            return Err(data);
        }
        Ok(RowStore {
            arity,
            data,
            len: rows as u32,
            index: OnceLock::new(),
        })
    }

    /// Adopts a row-major arena of `rows` rows that the caller guarantees
    /// are distinct, in any order — join outputs, which are distinct by
    /// construction. Like [`RowStore::from_sorted_rows`] it leaves the
    /// dedup table unbuilt; debug builds check the guarantee.
    ///
    /// # Panics
    /// Panics if `data` is not `rows` rows of width `arity`, or if the
    /// rows exhaust the `u32` id space.
    pub(crate) fn from_distinct_rows(arity: usize, rows: usize, data: Vec<Value>) -> RowStore {
        assert_eq!(Some(data.len()), rows.checked_mul(arity), "arena shape");
        assert!(
            rows <= (u32::MAX - 1) as usize,
            "RowStore capacity (u32 ids) exhausted"
        );
        debug_assert!(
            if arity == 0 {
                rows <= 1
            } else {
                let mut seen = crate::FxHashSet::default();
                data.chunks_exact(arity).all(|row| seen.insert(row))
            },
            "from_distinct_rows on duplicate rows"
        );
        RowStore {
            arity,
            data,
            len: rows as u32,
            index: OnceLock::new(),
        }
    }

    /// Row length this store accepts.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of stored rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff no rows are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row behind `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn row(&self, id: RowId) -> &[Value] {
        let i = id.index();
        assert!(
            i < self.len(),
            "RowId {i} out of bounds (len {})",
            self.len()
        );
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Iterates over rows in id order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Value]> + '_ {
        // `chunks_exact(0)` panics, so route arity-0 stores through a
        // constant empty slice repeated `len` times.
        RowIter {
            store: self,
            next: 0,
        }
    }

    /// The raw columnar arena (row-major). Exposed for single-pass scans
    /// that want to avoid per-row bounds checks.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.data
    }

    /// Interns `row`, returning its id and whether it was newly added.
    ///
    /// # Panics
    /// Panics if `row.len() != self.arity()`.
    pub fn intern(&mut self, row: &[Value]) -> (RowId, bool) {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        self.grow_if_needed();
        let hash = hash_row(row);
        // Probe with shared borrows first (table + arena), then mutate
        // once the probe has settled on either a hit or a vacant slot.
        let vacant = {
            let table = self.index.get().expect("grow_if_needed builds the table");
            let mut i = hash as usize & table.mask;
            loop {
                let slot = table.slots[i];
                if slot == EMPTY {
                    break i;
                }
                if self.stored_row(slot) == row {
                    return (RowId(slot), false);
                }
                i = (i + 1) & table.mask;
            }
        };
        let id = self.push_row(row);
        self.index.get_mut().expect("built above").slots[vacant] = id.0;
        (id, true)
    }

    /// Looks up an existing row without inserting. First call on a
    /// snapshot-adopted store builds the dedup table (`O(len)`, once).
    pub fn lookup(&self, row: &[Value]) -> Option<RowId> {
        if row.len() != self.arity || self.len == 0 {
            return None;
        }
        let table = self.table();
        let hash = hash_row(row);
        let mut i = hash as usize & table.mask;
        loop {
            let slot = table.slots[i];
            if slot == EMPTY {
                return None;
            }
            if self.stored_row(slot) == row {
                return Some(RowId(slot));
            }
            i = (i + 1) & table.mask;
        }
    }

    /// Appends a row the caller guarantees is not yet present. Still
    /// registered in the dedup table so later
    /// [`RowStore::lookup`]/[`RowStore::intern`] calls see it; only the
    /// content comparison is skipped.
    ///
    /// # Panics
    /// Panics if `row.len() != self.arity()`. Violating the uniqueness
    /// contract leaves lookups returning an arbitrary duplicate.
    pub fn push_unique_unchecked(&mut self, row: &[Value]) -> RowId {
        assert_eq!(row.len(), self.arity, "row arity mismatch");
        debug_assert!(
            self.lookup(row).is_none(),
            "push_unique_unchecked on duplicate row"
        );
        self.grow_if_needed();
        let vacant = {
            let table = self.index.get().expect("grow_if_needed builds the table");
            let mut i = hash_row(row) as usize & table.mask;
            while table.slots[i] != EMPTY {
                i = (i + 1) & table.mask;
            }
            i
        };
        let id = self.push_row(row);
        self.index.get_mut().expect("built above").slots[vacant] = id.0;
        id
    }

    /// The dedup table, built on first use.
    #[inline]
    fn table(&self) -> &SlotTable {
        self.index
            .get_or_init(|| SlotTable::build(self.arity, &self.data, self.len))
    }

    #[inline]
    fn stored_row(&self, id: u32) -> &[Value] {
        let i = id as usize;
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    #[inline]
    fn push_row(&mut self, row: &[Value]) -> RowId {
        assert!(
            self.len < u32::MAX - 1,
            "RowStore capacity (u32 ids) exhausted"
        );
        self.data.extend_from_slice(row);
        let id = RowId(self.len);
        self.len += 1;
        id
    }

    /// Ensures the dedup table exists and keeps its load factor below
    /// 7/8, rehashing by re-deriving hashes from row content (no stored
    /// hash column needed).
    fn grow_if_needed(&mut self) {
        if self.index.get().is_none() {
            let table = SlotTable::build(self.arity, &self.data, self.len);
            let _ = self.index.set(table);
        }
        let cur = self.index.get().expect("just built").slots.len();
        if (self.len as usize + 1) * 8 <= cur * 7 {
            return;
        }
        let cap = cur * 2;
        let mask = cap - 1;
        let mut slots = vec![EMPTY; cap];
        for id in 0..self.len {
            let hash = hash_row(self.stored_row(id));
            let mut i = hash as usize & mask;
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = id;
        }
        *self.index.get_mut().expect("built above") = SlotTable { slots, mask };
    }
}

/// Iterator over a store's rows in id order.
struct RowIter<'a> {
    store: &'a RowStore,
    next: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<&'a [Value]> {
        if self.next >= self.store.len() {
            return None;
        }
        let id = RowId(self.next as u32);
        self.next += 1;
        Some(self.store.row(id))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.store.len() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// Hashes a row's content with the workspace Fx hasher.
#[inline]
pub fn hash_row(row: &[Value]) -> u64 {
    let mut h = crate::FxBuildHasher::default().build_hasher();
    for v in row {
        v.get().hash(&mut h);
    }
    h.finish()
}

/// Smallest power-of-two slot count holding `rows` at 7/8 load.
fn slot_count_for(rows: usize) -> usize {
    let needed = rows + rows / 4 + 8;
    needed.next_power_of_two()
}

/// Whether the `arity`-wide rows of `data` ascend strictly (vacuously
/// true at arity 0). Each adjacent pair folds its columns, last to
/// first, into `prev < row` with no branch on the values: a per-pair
/// exit or a slice compare mispredicts on the ties in leading columns
/// that sorted rows are full of. The pairs fold in blocks of
/// [`ASCEND_BLOCK`], and a failed block ends the check, so an unsorted
/// arena is refused after its first block rather than its last pair.
#[inline(always)]
fn strictly_ascending(arity: usize, data: &[Value]) -> bool {
    if arity == 0 {
        return true;
    }
    let rows = data.len() / arity;
    let mut start = 1;
    while start < rows {
        let end = rows.min(start + ASCEND_BLOCK);
        let block = &data[(start - 1) * arity..end * arity];
        let mut ascending = true;
        for (prev, row) in block
            .chunks_exact(arity)
            .zip(block[arity..].chunks_exact(arity))
        {
            let mut less = false;
            for (a, b) in prev.iter().zip(row).rev() {
                less = (a < b) | ((a == b) & less);
            }
            ascending &= less;
        }
        if !ascending {
            return false;
        }
        start = end;
    }
    true
}

/// Adjacent pairs [`strictly_ascending`] folds between two exits.
const ASCEND_BLOCK: usize = 64;

/// The group-by sweep over the first `k` columns of a store whose rows
/// are sorted, so that equal prefixes are adjacent: one `(prefix, summed
/// multiplicity)` row per group, in ascending order. `mults` is the
/// multiplicity column, `None` for a relation (every row counts 1). This
/// is the one body behind prefix marginals and prefix projections.
///
/// The run shards at group boundaries through
/// [`crate::exec::try_run_tasks`] (one inline task when `cfg` does not
/// shard), and the shard outputs join end to end, so the result is the
/// same at every thread count. Callers adopt it through
/// [`RowStore::from_sorted_rows`].
///
/// # Errors
///
/// [`crate::CoreError::MultiplicityOverflow`] when a group's sum passes
/// `u64`; [`crate::CoreError::Aborted`] /
/// [`crate::CoreError::WorkerPanicked`] from the executor.
pub(crate) fn prefix_groups(
    store: &RowStore,
    mults: Option<&[u64]>,
    k: usize,
    cfg: &crate::exec::ExecConfig,
) -> crate::Result<(Vec<Value>, Vec<u64>)> {
    let (arity, data) = (store.arity, &store.data);
    let key = |p: usize| &data[p * arity..p * arity + k];
    let mult = |p: usize| mults.map_or(1, |m| m[p]);
    let n = store.len();
    let ranges = crate::exec::shard_ranges(n, cfg.shards_for(n), |p| key(p - 1) == key(p));
    let runs = crate::exec::try_run_tasks(cfg, ranges, |range| {
        let groups = range.len().min(1 << 20);
        let (mut keys, mut sums) = (Vec::with_capacity(groups * k), Vec::with_capacity(groups));
        let mut p = range.start;
        while p < range.end {
            let mut sum = mult(p);
            let mut q = p + 1;
            while q < range.end && key(q) == key(p) {
                sum = sum
                    .checked_add(mult(q))
                    .ok_or(crate::CoreError::MultiplicityOverflow)?;
                q += 1;
            }
            keys.extend_from_slice(key(p));
            sums.push(sum);
            p = q;
        }
        Ok((keys, sums))
    })?;
    Ok(crate::exec::concat_runs(
        runs.into_iter().collect::<crate::Result<_>>()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(xs: &[u64]) -> Vec<Value> {
        xs.iter().copied().map(Value::new).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The strictness fold accepts exactly the arenas whose adjacent
        /// rows ascend as slices, on raw, sorted and sorted-distinct rows
        /// over a tiny value range (so equal rows and ties in the leading
        /// columns are common).
        #[test]
        fn from_sorted_rows_accepts_exactly_strictly_ascending_arenas(
            arity in 0..=4usize,
            cells in collection::vec(0..3u64, 0..40),
            mode in 0..3u8,
        ) {
            let mut rows: Vec<Vec<Value>> = match arity {
                0 => vec![Vec::new(); cells.len() % 3],
                _ => cells.chunks_exact(arity).map(v).collect(),
            };
            if mode > 0 {
                rows.sort();
            }
            if mode > 1 {
                rows.dedup();
            }
            let want = rows.windows(2).all(|w| w[0] < w[1]);
            let got = RowStore::from_sorted_rows(arity, rows.len(), rows.concat());
            prop_assert_eq!(got.is_some(), want, "{:?}", rows);
        }
    }

    #[test]
    fn intern_dedups_and_round_trips() {
        let mut s = RowStore::new(3);
        let (a, fresh_a) = s.intern(&v(&[1, 2, 3]));
        let (b, fresh_b) = s.intern(&v(&[4, 5, 6]));
        let (a2, fresh_a2) = s.intern(&v(&[1, 2, 3]));
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(s.len(), 2);
        assert_eq!(s.row(a), &v(&[1, 2, 3])[..]);
        assert_eq!(s.row(b), &v(&[4, 5, 6])[..]);
    }

    #[test]
    fn lookup_finds_only_present_rows() {
        let mut s = RowStore::new(2);
        let (id, _) = s.intern(&v(&[7, 8]));
        assert_eq!(s.lookup(&v(&[7, 8])), Some(id));
        assert_eq!(s.lookup(&v(&[8, 7])), None);
        assert_eq!(s.lookup(&v(&[7])), None, "wrong arity is never present");
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut s = RowStore::with_capacity(2, 2);
        let ids: Vec<RowId> = (0..1000).map(|i| s.intern(&v(&[i, i * i])).0).collect();
        assert_eq!(s.len(), 1000);
        for (i, id) in ids.iter().enumerate() {
            let i = i as u64;
            assert_eq!(s.row(*id), &v(&[i, i * i])[..]);
            assert_eq!(s.lookup(&v(&[i, i * i])), Some(*id));
        }
    }

    #[test]
    fn arity_zero_rows_all_intern_to_one_id() {
        let mut s = RowStore::new(0);
        let (a, fresh) = s.intern(&[]);
        let (b, fresh2) = s.intern(&[]);
        assert!(fresh && !fresh2);
        assert_eq!(a, b);
        assert_eq!(s.len(), 1);
        assert_eq!(s.row(a), &[] as &[Value]);
        assert_eq!(s.iter().count(), 1);
    }

    #[test]
    fn iter_is_id_order() {
        let mut s = RowStore::new(1);
        s.intern(&v(&[9]));
        s.intern(&v(&[3]));
        s.intern(&v(&[7]));
        let rows: Vec<u64> = s.iter().map(|r| r[0].get()).collect();
        assert_eq!(rows, vec![9, 3, 7]);
    }

    #[test]
    fn default_store_upholds_slot_invariant() {
        let mut s = RowStore::default();
        let (id, fresh) = s.intern(&[]);
        assert!(fresh);
        assert_eq!(s.row(id), &[] as &[Value]);
        assert_eq!(s.len(), 1);
    }

    /// A long ascending arena is accepted across every fold block, and a
    /// single descent is refused wherever it sits: inside the first
    /// block, on either side of a block edge, or at the last pair.
    #[test]
    fn strictness_fold_checks_every_block() {
        let rows = 3 * ASCEND_BLOCK + 5;
        for arity in [1, 2, 5] {
            let arena = |rows: &[u64]| -> Vec<Value> {
                rows.iter().flat_map(|&r| vec![Value(r); arity]).collect()
            };
            let ascending: Vec<u64> = (0..rows as u64).collect();
            assert!(RowStore::from_sorted_rows(arity, rows, arena(&ascending)).is_some());
            for at in [
                1,
                ASCEND_BLOCK - 1,
                ASCEND_BLOCK,
                ASCEND_BLOCK + 1,
                rows - 1,
            ] {
                let mut broken = ascending.clone();
                broken.swap(at - 1, at);
                let data = arena(&broken);
                assert_eq!(
                    RowStore::try_from_sorted_rows(arity, rows, data.clone()).err(),
                    Some(data),
                    "arity {arity}, descent at {at}"
                );
            }
        }
    }

    #[test]
    fn from_sorted_rows_defers_index_until_first_probe() {
        let s = RowStore::from_sorted_rows(2, 3, v(&[1, 2, 3, 4, 5, 6])).unwrap();
        assert!(s.index.get().is_none(), "adoption must not build the table");
        assert_eq!(s.lookup(&v(&[3, 4])), Some(RowId(1)));
        assert!(s.index.get().is_some(), "first probe builds the table");
        assert_eq!(s.lookup(&v(&[5, 7])), None);
        // Mutation after lazy adoption keeps the table coherent.
        let mut s = s;
        let (id, fresh) = s.intern(&v(&[0, 9]));
        assert!(fresh);
        assert_eq!(s.lookup(&v(&[0, 9])), Some(id));
    }

    #[test]
    fn push_unique_registers_in_index() {
        let mut s = RowStore::new(2);
        let id = s.push_unique_unchecked(&v(&[1, 2]));
        assert_eq!(s.lookup(&v(&[1, 2])), Some(id));
        let (again, fresh) = s.intern(&v(&[1, 2]));
        assert_eq!(again, id);
        assert!(!fresh);
    }
}
