//! Relations: finite sets of tuples (`Tup(X) → {0,1}`).
//!
//! A [`Relation`] is the set-semantics counterpart of [`crate::Bag`]; the
//! paper identifies relations with bags whose multiplicities are 0/1.
//! Relations carry the set-case baseline of Section 5.1 (the universal
//! relation problem) and the supports `R'` of bags.
//!
//! Storage mirrors [`crate::Bag`] minus the multiplicity column: one
//! columnar [`RowStore`] arena whose interning provides set semantics for
//! free, with the same sealed sorted-run invariant.

use crate::store::RowStore;
use crate::{Bag, CoreError, Result, Schema, Value};
use std::fmt;

/// A finite relation over a fixed schema.
#[derive(Clone)]
pub struct Relation {
    schema: Schema,
    store: RowStore,
    /// True iff rows are laid out in strictly increasing lex order.
    sealed: bool,
}

impl Relation {
    /// Creates an empty relation over `schema`.
    pub fn new(schema: Schema) -> Self {
        let arity = schema.arity();
        Relation {
            schema,
            store: RowStore::new(arity),
            sealed: true,
        }
    }

    /// Creates an empty relation with reserved capacity for `n` tuples.
    pub fn with_capacity(schema: Schema, n: usize) -> Self {
        let arity = schema.arity();
        Relation {
            schema,
            store: RowStore::with_capacity(arity, n),
            sealed: true,
        }
    }

    /// Builds a relation from rows (values in schema order). Sealed.
    pub fn from_rows<I, R>(schema: Schema, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = R>,
        R: AsRef<[Value]>,
    {
        let mut rel = Relation::new(schema);
        for row in rows {
            rel.insert_row(row.as_ref())?;
        }
        rel.seal();
        Ok(rel)
    }

    /// Convenience constructor from plain `u64` rows.
    pub fn from_u64s<'a, I>(schema: Schema, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = &'a [u64]>,
    {
        let mut rel = Relation::new(schema);
        let mut scratch: Vec<Value> = Vec::new();
        for row in rows {
            scratch.clear();
            scratch.extend(row.iter().copied().map(Value::new));
            rel.insert_row(&scratch)?;
        }
        rel.seal();
        Ok(rel)
    }

    /// Reassembles a sealed relation from a persisted arena — the
    /// snapshot loading seam, mirroring [`Bag::from_sealed_parts`]. The
    /// store must already satisfy the sealed sorted-run invariant
    /// (certified by [`RowStore::from_sorted_rows`]); interning provides
    /// set semantics, so there is no multiplicity column to validate.
    /// Returns `None` on an arity mismatch.
    pub fn from_sealed_store(schema: Schema, store: RowStore) -> Option<Relation> {
        if store.arity() != schema.arity() {
            return None;
        }
        Some(Relation::from_store(schema, store, true))
    }

    /// Adopts a store as a relation — how bulk operators finish. `sealed`
    /// asserts that the rows ascend strictly (debug-checked).
    pub(crate) fn from_store(schema: Schema, store: RowStore, sealed: bool) -> Relation {
        debug_assert_eq!(store.arity(), schema.arity());
        debug_assert!(
            !sealed || store.iter().zip(store.iter().skip(1)).all(|(a, b)| a < b),
            "a sealed relation requires a strictly ascending arena"
        );
        Relation {
            schema,
            store,
            sealed,
        }
    }

    /// The relation over `∅` holding the empty tuple — the identity of the
    /// relational join.
    pub fn unit() -> Self {
        let mut rel = Relation::new(Schema::empty());
        rel.insert_row(&[]).expect("empty row matches empty schema");
        rel
    }

    /// The relation's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Inserts a row (values in schema order).
    pub fn insert(&mut self, row: impl AsRef<[Value]>) -> Result<()> {
        self.insert_row(row.as_ref())
    }

    /// Slice-based [`Relation::insert`]: the allocation-free hot path.
    pub fn insert_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(CoreError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        let last = self.store.len();
        let (id, fresh) = self.store.intern(row);
        if fresh && self.sealed && last > 0 {
            let prev = crate::store::RowId(id.0 - 1);
            if self.store.row(prev) >= row {
                self.sealed = false;
            }
        }
        Ok(())
    }

    /// True iff rows are physically laid out as one sorted columnar run.
    #[inline]
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Restores the sorted-run layout (no-op when already sealed): the
    /// row sort of [`crate::Bag::seal`] with every count 1, on the
    /// calling thread, with no hashing.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        let arity = self.store.arity();
        let (laid_out, _) = crate::bag::sort_and_merge(
            arity,
            self.store.len(),
            self.store.values(),
            |_| 1,
            &crate::Deadline::NONE,
        )
        .expect("distinct rows neither overflow nor abort");
        self.store = RowStore::from_sorted_rows(arity, self.store.len(), laid_out)
            .expect("distinct interned rows sort strictly");
        self.sealed = true;
    }

    /// The backing columnar arena, for single-pass scans. Ids are dense
    /// (`0..len()`); on a sealed relation they follow lexicographic row
    /// order.
    #[inline]
    pub fn store(&self) -> &RowStore {
        &self.store
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, row: &[Value]) -> bool {
        self.store.lookup(row).is_some()
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True iff the relation has no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Iterates over rows in storage (id) order.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.store.iter()
    }

    /// Rows sorted lexicographically, for deterministic output. Free of
    /// sorting work when the relation is sealed.
    pub fn iter_sorted(&self) -> Vec<&[Value]> {
        let mut v: Vec<&[Value]> = self.iter().collect();
        if !self.sealed {
            v.sort_unstable();
        }
        v
    }

    /// Projection `R[Z]` under set semantics (duplicates collapse).
    ///
    /// A single columnar scan through a reused scratch buffer; when `Z`
    /// is a prefix of a sealed relation's schema, deduplication is the
    /// prefix marginal's group-by sweep (`store::prefix_groups`)
    /// with every row counting 1, and the result stays sealed.
    pub fn project(&self, sub: &Schema) -> Result<Relation> {
        let idx = self.schema.projection_indices(sub)?;
        let k = idx.len();
        if self.sealed && crate::tuple::is_prefix_projection(&idx) {
            let (data, groups) = crate::store::prefix_groups(
                &self.store,
                None,
                k,
                &crate::ExecConfig::sequential(),
            )?;
            let store = RowStore::from_sorted_rows(k, groups.len(), data)
                .expect("the groups of a sorted run ascend strictly");
            return Ok(Relation::from_store(sub.clone(), store, true));
        }
        let mut out = Relation::with_capacity(sub.clone(), self.len().min(1 << 20));
        let mut scratch: Vec<Value> = Vec::with_capacity(k);
        for row in self.iter() {
            scratch.clear();
            scratch.extend(idx.iter().map(|&i| row[i]));
            out.insert_row(&scratch)?;
        }
        Ok(out)
    }

    /// Set containment `R ⊆ S` (schemas must match to be comparable).
    pub fn subset_of(&self, other: &Relation) -> bool {
        self.schema == other.schema && self.iter().all(|r| other.contains(r))
    }

    /// Views this relation as a bag with all multiplicities 1.
    pub fn to_bag(&self) -> Bag {
        let sealed = self.sealed || self.iter().zip(self.iter().skip(1)).all(|(a, b)| a < b);
        Bag::adopt(
            self.schema.clone(),
            self.store.clone(),
            vec![1; self.len()],
            sealed,
        )
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.len() == other.len()
            && self.iter().all(|r| other.contains(r))
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for row in self.iter_sorted() {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "  {}", cells.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Attr;

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new(schema(&[0, 1]));
        r.insert(vec![Value(1), Value(2)]).unwrap();
        r.insert(vec![Value(1), Value(2)]).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[Value(1), Value(2)]));
        assert!(!r.contains(&[Value(2), Value(1)]));
    }

    #[test]
    fn arity_checked() {
        let mut r = Relation::new(schema(&[0, 1]));
        assert!(r.insert(vec![Value(1)]).is_err());
    }

    #[test]
    fn projection_collapses() {
        let r = Relation::from_u64s(schema(&[0, 1]), [&[1u64, 1][..], &[1, 2][..], &[2, 1][..]])
            .unwrap();
        let p = r.project(&schema(&[0])).unwrap();
        assert_eq!(p.len(), 2);
        assert!(p.contains(&[Value(1)]));
        assert!(p.contains(&[Value(2)]));
    }

    #[test]
    fn prefix_and_generic_projections_agree() {
        let rows: [&[u64]; 4] = [&[1, 1], &[1, 2], &[2, 1], &[2, 2]];
        let sealed = Relation::from_u64s(schema(&[0, 1]), rows).unwrap();
        assert!(sealed.is_sealed());
        let mut unsealed = Relation::new(schema(&[0, 1]));
        for row in rows.iter().rev() {
            unsealed
                .insert(row.iter().copied().map(Value::new).collect::<Vec<_>>())
                .unwrap();
        }
        assert!(!unsealed.is_sealed());
        for sub in [schema(&[0]), schema(&[1]), schema(&[0, 1])] {
            assert_eq!(
                sealed.project(&sub).unwrap(),
                unsealed.project(&sub).unwrap(),
                "projection onto {sub}"
            );
        }
    }

    #[test]
    fn unit_relation() {
        let u = Relation::unit();
        assert_eq!(u.len(), 1);
        assert!(u.contains(&[]));
        assert_eq!(u.schema(), &Schema::empty());
    }

    #[test]
    fn subset() {
        let r = Relation::from_u64s(schema(&[0]), [&[1u64][..]]).unwrap();
        let s = Relation::from_u64s(schema(&[0]), [&[1u64][..], &[2][..]]).unwrap();
        assert!(r.subset_of(&s));
        assert!(!s.subset_of(&r));
        let t = Relation::from_u64s(schema(&[1]), [&[1u64][..]]).unwrap();
        assert!(!r.subset_of(&t)); // different schema
    }

    #[test]
    fn to_bag_and_back() {
        let r = Relation::from_u64s(schema(&[0, 1]), [&[1u64, 2][..], &[3, 4][..]]).unwrap();
        let b = r.to_bag();
        assert!(b.is_relation());
        assert_eq!(b.support(), r);
        assert_eq!(b.unary_size(), 2);
    }

    #[test]
    fn display_is_sorted() {
        let r = Relation::from_u64s(schema(&[0]), [&[9u64][..], &[1][..]]).unwrap();
        let s = r.to_string();
        assert!(s.find("1").unwrap() < s.find("9").unwrap());
    }

    #[test]
    fn try_seal_with_matches_sequential_seal() {
        let mut rel = Relation::new(schema(&[0, 1]));
        for i in (0..300u64).rev() {
            rel.insert(vec![Value(i % 19), Value(i % 11)]).unwrap();
        }
        assert!(!rel.is_sealed());
        let mut seq = rel.clone();
        seq.seal();
        // `Relation` has one seal; the governed entry is the bag's, which
        // must lay the same rows out identically at every thread count.
        for threads in [2usize, 4, 8] {
            let mut bag = rel.to_bag();
            bag.try_seal_with(
                &crate::ExecConfig::builder()
                    .threads(threads)
                    .min_parallel_support(1)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            let par = bag.support();
            assert!(par.is_sealed());
            let seq_rows: Vec<&[Value]> = seq.iter().collect();
            let par_rows: Vec<&[Value]> = par.iter().collect();
            assert_eq!(par_rows, seq_rows, "threads = {threads}");
        }
    }

    #[test]
    fn seal_sorts_rows() {
        let mut r = Relation::new(schema(&[0]));
        for v in [5u64, 1, 9] {
            r.insert(vec![Value(v)]).unwrap();
        }
        assert!(!r.is_sealed());
        r.seal();
        assert!(r.is_sealed());
        let rows: Vec<u64> = r.iter().map(|row| row[0].get()).collect();
        assert_eq!(rows, vec![1, 5, 9]);
        assert!(r.contains(&[Value(5)]));
    }
}
