//! Bags: finite multisets of tuples (`Tup(X) → Z≥0`).
//!
//! A [`Bag`] stores only its support — tuples with non-zero multiplicity —
//! as a **columnar, arena-backed run**: all distinct rows live in one
//! contiguous [`RowStore`] with a parallel `Vec<u64>` multiplicity column.
//! This matches the paper's convention that a bag "can be viewed as a
//! finite set of elements of the form `t : R(t)`" while keeping the hot
//! paths (marginals, joins, flow-network construction) free of per-tuple
//! heap allocations.
//!
//! Storage invariants:
//!
//! * each distinct row is interned exactly once, and only live rows are
//!   stored: `mults[id]` is its multiplicity, never `0` ([`Bag::set`] to
//!   `0` removes the row from the columns);
//! * a **sealed** bag ([`Bag::is_sealed`]) additionally has its rows laid
//!   out in strictly increasing lexicographic order — the "sorted run"
//!   at-rest form that bulk constructors produce and [`Bag::seal`]
//!   restores after out-of-order inserts;
//! * multiplicity arithmetic is checked ([`CoreError::MultiplicityOverflow`]).
//!
//! The central operation is the **marginal** `R[Z]` of Equation (2):
//! ```text
//! R(t) = Σ { R(r) : r ∈ R', r[Z] = t }        for Z ⊆ X, t a Z-tuple
//! ```
//! computed by [`Bag::marginal`] as a single columnar scan — and, when
//! `Z` is a prefix of a sealed bag's schema, as a pure group-by sweep
//! with no hashing at all. Two easy facts from Section 2, both enforced
//! by tests and property tests:
//!
//! * `R'[Z] = R[Z]'` (support of marginal = projection of support), and
//! * `R[Z][W] = R[W]` for `W ⊆ Z ⊆ X` (marginals commute with nesting).

use crate::exec::ExecConfig;
use crate::store::{RowId, RowStore};
use crate::{CoreError, DeltaApply, DeltaSet, Relation, Result, Schema, Value};
use std::fmt;
use std::sync::Arc;

/// A finite bag (multiset) of tuples over a fixed schema.
///
/// The rows sit behind an `Arc`, so a clone copies only the
/// multiplicity column, and a bag that changes only counts (an in-place
/// delta on a bag shared with another owner) shares its rows with the
/// original. A mutation that adds rows to shared rows copies them first.
#[derive(Clone)]
pub struct Bag {
    schema: Schema,
    store: Arc<RowStore>,
    /// Parallel to `store` ids; never `0`.
    mults: Vec<u64>,
    /// True iff rows are in strictly increasing lex order.
    sealed: bool,
}

impl Bag {
    /// Creates an empty bag over `schema`.
    pub fn new(schema: Schema) -> Self {
        let arity = schema.arity();
        Bag {
            schema,
            store: Arc::new(RowStore::new(arity)),
            mults: Vec::new(),
            sealed: true,
        }
    }

    /// Creates an empty bag with reserved capacity for `n` support tuples.
    pub fn with_capacity(schema: Schema, n: usize) -> Self {
        let arity = schema.arity();
        Bag {
            schema,
            store: Arc::new(RowStore::with_capacity(arity, n)),
            mults: Vec::with_capacity(n),
            sealed: true,
        }
    }

    /// Builds a bag from `(row, multiplicity)` pairs; multiplicities of
    /// equal rows accumulate (checked). The result is sealed. A thin
    /// wrapper over [`Bag::from_arena`] under a sequential configuration.
    pub fn from_rows<I, R>(schema: Schema, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = (R, u64)>,
        R: AsRef<[Value]>,
    {
        let arity = schema.arity();
        let (mut data, mut mults) = (Vec::new(), Vec::new());
        for (row, m) in rows {
            let row = row.as_ref();
            if row.len() != arity {
                return Err(CoreError::ArityMismatch {
                    expected: arity,
                    got: row.len(),
                });
            }
            data.extend_from_slice(row);
            mults.push(m);
        }
        Bag::from_arena(schema, data, mults, &ExecConfig::sequential())
    }

    /// Convenience constructor from plain `u64` rows, used pervasively in
    /// tests and examples: `Bag::from_u64s(schema, [(&[1,2], 3), …])`.
    pub fn from_u64s<'a, I>(schema: Schema, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = (&'a [u64], u64)>,
    {
        Bag::from_rows(
            schema,
            rows.into_iter()
                .map(|(row, m)| (row.iter().copied().map(Value::new).collect::<Vec<_>>(), m)),
        )
    }

    /// Builds a sealed bag from a row-major arena without hashing: `data`
    /// holds `mults.len()` rows of the schema's arity back to back, and
    /// rows may repeat. The bulk constructor behind [`Bag::from_rows`],
    /// the witness fill, non-prefix marginals and the text parser
    /// ([`crate::io::parse_bag_with`]).
    ///
    /// An arena that is already a sealed layout — rows strictly ascending,
    /// no multiplicity zero — is **adopted** as it stands: one pass over
    /// the multiplicities and one over the rows, which is the
    /// distinctness certificate of [`RowStore::from_sorted_rows`], and no
    /// sort, pack or copy. The witness fill emits its rows in order
    /// whenever the two schemas allow it, and a file
    /// [`crate::io::write_bag`] wrote parses in order, so both take this
    /// path. Any other arena is **sorted**, on the calling thread, by
    /// the row sort every seal shares (`sort_and_merge`), and one merge
    /// sums each run of equal rows with a checked add, drops zero sums
    /// and writes each kept row out in order. Rows that pack into 64-bit
    /// words sort as `(word, row)` pairs through the radix kernel of
    /// [`crate::pack`] and unpack from their words; wider rows sort their
    /// ids by one slice compare and are copied. Either way the dedup
    /// table stays unbuilt until the first content probe, as after a
    /// snapshot load, and the result equals inserting every row and
    /// sealing; `cfg` contributes only its deadline. The `bag::seal`
    /// failpoint fires on entry, before either path.
    ///
    /// # Errors
    ///
    /// [`CoreError::ArityMismatch`] when `data` is not `mults.len()` rows
    /// of the schema's arity; [`CoreError::MultiplicityOverflow`] when
    /// the copies of one row sum past `u64`; [`CoreError::Aborted`] when
    /// `cfg`'s deadline has fired. The deadline is polled on entry, so it
    /// aborts the adopt path too, and once more between the sort path's
    /// sort and its output, as a seal polls it.
    pub fn from_arena(
        schema: Schema,
        data: Vec<Value>,
        mults: Vec<u64>,
        cfg: &ExecConfig,
    ) -> Result<Bag> {
        let arity = schema.arity();
        let rows = mults.len();
        if Some(data.len()) != rows.checked_mul(arity) {
            // Report the row width the arena implies, rounded away from
            // the expected one.
            let got = match (data.len().cmp(&(rows * arity)), rows) {
                (_, 0) => data.len(),
                (std::cmp::Ordering::Greater, _) => data.len().div_ceil(rows),
                _ => data.len() / rows,
            };
            return Err(CoreError::ArityMismatch {
                expected: arity,
                got,
            });
        }
        assert!(
            rows < (u32::MAX - 1) as usize,
            "RowStore capacity (u32 ids) exhausted"
        );
        crate::fault::fire("bag::seal");
        if let Some(reason) = cfg.deadline().poll() {
            return Err(CoreError::Aborted(reason));
        }
        // A zero multiplicity must drop out, which only the sort path does.
        let data = if mults.contains(&0) {
            data
        } else {
            match RowStore::try_from_sorted_rows(arity, rows, data) {
                Ok(store) => {
                    return Ok(Bag {
                        schema,
                        store: Arc::new(store),
                        mults,
                        sealed: true,
                    })
                }
                Err(data) => data,
            }
        };
        let (laid_out, sums) = sort_and_merge(arity, rows, &data, |i| mults[i], cfg.deadline())?;
        let store = RowStore::from_sorted_rows(arity, sums.len(), laid_out)
            .expect("merged neighbours of a sorted arena ascend strictly");
        Ok(Bag::adopt(schema, store, sums, true))
    }

    /// The bag holding only the empty tuple with multiplicity `m`
    /// (the marginal of any bag with `‖R‖u = m` on the empty schema).
    pub fn of_empty_tuple(m: u64) -> Self {
        let mut bag = Bag::new(Schema::empty());
        if m > 0 {
            bag.insert_row(&[], m)
                .expect("empty row matches empty schema");
        }
        bag
    }

    /// The bag's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Adds `mult` occurrences of `row` (values in schema order).
    ///
    /// Inserting multiplicity `0` is a no-op, preserving the invariant
    /// that the stored support is exactly the rows with `R(t) > 0`.
    ///
    /// Accepts anything viewable as a `&[Value]` slice (`Vec`, array,
    /// slice); the row is copied into the columnar arena only when it is
    /// new, so no intermediate `Box<[Value]>` is ever built.
    pub fn insert(&mut self, row: impl AsRef<[Value]>, mult: u64) -> Result<()> {
        self.insert_row(row.as_ref(), mult)
    }

    /// Slice-based [`Bag::insert`]: the allocation-free hot path.
    pub fn insert_row(&mut self, row: &[Value], mult: u64) -> Result<()> {
        if row.len() != self.schema.arity() {
            return Err(CoreError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        if mult == 0 {
            return Ok(());
        }
        if let Some(id) = self.intern_row(row, mult) {
            let slot = &mut self.mults[id.index()];
            *slot = slot
                .checked_add(mult)
                .ok_or(CoreError::MultiplicityOverflow)?;
        }
        Ok(())
    }

    /// Interns `row`; when fresh, records `mult` and updates the
    /// sorted-run tracking (a fresh append keeps the run sealed only
    /// when it extends it). Returns the id of an already present row for
    /// the caller to update.
    fn intern_row(&mut self, row: &[Value], mult: u64) -> Option<RowId> {
        let last = self.store.len();
        let (id, fresh) = Arc::make_mut(&mut self.store).intern(row);
        if !fresh {
            return Some(id);
        }
        self.mults.push(mult);
        if self.sealed && last > 0 && self.store.row(RowId(id.0 - 1)) >= row {
            self.sealed = false;
        }
        None
    }

    /// Sets the multiplicity of `row` exactly. Setting `0` removes the
    /// row from the columns and leaves the bag **sealed**: an unsealed
    /// bag is sealed first ([`Bag::seal`]), and a stored row is dropped
    /// by copying the run around it, as a delta that removes one row does.
    pub fn set(&mut self, row: impl AsRef<[Value]>, mult: u64) -> Result<()> {
        let row = row.as_ref();
        if row.len() != self.schema.arity() {
            return Err(CoreError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        if mult == 0 {
            self.seal();
            if let Ok(at) = self.position(row) {
                *self = merge_successor(self, &[(at, 0)], &[]);
            }
            return Ok(());
        }
        if let Some(id) = self.intern_row(row, mult) {
            self.mults[id.index()] = mult;
        }
        Ok(())
    }

    /// The multiplicity `R(t)` of a row (0 if absent).
    #[inline]
    pub fn multiplicity(&self, row: &[Value]) -> u64 {
        match self.store.lookup(row) {
            Some(id) => self.mults[id.index()],
            None => 0,
        }
    }

    /// `‖R‖supp`: the number of support tuples.
    #[inline]
    pub fn support_size(&self) -> usize {
        self.mults.len()
    }

    /// True iff the bag is empty (all multiplicities zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.mults.is_empty()
    }

    /// `‖R‖mu`: the largest multiplicity (0 for the empty bag).
    pub fn multiplicity_bound(&self) -> u64 {
        self.mults.iter().copied().max().unwrap_or(0)
    }

    /// `‖R‖mb`: the largest number of bits over all multiplicities, i.e.
    /// `max ⌈log₂(R(r)+1)⌉` (0 for the empty bag).
    pub fn multiplicity_size(&self) -> u32 {
        bits(self.multiplicity_bound())
    }

    /// `‖R‖u = Σ R(r)`: the multiset cardinality. Returned as `u128`
    /// because sums of `u64` multiplicities can exceed `u64::MAX`.
    pub fn unary_size(&self) -> u128 {
        self.mults.iter().map(|&m| m as u128).sum()
    }

    /// `‖R‖b = Σ ⌈log₂(R(r)+1)⌉`: the bit-size of the multiplicity column.
    pub fn binary_size(&self) -> u64 {
        self.mults.iter().map(|&m| bits(m) as u64).sum()
    }

    /// Iterates over `(row, multiplicity)` in storage (id) order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], u64)> + '_ {
        self.store.iter().zip(self.mults.iter().copied())
    }

    /// Rows with multiplicities in lexicographic order — use whenever
    /// deterministic order matters (display, harness output, network
    /// vertex numbering). On a **sealed** bag this walks the sorted run
    /// directly with **no allocation**; only an unsealed bag pays for a
    /// sort of a scratch reference vector. Callers that index rows by
    /// sorted position want [`Bag::sorted_rows`] instead.
    pub fn iter_sorted(&self) -> SortedRows<'_> {
        if self.sealed {
            SortedRows(SortedRowsInner::Sealed {
                store: &self.store,
                mults: &self.mults,
                next: 0,
            })
        } else {
            let mut v: Vec<(&[Value], u64)> = self.iter().collect();
            v.sort_unstable_by(|a, b| a.0.cmp(b.0));
            SortedRows(SortedRowsInner::Sorted(v.into_iter()))
        }
    }

    /// Materialized [`Bag::iter_sorted`], for callers that need random
    /// access by sorted position (flow-network vertex numbering, random
    /// perturbations).
    pub fn sorted_rows(&self) -> Vec<(&[Value], u64)> {
        self.iter_sorted().collect()
    }

    /// True iff rows are physically laid out as one lexicographically
    /// sorted columnar run.
    #[inline]
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Restores the sorted-run invariant: rows are re-laid-out in
    /// lexicographic order.
    ///
    /// `O(n log n)` when unsorted; a no-op on sealed bags. Sealing makes
    /// [`Bag::iter_sorted`] allocation-free, lets prefix marginals and
    /// merge joins skip their sort step, and enables key-range sharding
    /// ([`crate::exec`]). Equivalent to [`Bag::try_seal_with`] without a
    /// deadline.
    pub fn seal(&mut self) {
        self.try_seal_with(&ExecConfig::sequential())
            .expect("a seal without a deadline cannot abort");
    }

    /// [`Bag::seal`] under `cfg`'s [`crate::Deadline`], polled once
    /// before the re-layout. The rows go through the row sort of
    /// [`Bag::from_arena`] (`sort_and_merge`) on the calling thread, and
    /// the result is adopted with its dedup table unbuilt: the sorted
    /// arena certifies that its rows are distinct, and the table builds
    /// on the first content probe. On an abort the bag is left
    /// **exactly** as it was — unsealed, layout and multiplicities
    /// untouched — because the seal commits only after the merge.
    ///
    /// # Errors
    ///
    /// [`CoreError::Aborted`] when the deadline has fired.
    pub fn try_seal_with(&mut self, cfg: &ExecConfig) -> Result<()> {
        if self.sealed {
            return Ok(());
        }
        crate::fault::fire("bag::seal");
        let arity = self.schema.arity();
        let (laid_out, sums) = sort_and_merge(
            arity,
            self.mults.len(),
            self.store.values(),
            |i| self.mults[i],
            cfg.deadline(),
        )?;
        let store = RowStore::from_sorted_rows(arity, sums.len(), laid_out)
            .expect("distinct interned rows sort strictly");
        *self = Bag::adopt(self.schema.clone(), store, sums, true);
        Ok(())
    }

    /// Applies a batch of signed multiplicity edits atomically; see
    /// [`Bag::apply_delta_with`]. Equivalent to it under a sequential
    /// configuration.
    pub fn apply_delta(&mut self, delta: &DeltaSet) -> Result<DeltaApply> {
        self.apply_delta_with(delta, &ExecConfig::sequential())
    }

    /// Applies a [`DeltaSet`] of signed multiplicity edits — the update
    /// primitive of the incremental consistency layer — by staging it
    /// ([`Bag::stage`]), building the successor, and only then writing
    /// the result into `self`:
    ///
    /// * edits that change an existing row's multiplicity to another
    ///   non-zero value patch the multiplicity column **in place** — a
    ///   sealed bag stays sealed with no re-layout at all;
    /// * edits that add fresh rows or drop rows to zero build a
    ///   **successor** bag in one merge of the old run with the sorted
    ///   fresh rows ([`StagedDelta::build`]) — never the full
    ///   `O(n log n)` re-sort of [`Bag::seal`].
    ///
    /// Nothing is written until the successor is built, so a failed
    /// update — an overflow or underflow of any intermediate count, a
    /// schema mismatch, an abort, a contained panic — leaves the bag
    /// exactly as it was. An unsealed bag is sealed first ([`Bag::seal`]
    /// keeps its contents, even when the delta then fails, and
    /// [`DeltaApply::resealed`] reports it); the returned [`DeltaApply`]
    /// reports what happened.
    pub fn apply_delta_with(&mut self, delta: &DeltaSet, cfg: &ExecConfig) -> Result<DeltaApply> {
        let unsealed = !self.sealed;
        self.try_seal_with(cfg)?;
        let mut staged = self.stage();
        let mut applied = staged.fold(delta)?;
        let next = staged.build(cfg)?;
        next.commit(self);
        applied.resealed |= unsealed;
        Ok(applied)
    }

    /// Starts staging deltas against this bag; see [`StagedDelta`].
    ///
    /// # Panics
    ///
    /// Panics if the bag is not sealed ([`Bag::seal`]); a stream's bags
    /// always are.
    pub fn stage(&self) -> StagedDelta<'_> {
        assert!(self.sealed, "deltas are staged against sealed bags");
        StagedDelta {
            bag: self,
            rows: Default::default(),
            round: 0,
        }
    }

    /// Where `row` sits in a sealed bag's run: `Ok(position)` when it is
    /// stored, `Err(insertion point)` otherwise. One binary search of the
    /// arena, so the dedup table is never built.
    fn position(&self, row: &[Value]) -> std::result::Result<usize, usize> {
        let (arity, vals) = (self.schema.arity(), self.store.values());
        let (mut lo, mut hi) = (0, self.store.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match vals[mid * arity..(mid + 1) * arity].cmp(row) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// The support `Supp(R)` as a relation over the same schema.
    pub fn support(&self) -> Relation {
        // Every stored row is live, so the support is the arena whole.
        Relation::from_store(self.schema.clone(), (*self.store).clone(), self.sealed)
    }

    /// The marginal `R[Z]` of Equation (2) of the paper.
    ///
    /// Requires `Z ⊆ X`; multiplicities of collapsing tuples are summed
    /// with overflow checking, and the result is sealed. When `Z` is a
    /// *prefix* of a sealed bag's schema this is a group-by sweep over
    /// adjacent rows; otherwise the projected rows go into one arena with
    /// a multiplicity column, which [`Bag::from_arena`] sorts and merges.
    /// Neither path hashes a row.
    pub fn marginal(&self, sub: &Schema) -> Result<Bag> {
        self.marginal_with(sub, &ExecConfig::sequential())
    }

    /// [`Bag::marginal`] under an explicit execution configuration.
    ///
    /// When `Z` is a prefix of a sealed bag's schema, the group-by sweep
    /// (`store::prefix_groups`) shards at key-group boundaries
    /// per `cfg`; its groups ascend, so the result is sealed and
    /// byte-identical at every thread count. All other cases (unsealed or
    /// non-prefix `Z`) project on the calling thread and adopt through
    /// [`Bag::from_arena`] under `cfg`'s deadline.
    ///
    /// # Errors
    ///
    /// [`CoreError::MultiplicityOverflow`] when a group's sum passes
    /// `u64`; [`CoreError::Aborted`] when `cfg`'s deadline has fired.
    pub fn marginal_with(&self, sub: &Schema, cfg: &ExecConfig) -> Result<Bag> {
        let idx = self.schema.projection_indices(sub)?;
        if self.sealed && crate::tuple::is_prefix_projection(&idx) {
            let (data, sums) =
                crate::store::prefix_groups(&self.store, Some(&self.mults), idx.len(), cfg)?;
            let store = RowStore::from_sorted_rows(idx.len(), sums.len(), data)
                .expect("the groups of a sorted run ascend strictly");
            return Ok(Bag::adopt(sub.clone(), store, sums, true));
        }
        let mut data = Vec::with_capacity(self.mults.len() * idx.len());
        let mut mults = Vec::with_capacity(self.mults.len());
        for (row, m) in self.iter() {
            data.extend(idx.iter().map(|&i| row[i]));
            mults.push(m);
        }
        Bag::from_arena(sub.clone(), data, mults, cfg)
    }

    /// Reassembles a sealed bag from its persisted parts — the snapshot
    /// loading seam. `store` must already satisfy the sealed sorted-run
    /// invariant (certified by [`RowStore::from_sorted_rows`], not
    /// recomputed here), `mults` is the dense multiplicity column. No
    /// re-interning, no re-sorting. Returns `None` on any shape violation:
    /// arity mismatch, column-length mismatch, or a zero multiplicity (a
    /// bag stores only live rows).
    pub fn from_sealed_parts(schema: Schema, store: RowStore, mults: Vec<u64>) -> Option<Bag> {
        if store.arity() != schema.arity() || mults.len() != store.len() {
            return None;
        }
        if mults.contains(&0) {
            return None;
        }
        Some(Bag::adopt(schema, store, mults, true))
    }

    /// Adopts a store of distinct rows and its multiplicity column, free
    /// of zeros — how every bulk operator finishes. `sealed` asserts that
    /// the rows ascend strictly (debug-checked); the store's dedup table
    /// stays unbuilt unless already built.
    pub(crate) fn adopt(schema: Schema, store: RowStore, mults: Vec<u64>, sealed: bool) -> Bag {
        debug_assert_eq!(store.arity(), schema.arity());
        debug_assert_eq!(mults.len(), store.len());
        debug_assert!(!mults.contains(&0), "adopted rows must be live");
        debug_assert!(
            !sealed || store.iter().zip(store.iter().skip(1)).all(|(a, b)| a < b),
            "a sealed bag requires a strictly ascending arena"
        );
        Bag {
            schema,
            store: Arc::new(store),
            mults,
            sealed,
        }
    }

    /// The multiplicity column by dense row id.
    pub(crate) fn mults(&self) -> &[u64] {
        &self.mults
    }

    /// The backing columnar arena. Join and flow-network hot paths index
    /// rows by id through this instead of materializing reference
    /// vectors; pair it with [`Bag::live_ids`] and [`Bag::mult_of`] for
    /// single-pass columnar scans.
    #[inline]
    pub fn store(&self) -> &RowStore {
        &self.store
    }

    /// Multiplicity by dense row id.
    #[inline]
    pub fn mult_of(&self, id: u32) -> u64 {
        self.mults[id as usize]
    }

    /// Ids of the support rows in storage order: `0..store().len()`,
    /// since every stored row is live. On a sealed bag this is
    /// lexicographic row order.
    pub fn live_ids(&self) -> std::ops::Range<u32> {
        0..self.store.len() as u32
    }

    /// Bag containment `R ⊆ᵇ S`: `R(t) ≤ S(t)` for every tuple.
    ///
    /// Returns `false` (rather than an error) when the schemas differ,
    /// since bags over different schemas are simply incomparable.
    pub fn contained_in(&self, other: &Bag) -> bool {
        self.schema == other.schema && self.iter().all(|(r, m)| m <= other.multiplicity(r))
    }

    /// True iff every multiplicity is ≤ 1 (the bag "is" a relation).
    pub fn is_relation(&self) -> bool {
        self.mults.iter().all(|&m| m <= 1)
    }

    /// Pointwise sum of two bags over the same schema (checked).
    pub fn sum(&self, other: &Bag) -> Result<Bag> {
        if self.schema != other.schema {
            return Err(CoreError::SchemaMismatch {
                left: self.schema.clone(),
                right: other.schema.clone(),
            });
        }
        let mut out = self.clone();
        for (row, m) in other.iter() {
            out.insert_row(row, m)?;
        }
        Ok(out)
    }

    /// Multiplies every multiplicity by `k` (checked). `k = 0` empties
    /// the bag.
    pub fn scale(&self, k: u64) -> Result<Bag> {
        if k == 0 {
            return Ok(Bag::new(self.schema.clone()));
        }
        // Scaling keeps the rows and their order.
        let mut out = self.clone();
        for m in &mut out.mults {
            *m = m.checked_mul(k).ok_or(CoreError::MultiplicityOverflow)?;
        }
        Ok(out)
    }

    /// Renames attributes via `f`, keeping rows. The map must be
    /// injective on the schema (checked via resulting arity).
    ///
    /// Used by the paper's reduction in Lemma 6, which replaces
    /// `R_{n-1}(A_{n-1} A_1)` by "an identical copy of schema
    /// `A_{n-1} A_n`".
    pub fn rename(&self, f: impl Fn(crate::Attr) -> crate::Attr) -> Result<Bag> {
        let new_attrs: Vec<crate::Attr> = self.schema.iter().map(&f).collect();
        let new_schema = Schema::from_attrs(new_attrs.iter().copied());
        if new_schema.arity() != self.schema.arity() {
            return Err(CoreError::DuplicateAttr(
                // Find one collision for the error message.
                new_attrs
                    .iter()
                    .copied()
                    .find(|a| new_attrs.iter().filter(|&&b| b == *a).count() > 1)
                    .unwrap_or(crate::Attr::new(0)),
            ));
        }
        // Position j of the new schema takes position src[j] of the old.
        let mut src = vec![0usize; new_attrs.len()];
        for (i, &a) in new_attrs.iter().enumerate() {
            src[new_schema.position(a).expect("renamed attr in new schema")] = i;
        }
        let (mut data, mut mults) = (Vec::with_capacity(self.mults.len() * src.len()), Vec::new());
        for (row, m) in self.iter() {
            data.extend(src.iter().map(|&i| row[i]));
            mults.push(m);
        }
        // A permutation of distinct rows stays distinct.
        let store = RowStore::from_distinct_rows(src.len(), mults.len(), data);
        let sealed = mults.is_empty();
        Ok(Bag::adopt(new_schema, store, mults, sealed))
    }
}

/// The row sort behind every sealed run: [`Bag::from_arena`]'s sort
/// path, [`Bag::try_seal_with`] and [`Relation::seal`] (every count 1).
/// Sorts the `rows` rows of the row-major arena `data` and merges each
/// run of equal rows, summing `mult(i)` of row `i` with a checked add and
/// dropping zero sums. Returns the sorted arena and its multiplicity
/// column; callers adopt them through [`RowStore::from_sorted_rows`].
///
/// When the rows pack into 64-bit words, the radix kernel of
/// [`crate::pack`] sorts `(word, row)` pairs, runs are runs of equal
/// words, and each kept row is unpacked from its word straight into the
/// output arena: no comparator, gather or slice compare. Wider rows
/// (and arenas below the packing floor) sort their ids by one
/// `sort_unstable_by` slice compare, and the merge copies their rows.
///
/// # Errors
///
/// As [`merge_runs`].
pub(crate) fn sort_and_merge(
    arity: usize,
    rows: usize,
    data: &[Value],
    mult: impl Fn(usize) -> u64,
    deadline: &crate::Deadline,
) -> Result<(Vec<Value>, Vec<u64>)> {
    // Packing is injective, so equal words are equal rows.
    if let Some(spec) = crate::pack::arena_spec(arity, data, rows) {
        let pairs = crate::pack::sorted_pairs(&spec, arity, data, 0..rows as u32);
        return merge_runs(
            arity,
            rows,
            deadline,
            |p| mult(pairs[p].1 as usize),
            |p, q| pairs[p].0 == pairs[q].0,
            |p, out| spec.unpack_row(pairs[p].0, out),
        );
    }
    let row = |i: u32| &data[i as usize * arity..(i as usize + 1) * arity];
    let mut order: Vec<u32> = (0..rows as u32).collect();
    order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
    merge_runs(
        arity,
        rows,
        deadline,
        |p| mult(order[p] as usize),
        |p, q| row(order[p]) == row(order[q]),
        |p, out| out.copy_from_slice(row(order[p])),
    )
}

/// The merge half of [`sort_and_merge`], over `n` sorted positions: each run of positions whose rows are the `same` sums its
/// `mult`s with a checked add, a zero sum drops out, and each kept run
/// has `write` put its row into the next `arity` slots of the output
/// arena. Returns the arena and its multiplicity column.
///
/// # Errors
///
/// [`CoreError::MultiplicityOverflow`] when a run's sum passes `u64`;
/// [`CoreError::Aborted`] when `deadline` has fired (polled once, before
/// the output is written).
fn merge_runs(
    arity: usize,
    n: usize,
    deadline: &crate::Deadline,
    mult: impl Fn(usize) -> u64,
    same: impl Fn(usize, usize) -> bool,
    mut write: impl FnMut(usize, &mut [Value]),
) -> Result<(Vec<Value>, Vec<u64>)> {
    if let Some(reason) = deadline.poll() {
        return Err(CoreError::Aborted(reason));
    }
    let mut laid_out = vec![Value(0); n * arity];
    let mut sums = Vec::with_capacity(n);
    let mut p = 0;
    while p < n {
        let mut m = mult(p);
        let mut q = p + 1;
        while q < n && same(p, q) {
            m = m
                .checked_add(mult(q))
                .ok_or(CoreError::MultiplicityOverflow)?;
            q += 1;
        }
        if m > 0 {
            let at = sums.len() * arity;
            write(p, &mut laid_out[at..at + arity]);
            sums.push(m);
        }
        p = q;
    }
    laid_out.truncate(sums.len() * arity);
    Ok((laid_out, sums))
}

/// Deltas staged against one sealed bag: validated, but not yet applied. A
/// batch folds its deltas into one staged delta per bag before anything
/// is written, builds each bag's [`Successor`] off to the side, and only
/// then installs them, so a failure at any step leaves every bag as it
/// was: the source is borrowed, never mutated, and dropping a staged
/// delta or a successor undoes nothing because nothing was done.
///
/// Each edited row is found by one binary search of the sorted run, so
/// staging builds no dedup table.
pub struct StagedDelta<'a> {
    bag: &'a Bag,
    /// Every edited row, by content.
    rows: crate::FxHashMap<&'a [Value], StagedRow>,
    /// The number of deltas folded so far.
    round: usize,
}

/// One edited row of a [`StagedDelta`].
#[derive(Clone, Copy)]
struct StagedRow {
    /// `Ok(position)` of a stored row, `Err(insertion point)` of a
    /// fresh one.
    slot: std::result::Result<usize, usize>,
    /// The row's multiplicity in the bag.
    old: u64,
    /// The row's count after every delta folded so far.
    count: u64,
    /// The count before the round that last edited the row.
    before: u64,
    /// The round that last edited the row.
    round: usize,
}

impl<'a> StagedDelta<'a> {
    /// Folds `delta` into the staged counts, after the deltas folded
    /// before it, and reports what it does against those counts.
    ///
    /// # Errors
    ///
    /// [`CoreError::SchemaMismatch`] when `delta` is over another schema;
    /// [`CoreError::MultiplicityUnderflow`] /
    /// [`CoreError::MultiplicityOverflow`] at the first edit that takes a
    /// count outside `u64`. The staged delta is then spent: drop it.
    pub fn fold(&mut self, delta: &'a DeltaSet) -> Result<DeltaApply> {
        let bag = self.bag;
        if *delta.schema() != bag.schema {
            return Err(CoreError::SchemaMismatch {
                left: delta.schema().clone(),
                right: bag.schema.clone(),
            });
        }
        self.round += 1;
        for e in delta.edits() {
            let row = self.rows.entry(e.row()).or_insert_with(|| {
                let slot = bag.position(e.row());
                let old = slot.map_or(0, |at| bag.mults[at]);
                StagedRow {
                    slot,
                    old,
                    count: old,
                    before: old,
                    round: 0,
                }
            });
            if row.round != self.round {
                row.round = self.round;
                row.before = row.count;
            }
            row.count = row
                .count
                .checked_add_signed(e.delta())
                .ok_or(if e.delta() < 0 {
                    CoreError::MultiplicityUnderflow
                } else {
                    CoreError::MultiplicityOverflow
                })?;
        }
        let mut out = DeltaApply {
            touched: 0,
            added: 0,
            removed: 0,
            resealed: false,
            unary_change: 0,
        };
        for row in self.rows.values().filter(|r| r.round == self.round) {
            let StagedRow { before, count, .. } = *row;
            if count == before {
                continue;
            }
            out.unary_change += count as i128 - before as i128;
            match (before, count) {
                (_, 0) => out.removed += 1,
                (0, _) => out.added += 1,
                _ => out.touched += 1,
            }
        }
        out.resealed = out.support_changed();
        Ok(out)
    }

    /// Builds the bag's successor from the folded deltas' net effect.
    ///
    /// When the support stays the same, the successor is the new counts
    /// of the edited rows. Otherwise it is a new sealed bag, built in
    /// **one merge** on the calling thread: the old run,
    /// copied stretch by stretch and minus the dropped rows, interleaved
    /// with the fresh rows sorted by insertion point, written into new
    /// columns and adopted through [`RowStore::from_sorted_rows`]. The
    /// merge runs as one executor task, so `cfg`'s deadline is polled
    /// before and after it and a panic there (the
    /// `bag::reseal_delta::merge` failpoint) surfaces as
    /// [`CoreError::WorkerPanicked`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Aborted`] and [`CoreError::WorkerPanicked`] from the
    /// merge.
    pub fn build(self, cfg: &ExecConfig) -> Result<Successor> {
        let bag = self.bag;
        let mut counts: Vec<(usize, u64)> = Vec::new();
        let mut fresh: Vec<(usize, &[Value], u64)> = Vec::new();
        for (&row, r) in &self.rows {
            match r.slot {
                Ok(at) if r.count != r.old => counts.push((at, r.count)),
                Err(at) if r.count > 0 => fresh.push((at, row, r.count)),
                _ => {}
            }
        }
        if fresh.is_empty() && counts.iter().all(|&(_, m)| m > 0) {
            return Ok(Successor(Next::Counts(counts)));
        }
        counts.sort_unstable_by_key(|&(at, _)| at);
        fresh.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        let mut next = crate::exec::try_run_tasks(cfg, vec![()], |()| {
            crate::fault::fire("bag::reseal_delta::merge");
            merge_successor(bag, &counts, &fresh)
        })?;
        Ok(Successor(Next::Rebuilt(
            next.pop().expect("one task, one bag"),
        )))
    }
}

/// The merge behind [`StagedDelta::build`]: the sealed run of `bag`
/// with each of `counts` (ascending positions) set to its new count,
/// the zeros dropped, and `fresh` (ascending insertion points, rows
/// ascending within one point) inserted, as a new sealed bag. A fresh
/// row sorts before the stored row at its insertion point, and every
/// stretch between two edits is copied whole.
fn merge_successor(bag: &Bag, counts: &[(usize, u64)], fresh: &[(usize, &[Value], u64)]) -> Bag {
    let (arity, vals, mults) = (bag.schema.arity(), bag.store.values(), &bag.mults[..]);
    let dropped = counts.iter().filter(|&&(_, m)| m == 0).count();
    let len = mults.len() - dropped + fresh.len();
    let (mut data, mut sums) = (Vec::with_capacity(len * arity), Vec::with_capacity(len));
    let copy = |data: &mut Vec<Value>, sums: &mut Vec<u64>, from: usize, to: usize| {
        data.extend_from_slice(&vals[from * arity..to * arity]);
        sums.extend_from_slice(&mults[from..to]);
    };
    let (mut at, mut c, mut f) = (0, 0, 0);
    loop {
        let fresh_first = match (fresh.get(f), counts.get(c)) {
            (Some(&(ins, ..)), Some(&(pos, _))) => ins <= pos,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if fresh_first {
            let (ins, row, m) = fresh[f];
            copy(&mut data, &mut sums, at, ins);
            data.extend_from_slice(row);
            sums.push(m);
            (at, f) = (ins, f + 1);
        } else {
            let (pos, m) = counts[c];
            copy(&mut data, &mut sums, at, pos + usize::from(m > 0));
            if m > 0 {
                *sums.last_mut().expect("the copy ends with row pos") = m;
            }
            (at, c) = (pos + 1, c + 1);
        }
    }
    copy(&mut data, &mut sums, at, mults.len());
    let store = RowStore::from_sorted_rows(arity, sums.len(), data)
        .expect("the merged run ascends strictly");
    Bag::adopt(bag.schema.clone(), store, sums, true)
}

/// What a [`StagedDelta`] does to its bag, built and ready to install.
pub struct Successor(Next);

enum Next {
    /// The support is unchanged: new counts by position in the run.
    Counts(Vec<(usize, u64)>),
    /// A new sealed bag.
    Rebuilt(Bag),
}

impl Successor {
    /// Writes the successor into `bag`, the bag it was staged against.
    pub fn commit(self, bag: &mut Bag) {
        match self.0 {
            Next::Counts(counts) => {
                for (at, m) in counts {
                    bag.mults[at] = m;
                }
            }
            Next::Rebuilt(next) => *bag = next,
        }
    }

    /// [`Successor::commit`] into a shared bag: a rebuilt successor
    /// replaces the `Arc`, and new counts are written into a copy when
    /// the bag is shared (`Arc::make_mut`), which copies only the
    /// multiplicity column.
    pub fn install(self, bag: &mut Arc<Bag>) {
        match self.0 {
            Next::Rebuilt(next) => *bag = Arc::new(next),
            Next::Counts(counts) if counts.is_empty() => {}
            counts => Successor(counts).commit(Arc::make_mut(bag)),
        }
    }
}

/// Iterator over a bag's `(row, multiplicity)` pairs in lexicographic
/// order ([`Bag::iter_sorted`]). Allocation-free on sealed bags.
pub struct SortedRows<'a>(SortedRowsInner<'a>);

enum SortedRowsInner<'a> {
    /// Sealed: storage order *is* sorted order; walk the run in place.
    Sealed {
        store: &'a RowStore,
        mults: &'a [u64],
        next: usize,
    },
    /// Unsealed: a reference vector sorted up front.
    Sorted(std::vec::IntoIter<(&'a [Value], u64)>),
}

impl<'a> Iterator for SortedRows<'a> {
    type Item = (&'a [Value], u64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            SortedRowsInner::Sealed { store, mults, next } => {
                if *next >= store.len() {
                    return None;
                }
                let id = *next;
                *next += 1;
                Some((store.row(RowId(id as u32)), mults[id]))
            }
            SortedRowsInner::Sorted(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            SortedRowsInner::Sealed { store, next, .. } => {
                let rem = store.len() - next;
                (rem, Some(rem))
            }
            SortedRowsInner::Sorted(it) => it.size_hint(),
        }
    }
}

impl ExactSizeIterator for SortedRows<'_> {}

/// `⌈log₂(m+1)⌉`: bits needed to write `m` in binary (0 for m = 0).
#[inline]
pub fn bits(m: u64) -> u32 {
    64 - m.leading_zeros()
}

impl PartialEq for Bag {
    /// Equal schemas and equal multiplicity functions. Two sealed bags
    /// hold their support in one canonical layout, so they compare their
    /// arenas and multiplicity columns directly; otherwise every row of
    /// one is probed in the other.
    fn eq(&self, other: &Self) -> bool {
        if self.sealed && other.sealed {
            return self.schema == other.schema
                && self.mults == other.mults
                && self.store.values() == other.store.values();
        }
        self.schema == other.schema
            && self.mults.len() == other.mults.len()
            && self.iter().all(|(r, m)| other.multiplicity(r) == m)
    }
}

impl Eq for Bag {}

impl fmt::Debug for Bag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Bag {
    /// Tabular form mirroring the paper's `A B # / a b : m` notation.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} #", self.schema)?;
        for (row, m) in self.iter_sorted() {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "  {} : {}", cells.join(" "), m)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attr, Deadline};

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    /// The bag R(A,B) = {(a1,b1):2, (a2,b2):1, (a3,b3):5} from Section 2.
    fn section2_bag() -> Bag {
        Bag::from_u64s(
            schema(&[0, 1]),
            [(&[1u64, 1][..], 2), (&[2, 2][..], 1), (&[3, 3][..], 5)],
        )
        .unwrap()
    }

    #[test]
    fn insert_accumulates_and_skips_zero() {
        let mut b = Bag::new(schema(&[0]));
        b.insert(vec![Value(1)], 2).unwrap();
        b.insert(vec![Value(1)], 3).unwrap();
        b.insert(vec![Value(2)], 0).unwrap();
        assert_eq!(b.multiplicity(&[Value(1)]), 5);
        assert_eq!(b.multiplicity(&[Value(2)]), 0);
        assert_eq!(b.support_size(), 1);
    }

    #[test]
    fn from_arena_rejects_bad_arenas() {
        let seq = ExecConfig::sequential();
        let big = |m: u64| (vec![Value(1), Value(2), Value(1), Value(2)], vec![m, m]);
        let (data, mults) = big(u64::MAX / 2 + 1);
        assert_eq!(
            Bag::from_arena(schema(&[0, 1]), data, mults, &seq),
            Err(CoreError::MultiplicityOverflow)
        );
        let (data, mults) = big(u64::MAX / 2);
        let bag = Bag::from_arena(schema(&[0, 1]), data, mults, &seq).unwrap();
        assert_eq!(bag.multiplicity(&[Value(1), Value(2)]), u64::MAX - 1);
        for (data, rows, got) in [(3, 1, 3), (3, 2, 1), (1, 0, 1)] {
            assert_eq!(
                Bag::from_arena(schema(&[0, 1]), vec![Value(0); data], vec![1; rows], &seq),
                Err(CoreError::ArityMismatch { expected: 2, got }),
                "{data} values for {rows} rows"
            );
        }
    }

    #[test]
    fn from_arena_over_the_empty_schema_sums_to_one_row() {
        let seq = ExecConfig::sequential();
        let bag = Bag::from_arena(Schema::empty(), vec![], vec![2, 0, 5], &seq).unwrap();
        assert_eq!(bag, Bag::of_empty_tuple(7));
        let none = Bag::from_arena(Schema::empty(), vec![], vec![0, 0], &seq).unwrap();
        assert!(none.is_empty() && none.is_sealed());
    }

    #[test]
    fn from_arena_adopts_an_ascending_arena_and_polls_the_deadline_first() {
        let ascending = || (vec![Value(1), Value(2), Value(3), Value(0)], vec![4, 5]);
        // The adopt path keeps the caller's allocation: no copy was made.
        let (data, mults) = ascending();
        let at = data.as_ptr();
        let bag = Bag::from_arena(schema(&[0, 1]), data, mults, &ExecConfig::sequential()).unwrap();
        assert_eq!(bag.store().values().as_ptr(), at);
        assert_eq!(bag.multiplicity(&[Value(3), Value(0)]), 5);
        let fired = ExecConfig::default().with_deadline(Deadline::at(std::time::Instant::now()));
        let descending = (vec![Value(3), Value(0), Value(1), Value(2)], vec![5, 4]);
        for (data, mults) in [ascending(), descending] {
            assert!(matches!(
                Bag::from_arena(schema(&[0, 1]), data, mults, &fired),
                Err(CoreError::Aborted(_))
            ));
        }
    }

    #[test]
    fn insert_checks_arity() {
        let mut b = Bag::new(schema(&[0, 1]));
        assert!(b.insert(vec![Value(1)], 1).is_err());
    }

    #[test]
    fn overflow_is_detected() {
        let mut b = Bag::new(schema(&[0]));
        b.insert(vec![Value(1)], u64::MAX).unwrap();
        assert_eq!(
            b.insert(vec![Value(1)], 1),
            Err(CoreError::MultiplicityOverflow)
        );
        // marginal overflow: two rows collapsing to one
        let mut c = Bag::new(schema(&[0, 1]));
        c.insert(vec![Value(1), Value(1)], u64::MAX).unwrap();
        c.insert(vec![Value(1), Value(2)], 1).unwrap();
        assert_eq!(
            c.marginal(&schema(&[0])).unwrap_err(),
            CoreError::MultiplicityOverflow
        );
    }

    #[test]
    fn prefix_marginal_overflow_is_detected() {
        // Same collapse, but through the sealed group-by sweep.
        let mut c = Bag::new(schema(&[0, 1]));
        c.insert(vec![Value(1), Value(1)], u64::MAX).unwrap();
        c.insert(vec![Value(1), Value(2)], 1).unwrap();
        c.seal();
        assert!(c.is_sealed());
        assert_eq!(
            c.marginal(&schema(&[0])).unwrap_err(),
            CoreError::MultiplicityOverflow
        );
    }

    #[test]
    fn set_zero_removes() {
        let mut b = section2_bag();
        b.set(vec![Value(1), Value(1)], 0).unwrap();
        assert_eq!(b.support_size(), 2);
        b.set(vec![Value(2), Value(2)], 7).unwrap();
        assert_eq!(b.multiplicity(&[Value(2), Value(2)]), 7);
    }

    #[test]
    fn set_zero_then_reinsert_revives_row() {
        let mut b = section2_bag();
        b.set(vec![Value(1), Value(1)], 0).unwrap();
        assert_eq!(b.multiplicity(&[Value(1), Value(1)]), 0);
        assert_eq!(b.store().len(), 2, "a removed row leaves the columns");
        b.insert(vec![Value(1), Value(1)], 4).unwrap();
        assert_eq!(b.multiplicity(&[Value(1), Value(1)]), 4);
        assert_eq!(b.support_size(), 3);
        assert_eq!(b.unary_size(), 4 + 1 + 5);
    }

    #[test]
    fn norms_match_definitions() {
        let b = section2_bag();
        assert_eq!(b.support_size(), 3); // ‖R‖supp
        assert_eq!(b.multiplicity_bound(), 5); // ‖R‖mu
        assert_eq!(b.multiplicity_size(), 3); // ⌈log2(5+1)⌉ = 3
        assert_eq!(b.unary_size(), 8); // 2+1+5
        assert_eq!(b.binary_size(), 2 + 1 + 3); // bits(2)+bits(1)+bits(5)
    }

    #[test]
    fn bits_function() {
        assert_eq!(bits(0), 0);
        assert_eq!(bits(1), 1);
        assert_eq!(bits(2), 2);
        assert_eq!(bits(3), 2);
        assert_eq!(bits(4), 3);
        assert_eq!(bits(u64::MAX), 64);
    }

    #[test]
    fn marginal_on_full_schema_is_identity() {
        let b = section2_bag();
        assert_eq!(b.marginal(b.schema()).unwrap(), b);
    }

    #[test]
    fn marginal_sums_multiplicities() {
        // R(A,B) with two tuples sharing the same A-value.
        let b = Bag::from_u64s(
            schema(&[0, 1]),
            [(&[1u64, 1][..], 2), (&[1, 2][..], 3), (&[2, 1][..], 5)],
        )
        .unwrap();
        let m = b.marginal(&schema(&[0])).unwrap();
        assert_eq!(m.multiplicity(&[Value(1)]), 5);
        assert_eq!(m.multiplicity(&[Value(2)]), 5);
    }

    #[test]
    fn prefix_and_generic_marginals_agree() {
        // Sealed prefix sweep vs the unsealed bag's arena sort.
        let rows: [(&[u64], u64); 5] = [
            (&[1, 1, 1], 1),
            (&[1, 1, 2], 2),
            (&[1, 2, 1], 4),
            (&[2, 2, 2], 8),
            (&[2, 2, 3], 16),
        ];
        let sealed = Bag::from_u64s(schema(&[0, 1, 2]), rows).unwrap();
        assert!(sealed.is_sealed());
        let mut unsealed = Bag::new(schema(&[0, 1, 2]));
        for (row, m) in rows.iter().rev() {
            let vals: Vec<Value> = row.iter().copied().map(Value::new).collect();
            unsealed.insert(vals, *m).unwrap();
        }
        assert!(!unsealed.is_sealed());
        for sub in [
            schema(&[0]),
            schema(&[0, 1]),
            schema(&[0, 1, 2]),
            schema(&[1, 2]),
        ] {
            let a = sealed.marginal(&sub).unwrap();
            let b = unsealed.marginal(&sub).unwrap();
            assert_eq!(a, b, "marginal onto {sub}");
        }
    }

    #[test]
    fn marginal_on_empty_schema_is_total_count() {
        let b = section2_bag();
        let m = b.marginal(&Schema::empty()).unwrap();
        assert_eq!(m.multiplicity(&[]), 8);
        assert_eq!(m, Bag::of_empty_tuple(8));
    }

    #[test]
    fn marginal_requires_subschema() {
        let b = section2_bag();
        assert!(b.marginal(&schema(&[7])).is_err());
    }

    #[test]
    fn nested_marginals_commute() {
        // R[Z][W] = R[W] for W ⊆ Z ⊆ X
        let x = schema(&[0, 1, 2]);
        let b = Bag::from_u64s(
            x,
            [
                (&[1u64, 1, 1][..], 1),
                (&[1, 1, 2][..], 2),
                (&[1, 2, 1][..], 4),
                (&[2, 2, 2][..], 8),
            ],
        )
        .unwrap();
        let z = schema(&[0, 1]);
        let w = schema(&[0]);
        assert_eq!(
            b.marginal(&z).unwrap().marginal(&w).unwrap(),
            b.marginal(&w).unwrap()
        );
    }

    #[test]
    fn support_of_marginal_is_projection_of_support() {
        let b = section2_bag();
        let z = schema(&[0]);
        let lhs = b.marginal(&z).unwrap().support();
        let rhs = b.support().project(&z).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn containment() {
        let b = section2_bag();
        let mut c = b.clone();
        c.insert(vec![Value(9), Value(9)], 1).unwrap();
        assert!(b.contained_in(&c));
        assert!(!c.contained_in(&b));
        assert!(b.contained_in(&b));
        // different schemas are incomparable
        let d = Bag::new(schema(&[5]));
        assert!(!b.contained_in(&d));
        // the empty bag over the same schema is contained in anything
        assert!(Bag::new(schema(&[0, 1])).contained_in(&b));
    }

    #[test]
    fn sum_and_scale() {
        let b = section2_bag();
        let two_b = b.sum(&b).unwrap();
        assert_eq!(two_b, b.scale(2).unwrap());
        assert_eq!(b.scale(0).unwrap().support_size(), 0);
        assert!(b.scale(u64::MAX).is_err());
    }

    #[test]
    fn is_relation_detects_multiplicities() {
        assert!(!section2_bag().is_relation());
        let r = Bag::from_u64s(schema(&[0]), [(&[1u64][..], 1), (&[2][..], 1)]).unwrap();
        assert!(r.is_relation());
        assert!(Bag::new(schema(&[0])).is_relation());
    }

    #[test]
    fn rename_permutes_columns() {
        // swap A0 <-> A1: row (a,b) becomes (b,a) in the new sorted order.
        let b = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 3)]).unwrap();
        let r = b
            .rename(|a| if a == Attr(0) { Attr(1) } else { Attr(0) })
            .unwrap();
        assert_eq!(r.multiplicity(&[Value(2), Value(1)]), 3);
        // non-injective rename is rejected
        assert!(b.rename(|_| Attr(7)).is_err());
    }

    #[test]
    fn rename_to_fresh_attr() {
        // the Lemma 6 move: R(A_{n-1}, A_1) -> R(A_{n-1}, A_n)
        let b = Bag::from_u64s(schema(&[0, 3]), [(&[1u64, 5][..], 2)]).unwrap();
        let r = b
            .rename(|a| if a == Attr(0) { Attr(4) } else { a })
            .unwrap();
        assert_eq!(r.schema(), &schema(&[3, 4]));
        // old row was (A0=1, A3=5); new row is (A3=5, A4=1)
        assert_eq!(r.multiplicity(&[Value(5), Value(1)]), 2);
    }

    #[test]
    fn display_sorted() {
        let b = section2_bag();
        let s = b.to_string();
        let i1 = s.find("1 1 : 2").unwrap();
        let i2 = s.find("2 2 : 1").unwrap();
        let i3 = s.find("3 3 : 5").unwrap();
        assert!(i1 < i2 && i2 < i3);
    }

    #[test]
    fn of_empty_tuple_zero_is_empty() {
        assert!(Bag::of_empty_tuple(0).is_empty());
        assert_eq!(Bag::of_empty_tuple(3).unary_size(), 3);
    }

    /// A removal seals an unsealed bag and drops the row from the run;
    /// removing a row the bag does not hold only seals it.
    #[test]
    fn set_zero_seals_and_drops_the_row() {
        let unsealed = || {
            let mut b = Bag::new(schema(&[0]));
            for v in [5u64, 1, 9, 3] {
                b.insert(vec![Value(v)], v).unwrap();
            }
            assert!(!b.is_sealed());
            b
        };
        let mut b = unsealed();
        b.set(vec![Value(9)], 0).unwrap();
        assert!(b.is_sealed());
        assert_eq!(b.support_size(), 3);
        let rows: Vec<u64> = b.iter().map(|(r, _)| r[0].get()).collect();
        assert_eq!(rows, vec![1, 3, 5], "iteration follows the sorted run");
        assert_eq!(b.multiplicity(&[Value(9)]), 0);
        assert_eq!(b.multiplicity(&[Value(3)]), 3);
        let mut absent = unsealed();
        absent.set(vec![Value(7)], 0).unwrap();
        assert!(absent.is_sealed());
        assert_eq!(absent, unsealed());
        for v in [1u64, 3, 5] {
            b.set(vec![Value(v)], 0).unwrap();
        }
        assert!(b.is_empty() && b.is_sealed());
    }

    #[test]
    fn try_seal_with_is_bit_identical_to_sequential_seal() {
        // duplicate-heavy rows in reverse insertion order: everything the
        // seal has to repair.
        let mut bag = Bag::new(schema(&[0, 1]));
        for i in (0..500u64).rev() {
            bag.insert(vec![Value(i % 23), Value(i % 7)], i % 5 + 1)
                .unwrap();
        }
        assert!(!bag.is_sealed());
        let mut seq = bag.clone();
        seq.seal();
        for threads in [1usize, 2, 4, 8] {
            let mut par = bag.clone();
            par.try_seal_with(&ExecConfig {
                threads,
                min_parallel_support: 1,
                deadline: Deadline::NONE,
            })
            .unwrap();
            assert!(par.is_sealed());
            // identical storage layout, not just equal multisets
            let seq_rows: Vec<(&[Value], u64)> = seq.iter().collect();
            let par_rows: Vec<(&[Value], u64)> = par.iter().collect();
            assert_eq!(par_rows, seq_rows, "threads = {threads}");
        }
    }

    #[test]
    fn ascending_inserts_stay_sealed() {
        let mut b = Bag::new(schema(&[0]));
        for v in 0..10u64 {
            b.insert(vec![Value(v)], 1).unwrap();
        }
        assert!(b.is_sealed(), "in-order appends extend the sorted run");
        b.insert(vec![Value(4)], 1).unwrap();
        assert!(b.is_sealed(), "revisiting an existing row keeps order");
        b.insert(vec![Value(3)], 0).unwrap();
        assert!(b.is_sealed(), "zero-multiplicity insert is a no-op");
    }

    #[test]
    fn apply_delta_in_place_keeps_seal() {
        let mut b = section2_bag();
        assert!(b.is_sealed());
        let mut d = crate::DeltaSet::new(b.schema().clone());
        d.bump_u64s(&[1, 1], 3).unwrap();
        d.bump_u64s(&[3, 3], -4).unwrap();
        let out = b.apply_delta(&d).unwrap();
        assert!(b.is_sealed());
        assert!(!out.support_changed());
        assert!(!out.resealed);
        assert_eq!(out.touched, 2);
        assert_eq!(out.unary_change, -1);
        assert_eq!(b.multiplicity(&[Value(1), Value(1)]), 5);
        assert_eq!(b.multiplicity(&[Value(3), Value(3)]), 1);
    }

    #[test]
    fn apply_delta_fresh_and_removed_rows_reseal_incrementally() {
        let mut b = section2_bag();
        let mut d = crate::DeltaSet::new(b.schema().clone());
        d.bump_u64s(&[0, 9], 7).unwrap(); // fresh, sorts before everything
        d.bump_u64s(&[2, 2], -1).unwrap(); // drops to zero
        d.bump_u64s(&[9, 0], 2).unwrap(); // fresh, sorts after everything
        let out = b.apply_delta(&d).unwrap();
        assert!(b.is_sealed());
        assert!(out.support_changed());
        assert!(out.resealed);
        assert_eq!((out.added, out.removed), (2, 1));
        // layout identical to a from-scratch sealed build
        let expected = Bag::from_u64s(
            schema(&[0, 1]),
            [
                (&[0u64, 9][..], 7),
                (&[1, 1][..], 2),
                (&[3, 3][..], 5),
                (&[9, 0][..], 2),
            ],
        )
        .unwrap();
        let got: Vec<(&[Value], u64)> = b.iter().collect();
        let want: Vec<(&[Value], u64)> = expected.iter().collect();
        assert_eq!(got, want, "reseal must reproduce the sealed layout");
    }

    #[test]
    fn apply_delta_same_batch_add_then_remove_is_clean() {
        let mut b = section2_bag();
        let mut d = crate::DeltaSet::new(b.schema().clone());
        d.bump_u64s(&[7, 7], 4).unwrap();
        d.bump_u64s(&[7, 7], -4).unwrap();
        let out = b.apply_delta(&d).unwrap();
        assert!(out.is_noop(), "net-zero edit folds away: {out:?}");
        assert!(b.is_sealed());
        assert_eq!(b.multiplicity(&[Value(7), Value(7)]), 0);
        assert_eq!(b.support_size(), 3);
    }

    #[test]
    fn apply_delta_is_atomic_on_error() {
        let mut b = section2_bag();
        let before = b.clone();
        let mut d = crate::DeltaSet::new(b.schema().clone());
        d.bump_u64s(&[1, 1], 5).unwrap();
        d.bump_u64s(&[2, 2], -2).unwrap(); // 1 - 2 < 0: underflow
        assert_eq!(
            b.apply_delta(&d).unwrap_err(),
            CoreError::MultiplicityUnderflow
        );
        assert_eq!(b, before, "failed delta must leave the bag untouched");
        let mut d = crate::DeltaSet::new(b.schema().clone());
        d.bump_u64s(&[3, 3], i64::MAX).unwrap();
        d.bump_u64s(&[3, 3], i64::MAX).unwrap();
        d.bump_u64s(&[3, 3], i64::MAX).unwrap();
        assert_eq!(
            b.apply_delta(&d).unwrap_err(),
            CoreError::MultiplicityOverflow
        );
        assert_eq!(b, before);
    }

    #[test]
    fn apply_delta_rejects_schema_mismatch() {
        let mut b = section2_bag();
        let d = crate::DeltaSet::new(schema(&[5, 6]));
        assert!(matches!(
            b.apply_delta(&d),
            Err(CoreError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn apply_delta_on_unsealed_bag_seals_it() {
        let mut b = Bag::new(schema(&[0]));
        for v in [9u64, 1, 5] {
            b.insert(vec![Value(v)], 1).unwrap();
        }
        assert!(!b.is_sealed());
        let mut d = crate::DeltaSet::new(b.schema().clone());
        d.bump_u64s(&[5], 1).unwrap();
        let out = b.apply_delta(&d).unwrap();
        assert!(b.is_sealed());
        assert!(out.resealed);
        let rows: Vec<u64> = b.iter().map(|(r, _)| r[0].get()).collect();
        assert_eq!(rows, vec![1, 5, 9]);
    }

    #[test]
    fn apply_delta_with_is_thread_count_invariant() {
        let mut base = Bag::new(schema(&[0, 1]));
        for i in 0..300u64 {
            base.insert(vec![Value(i % 37), Value(i % 11)], i % 6 + 1)
                .unwrap();
        }
        base.seal();
        let mut d = crate::DeltaSet::new(base.schema().clone());
        for i in 0..40u64 {
            d.bump([Value(100 + i), Value(i)], (i % 3 + 1) as i64)
                .unwrap();
        }
        d.bump_u64s(&[0, 0], -(base.multiplicity(&[Value(0), Value(0)]) as i64))
            .unwrap();
        let mut seq = base.clone();
        seq.apply_delta(&d).unwrap();
        for threads in [2usize, 4, 8] {
            let cfg = ExecConfig::builder()
                .threads(threads)
                .min_parallel_support(1)
                .build()
                .unwrap();
            let mut par = base.clone();
            par.apply_delta_with(&d, &cfg).unwrap();
            let seq_rows: Vec<(&[Value], u64)> = seq.iter().collect();
            let par_rows: Vec<(&[Value], u64)> = par.iter().collect();
            assert_eq!(par_rows, seq_rows, "threads = {threads}");
        }
    }

    /// A clone shares its rows with the original; a delta that only
    /// changes counts keeps sharing them, and one that changes the
    /// support builds new ones, with the original left as it was.
    #[test]
    fn clones_share_rows_until_the_support_changes() {
        let base = section2_bag();
        let mut bumped = base.clone();
        assert!(std::ptr::eq(bumped.store(), base.store()));
        let mut d = crate::DeltaSet::new(base.schema().clone());
        d.bump_u64s(&[2, 2], 4).unwrap();
        bumped.apply_delta(&d).unwrap();
        assert!(std::ptr::eq(bumped.store(), base.store()));
        assert_eq!(bumped.multiplicity(&[Value(2), Value(2)]), 5);
        assert_eq!(base.multiplicity(&[Value(2), Value(2)]), 1);
        let mut d = crate::DeltaSet::new(base.schema().clone());
        d.bump_u64s(&[2, 2], -5).unwrap();
        bumped.apply_delta(&d).unwrap();
        assert!(!std::ptr::eq(bumped.store(), base.store()));
        assert_eq!(bumped.support_size(), 2);
        assert_eq!(base, section2_bag());
    }

    /// A bag fingerprint for atomicity assertions: physical layout
    /// (row-major values in id order), multiplicity column, support size,
    /// and seal flag.
    fn fingerprint(b: &Bag) -> (Vec<Value>, Vec<u64>, usize, bool) {
        (
            b.store().values().to_vec(),
            (0..b.store().len() as u32).map(|i| b.mult_of(i)).collect(),
            b.support_size(),
            b.is_sealed(),
        )
    }

    /// Builds a sealed bag plus a support-changing delta large enough to
    /// force the fresh-tail merge, for the atomicity tests below.
    fn atomicity_fixture() -> (Bag, crate::DeltaSet) {
        let mut base = Bag::new(schema(&[0, 1]));
        for i in 0..300u64 {
            base.insert(vec![Value(i % 41), Value(i % 13)], i % 5 + 1)
                .unwrap();
        }
        base.seal();
        let mut d = crate::DeltaSet::new(base.schema().clone());
        for i in 0..30u64 {
            d.bump([Value(200 + i), Value(i)], (i % 4 + 1) as i64)
                .unwrap();
        }
        d.bump_u64s(&[1, 1], -(base.multiplicity(&[Value(1), Value(1)]) as i64))
            .unwrap();
        d.bump_u64s(&[2, 2], 7).unwrap();
        (base, d)
    }

    /// A deadline that fires before the successor is built fails the
    /// delta, and the bag keeps its layout, counts and seal.
    #[test]
    fn apply_delta_rolls_back_when_reseal_aborts() {
        let (base, d) = atomicity_fixture();
        for threads in [1usize, 4] {
            let mut b = base.clone();
            let before = fingerprint(&b);
            let cfg = ExecConfig::builder()
                .threads(threads)
                .min_parallel_support(1)
                .build()
                .unwrap()
                .with_deadline(Deadline::at(std::time::Instant::now()));
            let err = b.apply_delta_with(&d, &cfg).unwrap_err();
            assert!(
                matches!(err, CoreError::Aborted(_)),
                "threads={threads}: {err}"
            );
            assert_eq!(
                fingerprint(&b),
                before,
                "threads={threads}: layout, mults, support size and seal flag \
                 must be untouched after an aborted apply"
            );
            // The rolled-back bag is fully usable: the same delta applies
            // cleanly once the governance pressure is lifted.
            let mut expect = base.clone();
            expect.apply_delta(&d).unwrap();
            b.apply_delta(&d).unwrap();
            assert_eq!(b, expect, "threads={threads}");
        }
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn apply_delta_rolls_back_when_merge_panics() {
        use crate::fault::{self, FaultAction};
        let _guard = fault::test_lock();
        // Worker-thread panics are not captured by the test harness;
        // silence the hook so intentional failpoint panics stay quiet.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let (base, d) = atomicity_fixture();
        for threads in [1usize, 4] {
            let mut b = base.clone();
            let before = fingerprint(&b);
            let cfg = ExecConfig::builder()
                .threads(threads)
                .min_parallel_support(1)
                .build()
                .unwrap();
            fault::arm("bag::reseal_delta::merge", FaultAction::Panic, 1);
            let err = b.apply_delta_with(&d, &cfg).unwrap_err();
            fault::reset();
            assert!(
                matches!(err, CoreError::WorkerPanicked { .. }),
                "threads={threads}: {err}"
            );
            assert_eq!(
                fingerprint(&b),
                before,
                "threads={threads}: mid-merge panic must leave the bag untouched"
            );
            let mut expect = base.clone();
            expect.apply_delta(&d).unwrap();
            b.apply_delta(&d).unwrap();
            assert_eq!(b, expect, "threads={threads}");
        }
        std::panic::set_hook(prev_hook);
    }

    /// A bag over `schema` built by inserting `rows` last to first, so it
    /// arrives unsealed whenever the rows do not descend. With
    /// `max_first` the greatest row goes in first, so the bag arrives
    /// unsealed whenever it holds two distinct rows.
    fn inserted(schema: &Schema, rows: &[(Vec<u64>, u64)], max_first: bool) -> Bag {
        let mut order: Vec<&(Vec<u64>, u64)> = rows.iter().rev().collect();
        if max_first {
            if let Some(top) = (0..order.len()).max_by_key(|&i| &order[i].0) {
                order[..=top].rotate_right(1);
            }
        }
        let mut bag = Bag::new(schema.clone());
        for (row, m) in order {
            bag.insert(row.iter().copied().map(Value).collect::<Vec<_>>(), *m)
                .unwrap();
        }
        if max_first && bag.support_size() > 1 {
            assert!(!bag.is_sealed());
        }
        bag
    }

    /// The marginal built row by row through the dedup table: every live
    /// row projected and inserted, sorted for comparison.
    fn inserted_marginal(bag: &Bag, sub: &Schema) -> Vec<(Vec<Value>, u64)> {
        let idx = bag.schema().projection_indices(sub).unwrap();
        let mut out = Bag::new(sub.clone());
        for (row, m) in bag.iter() {
            let projected: Vec<Value> = idx.iter().map(|&i| row[i]).collect();
            out.insert_row(&projected, m).unwrap();
        }
        out.iter_sorted().map(|(r, m)| (r.to_vec(), m)).collect()
    }

    /// Equality by per-row probes, the unsealed path of `PartialEq`.
    fn probe_eq(a: &Bag, b: &Bag) -> bool {
        a.schema == b.schema
            && a.support_size() == b.support_size()
            && a.iter().all(|(r, m)| b.multiplicity(r) == m)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Every marginal is sealed and holds the insert-built marginal's
        /// rows and sums, onto each subset of `A0 A1 A2` (the empty
        /// schema and the non-prefixes included), from a sealed and an
        /// unsealed bag, with some supports past the radix kernel's floor.
        #[test]
        fn marginals_are_sealed_and_match_the_inserted_marginal(
            rows in proptest::collection::vec(
                (proptest::collection::vec(0..12u64, 3), 1..=5u64),
                0..=700,
            ),
        ) {
            let x = schema(&[0, 1, 2]);
            let sealed = Bag::from_u64s(x.clone(), rows.iter().map(|(r, m)| (&r[..], *m))).unwrap();
            let unsealed = inserted(&x, &rows, true);
            for bits in 0..8u32 {
                let sub = schema(&(0..3).filter(|a| bits >> a & 1 == 1).collect::<Vec<_>>());
                let want = inserted_marginal(&sealed, &sub);
                for bag in [&sealed, &unsealed] {
                    let got = bag.marginal(&sub).unwrap();
                    proptest::prop_assert!(got.is_sealed(), "onto {}", sub);
                    let got: Vec<(Vec<Value>, u64)> = got.iter().map(|(r, m)| (r.to_vec(), m)).collect();
                    proptest::prop_assert_eq!(&got, &want, "onto {}", sub);
                }
            }
        }

        /// `==` agrees with the per-row probe on every mix of sealed and
        /// unsealed operands: equal contents, one multiplicity bumped,
        /// one row dropped, another schema, and every row's last value
        /// shifted (same order, same multiplicity column, other rows).
        #[test]
        fn sealed_equality_agrees_with_the_probe(
            rows in proptest::collection::vec(
                (proptest::collection::vec(0..4u64, 2), 1..=3u64),
                0..=24,
            ),
            edit in 0..5u8,
            at in 0..24usize,
        ) {
            let x = schema(&[0, 1]);
            let mut other_rows = rows.clone();
            let other_schema = if edit == 3 { schema(&[0, 2]) } else { x.clone() };
            if !rows.is_empty() {
                let at = at % rows.len();
                match edit {
                    1 => other_rows[at].1 += 1,
                    2 => {
                        other_rows.remove(at);
                    }
                    4 => other_rows.iter_mut().for_each(|(row, _)| row[1] += 4),
                    _ => {}
                }
            }
            let build = |schema: &Schema, rows: &[(Vec<u64>, u64)]| {
                let sealed = Bag::from_u64s(schema.clone(), rows.iter().map(|(r, m)| (&r[..], *m))).unwrap();
                [sealed, inserted(schema, rows, false), inserted(schema, rows, true)]
            };
            let (ours, theirs) = (build(&x, &rows), build(&other_schema, &other_rows));
            for a in &ours {
                for b in &theirs {
                    proptest::prop_assert_eq!(a == b, probe_eq(a, b), "{:?} vs {:?}", a, b);
                    proptest::prop_assert_eq!(b == a, probe_eq(b, a), "{:?} vs {:?}", b, a);
                }
            }
        }
    }

    #[test]
    fn equality_ignores_insertion_order_and_sealing() {
        let a = section2_bag();
        let mut b = Bag::new(schema(&[0, 1]));
        b.insert(vec![Value(3), Value(3)], 5).unwrap();
        b.insert(vec![Value(1), Value(1)], 2).unwrap();
        b.insert(vec![Value(2), Value(2)], 1).unwrap();
        assert_eq!(a, b);
        b.seal();
        assert_eq!(a, b);
    }
}
