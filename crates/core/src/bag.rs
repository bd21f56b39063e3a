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
//! * each distinct row is interned exactly once; `mults[id]` is its
//!   multiplicity (`0` marks a tombstone left by [`Bag::set`]);
//! * a **sealed** bag ([`Bag::is_sealed`]) additionally has its rows laid
//!   out in strictly increasing lexicographic order with no tombstones —
//!   the "sorted run" at-rest form that bulk constructors produce and
//!   [`Bag::seal`] restores after mutation;
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
use crate::pack::RowOrd;
use crate::store::{RowId, RowStore};
use crate::{CoreError, Relation, Result, Schema, Value};
use std::fmt;

/// A finite bag (multiset) of tuples over a fixed schema.
#[derive(Clone)]
pub struct Bag {
    schema: Schema,
    store: RowStore,
    /// Parallel to `store` ids; `0` is a tombstone (row removed by `set`).
    mults: Vec<u64>,
    /// Number of ids with non-zero multiplicity (`‖R‖supp`).
    live: usize,
    /// True iff rows are in strictly increasing lex order, tombstone-free.
    sealed: bool,
}

impl Bag {
    /// Creates an empty bag over `schema`.
    pub fn new(schema: Schema) -> Self {
        let arity = schema.arity();
        Bag {
            schema,
            store: RowStore::new(arity),
            mults: Vec::new(),
            live: 0,
            sealed: true,
        }
    }

    /// Creates an empty bag with reserved capacity for `n` support tuples.
    pub fn with_capacity(schema: Schema, n: usize) -> Self {
        let arity = schema.arity();
        Bag {
            schema,
            store: RowStore::with_capacity(arity, n),
            mults: Vec::with_capacity(n),
            live: 0,
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
    /// the witness fill and the text parser ([`crate::io::parse_bag_with`]).
    ///
    /// An arena that is already a sealed layout — rows strictly ascending,
    /// no multiplicity zero — is **adopted** as it stands: one pass over
    /// the multiplicities and one over the rows, which is the
    /// distinctness certificate of [`RowStore::from_sorted_rows`], and no
    /// sort, pack or copy. The witness fill emits its rows in order
    /// whenever the two schemas allow it, and a file
    /// [`crate::io::write_bag`] wrote parses in order, so both take this
    /// path. Any other arena is
    /// **sorted**: the row ids sort by the seal's packed compare and the
    /// seal's copy routine lays the rows out in that order, both on the
    /// calling thread; equal neighbours then merge with a checked add and
    /// zero multiplicities drop out, compacting in place. Either way the
    /// dedup table stays unbuilt until the first content probe, as after a
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
    /// aborts the adopt path too, and once more before the sort path's
    /// copy, as a seal polls it.
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
                        store,
                        mults,
                        live: rows,
                        sealed: true,
                    })
                }
                Err(data) => data,
            }
        };
        let order = crate::store::sorted_order(arity, &data, (0..rows as u32).collect());
        let mut laid_out = crate::store::gather_rows(arity, &data, &order, cfg.deadline())?;
        drop(data);
        let mut sums: Vec<u64> = order.iter().map(|&i| mults[i as usize]).collect();
        // Merge runs of equal rows into their first slot and drop zero
        // sums, compacting in place; `kept` rows are final so far.
        let row = |p: usize| p * arity..(p + 1) * arity;
        let mut kept = 0;
        let mut p = 0;
        while p < rows {
            let mut m = sums[p];
            let mut q = p + 1;
            while q < rows && laid_out[row(q)] == laid_out[row(p)] {
                m = m
                    .checked_add(sums[q])
                    .ok_or(CoreError::MultiplicityOverflow)?;
                q += 1;
            }
            if m > 0 {
                laid_out.copy_within(row(p), kept * arity);
                sums[kept] = m;
                kept += 1;
            }
            p = q;
        }
        laid_out.truncate(kept * arity);
        sums.truncate(kept);
        let store = RowStore::from_sorted_rows(arity, kept, laid_out)
            .expect("merged neighbours of a sorted arena ascend strictly");
        Ok(Bag {
            schema,
            store,
            mults: sums,
            live: kept,
            sealed: true,
        })
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
            if *slot == 0 {
                self.live += 1;
                // Reviving a tombstone: row order unchanged, but a sealed
                // bag has no tombstones, so `sealed` is already false.
            }
            *slot = slot
                .checked_add(mult)
                .ok_or(CoreError::MultiplicityOverflow)?;
        }
        Ok(())
    }

    /// Interns `row`; when fresh, records `mult`, bumps `live`, and
    /// updates the sorted-run tracking (a fresh append keeps the run
    /// sealed only when it extends it). Returns the id of an already
    /// present row for the caller to update.
    fn intern_row(&mut self, row: &[Value], mult: u64) -> Option<RowId> {
        let last = self.store.len();
        let (id, fresh) = self.store.intern(row);
        if !fresh {
            return Some(id);
        }
        self.mults.push(mult);
        self.live += 1;
        if self.sealed && last > 0 && self.store.row(RowId(id.0 - 1)) >= row {
            self.sealed = false;
        }
        None
    }

    /// Sets the multiplicity of `row` exactly (0 removes it).
    pub fn set(&mut self, row: impl AsRef<[Value]>, mult: u64) -> Result<()> {
        let row = row.as_ref();
        if row.len() != self.schema.arity() {
            return Err(CoreError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        if mult == 0 {
            // Tombstone without interning rows we never stored.
            if let Some(id) = self.store.lookup(row) {
                if self.mults[id.index()] > 0 {
                    self.mults[id.index()] = 0;
                    self.live -= 1;
                    self.sealed = false;
                }
            }
            return Ok(());
        }
        if let Some(id) = self.intern_row(row, mult) {
            if self.mults[id.index()] == 0 {
                self.live += 1;
            }
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
        self.live
    }

    /// True iff the bag is empty (all multiplicities zero).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
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
        self.store
            .iter()
            .zip(self.mults.iter())
            .filter_map(|(r, &m)| (m > 0).then_some((r, m)))
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
    /// sorted, tombstone-free columnar run.
    #[inline]
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Restores the sorted-run invariant: rows are re-laid-out in
    /// lexicographic order and tombstones are compacted away.
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
    /// before the re-layout. Both halves of the seal run on the calling
    /// thread: the live ids sort by a packed compare, and the rows are
    /// copied in that order into a fresh arena. Nothing is hashed: the
    /// sorted arena certifies that its rows are distinct, and the dedup
    /// table builds on the first content probe. On an abort the bag is
    /// left **exactly** as it was — unsealed, layout and multiplicities
    /// untouched — because the seal commits only after the copy.
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
        let live: Vec<u32> = self.live_ids().collect();
        let order = crate::store::sorted_order(arity, self.store.values(), live);
        let laid_out =
            crate::store::gather_rows(arity, self.store.values(), &order, cfg.deadline())?;
        self.mults = order.iter().map(|&i| self.mults[i as usize]).collect();
        self.store = RowStore::from_sorted_rows(arity, order.len(), laid_out)
            .expect("distinct interned rows sort strictly");
        self.sealed = true;
        Ok(())
    }

    /// Applies a batch of signed multiplicity edits atomically; see
    /// [`Bag::apply_delta_with`]. Equivalent to it under a sequential
    /// configuration.
    pub fn apply_delta(&mut self, delta: &crate::DeltaSet) -> Result<crate::DeltaApply> {
        self.apply_delta_with(delta, &ExecConfig::sequential())
    }

    /// Applies a [`crate::DeltaSet`] of signed multiplicity edits — the
    /// update primitive of the incremental consistency layer.
    ///
    /// The whole batch is validated first (every intermediate count must
    /// stay inside `u64`; otherwise [`CoreError::MultiplicityUnderflow`] /
    /// [`CoreError::MultiplicityOverflow`] and the bag is left untouched),
    /// then applied:
    ///
    /// * edits that change an existing row's multiplicity to another
    ///   non-zero value patch the multiplicity column **in place** — a
    ///   sealed bag stays sealed with no re-layout at all;
    /// * edits that add fresh rows or drop rows to zero dirty the sorted
    ///   run; the seal is then repaired **incrementally**: only the new
    ///   rows are sorted (`O(k log k)` for `k` fresh rows) and merged
    ///   with the existing run in one linear pass, sharded over `cfg`'s
    ///   executor — never the full `O(n log n)` re-sort of [`Bag::seal`].
    ///
    /// The bag always leaves sealed (an unsealed input is fully sealed as
    /// a side effect); the returned [`crate::DeltaApply`] reports what
    /// happened, letting callers that mirror the bag (flow networks,
    /// cached marginals) repair rather than rebuild when
    /// [`crate::DeltaApply::support_changed`] is false.
    pub fn apply_delta_with(
        &mut self,
        delta: &crate::DeltaSet,
        cfg: &ExecConfig,
    ) -> Result<crate::DeltaApply> {
        if *delta.schema() != self.schema {
            return Err(CoreError::SchemaMismatch {
                left: delta.schema().clone(),
                right: self.schema.clone(),
            });
        }
        // Validation pass: fold each row's edits to a final count,
        // rejecting any step outside u64 before the bag is touched.
        let mut finals: crate::FxHashMap<&[Value], u64> = Default::default();
        for e in delta.edits() {
            let cur = match finals.get(e.row()) {
                Some(&m) => m,
                None => self.multiplicity(e.row()),
            };
            let next = cur.checked_add_signed(e.delta()).ok_or(if e.delta() < 0 {
                CoreError::MultiplicityUnderflow
            } else {
                CoreError::MultiplicityOverflow
            })?;
            finals.insert(e.row(), next);
        }
        // Apply pass, in first-touch edit order so the storage layout of
        // fresh rows is deterministic. Every in-place multiplicity write
        // journals the old count so a failed reseal can roll the whole
        // batch back (fresh interned rows roll back by truncation).
        let was_sealed = self.sealed;
        let old_len = self.store.len();
        let old_live = self.live;
        let mut journal: Vec<(usize, u64)> = Vec::new();
        let mut out = crate::DeltaApply {
            touched: 0,
            added: 0,
            removed: 0,
            resealed: false,
            unary_change: 0,
        };
        for e in delta.edits() {
            let Some(fin) = finals.remove(e.row()) else {
                continue; // later edit of an already-applied row
            };
            let old = self.multiplicity(e.row());
            if fin == old {
                continue;
            }
            out.unary_change += fin as i128 - old as i128;
            if fin == 0 {
                let id = self
                    .store
                    .lookup(e.row())
                    .expect("old > 0 implies interned");
                journal.push((id.index(), old));
                self.mults[id.index()] = 0;
                self.live -= 1;
                self.sealed = false;
                out.removed += 1;
            } else if old == 0 {
                match self.store.lookup(e.row()) {
                    // Reviving a tombstone (only possible on an unsealed
                    // input — sealed bags have none).
                    Some(id) => {
                        journal.push((id.index(), 0));
                        self.mults[id.index()] = fin;
                        self.live += 1;
                    }
                    None => self.insert_row(e.row(), fin)?,
                }
                out.added += 1;
            } else {
                let id = self
                    .store
                    .lookup(e.row())
                    .expect("old > 0 implies interned");
                journal.push((id.index(), old));
                self.mults[id.index()] = fin;
                out.touched += 1;
            }
        }
        if !self.sealed {
            // Contain panics from the repair (failpoints, worker bugs on
            // the sequential path) so the rollback below always runs —
            // the batch is atomic: it either commits fully resealed or
            // the bag reverts to its exact pre-call state.
            let resealed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if was_sealed {
                    self.try_reseal_delta(old_len, cfg)
                } else {
                    self.try_seal_with(cfg)
                }
            }))
            .unwrap_or_else(|payload| {
                Err(CoreError::WorkerPanicked {
                    task: 0,
                    message: crate::exec::panic_message(payload),
                })
            });
            if let Err(e) = resealed {
                // Roll back the apply pass: drop the batch's fresh rows,
                // restore every journaled count, and re-establish the
                // pre-call seal state.
                self.store.truncate(old_len);
                self.mults.truncate(old_len);
                for &(id, m) in &journal {
                    debug_assert!(id < old_len, "journal only covers pre-existing rows");
                    self.mults[id] = m;
                }
                self.live = old_live;
                self.sealed = was_sealed;
                return Err(e);
            }
            out.resealed = true;
        }
        Ok(out)
    }

    /// Repairs the sorted-run invariant after [`Bag::apply_delta_with`]
    /// dirtied a previously sealed bag: the prefix `0..old_len` is still
    /// one sorted run (minus tombstones), the tail holds the delta's
    /// fresh rows. The tail sorts on its own (`k log k`), and the two
    /// runs merge — sharded into plain position ranges over the prefix
    /// (interned rows are distinct, so every position is its own key
    /// group) with the tail aligned by binary search. Each shard returns
    /// its merged id order; the orders join end to end, the seal's copy
    /// routine lays the rows out, and the store is adopted — so the
    /// layout is identical to the sequential merge at every thread count.
    ///
    /// Hot-loop details: compares go through a transient [`RowOrd`]
    /// (single integer compares when a packed encoding fits), and the merge
    /// walks the **tail**, bulk-emitting each prefix stretch; with the
    /// prefix ≥ [`crate::exec::GALLOP_RATIO`]× the tail (the motivating
    /// tiny-delta-against-huge-run skew), stretch ends are found by
    /// galloping ([`crate::exec::gallop_bound`]) instead of a
    /// row-at-a-time scan. Both changes are order-exact: distinct
    /// interned rows make "prefix row < tail row" a strict total order,
    /// so emitting prefix-until-bound then the tail row reproduces the
    /// linear tail-pushing loop's sequence byte for byte.
    fn try_reseal_delta(&mut self, old_len: usize, cfg: &ExecConfig) -> Result<()> {
        debug_assert!(!self.sealed);
        let arity = self.schema.arity();
        let mut tail: Vec<u32> = (old_len as u32..self.store.len() as u32)
            .filter(|&i| self.mults[i as usize] > 0)
            .collect();
        let ord = RowOrd::new(arity, self.store.values(), old_len + tail.len());
        tail.sort_unstable_by(|&a, &b| ord.cmp(a, b));
        let tasks = if old_len == 0 {
            vec![(0..0, 0..tail.len())]
        } else {
            let mut tasks = crate::exec::aligned_shard_tasks(
                old_len,
                tail.len(),
                cfg.shards_for(old_len),
                |_| false,
                |p| crate::exec::lower_bound_by(tail.len(), |t| ord.less(tail[t], p as u32)),
            );
            // The aligned planner assigns right rows below the first left
            // key to no task (joins drop them; this merge must not).
            tasks
                .first_mut()
                .expect("old_len > 0 yields a task")
                .1
                .start = 0;
            tasks
        };
        let (tail, ord, mults) = (&tail, &ord, &self.mults);
        let live = |range: std::ops::Range<usize>| {
            (range.start as u32..range.end as u32).filter(|&q| mults[q as usize] > 0)
        };
        let orders = crate::exec::try_run_tasks(cfg, tasks, |(pr, tr)| {
            crate::fault::fire("bag::reseal_delta::merge");
            let mut order = Vec::with_capacity(pr.len() + tr.len());
            let use_gallop = pr.len() >= crate::exec::GALLOP_RATIO * tr.len().max(1);
            let mut p = pr.start;
            for &tid in &tail[tr] {
                // End of the prefix stretch that sorts before this tail
                // row: galloped under skew, scanned otherwise.
                let bound = if use_gallop {
                    crate::exec::gallop_bound(p, pr.end, |q| ord.less(q as u32, tid))
                } else {
                    let mut q = p;
                    while q < pr.end && ord.less(q as u32, tid) {
                        q += 1;
                    }
                    q
                };
                order.extend(live(p..bound));
                order.push(tid);
                p = bound;
            }
            order.extend(live(p..pr.end));
            order
        })?;
        let order = orders.concat();
        let data = crate::store::gather_rows(arity, self.store.values(), &order, cfg.deadline())?;
        let mults = order.iter().map(|&i| self.mults[i as usize]).collect();
        let store = RowStore::from_sorted_rows(arity, order.len(), data)
            .expect("the merged run ascends strictly");
        // Unlike other bulk outputs, build the index now: the next delta
        // probes this bag at once, and a build deferred onto that probe
        // measured slower in the serving benchmark.
        store.build_index();
        *self = Bag::adopt(self.schema.clone(), store, mults, true);
        Ok(())
    }

    /// The support `Supp(R)` as a relation over the same schema.
    pub fn support(&self) -> Relation {
        let arity = self.schema.arity();
        let ids: Vec<u32> = self.live_ids().collect();
        let data =
            crate::store::gather_rows(arity, self.store.values(), &ids, &crate::Deadline::NONE)
                .expect("a copy without a deadline cannot abort");
        // Support rows of an interned bag are distinct.
        let store = RowStore::from_distinct_rows(arity, ids.len(), data);
        Relation::from_store(self.schema.clone(), store, self.sealed || ids.is_empty())
    }

    /// The marginal `R[Z]` of Equation (2) of the paper.
    ///
    /// Requires `Z ⊆ X`; multiplicities of collapsing tuples are summed
    /// with overflow checking. This is one columnar scan: rows are
    /// projected into a reused scratch buffer and accumulated in the
    /// output arena — no per-row boxing. When `Z` is a *prefix* of a
    /// sealed bag's schema the scan degenerates to a group-by sweep over
    /// adjacent rows with no hashing, and the result is itself sealed.
    pub fn marginal(&self, sub: &Schema) -> Result<Bag> {
        self.marginal_with(sub, &ExecConfig::sequential())
    }

    /// [`Bag::marginal`] under an explicit execution configuration.
    ///
    /// When `Z` is a prefix of a sealed bag's schema, the group-by sweep
    /// (`store::prefix_groups`) shards at key-group boundaries
    /// per `cfg`; its groups ascend, so the result is sealed and
    /// byte-identical at every thread count. All other cases (unsealed or
    /// non-prefix `Z`) take the sequential scan: their rows are
    /// unordered, so shards would collide on output groups.
    pub fn marginal_with(&self, sub: &Schema, cfg: &ExecConfig) -> Result<Bag> {
        let idx = self.schema.projection_indices(sub)?;
        if self.sealed && crate::tuple::is_prefix_projection(&idx) {
            let (data, sums) =
                crate::store::prefix_groups(&self.store, Some(&self.mults), idx.len(), cfg)?;
            let store = RowStore::from_sorted_rows(idx.len(), sums.len(), data)
                .expect("the groups of a sorted run ascend strictly");
            return Ok(Bag::adopt(sub.clone(), store, sums, true));
        }
        let mut out = Bag::with_capacity(sub.clone(), self.live.min(1 << 20));
        let mut scratch: Vec<Value> = Vec::with_capacity(idx.len());
        for (row, m) in self.iter() {
            scratch.clear();
            scratch.extend(idx.iter().map(|&i| row[i]));
            out.insert_row(&scratch, m)?;
        }
        Ok(out)
    }

    /// Reassembles a sealed bag from its persisted parts — the snapshot
    /// loading seam. `store` must already satisfy the sealed sorted-run
    /// invariant (certified by [`RowStore::from_sorted_rows`], not
    /// recomputed here), `mults` is the dense multiplicity column with no
    /// tombstones. No re-interning, no re-sorting. Returns `None` on any shape
    /// violation: arity mismatch, column-length mismatch, or a zero
    /// multiplicity (tombstones never survive a seal).
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
        let live = store.len();
        Bag {
            schema,
            store,
            mults,
            live,
            sealed,
        }
    }

    /// The multiplicity column by dense row id (`0` marks a tombstone).
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

    /// Multiplicity by dense row id (0 for tombstoned rows).
    #[inline]
    pub fn mult_of(&self, id: u32) -> u64 {
        self.mults[id as usize]
    }

    /// Ids of live (non-tombstone) rows in storage order. On a sealed
    /// bag this is `0..store().len()` in lexicographic row order.
    pub fn live_ids(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.store.len() as u32).filter(|&i| self.mults[i as usize] > 0)
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
        // Scaling keeps the rows, their order, and the tombstones.
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
        let (mut data, mut mults) = (Vec::with_capacity(self.live * src.len()), Vec::new());
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
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.live == other.live
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
        b.insert(vec![Value(1), Value(1)], 4).unwrap();
        assert_eq!(b.multiplicity(&[Value(1), Value(1)]), 4);
        assert_eq!(b.support_size(), 3);
        // unary size ignores tombstones
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
        // Sealed prefix sweep vs unsealed hash accumulation.
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

    #[test]
    fn seal_compacts_tombstones_and_sorts() {
        let mut b = Bag::new(schema(&[0]));
        for v in [5u64, 1, 9, 3] {
            b.insert(vec![Value(v)], v).unwrap();
        }
        b.set(vec![Value(9)], 0).unwrap();
        assert!(!b.is_sealed());
        b.seal();
        assert!(b.is_sealed());
        assert_eq!(b.support_size(), 3);
        let rows: Vec<u64> = b.iter().map(|(r, _)| r[0].get()).collect();
        assert_eq!(rows, vec![1, 3, 5], "iteration follows the sorted run");
        assert_eq!(b.multiplicity(&[Value(9)]), 0);
        assert_eq!(b.multiplicity(&[Value(3)]), 3);
    }

    #[test]
    fn try_seal_with_is_bit_identical_to_sequential_seal() {
        // duplicate-heavy rows, reverse insertion order, and a tombstone:
        // everything the seal has to repair.
        let mut bag = Bag::new(schema(&[0, 1]));
        for i in (0..500u64).rev() {
            bag.insert(vec![Value(i % 23), Value(i % 7)], i % 5 + 1)
                .unwrap();
        }
        bag.set(vec![Value(3), Value(3)], 0).unwrap();
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

    /// A bag fingerprint for atomicity assertions: physical layout
    /// (row-major values in id order), multiplicity column, live count,
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
                "threads={threads}: layout, mults, live count and seal flag \
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
