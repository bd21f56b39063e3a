//! Multiplicity deltas: batched signed edits against one bag.
//!
//! A [`DeltaSet`] is an ordered list of `(row, ±delta)` multiplicity
//! edits over a fixed schema — the update unit of the incremental
//! consistency layer. It models exactly the small-perturbation workload
//! of `bagcons-gen`'s `perturb` module (bump one tuple, revert it, drop
//! a row to zero) without forcing the consumer to rebuild the bag:
//! [`crate::Bag::apply_delta`] patches the multiplicity column in place,
//! or builds the successor of a support-changing delta in one merge.
//!
//! Edits are *signed* (`i64`) and applied atomically: the whole set is
//! validated against the target bag first (no intermediate state may
//! drive a count below zero or above `u64::MAX`), and the bag is only
//! written once every edit is feasible and the successor is built
//! ([`crate::StagedDelta`]). A failed application leaves the bag
//! untouched.

use crate::{CoreError, Result, Schema, Value};

/// One signed multiplicity edit: `row`'s count changes by `delta`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaEdit {
    row: Vec<Value>,
    delta: i64,
}

impl DeltaEdit {
    /// The edited row (values in schema order).
    #[inline]
    pub fn row(&self) -> &[Value] {
        &self.row
    }

    /// The signed multiplicity change.
    #[inline]
    pub fn delta(&self) -> i64 {
        self.delta
    }
}

/// An ordered batch of signed multiplicity edits over one schema.
///
/// ```
/// use bagcons_core::{Bag, DeltaSet, Schema, Value};
///
/// let mut bag = Bag::from_u64s(Schema::range(0, 2), [(&[1u64, 2][..], 3)])?;
/// let mut delta = DeltaSet::new(bag.schema().clone());
/// delta.bump([Value(1), Value(2)], -1)?;          // existing row: in place
/// delta.bump([Value(5), Value(5)], 2)?;           // fresh row: successor
/// let applied = bag.apply_delta(&delta)?;
/// assert!(applied.support_changed());
/// assert_eq!(bag.multiplicity(&[Value(1), Value(2)]), 2);
/// assert_eq!(bag.multiplicity(&[Value(5), Value(5)]), 2);
/// # Ok::<(), bagcons_core::CoreError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaSet {
    schema: Schema,
    edits: Vec<DeltaEdit>,
}

impl DeltaSet {
    /// An empty delta over `schema`.
    pub fn new(schema: Schema) -> Self {
        DeltaSet {
            schema,
            edits: Vec::new(),
        }
    }

    /// The schema every edit row must match.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Appends an edit changing `row`'s multiplicity by `delta`
    /// (values in schema order; a `delta` of `0` is accepted and
    /// ignored at application time).
    pub fn bump(&mut self, row: impl AsRef<[Value]>, delta: i64) -> Result<()> {
        let row = row.as_ref();
        if row.len() != self.schema.arity() {
            return Err(CoreError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        self.edits.push(DeltaEdit {
            row: row.to_vec(),
            delta,
        });
        Ok(())
    }

    /// [`DeltaSet::bump`] from plain `u64` values.
    pub fn bump_u64s(&mut self, row: &[u64], delta: i64) -> Result<()> {
        let vals: Vec<Value> = row.iter().copied().map(Value::new).collect();
        self.bump(vals, delta)
    }

    /// The edits, in application order.
    #[inline]
    pub fn edits(&self) -> &[DeltaEdit] {
        &self.edits
    }

    /// Number of edits.
    #[inline]
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    /// True iff the delta carries no edits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }
}

/// What [`crate::Bag::apply_delta`] (or one
/// [`crate::StagedDelta::fold`]) did to the bag, counted against the
/// counts the delta found.
///
/// A delta that left the support unchanged
/// ([`DeltaApply::support_changed`] `== false`) only changed counts, and
/// a sealed bag took them in place; a support-changing delta built a
/// successor bag. A stream adds every edit to its pair differences
/// either way; it skips a delta that [`DeltaApply::is_noop`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaApply {
    /// Rows whose (non-zero) multiplicity changed in place.
    pub touched: usize,
    /// Rows added to the support (fresh or revived).
    pub added: usize,
    /// Rows removed from the support (dropped to zero).
    pub removed: usize,
    /// True iff the bag was laid out anew: a successor merge on a
    /// support change, or the seal of an unsealed bag — never a full
    /// re-sort of a sealed one.
    pub resealed: bool,
    /// Net change to `‖R‖u` (the unary size), for total-tracking callers.
    pub unary_change: i128,
}

impl DeltaApply {
    /// True iff the delta changed the bag's support set (not just
    /// multiplicities of existing rows).
    #[inline]
    pub fn support_changed(&self) -> bool {
        self.added > 0 || self.removed > 0
    }

    /// True iff nothing changed at all.
    #[inline]
    pub fn is_noop(&self) -> bool {
        self.touched == 0 && self.added == 0 && self.removed == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema2() -> Schema {
        Schema::range(0, 2)
    }

    #[test]
    fn bump_checks_arity() {
        let mut d = DeltaSet::new(schema2());
        assert!(d.bump([Value(1)], 1).is_err());
        assert!(d.bump([Value(1), Value(2)], 1).is_ok());
        assert_eq!(d.len(), 1);
        assert_eq!(d.edits()[0].row(), &[Value(1), Value(2)]);
        assert_eq!(d.edits()[0].delta(), 1);
    }

    #[test]
    fn empty_delta_reports_empty() {
        let d = DeltaSet::new(schema2());
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn apply_flags() {
        let a = DeltaApply {
            touched: 1,
            added: 0,
            removed: 0,
            resealed: false,
            unary_change: 1,
        };
        assert!(!a.support_changed());
        assert!(!a.is_noop());
        let b = DeltaApply {
            touched: 0,
            added: 1,
            removed: 0,
            resealed: true,
            unary_change: 2,
        };
        assert!(b.support_changed());
    }
}
