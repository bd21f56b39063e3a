//! Tuples: rows of values aligned to a schema.
//!
//! Internally a tuple over schema `X` is stored as a [`Row`] — a boxed
//! slice of [`Value`]s ordered by `X`'s sorted attribute order. The public
//! [`Tuple`] type pairs a row with its schema for type-safe construction
//! from attribute/value assignments and for display.

use crate::{Attr, CoreError, Result, Schema, Value};
use std::fmt;

/// A raw row: values in the owning schema's attribute order.
pub type Row = Box<[Value]>;

/// A tuple over an explicit schema.
///
/// `Tuple` is the safe boundary API; the hot paths inside [`crate::Bag`]
/// work on raw [`Row`]s whose schema is implied by the containing bag.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    schema: Schema,
    row: Row,
}

impl Tuple {
    /// Creates a tuple from a row already in schema order.
    pub fn new(schema: Schema, row: impl Into<Vec<Value>>) -> Result<Self> {
        let row: Vec<Value> = row.into();
        if row.len() != schema.arity() {
            return Err(CoreError::ArityMismatch {
                expected: schema.arity(),
                got: row.len(),
            });
        }
        Ok(Tuple {
            schema,
            row: row.into_boxed_slice(),
        })
    }

    /// Creates a tuple from an unordered attribute/value assignment.
    ///
    /// Every attribute of `schema` must be assigned exactly once.
    pub fn from_assignment(schema: &Schema, pairs: &[(Attr, Value)]) -> Result<Self> {
        if pairs.len() != schema.arity() {
            // Either a duplicate, a missing, or a foreign attribute; find
            // which for a precise error below by falling through.
        }
        let mut row = vec![None; schema.arity()];
        for &(a, v) in pairs {
            match schema.position(a) {
                Some(p) => {
                    if row[p].replace(v).is_some() {
                        return Err(CoreError::DuplicateAttr(a));
                    }
                }
                None => {
                    return Err(CoreError::NotASubschema {
                        sub: Schema::from_attrs([a]),
                        sup: schema.clone(),
                    })
                }
            }
        }
        let mut out = Vec::with_capacity(schema.arity());
        for (i, slot) in row.into_iter().enumerate() {
            match slot {
                Some(v) => out.push(v),
                None => return Err(CoreError::MissingAttr(schema.attrs()[i])),
            }
        }
        Ok(Tuple {
            schema: schema.clone(),
            row: out.into_boxed_slice(),
        })
    }

    /// The empty tuple over the empty schema.
    pub fn empty() -> Self {
        Tuple {
            schema: Schema::empty(),
            row: Box::new([]),
        }
    }

    /// The tuple's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The underlying row in schema order.
    #[inline]
    pub fn row(&self) -> &[Value] {
        &self.row
    }

    /// The value of attribute `a`, if `a` is in the schema.
    pub fn get(&self, a: Attr) -> Option<Value> {
        self.schema.position(a).map(|p| self.row[p])
    }

    /// Projection `t[Z]` of the paper: the unique `Z`-tuple agreeing with
    /// `t` on `Z ⊆ X`.
    pub fn project(&self, sub: &Schema) -> Result<Tuple> {
        let idx = self.schema.projection_indices(sub)?;
        let row: Vec<Value> = idx.iter().map(|&i| self.row[i]).collect();
        Ok(Tuple {
            schema: sub.clone(),
            row: row.into_boxed_slice(),
        })
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (a, v)) in self.schema.iter().zip(self.row.iter()).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}={v}")?;
        }
        write!(f, ")")
    }
}

/// Projects a raw row through precomputed projection indices.
///
/// `indices` must come from [`Schema::projection_indices`] for the row's
/// schema; this is the hot-path variant used by marginals and joins.
#[inline]
pub fn project_row(row: &[Value], indices: &[usize]) -> Row {
    indices.iter().map(|&i| row[i]).collect()
}

/// True iff `indices` is `[0, 1, …, k-1]` — a schema-prefix projection.
/// Sealed (lex-sorted) storage is already grouped by any such prefix,
/// which lets marginals, projections, and merge joins skip their sort.
#[inline]
pub(crate) fn is_prefix_projection(indices: &[usize]) -> bool {
    indices.iter().enumerate().all(|(i, &j)| i == j)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    #[test]
    fn new_checks_arity() {
        let x = schema(&[1, 2]);
        assert!(Tuple::new(x.clone(), vec![Value(1)]).is_err());
        let t = Tuple::new(x, vec![Value(1), Value(2)]).unwrap();
        assert_eq!(t.row(), &[Value(1), Value(2)]);
    }

    #[test]
    fn assignment_any_order() {
        let x = schema(&[1, 2, 3]);
        let t = Tuple::from_assignment(
            &x,
            &[
                (Attr(3), Value(30)),
                (Attr(1), Value(10)),
                (Attr(2), Value(20)),
            ],
        )
        .unwrap();
        assert_eq!(t.row(), &[Value(10), Value(20), Value(30)]);
        assert_eq!(t.get(Attr(2)), Some(Value(20)));
        assert_eq!(t.get(Attr(9)), None);
    }

    #[test]
    fn assignment_rejects_duplicates_and_missing() {
        let x = schema(&[1, 2]);
        let dup = Tuple::from_assignment(&x, &[(Attr(1), Value(1)), (Attr(1), Value(2))]);
        assert_eq!(dup.unwrap_err(), CoreError::DuplicateAttr(Attr(1)));
        let missing = Tuple::from_assignment(&x, &[(Attr(1), Value(1))]);
        assert_eq!(missing.unwrap_err(), CoreError::MissingAttr(Attr(2)));
        let foreign = Tuple::from_assignment(&x, &[(Attr(1), Value(1)), (Attr(9), Value(2))]);
        assert!(foreign.is_err());
    }

    #[test]
    fn projection_agrees_on_sub() {
        let x = schema(&[1, 2, 3]);
        let t = Tuple::new(x, vec![Value(10), Value(20), Value(30)]).unwrap();
        let p = t.project(&schema(&[3, 1])).unwrap();
        assert_eq!(p.schema(), &schema(&[1, 3]));
        assert_eq!(p.row(), &[Value(10), Value(30)]);
        // t[∅] is the empty tuple.
        let e = t.project(&Schema::empty()).unwrap();
        assert_eq!(e, Tuple::empty());
    }

    #[test]
    fn project_row_hot_path_matches_tuple_project() {
        let x = schema(&[1, 2, 3, 4]);
        let sub = schema(&[2, 4]);
        let idx = x.projection_indices(&sub).unwrap();
        let t = Tuple::new(x, vec![Value(1), Value(2), Value(3), Value(4)]).unwrap();
        let via_row = project_row(t.row(), &idx);
        let via_tuple = t.project(&sub).unwrap();
        assert_eq!(&*via_row, via_tuple.row());
    }

    #[test]
    fn display() {
        let x = schema(&[1, 2]);
        let t = Tuple::new(x, vec![Value(5), Value(7)]).unwrap();
        assert_eq!(t.to_string(), "(A1=5, A2=7)");
        assert_eq!(Tuple::empty().to_string(), "()");
    }
}
