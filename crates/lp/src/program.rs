//! The linear program `P(R₁,…,R_m)` of Equations (3) and (14).
//!
//! Variables are the join tuples `t ∈ J = R'₁ ⋈ ⋯ ⋈ R'_m`; for every bag
//! `i` and support tuple `r ∈ R'_i` there is an equality constraint
//! `Σ_{t ∈ J : t[X_i] = r} x_t = R_i(r)`. The coefficient matrix is 0/1,
//! and every variable hits **exactly one** constraint row per bag (since
//! `t[X_i] ∈ R'_i` for all join tuples). For `m = 2` this makes the matrix
//! the vertex-edge incidence matrix of a bipartite graph — the total
//! unimodularity fact behind Lemma 2 — which
//! [`ConsistencyProgram::is_bipartite_incidence`] lets tests confirm.

use bagcons_core::join::multi_relation_join;
use bagcons_core::{Bag, CoreError, FxHashMap, Relation, Result, Row, Schema, Value};

/// The program `P(R₁,…,R_m)` in explicit sparse form.
#[derive(Clone, Debug)]
pub struct ConsistencyProgram {
    /// Schemas `X₁,…,X_m` of the input bags.
    schemas: Vec<Schema>,
    /// The joint schema `X₁ ∪ ⋯ ∪ X_m`.
    join_schema: Schema,
    /// The variables: join tuples of `J`, sorted lexicographically.
    variables: Vec<Row>,
    /// Right-hand sides: one per constraint row, as `(bag, support row, b)`.
    constraints: Vec<(usize, Row, u64)>,
    /// `var_rows[v·m .. (v+1)·m]` = the `m` constraint rows variable `v`
    /// hits, one per bag in bag order.
    var_rows: Vec<u32>,
    /// `row_vars[row_start[r] .. row_start[r+1]]` = the variables of
    /// constraint row `r`, ascending: the transpose of `var_rows`.
    row_start: Vec<u32>,
    row_vars: Vec<u32>,
}

impl ConsistencyProgram {
    /// Builds `P(R₁,…,R_m)`.
    ///
    /// The variable set is the join of the supports, which can be
    /// exponentially large in `m` — exactly the blow-up Theorem 3 is
    /// about. Callers on fixed schemas (GCPB(H)) have `m` constant.
    pub fn build(bags: &[&Bag]) -> Result<Self> {
        let schemas: Vec<Schema> = bags.iter().map(|b| b.schema().clone()).collect();
        let supports: Vec<Relation> = bags.iter().map(|b| b.support()).collect();
        let support_refs: Vec<&Relation> = supports.iter().collect();
        let join = multi_relation_join(&support_refs);
        let join_schema = join.schema().clone();

        let mut variables: Vec<Row> = join.iter().map(|r| r.to_vec().into_boxed_slice()).collect();
        variables.sort_unstable();

        // Constraint rows, and a lookup (bag, support row) -> row index.
        let mut constraints: Vec<(usize, Row, u64)> = Vec::new();
        let mut row_index: FxHashMap<(usize, Row), u32> = FxHashMap::default();
        for (i, bag) in bags.iter().enumerate() {
            for (row, m) in bag.iter_sorted() {
                let key: Row = row.to_vec().into_boxed_slice();
                row_index.insert((i, key.clone()), constraints.len() as u32);
                constraints.push((i, key, m));
            }
        }

        // Projection indices from the join schema into each X_i.
        let projections: Vec<Vec<usize>> = schemas
            .iter()
            .map(|x| join_schema.projection_indices(x))
            .collect::<Result<_>>()?;

        let mut var_rows = Vec::with_capacity(variables.len() * bags.len());
        for t in &variables {
            for (i, idx) in projections.iter().enumerate() {
                let proj: Row = idx.iter().map(|&p| t[p]).collect();
                let row = row_index
                    .get(&(i, proj))
                    .copied()
                    .expect("join tuple projects into every support");
                var_rows.push(row);
            }
        }

        // Counting sort of the (row, variable) incidences by row; variables
        // are visited in ascending order, so each row's list is ascending.
        let mut row_start = vec![0u32; constraints.len() + 1];
        for &row in &var_rows {
            row_start[row as usize + 1] += 1;
        }
        for r in 0..constraints.len() {
            row_start[r + 1] += row_start[r];
        }
        let mut fill: Vec<u32> = row_start[..constraints.len()].to_vec();
        let mut row_vars = vec![0u32; var_rows.len()];
        for (i, &row) in var_rows.iter().enumerate() {
            row_vars[fill[row as usize] as usize] = (i / bags.len()) as u32;
            fill[row as usize] += 1;
        }

        Ok(ConsistencyProgram {
            schemas,
            join_schema,
            variables,
            constraints,
            var_rows,
            row_start,
            row_vars,
        })
    }

    /// Number of variables `|J|`.
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraint rows `Σ |R'_i|`.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of input bags `m`.
    pub fn num_bags(&self) -> usize {
        self.schemas.len()
    }

    /// The joint schema `X₁ ∪ ⋯ ∪ X_m`.
    pub fn join_schema(&self) -> &Schema {
        &self.join_schema
    }

    /// The join tuple of variable `v` (sorted order).
    pub fn variable(&self, v: usize) -> &[Value] {
        &self.variables[v]
    }

    /// The right-hand side vector `b`.
    pub fn rhs(&self) -> Vec<u64> {
        self.constraints.iter().map(|&(_, _, b)| b).collect()
    }

    /// The constraint rows hit by variable `v` — exactly one per bag.
    pub fn rows_of(&self, v: usize) -> &[u32] {
        let m = self.num_bags();
        &self.var_rows[v * m..(v + 1) * m]
    }

    /// The variables constraint row `row` sums over, ascending.
    pub fn vars_of(&self, row: usize) -> &[u32] {
        &self.row_vars[self.row_start[row] as usize..self.row_start[row + 1] as usize]
    }

    /// Per-bag totals `‖R_i‖u` read off the right-hand sides. Feasibility
    /// requires all of them to be equal (the `∅`-marginal condition) —
    /// the solver uses this as a presolve check.
    pub fn bag_totals(&self) -> Vec<u128> {
        let mut totals = vec![0u128; self.num_bags()];
        for &(i, _, b) in &self.constraints {
            totals[i] += b as u128;
        }
        totals
    }

    /// Checks a candidate assignment exactly: `Ax = b`, `x ≥ 0` implicit.
    pub fn is_feasible_point(&self, x: &[u64]) -> bool {
        if x.len() != self.variables.len() {
            return false;
        }
        let mut lhs = vec![0u128; self.constraints.len()];
        for (v, &xv) in x.iter().enumerate() {
            for &row in self.rows_of(v) {
                lhs[row as usize] += xv as u128;
            }
        }
        lhs.iter()
            .zip(self.constraints.iter())
            .all(|(&got, &(_, _, want))| got == want as u128)
    }

    /// Converts a solution vector into the witness bag it encodes.
    pub fn bag_from_solution(&self, x: &[u64]) -> Result<Bag> {
        if x.len() != self.variables.len() {
            return Err(CoreError::ArityMismatch {
                expected: self.variables.len(),
                got: x.len(),
            });
        }
        let mut bag = Bag::with_capacity(self.join_schema.clone(), x.len());
        for (v, &m) in x.iter().enumerate() {
            bag.insert(&self.variables[v], m)?;
        }
        Ok(bag)
    }

    /// Converts a candidate witness bag into a solution vector, provided
    /// its support lies inside `J` (Lemma 1 guarantees this for true
    /// witnesses). Returns `None` if some support tuple is outside `J`.
    pub fn solution_from_bag(&self, w: &Bag) -> Option<Vec<u64>> {
        if w.schema() != &self.join_schema {
            return None;
        }
        let index: FxHashMap<&[Value], usize> = self
            .variables
            .iter()
            .enumerate()
            .map(|(i, r)| (&**r, i))
            .collect();
        let mut x = vec![0u64; self.variables.len()];
        for (row, m) in w.iter() {
            let &v = index.get(row)?;
            x[v] = m;
        }
        Some(x)
    }

    /// For `m = 2`: verifies the structural fact behind Lemma 2 — the
    /// constraint matrix is the vertex-edge incidence matrix of a
    /// bipartite graph (every column has exactly one 1 in the rows of bag
    /// 0 and exactly one in the rows of bag 1).
    pub fn is_bipartite_incidence(&self) -> bool {
        self.num_bags() == 2
            && self.var_rows.chunks(2).all(|rows| {
                let part = |r: u32| self.constraints[r as usize].0;
                part(rows[0]) != part(rows[1])
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::Attr;

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    fn section3_pair() -> (Bag, Bag) {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 1), (&[2, 2][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 1), (&[2, 2][..], 1)]).unwrap();
        (r, s)
    }

    #[test]
    fn dimensions_match_definition() {
        let (r, s) = section3_pair();
        let p = ConsistencyProgram::build(&[&r, &s]).unwrap();
        assert_eq!(p.num_variables(), 4); // |R' ⋈ S'|
        assert_eq!(p.num_constraints(), 4); // |R'| + |S'|
        assert_eq!(p.num_bags(), 2);
        assert_eq!(p.join_schema(), &schema(&[0, 1, 2]));
    }

    #[test]
    fn every_variable_hits_one_row_per_bag() {
        let (r, s) = section3_pair();
        let p = ConsistencyProgram::build(&[&r, &s]).unwrap();
        for v in 0..p.num_variables() {
            assert_eq!(p.rows_of(v).len(), 2);
            for &row in p.rows_of(v) {
                assert!(p.vars_of(row as usize).contains(&(v as u32)));
            }
        }
        // vars_of is exactly the transpose: every incidence once, ascending
        let incidences: usize = (0..p.num_constraints()).map(|r| p.vars_of(r).len()).sum();
        assert_eq!(incidences, 2 * p.num_variables());
        for r in 0..p.num_constraints() {
            assert!(p.vars_of(r).windows(2).all(|w| w[0] < w[1]));
        }
        assert!(p.is_bipartite_incidence());
    }

    #[test]
    fn known_witness_is_feasible() {
        let (r, s) = section3_pair();
        let p = ConsistencyProgram::build(&[&r, &s]).unwrap();
        // T1 = {(1,2,2):1, (2,2,1):1}
        let t1 = Bag::from_u64s(
            schema(&[0, 1, 2]),
            [(&[1u64, 2, 2][..], 1), (&[2, 2, 1][..], 1)],
        )
        .unwrap();
        let x = p.solution_from_bag(&t1).unwrap();
        assert!(p.is_feasible_point(&x));
        assert_eq!(p.bag_from_solution(&x).unwrap(), t1);
    }

    #[test]
    fn non_witness_is_infeasible() {
        let (r, s) = section3_pair();
        let p = ConsistencyProgram::build(&[&r, &s]).unwrap();
        // the bag-join R ⋈ᵇ S (all four join tuples at multiplicity 1) is
        // NOT a witness (Section 3's headline observation)
        let x = vec![1u64; 4];
        assert!(!p.is_feasible_point(&x));
        // and the all-zero vector isn't either (rhs nonzero)
        assert!(!p.is_feasible_point(&[0, 0, 0, 0]));
    }

    #[test]
    fn triangle_program_has_three_rows_per_variable() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 1), (&[1, 1][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 0][..], 1), (&[1, 1][..], 1)]).unwrap();
        let t = Bag::from_u64s(schema(&[0, 2]), [(&[0u64, 0][..], 1), (&[1, 1][..], 1)]).unwrap();
        let p = ConsistencyProgram::build(&[&r, &s, &t]).unwrap();
        assert_eq!(p.num_bags(), 3);
        assert_eq!(p.num_variables(), 2); // (0,0,0) and (1,1,1)
        for v in 0..p.num_variables() {
            assert_eq!(p.rows_of(v).len(), 3);
        }
        assert!(!p.is_bipartite_incidence());
        // the witness x = (1,1) is feasible
        assert!(p.is_feasible_point(&[1, 1]));
    }

    #[test]
    fn empty_join_means_no_variables() {
        // pairwise consistent relations with empty 3-way join (Section 4)
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 1), (&[1, 1][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 1][..], 1), (&[1, 0][..], 1)]).unwrap();
        let t = Bag::from_u64s(schema(&[0, 2]), [(&[0u64, 0][..], 1), (&[1, 1][..], 1)]).unwrap();
        let p = ConsistencyProgram::build(&[&r, &s, &t]).unwrap();
        assert_eq!(p.num_variables(), 0);
        // no variables but nonzero rhs: infeasible
        assert!(!p.is_feasible_point(&[]));
    }

    #[test]
    fn solution_from_bag_rejects_foreign_support() {
        let (r, s) = section3_pair();
        let p = ConsistencyProgram::build(&[&r, &s]).unwrap();
        let alien = Bag::from_u64s(schema(&[0, 1, 2]), [(&[9u64, 9, 9][..], 1)]).unwrap();
        assert!(p.solution_from_bag(&alien).is_none());
    }

    #[test]
    fn single_bag_program() {
        let r = Bag::from_u64s(schema(&[0]), [(&[1u64][..], 4), (&[2][..], 2)]).unwrap();
        let p = ConsistencyProgram::build(&[&r]).unwrap();
        assert_eq!(p.num_variables(), 2);
        // unique solution: the bag itself
        let x = p.solution_from_bag(&r).unwrap();
        assert!(p.is_feasible_point(&x));
        assert_eq!(p.rhs(), vec![4, 2]);
    }
}
