//! NP-hardness reductions (Section 5.2, Lemmas 6 and 7, \[IJ94\]).
//!
//! * [`ContingencyTable3D`] — the 3-dimensional contingency table problem
//!   (Irving–Jerrum): given 2-D margins `R(i,k)`, `C(j,k)`, `F(i,j)`, is
//!   there a 3-D table with those margins? As the paper notes, this *is*
//!   `GCPB(C₃)` once the margins are read as bags over the triangle.
//! * [`lift_cycle_instance`] — the Lemma 6 reduction
//!   `GCPB(C_{n-1}) → GCPB(C_n)` (new attribute glued with a diagonal
//!   equality bag).
//! * [`lift_clique_complement_instance`] — the Lemma 7 reduction
//!   `GCPB(H_{n-1}) → GCPB(H_n)` (new two-valued attribute carrying a
//!   bag and its "complement to `M·D_i`").

use bagcons_core::{Attr, Bag, CoreError, FxHashSet, Result, Schema, Value};

/// A 3-dimensional statistical data table instance: three 2-D margins
/// over `[n] × [n]`.
#[derive(Clone, Debug)]
pub struct ContingencyTable3D {
    /// Side length `n`.
    pub n: usize,
    /// `R(i,k)` — margin over dimensions (1,3).
    pub r: Vec<Vec<u64>>,
    /// `C(j,k)` — margin over dimensions (2,3).
    pub c: Vec<Vec<u64>>,
    /// `F(i,j)` — margin over dimensions (1,2).
    pub f: Vec<Vec<u64>>,
}

impl ContingencyTable3D {
    /// Builds the margins of an explicit 3-D table `x[i][j][k]` — a
    /// *planted* (always satisfiable) instance.
    pub fn from_table(x: &[Vec<Vec<u64>>]) -> Result<Self> {
        let n = x.len();
        let mut r = vec![vec![0u64; n]; n];
        let mut c = vec![vec![0u64; n]; n];
        let mut f = vec![vec![0u64; n]; n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let v = x[i][j][k];
                    r[i][k] = r[i][k]
                        .checked_add(v)
                        .ok_or(CoreError::MultiplicityOverflow)?;
                    c[j][k] = c[j][k]
                        .checked_add(v)
                        .ok_or(CoreError::MultiplicityOverflow)?;
                    f[i][j] = f[i][j]
                        .checked_add(v)
                        .ok_or(CoreError::MultiplicityOverflow)?;
                }
            }
        }
        Ok(ContingencyTable3D { n, r, c, f })
    }

    /// Reads the margins as three bags over the triangle hypergraph
    /// (attributes `A0 = X`, `A1 = Y`, `A2 = Z`), in the edge order
    /// `{A0,A1}, {A1,A2}, {A0,A2}`: `F(XY), C(YZ), R(XZ)`.
    pub fn to_bags(&self) -> Result<Vec<Bag>> {
        let n = self.n as u64;
        let mut f_bag = Bag::new(Schema::from_attrs([Attr(0), Attr(1)]));
        let mut c_bag = Bag::new(Schema::from_attrs([Attr(1), Attr(2)]));
        let mut r_bag = Bag::new(Schema::from_attrs([Attr(0), Attr(2)]));
        for a in 0..n {
            for b in 0..n {
                f_bag.insert(vec![Value(a), Value(b)], self.f[a as usize][b as usize])?;
                c_bag.insert(vec![Value(a), Value(b)], self.c[a as usize][b as usize])?;
                r_bag.insert(vec![Value(a), Value(b)], self.r[a as usize][b as usize])?;
            }
        }
        Ok(vec![f_bag, c_bag, r_bag])
    }

    /// Reconstructs a 3-D table from a witness bag over `{A0,A1,A2}`.
    pub fn table_from_witness(&self, w: &Bag) -> Vec<Vec<Vec<u64>>> {
        let n = self.n;
        let mut x = vec![vec![vec![0u64; n]; n]; n];
        for (row, m) in w.iter() {
            let (i, j, k) = (
                row[0].get() as usize,
                row[1].get() as usize,
                row[2].get() as usize,
            );
            x[i][j][k] = m;
        }
        x
    }
}

/// Reorders a GCPB(C_m) instance into canonical cycle order: bag `i` over
/// `{A_i, A_{i+1}}` for `i < m-1`, closing bag over `{A_0, A_{m-1}}`.
/// Accepts the bags in any order; errors if the schemas are not exactly
/// the edges of `C_m` over `A_0 … A_{m-1}`.
fn normalize_cycle_instance(bags: &[Bag]) -> Result<Vec<Bag>> {
    let m = bags.len() as u32;
    let mut out = Vec::with_capacity(bags.len());
    for i in 0..m {
        let expected = if i + 1 < m {
            Schema::from_attrs([Attr(i), Attr(i + 1)])
        } else {
            Schema::from_attrs([Attr(0), Attr(m - 1)])
        };
        match bags.iter().find(|b| b.schema() == &expected) {
            Some(b) => out.push(b.clone()),
            None => {
                return Err(CoreError::SchemaMismatch {
                    left: bags[i as usize].schema().clone(),
                    right: expected,
                })
            }
        }
    }
    Ok(out)
}

/// Lemma 6: reduces a GCPB(C_{n-1}) instance to a GCPB(C_n) instance.
///
/// The closing bag `R_{n-1}(A_{n-2} A_0)` becomes an identical copy over
/// `(A_{n-2}, A_{n-1})`, and a fresh diagonal bag over `(A_{n-1}, A_0)`
/// with `R_n(a,a) = R_{n-1}[A_0](a)` is appended. Global consistency is
/// preserved in both directions.
pub fn lift_cycle_instance(bags: &[Bag]) -> Result<Vec<Bag>> {
    let bags = normalize_cycle_instance(bags)?;
    let m = bags.len() as u32; // old cycle length n-1
    let last = bags.last().expect("cycle instance has ≥ 3 bags");
    // identical copy of schema {A_{m-1}, A_m}: rename A_0 -> A_m
    let copy = last.rename(|a| if a == Attr(0) { Attr(m) } else { a })?;
    // diagonal bag over {A_0, A_m} from the A_0-marginal of `last`
    let a0_marginal = last.marginal(&Schema::from_attrs([Attr(0)]))?;
    let mut diagonal = Bag::new(Schema::from_attrs([Attr(0), Attr(m)]));
    for (row, mult) in a0_marginal.iter() {
        diagonal.insert(vec![row[0], row[0]], mult)?;
    }
    let mut out: Vec<Bag> = bags[..bags.len() - 1].to_vec();
    out.push(copy);
    out.push(diagonal);
    Ok(out)
}

/// Transforms a witness for the lifted C_n instance back into a witness
/// for the original C_{n-1} instance (the converse direction of Lemma 6):
/// restrict to tuples with `t[A_{n-1}] = t[A_{n-2}]`… — per the paper,
/// simply marginalize the diagonal-constrained witness onto `A_0 … A_{n-2}`
/// after filtering rows where the two glued columns agree.
pub fn project_cycle_witness(witness: &Bag, old_len: u32) -> Result<Bag> {
    let new_attr = Attr(old_len);
    let old_schema = Schema::from_attrs((0..old_len).map(Attr));
    let idx_new = witness
        .schema()
        .position(new_attr)
        .expect("witness over A_0..A_m");
    let idx_a0 = witness
        .schema()
        .position(Attr(0))
        .expect("A_0 in witness schema");
    let proj = witness.schema().projection_indices(&old_schema)?;
    let mut out = Bag::new(old_schema);
    for (row, m) in witness.iter() {
        if row[idx_new] == row[idx_a0] {
            let old_row: Vec<Value> = proj.iter().map(|&i| row[i]).collect();
            out.insert(old_row, m)?;
        }
    }
    Ok(out)
}

/// Reorders a GCPB(H_m) instance over `A_0 … A_{m-1}` into the paper's
/// listing (`bags[i]` over the complement of `{A_i}`), accepting any
/// input order.
fn normalize_hn_instance(bags: &[Bag]) -> Result<Vec<Bag>> {
    let m = bags.len() as u32;
    let mut out = Vec::with_capacity(bags.len());
    for i in 0..m {
        let expected = Schema::from_attrs((0..m).filter(|&j| j != i).map(Attr));
        match bags.iter().find(|b| b.schema() == &expected) {
            Some(b) => out.push(b.clone()),
            None => {
                return Err(CoreError::SchemaMismatch {
                    left: bags[i as usize].schema().clone(),
                    right: expected,
                })
            }
        }
    }
    Ok(out)
}

/// Lemma 7: reduces a GCPB(H_{n-1}) instance (bags `R_i` over
/// `{A_0,…,A_{n-2}} \ {A_i}`) to a GCPB(H_n) instance.
///
/// A new attribute `A_{n-1}` with domain `{1,2}` is added. With `M` the
/// maximum input multiplicity and `D_i` the active-domain size of `A_i`:
/// `S_i(t,1) = R_i(t)` and `S_i(t,2) = M·D_i − R_i(t)` over the active
/// domain product, and the closing bag `S_n(t) = M` for every tuple over
/// the old attributes' active domains.
pub fn lift_clique_complement_instance(bags: &[Bag]) -> Result<Vec<Bag>> {
    let bags = normalize_hn_instance(bags)?;
    let n1 = bags.len() as u32; // n-1 bags over n-1 attributes
    let new_attr = Attr(n1);
    // Active domains per attribute.
    let mut domains: Vec<FxHashSet<Value>> = vec![FxHashSet::default(); n1 as usize];
    for bag in &bags {
        let attrs: Vec<Attr> = bag.schema().iter().collect();
        for (row, _) in bag.iter() {
            for (pos, &a) in attrs.iter().enumerate() {
                domains[a.id() as usize].insert(row[pos]);
            }
        }
    }
    let m_mult: u64 = bags
        .iter()
        .map(|b| b.multiplicity_bound())
        .max()
        .unwrap_or(0);
    let mut out = Vec::with_capacity(bags.len() + 1);
    for (i, bag) in bags.iter().enumerate() {
        let d_i = domains[i].len() as u64;
        let cap = m_mult
            .checked_mul(d_i)
            .ok_or(CoreError::MultiplicityOverflow)?;
        let xi = bag.schema().clone();
        let yi = xi.union(&Schema::from_attrs([new_attr]));
        let mut s_i = Bag::new(yi.clone());
        // Enumerate the active-domain product over X_i.
        let attrs: Vec<Attr> = xi.iter().collect();
        let choices: Vec<Vec<Value>> = attrs
            .iter()
            .map(|a| {
                let mut v: Vec<Value> = domains[a.id() as usize].iter().copied().collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut t = vec![Value(0); attrs.len()];
        enumerate_product(&choices, &mut t, 0, &mut |t| {
            let r_t = bag.multiplicity(t);
            // new attribute sorts last (ids are increasing)
            let mut row1 = t.to_vec();
            row1.push(Value(1));
            s_i.insert(row1, r_t)?;
            let mut row2 = t.to_vec();
            row2.push(Value(2));
            s_i.insert(row2, cap - r_t)?;
            Ok(())
        })?;
        out.push(s_i);
    }
    // Closing bag over all old attributes, uniform M.
    let yn = Schema::from_attrs((0..n1).map(Attr));
    let mut s_n = Bag::new(yn.clone());
    let choices: Vec<Vec<Value>> = (0..n1 as usize)
        .map(|i| {
            let mut v: Vec<Value> = domains[i].iter().copied().collect();
            v.sort_unstable();
            v
        })
        .collect();
    let mut t = vec![Value(0); n1 as usize];
    enumerate_product(&choices, &mut t, 0, &mut |t| {
        s_n.insert(t, m_mult)?;
        Ok(())
    })?;
    out.push(s_n);
    Ok(out)
}

/// Recovers a witness for the original H_{n-1} instance from a witness of
/// the lifted H_n instance: `R(t) = S(t, A_{n-1}=1)`.
pub fn project_clique_complement_witness(witness: &Bag, old_attrs: u32) -> Result<Bag> {
    let old_schema = Schema::from_attrs((0..old_attrs).map(Attr));
    let new_attr = Attr(old_attrs);
    let idx_new = witness
        .schema()
        .position(new_attr)
        .expect("lifted witness has A_{n-1}");
    let proj = witness.schema().projection_indices(&old_schema)?;
    let mut out = Bag::new(old_schema);
    for (row, m) in witness.iter() {
        if row[idx_new] == Value(1) {
            let old_row: Vec<Value> = proj.iter().map(|&i| row[i]).collect();
            out.insert(old_row, m)?;
        }
    }
    Ok(out)
}

fn enumerate_product(
    choices: &[Vec<Value>],
    t: &mut Vec<Value>,
    pos: usize,
    f: &mut impl FnMut(&[Value]) -> Result<()>,
) -> Result<()> {
    if pos == choices.len() {
        return f(t);
    }
    for &v in &choices[pos] {
        t[pos] = v;
        enumerate_product(choices, t, pos + 1, f)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::globally_consistent_via_ilp;
    use crate::session::Session;
    use crate::tseitin::tseitin_bags;
    use bagcons_hypergraph::{cycle, full_clique_complement};
    use bagcons_lp::ilp::{IlpOutcome, SolverConfig};

    fn decide(bags: &[Bag]) -> (IlpOutcome, Option<Bag>) {
        let refs: Vec<&Bag> = bags.iter().collect();
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        (dec.outcome, dec.witness)
    }

    #[test]
    fn planted_3dct_is_satisfiable() {
        // explicit 2×2×2 table
        let x = vec![vec![vec![1, 2], vec![0, 3]], vec![vec![4, 0], vec![2, 1]]];
        let inst = ContingencyTable3D::from_table(&x).unwrap();
        let bags = inst.to_bags().unwrap();
        let (outcome, w) = decide(&bags);
        assert!(outcome.is_sat());
        let w = w.unwrap();
        // the reconstructed table has the prescribed margins
        let y = inst.table_from_witness(&w);
        let inst2 = ContingencyTable3D::from_table(&y).unwrap();
        assert_eq!(inst.r, inst2.r);
        assert_eq!(inst.c, inst2.c);
        assert_eq!(inst.f, inst2.f);
    }

    #[test]
    fn unsat_3dct_from_parity() {
        // margins that are pairwise consistent but unsatisfiable: the
        // Tseitin parity construction *is* such an instance
        let bags = tseitin_bags(&cycle(3)).unwrap();
        let (outcome, _) = decide(&bags);
        assert_eq!(outcome, IlpOutcome::Unsat);
    }

    #[test]
    fn cycle_lift_preserves_sat() {
        // satisfiable C3 instance (diagonal)
        let d: Vec<(&[u64], u64)> = vec![(&[0, 0], 2), (&[1, 1], 3)];
        let bags = vec![
            Bag::from_u64s(Schema::from_attrs([Attr(0), Attr(1)]), d.clone()).unwrap(),
            Bag::from_u64s(Schema::from_attrs([Attr(1), Attr(2)]), d.clone()).unwrap(),
            Bag::from_u64s(Schema::from_attrs([Attr(0), Attr(2)]), d).unwrap(),
        ];
        let (o0, _) = decide(&bags);
        assert!(o0.is_sat());
        let lifted = lift_cycle_instance(&bags).unwrap();
        assert_eq!(lifted.len(), 4);
        // lifted schemas form C4
        let h = crate::global::schema_hypergraph(&lifted.iter().collect::<Vec<_>>());
        assert_eq!(h, cycle(4));
        let (o1, w) = decide(&lifted);
        assert!(o1.is_sat());
        // and the witness projects back to a witness of the original
        let back = project_cycle_witness(&w.unwrap(), 3).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        assert!(Session::default().is_global_witness(&back, &refs).unwrap());
    }

    #[test]
    fn cycle_lift_preserves_unsat() {
        let bags = tseitin_bags(&cycle(3)).unwrap();
        let lifted = lift_cycle_instance(&bags).unwrap();
        let (o, _) = decide(&lifted);
        assert_eq!(o, IlpOutcome::Unsat);
        // and once more: C3 -> C4 -> C5
        let lifted2 = lift_cycle_instance(&lifted).unwrap();
        let (o, _) = decide(&lifted2);
        assert_eq!(o, IlpOutcome::Unsat);
    }

    #[test]
    fn cycle_lift_validates_schemas() {
        let bad = vec![Bag::new(Schema::from_attrs([Attr(5), Attr(7)]))];
        assert!(lift_cycle_instance(&bad).is_err());
    }

    #[test]
    fn hn_lift_preserves_sat() {
        // satisfiable H3 instance: margins of an explicit witness
        let w = Bag::from_u64s(
            Schema::from_attrs([Attr(0), Attr(1), Attr(2)]),
            [
                (&[0u64, 0, 0][..], 1),
                (&[0, 1, 1][..], 2),
                (&[1, 0, 1][..], 1),
            ],
        )
        .unwrap();
        let bags: Vec<Bag> = (0..3u32)
            .map(|i| {
                let sch = Schema::from_attrs((0..3).filter(|&j| j != i).map(Attr));
                w.marginal(&sch).unwrap()
            })
            .collect();
        let (o0, _) = decide(&bags);
        assert!(o0.is_sat());
        let lifted = lift_clique_complement_instance(&bags).unwrap();
        assert_eq!(lifted.len(), 4);
        // lifted schemas form H4 over the *active* domains
        let h = crate::global::schema_hypergraph(&lifted.iter().collect::<Vec<_>>());
        assert_eq!(h, full_clique_complement(4));
        let (o1, wl) = decide(&lifted);
        assert!(o1.is_sat());
        let back = project_clique_complement_witness(&wl.unwrap(), 3).unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        assert!(Session::default().is_global_witness(&back, &refs).unwrap());
    }

    #[test]
    fn hn_lift_preserves_unsat() {
        let bags = tseitin_bags(&full_clique_complement(3)).unwrap();
        let (o0, _) = decide(&bags);
        assert_eq!(o0, IlpOutcome::Unsat);
        let lifted = lift_clique_complement_instance(&bags).unwrap();
        let (o1, _) = decide(&lifted);
        assert_eq!(o1, IlpOutcome::Unsat);
    }

    #[test]
    fn table_roundtrip_shapes() {
        let x = vec![vec![vec![1, 0], vec![0, 0]], vec![vec![0, 0], vec![0, 2]]];
        let inst = ContingencyTable3D::from_table(&x).unwrap();
        assert_eq!(inst.n, 2);
        assert_eq!(inst.f[0][0], 1);
        assert_eq!(inst.f[1][1], 2);
        assert_eq!(inst.r[0][0], 1);
        assert_eq!(inst.c[1][1], 2);
        let bags = inst.to_bags().unwrap();
        assert_eq!(bags.len(), 3);
        assert_eq!(bags[0].unary_size(), 3);
    }
}
