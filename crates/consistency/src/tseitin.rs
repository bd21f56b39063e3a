//! The Tseitin-style construction `C(H*)` (Theorem 2, Step 2).
//!
//! For a `k`-uniform `d`-regular hypergraph `H*` with `d ≥ 2` and edges
//! `X₁,…,X_m`, the paper defines bags `R_i(X_i)`:
//!
//! * for `i < m`: support = all tuples `t : X_i → {0,…,d−1}` whose total
//!   sum is ≡ 0 (mod d), each with multiplicity 1;
//! * for `i = m`: the same with sum ≡ 1 (mod d).
//!
//! The collection is **pairwise consistent** — every marginal on
//! `Z = X_i ∩ X_j` is uniform with value `d^{k−|Z|−1}` — yet **not
//! globally consistent**: summing the per-edge congruences and using
//! `d`-regularity gives `0 ≡ 1 (mod d)`, the familiar Tseitin
//! contradiction. Applied to the minimal obstructions `C_n` (`k = d = 2`)
//! and `H_n` (`k = d = n−1`) this witnesses that cyclic hypergraphs lack
//! the local-to-global consistency property for bags.

use bagcons_core::{Bag, Result, Schema, Value};
use bagcons_hypergraph::Hypergraph;
use std::fmt;

/// Why the construction does not apply to a hypergraph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TseitinError {
    /// The hypergraph is not `k`-uniform `d`-regular.
    NotUniformRegular,
    /// Regularity degree `d < 2` (the contradiction needs `d ≥ 2`).
    DegreeTooSmall(usize),
    /// The hypergraph has no edges.
    Empty,
}

impl fmt::Display for TseitinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TseitinError::NotUniformRegular => {
                write!(f, "hypergraph is not k-uniform d-regular")
            }
            TseitinError::DegreeTooSmall(d) => {
                write!(f, "regularity degree {d} < 2: no Tseitin contradiction")
            }
            TseitinError::Empty => write!(f, "hypergraph has no edges"),
        }
    }
}

impl std::error::Error for TseitinError {}

/// Builds the collection `C(H*)`, one bag per hyperedge in
/// `h.edges()` order (the *last* edge carries the charge-1 congruence).
///
/// Each bag has `d^{k-1}` support tuples with multiplicity 1, so the
/// construction is polynomial for the fixed-parameter obstructions.
///
/// ```
/// use bagcons::session::Session;
/// use bagcons::tseitin::tseitin_bags;
/// use bagcons_hypergraph::triangle;
///
/// let bags = tseitin_bags(&triangle()).unwrap();
/// let refs: Vec<_> = bags.iter().collect();
/// // locally consistent...
/// assert!(Session::default().pairwise_consistent(&refs).unwrap());
/// // ...but the three parity constraints admit no joint bag: even the
/// // support-level join of the family is empty.
/// let supports: Vec<_> = bags.iter().map(|b| b.support()).collect();
/// let support_refs: Vec<_> = supports.iter().collect();
/// assert!(bagcons_core::join::multi_relation_join(&support_refs).is_empty());
/// ```
pub fn tseitin_bags(h: &Hypergraph) -> std::result::Result<Vec<Bag>, TseitinError> {
    let (_k, d) = h
        .uniformity_regularity()
        .ok_or(TseitinError::NotUniformRegular)?;
    if h.num_edges() == 0 {
        return Err(TseitinError::Empty);
    }
    if d < 2 {
        return Err(TseitinError::DegreeTooSmall(d));
    }
    let m = h.num_edges();
    let bags: Result<Vec<Bag>> = h
        .edges()
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let charge = if i + 1 == m { 1 } else { 0 };
            congruence_bag(x, d as u64, charge)
        })
        .collect();
    Ok(bags.expect("enumerating d^k unit tuples cannot overflow"))
}

/// The bag over `schema` whose support is all tuples with values in
/// `{0,…,d−1}` summing to `charge (mod d)`, each with multiplicity 1.
pub fn congruence_bag(schema: &Schema, d: u64, charge: u64) -> Result<Bag> {
    let k = schema.arity();
    let mut bag = Bag::with_capacity(schema.clone(), (d as usize).pow(k.saturating_sub(1) as u32));
    let mut row = vec![Value(0); k];
    fill(&mut bag, &mut row, 0, 0, d, charge % d)?;
    Ok(bag)
}

fn fill(
    bag: &mut Bag,
    row: &mut Vec<Value>,
    pos: usize,
    sum: u64,
    d: u64,
    charge: u64,
) -> Result<()> {
    if pos == row.len() {
        if sum % d == charge {
            bag.insert(row.clone(), 1)?;
        }
        return Ok(());
    }
    for v in 0..d {
        row[pos] = Value(v);
        fill(bag, row, pos + 1, sum + v, d, charge)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::globally_consistent_via_ilp;
    use crate::session::Session;
    use bagcons_core::Attr;
    use bagcons_hypergraph::{cycle, full_clique_complement, path, triangle};
    use bagcons_lp::ilp::{IlpOutcome, SolverConfig};

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    #[test]
    fn congruence_bag_counts() {
        // over 2 attrs mod 2: exactly 2 even-sum tuples of 4
        let b = congruence_bag(&schema(&[0, 1]), 2, 0).unwrap();
        assert_eq!(b.support_size(), 2);
        // over 3 attrs mod 3: 9 of 27
        let b = congruence_bag(&schema(&[0, 1, 2]), 3, 0).unwrap();
        assert_eq!(b.support_size(), 9);
        // charges partition the cube
        let total: usize = (0..3)
            .map(|c| {
                congruence_bag(&schema(&[0, 1, 2]), 3, c)
                    .unwrap()
                    .support_size()
            })
            .sum();
        assert_eq!(total, 27);
    }

    #[test]
    fn triangle_construction_is_the_parity_triangle() {
        let bags = tseitin_bags(&triangle()).unwrap();
        assert_eq!(bags.len(), 3);
        for b in &bags[..2] {
            assert_eq!(b.support_size(), 2); // even-sum pairs
        }
        assert_eq!(bags[2].support_size(), 2); // odd-sum pairs
    }

    #[test]
    fn pairwise_consistent_on_cn() {
        for n in 3u32..7 {
            let bags = tseitin_bags(&cycle(n)).unwrap();
            let refs: Vec<&Bag> = bags.iter().collect();
            assert!(
                Session::default().pairwise_consistent(&refs).unwrap(),
                "C(C_{n}) must be pairwise consistent"
            );
        }
    }

    #[test]
    fn pairwise_consistent_on_hn() {
        for n in 3u32..6 {
            let bags = tseitin_bags(&full_clique_complement(n)).unwrap();
            let refs: Vec<&Bag> = bags.iter().collect();
            assert!(
                Session::default().pairwise_consistent(&refs).unwrap(),
                "C(H_{n}) must be pairwise consistent"
            );
        }
    }

    #[test]
    fn marginals_are_uniform_with_predicted_value() {
        // the proof's claim: R_i[Z] is uniform with value d^{k-|Z|-1}
        let h = full_clique_complement(4); // k = d = 3
        let bags = tseitin_bags(&h).unwrap();
        let (k, d) = h.uniformity_regularity().unwrap();
        for (i, x) in h.edges().iter().enumerate() {
            for (j, y) in h.edges().iter().enumerate() {
                if i == j {
                    continue;
                }
                let z = x.intersection(y);
                let m = bags[i].marginal(&z).unwrap();
                let expected = (d as u64).pow((k - z.arity() - 1) as u32);
                for (_, mult) in m.iter() {
                    assert_eq!(mult, expected);
                }
                assert_eq!(m.support_size(), d.pow(z.arity() as u32));
            }
        }
    }

    #[test]
    fn globally_inconsistent_on_cn() {
        for n in 3u32..7 {
            let bags = tseitin_bags(&cycle(n)).unwrap();
            let refs: Vec<&Bag> = bags.iter().collect();
            let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
            assert_eq!(
                dec.outcome,
                IlpOutcome::Unsat,
                "C(C_{n}) must be globally inconsistent"
            );
        }
    }

    #[test]
    fn globally_inconsistent_on_hn() {
        for n in 3u32..6 {
            let bags = tseitin_bags(&full_clique_complement(n)).unwrap();
            let refs: Vec<&Bag> = bags.iter().collect();
            let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
            assert_eq!(
                dec.outcome,
                IlpOutcome::Unsat,
                "C(H_{n}) must be globally inconsistent"
            );
        }
    }

    #[test]
    fn circulant_hypergraphs_beyond_cn_and_hn() {
        // the construction applies to ANY k-uniform d-regular hypergraph;
        // circulants give an infinite family distinct from C_n and H_n
        use bagcons_hypergraph::circulant;
        for (n, k) in [(5u32, 3u32), (6, 3), (7, 3)] {
            let h = circulant(n, k);
            let bags = tseitin_bags(&h).unwrap();
            let refs: Vec<&Bag> = bags.iter().collect();
            assert!(
                Session::default().pairwise_consistent(&refs).unwrap(),
                "C(circulant({n},{k})) must be pairwise consistent"
            );
            let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
            assert_eq!(
                dec.outcome,
                IlpOutcome::Unsat,
                "C(circulant({n},{k})) must be globally inconsistent"
            );
        }
    }

    #[test]
    fn rejects_non_regular_hypergraphs() {
        assert_eq!(tseitin_bags(&path(4)), Err(TseitinError::NotUniformRegular));
    }

    #[test]
    fn rejects_degree_one() {
        // a single edge is 1-regular: no contradiction possible
        let h = Hypergraph::from_edges([schema(&[0, 1])]);
        assert_eq!(tseitin_bags(&h), Err(TseitinError::DegreeTooSmall(1)));
    }
}
