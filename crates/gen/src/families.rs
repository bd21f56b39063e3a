//! The paper's own example families.
//!
//! * [`section3_pair`] — the bags `R_{n-1}(A,B)`, `S_{n-1}(B,C)` of
//!   Section 3: consistent, with **exactly `2^{n-1}` witnesses**, all
//!   pairwise incomparable under bag containment, and every witness
//!   support strictly inside `(R ⋈ S)'`.
//! * [`example1_chain`] — Example 1 (Section 5.2): path bags with
//!   multiplicity `2ⁿ` whose *bag-join-style* witness `J` has `2ⁿ` support
//!   tuples — exponentially bigger than the input — while minimal
//!   witnesses stay polynomial (Theorem 3(3)).
//! * [`random_graph`] — Erdős–Rényi graphs for the \[HLY80\] 3-colorability
//!   reduction in the set-semantics baseline.

use bagcons_core::{Attr, Bag, Result, Schema, Value};
use rand::Rng;

/// Section 3's family: returns `(R_{n-1}, S_{n-1})` for `n ≥ 2`.
///
/// `R_{n-1}(A,B) = {(1,2):1, (2,2):1, (1,3):1, (3,3):1, …, (1,n):1, (n,n):1}`
/// `S_{n-1}(B,C) = {(2,1):1, (2,2):1, (3,1):1, (3,3):1, …, (n,1):1, (n,n):1}`
/// with `A = A0`, `B = A1`, `C = A2`.
///
/// # Panics
/// Panics if `n < 2`.
pub fn section3_pair(n: u64) -> Result<(Bag, Bag)> {
    assert!(n >= 2, "the Section 3 family needs n >= 2");
    let ab = Schema::from_attrs([Attr(0), Attr(1)]);
    let bc = Schema::from_attrs([Attr(1), Attr(2)]);
    let mut r = Bag::new(ab);
    let mut s = Bag::new(bc);
    for v in 2..=n {
        r.insert(vec![Value(1), Value(v)], 1)?;
        r.insert(vec![Value(v), Value(v)], 1)?;
        s.insert(vec![Value(v), Value(1)], 1)?;
        s.insert(vec![Value(v), Value(v)], 1)?;
    }
    Ok((r, s))
}

/// Example 1's chain: bags `R_1(A_0A_1), …, R_{n-1}(A_{n-2}A_{n-1})` with
/// support `{0,1}²` and multiplicity `2ⁿ` per tuple. The uniform bag `J`
/// over `{0,1}ⁿ` with multiplicity 4 witnesses their global consistency
/// and has `2ⁿ` support tuples — exponential in the binary input size
/// `4(n-1)(n+1)`.
///
/// # Panics
/// Panics if `n < 2` or `n > 62` (multiplicities must fit `u64`).
pub fn example1_chain(n: u32) -> Result<Vec<Bag>> {
    assert!((2..=62).contains(&n), "need 2 <= n <= 62");
    let mult = 1u64 << n;
    let mut bags = Vec::with_capacity((n - 1) as usize);
    for i in 0..n - 1 {
        let schema = Schema::from_attrs([Attr(i), Attr(i + 1)]);
        let mut bag = Bag::new(schema);
        for a in 0..2u64 {
            for b in 0..2u64 {
                bag.insert(vec![Value(a), Value(b)], mult)?;
            }
        }
        bags.push(bag);
    }
    Ok(bags)
}

/// The uniform witness `J` of Example 1: support `{0,1}ⁿ`, multiplicity 4.
/// Exponentially large — build only for small `n`.
pub fn example1_uniform_witness(n: u32) -> Result<Bag> {
    assert!((2..=20).contains(&n), "2^n support tuples; keep n small");
    let schema = Schema::from_attrs((0..n).map(Attr));
    let mut bag = Bag::with_capacity(schema, 1 << n);
    for bits in 0..(1u64 << n) {
        let row: Vec<Value> = (0..n).map(|i| Value((bits >> i) & 1)).collect();
        bag.insert(row, 4)?;
    }
    Ok(bag)
}

/// An Erdős–Rényi `G(n, p)` edge list over vertices `0..n`.
pub fn random_graph<R: Rng>(n: u32, p: f64, rng: &mut R) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons::session::Session;
    use bagcons_lp::ilp::{count_solutions, SolverConfig};
    use bagcons_lp::ConsistencyProgram;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn section3_base_case_matches_paper_text() {
        let (r, s) = section3_pair(2).unwrap();
        assert_eq!(r.support_size(), 2);
        assert_eq!(s.support_size(), 2);
        assert_eq!(r.multiplicity(&[Value(1), Value(2)]), 1);
        assert_eq!(s.multiplicity(&[Value(2), Value(1)]), 1);
        assert!(Session::default().bags_consistent(&r, &s).unwrap());
    }

    #[test]
    fn section3_witness_count_is_two_to_the_n_minus_one() {
        // "there are exactly 2^{n-1} bags witnessing their consistency"
        for n in 2..=6u64 {
            let (r, s) = section3_pair(n).unwrap();
            let prog = ConsistencyProgram::build(&[&r, &s]).unwrap();
            let (count, complete) = count_solutions(&prog, &SolverConfig::default(), 1 << 20);
            assert!(complete);
            assert_eq!(count, 1 << (n - 1), "n = {n}");
        }
    }

    #[test]
    fn example1_chain_has_uniform_witness() {
        for n in 2..=8u32 {
            let bags = example1_chain(n).unwrap();
            let refs: Vec<&Bag> = bags.iter().collect();
            let j = example1_uniform_witness(n).unwrap();
            assert!(
                Session::default().is_global_witness(&j, &refs).unwrap(),
                "n = {n}"
            );
            assert_eq!(j.support_size(), 1 << n);
        }
    }

    #[test]
    fn example1_input_size_is_polynomial() {
        // binary input size ~ 4(n-1) tuples × (n+1)-ish bits each
        let n = 10;
        let bags = example1_chain(n).unwrap();
        let total_bits: u64 = bags.iter().map(|b| b.binary_size()).sum();
        assert_eq!(total_bits, 4 * (n as u64 - 1) * (n as u64 + 1));
    }

    #[test]
    fn random_graph_edge_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = random_graph(10, 0.5, &mut rng);
        assert!(g.len() <= 45);
        assert!(g.iter().all(|&(u, v)| u < v && v < 10));
        let empty = random_graph(10, 0.0, &mut rng);
        assert!(empty.is_empty());
        let full = random_graph(5, 1.0, &mut rng);
        assert_eq!(full.len(), 10);
    }
}
