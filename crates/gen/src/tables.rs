//! Synthetic 3-dimensional contingency tables (the \[IJ94\] problem).
//!
//! The paper's NP-hardness for GCPB(C₃) rests on the 3DCT problem of
//! Irving and Jerrum. Their hard instances are not published as data, so
//! we substitute synthetic instances with the same input format — three
//! `n × n` margins — whose answer is known by construction, in two
//! flavours:
//!
//! * [`planted_3dct`] — margins of a random explicit table: always
//!   satisfiable, with the table as hidden certificate;
//! * [`tseitin_3dct`] — margins from the (scaled) parity construction:
//!   pairwise consistent yet unsatisfiable, realizing the paper's own
//!   obstruction at contingency-table scale.

use bagcons::reductions::ContingencyTable3D;
use bagcons::tseitin::tseitin_bags;
use bagcons_core::{Bag, Result};
use bagcons_hypergraph::triangle;
use rand::Rng;

/// Margins of a uniformly random `n × n × n` table with cell values in
/// `0..=max_cell`. Always satisfiable.
pub fn planted_3dct<R: Rng>(n: usize, max_cell: u64, rng: &mut R) -> ContingencyTable3D {
    let table: Vec<Vec<Vec<u64>>> = (0..n)
        .map(|_| {
            (0..n)
                .map(|_| (0..n).map(|_| rng.gen_range(0..=max_cell)).collect())
                .collect()
        })
        .collect();
    ContingencyTable3D::from_table(&table).expect("bounded cells cannot overflow")
}

/// A **sparse** planted table: exactly `nonzeros` random cells get values
/// in `1..=max_cell`. Sparse margins make the exact search do real
/// branching, which is what the hardness benchmarks measure.
pub fn sparse_3dct<R: Rng>(
    n: usize,
    nonzeros: usize,
    max_cell: u64,
    rng: &mut R,
) -> ContingencyTable3D {
    let mut table = vec![vec![vec![0u64; n]; n]; n];
    for _ in 0..nonzeros {
        let (i, j, k) = (
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(0..n),
        );
        table[i][j][k] = rng.gen_range(1..=max_cell);
    }
    ContingencyTable3D::from_table(&table).expect("bounded cells cannot overflow")
}

/// An **unsatisfiable** instance over domain `{0,1}` (so `n = 2`): the
/// parity margins scaled by `scale`. All three margins remain pairwise
/// consistent; no table matches them (Theorem 2's Tseitin argument).
pub fn tseitin_3dct(scale: u64) -> Result<ContingencyTable3D> {
    let bags = tseitin_bags(&triangle()).expect("triangle is 2-uniform 2-regular");
    let scaled: Result<Vec<Bag>> = bags.iter().map(|b| b.scale(scale)).collect();
    let scaled = scaled?;
    // bags come in edge order {A0,A1}, {A0,A2}, {A1,A2}; read them back
    // into the margin matrices F(XY), R(XZ), C(YZ).
    let mut inst = ContingencyTable3D {
        n: 2,
        r: vec![vec![0; 2]; 2],
        c: vec![vec![0; 2]; 2],
        f: vec![vec![0; 2]; 2],
    };
    for bag in &scaled {
        let attrs: Vec<u32> = bag.schema().iter().map(|a| a.id()).collect();
        for (row, m) in bag.iter() {
            let (a, b) = (row[0].get() as usize, row[1].get() as usize);
            match (attrs[0], attrs[1]) {
                (0, 1) => inst.f[a][b] = m,
                (0, 2) => inst.r[a][b] = m,
                (1, 2) => inst.c[a][b] = m,
                other => unreachable!("triangle edge {other:?}"),
            }
        }
    }
    Ok(inst)
}

/// Margins with one cell bumped — satisfiability no longer planted; used
/// to produce "don't know a certificate" decision workloads.
pub fn bumped_3dct<R: Rng>(base: &ContingencyTable3D, rng: &mut R) -> ContingencyTable3D {
    let mut inst = base.clone();
    let n = inst.n;
    let which = rng.gen_range(0..3);
    let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
    let m = match which {
        0 => &mut inst.r[i][j],
        1 => &mut inst.c[i][j],
        _ => &mut inst.f[i][j],
    };
    *m += 1;
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons::global::globally_consistent_via_ilp;
    use bagcons::session::Session;
    use bagcons_lp::ilp::{IlpOutcome, SolverConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn planted_is_sat() {
        let mut rng = StdRng::seed_from_u64(9);
        let inst = planted_3dct(3, 4, &mut rng);
        let bags = inst.to_bags().unwrap();
        let refs: Vec<&Bag> = bags.iter().collect();
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        assert!(dec.outcome.is_sat());
    }

    #[test]
    fn sparse_is_sat_and_sparse() {
        let mut rng = StdRng::seed_from_u64(10);
        let inst = sparse_3dct(4, 5, 3, &mut rng);
        let bags = inst.to_bags().unwrap();
        assert!(bags.iter().all(|b| b.support_size() <= 5));
        let refs: Vec<&Bag> = bags.iter().collect();
        let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
        assert!(dec.outcome.is_sat());
    }

    #[test]
    fn tseitin_is_pairwise_consistent_but_unsat() {
        for scale in [1u64, 7, 1 << 20] {
            let inst = tseitin_3dct(scale).unwrap();
            let bags = inst.to_bags().unwrap();
            let refs: Vec<&Bag> = bags.iter().collect();
            assert!(
                Session::default().pairwise_consistent(&refs).unwrap(),
                "scale {scale}"
            );
            let dec = globally_consistent_via_ilp(&refs, &SolverConfig::default()).unwrap();
            assert_eq!(dec.outcome, IlpOutcome::Unsat, "scale {scale}");
        }
    }

    #[test]
    fn bumped_changes_some_margin() {
        let mut rng = StdRng::seed_from_u64(11);
        let base = planted_3dct(2, 3, &mut rng);
        let bumped = bumped_3dct(&base, &mut rng);
        let same = base.r == bumped.r && base.c == bumped.c && base.f == bumped.f;
        assert!(!same);
    }
}
