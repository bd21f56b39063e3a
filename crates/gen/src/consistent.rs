//! Planted consistent families.
//!
//! Generating a random witness bag `T` over the full vertex set and
//! marginalizing it onto every hyperedge yields a collection that is
//! globally consistent *by construction* — with `T` as the hidden
//! certificate. This is the standard planted-instance trick and exercises
//! the complete solver path (flow chains on acyclic schemas, ILP search on
//! cyclic ones) with a known ground truth.

use crate::random::random_bag;
use bagcons_core::{Bag, Result};
use bagcons_hypergraph::Hypergraph;
use rand::Rng;

/// Plants a globally consistent family over the hyperedges of `h`:
/// returns the bags (in `h.edges()` order) and the hidden witness.
pub fn planted_family<R: Rng>(
    h: &Hypergraph,
    domain: u64,
    support: usize,
    max_mult: u64,
    rng: &mut R,
) -> Result<(Vec<Bag>, Bag)> {
    let witness = random_bag(h.vertices(), domain, support, max_mult, rng);
    let bags: Result<Vec<Bag>> = h
        .edges()
        .iter()
        .map(|x| {
            let mut b = witness.marginal(x)?;
            b.seal();
            Ok(b)
        })
        .collect();
    Ok((bags?, witness))
}

/// Plants a consistent pair of bags over two explicit schemas.
pub fn planted_pair<R: Rng>(
    x: &bagcons_core::Schema,
    y: &bagcons_core::Schema,
    domain: u64,
    support: usize,
    max_mult: u64,
    rng: &mut R,
) -> Result<(Bag, Bag)> {
    let xy = x.union(y);
    let witness = random_bag(&xy, domain, support, max_mult, rng);
    let mut r = witness.marginal(x)?;
    let mut s = witness.marginal(y)?;
    r.seal();
    s.seal();
    Ok((r, s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons::session::Session;
    use bagcons_core::{Attr, Schema};
    use bagcons_hypergraph::{cycle, path, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn planted_family_is_globally_consistent() {
        let mut rng = StdRng::seed_from_u64(3);
        for h in [path(5), star(4), cycle(4)] {
            let (bags, witness) = planted_family(&h, 3, 40, 6, &mut rng).unwrap();
            let refs: Vec<&Bag> = bags.iter().collect();
            assert!(Session::default().pairwise_consistent(&refs).unwrap());
            assert!(Session::default()
                .is_global_witness(&witness, &refs)
                .unwrap());
        }
    }

    #[test]
    fn planted_pair_is_consistent() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Schema::from_attrs([Attr(0), Attr(1)]);
        let y = Schema::from_attrs([Attr(1), Attr(2)]);
        let (r, s) = planted_pair(&x, &y, 4, 30, 8, &mut rng).unwrap();
        assert!(Session::default().bags_consistent(&r, &s).unwrap());
    }
}
