//! Two-bag and pairwise consistency (Section 3 of the paper).
//!
//! Lemma 2 gives the polynomial decision procedure: `R(X)` and `S(Y)` are
//! consistent iff `R[X∩Y] = S[X∩Y]`. The crate's one test of it is
//! `PairState`, the keyed difference `D(k) = R[Z](k) − S[Z](k)` on
//! `Z = X ∩ Y` in `i128`, which no legal input can overflow (a bag has
//! under 2^32 rows of multiplicity under 2^64). The session's pair test,
//! the screen, the diagnosis and the stream ([`crate::stream`]) use it.
//!
//! Corollary 1 adds the strongly-polynomial witness construction from a
//! saturated flow of `N(R,S)`. Every middle edge of `N(R,S)` is
//! uncapacitated, so the flow splits into one transportation problem per
//! shared-key group, and `fill_witness_with` saturates each group in one
//! northwest-corner pass instead of running max-flow. Both Corollary 1's
//! witness and every step of Theorem 6's chain ([`crate::acyclic`]) are
//! this fill.
//!
//! The fill is one step of Theorem 6's chain over row ids
//! ([`crate::acyclic`]) run on two bags: its cells come out in the
//! witness's sorted order, by the major side's rows or, when the
//! attributes interleave, by a sort, so [`Bag::from_arena`] adopts the
//! one arena it writes.
//!
//! The fill is also Theorem 5 / Corollary 4's minimal witness: within a
//! group its staircase is a forest, so it is a vertex of `P(R,S)`, and a
//! vertex has inclusion-minimal support. The paper's loop of
//! `|R' ⋈ S'| + 1` max-flows is kept as the test oracle for this
//! (`corollary4_flow_loop` in `tests/proptest_invariants.rs`).

use crate::acyclic::fill_chain;
use bagcons_core::{Bag, CoreError, ExecConfig, Result, Row, RowStore, Value};
use std::borrow::Borrow;

/// A keyed marginal difference `D(k)` over the shared attributes of one
/// bag pair, with the count of keys where it is nonzero.
#[derive(Clone)]
pub(crate) struct KeyedDiff {
    /// Every shared-attribute key either side has held since the pair
    /// was last (re)built.
    keys: RowStore,
    /// `D(k)`, parallel to `keys`.
    diff: Vec<i128>,
    nonzero: usize,
}

impl KeyedDiff {
    fn new(arity: usize) -> Self {
        KeyedDiff {
            keys: RowStore::new(arity),
            diff: Vec::new(),
            nonzero: 0,
        }
    }

    /// `D(key) += delta`, keeping the nonzero count in step.
    pub(crate) fn add(&mut self, key: &[Value], delta: i128) {
        if delta == 0 {
            return;
        }
        let (id, fresh) = self.keys.intern(key);
        if fresh {
            self.diff.push(0);
        }
        let d = &mut self.diff[id.index()];
        let was_zero = *d == 0;
        *d += delta;
        match (was_zero, *d == 0) {
            (true, false) => self.nonzero += 1,
            (false, true) => self.nonzero -= 1,
            _ => {}
        }
    }

    /// Adds `sign × R[Z]` for every row of `bag`, projecting rows onto
    /// `Z` through `z_cols`. On `Z = ∅` every row projects to the one
    /// arity-0 key, so `R[∅]` is the total `‖R‖u`, added in one step:
    /// it is zero, and interns nothing, exactly when the bag has no row,
    /// as with the row loop.
    fn accumulate(&mut self, bag: &Bag, z_cols: &[usize], sign: i128) {
        if z_cols.is_empty() {
            // ‖R‖u < 2^96: under 2^32 rows of multiplicity < 2^64.
            self.add(&[], sign * bag.unary_size() as i128);
            return;
        }
        let mut key = Vec::with_capacity(z_cols.len());
        for (row, m) in bag.iter() {
            project(row, z_cols, &mut key);
            self.add(&key, sign * i128::from(m));
        }
    }
}

/// Writes `row[z_cols]` into `key`.
pub(crate) fn project(row: &[Value], z_cols: &[usize], key: &mut Vec<Value>) {
    key.clear();
    key.extend(z_cols.iter().map(|&c| row[c]));
}

/// Lemma 2 state of one bag pair `i < j`: `D = R_i[Z] − R_j[Z]` on
/// their shared attributes `Z`. The pair is consistent iff `D = 0`.
/// The state depends only on the two bags, so a clone of it is the
/// state of the same bags (a forked stream shares it copy-on-write).
#[derive(Clone)]
pub(crate) struct PairState {
    pub(crate) i: usize,
    pub(crate) j: usize,
    /// Positions of `Z` in bag `i`'s schema.
    pub(crate) z_of_i: Vec<usize>,
    /// Positions of `Z` in bag `j`'s schema.
    pub(crate) z_of_j: Vec<usize>,
    pub(crate) diff: KeyedDiff,
}

impl PairState {
    /// Accumulates `D` for `bags[i]` and `bags[j]`.
    pub(crate) fn open<B: Borrow<Bag>>(i: usize, j: usize, bags: &[B]) -> Result<Self> {
        let (r, s) = (bags[i].borrow(), bags[j].borrow());
        let z = r.schema().intersection(s.schema());
        let mut pair = PairState {
            i,
            j,
            z_of_i: r.schema().projection_indices(&z)?,
            z_of_j: s.schema().projection_indices(&z)?,
            diff: KeyedDiff::new(z.arity()),
        };
        pair.rebuild(bags);
        Ok(pair)
    }

    /// Recomputes `D` from the bags, discarding the incremental state.
    pub(crate) fn rebuild<B: Borrow<Bag>>(&mut self, bags: &[B]) {
        self.diff = KeyedDiff::new(self.z_of_i.len());
        self.diff.accumulate(bags[self.i].borrow(), &self.z_of_i, 1);
        self.diff
            .accumulate(bags[self.j].borrow(), &self.z_of_j, -1);
    }

    pub(crate) fn consistent(&self) -> bool {
        self.diff.nonzero == 0
    }

    /// Every key where the marginals differ, in key order, as
    /// `(key, R_i[Z](key), R_j[Z](key))`. A marginal count that does not
    /// fit a `u64` is reported as [`CoreError::MultiplicityOverflow`].
    pub(crate) fn mismatches<B: Borrow<Bag>>(&self, bags: &[B]) -> Result<Vec<(Row, u64, u64)>> {
        // R_i[Z] over the interned keys; R_j[Z] = R_i[Z] − D.
        let d = &self.diff;
        let mut left = vec![0i128; d.diff.len()];
        let mut key = Vec::with_capacity(self.z_of_i.len());
        for (row, m) in bags[self.i].borrow().iter() {
            project(row, &self.z_of_i, &mut key);
            if let Some(id) = d.keys.lookup(&key) {
                left[id.index()] += i128::from(m);
            }
        }
        let count = |c: i128| u64::try_from(c).map_err(|_| CoreError::MultiplicityOverflow);
        let mut out: Vec<(Row, u64, u64)> = Vec::new();
        for ((k, &delta), &l) in d.keys.iter().zip(&d.diff).zip(&left) {
            if delta != 0 {
                out.push((k.into(), count(l)?, count(l - delta)?));
            }
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(out)
    }
}

/// Lemma 2 (1)⟺(2): decides consistency of two bags by their keyed
/// marginal difference ([`PairState`]). The public entry is
/// [`crate::session::Session::bags_consistent`].
pub(crate) fn bags_consistent(r: &Bag, s: &Bag) -> Result<bool> {
    // ‖R‖u = ‖S‖u is the marginal equality on ∅ ⊆ Z: exact in u128, it
    // rejects most inconsistent pairs before any key is hashed, and it
    // decides disjoint pairs outright.
    if r.unary_size() != s.unary_size() {
        return Ok(false);
    }
    if r.schema().intersection(s.schema()).is_empty() {
        return Ok(true);
    }
    Ok(PairState::open(0, 1, &[r, s])?.consistent())
}

/// Corollary 1: a saturated flow of `N(R,S)` without a flow search, as a
/// sealed witness bag `T(XY)` with `T[X] = R` and `T[Y] = S`; `None` when
/// no flow saturates, which by Lemma 2 (1)⟺(5) is exactly when the bags
/// are inconsistent. The public entry is
/// [`crate::session::Session::consistency_witness`].
///
/// `R` and `S` pair off by shared key `Z`; within one key group every
/// `R`-row can send to every `S`-row, so the group is a transportation
/// problem. The northwest-corner rule fills it in one pass: send
/// `q = min(left, right)` from the current `R`-row to the current
/// `S`-row, then advance whichever side is used up. The fill is a vertex
/// of `P(R,S)`, so its support is inclusion-minimal and at most
/// `‖R‖supp + ‖S‖supp − #groups` (Theorem 5), and every `q` is at most
/// an input multiplicity (Theorem 3), so nothing can overflow.
///
/// This is one step of Theorem 6's chain ([`crate::acyclic`]) on
/// `[r, s]`, in argument order: the same keyed sweep, fill, cell order
/// and single arena that [`Bag::from_arena`] adopts.
pub(crate) fn fill_witness_with(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<Option<Bag>> {
    match fill_chain(&[r, s], &[0], cfg)? {
        Ok((schema, data, mults)) => Bag::from_arena(schema, data, mults, cfg).map(Some),
        Err(_) => Ok(None),
    }
}

/// Returns the first (lexicographic) inconsistent index pair, or `None`
/// when the collection is pairwise consistent. The public entry is
/// [`crate::session::Session::first_inconsistent_pair`].
///
/// Polls `cfg`'s [`bagcons_core::Deadline`] between pairs: an expiry
/// surfaces as [`CoreError::Aborted`], which the session
/// layer converts into a graceful `Decision::Unknown`.
pub(crate) fn first_inconsistent_pair_with(
    bags: &[&Bag],
    cfg: &ExecConfig,
) -> Result<Option<(usize, usize)>> {
    for i in 0..bags.len() {
        for j in (i + 1)..bags.len() {
            if let Some(reason) = cfg.deadline().poll() {
                return Err(CoreError::Aborted(reason));
            }
            if !bags_consistent(bags[i], bags[j])? {
                return Ok(Some((i, j)));
            }
        }
    }
    Ok(None)
}

/// Verifies that `t` witnesses the consistency of `r` and `s`
/// (`T[X] = R` and `T[Y] = S`).
pub fn is_two_bag_witness(t: &Bag, r: &Bag, s: &Bag) -> Result<bool> {
    Ok(t.marginal(r.schema())? == *r && t.marginal(s.schema())? == *s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acyclic::Major;
    use crate::session::Session;
    use bagcons_core::{Attr, Schema};

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    fn section3_pair() -> (Bag, Bag) {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 1), (&[2, 2][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 1), (&[2, 2][..], 1)]).unwrap();
        (r, s)
    }

    #[test]
    fn marginal_test_decides_consistency() {
        let (r, s) = section3_pair();
        assert!(Session::default().bags_consistent(&r, &s).unwrap());
        // R[A1] = {2 : 2} but bad[A1] = {2 : 3}
        let bad = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 3)]).unwrap();
        assert!(!Session::default().bags_consistent(&r, &bad).unwrap());
    }

    #[test]
    fn witness_marginalizes_back() {
        let (r, s) = section3_pair();
        let t = Session::default()
            .consistency_witness(&r, &s)
            .unwrap()
            .expect("consistent");
        assert!(is_two_bag_witness(&t, &r, &s).unwrap());
    }

    #[test]
    fn witness_support_inside_join_support_lemma1() {
        let (r, s) = section3_pair();
        let t = Session::default()
            .consistency_witness(&r, &s)
            .unwrap()
            .unwrap();
        let join_supp = bagcons_core::join::relation_join(&r.support(), &s.support());
        assert!(t.support().subset_of(&join_supp));
    }

    #[test]
    fn inconsistent_yields_none() {
        let (r, _) = section3_pair();
        let bad = Bag::from_u64s(schema(&[1, 2]), [(&[9u64, 9][..], 7)]).unwrap();
        assert_eq!(
            Session::default().consistency_witness(&r, &bad).unwrap(),
            None
        );
    }

    #[test]
    fn bag_join_fails_as_witness_but_flow_succeeds() {
        // Section 3's headline: R1 ⋈ᵇ S1 does NOT witness consistency.
        let (r, s) = section3_pair();
        let join = bagcons_core::join::bag_join(&r, &s).unwrap();
        assert!(!is_two_bag_witness(&join, &r, &s).unwrap());
        assert!(Session::default()
            .consistency_witness(&r, &s)
            .unwrap()
            .is_some());
    }

    #[test]
    fn relations_joined_as_bags_differ_from_set_join() {
        // "the bags R_{n-1} and S_{n-1} are actually relations and their
        // join witnesses their consistency as relations, but not as bags"
        let (r, s) = section3_pair();
        let rel_join = bagcons_core::join::relation_join(&r.support(), &s.support());
        // as relations: projections match supports
        assert_eq!(rel_join.project(&schema(&[0, 1])).unwrap(), r.support());
        assert_eq!(rel_join.project(&schema(&[1, 2])).unwrap(), s.support());
        // as bags: marginals overshoot
        assert!(!is_two_bag_witness(&rel_join.to_bag(), &r, &s).unwrap());
    }

    #[test]
    fn pairwise_over_collection() {
        let (r, s) = section3_pair();
        let t = Bag::from_u64s(schema(&[0, 2]), [(&[1u64, 1][..], 1), (&[2, 2][..], 1)]).unwrap();
        assert!(Session::default()
            .pairwise_consistent(&[&r, &s, &t])
            .unwrap());
        let bad = Bag::from_u64s(schema(&[0, 2]), [(&[1u64, 1][..], 5)]).unwrap();
        assert_eq!(
            Session::default()
                .first_inconsistent_pair(&[&r, &s, &bad])
                .unwrap(),
            Some((0, 2))
        );
    }

    #[test]
    fn same_schema_bags_consistent_iff_equal() {
        let (r, _) = section3_pair();
        assert!(Session::default().bags_consistent(&r, &r.clone()).unwrap());
        let mut other = r.clone();
        other.insert(vec![Value(7), Value(7)], 1).unwrap();
        assert!(!Session::default().bags_consistent(&r, &other).unwrap());
    }

    #[test]
    fn empty_intersection_consistent_iff_equal_totals() {
        let r = Bag::from_u64s(schema(&[0]), [(&[1u64][..], 3)]).unwrap();
        let s = Bag::from_u64s(schema(&[1]), [(&[5u64][..], 3)]).unwrap();
        assert!(Session::default().bags_consistent(&r, &s).unwrap());
        let s4 = Bag::from_u64s(schema(&[1]), [(&[5u64][..], 4)]).unwrap();
        assert!(!Session::default().bags_consistent(&r, &s4).unwrap());
    }

    #[test]
    fn singleton_and_empty_collections_are_pairwise_consistent() {
        let (r, _) = section3_pair();
        assert!(Session::default().pairwise_consistent(&[&r]).unwrap());
        assert!(Session::default().pairwise_consistent(&[]).unwrap());
    }

    // Theorem 5 / Corollary 4: the fill is a vertex of `P(R,S)`, so it is
    // an inclusion-minimal witness.

    #[test]
    fn minimal_witness_is_a_witness() {
        let r = Bag::from_u64s(
            schema(&[0, 1]),
            [(&[1u64, 1][..], 2), (&[2, 1][..], 3), (&[3, 1][..], 1)],
        )
        .unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 1][..], 4), (&[1, 2][..], 2)]).unwrap();
        let w = Session::default()
            .consistency_witness(&r, &s)
            .unwrap()
            .expect("consistent");
        assert!(is_two_bag_witness(&w, &r, &s).unwrap());
        assert!(w.support_size() <= r.support_size() + s.support_size());
    }

    #[test]
    fn minimality_every_support_tuple_is_needed() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 2), (&[2, 1][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 1][..], 2), (&[1, 2][..], 2)]).unwrap();
        let w = Session::default()
            .consistency_witness(&r, &s)
            .unwrap()
            .unwrap();
        // removing any support row of w from the allowed middle edges must
        // make saturation impossible given the other exclusions
        let support: Vec<Vec<Value>> = w.iter_sorted().map(|(row, _)| row.to_vec()).collect();
        for banned in &support {
            let allowed: Vec<&[Value]> = support
                .iter()
                .filter(|r| r != &banned)
                .map(|r| r.as_slice())
                .collect();
            let net = bagcons_flow::ConsistencyNetwork::build_excluding(&r, &s, |row| {
                !allowed.contains(&row)
            })
            .unwrap();
            assert!(
                net.solve().is_none(),
                "support of minimal witness is not minimal"
            );
        }
    }

    #[test]
    fn theorem5_bound_on_wide_instance() {
        // R has 6 support tuples all sharing one B-value; S has 2. The
        // naive flow witness could use up to 12 join tuples; the minimal
        // one must use ≤ 8.
        let mut r = Bag::new(schema(&[0, 1]));
        for i in 1..=6u64 {
            r.insert(vec![Value(i), Value(1)], 2).unwrap();
        }
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 1][..], 6), (&[1, 2][..], 6)]).unwrap();
        let w = Session::default()
            .consistency_witness(&r, &s)
            .unwrap()
            .unwrap();
        assert!(w.support_size() <= 8);
        assert!(is_two_bag_witness(&w, &r, &s).unwrap());
    }

    #[test]
    fn inconsistent_returns_none() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 1][..], 3)]).unwrap();
        assert!(Session::default()
            .consistency_witness(&r, &s)
            .unwrap()
            .is_none());
    }

    /// The schema pairs of every fill order: `R`-major (with `Z` a
    /// prefix of `X`, or not, or empty, or `Y ⊆ X`, or `X = Y`),
    /// `S`-major, and interleaved.
    const SHAPES: [(&[u32], &[u32], Option<Major>); 10] = [
        (&[0, 1], &[1, 2], Some(Major::R)),
        (&[0, 1], &[0, 1], Some(Major::R)),
        (&[0, 1], &[0, 2], Some(Major::R)),
        (&[0, 1], &[2, 3], Some(Major::R)),
        (&[0, 1, 2], &[1], Some(Major::R)),
        (&[], &[0, 1], Some(Major::R)),
        (&[1, 2], &[0, 1], Some(Major::S)),
        (&[0, 2], &[0, 1, 2], Some(Major::S)),
        (&[0, 2], &[1, 2], None),
        (&[0, 2], &[1, 3], None),
    ];

    #[test]
    fn major_side_is_read_off_the_schemas() {
        for (x, y, major) in SHAPES {
            assert_eq!(Major::of(&schema(x), &schema(y)), major, "{x:?} / {y:?}");
        }
    }

    /// On every shape, major or interleaved, the fill's arena already
    /// ascends strictly with no zero multiplicity, so `from_arena` adopts
    /// it, and the witness marginalizes back.
    #[test]
    fn major_fill_emits_rows_in_ascending_order() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for round in 0..20 {
            let mut t = Bag::new(schema(&[0, 1, 2, 3]));
            for _ in 0..40 + round * 10 {
                let row: Vec<Value> = (0..4).map(|_| Value(next(4))).collect();
                t.insert(row, 1 + next(5)).unwrap();
            }
            t.seal();
            for (x, y, major) in SHAPES {
                let (r, s) = (
                    t.marginal(&schema(x)).unwrap(),
                    t.marginal(&schema(y)).unwrap(),
                );
                let cfg = ExecConfig::sequential();
                let (out, data, mults) = fill_chain(&[&r, &s], &[0], &cfg)
                    .unwrap()
                    .expect("consistent");
                let arity = out.arity();
                assert!(!mults.contains(&0));
                let adopted = RowStore::from_sorted_rows(arity, mults.len(), data).is_some();
                assert!(adopted, "{x:?} / {y:?} ({major:?}) round {round}");
                let w = fill_witness_with(&r, &s, &cfg).unwrap().unwrap();
                assert!(is_two_bag_witness(&w, &r, &s).unwrap());
            }
        }
    }

    /// The row loop every pair ran before disjoint pairs took totals:
    /// each row of `r` adds, each row of `s` subtracts, at its key.
    fn row_loop(pair: &PairState, r: &Bag, s: &Bag) -> KeyedDiff {
        let mut d = KeyedDiff::new(pair.z_of_i.len());
        let mut key = Vec::new();
        for (row, m) in r.iter() {
            project(row, &pair.z_of_i, &mut key);
            d.add(&key, i128::from(m));
        }
        for (row, m) in s.iter() {
            project(row, &pair.z_of_j, &mut key);
            d.add(&key, -i128::from(m));
        }
        d
    }

    /// `D` as `key → D(key)` over the keys where it is nonzero, and the
    /// nonzero count.
    fn nonzero_entries(d: &KeyedDiff) -> (Vec<(Vec<Value>, i128)>, usize) {
        let mut out: Vec<(Vec<Value>, i128)> = d
            .keys
            .iter()
            .zip(&d.diff)
            .filter(|(_, &v)| v != 0)
            .map(|(k, &v)| (k.to_vec(), v))
            .collect();
        out.sort_unstable();
        (out, d.nonzero)
    }

    /// On `Z = ∅` the pair state is the totals' difference, held at the
    /// one arity-0 key, exactly as the row loop leaves it: the same
    /// keys (none when both bags are empty), differences and nonzero
    /// count, on empty bags, equal and unequal totals, totals past
    /// `u64`, and arity-0 bags. After stream deltas (fresh rows, drops
    /// to zero, emptied bags) it still agrees with the row loop over
    /// the edited bags.
    #[test]
    fn disjoint_pair_state_equals_the_row_loop() {
        let half = 1u64 << 63;
        let empty_row: [(&[u64], u64); 1] = [(&[], 4)];
        let cases = [
            (Bag::new(schema(&[0, 1])), Bag::new(schema(&[2]))),
            (
                Bag::new(schema(&[0, 1])),
                Bag::from_u64s(schema(&[2]), [(&[5u64][..], 3)]).unwrap(),
            ),
            (
                Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 1), (&[2, 2][..], 2)]).unwrap(),
                Bag::from_u64s(schema(&[2]), [(&[5u64][..], 3)]).unwrap(),
            ),
            (
                Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 1), (&[2, 2][..], 2)]).unwrap(),
                Bag::from_u64s(schema(&[3, 4]), [(&[5u64, 0][..], 2)]).unwrap(),
            ),
            (
                Bag::from_u64s(schema(&[0]), [(&[1u64][..], half), (&[2][..], half)]).unwrap(),
                Bag::from_u64s(schema(&[1]), [(&[7u64][..], u64::MAX)]).unwrap(),
            ),
            (
                Bag::from_u64s(Schema::empty(), empty_row).unwrap(),
                Bag::from_u64s(schema(&[0]), [(&[1u64][..], 4)]).unwrap(),
            ),
            (
                Bag::from_u64s(Schema::empty(), empty_row).unwrap(),
                Bag::new(Schema::empty()),
            ),
        ];
        for (r, s) in &cases {
            for (a, b) in [(r, s), (s, r)] {
                let pair = PairState::open(0, 1, &[a, b]).unwrap();
                let want = row_loop(&pair, a, b);
                let got = &pair.diff;
                assert_eq!(got.keys.len(), want.keys.len(), "{a:?} / {b:?}");
                assert!(got.keys.iter().eq(want.keys.iter()), "{a:?} / {b:?}");
                assert_eq!(got.diff, want.diff, "{a:?} / {b:?}");
                assert_eq!(got.nonzero, want.nonzero, "{a:?} / {b:?}");
                assert_eq!(
                    pair.consistent(),
                    a.unary_size() == b.unary_size(),
                    "{a:?} / {b:?}"
                );
            }
        }

        // Deltas through a stream: bag 0 shares nothing with bags 1, 2.
        let (r, _) = section3_pair();
        let bags = vec![
            r,
            Bag::from_u64s(schema(&[2]), [(&[5u64][..], 2)]).unwrap(),
            Bag::new(schema(&[3])),
        ];
        let mut stream = Session::default().open_stream(bags).unwrap();
        let script: [(usize, &[u64], i64); 8] = [
            (2, &[1], 3),
            (0, &[9, 9], 5),
            (1, &[5], -2),
            (0, &[1, 2], -1),
            (0, &[2, 2], -1),
            (1, &[6], 5),
            (0, &[9, 9], -5),
            (2, &[1], -3),
        ];
        for (step, &(bag, row, delta)) in script.iter().enumerate() {
            let mut d = bagcons_core::DeltaSet::new(stream.bags()[bag].schema().clone());
            d.bump_u64s(row, delta).unwrap();
            stream.update(bag, &d).unwrap();
            for pair in stream.pairs() {
                let want = row_loop(pair, &stream.bags()[pair.i], &stream.bags()[pair.j]);
                assert_eq!(
                    nonzero_entries(&pair.diff),
                    nonzero_entries(&want),
                    "step {step}, pair ({}, {})",
                    pair.i,
                    pair.j
                );
            }
        }
    }

    #[test]
    fn unique_witness_pair_keeps_its_witness() {
        // Section 3's R1, S1: exactly two witnesses, each of support 2 =
        // minimal. The fill must return one of them.
        let (r, s) = section3_pair();
        let w = Session::default()
            .consistency_witness(&r, &s)
            .unwrap()
            .unwrap();
        assert_eq!(w.support_size(), 2);
        assert!(is_two_bag_witness(&w, &r, &s).unwrap());
    }
}
