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
//! The fill emits its rows already in the witness's sorted order when
//! one input's extra attributes all exceed the other input's attributes
//! (`fill_witness_with` gives the argument), so [`Bag::from_arena`]
//! adopts them without a sort. Interleaved attributes leave the order
//! arbitrary, and `from_arena` sorts.
//!
//! The fill is also Theorem 5 / Corollary 4's minimal witness: within a
//! group its staircase is a forest, so it is a vertex of `P(R,S)`, and a
//! vertex has inclusion-minimal support. The paper's loop of
//! `|R' ⋈ S'| + 1` max-flows is kept as the test oracle for this
//! (`corollary4_flow_loop` in `tests/proptest_invariants.rs`).

use bagcons_core::join::{try_merge_matching_pairs_sharded, JoinPlan};
use bagcons_core::{Bag, CoreError, ExecConfig, Result, Row, RowStore, Schema, Value};
use std::borrow::Borrow;

/// A keyed marginal difference `D(k)` over the shared attributes of one
/// bag pair, with the count of keys where it is nonzero.
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
    /// `Z` through `z_cols`.
    fn accumulate(&mut self, bag: &Bag, z_cols: &[usize], sign: i128) {
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
/// Key groups shard by range per `cfg`; each shard task polls its
/// deadline and lists its `(R-row, S-row, q)` cells. Every `q` is
/// positive, and distinct `(R-row, S-row)` cells assemble distinct rows,
/// so nothing is interned or hashed on the way.
///
/// **Output order.** The staircase gives each `R`-row, and each
/// `S`-row, one contiguous run of cells, with the other side's rows
/// ascending along it. When the schemas are [`Major::R`] (every
/// attribute of `Y∖X` exceeds every attribute of `X`), an `XY` row is
/// its `X` part followed by its `Y∖X` part. Then listing the cells by
/// `R`-row lists the rows in strictly ascending order: `R`'s rows ascend
/// on `X`, and the `S`-rows of one `R`-row share its key, so they ascend
/// on `Y∖Z = Y∖X`. [`Major::S`] is the mirror image. The fill puts its
/// cells in that order with one counting pass ([`by_major_row`]), the
/// cells' rows go into one flat arena, sized once, and
/// [`Bag::from_arena`] adopts it without a sort. When the attributes
/// interleave, the cells stay in key order and `from_arena` sorts.
pub(crate) fn fill_witness_with(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<Option<Bag>> {
    let Some((schema, data, mults)) = fill_arena(r, s, cfg)? else {
        return Ok(None);
    };
    Bag::from_arena(schema, data, mults, cfg).map(Some)
}

/// A witness before [`Bag::from_arena`] adopts it: its schema, its
/// row-major arena and its multiplicity column.
type Arena = (Schema, Vec<Value>, Vec<u64>);

/// The witness of [`fill_witness_with`] as the arena it hands to
/// [`Bag::from_arena`].
fn fill_arena(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<Option<Arena>> {
    let total = r.unary_size();
    if total != s.unary_size() {
        return Ok(None);
    }
    let plan = JoinPlan::new(r.schema(), s.schema());
    let r_rows = r.sorted_rows();
    let s_rows = s.sorted_rows();
    let z_of_r = r.schema().projection_indices(plan.common_schema())?;
    let z_of_s = s.schema().projection_indices(plan.common_schema())?;
    let shards =
        try_merge_matching_pairs_sharded(&r_rows, &z_of_r, &s_rows, &z_of_s, cfg, |sweep| {
            bagcons_core::fault::fire("witness::fill");
            if let Some(reason) = cfg.deadline().poll() {
                return Err(CoreError::Aborted(reason));
            }
            // (R-row, S-row, q) cells in key order.
            let mut cells: Vec<Cell> = Vec::new();
            sweep.for_each_group(|ls, rs| {
                let (mut a, mut b) = (0, 0);
                let (mut left, mut right) = (r_rows[ls[0] as usize].1, s_rows[rs[0] as usize].1);
                loop {
                    let q = left.min(right);
                    cells.push((ls[a], rs[b], q));
                    left -= q;
                    right -= q;
                    if left == 0 {
                        a += 1;
                        if a == ls.len() {
                            break;
                        }
                        left = r_rows[ls[a] as usize].1;
                    }
                    if right == 0 {
                        b += 1;
                        if b == rs.len() {
                            break;
                        }
                        right = s_rows[rs[b] as usize].1;
                    }
                }
            });
            Ok(cells)
        })?;
    let shards = shards.into_iter().collect::<Result<Vec<_>>>()?;
    // Saturated iff every key group balanced and no key was unmatched.
    let filled: u128 = shards.iter().flatten().map(|c| u128::from(c.2)).sum();
    if filled != total {
        return Ok(None);
    }
    let cells = match Major::of(r.schema(), s.schema()) {
        Some(Major::R) => by_major_row(&shards, r_rows.len(), |c| c.0),
        Some(Major::S) => by_major_row(&shards, s_rows.len(), |c| c.1),
        None => shards.concat(),
    };
    drop(shards);
    let mut data = Vec::with_capacity(cells.len() * plan.output_schema().arity());
    let mut mults = Vec::with_capacity(cells.len());
    for &(i, j, q) in &cells {
        plan.append_combined(r_rows[i as usize].0, s_rows[j as usize].0, &mut data);
        mults.push(q);
    }
    Ok(Some((plan.output_schema().clone(), data, mults)))
}

/// One cell of the group fill: `(R-row, S-row, q)`, the rows as sorted
/// positions.
type Cell = (u32, u32, u64);

/// The input whose sorted row order is the fill's output order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Major {
    /// Every attribute of `Y∖X` exceeds every attribute of `X`.
    R,
    /// Every attribute of `X∖Y` exceeds every attribute of `Y`.
    S,
}

impl Major {
    /// Reads the major side off the two schemas alone, preferring `R`
    /// when both hold (which needs one schema to contain the other);
    /// `None` when the attributes interleave.
    fn of(x: &Schema, y: &Schema) -> Option<Major> {
        // Every attribute of `b∖a` exceeds every attribute of `a`.
        let above = |a: &Schema, b: &Schema| match a.attrs().last() {
            None => true,
            Some(&top) => b.iter().all(|t| t > top || a.contains(t)),
        };
        if above(x, y) {
            Some(Major::R)
        } else if above(y, x) {
            Some(Major::S)
        } else {
            None
        }
    }
}

/// The cells of every shard ordered by `row(cell)`, a sorted position
/// below `rows`: one counting pass, no comparisons. The order is stable,
/// so the run of cells of one major row keeps its staircase order.
fn by_major_row(shards: &[Vec<Cell>], rows: usize, row: impl Fn(&Cell) -> u32) -> Vec<Cell> {
    let mut next = vec![0usize; rows + 1];
    for cell in shards.iter().flatten() {
        next[row(cell) as usize + 1] += 1;
    }
    for p in 1..=rows {
        next[p] += next[p - 1];
    }
    let mut out = vec![(0, 0, 0); next[rows]];
    for cell in shards.iter().flatten() {
        let at = &mut next[row(cell) as usize];
        out[*at] = *cell;
        *at += 1;
    }
    out
}

/// Returns the first (lexicographic) inconsistent index pair, or `None`
/// when the collection is pairwise consistent. The public entry is
/// [`crate::session::Session::first_inconsistent_pair`].
///
/// Polls `cfg`'s [`bagcons_core::Deadline`] between pairs: an expiry or
/// cancellation surfaces as [`CoreError::Aborted`], which the session
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

    /// On every `R`- or `S`-major shape the fill's arena already ascends
    /// strictly with no zero multiplicity, so `from_arena` adopts it; on
    /// every shape the witness marginalizes back.
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
                let (out, data, mults) = fill_arena(&r, &s, &cfg).unwrap().expect("consistent");
                let arity = out.arity();
                assert!(!mults.contains(&0));
                let adopted = RowStore::from_sorted_rows(arity, mults.len(), data).is_some();
                assert!(major.is_none() || adopted, "{x:?} / {y:?} round {round}");
                let w = fill_witness_with(&r, &s, &cfg).unwrap().unwrap();
                assert!(is_two_bag_witness(&w, &r, &s).unwrap());
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
