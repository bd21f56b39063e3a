//! The consistency network `N(R,S)` of Section 3.
//!
//! > The network has `1 + |R'| + |S'| + 1` vertices: one source `s*`, one
//! > vertex per tuple of `R'`, one per tuple of `S'`, and one target `t*`.
//! > There is an arc of capacity `R(r)` from `s*` to `r`, an arc of
//! > capacity `S(s)` from `s` to `t*`, and an arc of unbounded capacity
//! > from `t[X]` to `t[Y]` for each `t ∈ R' ⋈ S'`.
//!
//! A **saturated** flow (every source and sink arc at capacity) exists iff
//! `R` and `S` are consistent (Lemma 2), and an integral saturated flow
//! *is* a witness bag: `T(t) = f(t[X], t[Y])`.
//!
//! This is the paper's construction, kept where the paper needs a flow:
//! Lemma 2's `saturated_flow` characterization
//! (`bagcons::report::Lemma2Report`), and as a test oracle. Witnesses
//! from `witness`, minimal ones included, come from the one-pass group
//! fill in `bagcons::pairwise`, which needs no search because every
//! middle edge is uncapacitated.
//!
//! Implementation notes:
//!
//! * "Unbounded" middle capacities are realized as `min(R(r), S(s))` —
//!   flow through the arc can never exceed either endpoint's bottleneck,
//!   so this preserves all flows while keeping arithmetic in `u64`.
//! * [`ConsistencyNetwork::build_excluding`] can omit selected middle
//!   edges, as the minimal-witness algorithm of Section 5.3 needs
//!   ("temporarily remove it, compute a maximum flow of the resulting
//!   network, and check whether it is saturated"). Only the test oracle
//!   for the group fill's minimality uses it: that loop, and the check
//!   that each support row of a minimal witness is needed.
//! * Middle edges are keyed by [`RowId`] into a network-local columnar
//!   [`RowStore`] of candidate `XY`-rows instead of owning a boxed row
//!   per edge, and matching `R`-rows with `S`-rows on the shared schema
//!   `Z` is a sort-merge group sweep (two `u32` permutation sorts), so
//!   building `N(R,S)` performs no per-tuple heap allocation.

use crate::dinic::{EdgeId, FlowNetwork};
use bagcons_core::exec::ExecConfig;
use bagcons_core::join::{merge_matching_pairs, JoinPlan};
use bagcons_core::{Bag, CoreError, Result, RowId, RowStore, Schema, Value};

/// One middle edge: its flow-network id and its `XY`-row.
#[derive(Clone, Copy, Debug)]
struct MiddleEdge {
    edge: EdgeId,
    row: RowId,
}

/// The network `N(R,S)` with the bookkeeping to extract a witness bag
/// from its saturated flow. A network is built, solved once by
/// [`ConsistencyNetwork::solve_with`], and dropped.
pub struct ConsistencyNetwork {
    net: FlowNetwork,
    source: usize,
    sink: usize,
    xy: Schema,
    /// Candidate witness rows (`R' ⋈ S'` minus exclusions), interned.
    rows: RowStore,
    /// One entry per middle edge, in the deterministic build order.
    middle: Vec<MiddleEdge>,
    total_r: u128,
    total_s: u128,
}

impl ConsistencyNetwork {
    /// Builds `N(R,S)` with every middle edge present.
    pub fn build(r: &Bag, s: &Bag) -> Result<Self> {
        Self::build_excluding(r, s, |_| false)
    }

    /// Builds `N(R,S)` omitting middle edges whose `XY`-row satisfies
    /// `exclude` — the self-reducibility hook of Section 5.3. Middle
    /// edges are added in [`merge_matching_pairs`] order (ascending
    /// shared key, then `R`-row, then `S`-row), so the network and its
    /// witness are deterministic.
    pub fn build_excluding(r: &Bag, s: &Bag, exclude: impl Fn(&[Value]) -> bool) -> Result<Self> {
        let plan = JoinPlan::new(r.schema(), s.schema());
        let r_rows = r.sorted_rows();
        let s_rows = s.sorted_rows();
        let n = 1 + r_rows.len() + s_rows.len() + 1;
        let source = 0;
        let sink = n - 1;
        let mut net = FlowNetwork::new(n);

        let mut total_r: u128 = 0;
        for (i, &(_, m)) in r_rows.iter().enumerate() {
            net.add_edge(source, 1 + i, m);
            total_r += m as u128;
        }
        let mut total_s: u128 = 0;
        let s_base = 1 + r_rows.len();
        for (j, &(_, m)) in s_rows.iter().enumerate() {
            net.add_edge(s_base + j, sink, m);
            total_s += m as u128;
        }

        // Sort-merge the two sides on their Z-projections: vertex lists
        // are permuted by key (u32 sorts, no row data moves), then
        // equal-key runs pair off group against group.
        let z_of_s = s.schema().projection_indices(plan.common_schema())?;
        let z_of_r = r.schema().projection_indices(plan.common_schema())?;
        let xy = plan.output_schema().clone();
        let mut rows = RowStore::new(xy.arity());
        let mut middle = Vec::new();
        let mut scratch = Vec::with_capacity(xy.arity());
        merge_matching_pairs(&r_rows, &z_of_r, &s_rows, &z_of_s, |i, j| {
            let (r_row, rm) = r_rows[i];
            let (s_row, sm) = s_rows[j];
            plan.combine_into(r_row, s_row, &mut scratch);
            if exclude(&scratch) {
                return;
            }
            let edge = net.add_edge(1 + i, s_base + j, rm.min(sm));
            // Distinct (R-row, S-row) pairs assemble distinct XY rows.
            let row = rows.push_unique_unchecked(&scratch);
            middle.push(MiddleEdge { edge, row });
        });

        Ok(ConsistencyNetwork {
            net,
            source,
            sink,
            xy,
            rows,
            middle,
            total_r,
            total_s,
        })
    }

    /// Number of middle edges (= `|R' ⋈ S'|` minus exclusions).
    pub fn num_middle_edges(&self) -> usize {
        self.middle.len()
    }

    /// Sequential, ungoverned [`ConsistencyNetwork::solve_with`]: the
    /// witness bag `T(t) = f(t[X], t[Y])` of a saturated max-flow, or
    /// `None` when no flow saturates the network.
    pub fn solve(self) -> Option<Bag> {
        self.solve_with(&ExecConfig::sequential())
            .expect("an ungoverned sequential solve cannot abort")
    }

    /// Runs max-flow; if the flow saturates every source and sink arc,
    /// returns the witness bag `T(t) = f(t[X], t[Y])`, else `None`.
    ///
    /// Honours `cfg`'s [`bagcons_core::Deadline`] in the max-flow search
    /// (polled per Dinic phase and every few augmenting paths) and in
    /// the witness's closing seal, which runs shard-parallel when `cfg`
    /// permits. The max-flow search itself stays sequential (augmenting
    /// paths are inherently ordered).
    ///
    /// # Errors
    ///
    /// [`CoreError::Aborted`] when the deadline fires;
    /// [`CoreError::WorkerPanicked`] when a seal worker panics.
    pub fn solve_with(mut self, cfg: &ExecConfig) -> Result<Option<Bag>> {
        if self.total_r != self.total_s {
            // A saturated flow needs both sides saturated; impossible.
            return Ok(None);
        }
        let (flow, aborted) = self
            .net
            .max_flow_governed(self.source, self.sink, cfg.deadline());
        if let Some(reason) = aborted {
            return Err(CoreError::Aborted(reason));
        }
        if flow != self.total_r {
            return Ok(None);
        }
        // Witnesses leave sealed, like the group fill's, so prefix
        // marginals over them skip hashing.
        let mut witness = Bag::with_capacity(self.xy.clone(), self.middle.len());
        for m in &self.middle {
            let f = self.net.flow(m.edge);
            if f > 0 {
                witness
                    .insert_row(self.rows.row(m.row), f)
                    .expect("middle rows are valid XY rows and flows fit u64");
            }
        }
        witness.try_seal_with(cfg)?;
        Ok(Some(witness))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::Attr;

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    /// R1(AB), S1(BC) from Section 3: consistent, witnessed by exactly two bags.
    fn section3_pair() -> (Bag, Bag) {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 1), (&[2, 2][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 1), (&[2, 2][..], 1)]).unwrap();
        (r, s)
    }

    #[test]
    fn consistent_pair_yields_witness() {
        let (r, s) = section3_pair();
        let net = ConsistencyNetwork::build(&r, &s).unwrap();
        assert_eq!(net.num_middle_edges(), 4); // |R' ⋈ S'| = 2×2 on B=2
        let t = net.solve().expect("consistent");
        assert_eq!(t.marginal(r.schema()).unwrap(), r);
        assert_eq!(t.marginal(s.schema()).unwrap(), s);
    }

    #[test]
    fn inconsistent_pair_yields_none() {
        // unequal totals
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 3)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 1)]).unwrap();
        assert!(ConsistencyNetwork::build(&r, &s).unwrap().solve().is_none());
    }

    #[test]
    fn equal_totals_but_marginal_mismatch() {
        // R[B] = {2:1, 3:1}, S[B] = {2:2}: same totals, inconsistent.
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 1), (&[1, 3][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 2)]).unwrap();
        assert!(ConsistencyNetwork::build(&r, &s).unwrap().solve().is_none());
    }

    #[test]
    fn disjoint_schemas_always_consistent_when_totals_match() {
        let r = Bag::from_u64s(schema(&[0]), [(&[1u64][..], 2), (&[2][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1]), [(&[5u64][..], 3)]).unwrap();
        let t = ConsistencyNetwork::build(&r, &s)
            .unwrap()
            .solve()
            .expect("consistent");
        assert_eq!(t.marginal(r.schema()).unwrap(), r);
        assert_eq!(t.marginal(s.schema()).unwrap(), s);
    }

    #[test]
    fn disjoint_schemas_with_unequal_totals_inconsistent() {
        // R(∅-overlap): marginals on ∅ are the totals; 3 ≠ 4.
        let r = Bag::from_u64s(schema(&[0]), [(&[1u64][..], 3)]).unwrap();
        let s = Bag::from_u64s(schema(&[1]), [(&[5u64][..], 4)]).unwrap();
        assert!(ConsistencyNetwork::build(&r, &s).unwrap().solve().is_none());
    }

    #[test]
    fn empty_bags_are_consistent() {
        let r = Bag::new(schema(&[0, 1]));
        let s = Bag::new(schema(&[1, 2]));
        let t = ConsistencyNetwork::build(&r, &s).unwrap().solve().unwrap();
        assert!(t.is_empty());
        assert_eq!(t.schema(), &schema(&[0, 1, 2]));
    }

    #[test]
    fn identical_schemas_require_equal_bags() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 2)]).unwrap();
        let t = ConsistencyNetwork::build(&r, &r.clone())
            .unwrap()
            .solve()
            .unwrap();
        assert_eq!(t, r);
        let other = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 2)]).unwrap();
        assert!(ConsistencyNetwork::build(&r, &other)
            .unwrap()
            .solve()
            .is_none());
    }

    #[test]
    fn excluding_all_middle_edges_blocks_flow() {
        let (r, s) = section3_pair();
        let net = ConsistencyNetwork::build_excluding(&r, &s, |_| true).unwrap();
        assert_eq!(net.num_middle_edges(), 0);
        assert!(net.solve().is_none());
    }

    #[test]
    fn excluding_one_witness_row_leaves_the_other_witness() {
        // Section 3: witnesses are T1 = {(1,2,2),(2,2,1)} and
        // T2 = {(1,2,1),(2,2,2)}. Excluding (1,2,2) must force T2.
        let (r, s) = section3_pair();
        let banned = [Value(1), Value(2), Value(2)];
        let net = ConsistencyNetwork::build_excluding(&r, &s, |row| row == banned).unwrap();
        let t = net.solve().expect("still consistent without that row");
        assert_eq!(t.multiplicity(&[Value(1), Value(2), Value(1)]), 1);
        assert_eq!(t.multiplicity(&[Value(2), Value(2), Value(2)]), 1);
        assert_eq!(t.support_size(), 2);
    }

    #[test]
    fn large_multiplicities() {
        let big = 1u64 << 62;
        let r =
            Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], big), (&[2, 1][..], big)]).unwrap();
        let s =
            Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 1][..], big), (&[1, 2][..], big)]).unwrap();
        let t = ConsistencyNetwork::build(&r, &s)
            .unwrap()
            .solve()
            .expect("consistent");
        assert_eq!(t.unary_size(), 2 * big as u128);
        assert_eq!(t.marginal(r.schema()).unwrap(), r);
    }
}
