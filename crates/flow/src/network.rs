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
//! Implementation notes:
//!
//! * "Unbounded" middle capacities are realized as `min(R(r), S(s))` —
//!   flow through the arc can never exceed either endpoint's bottleneck,
//!   so this preserves all flows while keeping arithmetic in `u64`.
//! * [`ConsistencyNetwork::build_excluding`] can omit selected middle
//!   edges; the minimal-witness algorithm of Section 5.3 needs exactly
//!   this ("temporarily remove it, compute a maximum flow of the resulting
//!   network, and check whether it is saturated").
//! * Middle edges are keyed by [`RowId`] into a network-local columnar
//!   [`RowStore`] of candidate `XY`-rows instead of owning a boxed row
//!   per edge, and matching `R`-rows with `S`-rows on the shared schema
//!   `Z` is a sort-merge group sweep (two `u32` permutation sorts), so
//!   building `N(R,S)` performs no per-tuple heap allocation.

use crate::dinic::{EdgeId, FlowNetwork};
use bagcons_core::exec::{ExecConfig, ShardRun};
use bagcons_core::join::{try_merge_matching_pairs_sharded, JoinPlan};
use bagcons_core::{Bag, CoreError, Result, RowId, RowStore, Schema, Value};

/// Which side of `N(R,S)` a row edit targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The source side (`R`: edits re-capacitate `s* → r` arcs).
    R,
    /// The sink side (`S`: edits re-capacitate `s → t*` arcs).
    S,
}

/// One middle edge: its flow-network id, its `XY`-row, and the sorted
/// positions of its endpoints on each side.
#[derive(Clone, Copy, Debug)]
struct MiddleEdge {
    edge: EdgeId,
    row: RowId,
    r: u32,
    s: u32,
}

/// CSR incidence lists: `edges[offsets[v]..offsets[v + 1]]` are the
/// middle-edge indices touching vertex `v` of one side. Built lazily on
/// the first [`ConsistencyNetwork::apply_edit`] — one-shot solves never
/// pay for it.
#[derive(Clone, Debug)]
struct Incidence {
    offsets: Vec<usize>,
    edges: Vec<u32>,
}

impl Incidence {
    fn build(n: usize, middle: &[MiddleEdge], key: impl Fn(&MiddleEdge) -> u32) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for m in middle {
            offsets[key(m) as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut edges = vec![0u32; middle.len()];
        for (idx, m) in middle.iter().enumerate() {
            let k = key(m) as usize;
            edges[cursor[k]] = idx as u32;
            cursor[k] += 1;
        }
        Incidence { offsets, edges }
    }

    fn at(&self, v: usize) -> &[u32] {
        &self.edges[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// The network `N(R,S)` with bookkeeping to extract witness bags and to
/// **warm-restart** after multiplicity deltas: per-edge flows are
/// retained across [`ConsistencyNetwork::apply_edit`] calls, so a small
/// edit costs one flow-cancellation along the touched arcs plus a Dinic
/// re-augmentation from the previous feasible flow — never a re-solve
/// from zero.
pub struct ConsistencyNetwork {
    net: FlowNetwork,
    source: usize,
    sink: usize,
    xy: Schema,
    /// Candidate witness rows (`R' ⋈ S'` minus exclusions), interned.
    rows: RowStore,
    /// One entry per middle edge, in the deterministic build order.
    middle: Vec<MiddleEdge>,
    /// `R'` rows interned in sorted order: `RowId` = vertex position,
    /// the keying [`ConsistencyNetwork::apply_edit`] resolves edits by.
    r_index: RowStore,
    /// `S'` rows interned in sorted order.
    s_index: RowStore,
    /// Current multiplicities per sorted `R'` position.
    r_mults: Vec<u64>,
    /// Current multiplicities per sorted `S'` position.
    s_mults: Vec<u64>,
    /// `s* → r` arc per `R'` position.
    source_edges: Vec<EdgeId>,
    /// `s → t*` arc per `S'` position.
    sink_edges: Vec<EdgeId>,
    r_incidence: Option<Incidence>,
    s_incidence: Option<Incidence>,
    /// Value of the flow currently routed (kept across repairs).
    flow_value: u128,
    total_r: u128,
    total_s: u128,
}

/// Cancels `x` units along the unique length-3 path through middle edge
/// `mi` (source arc → middle arc → sink arc). Free function over
/// disjoint fields so callers can hold incidence borrows.
fn cancel_path(
    net: &mut FlowNetwork,
    middle: &[MiddleEdge],
    source_edges: &[EdgeId],
    sink_edges: &[EdgeId],
    flow_value: &mut u128,
    mi: usize,
    x: u64,
) {
    let m = &middle[mi];
    net.reduce_flow(m.edge, x);
    net.reduce_flow(source_edges[m.r as usize], x);
    net.reduce_flow(sink_edges[m.s as usize], x);
    *flow_value -= x as u128;
}

impl ConsistencyNetwork {
    /// Builds `N(R,S)` with every middle edge present.
    pub fn build(r: &Bag, s: &Bag) -> Result<Self> {
        Self::build_excluding(r, s, |_| false)
    }

    /// [`ConsistencyNetwork::build`] under an explicit execution
    /// configuration (shard-parallel middle-edge construction).
    pub fn build_with(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<Self> {
        Self::build_excluding_with(r, s, |_| false, cfg)
    }

    /// Builds `N(R,S)` omitting middle edges whose `XY`-row satisfies
    /// `exclude` — the self-reducibility hook of Section 5.3.
    pub fn build_excluding(
        r: &Bag,
        s: &Bag,
        exclude: impl Fn(&[Value]) -> bool + Sync,
    ) -> Result<Self> {
        Self::build_excluding_with(r, s, exclude, &ExecConfig::sequential())
    }

    /// [`ConsistencyNetwork::build_excluding`] under an explicit
    /// execution configuration.
    ///
    /// The sort-merge key matching shards by key range
    /// (`merge_matching_pairs_sharded`): each shard assembles its
    /// candidate `XY`-rows, capacities, and vertex pairs into private
    /// buffers (hashing rows on the worker thread), and the buffers then
    /// splice into the network-local arena in ascending key order — the
    /// exact edge order of the sequential build, so networks and witness
    /// extraction are bit-for-bit deterministic across thread counts.
    pub fn build_excluding_with(
        r: &Bag,
        s: &Bag,
        exclude: impl Fn(&[Value]) -> bool + Sync,
        cfg: &ExecConfig,
    ) -> Result<Self> {
        let plan = JoinPlan::new(r.schema(), s.schema());
        let r_rows = r.sorted_rows();
        let s_rows = s.sorted_rows();
        let n = 1 + r_rows.len() + s_rows.len() + 1;
        let source = 0;
        let sink = n - 1;
        let mut net = FlowNetwork::new(n);

        let mut total_r: u128 = 0;
        let mut r_index = RowStore::with_capacity(r.schema().arity(), r_rows.len());
        let mut r_mults = Vec::with_capacity(r_rows.len());
        let mut source_edges = Vec::with_capacity(r_rows.len());
        for (i, &(row, m)) in r_rows.iter().enumerate() {
            source_edges.push(net.add_edge(source, 1 + i, m));
            // Support rows are distinct; sorted position = RowId.
            r_index.push_unique_unchecked(row);
            r_mults.push(m);
            total_r += m as u128;
        }
        let mut total_s: u128 = 0;
        let mut s_index = RowStore::with_capacity(s.schema().arity(), s_rows.len());
        let mut s_mults = Vec::with_capacity(s_rows.len());
        let mut sink_edges = Vec::with_capacity(s_rows.len());
        let s_base = 1 + r_rows.len();
        for (j, &(row, m)) in s_rows.iter().enumerate() {
            sink_edges.push(net.add_edge(s_base + j, sink, m));
            s_index.push_unique_unchecked(row);
            s_mults.push(m);
            total_s += m as u128;
        }

        // Sort-merge the two sides on their Z-projections: vertex lists
        // are permuted by key (u32 sorts, no row data moves), then
        // equal-key runs pair off group against group, one key-range
        // shard per worker.
        let z_of_s = s.schema().projection_indices(plan.common_schema())?;
        let z_of_r = r.schema().projection_indices(plan.common_schema())?;

        let out_schema = plan.output_schema().clone();
        /// One shard's middle edges: vertex index pairs aligned with a
        /// [`ShardRun`] of combined rows (capacity in the payload column).
        struct EdgeBuffer {
            pairs: Vec<(u32, u32)>,
            run: ShardRun,
        }
        let buffers: Vec<EdgeBuffer> =
            try_merge_matching_pairs_sharded(&r_rows, &z_of_r, &s_rows, &z_of_s, cfg, |sweep| {
                bagcons_core::fault::fire("network::build");
                let mut buf = EdgeBuffer {
                    pairs: Vec::new(),
                    run: ShardRun::new(out_schema.arity()),
                };
                let mut scratch = Vec::with_capacity(out_schema.arity());
                sweep.for_each(|i, j| {
                    let (r_row, rm) = r_rows[i];
                    let (s_row, sm) = s_rows[j];
                    plan.combine_into(r_row, s_row, &mut scratch);
                    if exclude(&scratch) {
                        return;
                    }
                    buf.run.push(&scratch, rm.min(sm));
                    buf.pairs.push((i as u32, j as u32));
                });
                buf
            })?;

        // Splice: edge insertion order across shards equals the
        // sequential emission order; row hashes were precomputed on the
        // workers, so this loop only probes the flat dedup table.
        let edge_count: usize = buffers.iter().map(|b| b.pairs.len()).sum();
        let mut rows = RowStore::with_capacity(out_schema.arity(), edge_count);
        let mut middle = Vec::with_capacity(edge_count);
        for buf in &buffers {
            for (p, &(i, j)) in buf.pairs.iter().enumerate() {
                let id = net.add_edge(1 + i as usize, s_base + j as usize, buf.run.payload(p));
                // Distinct (R-row, S-row) pairs assemble distinct XY rows.
                let rid = rows.push_unique_hashed(buf.run.row(p), buf.run.hash(p));
                middle.push(MiddleEdge {
                    edge: id,
                    row: rid,
                    r: i,
                    s: j,
                });
            }
        }

        Ok(ConsistencyNetwork {
            net,
            source,
            sink,
            xy: out_schema,
            rows,
            middle,
            r_index,
            s_index,
            r_mults,
            s_mults,
            source_edges,
            sink_edges,
            r_incidence: None,
            s_incidence: None,
            flow_value: 0,
            total_r,
            total_s,
        })
    }

    /// The joined schema `XY`.
    pub fn output_schema(&self) -> &Schema {
        &self.xy
    }

    /// Number of middle edges (= `|R' ⋈ S'|` minus exclusions).
    pub fn num_middle_edges(&self) -> usize {
        self.middle.len()
    }

    /// The candidate `XY`-rows behind the middle edges, in edge insertion
    /// order. Equivalence tests compare this across execution
    /// configurations — the order is identical for every thread count.
    pub fn middle_rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.middle.iter().map(|m| self.rows.row(m.row))
    }

    /// The flow routed through each middle edge, in deterministic build
    /// order — the persistable warm state of this network. Because
    /// `build*` emits middle edges in an order that is bit-identical
    /// across thread counts, this column plus the two bags fully
    /// determines the feasible flow: a freshly rebuilt network accepts
    /// it back through [`ConsistencyNetwork::install_flows`].
    pub fn edge_flows(&self) -> Vec<u64> {
        self.middle.iter().map(|m| self.net.flow(m.edge)).collect()
    }

    /// Reinstalls a persisted middle-edge flow column into a freshly
    /// built (zero-flow) network, routing each unit along its unique
    /// source → middle → sink path — the warm-restart half of snapshot
    /// resume, after which [`ConsistencyNetwork::try_reaugment`] has
    /// little or nothing left to do.
    ///
    /// The column is validated before anything is pushed: the length
    /// must match the middle-edge count, each entry must fit its middle
    /// capacity, and the per-vertex sums must fit the boundary-arc
    /// capacities (checked in `u128`, so adversarial columns cannot
    /// overflow). Returns `false` — leaving the network untouched — on
    /// any violation or if this network already carries flow; callers
    /// then simply fall back to cold augmentation.
    pub fn install_flows(&mut self, flows: &[u64]) -> bool {
        if self.flow_value != 0 || flows.len() != self.middle.len() {
            return false;
        }
        let mut r_sums = vec![0u128; self.r_mults.len()];
        let mut s_sums = vec![0u128; self.s_mults.len()];
        for (m, &f) in self.middle.iter().zip(flows) {
            if f > self.net.capacity(m.edge) {
                return false;
            }
            r_sums[m.r as usize] += f as u128;
            s_sums[m.s as usize] += f as u128;
        }
        let r_ok = r_sums
            .iter()
            .zip(&self.r_mults)
            .all(|(&sum, &cap)| sum <= cap as u128);
        let s_ok = s_sums
            .iter()
            .zip(&self.s_mults)
            .all(|(&sum, &cap)| sum <= cap as u128);
        if !r_ok || !s_ok {
            return false;
        }
        for (m, &f) in self.middle.iter().zip(flows) {
            if f > 0 {
                self.net.push_flow(self.source_edges[m.r as usize], f);
                self.net.push_flow(m.edge, f);
                self.net.push_flow(self.sink_edges[m.s as usize], f);
                self.flow_value += f as u128;
            }
        }
        true
    }

    /// Runs max-flow; if the flow saturates every source and sink arc,
    /// returns the witness bag `T(t) = f(t[X], t[Y])`, else `None`.
    pub fn solve(self) -> Option<Bag> {
        self.solve_with(&ExecConfig::sequential())
    }

    /// [`ConsistencyNetwork::solve`] under an explicit execution
    /// configuration: the witness's closing seal — a sort plus re-layout
    /// of the whole support, the last sequential bulk step on the
    /// witness path — runs through the parallel [`Bag::seal_with`] when
    /// `cfg` shards it. The max-flow search itself stays sequential
    /// (augmenting paths are inherently ordered).
    pub fn solve_with(mut self, cfg: &ExecConfig) -> Option<Bag> {
        self.reaugment().then(|| self.extract_witness(cfg))
    }

    /// [`ConsistencyNetwork::solve_with`] under governance: honours
    /// `cfg`'s [`bagcons_core::Deadline`] in both the max-flow search
    /// (per-phase polls) and the witness's closing seal.
    ///
    /// # Errors
    ///
    /// [`CoreError::Aborted`] when the deadline fires — the partial flow
    /// found so far is banked inside `self`, but `self` is consumed, so
    /// retrying means rebuilding (use [`ConsistencyNetwork::try_reaugment`]
    /// then [`ConsistencyNetwork::try_witness_with`] on a borrowed network
    /// to keep resumability). [`CoreError::WorkerPanicked`] when a seal
    /// worker panics.
    pub fn try_solve_with(mut self, cfg: &ExecConfig) -> Result<Option<Bag>> {
        if !self.try_reaugment(cfg)? {
            return Ok(None);
        }
        self.try_witness_with(cfg)
    }

    /// Augments the retained flow to a maximum with Dinic — from
    /// whatever feasible flow previous solves and
    /// [`ConsistencyNetwork::apply_edit`] repairs left behind, not from
    /// zero. Returns `true` iff the resulting flow is **saturated**
    /// (every source and sink arc at capacity), i.e. iff the two bags
    /// are currently consistent (Lemma 2). Idempotent; with unequal
    /// side totals the (impossible) augmentation is skipped outright.
    pub fn reaugment(&mut self) -> bool {
        if self.total_r != self.total_s {
            // A saturated flow needs both sides saturated; impossible.
            return false;
        }
        if self.flow_value != self.total_r {
            self.flow_value += self.net.max_flow(self.source, self.sink);
        }
        self.flow_value == self.total_r
    }

    /// [`ConsistencyNetwork::reaugment`] under governance: Dinic polls
    /// `cfg`'s [`bagcons_core::Deadline`] per phase (and every few
    /// augmenting paths).
    ///
    /// # Errors
    ///
    /// [`CoreError::Aborted`] when the deadline fires mid-search. The
    /// network stays **valid and resumable**: the partial augmentation is
    /// banked into the retained flow value (every augmenting path is
    /// atomic, so the flow is feasible and conserved), and a later call —
    /// with a fresh deadline or none — picks up from the residual graph
    /// rather than from zero.
    pub fn try_reaugment(&mut self, cfg: &ExecConfig) -> Result<bool> {
        bagcons_core::fault::fire("network::reaugment");
        if self.total_r != self.total_s {
            // A saturated flow needs both sides saturated; impossible.
            return Ok(false);
        }
        if self.flow_value != self.total_r {
            let (added, aborted) =
                self.net
                    .max_flow_governed(self.source, self.sink, cfg.deadline());
            self.flow_value += added;
            if let Some(reason) = aborted {
                return Err(CoreError::Aborted(reason));
            }
        }
        Ok(self.flow_value == self.total_r)
    }

    /// True iff the retained flow saturates the network (call
    /// [`ConsistencyNetwork::reaugment`] after edits first).
    pub fn is_saturated(&self) -> bool {
        self.total_r == self.total_s && self.flow_value == self.total_r
    }

    /// The witness bag of the retained flow, when saturated — like
    /// [`ConsistencyNetwork::solve_with`] but borrowing, so a cached
    /// network survives to absorb the next delta.
    pub fn witness_with(&self, cfg: &ExecConfig) -> Option<Bag> {
        self.is_saturated().then(|| self.extract_witness(cfg))
    }

    /// [`ConsistencyNetwork::witness_with`] under governance: the
    /// witness's closing seal honours `cfg`'s deadline and contains
    /// worker panics. The network itself is only read — on error nothing
    /// is cached or mutated.
    pub fn try_witness_with(&self, cfg: &ExecConfig) -> Result<Option<Bag>> {
        if !self.is_saturated() {
            return Ok(None);
        }
        let mut witness = self.assemble_witness();
        witness.try_seal_with(cfg)?;
        Ok(Some(witness))
    }

    /// Builds `T(t) = f(t[X], t[Y])` from the current per-edge flows.
    fn extract_witness(&self, cfg: &ExecConfig) -> Bag {
        let mut witness = self.assemble_witness();
        witness.seal_with(cfg);
        witness
    }

    /// The unsealed witness bag of the current per-edge flows. Witnesses
    /// leave sealed ([`ConsistencyNetwork::extract_witness`] /
    /// [`ConsistencyNetwork::try_witness_with`]): the acyclic chain feeds
    /// them straight back into the next network build (which wants sorted
    /// order) and into prefix marginals (which then skip hashing).
    fn assemble_witness(&self) -> Bag {
        let mut witness = Bag::with_capacity(self.xy.clone(), self.middle.len());
        for m in &self.middle {
            let f = self.net.flow(m.edge);
            if f > 0 {
                witness
                    .insert_row(self.rows.row(m.row), f)
                    .expect("middle rows are valid XY rows and flows fit u64");
            }
        }
        witness
    }

    /// Maps one multiplicity edit — `row` on `side` now has count
    /// `new_mult` — onto edge-capacity edits, cancelling only the
    /// overflowing flow along the touched arcs. Returns `false` (network
    /// unchanged) when `row` is not a support row of that side *and*
    /// `new_mult > 0`: the edit grows the vertex set, and the caller
    /// must rebuild. An unknown row with target count `0` is a no-op
    /// (`true`) — a vertex that never existed and still does not.
    ///
    /// After a batch of edits, call [`ConsistencyNetwork::reaugment`] to
    /// restore maximality and learn whether the pair is still
    /// consistent. Cost is proportional to the touched vertex's degree
    /// plus one Dinic re-augmentation over the (small) residual slack —
    /// not to the network size.
    pub fn apply_edit(&mut self, side: Side, row: &[Value], new_mult: u64) -> bool {
        let index = match side {
            Side::R => &self.r_index,
            Side::S => &self.s_index,
        };
        let Some(rid) = index.lookup(row) else {
            return new_mult == 0;
        };
        let v = rid.index();
        let old = match side {
            Side::R => self.r_mults[v],
            Side::S => self.s_mults[v],
        };
        if old == new_mult {
            return true;
        }
        self.ensure_incidence();
        let inc = match side {
            Side::R => self.r_incidence.as_ref().expect("built above").at(v),
            Side::S => self.s_incidence.as_ref().expect("built above").at(v),
        };
        let boundary = match side {
            Side::R => self.source_edges[v],
            Side::S => self.sink_edges[v],
        };
        let other_mult = |m: &MiddleEdge| match side {
            Side::R => self.s_mults[m.s as usize],
            Side::S => self.r_mults[m.r as usize],
        };
        if new_mult < old {
            // Middle capacities at this vertex shrink to the new
            // bottleneck; cancel whatever flow no longer fits.
            for &mi in inc {
                let m = self.middle[mi as usize];
                let new_cap = new_mult.min(other_mult(&m));
                let f = self.net.flow(m.edge);
                if f > new_cap {
                    cancel_path(
                        &mut self.net,
                        &self.middle,
                        &self.source_edges,
                        &self.sink_edges,
                        &mut self.flow_value,
                        mi as usize,
                        f - new_cap,
                    );
                }
                self.net.set_capacity(m.edge, new_cap);
            }
            // The boundary arc may still carry more than the new
            // capacity even though every middle arc fits individually.
            let f = self.net.flow(boundary);
            if f > new_mult {
                let mut excess = f - new_mult;
                for &mi in inc {
                    if excess == 0 {
                        break;
                    }
                    let mf = self.net.flow(self.middle[mi as usize].edge);
                    if mf == 0 {
                        continue;
                    }
                    let x = mf.min(excess);
                    cancel_path(
                        &mut self.net,
                        &self.middle,
                        &self.source_edges,
                        &self.sink_edges,
                        &mut self.flow_value,
                        mi as usize,
                        x,
                    );
                    excess -= x;
                }
                debug_assert_eq!(excess, 0, "boundary flow = sum of middle flows");
            }
            self.net.set_capacity(boundary, new_mult);
        } else {
            // Growing: pure capacity increases, nothing to cancel.
            self.net.set_capacity(boundary, new_mult);
            for &mi in inc {
                let m = self.middle[mi as usize];
                self.net.set_capacity(m.edge, new_mult.min(other_mult(&m)));
            }
        }
        match side {
            Side::R => {
                self.total_r = self.total_r - old as u128 + new_mult as u128;
                self.r_mults[v] = new_mult;
            }
            Side::S => {
                self.total_s = self.total_s - old as u128 + new_mult as u128;
                self.s_mults[v] = new_mult;
            }
        }
        true
    }

    fn ensure_incidence(&mut self) {
        if self.r_incidence.is_none() {
            self.r_incidence = Some(Incidence::build(self.r_mults.len(), &self.middle, |m| m.r));
            self.s_incidence = Some(Incidence::build(self.s_mults.len(), &self.middle, |m| m.s));
        }
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
    fn parallel_build_is_bit_identical_to_sequential() {
        let mut r = Bag::new(schema(&[0, 1]));
        let mut s = Bag::new(schema(&[1, 2]));
        for i in 0..120u64 {
            r.insert(vec![Value(i % 11), Value(i % 4)], i % 5 + 1)
                .unwrap();
            s.insert(vec![Value(i % 4), Value(i % 9)], i % 3 + 1)
                .unwrap();
        }
        let seq = ConsistencyNetwork::build(&r, &s).unwrap();
        let seq_rows: Vec<Vec<Value>> = seq.middle_rows().map(|row| row.to_vec()).collect();
        let seq_witness = seq.solve();
        for threads in [2usize, 4] {
            let cfg = ExecConfig::builder()
                .threads(threads)
                .min_parallel_support(1)
                .build()
                .unwrap();
            let par = ConsistencyNetwork::build_with(&r, &s, &cfg).unwrap();
            let par_rows: Vec<Vec<Value>> = par.middle_rows().map(|row| row.to_vec()).collect();
            assert_eq!(par_rows, seq_rows, "threads = {threads}");
            assert_eq!(par.solve(), seq_witness, "threads = {threads}");
        }
    }

    /// Drives a network through a sequence of in-place multiplicity
    /// edits, checking after every step that the warm-restarted decision
    /// and witness match a from-scratch rebuild.
    fn check_warm_restart(r: &mut Bag, s: &mut Bag, edits: &[(Side, Vec<Value>, u64)]) {
        let mut net = ConsistencyNetwork::build(r, s).unwrap();
        net.reaugment();
        for (step, (side, row, new_mult)) in edits.iter().enumerate() {
            match side {
                Side::R => r.set(row.clone(), *new_mult).unwrap(),
                Side::S => s.set(row.clone(), *new_mult).unwrap(),
            }
            assert!(
                net.apply_edit(*side, row, *new_mult),
                "step {step}: row must be known"
            );
            let warm = net.reaugment();
            let cold_net = ConsistencyNetwork::build(r, s).unwrap();
            let cold = cold_net.solve();
            assert_eq!(warm, cold.is_some(), "step {step}: decision diverged");
            if warm {
                let w = net
                    .witness_with(&ExecConfig::sequential())
                    .expect("saturated");
                assert_eq!(w.marginal(r.schema()).unwrap(), *r, "step {step}");
                assert_eq!(w.marginal(s.schema()).unwrap(), *s, "step {step}");
            }
        }
    }

    #[test]
    fn warm_restart_tracks_rebuild_through_edit_stream() {
        let (mut r, mut s) = section3_pair();
        let edits = vec![
            // bump one R row: totals diverge, inconsistent
            (Side::R, vec![Value(1), Value(2)], 2),
            // matching bump on S restores consistency
            (Side::S, vec![Value(2), Value(1)], 2),
            // revert both (capacity decreases: the cancel path)
            (Side::R, vec![Value(1), Value(2)], 1),
            (Side::S, vec![Value(2), Value(1)], 1),
            // grow both sides heavily, then shrink one to zero
            (Side::R, vec![Value(2), Value(2)], 9),
            (Side::S, vec![Value(2), Value(2)], 9),
            (Side::R, vec![Value(2), Value(2)], 0),
            (Side::S, vec![Value(2), Value(2)], 0),
            // back to the original pair
            (Side::R, vec![Value(2), Value(2)], 1),
            (Side::S, vec![Value(2), Value(2)], 1),
        ];
        check_warm_restart(&mut r, &mut s, &edits);
    }

    #[test]
    fn warm_restart_randomized_edit_stream() {
        let mut r = Bag::new(schema(&[0, 1]));
        let mut s = Bag::new(schema(&[1, 2]));
        for i in 0..60u64 {
            r.insert(vec![Value(i % 7), Value(i % 5)], i % 4 + 1)
                .unwrap();
            s.insert(vec![Value(i % 5), Value(i % 6)], i % 3 + 1)
                .unwrap();
        }
        r.seal();
        s.seal();
        // deterministic pseudo-random walk over existing support rows
        let r_rows: Vec<Vec<Value>> = r
            .sorted_rows()
            .iter()
            .map(|(row, _)| row.to_vec())
            .collect();
        let s_rows: Vec<Vec<Value>> = s
            .sorted_rows()
            .iter()
            .map(|(row, _)| row.to_vec())
            .collect();
        let mut edits = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..40 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let on_r = x % 2 == 0;
            let pick = (x >> 8) as usize;
            let mult = (x >> 32) % 6; // 0..=5, including drops to zero
            if on_r {
                edits.push((Side::R, r_rows[pick % r_rows.len()].clone(), mult));
            } else {
                edits.push((Side::S, s_rows[pick % s_rows.len()].clone(), mult));
            }
        }
        check_warm_restart(&mut r, &mut s, &edits);
    }

    #[test]
    fn apply_edit_unknown_row_reports_structural_change() {
        let (r, s) = section3_pair();
        let mut net = ConsistencyNetwork::build(&r, &s).unwrap();
        net.reaugment();
        assert!(!net.apply_edit(Side::R, &[Value(9), Value(9)], 1));
        assert!(
            net.apply_edit(Side::R, &[Value(9), Value(9)], 0),
            "unknown row with target count 0 is a no-op, not structural"
        );
        assert!(
            net.apply_edit(Side::R, &[Value(1), Value(2)], 1),
            "no-op edit ok"
        );
        assert!(
            net.is_saturated(),
            "unknown-row probe must not corrupt state"
        );
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
