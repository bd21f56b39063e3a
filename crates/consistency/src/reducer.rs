//! Full reducers: the set-semantics machinery and the bag obstacle
//! (Section 6 / concluding remarks of the paper).
//!
//! For **relations**, Beeri et al. showed acyclicity is also equivalent
//! to the existence of a *full reducer*: a sequence of semijoins
//! `R_i ← R_i ⋉ R_j` after which every relation equals the projection of
//! the full join (no dangling tuples). The classical construction is two
//! sweeps over a join tree (Yannakakis).
//!
//! For **bags**, the paper poses it as an *open problem* to even define
//! the right notion: "the bag-join of a globally consistent collection of
//! bags need not witness their global consistency", so removing dangling
//! tuples cannot make the join a witness.
//! [`Session::naive_bag_semijoin`](crate::session::Session::naive_bag_semijoin)
//! implements the obvious candidate (restrict the support, keep
//! multiplicities) and the tests exhibit the paper's obstacle concretely:
//! after naive full reduction the bag join still over-counts.

use bagcons_core::exec::{shard_ranges, try_run_tasks};
use bagcons_core::join::multi_relation_join;
use bagcons_core::{Bag, ExecConfig, Relation, Result, RowStore, Value};
use bagcons_hypergraph::{Hypergraph, JoinTree};

/// Interns the `idx`-projections of `rows` into a key arena — the probe
/// set for one semijoin sweep, built without per-key boxing.
fn key_set<'a>(rows: impl Iterator<Item = &'a [Value]>, idx: &[usize]) -> RowStore {
    let mut keys = RowStore::new(idx.len());
    let mut scratch = Vec::with_capacity(idx.len());
    for row in rows {
        scratch.clear();
        scratch.extend(idx.iter().map(|&i| row[i]));
        keys.intern(&scratch);
    }
    keys
}

/// The project-and-probe sweep shared by both semijoin variants: returns
/// the ids of `store` (ascending) whose `idx`-projection is interned in
/// `s_keys`. Rows are independent, so
/// the scan shards by plain index ranges per `cfg` (a single range at
/// `threads = 1` runs inline); per-shard survivor lists concatenate back
/// in row order. The executor polls `cfg`'s deadline and contains a
/// worker panic, so both come back as typed errors.
fn probe_ids(
    store: &RowStore,
    idx: &[usize],
    s_keys: &RowStore,
    cfg: &ExecConfig,
) -> Result<Vec<u32>> {
    let len = store.len();
    let ranges = shard_ranges(len, cfg.shards_for(len), |_| false);
    let kept: Vec<Vec<u32>> = try_run_tasks(cfg, ranges, |range| {
        let mut scratch = Vec::with_capacity(idx.len());
        let mut ids = Vec::new();
        for id in range {
            let id = id as u32;
            let row = store.row(bagcons_core::RowId(id));
            scratch.clear();
            scratch.extend(idx.iter().map(|&i| row[i]));
            if s_keys.lookup(&scratch).is_some() {
                ids.push(id);
            }
        }
        ids
    })?;
    Ok(kept.into_iter().flatten().collect())
}

/// The semijoin `R ⋉ S`: tuples of `R` that join with at least one tuple
/// of `S` (set semantics). The probe sweep over `R`'s rows is
/// row-independent, so it shards by plain index ranges (no key-group
/// constraint); per-shard survivor lists join back in row order, so the
/// result matches the sequential scan exactly. The public entry is
/// [`crate::session::Session::semijoin`].
pub(crate) fn semijoin_with(r: &Relation, s: &Relation, cfg: &ExecConfig) -> Result<Relation> {
    let z = r.schema().intersection(s.schema());
    let s_keys = key_set(s.iter(), &s.schema().projection_indices(&z)?);
    let idx = r.schema().projection_indices(&z)?;
    let store = r.store();
    let kept = probe_ids(store, &idx, &s_keys, cfg)?;
    let mut out = Relation::with_capacity(r.schema().clone(), kept.len());
    for id in kept {
        out.insert_row(store.row(bagcons_core::RowId(id)))?;
    }
    Ok(out)
}

/// One semijoin step of a reducer program: `target ← target ⋉ source`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SemijoinStep {
    /// Index of the relation being reduced.
    pub target: usize,
    /// Index of the relation semijoined against.
    pub source: usize,
}

/// A full-reducer program for an acyclic schema: the two join-tree sweeps
/// (leaves → root, then root → leaves).
#[derive(Clone, Debug)]
pub struct FullReducer {
    steps: Vec<SemijoinStep>,
}

impl FullReducer {
    /// Builds the reducer program for the hypergraph of the given edge
    /// schemas. Returns `None` iff the schema is cyclic — reproducing the
    /// \[BFMY83\] equivalence "acyclic ⟺ has a full reducer" on the
    /// positive side.
    pub fn build(h: &Hypergraph) -> Option<FullReducer> {
        let tree = JoinTree::build(h)?;
        let order = tree.bfs_order().to_vec();
        let mut steps = Vec::new();
        // Upward sweep: children into parents, deepest first.
        for &node in order.iter().rev() {
            if let Some(parent) = tree.parent(node) {
                steps.push(SemijoinStep {
                    target: parent,
                    source: node,
                });
            }
        }
        // Downward sweep: parents into children, root first.
        for &node in &order {
            if let Some(parent) = tree.parent(node) {
                steps.push(SemijoinStep {
                    target: node,
                    source: parent,
                });
            }
        }
        Some(FullReducer { steps })
    }

    /// The semijoin program (indices refer to `h.edges()` order).
    pub fn steps(&self) -> &[SemijoinStep] {
        &self.steps
    }

    /// Applies the program to relations aligned with the hypergraph's
    /// edges, returning the fully reduced relations.
    pub fn apply(&self, rels: &[Relation]) -> Result<Vec<Relation>> {
        self.apply_with(rels, &ExecConfig::sequential())
    }

    /// [`FullReducer::apply`] under an explicit execution configuration
    /// (each semijoin step's probe sweep shards across threads). The
    /// public entries are [`FullReducer::apply`] and
    /// [`crate::session::Session::acyclic_join`].
    pub(crate) fn apply_with(&self, rels: &[Relation], cfg: &ExecConfig) -> Result<Vec<Relation>> {
        let mut rels: Vec<Relation> = rels.to_vec();
        for step in &self.steps {
            rels[step.target] = semijoin_with(&rels[step.target], &rels[step.source], cfg)?;
        }
        Ok(rels)
    }
}

/// Checks the defining property of a full reduction: every relation
/// equals the projection of the full join (no dangling tuples).
pub fn is_fully_reduced(rels: &[Relation]) -> Result<bool> {
    let refs: Vec<&Relation> = rels.iter().collect();
    let join = multi_relation_join(&refs);
    for r in rels {
        if &join.project(r.schema())? != r {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Yannakakis' algorithm (the paper's introduction: "the relational join
/// evaluation problem is solvable in polynomial time if the schema of the
/// given relations is acyclic"): fully reduce, then join bottom-up along
/// a running-intersection order. Returns `None` iff the schema is cyclic.
///
/// Unlike the naive multiway join, every intermediate result here is a
/// projection of the final join, so intermediate sizes never exceed the
/// output — the polynomiality the introduction cites. The reducer's
/// semijoin sweeps shard across threads per `cfg`. The public entry is
/// [`crate::session::Session::acyclic_join`].
pub(crate) fn acyclic_join_with(rels: &[Relation], cfg: &ExecConfig) -> Result<Option<Relation>> {
    let h = Hypergraph::from_edges(rels.iter().map(|r| r.schema().clone()));
    let Some(reducer) = FullReducer::build(&h) else {
        return Ok(None);
    };
    // group by schema (duplicates intersect: R ⋈ S on equal schemas)
    let mut by_schema: std::collections::BTreeMap<bagcons_core::Schema, Relation> =
        Default::default();
    for r in rels {
        by_schema
            .entry(r.schema().clone())
            .and_modify(|acc| {
                *acc = bagcons_core::join::relation_join(acc, r);
            })
            .or_insert_with(|| r.clone());
    }
    let aligned: Vec<Relation> = h.edges().iter().map(|e| by_schema[e].clone()).collect();
    let reduced = reducer.apply_with(&aligned, cfg)?;
    let refs: Vec<&Relation> = reduced.iter().collect();
    Ok(Some(multi_relation_join(&refs)))
}

/// The naive bag "semijoin": keep only support tuples that join with the
/// other bag, preserving multiplicities. This is the obvious candidate
/// the paper's Section 6 warns about — the tests show it cannot play the
/// full-reducer role for bags. Same index-range sharding as
/// [`semijoin_with`]. The public entry is
/// [`crate::session::Session::naive_bag_semijoin`].
pub(crate) fn naive_bag_semijoin_with(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<Bag> {
    let z = r.schema().intersection(s.schema());
    let s_keys = key_set(
        s.iter().map(|(row, _)| row),
        &s.schema().projection_indices(&z)?,
    );
    let idx = r.schema().projection_indices(&z)?;
    let store = r.store();
    let kept = probe_ids(store, &idx, &s_keys, cfg)?;
    let mut out = Bag::with_capacity(r.schema().clone(), kept.len());
    for id in kept {
        out.insert_row(store.row(bagcons_core::RowId(id)), r.mult_of(id))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairwise::is_two_bag_witness;
    use crate::session::Session;
    use bagcons_core::{Attr, Schema};
    use bagcons_hypergraph::{cycle, path, star};

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    #[test]
    fn semijoin_drops_dangling_tuples() {
        let r = Relation::from_u64s(schema(&[0, 1]), [&[1u64, 1][..], &[2, 9][..]]).unwrap();
        let s = Relation::from_u64s(schema(&[1, 2]), [&[1u64, 5][..]]).unwrap();
        let red = Session::default().semijoin(&r, &s).unwrap();
        assert_eq!(red.len(), 1);
        assert!(red.contains(&[bagcons_core::Value(1), bagcons_core::Value(1)]));
    }

    #[test]
    fn full_reducer_exists_iff_acyclic() {
        assert!(FullReducer::build(&path(5)).is_some());
        assert!(FullReducer::build(&star(4)).is_some());
        assert!(FullReducer::build(&cycle(3)).is_none());
        assert!(FullReducer::build(&cycle(5)).is_none());
    }

    #[test]
    fn reducer_achieves_full_reduction_on_path() {
        // relations with dangling tuples in several places
        let h = path(4);
        let r0 = Relation::from_u64s(
            schema(&[0, 1]),
            [&[1u64, 1][..], &[2, 2][..], &[3, 9][..]], // (3,9) dangles
        )
        .unwrap();
        let r1 = Relation::from_u64s(
            schema(&[1, 2]),
            [&[1u64, 1][..], &[2, 2][..], &[8, 8][..]], // (8,8) dangles
        )
        .unwrap();
        let r2 = Relation::from_u64s(
            schema(&[2, 3]),
            [&[1u64, 7][..], &[5, 5][..]], // (5,5) dangles; kills (2,2) upstream
        )
        .unwrap();
        let rels = vec![r0, r1, r2];
        assert!(!is_fully_reduced(&rels).unwrap());
        let reducer = FullReducer::build(&h).unwrap();
        let reduced = reducer.apply(&rels).unwrap();
        assert!(is_fully_reduced(&reduced).unwrap());
        // only the (1,1)-(1,1)-(1,7) chain survives
        assert_eq!(reduced[0].len(), 1);
        assert_eq!(reduced[1].len(), 1);
        assert_eq!(reduced[2].len(), 1);
    }

    #[test]
    fn reducer_program_has_two_sweeps() {
        let h = path(4); // 3 edges → 2 tree edges → 4 steps
        let reducer = FullReducer::build(&h).unwrap();
        assert_eq!(reducer.steps().len(), 4);
    }

    #[test]
    fn reduction_is_idempotent() {
        let h = star(3);
        let r0 = Relation::from_u64s(schema(&[0, 1]), [&[1u64, 1][..], &[2, 2][..]]).unwrap();
        let r1 = Relation::from_u64s(schema(&[0, 2]), [&[1u64, 5][..]]).unwrap();
        let r2 = Relation::from_u64s(schema(&[0, 3]), [&[1u64, 6][..], &[3, 6][..]]).unwrap();
        let reducer = FullReducer::build(&h).unwrap();
        let once = reducer.apply(&[r0, r1, r2]).unwrap();
        let twice = reducer.apply(&once).unwrap();
        assert_eq!(once, twice);
        assert!(is_fully_reduced(&once).unwrap());
    }

    #[test]
    fn acyclic_join_matches_naive_multiway_join() {
        let r0 = Relation::from_u64s(schema(&[0, 1]), [&[1u64, 1][..], &[2, 2][..], &[3, 9][..]])
            .unwrap();
        let r1 = Relation::from_u64s(schema(&[1, 2]), [&[1u64, 1][..], &[2, 2][..]]).unwrap();
        let r2 = Relation::from_u64s(schema(&[2, 3]), [&[1u64, 7][..], &[2, 8][..]]).unwrap();
        let rels = vec![r0.clone(), r1.clone(), r2.clone()];
        let smart = Session::default()
            .acyclic_join(&rels)
            .unwrap()
            .expect("path schema is acyclic");
        let naive = multi_relation_join(&[&r0, &r1, &r2]);
        assert_eq!(smart, naive);
        assert_eq!(smart.len(), 2);
    }

    #[test]
    fn acyclic_join_refuses_cyclic_schemas() {
        let r = Relation::from_u64s(schema(&[0, 1]), [&[0u64, 0][..]]).unwrap();
        let s = Relation::from_u64s(schema(&[1, 2]), [&[0u64, 0][..]]).unwrap();
        let t = Relation::from_u64s(schema(&[0, 2]), [&[0u64, 0][..]]).unwrap();
        assert!(Session::default()
            .acyclic_join(&[r, s, t])
            .unwrap()
            .is_none());
    }

    #[test]
    fn acyclic_join_handles_duplicate_schemas() {
        let r = Relation::from_u64s(schema(&[0, 1]), [&[1u64, 1][..], &[2, 2][..]]).unwrap();
        let r2 = Relation::from_u64s(schema(&[0, 1]), [&[1u64, 1][..]]).unwrap();
        let s = Relation::from_u64s(schema(&[1, 2]), [&[1u64, 5][..]]).unwrap();
        let smart = Session::default()
            .acyclic_join(&[r.clone(), r2.clone(), s.clone()])
            .unwrap()
            .unwrap();
        let naive = multi_relation_join(&[&r, &r2, &s]);
        assert_eq!(smart, naive);
        assert_eq!(smart.len(), 1);
    }

    #[test]
    fn bag_obstacle_naive_semijoin_does_not_yield_witnesses() {
        // Section 3's pair: already "fully reduced" in the support sense
        // (every support tuple joins), yet the bag join is NOT a witness.
        // So no support-pruning semijoin can ever repair it — the
        // concrete form of the paper's Section 6 obstacle.
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 1), (&[2, 2][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 1][..], 1), (&[2, 2][..], 1)]).unwrap();
        // naive semijoins change nothing: nothing dangles
        let r_red = Session::default().naive_bag_semijoin(&r, &s).unwrap();
        let s_red = Session::default().naive_bag_semijoin(&s, &r).unwrap();
        assert_eq!(r_red, r);
        assert_eq!(s_red, s);
        // and the bag join of the "reduced" bags still fails as a witness
        let join = bagcons_core::join::bag_join(&r_red, &s_red).unwrap();
        assert!(!is_two_bag_witness(&join, &r, &s).unwrap());
    }

    #[test]
    fn naive_bag_semijoin_does_prune_dangling_support() {
        // it is still a sensible support operation, matching the set case
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 5), (&[2, 9][..], 3)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 5][..], 2)]).unwrap();
        let red = Session::default().naive_bag_semijoin(&r, &s).unwrap();
        assert_eq!(
            red.support(),
            Session::default()
                .semijoin(&r.support(), &s.support())
                .unwrap()
        );
        assert_eq!(
            red.multiplicity(&[bagcons_core::Value(1), bagcons_core::Value(1)]),
            5
        );
    }
}
