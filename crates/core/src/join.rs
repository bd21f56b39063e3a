//! Joins under set and bag semantics.
//!
//! Section 2 of the paper defines, for `R(X)` and `S(Y)`:
//!
//! * the **relational join** `R ⋈ S`: all `XY`-tuples `xy` with `x ∈ R'`,
//!   `y ∈ S'` and `x[X∩Y] = y[X∩Y]`;
//! * the **bag join** `R ⋈ᵇ S`: support `R' ⋈ S'` and multiplicity
//!   `(R ⋈ᵇ S)(t) = R(t[X]) × S(t[Y])`.
//!
//! Both run over the columnar [`crate::store::RowStore`] arenas, in one
//! of two physical strategies selected by a size heuristic
//! ([`JoinStrategy::select`]):
//!
//! * **sort-merge** — both sides' support rows are sorted by their
//!   projection onto the common schema `Z` (a `u32` position sort; no
//!   row data moves), then equal-key *runs* are matched group against
//!   group. A side whose keys already ascend — a sealed operand whose
//!   `Z`-columns form a schema prefix — skips its sort.
//! * **hash** — the smaller side's keys are interned into a scratch
//!   key arena with intrusive chains (flat vectors, no per-key boxes),
//!   and the larger side probes.
//!
//! Sort-merge wins once both sides are large (cache-friendly sequential
//! scans, no hash-table build); hashing wins when one side is small
//! enough that `O(small)` build + `O(large)` probe beats sorting the
//! large side. The crossover `MERGE_MIN` is coarse by design.
//!
//! Each strategy has one body, which runs per shard through
//! [`crate::exec::try_run_tasks`] (one inline task when the
//! configuration does not shard). A shard appends its joined rows
//! straight to its own row-major arena with a multiplicity column; the
//! shard outputs join end to end, and the output store adopts them with
//! its dedup table unbuilt — joined rows are distinct by construction,
//! so nothing is hashed and no per-tuple `Box<[Value]>` is allocated. A
//! relation joins as the bag whose multiplicities are all 1, through the
//! same bodies. A [`JoinPlan`] precomputes the index arithmetic (key
//! extraction and output-row assembly) so multiway joins and repeated
//! joins don't redo it.
//!
//! The keyed sort-and-sweep is written once (`KeyedPairs`): the merge
//! join, the flow network `N(R,S)` ([`merge_matching_pairs`]) and the
//! two-bag witness fill ([`try_merge_matching_pairs_sharded`]) all match
//! group by group through it. It packs each pair's join keys into one
//! integer word per row when the joint widths fit 64 bits, for the
//! length of that one match, and gallops past unmatched keys on skewed
//! ranges; neither changes the groups or their order.

use crate::exec::ExecConfig;
use crate::store::{RowId, RowStore};
use crate::{Bag, CoreError, Relation, Result, Schema, Value};
use std::cmp::Ordering;

/// Which operand of a join a value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

/// Below this support size (on either side), hashing the smaller side
/// beats any merge; at or above it the finer heuristic of
/// [`JoinStrategy::select`] applies.
const MERGE_MIN: usize = 64;

/// When one side is at least this many times larger than the other,
/// building a key index on the small side and probing with the large one
/// beats putting the large side through a merge: `O(small)` build +
/// `O(large)` probe vs an `O(large log large)` sort.
const HASH_RATIO: usize = 8;

/// Size and sortedness statistics of one join operand, the inputs to
/// [`JoinStrategy::select`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinSide {
    /// Support size (`‖R‖supp` for bags, `|R|` for relations).
    pub support: usize,
    /// True iff the operand is sealed **and** the join key is a prefix of
    /// its schema — its sorted run doubles as the key order, so the merge
    /// path gets this side's sort for free.
    pub sorted: bool,
}

impl JoinSide {
    /// Builds the statistics from explicit values.
    pub fn new(support: usize, sorted: bool) -> Self {
        JoinSide { support, sorted }
    }
}

/// A join operand as the join bodies read it: a bag, or a relation read
/// as the bag whose multiplicities are all 1 (Section 2).
#[derive(Clone, Copy)]
struct Operand<'a> {
    schema: &'a Schema,
    store: &'a RowStore,
    /// The multiplicity column by row id; `None` for a relation.
    mults: Option<&'a [u64]>,
    sealed: bool,
    support: usize,
}

impl<'a> Operand<'a> {
    fn bag(bag: &'a Bag) -> Self {
        Operand {
            schema: bag.schema(),
            store: bag.store(),
            mults: Some(bag.mults()),
            sealed: bag.is_sealed(),
            support: bag.support_size(),
        }
    }

    fn relation(rel: &'a Relation) -> Self {
        Operand {
            schema: rel.schema(),
            store: rel.store(),
            mults: None,
            sealed: rel.is_sealed(),
            support: rel.len(),
        }
    }

    #[inline]
    fn mult(self, id: u32) -> u64 {
        self.mults.map_or(1, |m| m[id as usize])
    }

    #[inline]
    fn row(self, id: u32) -> &'a [Value] {
        self.store.row(RowId(id))
    }

    /// Ids of the support rows, in storage order.
    fn live_ids(self) -> impl Iterator<Item = u32> + 'a {
        (0..self.store.len() as u32).filter(move |&i| self.mult(i) > 0)
    }

    /// The input statistics of [`JoinStrategy::select`].
    fn side(self, key: &[usize]) -> JoinSide {
        JoinSide {
            support: self.support,
            sorted: self.sealed && crate::tuple::is_prefix_projection(key),
        }
    }

    /// The support rows with their multiplicities, in storage order: one
    /// side of a merge join.
    fn live_rows(self) -> Vec<(&'a [Value], u64)> {
        self.live_ids()
            .map(|i| (self.row(i), self.mult(i)))
            .collect()
    }
}

/// The physical join strategy; exposed so benchmarks and the harness can
/// pin either path explicitly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Sort both sides by the common-key projection, match runs.
    SortMerge,
    /// Build a key index on the right side, probe with the left.
    Hash,
}

impl JoinStrategy {
    /// The sequential strategy heuristic. Calibrated against BENCH_e12:
    ///
    /// * either side below `MERGE_MIN` → **hash** (build the small
    ///   side, probe the large);
    /// * both sides sort-free (sealed with prefix keys) → **merge** —
    ///   a pure linear sweep, no sort and no table build;
    /// * size ratio ≥ `HASH_RATIO` → **hash**: probing the large side
    ///   beats putting it through a sort;
    /// * otherwise → **hash**: when at least one side must be sorted,
    ///   the committed `BENCH_e12.json` has hash ahead of merge from
    ///   support 1024 up (`hash_ms` 0.4946 vs `merge_ms` 0.9144 at
    ///   4096). [`JoinStrategy::select_with`] flips this case to merge
    ///   when sharding can spread the sweep across threads.
    pub fn select(left: JoinSide, right: JoinSide) -> Self {
        Self::select_with(left, right, &ExecConfig::sequential())
    }

    /// [`JoinStrategy::select`] under an execution configuration. Both
    /// physical strategies now parallelize under `cfg` — the merge
    /// shards its group sweep at key boundaries, the hash join
    /// broadcasts its build side and shards the probe
    /// ([`bag_join_hash_with`]) — so the choice reduces to the
    /// *sequential* work each strategy cannot shard away: the sorts (for
    /// merge) vs the index build on the small side (for hash). Hence:
    /// comparable sizes with at least one sort-free side pick merge when
    /// `cfg` shards them (its leftover sequential work is ~nothing),
    /// while lopsided or unsorted inputs keep hash, whose `O(small)`
    /// build is the only part that stays on one thread.
    pub fn select_with(left: JoinSide, right: JoinSide, cfg: &ExecConfig) -> Self {
        let small = left.support.min(right.support);
        let large = left.support.max(right.support);
        if small < MERGE_MIN {
            JoinStrategy::Hash
        } else if left.sorted && right.sorted {
            JoinStrategy::SortMerge
        } else if large >= HASH_RATIO * small {
            JoinStrategy::Hash
        } else if (left.sorted || right.sorted) && cfg.shards_for(small) > 1 {
            // `small` mirrors what the merge body actually shards on: if
            // it would fall back to one shard, claim no parallel win.
            JoinStrategy::SortMerge
        } else {
            JoinStrategy::Hash
        }
    }
}

/// Precomputed index arithmetic for joining schemas `X` and `Y`.
#[derive(Clone, Debug)]
pub struct JoinPlan {
    /// The output schema `XY = X ∪ Y`.
    out: Schema,
    /// The common schema `Z = X ∩ Y`.
    common: Schema,
    /// Positions of `Z` inside `X`.
    left_key: Vec<usize>,
    /// Positions of `Z` inside `Y`.
    right_key: Vec<usize>,
    /// For each output position: where its value comes from.
    sources: Vec<(Side, usize)>,
}

impl JoinPlan {
    /// Builds a plan for joining `left` with `right`.
    pub fn new(left: &Schema, right: &Schema) -> Self {
        let out = left.union(right);
        let common = left.intersection(right);
        let left_key = left
            .projection_indices(&common)
            .expect("Z ⊆ X by construction");
        let right_key = right
            .projection_indices(&common)
            .expect("Z ⊆ Y by construction");
        let sources = out
            .iter()
            .map(|a| match left.position(a) {
                Some(i) => (Side::Left, i),
                None => (Side::Right, right.position(a).expect("attr in X ∪ Y")),
            })
            .collect();
        JoinPlan {
            out,
            common,
            left_key,
            right_key,
            sources,
        }
    }

    /// The output schema `X ∪ Y`.
    pub fn output_schema(&self) -> &Schema {
        &self.out
    }

    /// The common schema `X ∩ Y`.
    pub fn common_schema(&self) -> &Schema {
        &self.common
    }

    /// Assembles the joined row `xy` into `buf` (cleared first).
    #[inline]
    pub fn combine_into(&self, left: &[Value], right: &[Value], buf: &mut Vec<Value>) {
        buf.clear();
        self.append_combined(left, right, buf);
    }

    /// Appends the joined row `xy` to the row-major arena `out`.
    #[inline]
    pub fn append_combined(&self, left: &[Value], right: &[Value], out: &mut Vec<Value>) {
        out.extend(self.sources.iter().map(|&(side, i)| match side {
            Side::Left => left[i],
            Side::Right => right[i],
        }));
    }
}

/// Compares two rows (possibly from different stores) by their key
/// projections.
#[inline]
fn cmp_keys(a: &[Value], a_idx: &[usize], b: &[Value], b_idx: &[usize]) -> Ordering {
    debug_assert_eq!(a_idx.len(), b_idx.len());
    for (&i, &j) in a_idx.iter().zip(b_idx) {
        match a[i].cmp(&b[j]) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// Packs the keys of both sides of a merge under one joint raw
/// [`crate::pack::PackSpec`], built from the per-column maxes of **both**
/// sides, so words compare across the sides. Each side is its key count
/// and `key(p, c)`, column `c` of the key at position `p`. `None` when
/// the key has no columns or the joint widths pass 64 bits; the words
/// are injective and order-preserving on the joint key space otherwise.
fn pack_joint_keys(
    k: usize,
    (l_len, l_key): (usize, impl Fn(usize, usize) -> Value),
    (r_len, r_key): (usize, impl Fn(usize, usize) -> Value),
) -> Option<(Vec<u64>, Vec<u64>)> {
    if k == 0 {
        return None;
    }
    let mut maxes = vec![0u64; k];
    for p in 0..l_len {
        for (c, m) in maxes.iter_mut().enumerate() {
            *m = (*m).max(l_key(p, c).get());
        }
    }
    for p in 0..r_len {
        for (c, m) in maxes.iter_mut().enumerate() {
            *m = (*m).max(r_key(p, c).get());
        }
    }
    let spec = crate::pack::PackSpec::raw(&maxes).filter(|s| s.total_bits() <= 64)?;
    Some((
        pack_keys(&spec, k, l_len, l_key),
        pack_keys(&spec, k, r_len, r_key),
    ))
}

/// One side's words under a spec that covers every key of the side.
fn pack_keys(
    spec: &crate::pack::PackSpec,
    k: usize,
    len: usize,
    key: impl Fn(usize, usize) -> Value,
) -> Vec<u64> {
    let mut buf = Vec::with_capacity(k);
    (0..len)
        .map(|p| {
            buf.clear();
            buf.extend((0..k).map(|c| key(p, c)));
            spec.pack_row(&buf)
                .expect("joint per-column maxes cover both sides") as u64
        })
        .collect()
}

/// The bag join `R ⋈ᵇ S` of Section 2, strategy chosen by
/// [`JoinStrategy::select`].
///
/// Multiplicities multiply; overflow yields
/// [`CoreError::MultiplicityOverflow`]. Note the paper's warning (Section 3):
/// the bag join of two *consistent* bags need **not** witness their
/// consistency — this function computes the algebraic join, nothing more.
pub fn bag_join(r: &Bag, s: &Bag) -> Result<Bag> {
    bag_join_with(r, s, &ExecConfig::sequential())
}

/// [`bag_join`] under an explicit execution configuration: the strategy
/// choice becomes sharding-aware ([`JoinStrategy::select_with`]) and the
/// chosen body runs one sweep per shard ([`crate::exec`]).
pub fn bag_join_with(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<Bag> {
    let (schema, out) = join_with(Operand::bag(r), Operand::bag(s), cfg)?;
    Ok(into_bag(schema, out))
}

/// The sort-merge bag join: both sides' live ids are key-sorted, then
/// equal-key runs multiply out group × group.
pub fn bag_join_merge(r: &Bag, s: &Bag) -> Result<Bag> {
    bag_join_merge_with(r, s, &ExecConfig::sequential())
}

/// [`bag_join_merge`] under an explicit execution configuration: the
/// left side's key-sorted run splits at join key-group boundaries (the
/// right side's matching ranges are found by binary search), each shard
/// multiplies its groups out, and the shard outputs join in ascending
/// key order — the same rows in the same order at every thread count.
pub fn bag_join_merge_with(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<Bag> {
    let plan = JoinPlan::new(r.schema(), s.schema());
    let out = join_merge(Operand::bag(r), Operand::bag(s), &plan, cfg, true)?;
    Ok(into_bag(plan.out, out))
}

#[doc(hidden)]
pub fn bag_join_merge_baseline_with(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<Bag> {
    // Pre-packing behavior (slice compares, linear advancement): the
    // reference the E16 bench and CI speedup gate measure against, and
    // the oracle the equivalence property tests compare to.
    let plan = JoinPlan::new(r.schema(), s.schema());
    let out = join_merge(Operand::bag(r), Operand::bag(s), &plan, cfg, false)?;
    Ok(into_bag(plan.out, out))
}

/// The hash bag join: right side's keys interned into a flat chained
/// index, left side probes. The small-side fallback of the heuristic.
pub fn bag_join_hash(r: &Bag, s: &Bag) -> Result<Bag> {
    bag_join_hash_with(r, s, &ExecConfig::sequential())
}

/// [`bag_join_hash`] under an explicit execution configuration: the key
/// index builds once on the calling thread and is **broadcast** (shared
/// read-only) to the workers, while the probe side's live ids shard
/// into plain index ranges — probes are row-independent, so no
/// key-group constraint applies. The shard outputs join in range order,
/// so the rows come out in probe order at every thread count.
pub fn bag_join_hash_with(r: &Bag, s: &Bag, cfg: &ExecConfig) -> Result<Bag> {
    let plan = JoinPlan::new(r.schema(), s.schema());
    let out = join_hash(Operand::bag(r), Operand::bag(s), &plan, cfg)?;
    Ok(into_bag(plan.out, out))
}

/// The relational join `R ⋈ S` of Section 2, strategy chosen by
/// [`JoinStrategy::select`].
pub fn relation_join(r: &Relation, s: &Relation) -> Relation {
    let seq = ExecConfig::sequential();
    into_relation(join_with(Operand::relation(r), Operand::relation(s), &seq))
}

/// The sort-merge relational join.
pub fn relation_join_merge(r: &Relation, s: &Relation) -> Relation {
    let plan = JoinPlan::new(r.schema(), s.schema());
    let (r, s) = (Operand::relation(r), Operand::relation(s));
    let out = join_merge(r, s, &plan, &ExecConfig::sequential(), true);
    into_relation(out.map(|out| (plan.out, out)))
}

/// The hash relational join.
pub fn relation_join_hash(r: &Relation, s: &Relation) -> Relation {
    let plan = JoinPlan::new(r.schema(), s.schema());
    let (r, s) = (Operand::relation(r), Operand::relation(s));
    let out = join_hash(r, s, &plan, &ExecConfig::sequential());
    into_relation(out.map(|out| (plan.out, out)))
}

/// A join's output: the store of joined rows and their multiplicities.
type Joined = (RowStore, Vec<u64>);

/// The joined rows as a bag. They come in key-group or probe order, so
/// only an empty join is sealed.
fn into_bag(schema: Schema, (store, mults): Joined) -> Bag {
    let sealed = mults.is_empty();
    Bag::adopt(schema, store, mults, sealed)
}

/// The joined rows as a relation; their multiplicities are all 1. A
/// relational join runs with no deadline, so it fails only by a panic in
/// its body, which is raised again here.
fn into_relation(out: Result<(Schema, Joined)>) -> Relation {
    let (schema, (store, _)) = out.unwrap_or_else(|e| panic!("{e}"));
    let sealed = store.is_empty();
    Relation::from_store(schema, store, sealed)
}

/// Picks the physical strategy by [`JoinStrategy::select_with`] and runs
/// its body, returning the output schema `X ∪ Y` with the joined rows.
fn join_with(r: Operand<'_>, s: Operand<'_>, cfg: &ExecConfig) -> Result<(Schema, Joined)> {
    let plan = JoinPlan::new(r.schema, s.schema);
    let out = match JoinStrategy::select_with(r.side(&plan.left_key), s.side(&plan.right_key), cfg)
    {
        JoinStrategy::SortMerge => join_merge(r, s, &plan, cfg, true)?,
        // The join is symmetric (output schema is the union, multiplicities
        // multiply), so build the key index on the smaller operand and
        // probe with the larger — which is also the side worth sharding
        // (the swapped orientation needs its own plan).
        JoinStrategy::Hash if r.support < s.support => {
            join_hash(s, r, &JoinPlan::new(s.schema, r.schema), cfg)?
        }
        JoinStrategy::Hash => join_hash(r, s, &plan, cfg)?,
    };
    Ok((plan.out, out))
}

/// Joins the shard outputs of a join end to end and adopts them: the
/// rows are distinct by construction, so the store takes them unhashed.
fn adopt_runs(plan: &JoinPlan, runs: Vec<Result<(Vec<Value>, Vec<u64>)>>) -> Result<Joined> {
    let (data, mults) = crate::exec::concat_runs(runs.into_iter().collect::<Result<_>>()?);
    let store = RowStore::from_distinct_rows(plan.out.arity(), mults.len(), data);
    Ok((store, mults))
}

/// The merge-join body: both sides' support rows go through the keyed
/// sort-and-sweep of [`KeyedPairs`], and each shard multiplies its key
/// groups out, so the joined rows come key ascending, then by left row
/// id, then by right row id. `hot = false` pins the slice reference (no
/// packed words, no galloping) for the baseline.
fn join_merge(
    r: Operand<'_>,
    s: Operand<'_>,
    plan: &JoinPlan,
    cfg: &ExecConfig,
    hot: bool,
) -> Result<Joined> {
    let (left, right) = (r.live_rows(), s.live_rows());
    let keyed = KeyedPairs::sort(&left, &plan.left_key, &right, &plan.right_key, hot);
    let runs = keyed.shards(cfg, |sweep| {
        crate::fault::fire("join::merge::shard");
        // At least one output row per larger-side input row is the common case.
        let rows = sweep.l_range.len().max(sweep.r_range.len());
        let mut data = Vec::with_capacity(rows * plan.out.arity());
        let mut mults = Vec::with_capacity(rows);
        let mut overflow = false;
        sweep.for_each_group(|ls, rs| {
            if overflow {
                return;
            }
            for &a in ls {
                let (lrow, lm) = left[a as usize];
                for &b in rs {
                    let (rrow, rm) = right[b as usize];
                    let Some(m) = lm.checked_mul(rm) else {
                        overflow = true;
                        return;
                    };
                    // Distinct (a, b) pairs assemble distinct XY rows.
                    plan.append_combined(lrow, rrow, &mut data);
                    mults.push(m);
                }
            }
        });
        if overflow {
            Err(CoreError::MultiplicityOverflow)
        } else {
            Ok((data, mults))
        }
    })?;
    adopt_runs(plan, runs)
}

/// Flat chained index over the right side's key projections: keys are
/// interned into a scratch arena; chains live in two plain vectors.
struct KeyIndex {
    keys: RowStore,
    /// Per key id: head of its chain into `next` (`u32::MAX` = empty).
    head: Vec<u32>,
    /// Per indexed position: next position with the same key.
    next: Vec<u32>,
    /// Indexed row ids, position-aligned with `next`.
    rows: Vec<u32>,
}

const NONE: u32 = u32::MAX;

impl KeyIndex {
    fn build(
        store: &RowStore,
        ids: impl Iterator<Item = u32>,
        key: &[usize],
        scratch: &mut Vec<Value>,
    ) -> Self {
        let mut idx = KeyIndex {
            keys: RowStore::new(key.len()),
            head: Vec::new(),
            next: Vec::new(),
            rows: Vec::new(),
        };
        for id in ids {
            let row = store.row(RowId(id));
            scratch.clear();
            scratch.extend(key.iter().map(|&i| row[i]));
            let (kid, fresh) = idx.keys.intern(scratch);
            if fresh {
                idx.head.push(NONE);
            }
            let pos = idx.rows.len() as u32;
            idx.next.push(idx.head[kid.index()]);
            idx.rows.push(id);
            idx.head[kid.index()] = pos;
        }
        idx
    }

    /// Iterates row ids matching `row`'s key projection.
    fn probe<'a>(
        &'a self,
        row: &[Value],
        key: &[usize],
        scratch: &mut Vec<Value>,
    ) -> ProbeIter<'a> {
        scratch.clear();
        scratch.extend(key.iter().map(|&i| row[i]));
        let pos = match self.keys.lookup(scratch) {
            Some(kid) => self.head[kid.index()],
            None => NONE,
        };
        ProbeIter { index: self, pos }
    }
}

/// Iterator over one key chain of a [`KeyIndex`].
struct ProbeIter<'a> {
    index: &'a KeyIndex,
    pos: u32,
}

impl Iterator for ProbeIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.pos == NONE {
            return None;
        }
        let p = self.pos as usize;
        self.pos = self.index.next[p];
        Some(self.index.rows[p])
    }
}

/// The hash-join body: `s`'s key index builds once on the calling
/// thread and is shared read-only, while `r`'s live ids shard into plain
/// ranges. `plan` must be oriented as `JoinPlan::new(r.schema, s.schema)`.
fn join_hash(r: Operand<'_>, s: Operand<'_>, plan: &JoinPlan, cfg: &ExecConfig) -> Result<Joined> {
    let mut key_scratch: Vec<Value> = Vec::with_capacity(plan.common.arity());
    let index = KeyIndex::build(s.store, s.live_ids(), &plan.right_key, &mut key_scratch);
    // Contiguous ranges of the live-id list keep the joined output in
    // probe order; the oversubscribed plan + work stealing absorb skewed
    // chains (probe rows whose key matches a giant build-side group).
    let probe_ids: Vec<u32> = r.live_ids().collect();
    let ranges = crate::exec::shard_ranges(probe_ids.len(), cfg.shards_for(r.support), |_| false);
    let (probe_ids, index) = (&probe_ids, &index);
    let runs = crate::exec::try_run_tasks(cfg, ranges, |range| {
        crate::fault::fire("join::hash::shard");
        let mut data = Vec::with_capacity(range.len() * plan.out.arity());
        let mut mults = Vec::with_capacity(range.len());
        let mut key_scratch: Vec<Value> = Vec::with_capacity(plan.common.arity());
        for &a in &probe_ids[range] {
            let (lrow, lm) = (r.row(a), r.mult(a));
            for b in index.probe(lrow, &plan.left_key, &mut key_scratch) {
                let m = lm
                    .checked_mul(s.mult(b))
                    .ok_or(CoreError::MultiplicityOverflow)?;
                // Distinct (a, b) pairs assemble distinct XY rows.
                plan.append_combined(lrow, s.row(b), &mut data);
                mults.push(m);
            }
        }
        Ok((data, mults))
    })?;
    adopt_runs(plan, runs)
}

/// Sort-merge driver for callers that pair off two row lists on a shared
/// key without materializing the join (the flow network `N(R,S)` keys
/// its middle edges this way).
///
/// Sorts positions of `left` and `right` by their projections onto the
/// common key (`left_key`/`right_key` are each side's column indices for
/// the same key schema, in the same order) and invokes `on_pair(i, j)`
/// for every `(i, j)` whose rows agree on the key. Pairs arrive grouped
/// by ascending key, with `i` and then `j` ascending within a group —
/// deterministic regardless of input order.
pub fn merge_matching_pairs(
    left: &[(&[Value], u64)],
    left_key: &[usize],
    right: &[(&[Value], u64)],
    right_key: &[usize],
    on_pair: impl FnMut(usize, usize),
) {
    let keyed = KeyedPairs::sort(left, left_key, right, right_key, true);
    keyed.sweep(0..left.len(), 0..right.len()).for_each(on_pair);
}

/// Sharded [`merge_matching_pairs`]: the matched key space partitions
/// into contiguous key-range shards (no join group straddles a shard),
/// `shard` runs once per shard — in parallel per `cfg` — and its outputs
/// return in ascending key order. The witness fill
/// (`bagcons::pairwise`) assembles its per-shard group fills through
/// this.
///
/// Each shard receives a [`PairSweep`] that replays that shard's pairs
/// with the same ordering guarantees as [`merge_matching_pairs`]; the
/// concatenation of all shards' pair sequences is exactly the sequential
/// sequence. Polls `cfg`'s [`crate::Deadline`] at shard-chunk boundaries
/// and contains worker panics, returning [`CoreError::Aborted`] /
/// [`CoreError::WorkerPanicked`] instead of hanging or unwinding.
/// Nothing is assembled on the error path — per-shard outputs are
/// dropped.
pub fn try_merge_matching_pairs_sharded<T: Send>(
    left: &[(&[Value], u64)],
    left_key: &[usize],
    right: &[(&[Value], u64)],
    right_key: &[usize],
    cfg: &ExecConfig,
    shard: impl Fn(PairSweep<'_, '_>) -> T + Sync,
) -> Result<Vec<T>> {
    KeyedPairs::sort(left, left_key, right, right_key, true).shards(cfg, shard)
}

/// Both sides of a keyed match in key order: the one keyed
/// sort-and-sweep behind the merge join, [`merge_matching_pairs`] and
/// its sharded form.
///
/// When `hot` and the joint key values fit one raw spec of at most 64
/// bits ([`pack_joint_keys`]), each side sorts as `(word, position)`
/// pairs and every later key compare is one integer compare; otherwise
/// the keys compare as slices. Either way a side whose keys already
/// ascend — a sealed side keyed on a schema prefix — skips its sort, and
/// ties go by position, so the pair order is the same. `hot = false` is
/// the slice reference of the merge-join baseline: no words and no
/// galloping.
struct KeyedPairs<'a, 'k> {
    left: SortedKeys<'a, 'k>,
    right: SortedKeys<'a, 'k>,
    hot: bool,
}

/// One side of [`KeyedPairs`]: its rows and key columns, the positions
/// in key order, and the packed key words in that order when the pair
/// packs (both sides pack, or neither does).
struct SortedKeys<'a, 'k> {
    rows: &'a [(&'a [Value], u64)],
    key: &'k [usize],
    order: Vec<u32>,
    words: Option<Vec<u64>>,
}

impl<'a, 'k> KeyedPairs<'a, 'k> {
    fn sort(
        left: &'a [(&'a [Value], u64)],
        left_key: &'k [usize],
        right: &'a [(&'a [Value], u64)],
        right_key: &'k [usize],
        hot: bool,
    ) -> Self {
        let words = if hot {
            pack_joint_keys(
                left_key.len(),
                (left.len(), |p, c| left[p].0[left_key[c]]),
                (right.len(), |p, c| right[p].0[right_key[c]]),
            )
        } else {
            None
        };
        let (lw, rw) = words.unzip();
        KeyedPairs {
            left: SortedKeys::sort(left, left_key, lw),
            right: SortedKeys::sort(right, right_key, rw),
            hot,
        }
    }

    /// Compares the left key at sorted position `i` with the right key at
    /// sorted position `j`.
    #[inline]
    fn cmp_at(&self, i: usize, j: usize) -> Ordering {
        match (&self.left.words, &self.right.words) {
            (Some(lw), Some(rw)) => lw[i].cmp(&rw[j]),
            _ => cmp_keys(
                self.left.row(i),
                self.left.key,
                self.right.row(j),
                self.right.key,
            ),
        }
    }

    /// A replayable sweep over one aligned pair of sorted-position ranges.
    fn sweep(
        &self,
        l_range: std::ops::Range<usize>,
        r_range: std::ops::Range<usize>,
    ) -> PairSweep<'_, '_> {
        PairSweep {
            keyed: self,
            l_range,
            r_range,
        }
    }

    /// Runs `shard` once per key-range shard under `cfg`. The left side
    /// splits at key-group boundaries and each right range aligns to the
    /// boundary keys by binary search, so every matching pair lands in
    /// exactly one shard; outputs return in ascending key order.
    fn shards<T: Send>(
        &self,
        cfg: &ExecConfig,
        shard: impl Fn(PairSweep<'_, '_>) -> T + Sync,
    ) -> Result<Vec<T>> {
        let (n, m) = (self.left.order.len(), self.right.order.len());
        let tasks = crate::exec::aligned_shard_tasks(
            n,
            m,
            cfg.shards_for(n.min(m)),
            |p| self.left.same(p - 1, p),
            |p| crate::exec::lower_bound_by(m, |q| self.cmp_at(p, q) == Ordering::Greater),
        );
        crate::exec::try_run_tasks(cfg, tasks, |(lr, rr)| shard(self.sweep(lr, rr)))
    }
}

impl<'a, 'k> SortedKeys<'a, 'k> {
    /// Sorts the positions of `rows` by `(key, position)`: by `words`
    /// when given, by slice compares otherwise, skipping the sort when
    /// the keys already ascend.
    fn sort(rows: &'a [(&'a [Value], u64)], key: &'k [usize], words: Option<Vec<u64>>) -> Self {
        let identity = || (0..rows.len() as u32).collect();
        let (order, words) = match words {
            Some(words) if words.windows(2).all(|w| w[0] <= w[1]) => (identity(), Some(words)),
            Some(words) => {
                let mut pairs: Vec<(u64, u32)> = words.into_iter().zip(0..).collect();
                pairs.sort_unstable();
                let (words, order) = pairs.into_iter().unzip();
                (order, Some(words))
            }
            None => {
                let cmp = |a: &[Value], b: &[Value]| cmp_keys(a, key, b, key);
                let mut order: Vec<u32> = identity();
                if rows
                    .windows(2)
                    .any(|w| cmp(w[0].0, w[1].0) == Ordering::Greater)
                {
                    order.sort_unstable_by(|&a, &b| {
                        cmp(rows[a as usize].0, rows[b as usize].0).then_with(|| a.cmp(&b))
                    });
                }
                (order, None)
            }
        };
        SortedKeys {
            rows,
            key,
            order,
            words,
        }
    }

    /// The row at sorted position `p`.
    #[inline]
    fn row(&self, p: usize) -> &[Value] {
        self.rows[self.order[p] as usize].0
    }

    /// True iff sorted positions `p` and `q` hold equal keys.
    #[inline]
    fn same(&self, p: usize, q: usize) -> bool {
        match &self.words {
            Some(w) => w[p] == w[q],
            None => cmp_keys(self.row(p), self.key, self.row(q), self.key) == Ordering::Equal,
        }
    }
}

/// One shard of the matched key space: replays its `(i, j)` pairs in the
/// deterministic order documented on [`merge_matching_pairs`].
pub struct PairSweep<'a, 'k> {
    keyed: &'a KeyedPairs<'a, 'k>,
    l_range: std::ops::Range<usize>,
    r_range: std::ops::Range<usize>,
}

impl PairSweep<'_, '_> {
    /// Invokes `on_pair(i, j)` for every matching pair in this shard,
    /// grouped by ascending key, `i` then `j` ascending within a group.
    pub fn for_each(&self, mut on_pair: impl FnMut(usize, usize)) {
        self.for_each_group(|ls, rs| {
            for &a in ls {
                for &b in rs {
                    on_pair(a as usize, b as usize);
                }
            }
        });
    }

    /// Invokes `on_group(ls, rs)` once per key present on both sides of
    /// this shard, in ascending key order: `ls` and `rs` are the left
    /// and right row indices carrying that key, each ascending.
    ///
    /// On skewed ranges (length ratio ≥ [`crate::exec::GALLOP_RATIO`])
    /// the advancement past unmatched keys gallops: it skips to the next
    /// candidate position by exponential search instead of stepping once.
    /// Nothing is emitted during advancement, so the groups are the same
    /// either way.
    pub fn for_each_group(&self, mut on_group: impl FnMut(&[u32], &[u32])) {
        let k = self.keyed;
        let (l, r) = (&self.l_range, &self.r_range);
        let ratio = crate::exec::GALLOP_RATIO;
        let gallop =
            k.hot && (l.len() >= ratio * r.len().max(1) || r.len() >= ratio * l.len().max(1));
        let (mut i, mut j) = (l.start, r.start);
        while i < l.end && j < r.end {
            match k.cmp_at(i, j) {
                Ordering::Less if gallop => {
                    i = crate::exec::gallop_bound(i, l.end, |p| k.cmp_at(p, j) == Ordering::Less);
                }
                Ordering::Less => i += 1,
                Ordering::Greater if gallop => {
                    j = crate::exec::gallop_bound(j, r.end, |q| {
                        k.cmp_at(i, q) == Ordering::Greater
                    });
                }
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    let mut i_end = i + 1;
                    while i_end < l.end && k.left.same(i, i_end) {
                        i_end += 1;
                    }
                    let mut j_end = j + 1;
                    while j_end < r.end && k.right.same(j, j_end) {
                        j_end += 1;
                    }
                    on_group(&k.left.order[i..i_end], &k.right.order[j..j_end]);
                    i = i_end;
                    j = j_end;
                }
            }
        }
    }
}

/// The multiway relational join `R₁ ⋈ ⋯ ⋈ R_m` (left fold).
///
/// The empty join is the unit relation (empty tuple over `∅`). This is
/// `J = R'₁ ⋈ ⋯ ⋈ R'_m`, the candidate-witness support of Lemma 1 and the
/// variable set of the linear program `P(R₁,…,R_m)` of Section 5.2 —
/// beware that its size can grow exponentially in `m`.
pub fn multi_relation_join(rels: &[&Relation]) -> Relation {
    let mut acc = Relation::unit();
    for r in rels {
        acc = relation_join(&acc, r);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Attr, Deadline};

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    #[test]
    fn bag_join_multiplies_multiplicities() {
        // R(A,B) = {(1,2):2}, S(B,C) = {(2,5):3} -> R⋈ᵇS = {(1,2,5):6}
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 5][..], 3)]).unwrap();
        let j = bag_join(&r, &s).unwrap();
        assert_eq!(j.schema(), &schema(&[0, 1, 2]));
        assert_eq!(j.multiplicity(&[Value(1), Value(2), Value(5)]), 6);
        assert_eq!(j.support_size(), 1);
    }

    #[test]
    fn bag_join_respects_common_attrs() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 2][..], 1), (&[1, 3][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[2u64, 9][..], 1)]).unwrap();
        let j = bag_join(&r, &s).unwrap();
        // only the (1,2) row of r matches B=2
        assert_eq!(j.support_size(), 1);
        assert_eq!(j.multiplicity(&[Value(1), Value(2), Value(9)]), 1);
    }

    #[test]
    fn join_with_disjoint_schemas_is_cartesian_product() {
        let r = Bag::from_u64s(schema(&[0]), [(&[1u64][..], 2), (&[2][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1]), [(&[7u64][..], 3)]).unwrap();
        let j = bag_join(&r, &s).unwrap();
        assert_eq!(j.support_size(), 2);
        assert_eq!(j.multiplicity(&[Value(1), Value(7)]), 6);
        assert_eq!(j.multiplicity(&[Value(2), Value(7)]), 3);
    }

    #[test]
    fn merge_and_hash_paths_agree() {
        // Random-ish structured inputs exercising runs of equal keys.
        let mut r = Bag::new(schema(&[0, 1]));
        let mut s = Bag::new(schema(&[1, 2]));
        for i in 0..40u64 {
            r.insert(vec![Value(i % 7), Value(i % 5)], i % 3 + 1)
                .unwrap();
            s.insert(vec![Value(i % 5), Value(i % 11)], i % 4 + 1)
                .unwrap();
        }
        let merge = bag_join_merge(&r, &s).unwrap();
        let hash = bag_join_hash(&r, &s).unwrap();
        assert_eq!(merge, hash);
        // and for relations
        let rm = relation_join_merge(&r.support(), &s.support());
        let rh = relation_join_hash(&r.support(), &s.support());
        assert_eq!(rm, rh);
        assert_eq!(merge.support(), rm);
    }

    #[test]
    fn merge_path_on_sealed_prefix_operands() {
        // Right operand: key {A1} is a schema prefix of {A1,A2}, so a
        // sealed bag's run is reused without sorting.
        let r = Bag::from_u64s(
            schema(&[0, 1]),
            [(&[1u64, 1][..], 2), (&[2, 1][..], 3), (&[3, 2][..], 5)],
        )
        .unwrap();
        let s = Bag::from_u64s(
            schema(&[1, 2]),
            [(&[1u64, 4][..], 7), (&[1, 5][..], 11), (&[2, 6][..], 13)],
        )
        .unwrap();
        assert!(r.is_sealed() && s.is_sealed());
        let j = bag_join_merge(&r, &s).unwrap();
        assert_eq!(j.multiplicity(&[Value(1), Value(1), Value(4)]), 14);
        assert_eq!(j.multiplicity(&[Value(2), Value(1), Value(5)]), 33);
        assert_eq!(j.multiplicity(&[Value(3), Value(2), Value(6)]), 65);
        assert_eq!(j.support_size(), 5);
    }

    #[test]
    fn hash_dispatch_side_swap_is_observation_invariant() {
        // Asymmetric supports route through the swapped hash dispatch;
        // the join is symmetric, so both orders must agree everywhere.
        let mut small = Bag::new(schema(&[0, 1]));
        small.insert(vec![Value(1), Value(2)], 3).unwrap();
        let mut big = Bag::new(schema(&[1, 2]));
        for i in 0..200u64 {
            big.insert(vec![Value(i % 5), Value(i)], i + 1).unwrap();
        }
        let via_dispatch = bag_join(&small, &big).unwrap();
        let direct = bag_join_hash(&small, &big).unwrap();
        let swapped = bag_join_hash(&big, &small).unwrap();
        assert_eq!(via_dispatch, direct);
        assert_eq!(via_dispatch, swapped);
        assert_eq!(
            relation_join(&small.support(), &big.support()),
            relation_join_hash(&big.support(), &small.support())
        );
    }

    #[test]
    fn strategy_heuristic_thresholds() {
        let un = |n: usize| JoinSide::new(n, false);
        let so = |n: usize| JoinSide::new(n, true);
        // tiny side: always hash, whatever the sortedness
        assert_eq!(
            JoinStrategy::select(un(1), un(1_000_000)),
            JoinStrategy::Hash
        );
        assert_eq!(
            JoinStrategy::select(so(1_000_000), so(1)),
            JoinStrategy::Hash
        );
        assert_eq!(JoinStrategy::select(so(63), so(64)), JoinStrategy::Hash);
        // both sort-free: pure linear sweep, merge wins
        assert_eq!(
            JoinStrategy::select(so(64), so(64)),
            JoinStrategy::SortMerge
        );
        // lopsided sizes: build the small side, probe the large
        assert_eq!(JoinStrategy::select(so(64), un(512)), JoinStrategy::Hash);
        // comparable sizes but a sort required, on either side: hash
        // (committed BENCH_e12.json, support 4096: hash_ms 0.4946 vs
        // merge_ms 0.9144)
        assert_eq!(JoinStrategy::select(un(4096), un(4096)), JoinStrategy::Hash);
        assert_eq!(JoinStrategy::select(so(4096), un(4096)), JoinStrategy::Hash);
        assert_eq!(JoinStrategy::select(un(4096), so(4096)), JoinStrategy::Hash);
        // the small-side rule comes before the sort-free one
        assert_eq!(JoinStrategy::select(so(63), so(63)), JoinStrategy::Hash);
        // ... unless sharding spreads the sweep across threads
        let cfg = ExecConfig {
            threads: 4,
            min_parallel_support: 1024,
            deadline: Deadline::NONE,
        };
        assert_eq!(
            JoinStrategy::select_with(so(4096), un(4096), &cfg),
            JoinStrategy::SortMerge
        );
        // sharding claims nothing when the body would fall back
        assert_eq!(
            JoinStrategy::select_with(so(512), un(512), &cfg),
            JoinStrategy::Hash
        );
    }

    #[test]
    fn packed_merge_join_matches_slice_baseline() {
        // Multi-column keys with repeats and skewed sizes: exercises the
        // shared-spec packing, the tie-broken permutation sort, and the
        // galloped advancement — all of which must reproduce the
        // slice-compare linear baseline byte for byte.
        let mut r = Bag::new(schema(&[0, 1, 2, 3]));
        let mut s = Bag::new(schema(&[1, 2, 3, 4]));
        for i in 0..800u64 {
            r.insert(
                vec![Value(i), Value(i % 7), Value(i % 5), Value(i % 3)],
                i % 9 + 1,
            )
            .unwrap();
        }
        for i in 0..60u64 {
            s.insert(
                vec![Value(i % 7), Value(i % 5), Value(i % 3), Value(i + 1000)],
                i % 4 + 1,
            )
            .unwrap();
        }
        for sealed in [false, true] {
            if sealed {
                r.seal();
                s.seal();
            }
            for threads in [1usize, 2, 4] {
                let cfg = ExecConfig {
                    threads,
                    min_parallel_support: 1,
                    deadline: Deadline::NONE,
                };
                let base = bag_join_merge_baseline_with(&r, &s, &cfg).unwrap();
                let hot = bag_join_merge_with(&r, &s, &cfg).unwrap();
                assert_eq!(hot, base, "sealed = {sealed}, threads = {threads}");
                let base_rows: Vec<&[Value]> = base.iter().map(|(row, _)| row).collect();
                let hot_rows: Vec<&[Value]> = hot.iter().map(|(row, _)| row).collect();
                assert_eq!(
                    hot_rows, base_rows,
                    "sealed = {sealed}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn packed_pair_skips_oversized_keys() {
        // Key values near u64::MAX blow the 64-bit shared-word budget on
        // a 2-column key; the pair must fall back to slice compares and
        // still agree with the baseline.
        let mut r = Bag::new(schema(&[0, 1, 2]));
        let mut s = Bag::new(schema(&[1, 2, 3]));
        for i in 0..200u64 {
            r.insert(
                vec![
                    Value(i),
                    Value(u64::MAX - i % 11),
                    Value(u64::MAX / 2 + i % 5),
                ],
                2,
            )
            .unwrap();
            s.insert(
                vec![
                    Value(u64::MAX - i % 11),
                    Value(u64::MAX / 2 + i % 5),
                    Value(i),
                ],
                3,
            )
            .unwrap();
        }
        r.seal();
        s.seal();
        let cfg = ExecConfig::sequential();
        let base = bag_join_merge_baseline_with(&r, &s, &cfg).unwrap();
        let hot = bag_join_merge_with(&r, &s, &cfg).unwrap();
        assert_eq!(hot, base);
    }

    #[test]
    fn parallel_merge_join_matches_sequential() {
        let mut r = Bag::new(schema(&[0, 1]));
        let mut s = Bag::new(schema(&[1, 2]));
        for i in 0..200u64 {
            r.insert(vec![Value(i % 17), Value(i % 5)], i % 3 + 1)
                .unwrap();
            s.insert(vec![Value(i % 5), Value(i % 13)], i % 4 + 1)
                .unwrap();
        }
        r.seal();
        s.seal();
        let seq = bag_join_merge(&r, &s).unwrap();
        for threads in [2usize, 3, 4, 8] {
            let cfg = ExecConfig {
                threads,
                min_parallel_support: 1,
                deadline: Deadline::NONE,
            };
            let par = bag_join_merge_with(&r, &s, &cfg).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
            // the joined shard outputs keep the one-shard row order exactly
            let seq_rows: Vec<&[Value]> = seq.iter().map(|(row, _)| row).collect();
            let par_rows: Vec<&[Value]> = par.iter().map(|(row, _)| row).collect();
            assert_eq!(par_rows, seq_rows);
        }
    }

    #[test]
    fn parallel_hash_probe_matches_sequential() {
        // Build side small, probe side large and skewed: one giant key
        // chain (key 0) plus many short ones — the shape work stealing
        // is for. The probe side is deliberately left unsealed.
        let mut r = Bag::new(schema(&[0, 1]));
        let mut s = Bag::new(schema(&[1, 2]));
        for i in (0..600u64).rev() {
            let key = if i % 3 == 0 { 0 } else { i % 40 };
            r.insert(vec![Value(i), Value(key)], i % 7 + 1).unwrap();
        }
        for i in 0..40u64 {
            s.insert(vec![Value(i), Value(i + 100)], i % 5 + 1).unwrap();
        }
        let seq = bag_join_hash(&r, &s).unwrap();
        for threads in [2usize, 4, 8] {
            let cfg = ExecConfig {
                threads,
                min_parallel_support: 1,
                deadline: Deadline::NONE,
            };
            let par = bag_join_hash_with(&r, &s, &cfg).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
            // the joined shard outputs keep the one-shard row order exactly
            let seq_rows: Vec<&[Value]> = seq.iter().map(|(row, _)| row).collect();
            let par_rows: Vec<&[Value]> = par.iter().map(|(row, _)| row).collect();
            assert_eq!(par_rows, seq_rows, "emission order, threads = {threads}");
        }
        // the dispatcher with a sharding config agrees too (it may pick
        // either physical strategy)
        let via_dispatch = bag_join_with(
            &r,
            &s,
            &ExecConfig {
                threads: 4,
                min_parallel_support: 1,
                deadline: Deadline::NONE,
            },
        )
        .unwrap();
        assert_eq!(via_dispatch, seq);
    }

    #[test]
    fn parallel_hash_probe_detects_overflow() {
        let mut r = Bag::new(schema(&[0, 1]));
        let mut s = Bag::new(schema(&[1, 2]));
        for i in 0..100u64 {
            r.insert(vec![Value(i), Value(i % 3)], u64::MAX).unwrap();
            s.insert(vec![Value(i % 3), Value(i)], 2).unwrap();
        }
        for threads in [1usize, 4] {
            let cfg = ExecConfig {
                threads,
                min_parallel_support: 1,
                deadline: Deadline::NONE,
            };
            assert_eq!(
                bag_join_hash_with(&r, &s, &cfg),
                Err(CoreError::MultiplicityOverflow),
                "threads = {threads}"
            );
        }
    }

    /// Both join failpoints sit in the one shard body, so they fire at
    /// every thread count; a contained failure leaves nothing behind.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn join_failpoints_fire_at_every_thread_count() {
        use crate::fault::{self, FaultAction};
        let _guard = fault::test_lock();
        // Worker-thread panics are not captured by the test harness;
        // silence the hook so intentional failpoint panics stay quiet.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut r = Bag::new(schema(&[0, 1]));
        let mut s = Bag::new(schema(&[1, 2]));
        for i in 0..200u64 {
            r.insert(vec![Value(i % 17), Value(i % 5)], i % 3 + 1)
                .unwrap();
            s.insert(vec![Value(i % 5), Value(i % 13)], i % 4 + 1)
                .unwrap();
        }
        r.seal();
        s.seal();
        type Join = fn(&Bag, &Bag, &ExecConfig) -> Result<Bag>;
        let joins: [(&str, Join); 2] = [
            ("join::merge::shard", bag_join_merge_with),
            ("join::hash::shard", bag_join_hash_with),
        ];
        let rows = |b: &Bag| {
            b.iter()
                .map(|(row, m)| (row.to_vec(), m))
                .collect::<Vec<_>>()
        };
        for (site, join) in joins {
            for threads in [1usize, 2, 4] {
                let cfg = ExecConfig::builder()
                    .threads(threads)
                    .min_parallel_support(1)
                    .build()
                    .unwrap()
                    .with_deadline(Deadline::after(std::time::Duration::from_secs(3600)));
                let undisturbed = join(&r, &s, &cfg).unwrap();
                for action in [FaultAction::Panic, FaultAction::InjectDeadline] {
                    fault::arm(site, action, 1);
                    let err = join(&r, &s, &cfg).unwrap_err();
                    fault::reset();
                    let expected = match action {
                        FaultAction::Panic => matches!(err, CoreError::WorkerPanicked { .. }),
                        FaultAction::InjectDeadline => matches!(err, CoreError::Aborted(_)),
                    };
                    assert!(expected, "{site} {action:?} threads={threads}: {err}");
                    let retry = join(&r, &s, &cfg).unwrap();
                    assert_eq!(rows(&retry), rows(&undisturbed), "{site} threads={threads}");
                }
            }
        }
        std::panic::set_hook(prev_hook);
    }

    #[test]
    fn sharded_matching_pairs_concatenate_to_sequential() {
        let l_rows: Vec<Vec<Value>> = (0..40u64).map(|i| vec![Value(i % 7), Value(i)]).collect();
        let r_rows: Vec<Vec<Value>> = (0..30u64)
            .map(|i| vec![Value(i % 7), Value(i + 100)])
            .collect();
        let left: Vec<(&[Value], u64)> = l_rows.iter().map(|r| (&r[..], 1)).collect();
        let right: Vec<(&[Value], u64)> = r_rows.iter().map(|r| (&r[..], 1)).collect();
        let mut seq = Vec::new();
        merge_matching_pairs(&left, &[0], &right, &[0], |i, j| seq.push((i, j)));
        for threads in [1usize, 2, 4] {
            let cfg = ExecConfig {
                threads,
                min_parallel_support: 1,
                deadline: Deadline::NONE,
            };
            let per_shard: Vec<Vec<(usize, usize)>> =
                try_merge_matching_pairs_sharded(&left, &[0], &right, &[0], &cfg, |sweep| {
                    let mut pairs = Vec::new();
                    sweep.for_each(|i, j| pairs.push((i, j)));
                    pairs
                })
                .unwrap();
            let flat: Vec<(usize, usize)> = per_shard.into_iter().flatten().collect();
            assert_eq!(flat, seq, "threads = {threads}");
        }
    }

    #[test]
    fn join_support_law() {
        // (R ⋈ᵇ S)' = R' ⋈ S'
        let r = Bag::from_u64s(
            schema(&[0, 1]),
            [(&[1u64, 2][..], 2), (&[2, 2][..], 5), (&[3, 4][..], 1)],
        )
        .unwrap();
        let s = Bag::from_u64s(
            schema(&[1, 2]),
            [(&[2u64, 1][..], 7), (&[2, 2][..], 1), (&[9, 9][..], 3)],
        )
        .unwrap();
        let lhs = bag_join(&r, &s).unwrap().support();
        let rhs = relation_join(&r.support(), &s.support());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn relation_join_identity_with_unit() {
        let r = Relation::from_u64s(schema(&[0, 1]), [&[1u64, 2][..]]).unwrap();
        let j = relation_join(&Relation::unit(), &r);
        assert_eq!(j, r);
        let j2 = relation_join(&r, &Relation::unit());
        assert_eq!(j2, r);
    }

    #[test]
    fn self_join_on_same_schema_is_intersection() {
        let r = Relation::from_u64s(schema(&[0]), [&[1u64][..], &[2][..]]).unwrap();
        let s = Relation::from_u64s(schema(&[0]), [&[2u64][..], &[3][..]]).unwrap();
        let j = relation_join(&r, &s);
        assert_eq!(j.len(), 1);
        assert!(j.contains(&[Value(2)]));
    }

    #[test]
    fn multi_join_triangle() {
        // R(AB)={00,11}, S(BC)={01,10}, T(AC)={00,11}: pairwise consistent
        // relations whose 3-way join is empty (Section 4 example).
        let r = Relation::from_u64s(schema(&[0, 1]), [&[0u64, 0][..], &[1, 1][..]]).unwrap();
        let s = Relation::from_u64s(schema(&[1, 2]), [&[0u64, 1][..], &[1, 0][..]]).unwrap();
        let t = Relation::from_u64s(schema(&[0, 2]), [&[0u64, 0][..], &[1, 1][..]]).unwrap();
        let j = multi_relation_join(&[&r, &s, &t]);
        assert!(j.is_empty());
        // but R ⋈ S alone is not empty
        let rs = relation_join(&r, &s);
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn bag_join_associates() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 1][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[1u64, 1][..], 3)]).unwrap();
        let t = Bag::from_u64s(schema(&[2, 3]), [(&[1u64, 1][..], 5)]).unwrap();
        let left = bag_join(&bag_join(&r, &s).unwrap(), &t).unwrap();
        let right = bag_join(&r, &bag_join(&s, &t).unwrap()).unwrap();
        assert_eq!(left, right);
        assert_eq!(left.multiplicity(&[Value(1); 4]), 30);
    }

    #[test]
    fn overflow_in_join_detected() {
        let r = Bag::from_u64s(schema(&[0]), [(&[1u64][..], u64::MAX)]).unwrap();
        let s = Bag::from_u64s(schema(&[1]), [(&[1u64][..], 2)]).unwrap();
        assert_eq!(bag_join(&r, &s), Err(CoreError::MultiplicityOverflow));
        assert_eq!(bag_join_merge(&r, &s), Err(CoreError::MultiplicityOverflow));
    }

    #[test]
    fn plan_exposes_schemas() {
        let plan = JoinPlan::new(&schema(&[0, 1]), &schema(&[1, 2]));
        assert_eq!(plan.output_schema(), &schema(&[0, 1, 2]));
        assert_eq!(plan.common_schema(), &schema(&[1]));
    }
}
