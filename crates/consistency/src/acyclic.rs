//! Witness construction over acyclic schemas (Theorem 2 Step 1, Theorem 6).
//!
//! Given an acyclic hypergraph, the paper builds a global witness by
//! induction along a **running intersection ordering** `X₁,…,X_m`:
//! `T₁ = R₁`, and `T_i` witnesses the consistency of `T_{i-1}` and `R_i`
//! (Lemma 2 guarantees one, because `X_i ∩ (X₁∪⋯∪X_{i-1}) ⊆ X_p` for an
//! earlier `p`, the step's parent in the join tree). Theorem 6 asks for a
//! **minimal** two-bag witness at every step (Corollary 4). Each step
//! here is the northwest-corner group fill of [`crate::pairwise`], which
//! is inclusion-minimal with support at most
//! `‖T_{i-1}‖supp + ‖R_i‖supp − #groups`, so the chain meets Theorem 6's
//! bound `‖T‖supp ≤ Σ ‖R_i‖supp` without any max-flow.
//!
//! **Saturation certifies consistency.** With `U = X₁∪⋯∪X_{i-1}` and
//! `Z_i = X_i ∩ U`, step `i` saturates iff `T_{i-1}[Z_i] = R_i[Z_i]`,
//! and `T_{i-1}[Z_i] = R_p[Z_i]` because `T_{i-1}[X_p] = R_p`. Since
//! `Z_i = X_i ∩ X_p`, that is Lemma 2's test of the pair `(p, i)`. The
//! parent pairs form a join tree, and every node on the tree path
//! between two bags contains their shared attributes, so when every
//! step saturates and bags of equal schemas are equal, the collection
//! is pairwise consistent, hence globally consistent (Theorem 2), and
//! `T_m` is the witness. A step that does not saturate names an
//! inconsistent pair, so [`crate::session::Session::witness`] runs the
//! chain first and the pairwise screen only to report the
//! lexicographically first inconsistent pair.
//!
//! **Over row ids.** `T_i[X_k] = R_k` for every bag `k` already in the
//! chain, so each row of `T_i` projects onto one row of each such bag.
//! The chain keeps `T` as one column of sorted row positions per chain
//! bag plus a multiplicity column, with the rows in `T`'s sorted value
//! order. Step `i`:
//!
//! 1. ranks the `Z_i` keys over `R_p` and `R_i` with the keyed sweep of
//!    [`bagcons_core::join`], at input size rather than `|T|`;
//! 2. fills every group northwest in one walk over the rows of the
//!    major side, in order, keeping one cursor per group, so the
//!    cells come out in the next `T`'s sorted order with no sort. When
//!    the attributes interleave, the cells are sorted by the values,
//!    read through the columns. The fill saturates iff every key is on
//!    both sides and every group's two sides carry equal mass;
//! 3. gathers the next `T`'s columns from the cells.
//!
//! The values are written once, after the last step, into one arena
//! that [`Bag::from_arena`] adopts; its strictness certificate checks
//! that the rows ascend. Every step sees `T`'s rows in sorted order, and
//! each group's rows in the order a fold of two-bag fills over
//! materialized bags would see them, so the witness is that fold's bag,
//! at every thread count.

use bagcons_core::join::try_merge_matching_pairs_sharded;
use bagcons_core::{Bag, CoreError, ExecConfig, FxHashMap, Result, Schema, Value};
use bagcons_hypergraph::{Hypergraph, JoinTree};
use std::cmp::Ordering;
use std::fmt;

/// Why the acyclic construction could not run or produce a witness.
#[derive(Debug)]
pub enum AcyclicError {
    /// The schemas do not form an acyclic hypergraph — use
    /// [`crate::session::Session::check`] instead.
    NotAcyclic(Hypergraph),
    /// Bags at these indices are inconsistent (hence no global witness).
    InconsistentPair(usize, usize),
    /// An underlying core operation failed.
    Core(CoreError),
}

impl fmt::Display for AcyclicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcyclicError::NotAcyclic(h) => write!(f, "schema hypergraph is cyclic: {h}"),
            AcyclicError::InconsistentPair(i, j) => {
                write!(f, "bags {i} and {j} are not consistent")
            }
            AcyclicError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AcyclicError {}

impl From<CoreError> for AcyclicError {
    fn from(e: CoreError) -> Self {
        AcyclicError::Core(e)
    }
}

/// Strategy for the per-step two-bag witness.
///
/// There is one: the group fill is both a saturated flow and a minimal
/// witness, so Theorem 3's and Theorem 6's bounds both hold. The enum
/// stays so that [`crate::session::Session::acyclic_global_witness`]
/// keeps its signature for existing callers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WitnessStrategy {
    /// The one-pass group fill at every step of the chain.
    #[default]
    Saturated,
}

/// Theorem 6's chain over the bags in join-tree order. It needs no
/// pairwise screen first: a step that does not saturate, or two bags
/// of one schema that differ, come back as
/// [`AcyclicError::InconsistentPair`] with that pair's input indices,
/// which need not be the lexicographically first inconsistent pair.
pub(crate) fn witness_chain(
    bags: &[&Bag],
    exec: &ExecConfig,
) -> std::result::Result<Bag, AcyclicError> {
    // 1. One bag per schema, the first given. Bags of one schema are
    //    consistent iff equal (Lemma 2 with `Z = X`).
    let mut first: FxHashMap<&Schema, usize> = FxHashMap::default();
    for (j, bag) in bags.iter().enumerate() {
        let i = *first.entry(bag.schema()).or_insert(j);
        if i != j && bags[i] != *bag {
            return Err(AcyclicError::InconsistentPair(i, j));
        }
    }
    // 2. Running-intersection listing: the join tree's BFS order
    //    (Theorem 6's "rooted join-tree sorted in topological order"),
    //    each step keyed through its tree parent.
    let h = Hypergraph::from_edges(first.keys().map(|&x| x.clone()));
    let Some(tree) = JoinTree::build(&h) else {
        return Err(AcyclicError::NotAcyclic(h));
    };
    let order = tree.bfs_order();
    let mut at = vec![0; order.len()];
    for (pos, &node) in order.iter().enumerate() {
        at[node] = pos;
    }
    let mut listed: Vec<usize> = order.iter().map(|&n| first[&tree.nodes()[n]]).collect();
    let mut parents: Vec<usize> = order
        .iter()
        .skip(1)
        .map(|&n| tree.parent(n).map_or(0, |p| at[p]))
        .collect();
    // The hypergraph drops the empty schema; its bag goes last, where
    // the step on `Z = ∅` compares totals and adds no attribute.
    if let Some(&j) = first.get(&Schema::empty()) {
        if !listed.is_empty() {
            parents.push(0);
        }
        listed.push(j);
    }
    if listed.is_empty() {
        return Ok(Bag::new(Schema::empty()));
    }
    // 3. The chain; a failing step names the pair it tested.
    let chain: Vec<&Bag> = listed.iter().map(|&j| bags[j]).collect();
    match fill_chain(&chain, &parents, exec)? {
        Ok((schema, data, mults)) => Ok(Bag::from_arena(schema, data, mults, exec)?),
        Err(step) => {
            let (a, b) = (listed[parents[step - 1]], listed[step]);
            Err(AcyclicError::InconsistentPair(a.min(b), a.max(b)))
        }
    }
}

/// Theorem 6's chain over `bags` as listed: `bags[i]` (`i ≥ 1`) meets
/// the union of the schemas before it inside the schema of its parent
/// `bags[parents[i - 1]]`. Returns the witness as the arena that
/// [`Bag::from_arena`] adopts, or `Err(i)` for the first step that does
/// not saturate: `bags[i]` and its parent differ on their shared
/// attributes. On `[r, s]` with parent `0` this is Corollary 1's
/// two-bag fill.
pub(crate) fn fill_chain(
    bags: &[&Bag],
    parents: &[usize],
    cfg: &ExecConfig,
) -> Result<std::result::Result<Arena, usize>> {
    let Some((first, rest)) = bags.split_first() else {
        return Ok(Ok((Schema::empty(), Vec::new(), Vec::new())));
    };
    let mut t = IdChain::start(first);
    for (i, (&bag, &p)) in rest.iter().zip(parents).enumerate() {
        if !t.step(bag, p, cfg)? {
            return Ok(Err(i + 1));
        }
    }
    Ok(Ok(t.materialize()))
}

/// A witness before [`Bag::from_arena`] adopts it: its schema, its
/// row-major arena and its multiplicity column.
pub(crate) type Arena = (Schema, Vec<Value>, Vec<u64>);

/// One row of a bag by sorted position.
type SortedRow<'a> = (&'a [Value], u64);

/// `T` as row ids: `T[X_k] = R_k` for every chain bag `k`, so a row of
/// `T` is one sorted position per chain bag and a multiplicity.
struct IdChain<'a> {
    /// Each chain bag's schema.
    schemas: Vec<&'a Schema>,
    /// Each chain bag's rows by sorted position.
    rows: Vec<Vec<SortedRow<'a>>>,
    /// `T`'s schema, the union of the chain bags' schemas.
    schema: Schema,
    /// `ids[k][t]`: the position in bag `k` of `T`'s row `t` on `X_k`.
    /// `T`'s rows are in `T`'s sorted value order.
    ids: Vec<Vec<u32>>,
    /// `T`'s multiplicities, parallel to the columns.
    mults: Vec<u64>,
}

impl<'a> IdChain<'a> {
    /// `T₁ = R₁`.
    fn start(bag: &'a Bag) -> Self {
        let rows = bag.sorted_rows();
        IdChain {
            schemas: vec![bag.schema()],
            ids: vec![(0..rows.len() as u32).collect()],
            mults: rows.iter().map(|r| r.1).collect(),
            rows: vec![rows],
            schema: bag.schema().clone(),
        }
    }

    /// Replaces `T` with the group fill of `T` and `s`, keyed through
    /// chain bag `p`; `false`, with `T` unchanged, when the fill does not
    /// saturate.
    fn step(&mut self, s: &'a Bag, p: usize, cfg: &ExecConfig) -> Result<bool> {
        let z = s.schema().intersection(&self.schema);
        let s_rows = s.sorted_rows();
        let ranked = Ranked::sweep(
            &self.rows[p],
            &self.schemas[p].projection_indices(&z)?,
            &s_rows,
            &s.schema().projection_indices(&z)?,
            cfg,
        )?;
        let Some(ranked) = ranked else {
            return Ok(false);
        };
        let major = Major::of(&self.schema, s.schema());
        let cells = if major == Some(Major::S) {
            // `T`'s rows of each group, in `T`'s order: one stable
            // counting pass over the groups of their rows in bag `p`.
            let of_t: Vec<u32> = self.ids[p]
                .iter()
                .map(|&id| ranked.of_parent[id as usize])
                .collect();
            let (t_rows, t_starts) = group_rows(&of_t, ranked.starts.len() - 1);
            let of_s = ranked.of_rows();
            let s_major = s_rows.iter().zip(&of_s).map(|(r, &g)| (r.1, g));
            northwest_by(s_major, &t_rows, &t_starts, |t| self.mults[t as usize])
                .map(|(s, t, q)| Cells { t, s, q })
        } else {
            let t_major = self.ids[p]
                .iter()
                .zip(&self.mults)
                .map(|(&id, &m)| (m, ranked.of_parent[id as usize]));
            northwest_by(t_major, &ranked.rows, &ranked.starts, |j| {
                s_rows[j as usize].1
            })
            .map(|(t, s, q)| Cells { t, s, q })
        };
        let Some(cells) = cells else {
            return Ok(false);
        };
        self.adopt(s, s_rows, cells);
        if major.is_none() {
            self.sort_rows();
        }
        Ok(true)
    }

    /// The next `T`, gathered from the cells: each chain bag's column
    /// through the cells' `T` rows; `s`'s column and the multiplicities
    /// are the cells' own columns.
    fn adopt(&mut self, s: &'a Bag, s_rows: Vec<SortedRow<'a>>, cells: Cells) {
        for col in &mut self.ids {
            *col = cells.t.iter().map(|&t| col[t as usize]).collect();
        }
        self.ids.push(cells.s);
        self.mults = cells.q;
        self.schemas.push(s.schema());
        self.rows.push(s_rows);
        self.schema = self.schema.union(s.schema());
    }

    /// Where each attribute of `T`'s schema is read: the first chain bag
    /// holding it, and its column there.
    fn sources(&self) -> Vec<(usize, usize)> {
        self.schema
            .iter()
            .map(|a| {
                self.schemas
                    .iter()
                    .enumerate()
                    .find_map(|(k, x)| x.position(a).map(|c| (k, c)))
                    .expect("every attribute of T comes from a chain bag")
            })
            .collect()
    }

    /// The value of `T`'s row `t` at a source.
    #[inline]
    fn value(&self, (k, c): (usize, usize), t: u32) -> Value {
        self.rows[k][self.ids[k][t as usize] as usize].0[c]
    }

    /// Puts `T`'s rows in sorted value order, reading the values through
    /// the columns: the order after a step whose attributes interleave.
    fn sort_rows(&mut self) {
        let sources = self.sources();
        let mut order: Vec<u32> = (0..self.mults.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            sources
                .iter()
                .map(|&src| self.value(src, a).cmp(&self.value(src, b)))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
        for col in &mut self.ids {
            *col = order.iter().map(|&t| col[t as usize]).collect();
        }
        self.mults = order.iter().map(|&t| self.mults[t as usize]).collect();
    }

    /// `T`'s values written once, row-major in `T`'s order, one chain
    /// bag at a time, so each pass reads one bag's rows.
    fn materialize(self) -> Arena {
        let sources = self.sources();
        let width = sources.len();
        let mut data = vec![Value(0); self.mults.len() * width];
        for (k, (ids, rows)) in self.ids.iter().zip(&self.rows).enumerate() {
            let cols: Vec<(usize, usize)> = (0..width)
                .filter(|&a| sources[a].0 == k)
                .map(|a| (a, sources[a].1))
                .collect();
            if cols.is_empty() {
                continue;
            }
            for (out, &id) in data.chunks_exact_mut(width).zip(ids) {
                let row = rows[id as usize].0;
                for &(a, c) in &cols {
                    out[a] = row[c];
                }
            }
        }
        (self.schema, data, self.mults)
    }
}

/// The key groups of one step, `Z` ranked over the parent's rows and the
/// new bag's rows by the keyed sweep, in ascending key order.
struct Ranked {
    /// The group of each parent row.
    of_parent: Vec<u32>,
    /// The new bag's rows, group after group, ascending within a group.
    rows: Vec<u32>,
    /// Group `g` holds `rows[starts[g]..starts[g + 1]]`.
    starts: Vec<u32>,
}

/// The groups one shard of the sweep found: both sides' rows, group
/// after group, and each group's end in `parent` and in `rows`.
struct ShardGroups {
    parent: Vec<u32>,
    rows: Vec<u32>,
    ends: Vec<(u32, u32)>,
}

impl Ranked {
    /// Ranks the keys both sides hold; `None` when a row of either side
    /// has a key the other side lacks, so the two marginals on `Z`
    /// differ.
    fn sweep(
        parent: &[SortedRow<'_>],
        z_of_parent: &[usize],
        rows: &[SortedRow<'_>],
        z_of_rows: &[usize],
        cfg: &ExecConfig,
    ) -> Result<Option<Ranked>> {
        // Each shard's share of the rows, as a capacity hint: the sweep
        // splits the smaller side into about this many shards.
        let shards = cfg.shards_for(parent.len().min(rows.len()));
        let share = |n: usize| n.div_ceil(shards);
        let shards =
            try_merge_matching_pairs_sharded(parent, z_of_parent, rows, z_of_rows, cfg, |sweep| {
                bagcons_core::fault::fire("witness::fill");
                if let Some(reason) = cfg.deadline().poll() {
                    return Err(CoreError::Aborted(reason));
                }
                let mut out = ShardGroups {
                    parent: Vec::with_capacity(share(parent.len())),
                    rows: Vec::with_capacity(share(rows.len())),
                    ends: Vec::with_capacity(share(parent.len().min(rows.len()))),
                };
                sweep.for_each_group(|ls, rs| {
                    out.parent.extend_from_slice(ls);
                    out.rows.extend_from_slice(rs);
                    out.ends
                        .push((out.parent.len() as u32, out.rows.len() as u32));
                });
                Ok(out)
            })?;
        let mut ranked = Ranked {
            of_parent: vec![u32::MAX; parent.len()],
            rows: Vec::with_capacity(rows.len()),
            starts: vec![0],
        };
        let mut matched = 0;
        for shard in shards {
            let shard = shard?;
            let base = ranked.rows.len() as u32;
            let mut from = 0;
            for &(p_end, r_end) in &shard.ends {
                let g = ranked.starts.len() as u32 - 1;
                for &i in &shard.parent[from..p_end as usize] {
                    ranked.of_parent[i as usize] = g;
                }
                from = p_end as usize;
                ranked.starts.push(base + r_end);
            }
            matched += shard.parent.len();
            ranked.rows.extend_from_slice(&shard.rows);
        }
        Ok((matched == parent.len() && ranked.rows.len() == rows.len()).then_some(ranked))
    }

    /// The group of each of the new bag's rows.
    fn of_rows(&self) -> Vec<u32> {
        let mut of = vec![0; self.rows.len()];
        for (g, span) in self.starts.windows(2).enumerate() {
            for &j in &self.rows[span[0] as usize..span[1] as usize] {
                of[j as usize] = g as u32;
            }
        }
        of
    }
}

/// The cells of a step's group fill, one column each: the `T` row, the
/// new bag's row, and the multiplicity `q` sent between them.
struct Cells {
    t: Vec<u32>,
    s: Vec<u32>,
    q: Vec<u64>,
}

/// The northwest-corner rule on every key group at once, walked in the
/// order of one side's rows, the *major* side. `major` gives each major
/// row's mass and group; group `g`'s minor rows are
/// `minor[starts[g]..starts[g + 1]]`. Within a group, send
/// `q = min(left, right)` from the current major row to the current
/// minor row, then advance whichever side is used up. Each group keeps
/// its own cursor, so the groups may interleave and each still gets its
/// own fill. The cells come out as `(major row, minor row, q)` columns,
/// by major row, each major row's run in staircase order, and every `q`
/// is positive. `None` when some group's two sides carry different
/// masses: then no flow saturates.
fn northwest_by(
    major: impl ExactSizeIterator<Item = (u64, u32)>,
    minor: &[u32],
    starts: &[u32],
    minor_mult: impl Fn(u32) -> u64,
) -> Option<(Vec<u32>, Vec<u32>, Vec<u64>)> {
    // Each group's current minor row, as an index into `minor`, and the
    // mass that row has left to receive.
    let mut at: Vec<(u32, u64)> = starts[..starts.len() - 1]
        .iter()
        .map(|&st| (st, minor.get(st as usize).map_or(0, |&j| minor_mult(j))))
        .collect();
    // A group's staircase has at most one cell fewer than its rows.
    let cap = (major.len() + minor.len()).saturating_sub(at.len());
    let (mut rows, mut partners, mut qs) = (
        Vec::with_capacity(cap),
        Vec::with_capacity(cap),
        Vec::with_capacity(cap),
    );
    for (i, (mut left, g)) in major.enumerate() {
        let end = starts[g as usize + 1];
        let (pos, right) = &mut at[g as usize];
        while left > 0 {
            if *pos == end {
                return None;
            }
            let q = left.min(*right);
            rows.push(i as u32);
            partners.push(minor[*pos as usize]);
            qs.push(q);
            left -= q;
            *right -= q;
            if *right == 0 {
                *pos += 1;
                if *pos < end {
                    *right = minor_mult(minor[*pos as usize]);
                }
            }
        }
    }
    // Every group's minor rows must be used up too.
    at.iter()
        .zip(&starts[1..])
        .all(|(&(pos, _), &end)| pos == end)
        .then_some((rows, partners, qs))
}

/// The rows `0..of.len()` grouped by `of[row]`, a group below `groups`,
/// with each group's start: one stable counting pass, so each group
/// keeps the rows' order.
fn group_rows(of: &[u32], groups: usize) -> (Vec<u32>, Vec<u32>) {
    let mut starts = vec![0u32; groups + 1];
    for &g in of {
        starts[g as usize + 1] += 1;
    }
    for g in 1..=groups {
        starts[g] += starts[g - 1];
    }
    let mut next = starts.clone();
    let mut rows = vec![0u32; of.len()];
    for (row, &g) in of.iter().enumerate() {
        let at = &mut next[g as usize];
        rows[*at as usize] = row as u32;
        *at += 1;
    }
    (rows, starts)
}

/// The side whose sorted row order is a step's output order.
///
/// The staircase gives each left row, and each right row, one
/// contiguous run of cells, with the other side's rows ascending along
/// it. When every attribute of `Y∖X` exceeds every attribute of `X`, an
/// `XY` row is its `X` part followed by its `Y∖X` part, so listing the
/// cells by left row lists the rows in ascending order: the left rows
/// ascend on `X`, and the right rows of one left row share its key, so
/// they ascend on `Y∖Z = Y∖X`. `S` is the mirror image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Major {
    /// Every attribute of `Y∖X` exceeds every attribute of `X`.
    R,
    /// Every attribute of `X∖Y` exceeds every attribute of `Y`.
    S,
}

impl Major {
    /// Reads the major side off the two schemas alone, preferring `R`
    /// when both hold (which needs one schema to contain the other);
    /// `None` when the attributes interleave.
    pub(crate) fn of(x: &Schema, y: &Schema) -> Option<Major> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use bagcons_core::Attr;

    fn chain(bags: &[&Bag]) -> std::result::Result<Bag, AcyclicError> {
        Session::default().acyclic_global_witness(bags, WitnessStrategy::Saturated)
    }

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    /// Pairwise-consistent bags along the path A0–A1–A2–A3.
    fn path_bags() -> Vec<Bag> {
        let r1 = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 2), (&[1, 1][..], 2)]).unwrap();
        let r2 = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 0][..], 2), (&[1, 1][..], 2)]).unwrap();
        let r3 = Bag::from_u64s(schema(&[2, 3]), [(&[0u64, 7][..], 2), (&[1, 8][..], 2)]).unwrap();
        vec![r1, r2, r3]
    }

    #[test]
    fn builds_witness_on_path_schema() {
        let bags = path_bags();
        let refs: Vec<&Bag> = bags.iter().collect();
        let t = chain(&refs).unwrap();
        assert!(Session::default().is_global_witness(&t, &refs).unwrap());
    }

    #[test]
    fn theorem6_support_bound() {
        let bags = path_bags();
        let refs: Vec<&Bag> = bags.iter().collect();
        let t = chain(&refs).unwrap();
        let bound: usize = refs.iter().map(|b| b.support_size()).sum();
        assert!(t.support_size() <= bound, "‖T‖supp ≤ Σ ‖R_i‖supp");
    }

    #[test]
    fn theorem3_multiplicity_bound_holds_too() {
        let bags = path_bags();
        let refs: Vec<&Bag> = bags.iter().collect();
        let t = chain(&refs).unwrap();
        let max_mu = refs.iter().map(|b| b.multiplicity_bound()).max().unwrap();
        assert!(t.multiplicity_bound() <= max_mu);
    }

    #[test]
    fn rejects_cyclic_schema() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 0][..], 1)]).unwrap();
        let t = Bag::from_u64s(schema(&[0, 2]), [(&[0u64, 0][..], 1)]).unwrap();
        match chain(&[&r, &s, &t]) {
            Err(AcyclicError::NotAcyclic(_)) => {}
            other => panic!("expected NotAcyclic, got {other:?}"),
        }
    }

    #[test]
    fn rejects_inconsistent_pair() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 0][..], 2)]).unwrap();
        match chain(&[&r, &s]) {
            Err(AcyclicError::InconsistentPair(0, 1)) => {}
            other => panic!("expected InconsistentPair, got {other:?}"),
        }
    }

    /// The chain needs no screen: its failing step names the pair it
    /// tested, which the session then replaces by the screen's first one.
    #[test]
    fn failing_step_names_its_pair() {
        let r = Bag::from_u64s(schema(&[2, 3]), [(&[0u64, 0][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 0][..], 3)]).unwrap();
        let t = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 2)]).unwrap();
        // The chain runs {0,1}, {1,2}, {2,3}: its first step fails on (1, 2).
        match witness_chain(&[&r, &s, &t], &ExecConfig::sequential()) {
            Err(AcyclicError::InconsistentPair(1, 2)) => {}
            other => panic!("expected InconsistentPair(1, 2), got {other:?}"),
        }
        match chain(&[&r, &s, &t]) {
            Err(AcyclicError::InconsistentPair(0, 1)) => {}
            other => panic!("expected InconsistentPair(0, 1), got {other:?}"),
        }
    }

    #[test]
    fn equal_schema_bags_must_be_equal() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 1)]).unwrap();
        let r2 = Bag::from_u64s(schema(&[0, 1]), [(&[1u64, 0][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 5][..], 1)]).unwrap();
        match witness_chain(&[&s, &r, &r2], &ExecConfig::sequential()) {
            Err(AcyclicError::InconsistentPair(1, 2)) => {}
            other => panic!("expected InconsistentPair(1, 2), got {other:?}"),
        }
    }

    #[test]
    fn duplicate_schemas_are_merged() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 5][..], 1)]).unwrap();
        let t = chain(&[&r, &r.clone(), &s]).unwrap();
        assert!(Session::default().is_global_witness(&t, &[&r, &s]).unwrap());
    }

    #[test]
    fn star_schema_with_shared_center() {
        // star: {0,1}, {0,2}, {0,3}; center A0 must marginalize identically
        let r1 = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 1][..], 1), (&[1, 1][..], 3)]).unwrap();
        let r2 = Bag::from_u64s(schema(&[0, 2]), [(&[0u64, 4][..], 1), (&[1, 5][..], 3)]).unwrap();
        let r3 = Bag::from_u64s(
            schema(&[0, 3]),
            [(&[0u64, 9][..], 1), (&[1, 9][..], 2), (&[1, 8][..], 1)],
        )
        .unwrap();
        let refs = [&r1, &r2, &r3];
        let t = chain(&refs).unwrap();
        assert!(Session::default().is_global_witness(&t, &refs).unwrap());
    }

    #[test]
    fn single_bag_is_its_own_witness() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 5)]).unwrap();
        let t = chain(&[&r]).unwrap();
        assert_eq!(t, r);
    }

    #[test]
    fn empty_schema_bags_are_their_own_witness() {
        let r = Bag::from_u64s(Schema::empty(), [(&[][..], 3)]).unwrap();
        assert_eq!(chain(&[&r]).unwrap(), r);
        assert_eq!(chain(&[&r, &r.clone()]).unwrap(), r);
        let none = Bag::new(Schema::empty());
        assert_eq!(chain(&[&none]).unwrap(), none);
    }

    #[test]
    fn empty_collection() {
        let t = chain(&[]).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn covered_schema_bags() {
        // {0,1,2} covers {1,2}: acyclic; smaller bag must equal marginal
        let big = Bag::from_u64s(
            schema(&[0, 1, 2]),
            [(&[0u64, 1, 1][..], 2), (&[1, 1, 2][..], 3)],
        )
        .unwrap();
        let small = big.marginal(&schema(&[1, 2])).unwrap();
        let t = chain(&[&big, &small]).unwrap();
        assert!(Session::default()
            .is_global_witness(&t, &[&big, &small])
            .unwrap());
        assert_eq!(t, big);
    }
}
