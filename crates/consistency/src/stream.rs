//! Incremental consistency over a stream of multiplicity deltas.
//!
//! [`Session::open_stream`] turns a collection of bags into a
//! [`ConsistencyStream`]: a stateful checker that answers the global
//! consistency question after every [`ConsistencyStream::update`] at a
//! cost proportional to the **delta**, not the database.
//!
//! The stream decides pairs by Lemma 2: `R(X)` and `S(Y)` are consistent
//! iff `R[Z] = S[Z]` on `Z = X ∩ Y`. Per bag pair it keeps the crate's
//! one pair test (`pairwise::PairState`: the keyed marginal difference
//! `D(k) = R[Z](k) − S[Z](k)` as an `i128` per shared-attribute key, and
//! the number of keys where `D` is nonzero) alive across updates; the
//! pair is consistent iff that count is 0. Disjoint schemas are the
//! `Z = ∅` case: one arity-0 key whose difference is `‖R‖u − ‖S‖u`.
//! Opening a stream accumulates each side's rows straight into the
//! differences (a disjoint pair takes the two totals, with no row loop),
//! and an update:
//!
//! * applies the [`DeltaSet`] to the target bag through
//!   [`Bag::apply_delta_with`] — in-place multiplicity patches when the
//!   support is untouched, an incremental prefix/tail merge otherwise;
//! * adds each edit's `±delta` to one key of every pair the edited bag
//!   participates in — support-preserving and support-changing edits
//!   take the same path, and this step cannot fail;
//! * leaves every pair not sharing the edited bag untouched.
//!
//! Past the pairs the stream decides as [`Session::check`] does, and
//! [`ConsistencyStream::witness`] builds on demand as [`Session::witness`]
//! does.
//!
//! # Shared generations (copy-on-write)
//!
//! The stream holds its bags as `Arc<Bag>`. [`Session::open_stream_shared`]
//! opens a stream directly over a shared, sealed *generation* of bags —
//! many readers (the serving daemon's sessions) can pin the same
//! generation with zero copying, because sealed [`Bag`] state is
//! immutable. The first delta a writer applies to a shared bag
//! copy-on-writes just that bag (`Arc::make_mut`); the other bags, and
//! every concurrent reader's view, stay physically shared.
//! [`ConsistencyStream::share_bags`] hands the current (sealed) bags
//! back out as a new shareable generation.
//!
//! The pair states are shared the same way. By Lemma 2 a pair's state
//! depends only on its two bags, so a decided stream is the decision of
//! its bags, whoever opened it. Cloning a stream *forks* it: the clone
//! shares every bag, every pair state and the cached witness by `Arc`,
//! and copies only scalars and the configuration, so a fork costs
//! O(bags + pairs) where an open costs O(rows). An update through
//! either side copies only the bags and pair states it touches
//! (`Arc::make_mut`); the other side never sees it. The serving daemon
//! keeps one decided stream per published generation and forks it for
//! every session that opens or syncs to that generation.
//!
//! # Batched updates
//!
//! [`ConsistencyStream::update_batch`] applies a burst of deltas and
//! re-decides **once**. The batch is atomic: if any delta fails to
//! apply, the already-applied prefix is rolled back with negated deltas
//! and the stream state is exactly as before.
//!
//! # Decision invariants
//!
//! * On an **acyclic** schema the pairwise decisions *are* the global
//!   decision (Theorem 2), so updates never re-run a global procedure.
//!   On a **cyclic** schema pairwise consistency does not decide global
//!   consistency: each update that leaves every pair consistent falls
//!   back to the exact integer search — the stream then only saves the
//!   pairwise recheck, and [`UpdateOutcome::full_search`] reports the
//!   fallback.
//! * A failed update (overflow/underflow/schema mismatch) is atomic:
//!   bags, pair differences, and decision are left exactly as before.
//!
//! # Governance and fault containment
//!
//! Each update arms a fresh per-operation [`bagcons_core::Deadline`]
//! from the opening session's time budget
//! ([`crate::session::SessionBuilder::deadline`]; adjustable per stream
//! via [`ConsistencyStream::set_time_budget`]). The apply stage honours
//! it (an abort there rolls the batch back). Once the delta is applied
//! the pair differences are updated unconditionally, then the deadline
//! is polled once: an expiry at that point reports
//! [`Decision::Unknown`] with [`UpdateOutcome::abort_reason`] set, and
//! the next update re-decides from the (exact) pair state. A worker
//! panic while applying (surfaced as
//! [`bagcons_core::CoreError::WorkerPanicked`]) rolls the batch back and
//! propagates as an error; the stream stays usable. If a rollback itself
//! fails, the stream is poisoned: its decision is unknown until the next
//! update recomputes every pair from the bags. The cyclic branch's exact
//! search carries its own abort reason: a node budget exhausted
//! mid-search reports [`bagcons_core::AbortReason::NodeBudget`] through
//! the outcome's text and JSON.

use crate::global::schema_hypergraph;
use crate::pairwise::{project, PairState};
use crate::report::{Json, Render};
use crate::session::{
    arm_configs, chain_first, json_stages, push_stage, settle, Branch, Decision, Session,
    SessionError, StageTiming,
};
use bagcons_core::{
    AbortReason, AttrNames, Bag, CoreError, Deadline, DeltaApply, DeltaSet, ExecConfig,
};
use bagcons_hypergraph::is_acyclic;
use bagcons_lp::ilp::SolverConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A stateful incremental checker over a fixed collection of bags; see
/// the [module docs](self) and [`Session::open_stream`].
///
/// The stream owns a copy of the opening session's governance
/// configuration (exec, solver, per-operation time budget), so it has
/// no borrow of the session and can be moved across threads or stored
/// in long-lived connection state. A clone is a fork that shares the
/// bags and pair states copy-on-write (see the [module docs](self)):
/// every field it copies is an `Arc` or a scalar.
#[derive(Clone)]
pub struct ConsistencyStream {
    exec: ExecConfig,
    solver: SolverConfig,
    time_budget: Option<Duration>,
    /// The bags, shared copy-on-write: sealed state is immutable, so
    /// readers of the same generation alias these allocations until a
    /// delta forces a private clone of the touched bag.
    bags: Vec<Arc<Bag>>,
    acyclic: bool,
    /// All pairs `i < j`, in lexicographic order (so the first
    /// inconsistent pair matches the full rebuild's reporting), shared
    /// copy-on-write with every fork of this stream.
    pairs: Vec<Arc<PairState>>,
    /// Set when a failed batch could not be rolled back: the pair
    /// differences may not match the bags, so the next update recomputes
    /// every pair from the bags before deciding.
    poisoned: bool,
    decision: Decision,
    inconsistent_pair: Option<(usize, usize)>,
    search_nodes: u64,
    /// Why the current decision is [`Decision::Unknown`], when it is.
    abort_reason: Option<AbortReason>,
    /// The witness of the current state, once built; shared with forks.
    witness: Option<Arc<Bag>>,
}

/// Outcome of one [`ConsistencyStream::update`] or
/// [`ConsistencyStream::update_batch`].
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// The global decision after the update.
    pub decision: Decision,
    /// Which dichotomy branch produced it.
    pub branch: Branch,
    /// Index of the (first) edited bag.
    pub bag: usize,
    /// Number of delta sets in the batch (1 for a plain update).
    pub deltas: usize,
    /// What the batch did to the bags, aggregated over every delta.
    pub applied: DeltaApply,
    /// Pairs whose marginal differences the batch updated: every pair
    /// sharing an edited bag, disjoint-schema pairs included.
    pub pairs_repaired: usize,
    /// Pairs recomputed from the bags — nonzero only on the first update
    /// after a failed rollback poisoned the stream.
    pub pairs_rebuilt: usize,
    /// The first inconsistent pair, when the decision is negative on
    /// pairwise evidence.
    pub inconsistent_pair: Option<(usize, usize)>,
    /// True iff the cyclic branch re-ran the exact integer search.
    pub full_search: bool,
    /// Search nodes of that run (0 otherwise).
    pub search_nodes: u64,
    /// Why the decision is [`Decision::Unknown`], when it is: the cyclic
    /// search's node budget ran out ([`AbortReason::NodeBudget`]) or the
    /// per-update deadline expired.
    pub abort_reason: Option<AbortReason>,
    /// Wall-clock timings per update stage (`apply`, `repair`,
    /// `decide`).
    pub stages: Vec<StageTiming>,
}

impl Render for UpdateOutcome {
    fn text(&self, _names: &AttrNames) -> String {
        let edit = if self.applied.support_changed() {
            format!("+{}/-{} rows", self.applied.added, self.applied.removed)
        } else {
            "in-place".to_string()
        };
        let search = if self.full_search {
            format!("; search {} nodes", self.search_nodes)
        } else {
            String::new()
        };
        let abort = match self.abort_reason {
            Some(reason) => format!("; {}", reason.describe()),
            None => String::new(),
        };
        if self.deltas == 1 {
            format!(
                "{} (bag {}: {edit}; pairs: {} repaired, {} rebuilt{search}{abort})",
                self.decision.as_str(),
                self.bag,
                self.pairs_repaired,
                self.pairs_rebuilt,
            )
        } else {
            format!(
                "{} (batch of {}: {edit}; pairs: {} repaired, {} rebuilt{search}{abort})",
                self.decision.as_str(),
                self.deltas,
                self.pairs_repaired,
                self.pairs_rebuilt,
            )
        }
    }

    fn json(&self, _names: &AttrNames) -> String {
        let mut j = Json::new();
        j.begin_object();
        j.field_str("report", "update");
        j.field_str("decision", self.decision.as_str());
        j.field_str("branch", self.branch.as_str());
        j.field_u64("bag", self.bag as u64);
        j.field_u64("deltas", self.deltas as u64);
        j.field_bool("in_place", !self.applied.support_changed());
        j.field_u64("rows_added", self.applied.added as u64);
        j.field_u64("rows_removed", self.applied.removed as u64);
        j.field_u64("pairs_repaired", self.pairs_repaired as u64);
        j.field_u64("pairs_rebuilt", self.pairs_rebuilt as u64);
        j.key("inconsistent_pair");
        match self.inconsistent_pair {
            Some((a, b)) => {
                j.begin_array();
                j.u64(a as u64);
                j.u64(b as u64);
                j.end_array();
            }
            None => j.null(),
        }
        j.field_bool("full_search", self.full_search);
        j.field_u64("search_nodes", self.search_nodes);
        j.key("abort_reason");
        match self.abort_reason {
            Some(reason) => j.string(reason.as_str()),
            None => j.null(),
        }
        json_stages(&mut j, &self.stages);
        j.end_object();
        j.finish()
    }
}

impl Session {
    /// Opens an incremental consistency stream over `bags`: the initial
    /// decision is computed once (every pair's marginal difference
    /// accumulated), and each subsequent [`ConsistencyStream::update`]
    /// re-decides at delta-proportional cost. See the
    /// [`stream`](crate::stream) module docs for the invariants.
    pub fn open_stream(&self, bags: Vec<Bag>) -> Result<ConsistencyStream, SessionError> {
        ConsistencyStream::open(self, bags.into_iter().map(Arc::new).collect())
    }

    /// [`Session::open_stream`] over an already-shared *generation* of
    /// sealed bags: the stream aliases the given `Arc`s instead of
    /// copying, so any number of concurrent streams can pin one
    /// generation. A later [`ConsistencyStream::update`] copy-on-writes
    /// only the touched bag; the shared originals are never mutated.
    pub fn open_stream_shared(
        &self,
        bags: Vec<Arc<Bag>>,
    ) -> Result<ConsistencyStream, SessionError> {
        ConsistencyStream::open(self, bags)
    }
}

/// One delta of a batch: the target bag index and the delta to apply.
pub type BatchEdit = (usize, DeltaSet);

impl ConsistencyStream {
    fn open(session: &Session, mut bags: Vec<Arc<Bag>>) -> Result<Self, SessionError> {
        let (exec, solver) = session.arm();
        for bag in &mut bags {
            if !bag.is_sealed() {
                Arc::make_mut(bag).try_seal_with(&exec)?;
            }
        }
        let refs: Vec<&Bag> = bags.iter().map(|b| b.as_ref()).collect();
        let acyclic = is_acyclic(&schema_hypergraph(&refs));
        let mut pairs = Vec::new();
        for i in 0..bags.len() {
            for j in (i + 1)..bags.len() {
                pairs.push(Arc::new(PairState::open(i, j, &bags)?));
            }
        }
        let mut stream = ConsistencyStream {
            exec: session.exec().clone(),
            solver: session.solver().clone(),
            time_budget: session.time_budget(),
            bags,
            acyclic,
            pairs,
            poisoned: false,
            decision: Decision::Consistent,
            inconsistent_pair: None,
            search_nodes: 0,
            abort_reason: None,
            witness: None,
        };
        stream.decide(&solver)?;
        Ok(stream)
    }

    /// Arms a fresh per-operation deadline over the stream's copied
    /// session configuration (same protocol as `Session::arm`).
    fn arm(&self) -> (ExecConfig, SolverConfig) {
        arm_configs(&self.exec, &self.solver, self.time_budget)
    }

    /// Replaces the per-update wall-clock budget
    /// ([`crate::session::SessionBuilder::deadline`]); `None` removes
    /// it. Takes effect from the next update.
    pub fn set_time_budget(&mut self, budget: Option<Duration>) {
        self.time_budget = budget;
    }

    /// Applies `delta` to bag `bag`, updates the touched pairs'
    /// marginal differences, and re-decides. Errors before the delta
    /// commits are atomic; a deadline expiry after it degrades to
    /// [`Decision::Unknown`] (see the module docs).
    pub fn update(&mut self, bag: usize, delta: &DeltaSet) -> Result<UpdateOutcome, SessionError> {
        self.update_impl(&[(bag, delta)])
    }

    /// Applies a whole batch of deltas, then re-decides **once** — the
    /// amortized form of calling [`ConsistencyStream::update`] per
    /// delta. The batch is atomic: on any apply failure the
    /// already-applied prefix is rolled back (with negated deltas) and
    /// the error is returned with the stream state unchanged. An empty
    /// batch re-decides without touching the bags.
    pub fn update_batch(&mut self, edits: &[BatchEdit]) -> Result<UpdateOutcome, SessionError> {
        let refs: Vec<(usize, &DeltaSet)> = edits.iter().map(|(b, d)| (*b, d)).collect();
        self.update_impl(&refs)
    }

    fn update_impl(&mut self, edits: &[(usize, &DeltaSet)]) -> Result<UpdateOutcome, SessionError> {
        bagcons_core::fault::fire("stream::update");
        for (bag, _) in edits {
            if *bag >= self.bags.len() {
                return Err(SessionError::Core(CoreError::InvalidConfig(
                    "bag index out of range",
                )));
            }
        }
        let (exec, solver) = self.arm();
        let mut stages = Vec::new();

        let t = Instant::now();
        let applied = self.apply_batch(edits, &exec)?;
        let mut agg = DeltaApply {
            touched: 0,
            added: 0,
            removed: 0,
            resealed: false,
            unary_change: 0,
        };
        for a in &applied {
            agg.touched += a.touched;
            agg.added += a.added;
            agg.removed += a.removed;
            agg.resealed |= a.resealed;
            agg.unary_change += a.unary_change;
        }
        push_stage(&mut stages, "apply", t);

        let t = Instant::now();
        let (repaired, rebuilt) = self.repair(edits, &applied);
        push_stage(&mut stages, "repair", t);

        let t = Instant::now();
        // The pair update cannot be interrupted, so the deadline is
        // polled once after it: an expiry reports Unknown, yet the pair
        // state stays exact for the next update to decide from.
        let abort = if repaired + rebuilt > 0 {
            exec.deadline().poll()
        } else {
            None
        };
        let full_search = match abort {
            Some(reason) => {
                self.degrade(Some(reason));
                false
            }
            None => self.decide(&solver)?,
        };
        push_stage(&mut stages, "decide", t);

        Ok(UpdateOutcome {
            decision: self.decision,
            branch: self.branch(),
            bag: edits.first().map_or(0, |(b, _)| *b),
            deltas: edits.len(),
            applied: agg,
            pairs_repaired: repaired,
            pairs_rebuilt: rebuilt,
            inconsistent_pair: self.inconsistent_pair,
            full_search,
            search_nodes: if full_search { self.search_nodes } else { 0 },
            abort_reason: self.abort_reason,
            stages,
        })
    }

    /// Applies every delta of the batch in order, copy-on-writing shared
    /// bags. On failure at any point the already-applied prefix is
    /// undone (each apply is individually atomic, so the rollback
    /// replays negated deltas) and the original error is returned.
    fn apply_batch(
        &mut self,
        edits: &[(usize, &DeltaSet)],
        exec: &ExecConfig,
    ) -> Result<Vec<DeltaApply>, SessionError> {
        let mut applied: Vec<DeltaApply> = Vec::with_capacity(edits.len());
        for (k, (bag, delta)) in edits.iter().enumerate() {
            match Arc::make_mut(&mut self.bags[*bag]).apply_delta_with(delta, exec) {
                Ok(a) => applied.push(a),
                Err(e) => {
                    // Roll back the applied prefix, newest first, under
                    // an ungoverned deadline (a rollback must not be
                    // interrupted by the same expiry that may have
                    // caused the failure).
                    let ungoverned = exec.clone().with_deadline(Deadline::NONE);
                    let mut rollback_failed = false;
                    for (b, d) in edits[..k].iter().rev() {
                        let neg = negated(d);
                        rollback_failed |= Arc::make_mut(&mut self.bags[*b])
                            .apply_delta_with(&neg, &ungoverned)
                            .is_err();
                    }
                    if rollback_failed {
                        // The pre-batch state could not be restored. The
                        // negated deltas revisit only counts the batch
                        // itself held, so they cannot overflow or
                        // underflow; a worker panicking in the rollback's
                        // reseal can still fail it. Nothing incremental can
                        // be trusted until the pairs are recomputed.
                        self.poisoned = true;
                        self.degrade(None);
                    }
                    return Err(e.into());
                }
            }
        }
        Ok(applied)
    }

    /// Brings every pair's marginal difference in step with the bags:
    /// each applied edit adds its `±delta` to one key of every pair that
    /// shares its bag, or — on a poisoned stream — every pair is
    /// recomputed from the bags. Returns `(repaired, rebuilt)` pair
    /// counts; cannot fail.
    fn repair(&mut self, edits: &[(usize, &DeltaSet)], applied: &[DeltaApply]) -> (usize, usize) {
        if self.poisoned {
            for p in &mut self.pairs {
                Arc::make_mut(p).rebuild(&self.bags);
            }
            self.poisoned = false;
            self.witness = None;
            return (0, self.pairs.len());
        }
        let mut touched = vec![false; self.pairs.len()];
        let mut key = Vec::new();
        for ((bag, delta), a) in edits.iter().zip(applied) {
            if a.is_noop() {
                continue;
            }
            self.witness = None;
            for (p, hit) in self.pairs.iter_mut().zip(&mut touched) {
                if p.i != *bag && p.j != *bag {
                    continue;
                }
                // A pair state shared with a fork or a published
                // generation is copied here, before its first edit.
                let p = Arc::make_mut(p);
                let (z_cols, sign) = if p.i == *bag {
                    (&p.z_of_i, 1)
                } else {
                    (&p.z_of_j, -1)
                };
                *hit = true;
                for e in delta.edits() {
                    project(e.row(), z_cols, &mut key);
                    p.diff.add(&key, sign * i128::from(e.delta()));
                }
            }
        }
        (touched.iter().filter(|&&hit| hit).count(), 0)
    }

    /// Marks the current decision unknown (`reason` says why, when the
    /// cause is an abort).
    fn degrade(&mut self, reason: Option<AbortReason>) {
        self.decision = Decision::Unknown;
        self.abort_reason = reason;
        self.inconsistent_pair = None;
        self.search_nodes = 0;
        self.witness = None;
    }

    /// Recomputes the global decision from the pair differences; returns
    /// whether the exact search ran (cyclic branch, pairwise clean).
    fn decide(&mut self, solver: &SolverConfig) -> Result<bool, SessionError> {
        self.abort_reason = None;
        self.search_nodes = 0;
        self.inconsistent_pair = self
            .pairs
            .iter()
            .find(|p| !p.consistent())
            .map(|p| (p.i, p.j));
        if self.inconsistent_pair.is_some() {
            // Pairwise inconsistency refutes global consistency on both
            // branches — no further work.
            self.decision = Decision::Inconsistent;
            return Ok(false);
        }
        // The same post-screen step as `Session::check`: the decision on
        // an acyclic schema, the exact search (the documented limit of
        // the incremental path) on a cyclic one.
        let refs: Vec<&Bag> = self.bags.iter().map(|b| b.as_ref()).collect();
        let (out, solution) = settle(&refs, self.branch(), solver, Vec::new())?;
        self.decision = out.decision;
        self.search_nodes = out.search_nodes;
        self.abort_reason = out.abort_reason;
        self.witness = solution.map(Arc::new).or(self.witness.take());
        Ok(!self.acyclic)
    }

    /// The current global decision.
    pub fn decision(&self) -> Decision {
        self.decision
    }

    /// Which dichotomy branch decisions come from.
    pub fn branch(&self) -> Branch {
        if self.acyclic {
            Branch::Acyclic
        } else {
            Branch::CyclicSearch
        }
    }

    /// True iff the schema hypergraph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.acyclic
    }

    /// The first (lexicographic) inconsistent pair, when pairwise
    /// evidence refuted consistency.
    pub fn inconsistent_pair(&self) -> Option<(usize, usize)> {
        self.inconsistent_pair
    }

    /// Why the current decision is [`Decision::Unknown`], when it is
    /// (deadline expiry or an exhausted node budget).
    pub fn abort_reason(&self) -> Option<AbortReason> {
        self.abort_reason
    }

    /// The bags in their current (post-delta, sealed) state.
    pub fn bags(&self) -> &[Arc<Bag>] {
        &self.bags
    }

    /// The current bags as a shareable generation: the returned `Arc`s
    /// alias the stream's state, so publishing them (e.g. as a new
    /// dataset generation in the serving registry) costs no copying, and
    /// later updates through this stream copy-on-write away from them.
    pub fn share_bags(&self) -> Vec<Arc<Bag>> {
        self.bags.clone()
    }

    /// A global witness for the current state, built as by
    /// [`Session::witness`] and cached until the next update; `None`
    /// unless currently consistent (or when the deadline aborts it).
    pub fn witness(&mut self) -> Result<Option<&Bag>, SessionError> {
        if self.decision != Decision::Consistent {
            return Ok(None);
        }
        if self.witness.is_none() {
            let (exec, solver) = self.arm();
            let refs: Vec<&Bag> = self.bags.iter().map(|b| b.as_ref()).collect();
            let witness = if self.acyclic {
                chain_first(&refs, &exec, Vec::new())?.witness
            } else {
                settle(&refs, self.branch(), &solver, Vec::new())?.1
            };
            self.witness = witness.map(Arc::new);
        }
        Ok(self.witness.as_deref())
    }
}

/// The delta set that undoes an applied `delta` (used to roll back a
/// batch): its edits in reverse order with their signs flipped, so each
/// row steps back through the counts the forward edits produced and
/// never leaves `u64`. `-i64::MIN` does not fit an `i64`, so that edit
/// becomes the two edits `i64::MAX` and `1`.
fn negated(delta: &DeltaSet) -> DeltaSet {
    let mut neg = DeltaSet::new(delta.schema().clone());
    for e in delta.edits().iter().rev() {
        match e.delta().checked_neg() {
            Some(d) => neg.bump(e.row(), d),
            None => neg
                .bump(e.row(), i64::MAX)
                .and_then(|()| neg.bump(e.row(), 1)),
        }
        .expect("negation preserves arity");
    }
    neg
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::{Attr, Schema, Value};

    impl ConsistencyStream {
        /// The pair states, in lexicographic pair order.
        pub(crate) fn pairs(&self) -> impl Iterator<Item = &PairState> {
            self.pairs.iter().map(|p| p.as_ref())
        }
    }

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    fn path_pair() -> (Bag, Bag) {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 2), (&[1, 1][..], 3)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 7][..], 2), (&[1, 8][..], 3)]).unwrap();
        (r, s)
    }

    #[test]
    fn stream_flips_with_in_place_deltas() {
        let (r, s) = path_pair();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r, s]).unwrap();
        assert_eq!(stream.decision(), Decision::Consistent);
        assert!(stream.branch().is_acyclic());

        let mut bump = DeltaSet::new(schema(&[0, 1]));
        bump.bump_u64s(&[0, 0], 1).unwrap();
        let out = stream.update(0, &bump).unwrap();
        assert_eq!(out.decision, Decision::Inconsistent);
        assert!(!out.applied.support_changed());
        assert_eq!(out.deltas, 1);
        assert_eq!(out.pairs_repaired, 1);
        assert_eq!(out.pairs_rebuilt, 0);
        assert_eq!(out.inconsistent_pair, Some((0, 1)));

        let mut revert = DeltaSet::new(schema(&[0, 1]));
        revert.bump_u64s(&[0, 0], -1).unwrap();
        let out = stream.update(0, &revert).unwrap();
        assert_eq!(out.decision, Decision::Consistent);
        assert_eq!(out.pairs_repaired, 1);

        let w = stream.witness().unwrap().expect("consistent").clone();
        assert_eq!(w.marginal(&schema(&[0, 1])).unwrap(), *stream.bags()[0]);
        assert_eq!(w.marginal(&schema(&[1, 2])).unwrap(), *stream.bags()[1]);
    }

    #[test]
    fn support_changing_delta_rebuilds_touched_pair_only() {
        // Support-changing and support-preserving edits take the same
        // path: each updates the differences of exactly the pairs that
        // share the edited bag (disjoint pairs included), and nothing is
        // ever rebuilt.
        let (r, s) = path_pair();
        let t = Bag::from_u64s(schema(&[3]), [(&[9u64][..], 5)]).unwrap();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r, s, t]).unwrap();
        // totals: 5 vs 5 vs 5 — fully consistent, acyclic
        assert_eq!(stream.decision(), Decision::Consistent);

        // add a fresh row to bag 0: its support changes; pairs (0,1) and
        // (0,2) update, pair (1,2) is untouched.
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[2, 0], 1).unwrap();
        let out = stream.update(0, &d).unwrap();
        assert!(out.applied.support_changed());
        assert_eq!(out.pairs_rebuilt, 0);
        assert_eq!(out.pairs_repaired, 2);
        assert_eq!(out.decision, Decision::Inconsistent);

        // matching bump on an existing S row: pairs (0,1) and (1,2)
        let mut d = DeltaSet::new(schema(&[1, 2]));
        d.bump_u64s(&[0, 7], 1).unwrap();
        let out = stream.update(1, &d).unwrap();
        assert_eq!(out.pairs_rebuilt, 0);
        assert_eq!(out.pairs_repaired, 2);
        // bag 2 is now one short on totals
        assert_eq!(out.decision, Decision::Inconsistent);
        assert_eq!(out.inconsistent_pair, Some((0, 2)));
        let mut d = DeltaSet::new(schema(&[3]));
        d.bump_u64s(&[9], 1).unwrap();
        let out = stream.update(2, &d).unwrap();
        assert_eq!(out.decision, Decision::Consistent);
        assert_eq!(out.pairs_repaired, 2);
        assert_eq!(out.pairs_rebuilt, 0);
    }

    #[test]
    fn net_zero_fresh_row_edit_still_repairs_in_place() {
        // A batch that touches a fresh row but folds it back to zero is
        // support-preserving end to end, and updates the pair once.
        let (r, s) = path_pair();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r, s]).unwrap();
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[0, 0], 1).unwrap();
        d.bump_u64s(&[9, 9], 4).unwrap();
        d.bump_u64s(&[9, 9], -4).unwrap();
        let out = stream.update(0, &d).unwrap();
        assert!(!out.applied.support_changed());
        assert_eq!(out.pairs_repaired, 1, "net-zero fresh row updates in place");
        assert_eq!(out.pairs_rebuilt, 0);
        assert_eq!(out.decision, Decision::Inconsistent);
    }

    #[test]
    fn batch_update_amortizes_repair_and_matches_sequential() {
        // A matched bump on both sides of a pair: two plain updates
        // repair the pair twice; one batch repairs it once, with the
        // same final decision and bag state.
        let (r, s) = path_pair();
        let session = Session::default();

        let mut seq = session.open_stream(vec![r.clone(), s.clone()]).unwrap();
        let mut r_plus = DeltaSet::new(schema(&[0, 1]));
        r_plus.bump_u64s(&[0, 0], 1).unwrap();
        let mut s_plus = DeltaSet::new(schema(&[1, 2]));
        s_plus.bump_u64s(&[0, 7], 1).unwrap();
        let a = seq.update(0, &r_plus).unwrap();
        let b = seq.update(1, &s_plus).unwrap();
        assert_eq!(a.pairs_repaired + b.pairs_repaired, 2);
        assert_eq!(seq.decision(), Decision::Consistent);

        let mut batched = session.open_stream(vec![r, s]).unwrap();
        let out = batched
            .update_batch(&[(0, r_plus.clone()), (1, s_plus.clone())])
            .unwrap();
        assert_eq!(out.decision, Decision::Consistent);
        assert_eq!(out.deltas, 2);
        assert_eq!(out.pairs_repaired, 1, "one repair for the whole batch");
        assert_eq!(out.pairs_rebuilt, 0);
        assert!(!out.applied.support_changed());
        assert_eq!(*batched.bags()[0], *seq.bags()[0]);
        assert_eq!(*batched.bags()[1], *seq.bags()[1]);

        let text = out.text(session.names());
        assert!(text.starts_with("consistent (batch of 2:"), "{text}");
        let json = out.json(session.names());
        assert!(json.contains("\"deltas\":2"), "{json}");
    }

    #[test]
    fn failed_batch_rolls_back_applied_prefix() {
        let (r, s) = path_pair();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r.clone(), s.clone()]).unwrap();
        let mut ok = DeltaSet::new(schema(&[0, 1]));
        ok.bump_u64s(&[0, 0], 1).unwrap();
        let mut bad = DeltaSet::new(schema(&[1, 2]));
        bad.bump_u64s(&[0, 7], -10).unwrap(); // underflow
        assert!(stream.update_batch(&[(0, ok), (1, bad)]).is_err());
        // the first delta was applied, then rolled back
        assert_eq!(*stream.bags()[0], r);
        assert_eq!(*stream.bags()[1], s);
        assert_eq!(stream.decision(), Decision::Consistent);
        let mut again = DeltaSet::new(schema(&[0, 1]));
        again.bump_u64s(&[0, 0], 1).unwrap();
        let out = stream.update(0, &again).unwrap();
        assert_eq!(out.decision, Decision::Inconsistent);
    }

    #[test]
    fn empty_batch_keeps_decision() {
        let (r, s) = path_pair();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r, s]).unwrap();
        let out = stream.update_batch(&[]).unwrap();
        assert_eq!(out.decision, Decision::Consistent);
        assert_eq!(out.deltas, 0);
        assert!(out.applied.is_noop());
    }

    #[test]
    fn shared_generation_copy_on_writes() {
        let (r, s) = path_pair();
        let generation: Vec<Arc<Bag>> = vec![Arc::new(r.clone()), Arc::new(s.clone())];
        let session = Session::default();
        let mut writer = session.open_stream_shared(generation.clone()).unwrap();
        let reader = session.open_stream_shared(generation.clone()).unwrap();
        // both streams alias the generation's allocations
        assert!(Arc::ptr_eq(&writer.bags()[0], &generation[0]));
        assert!(Arc::ptr_eq(&reader.bags()[0], &generation[0]));

        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[0, 0], 1).unwrap();
        writer.update(0, &d).unwrap();
        // the writer cloned only the touched bag; the generation (and
        // the reader pinned to it) is untouched
        assert!(!Arc::ptr_eq(&writer.bags()[0], &generation[0]));
        assert!(Arc::ptr_eq(&writer.bags()[1], &generation[1]));
        assert_eq!(*generation[0], r);
        assert_eq!(reader.decision(), Decision::Consistent);
        assert_eq!(writer.bags()[0].unary_size(), r.unary_size() + 1);

        // publishing the writer's state is a new shareable generation
        let next = writer.share_bags();
        assert!(Arc::ptr_eq(&next[1], &generation[1]));
        let reopened = session.open_stream_shared(next).unwrap();
        assert_eq!(reopened.decision(), Decision::Inconsistent);
    }

    /// A clone shares every bag, pair state and the cached witness; an
    /// update through it copies just the edited bag and the pairs that
    /// share it, and leaves the source as it was.
    #[test]
    fn fork_copies_only_what_its_update_touches() {
        let (r, s) = path_pair();
        let t = Bag::from_u64s(schema(&[3]), [(&[9u64][..], 5)]).unwrap();
        let session = Session::default();
        let mut source = session.open_stream(vec![r, s.clone(), t]).unwrap();
        let witness = source.witness().unwrap().expect("consistent").clone();
        let mut fork = source.clone();
        let shared = |a: &ConsistencyStream, b: &ConsistencyStream| -> (Vec<bool>, Vec<bool>) {
            let bags = a.bags.iter().zip(&b.bags);
            let pairs = a.pairs.iter().zip(&b.pairs);
            (
                bags.map(|(x, y)| Arc::ptr_eq(x, y)).collect(),
                pairs.map(|(x, y)| Arc::ptr_eq(x, y)).collect(),
            )
        };
        assert_eq!(shared(&source, &fork), (vec![true; 3], vec![true; 3]));
        let (a, b) = (source.witness.as_ref(), fork.witness.as_ref());
        assert!(Arc::ptr_eq(a.unwrap(), b.unwrap()));

        // Bag 1 is in pairs (0, 1) and (1, 2), not in (0, 2).
        let mut d = DeltaSet::new(schema(&[1, 2]));
        d.bump_u64s(&[0, 7], 1).unwrap();
        let out = fork.update(1, &d).unwrap();
        assert_eq!(out.decision, Decision::Inconsistent);
        assert_eq!(out.pairs_repaired, 2);
        assert_eq!(
            shared(&source, &fork),
            (vec![true, false, true], vec![false, true, false])
        );

        assert_eq!(source.decision(), Decision::Consistent);
        assert!(source.pairs().all(|p| p.consistent()));
        assert_eq!(*source.bags()[1], s);
        assert_eq!(source.witness().unwrap(), Some(&witness));
        assert!(fork.witness().unwrap().is_none());
    }

    #[test]
    fn cyclic_stream_falls_back_to_search() {
        let even: Vec<(&[u64], u64)> = vec![(&[0, 0], 1), (&[1, 1], 1)];
        let odd: Vec<(&[u64], u64)> = vec![(&[0, 1], 1), (&[1, 0], 1)];
        let bags = vec![
            Bag::from_u64s(schema(&[0, 1]), even.clone()).unwrap(),
            Bag::from_u64s(schema(&[1, 2]), even).unwrap(),
            Bag::from_u64s(schema(&[0, 2]), odd).unwrap(),
        ];
        let session = Session::default();
        let mut stream = session.open_stream(bags).unwrap();
        assert!(!stream.is_acyclic());
        // parity triangle: pairwise consistent, globally inconsistent
        assert_eq!(stream.decision(), Decision::Inconsistent);
        assert_eq!(stream.inconsistent_pair(), None);

        // break a pair: the search is skipped entirely
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[0, 0], 2).unwrap();
        let out = stream.update(0, &d).unwrap();
        assert_eq!(out.decision, Decision::Inconsistent);
        assert!(!out.full_search);
        assert!(out.inconsistent_pair.is_some());
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[0, 0], -2).unwrap();
        let out = stream.update(0, &d).unwrap();
        assert!(out.full_search, "pairwise-clean cyclic update re-searches");
        assert_eq!(out.decision, Decision::Inconsistent);
    }

    #[test]
    fn update_errors_are_atomic() {
        let (r, s) = path_pair();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r, s]).unwrap();
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[0, 0], -10).unwrap();
        assert!(stream.update(0, &d).is_err());
        assert_eq!(stream.decision(), Decision::Consistent);
        let mut ok = DeltaSet::new(schema(&[0, 1]));
        ok.bump_u64s(&[0, 0], 1).unwrap();
        assert!(stream.update(1, &ok).is_err(), "schema mismatch");
        assert!(stream.update(5, &ok).is_err(), "index out of range");
        assert_eq!(stream.decision(), Decision::Consistent);
    }

    #[test]
    fn exhausted_budget_carries_node_budget_reason() {
        // loose satisfiable triangle: pairwise consistent, needs real
        // search nodes, so a 1-node budget leaves every decide undecided
        let wide: Vec<(&[u64], u64)> = vec![(&[0, 0], 3), (&[0, 1], 3), (&[1, 0], 3), (&[1, 1], 3)];
        let bags = vec![
            Bag::from_u64s(schema(&[0, 1]), wide.clone()).unwrap(),
            Bag::from_u64s(schema(&[1, 2]), wide.clone()).unwrap(),
            Bag::from_u64s(schema(&[0, 2]), wide).unwrap(),
        ];
        let session = Session::builder().budget(1).build().unwrap();
        let mut stream = session.open_stream(bags).unwrap();
        assert_eq!(stream.decision(), Decision::Unknown);
        assert_eq!(stream.abort_reason(), Some(AbortReason::NodeBudget));

        // marginal-preserving swap keeps the pairwise stage clean, so the
        // update must fall back to the (budget-starved) full search
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[0, 0], 1).unwrap();
        d.bump_u64s(&[0, 1], -1).unwrap();
        d.bump_u64s(&[1, 0], -1).unwrap();
        d.bump_u64s(&[1, 1], 1).unwrap();
        let out = stream.update(0, &d).unwrap();
        assert!(out.full_search);
        assert_eq!(out.decision, Decision::Unknown);
        assert_eq!(out.abort_reason, Some(AbortReason::NodeBudget));
        let text = out.text(session.names());
        assert!(text.contains("node budget exhausted"), "{text}");
        let json = out.json(session.names());
        assert!(json.contains("\"abort_reason\":\"node_budget\""), "{json}");

        // raising the budget on a fresh session resolves the same state
        let roomy = Session::builder().build().unwrap();
        let full = roomy.open_stream_shared(stream.share_bags()).unwrap();
        assert_eq!(full.decision(), Decision::Consistent);
        assert_eq!(full.abort_reason(), None);
    }

    #[test]
    fn expired_deadline_never_corrupts_stream_state() {
        let (r, s) = path_pair();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r, s]).unwrap();
        assert_eq!(stream.decision(), Decision::Consistent);

        stream.set_time_budget(Some(Duration::ZERO));
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[0, 0], 1).unwrap();
        // the abort surfaces either before the delta commits (atomic
        // apply-stage error, state untouched) or after (degraded Unknown
        // outcome) — never as a decision computed from half-repaired pairs
        let committed = match stream.update(0, &d) {
            Err(SessionError::Core(CoreError::Aborted(AbortReason::DeadlineExceeded))) => {
                assert_eq!(stream.decision(), Decision::Consistent);
                assert_eq!(stream.bags()[0].unary_size(), 5);
                false
            }
            Ok(out) => {
                assert_eq!(out.decision, Decision::Unknown);
                assert_eq!(out.abort_reason, Some(AbortReason::DeadlineExceeded));
                true
            }
            Err(e) => panic!("unexpected error: {e}"),
        };

        // without the budget, the next update decides as a stream freshly
        // opened over the same bags would
        stream.set_time_budget(None);
        let mut e = DeltaSet::new(schema(&[1, 2]));
        e.bump_u64s(&[0, 7], 1).unwrap();
        let out = stream.update(1, &e).unwrap();
        let fresh = session.open_stream_shared(stream.share_bags()).unwrap();
        assert_eq!(out.decision, fresh.decision());
        assert_eq!(out.inconsistent_pair, fresh.inconsistent_pair());
        assert_eq!(out.abort_reason, None);
        let expect = if committed {
            Decision::Consistent
        } else {
            Decision::Inconsistent
        };
        assert_eq!(out.decision, expect);
    }

    /// Two legal, consistent bags whose shared-key mass is 2^64: a u64
    /// marginal would overflow, the i128 differences decide exactly.
    #[test]
    fn shared_key_mass_beyond_u64_stays_exact() {
        let half = 1u64 << 63;
        let r = Bag::from_u64s(
            schema(&[0, 1]),
            [(&[0u64, 7][..], half), (&[1, 7][..], half)],
        )
        .unwrap();
        let s = Bag::from_u64s(
            schema(&[1, 2]),
            [(&[7u64, 0][..], half), (&[7, 1][..], half)],
        )
        .unwrap();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r, s]).unwrap();
        assert_eq!(stream.decision(), Decision::Consistent);

        let mut plus = DeltaSet::new(schema(&[0, 1]));
        plus.bump_u64s(&[0, 7], 1).unwrap();
        let out = stream.update(0, &plus).unwrap();
        assert_eq!(out.decision, Decision::Inconsistent);
        assert_eq!(out.inconsistent_pair, Some((0, 1)));

        let mut minus = DeltaSet::new(schema(&[0, 1]));
        minus.bump_u64s(&[0, 7], -1).unwrap();
        let out = stream.update(0, &minus).unwrap();
        assert_eq!(out.decision, Decision::Consistent);
    }

    /// Oracle check: after every edit of a pseudo-random stream (in-place
    /// bumps, fresh rows, drops to zero, on both sides of an overlapping
    /// pair and a disjoint singleton), the incremental decision equals a
    /// stream freshly opened over the same bags.
    #[test]
    fn randomized_edit_stream_matches_rebuild() {
        let (r, s) = path_pair();
        let t = Bag::from_u64s(schema(&[3]), [(&[9u64][..], 5)]).unwrap();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r, s, t]).unwrap();
        let mut x = 0x9e3779b97f4a7c15u64;
        for step in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bag = (x >> 8) as usize % 3;
            let (a, b) = ((x >> 16) % 3, (x >> 24) % 3);
            let row: Vec<u64> = if bag == 2 {
                vec![9 + a % 2]
            } else {
                vec![a, b]
            };
            let current = stream.bags()[bag]
                .multiplicity(&row.iter().copied().map(Value::new).collect::<Vec<_>>());
            // -current..=+2: includes drops to zero and fresh rows
            let delta = ((x >> 32) % (current + 3)) as i64 - current as i64;
            let mut d = DeltaSet::new(stream.bags()[bag].schema().clone());
            d.bump_u64s(&row, delta).unwrap();
            let out = stream.update(bag, &d).unwrap();
            let fresh = session.open_stream_shared(stream.share_bags()).unwrap();
            assert_eq!(out.decision, fresh.decision(), "step {step}");
            assert_eq!(
                out.inconsistent_pair,
                fresh.inconsistent_pair(),
                "step {step}"
            );
        }
    }

    /// A batch that fails after an edit of `i64::MIN`, or after a delta
    /// whose edits of one row go up and then down, rolls back to the
    /// exact pre-batch bags without poisoning the stream.
    #[test]
    fn failed_batch_rolls_back_extreme_and_repeated_edits() {
        let big = 1u64 << 63;
        let r = Bag::from_u64s(schema(&[0]), [(&[1u64][..], big), (&[2][..], 1)]).unwrap();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r.clone()]).unwrap();
        let mut drop_one = DeltaSet::new(schema(&[0]));
        drop_one.bump_u64s(&[1], i64::MIN).unwrap();
        let mut up_down = DeltaSet::new(schema(&[0]));
        up_down.bump_u64s(&[3], 5).unwrap();
        up_down.bump_u64s(&[3], -3).unwrap();
        let mut underflow = DeltaSet::new(schema(&[0]));
        underflow.bump_u64s(&[2], -5).unwrap();
        for first in [drop_one, up_down] {
            let batch = [(0, first), (0, underflow.clone())];
            assert!(stream.update_batch(&batch).is_err());
            assert_eq!(*stream.bags()[0], r);
            assert!(!stream.poisoned);
            assert_eq!(stream.decision(), Decision::Consistent);
        }
    }

    /// A poisoned stream (failed rollback) recomputes every pair from
    /// the bags on its next update.
    #[test]
    fn poisoned_stream_rebuilds_every_pair() {
        let (r, s) = path_pair();
        let t = Bag::from_u64s(schema(&[3]), [(&[9u64][..], 5)]).unwrap();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r, s, t]).unwrap();
        stream.poisoned = true;
        stream.degrade(None);
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[0, 0], 1).unwrap();
        let out = stream.update(0, &d).unwrap();
        assert_eq!(out.pairs_rebuilt, 3);
        assert_eq!(out.pairs_repaired, 0);
        assert_eq!(out.decision, Decision::Inconsistent);
        assert_eq!(out.inconsistent_pair, Some((0, 1)));
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[0, 0], -1).unwrap();
        let out = stream.update(0, &d).unwrap();
        assert_eq!(out.pairs_rebuilt, 0);
        assert_eq!(out.pairs_repaired, 2);
        assert_eq!(out.decision, Decision::Consistent);
    }

    #[test]
    fn update_outcome_renders_text_and_json() {
        let (r, s) = path_pair();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r, s]).unwrap();
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[0, 0], 1).unwrap();
        let out = stream.update(0, &d).unwrap();
        let text = out.text(session.names());
        assert!(text.starts_with("inconsistent (bag 0: in-place"), "{text}");
        assert!(!text.contains('\n'));
        let json = out.json(session.names());
        assert!(json.contains("\"report\":\"update\""));
        assert!(json.contains("\"decision\":\"inconsistent\""));
        assert!(json.contains("\"in_place\":true"));
        assert!(json.contains("\"deltas\":1"));
        assert!(json.contains("\"stages\":[{\"stage\":\"apply\""));
    }

    #[test]
    fn witness_over_the_empty_schema() {
        let r = Bag::from_u64s(Schema::empty(), [(&[][..], 3)]).unwrap();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r.clone(), r.clone()]).unwrap();
        assert_eq!(stream.decision(), Decision::Consistent);
        assert_eq!(stream.witness().unwrap(), Some(&r));
        let mut stream = session
            .open_stream(vec![Bag::new(Schema::empty())])
            .unwrap();
        assert_eq!(stream.witness().unwrap(), Some(&Bag::new(Schema::empty())));
    }
}
