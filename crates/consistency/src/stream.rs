//! Incremental consistency over a stream of multiplicity deltas.
//!
//! [`Session::open_stream`] turns a collection of bags into a
//! [`ConsistencyStream`]: a stateful checker that answers the global
//! consistency question after every [`ConsistencyStream::update`] at a
//! cost proportional to the **delta**, not the database. The stream
//! caches, per bag pair, either the pair's flow network `N(R,S)` with
//! its per-edge flows retained (schemas that share attributes) or just
//! the side totals (disjoint schemas), and on an update:
//!
//! * applies the [`DeltaSet`] to the target bag through
//!   [`Bag::apply_delta_with`] — in-place multiplicity patches when the
//!   support is untouched, an incremental prefix/tail merge otherwise;
//! * **repairs** the networks of the pairs the edited bag participates
//!   in: support-preserving deltas map to edge-capacity edits
//!   ([`bagcons_flow::ConsistencyNetwork::apply_edit`]), overflowing
//!   flow is cancelled along the touched arcs, and Dinic re-augments
//!   from the previous feasible flow; support-changing deltas rebuild
//!   only the touched pairs' networks;
//! * leaves every pair not sharing the edited bag fully cached.
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
//! # Batched updates
//!
//! [`ConsistencyStream::update_batch`] applies a burst of deltas and
//! re-decides **once**: every edit is applied first, then each touched
//! pair is repaired a single time (all capacity edits, then one
//! re-augmentation), amortizing the repair cost across the burst. The
//! batch is atomic: if any delta fails to apply, the already-applied
//! prefix is rolled back with negated deltas and the stream state is
//! exactly as before.
//!
//! # Delta invariants (when is an update cheap?)
//!
//! * Edits that keep every edited row's multiplicity **non-zero and
//!   already in the support** stay entirely in place: the bag's sealed
//!   run is untouched and pair networks warm-restart.
//! * Edits that add or remove support rows reseal the bag incrementally
//!   and **rebuild the touched pairs'** networks (the vertex set
//!   changed); untouched pairs still keep their caches.
//! * On an **acyclic** schema the cached pairwise decisions *are* the
//!   global decision (Theorem 2), so updates never re-run a global
//!   procedure. On a **cyclic** schema pairwise consistency does not
//!   decide global consistency: each update that leaves every pair
//!   consistent falls back to the exact integer search — the stream
//!   then only saves the pairwise recheck, and
//!   [`UpdateOutcome::full_search`] reports the fallback.
//! * A failed update (overflow/underflow/schema mismatch) is atomic:
//!   bag, caches, and decision are left exactly as before.
//!
//! # Governance and fault containment
//!
//! Each update arms a fresh per-operation [`bagcons_core::Deadline`]
//! from the opening session's configuration
//! ([`crate::session::SessionBuilder::deadline`]; adjustable per stream
//! via [`ConsistencyStream::set_time_budget`]) and polls it between
//! pair repairs. An expiry or cancellation **after** the delta applied
//! degrades gracefully: the pairs not yet repaired are marked stale,
//! the update returns [`Decision::Unknown`] with
//! [`UpdateOutcome::abort_reason`] set, and the next update rebuilds
//! the stale pairs before deciding — no cache is ever left silently
//! wrong. A worker panic during a pair rebuild (surfaced as
//! [`bagcons_core::CoreError::WorkerPanicked`]) follows the same stale
//! protocol but propagates as an error; the stream stays usable. The
//! cyclic branch's exact search carries its own abort reason: a node
//! budget exhausted mid-search reports
//! [`bagcons_core::AbortReason::NodeBudget`] through the outcome's text
//! and JSON.

use crate::global::{globally_consistent_via_ilp, schema_hypergraph};
use crate::report::{Json, Render};
use crate::session::{
    arm_configs, check_impl, json_stages, push_stage, Branch, Decision, Session, SessionError,
    StageTiming,
};
use bagcons_core::{
    AbortReason, AttrNames, Bag, CoreError, Deadline, DeltaApply, DeltaSet, ExecConfig,
};
use bagcons_flow::{ConsistencyNetwork, Side};
use bagcons_hypergraph::is_acyclic;
use bagcons_lp::ilp::SolverConfig;
use bagcons_lp::IlpOutcome;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cached consistency evidence for one bag pair.
enum PairCheck {
    /// Disjoint schemas: consistent iff the unary totals agree.
    Totals,
    /// Overlapping schemas: the warm-restartable network `N(R,S)`.
    Network(Box<ConsistencyNetwork>),
}

struct PairState {
    i: usize,
    j: usize,
    check: PairCheck,
    consistent: bool,
    /// True while the cached evidence is out of date with the bags — set
    /// when a governed repair aborted (or a rebuild's worker panicked)
    /// before reaching this pair. Stale pairs rebuild on the next
    /// update's repair pass and never feed a decision.
    stale: bool,
}

/// A stateful incremental checker over a fixed collection of bags; see
/// the [module docs](self) and [`Session::open_stream`].
///
/// The stream owns a copy of the opening session's governance
/// configuration (exec, solver, per-operation time budget), so it has
/// no borrow of the session and can be moved across threads or stored
/// in long-lived connection state.
pub struct ConsistencyStream {
    exec: ExecConfig,
    solver: SolverConfig,
    time_budget: Option<Duration>,
    /// The bags, shared copy-on-write: sealed state is immutable, so
    /// readers of the same generation alias these allocations until a
    /// delta forces a private clone of the touched bag.
    bags: Vec<Arc<Bag>>,
    /// Cached `‖R‖u` per bag, updated from [`DeltaApply::unary_change`].
    totals: Vec<u128>,
    acyclic: bool,
    /// All pairs `i < j`, in lexicographic order (so the first cached
    /// inconsistent pair matches the full rebuild's reporting).
    pairs: Vec<PairState>,
    decision: Decision,
    inconsistent_pair: Option<(usize, usize)>,
    search_nodes: u64,
    /// Why the current decision is [`Decision::Unknown`], when it is.
    abort_reason: Option<AbortReason>,
    witness: Option<Bag>,
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
    /// Pairs whose cached network warm-restarted in place.
    pub pairs_repaired: usize,
    /// Pairs whose network had to rebuild (support change).
    pub pairs_rebuilt: usize,
    /// The first inconsistent pair, when the decision is negative on
    /// pairwise evidence.
    pub inconsistent_pair: Option<(usize, usize)>,
    /// True iff the cyclic branch re-ran the exact integer search.
    pub full_search: bool,
    /// Search nodes of that run (0 otherwise).
    pub search_nodes: u64,
    /// Why the decision is [`Decision::Unknown`], when it is: the cyclic
    /// search's node budget ran out ([`AbortReason::NodeBudget`]), the
    /// per-update deadline expired, or a cancel token fired.
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
    /// decision is computed once (pair networks solved and cached), and
    /// each subsequent [`ConsistencyStream::update`] re-decides at
    /// delta-proportional cost. See the [`stream`](crate::stream)
    /// module docs for the caching and fallback invariants.
    pub fn open_stream(&self, bags: Vec<Bag>) -> Result<ConsistencyStream, SessionError> {
        ConsistencyStream::open(self, bags.into_iter().map(Arc::new).collect(), None)
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
        ConsistencyStream::open(self, bags, None)
    }

    /// [`Session::open_stream_shared`] resuming from persisted warm
    /// state: `flows` is the per-pair middle-edge flow column a previous
    /// stream exported through [`ConsistencyStream::warm_flows`] (and a
    /// snapshot round-tripped). Each pair's network is still rebuilt
    /// deterministically from the bags, but the feasible flow is
    /// reinstalled instead of re-augmented from zero — a column that no
    /// longer matches the rebuilt network is simply ignored, falling
    /// back to the cold path, so stale warm state costs nothing but
    /// time.
    pub fn open_stream_resumed(
        &self,
        bags: Vec<Arc<Bag>>,
        flows: &[Option<Vec<u64>>],
    ) -> Result<ConsistencyStream, SessionError> {
        ConsistencyStream::open(self, bags, Some(flows))
    }
}

/// One delta of a batch: the target bag index and the delta to apply.
pub type BatchEdit = (usize, DeltaSet);

impl ConsistencyStream {
    fn open(
        session: &Session,
        mut bags: Vec<Arc<Bag>>,
        warm: Option<&[Option<Vec<u64>>]>,
    ) -> Result<Self, SessionError> {
        let (exec, solver) = session.arm();
        for bag in &mut bags {
            if !bag.is_sealed() {
                Arc::make_mut(bag).try_seal_with(&exec)?;
            }
        }
        let totals: Vec<u128> = bags.iter().map(|b| b.unary_size()).collect();
        let refs: Vec<&Bag> = bags.iter().map(|b| b.as_ref()).collect();
        let acyclic = is_acyclic(&schema_hypergraph(&refs));
        let mut pairs = Vec::new();
        for i in 0..bags.len() {
            for j in (i + 1)..bags.len() {
                let shared = bags[i].schema().intersection(bags[j].schema());
                let (check, consistent) = if shared.arity() == 0 {
                    (PairCheck::Totals, totals[i] == totals[j])
                } else {
                    let mut net = ConsistencyNetwork::build_with(&bags[i], &bags[j], &exec)?;
                    // Reinstall persisted warm flow for this pair, if
                    // any; a non-matching column is ignored and the
                    // reaugment below runs cold.
                    if let Some(column) = warm
                        .and_then(|w| w.get(pairs.len()))
                        .and_then(|f| f.as_ref())
                    {
                        net.install_flows(column);
                    }
                    let consistent = net.try_reaugment(&exec)?;
                    (PairCheck::Network(Box::new(net)), consistent)
                };
                pairs.push(PairState {
                    i,
                    j,
                    check,
                    consistent,
                    stale: false,
                });
            }
        }
        let mut stream = ConsistencyStream {
            exec: session.exec().clone(),
            solver: session.solver().clone(),
            time_budget: session.time_budget(),
            bags,
            totals,
            acyclic,
            pairs,
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

    /// Applies `delta` to bag `bag`, repairs the touched pair caches,
    /// and re-decides. Errors before the delta commits are atomic; a
    /// deadline expiry after it degrades to [`Decision::Unknown`] with
    /// stale pairs queued for the next update (see the module docs).
    pub fn update(&mut self, bag: usize, delta: &DeltaSet) -> Result<UpdateOutcome, SessionError> {
        self.update_impl(&[(bag, delta)])
    }

    /// Applies a whole batch of deltas, then repairs each touched pair
    /// **once** and re-decides **once** — the amortized form of calling
    /// [`ConsistencyStream::update`] per delta. The batch is atomic: on
    /// any apply failure the already-applied prefix is rolled back (with
    /// negated deltas) and the error is returned with the stream state
    /// unchanged. An empty batch re-decides without touching the bags
    /// (repairing any pairs left stale by an earlier aborted pass).
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
        let (repaired, rebuilt, abort) = self.repair(edits, &applied, &exec)?;
        push_stage(&mut stages, "repair", t);

        let t = Instant::now();
        let full_search = if let Some(reason) = abort {
            // Pairs past the abort point are stale: the decision cannot
            // be trusted until a later pass rebuilds them.
            self.decision = Decision::Unknown;
            self.abort_reason = Some(reason);
            self.inconsistent_pair = None;
            self.search_nodes = 0;
            false
        } else {
            self.decide(&solver)?
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
                Ok(a) => {
                    self.totals[*bag] = (self.totals[*bag] as i128 + a.unary_change) as u128;
                    applied.push(a);
                }
                Err(e) => {
                    // Roll back the applied prefix, newest first, under
                    // an ungoverned deadline (a rollback must not be
                    // interrupted by the same expiry that may have
                    // caused the failure).
                    let ungoverned = exec.clone().with_deadline(Deadline::NONE);
                    let mut rollback_failed = false;
                    for (b, d) in edits[..k].iter().rev() {
                        let neg = negated(d);
                        match Arc::make_mut(&mut self.bags[*b]).apply_delta_with(&neg, &ungoverned)
                        {
                            Ok(undone) => {
                                self.totals[*b] =
                                    (self.totals[*b] as i128 + undone.unary_change) as u128;
                            }
                            Err(_) => rollback_failed = true,
                        }
                    }
                    if rollback_failed {
                        // The pre-batch state could not be restored
                        // (should be impossible: reverting a just-applied
                        // delta cannot overflow). Poison every cache so
                        // nothing stale feeds a decision.
                        for p in &mut self.pairs {
                            p.stale = true;
                        }
                        self.decision = Decision::Unknown;
                        self.abort_reason = None;
                        self.inconsistent_pair = None;
                        self.search_nodes = 0;
                        self.witness = None;
                    }
                    return Err(e.into());
                }
            }
        }
        Ok(applied)
    }

    /// Marks every pair from `idx` on whose cache an edit to one of the
    /// `edited` bags invalidated (already-stale pairs stay stale).
    fn mark_stale_from(&mut self, idx: usize, edited: &[bool]) {
        for p in &mut self.pairs[idx..] {
            if edited[p.i] || edited[p.j] {
                p.stale = true;
            }
        }
    }

    /// Repairs or rebuilds every pair cache invalidated by the batch,
    /// plus any pair left stale by an earlier aborted pass. Each touched
    /// pair is processed once: all capacity edits first, then a single
    /// re-augmentation (the batch amortization). Returns
    /// `(repaired, rebuilt, abort)`; on `abort` the unprocessed pairs
    /// are stale and the caller must not trust the cached flags.
    fn repair(
        &mut self,
        edits: &[(usize, &DeltaSet)],
        applied: &[DeltaApply],
        exec: &ExecConfig,
    ) -> Result<(usize, usize, Option<AbortReason>), SessionError> {
        enum Step {
            Totals,
            Repaired,
            Rebuilt,
            Abort(AbortReason),
            Fail(CoreError),
        }
        let mut repaired = 0usize;
        let mut rebuilt = 0usize;
        // Per-bag view of the batch: was it edited at all, and did any
        // of its deltas change the support?
        let mut edited = vec![false; self.bags.len()];
        let mut support_changed = vec![false; self.bags.len()];
        for ((bag, _), a) in edits.iter().zip(applied) {
            edited[*bag] = true;
            support_changed[*bag] |= a.support_changed();
        }
        let have_stale = self.pairs.iter().any(|p| p.stale);
        if applied.iter().all(DeltaApply::is_noop) && !have_stale {
            return Ok((0, 0, None));
        }
        self.witness = None;
        for idx in 0..self.pairs.len() {
            let (was_stale, touched) = {
                let p = &self.pairs[idx];
                (p.stale, edited[p.i] || edited[p.j])
            };
            if !touched && !was_stale {
                continue;
            }
            if let Some(reason) = exec.deadline().poll() {
                self.mark_stale_from(idx, &edited);
                return Ok((repaired, rebuilt, Some(reason)));
            }
            let step = {
                let p = &mut self.pairs[idx];
                match &mut p.check {
                    PairCheck::Totals => {
                        p.consistent = self.totals[p.i] == self.totals[p.j];
                        p.stale = false;
                        Step::Totals
                    }
                    PairCheck::Network(net) => {
                        // The delta-based in-place patch is only sound
                        // for a network that saw every earlier edit, and
                        // only while the support of both sides held.
                        let support_broke = (edited[p.i] && support_changed[p.i])
                            || (edited[p.j] && support_changed[p.j]);
                        let mut in_place = !was_stale && touched && !support_broke;
                        if in_place {
                            'edits: for (bag, delta) in edits {
                                let side = if *bag == p.i {
                                    Side::R
                                } else if *bag == p.j {
                                    Side::S
                                } else {
                                    continue;
                                };
                                for e in delta.edits() {
                                    let mult = self.bags[*bag].multiplicity(e.row());
                                    if !net.apply_edit(side, e.row(), mult) {
                                        // A row the network never saw:
                                        // the support did change for this
                                        // pair's purposes — rebuild.
                                        in_place = false;
                                        break 'edits;
                                    }
                                }
                            }
                        }
                        if in_place {
                            match net.try_reaugment(exec) {
                                Ok(consistent) => {
                                    p.consistent = consistent;
                                    p.stale = false;
                                    Step::Repaired
                                }
                                Err(CoreError::Aborted(reason)) => {
                                    p.stale = true;
                                    Step::Abort(reason)
                                }
                                Err(e) => {
                                    p.stale = true;
                                    Step::Fail(e)
                                }
                            }
                        } else {
                            let built = ConsistencyNetwork::build_with(
                                &self.bags[p.i],
                                &self.bags[p.j],
                                exec,
                            )
                            .and_then(|mut fresh| {
                                let consistent = fresh.try_reaugment(exec)?;
                                Ok((fresh, consistent))
                            });
                            match built {
                                Ok((fresh, consistent)) => {
                                    p.consistent = consistent;
                                    **net = fresh;
                                    p.stale = false;
                                    Step::Rebuilt
                                }
                                Err(CoreError::Aborted(reason)) => {
                                    p.stale = true;
                                    Step::Abort(reason)
                                }
                                Err(e) => {
                                    p.stale = true;
                                    Step::Fail(e)
                                }
                            }
                        }
                    }
                }
            };
            match step {
                Step::Totals => {}
                Step::Repaired => repaired += 1,
                Step::Rebuilt => rebuilt += 1,
                Step::Abort(reason) => {
                    self.mark_stale_from(idx + 1, &edited);
                    return Ok((repaired, rebuilt, Some(reason)));
                }
                Step::Fail(e) => {
                    // Worker panic (or another hard failure) during a
                    // rebuild: the pair's old network is untouched but
                    // out of date. Degrade the decision and surface the
                    // contained error; the next update rebuilds.
                    self.mark_stale_from(idx + 1, &edited);
                    self.decision = Decision::Unknown;
                    self.abort_reason = None;
                    self.inconsistent_pair = None;
                    self.search_nodes = 0;
                    self.witness = None;
                    return Err(e.into());
                }
            }
        }
        Ok((repaired, rebuilt, None))
    }

    /// Recomputes the global decision from the pair caches; returns
    /// whether the exact search ran (cyclic branch, pairwise clean).
    fn decide(&mut self, solver: &SolverConfig) -> Result<bool, SessionError> {
        debug_assert!(
            self.pairs.iter().all(|p| !p.stale),
            "decide must not read stale pair caches"
        );
        self.abort_reason = None;
        self.inconsistent_pair = self
            .pairs
            .iter()
            .find(|p| !p.consistent)
            .map(|p| (p.i, p.j));
        if self.inconsistent_pair.is_some() {
            // Pairwise inconsistency refutes global consistency on both
            // branches — no further work.
            self.decision = Decision::Inconsistent;
            self.search_nodes = 0;
            return Ok(false);
        }
        if self.acyclic {
            // Theorem 2: acyclic + pairwise consistent ⇒ consistent.
            self.decision = Decision::Consistent;
            self.search_nodes = 0;
            return Ok(false);
        }
        // Cyclic schema: pairwise consistency does not decide — fall
        // back to the exact integer search (the documented limit of the
        // incremental path).
        let refs: Vec<&Bag> = self.bags.iter().map(|b| b.as_ref()).collect();
        let report = globally_consistent_via_ilp(&refs, solver).map_err(SessionError::Core)?;
        self.search_nodes = report.stats.nodes;
        self.decision = match report.outcome {
            IlpOutcome::Sat(_) => Decision::Consistent,
            IlpOutcome::Unsat => Decision::Inconsistent,
            IlpOutcome::Aborted(reason) => {
                self.abort_reason = Some(reason);
                Decision::Unknown
            }
        };
        Ok(true)
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
    /// (deadline expiry, cancellation, or an exhausted node budget).
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

    /// A global witness for the current state, computed on demand and
    /// cached until the next update; `None` unless currently consistent.
    pub fn witness(&mut self) -> Result<Option<&Bag>, SessionError> {
        if self.decision != Decision::Consistent {
            return Ok(None);
        }
        if self.witness.is_none() {
            let (exec, solver) = self.arm();
            let refs: Vec<&Bag> = self.bags.iter().map(|b| b.as_ref()).collect();
            let out = check_impl(&refs, &solver, &exec)?;
            debug_assert!(
                out.decision == Decision::Consistent || out.abort_reason.is_some(),
                "a consistent stream state must re-verify (or abort)"
            );
            self.witness = out.witness;
        }
        Ok(self.witness.as_ref())
    }

    /// Exports the warm per-pair flow columns — one entry per pair in
    /// lexicographic `i < j` order, `Some` for network-backed pairs and
    /// `None` for totals-only (disjoint-schema) pairs. Persist this
    /// alongside the bags (`SnapshotWriter::set_flows`) and feed it to
    /// [`Session::open_stream_resumed`] after a restart to skip the
    /// cold max-flow.
    pub fn warm_flows(&self) -> Vec<Option<Vec<u64>>> {
        self.pairs
            .iter()
            .map(|p| match &p.check {
                PairCheck::Totals => None,
                PairCheck::Network(net) => Some(net.edge_flows()),
            })
            .collect()
    }
}

/// The sign-flipped copy of a delta set (used to roll back a batch).
fn negated(delta: &DeltaSet) -> DeltaSet {
    let mut neg = DeltaSet::new(delta.schema().clone());
    for e in delta.edits() {
        neg.bump(e.row(), -e.delta())
            .expect("negation preserves arity");
    }
    neg
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::{Attr, Schema};

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
        let (r, s) = path_pair();
        let t = Bag::from_u64s(schema(&[3]), [(&[9u64][..], 5)]).unwrap();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r, s, t]).unwrap();
        // totals: 5 vs 5 vs 5 — fully consistent, acyclic
        assert_eq!(stream.decision(), Decision::Consistent);

        // add a fresh row to bag 0: its support changes, so pair (0,1)
        // rebuilds; pair (0,2) is totals-only; pair (1,2) is untouched.
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[2, 0], 1).unwrap();
        let out = stream.update(0, &d).unwrap();
        assert!(out.applied.support_changed());
        assert_eq!(out.pairs_rebuilt, 1);
        assert_eq!(out.pairs_repaired, 0);
        assert_eq!(out.decision, Decision::Inconsistent);

        // matching bump on an existing S row: in-place on pair (0,1)
        let mut d = DeltaSet::new(schema(&[1, 2]));
        d.bump_u64s(&[0, 7], 1).unwrap();
        let out = stream.update(1, &d).unwrap();
        assert_eq!(out.pairs_rebuilt, 0);
        assert_eq!(out.pairs_repaired, 1);
        // bag 2 is now one short on totals
        assert_eq!(out.decision, Decision::Inconsistent);
        assert_eq!(out.inconsistent_pair, Some((0, 2)));
        let mut d = DeltaSet::new(schema(&[3]));
        d.bump_u64s(&[9], 1).unwrap();
        let out = stream.update(2, &d).unwrap();
        assert_eq!(out.decision, Decision::Consistent);
        assert_eq!(out.pairs_rebuilt, 0, "totals pairs never rebuild");
    }

    #[test]
    fn net_zero_fresh_row_edit_still_repairs_in_place() {
        // A batch that touches a row the network never saw but folds it
        // back to zero is support-preserving end to end: the repair must
        // warm-restart, not rebuild.
        let (r, s) = path_pair();
        let session = Session::default();
        let mut stream = session.open_stream(vec![r, s]).unwrap();
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[0, 0], 1).unwrap();
        d.bump_u64s(&[9, 9], 4).unwrap();
        d.bump_u64s(&[9, 9], -4).unwrap();
        let out = stream.update(0, &d).unwrap();
        assert!(!out.applied.support_changed());
        assert_eq!(out.pairs_repaired, 1, "net-zero fresh row must not rebuild");
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
    fn cancelled_token_never_corrupts_stream_state() {
        let token = bagcons_core::CancelToken::new();
        let exec = ExecConfig::builder()
            .deadline(bagcons_core::Deadline::cancelled_by(token.clone()))
            .build()
            .unwrap();
        let session = Session::builder().exec(exec).build().unwrap();
        let (r, s) = path_pair();
        let mut stream = session.open_stream(vec![r, s]).unwrap();
        assert_eq!(stream.decision(), Decision::Consistent);

        token.cancel();
        let mut d = DeltaSet::new(schema(&[0, 1]));
        d.bump_u64s(&[0, 0], 1).unwrap();
        // the abort surfaces either before the delta commits (atomic
        // apply-stage error, state untouched) or after (degraded Unknown
        // outcome) — never as a decision computed from half-repaired pairs
        match stream.update(0, &d) {
            Err(SessionError::Core(CoreError::Aborted(AbortReason::Cancelled))) => {
                assert_eq!(stream.decision(), Decision::Consistent);
                assert_eq!(stream.bags()[0].unary_size(), 5);
            }
            Ok(out) => {
                assert_eq!(out.decision, Decision::Unknown);
                assert_eq!(out.abort_reason, Some(AbortReason::Cancelled));
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
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
}
