//! The `Session` facade: one config-carrying entry surface for the
//! whole consistency pipeline.
//!
//! A [`Session`] owns every piece of configuration the pipeline needs —
//! the [`ExecConfig`], the [`SolverConfig`], the [`NameInterner`], and
//! the search budgets — once, instead of each call carrying them by hand:
//!
//! ```
//! use bagcons::session::{Decision, Session};
//! use bagcons::report::{Render, ReportFormat};
//!
//! let mut session = Session::builder().threads(2).build()?;
//! let r = session.load_bag("A B #\n0 0 : 2\n1 1 : 3\n")?;
//! let s = session.load_bag("B C #\n0 7 : 2\n1 8 : 3\n")?;
//!
//! let outcome = session.check(&[&r, &s])?;
//! assert_eq!(outcome.decision, Decision::Consistent);
//! assert!(outcome.branch.is_acyclic());
//!
//! // every outcome renders to human text and machine-readable JSON
//! let json = outcome.render(ReportFormat::Json, session.names());
//! assert!(json.contains("\"decision\":\"consistent\""));
//! # Ok::<(), bagcons::session::SessionError>(())
//! ```
//!
//! The methods ([`Session::check`], [`Session::witness`],
//! [`Session::diagnose`], [`Session::pairwise_report`],
//! [`Session::schema_report`], [`Session::counterexample`]) return
//! **typed outcome structs** — decision + per-stage timings + which
//! branch of Theorem 4's dichotomy ran, and from `witness` the witness
//! bag — all implementing [`Render`]. The lower-level operations
//! (Lemma 2's pair test, Corollary 1's witness, Theorem 6's chain, the global-witness check,
//! the reducers) are plain-typed `Session` methods too; the
//! `_with(&ExecConfig)` functions they run are crate-private, so each
//! operation has exactly one public path.
//!
//! For edit-heavy workloads, [`Session::open_stream`] upgrades the
//! one-shot [`Session::check`] into an incremental
//! [`crate::stream::ConsistencyStream`] that re-decides each
//! multiplicity delta at delta-proportional cost.

use crate::acyclic::{witness_chain, AcyclicError, WitnessStrategy};
use crate::diagnose::{diagnose_bags, Diagnosis};
use crate::global::{globally_consistent_via_ilp, is_global_witness_with, schema_hypergraph};
use crate::lifting::LiftError;
use crate::pairwise::{bags_consistent, fill_witness_with, first_inconsistent_pair_with};
use crate::reducer::{acyclic_join_with, naive_bag_semijoin_with, semijoin_with};
use crate::report::{Json, Lemma2Report, Render};
use bagcons_core::io::{parse_bag_with, write_bag, NameInterner, ParseError};
use bagcons_core::{
    AbortReason, AttrNames, Bag, CoreError, Deadline, ExecConfig, Relation, Schema,
};
use bagcons_hypergraph::{
    find_obstruction, is_acyclic, is_chordal, is_conformal, rip_order, Hypergraph, Obstruction,
    ObstructionKind,
};
use bagcons_lp::ilp::{IlpOutcome, SolverConfig};
use bagcons_snap::{looks_like_snapshot, SnapError, Snapshot, SnapshotWriter};
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Any failure a [`Session`] method can surface.
#[derive(Debug)]
pub enum SessionError {
    /// A bag failed to parse ([`Session::load_bag`]).
    Parse(ParseError),
    /// A core operation failed (overflow, schema mismatch, bad config).
    Core(CoreError),
    /// The counterexample lift failed.
    Lift(LiftError),
    /// Reading a bag file failed ([`Session::load_bag_file`]).
    Io(std::io::Error),
    /// A snapshot failed to open or decode ([`Session::load_snapshot`]).
    Snap(SnapError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "{e}"),
            SessionError::Core(e) => write!(f, "{e}"),
            SessionError::Lift(e) => write!(f, "{e}"),
            SessionError::Io(e) => write!(f, "{e}"),
            SessionError::Snap(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::Parse(e) => Some(e),
            SessionError::Core(e) => Some(e),
            SessionError::Lift(e) => Some(e),
            SessionError::Io(e) => Some(e),
            SessionError::Snap(e) => Some(e),
        }
    }
}

impl From<ParseError> for SessionError {
    fn from(e: ParseError) -> Self {
        match e {
            // A deadline or a worker panic in the parser's arena sort is
            // a core failure, reported as any other bulk operator's.
            ParseError::Core(e) => SessionError::Core(e),
            e => SessionError::Parse(e),
        }
    }
}

impl From<CoreError> for SessionError {
    fn from(e: CoreError) -> Self {
        SessionError::Core(e)
    }
}

impl From<LiftError> for SessionError {
    fn from(e: LiftError) -> Self {
        SessionError::Lift(e)
    }
}

impl From<std::io::Error> for SessionError {
    fn from(e: std::io::Error) -> Self {
        SessionError::Io(e)
    }
}

impl From<SnapError> for SessionError {
    fn from(e: SnapError) -> Self {
        SessionError::Snap(e)
    }
}

/// A typed dataset input: the tabular text format or a binary snapshot.
///
/// This is the one vocabulary the CLI (`check`/`watch`/`serve` file
/// args), the daemon's `load` verb, and [`Session::load_source`] share —
/// it replaces the three divergent parse-and-seal call sites that each
/// assumed "file" meant "text".
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DatasetSource {
    /// Tabular text ([`Session::load_bag`] format); one bag per file.
    Text(PathBuf),
    /// Binary snapshot (`bagcons-snap`); may hold several bags.
    Snapshot(PathBuf),
}

impl DatasetSource {
    /// Classifies the file at `path` by magic bytes: files beginning
    /// with the snapshot magic are [`DatasetSource::Snapshot`],
    /// everything else (including files shorter than the magic) is
    /// [`DatasetSource::Text`]. Only the first eight bytes are read.
    pub fn detect(path: impl AsRef<Path>) -> Result<DatasetSource, std::io::Error> {
        use std::io::Read;
        let path = path.as_ref().to_path_buf();
        let mut head = [0u8; 8];
        let mut file = std::fs::File::open(&path)?;
        let mut got = 0;
        while got < head.len() {
            match file.read(&mut head[got..])? {
                0 => break,
                n => got += n,
            }
        }
        Ok(if looks_like_snapshot(&head[..got]) {
            DatasetSource::Snapshot(path)
        } else {
            DatasetSource::Text(path)
        })
    }

    /// The underlying file path.
    pub fn path(&self) -> &Path {
        match self {
            DatasetSource::Text(p) | DatasetSource::Snapshot(p) => p,
        }
    }

    /// Stable kind tag (`text` / `snapshot`) for logs and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            DatasetSource::Text(_) => "text",
            DatasetSource::Snapshot(_) => "snapshot",
        }
    }
}

/// The three-valued decision of a consistency question.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Globally consistent (a witness exists).
    Consistent,
    /// Not globally consistent.
    Inconsistent,
    /// The search budget ran out before a decision (cyclic branch only).
    Unknown,
}

impl Decision {
    /// Stable machine-readable tag (`consistent` / `inconsistent` /
    /// `unknown`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Decision::Consistent => "consistent",
            Decision::Inconsistent => "inconsistent",
            Decision::Unknown => "unknown",
        }
    }

    /// The CLI exit-code convention: 0 = yes, 1 = no, 3 = undecided.
    pub fn exit_code(&self) -> u8 {
        match self {
            Decision::Consistent => 0,
            Decision::Inconsistent => 1,
            Decision::Unknown => 3,
        }
    }
}

/// Which branch of Theorem 4's dichotomy ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Branch {
    /// Acyclic schema: the polynomial path, where pairwise consistency
    /// decides (Theorem 2) and witnesses come from Theorem 6's chain.
    Acyclic,
    /// Cyclic schema: the exact integer search over `P(R₁,…,R_m)`.
    CyclicSearch,
}

impl Branch {
    /// True on the polynomial (acyclic) branch.
    pub fn is_acyclic(&self) -> bool {
        matches!(self, Branch::Acyclic)
    }

    /// Stable machine-readable tag (`acyclic` / `cyclic-search`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Branch::Acyclic => "acyclic",
            Branch::CyclicSearch => "cyclic-search",
        }
    }

    /// The CLI's legacy human label.
    fn path_str(&self) -> &'static str {
        match self {
            Branch::Acyclic => "acyclic/polynomial",
            Branch::CyclicSearch => "cyclic/search",
        }
    }
}

/// Wall-clock time of one pipeline stage.
#[derive(Clone, Copy, Debug)]
pub struct StageTiming {
    /// Stage tag (`schema`, `pairwise`, `witness`, `search`, …).
    pub stage: &'static str,
    /// Elapsed wall-clock time.
    pub duration: Duration,
}

impl StageTiming {
    /// Elapsed microseconds (saturating) — the unit the JSON reports use.
    pub fn micros(&self) -> u64 {
        u64::try_from(self.duration.as_micros()).unwrap_or(u64::MAX)
    }
}

pub(crate) fn push_stage(stages: &mut Vec<StageTiming>, stage: &'static str, since: Instant) {
    stages.push(StageTiming {
        stage,
        duration: since.elapsed(),
    });
}

pub(crate) fn json_stages(j: &mut Json, stages: &[StageTiming]) {
    j.key("stages");
    j.begin_array();
    for s in stages {
        j.begin_object();
        j.field_str("stage", s.stage);
        j.field_u64("micros", s.micros());
        j.end_object();
    }
    j.end_array();
}

fn json_schema(j: &mut Json, schema: &Schema, names: &AttrNames) {
    j.begin_array();
    for a in schema.iter() {
        j.string(&names.name(a));
    }
    j.end_array();
}

fn json_bag_summary(j: &mut Json, bag: &Bag, names: &AttrNames) {
    j.begin_object();
    j.key("schema");
    json_schema(j, bag.schema(), names);
    j.field_u64("support", bag.support_size() as u64);
    j.field_u128("total", bag.unary_size());
    j.end_object();
}

fn json_bag_rows(j: &mut Json, bag: &Bag, names: &AttrNames) {
    j.begin_object();
    j.key("schema");
    json_schema(j, bag.schema(), names);
    j.key("rows");
    j.begin_array();
    for (row, m) in bag.iter_sorted() {
        j.begin_object();
        j.key("row");
        j.begin_array();
        for v in row {
            j.u64(v.get());
        }
        j.end_array();
        j.field_u64("count", m);
        j.end_object();
    }
    j.end_array();
    j.end_object();
}

fn json_obstruction(j: &mut Json, ob: &Obstruction, names: &AttrNames) {
    j.begin_object();
    j.field_str("kind", &obstruction_kind_tag(&ob.kind));
    j.key("vertices");
    json_schema(j, &ob.w, names);
    j.field_u64("safe_deletions", ob.deletions.len() as u64);
    j.end_object();
}

fn obstruction_kind_tag(kind: &ObstructionKind) -> String {
    match kind {
        ObstructionKind::Cycle(n) => format!("C{n}"),
        ObstructionKind::CliqueComplement(n) => format!("H{n}"),
    }
}

/// Renders a schema with display names, e.g. `{Origin, Dest}`.
fn pretty_schema(s: &Schema, names: &AttrNames) -> String {
    let cells: Vec<String> = s.iter().map(|a| names.name(a)).collect();
    format!("{{{}}}", cells.join(", "))
}

/// Outcome of [`Session::check`]: the Theorem 4 decision with its branch,
/// search effort, and per-stage timings. [`Session::witness`] returns the
/// same outcome with the witness filled in.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The decision.
    pub decision: Decision,
    /// Which dichotomy branch ran.
    pub branch: Branch,
    /// Exact-search nodes explored (0 on the acyclic branch).
    pub search_nodes: u64,
    /// A witness bag over the union schema: set by [`Session::witness`]
    /// when consistent, always `None` from [`Session::check`].
    pub witness: Option<Bag>,
    /// The first inconsistent index pair, in lexicographic order, on
    /// acyclic-branch refusals.
    pub inconsistent_pair: Option<(usize, usize)>,
    /// Why the decision is [`Decision::Unknown`], when it is: the node
    /// budget ran out, the session deadline expired, or a
    /// [`bagcons_core::CancelToken`] fired. `None` on decided outcomes.
    pub abort_reason: Option<AbortReason>,
    /// Wall-clock timings per pipeline stage, in execution order.
    pub stages: Vec<StageTiming>,
}

impl Render for CheckOutcome {
    fn text(&self, _names: &AttrNames) -> String {
        match self.decision {
            Decision::Consistent => format!(
                "globally consistent ({}, {} nodes)",
                self.branch.path_str(),
                self.search_nodes
            ),
            Decision::Inconsistent => format!(
                "NOT globally consistent ({}, {} nodes)",
                self.branch.path_str(),
                self.search_nodes
            ),
            Decision::Unknown => {
                let why = match self.abort_reason {
                    Some(reason) => reason.describe(),
                    None => "search budget exhausted",
                };
                format!("undecided: {why} ({} nodes)", self.search_nodes)
            }
        }
    }

    fn json(&self, names: &AttrNames) -> String {
        let mut j = Json::new();
        j.begin_object();
        j.field_str("report", "check");
        j.field_str("decision", self.decision.as_str());
        j.field_str("branch", self.branch.as_str());
        j.field_u64("search_nodes", self.search_nodes);
        j.key("abort_reason");
        match self.abort_reason {
            Some(reason) => j.string(reason.as_str()),
            None => j.null(),
        }
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
        j.key("witness");
        match &self.witness {
            Some(w) => json_bag_summary(&mut j, w, names),
            None => j.null(),
        }
        json_stages(&mut j, &self.stages);
        j.end_object();
        j.finish()
    }
}

/// Outcome of [`Session::witness`]: the [`CheckOutcome`] of the same
/// inputs with its witness built, rendered as the full witness bag.
#[derive(Clone, Debug)]
pub struct WitnessOutcome {
    /// The underlying decision.
    pub check: CheckOutcome,
}

impl WitnessOutcome {
    /// The witness bag, when one exists.
    pub fn witness(&self) -> Option<&Bag> {
        self.check.witness.as_ref()
    }
}

impl Render for WitnessOutcome {
    fn text(&self, names: &AttrNames) -> String {
        match (&self.check.decision, self.witness()) {
            (Decision::Consistent, Some(w)) => write_bag(w, names),
            (Decision::Unknown, _) => {
                let why = match self.check.abort_reason {
                    Some(reason) => reason.describe(),
                    None => "search budget exhausted",
                };
                format!("undecided: {why}")
            }
            _ => "no witness: the bags are not globally consistent".to_string(),
        }
    }

    fn json(&self, names: &AttrNames) -> String {
        let mut j = Json::new();
        j.begin_object();
        j.field_str("report", "witness");
        j.field_str("decision", self.check.decision.as_str());
        j.field_str("branch", self.check.branch.as_str());
        j.field_u64("search_nodes", self.check.search_nodes);
        j.key("abort_reason");
        match self.check.abort_reason {
            Some(reason) => j.string(reason.as_str()),
            None => j.null(),
        }
        j.key("witness");
        match self.witness() {
            Some(w) => json_bag_rows(&mut j, w, names),
            None => j.null(),
        }
        json_stages(&mut j, &self.check.stages);
        j.end_object();
        j.finish()
    }
}

/// Outcome of [`Session::diagnose`]: the per-tuple evidence plus timings.
#[derive(Debug)]
pub struct DiagnoseOutcome {
    /// The structured diagnosis.
    pub diagnosis: Diagnosis,
    /// Wall-clock timings per pipeline stage.
    pub stages: Vec<StageTiming>,
}

impl Render for DiagnoseOutcome {
    fn text(&self, names: &AttrNames) -> String {
        match &self.diagnosis {
            Diagnosis::PairwiseConsistent {
                acyclic,
                obstruction,
            } => {
                let mut out = String::from("pairwise consistent\n");
                if *acyclic {
                    out.push_str("schema is acyclic ⇒ globally consistent (Theorem 2)\n");
                } else {
                    out.push_str(
                        "schema is CYCLIC: pairwise consistency does not imply global \
                         consistency here — run `bagcons check` for the full decision\n",
                    );
                    if let Some(ob) = obstruction {
                        let kind = match ob.kind {
                            ObstructionKind::Cycle(n) => format!("C{n} (chordless cycle)"),
                            ObstructionKind::CliqueComplement(n) => {
                                format!("H{n} (uncovered clique)")
                            }
                        };
                        out.push_str(&format!(
                            "minimal obstruction: {kind} on vertices {}\n",
                            pretty_schema(&ob.w, names)
                        ));
                    }
                }
                out
            }
            Diagnosis::PairwiseInconsistent(ms) => {
                let mut out = format!("pairwise INCONSISTENT — {} mismatch(es):\n", ms.len());
                for m in ms {
                    out.push_str(&format!("  {m}\n"));
                }
                out
            }
        }
    }

    fn json(&self, names: &AttrNames) -> String {
        let mut j = Json::new();
        j.begin_object();
        j.field_str("report", "diagnose");
        match &self.diagnosis {
            Diagnosis::PairwiseConsistent {
                acyclic,
                obstruction,
            } => {
                j.field_bool("pairwise_consistent", true);
                j.field_bool("acyclic", *acyclic);
                j.key("obstruction");
                match obstruction {
                    Some(ob) => json_obstruction(&mut j, ob, names),
                    None => j.null(),
                }
                j.key("mismatches");
                j.begin_array();
                j.end_array();
            }
            Diagnosis::PairwiseInconsistent(ms) => {
                j.field_bool("pairwise_consistent", false);
                j.key("acyclic");
                j.null();
                j.key("obstruction");
                j.null();
                j.key("mismatches");
                j.begin_array();
                for m in ms {
                    j.begin_object();
                    j.field_u64("left", m.left as u64);
                    j.field_u64("right", m.right as u64);
                    j.key("common");
                    json_schema(&mut j, &m.common, names);
                    j.key("tuple");
                    j.begin_array();
                    for v in m.tuple.iter() {
                        j.u64(v.get());
                    }
                    j.end_array();
                    j.field_u64("left_count", m.left_count);
                    j.field_u64("right_count", m.right_count);
                    j.end_object();
                }
                j.end_array();
            }
        }
        json_stages(&mut j, &self.stages);
        j.end_object();
        j.finish()
    }
}

/// Outcome of [`Session::pairwise_report`]: Lemma 2's five independently
/// computed characterizations for one pair of bags.
#[derive(Clone, Debug)]
pub struct PairwiseOutcome {
    /// The five truth values (and the witness, if any).
    pub report: Lemma2Report,
    /// Wall-clock timings per pipeline stage.
    pub stages: Vec<StageTiming>,
}

impl Render for PairwiseOutcome {
    fn text(&self, _names: &AttrNames) -> String {
        let r = &self.report;
        let verdict = if r.all_agree() {
            format!(
                "consistent: {} (all five characterizations agree — Lemma 2)",
                r.marginals_equal
            )
        } else {
            "DISAGREEMENT among Lemma 2's characterizations (a bug, or a search budget \
             abort misreported as infeasible)"
                .to_string()
        };
        format!(
            "Lemma 2 characterizations:\n\
             \x20 (2) marginals equal on shared attributes: {}\n\
             \x20 (3) P(R,S) feasible over the rationals:   {}\n\
             \x20 (4) P(R,S) feasible over the integers:    {}\n\
             \x20 (5) N(R,S) admits a saturated flow:       {}\n\
             {verdict}\n",
            r.marginals_equal, r.rational_feasible, r.integral_feasible, r.saturated_flow,
        )
    }

    fn json(&self, names: &AttrNames) -> String {
        let r = &self.report;
        let mut j = Json::new();
        j.begin_object();
        j.field_str("report", "pairwise");
        j.field_bool("marginals_equal", r.marginals_equal);
        j.field_bool("rational_feasible", r.rational_feasible);
        j.field_bool("integral_feasible", r.integral_feasible);
        j.field_bool("saturated_flow", r.saturated_flow);
        j.field_bool("all_agree", r.all_agree());
        j.key("witness");
        match &r.witness {
            Some(w) => json_bag_summary(&mut j, w, names),
            None => j.null(),
        }
        json_stages(&mut j, &self.stages);
        j.end_object();
        j.finish()
    }
}

/// Outcome of [`Session::schema_report`]: the structure theory of the
/// collection's schema hypergraph.
#[derive(Clone, Debug)]
pub struct SchemaOutcome {
    /// The schema hypergraph (one hyperedge per distinct bag schema).
    pub hypergraph: Hypergraph,
    /// α-acyclicity (chordal + conformal, Theorem 1).
    pub acyclic: bool,
    /// Chordality of the primal graph.
    pub chordal: bool,
    /// Conformality.
    pub conformal: bool,
    /// A running-intersection order, when one exists.
    pub rip_order: Option<Vec<Schema>>,
    /// The minimal obstruction, when cyclic.
    pub obstruction: Option<Obstruction>,
    /// Wall-clock timings per pipeline stage.
    pub stages: Vec<StageTiming>,
}

impl Render for SchemaOutcome {
    fn text(&self, names: &AttrNames) -> String {
        let h = &self.hypergraph;
        let edges: Vec<String> = h.edges().iter().map(|e| pretty_schema(e, names)).collect();
        let mut out = format!("hyperedges: {}\n", edges.join(", "));
        out.push_str(&format!(
            "vertices: {}  edges: {}\n",
            h.num_vertices(),
            h.num_edges()
        ));
        out.push_str(&format!("acyclic:   {}\n", self.acyclic));
        out.push_str(&format!("chordal:   {}\n", self.chordal));
        out.push_str(&format!("conformal: {}\n", self.conformal));
        if let Some(order) = &self.rip_order {
            let pretty: Vec<String> = order.iter().map(|s| pretty_schema(s, names)).collect();
            out.push_str(&format!(
                "running-intersection order: {}\n",
                pretty.join(" → ")
            ));
        }
        if let Some(ob) = &self.obstruction {
            out.push_str(&format!(
                "minimal obstruction: {} on {} ({} safe deletions)\n",
                obstruction_kind_tag(&ob.kind),
                pretty_schema(&ob.w, names),
                ob.deletions.len()
            ));
        }
        out
    }

    fn json(&self, names: &AttrNames) -> String {
        let mut j = Json::new();
        j.begin_object();
        j.field_str("report", "schema");
        j.key("hyperedges");
        j.begin_array();
        for e in self.hypergraph.edges() {
            json_schema(&mut j, e, names);
        }
        j.end_array();
        j.field_u64("vertices", self.hypergraph.num_vertices() as u64);
        j.field_u64("edges", self.hypergraph.num_edges() as u64);
        j.field_bool("acyclic", self.acyclic);
        j.field_bool("chordal", self.chordal);
        j.field_bool("conformal", self.conformal);
        j.key("rip_order");
        match &self.rip_order {
            Some(order) => {
                j.begin_array();
                for s in order {
                    json_schema(&mut j, s, names);
                }
                j.end_array();
            }
            None => j.null(),
        }
        j.key("obstruction");
        match &self.obstruction {
            Some(ob) => json_obstruction(&mut j, ob, names),
            None => j.null(),
        }
        json_stages(&mut j, &self.stages);
        j.end_object();
        j.finish()
    }
}

/// Outcome of [`Session::counterexample`]: for a cyclic schema, a
/// pairwise-consistent but globally inconsistent family over the same
/// hyperedges (Theorem 2's (e) ⇒ (a) construction); `None` on acyclic
/// schemas, where no such family exists.
#[derive(Clone, Debug)]
pub struct CounterexampleOutcome {
    /// The schema hypergraph the family lives on.
    pub hypergraph: Hypergraph,
    /// One bag per hyperedge (in `hypergraph.edges()` order), or `None`
    /// when the schema is acyclic.
    pub family: Option<Vec<Bag>>,
    /// Wall-clock timings per pipeline stage.
    pub stages: Vec<StageTiming>,
}

impl Render for CounterexampleOutcome {
    fn text(&self, names: &AttrNames) -> String {
        match &self.family {
            Some(bags) => {
                let edges: Vec<String> = self
                    .hypergraph
                    .edges()
                    .iter()
                    .map(|e| pretty_schema(e, names))
                    .collect();
                let mut out = format!(
                    "% pairwise consistent but globally inconsistent over [{}]\n\
                     % one bag per hyperedge, each preceded by a marker line\n",
                    edges.join(", ")
                );
                for bag in bags {
                    out.push_str("%% ---\n");
                    out.push_str(&write_bag(bag, names));
                }
                out
            }
            None => "schema is acyclic: no such family exists (local-to-global holds, Theorem 2)\n"
                .to_string(),
        }
    }

    fn json(&self, names: &AttrNames) -> String {
        let mut j = Json::new();
        j.begin_object();
        j.field_str("report", "counterexample");
        j.field_bool("exists", self.family.is_some());
        j.key("bags");
        match &self.family {
            Some(bags) => {
                j.begin_array();
                for bag in bags {
                    json_bag_rows(&mut j, bag, names);
                }
                j.end_array();
            }
            None => j.null(),
        }
        json_stages(&mut j, &self.stages);
        j.end_object();
        j.finish()
    }
}

/// Builder for [`Session`]; see [`Session::builder`].
#[derive(Clone, Debug, Default)]
pub struct SessionBuilder {
    threads: Option<usize>,
    exec: Option<ExecConfig>,
    solver: SolverConfig,
    budget: Option<u64>,
    deadline: Option<Duration>,
    max_mismatches: Option<usize>,
}

impl SessionBuilder {
    /// Worker-thread cap for every parallel stage. Validated
    /// (`1..=ExecConfig::MAX_THREADS`) at [`SessionBuilder::build`]. Overrides the thread count of a config
    /// passed to [`SessionBuilder::exec`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Uses a fully spelled-out execution configuration (default:
    /// [`ExecConfig::default`] — one worker per core, capped at 8).
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Uses a fully spelled-out solver configuration (default:
    /// [`SolverConfig::default`] — unlimited search).
    pub fn solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Node budget for the cyclic branch's exact search; exceeding it
    /// yields [`Decision::Unknown`]. Overrides the limit of a config
    /// passed to [`SessionBuilder::solver`].
    pub fn budget(mut self, nodes: u64) -> Self {
        self.budget = Some(nodes);
        self
    }

    /// Wall-clock budget for each top-level operation: every
    /// [`Session::check`], [`Session::witness`], and
    /// [`crate::stream::ConsistencyStream::update`] arms a fresh
    /// [`Deadline`] this far in the future and polls it cooperatively
    /// (shard-chunk boundaries, flow phases, search-node batches, and
    /// between bag pairs). On expiry the operation degrades gracefully to
    /// [`Decision::Unknown`] with
    /// [`AbortReason::DeadlineExceeded`] — it never hangs and is never
    /// killed mid-mutation. Composes with any deadline already on the
    /// [`SessionBuilder::exec`] config (the earlier one wins).
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Cap on the marginal mismatches [`Session::diagnose`] collects
    /// (default 32).
    pub fn max_mismatches(mut self, cap: usize) -> Self {
        self.max_mismatches = Some(cap);
        self
    }

    /// Validates the configuration and builds the session.
    pub fn build(self) -> Result<Session, CoreError> {
        let exec = match (self.exec, self.threads) {
            (None, None) => ExecConfig::default(),
            (Some(exec), None) => exec,
            (exec, Some(threads)) => {
                let base = exec.unwrap_or_default();
                ExecConfig::builder()
                    .threads(threads)
                    .min_parallel_support(base.min_parallel_support())
                    .deadline(base.deadline().clone())
                    .build()?
            }
        };
        let mut solver = self.solver;
        if let Some(nodes) = self.budget {
            solver.node_limit = Some(nodes);
        }
        Ok(Session {
            exec,
            solver,
            time_budget: self.deadline,
            interner: NameInterner::new(),
            max_mismatches: self
                .max_mismatches
                .unwrap_or(Session::DEFAULT_MAX_MISMATCHES),
        })
    }
}

/// A configured consistency-checking context: the single public entry
/// surface over the paper's algorithms (see the [module docs](self)).
#[derive(Debug)]
pub struct Session {
    exec: ExecConfig,
    solver: SolverConfig,
    /// Per-operation wall-clock budget ([`SessionBuilder::deadline`]);
    /// each top-level call arms a fresh [`Deadline`] from it.
    time_budget: Option<Duration>,
    interner: NameInterner,
    max_mismatches: usize,
}

impl Default for Session {
    /// Equivalent to `Session::builder().build()`: default execution
    /// config (one worker per core, capped at 8), unlimited search, and
    /// a mismatch cap of [`Session::DEFAULT_MAX_MISMATCHES`].
    fn default() -> Self {
        SessionBuilder::default()
            .build()
            .expect("default Session config is valid")
    }
}

impl Session {
    /// Default cap on diagnose mismatches.
    pub const DEFAULT_MAX_MISMATCHES: usize = 32;

    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The execution configuration every parallel stage runs under.
    pub fn exec(&self) -> &ExecConfig {
        &self.exec
    }

    /// The exact-search configuration the cyclic branch runs under.
    pub fn solver(&self) -> &SolverConfig {
        &self.solver
    }

    /// The per-operation wall-clock budget, if one is configured
    /// ([`SessionBuilder::deadline`]).
    pub fn time_budget(&self) -> Option<Duration> {
        self.time_budget
    }

    /// Arms a fresh per-operation [`Deadline`] (the builder's time budget
    /// merged with any deadline on the exec config) and returns the
    /// governed exec + solver configs one top-level call runs under.
    pub(crate) fn arm(&self) -> (ExecConfig, SolverConfig) {
        arm_configs(&self.exec, &self.solver, self.time_budget)
    }

    /// The diagnose mismatch cap.
    pub fn max_mismatches(&self) -> usize {
        self.max_mismatches
    }

    /// Display names for every attribute loaded through this session.
    pub fn names(&self) -> &AttrNames {
        self.interner.names()
    }

    /// Parses a bag from the tabular text format, resolving attribute
    /// names through the session's interner so attributes are shared
    /// across all bags loaded by this session. The bag arrives sealed:
    /// the parser fills one arena that is sorted once under the
    /// session's exec config, with no separate seal.
    pub fn load_bag(&mut self, text: &str) -> Result<Bag, SessionError> {
        Ok(parse_bag_with(text, &mut self.interner, &self.exec)?)
    }

    /// [`Session::load_bag`] from a file on disk.
    pub fn load_bag_file(&mut self, path: impl AsRef<Path>) -> Result<Bag, SessionError> {
        let text = std::fs::read_to_string(path)?;
        self.load_bag(&text)
    }

    /// Loads every bag in the snapshot at `path`, restoring the stored
    /// attribute names into this session's interner (first binding of a
    /// name wins, so live names are never clobbered). Bags arrive
    /// sealed — no parsing, no interning, no sort.
    pub fn load_snapshot(&mut self, path: impl AsRef<Path>) -> Result<Vec<Bag>, SessionError> {
        let (bags, names) = Snapshot::open(path)?.into_parts();
        for (attr, name) in &names {
            self.interner.restore(*attr, name);
        }
        Ok(bags)
    }

    /// Writes `bags` as a snapshot at `path`, carrying this session's
    /// attribute-name table. Every bag must be sealed
    /// ([`SnapError::Unsealed`] otherwise — seal first, the format
    /// persists the sorted-run layout verbatim).
    pub fn write_snapshot(
        &self,
        path: impl AsRef<Path>,
        bags: &[&Bag],
    ) -> Result<(), SessionError> {
        let mut writer = SnapshotWriter::new();
        for bag in bags {
            writer.add_bag(bag).map_err(SessionError::Snap)?;
        }
        writer.set_names(self.interner.entries());
        writer.write_file(path).map_err(SessionError::Snap)?;
        Ok(())
    }

    /// Loads a dataset source, returning sealed bags either way: text
    /// sources parse through the session interner
    /// ([`Session::load_bag`]), snapshot sources decode directly. This
    /// is the one loading path the CLI, the daemon, and embedders share.
    pub fn load_source(&mut self, source: &DatasetSource) -> Result<Vec<Bag>, SessionError> {
        match source {
            DatasetSource::Text(path) => Ok(vec![self.load_bag_file(path)?]),
            DatasetSource::Snapshot(path) => self.load_snapshot(path),
        }
    }

    /// [`Session::load_source`] with the source kind auto-detected by
    /// magic bytes ([`DatasetSource::detect`]).
    pub fn load_path(&mut self, path: impl AsRef<Path>) -> Result<Vec<Bag>, SessionError> {
        let source = DatasetSource::detect(path)?;
        self.load_source(&source)
    }

    /// Serializes a bag using the session's attribute names.
    pub fn write_bag(&self, bag: &Bag) -> String {
        write_bag(bag, self.names())
    }

    /// Decides global consistency following Theorem 4's dichotomy. Lemma
    /// 2's pair test screens every pair first: pairwise consistency is
    /// necessary on any schema, so a refuted pair decides with no search.
    /// Past the screen, for a fixed schema hypergraph `H`:
    ///
    /// * if `H` is **acyclic**, the problem is polynomial — global
    ///   consistency coincides with pairwise consistency (Theorem 2), so
    ///   the screen is the whole decision;
    /// * if `H` is **cyclic**, the problem is NP-complete — the session
    ///   falls back to the exact integer search over `P(R₁,…,R_m)`
    ///   (Corollary 3's NP procedure), bounded by the node budget.
    ///
    /// `check` only decides: [`CheckOutcome::witness`] is always `None`.
    /// [`Session::witness`] builds one.
    ///
    /// [`CheckOutcome::branch`] reports which path ran and
    /// [`CheckOutcome::search_nodes`] how much search it took, so the
    /// experiment harness can measure the polynomial-vs-exponential shape
    /// the theorem predicts.
    ///
    /// Under a [`SessionBuilder::deadline`] (or a cancel token on the
    /// exec config), expiry mid-pipeline returns
    /// [`Decision::Unknown`] with the [`CheckOutcome::abort_reason`]
    /// set — never an error, never a hang.
    pub fn check(&self, bags: &[&Bag]) -> Result<CheckOutcome, SessionError> {
        let (exec, solver) = self.arm();
        Ok(check_impl(bags, &solver, &exec)?.0)
    }

    /// [`Session::check`], then the witness of a consistent collection:
    /// Theorem 6's chain on the acyclic branch (a `witness` stage that,
    /// like any governed stage, can abort to [`Decision::Unknown`]), the
    /// search's solution on the cyclic branch.
    pub fn witness(&self, bags: &[&Bag]) -> Result<WitnessOutcome, SessionError> {
        let (exec, solver) = self.arm();
        let (mut check, solution) = check_impl(bags, &solver, &exec)?;
        build_witness(bags, &mut check, solution, &exec)?;
        Ok(WitnessOutcome { check })
    }

    /// Explains *why* a collection is inconsistent: which pair disagrees
    /// on which shared tuple (capped at
    /// [`Session::max_mismatches`] mismatches), or — when every pair
    /// agrees — whether the schema's cyclicity still permits a global
    /// failure (with the minimal obstruction attached).
    pub fn diagnose(&self, bags: &[&Bag]) -> Result<DiagnoseOutcome, SessionError> {
        let mut stages = Vec::new();
        let t = Instant::now();
        let diagnosis = diagnose_bags(bags, self.max_mismatches)?;
        push_stage(&mut stages, "diagnose", t);
        Ok(DiagnoseOutcome { diagnosis, stages })
    }

    /// Computes Lemma 2's five characterizations of two-bag consistency
    /// independently (experiment E2's cross-validation).
    pub fn pairwise_report(&self, r: &Bag, s: &Bag) -> Result<PairwiseOutcome, SessionError> {
        let mut stages = Vec::new();
        let t = Instant::now();
        let report = Lemma2Report::compute_with(r, s, &self.solver, &self.exec)?;
        push_stage(&mut stages, "lemma2", t);
        Ok(PairwiseOutcome { report, stages })
    }

    /// Analyzes the collection's schema hypergraph: acyclicity,
    /// chordality, conformality, a running-intersection order, and the
    /// minimal obstruction when cyclic.
    pub fn schema_report(&self, bags: &[&Bag]) -> SchemaOutcome {
        let mut stages = Vec::new();
        let t = Instant::now();
        let h = schema_hypergraph(bags);
        let acyclic = is_acyclic(&h);
        let chordal = is_chordal(&h);
        let conformal = is_conformal(&h);
        let rip = rip_order(&h);
        let obstruction = find_obstruction(&h);
        push_stage(&mut stages, "schema", t);
        SchemaOutcome {
            hypergraph: h,
            acyclic,
            chordal,
            conformal,
            rip_order: rip,
            obstruction,
            stages,
        }
    }

    /// For a **cyclic** schema, constructs a family of bags over the same
    /// hyperedges that is pairwise consistent but not globally consistent
    /// (Theorem 2 (e) ⇒ (a)); the family is `None` when the schema is
    /// acyclic.
    pub fn counterexample(&self, bags: &[&Bag]) -> Result<CounterexampleOutcome, SessionError> {
        let mut stages = Vec::new();
        let t = Instant::now();
        let h = schema_hypergraph(bags);
        let family = crate::lifting::pairwise_consistent_globally_inconsistent(&h)?;
        push_stage(&mut stages, "lift", t);
        Ok(CounterexampleOutcome {
            hypergraph: h,
            family,
            stages,
        })
    }

    // ---- typed low-level operations ------------------------------------
    //
    // Each runs its crate-private `_with` implementation under this
    // session's ExecConfig; these methods are the only public path.

    /// Lemma 2 (1)⟺(2): decides consistency of two bags by comparing
    /// the marginals on the common attributes, as an exact keyed
    /// difference that no legal input can overflow.
    ///
    /// ```
    /// use bagcons::session::Session;
    /// use bagcons_core::{Bag, Schema};
    ///
    /// let session = Session::default();
    /// let r = Bag::from_u64s(Schema::range(0, 2), [(&[1u64, 2][..], 1), (&[2, 2][..], 1)])?;
    /// let s = Bag::from_u64s(Schema::range(1, 3), [(&[2u64, 1][..], 1), (&[2, 2][..], 1)])?;
    /// assert!(session.bags_consistent(&r, &s)?);
    ///
    /// // tripling one side breaks the shared marginal
    /// assert!(!session.bags_consistent(&r, &s.scale(3)?)?);
    /// # Ok::<(), bagcons_core::CoreError>(())
    /// ```
    pub fn bags_consistent(&self, r: &Bag, s: &Bag) -> bagcons_core::Result<bool> {
        bags_consistent(r, s)
    }

    /// Corollary 1: returns a bag `T(XY)` with `T[X] = R` and `T[Y] = S`,
    /// or `None` when the bags are inconsistent. The witness is the
    /// one-pass fill of each shared-key group (a saturated flow of
    /// `N(R,S)` found without a flow search).
    ///
    /// This is also the entry for Theorem 5 / Corollary 4's minimal
    /// witness. Within a group the fill's northwest-corner staircase is a
    /// forest in the group's bipartite support graph, so `T` is a vertex
    /// of the transportation polytope `P(R,S)`, and a vertex has
    /// inclusion-minimal support: with any one support row banned, no
    /// saturated flow of `N(R,S)` remains. A forest on each group's
    /// support rows gives Theorem 5's bound with the group count taken
    /// off: `‖T‖supp ≤ ‖R‖supp + ‖S‖supp − |supp R[Z]|`.
    ///
    /// ```
    /// use bagcons::session::Session;
    /// use bagcons_core::{Bag, Schema};
    ///
    /// let r = Bag::from_u64s(Schema::range(0, 2), [(&[0u64, 0][..], 2), (&[1, 0][..], 1)])?;
    /// let s = Bag::from_u64s(Schema::range(1, 3), [(&[0u64, 5][..], 1), (&[0, 6][..], 2)])?;
    /// let t = Session::default().consistency_witness(&r, &s)?.expect("consistent");
    /// assert_eq!(t.marginal(r.schema())?, r);
    /// assert_eq!(t.marginal(s.schema())?, s);
    /// # Ok::<(), bagcons_core::CoreError>(())
    /// ```
    pub fn consistency_witness(&self, r: &Bag, s: &Bag) -> bagcons_core::Result<Option<Bag>> {
        fill_witness_with(r, s, &self.exec)
    }

    /// True iff every two bags of the collection are consistent (the
    /// paper's *pairwise consistency*).
    pub fn pairwise_consistent(&self, bags: &[&Bag]) -> bagcons_core::Result<bool> {
        Ok(first_inconsistent_pair_with(bags, &self.exec)?.is_none())
    }

    /// The first (lexicographic) inconsistent index pair, if any.
    pub fn first_inconsistent_pair(
        &self,
        bags: &[&Bag],
    ) -> bagcons_core::Result<Option<(usize, usize)>> {
        first_inconsistent_pair_with(bags, &self.exec)
    }

    /// True iff `t` witnesses the global consistency of `bags`.
    pub fn is_global_witness(&self, t: &Bag, bags: &[&Bag]) -> bagcons_core::Result<bool> {
        is_global_witness_with(t, bags, &self.exec)
    }

    /// Theorem 6: decides global consistency of pairwise consistent bags
    /// over an acyclic schema and constructs a witness over the union
    /// schema, in polynomial time. Every step is the one-pass group fill,
    /// so the returned bag satisfies `‖T‖supp ≤ Σ_i ‖R_i‖supp`.
    /// [`WitnessStrategy`] has the single variant
    /// [`WitnessStrategy::Saturated`].
    ///
    /// ```
    /// use bagcons::acyclic::WitnessStrategy;
    /// use bagcons::session::Session;
    /// use bagcons_core::{Bag, Schema};
    ///
    /// // a path schema A0–A1–A2–A3 (acyclic)
    /// let r1 = Bag::from_u64s(Schema::range(0, 2), [(&[0u64, 0][..], 2), (&[1, 1][..], 1)])?;
    /// let r2 = Bag::from_u64s(Schema::range(1, 3), [(&[0u64, 4][..], 2), (&[1, 5][..], 1)])?;
    /// let r3 = Bag::from_u64s(Schema::range(2, 4), [(&[4u64, 9][..], 2), (&[5, 9][..], 1)])?;
    /// let t = Session::default()
    ///     .acyclic_global_witness(&[&r1, &r2, &r3], WitnessStrategy::Saturated)
    ///     .expect("pairwise consistent + acyclic");
    /// assert_eq!(t.marginal(r1.schema())?, r1);
    /// assert_eq!(t.marginal(r3.schema())?, r3);
    /// // Theorem 6 support bound
    /// assert!(t.support_size() <= r1.support_size() + r2.support_size() + r3.support_size());
    /// # Ok::<(), bagcons_core::CoreError>(())
    /// ```
    pub fn acyclic_global_witness(
        &self,
        bags: &[&Bag],
        strategy: WitnessStrategy,
    ) -> Result<Bag, AcyclicError> {
        let WitnessStrategy::Saturated = strategy;
        // Pairwise consistency is necessary, and sufficient by Theorem 2.
        if let Some((i, j)) = first_inconsistent_pair_with(bags, &self.exec)? {
            return Err(AcyclicError::InconsistentPair(i, j));
        }
        witness_chain(bags, &self.exec)
    }

    /// The set-semantics semijoin `R ⋉ S`.
    pub fn semijoin(&self, r: &Relation, s: &Relation) -> bagcons_core::Result<Relation> {
        semijoin_with(r, s, &self.exec)
    }

    /// Yannakakis' acyclic join (`None` on cyclic schemas).
    pub fn acyclic_join(&self, rels: &[Relation]) -> bagcons_core::Result<Option<Relation>> {
        acyclic_join_with(rels, &self.exec)
    }

    /// The naive support-pruning bag "semijoin" (Section 6's obstacle).
    pub fn naive_bag_semijoin(&self, r: &Bag, s: &Bag) -> bagcons_core::Result<Bag> {
        naive_bag_semijoin_with(r, s, &self.exec)
    }
}

/// Arms a fresh per-operation [`Deadline`] over a copied configuration:
/// the optional wall-clock budget is merged with any deadline already on
/// the exec config (earlier wins), and the solver inherits the result.
/// Shared by [`Session::arm`] and the de-lifetimed
/// [`crate::stream::ConsistencyStream`].
pub(crate) fn arm_configs(
    exec: &ExecConfig,
    solver: &SolverConfig,
    time_budget: Option<Duration>,
) -> (ExecConfig, SolverConfig) {
    let deadline = match time_budget {
        Some(budget) => exec.deadline().merged(&Deadline::after(budget)),
        None => exec.deadline().clone(),
    };
    let mut solver = solver.clone();
    solver.deadline = solver.deadline.merged(&deadline);
    (exec.clone().with_deadline(deadline), solver)
}

/// An outcome with no search, witness, pair or abort reason yet.
fn outcome(decision: Decision, branch: Branch, stages: Vec<StageTiming>) -> CheckOutcome {
    CheckOutcome {
        decision,
        branch,
        search_nodes: 0,
        witness: None,
        inconsistent_pair: None,
        abort_reason: None,
        stages,
    }
}

/// The dichotomy decision behind [`Session::check`] and
/// [`Session::witness`]: the schema, the pairwise screen, then
/// [`settle`]. It builds no witness.
///
/// Deadline/cancellation aborts ([`CoreError::Aborted`]) from the
/// pairwise sweep are converted into an [`Decision::Unknown`] outcome
/// here, so governed callers never see them as errors.
pub(crate) fn check_impl(
    bags: &[&Bag],
    solver: &SolverConfig,
    exec: &ExecConfig,
) -> bagcons_core::Result<(CheckOutcome, Option<Bag>)> {
    let mut stages = Vec::new();
    let t = Instant::now();
    let branch = if is_acyclic(&schema_hypergraph(bags)) {
        Branch::Acyclic
    } else {
        Branch::CyclicSearch
    };
    push_stage(&mut stages, "schema", t);
    // Theorem 2: pairwise consistency is necessary on every schema, so a
    // refuted pair decides either branch before any search.
    let t = Instant::now();
    let pair = first_inconsistent_pair_with(bags, exec);
    push_stage(&mut stages, "pairwise", t);
    let out = match pair {
        Ok(None) => return settle(bags, branch, solver, stages),
        Ok(pair) => CheckOutcome {
            inconsistent_pair: pair,
            ..outcome(Decision::Inconsistent, branch, stages)
        },
        Err(CoreError::Aborted(reason)) => CheckOutcome {
            abort_reason: Some(reason),
            ..outcome(Decision::Unknown, branch, stages)
        },
        Err(e) => return Err(e),
    };
    Ok((out, None))
}

/// The step after a clean pairwise screen, shared by [`check_impl`] and
/// the stream: on an acyclic schema pairwise consistency is the decision
/// (Theorem 2); on a cyclic one the exact search decides, and its `Sat`
/// solution comes back as the second value.
pub(crate) fn settle(
    bags: &[&Bag],
    branch: Branch,
    solver: &SolverConfig,
    mut stages: Vec<StageTiming>,
) -> bagcons_core::Result<(CheckOutcome, Option<Bag>)> {
    if branch.is_acyclic() {
        return Ok((outcome(Decision::Consistent, branch, stages), None));
    }
    // The search stage includes reading the witness bag off a `Sat`
    // solution vector.
    let t = Instant::now();
    let search = globally_consistent_via_ilp(bags, solver)?;
    push_stage(&mut stages, "search", t);
    let (decision, abort_reason) = match search.outcome {
        IlpOutcome::Sat(_) => (Decision::Consistent, None),
        IlpOutcome::Unsat => (Decision::Inconsistent, None),
        IlpOutcome::Aborted(reason) => (Decision::Unknown, Some(reason)),
    };
    let out = CheckOutcome {
        search_nodes: search.stats.nodes,
        abort_reason,
        ..outcome(decision, branch, stages)
    };
    Ok((out, search.witness))
}

/// Adds the witness to a consistent outcome: on the acyclic branch
/// Theorem 6's chain of group fills, timed as a `witness` stage (an abort
/// degrades the outcome to [`Decision::Unknown`]); on the cyclic branch
/// the search's `solution`.
pub(crate) fn build_witness(
    bags: &[&Bag],
    out: &mut CheckOutcome,
    solution: Option<Bag>,
    exec: &ExecConfig,
) -> bagcons_core::Result<()> {
    if out.decision != Decision::Consistent || !out.branch.is_acyclic() {
        out.witness = solution;
        return Ok(());
    }
    let t = Instant::now();
    let built = witness_chain(bags, exec);
    push_stage(&mut out.stages, "witness", t);
    match built {
        Ok(w) => out.witness = Some(w),
        Err(AcyclicError::Core(CoreError::Aborted(reason))) => {
            out.decision = Decision::Unknown;
            out.abort_reason = Some(reason);
        }
        Err(AcyclicError::Core(e)) => return Err(e),
        Err(e) => unreachable!("pairwise consistent acyclic bags always chain: {e}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::Attr;

    fn schema(ids: &[u32]) -> Schema {
        Schema::from_attrs(ids.iter().map(|&i| Attr::new(i)))
    }

    fn path_pair() -> (Bag, Bag) {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 2), (&[1, 1][..], 3)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 7][..], 2), (&[1, 8][..], 3)]).unwrap();
        (r, s)
    }

    fn parity_triangle() -> Vec<Bag> {
        let even: Vec<(&[u64], u64)> = vec![(&[0, 0], 1), (&[1, 1], 1)];
        let odd: Vec<(&[u64], u64)> = vec![(&[0, 1], 1), (&[1, 0], 1)];
        vec![
            Bag::from_u64s(schema(&[0, 1]), even.clone()).unwrap(),
            Bag::from_u64s(schema(&[1, 2]), even).unwrap(),
            Bag::from_u64s(schema(&[0, 2]), odd).unwrap(),
        ]
    }

    #[test]
    fn default_session_matches_builder_defaults() {
        let d = Session::default();
        let b = Session::builder().build().unwrap();
        assert_eq!(d.max_mismatches(), Session::DEFAULT_MAX_MISMATCHES);
        assert_eq!(d.max_mismatches(), b.max_mismatches());
        assert_eq!(d.exec(), b.exec());
        assert_eq!(d.solver().node_limit, None);
    }

    #[test]
    fn builder_validates_threads() {
        assert!(matches!(
            Session::builder().threads(0).build(),
            Err(CoreError::InvalidConfig(_))
        ));
        let s = Session::builder().threads(3).build().unwrap();
        assert_eq!(s.exec().threads(), 3);
    }

    #[test]
    fn builder_budget_overrides_solver_limit() {
        let s = Session::builder()
            .solver(SolverConfig::builder().node_limit(7).build())
            .budget(99)
            .build()
            .unwrap();
        assert_eq!(s.solver().node_limit, Some(99));
    }

    #[test]
    fn check_acyclic_consistent_times_three_stages() {
        let (r, s) = path_pair();
        let session = Session::default();
        let decided = session.check(&[&r, &s]).unwrap();
        let names: Vec<&str> = decided.stages.iter().map(|s| s.stage).collect();
        assert_eq!(names, ["schema", "pairwise"], "check builds no witness");
        assert!(decided.witness.is_none());
        let out = session.witness(&[&r, &s]).unwrap().check;
        assert_eq!(out.decision, Decision::Consistent);
        assert_eq!(out.branch, Branch::Acyclic);
        assert_eq!(out.search_nodes, 0);
        let names: Vec<&str> = out.stages.iter().map(|s| s.stage).collect();
        assert_eq!(names, ["schema", "pairwise", "witness"]);
        let w = out.witness.as_ref().unwrap();
        assert!(session.is_global_witness(w, &[&r, &s]).unwrap());
    }

    /// Legal bags whose shared key carries mass 2^64 on both sides: a u64
    /// marginal would overflow, the keyed difference decides on every
    /// path.
    #[test]
    fn shared_key_mass_of_two_pow_64_decides_on_every_path() {
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
        let refs = [&r, &s];
        let out = session.check(&refs).unwrap();
        assert_eq!(out.decision, Decision::Consistent);
        assert!(out.witness.is_none());
        assert!(session.bags_consistent(&r, &s).unwrap());
        let w = session.witness(&refs).unwrap().check.witness;
        let w = w.expect("consistent");
        assert!(session.is_global_witness(&w, &refs).unwrap());
        assert!(session
            .diagnose(&refs)
            .unwrap()
            .diagnosis
            .is_pairwise_consistent());
        let mut stream = session.open_stream(vec![r.clone(), s.clone()]).unwrap();
        assert_eq!(stream.decision(), Decision::Consistent);
        assert_eq!(stream.witness().unwrap(), Some(&w));
    }

    #[test]
    fn check_acyclic_inconsistent_reports_pair() {
        let (r, _) = path_pair();
        let bad = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 7][..], 9)]).unwrap();
        let out = Session::default().check(&[&r, &bad]).unwrap();
        assert_eq!(out.decision, Decision::Inconsistent);
        assert_eq!(out.inconsistent_pair, Some((0, 1)));
        assert!(out.witness.is_none());
    }

    #[test]
    fn check_cyclic_branch_and_budget() {
        let bags = parity_triangle();
        let refs: Vec<&Bag> = bags.iter().collect();
        let out = Session::default().check(&refs).unwrap();
        assert_eq!(out.decision, Decision::Inconsistent);
        assert_eq!(out.branch, Branch::CyclicSearch);

        // a loose satisfiable triangle needs real search nodes, so a
        // 1-node budget leaves it undecided
        let wide: Vec<(&[u64], u64)> = vec![(&[0, 0], 3), (&[0, 1], 3), (&[1, 0], 3), (&[1, 1], 3)];
        let bags = [
            Bag::from_u64s(schema(&[0, 1]), wide.clone()).unwrap(),
            Bag::from_u64s(schema(&[1, 2]), wide.clone()).unwrap(),
            Bag::from_u64s(schema(&[0, 2]), wide).unwrap(),
        ];
        let refs: Vec<&Bag> = bags.iter().collect();
        let out = Session::default().check(&refs).unwrap();
        assert_eq!(out.decision, Decision::Consistent);
        assert!(out.search_nodes > 0);
        let tiny = Session::builder().budget(1).build().unwrap();
        let out = tiny.check(&refs).unwrap();
        assert_eq!(out.decision, Decision::Unknown);
        assert_eq!(out.decision.exit_code(), 3);
        assert_eq!(out.abort_reason, Some(AbortReason::NodeBudget));
        assert!(out
            .text(&AttrNames::new())
            .contains("node budget exhausted"));
        assert!(out
            .json(&AttrNames::new())
            .contains("\"abort_reason\":\"node_budget\""));
    }

    #[test]
    fn expired_deadline_degrades_check_to_unknown() {
        let (r, s) = path_pair();
        let session = Session::builder().deadline(Duration::ZERO).build().unwrap();
        let out = session.check(&[&r, &s]).unwrap();
        assert_eq!(out.decision, Decision::Unknown);
        assert_eq!(out.abort_reason, Some(AbortReason::DeadlineExceeded));
        assert!(out.text(&AttrNames::new()).contains("deadline exceeded"));
        assert!(out
            .json(&AttrNames::new())
            .contains("\"abort_reason\":\"deadline_exceeded\""));
        // the cyclic branch degrades the same way
        let bags = parity_triangle();
        let refs: Vec<&Bag> = bags.iter().collect();
        let out = session.check(&refs).unwrap();
        assert_eq!(out.decision, Decision::Unknown);
        assert_eq!(out.abort_reason, Some(AbortReason::DeadlineExceeded));
    }

    #[test]
    fn cancel_token_degrades_check_to_unknown() {
        let token = bagcons_core::CancelToken::new();
        token.cancel();
        let exec = ExecConfig::builder()
            .deadline(Deadline::cancelled_by(token))
            .build()
            .unwrap();
        let session = Session::builder().exec(exec).build().unwrap();
        let (r, s) = path_pair();
        let out = session.check(&[&r, &s]).unwrap();
        assert_eq!(out.decision, Decision::Unknown);
        assert_eq!(out.abort_reason, Some(AbortReason::Cancelled));
    }

    #[test]
    fn cancelled_exec_deadline_aborts_semijoin() {
        let token = bagcons_core::CancelToken::new();
        token.cancel();
        let exec = ExecConfig::builder()
            .deadline(Deadline::cancelled_by(token))
            .build()
            .unwrap();
        let session = Session::builder().exec(exec).build().unwrap();
        let (r, s) = path_pair();
        assert_eq!(
            session.semijoin(&r.support(), &s.support()),
            Err(CoreError::Aborted(AbortReason::Cancelled))
        );
        let rels = [r.support(), s.support()];
        assert_eq!(
            session.acyclic_join(&rels),
            Err(CoreError::Aborted(AbortReason::Cancelled))
        );
    }

    #[test]
    fn expired_deadline_degrades_witness_to_unknown() {
        let (r, s) = path_pair();
        let session = Session::builder().deadline(Duration::ZERO).build().unwrap();
        let out = session.witness(&[&r, &s]).unwrap();
        assert_eq!(out.check.decision, Decision::Unknown);
        assert!(out.witness().is_none());
        assert!(out.json(&AttrNames::new()).contains("deadline_exceeded"));
    }

    #[test]
    fn builder_deadline_recorded_as_time_budget() {
        let session = Session::builder()
            .deadline(Duration::from_millis(250))
            .build()
            .unwrap();
        assert_eq!(session.time_budget(), Some(Duration::from_millis(250)));
        assert!(Session::default().time_budget().is_none());
    }

    #[test]
    fn acyclic_path_taken_for_path_schema() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 2)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 3][..], 2)]).unwrap();
        let session = Session::default();
        assert!(session.check(&[&r, &s]).unwrap().witness.is_none());
        let out = session.witness(&[&r, &s]).unwrap().check;
        assert!(out.branch.is_acyclic());
        assert_eq!(out.search_nodes, 0);
        assert_eq!(out.decision, Decision::Consistent);
        let t = out.witness.as_ref().expect("consistent carries a witness");
        assert!(session.is_global_witness(t, &[&r, &s]).unwrap());
    }

    #[test]
    fn cyclic_path_taken_for_triangle() {
        let d: Vec<(&[u64], u64)> = vec![(&[0, 0], 1), (&[1, 1], 1)];
        let r = Bag::from_u64s(schema(&[0, 1]), d.clone()).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), d.clone()).unwrap();
        let t = Bag::from_u64s(schema(&[0, 2]), d).unwrap();
        let out = Session::default().check(&[&r, &s, &t]).unwrap();
        assert_eq!(out.branch, Branch::CyclicSearch);
        assert_eq!(out.decision, Decision::Consistent);
        assert!(out.search_nodes > 0);
    }

    #[test]
    fn parity_triangle_is_inconsistent_via_search() {
        let bags = parity_triangle();
        let refs: Vec<&Bag> = bags.iter().collect();
        let out = Session::default().check(&refs).unwrap();
        assert_eq!(out.branch, Branch::CyclicSearch);
        assert_eq!(out.decision, Decision::Inconsistent);
    }

    #[test]
    fn pairwise_inconsistent_acyclic_collection() {
        let r = Bag::from_u64s(schema(&[0, 1]), [(&[0u64, 0][..], 1)]).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), [(&[0u64, 0][..], 2)]).unwrap();
        let out = Session::default().check(&[&r, &s]).unwrap();
        assert!(out.branch.is_acyclic());
        assert_eq!(out.decision, Decision::Inconsistent);
    }

    #[test]
    fn node_budget_reports_unknown() {
        // a loose satisfiable triangle with a 1-node budget
        let wide: Vec<(&[u64], u64)> = vec![(&[0, 0], 3), (&[0, 1], 3), (&[1, 0], 3), (&[1, 1], 3)];
        let r = Bag::from_u64s(schema(&[0, 1]), wide.clone()).unwrap();
        let s = Bag::from_u64s(schema(&[1, 2]), wide.clone()).unwrap();
        let t = Bag::from_u64s(schema(&[0, 2]), wide).unwrap();
        let session = Session::builder()
            .solver(SolverConfig::builder().node_limit(1).build())
            .build()
            .unwrap();
        let out = session.check(&[&r, &s, &t]).unwrap();
        assert_eq!(out.decision, Decision::Unknown);
        assert_eq!(out.abort_reason, Some(AbortReason::NodeBudget));
    }

    #[test]
    fn witness_renders_parseable_bag() {
        let (r, s) = path_pair();
        let session = Session::default();
        let out = session.witness(&[&r, &s]).unwrap();
        let text = out.text(session.names());
        let (parsed, _) = bagcons_core::io::parse_bag(&text).unwrap();
        assert_eq!(parsed, *out.witness().unwrap());
    }

    #[test]
    fn witness_over_the_empty_schema() {
        let session = Session::default();
        let r = Bag::from_u64s(Schema::empty(), [(&[][..], 3)]).unwrap();
        for bags in [vec![&r], vec![&r, &r]] {
            let out = session.witness(&bags).unwrap();
            assert_eq!(out.check.decision, Decision::Consistent);
            assert_eq!(out.witness(), Some(&r));
            assert_eq!(out.text(session.names()), "#\n : 3\n");
            let t = session
                .acyclic_global_witness(&bags, WitnessStrategy::Saturated)
                .unwrap();
            assert_eq!(t, r);
        }
        let none = Bag::new(Schema::empty());
        let out = session.witness(&[&none]).unwrap();
        assert_eq!(out.witness(), Some(&none));
        assert_eq!(out.text(session.names()), "#\n");
    }

    #[test]
    fn load_bag_shares_attributes_across_files() {
        let mut session = Session::default();
        let r = session.load_bag("A B #\n0 0 : 1\n").unwrap();
        let s = session.load_bag("B C #\n0 0 : 1\n").unwrap();
        assert_eq!(r.schema().intersection(s.schema()).arity(), 1);
        assert!(session.bags_consistent(&r, &s).unwrap());
    }

    #[test]
    fn diagnose_locates_mismatch_and_respects_cap() {
        let mut session = Session::builder().max_mismatches(1).build().unwrap();
        let r = session.load_bag("A B #\n1 1 : 1\n1 2 : 1\n").unwrap();
        let s = session.load_bag("B C #\n3 1 : 1\n4 1 : 1\n").unwrap();
        let out = session.diagnose(&[&r, &s]).unwrap();
        let Diagnosis::PairwiseInconsistent(ms) = &out.diagnosis else {
            panic!("expected mismatch");
        };
        assert_eq!(ms.len(), 1);
        let json = out.json(session.names());
        assert!(json.contains("\"pairwise_consistent\":false"));
    }

    #[test]
    fn schema_report_flags_triangle() {
        let bags = parity_triangle();
        let refs: Vec<&Bag> = bags.iter().collect();
        let out = Session::default().schema_report(&refs);
        assert!(!out.acyclic);
        assert!(out.obstruction.is_some());
        assert!(out.rip_order.is_none());
        let names = AttrNames::new();
        assert!(out.text(&names).contains("acyclic:   false"));
        assert!(out.json(&names).contains("\"acyclic\":false"));
    }

    #[test]
    fn counterexample_family_verifies() {
        let bags = parity_triangle();
        let refs: Vec<&Bag> = bags.iter().collect();
        let session = Session::default();
        let out = session.counterexample(&refs).unwrap();
        let family = out.family.as_ref().expect("triangle is cyclic");
        let frefs: Vec<&Bag> = family.iter().collect();
        assert!(session.pairwise_consistent(&frefs).unwrap());
        assert_eq!(
            session.check(&frefs).unwrap().decision,
            Decision::Inconsistent
        );
        // acyclic schemas have no counterexample
        let (r, s) = path_pair();
        let out = session.counterexample(&[&r, &s]).unwrap();
        assert!(out.family.is_none());
        assert!(out.text(session.names()).contains("acyclic"));
    }

    #[test]
    fn pairwise_report_agrees_with_lemma2() {
        let (r, s) = path_pair();
        let out = Session::default().pairwise_report(&r, &s).unwrap();
        assert!(out.report.all_agree());
        assert!(out.report.consistent());
        let json = out.json(&AttrNames::new());
        assert!(json.contains("\"all_agree\":true"));
    }

    #[test]
    fn pairwise_report_agrees_past_u64_group_sums() {
        // Legal bags whose shared-key group sums pass `u64::MAX`: 2^64,
        // then 2·(2^64 − 1) + 1 with rational terms near 2^63 / 2^65.
        for (m, extra) in [(1u64 << 63, 0), (u64::MAX, 1)] {
            let r = Bag::from_u64s(
                schema(&[0, 1]),
                [(&[1u64, 1][..], m), (&[2, 1][..], m), (&[3, 1][..], extra)],
            )
            .unwrap();
            let s = Bag::from_u64s(
                schema(&[1, 2]),
                [(&[1u64, 1][..], m), (&[1, 2][..], m), (&[1, 3][..], extra)],
            )
            .unwrap();
            let out = Session::default().pairwise_report(&r, &s).unwrap();
            assert!(out.report.all_agree(), "{:?}", out.report);
            assert!(out.report.consistent());
        }
    }

    #[test]
    fn check_json_shape() {
        let (r, s) = path_pair();
        let out = Session::default().check(&[&r, &s]).unwrap();
        let json = out.json(&AttrNames::new());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"report\":\"check\""));
        assert!(json.contains("\"decision\":\"consistent\""));
        assert!(json.contains("\"branch\":\"acyclic\""));
        assert!(json.contains("\"stages\":[{\"stage\":\"schema\",\"micros\":"));
        // balanced braces/brackets (the writer emits no strings with
        // braces here)
        let opens = json.matches(['{', '[']).count();
        let closes = json.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }
}
