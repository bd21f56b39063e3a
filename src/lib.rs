//! # bag-consistency
//!
//! Facade crate for the reproduction of **“Structure and Complexity of Bag
//! Consistency”** (Albert Atserias & Phokion G. Kolaitis, PODS 2021,
//! arXiv:2012.12126).
//!
//! The workspace is organised bottom-up:
//!
//! * [`core`] — bags, relations, schemas, marginals, joins,
//!   and the shard-parallel execution layer ([`ExecConfig`](bagcons_core::ExecConfig));
//! * [`hypergraph`] — acyclicity structure theory
//!   (chordality, conformality, GYO, join trees, running-intersection
//!   orders, safe deletions, minimal obstructions);
//! * [`flow`] — integral max-flow and the consistency network
//!   `N(R,S)`;
//! * [`lp`] — the linear program `P(R₁,…,R_m)`, exact integer
//!   search, Carathéodory / Eisenbrand–Shmonin sparsification;
//! * [`snap`] — the versioned binary snapshot container: sealed arenas,
//!   multiplicity columns, schemas, and names as content-hashed
//!   sections that load with no re-parse, re-intern, or
//!   re-sort ([`Session::load_snapshot`](bagcons::session::Session::load_snapshot));
//! * [`bagcons`] — the paper's algorithms behind the [`Session`] facade:
//!   two-bag consistency (Lemma 2), the local-to-global structure theorem
//!   (Theorem 2), the complexity dichotomy (Theorem 4), and witness
//!   construction (Theorems 5–6);
//! * [`gen`] — workload generators for tests, examples, and
//!   the experiment harness.
//!
//! ## Quickstart
//!
//! A [`Session`] carries all configuration (threads, search budgets,
//! attribute names) and returns typed outcomes that render to text or
//! JSON:
//!
//! ```
//! use bag_consistency::prelude::*;
//!
//! let mut session = Session::builder().threads(2).build()?;
//! let r = session.load_bag("A B #\n1 2 : 1\n2 2 : 1\n")?;
//! let s = session.load_bag("B C #\n2 1 : 1\n2 2 : 1\n")?;
//!
//! // Theorem 4 dichotomy: acyclic schema ⇒ polynomial path.
//! let outcome = session.check(&[&r, &s])?;
//! assert_eq!(outcome.decision, Decision::Consistent);
//! assert!(outcome.branch.is_acyclic());
//!
//! // `check` only decides; `witness` builds. Corollary 1: the witness
//! // marginalizes back onto both inputs.
//! let built = session.witness(&[&r, &s])?;
//! let t = built.witness().expect("consistent");
//! assert_eq!(t.marginal(r.schema())?, r);
//! assert_eq!(t.marginal(s.schema())?, s);
//!
//! // machine-readable reporting
//! let json = outcome.render(ReportFormat::Json, session.names());
//! assert!(json.contains("\"branch\":\"acyclic\""));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use bagcons;
pub use bagcons_core as core;
pub use bagcons_flow as flow;
pub use bagcons_gen as gen;
pub use bagcons_hypergraph as hypergraph;
pub use bagcons_lp as lp;
pub use bagcons_snap as snap;

pub use bagcons::session::Session;

/// One-stop imports for applications.
pub mod prelude {
    pub use bagcons::report::{Lemma2Report, Render, ReportFormat};
    pub use bagcons::session::{
        Branch, CheckOutcome, CounterexampleOutcome, DatasetSource, Decision, DiagnoseOutcome,
        PairwiseOutcome, SchemaOutcome, Session, SessionBuilder, SessionError, StageTiming,
        WitnessOutcome,
    };
    pub use bagcons::{global::globally_consistent_via_ilp, tseitin::tseitin_bags};
    pub use bagcons_core::{
        Attr, AttrNames, Bag, CoreError, ExecConfig, Relation, Schema, Tuple, Value,
    };
    pub use bagcons_hypergraph::Hypergraph;
    pub use bagcons_snap::{SnapError, Snapshot, SnapshotWriter};
}
