//! # `bagcons`
//!
//! The algorithms of *Structure and Complexity of Bag Consistency*
//! (Atserias & Kolaitis, PODS 2021) — the paper's primary contribution —
//! behind one configurable entry surface: [`session::Session`].
//!
//! ## The session facade
//!
//! A [`Session`] owns every knob the pipeline needs —
//! the parallel-execution configuration ([`bagcons_core::ExecConfig`]),
//! the exact-search configuration ([`bagcons_lp::ilp::SolverConfig`]),
//! the attribute-name interner, and the search budgets — and exposes the
//! paper's decision procedures as methods returning **typed outcome
//! structs** (decision + per-stage timings + which dichotomy branch ran,
//! and the witness bag from `witness`) that render to human text or
//! machine-readable JSON via [`report::Render`]. `check` only decides;
//! `witness` decides the same way and then builds:
//!
//! ```
//! use bagcons::prelude_session::*;
//!
//! let mut session = Session::builder().threads(4).budget(1_000_000).build()?;
//! let r = session.load_bag("Origin Dest #\n0 1 : 120\n0 2 : 80\n")?;
//! let s = session.load_bag("Dest Carrier #\n1 10 : 120\n2 11 : 80\n")?;
//! let outcome = session.check(&[&r, &s])?;
//! assert_eq!(outcome.decision, Decision::Consistent);
//! assert!(outcome.witness.is_none());
//! println!("{}", outcome.render(ReportFormat::Json, session.names()));
//! let built = session.witness(&[&r, &s])?;
//! assert!(session.is_global_witness(built.witness().unwrap(), &[&r, &s])?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! | Question | `Session` method |
//! |---|---|
//! | Is the collection globally consistent? (Theorem 4) | [`check`](session::Session::check) |
//! | Produce a witness bag (Corollary 1 / Theorems 3, 6) | [`witness`](session::Session::witness) |
//! | *Why* is it inconsistent? (Lemma 2's evidence) | [`diagnose`](session::Session::diagnose) |
//! | Cross-validate Lemma 2's five characterizations | [`pairwise_report`](session::Session::pairwise_report) |
//! | Analyze the schema hypergraph (Theorem 1 structure) | [`schema_report`](session::Session::schema_report) |
//! | Exhibit the pairwise-vs-global gap (Theorem 2 (e)⇒(a)) | [`counterexample`](session::Session::counterexample) |
//! | Re-check a stream of small edits incrementally | [`open_stream`](session::Session::open_stream) |
//!
//! The session is the one public entry to each operation it offers:
//! Lemma 2's pair test, Corollary 1's witness, Theorem 6's chain, the
//! global-witness check, and the set-semantics reducers are all
//! `Session` methods running under its `ExecConfig`. The
//! `_with(&ExecConfig)` functions behind them are crate-private.
//!
//! ## Paper-item map
//!
//! | Paper item | Module / entry point |
//! |---|---|
//! | Lemma 2 (five characterizations of two-bag consistency) | the one keyed-marginal-difference pair test in [`pairwise`] (session, screen, diagnosis and stream); [`report::Lemma2Report`] |
//! | Corollary 1 (strongly-poly witness for two bags) | the one-pass group fill in [`pairwise`], via [`session::Session::consistency_witness`] |
//! | Theorem 2 (acyclic ⟺ local-to-global for bags) | [`acyclic`], [`tseitin`], [`lifting`] |
//! | Lemma 4 (k-wise-consistency-preserving lifting) | [`lifting`] |
//! | Theorem 3 / Corollary 3 (NP membership, witness bounds) | re-exported from [`bagcons_lp::bounds`] |
//! | Theorem 4 (dichotomy: acyclic ⇒ P, cyclic ⇒ NP-complete) | [`session::Session::check`] (decides); [`session::Session::witness`] (builds) |
//! | Lemmas 6, 7 (hardness chain reductions) | [`reductions`] |
//! | Theorem 5 / Corollary 4 (minimal two-bag witness) | the [`pairwise`] group fill, a vertex of `P(R,S)`, via [`session::Session::consistency_witness`] |
//! | Theorem 6 (acyclic witness construction) | [`acyclic`] chaining the [`pairwise`] group fill, via [`session::Session::acyclic_global_witness`] |
//! | Section 5.1 (set-semantics baseline) | [`sets`] |
//! | Section 6 (full reducers: set case + the bag obstacle) | [`reducer`] |
//!
//! ## Incremental streams
//!
//! For workloads that *edit* bags between questions,
//! [`Session::open_stream`] returns a [`stream::ConsistencyStream`]:
//! each bag pair keeps the same Lemma 2 pair test that `check` screens
//! with — the keyed marginal difference `R[Z] − S[Z]` of [`pairwise`] —
//! alive across updates. Each [`stream::ConsistencyStream::update`] adds
//! every edit to one key per pair sharing the edited bag, so a small
//! multiplicity delta is re-decided at delta-proportional cost instead
//! of a full rebuild, and the post-screen step is `check`'s own. The CLI
//! exposes this as `bagcons watch`. See the [`stream`] module docs for
//! the delta invariants and the cyclic-schema fallback.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acyclic;
pub mod diagnose;
pub mod global;
pub mod kwise;
pub mod lifting;
pub mod optimal;
pub mod pairwise;
pub mod protocol;
pub mod reducer;
pub mod reductions;
pub mod report;
pub mod session;
pub mod sets;
pub mod stream;
pub mod tseitin;

pub use acyclic::AcyclicError;
pub use global::{globally_consistent_via_ilp, schema_hypergraph};
pub use kwise::k_wise_consistent;
pub use report::{Lemma2Report, Render, ReportFormat};
pub use session::{DatasetSource, Session, SessionBuilder, SessionError};
pub use stream::{ConsistencyStream, UpdateOutcome};
pub use tseitin::tseitin_bags;

/// One-stop imports for session-based applications.
pub mod prelude_session {
    pub use crate::report::{Render, ReportFormat};
    pub use crate::session::{
        Branch, CheckOutcome, CounterexampleOutcome, DatasetSource, Decision, DiagnoseOutcome,
        PairwiseOutcome, SchemaOutcome, Session, SessionBuilder, SessionError, StageTiming,
        WitnessOutcome,
    };
    pub use crate::stream::{ConsistencyStream, UpdateOutcome};
}
