//! # `bagcons-flow`
//!
//! Max-flow substrate for *Structure and Complexity of Bag Consistency*
//! (Atserias & Kolaitis, PODS 2021).
//!
//! Lemma 2 of the paper reduces two-bag consistency to the existence of a
//! **saturated flow** in the network `N(R,S)`: source → one node per
//! support tuple of `R` (capacity `R(r)`) → middle edges for each join
//! tuple → one node per support tuple of `S` (capacity `S(s)`) → sink.
//! The integrality theorem for max-flow then turns a rational solution of
//! the linear program `P(R,S)` into an integral witness bag.
//!
//! * [`dinic`] — a general integral max-flow solver (Dinic's algorithm,
//!   strongly polynomial; the paper cites Orlin's `O(nm)` algorithm — any
//!   strongly-polynomial integral max-flow preserves every claim, since
//!   the proofs use only integrality and polynomial running time).
//! * [`network`] — construction of `N(R,S)`, saturation testing, and
//!   witness extraction. This is the paper's Corollary 1 construction.
//!   Its middle-edge exclusion hook (the minimal-witness self-reduction
//!   of Section 5.3) now serves only the test oracle that checks the
//!   group fill is inclusion-minimal. Neither deciding consistency nor
//!   building the witnesses `witness` returns needs it: Lemma 2 compares
//!   marginals, and every middle edge is uncapacitated, so
//!   `bagcons::pairwise` fills each shared-key group in one pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dinic;
pub mod mincost;
pub mod network;

pub use dinic::{EdgeId, FlowNetwork};
pub use mincost::MinCostFlow;
pub use network::ConsistencyNetwork;
