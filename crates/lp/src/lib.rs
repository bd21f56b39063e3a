//! # `bagcons-lp`
//!
//! Linear/integer programming substrate for *Structure and Complexity of
//! Bag Consistency* (Atserias & Kolaitis, PODS 2021).
//!
//! The paper associates with every collection `R₁(X₁), …, R_m(X_m)` the
//! program `P(R₁,…,R_m)` (Equations (3) and (14)): one variable `x_t ≥ 0`
//! per join tuple `t ∈ J = R'₁ ⋈ ⋯ ⋈ R'_m`, and for every `i` and every
//! support tuple `r ∈ R'_i` the constraint `Σ_{t[X_i]=r} x_t = R_i(r)`.
//! Integral solutions are exactly the witnesses of global consistency.
//!
//! * [`program`] — construction of `P(R₁,…,R_m)` and the 1-to-1 mapping
//!   between integer solutions and witness bags;
//! * [`rational`] — exact rational arithmetic and the closed-form rational
//!   solution for `m = 2` from the proof of Lemma 2 ((2) ⇒ (3));
//! * [`ilp`] — an exact search for integer solutions (DFS with residual
//!   propagation and forced-variable detection): the NP decision procedure
//!   that the dichotomy (Theorem 4) says is unavoidable on cyclic schemas;
//! * [`bounds`] — the witness-size bounds of Theorem 3 / Theorem 5 /
//!   Lemma 5 (Carathéodory and Eisenbrand–Shmonin).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod ilp;
pub mod program;
pub mod rational;

pub use bounds::{es_support_bound, theorem3_bounds, two_bag_support_bound, WitnessBounds};
pub use ilp::{count_solutions, solve, IlpOutcome, SolverConfig};
pub use program::ConsistencyProgram;
pub use rational::{rational_solution, Rational};
