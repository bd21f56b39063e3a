//! # `bagcons-gen`
//!
//! Workload generators for the experiments, tests, and benchmarks of the
//! *Bag Consistency* reproduction.
//!
//! * [`random`] — random bags and relations with controlled support,
//!   domain, and multiplicity ranges;
//! * [`consistent`] — *planted* families: generate a hidden witness bag
//!   and marginalize it onto each hyperedge, guaranteeing global (hence
//!   pairwise) consistency;
//! * [`perturb`] — adversarial modifications (break one marginal, scale a
//!   single bag) used to produce inconsistent inputs with known cause;
//! * [`tables`] — synthetic 3-D contingency-table instances (the
//!   Irving–Jerrum problem behind Lemma 6), planted-satisfiable and
//!   Tseitin-unsatisfiable, standing in for the unpublished hard
//!   instances (the substitution is explained in [`tables`]);
//! * [`families`] — the paper's own example families: the
//!   `2^{n-1}`-witness pair of Section 3, Example 1's exponential
//!   bag-join chain, and random graphs for the \[HLY80\] set-case
//!   reduction.
//!
//! All generators take explicit [`rand`] RNGs so every experiment is
//! reproducible from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consistent;
pub mod families;
pub mod perturb;
pub mod random;
pub mod tables;

pub use consistent::{planted_family, planted_pair};
pub use families::{example1_chain, section3_pair};
pub use random::{random_bag, random_relation};
pub use tables::{planted_3dct, tseitin_3dct};
