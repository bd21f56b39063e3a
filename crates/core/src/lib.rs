//! # `bagcons-core`
//!
//! Data model for *Structure and Complexity of Bag Consistency*
//! (Atserias & Kolaitis, PODS 2021).
//!
//! The paper works with **relations** (functions `Tup(X) -> {0,1}`) and
//! **bags** (functions `Tup(X) -> Z_{>=0}`) over finite sets of attributes.
//! This crate provides exactly those objects plus the operations the paper
//! uses:
//!
//! * [`Attr`], [`Value`], [`Schema`]: attributes, domain elements, and sorted
//!   attribute sets.
//! * [`Bag`]: a finite multiset of `X`-tuples with `u64` multiplicities,
//!   supporting the **marginal** `R[Z]` of Equation (2) of the paper and the
//!   **bag join** `R ⋈ᵇ S`.
//! * [`Relation`]: a finite set of `X`-tuples, supporting projection and the
//!   **relational join** `R ⋈ S`.
//! * The size measures of Section 5.2: `‖R‖supp`, `‖R‖mu`, `‖R‖mb`,
//!   `‖R‖u`, `‖R‖b` ([`Bag::support_size`], [`Bag::multiplicity_bound`],
//!   [`Bag::multiplicity_size`], [`Bag::unary_size`], [`Bag::binary_size`]).
//!
//! All multiplicity arithmetic is **checked**: operations that could
//! overflow a `u64` return [`CoreError::MultiplicityOverflow`] instead of
//! wrapping, because the paper's complexity analysis (Theorem 3, Example 1)
//! is specifically about binary-encoded, i.e. potentially huge,
//! multiplicities.
//!
//! # Storage architecture
//!
//! Bags and relations are **columnar and arena-backed** ([`store`]):
//!
//! * a [`RowStore`] owns every distinct row of one schema in a single
//!   contiguous `Vec<Value>` (row-major) and **interns** rows — equal
//!   content maps to one dense [`RowId`], found through a flat
//!   open-addressing table. Three allocations total, regardless of row
//!   count; no per-tuple `Box<[Value]>` anywhere on the hot paths.
//! * a [`Bag`] is a `RowStore` plus a parallel `Vec<u64>` multiplicity
//!   column; a [`Relation`] is a `RowStore` alone (interning *is* set
//!   semantics). Per-row companions (flow capacities, edge ids) can be
//!   plain vectors indexed by `RowId`.
//! * **sorted runs**: a *sealed* bag/relation additionally keeps its rows
//!   in strictly increasing lexicographic order with no tombstones. Bulk
//!   constructors return sealed values; point mutations may unseal
//!   (appends that extend the run keep the seal), and [`Bag::seal`] /
//!   [`Relation::seal`] restore the invariant by one sort + compaction.
//!   Sealed data gives order-free `iter_sorted`, group-by marginals on
//!   schema prefixes (no hashing), and sort-free merge joins on prefix
//!   keys.
//!
//! Joins ([`join`]) pick their physical strategy by a size/sortedness
//! heuristic ([`join::JoinStrategy::select`]): **sort-merge** (permute
//! each side's `u32` ids by the common-key projection, match equal-key
//! runs group × group) when both sides are sort-free — sealed with
//! prefix keys — or when sharding spreads the sweep; **hash** (intern
//! one side's keys into a scratch arena with intrusive chains, probe
//! with the other) when one side is small, the size ratio is lopsided,
//! or sorts would dominate. Marginals are single columnar scans through
//! a reused scratch buffer.
//!
//! # Parallel execution
//!
//! The execution layer ([`exec`]) partitions work into contiguous
//! shards and fans it out over an **adaptive work-stealing scheduler**
//! on `std::thread::scope` (dependency-free; the build environment is
//! offline, so no rayon): shard plans are *oversubscribed*
//! ([`ExecConfig::CHUNKS_PER_WORKER`] chunks per worker), an atomic
//! cursor walks the chunk queue, and each worker claims the next chunk
//! whenever it finishes one — so a skewed plan (one giant key group
//! next to many tiny ones) no longer pins its cost to a single worker.
//! Each bulk operator has **one body**, run per shard through
//! [`exec::try_run_tasks`]:
//!
//! * **merge joins** ([`join::bag_join_merge_with`]) — the left side's
//!   key-sorted run splits at join-key-group boundaries, right-side
//!   ranges align by binary search, each shard multiplies its groups
//!   out;
//! * **hash joins** ([`join::bag_join_hash_with`]) — the small side's
//!   key index builds once and is broadcast read-only; the probe side's
//!   live ids shard into plain index ranges (probes are
//!   row-independent);
//! * **prefix marginals and projections** ([`Bag::marginal_with`],
//!   [`Relation::project`]) — the sealed run splits at prefix-group
//!   boundaries and each shard runs the group-by sweep;
//! * **delta reseal** ([`Bag::apply_delta_with`]) — the fresh tail's
//!   merge into the old sorted run shards by position ranges;
//! * **two-bag witness fill** (`bagcons::pairwise`, through
//!   [`join::try_merge_matching_pairs_sharded`]) — shared-key groups
//!   split across shards, each shard fills its groups in one pass, and
//!   the cells' rows go into one flat arena that becomes the witness
//!   through [`Bag::from_arena`] — already in sorted order whenever one
//!   input's extra attributes all exceed the other's.
//!
//! The **seal** ([`Bag::seal`], [`Bag::try_seal_with`],
//! [`Relation::seal`]) and the bulk constructor [`Bag::from_arena`] do
//! not shard: both halves — one `sort_unstable_by` over the row ids
//! under a packed compare, then one row copy into the new arena — run on
//! the calling thread, which measured faster than chunk sorts plus
//! run merges at every size on a 2-core host. An arena whose rows
//! already ascend strictly, with no multiplicity zero, skips both:
//! [`Bag::from_arena`] adopts it as it stands. The relational join and
//! projection run the bag bodies with every multiplicity 1. An [`ExecConfig`] with `threads = 1` — the default of
//! every non-`_with` entry point — plans one shard, and the executor
//! runs it inline on the calling thread under the same deadline poll
//! and panic containment; there is no separate sequential code path.
//!
//! Shard invariants, relied on everywhere: **a shard boundary never
//! splits a key group** (boundaries slide forward to the next group
//! edge; a single giant group collapses its shards; empty shards are
//! dropped by the planner, never handed to workers), and per-shard
//! outputs come back **in ascending shard order** — whichever worker
//! finished which chunk when — and join end to end. Prefix-marginal
//! outputs are therefore born sealed, and every output is bit-identical
//! at every thread count. One rule covers the output side: a shard
//! returns a plain row arena with its multiplicity column, and the
//! result store **adopts it with the dedup table unbuilt**
//! ([`RowStore::from_sorted_rows`] for sorted outputs; join rows are
//! distinct by construction) — the table builds on the first content
//! probe. The one exception is a bag that a delta just edited: it builds
//! its index at once, since the next delta probes it.
//!
//! # Hot-loop encoding: packed key codes
//!
//! Below the thread level, the sort/merge/join inner loops are
//! compare-bound, and a row compare is a `&[Value]` slice walk. The
//! [`pack`] module collapses those walks into **single integer
//! compares**: each column's value, truncated to the column's observed
//! bit width, concatenates high-to-low into one `u64`/`u128` word per
//! row — an injective, lexicographic-order-preserving encoding, so every
//! packed compare returns exactly what the slice compare would.
//!
//! Keys are packed only inside the sort or sweep that compares them: the
//! seal, [`Bag::from_arena`] and delta-repair sorts pack their rows for
//! the length of the sort, and the keyed sort-and-sweep behind the merge
//! join and the witness fill packs both sides' key columns under one
//! joint spec so cross-side key compares are single integer compares
//! too. No bag or relation caches words. Skewed merges additionally
//! **gallop** ([`exec::gallop_bound`]): when one side is ≥
//! [`exec::GALLOP_RATIO`]× the other, the delta reseal's fresh-tail
//! merge and the keyed sweep's advancement step by exponential search
//! instead of linearly — same emission order, bit-identical output.
//!
//! # Incremental updates
//!
//! The update unit of the incremental consistency layer is a
//! [`DeltaSet`] of signed multiplicity edits ([`delta`]).
//! [`Bag::apply_delta`] applies a batch atomically: edits that keep
//! every edited row in the support patch the multiplicity column in
//! place (a sealed bag stays sealed, no re-layout), and
//! support-changing edits repair the sorted run **incrementally** — the
//! fresh tail sorts alone and merges with the old run in one sharded
//! linear pass — never the full re-sort of [`Bag::seal`].
//!
//! Invariants maintained by construction:
//!
//! * A [`Schema`] is a strictly sorted sequence of attributes.
//! * A [`Bag`] never *reports* a tuple with multiplicity `0` (tombstones
//!   left by [`Bag::set`] are invisible to every observation and are
//!   compacted away by [`Bag::seal`]), so `Supp(R)` is exactly the live
//!   row set.
//! * Rows are stored in schema order, so row equality is tuple equality.
//! * Interning is injective on content: one distinct row, one `RowId`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod bag;
pub mod cancel;
pub mod delta;
pub mod error;
pub mod exec;
pub mod fault;
pub mod hash;
pub mod io;
pub mod join;
pub mod names;
pub mod pack;
pub mod relation;
pub mod schema;
pub mod store;
pub mod tuple;

pub use attr::{Attr, Value};
pub use bag::Bag;
pub use cancel::{AbortReason, Deadline};
pub use delta::{DeltaApply, DeltaEdit, DeltaSet};
pub use error::CoreError;
pub use exec::{ExecConfig, ExecConfigBuilder};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use names::AttrNames;
pub use pack::PackSpec;
pub use relation::Relation;
pub use schema::Schema;
pub use store::{RowId, RowStore};
pub use tuple::{Row, Tuple};

/// Convenience result alias for fallible core operations.
pub type Result<T> = std::result::Result<T, CoreError>;
