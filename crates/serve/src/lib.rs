//! `bagcons-serve` — a long-lived, multi-session consistency daemon.
//!
//! PR 5's `watch` proved the delta-streaming loop for one client over
//! stdin; this crate is the server around it: a std-only daemon
//! (thread-per-connection over [`std::net::TcpListener`] and, on unix,
//! [`std::os::unix::net::UnixListener`] — no async runtime) hosting a
//! [`registry::Registry`] of named datasets and one
//! [`bagcons::stream::ConsistencyStream`] session per connection.
//!
//! # Copy-on-write dataset generations
//!
//! The serving core is **concurrent reads over shared sealed state**.
//! Sealed [`bagcons_core::Bag`] runs are immutable, so a dataset is a
//! sequence of [`registry::Generation`]s — each a `Vec<Arc<Bag>>` plus a
//! sequence number. Any number of reader sessions pin a generation by
//! cloning its `Arc`s (zero copying); a writer session's delta never
//! mutates a shared bag — a support-changing delta builds a successor
//! bag from it in one merge, and an in-place delta copies only the
//! bag's multiplicity column, since its rows sit behind their own
//! `Arc` — and the session publishes the result as the next generation
//! with a compare-and-swap on the sequence number. A failed batch
//! changes nothing in the session. The invariants:
//!
//! * a published generation is never mutated — every bag in it is sealed
//!   and behind an `Arc` that writers only clone away from;
//! * `publish(parent, stream)` succeeds iff `parent` is still the current
//!   sequence number (lost races surface as a `conflict` error, and the
//!   losing writer can `sync` to the new generation and retry);
//! * sessions never observe a generation change they did not ask for:
//!   reads are repeatable until an explicit `sync`.
//!
//! A generation also keeps one decided stream over its bags (by Lemma 2
//! the pair states depend only on the bags). `commit` publishes the
//! writer's stream with its bags; a generation loaded from files gets
//! its stream at its first `open`, not at load. `open` and `sync` fork
//! that stream ([`registry::Generation::fork`]): the session shares
//! every bag and pair state by `Arc` and copies on its first edit of
//! each, so an open costs O(bags + pairs), not O(rows). The stored
//! stream is never mutated, and a stream whose decision is unknown (a
//! deadline or a node budget) is never stored: the next
//! `open` then decides from the rows.
//!
//! # Wire protocol
//!
//! Line-oriented: one request per line, at most one response line per
//! request (queued batch deltas are silent; empty lines and `%` comments
//! are ignored). Decisions carry the CLI's 0/1/2/3 exit-code contract in
//! a `status` field: `0` consistent, `1` inconsistent, `2` usage or
//! input error, `3` undecided (with `abort_reason`). In `text` format a
//! decision is `status=<code> <outcome text>`, an error is
//! `err <kind>: <message>`; in `json` format both are single-line JSON
//! objects with a `"status"` key. The response shapes are the canonical
//! renderers in [`bagcons::protocol`], shared with the `watch` CLI.
//! Error kinds distinguish the
//! caller's fault from the world's: a policy or grammar violation is
//! `err usage:`/`err protocol:`, a filesystem failure during `load`/
//! `save` is `err io:`. A malformed request is answered with a
//! structured error and the connection **stays open** — only `quit`,
//! EOF, or daemon shutdown close it.
//!
//! | request | effect |
//! |---|---|
//! | `ping` | liveness probe, answers `ok pong` |
//! | `load <name> <file>...` | register dataset `<name>` from files (generation 0); text bags parse + seal, snapshot files decode directly (auto-detected by magic bytes) |
//! | `save <name> <file>` | export the dataset's current generation as a snapshot file |
//! | `list` | enumerate datasets with generation + bag counts |
//! | `open <name>` | open this connection's session on the current generation (a fork of its stored stream: runs no decision once the generation has one, so it cannot abort on a deadline) |
//! | `<bag> <vals...> : <±d>` | one delta (`parse_delta_line` format) → one decision |
//! | `batch` … `end` | group deltas; one [`bagcons::stream::ConsistencyStream::update_batch`] decision on `end` |
//! | `bulk <delta>[;<delta>]*` | a whole delta batch in one framed line: one payload, one round trip, one decision (all-or-nothing parse; `batch`/`end` stay as the incremental aliases) |
//! | `check` | re-decide the session's current state |
//! | `sync` | re-pin the session to the dataset's current generation (a fork, as for `open`) |
//! | `commit` | publish the session's bags as the next generation (CAS), with its stream when decided |
//! | `timeout <ms\|none>` | per-request wall-clock budget for this session |
//! | `format <text\|json>` | response format for this connection |
//! | `close` | close the session, keep the connection |
//! | `quit` | close the connection |
//! | `shutdown` | drain in-flight requests and stop the daemon |
//!
//! # Admission control and backpressure
//!
//! Decision-bearing requests (open/delta/batch-end/check/sync/commit)
//! acquire a permit from a global [`server::WorkerBudget`] — a counting
//! semaphore sized like the executor's thread pool — so N connections
//! cannot oversubscribe the [`bagcons_core::ExecConfig`] workers; excess
//! requests queue on the semaphore in arrival order. Batches are bounded
//! (`err busy` past the cap) and connections beyond the configured
//! maximum are refused at accept time. Graceful shutdown (SIGTERM,
//! ctrl-c, or the `shutdown` request) stops accepting, lets every
//! in-flight request finish and flush its response, then joins all
//! connection threads.
//!
//! Each request is containment-wrapped ([`std::panic::catch_unwind`]):
//! a panic inside a decision (e.g. an armed fault-injection failpoint)
//! answers `err internal`, drops only that connection's session, and
//! the daemon keeps serving.

pub mod protocol;
pub mod registry;
pub mod server;

pub use registry::{Dataset, Generation, Registry};
pub use server::{ServeOptions, Server, ServerHandle};
