//! Named datasets as sequences of immutable, shareable generations.
//!
//! A [`Generation`] is a sealed snapshot of a dataset's bags behind
//! `Arc`s; readers pin one by cloning the `Arc`s and are immune to later
//! publishes. [`Dataset::publish`] is a compare-and-swap on the
//! generation sequence number, so two writers racing from the same
//! parent cannot silently clobber each other — the loser gets a conflict
//! with the current sequence number and can re-sync.
//!
//! A generation also keeps the decided [`ConsistencyStream`] over its
//! bags, once one exists. By Lemma 2 a pair's state depends only on the
//! two bags, so every session that opens the generation gets the same
//! stream; [`Generation::fork`] hands each one a copy-on-write clone
//! of it instead of rebuilding the pair states from the rows.

use bagcons::session::{Decision, Session, SessionError};
use bagcons::stream::ConsistencyStream;
use bagcons_core::Bag;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// One immutable snapshot of a dataset: sealed bags, shared by `Arc`,
/// and the decided stream over them once one has been built.
pub struct Generation {
    /// Monotonic sequence number within the dataset (0 = as loaded).
    pub seq: u64,
    /// The bags; every one is sealed and never mutated after publish.
    pub bags: Vec<Arc<Bag>>,
    /// A stream over `bags` whose decision is `Consistent` or
    /// `Inconsistent`, set at most once and never mutated: sessions get
    /// forks of it. A stream left `Unknown` (a deadline, a node budget,
    /// a poisoned batch) is never stored. Loading sets none, so that
    /// start-up builds no pair state; the first [`Generation::fork`]
    /// builds it.
    stream: OnceLock<ConsistencyStream>,
}

impl fmt::Debug for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Generation")
            .field("seq", &self.seq)
            .field("bags", &self.bags)
            .field("stream", &self.stream.get().map(|s| s.decision()))
            .finish()
    }
}

impl Generation {
    fn new(seq: u64, bags: Vec<Arc<Bag>>) -> Self {
        debug_assert!(bags.iter().all(|b| b.is_sealed()));
        Generation {
            seq,
            bags,
            stream: OnceLock::new(),
        }
    }

    /// Stores a clone of `stream`, a stream over this generation's bags,
    /// if it is decided and none is stored yet (a racing store keeps
    /// the first; both are the same decision of the same bags).
    fn keep(&self, stream: &ConsistencyStream) {
        if matches!(
            stream.decision(),
            Decision::Consistent | Decision::Inconsistent
        ) {
            let _ = self.stream.set(stream.clone());
        }
    }

    /// A session's own stream over this generation: a fork of the stored
    /// stream under `session`'s time budget, or, while none is stored, a
    /// stream built from the bags by `session` (and stored, if decided).
    ///
    /// A fork runs no decision: it copies `Arc`s and scalars, so it
    /// cannot abort on a deadline, and its decision is the stored one.
    /// Exec and solver settings come from the stored stream; the daemon
    /// builds every connection's session from the same options.
    pub fn fork(&self, session: &Session) -> Result<ConsistencyStream, SessionError> {
        if let Some(stream) = self.stream.get() {
            let mut fork = stream.clone();
            fork.set_time_budget(session.time_budget());
            return Ok(fork);
        }
        let stream = session.open_stream_shared(self.bags.clone())?;
        self.keep(&stream);
        Ok(stream)
    }
}

/// A named dataset: the current [`Generation`] plus CAS publication.
#[derive(Debug)]
pub struct Dataset {
    name: String,
    current: Mutex<Arc<Generation>>,
}

impl Dataset {
    fn new(name: String, bags: Vec<Arc<Bag>>) -> Self {
        Dataset {
            name,
            current: Mutex::new(Arc::new(Generation::new(0, bags))),
        }
    }

    /// The dataset's registry name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pins the current generation (cheap: two `Arc` bumps under a
    /// short lock).
    pub fn current(&self) -> Arc<Generation> {
        Arc::clone(&self.current.lock().expect("dataset lock poisoned"))
    }

    /// Publishes `stream`'s bags ([`ConsistencyStream::share_bags`]) as
    /// the next generation **iff** the current one is still `parent_seq`
    /// (compare-and-swap). The new generation keeps a fork of `stream`
    /// when its decision is `Consistent` or `Inconsistent`, so sessions
    /// that open it fork that stream instead of rebuilding it. On success
    /// returns the new generation; on a lost race returns the current
    /// sequence number so the caller can `sync` and retry.
    pub fn publish(
        &self,
        parent_seq: u64,
        stream: &ConsistencyStream,
    ) -> Result<Arc<Generation>, u64> {
        let mut current = self.current.lock().expect("dataset lock poisoned");
        if current.seq != parent_seq {
            return Err(current.seq);
        }
        let next = Arc::new(Generation::new(parent_seq + 1, stream.share_bags()));
        next.keep(stream);
        *current = Arc::clone(&next);
        Ok(next)
    }
}

/// The daemon-wide name → dataset map (deterministic listing order).
#[derive(Debug, Default)]
pub struct Registry {
    datasets: Mutex<BTreeMap<String, Arc<Dataset>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a new dataset at generation 0. Every bag must already
    /// be sealed. Fails (returning the rejected bags) if the name is
    /// taken — datasets are append-only snapshots, never reloaded in
    /// place under live readers.
    pub fn insert(&self, name: &str, bags: Vec<Arc<Bag>>) -> Result<Arc<Dataset>, Vec<Arc<Bag>>> {
        let mut map = self.datasets.lock().expect("registry lock poisoned");
        if map.contains_key(name) {
            return Err(bags);
        }
        let ds = Arc::new(Dataset::new(name.to_string(), bags));
        map.insert(name.to_string(), Arc::clone(&ds));
        Ok(ds)
    }

    /// Looks a dataset up by name.
    pub fn get(&self, name: &str) -> Option<Arc<Dataset>> {
        self.datasets
            .lock()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// `(name, current generation, bag count)` for every dataset, in
    /// name order.
    pub fn list(&self) -> Vec<(String, u64, usize)> {
        self.datasets
            .lock()
            .expect("registry lock poisoned")
            .values()
            .map(|ds| {
                let generation = ds.current();
                (ds.name().to_string(), generation.seq, generation.bags.len())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bagcons_core::{Attr, DeltaSet, ExecConfig, Schema};
    use std::time::Duration;

    fn schema() -> Schema {
        Schema::from_attrs([Attr::new(0), Attr::new(1)])
    }

    fn sealed_bag() -> Arc<Bag> {
        let mut bag = Bag::from_u64s(schema(), [(&[0u64, 0][..], 2)]).unwrap();
        bag.try_seal_with(&ExecConfig::default()).unwrap();
        Arc::new(bag)
    }

    fn stream_over(bags: Vec<Arc<Bag>>) -> ConsistencyStream {
        Session::default().open_stream_shared(bags).unwrap()
    }

    #[test]
    fn publish_is_compare_and_swap() {
        let reg = Registry::new();
        let ds = reg.insert("d", vec![sealed_bag()]).unwrap();
        assert!(reg.insert("d", vec![sealed_bag()]).is_err());
        let g0 = ds.current();
        assert_eq!(g0.seq, 0);

        let g1 = ds.publish(0, &stream_over(vec![sealed_bag()])).unwrap();
        assert_eq!(g1.seq, 1);
        // the pinned generation is untouched, the loser's CAS fails
        assert_eq!(g0.seq, 0);
        assert!(matches!(
            ds.publish(0, &stream_over(vec![sealed_bag()])),
            Err(1)
        ));
        assert_eq!(reg.list(), vec![("d".to_string(), 1, 1)]);
        assert!(reg.get("missing").is_none());
    }

    #[test]
    fn publish_stores_a_decided_stream() {
        let reg = Registry::new();
        let ds = reg.insert("d", vec![sealed_bag(), sealed_bag()]).unwrap();
        let session = Session::default();
        let mut writer = ds.current().fork(&session).unwrap();
        let mut d = DeltaSet::new(schema());
        d.bump_u64s(&[0, 0], 1).unwrap();
        writer.update(0, &d).unwrap();
        assert_eq!(writer.decision(), Decision::Inconsistent);

        let g1 = ds.publish(0, &writer).unwrap();
        let stored = g1.stream.get().expect("a decided stream is stored");
        assert_eq!(stored.decision(), Decision::Inconsistent);
        assert_eq!(stored.inconsistent_pair(), Some((0, 1)));
        for (a, b) in stored.bags().iter().zip(&g1.bags) {
            assert!(Arc::ptr_eq(a, b));
        }

        // The writer goes on; the stored stream does not move with it.
        let mut back = DeltaSet::new(schema());
        back.bump_u64s(&[0, 0], -1).unwrap();
        writer.update(0, &back).unwrap();
        assert_eq!(writer.decision(), Decision::Consistent);
        let stored = g1.stream.get().unwrap();
        assert_eq!(stored.decision(), Decision::Inconsistent);
        assert_eq!(stored.bags()[0].unary_size(), 3);

        // A fork of it decides as a stream opened over the bags would.
        let fork = g1.fork(&session).unwrap();
        let fresh = session.open_stream_shared(g1.bags.clone()).unwrap();
        assert_eq!(fork.decision(), fresh.decision());
        assert_eq!(fork.inconsistent_pair(), fresh.inconsistent_pair());

        // A fork runs under the opening session's time budget, not the
        // writer's: an expired one leaves its next update Unknown.
        let expired = Session::builder().deadline(Duration::ZERO).build().unwrap();
        let mut fork = g1.fork(&expired).unwrap();
        assert_eq!(fork.decision(), Decision::Inconsistent);
        let out = fork.update(0, &back).unwrap();
        assert_eq!(out.decision, Decision::Unknown);
        assert_eq!(g1.stream.get().unwrap().decision(), Decision::Inconsistent);
    }

    #[test]
    fn an_unknown_stream_is_not_stored() {
        let reg = Registry::new();
        let ds = reg.insert("d", vec![sealed_bag(), sealed_bag()]).unwrap();
        let mut writer = ds.current().fork(&Session::default()).unwrap();
        // An in-place edit applies without a poll; the poll after the
        // pair update finds the deadline expired and leaves Unknown.
        writer.set_time_budget(Some(Duration::ZERO));
        let mut d = DeltaSet::new(schema());
        d.bump_u64s(&[0, 0], 1).unwrap();
        let out = writer.update(0, &d).unwrap();
        assert_eq!(out.decision, Decision::Unknown);
        let g1 = ds.publish(0, &writer).unwrap();
        assert!(g1.stream.get().is_none(), "an Unknown stream was stored");
        // The first open decides from the rows, and stores that.
        let opened = g1.fork(&Session::default()).unwrap();
        assert_eq!(opened.decision(), Decision::Inconsistent);
        assert_eq!(g1.stream.get().unwrap().decision(), Decision::Inconsistent);

        // A pairwise-consistent triangle that needs search nodes: under
        // a one-node budget the open is Unknown and stores nothing.
        let wide: Vec<(&[u64], u64)> = vec![(&[0, 0], 3), (&[0, 1], 3), (&[1, 0], 3), (&[1, 1], 3)];
        let triangle = [[0, 1], [1, 2], [0, 2]].map(|attrs| {
            let schema = Schema::from_attrs(attrs.map(Attr::new));
            Arc::new(Bag::from_u64s(schema, wide.clone()).unwrap())
        });
        let ds = reg.insert("t", triangle.to_vec()).unwrap();
        let g = ds.current();
        let starved = Session::builder().budget(1).build().unwrap();
        assert_eq!(g.fork(&starved).unwrap().decision(), Decision::Unknown);
        assert!(g.stream.get().is_none(), "an Unknown open was stored");
        assert_eq!(
            g.fork(&Session::default()).unwrap().decision(),
            Decision::Consistent
        );
        assert_eq!(g.stream.get().unwrap().decision(), Decision::Consistent);
    }

    #[test]
    fn first_open_of_a_loaded_generation_sets_the_stream_once() {
        let reg = Registry::new();
        let ds = reg.insert("d", vec![sealed_bag(), sealed_bag()]).unwrap();
        let g0 = ds.current();
        assert!(g0.stream.get().is_none(), "loading builds no stream");
        let session = Session::default();
        let first = g0.fork(&session).unwrap();
        let stored = g0.stream.get().expect("the first open stores its stream") as *const _;
        assert_eq!(first.decision(), Decision::Consistent);
        for _ in 0..3 {
            let fork = g0.fork(&session).unwrap();
            assert_eq!(fork.decision(), Decision::Consistent);
            assert!(std::ptr::eq(g0.stream.get().unwrap(), stored));
        }

        // Racing first opens: one store wins, every answer is right.
        let ds = reg.insert("e", vec![sealed_bag(), sealed_bag()]).unwrap();
        let g = ds.current();
        let decisions: Vec<Decision> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| g.fork(&Session::default()).unwrap().decision()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(decisions.iter().all(|&d| d == Decision::Consistent));
        assert_eq!(g.stream.get().unwrap().decision(), Decision::Consistent);
    }
}
